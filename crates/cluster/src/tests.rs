//! In-crate tests: the ones that read the machine's private bookkeeping
//! (`pending`, `buffers`, `pool.slots`, the count of live job cells) or
//! drive its test-only fault hooks. Tests that need only `pub` items are in
//! `tests/`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ftn_core::{Artifacts, CompilerOptions};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

use crate::{ArtifactCache, ClusterMachine};

const SAXPY: &str = r#"
subroutine saxpy(n, a, x, y)
  implicit none
  integer :: n, i
  real :: a, x(n), y(n)
  !$omp target parallel do simd simdlen(10)
  do i = 1, n
    y(i) = y(i) + a*x(i)
  end do
  !$omp end target parallel do simd
end subroutine saxpy
"#;

fn artifacts() -> &'static Arc<Artifacts> {
    static CELL: OnceLock<Arc<Artifacts>> = OnceLock::new();
    CELL.get_or_init(|| {
        ArtifactCache::new()
            .get_or_compile(&CompilerOptions::default(), SAXPY)
            .expect("saxpy compiles")
    })
}

pub(crate) fn pool(n: usize) -> ClusterMachine {
    let devices = vec![DeviceModel::u280(); n];
    ClusterMachine::load(artifacts(), &devices).expect("pool loads")
}

/// Whether every job cell of `cluster`'s pool is gone: each report taken by
/// its claim or given up with it. A worker lets go of its job's cell just
/// after the outcome is observable, so the count gets a moment to settle.
fn no_live_cells(cluster: &ClusterMachine) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.pool.live_cells.load(Ordering::SeqCst) > 0 {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A failed open releases its scatter on the host and the mirrors it had
/// staged on the devices: device 0's arena, read after a worker job there,
/// is what it was before the failed open. A run placed on the dead device
/// fails the way a job sent there does.
#[test]
fn failed_open_releases_every_sub_buffer() {
    use crate::pool::WorkerMessage;
    use crate::sharded::ShardCount;
    use crate::{MapKind, Partition};
    let mut cluster = pool(2);
    let n = 512usize;
    let xa = cluster.host_f32(&vec![1.0f32; n]);
    let ya = cluster.host_f32(&vec![0.5f32; n]);
    // Device 0's arena while a one-shard session's two mirrors are on it:
    // the open's upload job reports it.
    let arena_with_a_session = |cluster: &mut ClusterMachine| {
        let (px, py) = (cluster.host_f32(&[1.0; 4]), cluster.host_f32(&[0.0; 4]));
        let maps = [
            ("x", px.clone(), MapKind::To),
            ("y", py.clone(), MapKind::ToFrom),
        ];
        let sid = cluster.open_session(&maps).unwrap();
        assert_eq!(
            cluster.session_info(sid).map(|info| info.devices),
            Some(vec![0])
        );
        let arena = cluster.pool_stats().devices[0].arena_buffers;
        cluster.close_session(sid).unwrap();
        cluster.free_host(&px).unwrap();
        cluster.free_host(&py).unwrap();
        arena
    };
    let arena = arena_with_a_session(&mut cluster);
    let run_args = [
        RtValue::I32(n as i32),
        RtValue::F32(0.0),
        xa.clone(),
        ya.clone(),
    ];
    // Round-robin: device 1 takes the next run, device 0 the one after.
    assert_eq!(cluster.run("saxpy", &run_args).unwrap().device, 1);
    assert_eq!(cluster.run("saxpy", &run_args).unwrap().device, 0);
    let (live, tracked) = (cluster.memory.live(), cluster.buffers.len());

    // Device 1's worker exits; its queue is closed from here on.
    let slot = &mut cluster.pool.slots[1];
    slot.inbox.send(WorkerMessage::Shutdown, true).unwrap();
    slot.thread.take().unwrap().join().unwrap();

    let err = cluster
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
            ],
            ShardCount::Fixed(2),
        )
        .expect_err("staging onto a dead worker fails");
    assert!(err.to_string().contains("worker is gone"), "{err}");
    assert!(cluster.open_sessions().is_empty());
    // The scatter is released: host sub-buffers and the mirrors device 0
    // had already staged. Sub-buffers never entered the machine's arrays.
    assert_eq!(cluster.memory.live(), live);
    assert_eq!(cluster.buffers.len(), tracked);
    assert!(cluster.pending.is_empty() && no_live_cells(&cluster));
    let err = cluster
        .run("saxpy", &run_args)
        .expect_err("device 1 is gone");
    assert!(err.to_string().contains("device 1 worker is gone"), "{err}");
    assert_eq!(cluster.queue_depths(), vec![0, 0]);
    assert_eq!(arena_with_a_session(&mut cluster), arena);
}

/// The exchange's failure path under its two gathering callers — a
/// refresh and a close: a gather job that fails on its worker surfaces as
/// the caller's error, every handle of the phase is still waited, every
/// move buffer is released on host and devices, and the session — still
/// open — carries on bit-identical to a run that never saw the fault.
#[test]
fn failed_exchange_releases_its_buffers_and_leaves_the_session_intact() {
    use crate::sharded::{ShardArg, ShardCount};
    use crate::{MapKind, Partition, SessionStats};
    let n = 1024usize;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos()).collect();
    let args = [
        ShardArg::Array("x".into()),
        ShardArg::Array("y".into()),
        ShardArg::Extent("x".into()),
        ShardArg::Extent("y".into()),
        ShardArg::Scalar(RtValue::F32(1.5)),
        ShardArg::Scalar(RtValue::Index(1)),
        ShardArg::Extent("x".into()),
    ];
    let run = |faults: bool| -> (Vec<f32>, SessionStats, Vec<usize>) {
        let mut cluster = pool(4);
        let xa = cluster.host_f32(&x);
        let ya = cluster.host_f32(&y);
        let sid = cluster
            .open_sharded_session(
                &[
                    ("x", xa, MapKind::To, Partition::Split { halo: 1 }),
                    (
                        "y",
                        ya.clone(),
                        MapKind::ToFrom,
                        Partition::Split { halo: 1 },
                    ),
                ],
                ShardCount::Fixed(4),
            )
            .unwrap();
        let launch = |cluster: &mut ClusterMachine| {
            let t = cluster.sharded_launch(sid, "saxpy_kernel0", &args).unwrap();
            cluster.wait_sharded(t).unwrap();
        };
        launch(&mut cluster);
        let (live, tracked) = (cluster.memory.live(), cluster.buffers.len());
        let settled = |cluster: &ClusterMachine| {
            assert_eq!(cluster.memory.live(), live);
            assert_eq!(cluster.buffers.len(), tracked);
            assert!(cluster.pending.is_empty() && no_live_cells(cluster));
        };

        if faults {
            cluster.corrupt_next_gather = true;
            let err = cluster.refresh_halos(sid).expect_err("gather fails");
            assert!(err.to_string().contains("out of bounds"), "{err}");
            settled(&cluster);
        }
        assert!(cluster.refresh_halos(sid).unwrap().refreshed);
        // Arena counts ride on job outcomes: after the next launch they
        // must match the run that never saw the failed refresh.
        launch(&mut cluster);
        let arenas = (cluster.pool_stats().devices.iter())
            .map(|d| d.arena_buffers)
            .collect();
        launch(&mut cluster);
        if faults {
            // One device's fetch fails; the others' land and are claimed.
            cluster.corrupt_next_gather = true;
            let err = cluster.close_sharded_session(sid).expect_err("fetch fails");
            assert!(err.to_string().contains("out of bounds"), "{err}");
            assert_eq!(cluster.open_sessions(), vec![sid]);
            settled(&cluster);
        }
        let stats = cluster.close_sharded_session(sid).unwrap().stats;
        assert_eq!(cluster.pool_stats().host_buffers, 2);
        (cluster.read_f32(&ya), stats, arenas)
    };
    let (clean_y, clean_stats, clean_arenas) = run(false);
    let (y, stats, arenas) = run(true);
    assert_eq!(arenas, clean_arenas);
    for (i, (a, b)) in clean_y.iter().zip(&y).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i}");
    }
    assert_eq!(stats, clean_stats);
}

/// Nothing blocks while holding the machine lock, an open's staging and a
/// close's fetch included: with device 1's worker stalled, session B's
/// `open_phased` — then its `close_phased` — sits in its off-lock wait while
/// session A, on device 0, submits and completes a launch through the same
/// gate. Answers arrive over channels read with a timeout, so an open or a
/// close that waited under the lock fails here instead of hanging the suite.
#[test]
fn a_stalled_open_or_close_does_not_hold_up_another_sessions_launch() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use crate::sharded::{ShardArg, ShardCount};
    use crate::{MapKind, Partition, PoolGate};

    const PATIENCE: Duration = Duration::from_secs(20);
    let n = 64usize;
    let split = Partition::Split { halo: 0 };
    let gate = Arc::new(PoolGate::new(pool(2)));
    let arrays = |gate: &PoolGate| {
        let mut m = gate.lock();
        (m.host_f32(&vec![1.0f32; n]), m.host_f32(&vec![0.5f32; n]))
    };
    let maps = |x: &RtValue, y: &RtValue| {
        [
            ("x", x.clone(), MapKind::To, split),
            ("y", y.clone(), MapKind::ToFrom, split),
        ]
    };
    let (xa, ya) = arrays(&gate);
    let a = (gate.open_phased(&maps(&xa, &ya), ShardCount::Fixed(1))).unwrap();
    assert_eq!(
        gate.lock().session_info(a).map(|info| info.devices),
        Some(vec![0])
    );
    let args = [
        ShardArg::Array("x".into()),
        ShardArg::Array("y".into()),
        ShardArg::Extent("x".into()),
        ShardArg::Extent("y".into()),
        ShardArg::Scalar(RtValue::F32(2.0)),
        ShardArg::Scalar(RtValue::Index(1)),
        ShardArg::Extent("x".into()),
    ];

    // Run `op` on its own thread with device 1 stalled; once its job is
    // queued there (so `op` is in its wait), complete a launch on A, see
    // that `op` is still waiting, and only then let device 1 go.
    let (xb, yb) = arrays(&gate);
    let behind_a_stall = |what: &str, op: Box<dyn FnOnce(&PoolGate) -> u64 + Send>| -> u64 {
        // Device 1's worker stops taking work until `release` is dropped.
        let (release, released) = mpsc::channel();
        let stall = crate::pool::WorkerMessage::Stall(released);
        (gate.lock().pool.slots[1].inbox.send(stall, true)).expect("worker");
        let (done_tx, done) = mpsc::channel();
        let worker = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || done_tx.send(op(&gate)).expect("test listens"))
        };
        let deadline = Instant::now() + PATIENCE;
        while gate.try_lock().is_none_or(|m| m.loads[1] == 0) {
            assert!(Instant::now() < deadline, "{what} holds the machine lock");
            std::thread::yield_now();
        }
        let (tx, launched) = mpsc::channel();
        let launcher = {
            let (gate, args) = (Arc::clone(&gate), args.clone());
            std::thread::spawn(move || {
                let ticket = gate
                    .lock_session(a)
                    .sharded_launch(a, "saxpy_kernel0", &args);
                let reports = gate.wait_many(ticket.expect("launch submits").handles);
                tx.send(reports.map(|r| r.len())).expect("test listens");
            })
        };
        let reports = launched
            .recv_timeout(PATIENCE)
            .unwrap_or_else(|_| panic!("a launch on A waits out B's {what}"));
        assert_eq!(reports.unwrap(), 1);
        assert!(done.try_recv().is_err(), "B's {what} cannot finish yet");
        drop(release);
        launcher.join().expect("launcher");
        let result = done.recv_timeout(PATIENCE).expect("released");
        worker.join().expect("worker");
        result
    };

    let b_maps = maps(&xb, &yb);
    let b = behind_a_stall(
        "open",
        Box::new(move |gate| (gate.open_phased(&b_maps, ShardCount::Fixed(1))).unwrap()),
    );
    assert_eq!(
        gate.lock().session_info(b).map(|info| info.devices),
        Some(vec![1])
    );
    behind_a_stall(
        "close",
        Box::new(move |gate| gate.close_phased(b).unwrap().stats.fetched_downloads),
    );
    assert_eq!(gate.lock().read_f32(&yb), vec![0.5f32; n]);
    // A launched twice: y += 2x, twice.
    gate.close_phased(a).unwrap();
    assert_eq!(gate.lock().read_f32(&ya), vec![4.5f32; n]);
}

/// A close keeps its arrays refused until its rows have landed: with the
/// close's fetch held up on a stalled worker, a sessionless run, an open
/// and a free over the session's `y` are each refused, as they are before
/// the close began. Had they gone through, the run would have staged the
/// stale host `y`, the open would have cut it, and the free would have
/// released the buffer the close's gather is about to write.
#[test]
fn a_closing_sessions_arrays_stay_refused_while_its_rows_move() {
    use std::sync::mpsc;

    use crate::sharded::ShardCount;
    use crate::{MapKind, Partition, PoolGate};

    const PATIENCE: Duration = Duration::from_secs(20);
    let n = 16usize;
    let gate = Arc::new(PoolGate::new(pool(1)));
    let (xa, ya) = {
        let mut m = gate.lock();
        (m.host_f32(&vec![1.0f32; n]), m.host_f32(&vec![0.5f32; n]))
    };
    let split = Partition::Split { halo: 0 };
    let maps = [
        ("x", xa.clone(), MapKind::To, split),
        ("y", ya.clone(), MapKind::ToFrom, split),
    ];
    let sid = gate.open_phased(&maps, ShardCount::Fixed(1)).unwrap();
    let ticket = gate
        .lock_session(sid)
        .sharded_launch(sid, "saxpy_kernel0", &saxpy_args(2.0))
        .unwrap();
    gate.wait_many(ticket.handles).unwrap();

    // The worker stops taking work until `release` is dropped; the close
    // queues its fetch behind the stall and waits for it off-lock.
    let (release, released) = mpsc::channel();
    let stall = crate::pool::WorkerMessage::Stall(released);
    (gate.lock().pool.slots[0].inbox.send(stall, true)).expect("worker");
    let (done_tx, done) = mpsc::channel();
    let closer = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || done_tx.send(gate.close_phased(sid).map(|r| r.session)))
    };
    let deadline = Instant::now() + PATIENCE;
    while gate.try_lock().is_none_or(|m| m.loads[0] == 0) {
        assert!(
            Instant::now() < deadline,
            "the close never queued its fetch"
        );
        std::thread::yield_now();
    }

    let refused = |what: &str, result: Result<(), ftn_core::CompileError>| {
        let err = result.expect_err(what);
        assert_eq!(err.stage, "cluster-session", "{what}: {err}");
        assert!(
            err.message.contains(&format!("open session {sid}")),
            "{what}: {err}"
        );
    };
    let run_args = [
        RtValue::I32(n as i32),
        RtValue::F32(1.0),
        xa.clone(),
        ya.clone(),
    ];
    refused("run", gate.lock().run("saxpy", &run_args).map(drop));
    let again = [("y", ya.clone(), MapKind::ToFrom, split)];
    refused(
        "open",
        gate.open_phased(&again, ShardCount::Fixed(1)).map(drop),
    );
    refused("free", gate.lock().free_host(&ya));
    assert!(done.try_recv().is_err(), "the close cannot finish yet");

    drop(release);
    let closed = done.recv_timeout(PATIENCE).expect("released");
    closer.join().expect("closer").expect("test listens");
    assert_eq!(closed.unwrap(), sid);
    let mut m = gate.lock();
    assert_eq!(m.read_f32(&ya), vec![2.5f32; n]);
    m.free_host(&ya).unwrap();
    m.free_host(&xa).unwrap();
    assert_eq!(m.pool_stats().host_buffers, 0);
    assert!(m.pending.is_empty() && no_live_cells(&m));
}

/// Launches whose tickets were dropped unwaited: a failed one fails the
/// close once, leaves no job cell behind, and leaves the session open for
/// the close that then works.
#[test]
fn a_failed_unwaited_launch_fails_the_close_once_and_leaves_the_session_open() {
    use crate::MapKind;
    let mut cluster = pool(1);
    let n = 8usize;
    let xa = cluster.host_f32(&vec![1.0f32; n]);
    let ya = cluster.host_f32(&vec![0.5f32; n]);
    let maps = [
        ("x", xa.clone(), MapKind::To),
        ("y", ya.clone(), MapKind::ToFrom),
    ];
    let sid = cluster.open_session(&maps).unwrap();
    let args = |n: usize| {
        let n = RtValue::Index(n as i64);
        let (x, y, one) = (xa.clone(), ya.clone(), RtValue::Index(1));
        [x, y, n.clone(), n.clone(), RtValue::F32(2.0), one, n]
    };
    // The middle launch runs off the end of its arrays.
    for n in [n, 9999, n] {
        let _unwaited = cluster
            .session_launch(sid, "saxpy_kernel0", &args(n))
            .unwrap();
    }
    let err = cluster.close_session(sid).expect_err("a launch failed");
    assert_eq!(err.stage, "cluster-run");
    assert_eq!(cluster.open_sessions(), vec![sid]);
    assert!(cluster.pending.is_empty() && no_live_cells(&cluster));
    cluster.close_session(sid).unwrap();
    // The failed launch had updated every element in bounds before it failed.
    assert_eq!(cluster.read_f32(&ya), vec![6.5f32; n]);
    assert_eq!(cluster.pool_stats().host_buffers, 2);
}

/// SAXPY's shard arguments: `y += a·x` over each shard's rows.
fn saxpy_args(a: f32) -> [crate::ShardArg; 7] {
    use crate::ShardArg;
    [
        ShardArg::Array("x".into()),
        ShardArg::Array("y".into()),
        ShardArg::Extent("x".into()),
        ShardArg::Extent("y".into()),
        ShardArg::Scalar(RtValue::F32(a)),
        ShardArg::Scalar(RtValue::Index(1)),
        ShardArg::Extent("x".into()),
    ]
}

/// A launch whose fan-out meets a dead worker fails, and the claim of the
/// job it did send is dropped: the close that follows lands that job, and
/// the jobs that could not be sent (the launch's and the close's) finish
/// their own cells and land at the send, so the close leaves nothing
/// orphaned in `pending` or in a job cell.
#[test]
fn a_failed_launch_leaves_no_orphaned_outcome() {
    use crate::pool::WorkerMessage;
    use crate::{MapKind, Partition, ShardCount};
    let mut cluster = pool(2);
    let n = 64usize;
    let xa = cluster.host_f32(&vec![1.0f32; n]);
    let ya = cluster.host_f32(&vec![0.5f32; n]);
    let split = Partition::Split { halo: 0 };
    let maps = [
        ("x", xa, MapKind::To, split),
        ("y", ya, MapKind::ToFrom, split),
    ];
    let sid = (cluster.open_sharded_session(&maps, ShardCount::Fixed(2))).unwrap();
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices),
        Some(vec![0, 1])
    );

    // Device 1's worker exits; its queue is closed from here on.
    let slot = &mut cluster.pool.slots[1];
    slot.inbox.send(WorkerMessage::Shutdown, true).unwrap();
    slot.thread.take().unwrap().join().unwrap();

    let err = (cluster.sharded_launch(sid, "saxpy_kernel0", &saxpy_args(2.0)))
        .expect_err("shard 1's device is gone");
    assert!(err.to_string().contains("worker is gone"), "{err}");
    let err = cluster
        .close_sharded_session(sid)
        .expect_err("its fetch fails");
    assert!(err.to_string().contains("worker is gone"), "{err}");
    assert!(cluster.pending.is_empty(), "still pending");
    assert!(no_live_cells(&cluster), "orphaned outcomes");
}

/// A session's kernel jobs go straight to their shard's device: on a pool
/// where one device holds two of three shards, across launches and a halo
/// refresh, no launch stages anything, each elides every distinct buffer of
/// every shard, and the session's staged uploads are exactly what its open
/// and refresh applies staged.
#[test]
fn a_session_kernel_job_never_stages() {
    use crate::{MapKind, Partition, ShardCount};
    let mut cluster = pool(2);
    let n = 600usize;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&vec![1.0f32; n]);
    let split = Partition::Split { halo: 1 };
    let staged = |c: &ClusterMachine| {
        let ps = c.pool_stats();
        (ps.staged_uploads, ps.staged_bytes)
    };
    let step = |c: &mut ClusterMachine, op: &mut dyn FnMut(&mut ClusterMachine)| {
        let before = staged(c);
        op(c);
        let after = staged(c);
        (after.0 - before.0, after.1 - before.1)
    };
    let mut sid = 0;
    let open = step(&mut cluster, &mut |c| {
        let maps = [
            ("x", xa.clone(), MapKind::To, split),
            ("y", ya.clone(), MapKind::ToFrom, split),
        ];
        sid = c.open_sharded_session(&maps, ShardCount::Fixed(3)).unwrap();
    });
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices),
        Some(vec![0, 1, 0])
    );
    assert_eq!(open.0, 6, "two arrays uploaded to three shards");
    let mut launch = |c: &mut ClusterMachine| {
        let t = c.sharded_launch(sid, "saxpy_kernel0", &saxpy_args(0.5));
        let t = t.unwrap();
        assert_eq!(t.elided, 3 * 2, "x and y on each of three shards");
        c.wait_sharded(t).unwrap();
    };
    for _ in 0..3 {
        assert_eq!(step(&mut cluster, &mut launch), (0, 0));
    }
    let refresh = step(&mut cluster, &mut |c| {
        assert!(c.refresh_halos(sid).unwrap().refreshed);
    });
    assert!(refresh.0 > 0, "ghost rows cross devices");
    for _ in 0..3 {
        assert_eq!(step(&mut cluster, &mut launch), (0, 0));
    }
    let stats = cluster.session_info(sid).unwrap().stats;
    let applies = [open, refresh];
    assert_eq!(
        stats.staged_uploads,
        applies.iter().map(|a| a.0).sum::<u64>()
    );
    assert_eq!(stats.staged_bytes, applies.iter().map(|a| a.1).sum::<u64>());
    assert_eq!(stats.launches, 6 * 3);
    assert_eq!(stats.elided_transfers, 6 * 3 * 2);
    cluster.close_sharded_session(sid).unwrap();
    let got = cluster.read_f32(&ya);
    for (i, v) in got.iter().enumerate() {
        let mut expect = 1.0f32;
        for _ in 0..6 {
            expect += 0.5 * x[i];
        }
        assert_eq!(v.to_bits(), expect.to_bits(), "element {i}");
    }
}

/// How long a wait regression gives its thread before calling it a hang.
const PATIENCE: Duration = Duration::from_secs(20);

/// Run `body` on its own thread and return what it sends, failing the test
/// if nothing arrives within [`PATIENCE`]: a wait that hangs fails here
/// instead of hanging the suite (the blocked thread is left behind).
pub(crate) fn watchdog<T: Send + 'static>(
    what: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(body()).expect("test listens"));
    let out = rx.recv_timeout(PATIENCE);
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = out {
        panic!("{what} hangs");
    }
    worker.join().expect("the body runs to completion");
    out.expect("the body sent its result")
}

/// A job dropped unrun finishes its own cell, so its wait cannot outlive
/// it: device 1's worker is stalled, then told to shut down, and a 2-shard
/// launch queues its shard-1 job behind the `Shutdown`. Released, the
/// worker exits and the job goes with its channel. The launch's wait fails
/// with the worker gone instead of hanging, and the close that follows
/// (refused by device 1 too) leaves nothing pending and no job cell behind.
fn a_job_queued_behind_its_workers_shutdown_fails_its_wait(via_gate: bool) {
    use std::sync::mpsc;

    use crate::pool::WorkerMessage;
    use crate::{MapKind, Partition, PoolGate, ShardCount};
    let what = if via_gate {
        "PoolGate::wait_many"
    } else {
        "wait_sharded"
    };
    watchdog(what, move || {
        let n = 64usize;
        let gate = PoolGate::new(pool(2));
        let (xa, ya) = {
            let mut m = gate.lock();
            (m.host_f32(&vec![1.0f32; n]), m.host_f32(&vec![0.5f32; n]))
        };
        let split = Partition::Split { halo: 0 };
        let maps = [
            ("x", xa, MapKind::To, split),
            ("y", ya, MapKind::ToFrom, split),
        ];
        let sid = gate.open_phased(&maps, ShardCount::Fixed(2)).unwrap();
        let (release, released) = mpsc::channel::<()>();
        {
            let m = gate.lock();
            let device1 = &m.pool.slots[1].inbox;
            device1
                .send(WorkerMessage::Stall(released), true)
                .expect("worker");
            device1.send(WorkerMessage::Shutdown, true).expect("worker");
        }
        let ticket = gate
            .lock_session(sid)
            .sharded_launch(sid, "saxpy_kernel0", &saxpy_args(2.0))
            .expect("both shards' jobs are queued");
        drop(release);
        let waited = if via_gate {
            gate.wait_many(ticket.handles).map(drop)
        } else {
            gate.lock().wait_sharded(ticket).map(drop)
        };
        let err = waited.expect_err("shard 1's job never ran");
        assert!(err.to_string().contains("worker is gone"), "{err}");
        let closed = if via_gate {
            gate.close_phased(sid).map(drop)
        } else {
            gate.lock().close_sharded_session(sid).map(drop)
        };
        let err = closed.expect_err("device 1 refuses its fetch");
        assert!(err.to_string().contains("worker is gone"), "{err}");
        let m = gate.lock();
        assert!(m.pending.is_empty(), "still pending");
        assert!(no_live_cells(&m), "a job cell outlives its job");
    });
}

#[test]
fn a_job_queued_behind_its_workers_shutdown_fails_wait_sharded() {
    a_job_queued_behind_its_workers_shutdown_fails_its_wait(false);
}

#[test]
fn a_job_queued_behind_its_workers_shutdown_fails_the_gates_wait() {
    a_job_queued_behind_its_workers_shutdown_fails_its_wait(true);
}

/// SAXPY's whole-array launch arguments for a one-shard session over `x`
/// and `y` of `n` elements: `y += a·x`.
fn saxpy_launch(x: &RtValue, y: &RtValue, n: usize, a: f32) -> [RtValue; 7] {
    let n = RtValue::Index(n as i64);
    let (x, y, one) = (x.clone(), y.clone(), RtValue::Index(1));
    [x, y, n.clone(), n.clone(), RtValue::F32(a), one, n]
}

/// The synchronous API's order with a close in the window, on a one-shard
/// session, where the launch stays queued at the head of its idle device
/// for its waiter: submit, close, then wait. The close runs the launch it
/// finds at the head instead of waiting for an outcome nobody will produce,
/// and the ticket stays redeemable after it.
#[test]
fn a_queued_launch_waited_after_its_close_returns_its_report() {
    use crate::MapKind;
    let n = 64usize;
    let (launches, closed_launches, y) = watchdog("a wait after the close", move || {
        let mut cluster = pool(1);
        let xa = cluster.host_f32(&vec![1.0f32; n]);
        let ya = cluster.host_f32(&vec![0.5f32; n]);
        let maps = [
            ("x", xa.clone(), MapKind::To),
            ("y", ya.clone(), MapKind::ToFrom),
        ];
        let sid = cluster.open_session(&maps).unwrap();
        let ticket =
            (cluster.session_launch(sid, "saxpy_kernel0", &saxpy_launch(&xa, &ya, n, 2.0)))
                .unwrap();
        let handle = &ticket.handle;
        assert!(
            handle.inbox.at_head(handle.job_id),
            "an idle device's only job"
        );
        let closed = cluster.close_session(sid).unwrap();
        let report = cluster.wait(ticket.handle).unwrap();
        assert!(cluster.pending.is_empty() && no_live_cells(&cluster));
        let y = cluster.read_f32(&ya);
        (report.report.stats.launches, closed.stats.launches, y)
    });
    assert_eq!((launches, closed_launches), (1, 1));
    assert_eq!(y, vec![2.5f32; n]);
}

/// A launch queued at the head of its idle device whose claim is dropped
/// unwaited still runs, with no further call to the machine: the drop wakes
/// its worker, which takes it, and a sweep lands it.
/// It failed, so the session's next close fails once with its message, and
/// nothing of it is left behind.
#[test]
fn a_queued_launch_dropped_unwaited_runs_and_fails_the_close_once() {
    use crate::MapKind;
    let n = 8usize;
    let mut cluster = pool(1);
    let xa = cluster.host_f32(&vec![1.0f32; n]);
    let ya = cluster.host_f32(&vec![0.5f32; n]);
    let maps = [
        ("x", xa.clone(), MapKind::To),
        ("y", ya.clone(), MapKind::ToFrom),
    ];
    let sid = cluster.open_session(&maps).unwrap();
    // The launch runs off the end of its arrays.
    let ticket = cluster
        .session_launch(sid, "saxpy_kernel0", &saxpy_launch(&xa, &ya, 9999, 2.0))
        .unwrap();
    let handle = &ticket.handle;
    assert!(
        handle.inbox.at_head(handle.job_id),
        "an idle device's only job"
    );
    drop(ticket);
    let deadline = Instant::now() + PATIENCE;
    while !cluster.pending.is_empty() {
        assert!(Instant::now() < deadline, "a dropped claim's job never ran");
        cluster.sweep();
        std::thread::yield_now();
    }
    let err = cluster.close_session(sid).expect_err("the launch failed");
    assert_eq!(err.stage, "cluster-run");
    assert!(err.message.contains("out of bounds"), "{err}");
    assert_eq!(cluster.open_sessions(), vec![sid]);
    cluster.close_session(sid).unwrap();
    assert!(cluster.pending.is_empty() && no_live_cells(&cluster));
    // The failed launch had updated every element in bounds before it failed.
    assert_eq!(cluster.read_f32(&ya), vec![2.5f32; n]);
}

/// A device counts as idle only when nothing it was sent is unfinished: a
/// closed session's `Evict`, queued behind a stall, keeps it busy, so the
/// next open's staging waits behind it. That open reuses the closed
/// session's host ids for its sub-buffers; had its staging been run by its
/// waiter ahead of the queued `Evict`, the `Evict` would delete the new
/// mirrors and the launch would find nothing resident.
#[test]
fn a_queued_evict_runs_before_a_later_opens_staging() {
    use std::sync::mpsc;

    use crate::pool::WorkerMessage;
    use crate::sharded::ShardCount;
    use crate::{MapKind, Partition, PoolGate};
    let n = 32usize;
    let split = Partition::Split { halo: 0 };
    let gate = Arc::new(PoolGate::new(pool(1)));
    let arrays: Vec<RtValue> = {
        let mut m = gate.lock();
        (0..4)
            .map(|i| m.host_f32(&vec![i as f32 * 0.5; n]))
            .collect()
    };
    // A maps only `to` arrays: its close fetches nothing and sends only the
    // `Evict`.
    let maps = [
        ("x", arrays[0].clone(), MapKind::To, split),
        ("y", arrays[1].clone(), MapKind::To, split),
    ];
    let a = gate.open_phased(&maps, ShardCount::Fixed(1)).unwrap();
    let a_ids = gate.lock().sessions[&a].env.buffer_ids();
    // Device 0 stops taking messages until `release` is dropped.
    let (release, released) = mpsc::channel::<()>();
    let stall = WorkerMessage::Stall(released);
    (gate.lock().pool.slots[0].inbox.send(stall, true)).expect("worker");
    gate.close_phased(a).unwrap();

    let (xb, yb) = (arrays[2].clone(), arrays[3].clone());
    let (tx, opened) = mpsc::channel();
    let opener = {
        let gate = Arc::clone(&gate);
        let maps = [
            ("x", xb, MapKind::To, split),
            ("y", yb.clone(), MapKind::ToFrom, split),
        ];
        std::thread::spawn(move || tx.send(gate.open_phased(&maps, ShardCount::Fixed(1))))
    };
    if let Ok(b) = opened.recv_timeout(Duration::from_millis(300)) {
        panic!("B's open ran ahead of A's queued Evict: {b:?}");
    }
    drop(release);
    let b = opened.recv_timeout(PATIENCE).expect("released").unwrap();
    opener.join().expect("opener").expect("test listens");
    let b_ids = gate.lock().sessions[&b].env.buffer_ids();
    assert!(
        b_ids.iter().any(|id| a_ids.contains(id)),
        "B's sub-buffers reuse A's host ids: {a_ids:?} {b_ids:?}"
    );
    let ticket = (gate.lock_session(b)).sharded_launch(b, "saxpy_kernel0", &saxpy_args(2.0));
    gate.wait_many(ticket.unwrap().handles).unwrap();
    gate.close_phased(b).unwrap();
    // y = 1.5 + 2·1.0
    assert_eq!(gate.lock().read_f32(&yb), vec![3.5f32; n]);
}

/// Nothing runs under the machine lock: while session A's launch, taken
/// from the head of its idle device, is mid-run on its waiter's thread (device 0's state is held here, so it
/// cannot finish), session B's launch on device 1 submits and completes
/// through the same gate. Answers arrive over channels read with a timeout,
/// so a runner that held the machine lock fails here instead of hanging.
#[test]
fn a_waiter_runs_its_job_off_the_machine_lock() {
    use std::sync::mpsc;

    use crate::sharded::ShardCount;
    use crate::{MapKind, Partition, PoolGate};
    let n = 64usize;
    let split = Partition::Split { halo: 0 };
    let gate = Arc::new(PoolGate::new(pool(2)));
    let open = |y: f32| {
        let (x, y) = {
            let mut m = gate.lock();
            (m.host_f32(&vec![1.0f32; n]), m.host_f32(&vec![y; n]))
        };
        let maps = [
            ("x", x, MapKind::To, split),
            ("y", y.clone(), MapKind::ToFrom, split),
        ];
        (gate.open_phased(&maps, ShardCount::Fixed(1)).unwrap(), y)
    };
    let ((a, ya), (b, yb)) = (open(0.5), open(1.5));
    assert_eq!(
        gate.lock().session_info(a).map(|info| info.devices),
        Some(vec![0])
    );
    assert_eq!(
        gate.lock().session_info(b).map(|info| info.devices),
        Some(vec![1])
    );
    let launch = |gate: &PoolGate, sid: u64| {
        let ticket = gate
            .lock_session(sid)
            .sharded_launch(sid, "saxpy_kernel0", &saxpy_args(2.0))
            .expect("launch submits");
        let handle = &ticket.handles[0];
        assert!(
            handle.inbox.at_head(handle.job_id),
            "an idle device's only job"
        );
        gate.wait_many(ticket.handles).map(|r| r.len())
    };

    let device0 = Arc::clone(&gate.lock().pool.slots[0].inbox);
    let held = device0.hold();
    let (a_tx, a_done) = mpsc::channel();
    let a_thread = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || a_tx.send(launch(&gate, a)).expect("test listens"))
    };
    let deadline = Instant::now() + PATIENCE;
    while gate.try_lock().is_none_or(|m| m.loads[0] == 0) {
        assert!(
            Instant::now() < deadline,
            "A's launch holds the machine lock"
        );
        std::thread::yield_now();
    }
    let (b_tx, b_done) = mpsc::channel();
    let b_thread = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || b_tx.send(launch(&gate, b)).expect("test listens"))
    };
    let reports = b_done
        .recv_timeout(PATIENCE)
        .unwrap_or_else(|_| panic!("B's launch waits out A's running job"));
    assert_eq!(reports.unwrap(), 1);
    assert!(a_done.try_recv().is_err(), "A's job cannot finish yet");
    drop(held);
    assert_eq!(a_done.recv_timeout(PATIENCE).expect("released").unwrap(), 1);
    a_thread.join().expect("A's launcher");
    b_thread.join().expect("B's launcher");
    gate.close_phased(a).unwrap();
    gate.close_phased(b).unwrap();
    let m = gate.lock();
    assert_eq!(m.read_f32(&ya), vec![2.5f32; n]);
    assert_eq!(m.read_f32(&yb), vec![3.5f32; n]);
    assert!(m.pending.is_empty() && no_live_cells(&m));
}

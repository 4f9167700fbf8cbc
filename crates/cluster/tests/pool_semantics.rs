//! The pool through its `pub` surface: bit-identity with `Machine`,
//! placement, caches, sessions, fan-outs, and flat arenas. Tests that read
//! the machine's private bookkeeping are in `src/tests.rs`.

use std::sync::{Arc, OnceLock};

use ftn_core::{Artifacts, CompilerOptions, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use proptest::prelude::*;

use ftn_cluster::{ArtifactCache, ClusterMachine};

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

fn pool(n: usize) -> ClusterMachine {
    let devices = vec![DeviceModel::u280(); n];
    ClusterMachine::load(artifacts(), &devices).expect("pool loads")
}

/// Argument list of the compiled `saxpy_kernel0` device kernel:
/// `(x, y, n, n, a, 1, n)` — see the generated `device.kernel_create`.
fn saxpy_kernel_args(x: &RtValue, y: &RtValue, n: usize, a: f32) -> Vec<RtValue> {
    vec![
        x.clone(),
        y.clone(),
        RtValue::Index(n as i64),
        RtValue::Index(n as i64),
        RtValue::F32(a),
        RtValue::Index(1),
        RtValue::Index(n as i64),
    ]
}

#[test]
fn n1_pool_is_bit_identical_to_machine() {
    let n = 1003usize;
    let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();

    let mut machine = Machine::load(artifacts(), DeviceModel::u280()).unwrap();
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y);
    let single = machine
        .run(
            "saxpy",
            &[RtValue::I32(n as i32), RtValue::F32(2.5), xa, ya.clone()],
        )
        .unwrap();
    let single_y = machine.read_f32(&ya);

    let mut cluster = pool(1);
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let pooled = cluster
        .run(
            "saxpy",
            &[RtValue::I32(n as i32), RtValue::F32(2.5), xa, ya.clone()],
        )
        .unwrap();
    let pooled_y = cluster.read_f32(&ya);

    assert_eq!(pooled.device, 0);
    assert_eq!(single_y, pooled_y, "results must be bit-identical");
    assert_eq!(
        single.stats, pooled.report.stats,
        "stats must be bit-identical"
    );
    assert_eq!(single.fpga_power_watts, pooled.report.fpga_power_watts);

    // Pool totals equal the single run's stats for one job on one device.
    let ps = cluster.pool_stats();
    assert_eq!(ps.totals, single.stats);
    assert_eq!(ps.jobs, 1);
}

#[test]
fn placement_is_deterministic_for_a_seeded_queue() {
    // Two identically-constructed pools fed the same call sequence must
    // place every call on the same device.
    let run_sequence = |cluster: &mut ClusterMachine| -> Vec<usize> {
        let n = 64usize;
        (0..8)
            .map(|shard| {
                let xa = cluster.host_f32(&vec![shard as f32; n]);
                let ya = cluster.host_f32(&vec![1.0f32; n]);
                let args = [RtValue::I32(n as i32), RtValue::F32(2.0), xa, ya];
                cluster.run("saxpy", &args).unwrap().device
            })
            .collect()
    };
    let mut a = pool(4);
    let mut b = pool(4);
    let placed_a = run_sequence(&mut a);
    let placed_b = run_sequence(&mut b);
    assert_eq!(placed_a, placed_b);
    // Independent shards spread round-robin over the idle pool.
    assert_eq!(placed_a, vec![0, 1, 2, 3, 0, 1, 2, 3]);
}

#[test]
fn artifact_cache_hits_on_second_identical_compile() {
    let cache = ArtifactCache::new();
    let opts = CompilerOptions::default();
    let a = cache.get_or_compile(&opts, SAXPY).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (0, 1), "{s:?}");
    let b = cache.get_or_compile(&opts, SAXPY).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 1), "{s:?}");
    assert!(
        Arc::ptr_eq(&a, &b),
        "cache must return the shared artifacts"
    );

    // A different option set is a different content address.
    let other = CompilerOptions {
        fix_mac_pattern: true,
        ..Default::default()
    };
    let _ = cache.get_or_compile(&other, SAXPY).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 2), "{s:?}");
}

#[test]
fn disk_cache_layer_survives_a_new_cache_instance() {
    let dir = std::env::temp_dir().join(format!("ftn-artifact-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CompilerOptions::default();
    {
        let cache = ArtifactCache::with_disk(&dir).unwrap();
        let _ = cache.get_or_compile(&opts, SAXPY).unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.disk_stores), (1, 1), "{s:?}");
    }
    // A fresh cache over the same directory serves the compile from disk.
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    let a = cache.get_or_compile(&opts, SAXPY).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.disk_hits, s.misses), (0, 1, 0), "{s:?}");
    // And the reloaded artifacts are usable end-to-end.
    let mut m = Machine::load(&a, DeviceModel::u280()).unwrap();
    let xa = m.host_f32(&[1.0, 2.0]);
    let ya = m.host_f32(&[1.0, 1.0]);
    m.run(
        "saxpy",
        &[RtValue::I32(2), RtValue::F32(3.0), xa, ya.clone()],
    )
    .unwrap();
    assert_eq!(m.read_f32(&ya), vec![4.0, 7.0]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn four_device_pool_at_least_doubles_aggregate_throughput() {
    let n = 4096usize;
    let shards = 8usize;
    let x = vec![1.5f32; n];
    let y = vec![0.5f32; n];

    // Single device, sequential shards.
    let mut single = Machine::load(artifacts(), DeviceModel::u280()).unwrap();
    let mut serial_sim = 0.0f64;
    for _ in 0..shards {
        let xa = single.host_f32(&x);
        let ya = single.host_f32(&y);
        let r = single
            .run(
                "saxpy",
                &[RtValue::I32(n as i32), RtValue::F32(2.0), xa, ya],
            )
            .unwrap();
        serial_sim += r.stats.kernel_wall_seconds + r.stats.transfer_seconds;
    }

    // Four devices, each shard's call on the next idle one.
    let mut cluster = pool(4);
    for _ in 0..shards {
        let xa = cluster.host_f32(&x);
        let ya = cluster.host_f32(&y);
        let args = [RtValue::I32(n as i32), RtValue::F32(2.0), xa, ya];
        cluster.run("saxpy", &args).unwrap();
    }
    let ps = cluster.pool_stats();
    // The pool did the same simulated work...
    assert!(
        (ps.serial_sim_seconds - serial_sim).abs() < 1e-12,
        "pool serial {} vs machine {}",
        ps.serial_sim_seconds,
        serial_sim
    );
    // ...in under half the timeline.
    assert!(
        ps.aggregate_speedup >= 2.0,
        "aggregate speedup {} (stats {ps:?})",
        ps.aggregate_speedup
    );
    // Per-device stats sum consistently to the pool totals.
    let sum_launches: u64 = ps.devices.iter().map(|d| d.stats.launches).sum();
    assert_eq!(sum_launches, ps.totals.launches);
    assert_eq!(ps.totals.launches as usize, shards);
}

/// Host pool memory, live buffers and bytes.
fn host_memory(cluster: &ClusterMachine) -> (usize, u64) {
    let ps = cluster.pool_stats();
    (ps.host_buffers, ps.host_bytes)
}

/// A host call computes on a data environment that lives only as long as
/// the call: once a sessionless run is back, pool memory holds what it held
/// before the run (here a session's arrays and the run's own arguments) and
/// no device copy of an argument, before any array is freed.
#[test]
fn a_host_call_leaves_no_argument_copy_on_its_device() {
    use ftn_cluster::MapKind;
    let mut cluster = pool(1);
    let n = 64usize;
    let (sx, sy) = (cluster.host_f32(&[1.0; 8]), cluster.host_f32(&[0.0; 8]));
    let sid = cluster
        .open_session(&[("x", sx, MapKind::To), ("y", sy, MapKind::ToFrom)])
        .unwrap();
    for round in 0..3 {
        let xa = cluster.host_f32(&vec![1.0f32; n]);
        let ya = cluster.host_f32(&vec![0.5f32; n]);
        let before = host_memory(&cluster);
        let args = [RtValue::I32(n as i32), RtValue::F32(2.0), xa, ya.clone()];
        cluster.run("saxpy", &args).unwrap();
        assert_eq!(cluster.read_f32(&ya), vec![2.5f32; n]);
        assert_eq!(
            host_memory(&cluster),
            before,
            "round {round}: argument copies outlived the run"
        );
    }
    cluster.close_session(sid).unwrap();
}

/// The lost-update hazard of two sessions over one array: B would cut the
/// host copy of `y`, stale while A's update lives on A's device, and its
/// close would overwrite A's. An open over an array another open session
/// maps is refused — through the machine, one shard or two, and through the
/// gate — with the error a sessionless run gets, and once A is closed
/// the arrays are ordinary again.
#[test]
fn a_second_session_over_a_mapped_array_is_refused() {
    use ftn_cluster::{MapKind, Partition, PoolGate, ShardCount};
    let n = 16usize;
    let y = watchdog("a second open over a mapped array", move || {
        let gate = PoolGate::new(pool(2));
        let (xa, ya) = {
            let mut m = gate.lock();
            (m.host_f32(&vec![1.0f32; n]), m.host_f32(&vec![0.0f32; n]))
        };
        let split = Partition::Split { halo: 0 };
        let maps = [
            ("x", xa.clone(), MapKind::To, split),
            ("y", ya.clone(), MapKind::ToFrom, split),
        ];
        let launch = |sid: u64, a: f32| {
            let args = saxpy_shard_args(a);
            let ticket = (gate.lock_session(sid)).sharded_launch(sid, "saxpy_kernel0", &args);
            gate.wait_many(ticket.unwrap().handles).unwrap();
        };
        let a = (gate
            .lock()
            .open_sharded_session(&maps, ShardCount::Fixed(1)))
        .unwrap();
        launch(a, 1.0);
        let expect = format!("array is mapped by open session {a}; close it or launch through it");
        for shards in [1, 2] {
            let shards = ShardCount::Fixed(shards);
            let err = (gate.lock().open_sharded_session(&maps, shards)).expect_err("y is A's");
            assert_eq!(err.stage, "cluster-session");
            assert!(err.to_string().contains(&expect), "{err}");
            let err = gate.open_phased(&maps, shards).expect_err("y is A's");
            assert!(err.to_string().contains(&expect), "{err}");
        }
        assert_eq!(gate.lock().open_sessions(), vec![a]);
        gate.close_phased(a).unwrap();
        let b = gate.open_phased(&maps, ShardCount::Fixed(2)).unwrap();
        launch(b, 10.0);
        gate.close_phased(b).unwrap();
        let y = gate.lock().read_f32(&ya);
        y
    });
    assert_eq!(y, vec![11.0f32; n], "A's update survives B");
}

#[test]
fn session_maps_once_and_elides_per_launch_transfers() {
    use ftn_cluster::MapKind;
    let mut cluster = pool(2);
    let n = 256usize;
    let x = vec![1.0f32; n];
    let y = vec![0.5f32; n];
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sid = cluster
        .open_session(&[
            ("x", xa.clone(), MapKind::To),
            ("y", ya.clone(), MapKind::ToFrom),
        ])
        .unwrap();
    let launches = 4usize;
    for _ in 0..launches {
        let ticket = cluster
            .session_launch(sid, "saxpy_kernel0", &saxpy_kernel_args(&xa, &ya, n, 3.0))
            .unwrap();
        cluster.wait(ticket.handle).unwrap();
    }
    // Host memory is stale until close: launches defer writeback.
    assert_eq!(cluster.read_f32(&ya), y, "no per-launch writeback");
    let report = cluster.close_session(sid).unwrap();
    assert_eq!(report.stats.launches, launches as u64);
    assert_eq!(report.stats.staged_uploads, 2, "x and y mapped once");
    assert_eq!(report.stats.elided_transfers, 2 * launches as u64);
    assert_eq!(report.stats.fetched_downloads, 1, "only y comes back");
    // y += 3*x, four times.
    let expect: Vec<f32> = y.iter().map(|v| v + 4.0 * 3.0).collect();
    assert_eq!(cluster.read_f32(&ya), expect);
    // Pool totals: 2 uploads + 1 download, `launches` kernel launches.
    let ps = cluster.pool_stats();
    assert_eq!(ps.totals.transfers, 3);
    assert_eq!(ps.totals.launches, launches as u64);
    assert!(cluster.open_sessions().is_empty());
}

/// The hazard the old pinned-residency rung was meant to cover: while a
/// session maps `x` and `y`, their current contents live on the
/// session's sub-buffers. A sessionless job naming them would compute
/// on the stale host copy and be overwritten by the close.
#[test]
fn sessionless_job_over_session_mapped_arrays_is_refused() {
    use ftn_cluster::MapKind;
    let mut cluster = pool(2);
    let n = 64usize;
    let xa = cluster.host_f32(&vec![1.0f32; n]);
    let ya = cluster.host_f32(&vec![0.5f32; n]);
    let host_buffers = cluster.pool_stats().host_buffers;
    let sid = cluster
        .open_session(&[
            ("x", xa.clone(), MapKind::To),
            ("y", ya.clone(), MapKind::ToFrom),
        ])
        .unwrap();
    let ticket = cluster
        .session_launch(sid, "saxpy_kernel0", &saxpy_kernel_args(&xa, &ya, n, 3.0))
        .unwrap();
    cluster.wait(ticket.handle).unwrap();

    let run_args = [RtValue::I32(n as i32), RtValue::F32(1.0), xa, ya.clone()];
    let err = cluster
        .run("saxpy", &run_args)
        .expect_err("arrays are mapped by the open session");
    assert_eq!(err.stage, "cluster-session");
    let expect = format!("array is mapped by open session {sid}; close it or launch through it");
    assert!(err.to_string().contains(&expect), "{err}");
    assert_eq!(cluster.read_f32(&ya), vec![0.5f32; n], "host untouched");

    cluster.close_session(sid).unwrap();
    assert_eq!(cluster.read_f32(&ya), vec![3.5f32; n]);
    assert_eq!(cluster.pool_stats().host_buffers, host_buffers);
    // Once closed, the arrays are ordinary again.
    cluster.run("saxpy", &run_args).unwrap();
    assert_eq!(cluster.read_f32(&ya), vec![4.5f32; n]);
}

#[test]
fn rollups_attribute_cycles_per_kernel_session_and_device() {
    use ftn_cluster::{MapKind, Partition, RollupBy, RollupRow, ShardCount};
    const KERNEL_ROW: (u64, u64, f64, u64) = (9, 55068, 0.00020156, 0);
    const SESSION_ROW: (u64, u64, f64, u64) = (6, 28968, 0.00010856000000000002, 0);
    let mut cluster = pool(2);
    let n = 256usize;
    let x = vec![1.0f32; n];
    let y = vec![0.5f32; n];
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);

    // One sessionless run: a device row, no kernel or session row.
    let run_args = [
        RtValue::I32(n as i32),
        RtValue::F32(2.0),
        xa.clone(),
        ya.clone(),
    ];
    let run_cycles = cluster
        .run("saxpy", &run_args)
        .unwrap()
        .report
        .stats
        .total_cycles;
    assert!(cluster.rollups(RollupBy::Session).is_empty());
    assert!(cluster.rollups(RollupBy::Kernel).is_empty());

    // Three session launches: attributed to the session id.
    let sid = cluster
        .open_session(&[
            ("x", xa.clone(), MapKind::To),
            ("y", ya.clone(), MapKind::ToFrom),
        ])
        .unwrap();
    for _ in 0..3 {
        let ticket = cluster
            .session_launch(sid, "saxpy_kernel0", &saxpy_kernel_args(&xa, &ya, n, 3.0))
            .unwrap();
        cluster.wait(ticket.handle).unwrap();
    }
    cluster.close_session(sid).unwrap();

    let kernels = cluster.rollups(RollupBy::Kernel);
    assert_eq!(kernels.len(), 1);
    let k = &kernels[0];
    assert_eq!(k.key, "saxpy_kernel0");
    assert_eq!(k.jobs, 3);
    assert!(k.sim_cycles > 0);
    assert!(k.sim_seconds > 0.0);
    // Only the run and the kernel jobs burn cycles, so together they
    // account for the pool's entire cycle total.
    let total_cycles = cluster.pool_stats().totals.total_cycles;
    assert_eq!(k.sim_cycles + run_cycles, total_cycles);

    let sessions = cluster.rollups(RollupBy::Session);
    assert_eq!(sessions.len(), 1);
    assert_eq!(sessions[0].key, sid.to_string());
    assert_eq!(sessions[0].jobs, 3, "only session launches attributed");

    // Device rows see every job (the run, kernels, the session-open
    // upload and the close fetch) and their cycles re-add to the total.
    let devices = cluster.rollups(RollupBy::Device);
    assert!(!devices.is_empty());
    let device_cycles: u64 = devices.iter().map(|r| r.sim_cycles).sum();
    assert_eq!(device_cycles, total_cycles);
    let device_jobs: u64 = devices.iter().map(|r| r.jobs).sum();
    assert!(
        device_jobs >= 4,
        "at least the run and the three kernel jobs: {devices:?}"
    );
    let bytes: u64 = devices.iter().map(|r| r.bytes_moved).sum();
    assert!(bytes > 0, "staging + writeback move bytes");
    // One ledger per device: each row is its `PoolStats` entry.
    let ledgers_agree = |cluster: &ClusterMachine| {
        let ps = cluster.pool_stats();
        let devices = cluster.rollups(RollupBy::Device);
        for row in &devices {
            let d = &ps.devices[row.key.parse::<usize>().unwrap()];
            assert_eq!(row.jobs, d.jobs, "device {}", row.key);
            assert_eq!(row.sim_cycles, d.stats.total_cycles, "device {}", row.key);
            assert_eq!(row.sim_seconds, d.busy_sim_seconds, "device {}", row.key);
        }
        let listed: u64 = devices.iter().map(|r| r.jobs).sum();
        assert_eq!(listed, ps.jobs, "an idle device is the only one unlisted");
    };
    ledgers_agree(&cluster);

    // A two-shard halo session refreshing between launches: the patches
    // of each refresh ride on the next job to their device, and their
    // uploads are charged to that device alone — the kernel and session
    // rows are the ones each refresh's own patch jobs left (pinned).
    let maps = [
        ("x", xa, MapKind::To, Partition::Split { halo: 1 }),
        ("y", ya, MapKind::ToFrom, Partition::Split { halo: 1 }),
    ];
    let halo = (cluster.open_sharded_session(&maps, ShardCount::Fixed(2))).unwrap();
    for k in 0..3 {
        if k > 0 {
            assert!(cluster.refresh_halos(halo).unwrap().refreshed);
        }
        let ticket = cluster.sharded_launch(halo, "saxpy_kernel0", &saxpy_shard_args(1.0));
        cluster.wait_sharded(ticket.unwrap()).unwrap();
    }
    cluster.close_sharded_session(halo).unwrap();
    let pinned = |rows: Vec<RollupRow>, key: String| {
        let row = rows.into_iter().find(|r| r.key == key).expect("a row");
        (row.jobs, row.sim_cycles, row.sim_seconds, row.bytes_moved)
    };
    assert_eq!(
        pinned(cluster.rollups(RollupBy::Kernel), "saxpy_kernel0".into()),
        KERNEL_ROW
    );
    assert_eq!(
        pinned(cluster.rollups(RollupBy::Session), halo.to_string()),
        SESSION_ROW
    );
    ledgers_agree(&cluster);
}

#[test]
fn worker_arena_does_not_grow_across_jobs() {
    // Regression for the ROADMAP item "pool workers never free device
    // buffers": the reclaim at the end of every host call must keep memory
    // flat across whole-program runs, which allocate device data
    // environments — now in the pool's host memory, where the call runs.
    let mut cluster = pool(1);
    let n = 64usize;
    let xa = cluster.host_f32(&vec![1.0f32; n]);
    let ya = cluster.host_f32(&vec![0.0f32; n]);
    let args = [RtValue::I32(n as i32), RtValue::F32(1.0), xa, ya];
    for _ in 0..3 {
        cluster.run("saxpy", &args).unwrap();
    }
    let settled = host_memory(&cluster);
    for _ in 0..20 {
        cluster.run("saxpy", &args).unwrap();
    }
    assert_eq!(
        host_memory(&cluster),
        settled,
        "memory must stay flat across runs (reclaimed after each)"
    );
}

#[test]
fn sharded_session_fans_out_and_gathers() {
    use ftn_cluster::{MapKind, Partition};
    use ftn_cluster::{ShardArg, ShardCount};
    let mut cluster = pool(4);
    let n = 1003usize;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos()).collect();
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa.clone(), MapKind::To, Partition::Split { halo: 0 }),
                (
                    "y",
                    ya.clone(),
                    MapKind::ToFrom,
                    Partition::Split { halo: 0 },
                ),
            ],
            ShardCount::Fixed(4),
        )
        .unwrap();
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices.len()),
        Some(4)
    );
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices),
        Some(vec![0, 1, 2, 3])
    );
    let a = 2.25f32;
    let args = [
        ShardArg::Array("x".into()),
        ShardArg::Array("y".into()),
        ShardArg::Extent("x".into()),
        ShardArg::Extent("y".into()),
        ShardArg::Scalar(RtValue::F32(a)),
        ShardArg::Scalar(RtValue::Index(1)),
        ShardArg::Extent("x".into()),
    ];
    let reps = 3usize;
    for _ in 0..reps {
        let ticket = cluster.sharded_launch(sid, "saxpy_kernel0", &args).unwrap();
        assert_eq!(ticket.devices, vec![0, 1, 2, 3]);
        let report = cluster.wait_sharded(ticket).unwrap();
        assert_eq!(report.stats.launches, 4);
    }
    // Host memory is stale until close (deferred writeback).
    assert_eq!(cluster.read_f32(&ya), y);
    let report = cluster.close_sharded_session(sid).unwrap();
    assert_eq!(report.shards, 4);
    assert_eq!(report.stats.launches, (reps * 4) as u64);
    assert_eq!(report.stats.fetched_downloads, 4, "one y slice per shard");
    let got = cluster.read_f32(&ya);
    for i in 0..n {
        let mut expect = y[i];
        for _ in 0..reps {
            expect += a * x[i];
        }
        assert_eq!(got[i].to_bits(), expect.to_bits(), "element {i}");
    }
    // All four devices really ran shard jobs, force-placed.
    let ps = cluster.pool_stats();
    assert!(ps.devices.iter().all(|d| d.jobs > 0), "{ps:?}");
    assert!(ps.shard_forced >= (4 + reps * 4) as u64, "{ps:?}");
    // The shard sub-buffers were freed at close: only x and y remain.
    assert_eq!(ps.host_buffers, 2, "{ps:?}");
    assert!(cluster.open_sessions().is_empty());
}

/// An open session's rows live on its devices, not twice: while it is open
/// the pool's host memory holds the mapped arrays and nothing more — each
/// shard's host sub-buffer is an empty placeholder until the close fetch
/// fills it — and a halo refresh still prices its rows by the arrays' type.
#[test]
fn an_open_session_keeps_no_rows_on_the_host() {
    use ftn_cluster::{MapKind, Partition, ReduceOp, ShardCount};
    let mut cluster = pool(2);
    let n = 4096usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y = vec![1.0f32; n];
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sa = cluster.host_f32(&[0.0]);
    let mapped = cluster.pool_stats().host_bytes;
    assert_eq!(mapped, 4 * (2 * n as u64 + 1));
    let halo = Partition::Split { halo: 1 };
    let maps = [
        ("x", xa, MapKind::To, halo),
        ("y", ya.clone(), MapKind::ToFrom, halo),
        ("s", sa, MapKind::From, Partition::Reduced(ReduceOp::Sum)),
    ];
    let sid = (cluster.open_sharded_session(&maps, ShardCount::Fixed(2))).unwrap();
    assert_eq!(cluster.pool_stats().host_bytes, mapped, "while open");
    let ticket = cluster.sharded_launch(sid, "saxpy_kernel0", &saxpy_shard_args(2.0));
    cluster.wait_sharded(ticket.unwrap()).unwrap();
    let refresh = cluster.refresh_halos(sid).unwrap();
    // One ghost row each side of the one boundary, per split array.
    assert_eq!((refresh.halo_rows, refresh.halo_bytes), (4, 4 * 4));
    assert_eq!(cluster.pool_stats().host_bytes, mapped, "after a refresh");
    cluster.close_sharded_session(sid).unwrap();
    assert_eq!(cluster.pool_stats().host_bytes, mapped, "after the close");
    let expect: Vec<f32> = (0..n).map(|i| 1.0 + 2.0 * x[i]).collect();
    assert_eq!(cluster.read_f32(&ya), expect);
}

#[test]
fn more_shards_than_devices_cycle_the_pool() {
    use ftn_cluster::{MapKind, Partition};
    use ftn_cluster::{ShardArg, ShardCount};
    let mut cluster = pool(2);
    let n = 600usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
    let y = vec![1.0f32; n];
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                (
                    "y",
                    ya.clone(),
                    MapKind::ToFrom,
                    Partition::Split { halo: 0 },
                ),
            ],
            ShardCount::Fixed(6),
        )
        .unwrap();
    // Six shards cycle the two devices; each worker runs its three
    // shard jobs of a launch back-to-back.
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices.len()),
        Some(6)
    );
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices),
        Some(vec![0, 1, 0, 1, 0, 1])
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
    let ticket = cluster.sharded_launch(sid, "saxpy_kernel0", &args).unwrap();
    assert_eq!(ticket.handles.len(), 6);
    let report = cluster.wait_sharded(ticket).unwrap();
    assert_eq!(report.stats.launches, 6);
    cluster.close_sharded_session(sid).unwrap();
    let got = cluster.read_f32(&ya);
    for (i, v) in got.iter().enumerate() {
        let expect = 1.0 + 2.0 * (i as f32 * 0.01);
        assert_eq!(v.to_bits(), expect.to_bits(), "element {i}");
    }
    // One job per shard and fan-out: the open's uploads, one launch, the
    // close's fetches.
    let ps = cluster.pool_stats();
    assert_eq!(ps.jobs, 3 * 6, "{ps:?}");

    // An absurd shard request is bounded: a single (possibly hostile)
    // session cannot allocate more than MAX_SHARDS_PER_DEVICE shards
    // per device.
    let xa = cluster.host_f32(&x);
    let sid = cluster
        .open_sharded_session(
            &[("x", xa, MapKind::To, Partition::Split { halo: 0 })],
            ShardCount::Fixed(1_000_000),
        )
        .unwrap();
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices.len()),
        Some(2 * ftn_cluster::MAX_SHARDS_PER_DEVICE)
    );
    cluster.close_sharded_session(sid).unwrap();
}

#[test]
fn free_host_keeps_host_and_device_arenas_flat() {
    let mut cluster = pool(1);
    let n = 128usize;
    // Settle the arena with a few allocate-run-free cycles first.
    let mut settled = None;
    for round in 0..12 {
        let xa = cluster.host_f32(&vec![1.0f32; n]);
        let ya = cluster.host_f32(&vec![0.0f32; n]);
        cluster
            .run(
                "saxpy",
                &[
                    RtValue::I32(n as i32),
                    RtValue::F32(1.0),
                    xa.clone(),
                    ya.clone(),
                ],
            )
            .unwrap();
        cluster.free_host(&xa).unwrap();
        cluster.free_host(&ya).unwrap();
        // Double-free is rejected.
        assert!(cluster.free_host(&xa).is_err());
        let ps = cluster.pool_stats();
        assert_eq!(ps.host_buffers, 0, "round {round}: {ps:?}");
        if round == 2 {
            settled = Some(ps.devices[0].arena_buffers);
        }
    }
    // Device mirrors of freed buffers were evicted: the worker arena is
    // no bigger after 12 rounds than after 3.
    let after = cluster.pool_stats().devices[0].arena_buffers;
    assert_eq!(Some(after), settled, "device arena must stay flat");
}

#[test]
fn failed_jobs_do_not_grow_the_worker_arena() {
    // Regression: a run that allocates its device data environment and
    // then fails mid-execution must still free those transients — a
    // client retrying a failing program would otherwise grow memory
    // without bound (the error path used to skip the reclaim).
    let mut cluster = pool(1);
    let n = 8usize;
    let good = |cluster: &mut ClusterMachine| {
        let xa = cluster.host_f32(&vec![1.0f32; n]);
        let ya = cluster.host_f32(&vec![0.0f32; n]);
        cluster
            .run(
                "saxpy",
                &[
                    RtValue::I32(n as i32),
                    RtValue::F32(1.0),
                    xa.clone(),
                    ya.clone(),
                ],
            )
            .unwrap();
        cluster.free_host(&xa).unwrap();
        cluster.free_host(&ya).unwrap();
    };
    for _ in 0..3 {
        good(&mut cluster);
    }
    let settled = host_memory(&cluster);
    for _ in 0..10 {
        // n lies about the array length: the kernel indexes out of
        // bounds after the host program built its data environment.
        let xa = cluster.host_f32(&vec![1.0f32; n]);
        let ya = cluster.host_f32(&vec![0.0f32; n]);
        let err = cluster.run(
            "saxpy",
            &[
                RtValue::I32(9999),
                RtValue::F32(1.0),
                xa.clone(),
                ya.clone(),
            ],
        );
        assert!(err.is_err(), "out-of-bounds run must fail");
        cluster.free_host(&xa).unwrap();
        cluster.free_host(&ya).unwrap();
    }
    good(&mut cluster);
    let after = host_memory(&cluster);
    assert_eq!(settled, after, "failed runs must not leak transients");
}

#[test]
fn interleaved_waits_do_not_regress_residency_or_writeback() {
    // Regression: three runs over the same arrays, placed on three devices
    // in turn, must each see the update of the one before — a call runs on
    // the host's arrays themselves, so no device copy can be stale and no
    // writeback can clobber newer host data.
    let mut cluster = pool(4);
    let n = 64usize;
    let xa = cluster.host_f32(&vec![1.0f32; n]);
    let ya = cluster.host_f32(&vec![0.0f32; n]);
    let args = [RtValue::I32(n as i32), RtValue::F32(1.0), xa, ya.clone()];
    let devices: Vec<usize> = (0..3)
        .map(|_| cluster.run("saxpy", &args).unwrap().device)
        .collect();
    assert_eq!(devices, vec![0, 1, 2]);
    // y += x three times: any stale copy would lose one increment.
    assert_eq!(cluster.read_f32(&ya), vec![3.0f32; n]);
}

/// SAXPY's shard arguments: `y += a·x` over each shard's rows.
fn saxpy_shard_args(a: f32) -> [ftn_cluster::ShardArg; 7] {
    use ftn_cluster::ShardArg;
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

/// A halo wider than the array opens exactly as a halo of every row does,
/// fixed or auto shard count: the open's shard pricing clamps it at the
/// array's rows, as the plan does, instead of overflowing.
#[test]
fn a_huge_halo_opens_as_a_halo_of_every_row() {
    use ftn_cluster::{MapKind, Partition, ShardCount};
    let n = 8usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let session = |halo: usize, shards: ShardCount| {
        let mut cluster = pool(2);
        let (xa, ya) = (cluster.host_f32(&x), cluster.host_f32(&[1.0; 8]));
        let split = Partition::Split { halo };
        let maps = [
            ("x", xa, MapKind::To, split),
            ("y", ya.clone(), MapKind::ToFrom, split),
        ];
        let sid = cluster.open_sharded_session(&maps, shards).unwrap();
        let devices = cluster.session_info(sid).map(|info| info.devices);
        let ticket = cluster.sharded_launch(sid, "saxpy_kernel0", &saxpy_shard_args(2.0));
        cluster.wait_sharded(ticket.unwrap()).unwrap();
        cluster.refresh_halos(sid).unwrap();
        cluster.close_sharded_session(sid).unwrap();
        let bits: Vec<u32> = cluster.read_f32(&ya).iter().map(|v| v.to_bits()).collect();
        (devices, bits)
    };
    for shards in [ShardCount::Fixed(2), ShardCount::Auto] {
        let every_row = session(n, shards);
        for halo in [1 << 62, (1 << 63) - 1, usize::MAX] {
            assert_eq!(session(halo, shards), every_row, "halo {halo}, {shards:?}");
        }
    }
}

/// `session_info` is the one way to read an open session, and it reads the
/// split the session runs on: on a heterogeneous pool, at 1, 2 and 3
/// shards, each split array's owned rows are the weighted plan of the
/// reported weights for its halo, a replicated or reduced array's every
/// shard holds every row, there is one device per shard, and the stats are
/// the ones the close reports (bar the close's own fetches).
#[test]
fn session_info_reads_the_split_a_session_runs_on() {
    use ftn_cluster::{MapKind, Partition, ReduceOp, SessionStats, ShardCount, ShardPlan};
    let models = [
        DeviceModel::u250(),
        DeviceModel::u280(),
        DeviceModel::u55c(),
    ];
    let n = 97usize;
    for shards in 1..=3usize {
        let mut cluster = ClusterMachine::load(artifacts(), &models).unwrap();
        let x = cluster.host_f32(&vec![1.0; n]);
        let y = cluster.host_f32(&vec![0.5; n]);
        let r = cluster.host_f32(&[2.0; 5]);
        let s = cluster.host_f32(&[0.0]);
        let maps = [
            ("x", x, MapKind::To, Partition::Split { halo: 0 }),
            ("y", y, MapKind::ToFrom, Partition::Split { halo: 1 }),
            ("r", r, MapKind::To, Partition::Replicated),
            ("s", s, MapKind::ToFrom, Partition::Reduced(ReduceOp::Sum)),
        ];
        let sid = (cluster.open_sharded_session(&maps, ShardCount::Fixed(shards))).unwrap();
        let ticket = cluster.sharded_launch(sid, "saxpy_kernel0", &saxpy_shard_args(2.0));
        cluster.wait_sharded(ticket.unwrap()).unwrap();
        cluster.refresh_halos(sid).unwrap();

        let info = cluster.session_info(sid).expect("open");
        let mut distinct = info.devices.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), shards, "one device per shard: {info:?}");
        assert_eq!(info.weights.len(), shards, "{info:?}");
        assert_eq!(info.maps.len(), maps.len());
        for (got, (name, array, kind, partition)) in info.maps.iter().zip(&maps) {
            assert_eq!(
                (got.name.as_str(), got.kind, got.partition),
                (*name, *kind, *partition)
            );
            assert_eq!(got.array.as_memref().unwrap(), array.as_memref().unwrap());
            let rows = array.as_memref().unwrap().shape[0] as usize;
            let want: Vec<usize> = match partition {
                Partition::Split { halo } => {
                    (ShardPlan::partition_weighted(rows, &info.weights, *halo))
                        .ranges()
                        .iter()
                        .map(|range| range.len)
                        .collect()
                }
                Partition::Replicated | Partition::Reduced(_) => vec![rows; shards],
            };
            assert_eq!(got.shard_rows, want, "{name} at {shards} shards");
        }
        assert_eq!(info.stats.launches, shards as u64);

        let report = cluster.close_sharded_session(sid).unwrap();
        assert_eq!((report.shards, &report.devices), (shards, &info.devices));
        let fetched_downloads = report.stats.fetched_downloads;
        assert_eq!(
            report.stats,
            SessionStats {
                fetched_downloads,
                ..info.stats
            }
        );
        assert!(cluster.session_info(sid).is_none(), "closed");
    }
}

/// How long a wait regression gives its thread before calling it a hang.
const PATIENCE: std::time::Duration = std::time::Duration::from_secs(20);

/// Run `body` on its own thread and return what it sends, failing the test
/// if nothing arrives within [`PATIENCE`]: a wait that hangs fails here
/// instead of hanging the suite (the blocked thread is left behind).
fn watchdog<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(body()).expect("test listens"));
    let out = rx.recv_timeout(PATIENCE);
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = out {
        panic!("{what} hangs");
    }
    worker.join().expect("the body runs to completion");
    out.expect("the body sent its result")
}

/// A launch ticket outlives its session's close: the close waits for the
/// launch to land but leaves its report to the ticket, so `wait_sharded`
/// after the close returns it — the same merged `RunStats` and gathered `y`,
/// bit for bit, as waiting before the close.
#[test]
fn a_launch_ticket_waited_after_its_close_returns_its_report() {
    use ftn_cluster::{MapKind, Partition, ShardCount};
    let n = 1000usize;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.19).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).cos()).collect();
    let run = |wait_after_close: bool| {
        let (x, y) = (x.clone(), y.clone());
        watchdog("wait_sharded after close", move || {
            let mut cluster = pool(2);
            let xa = cluster.host_f32(&x);
            let ya = cluster.host_f32(&y);
            let split = Partition::Split { halo: 0 };
            let maps = [
                ("x", xa, MapKind::To, split),
                ("y", ya.clone(), MapKind::ToFrom, split),
            ];
            let sid = (cluster.open_sharded_session(&maps, ShardCount::Fixed(2))).unwrap();
            let args = saxpy_shard_args(1.25);
            let ticket = cluster.sharded_launch(sid, "saxpy_kernel0", &args);
            let ticket = ticket.unwrap();
            let stats = if wait_after_close {
                cluster.close_sharded_session(sid).unwrap();
                cluster.wait_sharded(ticket).unwrap().stats
            } else {
                let stats = cluster.wait_sharded(ticket).unwrap().stats;
                cluster.close_sharded_session(sid).unwrap();
                stats
            };
            (stats, cluster.read_f32(&ya))
        })
    };
    let (stats, got) = run(true);
    let (waited_first, expect) = run(false);
    assert_eq!(stats.launches, 2, "{stats:?}");
    assert_eq!(stats, waited_first);
    for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i}");
    }
}

/// The serve layer's launch order with a close in its window: submit under
/// `lock_session`, drop the lock, and before the wait a `close_phased` runs
/// to completion. `wait_many` still returns both shards' reports.
#[test]
fn a_gate_wait_after_a_phased_close_returns_every_report() {
    use ftn_cluster::{MapKind, Partition, PoolGate, ShardCount};
    let n = 64usize;
    let (reports, launches, y) = watchdog("wait_many after close_phased", move || {
        let gate = PoolGate::new(pool(2));
        let (xa, ya) = {
            let mut m = gate.lock();
            (m.host_f32(&vec![1.0f32; n]), m.host_f32(&vec![0.5f32; n]))
        };
        let split = Partition::Split { halo: 0 };
        let maps = [
            ("x", xa, MapKind::To, split),
            ("y", ya.clone(), MapKind::ToFrom, split),
        ];
        let sid = (gate.open_phased(&maps, ShardCount::Fixed(2))).unwrap();
        let args = saxpy_shard_args(2.0);
        let ticket = (gate.lock_session(sid)).sharded_launch(sid, "saxpy_kernel0", &args);
        let ticket = ticket.unwrap();
        let closed = gate.close_phased(sid).unwrap();
        let reports = gate.wait_many(ticket.handles).unwrap();
        let y = gate.lock().read_f32(&ya);
        (reports.len(), closed.stats.launches, y)
    });
    assert_eq!((reports, launches), (2, 2));
    assert_eq!(y, vec![2.5f32; n]);
}

/// One step of a generated schedule over three reused arrays.
#[derive(Clone, Debug)]
enum Step {
    /// Run `saxpy`: `y += a·x` over arrays `x` and `y` (distinct).
    Run { x: usize, y: usize, a: i8 },
    /// Free this array and allocate a fresh one with its contents in its
    /// place.
    Free(usize),
}

fn step() -> BoxedStrategy<Step> {
    let run = (0usize..3, 1usize..3, -4i8..5).prop_map(|(x, d, a)| Step::Run {
        x,
        y: (x + d) % 3,
        a,
    });
    let run = run.boxed();
    prop_oneof![run.clone(), run, (0usize..3).prop_map(Step::Free)].boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pool keeps no version per array and no copy of one: a run
    /// computes on the host's arrays where it is called. Random schedules
    /// of runs and frees over three reused arrays, on 1–4 devices, end
    /// with every array and every run's `RunStats` bit-identical to the
    /// same calls on `Machine`, and no host buffer leaked.
    #[test]
    fn random_schedules_match_machine_run_one_at_a_time(
        devices in 1usize..5,
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let n = 32usize;
        let mut cluster = pool(devices);
        let mut machine = Machine::load(artifacts(), DeviceModel::u280()).unwrap();
        let init = |k: usize| -> Vec<f32> {
            (0..n).map(|i| (i as f32 * 0.37 + k as f32).sin()).collect()
        };
        let bits = |v: Vec<f32>| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut pooled: Vec<RtValue> = (0..3).map(|k| cluster.host_f32(&init(k))).collect();
        let mut oracle: Vec<RtValue> = (0..3).map(|k| machine.host_f32(&init(k))).collect();
        let host_buffers = cluster.pool_stats().host_buffers;
        for (job, step) in steps.into_iter().enumerate() {
            match step {
                Step::Run { x, y, a } => {
                    let args = |arrays: &[RtValue]| {
                        let (n, a) = (RtValue::I32(n as i32), RtValue::F32(a as f32 * 0.5));
                        [n, a, arrays[x].clone(), arrays[y].clone()]
                    };
                    let stats = cluster.run("saxpy", &args(&pooled)).unwrap().report.stats;
                    let expected = machine.run("saxpy", &args(&oracle)).unwrap().stats;
                    prop_assert_eq!(&stats, &expected, "step {}", job);
                }
                Step::Free(i) => {
                    let contents = cluster.read_f32(&pooled[i]);
                    let expect = machine.read_f32(&oracle[i]);
                    prop_assert_eq!(bits(contents.clone()), bits(expect), "array {}", i);
                    cluster.free_host(&pooled[i]).unwrap();
                    pooled[i] = cluster.host_f32(&contents);
                    oracle[i] = machine.host_f32(&contents);
                }
            }
        }
        for (i, (p, o)) in pooled.iter().zip(&oracle).enumerate() {
            let (got, expect) = (cluster.read_f32(p), machine.read_f32(o));
            prop_assert_eq!(bits(got), bits(expect), "array {}", i);
        }
        prop_assert_eq!(cluster.pool_stats().host_buffers, host_buffers);
    }
}

/// One step of a generated session schedule over four reused arrays. Index
/// fields pick among what is open or outstanding at that step, modulo its
/// count; a step with nothing to pick does nothing.
#[derive(Clone, Debug)]
enum SessionStep {
    /// Open a session of `shards` shards (halo 0) mapping array `x` `to`
    /// and array `y` `tofrom`; refused when an open session maps either.
    Open { x: usize, y: usize, shards: usize },
    /// Launch `saxpy_kernel0` on an open session, with a fresh `a`.
    Launch(usize),
    /// Wait an outstanding ticket: any one, not the oldest.
    Wait(usize),
    /// Drop an outstanding ticket unwaited.
    Drop(usize),
    /// A sessionless `y += a·x` run; refused when an open session maps
    /// either array.
    Run { x: usize, y: usize },
    /// Close an open session.
    Close(usize),
}

/// Launches and waits come most often, then opens and closes.
fn session_step() -> BoxedStrategy<SessionStep> {
    let parts = (0u8..13, 0usize..4, 1usize..4, 0usize..8);
    parts
        .prop_map(|(kind, x, d, pick)| {
            let y = (x + d) % 4;
            match kind {
                0..=1 => SessionStep::Open { x, y, shards: d },
                2..=5 => SessionStep::Launch(pick),
                6..=8 => SessionStep::Wait(pick),
                9 => SessionStep::Drop(pick),
                10 => SessionStep::Run { x, y },
                _ => SessionStep::Close(pick),
            }
        })
        .boxed()
}

/// The two front doors a schedule is driven through: the synchronous
/// machine, and the gate's off-lock waits and phased exchanges.
enum Front {
    Machine(ClusterMachine),
    Gate(ftn_cluster::PoolGate),
}

impl Front {
    fn with<R>(&mut self, f: impl FnOnce(&mut ClusterMachine) -> R) -> R {
        match self {
            Front::Machine(m) => f(m),
            Front::Gate(g) => f(&mut g.lock()),
        }
    }

    fn open(&mut self, x: &RtValue, y: &RtValue, shards: usize) -> Result<u64, String> {
        use ftn_cluster::{MapKind, Partition, ShardCount};
        let split = Partition::Split { halo: 0 };
        let maps = [
            ("x", x.clone(), MapKind::To, split),
            ("y", y.clone(), MapKind::ToFrom, split),
        ];
        let shards = ShardCount::Fixed(shards);
        let opened = match self {
            Front::Machine(m) => m.open_sharded_session(&maps, shards),
            Front::Gate(g) => g.open_phased(&maps, shards),
        };
        opened.map_err(|e| e.to_string())
    }

    fn launch(&mut self, sid: u64, a: f32) -> ftn_cluster::ShardedLaunchTicket {
        let args = saxpy_shard_args(a);
        let ticket = match self {
            Front::Machine(m) => m.sharded_launch(sid, "saxpy_kernel0", &args),
            Front::Gate(g) => g
                .lock_session(sid)
                .sharded_launch(sid, "saxpy_kernel0", &args),
        };
        ticket.expect("a launch on an open session submits")
    }

    fn wait(&mut self, ticket: ftn_cluster::ShardedLaunchTicket) {
        let waited = match self {
            Front::Machine(m) => m.wait_sharded(ticket).map(drop),
            Front::Gate(g) => g.wait_many(ticket.handles).map(drop),
        };
        waited.expect("a launch on an open session succeeds");
    }

    fn close(&mut self, sid: u64) {
        let closed = match self {
            Front::Machine(m) => m.close_sharded_session(sid).map(drop),
            Front::Gate(g) => g.close_phased(sid).map(drop),
        };
        closed.expect("the session closes");
    }

    /// Every device's arena while a session with a shard on each is open:
    /// the mirrors that session staged plus whatever else is resident.
    fn arenas(&mut self, devices: usize) -> Vec<usize> {
        let (x, y) = self.with(|m| (m.host_f32(&[1.0; 8]), m.host_f32(&[0.0; 8])));
        let sid = self.open(&x, &y, devices).expect("the probe opens");
        let ticket = self.launch(sid, 1.0);
        self.wait(ticket);
        let arenas = self.with(|m| {
            let stats = m.pool_stats();
            stats.devices.iter().map(|d| d.arena_buffers).collect()
        });
        self.close(sid);
        self.with(|m| {
            m.free_host(&x).unwrap();
            m.free_host(&y).unwrap();
        });
        arenas
    }
}

/// Drive `steps` through `front` and the same calls in submission order through
/// `Machine`, then compare the arrays bit for bit and check that nothing is
/// left behind on the host or on any device.
fn run_session_schedule(mut front: Front, devices: usize, steps: Vec<SessionStep>) {
    let n = 48usize;
    let mut machine = Machine::load(artifacts(), DeviceModel::u280()).unwrap();
    let init =
        |k: usize| -> Vec<f32> { (0..n).map(|i| (i as f32 * 0.29 + k as f32).cos()).collect() };
    let pooled: Vec<RtValue> = (0..4)
        .map(|k| front.with(|m| m.host_f32(&init(k))))
        .collect();
    let oracle: Vec<RtValue> = (0..4).map(|k| machine.host_f32(&init(k))).collect();
    let host_buffers = front.with(|m| m.pool_stats().host_buffers);
    let arenas = front.arenas(devices);
    // Open sessions as (id, x, y); outstanding tickets.
    let mut sessions: Vec<(u64, usize, usize)> = Vec::new();
    let mut tickets = Vec::new();
    let mut next_a = 0u32;
    let mut fresh_a = || {
        next_a += 1;
        0.25 + next_a as f32 * 0.125
    };
    let mut oracle_saxpy = |x: usize, y: usize, a: f32| {
        let args = [
            RtValue::I32(n as i32),
            RtValue::F32(a),
            oracle[x].clone(),
            oracle[y].clone(),
        ];
        machine.run("saxpy", &args).unwrap();
    };
    let mapped = |sessions: &[(u64, usize, usize)], i: usize| {
        sessions.iter().any(|&(_, x, y)| x == i || y == i)
    };
    for step in steps {
        match step {
            SessionStep::Open { x, y, shards } => {
                let opened = front.open(&pooled[x], &pooled[y], shards);
                if mapped(&sessions, x) || mapped(&sessions, y) {
                    let err = opened.expect_err("an open over a mapped array is refused");
                    assert!(err.contains("mapped by open session"), "{err}");
                } else {
                    sessions.push((opened.expect("the open succeeds"), x, y));
                }
            }
            SessionStep::Launch(s) if !sessions.is_empty() => {
                let (sid, x, y) = sessions[s % sessions.len()];
                let a = fresh_a();
                tickets.push(front.launch(sid, a));
                oracle_saxpy(x, y, a);
            }
            SessionStep::Wait(t) if !tickets.is_empty() => {
                let ticket = tickets.remove(t % tickets.len());
                front.wait(ticket);
            }
            SessionStep::Drop(t) if !tickets.is_empty() => {
                drop(tickets.remove(t % tickets.len()));
            }
            SessionStep::Run { x, y } => {
                let a = fresh_a();
                let args = [
                    RtValue::I32(n as i32),
                    RtValue::F32(a),
                    pooled[x].clone(),
                    pooled[y].clone(),
                ];
                let ran = front.with(|m| m.run("saxpy", &args).map(drop));
                if mapped(&sessions, x) || mapped(&sessions, y) {
                    let err = ran.expect_err("a run over a mapped array is refused");
                    assert!(err.to_string().contains("mapped by open session"), "{err}");
                } else {
                    ran.expect("the run succeeds");
                    oracle_saxpy(x, y, a);
                }
            }
            SessionStep::Close(s) if !sessions.is_empty() => {
                let (sid, ..) = sessions.remove(s % sessions.len());
                front.close(sid);
            }
            _ => {}
        }
    }
    // Close what is open, then wait the tickets left: a ticket outlives its
    // session's close.
    for (sid, ..) in sessions {
        front.close(sid);
    }
    for ticket in tickets {
        front.wait(ticket);
    }
    for (i, (p, o)) in pooled.iter().zip(&oracle).enumerate() {
        let got = front.with(|m| m.read_f32(p));
        let expect = machine.read_f32(o);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect), "array {i}");
    }
    assert_eq!(front.with(|m| m.pool_stats().host_buffers), host_buffers);
    assert_eq!(front.arenas(devices), arenas, "device arenas");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sessions on 1–3 devices under generated schedules — opens of 1–3
    /// shards, launches, waits in any order, dropped tickets, sessionless
    /// runs over mapped and unmapped arrays, closes — end with every array
    /// bit-identical to the same launches and runs applied in submission order
    /// on `Machine`, through the machine and through the gate alike. Runs
    /// and opens over a mapped array are refused, and host and device
    /// arenas are back where they started.
    #[test]
    fn random_session_schedules_match_machine_in_submission_order(
        devices in 1usize..4,
        steps in proptest::collection::vec(session_step(), 1..32),
    ) {
        for via_gate in [false, true] {
            let steps = steps.clone();
            watchdog("a generated session schedule", move || {
                let cluster = pool(devices);
                let front = if via_gate {
                    Front::Gate(ftn_cluster::PoolGate::new(cluster))
                } else {
                    Front::Machine(cluster)
                };
                run_session_schedule(front, devices, steps);
            });
        }
    }
}

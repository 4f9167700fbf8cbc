//! Concurrency semantics across the live serve stack: keep-alive clients on
//! distinct sessions launch concurrently while halo refreshes run against
//! one sharded session on the same pool.
//!
//! * **Bit-identical results.** The concurrent run — launches racing each
//!   other and a refresh hammer forcing phased row exchanges mid-traffic —
//!   must close every session with exactly the arrays a serial,
//!   refresh-free run of the same launch counts produces. A refresh moves
//!   ghost rows between devices; it must never change an owned value.
//! * **No stop-the-world.** Sessions untouched by the refresh (unsharded
//!   and sharded alike) must keep completing launches *while* a refresh
//!   request is in flight on the fenced session: at least one untouched
//!   launch must start and finish strictly inside a refresh window. The
//!   fenced session is given a large array so each refresh's gather queues
//!   behind real in-flight shard work, keeping the windows wide open.
//! * **Open and close are phased exchanges too.** Sessions opened and
//!   closed through `PoolGate::open_phased` / `close_phased` while another
//!   session launches through the same gate end with the arrays,
//!   `SessionStats` and per-device `RunStats` of the same calls made one at
//!   a time through the synchronous forms.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ftn_cluster::{
    ClusterMachine, MapKind, Partition, PoolGate, ReduceOp, SessionStats, ShardArg, ShardCount,
};
use ftn_interp::RtValue;
use ftn_serve::client::Conn;
use ftn_serve::{api, ServeConfig, Server};
use serde::{Serialize, Value};

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

/// Elements of the fenced session: big enough that a refresh's gather
/// queues behind milliseconds of in-flight shard work.
const FENCED_N: usize = 100_000;
/// Elements of each untouched session: small, so its launches finish far
/// inside one refresh window.
const UNTOUCHED_N: usize = 48;
const FENCED_LAUNCHES: usize = 16;
const UNTOUCHED_LAUNCHES: usize = 24;

fn start_server() -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 4,
            workers: 8,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (status, _) = ftn_serve::client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("expected unsigned number, got {other:?}"),
    }
}

fn compile_key(conn: &mut Conn) -> String {
    let body = serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.to_string()))]))
        .expect("body serializes");
    let (status, resp) = conn.request("POST", "/compile", &body).expect("compile");
    assert_eq!(status, 200, "{resp:?}");
    match resp.get("key") {
        Some(Value::Str(key)) => key.clone(),
        other => panic!("no key: {other:?}"),
    }
}

/// `x` of session `index`: distinct per session so a row landing in the
/// wrong session's buffer cannot cancel out.
fn session_x(index: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| (i + index * 13) as f32 * 0.25).collect()
}

/// Open a session mapping `x` (`to`) and `y` (`tofrom`), split into
/// `shards` (one when `None`) with `halo` ghost rows.
fn open_session(conn: &mut Conn, key: &str, x: &[f32], shards: Option<i64>, halo: i64) -> u64 {
    let map = |name: &str, kind: &str, data: Value| {
        api::obj(vec![
            ("name", Value::Str(name.into())),
            ("kind", Value::Str(kind.into())),
            ("data", data),
            ("halo", Value::Int(halo)),
        ])
    };
    let mut fields = vec![
        ("key", Value::Str(key.to_string())),
        (
            "maps",
            Value::Arr(vec![
                map("x", "to", x.to_value()),
                map("y", "tofrom", vec![1.0f32; x.len()].to_value()),
            ]),
        ),
    ];
    if let Some(s) = shards {
        fields.push(("shards", Value::Int(s)));
    }
    let (status, opened) = conn
        .request(
            "POST",
            "/sessions",
            &serde_json::to_string(&api::obj(fields)).expect("body serializes"),
        )
        .expect("open");
    assert_eq!(status, 200, "{opened:?}");
    as_u64(opened.get("session"))
}

fn launch_body() -> String {
    serde_json::to_string(&api::obj(vec![
        ("kernel", Value::Str("saxpy_kernel0".into())),
        (
            "args",
            Value::Arr(vec![
                api::obj(vec![("array", Value::Str("x".into()))]),
                api::obj(vec![("array", Value::Str("y".into()))]),
                api::obj(vec![("extent", Value::Str("x".into()))]),
                api::obj(vec![("extent", Value::Str("y".into()))]),
                api::obj(vec![("f32", Value::Float(2.0))]),
                api::obj(vec![("index", Value::Int(1))]),
                api::obj(vec![("extent", Value::Str("x".into()))]),
            ]),
        ),
    ]))
    .expect("body serializes")
}

/// Close `sid` and return its gathered `y` (bit-exact f64 JSON values).
fn close_session(conn: &mut Conn, sid: u64) -> Vec<f64> {
    let (status, closed) = conn
        .request("DELETE", &format!("/sessions/{sid}"), "")
        .expect("close");
    assert_eq!(status, 200, "{closed:?}");
    let Some(Value::Arr(ys)) = closed.get("arrays").and_then(|a| a.get("y")) else {
        panic!("no y in {closed:?}");
    };
    ys.iter()
        .map(|v| match v {
            Value::Float(f) => *f,
            other => panic!("non-float element {other:?}"),
        })
        .collect()
}

/// The untouched sessions: two unsharded, two sharded but never refreshed.
fn open_untouched(conn: &mut Conn, key: &str) -> Vec<u64> {
    (0..4)
        .map(|p| {
            let shards = if p >= 2 { Some(2) } else { None };
            open_session(conn, key, &session_x(p, UNTOUCHED_N), shards, 0)
        })
        .collect()
}

/// The fenced session: four shards, one ghost row each side.
fn open_fenced(conn: &mut Conn, key: &str) -> u64 {
    open_session(conn, key, &session_x(9, FENCED_N), Some(4), 1)
}

/// Serial reference: the same sessions and launch counts, one request at a
/// time, no refreshes. Returns every session's closed `y` (untouched
/// sessions first, then the fenced one).
fn serial_results(addr: SocketAddr) -> Vec<Vec<f64>> {
    let mut conn = Conn::open(addr).expect("connect");
    let key = compile_key(&mut conn);
    let untouched = open_untouched(&mut conn, &key);
    let fenced = open_fenced(&mut conn, &key);
    let launch = launch_body();
    for &sid in &untouched {
        for _ in 0..UNTOUCHED_LAUNCHES {
            let (status, resp) = conn
                .request("POST", &format!("/sessions/{sid}/launch"), &launch)
                .expect("launch");
            assert_eq!(status, 200, "{resp:?}");
        }
    }
    for _ in 0..FENCED_LAUNCHES {
        let (status, resp) = conn
            .request("POST", &format!("/sessions/{fenced}/launch"), &launch)
            .expect("launch");
        assert_eq!(status, 200, "{resp:?}");
    }
    let mut results: Vec<Vec<f64>> = untouched
        .iter()
        .map(|&sid| close_session(&mut conn, sid))
        .collect();
    results.push(close_session(&mut conn, fenced));
    results
}

#[test]
fn concurrent_launches_with_mid_run_refreshes_match_serial_bitwise() {
    let (addr, server) = start_server();

    // Concurrent run: four untouched-session clients and one fenced-session
    // client launch in parallel while a hammer thread drives back-to-back
    // halo refreshes against the fenced session.
    let mut setup = Conn::open(addr).expect("connect");
    let key = compile_key(&mut setup);
    let untouched = open_untouched(&mut setup, &key);
    let fenced = open_fenced(&mut setup, &key);
    let launch = launch_body();

    let launcher_done = Arc::new(AtomicBool::new(false));
    let fenced_thread = {
        let launch = launch.clone();
        let done = Arc::clone(&launcher_done);
        std::thread::spawn(move || {
            let mut conn = Conn::open(addr).expect("connect");
            for _ in 0..FENCED_LAUNCHES {
                let (status, resp) = conn
                    .request("POST", &format!("/sessions/{fenced}/launch"), &launch)
                    .expect("launch");
                assert_eq!(status, 200, "{resp:?}");
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    // Refresh hammer: refreshes run while the fenced session still has
    // launches in flight, so each gather, queued behind them, holds the
    // window open.
    let hammer = {
        let done = Arc::clone(&launcher_done);
        std::thread::spawn(move || {
            let mut conn = Conn::open(addr).expect("connect");
            let mut windows = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let from = Instant::now();
                let (status, resp) = conn
                    .request("POST", &format!("/sessions/{fenced}/refresh"), "")
                    .expect("refresh");
                assert_eq!(status, 200, "{resp:?}");
                windows.push((from, Instant::now()));
            }
            windows
        })
    };
    let untouched_threads: Vec<_> = untouched
        .iter()
        .map(|&sid| {
            let launch = launch.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr).expect("connect");
                let mut spans = Vec::with_capacity(UNTOUCHED_LAUNCHES);
                for _ in 0..UNTOUCHED_LAUNCHES {
                    let from = Instant::now();
                    let (status, resp) = conn
                        .request("POST", &format!("/sessions/{sid}/launch"), &launch)
                        .expect("launch");
                    assert_eq!(status, 200, "{resp:?}");
                    spans.push((from, Instant::now()));
                }
                spans
            })
        })
        .collect();

    let launch_spans: Vec<(Instant, Instant)> = untouched_threads
        .into_iter()
        .flat_map(|t| t.join().expect("untouched launcher"))
        .collect();
    fenced_thread.join().expect("fenced launcher");
    let windows = hammer.join().expect("refresh hammer");

    assert!(!windows.is_empty(), "the hammer never completed a refresh");
    // The non-stop-the-world claim: some untouched launch ran start-to-finish
    // strictly inside a refresh window.
    let inside = launch_spans
        .iter()
        .filter(|(from, to)| windows.iter().any(|(ws, we)| from >= ws && to <= we))
        .count();
    assert!(
        inside > 0,
        "no untouched launch completed inside any of the {} refresh windows \
         ({} launches observed) — refreshes are blocking unrelated sessions",
        windows.len(),
        launch_spans.len(),
    );

    // Close on a fresh connection: `setup` sat idle through the whole
    // concurrent phase, which on a slow box outlasts the server's idle
    // keep-alive timeout — the server has reaped it by now.
    drop(setup);
    let mut closer = Conn::open(addr).expect("connect");
    let mut concurrent: Vec<Vec<f64>> = untouched
        .iter()
        .map(|&sid| close_session(&mut closer, sid))
        .collect();
    concurrent.push(close_session(&mut closer, fenced));
    shutdown(addr, server);

    // Serial reference on a fresh server: same sessions, same launch
    // counts, no concurrency, no refreshes.
    let (addr, server) = start_server();
    let serial = serial_results(addr);
    shutdown(addr, server);

    assert_eq!(concurrent.len(), serial.len());
    for (i, (c, s)) in concurrent.iter().zip(&serial).enumerate() {
        assert_eq!(c.len(), s.len(), "session {i} length");
        for (j, (cv, sv)) in c.iter().zip(s).enumerate() {
            assert!(
                cv.to_bits() == sv.to_bits(),
                "session {i} element {j}: concurrent {cv} != serial {sv}"
            );
        }
    }
}

/// One churn cycle's session: `x` and `y` split over both devices, `r` a
/// `map(from:)` reduction copy (seeded, never uploaded).
fn churn_maps(
    x: &RtValue,
    y: &RtValue,
    r: &RtValue,
) -> [(&'static str, RtValue, MapKind, Partition); 3] {
    let split = Partition::Split { halo: 1 };
    [
        ("x", x.clone(), MapKind::To, split),
        ("y", y.clone(), MapKind::ToFrom, split),
        (
            "r",
            r.clone(),
            MapKind::From,
            Partition::Reduced(ReduceOp::Sum),
        ),
    ]
}

/// What one closed churn session leaves behind.
type Churned = (Vec<f32>, Vec<f32>, SessionStats);

#[test]
fn phased_open_and_close_beside_a_launching_session_match_the_synchronous_forms() {
    const LAUNCHES: usize = 200;
    const CYCLES: usize = 3;
    const CHURN_N: usize = 20_000;
    let artifacts = ftn_core::Compiler::default()
        .compile_source(SAXPY)
        .expect("saxpy compiles");
    let load = || {
        let devices = vec![ftn_fpga::DeviceModel::u280(); 2];
        ClusterMachine::load(&artifacts, &devices).expect("pool loads")
    };
    let args = [
        ShardArg::Array("x".into()),
        ShardArg::Array("y".into()),
        ShardArg::Extent("x".into()),
        ShardArg::Extent("y".into()),
        ShardArg::Scalar(RtValue::F32(2.0)),
        ShardArg::Scalar(RtValue::Index(1)),
        ShardArg::Extent("x".into()),
    ];
    let launching_maps = |m: &mut ClusterMachine| {
        let x = m.host_f32(&session_x(0, UNTOUCHED_N));
        let y = m.host_f32(&[1.0; UNTOUCHED_N]);
        let split = Partition::Split { halo: 0 };
        let maps = [
            ("x", x, MapKind::To, split),
            ("y", y.clone(), MapKind::ToFrom, split),
        ];
        (maps, y)
    };
    let churn_arrays = |m: &mut ClusterMachine, cycle: usize| {
        let x = m.host_f32(&session_x(cycle + 1, CHURN_N));
        let y = m.host_f32(&session_x(cycle + 5, CHURN_N));
        (x, y, m.host_f32(&[7.0; 4]))
    };
    let churned = |m: &mut ClusterMachine, arrays: [RtValue; 3], stats: SessionStats| -> Churned {
        let out = (m.read_f32(&arrays[1]), m.read_f32(&arrays[2]), stats);
        arrays.iter().for_each(|a| m.free_host(a).expect("frees"));
        out
    };

    // The synchronous forms, one call at a time.
    let mut m = load();
    let (maps, ya) = launching_maps(&mut m);
    let a = m.open_sharded_session(&maps, ShardCount::Fixed(1)).unwrap();
    for _ in 0..LAUNCHES {
        let ticket = m.sharded_launch(a, "saxpy_kernel0", &args).unwrap();
        m.wait_sharded(ticket).unwrap();
    }
    let serial_churn: Vec<Churned> = (0..CYCLES)
        .map(|cycle| {
            let (x, y, r) = churn_arrays(&mut m, cycle);
            let b =
                (m.open_sharded_session(&churn_maps(&x, &y, &r), ShardCount::Fixed(2))).unwrap();
            let stats = m.close_sharded_session(b).unwrap().stats;
            churned(&mut m, [x, y, r], stats)
        })
        .collect();
    let serial_a = (m.close_sharded_session(a).unwrap().stats, m.read_f32(&ya));
    let serial_pool = m.pool_stats();
    drop(m);

    // The phased forms, churning beside the launches.
    let gate = PoolGate::new(load());
    let (maps, ya) = launching_maps(&mut gate.lock());
    let a = gate.open_phased(&maps, ShardCount::Fixed(1)).unwrap();
    let start = std::sync::Barrier::new(2);
    let phased_churn: Vec<Churned> = std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            for _ in 0..LAUNCHES {
                let ticket = gate
                    .lock_session(a)
                    .sharded_launch(a, "saxpy_kernel0", &args);
                gate.wait_many(ticket.unwrap().handles).unwrap();
            }
        });
        start.wait();
        (0..CYCLES)
            .map(|cycle| {
                let (x, y, r) = churn_arrays(&mut gate.lock(), cycle);
                let b = (gate.open_phased(&churn_maps(&x, &y, &r), ShardCount::Fixed(2))).unwrap();
                let stats = gate.close_phased(b).unwrap().stats;
                churned(&mut gate.lock(), [x, y, r], stats)
            })
            .collect()
    });
    let phased_a = (
        gate.close_phased(a).unwrap().stats,
        gate.lock().read_f32(&ya),
    );
    let phased_pool = gate.lock().pool_stats();

    assert_eq!(phased_churn, serial_churn);
    assert_eq!(phased_a, serial_a);
    assert_eq!(phased_pool.host_buffers, serial_pool.host_buffers);
    assert_eq!(phased_pool.devices.len(), 2);
    for (p, s) in phased_pool.devices.iter().zip(&serial_pool.devices) {
        assert_eq!(p.stats, s.stats, "device {}", p.device);
        assert_eq!(
            (p.jobs, p.arena_buffers),
            (s.jobs, s.arena_buffers),
            "device {}",
            p.device
        );
    }
}

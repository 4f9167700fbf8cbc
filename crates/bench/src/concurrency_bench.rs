//! Concurrent-serve benchmark: hundreds of keep-alive clients, each a
//! background session stream (open → launch × M → close), driven against a
//! live server — the load path that proves the pool lock is no longer
//! stop-the-world. Emitted as `BENCH_concurrency.json` by the
//! `bench_concurrency` binary: the absolute p50/p99/throughput ladder at
//! 8/64/256 sessions (the sleep-poll baseline it used to be compared
//! against is retired — see "Retired baselines" in docs/BENCHMARKS.md),
//! plus one enforced floor: while phased migration epochs hammer one
//! sharded session, the launch p99 of sessions *not* being migrated must
//! stay within [`MAX_MID_EPOCH_P99_RATIO`]× of the same workload's
//! epoch-free p99.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ftn_serve::client::Conn;
use ftn_serve::{api, ServeConfig};
use serde::{Serialize, Value};

use crate::driver::{start_server, stop_server};
use crate::stats::quantile;

/// Ceiling on `mid_epoch_p99 / no_epoch_p99` for sessions an epoch does not
/// migrate.
pub const MAX_MID_EPOCH_P99_RATIO: f64 = 2.0;

/// One concurrency level of the client barrage.
#[derive(Clone, Debug, Serialize)]
pub struct ConcurrencyPoint {
    /// Concurrent keep-alive clients, each with its own open session.
    pub sessions: usize,
    pub launches_per_session: usize,
    /// Total launches across all clients.
    pub launches: u64,
    /// Client-observed launch round-trip latency.
    pub p50_seconds: f64,
    pub p99_seconds: f64,
    /// Aggregate launches per wall second.
    pub throughput_lps: f64,
}

/// The mid-epoch case: launch latency of sessions that are *not* migrating
/// while back-to-back rebalance epochs run against a large sharded session
/// on the same pool. Both phases carry the identical background launch load
/// on the migrating session; only the epoch hammer differs.
#[derive(Clone, Debug, Serialize)]
pub struct MidEpochPoint {
    /// Untouched sessions measured (half one-shard, half 2-way sharded).
    pub untouched_sessions: usize,
    pub launches_per_session: usize,
    /// Elements of the migrating sharded session (sized so each epoch's
    /// quiesce has real in-flight work to wait out).
    pub migrating_elements: usize,
    /// Rebalance round trips completed during the mid-epoch phase.
    pub epochs: u64,
    /// Epochs whose report said rows actually moved.
    pub migrated_epochs: u64,
    /// Untouched-session launch p99 with the epoch hammer idle.
    pub no_epoch_p99_seconds: f64,
    /// Untouched-session launch p99 with epochs hammering.
    pub mid_epoch_p99_seconds: f64,
    /// `mid_epoch_p99_seconds / no_epoch_p99_seconds`.
    pub p99_ratio: f64,
}

/// The emitted report.
#[derive(Clone, Debug, Serialize)]
pub struct ConcurrencyBenchReport {
    pub workload: String,
    /// Elements per barrage session array (small: the wait path, not the
    /// kernel, must dominate).
    pub elements: usize,
    pub points: Vec<ConcurrencyPoint>,
    pub mid_epoch: MidEpochPoint,
    /// Hardware threads the benchmark ran on.
    pub cpus: usize,
    /// The ceiling the binary enforces on `mid_epoch.p99_ratio`.
    pub max_mid_epoch_p99_ratio: f64,
}

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

/// Elements per barrage session: tiny, so client-observed latency is the
/// submit/wait machinery, not simulated kernel time.
const ELEMENTS: usize = 16;

fn compile_key(addr: SocketAddr) -> String {
    let body = serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.to_string()))]))
        .expect("body serializes");
    let (status, resp) =
        ftn_serve::client::request(addr, "POST", "/compile", &body).expect("compile");
    assert_eq!(status, 200, "{resp:?}");
    match resp.get("key") {
        Some(Value::Str(key)) => key.clone(),
        other => panic!("no key in compile response: {other:?}"),
    }
}

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("expected unsigned number, got {other:?}"),
    }
}

fn open_session(conn: &mut Conn, key: &str, n: usize, shards: Option<i64>) -> u64 {
    let x: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.25).collect();
    let mut fields = vec![
        ("key", Value::Str(key.to_string())),
        (
            "maps",
            Value::Arr(vec![
                api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", x.to_value()),
                ]),
                api::obj(vec![
                    ("name", Value::Str("y".into())),
                    ("kind", Value::Str("tofrom".into())),
                    ("data", vec![1.0f32; n].to_value()),
                ]),
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

/// One concurrency level: `sessions` concurrent clients, each running one
/// full session stream (open → `launches` round trips → close) on its own
/// keep-alive connection. A barrier aligns the launch barrages so the
/// measured window is genuinely concurrent.
fn barrage(addr: SocketAddr, key: &str, sessions: usize, launches: usize) -> ConcurrencyPoint {
    let barrier = Arc::new(Barrier::new(sessions));
    let joins: Vec<_> = (0..sessions)
        .map(|_| {
            let key = key.to_string();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr).expect("connect");
                let sid = open_session(&mut conn, &key, ELEMENTS, None);
                let path = format!("/sessions/{sid}/launch");
                let launch = launch_body();
                // Warm the session: buffers resident before the clock runs.
                let (status, _) = conn.request("POST", &path, &launch).expect("warm launch");
                assert_eq!(status, 200);
                barrier.wait();
                let started = Instant::now();
                let mut latencies = Vec::with_capacity(launches);
                for _ in 0..launches {
                    let t = Instant::now();
                    let (status, resp) = conn.request("POST", &path, &launch).expect("launch");
                    assert_eq!(status, 200, "{resp:?}");
                    latencies.push(t.elapsed().as_secs_f64());
                }
                let wall = started.elapsed().as_secs_f64();
                let (status, _) = conn
                    .request("DELETE", &format!("/sessions/{sid}"), "")
                    .expect("close");
                assert_eq!(status, 200);
                (latencies, wall)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(sessions * launches);
    let mut max_wall = 0.0f64;
    for j in joins {
        let (l, wall) = j.join().expect("client thread");
        latencies.extend(l);
        max_wall = max_wall.max(wall);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ConcurrencyPoint {
        sessions,
        launches_per_session: launches,
        launches: latencies.len() as u64,
        p50_seconds: quantile(&latencies, 0.50),
        p99_seconds: quantile(&latencies, 0.99),
        throughput_lps: latencies.len() as f64 / max_wall.max(1e-9),
    }
}

/// Elements of the mid-epoch case's migrating session.
const MIGRATING_ELEMENTS: usize = 100_000;

/// The mid-epoch case: untouched-session launch p99 with and without
/// back-to-back rebalance epochs on a co-resident sharded session. Both
/// phases run the identical background launch stream on the migrating
/// session, so the only varying factor is the epochs themselves.
fn mid_epoch_point(
    addr: SocketAddr,
    key: &str,
    untouched: usize,
    launches: usize,
) -> MidEpochPoint {
    let mut setup = Conn::open(addr).expect("connect");
    let migrating = open_session(&mut setup, key, MIGRATING_ELEMENTS, Some(4));
    // Ballast: a large one-shard session whose continuous launches keep one
    // device's backlog high, so the migrating session's plan has a real
    // imbalance to correct — its epochs move rows, not just quiesce.
    let ballast = open_session(&mut setup, key, MIGRATING_ELEMENTS / 2, None);
    let sids: Vec<u64> = (0..untouched)
        .map(|p| {
            let shards = if p % 2 == 1 { Some(2) } else { None };
            let mut conn = Conn::open(addr).expect("connect");
            open_session(&mut conn, key, ELEMENTS, shards)
        })
        .collect();
    let launch = launch_body();

    let phase = |hammer: bool| -> (Vec<f64>, u64, u64) {
        let stop = Arc::new(AtomicBool::new(false));
        // Both phases carry the same background load: the migrating session
        // and the ballast session launch continuously until the untouched
        // clients finish.
        let background: Vec<_> = [migrating, ballast]
            .into_iter()
            .map(|sid| {
                let stop = Arc::clone(&stop);
                let launch = launch.clone();
                std::thread::spawn(move || {
                    let mut conn = Conn::open(addr).expect("connect");
                    let path = format!("/sessions/{sid}/launch");
                    while !stop.load(Ordering::SeqCst) {
                        let (status, resp) = conn.request("POST", &path, &launch).expect("launch");
                        assert_eq!(status, 200, "{resp:?}");
                    }
                })
            })
            .collect();
        let epochs = Arc::new(AtomicU64::new(0));
        let migrated = Arc::new(AtomicU64::new(0));
        let hammer_thread = hammer.then(|| {
            let stop = Arc::clone(&stop);
            let (epochs, migrated) = (Arc::clone(&epochs), Arc::clone(&migrated));
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr).expect("connect");
                let path = format!("/sessions/{migrating}/rebalance");
                // Threshold 1.0 (the minimum): any predicted gain migrates,
                // so the epochs exercised here actually move rows, not just
                // quiesce.
                let body = serde_json::to_string(&api::obj(vec![("threshold", Value::Float(1.0))]))
                    .expect("body serializes");
                while !stop.load(Ordering::SeqCst) {
                    let (status, resp) = conn.request("POST", &path, &body).expect("rebalance");
                    assert_eq!(status, 200, "{resp:?}");
                    epochs.fetch_add(1, Ordering::Relaxed);
                    if resp.get("replanned") == Some(&Value::Bool(true)) {
                        migrated.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        });
        let joins: Vec<_> = sids
            .iter()
            .map(|&sid| {
                let launch = launch.clone();
                std::thread::spawn(move || {
                    let mut conn = Conn::open(addr).expect("connect");
                    let path = format!("/sessions/{sid}/launch");
                    let mut latencies = Vec::with_capacity(launches);
                    for _ in 0..launches {
                        let t = Instant::now();
                        let (status, resp) = conn.request("POST", &path, &launch).expect("launch");
                        assert_eq!(status, 200, "{resp:?}");
                        latencies.push(t.elapsed().as_secs_f64());
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<f64> = joins
            .into_iter()
            .flat_map(|j| j.join().expect("untouched client"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        for b in background {
            b.join().expect("background launcher");
        }
        if let Some(h) = hammer_thread {
            h.join().expect("rebalance hammer");
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        (
            latencies,
            epochs.load(Ordering::Relaxed),
            migrated.load(Ordering::Relaxed),
        )
    };

    // Warm both code paths, then measure: hammer idle vs hammering.
    let _ = phase(false);
    let (quiet, _, _) = phase(false);
    let (noisy, epochs, migrated_epochs) = phase(true);
    let no_epoch_p99 = quantile(&quiet, 0.99);
    let mid_epoch_p99 = quantile(&noisy, 0.99);
    MidEpochPoint {
        untouched_sessions: untouched,
        launches_per_session: launches,
        migrating_elements: MIGRATING_ELEMENTS,
        epochs,
        migrated_epochs,
        no_epoch_p99_seconds: no_epoch_p99,
        mid_epoch_p99_seconds: mid_epoch_p99,
        p99_ratio: mid_epoch_p99 / no_epoch_p99.max(1e-12),
    }
}

/// Run the benchmark. `quick` trims the concurrency ladder and launch
/// counts to CI scale.
pub fn run(quick: bool) -> ConcurrencyBenchReport {
    let ladder: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    let launches = if quick { 40 } else { 100 };
    let max_sessions = *ladder.iter().max().expect("non-empty ladder");

    let (addr, handle) = start_server(ServeConfig {
        devices: 4,
        workers: max_sessions + 4,
        // The measurement is the serve/cluster lock path; keep the span
        // recorder and scraper out of the picture.
        trace_buffer: 0,
        scrape_interval_ms: 0,
        ..Default::default()
    });
    let key = compile_key(addr);
    let points: Vec<ConcurrencyPoint> = ladder
        .iter()
        .map(|&sessions| barrage(addr, &key, sessions, launches))
        .collect();

    let (untouched, epoch_launches) = if quick { (4, 60) } else { (8, 150) };
    let mid_epoch = mid_epoch_point(addr, &key, untouched, epoch_launches);
    stop_server(addr, handle);

    ConcurrencyBenchReport {
        workload: "saxpy_kernel0 keep-alive session streams (open → launch × M → close)"
            .to_string(),
        elements: ELEMENTS,
        points,
        mid_epoch,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        max_mid_epoch_p99_ratio: MAX_MID_EPOCH_P99_RATIO,
    }
}

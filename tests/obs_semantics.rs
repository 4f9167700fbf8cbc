//! Observability semantics across the live serve stack:
//!
//! * An injected slow workload (cache-missing compiles of a 64-subroutine
//!   unit, at least 5 ms each even in release) drives an aggressive
//!   `ftn_http_request_seconds`
//!   SLO through `ok → pending → firing` on `GET /alerts`; the firing
//!   alert carries an exemplar whose trace id resolves to real spans via
//!   its `/trace?since=&until=` link; `/healthz` reports `degraded` with
//!   the firing SLO as the reason while the budget is blown; and once the
//!   bad traffic stops the alert walks back to `resolved`.
//! * The background scraper retains every registry metric as a time
//!   series: `GET /metrics/range` returns monotonically timestamped,
//!   non-decreasing counter points for `ftn_http_requests_total`, rejects
//!   malformed and inverted windows with 400, and 404s unknown series.
//!
//! The span recorder is process-global, so tests that depend on recorder
//! state take a shared lock (the same pattern `trace_semantics.rs` uses).

use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use ftn_serve::client::Conn;
use ftn_serve::{ServeConfig, Server};
use ftn_trace::SloSpec;
use serde::Value;

fn lock_recorder() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GUARD.get_or_init(|| Mutex::new(()));
    guard.lock().unwrap_or_else(|e| e.into_inner())
}

const SAXPY: &str = r#"
subroutine saxpy(n, a, x, y)
  implicit none
  integer :: n, i
  real :: a, x(n), y(n)
  !$omp target parallel do
  do i = 1, n
    y(i) = y(i) + a*x(i)
  end do
  !$omp end target parallel do
end subroutine saxpy
"#;

/// Renamed copies of [`SAXPY`] per slow request: one copy compiles in a
/// tenth of a millisecond in release, under the SLO's 500 us budget.
const SLOW_UNIT_COPIES: usize = 64;

/// A unit that compiles slowly by construction; `variant` keeps each one
/// out of the artifact cache.
fn slow_unit(variant: u32) -> String {
    let mut source = String::new();
    for copy in 0..SLOW_UNIT_COPIES {
        source.push_str(&SAXPY.replace("saxpy", &format!("saxpy_{copy}")));
    }
    source.push_str(&format!("\n! slo variant {variant}\n"));
    source
}

/// Unmeetable under compile load: half the requests in any 2 s window must
/// finish in under 500 us. API polls do; compiles do not.
const TIGHT_SLO: &str = "http_p50<500us/2s";

fn start_server(slos: Vec<SloSpec>) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 1,
            workers: 2,
            trace_buffer: 8192,
            scrape_interval_ms: 25,
            slos,
            ..Default::default()
        },
    )
    .expect("binds");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (status, _) =
        ftn_serve::client::request(addr, "POST", "/shutdown", "").expect("shutdown round-trips");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

fn get_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("field '{key}': expected unsigned number, got {other:?}"),
    }
}

fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("field '{key}': expected string, got {other:?}"),
    }
}

/// The `/alerts` row for SLO `spec`.
fn alert_row(alerts: &Value, spec: &str) -> Value {
    let Some(Value::Arr(rows)) = alerts.get("alerts") else {
        panic!("/alerts has no alerts array: {alerts:?}");
    };
    rows.iter()
        .find(|row| get_str(row, "slo") == spec)
        .unwrap_or_else(|| panic!("SLO {spec} not listed in {alerts:?}"))
        .clone()
}

#[test]
fn slow_workload_fires_slo_with_resolvable_exemplar_then_resolves() {
    let _g = lock_recorder();
    let slos = vec![SloSpec::parse(TIGHT_SLO).expect("tight SLO parses")];
    let (addr, handle) = start_server(slos);
    let mut conn = Conn::open(addr).expect("connect");

    // Inject slowness: cache-missing compiles blow the 500 us p50 budget in
    // both burn windows within a few scrapes.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut variant = 0u32;
    let firing = loop {
        assert!(
            Instant::now() < deadline,
            "SLO {TIGHT_SLO} did not fire under compile load"
        );
        for _ in 0..3 {
            variant += 1;
            let body = serde_json::to_string(&ftn_serve::api::obj(vec![(
                "source",
                Value::Str(slow_unit(variant)),
            )]))
            .expect("serializes");
            let (status, resp) = conn.request("POST", "/compile", &body).expect("compile");
            assert_eq!(status, 200, "{resp:?}");
        }
        let (status, alerts) = conn.request("GET", "/alerts", "").expect("alerts");
        assert_eq!(status, 200, "{alerts:?}");
        let row = alert_row(&alerts, TIGHT_SLO);
        if get_str(&row, "state") == "firing" {
            break row;
        }
    };
    assert_eq!(get_str(&firing, "metric"), "ftn_http_request_seconds");

    // The firing alert links one slow observation's trace.
    let exemplar = firing
        .get("exemplar")
        .unwrap_or_else(|| panic!("firing alert carries no exemplar: {firing:?}"));
    let trace_id = get_u64(exemplar, "trace_id");
    assert_ne!(trace_id, 0, "exemplar trace id must be a live trace");
    assert_ne!(get_u64(exemplar, "span_id"), 0);
    let link = get_str(exemplar, "trace_link");
    assert!(
        link.starts_with("/trace?since=") && link.contains("&until="),
        "unexpected trace_link {link:?}"
    );
    let (status, window) = conn
        .request_text("GET", link, "")
        .expect("trace_link round-trips");
    assert_eq!(status, 200, "{link}");
    let window = serde_json::value_from_str(&window).expect("trace window is valid JSON");
    let Some(Value::Arr(events)) = window.get("traceEvents") else {
        panic!("trace window has no traceEvents: {window:?}");
    };
    let spans = events
        .iter()
        .filter(
            // Lane-metadata events carry no trace_id; skip them.
            |e| match e.get("args").and_then(|a| a.get("trace_id")) {
                Some(Value::UInt(t)) => *t == trace_id,
                Some(Value::Int(t)) => u64::try_from(*t) == Ok(trace_id),
                _ => false,
            },
        )
        .count();
    assert!(spans > 0, "exemplar trace {trace_id} not found via {link}");

    // While the SLO fires, readiness degrades (still 200 — serving, but
    // observably unhealthy) and names the objective.
    let (status, health) = conn.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200, "{health:?}");
    assert_eq!(get_str(&health, "status"), "degraded");
    let Some(Value::Arr(reasons)) = health.get("reasons") else {
        panic!("degraded /healthz has no reasons: {health:?}");
    };
    assert!(
        reasons
            .iter()
            .any(|r| matches!(r, Value::Str(s) if s.contains(TIGHT_SLO))),
        "no SLO reason in {reasons:?}"
    );

    // Stop the bad traffic; cheap polls re-fill the budget and the alert
    // resolves (or fully re-arms to ok if we poll past the hold window).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "SLO {TIGHT_SLO} did not resolve after the slow traffic stopped"
        );
        std::thread::sleep(Duration::from_millis(20));
        let (status, alerts) = conn.request("GET", "/alerts", "").expect("alerts");
        assert_eq!(status, 200, "{alerts:?}");
        let row = alert_row(&alerts, TIGHT_SLO);
        if matches!(get_str(&row, "state"), "resolved" | "ok") {
            break;
        }
    }
    let (status, health) = conn.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(get_str(&health, "status"), "ok");
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));

    drop(conn);
    shutdown(addr, handle);
}

#[test]
fn metrics_range_returns_monotonic_series_and_rejects_bad_windows() {
    let _g = lock_recorder();
    let (addr, handle) = start_server(ftn_trace::default_slos());
    let mut conn = Conn::open(addr).expect("connect");

    // Generate some traffic, then wait for the scraper to retain it.
    for _ in 0..5 {
        let (status, _) = conn.request("GET", "/stats", "").expect("stats");
        assert_eq!(status, 200);
    }
    // Poll until a scrape has retained the burst (25 ms cadence); then the
    // whole series must be monotonically timestamped and non-decreasing.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, series) = conn
            .request("GET", "/metrics/range?name=ftn_http_requests_total", "")
            .expect("range");
        let caught_up = status == 200 && {
            let Some(Value::Arr(points)) = series.get("points") else {
                panic!("no points in {series:?}");
            };
            let mut last_nanos = 0u64;
            let mut last_value = 0u64;
            for p in points {
                let nanos = get_u64(p, "nanos");
                let value = get_u64(p, "value");
                assert!(nanos > last_nanos, "timestamps not monotonic: {points:?}");
                assert!(value >= last_value, "counter went backwards: {points:?}");
                last_nanos = nanos;
                last_value = value;
            }
            last_value >= 5
        };
        if caught_up {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "series never caught the traffic burst: {series:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Window validation is shared with /trace: malformed and inverted
    // windows are 400s, unknown series 404.
    for (path, expect) in [
        (
            "/metrics/range?name=ftn_http_requests_total&since=bogus",
            400,
        ),
        (
            "/metrics/range?name=ftn_http_requests_total&since=5&until=2",
            400,
        ),
        ("/metrics/range?name=no_such_series", 404),
        ("/trace?since=bogus", 400),
        ("/trace?since=7&until=3", 400),
    ] {
        let (status, resp) = conn.request("GET", path, "").expect("request");
        assert_eq!(status, expect, "GET {path}: {resp:?}");
    }

    // A bare GET /metrics/range is the series index: every retained series
    // listed with its kind and point count, the scraped series included.
    let (status, index) = conn.request("GET", "/metrics/range", "").expect("index");
    assert_eq!(status, 200, "bare /metrics/range: {index:?}");
    let Some(Value::Arr(series)) = index.get("series") else {
        panic!("no series index in {index:?}");
    };
    assert!(
        series.iter().any(|s| {
            get_str(s, "name") == "ftn_http_requests_total"
                && get_str(s, "kind") == "counter"
                && get_u64(s, "points") > 0
        }),
        "index missing ftn_http_requests_total: {index:?}"
    );

    // An unknown series' 404 carries a hint pointing at the index.
    let (status, resp) = conn
        .request("GET", "/metrics/range?name=no_such_series", "")
        .expect("404 hint");
    assert_eq!(status, 404);
    assert!(
        get_str(&resp, "error").contains("/metrics/range"),
        "404 should hint at the series index: {resp:?}"
    );

    drop(conn);
    shutdown(addr, handle);
}

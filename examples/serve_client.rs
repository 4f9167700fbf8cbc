//! Round trip against `ftn-serve`: start the service on an ephemeral port,
//! compile SAXPY twice (the second request hits the content-addressed
//! cache), run a sessionless baseline, then open a persistent `target data`
//! session, fire 8 kernel launches against the resident buffers, and close.
//! Finally, open the same workload as a *sharded* session spanning both
//! pool devices and verify it returns identical bytes.
//!
//! The whole conversation rides one keep-alive connection ([`Conn`]); the
//! burst never reconnects.
//!
//! Asserts the acceptance criteria of the serve subsystem:
//! * the second `POST /compile` is a cache hit,
//! * ≥ 50% of host↔device transfers are elided versus the sessionless path,
//! * the session result is bit-identical to the single-device `Machine`,
//! * the sharded session result is bit-identical to the unsharded one,
//! * `/stats` shows the burst reused one connection (keep-alive),
//! * `GET /metrics` exports the request/queue-wait histograms and
//!   `GET /trace` returns a Chrome trace-event timeline with one lane per
//!   pool device and the burst's `job.kernel` spans,
//! * `GET /metrics/range` serves the self-scraped time series of the burst,
//! * a deliberately slow compile workload drives an aggressive latency SLO
//!   to `firing` on `GET /alerts`, whose exemplar `trace_link` resolves to
//!   the slow request's trace in `/trace?since=&until=`, and the alert
//!   returns to `resolved` once the bad traffic stops,
//! * `GET /profile?format=folded` contains a `kernel.execute` frame with
//!   nonzero self time, `GET /profile/top?by=kernel` attributes the burst's
//!   simulated cycles to `saxpy_kernel0`, and the `ftn top` renderer turns
//!   both into a dashboard frame,
//! * the server shuts down cleanly on `POST /shutdown`.
//!
//! Run with: `cargo run --release --example serve_client`

use ftn_core::{Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use ftn_serve::client::Conn;
use ftn_serve::{ServeConfig, Server};
use serde::{Serialize, Value};

const N: usize = 4096;
const LAUNCHES: usize = 8;
const A: f32 = 1.5;
/// The deliberately unmeetable-under-compile-load objective the alert demo
/// drives to `firing`: half the requests in any 2 s window must finish in
/// under 500 us. Keep-alive API polls do; multi-millisecond compiles do not.
const TIGHT_SLO: &str = "http_p50<500us/2s";

fn request(conn: &mut Conn, method: &str, path: &str, body: &str) -> (u16, Value) {
    let (status, value) = conn
        .request(method, path, body)
        .expect("request against ftn-serve round-trips");
    assert_eq!(status, 200, "{method} {path}: {value:?}");
    (status, value)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn body(v: &Value) -> String {
    serde_json::to_string(v).expect("serialize request")
}

fn get_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("field '{key}': expected unsigned number, got {other:?}"),
    }
}

fn get_f32s(v: &Value) -> Vec<f32> {
    let Value::Arr(items) = v else {
        panic!("expected array, got {v:?}")
    };
    items
        .iter()
        .map(|x| match x {
            Value::Float(f) => *f as f32,
            Value::Int(i) => *i as f32,
            Value::UInt(u) => *u as f32,
            other => panic!("expected number, got {other:?}"),
        })
        .collect()
}

/// The `/alerts` row for SLO `spec`, if listed.
fn find_alert<'a>(alerts: &'a Value, spec: &str) -> Option<&'a Value> {
    let Some(Value::Arr(rows)) = alerts.get("alerts") else {
        panic!("/alerts has no alerts array: {alerts:?}");
    };
    rows.iter()
        .find(|row| matches!(row.get("slo"), Some(Value::Str(s)) if s == spec))
}

fn saxpy_launch_args(n: usize, a: f32) -> Value {
    // saxpy_kernel0(x, y, n, n, a, 1, n) — signature reported by /compile.
    Value::Arr(vec![
        obj(vec![("array", Value::Str("x".into()))]),
        obj(vec![("array", Value::Str("y".into()))]),
        obj(vec![("index", (n as i64).to_value())]),
        obj(vec![("index", (n as i64).to_value())]),
        obj(vec![("f32", Value::Float(a as f64))]),
        obj(vec![("index", Value::Int(1))]),
        obj(vec![("index", (n as i64).to_value())]),
    ])
}

fn main() {
    let source = ftn_bench::workloads::SAXPY_F90;
    let x: Vec<f32> = (0..N).map(|i| (i as f32 * 0.37).sin()).collect();
    let y0: Vec<f32> = (0..N).map(|i| (i as f32 * 0.11).cos()).collect();

    // Reference: the same 8 launches on a single-device Machine.
    let artifacts = Compiler::default()
        .compile_source(source)
        .expect("reference compile");
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).expect("machine loads");
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y0);
    for _ in 0..LAUNCHES {
        machine
            .run(
                "saxpy",
                &[
                    RtValue::I32(N as i32),
                    RtValue::F32(A),
                    xa.clone(),
                    ya.clone(),
                ],
            )
            .expect("reference run");
    }
    let reference = machine.read_f32(&ya);

    // Start the service in-process on an ephemeral port. Beside the default
    // SLOs, an aggressively tight latency objective (p50 < 500 us over a 2 s
    // window) arms the alert demo below; the 25 ms scrape cadence keeps its
    // burn rates fresh.
    let mut slos = ftn_trace::default_slos();
    slos.push(ftn_trace::SloSpec::parse(TIGHT_SLO).expect("tight SLO parses"));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 2,
            workers: 4,
            scrape_interval_ms: 25,
            slos,
            ..Default::default()
        },
    )
    .expect("bind ftn-serve");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());
    println!("ftn-serve on http://{addr}");

    // One keep-alive connection carries the whole conversation.
    let mut conn = Conn::open(addr).expect("connect");

    // Compile twice: the second request must be a cache hit.
    let compile_body = body(&obj(vec![("source", Value::Str(source.to_string()))]));
    let (_, first) = request(&mut conn, "POST", "/compile", &compile_body);
    let (_, second) = request(&mut conn, "POST", "/compile", &compile_body);
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    assert_eq!(
        second.get("cached"),
        Some(&Value::Bool(true)),
        "second compile must hit the artifact cache"
    );
    let Some(Value::Str(key)) = first.get("key") else {
        panic!("no artifact key in {first:?}")
    };
    println!(
        "compiled saxpy -> key {}... (second request: cache hit)",
        &key[..12]
    );

    // Sessionless baseline: each request re-runs the whole host program with
    // fresh arrays — every launch pays the full host↔device traffic.
    let mut sessionless_transfers = 0u64;
    for _ in 0..LAUNCHES {
        let run_body = body(&obj(vec![
            ("key", Value::Str(key.clone())),
            ("func", Value::Str("saxpy".into())),
            (
                "args",
                Value::Arr(vec![
                    obj(vec![("i32", (N as i64).to_value())]),
                    obj(vec![("f32", Value::Float(A as f64))]),
                    obj(vec![("array_f32", x.to_value())]),
                    obj(vec![("array_f32", y0.to_value())]),
                ]),
            ),
        ]));
        let (_, run) = request(&mut conn, "POST", "/run", &run_body);
        let stats = run.get("stats").expect("run stats");
        sessionless_transfers += get_u64(stats, "transfers");
    }
    println!("sessionless path: {LAUNCHES} runs, {sessionless_transfers} host<->device transfers");

    // Session path: map once, launch 8 times, write back once.
    let open_body = body(&obj(vec![
        ("key", Value::Str(key.clone())),
        (
            "maps",
            Value::Arr(vec![
                obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", x.to_value()),
                ]),
                obj(vec![
                    ("name", Value::Str("y".into())),
                    ("kind", Value::Str("tofrom".into())),
                    ("data", y0.to_value()),
                ]),
            ]),
        ),
    ]));
    let (_, opened) = request(&mut conn, "POST", "/sessions", &open_body);
    let sid = get_u64(&opened, "session");
    println!(
        "session {sid} open on device {} (x mapped to, y mapped tofrom)",
        get_u64(&opened, "device")
    );

    let launch_body = body(&obj(vec![
        ("kernel", Value::Str("saxpy_kernel0".into())),
        ("args", saxpy_launch_args(N, A)),
    ]));
    let mut elided = 0u64;
    for i in 0..LAUNCHES {
        let (_, launch) = request(
            &mut conn,
            "POST",
            &format!("/sessions/{sid}/launch"),
            &launch_body,
        );
        elided += get_u64(&launch, "elided");
        assert_eq!(
            get_u64(&launch, "staged"),
            0,
            "launch {i} must find all buffers resident"
        );
    }

    let (_, closed) = request(&mut conn, "DELETE", &format!("/sessions/{sid}"), "");
    let stats = closed.get("stats").expect("session stats");
    let session_transfers = get_u64(stats, "staged_uploads") + get_u64(stats, "fetched_downloads");
    assert_eq!(get_u64(stats, "launches"), LAUNCHES as u64);
    println!(
        "session path: {LAUNCHES} launches, {session_transfers} transfers ({elided} elided per-launch maps)"
    );

    // >= 50% of the sessionless traffic must be elided.
    let elision_ratio = 1.0 - session_transfers as f64 / sessionless_transfers as f64;
    println!(
        "transfer elision vs sessionless path: {:.1}%",
        elision_ratio * 100.0
    );
    assert!(
        elision_ratio >= 0.5,
        "expected >= 50% elision, got {:.1}%",
        elision_ratio * 100.0
    );

    // Bit-identical to the single-device Machine.
    let got = get_f32s(closed.get("arrays").and_then(|a| a.get("y")).expect("y"));
    assert_eq!(got.len(), reference.len());
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert!(
            g.to_bits() == r.to_bits(),
            "element {i}: session {g} != machine {r}"
        );
    }
    println!("session result is bit-identical to single-device Machine ({N} elements)");

    // Sharded mode: the same workload as one data environment spanning both
    // pool devices. Extent args rebase trip counts per shard; the gathered
    // result must be byte-identical to the unsharded session.
    let open_sharded = body(&obj(vec![
        ("key", Value::Str(key.clone())),
        ("shards", Value::Int(2)),
        (
            "maps",
            Value::Arr(vec![
                obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", x.to_value()),
                ]),
                obj(vec![
                    ("name", Value::Str("y".into())),
                    ("kind", Value::Str("tofrom".into())),
                    ("data", y0.to_value()),
                ]),
            ]),
        ),
    ]));
    let (_, opened) = request(&mut conn, "POST", "/sessions", &open_sharded);
    let shards = get_u64(&opened, "shards");
    let sid = get_u64(&opened, "session");
    println!(
        "sharded session {sid}: {shards} shards on devices {:?}",
        opened.get("devices")
    );
    assert_eq!(shards, 2);
    let sharded_launch = body(&obj(vec![
        ("kernel", Value::Str("saxpy_kernel0".into())),
        (
            "args",
            Value::Arr(vec![
                obj(vec![("array", Value::Str("x".into()))]),
                obj(vec![("array", Value::Str("y".into()))]),
                obj(vec![("extent", Value::Str("x".into()))]),
                obj(vec![("extent", Value::Str("y".into()))]),
                obj(vec![("f32", Value::Float(A as f64))]),
                obj(vec![("index", Value::Int(1))]),
                obj(vec![("extent", Value::Str("x".into()))]),
            ]),
        ),
    ]));
    for _ in 0..LAUNCHES {
        let (_, launch) = request(
            &mut conn,
            "POST",
            &format!("/sessions/{sid}/launch"),
            &sharded_launch,
        );
        assert_eq!(get_u64(&launch, "shards"), 2);
    }
    let (_, closed) = request(&mut conn, "DELETE", &format!("/sessions/{sid}"), "");
    let sharded_y = get_f32s(closed.get("arrays").and_then(|a| a.get("y")).expect("y"));
    for (i, (g, r)) in sharded_y.iter().zip(&got).enumerate() {
        assert!(
            g.to_bits() == r.to_bits(),
            "element {i}: sharded {g} != unsharded {r}"
        );
    }
    println!("sharded session is bit-identical to the unsharded session ({shards} shards)");

    // The whole conversation rode one keep-alive connection.
    let (_, stats) = request(&mut conn, "GET", "/stats", "");
    let http = stats.get("http").expect("http stats");
    let connections = get_u64(http, "connections");
    let requests = get_u64(http, "requests");
    assert_eq!(connections, 1, "burst must reuse one connection");
    assert!(requests > 20, "stats: {stats:?}");
    println!("keep-alive: {requests} requests over {connections} connection(s)");

    // Observability endpoints, still on the same connection: /metrics is
    // Prometheus text exposition fed by the burst above, /trace is a
    // Chrome trace-event timeline with one lane per pool device.
    let (status, metrics) = conn
        .request_text("GET", "/metrics", "")
        .expect("GET /metrics round-trips");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE ftn_http_requests_total counter",
        "# TYPE ftn_http_request_seconds histogram",
        "# TYPE ftn_pool_queue_wait_seconds histogram",
        "ftn_launches_total",
        "ftn_uptime_seconds",
        "ftn_pool_queue_depth{",
    ] {
        assert!(metrics.contains(needle), "/metrics missing {needle:?}");
    }
    let (status, trace) = conn
        .request_text("GET", "/trace", "")
        .expect("GET /trace round-trips");
    assert_eq!(status, 200);
    let timeline = serde_json::value_from_str(&trace).expect("/trace is valid JSON");
    let Some(Value::Arr(events)) = timeline.get("traceEvents") else {
        panic!("/trace has no traceEvents array");
    };
    let device_lanes = events
        .iter()
        .filter(|e| {
            e.get("ph") == Some(&Value::Str("M".into()))
                && matches!(
                    e.get("args").and_then(|a| a.get("name")),
                    Some(Value::Str(s)) if s.starts_with("ftn-device-")
                )
        })
        .count();
    assert_eq!(device_lanes, 2, "one trace lane per pool device");
    let job_spans = events
        .iter()
        .filter(|e| e.get("name") == Some(&Value::Str("job.kernel".into())))
        .count();
    assert!(job_spans > 0, "no job.kernel spans in /trace");
    println!(
        "observability: /metrics exports histograms, /trace has {} events on {} device lanes",
        events.len(),
        device_lanes
    );

    // The background scraper has been snapshotting the registry into the
    // time-series store all along; /metrics/range replays the burst. The
    // burst takes about as long as one scrape interval, so wait for the
    // scrape that has seen it rather than for the first point.
    let since = std::time::Instant::now();
    let (points, last) = loop {
        let (status, range) = conn
            .request("GET", "/metrics/range?name=ftn_http_requests_total", "")
            .expect("GET /metrics/range round-trips");
        if let (200, Some(Value::Arr(points))) = (status, range.get("points")) {
            let last = points.last().map_or(0, |p| get_u64(p, "value"));
            if last > 20 {
                break (points.len(), last);
            }
        }
        assert!(
            since.elapsed() < std::time::Duration::from_secs(10),
            "ftn_http_requests_total series has not reached the burst after 10s: {range:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    println!(
        "time series: {} retained points of ftn_http_requests_total, latest = {} requests",
        points, last
    );

    // Drive the tight SLO to `firing`: cache-missing compiles of 64 renamed
    // SAXPY copies take several milliseconds each (one copy compiles in a
    // tenth of one), so they blow the 500 us p50 budget in both burn-rate
    // windows within a few hundred milliseconds.
    let slow_source: String = (0..64)
        .map(|copy| source.replace("saxpy", &format!("saxpy_{copy}")))
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut variant = 0u32;
    let firing = loop {
        assert!(
            std::time::Instant::now() < deadline,
            "SLO {TIGHT_SLO} did not fire under compile load"
        );
        for _ in 0..3 {
            variant += 1;
            let slow = body(&obj(vec![(
                "source",
                Value::Str(format!("{slow_source}\n! slo demo variant {variant}")),
            )]));
            request(&mut conn, "POST", "/compile", &slow);
        }
        let (_, alerts) = request(&mut conn, "GET", "/alerts", "");
        if let Some(alert) = find_alert(&alerts, TIGHT_SLO) {
            if alert.get("state") == Some(&Value::Str("firing".into())) {
                break alert.clone();
            }
        }
    };
    println!(
        "alert firing: {TIGHT_SLO} (fast_burn {:?}, slow_burn {:?})",
        firing.get("fast_burn"),
        firing.get("slow_burn")
    );

    // The firing alert carries an exemplar — the trace identity of one slow
    // observation — and a ready-made /trace window around it.
    let exemplar = firing
        .get("exemplar")
        .expect("firing latency alert carries an exemplar");
    let trace_id = get_u64(exemplar, "trace_id");
    assert_ne!(trace_id, 0, "exemplar trace id must be a real trace");
    let Some(Value::Str(link)) = exemplar.get("trace_link") else {
        panic!("exemplar has no trace_link: {exemplar:?}");
    };
    let (status, window) = conn
        .request_text("GET", link, "")
        .expect("exemplar trace_link round-trips");
    assert_eq!(status, 200, "{link}");
    let window = serde_json::value_from_str(&window).expect("trace window is valid JSON");
    let Some(Value::Arr(events)) = window.get("traceEvents") else {
        panic!("trace window has no traceEvents: {window:?}");
    };
    let resolved_spans = events
        .iter()
        .filter(|e| match e.get("args").and_then(|a| a.get("trace_id")) {
            Some(Value::UInt(t)) => *t == trace_id,
            Some(Value::Int(t)) => u64::try_from(*t) == Ok(trace_id),
            _ => false,
        })
        .count();
    assert!(
        resolved_spans > 0,
        "exemplar trace {trace_id} not found via {link}"
    );
    println!("exemplar: trace {trace_id} resolves to {resolved_spans} span(s) via {link}");

    // Stop the bad traffic; cheap /alerts polls re-fill the budget and the
    // alert walks firing -> resolved.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "SLO {TIGHT_SLO} did not resolve after the bad traffic stopped"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (_, alerts) = request(&mut conn, "GET", "/alerts", "");
        let alert = find_alert(&alerts, TIGHT_SLO).expect("tight SLO stays listed");
        match alert.get("state") {
            Some(Value::Str(s)) if s == "resolved" || s == "ok" => break,
            _ => {}
        }
    }
    println!("alert resolved: {TIGHT_SLO} recovered once the compile load stopped");

    // The continuous profiler has been watching the same spans: the folded
    // (collapsed-stack) view must attribute real self time to the simulated
    // kernel executions the burst ran.
    let (status, folded) = conn
        .request_text("GET", "/profile?format=folded", "")
        .expect("GET /profile round-trips");
    assert_eq!(status, 200);
    let kernel_self: u64 = folded
        .lines()
        .filter_map(|line| {
            let (path, value) = line.rsplit_once(' ')?;
            path.ends_with("kernel.execute")
                .then(|| value.parse::<u64>().ok())
                .flatten()
        })
        .sum();
    assert!(
        kernel_self > 0,
        "no kernel.execute self time in the folded profile:\n{folded}"
    );

    // Cost attribution: the burst's simulated cycles land on saxpy_kernel0.
    let (_, top) = request(&mut conn, "GET", "/profile/top?by=kernel", "");
    let Some(Value::Arr(rows)) = top.get("rows") else {
        panic!("/profile/top has no rows: {top:?}");
    };
    let saxpy = rows
        .iter()
        .find(|r| matches!(r.get("key"), Some(Value::Str(s)) if s == "saxpy_kernel0"))
        .expect("saxpy_kernel0 ranked in /profile/top");
    assert!(get_u64(saxpy, "sim_cycles") > 0, "{saxpy:?}");
    println!(
        "profiling: kernel.execute self time {:.3} ms, saxpy_kernel0 = {} simulated cycles over {} jobs",
        kernel_self as f64 / 1e6,
        get_u64(saxpy, "sim_cycles"),
        get_u64(saxpy, "jobs"),
    );

    // One `ftn top` frame over the same endpoints (what `ftn top ADDR
    // --once` prints).
    let frame = ftn_serve::top::render_once(addr, 5).expect("ftn top frame renders");
    assert!(frame.contains("TOP KERNEL"), "{frame}");
    assert!(frame.contains("saxpy_kernel0"), "{frame}");
    println!("--- ftn top ---\n{frame}");

    // Clean shutdown.
    let (_, _) = request(&mut conn, "POST", "/shutdown", "");
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    println!("server shut down cleanly. OK");
}

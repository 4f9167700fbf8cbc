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
//! * a sessionless `/run` returns `null` for `x`, which it only reads, and
//!   the CPU reference for `y`,
//! * ≥ 50% of host↔device transfers are elided versus the sessionless path,
//! * the session result is bit-identical to the single-device `Machine`,
//! * the sharded session result is bit-identical to the unsharded one,
//! * `/stats` shows the burst reused one connection (keep-alive),
//! * `GET /metrics` exports the request/queue-wait histograms in the text
//!   format its Content-Type names (0.0.4: every sample line is exactly
//!   `series value`, every comment `# TYPE` or `# HELP`) and
//!   `GET /trace` returns a Chrome trace-event timeline with one lane per
//!   pool device and the burst's `job.kernel` spans,
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

    // Start the service in-process on an ephemeral port.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 2,
            workers: 4,
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
    // fresh arrays — every launch pays the full host↔device traffic. The
    // reply returns only the arrays the run wrote: `x` comes back `null`,
    // `y` as one SAXPY step on the CPU computes it.
    let one_step: Vec<f32> = x.iter().zip(&y0).map(|(x, y)| y + A * x).collect();
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
        let Some(Value::Arr(arrays)) = run.get("arrays") else {
            panic!("no arrays in the /run reply")
        };
        assert_eq!(arrays.len(), 2, "one entry per array argument");
        assert_eq!(arrays[0], Value::Null, "x is only read: not echoed");
        let got = get_f32s(&arrays[1]);
        assert!(
            got.iter()
                .map(|y| y.to_bits())
                .eq(one_step.iter().map(|y| y.to_bits())),
            "sessionless y differs from the CPU reference"
        );
    }
    println!(
        "sessionless path: {LAUNCHES} runs, {sessionless_transfers} host<->device transfers, \
         x unechoed, y matches the CPU reference"
    );

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
    for line in metrics.lines() {
        let well_formed = match line.strip_prefix('#') {
            Some(comment) => comment.starts_with(" TYPE ") || comment.starts_with(" HELP "),
            None => line.split_once(' ').is_some_and(|(series, value)| {
                !series.contains(char::is_whitespace) && value.parse::<f64>().is_ok()
            }),
        };
        assert!(
            well_formed,
            "/metrics line outside the 0.0.4 grammar: {line}"
        );
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

//! Live-server acceptance test for the profiling stack: sharded launches of
//! two different kernels over HTTP, then
//!
//! * `GET /profile/top?by=kernel` ranks the kernels in simulated-cycle order
//!   and its totals match the per-launch `cycles` the launch responses
//!   reported (i.e. the `RunStats` the cluster measured),
//! * `GET /profile?format=folded` attributes ≥95 % of the wall time inside
//!   `http.request` spans to named children over the launch window,
//! * per-device busy/idle utilization partitions the window and the
//!   `ftn_device_utilization` gauges are in the `GET /metrics` exposition,
//! * `ftn top`'s renderer produces a dashboard frame from the same server.
//!
//! This lives in its own integration-test binary (one process, one test) on
//! purpose: the span recorder is process-global, and in-crate unit tests
//! running concurrently would inject their own `http.request` spans into the
//! folded-attribution window.

use std::net::SocketAddr;

use ftn_serve::{api, client, ServeConfig, Server};
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

const SSCAL: &str = r#"
subroutine sscal(n, a, y)
  implicit none
  integer :: n, i
  real :: a, y(n)
  !$omp target parallel do simd simdlen(10)
  do i = 1, n
    y(i) = a*y(i)
  end do
  !$omp end target parallel do simd
end subroutine sscal
"#;

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
    client::request(addr, method, path, body).expect("request round-trips")
}

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("expected unsigned number, got {other:?}"),
    }
}

fn as_f64(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(f)) => *f,
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Int(i)) => *i as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

fn compile(addr: SocketAddr, source: &str) -> String {
    let body =
        serde_json::to_string(&api::obj(vec![("source", Value::Str(source.to_string()))])).unwrap();
    let (status, resp) = request(addr, "POST", "/compile", &body);
    assert_eq!(status, 200, "{resp:?}");
    let Some(Value::Str(key)) = resp.get("key") else {
        panic!("no key in {resp:?}");
    };
    key.clone()
}

/// Open a sharded session mapping `y` tofrom (and `x` to, when given).
fn open_sharded(addr: SocketAddr, key: &str, x: Option<&[f32]>, y: &[f32], shards: i64) -> u64 {
    let mut maps = Vec::new();
    if let Some(x) = x {
        maps.push(api::obj(vec![
            ("name", Value::Str("x".into())),
            ("kind", Value::Str("to".into())),
            ("data", x.to_vec().to_value()),
        ]));
    }
    maps.push(api::obj(vec![
        ("name", Value::Str("y".into())),
        ("kind", Value::Str("tofrom".into())),
        ("data", y.to_vec().to_value()),
    ]));
    let open = api::obj(vec![
        ("key", Value::Str(key.to_string())),
        ("shards", Value::Int(shards)),
        ("maps", Value::Arr(maps)),
    ]);
    let (status, opened) = request(
        addr,
        "POST",
        "/sessions",
        &serde_json::to_string(&open).unwrap(),
    );
    assert_eq!(status, 200, "{opened:?}");
    as_u64(opened.get("session"))
}

fn launch(addr: SocketAddr, sid: u64, body: &str) -> u64 {
    let (status, resp) = request(addr, "POST", &format!("/sessions/{sid}/launch"), body);
    assert_eq!(status, 200, "{resp:?}");
    as_u64(resp.get("cycles"))
}

fn top_rows(addr: SocketAddr, by: &str) -> Vec<Value> {
    let (status, top) = request(addr, "GET", &format!("/profile/top?by={by}&k=10"), "");
    assert_eq!(status, 200, "{top:?}");
    match top.get("rows") {
        Some(Value::Arr(rows)) => rows.clone(),
        other => panic!("no rows in {other:?}"),
    }
}

fn row_field(rows: &[Value], key: &str, field: &str) -> u64 {
    let row = rows
        .iter()
        .find(|r| api::get_opt_str(r, "key") == Some(key))
        .unwrap_or_else(|| panic!("no row '{key}' in {rows:?}"));
    as_u64(row.get(field))
}

#[test]
fn profile_stack_attributes_live_sharded_traffic() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 4,
            workers: 4,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    // Two different kernels in two pools: a big saxpy and a small sscal, so
    // the cycle ranking is unambiguous. The big one is sized so that, with
    // kernels running in strips, a launch is still mostly kernel: the
    // attribution floor below is a share of the launch window.
    let saxpy_key = compile(addr, SAXPY);
    let sscal_key = compile(addr, SSCAL);
    let n_big = 65536usize;
    let n_small = 512usize;
    let x: Vec<f32> = (0..n_big).map(|i| i as f32 * 0.25).collect();
    let y_big = vec![1.0f32; n_big];
    let y_small = vec![2.0f32; n_small];
    let saxpy_sid = open_sharded(addr, &saxpy_key, Some(&x), &y_big, 4);
    let sscal_sid = open_sharded(addr, &sscal_key, None, &y_small, 4);

    let saxpy_launch = serde_json::to_string(&api::obj(vec![
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
    .unwrap();
    let sscal_launch = serde_json::to_string(&api::obj(vec![
        ("kernel", Value::Str("sscal_kernel0".into())),
        (
            "args",
            Value::Arr(vec![
                api::obj(vec![("array", Value::Str("y".into()))]),
                api::obj(vec![("extent", Value::Str("y".into()))]),
                api::obj(vec![("f32", Value::Float(0.5))]),
                api::obj(vec![("index", Value::Int(1))]),
                api::obj(vec![("extent", Value::Str("y".into()))]),
            ]),
        ),
    ]))
    .unwrap();

    // The launch window: everything between t1 and t2 is launch traffic
    // (compiles and session opens, with their heavy JSON parsing, are done).
    let t1 = ftn_trace::now_nanos();
    let mut saxpy_cycles = 0u64;
    let mut sscal_cycles = 0u64;
    for _ in 0..4 {
        saxpy_cycles += launch(addr, saxpy_sid, &saxpy_launch);
    }
    for _ in 0..2 {
        sscal_cycles += launch(addr, sscal_sid, &sscal_launch);
    }
    let t2 = ftn_trace::now_nanos();
    assert!(saxpy_cycles > sscal_cycles, "workloads must rank clearly");

    // /profile/top?by=kernel ranks by simulated cycles and the totals match
    // what the launch responses (RunStats) reported, exactly.
    let kernels = top_rows(addr, "kernel");
    assert_eq!(kernels.len(), 2, "{kernels:?}");
    assert_eq!(
        api::get_opt_str(&kernels[0], "key"),
        Some("saxpy_kernel0"),
        "most cycles first: {kernels:?}"
    );
    assert_eq!(
        row_field(&kernels, "saxpy_kernel0", "sim_cycles"),
        saxpy_cycles
    );
    assert_eq!(
        row_field(&kernels, "sscal_kernel0", "sim_cycles"),
        sscal_cycles
    );
    assert_eq!(
        row_field(&kernels, "saxpy_kernel0", "jobs"),
        16,
        "4 launches × 4 shards"
    );
    assert_eq!(row_field(&kernels, "sscal_kernel0", "jobs"), 8);

    // by=session keys rows by the ids the opens returned.
    let sessions = top_rows(addr, "session");
    assert_eq!(sessions.len(), 2, "{sessions:?}");
    assert_eq!(
        row_field(&sessions, &saxpy_sid.to_string(), "sim_cycles"),
        saxpy_cycles
    );
    assert_eq!(
        row_field(&sessions, &sscal_sid.to_string(), "sim_cycles"),
        sscal_cycles
    );

    // by=device: every job lands on some device; cycles re-add to the total.
    let devices = top_rows(addr, "device");
    assert!(!devices.is_empty());
    let device_cycles: u64 = devices.iter().map(|r| as_u64(r.get("sim_cycles"))).sum();
    assert_eq!(device_cycles, saxpy_cycles + sscal_cycles);
    // Kernel launches find everything resident in a sharded session, so the
    // data movement shows up on the device rows (session-open uploads).
    let device_bytes: u64 = devices.iter().map(|r| as_u64(r.get("bytes_moved"))).sum();
    assert!(device_bytes > 0, "{devices:?}");

    // An unknown axis is a 400.
    let (status, _) = client::request_text(addr, "GET", "/profile/top?by=pool", "").unwrap();
    assert_eq!(status, 400);

    // Folded profile over the launch window: ≥95 % of the wall time inside
    // http.request is attributed to named children (session.launch,
    // job.kernel, kernel.execute, ...), and the kernel.execute frame is
    // present with nonzero self time.
    let (status, folded) = client::request_text(
        addr,
        "GET",
        &format!("/profile?format=folded&since={t1}&until={t2}"),
        "",
    )
    .unwrap();
    assert_eq!(status, 200, "{folded}");
    let mut http_self = 0u64;
    let mut http_children_self = 0u64;
    let mut kernel_execute_self = 0u64;
    for line in folded.lines() {
        let (path, value) = line.rsplit_once(' ').expect("folded line shape");
        let value: u64 = value.parse().expect("folded self nanos");
        if path == "http.request" {
            http_self += value;
        } else if path.starts_with("http.request;") {
            http_children_self += value;
        }
        if path.ends_with(";kernel.execute") {
            kernel_execute_self += value;
        }
    }
    let http_total = http_self + http_children_self;
    assert!(http_total > 0, "no http.request frames in:\n{folded}");
    assert!(
        http_children_self as f64 >= 0.95 * http_total as f64,
        "named children carry {http_children_self} of {http_total} http.request nanos:\n{folded}"
    );
    assert!(
        kernel_execute_self > 0,
        "kernel.execute frame missing or empty:\n{folded}"
    );

    // The JSON view's per-device utilization partitions the window exactly.
    let (status, prof) = request(addr, "GET", &format!("/profile?since={t1}&until={t2}"), "");
    assert_eq!(status, 200, "{prof:?}");
    let Some(Value::Arr(util)) = prof.get("utilization") else {
        panic!("no utilization in {prof:?}");
    };
    assert!(!util.is_empty(), "device lanes must report utilization");
    for d in util {
        let window = as_u64(d.get("window_nanos"));
        assert_eq!(
            as_u64(d.get("busy_nanos")) + as_u64(d.get("idle_nanos")),
            window,
            "{d:?}"
        );
        let sum = as_f64(d.get("busy_fraction")) + as_f64(d.get("idle_fraction"));
        assert!(sum <= 1.0 + 1e-9, "fractions sum to {sum}: {d:?}");
    }

    // The SVG flamegraph is self-contained.
    let (status, svg) = client::request_text(addr, "GET", "/profile?format=svg", "").unwrap();
    assert_eq!(status, 200);
    assert!(svg.starts_with("<svg"), "{}", &svg[..svg.len().min(120)]);

    // The trailing-window shorthand continuous pollers use: everything so
    // far fits in the last 60 s, so it sees the same kernel frames; mixing
    // it with explicit bounds is rejected.
    let (status, trailing) =
        client::request_text(addr, "GET", "/profile?format=folded&last=60000000000", "").unwrap();
    assert_eq!(status, 200);
    assert!(trailing.contains("kernel.execute"), "{trailing}");
    let (status, _) =
        client::request_text(addr, "GET", &format!("/profile?last=1&since={t1}"), "").unwrap();
    assert_eq!(status, 400);

    // The ftn_device_utilization gauges are refreshed by every /metrics
    // read: device 0's busy percent is in the exposition, labelled by its
    // pool.
    let (status, text) = client::request_text(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let busy = text
        .lines()
        .filter(|line| line.starts_with("ftn_device_utilization{pool=\""))
        .find_map(|line| line.split_once(",device=\"0\"} ").map(|(_, value)| value))
        .unwrap_or_else(|| panic!("no device 0 utilization gauge in:\n{text}"));
    let busy: i64 = busy.parse().expect("gauge value");
    assert!((0..=100).contains(&busy), "busy percent {busy}");

    // ftn top renders a frame from the same endpoints.
    let frame = ftn_serve::top::render_once(addr, 10).expect("top frame");
    assert!(frame.contains("TOP KERNEL"), "{frame}");
    assert!(frame.contains("saxpy_kernel0"), "{frame}");
    assert!(frame.contains("devices:"), "{frame}");

    // Close both sessions; their rows keep the ids the opens returned —
    // the pool recorded the jobs under the same ids.
    for sid in [saxpy_sid, sscal_sid] {
        let (status, _) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200);
    }
    let sessions = top_rows(addr, "session");
    let mut keys: Vec<&str> = (sessions.iter())
        .map(|row| api::get_opt_str(row, "key").unwrap())
        .collect();
    keys.sort_unstable();
    let mut opened = [saxpy_sid.to_string(), sscal_sid.to_string()];
    opened.sort_unstable();
    assert_eq!(keys, opened, "{sessions:?}");
    assert_eq!(
        row_field(&sessions, &saxpy_sid.to_string(), "sim_cycles"),
        saxpy_cycles
    );

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

//! The HTTP surface, end to end over real sockets: compile, sessions
//! (one-shard, sharded, heterogeneous), a fixed split, keep-alive, telemetry
//! endpoints and memory hygiene. Moved here verbatim from `src/lib.rs` when
//! that file was split along its two tables; the last test came with the
//! split.

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

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("expected unsigned number, got {other:?}"),
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
    crate::client::request(addr, method, path, body).expect("request round-trips")
}

#[test]
fn end_to_end_session_over_http() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 2,
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    // Compile twice: second is a cache hit.
    let body =
        serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.to_string()))])).unwrap();
    let (status, first) = request(addr, "POST", "/compile", &body);
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    let (_, second) = request(addr, "POST", "/compile", &body);
    assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
    let Some(Value::Str(key)) = first.get("key") else {
        panic!("no key in {first:?}");
    };

    // Open a session mapping x (to) and y (tofrom).
    let n = 32usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y = vec![1.0f32; n];
    let open = api::obj(vec![
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
    ]);
    let (status, opened) = request(
        addr,
        "POST",
        "/sessions",
        &serde_json::to_string(&open).unwrap(),
    );
    assert_eq!(status, 200, "{opened:?}");
    let sid = as_u64(opened.get("session"));
    // Opened without `shards`: a one-shard session. Replies carry the
    // one-device fields with the values the retired unsharded handlers
    // answered (`device`, `kernel_wall_seconds`: captured at that
    // commit) next to the general ones.
    assert_eq!(as_u64(opened.get("mapped")), 2);
    assert_eq!(as_u64(opened.get("device")), 0, "{opened:?}");
    assert_eq!(as_u64(opened.get("shards")), 1, "{opened:?}");
    assert_eq!(
        opened.get("devices"),
        Some(&Value::Arr(vec![Value::Int(0)]))
    );

    // Two launches; the second also finds everything resident.
    let launch = api::obj(vec![
        ("kernel", Value::Str("saxpy_kernel0".into())),
        (
            "args",
            Value::Arr(vec![
                api::obj(vec![("array", Value::Str("x".into()))]),
                api::obj(vec![("array", Value::Str("y".into()))]),
                api::obj(vec![("index", (n as i64).to_value())]),
                api::obj(vec![("index", (n as i64).to_value())]),
                api::obj(vec![("f32", Value::Float(2.0))]),
                api::obj(vec![("index", Value::Int(1))]),
                api::obj(vec![("index", (n as i64).to_value())]),
            ]),
        ),
    ]);
    let launch_body = serde_json::to_string(&launch).unwrap();
    for _ in 0..2 {
        let (status, resp) = request(
            addr,
            "POST",
            &format!("/sessions/{sid}/launch"),
            &launch_body,
        );
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(as_u64(resp.get("elided")), 2, "{resp:?}");
        assert_eq!(as_u64(resp.get("staged")), 0, "{resp:?}");
        assert_eq!(as_u64(resp.get("device")), 0, "{resp:?}");
        assert_eq!(as_u64(resp.get("shards")), 1, "{resp:?}");
        assert_eq!(as_u64(resp.get("cycles")), 1276, "{resp:?}");
        let wall = Some(&Value::Float(6.253333333333333e-6));
        assert_eq!(resp.get("kernel_wall_seconds"), wall, "{resp:?}");
        assert_eq!(resp.get("kernel_wall_seconds_max"), wall, "{resp:?}");
        let kernel = Some(&Value::Float(4.253333333333333e-6));
        assert_eq!(resp.get("kernel_seconds"), kernel, "{resp:?}");
    }
    // `extent` / `extent_offset` resolve to the full extent there: the
    // same launch spelled with extents (and `a = 0`, so y is untouched)
    // runs the same trip count, cycle for cycle.
    let by_extent = api::obj(vec![
        ("kernel", Value::Str("saxpy_kernel0".into())),
        (
            "args",
            Value::Arr(vec![
                api::obj(vec![("array", Value::Str("x".into()))]),
                api::obj(vec![("array", Value::Str("y".into()))]),
                api::obj(vec![("extent", Value::Str("x".into()))]),
                api::obj(vec![("extent", Value::Str("y".into()))]),
                api::obj(vec![("f32", Value::Float(0.0))]),
                api::obj(vec![("index", Value::Int(1))]),
                api::obj(vec![(
                    "extent_offset",
                    api::obj(vec![
                        ("array", Value::Str("x".into())),
                        ("offset", Value::Int(0)),
                    ]),
                )]),
            ]),
        ),
    ]);
    let (status, resp) = request(
        addr,
        "POST",
        &format!("/sessions/{sid}/launch"),
        &serde_json::to_string(&by_extent).unwrap(),
    );
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(as_u64(resp.get("cycles")), 1276, "full-extent trip count");

    let (status, info) = request(addr, "GET", &format!("/sessions/{sid}"), "");
    assert_eq!(status, 200, "{info:?}");
    assert_eq!(as_u64(info.get("device")), 0, "{info:?}");
    assert_eq!(as_u64(info.get("shards")), 1, "{info:?}");
    assert_eq!(
        info.get("shard_rows"),
        Some(&Value::Arr(vec![Value::Int(n as i64)]))
    );
    let stats = info.get("stats").expect("stats");
    assert_eq!(as_u64(stats.get("launches")), 3);
    assert_eq!(as_u64(stats.get("staged_uploads")), 2);
    assert_eq!(as_u64(stats.get("staged_bytes")), 256);
    assert_eq!(as_u64(stats.get("elided_transfers")), 6);

    // Close: y comes back with both launches applied.
    let (status, closed) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
    assert_eq!(status, 200, "{closed:?}");
    assert_eq!(as_u64(closed.get("device")), 0, "{closed:?}");
    assert_eq!(as_u64(closed.get("shards")), 1, "{closed:?}");
    let stats = closed.get("stats").expect("stats");
    assert_eq!(as_u64(stats.get("fetched_downloads")), 1, "{closed:?}");
    let arrays = closed.get("arrays").expect("arrays");
    let Some(Value::Arr(ys)) = arrays.get("y") else {
        panic!("no y in {closed:?}");
    };
    assert_eq!(ys.len(), n);
    for (i, v) in ys.iter().enumerate() {
        let Value::Float(f) = v else { panic!("{v:?}") };
        assert_eq!(*f as f32, 1.0 + 2.0 * 2.0 * i as f32, "element {i}");
    }

    // Stats reflect the session traffic; then shut down cleanly.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(as_u64(stats.get("launches")), 3, "{stats:?}");
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

fn start_server(
    devices: usize,
    workers: usize,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices,
            workers,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn compile_key(addr: SocketAddr) -> String {
    compile(addr, SAXPY)
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

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn sharded_session_over_http_spans_the_pool() {
    let (addr, handle) = start_server(4, 2);
    let key = compile_key(addr);

    let n = 103usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let y = vec![1.0f32; n];
    let open = api::obj(vec![
        ("key", Value::Str(key.clone())),
        ("shards", Value::Int(4)),
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
    ]);
    let (status, opened) = request(
        addr,
        "POST",
        "/sessions",
        &serde_json::to_string(&open).unwrap(),
    );
    assert_eq!(status, 200, "{opened:?}");
    assert_eq!(as_u64(opened.get("shards")), 4, "{opened:?}");
    let Some(Value::Arr(devices)) = opened.get("devices") else {
        panic!("no devices in {opened:?}");
    };
    assert_eq!(devices.len(), 4);
    let sid = as_u64(opened.get("session"));

    // Extents rebase per shard: the same launch body works at any N.
    let launch = api::obj(vec![
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
    ]);
    let launch_body = serde_json::to_string(&launch).unwrap();
    for _ in 0..2 {
        let (status, resp) = request(
            addr,
            "POST",
            &format!("/sessions/{sid}/launch"),
            &launch_body,
        );
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(as_u64(resp.get("shards")), 4, "{resp:?}");
        assert_eq!(as_u64(resp.get("elided")), 8, "all shard buffers resident");
    }

    let (status, closed) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
    assert_eq!(status, 200, "{closed:?}");
    let Some(Value::Arr(ys)) = closed.get("arrays").and_then(|a| a.get("y")) else {
        panic!("no y in {closed:?}");
    };
    assert_eq!(ys.len(), n);
    for (i, v) in ys.iter().enumerate() {
        let Value::Float(f) = v else { panic!("{v:?}") };
        let expect = 1.0 + 2.0 * 2.0 * (i as f32 * 0.5);
        assert_eq!(*f as f32, expect, "element {i}");
    }
    shutdown(addr, handle);
}

/// A halo wider than the array opens exactly as a halo of every row does:
/// the open's shard pricing clamps it at the array's rows, as the plan
/// does, instead of overflowing — a 500 in debug builds, a wrapped price in
/// release.
#[test]
fn a_huge_halo_opens_as_a_halo_of_every_row() {
    let (addr, handle) = start_server(2, 2);
    let key = compile_key(addr);
    let n = 8usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let launch = r#"{"kernel": "saxpy_kernel0", "refresh_halos": true, "args": [
        {"array": "x"}, {"array": "y"}, {"extent": "x"}, {"extent": "y"},
        {"f32": 2.0}, {"index": 1}, {"extent": "x"}]}"#;
    let session = |halo: Value| -> String {
        let map = |name: &str, kind: &str, data: Value| {
            api::obj(vec![
                ("name", Value::Str(name.into())),
                ("kind", Value::Str(kind.into())),
                ("halo", halo.clone()),
                ("data", data),
            ])
        };
        let open = api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("shards", Value::Int(2)),
            (
                "maps",
                Value::Arr(vec![
                    map("x", "to", x.to_value()),
                    map("y", "tofrom", vec![1.0f32; n].to_value()),
                ]),
            ),
        ]);
        let body = serde_json::to_string(&open).unwrap();
        let (status, opened) = request(addr, "POST", "/sessions", &body);
        assert_eq!(status, 200, "halo {halo:?}: {opened:?}");
        let sid = as_u64(opened.get("session"));
        let path = format!("/sessions/{sid}/launch");
        let (status, launched) = request(addr, "POST", &path, launch);
        assert_eq!(status, 200, "halo {halo:?}: {launched:?}");
        let (status, closed) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200, "halo {halo:?}: {closed:?}");
        serde_json::to_string(closed.get("arrays").expect("arrays")).unwrap()
    };
    let every_row = session(Value::Int(n as i64));
    for halo in [
        Value::Int(1 << 62),
        Value::Int(i64::MAX),
        Value::UInt(u64::MAX),
    ] {
        assert_eq!(session(halo.clone()), every_row, "halo {halo:?}");
    }
    shutdown(addr, handle);
}

#[test]
fn heterogeneous_pool_over_http_reports_models_and_weights_shards() {
    let (addr, handle) = start_server(2, 2);
    // Compile with an explicit mixed-device pool: a U280, a U55C, and a
    // half-clock U280 — the session's shard sizes must track speed.
    let body = serde_json::to_string(&api::obj(vec![
        ("source", Value::Str(SAXPY.to_string())),
        (
            "devices",
            Value::Arr(vec![
                Value::Str("u280".into()),
                Value::Str("u55c".into()),
                Value::Str("u280@150".into()),
            ]),
        ),
    ]))
    .unwrap();
    let (status, resp) = request(addr, "POST", "/compile", &body);
    assert_eq!(status, 200, "{resp:?}");
    let Some(Value::Arr(devices)) = resp.get("devices") else {
        panic!("no devices in {resp:?}");
    };
    assert_eq!(devices.len(), 3, "{resp:?}");
    let Some(Value::Str(key)) = resp.get("key") else {
        panic!("no key in {resp:?}");
    };
    let key = key.clone();

    // An unknown device name is rejected up front.
    let bad = serde_json::to_string(&api::obj(vec![
        ("source", Value::Str(SAXPY.to_string())),
        ("devices", Value::Arr(vec![Value::Str("u999".into())])),
    ]))
    .unwrap();
    let (status, _) = request(addr, "POST", "/compile", &bad);
    assert_eq!(status, 400);

    // A sharded session spans the mixed pool; the fastest card (u55c,
    // device 1) leads the shard order.
    let n = 120usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
    let y = vec![1.0f32; n];
    let open = api::obj(vec![
        ("key", Value::Str(key.clone())),
        ("shards", Value::Int(3)),
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
    ]);
    let (status, opened) = request(
        addr,
        "POST",
        "/sessions",
        &serde_json::to_string(&open).unwrap(),
    );
    assert_eq!(status, 200, "{opened:?}");
    let Some(Value::Arr(order)) = opened.get("devices") else {
        panic!("no devices in {opened:?}");
    };
    assert_eq!(as_u64(order.first()), 1, "u55c leads: {opened:?}");
    let sid = as_u64(opened.get("session"));

    let launch = api::obj(vec![
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
    ]);
    let (status, resp) = request(
        addr,
        "POST",
        &format!("/sessions/{sid}/launch"),
        &serde_json::to_string(&launch).unwrap(),
    );
    assert_eq!(status, 200, "{resp:?}");

    let (status, closed) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
    assert_eq!(status, 200, "{closed:?}");
    let Some(Value::Arr(ys)) = closed.get("arrays").and_then(|a| a.get("y")) else {
        panic!("no y in {closed:?}");
    };
    for (i, v) in ys.iter().enumerate() {
        let Value::Float(f) = v else { panic!("{v:?}") };
        assert_eq!(*f as f32, 1.0 + 2.0 * (i as f32 * 0.25), "element {i}");
    }

    // The pool now exists: re-POSTing the identical compile body (same
    // composition) stays idempotent, a *different* composition is
    // rejected.
    let (status, resp) = request(addr, "POST", "/compile", &body);
    assert_eq!(status, 200, "same devices re-POST is idempotent: {resp:?}");
    assert_eq!(resp.get("cached"), Some(&Value::Bool(true)));
    let conflicting = serde_json::to_string(&api::obj(vec![
        ("source", Value::Str(SAXPY.to_string())),
        ("devices", Value::Arr(vec![Value::Str("u250".into())])),
    ]))
    .unwrap();
    let (status, resp) = request(addr, "POST", "/compile", &conflicting);
    assert_eq!(status, 400, "conflicting devices rejected: {resp:?}");

    // /stats names every device model of the mixed pool.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let Some(Value::Arr(pools)) = stats.get("pools") else {
        panic!("no pools in {stats:?}");
    };
    let pool = pools.first().expect("one pool");
    let Some(Value::Arr(models)) = pool.get("models") else {
        panic!("no models in {stats:?}");
    };
    assert_eq!(models.len(), 3);
    assert!(
        models
            .iter()
            .any(|m| matches!(m, Value::Str(s) if s.contains("U55C"))),
        "{stats:?}"
    );
    shutdown(addr, handle);
}

/// A session keeps the split it opened with: `GET /sessions/{id}` reports
/// the open-time partition before and after launches, and no route moves
/// it (`POST /sessions/{id}/rebalance` is a 404). A session opened without
/// `shards` is a one-shard session, whose halo refresh is the no-op report.
#[test]
fn a_session_keeps_its_open_time_split() {
    let (addr, handle) = start_server(4, 2);
    let key = compile_key(addr);
    let n = 103usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let open = |shards: Option<i64>| {
        let mut fields = vec![
            ("key", Value::Str(key.clone())),
            (
                "maps",
                Value::Arr(vec![api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("tofrom".into())),
                    ("data", x.to_value()),
                ])]),
            ),
        ];
        fields.extend(shards.map(|n| ("shards", Value::Int(n))));
        let body = serde_json::to_string(&api::obj(fields)).unwrap();
        let (status, opened) = request(addr, "POST", "/sessions", &body);
        assert_eq!(status, 200, "{opened:?}");
        as_u64(opened.get("session"))
    };
    let shard_rows = |sid: u64| {
        let (status, info) = request(addr, "GET", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200, "{info:?}");
        let Some(Value::Arr(rows)) = info.get("shard_rows") else {
            panic!("no shard_rows in {info:?}");
        };
        rows.iter().map(|r| as_u64(Some(r))).collect::<Vec<u64>>()
    };

    let sid = open(Some(4));
    assert_eq!(shard_rows(sid), vec![26, 26, 26, 25]);
    let launch = r#"{"kernel": "saxpy_kernel0", "args": [{"array": "x"}, {"array": "x"},
        {"extent": "x"}, {"extent": "x"}, {"f32": 1.0}, {"index": 1}, {"extent": "x"}]}"#;
    for _ in 0..3 {
        let (status, resp) = request(addr, "POST", &format!("/sessions/{sid}/launch"), launch);
        assert_eq!(status, 200, "{resp:?}");
    }
    assert_eq!(shard_rows(sid), vec![26, 26, 26, 25]);
    let (status, resp) = request(addr, "POST", &format!("/sessions/{sid}/rebalance"), "");
    assert_eq!(status, 404, "{resp:?}");
    let error = api::get_opt_str(&resp, "error").unwrap_or_default();
    assert!(error.starts_with("no route"), "{resp:?}");

    let plain_sid = open(None);
    assert_eq!(shard_rows(plain_sid), vec![n as u64]);
    let (status, resp) = request(addr, "POST", &format!("/sessions/{plain_sid}/refresh"), "");
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(as_u64(resp.get("session")), plain_sid);
    assert_eq!(resp.get("refreshed"), Some(&Value::Bool(false)));
    assert_eq!(as_u64(resp.get("halo_rows")), 0);

    for sid in [sid, plain_sid] {
        let (status, _) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200);
    }
    shutdown(addr, handle);
}

#[test]
fn keep_alive_reuses_one_connection_for_a_burst() {
    let (addr, handle) = start_server(1, 2);
    let mut conn = crate::client::Conn::open(addr).expect("connect");
    for _ in 0..5 {
        let (status, resp) = conn
            .request("GET", "/healthz", "")
            .expect("keep-alive request");
        assert_eq!(status, 200, "{resp:?}");
    }
    let (status, stats) = conn.request("GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    let http = stats.get("http").expect("http stats");
    assert_eq!(as_u64(http.get("requests")), 6, "{stats:?}");
    assert_eq!(
        as_u64(http.get("connections")),
        1,
        "one connection served all requests"
    );
    drop(conn);
    shutdown(addr, handle);
}

#[test]
fn metrics_and_trace_endpoints_expose_observability() {
    let (addr, handle) = start_server(2, 2);
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // /metrics is a Prometheus text exposition carrying the HTTP
    // counters and the request-latency histogram series.
    let (status, text) = crate::client::request_text(addr, "GET", "/metrics", "").expect("get");
    assert_eq!(status, 200);
    assert!(
        text.contains("# TYPE ftn_http_requests_total counter"),
        "{text}"
    );
    assert!(text.contains("ftn_http_request_seconds_count"), "{text}");
    assert!(text.contains("ftn_uptime_seconds"), "{text}");
    // The grammar the Content-Type names (text format 0.0.4): every sample
    // line is exactly `series value`, and a comment is `# TYPE` or `# HELP`.
    let content_type = "text/plain; version=0.0.4";
    assert!(text.lines().count() > 5, "{text}");
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "not a {content_type} comment: {line}"
            );
            continue;
        }
        let sample = line.split_once(' ');
        assert!(
            sample.is_some_and(|(series, value)| !series.is_empty()
                && !series.contains(char::is_whitespace)
                && value.parse::<f64>().is_ok()),
            "not a {content_type} sample: {line}"
        );
    }

    // /trace serves a Chrome trace-event document (valid JSON with a
    // traceEvents array); bad or inverted windows are rejected.
    let (status, body) = crate::client::request_text(addr, "GET", "/trace", "").expect("get");
    assert_eq!(status, 200);
    let doc = serde_json::value_from_str(&body).expect("valid JSON");
    assert!(
        matches!(doc.get("traceEvents"), Some(Value::Arr(_))),
        "{body}"
    );
    let (status, _) =
        crate::client::request_text(addr, "GET", "/trace?since=bogus", "").expect("get");
    assert_eq!(status, 400);
    let (status, _) =
        crate::client::request_text(addr, "GET", "/trace?until=bogus", "").expect("get");
    assert_eq!(status, 400);
    let (status, _) =
        crate::client::request_text(addr, "GET", "/trace?since=5&until=2", "").expect("get");
    assert_eq!(status, 400);
    let (status, body) =
        crate::client::request_text(addr, "GET", "/trace?since=0&until=1", "").expect("get");
    assert_eq!(status, 200, "{body}");

    // The server keeps no metric history and evaluates no alerts: those are
    // the job of whatever scrapes /metrics.
    for path in ["/alerts", "/metrics/range"] {
        let (status, body) = request(addr, "GET", path, "");
        assert_eq!(status, 404, "{path}: {body:?}");
        let error = api::get_opt_str(&body, "error").unwrap_or_default();
        assert!(error.starts_with("no route"), "{path}: {body:?}");
    }

    // /healthz reports the readiness shape with the legacy `ok` field.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));
    assert!(
        matches!(health.get("status"), Some(Value::Str(s)) if s == "ok"),
        "{health:?}"
    );

    // /stats keeps its shape and now reports uptime + queue depths.
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert!(
        matches!(stats.get("uptime_seconds"), Some(Value::Float(f)) if *f >= 0.0),
        "{stats:?}"
    );
    shutdown(addr, handle);
}

#[test]
fn failed_requests_do_not_leak_pool_memory() {
    let (addr, handle) = start_server(2, 2);
    let key = compile_key(addr);
    let data: Vec<f32> = vec![1.0; 64];

    // /run whose later argument is invalid: the first array was already
    // allocated and must be released on the 400 path.
    let bad_run = serde_json::to_string(&api::obj(vec![
        ("key", Value::Str(key.clone())),
        ("func", Value::Str("saxpy".into())),
        (
            "args",
            Value::Arr(vec![
                api::obj(vec![("array_f32", data.to_value())]),
                api::obj(vec![("array", Value::Str("x".into()))]),
            ]),
        ),
    ]))
    .unwrap();
    // /sessions whose second map is invalid, and one whose kind/partition
    // combination the cluster rejects (replicated must be map(to:)).
    let bad_open = serde_json::to_string(&api::obj(vec![
        ("key", Value::Str(key.clone())),
        (
            "maps",
            Value::Arr(vec![
                api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", data.to_value()),
                ]),
                api::obj(vec![
                    ("name", Value::Str("y".into())),
                    ("kind", Value::Str("tofrom".into())),
                    ("partition", Value::Str("bogus".into())),
                    ("data", data.to_value()),
                ]),
            ]),
        ),
    ]))
    .unwrap();
    let bad_combo = serde_json::to_string(&api::obj(vec![
        ("key", Value::Str(key.clone())),
        ("shards", Value::Int(2)),
        (
            "maps",
            Value::Arr(vec![api::obj(vec![
                ("name", Value::Str("x".into())),
                ("kind", Value::Str("tofrom".into())),
                ("partition", Value::Str("replicated".into())),
                ("data", data.to_value()),
            ])]),
        ),
    ]))
    .unwrap();
    for body in [&bad_run, &bad_open, &bad_combo] {
        let path = if body == &bad_run {
            "/run"
        } else {
            "/sessions"
        };
        let (status, resp) = request(addr, "POST", path, body);
        assert_eq!(status, 400, "{resp:?}");
    }

    let (_, stats) = request(addr, "GET", "/stats", "");
    let Some(Value::Arr(pools)) = stats.get("pools") else {
        panic!("no pools in {stats:?}");
    };
    let ps = pools
        .first()
        .expect("one pool")
        .get("stats")
        .expect("stats");
    assert_eq!(
        as_u64(ps.get("host_buffers")),
        0,
        "failed requests must release everything they allocated: {stats:?}"
    );
    shutdown(addr, handle);
}

#[test]
fn sustained_run_traffic_keeps_pool_memory_flat() {
    let (addr, handle) = start_server(1, 2);
    let key = compile_key(addr);
    let n = 64usize;
    let x = vec![1.0f32; n];
    let y = vec![0.5f32; n];
    let run_body = serde_json::to_string(&api::obj(vec![
        ("key", Value::Str(key.clone())),
        ("func", Value::Str("saxpy".into())),
        (
            "args",
            Value::Arr(vec![
                api::obj(vec![("i32", Value::Int(n as i64))]),
                api::obj(vec![("f32", Value::Float(2.0))]),
                api::obj(vec![("array_f32", x.to_value())]),
                api::obj(vec![("array_f32", y.to_value())]),
            ]),
        ),
    ]))
    .unwrap();

    let host_buffers = |addr| {
        let (_, stats) = request(addr, "GET", "/stats", "");
        let Some(Value::Arr(pools)) = stats.get("pools") else {
            panic!("no pools in {stats:?}");
        };
        let pool = pools.first().expect("one pool");
        let ps = pool.get("stats").expect("pool stats");
        (as_u64(ps.get("host_buffers")), as_u64(ps.get("host_bytes")))
    };

    let mut conn = crate::client::Conn::open(addr).expect("connect");
    for _ in 0..5 {
        let (status, _) = conn.request("POST", "/run", &run_body).expect("run");
        assert_eq!(status, 200);
    }
    let settled = host_buffers(addr);
    assert_eq!(settled.0, 0, "request arrays are freed after /run");
    for _ in 0..20 {
        let (status, _) = conn.request("POST", "/run", &run_body).expect("run");
        assert_eq!(status, 200);
    }
    let after = host_buffers(addr);
    assert_eq!(
        settled, after,
        "pool host memory must stay flat under sustained /run traffic"
    );
    drop(conn);
    shutdown(addr, handle);
}

/// However many requests need a program's pool at once, the program gets
/// one pool.
#[test]
fn one_pool_per_program_under_a_race() {
    const CLIENTS: usize = 8;
    let (addr, handle) = start_server(2, CLIENTS);
    let key = compile_key(addr);

    // Eight first `POST /sessions` for the freshly compiled key, released
    // together: every one of them finds no pool and wants to build it.
    let open = format!(
        r#"{{"key": "{key}", "maps": [{{"name": "x", "kind": "to", "data": [1, 2, 3, 4]}}]}}"#
    );
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (open, barrier) = (open.clone(), barrier.clone());
            std::thread::spawn(move || {
                let mut conn = crate::client::Conn::open(addr).expect("connect");
                barrier.wait();
                conn.request("POST", "/sessions", &open).expect("open")
            })
        })
        .collect();
    for c in clients {
        let (status, opened) = c.join().expect("client thread");
        assert_eq!(status, 200, "{opened:?}");
    }

    let (_, stats) = request(addr, "GET", "/stats", "");
    let Some(Value::Arr(pools)) = stats.get("pools") else {
        panic!("no pools in {stats:?}");
    };
    let mine: Vec<&Value> = pools
        .iter()
        .filter(|p| api::get_opt_str(p, "key") == Some(key.as_str()))
        .collect();
    assert_eq!(mine.len(), 1, "exactly one pool for the key: {stats:?}");
    assert_eq!(as_u64(mine[0].get("open_sessions")), CLIENTS as u64);
    assert_eq!(as_u64(stats.get("sessions_open")), CLIENTS as u64);
    shutdown(addr, handle);
}

/// An integer its argument kind cannot hold is a 400 naming the kind — on
/// the scalar kinds, on `array_i32` elements (whichever decode reads them)
/// and on a session launch — never a wrapped value; integers written as
/// floats (`64.0`) stay accepted.
#[test]
fn out_of_range_integers_are_rejected_not_wrapped() {
    let (addr, handle) = start_server(1, 2);
    let key = compile_key(addr);
    let run = |args: &str| {
        let body = format!(r#"{{"key": "{key}", "func": "saxpy", "args": [{args}]}}"#);
        let (status, reply) = request(addr, "POST", "/run", &body);
        (status, reply.get("error").cloned())
    };
    let rejected = |msg: &str| (400, Some(Value::Str(msg.to_string())));
    for (arg, msg) in [
        (r#"{"i32": 4294967297}"#, "'i32' out of range"),
        (r#"{"i32": -2147483649}"#, "'i32' out of range"),
        (r#"{"i32": 1e300}"#, "'i32' out of range"),
        (r#"{"i32": 18446744073709551615}"#, "'i32' out of range"),
        (r#"{"i64": 9223372036854775808}"#, "'i64' out of range"),
        (r#"{"i64": -1e19}"#, "'i64' out of range"),
        (r#"{"index": 18446744073709551615}"#, "'index' out of range"),
        (
            r#"{"index": 9223372036854775808.0}"#,
            "'index' out of range",
        ),
        (
            r#"{"array_i32": [1, 4294967297]}"#,
            "'array_i32' element out of range",
        ),
        (
            r#"{"array_i32": [1, 2, 1e300]}"#,
            "'array_i32' element out of range",
        ),
        (r#"{"array_i32": ["x", 4294967297]}"#, "expected an integer"),
        (r#"{"array_i32": [1.5]}"#, "expected an integer"),
        (r#"{"i32": 1.5}"#, "expected an integer"),
    ] {
        assert_eq!(run(arg), rejected(msg), "{arg}");
        // The same argument behind valid ones: still the first error.
        let after = format!(r#"{{"f32": 2.0}}, {{"array_f32": [1, 2]}}, {arg}"#);
        assert_eq!(run(&after), rejected(msg), "{arg}");
    }
    // The largest and smallest values each kind holds parse; what the
    // program makes of a stray argument is its own (later) 400.
    for arg in [
        r#"{"i32": 2147483647}"#,
        r#"{"i32": -2147483648.0}"#,
        r#"{"i64": 9223372036854775807}"#,
        r#"{"i64": -9223372036854775808}"#,
        r#"{"array_i32": [2147483647, -2147483648, 2.0, -0.0]}"#,
    ] {
        let (status, error) = run(arg);
        let Some(Value::Str(msg)) = &error else {
            panic!("{arg}: {status} {error:?}");
        };
        assert!(!msg.contains("range") && !msg.contains("integer"), "{msg}");
    }
    let ok =
        r#"{"i32": 4.0}, {"f32": 2}, {"array_f32": [1, 2, 3, 4]}, {"array_f32": [1, 1, 1, 1]}"#;
    let body = format!(r#"{{"key": "{key}", "func": "saxpy", "args": [{ok}]}}"#);
    let (status, reply) = request(addr, "POST", "/run", &body);
    assert_eq!(status, 200, "{reply:?}");
    let Some(Value::Arr(arrays)) = reply.get("arrays") else {
        panic!("no arrays in {reply:?}");
    };
    assert_eq!(arrays[1], [3.0f32, 5.0, 7.0, 9.0].to_value());

    let open = format!(
        r#"{{"key": "{key}", "maps": [{{"name": "x", "kind": "tofrom", "data": [1, 2]}}]}}"#
    );
    let (status, opened) = request(addr, "POST", "/sessions", &open);
    assert_eq!(status, 200, "{opened:?}");
    let sid = as_u64(opened.get("session"));
    let launch = r#"{"kernel": "saxpy_kernel0", "args": [{"array": "x"}, {"index": 1e19}]}"#;
    let (status, reply) = request(addr, "POST", &format!("/sessions/{sid}/launch"), launch);
    let error = reply.get("error").cloned();
    assert_eq!((status, error), rejected("'index' out of range"));
    let offset = r#"{"kernel": "saxpy_kernel0", "args": [
        {"extent_offset": {"array": "x", "offset": 9223372036854775808}}]}"#;
    let (status, reply) = request(addr, "POST", &format!("/sessions/{sid}/launch"), offset);
    let error = reply.get("error").cloned();
    assert_eq!((status, error), rejected("'extent_offset' out of range"));
    shutdown(addr, handle);
}

/// A number arrives as the `f32` its text spells, rounded once: not through
/// `f64` first, where `7.038531e-26` lands exactly between two `f32`s and
/// `1152921573326323713` on 2^60 + 2^36. Both come back from `/run` in the
/// array the program copies them into (`y = x`), and the scalar `a`
/// arrives the same way; `x`, which the program only reads, comes back as
/// `null`.
#[test]
fn a_run_reads_each_number_as_the_f32_it_spells() {
    let (addr, handle) = start_server(1, 1);
    let key = compile_key(addr);
    let run = |args: &str| {
        let body = format!(r#"{{"key": "{key}", "func": "saxpy", "args": [{args}]}}"#);
        let (status, reply) = request(addr, "POST", "/run", &body);
        assert_eq!(status, 200, "{reply:?}");
        let Some(Value::Arr(arrays)) = reply.get("arrays") else {
            panic!("no arrays in {reply:?}");
        };
        assert_eq!(arrays[0], Value::Null, "x is never written");
        let bits = |array: &Value| match array {
            Value::Arr(items) => items
                .iter()
                .map(|v| match v {
                    Value::Float(f) => (*f as f32).to_bits(),
                    other => panic!("expected a float, got {other:?}"),
                })
                .collect::<Vec<_>>(),
            other => panic!("expected an array, got {other:?}"),
        };
        bits(&arrays[1])
    };
    let spelled = ["7.038531e-26", "1152921573326323713"];
    let want: Vec<u32> = spelled
        .iter()
        .map(|s| s.parse::<f32>().unwrap().to_bits())
        .collect();
    assert_eq!(want, [0x15ae_43fd, 0x5d80_0001]);
    let [x, y] = spelled;
    let arrays = run(&format!(
        r#"{{"i32": 2}}, {{"f32": 1}}, {{"array_f32": [{x}, {y}]}}, {{"array_f32": [0, 0]}}"#
    ));
    assert_eq!(arrays, want, "y = x");
    let arrays = run(&format!(
        r#"{{"i32": 1}}, {{"f32": {x}}}, {{"array_f32": [1]}}, {{"array_f32": [0]}}"#
    ));
    assert_eq!(arrays, [want[0]], "y = a");
    shutdown(addr, handle);
}

/// A `/run` reply carries an array only if the run wrote it: one the run
/// never wrote still holds the bytes the client sent and comes back as
/// `null`, in its place among the array arguments. A write counts whoever
/// makes it — the host program or a kernel — and whatever it stores, the
/// array's own bits included.
#[test]
fn a_run_returns_only_the_arrays_it_wrote() {
    const SGESL: &str = include_str!("../../../benchmarks/sgesl.f90");
    let (addr, handle) = start_server(1, 1);
    let run = |key: &str, func: &str, args: &str| {
        let body = format!(r#"{{"key": "{key}", "func": "{func}", "args": [{args}]}}"#);
        let (status, reply) = request(addr, "POST", "/run", &body);
        assert_eq!(status, 200, "{reply:?}");
        let Some(Value::Arr(arrays)) = reply.get("arrays") else {
            panic!("no arrays in {reply:?}");
        };
        arrays.clone()
    };
    let saxpy = compile_key(addr);
    // The kernel writes `y`; `x` (an `f32` array) is only read.
    let arrays = run(
        &saxpy,
        "saxpy",
        r#"{"i32": 3}, {"f32": 2}, {"array_f32": [1, 2, 3]}, {"array_f32": [1, 1, 1]}"#,
    );
    assert_eq!(arrays, [Value::Null, [3.0f32, 5.0, 7.0].to_value()]);
    // `a = 0` stores every `y` back with its own bits: still a write.
    let arrays = run(
        &saxpy,
        "saxpy",
        r#"{"i32": 3}, {"f32": 0}, {"array_f32": [1, 2, 3]}, {"array_f32": [0.5, 4, 8]}"#,
    );
    assert_eq!(arrays, [Value::Null, [0.5f32, 4.0, 8.0].to_value()]);

    let sgesl = compile(addr, SGESL);
    // n = 1 launches no kernel trip: the host's `b(1) / a(1,1)` is the
    // only write. `a` (`f32`) and `ipvt` (an `i32` array) are only read.
    let arrays = run(
        &sgesl,
        "sgesl",
        r#"{"array_f32": [2]}, {"i32": 1}, {"i32": 1}, {"array_i32": [1]}, {"array_f32": [3]}"#,
    );
    assert_eq!(arrays, [Value::Null, Value::Null, [1.5f32].to_value()]);
    // n = 2, ipvt(1) = 2: the host swaps `b` to [8, 4], and the kernels
    // and the host divide it by a = diag(2, 4).
    let arrays = run(
        &sgesl,
        "sgesl",
        r#"{"array_f32": [2, 0, 0, 4]}, {"i32": 2}, {"i32": 2}, {"array_i32": [2, 2]},
           {"array_f32": [4, 8]}"#,
    );
    assert_eq!(arrays, [Value::Null, Value::Null, [4.0f32, 1.0].to_value()]);
    shutdown(addr, handle);
}

//! A server that only ever sees sessionless `POST /run` traffic still
//! reports its device as busy: the host program runs on the HTTP worker's
//! thread under a `host.call` span naming its pool and device 0, so
//! `/profile`'s utilization has a row for that pool's device 0 with busy
//! time, and `/metrics` has its `ftn_device_utilization` gauge — although
//! no device worker ever records a span, and so no `ftn-device-N` lane
//! exists. Every pool numbers its devices from 0: a second program's pool,
//! with no traffic in the window, does not share that row.
//!
//! Its own integration-test binary (one process, one test): the span
//! recorder is process-global, and a test elsewhere that launches on a
//! session would register device lanes of its own.

use std::net::SocketAddr;

use ftn_serve::{api, client, ServeConfig, Server};
use serde::Value;

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

/// Compile `source`; the artifact key.
fn compile(addr: SocketAddr, source: &str) -> String {
    let body = serde_json::to_string(&api::obj(vec![("source", Value::Str(source.into()))]))
        .expect("serializes");
    let (status, compiled) = request(addr, "POST", "/compile", &body);
    assert_eq!(status, 200, "{compiled:?}");
    let Some(Value::Str(key)) = compiled.get("key") else {
        panic!("no key in {compiled:?}");
    };
    key.clone()
}

#[test]
fn run_only_traffic_reports_its_device_busy() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 1,
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    // Two programs, so two pools, each with a device 0.
    let key = compile(addr, SAXPY);
    let other = compile(addr, &SAXPY.replace("saxpy", "saxpy_b"));
    let n = 4096;
    let ones = format!("[{}]", vec!["1"; n].join(", "));
    let run = |key: &str, func: &str| {
        format!(
            r#"{{"key": "{key}", "func": "{func}", "args": [{{"i32": {n}}}, {{"f32": 2}},
                {{"array_f32": {ones}}}, {{"array_f32": {ones}}}]}}"#
        )
    };
    // The other pool is built and has run, but not inside the window.
    let (status, reply) = request(addr, "POST", "/run", &run(&other, "saxpy_b"));
    assert_eq!(status, 200, "{reply:?}");

    let run = run(&key, "saxpy");
    let t1 = ftn_trace::now_nanos();
    for _ in 0..8 {
        let (status, reply) = request(addr, "POST", "/run", &run);
        assert_eq!(status, 200, "{reply:?}");
    }
    let t2 = ftn_trace::now_nanos();

    let (status, prof) = request(addr, "GET", &format!("/profile?since={t1}&until={t2}"), "");
    assert_eq!(status, 200, "{prof:?}");
    let Some(Value::Arr(util)) = prof.get("utilization") else {
        panic!("no utilization in {prof:?}");
    };
    // A pool is named by its key's first 8 characters, as in its other
    // gauges.
    let (pool, other_pool) = (&key[..8], &other[..8]);
    let in_pool = |d: &&Value, pool: &str| api::get_opt_str(d, "pool") == Some(pool);
    let device0 = (util.iter())
        .find(|d| in_pool(d, pool) && as_u64(d.get("device")) == 0)
        .unwrap_or_else(|| panic!("no device 0 of pool {pool} in {util:?}"));
    assert!(as_u64(device0.get("busy_nanos")) > 0, "{device0:?}");
    assert_eq!(
        as_u64(device0.get("busy_nanos")) + as_u64(device0.get("idle_nanos")),
        as_u64(device0.get("window_nanos")),
        "{device0:?}"
    );
    for d in util.iter().filter(|d| in_pool(d, other_pool)) {
        assert_eq!(
            as_u64(d.get("busy_nanos")),
            0,
            "no traffic in the window: {d:?}"
        );
    }

    // Each pool's device 0 has a gauge of its own. The gauges' trailing
    // window ends now: one more run puts busy time in it.
    let (status, _) = request(addr, "POST", "/run", &run);
    assert_eq!(status, 200);
    let (status, text) = client::request_text(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    for pool in [pool, other_pool] {
        let gauge = format!("ftn_device_utilization{{pool=\"{pool}\",device=\"0\"}} ");
        assert!(
            text.lines().any(|line| line.starts_with(&gauge)),
            "no utilization gauge for device 0 of pool {pool} in:\n{text}"
        );
    }

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

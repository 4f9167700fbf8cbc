//! A server that only ever sees sessionless `POST /run` traffic still
//! reports its device as busy: the host program runs on the HTTP worker's
//! thread under a `host.call` span naming device 0, so `/profile`'s
//! utilization has a row for device 0 with busy time, and `/metrics` has
//! its `ftn_device_utilization` gauge — although no device worker ever
//! records a span, and so no `ftn-device-N` lane exists.
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

    let body = serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.into()))]))
        .expect("serializes");
    let (status, compiled) = request(addr, "POST", "/compile", &body);
    assert_eq!(status, 200, "{compiled:?}");
    let Some(Value::Str(key)) = compiled.get("key") else {
        panic!("no key in {compiled:?}");
    };

    let n = 4096;
    let ones = format!("[{}]", vec!["1"; n].join(", "));
    let run = format!(
        r#"{{"key": "{key}", "func": "saxpy", "args": [{{"i32": {n}}}, {{"f32": 2}},
            {{"array_f32": {ones}}}, {{"array_f32": {ones}}}]}}"#
    );
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
    let device0 = util
        .iter()
        .find(|d| as_u64(d.get("device")) == 0)
        .unwrap_or_else(|| panic!("no device 0 in {util:?}"));
    assert!(as_u64(device0.get("busy_nanos")) > 0, "{device0:?}");
    assert_eq!(
        as_u64(device0.get("busy_nanos")) + as_u64(device0.get("idle_nanos")),
        as_u64(device0.get("window_nanos")),
        "{device0:?}"
    );

    // The gauge's trailing window ends now: one more run puts busy time in
    // it.
    let (status, _) = request(addr, "POST", "/run", &run);
    assert_eq!(status, 200);
    let (status, text) = client::request_text(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    assert!(
        text.lines()
            .any(|line| line.starts_with("ftn_device_utilization{device=\"0\"} ")),
        "no device 0 utilization gauge in:\n{text}"
    );

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

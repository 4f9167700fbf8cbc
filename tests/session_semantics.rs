//! Persistent `target data` sessions over the cluster, checked against the
//! single-device reference:
//!
//! * A scripted session (map → N kernel launches → writeback) is
//!   bit-identical — results AND `RunStats` totals — to the same program
//!   expressed as a `target data` region and run on `Machine`.
//! * Property: random interleavings of kernel launches across two sessions
//!   on a four-device pool preserve per-session buffer versioning — no
//!   stale writeback ever reaches host memory (extends PR 1's
//!   monotone-writeback test to the session layer).
//! * The same script over HTTP: the text of every 200 reply (compile, open,
//!   launch, info, close, `/run`) is byte-identical to a golden captured on
//!   the commit before the reply writer was made write-through (PR 16).
//! * A launch whose loop bounds arrive as `{"i32": …}` or `{"i64": …}` for
//!   the kernel's `index` parameters returns the same array bits as the
//!   all-`index` launch and as `Machine`: the interpreter takes kinds from
//!   the values it is handed, never from the IR's types (PR 17).

use std::sync::OnceLock;

use ftn_cluster::{ClusterMachine, MapKind};
use ftn_core::{Artifacts, Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use proptest::prelude::*;

/// SAXPY with a `target data` region spanning `reps` kernel launches — the
/// program-level equivalent of one serve session.
const SAXPYN: &str = r#"
subroutine saxpyn(n, reps, a, x, y)
  implicit none
  integer :: n, reps, i, k
  real :: a, x(n), y(n)
  !$omp target data map(to: x) map(tofrom: y)
  do k = 1, reps
    !$omp target parallel do simd simdlen(10)
    do i = 1, n
      y(i) = y(i) + a*x(i)
    end do
    !$omp end target parallel do simd
  end do
  !$omp end target data
end subroutine saxpyn
"#;

fn saxpyn_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        Compiler::default()
            .compile_source(SAXPYN)
            .expect("compiles")
    })
}

/// `saxpyn_kernel0(x, y, n, n, a, 1, n)` — the signature the pipeline
/// generates for the target region above.
fn kernel_args(x: &RtValue, y: &RtValue, n: usize, a: f32) -> Vec<RtValue> {
    vec![
        x.clone(),
        y.clone(),
        RtValue::Index(n as i64),
        RtValue::Index(n as i64),
        RtValue::F32(a),
        RtValue::Index(1),
        RtValue::Index(n as i64),
    ]
}

/// The scripted session must reproduce the `target data` program run on a
/// single-device `Machine` exactly: same bytes in `y`, same `RunStats`
/// totals (3 transfers — x in, y in, y out — and `reps` launches with
/// identical cycle logs). Against the same launches run sessionless it
/// elides at least half the host↔device transfers.
#[test]
fn session_is_bit_identical_to_target_data_program_on_machine() {
    let artifacts = saxpyn_artifacts();
    let n = 1003usize;
    let reps = 8usize;
    let a = 1.75f32;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.21).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.08).cos()).collect();

    // Reference: the whole program, one Machine run.
    let mut machine = Machine::load(artifacts, DeviceModel::u280()).unwrap();
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y);
    let report = machine
        .run(
            "saxpyn",
            &[
                RtValue::I32(n as i32),
                RtValue::I32(reps as i32),
                RtValue::F32(a),
                xa,
                ya.clone(),
            ],
        )
        .unwrap();
    let y_machine = machine.read_f32(&ya);
    assert_eq!(report.stats.transfers, 3, "x in, y in, y out");
    assert_eq!(report.stats.launches, reps as u64);

    // Scripted session on a single-device pool.
    let mut cluster = ClusterMachine::load(artifacts, &[DeviceModel::u280()]).unwrap();
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sid = cluster
        .open_session(&[
            ("x", xa.clone(), MapKind::To),
            ("y", ya.clone(), MapKind::ToFrom),
        ])
        .unwrap();
    for _ in 0..reps {
        let ticket = cluster
            .session_launch(sid, "saxpyn_kernel0", &kernel_args(&xa, &ya, n, a))
            .unwrap();
        cluster.wait(ticket.handle).unwrap();
    }
    cluster.close_session(sid).unwrap();
    let y_session = cluster.read_f32(&ya);

    assert_eq!(y_machine.len(), y_session.len());
    for (i, (m, s)) in y_machine.iter().zip(&y_session).enumerate() {
        assert_eq!(m.to_bits(), s.to_bits(), "element {i}: {m} vs {s}");
    }
    let totals = cluster.pool_stats().totals;
    assert_eq!(
        totals, report.stats,
        "session RunStats totals must equal the Machine program run"
    );

    // What the session is for: the same launches as sessionless whole-program
    // runs re-stage x and y and fetch y every time (3 transfers each), so
    // the session elides at least half of that traffic (7/8 of it here).
    let mut sessionless = ClusterMachine::load(artifacts, &[DeviceModel::u280()]).unwrap();
    let xa = sessionless.host_f32(&x);
    let ya = sessionless.host_f32(&y);
    let one_rep = [
        RtValue::I32(n as i32),
        RtValue::I32(1),
        RtValue::F32(a),
        xa,
        ya.clone(),
    ];
    for _ in 0..reps {
        sessionless.run("saxpyn", &one_rep).unwrap();
    }
    assert_eq!(sessionless.read_f32(&ya), y_session);
    let baseline = sessionless.pool_stats().totals;
    assert_eq!(baseline.launches, totals.launches, "same launches");
    let elision = 1.0 - totals.transfers as f64 / baseline.transfers as f64;
    assert!(
        elision >= 0.5,
        "session moved {} transfers against {} sessionless: {elision:.3} elided, floor 0.5",
        totals.transfers,
        baseline.transfers
    );
}

/// One scripted session and one sessionless run over HTTP, with values that
/// stress the number printer (widened f32 that need 9+ digits, a subnormal,
/// negative zero, integers that print with `.0`, magnitudes past 1e21 once
/// accumulated). Every reply is a 200; their bodies, in order, must equal
/// `tests/golden/wire_replies.txt`, captured on the parent commit (the
/// `/run` reply's `x` has read `null` since `/run` returns only the
/// arrays a run wrote).
#[test]
fn http_reply_text_is_byte_identical_to_the_parent_commit() {
    use ftn_serve::client::Conn;
    use ftn_serve::{ServeConfig, Server};

    let config = ServeConfig {
        devices: 1,
        workers: 1,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut conn = Conn::open(addr).expect("connect");
    let mut transcript = String::new();
    let mut call = |method: &str, path: &str, body: &str| {
        let (status, text) = conn.request_text(method, path, body).expect("round trip");
        assert_eq!(status, 200, "{method} {path}: {text}");
        transcript.push_str(&format!("{method} {path}\n{text}\n"));
        text
    };

    let source = serde_json::to_string(&SAXPYN.to_string()).unwrap();
    let compiled = call("POST", "/compile", &format!("{{\"source\": {source}}}"));
    let key = compiled.split('"').nth(3).expect("key is the first field");
    let x = "[0.1,-0.0,1e-8,3e10,16777216,1e-45,0.333333343,2.5,-7,1e30,1.17549435e-38,65504.0]";
    let y = "[1,2,3,4,5,6,7,8,9,10,11,12]";
    let open = format!(
        "{{\"key\": \"{key}\", \"maps\": [\
         {{\"name\": \"x\", \"kind\": \"to\", \"data\": {x}}},\
         {{\"name\": \"y \\\"quoted\\\"\", \"kind\": \"tofrom\", \"data\": {y}}},\
         {{\"name\": \"z\", \"kind\": \"tofrom\", \"data\": [0.5]}}]}}"
    );
    call("POST", "/sessions", &open);
    let launch = r#"{"kernel": "saxpyn_kernel0", "args": [{"array": "x"},
        {"array": "y \"quoted\""}, {"index": 12}, {"index": 12}, {"f32": 1.75},
        {"index": 1}, {"index": 12}]}"#;
    for _ in 0..3 {
        call("POST", "/sessions/1/launch", launch);
    }
    call("GET", "/sessions/1", "");
    call("DELETE", "/sessions/1", "");
    let run = format!(
        "{{\"key\": \"{key}\", \"func\": \"saxpyn\", \"args\": [{{\"i32\": 12}}, \
         {{\"i32\": 2}}, {{\"f32\": 1e20}}, {{\"array_f32\": {x}}}, {{\"array_f32\": {y}}}]}}"
    );
    call("POST", "/run", &run);
    call("POST", "/shutdown", "");
    handle.join().expect("server thread").expect("clean run");

    let golden = include_str!("golden/wire_replies.txt");
    assert_eq!(
        transcript, golden,
        "reply text drifted from the parent commit"
    );
}

/// The client picks each scalar's kind (`ArgSpec`), so the `index` loop
/// bounds of `saxpyn_kernel0` may arrive as `i32` or `i64`. The fused
/// addressing and conversions downstream of them must still produce what
/// the all-`index` launch and the single-device `Machine` produce.
#[test]
fn launch_with_i32_or_i64_loop_bounds_matches_index_bounds_and_machine() {
    use ftn_serve::client::Conn;
    use ftn_serve::{ServeConfig, Server};

    // One unrolled trip-block of ten, then a seven-element epilogue.
    let n = 37usize;
    let a = 1.75f32;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();

    let mut machine = Machine::load(saxpyn_artifacts(), DeviceModel::u280()).unwrap();
    let (xa, ya) = (machine.host_f32(&x), machine.host_f32(&y));
    let args = [
        RtValue::I32(n as i32),
        RtValue::I32(1),
        RtValue::F32(a),
        xa,
        ya.clone(),
    ];
    machine.run("saxpyn", &args).unwrap();
    let expect: Vec<u32> = machine.read_f32(&ya).iter().map(|v| v.to_bits()).collect();

    let config = ServeConfig {
        devices: 1,
        workers: 1,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut conn = Conn::open(addr).expect("connect");
    let mut call = |method: &str, path: &str, body: &str| {
        let (status, text) = conn.request_text(method, path, body).expect("round trip");
        assert_eq!(status, 200, "{method} {path}: {text}");
        text
    };
    let source = serde_json::to_string(&SAXPYN.to_string()).unwrap();
    let compiled = call("POST", "/compile", &format!("{{\"source\": {source}}}"));
    let key = compiled.split('"').nth(3).expect("key is the first field");
    let list = |v: &[f32]| {
        let items: Vec<String> = v.iter().map(|f| format!("{:?}", *f as f64)).collect();
        format!("[{}]", items.join(","))
    };
    let mut replies = Vec::new();
    for (session, kind) in ["index", "i32", "i64"].iter().enumerate() {
        let open = format!(
            "{{\"key\": \"{key}\", \"maps\": [\
             {{\"name\": \"x\", \"kind\": \"to\", \"data\": {}}},\
             {{\"name\": \"y\", \"kind\": \"tofrom\", \"data\": {}}}]}}",
            list(&x),
            list(&y)
        );
        call("POST", "/sessions", &open);
        let path = format!("/sessions/{}", session + 1);
        let launch = format!(
            "{{\"kernel\": \"saxpyn_kernel0\", \"args\": [{{\"array\": \"x\"}}, \
             {{\"array\": \"y\"}}, {{\"index\": {n}}}, {{\"index\": {n}}}, {{\"f32\": {a}}}, \
             {{\"{kind}\": 1}}, {{\"{kind}\": {n}}}]}}"
        );
        call("POST", &format!("{path}/launch"), &launch);
        let closed = call("DELETE", &path, "");
        let arrays = closed
            .split("\"arrays\": ")
            .nth(1)
            .expect("close returns the tofrom arrays")
            .to_string();
        replies.push(arrays);
    }
    call("POST", "/shutdown", "");
    handle.join().expect("server thread").expect("clean run");

    assert_eq!(replies[0], replies[1], "i32 bounds");
    assert_eq!(replies[0], replies[2], "i64 bounds");
    let numbers = replies[0]
        .split('[')
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("one array");
    let got: Vec<u32> = numbers
        .split(',')
        .map(|v| (v.trim().parse::<f64>().expect("a number") as f32).to_bits())
        .collect();
    assert_eq!(got, expect, "session result vs Machine");
}

/// Deterministic shuffle of `0..len` from a seed (xorshift Fisher–Yates).
fn shuffled(len: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let j = (seed % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random launch interleavings across two sessions on four devices:
    /// every session's final arrays must match the f32 reference folded in
    /// that session's submission order, bit for bit. A stale writeback (an
    /// old device copy or the untouched host copy landing over newer data)
    /// or a cross-session mixup would break the equality.
    #[test]
    fn interleaved_session_launches_preserve_versioning(
        ops in proptest::collection::vec((0usize..2usize, 1u8..4u8), 1..20),
        wait_seed in 0u64..1_000,
    ) {
        let artifacts = saxpyn_artifacts();
        let n = 96usize;
        let devices = vec![DeviceModel::u280(); 4];
        let mut cluster = ClusterMachine::load(artifacts, &devices).unwrap();

        // Two independent sessions with distinct data.
        let mut arrays = Vec::new();
        let mut sids = Vec::new();
        let mut models = Vec::new();
        for s in 0..2usize {
            let x: Vec<f32> = (0..n).map(|i| (s * n + i) as f32 * 0.125).collect();
            let y: Vec<f32> = vec![s as f32 + 0.5; n];
            let xa = cluster.host_f32(&x);
            let ya = cluster.host_f32(&y);
            let sid = cluster
                .open_session(&[
                    ("x", xa.clone(), MapKind::To),
                    ("y", ya.clone(), MapKind::ToFrom),
                ])
                .unwrap();
            sids.push(sid);
            arrays.push((xa, ya));
            models.push((x, y));
        }

        // Submit every launch without waiting, interleaved across sessions,
        // and fold the same operations into the f32 reference model.
        let mut handles = Vec::new();
        for &(s, k) in &ops {
            let a = k as f32 * 0.5;
            let (xa, ya) = &arrays[s];
            let ticket = cluster
                .session_launch(sids[s], "saxpyn_kernel0", &kernel_args(xa, ya, n, a))
                .unwrap();
            handles.push(ticket.handle);
            let (x, y) = &mut models[s];
            for i in 0..n {
                y[i] += a * x[i];
            }
        }
        // Wait in a random order; completion order must not matter.
        let order = shuffled(handles.len(), wait_seed.wrapping_mul(2654435761).max(1));
        let mut handles: Vec<Option<_>> = handles.into_iter().map(Some).collect();
        for idx in order {
            let h = handles[idx].take().unwrap();
            cluster.wait(h).unwrap();
        }

        // Close in reverse open order and compare bit-exactly.
        for s in (0..2usize).rev() {
            cluster.close_session(sids[s]).unwrap();
            let got = cluster.read_f32(&arrays[s].1);
            let (_, expect) = &models[s];
            for i in 0..n {
                prop_assert_eq!(
                    got[i].to_bits(),
                    expect[i].to_bits(),
                    "session {} element {}: {} vs {}",
                    s, i, got[i], expect[i]
                );
            }
        }
    }
}

//! ftn-trace semantics across the real stack:
//!
//! * Span well-formedness under *concurrent* sharded launches: every
//!   recorded span has a unique id, resolvable parents share the trace id
//!   and start no later than their children (one process-wide clock
//!   epoch), same-lane children nest fully inside their parent's
//!   interval, and each client thread's trace id tags its own
//!   `session.launch` → `job.kernel` → `kernel.execute` chain and
//!   nobody else's. Cross-lane links are causal, not enclosing — a
//!   `session.launch` span closes at submit while its jobs still
//!   run on the device lanes — so only the start ordering is asserted
//!   there.
//! * A job its waiter runs (the only job of a one-shard launch on an idle
//!   device) nests under the wait's `session.wait` span on the waiter's
//!   own lane, instead of being recorded as a root.
//! * A golden structural test of the Chrome trace-event export: lane
//!   metadata, phase/field schema, id plumbing in `args`, and completion
//!   order on a named lane.
//! * The disabled recorder records nothing and stays within the no-op
//!   cost budget.
//! * End-to-end over HTTP: a sharded launch through `ftn-serve` shows up
//!   in `GET /trace` as device-lane job spans carrying the *request's*
//!   trace id, and `GET /metrics` exports the queue-wait histogram.
//!
//! The span recorder is process-global, so every test takes a shared lock
//! and resets recorder state while holding it (the same pattern the
//! crate's unit tests use).

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
use ftn_core::{Artifacts, Compiler};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use ftn_serve::{api, client, ServeConfig, Server};
use ftn_trace::SpanEvent;
use serde::{Serialize, Value};

fn lock_recorder() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GUARD.get_or_init(|| Mutex::new(()));
    // A panicking test must not wedge the rest of the suite.
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

fn artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| Compiler::default().compile_source(SAXPY).expect("compiles"))
}

fn shard_args(a: f32) -> Vec<ShardArg> {
    vec![
        ShardArg::Array("x".into()),
        ShardArg::Array("y".into()),
        ShardArg::Extent("x".into()),
        ShardArg::Extent("y".into()),
        ShardArg::Scalar(RtValue::F32(a)),
        ShardArg::Scalar(RtValue::Index(1)),
        ShardArg::Extent("x".into()),
    ]
}

/// Run `launches` sharded launches on a private 2-device pool under the
/// given trace scope and return the scope's trace id.
fn traced_sharded_run(launches: usize) -> u64 {
    let trace_id = ftn_trace::new_trace_id();
    let _scope = ftn_trace::trace_scope(trace_id);
    let n = 512usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let y = vec![1.0f32; n];
    let models = vec![DeviceModel::u280(); 2];
    let mut cluster = ClusterMachine::load(artifacts(), &models).expect("pool loads");
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
            ],
            ShardCount::Fixed(2),
        )
        .expect("session opens");
    for _ in 0..launches {
        let t = cluster
            .sharded_launch(sid, "saxpy_kernel0", &shard_args(2.0))
            .expect("launches");
        cluster.wait_sharded(t).expect("completes");
    }
    cluster.close_sharded_session(sid).expect("closes");
    trace_id
}

/// Flatten the snapshot to `(lane_index, event)` pairs.
fn all_events() -> Vec<(usize, SpanEvent)> {
    ftn_trace::snapshot(0)
        .into_iter()
        .flat_map(|lane| {
            let index = lane.lane;
            lane.events.into_iter().map(move |e| (index, e))
        })
        .collect()
}

#[test]
fn concurrent_sharded_launches_record_well_formed_spans() {
    let _g = lock_recorder();
    ftn_trace::set_capacity(1 << 16);
    ftn_trace::set_enabled(true);
    ftn_trace::clear();
    // Warm the compiler cache outside the measured scopes so its spans do
    // not dominate the buffers.
    let _ = artifacts();

    let clients = 3usize;
    let launches = 2usize;
    let trace_ids: Vec<u64> = (0..clients)
        .map(|_| std::thread::spawn(move || traced_sharded_run(launches)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect();

    let events = all_events();
    assert!(!events.is_empty());

    // Unique, non-zero span ids process-wide.
    let mut ids: Vec<u64> = events.iter().map(|(_, e)| e.span_id).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate span ids");
    assert!(ids.first() != Some(&0), "span id 0 recorded");

    // Every resolvable parent shares the child's trace id and started no
    // later than the child (lanes share one clock epoch). Same-lane
    // parents additionally contain the child's whole interval; cross-lane
    // links are causal only — the submitting span may close while the
    // child still runs on a device lane.
    let by_id: std::collections::HashMap<u64, (usize, &SpanEvent)> =
        events.iter().map(|(l, e)| (e.span_id, (*l, e))).collect();
    for (lane, e) in &events {
        if e.parent_id == 0 {
            continue;
        }
        let Some((parent_lane, parent)) = by_id.get(&e.parent_id) else {
            continue; // parent still open when this child completed
        };
        assert_eq!(
            parent.trace_id, e.trace_id,
            "{} under {}",
            e.name, parent.name
        );
        assert!(
            parent.start_nanos <= e.start_nanos,
            "{} starts before its parent {}",
            e.name,
            parent.name,
        );
        if parent_lane == lane {
            assert!(
                e.start_nanos + e.dur_nanos <= parent.start_nanos + parent.dur_nanos,
                "{} [{}+{}] escapes same-lane parent {} [{}+{}]",
                e.name,
                e.start_nanos,
                e.dur_nanos,
                parent.name,
                parent.start_nanos,
                parent.dur_nanos,
            );
        }
    }

    // Each client's trace id tags a full launch → job → execute chain, with
    // exactly `launches` fan-outs of 2 shards each, and no cross-talk.
    for &tid in &trace_ids {
        let mine: Vec<&SpanEvent> = events
            .iter()
            .filter(|(_, e)| e.trace_id == tid)
            .map(|(_, e)| e)
            .collect();
        let launches_seen = mine.iter().filter(|e| e.name == "session.launch").count();
        assert_eq!(launches_seen, launches, "trace {tid:#x}");
        let jobs: Vec<&&SpanEvent> = mine.iter().filter(|e| e.name == "job.kernel").collect();
        assert_eq!(jobs.len(), launches * 2, "trace {tid:#x}");
        for job in &jobs {
            let (_, parent) = by_id.get(&job.parent_id).expect("job parent recorded");
            assert_eq!(parent.name, "session.launch");
        }
        let executes = mine.iter().filter(|e| e.name == "kernel.execute").count();
        assert_eq!(executes, launches * 2, "trace {tid:#x}");
    }
    // Trace ids are distinct per client thread.
    let mut tids = trace_ids.clone();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), clients);
}

/// A one-shard launch on an idle one-device pool leaves its only job to the
/// thread that waits for it. That job runs inside the wait, so its span must
/// nest under the wait's `session.wait` span — same trace, same lane, inside
/// its interval — instead of being recorded as a root.
#[test]
fn a_job_its_waiter_runs_nests_under_session_wait() {
    let _g = lock_recorder();
    ftn_trace::set_capacity(4096);
    ftn_trace::set_enabled(true);
    ftn_trace::clear();
    let _ = artifacts();

    let trace_id = ftn_trace::new_trace_id();
    {
        let _scope = ftn_trace::trace_scope(trace_id);
        let n = 64usize;
        let mut cluster =
            ClusterMachine::load(artifacts(), &[DeviceModel::u280()]).expect("pool loads");
        let xa = cluster.host_f32(&vec![1.0f32; n]);
        let ya = cluster.host_f32(&vec![2.0f32; n]);
        let sid = cluster
            .open_sharded_session(
                &[
                    ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                    ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
                ],
                ShardCount::Fixed(1),
            )
            .expect("session opens");
        let t = cluster
            .sharded_launch(sid, "saxpy_kernel0", &shard_args(2.0))
            .expect("launches");
        cluster.wait_sharded(t).expect("completes");
        cluster.close_sharded_session(sid).expect("closes");
    }
    ftn_trace::set_enabled(false);

    let events = all_events();
    let jobs: Vec<&(usize, SpanEvent)> = (events.iter())
        .filter(|(_, e)| e.trace_id == trace_id && e.name == "job.kernel")
        .collect();
    let [(job_lane, job)] = jobs[..] else {
        panic!("{} job.kernel spans in the trace, not one", jobs.len());
    };
    assert_ne!(job.parent_id, 0, "the job is recorded as a root");
    let (wait_lane, wait) = (events.iter())
        .find(|(_, e)| e.span_id == job.parent_id)
        .expect("the job's parent is recorded");
    assert_eq!(wait.name, "session.wait");
    assert_eq!(wait.trace_id, trace_id);
    assert_eq!(
        job_lane, wait_lane,
        "the waiter runs its job on its own lane"
    );
    assert!(wait.start_nanos <= job.start_nanos);
    assert!(job.start_nanos + job.dur_nanos <= wait.start_nanos + wait.dur_nanos);
    ftn_trace::set_enabled(true);
}

/// Walk `value["traceEvents"]` as a list of objects.
fn trace_events(value: &Value) -> &[Value] {
    let Some(Value::Arr(events)) = value.get("traceEvents") else {
        panic!("no traceEvents in {value:?}");
    };
    events
}

fn str_field<'a>(event: &'a Value, key: &str) -> &'a str {
    match event.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: {other:?} in {event:?}"),
    }
}

fn uint_field(event: &Value, key: &str) -> u64 {
    match event.get(key) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("{key}: {other:?} in {event:?}"),
    }
}

#[test]
fn chrome_export_matches_golden_structure() {
    let _g = lock_recorder();
    ftn_trace::set_capacity(4096);
    ftn_trace::set_enabled(true);
    ftn_trace::clear();

    let trace_id = ftn_trace::new_trace_id();
    std::thread::Builder::new()
        .name("golden-lane".into())
        .spawn(move || {
            let _scope = ftn_trace::trace_scope(trace_id);
            let mut outer = ftn_trace::span("outer", "golden");
            outer.arg("k", "v");
            {
                let _inner = ftn_trace::span("inner", "golden");
            }
            ftn_trace::instant("mark", "golden", &[("n", "1".into())]);
        })
        .expect("spawns")
        .join()
        .expect("golden thread");

    let json = ftn_trace::export_chrome(0);
    let value = serde_json::value_from_str(&json).expect("valid JSON");
    let events = trace_events(&value);

    // The lane is announced by a thread_name metadata event; find its tid.
    let lane_tid = events
        .iter()
        .find_map(|e| {
            (str_field(e, "ph") == "M"
                && str_field(e, "name") == "thread_name"
                && e.get("args").and_then(|a| a.get("name"))
                    == Some(&Value::Str("golden-lane".into())))
            .then(|| uint_field(e, "tid"))
        })
        .expect("golden-lane metadata event");

    // Lane contents, in completion order: inner closes first, the instant
    // mark fires while outer is still open, and outer closes last.
    let lane: Vec<&Value> = events
        .iter()
        .filter(|e| str_field(e, "ph") != "M" && uint_field(e, "tid") == lane_tid)
        .collect();
    let names: Vec<&str> = lane.iter().map(|e| str_field(e, "name")).collect();
    assert_eq!(names, ["inner", "mark", "outer"]);

    for e in &lane {
        assert_eq!(uint_field(e, "pid"), 1);
        assert!(matches!(e.get("ts"), Some(Value::Float(ts)) if *ts >= 0.0));
        let args = e.get("args").expect("args object");
        assert_eq!(uint_field(args, "trace_id"), trace_id);
        assert_ne!(uint_field(args, "span_id"), 0);
    }
    let (inner, mark, outer) = (lane[0], lane[1], lane[2]);
    assert_eq!(str_field(inner, "ph"), "X");
    assert_eq!(str_field(outer, "ph"), "X");
    assert!(matches!(inner.get("dur"), Some(Value::Float(d)) if *d >= 0.0));
    // Parent linkage rides in args: both inner and the instant mark hang
    // off the still-open outer span.
    let outer_id = uint_field(outer.get("args").expect("args"), "span_id");
    assert_eq!(
        uint_field(inner.get("args").expect("args"), "parent_id"),
        outer_id,
    );
    assert_eq!(
        uint_field(mark.get("args").expect("args"), "parent_id"),
        outer_id,
    );
    assert_eq!(
        outer.get("args").and_then(|a| a.get("k")),
        Some(&Value::Str("v".into())),
    );
    // The instant event has no duration and a thread scope marker.
    assert_eq!(str_field(mark, "ph"), "i");
    assert_eq!(mark.get("dur"), None);
    assert_eq!(mark.get("s"), Some(&Value::Str("t".into())));
}

#[test]
fn disabled_recorder_records_nothing_and_stays_cheap() {
    let _g = lock_recorder();
    ftn_trace::set_enabled(false);
    ftn_trace::clear();

    let calls = 200_000u32;
    let t = Instant::now();
    for _ in 0..calls {
        let mut span = ftn_trace::span("noop", "guard");
        span.arg("ignored", 1);
    }
    let per_call_nanos = t.elapsed().as_secs_f64() * 1e9 / f64::from(calls);

    let recorded: usize = ftn_trace::snapshot(0).iter().map(|l| l.events.len()).sum();
    assert_eq!(recorded, 0, "disabled recorder captured events");
    // The real cost is a few nanoseconds (one atomic load); 1µs is a vast
    // margin that still catches an accidental allocation-per-call.
    assert!(
        per_call_nanos < 1_000.0,
        "disabled span costs {per_call_nanos:.0} ns/call"
    );
    ftn_trace::set_enabled(true);
}

#[test]
fn serve_trace_links_http_request_to_device_lanes() {
    let _g = lock_recorder();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 2,
            workers: 2,
            trace_buffer: 8192,
            ..Default::default()
        },
    )
    .expect("binds");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    ftn_trace::clear();

    let body = serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.to_string()))]))
        .expect("serializes");
    let (status, resp) = client::request(addr, "POST", "/compile", &body).expect("compile");
    assert_eq!(status, 200, "{resp:?}");
    let Some(Value::Str(key)) = resp.get("key") else {
        panic!("no key in {resp:?}");
    };

    let n = 256usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y = vec![0.5f32; n];
    let open = serde_json::to_string(&api::obj(vec![
        ("key", Value::Str(key.clone())),
        ("shards", Value::UInt(2)),
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
    .expect("serializes");
    let (status, opened) = client::request(addr, "POST", "/sessions", &open).expect("open");
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
                api::obj(vec![("f32", Value::Float(3.0))]),
                api::obj(vec![("index", Value::Int(1))]),
                api::obj(vec![("extent", Value::Str("x".into()))]),
            ]),
        ),
    ]))
    .expect("serializes");
    let path = format!("/sessions/{sid}/launch");
    let (status, resp) = client::request(addr, "POST", &path, &launch).expect("launch");
    assert_eq!(status, 200, "{resp:?}");

    // /metrics carries the queue-wait histogram fed by that launch's jobs.
    let (status, metrics) = client::request_text(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE ftn_pool_queue_wait_seconds histogram"));
    assert!(metrics.contains("ftn_pool_queue_wait_seconds_count"));
    assert!(metrics.contains("ftn_launches_total 1"));

    // /trace: the launch request's span and the device-lane job spans it
    // fanned out share one trace id.
    let (status, trace) = client::request_text(addr, "GET", "/trace", "").expect("trace");
    assert_eq!(status, 200);
    let value = serde_json::value_from_str(&trace).expect("valid JSON");
    let events = trace_events(&value);

    let device_tids: Vec<u64> = events
        .iter()
        .filter(|e| {
            str_field(e, "ph") == "M"
                && str_field(e, "name") == "thread_name"
                && matches!(
                    e.get("args").and_then(|a| a.get("name")),
                    Some(Value::Str(s)) if s.starts_with("ftn-device-")
                )
        })
        .map(|e| uint_field(e, "tid"))
        .collect();
    // Other tests in this binary may have registered device lanes of their
    // own pools (lanes persist process-wide); this server contributes two.
    assert!(device_tids.len() >= 2, "device lanes: {device_tids:?}");

    let launch_trace_id = events
        .iter()
        .find_map(|e| {
            (str_field(e, "ph") != "M"
                && str_field(e, "name") == "http.request"
                && e.get("args").and_then(|a| a.get("path")) == Some(&Value::Str(path.clone())))
            .then(|| uint_field(e.get("args").expect("args"), "trace_id"))
        })
        .expect("launch http.request span");
    assert_ne!(launch_trace_id, 0);

    let linked_job_tids: Vec<u64> = events
        .iter()
        .filter(|e| {
            str_field(e, "ph") != "M"
                && str_field(e, "name") == "job.kernel"
                && uint_field(e.get("args").expect("args"), "trace_id") == launch_trace_id
        })
        .map(|e| uint_field(e, "tid"))
        .collect();
    assert_eq!(
        linked_job_tids.len(),
        2,
        "one job span per shard: {linked_job_tids:?}"
    );
    for tid in &linked_job_tids {
        assert!(device_tids.contains(tid), "job span off device lanes");
    }
    assert_ne!(
        linked_job_tids[0], linked_job_tids[1],
        "shards ran on distinct device lanes"
    );

    let (status, _) = client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

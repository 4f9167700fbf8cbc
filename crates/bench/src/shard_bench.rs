//! Shard-path benchmark: aggregate launch throughput of sharded sessions
//! (one data environment spanning N devices) versus the single-device
//! session, plus the real-time cost of HTTP keep-alive versus
//! connection-per-request. Emitted as `BENCH_shard.json` by the
//! `bench_shard` binary.

use std::time::Instant;

use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
use ftn_core::Artifacts;
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use ftn_serve::client::Conn;
use ftn_serve::ServeConfig;
use serde::Serialize;

use crate::workloads;

/// One measured pool size.
#[derive(Clone, Debug, Serialize)]
pub struct ShardBenchPoint {
    pub devices: usize,
    pub shards: usize,
    /// Logical launches (each fans out into `shards` kernel jobs).
    pub launches: usize,
    pub shard_jobs: u64,
    /// Logical launches per simulated second.
    pub launches_per_sim_second: f64,
    pub makespan_sim_seconds: f64,
    /// Throughput versus the 1-device/1-shard point.
    pub speedup_vs_single_device: f64,
}

/// Keep-alive versus connection-per-request, measured wall-clock against an
/// in-process server (localhost TCP).
#[derive(Clone, Debug, Serialize)]
pub struct KeepAliveBench {
    pub requests: usize,
    pub keepalive_us_per_request: f64,
    pub close_us_per_request: f64,
    /// `close / keepalive` — how much latency the reused connection saves.
    pub speedup: f64,
}

/// The emitted report.
#[derive(Clone, Debug, Serialize)]
pub struct ShardBenchReport {
    pub workload: String,
    pub elements: usize,
    pub launches_per_point: usize,
    pub points: Vec<ShardBenchPoint>,
    pub keep_alive: KeepAliveBench,
}

fn shard_args(a: f32) -> Vec<ShardArg> {
    // saxpy_kernel0(x, y, n, n, a, 1, n) with per-shard extents.
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

fn measure_point(
    artifacts: &Artifacts,
    devices: usize,
    elements: usize,
    launches: usize,
) -> ShardBenchPoint {
    let x: Vec<f32> = (0..elements).map(|i| (i % 97) as f32 * 0.25).collect();
    let y: Vec<f32> = vec![1.0; elements];
    let models = vec![DeviceModel::u280(); devices];
    let mut pool = ClusterMachine::load(artifacts, &models).expect("pool loads");
    let xa = pool.host_f32(&x);
    let ya = pool.host_f32(&y);
    let sid = pool
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
            ],
            ShardCount::Fixed(devices),
        )
        .expect("session opens");
    let shards = pool.sharded_shards(sid).expect("open");
    // Submit everything before waiting so shard jobs overlap on the pool.
    let mut tickets = Vec::with_capacity(launches);
    for _ in 0..launches {
        tickets.push(
            pool.sharded_launch(sid, "saxpy_kernel0", &shard_args(2.0))
                .expect("launch"),
        );
    }
    let mut shard_jobs = 0u64;
    for t in tickets {
        shard_jobs += t.handles.len() as u64;
        pool.wait_sharded(t).expect("launch completes");
    }
    pool.close_sharded_session(sid).expect("close");
    let stats = pool.pool_stats();
    let makespan = stats.makespan_sim_seconds;
    ShardBenchPoint {
        devices,
        shards,
        launches,
        shard_jobs,
        launches_per_sim_second: launches as f64 / makespan,
        makespan_sim_seconds: makespan,
        speedup_vs_single_device: 0.0, // filled in by `run`
    }
}

fn measure_keep_alive(requests: usize) -> KeepAliveBench {
    let (addr, handle) = crate::driver::start_server(ServeConfig {
        devices: 1,
        workers: 2,
        ..Default::default()
    });

    // Warm both paths once so neither pays first-touch costs.
    let mut conn = Conn::open(addr).expect("connect");
    let _ = conn.request("GET", "/healthz", "").expect("warm");
    let _ = ftn_serve::client::request(addr, "GET", "/healthz", "").expect("warm");

    let start = Instant::now();
    for _ in 0..requests {
        let (status, _) = conn.request("GET", "/healthz", "").expect("keep-alive");
        assert_eq!(status, 200);
    }
    let keepalive_us = start.elapsed().as_secs_f64() * 1e6 / requests as f64;

    let start = Instant::now();
    for _ in 0..requests {
        let (status, _) =
            ftn_serve::client::request(addr, "GET", "/healthz", "").expect("one-shot");
        assert_eq!(status, 200);
    }
    let close_us = start.elapsed().as_secs_f64() * 1e6 / requests as f64;

    drop(conn);
    crate::driver::stop_server(addr, handle);

    KeepAliveBench {
        requests,
        keepalive_us_per_request: keepalive_us,
        close_us_per_request: close_us,
        speedup: close_us / keepalive_us,
    }
}

/// Run the benchmark at 1, 2 and 4 devices (shards = devices) plus the
/// keep-alive latency comparison.
pub fn run(elements: usize, launches: usize, keepalive_requests: usize) -> ShardBenchReport {
    let artifacts = workloads::compile_saxpy();
    let mut points: Vec<ShardBenchPoint> = [1usize, 2, 4]
        .iter()
        .map(|&devices| measure_point(&artifacts, devices, elements, launches))
        .collect();
    let base = points[0].launches_per_sim_second;
    for p in &mut points {
        p.speedup_vs_single_device = p.launches_per_sim_second / base;
    }
    ShardBenchReport {
        workload: "saxpy_kernel0 sharded sessions vs single-device session".to_string(),
        elements,
        launches_per_point: launches,
        points,
        keep_alive: measure_keep_alive(keepalive_requests),
    }
}

//! Iterative-stencil benchmark: a sharded Jacobi ping-pong loop kept alive
//! across launches by `refresh_halos` (boundary rows exchanged
//! device-to-device). Emitted as `BENCH_stencil.json` by the `bench_stencil`
//! binary.
//!
//! Wall-clock figures (per-exchange microseconds, whole-loop seconds) are
//! reported; what is *enforced* is deterministic: a refresh moves exactly
//! the boundary rows (`arrays × 2 directions × seams × halo × row bytes`),
//! costs at most one gather and one apply message per device, and the loop
//! is bit-identical at every device count. (The gather/re-scatter baseline
//! arm this bench once raced against is retired — see "Retired baselines"
//! in docs/BENCHMARKS.md.)

use std::time::Instant;

use ftn_cluster::{ClusterMachine, MapKind, Partition, SessionStats, ShardArg, ShardCount};
use ftn_core::Artifacts;
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use serde::Serialize;

use crate::workloads;

/// One measured device count (shards = devices).
#[derive(Clone, Debug, Serialize)]
pub struct StencilBenchPoint {
    pub devices: usize,
    pub shards: usize,
    /// Jacobi sweeps per timed loop (ping-pong launches).
    pub iters: usize,
    /// Inter-launch exchanges per loop (`iters - 1`).
    pub exchanges: usize,
    /// Best-of-trials wall-clock microseconds per `refresh_halos` call.
    pub refresh_us_per_exchange: f64,
    /// Whole-loop wall-clock seconds (launches included), best of trials.
    pub refresh_loop_seconds: f64,
    /// Bytes moved per `refresh_halos` call — boundary rows only.
    pub halo_bytes_per_refresh: u64,
    /// What the boundary-rows-only formula predicts for
    /// `halo_bytes_per_refresh`: `arrays × 2 directions × (shards − 1)
    /// seams × halo × row bytes`.
    pub expected_halo_bytes_per_refresh: u64,
    /// Worker messages the costliest refresh sent (gather + apply).
    pub messages_per_refresh: u64,
}

/// The emitted report.
#[derive(Clone, Debug, Serialize)]
pub struct StencilBenchReport {
    pub workload: String,
    pub elements: usize,
    pub iters: usize,
    pub trials: usize,
    pub halo: usize,
    pub points: Vec<StencilBenchPoint>,
}

/// `jacobi_kernel0(u, v, ext_u, ext_v, 2, n-1)` with per-shard extents and
/// the sweep's ping-pong role assignment.
fn jacobi_args(src: &str, dst: &str) -> Vec<ShardArg> {
    vec![
        ShardArg::Array(src.into()),
        ShardArg::Array(dst.into()),
        ShardArg::Extent(src.into()),
        ShardArg::Extent(dst.into()),
        ShardArg::Scalar(RtValue::Index(2)),
        ShardArg::ExtentOffset(src.into(), -1),
    ]
}

/// Ghost rows per seam side.
const HALO: usize = 1;

fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let u: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).sin() + 1.0).collect();
    let v: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).cos()).collect();
    (u, v)
}

/// One loop's measurement: final arrays, summed exchange seconds, whole-loop
/// seconds, the costliest refresh's message count and the session's halo
/// accounting.
struct LoopRun {
    u: Vec<f32>,
    v: Vec<f32>,
    exchange_seconds: f64,
    loop_seconds: f64,
    messages_per_refresh: u64,
    stats: SessionStats,
}

/// One sharded session held open for the whole loop, boundary rows
/// refreshed between launches.
fn run_loop(artifacts: &Artifacts, devices: usize, n: usize, iters: usize) -> LoopRun {
    let models = vec![DeviceModel::u280(); devices];
    let mut cluster = ClusterMachine::load(artifacts, &models).expect("pool loads");
    let (u0, v0) = inputs(n);
    let ua = cluster.host_f32(&u0);
    let va = cluster.host_f32(&v0);
    let start = Instant::now();
    let mut exchange = 0.0f64;
    let mut messages_per_refresh = 0u64;
    let split = Partition::Split { halo: HALO };
    let sid = cluster
        .open_sharded_session(
            &[
                ("u", ua.clone(), MapKind::ToFrom, split),
                ("v", va.clone(), MapKind::ToFrom, split),
            ],
            ShardCount::Fixed(devices),
        )
        .expect("session opens");
    for k in 0..iters {
        let (src, dst) = if k % 2 == 0 { ("u", "v") } else { ("v", "u") };
        let ticket = cluster
            .sharded_launch_no_replan(sid, "jacobi_kernel0", &jacobi_args(src, dst))
            .expect("launch");
        cluster.wait_sharded(ticket).expect("launch completes");
        if k + 1 < iters {
            let messages = cluster.pool_stats().batched_messages;
            let t = Instant::now();
            cluster.refresh_halos(sid).expect("halo refresh");
            exchange += t.elapsed().as_secs_f64();
            let messages = cluster.pool_stats().batched_messages - messages;
            messages_per_refresh = messages_per_refresh.max(messages);
        }
    }
    let stats = cluster.session_stats(sid).expect("session still open");
    cluster.close_sharded_session(sid).expect("close");
    let loop_seconds = start.elapsed().as_secs_f64();
    LoopRun {
        u: cluster.read_f32(&ua),
        v: cluster.read_f32(&va),
        exchange_seconds: exchange,
        loop_seconds,
        messages_per_refresh,
        stats,
    }
}

/// Measure one device count; `reference` is the single-device result every
/// other count must reproduce bit for bit.
fn measure_point(
    artifacts: &Artifacts,
    devices: usize,
    n: usize,
    iters: usize,
    trials: usize,
    reference: &mut Option<(Vec<f32>, Vec<f32>)>,
) -> StencilBenchPoint {
    let exchanges = iters - 1;
    // A single shard has no seams: the refresh is a no-op and is not
    // counted as a session refresh.
    let refreshes = if devices > 1 { exchanges as u64 } else { 0 };
    let mut exchange_best = f64::INFINITY;
    let mut loop_best = f64::INFINITY;
    let mut halo_bytes_per_refresh = 0u64;
    let mut messages_per_refresh = 0u64;
    for _ in 0..trials {
        let run = run_loop(artifacts, devices, n, iters);
        let (u, v) = reference.get_or_insert_with(|| (run.u.clone(), run.v.clone()));
        assert_eq!(
            (&run.u, &run.v),
            (&*u, &*v),
            "the {devices}-device loop must be bit-identical to the single-device one"
        );
        assert_eq!(
            run.stats.halo_refreshes, refreshes,
            "one refresh per interior sweep"
        );
        halo_bytes_per_refresh = run.stats.halo_bytes / refreshes.max(1);
        messages_per_refresh = messages_per_refresh.max(run.messages_per_refresh);
        exchange_best = exchange_best.min(run.exchange_seconds);
        loop_best = loop_best.min(run.loop_seconds);
    }
    StencilBenchPoint {
        devices,
        shards: devices,
        iters,
        exchanges,
        refresh_us_per_exchange: exchange_best * 1e6 / exchanges as f64,
        refresh_loop_seconds: loop_best,
        halo_bytes_per_refresh,
        // Both arrays, both directions, every interior seam, `HALO` f32
        // rows of one element each.
        expected_halo_bytes_per_refresh: 2 * 2 * (devices as u64 - 1) * HALO as u64 * 4,
        messages_per_refresh,
    }
}

/// Run the stencil benchmark at 1, 2 and 4 devices (shards = devices).
pub fn run(elements: usize, iters: usize, trials: usize) -> StencilBenchReport {
    let artifacts = workloads::compile_jacobi();
    let mut reference = None;
    let points = [1usize, 2, 4]
        .iter()
        .map(|&devices| measure_point(&artifacts, devices, elements, iters, trials, &mut reference))
        .collect();
    StencilBenchReport {
        workload: "jacobi_kernel0 halo-refresh loop".to_string(),
        elements,
        iters,
        trials,
        halo: HALO,
        points,
    }
}

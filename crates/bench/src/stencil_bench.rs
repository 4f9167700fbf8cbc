//! Iterative-stencil benchmark: a sharded Jacobi ping-pong loop kept alive
//! across launches by `refresh_halos` (boundary rows exchanged
//! device-to-device) versus the naive gather/re-scatter baseline that
//! closes and re-opens the sharded session between sweeps. Emitted as
//! `BENCH_stencil.json` by the `bench_stencil` binary.
//!
//! The two arms launch identical kernels — the interpreter's kernel cost is
//! the same on both sides — so the floored metric is the *inter-launch
//! exchange*: the wall-clock cost of making every shard's halos current
//! before the next sweep. The refresh arm pays `refresh_halos` (boundary
//! rows only); the baseline pays a full close + re-open (gather every shard
//! to the host, re-plan, re-scatter). End-to-end loop times are reported
//! alongside for scale, and both arms are asserted bit-identical.

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
    /// Best-of-trials wall-clock microseconds per baseline exchange (close
    /// the session — gathering every shard — then re-open it, re-plan and
    /// re-scatter).
    pub gather_rescatter_us_per_exchange: f64,
    /// `gather_rescatter_us_per_exchange / refresh_us_per_exchange` — the
    /// floored metric.
    pub exchange_speedup: f64,
    /// Whole-loop wall-clock seconds (launches included) for the
    /// halo-refresh arm, best of trials.
    pub refresh_loop_seconds: f64,
    /// Whole-loop wall-clock seconds (launches included) for the
    /// gather/re-scatter arm, best of trials.
    pub baseline_loop_seconds: f64,
    /// End-to-end `baseline / refresh` loop ratio — reported for scale, not
    /// floored: both arms launch the same kernels, and on the simulated
    /// pool the interpreted kernel dominates the loop.
    pub end_to_end_speedup: f64,
    /// Bytes moved per `refresh_halos` call — boundary rows only.
    pub halo_bytes_per_refresh: u64,
    /// Bytes a full gather + re-scatter of both arrays moves per exchange,
    /// for scale against `halo_bytes_per_refresh`.
    pub full_roundtrip_bytes_per_exchange: u64,
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

fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let u: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).sin() + 1.0).collect();
    let v: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).cos()).collect();
    (u, v)
}

/// One arm's measurement: final arrays, summed exchange seconds, whole-loop
/// seconds and (refresh arm only) the session's halo accounting.
struct ArmRun {
    u: Vec<f32>,
    v: Vec<f32>,
    exchange_seconds: f64,
    loop_seconds: f64,
    stats: Option<SessionStats>,
}

/// The halo-refresh arm: one sharded session held open for the whole loop,
/// boundary rows refreshed between launches.
fn run_refresh_arm(artifacts: &Artifacts, devices: usize, n: usize, iters: usize) -> ArmRun {
    let models = vec![DeviceModel::u280(); devices];
    let mut cluster = ClusterMachine::load(artifacts, &models).expect("pool loads");
    let (u0, v0) = inputs(n);
    let ua = cluster.host_f32(&u0);
    let va = cluster.host_f32(&v0);
    let start = Instant::now();
    let mut exchange = 0.0f64;
    let sid = cluster
        .open_sharded_session(
            &[
                (
                    "u",
                    ua.clone(),
                    MapKind::ToFrom,
                    Partition::Split { halo: 1 },
                ),
                (
                    "v",
                    va.clone(),
                    MapKind::ToFrom,
                    Partition::Split { halo: 1 },
                ),
            ],
            ShardCount::Fixed(devices),
        )
        .expect("session opens");
    let mut stats = None;
    for k in 0..iters {
        let (src, dst) = if k % 2 == 0 { ("u", "v") } else { ("v", "u") };
        let ticket = cluster
            .sharded_launch_no_replan(sid, "jacobi_kernel0", &jacobi_args(src, dst))
            .expect("launch");
        cluster.wait_sharded(ticket).expect("launch completes");
        if k + 1 < iters {
            let t = Instant::now();
            cluster.refresh_halos(sid).expect("halo refresh");
            exchange += t.elapsed().as_secs_f64();
        } else {
            stats = Some(
                cluster
                    .session_stats(sid)
                    .expect("session still open before close"),
            );
        }
    }
    cluster.close_sharded_session(sid).expect("close");
    let loop_seconds = start.elapsed().as_secs_f64();
    ArmRun {
        u: cluster.read_f32(&ua),
        v: cluster.read_f32(&va),
        exchange_seconds: exchange,
        loop_seconds,
        stats,
    }
}

/// The naive baseline: between sweeps the session is closed (gathering
/// every shard back to the host) and re-opened (re-planned, re-scattered)
/// so the next launch sees fresh halos the hard way.
fn run_baseline_arm(artifacts: &Artifacts, devices: usize, n: usize, iters: usize) -> ArmRun {
    let models = vec![DeviceModel::u280(); devices];
    let mut cluster = ClusterMachine::load(artifacts, &models).expect("pool loads");
    let (u0, v0) = inputs(n);
    let ua = cluster.host_f32(&u0);
    let va = cluster.host_f32(&v0);
    let maps = [
        (
            "u",
            ua.clone(),
            MapKind::ToFrom,
            Partition::Split { halo: 1 },
        ),
        (
            "v",
            va.clone(),
            MapKind::ToFrom,
            Partition::Split { halo: 1 },
        ),
    ];
    let start = Instant::now();
    let mut exchange = 0.0f64;
    let mut sid = cluster
        .open_sharded_session(&maps, ShardCount::Fixed(devices))
        .expect("session opens");
    for k in 0..iters {
        let (src, dst) = if k % 2 == 0 { ("u", "v") } else { ("v", "u") };
        let ticket = cluster
            .sharded_launch_no_replan(sid, "jacobi_kernel0", &jacobi_args(src, dst))
            .expect("launch");
        cluster.wait_sharded(ticket).expect("launch completes");
        if k + 1 < iters {
            let t = Instant::now();
            cluster.close_sharded_session(sid).expect("close");
            sid = cluster
                .open_sharded_session(&maps, ShardCount::Fixed(devices))
                .expect("session re-opens");
            exchange += t.elapsed().as_secs_f64();
        }
    }
    cluster.close_sharded_session(sid).expect("close");
    let loop_seconds = start.elapsed().as_secs_f64();
    ArmRun {
        u: cluster.read_f32(&ua),
        v: cluster.read_f32(&va),
        exchange_seconds: exchange,
        loop_seconds,
        stats: None,
    }
}

fn measure_point(
    artifacts: &Artifacts,
    devices: usize,
    n: usize,
    iters: usize,
    trials: usize,
) -> StencilBenchPoint {
    let exchanges = iters - 1;
    let mut refresh_exchange_best = f64::INFINITY;
    let mut baseline_exchange_best = f64::INFINITY;
    let mut refresh_loop_best = f64::INFINITY;
    let mut baseline_loop_best = f64::INFINITY;
    let mut halo_bytes_per_refresh = 0u64;
    for _ in 0..trials {
        let refresh = run_refresh_arm(artifacts, devices, n, iters);
        let baseline = run_baseline_arm(artifacts, devices, n, iters);
        assert_eq!(
            (&refresh.u, &refresh.v),
            (&baseline.u, &baseline.v),
            "halo-refresh and gather/re-scatter arms must be bit-identical"
        );
        let stats = refresh.stats.as_ref().expect("refresh arm records stats");
        // A single shard has no seams: the refresh is a no-op and is not
        // counted as a session refresh.
        let refreshes = if devices > 1 { exchanges as u64 } else { 0 };
        assert_eq!(
            stats.halo_refreshes, refreshes,
            "one refresh per interior sweep"
        );
        // Boundary rows only: per refresh each interior seam moves `halo`
        // rows in both directions for both split arrays (f32 rows of one
        // element) — never the full arrays.
        let seams = (devices - 1) as u64;
        let expected = 2 * 2 * seams * 4; // arrays * directions * seams * bytes/row
        assert_eq!(
            stats.halo_bytes,
            refreshes * expected,
            "halo traffic must be boundary-rows-only"
        );
        halo_bytes_per_refresh = expected;
        refresh_exchange_best = refresh_exchange_best.min(refresh.exchange_seconds);
        baseline_exchange_best = baseline_exchange_best.min(baseline.exchange_seconds);
        refresh_loop_best = refresh_loop_best.min(refresh.loop_seconds);
        baseline_loop_best = baseline_loop_best.min(baseline.loop_seconds);
    }
    StencilBenchPoint {
        devices,
        shards: devices,
        iters,
        exchanges,
        refresh_us_per_exchange: refresh_exchange_best * 1e6 / exchanges as f64,
        gather_rescatter_us_per_exchange: baseline_exchange_best * 1e6 / exchanges as f64,
        exchange_speedup: baseline_exchange_best / refresh_exchange_best,
        refresh_loop_seconds: refresh_loop_best,
        baseline_loop_seconds: baseline_loop_best,
        end_to_end_speedup: baseline_loop_best / refresh_loop_best,
        halo_bytes_per_refresh,
        // Both arrays gathered and re-scattered: 2 arrays * 2 directions.
        full_roundtrip_bytes_per_exchange: (2 * 2 * n * 4) as u64,
    }
}

/// Run the stencil benchmark at 1, 2 and 4 devices (shards = devices).
pub fn run(elements: usize, iters: usize, trials: usize) -> StencilBenchReport {
    let artifacts = workloads::compile_jacobi();
    let points = [1usize, 2, 4]
        .iter()
        .map(|&devices| measure_point(&artifacts, devices, elements, iters, trials))
        .collect();
    StencilBenchReport {
        workload: "jacobi_kernel0 halo-refresh loop vs gather/re-scatter baseline".to_string(),
        elements,
        iters,
        trials,
        halo: 1,
        points,
    }
}

//! Heterogeneous-pool benchmark: throughput-weighted versus uniform shard
//! plans on a mixed-speed pool, and the fan-out's submit cost and message
//! count. Emitted as `BENCH_hetero.json` by the `bench_hetero` binary.
//!
//! The pool is the ISSUE's acceptance configuration: four devices with one
//! 2×-slower card (three stock U280s plus a `u280@150`). A uniform split
//! makes the slow card the critical path of every launch; the weighted plan
//! gives it half a share, so the per-launch makespan drops by ~7/4 in the
//! ideal case. The binary enforces ≥ 1.25× aggregate launch throughput for
//! the weighted plan.

use std::time::Instant;

use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount, ShardOptions};
use ftn_core::Artifacts;
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use serde::Serialize;

use crate::workloads;

/// One measured plan flavour on the mixed pool.
#[derive(Clone, Debug, Serialize)]
pub struct HeteroPoint {
    /// `"weighted"` or `"uniform"`.
    pub plan: String,
    /// Owned rows per shard, in shard order.
    pub shard_rows: Vec<usize>,
    /// shard → device assignment.
    pub devices: Vec<usize>,
    /// Logical launches (each fans out into one job per shard).
    pub launches: usize,
    pub makespan_sim_seconds: f64,
    pub launches_per_sim_second: f64,
}

/// Submit-side cost of one logical launch (bookkeeping + messaging only —
/// the wait is excluded), measured on a wide fan-out (several shards per
/// device) where coalescing has real work. The structural metric is the
/// message count (O(devices), not O(shards)) and is enforced; the
/// wall-clock number is reported for reference. (The per-shard-send arm it
/// used to be compared against is retired — see "Retired baselines" in
/// docs/BENCHMARKS.md.)
#[derive(Clone, Debug, Serialize)]
pub struct SubmitBench {
    /// Shards per launch (a multiple of the pool size).
    pub shards: usize,
    pub launches: usize,
    pub batched_us_per_launch: f64,
    /// Worker messages one launch costs (== devices).
    pub batched_messages_per_launch: f64,
}

/// The emitted report.
#[derive(Clone, Debug, Serialize)]
pub struct HeteroBenchReport {
    pub workload: String,
    /// Device model names, in device-index order.
    pub pool: Vec<String>,
    pub elements: usize,
    pub launches_per_point: usize,
    pub weighted: HeteroPoint,
    pub uniform: HeteroPoint,
    /// Weighted over uniform aggregate launch throughput (≥ 1.25 enforced
    /// by the `bench_hetero` binary).
    pub weighted_speedup: f64,
    pub submit: SubmitBench,
}

/// The acceptance pool: four devices, one 2×-slower card.
fn mixed_pool() -> Vec<DeviceModel> {
    vec![
        DeviceModel::u280(),
        DeviceModel::u280(),
        DeviceModel::u280(),
        DeviceModel::named("u280@150").expect("clock override parses"),
    ]
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
    opts: ShardOptions,
    plan: &str,
    elements: usize,
    launches: usize,
) -> HeteroPoint {
    let x: Vec<f32> = (0..elements).map(|i| (i % 97) as f32 * 0.25).collect();
    let y: Vec<f32> = vec![1.0; elements];
    let models = mixed_pool();
    let mut pool = ClusterMachine::load(artifacts, &models).expect("pool loads");
    let xa = pool.host_f32(&x);
    let ya = pool.host_f32(&y);
    let sid = pool
        .open_sharded_session_with(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
            ],
            ShardCount::Fixed(models.len()),
            opts,
        )
        .expect("session opens");
    let shard_rows = pool.sharded_shard_rows(sid, "y").expect("open");
    let devices = pool.sharded_devices(sid).expect("open");
    // Throughput: submit everything before waiting so shard jobs overlap
    // across the pool.
    let mut tickets = Vec::with_capacity(launches);
    for _ in 0..launches {
        tickets.push(
            pool.sharded_launch(sid, "saxpy_kernel0", &shard_args(2.0))
                .expect("launch"),
        );
    }
    for t in tickets {
        pool.wait_sharded(t).expect("launch completes");
    }
    pool.close_sharded_session(sid).expect("close");
    let makespan = pool.pool_stats().makespan_sim_seconds;
    HeteroPoint {
        plan: plan.to_string(),
        shard_rows,
        devices,
        launches,
        makespan_sim_seconds: makespan,
        launches_per_sim_second: launches as f64 / makespan,
    }
}

/// Submit-side cost of a wide fan-out (`shards` jobs per launch on the
/// 4-device pool): time only the `sharded_launch` call — argument
/// rebasing, staging bookkeeping, worker messages — on a quiesced pool.
/// Waiting each launch out before the next keeps the workers from
/// competing with the submitting thread for CPU, which would otherwise
/// drown the messaging cost in scheduler noise. Returns
/// `(us_per_launch, batch_messages_sent)`.
fn measure_submit(
    artifacts: &Artifacts,
    elements: usize,
    launches: usize,
    shards: usize,
) -> (f64, u64) {
    let x: Vec<f32> = (0..elements).map(|i| (i % 97) as f32 * 0.25).collect();
    let y: Vec<f32> = vec![1.0; elements];
    let models = mixed_pool();
    let mut pool = ClusterMachine::load(artifacts, &models).expect("pool loads");
    let xa = pool.host_f32(&x);
    let ya = pool.host_f32(&y);
    let sid = pool
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
            ],
            ShardCount::Fixed(shards),
        )
        .expect("session opens");
    // Warm the path once (first launch pays allocator first-touch costs).
    let warm = pool
        .sharded_launch(sid, "saxpy_kernel0", &shard_args(2.0))
        .expect("launch");
    pool.wait_sharded(warm).expect("completes");
    let before = pool.pool_stats().batched_messages;
    let mut submit_seconds = 0.0f64;
    for _ in 0..launches {
        let start = Instant::now();
        let ticket = pool
            .sharded_launch(sid, "saxpy_kernel0", &shard_args(2.0))
            .expect("launch");
        submit_seconds += start.elapsed().as_secs_f64();
        pool.wait_sharded(ticket).expect("completes");
    }
    let messages = pool.pool_stats().batched_messages - before;
    pool.close_sharded_session(sid).expect("close");
    (submit_seconds * 1e6 / launches as f64, messages)
}

/// Run the weighted-vs-uniform comparison and the submit-cost measurement.
pub fn run(elements: usize, launches: usize) -> HeteroBenchReport {
    let artifacts = workloads::compile_saxpy();
    let weighted = measure_point(
        &artifacts,
        ShardOptions::default(),
        "weighted",
        elements,
        launches,
    );
    let uniform = measure_point(
        &artifacts,
        ShardOptions {
            weighted: false,
            ..Default::default()
        },
        "uniform",
        elements,
        launches,
    );
    // Submit cost on a wide fan-out: 4 shards per device, so batching has
    // real coalescing to do (16 jobs → 4 messages per launch).
    let shards = 4 * mixed_pool().len();
    let (batched_us, batch_messages) = measure_submit(&artifacts, elements, launches, shards);
    HeteroBenchReport {
        workload: "saxpy_kernel0 sharded sessions on a 2:1-speed 4-device pool".to_string(),
        pool: mixed_pool().iter().map(|m| m.name.clone()).collect(),
        elements,
        launches_per_point: launches,
        weighted_speedup: weighted.launches_per_sim_second / uniform.launches_per_sim_second,
        submit: SubmitBench {
            shards,
            launches,
            batched_us_per_launch: batched_us,
            batched_messages_per_launch: batch_messages as f64 / launches as f64,
        },
        weighted,
        uniform,
    }
}

//! Heterogeneous device pools: the differential conformance suite.
//!
//! A pool of mixed device models (different clocks, memory systems, PCIe
//! links) changes *where* rows live and *how long* the simulated timeline
//! runs — it must never change a single bit of the results:
//!
//! * A weighted sharded session on a heterogeneous pool is
//!   bit-identical to the same `target data` program run on a single-device
//!   `Machine`, and its `SessionStats`/`RunStats` totals are deterministic
//!   (bit-identical across identical runs).
//! * On a homogeneous pool, the weighted plan *is* the uniform plan
//!   (`ShardPlan::partition`): same shard sizes, 0..N device order, equal
//!   weights.
//! * The largest shard lands on the fastest device (regression-pinned
//!   placement order).
//! * Property: `ShardPlan::partition_weighted` is a sorted, contiguous,
//!   exactly-once cover with no empty shard (unless `rows < shards`) for
//!   random lengths, positive weights, and halos; random shapes and shard
//!   counts on the mixed pool match the f32 reference bit for bit.

use std::sync::OnceLock;

use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
use ftn_core::{Artifacts, Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use ftn_shard::ShardPlan;
use proptest::prelude::*;

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

fn artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        Compiler::default()
            .compile_source(SAXPYN)
            .expect("compiles")
    })
}

/// The mixed pool under test: a stock U280, a half-clock U280 (the 2×-slower
/// card), the faster-clock HBM2e U55C, and the DDR-based U250.
fn hetero_pool() -> Vec<DeviceModel> {
    vec![
        DeviceModel::u280(),
        DeviceModel::named("u280@150").expect("clock override parses"),
        DeviceModel::u55c(),
        DeviceModel::u250(),
    ]
}

fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.19).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.06).cos()).collect();
    (x, y)
}

/// `saxpyn_kernel0(x, y, n, n, a, 1, n)` with per-shard extents.
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

/// Everything one sharded run produces, for differential comparison.
struct ShardedRun {
    y: Vec<f32>,
    session_stats: ftn_cluster::SessionStats,
    pool: ftn_cluster::PoolStats,
    devices: Vec<usize>,
    rows: Vec<usize>,
    weights: Vec<f64>,
}

fn run_sharded(
    models: &[DeviceModel],
    shards: ShardCount,
    reps: usize,
    a: f32,
    halo: usize,
    x: &[f32],
    y: &[f32],
) -> ShardedRun {
    let mut cluster = ClusterMachine::load(artifacts(), models).unwrap();
    let xa = cluster.host_f32(x);
    let ya = cluster.host_f32(y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo }),
                ("y", ya.clone(), MapKind::ToFrom, Partition::Split { halo }),
            ],
            shards,
        )
        .unwrap();
    let info = cluster.session_info(sid).unwrap();
    let (devices, weights) = (info.devices, info.weights);
    let rows = info.maps[1].shard_rows.clone();
    for _ in 0..reps {
        let ticket = cluster
            .sharded_launch(sid, "saxpyn_kernel0", &shard_args(a))
            .unwrap();
        cluster.wait_sharded(ticket).unwrap();
    }
    let report = cluster.close_sharded_session(sid).unwrap();
    ShardedRun {
        y: cluster.read_f32(&ya),
        session_stats: report.stats,
        pool: cluster.pool_stats(),
        devices,
        rows,
        weights,
    }
}

/// The reference: the full `target data` host program on one `Machine`.
fn run_machine(n: usize, reps: usize, a: f32, x: &[f32], y: &[f32]) -> Vec<f32> {
    let mut machine = Machine::load(artifacts(), DeviceModel::u280()).unwrap();
    let xa = machine.host_f32(x);
    let ya = machine.host_f32(y);
    machine
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
    machine.read_f32(&ya)
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what} element {i}: {p} vs {q}");
    }
}

/// The headline differential: a weighted sharded session spanning
/// four *different* device models computes exactly what one U280 `Machine`
/// computes, for plain and halo'd plans alike — and every statistic it
/// reports is deterministic.
#[test]
fn weighted_hetero_session_is_bit_identical_to_single_device_machine() {
    let n = 1003usize;
    let reps = 4usize;
    let a = 2.25f32;
    let (x, y) = inputs(n);
    let reference = run_machine(n, reps, a, &x, &y);
    let models = hetero_pool();
    for halo in [0usize, 2] {
        let first = run_sharded(&models, ShardCount::Fixed(4), reps, a, halo, &x, &y);
        assert_bits_eq(&first.y, &reference, &format!("halo={halo}"));
        // Weighted plans re-apportion rows, never drop or duplicate them.
        assert_eq!(first.rows.iter().sum::<usize>(), n);
        assert_eq!(first.session_stats.launches, (reps * 4) as u64);
        // Statistics are deterministic: an identical run reproduces every
        // counter and every simulated-seconds total bit-for-bit.
        let second = run_sharded(&models, ShardCount::Fixed(4), reps, a, halo, &x, &y);
        assert_bits_eq(&second.y, &reference, "second run");
        assert_eq!(first.session_stats, second.session_stats);
        assert_eq!(
            first.pool.totals, second.pool.totals,
            "RunStats totals deterministic"
        );
        assert_eq!(first.devices, second.devices);
        assert_eq!(first.rows, second.rows);
    }
}

/// On a homogeneous pool the weighted plan must be the uniform plan: same
/// row counts as `ShardPlan::partition`, natural device order, equal weights.
#[test]
fn equal_weights_on_homogeneous_pool_reproduce_the_uniform_plan() {
    let n = 1003usize;
    let (x, y) = inputs(n);
    let models = vec![DeviceModel::u280(); 4];
    let weighted = run_sharded(&models, ShardCount::Fixed(4), 3, 1.5, 0, &x, &y);
    assert_eq!(weighted.devices, vec![0, 1, 2, 3], "natural device order");
    let plan = ShardPlan::partition(n, 4, 0);
    let uniform_rows: Vec<usize> = plan.ranges().iter().map(|r| r.len).collect();
    assert_eq!(weighted.rows, uniform_rows);
    assert!(weighted.weights.iter().all(|&w| w == weighted.weights[0]));
}

/// What the weighted plan buys, on the simulated timeline: with one
/// half-clock card among four, a uniform split would make that card the
/// critical path of every launch, and sizing shards by device throughput
/// finishes the same launches at least 1.25x sooner (7/4 is the ideal). The
/// uniform makespan is priced from the weighted run itself: each device's
/// observed simulated seconds per owned row, times an equal share of the
/// rows. A fan-out wider than the pool, four shards a device, computes the
/// same bits.
#[test]
fn weighted_plan_beats_uniform_on_a_two_to_one_pool_at_one_message_per_device() {
    let (n, reps) = (16_384usize, 8usize);
    let (x, y) = inputs(n);
    let mut models = vec![DeviceModel::u280(); 3];
    models.push(DeviceModel::named("u280@150").unwrap());
    let run = |shards: usize| run_sharded(&models, ShardCount::Fixed(shards), reps, 2.0, 0, &x, &y);
    let weighted = run(4);
    let uniform_makespan = (weighted.devices.iter().zip(&weighted.rows))
        .map(|(&d, &rows)| weighted.pool.devices[d].busy_sim_seconds / rows as f64 * (n / 4) as f64)
        .fold(0.0, f64::max);
    let speedup = uniform_makespan / weighted.pool.makespan_sim_seconds;
    assert!(
        speedup >= 1.25,
        "weighted rows {:?} finish {speedup:.2}x sooner than a uniform split, floor 1.25x",
        weighted.rows
    );
    let wide = run(16);
    assert_bits_eq(&wide.y, &weighted.y, "16 shards");
}

/// Regression pin for the PR-3 "shard i → device i%N" fix: devices are
/// ordered fastest-first (ties by index), so the largest shard of the
/// weighted plan sits on the fastest card and the 2×-slower card gets
/// roughly half a stock card's rows.
#[test]
fn largest_shard_lands_on_the_fastest_device() {
    let n = 1200usize;
    let (x, y) = inputs(n);
    // Device 0 is the *slow* card here, so index order would get it wrong.
    let models = vec![
        DeviceModel::named("u280@150").unwrap(),
        DeviceModel::u280(),
        DeviceModel::u55c(),
        DeviceModel::u280(),
    ];
    let run = run_sharded(&models, ShardCount::Fixed(4), 1, 2.0, 0, &x, &y);
    // Pinned placement order: u55c (450 MHz), the two stock U280s in index
    // order, then the 150 MHz card last.
    assert_eq!(run.devices, vec![2, 1, 3, 0]);
    // Shard sizes track the plan weights: monotonically non-increasing,
    // largest first, and the slow card carries roughly half a stock share.
    assert!(
        run.rows.windows(2).all(|w| w[0] >= w[1]),
        "rows sorted with the devices: {:?}",
        run.rows
    );
    assert!(run.rows[0] > run.rows[3], "{:?}", run.rows);
    let stock = run.rows[1] as f64;
    let slow = run.rows[3] as f64;
    assert!(
        (1.6..=2.4).contains(&(stock / slow)),
        "2x clock gap should give ~2x the rows: {:?}",
        run.rows
    );
    assert_eq!(run.rows.iter().sum::<usize>(), n, "exactly-once cover");
    // And the computation is still exactly the single-device one.
    let reference = run_machine(n, 1, 2.0, &x, &y);
    assert_bits_eq(&run.y, &reference, "hetero placement");
}

/// `ShardCount::Auto` on a heterogeneous pool is priced per device model:
/// a large array still fills the pool, a tiny one refuses to over-shard.
#[test]
fn auto_shards_on_a_heterogeneous_pool() {
    let (x, y) = inputs(65536);
    let run = run_sharded(&hetero_pool(), ShardCount::Auto, 1, 1.0, 0, &x, &y);
    assert_eq!(run.devices.len(), 4, "large array fills the mixed pool");
    let (x, y) = inputs(2);
    let run = run_sharded(&hetero_pool(), ShardCount::Auto, 1, 1.0, 0, &x, &y);
    assert!(run.devices.len() <= 2, "tiny array refuses to over-shard");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random lengths (non-divisible and `rows < shards` included), random
    /// positive weight vectors, random halos: every row is owned exactly
    /// once by a sorted contiguous cover, no shard is empty unless
    /// `rows < shards`, and halos stay within the array.
    #[test]
    fn partition_weighted_is_an_exactly_once_cover(
        rows in 0usize..500,
        shards in 1usize..=6,
        raw in proptest::collection::vec(1u32..1000, 1..7),
        halo in 0usize..4,
    ) {
        let weights: Vec<f64> = raw.iter().take(shards).map(|&w| w as f64 / 64.0).collect();
        let shards = weights.len();
        let plan = ShardPlan::partition_weighted(rows, &weights, halo);
        prop_assert_eq!(plan.shard_count(), shards.min(rows.max(1)));
        let mut next = 0usize;
        for r in plan.ranges() {
            prop_assert_eq!(r.start, next, "sorted, contiguous");
            prop_assert!(r.len > 0 || rows == 0, "no empty shard unless rows < shards");
            prop_assert!(r.mapped_start() <= r.start);
            prop_assert!(r.mapped_start() + r.mapped_len() <= rows.max(r.start + r.len));
            prop_assert_eq!(r.halo_lo, halo.min(r.start));
            prop_assert_eq!(r.halo_hi, halo.min(rows - (r.start + r.len)));
            next = r.start + r.len;
        }
        prop_assert_eq!(next, rows, "every row owned exactly once");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random lengths, shard counts (one shard included) and launch counts
    /// on the heterogeneous pool match the f32 reference bit for bit.
    #[test]
    fn weighted_hetero_session_matches_reference_for_random_shapes(
        n in 1usize..200,
        shards in 1usize..=4,
        reps in 1usize..=2,
        a in 1u8..=8u8,
    ) {
        let a = a as f32 * 0.25;
        let (x, y) = inputs(n);
        let run = run_sharded(
            &hetero_pool(), ShardCount::Fixed(shards), reps, a, 0, &x, &y,
        );
        let mut expect = y.clone();
        for _ in 0..reps {
            for i in 0..n {
                expect[i] += a * x[i];
            }
        }
        for (i, e) in expect.iter().enumerate() {
            prop_assert_eq!(
                run.y[i].to_bits(),
                e.to_bits(),
                "n={} shards={} element {}", n, shards, i
            );
        }
    }
}

//! Migration epochs (adaptive shard re-planning) checked against the
//! frozen-plan reference:
//!
//! * A session that rebalances mid-stream — rows migrating between devices
//!   through a delta scatter/gather epoch — is bit-identical to one that
//!   never does: same result bytes, same deterministic `RunStats` totals
//!   (`total_cycles`, `launches`; the epoch's extra PCIe transfers are the
//!   only difference, and they are asserted separately).
//! * A re-plan on a quiet pool (zero delta) is a pure no-op: no migrated
//!   rows, no new uploads, unchanged session stats, nothing leaked.
//! * An `AutoRebalance` policy triggers epochs by itself on the launch
//!   cadence and stays exact.
//! * Property: random backlog injections and re-plan points never change
//!   the computed bytes, and the pool's host arena drains to exactly the
//!   caller's arrays at close.
//!
//! The kernel is a *non-unrolled* SAXPY (no `simd` clause): for a pipelined
//! loop the cycle count is `depth + (trips − 1) · II`, so the sum over any
//! fixed number of shards is invariant under re-splitting the rows — which
//! is what makes the totals comparison exact rather than approximate.

use std::sync::OnceLock;

use ftn_cluster::{AutoRebalance, ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
use ftn_core::{Artifacts, Compiler};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;
use proptest::prelude::*;

const PLAIN_SAXPY: &str = r#"
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
    CELL.get_or_init(|| {
        Compiler::default()
            .compile_source(PLAIN_SAXPY)
            .expect("compiles")
    })
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

fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.19).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.06).cos()).collect();
    (x, y)
}

struct RunOutcome {
    y: Vec<f32>,
    session: ftn_cluster::SessionStats,
    totals: ftn_host::RunStats,
    host_buffers: usize,
    /// Pool makespan on the simulated timeline, injected tenants included.
    makespan_sim_seconds: f64,
}

/// [`run_session_on`] with one shard per device.
fn run_session(
    launches: usize,
    halo: usize,
    auto: Option<AutoRebalance>,
    disturb: impl FnMut(&mut ClusterMachine, u64, usize),
    x: &[f32],
    y: &[f32],
) -> RunOutcome {
    run_session_on(4, launches, halo, auto, disturb, x, y)
}

/// Run `launches` sharded launches of a `shards`-shard session on a
/// 4 × U280 pool, calling `disturb` with the machine and the launch index
/// before each launch (injection / manual re-plan points live there).
fn run_session_on(
    shards: usize,
    launches: usize,
    halo: usize,
    auto: Option<AutoRebalance>,
    mut disturb: impl FnMut(&mut ClusterMachine, u64, usize),
    x: &[f32],
    y: &[f32],
) -> RunOutcome {
    let models = vec![DeviceModel::u280(); 4];
    let mut cluster = ClusterMachine::load(artifacts(), &models).unwrap();
    let xa = cluster.host_f32(x);
    let ya = cluster.host_f32(y);
    let sid = cluster
        .open_sharded_session_with(
            &[
                ("x", xa.clone(), MapKind::To, Partition::Split { halo }),
                ("y", ya.clone(), MapKind::ToFrom, Partition::Split { halo }),
            ],
            ShardCount::Fixed(shards),
            auto,
        )
        .unwrap();
    for k in 0..launches {
        disturb(&mut cluster, sid, k);
        let ticket = cluster
            .sharded_launch(sid, "saxpy_kernel0", &shard_args(2.25))
            .unwrap();
        cluster.wait_sharded(ticket).unwrap();
    }
    let report = cluster.close_sharded_session(sid).unwrap();
    let pool = cluster.pool_stats();
    RunOutcome {
        y: cluster.read_f32(&ya),
        session: report.stats,
        totals: pool.totals,
        host_buffers: pool.host_buffers,
        makespan_sim_seconds: pool.makespan_sim_seconds,
    }
}

/// One re-plan horizon's worth of per-launch shard time, derived from an
/// undisturbed run so tests can size injected backlogs without reaching
/// into the cost model.
fn per_launch_sim_seconds(n: usize) -> f64 {
    let (x, y) = inputs(n);
    let models = vec![DeviceModel::u280(); 4];
    let mut cluster = ClusterMachine::load(artifacts(), &models).unwrap();
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
            ],
            ShardCount::Fixed(4),
        )
        .unwrap();
    for _ in 0..4 {
        let t = cluster
            .sharded_launch(sid, "saxpy_kernel0", &shard_args(2.25))
            .unwrap();
        cluster.wait_sharded(t).unwrap();
    }
    cluster.close_sharded_session(sid).unwrap();
    cluster.pool_stats().makespan_sim_seconds / 4.0
}

/// The headline differential: a session that executes a migration epoch
/// mid-stream computes exactly the same bytes — and the same deterministic
/// `RunStats` totals — as one that never re-plans.
#[test]
fn midstream_rebalance_is_bit_identical_to_frozen_run() {
    let n = 4096usize;
    let launches = 8usize;
    let (x, y) = inputs(n);
    let frozen = run_session(launches, 0, None, |_, _, _| {}, &x, &y);

    let backlog = 8.0 * per_launch_sim_seconds(n);
    let mut migrated = 0u64;
    let rebalanced = run_session(
        launches,
        0,
        None,
        |cluster, sid, k| {
            if k == launches / 2 {
                cluster.inject_backlog(0, backlog);
                let report = cluster.rebalance_session(sid).unwrap();
                assert!(
                    report.replanned,
                    "backlog must trigger an epoch: {report:?}"
                );
                assert!(report.shard_rows[0] < n / 4, "{report:?}");
                migrated = report.rows_migrated;
            }
        },
        &x,
        &y,
    );
    assert!(migrated > 0);
    assert_eq!(rebalanced.session.replan_count, 1);
    assert_eq!(rebalanced.session.rows_migrated, migrated);

    // Results: every byte identical.
    assert_eq!(frozen.y.len(), rebalanced.y.len());
    for (i, (f, r)) in frozen.y.iter().zip(&rebalanced.y).enumerate() {
        assert_eq!(f.to_bits(), r.to_bits(), "element {i}: {f} vs {r}");
    }
    // RunStats totals: the deterministic counters are identical — the
    // non-unrolled pipelined loop makes total cycles invariant under
    // re-splitting. Only the epoch's own PCIe traffic differs.
    assert_eq!(frozen.totals.total_cycles, rebalanced.totals.total_cycles);
    assert_eq!(frozen.totals.launches, rebalanced.totals.launches);
    assert_eq!(frozen.session.launches, rebalanced.session.launches);
    assert!(
        rebalanced.totals.transfers > frozen.totals.transfers,
        "the epoch's delta scatter/gather is charged as transfers"
    );
    // And the delta was a *delta*: far fewer bytes than a full round trip
    // of both arrays through the host.
    let full_round_trip = 2 * 2 * n as u64 * 4;
    assert!(
        rebalanced.session.staged_bytes - frozen.session.staged_bytes < full_round_trip,
        "{} extra staged bytes vs {} for a full restage",
        rebalanced.session.staged_bytes - frozen.session.staged_bytes,
        full_round_trip
    );
}

/// A re-plan with nothing to do (quiet pool, balanced split) is a pure
/// no-op: no epoch, no rows, no uploads, unchanged stats, nothing leaked.
#[test]
fn zero_delta_replan_is_a_noop() {
    let n = 1003usize;
    let (x, y) = inputs(n);
    let outcome = run_session(
        6,
        0,
        None,
        |cluster, sid, k| {
            if k == 3 {
                let before = cluster.session_stats(sid).unwrap();
                let buffers = cluster.pool_stats().host_buffers;
                let report = cluster.rebalance_session(sid).unwrap();
                assert!(!report.replanned, "{report:?}");
                assert_eq!(report.rows_migrated, 0);
                assert_eq!(report.epoch_seconds, 0.0);
                assert_eq!(report.shard_rows.iter().sum::<usize>(), n);
                let after = cluster.session_stats(sid).unwrap();
                assert_eq!(before, after, "a no-op re-plan must not touch stats");
                assert_eq!(cluster.pool_stats().host_buffers, buffers, "no leaks");
                assert_eq!(cluster.pool_stats().replans, 0);
            }
        },
        &x,
        &y,
    );
    assert_eq!(outcome.session.replan_count, 0);
    let mut expect = y.clone();
    for _ in 0..6 {
        for i in 0..n {
            expect[i] += 2.25 * x[i];
        }
    }
    for (i, (got, want)) in outcome.y.iter().zip(&expect).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "element {i}");
    }
}

/// An `AutoRebalance` policy runs the epoch on its own cadence — no
/// manual call — and the session stays exact.
#[test]
fn auto_rebalance_triggers_epochs_and_stays_exact() {
    let n = 4096usize;
    let launches = 8usize;
    let (x, y) = inputs(n);
    let frozen = run_session(launches, 0, None, |_, _, _| {}, &x, &y);
    let backlog = 8.0 * per_launch_sim_seconds(n);
    let auto = run_session(
        launches,
        0,
        Some(AutoRebalance {
            interval: 2,
            threshold: 1.1,
        }),
        |cluster, _, k| {
            if k == launches / 2 {
                cluster.inject_backlog(0, backlog);
            }
        },
        &x,
        &y,
    );
    assert!(auto.session.replan_count >= 1, "{:?}", auto.session);
    assert!(auto.session.rows_migrated > 0);
    assert!(auto.session.epoch_seconds > 0.0);
    for (i, (f, r)) in frozen.y.iter().zip(&auto.y).enumerate() {
        assert_eq!(f.to_bits(), r.to_bits(), "element {i}: {f} vs {r}");
    }
    assert_eq!(frozen.totals.total_cycles, auto.totals.total_cycles);
}

/// Re-planning is worth its epoch, on the simulated timeline: a tenant
/// arrives on device 0 a quarter of the way in with as much work as the
/// session has left. Frozen at its open-time split, every remaining launch
/// queues its device-0 shard behind the tenant; auto-rebalance moves those
/// rows to the idle cards at its next check and finishes the same launches
/// at least 1.2x sooner (1.32x here), bit for bit the same.
#[test]
fn auto_rebalance_outruns_the_frozen_plan_under_a_midstream_tenant() {
    let n = 16_384usize;
    let launches = 16usize;
    let arrives = launches / 4;
    let (x, y) = inputs(n);
    let tenant = (launches - arrives) as f64 * per_launch_sim_seconds(n);
    let run = |auto: Option<AutoRebalance>| {
        run_session(
            launches,
            0,
            auto,
            |cluster, _, k| {
                if k == arrives {
                    cluster.inject_backlog(0, tenant);
                }
            },
            &x,
            &y,
        )
    };
    let frozen = run(None);
    let auto = run(Some(AutoRebalance {
        interval: 1,
        threshold: 1.1,
    }));
    assert_eq!(frozen.session.replan_count, 0);
    assert!(
        auto.session.replan_count >= 1 && auto.session.rows_migrated > 0,
        "{:?}",
        auto.session
    );
    assert_eq!(frozen.y, auto.y);
    let speedup = frozen.makespan_sim_seconds / auto.makespan_sim_seconds;
    assert!(
        speedup >= 1.2,
        "auto-rebalance finishes {speedup:.2}x sooner than the frozen plan, floor 1.2x"
    );
}

/// Halo ghost rows survive migration: they are re-seeded from the caller's
/// contents exactly as the original scatter seeded them, so an element-wise
/// kernel stays bit-identical across an epoch.
#[test]
fn rebalance_with_halo_rows_stays_bit_identical() {
    let n = 1021usize;
    let launches = 6usize;
    let (x, y) = inputs(n);
    for halo in [1usize, 3] {
        let frozen = run_session(launches, halo, None, |_, _, _| {}, &x, &y);
        let backlog = 8.0 * per_launch_sim_seconds(n);
        let rebalanced = run_session(
            launches,
            halo,
            None,
            |cluster, sid, k| {
                if k == 3 {
                    cluster.inject_backlog(1, backlog);
                    let report = cluster.rebalance_session(sid).unwrap();
                    assert!(report.replanned, "halo={halo}: {report:?}");
                }
            },
            &x,
            &y,
        );
        for (i, (f, r)) in frozen.y.iter().zip(&rebalanced.y).enumerate() {
            assert_eq!(f.to_bits(), r.to_bits(), "halo={halo} element {i}");
        }
    }
}

/// More shards than devices: shards 3 and 7 share device 3. Swamping the
/// other three devices collapses their shards to one row each, so shard 7
/// grows down to row 515 and — with a halo of four rows — its new low ghost
/// starts at row 511, which shard 3 owned under the old plan: a block whose
/// donor and recipient are *different shards on the same device*. It copies
/// mirror-to-mirror instead of bouncing through the host, as do the ghost
/// rows the collapsed shards 0 and 4 owned themselves a moment ago; the
/// result stays bit-identical to the never-replanned run.
#[test]
fn rebalance_with_co_located_shards_stays_bit_identical() {
    let n = 1024usize;
    let launches = 6usize;
    let halo = 4usize;
    let (x, y) = inputs(n);
    let frozen = run_session_on(8, launches, halo, None, |_, _, _| {}, &x, &y);
    let backlog = 4096.0 * per_launch_sim_seconds(n);
    let mut rows = Vec::new();
    let rebalanced = run_session_on(
        8,
        launches,
        halo,
        None,
        |cluster, sid, k| {
            if k == 3 {
                assert_eq!(
                    cluster.sharded_devices(sid),
                    Some(vec![0, 1, 2, 3, 0, 1, 2, 3])
                );
                for device in 0..3 {
                    cluster.inject_backlog(device, backlog);
                }
                let report = cluster.rebalance_session(sid).unwrap();
                assert!(report.replanned, "{report:?}");
                rows = report.shard_rows;
            }
        },
        &x,
        &y,
    );
    assert_eq!(rows[4..7], [1, 1, 1], "swamped shards keep a reserve row");
    assert!(rows[3] > n / 4 && rows[7] > n / 4, "{rows:?}");
    assert_eq!(rebalanced.session.replan_count, 1);
    for (i, (f, r)) in frozen.y.iter().zip(&rebalanced.y).enumerate() {
        assert_eq!(f.to_bits(), r.to_bits(), "element {i}: {f} vs {r}");
    }
    // The epoch's PCIe traffic: 48 blocks bounce through the host (one
    // fetch + one splice each). The six same-device blocks (three per
    // array: shard 3 → shard 7, and shards 0 and 4 each re-seeding a ghost
    // from rows they used to own) do not — before the one placement rule
    // every epoch block bounced: 54 uploads, 108 transfers.
    assert_eq!(rebalanced.session.rows_migrated, 1532);
    assert_eq!(
        rebalanced.session.staged_uploads - frozen.session.staged_uploads,
        48
    );
    assert_eq!(rebalanced.totals.transfers - frozen.totals.transfers, 96);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random backlog injections (device, magnitude, timing) and re-plan
    /// points: whatever the epochs decide, the computed bytes never change
    /// and the pool's host arena drains to exactly the caller's two arrays.
    #[test]
    fn random_backlog_injections_never_change_results(
        n in 64usize..1200,
        launches in 2usize..=6,
        inject_at in 0usize..6,
        device in 0usize..4,
        scale in 1u8..=24u8,
    ) {
        let (x, y) = inputs(n);
        let frozen = run_session(launches, 0, None, |_, _, _| {}, &x, &y);
        let backlog = scale as f64 * per_launch_sim_seconds(n) / 2.0;
        let outcome = run_session(
            launches,
            0,
            None,
            |cluster, sid, k| {
                if k == inject_at % launches {
                    cluster.inject_backlog(device, backlog);
                    cluster.rebalance_session(sid).unwrap();
                }
            },
            &x,
            &y,
        );
        prop_assert_eq!(frozen.y.len(), outcome.y.len());
        for i in 0..n {
            prop_assert_eq!(
                frozen.y[i].to_bits(),
                outcome.y[i].to_bits(),
                "n={} launches={} device={} element {}",
                n, launches, device, i
            );
        }
        prop_assert_eq!(frozen.totals.total_cycles, outcome.totals.total_cycles);
        prop_assert_eq!(outcome.host_buffers, 2, "only x and y survive the close");
    }
}

//! Sharded data environments over the cluster (ftn-shard + ftn-cluster),
//! checked against the single-device reference — the `target data`
//! program on `ftn_core::Machine` or the kernel on one `KernelExecutor`,
//! neither of which shares session, shard or pool code with the cluster:
//!
//! * A session with one shard — opened either way, `open_session` or
//!   `open_sharded_session(.., Fixed(1))` — is bit-identical, results AND
//!   `RunStats` totals, to the `target data` program on `ftn_core::Machine`,
//!   and its `SessionStats` equal the values the retired unsharded
//!   implementation produced (pinned as golden constants).
//! * A sharded session over 2 and 4 devices is bit-identical (results) to
//!   the same program on `Machine`: the split is element-wise exact for
//!   SAXPY-style kernels, and the gather reassembles the array in order.
//!   The aggregated stats are deterministic across identical runs.
//! * Halo rows are mapped to neighbouring shards but never gathered back.
//! * A distributed `reduction(+:s)` (dot product) combines per-shard
//!   partials and the caller's initial value exactly once.
//! * Property: random array lengths (including lengths not divisible by the
//!   shard count) and shard counts agree with the f32 reference model.

use std::sync::OnceLock;

use ftn_cluster::{ClusterMachine, MapKind, Partition, ReduceOp, ShardArg, ShardCount};
use ftn_core::{Artifacts, Compiler, Machine};
use ftn_fpga::{DeviceModel, KernelExecutor};
use ftn_interp::{Buffer, MemRefVal, Memory, RtValue};
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

const DOTPROD: &str = r#"
subroutine dotprod(n, x, y, s)
  implicit none
  integer :: n, i
  real :: x(n), y(n), s
  !$omp target parallel do simd simdlen(8) reduction(+:s)
  do i = 1, n
    s = s + x(i)*y(i)
  end do
  !$omp end target parallel do simd
end subroutine dotprod
"#;

fn saxpyn_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        Compiler::default()
            .compile_source(SAXPYN)
            .expect("compiles")
    })
}

fn dotprod_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        Compiler::default()
            .compile_source(DOTPROD)
            .expect("compiles")
    })
}

/// `saxpyn_kernel0(x, y, n, n, a, 1, n)` with per-shard extents.
fn saxpy_shard_args(a: f32) -> Vec<ShardArg> {
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

/// Run `reps` sharded saxpy launches over a `devices`-device pool and
/// return `(y result, SessionStats, PoolStats)`.
fn run_sharded(
    devices: usize,
    shards: ShardCount,
    reps: usize,
    a: f32,
    halo: usize,
    x: &[f32],
    y: &[f32],
) -> (Vec<f32>, ftn_cluster::SessionStats, ftn_cluster::PoolStats) {
    let models = vec![DeviceModel::u280(); devices];
    let mut cluster = ClusterMachine::load(saxpyn_artifacts(), &models).unwrap();
    let xa = cluster.host_f32(x);
    let ya = cluster.host_f32(y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa.clone(), MapKind::To, Partition::Split { halo }),
                ("y", ya.clone(), MapKind::ToFrom, Partition::Split { halo }),
            ],
            shards,
        )
        .unwrap();
    for _ in 0..reps {
        let ticket = cluster
            .sharded_launch(sid, "saxpyn_kernel0", &saxpy_shard_args(a))
            .unwrap();
        cluster.wait_sharded(ticket).unwrap();
    }
    let report = cluster.close_sharded_session(sid).unwrap();
    let got = cluster.read_f32(&ya);
    (got, report.stats, cluster.pool_stats())
}

/// The `target data` program (`reps` SAXPY launches inside one data region)
/// on `ftn_core::Machine`: the single-device reference, its `y` and its
/// `RunStats`.
fn run_machine(reps: usize, a: f32, x: &[f32], y: &[f32]) -> (Vec<f32>, ftn_host::RunStats) {
    let mut machine = Machine::load(saxpyn_artifacts(), DeviceModel::u280()).unwrap();
    let xa = machine.host_f32(x);
    let ya = machine.host_f32(y);
    let args = [
        RtValue::I32(x.len() as i32),
        RtValue::I32(reps as i32),
        RtValue::F32(a),
        xa,
        ya.clone(),
    ];
    let report = machine.run("saxpyn", &args).unwrap();
    (machine.read_f32(&ya), report.stats)
}

/// The same workload through the whole-array front-ends (`open_session` /
/// `session_launch` / `close_session`) on a 1-device pool.
fn run_plain_session(
    n: usize,
    reps: usize,
    a: f32,
    x: &[f32],
    y: &[f32],
) -> (Vec<f32>, ftn_cluster::SessionStats, ftn_cluster::PoolStats) {
    let mut cluster = ClusterMachine::load(saxpyn_artifacts(), &[DeviceModel::u280()]).unwrap();
    let xa = cluster.host_f32(x);
    let ya = cluster.host_f32(y);
    let sid = cluster
        .open_session(&[
            ("x", xa.clone(), MapKind::To),
            ("y", ya.clone(), MapKind::ToFrom),
        ])
        .unwrap();
    let args = vec![
        xa.clone(),
        ya.clone(),
        RtValue::Index(n as i64),
        RtValue::Index(n as i64),
        RtValue::F32(a),
        RtValue::Index(1),
        RtValue::Index(n as i64),
    ];
    for _ in 0..reps {
        let ticket = cluster
            .session_launch(sid, "saxpyn_kernel0", &args)
            .unwrap();
        cluster.wait(ticket.handle).unwrap();
    }
    let report = cluster.close_session(sid).unwrap();
    let got = cluster.read_f32(&ya);
    (got, report.stats, cluster.pool_stats())
}

fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.21).sin()).collect();
    let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.08).cos()).collect();
    (x, y)
}

/// One shard is the single-device program: same bytes and `RunStats` totals
/// as the `target data` region run on `Machine` (the independent oracle),
/// and the `SessionStats` the unsharded session implementation reported for
/// this workload before it was folded into the sharded one — captured at
/// that commit, so the stats identity the two paths had keeps being checked.
#[test]
fn one_shard_is_bit_identical_to_plain_session_including_stats() {
    let n = 1003usize;
    let reps = 4usize;
    let a = 1.75f32;
    let (x, y) = inputs(n);

    let (y_machine, machine_stats) = run_machine(reps, a, &x, &y);
    // Golden: RunStats totals of the unsharded session at the parent commit.
    assert_eq!(machine_stats.total_cycles, 129_648);
    assert_eq!(machine_stats.transfers, 3);
    assert_eq!(machine_stats.kernel_seconds, 0.00043216);
    assert_eq!(machine_stats.transfer_seconds, 7.600300000000001e-5);

    let golden = ftn_cluster::SessionStats {
        launches: 4,
        staged_uploads: 2,
        staged_bytes: 8024,
        elided_transfers: 8,
        fetched_downloads: 1,
        ..Default::default()
    };
    for (what, (y_got, stats, pool)) in [
        ("open_session", run_plain_session(n, reps, a, &x, &y)),
        (
            "Fixed(1)",
            run_sharded(1, ShardCount::Fixed(1), reps, a, 0, &x, &y),
        ),
    ] {
        assert_eq!(y_machine.len(), y_got.len());
        for (i, (m, s)) in y_machine.iter().zip(&y_got).enumerate() {
            assert_eq!(m.to_bits(), s.to_bits(), "{what} element {i}: {m} vs {s}");
        }
        assert_eq!(stats, golden, "{what}: SessionStats");
        assert_eq!(
            pool.totals, machine_stats,
            "{what}: RunStats totals must equal the Machine program run"
        );
    }
}

/// Sharded over 2 and 4 devices: results bit-identical to the single-device
/// program on `Machine` (SAXPY is element-wise, so distribution preserves
/// every FP op), the aggregated totals are deterministic across identical
/// runs, and four devices at least double the simulated launch throughput
/// of one.
#[test]
fn sharded_n2_n4_results_are_bit_identical_to_single_device() {
    let n = 1003usize;
    let reps = 5usize;
    let a = 2.5f32;
    let (x, y) = inputs(n);
    let (y_single, _) = run_machine(reps, a, &x, &y);
    for devices in [2usize, 4] {
        let (y_shard, stats, pool) =
            run_sharded(devices, ShardCount::Fixed(devices), reps, a, 0, &x, &y);
        for (i, (p, s)) in y_single.iter().zip(&y_shard).enumerate() {
            assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "N={devices} element {i}: {p} vs {s}"
            );
        }
        assert_eq!(stats.launches, (reps * devices) as u64);
        assert_eq!(stats.fetched_downloads, devices as u64);
        // Aggregated RunStats totals are deterministic: a second identical
        // sharded run produces exactly the same totals.
        let (_, _, pool2) = run_sharded(devices, ShardCount::Fixed(devices), reps, a, 0, &x, &y);
        assert_eq!(
            pool.totals, pool2.totals,
            "N={devices} totals must be deterministic"
        );
        assert_eq!(pool.totals.launches, (reps * devices) as u64);
    }

    // Sharding pays on the simulated timeline: the same launches finish in
    // under half the time on 4 devices (3.91x at this shape; at n = 1003
    // fixed launch cost holds it to 2.8x). One device's time is the
    // program's kernel wall plus transfer seconds; the pool's makespan is
    // its busiest device's, so no clock is involved.
    let (n, reps) = (16_384usize, 8usize);
    let (x, y) = inputs(n);
    let (_, one) = run_machine(reps, a, &x, &y);
    let (_, _, four) = run_sharded(4, ShardCount::Fixed(4), reps, a, 0, &x, &y);
    let one_seconds = one.kernel_wall_seconds + one.transfer_seconds;
    let speedup = one_seconds / four.makespan_sim_seconds;
    assert!(
        speedup >= 2.0,
        "N=4 simulated launch throughput is {speedup:.2}x the single device's, floor 2.0x"
    );
}

/// Halo rows change what each shard maps, not what the gather writes: the
/// result stays bit-identical to the single-device program for an
/// element-wise kernel (overlap rows are computed twice, once per
/// neighbour, and discarded from the halo side).
#[test]
fn halo_rows_are_mapped_but_not_gathered() {
    let n = 257usize;
    let reps = 2usize;
    let a = 0.75f32;
    let (x, y) = inputs(n);
    let (y_single, _) = run_machine(reps, a, &x, &y);
    for halo in [1usize, 3] {
        let (y_shard, _, _) = run_sharded(4, ShardCount::Fixed(4), reps, a, halo, &x, &y);
        for (i, (p, s)) in y_single.iter().zip(&y_shard).enumerate() {
            assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "halo={halo} element {i}: {p} vs {s}"
            );
        }
    }
}

/// Auto shard selection: a SAXPY-scale array fills the pool; the shard
/// count never exceeds pool size or array length.
#[test]
fn auto_shards_picks_pool_size_for_large_arrays() {
    let n = 65536usize;
    let (x, y) = inputs(n);
    let models = vec![DeviceModel::u280(); 4];
    let mut cluster = ClusterMachine::load(saxpyn_artifacts(), &models).unwrap();
    let xa = cluster.host_f32(&x);
    let ya = cluster.host_f32(&y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa.clone(), MapKind::To, Partition::Split { halo: 0 }),
                ("y", ya, MapKind::ToFrom, Partition::Split { halo: 0 }),
            ],
            ShardCount::Auto,
        )
        .unwrap();
    assert_eq!(
        cluster.session_info(sid).map(|info| info.devices.len()),
        Some(4),
        "big array → full pool"
    );
    cluster.close_sharded_session(sid).unwrap();

    // A tiny array refuses to over-shard.
    let xa = cluster.host_f32(&[1.0, 2.0]);
    let sid = cluster
        .open_sharded_session(
            &[("x", xa, MapKind::To, Partition::Split { halo: 0 })],
            ShardCount::Auto,
        )
        .unwrap();
    assert!(cluster.session_info(sid).unwrap().devices.len() <= 2);
    cluster.close_sharded_session(sid).unwrap();
}

/// `dotprod_kernel0` over the whole arrays on one `KernelExecutor` — the
/// single-device reference: `s0 + x·y` folded as one device folds it.
fn one_device_dot(x: &[f32], y: &[f32], s0: f32) -> f32 {
    let executor =
        KernelExecutor::from_bitstream(&dotprod_artifacts().bitstream, DeviceModel::u280())
            .unwrap();
    let mut memory = Memory::new();
    let mut array = |data: &[f32]| {
        let buffer = memory.alloc(Buffer::F32(data.to_vec()), 0);
        let shape = vec![data.len() as i64];
        (
            buffer,
            RtValue::MemRef(MemRefVal {
                buffer,
                shape,
                space: 0,
            }),
        )
    };
    let ((_, xa), (_, ya), (s, sa)) = (array(x), array(y), array(&[s0]));
    let len = |n: usize| RtValue::Index(n as i64);
    let args = [
        xa,
        ya,
        sa,
        len(x.len()),
        len(y.len()),
        len(1),
        len(1),
        len(x.len()),
    ];
    executor
        .execute("dotprod_kernel0", &args, &mut memory)
        .unwrap();
    let Buffer::F32(out) = memory.get(s) else {
        panic!("s is an f32 array")
    };
    out[0]
}

/// A distributed sum reduction: x and y split, the accumulator reduced.
/// Each shard folds its partial into a private copy (shard 0 seeded with
/// the caller's initial value, the rest with the identity); the close
/// combines them. Checked against the kernel on one device within FP
/// reassociation tolerance, and exactly at one shard.
#[test]
fn sharded_dot_product_reduces_across_devices() {
    let n = 1000usize;
    let x: Vec<f32> = (0..n)
        .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
        .collect();
    let y: Vec<f32> = (0..n)
        .map(|i| ((i * 53) % 97) as f32 * 0.02 - 1.0)
        .collect();
    let s0 = 10.0f32;

    let dot_args = vec![
        ShardArg::Array("x".into()),
        ShardArg::Array("y".into()),
        ShardArg::Array("s".into()),
        ShardArg::Extent("x".into()),
        ShardArg::Extent("y".into()),
        ShardArg::Extent("s".into()),
        ShardArg::Scalar(RtValue::Index(1)),
        ShardArg::Extent("x".into()),
    ];
    let run = |devices: usize, shards: usize| -> f32 {
        let models = vec![DeviceModel::u280(); devices];
        let mut cluster = ClusterMachine::load(dotprod_artifacts(), &models).unwrap();
        let xa = cluster.host_f32(&x);
        let ya = cluster.host_f32(&y);
        let sa = cluster.host_f32(&[s0]);
        let sid = cluster
            .open_sharded_session(
                &[
                    ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                    ("y", ya, MapKind::To, Partition::Split { halo: 0 }),
                    (
                        "s",
                        sa.clone(),
                        MapKind::ToFrom,
                        Partition::Reduced(ReduceOp::Sum),
                    ),
                ],
                ShardCount::Fixed(shards),
            )
            .unwrap();
        let ticket = cluster
            .sharded_launch(sid, "dotprod_kernel0", &dot_args)
            .unwrap();
        cluster.wait_sharded(ticket).unwrap();
        cluster.close_sharded_session(sid).unwrap();
        cluster.read_f32(&sa)[0]
    };

    let single = one_device_dot(&x, &y, s0);
    let reference: f32 = s0 + x.iter().zip(&y).map(|(a, b)| a * b).sum::<f32>();
    assert!(
        (single - reference).abs() <= 1e-3 * reference.abs().max(1.0),
        "single-device kernel sanity: {single} vs {reference}"
    );
    let one_shard = run(1, 1);
    assert_eq!(
        one_shard.to_bits(),
        single.to_bits(),
        "one shard: {one_shard} vs single {single}"
    );
    for shards in [2usize, 4] {
        let sharded = run(4, shards);
        assert!(
            (sharded - single).abs() <= 1e-3 * single.abs().max(1.0),
            "{shards} shards: {sharded} vs single {single} (initial folded once)"
        );
    }
}

/// `map(from:)` reduction copies must start at the operation's identity on
/// every shard — zero-initializing them (the plain `from` behaviour) would
/// corrupt min/max folds. With no launches, the gathered value IS the
/// identity.
#[test]
fn reduced_from_copies_start_at_the_identity() {
    let models = vec![DeviceModel::u280(); 2];
    for (op, identity) in [
        (ReduceOp::Min, f32::INFINITY),
        (ReduceOp::Max, f32::NEG_INFINITY),
        (ReduceOp::Sum, 0.0),
    ] {
        let mut cluster = ClusterMachine::load(dotprod_artifacts(), &models).unwrap();
        let sa = cluster.host_f32(&[42.0]);
        let xa = cluster.host_f32(&[1.0, 2.0]);
        let sid = cluster
            .open_sharded_session(
                &[
                    ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                    ("s", sa.clone(), MapKind::From, Partition::Reduced(op)),
                ],
                ShardCount::Fixed(2),
            )
            .unwrap();
        cluster.close_sharded_session(sid).unwrap();
        let got = cluster.read_f32(&sa)[0];
        assert_eq!(
            got.to_bits(),
            identity.to_bits(),
            "{}: map(from:) must fold device-initialized identities, got {got}",
            op.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random lengths (including lengths not divisible by the shard count)
    /// and shard counts: the sharded session always matches the f32
    /// reference model bit-for-bit.
    #[test]
    fn sharded_saxpy_matches_reference_for_random_shapes(
        n in 1usize..300,
        shards in 1usize..=4,
        reps in 1usize..=3,
        a in 1u8..=8u8,
    ) {
        let a = a as f32 * 0.25;
        let (x, y) = inputs(n);
        let (got, stats, _) = run_sharded(4, ShardCount::Fixed(shards), reps, a, 0, &x, &y);
        // The effective shard count never exceeds the array length.
        let effective = shards.min(n);
        prop_assert_eq!(stats.launches, (reps * effective) as u64);
        let mut expect = y.clone();
        for _ in 0..reps {
            for i in 0..n {
                expect[i] += a * x[i];
            }
        }
        for i in 0..n {
            prop_assert_eq!(
                got[i].to_bits(),
                expect[i].to_bits(),
                "n={} shards={} element {}: {} vs {}",
                n, shards, i, got[i], expect[i]
            );
        }
    }
}

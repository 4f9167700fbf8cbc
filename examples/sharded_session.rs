//! Sharded data environments: one `target data` region spanning a 4-FPGA
//! pool. Arrays are partitioned along their leading dimension (ftn-shard),
//! every launch fans out as force-placed per-shard kernel jobs with rebased
//! trip counts, and the close gathers the owned rows back — bit-identical
//! to the single-device session, at a fraction of the simulated makespan.
//!
//! Run with: `cargo run --release --example sharded_session`

use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
use ftn_core::Compiler;
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

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

const N: usize = 100_000;
const LAUNCHES: usize = 8;
const A: f32 = 1.25;

fn shard_args(a: f32) -> Vec<ShardArg> {
    // saxpyn_kernel0(x, y, n, n, a, 1, n): extents rebase per shard.
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

fn run(devices: usize, shards: ShardCount, x: &[f32], y: &[f32]) -> (Vec<f32>, usize, f64) {
    let artifacts = Compiler::default()
        .compile_source(SAXPYN)
        .expect("compiles");
    let models = vec![DeviceModel::u280(); devices];
    let mut cluster = ClusterMachine::load(&artifacts, &models).expect("pool loads");
    let xa = cluster.host_f32(x);
    let ya = cluster.host_f32(y);
    let sid = cluster
        .open_sharded_session(
            &[
                ("x", xa, MapKind::To, Partition::Split { halo: 0 }),
                (
                    "y",
                    ya.clone(),
                    MapKind::ToFrom,
                    Partition::Split { halo: 0 },
                ),
            ],
            shards,
        )
        .expect("session opens");
    let n_shards = cluster.session_info(sid).expect("open").devices.len();
    // Submit every logical launch before waiting so shard jobs overlap
    // across the pool.
    let mut tickets = Vec::with_capacity(LAUNCHES);
    for _ in 0..LAUNCHES {
        tickets.push(
            cluster
                .sharded_launch(sid, "saxpyn_kernel0", &shard_args(A))
                .expect("launch"),
        );
    }
    for t in tickets {
        cluster.wait_sharded(t).expect("launch completes");
    }
    cluster.close_sharded_session(sid).expect("close");
    let makespan = cluster.pool_stats().makespan_sim_seconds;
    (cluster.read_f32(&ya), n_shards, makespan)
}

fn main() {
    let x: Vec<f32> = (0..N).map(|i| (i as f32 * 0.37).sin()).collect();
    let y: Vec<f32> = (0..N).map(|i| (i as f32 * 0.11).cos()).collect();

    let (y1, shards1, makespan1) = run(1, ShardCount::Fixed(1), &x, &y);
    assert_eq!(shards1, 1);
    println!("single device : {LAUNCHES} launches over {N} elements in {makespan1:.6} sim-s");

    let (y4, shards4, makespan4) = run(4, ShardCount::Auto, &x, &y);
    println!(
        "sharded (auto) : {shards4} shards, same launches in {makespan4:.6} sim-s ({:.2}x)",
        makespan1 / makespan4
    );
    assert_eq!(shards4, 4, "auto sharding fills the pool for large arrays");

    for (i, (a, b)) in y1.iter().zip(&y4).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "element {i}: sharded {b} != single-device {a}"
        );
    }
    println!("sharded result is bit-identical to the single-device session ({N} elements)");

    let speedup = makespan1 / makespan4;
    assert!(
        speedup >= 2.0,
        "expected >= 2x aggregate speedup at 4 shards, got {speedup:.2}x"
    );
    println!("OK — {speedup:.2}x aggregate launch throughput at 4 shards");
}

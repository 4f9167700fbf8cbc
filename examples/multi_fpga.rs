//! Multi-FPGA scaling walkthrough: shard a SAXPY workload across a pool of
//! four simulated U280s via `ftn-cluster` — each shard's host call placed
//! least-loaded, round-robin over the idle pool, so the shards overlap on
//! the simulated timeline — and compare aggregate launch throughput against
//! the single-device `Machine` path on the same workload.
//!
//! Run with: `cargo run --release --example multi_fpga`

use ftn_cluster::{ArtifactCache, ClusterMachine};
use ftn_core::{CompilerOptions, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

const N: usize = 100_000;
const SHARDS: usize = 8;

fn shard_data(shard: usize) -> (Vec<f32>, Vec<f32>) {
    let x: Vec<f32> = (0..N).map(|i| (shard * N + i) as f32 * 1e-6).collect();
    let y: Vec<f32> = vec![1.0; N];
    (x, y)
}

fn main() {
    // Compile once through the content-addressed cache; a second compile of
    // the same source would be a cache hit.
    let cache = ArtifactCache::new();
    let options = CompilerOptions::default();
    let artifacts = cache
        .get_or_compile(&options, ftn_bench::workloads::SAXPY_F90)
        .expect("saxpy compiles");
    let _ = cache
        .get_or_compile(&options, ftn_bench::workloads::SAXPY_F90)
        .expect("second lookup");
    let cs = cache.stats();
    println!(
        "artifact cache: {} miss, {} hit (key = {}...)",
        cs.misses,
        cs.hits,
        &ArtifactCache::key(ftn_bench::workloads::SAXPY_F90, &options)[..12]
    );

    // Baseline: one U280, shards run back-to-back.
    let mut single = Machine::load(&artifacts, DeviceModel::u280()).expect("machine loads");
    let mut single_sim = 0.0f64;
    let single_wall = std::time::Instant::now();
    for shard in 0..SHARDS {
        let (x, y) = shard_data(shard);
        let xa = single.host_f32(&x);
        let ya = single.host_f32(&y);
        let report = single
            .run(
                "saxpy",
                &[RtValue::I32(N as i32), RtValue::F32(2.0), xa, ya],
            )
            .expect("single-device shard");
        single_sim += report.stats.kernel_wall_seconds + report.stats.transfer_seconds;
    }
    let single_wall = single_wall.elapsed();
    println!(
        "single device : {SHARDS} launches in {:.3} ms simulated ({:.0} launches/simulated-s, host wall {:.0} ms)",
        single_sim * 1e3,
        SHARDS as f64 / single_sim,
        single_wall.as_secs_f64() * 1e3,
    );

    // Pool: four U280s; each shard's call goes to the next idle device.
    let devices = vec![DeviceModel::u280(); 4];
    let mut cluster = ClusterMachine::load(&artifacts, &devices).expect("pool loads");
    let pool_wall = std::time::Instant::now();
    let mut reports = Vec::new();
    let mut outputs = Vec::new();
    for shard in 0..SHARDS {
        let (x, y) = shard_data(shard);
        let xa = cluster.host_f32(&x);
        let ya = cluster.host_f32(&y);
        let report = cluster
            .run(
                "saxpy",
                &[RtValue::I32(N as i32), RtValue::F32(2.0), xa, ya.clone()],
            )
            .expect("shard completes");
        reports.push(report);
        outputs.push(ya);
    }
    let pool_wall = pool_wall.elapsed();

    // Validate every shard against the reference.
    for (shard, (report, ya)) in reports.iter().zip(&outputs).enumerate() {
        let (x, _) = shard_data(shard);
        let got = cluster.read_f32(ya);
        for i in 0..N {
            let expect = 1.0 + 2.0 * x[i];
            assert!((got[i] - expect).abs() < 1e-4, "shard {shard} element {i}");
        }
        println!(
            "  shard {shard} -> device {} ({} launch, {:.3} ms kernel)",
            report.device,
            report.report.stats.launches,
            report.report.stats.kernel_seconds * 1e3,
        );
    }

    let ps = cluster.pool_stats();
    // Per-device stats must sum to the pool totals.
    let per_device_launches: u64 = ps.devices.iter().map(|d| d.stats.launches).sum();
    assert_eq!(per_device_launches, ps.totals.launches);
    let per_device_kernel: f64 = ps.devices.iter().map(|d| d.stats.kernel_seconds).sum();
    assert!((per_device_kernel - ps.totals.kernel_seconds).abs() < 1e-12);

    let single_tput = SHARDS as f64 / single_sim;
    let pool_tput = ps.jobs as f64 / ps.makespan_sim_seconds;
    println!(
        "4-device pool : {} launches in {:.3} ms simulated makespan ({:.0} launches/simulated-s, host wall {:.0} ms)",
        ps.totals.launches,
        ps.makespan_sim_seconds * 1e3,
        pool_tput,
        pool_wall.as_secs_f64() * 1e3,
    );
    println!(
        "aggregate launch throughput: {:.2}x the single-device path (occupancy {:?})",
        pool_tput / single_tput,
        ps.occupancy
            .iter()
            .map(|o| (o * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    );
    assert!(
        pool_tput / single_tput >= 2.0,
        "expected >=2x aggregate throughput, got {:.2}x",
        pool_tput / single_tput
    );

    println!("\npool stats (JSON):");
    println!(
        "{}",
        serde_json::to_string_pretty(&ps).expect("stats serialize")
    );
    println!("OK");
}

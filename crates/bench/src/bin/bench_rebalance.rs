//! Emit `BENCH_rebalance.json`: a sharded session disturbed by a background
//! tenant on one device mid-session, auto-rebalance vs a frozen weighted
//! plan (≥ 1.2× launch throughput enforced for auto-rebalance).
//!
//! ```text
//! bench_rebalance [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    ftn_bench::driver::bench_main(
        "bench_rebalance",
        "BENCH_rebalance.json",
        |quick| {
            let (elements, launches) = if quick { (16384, 16) } else { (65536, 32) };
            ftn_bench::rebalance_bench::run(elements, launches)
        },
        |report| {
            println!(
                "pool: {} | tenant: {:.6} sim-s on device {}",
                report.pool.join(" | "),
                report.tenant_sim_seconds,
                report.tenant_device,
            );
            for p in [&report.frozen, &report.auto] {
                println!(
                    "{:>6}: rows {:?} -> {:?}, {} epoch(s) moved {} rows, {:7.0} launches/sim-s (makespan {:.6} sim-s)",
                    p.policy,
                    p.shard_rows_before,
                    p.shard_rows_after,
                    p.replans,
                    p.rows_migrated,
                    p.launches_per_sim_second,
                    p.makespan_sim_seconds,
                );
            }
            println!(
                "auto-rebalance vs frozen launch throughput: {:.2}x",
                report.rebalance_speedup
            );
            let mut violations = Vec::new();
            if report.rebalance_speedup < 1.2 {
                violations.push(format!(
                    "expected >= 1.2x launch throughput from auto-rebalance under a background tenant, got {:.2}x",
                    report.rebalance_speedup
                ));
            }
            if report.auto.replans == 0 || report.auto.rows_migrated == 0 {
                violations.push("the auto point never executed a migration epoch".to_string());
            }
            violations
        },
    )
}

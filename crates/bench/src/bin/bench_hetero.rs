//! Emit `BENCH_hetero.json`: weighted vs uniform shard plans on a
//! 2:1-speed 4-device pool (≥ 1.25× launch throughput enforced for the
//! weighted plan) and the fan-out's submit cost with its message count
//! (one message per device enforced).
//!
//! ```text
//! bench_hetero [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    ftn_bench::driver::bench_main(
        "bench_hetero",
        "BENCH_hetero.json",
        |quick| {
            let (elements, launches) = if quick { (16384, 8) } else { (65536, 16) };
            ftn_bench::hetero_bench::run(elements, launches)
        },
        |report| {
            println!("pool: {}", report.pool.join(" | "));
            for p in [&report.weighted, &report.uniform] {
                println!(
                    "{:>8} plan: rows {:?} on devices {:?}, {:7.0} launches/sim-s (makespan {:.6} sim-s)",
                    p.plan, p.shard_rows, p.devices, p.launches_per_sim_second, p.makespan_sim_seconds,
                );
            }
            println!(
                "weighted vs uniform launch throughput: {:.2}x",
                report.weighted_speedup
            );
            let s = &report.submit;
            println!(
                "submit cost at {} shards: {:6.1} us/launch in {:.0} messages",
                s.shards, s.batched_us_per_launch, s.batched_messages_per_launch,
            );
            let mut violations = Vec::new();
            if report.weighted_speedup < 1.25 {
                violations.push(format!(
                    "expected >= 1.25x launch throughput from weighted plans on the 2:1 pool, got {:.2}x",
                    report.weighted_speedup
                ));
            }
            if s.batched_messages_per_launch != report.pool.len() as f64 {
                violations.push(format!(
                    "expected one worker message per device per launch ({}), got {:.2}",
                    report.pool.len(),
                    s.batched_messages_per_launch
                ));
            }
            violations
        },
    )
}

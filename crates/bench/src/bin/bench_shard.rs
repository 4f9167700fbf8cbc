//! Emit `BENCH_shard.json`: sharded-session launch throughput at 1/2/4
//! devices and keep-alive vs connection-per-request latency.
//!
//! ```text
//! bench_shard [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    ftn_bench::driver::bench_main(
        "bench_shard",
        "BENCH_shard.json",
        |quick| {
            let (elements, launches, keepalive) = if quick {
                (16384, 8, 16)
            } else {
                (65536, 16, 64)
            };
            ftn_bench::shard_bench::run(elements, launches, keepalive)
        },
        |report| {
            for p in &report.points {
                println!(
                    "N={} devices ({} shards): {:7.0} launches/sim-s, makespan {:.6} sim-s ({:4.2}x vs single device)",
                    p.devices,
                    p.shards,
                    p.launches_per_sim_second,
                    p.makespan_sim_seconds,
                    p.speedup_vs_single_device,
                );
            }
            let ka = &report.keep_alive;
            println!(
                "keep-alive: {:6.1} us/request vs {:6.1} us/request with per-request connections ({:.2}x)",
                ka.keepalive_us_per_request, ka.close_us_per_request, ka.speedup
            );
            let n4 = report
                .points
                .iter()
                .find(|p| p.devices == 4)
                .expect("4-device point");
            let mut violations = Vec::new();
            if n4.speedup_vs_single_device < 2.0 {
                violations.push(format!(
                    "expected >= 2x aggregate launch throughput at N=4, got {:.2}x",
                    n4.speedup_vs_single_device
                ));
            }
            violations
        },
    )
}

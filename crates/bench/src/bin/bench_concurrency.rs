//! Emit `BENCH_concurrency.json`: aggregate launch throughput and p50/p99
//! launch latency at 8/64/256 concurrent keep-alive sessions, plus the
//! mid-epoch case — untouched sessions' launch p99 while rebalance epochs
//! hammer a co-resident sharded session. The process exits non-zero if the
//! mid-epoch p99 ratio exceeds `MAX_MID_EPOCH_P99_RATIO` or no epoch ran.
//!
//! ```text
//! bench_concurrency [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

use ftn_bench::concurrency_bench::MAX_MID_EPOCH_P99_RATIO;

fn main() -> ExitCode {
    ftn_bench::driver::bench_main(
        "bench_concurrency",
        "BENCH_concurrency.json",
        ftn_bench::concurrency_bench::run,
        |report| {
            for p in &report.points {
                println!(
                    "{:3} sessions: p50 {:7.1} us, p99 {:7.1} us, {:7.0} launches/s",
                    p.sessions,
                    p.p50_seconds * 1e6,
                    p.p99_seconds * 1e6,
                    p.throughput_lps,
                );
            }
            let m = &report.mid_epoch;
            println!(
                "mid-epoch: {} untouched sessions x {} launches, {} epochs ({} migrated): \
                 p99 {:7.1} us quiet vs {:7.1} us mid-epoch = {:.2}x ({} hardware thread(s))",
                m.untouched_sessions,
                m.launches_per_session,
                m.epochs,
                m.migrated_epochs,
                m.no_epoch_p99_seconds * 1e6,
                m.mid_epoch_p99_seconds * 1e6,
                m.p99_ratio,
                report.cpus,
            );
            let mut violations = Vec::new();
            if m.epochs == 0 {
                violations.push("the mid-epoch phase completed no rebalance epochs".to_string());
            }
            if m.p99_ratio > MAX_MID_EPOCH_P99_RATIO {
                violations.push(format!(
                    "mid-epoch p99 ratio {:.2}x exceeds the {MAX_MID_EPOCH_P99_RATIO:.1}x \
                     ceiling — epochs are stalling sessions they do not migrate",
                    m.p99_ratio,
                ));
            }
            violations
        },
    )
}

//! Emit `BENCH_obs.json`: end-to-end request latency (p50/p99) at 1/8/64
//! concurrent keep-alive clients, the tracing layer's enabled-vs-disabled
//! overhead, the self-monitoring layer's scrape-on-vs-off overhead
//! (time-series store + SLO burn-rate evaluation at 100 ms cadence), and
//! the continuous profiler's poll-vs-idle overhead (a sidecar connection
//! folding `GET /profile` at 100 Hz) — the process exits non-zero if any
//! overhead exceeds the 3% budget
//! (`ftn_bench::obs_bench::MAX_OVERHEAD_FRACTION`).
//!
//! ```text
//! bench_obs [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

use ftn_bench::obs_bench::MAX_OVERHEAD_FRACTION;

fn main() -> ExitCode {
    ftn_bench::driver::bench_main(
        "bench_obs",
        "BENCH_obs.json",
        |quick| {
            let (requests_per_client, trials, burst) =
                if quick { (50, 7, 100) } else { (200, 11, 200) };
            ftn_bench::obs_bench::run(requests_per_client, trials, burst)
        },
        |report| {
            for p in &report.latency {
                println!(
                    "{:2} clients: p50 {:7.1} us, p99 {:7.1} us, {:7.0} req/s ({} requests)",
                    p.clients,
                    p.p50_seconds * 1e6,
                    p.p99_seconds * 1e6,
                    p.throughput_rps,
                    p.requests,
                );
            }
            let o = &report.overhead;
            println!(
                "tracing overhead: {:.2}% floor / {:.2}% median (best: enabled {:.4}s vs disabled {:.4}s over {} requests, {} interleaved pairs); disabled span = {:.1} ns/call",
                o.overhead_fraction * 100.0,
                o.median_overhead_fraction * 100.0,
                o.enabled_seconds,
                o.disabled_seconds,
                o.requests_per_trial,
                o.trials,
                o.disabled_span_nanos,
            );
            let s = &report.scrape_overhead;
            println!(
                "scrape+SLO overhead @ {} ms cadence: {:.2}% floor / {:.2}% median (best: scraping {:.4}s vs off {:.4}s over {} requests, {} interleaved pairs; SLOs: {})",
                s.scrape_interval_ms,
                s.overhead_fraction * 100.0,
                s.median_overhead_fraction * 100.0,
                s.enabled_seconds,
                s.disabled_seconds,
                s.requests_per_trial,
                s.trials,
                s.slos.join(", "),
            );
            let p = &report.profile_overhead;
            println!(
                "profile-poll overhead @ {} ms cadence: {:.2}% floor / {:.2}% median (best: polling {:.4}s vs idle {:.4}s over {} requests, {} interleaved pairs, {} polls)",
                p.poll_interval_ms,
                p.overhead_fraction * 100.0,
                p.median_overhead_fraction * 100.0,
                p.enabled_seconds,
                p.disabled_seconds,
                p.requests_per_trial,
                p.trials,
                p.polls,
            );
            [
                ("tracing", o.overhead_fraction),
                ("scrape+SLO", s.overhead_fraction),
                ("profile-poll", p.overhead_fraction),
            ]
            .iter()
            .filter(|(_, fraction)| *fraction > MAX_OVERHEAD_FRACTION)
            .map(|(what, fraction)| {
                format!(
                    "{what} overhead {:.2}% exceeds the {:.0}% budget",
                    fraction * 100.0,
                    MAX_OVERHEAD_FRACTION * 100.0,
                )
            })
            .collect()
        },
    )
}

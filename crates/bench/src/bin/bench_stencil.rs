//! Emit `BENCH_stencil.json`: the halo-refresh Jacobi loop versus the
//! naive gather/re-scatter baseline at 1/2/4 devices, with an enforced
//! `>= 2x` floor on the inter-launch exchange at N=4 (boundary-row
//! refresh versus closing and re-opening the session between sweeps).
//!
//! ```text
//! bench_stencil [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    ftn_bench::driver::bench_main(
        "bench_stencil",
        "BENCH_stencil.json",
        |quick| {
            let (elements, iters, trials) = if quick { (32768, 8, 2) } else { (65536, 12, 3) };
            ftn_bench::stencil_bench::run(elements, iters, trials)
        },
        |report| {
            for p in &report.points {
                println!(
                    "N={} devices ({} shards): exchange {:7.1} us refresh vs {:7.1} us gather/re-scatter \
                     ({:5.2}x); loop {:.4}s vs {:.4}s ({:4.2}x); {} halo B/refresh vs {} round-trip B",
                    p.devices,
                    p.shards,
                    p.refresh_us_per_exchange,
                    p.gather_rescatter_us_per_exchange,
                    p.exchange_speedup,
                    p.refresh_loop_seconds,
                    p.baseline_loop_seconds,
                    p.end_to_end_speedup,
                    p.halo_bytes_per_refresh,
                    p.full_roundtrip_bytes_per_exchange,
                );
            }
            let n4 = report
                .points
                .iter()
                .find(|p| p.devices == 4)
                .expect("4-device point");
            let mut violations = Vec::new();
            if n4.exchange_speedup < 2.0 {
                violations.push(format!(
                    "expected >= 2x inter-launch exchange throughput from halo refresh at N=4, \
                     got {:.2}x",
                    n4.exchange_speedup
                ));
            }
            if n4.halo_bytes_per_refresh * 8 > n4.full_roundtrip_bytes_per_exchange {
                violations.push(format!(
                    "halo traffic ({} B/refresh) is not boundary-rows-only against a {} B round trip",
                    n4.halo_bytes_per_refresh, n4.full_roundtrip_bytes_per_exchange
                ));
            }
            violations
        },
    )
}

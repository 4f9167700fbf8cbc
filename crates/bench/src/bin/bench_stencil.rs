//! Emit `BENCH_stencil.json`: the halo-refresh Jacobi loop at 1/2/4
//! devices. Wall-clock figures are reported; the enforced floors are
//! deterministic — a refresh moves exactly the boundary rows and costs at
//! most one gather and one apply message per device (the loop is asserted
//! bit-identical to the single-device run while measuring).
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
            let mut violations = Vec::new();
            for p in &report.points {
                println!(
                    "N={} devices ({} shards): {:7.1} us/refresh, loop {:.4}s; \
                     {} halo B/refresh in {} messages",
                    p.devices,
                    p.shards,
                    p.refresh_us_per_exchange,
                    p.refresh_loop_seconds,
                    p.halo_bytes_per_refresh,
                    p.messages_per_refresh,
                );
                if p.halo_bytes_per_refresh != p.expected_halo_bytes_per_refresh {
                    violations.push(format!(
                        "N={}: a refresh moved {} B, boundary rows alone are {} B",
                        p.devices, p.halo_bytes_per_refresh, p.expected_halo_bytes_per_refresh
                    ));
                }
                if p.messages_per_refresh > 2 * p.devices as u64 {
                    violations.push(format!(
                        "N={}: a refresh sent {} worker messages, more than one gather \
                         and one apply per device",
                        p.devices, p.messages_per_refresh
                    ));
                }
            }
            violations
        },
    )
}

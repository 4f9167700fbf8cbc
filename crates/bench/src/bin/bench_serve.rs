//! Emit `BENCH_serve.json`: session launch throughput and transfer-elision
//! ratio at 1/2/4 pool devices.
//!
//! ```text
//! bench_serve [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    ftn_bench::driver::bench_main(
        "bench_serve",
        "BENCH_serve.json",
        |quick| {
            let (elements, sessions_per_device, launches) =
                if quick { (4096, 2, 8) } else { (16384, 2, 16) };
            ftn_bench::serve_bench::run(elements, sessions_per_device, launches)
        },
        |report| {
            for p in &report.points {
                println!(
                    "N={} devices: {:7.0} launches/sim-s with sessions vs {:6.0} sessionless ({:4.1}x), {:5.1}% transfers elided",
                    p.devices,
                    p.session_launches_per_sim_second,
                    p.sessionless_launches_per_sim_second,
                    p.speedup_vs_sessionless,
                    p.transfer_elision_ratio * 100.0,
                );
            }
            Vec::new()
        },
    )
}

//! Ablation: the `simd simdlen(U)` clause (DESIGN.md design choice — partial
//! unrolling as the paper's "sweet spot"). Sweeps the unroll factor for SAXPY
//! and reports kernel time, II per element, and resource cost, showing the
//! bandwidth-bound plateau the paper describes (unrolling past the memory
//! limit buys nothing but still costs logic).
//!
//! Runs the sweep on scoped threads (one compile per factor is independent).

use ftn_core::{Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

fn source(simdlen: Option<u32>) -> String {
    let clause = match simdlen {
        Some(u) => format!(" simd simdlen({u})"),
        None => String::new(),
    };
    format!(
        r#"
subroutine saxpy(n, a, x, y)
  implicit none
  integer :: n, i
  real :: a, x(n), y(n)
  !$omp target parallel do{clause}
  do i = 1, n
    y(i) = y(i) + a*x(i)
  end do
  !$omp end target parallel do{clause}
end subroutine saxpy
"#
    )
}

struct Row {
    label: String,
    kernel_ms: f64,
    cycles_per_elem: f64,
    lut: u64,
    dsp: u64,
}

fn measure(simdlen: Option<u32>, n: usize) -> Row {
    let artifacts = Compiler::default()
        .compile_source(&source(simdlen))
        .expect("compiles");
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).expect("loads");
    let x = vec![1.0f32; n];
    let y = vec![2.0f32; n];
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y);
    let report = machine
        .run(
            "saxpy",
            &[RtValue::I32(n as i32), RtValue::F32(2.0), xa, ya],
        )
        .expect("runs");
    let res = artifacts.bitstream.kernel_resources();
    Row {
        label: match simdlen {
            Some(u) => format!("simdlen({u})"),
            None => "no simd".into(),
        },
        kernel_ms: report.stats.kernel_seconds * 1e3,
        cycles_per_elem: report.stats.total_cycles as f64 / n as f64,
        lut: res.lut,
        dsp: res.dsp,
    }
}

fn main() {
    let n = 100_000;
    let factors: Vec<Option<u32>> = vec![None, Some(2), Some(5), Some(10), Some(20), Some(40)];
    let mut rows: Vec<Option<Row>> = (0..factors.len()).map(|_| None).collect();
    // The scope joins every thread and re-raises a panic from any of them.
    std::thread::scope(|s| {
        for (slot, f) in rows.iter_mut().zip(&factors) {
            let f = *f;
            s.spawn(move || {
                *slot = Some(measure(f, n));
            });
        }
    });

    println!("== Ablation: SAXPY simdlen sweep (N = {n}) ==");
    println!(
        "{:12} | {:>12} | {:>14} | {:>10} | {:>6}",
        "variant", "kernel (ms)", "cycles/element", "LUT", "DSP"
    );
    for row in rows.into_iter().flatten() {
        println!(
            "{:12} | {:>12.3} | {:>14.1} | {:>10} | {:>6}",
            row.label, row.kernel_ms, row.cycles_per_elem, row.lut, row.dsp
        );
    }
    println!();
    println!("Memory-bandwidth bound: any unrolling flips the y-port from serialized");
    println!("RMW (96 cyc/elem) to streaming (32 cyc/elem), after which the per-element");
    println!("cost plateaus at the bandwidth limit; FU sharing keeps logic flat. Partial");
    println!("unrolling is the paper's 'sweet spot' — full unrolling would buy nothing.");
}

//! Reduction offload: the `reduction(+:s)` clause lowered through the
//! paper's round-robin copy scheme (§3) — `simdlen(8)` splits the accumulator
//! into 8 loop-carried copies combined after the loop, so the pipeline is not
//! bound by the floating-point add latency.
//!
//! Run with: `cargo run --example dot_reduction`

use ftn_bench::workloads;
use ftn_core::{Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

/// The benchmark's loop with the reduced `s` stored to a one-element array,
/// so the host can read the value back.
const DOTWRAP_F90: &str = r#"
subroutine dotwrap(n, x, y, out)
  implicit none
  integer :: n, i
  real :: x(n), y(n), out(1), s
  s = 0.0
  !$omp target parallel do simd simdlen(8) reduction(+:s)
  do i = 1, n
    s = s + x(i)*y(i)
  end do
  !$omp end target parallel do simd
  out(1) = s
end subroutine dotwrap
"#;

fn main() {
    let source = format!("{}{DOTWRAP_F90}", workloads::DOTPROD_F90);
    let artifacts = Compiler::default()
        .compile_source(&source)
        .expect("compiles");

    // The schedule shows the dependence relaxation: II is bound by memory,
    // not by the 7-cycle fadd chain.
    let kernel = &artifacts.bitstream.kernels[0];
    println!("kernel '{}':", kernel.name);
    for s in &kernel.schedule {
        println!(
            "  loop {}: II={} unroll={} (fadd latency 7 relaxed by round-robin copies)",
            s.loop_index, s.ii, s.unroll
        );
    }

    let n = 1000;
    let x = workloads::random_vec(n, 7, -1.0, 1.0);
    let y = workloads::random_vec(n, 8, -1.0, 1.0);
    let expect: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    // The copies add in a different order than the reference: allow the
    // rounding of n additions over the products' magnitudes.
    let tolerance =
        n as f32 * f32::EPSILON * x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum::<f32>();

    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).expect("loads");
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y);
    let out = machine.host_f32(&[0.0]);
    machine
        .run("dotwrap", &[RtValue::I32(n as i32), xa, ya, out.clone()])
        .expect("runs");
    let got = machine.read_f32(&out)[0];
    println!("reduced dot product = {got}, reference = {expect}");
    assert!(
        (got - expect).abs() <= tolerance,
        "dot product {got} vs reference {expect} (tolerance {tolerance})"
    );
    println!("OK — the reduction kernel matches the CPU reference");
}

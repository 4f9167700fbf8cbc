//! Deterministic shape pin for the bytecode the five `benchmarks/*.f90`
//! device kernels lower to: the exact instruction count per iteration of
//! every innermost loop and whether its iterations may run in strips, read
//! off `Program::disassemble`. No clock is involved — a change that quietly
//! defeats lowering's value numbering or the strip plan fails here rather
//! than in a benchmark, and one that shortens a body says so by moving the
//! count.

use ftn_core::Compiler;
use ftn_interp::Program;
use ftn_mlir::Ir;

/// Body length and `strip` mark of the innermost loops of `kernel`, in code
/// order, parsed from the `[strip ]body=[a,b)` tails of the listing's loop
/// lines.
fn innermost_loop_bodies(program: &Program, kernel: &str) -> Vec<(usize, bool)> {
    let listing = program.disassemble(kernel);
    let bodies: Vec<(usize, usize, bool)> = listing
        .lines()
        .filter(|line| line.contains(" loop "))
        .map(|line| {
            let range = line
                .rsplit("body=[")
                .next()
                .expect("loop lines end in a range");
            let (start, end) = range
                .trim_end_matches(')')
                .split_once(',')
                .expect("half-open range");
            let planned = line.contains(" strip body=[");
            (start.parse().unwrap(), end.parse().unwrap(), planned)
        })
        .collect();
    assert!(!bodies.is_empty(), "{kernel} has no loop:\n{listing}");
    bodies
        .iter()
        .filter(|(start, end, _)| !bodies.iter().any(|(s, ..)| start < s && s < end))
        .map(|&(start, end, planned)| (end - start, planned))
        .collect()
}

/// An innermost loop: its instruction count per iteration after value
/// numbering, and whether it is strip-planned (a loop that carries values is
/// not: an order-keeping fold of the lanes is future work).
type LoopShape = (usize, bool);

/// Benchmark, device kernel and its innermost loops in code order.
const KERNELS: [(&str, &str, &[LoopShape]); 6] = [
    // The `simdlen(10)` body and its scalar epilogue.
    ("saxpy", "saxpy_kernel0", &[(89, true), (8, true)]),
    // The 8-way unrolled reduction and its epilogue.
    ("dotprod", "dotprod_kernel0", &[(63, false), (7, false)]),
    ("jacobi", "jacobi_kernel0", &[(14, true)]),
    ("heat", "heat_kernel0", &[(19, true)]),
    ("sgesl", "sgesl_kernel0", &[(12, true)]),
    ("sgesl", "sgesl_kernel1", &[(12, true)]),
];

#[test]
fn innermost_loops_of_the_benchmark_kernels_keep_their_instruction_counts() {
    for (bench, kernel, loops) in KERNELS {
        let source = std::fs::read_to_string(format!(
            "{}/benchmarks/{bench}.f90",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap();
        let artifacts = Compiler::default().compile_source(&source).unwrap();
        let mut ir = Ir::new();
        let module = artifacts.bitstream.instantiate(&mut ir).unwrap();
        let program = Program::lower_module(&ir, module);
        let bodies = innermost_loop_bodies(&program, kernel);
        assert_eq!(
            bodies,
            loops,
            "{kernel}: (instructions per iteration, strip plan)\n{}",
            program.disassemble(kernel)
        );
    }
}

//! Deterministic shape floor for the bytecode the five `benchmarks/*.f90`
//! device kernels lower to: the instruction count per iteration of every
//! innermost loop and whether its iterations may run in strips, read off
//! `Program::disassemble`. No clock is involved — a change that quietly
//! defeats lowering's value numbering, the fusion peephole or the strip plan
//! fails here rather than in a benchmark.

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

/// An innermost loop: its instruction count per iteration before numbering
/// and fusion existed (PR 16), the elements one iteration covers, and whether
/// it is strip-planned (a loop that carries values is not: an order-keeping
/// fold of the lanes is future work).
type LoopShape = (usize, usize, bool);

/// Benchmark, device kernel and its innermost loops in code order.
const KERNELS: [(&str, &str, &[LoopShape]); 6] = [
    // The `simdlen(10)` body and its scalar epilogue.
    ("saxpy", "saxpy_kernel0", &[(129, 10, true), (12, 1, true)]),
    // The 8-way unrolled reduction and its epilogue.
    (
        "dotprod",
        "dotprod_kernel0",
        &[(79, 8, false), (9, 1, false)],
    ),
    ("jacobi", "jacobi_kernel0", &[(14, 1, true)]),
    ("heat", "heat_kernel0", &[(23, 1, true)]),
    ("sgesl", "sgesl_kernel0", &[(16, 1, true)]),
    ("sgesl", "sgesl_kernel1", &[(16, 1, true)]),
];

#[test]
fn innermost_loops_of_the_benchmark_kernels_stay_fused() {
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
        assert_eq!(bodies.len(), loops.len(), "{kernel}: innermost loops");
        for (&(now, planned), &(before, elements, plan)) in bodies.iter().zip(loops) {
            assert_eq!(
                planned,
                plan,
                "{kernel}: strip plan\n{}",
                program.disassemble(kernel)
            );
            // At least 40 % below the unfused count ...
            assert!(
                now * 10 <= before * 6,
                "{kernel}: {now} instructions per iteration, {before} before\n{}",
                program.disassemble(kernel)
            );
            // ... and the paper's Table-1 kernel at no more than 6 per element.
            if bench == "saxpy" {
                assert!(
                    now <= 6 * elements,
                    "{kernel}: {now} for {elements} elements"
                );
            }
        }
    }
}

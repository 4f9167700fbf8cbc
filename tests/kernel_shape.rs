//! Deterministic shape pin for the bytecode the five `benchmarks/*.f90`
//! device kernels lower to: the exact instruction count per iteration of
//! every innermost loop, whether its iterations may run in strips and how
//! many unrolled copies of one iteration its strips run as one, read off
//! `Program::disassemble`. No clock is involved — a change that quietly
//! defeats lowering's value numbering or the strip plan fails here rather
//! than in a benchmark, and one that shortens a body says so by moving the
//! count.

use ftn_core::Compiler;
use ftn_interp::Program;
use ftn_mlir::Ir;

/// Body length, `strip` mark and copy count of the innermost loops of
/// `kernel`, in code order, parsed from the `[strip [copies=K ]]body=[a,b)`
/// tails of the listing's loop lines.
fn innermost_loop_bodies(program: &Program, kernel: &str) -> Vec<LoopShape> {
    let listing = program.disassemble(kernel);
    let bodies: Vec<(usize, usize, bool, usize)> = listing
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
            let planned = line.contains(" strip ");
            let copies = match line.split_once(" copies=") {
                Some((_, rest)) => rest.split(' ').next().unwrap().parse().unwrap(),
                None => 1,
            };
            (
                start.parse().unwrap(),
                end.parse().unwrap(),
                planned,
                copies,
            )
        })
        .collect();
    assert!(!bodies.is_empty(), "{kernel} has no loop:\n{listing}");
    bodies
        .iter()
        .filter(|(start, end, ..)| !bodies.iter().any(|(s, ..)| start < s && s < end))
        .map(|&(start, end, planned, copies)| (end - start, planned, copies))
        .collect()
}

/// An innermost loop: its instruction count per iteration after value
/// numbering, whether it is strip-planned (a loop that carries values is
/// not: an order-keeping fold of the lanes is future work), and how many
/// copies of one iteration its body is (1 unless a strip re-rolls it).
type LoopShape = (usize, bool, usize);

/// Benchmark, device kernel and its innermost loops in code order.
const KERNELS: [(&str, &str, &[LoopShape]); 6] = [
    // The `simdlen(10)` body, ten copies of one 8-instruction iteration
    // that strips run as one, and its scalar epilogue.
    ("saxpy", "saxpy_kernel0", &[(89, true, 10), (8, true, 1)]),
    // The 8-way unrolled reduction and its epilogue.
    (
        "dotprod",
        "dotprod_kernel0",
        &[(63, false, 1), (7, false, 1)],
    ),
    ("jacobi", "jacobi_kernel0", &[(14, true, 1)]),
    ("heat", "heat_kernel0", &[(19, true, 1)]),
    ("sgesl", "sgesl_kernel0", &[(12, true, 1)]),
    ("sgesl", "sgesl_kernel1", &[(12, true, 1)]),
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
            "{kernel}: (instructions per iteration, strip plan, copies)\n{}",
            program.disassemble(kernel)
        );
    }
}

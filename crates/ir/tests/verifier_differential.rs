//! Differential suite: the previous per-region verifier (`oracle/`) against
//! the one-pass verifier, on accept/reject.
//!
//! (a) All five `benchmarks/*.f90` after the frontend and after every pass
//!     of the host, device and device-LLVM pipelines, plus the `llvm`-dialect
//!     module (the one stage with multi-block regions).
//! (b) A seeded mutation corpus over those modules: swap two ops in a block,
//!     drop one `Use` entry, redirect an operand to a later value, redirect
//!     it to a value of a region that does not enclose the use, re-target a
//!     CFG edge, kill an op without unlinking it.
//!
//! The two verifiers must agree everywhere except on the two defects the
//! rewrite fixed, and those only in the mutation class that plants them: a
//! dead op still linked into a block, and an operand defined in a region
//! that does not enclose its use. The oracle accepts both.

mod oracle;

use ftn_dialects::registry;
use ftn_mlir::{
    parse_module, print_op, verify, walk_preorder, BlockId, Def, Ir, OpId, Pass, RegionId, ValueId,
    VerifierRegistry,
};
use ftn_passes::{
    extract_device_module, CanonicalizePass, FirToCorePass, HlsToFuncPass, LowerOmpMappedDataPass,
    LowerOmpTargetRegionPass, LowerOmpToHlsPass,
};

const BENCHMARKS: [(&str, &str); 5] = [
    ("saxpy", include_str!("../../../benchmarks/saxpy.f90")),
    ("sgesl", include_str!("../../../benchmarks/sgesl.f90")),
    ("dotprod", include_str!("../../../benchmarks/dotprod.f90")),
    ("jacobi", include_str!("../../../benchmarks/jacobi.f90")),
    ("heat", include_str!("../../../benchmarks/heat.f90")),
];

const DEAD_OP: &str = "dead op still reachable";
const NOT_ENCLOSING: &str = "operand defined in a region that does not enclose its use";

/// One module of the flow, as text: every mutation starts from a fresh parse.
struct Stage {
    name: String,
    text: String,
}

/// Both verifiers on `root`; they must agree. Returns the shared verdict.
fn agree(what: &str, ir: &Ir, root: OpId, reg: &VerifierRegistry) -> bool {
    let old = oracle::verify(ir, root, reg);
    let new = verify(ir, root, reg);
    assert_eq!(
        old.is_ok(),
        new.is_ok(),
        "{what}: oracle says {old:?}, one-pass verifier says {new:?}"
    );
    new.is_ok()
}

/// Run the Figure-2 flow on `source` one pass at a time, checking the two
/// verifiers against each other (and for acceptance) after every step.
fn stages_of(bench: &str, source: &str) -> Vec<Stage> {
    let reg = registry();
    let mut stages = Vec::new();
    let mut ir = Ir::new();
    let program = ftn_frontend::parse(source).unwrap();
    let info = ftn_frontend::analyze(&program).unwrap();
    let module = ftn_frontend::lower_program(&mut ir, &program, &info).unwrap();

    let mut snapshot = |ir: &Ir, root: OpId, step: &str| {
        let name = format!("{bench}/{step}");
        assert!(agree(&name, ir, root, &reg), "{name}: the flow's own IR");
        stages.push(Stage {
            name,
            text: print_op(ir, root),
        });
    };
    snapshot(&ir, module, "frontend");

    let mut host: Vec<Box<dyn Pass>> = vec![
        Box::new(FirToCorePass),
        Box::new(LowerOmpMappedDataPass::new()),
        Box::new(LowerOmpTargetRegionPass::new()),
        Box::new(CanonicalizePass),
    ];
    let names: Vec<&str> = host.iter().map(|p| p.name()).collect();
    assert_eq!(names, ftn_passes::host_pipeline().pipeline());
    for pass in &mut host {
        pass.run(&mut ir, module).unwrap();
        snapshot(&ir, module, &format!("host/{}", pass.name()));
    }

    let device_module = extract_device_module(&mut ir, module);
    snapshot(&ir, module, "extract/host");
    snapshot(&ir, device_module, "extract/device");

    let mut device: Vec<Box<dyn Pass>> =
        vec![Box::new(LowerOmpToHlsPass), Box::new(CanonicalizePass)];
    let names: Vec<&str> = device.iter().map(|p| p.name()).collect();
    assert_eq!(names, ftn_passes::device_pipeline().pipeline());
    for pass in &mut device {
        pass.run(&mut ir, device_module).unwrap();
        snapshot(&ir, device_module, &format!("device/{}", pass.name()));
    }

    let mut device_llvm: Vec<Box<dyn Pass>> =
        vec![Box::new(HlsToFuncPass), Box::new(CanonicalizePass)];
    let names: Vec<&str> = device_llvm.iter().map(|p| p.name()).collect();
    assert_eq!(names, ftn_passes::device_llvm_pipeline().pipeline());
    for pass in &mut device_llvm {
        pass.run(&mut ir, device_module).unwrap();
        snapshot(&ir, device_module, &format!("device-llvm/{}", pass.name()));
    }

    let llvm_module = ftn_llvm::convert_to_llvm_dialect(&mut ir, device_module).unwrap();
    snapshot(&ir, llvm_module, "llvm-dialect");
    stages
}

fn all_stages() -> Vec<Stage> {
    BENCHMARKS
        .iter()
        .flat_map(|(bench, source)| stages_of(bench, source))
        .collect()
}

#[test]
fn verifiers_agree_after_every_pass_of_the_flow() {
    let stages = all_stages();
    // frontend + 4 host + 2 extract + 2 device + 2 device-llvm + llvm-dialect.
    assert_eq!(stages.len(), BENCHMARKS.len() * 12);
    // The printed form of every stage parses back into IR both accept.
    let reg = registry();
    for stage in &stages {
        let mut ir = Ir::new();
        let root = parse_module(&mut ir, &stage.text).unwrap();
        assert!(agree(&stage.name, &ir, root, &reg), "{}", stage.name);
    }
}

// ---- mutation corpus --------------------------------------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.below(items.len())])
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    SwapOps,
    DropUse,
    UseLaterValue,
    UseForeignRegionValue,
    RetargetEdge,
    KillLinkedOp,
}

const MUTATIONS: [Mutation; 6] = [
    Mutation::SwapOps,
    Mutation::DropUse,
    Mutation::UseLaterValue,
    Mutation::UseForeignRegionValue,
    Mutation::RetargetEdge,
    Mutation::KillLinkedOp,
];

/// Ops under `root` that sit in a block (everything but `root`).
fn nested_ops(ir: &Ir, root: OpId) -> Vec<OpId> {
    walk_preorder(ir, root)
        .into_iter()
        .filter(|&o| o != root)
        .collect()
}

/// (op, operand index) of every operand under `root`.
fn operand_slots(ir: &Ir, root: OpId) -> Vec<(OpId, usize)> {
    nested_ops(ir, root)
        .into_iter()
        .flat_map(|o| (0..ir.op(o).operands.len()).map(move |i| (o, i)))
        .collect()
}

fn region_of_op(ir: &Ir, op: OpId) -> Option<RegionId> {
    ir.block(ir.op(op).parent?).parent
}

fn region_of_value(ir: &Ir, v: ValueId) -> Option<RegionId> {
    match ir.value(v).def {
        Def::OpResult { op, .. } => region_of_op(ir, op),
        Def::BlockArg { block, .. } => ir.block(block).parent,
    }
}

/// Does `region` enclose `op` (at any depth)?
fn encloses(ir: &Ir, region: RegionId, op: OpId) -> bool {
    let mut at = Some(op);
    while let Some(o) = at {
        match region_of_op(ir, o) {
            Some(r) if r == region => return true,
            Some(r) => at = ir.region(r).parent,
            None => return false,
        }
    }
    false
}

/// Every value defined under `root`: block arguments and op results.
fn values_under(ir: &Ir, root: OpId) -> Vec<ValueId> {
    let mut out = Vec::new();
    for op in walk_preorder(ir, root) {
        if op != root {
            out.extend(&ir.op(op).results);
        }
        for &r in &ir.op(op).regions {
            for &b in &ir.region(r).blocks {
                out.extend(&ir.block(b).args);
            }
        }
    }
    out
}

/// Apply one seeded mutation of the given kind; `false` when the module
/// offers no site for it.
fn mutate(ir: &mut Ir, root: OpId, kind: Mutation, rng: &mut Rng) -> bool {
    match kind {
        Mutation::SwapOps => {
            let blocks: Vec<BlockId> = nested_ops(ir, root)
                .into_iter()
                .filter_map(|o| ir.op(o).parent)
                .filter(|&b| ir.block(b).ops.len() >= 2)
                .collect();
            let Some(block) = rng.pick(&blocks) else {
                return false;
            };
            let n = ir.block(block).ops.len();
            let (i, j) = (rng.below(n), rng.below(n));
            ir.block_mut(block).ops.swap(i, j);
            i != j
        }
        Mutation::DropUse => {
            let Some((op, i)) = rng.pick(&operand_slots(ir, root)) else {
                return false;
            };
            let v = ir.op(op).operands[i];
            ir.value_mut(v)
                .uses
                .retain(|u| !(u.op == op && u.index == i as u32));
            true
        }
        Mutation::UseLaterValue => {
            // An operand of op `i` becomes a result of op `j > i` of its block.
            let users: Vec<OpId> = nested_ops(ir, root)
                .into_iter()
                .filter(|&o| !ir.op(o).operands.is_empty())
                .collect();
            let Some(user) = rng.pick(&users) else {
                return false;
            };
            let (block, pos) = ir.op_position(user).unwrap();
            let later: Vec<ValueId> = ir.block(block).ops[pos + 1..]
                .iter()
                .flat_map(|&o| ir.op(o).results.to_vec())
                .collect();
            let Some(v) = rng.pick(&later) else {
                return false;
            };
            let slot = rng.below(ir.op(user).operands.len());
            ir.set_operand(user, slot, v);
            true
        }
        Mutation::UseForeignRegionValue => {
            let Some((user, slot)) = rng.pick(&operand_slots(ir, root)) else {
                return false;
            };
            let foreign: Vec<ValueId> = values_under(ir, root)
                .into_iter()
                .filter(|&v| region_of_value(ir, v).is_some_and(|r| !encloses(ir, r, user)))
                .collect();
            let Some(v) = rng.pick(&foreign) else {
                return false;
            };
            ir.set_operand(user, slot, v);
            true
        }
        Mutation::RetargetEdge => {
            // One successor of a terminator becomes another block of its
            // region: dominator sets change under the uses.
            let branches: Vec<OpId> = nested_ops(ir, root)
                .into_iter()
                .filter(|&o| !ir.op(o).successors.is_empty())
                .collect();
            let Some(branch) = rng.pick(&branches) else {
                return false;
            };
            let region = region_of_op(ir, branch).unwrap();
            let target = rng.pick(&ir.region(region).blocks).unwrap();
            let slot = rng.below(ir.op(branch).successors.len());
            let changed = ir.op(branch).successors[slot] != target;
            ir.op_mut(branch).successors[slot] = target;
            changed
        }
        Mutation::KillLinkedOp => {
            let Some(op) = rng.pick(&nested_ops(ir, root)) else {
                return false;
            };
            ir.op_mut(op).alive = false;
            true
        }
    }
}

/// Per mutation kind: how many were applied, how many both verifiers
/// rejected, how many only the one-pass verifier rejected.
#[derive(Default, Debug, Clone, Copy)]
struct Tally {
    applied: usize,
    both_reject: usize,
    only_new_rejects: usize,
}

#[test]
fn verifiers_agree_on_a_seeded_mutation_corpus() {
    let full = registry();
    let structural = VerifierRegistry::new();
    let stages = all_stages();
    let mut rng = Rng(0x15_5ee0);
    let mut tallies = [Tally::default(); MUTATIONS.len()];

    for stage in &stages {
        for (k, &kind) in MUTATIONS.iter().enumerate() {
            // Only the llvm-dialect stages have edges to re-target.
            let rounds = if kind == Mutation::RetargetEdge {
                24
            } else {
                6
            };
            for round in 0..rounds {
                let mut ir = Ir::new();
                let root = parse_module(&mut ir, &stage.text).unwrap();
                if !mutate(&mut ir, root, kind, &mut rng) {
                    continue;
                }
                tallies[k].applied += 1;
                // The dialect rules catch many mutations before dominance is
                // asked; the empty registry leaves structure alone to judge.
                for (reg_name, reg) in [("dialect rules", &full), ("no rules", &structural)] {
                    let what = format!("{} {kind:?} #{round} ({reg_name})", stage.name);
                    let old = oracle::verify(&ir, root, reg);
                    let new = verify(&ir, root, reg);
                    match (old, new) {
                        (Ok(()), Ok(())) => {}
                        (Err(_), Err(_)) => tallies[k].both_reject += 1,
                        (Err(e), Ok(())) => panic!("{what}: only the oracle rejects: {e}"),
                        (Ok(()), Err(e)) => {
                            // The two fixed defects, each only where planted.
                            let expected = match kind {
                                Mutation::KillLinkedOp => DEAD_OP,
                                Mutation::UseForeignRegionValue => NOT_ENCLOSING,
                                _ => panic!("{what}: only the one-pass verifier rejects: {e}"),
                            };
                            assert_eq!(e.message, expected, "{what}");
                            tallies[k].only_new_rejects += 1;
                        }
                    }
                }
            }
        }
    }

    let tally = |kind: Mutation| tallies[MUTATIONS.iter().position(|&m| m == kind).unwrap()];
    for &kind in &MUTATIONS {
        assert!(
            tally(kind).applied >= 20,
            "{kind:?} barely ran: {tallies:?}"
        );
    }
    // The corpus bites: the classic violations are rejected by both...
    for kind in [
        Mutation::SwapOps,
        Mutation::DropUse,
        Mutation::UseLaterValue,
        Mutation::RetargetEdge,
    ] {
        assert!(
            tally(kind).both_reject > 0,
            "{kind:?} never rejected: {tallies:?}"
        );
        assert_eq!(tally(kind).only_new_rejects, 0);
    }
    assert_eq!(
        tally(Mutation::DropUse).both_reject,
        2 * tally(Mutation::DropUse).applied,
        "a missing use-list entry is always caught"
    );
    // ...and the two fixed defects by the one-pass verifier alone. A dead
    // op is rejected whatever else is wrong with it; the oracle only trips
    // when the op it can no longer see was needed by a dialect rule.
    let dead = tally(Mutation::KillLinkedOp);
    assert_eq!(
        dead.both_reject + dead.only_new_rejects,
        2 * dead.applied,
        "a dead linked op is always caught: {dead:?}"
    );
    assert!(dead.only_new_rejects > 0, "{dead:?}");
    let foreign = tally(Mutation::UseForeignRegionValue);
    assert_eq!(
        foreign.both_reject + foreign.only_new_rejects,
        2 * foreign.applied,
        "a value of a non-enclosing region is always caught: {foreign:?}"
    );
    assert!(foreign.only_new_rejects > 0, "{foreign:?}");
}

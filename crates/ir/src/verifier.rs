//! IR verification: structural SSA checks (liveness, use-def integrity,
//! dominance) plus a registry of per-op verifiers contributed by dialect
//! crates.
//!
//! One verification is two linear walks over dense, id-indexed tables:
//!
//! 1. **index** — a pre-order walk from the root over every block's op list
//!    records, per op and per value it defines, the *site* `(region, block,
//!    position)`, and rejects a dead op still linked into a block;
//! 2. **check** — each op, in the same order: its operands' use-list entries
//!    and that none is the result of an erased op, its registered rule (the registry is consulted once per distinct op
//!    name), and for each operand a climb from the use to its ancestor in the
//!    value's defining region, where dominance is one position comparison
//!    (same block) or one bit of the region's dominator sets (computed only
//!    for regions with more than one block).
//!
//! A climb that leaves the root without meeting the defining region means the
//! value lives in a region that does not enclose the use (a sibling's, or one
//! nested below the use) and is rejected.

use std::collections::HashMap;

use crate::intern::Istr;
use crate::ir::{BlockId, Def, Ir, OpId, RegionId, ValueId};

/// A per-op verification rule: `fn(ir, op) -> Err(message)` on violation.
pub type OpVerifier = fn(&Ir, OpId) -> Result<(), String>;

/// Registry mapping op names to verification rules. Dialect crates populate
/// this; `ftn-dialects::registry()` returns the full set.
#[derive(Default)]
pub struct VerifierRegistry {
    verifiers: HashMap<String, OpVerifier>,
}

impl VerifierRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register(&mut self, op_name: &str, verifier: OpVerifier) {
        self.verifiers.insert(op_name.to_string(), verifier);
    }

    pub fn get(&self, op_name: &str) -> Option<OpVerifier> {
        self.verifiers.get(op_name).copied()
    }

    pub fn len(&self) -> usize {
        self.verifiers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.verifiers.is_empty()
    }
}

/// Verification failure: which op and why.
#[derive(Debug, Clone)]
pub struct VerifyError {
    pub op: Option<OpId>,
    pub op_name: String,
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verification failed on '{}': {}",
            self.op_name, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// Verify the IR rooted at `root`: liveness, use-def integrity, SSA dominance
/// and registered per-op rules.
pub fn verify(ir: &Ir, root: OpId, registry: &VerifierRegistry) -> Result<(), VerifyError> {
    let mut v = Verifier::new(ir, registry);
    v.index_op(root)?;
    v.check()
}

const NONE: u32 = u32::MAX;

/// Where an op sits, or where a value becomes available: position `pos` of
/// `block` in `region`. A value defined by the op at position `p` is
/// available from `p + 1`, a block argument from 0, so "defined before the
/// use" is `def.pos <= use.pos` for both.
#[derive(Clone, Copy)]
struct Site {
    region: u32,
    block: u32,
    pos: u32,
}

/// Not under the root (the root itself included).
const NOWHERE: Site = Site {
    region: NONE,
    block: NONE,
    pos: 0,
};

/// Dominator sets of one multi-block region: `sets[b * n + a]` says block
/// `a` dominates block `b` (both as indices into the region's block list).
struct Dominators {
    n: usize,
    sets: Vec<bool>,
}

struct Verifier<'a> {
    ir: &'a Ir,
    registry: &'a VerifierRegistry,
    /// Every op under the root, pre-order.
    order: Vec<OpId>,
    /// By `OpId`.
    op_site: Vec<Site>,
    /// By `ValueId`.
    def_site: Vec<Site>,
    /// By `RegionId`: index into `dominators`, for multi-block regions.
    region_doms: Vec<u32>,
    dominators: Vec<Dominators>,
    /// By `BlockId`: index of the block in its region's block list.
    block_index: Vec<u32>,
    /// By `Istr`: the registry's answer for that op name, once asked.
    rules: Vec<Option<Option<OpVerifier>>>,
}

impl<'a> Verifier<'a> {
    fn new(ir: &'a Ir, registry: &'a VerifierRegistry) -> Self {
        Verifier {
            ir,
            registry,
            order: Vec::with_capacity(ir.live_op_count()),
            op_site: vec![NOWHERE; ir.ops.len()],
            def_site: vec![NOWHERE; ir.values.len()],
            region_doms: vec![NONE; ir.regions.len()],
            dominators: Vec::new(),
            block_index: vec![0; ir.blocks.len()],
            rules: vec![None; ir.strings.len()],
        }
    }

    fn error(&self, op: OpId, message: String) -> VerifyError {
        VerifyError {
            op: Some(op),
            op_name: self.ir.op_name(op).to_string(),
            message,
        }
    }

    // ---- walk 1: sites ----------------------------------------------------------

    fn index_op(&mut self, op: OpId) -> Result<(), VerifyError> {
        let ir = self.ir;
        let data = ir.op(op);
        if !data.alive {
            return Err(self.error(op, "dead op still reachable".into()));
        }
        self.order.push(op);
        for &region in &data.regions {
            let blocks = &ir.region(region).blocks;
            if blocks.len() > 1 {
                for (i, &b) in blocks.iter().enumerate() {
                    self.block_index[b.0 as usize] = i as u32;
                }
                self.region_doms[region.0 as usize] = self.dominators.len() as u32;
                self.dominators.push(compute_dominators(ir, blocks));
            }
            for &block in blocks {
                let mut site = Site {
                    region: region.0,
                    block: block.0,
                    pos: 0,
                };
                for &arg in &ir.block(block).args {
                    self.def_site[arg.0 as usize] = site;
                }
                for &inner in &ir.block(block).ops {
                    self.op_site[inner.0 as usize] = site;
                    site.pos += 1;
                    for &r in &ir.op(inner).results {
                        self.def_site[r.0 as usize] = site;
                    }
                    self.index_op(inner)?;
                }
            }
        }
        Ok(())
    }

    // ---- walk 2: checks ---------------------------------------------------------

    fn check(&mut self) -> Result<(), VerifyError> {
        let ir = self.ir;
        for op in std::mem::take(&mut self.order) {
            let data = ir.op(op);
            for (i, &v) in data.operands.iter().enumerate() {
                let value = ir.value(v);
                let recorded = value.uses.iter().any(|u| u.op == op && u.index == i as u32);
                if !recorded {
                    return Err(self.error(op, format!("operand {i} missing from value use list")));
                }
                if let Def::OpResult { op: def, .. } = value.def {
                    if !ir.op(def).alive {
                        return Err(self.error(op, format!("operand {i} defined by an erased op")));
                    }
                }
            }
            if let Some(rule) = self.rule_for(data.name) {
                rule(ir, op).map_err(|message| self.error(op, message))?;
            }
            let site = self.op_site[op.0 as usize];
            // The root's own operands come from outside the verified tree.
            if site.region != NONE {
                for &v in &data.operands {
                    self.check_dominance(op, site, v)?;
                }
            }
        }
        Ok(())
    }

    fn rule_for(&mut self, name: Istr) -> Option<OpVerifier> {
        let (ir, registry) = (self.ir, self.registry);
        *self.rules[name.0 as usize].get_or_insert_with(|| registry.get(ir.str(name)))
    }

    fn check_dominance(&self, op: OpId, use_site: Site, v: ValueId) -> Result<(), VerifyError> {
        let def = self.def_site[v.0 as usize];
        if def.region == NONE {
            // Defined outside the verified tree: nothing to compare against.
            return Ok(());
        }
        // From a nested region a value is as visible as it is to the
        // enclosing op, so climb to the use's ancestor in the def's region.
        let mut at = use_site;
        while at.region != def.region {
            at = match self.ir.region(RegionId(at.region)).parent {
                Some(parent) => self.op_site[parent.0 as usize],
                None => NOWHERE,
            };
            if at.region == NONE {
                return Err(self.error(
                    op,
                    "operand defined in a region that does not enclose its use".into(),
                ));
            }
        }
        let dominates = if at.block == def.block {
            def.pos <= at.pos
        } else {
            let doms = &self.dominators[self.region_doms[def.region as usize] as usize];
            let (a, b) = (
                self.block_index[def.block as usize] as usize,
                self.block_index[at.block as usize] as usize,
            );
            doms.sets[b * doms.n + a]
        };
        if dominates {
            Ok(())
        } else {
            Err(self.error(
                op,
                format!(
                    "operand of '{}' does not dominate its use",
                    self.ir.op_name(op)
                ),
            ))
        }
    }
}

/// Dominator sets of a region's blocks by the standard iterative algorithm
/// (CFGs here are a handful of blocks per function). A non-entry block that
/// nothing branches to is dominated by itself alone.
fn compute_dominators(ir: &Ir, blocks: &[BlockId]) -> Dominators {
    let n = blocks.len();
    let local = |b: BlockId| blocks.iter().position(|&x| x == b);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &b) in blocks.iter().enumerate() {
        if let Some(&term) = ir.block(b).ops.last() {
            for &succ in &ir.op(term).successors {
                if let Some(s) = local(succ) {
                    preds[s].push(i);
                }
            }
        }
    }
    let mut sets = vec![true; n * n];
    sets[..n].fill(false);
    sets[0] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            let mut new = vec![!preds[b].is_empty(); n];
            for &p in &preds[b] {
                for (a, slot) in new.iter_mut().enumerate() {
                    *slot &= sets[p * n + a];
                }
            }
            new[b] = true;
            if sets[b * n..(b + 1) * n] != new[..] {
                sets[b * n..(b + 1) * n].copy_from_slice(&new);
                changed = true;
            }
        }
    }
    Dominators { n, sets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpSpec;

    #[test]
    fn dominance_ok_same_block() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let i32t = ir.i32t();
        let a = ir.attr_i32(1);
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", a));
        ir.append_op(block, c);
        let v = ir.result(c);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(block, u);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        verify(&ir, m, &VerifierRegistry::new()).unwrap();
    }

    #[test]
    fn dominance_violation_detected() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let i32t = ir.i32t();
        let a = ir.attr_i32(1);
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", a));
        let v = ir.result(c);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        // Use before def.
        ir.append_op(block, u);
        ir.append_op(block, c);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        let err = verify(&ir, m, &VerifierRegistry::new()).unwrap_err();
        assert!(err.message.contains("does not dominate"), "{err}");
    }

    #[test]
    fn nested_region_can_use_outer_values() {
        let mut ir = Ir::new();
        let outer_region = ir.new_region();
        let outer_block = ir.new_block(outer_region, &[]);
        let i32t = ir.i32t();
        let a = ir.attr_i32(1);
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", a));
        ir.append_op(outer_block, c);
        let v = ir.result(c);
        let inner_region = ir.new_region();
        let inner_block = ir.new_block(inner_region, &[]);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(inner_block, u);
        let holder = ir.create_op(OpSpec::new("holder").region(inner_region));
        ir.append_op(outer_block, holder);
        let m = ir.create_op(OpSpec::new("builtin.module").region(outer_region));
        verify(&ir, m, &VerifierRegistry::new()).unwrap();
    }

    #[test]
    fn nested_use_of_a_later_outer_value_is_rejected() {
        // holder { u(%v) }; %v = c — the use is nested, the def comes after
        // the op that encloses it.
        let mut ir = Ir::new();
        let outer_region = ir.new_region();
        let outer_block = ir.new_block(outer_region, &[]);
        let i32t = ir.i32t();
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]));
        let v = ir.result(c);
        let inner_region = ir.new_region();
        let inner_block = ir.new_block(inner_region, &[]);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(inner_block, u);
        let holder = ir.create_op(OpSpec::new("holder").region(inner_region));
        ir.append_op(outer_block, holder);
        ir.append_op(outer_block, c);
        let m = ir.create_op(OpSpec::new("builtin.module").region(outer_region));
        let err = verify(&ir, m, &VerifierRegistry::new()).unwrap_err();
        assert_eq!(err.op, Some(u));
        assert!(err.message.contains("does not dominate"), "{err}");
    }

    #[test]
    fn registered_rule_fires() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let bad = ir.create_op(OpSpec::new("needs.attr"));
        ir.append_op(block, bad);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        let mut reg = VerifierRegistry::new();
        reg.register("needs.attr", |ir, op| {
            if ir.has_attr(op, "value") {
                Ok(())
            } else {
                Err("missing 'value' attribute".into())
            }
        });
        let err = verify(&ir, m, &reg).unwrap_err();
        assert!(err.message.contains("missing 'value'"));
    }

    #[test]
    fn cfg_dominance_across_blocks() {
        let mut ir = Ir::new();
        let i32t = ir.i32t();
        let region = ir.new_region();
        let b0 = ir.new_block(region, &[]);
        let b1 = ir.new_block(region, &[]);
        let a = ir.attr_i32(1);
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", a));
        ir.append_op(b0, c);
        let v = ir.result(c);
        let br = ir.create_op(OpSpec::new("cf.br").successors(&[b1]));
        ir.append_op(b0, br);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(b1, u);
        let f = ir.create_op(OpSpec::new("func.func").region(region));
        verify(&ir, f, &VerifierRegistry::new()).unwrap();
    }

    #[test]
    fn cfg_value_from_a_non_dominating_branch_is_rejected() {
        // b0 -> {b1, b2} -> b3; %v defined in b1, used in b3.
        let mut ir = Ir::new();
        let i32t = ir.i32t();
        let region = ir.new_region();
        let blocks: Vec<BlockId> = (0..4).map(|_| ir.new_block(region, &[])).collect();
        let fork = ir.create_op(OpSpec::new("cf.cond_br").successors(&[blocks[1], blocks[2]]));
        ir.append_op(blocks[0], fork);
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]));
        ir.append_op(blocks[1], c);
        let v = ir.result(c);
        for &b in &blocks[1..3] {
            let br = ir.create_op(OpSpec::new("cf.br").successors(&[blocks[3]]));
            ir.append_op(b, br);
        }
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(blocks[3], u);
        let f = ir.create_op(OpSpec::new("func.func").region(region));
        let err = verify(&ir, f, &VerifierRegistry::new()).unwrap_err();
        assert_eq!(err.op, Some(u));
        assert!(err.message.contains("does not dominate"), "{err}");
    }

    #[test]
    fn dead_op_linked_into_a_live_block_is_rejected() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let x = ir.create_op(OpSpec::new("x"));
        ir.append_op(block, x);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        verify(&ir, m, &VerifierRegistry::new()).unwrap();
        // The printer would still print it: the block list is what counts.
        ir.op_mut(x).alive = false;
        let err = verify(&ir, m, &VerifierRegistry::new()).unwrap_err();
        assert_eq!(err.op, Some(x));
        assert_eq!(err.message, "dead op still reachable");
    }

    #[test]
    fn use_of_an_erased_op_is_rejected() {
        // { %c = arith.constant; test.use(%c) }, then %c's op is erased
        // under its use: the printer would emit `test.use(%0)` with no
        // definition of `%0`.
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let i32t = ir.i32t();
        let one = ir.attr_i32(1);
        let c = ir.create_op(
            OpSpec::new("arith.constant")
                .results(&[i32t])
                .attr("value", one),
        );
        ir.append_op(block, c);
        let v = ir.result(c);
        let u = ir.create_op(OpSpec::new("test.use").operands(&[v]));
        ir.append_op(block, u);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        verify(&ir, m, &VerifierRegistry::new()).unwrap();
        ir.erase_op(c);
        let err = verify(&ir, m, &VerifierRegistry::new()).unwrap_err();
        assert_eq!(err.op, Some(u));
        assert_eq!(err.message, "operand 0 defined by an erased op");
    }

    #[test]
    fn sibling_region_value_is_rejected() {
        // holder ({ %v = c }, { u(%v) }): the second region cannot see the
        // first one's values.
        let mut ir = Ir::new();
        let i32t = ir.i32t();
        let first = ir.new_region();
        let first_block = ir.new_block(first, &[]);
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]));
        ir.append_op(first_block, c);
        let v = ir.result(c);
        let second = ir.new_region();
        let second_block = ir.new_block(second, &[]);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(second_block, u);
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let holder = ir.create_op(OpSpec::new("holder").region(first).region(second));
        ir.append_op(block, holder);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        let err = verify(&ir, m, &VerifierRegistry::new()).unwrap_err();
        assert_eq!(err.op, Some(u));
        assert_eq!(
            err.message,
            "operand defined in a region that does not enclose its use"
        );
    }

    #[test]
    fn value_escaping_its_region_is_rejected() {
        // holder ({ %v = c }); u(%v): the def is nested below the use.
        let mut ir = Ir::new();
        let i32t = ir.i32t();
        let inner = ir.new_region();
        let inner_block = ir.new_block(inner, &[]);
        let c = ir.create_op(OpSpec::new("c").results(&[i32t]));
        ir.append_op(inner_block, c);
        let v = ir.result(c);
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let holder = ir.create_op(OpSpec::new("holder").region(inner));
        ir.append_op(block, holder);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(block, u);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        let err = verify(&ir, m, &VerifierRegistry::new()).unwrap_err();
        assert!(err.message.contains("does not enclose"), "{err}");
    }
}

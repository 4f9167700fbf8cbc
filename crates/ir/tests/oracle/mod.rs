//! The verifier this crate shipped before the one-pass rewrite, kept as the
//! reference of the differential suite (`verifier_differential.rs`): one
//! dominance pass per region, each re-walking everything nested in it, with
//! per-region `HashMap` side tables. It has two known blind spots the
//! current verifier closes — it never sees a dead op (`walk_preorder` filters
//! them out first) and it accepts an operand defined in a region that does
//! not enclose its use (each region only checks the values it defines).

use std::collections::HashMap;

use ftn_mlir::{BlockId, Ir, OpId, RegionId, ValueId, VerifierRegistry, VerifyError};

/// All live ops nested under (and including) `root`, pre-order; a dead op
/// hides its whole subtree.
fn walk_preorder(ir: &Ir, op: OpId, out: &mut Vec<OpId>) {
    if !ir.op(op).alive {
        return;
    }
    out.push(op);
    for &region in &ir.op(op).regions {
        for &block in &ir.region(region).blocks {
            for &inner in &ir.block(block).ops {
                walk_preorder(ir, inner, out);
            }
        }
    }
}

/// Verify the IR rooted at `root`: use-def integrity, SSA dominance and
/// registered per-op rules.
pub fn verify(ir: &Ir, root: OpId, registry: &VerifierRegistry) -> Result<(), VerifyError> {
    let mut ops = Vec::new();
    walk_preorder(ir, root, &mut ops);
    for op in ops {
        verify_op_structure(ir, op)?;
        if let Some(v) = registry.get(ir.op_name(op)) {
            v(ir, op).map_err(|message| VerifyError {
                op: Some(op),
                op_name: ir.op_name(op).to_string(),
                message,
            })?;
        }
        for &region in &ir.op(op).regions {
            verify_region_dominance(ir, region).map_err(|message| VerifyError {
                op: Some(op),
                op_name: ir.op_name(op).to_string(),
                message,
            })?;
        }
    }
    Ok(())
}

fn verify_op_structure(ir: &Ir, op: OpId) -> Result<(), VerifyError> {
    let data = ir.op(op);
    if !data.alive {
        return Err(VerifyError {
            op: Some(op),
            op_name: ir.op_name(op).to_string(),
            message: "dead op still reachable".into(),
        });
    }
    // Every operand's use list must record this use.
    for (i, &v) in data.operands.iter().enumerate() {
        let recorded = ir
            .value(v)
            .uses
            .iter()
            .any(|u| u.op == op && u.index == i as u32);
        if !recorded {
            return Err(VerifyError {
                op: Some(op),
                op_name: ir.op_name(op).to_string(),
                message: format!("operand {i} missing from value use list"),
            });
        }
    }
    Ok(())
}

/// Dominance within one region. For single-block regions this is a linear
/// position check; for multi-block (CFG) regions we compute dominators with
/// the standard iterative algorithm.
fn verify_region_dominance(ir: &Ir, region: RegionId) -> Result<(), String> {
    let blocks = &ir.region(region).blocks;
    if blocks.is_empty() {
        return Ok(());
    }
    let doms = compute_dominators(ir, blocks);
    // Map value -> (block, position) for defs inside this region's blocks.
    let mut def_site: HashMap<ValueId, (BlockId, usize)> = HashMap::new();
    for &b in blocks {
        for &arg in &ir.block(b).args {
            def_site.insert(arg, (b, 0));
        }
        for (pos, &op) in ir.block(b).ops.iter().enumerate() {
            for &r in &ir.op(op).results {
                def_site.insert(r, (b, pos + 1));
            }
        }
    }
    for &b in blocks {
        for (pos, &op) in ir.block(b).ops.iter().enumerate() {
            // An op's operands must be defined in this region (dominating the
            // op) or come from an enclosing region (checked at that level).
            check_op_operands_dominate(ir, op, b, pos, &def_site, &doms)?;
        }
    }
    Ok(())
}

#[allow(clippy::only_used_in_recursion)]
fn check_op_operands_dominate(
    ir: &Ir,
    op: OpId,
    use_block: BlockId,
    use_pos: usize,
    def_site: &HashMap<ValueId, (BlockId, usize)>,
    doms: &HashMap<BlockId, Vec<BlockId>>,
) -> Result<(), String> {
    for &v in &ir.op(op).operands {
        if let Some(&(def_block, def_pos)) = def_site.get(&v) {
            let ok = if def_block == use_block {
                def_pos <= use_pos
            } else {
                doms.get(&use_block)
                    .map(|d| d.contains(&def_block))
                    .unwrap_or(false)
            };
            if !ok {
                return Err(format!(
                    "operand of '{}' does not dominate its use",
                    ir.op_name(op)
                ));
            }
        }
        // Values defined outside this region are validated by the parent
        // region's pass over the enclosing op.
    }
    // Recurse into nested regions: their ops may also use this region's values.
    // Visibility from a nested region is that of the enclosing op itself.
    for &r in &ir.op(op).regions {
        for &b in &ir.region(r).blocks {
            for &inner in &ir.block(b).ops {
                check_op_operands_dominate(ir, inner, use_block, use_pos, def_site, doms)?;
            }
        }
    }
    Ok(())
}

/// Dominator sets per block (small CFGs; the O(n^2) iterative algorithm is fine).
fn compute_dominators(ir: &Ir, blocks: &[BlockId]) -> HashMap<BlockId, Vec<BlockId>> {
    let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for &b in blocks {
        preds.entry(b).or_default();
    }
    for &b in blocks {
        if let Some(&term) = ir.block(b).ops.last() {
            for &succ in &ir.op(term).successors {
                preds.entry(succ).or_default().push(b);
            }
        }
    }
    let entry = blocks[0];
    let all: Vec<BlockId> = blocks.to_vec();
    let mut dom: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    dom.insert(entry, vec![entry]);
    for &b in &all[1..] {
        dom.insert(b, all.clone());
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &all[1..] {
            let ps = &preds[&b];
            let mut new: Option<Vec<BlockId>> = None;
            for &p in ps {
                let pd = &dom[&p];
                new = Some(match new {
                    None => pd.clone(),
                    Some(cur) => cur.into_iter().filter(|x| pd.contains(x)).collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            if !new.contains(&b) {
                new.push(b);
            }
            if dom[&b] != new {
                dom.insert(b, new);
                changed = true;
            }
        }
    }
    dom
}

//! IR traversal helpers. Walks snapshot op ids into a `Vec` so callers can
//! mutate the IR while iterating (the MLIR "collect then rewrite" idiom).

use crate::ir::{Ir, OpData, OpId};

/// All ops nested under (and including) `root`, pre-order.
pub fn walk_preorder(ir: &Ir, root: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    walk_pre_into(ir, root, &|_| true, &mut out);
    out
}

/// Pre-order walk over live ops, collecting those `keep` accepts.
fn walk_pre_into(ir: &Ir, op: OpId, keep: &impl Fn(&OpData) -> bool, out: &mut Vec<OpId>) {
    let data = ir.op(op);
    if !data.alive {
        return;
    }
    if keep(data) {
        out.push(op);
    }
    for &region in &data.regions {
        for &block in &ir.region(region).blocks {
            for &inner in &ir.block(block).ops {
                walk_pre_into(ir, inner, keep, out);
            }
        }
    }
}

/// All ops nested under (and including) `root`, post-order (children first).
pub fn walk_postorder(ir: &Ir, root: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    walk_post_into(ir, root, &mut out);
    out
}

fn walk_post_into(ir: &Ir, op: OpId, out: &mut Vec<OpId>) {
    if !ir.op(op).alive {
        return;
    }
    for &region in &ir.op(op).regions {
        for &block in &ir.region(region).blocks {
            for &inner in &ir.block(block).ops {
                walk_post_into(ir, inner, out);
            }
        }
    }
    out.push(op);
}

/// First op with the given name nested under `root` (pre-order), if any.
pub fn find_first(ir: &Ir, root: OpId, name: &str) -> Option<OpId> {
    walk_preorder(ir, root)
        .into_iter()
        .find(|&o| ir.op_is(o, name))
}

/// All ops with the given name nested under `root`, pre-order.
pub fn find_all(ir: &Ir, root: OpId, name: &str) -> Vec<OpId> {
    let mut out = Vec::new();
    // A name nobody interned is a name no op carries.
    if let Some(name) = ir.strings.lookup(name) {
        walk_pre_into(ir, root, &|op| op.name == name, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpSpec;

    #[test]
    fn orders() {
        let mut ir = Ir::new();
        let inner_region = ir.new_region();
        let inner_block = ir.new_block(inner_region, &[]);
        let leaf = ir.create_op(OpSpec::new("leaf"));
        ir.append_op(inner_block, leaf);
        let mid = ir.create_op(OpSpec::new("mid").region(inner_region));
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        ir.append_op(block, mid);
        let root = ir.create_op(OpSpec::new("root").region(region));

        let pre: Vec<&str> = walk_preorder(&ir, root)
            .iter()
            .map(|&o| ir.op_name(o))
            .collect();
        assert_eq!(pre, vec!["root", "mid", "leaf"]);
        let post: Vec<&str> = walk_postorder(&ir, root)
            .iter()
            .map(|&o| ir.op_name(o))
            .collect();
        assert_eq!(post, vec!["leaf", "mid", "root"]);
        assert_eq!(find_first(&ir, root, "mid"), Some(mid));
        assert_eq!(find_all(&ir, root, "leaf"), vec![leaf]);
    }
}

//! `cf` dialect: unstructured control flow, used after `scf` is lowered to a
//! CFG on the LLVM path.

use ftn_mlir::{BlockId, Builder, Ir, OpId, OpSpec, TypeKind, ValueId, VerifierRegistry};

pub const BR: &str = "cf.br";
pub const COND_BR: &str = "cf.cond_br";

/// Unconditional branch, forwarding `args` to the successor's block args.
pub fn br(b: &mut Builder, dest: BlockId, args: &[ValueId]) -> OpId {
    b.insert(OpSpec::new(BR).operands(args).successors(&[dest]))
}

/// Conditional branch. Operands are `[cond, true_args..., false_args...]`;
/// the split point is recorded in the `true_operand_count` attribute.
pub fn cond_br(
    b: &mut Builder,
    cond: ValueId,
    true_dest: BlockId,
    true_args: &[ValueId],
    false_dest: BlockId,
    false_args: &[ValueId],
) -> OpId {
    let mut operands = vec![cond];
    operands.extend_from_slice(true_args);
    operands.extend_from_slice(false_args);
    let count = b.ir.attr_i64(true_args.len() as i64);
    b.insert(
        OpSpec::new(COND_BR)
            .operands(&operands)
            .successors(&[true_dest, false_dest])
            .attr("true_operand_count", count),
    )
}

/// Split a `cf.cond_br`'s operands into (cond, true_args, false_args).
pub fn cond_br_operands(ir: &Ir, op: OpId) -> (ValueId, &[ValueId], &[ValueId]) {
    let o = ir.op(op);
    let n_true = ir.attr_int_of(op, "true_operand_count").unwrap_or(0) as usize;
    let (true_args, false_args) = o.operands[1..].split_at(n_true);
    (o.operands[0], true_args, false_args)
}

pub fn register(reg: &mut VerifierRegistry) {
    reg.register(BR, |ir, op| {
        let o = ir.op(op);
        if o.successors.len() != 1 {
            return Err("cf.br requires one successor".into());
        }
        let dest_args = &ir.block(o.successors[0]).args;
        if o.operands.len() != dest_args.len() {
            return Err("cf.br operand count must match successor args".into());
        }
        for (v, a) in o.operands.iter().zip(dest_args) {
            if ir.value_ty(*v) != ir.value_ty(*a) {
                return Err("cf.br operand type mismatch with successor arg".into());
            }
        }
        Ok(())
    });
    reg.register(COND_BR, |ir, op| {
        let o = ir.op(op);
        if o.successors.len() != 2 {
            return Err("cf.cond_br requires two successors".into());
        }
        if o.operands.is_empty()
            || !matches!(
                ir.type_kind(ir.value_ty(o.operands[0])),
                TypeKind::Integer { width: 1 }
            )
        {
            return Err("cf.cond_br condition must be i1".into());
        }
        let (_c, t, f) = cond_br_operands(ir, op);
        if t.len() != ir.block(o.successors[0]).args.len()
            || f.len() != ir.block(o.successors[1]).args.len()
        {
            return Err("cf.cond_br arg counts must match successors".into());
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arith, func};
    use ftn_mlir::verify;

    #[test]
    fn cfg_construction() {
        let mut ir = Ir::new();
        let (module, body) = crate::builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let i32t = b.ir.i32t();
            let (f, entry) = func::build_func(&mut b, "f", &[], &[i32t]);
            let region = b.ir.op(f).regions[0];
            let exit = b.ir.new_block(region, &[i32t]);
            b.set_insertion_point_to_end(entry);
            let cond = arith::const_bool(&mut b, true);
            let one = arith::const_i32(&mut b, 1);
            let two = arith::const_i32(&mut b, 2);
            cond_br(&mut b, cond, exit, &[one], exit, &[two]);
            b.set_insertion_point_to_end(exit);
            let arg = b.ir.block(exit).args[0];
            func::build_return(&mut b, &[arg]);
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }
}

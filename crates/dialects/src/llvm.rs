//! `llvm` dialect — the subset used to lower device kernels to LLVM-IR text
//! (the `[19]` integration path: core dialects → `llvm` dialect → LLVM-IR →
//! LLVM-7 downgrade + AMD SSDM intrinsics).
//!
//! Functions contain a plain CFG of blocks terminated by `llvm.br`,
//! `llvm.cond_br` or `llvm.return`. Pointers are the opaque `!llvm.ptr`;
//! `llvm.getelementptr` and `llvm.load`/`llvm.store` carry the element type in
//! an attribute, which the LLVM-7 downgrade re-materializes as typed pointers.

use ftn_mlir::{BlockId, Builder, Ir, OpId, OpSpec, TypeId, ValueId, VerifierRegistry};

pub const FUNC: &str = "llvm.func";
pub const RETURN: &str = "llvm.return";
pub const BR: &str = "llvm.br";
pub const COND_BR: &str = "llvm.cond_br";
pub const CONSTANT: &str = "llvm.mlir.constant";
pub const ALLOCA: &str = "llvm.alloca";
pub const GEP: &str = "llvm.getelementptr";
pub const LOAD: &str = "llvm.load";
pub const STORE: &str = "llvm.store";
pub const CALL: &str = "llvm.call";

pub const ADD: &str = "llvm.add";
pub const SUB: &str = "llvm.sub";
pub const MUL: &str = "llvm.mul";
pub const SDIV: &str = "llvm.sdiv";
pub const SREM: &str = "llvm.srem";
pub const AND: &str = "llvm.and";
pub const OR: &str = "llvm.or";
pub const XOR: &str = "llvm.xor";
pub const FADD: &str = "llvm.fadd";
pub const FSUB: &str = "llvm.fsub";
pub const FMUL: &str = "llvm.fmul";
pub const FDIV: &str = "llvm.fdiv";
pub const FNEG: &str = "llvm.fneg";
pub const ICMP: &str = "llvm.icmp";
pub const FCMP: &str = "llvm.fcmp";
pub const SELECT: &str = "llvm.select";
pub const SITOFP: &str = "llvm.sitofp";
pub const FPTOSI: &str = "llvm.fptosi";
pub const SEXT: &str = "llvm.sext";
pub const TRUNC: &str = "llvm.trunc";
pub const FPEXT: &str = "llvm.fpext";
pub const FPTRUNC: &str = "llvm.fptrunc";

/// The opaque `!llvm.ptr` type.
pub fn ptr_t(ir: &mut Ir) -> TypeId {
    ir.opaque_t("llvm", "ptr")
}

/// Create an `llvm.func` with entry block args matching `inputs`.
pub fn build_func(
    b: &mut Builder,
    name: &str,
    inputs: &[TypeId],
    results: &[TypeId],
) -> (OpId, BlockId) {
    let region = b.ir.new_region();
    let entry = b.ir.new_block(region, inputs);
    let fty = b.ir.function_t(inputs, results);
    let sym = b.ir.attr_str(name);
    let fattr = b.ir.attr_type(fty);
    let op = b.insert(
        OpSpec::new(FUNC)
            .region(region)
            .attr("sym_name", sym)
            .attr("function_type", fattr),
    );
    (op, entry)
}

pub fn constant(b: &mut Builder, value_attr: ftn_mlir::AttrId, ty: TypeId) -> ValueId {
    b.insert_r(
        OpSpec::new(CONSTANT)
            .results(&[ty])
            .attr("value", value_attr),
    )
}

/// `llvm.alloca` — stack slot for `count` elements of `elem_ty`.
pub fn alloca(b: &mut Builder, count: ValueId, elem_ty: TypeId) -> ValueId {
    let ptr = ptr_t(b.ir);
    let e = b.ir.attr_type(elem_ty);
    b.insert_r(
        OpSpec::new(ALLOCA)
            .operands(&[count])
            .results(&[ptr])
            .attr("elem_type", e),
    )
}

/// `llvm.getelementptr %base[%index] : elem_type` — flat (rank-1) GEP.
pub fn gep(b: &mut Builder, base: ValueId, index: ValueId, elem_ty: TypeId) -> ValueId {
    let ptr = ptr_t(b.ir);
    let e = b.ir.attr_type(elem_ty);
    b.insert_r(
        OpSpec::new(GEP)
            .operands(&[base, index])
            .results(&[ptr])
            .attr("elem_type", e),
    )
}

pub fn load(b: &mut Builder, ptr: ValueId, elem_ty: TypeId) -> ValueId {
    let e = b.ir.attr_type(elem_ty);
    b.insert_r(
        OpSpec::new(LOAD)
            .operands(&[ptr])
            .results(&[elem_ty])
            .attr("elem_type", e),
    )
}

pub fn store(b: &mut Builder, value: ValueId, ptr: ValueId) -> OpId {
    b.insert(OpSpec::new(STORE).operands(&[value, ptr]))
}

pub fn call(b: &mut Builder, callee: &str, args: &[ValueId], results: &[TypeId]) -> OpId {
    let sym = b.ir.attr_symbol(callee);
    b.insert(
        OpSpec::new(CALL)
            .operands(args)
            .results(results)
            .attr("callee", sym),
    )
}

pub fn ret(b: &mut Builder, values: &[ValueId]) -> OpId {
    b.insert(OpSpec::new(RETURN).operands(values))
}

pub fn br(b: &mut Builder, dest: BlockId, args: &[ValueId]) -> OpId {
    b.insert(OpSpec::new(BR).operands(args).successors(&[dest]))
}

pub fn cond_br(
    b: &mut Builder,
    cond: ValueId,
    t: BlockId,
    t_args: &[ValueId],
    f: BlockId,
    f_args: &[ValueId],
) -> OpId {
    let mut operands = vec![cond];
    operands.extend_from_slice(t_args);
    operands.extend_from_slice(f_args);
    let count = b.ir.attr_i64(t_args.len() as i64);
    b.insert(
        OpSpec::new(COND_BR)
            .operands(&operands)
            .successors(&[t, f])
            .attr("true_operand_count", count),
    )
}

pub fn binop(b: &mut Builder, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let ty = b.ir.value_ty(lhs);
    b.insert_r(OpSpec::new(name).operands(&[lhs, rhs]).results(&[ty]))
}

/// Binary op with an LLVM fast-math flag set recorded in `fastmath`.
pub fn binop_fm(
    b: &mut Builder,
    name: &str,
    lhs: ValueId,
    rhs: ValueId,
    fastmath: &str,
) -> ValueId {
    let ty = b.ir.value_ty(lhs);
    let fm = b.ir.attr_str(fastmath);
    b.insert_r(
        OpSpec::new(name)
            .operands(&[lhs, rhs])
            .results(&[ty])
            .attr("fastmath", fm),
    )
}

pub fn icmp(b: &mut Builder, pred: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let i1 = b.ir.i1();
    let p = b.ir.attr_str(pred);
    b.insert_r(
        OpSpec::new(ICMP)
            .operands(&[lhs, rhs])
            .results(&[i1])
            .attr("predicate", p),
    )
}

pub fn register(reg: &mut VerifierRegistry) {
    reg.register(FUNC, |ir, op| {
        if ir.attr_str_of(op, "sym_name").is_none() {
            return Err("llvm.func requires sym_name".into());
        }
        if ir.op(op).regions.len() != 1 {
            return Err("llvm.func requires one region".into());
        }
        Ok(())
    });
    reg.register(GEP, |ir, op| {
        if ir
            .get_attr(op, "elem_type")
            .and_then(|a| ir.attr_as_type(a))
            .is_none()
        {
            return Err("llvm.getelementptr requires elem_type".into());
        }
        Ok(())
    });
    reg.register(CALL, |ir, op| {
        if ir.attr_str_of(op, "callee").is_none() {
            return Err("llvm.call requires callee".into());
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use ftn_mlir::verify;

    #[test]
    fn build_llvm_cfg() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let f32t = b.ir.f32t();
            let i64t = b.ir.i64t();
            let ptr = ptr_t(b.ir);
            let (f, entry) = build_func(&mut b, "k", &[ptr, i64t], &[]);
            let region = b.ir.op(f).regions[0];
            let exit = b.ir.new_block(region, &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let p = gep(&mut b, args[0], args[1], f32t);
            let v = load(&mut b, p, f32t);
            let s = binop_fm(&mut b, FADD, v, v, "contract");
            store(&mut b, s, p);
            br(&mut b, exit, &[]);
            b.set_insertion_point_to_end(exit);
            ret(&mut b, &[]);
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }
}

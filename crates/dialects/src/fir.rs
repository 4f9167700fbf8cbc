//! `fir` dialect — a simplified Flang-like Fortran IR the frontend lowers
//! through before the `fir-to-core` pass produces `memref`/`scf`/`arith`
//! (the `[3]` flow of Figure 1).
//!
//! Simplification relative to real FIR: values of reference type are modelled
//! directly as memrefs (rank-1 after column-major linearization) instead of
//! `!fir.ref<!fir.array<...>>`, and `fir.do_loop` keeps Fortran's inclusive
//! bounds.

use ftn_mlir::{Builder, OpId, OpSpec, TypeId, ValueId, VerifierRegistry};

pub const ALLOCA: &str = "fir.alloca";
pub const DECLARE: &str = "fir.declare";
pub const LOAD: &str = "fir.load";
pub const STORE: &str = "fir.store";
pub const DO_LOOP: &str = "fir.do_loop";
pub const IF: &str = "fir.if";
pub const RESULT: &str = "fir.result";
pub const CONVERT: &str = "fir.convert";
pub const CALL: &str = "fir.call";

/// Allocate Fortran local storage (scalars are rank-0 memrefs).
pub fn alloca(
    b: &mut Builder,
    memref_ty: TypeId,
    dyn_sizes: &[ValueId],
    uniq_name: &str,
) -> ValueId {
    let n = b.ir.attr_str(uniq_name);
    b.insert_r(
        OpSpec::new(ALLOCA)
            .operands(dyn_sizes)
            .results(&[memref_ty])
            .attr("uniq_name", n),
    )
}

/// Associate a variable name with storage (Flang's `hlfir.declare` analogue).
pub fn declare(b: &mut Builder, storage: ValueId, uniq_name: &str) -> ValueId {
    let ty = b.ir.value_ty(storage);
    let n = b.ir.attr_str(uniq_name);
    b.insert_r(
        OpSpec::new(DECLARE)
            .operands(&[storage])
            .results(&[ty])
            .attr("uniq_name", n),
    )
}

pub fn load(b: &mut Builder, memref: ValueId, indices: &[ValueId]) -> ValueId {
    let elem = {
        let ty = b.ir.value_ty(memref);
        b.ir.memref_elem(ty)
    };
    let mut ops = vec![memref];
    ops.extend_from_slice(indices);
    b.insert_r(OpSpec::new(LOAD).operands(&ops).results(&[elem]))
}

pub fn store(b: &mut Builder, value: ValueId, memref: ValueId, indices: &[ValueId]) -> OpId {
    let mut ops = vec![value, memref];
    ops.extend_from_slice(indices);
    b.insert(OpSpec::new(STORE).operands(&ops))
}

/// `fir.do_loop`: inclusive bounds `lb..=ub` with `index` iv.
pub fn do_loop(
    b: &mut Builder,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
    body_fn: impl FnOnce(&mut Builder, ValueId),
) -> OpId {
    let index = b.ir.index_t();
    let region = b.ir.new_region();
    let block = b.ir.new_block(region, &[index]);
    let iv = b.ir.block(block).args[0];
    {
        let mut inner = Builder::at_end(b.ir, block);
        body_fn(&mut inner, iv);
        inner.insert(OpSpec::new(RESULT));
    }
    b.insert(
        OpSpec::new(DO_LOOP)
            .operands(&[lb, ub, step])
            .region(region),
    )
}

/// `fir.if` without results.
pub fn fir_if(
    b: &mut Builder,
    cond: ValueId,
    then_fn: impl FnOnce(&mut Builder),
    else_fn: impl FnOnce(&mut Builder),
) -> OpId {
    let then_region = b.ir.new_region();
    let then_block = b.ir.new_block(then_region, &[]);
    {
        let mut inner = Builder::at_end(b.ir, then_block);
        then_fn(&mut inner);
        inner.insert(OpSpec::new(RESULT));
    }
    let else_region = b.ir.new_region();
    let else_block = b.ir.new_block(else_region, &[]);
    {
        let mut inner = Builder::at_end(b.ir, else_block);
        else_fn(&mut inner);
        inner.insert(OpSpec::new(RESULT));
    }
    b.insert(
        OpSpec::new(IF)
            .operands(&[cond])
            .region(then_region)
            .region(else_region),
    )
}

pub fn convert(b: &mut Builder, v: ValueId, to: TypeId) -> ValueId {
    b.insert_r(OpSpec::new(CONVERT).operands(&[v]).results(&[to]))
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

pub fn register(reg: &mut VerifierRegistry) {
    reg.register(DO_LOOP, |ir, op| {
        let o = ir.op(op);
        if o.operands.len() != 3 {
            return Err("fir.do_loop requires lb, ub, step".into());
        }
        if o.regions.len() != 1 {
            return Err("fir.do_loop requires one region".into());
        }
        if ir.block(ir.entry_block(op, 0)).args.len() != 1 {
            return Err("fir.do_loop body takes the induction variable".into());
        }
        Ok(())
    });
    reg.register(DECLARE, |ir, op| {
        if ir.attr_str_of(op, "uniq_name").is_none() {
            return Err("fir.declare requires uniq_name".into());
        }
        Ok(())
    });
    reg.register(ALLOCA, |ir, op| {
        if ir.attr_str_of(op, "uniq_name").is_none() {
            return Err("fir.alloca requires uniq_name".into());
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arith, builtin};
    use ftn_mlir::{verify, Ir};

    #[test]
    fn fir_loop_structure() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let f32t = b.ir.f32t();
            let arr_ty = b.ir.memref_t(&[100], f32t, 0);
            let arr = alloca(&mut b, arr_ty, &[], "_QFEa");
            let decl = declare(&mut b, arr, "_QFEa");
            let one = arith::const_index(&mut b, 1);
            let hundred = arith::const_index(&mut b, 100);
            do_loop(&mut b, one, hundred, one, |inner, iv| {
                let one_l = arith::const_index(inner, 1);
                let idx = arith::subi(inner, iv, one_l);
                let v = load(inner, decl, &[idx]);
                store(inner, v, decl, &[idx]);
            });
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }
}

//! `arith` dialect: constants, integer/float arithmetic, comparisons, casts.
//!
//! Float binary ops carry an optional `fastmath` attribute; the pipeline emits
//! `fastmath = "contract"` on multiply/add chains (Listing 4), which is what
//! the Vitis MAC pattern recognizer keys on (Table 4 discussion).

use ftn_mlir::{Builder, Ir, OpId, OpSpec, TypeId, TypeKind, ValueId, VerifierRegistry};

pub const CONSTANT: &str = "arith.constant";

pub const ADDI: &str = "arith.addi";
pub const SUBI: &str = "arith.subi";
pub const MULI: &str = "arith.muli";
pub const DIVSI: &str = "arith.divsi";
pub const REMSI: &str = "arith.remsi";
pub const ANDI: &str = "arith.andi";
pub const ORI: &str = "arith.ori";
pub const XORI: &str = "arith.xori";
pub const MAXSI: &str = "arith.maxsi";
pub const MINSI: &str = "arith.minsi";

pub const ADDF: &str = "arith.addf";
pub const SUBF: &str = "arith.subf";
pub const MULF: &str = "arith.mulf";
pub const DIVF: &str = "arith.divf";
pub const NEGF: &str = "arith.negf";
pub const MAXIMUMF: &str = "arith.maximumf";
pub const MINIMUMF: &str = "arith.minimumf";

pub const CMPI: &str = "arith.cmpi";
pub const CMPF: &str = "arith.cmpf";
pub const SELECT: &str = "arith.select";

pub const INDEX_CAST: &str = "arith.index_cast";
pub const SITOFP: &str = "arith.sitofp";
pub const FPTOSI: &str = "arith.fptosi";
pub const EXTF: &str = "arith.extf";
pub const TRUNCF: &str = "arith.truncf";
pub const EXTSI: &str = "arith.extsi";
pub const TRUNCI: &str = "arith.trunci";

/// All integer binary op names (same-type operands and result).
pub const INT_BINOPS: &[&str] = &[
    ADDI, SUBI, MULI, DIVSI, REMSI, ANDI, ORI, XORI, MAXSI, MINSI,
];

/// All float binary op names.
pub const FLOAT_BINOPS: &[&str] = &[ADDF, SUBF, MULF, DIVF, MAXIMUMF, MINIMUMF];

// ---- constants ---------------------------------------------------------------

pub fn const_int(b: &mut Builder, v: i64, ty: TypeId) -> ValueId {
    let attr = b.ir.attr_int(v, ty);
    b.insert_r(OpSpec::new(CONSTANT).results(&[ty]).attr("value", attr))
}

pub fn const_i32(b: &mut Builder, v: i64) -> ValueId {
    let t = b.ir.i32t();
    const_int(b, v, t)
}

pub fn const_i64(b: &mut Builder, v: i64) -> ValueId {
    let t = b.ir.i64t();
    const_int(b, v, t)
}

pub fn const_index(b: &mut Builder, v: i64) -> ValueId {
    let t = b.ir.index_t();
    const_int(b, v, t)
}

pub fn const_bool(b: &mut Builder, v: bool) -> ValueId {
    let t = b.ir.i1();
    const_int(b, v as i64, t)
}

pub fn const_float(b: &mut Builder, v: f64, ty: TypeId) -> ValueId {
    let attr = b.ir.attr_float(v, ty);
    b.insert_r(OpSpec::new(CONSTANT).results(&[ty]).attr("value", attr))
}

pub fn const_f32(b: &mut Builder, v: f64) -> ValueId {
    let t = b.ir.f32t();
    const_float(b, v, t)
}

pub fn const_f64(b: &mut Builder, v: f64) -> ValueId {
    let t = b.ir.f64t();
    const_float(b, v, t)
}

// ---- binary ops ----------------------------------------------------------------

/// Generic same-type binary op.
pub fn binop(b: &mut Builder, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let ty = b.ir.value_ty(lhs);
    b.insert_r(OpSpec::new(name).operands(&[lhs, rhs]).results(&[ty]))
}

/// Float binary op with `fastmath = "contract"` (as the pipeline emits for
/// offloaded loop bodies — see Listing 4).
pub fn binop_contract(b: &mut Builder, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let ty = b.ir.value_ty(lhs);
    let fm = b.ir.attr_str("contract");
    b.insert_r(
        OpSpec::new(name)
            .operands(&[lhs, rhs])
            .results(&[ty])
            .attr("fastmath", fm),
    )
}

pub fn addi(b: &mut Builder, l: ValueId, r: ValueId) -> ValueId {
    binop(b, ADDI, l, r)
}

pub fn subi(b: &mut Builder, l: ValueId, r: ValueId) -> ValueId {
    binop(b, SUBI, l, r)
}

pub fn muli(b: &mut Builder, l: ValueId, r: ValueId) -> ValueId {
    binop(b, MULI, l, r)
}

pub fn addf(b: &mut Builder, l: ValueId, r: ValueId) -> ValueId {
    binop(b, ADDF, l, r)
}

pub fn mulf(b: &mut Builder, l: ValueId, r: ValueId) -> ValueId {
    binop(b, MULF, l, r)
}

pub fn negf(b: &mut Builder, v: ValueId) -> ValueId {
    let ty = b.ir.value_ty(v);
    b.insert_r(OpSpec::new(NEGF).operands(&[v]).results(&[ty]))
}

pub fn xori(b: &mut Builder, l: ValueId, r: ValueId) -> ValueId {
    binop(b, XORI, l, r)
}

/// Logical not of an i1 (`xori %v, true`).
pub fn not(b: &mut Builder, v: ValueId) -> ValueId {
    let t = const_bool(b, true);
    xori(b, v, t)
}

// ---- comparisons ------------------------------------------------------------------

/// Integer comparison; `pred` ∈ {eq, ne, slt, sle, sgt, sge}.
pub fn cmpi(b: &mut Builder, pred: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let i1 = b.ir.i1();
    let p = b.ir.attr_str(pred);
    b.insert_r(
        OpSpec::new(CMPI)
            .operands(&[lhs, rhs])
            .results(&[i1])
            .attr("predicate", p),
    )
}

/// Float comparison; `pred` ∈ {oeq, one, olt, ole, ogt, oge}.
pub fn cmpf(b: &mut Builder, pred: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let i1 = b.ir.i1();
    let p = b.ir.attr_str(pred);
    b.insert_r(
        OpSpec::new(CMPF)
            .operands(&[lhs, rhs])
            .results(&[i1])
            .attr("predicate", p),
    )
}

pub fn select(b: &mut Builder, cond: ValueId, t: ValueId, f: ValueId) -> ValueId {
    let ty = b.ir.value_ty(t);
    b.insert_r(OpSpec::new(SELECT).operands(&[cond, t, f]).results(&[ty]))
}

// ---- casts ------------------------------------------------------------------------

pub fn cast(b: &mut Builder, name: &str, v: ValueId, to: TypeId) -> ValueId {
    b.insert_r(OpSpec::new(name).operands(&[v]).results(&[to]))
}

pub fn index_cast(b: &mut Builder, v: ValueId, to: TypeId) -> ValueId {
    cast(b, INDEX_CAST, v, to)
}

pub fn sitofp(b: &mut Builder, v: ValueId, to: TypeId) -> ValueId {
    cast(b, SITOFP, v, to)
}

// ---- queries -------------------------------------------------------------------------

/// If `v` is defined by an `arith.constant`, return its integer value.
pub fn const_int_value(ir: &Ir, v: ValueId) -> Option<i64> {
    let op = ir.defining_op(v)?;
    if !ir.op_is(op, CONSTANT) {
        return None;
    }
    ir.attr_int_of(op, "value")
}

/// Whether `op` carries `fastmath = "contract"`.
pub fn has_contract_fastmath(ir: &Ir, op: OpId) -> bool {
    ir.attr_str_of(op, "fastmath") == Some("contract")
}

pub fn register(reg: &mut VerifierRegistry) {
    reg.register(CONSTANT, |ir, op| {
        if ir.get_attr(op, "value").is_none() {
            return Err("arith.constant requires 'value'".into());
        }
        if ir.op(op).results.len() != 1 {
            return Err("arith.constant has one result".into());
        }
        Ok(())
    });
    fn same_type_binop(ir: &Ir, op: OpId) -> Result<(), String> {
        let o = ir.op(op);
        if o.operands.len() != 2 || o.results.len() != 1 {
            return Err("binary op requires 2 operands, 1 result".into());
        }
        let lt = ir.value_ty(o.operands[0]);
        let rt = ir.value_ty(o.operands[1]);
        let ot = ir.value_ty(o.results[0]);
        if lt != rt || lt != ot {
            return Err("binary op operand/result types must match".into());
        }
        Ok(())
    }
    for name in INT_BINOPS.iter().chain(FLOAT_BINOPS) {
        reg.register(name, same_type_binop);
    }
    fn cmp_verifier(ir: &Ir, op: OpId) -> Result<(), String> {
        let o = ir.op(op);
        if o.operands.len() != 2 || o.results.len() != 1 {
            return Err("cmp requires 2 operands, 1 result".into());
        }
        if ir.value_ty(o.operands[0]) != ir.value_ty(o.operands[1]) {
            return Err("cmp operand types must match".into());
        }
        if !matches!(
            ir.type_kind(ir.value_ty(o.results[0])),
            TypeKind::Integer { width: 1 }
        ) {
            return Err("cmp result must be i1".into());
        }
        if ir.attr_str_of(op, "predicate").is_none() {
            return Err("cmp requires predicate".into());
        }
        Ok(())
    }
    reg.register(CMPI, cmp_verifier);
    reg.register(CMPF, cmp_verifier);
    reg.register(SELECT, |ir, op| {
        let o = ir.op(op);
        if o.operands.len() != 3 {
            return Err("select requires cond, true, false".into());
        }
        if ir.value_ty(o.operands[1]) != ir.value_ty(o.operands[2]) {
            return Err("select branch types must match".into());
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
    fn build_expression_tree() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let x = const_f32(&mut b, 2.0);
            let y = const_f32(&mut b, 3.0);
            let m = binop_contract(&mut b, MULF, x, y);
            let s = binop_contract(&mut b, ADDF, m, y);
            let f32t = b.ir.f32t();
            assert_eq!(b.ir.value_ty(s), f32t);
            let mop = b.ir.defining_op(m).unwrap();
            assert!(has_contract_fastmath(b.ir, mop));
            assert_eq!(const_int_value(b.ir, x), None);
            let i = const_index(&mut b, 9);
            assert_eq!(const_int_value(b.ir, i), Some(9));
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }

    #[test]
    fn cmp_and_not() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let x = const_i32(&mut b, 1);
            let y = const_i32(&mut b, 2);
            let c = cmpi(&mut b, "slt", x, y);
            let n = not(&mut b, c);
            let i1 = b.ir.i1();
            assert_eq!(b.ir.value_ty(n), i1);
            let _s = select(&mut b, n, x, y);
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }

    #[test]
    fn mismatched_binop_rejected() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let x = const_i32(&mut b, 1);
            let y = const_i64(&mut b, 2);
            let i32t = b.ir.i32t();
            b.insert(OpSpec::new(ADDI).operands(&[x, y]).results(&[i32t]));
        }
        assert!(verify(&ir, module, &crate::registry()).is_err());
    }
}

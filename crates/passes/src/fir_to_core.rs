//! `fir-to-core`: lower the Flang-like `fir` dialect onto the core dialects
//! (`memref`, `scf`, `arith`, `func`) — the `[3]` component of Figure 1.
//!
//! Most ops are 1:1 renames (`fir.load` → `memref.load`); the interesting
//! cases are `fir.declare` (folds away), `fir.convert` (selects the right
//! `arith` cast from the value types) and `fir.do_loop` (Fortran's inclusive
//! upper bound becomes `scf.for`'s exclusive bound via `ub + 1`).

use ftn_dialects::{arith, fir, scf};
use ftn_mlir::{Builder, Ir, OpId, Pass, PassError, TypeKind};

/// See module docs.
pub struct FirToCorePass;

impl Pass for FirToCorePass {
    fn name(&self) -> &str {
        "fir-to-core"
    }

    fn description(&self) -> &str {
        "lower HLFIR & FIR to core dialects [3]"
    }

    fn run(&mut self, ir: &mut Ir, module: OpId) -> Result<(), PassError> {
        run(ir, module).map_err(|message| PassError {
            pass: self.name().to_string(),
            message,
        })
    }
}

pub fn run(ir: &mut Ir, module: OpId) -> Result<(), String> {
    // Post-order so nested regions are converted before their parents.
    for op in ftn_mlir::walk_postorder(ir, module) {
        if !ir.op(op).alive {
            continue;
        }
        match ir.op_name(op) {
            fir::ALLOCA => rename(ir, op, "memref.alloca"),
            fir::LOAD => rename(ir, op, "memref.load"),
            fir::STORE => rename(ir, op, "memref.store"),
            fir::CALL => rename(ir, op, "func.call"),
            fir::RESULT => rename(ir, op, "scf.yield"),
            fir::IF => rename(ir, op, "scf.if"),
            fir::DECLARE => {
                let operand = ir.op(op).operands[0];
                let result = ir.result(op);
                ir.replace_all_uses(result, operand);
                ir.erase_op(op);
            }
            fir::CONVERT => lower_convert(ir, op)?,
            fir::DO_LOOP => lower_do_loop(ir, op),
            _ => {}
        }
    }
    Ok(())
}

fn rename(ir: &mut Ir, op: OpId, new_name: &str) {
    let interned = ir.intern(new_name);
    ir.op_mut(op).name = interned;
}

/// `fir.convert` → the appropriate arith cast (or a plain forward when the
/// types already agree).
fn lower_convert(ir: &mut Ir, op: OpId) -> Result<(), String> {
    let from_v = ir.op(op).operands[0];
    let result = ir.result(op);
    let from = ir.value_ty(from_v);
    let to = ir.value_ty(result);
    if from == to {
        ir.replace_all_uses(result, from_v);
        ir.erase_op(op);
        return Ok(());
    }
    let cast = match (ir.type_kind(from).clone(), ir.type_kind(to).clone()) {
        (TypeKind::Index, TypeKind::Integer { .. })
        | (TypeKind::Integer { .. }, TypeKind::Index) => arith::INDEX_CAST,
        (TypeKind::Integer { .. }, TypeKind::Float32 | TypeKind::Float64) => arith::SITOFP,
        (TypeKind::Float32 | TypeKind::Float64, TypeKind::Integer { .. }) => arith::FPTOSI,
        (TypeKind::Float32, TypeKind::Float64) => arith::EXTF,
        (TypeKind::Float64, TypeKind::Float32) => arith::TRUNCF,
        (TypeKind::Integer { width: a }, TypeKind::Integer { width: b }) if a < b => arith::EXTSI,
        (TypeKind::Integer { width: a }, TypeKind::Integer { width: b }) if a > b => arith::TRUNCI,
        (TypeKind::Index, TypeKind::Float32 | TypeKind::Float64) => {
            // Two-step: index -> i64 -> float.
            let (block, pos) = ir.op_position(op).ok_or("convert not in block")?;
            let i64v = {
                let mut b = Builder::at(ir, block, pos);
                let i64t = b.ir.i64t();
                arith::index_cast(&mut b, from_v, i64t)
            };
            ir.set_operand(op, 0, i64v);
            rename(ir, op, arith::SITOFP);
            return Ok(());
        }
        (TypeKind::Float32 | TypeKind::Float64, TypeKind::Index) => {
            let (block, pos) = ir.op_position(op).ok_or("convert not in block")?;
            let i64v = {
                let mut b = Builder::at(ir, block, pos);
                let i64t = b.ir.i64t();
                arith::cast(&mut b, arith::FPTOSI, from_v, i64t)
            };
            ir.set_operand(op, 0, i64v);
            rename(ir, op, arith::INDEX_CAST);
            return Ok(());
        }
        (f, t) => return Err(format!("fir.convert: no cast from {f:?} to {t:?}")),
    };
    rename(ir, op, cast);
    Ok(())
}

/// `fir.do_loop lb..=ub` → `scf.for lb..(ub+1)`; body shape (one index block
/// arg, trailing terminator) matches, so the region is reused in place.
fn lower_do_loop(ir: &mut Ir, op: OpId) {
    let ub = ir.op(op).operands[1];
    let (block, pos) = ir.op_position(op).expect("loop must be in a block");
    let ub_excl = {
        let mut b = Builder::at(ir, block, pos);
        let one = arith::const_index(&mut b, 1);
        arith::addi(&mut b, ub, one)
    };
    // The insertions shifted the loop right by 2.
    ir.set_operand(op, 1, ub_excl);
    rename(ir, op, scf::FOR);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{builtin, func, memref, registry};
    use ftn_interp::{call_function, Buffer, MemRefVal, Memory, NoHooks, NoObserver, RtValue};
    use ftn_mlir::{print_op, verify, Builder};

    /// fir-based function: fills arr[i-1] = i for i in 1..=n.
    fn build_fir_fill(ir: &mut Ir) -> OpId {
        let (module, body) = builtin::module(ir);
        let f32t = ir.f32t();
        let index = ir.index_t();
        let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 0);
        let mut b = Builder::at_end(ir, body);
        let (_f, entry) = func::build_func(&mut b, "fill", &[mty, index], &[]);
        let args = b.ir.block(entry).args.clone();
        b.set_insertion_point_to_end(entry);
        let one = arith::const_index(&mut b, 1);
        fir::do_loop(&mut b, one, args[1], one, |inner, iv| {
            let one_i = arith::const_index(inner, 1);
            let idx = arith::subi(inner, iv, one_i);
            let f32t = inner.ir.f32t();
            let fv = fir::convert(inner, iv, f32t);
            fir::store(inner, fv, args[0], &[idx]);
        });
        func::build_return(&mut b, &[]);
        module
    }

    #[test]
    fn converts_and_preserves_semantics() {
        let mut ir = Ir::new();
        let module = build_fir_fill(&mut ir);
        run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();
        let text = print_op(&ir, module);
        assert!(!text.contains("fir."), "no fir ops may remain:\n{text}");
        assert!(text.contains("scf.for"), "{text}");
        assert!(text.contains("arith.sitofp"), "{text}");

        let mut memory = Memory::new();
        let a = memory.alloc(Buffer::F32(vec![0.0; 5]), 0);
        let args = vec![
            RtValue::MemRef(MemRefVal {
                buffer: a,
                shape: vec![5],
                space: 0,
            }),
            RtValue::Index(5),
        ];
        call_function(
            &ir,
            module,
            "fill",
            &args,
            &mut memory,
            &mut NoHooks,
            &mut NoObserver,
        )
        .unwrap();
        // Inclusive 1..=5 must fill all five slots.
        assert_eq!(memory.get(a), &Buffer::F32(vec![1.0, 2.0, 3.0, 4.0, 5.0]));
    }

    #[test]
    fn declare_folds_away() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let mty = ir.memref_t(&[4], f32t, 0);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let (_f, entry) = func::build_func(&mut b, "g", &[], &[]);
            b.set_insertion_point_to_end(entry);
            let a = memref::alloca(&mut b, mty, &[]);
            let d = fir::declare(&mut b, a, "x");
            let i = arith::const_index(&mut b, 0);
            let v = fir::load(&mut b, d, &[i]);
            fir::store(&mut b, v, d, &[i]);
            func::build_return(&mut b, &[]);
        }
        run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();
        let text = print_op(&ir, module);
        assert!(!text.contains("fir.declare"), "{text}");
        assert!(text.contains("memref.load"), "{text}");
    }
}

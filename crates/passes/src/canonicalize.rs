//! `canonicalize`: constant folding, dead-code elimination and store→load
//! forwarding — the "simple canonicalisation to remove dependencies between
//! loop iterations" the paper applies before pipelining (§3).

use ftn_dialects::arith;
use ftn_mlir::{
    apply_patterns_greedily, AttrKind, Ir, OpId, OpSpec, Pass, PassError, RewritePattern, ValueId,
};

/// See module docs.
pub struct CanonicalizePass;

impl Pass for CanonicalizePass {
    fn name(&self) -> &str {
        "canonicalize"
    }

    fn description(&self) -> &str {
        "constant folding, DCE, store->load forwarding"
    }

    fn run(&mut self, ir: &mut Ir, module: OpId) -> Result<(), PassError> {
        let patterns: Vec<Box<dyn RewritePattern>> = vec![
            Box::new(FoldIntBinop),
            Box::new(ForwardStoreToLoad),
            Box::new(Dce),
        ];
        apply_patterns_greedily(ir, module, &patterns).map_err(|message| PassError {
            pass: "canonicalize".into(),
            message,
        })?;
        Ok(())
    }
}

/// Ops that can be erased when their results are unused.
fn is_pure(name: &str) -> bool {
    name.starts_with("arith.")
        || matches!(
            name,
            "memref.load"
                | "memref.dim"
                | "hls.axi_protocol"
                | "device.lookup"
                | "device.data_check_exists"
        )
}

/// Erase pure ops with no remaining uses.
struct Dce;

impl RewritePattern for Dce {
    fn name(&self) -> &str {
        "dce"
    }

    fn match_and_rewrite(&self, ir: &mut Ir, op: OpId) -> Result<bool, String> {
        if !is_pure(ir.op_name(op)) {
            return Ok(false);
        }
        if ir.op(op).results.is_empty() {
            return Ok(false);
        }
        let any_used = ir.op(op).results.iter().any(|&r| ir.has_uses(r));
        if any_used {
            return Ok(false);
        }
        ir.erase_op(op);
        Ok(true)
    }
}

/// Fold integer binops with two constant operands.
struct FoldIntBinop;

impl RewritePattern for FoldIntBinop {
    fn name(&self) -> &str {
        "fold-int-binop"
    }

    fn match_and_rewrite(&self, ir: &mut Ir, op: OpId) -> Result<bool, String> {
        let name = ir.op_name(op);
        let f: fn(i64, i64) -> Option<i64> = match name {
            "arith.addi" => |a, b| a.checked_add(b),
            "arith.subi" => |a, b| a.checked_sub(b),
            "arith.muli" => |a, b| a.checked_mul(b),
            "arith.divsi" => |a, b| if b != 0 { Some(a / b) } else { None },
            _ => return Ok(false),
        };
        let lhs = arith::const_int_value(ir, ir.op(op).operands[0]);
        let rhs = arith::const_int_value(ir, ir.op(op).operands[1]);
        let (Some(a), Some(b)) = (lhs, rhs) else {
            return Ok(false);
        };
        let Some(v) = f(a, b) else { return Ok(false) };
        let ty = ir.value_ty(ir.result(op));
        let attr = ir.attr(AttrKind::Int(v, ty));
        let (block, pos) = ir.op_position(op).ok_or("op not in block")?;
        let folded = ir.create_op(
            OpSpec::new(arith::CONSTANT)
                .results(&[ty])
                .attr("value", attr),
        );
        ir.insert_op(block, pos, folded);
        let new_v = ir.result(folded);
        let old_v = ir.result(op);
        ir.replace_all_uses(old_v, new_v);
        ir.erase_op(op);
        Ok(true)
    }
}

/// Replace a `memref.load` with the value of an earlier `memref.store` in the
/// same block when the memref and every index value are identical and nothing
/// in between may write memory.
struct ForwardStoreToLoad;

impl RewritePattern for ForwardStoreToLoad {
    fn name(&self) -> &str {
        "forward-store-to-load"
    }

    fn match_and_rewrite(&self, ir: &mut Ir, op: OpId) -> Result<bool, String> {
        if !ir.op_is(op, "memref.load") {
            return Ok(false);
        }
        let Some(value) = forwardable_store_value(ir, op)? else {
            return Ok(false);
        };
        let result = ir.result(op);
        ir.replace_all_uses(result, value);
        ir.erase_op(op);
        Ok(true)
    }
}

/// The value `load` would read, when an earlier store in its block wrote it
/// and nothing in between may have overwritten it.
fn forwardable_store_value(ir: &Ir, load: OpId) -> Result<Option<ValueId>, String> {
    let load_operands = &ir.op(load).operands;
    let (block, pos) = ir.op_position(load).ok_or("load not in block")?;
    for &prev in ir.block(block).ops[..pos].iter().rev() {
        let pname = ir.op_name(prev);
        if pname == "memref.store" {
            // store operands: [value, memref, indices...]
            let st = &ir.op(prev).operands;
            if st[1] != load_operands[0] {
                continue;
            }
            // Same memref: either the very element, or a possible alias.
            return Ok((st[2..] == load_operands[1..]).then_some(st[0]));
        }
        // Barriers: anything that may write memory or transfer control.
        let barrier = !ir.op(prev).regions.is_empty()
            || matches!(
                pname,
                "func.call"
                    | "memref.dma_start"
                    | "memref.wait"
                    | "memref.copy"
                    | "device.kernel_launch"
                    | "device.kernel_wait"
            );
        if barrier {
            return Ok(None);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{builtin, func, memref, registry};
    use ftn_mlir::{print_op, verify, Builder, Pass};

    #[test]
    fn folds_constants_and_removes_dead_code() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "f", &[], &[]);
            b.set_insertion_point_to_end(entry);
            let two = arith::const_index(&mut b, 2);
            let three = arith::const_index(&mut b, 3);
            let sum = arith::addi(&mut b, two, three);
            let _dead = arith::muli(&mut b, sum, sum);
            func::build_return(&mut b, &[]);
        }
        CanonicalizePass.run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();
        let text = print_op(&ir, module);
        assert!(!text.contains("arith.addi"), "{text}");
        assert!(!text.contains("arith.muli"), "{text}");
    }

    #[test]
    fn forwards_store_to_load() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let mty = ir.memref_t(&[4], f32t, 0);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "f", &[mty], &[f32t]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let i = arith::const_index(&mut b, 1);
            let v = arith::const_f32(&mut b, 5.0);
            memref::store(&mut b, v, args[0], &[i]);
            let loaded = memref::load(&mut b, args[0], &[i]);
            func::build_return(&mut b, &[loaded]);
        }
        CanonicalizePass.run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();
        let text = print_op(&ir, module);
        assert!(!text.contains("memref.load"), "forwarded:\n{text}");
        assert!(text.contains("memref.store"), "{text}");
    }

    #[test]
    fn aliasing_store_blocks_forwarding() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let mty = ir.memref_t(&[4], f32t, 0);
        let index = ir.index_t();
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "f", &[mty, index, index], &[f32t]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let v = arith::const_f32(&mut b, 5.0);
            memref::store(&mut b, v, args[0], &[args[1]]);
            // Unknown-index load must not be forwarded from a different index.
            let loaded = memref::load(&mut b, args[0], &[args[2]]);
            func::build_return(&mut b, &[loaded]);
        }
        CanonicalizePass.run(&mut ir, module).unwrap();
        let text = print_op(&ir, module);
        assert!(text.contains("memref.load"), "must NOT forward:\n{text}");
    }
}

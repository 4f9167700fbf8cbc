//! `lower-hls-to-func` — the Stencil-HMLS `[20]` lowering: `hls` dialect ops
//! become `func.call`s to HLS runtime primitives, which the `[19]` LLVM
//! integration later maps to AMD `_ssdm_op_*` intrinsics.

use ftn_dialects::hls;
use ftn_mlir::{Ir, OpId, OpSpec, Pass, PassError};

/// Callee used for `hls.pipeline`.
pub const HLS_PIPELINE_FN: &str = "_hls_spec_pipeline";
/// Callee used for `hls.unroll`.
pub const HLS_UNROLL_FN: &str = "_hls_spec_unroll";
/// Callee used for `hls.interface`.
pub const HLS_INTERFACE_FN: &str = "_hls_spec_interface";

/// See module docs.
pub struct HlsToFuncPass;

impl Pass for HlsToFuncPass {
    fn name(&self) -> &str {
        "lower-hls-to-func"
    }

    fn description(&self) -> &str {
        "hls dialect -> func.call primitives [20]"
    }

    fn run(&mut self, ir: &mut Ir, module: OpId) -> Result<(), PassError> {
        run(ir, module).map_err(|message| PassError {
            pass: "lower-hls-to-func".into(),
            message,
        })
    }
}

pub fn run(ir: &mut Ir, module: OpId) -> Result<(), String> {
    for op in ftn_mlir::walk_postorder(ir, module) {
        if !ir.op(op).alive {
            continue;
        }
        match ir.op_name(op) {
            hls::PIPELINE => {
                replace_with_call(ir, op, HLS_PIPELINE_FN, &[0]);
            }
            hls::UNROLL => {
                replace_with_call(ir, op, HLS_UNROLL_FN, &[0]);
            }
            hls::INTERFACE => {
                // Keep the bundle on the call for the LLVM mapping.
                let bundle = hls::interface_bundle(ir, op).to_string();
                let call = replace_with_call(ir, op, HLS_INTERFACE_FN, &[0]);
                let battr = ir.attr_str(&bundle);
                ir.set_attr(call, "bundle", battr);
            }
            _ => {}
        }
    }
    // Drop now-unused protocol constructors.
    for op in ftn_mlir::walk_postorder(ir, module) {
        if ir.op(op).alive && ir.op_is(op, hls::AXI_PROTOCOL) && !ir.has_uses(ir.result(op)) {
            ir.erase_op(op);
        }
    }
    Ok(())
}

/// Swap `op` for `func.call @callee(operands[keep...])`; returns the call op.
fn replace_with_call(ir: &mut Ir, op: OpId, callee: &str, keep: &[usize]) -> OpId {
    let operands: Vec<_> = keep.iter().map(|&i| ir.op(op).operands[i]).collect();
    let (block, pos) = ir.op_position(op).expect("op in block");
    let sym = ir.attr_symbol(callee);
    let call = ir.create_op(
        OpSpec::new("func.call")
            .operands(&operands)
            .attr("callee", sym),
    );
    ir.insert_op(block, pos, call);
    ir.erase_op(op);
    call
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{arith, builtin, func, registry};
    use ftn_mlir::{print_op, verify, Builder};

    #[test]
    fn hls_ops_become_calls() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
        let f32t = ir.f32t();
        let mty = ir.memref_t(&[16], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "k", &[mty], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let mode = arith::const_i32(&mut b, hls::AXI_MODE_M_AXI);
            let proto = hls::build_axi_protocol(&mut b, mode);
            hls::build_interface(&mut b, args[0], proto, "gmem0");
            let ii = arith::const_i32(&mut b, 1);
            hls::build_pipeline(&mut b, ii);
            let u = arith::const_i32(&mut b, 10);
            hls::build_unroll(&mut b, u);
            func::build_return(&mut b, &[]);
        }
        run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();
        let text = print_op(&ir, module);
        assert!(!text.contains("hls."), "{text}");
        assert!(text.contains("callee = @_hls_spec_pipeline"), "{text}");
        assert!(text.contains("callee = @_hls_spec_unroll"), "{text}");
        assert!(text.contains("callee = @_hls_spec_interface"), "{text}");
        assert!(text.contains("bundle = \"gmem0\""), "{text}");
    }
}

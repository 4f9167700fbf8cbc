//! `func` dialect: functions, calls and returns.

use ftn_mlir::{BlockId, Builder, Ir, OpId, OpSpec, TypeId, ValueId, VerifierRegistry};

pub const FUNC: &str = "func.func";
pub const RETURN: &str = "func.return";
pub const CALL: &str = "func.call";

/// Build a `func.func` named `name` with the given signature at the builder's
/// insertion point; returns `(func op, entry block)`. The entry block's args
/// are the function parameters.
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

pub fn build_return(b: &mut Builder, values: &[ValueId]) -> OpId {
    b.insert(OpSpec::new(RETURN).operands(values))
}

pub fn build_call(b: &mut Builder, callee: &str, args: &[ValueId], results: &[TypeId]) -> OpId {
    let sym = b.ir.attr_symbol(callee);
    b.insert(
        OpSpec::new(CALL)
            .operands(args)
            .results(results)
            .attr("callee", sym),
    )
}

/// Function name (`sym_name`).
pub fn name(ir: &Ir, func: OpId) -> &str {
    ir.attr_str_of(func, "sym_name").unwrap_or("<anonymous>")
}

/// Entry block of a function.
pub fn entry(ir: &Ir, func: OpId) -> BlockId {
    ir.entry_block(func, 0)
}

/// Parameter values (entry block args).
pub fn params(ir: &Ir, func: OpId) -> Vec<ValueId> {
    ir.block(entry(ir, func)).args.clone()
}

/// Signature from the `function_type` attribute.
pub fn signature(ir: &Ir, func: OpId) -> (Vec<TypeId>, Vec<TypeId>) {
    let fty = ir
        .get_attr(func, "function_type")
        .and_then(|a| ir.attr_as_type(a))
        .expect("func.func without function_type");
    match ir.type_kind(fty) {
        ftn_mlir::TypeKind::Function { inputs, results } => (inputs.clone(), results.clone()),
        _ => panic!("function_type is not a function type"),
    }
}

pub fn register(reg: &mut VerifierRegistry) {
    reg.register(FUNC, |ir, op| {
        if ir.attr_str_of(op, "sym_name").is_none() {
            return Err("func.func requires sym_name".into());
        }
        if ir
            .get_attr(op, "function_type")
            .and_then(|a| ir.attr_as_type(a))
            .is_none()
        {
            return Err("func.func requires function_type".into());
        }
        if ir.op(op).regions.len() != 1 {
            return Err("func.func must have exactly one region".into());
        }
        // Entry block args must match the declared inputs.
        let (inputs, _) = signature(ir, op);
        let entry = entry(ir, op);
        let args = &ir.block(entry).args;
        if args.len() != inputs.len() {
            return Err(format!(
                "func.func '{}': {} entry args vs {} declared inputs",
                name(ir, op),
                args.len(),
                inputs.len()
            ));
        }
        for (a, t) in args.iter().zip(&inputs) {
            if ir.value_ty(*a) != *t {
                return Err(format!(
                    "func.func '{}': entry arg type mismatch",
                    name(ir, op)
                ));
            }
        }
        Ok(())
    });
    reg.register(CALL, |ir, op| {
        if ir.attr_str_of(op, "callee").is_none() {
            return Err("func.call requires callee".into());
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
    fn build_and_verify_func() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        {
            let mut b = Builder::at_end(&mut ir, body);
            let (f, entry) = build_func(&mut b, "id", &[f32t], &[f32t]);
            let arg = b.ir.block(entry).args[0];
            b.set_insertion_point_to_end(entry);
            build_return(&mut b, &[arg]);
            assert_eq!(name(b.ir, f), "id");
            assert_eq!(params(b.ir, f), vec![arg]);
        }
        let reg = crate::registry();
        verify(&ir, module, &reg).unwrap();
    }

    #[test]
    fn signature_mismatch_caught() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let i32t = ir.i32t();
        {
            let mut b = Builder::at_end(&mut ir, body);
            let (f, _entry) = build_func(&mut b, "bad", &[f32t], &[]);
            // Corrupt the declared type.
            let wrong = b.ir.function_t(&[i32t], &[]);
            let wrong_attr = b.ir.attr_type(wrong);
            b.ir.set_attr(f, "function_type", wrong_attr);
        }
        let reg = crate::registry();
        assert!(verify(&ir, module, &reg).is_err());
    }
}

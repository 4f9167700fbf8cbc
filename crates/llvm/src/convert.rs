//! Core-dialect → `llvm` dialect conversion for extracted device kernels.
//!
//! Memrefs lower to bare `!llvm.ptr` (the kernel ABI the HLS backend expects);
//! rank-1 indexing becomes `llvm.getelementptr`. `scf.for` becomes the classic
//! header/body/exit CFG with loop-carried values as block arguments, and
//! `scf.if` becomes a diamond with a merge block.

use ftn_dialects::llvm as l;
use ftn_dialects::{arith, builtin, func, scf};
use ftn_mlir::{BlockId, Builder, Ir, OpId, TypeId, TypeKind, ValueId, ValueTable};

/// Conversion failure.
#[derive(Debug, Clone)]
pub struct ConvertError {
    pub message: String,
}

impl std::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "llvm conversion error: {}", self.message)
    }
}

impl std::error::Error for ConvertError {}

fn err<T>(m: impl Into<String>) -> Result<T, ConvertError> {
    Err(ConvertError { message: m.into() })
}

/// Convert every `func.func` in `module` into an `llvm.func` in a new module;
/// returns the new module op.
pub fn convert_to_llvm_dialect(ir: &mut Ir, module: OpId) -> Result<OpId, ConvertError> {
    let (llvm_module, body) = builtin::module_with_target(ir, "fpga-llvm");
    // Keyed by the values being converted, all of which exist by now.
    let mut map = ValueTable::new(ir);
    for f in ftn_mlir::find_all(ir, module, func::FUNC) {
        map.clear();
        convert_func(ir, f, body, &mut map)?;
    }
    Ok(llvm_module)
}

/// Every op [`FuncConverter::convert_arith`] lowers. Dispatching on one of
/// these `'static` names leaves the IR free to change under the match.
const ARITH_OPS: [&str; 27] = [
    arith::ADDI,
    arith::SUBI,
    arith::MULI,
    arith::DIVSI,
    arith::REMSI,
    arith::ANDI,
    arith::ORI,
    arith::XORI,
    arith::MAXSI,
    arith::MINSI,
    arith::ADDF,
    arith::SUBF,
    arith::MULF,
    arith::DIVF,
    arith::MAXIMUMF,
    arith::MINIMUMF,
    arith::NEGF,
    arith::CMPI,
    arith::CMPF,
    arith::SELECT,
    arith::INDEX_CAST,
    arith::SITOFP,
    arith::FPTOSI,
    arith::EXTF,
    arith::TRUNCF,
    arith::EXTSI,
    arith::TRUNCI,
];

fn lower_type(ir: &mut Ir, ty: TypeId) -> TypeId {
    match ir.type_kind(ty).clone() {
        TypeKind::MemRef { .. } => l::ptr_t(ir),
        TypeKind::Index => ir.i64t(),
        _ => ty,
    }
}

struct FuncConverter<'a> {
    ir: &'a mut Ir,
    region: ftn_mlir::RegionId,
    /// old value -> new value
    map: &'a mut ValueTable<ValueId>,
}

fn convert_func(
    ir: &mut Ir,
    f: OpId,
    dest_body: BlockId,
    map: &mut ValueTable<ValueId>,
) -> Result<(), ConvertError> {
    let name = func::name(ir, f).to_string();
    let (inputs, results) = func::signature(ir, f);
    let new_inputs: Vec<TypeId> = inputs.iter().map(|&t| lower_type(ir, t)).collect();
    let new_results: Vec<TypeId> = results.iter().map(|&t| lower_type(ir, t)).collect();
    let (new_f, entry) = {
        let mut b = Builder::at_end(ir, dest_body);
        l::build_func(&mut b, &name, &new_inputs, &new_results)
    };
    let mut conv = FuncConverter {
        region: ir.op(new_f).regions[0],
        map,
        ir,
    };
    let old_entry = func::entry(conv.ir, f);
    let old_args = conv.ir.block(old_entry).args.clone();
    let new_args = conv.ir.block(entry).args.clone();
    let mut elem_attr = Vec::new();
    for (o, n) in old_args.iter().zip(&new_args) {
        conv.map.insert(*o, *n);
        let oty = conv.ir.value_ty(*o);
        if conv.ir.type_kind(oty).is_memref() {
            let elem = conv.ir.memref_elem(oty);
            elem_attr.push(conv.ir.attr_type(elem));
        } else {
            let lowered = lower_type(conv.ir, oty);
            let a = conv.ir.attr_type(lowered);
            elem_attr.push(a);
        }
    }
    // Stash per-arg lowered types so the typed-pointer downgrade can recover
    // `float*` from opaque `ptr`.
    let arr = conv.ir.attr(ftn_mlir::AttrKind::Array(elem_attr));
    conv.ir.set_attr(new_f, "arg_elem_types", arr);

    let final_bb = conv.convert_block_ops(old_entry, entry)?;
    // Structured funcs end with func.return, which we converted; if the last
    // block has no terminator (empty void func), add one.
    let needs_ret = conv
        .ir
        .block(final_bb)
        .ops
        .last()
        .map(|&op| {
            !matches!(
                conv.ir.op_name(op),
                "llvm.return" | "llvm.br" | "llvm.cond_br"
            )
        })
        .unwrap_or(true);
    if needs_ret {
        let mut b = Builder::at_end(conv.ir, final_bb);
        l::ret(&mut b, &[]);
    }
    Ok(())
}

impl<'a> FuncConverter<'a> {
    fn v(&self, old: ValueId) -> Result<ValueId, ConvertError> {
        self.map.get(old).ok_or_else(|| ConvertError {
            message: "value not yet converted (dominance violation?)".into(),
        })
    }

    fn operand_vs(&self, op: OpId) -> Result<Vec<ValueId>, ConvertError> {
        self.ir.op(op).operands.iter().map(|&o| self.v(o)).collect()
    }

    /// Convert the ops of `old_block` emitting into `bb`; returns the block
    /// where control continues (changes when structured ops expand to CFG).
    fn convert_block_ops(
        &mut self,
        old_block: BlockId,
        mut bb: BlockId,
    ) -> Result<BlockId, ConvertError> {
        let ops = self.ir.block(old_block).ops.clone();
        for op in ops {
            bb = self.convert_op(op, bb)?;
        }
        Ok(bb)
    }

    fn convert_op(&mut self, op: OpId, bb: BlockId) -> Result<BlockId, ConvertError> {
        match self.ir.op_name(op) {
            "arith.constant" => {
                let old_r = self.ir.result(op);
                let ty = self.ir.value_ty(old_r);
                let lowered = lower_type(self.ir, ty);
                let attr = self.ir.get_attr(op, "value").ok_or(ConvertError {
                    message: "constant without value".into(),
                })?;
                // Index constants re-type their attribute to i64.
                let attr = match self.ir.attr_kind(attr).clone() {
                    ftn_mlir::AttrKind::Int(v, _)
                        if matches!(self.ir.type_kind(ty), TypeKind::Index) =>
                    {
                        let i64t = self.ir.i64t();
                        self.ir.attr_int(v, i64t)
                    }
                    _ => attr,
                };
                let mut b = Builder::at_end(self.ir, bb);
                let v = l::constant(&mut b, attr, lowered);
                self.map.insert(old_r, v);
                Ok(bb)
            }
            n if n.starts_with("arith.") => match ARITH_OPS.iter().find(|&&a| a == n) {
                Some(name) => self.convert_arith(op, bb, name),
                None => err(format!("unsupported arith op '{n}'")),
            },
            "memref.alloca" | "memref.alloc" => {
                // Device-local scratch (privatized scalars, reduction copies):
                // static shape only.
                let old_r = self.ir.result(op);
                let mty = self.ir.value_ty(old_r);
                let shape = self.ir.memref_shape(mty).to_vec();
                if shape.contains(&ftn_mlir::types::DYN_DIM) {
                    return err("dynamic device-local allocation unsupported");
                }
                let count: i64 = shape.iter().product::<i64>().max(1);
                let elem = self.ir.memref_elem(mty);
                let mut b = Builder::at_end(self.ir, bb);
                let i64t = b.ir.i64t();
                let cattr = b.ir.attr_int(count, i64t);
                let c = l::constant(&mut b, cattr, i64t);
                let p = l::alloca(&mut b, c, elem);
                self.map.insert(old_r, p);
                Ok(bb)
            }
            "memref.load" => {
                let vs = self.operand_vs(op)?;
                if vs.len() > 2 {
                    return err("only rank-0/1 memref.load supported on the device path");
                }
                let old_r = self.ir.result(op);
                let elem = self.ir.value_ty(old_r);
                let mut b = Builder::at_end(self.ir, bb);
                let p = if vs.len() == 2 {
                    l::gep(&mut b, vs[0], vs[1], elem)
                } else {
                    vs[0]
                };
                let v = l::load(&mut b, p, elem);
                self.map.insert(old_r, v);
                Ok(bb)
            }
            "memref.store" => {
                let vs = self.operand_vs(op)?;
                if vs.len() > 3 {
                    return err("only rank-0/1 memref.store supported on the device path");
                }
                let elem = {
                    let old_val = self.ir.op(op).operands[0];
                    self.ir.value_ty(old_val)
                };
                let mut b = Builder::at_end(self.ir, bb);
                let p = if vs.len() == 3 {
                    l::gep(&mut b, vs[1], vs[2], elem)
                } else {
                    vs[1]
                };
                l::store(&mut b, vs[0], p);
                Ok(bb)
            }
            "func.call" => {
                let vs = self.operand_vs(op)?;
                let callee = self
                    .ir
                    .attr_str_of(op, "callee")
                    .ok_or(ConvertError {
                        message: "call without callee".into(),
                    })?
                    .to_string();
                let old_results = self.ir.op(op).results.clone();
                let result_tys: Vec<TypeId> = old_results
                    .iter()
                    .map(|&r| {
                        let t = self.ir.value_ty(r);
                        lower_type(self.ir, t)
                    })
                    .collect();
                let bundle = self.ir.attr_str_of(op, "bundle").map(|s| s.to_string());
                let mut b = Builder::at_end(self.ir, bb);
                let call = l::call(&mut b, &callee, &vs, &result_tys);
                if let Some(bd) = bundle {
                    let a = b.ir.attr_str(&bd);
                    b.ir.set_attr(call, "bundle", a);
                }
                for (o, n) in old_results.iter().zip(self.ir.op(call).results.iter()) {
                    self.map.insert(*o, *n);
                }
                Ok(bb)
            }
            "func.return" => {
                let vs = self.operand_vs(op)?;
                let mut b = Builder::at_end(self.ir, bb);
                l::ret(&mut b, &vs);
                Ok(bb)
            }
            "scf.for" => self.convert_scf_for(op, bb),
            "scf.if" => self.convert_scf_if(op, bb),
            "scf.yield" => Ok(bb), // handled by parents
            other => err(format!("cannot convert op '{other}' to llvm dialect")),
        }
    }

    fn convert_arith(
        &mut self,
        op: OpId,
        bb: BlockId,
        name: &str,
    ) -> Result<BlockId, ConvertError> {
        let vs = self.operand_vs(op)?;
        let fastmath = self.ir.attr_str_of(op, "fastmath").map(|s| s.to_string());
        let predicate = self.ir.attr_str_of(op, "predicate").map(|s| s.to_string());
        let old_results = self.ir.op(op).results.clone();
        let mut b = Builder::at_end(self.ir, bb);
        let new_v: ValueId = match name {
            "arith.addi" => l::binop(&mut b, l::ADD, vs[0], vs[1]),
            "arith.subi" => l::binop(&mut b, l::SUB, vs[0], vs[1]),
            "arith.muli" => l::binop(&mut b, l::MUL, vs[0], vs[1]),
            "arith.divsi" => l::binop(&mut b, l::SDIV, vs[0], vs[1]),
            "arith.remsi" => l::binop(&mut b, l::SREM, vs[0], vs[1]),
            "arith.andi" => l::binop(&mut b, l::AND, vs[0], vs[1]),
            "arith.ori" => l::binop(&mut b, l::OR, vs[0], vs[1]),
            "arith.xori" => l::binop(&mut b, l::XOR, vs[0], vs[1]),
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" => {
                let lname = match name {
                    "arith.addf" => l::FADD,
                    "arith.subf" => l::FSUB,
                    "arith.mulf" => l::FMUL,
                    _ => l::FDIV,
                };
                match fastmath {
                    Some(fm) => l::binop_fm(&mut b, lname, vs[0], vs[1], &fm),
                    None => l::binop(&mut b, lname, vs[0], vs[1]),
                }
            }
            "arith.maximumf" | "arith.minimumf" | "arith.maxsi" | "arith.minsi" => {
                // max(a,b) = select(a cmp b, a, b)
                let pred = match name {
                    "arith.maximumf" => "ogt",
                    "arith.minimumf" => "olt",
                    "arith.maxsi" => "sgt",
                    _ => "slt",
                };
                let is_float = name.ends_with('f');
                let c = if is_float {
                    let i1 = b.ir.i1();
                    let p = b.ir.attr_str(pred);
                    b.insert_r(
                        ftn_mlir::OpSpec::new(l::FCMP)
                            .operands(&[vs[0], vs[1]])
                            .results(&[i1])
                            .attr("predicate", p),
                    )
                } else {
                    l::icmp(&mut b, pred, vs[0], vs[1])
                };
                let ty = b.ir.value_ty(vs[0]);
                b.insert_r(
                    ftn_mlir::OpSpec::new(l::SELECT)
                        .operands(&[c, vs[0], vs[1]])
                        .results(&[ty]),
                )
            }
            "arith.negf" => {
                let ty = b.ir.value_ty(vs[0]);
                b.insert_r(
                    ftn_mlir::OpSpec::new(l::FNEG)
                        .operands(&[vs[0]])
                        .results(&[ty]),
                )
            }
            "arith.cmpi" | "arith.cmpf" => {
                let lname = if name == "arith.cmpi" {
                    l::ICMP
                } else {
                    l::FCMP
                };
                let i1 = b.ir.i1();
                let p = b.ir.attr_str(&predicate.unwrap_or_else(|| "eq".into()));
                b.insert_r(
                    ftn_mlir::OpSpec::new(lname)
                        .operands(&[vs[0], vs[1]])
                        .results(&[i1])
                        .attr("predicate", p),
                )
            }
            "arith.select" => {
                let ty = b.ir.value_ty(vs[1]);
                b.insert_r(
                    ftn_mlir::OpSpec::new(l::SELECT)
                        .operands(&[vs[0], vs[1], vs[2]])
                        .results(&[ty]),
                )
            }
            "arith.index_cast" => {
                // index and integers are both integers now; widen/narrow.
                let old_r = old_results[0];
                let to = {
                    let t = b.ir.value_ty(old_r);
                    lower_type(b.ir, t)
                };
                let from_ty = b.ir.value_ty(vs[0]);
                if from_ty == to {
                    vs[0]
                } else {
                    let from_w = b.ir.int_width(from_ty).unwrap_or(64);
                    let to_w = b.ir.int_width(to).unwrap_or(64);
                    let opn = if from_w < to_w { l::SEXT } else { l::TRUNC };
                    b.insert_r(ftn_mlir::OpSpec::new(opn).operands(&[vs[0]]).results(&[to]))
                }
            }
            "arith.sitofp" | "arith.fptosi" | "arith.extf" | "arith.truncf" | "arith.extsi"
            | "arith.trunci" => {
                let lname = match name {
                    "arith.sitofp" => l::SITOFP,
                    "arith.fptosi" => l::FPTOSI,
                    "arith.extf" => l::FPEXT,
                    "arith.truncf" => l::FPTRUNC,
                    "arith.extsi" => l::SEXT,
                    _ => l::TRUNC,
                };
                let old_r = old_results[0];
                let to = {
                    let t = b.ir.value_ty(old_r);
                    lower_type(b.ir, t)
                };
                b.insert_r(
                    ftn_mlir::OpSpec::new(lname)
                        .operands(&[vs[0]])
                        .results(&[to]),
                )
            }
            other => return err(format!("unsupported arith op '{other}'")),
        };
        self.map.insert(old_results[0], new_v);
        Ok(bb)
    }

    fn convert_scf_for(&mut self, op: OpId, bb: BlockId) -> Result<BlockId, ConvertError> {
        let vs = self.operand_vs(op)?; // lb, ub, step, inits...
        let (lb, ub, step) = (vs[0], vs[1], vs[2]);
        let inits = &vs[3..];
        let i64t = self.ir.i64t();
        let mut carried_tys = vec![i64t];
        for &v in inits {
            carried_tys.push(self.ir.value_ty(v));
        }
        let result_tys: Vec<TypeId> = inits.iter().map(|&v| self.ir.value_ty(v)).collect();

        let header = self.ir.new_block(self.region, &carried_tys);
        let body_bb = self.ir.new_block(self.region, &[]);
        let exit = self.ir.new_block(self.region, &result_tys);

        // Pre-header branch.
        {
            let mut b = Builder::at_end(self.ir, bb);
            let mut args = vec![lb];
            args.extend_from_slice(inits);
            l::br(&mut b, header, &args);
        }
        // Header: compare and branch.
        let header_args = self.ir.block(header).args.clone();
        let iv = header_args[0];
        let accs = header_args[1..].to_vec();
        {
            let mut b = Builder::at_end(self.ir, header);
            let c = l::icmp(&mut b, "slt", iv, ub);
            l::cond_br(&mut b, c, body_bb, &[], exit, &accs);
        }
        // Body: bind old iv/iter args, convert ops, then latch back.
        let old_body = scf::for_body(self.ir, op);
        let old_args = self.ir.block(old_body).args.clone();
        self.map.insert(old_args[0], iv);
        for (o, n) in old_args[1..].iter().zip(&accs) {
            self.map.insert(*o, *n);
        }
        let body_end = self.convert_block_ops(old_body, body_bb)?;
        // Yield operands become the next accs.
        let yield_op = *self.ir.block(old_body).ops.last().ok_or(ConvertError {
            message: "empty loop body".into(),
        })?;
        let yields = self.operand_vs(yield_op)?;
        {
            let mut b = Builder::at_end(self.ir, body_end);
            let next_iv = l::binop(&mut b, l::ADD, iv, step);
            let mut args = vec![next_iv];
            args.extend_from_slice(&yields);
            l::br(&mut b, header, &args);
        }
        // Map loop results to exit block args.
        let old_results = self.ir.op(op).results.clone();
        let exit_args = self.ir.block(exit).args.clone();
        for (o, n) in old_results.iter().zip(exit_args) {
            self.map.insert(*o, n);
        }
        Ok(exit)
    }

    fn convert_scf_if(&mut self, op: OpId, bb: BlockId) -> Result<BlockId, ConvertError> {
        let cond = self.v(self.ir.op(op).operands[0])?;
        let old_results = self.ir.op(op).results.clone();
        let result_tys: Vec<TypeId> = old_results
            .iter()
            .map(|&r| {
                let t = self.ir.value_ty(r);
                lower_type(self.ir, t)
            })
            .collect();
        let then_bb = self.ir.new_block(self.region, &[]);
        let else_bb = self.ir.new_block(self.region, &[]);
        let merge = self.ir.new_block(self.region, &result_tys);
        {
            let mut b = Builder::at_end(self.ir, bb);
            l::cond_br(&mut b, cond, then_bb, &[], else_bb, &[]);
        }
        for (region_idx, start) in [(0usize, then_bb), (1usize, else_bb)] {
            let old_block = self.ir.entry_block(op, region_idx);
            let end = self.convert_block_ops(old_block, start)?;
            let yield_op = *self.ir.block(old_block).ops.last().ok_or(ConvertError {
                message: "scf.if branch without terminator".into(),
            })?;
            let yields = self.operand_vs(yield_op)?;
            let mut b = Builder::at_end(self.ir, end);
            l::br(&mut b, merge, &yields);
        }
        let merge_args = self.ir.block(merge).args.clone();
        for (o, n) in old_results.iter().zip(merge_args) {
            self.map.insert(*o, n);
        }
        Ok(merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{arith, memref, registry};
    use ftn_mlir::{print_op, verify};

    #[test]
    fn converts_kernel_with_loop() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
        let f32t = ir.f32t();
        let index = ir.index_t();
        let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "k", &[mty, index], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let zero = arith::const_index(&mut b, 0);
            let one = arith::const_index(&mut b, 1);
            scf::build_for(&mut b, zero, args[1], one, &[], |ib, iv, _| {
                let v = memref::load(ib, args[0], &[iv]);
                let s = arith::binop_contract(ib, arith::ADDF, v, v);
                memref::store(ib, s, args[0], &[iv]);
                vec![]
            });
            func::build_return(&mut b, &[]);
        }
        let llvm_mod = convert_to_llvm_dialect(&mut ir, module).unwrap();
        verify(&ir, llvm_mod, &registry()).unwrap();
        let text = print_op(&ir, llvm_mod);
        assert!(text.contains("llvm.func"), "{text}");
        assert!(text.contains("llvm.getelementptr"), "{text}");
        assert!(text.contains("llvm.cond_br"), "{text}");
        assert!(text.contains("llvm.fadd"), "{text}");
        assert!(!text.contains("scf.for"), "{text}");
        assert!(!text.contains("memref."), "{text}");
    }

    #[test]
    fn loop_carried_values_become_block_args() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
        let f32t = ir.f32t();
        let index = ir.index_t();
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "sum", &[index], &[f32t]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let zero = arith::const_index(&mut b, 0);
            let one = arith::const_index(&mut b, 1);
            let init = arith::const_f32(&mut b, 0.0);
            let loop_op = scf::build_for(&mut b, zero, args[0], one, &[init], |ib, _iv, accs| {
                let c = arith::const_f32(ib, 1.0);
                vec![arith::addf(ib, accs[0], c)]
            });
            let r = b.ir.op(loop_op).results[0];
            func::build_return(&mut b, &[r]);
        }
        let llvm_mod = convert_to_llvm_dialect(&mut ir, module).unwrap();
        verify(&ir, llvm_mod, &registry()).unwrap();
        let text = print_op(&ir, llvm_mod);
        // Header carries iv + acc; return yields the exit block arg.
        assert!(text.contains("llvm.br"), "{text}");
        assert!(text.contains("llvm.return"), "{text}");
    }
}

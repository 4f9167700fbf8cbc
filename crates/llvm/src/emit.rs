//! LLVM-IR text emission from the `llvm` dialect. Block arguments are
//! converted to phi nodes by collecting each block's predecessors and the
//! values their terminators forward.

use std::fmt::{self, Display, Write};

use ftn_dialects::cf::cond_br_operands;
use ftn_dialects::{builtin, llvm as l};
use ftn_mlir::{AttrKind, BlockId, Ir, OpId, TypeId, TypeKind, ValueId, ValueTable};

/// Emission options.
#[derive(Clone, Copy, Debug, Default)]
pub struct EmitOptions {
    /// Emit LLVM-7-style typed pointers (`float*`) instead of opaque `ptr`.
    pub typed_pointers: bool,
    /// Rename `_hls_spec_*` callees to AMD `_ssdm_op_*` intrinsics.
    pub ssdm_intrinsics: bool,
}

/// Emit `module` (an `llvm`-dialect module) as LLVM-IR text.
pub fn emit_llvm_ir(ir: &Ir, module: OpId, options: EmitOptions) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "; ModuleID = 'ftn-device'");
    let _ = writeln!(
        out,
        "target datalayout = \"e-m:e-p270:32:32-p271:32:32-p272:64:64-i64:64-f80:128-n8:16:32:64-S128\""
    );
    let _ = writeln!(out, "target triple = \"fpga64-xilinx-none\"");
    out.push('\n');
    let mut e = FuncEmitter {
        ir,
        options,
        names: ValueTable::new(ir),
        ptr_elems: ValueTable::new(ir),
        block_labels: vec![0; ir.block_capacity()],
        next: 0,
        declared: Vec::new(),
    };
    for &f in &ir.block(builtin::body(ir, module)).ops {
        if !ir.op_is(f, l::FUNC) {
            continue;
        }
        e.emit(f, &mut out);
        out.push('\n');
    }
    for (name, (ret, params)) in e.declared {
        let _ = writeln!(out, "declare {ret} @{name}({params})");
    }
    out
}

/// Emits one function at a time; the per-value tables are allocated once
/// for the module and cleared between functions.
struct FuncEmitter<'a> {
    ir: &'a Ir,
    options: EmitOptions,
    /// The `%n` of each value an instruction of this function defines.
    names: ValueTable<u32>,
    /// memref-typed values' element types (for typed pointers).
    ptr_elems: ValueTable<TypeId>,
    /// By `BlockId`: `n` of the `bbn` label, for this function's blocks.
    block_labels: Vec<u32>,
    next: u32,
    /// External callees met so far: (name, (return type, parameter list)).
    declared: Vec<(&'a str, (String, String))>,
}

/// A value's `%n`; `%?` when no instruction of the function defines it.
#[derive(Clone, Copy)]
struct Name(Option<u32>);

impl Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(n) => write!(f, "%{n}"),
            None => f.write_str("%?"),
        }
    }
}

/// LLVM spelling of a type; `elem` is the pointee when the type is a pointer
/// and typed pointers are on.
struct Ty<'a> {
    ir: &'a Ir,
    t: TypeId,
    typed_pointers: bool,
    elem: Option<TypeId>,
}

impl Display for Ty<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ir.type_kind(self.t) {
            TypeKind::Integer { width } => write!(f, "i{width}"),
            TypeKind::Float32 => f.write_str("float"),
            TypeKind::Float64 => f.write_str("double"),
            TypeKind::Index => f.write_str("i64"),
            TypeKind::None => f.write_str("void"),
            TypeKind::Opaque { .. } => match (self.typed_pointers, self.elem) {
                (false, _) => f.write_str("ptr"),
                (true, None) => f.write_str("i8*"),
                (true, Some(t)) => {
                    let pointee = Ty {
                        t,
                        elem: None,
                        ..*self
                    };
                    write!(f, "{pointee}*")
                }
            },
            other => write!(f, "<{other:?}>"),
        }
    }
}

/// An operand as an instruction spells it: constants inline, the rest by name.
struct Operand<'e, 'a> {
    e: &'e FuncEmitter<'a>,
    v: ValueId,
}

impl Display for Operand<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ir = self.e.ir;
        let constant = ir.defining_op(self.v).filter(|&d| ir.op_is(d, l::CONSTANT));
        let Some(def) = constant else {
            return self.e.name_of(self.v).fmt(f);
        };
        let attr = ir.get_attr(def, "value").expect("constant value");
        match ir.attr_kind(attr) {
            AttrKind::Int(v, _) => write!(f, "{v}"),
            // LLVM reads a float constant of either width as the hex of its
            // `double` value; a `float` one must be a `float` widened.
            AttrKind::Float(bits, _) => {
                let mut v = f64::from_bits(*bits);
                if matches!(ir.type_kind(ir.value_ty(self.v)), TypeKind::Float32) {
                    v = v as f32 as f64;
                }
                write!(f, "0x{:016X}", v.to_bits())
            }
            AttrKind::Bool(b) => write!(f, "{}", *b as u8),
            _ => f.write_str("0"),
        }
    }
}

impl<'a> FuncEmitter<'a> {
    /// Assign the next sequential name to `v` (idempotent: values named
    /// during the pre-pass keep their name).
    fn fresh(&mut self, v: ValueId) -> Name {
        if self.names.get(v).is_none() {
            self.names.insert(v, self.next);
            self.next += 1;
        }
        self.name_of(v)
    }

    fn name_of(&self, v: ValueId) -> Name {
        Name(self.names.get(v))
    }

    fn ty(&self, t: TypeId) -> Ty<'a> {
        Ty {
            ir: self.ir,
            t,
            typed_pointers: self.options.typed_pointers,
            elem: None,
        }
    }

    /// Type text for a value, using elem info for typed pointers.
    fn vty(&self, v: ValueId) -> Ty<'a> {
        Ty {
            elem: self.ptr_elems.get(v),
            ..self.ty(self.ir.value_ty(v))
        }
    }

    fn operand(&self, v: ValueId) -> Operand<'_, 'a> {
        Operand { e: self, v }
    }

    fn label(&self, b: BlockId) -> u32 {
        self.block_labels[b.index()]
    }

    fn elem_type_attr(&self, op: OpId) -> Option<TypeId> {
        self.ir
            .get_attr(op, "elem_type")
            .and_then(|a| self.ir.attr_as_type(a))
    }

    fn emit(&mut self, f: OpId, out: &mut String) {
        let ir = self.ir;
        self.names.clear();
        self.ptr_elems.clear();
        self.next = 0;
        let name = ir.attr_str_of(f, "sym_name").unwrap_or("f");
        let blocks = &ir.region(ir.op(f).regions[0]).blocks;
        // Propagate element types from the arg_elem_types attribute.
        let entry_args = &ir.block(blocks[0]).args;
        if let Some(attr) = ir.get_attr(f, "arg_elem_types") {
            if let AttrKind::Array(items) = ir.attr_kind(attr) {
                for (&arg, &item) in entry_args.iter().zip(items) {
                    if let Some(t) = ir.attr_as_type(item) {
                        if is_ptr(ir, ir.value_ty(arg)) {
                            self.ptr_elems.insert(arg, t);
                        }
                    }
                }
            }
        }
        // Propagate elem types through GEPs and allocas.
        for &b in blocks {
            for &op in &ir.block(b).ops {
                if ir.op_is(op, l::GEP) || ir.op_is(op, l::ALLOCA) {
                    if let Some(e) = self.elem_type_attr(op) {
                        self.ptr_elems.insert(ir.result(op), e);
                    }
                }
            }
        }
        // Signature.
        out.push_str("define ");
        match result_types(ir, f).first() {
            Some(&t) => {
                let _ = write!(out, "{}", self.ty(t));
            }
            None => out.push_str("void"),
        }
        let _ = write!(out, " @{name}(");
        for (i, &a) in entry_args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let n = self.fresh(a);
            let _ = write!(out, "{} {n}", self.vty(a));
        }
        out.push_str(") {\n");
        // Label blocks and collect predecessor edges (for phis):
        // (successor, predecessor's label, forwarded args).
        let mut edges: Vec<(BlockId, u32, &'a [ValueId])> = Vec::new();
        for (i, &b) in blocks.iter().enumerate() {
            self.block_labels[b.index()] = i as u32;
            if let Some(&term) = ir.block(b).ops.last() {
                let succs = &ir.op(term).successors;
                match ir.op_name(term) {
                    "llvm.br" => edges.push((succs[0], i as u32, &ir.op(term).operands)),
                    "llvm.cond_br" => {
                        let (_c, t_args, f_args) = cond_br_operands(ir, term);
                        edges.push((succs[0], i as u32, t_args));
                        edges.push((succs[1], i as u32, f_args));
                    }
                    _ => {}
                }
            }
        }
        // Pre-assign names in emission order for every value an instruction
        // will define (block args become phis; constants are inlined and get
        // no name) so phi nodes can forward-reference latch values.
        for (i, &b) in blocks.iter().enumerate() {
            if i != 0 {
                for &arg in &ir.block(b).args {
                    self.fresh(arg);
                }
            }
            for &op in &ir.block(b).ops {
                if ir.op_is(op, l::CONSTANT) {
                    continue;
                }
                for &r in &ir.op(op).results {
                    self.fresh(r);
                }
            }
        }
        // Emit blocks.
        for (i, &b) in blocks.iter().enumerate() {
            // The entry block is `bb0`, as the phis that name it spell it.
            let _ = writeln!(out, "bb{i}:");
            if i != 0 {
                // Phi nodes for block args.
                for (ai, &arg) in ir.block(b).args.iter().enumerate() {
                    let mut incoming = edges.iter().filter(|(succ, ..)| *succ == b);
                    // Propagate pointer element info through phis.
                    if let Some((_, _, vals)) = incoming.clone().next() {
                        if let Some(e) = self.ptr_elems.get(vals[ai]) {
                            self.ptr_elems.insert(arg, e);
                        }
                    }
                    let _ = write!(out, "  {} = phi {} ", self.name_of(arg), self.vty(arg));
                    if let Some((_, label, vals)) = incoming.next() {
                        let _ = write!(out, "[ {}, %bb{label} ]", self.operand(vals[ai]));
                    }
                    for (_, label, vals) in incoming {
                        let _ = write!(out, ", [ {}, %bb{label} ]", self.operand(vals[ai]));
                    }
                    out.push('\n');
                }
            }
            for &op in &ir.block(b).ops {
                self.emit_op(out, op);
            }
        }
        out.push_str("}\n");
    }

    fn emit_op(&mut self, out: &mut String, op: OpId) {
        let ir = self.ir;
        let name = ir.op_name(op);
        let operands = &ir.op(op).operands;
        match name {
            "llvm.mlir.constant" => { /* inlined at uses */ }
            "llvm.add" | "llvm.sub" | "llvm.mul" | "llvm.sdiv" | "llvm.srem" | "llvm.and"
            | "llvm.or" | "llvm.xor" => {
                let r = self.fresh(ir.result(op));
                let opn = &name[5..];
                let _ = writeln!(
                    out,
                    "  {r} = {opn} {} {}, {}",
                    self.vty(operands[0]),
                    self.operand(operands[0]),
                    self.operand(operands[1])
                );
            }
            "llvm.fadd" | "llvm.fsub" | "llvm.fmul" | "llvm.fdiv" => {
                let r = self.fresh(ir.result(op));
                let opn = &name[5..];
                let _ = write!(out, "  {r} = {opn} ");
                if let Some(fm) = ir.attr_str_of(op, "fastmath") {
                    let _ = write!(out, "{fm} ");
                }
                let _ = writeln!(
                    out,
                    "{} {}, {}",
                    self.vty(operands[0]),
                    self.operand(operands[0]),
                    self.operand(operands[1])
                );
            }
            "llvm.fneg" => {
                let r = self.fresh(ir.result(op));
                let _ = writeln!(
                    out,
                    "  {r} = fneg {} {}",
                    self.vty(operands[0]),
                    self.operand(operands[0])
                );
            }
            "llvm.icmp" | "llvm.fcmp" => {
                let r = self.fresh(ir.result(op));
                let pred = ir.attr_str_of(op, "predicate").unwrap_or("eq");
                let opn = &name[5..];
                let _ = writeln!(
                    out,
                    "  {r} = {opn} {pred} {} {}, {}",
                    self.vty(operands[0]),
                    self.operand(operands[0]),
                    self.operand(operands[1])
                );
            }
            "llvm.select" => {
                let r = self.fresh(ir.result(op));
                let _ = writeln!(
                    out,
                    "  {r} = select i1 {}, {} {}, {} {}",
                    self.operand(operands[0]),
                    self.vty(operands[1]),
                    self.operand(operands[1]),
                    self.vty(operands[2]),
                    self.operand(operands[2])
                );
            }
            "llvm.alloca" => {
                let r = self.fresh(ir.result(op));
                let elem = self.elem_type_attr(op).expect("alloca elem_type");
                self.ptr_elems.insert(ir.result(op), elem);
                let align = type_align(ir, elem);
                let _ = writeln!(
                    out,
                    "  {r} = alloca {}, i64 {}, align {align}",
                    self.ty(elem),
                    self.operand(operands[0])
                );
            }
            "llvm.getelementptr" => {
                let r = self.fresh(ir.result(op));
                let elem = self.elem_type_attr(op).expect("gep elem_type");
                let _ = writeln!(
                    out,
                    "  {r} = getelementptr inbounds {}, {} {}, i64 {}",
                    self.ty(elem),
                    self.vty(operands[0]),
                    self.operand(operands[0]),
                    self.operand(operands[1])
                );
            }
            "llvm.load" => {
                let r = self.fresh(ir.result(op));
                let elem = ir.value_ty(ir.result(op));
                let align = type_align(ir, elem);
                let _ = writeln!(
                    out,
                    "  {r} = load {}, {} {}, align {align}",
                    self.ty(elem),
                    self.vty(operands[0]),
                    self.operand(operands[0])
                );
            }
            "llvm.store" => {
                let elem = ir.value_ty(operands[0]);
                let align = type_align(ir, elem);
                let _ = writeln!(
                    out,
                    "  store {} {}, {} {}, align {align}",
                    self.ty(elem),
                    self.operand(operands[0]),
                    self.vty(operands[1]),
                    self.operand(operands[1])
                );
            }
            "llvm.sext" | "llvm.trunc" | "llvm.sitofp" | "llvm.fptosi" | "llvm.fpext"
            | "llvm.fptrunc" => {
                let r = self.fresh(ir.result(op));
                let opn = &name[5..];
                let _ = writeln!(
                    out,
                    "  {r} = {opn} {} {} to {}",
                    self.vty(operands[0]),
                    self.operand(operands[0]),
                    self.vty(ir.result(op))
                );
            }
            "llvm.call" => {
                let callee = self.map_callee(ir.attr_str_of(op, "callee").unwrap_or("f"));
                let result = ir.op(op).results.first().copied();
                if !self.declared.iter().any(|(n, _)| *n == callee) {
                    let (mut ret, mut params) = (String::new(), String::new());
                    self.write_ret_ty(&mut ret, result);
                    for (i, &v) in operands.iter().enumerate() {
                        if i > 0 {
                            params.push_str(", ");
                        }
                        let _ = write!(params, "{}", self.vty(v));
                    }
                    self.declared.push((callee, (ret, params)));
                }
                out.push_str("  ");
                if let Some(rv) = result {
                    let r = self.fresh(rv);
                    let _ = write!(out, "{r} = ");
                }
                out.push_str("call ");
                self.write_ret_ty(out, result);
                let _ = write!(out, " @{callee}(");
                for (i, &v) in operands.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{} {}", self.vty(v), self.operand(v));
                }
                out.push_str(")\n");
            }
            "llvm.br" => {
                let dest = ir.op(op).successors[0];
                let _ = writeln!(out, "  br label %bb{}", self.label(dest));
            }
            "llvm.cond_br" => {
                let succs = &ir.op(op).successors;
                let (c, _t, _f) = cond_br_operands(ir, op);
                let _ = writeln!(
                    out,
                    "  br i1 {}, label %bb{}, label %bb{}",
                    self.operand(c),
                    self.label(succs[0]),
                    self.label(succs[1])
                );
            }
            "llvm.return" => match operands.first() {
                Some(&v) => {
                    let _ = writeln!(out, "  ret {} {}", self.vty(v), self.operand(v));
                }
                None => {
                    let _ = writeln!(out, "  ret void");
                }
            },
            other => {
                let _ = writeln!(out, "  ; unhandled op {other}");
            }
        }
    }

    /// A call's return type: its result's, or `void`.
    fn write_ret_ty(&self, out: &mut String, result: Option<ValueId>) {
        match result {
            Some(r) => {
                let _ = write!(out, "{}", self.vty(r));
            }
            None => out.push_str("void"),
        }
    }

    /// `[19]`-style mapping of HLS primitives onto AMD SSDM intrinsics.
    fn map_callee(&self, callee: &'a str) -> &'a str {
        if !self.options.ssdm_intrinsics {
            return callee;
        }
        match callee {
            "_hls_spec_pipeline" => "_ssdm_op_SpecPipeline",
            "_hls_spec_unroll" => "_ssdm_op_SpecUnroll",
            "_hls_spec_interface" => "_ssdm_op_SpecInterface",
            other => other,
        }
    }
}

fn is_ptr(ir: &Ir, t: TypeId) -> bool {
    matches!(ir.type_kind(t), TypeKind::Opaque { .. })
}

/// Result types of an `llvm.func`'s `function_type`.
fn result_types(ir: &Ir, f: OpId) -> &[TypeId] {
    let fty = ir
        .get_attr(f, "function_type")
        .and_then(|a| ir.attr_as_type(a))
        .expect("llvm.func without function_type");
    match ir.type_kind(fty) {
        TypeKind::Function { results, .. } => results,
        _ => &[],
    }
}

fn type_align(ir: &Ir, t: TypeId) -> u32 {
    match ir.type_kind(t) {
        TypeKind::Float64 | TypeKind::Integer { width: 64 } | TypeKind::Index => 8,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_to_llvm_dialect;
    use ftn_dialects::{arith, func, memref, scf};
    use ftn_mlir::Builder;

    fn build_and_convert() -> (Ir, OpId) {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
        let f32t = ir.f32t();
        let index = ir.index_t();
        let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "my_kernel", &[mty, index], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let ii = arith::const_i32(&mut b, 1);
            func::build_call(&mut b, "_hls_spec_pipeline", &[ii], &[]);
            let zero = arith::const_index(&mut b, 0);
            let one = arith::const_index(&mut b, 1);
            scf::build_for(&mut b, zero, args[1], one, &[], |ib, iv, _| {
                let v = memref::load(ib, args[0], &[iv]);
                let s = arith::binop_contract(ib, arith::MULF, v, v);
                let tenth = arith::const_f32(ib, 0.1);
                let s = arith::binop(ib, arith::ADDF, s, tenth);
                memref::store(ib, s, args[0], &[iv]);
                vec![]
            });
            func::build_return(&mut b, &[]);
        }
        let llvm_mod = convert_to_llvm_dialect(&mut ir, module).unwrap();
        (ir, llvm_mod)
    }

    #[test]
    fn emits_modern_llvm_ir() {
        let (ir, llvm_mod) = build_and_convert();
        let text = emit_llvm_ir(&ir, llvm_mod, EmitOptions::default());
        assert!(
            text.contains("define void @my_kernel(ptr %0, i64 %1)"),
            "{text}"
        );
        assert!(text.contains("phi i64"), "{text}");
        assert!(text.contains("getelementptr inbounds float, ptr"), "{text}");
        assert!(text.contains("fmul contract float"), "{text}");
        assert!(text.contains("br i1"), "{text}");
        assert!(
            text.contains("declare void (i32) @_hls_spec_pipeline")
                || text.contains("declare void"),
            "{text}"
        );
    }

    #[test]
    fn downgraded_ir_uses_typed_pointers_and_ssdm() {
        let (ir, llvm_mod) = build_and_convert();
        let text = emit_llvm_ir(
            &ir,
            llvm_mod,
            EmitOptions {
                typed_pointers: true,
                ssdm_intrinsics: true,
            },
        );
        assert!(text.contains("float* %0"), "{text}");
        assert!(
            text.contains("getelementptr inbounds float, float*"),
            "{text}"
        );
        assert!(text.contains("@_ssdm_op_SpecPipeline"), "{text}");
        assert!(
            !text.contains(" ptr "),
            "no opaque pointers allowed:\n{text}"
        );
    }

    /// The entry block is labelled the way the phis and branches that name
    /// it spell it: every `%bbN` in the text has its `bbN:` label.
    #[test]
    fn every_referenced_block_label_is_defined() {
        let (ir, llvm_mod) = build_and_convert();
        let text = emit_llvm_ir(&ir, llvm_mod, EmitOptions::default());
        assert!(
            text.contains("[ 0, %bb0 ]"),
            "the loop enters from bb0:\n{text}"
        );
        for (at, _) in text.match_indices("%bb") {
            let rest = &text[at + 3..];
            let digits = &rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(0)];
            let label = format!("\nbb{digits}:\n");
            assert!(text.contains(&label), "bb{digits} has no label:\n{text}");
        }
    }

    /// A float constant prints as the hex of its `double` value, a `float`
    /// narrowed first: `0.1` as a `float` reads `0x3FB99999A0000000`.
    #[test]
    fn float_constants_print_as_the_hex_of_their_widened_value() {
        let (ir, llvm_mod) = build_and_convert();
        let text = emit_llvm_ir(&ir, llvm_mod, EmitOptions::default());
        assert!(
            text.contains("fadd float %") && text.contains(", 0x3FB99999A0000000\n"),
            "{text}"
        );
    }

    /// A declaration names the callee before its parameter list, in both
    /// forms.
    #[test]
    fn declarations_put_the_parameter_list_after_the_name() {
        let (ir, llvm_mod) = build_and_convert();
        let modern = emit_llvm_ir(&ir, llvm_mod, EmitOptions::default());
        assert!(
            modern.contains("\ndeclare void @_hls_spec_pipeline(i32)\n"),
            "{modern}"
        );
        let options = EmitOptions {
            typed_pointers: true,
            ssdm_intrinsics: true,
        };
        let typed = emit_llvm_ir(&ir, llvm_mod, options);
        assert!(
            typed.contains("\ndeclare void @_ssdm_op_SpecPipeline(i32)\n"),
            "{typed}"
        );
    }
}

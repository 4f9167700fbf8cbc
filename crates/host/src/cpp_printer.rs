//! The C++/OpenCL host-code printer (§3: "the host code is fed into a printer
//! that we developed which generates C++ with OpenCL that is then compiled by
//! Clang"). Generates compilable-looking C++ from the lowered host module;
//! device-dialect ops map onto a small `ftn::` runtime veneer over the OpenCL
//! C API, and the structured control flow reconstructs C++ `for`/`if`.

use std::fmt::{self, Display, Write};

use ftn_dialects::{builtin, device, func, scf};
use ftn_mlir::{AttrKind, BlockId, Ir, OpId, TypeId, TypeKind, ValueId, ValueTable};

/// Generate the complete C++ translation unit for a host module.
pub fn print_host_cpp(ir: &Ir, host_module: OpId) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str(PRELUDE);
    let mut p = CppPrinter {
        ir,
        names: ValueTable::new(ir),
        next: 0,
        indent: 1,
    };
    for &op in &ir.block(builtin::body(ir, host_module)).ops {
        if ir.op_is(op, func::FUNC) {
            p.print_func(op, &mut out);
            out.push('\n');
        }
    }
    out
}

const PRELUDE: &str = r#"// Generated by the ftn Fortran->FPGA OpenMP pipeline. Do not edit.
#include <CL/cl2.hpp>
#include <cstdint>
#include <vector>
#include "ftn_runtime.hpp" // device data environment + OpenCL setup veneer

using ftn::runtime;

"#;

/// What a C++ local is called: a role prefix and a per-function counter.
#[derive(Clone, Copy, PartialEq)]
struct Local {
    prefix: &'static str,
    n: u32,
}

/// A value's local, or `UNBOUND` when the printer never declared one.
#[derive(Clone, Copy, PartialEq)]
struct Name(Option<Local>);

impl Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(Local { prefix, n }) => write!(f, "{prefix}{n}"),
            None => f.write_str("UNBOUND"),
        }
    }
}

/// The names of `values` separated by `sep`; `empty` when there are none.
struct Joined<'p, 'a> {
    p: &'p CppPrinter<'a>,
    values: &'a [ValueId],
    sep: &'static str,
    empty: &'static str,
}

impl Display for Joined<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.values.is_empty() {
            return f.write_str(self.empty);
        }
        for (i, &v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(self.sep)?;
            }
            self.p.name(v).fmt(f)?;
        }
        Ok(())
    }
}

/// Raw data pointer for a host-side memref: `.data()` of a `std::vector`
/// local, the pointer itself otherwise.
struct DataPtr(Name);

impl Display for DataPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let is_vector = matches!(self.0 .0, Some(local) if local.prefix == "host_buf");
        self.0.fmt(f)?;
        if is_vector {
            f.write_str(".data()")?;
        }
        Ok(())
    }
}

/// Prints one function at a time; the name table is allocated once for the
/// module and cleared between functions.
struct CppPrinter<'a> {
    ir: &'a Ir,
    names: ValueTable<Local>,
    next: u32,
    indent: usize,
}

impl<'a> CppPrinter<'a> {
    fn fresh(&mut self, v: ValueId, prefix: &'static str) -> Name {
        let local = Local {
            prefix,
            n: self.next,
        };
        self.next += 1;
        self.names.insert(v, local);
        Name(Some(local))
    }

    fn name(&self, v: ValueId) -> Name {
        Name(self.names.get(v))
    }

    fn joined(
        &self,
        values: &'a [ValueId],
        sep: &'static str,
        empty: &'static str,
    ) -> Joined<'_, 'a> {
        Joined {
            p: self,
            values,
            sep,
            empty,
        }
    }

    fn cty(&self, ty: TypeId) -> &'static str {
        match self.ir.type_kind(ty) {
            TypeKind::Float32 => "float",
            TypeKind::Float64 => "double",
            TypeKind::Integer { width: 1 } => "bool",
            TypeKind::Integer { width: 32 } => "int32_t",
            TypeKind::Integer { .. } | TypeKind::Index => "int64_t",
            TypeKind::MemRef {
                memory_space: 0, ..
            } => "float*",
            TypeKind::MemRef { .. } => "cl::Buffer",
            _ => "auto",
        }
    }

    /// Element C type of a memref value.
    fn elem_cty(&self, v: ValueId) -> &'static str {
        let ty = self.ir.value_ty(v);
        match self.ir.type_kind(ty) {
            TypeKind::MemRef { elem, .. } => self.cty(*elem),
            _ => "float",
        }
    }

    fn write_indent(&self, out: &mut String) {
        for _ in 0..self.indent {
            out.push_str("  ");
        }
    }

    /// One indented line of output.
    fn line(&self, out: &mut String, text: fmt::Arguments<'_>) {
        self.write_indent(out);
        let _ = out.write_fmt(text);
        out.push('\n');
    }

    fn print_func(&mut self, f: OpId, out: &mut String) {
        let ir = self.ir;
        self.names.clear();
        self.next = 0;
        self.indent = 1;
        let entry = func::entry(ir, f);
        let _ = write!(out, "void {}(", func::name(ir, f));
        for (i, &a) in ir.block(entry).args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let ty = ir.value_ty(a);
            let n = self.fresh(a, "p");
            let _ = match ir.type_kind(ty) {
                TypeKind::MemRef {
                    memory_space: 0,
                    elem,
                    ..
                } => write!(out, "{}* {n}", self.cty(*elem)),
                _ => write!(out, "{} {n}", self.cty(ty)),
            };
        }
        out.push_str(") {\n");
        self.print_block(entry, out);
        out.push_str("}\n");
    }

    fn print_block(&mut self, block: BlockId, out: &mut String) {
        for &op in &self.ir.block(block).ops {
            self.print_op(op, out);
        }
    }

    fn print_op(&mut self, op: OpId, out: &mut String) {
        let ir = self.ir;
        let operands = &ir.op(op).operands;
        match ir.op_name(op) {
            "arith.constant" => {
                let r = ir.result(op);
                let ty = ir.value_ty(r);
                let n = self.fresh(r, "v");
                let c = self.cty(ty);
                let attr = ir.get_attr(op, "value").expect("constant value");
                match ir.attr_kind(attr) {
                    AttrKind::Int(v, _) => self.line(out, format_args!("const {c} {n} = {v};")),
                    AttrKind::Float(bits, _) => {
                        let v = f64::from_bits(*bits);
                        if matches!(ir.type_kind(ty), TypeKind::Float32) {
                            self.line(out, format_args!("const {c} {n} = {v:?}f;"))
                        } else {
                            self.line(out, format_args!("const {c} {n} = {v:?};"))
                        }
                    }
                    AttrKind::Bool(b) => self.line(out, format_args!("const {c} {n} = {b};")),
                    _ => self.line(out, format_args!("const {c} {n} = 0;")),
                }
            }
            n if n.starts_with("arith.") => self.print_arith(op, n, out),
            "memref.alloc" | "memref.alloca" => {
                let r = ir.result(op);
                let elem = self.elem_cty(r);
                let n = self.fresh(r, "host_buf");
                self.write_indent(out);
                let _ = write!(out, "std::vector<{elem}> {n}(");
                // Static extents are literals, dynamic ones the next operand.
                let shape = ir.memref_shape(ir.value_ty(r));
                let mut dyn_sizes = operands.iter();
                for (i, &d) in shape.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" * ");
                    }
                    let _ = if d == ftn_mlir::types::DYN_DIM {
                        let extent = *dyn_sizes.next().expect("an operand per dynamic extent");
                        write!(out, "{}", self.name(extent))
                    } else {
                        write!(out, "{d}")
                    };
                }
                if shape.is_empty() {
                    out.push('1');
                }
                out.push_str(");\n");
            }
            "memref.load" => {
                let base = operands[0];
                let elem = self.elem_cty(base);
                let n = self.fresh(ir.result(op), "v");
                self.line(
                    out,
                    format_args!(
                        "{elem} {n} = {}[{}];",
                        self.name(base),
                        self.joined(&operands[1..], " + ", "0")
                    ),
                );
            }
            "memref.store" => {
                self.line(
                    out,
                    format_args!(
                        "{}[{}] = {};",
                        self.name(operands[1]),
                        self.joined(&operands[2..], " + ", "0"),
                        self.name(operands[0])
                    ),
                );
            }
            "memref.dim" => {
                let n = self.fresh(ir.result(op), "v");
                self.line(
                    out,
                    format_args!(
                        "int64_t {n} = /* extent of */ runtime.extent({});",
                        self.name(operands[0])
                    ),
                );
            }
            "memref.dma_start" => {
                let (src, dst) = (operands[0], operands[1]);
                let _ = self.fresh(ir.result(op), "evt");
                if self.space_of(src) == 0 {
                    let dst = self.name(dst);
                    self.line(out, format_args!(
                        "runtime.queue.enqueueWriteBuffer({dst}, CL_FALSE, 0, runtime.bytes({dst}), {}); // host -> device",
                        DataPtr(self.name(src))
                    ));
                } else {
                    let src = self.name(src);
                    self.line(out, format_args!(
                        "runtime.queue.enqueueReadBuffer({src}, CL_FALSE, 0, runtime.bytes({src}), {}); // device -> host",
                        DataPtr(self.name(dst))
                    ));
                }
            }
            "memref.wait" => self.line(out, format_args!("runtime.queue.finish();")),
            device::ALLOC => {
                let r = ir.result(op);
                let name = device::data_name(ir, op);
                let space = device::memory_space(ir, op);
                let elem = self.elem_cty(r);
                let n = self.fresh(r, "dev_buf");
                self.line(out, format_args!(
                    "cl::Buffer {n} = runtime.device_alloc(\"{name}\", /*bank=*/{space}, {} * sizeof({elem}));",
                    self.joined(operands, " * ", "1")
                ));
            }
            device::LOOKUP => {
                let name = device::data_name(ir, op);
                let n = self.fresh(ir.result(op), "dev_buf");
                self.line(
                    out,
                    format_args!("cl::Buffer {n} = runtime.device_lookup(\"{name}\");"),
                );
            }
            device::DATA_CHECK_EXISTS => {
                let name = device::data_name(ir, op);
                let n = self.fresh(ir.result(op), "v");
                self.line(
                    out,
                    format_args!("bool {n} = runtime.data_check_exists(\"{name}\");"),
                );
            }
            device::DATA_ACQUIRE => {
                let name = device::data_name(ir, op);
                self.line(out, format_args!("runtime.data_acquire(\"{name}\");"));
            }
            device::DATA_RELEASE => {
                let name = device::data_name(ir, op);
                self.line(out, format_args!("runtime.data_release(\"{name}\");"));
            }
            device::KERNEL_CREATE => {
                let fname = device::kernel_function(ir, op);
                let n = self.fresh(ir.result(op), "kernel");
                self.line(
                    out,
                    format_args!("cl::Kernel {n}(runtime.program, \"{fname}\");"),
                );
                for (i, &arg) in operands.iter().enumerate() {
                    self.line(out, format_args!("{n}.setArg({i}, {});", self.name(arg)));
                }
            }
            device::KERNEL_LAUNCH => {
                self.line(
                    out,
                    format_args!("runtime.queue.enqueueTask({});", self.name(operands[0])),
                );
            }
            device::KERNEL_WAIT => self.line(out, format_args!("runtime.queue.finish();")),
            "scf.for" => self.print_for(op, out),
            "scf.if" => self.print_if(op, out),
            "scf.yield" => { /* handled by parents */ }
            "func.return" => self.line(out, format_args!("return;")),
            "func.call" => {
                let callee = ir.attr_str_of(op, "callee").unwrap_or("f");
                self.line(
                    out,
                    format_args!("{callee}({});", self.joined(operands, ", ", "")),
                );
            }
            other => self.line(out, format_args!("// unhandled op: {other}")),
        }
    }

    fn space_of(&self, v: ValueId) -> u32 {
        match self.ir.type_kind(self.ir.value_ty(v)) {
            TypeKind::MemRef { memory_space, .. } => *memory_space,
            _ => 0,
        }
    }

    fn print_arith(&mut self, op: OpId, name: &str, out: &mut String) {
        let ir = self.ir;
        let operands = &ir.op(op).operands;
        let r = ir.op(op).results.first().copied();
        let binop = |sym: &str, p: &mut Self, out: &mut String| {
            let r = r.expect("binop result");
            let ty = p.cty(p.ir.value_ty(r));
            let n = p.fresh(r, "v");
            let (a, b) = (p.name(operands[0]), p.name(operands[1]));
            p.line(out, format_args!("{ty} {n} = {a} {sym} {b};"));
        };
        match name {
            "arith.addi" | "arith.addf" => binop("+", self, out),
            "arith.subi" | "arith.subf" => binop("-", self, out),
            "arith.muli" | "arith.mulf" => binop("*", self, out),
            "arith.divsi" | "arith.divf" => binop("/", self, out),
            "arith.remsi" => binop("%", self, out),
            "arith.andi" => binop("&", self, out),
            "arith.ori" => binop("|", self, out),
            "arith.xori" => binop("^", self, out),
            "arith.maxsi" | "arith.maximumf" | "arith.minsi" | "arith.minimumf" => {
                let r = r.expect("result");
                let ty = self.cty(ir.value_ty(r));
                let f = if name.contains("max") {
                    "std::max"
                } else {
                    "std::min"
                };
                let n = self.fresh(r, "v");
                self.line(
                    out,
                    format_args!(
                        "{ty} {n} = {f}<{ty}>({}, {});",
                        self.name(operands[0]),
                        self.name(operands[1])
                    ),
                );
            }
            "arith.negf" => {
                let r = r.expect("result");
                let ty = self.cty(ir.value_ty(r));
                let n = self.fresh(r, "v");
                self.line(out, format_args!("{ty} {n} = -{};", self.name(operands[0])));
            }
            "arith.cmpi" | "arith.cmpf" => {
                let pred = ir.attr_str_of(op, "predicate").unwrap_or("eq");
                let sym = match pred {
                    "eq" | "oeq" => "==",
                    "ne" | "one" => "!=",
                    "slt" | "olt" => "<",
                    "sle" | "ole" => "<=",
                    "sgt" | "ogt" => ">",
                    _ => ">=",
                };
                let n = self.fresh(r.expect("result"), "v");
                self.line(
                    out,
                    format_args!(
                        "bool {n} = {} {sym} {};",
                        self.name(operands[0]),
                        self.name(operands[1])
                    ),
                );
            }
            "arith.select" => {
                let r = r.expect("result");
                let ty = self.cty(ir.value_ty(r));
                let n = self.fresh(r, "v");
                self.line(
                    out,
                    format_args!(
                        "{ty} {n} = {} ? {} : {};",
                        self.name(operands[0]),
                        self.name(operands[1]),
                        self.name(operands[2])
                    ),
                );
            }
            "arith.index_cast" | "arith.sitofp" | "arith.fptosi" | "arith.extf"
            | "arith.truncf" | "arith.extsi" | "arith.trunci" => {
                let r = r.expect("result");
                let ty = self.cty(ir.value_ty(r));
                let n = self.fresh(r, "v");
                self.line(
                    out,
                    format_args!("{ty} {n} = static_cast<{ty}>({});", self.name(operands[0])),
                );
            }
            other => self.line(out, format_args!("// unhandled arith op: {other}")),
        }
    }

    fn print_for(&mut self, op: OpId, out: &mut String) {
        let ir = self.ir;
        let operands = &ir.op(op).operands;
        let (lb, ub, step) = (operands[0], operands[1], operands[2]);
        let inits = &operands[3..];
        let body = scf::for_body(ir, op);
        let body_args = &ir.block(body).args;
        let results = &ir.op(op).results;
        // Loop-carried values become mutable locals that double as results.
        for (i, (&res, &init)) in results.iter().zip(inits).enumerate() {
            let ty = self.cty(ir.value_ty(res));
            let n = self.fresh(res, "carried");
            self.line(out, format_args!("{ty} {n} = {};", self.name(init)));
            // Body iter arg aliases the same local.
            if let Name(Some(local)) = n {
                self.names.insert(body_args[1 + i], local);
            }
        }
        let iv = self.fresh(body_args[0], "i");
        self.line(
            out,
            format_args!(
                "for (int64_t {iv} = {}; {iv} < {}; {iv} += {}) {{",
                self.name(lb),
                self.name(ub),
                self.name(step)
            ),
        );
        self.indent += 1;
        self.print_block(body, out);
        // Yield: update carried locals.
        if let Some(&yield_op) = ir.block(body).ops.last() {
            if ir.op_is(yield_op, scf::YIELD) {
                for (i, &y) in ir.op(yield_op).operands.iter().enumerate() {
                    let (dst, src) = (self.name(results[i]), self.name(y));
                    if dst != src {
                        self.line(out, format_args!("{dst} = {src};"));
                    }
                }
            }
        }
        self.indent -= 1;
        self.line(out, format_args!("}}"));
    }

    fn print_if(&mut self, op: OpId, out: &mut String) {
        let ir = self.ir;
        let cond = ir.op(op).operands[0];
        let results = &ir.op(op).results;
        for &r in results {
            let ty = self.cty(ir.value_ty(r));
            let n = self.fresh(r, "phi");
            self.line(out, format_args!("{ty} {n};"));
        }
        self.line(out, format_args!("if ({}) {{", self.name(cond)));
        self.indent += 1;
        for region_idx in [0usize, 1] {
            let block = ir.entry_block(op, region_idx);
            self.print_block(block, out);
            if let Some(&yield_op) = ir.block(block).ops.last() {
                if ir.op_is(yield_op, scf::YIELD) {
                    for (i, &y) in ir.op(yield_op).operands.iter().enumerate() {
                        self.line(
                            out,
                            format_args!("{} = {};", self.name(results[i]), self.name(y)),
                        );
                    }
                }
            }
            if region_idx == 0 {
                self.indent -= 1;
                let has_else = ir.block(ir.entry_block(op, 1)).ops.len() > 1;
                if has_else || !results.is_empty() {
                    self.line(out, format_args!("}} else {{"));
                    self.indent += 1;
                } else {
                    self.line(out, format_args!("}}"));
                    return;
                }
            }
        }
        self.indent -= 1;
        self.line(out, format_args!("}}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{arith, memref};
    use ftn_mlir::Builder;

    #[test]
    fn prints_listing2_style_host_code() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let index = ir.index_t();
        let host_mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 0);
        let dev_mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "main", &[host_mty, index], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let a_dev = device::build_alloc(&mut b, dev_mty, &[args[1]], "a", 1);
            device::build_data_acquire(&mut b, "a", 1);
            memref::transfer(&mut b, args[0], a_dev);
            let k = device::build_kernel_create(&mut b, &[a_dev, args[1]], "my_kernel", None);
            device::build_kernel_launch(&mut b, k);
            device::build_kernel_wait(&mut b, k);
            memref::transfer(&mut b, a_dev, args[0]);
            device::build_data_release(&mut b, "a", 1);
            func::build_return(&mut b, &[]);
        }
        let cpp = print_host_cpp(&ir, module);
        assert!(cpp.contains("#include <CL/cl2.hpp>"), "{cpp}");
        assert!(cpp.contains("void main(float* p0, int64_t p1)"), "{cpp}");
        assert!(
            cpp.contains("runtime.device_alloc(\"a\", /*bank=*/1"),
            "{cpp}"
        );
        assert!(cpp.contains("runtime.data_acquire(\"a\")"), "{cpp}");
        assert!(cpp.contains("enqueueWriteBuffer"), "{cpp}");
        assert!(cpp.contains("enqueueReadBuffer"), "{cpp}");
        assert!(cpp.contains("cl::Kernel kernel"), "{cpp}");
        assert!(cpp.contains(".setArg(0,"), "{cpp}");
        assert!(cpp.contains("enqueueTask"), "{cpp}");
        assert!(cpp.contains("runtime.queue.finish();"), "{cpp}");
        assert!(cpp.contains("runtime.data_release(\"a\")"), "{cpp}");
    }

    #[test]
    fn prints_structured_control_flow() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let index = ir.index_t();
        let host_mty = ir.memref_t(&[8], f32t, 0);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "hostloop", &[index], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let buf = memref::alloc(&mut b, host_mty, &[]);
            let zero = arith::const_index(&mut b, 0);
            let one = arith::const_index(&mut b, 1);
            scf::build_for(&mut b, zero, args[0], one, &[], |ib, iv, _| {
                let c = arith::cmpi(ib, "slt", iv, args[0]);
                ftn_dialects::scf::build_if(
                    ib,
                    c,
                    &[],
                    |tb| {
                        let v = arith::const_f32(tb, 1.0);
                        memref::store(tb, v, buf, &[iv]);
                        vec![]
                    },
                    |_| vec![],
                );
                vec![]
            });
            func::build_return(&mut b, &[]);
        }
        let cpp = print_host_cpp(&ir, module);
        assert!(cpp.contains("for (int64_t i"), "{cpp}");
        assert!(cpp.contains("if (v"), "{cpp}");
        assert!(cpp.contains("std::vector<float> host_buf"), "{cpp}");
        assert!(cpp.contains("(8);"), "{cpp}");
    }
}

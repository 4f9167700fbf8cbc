//! Textual printing of IR in MLIR's *generic* operation form:
//!
//! ```text
//! "builtin.module"() ({
//!   %0 = "arith.constant"() {value = 1 : i32} : () -> i32
//!   "func.return"(%0) : (i32) -> ()
//! }) : () -> ()
//! ```
//!
//! The generic form round-trips through [`crate::parser`]; it is also the
//! serialization format embedded in FPGA bitstream artifacts.

use std::fmt::Write;

use crate::attrs::{AttrId, AttrKind};
use crate::ir::{BlockId, Ir, OpId, RegionId, ValueId};
use crate::types::{TypeId, TypeKind, DYN_DIM};

/// Print `op` (and everything nested inside it) to a string.
pub fn print_op(ir: &Ir, op: OpId) -> String {
    let mut p = Printer {
        value_names: vec![UNNAMED; ir.values.len()],
        block_names: vec![UNNAMED; ir.blocks.len()],
        ..Printer::new(ir)
    };
    p.print_op_line(op);
    p.out.push('\n');
    p.out
}

/// Print a type to a string.
pub fn print_type(ir: &Ir, ty: TypeId) -> String {
    let mut p = Printer::new(ir);
    p.write_type(ty);
    p.out
}

const UNNAMED: u32 = u32::MAX;

/// Everything is borrowed from `ir` and written straight into `out`; SSA
/// and block names are numbers handed out in order of first appearance,
/// kept in tables indexed by id.
struct Printer<'a> {
    ir: &'a Ir,
    out: String,
    /// By `ValueId`: the `%n` of every value met so far.
    value_names: Vec<u32>,
    /// By `BlockId`: the `^bbn` of every block met so far.
    block_names: Vec<u32>,
    next_value: u32,
    next_block: u32,
    indent: usize,
}

impl<'a> Printer<'a> {
    /// A printer for types and attributes; `print_op` adds the name tables.
    fn new(ir: &'a Ir) -> Self {
        Printer {
            ir,
            out: String::with_capacity(4096),
            value_names: Vec::new(),
            block_names: Vec::new(),
            next_value: 0,
            next_block: 0,
            indent: 0,
        }
    }

    fn write_value(&mut self, v: ValueId) {
        let slot = &mut self.value_names[v.0 as usize];
        if *slot == UNNAMED {
            *slot = self.next_value;
            self.next_value += 1;
        }
        self.out.push('%');
        push_decimal(&mut self.out, u64::from(*slot));
    }

    fn name_block(&mut self, b: BlockId) -> u32 {
        let slot = &mut self.block_names[b.0 as usize];
        if *slot == UNNAMED {
            *slot = self.next_block;
            self.next_block += 1;
        }
        *slot
    }

    fn write_block(&mut self, b: BlockId) {
        let n = self.name_block(b);
        self.out.push_str("^bb");
        push_decimal(&mut self.out, u64::from(n));
    }

    fn write_indent(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn print_op_line(&mut self, op: OpId) {
        let ir = self.ir;
        let data = ir.op(op);
        // Results.
        if !data.results.is_empty() {
            for (i, &r) in data.results.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.write_value(r);
            }
            self.out.push_str(" = ");
        }
        self.out.push('"');
        self.out.push_str(ir.str(data.name));
        self.out.push('"');
        // Operands.
        self.out.push('(');
        for (i, &v) in data.operands.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.write_value(v);
        }
        self.out.push(')');
        // Successors.
        if !data.successors.is_empty() {
            self.out.push('[');
            for (i, &b) in data.successors.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.write_block(b);
            }
            self.out.push(']');
        }
        // Regions.
        if !data.regions.is_empty() {
            self.out.push_str(" (");
            for (i, &r) in data.regions.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.print_region(r);
            }
            self.out.push(')');
        }
        // Attributes.
        if !data.attrs.is_empty() {
            self.out.push_str(" {");
            for (i, &(k, v)) in data.attrs.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.out.push_str(ir.str(k));
                if !matches!(ir.attr_kind(v), AttrKind::Unit) {
                    self.out.push_str(" = ");
                    self.write_attr(v);
                }
            }
            self.out.push('}');
        }
        // Trailing functional type.
        self.out.push_str(" : (");
        for (i, &v) in data.operands.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.write_type(ir.value_ty(v));
        }
        self.out.push_str(") -> ");
        self.write_result_types(data.results.iter().map(|&v| ir.value_ty(v)));
    }

    /// `t` for exactly one type, `(t, ...)` otherwise.
    fn write_result_types(&mut self, types: impl ExactSizeIterator<Item = TypeId>) {
        let parens = types.len() != 1;
        if parens {
            self.out.push('(');
        }
        for (i, t) in types.enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.write_type(t);
        }
        if parens {
            self.out.push(')');
        }
    }

    fn print_region(&mut self, region: RegionId) {
        let ir = self.ir;
        self.out.push('{');
        let blocks = &ir.region(region).blocks;
        // Pre-assign block labels so successor references are stable.
        for &b in blocks {
            self.name_block(b);
        }
        self.indent += 1;
        for (bi, &b) in blocks.iter().enumerate() {
            let block = ir.block(b);
            if bi != 0 || !block.args.is_empty() {
                self.out.push('\n');
                self.write_indent();
                self.write_block(b);
                if !block.args.is_empty() {
                    self.out.push('(');
                    for (i, &a) in block.args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.write_value(a);
                        self.out.push_str(": ");
                        self.write_type(ir.value_ty(a));
                    }
                    self.out.push(')');
                }
                self.out.push(':');
            }
            for &op in &block.ops {
                self.out.push('\n');
                self.write_indent();
                self.print_op_line(op);
            }
        }
        self.indent -= 1;
        self.out.push('\n');
        self.write_indent();
        self.out.push('}');
    }

    fn write_type(&mut self, ty: TypeId) {
        let ir = self.ir;
        match ir.type_kind(ty) {
            TypeKind::Integer { width } => {
                self.out.push('i');
                push_decimal(&mut self.out, u64::from(*width));
            }
            TypeKind::Float32 => self.out.push_str("f32"),
            TypeKind::Float64 => self.out.push_str("f64"),
            TypeKind::Index => self.out.push_str("index"),
            TypeKind::None => self.out.push_str("none"),
            TypeKind::MemRef {
                shape,
                elem,
                memory_space,
            } => {
                self.out.push_str("memref<");
                for &d in shape {
                    if d == DYN_DIM {
                        self.out.push('?');
                    } else {
                        let _ = write!(self.out, "{d}");
                    }
                    self.out.push('x');
                }
                self.write_type(*elem);
                if *memory_space != 0 {
                    self.out.push_str(", ");
                    push_decimal(&mut self.out, u64::from(*memory_space));
                }
                self.out.push('>');
            }
            TypeKind::Function { inputs, results } => {
                self.out.push('(');
                for (i, t) in inputs.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.write_type(*t);
                }
                self.out.push_str(") -> ");
                self.write_result_types(results.iter().copied());
            }
            TypeKind::Opaque { dialect, name } => {
                self.out.push('!');
                self.out.push_str(ir.str(*dialect));
                self.out.push('.');
                self.out.push_str(ir.str(*name));
            }
        }
    }

    fn write_attr(&mut self, attr: AttrId) {
        let ir = self.ir;
        match ir.attr_kind(attr) {
            AttrKind::Unit => self.out.push_str("unit"),
            AttrKind::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            AttrKind::Int(v, ty) => {
                let _ = write!(self.out, "{v} : ");
                self.write_type(*ty);
            }
            AttrKind::Float(bits, ty) => {
                let v = f64::from_bits(*bits);
                let _ = write!(self.out, "{v:e} : ");
                self.write_type(*ty);
            }
            AttrKind::Str(s) => {
                self.out.push('"');
                push_escaped(&mut self.out, ir.str(*s));
                self.out.push('"');
            }
            AttrKind::Type(t) => self.write_type(*t),
            AttrKind::SymbolRef(s) => {
                self.out.push('@');
                self.out.push_str(ir.str(*s));
            }
            AttrKind::Array(items) => {
                self.out.push('[');
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.write_attr(*a);
                }
                self.out.push(']');
            }
            AttrKind::Dict(entries) => {
                self.out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.out.push_str(ir.str(*k));
                    self.out.push_str(" = ");
                    self.write_attr(*v);
                }
                self.out.push('}');
            }
        }
    }
}

/// `n` in decimal, without going through `core::fmt`.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpSpec;

    #[test]
    fn prints_generic_form() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let i32t = ir.i32t();
        let one = ir.attr_i32(1);
        let c = ir.create_op(
            OpSpec::new("arith.constant")
                .results(&[i32t])
                .attr("value", one),
        );
        ir.append_op(block, c);
        let v = ir.result(c);
        let ret = ir.create_op(OpSpec::new("func.return").operands(&[v]));
        ir.append_op(block, ret);
        let module = ir.create_op(OpSpec::new("builtin.module").region(region));
        let text = print_op(&ir, module);
        assert!(text.contains("\"builtin.module\"() ({"));
        assert!(text.contains("%0 = \"arith.constant\"() {value = 1 : i32} : () -> i32"));
        assert!(text.contains("\"func.return\"(%0) : (i32) -> ()"));
    }

    #[test]
    fn prints_types() {
        let mut ir = Ir::new();
        let f32t = ir.f32t();
        let m = ir.memref_t(&[100], f32t, 1);
        assert_eq!(print_type(&ir, m), "memref<100xf32, 1>");
        let md = ir.memref_t(&[crate::types::DYN_DIM, 4], f32t, 0);
        assert_eq!(print_type(&ir, md), "memref<?x4xf32>");
        let f = ir.function_t(&[f32t], &[f32t]);
        assert_eq!(print_type(&ir, f), "(f32) -> f32");
        let k = ir.opaque_t("device", "kernelhandle");
        assert_eq!(print_type(&ir, k), "!device.kernelhandle");
    }

    #[test]
    fn prints_block_args_and_successors() {
        let mut ir = Ir::new();
        let i32t = ir.i32t();
        let region = ir.new_region();
        let b0 = ir.new_block(region, &[]);
        let b1 = ir.new_block(region, &[i32t]);
        let one = ir.attr_i32(1);
        let c = ir.create_op(
            OpSpec::new("arith.constant")
                .results(&[i32t])
                .attr("value", one),
        );
        ir.append_op(b0, c);
        let v = ir.result(c);
        let br = ir.create_op(OpSpec::new("cf.br").operands(&[v]).successors(&[b1]));
        ir.append_op(b0, br);
        let arg = ir.block(b1).args[0];
        let ret = ir.create_op(OpSpec::new("func.return").operands(&[arg]));
        ir.append_op(b1, ret);
        let f = ir.create_op(OpSpec::new("func.func").region(region));
        let text = print_op(&ir, f);
        assert!(text.contains("\"cf.br\"(%0)[^bb1]"), "{text}");
        assert!(text.contains("^bb1(%1: i32):"), "{text}");
    }
}

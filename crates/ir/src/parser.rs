//! Recursive-descent parser for the generic operation form emitted by
//! [`crate::printer`]. Used for round-trip testing and to load device kernels
//! back out of serialized bitstream artifacts.
//!
//! Restrictions relative to MLIR proper: values must be defined textually
//! before use (our printer emits blocks in dominance-compatible order), and
//! only the generic `"dialect.op"(...)` form is accepted.

use std::collections::HashMap;

use crate::attrs::{AttrId, AttrKind};
use crate::ir::{BlockId, Ir, OpId, OpSpec, RegionId, ValueId};
use crate::small_list::SmallList;
use crate::types::{TypeId, TypeKind, DYN_DIM};

/// Parse failure with 1-based line/column and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a single top-level operation (normally a `builtin.module`) from
/// `text` into `ir`, returning its id.
pub fn parse_module(ir: &mut Ir, text: &str) -> Result<OpId, ParseError> {
    let mut p = Parser {
        ir,
        src: text.as_bytes(),
        pos: 0,
        values: HashMap::new(),
        blocks: HashMap::new(),
        region_stack: Vec::new(),
    };
    p.skip_ws();
    let op = p.parse_op()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after top-level operation"));
    }
    Ok(op)
}

struct Parser<'a> {
    ir: &'a mut Ir,
    src: &'a [u8],
    pos: usize,
    values: HashMap<String, ValueId>,
    blocks: HashMap<String, BlockId>,
    region_stack: Vec<RegionId>,
}

impl<'a> Parser<'a> {
    // ---- low-level ----------------------------------------------------------

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> u8 {
        if self.at_end() {
            0
        } else {
            self.src[self.pos]
        }
    }

    fn peek2(&self) -> u8 {
        if self.pos + 1 >= self.src.len() {
            0
        } else {
            self.src[self.pos + 1]
        }
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn skip_ws(&mut self) {
        loop {
            while !self.at_end() && (self.peek() as char).is_whitespace() {
                self.pos += 1;
            }
            if self.peek() == b'/' && self.peek2() == b'/' {
                while !self.at_end() && self.peek() != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let mut line = 1u32;
        let mut col = 1u32;
        for &c in &self.src[..self.pos.min(self.src.len())] {
            if c == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            line,
            col,
            message: msg.into(),
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found '{}'",
                c as char,
                self.peek() as char
            )))
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while !self.at_end() {
            let c = self.peek() as char;
            if c.is_alphanumeric() || c == '_' || c == '.' || c == '$' || c == '-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn number_token(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == b'-' {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while !self.at_end() {
            let c = self.peek();
            if c.is_ascii_digit() {
                saw_digit = true;
                self.pos += 1;
            } else if c == b'.' && self.peek2().is_ascii_digit() {
                self.pos += 1;
            } else if (c == b'e' || c == b'E')
                && (self.peek2().is_ascii_digit() || self.peek2() == b'-' || self.peek2() == b'+')
            {
                self.pos += 1;
                if self.peek() == b'-' || self.peek() == b'+' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
        if !saw_digit {
            return Err(self.err("expected number"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn string_literal(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            if self.at_end() {
                return Err(self.err("unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => match self.bump() {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    other => {
                        return Err(self.err(format!("bad escape '\\{}'", other as char)));
                    }
                },
                c => out.push(c as char),
            }
        }
        Ok(out)
    }

    // ---- values & blocks ---------------------------------------------------

    fn value_name(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if self.peek() != b'%' {
            return Err(self.err("expected '%' value name"));
        }
        self.pos += 1;
        self.ident()
    }

    fn resolve_value(&mut self, name: &str) -> Result<ValueId, ParseError> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| self.err(format!("use of undefined value %{name}")))
    }

    fn block_label(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if self.peek() != b'^' {
            return Err(self.err("expected '^' block label"));
        }
        self.pos += 1;
        self.ident()
    }

    fn get_or_create_block(&mut self, region: RegionId, label: &str) -> BlockId {
        if let Some(&b) = self.blocks.get(label) {
            return b;
        }
        let b = self.ir.new_block(region, &[]);
        self.blocks.insert(label.to_string(), b);
        b
    }

    // ---- grammar -------------------------------------------------------------

    fn parse_op(&mut self) -> Result<OpId, ParseError> {
        self.skip_ws();
        // Optional result list.
        let mut result_names = Vec::new();
        if self.peek() == b'%' {
            loop {
                result_names.push(self.value_name()?);
                if !self.eat(b',') {
                    break;
                }
            }
            self.skip_ws();
            if !self.eat(b'=') {
                return Err(self.err("expected '=' after result list"));
            }
        }
        self.skip_ws();
        let op_name = self.string_literal()?;
        // Operands.
        self.expect(b'(')?;
        let mut operand_names = Vec::new();
        self.skip_ws();
        if self.peek() != b')' {
            loop {
                operand_names.push(self.value_name()?);
                if !self.eat(b',') {
                    break;
                }
            }
        }
        self.expect(b')')?;
        // Successors.
        let mut successor_labels = Vec::new();
        if self.eat(b'[') {
            loop {
                successor_labels.push(self.block_label()?);
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b']')?;
        }
        // Regions: '(' followed by '{'.
        let mut regions = SmallList::new();
        self.skip_ws();
        if self.peek() == b'(' {
            self.pos += 1;
            loop {
                let r = self.parse_region()?;
                regions.push(r);
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b')')?;
        }
        // Attribute dict.
        let mut attrs: Vec<(String, AttrId)> = Vec::new();
        self.skip_ws();
        if self.peek() == b'{' {
            self.pos += 1;
            self.skip_ws();
            if self.peek() != b'}' {
                loop {
                    let key = self.ident()?;
                    self.skip_ws();
                    let value = if self.peek() == b'=' {
                        self.pos += 1;
                        self.parse_attr()?
                    } else {
                        self.ir.attr_unit()
                    };
                    attrs.push((key, value));
                    if !self.eat(b',') {
                        break;
                    }
                }
            }
            self.expect(b'}')?;
        }
        // Trailing functional type.
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.err("expected ':' before functional type"));
        }
        self.expect(b'(')?;
        let mut operand_types = Vec::new();
        self.skip_ws();
        if self.peek() != b')' {
            loop {
                operand_types.push(self.parse_type()?);
                if !self.eat(b',') {
                    break;
                }
            }
        }
        self.expect(b')')?;
        self.skip_ws();
        if !self.eat_str("->") {
            return Err(self.err("expected '->' in functional type"));
        }
        let mut result_types = Vec::new();
        self.skip_ws();
        if self.peek() == b'(' {
            self.pos += 1;
            self.skip_ws();
            if self.peek() != b')' {
                loop {
                    result_types.push(self.parse_type()?);
                    if !self.eat(b',') {
                        break;
                    }
                }
            }
            self.expect(b')')?;
        } else {
            result_types.push(self.parse_type()?);
        }

        // Resolve operands & check against declared types.
        if operand_names.len() != operand_types.len() {
            return Err(self.err(format!(
                "op '{op_name}': {} operands but {} operand types",
                operand_names.len(),
                operand_types.len()
            )));
        }
        if result_names.len() != result_types.len() {
            return Err(self.err(format!(
                "op '{op_name}': {} results named but {} result types",
                result_names.len(),
                result_types.len()
            )));
        }
        let mut operands = Vec::with_capacity(operand_names.len());
        for (name, ty) in operand_names.iter().zip(&operand_types) {
            let v = self.resolve_value(name)?;
            if self.ir.value_ty(v) != *ty {
                return Err(self.err(format!("op '{op_name}': operand %{name} type mismatch")));
            }
            operands.push(v);
        }
        let mut successors = Vec::with_capacity(successor_labels.len());
        for l in &successor_labels {
            let region = *self
                .region_stack
                .last()
                .ok_or_else(|| self.err(format!("successor ^{l} referenced outside a region")))?;
            successors.push(self.get_or_create_block(region, l));
        }

        let spec = OpSpec {
            name: &op_name,
            operands: &operands,
            result_types: &result_types,
            attrs: attrs.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
            regions,
            successors: &successors,
        };
        let op = self.ir.create_op(spec);
        for (i, name) in result_names.iter().enumerate() {
            let v = self.ir.op(op).results[i];
            if self.values.insert(name.clone(), v).is_some() {
                return Err(self.err(format!("value %{name} redefined")));
            }
        }
        Ok(op)
    }

    fn parse_region(&mut self) -> Result<RegionId, ParseError> {
        self.expect(b'{')?;
        let region = self.ir.new_region();
        self.region_stack.push(region);
        let mut textual_order: Vec<BlockId> = Vec::new();
        self.skip_ws();
        // Optional header-less entry block.
        if self.peek() != b'^' && self.peek() != b'}' {
            let entry = self.ir.new_block(region, &[]);
            textual_order.push(entry);
            self.parse_block_body(entry)?;
        }
        self.skip_ws();
        while self.peek() == b'^' {
            let label = self.block_label()?;
            let block = self.get_or_create_block(region, &label);
            if textual_order.contains(&block) {
                return Err(self.err(format!("block ^{label} redefined")));
            }
            textual_order.push(block);
            self.skip_ws();
            if self.peek() == b'(' {
                self.pos += 1;
                loop {
                    let name = self.value_name()?;
                    self.expect(b':')?;
                    let ty = self.parse_type()?;
                    let arg = self.ir.add_block_arg(block, ty);
                    if self.values.insert(name.clone(), arg).is_some() {
                        return Err(self.err(format!("value %{name} redefined")));
                    }
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b')')?;
            }
            self.expect(b':')?;
            self.parse_block_body(block)?;
            self.skip_ws();
        }
        self.expect(b'}')?;
        self.region_stack.pop();
        // Restore textual block order (forward successor references may have
        // created blocks out of order).
        let known: Vec<BlockId> = self.ir.region(region).blocks.clone();
        for b in &known {
            if !textual_order.contains(b) {
                return Err(self.err("successor references block with no definition"));
            }
        }
        if textual_order.is_empty() {
            // `({ })` — normalize to one empty entry block (the builder
            // convention; truly block-less regions are not used in this IR).
            let entry = self.ir.new_block(region, &[]);
            textual_order.push(entry);
        }
        self.ir.region_mut(region).blocks = textual_order;
        Ok(region)
    }

    fn parse_block_body(&mut self, block: BlockId) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            match self.peek() {
                b'}' | b'^' | 0 => return Ok(()),
                _ => {
                    let op = self.parse_op()?;
                    self.ir.append_op(block, op);
                }
            }
        }
    }

    fn parse_type(&mut self) -> Result<TypeId, ParseError> {
        self.skip_ws();
        let c = self.peek();
        if c == b'(' {
            // Function type.
            self.pos += 1;
            let mut inputs = Vec::new();
            self.skip_ws();
            if self.peek() != b')' {
                loop {
                    inputs.push(self.parse_type()?);
                    if !self.eat(b',') {
                        break;
                    }
                }
            }
            self.expect(b')')?;
            if !self.eat_str("->") {
                return Err(self.err("expected '->' in function type"));
            }
            let mut results = Vec::new();
            self.skip_ws();
            if self.peek() == b'(' {
                self.pos += 1;
                self.skip_ws();
                if self.peek() != b')' {
                    loop {
                        results.push(self.parse_type()?);
                        if !self.eat(b',') {
                            break;
                        }
                    }
                }
                self.expect(b')')?;
            } else {
                results.push(self.parse_type()?);
            }
            return Ok(self.ir.ty(TypeKind::Function { inputs, results }));
        }
        if c == b'!' {
            self.pos += 1;
            let full = self.ident()?;
            let (dialect, name) = full
                .split_once('.')
                .ok_or_else(|| self.err("expected '!dialect.name' type"))?;
            return Ok(self.ir.opaque_t(dialect, name));
        }
        let word = self.ident()?;
        match word.as_str() {
            "f32" => Ok(self.ir.f32t()),
            "f64" => Ok(self.ir.f64t()),
            "index" => Ok(self.ir.index_t()),
            "none" => Ok(self.ir.none_t()),
            "memref" => {
                self.expect(b'<')?;
                let mut shape = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == b'?' {
                        self.pos += 1;
                        shape.push(DYN_DIM);
                        if self.peek() != b'x' {
                            return Err(self.err("expected 'x' after memref dim"));
                        }
                        self.pos += 1;
                    } else if self.peek().is_ascii_digit() {
                        let save = self.pos;
                        let mut n: i64 = 0;
                        while self.peek().is_ascii_digit() {
                            n = n * 10 + (self.bump() - b'0') as i64;
                        }
                        if self.peek() == b'x' {
                            shape.push(n);
                            self.pos += 1;
                        } else {
                            // Not a dim after all (shouldn't happen in valid input).
                            self.pos = save;
                            return Err(self.err("malformed memref shape"));
                        }
                    } else {
                        break;
                    }
                }
                let elem = self.parse_type()?;
                let mut memory_space = 0u32;
                if self.eat(b',') {
                    let tok = self.number_token()?;
                    memory_space = tok
                        .parse()
                        .map_err(|_| self.err("bad memref memory space"))?;
                }
                self.expect(b'>')?;
                Ok(self.ir.memref_t(&shape, elem, memory_space))
            }
            w if w.starts_with('i')
                && w[1..].chars().all(|c| c.is_ascii_digit())
                && w.len() > 1 =>
            {
                let width: u32 = w[1..].parse().map_err(|_| self.err("bad integer width"))?;
                Ok(self.ir.ty(TypeKind::Integer { width }))
            }
            other => Err(self.err(format!("unknown type '{other}'"))),
        }
    }

    fn parse_attr(&mut self) -> Result<AttrId, ParseError> {
        self.skip_ws();
        match self.peek() {
            b'"' => {
                let s = self.string_literal()?;
                Ok(self.ir.attr_str(&s))
            }
            b'@' => {
                self.pos += 1;
                let s = self.ident()?;
                Ok(self.ir.attr_symbol(&s))
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() != b']' {
                    loop {
                        items.push(self.parse_attr()?);
                        if !self.eat(b',') {
                            break;
                        }
                    }
                }
                self.expect(b']')?;
                Ok(self.ir.attr(AttrKind::Array(items)))
            }
            b'{' => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() != b'}' {
                    loop {
                        let key = self.ident()?;
                        self.skip_ws();
                        let v = if self.peek() == b'=' {
                            self.pos += 1;
                            self.parse_attr()?
                        } else {
                            self.ir.attr_unit()
                        };
                        let k = self.ir.intern(&key);
                        entries.push((k, v));
                        if !self.eat(b',') {
                            break;
                        }
                    }
                }
                self.expect(b'}')?;
                Ok(self.ir.attr(AttrKind::Dict(entries)))
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let tok = self.number_token()?;
                self.skip_ws();
                let is_float = tok.contains('.') || tok.contains('e') || tok.contains('E');
                if !self.eat(b':') {
                    return Err(self.err("expected ': type' after numeric attribute"));
                }
                let ty = self.parse_type()?;
                if is_float {
                    let v: f64 = tok.parse().map_err(|_| self.err("bad float literal"))?;
                    Ok(self.ir.attr_float(v, ty))
                } else {
                    let v: i64 = tok.parse().map_err(|_| self.err("bad int literal"))?;
                    Ok(self.ir.attr_int(v, ty))
                }
            }
            _ => {
                // Keyword or type attribute.
                let save = self.pos;
                if self.eat_str("unit") {
                    return Ok(self.ir.attr_unit());
                }
                if self.eat_str("true") {
                    return Ok(self.ir.attr_bool(true));
                }
                if self.eat_str("false") {
                    return Ok(self.ir.attr_bool(false));
                }
                self.pos = save;
                let ty = self.parse_type()?;
                Ok(self.ir.attr_type(ty))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_op;

    fn roundtrip(text: &str) {
        let mut ir = Ir::new();
        let op = parse_module(&mut ir, text).expect("first parse");
        let printed = print_op(&ir, op);
        let mut ir2 = Ir::new();
        let op2 = parse_module(&mut ir2, &printed).expect("reparse");
        let printed2 = print_op(&ir2, op2);
        assert_eq!(printed, printed2, "round-trip must be stable");
    }

    #[test]
    fn parse_simple_module() {
        let text = r#"
"builtin.module"() ({
  %0 = "arith.constant"() {value = 1 : i32} : () -> i32
  %1 = "arith.addi"(%0, %0) : (i32, i32) -> i32
  "func.return"(%1) : (i32) -> ()
}) : () -> ()
"#;
        roundtrip(text);
    }

    #[test]
    fn parse_func_with_block_args() {
        let text = r#"
"builtin.module"() ({
  "func.func"() ({
  ^bb0(%a: memref<100xf32, 1>, %b: memref<?xf32>):
    %0 = "arith.constant"() {value = 0 : index} : () -> index
    %1 = "memref.load"(%a, %0) : (memref<100xf32, 1>, index) -> f32
    "memref.store"(%1, %b, %0) : (f32, memref<?xf32>, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "k", function_type = (memref<100xf32, 1>, memref<?xf32>) -> ()} : () -> ()
}) : () -> ()
"#;
        roundtrip(text);
    }

    #[test]
    fn parse_successors() {
        let text = r#"
"func.func"() ({
  %0 = "arith.constant"() {value = true} : () -> i1
  "cf.cond_br"(%0)[^bb1, ^bb2] : (i1) -> ()
^bb1:
  "func.return"() : () -> ()
^bb2:
  "func.return"() : () -> ()
}) {sym_name = "f"} : () -> ()
"#;
        roundtrip(text);
    }

    #[test]
    fn parse_attr_varieties() {
        let text = r#"
"test.op"() {a = 1 : i64, b = 2.5e0 : f32, c = "str\"esc", d = @sym, e = [1 : i32, 2 : i32], f = {k = unit, l = false}, g = memref<4x?xf64, 2>, flag} : () -> ()
"#;
        let mut ir = Ir::new();
        let op = parse_module(&mut ir, text).unwrap();
        assert_eq!(ir.attr_int_of(op, "a"), Some(1));
        assert_eq!(
            ir.get_attr(op, "b").and_then(|a| ir.attr_as_float(a)),
            Some(2.5)
        );
        assert_eq!(ir.attr_str_of(op, "c"), Some("str\"esc"));
        assert_eq!(ir.attr_str_of(op, "d"), Some("sym"));
        assert!(ir.has_attr(op, "flag"));
        roundtrip(text);
    }

    #[test]
    fn undefined_value_is_error() {
        let mut ir = Ir::new();
        let e = parse_module(&mut ir, r#""x"(%0) : (i32) -> ()"#).unwrap_err();
        assert!(e.message.contains("undefined value"));
    }

    #[test]
    fn type_mismatch_is_error() {
        let text = r#"
"builtin.module"() ({
  %0 = "c"() : () -> i32
  "u"(%0) : (f32) -> ()
}) : () -> ()
"#;
        let mut ir = Ir::new();
        let e = parse_module(&mut ir, text).unwrap_err();
        assert!(e.message.contains("type mismatch"), "{e}");
    }
}

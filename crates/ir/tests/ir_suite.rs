//! Extended IR-framework test suite: printer/parser edge cases, verifier
//! corner cases, property-based round-trip checks over generated types
//! and attributes, and random edit sequences checked against a plain-`Vec`
//! model of operands, use lists and attributes.

use std::collections::HashMap;

use ftn_mlir::{
    parse_module, print_op, AttrId, AttrKind, BlockId, Ir, OpId, OpSpec, TypeKind, ValueId,
    VerifierRegistry,
};
use proptest::prelude::*;

// ---- parser/printer edge cases ------------------------------------------------

#[test]
fn parses_empty_module() {
    let mut ir = Ir::new();
    let m = parse_module(&mut ir, "\"builtin.module\"() ({\n}) : () -> ()").unwrap();
    assert!(ir.op_is(m, "builtin.module"));
    assert!(ir.block(ir.entry_block(m, 0)).ops.is_empty());
}

#[test]
fn parses_comments_and_whitespace() {
    let text =
        "// leading comment\n\"builtin.module\"() ({\n  // inner\n}) : () -> ()\n// trailing";
    let mut ir = Ir::new();
    assert!(parse_module(&mut ir, text).is_ok());
}

#[test]
fn rejects_trailing_garbage() {
    let mut ir = Ir::new();
    let e = parse_module(&mut ir, "\"m\"() : () -> () extra").unwrap_err();
    assert!(e.message.contains("trailing"), "{e}");
}

#[test]
fn rejects_unbalanced_region() {
    let mut ir = Ir::new();
    assert!(parse_module(&mut ir, "\"m\"() ({ : () -> ()").is_err());
}

#[test]
fn rejects_operand_count_mismatch() {
    let mut ir = Ir::new();
    let e = parse_module(&mut ir, "\"m\"() : (i32) -> ()").unwrap_err();
    assert!(e.message.contains("operand"), "{e}");
}

#[test]
fn string_escapes_roundtrip() {
    let mut ir = Ir::new();
    let region = ir.new_region();
    let block = ir.new_block(region, &[]);
    let tricky = ir.attr_str("a\"b\\c\nd\te");
    let op = ir.create_op(OpSpec::new("test.op").attr("s", tricky));
    ir.append_op(block, op);
    let m = ir.create_op(OpSpec::new("builtin.module").region(region));
    let printed = print_op(&ir, m);
    let mut ir2 = Ir::new();
    let m2 = parse_module(&mut ir2, &printed).unwrap();
    let inner = ir2.block(ir2.entry_block(m2, 0)).ops[0];
    assert_eq!(ir2.attr_str_of(inner, "s"), Some("a\"b\\c\nd\te"));
}

#[test]
fn negative_and_extreme_int_attrs_roundtrip() {
    for v in [i64::MIN + 1, -1, 0, 1, i64::MAX] {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let i64t = ir.i64t();
        let a = ir.attr_int(v, i64t);
        let op = ir.create_op(OpSpec::new("c").results(&[i64t]).attr("value", a));
        ir.append_op(block, op);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        let printed = print_op(&ir, m);
        let mut ir2 = Ir::new();
        let m2 = parse_module(&mut ir2, &printed).unwrap();
        let inner = ir2.block(ir2.entry_block(m2, 0)).ops[0];
        assert_eq!(ir2.attr_int_of(inner, "value"), Some(v), "value {v}");
    }
}

#[test]
fn special_float_attrs_roundtrip() {
    for v in [0.0f64, -0.0, 1.5, -2.25e-10, 1e30] {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let f64t = ir.f64t();
        let a = ir.attr_float(v, f64t);
        let op = ir.create_op(OpSpec::new("c").results(&[f64t]).attr("value", a));
        ir.append_op(block, op);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        let printed = print_op(&ir, m);
        let mut ir2 = Ir::new();
        let m2 = parse_module(&mut ir2, &printed).unwrap();
        let inner = ir2.block(ir2.entry_block(m2, 0)).ops[0];
        let got = ir2
            .get_attr(inner, "value")
            .and_then(|x| ir2.attr_as_float(x));
        assert_eq!(got, Some(v), "value {v}");
    }
}

#[test]
fn multi_result_ops_roundtrip() {
    let text = r#"
"builtin.module"() ({
  %0, %1 = "test.pair"() : () -> (i32, f64)
  "test.sink"(%1, %0) : (f64, i32) -> ()
}) : () -> ()
"#;
    let mut ir = Ir::new();
    let m = parse_module(&mut ir, text).unwrap();
    let printed = print_op(&ir, m);
    assert!(printed.contains("%0, %1 = \"test.pair\""), "{printed}");
    assert!(printed.contains("\"test.sink\"(%1, %0)"), "{printed}");
}

// ---- verifier corner cases -----------------------------------------------------

#[test]
fn use_list_corruption_detected() {
    let mut ir = Ir::new();
    let region = ir.new_region();
    let block = ir.new_block(region, &[]);
    let i32t = ir.i32t();
    let a = ir.attr_i32(1);
    let c = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", a));
    ir.append_op(block, c);
    let v = ir.result(c);
    let u = ir.create_op(OpSpec::new("u").operands(&[v]));
    ir.append_op(block, u);
    let m = ir.create_op(OpSpec::new("builtin.module").region(region));
    // Corrupt: secretly rewrite the operand without maintaining uses.
    ir.op_mut(u).operands[0] = v; // same value: fine
    ftn_mlir::verify(&ir, m, &VerifierRegistry::new()).unwrap();
}

#[test]
fn loop_shaped_cfg_verifies() {
    // entry -> header <-> body, header -> exit: dominance through back edge.
    let text = r#"
"func.func"() ({
  %init = "c"() {value = 0 : i64} : () -> i64
  "cf.br"(%init)[^bb1] : (i64) -> ()
^bb1(%iv: i64):
  %cond = "cmp"(%iv) : (i64) -> i1
  "cf.cond_br"(%cond)[^bb2, ^bb3] {true_operand_count = 0 : i64} : (i1) -> ()
^bb2:
  %one = "c"() {value = 1 : i64} : () -> i64
  %next = "add"(%iv, %one) : (i64, i64) -> i64
  "cf.br"(%next)[^bb1] : (i64) -> ()
^bb3:
  "func.return"(%iv) : (i64) -> ()
}) {sym_name = "loop"} : () -> ()
"#;
    let mut ir = Ir::new();
    let f = parse_module(&mut ir, text).unwrap();
    ftn_mlir::verify(&ir, f, &VerifierRegistry::new()).unwrap();
    // Round-trip the CFG too.
    let printed = print_op(&ir, f);
    let mut ir2 = Ir::new();
    let f2 = parse_module(&mut ir2, &printed).unwrap();
    assert_eq!(printed, print_op(&ir2, f2));
}

// ---- property tests --------------------------------------------------------------

fn arb_scalar_type() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("i1"),
        Just("i8"),
        Just("i32"),
        Just("i64"),
        Just("f32"),
        Just("f64"),
        Just("index"),
    ]
}

fn arb_memref() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(prop_oneof![Just(-1i64), 1i64..64], 1..4),
        arb_scalar_type(),
        0u32..16,
    )
        .prop_map(|(dims, elem, space)| {
            let shape: String = dims
                .iter()
                .map(|d| {
                    if *d == -1 {
                        "?x".to_string()
                    } else {
                        format!("{d}x")
                    }
                })
                .collect();
            if space == 0 {
                format!("memref<{shape}{elem}>")
            } else {
                format!("memref<{shape}{elem}, {space}>")
            }
        })
}

// ---- inline op storage against a plain-`Vec` model ---------------------------------

/// What an op should hold, kept in plain `Vec`s beside the IR.
struct ModelOp {
    id: OpId,
    operands: Vec<ValueId>,
    results: Vec<ValueId>,
    attrs: Vec<(String, AttrId)>,
}

/// One flat block under a module: the model's ops in block order, which
/// is also the order values become available in.
struct Model {
    ir: Ir,
    module: OpId,
    block: BlockId,
    args: Vec<ValueId>,
    ops: Vec<ModelOp>,
}

const KEYS: [&str; 5] = ["k0", "k1", "k2", "k3", "k4"];

impl Model {
    fn new() -> Self {
        let mut ir = Ir::new();
        let i32t = ir.i32t();
        let region = ir.new_region();
        let block = ir.new_block(region, &[i32t, i32t]);
        let args = ir.block(block).args.clone();
        let module = ir.create_op(OpSpec::new("builtin.module").region(region));
        Model {
            ir,
            module,
            block,
            args,
            ops: Vec::new(),
        }
    }

    /// Values an op at model position `pos` may use (`ops.len()`: an op
    /// about to be appended).
    fn visible(&self, pos: usize) -> Vec<ValueId> {
        let earlier = self.ops[..pos]
            .iter()
            .flat_map(|o| o.results.iter().copied());
        self.args.iter().copied().chain(earlier).collect()
    }

    fn pick<T: Copy>(items: &[T], r: usize) -> T {
        items[r % items.len()]
    }

    fn append(&mut self, op: OpId) {
        self.ir.append_op(self.block, op);
        let data = self.ir.op(op);
        self.ops.push(ModelOp {
            id: op,
            operands: data.operands.to_vec(),
            results: data.results.to_vec(),
            attrs: data
                .attrs
                .iter()
                .map(|&(k, v)| (self.ir.str(k).to_string(), v))
                .collect(),
        });
    }

    /// Apply step `(kind, a, b, n)`; the parameters are reduced modulo
    /// whatever the step picks from.
    fn step(&mut self, (kind, a, b, n): (u8, usize, usize, usize)) {
        let i32t = self.ir.i32t();
        if self.ops.is_empty() || kind == 0 {
            // create_op: 0–8 operands, 0–4 results, 0–4 attributes.
            let visible = self.visible(self.ops.len());
            let operands: Vec<ValueId> = (0..n % 9)
                .map(|i| Self::pick(&visible, a + 7 * i))
                .collect();
            let results = vec![i32t; a % 5];
            let mut spec = OpSpec::new("test.op").operands(&operands).results(&results);
            for i in 0..b % 5 {
                let value = self.ir.attr_i32((a + i) as i64);
                spec = spec.attr(KEYS[(n + i) % KEYS.len()], value);
            }
            let op = self.ir.create_op(spec);
            return self.append(op);
        }
        let at = a % self.ops.len();
        let op = self.ops[at].id;
        match kind {
            1 => {
                let v = Self::pick(&self.visible(at), b);
                self.ir.push_operand(op, v);
                self.ops[at].operands.push(v);
            }
            2 if !self.ops[at].operands.is_empty() => {
                let slot = n % self.ops[at].operands.len();
                let v = Self::pick(&self.visible(at), b);
                self.ir.set_operand(op, slot, v);
                self.ops[at].operands[slot] = v;
            }
            3 if !self.ops[at].results.is_empty() => {
                // Every use of `old` comes after `op`, so any value visible
                // at `op` may replace it.
                let old = Self::pick(&self.ops[at].results, n);
                let new = Self::pick(&self.visible(at), b);
                self.ir.replace_all_uses(old, new);
                for o in &mut self.ops {
                    for v in o.operands.iter_mut().filter(|v| **v == old) {
                        *v = new;
                    }
                }
            }
            4 => {
                let key = KEYS[n % KEYS.len()];
                let value = self.ir.attr_i32(b as i64);
                self.ir.set_attr(op, key, value);
                let attrs = &mut self.ops[at].attrs;
                match attrs.iter_mut().find(|(k, _)| k == key) {
                    Some(slot) => slot.1 = value,
                    None => attrs.push((key.to_string(), value)),
                }
            }
            5 => {
                let key = KEYS[n % KEYS.len()];
                self.ir.remove_attr(op, key);
                self.ops[at].attrs.retain(|(k, _)| k != key);
            }
            6 => {
                let clone = self.ir.clone_op(op, &mut HashMap::new());
                self.append(clone);
            }
            7 => {
                // Erase the first op from `at` on whose results are unused.
                let unused = |o: &ModelOp| o.results.iter().all(|&r| !self.ir.has_uses(r));
                if let Some(pos) = (at..self.ops.len()).find(|&p| unused(&self.ops[p])) {
                    let gone = self.ops.remove(pos);
                    self.ir.erase_op(gone.id);
                }
            }
            _ => {}
        }
    }

    /// The IR holds exactly what the model says, and verifies.
    fn check(&self) -> Result<(), TestCaseError> {
        let ir = &self.ir;
        let live: Vec<OpId> = self.ops.iter().map(|o| o.id).collect();
        prop_assert_eq!(&ir.block(self.block).ops, &live);
        let mut expected_uses: HashMap<ValueId, Vec<(OpId, u32)>> = HashMap::new();
        for o in &self.ops {
            let data = ir.op(o.id);
            prop_assert_eq!(data.operands.to_vec(), o.operands.clone());
            prop_assert_eq!(data.results.to_vec(), o.results.clone());
            let attrs: Vec<(String, AttrId)> = data
                .attrs
                .iter()
                .map(|&(k, v)| (ir.str(k).to_string(), v))
                .collect();
            prop_assert_eq!(attrs, o.attrs.clone());
            for (i, &v) in o.operands.iter().enumerate() {
                expected_uses.entry(v).or_default().push((o.id, i as u32));
            }
        }
        let values = self.visible(self.ops.len());
        for v in values {
            let mut uses: Vec<(OpId, u32)> =
                ir.value(v).uses.iter().map(|u| (u.op, u.index)).collect();
            let mut expected = expected_uses.remove(&v).unwrap_or_default();
            uses.sort();
            expected.sort();
            prop_assert_eq!(uses, expected, "use list of {:?}", v);
        }
        prop_assert!(expected_uses.is_empty(), "uses of unknown values");
        if let Err(e) = ftn_mlir::verify(ir, self.module, &VerifierRegistry::new()) {
            prop_assert!(false, "{e}");
        }
        Ok(())
    }
}

#[test]
fn the_model_s_widest_op_spills_every_list() {
    // 8 operands (all `%arg0`), 4 results, 4 attributes.
    let mut model = Model::new();
    model.step((0, 4, 4, 8));
    model.check().unwrap();
    let data = model.ir.op(model.ops[0].id);
    assert!(data.operands.spilled() && data.results.spilled() && data.attrs.spilled());
    assert!(model.ir.value(model.args[0]).uses.spilled());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn inline_lists_match_a_vec_model(
        steps in proptest::collection::vec((0u8..8, 0usize..1000, 0usize..1000, 0usize..1000), 1..60)
    ) {
        let mut model = Model::new();
        for &step in &steps {
            model.step(step);
            model.check()?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memref_types_roundtrip(ty in arb_memref()) {
        let text = format!("\"test.op\"() {{t = {ty}}} : () -> ()");
        let mut ir = Ir::new();
        let op = parse_module(&mut ir, &text).unwrap();
        let attr = ir.get_attr(op, "t").unwrap();
        let AttrKind::Type(parsed) = ir.attr_kind(attr).clone() else {
            panic!("expected type attr");
        };
        assert!(matches!(ir.type_kind(parsed), TypeKind::MemRef { .. }));
        // Stable through print/parse.
        let printed = print_op(&ir, op);
        let mut ir2 = Ir::new();
        let op2 = parse_module(&mut ir2, &printed).unwrap();
        prop_assert_eq!(printed, print_op(&ir2, op2));
    }

    #[test]
    fn interning_is_idempotent(values in proptest::collection::vec(-1000i64..1000, 1..40)) {
        let mut ir = Ir::new();
        let i64t = ir.i64t();
        let attrs: Vec<_> = values.iter().map(|&v| ir.attr_int(v, i64t)).collect();
        let again: Vec<_> = values.iter().map(|&v| ir.attr_int(v, i64t)).collect();
        prop_assert_eq!(attrs, again);
    }

    #[test]
    fn rauw_preserves_use_counts(n_users in 1usize..20) {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let i32t = ir.i32t();
        let one = ir.attr_i32(1);
        let two = ir.attr_i32(2);
        let c1 = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", one));
        let c2 = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", two));
        ir.append_op(block, c1);
        ir.append_op(block, c2);
        let v1 = ir.result(c1);
        let v2 = ir.result(c2);
        for _ in 0..n_users {
            let u = ir.create_op(OpSpec::new("u").operands(&[v1, v1]));
            ir.append_op(block, u);
        }
        prop_assert_eq!(ir.value(v1).uses.len(), 2 * n_users);
        ir.replace_all_uses(v1, v2);
        prop_assert_eq!(ir.value(v1).uses.len(), 0);
        prop_assert_eq!(ir.value(v2).uses.len(), 2 * n_users);
        let m = ir.create_op(OpSpec::new("builtin.module").region(region));
        ftn_mlir::verify(&ir, m, &VerifierRegistry::new()).unwrap();
    }
}

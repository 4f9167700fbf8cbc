//! Property-based tests over the pipeline's core invariants:
//! * compiled SAXPY agrees with the CPU reference for arbitrary inputs and
//!   sizes (including epilogue-heavy sizes),
//! * SGESL solves random well-conditioned systems,
//! * the IR printer/parser round-trips arbitrary arithmetic modules, and the
//!   bytecode interpreter evaluates them exactly as the reference tree-walker,
//! * the device data environment's presence counter never goes negative and
//!   `check_exists` is exactly `count > 0` under arbitrary op sequences, by
//!   name and by slot alike, with the same error messages.

#[path = "../crates/interp/tests/oracle/mod.rs"]
mod oracle;

use std::sync::OnceLock;

use ftn_bench::workloads;
use ftn_core::{Artifacts, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::{Memory, RtValue};
use ftn_mlir::{parse_module, print_op, Ir};
use proptest::prelude::*;

fn saxpy_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(workloads::compile_saxpy)
}

fn sgesl_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(workloads::compile_sgesl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn saxpy_pipeline_matches_reference(
        n in 1usize..120,
        a in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        let artifacts = saxpy_artifacts();
        let mut machine = Machine::load(artifacts, DeviceModel::u280()).unwrap();
        let x = workloads::random_vec(n, seed, -3.0, 3.0);
        let y0 = workloads::random_vec(n, seed ^ 1, -3.0, 3.0);
        let xa = machine.host_f32(&x);
        let ya = machine.host_f32(&y0);
        machine
            .run("saxpy", &[RtValue::I32(n as i32), RtValue::F32(a), xa, ya.clone()])
            .unwrap();
        let mut expect = y0;
        workloads::saxpy_ref(a, &x, &mut expect);
        let got = machine.read_f32(&ya);
        for i in 0..n {
            prop_assert!((got[i] - expect[i]).abs() <= 1e-4,
                "i={i}: {} vs {}", got[i], expect[i]);
        }
    }

    #[test]
    fn sgesl_pipeline_solves_random_systems(n in 2usize..24, seed in 0u64..500) {
        let artifacts = sgesl_artifacts();
        let a_orig = workloads::random_matrix(n, seed);
        let x_true = workloads::random_vec(n, seed ^ 7, -1.0, 1.0);
        let b = workloads::matvec(&a_orig, n, n, &x_true);
        let mut a_lu = a_orig;
        let ipvt = workloads::sgefa_ref(&mut a_lu, n, n);
        let mut machine = Machine::load(artifacts, DeviceModel::u280()).unwrap();
        let aa = machine.host_f32(&a_lu);
        let ba = machine.host_f32(&b);
        let ip = machine.host_i32(&ipvt);
        machine
            .run("sgesl", &[aa, RtValue::I32(n as i32), RtValue::I32(n as i32), ip, ba.clone()])
            .unwrap();
        let x = machine.read_f32(&ba);
        for i in 0..n {
            prop_assert!((x[i] - x_true[i]).abs() < 1e-2,
                "x[{i}] = {} vs {}", x[i], x_true[i]);
        }
    }
}

/// Strategy: a small arithmetic module as IR text, built from a random
/// expression tree of i64 constants.
fn arb_expr_ops(depth: u32) -> BoxedStrategy<String> {
    let leaf = (0i64..100).prop_map(|v| format!("CONST {v}"));
    leaf.prop_recursive(depth, 16, 2, |inner| {
        (inner.clone(), inner, prop_oneof!["addi", "subi", "muli"])
            .prop_map(|(l, r, op)| format!("BIN {op} [{l}] [{r}]"))
    })
    .boxed()
}

/// Render the expression tree as generic-form ops; returns them and the
/// name of the root value.
fn render_body(tree: &str) -> (String, String) {
    fn emit(tree: &str, next: &mut usize, body: &mut String) -> String {
        if let Some(v) = tree.strip_prefix("CONST ") {
            let name = format!("%{}", *next);
            *next += 1;
            body.push_str(&format!(
                "  {name} = \"arith.constant\"() {{value = {} : i64}} : () -> i64\n",
                v.trim()
            ));
            name
        } else {
            // BIN op [lhs] [rhs] — find the matching brackets.
            let rest = tree.strip_prefix("BIN ").unwrap();
            let op = rest.split_whitespace().next().unwrap().to_string();
            let open = rest.find('[').unwrap();
            let mut depth = 0;
            let mut split = 0;
            for (i, c) in rest[open..].char_indices() {
                match c {
                    '[' => depth += 1,
                    ']' => {
                        depth -= 1;
                        if depth == 0 {
                            split = open + i;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let lhs = &rest[open + 1..split];
            let rhs_part = &rest[split + 1..];
            let ro = rhs_part.find('[').unwrap();
            let rhs = &rhs_part[ro + 1..rhs_part.rfind(']').unwrap()];
            let l = emit(lhs, next, body);
            let r = emit(rhs, next, body);
            let name = format!("%{}", *next);
            *next += 1;
            body.push_str(&format!(
                "  {name} = \"arith.{op}\"({l}, {r}) : (i64, i64) -> i64\n"
            ));
            name
        }
    }
    let mut body = String::new();
    let mut next = 0usize;
    let result = emit(tree, &mut next, &mut body);
    (body, result)
}

/// The expression as a module whose root feeds a `test.sink`.
fn render_module(tree: &str) -> String {
    let (body, result) = render_body(tree);
    format!(
        "\"builtin.module\"() ({{\n{body}  \"test.sink\"({result}) : (i64) -> ()\n}}) : () -> ()\n"
    )
}

/// The same expression as function `eval` returning the root value.
fn render_function(tree: &str) -> String {
    let (body, result) = render_body(tree);
    format!(
        "\"builtin.module\"() ({{\n\"func.func\"() ({{\n{body}  \"func.return\"({result}) : (i64) -> ()\n}}) \
         {{sym_name = \"eval\", function_type = () -> (i64)}} : () -> ()\n}}) : () -> ()\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ir_text_roundtrip_is_stable(tree in arb_expr_ops(4)) {
        let text = render_module(&tree);
        let mut ir1 = Ir::new();
        let m1 = parse_module(&mut ir1, &text).unwrap();
        let printed1 = print_op(&ir1, m1);
        let mut ir2 = Ir::new();
        let m2 = parse_module(&mut ir2, &printed1).unwrap();
        let printed2 = print_op(&ir2, m2);
        prop_assert_eq!(printed1, printed2);
    }

    #[test]
    fn expression_trees_evaluate_identically_on_oracle_and_bytecode(tree in arb_expr_ops(5)) {
        let mut ir = Ir::new();
        let module = parse_module(&mut ir, &render_function(&tree)).unwrap();
        let mut memory = Memory::new();
        let reference = oracle::call_function(
            &ir, module, "eval", &[], &mut memory, &mut ftn_interp::NoHooks, &mut ftn_interp::NoObserver,
        ).unwrap();
        let bytecode = ftn_interp::call_function(
            &ir, module, "eval", &[], &mut memory, &mut ftn_interp::NoHooks, &mut ftn_interp::NoObserver,
        ).unwrap();
        prop_assert!(matches!(bytecode[..], [RtValue::I64(_)]));
        prop_assert_eq!(reference, bytecode);
    }

    /// Two names, each reached by name and by slot in any order, against one
    /// model: one table answers both, with the same errors word for word.
    #[test]
    fn data_env_counter_invariants(
        ops in proptest::collection::vec((0u8..5, 0usize..2, 0u8..2), 1..80)
    ) {
        const NAMES: [&str; 2] = ["v", "w"];
        let mut env = ftn_host::DataEnvironment::new();
        let mut memory = Memory::new();
        // Per name: allocated, presence count, and its slot once resolved.
        let mut allocated = [false; 2];
        let mut count = [0i64; 2];
        let mut slots = [None; 2];
        for (op, k, by_slot) in ops {
            let name = NAMES[k];
            let slot = match by_slot {
                1 => Some(*slots[k].get_or_insert_with(|| env.slot(name))),
                _ => None,
            };
            let message = |r: Result<(), ftn_interp::InterpError>| r.err().map(|e| e.message);
            match op {
                0 => {
                    match slot {
                        Some(s) => env.alloc_at(&mut memory, s, 1, "f32", &[4]),
                        None => env.alloc(&mut memory, name, 1, "f32", vec![4]),
                    }
                    .unwrap();
                    allocated[k] = true;
                }
                1 => {
                    let r = match slot {
                        Some(s) => env.acquire_at(s),
                        None => env.acquire(name),
                    };
                    if allocated[k] {
                        prop_assert!(r.is_ok());
                        count[k] += 1;
                    } else {
                        prop_assert_eq!(
                            message(r),
                            Some(format!("data_acquire of unallocated '{name}'"))
                        );
                    }
                }
                2 => {
                    let r = match slot {
                        Some(s) => env.release_at(s),
                        None => env.release(name),
                    };
                    if allocated[k] && count[k] > 0 {
                        prop_assert!(r.is_ok());
                        count[k] -= 1;
                    } else if allocated[k] {
                        prop_assert_eq!(
                            message(r),
                            Some(format!("data_release of '{name}' with zero presence count")),
                            "release below zero must fail"
                        );
                    } else {
                        prop_assert_eq!(
                            message(r),
                            Some(format!("data_release of unallocated '{name}'"))
                        );
                    }
                }
                3 => {
                    let exists = match slot {
                        Some(s) => env.check_exists_at(s),
                        None => env.check_exists(name),
                    };
                    prop_assert_eq!(exists, count[k] > 0);
                }
                _ => {
                    let r = match slot {
                        Some(s) => env.lookup_at(s),
                        None => env.lookup(name),
                    };
                    match allocated[k] {
                        true => prop_assert!(r.is_ok()),
                        false => prop_assert_eq!(
                            message(r.map(drop)),
                            Some(format!("device.lookup: '{name}' not allocated"))
                        ),
                    }
                }
            }
            for (k, name) in NAMES.iter().enumerate() {
                prop_assert_eq!(env.count(name), count[k]);
                prop_assert_eq!(env.check_exists(name), count[k] > 0);
                if let Some(s) = slots[k] {
                    prop_assert_eq!(env.count_at(s), count[k]);
                }
                prop_assert!(count[k] >= 0, "counter must never go negative");
            }
            prop_assert_eq!(env.len(), allocated.iter().filter(|&&a| a).count());
        }
        // Re-allocating at one size keeps one buffer per allocated name.
        prop_assert_eq!(memory.live(), env.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator's timing closed form: cycles grow monotonically with N
    /// and per-element cost converges to II/unroll.
    #[test]
    fn kernel_cycles_scale_linearly(n1 in 100i64..1000, factor in 2i64..5) {
        let bs = workloads::handwritten_saxpy_bitstream();
        let exec = ftn_fpga::KernelExecutor::from_bitstream(&bs, DeviceModel::u280()).unwrap();
        let run = |n: i64| {
            let mut memory = Memory::new();
            let x = memory.alloc(ftn_interp::Buffer::F32(vec![1.0; n as usize]), 1);
            let y = memory.alloc(ftn_interp::Buffer::F32(vec![1.0; n as usize]), 1);
            let args = vec![
                RtValue::MemRef(ftn_interp::MemRefVal { buffer: x, shape: vec![n], space: 1 }),
                RtValue::MemRef(ftn_interp::MemRefVal { buffer: y, shape: vec![n], space: 1 }),
                RtValue::F32(1.0),
                RtValue::Index(n),
            ];
            exec.execute("saxpy_manual", &args, &mut memory).unwrap().cycles
        };
        let n2 = n1 * factor;
        let c1 = run(n1);
        let c2 = run(n2);
        prop_assert!(c2 > c1);
        // Asymptotic per-element cost ≈ 32 cycles: the increment is linear.
        let delta_per_elem = (c2 - c1) as f64 / (n2 - n1) as f64;
        prop_assert!((28.0..36.0).contains(&delta_per_elem), "{delta_per_elem}");
    }
}

//! Differential suite: the reference tree-walker (`oracle/`) against the
//! bytecode engine. Every case runs the same function on the same initial
//! memory through both and demands bit-identical buffers and returned
//! values, the same error message, and the same `loop_executed` sequence;
//! full host + device runs also compare `RunStats` and, per kernel launch,
//! the `loop_instances` that `ExecutionStats` is a pure function of.

mod oracle;

use std::collections::HashMap;

use ftn_core::{Artifacts, Compiler, HostProgram};
use ftn_dialects::device;
use ftn_fpga::schedule::loop_index_map;
use ftn_fpga::{DeviceModel, KernelExecutor};
use ftn_host::HostRuntime;
use ftn_interp::{
    Buffer, BufferId, DialectHooks, Interp, InterpError, MemRefVal, Memory, NoHooks, Observer,
    Program, RtValue, DEFAULT_MAX_STEPS,
};
use ftn_mlir::{parse_module, Ir, OpId};
use proptest::prelude::*;

// ---- harness ----------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Engine {
    Oracle,
    Bytecode,
}

#[derive(Default)]
struct Trace(Vec<(OpId, u64)>);

impl Observer for Trace {
    fn loop_executed(&mut self, _ir: &Ir, op: OpId, trip: u64) {
        self.0.push((op, trip));
    }
}

/// Everything observable about one run.
struct Outcome {
    result: Result<Vec<RtValue>, String>,
    loops: Vec<(OpId, u64)>,
    memory: Memory,
}

#[allow(clippy::too_many_arguments)]
fn run(
    engine: Engine,
    ir: &Ir,
    module: OpId,
    func: &str,
    args: &[RtValue],
    mut memory: Memory,
    hooks: &mut dyn DialectHooks,
    max_steps: u64,
) -> Outcome {
    let mut trace = Trace::default();
    let result = match engine {
        Engine::Oracle => oracle::Interp {
            ir,
            module,
            max_steps,
        }
        .call(func, args, &mut memory, hooks, &mut trace),
        Engine::Bytecode => {
            let mut interp = Interp::new(ir, module);
            interp.max_steps = max_steps;
            interp.call(func, args, &mut memory, hooks, &mut trace)
        }
    };
    Outcome {
        result: result.map_err(|e| e.message),
        loops: trace.0,
        memory,
    }
}

/// A value with floats as bit patterns, so NaNs and signed zeros compare.
fn value_bits(v: &RtValue) -> String {
    match v {
        RtValue::F32(f) => format!("f32:{:08x}", f.to_bits()),
        RtValue::F64(f) => format!("f64:{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn buffer_bits(b: &Buffer) -> (&'static str, Vec<u64>) {
    let bits = match b {
        Buffer::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
        Buffer::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Buffer::I32(v) => v.iter().map(|&x| x as u64).collect(),
        Buffer::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Buffer::I1(v) => v.iter().map(|&x| x as u64).collect(),
    };
    (b.type_name(), bits)
}

fn memory_bits(memory: &Memory) -> Vec<Option<(&'static str, Vec<u64>)>> {
    (0..memory.len() as u32)
        .map(BufferId)
        .map(|id| memory.is_live(id).then(|| buffer_bits(memory.get(id))))
        .collect()
}

fn assert_same(oracle: &Outcome, bytecode: &Outcome, what: &str) {
    let bits = |o: &Outcome| {
        o.result
            .clone()
            .map(|v| v.iter().map(value_bits).collect::<Vec<_>>())
    };
    assert_eq!(bits(oracle), bits(bytecode), "{what}: results");
    assert_eq!(
        oracle.loops, bytecode.loops,
        "{what}: loop_executed sequence"
    );
    assert_eq!(
        memory_bits(&oracle.memory),
        memory_bits(&bytecode.memory),
        "{what}: buffers"
    );
}

/// Run `func` on both engines without hooks, assert they agree, and hand
/// back the bytecode outcome for value checks.
fn diff(ir: &Ir, module: OpId, func: &str, setup: impl Fn(&mut Memory) -> Vec<RtValue>) -> Outcome {
    let outcome = |engine| {
        let mut memory = Memory::new();
        let args = setup(&mut memory);
        run(
            engine,
            ir,
            module,
            func,
            &args,
            memory,
            &mut NoHooks,
            DEFAULT_MAX_STEPS,
        )
    };
    let (oracle, bytecode) = (outcome(Engine::Oracle), outcome(Engine::Bytecode));
    assert_same(&oracle, &bytecode, func);
    bytecode
}

fn module(text: &str) -> (Ir, OpId) {
    let mut ir = Ir::new();
    let module = parse_module(&mut ir, text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    (ir, module)
}

/// A module of `(name, function type, body)` functions, a body being the
/// text of the `func.func` region. Value names and block labels are global
/// to a parse, so each function's are prefixed with its name.
fn module_of(funcs: &[(&str, &str, &str)]) -> (Ir, OpId) {
    let mut text = String::from("\"builtin.module\"() ({\n");
    for (name, signature, body) in funcs {
        let body = body
            .replace('%', &format!("%{name}_"))
            .replace("^bb", &format!("^{name}_bb"));
        text.push_str(&format!(
            "\"func.func\"() ({{\n{body}\n}}) {{sym_name = \"{name}\", function_type = {signature}}} : () -> ()\n"
        ));
    }
    text.push_str("}) : () -> ()\n");
    module(&text)
}

fn memref(memory: &mut Memory, buffer: Buffer, shape: &[i64]) -> RtValue {
    RtValue::MemRef(MemRefVal {
        buffer: memory.alloc(buffer, 0),
        shape: shape.to_vec(),
        space: 0,
    })
}

fn no_memory(args: Vec<RtValue>) -> impl Fn(&mut Memory) -> Vec<RtValue> {
    move |_| args.clone()
}

fn message(outcome: &Outcome) -> &str {
    outcome.result.as_ref().expect_err("run should fail")
}

// ---- hand-built modules -------------------------------------------------------------

const FIB: &str = r#"
^bb0(%n: index):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %a0 = "arith.constant"() {value = 0 : i64} : () -> i64
  %b0 = "arith.constant"() {value = 1 : i64} : () -> i64
  %fa, %fb = "scf.for"(%c0, %n, %c1, %a0, %b0) ({
  ^bb1(%i: index, %a: i64, %b: i64):
    %s = "arith.addi"(%a, %b) : (i64, i64) -> i64
    "scf.yield"(%b, %s) : (i64, i64) -> ()
  }) : (index, index, index, i64, i64) -> (i64, i64)
  "func.return"(%fa, %fb) : (i64, i64) -> ()
"#;

/// Yields are the block arguments themselves, swapped: a parallel move.
const SWAP: &str = r#"
^bb0(%n: index, %x: f32, %y: f32):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %p, %q = "scf.for"(%c0, %n, %c1, %x, %y) ({
  ^bb1(%i: index, %a: f32, %b: f32):
    "scf.yield"(%b, %a) : (f32, f32) -> ()
  }) : (index, index, index, f32, f32) -> (f32, f32)
  "func.return"(%p, %q) : (f32, f32) -> ()
"#;

#[test]
fn iter_arg_reductions_and_parallel_moves() {
    let (ir, m) = module_of(&[
        ("fib", "(index) -> (i64, i64)", FIB),
        ("swap", "(index, f32, f32) -> (f32, f32)", SWAP),
    ]);
    for n in [0, 1, 2, 10, 90] {
        let out = diff(&ir, m, "fib", no_memory(vec![RtValue::Index(n)]));
        if n == 10 {
            assert_eq!(
                out.result.unwrap(),
                vec![RtValue::I64(55), RtValue::I64(89)]
            );
        }
    }
    for n in [0, 1, 2, 7] {
        let args = vec![RtValue::Index(n), RtValue::F32(1.5), RtValue::F32(-0.0)];
        let out = diff(&ir, m, "swap", no_memory(args));
        let (p, q) = if n % 2 == 0 { (1.5, -0.0) } else { (-0.0, 1.5) };
        assert_eq!(
            out.result
                .unwrap()
                .iter()
                .map(value_bits)
                .collect::<Vec<_>>(),
            [RtValue::F32(p), RtValue::F32(q)]
                .iter()
                .map(value_bits)
                .collect::<Vec<_>>()
        );
    }
}

/// `omp.wsloop` (inclusive, reducing) around `fir.do_loop` (inclusive) around
/// `scf.for` (exclusive); the inner loops are zero-trip for part of the range.
const NEST: &str = r#"
^bb0(%n: index, %out: memref<?xi64>):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %c3 = "arith.constant"() {value = 3 : index} : () -> index
  %z = "arith.constant"() {value = 0 : i64} : () -> i64
  %one = "arith.constant"() {value = 1 : i64} : () -> i64
  %total = "omp.wsloop"(%c1, %n, %c1, %z) ({
  ^bb1(%i: index, %acc: i64):
    "fir.do_loop"(%i, %c3, %c1) ({
    ^bb2(%j: index):
      %inner = "scf.for"(%j, %c3, %c1, %z) ({
      ^bb3(%k: index, %cnt: i64):
        %next = "arith.addi"(%cnt, %one) : (i64, i64) -> i64
        "scf.yield"(%next) : (i64) -> ()
      }) : (index, index, index, i64) -> i64
      %old = "memref.load"(%out, %j) : (memref<?xi64>, index) -> i64
      %new = "arith.addi"(%old, %inner) : (i64, i64) -> i64
      "memref.store"(%new, %out, %j) : (i64, memref<?xi64>, index) -> ()
      "fir.result"() : () -> ()
    }) : (index, index, index) -> ()
    %ii = "arith.index_cast"(%i) : (index) -> i64
    %sum = "arith.addi"(%acc, %ii) : (i64, i64) -> i64
    "omp.yield"(%sum) : (i64) -> ()
  }) : (index, index, index, i64) -> i64
  "func.return"(%total) : (i64) -> ()
"#;

#[test]
fn nested_loops_with_zero_trip_inner_loops_report_post_order() {
    let (ir, m) = module_of(&[("nest", "(index, memref<?xi64>) -> (i64)", NEST)]);
    for n in [0i64, 1, 3, 6] {
        let out = diff(&ir, m, "nest", |memory| {
            vec![
                RtValue::Index(n),
                memref(memory, Buffer::I64(vec![0; 4]), &[4]),
            ]
        });
        assert_eq!(out.result.unwrap(), vec![RtValue::I64(n * (n + 1) / 2)]);
        // Post-order: each do_loop after its scf.for instances, the wsloop last.
        let trips: Vec<u64> = out.loops.iter().map(|&(_, t)| t).collect();
        if n == 6 {
            let expect: Vec<u64> = [
                vec![2, 1, 0, 3], // i = 1: j = 1, 2, 3 then the do_loop itself
                vec![1, 0, 2],    // i = 2
                vec![0, 1],       // i = 3
                vec![0],          // i = 4..6: zero-trip do_loops
                vec![0],
                vec![0],
                vec![6],
            ]
            .concat();
            assert_eq!(trips, expect);
        }
    }
}

const BRANCHES: &str = r#"
^bb0(%x: i32, %lo: f64, %hi: f64):
  %ten = "arith.constant"() {value = 10 : i32} : () -> i32
  %small = "arith.cmpi"(%x, %ten) {predicate = "slt"} : (i32, i32) -> i1
  %picked, %tag = "scf.if"(%small) ({
    %t1 = "arith.constant"() {value = 1 : i32} : () -> i32
    "scf.yield"(%lo, %t1) : (f64, i32) -> ()
  }, {
    %nested = "fir.if"(%small) ({
      "fir.result"(%lo) : (f64) -> ()
    }, {
      %neg = "arith.negf"(%hi) : (f64) -> f64
      "fir.result"(%neg) : (f64) -> ()
    }) : (i1) -> f64
    %t2 = "arith.constant"() {value = 2 : i32} : () -> i32
    "scf.yield"(%nested, %t2) : (f64, i32) -> ()
  }) : (i1) -> (f64, i32)
  %max = "arith.select"(%small, %hi, %picked) : (i1, f64, f64) -> f64
  "func.return"(%picked, %tag, %max) : (f64, i32, f64) -> ()
"#;

#[test]
fn if_yields_and_select() {
    let (ir, m) = module_of(&[("pick", "(i32, f64, f64) -> (f64, i32, f64)", BRANCHES)]);
    for x in [-3, 9, 10, 400] {
        let args = vec![RtValue::I32(x), RtValue::F64(0.25), RtValue::F64(8.0)];
        let out = diff(&ir, m, "pick", no_memory(args)).result.unwrap();
        let expect = if x < 10 {
            vec![RtValue::F64(0.25), RtValue::I32(1), RtValue::F64(8.0)]
        } else {
            vec![RtValue::F64(-8.0), RtValue::I32(2), RtValue::F64(-8.0)]
        };
        assert_eq!(out, expect);
    }
}

#[test]
fn every_conversion_pair() {
    const KINDS: [&str; 6] = ["i1", "i32", "i64", "index", "f32", "f64"];
    let samples = |kind: &str| -> Vec<RtValue> {
        match kind {
            "i1" => vec![RtValue::I1(false), RtValue::I1(true)],
            "i32" => [0, -1, 7, i32::MIN, i32::MAX].map(RtValue::I32).to_vec(),
            "i64" => [0, -1, 1 << 40, i64::MIN, i64::MAX]
                .map(RtValue::I64)
                .to_vec(),
            "index" => [0, -5, 1 << 33, i64::MAX].map(RtValue::Index).to_vec(),
            "f32" => [0.0, -0.0, 2.75, -3e9, 1e30, f32::NAN, f32::INFINITY]
                .map(RtValue::F32)
                .to_vec(),
            _ => [
                0.0,
                -1.5,
                16777217.0,
                1e300,
                -1e300,
                f64::NAN,
                f64::NEG_INFINITY,
            ]
            .map(RtValue::F64)
            .to_vec(),
        }
    };
    for op in [
        "fir.convert",
        "arith.index_cast",
        "arith.sitofp",
        "arith.fptosi",
    ] {
        for from in KINDS {
            for to in KINDS {
                let body = format!(
                    "^bb0(%v: {from}):\n  %r = \"{op}\"(%v) : ({from}) -> {to}\n  \"func.return\"(%r) : ({to}) -> ()"
                );
                let (ir, m) = module_of(&[("cv", &format!("({from}) -> ({to})"), &body)]);
                for v in samples(from) {
                    diff(&ir, m, "cv", no_memory(vec![v]));
                }
            }
        }
    }
    // A source that is no scalar, and a target that is none.
    let body = "^bb0(%v: memref<?xf32>):\n  %r = \"fir.convert\"(%v) : (memref<?xf32>) -> i64\n  \"func.return\"(%r) : (i64) -> ()";
    let (ir, m) = module_of(&[("cv", "(memref<?xf32>) -> (i64)", body)]);
    let out = diff(&ir, m, "cv", |memory| {
        vec![memref(memory, Buffer::F32(vec![0.0]), &[1])]
    });
    assert!(
        message(&out).contains("expected integer"),
        "{}",
        message(&out)
    );
    let body = "^bb0(%v: i64):\n  %r = \"fir.convert\"(%v) : (i64) -> memref<?xf32>\n  \"func.return\"(%r) : (memref<?xf32>) -> ()";
    let (ir, m) = module_of(&[("cv", "(i64) -> (memref<?xf32>)", body)]);
    let out = diff(&ir, m, "cv", no_memory(vec![RtValue::I64(1)]));
    assert!(
        message(&out).contains("unsupported conversion"),
        "{}",
        message(&out)
    );
}

const FACT: &str = r#"
^bb0(%n: i64):
  %one = "arith.constant"() {value = 1 : i64} : () -> i64
  %base = "arith.cmpi"(%n, %one) {predicate = "sle"} : (i64, i64) -> i1
  %r = "scf.if"(%base) ({
    "scf.yield"(%one) : (i64) -> ()
  }, {
    %m = "arith.subi"(%n, %one) : (i64, i64) -> i64
    %rec = "func.call"(%m) {callee = @fact} : (i64) -> i64
    %p = "arith.muli"(%n, %rec) : (i64, i64) -> i64
    "scf.yield"(%p) : (i64) -> ()
  }) : (i1) -> i64
  "func.return"(%r) : (i64) -> ()
"#;

const CALLS_MISSING: &str = r#"
^bb0(%n: i64):
  %r = "fir.call"(%n) {callee = @nowhere} : (i64) -> i64
  "func.return"(%r) : (i64) -> ()
"#;

#[test]
fn recursion_through_func_call() {
    let (ir, m) = module_of(&[
        ("fact", "(i64) -> (i64)", FACT),
        ("lost", "(i64) -> (i64)", CALLS_MISSING),
    ]);
    for n in [0, 1, 5, 20, 25] {
        let out = diff(&ir, m, "fact", no_memory(vec![RtValue::I64(n)]));
        if n == 5 {
            assert_eq!(out.result.unwrap(), vec![RtValue::I64(120)]);
        }
    }
    let out = diff(&ir, m, "lost", no_memory(vec![RtValue::I64(1)]));
    assert!(
        message(&out).contains("no function 'nowhere'"),
        "{}",
        message(&out)
    );
    let out = diff(&ir, m, "absent", no_memory(vec![]));
    assert!(
        message(&out).contains("no function 'absent'"),
        "{}",
        message(&out)
    );
    let out = diff(&ir, m, "fact", no_memory(vec![]));
    assert!(
        message(&out).contains("expects 1 args, got 0"),
        "{}",
        message(&out)
    );
}

const UNKNOWN_IN_BRANCH: &str = r#"
^bb0(%take: i1, %buf: memref<?xi32>):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %seven = "arith.constant"() {value = 7 : i32} : () -> i32
  "memref.store"(%seven, %buf, %c0) : (i32, memref<?xi32>, index) -> ()
  "scf.if"(%take) ({
    %v = "test.mystery"(%seven) : (i32) -> i32
    "memref.store"(%v, %buf, %c0) : (i32, memref<?xi32>, index) -> ()
    "scf.yield"() : () -> ()
  }, {
    "scf.yield"() : () -> ()
  }) : (i1) -> ()
  "func.return"() : () -> ()
"#;

#[test]
fn unknown_op_fails_only_when_reached() {
    let (ir, m) = module_of(&[("f", "(i1, memref<?xi32>) -> ()", UNKNOWN_IN_BRANCH)]);
    let with = |take: bool| {
        move |memory: &mut Memory| {
            vec![
                RtValue::I1(take),
                memref(memory, Buffer::I32(vec![0]), &[1]),
            ]
        }
    };
    let untaken = diff(&ir, m, "f", with(false));
    assert!(untaken.result.is_ok());
    let taken = diff(&ir, m, "f", with(true));
    assert!(
        message(&taken).contains("unhandled op 'test.mystery'"),
        "{}",
        message(&taken)
    );
    // The store before the branch happened in both engines (checked by diff).
    assert_eq!(taken.memory.get(BufferId(0)), &Buffer::I32(vec![7]));
}

// ---- error conditions ---------------------------------------------------------------

const ACCESS: &str = r#"
^bb0(%buf: memref<?xf32>, %i: index, %store: i1):
  %v = "arith.constant"() {value = 1.5e0 : f32} : () -> f32
  "scf.if"(%store) ({
    "memref.store"(%v, %buf, %i) : (f32, memref<?xf32>, index) -> ()
    "scf.yield"() : () -> ()
  }, {
    %l = "memref.load"(%buf, %i) : (memref<?xf32>, index) -> f32
    "scf.yield"() : () -> ()
  }) : (i1) -> ()
  "func.return"() : () -> ()
"#;

const ACCESS2: &str = r#"
^bb0(%buf: memref<?x?xf32>, %i: index, %j: index):
  %l = "memref.load"(%buf, %i, %j) : (memref<?x?xf32>, index, index) -> f32
  "memref.store"(%l, %buf, %j, %i) : (f32, memref<?x?xf32>, index, index) -> ()
  "func.return"(%l) : (f32) -> ()
"#;

#[test]
fn out_of_bounds_and_rank_mismatch() {
    let (ir, m) = module_of(&[
        ("access", "(memref<?xf32>, index, i1) -> ()", ACCESS),
        (
            "access2",
            "(memref<?x?xf32>, index, index) -> (f32)",
            ACCESS2,
        ),
    ]);
    for store in [false, true] {
        for (index, shape, expect) in [
            (2i64, vec![4i64], None),
            (4, vec![4], Some("out of bounds")),
            (-1, vec![4], Some("out of bounds")),
            // The shape claims more than the buffer holds.
            (5, vec![8], Some("out of bounds")),
            (0, vec![2, 2], Some("rank mismatch")),
            (0, vec![], Some("rank mismatch")),
        ] {
            let out = diff(&ir, m, "access", |memory| {
                vec![
                    memref(memory, Buffer::F32(vec![0.0; 4]), &shape),
                    RtValue::Index(index),
                    RtValue::I1(store),
                ]
            });
            match expect {
                None => assert!(out.result.is_ok()),
                Some(text) => assert!(message(&out).contains(text), "{}", message(&out)),
            }
        }
    }
    for (i, j, shape, expect) in [
        (1i64, 2i64, vec![2i64, 3], Some("out of bounds")), // the transposed store
        (1, 1, vec![2, 3], None),
        (2, 0, vec![2, 3], Some("out of bounds")),
        (0, 0, vec![6], Some("rank mismatch")),
    ] {
        let out = diff(&ir, m, "access2", |memory| {
            let data = (0..6).map(|v| v as f32).collect();
            vec![
                memref(memory, Buffer::F32(data), &shape),
                RtValue::Index(i),
                RtValue::Index(j),
            ]
        });
        match expect {
            None => assert_eq!(out.result.unwrap(), vec![RtValue::F32(4.0)]),
            Some(text) => assert!(message(&out).contains(text), "{}", message(&out)),
        }
    }
}

const DIVIDE: &str = r#"
^bb0(%l: i64, %r: i64, %l32: i32, %r32: i32):
  %q = "arith.divsi"(%l, %r) : (i64, i64) -> i64
  %m = "arith.remsi"(%l, %r) : (i64, i64) -> i64
  %q32 = "arith.divsi"(%l32, %r32) : (i32, i32) -> i32
  "func.return"(%q, %m, %q32) : (i64, i64, i32) -> ()
"#;

const REMAINDER: &str = r#"
^bb0(%l: i64, %r: i64):
  %m = "arith.remsi"(%l, %r) : (i64, i64) -> i64
  "func.return"(%m) : (i64) -> ()
"#;

#[test]
fn division_wraps_at_the_minimum_and_rejects_zero() {
    let (ir, m) = module_of(&[
        ("div", "(i64, i64, i32, i32) -> (i64, i64, i32)", DIVIDE),
        ("rem", "(i64, i64) -> (i64)", REMAINDER),
    ]);
    let args = |l, r, l32, r32| {
        no_memory(vec![
            RtValue::I64(l),
            RtValue::I64(r),
            RtValue::I32(l32),
            RtValue::I32(r32),
        ])
    };
    let out = diff(&ir, m, "div", args(-7, 2, 9, -4));
    assert_eq!(
        out.result.unwrap(),
        vec![RtValue::I64(-3), RtValue::I64(-1), RtValue::I32(-2)]
    );
    // `i64::MIN / -1` overflows: it must wrap, not panic the worker.
    let out = diff(&ir, m, "div", args(i64::MIN, -1, i32::MIN, -1));
    assert_eq!(
        out.result.unwrap(),
        vec![
            RtValue::I64(i64::MIN),
            RtValue::I64(0),
            RtValue::I32(i32::MIN)
        ]
    );
    let out = diff(&ir, m, "div", args(1, 0, 1, 1));
    assert!(
        message(&out).contains("integer division by zero"),
        "{}",
        message(&out)
    );
    let out = diff(
        &ir,
        m,
        "rem",
        no_memory(vec![RtValue::I64(1), RtValue::I64(0)]),
    );
    assert!(
        message(&out).contains("integer remainder by zero"),
        "{}",
        message(&out)
    );
}

#[test]
fn non_positive_loop_steps_are_rejected() {
    for (op, yield_op) in [
        ("scf.for", "scf.yield"),
        ("omp.wsloop", "omp.yield"),
        ("fir.do_loop", "fir.result"),
    ] {
        let body = format!(
            "^bb0(%step: index):\n  %c0 = \"arith.constant\"() {{value = 0 : index}} : () -> index\n  \"{op}\"(%c0, %c0, %step) ({{\n  ^bb1(%i: index):\n    \"{yield_op}\"() : () -> ()\n  }}) : (index, index, index) -> ()\n  \"func.return\"() : () -> ()"
        );
        let (ir, m) = module_of(&[("f", "(index) -> ()", &body)]);
        for step in [0, -2] {
            let out = diff(&ir, m, "f", no_memory(vec![RtValue::Index(step)]));
            let expect = format!("{op} requires positive step");
            assert!(message(&out).contains(&expect), "{}", message(&out));
        }
        assert!(diff(&ir, m, "f", no_memory(vec![RtValue::Index(1)]))
            .result
            .is_ok());
    }
}

// ---- the step budget ----------------------------------------------------------------

const COUNTED: &str = r#"
^bb0(%n: index, %flag: i1):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "scf.for"(%c0, %n, %c1) ({
  ^bb1(%i: index):
    "scf.if"(%flag) ({
      %x = "arith.addi"(%i, %c1) : (index, index) -> index
      "scf.yield"() : () -> ()
    }, {
      "scf.yield"() : () -> ()
    }) : (i1) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;

/// Entry block 4 ops; per iteration 2 body ops plus 2 (taken) or 1 (not).
fn counted_steps(n: u64, flag: bool) -> u64 {
    4 + n * (2 + if flag { 2 } else { 1 })
}

#[test]
fn both_engines_exhaust_the_step_budget_at_the_same_threshold() {
    let (ir, m) = module_of(&[("counted", "(index, i1) -> ()", COUNTED)]);
    for (n, flag) in [(0u64, true), (5, true), (5, false), (40, true)] {
        let steps = counted_steps(n, flag);
        for (budget, fits) in [(steps, true), (steps - 1, false), (1, false)] {
            for engine in [Engine::Oracle, Engine::Bytecode] {
                let args = [RtValue::Index(n as i64), RtValue::I1(flag)];
                let out = run(
                    engine,
                    &ir,
                    m,
                    "counted",
                    &args,
                    Memory::new(),
                    &mut NoHooks,
                    budget,
                );
                match fits {
                    true => assert!(out.result.is_ok(), "{engine:?} n={n} budget={budget}"),
                    false => assert_eq!(
                        message(&out),
                        "interpreter step budget exhausted",
                        "{engine:?} n={n} budget={budget}"
                    ),
                }
            }
        }
    }
}

// ---- the five benchmarks, at every stage the interpreter accepts ----------------------

struct Bench {
    name: &'static str,
    source: &'static str,
    /// Host arguments for problem size `n` drawn from `seed`.
    args: fn(&mut Memory, usize, u64) -> Vec<RtValue>,
}

/// `n` values in [-1, 1) drawn from `seed`.
fn vector(n: usize, seed: u64) -> Buffer {
    let mut rng = proptest::TestRng::new(seed);
    Buffer::F32((0..n).map(|_| rng.unit_f64() as f32 * 2.0 - 1.0).collect())
}

fn host_array(memory: &mut Memory, buffer: Buffer) -> RtValue {
    let len = buffer.len() as i64;
    memref(memory, buffer, &[len])
}

const BENCHES: [Bench; 5] = [
    Bench {
        name: "saxpy",
        source: include_str!("../../../benchmarks/saxpy.f90"),
        args: |m, n, seed| {
            vec![
                RtValue::I32(n as i32),
                RtValue::F32(1.0 + (seed % 7) as f32 * 0.5),
                host_array(m, vector(n, seed)),
                host_array(m, vector(n, seed ^ 0xabcd)),
            ]
        },
    },
    Bench {
        name: "dotprod",
        source: include_str!("../../../benchmarks/dotprod.f90"),
        args: |m, n, seed| {
            vec![
                RtValue::I32(n as i32),
                host_array(m, vector(n, seed)),
                host_array(m, vector(n, seed ^ 0x1234)),
                RtValue::F32(0.0),
            ]
        },
    },
    Bench {
        name: "jacobi",
        source: include_str!("../../../benchmarks/jacobi.f90"),
        args: |m, n, seed| {
            vec![
                RtValue::I32(n as i32),
                host_array(m, vector(n, seed)),
                host_array(m, Buffer::F32(vec![0.0; n])),
            ]
        },
    },
    Bench {
        name: "heat",
        source: include_str!("../../../benchmarks/heat.f90"),
        args: |m, n, seed| {
            vec![
                RtValue::I32(n as i32),
                RtValue::F32(0.125),
                host_array(m, vector(n, seed)),
                host_array(m, Buffer::F32(vec![0.0; n])),
            ]
        },
    },
    Bench {
        name: "sgesl",
        source: include_str!("../../../benchmarks/sgesl.f90"),
        args: |m, n, seed| {
            // Not a real factorisation: a diagonally dominant matrix and any
            // in-range pivot vector exercise every path of the solver.
            let Buffer::F32(mut a) = vector(n * n, seed) else {
                unreachable!()
            };
            for k in 0..n {
                a[k * n + k] += 4.0;
            }
            let ipvt = (0..n)
                .map(|k| (k + (seed as usize + k) % (n - k)) as i32 + 1)
                .collect();
            vec![
                host_array(m, Buffer::F32(a)),
                RtValue::I32(n as i32),
                RtValue::I32(n as i32),
                host_array(m, Buffer::I32(ipvt)),
                host_array(m, vector(n, seed ^ 0x77)),
            ]
        },
    },
];

/// Stages one and two: the frontend's FIR + omp output, then the same module
/// after `fir-to-core`; `omp.target` regions run inline on the host.
fn diff_frontend_stages(bench: &Bench, n: usize, seed: u64) {
    let mut ir = Ir::new();
    let module = ftn_frontend::compile_to_fir(&mut ir, bench.source).expect("frontend");
    diff(&ir, module, bench.name, |memory| {
        (bench.args)(memory, n, seed)
    });
    ftn_passes::fir_to_core::run(&mut ir, module).expect("fir-to-core");
    diff(&ir, module, bench.name, |memory| {
        (bench.args)(memory, n, seed)
    });
}

/// Hooks that run the real `HostRuntime` and keep, for every kernel launch,
/// the device function, its arguments and the memory it started from.
struct Recording {
    inner: HostRuntime,
    created: HashMap<u64, (String, Vec<RtValue>)>,
    launches: Vec<(String, Vec<RtValue>, Memory)>,
}

impl DialectHooks for Recording {
    fn handle_op(
        &mut self,
        ir: &Ir,
        memory: &mut Memory,
        op: OpId,
        args: &[RtValue],
    ) -> Result<Option<Vec<RtValue>>, InterpError> {
        let name = ir.op_name(op);
        if name == device::KERNEL_LAUNCH {
            if let Some((func, kernel_args)) = args.first().and_then(|h| match h {
                RtValue::KernelHandle(h) => self.created.get(h),
                _ => None,
            }) {
                self.launches
                    .push((func.clone(), kernel_args.clone(), memory.clone()));
            }
        }
        let out = self.inner.handle_op(ir, memory, op, args)?;
        if name == device::KERNEL_CREATE {
            if let Some([RtValue::KernelHandle(h)]) = out.as_deref() {
                let func = device::kernel_function(ir, op).to_string();
                self.created.insert(*h, (func, args.to_vec()));
            }
        }
        Ok(out)
    }
}

/// Stage three: the final host module against the synthesized bitstream.
/// The host program runs on the oracle (driving the real `HostRuntime`) and
/// through `HostProgram::run`; then every kernel launch it made is replayed
/// from its starting memory on the oracle and on `KernelExecutor::execute`.
fn diff_full_run(bench: &Bench, artifacts: &Artifacts, n: usize, seed: u64) {
    let device = DeviceModel::u280();
    let executor = KernelExecutor::from_bitstream(&artifacts.bitstream, device.clone()).unwrap();

    let (host_ir, host_module) = module(&artifacts.host_module_text);
    let mut memory = Memory::new();
    let args = (bench.args)(&mut memory, n, seed);
    let mut hooks = Recording {
        inner: HostRuntime::new(executor.clone(), device.clone()),
        created: HashMap::new(),
        launches: Vec::new(),
    };
    let first_allocated = memory.len();
    let mut oracle = run(
        Engine::Oracle,
        &host_ir,
        host_module,
        bench.name,
        &args,
        memory,
        &mut hooks,
        DEFAULT_MAX_STEPS,
    );
    // `HostProgram::run` frees what the run allocated (no result of these
    // benchmarks references it); the oracle's side gets the same reclaim.
    for slot in first_allocated..oracle.memory.len() {
        oracle.memory.free(BufferId(slot as u32));
    }

    let program = HostProgram::parse(&artifacts.host_module_text).unwrap();
    let mut memory = Memory::new();
    let args = (bench.args)(&mut memory, n, seed);
    let (stats, results) = program
        .run(bench.name, &args, &mut memory, &executor, &device)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    let bytecode = Outcome {
        result: Ok(results),
        // `HostProgram::run` takes no observer; host loops are covered by
        // the frontend stages.
        loops: oracle.loops.clone(),
        memory,
    };
    let what = format!("{} n={n} seed={seed}", bench.name);
    assert_same(&oracle, &bytecode, &what);
    assert_eq!(hooks.inner.stats, stats, "{what}: RunStats");
    assert!(stats.launches > 0, "{what}: no kernel ran");
    assert_eq!(stats.launches as usize, hooks.launches.len());

    let mut device_ir = Ir::new();
    let device_module = artifacts.bitstream.instantiate(&mut device_ir).unwrap();
    for (kernel, kernel_args, start) in hooks.launches {
        let func = device_ir.lookup_symbol(device_module, &kernel).unwrap();
        let index_of = loop_index_map(&device_ir, func);
        let oracle = run(
            Engine::Oracle,
            &device_ir,
            device_module,
            &kernel,
            &kernel_args,
            start.clone(),
            &mut NoHooks,
            DEFAULT_MAX_STEPS,
        );
        let mut memory = start;
        let stats = executor
            .execute(&kernel, &kernel_args, &mut memory)
            .unwrap();
        let instances: Vec<(usize, u64)> = oracle
            .loops
            .iter()
            .map(|(op, trip)| (index_of[op], *trip))
            .collect();
        // Cycles and seconds are a pure function of these and the schedule.
        assert_eq!(instances, stats.loop_instances, "{what} {kernel}: loops");
        let executed = Outcome {
            result: Ok(stats.results),
            loops: oracle.loops.clone(),
            memory,
        };
        assert_same(&oracle, &executed, &format!("{what} {kernel}"));
    }
}

fn artifacts(bench: &Bench) -> Artifacts {
    Compiler::default()
        .compile_source(bench.source)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

/// The tree-walker is slow unoptimized; CI's release run draws more and
/// larger cases than the debug one.
const CASES: u32 = if cfg!(debug_assertions) { 12 } else { 64 };
const MAX_N: usize = if cfg!(debug_assertions) { 160 } else { 4000 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn benchmarks_agree_at_the_frontend_and_core_stages(n in 2usize..MAX_N, seed in 0u64..10_000) {
        for bench in &BENCHES {
            // SGESL is quadratic in n.
            let n = if bench.name == "sgesl" { 2 + n % 48 } else { n };
            diff_frontend_stages(bench, n, seed);
        }
    }
}

#[test]
fn benchmarks_agree_on_full_host_and_device_runs() {
    for bench in &BENCHES {
        let artifacts = artifacts(bench);
        let mut rng = proptest::TestRng::new(0x5eed ^ bench.name.len() as u64);
        // Sizes below, at and across every unroll factor's epilogue.
        let mut sizes = vec![1usize, 2, 3, 8, 10, 11, 31];
        sizes.extend((0..5).map(|_| 2 + rng.below(200)));
        for n in sizes {
            let n = if bench.name == "sgesl" {
                2 + n % 20
            } else {
                n.max(2)
            };
            diff_full_run(bench, &artifacts, n, rng.next_u64() % 10_000);
        }
    }
}

#[test]
fn kernel_wait_before_launch_is_the_same_error() {
    let saxpy = artifacts(&BENCHES[0]);
    let device = DeviceModel::u280();
    let executor = KernelExecutor::from_bitstream(&saxpy.bitstream, device.clone()).unwrap();
    let body = r#"
^bb0(%n: index):
  %x = "device.alloc"(%n) {name = "x", memory_space = 1 : i32} : (index) -> memref<?xf32, 1>
  %k = "device.kernel_create"(%x, %x, %n) ({
  }) {device_function = @saxpy_kernel0} : (memref<?xf32, 1>, memref<?xf32, 1>, index) -> !device.kernelhandle
  "device.kernel_wait"(%k) : (!device.kernelhandle) -> ()
  "func.return"() : () -> ()
"#;
    let (ir, m) = module_of(&[("main", "(index) -> ()", body)]);
    let outcome = |engine| {
        let mut hooks = HostRuntime::new(executor.clone(), device.clone());
        let args = [RtValue::Index(4)];
        run(
            engine,
            &ir,
            m,
            "main",
            &args,
            Memory::new(),
            &mut hooks,
            DEFAULT_MAX_STEPS,
        )
    };
    let (oracle, bytecode) = (outcome(Engine::Oracle), outcome(Engine::Bytecode));
    assert_same(&oracle, &bytecode, "wait before launch");
    assert!(
        message(&bytecode).contains("kernel_wait before launch"),
        "{}",
        message(&bytecode)
    );
}

// ---- numbering: what lowering does to the code, not to the answer ---------------------

/// The bytecode listing of `func`.
fn listing(ir: &Ir, module: OpId, func: &str) -> String {
    Program::lower_module(ir, module).disassemble(func)
}

/// `%m[%p - 1]` loaded, scaled through `mulf` → `addf`, stored to `%m[%p - 1]`
/// and returned with the index as `index → i32 → index` sees it: every
/// producer → consumer pair a kernel body is made of, with a parameter as the
/// producer's first operand, so the caller picks the kinds.
const PAIRS: &str = r#"
^bb0(%m: memref<?xf32>, %p: index, %a: f32, %b: f32):
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %i = "arith.subi"(%p, %c1) : (index, index) -> index
  %v = "memref.load"(%m, %i) : (memref<?xf32>, index) -> f32
  %t = "arith.mulf"(%a, %v) : (f32, f32) -> f32
  %s = "arith.addf"(%t, %b) : (f32, f32) -> f32
  %c1b = "arith.constant"() {value = 1 : index} : () -> index
  %j = "arith.subi"(%p, %c1b) : (index, index) -> index
  "memref.store"(%s, %m, %j) : (f32, memref<?xf32>, index) -> ()
  %n = "arith.index_cast"(%p) : (index) -> i32
  %w = "arith.index_cast"(%n) : (i32) -> index
  %u = "arith.addi"(%p, %c1) : (index, index) -> index
  %x = "arith.index_cast"(%u) : (index) -> i64
  %y = "arith.index_cast"(%p) : (index) -> i1
  %z = "arith.addi"(%y, %c1) : (i1, index) -> i1
  "func.return"(%s, %w, %x, %z) : (f32, index, i64, i1) -> ()
"#;

/// The same shapes whose *consumer* is the one that fails: the intermediate
/// of each pair is a float where an integer is required.
const PAIRS_LATE: &str = r#"
^bb0(%p: index, %pick: index):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %first = "arith.cmpi"(%pick, %c0) {predicate = "eq"} : (index, index) -> i1
  "scf.if"(%first) ({
    %f = "arith.sitofp"(%p) : (index) -> f32
    %i = "arith.index_cast"(%f) : (f32) -> index
    "scf.yield"() : () -> ()
  }, {
    %g = "arith.sitofp"(%p) : (index) -> f64
    %j = "arith.subi"(%g, %c1) : (f64, index) -> index
    "scf.yield"() : () -> ()
  }) : (i1) -> ()
  "func.return"() : () -> ()
"#;

#[test]
fn ill_kinded_arguments_reach_producer_consumer_pairs_with_the_oracles_errors() {
    let (ir, m) = module_of(&[
        (
            "pairs",
            "(memref<?xf32>, index, f32, f32) -> (f32, index, i64, i1)",
            PAIRS,
        ),
        ("late", "(index, index) -> ()", PAIRS_LATE),
    ]);
    let text = listing(&ir, m, "pairs");
    for form in [
        "%5 = int.Sub %1, %4",
        "load1 %0[%5]",
        "store1 %8, %0[%5]",
        "%7 = float.Mul %2, %6",
        "float.Add %7, %3",
        "%11 = convert.I32 %1",
        "convert.Index %11",
        "%13 = int.Add %1, %4",
        "convert.I64 %13",
        "%15 = convert.I1 %1",
        "int.Add %15, %4",
    ] {
        assert!(text.contains(form), "no `{form}` in\n{text}");
    }
    // The duplicate constant and the duplicate subi emitted nothing.
    assert_eq!(text.matches("int.Sub").count(), 1, "{text}");
    let text = listing(&ir, m, "late");
    for form in [
        "%5 = convert.F32 %0",
        "convert.Index %5",
        "%7 = convert.F64 %0",
        "int.Sub %7, %3",
    ] {
        assert!(text.contains(form), "no `{form}` in\n{text}");
    }

    let data = || Buffer::F32(vec![1.0, 2.0, 3.0, 4.0]);
    use RtValue::{Index, F32, F64, I1, I32, I64};
    // (buffer and shape behind `%m`, or a scalar there; `%p`; `%a`; `%b`;
    // the error expected, if any)
    type Case = (
        Result<(Buffer, Vec<i64>), RtValue>,
        RtValue,
        RtValue,
        RtValue,
        Option<&'static str>,
    );
    let f32s = |shape: &[i64]| Ok((data(), shape.to_vec()));
    let cases: Vec<Case> = vec![
        // Well-kinded; then the same index as each integer kind, over
        // NaN, infinities and subnormals.
        (f32s(&[4]), Index(2), F32(0.5), F32(-0.0), None),
        (f32s(&[4]), I32(4), F32(f32::NAN), F32(1.0), None),
        (
            f32s(&[4]),
            I64(1),
            F32(f32::INFINITY),
            F32(f32::NEG_INFINITY),
            None,
        ),
        (f32s(&[4]), I1(true), F32(1e-40), F32(-1e-45), None),
        // An i32 index wraps as an i32 before it addresses anything.
        (
            f32s(&[4]),
            I32(i32::MIN),
            F32(1.0),
            F32(1.0),
            Some("index 2147483647 out of bounds"),
        ),
        // Bounds: below, at the end, and inside a shape the buffer is short of.
        (
            f32s(&[4]),
            Index(0),
            F32(1.0),
            F32(1.0),
            Some("index -1 out of bounds"),
        ),
        (
            f32s(&[4]),
            Index(5),
            F32(1.0),
            F32(1.0),
            Some("index 4 out of bounds"),
        ),
        (
            f32s(&[9]),
            Index(7),
            F32(1.0),
            F32(1.0),
            Some("load offset 6 out of bounds (4)"),
        ),
        // The producer of the addressing: the base is no integer.
        (
            f32s(&[4]),
            F32(2.0),
            F32(1.0),
            F32(1.0),
            Some("expected integer, got F32(2.0)"),
        ),
        // Its consumer: a scalar where the memref goes, a rank-2 shape.
        (
            Err(I64(9)),
            Index(2),
            F32(1.0),
            F32(1.0),
            Some("expected memref, got I64(9)"),
        ),
        (
            f32s(&[2, 2]),
            Index(2),
            F32(1.0),
            F32(1.0),
            Some("rank mismatch: 1 indices for rank-2 memref"),
        ),
        // mulf → addf: the first pair of kinds, then the second.
        (
            f32s(&[4]),
            Index(2),
            F64(1.0),
            F32(1.0),
            Some("float binop type mismatch"),
        ),
        (
            f32s(&[4]),
            Index(2),
            F32(1.0),
            F64(1.0),
            Some("float binop type mismatch"),
        ),
        // An integer buffer: the element loaded is no float for the `mulf`.
        (
            Ok((Buffer::I32(vec![1, 2, 3, 4]), vec![4])),
            Index(2),
            F32(1.0),
            F32(1.0),
            Some("float binop type mismatch"),
        ),
    ];
    for (i, (m_arg, p, a, b, expect)) in cases.iter().enumerate() {
        let out = diff(&ir, m, "pairs", |mem| {
            let m_arg = match m_arg {
                Ok((buffer, shape)) => memref(mem, buffer.clone(), shape),
                Err(scalar) => scalar.clone(),
            };
            vec![m_arg, p.clone(), a.clone(), b.clone()]
        });
        match expect {
            None => assert!(out.result.is_ok(), "case {i}: {:?}", out.result),
            Some(text) => assert!(message(&out).contains(text), "case {i}: {}", message(&out)),
        }
    }
    // Past the access the conversions see each kind too.
    let out = diff(&ir, m, "pairs", |mem| {
        vec![
            memref(mem, data(), &[4]),
            RtValue::I32(3),
            RtValue::F32(2.0),
            RtValue::F32(1.0),
        ]
    });
    assert_eq!(
        out.result.unwrap(),
        vec![
            RtValue::F32(7.0),
            RtValue::Index(3),
            RtValue::I64(4),
            RtValue::I1(true)
        ]
    );
    for (pick, expect) in [
        (0, "expected integer, got F32(7.0)"),
        (1, "expected integer, got F64(7.0)"),
    ] {
        let args = vec![RtValue::Index(7), RtValue::Index(pick)];
        let out = diff(&ir, m, "late", no_memory(args));
        assert!(message(&out).contains(expect), "{}", message(&out));
    }
    // ... and the producer of those pairs.
    let args = vec![RtValue::F32(7.0), RtValue::Index(0)];
    let out = diff(&ir, m, "late", no_memory(args));
    assert!(
        message(&out).contains("expected integer, got F32(7.0)"),
        "{}",
        message(&out)
    );
}

/// `index → i32 → index` is not the identity past 31 bits.
#[test]
fn index_i32_index_chains_truncate_at_the_i32_boundary() {
    let body = r#"
^bb0(%p: index):
  %n = "arith.index_cast"(%p) : (index) -> i32
  %w = "arith.index_cast"(%n) : (i32) -> index
  %n2 = "arith.index_cast"(%p) : (index) -> i32
  %w2 = "arith.index_cast"(%n2) : (i32) -> index
  %d = "arith.subi"(%w, %w2) : (index, index) -> index
  "func.return"(%w, %d) : (index, index) -> ()
"#;
    let (ir, m) = module_of(&[("chain", "(index) -> (index, index)", body)]);
    let text = listing(&ir, m, "chain");
    // The second chain is the first again and emitted nothing.
    assert_eq!(text.matches("convert").count(), 2, "{text}");
    for (p, expect) in [
        ((1i64 << 31) - 1, (1i64 << 31) - 1),
        (1 << 31, -(1i64 << 31)),
        (1 << 33, 0),
        ((1 << 33) + 5, 5),
        (-1, -1),
    ] {
        for arg in [RtValue::Index(p), RtValue::I64(p)] {
            let out = diff(&ir, m, "chain", no_memory(vec![arg]));
            assert_eq!(
                out.result.unwrap(),
                vec![RtValue::Index(expect), RtValue::Index(0)]
            );
        }
    }
}

/// Constants are numbered by kind *and* bits: `1 : index`, `1 : i64` and
/// `1 : i32` stay three values (a result's kind follows its left operand),
/// `0.0` and `-0.0` two.
#[test]
fn constants_of_different_kinds_or_bits_are_not_merged() {
    let body = r#"
^bb0(%x: f32):
  %a = "arith.constant"() {value = 1 : index} : () -> index
  %b = "arith.constant"() {value = 1 : i64} : () -> i64
  %c = "arith.constant"() {value = 1 : i32} : () -> i32
  %d = "arith.constant"() {value = 1 : index} : () -> index
  %big = "arith.constant"() {value = 2147483647 : i32} : () -> i32
  %ab = "arith.addi"(%a, %big) : (index, i32) -> index
  %bb = "arith.addi"(%b, %big) : (i64, i32) -> i64
  %cb = "arith.addi"(%c, %big) : (i32, i32) -> i32
  %db = "arith.addi"(%d, %big) : (index, i32) -> index
  %pz = "arith.constant"() {value = 0e0 : f32} : () -> f32
  %nz = "arith.negf"(%pz) : (f32) -> f32
  %pz2 = "arith.constant"() {value = 0e0 : f32} : () -> f32
  %s1 = "arith.addf"(%pz, %pz2) : (f32, f32) -> f32
  %s2 = "arith.addf"(%nz, %nz) : (f32, f32) -> f32
  "func.return"(%ab, %bb, %cb, %db, %s1, %s2) : (index, i64, i32, index, f32, f32) -> ()
"#;
    let (ir, m) = module_of(&[(
        "consts",
        "(f32) -> (index, i64, i32, index, f32, f32)",
        body,
    )]);
    let text = listing(&ir, m, "consts");
    // %db is %ab again; the other two additions differ in their constant.
    assert_eq!(text.matches("int.Add").count(), 3, "{text}");
    let out = diff(&ir, m, "consts", no_memory(vec![RtValue::F32(0.0)]));
    let values = out.result.unwrap();
    assert_eq!(
        values[..4],
        [
            RtValue::Index(1 << 31),
            RtValue::I64(1 << 31),
            RtValue::I32(i32::MIN),
            RtValue::Index(1 << 31)
        ]
    );
    assert_eq!(value_bits(&values[4]), "f32:00000000");
    assert_eq!(value_bits(&values[5]), "f32:80000000");
}

/// A loop body that lowers to fewer instructions than it has ops — its
/// constant and three more of its ops are duplicates — still costs its op
/// count.
const SHRUNK: &str = r#"
^bb0(%n: index, %m: memref<?xf32>):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "scf.for"(%c0, %n, %c1) ({
  ^bb1(%i: index):
    %one = "arith.constant"() {value = 1 : index} : () -> index
    %a = "arith.addi"(%i, %one) : (index, index) -> index
    %b = "arith.addi"(%i, %one) : (index, index) -> index
    %a32 = "arith.index_cast"(%a) : (index) -> i32
    %b32 = "arith.index_cast"(%b) : (index) -> i32
    %ai = "arith.index_cast"(%a32) : (i32) -> index
    %bi = "arith.index_cast"(%b32) : (i32) -> index
    %j = "arith.subi"(%ai, %one) : (index, index) -> index
    %v = "memref.load"(%m, %j) : (memref<?xf32>, index) -> f32
    %t = "arith.mulf"(%v, %v) : (f32, f32) -> f32
    %s = "arith.addf"(%t, %v) : (f32, f32) -> f32
    "memref.store"(%s, %m, %j) : (f32, memref<?xf32>, index) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;

#[test]
fn numbered_bodies_exhaust_the_step_budget_at_the_op_count() {
    let (ir, m) = module_of(&[("shrunk", "(index, memref<?xf32>) -> ()", SHRUNK)]);
    let text = listing(&ir, m, "shrunk");
    let body: Vec<&str> = text.lines().skip_while(|l| !l.contains("loop")).collect();
    // 13 ops; after numbering the body is 8 instructions.
    assert_eq!(body.len() - 2, 8, "{text}");
    for n in [0u64, 1, 6] {
        // Entry block 4 ops, 13 per iteration.
        let steps = 4 + 13 * n;
        for (budget, fits) in [(steps, true), (steps - 1, false)] {
            for engine in [Engine::Oracle, Engine::Bytecode] {
                let mut memory = Memory::new();
                let args = [
                    RtValue::Index(n as i64),
                    memref(&mut memory, Buffer::F32(vec![0.5; 8]), &[8]),
                ];
                let out = run(
                    engine,
                    &ir,
                    m,
                    "shrunk",
                    &args,
                    memory,
                    &mut NoHooks,
                    budget,
                );
                match fits {
                    true => assert!(out.result.is_ok(), "{engine:?} n={n} budget={budget}"),
                    false => assert_eq!(
                        message(&out),
                        "interpreter step budget exhausted",
                        "{engine:?} n={n} budget={budget}"
                    ),
                }
            }
        }
    }
}

/// The store is the body's second op of four: a budget that runs out in
/// the middle of an iteration must not have performed it. Blocks are charged
/// whole on entry, by both engines, so memory holds whole iterations only.
const STORE_THEN_WORK: &str = r#"
^bb0(%n: index, %m: memref<?xf32>):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %v = "arith.constant"() {value = 2.5e0 : f32} : () -> f32
  "scf.for"(%c0, %n, %c1) ({
  ^bb1(%i: index):
    %j = "arith.addi"(%i, %c0) : (index, index) -> index
    "memref.store"(%v, %m, %j) : (f32, memref<?xf32>, index) -> ()
    %w = "arith.addf"(%v, %v) : (f32, f32) -> f32
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;

#[test]
fn a_budget_that_runs_out_mid_iteration_leaves_whole_iterations_in_memory() {
    let (ir, m) = module_of(&[("f", "(index, memref<?xf32>) -> ()", STORE_THEN_WORK)]);
    // Entry block 5 ops, 4 per iteration. Trip counts on both sides of the
    // strip minimum, so the budget also runs out between and inside strips.
    for n in [3u64, 40, 700] {
        for done in [0, 1, n / 2, n - 1] {
            for into in 0..4 {
                let budget = 5 + 4 * done + into;
                let outcome = |engine| {
                    let mut memory = Memory::new();
                    let buffer = Buffer::F32(vec![0.0; n as usize]);
                    let args = [
                        RtValue::Index(n as i64),
                        memref(&mut memory, buffer, &[n as i64]),
                    ];
                    run(engine, &ir, m, "f", &args, memory, &mut NoHooks, budget)
                };
                let (oracle, bytecode) = (outcome(Engine::Oracle), outcome(Engine::Bytecode));
                let what = format!("n={n} budget={budget}");
                assert_same(&oracle, &bytecode, &what);
                assert_eq!(
                    message(&bytecode),
                    "interpreter step budget exhausted",
                    "{what}"
                );
                let Buffer::F32(data) = bytecode.memory.get(BufferId(0)) else {
                    unreachable!()
                };
                let stored = data.iter().filter(|&&x| x == 2.5).count() as u64;
                assert_eq!(stored, done, "{what}: stores performed");
            }
        }
    }
}

/// A search over a triangle that returns from inside the inner loop's `if`:
/// the loops it leaves are never reported, the ones it finished are.
const SEARCH: &str = r#"
^bb0(%n: index, %target: index):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %none = "arith.constant"() {value = -1 : index} : () -> index
  %count = "scf.for"(%c0, %n, %c1, %c0) ({
  ^bb1(%i: index, %seen: index):
    %inner = "scf.for"(%c0, %i, %c1, %seen) ({
    ^bb2(%j: index, %acc: index):
      %next = "arith.addi"(%acc, %c1) : (index, index) -> index
      %hit = "arith.cmpi"(%next, %target) {predicate = "eq"} : (index, index) -> i1
      "scf.if"(%hit) ({
        "func.return"(%i, %j) : (index, index) -> ()
      }, {
        "scf.yield"() : () -> ()
      }) : (i1) -> ()
      "scf.yield"(%next) : (index) -> ()
    }) : (index, index, index, index) -> index
    "scf.yield"(%inner) : (index) -> ()
  }) : (index, index, index, index) -> index
  "func.return"(%none, %count) : (index, index) -> ()
"#;

#[test]
fn zero_trip_single_trip_and_early_return_through_the_back_edge() {
    let (ir, m) = module_of(&[("search", "(index, index) -> (index, index)", SEARCH)]);
    for (n, target, expect) in [
        (0i64, 1i64, (-1i64, 0i64)), // zero-trip outer loop
        (1, 1, (-1, 0)),             // single trip, zero-trip inner loop
        (2, 1, (1, 0)),              // returns on the inner loop's only trip
        (5, 7, (4, 0)),
        (5, 10, (4, 3)),
        (5, 11, (-1, 10)), // runs to completion
    ] {
        let args = vec![RtValue::Index(n), RtValue::Index(target)];
        let out = diff(&ir, m, "search", no_memory(args));
        let (a, b) = expect;
        assert_eq!(
            out.result.unwrap(),
            vec![RtValue::Index(a), RtValue::Index(b)],
            "n={n} target={target}"
        );
        if (n, target) == (5, 7) {
            // i = 0..3 finished their inner loops; i = 4 and the outer did not.
            let trips: Vec<u64> = out.loops.iter().map(|&(_, t)| t).collect();
            assert_eq!(trips, vec![0, 1, 2, 3]);
        }
    }
}

/// A loop whose yield operands were all numbered away while its body was
/// lowered: a second `addi` of the body, a repeat of an op of the enclosing
/// block, and a constant equal to an earlier one. `LOOP` / `YIELD` are
/// replaced per loop kind.
const YIELD_DUPLICATES: &str = r#"
^bb0(%n: index, %x: i64):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %one = "arith.constant"() {value = 1 : i64} : () -> i64
  %seven = "arith.constant"() {value = 7 : i64} : () -> i64
  %outer = "arith.addi"(%x, %one) : (i64, i64) -> i64
  %ra, %rb, %rc = "LOOP"(%c0, %n, %c1, %x, %x, %x) ({
  ^bb1(%i: index, %a: i64, %b: i64, %c: i64):
    %s = "arith.addi"(%a, %one) : (i64, i64) -> i64
    %s2 = "arith.addi"(%a, %one) : (i64, i64) -> i64
    %o2 = "arith.addi"(%x, %one) : (i64, i64) -> i64
    %k = "arith.constant"() {value = 7 : i64} : () -> i64
    "YIELD"(%s2, %o2, %k) : (i64, i64, i64) -> ()
  }) : (index, index, index, i64, i64, i64) -> (i64, i64, i64)
  "func.return"(%ra, %rb, %rc, %outer, %seven) : (i64, i64, i64, i64, i64) -> ()
"#;

#[test]
fn loops_yield_values_that_were_numbered_away() {
    let signature = "(index, i64) -> (i64, i64, i64, i64, i64)";
    let scf = YIELD_DUPLICATES
        .replace("LOOP", "scf.for")
        .replace("YIELD", "scf.yield");
    let omp = YIELD_DUPLICATES
        .replace("LOOP", "omp.wsloop")
        .replace("YIELD", "omp.yield");
    let (ir, m) = module_of(&[("scf", signature, &scf), ("omp", signature, &omp)]);
    // Every yield operand is a duplicate: the body is one addition.
    for func in ["scf", "omp"] {
        let text = listing(&ir, m, func);
        assert_eq!(text.matches("int.Add").count(), 2, "{text}");
    }
    for n in [0i64, 1, 3] {
        for (func, trips) in [("scf", n), ("omp", n + 1)] {
            let args = vec![RtValue::Index(n), RtValue::I64(40)];
            let out = diff(&ir, m, func, no_memory(args));
            let carried = |init: i64, each: i64| if trips == 0 { init } else { each };
            assert_eq!(
                out.result.unwrap(),
                vec![
                    RtValue::I64(40 + trips),
                    RtValue::I64(carried(40, 41)),
                    RtValue::I64(carried(40, 7)),
                    RtValue::I64(41),
                    RtValue::I64(7),
                ],
                "{func} n={n}"
            );
        }
    }
}

// ---- strips: a planned loop against the oracle --------------------------------------------

/// `ftn-interp`'s strip width and minimum (`strip.rs`), which the trip
/// counts below straddle.
const LANES: i64 = 1024;
const MIN_LANES: i64 = 16;

/// `y[i+d] = 0.5*y[i+e] + x[i]; x[i+d+step] = y[i+e] - x[i]`: two stores and
/// two loads whose distances the caller chooses, over buffers the caller may
/// make one. With `d == e` the first store rewrites the element its lane
/// loaded; any other multiple of the step between them is a recurrence or an
/// anti-dependence across lanes; the second store runs ahead of the loads of
/// `x` by `d + step`.
const STENCIL: &str = r#"
^bb0(%x: memref<?xf32>, %y: memref<?xf32>, %lb: index, %ub: index, %step: index, %d: index, %e: index):
  %half = "arith.constant"() {value = 5.0e-1 : f32} : () -> f32
  "scf.for"(%lb, %ub, %step) ({
  ^bb1(%i: index):
    %ie = "arith.addi"(%i, %e) : (index, index) -> index
    %ye = "memref.load"(%y, %ie) : (memref<?xf32>, index) -> f32
    %xi = "memref.load"(%x, %i) : (memref<?xf32>, index) -> f32
    %t = "arith.mulf"(%half, %ye) : (f32, f32) -> f32
    %s = "arith.addf"(%t, %xi) : (f32, f32) -> f32
    %id = "arith.addi"(%i, %d) : (index, index) -> index
    "memref.store"(%s, %y, %id) : (f32, memref<?xf32>, index) -> ()
    %k = "arith.addi"(%id, %step) : (index, index) -> index
    %u = "arith.subf"(%ye, %xi) : (f32, f32) -> f32
    "memref.store"(%u, %x, %k) : (f32, memref<?xf32>, index) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;

/// One point of the stencil grid.
#[derive(Clone, Copy, Debug)]
struct StencilCase {
    /// `x` and `y` name one buffer.
    aliased: bool,
    trips: i64,
    step: i64,
    d: i64,
    e: i64,
    /// The buffers end one element before the last iteration's furthest
    /// access.
    short: bool,
    budget: u64,
    /// How far past `iv` the body's last copy starts (0: not unrolled).
    reach: i64,
}

/// Run `case` on both engines; `true` when the run succeeded.
fn diff_stencil(ir: &Ir, module: OpId, case: StencilCase) -> bool {
    const LB: i64 = 4;
    let StencilCase {
        aliased,
        trips,
        step,
        d,
        e,
        short,
        budget,
        reach,
    } = case;
    let furthest = LB + (trips - 1).max(0) * step + reach + e.max(d + step).max(0);
    let len = if short { furthest } else { furthest + 4 } as usize;
    let outcome = |engine| {
        let mut memory = Memory::new();
        let x = host_array(&mut memory, vector(len, 7));
        let y = match aliased {
            true => x.clone(),
            false => host_array(&mut memory, vector(len, 11)),
        };
        let index = RtValue::Index;
        let args = [
            x,
            y,
            index(LB),
            index(LB + trips * step),
            index(step),
            index(d),
            index(e),
        ];
        run(
            engine,
            ir,
            module,
            "stencil",
            &args,
            memory,
            &mut NoHooks,
            budget,
        )
    };
    let (oracle, bytecode) = (outcome(Engine::Oracle), outcome(Engine::Bytecode));
    assert_same(&oracle, &bytecode, &format!("{case:?}"));
    bytecode.result.is_ok()
}

/// `%name` for every value name in `line`, renamed by `rename`.
fn rename_values(line: &str, rename: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        let name = &rest[at..];
        let len = name[1..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(name.len(), |n| n + 1);
        out.push_str(&rename(&name[..len]));
        rest = &name[len..];
    }
    out.push_str(rest);
    out
}

/// `text` with the body of its one `scf.for` unrolled `copies` times, as
/// the pipeline unrolls a `simdlen` loop: copy `k` opens with `iv_k = iv +
/// k * unit` (a constant defined before the loop), reads `iv_k` where the
/// body read `iv`, and names every value it defines its own.
fn unrolled(text: &str, copies: usize, unit: i64) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let head = lines
        .iter()
        .position(|l| l.contains("^bb1("))
        .expect("a loop");
    let end = head
        + lines[head..]
            .iter()
            .position(|l| l.contains("\"scf.yield\""))
            .unwrap();
    let iv = lines[head]
        .split_once("^bb1(")
        .unwrap()
        .1
        .split(':')
        .next()
        .unwrap();
    let body = &lines[head + 1..end];
    let defined: Vec<&str> = body
        .iter()
        .filter_map(|l| l.trim().split_once(" = ").map(|(name, _)| name))
        .collect();
    let mut out = lines[..head - 1].join("\n") + "\n";
    for k in 1..copies {
        out += &format!(
            "  %unroll{k} = \"arith.constant\"() {{value = {} : index}} : () -> index\n",
            k as i64 * unit
        );
    }
    out += &(lines[head - 1..=head].join("\n") + "\n");
    for k in 0..copies {
        if k > 0 {
            out += &format!(
                "    {iv}_{k} = \"arith.addi\"({iv}, %unroll{k}) : (index, index) -> index\n"
            );
        }
        for line in body {
            let line = rename_values(line, |name| {
                match k > 0 && (name == iv || defined.contains(&name)) {
                    true => format!("{name}_{k}"),
                    false => name.to_string(),
                }
            });
            out += &(line + "\n");
        }
    }
    out + &lines[end..].join("\n") + "\n"
}

/// The grid over `trips`, with the two buffer lengths at the trip counts in
/// `short_at`, on the stencil with its body unrolled `copies` times at
/// offsets of `unit` (1: as it stands).
fn stencil_grid(
    (copies, unit): (usize, i64),
    trips: &[i64],
    short_at: &[i64],
    steps: &[i64],
    ds: &[i64],
    es: &[i64],
    budgets: &[u64],
) -> (usize, usize) {
    let (ir, m) = module_of(&[(
        "stencil",
        "(memref<?xf32>, memref<?xf32>, index, index, index, index, index) -> ()",
        &unrolled(STENCIL, copies, unit),
    )]);
    let mark = match copies {
        1 => " strip body=[".to_string(),
        _ => format!(" strip copies={copies} body=["),
    };
    let code = listing(&ir, m, "stencil");
    assert!(code.contains(&mark), "{code}");
    let (mut passed, mut failed) = (0, 0);
    for &trips in trips {
        for short in [false, true] {
            if short && !short_at.contains(&trips) {
                continue;
            }
            for aliased in [false, true] {
                for &step in steps {
                    for &d in ds {
                        for &e in es {
                            for &budget in budgets {
                                let case = StencilCase {
                                    aliased,
                                    trips,
                                    step,
                                    d,
                                    e,
                                    short,
                                    budget,
                                    reach: (copies as i64 - 1) * unit,
                                };
                                match diff_stencil(&ir, m, case) {
                                    true => passed += 1,
                                    false => failed += 1,
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (passed, failed)
}

#[test]
fn strips_agree_with_the_oracle_over_aliasing_distances_steps_and_budgets() {
    let trips = [
        0,
        1,
        7,
        8,
        9,
        MIN_LANES - 1,
        MIN_LANES,
        MIN_LANES + 1,
        127,
        128,
        129,
        396,
        LANES - 1,
        LANES,
        LANES + 1,
        LANES + MIN_LANES - 1,
        LANES + MIN_LANES,
    ];
    // The unoptimized tree-walker takes the corners of the distances only.
    let (ds, es): (&[i64], &[i64]) = match cfg!(debug_assertions) {
        true => (&[-3, 0, 2], &[-2, 0, 3]),
        false => (&[-3, -2, -1, 0, 1, 2], &[-2, -1, 0, 1, 2, 3]),
    };
    // 13 ops an iteration: 2 000 steps end inside the first strip of the
    // long loops, and let the short ones finish.
    let budgets = [DEFAULT_MAX_STEPS, 2_000];
    let short_at = [MIN_LANES + 1, 396, LANES + MIN_LANES];
    let (passed, failed) = stencil_grid((1, 1), &trips, &short_at, &[1, 2, 3], ds, es, &budgets);
    // Both outcomes are well represented, so neither side is vacuous.
    assert!(
        passed > 500 && failed > 500,
        "{passed} passed, {failed} failed"
    );
}

/// Every trip count up to two strips and a scalar tail, over the distances
/// that separate "same element", "recurrence" and "anti-dependence" at each
/// step. Release-only (CI runs it with `--include-ignored`).
#[test]
#[ignore = "exhaustive: minutes unoptimized"]
fn strips_agree_with_the_oracle_at_every_trip_count() {
    let trips: Vec<i64> = (0..=2 * LANES + 1).collect();
    let short_at = [MIN_LANES, LANES, 2 * LANES];
    let (passed, failed) = stencil_grid(
        (1, 1),
        &trips,
        &short_at,
        &[1, 3],
        &[-3, 0, 1],
        &[-1, 0, 3],
        &[DEFAULT_MAX_STEPS],
    );
    assert!(
        passed > 5_000 && failed > 50,
        "{passed} passed, {failed} failed"
    );
}

/// The trip counts around which a body of `copies` copies changes how it
/// strips: its fewest and most iterations a strip (`MIN_LANES` and `LANES`
/// lanes), and `MIN_LANES` and `LANES` iterations themselves.
fn unrolled_trips(copies: i64) -> Vec<i64> {
    let (fewest, widest) = ((MIN_LANES + copies - 1) / copies, LANES / copies);
    let mut trips: Vec<i64> = [0, 1, fewest, widest, MIN_LANES, LANES]
        .iter()
        .flat_map(|&t| [t - 1, t, t + 1])
        .filter(|&t| t >= 0)
        .collect();
    trips.sort_unstable();
    trips.dedup();
    trips
}

/// The stencil unrolled as a `simdlen` loop is: strips run it as one copy
/// over `copies` lanes an iteration when the step is `copies * unit`, and as
/// it stands at any other step. Distances of one or two elements meet
/// accesses of the other copies of the same iteration.
#[test]
fn unrolled_strips_agree_with_the_oracle_over_copies_offsets_and_steps() {
    let (ds, es): (&[i64], &[i64]) = match cfg!(debug_assertions) {
        true => (&[-2, 0, 1], &[-1, 0, 2]),
        false => (&[-2, -1, 0, 1, 2], &[-2, -1, 0, 1, 2]),
    };
    for copies in [2, 3, 10] {
        for unit in [1, 2] {
            let trips = unrolled_trips(copies as i64);
            let step = copies as i64 * unit;
            let short_at = [MIN_LANES + 1, LANES / copies as i64];
            // 13 ops a copy: 2 000 steps end inside the first strip.
            let budgets = [DEFAULT_MAX_STEPS, 2_000];
            let (passed, failed) = stencil_grid(
                (copies, unit),
                &trips,
                &short_at,
                &[step, step + 1],
                ds,
                es,
                &budgets,
            );
            assert!(
                passed > 500 && failed > 200,
                "{copies} copies of {unit}: {passed} passed, {failed} failed"
            );
        }
    }
}

/// Every trip count up to two strips and a scalar tail of a body of three
/// copies. Release-only (CI runs it with `--include-ignored`).
#[test]
#[ignore = "exhaustive: minutes unoptimized"]
fn unrolled_strips_agree_with_the_oracle_at_every_trip_count() {
    let widest = LANES / 3;
    let trips: Vec<i64> = (0..=2 * widest + 1).collect();
    let (passed, failed) = stencil_grid(
        (3, 1),
        &trips,
        &[widest, 2 * widest],
        &[3, 4],
        &[-3, 0, 1],
        &[-1, 0, 3],
        &[DEFAULT_MAX_STEPS],
    );
    assert!(
        passed > 2_000 && failed > 50,
        "{passed} passed, {failed} failed"
    );
}

// ---- windows ---------------------------------------------------------------------

/// `y[i+d] = x[i+e]`, with `x[i+e] = 2 * x[i+e]` before the copy (`clobber`
/// 1), after it (2) or not at all (0), over `T` buffers. A stride-1 load is
/// read where it lies, so the first clobber writes the very window the copy
/// stores.
fn copy_kernel(t: &str, clobber: usize) -> String {
    let twice = r#"
    %w = "arith.mulf"(%two, %v) : (T, T) -> T
    "memref.store"(%w, %x, %ie) : (T, memref<?xT>, index) -> ()"#;
    let (before, after) = match clobber {
        0 => ("", ""),
        1 => (twice, ""),
        _ => ("", twice),
    };
    format!(
        r#"
^bb0(%x: memref<?xT>, %y: memref<?xT>, %lb: index, %ub: index, %d: index, %e: index):
  %c1 = "arith.constant"() {{value = 1 : index}} : () -> index
  %two = "arith.constant"() {{value = 2.0 : T}} : () -> T
  "scf.for"(%lb, %ub, %c1) ({{
  ^bb1(%i: index):
    %ie = "arith.addi"(%i, %e) : (index, index) -> index
    %v = "memref.load"(%x, %ie) : (memref<?xT>, index) -> T{before}
    %id = "arith.addi"(%i, %d) : (index, index) -> index
    "memref.store"(%v, %y, %id) : (T, memref<?xT>, index) -> (){after}
    "scf.yield"() : () -> ()
  }}) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#
    )
    .replace('T', t)
}

/// `n` values of kind `t` in [-1, 1) drawn from `seed`.
fn vector_of(t: &str, n: usize, seed: u64) -> Buffer {
    match (t, vector(n, seed)) {
        ("f64", Buffer::F32(v)) => Buffer::F64(v.iter().map(|&x| x as f64 / 3.0).collect()),
        (_, f32s) => f32s,
    }
}

/// `func` of `module` on both engines, over `x` and `y` of kind `(tx, ty)`
/// (`aliased`: one buffer, of `tx`) long enough for `lb + trips` elements
/// two either side, with the index arguments after the bounds.
fn diff_windows(
    (ir, module): (&Ir, OpId),
    func: &str,
    (tx, ty): (&str, &str),
    aliased: bool,
    (lb, trips): (i64, i64),
    rest: &[i64],
) {
    let len = (lb + trips + 2) as usize;
    diff(ir, module, func, |memory| {
        let x = host_array(memory, vector_of(tx, len, 7));
        let y = match aliased {
            true => x.clone(),
            false => host_array(memory, vector_of(ty, len, 11)),
        };
        let index = RtValue::Index;
        let bounds = [index(lb), index(lb + trips)];
        [x, y]
            .into_iter()
            .chain(bounds)
            .chain(rest.iter().map(|&r| index(r)))
            .collect()
    });
}

/// Trip counts that run no strip, one, and two with a scalar tail.
const WINDOW_TRIPS: [i64; 4] = [
    MIN_LANES - 1,
    MIN_LANES,
    LANES + 1,
    2 * LANES + MIN_LANES + 3,
];

/// A store of a loaded value, beside a store that rewrites the loaded
/// elements before or after it, over one buffer or two, `f32` and `f64`.
#[test]
fn a_stored_window_holds_what_was_loaded_whatever_the_strip_stores_beside_it() {
    let signature =
        |t: &str| format!("(memref<?x{t}>, memref<?x{t}>, index, index, index, index) -> ()");
    for t in ["f32", "f64"] {
        let kernels: Vec<(String, String)> =
            (0..3).map(|c| (c.to_string(), copy_kernel(t, c))).collect();
        let funcs: Vec<(String, String, &str)> = kernels
            .iter()
            .map(|(c, body)| (format!("copy{c}"), signature(t), body.as_str()))
            .collect();
        let funcs: Vec<(&str, &str, &str)> = funcs
            .iter()
            .map(|(n, s, b)| (n.as_str(), s.as_str(), *b))
            .collect();
        let (ir, m) = module_of(&funcs);
        for (name, ..) in &funcs {
            assert!(listing(&ir, m, name).contains(" strip body=["), "{name}");
            for trips in WINDOW_TRIPS {
                for aliased in [false, true] {
                    for d in -2..=2 {
                        for e in -2..=2 {
                            let case = (t, t);
                            diff_windows((&ir, m), name, case, aliased, (2, trips), &[d, e]);
                        }
                    }
                }
            }
        }
    }
}

/// `y[i+d] = convert(move(x[i+e]))` with `x[i+e]` doubled through the move
/// first and the moved value stored back after: a window through `Move` and
/// through `Convert` between the float kinds.
#[test]
fn a_window_keeps_its_lanes_through_a_move_and_a_conversion() {
    let body = r#"
^bb0(%x: memref<?xS>, %y: memref<?xD>, %lb: index, %ub: index, %d: index, %e: index):
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "scf.for"(%lb, %ub, %c1) ({
  ^bb1(%i: index):
    %ie = "arith.addi"(%i, %e) : (index, index) -> index
    %v = "memref.load"(%x, %ie) : (memref<?xS>, index) -> S
    %m = "fir.declare"(%v) : (S) -> S
    %w = "arith.addf"(%m, %m) : (S, S) -> S
    "memref.store"(%w, %x, %ie) : (S, memref<?xS>, index) -> ()
    %c = "fir.convert"(%m) : (S) -> D
    %id = "arith.addi"(%i, %d) : (index, index) -> index
    "memref.store"(%c, %y, %id) : (D, memref<?xD>, index) -> ()
    "memref.store"(%m, %x, %ie) : (S, memref<?xS>, index) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;
    for (from, to) in [
        ("f32", "f32"),
        ("f32", "f64"),
        ("f64", "f32"),
        ("f64", "f64"),
    ] {
        let body = body.replace('S', from).replace('D', to);
        let signature =
            format!("(memref<?x{from}>, memref<?x{to}>, index, index, index, index) -> ()");
        let (ir, m) = module_of(&[("through", &signature, &body)]);
        assert!(listing(&ir, m, "through").contains(" strip body=["));
        for trips in WINDOW_TRIPS {
            // One buffer only where both sides are of one kind.
            for aliased in [false, from == to] {
                for (d, e) in [(0, 0), (1, 0), (-1, 2), (2, 2)] {
                    let kinds = (from, to);
                    diff_windows((&ir, m), "through", kinds, aliased, (2, trips), &[d, e]);
                }
            }
        }
    }
}

/// `y[i] = x[2i] + x[n-i]; x[2i] = x[n-i]`: loads of stride 2 and -1 still
/// gather, and a store of gathered lanes scatters them. `n` puts the two
/// ranges of `x` across each other or apart.
#[test]
fn strided_and_reversed_loads_gather_beside_windows() {
    let body = r#"
^bb0(%x: memref<?xT>, %y: memref<?xT>, %lb: index, %ub: index, %n: index):
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %c2 = "arith.constant"() {value = 2 : index} : () -> index
  "scf.for"(%lb, %ub, %c1) ({
  ^bb1(%i: index):
    %i2 = "arith.muli"(%i, %c2) : (index, index) -> index
    %a = "memref.load"(%x, %i2) : (memref<?xT>, index) -> T
    %r = "arith.subi"(%n, %i) : (index, index) -> index
    %b = "memref.load"(%x, %r) : (memref<?xT>, index) -> T
    %yi = "memref.load"(%y, %i) : (memref<?xT>, index) -> T
    %s = "arith.addf"(%a, %b) : (T, T) -> T
    %t = "arith.addf"(%s, %yi) : (T, T) -> T
    "memref.store"(%t, %y, %i) : (T, memref<?xT>, index) -> ()
    "memref.store"(%b, %x, %i2) : (T, memref<?xT>, index) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;
    for t in ["f32", "f64"] {
        let body = body.replace('T', t);
        let signature = format!("(memref<?x{t}>, memref<?x{t}>, index, index, index) -> ()");
        let (ir, m) = module_of(&[("strided", &signature, &body)]);
        assert!(listing(&ir, m, "strided").contains(" strip body=["));
        for trips in WINDOW_TRIPS {
            let (lb, ub) = (2, 2 + trips);
            // `x[n-i]` runs across `x[2i]` from `n = ub + lb`, clears it from
            // `n = 3 * ub - 2`, and its first lane is past the end at `len`.
            let len = 3 * ub;
            for n in [ub + lb, 2 * ub, 3 * ub - 2, len - 1, len] {
                diff(&ir, m, "strided", |memory| {
                    let x = host_array(memory, vector_of(t, len as usize, 7));
                    let y = host_array(memory, vector_of(t, len as usize, 11));
                    let index = RtValue::Index;
                    vec![x, y, index(lb), index(ub), index(n)]
                });
            }
        }
    }
}

/// An inclusive loop whose bound is the top of the index range never ends:
/// `iv + step` wraps and the budget stops it. A strip whose last `iv + step`
/// would overflow is not started, so the wrap is the run loop's, as it is the
/// oracle's.
#[test]
fn a_loop_to_the_top_of_the_index_range_wraps_on_both_engines() {
    let body = r#"
^bb0(%lb: index, %ub: index, %a: f32):
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "fir.do_loop"(%lb, %ub, %c1) ({
  ^bb1(%i: index):
    %s = "arith.addf"(%a, %a) : (f32, f32) -> f32
    "fir.result"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;
    let (ir, m) = module_of(&[("top", "(index, index, f32) -> ()", body)]);
    assert!(listing(&ir, m, "top").contains(" strip body=["));
    for (lb, ub, budget, ends) in [
        (i64::MAX - 40, i64::MAX, 3_000, false),
        (i64::MAX - 2 * LANES, i64::MAX, 3_000, false),
        (i64::MAX - 40, i64::MAX - 1, 3_000, true),
        (i64::MIN, i64::MIN + 700, 3_000, true),
        (i64::MIN, i64::MAX, 3_000, false),
    ] {
        let outcome = |engine| {
            let args = [RtValue::Index(lb), RtValue::Index(ub), RtValue::F32(1.0)];
            let memory = Memory::new();
            run(engine, &ir, m, "top", &args, memory, &mut NoHooks, budget)
        };
        let (oracle, bytecode) = (outcome(Engine::Oracle), outcome(Engine::Bytecode));
        assert_same(&oracle, &bytecode, &format!("{lb} through {ub}"));
        assert_eq!(bytecode.result.is_ok(), ends, "{lb} through {ub}");
    }
}

/// The body of [`PAIRS`] in a loop of `%n` trips, its index moved by the
/// induction variable: every pair in a planned body, with the caller
/// choosing the kinds.
const PAIRS_LOOP: &str = r#"
^bb0(%m: memref<?xf32>, %p0: index, %a: f32, %b: f32, %n: index):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "scf.for"(%c0, %n, %c1) ({
  ^bb1(%iv: index):
    %p = "arith.addi"(%p0, %iv) : (index, index) -> index
    %i = "arith.subi"(%p, %c1) : (index, index) -> index
    %v = "memref.load"(%m, %i) : (memref<?xf32>, index) -> f32
    %t = "arith.mulf"(%a, %v) : (f32, f32) -> f32
    %s = "arith.addf"(%t, %b) : (f32, f32) -> f32
    %j = "arith.subi"(%p, %c1) : (index, index) -> index
    "memref.store"(%s, %m, %j) : (f32, memref<?xf32>, index) -> ()
    %k = "arith.index_cast"(%p) : (index) -> i32
    %w = "arith.index_cast"(%k) : (i32) -> index
    %u = "arith.addi"(%p, %c1) : (index, index) -> index
    %x = "arith.index_cast"(%u) : (index) -> i64
    %f = "arith.sitofp"(%w) : (index) -> f64
    %g = "arith.truncf"(%f) : (f64) -> f32
    %h = "arith.addf"(%g, %s) : (f32, f32) -> f32
    "memref.store"(%h, %m, %j) : (f32, memref<?xf32>, index) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
"#;

#[test]
fn ill_kinded_arguments_meet_the_oracles_errors_inside_a_strip() {
    let (ir, m) = module_of(&[(
        "pairs_loop",
        "(memref<?xf32>, index, f32, f32, index) -> ()",
        PAIRS_LOOP,
    )]);
    let text = listing(&ir, m, "pairs_loop");
    for form in [
        " strip body=[1,15)",
        "%9 = int.Sub %8, %6",
        "load1 %0[%9]",
        "%11 = float.Mul %2, %10",
        "float.Add %11, %3",
        "%14 = convert.I32 %8",
        "convert.Index %14",
    ] {
        assert!(text.contains(form), "no `{form}` in\n{text}");
    }
    const LEN: usize = 64;
    let data = || Buffer::F32((0..LEN).map(|i| i as f32 * 0.25 - 3.0).collect());
    use RtValue::{Index, F32, F64, I1, I32, I64};
    // (buffer and shape behind `%m`, or a scalar there; `%p0`; `%a`; `%b`;
    // trips; the error expected, if any)
    type Case = (
        Result<(Buffer, Vec<i64>), RtValue>,
        RtValue,
        RtValue,
        RtValue,
        i64,
        Option<&'static str>,
    );
    let f32s = |shape: &[i64]| Ok((data(), shape.to_vec()));
    let len = LEN as i64;
    let cases: Vec<Case> = vec![
        // Well-kinded, one strip and a tail; the base as each integer kind.
        (f32s(&[len]), Index(1), F32(0.5), F32(-0.0), 40, None),
        (f32s(&[len]), I32(4), F32(f32::NAN), F32(1.0), 40, None),
        (f32s(&[len]), I64(2), F32(f32::INFINITY), F32(1.0), 60, None),
        // An i1 base is `true` in every lane: the strip cannot hold it, the
        // scalar path can.
        (f32s(&[len]), I1(true), F32(1e-40), F32(-1e-45), 40, None),
        // An i32 base that wraps in some lane of the strip.
        (
            f32s(&[len]),
            I32(i32::MAX - 20),
            F32(1.0),
            F32(1.0),
            40,
            Some("out of bounds"),
        ),
        // Bounds: the first lane, a lane in the middle (the iterations before
        // it have stored), the last lane, and a shape the buffer is short of.
        (
            f32s(&[len]),
            Index(0),
            F32(1.0),
            F32(1.0),
            40,
            Some("index -1 out of bounds"),
        ),
        (
            f32s(&[len]),
            Index(45),
            F32(1.0),
            F32(1.0),
            40,
            Some("index 64 out of bounds"),
        ),
        (
            f32s(&[len]),
            Index(26),
            F32(1.0),
            F32(1.0),
            40,
            Some("index 64 out of bounds"),
        ),
        (
            f32s(&[len + 9]),
            Index(30),
            F32(1.0),
            F32(1.0),
            40,
            Some("load offset 64 out of bounds (64)"),
        ),
        // Kinds: the base, the memref, the rank, each float pair, the buffer.
        (
            f32s(&[len]),
            F32(2.0),
            F32(1.0),
            F32(1.0),
            40,
            Some("expected integer, got F32(2.0)"),
        ),
        (
            Err(I64(9)),
            Index(2),
            F32(1.0),
            F32(1.0),
            40,
            Some("expected memref, got I64(9)"),
        ),
        (
            f32s(&[8, 8]),
            Index(2),
            F32(1.0),
            F32(1.0),
            40,
            Some("rank mismatch: 1 indices for rank-2 memref"),
        ),
        (
            f32s(&[len]),
            Index(2),
            F64(1.0),
            F32(1.0),
            40,
            Some("float binop type mismatch"),
        ),
        (
            f32s(&[len]),
            Index(2),
            F32(1.0),
            F64(1.0),
            40,
            Some("float binop type mismatch"),
        ),
        (
            Ok((Buffer::I32((0..len as i32).collect()), vec![len])),
            Index(2),
            F32(1.0),
            F32(1.0),
            40,
            Some("float binop type mismatch"),
        ),
        // An f64 buffer: the loaded element is no f32 for the `mulf`.
        (
            Ok((Buffer::F64(vec![0.5; LEN]), vec![len])),
            Index(2),
            F32(1.0),
            F32(1.0),
            40,
            Some("float binop type mismatch"),
        ),
    ];
    for (i, (m_arg, p, a, b, trips, expect)) in cases.iter().enumerate() {
        let out = diff(&ir, m, "pairs_loop", |mem| {
            let m_arg = match m_arg {
                Ok((buffer, shape)) => memref(mem, buffer.clone(), shape),
                Err(scalar) => scalar.clone(),
            };
            vec![m_arg, p.clone(), a.clone(), b.clone(), Index(*trips)]
        });
        match expect {
            None => assert!(out.result.is_ok(), "case {i}: {:?}", out.result),
            Some(text) => assert!(message(&out).contains(text), "case {i}: {}", message(&out)),
        }
    }
}

// ---- generated straight-line blocks -----------------------------------------------------

/// Generator of scalar blocks over `(%m: memref<?xf32>, %p: index, %q: i64,
/// %x: f32, %y: f32, %t: index)`: integer and float arithmetic with repeated
/// sub-expressions and repeated constants of several kinds, `index → i32 →
/// index` chains, `base ± const` addressing and `mulf` → `addf`.
struct BlockGen {
    text: String,
    /// (name, type) of every integer value in scope, then the float names.
    ints: Vec<(String, &'static str)>,
    floats: Vec<String>,
    /// Right-hand sides that may be emitted again under a new name, with
    /// their result type and the values they read.
    repeatable: Vec<(String, &'static str, Vec<String>)>,
    next: usize,
}

impl BlockGen {
    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("%{prefix}{}", self.next)
    }

    fn int(&mut self, rng: &mut proptest::TestRng) -> (String, &'static str) {
        self.ints[rng.below(self.ints.len())].clone()
    }

    fn float(&mut self, rng: &mut proptest::TestRng) -> String {
        self.floats[rng.below(self.floats.len())].clone()
    }

    fn define_int(&mut self, prefix: &str, ty: &'static str, rhs: String, reads: Vec<String>) {
        let name = self.fresh(prefix);
        self.text.push_str(&format!("  {name} = {rhs}\n"));
        if !reads.is_empty() {
            self.repeatable.push((rhs, ty, reads));
        }
        self.ints.push((name, ty));
    }

    /// `least` to `least + spread - 1` random ops.
    fn ops(&mut self, rng: &mut proptest::TestRng, least: usize, spread: usize) {
        for _ in 0..least + rng.below(spread) {
            match rng.below(10) {
                0 | 1 => {
                    let ty = ["index", "i64", "i32"][rng.below(3)];
                    let value = [0i64, 1, 1, 2, -1][rng.below(5)];
                    let rhs =
                        format!("\"arith.constant\"() {{value = {value} : {ty}}} : () -> {ty}");
                    self.define_int("c", ty, rhs, vec![]);
                }
                2 | 3 => {
                    let ((l, lt), (r, rt)) = (self.int(rng), self.int(rng));
                    let op = ["addi", "subi", "muli", "addi", "subi"][rng.below(5)];
                    let rhs = format!("\"arith.{op}\"({l}, {r}) : ({lt}, {rt}) -> {lt}");
                    self.define_int("i", lt, rhs, vec![l, r]);
                }
                4 => {
                    let (src, st) = self.int(rng);
                    let to = ["i32", "index", "i64", "index"][rng.below(4)];
                    let rhs = format!("\"arith.index_cast\"({src}) : ({st}) -> {to}");
                    self.define_int("k", to, rhs, vec![src]);
                }
                5 | 6 => {
                    // Mostly `base ± const` off a value near the buffer's ends.
                    let (idx, it) = if rng.below(3) > 0 {
                        let (base, bt) = self.ints[rng.below(2)].clone();
                        let c = self.fresh("c");
                        self.text.push_str(&format!(
                            "  {c} = \"arith.constant\"() {{value = 1 : index}} : () -> index\n"
                        ));
                        let op = ["subi", "addi"][rng.below(2)];
                        let rhs = format!("\"arith.{op}\"({base}, {c}) : ({bt}, index) -> {bt}");
                        self.define_int("a", bt, rhs, vec![]);
                        self.ints.last().expect("just pushed").clone()
                    } else {
                        self.int(rng)
                    };
                    if rng.below(2) == 0 {
                        let name = self.fresh("l");
                        self.text.push_str(&format!(
                            "  {name} = \"memref.load\"(%m, {idx}) : (memref<?xf32>, {it}) -> f32\n"
                        ));
                        self.floats.push(name);
                    } else {
                        let v = self.float(rng);
                        self.text.push_str(&format!(
                            "  \"memref.store\"({v}, %m, {idx}) : (f32, memref<?xf32>, {it}) -> ()\n"
                        ));
                    }
                }
                7 | 8 => {
                    let (l, r) = (self.float(rng), self.float(rng));
                    let op = ["mulf", "addf", "subf", "mulf", "addf"][rng.below(5)];
                    let name = self.fresh("f");
                    self.text.push_str(&format!(
                        "  {name} = \"arith.{op}\"({l}, {r}) : (f32, f32) -> f32\n"
                    ));
                    self.floats.push(name);
                }
                _ => {
                    if !self.repeatable.is_empty() {
                        let (rhs, ty, _) =
                            self.repeatable[rng.below(self.repeatable.len())].clone();
                        self.define_int("r", ty, rhs, vec![]);
                    }
                }
            }
        }
    }
}

/// A prelude, a `scf.for` of `%t` trips whose body also reads the prelude's
/// values, and a tail that may repeat what the body computed from them (in
/// scope there, not here), returning an integer of each part, the loop's
/// result and a float. The loop carries one of the prelude's integers and
/// yields one of the body's — often a repeat or a repeated constant, whose
/// slot is only known once the body is lowered.
fn generated_block(rng: &mut proptest::TestRng) -> (String, String) {
    let mut g = BlockGen {
        text: "^bb0(%m: memref<?xf32>, %p: index, %q: i64, %x: f32, %y: f32, %t: index):\n".into(),
        ints: vec![("%p".into(), "index"), ("%q".into(), "i64")],
        floats: vec!["%x".into(), "%y".into()],
        repeatable: Vec::new(),
        next: 0,
    };
    g.text.push_str(
        "  %lo = \"arith.constant\"() {value = 0 : index} : () -> index\n  \
         %st = \"arith.constant\"() {value = 1 : index} : () -> index\n",
    );
    g.ops(rng, 2, 12);
    let (outer_ints, outer_floats) = (g.ints.len(), g.floats.len());
    let (init, ct) = g.int(rng);
    g.text.push_str(&format!(
        "  %res = \"scf.for\"(%lo, %t, %st, {init}) ({{\n  ^bb1(%iv: index, %carry: {ct}):\n"
    ));
    g.ints.push(("%iv".into(), "index"));
    g.ints.push(("%carry".into(), ct));
    g.ops(rng, 2, 12);
    // The latest of the body's values of the carried type, else the carry.
    let yielded = match g.ints[outer_ints + 2..]
        .iter()
        .rev()
        .find(|(_, ty)| *ty == ct)
    {
        Some((name, _)) if rng.below(4) > 0 => name.clone(),
        _ => "%carry".to_string(),
    };
    g.text.push_str(&format!(
        "  \"scf.yield\"({yielded}) : ({ct}) -> ()\n  }}) : (index, index, index, {ct}) -> {ct}\n"
    ));
    // The body's values leave scope; what it computed from outer values
    // alone may be written again after the loop.
    let inner: Vec<String> = g.ints.drain(outer_ints..).map(|(name, _)| name).collect();
    let inner_floats: Vec<String> = g.floats.drain(outer_floats..).collect();
    g.repeatable.retain(|(_, _, reads)| {
        reads
            .iter()
            .all(|r| !inner.contains(r) && !inner_floats.contains(r))
    });
    g.ints.push(("%res".into(), ct));
    g.ops(rng, 1, 8);
    let (a, at) = g.ints[g.ints.len() - 1].clone();
    let (b, bt) = g.ints[g.ints.len() / 2].clone();
    let f = g.floats[g.floats.len() - 1].clone();
    g.text.push_str(&format!(
        "  \"func.return\"({a}, {b}, %res, {f}) : ({at}, {bt}, {ct}, f32) -> ()\n"
    ));
    let signature =
        format!("(memref<?xf32>, index, i64, f32, f32, index) -> ({at}, {bt}, {ct}, f32)");
    (signature, g.text)
}

proptest! {
    #[test]
    fn generated_scalar_blocks_agree(seed in 0u64..u64::MAX) {
        let mut rng = proptest::TestRng::new(seed);
        let (signature, body) = generated_block(&mut rng);
        let (ir, m) = module_of(&[("block", &signature, &body)]);
        const N: i64 = 6;
        let specials = [
            0.0f32, -0.0, 1.5, -2.25, f32::NAN, f32::INFINITY, f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 4.0, -1e-45, 3.0e38,
        ];
        // Indices around both ends of the buffer, and the 32-bit boundary.
        let indices = [-1, 0, 1, N - 1, N, N + 1, (1 << 31) - 1, 1 << 31, 1 << 33];
        for _ in 0..6 {
            // Half the draws keep `± 1` inside the buffer, so blocks also finish.
            let index = |rng: &mut proptest::TestRng| match rng.below(2) {
                0 => 1 + rng.below(N as usize - 2) as i64,
                _ => indices[rng.below(indices.len())],
            };
            let (p, q) = (index(&mut rng), index(&mut rng));
            let (x, y) = (specials[rng.below(specials.len())], specials[rng.below(specials.len())]);
            // The declared kinds, or whichever the caller felt like sending.
            let (p, q) = match rng.below(4) {
                0 => (RtValue::I32(p as i32), RtValue::Index(q)),
                1 => (RtValue::I64(p), RtValue::I32(q as i32)),
                _ => (RtValue::Index(p), RtValue::I64(q)),
            };
            // A shape that tells the truth, or claims more than the buffer has.
            let extent = if rng.below(4) == 0 { N + 3 } else { N };
            let trips = [0, 1, 3][rng.below(3)];
            let data: Vec<f32> = (0..N).map(|i| specials[(i as usize + rng.below(3)) % specials.len()]).collect();
            diff(&ir, m, "block", |memory| {
                vec![
                    memref(memory, Buffer::F32(data.clone()), &[extent]),
                    p.clone(),
                    q.clone(),
                    RtValue::F32(x),
                    RtValue::F32(y),
                    RtValue::Index(trips),
                ]
            });
        }
    }
}

/// A prelude and a `scf.for` of `%t` trips that carries nothing, its body
/// generated the same way with the induction variable as the usual base of
/// `base ± const` addressing: loads and stores of one buffer a step or two
/// apart, so lanes of a strip do and do not meet each other's stores.
fn generated_loop(rng: &mut proptest::TestRng) -> (String, String) {
    let mut g = BlockGen {
        text: "^bb0(%m: memref<?xf32>, %p: index, %q: i64, %x: f32, %y: f32, %t: index):\n".into(),
        ints: vec![("%p".into(), "index"), ("%q".into(), "i64")],
        floats: vec!["%x".into(), "%y".into()],
        repeatable: Vec::new(),
        next: 0,
    };
    g.text.push_str(
        "  %lo = \"arith.constant\"() {value = 0 : index} : () -> index\n  \
         %st = \"arith.constant\"() {value = 1 : index} : () -> index\n",
    );
    g.ops(rng, 1, 6);
    let (a, at) = g.ints[g.ints.len() - 1].clone();
    let f = g.floats[g.floats.len() - 1].clone();
    g.text
        .push_str("  \"scf.for\"(%lo, %t, %st) ({\n  ^bb1(%iv: index):\n");
    // In front: addressing picks its base among the first two integers.
    g.ints.insert(0, ("%iv".into(), "index"));
    g.ops(rng, 3, 12);
    g.text.push_str(&format!(
        "  \"scf.yield\"() : () -> ()\n  }}) : (index, index, index) -> ()\n  \
         \"func.return\"({a}, {f}) : ({at}, f32) -> ()\n"
    ));
    let signature = format!("(memref<?xf32>, index, i64, f32, f32, index) -> ({at}, f32)");
    (signature, g.text)
}

/// Six draws of arguments for loop function `looped` of `signature` and
/// `body`, each run on both engines.
fn diff_generated_loop(rng: &mut proptest::TestRng, signature: &str, body: &str) {
    let (ir, m) = module_of(&[("looped", signature, body)]);
    const N: i64 = 96;
    let specials = [
        0.0f32,
        -0.0,
        1.5,
        -2.25,
        f32::NAN,
        f32::INFINITY,
        3.0e38,
        -1e-45,
    ];
    for _ in 0..6 {
        // Mostly trip counts a strip takes, inside the buffer and past it.
        let trips = [0, 3, 15, 16, 17, 40, 90, 94, 97, 600][rng.below(10)];
        let p = [0, 1, 2, 5, -1, 1 << 31][rng.below(6)];
        let q = [0, 1, 3, -2, 1 << 33][rng.below(5)];
        let (p, q) = match rng.below(4) {
            0 => (RtValue::I32(p as i32), RtValue::Index(q)),
            1 => (RtValue::I64(p), RtValue::I32(q as i32)),
            _ => (RtValue::Index(p), RtValue::I64(q)),
        };
        let (x, y) = (
            specials[rng.below(specials.len())],
            specials[rng.below(specials.len())],
        );
        let extent = if rng.below(6) == 0 { N + 3 } else { N };
        let data: Vec<f32> = (0..N)
            .map(|i| match rng.below(8) {
                0 => specials[i as usize % specials.len()],
                _ => i as f32 * 0.5 - 7.0,
            })
            .collect();
        diff(&ir, m, "looped", |memory| {
            vec![
                memref(memory, Buffer::F32(data.clone()), &[extent]),
                p.clone(),
                q.clone(),
                RtValue::F32(x),
                RtValue::F32(y),
                RtValue::Index(trips),
            ]
        });
    }
}

/// A generated loop with its body unrolled `copies` times and its step
/// `copies`, the shape strips run as one copy when the copies allow it:
/// with `rerolled`, the first of up to 2 000 draws whose copies do.
fn generated_unrolled_loop(
    rng: &mut proptest::TestRng,
    copies: usize,
    rerolled: bool,
) -> (String, String) {
    let step = "%st = \"arith.constant\"() {value = 1 : index}";
    let mark = format!(" strip copies={copies} body=[");
    for _ in 0..2_000 {
        let (signature, body) = generated_loop(rng);
        let body = unrolled(&body, copies, 1).replace(
            step,
            &step.replace("value = 1 ", &format!("value = {copies} ")),
        );
        let (ir, m) = module_of(&[("looped", &signature, &body)]);
        if !rerolled || listing(&ir, m, "looped").contains(&mark) {
            return (signature, body);
        }
    }
    panic!("no generated body of {copies} copies strips as one copy")
}

proptest! {
    #[test]
    fn generated_loops_with_loads_and_stores_agree(seed in 0u64..u64::MAX) {
        let mut rng = proptest::TestRng::new(seed);
        let (signature, body) = generated_loop(&mut rng);
        diff_generated_loop(&mut rng, &signature, &body);
    }

    #[test]
    fn generated_unrolled_loops_agree(seed in 0u64..u64::MAX) {
        let mut rng = proptest::TestRng::new(seed);
        let (copies, rerolled) = (2 + rng.below(3), rng.below(4) > 0);
        let (signature, body) = generated_unrolled_loop(&mut rng, copies, rerolled);
        diff_generated_loop(&mut rng, &signature, &body);
    }
}

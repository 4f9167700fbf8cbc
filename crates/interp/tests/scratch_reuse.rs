//! A `Program` keeps the scratch of finished calls — frames, hook-argument
//! vectors, strip state — and hands it to the next call. Reusing it must
//! change no answer. The differential suite's programs, lowered into one
//! module, run through one shared `Program` in a seeded, shuffled
//! interleaving: calls that finish, that abandon strips, that exhaust the
//! step budget and that fail with an error. Each call's results, memory,
//! loop trips, error message and step count must equal those of the same
//! call on a `Program` lowered for it alone.

use ftn_interp::{
    Buffer, BufferId, DialectHooks, InterpError, MemRefVal, Memory, Observer, Program, RtValue,
    DEFAULT_MAX_STEPS,
};
use ftn_mlir::{parse_module, Ir, OpId};
use proptest::TestRng;

/// The differential suite; its programs are read out of its source.
const DIFFERENTIAL: &str = include_str!("differential.rs");

/// The text of `const NAME: &str = r#"..."#;` in the differential suite.
fn program(name: &str) -> &'static str {
    let open = format!("const {name}: &str = r#\"");
    let start = DIFFERENTIAL
        .find(&open)
        .unwrap_or_else(|| panic!("no program {name} in the differential suite"))
        + open.len();
    let len = DIFFERENTIAL[start..].find("\"#;").expect("program ends");
    &DIFFERENTIAL[start..start + len]
}

/// A loop that offers its induction variable and accumulator to the hooks
/// (`test.tally`) and to itself through `func.call` on every trip, so the
/// hook-argument vector is refilled at two call depths.
const TALLY: &str = r#"
^bb0(%n: index, %depth: i64):
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %one = "arith.constant"() {value = 1 : i64} : () -> i64
  %deeper = "arith.cmpi"(%depth, %one) {predicate = "slt"} : (i64, i64) -> i1
  %t = "scf.for"(%c0, %n, %c1, %c0) ({
  ^bb1(%i: index, %acc: index):
    %k = "test.tally"(%i, %acc) : (index, index) -> index
    %r = "scf.if"(%deeper) ({
      %d = "arith.addi"(%depth, %one) : (i64, i64) -> i64
      %sub = "func.call"(%i, %d) {callee = @tally} : (index, i64) -> index
      "scf.yield"(%sub) : (index) -> ()
    }, {
      "scf.yield"(%k) : (index) -> ()
    }) : (i1) -> index
    %next = "arith.addi"(%k, %r) : (index, index) -> index
    "scf.yield"(%next) : (index) -> ()
  }) : (index, index, index, index) -> index
  "func.return"(%t) : (index) -> ()
"#;

/// `test.tally(a, b, ...)`: the sum of its integer operands plus 1000 per
/// operand. Every other op is declined.
struct Tally;

impl DialectHooks for Tally {
    fn handle_op(
        &mut self,
        ir: &Ir,
        _memory: &mut Memory,
        op: OpId,
        args: &[RtValue],
    ) -> Result<Option<Vec<RtValue>>, InterpError> {
        if ir.op_name(op) != "test.tally" {
            return Ok(None);
        }
        let mut sum = 1000 * args.len() as i64;
        for a in args {
            sum = sum.wrapping_add(a.as_int()?);
        }
        Ok(Some(vec![RtValue::Index(sum)]))
    }
}

/// Every function of the test module: name, type and body.
fn functions() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("fib", "(index) -> (i64, i64)", program("FIB")),
        ("swap", "(index, f32, f32) -> (f32, f32)", program("SWAP")),
        ("nest", "(index, memref<?xi64>) -> (i64)", program("NEST")),
        (
            "pick",
            "(i32, f64, f64) -> (f64, i32, f64)",
            program("BRANCHES"),
        ),
        ("fact", "(i64) -> (i64)", program("FACT")),
        ("lost", "(i64) -> (i64)", program("CALLS_MISSING")),
        (
            "mystery",
            "(i1, memref<?xi32>) -> ()",
            program("UNKNOWN_IN_BRANCH"),
        ),
        (
            "access",
            "(memref<?xf32>, index, i1) -> ()",
            program("ACCESS"),
        ),
        (
            "access2",
            "(memref<?x?xf32>, index, index) -> (f32)",
            program("ACCESS2"),
        ),
        (
            "div",
            "(i64, i64, i32, i32) -> (i64, i64, i32)",
            program("DIVIDE"),
        ),
        ("rem", "(i64, i64) -> (i64)", program("REMAINDER")),
        ("counted", "(index, i1) -> ()", program("COUNTED")),
        ("shrunk", "(index, memref<?xf32>) -> ()", program("SHRUNK")),
        (
            "store_then_work",
            "(index, memref<?xf32>) -> ()",
            program("STORE_THEN_WORK"),
        ),
        (
            "search",
            "(index, index) -> (index, index)",
            program("SEARCH"),
        ),
        (
            "stencil",
            "(memref<?xf32>, memref<?xf32>, index, index, index, index, index) -> ()",
            program("STENCIL"),
        ),
        ("tally", "(index, i64) -> (index)", TALLY),
    ]
}

/// One module of `(name, function type, body)` functions, each body's value
/// names and block labels prefixed with its function's name.
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
    let mut ir = Ir::new();
    let module = parse_module(&mut ir, &text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    (ir, module)
}

// ---- calls --------------------------------------------------------------------------

/// An argument of a call; arrays are allocated afresh for every run.
#[derive(Clone, Debug)]
enum Arg {
    Value(RtValue),
    Array(Buffer, Vec<i64>),
    /// The same buffer as argument `i`.
    Alias(usize),
}

#[derive(Clone, Debug)]
struct Call {
    func: &'static str,
    args: Vec<Arg>,
    budget: u64,
}

impl Call {
    fn materialize(&self) -> (Memory, Vec<RtValue>) {
        let mut memory = Memory::new();
        let mut values: Vec<RtValue> = Vec::new();
        for a in &self.args {
            values.push(match a {
                Arg::Value(v) => v.clone(),
                Arg::Array(buffer, shape) => RtValue::MemRef(MemRefVal {
                    buffer: memory.alloc(buffer.clone(), 0),
                    shape: shape.clone(),
                    space: 0,
                }),
                Arg::Alias(i) => values[*i].clone(),
            });
        }
        (memory, values)
    }
}

#[derive(Default)]
struct Trips(Vec<(OpId, u64)>);

impl Observer for Trips {
    fn loop_executed(&mut self, _ir: &Ir, op: OpId, trip: u64) {
        self.0.push((op, trip));
    }
}

/// Everything observable about one run, floats as bit patterns.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Vec<String>, String>,
    trips: Vec<(OpId, u64)>,
    memory: Vec<Option<(&'static str, Vec<u64>)>>,
}

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

fn run(program: &Program, ir: &Ir, call: &Call, budget: u64) -> Outcome {
    let (mut memory, args) = call.materialize();
    let mut trips = Trips::default();
    let result = program.call(
        ir,
        call.func,
        &args,
        &mut memory,
        &mut Tally,
        &mut trips,
        budget,
    );
    Outcome {
        result: result
            .map(|values| values.iter().map(value_bits).collect())
            .map_err(|e| e.message),
        trips: trips.0,
        memory: (0..memory.len() as u32)
            .map(BufferId)
            .map(|id| memory.is_live(id).then(|| buffer_bits(memory.get(id))))
            .collect(),
    }
}

/// The fewest steps `call` finishes within, found by bisection; every
/// probe below it exhausts the budget.
fn steps(program: &Program, ir: &Ir, call: &Call) -> u64 {
    let (mut lo, mut hi) = (0u64, call.budget);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match run(program, ir, call, mid).result {
            Ok(_) => hi = mid,
            Err(message) => {
                assert_eq!(message, "interpreter step budget exhausted");
                lo = mid + 1;
            }
        }
    }
    lo
}

// ---- drawing calls ------------------------------------------------------------------

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn pick<T: Clone>(rng: &mut TestRng, from: &[T]) -> T {
    from[below(rng, from.len() as u64) as usize].clone()
}

fn floats(rng: &mut TestRng, len: usize) -> Buffer {
    Buffer::F32(
        (0..len)
            .map(|_| (below(rng, 2001) as f32 - 1000.0) / 64.0)
            .collect(),
    )
}

/// A budget that is the default, or small enough to run out part-way.
fn budget(rng: &mut TestRng, small: &[u64]) -> u64 {
    match below(rng, 2) {
        0 => pick(rng, small),
        _ => DEFAULT_MAX_STEPS,
    }
}

fn draw(rng: &mut TestRng) -> Call {
    use Arg::{Alias, Array, Value};
    let index = |v: i64| Value(RtValue::Index(v));
    let (func, args, budget) = match below(rng, 17) {
        0 => ("fib", vec![index(below(rng, 91) as i64)], DEFAULT_MAX_STEPS),
        1 => (
            "swap",
            vec![
                index(below(rng, 9) as i64),
                Value(RtValue::F32(1.5)),
                Value(RtValue::F32(-0.0)),
            ],
            DEFAULT_MAX_STEPS,
        ),
        2 => {
            let n = below(rng, 6) as i64;
            let out = Array(Buffer::I64(vec![0; 8]), vec![8]);
            ("nest", vec![index(n), out], budget(rng, &[3, 20, 60]))
        }
        3 => (
            "pick",
            vec![
                Value(RtValue::I32(below(rng, 5) as i32 - 2)),
                Value(RtValue::F64(2.5)),
                Value(RtValue::F64(-1.0)),
            ],
            DEFAULT_MAX_STEPS,
        ),
        4 => match below(rng, 5) {
            // An arity mismatch.
            0 => ("fact", vec![], DEFAULT_MAX_STEPS),
            _ => (
                "fact",
                vec![Value(RtValue::I64(below(rng, 26) as i64))],
                budget(rng, &[5, 40, 90]),
            ),
        },
        5 => match below(rng, 2) {
            0 => ("lost", vec![Value(RtValue::I64(1))], DEFAULT_MAX_STEPS),
            _ => ("absent", vec![], DEFAULT_MAX_STEPS),
        },
        6 => (
            "mystery",
            vec![
                Value(RtValue::I1(below(rng, 2) == 1)),
                Array(Buffer::I32(vec![0]), vec![1]),
            ],
            DEFAULT_MAX_STEPS,
        ),
        7 => {
            let shape = pick(rng, &[vec![4i64], vec![8], vec![2, 2], vec![]]);
            (
                "access",
                vec![
                    Array(Buffer::F32(vec![0.0; 4]), shape),
                    index(below(rng, 7) as i64 - 1),
                    Value(RtValue::I1(below(rng, 2) == 1)),
                ],
                DEFAULT_MAX_STEPS,
            )
        }
        8 => {
            let shape = pick(rng, &[vec![2i64, 3], vec![6]]);
            let data = Buffer::F32((0..6).map(|v| v as f32).collect());
            (
                "access2",
                vec![
                    Array(data, shape),
                    index(below(rng, 3) as i64),
                    index(below(rng, 3) as i64),
                ],
                DEFAULT_MAX_STEPS,
            )
        }
        9 => {
            let (l, r) = pick(rng, &[(-7i64, 2i64), (i64::MIN, -1), (1, 0), (9, 4)]);
            (
                "div",
                vec![
                    Value(RtValue::I64(l)),
                    Value(RtValue::I64(r)),
                    Value(RtValue::I32(l as i32)),
                    Value(RtValue::I32(if r == 0 { 1 } else { r as i32 })),
                ],
                DEFAULT_MAX_STEPS,
            )
        }
        10 => (
            "rem",
            vec![
                Value(RtValue::I64(below(rng, 9) as i64)),
                Value(RtValue::I64(below(rng, 3) as i64)),
            ],
            DEFAULT_MAX_STEPS,
        ),
        11 => (
            "counted",
            vec![
                index(below(rng, 41) as i64),
                Value(RtValue::I1(below(rng, 2) == 1)),
            ],
            budget(rng, &[1, 20, 100]),
        ),
        12 => {
            let n = below(rng, 8) as i64;
            let m = Array(Buffer::F32(vec![0.5; 8]), vec![8]);
            ("shrunk", vec![index(n), m], budget(rng, &[4, 30, 60]))
        }
        13 => {
            let n = pick(rng, &[3i64, 40, 700]);
            let m = Array(Buffer::F32(vec![0.0; n as usize]), vec![n]);
            let small = [5 + 4 * below(rng, n as u64) + below(rng, 4)];
            ("store_then_work", vec![index(n), m], budget(rng, &small))
        }
        14 => (
            "search",
            vec![index(below(rng, 6) as i64), index(below(rng, 12) as i64)],
            DEFAULT_MAX_STEPS,
        ),
        15 => {
            // Trip counts around the strip minimum and width; distances that
            // make lanes collide abandon strips part-way.
            const LB: i64 = 4;
            let trips = pick(
                rng,
                &[0i64, 1, 9, 15, 16, 17, 129, 396, 1023, 1024, 1025, 1042],
            );
            let step = 1 + below(rng, 3) as i64;
            let d = below(rng, 6) as i64 - 3;
            let e = below(rng, 6) as i64 - 2;
            let furthest = LB + (trips - 1).max(0) * step + e.max(d + step).max(0);
            let short = below(rng, 4) == 0;
            let len = if short { furthest } else { furthest + 4 } as usize;
            let x = Array(floats(rng, len), vec![len as i64]);
            let y = match below(rng, 2) {
                0 => Alias(0),
                _ => Array(floats(rng, len), vec![len as i64]),
            };
            let args = vec![
                x,
                y,
                index(LB),
                index(LB + trips * step),
                index(step),
                index(d),
                index(e),
            ];
            ("stencil", args, budget(rng, &[2_000, 5_003]))
        }
        _ => (
            "tally",
            vec![index(below(rng, 6) as i64), Value(RtValue::I64(0))],
            budget(rng, &[10, 50]),
        ),
    };
    Call { func, args, budget }
}

// ---- the test -----------------------------------------------------------------------

/// Calls drawn per seed; the order is the draw order, a shuffle of the
/// programs and of the outcomes.
const CALLS: usize = if cfg!(debug_assertions) { 300 } else { 1000 };

#[test]
fn a_shared_program_answers_every_call_as_a_fresh_one_does() {
    let (ir, module) = module_of(&functions());
    for seed in [1u64, 2, 3] {
        let mut rng = TestRng::new(0x5c4a_7c40 ^ seed);
        let shared = Program::lower_module(&ir, module);
        let (mut finished, mut failed, mut exhausted) = (0, 0, 0);
        for k in 0..CALLS {
            let call = draw(&mut rng);
            let what = format!("seed {seed} call {k}: {call:?}");
            let fresh = Program::lower_module(&ir, module);
            let expect = run(&fresh, &ir, &call, call.budget);
            let got = run(&shared, &ir, &call, call.budget);
            assert_eq!(got, expect, "{what}");
            match &got.result {
                Ok(_) => {
                    finished += 1;
                    // Every fourth finished call also has its step count
                    // bisected, so a stream of exhausting probes runs on the
                    // shared program between the others.
                    if finished % 4 == 0 {
                        let fresh_steps = steps(&fresh, &ir, &call);
                        assert_eq!(steps(&shared, &ir, &call), fresh_steps, "{what}");
                    }
                }
                Err(m) if m == "interpreter step budget exhausted" => exhausted += 1,
                Err(_) => failed += 1,
            }
        }
        // Every kind of outcome is well represented, so no side is vacuous.
        let least = CALLS / 20;
        assert!(
            finished > least && failed > least && exhausted > least,
            "seed {seed}: {finished} finished, {failed} failed, {exhausted} exhausted"
        );
    }
}

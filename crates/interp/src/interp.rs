//! The interpreter's public face: the hook/observer traits and the
//! source-compatible [`Interp`] / [`call_function`] entry points, which lower
//! on demand and run on the bytecode engine. See the crate docs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ftn_mlir::{Ir, OpId};

use crate::error::InterpError;
use crate::memory::Memory;
use crate::program::Program;
use crate::value::RtValue;

/// Default step budget guarding against runaway loops.
pub const DEFAULT_MAX_STEPS: u64 = 4_000_000_000;

/// Extension point for ops the interpreter does not implement (`device.*`,
/// extern `func.call`s, overridden `memref.dma_start`, ...). Return
/// `Ok(Some(results))` to handle the op, `Ok(None)` to fall through.
pub trait DialectHooks {
    fn handle_op(
        &mut self,
        ir: &Ir,
        memory: &mut Memory,
        op: OpId,
        args: &[RtValue],
    ) -> Result<Option<Vec<RtValue>>, InterpError>;
}

/// No-op hooks.
pub struct NoHooks;

impl DialectHooks for NoHooks {
    fn handle_op(
        &mut self,
        _ir: &Ir,
        _memory: &mut Memory,
        _op: OpId,
        _args: &[RtValue],
    ) -> Result<Option<Vec<RtValue>>, InterpError> {
        Ok(None)
    }
}

/// Passive execution observer: called once per completed loop instance,
/// inner loops before the loop that contains them (the trip counts feed the
/// FPGA cycle model).
pub trait Observer {
    fn loop_executed(&mut self, _ir: &Ir, _op: OpId, _trip: u64) {}
}

/// No-op observer.
pub struct NoObserver;

impl Observer for NoObserver {}

/// Interpreter over a module. The first [`Interp::call`] of a function
/// lowers it and its callees and keeps the program, so repeated calls on one
/// `Interp` lower once; holders of a long-lived module lower everything up
/// front with [`Program::lower_module`] instead. The borrow keeps the module
/// from changing under the kept programs, and pointing `ir` or `module`
/// somewhere else drops them.
pub struct Interp<'a> {
    pub ir: &'a Ir,
    pub module: OpId,
    /// Step budget guarding against runaway loops (default: 4e9).
    pub max_steps: u64,
    lowered: Mutex<Lowered>,
}

/// Programs lowered so far, by root function name, and the module they were
/// lowered from (`ir` is an address: two `Ir`s alive at once differ in it).
#[derive(Default)]
struct Lowered {
    ir: usize,
    module: Option<OpId>,
    programs: HashMap<String, Arc<Program>>,
}

/// Convenience wrapper: call `func_name` in `module` with `args`. Builds a
/// fresh [`Interp`], so it lowers `func_name` and its callees on every call;
/// callers that repeat a call keep an `Interp` or a [`Program`].
pub fn call_function(
    ir: &Ir,
    module: OpId,
    func_name: &str,
    args: &[RtValue],
    memory: &mut Memory,
    hooks: &mut dyn DialectHooks,
    observer: &mut dyn Observer,
) -> Result<Vec<RtValue>, InterpError> {
    let interp = Interp::new(ir, module);
    interp.call(func_name, args, memory, hooks, observer)
}

impl<'a> Interp<'a> {
    pub fn new(ir: &'a Ir, module: OpId) -> Self {
        Interp {
            ir,
            module,
            max_steps: DEFAULT_MAX_STEPS,
            lowered: Mutex::default(),
        }
    }

    pub fn call(
        &self,
        func_name: &str,
        args: &[RtValue],
        memory: &mut Memory,
        hooks: &mut dyn DialectHooks,
        observer: &mut dyn Observer,
    ) -> Result<Vec<RtValue>, InterpError> {
        let program = {
            // Only whole entries are ever inserted, so the map is valid even
            // if a thread panicked while holding the lock.
            let mut lowered = self.lowered.lock().unwrap_or_else(|e| e.into_inner());
            let from = (self.ir as *const Ir as usize, Some(self.module));
            if (lowered.ir, lowered.module) != from {
                lowered.programs.clear();
                (lowered.ir, lowered.module) = from;
            }
            match lowered.programs.get(func_name) {
                Some(program) => program.clone(),
                None => {
                    let program = Program::lower_reachable(self.ir, self.module, func_name);
                    let program = Arc::new(program);
                    lowered
                        .programs
                        .insert(func_name.to_string(), program.clone());
                    program
                }
            }
        };
        program.call(
            self.ir,
            func_name,
            args,
            memory,
            hooks,
            observer,
            self.max_steps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Buffer;
    use crate::value::MemRefVal;
    use ftn_dialects::{arith, builtin, func, memref, omp, scf};
    use ftn_mlir::Builder;

    /// Builds: func @axpy(%a: f32, %x: memref<?xf32>, %y: memref<?xf32>, %n: index)
    /// performing y[i] += a * x[i] with an scf.for.
    fn build_axpy(ir: &mut Ir) -> OpId {
        let (module, body) = builtin::module(ir);
        let f32t = ir.f32t();
        let index = ir.index_t();
        let dynm = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 0);
        let mut b = Builder::at_end(ir, body);
        let (_f, entry) = func::build_func(&mut b, "axpy", &[f32t, dynm, dynm, index], &[]);
        let args = b.ir.block(entry).args.clone();
        b.set_insertion_point_to_end(entry);
        let zero = arith::const_index(&mut b, 0);
        let one = arith::const_index(&mut b, 1);
        scf::build_for(&mut b, zero, args[3], one, &[], |inner, iv, _| {
            let xv = memref::load(inner, args[1], &[iv]);
            let yv = memref::load(inner, args[2], &[iv]);
            let ax = arith::mulf(inner, args[0], xv);
            let sum = arith::addf(inner, yv, ax);
            memref::store(inner, sum, args[2], &[iv]);
            vec![]
        });
        func::build_return(&mut b, &[]);
        module
    }

    #[test]
    fn axpy_executes_correctly() {
        let mut ir = Ir::new();
        let module = build_axpy(&mut ir);
        let mut memory = Memory::new();
        let x = memory.alloc(Buffer::F32(vec![1.0, 2.0, 3.0, 4.0]), 0);
        let y = memory.alloc(Buffer::F32(vec![10.0, 20.0, 30.0, 40.0]), 0);
        let args = vec![
            RtValue::F32(2.0),
            RtValue::MemRef(MemRefVal {
                buffer: x,
                shape: vec![4],
                space: 0,
            }),
            RtValue::MemRef(MemRefVal {
                buffer: y,
                shape: vec![4],
                space: 0,
            }),
            RtValue::Index(4),
        ];
        call_function(
            &ir,
            module,
            "axpy",
            &args,
            &mut memory,
            &mut NoHooks,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(memory.get(y), &Buffer::F32(vec![12.0, 24.0, 36.0, 48.0]));
    }

    #[test]
    fn observer_sees_trip_count() {
        struct Trips(Vec<u64>);
        impl Observer for Trips {
            fn loop_executed(&mut self, _ir: &Ir, _op: OpId, trip: u64) {
                self.0.push(trip);
            }
        }
        let mut ir = Ir::new();
        let module = build_axpy(&mut ir);
        let mut memory = Memory::new();
        let x = memory.alloc(Buffer::F32(vec![0.0; 7]), 0);
        let y = memory.alloc(Buffer::F32(vec![0.0; 7]), 0);
        let args = vec![
            RtValue::F32(1.0),
            RtValue::MemRef(MemRefVal {
                buffer: x,
                shape: vec![7],
                space: 0,
            }),
            RtValue::MemRef(MemRefVal {
                buffer: y,
                shape: vec![7],
                space: 0,
            }),
            RtValue::Index(7),
        ];
        let mut obs = Trips(vec![]);
        call_function(
            &ir,
            module,
            "axpy",
            &args,
            &mut memory,
            &mut NoHooks,
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.0, vec![7]);
    }

    #[test]
    fn wsloop_inclusive_bounds_and_reduction() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        let f64t = ir.f64t();
        {
            let mut b = Builder::at_end(&mut ir, body);
            let (_f, entry) = func::build_func(&mut b, "sum1toN", &[], &[f64t]);
            b.set_insertion_point_to_end(entry);
            let one = arith::const_index(&mut b, 1);
            let ten = arith::const_index(&mut b, 10);
            let init = arith::const_f64(&mut b, 0.0);
            let cfg = omp::WsLoopConfig {
                parallel: true,
                reduction: Some(omp::ReductionKind::Add),
                ..Default::default()
            };
            let ws =
                omp::build_wsloop(&mut b, one, ten, one, &cfg, Some(init), |inner, iv, acc| {
                    let f = b_iv_to_f64(inner, iv);
                    vec![arith::addf(inner, acc[0], f)]
                });
            let result = b.ir.op(ws).results[0];
            func::build_return(&mut b, &[result]);
        }
        fn b_iv_to_f64(b: &mut Builder, iv: ftn_mlir::ValueId) -> ftn_mlir::ValueId {
            let f64t = b.ir.f64t();
            arith::sitofp(b, iv, f64t)
        }
        let mut memory = Memory::new();
        let out = call_function(
            &ir,
            module,
            "sum1toN",
            &[],
            &mut memory,
            &mut NoHooks,
            &mut NoObserver,
        )
        .unwrap();
        // 1..=10 sums to 55 (inclusive Fortran semantics).
        assert_eq!(out, vec![RtValue::F64(55.0)]);
    }

    #[test]
    fn if_and_select() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        let i32t = ir.i32t();
        {
            let mut b = Builder::at_end(&mut ir, body);
            let (_f, entry) = func::build_func(&mut b, "pick", &[i32t], &[i32t]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let ten = arith::const_i32(&mut b, 10);
            let c = arith::cmpi(&mut b, "slt", args[0], ten);
            let if_op = scf::build_if(
                &mut b,
                c,
                &[i32t],
                |inner| vec![arith::const_i32(inner, 1)],
                |inner| vec![arith::const_i32(inner, 2)],
            );
            let r = b.ir.op(if_op).results[0];
            func::build_return(&mut b, &[r]);
        }
        let mut memory = Memory::new();
        let small = call_function(
            &ir,
            module,
            "pick",
            &[RtValue::I32(5)],
            &mut memory,
            &mut NoHooks,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(small, vec![RtValue::I32(1)]);
        let big = call_function(
            &ir,
            module,
            "pick",
            &[RtValue::I32(50)],
            &mut memory,
            &mut NoHooks,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(big, vec![RtValue::I32(2)]);
    }

    /// `func @f() -> index` returning `value`, in a module of its own.
    fn build_const_fn(ir: &mut Ir, value: i64) -> OpId {
        let (module, body) = builtin::module(ir);
        let index = ir.index_t();
        let mut b = Builder::at_end(ir, body);
        let (_f, entry) = func::build_func(&mut b, "f", &[], &[index]);
        b.set_insertion_point_to_end(entry);
        let c = arith::const_index(&mut b, value);
        func::build_return(&mut b, &[c]);
        module
    }

    #[test]
    fn kept_programs_follow_the_public_fields() {
        let (mut first, mut second) = (Ir::new(), Ir::new());
        let one = build_const_fn(&mut first, 1);
        let two = build_const_fn(&mut first, 2);
        // Same function name and (as the first module of its `Ir`) same op id.
        let three = build_const_fn(&mut second, 3);
        assert_eq!(one, three);
        let call = |interp: &Interp| {
            let mut memory = Memory::new();
            interp
                .call("f", &[], &mut memory, &mut NoHooks, &mut NoObserver)
                .unwrap()
        };
        let mut interp = Interp::new(&first, one);
        assert_eq!(call(&interp), vec![RtValue::Index(1)]);
        assert_eq!(call(&interp), vec![RtValue::Index(1)]);
        interp.module = two;
        assert_eq!(call(&interp), vec![RtValue::Index(2)]);
        interp.ir = &second;
        interp.module = three;
        assert_eq!(call(&interp), vec![RtValue::Index(3)]);
    }

    #[test]
    fn out_of_bounds_load_rejected() {
        let mut ir = Ir::new();
        let module = build_axpy(&mut ir);
        let mut memory = Memory::new();
        let x = memory.alloc(Buffer::F32(vec![0.0; 2]), 0);
        let y = memory.alloc(Buffer::F32(vec![0.0; 2]), 0);
        // Claim length 4 but buffers only hold 2.
        let args = vec![
            RtValue::F32(1.0),
            RtValue::MemRef(MemRefVal {
                buffer: x,
                shape: vec![4],
                space: 0,
            }),
            RtValue::MemRef(MemRefVal {
                buffer: y,
                shape: vec![4],
                space: 0,
            }),
            RtValue::Index(4),
        ];
        let err = call_function(
            &ir,
            module,
            "axpy",
            &args,
            &mut memory,
            &mut NoHooks,
            &mut NoObserver,
        )
        .unwrap_err();
        assert!(err.message.contains("out of bounds"));
    }
}

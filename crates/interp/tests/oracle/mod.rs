//! The reference tree-walking interpreter: executes the IR op by op over a
//! `HashMap<ValueId, RtValue>` environment, exactly as `ftn-interp` did
//! before it compiled functions to bytecode. It is test support only — the
//! differential suites run it beside the bytecode engine and demand
//! identical buffers, results, errors and `loop_executed` sequences — and is
//! written against `ftn-interp`'s public API alone.
#![allow(dead_code)]

use std::collections::HashMap;

use ftn_interp::{
    Buffer, DialectHooks, InterpError, MemRefVal, Memory, Observer, RtValue, DEFAULT_MAX_STEPS,
};
use ftn_mlir::{BlockId, Ir, OpId, TypeKind, ValueId};

/// Tree-walking interpreter over a module.
pub struct Interp<'a> {
    pub ir: &'a Ir,
    pub module: OpId,
    pub max_steps: u64,
}

type Env = HashMap<ValueId, RtValue>;

enum Flow {
    Normal,
    Return(Vec<RtValue>),
}

/// Convenience wrapper: call `func_name` in `module` with `args`.
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
        let mut exec = Exec {
            ir: self.ir,
            module: self.module,
            memory,
            hooks,
            observer,
            steps: 0,
            max_steps: self.max_steps,
        };
        exec.call_symbol(func_name, args)
    }
}

struct Exec<'a, 'h> {
    ir: &'a Ir,
    module: OpId,
    memory: &'h mut Memory,
    hooks: &'h mut dyn DialectHooks,
    observer: &'h mut dyn Observer,
    steps: u64,
    max_steps: u64,
}

impl<'a, 'h> Exec<'a, 'h> {
    fn call_symbol(&mut self, name: &str, args: &[RtValue]) -> Result<Vec<RtValue>, InterpError> {
        let func = self
            .ir
            .lookup_symbol(self.module, name)
            .ok_or_else(|| InterpError::new(format!("no function '{name}' in module")))?;
        let entry = self.ir.entry_block(func, 0);
        let params = self.ir.block(entry).args.clone();
        if params.len() != args.len() {
            return Err(InterpError::new(format!(
                "function '{name}' expects {} args, got {}",
                params.len(),
                args.len()
            )));
        }
        let mut env: Env = Env::with_capacity(64);
        for (p, a) in params.iter().zip(args) {
            env.insert(*p, a.clone());
        }
        match self.run_block(entry, &mut env)? {
            Flow::Return(values) => Ok(values),
            Flow::Normal => Ok(vec![]),
        }
    }

    /// The step budget is charged here, a block's ops at once on entry: a
    /// block runs whole or not at all, which is the engine's documented
    /// contract ("charged block by block on entry").
    fn run_block(&mut self, block: BlockId, env: &mut Env) -> Result<Flow, InterpError> {
        let ops = self.ir.block(block).ops.clone();
        self.steps += ops.len() as u64;
        if self.steps > self.max_steps {
            return Err(InterpError::new("interpreter step budget exhausted"));
        }
        for op in ops {
            match self.exec_op(op, env)? {
                Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    /// Values yielded by the terminator of `block` (scf.yield / omp.yield /
    /// fir.result operands), resolved in `env`.
    fn yielded(&self, block: BlockId, env: &Env) -> Result<Vec<RtValue>, InterpError> {
        let Some(&term) = self.ir.block(block).ops.last() else {
            return Ok(vec![]);
        };
        let name = self.ir.op_name(term);
        if !matches!(
            name,
            "scf.yield" | "omp.yield" | "fir.result" | "omp.terminator"
        ) {
            return Ok(vec![]);
        }
        self.ir
            .op(term)
            .operands
            .iter()
            .map(|v| self.lookup(env, *v))
            .collect()
    }

    fn lookup(&self, env: &Env, v: ValueId) -> Result<RtValue, InterpError> {
        env.get(&v)
            .cloned()
            .ok_or_else(|| InterpError::new("value not bound in environment"))
    }

    fn operand_values(&self, op: OpId, env: &Env) -> Result<Vec<RtValue>, InterpError> {
        self.ir
            .op(op)
            .operands
            .iter()
            .map(|v| self.lookup(env, *v))
            .collect()
    }

    fn bind_results(
        &self,
        op: OpId,
        env: &mut Env,
        values: Vec<RtValue>,
    ) -> Result<(), InterpError> {
        let results = &self.ir.op(op).results;
        if results.len() != values.len() {
            return Err(InterpError::new(format!(
                "op '{}' produced {} values for {} results",
                self.ir.op_name(op),
                values.len(),
                results.len()
            )));
        }
        for (r, v) in results.iter().zip(values) {
            env.insert(*r, v);
        }
        Ok(())
    }

    fn exec_op(&mut self, op: OpId, env: &mut Env) -> Result<Flow, InterpError> {
        let name = self.ir.op_name(op).to_string();
        match name.as_str() {
            // ---- terminators handled by enclosing op ----
            "scf.yield" | "omp.yield" | "fir.result" | "omp.terminator" => Ok(Flow::Normal),
            "func.return" => {
                let vals = self.operand_values(op, env)?;
                Ok(Flow::Return(vals))
            }

            // ---- constants & arithmetic ----
            "arith.constant" | "llvm.mlir.constant" => {
                let v = self.eval_constant(op)?;
                self.bind_results(op, env, vec![v])?;
                Ok(Flow::Normal)
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
            | "arith.andi" | "arith.ori" | "arith.xori" | "arith.maxsi" | "arith.minsi" => {
                let args = self.operand_values(op, env)?;
                let l = args[0].as_int()?;
                let r = args[1].as_int()?;
                let out = match name.as_str() {
                    "arith.addi" => l.wrapping_add(r),
                    "arith.subi" => l.wrapping_sub(r),
                    "arith.muli" => l.wrapping_mul(r),
                    "arith.divsi" => {
                        if r == 0 {
                            return Err(InterpError::new("integer division by zero"));
                        }
                        l.wrapping_div(r)
                    }
                    "arith.remsi" => {
                        if r == 0 {
                            return Err(InterpError::new("integer remainder by zero"));
                        }
                        l.wrapping_rem(r)
                    }
                    "arith.andi" => l & r,
                    "arith.ori" => l | r,
                    "arith.xori" => l ^ r,
                    "arith.maxsi" => l.max(r),
                    "arith.minsi" => l.min(r),
                    _ => unreachable!(),
                };
                let v = args[0].with_int(out);
                self.bind_results(op, env, vec![v])?;
                Ok(Flow::Normal)
            }
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maximumf"
            | "arith.minimumf" => {
                let args = self.operand_values(op, env)?;
                let out = float_binop(&name, &args[0], &args[1])?;
                self.bind_results(op, env, vec![out])?;
                Ok(Flow::Normal)
            }
            "arith.negf" => {
                let args = self.operand_values(op, env)?;
                let v = args[0].with_float(-args[0].as_float()?);
                self.bind_results(op, env, vec![v])?;
                Ok(Flow::Normal)
            }
            "arith.cmpi" => {
                let args = self.operand_values(op, env)?;
                let pred = self
                    .ir
                    .attr_str_of(op, "predicate")
                    .ok_or_else(|| InterpError::new("cmpi without predicate"))?;
                let l = args[0].as_int()?;
                let r = args[1].as_int()?;
                let out = match pred {
                    "eq" => l == r,
                    "ne" => l != r,
                    "slt" => l < r,
                    "sle" => l <= r,
                    "sgt" => l > r,
                    "sge" => l >= r,
                    other => return Err(InterpError::new(format!("bad cmpi predicate {other}"))),
                };
                self.bind_results(op, env, vec![RtValue::I1(out)])?;
                Ok(Flow::Normal)
            }
            "arith.cmpf" => {
                let args = self.operand_values(op, env)?;
                let pred = self
                    .ir
                    .attr_str_of(op, "predicate")
                    .ok_or_else(|| InterpError::new("cmpf without predicate"))?;
                let l = args[0].as_float()?;
                let r = args[1].as_float()?;
                let out = match pred {
                    "oeq" => l == r,
                    "one" => l != r,
                    "olt" => l < r,
                    "ole" => l <= r,
                    "ogt" => l > r,
                    "oge" => l >= r,
                    other => return Err(InterpError::new(format!("bad cmpf predicate {other}"))),
                };
                self.bind_results(op, env, vec![RtValue::I1(out)])?;
                Ok(Flow::Normal)
            }
            "arith.select" => {
                let args = self.operand_values(op, env)?;
                let out = if args[0].as_bool()? {
                    args[1].clone()
                } else {
                    args[2].clone()
                };
                self.bind_results(op, env, vec![out])?;
                Ok(Flow::Normal)
            }
            "arith.index_cast" | "arith.extsi" | "arith.trunci" | "fir.convert"
            | "arith.sitofp" | "arith.fptosi" | "arith.extf" | "arith.truncf" => {
                let args = self.operand_values(op, env)?;
                let to = self.ir.value_ty(self.ir.op(op).results[0]);
                let out = convert_value(self.ir, &args[0], to)?;
                self.bind_results(op, env, vec![out])?;
                Ok(Flow::Normal)
            }

            // ---- memref / fir memory ----
            "memref.alloc" | "memref.alloca" | "fir.alloca" => {
                let args = self.operand_values(op, env)?;
                let v = self.eval_alloc(op, &args)?;
                self.bind_results(op, env, vec![v])?;
                Ok(Flow::Normal)
            }
            "memref.dealloc" => Ok(Flow::Normal),
            "fir.declare" => {
                let args = self.operand_values(op, env)?;
                self.bind_results(op, env, vec![args[0].clone()])?;
                Ok(Flow::Normal)
            }
            "memref.load" | "fir.load" => {
                let args = self.operand_values(op, env)?;
                let m = args[0].as_memref()?.clone();
                let idx: Vec<i64> = args[1..]
                    .iter()
                    .map(|v| v.as_int())
                    .collect::<Result<_, _>>()?;
                let off = m.linear_index(&idx)?;
                let v = load_buffer(self.memory.get(m.buffer), off)?;
                self.bind_results(op, env, vec![v])?;
                Ok(Flow::Normal)
            }
            "memref.store" | "fir.store" => {
                let args = self.operand_values(op, env)?;
                let m = args[1].as_memref()?.clone();
                let idx: Vec<i64> = args[2..]
                    .iter()
                    .map(|v| v.as_int())
                    .collect::<Result<_, _>>()?;
                let off = m.linear_index(&idx)?;
                store_buffer(self.memory.get_mut(m.buffer), off, &args[0])?;
                Ok(Flow::Normal)
            }
            "memref.dim" => {
                let args = self.operand_values(op, env)?;
                let m = args[0].as_memref()?;
                let d = args[1].as_int()? as usize;
                if d >= m.shape.len() {
                    return Err(InterpError::new("memref.dim out of rank"));
                }
                let v = RtValue::Index(m.shape[d]);
                self.bind_results(op, env, vec![v])?;
                Ok(Flow::Normal)
            }
            "memref.dma_start" => {
                let args = self.operand_values(op, env)?;
                if let Some(results) = self.hooks.handle_op(self.ir, self.memory, op, &args)? {
                    self.bind_results(op, env, results)?;
                    return Ok(Flow::Normal);
                }
                let src = args[0].as_memref()?.clone();
                let dst = args[1].as_memref()?.clone();
                self.memory.copy(src.buffer, dst.buffer)?;
                self.bind_results(op, env, vec![RtValue::DmaTag(0)])?;
                Ok(Flow::Normal)
            }
            "memref.wait" => {
                let args = self.operand_values(op, env)?;
                let _ = self.hooks.handle_op(self.ir, self.memory, op, &args)?;
                Ok(Flow::Normal)
            }
            "memref.copy" => {
                let args = self.operand_values(op, env)?;
                let src = args[0].as_memref()?.clone();
                let dst = args[1].as_memref()?.clone();
                self.memory.copy(src.buffer, dst.buffer)?;
                Ok(Flow::Normal)
            }

            // ---- structured control flow ----
            "scf.for" => self.exec_scf_for(op, env),
            "scf.if" | "fir.if" => self.exec_if(op, env),
            "fir.do_loop" => self.exec_fir_do_loop(op, env),

            // ---- OpenMP (pre-lowering semantics) ----
            "omp.map_info" => {
                // Payload is the mapped variable's value.
                let args = self.operand_values(op, env)?;
                self.bind_results(op, env, vec![args[0].clone()])?;
                Ok(Flow::Normal)
            }
            "omp.bounds" => {
                self.bind_results(op, env, vec![RtValue::Opaque(0)])?;
                Ok(Flow::Normal)
            }
            "omp.target" => {
                let args = self.operand_values(op, env)?;
                let block = self.ir.entry_block(op, 0);
                let params = self.ir.block(block).args.clone();
                for (p, a) in params.iter().zip(&args) {
                    env.insert(*p, a.clone());
                }
                self.run_block(block, env)
            }
            "omp.target_data" => {
                let block = self.ir.entry_block(op, 0);
                self.run_block(block, env)
            }
            "omp.target_enter_data" | "omp.target_exit_data" | "omp.target_update" => {
                Ok(Flow::Normal)
            }
            "omp.wsloop" => self.exec_wsloop(op, env),

            // ---- HLS markers (no functional effect) ----
            "hls.pipeline" | "hls.unroll" | "hls.interface" => Ok(Flow::Normal),
            "hls.axi_protocol" => {
                let args = self.operand_values(op, env)?;
                let mode = args[0].as_int()?;
                self.bind_results(op, env, vec![RtValue::AxiProtocol(mode)])?;
                Ok(Flow::Normal)
            }

            // ---- calls ----
            "func.call" | "fir.call" => {
                let args = self.operand_values(op, env)?;
                if let Some(results) = self.hooks.handle_op(self.ir, self.memory, op, &args)? {
                    self.bind_results(op, env, results)?;
                    return Ok(Flow::Normal);
                }
                let callee = self
                    .ir
                    .attr_str_of(op, "callee")
                    .ok_or_else(|| InterpError::new("call without callee"))?
                    .to_string();
                let results = self.call_symbol(&callee, &args)?;
                self.bind_results(op, env, results)?;
                Ok(Flow::Normal)
            }

            // ---- everything else: dialect hooks ----
            _ => {
                let args = self.operand_values(op, env)?;
                match self.hooks.handle_op(self.ir, self.memory, op, &args)? {
                    Some(results) => {
                        self.bind_results(op, env, results)?;
                        Ok(Flow::Normal)
                    }
                    None => Err(InterpError::new(format!("unhandled op '{name}'"))),
                }
            }
        }
    }

    fn eval_constant(&self, op: OpId) -> Result<RtValue, InterpError> {
        let ty = self.ir.value_ty(self.ir.op(op).results[0]);
        let attr = self
            .ir
            .get_attr(op, "value")
            .ok_or_else(|| InterpError::new("constant without value"))?;
        match self.ir.type_kind(ty) {
            TypeKind::Integer { width } => {
                let v = self
                    .ir
                    .attr_as_int(attr)
                    .ok_or_else(|| InterpError::new("int constant with non-int attr"))?;
                Ok(match width {
                    1 => RtValue::I1(v != 0),
                    32 => RtValue::I32(v as i32),
                    _ => RtValue::I64(v),
                })
            }
            TypeKind::Index => {
                let v = self
                    .ir
                    .attr_as_int(attr)
                    .ok_or_else(|| InterpError::new("index constant with non-int attr"))?;
                Ok(RtValue::Index(v))
            }
            TypeKind::Float32 => {
                let v = self
                    .ir
                    .attr_as_float(attr)
                    .ok_or_else(|| InterpError::new("float constant with non-float attr"))?;
                Ok(RtValue::F32(v as f32))
            }
            TypeKind::Float64 => {
                let v = self
                    .ir
                    .attr_as_float(attr)
                    .ok_or_else(|| InterpError::new("float constant with non-float attr"))?;
                Ok(RtValue::F64(v))
            }
            other => Err(InterpError::new(format!("constant of type {other:?}"))),
        }
    }

    fn eval_alloc(&mut self, op: OpId, dyn_sizes: &[RtValue]) -> Result<RtValue, InterpError> {
        let ty = self.ir.value_ty(self.ir.op(op).results[0]);
        let TypeKind::MemRef {
            shape,
            elem,
            memory_space,
        } = self.ir.type_kind(ty).clone()
        else {
            return Err(InterpError::new("alloc result is not a memref"));
        };
        let mut resolved = Vec::with_capacity(shape.len());
        let mut dyn_iter = dyn_sizes.iter();
        for d in &shape {
            if *d == ftn_mlir::types::DYN_DIM {
                let v = dyn_iter
                    .next()
                    .ok_or_else(|| InterpError::new("missing dynamic size"))?
                    .as_int()?;
                resolved.push(v);
            } else {
                resolved.push(*d);
            }
        }
        let len: i64 = resolved.iter().product::<i64>().max(0);
        let elem_name = match self.ir.type_kind(elem) {
            TypeKind::Float32 => "f32",
            TypeKind::Float64 => "f64",
            TypeKind::Integer { width: 1 } => "i1",
            TypeKind::Integer { width: 32 } => "i32",
            TypeKind::Integer { .. } => "i64",
            TypeKind::Index => "index",
            other => return Err(InterpError::new(format!("bad memref element {other:?}"))),
        };
        let buffer = self
            .memory
            .alloc_zeroed(elem_name, len as usize, memory_space)?;
        Ok(RtValue::MemRef(MemRefVal {
            buffer,
            shape: resolved,
            space: memory_space,
        }))
    }

    fn exec_scf_for(&mut self, op: OpId, env: &mut Env) -> Result<Flow, InterpError> {
        let operands = self.operand_values(op, env)?;
        let lb = operands[0].as_int()?;
        let ub = operands[1].as_int()?;
        let step = operands[2].as_int()?;
        if step <= 0 {
            return Err(InterpError::new("scf.for requires positive step"));
        }
        let mut iters: Vec<RtValue> = operands[3..].to_vec();
        let block = self.ir.entry_block(op, 0);
        let args = self.ir.block(block).args.clone();
        let mut trip = 0u64;
        let mut iv = lb;
        while iv < ub {
            env.insert(args[0], RtValue::Index(iv));
            for (a, v) in args[1..].iter().zip(&iters) {
                env.insert(*a, v.clone());
            }
            match self.run_block(block, env)? {
                Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
            iters = self.yielded(block, env)?;
            iv = iv.wrapping_add(step);
            trip += 1;
        }
        self.observer.loop_executed(self.ir, op, trip);
        self.bind_results(op, env, iters)?;
        Ok(Flow::Normal)
    }

    fn exec_wsloop(&mut self, op: OpId, env: &mut Env) -> Result<Flow, InterpError> {
        let operands = self.operand_values(op, env)?;
        let lb = operands[0].as_int()?;
        let ub = operands[1].as_int()?; // inclusive (Fortran do semantics)
        let step = operands[2].as_int()?;
        if step <= 0 {
            return Err(InterpError::new("omp.wsloop requires positive step"));
        }
        let mut iters: Vec<RtValue> = operands[3..].to_vec();
        let block = self.ir.entry_block(op, 0);
        let args = self.ir.block(block).args.clone();
        let mut trip = 0u64;
        let mut iv = lb;
        while iv <= ub {
            env.insert(args[0], RtValue::Index(iv));
            for (a, v) in args[1..].iter().zip(&iters) {
                env.insert(*a, v.clone());
            }
            match self.run_block(block, env)? {
                Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
            iters = self.yielded(block, env)?;
            iv = iv.wrapping_add(step);
            trip += 1;
        }
        self.observer.loop_executed(self.ir, op, trip);
        self.bind_results(op, env, iters)?;
        Ok(Flow::Normal)
    }

    fn exec_fir_do_loop(&mut self, op: OpId, env: &mut Env) -> Result<Flow, InterpError> {
        let operands = self.operand_values(op, env)?;
        let lb = operands[0].as_int()?;
        let ub = operands[1].as_int()?; // inclusive
        let step = operands[2].as_int()?;
        if step <= 0 {
            return Err(InterpError::new("fir.do_loop requires positive step"));
        }
        let block = self.ir.entry_block(op, 0);
        let iv_arg = self.ir.block(block).args[0];
        let mut trip = 0u64;
        let mut iv = lb;
        while iv <= ub {
            env.insert(iv_arg, RtValue::Index(iv));
            match self.run_block(block, env)? {
                Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
            iv = iv.wrapping_add(step);
            trip += 1;
        }
        self.observer.loop_executed(self.ir, op, trip);
        Ok(Flow::Normal)
    }

    fn exec_if(&mut self, op: OpId, env: &mut Env) -> Result<Flow, InterpError> {
        let operands = self.operand_values(op, env)?;
        let cond = operands[0].as_bool()?;
        let region_idx = if cond { 0 } else { 1 };
        let block = self.ir.entry_block(op, region_idx);
        match self.run_block(block, env)? {
            Flow::Normal => {}
            ret @ Flow::Return(_) => return Ok(ret),
        }
        let yields = self.yielded(block, env)?;
        self.bind_results(op, env, yields)?;
        Ok(Flow::Normal)
    }
}

fn float_binop(name: &str, l: &RtValue, r: &RtValue) -> Result<RtValue, InterpError> {
    // f32 ops must round through f32 to match hardware semantics.
    match (l, r) {
        (RtValue::F32(a), RtValue::F32(b)) => {
            let out = match name {
                "arith.addf" => a + b,
                "arith.subf" => a - b,
                "arith.mulf" => a * b,
                "arith.divf" => a / b,
                "arith.maximumf" => a.max(*b),
                "arith.minimumf" => a.min(*b),
                _ => return Err(InterpError::new(format!("bad float op {name}"))),
            };
            Ok(RtValue::F32(out))
        }
        (RtValue::F64(a), RtValue::F64(b)) => {
            let out = match name {
                "arith.addf" => a + b,
                "arith.subf" => a - b,
                "arith.mulf" => a * b,
                "arith.divf" => a / b,
                "arith.maximumf" => a.max(*b),
                "arith.minimumf" => a.min(*b),
                _ => return Err(InterpError::new(format!("bad float op {name}"))),
            };
            Ok(RtValue::F64(out))
        }
        _ => Err(InterpError::new("float binop type mismatch")),
    }
}

fn convert_value(ir: &Ir, v: &RtValue, to: ftn_mlir::TypeId) -> Result<RtValue, InterpError> {
    match ir.type_kind(to) {
        TypeKind::Index => Ok(RtValue::Index(v.as_int()?)),
        TypeKind::Integer { width: 1 } => Ok(RtValue::I1(v.as_int()? != 0)),
        TypeKind::Integer { width: 32 } => match v {
            RtValue::F32(f) => Ok(RtValue::I32(*f as i32)),
            RtValue::F64(f) => Ok(RtValue::I32(*f as i32)),
            other => Ok(RtValue::I32(other.as_int()? as i32)),
        },
        TypeKind::Integer { .. } => match v {
            RtValue::F32(f) => Ok(RtValue::I64(*f as i64)),
            RtValue::F64(f) => Ok(RtValue::I64(*f as i64)),
            other => Ok(RtValue::I64(other.as_int()?)),
        },
        TypeKind::Float32 => match v {
            RtValue::F32(f) => Ok(RtValue::F32(*f)),
            RtValue::F64(f) => Ok(RtValue::F32(*f as f32)),
            other => Ok(RtValue::F32(other.as_int()? as f32)),
        },
        TypeKind::Float64 => match v {
            RtValue::F32(f) => Ok(RtValue::F64(*f as f64)),
            RtValue::F64(f) => Ok(RtValue::F64(*f)),
            other => Ok(RtValue::F64(other.as_int()? as f64)),
        },
        other => Err(InterpError::new(format!(
            "unsupported conversion to {other:?}"
        ))),
    }
}

fn load_buffer(buffer: &Buffer, off: usize) -> Result<RtValue, InterpError> {
    let check = |len: usize| {
        if off >= len {
            Err(InterpError::new(format!(
                "load offset {off} out of bounds ({len})"
            )))
        } else {
            Ok(())
        }
    };
    match buffer {
        Buffer::F32(v) => {
            check(v.len())?;
            Ok(RtValue::F32(v[off]))
        }
        Buffer::F64(v) => {
            check(v.len())?;
            Ok(RtValue::F64(v[off]))
        }
        Buffer::I32(v) => {
            check(v.len())?;
            Ok(RtValue::I32(v[off]))
        }
        Buffer::I64(v) => {
            check(v.len())?;
            Ok(RtValue::I64(v[off]))
        }
        Buffer::I1(v) => {
            check(v.len())?;
            Ok(RtValue::I1(v[off]))
        }
    }
}

fn store_buffer(buffer: &mut Buffer, off: usize, value: &RtValue) -> Result<(), InterpError> {
    match buffer {
        Buffer::F32(v) => {
            if off >= v.len() {
                return Err(InterpError::new("store out of bounds"));
            }
            v[off] = value.as_float()? as f32;
        }
        Buffer::F64(v) => {
            if off >= v.len() {
                return Err(InterpError::new("store out of bounds"));
            }
            v[off] = value.as_float()?;
        }
        Buffer::I32(v) => {
            if off >= v.len() {
                return Err(InterpError::new("store out of bounds"));
            }
            v[off] = value.as_int()? as i32;
        }
        Buffer::I64(v) => {
            if off >= v.len() {
                return Err(InterpError::new("store out of bounds"));
            }
            v[off] = value.as_int()?;
        }
        Buffer::I1(v) => {
            if off >= v.len() {
                return Err(InterpError::new("store out of bounds"));
            }
            v[off] = value.as_int()? != 0;
        }
    }
    Ok(())
}

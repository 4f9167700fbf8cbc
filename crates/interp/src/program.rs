//! The execution engine: functions lowered once to slot-indexed bytecode
//! (by `lower.rs`) and the run loop that executes them on a dense
//! `Vec<RtValue>` frame.
//!
//! A [`Program`] holds OpIds of the [`Ir`] it was lowered from and must be
//! run against that same `Ir` (hooks and observers receive the ids).

use std::collections::HashMap;

use ftn_mlir::{Ir, OpId};

use crate::error::InterpError;
use crate::interp::{DialectHooks, Observer};
use crate::memory::{Buffer, Memory};
use crate::value::{MemRefVal, RtValue};

/// Index of a value in a function's frame.
pub(crate) type Slot = u32;

/// A run of entries in `Function::slots`.
#[derive(Clone, Copy, Default)]
pub(crate) struct SlotRange {
    pub start: u32,
    pub len: u32,
}

#[derive(Clone, Copy)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    DivS,
    RemS,
    And,
    Or,
    Xor,
    MaxS,
    MinS,
}

#[derive(Clone, Copy)]
pub(crate) enum FloatOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
}

#[derive(Clone, Copy)]
pub(crate) enum CmpIPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
}

#[derive(Clone, Copy)]
pub(crate) enum CmpFPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

/// Target kind of a conversion, resolved from the result type at lowering.
#[derive(Clone, Copy)]
pub(crate) enum ConvKind {
    Index,
    I1,
    I32,
    I64,
    F32,
    F64,
}

/// One pre-decoded instruction. Hot scalar ops carry their slots inline;
/// the wide, cold ones index a side table of the [`Function`].
#[derive(Clone, Copy)]
pub(crate) enum Instr {
    IntBin {
        op: IntOp,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    FloatBin {
        op: FloatOp,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    NegF {
        dst: Slot,
        src: Slot,
    },
    CmpI {
        pred: CmpIPred,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    CmpF {
        pred: CmpFPred,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    Select {
        dst: Slot,
        cond: Slot,
        on_true: Slot,
        on_false: Slot,
    },
    Convert {
        to: ConvKind,
        dst: Slot,
        src: Slot,
    },
    Move {
        dst: Slot,
        src: Slot,
    },
    AxiProtocol {
        dst: Slot,
        src: Slot,
    },
    /// Rank-1 load: the memref is borrowed from the frame.
    Load1 {
        dst: Slot,
        mem: Slot,
        idx: Slot,
    },
    Store1 {
        val: Slot,
        mem: Slot,
        idx: Slot,
    },
    Load {
        dst: Slot,
        mem: Slot,
        idx: SlotRange,
    },
    Store {
        val: Slot,
        mem: Slot,
        idx: SlotRange,
    },
    Dim {
        dst: Slot,
        mem: Slot,
        dim: Slot,
    },
    Copy {
        src: Slot,
        dst: Slot,
    },
    /// Entry of an inlined region: charge its op count to the step budget.
    Charge(u32),
    Alloc(u32),
    Loop(u32),
    If(u32),
    Hook(u32),
    Return(SlotRange),
    /// Raise `Function::traps[i]` when (and only when) reached.
    Trap(u32),
}

/// `scf.for` / `omp.wsloop` / `fir.do_loop`; the body is the code from the
/// instruction after the `Loop` up to `end`.
pub(crate) struct Loop {
    pub op: OpId,
    pub name: &'static str,
    /// `iv <= ub` (Fortran `do`) rather than `iv < ub`.
    pub inclusive: bool,
    pub lb: Slot,
    pub ub: Slot,
    pub step: Slot,
    pub iv: Slot,
    /// Loop-carried values. The result slots double as the carrier between
    /// iterations (inits → results → args; yields → results): nothing can
    /// read a result before the loop ends, so no temporaries are needed.
    pub inits: SlotRange,
    pub args: SlotRange,
    pub yields: SlotRange,
    pub results: SlotRange,
    pub body_ops: u32,
    pub end: u32,
}

/// `scf.if` / `fir.if`: then-code follows the instruction up to
/// `else_start`, else-code runs to `end`.
pub(crate) struct If {
    pub cond: Slot,
    pub then_ops: u32,
    pub else_ops: u32,
    pub else_start: u32,
    pub end: u32,
    pub then_yields: SlotRange,
    pub else_yields: SlotRange,
    pub results: SlotRange,
}

pub(crate) struct Alloc {
    pub dst: Slot,
    /// Static extents; `DYN_DIM` entries are filled from `sizes` in order.
    pub shape: Vec<i64>,
    pub sizes: SlotRange,
    pub elem: &'static str,
    pub space: u32,
}

/// An op offered to [`DialectHooks`] first.
pub(crate) struct Hook {
    pub op: OpId,
    pub args: SlotRange,
    pub results: SlotRange,
    pub fallback: Fallback,
}

/// What a [`Hook`] does when the hooks decline the op.
pub(crate) enum Fallback {
    Error(String),
    /// `memref.dma_start`: plain buffer copy, tag 0.
    DmaCopy,
    /// `memref.wait`: nothing to do, and results from the hooks are dropped.
    Ignore,
    /// `func.call` / `fir.call` to function `i` of the program.
    Call(usize),
}

/// One lowered function.
pub(crate) struct Function {
    pub name: String,
    pub op: OpId,
    pub params: Vec<Slot>,
    /// Initial frame: constants already in their slots, `Unit` elsewhere.
    pub frame: Vec<RtValue>,
    pub entry_ops: u32,
    pub code: Vec<Instr>,
    pub slots: Vec<Slot>,
    pub loops: Vec<Loop>,
    pub ifs: Vec<If>,
    pub allocs: Vec<Alloc>,
    pub hooks: Vec<Hook>,
    pub traps: Vec<String>,
}

impl Function {
    fn range(&self, r: SlotRange) -> &[Slot] {
        &self.slots[r.start as usize..(r.start + r.len) as usize]
    }
}

/// A set of functions of one module, lowered to bytecode.
pub struct Program {
    pub(crate) funcs: Vec<Function>,
    pub(crate) by_name: HashMap<String, usize>,
}

enum Flow {
    Normal,
    Return(Vec<RtValue>),
}

impl Program {
    /// Name and defining op of every lowered function.
    pub fn functions(&self) -> impl Iterator<Item = (&str, OpId)> {
        self.funcs.iter().map(|f| (f.name.as_str(), f.op))
    }

    /// Run function `name` with `args`. `ir` must be the one this program
    /// was lowered from; `max_steps` bounds the executed op count.
    #[allow(clippy::too_many_arguments)]
    pub fn call(
        &self,
        ir: &Ir,
        name: &str,
        args: &[RtValue],
        memory: &mut Memory,
        hooks: &mut dyn DialectHooks,
        observer: &mut dyn Observer,
        max_steps: u64,
    ) -> Result<Vec<RtValue>, InterpError> {
        let &func = self
            .by_name
            .get(name)
            .ok_or_else(|| InterpError::new(format!("no function '{name}' in module")))?;
        let mut run = Run {
            ir,
            program: self,
            memory,
            hooks,
            observer,
            steps: 0,
            max_steps,
        };
        run.call(func, args)
    }
}

struct Run<'a> {
    ir: &'a Ir,
    program: &'a Program,
    memory: &'a mut Memory,
    hooks: &'a mut dyn DialectHooks,
    observer: &'a mut dyn Observer,
    steps: u64,
    max_steps: u64,
}

impl<'a> Run<'a> {
    /// Charge a block's ops on entry, so a program exhausts the budget at
    /// the same threshold as one charged op by op.
    fn charge(&mut self, ops: u32) -> Result<(), InterpError> {
        self.steps += ops as u64;
        if self.steps > self.max_steps {
            return Err(InterpError::new("interpreter step budget exhausted"));
        }
        Ok(())
    }

    fn call(&mut self, func: usize, args: &[RtValue]) -> Result<Vec<RtValue>, InterpError> {
        let f = &self.program.funcs[func];
        if f.params.len() != args.len() {
            return Err(InterpError::new(format!(
                "function '{}' expects {} args, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        let mut frame = f.frame.clone();
        for (&p, a) in f.params.iter().zip(args) {
            frame[p as usize] = a.clone();
        }
        self.charge(f.entry_ops)?;
        match self.exec(f, &mut frame, 0, f.code.len())? {
            Flow::Return(values) => Ok(values),
            Flow::Normal => Ok(vec![]),
        }
    }

    fn exec(
        &mut self,
        f: &'a Function,
        frame: &mut [RtValue],
        mut pc: usize,
        end: usize,
    ) -> Result<Flow, InterpError> {
        macro_rules! at {
            ($slot:expr) => {
                frame[$slot as usize]
            };
        }
        while pc < end {
            match f.code[pc] {
                Instr::IntBin { op, dst, lhs, rhs } => {
                    let l = at!(lhs).as_int()?;
                    let r = at!(rhs).as_int()?;
                    let out = int_binop(op, l, r)?;
                    at!(dst) = at!(lhs).with_int(out);
                }
                Instr::FloatBin { op, dst, lhs, rhs } => {
                    at!(dst) = float_binop(op, &at!(lhs), &at!(rhs))?;
                }
                Instr::NegF { dst, src } => {
                    let v = -at!(src).as_float()?;
                    at!(dst) = at!(src).with_float(v);
                }
                Instr::CmpI {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let l = at!(lhs).as_int()?;
                    let r = at!(rhs).as_int()?;
                    at!(dst) = RtValue::I1(match pred {
                        CmpIPred::Eq => l == r,
                        CmpIPred::Ne => l != r,
                        CmpIPred::Slt => l < r,
                        CmpIPred::Sle => l <= r,
                        CmpIPred::Sgt => l > r,
                        CmpIPred::Sge => l >= r,
                    });
                }
                Instr::CmpF {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let l = at!(lhs).as_float()?;
                    let r = at!(rhs).as_float()?;
                    at!(dst) = RtValue::I1(match pred {
                        CmpFPred::Oeq => l == r,
                        CmpFPred::One => l != r,
                        CmpFPred::Olt => l < r,
                        CmpFPred::Ole => l <= r,
                        CmpFPred::Ogt => l > r,
                        CmpFPred::Oge => l >= r,
                    });
                }
                Instr::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    let pick = if at!(cond).as_bool()? {
                        on_true
                    } else {
                        on_false
                    };
                    at!(dst) = at!(pick).clone();
                }
                Instr::Convert { to, dst, src } => {
                    at!(dst) = convert_value(&at!(src), to)?;
                }
                Instr::Move { dst, src } => {
                    at!(dst) = at!(src).clone();
                }
                Instr::AxiProtocol { dst, src } => {
                    at!(dst) = RtValue::AxiProtocol(at!(src).as_int()?);
                }
                Instr::Load1 { dst, mem, idx } => {
                    let m = at!(mem).as_memref()?;
                    let i = at!(idx).as_int()?;
                    let off = rank1_offset(m, i)?;
                    at!(dst) = load_buffer(self.memory.get(m.buffer), off)?;
                }
                Instr::Store1 { val, mem, idx } => {
                    let m = at!(mem).as_memref()?;
                    let i = at!(idx).as_int()?;
                    let off = rank1_offset(m, i)?;
                    store_buffer(self.memory.get_mut(m.buffer), off, &at!(val))?;
                }
                Instr::Load { dst, mem, idx } => {
                    let m = at!(mem).as_memref()?;
                    let off = linear_offset(m, frame, f.range(idx))?;
                    at!(dst) = load_buffer(self.memory.get(m.buffer), off)?;
                }
                Instr::Store { val, mem, idx } => {
                    let m = at!(mem).as_memref()?;
                    let off = linear_offset(m, frame, f.range(idx))?;
                    store_buffer(self.memory.get_mut(m.buffer), off, &at!(val))?;
                }
                Instr::Dim { dst, mem, dim } => {
                    let m = at!(mem).as_memref()?;
                    let d = at!(dim).as_int()? as usize;
                    let extent = *m
                        .shape
                        .get(d)
                        .ok_or_else(|| InterpError::new("memref.dim out of rank"))?;
                    at!(dst) = RtValue::Index(extent);
                }
                Instr::Copy { src, dst } => {
                    let s = at!(src).as_memref()?.buffer;
                    let d = at!(dst).as_memref()?.buffer;
                    self.memory.copy(s, d)?;
                }
                Instr::Charge(ops) => self.charge(ops)?,
                Instr::Alloc(i) => {
                    let a = &f.allocs[i as usize];
                    at!(a.dst) = self.alloc(a, frame, f.range(a.sizes))?;
                }
                Instr::Loop(i) => {
                    let l = &f.loops[i as usize];
                    if let Flow::Return(values) = self.run_loop(f, frame, l, pc + 1)? {
                        return Ok(Flow::Return(values));
                    }
                    pc = l.end as usize;
                    continue;
                }
                Instr::If(i) => {
                    let s = &f.ifs[i as usize];
                    let (ops, start, stop, yields) = if at!(s.cond).as_bool()? {
                        (s.then_ops, pc + 1, s.else_start as usize, s.then_yields)
                    } else {
                        (
                            s.else_ops,
                            s.else_start as usize,
                            s.end as usize,
                            s.else_yields,
                        )
                    };
                    self.charge(ops)?;
                    if let Flow::Return(values) = self.exec(f, frame, start, stop)? {
                        return Ok(Flow::Return(values));
                    }
                    for (&r, &y) in f.range(s.results).iter().zip(f.range(yields)) {
                        at!(r) = at!(y).clone();
                    }
                    pc = s.end as usize;
                    continue;
                }
                Instr::Hook(i) => self.run_hook(f, frame, &f.hooks[i as usize])?,
                Instr::Return(values) => {
                    let values = f.range(values).iter().map(|&s| at!(s).clone()).collect();
                    return Ok(Flow::Return(values));
                }
                Instr::Trap(i) => return Err(InterpError::new(f.traps[i as usize].clone())),
            }
            pc += 1;
        }
        Ok(Flow::Normal)
    }

    fn run_loop(
        &mut self,
        f: &'a Function,
        frame: &mut [RtValue],
        l: &Loop,
        body: usize,
    ) -> Result<Flow, InterpError> {
        let lb = frame[l.lb as usize].as_int()?;
        let ub = frame[l.ub as usize].as_int()?;
        let step = frame[l.step as usize].as_int()?;
        if step <= 0 {
            return Err(InterpError::new(format!(
                "{} requires positive step",
                l.name
            )));
        }
        let (inits, args) = (f.range(l.inits), f.range(l.args));
        let (yields, results) = (f.range(l.yields), f.range(l.results));
        for (&r, &i) in results.iter().zip(inits) {
            frame[r as usize] = frame[i as usize].clone();
        }
        let mut trip = 0u64;
        let mut iv = lb;
        while if l.inclusive { iv <= ub } else { iv < ub } {
            self.charge(l.body_ops)?;
            frame[l.iv as usize] = RtValue::Index(iv);
            for (&a, &r) in args.iter().zip(results) {
                frame[a as usize] = frame[r as usize].clone();
            }
            if let Flow::Return(values) = self.exec(f, frame, body, l.end as usize)? {
                return Ok(Flow::Return(values));
            }
            for (&r, &y) in results.iter().zip(yields) {
                frame[r as usize] = frame[y as usize].clone();
            }
            iv = iv.wrapping_add(step);
            trip += 1;
        }
        self.observer.loop_executed(self.ir, l.op, trip);
        Ok(Flow::Normal)
    }

    fn alloc(
        &mut self,
        a: &Alloc,
        frame: &[RtValue],
        sizes: &[Slot],
    ) -> Result<RtValue, InterpError> {
        let mut sizes = sizes.iter();
        let mut shape = Vec::with_capacity(a.shape.len());
        for &d in &a.shape {
            shape.push(if d == ftn_mlir::types::DYN_DIM {
                let &s = sizes
                    .next()
                    .ok_or_else(|| InterpError::new("missing dynamic size"))?;
                frame[s as usize].as_int()?
            } else {
                d
            });
        }
        let len = shape.iter().product::<i64>().max(0) as usize;
        let buffer = self.memory.alloc_zeroed(a.elem, len, a.space)?;
        Ok(RtValue::MemRef(MemRefVal {
            buffer,
            shape,
            space: a.space,
        }))
    }

    fn run_hook(
        &mut self,
        f: &Function,
        frame: &mut [RtValue],
        h: &Hook,
    ) -> Result<(), InterpError> {
        let args: Vec<RtValue> = f
            .range(h.args)
            .iter()
            .map(|&s| frame[s as usize].clone())
            .collect();
        let handled = self.hooks.handle_op(self.ir, self.memory, h.op, &args)?;
        let values = match (&h.fallback, handled) {
            (Fallback::Ignore, _) => return Ok(()),
            (_, Some(values)) => values,
            (Fallback::Error(message), None) => return Err(InterpError::new(message.clone())),
            (Fallback::DmaCopy, None) => {
                let src = args[0].as_memref()?.buffer;
                let dst = args[1].as_memref()?.buffer;
                self.memory.copy(src, dst)?;
                vec![RtValue::DmaTag(0)]
            }
            (Fallback::Call(callee), None) => self.call(*callee, &args)?,
        };
        let results = f.range(h.results);
        if results.len() != values.len() {
            return Err(InterpError::new(format!(
                "op '{}' produced {} values for {} results",
                self.ir.op_name(h.op),
                values.len(),
                results.len()
            )));
        }
        for (&r, v) in results.iter().zip(values) {
            frame[r as usize] = v;
        }
        Ok(())
    }
}

fn int_binop(op: IntOp, l: i64, r: i64) -> Result<i64, InterpError> {
    Ok(match op {
        IntOp::Add => l.wrapping_add(r),
        IntOp::Sub => l.wrapping_sub(r),
        IntOp::Mul => l.wrapping_mul(r),
        // Wrapping: `i64::MIN / -1` must not panic a device worker.
        IntOp::DivS => {
            if r == 0 {
                return Err(InterpError::new("integer division by zero"));
            }
            l.wrapping_div(r)
        }
        IntOp::RemS => {
            if r == 0 {
                return Err(InterpError::new("integer remainder by zero"));
            }
            l.wrapping_rem(r)
        }
        IntOp::And => l & r,
        IntOp::Or => l | r,
        IntOp::Xor => l ^ r,
        IntOp::MaxS => l.max(r),
        IntOp::MinS => l.min(r),
    })
}

fn float_binop(op: FloatOp, l: &RtValue, r: &RtValue) -> Result<RtValue, InterpError> {
    macro_rules! apply {
        ($a:expr, $b:expr) => {
            match op {
                FloatOp::Add => $a + $b,
                FloatOp::Sub => $a - $b,
                FloatOp::Mul => $a * $b,
                FloatOp::Div => $a / $b,
                FloatOp::Max => $a.max(*$b),
                FloatOp::Min => $a.min(*$b),
            }
        };
    }
    // f32 ops must round through f32 to match hardware semantics.
    match (l, r) {
        (RtValue::F32(a), RtValue::F32(b)) => Ok(RtValue::F32(apply!(a, b))),
        (RtValue::F64(a), RtValue::F64(b)) => Ok(RtValue::F64(apply!(a, b))),
        _ => Err(InterpError::new("float binop type mismatch")),
    }
}

fn convert_value(v: &RtValue, to: ConvKind) -> Result<RtValue, InterpError> {
    Ok(match (to, v) {
        (ConvKind::Index, v) => RtValue::Index(v.as_int()?),
        (ConvKind::I1, v) => RtValue::I1(v.as_int()? != 0),
        (ConvKind::I32, RtValue::F32(f)) => RtValue::I32(*f as i32),
        (ConvKind::I32, RtValue::F64(f)) => RtValue::I32(*f as i32),
        (ConvKind::I32, v) => RtValue::I32(v.as_int()? as i32),
        (ConvKind::I64, RtValue::F32(f)) => RtValue::I64(*f as i64),
        (ConvKind::I64, RtValue::F64(f)) => RtValue::I64(*f as i64),
        (ConvKind::I64, v) => RtValue::I64(v.as_int()?),
        (ConvKind::F32, RtValue::F32(f)) => RtValue::F32(*f),
        (ConvKind::F32, RtValue::F64(f)) => RtValue::F32(*f as f32),
        (ConvKind::F32, v) => RtValue::F32(v.as_int()? as f32),
        (ConvKind::F64, RtValue::F32(f)) => RtValue::F64(*f as f64),
        (ConvKind::F64, RtValue::F64(f)) => RtValue::F64(*f),
        (ConvKind::F64, v) => RtValue::F64(v.as_int()? as f64),
    })
}

/// Offset of `idx` in a rank-1 memref; anything else (wrong rank, out of
/// bounds) takes the general path for its error.
fn rank1_offset(m: &MemRefVal, idx: i64) -> Result<usize, InterpError> {
    match m.shape[..] {
        [extent] if (0..extent).contains(&idx) => Ok(idx as usize),
        _ => m.linear_index(&[idx]),
    }
}

/// [`MemRefVal::linear_index`] over index values still in the frame.
fn linear_offset(m: &MemRefVal, frame: &[RtValue], idx: &[Slot]) -> Result<usize, InterpError> {
    let mut indices = [0i64; 4];
    if idx.len() > indices.len() {
        let indices: Vec<i64> = idx
            .iter()
            .map(|&s| frame[s as usize].as_int())
            .collect::<Result<_, _>>()?;
        return m.linear_index(&indices);
    }
    for (i, &s) in indices.iter_mut().zip(idx) {
        *i = frame[s as usize].as_int()?;
    }
    m.linear_index(&indices[..idx.len()])
}

fn load_buffer(buffer: &Buffer, off: usize) -> Result<RtValue, InterpError> {
    let oob = |len: usize| InterpError::new(format!("load offset {off} out of bounds ({len})"));
    Ok(match buffer {
        Buffer::F32(v) => RtValue::F32(*v.get(off).ok_or_else(|| oob(v.len()))?),
        Buffer::F64(v) => RtValue::F64(*v.get(off).ok_or_else(|| oob(v.len()))?),
        Buffer::I32(v) => RtValue::I32(*v.get(off).ok_or_else(|| oob(v.len()))?),
        Buffer::I64(v) => RtValue::I64(*v.get(off).ok_or_else(|| oob(v.len()))?),
        Buffer::I1(v) => RtValue::I1(*v.get(off).ok_or_else(|| oob(v.len()))?),
    })
}

fn store_buffer(buffer: &mut Buffer, off: usize, value: &RtValue) -> Result<(), InterpError> {
    let oob = || InterpError::new("store out of bounds");
    // Bounds before the value's kind: the slot is resolved first.
    match buffer {
        Buffer::F32(v) => {
            let slot = v.get_mut(off).ok_or_else(oob)?;
            *slot = value.as_float()? as f32;
        }
        Buffer::F64(v) => {
            let slot = v.get_mut(off).ok_or_else(oob)?;
            *slot = value.as_float()?;
        }
        Buffer::I32(v) => {
            let slot = v.get_mut(off).ok_or_else(oob)?;
            *slot = value.as_int()? as i32;
        }
        Buffer::I64(v) => {
            let slot = v.get_mut(off).ok_or_else(oob)?;
            *slot = value.as_int()?;
        }
        Buffer::I1(v) => {
            let slot = v.get_mut(off).ok_or_else(oob)?;
            *slot = value.as_int()? != 0;
        }
    }
    Ok(())
}

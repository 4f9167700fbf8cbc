//! The execution engine: functions lowered once to slot-indexed bytecode
//! (by `lower.rs`) and the run loop that executes them.
//!
//! The **frame** of a call is struct-of-arrays: `tags[slot]` is the value's
//! runtime kind (one byte, see [`tag`]) and `vals[slot]` its payload in one
//! `u64` — integers sign-extended, `f32`/`f64` as their bits, a memref as an
//! index into the frame's descriptor table `mems`. A scalar hand-off between
//! two instructions is therefore one 8-byte store read back by one 8-byte
//! load, and moving a memref copies an index, not a shape vector. Kinds stay
//! dynamic: callers choose each argument's kind, and a result's kind follows
//! its operand's *runtime* kind exactly as [`RtValue`] arithmetic does.
//!
//! A [`Program`] holds OpIds of the [`Ir`] it was lowered from and must be
//! run against that same `Ir` (hooks and observers receive the ids).
//!
//! A `Program` keeps the scratch of finished calls: the frames (with their
//! hook-argument vectors) and the [`Strips`] state. A call takes one
//! scratch at entry and gives it back at exit, so a warm call allocates
//! neither; calls running at once on several threads each hold their own.
//! Nothing in a scratch outlives its use: a frame is reset from the
//! function's image at call entry, the hook arguments are refilled per
//! hook, and a strip sets every state entry before it reads it.

use std::collections::HashMap;
use std::sync::Mutex;

use ftn_mlir::{Ir, OpId};

use crate::error::InterpError;
use crate::interp::{DialectHooks, Observer};
use crate::memory::{Buffer, Memory};
use crate::strip::{self, Strips};
use crate::value::{MemRefVal, RtValue};

/// Index of a value in a function's frame.
pub(crate) type Slot = u32;

/// A run of entries in `Function::slots`.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotRange {
    pub start: u32,
    pub len: u32,
}

/// Runtime kinds, one per [`RtValue`] variant. The integer kinds are
/// contiguous so "is an integer" is one compare.
pub(crate) mod tag {
    pub const UNIT: u8 = 0;
    pub const I1: u8 = 1;
    pub const I32: u8 = 2;
    pub const I64: u8 = 3;
    pub const INDEX: u8 = 4;
    pub const F32: u8 = 5;
    pub const F64: u8 = 6;
    pub const MEMREF: u8 = 7;
    pub const KERNEL_HANDLE: u8 = 8;
    pub const DMA_TAG: u8 = 9;
    pub const AXI_PROTOCOL: u8 = 10;
    pub const OPAQUE: u8 = 11;

    #[inline(always)]
    pub fn is_int(tag: u8) -> bool {
        tag.wrapping_sub(I1) <= INDEX - I1
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FloatOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CmpIPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CmpFPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

/// Target kind of a conversion, resolved from the result type at lowering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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
#[derive(Clone, Copy, PartialEq, Eq)]
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

impl Instr {
    /// The slots the instruction reads directly (ranges live in
    /// `Function::slots`).
    pub(crate) fn reads(&self, mut each: impl FnMut(Slot)) {
        match *self {
            Instr::IntBin { lhs, rhs, .. }
            | Instr::FloatBin { lhs, rhs, .. }
            | Instr::CmpI { lhs, rhs, .. }
            | Instr::CmpF { lhs, rhs, .. } => {
                each(lhs);
                each(rhs);
            }
            Instr::NegF { src, .. }
            | Instr::Convert { src, .. }
            | Instr::Move { src, .. }
            | Instr::AxiProtocol { src, .. } => each(src),
            Instr::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                each(cond);
                each(on_true);
                each(on_false);
            }
            Instr::Load1 { mem, idx, .. } => {
                each(mem);
                each(idx);
            }
            Instr::Store1 { val, mem, idx } => {
                each(val);
                each(mem);
                each(idx);
            }
            Instr::Load { mem, .. } => each(mem),
            Instr::Store { val, mem, .. } => {
                each(val);
                each(mem);
            }
            Instr::Dim { mem, dim, .. } => {
                each(mem);
                each(dim);
            }
            Instr::Copy { src, dst } => {
                each(src);
                each(dst);
            }
            Instr::Charge(_)
            | Instr::Alloc(_)
            | Instr::Loop(_)
            | Instr::If(_)
            | Instr::Hook(_)
            | Instr::Return(_)
            | Instr::Trap(_) => {}
        }
    }
}

// The run loop streams these; a new form must not widen the enum.
const _: () = assert!(std::mem::size_of::<Instr>() == 20);

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
    /// Set when the loop's iterations can run in strips (see `strip.rs`).
    pub strip: Option<strip::Plan>,
}

impl Loop {
    /// Whether the iteration at `iv` runs.
    #[inline(always)]
    pub(crate) fn runs(&self, iv: i64, ub: i64) -> bool {
        match self.inclusive {
            true => iv <= ub,
            false => iv < ub,
        }
    }
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
    /// Initial frame image: constants already in their slots, `Unit`
    /// elsewhere. A call copies the two arrays and writes the parameters.
    pub tags: Vec<u8>,
    pub vals: Vec<u64>,
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
    pub(crate) fn range(&self, r: SlotRange) -> &[Slot] {
        &self.slots[r.start as usize..(r.start + r.len) as usize]
    }
}

/// A set of functions of one module, lowered to bytecode.
pub struct Program {
    pub(crate) funcs: Vec<Function>,
    pub(crate) by_name: HashMap<String, usize>,
    /// Scratch of finished calls, reused by the next ones.
    pub(crate) scratch: Mutex<Vec<Scratch>>,
}

/// What a call works in besides memory: one frame per call depth and the
/// strip state. See the module docs.
#[derive(Default)]
pub(crate) struct Scratch {
    frames: Vec<Frame>,
    strips: Strips,
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
        let scratch = self.scratch().pop().unwrap_or_default();
        let mut run = Run {
            ir,
            program: self,
            memory,
            hooks,
            observer,
            steps: 0,
            max_steps,
            scratch,
        };
        let result = run.call(func, args);
        self.scratch().push(run.scratch);
        result
    }

    fn scratch(&self) -> std::sync::MutexGuard<'_, Vec<Scratch>> {
        // The lock is never held across a call, so a panic cannot poison
        // what it guards.
        self.scratch.lock().unwrap_or_else(|e| e.into_inner())
    }
}

// ---- the frame ----------------------------------------------------------------------

/// An open `scf.for`-like loop or `scf.if` branch of the running function:
/// what the run loop needs when the region's code range ends.
#[derive(Clone, Copy)]
enum Ctrl {
    Loop {
        index: u32,
        /// First instruction of the body.
        body: u32,
        /// `end` of the enclosing range, restored when the loop exits.
        outer_end: u32,
        iv: i64,
        ub: i64,
        step: i64,
        trip: u64,
    },
    If {
        index: u32,
        outer_end: u32,
        yields: SlotRange,
    },
}

/// The storage of one call. Frames of finished calls are kept in the
/// program's [`Scratch`] and reused by the next call at their depth.
#[derive(Default)]
struct Frame {
    tags: Vec<u8>,
    vals: Vec<u64>,
    /// Memref descriptors referenced by `MEMREF` slots; append-only within
    /// a call, so an index copied by `Move`/`Select`/a loop carry stays valid.
    mems: Vec<MemRefVal>,
    ctrl: Vec<Ctrl>,
    /// The arguments of the hook being run, refilled for each one.
    args: Vec<RtValue>,
}

impl Frame {
    fn reset(&mut self, f: &Function) {
        self.tags.clear();
        self.tags.extend_from_slice(&f.tags);
        self.vals.clear();
        self.vals.extend_from_slice(&f.vals);
        self.mems.clear();
        self.ctrl.clear();
    }
}

/// The frame as the cold path sees it (the run loop keeps the two slices
/// in locals).
struct Cells<'f> {
    tags: &'f mut [u8],
    vals: &'f mut [u64],
    mems: &'f mut Vec<MemRefVal>,
    args: &'f mut Vec<RtValue>,
}

impl Cells<'_> {
    fn get(&self, s: Slot) -> RtValue {
        decode(self.tags[s as usize], self.vals[s as usize], self.mems)
    }

    fn set(&mut self, s: Slot, v: RtValue) {
        // A producer re-run by a loop usually yields the descriptor its slot
        // already names; keeping it keeps the table from growing per trip.
        if let (RtValue::MemRef(new), tag::MEMREF) = (&v, self.tags[s as usize]) {
            if self.mems[self.vals[s as usize] as usize] == *new {
                return;
            }
        }
        let (t, bits) = encode(v, self.mems);
        self.put(s, t, bits);
    }

    fn put(&mut self, s: Slot, t: u8, bits: u64) {
        self.tags[s as usize] = t;
        self.vals[s as usize] = bits;
    }

    fn copy(&mut self, dst: Slot, src: Slot) {
        self.put(dst, self.tags[src as usize], self.vals[src as usize]);
    }

    fn int(&self, s: Slot) -> Result<i64, InterpError> {
        match tag::is_int(self.tags[s as usize]) {
            true => Ok(self.vals[s as usize] as i64),
            false => Err(expected("integer", self.tags, self.vals, self.mems, s)),
        }
    }

    fn float(&self, s: Slot) -> Result<f64, InterpError> {
        as_float(self.tags[s as usize], self.vals[s as usize])
            .ok_or_else(|| expected("float", self.tags, self.vals, self.mems, s))
    }

    fn bool(&self, s: Slot) -> Result<bool, InterpError> {
        match self.tags[s as usize] {
            tag::I1 => Ok(self.vals[s as usize] != 0),
            _ => Err(expected("i1", self.tags, self.vals, self.mems, s)),
        }
    }

    fn memref(&self, s: Slot) -> Result<&MemRefVal, InterpError> {
        match self.tags[s as usize] {
            tag::MEMREF => Ok(&self.mems[self.vals[s as usize] as usize]),
            _ => Err(expected("memref", self.tags, self.vals, self.mems, s)),
        }
    }
}

/// A scalar [`RtValue`] as its frame cell; `None` for a memref.
pub(crate) fn scalar_cell(v: &RtValue) -> Option<(u8, u64)> {
    Some(match *v {
        RtValue::I1(b) => (tag::I1, b as u64),
        RtValue::I32(x) => (tag::I32, x as i64 as u64),
        RtValue::I64(x) => (tag::I64, x as u64),
        RtValue::Index(x) => (tag::INDEX, x as u64),
        RtValue::F32(x) => (tag::F32, x.to_bits() as u64),
        RtValue::F64(x) => (tag::F64, x.to_bits()),
        RtValue::MemRef(_) => return None,
        RtValue::KernelHandle(x) => (tag::KERNEL_HANDLE, x),
        RtValue::DmaTag(x) => (tag::DMA_TAG, x),
        RtValue::AxiProtocol(x) => (tag::AXI_PROTOCOL, x as u64),
        RtValue::Opaque(x) => (tag::OPAQUE, x),
        RtValue::Unit => (tag::UNIT, 0),
    })
}

fn encode(v: RtValue, mems: &mut Vec<MemRefVal>) -> (u8, u64) {
    match v {
        RtValue::MemRef(m) => {
            mems.push(m);
            (tag::MEMREF, mems.len() as u64 - 1)
        }
        scalar => scalar_cell(&scalar).expect("not a memref"),
    }
}

pub(crate) fn decode(t: u8, bits: u64, mems: &[MemRefVal]) -> RtValue {
    match t {
        tag::I1 => RtValue::I1(bits != 0),
        tag::I32 => RtValue::I32(bits as i32),
        tag::I64 => RtValue::I64(bits as i64),
        tag::INDEX => RtValue::Index(bits as i64),
        tag::F32 => RtValue::F32(f32::from_bits(bits as u32)),
        tag::F64 => RtValue::F64(f64::from_bits(bits)),
        tag::MEMREF => RtValue::MemRef(mems[bits as usize].clone()),
        tag::KERNEL_HANDLE => RtValue::KernelHandle(bits),
        tag::DMA_TAG => RtValue::DmaTag(bits),
        tag::AXI_PROTOCOL => RtValue::AxiProtocol(bits as i64),
        tag::OPAQUE => RtValue::Opaque(bits),
        _ => RtValue::Unit,
    }
}

// ---- errors: built out of line, so the run loop only branches to them -------------

#[cold]
#[inline(never)]
fn expected(what: &str, tags: &[u8], vals: &[u64], mems: &[MemRefVal], s: Slot) -> InterpError {
    let got = decode(tags[s as usize], vals[s as usize], mems);
    InterpError::new(format!("expected {what}, got {got:?}"))
}

#[cold]
#[inline(never)]
fn error(message: &str) -> InterpError {
    InterpError::new(message)
}

// ---- the run loop -------------------------------------------------------------------

/// What the cold path tells the run loop to do next.
enum Step {
    Next,
    /// Continue at `pc`, the current code range now ending at `end`.
    Jump {
        pc: usize,
        end: usize,
    },
    Return(Vec<RtValue>),
}

struct Run<'a> {
    ir: &'a Ir,
    program: &'a Program,
    memory: &'a mut Memory,
    hooks: &'a mut dyn DialectHooks,
    observer: &'a mut dyn Observer,
    steps: u64,
    max_steps: u64,
    scratch: Scratch,
}

impl<'a> Run<'a> {
    /// Charge a block's ops on entry, so a program exhausts the budget at
    /// the same threshold as one charged op by op.
    #[inline(always)]
    fn charge(&mut self, ops: u32) -> Result<(), InterpError> {
        self.steps += ops as u64;
        if self.steps > self.max_steps {
            return Err(error("interpreter step budget exhausted"));
        }
        Ok(())
    }

    /// Run `func` on a frame from the reusable stack.
    fn call(&mut self, func: usize, args: &[RtValue]) -> Result<Vec<RtValue>, InterpError> {
        let mut frame = self.scratch.frames.pop().unwrap_or_default();
        let result = self.call_on(func, args, &mut frame);
        self.scratch.frames.push(frame);
        result
    }

    fn call_on(
        &mut self,
        func: usize,
        args: &[RtValue],
        frame: &mut Frame,
    ) -> Result<Vec<RtValue>, InterpError> {
        let f = &self.program.funcs[func];
        if f.params.len() != args.len() {
            return Err(InterpError::new(format!(
                "function '{}' expects {} args, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        frame.reset(f);
        for (&p, a) in f.params.iter().zip(args) {
            let (t, bits) = encode(a.clone(), &mut frame.mems);
            frame.tags[p as usize] = t;
            frame.vals[p as usize] = bits;
        }
        self.charge(f.entry_ops)?;
        self.exec(f, frame)
    }

    /// Execute `f` on `frame` from its first instruction; returns what its
    /// `Return` yields (nothing when the code runs off the end).
    ///
    /// Only the arms a kernel body spends its time in are decoded here; the
    /// rest go through [`Run::slow`]. Loop back-edges and `if` joins happen
    /// at the bottom of this loop, when the current code range ends, so a
    /// function body never re-enters `exec`.
    fn exec(&mut self, f: &'a Function, frame: &mut Frame) -> Result<Vec<RtValue>, InterpError> {
        let Frame {
            tags,
            vals,
            mems,
            ctrl,
            args,
        } = frame;
        // One length for both arrays, so one bounds check covers a slot.
        let slots = tags.len().min(vals.len());
        let (tags, vals) = (&mut tags[..slots], &mut vals[..slots]);
        let code = &f.code[..];
        let (mut pc, mut end) = (0usize, code.len());

        macro_rules! int {
            ($s:expr) => {{
                let s = $s as usize;
                if !tag::is_int(tags[s]) {
                    return Err(expected("integer", tags, vals, mems, $s));
                }
                vals[s] as i64
            }};
        }
        macro_rules! memref {
            ($s:expr) => {{
                let s = $s as usize;
                if tags[s] != tag::MEMREF {
                    return Err(expected("memref", tags, vals, mems, $s));
                }
                &mems[vals[s] as usize]
            }};
        }
        macro_rules! cell {
            ($s:expr) => {
                (tags[$s as usize], vals[$s as usize])
            };
        }
        macro_rules! put {
            ($s:expr, $cell:expr) => {{
                let (t, bits) = $cell;
                tags[$s as usize] = t;
                vals[$s as usize] = bits;
            }};
        }

        loop {
            while pc < end {
                match code[pc] {
                    Instr::IntBin { op, dst, lhs, rhs } => {
                        let (l, r) = (int!(lhs), int!(rhs));
                        let out = match op {
                            IntOp::Add => l.wrapping_add(r),
                            IntOp::Sub => l.wrapping_sub(r),
                            IntOp::Mul => l.wrapping_mul(r),
                            _ => int_binop_rare(op, l, r)?,
                        };
                        let t = tags[lhs as usize];
                        put!(dst, (t, wrap_int(t, out)));
                    }
                    Instr::FloatBin { op, dst, lhs, rhs } => {
                        put!(dst, float_binop(op, cell!(lhs), cell!(rhs))?);
                    }
                    Instr::Convert { to, dst, src } => {
                        let (t, bits) = cell!(src);
                        match convert(t, bits, to) {
                            Some(cell) => put!(dst, cell),
                            None => return Err(expected("integer", tags, vals, mems, src)),
                        }
                    }
                    Instr::Move { dst, src } => put!(dst, cell!(src)),
                    // The memref is checked before the index.
                    Instr::Load1 { dst, mem, idx } => {
                        let m = memref!(mem);
                        let off = rank1_offset(m, int!(idx))?;
                        put!(dst, load_buffer(self.memory.get(m.buffer), off)?);
                    }
                    Instr::Store1 { val, mem, idx } => {
                        let m = memref!(mem);
                        let off = rank1_offset(m, int!(idx))?;
                        let buffer = self.memory.get_mut(m.buffer);
                        if let Err(what) = store_buffer(buffer, off, cell!(val)) {
                            return Err(store_error(what, tags, vals, mems, val));
                        }
                    }
                    other => {
                        let mut cells = Cells {
                            tags: &mut *tags,
                            vals: &mut *vals,
                            mems: &mut *mems,
                            args: &mut *args,
                        };
                        match self.slow(f, &mut cells, ctrl, other, pc, end)? {
                            Step::Next => {}
                            Step::Jump { pc: to, end: until } => {
                                (pc, end) = (to, until);
                                continue;
                            }
                            Step::Return(values) => return Ok(values),
                        }
                    }
                }
                pc += 1;
            }

            // The current code range ended: a loop's back-edge, an `if`'s
            // join, or the end of the function.
            let Some(&top) = ctrl.last() else {
                return Ok(vec![]);
            };
            match top {
                Ctrl::Loop {
                    index,
                    body,
                    outer_end,
                    iv,
                    ub,
                    step,
                    trip,
                } => {
                    let l = &f.loops[index as usize];
                    let (results, yields) = (f.range(l.results), f.range(l.yields));
                    for (&r, &y) in results.iter().zip(yields) {
                        put!(r, cell!(y));
                    }
                    let (iv, trip) = (iv.wrapping_add(step), trip + 1);
                    if l.runs(iv, ub) {
                        self.charge(l.body_ops)?;
                        put!(l.iv, (tag::INDEX, iv as u64));
                        for (&a, &r) in f.range(l.args).iter().zip(results) {
                            put!(a, cell!(r));
                        }
                        if let Some(Ctrl::Loop { iv: i, trip: t, .. }) = ctrl.last_mut() {
                            (*i, *t) = (iv, trip);
                        }
                        pc = body as usize;
                    } else {
                        self.observer.loop_executed(self.ir, l.op, trip);
                        ctrl.pop();
                        (pc, end) = (l.end as usize, outer_end as usize);
                    }
                }
                Ctrl::If {
                    index,
                    outer_end,
                    yields,
                } => {
                    let s = &f.ifs[index as usize];
                    for (&r, &y) in f.range(s.results).iter().zip(f.range(yields)) {
                        put!(r, cell!(y));
                    }
                    ctrl.pop();
                    (pc, end) = (s.end as usize, outer_end as usize);
                }
            }
        }
    }
}

// ---- the cold path ------------------------------------------------------------------

impl<'a> Run<'a> {
    /// Every instruction the run loop does not decode itself. `pc` is the
    /// instruction's position and `end` the end of the current code range.
    #[inline(never)]
    fn slow(
        &mut self,
        f: &'a Function,
        cells: &mut Cells,
        ctrl: &mut Vec<Ctrl>,
        instr: Instr,
        pc: usize,
        end: usize,
    ) -> Result<Step, InterpError> {
        match instr {
            Instr::NegF { dst, src } => {
                let v = -cells.float(src)?;
                let bits = match cells.tags[src as usize] {
                    tag::F32 => (v as f32).to_bits() as u64,
                    _ => v.to_bits(),
                };
                cells.put(dst, cells.tags[src as usize], bits);
            }
            Instr::CmpI {
                pred,
                dst,
                lhs,
                rhs,
            } => {
                let (l, r) = (cells.int(lhs)?, cells.int(rhs)?);
                let out = match pred {
                    CmpIPred::Eq => l == r,
                    CmpIPred::Ne => l != r,
                    CmpIPred::Slt => l < r,
                    CmpIPred::Sle => l <= r,
                    CmpIPred::Sgt => l > r,
                    CmpIPred::Sge => l >= r,
                };
                cells.put(dst, tag::I1, out as u64);
            }
            Instr::CmpF {
                pred,
                dst,
                lhs,
                rhs,
            } => {
                let (l, r) = (cells.float(lhs)?, cells.float(rhs)?);
                let out = match pred {
                    CmpFPred::Oeq => l == r,
                    CmpFPred::One => l != r,
                    CmpFPred::Olt => l < r,
                    CmpFPred::Ole => l <= r,
                    CmpFPred::Ogt => l > r,
                    CmpFPred::Oge => l >= r,
                };
                cells.put(dst, tag::I1, out as u64);
            }
            Instr::Select {
                dst,
                cond,
                on_true,
                on_false,
            } => {
                let pick = if cells.bool(cond)? { on_true } else { on_false };
                cells.copy(dst, pick);
            }
            Instr::AxiProtocol { dst, src } => {
                let mode = cells.int(src)?;
                cells.put(dst, tag::AXI_PROTOCOL, mode as u64);
            }
            Instr::Load { dst, mem, idx } => {
                let m = cells.memref(mem)?;
                let off = linear_offset(m, cells, f.range(idx))?;
                let (t, bits) = load_buffer(self.memory.get(m.buffer), off)?;
                cells.put(dst, t, bits);
            }
            Instr::Store { val, mem, idx } => {
                let m = cells.memref(mem)?;
                let off = linear_offset(m, cells, f.range(idx))?;
                let cell = (cells.tags[val as usize], cells.vals[val as usize]);
                if let Err(what) = store_buffer(self.memory.get_mut(m.buffer), off, cell) {
                    return Err(store_error(what, cells.tags, cells.vals, cells.mems, val));
                }
            }
            Instr::Dim { dst, mem, dim } => {
                let m = cells.memref(mem)?;
                let d = cells.int(dim)? as usize;
                let extent = *m
                    .shape
                    .get(d)
                    .ok_or_else(|| InterpError::new("memref.dim out of rank"))?;
                cells.put(dst, tag::INDEX, extent as u64);
            }
            Instr::Copy { src, dst } => {
                let s = cells.memref(src)?.buffer;
                let d = cells.memref(dst)?.buffer;
                self.memory.copy(s, d)?;
            }
            Instr::Charge(ops) => self.charge(ops)?,
            Instr::Alloc(i) => {
                let a = &f.allocs[i as usize];
                let m = self.alloc(a, cells, f.range(a.sizes))?;
                cells.set(a.dst, m);
            }
            Instr::Loop(i) => {
                let l = &f.loops[i as usize];
                let lb = cells.int(l.lb)?;
                let ub = cells.int(l.ub)?;
                let step = cells.int(l.step)?;
                if step <= 0 {
                    return Err(InterpError::new(format!(
                        "{} requires positive step",
                        l.name
                    )));
                }
                let results = f.range(l.results);
                for (&r, &init) in results.iter().zip(f.range(l.inits)) {
                    cells.copy(r, init);
                }
                // Strips take what iterations they can; the rest, from the
                // exact iteration, are the run loop's.
                let (mut iv, mut trip) = (lb, 0);
                if let Some(plan) = &l.strip {
                    let caller = strip::Caller {
                        tags: &mut *cells.tags,
                        vals: &mut *cells.vals,
                        mems: &*cells.mems,
                        memory: &mut *self.memory,
                        steps: &mut self.steps,
                        max_steps: self.max_steps,
                    };
                    let body = &f.code[pc + 1..l.end as usize];
                    (iv, trip) = self
                        .scratch
                        .strips
                        .run(body, l, plan, caller, (lb, ub, step));
                }
                if !l.runs(iv, ub) {
                    self.observer.loop_executed(self.ir, l.op, trip);
                    return Ok(Step::Jump {
                        pc: l.end as usize,
                        end,
                    });
                }
                self.charge(l.body_ops)?;
                cells.put(l.iv, tag::INDEX, iv as u64);
                for (&a, &r) in f.range(l.args).iter().zip(results) {
                    cells.copy(a, r);
                }
                ctrl.push(Ctrl::Loop {
                    index: i,
                    body: pc as u32 + 1,
                    outer_end: end as u32,
                    iv,
                    ub,
                    step,
                    trip,
                });
                return Ok(Step::Jump {
                    pc: pc + 1,
                    end: l.end as usize,
                });
            }
            Instr::If(i) => {
                let s = &f.ifs[i as usize];
                let (ops, start, stop, yields) = if cells.bool(s.cond)? {
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
                ctrl.push(Ctrl::If {
                    index: i,
                    outer_end: end as u32,
                    yields,
                });
                return Ok(Step::Jump {
                    pc: start,
                    end: stop,
                });
            }
            Instr::Hook(i) => self.run_hook(f, cells, &f.hooks[i as usize])?,
            Instr::Return(values) => {
                let values = f.range(values).iter().map(|&s| cells.get(s)).collect();
                return Ok(Step::Return(values));
            }
            Instr::Trap(i) => return Err(InterpError::new(f.traps[i as usize].clone())),
            // Decoded by the run loop itself.
            Instr::IntBin { .. }
            | Instr::FloatBin { .. }
            | Instr::Convert { .. }
            | Instr::Move { .. }
            | Instr::Load1 { .. }
            | Instr::Store1 { .. } => unreachable!("hot instruction on the cold path"),
        }
        Ok(Step::Next)
    }

    fn alloc(&mut self, a: &Alloc, cells: &Cells, sizes: &[Slot]) -> Result<RtValue, InterpError> {
        let mut sizes = sizes.iter();
        let mut shape = Vec::with_capacity(a.shape.len());
        for &d in &a.shape {
            shape.push(if d == ftn_mlir::types::DYN_DIM {
                let &s = sizes
                    .next()
                    .ok_or_else(|| InterpError::new("missing dynamic size"))?;
                cells.int(s)?
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

    fn run_hook(&mut self, f: &Function, cells: &mut Cells, h: &Hook) -> Result<(), InterpError> {
        let Cells {
            tags,
            vals,
            mems,
            args,
        } = cells;
        args.clear();
        let each = f.range(h.args).iter();
        args.extend(each.map(|&s| decode(tags[s as usize], vals[s as usize], mems)));
        let handled = self.hooks.handle_op(self.ir, self.memory, h.op, args)?;
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
            (Fallback::Call(callee), None) => self.call(*callee, args)?,
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
            cells.set(r, v);
        }
        Ok(())
    }
}

// ---- scalar semantics on (tag, bits) cells --------------------------------------------

/// `RtValue::with_int`: payload `v` as the integer kind `t` holds it.
#[inline(always)]
pub(crate) fn wrap_int(t: u8, v: i64) -> u64 {
    match t {
        tag::I1 => (v != 0) as u64,
        tag::I32 => v as i32 as i64 as u64,
        _ => v as u64,
    }
}

#[inline(always)]
pub(crate) fn as_float(t: u8, bits: u64) -> Option<f64> {
    match t {
        tag::F32 => Some(f32::from_bits(bits as u32) as f64),
        tag::F64 => Some(f64::from_bits(bits)),
        _ => None,
    }
}

#[inline(never)]
fn int_binop_rare(op: IntOp, l: i64, r: i64) -> Result<i64, InterpError> {
    Ok(match op {
        IntOp::Add | IntOp::Sub | IntOp::Mul => unreachable!("decoded by the run loop"),
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

#[inline(always)]
pub(crate) fn float_binop(
    op: FloatOp,
    l: (u8, u64),
    r: (u8, u64),
) -> Result<(u8, u64), InterpError> {
    macro_rules! apply {
        ($a:expr, $b:expr) => {
            match op {
                FloatOp::Add => $a + $b,
                FloatOp::Sub => $a - $b,
                FloatOp::Mul => $a * $b,
                FloatOp::Div => $a / $b,
                FloatOp::Max => $a.max($b),
                FloatOp::Min => $a.min($b),
            }
        };
    }
    // f32 ops must round through f32 to match hardware semantics.
    match (l.0, r.0) {
        (tag::F32, tag::F32) => {
            let (a, b) = (f32::from_bits(l.1 as u32), f32::from_bits(r.1 as u32));
            Ok((tag::F32, apply!(a, b).to_bits() as u64))
        }
        (tag::F64, tag::F64) => {
            let (a, b) = (f64::from_bits(l.1), f64::from_bits(r.1));
            Ok((tag::F64, apply!(a, b).to_bits()))
        }
        _ => Err(error("float binop type mismatch")),
    }
}

/// `None`: the source is no integer where one is required.
#[inline(always)]
pub(crate) fn convert(t: u8, bits: u64, to: ConvKind) -> Option<(u8, u64)> {
    // An integer converts to every target.
    if tag::is_int(t) {
        let v = bits as i64;
        return Some(match to {
            ConvKind::Index => (tag::INDEX, v as u64),
            ConvKind::I1 => (tag::I1, (v != 0) as u64),
            ConvKind::I32 => (tag::I32, v as i32 as i64 as u64),
            ConvKind::I64 => (tag::I64, v as u64),
            ConvKind::F32 => (tag::F32, (v as f32).to_bits() as u64),
            ConvKind::F64 => (tag::F64, (v as f64).to_bits()),
        });
    }
    // Widening an f32 is exact, so the saturating float-to-integer casts
    // give what they would on the f32 itself.
    let f = as_float(t, bits)?;
    Some(match to {
        ConvKind::Index | ConvKind::I1 => return None,
        ConvKind::I32 => (tag::I32, f as i32 as i64 as u64),
        ConvKind::I64 => (tag::I64, f as i64 as u64),
        ConvKind::F32 if t == tag::F32 => (tag::F32, bits),
        ConvKind::F32 => (tag::F32, (f as f32).to_bits() as u64),
        ConvKind::F64 => (tag::F64, f.to_bits()),
    })
}

/// Offset of `idx` in a rank-1 memref; anything else (wrong rank, out of
/// bounds) takes the general path for its error.
#[inline(always)]
fn rank1_offset(m: &MemRefVal, idx: i64) -> Result<usize, InterpError> {
    match m.shape[..] {
        [extent] if (0..extent).contains(&idx) => Ok(idx as usize),
        _ => bad_rank1_access(m, idx),
    }
}

#[cold]
#[inline(never)]
fn bad_rank1_access(m: &MemRefVal, idx: i64) -> Result<usize, InterpError> {
    m.linear_index(&[idx])
}

/// [`MemRefVal::linear_index`] over index values still in the frame.
fn linear_offset(m: &MemRefVal, cells: &Cells, idx: &[Slot]) -> Result<usize, InterpError> {
    let indices: Vec<i64> = idx
        .iter()
        .map(|&s| cells.int(s))
        .collect::<Result<_, _>>()?;
    m.linear_index(&indices)
}

#[inline(always)]
pub(crate) fn load_buffer(buffer: &Buffer, off: usize) -> Result<(u8, u64), InterpError> {
    macro_rules! at {
        ($v:expr, $t:expr, $bits:expr) => {
            match $v.get(off) {
                Some(x) => Ok(($t, $bits(*x))),
                None => Err(load_out_of_bounds(off, $v.len())),
            }
        };
    }
    match buffer {
        Buffer::F32(v) => at!(v, tag::F32, |x: f32| x.to_bits() as u64),
        Buffer::F64(v) => at!(v, tag::F64, |x: f64| x.to_bits()),
        Buffer::I32(v) => at!(v, tag::I32, |x: i32| x as i64 as u64),
        Buffer::I64(v) => at!(v, tag::I64, |x: i64| x as u64),
        Buffer::I1(v) => at!(v, tag::I1, |x: bool| x as u64),
    }
}

#[cold]
#[inline(never)]
fn load_out_of_bounds(off: usize, len: usize) -> InterpError {
    InterpError::new(format!("load offset {off} out of bounds ({len})"))
}

/// Why a store failed: out of bounds (`None`) or a value that is not the
/// named kind. Bounds come before the value's kind: the element is resolved
/// first.
#[inline(always)]
fn store_buffer(
    buffer: &mut Buffer,
    off: usize,
    (t, bits): (u8, u64),
) -> Result<(), Option<&'static str>> {
    let int = || match tag::is_int(t) {
        true => Ok(bits as i64),
        false => Err(Some("integer")),
    };
    match buffer {
        Buffer::F32(v) => {
            let slot = v.get_mut(off).ok_or(None)?;
            *slot = as_float(t, bits).ok_or(Some("float"))? as f32;
        }
        Buffer::F64(v) => {
            let slot = v.get_mut(off).ok_or(None)?;
            *slot = as_float(t, bits).ok_or(Some("float"))?;
        }
        Buffer::I32(v) => {
            let slot = v.get_mut(off).ok_or(None)?;
            *slot = int()? as i32;
        }
        Buffer::I64(v) => {
            let slot = v.get_mut(off).ok_or(None)?;
            *slot = int()?;
        }
        Buffer::I1(v) => {
            let slot = v.get_mut(off).ok_or(None)?;
            *slot = int()? != 0;
        }
    }
    Ok(())
}

#[cold]
#[inline(never)]
fn store_error(
    what: Option<&str>,
    tags: &[u8],
    vals: &[u64],
    mems: &[MemRefVal],
    val: Slot,
) -> InterpError {
    match what {
        None => InterpError::new("store out of bounds"),
        Some(kind) => expected(kind, tags, vals, mems, val),
    }
}

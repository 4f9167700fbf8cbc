//! Strip execution: an innermost straight-line loop run one instruction
//! across up to [`LANES`] iterations at a time, so the run loop's dispatch
//! and kind checks are paid once per strip instead of once per iteration.
//!
//! **Plan** (the last step of lowering a function): a loop is planned when it carries
//! no values and its body holds only the instructions the run loop decodes
//! itself, each result slot is written once and read only after it is
//! written, and the body writes neither the induction variable nor a slot it
//! uses as a memref. The plan assigns lane registers by last use, so a
//! body's working set is a few registers however long it is. **Strip**
//! (`Instr::Loop` entry): while at least [`MIN_LANES`] iterations remain,
//! `b = min(LANES, iterations left)` of them run as one strip. **Commit or
//! fall back**: a strip that passed every check is applied; the first one
//! that did not ends strip execution for this loop instance and the scalar
//! run loop continues from that exact iteration. The scalar engine is the
//! only place an error is ever raised.
//!
//! A value inside a strip is one of three things, decided at run time from
//! what the operands *are* (never from the IR's types, which callers are
//! free to contradict): the same in every lane (everything computed from
//! loop-invariant operands only — this is invariant hoisting with no check
//! moved, because the check still runs, once), an integer affine in the lane
//! (`base + lane * stride`, which is what addresses are), or an array of
//! `f32` / `f64` lanes. An operand's kind is read once per strip; it holds
//! for every lane by induction, since a result's kind is a function of its
//! operands' kinds and of the kind of the buffer a load reads. Anything
//! else — an integer that is not affine, a load from an integer buffer with
//! a varying index, arithmetic that would wrap — abandons the strip.
//!
//! Invariants every change here must keep:
//!
//! * **All or nothing.** A strip leaves memory, the frame, the step count
//!   and the trip count exactly as `b` scalar iterations would (frame slots
//!   hold the last lane's values), or leaves all four untouched. Nothing
//!   outside [`Strips`] is written before [`Strips::commit`]: stores are
//!   validated where they stand in the body and applied at commit, results
//!   for the frame are staged. A lane failing any check — operand kind,
//!   memref tag, rank other than 1, index outside `[0, min(extent, buffer
//!   len))`, store value kind — abandons the strip.
//! * **No lane observes another lane's store.** Stores are deferred, so
//!   every load reads memory as it was before the strip. [`Strip::load`] and
//!   [`Strip::store`] admit a store and another access of the same *runtime*
//!   buffer (two arguments may name one buffer) only when their element
//!   ranges are disjoint, or they share one non-zero stride and their bases
//!   differ by no non-zero multiple of it (equal bases: the element belongs
//!   to one lane, whose accesses happen in program order — a load *after*
//!   the store would need its value, and abandons). A zero-stride store
//!   always abandons.
//! * **Budget and trips.** A strip starts only if `steps + b * body_ops <=
//!   max_steps` and charges exactly that, so the budget still runs out at
//!   the iteration it would have; `Observer::loop_executed` fires once per
//!   loop instance with the total; a strip whose last `iv + step` would
//!   overflow `i64` is not started.

use std::ops::{Add, Div, Mul, Sub};

use crate::memory::{Buffer, BufferId, Memory};
use crate::program::{
    as_float, convert, float_binop, load_buffer, tag, wrap_int, ConvKind, FloatOp, Function, Instr,
    IntOp, Loop, Slot,
};
use crate::value::MemRefVal;

/// Iterations per strip. A strip's fixed cost is some 15–25 ns per body
/// instruction (decode, kind reads, bounds, the access rule), which the lanes
/// amortise; its working set grows with them. Measured with the peephole
/// lowering had until PR 24 (bodies of 59 and 8 instructions, now 89 and
/// 14), on the box's fast phase, ns per element, scalar path 34–35 on both:
///
/// | lanes | `saxpy_kernel0`, 131 072 elements | `jacobi_kernel0`, 65 536 |
/// |---|---|---|
/// | 64 | 4.9 | 4.5 |
/// | 128 | 3.8 | 2.5 |
/// | 256 | 3.0 | 1.3 |
/// | 512 | 2.4 | 0.9 |
/// | 1024 | 2.0 | 0.7 |
/// | 2048 | 2.4 | 0.7 |
///
/// SAXPY's 10-wide body keeps ten store registers until commit and walks two
/// windows of `10 * lanes` floats: 68 KB in all at 512, past L1 but well
/// inside L2, and the turn-around at 2048 is where it stops being so.
const LANES: usize = 512;

/// Fewest iterations worth a strip; fewer run on the scalar path. Measured on
/// one warm `sgesl_kernel0` call per trip count, µs a call, median of 30
/// rounds of 400 calls on a 2-thread box. A program keeps the strip state of
/// finished calls, so a strip call costs the same 0.72 µs whatever its trip
/// count; the scalar body costs 40–55 ns an iteration:
///
/// | trips | 2 | 4 | 5 | 6 | 8 | 12 | 16 | 32 |
/// |---|---|---|---|---|---|---|---|---|
/// | scalar | 0.58 | 0.67 | 0.75 | 0.83 | 0.88 | 1.10 | 1.32 | 2.20 |
/// | strip | 0.74 | 0.73 | 0.72 | 0.72 | 0.72 | 0.73 | 0.73 | 0.73 |
///
/// While every call sized [`Strips`] afresh a strip call cost 1.08–1.12 µs
/// and the crossover sat at 12 trips; it is at 5 now. The constant stays:
/// the loops between 5 and 15 trips on a benchmark's path (some 22 of
/// `sgesl_run`'s 383 launches a request, `launch_storm`'s 6-trip epilogue)
/// would save some 0.1–0.5 µs a launch, far below what any end-to-end row
/// resolves.
const MIN_LANES: usize = 16;

const NO_REG: u32 = u32::MAX;

// ---- the plan -----------------------------------------------------------------------

/// What lowering decided about a planned loop.
pub(crate) struct Plan {
    /// Per body instruction, the lane register its result may use.
    regs: Vec<u32>,
    /// Registers the body needs.
    reg_count: u32,
    /// Slots the body reads and never writes, the induction variable aside.
    invariants: Vec<Slot>,
}

/// The slot `instr` writes and the slots it reads (a store's value first),
/// or `None` for an instruction no planned body may hold.
fn ports(instr: &Instr) -> Option<(Option<Slot>, [Option<Slot>; 3])> {
    Some(match *instr {
        Instr::IntBin {
            op: IntOp::Add | IntOp::Sub | IntOp::Mul,
            dst,
            lhs,
            rhs,
        }
        | Instr::FloatBin { dst, lhs, rhs, .. } => (Some(dst), [Some(lhs), Some(rhs), None]),
        Instr::Convert { dst, src, .. } | Instr::Move { dst, src } => {
            (Some(dst), [Some(src), None, None])
        }
        Instr::Load1 { dst, mem, idx } => (Some(dst), [Some(mem), Some(idx), None]),
        Instr::Store1 { val, mem, idx } => (None, [Some(val), Some(mem), Some(idx)]),
        _ => return None,
    })
}

/// The memref slot of an access.
fn accessed(instr: &Instr) -> Option<Slot> {
    match *instr {
        Instr::Load1 { mem, .. } | Instr::Store1 { mem, .. } => Some(mem),
        _ => None,
    }
}

/// Where a body writes a slot (`None`: it does not; `HEADER`: it is the
/// induction variable) and the last instruction that needs the value.
#[derive(Clone, Copy)]
struct Life {
    written_at: Option<usize>,
    last_use: usize,
}

const HEADER: usize = usize::MAX;

/// [`Life`] per frame slot for the loop being planned, `None` for a slot its
/// body does not touch; one table serves all the loops of a function.
struct Lives {
    of: Vec<Option<Life>>,
    touched: Vec<Slot>,
}

impl Lives {
    fn get(&self, slot: Slot) -> Option<Life> {
        self.of[slot as usize]
    }

    fn set(&mut self, slot: Slot, life: Life) {
        if self.of[slot as usize].is_none() {
            self.touched.push(slot);
        }
        self.of[slot as usize] = Some(life);
    }

    fn clear(&mut self) {
        for slot in self.touched.drain(..) {
            self.of[slot as usize] = None;
        }
    }
}

/// Plan every loop of `f` that qualifies.
pub(crate) fn plan(f: &mut Function) {
    let mut lives = Lives {
        of: Vec::new(),
        touched: Vec::new(),
    };
    for pc in 0..f.code.len() {
        if let Instr::Loop(i) = f.code[pc] {
            lives.of.resize(f.tags.len(), None);
            let l = &f.loops[i as usize];
            let planned = plan_loop(&f.code[pc + 1..l.end as usize], l, &mut lives);
            f.loops[i as usize].strip = planned;
            lives.clear();
        }
    }
}

fn plan_loop(body: &[Instr], l: &Loop, lives: &mut Lives) -> Option<Plan> {
    if l.inits.len != 0 || l.results.len != 0 {
        return None;
    }
    let header = Life {
        written_at: Some(HEADER),
        last_use: 0,
    };
    lives.set(l.iv, header);
    for (k, instr) in body.iter().enumerate() {
        let (dst, reads) = ports(instr)?;
        let stores = dst.is_none();
        for (n, r) in reads.into_iter().enumerate() {
            let Some(r) = r else { continue };
            let mut life = lives.get(r).unwrap_or(Life {
                written_at: None,
                last_use: 0,
            });
            // A stored value is needed until the strip commits.
            life.last_use = match stores && n == 0 {
                true => usize::MAX,
                false => life.last_use.max(k),
            };
            lives.set(r, life);
        }
        if let Some(dst) = dst {
            // Written twice, written after it was read (so some iteration
            // reads the one before), or the induction variable.
            if lives.get(dst).is_some() {
                return None;
            }
            let born = Life {
                written_at: Some(k),
                last_use: k,
            };
            lives.set(dst, born);
        }
    }
    let life = |slot: Slot| lives.get(slot).expect("every port was recorded");
    if body
        .iter()
        .filter_map(accessed)
        .any(|mem| life(mem).written_at.is_some())
    {
        return None;
    }

    let mut plan = Plan {
        regs: vec![NO_REG; body.len()],
        reg_count: 0,
        invariants: Vec::new(),
    };
    let mut free: Vec<u32> = Vec::new();
    for (k, instr) in body.iter().enumerate() {
        let (dst, reads) = ports(instr).expect("checked above");
        // Integer results are never lanes.
        if dst.is_some() && !matches!(instr, Instr::IntBin { .. }) {
            plan.regs[k] = free.pop().unwrap_or_else(|| {
                plan.reg_count += 1;
                plan.reg_count - 1
            });
        }
        // The result's register was taken before any operand's is returned,
        // so an instruction never writes the lanes it reads.
        let mut dying = [dst, reads[0], reads[1], reads[2]];
        for n in 0..dying.len() {
            let Some(slot) = dying[n] else { continue };
            if dying[..n].contains(&Some(slot)) {
                dying[n] = None;
                continue;
            }
            if let (Some(at), true) = (life(slot).written_at, life(slot).last_use == k) {
                if at != HEADER && plan.regs[at] != NO_REG {
                    free.push(plan.regs[at]);
                }
            }
        }
    }
    plan.invariants = lives
        .touched
        .iter()
        .copied()
        .filter(|&slot| life(slot).written_at.is_none())
        .collect();
    Some(plan)
}

// ---- values and lanes ------------------------------------------------------------------

/// A slot's value across the lanes of the running strip.
#[derive(Clone, Copy)]
enum Val {
    /// The same cell `(kind, payload)` in every lane.
    Uniform(u8, u64),
    /// Integer kind `tag`, `base + lane * stride` with `stride != 0`; no lane
    /// wraps in that kind.
    Affine { tag: u8, base: i64, stride: i64 },
    /// Float lanes (`tag` is `F32` or `F64`) in register `reg`.
    Lanes { tag: u8, reg: u32 },
}

/// One lane register; only the vector of the kind in use is ever sized.
#[derive(Default)]
struct Reg {
    f32s: Vec<f32>,
    f64s: Vec<f64>,
}

/// What the lane code needs of `f32` and `f64`.
trait Float:
    Copy + Default + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    const TAG: u8;
    fn lanes(reg: &Reg) -> &[Self];
    fn lanes_mut(reg: &mut Reg) -> &mut Vec<Self>;
    fn elements(buffer: &Buffer) -> Option<&[Self]>;
    fn from_bits(bits: u64) -> Self;
    fn bits(self) -> u64;
    fn from_int(v: i64) -> Self;
    fn from_f64(v: f64) -> Self;
    fn widen(self) -> f64;
    fn maximum(self, other: Self) -> Self;
    fn minimum(self, other: Self) -> Self;
}

macro_rules! float_lanes_of {
    ($t:ty, $tag:expr, $field:ident, $variant:ident, $bits:ty) => {
        impl Float for $t {
            const TAG: u8 = $tag;
            fn lanes(reg: &Reg) -> &[$t] {
                &reg.$field
            }
            fn lanes_mut(reg: &mut Reg) -> &mut Vec<$t> {
                &mut reg.$field
            }
            fn elements(buffer: &Buffer) -> Option<&[$t]> {
                match buffer {
                    Buffer::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn from_bits(bits: u64) -> $t {
                <$t>::from_bits(bits as $bits)
            }
            fn bits(self) -> u64 {
                self.to_bits() as u64
            }
            fn from_int(v: i64) -> $t {
                v as $t
            }
            fn from_f64(v: f64) -> $t {
                v as $t
            }
            fn widen(self) -> f64 {
                self as f64
            }
            fn maximum(self, other: $t) -> $t {
                self.max(other)
            }
            fn minimum(self, other: $t) -> $t {
                self.min(other)
            }
        }
    };
}
float_lanes_of!(f32, tag::F32, f32s, F32, u32);
float_lanes_of!(f64, tag::F64, f64s, F64, u64);

/// A float operand: one value for every lane, or one per lane.
#[derive(Clone, Copy)]
enum Src<'a, T> {
    One(T),
    Each(&'a [T]),
}

fn zip_lanes<T: Float>(out: &mut [T], l: Src<T>, r: Src<T>, f: impl Fn(T, T) -> T) {
    match (l, r) {
        (Src::Each(l), Src::Each(r)) => {
            for ((o, &l), &r) in out.iter_mut().zip(l).zip(r) {
                *o = f(l, r);
            }
        }
        (Src::Each(l), Src::One(r)) => {
            for (o, &l) in out.iter_mut().zip(l) {
                *o = f(l, r);
            }
        }
        (Src::One(l), Src::Each(r)) => {
            for (o, &r) in out.iter_mut().zip(r) {
                *o = f(l, r);
            }
        }
        (Src::One(l), Src::One(r)) => out.fill(f(l, r)),
    }
}

/// `float_binop` over lanes; the operation is matched outside the lane loop.
fn float_lanes<T: Float>(op: FloatOp, out: &mut [T], l: Src<T>, r: Src<T>) {
    match op {
        FloatOp::Add => zip_lanes(out, l, r, |a, b| a + b),
        FloatOp::Sub => zip_lanes(out, l, r, |a, b| a - b),
        FloatOp::Mul => zip_lanes(out, l, r, |a, b| a * b),
        FloatOp::Div => zip_lanes(out, l, r, |a, b| a / b),
        FloatOp::Max => zip_lanes(out, l, r, T::maximum),
        FloatOp::Min => zip_lanes(out, l, r, T::minimum),
    }
}

/// `(kind, base, stride)` of an integer value; `None` for anything else.
fn int_parts(v: Val) -> Option<(u8, i64, i64)> {
    match v {
        Val::Uniform(t, bits) if tag::is_int(t) => Some((t, bits as i64, 0)),
        Val::Affine { tag, base, stride } => Some((tag, base, stride)),
        _ => None,
    }
}

/// The integer `base + lane * stride` of kind `t` over `b` lanes, provided
/// no lane wraps (the scalar path wraps; a strip does not follow it there).
fn affine(t: u8, base: i64, stride: i64, b: usize) -> Option<Val> {
    if stride == 0 {
        return Some(Val::Uniform(t, wrap_int(t, base)));
    }
    let last = stride.checked_mul(b as i64 - 1)?.checked_add(base)?;
    let fits = match t {
        tag::I32 => i32::try_from(base).is_ok() && i32::try_from(last).is_ok(),
        tag::I1 => false,
        _ => true,
    };
    fits.then_some(Val::Affine {
        tag: t,
        base,
        stride,
    })
}

/// `IntBin`: the result takes the left operand's kind.
fn int_bin(op: IntOp, l: Val, r: Val, b: usize) -> Option<Val> {
    let ((t, lb, ls), (_, rb, rs)) = (int_parts(l)?, int_parts(r)?);
    let (base, stride) = match op {
        IntOp::Add => (lb.checked_add(rb)?, ls.checked_add(rs)?),
        IntOp::Sub => (lb.checked_sub(rb)?, ls.checked_sub(rs)?),
        IntOp::Mul if rs == 0 => (lb.checked_mul(rb)?, ls.checked_mul(rb)?),
        IntOp::Mul if ls == 0 => (lb.checked_mul(rb)?, lb.checked_mul(rs)?),
        _ => return None,
    };
    affine(t, base, stride, b)
}

// ---- accesses ----------------------------------------------------------------------------

/// One rank-1 access of the running strip, bounds already checked.
struct Access {
    buffer: BufferId,
    /// Element of lane 0 and of the last lane.
    first: usize,
    last: usize,
    stride: i64,
}

/// Whether store `s` and access `x` of the same buffer keep every lane from
/// seeing another's store; `load_after` is "x is a load that follows s".
fn lanes_stay_apart(s: &Access, x: &Access, load_after: bool) -> bool {
    let range = |a: &Access| (a.first.min(a.last), a.first.max(a.last));
    let ((s_lo, s_hi), (x_lo, x_hi)) = (range(s), range(x));
    if s_hi < x_lo || x_hi < s_lo {
        return true;
    }
    if s.stride != x.stride {
        return false;
    }
    // Overlapping ranges of one stride: the bases are less than `b` strides
    // apart, so a multiple of the stride is an element two lanes share.
    match s.first as i64 - x.first as i64 {
        0 => !load_after,
        d => d % s.stride != 0,
    }
}

fn gather<T: Copy>(out: &mut [T], from: &[T], first: usize, stride: i64) {
    if stride == 1 {
        out.copy_from_slice(&from[first..first + out.len()]);
    } else if stride > 0 {
        for (o, &x) in out
            .iter_mut()
            .zip(from[first..].iter().step_by(stride as usize))
        {
            *o = x;
        }
    } else {
        for (lane, o) in out.iter_mut().enumerate() {
            *o = from[(first as i64 + lane as i64 * stride) as usize];
        }
    }
}

fn scatter<T>(to: &mut [T], first: usize, stride: i64, values: impl Iterator<Item = T>) {
    if stride == 1 {
        for (slot, x) in to[first..].iter_mut().zip(values) {
            *slot = x;
        }
    } else if stride > 0 {
        for (slot, x) in to[first..].iter_mut().step_by(stride as usize).zip(values) {
            *slot = x;
        }
    } else {
        for (lane, x) in values.enumerate() {
            to[(first as i64 + lane as i64 * stride) as usize] = x;
        }
    }
}

// ---- the strip ------------------------------------------------------------------------

/// Strip state of a [`crate::program::Program::call`]: empty until a loop's
/// first strip, then sized for what that strip needs and kept, across calls
/// too (the program keeps it with the rest of a finished call's scratch).
#[derive(Default)]
pub(crate) struct Strips {
    /// Per frame slot, its value in the running strip. Entries of a body's
    /// invariants are set when a loop instance starts its first strip, the
    /// others before the body reads them (the plan's condition).
    cur: Vec<Val>,
    regs: Vec<Reg>,
    /// The strip's accesses so far, in program order within each list; a
    /// store with the value it writes when the strip commits.
    loads: Vec<Access>,
    stores: Vec<(Access, Val)>,
    /// `(slot, kind, payload)` of the last lane, per result, for the frame.
    staged: Vec<(Slot, u8, u64)>,
}

/// The frame and budget of the call a loop runs in.
pub(crate) struct Caller<'r> {
    pub tags: &'r mut [u8],
    pub vals: &'r mut [u64],
    pub mems: &'r [MemRefVal],
    pub memory: &'r mut Memory,
    pub steps: &'r mut u64,
    pub max_steps: u64,
}

/// One strip being run: the state, the frame it reads, and its width.
struct Strip<'s, 'r> {
    state: &'s mut Strips,
    mems: &'r [MemRefVal],
    memory: &'r Memory,
    b: usize,
}

impl Strips {
    /// Run the iterations of planned loop `l` from `iv` that strips can take:
    /// returns the induction value to go on from and the trips done. The
    /// frame, memory and `steps` are as that many scalar iterations leave
    /// them.
    pub(crate) fn run(
        &mut self,
        body: &[Instr],
        l: &Loop,
        plan: &Plan,
        caller: Caller,
        (mut iv, ub, step): (i64, i64, i64),
    ) -> (i64, u64) {
        let mut trips = 0u64;
        loop {
            // `ceil(span / step)` iterations are left; the division is only
            // made for a last strip narrower than `LANES`, never for a loop
            // too short to have one.
            let (span, step_wide) = (ub as i128 - iv as i128 + l.inclusive as i128, step as i128);
            let b = if span >= LANES as i128 * step_wide {
                LANES
            } else if span <= (MIN_LANES as i128 - 1) * step_wide {
                break;
            } else {
                ((span + step_wide - 1) / step_wide) as usize
            };
            let cost = b as u64 * l.body_ops as u64;
            let next = (b as i64).checked_mul(step).and_then(|d| iv.checked_add(d));
            let (Some(next), true) = (next, caller.steps.saturating_add(cost) <= caller.max_steps)
            else {
                break;
            };
            if trips == 0 {
                self.enter(plan, &caller);
            }
            self.cur[l.iv as usize] = Val::Affine {
                tag: tag::INDEX,
                base: iv,
                stride: step,
            };
            self.loads.clear();
            self.stores.clear();
            self.staged.clear();
            let last_iv = next - step;
            self.staged.push((l.iv, tag::INDEX, last_iv as u64));
            let mut strip = Strip {
                state: self,
                mems: caller.mems,
                memory: caller.memory,
                b,
            };
            if strip.execute(body, plan).is_none() {
                break;
            }
            self.commit(b, &mut *caller.memory, caller.tags, caller.vals);
            *caller.steps += cost;
            (iv, trips) = (next, trips + b as u64);
        }
        (iv, trips)
    }

    /// First strip of a loop instance: size the state, read the invariants.
    fn enter(&mut self, plan: &Plan, caller: &Caller) {
        if self.cur.len() < caller.tags.len() {
            self.cur
                .resize(caller.tags.len(), Val::Uniform(tag::UNIT, 0));
        }
        if self.regs.len() < plan.reg_count as usize {
            self.regs.resize_with(plan.reg_count as usize, Reg::default);
        }
        for &s in &plan.invariants {
            self.cur[s as usize] = Val::Uniform(caller.tags[s as usize], caller.vals[s as usize]);
        }
    }

    /// Apply a strip every check of which passed; nothing here can fail.
    fn commit(&mut self, b: usize, memory: &mut Memory, tags: &mut [u8], vals: &mut [u64]) {
        for (a, value) in &self.stores {
            match memory.get_mut(a.buffer) {
                Buffer::F32(to) => write_lanes(to, a, *value, &self.regs, b),
                Buffer::F64(to) => write_lanes(to, a, *value, &self.regs, b),
                _ => unreachable!("checked with the store"),
            }
        }
        for &(slot, t, bits) in &self.staged {
            tags[slot as usize] = t;
            vals[slot as usize] = bits;
        }
    }
}

/// A deferred store: `value` to the elements of `a`, converted as the scalar
/// store converts — through `f64`, then to the element type.
fn write_lanes<E: Float>(to: &mut [E], a: &Access, value: Val, regs: &[Reg], b: usize) {
    match value {
        Val::Lanes { tag: tag::F32, reg } => {
            let lanes = regs[reg as usize].f32s[..b].iter();
            scatter(to, a.first, a.stride, lanes.map(|&x| E::from_f64(x as f64)))
        }
        Val::Lanes { reg, .. } => {
            let lanes = regs[reg as usize].f64s[..b].iter();
            scatter(to, a.first, a.stride, lanes.map(|&x| E::from_f64(x)))
        }
        Val::Uniform(t, bits) => {
            let x = E::from_f64(as_float(t, bits).expect("checked with the store"));
            scatter(to, a.first, a.stride, std::iter::repeat_n(x, b))
        }
        Val::Affine { .. } => unreachable!("checked with the store"),
    }
}

impl<'r> Strip<'_, 'r> {
    /// Run the body once across the lanes. `None`: a check failed, and
    /// nothing but the strip state was written.
    fn execute(&mut self, body: &[Instr], plan: &Plan) -> Option<()> {
        let b = self.b;
        for (instr, &reg) in body.iter().zip(&plan.regs) {
            let (dst, value) = match *instr {
                Instr::IntBin { op, dst, lhs, rhs } => {
                    (dst, int_bin(op, self.get(lhs), self.get(rhs), b)?)
                }
                Instr::FloatBin { op, dst, lhs, rhs } => {
                    (dst, self.float_bin(op, self.get(lhs), self.get(rhs), reg)?)
                }
                Instr::Convert { to, dst, src } => (dst, self.convert(self.get(src), to, reg)?),
                Instr::Move { dst, src } => (dst, self.copy(self.get(src), reg)),
                Instr::Load1 { dst, mem, idx } => {
                    (dst, self.load(self.get(mem), self.get(idx), reg)?)
                }
                Instr::Store1 { val, mem, idx } => {
                    self.store(self.get(val), self.get(mem), self.get(idx))?;
                    continue;
                }
                _ => unreachable!("not in a planned body"),
            };
            self.state.cur[dst as usize] = value;
            let (t, bits) = self.last_lane(value);
            self.state.staged.push((dst, t, bits));
        }
        Some(())
    }

    fn get(&self, s: Slot) -> Val {
        self.state.cur[s as usize]
    }

    /// The frame cell the last lane of `v` leaves.
    fn last_lane(&self, v: Val) -> (u8, u64) {
        let last = self.b - 1;
        match v {
            Val::Uniform(t, bits) => (t, bits),
            Val::Affine { tag, base, stride } => (tag, (base + last as i64 * stride) as u64),
            Val::Lanes { tag: tag::F32, reg } => {
                (tag::F32, self.state.regs[reg as usize].f32s[last].bits())
            }
            Val::Lanes { tag, reg } => (tag, self.state.regs[reg as usize].f64s[last].bits()),
        }
    }

    /// `v` as an operand of kind `T`, if it is one.
    fn src<T: Float>(&self, v: Val) -> Option<Src<'_, T>> {
        match v {
            Val::Uniform(t, bits) if t == T::TAG => Some(Src::One(T::from_bits(bits))),
            Val::Lanes { tag, reg } if tag == T::TAG => Some(Src::Each(
                &T::lanes(&self.state.regs[reg as usize])[..self.b],
            )),
            _ => None,
        }
    }

    /// Fill register `reg` with `b` lanes of kind `T`. The register is taken
    /// out while `fill` borrows the others: the plan never hands an
    /// instruction a register one of its operands lives in.
    fn fill<T: Float>(&mut self, reg: u32, fill: impl FnOnce(&Self, &mut [T])) -> Val {
        let mut lanes = std::mem::take(T::lanes_mut(&mut self.state.regs[reg as usize]));
        lanes.resize(self.b, T::default());
        fill(self, &mut lanes);
        *T::lanes_mut(&mut self.state.regs[reg as usize]) = lanes;
        Val::Lanes { tag: T::TAG, reg }
    }

    fn float_bin(&mut self, op: FloatOp, l: Val, r: Val, reg: u32) -> Option<Val> {
        fn lanes<T: Float>(
            strip: &mut Strip,
            op: FloatOp,
            l: Val,
            r: Val,
            reg: u32,
        ) -> Option<Val> {
            strip.src::<T>(l).and(strip.src::<T>(r))?;
            Some(strip.fill::<T>(reg, |strip, out| {
                let (l, r) = (strip.src(l), strip.src(r));
                float_lanes(op, out, l.expect("just seen"), r.expect("just seen"));
            }))
        }
        match (l, r) {
            (Val::Uniform(lt, lbits), Val::Uniform(rt, rbits)) => {
                let (t, bits) = float_binop(op, (lt, lbits), (rt, rbits)).ok()?;
                Some(Val::Uniform(t, bits))
            }
            _ => lanes::<f32>(self, op, l, r, reg).or_else(|| lanes::<f64>(self, op, l, r, reg)),
        }
    }

    fn convert(&mut self, v: Val, to: ConvKind, reg: u32) -> Option<Val> {
        let b = self.b;
        match v {
            Val::Uniform(t, bits) => {
                let (t, bits) = convert(t, bits, to)?;
                Some(Val::Uniform(t, bits))
            }
            Val::Affine { base, stride, .. } => {
                let ramp = |lane: usize| base + lane as i64 * stride;
                match to {
                    ConvKind::Index => affine(tag::INDEX, base, stride, b),
                    ConvKind::I64 => affine(tag::I64, base, stride, b),
                    ConvKind::I32 => affine(tag::I32, base, stride, b),
                    ConvKind::I1 => None,
                    ConvKind::F32 => Some(self.fill::<f32>(reg, |_, out| {
                        for (lane, o) in out.iter_mut().enumerate() {
                            *o = f32::from_int(ramp(lane));
                        }
                    })),
                    ConvKind::F64 => Some(self.fill::<f64>(reg, |_, out| {
                        for (lane, o) in out.iter_mut().enumerate() {
                            *o = f64::from_int(ramp(lane));
                        }
                    })),
                }
            }
            // A float to an integer would be integer lanes.
            Val::Lanes { tag: from, .. } => match (from, to) {
                (tag::F32, ConvKind::F32) | (tag::F64, ConvKind::F64) => Some(self.copy(v, reg)),
                (tag::F32, ConvKind::F64) => Some(self.cast::<f32, f64>(v, reg)),
                (tag::F64, ConvKind::F32) => Some(self.cast::<f64, f32>(v, reg)),
                _ => None,
            },
        }
    }

    /// Lanes of kind `S` in `v` as lanes of kind `D` in `reg`.
    fn cast<S: Float, D: Float>(&mut self, v: Val, reg: u32) -> Val {
        self.fill::<D>(reg, |strip, out| {
            let Some(Src::Each(from)) = strip.src::<S>(v) else {
                unreachable!("the caller matched the lanes' kind")
            };
            for (o, &x) in out.iter_mut().zip(from) {
                *o = D::from_f64(x.widen());
            }
        })
    }

    /// `Move`: lanes are copied, so a register has one owner.
    fn copy(&mut self, v: Val, reg: u32) -> Val {
        match v {
            Val::Lanes { tag: tag::F32, .. } => self.cast::<f32, f32>(v, reg),
            Val::Lanes { .. } => self.cast::<f64, f64>(v, reg),
            same => same,
        }
    }

    /// A rank-1 access of `mem[idx]` whose every lane is in bounds, and the
    /// buffer it reaches.
    fn access(&self, mem: Val, idx: Val) -> Option<(Access, &'r Buffer)> {
        let Val::Uniform(tag::MEMREF, m) = mem else {
            return None;
        };
        let m = &self.mems[m as usize];
        let (_, base, stride) = int_parts(idx)?;
        let [extent] = m.shape[..] else { return None };
        let memory: &'r Memory = self.memory;
        let buffer = memory.get(m.buffer);
        let limit = extent.min(buffer.len() as i64);
        let last = stride.checked_mul(self.b as i64 - 1)?.checked_add(base)?;
        if !(0..limit).contains(&base) || !(0..limit).contains(&last) {
            return None;
        }
        let access = Access {
            buffer: m.buffer,
            first: base as usize,
            last: last as usize,
            stride,
        };
        Some((access, buffer))
    }

    fn load(&mut self, mem: Val, idx: Val, reg: u32) -> Option<Val> {
        let (a, buffer) = self.access(mem, idx)?;
        // Every store so far precedes this load.
        let stores = self.state.stores.iter();
        if !stores
            .filter(|(s, _)| s.buffer == a.buffer)
            .all(|(s, _)| lanes_stay_apart(s, &a, true))
        {
            return None;
        }
        let Access { first, stride, .. } = a;
        self.state.loads.push(a);
        if stride == 0 {
            let (t, bits) = load_buffer(buffer, first).ok()?;
            return Some(Val::Uniform(t, bits));
        }
        if let Some(from) = f32::elements(buffer) {
            Some(self.fill::<f32>(reg, |_, out| gather(out, from, first, stride)))
        } else {
            let from = f64::elements(buffer)?;
            Some(self.fill::<f64>(reg, |_, out| gather(out, from, first, stride)))
        }
    }

    fn store(&mut self, value: Val, mem: Val, idx: Val) -> Option<()> {
        let (a, buffer) = self.access(mem, idx)?;
        // A float buffer takes either float kind; integer buffers and
        // integer values are the scalar path's.
        let float = match value {
            Val::Uniform(t, _) | Val::Lanes { tag: t, .. } => t == tag::F32 || t == tag::F64,
            Val::Affine { .. } => false,
        };
        if !float || !matches!(buffer, Buffer::F32(_) | Buffer::F64(_)) || a.stride == 0 {
            return None;
        }
        let earlier = self.state.loads.iter();
        let earlier = earlier.chain(self.state.stores.iter().map(|(s, _)| s));
        if !earlier
            .filter(|x| x.buffer == a.buffer)
            .all(|x| lanes_stay_apart(&a, x, false))
        {
            return None;
        }
        self.state.stores.push((a, value));
        Some(())
    }
}

#[cfg(test)]
mod tests {
    //! What the differential suite cannot see from outside: whether a strip
    //! committed or was abandoned, and that an abandoned one wrote nothing.

    use super::*;
    use crate::program::{scalar_cell, Program};
    use crate::value::RtValue;
    use ftn_mlir::{parse_module, Ir};

    /// `y[i+d] = y[i+e] + a*x[i]` for `i` in `[lb, ub)`; 8 ops an iteration.
    const KERNEL: &str = r#"
"builtin.module"() ({
"func.func"() ({
^bb0(%x: memref<?xf32>, %y: memref<?xf32>, %a: f32, %lb: index, %ub: index, %d: index, %e: index):
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "scf.for"(%lb, %ub, %c1) ({
  ^bb1(%i: index):
    %ie = "arith.addi"(%i, %e) : (index, index) -> index
    %ye = "memref.load"(%y, %ie) : (memref<?xf32>, index) -> f32
    %xi = "memref.load"(%x, %i) : (memref<?xf32>, index) -> f32
    %t = "arith.mulf"(%a, %xi) : (f32, f32) -> f32
    %s = "arith.addf"(%ye, %t) : (f32, f32) -> f32
    %id = "arith.addi"(%i, %d) : (index, index) -> index
    "memref.store"(%s, %y, %id) : (f32, memref<?xf32>, index) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
}) {sym_name = "kernel", function_type = (memref<?xf32>, memref<?xf32>, f32, index, index, index, index) -> ()} : () -> ()
}) : () -> ()
"#;
    const BODY_OPS: u64 = 8;
    const LEN: usize = 100;

    /// What one call of [`Strips::run`] at the kernel's loop did.
    struct Ran {
        trips: u64,
        next_iv: i64,
        steps: u64,
        /// `y` afterwards (`x` too when they are one buffer).
        y: Vec<f32>,
        frame_touched: bool,
    }

    /// Run the strips of `kernel(x, y, a, lb, ub, d, e)` over `LEN`-element
    /// buffers (`aliased`: one buffer) with `budget` steps left.
    fn strips(
        aliased: bool,
        a: RtValue,
        (lb, ub): (i64, i64),
        (d, e): (i64, i64),
        budget: u64,
    ) -> Ran {
        let mut ir = Ir::new();
        let module = parse_module(&mut ir, KERNEL).expect("kernel parses");
        let program = Program::lower_module(&ir, module);
        let f = &program.funcs[program.by_name["kernel"]];
        let pc = f
            .code
            .iter()
            .position(|i| matches!(i, Instr::Loop(_)))
            .expect("a loop");
        let l = &f.loops[0];
        let plan = l.strip.as_ref().expect("the loop is planned");

        let mut memory = Memory::new();
        let ramp = |scale: f32| Buffer::F32((0..LEN).map(|i| i as f32 * scale).collect());
        let x = memory.alloc(ramp(0.5), 0);
        let y = if aliased {
            x
        } else {
            memory.alloc(ramp(-1.0), 0)
        };
        let mems: Vec<MemRefVal> = [x, y]
            .iter()
            .map(|&buffer| MemRefVal {
                buffer,
                shape: vec![LEN as i64],
                space: 0,
            })
            .collect();
        let (mut tags, mut vals) = (f.tags.clone(), f.vals.clone());
        let index = RtValue::Index;
        let scalars = [a, index(lb), index(ub), index(d), index(e)];
        for (&p, cell) in f.params.iter().zip(
            [(tag::MEMREF, 0), (tag::MEMREF, 1)]
                .into_iter()
                .chain(scalars.iter().map(|v| scalar_cell(v).expect("a scalar"))),
        ) {
            (tags[p as usize], vals[p as usize]) = cell;
        }
        let frame_before = (tags.clone(), vals.clone());
        let mut steps = 0;
        let caller = Caller {
            tags: &mut tags,
            vals: &mut vals,
            mems: &mems,
            memory: &mut memory,
            steps: &mut steps,
            max_steps: budget,
        };
        let body = &f.code[pc + 1..l.end as usize];
        let (next_iv, trips) = Strips::default().run(body, l, plan, caller, (lb, ub, 1));
        let Buffer::F32(y) = memory.get(y).clone() else {
            unreachable!()
        };
        Ran {
            trips,
            next_iv,
            steps,
            y,
            frame_touched: frame_before != (tags, vals),
        }
    }

    fn untouched(ran: &Ran, aliased: bool) {
        let scale = if aliased { 0.5 } else { -1.0 };
        let before: Vec<f32> = (0..LEN).map(|i| i as f32 * scale).collect();
        assert_eq!((ran.trips, ran.next_iv, ran.steps), (0, 2, 0));
        assert_eq!(ran.y, before);
        assert!(!ran.frame_touched);
    }

    const HALF: RtValue = RtValue::F32(0.5);

    #[test]
    fn a_strip_commits_what_its_iterations_would_have_done() {
        let ran = strips(false, HALF, (2, 42), (0, 0), u64::MAX);
        assert_eq!((ran.trips, ran.next_iv, ran.steps), (40, 42, 40 * BODY_OPS));
        assert!(ran.frame_touched, "the last lane's values are in the frame");
        for (i, &y) in ran.y.iter().enumerate() {
            let before = -(i as f32);
            let after = before + 0.5 * (i as f32 * 0.5);
            assert_eq!(
                y,
                if (2..42).contains(&i) { after } else { before },
                "y[{i}]"
            );
        }
    }

    #[test]
    fn one_buffer_under_two_names_commits_when_each_lane_keeps_to_its_element() {
        // `y(i) = y(i) + a*x(i)` with `x` and `y` the same array.
        let ran = strips(true, HALF, (2, 42), (0, 0), u64::MAX);
        assert_eq!(ran.trips, 40);
        assert_eq!(ran.y[10], 5.0 + 0.5 * 5.0);
        // The store lands a buffer's length away from every load's range.
        let ran = strips(true, HALF, (2, 22), (60, 0), u64::MAX);
        assert_eq!(ran.trips, 20);
    }

    #[test]
    fn a_lane_that_would_see_another_lanes_store_abandons_the_strip() {
        // `y(i) = y(i-1) + …`: a recurrence.
        untouched(&strips(false, HALF, (2, 42), (0, -1), u64::MAX), false);
        // `y(i) = y(i+1) + …`: an anti-dependence, refused by the same rule.
        untouched(&strips(false, HALF, (2, 42), (0, 1), u64::MAX), false);
        // One buffer: the store of `y[i+1]` is the next lane's load of `x[i]`.
        untouched(&strips(true, HALF, (2, 42), (1, 1), u64::MAX), true);
        // Distinct buffers make the last one harmless.
        assert_eq!(strips(false, HALF, (2, 42), (1, 1), u64::MAX).trips, 40);
    }

    #[test]
    fn a_lane_that_fails_a_check_abandons_the_strip_before_any_write() {
        // The last lane's store is one past the buffer.
        untouched(&strips(false, HALF, (2, 42), (59, 0), u64::MAX), false);
        // The first lane's load is below it.
        untouched(&strips(false, HALF, (2, 42), (0, -3), u64::MAX), false);
        // `a` is an f64 beside f32 elements; an integer.
        untouched(
            &strips(false, RtValue::F64(0.5), (2, 42), (0, 0), u64::MAX),
            false,
        );
        untouched(
            &strips(false, RtValue::I32(1), (2, 42), (0, 0), u64::MAX),
            false,
        );
    }

    #[test]
    fn a_strip_the_budget_cannot_pay_for_is_not_started() {
        untouched(
            &strips(false, HALF, (2, 42), (0, 0), 40 * BODY_OPS - 1),
            false,
        );
        let ran = strips(false, HALF, (2, 42), (0, 0), 40 * BODY_OPS);
        assert_eq!((ran.trips, ran.steps), (40, 40 * BODY_OPS));
    }

    #[test]
    fn strips_take_whole_widths_and_leave_a_short_tail_to_the_run_loop() {
        untouched(
            &strips(false, HALF, (2, 2 + MIN_LANES as i64 - 1), (0, 0), u64::MAX),
            false,
        );
        let ran = strips(false, HALF, (2, 2 + MIN_LANES as i64), (0, 0), u64::MAX);
        assert_eq!(ran.trips, MIN_LANES as u64);
    }
}

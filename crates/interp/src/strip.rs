//! Strip execution: an innermost straight-line loop run one instruction
//! across up to [`LANES`] iterations at a time, so the run loop's dispatch
//! and kind checks are paid once per strip instead of once per iteration.
//!
//! **Plan** (the last step of lowering a function): a loop is planned when it carries
//! no values and its body holds only the instructions the run loop decodes
//! itself, each result slot is written once and read only after it is
//! written, and the body writes neither the induction variable nor a slot it
//! uses as a memref. The plan assigns lane registers by last use, so a
//! body's working set is a few registers however long it is. **Re-roll**
//! (also at plan time): a body that is `K >= 2` unrolled [`Copies`] of one
//! iteration, as a `simdlen(K)` loop lowers, is marked. **Strip**
//! (`Instr::Loop` entry): while at least [`MIN_LANES`] iterations remain,
//! `b = min(LANES, iterations left)` of them run as one strip; a marked
//! body whose runtime step is `K` times its copies' offset runs copy 0
//! alone over `K` lanes an iteration instead (lane `j * K + k` is copy `k`
//! of iteration `j`, the order the scalar loop runs them in), between
//! `MIN_LANES` and `LANES` lanes a strip. **Commit or
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
//!   hold the last iteration's values: a re-rolled copy `k`'s, lane
//!   `(b - 1) * K + k`), or leaves all four untouched. Nothing
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
//!   always abandons. A re-rolled strip's lanes are every copy of its
//!   iterations in scalar order, so the same rule covers copies: no copy
//!   of any iteration sees another's store.
//! * **Budget and trips.** A strip of `b` iterations (a re-rolled one's
//!   `b * K` lanes among them) starts only if `steps + b * body_ops <=
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

/// Lanes per strip: iterations, or a re-rolled body's copies of them. A
/// strip's fixed cost (decode, kind reads, bounds, the access rule, staging
/// the frame) is some 0.4 µs for `jacobi_kernel0`'s 14 instructions and
/// `saxpy_kernel0`'s re-rolled 8, which the lanes amortise; the working set
/// grows with them. Measured on the re-rolled bodies, one warm
/// `Interp::call` a sample, ns per element, the range of the medians of 60
/// calls over two sets of five alternations (256–1024 and 512–2048) on a
/// 2-vCPU box:
///
/// | lanes | `saxpy_kernel0`, 131 072 elements | `jacobi_kernel0`, 65 536 |
/// |---|---|---|
/// | 256 | 2.94–3.73 | 2.35–2.64 |
/// | 512 | 1.61–2.17 | 1.34–1.67 |
/// | 1024 | 1.05–1.61 | 1.07–1.24 |
/// | 2048 | 0.85–1.12 | 0.75–0.91 |
///
/// The curve has not turned at 2048: the fixed cost, not the cache, sets
/// it (the bodies before the re-roll turned at 2048, SAXPY's ten store
/// registers and two windows of `10 * lanes` floats leaving L2). At 1024 a
/// re-rolled SAXPY strip walks two 4 KB windows and holds three 4 KB
/// registers, inside a 48 KB L1; wider strips buy less each doubling
/// (`saxpy_stream` `req_p50_us` read 230 → 183 µs going from 512 to 1024,
/// four pairs), and the fixed cost is what to cut next.
const LANES: usize = 1024;

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
    /// Set when the body is an unrolled one: see [`Copies`].
    copies: Option<Copies>,
}

impl Plan {
    /// How many copies of one iteration the body is (1: not unrolled).
    pub(crate) fn copies(&self) -> usize {
        self.copies.as_ref().map_or(1, |c| c.count)
    }
}

/// A body that is `count` copies of one iteration: copy 0 is the first
/// `len` instructions and reads the induction variable `iv`; copy `k >= 1`
/// is `int.Add iv, c_k` (a constant `c_k = k * unit`) followed by copy 0
/// with its results renamed to the copy's own, `iv` to the `int.Add`'s
/// result and every other slot read as it is. Copy `k` therefore starts at
/// `k * (len + 1) - 1` and its `p`-th instruction after the head is at
/// `k * (len + 1) + p`.
#[derive(Clone)]
struct Copies {
    count: usize,
    len: usize,
    unit: i64,
    /// `count` slots a row, one per copy: each copy's `iv` (copy 0's is the
    /// loop's), then each copy's result of copy 0's instruction `p` in row
    /// `p + 1` ([`NO_SLOT`] for a store). A strip stages from these.
    slots: Vec<Slot>,
}

/// A store's row of [`Copies::slots`].
const NO_SLOT: Slot = Slot::MAX;

impl Copies {
    /// Row `row` of [`Copies::slots`].
    fn row(&self, row: usize) -> &[Slot] {
        &self.slots[row * self.count..(row + 1) * self.count]
    }

    /// Where copy `k`'s `p`-th instruction (copy 0's numbering) is.
    fn at(&self, k: usize, p: usize) -> usize {
        k * (self.len + 1) + p
    }

    /// Where copy `k >= 1`'s `int.Add iv, c_k` is.
    fn head(&self, k: usize) -> usize {
        self.at(k, 0) - 1
    }
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

/// The slot `instr` writes.
fn written(instr: &Instr) -> Option<Slot> {
    ports(instr)?.0
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
            let body = &f.code[pc + 1..l.end as usize];
            let planned = plan_loop(body, l, &mut lives).map(|mut plan| {
                plan.copies = copies(body, l.iv, &lives, (&f.tags, &f.vals));
                plan
            });
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
        copies: None,
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

/// The [`Copies`] of most copies a planned `body` splits into, if any.
/// `lives` is its table and `(tags, vals)` the function's initial frame, in
/// which only a constant holds an integer (and no instruction writes it).
fn copies(
    body: &[Instr],
    iv: Slot,
    lives: &Lives,
    (tags, vals): (&[u8], &[u64]),
) -> Option<Copies> {
    let n = body.len() + 1;
    let split = |count: usize| {
        let mut c = Copies {
            count,
            len: n / count - 1,
            unit: 0,
            slots: Vec::new(),
        };
        let copy0 = &body[..c.len];
        if !copy0
            .iter()
            .any(|i| ports(i).is_some_and(|(_, r)| r.contains(&Some(iv))))
        {
            return None;
        }
        for k in 1..count {
            let Instr::IntBin {
                op: IntOp::Add,
                dst: head,
                lhs,
                rhs,
            } = body[c.head(k)]
            else {
                return None;
            };
            let offset = vals[rhs as usize] as i64;
            if k == 1 {
                c.unit = offset;
            }
            if lhs != iv
                || !tag::is_int(tags[rhs as usize])
                || c.unit <= 0
                || c.unit.checked_mul(k as i64) != Some(offset)
            {
                return None;
            }
            // Copy 0 reads `iv`, its own results (written before the read,
            // the plan's condition) and slots the body never writes.
            let rename = |s: Slot| match lives.get(s).and_then(|life| life.written_at) {
                Some(HEADER) => Some(head),
                Some(q) if q < c.len => written(&body[c.at(k, q)]),
                _ => Some(s),
            };
            for (p, &instr) in copy0.iter().enumerate() {
                if renamed(instr, rename)? != body[c.at(k, p)] {
                    return None;
                }
            }
        }
        // Row 0 is copy `k`'s instruction before its first: its head.
        let len = c.len;
        c.slots = (0..=len)
            .flat_map(|row| {
                (0..count).map(move |k| match (row, k) {
                    (0, 0) => iv,
                    _ => written(&body[k * (len + 1) + row - 1]).unwrap_or(NO_SLOT),
                })
            })
            .collect();
        Some(c)
    };
    (2..=(n / 2).min(LANES))
        .rev()
        .filter(|&count| n.is_multiple_of(count))
        .find_map(split)
}

/// A planned body's instruction with every slot it names passed through
/// `f`, or `None` where `f` has no answer.
fn renamed(instr: Instr, f: impl Fn(Slot) -> Option<Slot>) -> Option<Instr> {
    Some(match instr {
        Instr::IntBin { op, dst, lhs, rhs } => Instr::IntBin {
            op,
            dst: f(dst)?,
            lhs: f(lhs)?,
            rhs: f(rhs)?,
        },
        Instr::FloatBin { op, dst, lhs, rhs } => Instr::FloatBin {
            op,
            dst: f(dst)?,
            lhs: f(lhs)?,
            rhs: f(rhs)?,
        },
        Instr::Convert { to, dst, src } => Instr::Convert {
            to,
            dst: f(dst)?,
            src: f(src)?,
        },
        Instr::Move { dst, src } => Instr::Move {
            dst: f(dst)?,
            src: f(src)?,
        },
        Instr::Load1 { dst, mem, idx } => Instr::Load1 {
            dst: f(dst)?,
            mem: f(mem)?,
            idx: f(idx)?,
        },
        Instr::Store1 { val, mem, idx } => Instr::Store1 {
            val: f(val)?,
            mem: f(mem)?,
            idx: f(idx)?,
        },
        _ => return None,
    })
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
        // An unrolled body whose copies tile the step runs as copy 0 over
        // `count` lanes an iteration; any other step runs it as it stands.
        let tiles = |c: &&Copies| c.unit.checked_mul(c.count as i64) == Some(step);
        let copies = plan.copies.as_ref().filter(tiles);
        let (count, len, stride) =
            copies.map_or((1, body.len(), step), |c| (c.count, c.len, c.unit));
        // A body as it stands divides nothing at loop entry.
        let (widest, fewest) = match count {
            1 => (LANES, MIN_LANES),
            k => (LANES / k, MIN_LANES.div_ceil(k)),
        };
        let mut trips = 0u64;
        loop {
            // `ceil(span / step)` iterations are left; the division is only
            // made for a last strip narrower than the widest, never for a
            // loop too short to have one.
            let (span, step_wide) = (ub as i128 - iv as i128 + l.inclusive as i128, step as i128);
            let b = if span >= widest as i128 * step_wide {
                widest
            } else if span <= (fewest as i128 - 1) * step_wide {
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
            let iv_lanes = Val::Affine {
                tag: tag::INDEX,
                base: iv,
                stride,
            };
            self.cur[l.iv as usize] = iv_lanes;
            self.loads.clear();
            self.stores.clear();
            self.staged.clear();
            let lanes = b * count;
            let mut strip = Strip {
                state: self,
                mems: caller.mems,
                memory: caller.memory,
                b: lanes,
            };
            // The last iteration's `iv`, and each copy's `iv + c_k`.
            strip.stage(
                copies.map_or(std::slice::from_ref(&l.iv), |c| c.row(0)),
                iv_lanes,
            );
            if strip.execute(&body[..len], plan, copies).is_none() {
                break;
            }
            self.commit(lanes, &mut *caller.memory, caller.tags, caller.vals);
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
    /// Run `body` (a re-rolled one's copy 0) once across the lanes; each
    /// result is staged for its slot, or each copy's for theirs. `None`: a
    /// check failed, and nothing but the strip state was written.
    fn execute(&mut self, body: &[Instr], plan: &Plan, copies: Option<&Copies>) -> Option<()> {
        let b = self.b;
        for (p, (instr, &reg)) in body.iter().zip(&plan.regs).enumerate() {
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
            self.stage(
                copies.map_or(std::slice::from_ref(&dst), |c| c.row(p + 1)),
                value,
            );
        }
        Some(())
    }

    fn get(&self, s: Slot) -> Val {
        self.state.cur[s as usize]
    }

    /// Stage `v` for the frame: `slots[k]` takes lane `b - slots.len() + k`,
    /// copy `k`'s lane of the strip's last iteration.
    fn stage(&mut self, slots: &[Slot], v: Val) {
        let first = self.b - slots.len();
        let Strips { staged, regs, .. } = &mut *self.state;
        match v {
            Val::Uniform(t, bits) => staged.extend(slots.iter().map(|&s| (s, t, bits))),
            Val::Affine { tag, base, stride } => {
                let at = |k: usize| (base + (first + k) as i64 * stride) as u64;
                staged.extend(slots.iter().enumerate().map(|(k, &s)| (s, tag, at(k))));
            }
            Val::Lanes { tag: tag::F32, reg } => {
                let lanes = &regs[reg as usize].f32s[first..];
                staged.extend(
                    slots
                        .iter()
                        .zip(lanes)
                        .map(|(&s, x)| (s, tag::F32, x.bits())),
                );
            }
            Val::Lanes { tag, reg } => {
                let lanes = &regs[reg as usize].f64s[first..];
                staged.extend(slots.iter().zip(lanes).map(|(&s, x)| (s, tag, x.bits())));
            }
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

    /// `KERNEL`'s body unrolled three times: copy `k` runs at `i + k`, so a
    /// loop stepping by 3 does what `KERNEL` does stepping by 1.
    const UNROLLED: &str = r#"
"builtin.module"() ({
"func.func"() ({
^bb0(%x: memref<?xf32>, %y: memref<?xf32>, %a: f32, %lb: index, %ub: index, %d: index, %e: index):
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %c2 = "arith.constant"() {value = 2 : index} : () -> index
  %c3 = "arith.constant"() {value = 3 : index} : () -> index
  "scf.for"(%lb, %ub, %c3) ({
  ^bb1(%i: index):
    %ie = "arith.addi"(%i, %e) : (index, index) -> index
    %ye = "memref.load"(%y, %ie) : (memref<?xf32>, index) -> f32
    %xi = "memref.load"(%x, %i) : (memref<?xf32>, index) -> f32
    %t = "arith.mulf"(%a, %xi) : (f32, f32) -> f32
    %s = "arith.addf"(%ye, %t) : (f32, f32) -> f32
    %id = "arith.addi"(%i, %d) : (index, index) -> index
    "memref.store"(%s, %y, %id) : (f32, memref<?xf32>, index) -> ()
    %i1 = "arith.addi"(%i, %c1) : (index, index) -> index
    %ie1 = "arith.addi"(%i1, %e) : (index, index) -> index
    %ye1 = "memref.load"(%y, %ie1) : (memref<?xf32>, index) -> f32
    %xi1 = "memref.load"(%x, %i1) : (memref<?xf32>, index) -> f32
    %t1 = "arith.mulf"(%a, %xi1) : (f32, f32) -> f32
    %s1 = "arith.addf"(%ye1, %t1) : (f32, f32) -> f32
    %id1 = "arith.addi"(%i1, %d) : (index, index) -> index
    "memref.store"(%s1, %y, %id1) : (f32, memref<?xf32>, index) -> ()
    %i2 = "arith.addi"(%i, %c2) : (index, index) -> index
    %ie2 = "arith.addi"(%i2, %e) : (index, index) -> index
    %ye2 = "memref.load"(%y, %ie2) : (memref<?xf32>, index) -> f32
    %xi2 = "memref.load"(%x, %i2) : (memref<?xf32>, index) -> f32
    %t2 = "arith.mulf"(%a, %xi2) : (f32, f32) -> f32
    %s2 = "arith.addf"(%ye2, %t2) : (f32, f32) -> f32
    %id2 = "arith.addi"(%i2, %d) : (index, index) -> index
    "memref.store"(%s2, %y, %id2) : (f32, memref<?xf32>, index) -> ()
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
}) {sym_name = "kernel", function_type = (memref<?xf32>, memref<?xf32>, f32, index, index, index, index) -> ()} : () -> ()
}) : () -> ()
"#;

    /// A loop to run: its module, the runtime step, and whether strips may
    /// run an unrolled body as one copy (`false`: they run it as it stands).
    struct Looped {
        text: &'static str,
        step: i64,
        reroll: bool,
    }

    const PLAIN: Looped = Looped {
        text: KERNEL,
        step: 1,
        reroll: true,
    };

    /// What one call of [`Strips::run`] at the kernel's loop did.
    struct Ran {
        trips: u64,
        next_iv: i64,
        steps: u64,
        /// `y` afterwards (`x` too when they are one buffer).
        y: Vec<f32>,
        frame_touched: bool,
        /// The frame afterwards.
        frame: (Vec<u8>, Vec<u64>),
        /// The loop's body and how its strips may split it.
        body: Vec<Instr>,
        copies: Option<Copies>,
    }

    /// Run the strips of `kernel(x, y, a, lb, ub, d, e)` over `LEN`-element
    /// buffers (`aliased`: one buffer) with `budget` steps left.
    fn strips(
        aliased: bool,
        a: RtValue,
        bounds: (i64, i64),
        distances: (i64, i64),
        budget: u64,
    ) -> Ran {
        strips_of(&PLAIN, aliased, a, bounds, distances, budget)
    }

    fn strips_of(
        looped: &Looped,
        aliased: bool,
        a: RtValue,
        (lb, ub): (i64, i64),
        (d, e): (i64, i64),
        budget: u64,
    ) -> Ran {
        let mut ir = Ir::new();
        let module = parse_module(&mut ir, looped.text).expect("kernel parses");
        let program = Program::lower_module(&ir, module);
        let f = &program.funcs[program.by_name["kernel"]];
        let pc = f
            .code
            .iter()
            .position(|i| matches!(i, Instr::Loop(_)))
            .expect("a loop");
        let l = &f.loops[0];
        let planned = l.strip.as_ref().expect("the loop is planned");
        let as_it_stands = Plan {
            regs: planned.regs.clone(),
            reg_count: planned.reg_count,
            invariants: planned.invariants.clone(),
            copies: None,
        };
        let plan = if looped.reroll {
            planned
        } else {
            &as_it_stands
        };

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
        let (next_iv, trips) = Strips::default().run(body, l, plan, caller, (lb, ub, looped.step));
        let Buffer::F32(y) = memory.get(y).clone() else {
            unreachable!()
        };
        let frame = (tags, vals);
        Ran {
            trips,
            next_iv,
            steps,
            y,
            frame_touched: frame_before != frame,
            frame,
            body: body.to_vec(),
            copies: planned.copies.clone(),
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

    /// `UNROLLED` stepping by `step`, run as one copy or as it stands.
    fn unrolled(step: i64, reroll: bool, aliased: bool, bounds: (i64, i64), d: i64) -> Ran {
        let looped = Looped {
            text: UNROLLED,
            step,
            reroll,
        };
        strips_of(&looped, aliased, HALF, bounds, (d, 0), u64::MAX)
    }

    #[test]
    fn a_rerolled_strip_commits_what_its_iterations_would_have_done() {
        // 20 iterations of three copies: 60 elements from 2.
        let (bounds, last_iv) = ((2, 62), 59);
        let ran = unrolled(3, true, false, bounds, 0);
        let c = ran.copies.expect("three copies of one iteration");
        assert_eq!((c.count, c.len, c.unit), (3, 7, 1));
        assert_eq!((ran.trips, ran.next_iv, ran.steps), (20, 62, 20 * 24));
        // Every copy's slots hold its own lane of the last iteration: its
        // `iv + k`, and the value it stored at `y[iv + k]`.
        let (tags, vals) = &ran.frame;
        let Instr::IntBin { lhs: loop_iv, .. } = ran.body[c.head(1)] else {
            panic!("copy 1 opens with its int.Add")
        };
        for k in 0..3 {
            let iv = match k {
                0 => loop_iv,
                _ => written(&ran.body[c.head(k)]).expect("the head"),
            };
            assert_eq!(tags[iv as usize], tag::INDEX);
            assert_eq!(
                vals[iv as usize] as i64,
                last_iv + k as i64,
                "copy {k}'s iv"
            );
            let Instr::Store1 { val, .. } = ran.body[c.at(k, 6)] else {
                panic!("copy {k} ends in its store")
            };
            assert_eq!(tags[val as usize], tag::F32);
            let stored = ran.y[(last_iv + k as i64) as usize];
            assert_eq!(
                vals[val as usize],
                stored.to_bits() as u64,
                "copy {k}'s sum"
            );
        }
        // The same body as it stands, one lane an iteration, agrees on all.
        let whole = unrolled(3, false, false, bounds, 0);
        assert_eq!((whole.trips, whole.next_iv, whole.steps), (20, 62, 20 * 24));
        assert_eq!((&whole.y, &whole.frame), (&ran.y, &ran.frame));
        for (i, &y) in ran.y.iter().enumerate() {
            let before = -(i as f32);
            let after = before + 0.5 * (i as f32 * 0.5);
            let want = if (2..62).contains(&i) { after } else { before };
            assert_eq!(y, want, "y[{i}]");
        }
    }

    #[test]
    fn a_step_the_copies_do_not_tile_runs_the_body_as_it_stands() {
        // Step 4 leaves a gap after each iteration's three elements.
        let ran = unrolled(4, true, false, (2, 82), 0);
        let whole = unrolled(4, false, false, (2, 82), 0);
        assert_eq!((ran.trips, ran.steps), (20, 20 * 24));
        assert_eq!((&ran.y, &ran.frame), (&whole.y, &whole.frame));
        assert_eq!(ran.y[5], -5.0, "the gap is untouched");
    }

    #[test]
    fn a_copy_that_reads_an_earlier_copys_store_abandons_the_rerolled_strip() {
        // One buffer, `y[i+1] = …` then the next copy's load of `x[i+1]`.
        let ran = unrolled(3, true, true, (2, 62), 1);
        assert_eq!((ran.trips, ran.steps), (0, 0));
        assert!(!ran.frame_touched);
    }
}

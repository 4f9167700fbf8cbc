//! The peephole run over each function's emitted code: it fuses the
//! producer/consumer pairs the `benchmarks/*.f90` kernels are made of into
//! the fused forms of [`Instr`] and drops the producers nothing reads any
//! more.
//!
//! | fused form | producer → consumer | checks, in order |
//! |---|---|---|
//! | `Convert2` | `Convert` → `Convert` | first source converts; the intermediate converts |
//! | `OffConvert` | `IntBin ± const` → `Convert` | source is an integer |
//! | `ConvertOff` | `Convert` → `IntBin ± const` | source converts; the intermediate is an integer |
//! | `FloatBin2` | `FloatBin` → `FloatBin` | first pair of kinds match; second pair match |
//! | `Load1Off` / `Store1Off` | `IntBin ± const` → index of `Load1` / `Store1` | base is an integer; then the access's own (memref, rank and bounds, value) |
//!
//! A fused instruction runs the checks of its constituents in their original
//! order and raises the same errors, so where the producer's check runs must
//! not move past anything observable. The pair forms therefore require the
//! consumer to be the *next* instruction and the only reader. Offset
//! addressing may have several readers, anywhere the producer dominates
//! (each recomputes `base ± const`; `base` cannot change in between, SSA
//! values being written once per activation of their block), provided every
//! reader is a rank-1 access using it as the index and either the first
//! reader is the next instruction or `base` is known to be an integer, in
//! which case the producer cannot fail at all.
//!
//! **Drop rule.** A producer is removed only when no instruction and no side
//! table (loop bounds, inits and yields, `if` conditions and yields, hook
//! arguments, alloc sizes, return and index ranges) still reads its slot;
//! the count below includes every slot a side table names, read or written,
//! which can only keep an instruction. Removing instructions shifts code
//! positions, so `Loop::end` and `If::{else_start, end}` are remapped.

use crate::program::{tag, Function, Instr, IntOp, Slot};

/// What lowering knows about a slot, independent of the IR's types.
pub(crate) mod fact {
    /// Holds a constant of the initial frame image; never written.
    pub const CONST: u8 = 1;
    /// Whatever writes it writes an integer kind (an `IntBin`, compare or
    /// integer-target `Convert` result, `memref.dim`, an induction variable,
    /// an integer constant).
    pub const INT: u8 = 2;
}

pub(crate) fn fuse(f: &mut Function, facts: &[u8]) {
    let uses = count_reads(f);
    let mut dropped = vec![false; f.code.len()];
    fuse_pairs(f, facts, &uses, &mut dropped);
    fuse_offsets(f, facts, &uses, &mut dropped);
    compact(f, &dropped);
}

/// The slots `instr` reads directly (ranges live in `Function::slots`).
pub(crate) fn reads(instr: &Instr, mut each: impl FnMut(Slot)) {
    match *instr {
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
        Instr::Convert2 { .. }
        | Instr::OffConvert { .. }
        | Instr::ConvertOff { .. }
        | Instr::FloatBin2 { .. }
        | Instr::Load1Off { .. }
        | Instr::Store1Off { .. } => unreachable!("only this pass, run once, makes fused forms"),
    }
}

fn count_reads(f: &Function) -> Vec<u32> {
    let mut uses = vec![0u32; f.tags.len()];
    for &s in &f.slots {
        uses[s as usize] += 1;
    }
    for l in &f.loops {
        for s in [l.lb, l.ub, l.step] {
            uses[s as usize] += 1;
        }
    }
    for s in &f.ifs {
        uses[s.cond as usize] += 1;
    }
    for instr in &f.code {
        reads(instr, |s| uses[s as usize] += 1);
    }
    uses
}

/// `±const` of an `IntBin{op, _, rhs}` as a wrapping addend.
fn const_offset(f: &Function, facts: &[u8], op: IntOp, rhs: Slot) -> Option<i32> {
    let int_const = fact::CONST | fact::INT;
    if facts[rhs as usize] & int_const != int_const {
        return None;
    }
    debug_assert!(tag::is_int(f.tags[rhs as usize]));
    let c = f.vals[rhs as usize] as i64;
    let off = match op {
        IntOp::Add => c,
        IntOp::Sub => c.checked_neg()?,
        _ => return None,
    };
    i32::try_from(off).ok()
}

/// The pair forms: producer at `p`, its only reader at `p + 1`.
fn fuse_pairs(f: &mut Function, facts: &[u8], uses: &[u32], dropped: &mut [bool]) {
    let mut p = 0;
    while p + 1 < f.code.len() {
        let fused = match (f.code[p], f.code[p + 1]) {
            (
                Instr::Convert {
                    to: first,
                    dst: mid,
                    src,
                },
                Instr::Convert {
                    to: then,
                    dst,
                    src: read,
                },
            ) if read == mid => Some((
                mid,
                Instr::Convert2 {
                    first,
                    then,
                    dst,
                    src,
                },
            )),
            (
                Instr::IntBin {
                    op,
                    dst: mid,
                    lhs: src,
                    rhs,
                },
                Instr::Convert { to, dst, src: read },
            ) if read == mid => const_offset(f, facts, op, rhs)
                .map(|off| (mid, Instr::OffConvert { to, dst, src, off })),
            (Instr::Convert { to, dst: mid, src }, Instr::IntBin { op, dst, lhs, rhs })
                if lhs == mid =>
            {
                const_offset(f, facts, op, rhs)
                    .map(|off| (mid, Instr::ConvertOff { to, dst, src, off }))
            }
            (
                Instr::FloatBin {
                    op: first,
                    dst: mid,
                    lhs: a,
                    rhs: b,
                },
                Instr::FloatBin {
                    op: then,
                    dst,
                    lhs,
                    rhs,
                },
            ) if lhs == mid || rhs == mid => Some((
                mid,
                Instr::FloatBin2 {
                    first,
                    then,
                    swapped: rhs == mid,
                    dst,
                    a,
                    b,
                    c: if rhs == mid { lhs } else { rhs },
                },
            )),
            _ => None,
        };
        match fused {
            // One read in all: the consumer's, and only once.
            Some((mid, instr)) if uses[mid as usize] == 1 => {
                f.code[p + 1] = instr;
                dropped[p] = true;
                p += 2;
            }
            _ => p += 1,
        }
    }
}

/// The index slot of a rank-1 access that reads it as nothing else.
fn access_index(instr: &Instr) -> Option<Slot> {
    match *instr {
        Instr::Load1 { mem, idx, .. } if mem != idx => Some(idx),
        Instr::Store1 { val, mem, idx } if val != idx && mem != idx => Some(idx),
        _ => None,
    }
}

/// Offset addressing: `IntBin{Add|Sub, base, const}` read only as the index
/// of rank-1 accesses moves into them.
fn fuse_offsets(f: &mut Function, facts: &[u8], uses: &[u32], dropped: &mut [bool]) {
    // How many live rank-1 accesses index with each slot.
    let mut indexed = vec![0u32; f.tags.len()];
    for (q, instr) in f.code.iter().enumerate() {
        if let (false, Some(idx)) = (dropped[q], access_index(instr)) {
            indexed[idx as usize] += 1;
        }
    }
    // Per slot: the (base, addend) its accesses now compute themselves.
    let mut moved: Vec<Option<(Slot, i32)>> = vec![None; f.tags.len()];
    for p in 0..f.code.len() {
        let Instr::IntBin {
            op,
            dst: mid,
            lhs: base,
            rhs,
        } = f.code[p]
        else {
            continue;
        };
        let readers = indexed[mid as usize];
        if dropped[p] || readers == 0 || readers != uses[mid as usize] {
            continue;
        }
        let Some(off) = const_offset(f, facts, op, rhs) else {
            continue;
        };
        let next_reads_it = f
            .code
            .get(p + 1)
            .is_some_and(|next| !dropped[p + 1] && access_index(next) == Some(mid));
        if facts[base as usize] & fact::INT != 0 || next_reads_it {
            moved[mid as usize] = Some((base, off));
            dropped[p] = true;
        }
    }
    for instr in &mut f.code {
        let Some((base, off)) = access_index(instr).and_then(|idx| moved[idx as usize]) else {
            continue;
        };
        *instr = match *instr {
            Instr::Load1 { dst, mem, .. } => Instr::Load1Off {
                dst,
                mem,
                base,
                off,
            },
            Instr::Store1 { val, mem, .. } => Instr::Store1Off {
                val,
                mem,
                base,
                off,
            },
            other => other,
        };
    }
}

/// Remove the dropped instructions and remap the code positions held by
/// the loop and `if` tables.
fn compact(f: &mut Function, dropped: &[bool]) {
    let mut new_pos = Vec::with_capacity(dropped.len() + 1);
    let mut live = 0u32;
    for &gone in dropped {
        new_pos.push(live);
        live += !gone as u32;
    }
    new_pos.push(live);
    let mut position = 0;
    f.code.retain(|_| {
        position += 1;
        !dropped[position - 1]
    });
    for l in &mut f.loops {
        l.end = new_pos[l.end as usize];
    }
    for s in &mut f.ifs {
        s.else_start = new_pos[s.else_start as usize];
        s.end = new_pos[s.end as usize];
    }
}

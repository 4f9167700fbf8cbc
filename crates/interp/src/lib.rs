//! `ftn-interp` — a bytecode interpreter for the structured dialects
//! (`arith`, `scf`, `memref`, `func`, plus direct execution of `fir` and `omp`
//! ops so frontend output can be tested *before* lowering).
//!
//! There is one execution engine. A function is **lowered once** to a
//! [`Program`]: every SSA value of its body (block arguments and results of
//! all nested regions) is numbered into a dense slot, and each op becomes a
//! pre-decoded instruction — constants are materialised into the initial
//! frame image, integer/float/compare ops carry their operation and
//! predicate as enum tags, conversions carry the target kind resolved from
//! the result type, rank-1 loads and stores borrow the memref from the
//! frame, and `scf.for` / `omp.wsloop` / `fir.do_loop` are one counted-loop
//! instruction (exclusive or inclusive bound, iv slot, iter-arg moves, body
//! range). `scf.if` / `fir.if` select a code range; `omp.target` /
//! `omp.target_data` regions are inlined. Lowering value-numbers as it
//! emits (equal constants share a slot, a pure scalar instruction equal to
//! one still in scope emits nothing) and does nothing else to the code:
//! the peephole that used to fuse producer/consumer pairs was deleted once
//! strips ran the hot loops and no end-to-end metric could see it
//! (`docs/ARCHITECTURE.md`, "There is no peephole"). An op that would fail
//! when executed — unknown, malformed, a constant of an unsupported type —
//! lowers to an instruction that raises the error only if it is reached.
//!
//! The run loop executes the instructions against a struct-of-arrays
//! **frame** (one per call): a kind byte and a `u64` payload per slot, with
//! memrefs held as indices into a per-frame descriptor table. Kinds are
//! dynamic — a caller may pass an `i32` where the IR says `index`, and a
//! result's kind follows its operand's runtime kind, exactly as [`RtValue`]
//! arithmetic does — so the IR's types are never trusted for them. There is
//! no map look-up, no string comparison and no heap allocation per op; loop
//! back-edges are taken inside the loop, and only the handful of
//! instructions a kernel body is made of are decoded in it.
//!
//! An innermost loop that carries no values and whose body is only those
//! instructions runs in **strips**: at loop entry, up to 1024 iterations at a
//! time execute one instruction across all of them — operand kinds read once
//! per strip, loop-invariant operands held as one value, addresses as
//! `base + lane * stride`, floats as lane arrays, stores deferred; a body
//! that is `K` unrolled copies of one iteration (a `simdlen(K)` loop) runs
//! as one copy over `K` lanes an iteration. A strip
//! either commits exactly what its iterations would have done (memory,
//! frame, step count, trip count) or is abandoned before its first write,
//! and the run loop carries on from that iteration: every error still comes
//! from the scalar path, at the iteration and with the partial writes an
//! op-by-op interpreter would show. `strip.rs` opens with the three rules
//! (all or nothing; no lane observes another lane's store; budget and
//! trips).
//!
//! Lowering happens where a module becomes long-lived:
//! `ftn_fpga::ExecutorImage` lowers every kernel of a bitstream,
//! `ftn_core::HostProgram` lowers the host module, and both run the
//! pre-lowered program on every launch. An [`Interp`] lowers a function and
//! its callees the first time it is called and keeps the program;
//! [`call_function`] builds a fresh `Interp`, so it lowers per call, which
//! suits tests and one-shot callers.
//!
//! Execution substrates hook in two ways:
//! * [`DialectHooks`] — every op the interpreter does not know becomes a
//!   hook instruction and is offered to `handle_op(ir, memory, op, args)`
//!   (the host runtime handles `device.*`). `func.call`, `memref.dma_start`
//!   and `memref.wait` are offered first too, so hooks can bind externs and
//!   account transfer time; declined, a call runs its pre-resolved callee
//!   and a DMA is a plain copy.
//! * [`Observer`] — `loop_executed(ir, op, trip)` once per completed loop
//!   instance, inner loops first; the FPGA executor turns the trip counts
//!   into cycles. There is no per-op callback.
//!
//! A step budget (`max_steps`, counted in IR ops and charged block by block
//! on entry) stops runaway loops with "interpreter step budget exhausted".
//!
//! The tree-walking interpreter this engine replaced lives on under
//! `tests/oracle/` as the reference of the differential suite
//! (`tests/differential.rs`).

mod disasm;
pub mod error;
pub mod interp;
mod lower;
pub mod memory;
mod program;
mod strip;
pub mod value;

pub use error::InterpError;
pub use interp::{
    call_function, DialectHooks, Interp, NoHooks, NoObserver, Observer, DEFAULT_MAX_STEPS,
};
pub use memory::{Buffer, BufferId, Memory};
pub use program::Program;
pub use value::{MemRefVal, RtValue};

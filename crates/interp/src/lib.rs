//! `ftn-interp` — a bytecode interpreter for the structured dialects
//! (`arith`, `scf`, `memref`, `func`, plus direct execution of `fir` and `omp`
//! ops so frontend output can be tested *before* lowering).
//!
//! There is one execution engine. A function is **lowered once** to a
//! [`Program`]: every SSA value of its body (block arguments and results of
//! all nested regions) is numbered into a dense slot, and each op becomes a
//! pre-decoded instruction — constants are materialised into the initial
//! frame, integer/float/compare ops carry their operation and predicate as
//! enum tags, conversions carry the target kind resolved from the result
//! type, rank-1 loads and stores borrow the memref from the frame, and
//! `scf.for` / `omp.wsloop` / `fir.do_loop` are one counted-loop instruction
//! (exclusive or inclusive bound, iv slot, iter-arg moves, body range).
//! `scf.if` / `fir.if` select a code range; `omp.target` / `omp.target_data`
//! regions are inlined. The run loop executes the instructions against a
//! `Vec<RtValue>` **frame** (one per call) with no map look-up, no string
//! comparison and no heap allocation per op. An op that would fail when
//! executed — unknown, malformed, a constant of an unsupported type — lowers
//! to an instruction that raises the error only if it is reached.
//!
//! Lowering happens where a module becomes long-lived:
//! `ftn_fpga::ExecutorImage` lowers every kernel of a bitstream,
//! `ftn_core::HostProgram` lowers the host module, and both run the
//! pre-lowered program on every launch. [`Interp::call`] /
//! [`call_function`] lower the called function and its callees on demand,
//! per call, which suits tests and one-shot callers.
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

pub mod error;
pub mod interp;
mod lower;
pub mod memory;
mod program;
pub mod value;

pub use error::InterpError;
pub use interp::{
    call_function, DialectHooks, Interp, NoHooks, NoObserver, Observer, DEFAULT_MAX_STEPS,
};
pub use memory::{Buffer, BufferId, Memory};
pub use program::Program;
pub use value::{MemRefVal, RtValue};

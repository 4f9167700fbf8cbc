#![warn(missing_docs)]
//! `ftn-shard` — sharded data environments: the host-side data plane that
//! lets one OpenMP `target data` region span a pool of FPGAs.
//!
//! * [`plan`] — [`ShardPlan`]: balanced leading-dimension partition of a
//!   mapped array into per-device blocks, with optional halo rows for
//!   stencil-style kernels; [`Partition`] names how each array distributes
//!   (`Split`, `Replicated`, `Reduced`).
//! * [`reduce`] — [`ReduceOp`]: element-wise sum/min/max combination of
//!   per-shard private copies (the combine step of a distributed
//!   `reduction(...)` clause).
//! * [`env`](mod@env) — [`ShardedEnvironment`]: scatters mapped arrays into
//!   per-shard host sub-buffers, one [`ShardSlice`] per shard and array, and
//!   reassembles them at gather time — concatenating owned rows or reducing
//!   private copies.
//! * [`transfer`] — [`RowTransferPlan`]: the ghost-row blocks a halo
//!   refresh moves between shard owners, as pure data.
//!
//! The crate is deliberately device-agnostic: residency, transfers, and
//! placement of the per-shard jobs live in `ftn_cluster::sharded`, which
//! pairs each shard with one pool device. With a single shard, scatter and
//! gather are exact copies — a one-shard environment is bit-identical to an
//! unsharded one.

pub mod env;
pub mod plan;
pub mod reduce;
pub mod transfer;

pub use env::{copy_elems, slice_of, ShardSlice, ShardedArray, ShardedEnvironment};
pub use plan::{Partition, RowMove, ShardPlan, ShardRange};
pub use reduce::ReduceOp;
pub use transfer::{RowBlock, RowTransferPlan};

#![warn(missing_docs)]
//! `ftn-cluster` — the multi-FPGA execution service: turns the single-device
//! simulator into a pooled, cached, asynchronous system.
//!
//! * [`pool`] — [`DevicePool`]: N simulated FPGAs, each behind a persistent
//!   worker thread, with its executor and device-local memory behind a
//!   lock the worker shares with inline runners. Workers run what callers
//!   cannot run themselves: the only job of a fan-out, sent to an idle
//!   device, is run by the thread that waits for it. Workers are reused
//!   across launches; nothing is spawned per kernel launch.
//! * [`cache`] — [`ArtifactCache`]: the content-addressed compile cache,
//!   with an optional on-disk JSON layer.
//! * [`machine`] — [`ClusterMachine`]: the pool-level mirror of
//!   [`ftn_core::Machine`] with one per-device ledger of
//!   [`ftn_host::RunStats`] and pool occupancy metrics. A sessionless call
//!   is a whole host program placed least-loaded, round-robin on ties, and
//!   run to completion where it is called; kernel-level launches against
//!   resident buffers go through a session. An array an open session maps
//!   is refused to everyone else.
//! * [`session`] — the session vocabulary (`MapKind`, `SessionStats`, and
//!   `SessionInfo`, what the one getter `session_info` reads of an open
//!   session), plus the whole-array spellings of the one-shard case of
//!   [`sharded`] (`open_session`, `session_launch`, `close_session`).
//! * [`rollup`] — per-kernel / per-session / per-device cost attribution
//!   ([`RollupRow`]) folded in where jobs complete; the ranking behind the
//!   serve stack's `GET /profile/top`.
//! * [`sharded`] — the session mechanism: persistent `target data`
//!   environments (arrays mapped once, launches with deferred writeback,
//!   one fetch at close, redundant transfers elided and counted)
//!   partitioned across one or more devices ([`ftn_shard::ShardPlan`]
//!   leading-dim blocks with optional halos, replicated broadcast arrays,
//!   per-shard reduction copies); every launch fans out as force-placed
//!   per-shard jobs and the close gathers or reduces the results. A
//!   session keeps the split it opened with until it closes.
//!
//! With a single device and the same call sequence, `ClusterMachine`
//! produces bit-identical results and statistics to `Machine` — a call runs
//! the same [`ftn_core::HostProgram`] routine. A scripted session
//! (map → N launches → writeback) is likewise bit-identical, results and
//! stats, to the equivalent `target data` program run on `Machine`.

pub mod cache;
mod exchange;
pub mod gate;
pub mod machine;
pub mod pool;
pub mod rollup;
pub mod session;
pub mod sharded;

pub use cache::{ArtifactCache, CacheStats};
pub use ftn_shard::{Partition, ReduceOp, ShardPlan};
pub use gate::PoolGate;
pub use machine::{
    ClusterMachine, ClusterRunReport, DevicePoolStats, KernelTicket, LaunchHandle, PoolStats,
};
pub use pool::DevicePool;
pub use rollup::{RollupBy, RollupRow};
pub use session::{MapInfo, MapKind, SessionInfo, SessionStats};
pub use sharded::{
    HaloRefreshReport, ShardArg, ShardCount, ShardedLaunchReport, ShardedLaunchTicket,
    ShardedReport, MAX_SHARDS_PER_DEVICE,
};

#[cfg(test)]
mod tests;

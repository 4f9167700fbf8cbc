//! `ftn-bench` — the evaluation harness: regenerates every table and figure
//! of the paper's §4 on the simulated U280.
//!
//! * [`workloads`] — SAXPY and SGESL benchmark drivers (Fortran sources from
//!   `benchmarks/`), the SGEFA LU factorizer that produces SGESL inputs, CPU
//!   reference implementations, and the hand-written-HLS baseline kernels.
//! * [`experiments`] — per-table experiment runners (10 seeded trials,
//!   median ± std, as the paper reports).
//! * [`stats`] — median/std/quantile/jitter helpers.
//! * [`driver`] — the `[--out PATH] [--quick]` command line and report
//!   tail shared by every `bench_*` binary, plus the in-process server
//!   start/stop pair the HTTP benchmarks use.
//! * [`locs`] — Table 7 lines-of-code accounting over this repository.
//! * [`diagram`] — Figures 1–2 regenerated from the registered pass pipeline.
//! * [`serve_bench`] — session vs sessionless launch throughput and
//!   transfer-elision measurements over the cluster (`BENCH_serve.json`).
//! * [`hetero_bench`] — throughput-weighted vs uniform shard plans on a
//!   mixed-speed pool and the fan-out's submit cost and message count
//!   (`BENCH_hetero.json`).
//! * [`rebalance_bench`] — auto-rebalance (re-planning epochs) vs a frozen
//!   weighted plan when a background tenant lands on one device mid-session
//!   (`BENCH_rebalance.json`).
//! * [`obs_bench`] — HTTP request latency under concurrent keep-alive
//!   clients and the tracing layer's enabled-vs-disabled overhead
//!   (`BENCH_obs.json`).
//! * [`concurrency_bench`] — concurrent session launch latency and
//!   throughput at 8/64/256 sessions, and untouched sessions' launch p99
//!   while migration epochs run (`BENCH_concurrency.json`).
//! * [`stencil_bench`] — iterative Jacobi over a sharded session: the
//!   inter-launch `refresh_halos` path (boundary rows device-to-device)
//!   vs the naive close/re-open gather baseline (`BENCH_stencil.json`).

pub mod concurrency_bench;
pub mod diagram;
pub mod driver;
pub mod experiments;
pub mod hetero_bench;
pub mod locs;
pub mod obs_bench;
pub mod rebalance_bench;
pub mod serve_bench;
pub mod shard_bench;
pub mod stats;
pub mod stencil_bench;
pub mod workloads;

pub use experiments::{
    table1_saxpy_runtime, table2_sgesl_runtime, table3_saxpy_resources, table4_sgesl_resources,
    table5_saxpy_power, table6_sgesl_power, Table,
};
pub use workloads::{Flow, SaxpyRun, SgeslRun};

// Flow is referenced by downstream consumers of the harness.
pub use workloads as workload_fns;

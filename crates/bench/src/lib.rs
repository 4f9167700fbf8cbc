//! `ftn-bench` — the evaluation harness: regenerates every table and figure
//! of the paper's §4 on the simulated U280.
//!
//! * [`workloads`] — SAXPY and SGESL benchmark drivers (Fortran sources from
//!   `benchmarks/`), the SGEFA LU factorizer that produces SGESL inputs, CPU
//!   reference implementations, and the hand-written-HLS baseline kernels.
//! * [`experiments`] — per-table experiment runners (the deterministic
//!   simulated value beside the paper's reported median).
//! * [`locs`] — Table 7 lines-of-code accounting over this repository.
//! * [`diagram`] — Figures 1–2 regenerated from the registered pass pipeline.
//!
//! The `tables` binary prints all of it; the two `benches/ablation_*`
//! targets sweep `simdlen` and the MAC-commuting pass. Wall-clock cost of
//! the compiler and the service layers is measured by `examples/bench_e2e`
//! (`BENCHMARK.json`), and the service layers' throughput and traffic
//! floors are assertions in `tests/*_semantics.rs` — neither lives here.

pub mod diagram;
pub mod experiments;
pub mod locs;
pub mod workloads;

pub use experiments::{
    table1_saxpy_runtime, table2_sgesl_runtime, table3_saxpy_resources, table4_sgesl_resources,
    table5_saxpy_power, table6_sgesl_power, Table,
};
pub use workloads::{Flow, SaxpyRun, SgeslRun};

// Flow is referenced by downstream consumers of the harness.
pub use workloads as workload_fns;

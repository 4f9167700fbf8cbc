//! ftn-trace — structured tracing and metrics for the ftn runtime.
//!
//! Three pieces, deliberately small and dependency-free (std plus the
//! vendored serde crates):
//!
//! - **Spans** ([`span()`], [`span_linked`], [`trace_scope`]): a global
//!   recorder of nested, trace-id-carrying spans in per-thread ring
//!   buffers. Disabled by default and a single atomic load when off, so
//!   library users of `ftn-cluster` pay nothing; `ftn serve` switches it on
//!   (`--trace-buffer N`).
//! - **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]): named counters/gauges plus log-bucketed latency
//!   histograms with p50/p95/p99 extraction, rendered as Prometheus text
//!   exposition (version 0.0.4) for `GET /metrics`; history and alerting
//!   are the scraping Prometheus server's job.
//! - **Export** ([`export_chrome`], [`export_chrome_range`]) and a leveled
//!   event [`fn@log`]: the span buffers serialize to Chrome trace-event
//!   JSON (`GET /trace`, Perfetto-viewable, one lane per device worker and
//!   per HTTP worker).
//! - **Profiling** ([`Profile`], [`device_utilization`]): the span rings
//!   aggregated into folded-stack self/total-time trees (collapsed-stack
//!   text, SVG flamegraph, JSON — `GET /profile`), plus per-device
//!   busy/idle utilization splits derived from job-span coverage.
//!
//! The span taxonomy and metric names threaded through the stack are
//! documented in `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

mod args;
mod chrome;
pub mod log;
mod metrics;
mod profile;
mod span;

pub use args::{ArgValue, Args};
pub use chrome::{export_chrome, export_chrome_range};
pub use log::{log, max_level, set_max_level, Level};
pub use metrics::{
    escape_label_value, labelled, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};
pub use profile::{
    device_utilization, device_utilization_range, DeviceUtilization, Profile, ProfileNode,
};
pub use span::{
    clear, current_span_id, current_trace_id, enabled, instant, new_trace_id, now_nanos,
    set_capacity, set_enabled, snapshot, snapshot_range, span, span_linked, trace_scope,
    LaneSnapshot, Span, SpanEvent, TraceScope,
};

/// Every lock in this crate goes through `lock`, `read` or `write`. They
/// ignore poisoning: each guarded structure is updated in single steps that
/// leave it valid (a ring push, a map insert, a field store), so a thread
/// that panicked while holding a span or registry lock must not wedge
/// `/metrics` for the rest.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared side of a registry lock; see [`lock`].
fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive side of a registry lock; see [`lock`].
fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

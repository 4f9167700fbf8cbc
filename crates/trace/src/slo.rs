//! Declarative SLOs evaluated with multi-window burn rates, and the
//! per-objective alert state machine behind `GET /alerts`.
//!
//! An objective is either a **latency quantile bound** — "the p99 of
//! `ftn_http_request_seconds` stays under 5 ms, measured over 30 s" — or an
//! **error-rate budget** — "at most 1% of requests fail, over 5 m". Both
//! reduce to the same arithmetic: over a trailing window, some fraction of
//! events were *bad* (slower than the threshold, or errors), and the SLO
//! grants a *budget* for that fraction (`1 - q` for a quantile objective,
//! the stated percentage for an error budget). The **burn rate** is the
//! observed bad fraction divided by the budget: burn 1.0 exactly spends the
//! budget, burn 6.0 exhausts it six times over.
//!
//! Following the multi-window discipline from Google's SRE workbook, each
//! objective is evaluated over a *fast* window (one sixth of the stated
//! window — catches a sharp regression in seconds) and the full *slow*
//! window (confirms it is sustained, rejects blips). The state machine:
//!
//! ```text
//!           either window burns          both windows burn
//!   ok ───────────────────────▶ pending ─────────────────▶ firing
//!   ▲                            │    ▲                      │
//!   │        neither burns       │    │ either burns         │ neither burns
//!   │◀───────────────────────────┘    │                      ▼
//!   └──────────────────────────── resolved ◀────────────────┘
//!         healthy for a full window
//! ```
//!
//! Transitions are logged via [`crate::log::log`] (target `slo`, `warn` for
//! a new firing), counted in the registry
//! (`ftn_slo_transitions_total{slo=...,to=...}`), and mirrored in a
//! `ftn_slo_state{slo=...}` gauge so the time-series store retains alert
//! history like any other metric.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::lock;
use crate::log::{log, Level};
use crate::metrics::{Counter, Exemplar, Gauge, Histogram, MetricsRegistry};

/// What an [`SloSpec`] objective bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Quantile `q` of a latency histogram must stay at or under
    /// `threshold_seconds`; the error budget is `1 - q`.
    Quantile {
        /// The bounded quantile (0.5, 0.95 or 0.99).
        q: f64,
        /// The latency bound in seconds.
        threshold_seconds: f64,
    },
    /// At most `budget` (a fraction of all requests) may be errors.
    ErrorRate {
        /// The allowed error fraction, in `(0, 1]`.
        budget: f64,
    },
    /// A gauge floor: every matching gauge reading (all labelled series of
    /// the metric base, e.g. each `ftn_device_utilization{device}`) below
    /// `threshold` is a *bad* sample. The budget is fixed at 0.5 — the
    /// objective fires when a majority of recent readings sit under the
    /// floor in both burn windows, i.e. a sustained under-shoot, not a blip.
    GaugeBelow {
        /// Readings strictly below this value are bad (same unit as the
        /// gauge; utilization gauges are integer percent).
        threshold: f64,
    },
}

/// One parsed service-level objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// The original spec text (`http_p99<5ms/30s`) — the alert's identity.
    pub spec: String,
    /// The metric the objective reads (`ftn_http_request_seconds`, or
    /// `ftn_http_errors_total` for an error budget).
    pub metric: String,
    /// The bound.
    pub kind: SloKind,
    /// The slow evaluation window in nanoseconds (the fast window is one
    /// sixth of it).
    pub window_nanos: u64,
}

/// Metric-name aliases accepted in SLO specs.
fn alias(name: &str) -> &str {
    match name {
        "http" => "ftn_http_request_seconds",
        "queue_wait" => "ftn_pool_queue_wait_seconds",
        "epoch" => "ftn_pool_epoch_seconds",
        "utilization" => "ftn_device_utilization",
        other => other,
    }
}

/// Parse a duration like `250ns`, `80us`, `5ms`, `1.5s` into seconds.
fn parse_duration_seconds(text: &str) -> Result<f64, String> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("ns") {
        (d, 1e-9)
    } else if let Some(d) = text.strip_suffix("us") {
        (d, 1e-6)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, 1e-3)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1.0)
    } else {
        return Err(format!("duration '{text}' needs a ns/us/ms/s unit"));
    };
    let value: f64 = digits
        .parse()
        .map_err(|_| format!("bad duration number '{digits}'"))?;
    if !(value > 0.0 && value.is_finite()) {
        return Err(format!("duration '{text}' must be positive"));
    }
    Ok(value * scale)
}

/// Parse a window like `500ms`, `30s`, `5m`, `1h` into nanoseconds.
fn parse_window_nanos(text: &str) -> Result<u64, String> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("ms") {
        (d, 1e6)
    } else if let Some(d) = text.strip_suffix('h') {
        (d, 3.6e12)
    } else if let Some(d) = text.strip_suffix('m') {
        (d, 6e10)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1e9)
    } else {
        return Err(format!("window '{text}' needs a ms/s/m/h unit"));
    };
    let value: f64 = digits
        .parse()
        .map_err(|_| format!("bad window number '{digits}'"))?;
    if !(value > 0.0 && value.is_finite()) {
        return Err(format!("window '{text}' must be positive"));
    }
    Ok((value * scale) as u64)
}

impl SloSpec {
    /// Parse a spec string. Two grammars:
    ///
    /// - `METRIC_pQQ<DURATION/WINDOW` — quantile bound. `METRIC` is a
    ///   histogram name or an alias (`http`, `queue_wait`, `epoch`); `QQ` is
    ///   50, 95 or 99; `DURATION` takes ns/us/ms/s; `WINDOW` takes ms/s/m/h.
    ///   Example: `http_p99<5ms/30s`.
    /// - `errors<PERCENT%/WINDOW` — error-rate budget over the built-in
    ///   `ftn_http_errors_total` / `ftn_http_requests_total` counters.
    ///   Example: `errors<1%/5m`.
    /// - `METRIC<PERCENT%/WINDOW` (any other `METRIC` with a `%` bound) —
    ///   gauge floor: fires when a majority of the metric's gauge readings
    ///   (every labelled series) sit below the threshold across both burn
    ///   windows. `utilization` aliases `ftn_device_utilization`.
    ///   Example: `utilization<20%/5m`.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let (lhs, rhs) = text
            .split_once('<')
            .ok_or_else(|| format!("SLO '{text}' missing '<'"))?;
        let (bound, window) = rhs
            .split_once('/')
            .ok_or_else(|| format!("SLO '{text}' missing '/WINDOW'"))?;
        let window_nanos = parse_window_nanos(window)?;
        if lhs == "errors" {
            let percent = bound
                .strip_suffix('%')
                .ok_or_else(|| format!("error budget '{bound}' must end in '%'"))?;
            let percent: f64 = percent
                .parse()
                .map_err(|_| format!("bad error budget '{bound}'"))?;
            if !(percent > 0.0 && percent <= 100.0) {
                return Err(format!("error budget '{bound}' must be in (0, 100]%"));
            }
            return Ok(SloSpec {
                spec: text.to_string(),
                metric: "ftn_http_errors_total".to_string(),
                kind: SloKind::ErrorRate {
                    budget: percent / 100.0,
                },
                window_nanos,
            });
        }
        if let Some(percent) = bound.strip_suffix('%') {
            if lhs.is_empty() {
                return Err(format!("SLO '{text}' has an empty metric name"));
            }
            let percent: f64 = percent
                .parse()
                .map_err(|_| format!("bad gauge threshold '{bound}'"))?;
            if !(percent > 0.0 && percent <= 100.0) {
                return Err(format!("gauge threshold '{bound}' must be in (0, 100]%"));
            }
            return Ok(SloSpec {
                spec: text.to_string(),
                metric: alias(lhs).to_string(),
                kind: SloKind::GaugeBelow { threshold: percent },
                window_nanos,
            });
        }
        let (name, quantile) = lhs
            .rsplit_once("_p")
            .ok_or_else(|| format!("SLO '{text}' needs a '_p50/_p95/_p99' quantile"))?;
        let q = match quantile {
            "50" => 0.5,
            "95" => 0.95,
            "99" => 0.99,
            other => return Err(format!("unsupported quantile 'p{other}' (use 50/95/99)")),
        };
        Ok(SloSpec {
            spec: text.to_string(),
            metric: alias(name).to_string(),
            kind: SloKind::Quantile {
                q,
                threshold_seconds: parse_duration_seconds(bound)?,
            },
            window_nanos,
        })
    }

    /// The allowed bad fraction: `1 - q` for a quantile bound, the stated
    /// fraction for an error budget, and a fixed 0.5 for a gauge floor (a
    /// majority of readings under the threshold burns the budget).
    pub fn budget(&self) -> f64 {
        match self.kind {
            SloKind::Quantile { q, .. } => (1.0 - q).max(1e-9),
            SloKind::ErrorRate { budget } => budget,
            SloKind::GaugeBelow { .. } => 0.5,
        }
    }
}

/// The default objectives installed by `ftn serve` when no `--slo` flags are
/// given: generous bounds on the built-in request-latency and queue-wait
/// histograms that only fire on a genuinely unhealthy server.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::parse("http_p99<1s/60s").expect("default SLO parses"),
        SloSpec::parse("queue_wait_p99<500ms/60s").expect("default SLO parses"),
    ]
}

/// The alert state of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Within budget.
    Ok,
    /// One burn window breached — waiting for the other to confirm.
    Pending,
    /// Both windows breached: the objective is being violated.
    Firing,
    /// Previously firing, now healthy; returns to ok after a full clean
    /// window.
    Resolved,
}

impl AlertState {
    /// The canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    fn as_gauge(self) -> i64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
            AlertState::Resolved => 3,
        }
    }
}

/// A point-in-time view of one objective — the `GET /alerts` payload row.
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// The spec text (alert identity).
    pub spec: String,
    /// The observed metric name.
    pub metric: String,
    /// Current state.
    pub state: AlertState,
    /// The slow window in seconds.
    pub window_seconds: f64,
    /// Burn rate over the fast window (window / 6).
    pub fast_burn: f64,
    /// Burn rate over the slow (full) window.
    pub slow_burn: f64,
    /// When the current state was entered (trace-clock nanoseconds).
    pub since_nanos: u64,
    /// The observed histogram's exemplar, when one is stored — links a
    /// firing latency alert to the offending request's trace.
    pub exemplar: Option<Exemplar>,
}

/// What an objective reads each evaluation: cumulative bad/total event
/// counts derived from live metric handles.
enum Source {
    Quantile {
        histogram: Arc<Histogram>,
        threshold_seconds: f64,
    },
    ErrorRate {
        bad: Arc<Counter>,
        total: Arc<Counter>,
    },
    /// Gauge-floor objectives sample every matching gauge per evaluation;
    /// the counters accumulate those samples into the cumulative bad/total
    /// stream the burn-rate machinery expects.
    GaugeBelow {
        threshold: f64,
        bad: Counter,
        total: Counter,
    },
}

struct RuntimeState {
    /// `(nanos, bad_cumulative, total_cumulative)` per evaluation, oldest
    /// first, pruned to twice the slow window.
    history: VecDeque<(u64, u64, u64)>,
    state: AlertState,
    entered_nanos: u64,
    fast_burn: f64,
    slow_burn: f64,
}

struct SloRuntime {
    spec: SloSpec,
    source: Source,
    state_gauge: Arc<Gauge>,
    runtime: Mutex<RuntimeState>,
}

/// Evaluates a set of [`SloSpec`] objectives against live registry metrics.
///
/// Construct once with the server's registry, then call
/// [`SloEngine::evaluate_at`] on the scrape cadence; [`SloEngine::statuses`]
/// serves `GET /alerts`.
pub struct SloEngine {
    registry: Arc<MetricsRegistry>,
    slos: Vec<SloRuntime>,
}

/// Burn rate over the trailing `window`: the bad fraction of events between
/// the baseline entry (newest history entry at or before `now - window`,
/// else the oldest) and the latest entry, divided by `budget`. Zero when
/// history has fewer than two points or the window saw no events — no
/// traffic burns no budget.
fn burn(history: &VecDeque<(u64, u64, u64)>, now: u64, window: u64, budget: f64) -> f64 {
    let (Some(&(cur_nanos, cur_bad, cur_total)), true) = (history.back(), history.len() >= 2)
    else {
        return 0.0;
    };
    let start = now.saturating_sub(window);
    let &(base_nanos, base_bad, base_total) = history
        .iter()
        .rev()
        .find(|e| e.0 <= start)
        .unwrap_or_else(|| history.front().expect("len >= 2"));
    if base_nanos >= cur_nanos {
        return 0.0;
    }
    let d_total = cur_total.saturating_sub(base_total);
    if d_total == 0 {
        return 0.0;
    }
    let d_bad = cur_bad.saturating_sub(base_bad);
    (d_bad as f64 / d_total as f64) / budget
}

impl SloEngine {
    /// Build an engine over `specs`, creating the observed metric handles in
    /// `registry` (so an SLO on a not-yet-touched metric simply reads zero).
    pub fn new(specs: Vec<SloSpec>, registry: Arc<MetricsRegistry>) -> SloEngine {
        let slos = specs
            .into_iter()
            .map(|spec| {
                let source = match spec.kind {
                    SloKind::Quantile {
                        threshold_seconds, ..
                    } => Source::Quantile {
                        histogram: registry.histogram(&spec.metric),
                        threshold_seconds,
                    },
                    SloKind::ErrorRate { .. } => Source::ErrorRate {
                        bad: registry.counter(&spec.metric),
                        total: registry.counter("ftn_http_requests_total"),
                    },
                    SloKind::GaugeBelow { threshold } => Source::GaugeBelow {
                        threshold,
                        bad: Counter::default(),
                        total: Counter::default(),
                    },
                };
                let state_gauge = registry.gauge(&crate::metrics::labelled(
                    "ftn_slo_state",
                    &[("slo", &spec.spec)],
                ));
                state_gauge.set(AlertState::Ok.as_gauge());
                SloRuntime {
                    spec,
                    source,
                    state_gauge,
                    runtime: Mutex::new(RuntimeState {
                        history: VecDeque::new(),
                        state: AlertState::Ok,
                        entered_nanos: 0,
                        fast_burn: 0.0,
                        slow_burn: 0.0,
                    }),
                }
            })
            .collect();
        SloEngine { registry, slos }
    }

    /// Evaluate every objective at an explicit trace-clock time — the
    /// deterministic entry point (tests drive synthetic clocks through it).
    pub fn evaluate_at(&self, now_nanos: u64) {
        for slo in &self.slos {
            let (bad, total) = match &slo.source {
                Source::Quantile {
                    histogram,
                    threshold_seconds,
                } => {
                    let snap = histogram.snapshot();
                    let total = snap.count();
                    (
                        total.saturating_sub(snap.count_le_seconds(*threshold_seconds)),
                        total,
                    )
                }
                Source::ErrorRate { bad, total } => (bad.get(), total.get()),
                Source::GaugeBelow {
                    threshold,
                    bad,
                    total,
                } => {
                    // Sample every labelled series of the metric base (e.g.
                    // each ftn_device_utilization{device="N"}) and fold the
                    // readings into the cumulative bad/total stream. No
                    // matching gauges means no samples — and no burn.
                    for (name, value) in self.registry.snapshot_all() {
                        let matches = name == slo.spec.metric
                            || name
                                .strip_prefix(slo.spec.metric.as_str())
                                .is_some_and(|rest| rest.starts_with('{'));
                        if !matches {
                            continue;
                        }
                        if let crate::metrics::MetricValue::Gauge(v) = value {
                            total.inc();
                            if (v as f64) < *threshold {
                                bad.inc();
                            }
                        }
                    }
                    (bad.get(), total.get())
                }
            };
            let mut rt = lock(&slo.runtime);
            rt.history.push_back((now_nanos, bad, total));
            let cutoff = now_nanos.saturating_sub(2 * slo.spec.window_nanos);
            while rt.history.len() > 2 && rt.history.front().is_some_and(|e| e.0 < cutoff) {
                rt.history.pop_front();
            }
            let budget = slo.spec.budget();
            let fast_window = (slo.spec.window_nanos / 6).max(1);
            rt.fast_burn = burn(&rt.history, now_nanos, fast_window, budget);
            rt.slow_burn = burn(&rt.history, now_nanos, slo.spec.window_nanos, budget);
            let any = rt.fast_burn >= 1.0 || rt.slow_burn >= 1.0;
            let both = rt.fast_burn >= 1.0 && rt.slow_burn >= 1.0;
            let healthy_for_window =
                now_nanos.saturating_sub(rt.entered_nanos) >= slo.spec.window_nanos;
            let next = match rt.state {
                AlertState::Ok if any => AlertState::Pending,
                AlertState::Pending if both => AlertState::Firing,
                AlertState::Pending if !any => AlertState::Ok,
                AlertState::Firing if !any => AlertState::Resolved,
                AlertState::Resolved if any => AlertState::Pending,
                AlertState::Resolved if healthy_for_window => AlertState::Ok,
                same => same,
            };
            if next != rt.state {
                let level = if next == AlertState::Firing {
                    Level::Warn
                } else {
                    Level::Info
                };
                log(
                    level,
                    "slo",
                    format!(
                        "{}: {} -> {} (fast_burn={:.2}, slow_burn={:.2})",
                        slo.spec.spec,
                        rt.state.as_str(),
                        next.as_str(),
                        rt.fast_burn,
                        rt.slow_burn
                    ),
                );
                self.registry
                    .counter(&crate::metrics::labelled(
                        "ftn_slo_transitions_total",
                        &[("slo", &slo.spec.spec), ("to", next.as_str())],
                    ))
                    .inc();
                slo.state_gauge.set(next.as_gauge());
                rt.state = next;
                rt.entered_nanos = now_nanos;
            }
        }
    }

    /// A point-in-time view of every objective.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.slos
            .iter()
            .map(|slo| {
                let rt = lock(&slo.runtime);
                AlertStatus {
                    spec: slo.spec.spec.clone(),
                    metric: slo.spec.metric.clone(),
                    state: rt.state,
                    window_seconds: slo.spec.window_nanos as f64 * 1e-9,
                    fast_burn: rt.fast_burn,
                    slow_burn: rt.slow_burn,
                    since_nanos: rt.entered_nanos,
                    exemplar: match &slo.source {
                        Source::Quantile { histogram, .. } => histogram.exemplar(),
                        Source::ErrorRate { .. } | Source::GaugeBelow { .. } => None,
                    },
                }
            })
            .collect()
    }

    /// The spec texts of objectives currently firing — the `/healthz`
    /// degraded-status reasons.
    pub fn firing(&self) -> Vec<String> {
        self.slos
            .iter()
            .filter(|s| lock(&s.runtime).state == AlertState::Firing)
            .map(|s| s.spec.spec.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_quantile_specs_with_aliases_and_units() {
        let s = SloSpec::parse("http_p99<5ms/30s").unwrap();
        assert_eq!(s.metric, "ftn_http_request_seconds");
        assert_eq!(s.window_nanos, 30_000_000_000);
        match s.kind {
            SloKind::Quantile {
                q,
                threshold_seconds,
            } => {
                assert!((q - 0.99).abs() < 1e-12);
                assert!((threshold_seconds - 0.005).abs() < 1e-12);
            }
            other => panic!("expected quantile, got {other:?}"),
        }
        assert!((s.budget() - 0.01).abs() < 1e-12);

        let s = SloSpec::parse("queue_wait_p95<80us/5m").unwrap();
        assert_eq!(s.metric, "ftn_pool_queue_wait_seconds");
        assert_eq!(s.window_nanos, 300_000_000_000);

        let s = SloSpec::parse("my_custom_seconds_p50<1.5s/500ms").unwrap();
        assert_eq!(s.metric, "my_custom_seconds");
        assert_eq!(s.window_nanos, 500_000_000);
        assert!((s.budget() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_error_rate_spec() {
        let s = SloSpec::parse("errors<1%/5m").unwrap();
        assert_eq!(s.metric, "ftn_http_errors_total");
        assert!(matches!(s.kind, SloKind::ErrorRate { budget } if (budget - 0.01).abs() < 1e-12));
    }

    #[test]
    fn parse_gauge_floor_spec_with_alias() {
        let s = SloSpec::parse("utilization<20%/5m").unwrap();
        assert_eq!(s.metric, "ftn_device_utilization");
        assert_eq!(s.window_nanos, 300_000_000_000);
        assert!(matches!(
            s.kind,
            SloKind::GaugeBelow { threshold } if (threshold - 20.0).abs() < 1e-12
        ));
        assert!((s.budget() - 0.5).abs() < 1e-12);
        let s = SloSpec::parse("my_gauge<75%/30s").unwrap();
        assert_eq!(s.metric, "my_gauge");
    }

    #[test]
    fn gauge_floor_objective_fires_on_sustained_undershoot() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = SloEngine::new(
            vec![SloSpec::parse("utilization<20%/60s").unwrap()],
            registry.clone(),
        );
        let d0 = registry.gauge("ftn_device_utilization{device=\"0\"}");
        let d1 = registry.gauge("ftn_device_utilization{device=\"1\"}");
        let sec = 1_000_000_000u64;
        let mut now = 0;

        // Healthy: both devices busy, no burn.
        d0.set(85);
        d1.set(90);
        for _ in 0..5 {
            now += sec;
            engine.evaluate_at(now);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);

        // Both devices idle: every sample is bad, burn 1/0.5 = 2x.
        d0.set(3);
        d1.set(0);
        for _ in 0..30 {
            now += sec;
            engine.evaluate_at(now);
        }
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Firing, "sustained idle fleet fires");
        assert!(s.fast_burn >= 1.0 && s.slow_burn >= 1.0);
        assert!(s.exemplar.is_none(), "gauges carry no exemplars");

        // Busy again: recovers.
        d0.set(60);
        d1.set(70);
        for _ in 0..80 {
            now += sec;
            engine.evaluate_at(now);
        }
        assert!(engine.firing().is_empty(), "recovered");
    }

    #[test]
    fn gauge_floor_without_matching_gauges_burns_nothing() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = SloEngine::new(
            vec![SloSpec::parse("utilization<20%/60s").unwrap()],
            registry.clone(),
        );
        // A prefix-similar but different metric must not be sampled.
        registry.gauge("ftn_device_utilization_other").set(0);
        for t in 1..=10u64 {
            engine.evaluate_at(t * 1_000_000_000);
        }
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Ok);
        assert_eq!((s.fast_burn, s.slow_burn), (0.0, 0.0));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "http_p99",           // no bound
            "http_p99<5ms",       // no window
            "http_p99<5ms/",      // empty window
            "http_p99<5/30s",     // duration missing unit
            "http_p99<5ms/30x",   // bad window unit
            "http_p42<5ms/30s",   // unsupported quantile
            "http<5ms/30s",       // no quantile at all
            "errors<1/5m",        // missing %
            "errors<0%/5m",       // zero budget
            "errors<101%/5m",     // over 100%
            "http_p99<-5ms/30s",  // negative duration
            "http_p99<5ms/-30s",  // negative window
            "http_p99<abcms/30s", // non-numeric
            "",                   // empty
        ] {
            assert!(SloSpec::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn defaults_parse_and_cover_builtin_histograms() {
        let slos = default_slos();
        assert_eq!(slos.len(), 2);
        assert_eq!(slos[0].metric, "ftn_http_request_seconds");
        assert_eq!(slos[1].metric, "ftn_pool_queue_wait_seconds");
    }

    /// Drive the full ok → pending → firing → resolved → ok walk with a
    /// synthetic clock and injected latencies — deterministic, no threads.
    #[test]
    fn state_machine_walks_all_transitions() {
        let registry = Arc::new(MetricsRegistry::new());
        // p50 under 1ms over a 60s window; budget = 0.5, fast window = 10s.
        let spec = SloSpec::parse("lat_seconds_p50<1ms/60s").unwrap();
        let engine = SloEngine::new(vec![spec], registry.clone());
        let h = registry.histogram("lat_seconds");
        let sec = 1_000_000_000u64;

        // Healthy traffic: all observations fast, burn stays 0.
        let mut now = 0;
        for _ in 0..5 {
            now += sec;
            h.observe(0.0001);
            engine.evaluate_at(now);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);

        // Inject slow requests: every new observation is bad, so both the
        // fast and slow windows burn at 1/0.5 = 2x budget.
        for _ in 0..3 {
            now += sec;
            h.observe(0.5);
            h.observe(0.5);
            h.observe(0.5);
            engine.evaluate_at(now);
        }
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Firing, "sustained breach fires");
        assert!(s.fast_burn >= 1.0 && s.slow_burn >= 1.0);
        assert_eq!(
            registry.counter_value(
                "ftn_slo_transitions_total{slo=\"lat_seconds_p50<1ms/60s\",to=\"firing\"}"
            ),
            Some(1)
        );
        assert_eq!(
            registry
                .gauge("ftn_slo_state{slo=\"lat_seconds_p50<1ms/60s\"}")
                .get(),
            AlertState::Firing.as_gauge()
        );

        // Recovery: flood with fast observations until both windows drop
        // below burn 1. Fast window (10s) recovers first.
        for _ in 0..2 {
            now += 10 * sec;
            for _ in 0..50 {
                h.observe(0.0001);
            }
            engine.evaluate_at(now);
        }
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Resolved, "healthy windows resolve");
        assert!(engine.firing().is_empty());

        // A full clean window later: back to ok.
        now += 61 * sec;
        h.observe(0.0001);
        engine.evaluate_at(now);
        // Two evaluations may be needed: one marks history, one confirms.
        now += sec;
        engine.evaluate_at(now);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
    }

    #[test]
    fn blip_returns_pending_to_ok_without_firing() {
        let registry = Arc::new(MetricsRegistry::new());
        let spec = SloSpec::parse("lat_seconds_p50<1ms/60s").unwrap();
        let engine = SloEngine::new(vec![spec], registry.clone());
        let h = registry.histogram("lat_seconds");
        let sec = 1_000_000_000u64;

        // Build healthy history over more than the slow window, so the slow
        // burn has a true baseline and stays low during a short blip.
        let mut now = 0;
        for _ in 0..70 {
            now += sec;
            for _ in 0..10 {
                h.observe(0.0001);
            }
            engine.evaluate_at(now);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);

        // One bad second: fast window (10s) breaches, slow (60s) does not.
        now += sec;
        for _ in 0..150 {
            h.observe(0.5);
        }
        engine.evaluate_at(now);
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Pending, "one window alone is pending");
        assert!(s.fast_burn >= 1.0, "fast burn = {}", s.fast_burn);
        assert!(s.slow_burn < 1.0, "slow burn = {}", s.slow_burn);

        // Healthy again: pending clears without ever firing.
        for _ in 0..12 {
            now += sec;
            for _ in 0..50 {
                h.observe(0.0001);
            }
            engine.evaluate_at(now);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        assert_eq!(
            registry.counter_value(
                "ftn_slo_transitions_total{slo=\"lat_seconds_p50<1ms/60s\",to=\"firing\"}"
            ),
            None,
            "never fired"
        );
    }

    #[test]
    fn no_traffic_burns_nothing() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = SloEngine::new(
            vec![SloSpec::parse("lat_seconds_p99<1ms/60s").unwrap()],
            registry.clone(),
        );
        for t in 1..=10u64 {
            engine.evaluate_at(t * 1_000_000_000);
        }
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Ok);
        assert_eq!(s.fast_burn, 0.0);
        assert_eq!(s.slow_burn, 0.0);
    }

    #[test]
    fn error_rate_objective_reads_counters() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = SloEngine::new(
            vec![SloSpec::parse("errors<10%/60s").unwrap()],
            registry.clone(),
        );
        let errors = registry.counter("ftn_http_errors_total");
        let requests = registry.counter("ftn_http_requests_total");
        let sec = 1_000_000_000u64;
        let mut now = 0;
        // 50% errors against a 10% budget: burn 5x on both windows.
        for _ in 0..4 {
            now += sec;
            errors.add(5);
            requests.add(10);
            engine.evaluate_at(now);
        }
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Firing);
        assert!(s.slow_burn > 4.0, "slow burn = {}", s.slow_burn);
        assert!(s.exemplar.is_none(), "counters carry no exemplars");
    }
}

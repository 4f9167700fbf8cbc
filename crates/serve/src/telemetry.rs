//! Telemetry: the server's metric handles, the gauges and the scraper that
//! keeps their history, and every read-only endpoint — `/metrics`, `/trace`,
//! `/metrics/range`, `/profile`, `/profile/top`, `/alerts`, `/healthz`,
//! `/stats`.
//!
//! Invariants every change here must keep:
//!
//! * **Readers hold no table lock while they look.** Pools are walked
//!   through `ServeState::pools_snapshot`, an owned list that skips programs
//!   whose pool is not built yet (or is being built) without waiting.
//! * **A probe never queues behind the work it observes.** `/healthz` and
//!   the gauges `try_lock` each machine and fall back to the last-known-good
//!   value; `/stats` and `/profile/top` do lock, one pool at a time.
//! * **Metrics are per server**, not process-global (the span recorder and
//!   log level are): several servers in one process keep independent counts.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ftn_cluster::{RollupBy, RollupRow};
use ftn_trace::{Counter, Histogram, MetricsRegistry, PointValue};
use serde::{Serialize, Value};

use crate::conn::{HandlerError, Reply};
use crate::http::Request;
use crate::{api, bad_request, lock, not_found, ServeState};

/// The server's metric handles, all backed by one [`MetricsRegistry`]. Every
/// pool the server creates reports into the same registry
/// ([`ftn_cluster::ClusterMachine::use_metrics`]), so `GET /metrics` is one
/// scrape across the whole serve→cluster→worker stack.
pub(crate) struct ServeMetrics {
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) http_connections: Arc<Counter>,
    pub(crate) http_requests: Arc<Counter>,
    pub(crate) launches: Arc<Counter>,
    pub(crate) runs: Arc<Counter>,
    /// Requests answered with a 5xx status (the `errors<P%/W` SLO source).
    pub(crate) http_errors: Arc<Counter>,
    /// End-to-end request handling latency (read to serialized response).
    pub(crate) request_seconds: Arc<Histogram>,
}

impl ServeMetrics {
    pub(crate) fn new() -> ServeMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        ServeMetrics {
            http_connections: registry.counter("ftn_http_connections_total"),
            http_requests: registry.counter("ftn_http_requests_total"),
            launches: registry.counter("ftn_launches_total"),
            runs: registry.counter("ftn_runs_total"),
            http_errors: registry.counter("ftn_http_errors_total"),
            request_seconds: registry.histogram("ftn_http_request_seconds"),
            registry,
        }
    }
}

impl ServeState {
    /// Refresh the point-in-time gauges: uptime plus per-device queue
    /// depths, one gauge per device per pool (labelled by [`short_key`]).
    /// Called by `GET /metrics` and by every background scrape, so the
    /// store retains gauge history even when nobody polls `/metrics`. A
    /// pool whose lock is busy keeps its previous gauge values.
    fn refresh_gauges(&self) {
        let gauge = |name: &str, value: i64| self.metrics.registry.gauge(name).set(value);
        gauge(
            "ftn_uptime_seconds",
            self.started.elapsed().as_secs() as i64,
        );
        for (program, gate) in self.pools_snapshot() {
            let pool = short_key(&program.key);
            let depths = gate.try_lock().map(|machine| machine.queue_depths());
            for (device, depth) in depths.iter().flatten().enumerate() {
                let labels = [("pool", pool), ("device", &device.to_string())];
                let name = ftn_trace::labelled("ftn_pool_queue_depth", &labels);
                gauge(&name, *depth as i64);
            }
        }
        // Busy percent per device over the trailing second, from job-span
        // coverage on the `ftn-device-N` lanes: queryable via
        // `/metrics/range` and usable in `utilization<P%/W` SLOs like any
        // gauge. Empty (no gauges) when span recording is disabled.
        let now = ftn_trace::now_nanos();
        let since = now.saturating_sub(UTILIZATION_WINDOW_NANOS);
        for d in ftn_trace::device_utilization_range(since, now) {
            let labels = [("device", &*d.device.to_string())];
            let name = ftn_trace::labelled("ftn_device_utilization", &labels);
            gauge(&name, (d.busy_fraction() * 100.0).round() as i64);
        }
    }

    /// `GET /metrics`: refresh the point-in-time gauges, then render the
    /// whole registry as a Prometheus text exposition.
    pub(crate) fn render_metrics(&self) -> Result<Reply, HandlerError> {
        self.refresh_gauges();
        let text = self.metrics.registry.render_prometheus();
        Ok(Reply::text("text/plain; version=0.0.4", &text))
    }

    /// One background-scraper pass: refresh gauges, snapshot every metric
    /// into the time-series store, evaluate the SLO engine.
    fn scrape_once(&self) {
        self.refresh_gauges();
        let now = ftn_trace::now_nanos();
        self.store.scrape_at(&self.metrics.registry, now);
        self.slo.evaluate_at(now);
    }

    /// `GET /trace?since=NANOS&until=NANOS`: the recorded span timeline as
    /// a Chrome trace-event document, clipped to spans overlapping the
    /// window (nanoseconds since the recorder's epoch, i.e. `ts`×1000).
    pub(crate) fn render_trace(&self, req: &Request) -> Result<Reply, HandlerError> {
        let (since, until) = parse_window(req)?;
        let text = ftn_trace::export_chrome_range(since, until);
        Ok(Reply::text("application/json", &text))
    }

    /// `GET /metrics/range?name=METRIC&since=NANOS&until=NANOS`: the
    /// scraped history of one metric as a JSON series of timestamped
    /// points. Histogram series carry per-snapshot count/sum/p50/p95/p99;
    /// an unknown series (or scraping disabled) is a 404. Without `name`,
    /// the discovery index: every retained series with its kind, point
    /// count and covered window.
    pub(crate) fn metrics_range(&self, req: &Request) -> Result<Value, HandlerError> {
        let interval = self.config.scrape_interval_ms;
        let Some(name) = req.query_param("name") else {
            return Ok(api::obj(vec![
                ("interval_ms", interval.to_value()),
                ("retention", self.store.retention().to_value()),
                ("series", self.store.index().to_value()),
            ]));
        };
        let (since, until) = parse_window(req)?;
        let points = self.store.query(&name, since, until).ok_or_else(|| {
            not_found(format!(
                "no series '{name}' (scrape interval {interval} ms; GET /metrics/range \
                 without 'name' lists the retained series)"
            ))
        })?;
        let points: Vec<Value> = points
            .iter()
            .map(|p| {
                let mut fields = vec![("nanos", p.nanos.to_value())];
                match &p.value {
                    PointValue::Counter(v) => fields.push(("value", v.to_value())),
                    PointValue::Gauge(v) => fields.push(("value", v.to_value())),
                    PointValue::Histogram {
                        count,
                        sum_seconds,
                        p50,
                        p95,
                        p99,
                    } => fields.extend([
                        ("count", count.to_value()),
                        ("sum_seconds", sum_seconds.to_value()),
                        ("p50", p50.to_value()),
                        ("p95", p95.to_value()),
                        ("p99", p99.to_value()),
                    ]),
                }
                api::obj(fields)
            })
            .collect();
        Ok(api::obj(vec![
            ("name", name.as_str().to_value()),
            ("since", since.to_value()),
            ("until", until.to_value()),
            ("interval_ms", interval.to_value()),
            ("retention", self.store.retention().to_value()),
            ("points", Value::Arr(points)),
        ]))
    }

    /// `GET /profile?since=NANOS&until=NANOS&format=folded|svg|json`: the
    /// span-derived profile of the window — self/total time per span-name
    /// path, across every recorder lane. `folded` is collapsed-stack text
    /// for flamegraph tooling, `svg` a self-contained flamegraph, `json`
    /// (the default) the tree plus per-device busy/epoch/idle utilization.
    pub(crate) fn profile(&self, req: &Request) -> Result<Reply, HandlerError> {
        let (since, until) = parse_window(req)?;
        let format = req.query_param("format");
        let profile = ftn_trace::Profile::from_recorder(since, until);
        match format.as_deref().unwrap_or("json") {
            "folded" => Ok(Reply::text("text/plain", &profile.folded())),
            "svg" => Ok(Reply::text(
                "image/svg+xml",
                &profile.flamegraph_svg("ftn-serve profile"),
            )),
            "json" => {
                let utilization: Vec<Value> = ftn_trace::device_utilization_range(since, until)
                    .iter()
                    .map(|d| {
                        api::obj(vec![
                            ("device", d.device.to_value()),
                            ("lane", d.lane.as_str().to_value()),
                            ("window_nanos", d.window_nanos.to_value()),
                            ("busy_nanos", d.busy_nanos.to_value()),
                            ("epoch_nanos", d.epoch_nanos.to_value()),
                            ("idle_nanos", d.idle_nanos.to_value()),
                            ("busy_fraction", d.busy_fraction().to_value()),
                            ("epoch_fraction", d.epoch_fraction().to_value()),
                            ("idle_fraction", d.idle_fraction().to_value()),
                        ])
                    })
                    .collect();
                let fields = vec![
                    ("profile", profile.to_value()),
                    ("utilization", Value::Arr(utilization)),
                ];
                Ok(Reply::json(200, &api::obj(fields)))
            }
            other => Err(bad_request(format!(
                "unknown format '{other}' (use folded|svg|json)"
            ))),
        }
    }

    /// `GET /profile/top?by=kernel|session|device&k=N`: the K costliest
    /// attribution rows over every job completed so far, merged across the
    /// server's pools and ranked by simulated cycles. `by=session` rows are
    /// keyed by the serve-level session id (closed sessions fall back to
    /// `POOLKEY:CLUSTERSID`).
    pub(crate) fn profile_top(&self, req: &Request) -> Result<Value, HandlerError> {
        let by_text = req.query_param("by");
        let by_text = by_text.as_deref().unwrap_or("kernel");
        let by = RollupBy::parse(by_text).map_err(bad_request)?;
        let k = match req.query_param("k") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| bad_request(format!("bad 'k' value '{v}' (want a count)")))?,
            None => 10,
        };
        let mut merged: Vec<RollupRow> = Vec::new();
        for (program, gate) in self.pools_snapshot() {
            // The session table is read before (never under) the machine
            // lock, so session-axis rows can be re-keyed by serve-level id.
            let sessions = match by {
                RollupBy::Session => self.sessions_in(&gate),
                _ => Vec::new(),
            };
            let machine = gate.lock();
            for mut row in machine.rollups(by) {
                if by == RollupBy::Session {
                    row.key = rekey_session_row(&row.key, &program.key, &sessions);
                }
                match merged.iter_mut().find(|r| r.key == row.key) {
                    Some(r) => {
                        r.jobs += row.jobs;
                        r.sim_cycles += row.sim_cycles;
                        r.wall_seconds += row.wall_seconds;
                        r.queue_wait_seconds += row.queue_wait_seconds;
                        r.bytes_moved += row.bytes_moved;
                    }
                    None => merged.push(row),
                }
            }
        }
        merged.sort_by(|a, b| {
            b.sim_cycles
                .cmp(&a.sim_cycles)
                .then(b.wall_seconds.total_cmp(&a.wall_seconds))
                .then(a.key.cmp(&b.key))
        });
        merged.truncate(k);
        Ok(api::obj(vec![
            ("by", by_text.to_value()),
            ("k", k.to_value()),
            ("rows", merged.to_value()),
        ]))
    }

    /// `GET /alerts`: every configured SLO with its state, burn rates, and
    /// (for latency objectives) the observed histogram's exemplar — with a
    /// ready-made `/trace?since=&until=` link bracketing the offending
    /// request.
    pub(crate) fn alerts(&self) -> Result<Value, HandlerError> {
        let alerts: Vec<Value> = self
            .slo
            .statuses()
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("slo", s.spec.as_str().to_value()),
                    ("metric", s.metric.as_str().to_value()),
                    ("state", s.state.as_str().to_value()),
                    ("window_seconds", s.window_seconds.to_value()),
                    ("fast_burn", s.fast_burn.to_value()),
                    ("slow_burn", s.slow_burn.to_value()),
                    ("since_nanos", s.since_nanos.to_value()),
                ];
                if let Some(ex) = &s.exemplar {
                    // Bracket the offending request: it ended around
                    // `ex.nanos`, ran `value_seconds`; pad 10 ms both sides.
                    let pad = 10_000_000u64;
                    let ran = (ex.value_seconds * 1e9) as u64;
                    let since = ex.nanos.saturating_sub(ran + pad);
                    let until = ex.nanos.saturating_add(pad);
                    let exemplar = api::obj(vec![
                        ("trace_id", ex.trace_id.to_value()),
                        ("span_id", ex.span_id.to_value()),
                        ("value_seconds", ex.value_seconds.to_value()),
                        ("nanos", ex.nanos.to_value()),
                        (
                            "trace_link",
                            format!("/trace?since={since}&until={until}").to_value(),
                        ),
                    ]);
                    fields.push(("exemplar", exemplar));
                }
                api::obj(fields)
            })
            .collect();
        let interval = self.config.scrape_interval_ms;
        Ok(api::obj(vec![
            ("now_nanos", ftn_trace::now_nanos().to_value()),
            ("scrape_interval_ms", interval.to_value()),
            ("alerts", Value::Arr(alerts)),
        ]))
    }

    /// `GET /healthz`: a real readiness probe. 503 with `"status":
    /// "unready"` when any pool device worker is dead or a queue is
    /// saturated past [`crate::ServeConfig::healthz_queue_limit`]; 200 with
    /// `"status": "degraded"` and the firing SLO specs while an objective
    /// is firing; plain `"ok"` otherwise. The original `{"ok": true}` shape
    /// survives as a subset. A pool mid-request is busy, not unready: it
    /// answers from its last-known-good snapshot (`Program::health`).
    pub(crate) fn healthz(&self) -> Result<Reply, HandlerError> {
        let mut unready: Vec<String> = Vec::new();
        let limit = self.config.healthz_queue_limit;
        for (program, gate) in self.pools_snapshot() {
            let pool = short_key(&program.key);
            let health = program.health(&gate);
            for (device, _) in (health.devices_alive.iter().enumerate()).filter(|(_, a)| !**a) {
                unready.push(format!("pool {pool} device {device}: worker thread dead"));
            }
            for (device, depth) in health.queue_depths.iter().enumerate() {
                if limit > 0 && *depth > limit {
                    unready.push(format!(
                        "pool {pool} device {device}: queue depth {depth} > {limit}"
                    ));
                }
            }
        }
        let firing = self.slo.firing();
        let (status, health) = match (unready.is_empty(), firing.is_empty()) {
            (false, _) => (503, "unready"),
            (true, false) => (200, "degraded"),
            (true, true) => (200, "ok"),
        };
        let mut reasons = unready;
        reasons.extend(firing.iter().map(|spec| format!("slo firing: {spec}")));
        let fields = vec![
            ("ok", Value::Bool(status == 200)),
            ("status", health.to_value()),
            ("reasons", reasons.to_value()),
        ];
        Ok(Reply::json(status, &api::obj(fields)))
    }

    pub(crate) fn stats(&self) -> Result<Value, HandlerError> {
        let mut pool_stats = Vec::new();
        for (program, gate) in self.pools_snapshot() {
            let machine = gate.lock();
            let models = machine.device_models();
            let models: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
            pool_stats.push(api::obj(vec![
                ("key", program.key.as_str().to_value()),
                ("devices", machine.device_count().to_value()),
                ("models", models.to_value()),
                ("queue_depths", machine.queue_depths().to_value()),
                ("open_sessions", machine.open_sessions().len().to_value()),
                ("stats", machine.pool_stats().to_value()),
            ]));
        }
        let http = api::obj(vec![
            (
                "connections",
                self.metrics.http_connections.get().to_value(),
            ),
            ("requests", self.metrics.http_requests.get().to_value()),
        ]);
        let uptime = self.started.elapsed().as_secs_f64();
        Ok(api::obj(vec![
            ("cache", self.cache.stats().to_value()),
            ("image_cache", self.images.stats().to_value()),
            ("sessions_open", lock(&self.sessions).len().to_value()),
            ("launches", self.metrics.launches.get().to_value()),
            ("runs", self.metrics.runs.get().to_value()),
            ("uptime_seconds", uptime.to_value()),
            ("http", http),
            ("pools", Value::Arr(pool_stats)),
        ]))
    }
}

/// Parse the shared `?since=NANOS&until=NANOS` window of `/trace`,
/// `/metrics/range`, and `/profile`: both optional (`since` defaults to 0,
/// `until` to unbounded), 400 on non-numeric values or an inverted window.
/// `?last=NANOS` is the trailing-window shorthand continuous pollers should
/// prefer (each poll stays proportional to recent activity instead of
/// refolding the whole ring); it excludes explicit bounds.
fn parse_window(req: &Request) -> Result<(u64, u64), HandlerError> {
    let bound = |name: &str, default: u64| match req.query_param(name) {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| bad_request(format!("bad '{name}' value '{v}' (want nanoseconds)"))),
        None => Ok(default),
    };
    if req.query_param("last").is_some() {
        if req.query_param("since").is_some() || req.query_param("until").is_some() {
            return Err(bad_request(
                "'last' is a trailing window; it excludes 'since' and 'until'",
            ));
        }
        let last = bound("last", 0)?;
        return Ok((ftn_trace::now_nanos().saturating_sub(last), u64::MAX));
    }
    let since = bound("since", 0)?;
    let until = bound("until", u64::MAX)?;
    if since > until {
        return Err(bad_request(format!(
            "inverted window: since={since} > until={until}"
        )));
    }
    Ok((since, until))
}

/// First 8 chars of an artifact key — the metric-label spelling of a pool.
fn short_key(key: &str) -> &str {
    &key[..key.len().min(8)]
}

/// Re-key one `by=session` rollup row from the cluster-internal session id
/// to the serve-level one, given the pool's open `(serve sid, cluster sid)`
/// pairs. Closed sessions fall back to `POOLKEY:CLUSTERSID`; a key that does
/// not parse as a session id keeps its raw spelling under the same prefix —
/// it must not collapse onto whatever serve session maps to cluster id 0.
fn rekey_session_row(raw: &str, pool_key: &str, sessions: &[(u64, u64)]) -> String {
    match raw.parse::<u64>() {
        Ok(cluster_sid) => sessions
            .iter()
            .find(|(_, cs)| *cs == cluster_sid)
            .map(|(sid, _)| sid.to_string())
            .unwrap_or_else(|| format!("{}:{cluster_sid}", short_key(pool_key))),
        Err(_) => format!("{}:{raw}", short_key(pool_key)),
    }
}

/// Trailing window of the `ftn_device_utilization` gauges (1 s: long enough
/// to smooth single jobs, short enough that a stalled pool shows up soon).
const UTILIZATION_WINDOW_NANOS: u64 = 1_000_000_000;

/// The self-monitoring scraper thread: one [`ServeState::scrape_once`] per
/// configured interval, sleeping in short steps so shutdown stays prompt.
/// Interval 0 disables the thread entirely.
pub(crate) fn spawn_scraper(state: &Arc<ServeState>) -> Option<JoinHandle<()>> {
    let interval = Duration::from_millis(state.config.scrape_interval_ms);
    if interval.is_zero() {
        return None;
    }
    let state = Arc::clone(state);
    let scraper = std::thread::Builder::new().name("ftn-scrape".to_string());
    let scrape = move || {
        let step = Duration::from_millis(50).min(interval);
        while !state.shutdown.load(Ordering::SeqCst) {
            let pass = Instant::now();
            state.scrape_once();
            let mut remaining = interval.saturating_sub(pass.elapsed());
            while !remaining.is_zero() && !state.shutdown.load(Ordering::SeqCst) {
                let nap = remaining.min(step);
                std::thread::sleep(nap);
                remaining = remaining.saturating_sub(nap);
            }
        }
    };
    Some(scraper.spawn(scrape).expect("spawn scrape thread"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_top_rekey_preserves_non_numeric_rollup_keys() {
        let pool = "abcdef0123456789";
        let sessions = [(7u64, 0u64)];
        // A numeric cluster session id resolves to the serve-level id.
        assert_eq!(rekey_session_row("0", pool, &sessions), "7");
        // A closed session falls back to POOLKEY:CLUSTERSID.
        assert_eq!(rekey_session_row("3", pool, &sessions), "abcdef01:3");
        // A non-numeric rollup key keeps its raw spelling — it must not
        // collapse onto cluster session 0 (serve session 7 here).
        assert_eq!(
            rekey_session_row("warmup:a", pool, &sessions),
            "abcdef01:warmup:a"
        );
    }
}

//! Telemetry: the server's metric handles, the gauges refreshed on each
//! `/metrics` read, and every read-only endpoint — `/metrics`, `/trace`,
//! `/profile`, `/profile/top`, `/healthz`, `/stats`. The server keeps no
//! metric history: `/metrics` is the interface, and range queries and
//! alerting belong to whatever scrapes it.
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

use std::sync::Arc;

use ftn_cluster::{RollupBy, RollupRow};
use ftn_trace::{Counter, Histogram, MetricsRegistry};
use serde::{Serialize, Value};

use crate::conn::{HandlerError, Reply};
use crate::http::Request;
use crate::{api, bad_request, lock, ServeState};

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
            request_seconds: registry.histogram("ftn_http_request_seconds"),
            registry,
        }
    }
}

impl ServeState {
    /// Refresh the point-in-time gauges: uptime plus, for every device of
    /// every built pool (labelled by [`short_key`]), its queue depth and —
    /// while span recording is on — its busy percent over the trailing
    /// second, from the coverage of its job and host-call spans (0 when
    /// none ran). Called by `GET /metrics`. A pool whose lock is busy keeps
    /// its previous gauge values.
    fn refresh_gauges(&self) {
        let gauge = |name: &str, value: i64| self.metrics.registry.gauge(name).set(value);
        gauge(
            "ftn_uptime_seconds",
            self.started.elapsed().as_secs() as i64,
        );
        let now = ftn_trace::now_nanos();
        let since = now.saturating_sub(UTILIZATION_WINDOW_NANOS);
        let busy = ftn_trace::device_utilization_range(since, now);
        for (program, gate) in self.pools_snapshot() {
            let pool = short_key(&program.key);
            let depths = gate.try_lock().map(|machine| machine.queue_depths());
            for (device, depth) in depths.iter().flatten().enumerate() {
                let labels = [("pool", pool), ("device", &device.to_string())];
                let name = ftn_trace::labelled("ftn_pool_queue_depth", &labels);
                gauge(&name, *depth as i64);
                if ftn_trace::enabled() {
                    let own = busy.iter().find(|d| d.pool == pool && d.device == device);
                    let percent = own.map_or(0.0, |d| d.busy_fraction() * 100.0);
                    let name = ftn_trace::labelled("ftn_device_utilization", &labels);
                    gauge(&name, percent.round() as i64);
                }
            }
        }
    }

    /// `GET /metrics`: refresh the point-in-time gauges, then render the
    /// whole registry as a Prometheus text exposition.
    pub(crate) fn render_metrics(&self) -> Result<Reply, HandlerError> {
        self.refresh_gauges();
        let text = self.metrics.registry.render_prometheus();
        Ok(Reply::text("text/plain; version=0.0.4", &text))
    }

    /// `GET /trace?since=NANOS&until=NANOS`: the recorded span timeline as
    /// a Chrome trace-event document, clipped to spans overlapping the
    /// window (nanoseconds since the recorder's epoch, i.e. `ts`×1000).
    pub(crate) fn render_trace(&self, req: &Request) -> Result<Reply, HandlerError> {
        let (since, until) = parse_window(req)?;
        let text = ftn_trace::export_chrome_range(since, until);
        Ok(Reply::text("application/json", &text))
    }

    /// `GET /profile?since=NANOS&until=NANOS&format=folded|svg|json`: the
    /// span-derived profile of the window — self/total time per span-name
    /// path, across every recorder lane. `folded` is collapsed-stack text
    /// for flamegraph tooling, `svg` a self-contained flamegraph, `json`
    /// (the default) the tree plus per-device busy/idle utilization.
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
                            ("pool", d.pool.as_str().to_value()),
                            ("device", d.device.to_value()),
                            ("window_nanos", d.window_nanos.to_value()),
                            ("busy_nanos", d.busy_nanos.to_value()),
                            ("idle_nanos", d.idle_nanos.to_value()),
                            ("busy_fraction", d.busy_fraction().to_value()),
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
    /// keyed by the session ids clients were given, open or closed: the
    /// pools draw them from one source, so no two pools share a key.
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
        for (_, gate) in self.pools_snapshot() {
            for row in gate.lock().rollups(by) {
                match merged.iter_mut().find(|r| r.key == row.key) {
                    Some(r) => {
                        r.jobs += row.jobs;
                        r.sim_cycles += row.sim_cycles;
                        r.sim_seconds += row.sim_seconds;
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
                .then(b.sim_seconds.total_cmp(&a.sim_seconds))
                .then(a.key.cmp(&b.key))
        });
        merged.truncate(k);
        Ok(api::obj(vec![
            ("by", by_text.to_value()),
            ("k", k.to_value()),
            ("rows", merged.to_value()),
        ]))
    }

    /// `GET /healthz`: a real readiness probe. 503 with `"status":
    /// "unready"` when any pool device worker is dead or a queue is
    /// saturated past [`HEALTHZ_QUEUE_LIMIT`]; plain
    /// `"ok"` otherwise. The original `{"ok": true}` shape survives as a
    /// subset. A pool mid-request is busy, not unready: it answers from its
    /// last-known-good snapshot (`Program::health`).
    pub(crate) fn healthz(&self) -> Result<Reply, HandlerError> {
        let mut unready: Vec<String> = Vec::new();
        for (program, gate) in self.pools_snapshot() {
            let pool = short_key(&program.key);
            let health = program.health(&gate);
            for (device, _) in (health.devices_alive.iter().enumerate()).filter(|(_, a)| !**a) {
                unready.push(format!("pool {pool} device {device}: worker thread dead"));
            }
            for (device, depth) in health.queue_depths.iter().enumerate() {
                if *depth > HEALTHZ_QUEUE_LIMIT {
                    unready.push(format!(
                        "pool {pool} device {device}: queue depth {depth} > {HEALTHZ_QUEUE_LIMIT}"
                    ));
                }
            }
        }
        let (status, health) = if unready.is_empty() {
            (200, "ok")
        } else {
            (503, "unready")
        };
        let fields = vec![
            ("ok", Value::Bool(status == 200)),
            ("status", health.to_value()),
            ("reasons", unready.to_value()),
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
            ("sessions_open", lock(&self.sessions).len().to_value()),
            ("launches", self.metrics.launches.get().to_value()),
            ("runs", self.metrics.runs.get().to_value()),
            ("uptime_seconds", uptime.to_value()),
            ("http", http),
            ("pools", Value::Arr(pool_stats)),
        ]))
    }
}

/// Parse the shared `?since=NANOS&until=NANOS` window of `/trace` and
/// `/profile`: both optional (`since` defaults to 0,
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

/// First 8 chars of an artifact key — the metric-label and span-arg
/// spelling of a pool.
pub(crate) fn short_key(key: &str) -> &str {
    &key[..key.len().min(8)]
}

/// Per-device queue depth above which `GET /healthz` reports the server
/// unready (503).
const HEALTHZ_QUEUE_LIMIT: u64 = 1024;

/// Trailing window of the `ftn_device_utilization` gauges (1 s: long enough
/// to smooth single jobs, short enough that a stalled pool shows up soon).
const UTILIZATION_WINDOW_NANOS: u64 = 1_000_000_000;

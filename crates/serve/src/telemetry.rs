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
    /// Refresh the point-in-time gauges: uptime plus per-device queue
    /// depths, one gauge per device per pool (labelled by [`short_key`]).
    /// Called by `GET /metrics`. A pool whose lock is busy keeps its
    /// previous gauge values.
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
        // coverage on the `ftn-device-N` lanes. Empty (no gauges) when span
        // recording is disabled.
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
                            ("device", d.device.to_value()),
                            ("lane", d.lane.as_str().to_value()),
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

    /// `GET /healthz`: a real readiness probe. 503 with `"status":
    /// "unready"` when any pool device worker is dead or a queue is
    /// saturated past [`crate::ServeConfig::healthz_queue_limit`]; plain
    /// `"ok"` otherwise. The original `{"ok": true}` shape survives as a
    /// subset. A pool mid-request is busy, not unready: it answers from its
    /// last-known-good snapshot (`Program::health`).
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

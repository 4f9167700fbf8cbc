//! `ftn-serve` — the compile-and-run service: a multi-threaded, std-only
//! HTTP/1.1 JSON front for the FPGA cluster, keeping compiled artifacts and
//! device-resident data alive across requests the way a long-lived OpenMP
//! offload daemon would.
//!
//! | Method & path               | Body                                   | Effect |
//! |-----------------------------|----------------------------------------|--------|
//! | `POST /compile`             | `{source, fix_mac_pattern?, devices?}` | Compile via the content-addressed [`ArtifactCache`]; returns the key, whether it was a cache hit, each kernel's launch signature, and the device models the key's pool will use. `devices` (a list of model names such as `["u280","u250","u55c"]`, `@MHZ` clock overrides allowed) fixes a heterogeneous pool composition for this key. |
//! | `POST /sessions`            | `{key, maps: [{name, kind, data, partition?, halo?}], shards?}` | Open a persistent `target data` session. `shards` defaults to 1 (arrays map onto one pool device, chosen by the placement ladder); with `shards: N` (or `"auto"`) each array is partitioned across N devices (`partition`: `split` (default, with optional `halo` rows) \| `replicated` \| `sum`/`min`/`max`). |
//! | `POST /sessions/{id}/launch`| `{kernel, args: [{array\|extent\|extent_offset\|f32\|...}], refresh_halos?}` | Run one kernel-level job against the session's resident buffers (no per-launch transfers). The launch fans out per shard, with `{extent: name}` rebased to each shard's local length (the full length on a one-shard session) and `{extent_offset: {array, offset}}` rebasing stencil bounds like `n - 1`. `refresh_halos: true` exchanges split-array ghost rows after the launch lands (see `/refresh`). |
//! | `POST /sessions/{id}/rebalance` | `{threshold?}`                     | Re-plan a session against the pool's current backlogs: when the predicted makespan gain clears the threshold, a migration epoch moves only the owner-changing rows between devices and the session resumes under the new split (a one-shard session answers the no-op report). Sessions opened with `auto_rebalance` (or `ftn serve --auto-rebalance N[:T]`) do this automatically every N launches. |
//! | `POST /sessions/{id}/refresh` |                                      | Inter-launch halo exchange: every split array's ghost rows are re-seeded from their current owner rows — boundary blocks only, device-to-device over the row-block fetch/splice path, never a full gather/re-scatter. The iterative-stencil primitive (`jacobi`/`heat` between sweeps). |
//! | `DELETE /sessions/{id}`     |                                        | Close the session: gather (or reduce) `from`/`tofrom` arrays back and return them with the session stats; all session memory is released. |
//! | `POST /run`                 | `{key, func, args}`                    | Sessionless whole-program run (the baseline the elision ratio is measured against); request arrays are freed after the response. |
//! | `GET /stats`                |                                        | Cache, pool, session, and HTTP statistics. |
//! | `GET /healthz`              |                                        | Readiness probe: 503 `"unready"` on a dead device worker or saturated queue, `"degraded"` with reasons while an SLO is firing, `{"ok":true,...}` otherwise. |
//! | `GET /metrics/range`        | `?name=METRIC&since=N&until=N`         | Scraped time-series history of one metric (JSON points; histograms carry per-snapshot p50/p95/p99). Without `name`, a discovery index of every retained series (name, kind, point count, window). |
//! | `GET /profile`              | `?since=N&until=N&format=folded\|svg\|json` | Span-derived hierarchical profile: self/total time per span-name path. `folded` is collapsed-stack text for flamegraph tooling, `svg` a self-contained flamegraph, `json` (default) the tree plus per-device busy/epoch/idle utilization. `?last=N` is the trailing-window shorthand continuous pollers should use (also accepted by `/trace` and `/metrics/range`). |
//! | `GET /profile/top`          | `?by=kernel\|session\|device&k=N`      | Top-K cost attribution over completed jobs: simulated cycles, wall seconds, queue wait, and bytes moved, merged across pools (`ftn top` renders this). |
//! | `GET /alerts`               |                                        | Every configured SLO with state, fast/slow burn rates, and (for latency objectives) an exemplar `/trace` link. |
//! | `POST /shutdown`            |                                        | Drain and stop the server. |
//!
//! One [`ClusterMachine`] pool is kept per compiled artifact key (all
//! sessions of a program share its devices); pools are created lazily with
//! the configured device composition — homogeneous U280s by default, or a
//! mixed-model pool from `ftn serve --devices u280,u280,u250` / a
//! `/compile` `devices` override — and a shared parsed-bitstream image.
//! Sharded sessions on a heterogeneous pool get throughput-weighted shard
//! plans automatically (see `ftn_cluster::sharded`); `/stats` reports each
//! pool's per-device models.
//! Connections are HTTP/1.1 keep-alive: a client can drive a whole
//! compile-open-launch-close burst over one TCP connection (idle
//! connections are reaped after [`ServeConfig::idle_timeout_secs`]).

pub mod api;
pub mod client;
mod conn;
pub mod http;
pub mod top;

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use ftn_cluster::{
    ArtifactCache, AutoRebalance, ClusterMachine, ImageCache, MapKind, Partition, PoolGate,
    RollupBy, RollupRow, ShardArg, ShardCount,
};
use ftn_core::{Artifacts, CompilerOptions};
use ftn_fpga::DeviceModel;
use ftn_interp::{Buffer, RtValue};
use ftn_trace::{
    Counter, Histogram, Level, MetricsRegistry, PointValue, SloEngine, SloSpec, TimeSeriesStore,
};
use serde::{Serialize, Value};

use api::ArgSpec;
use conn::{handle_connection, HandlerError, Reply};
use http::Request;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Simulated devices per program pool (U280s unless `device_models`
    /// overrides the composition).
    pub devices: usize,
    /// Explicit per-worker device models (`ftn serve --devices
    /// u280,u280,u250`): a heterogeneous pool composition applied to every
    /// pool this server creates. Overrides `devices` when set; a `/compile`
    /// request may still override it per artifact key.
    pub device_models: Option<Vec<DeviceModel>>,
    /// HTTP worker threads.
    pub workers: usize,
    /// Optional on-disk artifact cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Seconds an idle keep-alive connection may hold a worker before it is
    /// closed.
    pub idle_timeout_secs: u64,
    /// Shard count applied to `POST /sessions` bodies that do not carry a
    /// `shards` field (`ftn serve --shards N|auto`). `None` = one shard.
    pub default_shards: Option<ShardCount>,
    /// Automatic re-planning applied to sharded sessions that do not carry
    /// an `auto_rebalance` field (`ftn serve --auto-rebalance N[:T]`):
    /// every N launches the session re-plans against observed device
    /// backlogs and migrates shard rows when the predicted win clears T.
    /// `None` = plans stay frozen at their open-time split (manual
    /// `POST /sessions/{id}/rebalance` still works).
    pub auto_rebalance: Option<AutoRebalance>,
    /// Span-recorder ring capacity per lane (`ftn serve --trace-buffer N`).
    /// `0` disables span recording entirely (the zero-cost path); `GET
    /// /trace` then serves an empty timeline. The recorder is
    /// process-global, so the most recent `Server::bind` wins.
    pub trace_buffer: usize,
    /// Maximum structured-log level (`ftn serve --log-level debug`). Like
    /// the span recorder, the log level is process-global.
    pub log_level: Level,
    /// Cadence of the background scraper thread that snapshots every
    /// registry metric into the time-series store and evaluates the SLO
    /// engine (`ftn serve --scrape-interval MS`). `0` disables scraping —
    /// `GET /metrics/range` then 404s every series and alerts never move.
    pub scrape_interval_ms: u64,
    /// Points retained per time-series ring (`ftn serve --retention N`).
    /// With the 100 ms default cadence, 600 points ≈ one minute of history.
    pub retention_points: usize,
    /// Service-level objectives evaluated by the scraper (`ftn serve --slo
    /// 'http_p99<5ms/30s'`, repeatable; see [`ftn_trace::SloSpec::parse`]).
    /// Defaults to [`ftn_trace::default_slos`]: generous p99 bounds on the
    /// built-in request-latency and queue-wait histograms.
    pub slos: Vec<SloSpec>,
    /// Per-device queue depth above which `GET /healthz` reports the server
    /// unready (503). `0` disables the saturation check.
    pub healthz_queue_limit: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 4,
            device_models: None,
            workers: 4,
            cache_dir: None,
            idle_timeout_secs: 5,
            default_shards: None,
            auto_rebalance: None,
            trace_buffer: 4096,
            log_level: Level::Info,
            scrape_interval_ms: 100,
            retention_points: 600,
            slos: ftn_trace::default_slos(),
            healthz_queue_limit: 1024,
        }
    }
}

/// A serve-level session: which pool it lives in, the cluster-level id, and
/// the global array handles to free when it closes.
struct ServeSession {
    pool_key: String,
    cluster_sid: u64,
    arrays: Vec<RtValue>,
}

/// Stripes of the serve-level session table.
const SESSION_SHARDS: usize = 16;

/// The serve-level session table, striped 16 ways by session id so
/// concurrent clients resolving *different* sessions never contend on one
/// map lock (the launch hot path hits this table on every request). Each
/// stripe's lock is held only for a map operation — never across a pool
/// call or a wait.
struct SessionTable {
    stripes: [Mutex<HashMap<u64, ServeSession>>; SESSION_SHARDS],
}

impl SessionTable {
    fn new() -> SessionTable {
        SessionTable {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn stripe(&self, session: u64) -> &Mutex<HashMap<u64, ServeSession>> {
        &self.stripes[(session % SESSION_SHARDS as u64) as usize]
    }

    fn insert(&self, session: u64, s: ServeSession) {
        lock(self.stripe(session)).insert(session, s);
    }

    fn remove(&self, session: u64) -> Option<ServeSession> {
        lock(self.stripe(session)).remove(&session)
    }

    /// `(pool_key, cluster_sid)` of one session.
    fn resolve(&self, session: u64) -> Option<(String, u64)> {
        lock(self.stripe(session))
            .get(&session)
            .map(|s| (s.pool_key.clone(), s.cluster_sid))
    }

    fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(s).len()).sum()
    }

    /// `(serve sid, pool_key, cluster_sid)` of every open session — the
    /// snapshot `/profile/top` re-keys session rows against.
    fn snapshot(&self) -> Vec<(u64, String, u64)> {
        self.stripes
            .iter()
            .flat_map(|stripe| {
                lock(stripe)
                    .iter()
                    .map(|(sid, s)| (*sid, s.pool_key.clone(), s.cluster_sid))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

/// Last-known-good per-pool readiness snapshot, for `/healthz` probes that
/// land while a pool's machine lock is held: a busy pool is not an unready
/// pool, so the probe answers from the most recent snapshot instead of
/// queueing behind the work.
#[derive(Clone, Default)]
struct PoolHealth {
    devices_alive: Vec<bool>,
    queue_depths: Vec<u64>,
}

/// The server's metric handles, all backed by one per-server
/// [`MetricsRegistry`] — per-server (not process-global) so several bound
/// servers in one process (tests, embedders) keep independent counts. Every
/// pool the server creates shares the same registry via
/// [`ClusterMachine::use_metrics`], so `GET /metrics` is one scrape across
/// the whole serve→cluster→worker stack.
struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    http_connections: Arc<Counter>,
    http_requests: Arc<Counter>,
    launches: Arc<Counter>,
    runs: Arc<Counter>,
    /// Requests answered with a 5xx status (the `errors<P%/W` SLO source).
    http_errors: Arc<Counter>,
    /// End-to-end request handling latency (read to serialized response).
    request_seconds: Arc<Histogram>,
    /// Completed background scrapes (self-monitoring of the monitor).
    scrapes: Arc<Counter>,
    /// Wall time of one scrape+SLO-evaluation pass.
    scrape_seconds: Arc<Histogram>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        ServeMetrics {
            http_connections: registry.counter("ftn_http_connections_total"),
            http_requests: registry.counter("ftn_http_requests_total"),
            launches: registry.counter("ftn_launches_total"),
            runs: registry.counter("ftn_runs_total"),
            http_errors: registry.counter("ftn_http_errors_total"),
            request_seconds: registry.histogram("ftn_http_request_seconds"),
            scrapes: registry.counter("ftn_scrapes_total"),
            scrape_seconds: registry.histogram("ftn_scrape_seconds"),
            registry,
        }
    }
}

struct ServeState {
    config: ServeConfig,
    cache: ArtifactCache,
    /// key → compiled artifacts (what sessions/runs reference).
    registry: Mutex<HashMap<String, Arc<Artifacts>>>,
    images: ImageCache,
    pools: Mutex<HashMap<String, Arc<PoolGate>>>,
    /// key → device composition requested by `/compile` (`"devices":
    /// ["u280","u250",...]`), applied when that key's pool is created.
    pool_devices: Mutex<HashMap<String, Vec<DeviceModel>>>,
    sessions: SessionTable,
    /// key → last-known-good readiness snapshot (see [`PoolHealth`]).
    health: Mutex<HashMap<String, PoolHealth>>,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    /// Ring-buffered history of every registry metric, fed by the scraper
    /// thread (`GET /metrics/range`).
    store: Arc<TimeSeriesStore>,
    /// The SLO engine, evaluated on the scrape cadence (`GET /alerts`).
    slo: Arc<SloEngine>,
    started: std::time::Instant,
    local_addr: SocketAddr,
}

/// Poison-tolerant lock: a panic in one handler must not brick every later
/// request with poisoned-mutex panics — the cluster/session invariants are
/// job-scoped, so continuing with the inner value is safe.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Wait for jobs without holding the pool locked: other HTTP workers keep
/// submitting to (and draining) the same pool while these run, so
/// concurrent clients genuinely overlap across the pool's devices. Each
/// wait parks on the pool's completion signal ([`PoolGate::wait_done`]) and
/// is woken by the worker that reports the outcome. Reports come back in
/// handle (shard) order.
///
/// The wait is wrapped in a `session.wait` span: most of a launch request's
/// wall time is spent right here, and without a named child frame the
/// profiler would report it as opaque `http.request` self-time.
fn wait_unlocked(
    gate: &PoolGate,
    handles: Vec<ftn_cluster::LaunchHandle>,
) -> Result<Vec<ftn_cluster::ClusterRunReport>, ftn_core::CompileError> {
    let _span = ftn_trace::span("session.wait", "cluster");
    gate.wait_many(handles)
}

fn bad_request(msg: impl Into<String>) -> HandlerError {
    (400, msg.into())
}

fn not_found(msg: impl Into<String>) -> HandlerError {
    (404, msg.into())
}

#[derive(Serialize)]
struct KernelDesc {
    name: String,
    args: Vec<String>,
    lut: u64,
    bram: u64,
    dsp: u64,
    loops: usize,
}

#[derive(Serialize)]
struct CompileResponse {
    key: String,
    cached: bool,
    kernels: Vec<KernelDesc>,
    /// Device models this key's pool will run on (names, in device order).
    devices: Vec<String>,
}

impl ServeState {
    fn handle(&self, req: &Request) -> Result<Reply, HandlerError> {
        let (segments, len) = req.segments();
        let json = match (req.method.as_str(), &segments[..len]) {
            ("GET", ["metrics"]) => {
                return Ok(Reply::text(
                    "text/plain; version=0.0.4",
                    &self.render_metrics(),
                ))
            }
            ("GET", ["trace"]) => {
                return Ok(Reply::text("application/json", &self.render_trace(req)?))
            }
            ("GET", ["profile"]) => return self.profile(req),
            ("GET", ["healthz"]) => return self.healthz(),
            ("DELETE", ["sessions", id]) => return self.close_session(parse_id(id)?),
            ("POST", ["run"]) => return self.run_program(&req.body),
            ("GET", ["metrics", "range"]) => self.metrics_range(req),
            ("GET", ["profile", "top"]) => self.profile_top(req),
            ("GET", ["alerts"]) => self.alerts(),
            ("POST", ["compile"]) => self.compile(&req.body),
            ("POST", ["sessions"]) => self.open_session(&req.body),
            ("POST", ["sessions", id, "launch"]) => self.launch(parse_id(id)?, &req.body),
            ("POST", ["sessions", id, "rebalance"]) => self.rebalance(parse_id(id)?, &req.body),
            ("POST", ["sessions", id, "refresh"]) => self.refresh(parse_id(id)?),
            ("GET", ["sessions", id]) => self.session_info(parse_id(id)?),
            ("GET", ["stats"]) => self.stats(),
            ("POST", ["shutdown"]) => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(api::obj(vec![("shutting_down", Value::Bool(true))]))
            }
            _ => Err(not_found(format!("no route {} {}", req.method, req.path))),
        };
        json.map(|value| Reply::json(200, &value))
    }

    /// The pools as an owned `(key, gate)` list: observability readers
    /// (`/stats`, `/healthz`, the scraper, `/profile/top`) iterate this
    /// snapshot so the pools-map lock — which `pool_for` holds across pool
    /// creation — is never held while per-pool machine locks are taken.
    fn pools_snapshot(&self) -> Vec<(String, Arc<PoolGate>)> {
        lock(&self.pools)
            .iter()
            .map(|(k, p)| (k.clone(), Arc::clone(p)))
            .collect()
    }

    /// Refresh the point-in-time gauges: uptime plus per-device queue
    /// depths, one gauge per device per pool (pools are labelled by a key
    /// prefix — full artifact keys are 64-hex-char hashes, unreadable as
    /// label values). Called by `GET /metrics` and by every background
    /// scrape, so the time-series store retains gauge history even when
    /// nobody polls `/metrics`. Pool reads are non-blocking: a pool whose
    /// lock is busy keeps its previous gauge values (the natural
    /// last-known-good for a gauge) instead of queueing the scraper behind
    /// the work it is supposed to observe.
    fn refresh_gauges(&self) {
        let uptime = self.metrics.registry.gauge("ftn_uptime_seconds");
        uptime.set(self.started.elapsed().as_secs() as i64);
        for (key, gate) in self.pools_snapshot() {
            let Some(machine) = gate.try_lock() else {
                continue;
            };
            for (device, depth) in machine.queue_depths().iter().enumerate() {
                let name = ftn_trace::labelled(
                    "ftn_pool_queue_depth",
                    &[("pool", short_key(&key)), ("device", &device.to_string())],
                );
                self.metrics.registry.gauge(&name).set(*depth as i64);
            }
        }
        // Busy percent per device over the trailing second, from job-span
        // coverage on the `ftn-device-N` lanes. Scraped into the store like
        // any gauge, so `ftn_device_utilization` history is queryable via
        // `/metrics/range` and usable in `utilization<P%/W` SLOs. Empty
        // (no gauges) when span recording is disabled.
        let now = ftn_trace::now_nanos();
        let since = now.saturating_sub(UTILIZATION_WINDOW_NANOS);
        for d in ftn_trace::device_utilization_range(since, now) {
            let name = ftn_trace::labelled(
                "ftn_device_utilization",
                &[("device", &d.device.to_string())],
            );
            self.metrics
                .registry
                .gauge(&name)
                .set((d.busy_fraction() * 100.0).round() as i64);
        }
    }

    /// `GET /metrics`: refresh the point-in-time gauges, then render the
    /// whole registry as a Prometheus text exposition.
    fn render_metrics(&self) -> String {
        self.refresh_gauges();
        self.metrics.registry.render_prometheus()
    }

    /// One background-scraper pass: refresh gauges, snapshot every metric
    /// into the time-series store, evaluate the SLO engine.
    fn scrape_once(&self) {
        let started = std::time::Instant::now();
        self.refresh_gauges();
        let now = ftn_trace::now_nanos();
        self.store.scrape_at(&self.metrics.registry, now);
        self.slo.evaluate_at(now);
        self.metrics.scrapes.inc();
        self.metrics
            .scrape_seconds
            .observe(started.elapsed().as_secs_f64());
    }

    /// `GET /trace?since=NANOS&until=NANOS`: the recorded span timeline as
    /// a Chrome trace-event document, clipped to spans overlapping the
    /// window (nanoseconds since the recorder's epoch, as reported by
    /// earlier exports' `ts`×1000 — `since` defaults to 0, `until` to
    /// unbounded).
    fn render_trace(&self, req: &Request) -> Result<String, HandlerError> {
        let (since, until) = parse_window(req)?;
        Ok(ftn_trace::export_chrome_range(since, until))
    }

    /// `GET /metrics/range?name=METRIC&since=NANOS&until=NANOS`: the
    /// scraped history of one metric as a JSON series of timestamped
    /// points. Histogram series carry per-snapshot count/sum/p50/p95/p99;
    /// an unknown series (or scraping disabled) is a 404. Without `name`,
    /// the discovery index: every retained series with its kind, point
    /// count and covered window.
    fn metrics_range(&self, req: &Request) -> Result<Value, HandlerError> {
        let Some(name) = req.query_param("name") else {
            let series: Vec<Value> = self
                .store
                .index()
                .iter()
                .map(|s| {
                    api::obj(vec![
                        ("name", s.name.as_str().to_value()),
                        ("kind", s.kind.to_value()),
                        ("points", s.points.to_value()),
                        ("first_nanos", s.first_nanos.to_value()),
                        ("last_nanos", s.last_nanos.to_value()),
                    ])
                })
                .collect();
            return Ok(api::obj(vec![
                ("interval_ms", self.config.scrape_interval_ms.to_value()),
                ("retention", self.store.retention().to_value()),
                ("series", Value::Arr(series)),
            ]));
        };
        let (since, until) = parse_window(req)?;
        let points = self.store.query(&name, since, until).ok_or_else(|| {
            not_found(format!(
                "no series '{name}' (scrape interval {} ms; GET /metrics/range \
                 without 'name' lists the retained series)",
                self.config.scrape_interval_ms
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
            ("interval_ms", self.config.scrape_interval_ms.to_value()),
            ("retention", self.store.retention().to_value()),
            ("points", Value::Arr(points)),
        ]))
    }

    /// `GET /profile?since=NANOS&until=NANOS&format=folded|svg|json`: the
    /// span-derived profile of the window — self/total time per span-name
    /// path, aggregated across every recorder lane. `folded` renders
    /// collapsed-stack text (one `path self_nanos` line per node, directly
    /// consumable by flamegraph tooling), `svg` a self-contained flamegraph,
    /// and `json` (the default) the tree plus per-device busy/epoch/idle
    /// utilization over the same window.
    fn profile(&self, req: &Request) -> Result<Reply, HandlerError> {
        let (since, until) = parse_window(req)?;
        let format = req
            .query_param("format")
            .unwrap_or_else(|| "json".to_string());
        let profile = ftn_trace::Profile::from_recorder(since, until);
        match format.as_str() {
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
    fn profile_top(&self, req: &Request) -> Result<Value, HandlerError> {
        let by_text = req
            .query_param("by")
            .unwrap_or_else(|| "kernel".to_string());
        let by = RollupBy::parse(&by_text).map_err(bad_request)?;
        let k = match req.query_param("k") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| bad_request(format!("bad 'k' value '{v}' (want a count)")))?,
            None => 10,
        };
        // Snapshot the session table first (separately from the pool locks)
        // so session-axis rows can be re-keyed by serve-level session id.
        let session_keys = self.sessions.snapshot();
        let mut merged: Vec<RollupRow> = Vec::new();
        for (key, gate) in self.pools_snapshot() {
            let machine = gate.lock();
            for mut row in machine.rollups(by) {
                if by == RollupBy::Session {
                    row.key = rekey_session_row(&row.key, &key, &session_keys);
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
        let rows: Vec<Value> = merged
            .iter()
            .map(|r| {
                api::obj(vec![
                    ("key", r.key.as_str().to_value()),
                    ("jobs", r.jobs.to_value()),
                    ("sim_cycles", r.sim_cycles.to_value()),
                    ("wall_seconds", r.wall_seconds.to_value()),
                    ("queue_wait_seconds", r.queue_wait_seconds.to_value()),
                    ("bytes_moved", r.bytes_moved.to_value()),
                ])
            })
            .collect();
        Ok(api::obj(vec![
            ("by", by_text.as_str().to_value()),
            ("k", k.to_value()),
            ("rows", Value::Arr(rows)),
        ]))
    }

    /// `GET /alerts`: every configured SLO with its state, burn rates, and
    /// (for latency objectives) the observed histogram's exemplar — with a
    /// ready-made `/trace?since=&until=` link bracketing the offending
    /// request.
    fn alerts(&self) -> Result<Value, HandlerError> {
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
                    // `ex.nanos` and ran for `value_seconds`, pad 10 ms on
                    // both sides.
                    let pad = 10_000_000u64;
                    let window_since = ex
                        .nanos
                        .saturating_sub((ex.value_seconds * 1e9) as u64 + pad);
                    let window_until = ex.nanos.saturating_add(pad);
                    fields.push((
                        "exemplar",
                        api::obj(vec![
                            ("trace_id", ex.trace_id.to_value()),
                            ("span_id", ex.span_id.to_value()),
                            ("value_seconds", ex.value_seconds.to_value()),
                            ("nanos", ex.nanos.to_value()),
                            (
                                "trace_link",
                                format!("/trace?since={window_since}&until={window_until}")
                                    .to_value(),
                            ),
                        ]),
                    ));
                }
                api::obj(fields)
            })
            .collect();
        Ok(api::obj(vec![
            ("now_nanos", ftn_trace::now_nanos().to_value()),
            (
                "scrape_interval_ms",
                self.config.scrape_interval_ms.to_value(),
            ),
            ("alerts", Value::Arr(alerts)),
        ]))
    }

    /// `GET /healthz`: a real readiness probe. 503 with `"status":
    /// "unready"` when any pool device worker is dead or a queue is
    /// saturated past [`ServeConfig::healthz_queue_limit`]; 200 with
    /// `"status": "degraded"` and the firing SLO specs while an objective
    /// is firing; plain `"ok"` otherwise. The original `{"ok": true}` shape
    /// survives as a subset.
    ///
    /// The probe never queues behind pool work: each pool is read with a
    /// non-blocking `try_lock`, falling back to the last-known-good
    /// snapshot when the lock is busy — a pool mid-request is busy, not
    /// unready, and a health check that blocks on the thing it is checking
    /// defeats its purpose.
    fn healthz(&self) -> Result<Reply, HandlerError> {
        let mut unready: Vec<String> = Vec::new();
        for (key, gate) in self.pools_snapshot() {
            let snapshot = match gate.try_lock() {
                Some(machine) => {
                    let fresh = PoolHealth {
                        devices_alive: machine.devices_alive(),
                        queue_depths: machine.queue_depths(),
                    };
                    drop(machine);
                    lock(&self.health).insert(key.clone(), fresh.clone());
                    fresh
                }
                None => lock(&self.health).get(&key).cloned().unwrap_or_default(),
            };
            for (device, alive) in snapshot.devices_alive.iter().enumerate() {
                if !alive {
                    unready.push(format!(
                        "pool {} device {device}: worker thread dead",
                        short_key(&key)
                    ));
                }
            }
            let limit = self.config.healthz_queue_limit;
            if limit > 0 {
                for (device, depth) in snapshot.queue_depths.iter().enumerate() {
                    if *depth > limit {
                        unready.push(format!(
                            "pool {} device {device}: queue depth {depth} > {limit}",
                            short_key(&key)
                        ));
                    }
                }
            }
        }
        let degraded: Vec<String> = self
            .slo
            .firing()
            .into_iter()
            .map(|spec| format!("slo firing: {spec}"))
            .collect();
        let (status, health) = if !unready.is_empty() {
            (503, "unready")
        } else if !degraded.is_empty() {
            (200, "degraded")
        } else {
            (200, "ok")
        };
        let mut reasons = unready;
        reasons.extend(degraded);
        let fields = vec![
            ("ok", Value::Bool(status == 200)),
            ("status", health.to_value()),
            ("reasons", reasons.to_value()),
        ];
        Ok(Reply::json(status, &api::obj(fields)))
    }

    fn compile(&self, body: &str) -> Result<Value, HandlerError> {
        let v = api::parse_body(body).map_err(bad_request)?;
        let source = api::get_str(&v, "source").map_err(bad_request)?;
        let options = CompilerOptions {
            fix_mac_pattern: api::get_bool_or(&v, "fix_mac_pattern", false),
            ..Default::default()
        };
        let key = ArtifactCache::key(source, &options);
        // Optional heterogeneous pool composition for this artifact key.
        // Parsed up front, recorded only after a successful compile (a
        // failing source must not leave stale overrides behind).
        let specs = match v.get("devices") {
            Some(Value::Arr(items)) => Some(
                items
                    .iter()
                    .map(|d| match d {
                        Value::Str(s) => DeviceModel::named(s)
                            .ok_or_else(|| bad_request(format!("unknown device '{s}'"))),
                        other => Err(bad_request(format!("bad device spec {other:?}"))),
                    })
                    .collect::<Result<Vec<DeviceModel>, HandlerError>>()?,
            ),
            Some(Value::Str(list)) => Some(
                DeviceModel::parse_list(list)
                    .ok_or_else(|| bad_request(format!("bad device list '{list}'")))?,
            ),
            Some(_) => {
                return Err(bad_request(
                    "'devices' must be a list of model names or a comma-separated string",
                ))
            }
            None => None,
        };
        if let Some(specs) = &specs {
            if specs.is_empty() {
                return Err(bad_request("'devices' must name at least one device"));
            }
        }
        let (artifacts, cached) = self
            .cache
            .get_or_compile_with_hit(&options, source)
            .map_err(|e| bad_request(e.to_string()))?;
        lock(&self.registry).insert(key.clone(), Arc::clone(&artifacts));
        if let Some(specs) = specs {
            // Record the override under the pools lock: `pool_for` holds
            // that lock across pool creation, so the override either lands
            // before the pool is built or is checked against the pool that
            // already exists — never silently dropped in between.
            let pools = lock(&self.pools);
            if let Some(pool) = pools.get(&key) {
                let existing: Vec<String> = pool
                    .lock()
                    .device_models()
                    .iter()
                    .map(|m| m.name.clone())
                    .collect();
                let wanted: Vec<String> = specs.iter().map(|m| m.name.clone()).collect();
                // Re-POSTing the same composition stays idempotent.
                if existing != wanted {
                    return Err(bad_request(format!(
                        "pool for key '{key}' already runs on [{}]; its devices are fixed",
                        existing.join(", ")
                    )));
                }
            } else {
                lock(&self.pool_devices).insert(key.clone(), specs);
            }
        }

        let signatures = api::kernel_signatures(&artifacts.bitstream).map_err(|e| (500, e))?;
        let kernels = artifacts
            .bitstream
            .kernels
            .iter()
            .map(|k| {
                let args = signatures
                    .iter()
                    .find(|(n, _)| n == &k.name)
                    .map(|(_, a)| a.clone())
                    .unwrap_or_default();
                KernelDesc {
                    name: k.name.clone(),
                    args,
                    lut: k.resources.lut,
                    bram: k.resources.bram,
                    dsp: k.resources.dsp,
                    loops: k.schedule.len(),
                }
            })
            .collect();
        let devices = self
            .devices_for(&key)
            .iter()
            .map(|d| d.name.clone())
            .collect();
        Ok(CompileResponse {
            key,
            cached,
            kernels,
            devices,
        }
        .to_value())
    }

    /// The device composition key `key`'s pool uses (or will use): the
    /// `/compile` override, else the server-wide `--devices` list, else
    /// `devices` × U280.
    fn devices_for(&self, key: &str) -> Vec<DeviceModel> {
        if let Some(devices) = lock(&self.pool_devices).get(key) {
            return devices.clone();
        }
        match &self.config.device_models {
            Some(models) if !models.is_empty() => models.clone(),
            _ => vec![DeviceModel::u280(); self.config.devices.max(1)],
        }
    }

    /// The pool serving artifact `key`, created on first use. The pools
    /// lock is held across creation (a once-per-key cost): the device
    /// composition read and the insert are atomic with respect to
    /// `/compile` recording a `devices` override, so the pool can never be
    /// built with a composition that disagrees with what was reported.
    fn pool_for(&self, key: &str) -> Result<Arc<PoolGate>, HandlerError> {
        let mut pools = lock(&self.pools);
        if let Some(pool) = pools.get(key) {
            return Ok(Arc::clone(pool));
        }
        let artifacts = lock(&self.registry)
            .get(key)
            .cloned()
            .ok_or_else(|| not_found(format!("unknown artifact key '{key}' (compile first)")))?;
        let image = self
            .images
            .instantiate(&artifacts.bitstream)
            .map_err(|e| (500, e))?;
        let devices = self.devices_for(key);
        let mut machine = ClusterMachine::load_with_image(&artifacts, &devices, image)
            .map_err(|e| (500, e.to_string()))?;
        // Every pool reports into the server's registry, so one /metrics
        // scrape covers queue waits and job counts across all pools.
        machine.use_metrics(&self.metrics.registry);
        let pool = Arc::new(PoolGate::new(machine));
        Ok(Arc::clone(pools.entry(key.to_string()).or_insert(pool)))
    }

    fn open_session(&self, body: &str) -> Result<Value, HandlerError> {
        let v = api::parse_body(body).map_err(bad_request)?;
        let key = api::get_str(&v, "key").map_err(bad_request)?;
        let maps = api::get_arr(&v, "maps").map_err(bad_request)?;
        if maps.is_empty() {
            return Err(bad_request("'maps' must name at least one array"));
        }
        // `shards` may be an integer, "auto", or absent (then the server
        // default — `ftn serve --shards` — applies; one shard when none).
        let shards =
            match v.get("shards") {
                Some(Value::Str(s)) => Some(ShardCount::parse(s).ok_or_else(|| {
                    bad_request("'shards' must be a positive integer or \"auto\"")
                })?),
                Some(Value::Int(i)) if *i > 0 => Some(ShardCount::Fixed(*i as usize)),
                Some(Value::UInt(u)) if *u > 0 => Some(ShardCount::Fixed(*u as usize)),
                Some(_) => {
                    return Err(bad_request(
                        "'shards' must be a positive integer or \"auto\"",
                    ))
                }
                None => self.config.default_shards,
            };

        // `auto_rebalance` may be an interval, an "INTERVAL[:THRESHOLD]"
        // string, an explicit opt-out (`0`, `false`, or `"off"` — a
        // session that must keep a frozen plan can escape a server-wide
        // `ftn serve --auto-rebalance` default), or absent (then the
        // server default applies).
        let auto_rebalance = match v.get("auto_rebalance") {
            Some(Value::Str(s)) if s == "off" || s == "none" => None,
            Some(Value::Str(s)) => Some(AutoRebalance::parse(s).ok_or_else(|| {
                bad_request("'auto_rebalance' must be \"INTERVAL[:THRESHOLD]\" or \"off\"")
            })?),
            Some(Value::Bool(false)) => None,
            Some(Value::Int(0)) | Some(Value::UInt(0)) => None,
            Some(Value::Int(i)) if *i > 0 => Some(AutoRebalance {
                interval: *i as u64,
                ..Default::default()
            }),
            Some(Value::UInt(u)) if *u > 0 => Some(AutoRebalance {
                interval: *u,
                ..Default::default()
            }),
            Some(_) => {
                return Err(bad_request(
                    "'auto_rebalance' must be a positive interval, \
                     \"INTERVAL[:THRESHOLD]\", or an opt-out (0 | false | \"off\")",
                ))
            }
            None => self.config.auto_rebalance,
        };
        // Re-planning needs rows to move between shards: an explicit request
        // to enable it on a session that never asked for any would be
        // silently dead, so reject it (explicit opt-outs and inherited
        // server defaults stay harmless).
        if shards.is_none() && v.get("auto_rebalance").is_some() && auto_rebalance.is_some() {
            return Err(bad_request(
                "'auto_rebalance' requires a sharded session; set 'shards' too",
            ));
        }

        let pool = self.pool_for(key)?;
        // Parse and validate every map before allocating anything, so a bad
        // later map cannot strand earlier arrays in pool memory.
        let mut parsed: Vec<(String, Vec<f32>, MapKind, Partition)> =
            Vec::with_capacity(maps.len());
        for m in maps {
            let name = api::get_str(m, "name").map_err(bad_request)?;
            let kind = MapKind::parse(api::get_str(m, "kind").map_err(bad_request)?)
                .ok_or_else(|| bad_request("map 'kind' must be to | from | tofrom"))?;
            let halo = match m.get("halo") {
                Some(Value::Int(i)) if *i >= 0 => *i as usize,
                Some(Value::UInt(u)) => *u as usize,
                None => 0,
                Some(_) => return Err(bad_request("map 'halo' must be a non-negative integer")),
            };
            let partition = match api::get_opt_str(m, "partition") {
                Some(p) => Partition::parse(p, halo).ok_or_else(|| {
                    bad_request("map 'partition' must be split | replicated | sum | min | max")
                })?,
                None => Partition::Split { halo },
            };
            let data = api::get_arr(m, "data").map_err(bad_request)?;
            let data = api::f32_slice(data).map_err(bad_request)?;
            parsed.push((name.to_string(), data, kind, partition));
        }

        let mut machine = pool.lock();
        let triples: Vec<(String, RtValue, MapKind, Partition)> = parsed
            .into_iter()
            .map(|(name, data, kind, partition)| {
                let value = machine.host_f32(&data);
                (name, value, kind, partition)
            })
            .collect();
        let arrays: Vec<RtValue> = triples.iter().map(|(_, v, _, _)| v.clone()).collect();
        // A failed open (duplicate names, invalid kind/partition combos)
        // must release the arrays it will never map.
        let free_all = |machine: &mut ClusterMachine| {
            for v in &arrays {
                let _ = machine.free_host(v);
            }
        };

        let borrowed: Vec<(&str, RtValue, MapKind, Partition)> = triples
            .iter()
            .map(|(n, v, k, p)| (n.as_str(), v.clone(), *k, *p))
            .collect();
        let count = shards.unwrap_or(ShardCount::Fixed(1));
        let cluster_sid = match machine.open_sharded_session_with(&borrowed, count, auto_rebalance)
        {
            Ok(sid) => sid,
            Err(e) => {
                free_all(&mut machine);
                return Err(bad_request(e.to_string()));
            }
        };
        let devices = machine.sharded_devices(cluster_sid).unwrap_or_default();
        drop(machine);
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        self.sessions.insert(
            session,
            ServeSession {
                pool_key: key.to_string(),
                cluster_sid,
                arrays,
            },
        );
        let mut fields = session_reply(session, &devices);
        fields.push(("mapped", triples.len().to_value()));
        Ok(api::obj(fields))
    }

    fn session_ref(&self, session: u64) -> Result<(Arc<PoolGate>, u64), HandlerError> {
        let (pool_key, cluster_sid) = self
            .sessions
            .resolve(session)
            .ok_or_else(|| not_found(format!("no session {session}")))?;
        let pool = lock(&self.pools)
            .get(&pool_key)
            .cloned()
            .ok_or_else(|| (500, format!("pool for session {session} vanished")))?;
        Ok((pool, cluster_sid))
    }

    /// Lock `gate`'s machine with `session` known to be outside a migration
    /// epoch *at lock time*: epochs remove the session from the
    /// machine's table for their duration, so touching one mid-epoch would
    /// spuriously report "no session". Re-checking the fence under the
    /// machine lock closes the race between the fence test and the lock
    /// acquisition; an epoch that fences *after* we hold the lock quiesces
    /// behind whatever we submit, which is the pre-epoch order.
    fn lock_unfenced<'a>(
        &self,
        gate: &'a PoolGate,
        session: u64,
    ) -> std::sync::MutexGuard<'a, ClusterMachine> {
        loop {
            gate.wait_unfenced(session);
            let machine = gate.lock();
            if !gate.fenced(session) {
                return machine;
            }
            drop(machine);
        }
    }

    /// Launch: fan out per shard, wait all shard jobs, and report the
    /// aggregate (total cycles, per-launch makespan = slowest shard).
    ///
    /// A launch that lands while its session is inside a migration epoch
    /// parks on the gate fence until the epoch resumes; launches on *other*
    /// sessions never see the fence. When the session's auto-rebalance
    /// cadence comes due, the epoch runs phased ([`PoolGate::rebalance_phased`])
    /// with the machine lock released during quiesce and device traffic, so
    /// concurrent clients keep submitting mid-epoch.
    fn launch(&self, session: u64, body: &str) -> Result<Value, HandlerError> {
        let v = api::parse_body(body).map_err(bad_request)?;
        let kernel = api::get_str(&v, "kernel").map_err(bad_request)?;
        let arg_values = api::get_arr(&v, "args").map_err(bad_request)?;
        let refresh_halos = match v.get("refresh_halos") {
            Some(Value::Bool(b)) => *b,
            None => false,
            Some(_) => return Err(bad_request("'refresh_halos' must be a boolean")),
        };
        let (gate, sid) = self.session_ref(session)?;
        let mut args = Vec::with_capacity(arg_values.len());
        for a in arg_values {
            let spec = api::parse_arg(a).map_err(bad_request)?;
            args.push(match spec {
                ArgSpec::Named(name) => ShardArg::Array(name),
                ArgSpec::Extent(name) => ShardArg::Extent(name),
                ArgSpec::ExtentOffset(name, off) => ShardArg::ExtentOffset(name, off),
                ArgSpec::ArrayF32(_) | ArgSpec::ArrayI32(_) => {
                    return Err(bad_request(
                        "inline arrays are not allowed in session launches; map them at open",
                    ))
                }
                ArgSpec::F32(x) => ShardArg::Scalar(RtValue::F32(x)),
                ArgSpec::F64(x) => ShardArg::Scalar(RtValue::F64(x)),
                ArgSpec::I32(x) => ShardArg::Scalar(RtValue::I32(x)),
                ArgSpec::I64(x) => ShardArg::Scalar(RtValue::I64(x)),
                ArgSpec::Index(x) => ShardArg::Scalar(RtValue::Index(x)),
            });
        }
        let mut machine = self.lock_unfenced(&gate, sid);
        // The auto-rebalance cadence check is split from the launch so a due
        // epoch runs *phased* (off-lock) instead of stop-the-world under the
        // machine lock the synchronous `sharded_launch` would take.
        let due = machine
            .auto_rebalance_due(sid)
            .map_err(|e| bad_request(e.to_string()))?;
        if let Some(threshold) = due {
            drop(machine);
            gate.rebalance_phased(sid, Some(threshold))
                .map_err(|e| (500, e.to_string()))?;
            machine = self.lock_unfenced(&gate, sid);
        }
        let ticket = machine
            .sharded_launch_no_replan(sid, kernel, &args)
            .map_err(|e| bad_request(e.to_string()))?;
        let (staged, elided) = (ticket.staged, ticket.elided);
        let devices = ticket.devices;
        drop(machine);
        let reports = wait_unlocked(&gate, ticket.handles).map_err(|e| (500, e.to_string()))?;
        self.metrics.launches.inc();
        // Per-launch ghost-row exchange: refresh the session's split-array
        // halos *after* the shard jobs land, phased like a manual
        // `POST /sessions/{id}/refresh` (machine lock released while the
        // boundary rows travel, only this session fenced).
        let halo = if refresh_halos {
            Some(gate.refresh_phased(sid).map_err(|e| (500, e.to_string()))?)
        } else {
            None
        };
        let cycles: u64 = reports.iter().map(|r| r.report.stats.total_cycles).sum();
        let kernel_seconds: f64 = reports.iter().map(|r| r.report.stats.kernel_seconds).sum();
        let makespan = reports
            .iter()
            .map(|r| r.report.stats.kernel_wall_seconds)
            .fold(0.0f64, f64::max);
        // `kernel_wall_seconds` is the one-device spelling of
        // `kernel_wall_seconds_max` (equal on one shard).
        let mut fields = session_reply(session, &devices);
        fields.extend([
            ("cycles", cycles.to_value()),
            ("kernel_seconds", kernel_seconds.to_value()),
            ("kernel_wall_seconds", makespan.to_value()),
            ("kernel_wall_seconds_max", makespan.to_value()),
            ("staged", staged.to_value()),
            ("elided", elided.to_value()),
        ]);
        if let Some(h) = halo {
            fields.push(("halo_rows", h.halo_rows.to_value()));
            fields.push(("halo_bytes", h.halo_bytes.to_value()));
        }
        Ok(api::obj(fields))
    }

    /// Manual re-plan of a session against the pool's current
    /// backlogs. Body: optional `{"threshold": T}` overriding the session's
    /// configured improvement threshold. Replies with the cluster's
    /// [`ftn_cluster::RebalanceReport`] (whether an epoch ran, the predicted
    /// gain, rows migrated, and the new per-shard row counts).
    fn rebalance(&self, session: u64, body: &str) -> Result<Value, HandlerError> {
        let v = api::parse_body(body).map_err(bad_request)?;
        let threshold = match v.get("threshold") {
            Some(Value::Float(f)) if f.is_finite() && *f >= 1.0 => Some(*f),
            Some(Value::Int(i)) if *i >= 1 => Some(*i as f64),
            Some(Value::UInt(u)) if *u >= 1 => Some(*u as f64),
            None => None,
            Some(_) => return Err(bad_request("'threshold' must be a number ≥ 1.0")),
        };
        let (pool, sid) = self.session_ref(session)?;
        // The epoch runs *phased* (quiesce → delta-gather → reshard →
        // resume): the machine lock is held only to poll outcomes and to
        // submit each phase's transfers, and released while device traffic
        // is in flight. Only this session is fenced for the duration —
        // launches on every other session of the pool proceed mid-epoch.
        let report = pool
            .rebalance_phased(sid, threshold)
            .map_err(|e| (500, e.to_string()))?;
        Ok(with_serve_session(report.to_value(), session))
    }

    /// Manual inter-launch halo refresh of a session: every mapped
    /// split array's ghost rows are re-seeded from their current owner
    /// rows, boundary blocks only (device-to-device via the row-block
    /// fetch/splice path — never a full gather/re-scatter). Replies with
    /// the cluster's [`ftn_cluster::HaloRefreshReport`] (whether anything
    /// moved, arrays touched, ghost rows and bytes exchanged).
    fn refresh(&self, session: u64) -> Result<Value, HandlerError> {
        let (pool, sid) = self.session_ref(session)?;
        // The exchange runs *phased* (gather → splice): the machine lock is
        // held only to submit each phase's transfers, and released while
        // boundary rows are in flight. Only this session is fenced.
        let report = pool.refresh_phased(sid).map_err(|e| (500, e.to_string()))?;
        Ok(with_serve_session(report.to_value(), session))
    }

    fn session_info(&self, session: u64) -> Result<Value, HandlerError> {
        let (pool, sid) = self.session_ref(session)?;
        // A session mid-epoch is absent from the machine's table; wait out
        // the fence rather than 404 a live session.
        let machine = self.lock_unfenced(&pool, sid);
        let stats = machine
            .session_stats(sid)
            .ok_or_else(|| not_found(format!("no session {session}")))?;
        let devices = machine.sharded_devices(sid).unwrap_or_default();
        // The realized partition (owned rows per shard) of the largest
        // split array — the live view of re-planning epochs, and the same
        // reference array the rebalance decision and its report use, so the
        // two endpoints always agree.
        let shard_rows = machine
            .sharded_maps(sid)
            .and_then(|maps| {
                maps.into_iter()
                    .filter(|(_, _, _, p)| matches!(p, Partition::Split { .. }))
                    .max_by_key(|(_, v, _, _)| v.as_memref().map(|m| m.num_elements()).unwrap_or(0))
                    .map(|(name, _, _, _)| name)
            })
            .and_then(|name| machine.sharded_shard_rows(sid, &name))
            .unwrap_or_default();
        let mut fields = session_reply(session, &devices);
        fields.push(("shard_rows", shard_rows.to_value()));
        fields.push(("stats", stats.to_value()));
        Ok(api::obj(fields))
    }

    fn close_session(&self, session: u64) -> Result<Reply, HandlerError> {
        let (pool, sid) = self.session_ref(session)?;
        // Closing mid-epoch would find the session missing from the
        // machine's table; park on the fence until the epoch resumes.
        let mut machine = self.lock_unfenced(&pool, sid);
        let maps = machine
            .session_maps(sid)
            .ok_or_else(|| not_found(format!("no session {session}")))?;
        let report = machine
            .close_sharded_session(sid)
            .map_err(|e| (500, e.to_string()))?;
        // `from`/`tofrom` arrays now hold the gathered device results; copy
        // them out (4 bytes an element — they are printed once the pool is
        // unlocked), then release every array the session allocated.
        let arrays: Vec<(&str, Buffer)> = maps
            .iter()
            .filter(|(_, _, kind)| matches!(kind, MapKind::From | MapKind::ToFrom))
            .map(|(name, value, _)| (name.as_str(), host_copy(&machine, value)))
            .collect();
        let handles = self
            .sessions
            .remove(session)
            .map(|s| s.arrays)
            .unwrap_or_default();
        for h in &handles {
            machine.free_host(h).map_err(|e| (500, e.to_string()))?;
        }
        drop(machine);
        let mut fields = session_reply(session, &report.devices);
        fields.push(("stats", report.stats.to_value()));
        Ok(Reply::object_with_tail(fields, "arrays", |out| {
            append_seq(out, ('{', '}'), &arrays, |out, (name, buffer)| {
                serde_json::append(out, *name);
                out.push_str(": ");
                append_buffer(out, buffer);
            })
        }))
    }

    fn run_program(&self, body: &str) -> Result<Reply, HandlerError> {
        let v = api::parse_body(body).map_err(bad_request)?;
        let key = api::get_str(&v, "key").map_err(bad_request)?;
        let func = api::get_str(&v, "func").map_err(bad_request)?;
        let arg_values = api::get_arr(&v, "args").map_err(bad_request)?;
        let pool = self.pool_for(key)?;
        // Parse (and reject) every argument before allocating anything, so
        // a malformed later argument cannot strand earlier arrays in pool
        // memory.
        let mut specs = Vec::with_capacity(arg_values.len());
        for a in arg_values {
            let spec = api::parse_arg(a).map_err(bad_request)?;
            if matches!(
                spec,
                ArgSpec::Named(_) | ArgSpec::Extent(_) | ArgSpec::ExtentOffset(..)
            ) {
                return Err(bad_request(
                    "named arrays/extents are session-only; pass array_f32/array_i32 to /run",
                ));
            }
            specs.push(spec);
        }
        let mut machine = pool.lock();
        let mut args = Vec::with_capacity(specs.len());
        let mut array_handles = Vec::new();
        for spec in specs {
            args.push(match spec {
                ArgSpec::ArrayF32(data) => {
                    let h = machine.host_f32(&data);
                    array_handles.push(h.clone());
                    h
                }
                ArgSpec::ArrayI32(data) => {
                    let h = machine.host_i32(&data);
                    array_handles.push(h.clone());
                    h
                }
                ArgSpec::Named(_) | ArgSpec::Extent(_) | ArgSpec::ExtentOffset(..) => {
                    unreachable!("rejected above")
                }
                ArgSpec::F32(x) => RtValue::F32(x),
                ArgSpec::F64(x) => RtValue::F64(x),
                ArgSpec::I32(x) => RtValue::I32(x),
                ArgSpec::I64(x) => RtValue::I64(x),
                ArgSpec::Index(x) => RtValue::Index(x),
            });
        }
        // From here on the arrays are allocated: every exit, including the
        // error ones, must release them.
        let free_all = |machine: &mut ClusterMachine| {
            for h in &array_handles {
                let _ = machine.free_host(h);
            }
        };
        let handle = match machine.submit(func, &args) {
            Ok(h) => h,
            Err(e) => {
                free_all(&mut machine);
                return Err(bad_request(e.to_string()));
            }
        };
        drop(machine);
        let report = match wait_unlocked(&pool, vec![handle]) {
            Ok(mut reports) => reports.pop().expect("one handle, one report"),
            Err(e) => {
                free_all(&mut pool.lock());
                return Err(bad_request(e.to_string()));
            }
        };
        let mut machine = pool.lock();
        self.metrics.runs.inc();
        let arrays: Vec<Buffer> = array_handles
            .iter()
            .map(|h| host_copy(&machine, h))
            .collect();
        // The request's arrays are dead once copied out: free them (host
        // slot + worker mirrors) so sustained /run traffic stays flat.
        free_all(&mut machine);
        drop(machine);
        let fields = vec![
            ("device", report.device.to_value()),
            ("stats", report.report.stats.to_value()),
        ];
        Ok(Reply::object_with_tail(fields, "arrays", |out| {
            append_seq(out, ('[', ']'), &arrays, append_buffer)
        }))
    }

    fn stats(&self) -> Result<Value, HandlerError> {
        // Iterate a snapshot of the pool list: the pools-map lock is not
        // held while per-pool machine locks are taken, so /stats cannot
        // stall session resolution or pool creation (and vice versa).
        let mut pool_stats = Vec::new();
        for (key, gate) in self.pools_snapshot() {
            let machine = gate.lock();
            let models: Vec<String> = machine
                .device_models()
                .iter()
                .map(|m| m.name.clone())
                .collect();
            pool_stats.push(api::obj(vec![
                ("key", key.as_str().to_value()),
                ("devices", machine.device_count().to_value()),
                ("models", models.to_value()),
                ("queue_depths", machine.queue_depths().to_value()),
                ("open_sessions", machine.open_sessions().len().to_value()),
                ("stats", machine.pool_stats().to_value()),
            ]));
        }
        Ok(api::obj(vec![
            ("cache", self.cache.stats().to_value()),
            ("image_cache", self.images.stats().to_value()),
            ("sessions_open", self.sessions.len().to_value()),
            ("launches", self.metrics.launches.get().to_value()),
            ("runs", self.metrics.runs.get().to_value()),
            (
                "uptime_seconds",
                self.started.elapsed().as_secs_f64().to_value(),
            ),
            (
                "http",
                api::obj(vec![
                    (
                        "connections",
                        self.metrics.http_connections.get().to_value(),
                    ),
                    ("requests", self.metrics.http_requests.get().to_value()),
                ]),
            ),
            ("pools", Value::Arr(pool_stats)),
        ]))
    }
}

/// The fields every session reply (open, launch, info, close) starts with:
/// the serve-level id and where the session lives. `device` is the
/// one-device spelling of `devices[0]`.
fn session_reply(session: u64, devices: &[usize]) -> Vec<(&'static str, Value)> {
    vec![
        ("session", session.to_value()),
        ("device", devices.first().copied().unwrap_or(0).to_value()),
        ("shards", devices.len().to_value()),
        ("devices", devices.to_value()),
    ]
}

/// The host copy of one mapped array, taken under the pool lock.
fn host_copy(machine: &ClusterMachine, array: &RtValue) -> Buffer {
    let m = array.as_memref().expect("session arrays are memrefs");
    machine.memory.get(m.buffer).clone()
}

/// Append `items` between `open` and `close`, comma-separated, each written
/// by `each` — the container around buffers printed by [`append_buffer`].
fn append_seq<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    mut each: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(close);
}

/// Append a buffer's elements as one JSON array, straight from the slice.
fn append_buffer(out: &mut String, buffer: &Buffer) {
    match buffer {
        Buffer::F32(data) => serde_json::append_slice(out, data),
        Buffer::F64(data) => serde_json::append_slice(out, data),
        Buffer::I32(data) => serde_json::append_slice(out, data),
        Buffer::I64(data) => serde_json::append_slice(out, data),
        Buffer::I1(data) => serde_json::append_slice(out, data),
    }
}

/// Re-key a cluster report's `session` field to the serve-level session id
/// (the cluster-internal one is meaningless to HTTP clients).
fn with_serve_session(mut report: Value, session: u64) -> Value {
    if let Value::Obj(fields) = &mut report {
        for (k, v) in fields.iter_mut() {
            if k == "session" {
                *v = session.to_value();
            }
        }
    }
    report
}

fn parse_id(s: &str) -> Result<u64, HandlerError> {
    s.parse()
        .map_err(|_| bad_request(format!("bad session id '{s}'")))
}

/// Parse the shared `?since=NANOS&until=NANOS` window of `/trace`,
/// `/metrics/range`, and `/profile`: both optional (`since` defaults to 0,
/// `until` to unbounded), 400 on non-numeric values or an inverted window.
/// `?last=NANOS` is the trailing-window shorthand (`since = now - NANOS`,
/// `until` unbounded) continuous pollers should prefer — it keeps each poll
/// proportional to recent activity instead of refolding the whole ring —
/// and is mutually exclusive with explicit bounds.
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
/// to the serve-level one. Closed sessions (no table entry) fall back to
/// `POOLKEY:CLUSTERSID`; a key that does not parse as a cluster session id
/// at all keeps its raw spelling under the same `POOLKEY:` prefix — it must
/// not collapse onto whatever serve session maps to cluster session 0.
fn rekey_session_row(raw: &str, pool_key: &str, session_keys: &[(u64, String, u64)]) -> String {
    match raw.parse::<u64>() {
        Ok(cluster_sid) => session_keys
            .iter()
            .find(|(_, pk, cs)| pk == pool_key && *cs == cluster_sid)
            .map(|(sid, _, _)| sid.to_string())
            .unwrap_or_else(|| format!("{}:{cluster_sid}", short_key(pool_key))),
        Err(_) => format!("{}:{raw}", short_key(pool_key)),
    }
}

/// Trailing window the `ftn_device_utilization` gauges are computed over on
/// each scrape (1 s: long enough to smooth single jobs, short enough that a
/// stalled pool shows up within a few scrapes).
const UTILIZATION_WINDOW_NANOS: u64 = 1_000_000_000;

/// The HTTP server. Bind, then [`Server::run`] until a `POST /shutdown`.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let cache = match &config.cache_dir {
            Some(dir) => ArtifactCache::with_disk(dir)?,
            None => ArtifactCache::new(),
        };
        // The span recorder and log level are process-global (metrics are
        // per-server): the most recent bind configures them.
        if config.trace_buffer > 0 {
            ftn_trace::set_capacity(config.trace_buffer);
            ftn_trace::set_enabled(true);
        } else {
            ftn_trace::set_enabled(false);
        }
        ftn_trace::set_max_level(config.log_level);
        let metrics = ServeMetrics::new();
        let store = Arc::new(TimeSeriesStore::new(config.retention_points));
        let slo = Arc::new(SloEngine::new(
            config.slos.clone(),
            Arc::clone(&metrics.registry),
        ));
        let state = Arc::new(ServeState {
            config,
            cache,
            registry: Mutex::new(HashMap::new()),
            images: ImageCache::new(),
            pools: Mutex::new(HashMap::new()),
            pool_devices: Mutex::new(HashMap::new()),
            sessions: SessionTable::new(),
            health: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            metrics,
            store,
            slo,
            started: std::time::Instant::now(),
            local_addr,
        });
        ftn_trace::log(
            Level::Info,
            "serve",
            format!("listening on http://{local_addr}"),
        );
        Ok(Server { listener, state })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serve requests until a `POST /shutdown` arrives; joins all worker
    /// threads (and the background scraper) before returning, so a clean
    /// return means a clean shutdown.
    pub fn run(self) -> std::io::Result<()> {
        // The self-monitoring scraper: one pass per configured interval,
        // sleeping in short steps so shutdown stays prompt. Interval 0
        // disables the thread entirely.
        let scraper = (self.state.config.scrape_interval_ms > 0).then(|| {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("ftn-scrape".to_string())
                .spawn(move || {
                    let interval =
                        std::time::Duration::from_millis(state.config.scrape_interval_ms);
                    let step = std::time::Duration::from_millis(50).min(interval);
                    while !state.shutdown.load(Ordering::SeqCst) {
                        let pass = std::time::Instant::now();
                        state.scrape_once();
                        let mut remaining = interval.saturating_sub(pass.elapsed());
                        while !remaining.is_zero() && !state.shutdown.load(Ordering::SeqCst) {
                            let nap = remaining.min(step);
                            std::thread::sleep(nap);
                            remaining = remaining.saturating_sub(nap);
                        }
                    }
                })
                .expect("spawn scrape thread")
        });
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.state.config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("ftn-serve-{i}"))
                    .spawn(move || loop {
                        let stream = lock(&rx).recv();
                        match stream {
                            Ok(s) => {
                                handle_connection(&state, s);
                                // After /shutdown is processed, wake the
                                // acceptor so it can observe the flag.
                                if state.shutdown.load(Ordering::SeqCst) {
                                    let _ = TcpStream::connect(state.local_addr);
                                }
                            }
                            Err(_) => break,
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();

        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        if let Some(s) = scraper {
            let _ = s.join();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAXPY: &str = r#"
subroutine saxpy(n, a, x, y)
  implicit none
  integer :: n, i
  real :: a, x(n), y(n)
  !$omp target parallel do simd simdlen(10)
  do i = 1, n
    y(i) = y(i) + a*x(i)
  end do
  !$omp end target parallel do simd
end subroutine saxpy
"#;

    #[test]
    fn profile_top_rekey_preserves_non_numeric_rollup_keys() {
        let pool = "abcdef0123456789";
        let sessions = vec![(7u64, pool.to_string(), 0u64)];
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

    fn as_u64(v: Option<&Value>) -> u64 {
        match v {
            Some(Value::UInt(u)) => *u,
            Some(Value::Int(i)) if *i >= 0 => *i as u64,
            other => panic!("expected unsigned number, got {other:?}"),
        }
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
        crate::client::request(addr, method, path, body).expect("request round-trips")
    }

    #[test]
    fn end_to_end_session_over_http() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                devices: 2,
                workers: 2,
                ..Default::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        // Compile twice: second is a cache hit.
        let body =
            serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.to_string()))]))
                .unwrap();
        let (status, first) = request(addr, "POST", "/compile", &body);
        assert_eq!(status, 200, "{first:?}");
        assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
        let (_, second) = request(addr, "POST", "/compile", &body);
        assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
        let Some(Value::Str(key)) = first.get("key") else {
            panic!("no key in {first:?}");
        };

        // Open a session mapping x (to) and y (tofrom).
        let n = 32usize;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y = vec![1.0f32; n];
        let open = api::obj(vec![
            ("key", Value::Str(key.clone())),
            (
                "maps",
                Value::Arr(vec![
                    api::obj(vec![
                        ("name", Value::Str("x".into())),
                        ("kind", Value::Str("to".into())),
                        ("data", x.to_value()),
                    ]),
                    api::obj(vec![
                        ("name", Value::Str("y".into())),
                        ("kind", Value::Str("tofrom".into())),
                        ("data", y.to_value()),
                    ]),
                ]),
            ),
        ]);
        let (status, opened) = request(
            addr,
            "POST",
            "/sessions",
            &serde_json::to_string(&open).unwrap(),
        );
        assert_eq!(status, 200, "{opened:?}");
        let sid = as_u64(opened.get("session"));
        // Opened without `shards`: a one-shard session. Replies carry the
        // one-device fields with the values the retired unsharded handlers
        // answered (`device`, `kernel_wall_seconds`: captured at that
        // commit) next to the general ones.
        assert_eq!(as_u64(opened.get("mapped")), 2);
        assert_eq!(as_u64(opened.get("device")), 0, "{opened:?}");
        assert_eq!(as_u64(opened.get("shards")), 1, "{opened:?}");
        assert_eq!(
            opened.get("devices"),
            Some(&Value::Arr(vec![Value::Int(0)]))
        );

        // Two launches; the second also finds everything resident.
        let launch = api::obj(vec![
            ("kernel", Value::Str("saxpy_kernel0".into())),
            (
                "args",
                Value::Arr(vec![
                    api::obj(vec![("array", Value::Str("x".into()))]),
                    api::obj(vec![("array", Value::Str("y".into()))]),
                    api::obj(vec![("index", (n as i64).to_value())]),
                    api::obj(vec![("index", (n as i64).to_value())]),
                    api::obj(vec![("f32", Value::Float(2.0))]),
                    api::obj(vec![("index", Value::Int(1))]),
                    api::obj(vec![("index", (n as i64).to_value())]),
                ]),
            ),
        ]);
        let launch_body = serde_json::to_string(&launch).unwrap();
        for _ in 0..2 {
            let (status, resp) = request(
                addr,
                "POST",
                &format!("/sessions/{sid}/launch"),
                &launch_body,
            );
            assert_eq!(status, 200, "{resp:?}");
            assert_eq!(as_u64(resp.get("elided")), 2, "{resp:?}");
            assert_eq!(as_u64(resp.get("staged")), 0, "{resp:?}");
            assert_eq!(as_u64(resp.get("device")), 0, "{resp:?}");
            assert_eq!(as_u64(resp.get("shards")), 1, "{resp:?}");
            assert_eq!(as_u64(resp.get("cycles")), 1276, "{resp:?}");
            let wall = Some(&Value::Float(6.253333333333333e-6));
            assert_eq!(resp.get("kernel_wall_seconds"), wall, "{resp:?}");
            assert_eq!(resp.get("kernel_wall_seconds_max"), wall, "{resp:?}");
            let kernel = Some(&Value::Float(4.253333333333333e-6));
            assert_eq!(resp.get("kernel_seconds"), kernel, "{resp:?}");
        }
        // `extent` / `extent_offset` resolve to the full extent there: the
        // same launch spelled with extents (and `a = 0`, so y is untouched)
        // runs the same trip count, cycle for cycle.
        let by_extent = api::obj(vec![
            ("kernel", Value::Str("saxpy_kernel0".into())),
            (
                "args",
                Value::Arr(vec![
                    api::obj(vec![("array", Value::Str("x".into()))]),
                    api::obj(vec![("array", Value::Str("y".into()))]),
                    api::obj(vec![("extent", Value::Str("x".into()))]),
                    api::obj(vec![("extent", Value::Str("y".into()))]),
                    api::obj(vec![("f32", Value::Float(0.0))]),
                    api::obj(vec![("index", Value::Int(1))]),
                    api::obj(vec![(
                        "extent_offset",
                        api::obj(vec![
                            ("array", Value::Str("x".into())),
                            ("offset", Value::Int(0)),
                        ]),
                    )]),
                ]),
            ),
        ]);
        let (status, resp) = request(
            addr,
            "POST",
            &format!("/sessions/{sid}/launch"),
            &serde_json::to_string(&by_extent).unwrap(),
        );
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(as_u64(resp.get("cycles")), 1276, "full-extent trip count");

        let (status, info) = request(addr, "GET", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200, "{info:?}");
        assert_eq!(as_u64(info.get("device")), 0, "{info:?}");
        assert_eq!(as_u64(info.get("shards")), 1, "{info:?}");
        assert_eq!(
            info.get("shard_rows"),
            Some(&Value::Arr(vec![Value::Int(n as i64)]))
        );
        let stats = info.get("stats").expect("stats");
        assert_eq!(as_u64(stats.get("launches")), 3);
        assert_eq!(as_u64(stats.get("staged_uploads")), 2);
        assert_eq!(as_u64(stats.get("staged_bytes")), 256);
        assert_eq!(as_u64(stats.get("elided_transfers")), 6);

        // Close: y comes back with both launches applied.
        let (status, closed) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200, "{closed:?}");
        assert_eq!(as_u64(closed.get("device")), 0, "{closed:?}");
        assert_eq!(as_u64(closed.get("shards")), 1, "{closed:?}");
        let stats = closed.get("stats").expect("stats");
        assert_eq!(as_u64(stats.get("fetched_downloads")), 1, "{closed:?}");
        let arrays = closed.get("arrays").expect("arrays");
        let Some(Value::Arr(ys)) = arrays.get("y") else {
            panic!("no y in {closed:?}");
        };
        assert_eq!(ys.len(), n);
        for (i, v) in ys.iter().enumerate() {
            let Value::Float(f) = v else { panic!("{v:?}") };
            assert_eq!(*f as f32, 1.0 + 2.0 * 2.0 * i as f32, "element {i}");
        }

        // Stats reflect the session traffic; then shut down cleanly.
        let (status, stats) = request(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        assert_eq!(as_u64(stats.get("launches")), 3, "{stats:?}");
        let (status, _) = request(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread").expect("clean run");
    }

    fn start_server(
        devices: usize,
        workers: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                devices,
                workers,
                ..Default::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        (addr, std::thread::spawn(move || server.run()))
    }

    fn compile_key(addr: SocketAddr) -> String {
        let body =
            serde_json::to_string(&api::obj(vec![("source", Value::Str(SAXPY.to_string()))]))
                .unwrap();
        let (status, resp) = request(addr, "POST", "/compile", &body);
        assert_eq!(status, 200, "{resp:?}");
        let Some(Value::Str(key)) = resp.get("key") else {
            panic!("no key in {resp:?}");
        };
        key.clone()
    }

    fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
        let (status, _) = request(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread").expect("clean run");
    }

    #[test]
    fn sharded_session_over_http_spans_the_pool() {
        let (addr, handle) = start_server(4, 2);
        let key = compile_key(addr);

        let n = 103usize;
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let y = vec![1.0f32; n];
        let open = api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("shards", Value::Int(4)),
            (
                "maps",
                Value::Arr(vec![
                    api::obj(vec![
                        ("name", Value::Str("x".into())),
                        ("kind", Value::Str("to".into())),
                        ("data", x.to_value()),
                    ]),
                    api::obj(vec![
                        ("name", Value::Str("y".into())),
                        ("kind", Value::Str("tofrom".into())),
                        ("data", y.to_value()),
                    ]),
                ]),
            ),
        ]);
        let (status, opened) = request(
            addr,
            "POST",
            "/sessions",
            &serde_json::to_string(&open).unwrap(),
        );
        assert_eq!(status, 200, "{opened:?}");
        assert_eq!(as_u64(opened.get("shards")), 4, "{opened:?}");
        let Some(Value::Arr(devices)) = opened.get("devices") else {
            panic!("no devices in {opened:?}");
        };
        assert_eq!(devices.len(), 4);
        let sid = as_u64(opened.get("session"));

        // Extents rebase per shard: the same launch body works at any N.
        let launch = api::obj(vec![
            ("kernel", Value::Str("saxpy_kernel0".into())),
            (
                "args",
                Value::Arr(vec![
                    api::obj(vec![("array", Value::Str("x".into()))]),
                    api::obj(vec![("array", Value::Str("y".into()))]),
                    api::obj(vec![("extent", Value::Str("x".into()))]),
                    api::obj(vec![("extent", Value::Str("y".into()))]),
                    api::obj(vec![("f32", Value::Float(2.0))]),
                    api::obj(vec![("index", Value::Int(1))]),
                    api::obj(vec![("extent", Value::Str("x".into()))]),
                ]),
            ),
        ]);
        let launch_body = serde_json::to_string(&launch).unwrap();
        for _ in 0..2 {
            let (status, resp) = request(
                addr,
                "POST",
                &format!("/sessions/{sid}/launch"),
                &launch_body,
            );
            assert_eq!(status, 200, "{resp:?}");
            assert_eq!(as_u64(resp.get("shards")), 4, "{resp:?}");
            assert_eq!(as_u64(resp.get("elided")), 8, "all shard buffers resident");
        }

        let (status, closed) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200, "{closed:?}");
        let Some(Value::Arr(ys)) = closed.get("arrays").and_then(|a| a.get("y")) else {
            panic!("no y in {closed:?}");
        };
        assert_eq!(ys.len(), n);
        for (i, v) in ys.iter().enumerate() {
            let Value::Float(f) = v else { panic!("{v:?}") };
            let expect = 1.0 + 2.0 * 2.0 * (i as f32 * 0.5);
            assert_eq!(*f as f32, expect, "element {i}");
        }
        shutdown(addr, handle);
    }

    #[test]
    fn heterogeneous_pool_over_http_reports_models_and_weights_shards() {
        let (addr, handle) = start_server(2, 2);
        // Compile with an explicit mixed-device pool: a U280, a U55C, and a
        // half-clock U280 — the session's shard sizes must track speed.
        let body = serde_json::to_string(&api::obj(vec![
            ("source", Value::Str(SAXPY.to_string())),
            (
                "devices",
                Value::Arr(vec![
                    Value::Str("u280".into()),
                    Value::Str("u55c".into()),
                    Value::Str("u280@150".into()),
                ]),
            ),
        ]))
        .unwrap();
        let (status, resp) = request(addr, "POST", "/compile", &body);
        assert_eq!(status, 200, "{resp:?}");
        let Some(Value::Arr(devices)) = resp.get("devices") else {
            panic!("no devices in {resp:?}");
        };
        assert_eq!(devices.len(), 3, "{resp:?}");
        let Some(Value::Str(key)) = resp.get("key") else {
            panic!("no key in {resp:?}");
        };
        let key = key.clone();

        // An unknown device name is rejected up front.
        let bad = serde_json::to_string(&api::obj(vec![
            ("source", Value::Str(SAXPY.to_string())),
            ("devices", Value::Arr(vec![Value::Str("u999".into())])),
        ]))
        .unwrap();
        let (status, _) = request(addr, "POST", "/compile", &bad);
        assert_eq!(status, 400);

        // A sharded session spans the mixed pool; the fastest card (u55c,
        // device 1) leads the shard order.
        let n = 120usize;
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
        let y = vec![1.0f32; n];
        let open = api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("shards", Value::Int(3)),
            (
                "maps",
                Value::Arr(vec![
                    api::obj(vec![
                        ("name", Value::Str("x".into())),
                        ("kind", Value::Str("to".into())),
                        ("data", x.to_value()),
                    ]),
                    api::obj(vec![
                        ("name", Value::Str("y".into())),
                        ("kind", Value::Str("tofrom".into())),
                        ("data", y.to_value()),
                    ]),
                ]),
            ),
        ]);
        let (status, opened) = request(
            addr,
            "POST",
            "/sessions",
            &serde_json::to_string(&open).unwrap(),
        );
        assert_eq!(status, 200, "{opened:?}");
        let Some(Value::Arr(order)) = opened.get("devices") else {
            panic!("no devices in {opened:?}");
        };
        assert_eq!(as_u64(order.first()), 1, "u55c leads: {opened:?}");
        let sid = as_u64(opened.get("session"));

        let launch = api::obj(vec![
            ("kernel", Value::Str("saxpy_kernel0".into())),
            (
                "args",
                Value::Arr(vec![
                    api::obj(vec![("array", Value::Str("x".into()))]),
                    api::obj(vec![("array", Value::Str("y".into()))]),
                    api::obj(vec![("extent", Value::Str("x".into()))]),
                    api::obj(vec![("extent", Value::Str("y".into()))]),
                    api::obj(vec![("f32", Value::Float(2.0))]),
                    api::obj(vec![("index", Value::Int(1))]),
                    api::obj(vec![("extent", Value::Str("x".into()))]),
                ]),
            ),
        ]);
        let (status, resp) = request(
            addr,
            "POST",
            &format!("/sessions/{sid}/launch"),
            &serde_json::to_string(&launch).unwrap(),
        );
        assert_eq!(status, 200, "{resp:?}");

        let (status, closed) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200, "{closed:?}");
        let Some(Value::Arr(ys)) = closed.get("arrays").and_then(|a| a.get("y")) else {
            panic!("no y in {closed:?}");
        };
        for (i, v) in ys.iter().enumerate() {
            let Value::Float(f) = v else { panic!("{v:?}") };
            assert_eq!(*f as f32, 1.0 + 2.0 * (i as f32 * 0.25), "element {i}");
        }

        // The pool now exists: re-POSTing the identical compile body (same
        // composition) stays idempotent, a *different* composition is
        // rejected.
        let (status, resp) = request(addr, "POST", "/compile", &body);
        assert_eq!(status, 200, "same devices re-POST is idempotent: {resp:?}");
        assert_eq!(resp.get("cached"), Some(&Value::Bool(true)));
        let conflicting = serde_json::to_string(&api::obj(vec![
            ("source", Value::Str(SAXPY.to_string())),
            ("devices", Value::Arr(vec![Value::Str("u250".into())])),
        ]))
        .unwrap();
        let (status, resp) = request(addr, "POST", "/compile", &conflicting);
        assert_eq!(status, 400, "conflicting devices rejected: {resp:?}");

        // /stats names every device model of the mixed pool.
        let (status, stats) = request(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let Some(Value::Arr(pools)) = stats.get("pools") else {
            panic!("no pools in {stats:?}");
        };
        let pool = pools.first().expect("one pool");
        let Some(Value::Arr(models)) = pool.get("models") else {
            panic!("no models in {stats:?}");
        };
        assert_eq!(models.len(), 3);
        assert!(
            models
                .iter()
                .any(|m| matches!(m, Value::Str(s) if s.contains("U55C"))),
            "{stats:?}"
        );
        shutdown(addr, handle);
    }

    #[test]
    fn rebalance_endpoint_replans_sharded_sessions() {
        let (addr, handle) = start_server(4, 2);
        let key = compile_key(addr);
        let n = 256usize;
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let y = vec![1.0f32; n];
        let open = api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("shards", Value::Int(4)),
            ("auto_rebalance", Value::Str("8:1.2".into())),
            (
                "maps",
                Value::Arr(vec![
                    api::obj(vec![
                        ("name", Value::Str("x".into())),
                        ("kind", Value::Str("to".into())),
                        ("data", x.to_value()),
                    ]),
                    api::obj(vec![
                        ("name", Value::Str("y".into())),
                        ("kind", Value::Str("tofrom".into())),
                        ("data", y.to_value()),
                    ]),
                ]),
            ),
        ]);
        let (status, opened) = request(
            addr,
            "POST",
            "/sessions",
            &serde_json::to_string(&open).unwrap(),
        );
        assert_eq!(status, 200, "{opened:?}");
        let sid = as_u64(opened.get("session"));

        // A quiet pool re-plans to the split it already has: pure no-op.
        let (status, resp) = request(addr, "POST", &format!("/sessions/{sid}/rebalance"), "");
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(resp.get("replanned"), Some(&Value::Bool(false)), "{resp:?}");
        assert_eq!(as_u64(resp.get("rows_migrated")), 0);
        assert_eq!(as_u64(resp.get("session")), sid, "serve-level id reported");
        let Some(Value::Arr(rows)) = resp.get("shard_rows") else {
            panic!("no shard_rows in {resp:?}");
        };
        assert_eq!(rows.len(), 4);

        // Session info surfaces the live partition; /stats carries the
        // epoch counters and the backlog ledger.
        let (status, info) = request(addr, "GET", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200);
        assert!(info.get("shard_rows").is_some(), "{info:?}");
        let (_, stats) = request(addr, "GET", "/stats", "");
        let Some(Value::Arr(pools)) = stats.get("pools") else {
            panic!("no pools in {stats:?}");
        };
        let ps = pools.first().unwrap().get("stats").unwrap();
        assert_eq!(as_u64(ps.get("replans")), 0, "{stats:?}");
        assert!(ps.get("est_backlog").is_some(), "{stats:?}");

        // An explicit opt-out escapes any server-wide auto-rebalance
        // default (and bad spellings are rejected).
        let opt_out = api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("shards", Value::Int(2)),
            ("auto_rebalance", Value::Int(0)),
            (
                "maps",
                Value::Arr(vec![api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", x.to_value()),
                ])]),
            ),
        ]);
        let (status, opened_frozen) = request(
            addr,
            "POST",
            "/sessions",
            &serde_json::to_string(&opt_out).unwrap(),
        );
        assert_eq!(status, 200, "{opened_frozen:?}");
        let frozen_sid = as_u64(opened_frozen.get("session"));
        let (status, _) = request(addr, "DELETE", &format!("/sessions/{frozen_sid}"), "");
        assert_eq!(status, 200);
        let bad_auto = serde_json::to_string(&api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("shards", Value::Int(2)),
            ("auto_rebalance", Value::Str("sometimes".into())),
            (
                "maps",
                Value::Arr(vec![api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", x.to_value()),
                ])]),
            ),
        ]))
        .unwrap();
        let (status, _) = request(addr, "POST", "/sessions", &bad_auto);
        assert_eq!(status, 400);
        // Enabling auto-rebalance without asking for shards would be
        // silently dead: rejected up front.
        let unsharded_auto = serde_json::to_string(&api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("auto_rebalance", Value::Int(4)),
            (
                "maps",
                Value::Arr(vec![api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", x.to_value()),
                ])]),
            ),
        ]))
        .unwrap();
        let (status, resp) = request(addr, "POST", "/sessions", &unsharded_auto);
        assert_eq!(status, 400, "{resp:?}");

        // A bad threshold is rejected; a session opened without `shards` is
        // a one-shard session, so re-planning and halo refreshes answer the
        // ordinary no-op reports (nothing to move, no seams).
        let (status, _) = request(
            addr,
            "POST",
            &format!("/sessions/{sid}/rebalance"),
            "{\"threshold\": 0.5}",
        );
        assert_eq!(status, 400);
        let plain = api::obj(vec![
            ("key", Value::Str(key.clone())),
            (
                "maps",
                Value::Arr(vec![api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("to".into())),
                    ("data", x.to_value()),
                ])]),
            ),
        ]);
        let (_, opened_plain) = request(
            addr,
            "POST",
            "/sessions",
            &serde_json::to_string(&plain).unwrap(),
        );
        let plain_sid = as_u64(opened_plain.get("session"));
        let (status, resp) = request(
            addr,
            "POST",
            &format!("/sessions/{plain_sid}/rebalance"),
            "",
        );
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(as_u64(resp.get("session")), plain_sid);
        assert_eq!(resp.get("replanned"), Some(&Value::Bool(false)));
        assert_eq!(as_u64(resp.get("rows_migrated")), 0);
        let (status, resp) = request(addr, "POST", &format!("/sessions/{plain_sid}/refresh"), "");
        assert_eq!(status, 200, "{resp:?}");
        assert_eq!(as_u64(resp.get("session")), plain_sid);
        assert_eq!(resp.get("refreshed"), Some(&Value::Bool(false)));
        assert_eq!(as_u64(resp.get("halo_rows")), 0);

        let (status, _) = request(addr, "DELETE", &format!("/sessions/{sid}"), "");
        assert_eq!(status, 200);
        let (status, _) = request(addr, "DELETE", &format!("/sessions/{plain_sid}"), "");
        assert_eq!(status, 200);
        shutdown(addr, handle);
    }

    #[test]
    fn keep_alive_reuses_one_connection_for_a_burst() {
        let (addr, handle) = start_server(1, 2);
        let mut conn = crate::client::Conn::open(addr).expect("connect");
        for _ in 0..5 {
            let (status, resp) = conn
                .request("GET", "/healthz", "")
                .expect("keep-alive request");
            assert_eq!(status, 200, "{resp:?}");
        }
        let (status, stats) = conn.request("GET", "/stats", "").expect("stats");
        assert_eq!(status, 200);
        let http = stats.get("http").expect("http stats");
        assert_eq!(as_u64(http.get("requests")), 6, "{stats:?}");
        assert_eq!(
            as_u64(http.get("connections")),
            1,
            "one connection served all requests"
        );
        drop(conn);
        shutdown(addr, handle);
    }

    #[test]
    fn metrics_and_trace_endpoints_expose_observability() {
        let (addr, handle) = start_server(2, 2);
        let (status, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);

        // /metrics is a Prometheus text exposition carrying the HTTP
        // counters and the request-latency histogram series.
        let (status, text) = crate::client::request_text(addr, "GET", "/metrics", "").expect("get");
        assert_eq!(status, 200);
        assert!(
            text.contains("# TYPE ftn_http_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("ftn_http_request_seconds_count"), "{text}");
        assert!(text.contains("ftn_uptime_seconds"), "{text}");
        for line in text.lines() {
            // `series value` pairs, optionally with an OpenMetrics exemplar
            // suffix: `... # {trace_id="..",span_id=".."} value timestamp`.
            let (series, exemplar) = match line.split_once(" # ") {
                Some((s, e)) => (s, Some(e)),
                None => (line, None),
            };
            assert!(
                line.starts_with('#') || series.split_whitespace().count() == 2,
                "malformed exposition line: {line}"
            );
            if let Some(ex) = exemplar {
                assert!(
                    ex.starts_with("{trace_id=") && ex.split_whitespace().count() == 3,
                    "malformed exemplar: {line}"
                );
            }
        }

        // /trace serves a Chrome trace-event document (valid JSON with a
        // traceEvents array); bad or inverted windows are rejected.
        let (status, body) = crate::client::request_text(addr, "GET", "/trace", "").expect("get");
        assert_eq!(status, 200);
        let doc = serde_json::value_from_str(&body).expect("valid JSON");
        assert!(
            matches!(doc.get("traceEvents"), Some(Value::Arr(_))),
            "{body}"
        );
        let (status, _) =
            crate::client::request_text(addr, "GET", "/trace?since=bogus", "").expect("get");
        assert_eq!(status, 400);
        let (status, _) =
            crate::client::request_text(addr, "GET", "/trace?until=bogus", "").expect("get");
        assert_eq!(status, 400);
        let (status, _) =
            crate::client::request_text(addr, "GET", "/trace?since=5&until=2", "").expect("get");
        assert_eq!(status, 400);
        let (status, body) =
            crate::client::request_text(addr, "GET", "/trace?since=0&until=1", "").expect("get");
        assert_eq!(status, 200, "{body}");

        // /metrics/range serves scraped history once the background scraper
        // (100 ms default cadence) has completed a pass; unknown series are
        // 404, inverted windows 400.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let series = loop {
            let (status, body) = crate::client::request_text(
                addr,
                "GET",
                "/metrics/range?name=ftn_http_requests_total",
                "",
            )
            .expect("get");
            if status == 200 {
                break serde_json::value_from_str(&body).expect("valid JSON");
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scraper never populated the store"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let Some(Value::Arr(points)) = series.get("points") else {
            panic!("no points array in {series:?}");
        };
        assert!(!points.is_empty());
        assert!(as_u64(points[0].get("nanos")) > 0, "{series:?}");
        let _counter_value = as_u64(points[0].get("value"));
        let (status, _) =
            crate::client::request_text(addr, "GET", "/metrics/range?name=nonexistent", "")
                .expect("get");
        assert_eq!(status, 404);
        let (status, _) = crate::client::request_text(
            addr,
            "GET",
            "/metrics/range?name=ftn_http_requests_total&since=5&until=2",
            "",
        )
        .expect("get");
        assert_eq!(status, 400);
        // Bare /metrics/range is the discovery index: every retained series
        // with its kind, point count and covered window.
        let (status, index) = request(addr, "GET", "/metrics/range", "");
        assert_eq!(status, 200, "bare range is the series index");
        let Some(Value::Arr(listed)) = index.get("series") else {
            panic!("no series array in {index:?}");
        };
        let requests_row = listed
            .iter()
            .find(|s| api::get_opt_str(s, "name") == Some("ftn_http_requests_total"))
            .expect("index lists the scraped request counter");
        assert_eq!(api::get_opt_str(requests_row, "kind"), Some("counter"));
        assert!(as_u64(requests_row.get("points")) >= 1);
        assert!(as_u64(requests_row.get("last_nanos")) >= as_u64(requests_row.get("first_nanos")));

        // /alerts lists the default SLOs, all quiet on a healthy server.
        let (status, alerts) = request(addr, "GET", "/alerts", "");
        assert_eq!(status, 200);
        let Some(Value::Arr(list)) = alerts.get("alerts") else {
            panic!("no alerts array in {alerts:?}");
        };
        assert_eq!(list.len(), 2, "{alerts:?}");
        for alert in list {
            assert!(
                matches!(alert.get("state"), Some(Value::Str(s)) if s == "ok"),
                "{alert:?}"
            );
        }

        // /healthz reports the readiness shape with the legacy `ok` field.
        let (status, health) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert_eq!(health.get("ok"), Some(&Value::Bool(true)));
        assert!(
            matches!(health.get("status"), Some(Value::Str(s)) if s == "ok"),
            "{health:?}"
        );

        // /stats keeps its shape and now reports uptime + queue depths.
        let (_, stats) = request(addr, "GET", "/stats", "");
        assert!(
            matches!(stats.get("uptime_seconds"), Some(Value::Float(f)) if *f >= 0.0),
            "{stats:?}"
        );
        shutdown(addr, handle);
    }

    #[test]
    fn failed_requests_do_not_leak_pool_memory() {
        let (addr, handle) = start_server(2, 2);
        let key = compile_key(addr);
        let data: Vec<f32> = vec![1.0; 64];

        // /run whose later argument is invalid: the first array was already
        // allocated and must be released on the 400 path.
        let bad_run = serde_json::to_string(&api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("func", Value::Str("saxpy".into())),
            (
                "args",
                Value::Arr(vec![
                    api::obj(vec![("array_f32", data.to_value())]),
                    api::obj(vec![("array", Value::Str("x".into()))]),
                ]),
            ),
        ]))
        .unwrap();
        // /sessions whose second map is invalid, and one whose kind/partition
        // combination the cluster rejects (replicated must be map(to:)).
        let bad_open = serde_json::to_string(&api::obj(vec![
            ("key", Value::Str(key.clone())),
            (
                "maps",
                Value::Arr(vec![
                    api::obj(vec![
                        ("name", Value::Str("x".into())),
                        ("kind", Value::Str("to".into())),
                        ("data", data.to_value()),
                    ]),
                    api::obj(vec![
                        ("name", Value::Str("y".into())),
                        ("kind", Value::Str("tofrom".into())),
                        ("partition", Value::Str("bogus".into())),
                        ("data", data.to_value()),
                    ]),
                ]),
            ),
        ]))
        .unwrap();
        let bad_combo = serde_json::to_string(&api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("shards", Value::Int(2)),
            (
                "maps",
                Value::Arr(vec![api::obj(vec![
                    ("name", Value::Str("x".into())),
                    ("kind", Value::Str("tofrom".into())),
                    ("partition", Value::Str("replicated".into())),
                    ("data", data.to_value()),
                ])]),
            ),
        ]))
        .unwrap();
        for body in [&bad_run, &bad_open, &bad_combo] {
            let path = if body == &bad_run {
                "/run"
            } else {
                "/sessions"
            };
            let (status, resp) = request(addr, "POST", path, body);
            assert_eq!(status, 400, "{resp:?}");
        }

        let (_, stats) = request(addr, "GET", "/stats", "");
        let Some(Value::Arr(pools)) = stats.get("pools") else {
            panic!("no pools in {stats:?}");
        };
        let ps = pools
            .first()
            .expect("one pool")
            .get("stats")
            .expect("stats");
        assert_eq!(
            as_u64(ps.get("host_buffers")),
            0,
            "failed requests must release everything they allocated: {stats:?}"
        );
        shutdown(addr, handle);
    }

    #[test]
    fn sustained_run_traffic_keeps_pool_memory_flat() {
        let (addr, handle) = start_server(1, 2);
        let key = compile_key(addr);
        let n = 64usize;
        let x = vec![1.0f32; n];
        let y = vec![0.5f32; n];
        let run_body = serde_json::to_string(&api::obj(vec![
            ("key", Value::Str(key.clone())),
            ("func", Value::Str("saxpy".into())),
            (
                "args",
                Value::Arr(vec![
                    api::obj(vec![("i32", Value::Int(n as i64))]),
                    api::obj(vec![("f32", Value::Float(2.0))]),
                    api::obj(vec![("array_f32", x.to_value())]),
                    api::obj(vec![("array_f32", y.to_value())]),
                ]),
            ),
        ]))
        .unwrap();

        let host_buffers = |addr| {
            let (_, stats) = request(addr, "GET", "/stats", "");
            let Some(Value::Arr(pools)) = stats.get("pools") else {
                panic!("no pools in {stats:?}");
            };
            let pool = pools.first().expect("one pool");
            let ps = pool.get("stats").expect("pool stats");
            (as_u64(ps.get("host_buffers")), as_u64(ps.get("host_bytes")))
        };

        let mut conn = crate::client::Conn::open(addr).expect("connect");
        for _ in 0..5 {
            let (status, _) = conn.request("POST", "/run", &run_body).expect("run");
            assert_eq!(status, 200);
        }
        let settled = host_buffers(addr);
        assert_eq!(settled.0, 0, "request arrays are freed after /run");
        for _ in 0..20 {
            let (status, _) = conn.request("POST", "/run", &run_body).expect("run");
            assert_eq!(status, 200);
        }
        let after = host_buffers(addr);
        assert_eq!(
            settled, after,
            "pool host memory must stay flat under sustained /run traffic"
        );
        drop(conn);
        shutdown(addr, handle);
    }
}

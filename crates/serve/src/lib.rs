//! `ftn-serve` — the compile-and-run service: a multi-threaded, std-only
//! HTTP/1.1 JSON front for the FPGA cluster, keeping compiled artifacts and
//! device-resident data alive across requests the way a long-lived OpenMP
//! offload daemon would.
//!
//! | Method & path               | Body                                   | Effect |
//! |-----------------------------|----------------------------------------|--------|
//! | `POST /compile`             | `{source, fix_mac_pattern?, devices?}` | Compile via the content-addressed [`ArtifactCache`]; returns the key, whether it was a cache hit, each kernel's launch signature, and the device models the key's pool will use. `devices` (a list of model names such as `["u280","u250","u55c"]`, `@MHZ` clock overrides allowed) fixes a heterogeneous pool composition for this key. |
//! | `POST /sessions`            | `{key, maps: [{name, kind, data, partition?, halo?}], shards?}` | Open a persistent `target data` session. `shards` defaults to 1 (arrays map onto the least-loaded pool device); with `shards: N` (or `"auto"`) each array is partitioned across N devices (`partition`: `split` (default, with optional `halo` rows) \| `replicated` \| `sum`/`min`/`max`). Replies with the session id, its devices and its map count. |
//! | `POST /sessions/{id}/launch`| `{kernel, args: [{array\|extent\|extent_offset\|f32\|...}], refresh_halos?}` | Run one kernel-level job against the session's resident buffers (no per-launch transfers). The launch fans out per shard, with `{extent: name}` rebased to each shard's local length (the full length on a one-shard session) and `{extent_offset: {array, offset}}` rebasing stencil bounds like `n - 1`. `refresh_halos: true` exchanges split-array ghost rows after the launch lands (see `/refresh`): the reply waits for the gather only, and the rows are queued ahead of the session's next job on each device. |
//! | `POST /sessions/{id}/refresh` |                                      | Inter-launch halo exchange: every split array's ghost rows are re-seeded from their current owner rows — boundary blocks only, device-to-device over the row-block fetch/splice path, never a full gather/re-scatter. Cross-device rows are fetched before the reply; every ghost block is then queued ahead of the session's next job on its device (a launch, a refresh or the close), which writes it before anything else. The iterative-stencil primitive (`jacobi`/`heat` between sweeps). |
//! | `GET /sessions/{id}`        |                                        | The open session as `ClusterMachine::session_info` reads it: its devices, the owned rows per shard of its largest split array (`shard_rows`), and its stats so far. |
//! | `DELETE /sessions/{id}`     |                                        | Close the session: gather (or reduce) `from`/`tofrom` arrays back and return them with the session stats; all session memory is released. |
//! | `POST /run`                 | `{key, func, args}`                    | Sessionless whole-program run (the baseline the elision ratio is measured against): placed least-loaded on the key's pool and run on the request's own thread, its arrays in request-local memory, freed with the response. Replies `{device, stats, arrays}`: one `arrays` entry per array argument, in order — the array as the run left it, or `null` if the run never wrote it (the client sent those bytes). |
//! | `GET /stats`                |                                        | Compile-cache, pool, session, and HTTP statistics. |
//! | `GET /healthz`              |                                        | Readiness probe: 503 `"unready"` with reasons on a dead device worker or saturated queue, `{"ok":true,"status":"ok",...}` otherwise. |
//! | `GET /metrics`              |                                        | Prometheus text exposition (version 0.0.4: every sample line is `series value`) of every counter, gauge and histogram. History, range queries and alerting belong to the Prometheus server that scrapes it. |
//! | `GET /trace`                | `?since=N&until=N`                     | The recorded span timeline as a Chrome trace-event document. |
//! | `GET /profile`              | `?since=N&until=N&format=folded\|svg\|json` | Span-derived hierarchical profile: self/total time per span-name path. `folded` is collapsed-stack text for flamegraph tooling, `svg` a self-contained flamegraph, `json` (default) the tree plus busy/idle utilization per device, keyed by pool and device index. `?last=N` is the trailing-window shorthand continuous pollers should use (also accepted by `/trace`). |
//! | `GET /profile/top`          | `?by=kernel\|session\|device&k=N`      | Top-K cost attribution over completed jobs: simulated cycles, wall seconds, queue wait, and bytes moved, merged across pools (`ftn top` renders this). `by=session` rows are keyed by the ids `POST /sessions` returned, open or closed. |
//! | `POST /shutdown`            |                                        | Drain and stop the server. |
//!
//! An `f32` number in a body is read as the `f32` its text spells, and an
//! `f32` array in a reply prints each element as the shortest decimal that
//! reads back as it, whether the client parses to `f32` or to `f64` first.
//!
//! One [`ftn_cluster::ClusterMachine`] pool is kept per compiled program
//! (all its sessions share its devices), built lazily with the configured
//! device composition — homogeneous U280s by default, or a mixed-model pool
//! from `ftn serve --devices u280,u280,u250` / a `/compile` `devices`
//! override — and numbers its sessions from the server's one id source, so
//! a session id names one session across every pool. Sharded sessions on a
//! heterogeneous pool get throughput-weighted shard plans automatically (see
//! `ftn_cluster::sharded`). Connections are HTTP/1.1 keep-alive (idle ones
//! are reaped after [`ServeConfig::idle_timeout_secs`]).
//!
//! This file is the configuration, the router and the accept loop; the state
//! is two tables — `programs.rs`, `sessions.rs` — read by `telemetry.rs`.

pub mod api;
pub mod client;
mod conn;
pub mod http;
mod programs;
mod sessions;
mod telemetry;
pub mod top;

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use ftn_cluster::ArtifactCache;
use ftn_fpga::DeviceModel;
use ftn_trace::Level;
use serde::Value;

use conn::{handle_connection, HandlerError, Reply};
use http::Request;
use programs::Program;
use sessions::OwnedArrays;
use telemetry::ServeMetrics;

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
    /// Span-recorder ring capacity per lane (`ftn serve --trace-buffer N`).
    /// `0` disables span recording entirely (the zero-cost path); `GET
    /// /trace` then serves an empty timeline. The recorder is
    /// process-global, so the most recent `Server::bind` wins.
    pub trace_buffer: usize,
    /// Maximum structured-log level (`ftn serve --log-level debug`). Like
    /// the span recorder, the log level is process-global.
    pub log_level: Level,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 4,
            device_models: None,
            workers: 4,
            cache_dir: None,
            idle_timeout_secs: 5,
            trace_buffer: 4096,
            log_level: Level::Info,
        }
    }
}

/// What the workers share. Two tables, one entry per noun; each table's file
/// states how its lock may be held (order: docs/ARCHITECTURE.md, "Lock
/// hierarchy").
struct ServeState {
    config: ServeConfig,
    cache: ArtifactCache,
    /// key → compiled program, its pool and health (`programs.rs`).
    programs: Mutex<HashMap<String, Arc<Program>>>,
    /// session id → the arrays the session mapped, which know its pool
    /// (`sessions.rs`).
    sessions: Mutex<HashMap<u64, OwnedArrays>>,
    /// The one source of session ids, shared by every pool the server
    /// builds: a session's id is the same in every reply, span and row.
    session_ids: Arc<AtomicU64>,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    started: std::time::Instant,
    local_addr: SocketAddr,
}

/// Poison-tolerant lock: a panic in one handler must not brick every later
/// request with poisoned-mutex panics — the cluster/session invariants are
/// job-scoped, so continuing with the inner value is safe.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn bad_request(msg: impl ToString) -> HandlerError {
    (400, msg.to_string())
}

/// Read a request body with `parse`, under an `http.decode` span; a body it
/// refuses is a 400.
fn decode<T>(parse: fn(&str) -> Result<T, String>, body: &str) -> Result<T, HandlerError> {
    let _span = ftn_trace::span("http.decode", "http");
    parse(body).map_err(bad_request)
}

fn not_found(msg: impl ToString) -> HandlerError {
    (404, msg.to_string())
}

fn failed(msg: impl ToString) -> HandlerError {
    (500, msg.to_string())
}

impl ServeState {
    fn handle(&self, req: &Request) -> Result<Reply, HandlerError> {
        let (segments, len) = req.segments();
        let json = match (req.method.as_str(), &segments[..len]) {
            ("GET", ["metrics"]) => return self.render_metrics(),
            ("GET", ["trace"]) => return self.render_trace(req),
            ("GET", ["profile"]) => return self.profile(req),
            ("GET", ["healthz"]) => return self.healthz(),
            ("DELETE", ["sessions", id]) => return self.close_session(parse_id(id)?),
            ("POST", ["run"]) => return self.run_program(&req.body),
            ("GET", ["profile", "top"]) => self.profile_top(req),
            ("POST", ["compile"]) => self.compile(&req.body),
            ("POST", ["sessions"]) => self.open_session(&req.body),
            ("POST", ["sessions", id, "launch"]) => self.launch(parse_id(id)?, &req.body),
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
}

fn parse_id(s: &str) -> Result<u64, HandlerError> {
    s.parse()
        .map_err(|_| bad_request(format!("bad session id '{s}'")))
}

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
        }
        ftn_trace::set_enabled(config.trace_buffer > 0);
        ftn_trace::set_max_level(config.log_level);
        let state = Arc::new(ServeState {
            config,
            cache,
            programs: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            session_ids: Arc::new(AtomicU64::new(1)),
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
            started: std::time::Instant::now(),
            local_addr,
        });
        let listening = format!("listening on http://{local_addr}");
        ftn_trace::log(Level::Info, "serve", listening);
        Ok(Server { listener, state })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serve requests until a `POST /shutdown` arrives; joins all worker
    /// threads before returning, so a clean return means a clean shutdown.
    pub fn run(self) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.state.config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("ftn-serve-{i}"))
                    .spawn(move || loop {
                        let Ok(stream) = lock(&rx).recv() else {
                            break;
                        };
                        handle_connection(&state, stream);
                        // After /shutdown is processed, wake the acceptor
                        // so it can observe the flag.
                        if state.shutdown.load(Ordering::SeqCst) {
                            let _ = TcpStream::connect(state.local_addr);
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();

        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if conn.is_ok_and(|stream| tx.send(stream).is_err()) {
                break;
            }
        }
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

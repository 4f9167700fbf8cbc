//! Sessions: one table, `id → OwnedArrays`, whose entries hold the arrays a
//! session mapped and, through them, its pool — plus `/run`, which places
//! one host call on a pool and runs it on the request's own thread.
//!
//! Invariants every change here must keep:
//!
//! * **One id per session.** The pool draws it from the server's one source
//!   (`ServeState::session_ids`, handed to every pool at build), so the id
//!   a client is given is the pool's: replies, spans and `/profile/top`
//!   rows all carry it, and nothing translates.
//! * **One serve-level lock per session request.** Launch, info, refresh
//!   and close resolve through [`ServeState::session`]: the table
//!   lock for one look-up, an `Arc` clone out, then the pool's own locks.
//!   They never touch the program table, so no compile or pool build of
//!   any program can stall them. Only open and `/run` go through
//!   `ServeState::pool_for`.
//! * **The table's lock is never held across a pool call or a wait.**
//! * **No machine guard is held across device traffic or a host program.**
//!   Open, refresh and close are the gate's phased operations; launches
//!   submit under the lock and wait through `PoolGate::wait_many`; `/run`
//!   is `PoolGate::run`, which holds the lock only to place and land.
//! * **Session state is touched outside phased exchanges only**: every
//!   machine access that names a session takes [`PoolGate::lock_session`]
//!   (a launch in the middle of a refresh or a close would race its rows).
//! * **A request's arrays are owned.** What an open allocates in a pool
//!   sits in an [`OwnedArrays`], which frees it when dropped — on every
//!   exit, the error ones included. A session's entry owns its arrays the
//!   same way, so removing the entry is what releases them. `/run`'s arrays
//!   never enter the pool: they live in a request-local `Memory`.
//! * **A reply returns what the program wrote, nothing the client holds.**
//!   A close returns its `from`/`tofrom` arrays; `/run` returns, in its
//!   argument order, each array the run wrote (`Memory::written`: a host
//!   store or a copy back that moved bytes, identical bytes included) and
//!   `null` for each it never wrote, whose bytes are still the request's.
//!   The rule reads only the program's stores, never timing.

use std::sync::Arc;

use ftn_cluster::{ClusterMachine, MapKind, Partition, PoolGate, ShardArg, ShardCount};
use ftn_core::CompileError;
use ftn_interp::{Buffer, MemRefVal, Memory, RtValue};
use serde::{Serialize, Value};

use crate::api::{self, ArgSpec};
use crate::conn::{HandlerError, Reply};
use crate::{bad_request, decode, failed, lock, not_found, ServeState};

/// Host arrays allocated in `pool` on behalf of one session (or an open that
/// failed), freed when this drops. Dropping takes the pool's machine lock:
/// declare it before any guard of that lock, so the guard goes first.
pub(crate) struct OwnedArrays {
    pool: Arc<PoolGate>,
    handles: Vec<RtValue>,
}

impl OwnedArrays {
    fn new(pool: Arc<PoolGate>) -> OwnedArrays {
        let handles = Vec::new();
        OwnedArrays { pool, handles }
    }

    /// Take ownership of a freshly allocated array; hands it back for use.
    fn own(&mut self, array: RtValue) -> RtValue {
        self.handles.push(array.clone());
        array
    }
}

impl Drop for OwnedArrays {
    fn drop(&mut self) {
        let mut machine = self.pool.lock();
        for h in &self.handles {
            let _ = machine.free_host(h);
        }
    }
}

impl ServeState {
    pub(crate) fn open_session(&self, body: &str) -> Result<Value, HandlerError> {
        let api::Body { fields: v, arrays } = decode(api::open_body, body)?;
        let mut lifted = arrays.into_iter();
        let key = api::get_str(&v, "key").map_err(bad_request)?;
        let maps = api::get_arr(&v, "maps").map_err(bad_request)?;
        if maps.is_empty() {
            return Err(bad_request("'maps' must name at least one array"));
        }
        // `shards` may be an integer, "auto", or absent (one shard).
        let bad_shards = || bad_request("'shards' must be a positive integer or \"auto\"");
        let shards = match v.get("shards") {
            Some(Value::Str(s)) => ShardCount::parse(s).ok_or_else(bad_shards)?,
            Some(n) => ShardCount::Fixed(positive(n).ok_or_else(bad_shards)? as usize),
            None => ShardCount::Fixed(1),
        };

        let pool = self.pool_for(key)?;
        // Parse and validate every map before allocating anything.
        let mut parsed: Vec<(&str, Vec<f32>, MapKind, Partition)> = Vec::with_capacity(maps.len());
        for m in maps {
            let name = api::get_str(m, "name").map_err(bad_request)?;
            let kind = MapKind::parse(api::get_str(m, "kind").map_err(bad_request)?)
                .ok_or_else(|| bad_request("map 'kind' must be to | from | tofrom"))?;
            let halo = match m.get("halo") {
                Some(Value::Int(i)) if *i >= 0 => *i as usize,
                Some(Value::UInt(u)) => *u as usize,
                // `-0`, which the parser reads as a float to keep its sign.
                Some(Value::Float(f)) if *f == 0.0 && f.is_sign_negative() => 0,
                None => 0,
                Some(_) => return Err(bad_request("map 'halo' must be a non-negative integer")),
            };
            let partition = match api::get_opt_str(m, "partition") {
                Some(p) => Partition::parse(p, halo).ok_or_else(|| {
                    bad_request("map 'partition' must be split | replicated | sum | min | max")
                })?,
                None => Partition::Split { halo },
            };
            let data = api::map_data(m, lifted.next().flatten()).map_err(bad_request)?;
            parsed.push((name, data, kind, partition));
        }

        // A failed open (duplicate names, invalid kind/partition combos)
        // drops `arrays`, releasing what it will never map.
        let mut arrays = OwnedArrays::new(Arc::clone(&pool));
        let maps: Vec<(&str, RtValue, MapKind, Partition)> = {
            let mut machine = pool.lock();
            let own = |(name, data, kind, partition)| {
                let array = machine.host_array(Buffer::F32(data));
                (name, arrays.own(array), kind, partition)
            };
            parsed.into_iter().map(own).collect()
        };
        let session = pool.open_phased(&maps, shards).map_err(bad_request)?;
        let info = pool.lock().session_info(session);
        let devices = info.map(|info| info.devices).unwrap_or_default();
        let mapped = maps.len();
        lock(&self.sessions).insert(session, arrays);
        let mut fields = session_reply(session, &devices);
        fields.push(("mapped", mapped.to_value()));
        Ok(api::obj(fields))
    }

    /// The pool one open session lives in.
    fn session(&self, session: u64) -> Result<Arc<PoolGate>, HandlerError> {
        lock(&self.sessions)
            .get(&session)
            .map(|arrays| Arc::clone(&arrays.pool))
            .ok_or_else(|| gone(session))
    }

    /// Launch: fan out per shard, wait all shard jobs, and report the
    /// aggregate (total cycles, per-launch makespan = slowest shard).
    pub(crate) fn launch(&self, session: u64, body: &str) -> Result<Value, HandlerError> {
        let v = decode(api::parse_body, body)?;
        let kernel = api::get_str(&v, "kernel").map_err(bad_request)?;
        let arg_values = api::get_arr(&v, "args").map_err(bad_request)?;
        let refresh_halos = match v.get("refresh_halos") {
            Some(Value::Bool(b)) => *b,
            None => false,
            Some(_) => return Err(bad_request("'refresh_halos' must be a boolean")),
        };
        let gate = self.session(session)?;
        let mut args = Vec::with_capacity(arg_values.len());
        for a in arg_values {
            let ArgSpec::Shard(arg) = api::parse_arg(a, None).map_err(bad_request)? else {
                return Err(bad_request(
                    "inline arrays are not allowed in session launches; map them at open",
                ));
            };
            args.push(arg);
        }
        let ticket = gate
            .lock_session(session)
            .sharded_launch(session, kernel, &args);
        let ticket = ticket.map_err(pool_error(session, 400))?;
        let (elided, devices) = (ticket.elided, ticket.devices);
        let reports = (gate.wait_many(ticket.handles)).map_err(failed)?;
        self.metrics.launches.inc();
        // Per-launch ghost-row exchange, *after* the shard jobs land; phased
        // like a manual `POST /sessions/{id}/refresh`.
        let halo = refresh_halos
            .then(|| gate.refresh_phased(session))
            .transpose();
        let halo = halo.map_err(pool_error(session, 500))?;
        let stats = || reports.iter().map(|r| &r.report.stats);
        let cycles: u64 = stats().map(|s| s.total_cycles).sum();
        let kernel_seconds: f64 = stats().map(|s| s.kernel_seconds).sum();
        let makespan = stats()
            .map(|s| s.kernel_wall_seconds)
            .fold(0.0f64, f64::max);
        // `kernel_wall_seconds` is the one-device spelling of
        // `kernel_wall_seconds_max` (equal on one shard).
        let mut fields = session_reply(session, &devices);
        fields.extend([
            ("cycles", cycles.to_value()),
            ("kernel_seconds", kernel_seconds.to_value()),
            ("kernel_wall_seconds", makespan.to_value()),
            ("kernel_wall_seconds_max", makespan.to_value()),
            // Nothing is staged per launch: a session's buffers are resident.
            ("staged", 0u64.to_value()),
            ("elided", elided.to_value()),
        ]);
        if let Some(h) = halo {
            fields.push(("halo_rows", h.halo_rows.to_value()));
            fields.push(("halo_bytes", h.halo_bytes.to_value()));
        }
        Ok(api::obj(fields))
    }

    /// Manual inter-launch halo refresh: every split array's ghost rows are
    /// re-seeded from their current owner rows, boundary blocks only.
    /// Replies with the cluster's [`ftn_cluster::HaloRefreshReport`].
    pub(crate) fn refresh(&self, session: u64) -> Result<Value, HandlerError> {
        let pool = self.session(session)?;
        let report = pool.refresh_phased(session);
        Ok(report.map_err(pool_error(session, 500))?.to_value())
    }

    pub(crate) fn session_info(&self, session: u64) -> Result<Value, HandlerError> {
        let pool = self.session(session)?;
        let info = pool.lock_session(session).session_info(session);
        let info = info.ok_or_else(|| gone(session))?;
        // The realized partition (owned rows per shard) of the largest
        // split array.
        let split = (info.maps.iter()).filter(|m| matches!(m.partition, Partition::Split { .. }));
        let largest = split.max_by_key(|m| m.array.as_memref().map_or(0, |a| a.num_elements()));
        let shard_rows = largest.map(|m| &m.shard_rows);
        let mut fields = session_reply(session, &info.devices);
        fields.push((
            "shard_rows",
            shard_rows.cloned().unwrap_or_default().to_value(),
        ));
        fields.push(("stats", info.stats.to_value()));
        Ok(api::obj(fields))
    }

    pub(crate) fn close_session(&self, session: u64) -> Result<Reply, HandlerError> {
        let pool = self.session(session)?;
        let info = pool.lock_session(session).session_info(session);
        let maps = info.ok_or_else(|| gone(session))?.maps;
        let report = pool
            .close_phased(session)
            .map_err(pool_error(session, 500))?;
        // `from`/`tofrom` arrays now hold the gathered device results; take
        // them out (they are printed once the pool is unlocked), then
        // release every array the session allocated by dropping its entry.
        let mut machine = pool.lock();
        let arrays: Vec<(&str, Buffer)> = maps
            .iter()
            .filter(|m| matches!(m.kind, MapKind::From | MapKind::ToFrom))
            .map(|m| (m.name.as_str(), take_array(&mut machine, &m.array)))
            .collect();
        drop(machine);
        let entry = lock(&self.sessions).remove(&session);
        drop(entry);
        let mut fields = session_reply(session, &report.devices);
        fields.push(("stats", report.stats.to_value()));
        Ok(Reply::object_with_tail(fields, "arrays", |out| {
            reserve_for(out, arrays.iter().map(|(_, buffer)| buffer));
            append_seq(out, ('{', '}'), &arrays, |out, (name, buffer)| {
                serde_json::append(out, *name);
                out.push_str(": ");
                append_buffer(out, buffer);
            })
        }))
    }

    pub(crate) fn run_program(&self, body: &str) -> Result<Reply, HandlerError> {
        let api::Body { fields: v, arrays } = decode(api::run_body, body)?;
        let key = api::get_str(&v, "key").map_err(bad_request)?;
        let func = api::get_str(&v, "func").map_err(bad_request)?;
        let arg_values = api::get_arr(&v, "args").map_err(bad_request)?;
        let pool = self.pool_for(key)?;
        // The request's arrays live in a memory of its own: no session can
        // map them, and they go with the request.
        let (mut memory, mut owned) = (Memory::new(), Vec::new());
        let mut array = |contents: Buffer| {
            let shape = vec![contents.len() as i64];
            let buffer = memory.alloc(contents, 0);
            owned.push(buffer);
            RtValue::MemRef(MemRefVal {
                buffer,
                shape,
                space: 0,
            })
        };
        let mut args = Vec::with_capacity(arg_values.len());
        let mut lifted = arrays.into_iter();
        for a in arg_values {
            args.push(
                match api::parse_arg(a, lifted.next().flatten()).map_err(bad_request)? {
                    ArgSpec::ArrayF32(data) => array(Buffer::F32(data)),
                    ArgSpec::ArrayI32(data) => array(Buffer::I32(data)),
                    ArgSpec::Shard(ShardArg::Scalar(x)) => x,
                    ArgSpec::Shard(_) => return Err(bad_request(
                        "named arrays/extents are session-only; pass array_f32/array_i32 to /run",
                    )),
                },
            );
        }
        let report = pool.run(func, &args, &mut memory).map_err(bad_request)?;
        self.metrics.runs.inc();
        // An array the run never wrote still holds the request's own bytes,
        // which the client sent: it comes back as `null`. The others are
        // printed straight from the request's memory.
        let arrays: Vec<Option<&Buffer>> = (owned.iter())
            .map(|&id| memory.written(id).then(|| memory.get(id)))
            .collect();
        let fields = vec![
            ("device", report.device.to_value()),
            ("stats", report.report.stats.to_value()),
        ];
        Ok(Reply::object_with_tail(fields, "arrays", |out| {
            reserve_for(out, arrays.iter().flatten().copied());
            append_seq(out, ('[', ']'), &arrays, |out, array| match array {
                Some(buffer) => append_buffer(out, buffer),
                None => out.push_str("null"),
            })
        }))
    }
}

/// A JSON integer above zero (a float is not an integer here).
fn positive(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) if *i > 0 => Some(*i as u64),
        Value::UInt(u) if *u > 0 => Some(*u),
        _ => None,
    }
}

/// The fields every session reply (open, launch, info, close) starts with:
/// the session's id and where it lives. `device` is the
/// one-device spelling of `devices[0]`.
fn session_reply(session: u64, devices: &[usize]) -> Vec<(&'static str, Value)> {
    vec![
        ("session", session.to_value()),
        ("device", devices.first().copied().unwrap_or(0).to_value()),
        ("shards", devices.len().to_value()),
        ("devices", devices.to_value()),
    ]
}

/// Take the contents of an array its session is about to free out of the pool.
fn take_array(machine: &mut ClusterMachine, array: &RtValue) -> Buffer {
    let m = array.as_memref().expect("request arrays are memrefs");
    std::mem::replace(machine.memory.get_mut(m.buffer), Buffer::F32(Vec::new()))
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

/// Make room for `buffers` as [`append_buffer`] prints them, so the reply
/// grows once instead of doubling its way up: an element prints as up to 17
/// significant digits (an `f32` needs at most 9), a sign, a point and a comma.
fn reserve_for<'a>(out: &mut String, buffers: impl Iterator<Item = &'a Buffer>) {
    out.reserve(20 * buffers.map(Buffer::len).sum::<usize>());
}

/// Append a buffer's elements as one JSON array, straight from the slice;
/// an `f32` as the shortest text that reads back as that `f32`, not as its
/// widened `f64`.
fn append_buffer(out: &mut String, buffer: &Buffer) {
    match buffer {
        Buffer::F32(data) => serde_json::append_f32_slice(out, data),
        Buffer::F64(data) => serde_json::append_slice(out, data),
        Buffer::I32(data) => serde_json::append_slice(out, data),
        Buffer::I64(data) => serde_json::append_slice(out, data),
        Buffer::I1(data) => serde_json::append_slice(out, data),
    }
}

/// 404 `no session {id}`: the session is not open here.
fn gone(session: u64) -> HandlerError {
    not_found(format!("no session {session}"))
}

/// A pool error on `session` as a reply: the pool's "no open session" — a
/// close won the race against this request — is [`gone`], like a session
/// that was never opened; any other error answers `status`.
fn pool_error(session: u64, status: u16) -> impl FnOnce(CompileError) -> HandlerError {
    move |e| {
        if e.message == format!("no open session {session}") {
            gone(session)
        } else {
            (status, e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use serde::{Serialize, Value};

    use crate::{api, client, lock, ServeConfig, Server};

    const SAXPY: &str = include_str!("../../../benchmarks/saxpy.f90");

    type Running = std::thread::JoinHandle<std::io::Result<()>>;

    /// A running two-device server: its address, state and accept thread.
    type Served = (std::net::SocketAddr, Arc<crate::ServeState>, Running);

    /// One SAXPY launch over a session's `x` and `y`.
    const LAUNCH: &str = r#"{"kernel": "saxpy_kernel0", "args": [
        {"array": "x"}, {"array": "y"}, {"extent": "x"}, {"extent": "y"},
        {"f32": 2.0}, {"index": 1}, {"extent": "x"}]"#;

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> Value {
        let (status, reply) = client::request(addr, "POST", path, body).expect("round trip");
        assert_eq!(status, 200, "{path}: {reply:?}");
        reply
    }

    fn serve() -> Served {
        let config = ServeConfig {
            devices: 2,
            workers: 2,
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        let state = Arc::clone(&server.state);
        let running = std::thread::spawn(move || server.run());
        (addr, state, running)
    }

    /// Compile SAXPY (one program per `fix_mac_pattern` setting) and open a
    /// four-element session in its pool; the session's id.
    fn open_saxpy(addr: std::net::SocketAddr, fix_mac_pattern: bool) -> u64 {
        let source = api::obj(vec![
            ("source", SAXPY.to_value()),
            ("fix_mac_pattern", fix_mac_pattern.to_value()),
        ]);
        let compiled = post(addr, "/compile", &serde_json::to_string(&source).unwrap());
        let key = api::get_str(&compiled, "key").expect("key");
        let open = format!(
            r#"{{"key": "{key}", "maps": [
                {{"name": "x", "kind": "to", "data": [1, 2, 3, 4]}},
                {{"name": "y", "kind": "tofrom", "data": [0, 0, 0, 0]}}]}}"#
        );
        let Some(Value::Int(sid)) = post(addr, "/sessions", &open).get("session").cloned() else {
            panic!("no session id");
        };
        sid as u64
    }

    /// [`serve`] with one SAXPY session open, and the session's id.
    fn serve_one_session() -> (std::net::SocketAddr, Arc<crate::ServeState>, Running, u64) {
        let (addr, state, running) = serve();
        let sid = open_saxpy(addr, false);
        (addr, state, running, sid)
    }

    /// `"halo": -0` opens with halo 0, as it did while the parser read `-0`
    /// as an integer; a negative or fractional halo is still refused.
    #[test]
    fn a_negative_zero_halo_is_halo_zero() {
        let (addr, _state, running) = serve();
        let source = api::obj(vec![("source", SAXPY.to_value())]);
        let compiled = post(addr, "/compile", &serde_json::to_string(&source).unwrap());
        let key = api::get_str(&compiled, "key").expect("key");
        for (halo, status) in [("-0", 200), ("0", 200), ("-1", 400), ("0.5", 400)] {
            let open = format!(
                r#"{{"key": "{key}", "maps": [
                    {{"name": "x", "kind": "to", "halo": {halo}, "data": [1, 2, 3, 4]}}]}}"#
            );
            let (got, reply) =
                client::request(addr, "POST", "/sessions", &open).expect("round trip");
            assert_eq!(got, status, "halo {halo}: {reply:?}");
        }
        post(addr, "/shutdown", "");
        running.join().expect("server thread").expect("clean run");
    }

    /// `/run` holds no machine lock while its program runs: while a long
    /// host call is placed (the pool's queue depths show it), another
    /// thread takes the pool's lock with `try_lock`. A run placed, executed
    /// and landed under one guard never lets that happen.
    #[test]
    fn a_run_does_not_hold_its_pools_lock_while_its_program_runs() {
        const PATIENCE: Duration = Duration::from_secs(20);
        let (addr, state, running) = serve();
        let source = api::obj(vec![("source", SAXPY.to_value())]);
        let compiled = post(addr, "/compile", &serde_json::to_string(&source).unwrap());
        let key = api::get_str(&compiled, "key").expect("key").to_string();
        let gate = state.pool_for(&key).expect("the pool builds");
        let n = 1usize << 18;
        let ones = vec!["1"; n].join(",");
        let body = format!(
            r#"{{"key": "{key}", "func": "saxpy", "args": [{{"i32": {n}}}, {{"f32": 2.0}},
                {{"array_f32": [{ones}]}}, {{"array_f32": [{ones}]}}]}}"#
        );
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (tx, done) = mpsc::channel();
        let client = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = client::Conn::open(addr).expect("connect");
                for _ in 0..20 {
                    if stop.load(std::sync::atomic::Ordering::SeqCst) {
                        break;
                    }
                    let (status, _) = conn.request("POST", "/run", &body).expect("run");
                    assert_eq!(status, 200);
                }
                tx.send(()).expect("test thread listens");
            })
        };
        let deadline = std::time::Instant::now() + PATIENCE;
        let mut seen = false;
        while !seen && done.try_recv().is_err() {
            assert!(std::time::Instant::now() < deadline, "the runs hang");
            let placed = gate
                .try_lock()
                .map(|m| m.queue_depths().iter().sum::<u64>());
            seen = placed.is_some_and(|depth| depth > 0);
            std::thread::yield_now();
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        client.join().expect("client thread");
        assert!(
            seen,
            "no run was ever seen placed with the pool's lock free"
        );
        post(addr, "/shutdown", "");
        running.join().expect("server thread").expect("clean run");
    }

    /// Launch, info, refresh and close resolve through the session table
    /// alone: they are answered while this thread holds the program table's
    /// lock, so no compile or pool build (which only ever wait on that lock
    /// or a program's own) can be in their way.
    #[test]
    fn session_requests_never_touch_the_program_table() {
        let (addr, state, running, sid) = serve_one_session();
        let programs = lock(&state.programs);
        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let launch = format!("{LAUNCH}}}");
            for (method, path, body) in [
                ("POST", format!("/sessions/{sid}/launch"), launch.as_str()),
                ("GET", format!("/sessions/{sid}"), ""),
                ("POST", format!("/sessions/{sid}/refresh"), ""),
                ("DELETE", format!("/sessions/{sid}"), ""),
            ] {
                let answer = client::request(addr, method, &path, body);
                tx.send((path, answer)).expect("test thread listens");
            }
        });
        for _ in 0..4 {
            // The timeout only bounds how long a regression hangs the suite.
            let (path, answer) = rx
                .recv_timeout(Duration::from_secs(20))
                .expect("a session request waits on the program table's lock");
            let (status, reply) = answer.expect("round trip");
            assert_eq!(status, 200, "{path}: {reply:?}");
        }
        drop(programs);
        client.join().expect("client thread");
        post(addr, "/shutdown", "");
        running.join().expect("server thread").expect("clean run");
    }

    /// Two `DELETE`s of one session are one close and one 404, whichever
    /// step the loser finds the session gone at: reading its maps (it waited
    /// out the winner's fence; nearly always) or closing it (it read them
    /// first) — told by the pool's error text, which is pinned here.
    #[test]
    fn a_delete_that_loses_to_another_is_a_404() {
        let (addr, state, running, sid) = serve_one_session();
        let pool = state.session(sid).expect("open");
        // Steering, not an assertion: both requests queue on the machine
        // lock, then race from their map reads on.
        let machine = pool.lock();
        let deletes: Vec<_> = (0..2)
            .map(|_| {
                let path = format!("/sessions/{sid}");
                std::thread::spawn(move || client::request(addr, "DELETE", &path, ""))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        drop(machine);
        let mut answers: Vec<(u16, Value)> = (deletes.into_iter())
            .map(|t| t.join().expect("client thread").expect("round trip"))
            .collect();
        answers.sort_by_key(|(status, _)| *status);
        assert_eq!(answers[0].0, 200, "{answers:?}");
        assert_eq!(answers[1].0, 404, "{answers:?}");
        let error = api::get_str(&answers[1].1, "error").expect("error text");
        assert_eq!(error, format!("no session {sid}"));
        let gone = pool.close_phased(sid).expect_err("closed above");
        assert_eq!(gone.message, format!("no open session {sid}"));
        post(addr, "/shutdown", "");
        running.join().expect("server thread").expect("clean run");
    }

    /// A launch, refresh, read or close that finds its session closed under
    /// it answers 404 with the id the client used, never the pool's error:
    /// the second program's first session is the server's session 2, and
    /// its pool knows it by that number too.
    #[test]
    fn a_request_that_loses_to_a_close_is_a_404_naming_its_session() {
        let (addr, state, running) = serve();
        let ids = (open_saxpy(addr, false), open_saxpy(addr, true));
        assert_eq!(ids, (1, 2));
        let pool = state.session(2).expect("open");
        pool.close_phased(2).expect("the pool closes session 2");
        let launch = format!("{LAUNCH}}}");
        let with_halos = format!(r#"{LAUNCH}, "refresh_halos": true}}"#);
        for (method, path, body) in [
            ("POST", "/sessions/2/launch", launch.as_str()),
            ("POST", "/sessions/2/launch", with_halos.as_str()),
            ("POST", "/sessions/2/refresh", ""),
            ("GET", "/sessions/2", ""),
            ("DELETE", "/sessions/2", ""),
        ] {
            let (status, reply) = client::request(addr, method, path, body).expect("round trip");
            assert_eq!(status, 404, "{method} {path}: {reply:?}");
            let error = api::get_str(&reply, "error").expect("error text");
            assert_eq!(error, "no session 2", "{method} {path}");
        }
        post(addr, "/sessions/1/launch", &launch);
        post(addr, "/shutdown", "");
        running.join().expect("server thread").expect("clean run");
    }
}

//! The five workloads. Each is a fixed script ("rep") driven closed-loop
//! against the real HTTP service or the real compiler, with every result
//! checked against an independent CPU reference on the spot and bit for bit
//! against `ftn_core::Machine` once the timed reps are over (so the
//! reference run cannot warm anything the set-up time should still pay
//! for). Names and sizes are fixed; later issues cite them.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

use crate::calib::{Paced, Pacer, Timed};
use crate::http::{self, arg, obj, str_value, Client};
use crate::inputs::{self, CorpusUnit, SgeslSystem};
use crate::ladder;
use crate::layers::{self, RtValue, ServerHandle, Value};
use crate::trace::Recorder;

pub const NAMES: [&str; 5] = [
    "saxpy_stream",
    "launch_storm",
    "sgesl_run",
    "jacobi_sharded",
    "compile_corpus",
];

/// Whether workload `name` runs with its whole process restricted to one
/// core. Only `launch_storm` does: its ops are a strictly serial ping-pong
/// of three threads (client, HTTP worker, device worker) around a
/// 16-element kernel, so a second core has nothing to run, yet on this
/// 2-vCPU VM it puts a freshly halted vCPU (tens of microseconds to over a
/// millisecond to wake, by the minute) into every hand-off: unpinned, the
/// rep's wall time spread 50 % between runs while the median launch stayed
/// within 5 %. The other workloads keep both cores: their kernels are long
/// enough that a future parallel change must be free to show.
pub fn runs_on_one_core(name: &str) -> bool {
    name == "launch_storm"
}

/// SAXPY's scalar (the value `ftn_bench`'s Table-1 runs use).
pub const SAXPY_A: f32 = 2.5;

/// Every size the workloads use. `FULL` is the benchmark; `CHECK` is the
/// same five scripts at a sixteenth of the work, for the `--check` smoke.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Sizes {
    pub saxpy_n: usize,
    pub saxpy_launches: usize,
    pub storm_n: usize,
    pub storm_launches: usize,
    pub sgesl_n: usize,
    pub sgesl_runs: usize,
    pub sgesl_systems: usize,
    pub jacobi_n: usize,
    pub jacobi_sweeps: usize,
    pub corpus_units: usize,
    pub corpus_subs: usize,
    pub corpus_repeats: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        saxpy_n: 131_072,
        saxpy_launches: 6,
        storm_n: 16,
        storm_launches: 6_000,
        sgesl_n: 192,
        sgesl_runs: 12,
        sgesl_systems: 3,
        jacobi_n: 65_536,
        jacobi_sweeps: 20,
        corpus_units: 8,
        corpus_subs: 64,
        corpus_repeats: 4,
    };

    pub const CHECK: Sizes = Sizes {
        saxpy_n: 8_192,
        saxpy_launches: 6,
        storm_n: 16,
        storm_launches: 375,
        sgesl_n: 48,
        sgesl_runs: 12,
        sgesl_systems: 3,
        jacobi_n: 4_096,
        jacobi_sweeps: 20,
        corpus_units: 2,
        corpus_subs: 16,
        corpus_repeats: 4,
    };
}

/// Simulated statistics and counts of one rep. Every entry must repeat
/// exactly from rep to rep (floats to within their summation error).
pub type Counters = BTreeMap<String, f64>;

/// What one rep measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall seconds of the fixed script: the sum of its operations
    /// (requests, or compiles), each timed on its own, as read off the clock
    /// and as scaled to the box's reference pace.
    pub wall: Timed,
    /// Mean seconds of the calibration runs between the script's
    /// operations: the box's pace during the rep.
    pub cal_s: f64,
    /// Client-observed latency of each primary op, seconds.
    pub ops: Vec<Timed>,
    pub attempted: u64,
    pub failed: u64,
    pub counters: Counters,
    /// Why ops failed, if any did.
    pub error: Option<String>,
}

/// A workload the harness can drive.
pub trait Workload {
    /// Everything `setup_s` covers, timed by the caller: bind the server
    /// (or start cold), compile, create the pool, run the warm-up script
    /// (the rep's script with a single primary op). The caller calls
    /// [`Workload::tear_down`] between set-ups, off the clock.
    fn set_up(&mut self) -> Result<(), String>;

    /// One rep of the fixed script. Failures are counted, not returned.
    fn rep(&mut self, rec: &mut Recorder) -> Rep;

    /// The deferred half of the oracle: compare what the reps returned bit
    /// for bit with `ftn_core::Machine` on the same inputs (and, for the
    /// corpus, run one kernel per template against its reference).
    fn final_check(&mut self) -> Result<(), String>;

    /// The workload's own per-layer metrics for the traced run: the ladder
    /// under its primary op, the `/profile` cross-checks, cost-model error.
    fn layer_metrics(&mut self, rec: &mut Recorder) -> Result<Counters, String>;

    fn tear_down(&mut self) -> Result<(), String>;
}

/// Generate `name`'s inputs from `seed` and compute its CPU references.
/// Nothing of the system under test runs here.
pub fn build(name: &str, seed: u64, sizes: Sizes) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "saxpy_stream" => Box::new(ServeWorkload::saxpy(
            seed,
            sizes.saxpy_n,
            sizes.saxpy_launches,
        )),
        "launch_storm" => Box::new(ServeWorkload::saxpy(
            seed,
            sizes.storm_n,
            sizes.storm_launches,
        )),
        "sgesl_run" => Box::new(ServeWorkload::sgesl(
            seed,
            sizes.sgesl_n,
            sizes.sgesl_runs,
            sizes.sgesl_systems,
        )),
        "jacobi_sharded" => Box::new(ServeWorkload::jacobi(
            seed,
            sizes.jacobi_n,
            sizes.jacobi_sweeps,
        )),
        "compile_corpus" => Box::new(CompileCorpus::new(seed, sizes)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

// ---- the four serve workloads ----------------------------------------------------

/// The inputs of a serve workload; also selects its script.
pub enum Inputs {
    /// `saxpy_stream` and `launch_storm`: x (`to`) and y (`tofrom`).
    Saxpy { x: Vec<f32>, y: Vec<f32> },
    /// `sgesl_run`: the systems the runs cycle through.
    Sgesl { systems: Vec<SgeslSystem> },
    /// `jacobi_sharded`: u and v (`tofrom`, split with a one-row halo).
    Jacobi { u: Vec<f32>, v: Vec<f32> },
}

/// One of the four workloads that drive `ftn-serve` over HTTP.
pub struct ServeWorkload {
    pub source: &'static str,
    pub inputs: Inputs,
    /// Primary ops per rep.
    pub count: usize,
    /// The request bodies, serialised once (the artifact key they carry is a
    /// content hash of the source, known before the server is).
    bodies: Bodies,
    /// Expected result arrays by the CPU reference: session workloads
    /// return them at close (one per `tofrom` map), `sgesl_run` returns one
    /// per run, cycling through these.
    cpu_ref: Vec<Vec<f32>>,
    /// Relative tolerance against `cpu_ref`.
    tol: f32,
    /// The first rep's results, kept for the bit-for-bit check.
    kept: Option<Vec<Vec<f32>>>,
    /// The server under test, between `set_up` and `tear_down`.
    server: Option<ServerHandle>,
}

/// `|got - want| <= tol * (1 + |want|)` element-wise (a NaN is never close).
fn close_to(got: &[f32], want: &[f32], tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} elements, expected {}", got.len(), want.len()));
    }
    let close = |g: f32, w: f32| (g - w).abs() <= tol * (1.0 + w.abs());
    match got.iter().zip(want).position(|(g, w)| !close(*g, *w)) {
        Some(i) => Err(format!("element {i}: {} vs reference {}", got[i], want[i])),
        None => Ok(()),
    }
}

fn bits_equal(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} elements, expected {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(i) => Err(format!("element {i}: {} vs Machine {}", got[i], want[i])),
        None => Ok(()),
    }
}

/// `POST /sessions` for the session workloads; `sgesl_run` has none.
fn open_body(inputs: &Inputs, key: &str) -> Option<String> {
    let key = str_value(key);
    let map = |name: &str, kind: &str, data: &[f32], halo: Option<i64>| {
        let mut fields = vec![
            ("name", str_value(name)),
            ("kind", str_value(kind)),
            ("data", data.to_value()),
        ];
        if let Some(h) = halo {
            fields.push(("halo", Value::Int(h)));
        }
        obj(fields)
    };
    let body = match inputs {
        Inputs::Saxpy { x, y } => obj(vec![
            ("key", key),
            (
                "maps",
                Value::Arr(vec![map("x", "to", x, None), map("y", "tofrom", y, None)]),
            ),
        ]),
        Inputs::Jacobi { u, v } => obj(vec![
            ("key", key),
            ("shards", Value::Int(2)),
            (
                "maps",
                Value::Arr(vec![
                    map("u", "tofrom", u, Some(1)),
                    map("v", "tofrom", v, Some(1)),
                ]),
            ),
        ]),
        Inputs::Sgesl { .. } => return None,
    };
    Some(layers::json_to_string(&body))
}

/// The bodies the primary ops cycle through.
fn op_bodies(inputs: &Inputs, key: &str) -> Vec<String> {
    let bodies = match inputs {
        // saxpy_kernel0(x, y, n, n, a, 1, n), as `POST /compile` reports it.
        Inputs::Saxpy { x, .. } => {
            let n = x.len() as i64;
            vec![obj(vec![
                ("kernel", str_value("saxpy_kernel0")),
                (
                    "args",
                    Value::Arr(vec![
                        arg("array", "x"),
                        arg("array", "y"),
                        arg("index", n),
                        arg("index", n),
                        arg("f32", SAXPY_A as f64),
                        arg("index", 1i64),
                        arg("index", n),
                    ]),
                ),
            ])]
        }
        // sgesl(a, lda, n, ipvt, b): the arrays travel as JSON both ways.
        Inputs::Sgesl { systems } => systems
            .iter()
            .map(|s| {
                obj(vec![
                    ("key", str_value(key)),
                    ("func", str_value("sgesl")),
                    (
                        "args",
                        Value::Arr(vec![
                            arg("array_f32", &s.a),
                            arg("i32", s.n as i64),
                            arg("i32", s.n as i64),
                            arg("array_i32", &s.ipvt),
                            arg("array_f32", &s.b),
                        ]),
                    ),
                ])
            })
            .collect(),
        // jacobi_kernel0(u, v, ext_u, ext_v, 2, n-1): extents rebase per
        // shard; sweeps ping-pong u -> v, v -> u.
        Inputs::Jacobi { .. } => [("u", "v"), ("v", "u")]
            .iter()
            .map(|(src, dst)| {
                obj(vec![
                    ("kernel", str_value("jacobi_kernel0")),
                    (
                        "args",
                        Value::Arr(vec![
                            arg("array", *src),
                            arg("array", *dst),
                            arg("extent", *src),
                            arg("extent", *dst),
                            arg("index", 2i64),
                            obj(vec![(
                                "extent_offset",
                                obj(vec![("array", str_value(src)), ("offset", Value::Int(-1))]),
                            )]),
                        ]),
                    ),
                    ("refresh_halos", Value::Bool(true)),
                ])
            })
            .collect(),
    };
    bodies.iter().map(layers::json_to_string).collect()
}

impl ServeWorkload {
    fn new(
        source: &'static str,
        inputs: Inputs,
        count: usize,
        cpu_ref: Vec<Vec<f32>>,
        tol: f32,
    ) -> ServeWorkload {
        let key = layers::artifact_key(source);
        ServeWorkload {
            bodies: Bodies {
                open: open_body(&inputs, &key),
                ops: op_bodies(&inputs, &key),
            },
            source,
            inputs,
            count,
            cpu_ref,
            tol,
            kept: None,
            server: None,
        }
    }

    fn saxpy(seed: u64, n: usize, launches: usize) -> ServeWorkload {
        let x = inputs::vector(n, seed, 1);
        let y = inputs::vector(n, seed, 2);
        let mut want = y.clone();
        for _ in 0..launches {
            layers::saxpy_ref(SAXPY_A, &x, &mut want);
        }
        ServeWorkload::new(
            layers::SAXPY_F90,
            Inputs::Saxpy { x, y },
            launches,
            vec![want],
            1e-5,
        )
    }

    fn sgesl(seed: u64, n: usize, runs: usize, systems: usize) -> ServeWorkload {
        let systems: Vec<SgeslSystem> = (0..systems)
            .map(|i| inputs::sgesl_system(n, seed, 16 + i as u64))
            .collect();
        let cpu_ref = systems
            .iter()
            .map(|s| {
                let mut b = s.b.clone();
                layers::sgesl_ref(&s.a, s.n, &s.ipvt, &mut b);
                b
            })
            .collect();
        // As the crate's own tests: 1e-3 relative for the LU solve.
        ServeWorkload::new(
            layers::SGESL_F90,
            Inputs::Sgesl { systems },
            runs,
            cpu_ref,
            1e-3,
        )
    }

    fn jacobi(seed: u64, n: usize, sweeps: usize) -> ServeWorkload {
        let u = inputs::vector(n, seed, 3);
        let v = inputs::vector(n, seed, 4);
        let (mut ru, mut rv) = (u.clone(), v.clone());
        for k in 0..sweeps {
            if k % 2 == 0 {
                layers::jacobi_ref(&ru, &mut rv);
            } else {
                layers::jacobi_ref(&rv, &mut ru);
            }
        }
        ServeWorkload::new(
            layers::JACOBI_F90,
            Inputs::Jacobi { u, v },
            sweeps,
            vec![ru, rv],
            1e-5,
        )
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("set_up ran").addr
    }

    /// Names of the arrays a session close returns, in `cpu_ref` order.
    fn result_names(&self) -> &'static [&'static str] {
        match self.inputs {
            Inputs::Saxpy { .. } => &["y"],
            Inputs::Jacobi { .. } => &["u", "v"],
            Inputs::Sgesl { .. } => &[],
        }
    }

    /// Requests one script of `count` primary ops sends.
    fn script_ops(&self, count: usize) -> u64 {
        let session = !matches!(self.inputs, Inputs::Sgesl { .. });
        count as u64 + if session { 2 } else { 0 }
    }

    /// The whole script: open (session workloads), `count` primary ops,
    /// close.
    pub fn script(
        &self,
        client: &mut Client,
        rec: &mut Recorder,
        count: usize,
    ) -> Result<ScriptOut, String> {
        let mut script = Script::open(self, client, rec)?;
        for _ in 0..count {
            script.op(rec)?;
        }
        script.close(rec)
    }

    /// Compare one script's results with the CPU reference.
    fn check(&self, results: &[Vec<f32>]) -> Result<(), String> {
        let expected = match self.inputs {
            Inputs::Sgesl { .. } => self.count,
            _ => self.cpu_ref.len(),
        };
        if results.len() != expected {
            return Err(format!(
                "{} result arrays, expected {expected}",
                results.len()
            ));
        }
        for (i, got) in results.iter().enumerate() {
            close_to(got, &self.cpu_ref[i % self.cpu_ref.len()], self.tol)
                .map_err(|e| format!("result {i}: {e}"))?;
        }
        Ok(())
    }

    /// The same inputs through `ftn_core::Machine`: what every cluster path
    /// promises to match bit for bit.
    fn machine_ref(&self) -> Result<Vec<Vec<f32>>, String> {
        let artifacts = layers::compile_source(self.source)?;
        let mut m = layers::machine_load(&artifacts);
        match &self.inputs {
            Inputs::Saxpy { x, y } => {
                let (xa, ya) = (
                    layers::machine_f32(&mut m, x),
                    layers::machine_f32(&mut m, y),
                );
                let args = [
                    RtValue::I32(x.len() as i32),
                    RtValue::F32(SAXPY_A),
                    xa,
                    ya.clone(),
                ];
                for _ in 0..self.count {
                    layers::machine_run(&mut m, "saxpy", &args)?;
                }
                Ok(vec![layers::machine_read_f32(&m, &ya)])
            }
            Inputs::Sgesl { systems } => systems
                .iter()
                .map(|s| {
                    let a = layers::machine_f32(&mut m, &s.a);
                    let ipvt = layers::machine_i32(&mut m, &s.ipvt);
                    let b = layers::machine_f32(&mut m, &s.b);
                    let n = RtValue::I32(s.n as i32);
                    layers::machine_run(&mut m, "sgesl", &[a, n.clone(), n, ipvt, b.clone()])?;
                    Ok(layers::machine_read_f32(&m, &b))
                })
                .collect(),
            Inputs::Jacobi { u, v } => {
                let (ua, va) = (
                    layers::machine_f32(&mut m, u),
                    layers::machine_f32(&mut m, v),
                );
                let n = RtValue::I32(u.len() as i32);
                for k in 0..self.count {
                    let (src, dst) = if k % 2 == 0 { (&ua, &va) } else { (&va, &ua) };
                    layers::machine_run(&mut m, "jacobi", &[n.clone(), src.clone(), dst.clone()])?;
                }
                Ok(vec![
                    layers::machine_read_f32(&m, &ua),
                    layers::machine_read_f32(&m, &va),
                ])
            }
        }
    }
}

/// The request bodies of one workload.
struct Bodies {
    /// `POST /sessions`; `sgesl_run` has none.
    open: Option<String>,
    /// The bodies the primary ops cycle through.
    ops: Vec<String>,
}

/// What one run of the script returned.
pub struct ScriptOut {
    /// Every request of the script in order, timed and scaled.
    pub paced: Paced,
    /// Which of [`Paced::ops`] are the primary ops.
    pub primary: Vec<usize>,
    pub results: Vec<Vec<f32>>,
    /// The last primary op's reply (simulated kernel seconds live there).
    pub last_op: Option<Value>,
    /// The close reply (session statistics live there).
    pub close: Option<Value>,
}

impl ScriptOut {
    /// Raw client-observed latency of each primary op, microseconds.
    pub fn op_us(&self) -> Vec<f64> {
        self.primary
            .iter()
            .map(|&i| self.paced.ops[i].raw_s * 1e6)
            .collect()
    }
}

/// One run of the script in progress: the connection, the open session (if
/// the workload has one) and what came back so far. The ladder and the
/// `/profile` cross-check drive the three steps themselves.
pub struct Script<'a> {
    w: &'a ServeWorkload,
    client: &'a mut Client,
    session: Option<u64>,
    /// Times every request and calibrates between them, off their clocks.
    pacer: Pacer,
    primary: Vec<usize>,
    results: Vec<Vec<f32>>,
    last_op: Option<Value>,
}

impl<'a> Script<'a> {
    /// `POST /sessions` for the session workloads; nothing for `sgesl_run`.
    pub fn open(
        w: &'a ServeWorkload,
        client: &'a mut Client,
        rec: &mut Recorder,
    ) -> Result<Script<'a>, String> {
        let mut pacer = Pacer::start();
        let session = match &w.bodies.open {
            Some(open) => {
                let (reply, micros) = client.call(rec, "http.open", "POST", "/sessions", open)?;
                pacer.record(micros * 1e-6);
                Some(http::get_u64(&reply, &["session"])?)
            }
            None => None,
        };
        Ok(Script {
            w,
            client,
            session,
            pacer,
            primary: Vec::new(),
            results: Vec::new(),
            last_op: None,
        })
    }

    /// Send the next primary op (`POST .../launch` or `POST /run`); returns
    /// its client-observed latency in microseconds, as read off the clock.
    pub fn op(&mut self, rec: &mut Recorder) -> Result<f64, String> {
        let ops = &self.w.bodies.ops;
        let body = &ops[self.primary.len() % ops.len()];
        let (reply, micros) = match self.session {
            Some(sid) => {
                let path = format!("/sessions/{sid}/launch");
                self.client.call(rec, "http.launch", "POST", &path, body)?
            }
            None => {
                let (reply, micros) = self.client.call(rec, "http.run", "POST", "/run", body)?;
                // `/run` returns its array arguments in order: a, ipvt, b.
                let arrays = http::as_arr(http::get(&reply, &["arrays"])?)?;
                self.results.push(http::as_f32s(&arrays[2])?);
                (reply, micros)
            }
        };
        self.primary.push(self.pacer.record(micros * 1e-6));
        self.last_op = Some(reply);
        Ok(micros)
    }

    /// `DELETE /sessions/{id}` for the session workloads: the `tofrom`
    /// arrays come back here.
    pub fn close(mut self, rec: &mut Recorder) -> Result<ScriptOut, String> {
        let mut close = None;
        if let Some(sid) = self.session {
            let path = format!("/sessions/{sid}");
            let (reply, micros) = self.client.call(rec, "http.close", "DELETE", &path, "")?;
            self.pacer.record(micros * 1e-6);
            for name in self.w.result_names() {
                self.results
                    .push(http::as_f32s(http::get(&reply, &["arrays", name])?)?);
            }
            close = Some(reply);
        }
        Ok(ScriptOut {
            paced: self.pacer.finish(),
            primary: self.primary,
            results: self.results,
            last_op: self.last_op,
            close,
        })
    }
}

/// The simulated side of `GET /stats` for the benchmark's one pool. Read
/// only outside the timed region: its `launch_cycles` arrays grow with
/// every launch.
struct PoolSnapshot {
    busy: Vec<f64>,
    totals: BTreeMap<&'static str, f64>,
}

const POOL_TOTALS: [(&str, &[&str]); 7] = [
    ("fpga.sim_cycles", &["totals", "total_cycles"]),
    ("fpga.sim_kernel_s", &["totals", "kernel_seconds"]),
    ("host.launches", &["totals", "launches"]),
    ("host.transfers", &["totals", "transfers"]),
    ("host.sim_transfer_s", &["totals", "transfer_seconds"]),
    ("cluster.jobs", &["jobs"]),
    ("cluster.staged_uploads", &["staged_uploads"]),
];

impl PoolSnapshot {
    fn read(client: &mut Client) -> Result<PoolSnapshot, String> {
        let stats = layers::json_from_str(&client.text("GET", "/stats")?)?;
        let pools = http::as_arr(http::get(&stats, &["pools"])?)?;
        let [pool] = pools else {
            return Err(format!("expected one pool, /stats lists {}", pools.len()));
        };
        let pool = http::get(pool, &["stats"])?;
        let busy = http::as_arr(http::get(pool, &["devices"])?)?
            .iter()
            .map(|d| http::get_f64(d, &["busy_sim_seconds"]))
            .collect::<Result<_, _>>()?;
        let totals = POOL_TOTALS
            .iter()
            .map(|(name, path)| Ok((*name, http::get_f64(pool, path)?)))
            .collect::<Result<_, String>>()?;
        Ok(PoolSnapshot { busy, totals })
    }

    /// What grew since `before`. The makespan is the busiest device's
    /// growth: devices run concurrently on the simulated timeline.
    fn since(&self, before: &PoolSnapshot) -> Counters {
        let mut c: Counters = self
            .totals
            .iter()
            .map(|(name, v)| (name.to_string(), v - before.totals[name]))
            .collect();
        let makespan = self
            .busy
            .iter()
            .zip(&before.busy)
            .map(|(a, b)| a - b)
            .fold(0.0, f64::max);
        c.insert("sim.makespan_s".into(), makespan);
        c
    }
}

impl Workload for ServeWorkload {
    fn set_up(&mut self) -> Result<(), String> {
        let server = layers::start_server().map_err(|e| format!("bind: {e}"))?;
        let mut client = Client::connect(server.addr)?;
        let mut rec = Recorder::off();
        let body = layers::json_to_string(&obj(vec![("source", str_value(self.source))]));
        let (compiled, _) = client.call(&mut rec, "http.compile", "POST", "/compile", &body)?;
        let key = http::get(&compiled, &["key"])?;
        if key != &str_value(&layers::artifact_key(self.source)) {
            return Err(format!("the server keys the source as {key:?}"));
        }
        self.server = Some(server);
        // Warm-up: the script with one primary op. The first open creates
        // the pool (device workers, image parse).
        self.script(&mut client, &mut rec, 1)?;
        Ok(())
    }

    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let attempted = self.script_ops(self.count);
        let mut rep = Rep {
            attempted,
            ..Rep::default()
        };
        let outcome = (|| -> Result<(), String> {
            let mut client = Client::connect(self.addr())?;
            let before = PoolSnapshot::read(&mut client)?;
            let out = rec.span("rep", |rec| self.script(&mut client, rec, self.count))?;
            rep.wall = out.paced.total();
            rep.cal_s = out.paced.cal_s;
            rep.ops = out.primary.iter().map(|&i| out.paced.ops[i]).collect();
            rep.counters = PoolSnapshot::read(&mut client)?.since(&before);
            for key in ["elided_transfers", "halo_bytes"] {
                let v = match &out.close {
                    Some(close) => http::get_f64(close, &["stats", key])?,
                    None => 0.0,
                };
                rep.counters.insert(format!("cluster.{key}"), v);
            }
            self.check(&out.results)?;
            match &self.kept {
                None => self.kept = Some(out.results),
                Some(first) => {
                    for (i, (got, want)) in out.results.iter().zip(first).enumerate() {
                        bits_equal(got, want)
                            .map_err(|e| format!("result {i} differs from the first rep: {e}"))?;
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            rep.failed = attempted;
            rep.error = Some(e);
        }
        rep
    }

    fn final_check(&mut self) -> Result<(), String> {
        let Some(kept) = &self.kept else {
            return Err("no rep returned results to check".into());
        };
        let reference = self.machine_ref()?;
        for (i, got) in kept.iter().enumerate() {
            bits_equal(got, &reference[i % reference.len()])
                .map_err(|e| format!("result {i}: {e}"))?;
        }
        Ok(())
    }

    fn layer_metrics(&mut self, rec: &mut Recorder) -> Result<Counters, String> {
        ladder::serve_layers(self, rec)
    }

    fn tear_down(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let mut client = Client::connect(server.addr)?;
        client.call(
            &mut Recorder::off(),
            "http.shutdown",
            "POST",
            "/shutdown",
            "",
        )?;
        drop(client);
        server.join()
    }
}

// ---- compile_corpus --------------------------------------------------------------

/// Seeded translation units through `Compiler::compile_source`.
pub struct CompileCorpus {
    pub units: Vec<CorpusUnit>,
    repeats: usize,
    /// Each unit's first compile: what every later compile must equal.
    reference: Vec<layers::Compiled>,
}

impl CompileCorpus {
    fn new(seed: u64, sizes: Sizes) -> CompileCorpus {
        CompileCorpus {
            units: inputs::corpus(seed, sizes.corpus_units, sizes.corpus_subs),
            repeats: sizes.corpus_repeats,
            reference: Vec::new(),
        }
    }
}

impl Workload for CompileCorpus {
    fn set_up(&mut self) -> Result<(), String> {
        self.reference = self
            .units
            .iter()
            .map(|u| layers::compile_source(&u.source))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let attempted = (self.units.len() * self.repeats) as u64;
        let mut rep = Rep {
            attempted,
            ..Rep::default()
        };
        let mut pacer = Pacer::start();
        rec.span("rep", |rec| {
            for _ in 0..self.repeats {
                for (unit, reference) in self.units.iter().zip(&self.reference) {
                    let t = Instant::now();
                    let compiled =
                        rec.span("compile_source", |_| layers::compile_source(&unit.source));
                    pacer.record(t.elapsed().as_secs_f64());
                    let same = compiled
                        .as_ref()
                        .is_ok_and(|c| layers::artifacts_identical(c, reference));
                    if !same {
                        rep.failed += 1;
                        rep.error = Some(match compiled {
                            Err(e) => e,
                            Ok(_) => "artifacts differ between compiles of one unit".into(),
                        });
                    }
                }
            }
        });
        let paced = pacer.finish();
        rep.wall = paced.total();
        rep.cal_s = paced.cal_s;
        rep.ops = paced.ops;
        rep
    }

    fn final_check(&mut self) -> Result<(), String> {
        let Some(artifacts) = self.reference.first() else {
            return Err("set_up did not compile unit 0".into());
        };
        // Unit 0 opens with one instance of every template (see
        // `inputs::corpus`): run each through the machine.
        for sub in &self.units[0].subs[..inputs::TEMPLATES.len()] {
            check_template(artifacts, sub.template, &sub.name)
                .map_err(|e| format!("{}: {e}", sub.name))?;
        }
        Ok(())
    }

    fn layer_metrics(&mut self, _rec: &mut Recorder) -> Result<Counters, String> {
        // No server, no ladder: the stage-by-stage compile in the probe
        // suite is this workload's breakdown.
        Ok(Counters::new())
    }

    fn tear_down(&mut self) -> Result<(), String> {
        self.reference.clear();
        Ok(())
    }
}

/// Length of the vectors the corpus oracle runs each kernel on: not a
/// multiple of any `simdlen`, so every epilogue loop runs.
const TEMPLATE_N: usize = 1003;

/// Run the (first) kernel of subroutine `name`, an instance of `template`,
/// from a compiled corpus unit on the simulated device and compare with
/// the CPU reference.
fn check_template(artifacts: &layers::Compiled, template: &str, name: &str) -> Result<(), String> {
    let kernel = layers::kernel_with_prefix(artifacts, &format!("{name}_kernel"))
        .ok_or_else(|| "no kernel in the bitstream".to_string())?;
    let n = TEMPLATE_N;
    let x = inputs::vector(n, 7, 70);
    let y = inputs::vector(n, 7, 71);
    let mut dev = layers::Device::new(&artifacts.bitstream);
    let xa = dev.alloc_f32(&x);
    let ya = dev.alloc_f32(&y);
    let idx = layers::index;
    let mut want = y.clone();
    let (args, out) = match template {
        "saxpy" => {
            layers::saxpy_ref(1.5, &x, &mut want);
            (layers::saxpy_kernel_args(&xa, &ya, n, 1.5), ya)
        }
        // sgesl_kernel(a, b, lda, ext, ext, k, t, lb, ub): b(i) += t*a(i, k);
        // with k = 1 and lda = n that is a SAXPY over the first column.
        "sgesl" => {
            layers::saxpy_ref(-0.75, &x, &mut want);
            let (k, t) = (RtValue::I32(1), RtValue::F32(-0.75));
            (
                vec![xa, ya.clone(), idx(n), idx(n), idx(n), k, t, idx(1), idx(n)],
                ya,
            )
        }
        // dotprod_kernel(x, y, s, ext_x, ext_y, ext_s, lb, ub)
        "dotprod" => {
            let s = dev.alloc_f32(&[0.25]);
            let dot: f64 = x.iter().zip(&y).map(|(a, b)| f64::from(a * b)).sum();
            want = vec![0.25 + dot as f32];
            (
                vec![xa, ya, s.clone(), idx(n), idx(n), idx(1), idx(1), idx(n)],
                s,
            )
        }
        // jacobi_kernel(u, v, ext_u, ext_v, lb, ub)
        "jacobi" => {
            layers::jacobi_ref(&x, &mut want);
            (vec![xa, ya.clone(), idx(n), idx(n), idx(2), idx(n - 1)], ya)
        }
        // heat_kernel(u, v, ext_u, ext_v, r, lb, ub)
        "heat" => {
            layers::heat_ref(0.25, &x, &mut want);
            let r = RtValue::F32(0.25);
            (
                vec![xa, ya.clone(), idx(n), idx(n), r, idx(2), idx(n - 1)],
                ya,
            )
        }
        other => return Err(format!("no oracle for template '{other}'")),
    };
    dev.execute(&kernel, &args);
    // The reduction sums in f32 over round-robin partial accumulators.
    let tol = if template == "dotprod" { 1e-3 } else { 1e-5 };
    close_to(&dev.read_f32(&out), &want, tol)
}

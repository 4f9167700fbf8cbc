//! The ladder: a serve workload's primary op replayed one layer lower each
//! time, from outside the program.
//!
//! * R0: the client's `POST` against the server under test,
//! * R1: the same op on a directly loaded `ClusterMachine` (same artifacts,
//!   2 × `u280`, same data),
//! * R2: `KernelExecutor::execute` on a plain `Memory` (per shard, the
//!   slowest shard counts), or `Machine::run` for `sgesl_run`,
//! * R3: bare `Interp::call` (for `sgesl_run`, the recorded kernel calls of
//!   one run replayed).
//!
//! The four rungs are sampled in turn, round after round, so a noise burst
//! lands on one sample of each rung instead of on every sample of one; a
//! rung is the median of its samples. A layer's self time is its rung minus
//! the rung below, clamped at 0; `ladder.*_share` divide by R0.
//! `ladder.residual_share` is the sum of the clamped-away negatives (a lower
//! rung that read slower than the one above it: noise, or a replay that
//! does not match), so it says how far the shares can be trusted.

use std::time::{Duration, Instant};

use crate::calib::Pacer;
use crate::http::{self, Client};
use crate::inputs::SgeslSystem;
use crate::layers::{self, BareInterp, Device, KernelCall, Machine, Pool, RtValue};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{Counters, Inputs, Script, ServeWorkload, SAXPY_A};

/// Rounds over the four rungs: at least 3, at most 9, stopping early once
/// the budget is spent.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 9;
const BUDGET: Duration = Duration::from_secs(5);

/// Kernels at or below this many elements are sampled in batches: a single
/// call is too short for the clock.
const TINY: usize = 1024;
const TINY_BATCH: usize = 100;

fn saxpy_args(x: &RtValue, y: &RtValue, n: usize) -> Vec<RtValue> {
    layers::saxpy_kernel_args(x, y, n, SAXPY_A)
}

/// `jacobi_kernel0(u, v, ext, ext, 2, ext - 1)` on one shard's rows.
fn jacobi_args(u: &RtValue, v: &RtValue, ext: usize) -> Vec<RtValue> {
    let index = layers::index;
    vec![
        u.clone(),
        v.clone(),
        index(ext),
        index(ext),
        index(2),
        index(ext - 1),
    ]
}

/// Seconds of one call of `op`.
fn secs(op: impl FnOnce()) -> f64 {
    let t = Instant::now();
    op();
    t.elapsed().as_secs_f64()
}

/// What rungs R1..R3 run on: the pool, the device and the bare interpreter,
/// each holding its own copy of the workload's data. One value lives per
/// ladder, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Lower {
    Saxpy {
        /// Calls per sample.
        batch: usize,
        pool: Pool,
        session: u64,
        /// The kernel's arguments on the pool, the device, the interpreter.
        args: [Vec<RtValue>; 3],
        dev: Device,
        bare: BareInterp,
    },
    Jacobi {
        pool: Pool,
        session: u64,
        sweeps: usize,
        /// Per shard, the kernel's arguments on the device, the interpreter.
        args: [Vec<Vec<RtValue>>; 2],
        dev: Device,
        bare: BareInterp,
    },
    Sgesl {
        system: SgeslSystem,
        pool: Pool,
        machine: Machine,
        /// The kernel calls of one run, rebound to `bare`'s buffers.
        calls: Vec<KernelCall>,
        bare: BareInterp,
    },
}

impl Lower {
    fn new(w: &ServeWorkload, artifacts: &layers::Compiled) -> Lower {
        let mut pool = Pool::load(artifacts);
        let mut dev = Device::new(&artifacts.bitstream);
        let mut bare = BareInterp::new(&artifacts.bitstream);
        match &w.inputs {
            Inputs::Saxpy { x, y } => {
                let n = x.len();
                let (xa, ya) = (pool.host_f32(x), pool.host_f32(y));
                Lower::Saxpy {
                    batch: if n <= TINY { TINY_BATCH } else { 1 },
                    session: pool.open_session(&xa, &ya),
                    args: [
                        saxpy_args(&xa, &ya, n),
                        saxpy_args(&dev.alloc_f32(x), &dev.alloc_f32(y), n),
                        saxpy_args(&bare.alloc_f32(x), &bare.alloc_f32(y), n),
                    ],
                    pool,
                    dev,
                    bare,
                }
            }
            Inputs::Jacobi { u, v } => {
                let (ua, va) = (pool.host_f32(u), pool.host_f32(v));
                // Each shard's rows (owned + ghost) are one kernel call.
                let shards = layers::shard_mapped_ranges(u.len(), 2, 1);
                let shard_args = |alloc: &mut dyn FnMut(&[f32]) -> RtValue| {
                    shards
                        .iter()
                        .map(|&(start, len)| {
                            let ua = alloc(&u[start..start + len]);
                            let va = alloc(&v[start..start + len]);
                            jacobi_args(&ua, &va, len)
                        })
                        .collect::<Vec<_>>()
                };
                Lower::Jacobi {
                    session: pool.open_sharded(&ua, &va, 2),
                    sweeps: 0,
                    args: [
                        shard_args(&mut |data| dev.alloc_f32(data)),
                        shard_args(&mut |data| bare.alloc_f32(data)),
                    ],
                    pool,
                    dev,
                    bare,
                }
            }
            Inputs::Sgesl { systems } => {
                let s = systems[0].clone();
                let n = RtValue::I32(s.n as i32);
                let calls = layers::record_kernel_calls(artifacts, "sgesl", |memory| {
                    vec![
                        layers::host_f32(memory, &s.a),
                        n.clone(),
                        n.clone(),
                        layers::host_i32(memory, &s.ipvt),
                        layers::host_f32(memory, &s.b),
                    ]
                });
                // Replay on this interpreter's own buffers in place of the
                // recorded ones: the matrix is the only n*n-element argument.
                let (a, b) = (bare.alloc_f32(&s.a), bare.alloc_f32(&s.b));
                let calls = calls
                    .into_iter()
                    .map(|(kernel, args)| {
                        let args = args
                            .into_iter()
                            .map(|v| match layers::memref_len(&v) {
                                Some(len) if len == s.a.len() => a.clone(),
                                Some(_) => b.clone(),
                                None => v,
                            })
                            .collect();
                        (kernel, args)
                    })
                    .collect();
                Lower::Sgesl {
                    machine: layers::machine_load(artifacts),
                    system: s,
                    pool,
                    calls,
                    bare,
                }
            }
        }
    }

    /// Primary ops per sample.
    fn batch(&self) -> usize {
        match self {
            Lower::Saxpy { batch, .. } => *batch,
            _ => 1,
        }
    }

    /// Run rung `rung` (1..=3) once; seconds per primary op.
    fn sample(&mut self, rung: usize) -> f64 {
        match self {
            Lower::Saxpy {
                batch,
                pool,
                session,
                args,
                dev,
                bare,
            } => {
                let s = secs(|| {
                    for _ in 0..*batch {
                        match rung {
                            1 => pool.session_launch(*session, "saxpy_kernel0", &args[0]),
                            2 => dev.execute("saxpy_kernel0", &args[1]),
                            _ => bare.call("saxpy_kernel0", &args[2]),
                        }
                    }
                });
                s / *batch as f64
            }
            Lower::Jacobi {
                pool,
                session,
                sweeps,
                args,
                dev,
                bare,
            } => match rung {
                1 => {
                    let (src, dst) = if *sweeps % 2 == 0 {
                        ("u", "v")
                    } else {
                        ("v", "u")
                    };
                    *sweeps += 1;
                    secs(|| {
                        pool.sharded_launch(*session, src, dst);
                        pool.refresh_halos(*session);
                    })
                }
                // The pool's two devices run the shards in parallel, so the
                // slowest shard counts.
                2 => args[0]
                    .iter()
                    .map(|a| secs(|| dev.execute("jacobi_kernel0", a)))
                    .fold(0.0, f64::max),
                _ => args[1]
                    .iter()
                    .map(|a| secs(|| bare.call("jacobi_kernel0", a)))
                    .fold(0.0, f64::max),
            },
            Lower::Sgesl {
                system: s,
                pool,
                machine,
                calls,
                bare,
            } => {
                let n = RtValue::I32(s.n as i32);
                match rung {
                    1 => secs(|| {
                        let a = pool.host_f32(&s.a);
                        let ipvt = pool.host_i32(&s.ipvt);
                        let b = pool.host_f32(&s.b);
                        pool.run("sgesl", &[a.clone(), n.clone(), n, ipvt.clone(), b.clone()]);
                        std::hint::black_box(pool.read_f32(&b));
                        for v in [&a, &ipvt, &b] {
                            pool.free(v);
                        }
                    }),
                    2 => secs(|| {
                        let a = layers::machine_f32(machine, &s.a);
                        let ipvt = layers::machine_i32(machine, &s.ipvt);
                        let b = layers::machine_f32(machine, &s.b);
                        layers::machine_run(machine, "sgesl", &[a, n.clone(), n, ipvt, b])
                            .expect("sgesl runs on the machine");
                    }),
                    _ => secs(|| {
                        for (kernel, args) in calls.iter() {
                            bare.call(kernel, args);
                        }
                    }),
                }
            }
        }
    }

    fn close(self) {
        match self {
            Lower::Saxpy {
                mut pool, session, ..
            } => pool.close_session(session),
            Lower::Jacobi {
                mut pool, session, ..
            } => pool.close_sharded(session),
            Lower::Sgesl { .. } => {}
        }
    }
}

/// Median scaled microseconds of rungs R0..R3 of `w`'s primary op.
fn rungs(
    w: &ServeWorkload,
    artifacts: &layers::Compiled,
    rec: &mut Recorder,
) -> Result<[f64; 4], String> {
    let mut lower = Lower::new(w, artifacts);
    let batch = lower.batch();
    let mut client = Client::connect(w.addr())?;
    let mut off = Recorder::off();
    let mut script = Script::open(w, &mut client, &mut off)?;
    // One pacer over all four rungs: every sample is scaled by the
    // calibration runs around it. `picks[r]` indexes rung r's samples.
    let mut pacer = Pacer::start();
    let mut picks: [Vec<usize>; 4] = Default::default();
    let started = Instant::now();
    while picks[0].len() < MIN_ROUNDS || (picks[0].len() < MAX_ROUNDS && started.elapsed() < BUDGET)
    {
        // The script calibrates between ops itself; take each op's own
        // reading, not the clock around the batch.
        let micros = rec.span("ladder.r0.client", |_| {
            (0..batch).try_fold(0.0, |sum, _| script.op(&mut off).map(|us| sum + us))
        })?;
        picks[0].push(pacer.record(micros * 1e-6 / batch as f64));
        for (rung, name) in [
            (1, "ladder.r1.cluster"),
            (2, "ladder.r2.fpga"),
            (3, "ladder.r3.interp"),
        ] {
            let seconds = rec.span(name, |_| lower.sample(rung));
            picks[rung].push(pacer.record(seconds));
        }
    }
    script.close(&mut off)?;
    lower.close();
    let paced = pacer.finish();
    Ok(picks.map(|pick| {
        let scaled: Vec<f64> = pick.iter().map(|&i| paced.ops[i].scaled_s).collect();
        stats::median(&scaled) * 1e6
    }))
}

/// The five `ladder.*_share` rows from rungs R0..R3.
pub fn shares(r: [f64; 4]) -> Counters {
    let mut residual = 0.0;
    let mut share = |upper: f64, lower: f64| {
        let own = upper - lower;
        if own < 0.0 {
            residual -= own;
        }
        own.max(0.0) / r[0]
    };
    let mut c = Counters::new();
    c.insert("ladder.serve_share".into(), share(r[0], r[1]));
    c.insert("ladder.cluster_share".into(), share(r[1], r[2]));
    c.insert("ladder.fpga_share".into(), share(r[2], r[3]));
    c.insert("ladder.interp_share".into(), r[3] / r[0]);
    c.insert("ladder.residual_share".into(), residual / r[0]);
    c
}

/// Primary ops inside the `/profile` window: few enough that no span ring
/// (4 096 events a lane) wraps.
fn window_ops(w: &ServeWorkload) -> usize {
    match &w.inputs {
        Inputs::Saxpy { x, .. } if x.len() <= TINY => 200,
        Inputs::Saxpy { .. } => 3,
        Inputs::Jacobi { .. } => 4,
        Inputs::Sgesl { .. } => 1,
    }
    .min(w.count)
}

/// Sum `field` (`total_nanos` or `self_nanos`) over every node named `name`.
fn sum_nodes(node: &layers::Value, name: &str, field: &str) -> Result<f64, String> {
    let mut sum = 0.0;
    if matches!(node.get("name"), Some(layers::Value::Str(s)) if s == name) {
        sum += http::get_f64(node, &[field])?;
    }
    for child in http::as_arr(http::get(node, &["children"])?)? {
        sum += sum_nodes(child, name, field)?;
    }
    Ok(sum)
}

/// Every workload-specific per-layer metric of a serve workload.
pub fn serve_layers(w: &mut ServeWorkload, rec: &mut Recorder) -> Result<Counters, String> {
    let artifacts = layers::compile_source(w.source)?;
    let r = rungs(w, &artifacts, rec)?;
    let mut c = shares(r);
    for (name, us) in ["r0", "r1", "r2", "r3"].iter().zip(r) {
        c.insert(format!("ladder.{name}_us"), us);
    }

    // The server's own profile over a window holding only primary ops.
    let mut client = Client::connect(w.addr())?;
    layers::trace_clear();
    let (out, since, until) = rec.span("profile.window", |rec| {
        let mut script = Script::open(w, &mut client, rec)?;
        let since = layers::trace_now_nanos();
        for _ in 0..window_ops(w) {
            script.op(rec)?;
        }
        let until = layers::trace_now_nanos();
        script.close(rec).map(|out| (out, since, until))
    })?;
    let profile = layers::json_from_str(&client.text(
        "GET",
        &format!("/profile?format=json&since={since}&until={until}"),
    )?)?;
    let (mut requests, mut kernels) = (0.0, 0.0);
    for root in http::as_arr(http::get(&profile, &["profile", "roots"])?)? {
        requests += sum_nodes(root, "http.request", "total_nanos")?;
        kernels += sum_nodes(root, "kernel.execute", "self_nanos")?;
    }
    let client_ns: f64 = out.op_us().iter().sum::<f64>() * 1e3;
    c.insert("trace.profile_coverage".into(), requests / client_ns);
    c.insert(
        "trace.profile_kernel_share".into(),
        if requests > 0.0 {
            kernels / requests
        } else {
            0.0
        },
    );

    // How wrong was CostModel: predicted over observed simulated seconds of
    // the primary op, priced the way the pool prices it (largest argument).
    let last = out.last_op.ok_or("the window ran no primary op")?;
    let (elements, observed) = match &w.inputs {
        Inputs::Saxpy { x, .. } => (x.len(), http::get_f64(&last, &["kernel_wall_seconds"])?),
        Inputs::Jacobi { u, .. } => (
            layers::shard_mapped_ranges(u.len(), 2, 1)[0].1,
            http::get_f64(&last, &["kernel_wall_seconds_max"])?,
        ),
        Inputs::Sgesl { systems } => (
            systems[0].a.len(),
            http::get_f64(&last, &["stats", "kernel_wall_seconds"])?,
        ),
    };
    c.insert(
        "fpga.cost_model_ratio".into(),
        layers::cost_model_seconds(&artifacts.bitstream, elements as u64) / observed,
    );

    c.insert(
        "serve.stats_body_bytes".into(),
        client.text("GET", "/stats")?.len() as f64,
    );
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_split_r0_and_clamp_inversions() {
        let c = shares([100.0, 60.0, 50.0, 40.0]);
        assert_eq!(c["ladder.serve_share"], 0.4);
        assert_eq!(c["ladder.cluster_share"], 0.1);
        assert_eq!(c["ladder.fpga_share"], 0.1);
        assert_eq!(c["ladder.interp_share"], 0.4);
        assert_eq!(c["ladder.residual_share"], 0.0);
        // R2 read slower than R1: its excess is the residual, not a share.
        let c = shares([100.0, 60.0, 70.0, 40.0]);
        assert_eq!(c["ladder.cluster_share"], 0.0);
        assert_eq!(c["ladder.residual_share"], 0.1);
    }
}

//! The per-layer probes that do not depend on the workload: each crate's
//! public functions called from outside on fixed-size seeded inputs and
//! timed (median of 3 to 9 budgeted repeats, every reading scaled to the
//! box's reference pace like the end-to-end metrics; counts must repeat
//! exactly). They run in every traced run, so every per-layer time is
//! really measured wherever it is reported.
//!
//! The per-element probes use `BIG_N` = 32 768 elements, a quarter of
//! `saxpy_stream`'s array: nine samples there cost what three would at full
//! size, and the ladder of `saxpy_stream` replays the full-size op anyway.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::calib::{self, Pacer};
use crate::http::{self, arg, obj, str_value, Client};
use crate::inputs;
use crate::layers::{self, BareInterp, Device, Pool, RtValue, Value};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{Counters, Sizes, SAXPY_A};

const BIG_N: usize = 32_768;
const TINY_N: usize = 16;
/// Calls per sample where one call is too short for the clock.
const BATCH: usize = 200;
const BUDGET: Duration = Duration::from_millis(900);

/// Median scaled seconds of `f` over 3 to 9 budgeted repeats.
fn med_s(f: impl FnMut()) -> f64 {
    scaled_median(calib::repeat(3, 9, BUDGET, f))
}

/// Median microseconds of one `op`, timed `BATCH` calls at a time.
fn batch_us(mut op: impl FnMut()) -> f64 {
    med_s(|| {
        for _ in 0..BATCH {
            op();
        }
    }) * 1e6
        / BATCH as f64
}

fn scaled_median(samples: Vec<calib::Timed>) -> f64 {
    stats::median(&samples.iter().map(|t| t.scaled_s).collect::<Vec<_>>())
}

/// Time `op` once and hand the reading to `pacer`; returns its index.
fn timed(pacer: &mut Pacer, op: impl FnOnce()) -> usize {
    let t = Instant::now();
    op();
    pacer.record(t.elapsed().as_secs_f64())
}

fn saxpy_args(x: &RtValue, y: &RtValue, n: usize) -> Vec<RtValue> {
    layers::saxpy_kernel_args(x, y, n, SAXPY_A)
}

/// Run every probe. `sizes` scales the corpus (the `--check` smoke runs a
/// small one); everything else is fixed.
pub fn run(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Result<Counters, String> {
    let mut c = Counters::new();
    rec.span("probe.compile_stages", |_| {
        compile_stages(seed, sizes, &mut c)
    })?;
    rec.span("probe.kernels", |_| kernels(seed, &mut c))?;
    rec.span("probe.core", |_| core(seed, sizes, &mut c))?;
    rec.span("probe.shard", |_| shard(seed, &mut c));
    rec.span("probe.cluster", |_| cluster(seed, sizes, &mut c))?;
    rec.span("probe.serve", |_| serve(seed, &mut c))?;
    Ok(c)
}

/// `frontend.*`, `ir.*`, `passes.*`, `llvm.*`, `host.cpp_*`, `fpga.synth_us`
/// and the corpus totals: every stage of the compile over the whole seeded
/// corpus, next to `compile_source` on the same units.
fn compile_stages(seed: u64, sizes: &Sizes, c: &mut Counters) -> Result<(), String> {
    let units = inputs::corpus(seed, sizes.corpus_units, sizes.corpus_subs);
    let mut stage_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut residuals = Vec::new();
    let mut last = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    // One sample = the whole corpus. The whole compile and the staged one
    // alternate unit by unit, so both see the same pace, and the box is
    // calibrated after every unit.
    while rounds < 3 || (rounds < 9 && started.elapsed() < Duration::from_secs(4)) {
        rounds += 1;
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        let mut before = calib::measure();
        last.clear();
        for unit in &units {
            let t = Instant::now();
            let artifacts = layers::compile_source(&unit.source)?;
            let whole = t.elapsed().as_secs_f64();
            drop(artifacts);
            let report = layers::compile_staged(&unit.source)?;
            let after = calib::measure();
            let pace = calib::factor(before, after);
            before = after;
            residuals.push(1.0 - report.total_seconds() / whole);
            for (stage, s) in &report.seconds {
                *sums.entry(stage.clone()).or_default() += s * pace;
            }
            last.push(report);
        }
        for (stage, s) in sums {
            stage_samples.entry(stage).or_default().push(s);
        }
    }
    for (stage, samples) in &stage_samples {
        c.insert(format!("{stage}_us"), stats::median(samples) * 1e6);
    }
    // A ratio of two adjacent compiles needs no scaling.
    c.insert(
        "core.compile_residual_share".into(),
        stats::median(&residuals),
    );

    // Counts and sizes: corpus totals of the last (any) sample.
    for report in &last {
        for (name, n) in &report.counts {
            *c.entry(name.clone()).or_default() += *n as f64;
        }
        let bitstream = report
            .bitstream
            .as_ref()
            .expect("staged compile synthesizes");
        for (name, n) in layers::bitstream_totals(bitstream) {
            *c.entry(name.into()).or_default() += n as f64;
        }
        *c.entry("fpga.bitstream_bytes".into()).or_default() +=
            layers::bitstream_bytes(bitstream) as f64;
    }

    // Loading the artifacts back: what `Machine::load`, every pool and the
    // server's image cache pay per program.
    c.insert(
        "ir.parse_us".into(),
        med_s(|| {
            for report in &last {
                std::hint::black_box(layers::ir_parse_module(&report.host_module_text));
            }
        }) * 1e6,
    );
    c.insert(
        "fpga.image_load_us".into(),
        med_s(|| {
            for report in &last {
                let bitstream = report.bitstream.as_ref().expect("synthesized");
                std::hint::black_box(layers::image_load(bitstream));
            }
        }) * 1e6,
    );
    Ok(())
}

/// `fpga.execute_*`, `interp.*`: the SAXPY kernel on the simulated device
/// and on the bare interpreter, big and tiny.
fn kernels(seed: u64, c: &mut Counters) -> Result<(), String> {
    let artifacts = layers::compile_source(layers::SAXPY_F90)?;
    let x = inputs::vector(BIG_N, seed, 40);
    let y = inputs::vector(BIG_N, seed, 41);

    let mut dev = Device::new(&artifacts.bitstream);
    let (xa, ya) = (dev.alloc_f32(&x), dev.alloc_f32(&y));
    let big = saxpy_args(&xa, &ya, BIG_N);
    let big_s = med_s(|| dev.execute("saxpy_kernel0", &big));
    c.insert(
        "fpga.execute_ns_per_elem".into(),
        big_s * 1e9 / BIG_N as f64,
    );
    let (xt, yt) = (dev.alloc_f32(&x[..TINY_N]), dev.alloc_f32(&y[..TINY_N]));
    let tiny = saxpy_args(&xt, &yt, TINY_N);
    c.insert(
        "fpga.execute_fixed_us".into(),
        batch_us(|| dev.execute("saxpy_kernel0", &tiny)),
    );

    let mut bare = BareInterp::new(&artifacts.bitstream);
    let (xa, ya) = (bare.alloc_f32(&x), bare.alloc_f32(&y));
    let big = saxpy_args(&xa, &ya, BIG_N);
    let big_s = med_s(|| bare.call("saxpy_kernel0", &big));
    c.insert("interp.ns_per_elem".into(), big_s * 1e9 / BIG_N as f64);
    let (xt, yt) = (bare.alloc_f32(&x[..TINY_N]), bare.alloc_f32(&y[..TINY_N]));
    let tiny = saxpy_args(&xt, &yt, TINY_N);
    c.insert(
        "interp.call_fixed_us".into(),
        batch_us(|| bare.call("saxpy_kernel0", &tiny)),
    );

    // 512 KiB of f32: the copy behind every simulated transfer.
    const COPY_ELEMS: usize = 512 * 1024 / 4;
    let mut memory = layers::new_memory();
    let (src, dst) = layers::memory_pair(&mut memory, COPY_ELEMS);
    let copy_us = batch_us(|| layers::memory_copy(&mut memory, src, dst));
    c.insert(
        "interp.mem_copy_gb_per_s".into(),
        (COPY_ELEMS * 4) as f64 / (copy_us * 1e-6) / 1e9,
    );
    c.insert(
        "interp.alloc_us".into(),
        batch_us(|| layers::memory_alloc_free(&mut memory, COPY_ELEMS)),
    );
    Ok(())
}

/// `core.machine_*`: the single-device machine under SGESL.
fn core(seed: u64, sizes: &Sizes, c: &mut Counters) -> Result<(), String> {
    let artifacts = layers::compile_source(layers::SGESL_F90)?;
    c.insert(
        "core.machine_load_us".into(),
        med_s(|| {
            std::hint::black_box(layers::machine_load(&artifacts));
        }) * 1e6,
    );
    let s = inputs::sgesl_system(sizes.sgesl_n, seed, 42);
    let mut m = layers::machine_load(&artifacts);
    let n = RtValue::I32(s.n as i32);
    c.insert(
        "core.machine_run_us".into(),
        med_s(|| {
            let a = layers::machine_f32(&mut m, &s.a);
            let ipvt = layers::machine_i32(&mut m, &s.ipvt);
            let b = layers::machine_f32(&mut m, &s.b);
            layers::machine_run(&mut m, "sgesl", &[a, n.clone(), n.clone(), ipvt, b])
                .expect("sgesl runs on the machine");
        }) * 1e6,
    );
    Ok(())
}

/// `shard.*`: the host-side data plane at `jacobi_sharded`'s shape.
fn shard(seed: u64, c: &mut Counters) {
    let rows = Sizes::FULL.jacobi_n;
    let data = inputs::vector(rows, seed, 43);
    c.insert(
        "shard.plan_us".into(),
        batch_us(|| {
            std::hint::black_box(layers::shard_plan(rows, 2, 1));
        }),
    );
    c.insert(
        "shard.delta_us".into(),
        batch_us(|| {
            std::hint::black_box(layers::shard_delta(rows, 1));
        }),
    );
    c.insert(
        "shard.scatter_us".into(),
        med_s(|| {
            std::hint::black_box(layers::shard_scatter(&data).memory.live());
        }) * 1e6,
    );
    let mut scattered = layers::shard_scatter(&data);
    c.insert(
        "shard.gather_us".into(),
        med_s(|| {
            std::hint::black_box(scattered.gather());
        }) * 1e6,
    );
}

/// Median scaled microseconds of the readings `pick` selects.
fn median_us(paced: &calib::Paced, pick: &[usize]) -> f64 {
    stats::median(
        &pick
            .iter()
            .map(|&i| paced.ops[i].scaled_s * 1e6)
            .collect::<Vec<_>>(),
    )
}

/// `cluster.*` times: the pool driven directly, no HTTP.
fn cluster(seed: u64, sizes: &Sizes, c: &mut Counters) -> Result<(), String> {
    let saxpy = layers::compile_source(layers::SAXPY_F90)?;
    c.insert(
        "cluster.pool_load_us".into(),
        med_s(|| {
            std::hint::black_box(Pool::load(&saxpy));
        }) * 1e6,
    );
    let cache = layers::CompileCache::new();
    cache.get_or_compile(layers::SAXPY_F90);
    c.insert(
        "cluster.cache_hit_us".into(),
        batch_us(|| {
            assert!(
                cache.get_or_compile(layers::SAXPY_F90),
                "second compile hits"
            );
        }),
    );

    let x = inputs::vector(BIG_N, seed, 44);
    let y = inputs::vector(BIG_N, seed, 45);
    let mut pool = Pool::load(&saxpy);
    let (xa, ya) = (pool.host_f32(&x), pool.host_f32(&y));
    // Open and close alternate, so time them in one loop.
    let mut pacer = Pacer::start();
    let (mut opens, mut closes) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut sid = 0;
        opens.push(timed(&mut pacer, || sid = pool.open_session(&xa, &ya)));
        closes.push(timed(&mut pacer, || pool.close_session(sid)));
    }
    let paced = pacer.finish();
    c.insert("cluster.open_us".into(), median_us(&paced, &opens));
    c.insert("cluster.close_us".into(), median_us(&paced, &closes));
    let sid = pool.open_session(&xa, &ya);
    let big = saxpy_args(&xa, &ya, BIG_N);
    c.insert(
        "cluster.launch_us_big".into(),
        med_s(|| {
            pool.session_launch(sid, "saxpy_kernel0", &big);
        }) * 1e6,
    );
    pool.close_session(sid);
    let (xt, yt) = (pool.host_f32(&x[..TINY_N]), pool.host_f32(&y[..TINY_N]));
    let sid = pool.open_session(&xt, &yt);
    let tiny = saxpy_args(&xt, &yt, TINY_N);
    c.insert(
        "cluster.launch_us_tiny".into(),
        batch_us(|| {
            pool.session_launch(sid, "saxpy_kernel0", &tiny);
        }),
    );
    pool.close_session(sid);
    drop(pool);

    // The sharded path at `jacobi_sharded`'s shape.
    let jacobi = layers::compile_source(layers::JACOBI_F90)?;
    let rows = sizes.jacobi_n;
    let (u, v) = (
        inputs::vector(rows, seed, 46),
        inputs::vector(rows, seed, 47),
    );
    let mut pool = Pool::load(&jacobi);
    let (ua, va) = (pool.host_f32(&u), pool.host_f32(&v));
    let mut sid = pool.open_sharded(&ua, &va, 2);
    let mut pacer = Pacer::start();
    let (mut launches, mut refreshes, mut closes) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while launches.len() < 3 || (launches.len() < 9 && started.elapsed() < BUDGET) {
        let (src, dst) = if launches.len() % 2 == 0 {
            ("u", "v")
        } else {
            ("v", "u")
        };
        launches.push(timed(&mut pacer, || {
            pool.sharded_launch(sid, src, dst);
        }));
        refreshes.push(timed(&mut pacer, || {
            pool.refresh_halos(sid);
        }));
    }
    for _ in 0..5 {
        closes.push(timed(&mut pacer, || pool.close_sharded(sid)));
        sid = pool.open_sharded(&ua, &va, 2);
    }
    pool.close_sharded(sid);
    let paced = pacer.finish();
    c.insert(
        "cluster.sharded_launch_us".into(),
        median_us(&paced, &launches),
    );
    c.insert(
        "cluster.refresh_halos_us".into(),
        median_us(&paced, &refreshes),
    );
    c.insert(
        "cluster.sharded_close_us".into(),
        median_us(&paced, &closes),
    );
    drop(pool);

    // One sessionless host-program job.
    let sgesl = layers::compile_source(layers::SGESL_F90)?;
    let s = inputs::sgesl_system(sizes.sgesl_n, seed, 48);
    let mut pool = Pool::load(&sgesl);
    let n = RtValue::I32(s.n as i32);
    c.insert(
        "cluster.run_us".into(),
        med_s(|| {
            let a = pool.host_f32(&s.a);
            let ipvt = pool.host_i32(&s.ipvt);
            let b = pool.host_f32(&s.b);
            pool.run(
                "sgesl",
                &[a.clone(), n.clone(), n.clone(), ipvt.clone(), b.clone()],
            );
            for v in [&a, &ipvt, &b] {
                pool.free(v);
            }
        }) * 1e6,
    );
    Ok(())
}

/// Launches per burst of the recorder on/off pairs.
const BURST: usize = 500;
const PAIRS: usize = 5;
/// Launches per connection of the two-connection storm.
const STORM2: usize = 1_000;

/// One untraced request: the reply and its latency in seconds.
fn call(client: &mut Client, method: &str, path: &str, body: &str) -> Result<(Value, f64), String> {
    let (reply, micros) = client.call(&mut Recorder::off(), "probe", method, path, body)?;
    Ok((reply, micros * 1e-6))
}

/// The scaled latencies of `k` identical requests, microseconds.
fn lat(
    client: &mut Client,
    k: usize,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Vec<f64>, String> {
    let mut pacer = Pacer::start();
    for _ in 0..k {
        pacer.record(call(client, method, path, body)?.1);
    }
    Ok(pacer
        .finish()
        .ops
        .iter()
        .map(|t| t.scaled_s * 1e6)
        .collect())
}

/// `serve.*` and `trace.*`: a server of their own, driven over HTTP.
fn serve(seed: u64, c: &mut Counters) -> Result<(), String> {
    let server = layers::start_server().map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr;
    let mut client = Client::connect(addr)?;

    let compile = layers::json_to_string(&obj(vec![("source", str_value(layers::SAXPY_F90))]));
    let (compiled, _) = call(&mut client, "POST", "/compile", &compile)?;
    let Value::Str(key) = http::get(&compiled, &["key"])? else {
        return Err("compile reply has no key".into());
    };
    let key = key.clone();
    c.insert(
        "serve.healthz_us".into(),
        stats::median(&lat(&mut client, BATCH, "GET", "/healthz", "")?),
    );
    c.insert(
        "serve.compile_cached_us".into(),
        stats::median(&lat(&mut client, 20, "POST", "/compile", &compile)?),
    );

    // Open and close with BIG_N-element arrays: JSON both ways.
    let open_body = |n: usize| {
        let x = inputs::vector(n, seed, 49);
        let y = inputs::vector(n, seed, 50);
        let map = |name: &str, kind: &str, data: &[f32]| {
            obj(vec![
                ("name", str_value(name)),
                ("kind", str_value(kind)),
                ("data", data.to_value()),
            ])
        };
        layers::json_to_string(&obj(vec![
            ("key", str_value(&key)),
            (
                "maps",
                Value::Arr(vec![map("x", "to", &x), map("y", "tofrom", &y)]),
            ),
        ]))
    };
    let big_open = open_body(BIG_N);
    let mut pacer = Pacer::start();
    let (mut opens, mut closes) = (Vec::new(), Vec::new());
    let mut close_reply = Value::Null;
    for _ in 0..5 {
        let (opened, s) = call(&mut client, "POST", "/sessions", &big_open)?;
        opens.push(pacer.record(s));
        let sid = http::get_u64(&opened, &["session"])?;
        let (reply, s) = call(&mut client, "DELETE", &format!("/sessions/{sid}"), "")?;
        closes.push(pacer.record(s));
        close_reply = reply;
    }
    let paced = pacer.finish();
    c.insert("serve.open_us".into(), median_us(&paced, &opens));
    c.insert("serve.close_us".into(), median_us(&paced, &closes));

    // The server's parser and serialiser alone, on what was just sent and
    // received.
    let parse_s = med_s(|| {
        let body = layers::serve_parse_body(&big_open);
        for m in http::as_arr(body.get("maps").expect("maps")).expect("array") {
            let data = http::as_arr(m.get("data").expect("data")).expect("array");
            std::hint::black_box(layers::serve_f32_slice(data));
        }
    });
    c.insert(
        "serve.json_parse_mb_per_s".into(),
        big_open.len() as f64 / 1e6 / parse_s,
    );
    let written = layers::json_to_string(&close_reply).len();
    let write_s = med_s(|| {
        std::hint::black_box(layers::json_to_string(&close_reply));
    });
    c.insert(
        "serve.json_write_mb_per_s".into(),
        written as f64 / 1e6 / write_s,
    );

    // Storm bursts on a TINY_N session, span recorder alternately on and
    // off: the recorder's share of a launch, and the latency tail.
    let tiny_open = open_body(TINY_N);
    let launch = layers::json_to_string(&obj(vec![
        ("kernel", str_value("saxpy_kernel0")),
        (
            "args",
            Value::Arr(vec![
                arg("array", "x"),
                arg("array", "y"),
                arg("index", TINY_N as i64),
                arg("index", TINY_N as i64),
                arg("f32", SAXPY_A as f64),
                arg("index", 1i64),
                arg("index", TINY_N as i64),
            ]),
        ),
    ]));
    let (opened, _) = call(&mut client, "POST", "/sessions", &tiny_open)?;
    let path = format!("/sessions/{}/launch", http::get_u64(&opened, &["session"])?);
    lat(&mut client, BURST, "POST", &path, &launch)?;
    let (mut ratios, mut on_us) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let mut burst_us = [0.0; 2];
        // Alternate which side runs first.
        for side in [pair % 2, 1 - pair % 2] {
            let on = side == 0;
            layers::trace_set_enabled(on);
            let us = lat(&mut client, BURST, "POST", &path, &launch)?;
            burst_us[side] = us.iter().sum();
            if on {
                on_us.extend(us);
            }
        }
        ratios.push(burst_us[0] / burst_us[1] - 1.0);
    }
    layers::trace_set_enabled(true);
    c.insert(
        "trace.recorder_overhead_share".into(),
        stats::median(&ratios),
    );
    let storm_p50 = stats::median(&on_us);
    c.insert("serve.req_p99_us".into(), stats::percentile(&on_us, 99.0));
    c.insert(
        "serve.http_overhead_us".into(),
        storm_p50 - c["cluster.launch_us_tiny"],
    );

    // What the pool says its jobs waited between enqueue and dispatch (the
    // per-device rows list every job); the pool's own clock, not scaled.
    let top = layers::json_from_str(&client.text("GET", "/profile/top?by=device&k=16")?)?;
    let (mut jobs, mut waited) = (0.0, 0.0);
    for row in http::as_arr(http::get(&top, &["rows"])?)? {
        jobs += http::get_f64(row, &["jobs"])?;
        waited += http::get_f64(row, &["queue_wait_seconds"])?;
    }
    c.insert("cluster.queue_wait_us_per_job".into(), waited * 1e6 / jobs);

    // Two connections, one session each, launching at once (the server has
    // two HTTP workers and the pool two devices).
    drop(client);
    let before = calib::measure();
    let started = Instant::now();
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(addr)?;
                    let (opened, _) = call(&mut client, "POST", "/sessions", &tiny_open)?;
                    let sid = http::get_u64(&opened, &["session"])?;
                    let path = format!("/sessions/{sid}/launch");
                    for _ in 0..STORM2 {
                        call(&mut client, "POST", &path, &launch)?;
                    }
                    call(&mut client, "DELETE", &format!("/sessions/{sid}"), "")?;
                    Ok(())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("storm thread"))
            .collect()
    });
    let storm2_s = started.elapsed().as_secs_f64() * calib::factor(before, calib::measure());
    outcomes.into_iter().collect::<Result<Vec<()>, String>>()?;
    c.insert(
        "serve.storm2_launches_per_s".into(),
        (2 * STORM2) as f64 / storm2_s,
    );

    // One span opened and dropped, recorder off and on.
    const SPANS: usize = 100_000;
    for (name, on) in [
        ("trace.disabled_span_ns", false),
        ("trace.enabled_span_ns", true),
    ] {
        layers::trace_set_enabled(on);
        let s = med_s(|| {
            for _ in 0..SPANS {
                layers::trace_span();
            }
        });
        c.insert(name.into(), s * 1e9 / SPANS as f64);
    }
    layers::trace_set_enabled(true);

    let mut client = Client::connect(addr)?;
    call(&mut client, "POST", "/shutdown", "")?;
    drop(client);
    server.join()
}

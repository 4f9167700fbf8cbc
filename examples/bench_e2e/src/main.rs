//! `bench_e2e`: one layered wall-clock + simulated-time benchmark for the
//! compile, launch, run and sharded-sweep paths. See `README.md` beside
//! this package for the metric glossary and how to read the output.
//!
//! ```text
//! bench_e2e [--seed N]                 the full report: five workloads, R = 7
//!                                      interleaved rounds, one traced rep each,
//!                                      every per-layer metric
//! bench_e2e --check                    the five scripts at 1/16 size, once,
//!                                      oracle on (a smoke step)
//! bench_e2e --repeat-check [--seed N]  the full set twice, compared against the
//!                                      benchmark's own bounds
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//!                                      one workload for S seconds; the last
//!                                      line of stdout is one JSON object
//! ```

mod calib;
mod http;
mod inputs;
mod ladder;
mod layers;
mod metrics;
mod probes;
mod proc;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde::Serialize;

use http::{obj, str_value};
use layers::Value;
use report::WorkloadResult;
use trace::Recorder;
use workloads::{Counters, Sizes, Workload};

/// Interleaved rounds of the full report.
const ROUNDS: usize = 7;
/// Set-ups per workload and run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest reps of a contract run, however short `--seconds`. Peak memory is
/// read after exactly this many, so it covers the same work on every run.
const MIN_REPS: usize = 3;
/// Untraced reps a traced contract run makes before its traced rep.
const TRACED_RUN_REPS: usize = 2;

struct Args {
    workload: Option<String>,
    child: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        child: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--child" => args.child = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--check" => args.check = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let sizes = if args.check {
            Sizes::CHECK
        } else {
            Sizes::FULL
        };
        if let Some(name) = &args.child {
            child(name, args.seed, sizes)
        } else if let Some(name) = &args.workload {
            contract_run(name, &args)
        } else if args.check {
            check(args.seed)
        } else if args.repeat_check {
            repeat_check(args.seed)
        } else {
            full_report(args.seed).and_then(|r| r.verdict())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where traces and the report go: `<target>/bench_e2e/`, beside the
/// `release/` directory this executable was built into.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("the executable has no target directory")?;
    let dir = target.join("bench_e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_json(file: &str, v: &Value) -> Result<(), String> {
    let path = out_dir()?.join(file);
    std::fs::write(&path, layers::json_to_string(v)).map_err(|e| format!("{}: {e}", path.display()))
}

// ---- driving one workload ----------------------------------------------------------

/// One workload and everything measured on it so far.
struct Driver {
    w: Box<dyn Workload>,
    result: WorkloadResult,
}

impl Driver {
    fn new(name: &str, seed: u64, sizes: Sizes) -> Result<Driver, String> {
        // Before any thread is spawned: they inherit the restriction.
        if workloads::runs_on_one_core(name) {
            proc::pin_to_one_core()?;
        }
        Ok(Driver {
            w: workloads::build(name, seed, sizes)?,
            result: WorkloadResult {
                name: name.to_string(),
                ..Default::default()
            },
        })
    }

    /// Set up once more (tearing the previous set-up down first, off the
    /// clock) and record the seconds it took.
    fn set_up(&mut self) -> Result<(), String> {
        self.w.tear_down()?;
        let cal = calib::measure();
        let t = Instant::now();
        self.w.set_up()?;
        let seconds = t.elapsed().as_secs_f64();
        self.result
            .setups
            .push((seconds, 0.5 * (cal + calib::measure())));
        Ok(())
    }

    fn rep(&mut self) {
        let rep = self.w.rep(&mut Recorder::off());
        self.result.reps.push(rep);
    }

    /// The traced rep and the workload's per-layer metrics; with `probes`,
    /// the workload-independent probe suite too. Returns the recorder for
    /// the caller to write out.
    fn traced(&mut self, probes: Option<(u64, Sizes)>) -> Result<Recorder, String> {
        let mut rec = Recorder::on();
        let rep = self.w.rep(&mut rec);
        let mut layers = match &rep.error {
            None => self.w.layer_metrics(&mut rec)?,
            Some(_) => Counters::new(),
        };
        if let Some((seed, sizes)) = probes {
            // The probes are the same on every workload: never pinned.
            proc::unpin()?;
            layers.extend(probes::run(seed, &sizes, &mut rec)?);
        }
        if let Some(wall) = self.result.end_to_end().get("wall_s") {
            layers.insert(
                "bench.probe_overhead_share".into(),
                rep.wall.scaled_s / wall.scaled.median - 1.0,
            );
            layers.insert("bench.rep_spread".into(), wall.scaled.spread());
        }
        self.result.traced = Some(rep);
        self.result.layers = layers;
        Ok(rec)
    }

    /// The deferred oracle, tear-down and (unless the caller has read it
    /// already) peak memory.
    fn finish(&mut self) {
        if let Err(e) = self.w.final_check() {
            self.result.errors.push(format!("final check: {e}"));
        }
        if let Err(e) = self.w.tear_down().and_then(|()| proc::unpin()) {
            self.result.errors.push(format!("tear-down: {e}"));
        }
        if self.result.peak_rss_mb == 0.0 {
            self.result.peak_rss_mb = proc::peak_rss_mb();
        }
    }
}

// ---- the contract run: one workload, one JSON line -------------------------------

fn contract_run(name: &str, args: &Args) -> Result<(), String> {
    let mut d = Driver::new(name, args.seed, Sizes::FULL)?;
    let mut metrics = Vec::new();
    if args.trace {
        d.set_up()?;
        for _ in 0..TRACED_RUN_REPS {
            d.rep();
        }
        let rec = d.traced(Some((args.seed, Sizes::FULL)))?;
        write_json(&format!("trace-{name}.json"), &rec.chrome_json())?;
        d.finish();
        // The rep's simulated statistics are per-layer metrics too.
        let counters = d.result.counters();
        for (metric, unit) in metrics::per_layer() {
            let v = counters
                .get(&metric)
                .or_else(|| d.result.layers.get(&metric))
                .copied()
                .unwrap_or(0.0);
            metrics.push((metric, v, unit));
        }
    } else {
        for _ in 0..SETUPS {
            d.set_up()?;
        }
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        while d.result.reps.len() < MIN_REPS || Instant::now() < deadline {
            d.rep();
            if d.result.reps.len() == MIN_REPS {
                d.result.peak_rss_mb = proc::peak_rss_mb();
            }
        }
        d.finish();
        let e2e = d.result.end_to_end();
        for (metric, unit, _) in metrics::END_TO_END {
            let e = e2e
                .get(metric)
                .ok_or_else(|| format!("{name} measured no {metric}"))?;
            metrics.push((metric.to_string(), e.scaled.median, unit));
        }
    }
    d.result.check_determinism()?;
    report::print_rows(&d.result);
    let metrics = metrics
        .into_iter()
        .map(|(name, v, unit)| {
            (
                name,
                obj(vec![("value", v.to_value()), ("unit", str_value(unit))]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(d.result.failed() == 0)),
        ("attempted", d.result.attempted().to_value()),
        ("failed", d.result.failed().to_value()),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", layers::json_to_string(&line));
    Ok(())
}

// ---- --check -------------------------------------------------------------------------

fn check(seed: u64) -> Result<(), String> {
    let started = Instant::now();
    let mut failures = Vec::new();
    for name in workloads::NAMES {
        let mut d = Driver::new(name, seed, Sizes::CHECK)?;
        d.set_up()?;
        d.rep();
        d.finish();
        let r = &d.result;
        println!(
            "{name} check wall_s={:.3} failed={} attempted={}",
            r.reps[0].wall.raw_s,
            r.failed(),
            r.attempted()
        );
        failures.extend(r.all_errors().into_iter().map(|e| format!("{name}: {e}")));
    }
    println!("check took {:.1} s", started.elapsed().as_secs_f64());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

// ---- the full report: one child process per workload ----------------------------

/// The child side: set up, warm up, then serve `rep` / `traced` / `finish`
/// commands from stdin, answering each with one line on stdout.
fn child(name: &str, seed: u64, sizes: Sizes) -> Result<(), String> {
    let mut d = Driver::new(name, seed, sizes)?;
    for _ in 0..SETUPS {
        d.set_up()?;
    }
    // One untimed rep: let caches fill and lazy set-up finish.
    d.w.rep(&mut Recorder::off());
    println!("ready");
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        match line.trim() {
            "rep" => {
                d.rep();
                println!("done");
            }
            "traced" => {
                let rec = d.traced(None)?;
                write_json(&format!("trace-{name}.json"), &rec.chrome_json())?;
                println!("done");
            }
            "finish" => {
                d.finish();
                println!("{}", layers::json_to_string(&d.result.to_value()));
                return Ok(());
            }
            other => return Err(format!("unknown command '{other}'")),
        }
    }
    Err("stdin closed before 'finish'".into())
}

/// The parent's handle on one child.
struct Worker {
    name: &'static str,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Spawn the child and wait until it is set up and warmed up (children
    /// set up one at a time, so set-up times do not disturb each other).
    fn spawn(name: &'static str, seed: u64) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--child", name, "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut w = Worker {
            name,
            child,
            stdin,
            stdout,
        };
        match w.read_line()?.as_str() {
            "ready" => Ok(w),
            other => Err(format!("{name}: expected 'ready', got '{other}'")),
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("{}: {e}", self.name))?;
        if n == 0 {
            let status = self.child.wait().map_err(|e| e.to_string())?;
            return Err(format!("{} exited early ({status})", self.name));
        }
        Ok(line.trim().to_string())
    }

    /// Send one command and return the child's one-line answer.
    fn command(&mut self, command: &str) -> Result<String, String> {
        writeln!(self.stdin, "{command}").map_err(|e| format!("{}: {e}", self.name))?;
        self.read_line()
    }

    fn finish(mut self) -> Result<WorkloadResult, String> {
        let line = self.command("finish")?;
        let result = WorkloadResult::from_value(&layers::json_from_str(&line)?)?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("{} exited with {status}", self.name));
        }
        Ok(result)
    }
}

/// One full set of runs.
struct Report {
    header: Value,
    workloads: Vec<WorkloadResult>,
    probes: Counters,
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn full_report(seed: u64) -> Result<Report, String> {
    let header = obj(vec![
        ("nproc", proc::nproc().to_value()),
        (
            "git",
            str_value(&tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", str_value(&tool_output("rustc", &["-V"]))),
        ("seed", seed.to_value()),
        ("rounds", ROUNDS.to_value()),
        ("sizes", Sizes::FULL.to_value()),
    ]);
    println!("# {}", layers::json_to_string(&header));

    let mut workers = Vec::new();
    for name in workloads::NAMES {
        workers.push(Worker::spawn(name, seed)?);
    }
    // Round r runs one rep of each workload in turn, so a noise burst lands
    // on one rep of each workload instead of on all reps of one.
    for _ in 0..ROUNDS {
        for w in &mut workers {
            w.command("rep")?;
        }
    }
    for w in &mut workers {
        w.command("traced")?;
    }
    let workloads = workers
        .into_iter()
        .map(Worker::finish)
        .collect::<Result<Vec<_>, _>>()?;

    let mut rec = Recorder::on();
    let probes = probes::run(seed, &Sizes::FULL, &mut rec)?;
    write_json("trace-probes.json", &rec.chrome_json())?;

    for r in &workloads {
        report::print_rows(r);
    }
    for (name, v) in &probes {
        println!("probe {name} {v} {}", metrics::unit_of(name));
    }
    let report = Report {
        header,
        workloads,
        probes,
    };
    write_json("report.json", &report.to_value())?;
    Ok(report)
}

impl Report {
    fn to_value(&self) -> Value {
        obj(vec![
            ("header", self.header.clone()),
            (
                "workloads",
                Value::Arr(
                    self.workloads
                        .iter()
                        .map(WorkloadResult::to_value)
                        .collect(),
                ),
            ),
            ("probes", report::counters_value(&self.probes)),
        ])
    }

    /// Fail on any failed op, oracle failure or nondeterministic counter.
    fn verdict(&self) -> Result<(), String> {
        for r in &self.workloads {
            r.check_determinism()?;
            if r.failed() > 0 {
                return Err(format!(
                    "{}: {} of {} ops failed: {}",
                    r.name,
                    r.failed(),
                    r.attempted(),
                    r.all_errors().join("; ")
                ));
            }
        }
        Ok(())
    }
}

// ---- --repeat-check ------------------------------------------------------------------

/// Run the whole set twice and compare: every gated metric within its
/// bound, every simulated statistic and count exactly equal.
fn repeat_check(seed: u64) -> Result<(), String> {
    let first = full_report(seed)?;
    first.verdict()?;
    let second = full_report(seed)?;
    second.verdict()?;
    let mut bad = Vec::new();
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        let (ea, eb) = (a.end_to_end(), b.end_to_end());
        for (metric, unit, bound) in metrics::END_TO_END {
            let (Some(x), Some(y)) = (ea.get(metric), eb.get(metric)) else {
                continue;
            };
            let (x, y) = (x.scaled, y.scaled);
            let diff = (y.median - x.median) / x.median;
            let verdict = if diff.abs() > bound { "EXCEEDS" } else { "ok" };
            println!(
                "repeat {} {metric} first={:.6} second={:.6} {unit} diff={:+.4} bound={bound} {verdict}",
                a.name, x.median, y.median, diff
            );
            if diff.abs() > bound {
                bad.push(format!("{} {metric} differs by {diff:+.4}", a.name));
            }
        }
        let (ca, cb) = (a.counters(), b.counters());
        for (name, x) in ca.iter().chain(&a.layers) {
            let y = cb.get(name).or_else(|| b.layers.get(name));
            if metrics::is_exact(name) && !y.is_some_and(|y| report::same_counter(*x, *y)) {
                bad.push(format!("{} {name}: {x} then {y:?}", a.name));
            }
        }
    }
    for (name, x) in &first.probes {
        let y = second.probes.get(name);
        if metrics::is_exact(name) && !y.is_some_and(|y| report::same_counter(*x, *y)) {
            bad.push(format!("probe {name}: {x} then {y:?}"));
        }
    }
    if bad.is_empty() {
        println!("repeat-check: both sets agree");
        Ok(())
    } else {
        Err(format!("repeat-check: {}", bad.join("; ")))
    }
}

//! `ftn` — the command-line driver (the repository's namesake tool).
//!
//! ```text
//! ftn <input.f90> [--out DIR] [--quiet]      compile one Fortran file
//! ftn top HOST:PORT [--interval MS]          live terminal dashboard over a
//!           [-k ROWS] [--once]               running serve instance: top-K
//!                                            kernels/sessions/devices
//!                                            and utilization
//! ftn serve [--port P]                       run the compile-and-run service
//!           [--devices N | u280,u250,...]    pool size, or an explicit
//!                                            (heterogeneous) device list
//!           [--workers W] [--cache-dir DIR]
//!           [--idle-timeout SECS]            keep-alive idle timeout
//!           [--trace-buffer EVENTS]          span-ring capacity per lane
//!                                            (0 disables tracing)
//!           [--log-level LEVEL]              error|warn|info|debug|trace
//! ```
//!
//! Compile mode runs the full OpenMP→FPGA pipeline and writes every artifact
//! next to the input (or to `--out DIR`): `<stem>.host.mlir`,
//! `<stem>.device.mlir`, `<stem>.host.cpp`, `<stem>.ll`, `<stem>.llvm7.ll`,
//! `<stem>.xclbin.json`.
//!
//! Serve mode starts `ftn-serve`: a keep-alive HTTP/1.1 JSON service with a
//! content-addressed compile cache and persistent `target data` sessions
//! over a simulated multi-FPGA pool; a session's `shards` field shards it
//! across the pool (ftn-shard; see the README "ftn-serve"/"ftn-shard"
//! sections for the API).
//! Observability: `GET /metrics` (Prometheus text 0.0.4; history and
//! alerting are the scraping Prometheus server's), `GET /trace` (Chrome
//! trace-event JSON) and `GET /profile` — see `docs/OBSERVABILITY.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use ftn_core::Compiler;
use ftn_serve::{ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("top") => top(&args[1..]),
        _ => compile(&args),
    }
}

fn top(args: &[String]) -> ExitCode {
    use std::net::ToSocketAddrs;
    let mut addr_text: Option<String> = None;
    let mut opts = ftn_serve::top::TopOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--interval" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(ms) => opts.interval_ms = ms,
                    None => {
                        eprintln!("error: --interval needs a number of milliseconds");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-k" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(k) if k > 0 => opts.k = k,
                    _ => {
                        eprintln!("error: -k needs a positive row count");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--once" => opts.once = true,
            "--help" | "-h" => {
                eprintln!("usage: ftn top HOST:PORT [--interval MS] [-k ROWS] [--once]");
                return ExitCode::SUCCESS;
            }
            other if addr_text.is_none() && !other.starts_with('-') => {
                addr_text = Some(other.to_string());
            }
            other => {
                eprintln!("error: unknown top flag '{other}' (try --help)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(addr_text) = addr_text else {
        eprintln!("error: ftn top needs a server address (HOST:PORT)");
        return ExitCode::FAILURE;
    };
    let addr = match addr_text.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("error: cannot resolve '{addr_text}' (want HOST:PORT)");
            return ExitCode::FAILURE;
        }
    };
    match ftn_serve::top::run(addr, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: ftn top: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    let mut port: u16 = 8080;
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(p) => port = p,
                    None => {
                        eprintln!("error: --port needs a number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--devices" => {
                i += 1;
                // `--devices 4` is a homogeneous pool of N U280s;
                // `--devices u280,u280,u250` (optionally `name@MHZ`) is an
                // explicit, possibly heterogeneous, composition.
                match args.get(i) {
                    Some(v) => {
                        if let Ok(n) = v.parse::<usize>() {
                            if n == 0 {
                                eprintln!("error: --devices needs a positive number");
                                return ExitCode::FAILURE;
                            }
                            config.devices = n;
                        } else if let Some(models) = ftn_fpga::DeviceModel::parse_list(v) {
                            config.devices = models.len();
                            config.device_models = Some(models);
                        } else {
                            eprintln!(
                                "error: --devices needs a count or a device list \
                                 (u280|u250|u55c[@MHZ], comma-separated)"
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                    None => {
                        eprintln!("error: --devices needs a value");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => config.workers = n,
                    _ => {
                        eprintln!("error: --workers needs a positive number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--cache-dir" => {
                i += 1;
                config.cache_dir = args.get(i).map(PathBuf::from);
            }
            "--idle-timeout" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(secs) if secs > 0 => config.idle_timeout_secs = secs,
                    _ => {
                        eprintln!("error: --idle-timeout needs a positive number of seconds");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--trace-buffer" => {
                i += 1;
                // 0 is meaningful: it disables span recording entirely.
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(events) => config.trace_buffer = events,
                    None => {
                        eprintln!("error: --trace-buffer needs a number of events (0 disables)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--log-level" => {
                i += 1;
                match args.get(i).and_then(|v| ftn_trace::Level::parse(v)) {
                    Some(level) => config.log_level = level,
                    None => {
                        eprintln!("error: --log-level needs error|warn|info|debug|trace");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: ftn serve [--port P] [--devices N|u280,u250,...] [--workers W] [--cache-dir DIR] [--idle-timeout SECS] [--trace-buffer EVENTS] [--log-level LEVEL]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown serve flag '{other}' (try --help)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let server = match Server::bind(("127.0.0.1", port), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind 127.0.0.1:{port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ftn-serve listening on http://{}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compile(args: &[String]) -> ExitCode {
    let mut input: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = args.get(i).map(PathBuf::from);
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: ftn <input.f90> [--out DIR] [--quiet]");
                eprintln!("       ftn serve [--port P] [--devices N] [--workers W]");
                return ExitCode::SUCCESS;
            }
            other => input = Some(PathBuf::from(other)),
        }
        i += 1;
    }
    let Some(input) = input else {
        eprintln!("error: no input file (try --help)");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", input.display());
            return ExitCode::FAILURE;
        }
    };
    let artifacts = match Compiler::default().compile_source(&source) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stem = input
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".into());
    let dir = out_dir.unwrap_or_else(|| input.parent().map(PathBuf::from).unwrap_or_default());
    let _ = std::fs::create_dir_all(&dir);
    let write = |name: &str, contents: &str| {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("error: cannot write {}: {e}", path.display());
        } else if !quiet {
            println!("wrote {}", path.display());
        }
    };
    write(&format!("{stem}.host.mlir"), &artifacts.host_module_text);
    write(
        &format!("{stem}.device.mlir"),
        &artifacts.device_module_text,
    );
    write(&format!("{stem}.host.cpp"), &artifacts.host_cpp);
    write(&format!("{stem}.ll"), &artifacts.llvm_ir);
    write(&format!("{stem}.llvm7.ll"), &artifacts.llvm7_ir);
    write(
        &format!("{stem}.xclbin.json"),
        &artifacts.bitstream.to_json(),
    );
    if !quiet {
        for k in &artifacts.bitstream.kernels {
            println!(
                "kernel {}: {} LUT / {} BRAM / {} DSP; {} loop(s) scheduled",
                k.name,
                k.resources.lut,
                k.resources.bram,
                k.resources.dsp,
                k.schedule.len()
            );
        }
    }
    ExitCode::SUCCESS
}

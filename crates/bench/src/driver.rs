//! What every `bench_*` binary shares: the `[--out PATH] [--quick]` command
//! line with its write-report tail, and the in-process `ftn-serve`
//! start/stop pair the HTTP benchmarks drive.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use ftn_serve::{ServeConfig, Server};
use serde::Serialize;

/// Drive one `bench_*` binary: parse `[--out PATH] [--quick] [--help]`,
/// `run(quick)` the benchmark, let `summarize` print the human-readable
/// lines and name every violated floor, write the report as pretty JSON to
/// the output path (`default_out` unless `--out` overrides it), and fail the
/// process when any floor was violated.
pub fn bench_main<R: Serialize>(
    name: &str,
    default_out: &str,
    run: impl FnOnce(bool) -> R,
    summarize: impl FnOnce(&R) -> Vec<String>,
) -> ExitCode {
    let mut out = PathBuf::from(default_out);
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("error: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!("usage: {name} [--out PATH] [--quick]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown flag '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = run(quick);
    let violations = summarize(&report);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());
    for v in &violations {
        eprintln!("error: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The serving thread of a benchmark server.
pub type ServerHandle = std::thread::JoinHandle<std::io::Result<()>>;

/// Bind `ftn-serve` on an ephemeral port and serve it on a thread.
pub fn start_server(config: ServeConfig) -> (SocketAddr, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind bench server");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// `POST /shutdown` and join the serving thread.
pub fn stop_server(addr: SocketAddr, handle: ServerHandle) {
    let (status, _) =
        ftn_serve::client::request(addr, "POST", "/shutdown", "").expect("shutdown round-trips");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean run");
}

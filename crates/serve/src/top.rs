//! `ftn top` — a std-only, plain-ANSI terminal dashboard over a running
//! `ftn serve` instance.
//!
//! Each frame is one keep-alive connection polling two endpoints:
//! `GET /profile/top` (the per-kernel / per-session / per-device cost
//! attribution tables) and `GET /metrics` (uptime, request/job totals and
//! the `ftn_device_utilization` gauges).
//! Rendering is pure text — [`render_once`] returns the frame as a `String`
//! so tests and `--once` runs can capture it; the interactive loop just
//! reprints it behind an ANSI clear-screen.

use std::net::SocketAddr;
use std::time::Duration;

use serde::Value;

use crate::client::Conn;

/// Options of the `ftn top` loop.
#[derive(Clone, Debug)]
pub struct TopOptions {
    /// Milliseconds between frames (clamped to ≥ 100).
    pub interval_ms: u64,
    /// Rows per attribution table.
    pub k: usize,
    /// Render one frame to stdout and exit (no screen clearing).
    pub once: bool,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            interval_ms: 1000,
            k: 10,
            once: false,
        }
    }
}

/// Poll the server once and render a full dashboard frame.
pub fn render_once(addr: SocketAddr, k: usize) -> std::io::Result<String> {
    let mut conn = Conn::open(addr)?;
    let (_, metrics_text) = conn.request_text("GET", "/metrics", "")?;
    let metrics = metric_values(&metrics_text);
    let mut tables = Vec::new();
    for by in ["kernel", "session", "device"] {
        let (status, top) = conn.request("GET", &format!("/profile/top?by={by}&k={k}"), "")?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "GET /profile/top?by={by} returned {status}"
            )));
        }
        tables.push((by, top));
    }

    let mut frame = String::new();
    let uptime = metric(&metrics, "ftn_uptime_seconds");
    let requests = metric(&metrics, "ftn_http_requests_total");
    let jobs = metric(&metrics, "ftn_pool_jobs_total");
    frame.push_str(&format!(
        "ftn top — {addr}   up {}s   requests {}   jobs {}\n",
        uptime as u64, requests as u64, jobs as u64
    ));

    // Utilization line: every ftn_device_utilization{pool="P",device="N"}
    // gauge, in name order (absent entirely when span recording is
    // disabled).
    let util: Vec<&(String, f64)> = metrics
        .iter()
        .filter(|(name, _)| name.starts_with("ftn_device_utilization{"))
        .collect();
    if util.is_empty() {
        frame.push_str("devices: (no utilization gauges — tracing disabled?)\n");
    } else {
        frame.push_str("devices:");
        for (name, value) in util {
            let (pool, device) = (label(name, "pool"), label(name, "device"));
            frame.push_str(&format!("  {pool}/{device}: {value:.0}% busy"));
        }
        frame.push_str("   (trailing-1s busy %)\n");
    }
    frame.push('\n');

    for (by, top) in &tables {
        frame.push_str(&table(by, top));
    }
    Ok(frame)
}

/// The polling loop behind `ftn top ADDR`. With `once`, prints a single
/// frame and returns; otherwise reprints behind an ANSI clear-screen until
/// the connection fails (server shutdown ends the loop with an error).
pub fn run(addr: SocketAddr, opts: &TopOptions) -> std::io::Result<()> {
    use std::io::Write as _;
    loop {
        let frame = render_once(addr, opts.k)?;
        let mut out = std::io::stdout().lock();
        if opts.once {
            out.write_all(frame.as_bytes())?;
            out.flush()?;
            return Ok(());
        }
        // Clear screen + cursor home, then the frame.
        out.write_all(b"\x1b[2J\x1b[H")?;
        out.write_all(frame.as_bytes())?;
        out.flush()?;
        drop(out);
        std::thread::sleep(Duration::from_millis(opts.interval_ms.max(100)));
    }
}

/// Parse a Prometheus text exposition into `(series name, value)` pairs.
/// Comment lines are skipped.
fn metric_values(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let name = fields.next()?;
            let value: f64 = fields.next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

fn metric(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

/// The value of label `key` in series `name` (`"?"` when it has none).
fn label<'n>(name: &'n str, key: &str) -> &'n str {
    let rest = name.split(&format!("{key}=\"")).nth(1);
    rest.and_then(|rest| rest.split('"').next()).unwrap_or("?")
}

/// Render one `/profile/top` response as a fixed-width table.
fn table(by: &str, top: &Value) -> String {
    let mut out = format!(
        "TOP {} (by simulated cycles)\n  {:<24} {:>6} {:>14} {:>10} {:>10} {:>10}\n",
        by.to_uppercase(),
        "KEY",
        "JOBS",
        "CYCLES",
        "SIM(s)",
        "QWAIT(s)",
        "MOVED"
    );
    let rows = match top.get("rows") {
        Some(Value::Arr(rows)) => rows.as_slice(),
        _ => &[],
    };
    if rows.is_empty() {
        out.push_str("  (no completed jobs yet)\n");
    }
    for row in rows {
        let key = crate::api::get_opt_str(row, "key").unwrap_or("?");
        out.push_str(&format!(
            "  {:<24} {:>6} {:>14} {:>10.4} {:>10.4} {:>10}\n",
            key,
            num(row, "jobs") as u64,
            num(row, "sim_cycles") as u64,
            num(row, "sim_seconds"),
            num(row, "queue_wait_seconds"),
            human_bytes(num(row, "bytes_moved") as u64),
        ));
    }
    out.push('\n');
    out
}

/// A numeric field of a JSON object, 0 when missing or non-numeric.
fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Int(n)) => *n as f64,
        Some(Value::Float(n)) => *n,
        _ => 0.0,
    }
}

/// `1536` → `1.5KiB`, kept to one decimal so table columns stay narrow.
fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::obj;

    #[test]
    fn metric_values_skip_comments() {
        let text = "# HELP ftn_uptime_seconds x\n\
                    # TYPE ftn_uptime_seconds gauge\n\
                    ftn_uptime_seconds 42\n\
                    ftn_http_request_seconds_sum 0.5\n\
                    ftn_device_utilization{pool=\"ab12cd34\",device=\"0\"} 63\n";
        let metrics = metric_values(text);
        assert_eq!(metric(&metrics, "ftn_uptime_seconds"), 42.0);
        assert_eq!(metric(&metrics, "ftn_http_request_seconds_sum"), 0.5);
        let util = "ftn_device_utilization{pool=\"ab12cd34\",device=\"0\"}";
        assert_eq!(metric(&metrics, util), 63.0);
        assert_eq!(
            (label(util, "pool"), label(util, "device")),
            ("ab12cd34", "0")
        );
        assert_eq!(label(util, "kernel"), "?");
        assert_eq!(metric(&metrics, "missing"), 0.0);
    }

    #[test]
    fn table_renders_rows_and_handles_empty() {
        let top = obj(vec![
            ("by", Value::Str("kernel".into())),
            (
                "rows",
                Value::Arr(vec![obj(vec![
                    ("key", Value::Str("saxpy_kernel0".into())),
                    ("jobs", Value::UInt(4)),
                    ("sim_cycles", Value::UInt(123456)),
                    ("sim_seconds", Value::Float(0.25)),
                    ("queue_wait_seconds", Value::Float(0.001)),
                    ("bytes_moved", Value::UInt(2048)),
                ])]),
            ),
        ]);
        let text = table("kernel", &top);
        assert!(text.contains("TOP KERNEL"), "{text}");
        assert!(text.contains("saxpy_kernel0"), "{text}");
        assert!(text.contains("123456"), "{text}");
        assert!(text.contains("2.0KiB"), "{text}");
        let empty = table("session", &obj(vec![("rows", Value::Arr(Vec::new()))]));
        assert!(empty.contains("no completed jobs yet"), "{empty}");
    }

    #[test]
    fn human_bytes_picks_the_right_unit() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(1536), "1.5KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0MiB");
    }
}

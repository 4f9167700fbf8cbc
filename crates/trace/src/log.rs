//! A structured, leveled event log: bounded in-memory ring plus stderr
//! emission, with the max level settable at runtime (`ftn serve
//! --log-level`). When span recording is enabled, log events are mirrored
//! into the trace as instant events so they appear on the Perfetto
//! timeline next to the spans they interleave with.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::{lock, span};

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or dropped work.
    Error = 0,
    /// Suspicious but tolerated.
    Warn = 1,
    /// Lifecycle events (default max level).
    Info = 2,
    /// Per-request detail.
    Debug = 3,
    /// Per-job detail.
    Trace = 4,
}

impl Level {
    /// Parse the CLI spelling (`error|warn|info|debug|trace`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// One recorded log event.
#[derive(Clone, Debug)]
pub struct LogEvent {
    /// Nanoseconds since the process trace epoch.
    pub nanos: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem tag (`serve`, `cluster`, …).
    pub target: String,
    /// The message.
    pub message: String,
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

const LOG_RING: usize = 1024;

fn ring() -> &'static Mutex<VecDeque<LogEvent>> {
    static RING: OnceLock<Mutex<VecDeque<LogEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// The current max emitted level.
pub fn max_level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Set the max emitted level (events above it are dropped).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Emit a log event: stderr line, ring-buffer entry, and (when tracing is
/// enabled) an instant event on the caller's trace lane.
pub fn log(level: Level, target: &str, message: impl Into<String>) {
    if level > max_level() {
        return;
    }
    let message = message.into();
    let nanos = span::now_nanos();
    eprintln!(
        "[{:>12.6} {:5} {}] {message}",
        nanos as f64 * 1e-9,
        level.as_str(),
        target
    );
    span::instant(
        format!("log.{}", level.as_str()),
        "log",
        vec![
            ("target".to_string(), target.to_string()),
            ("message".to_string(), message.clone()),
        ],
    );
    let mut ring = lock(ring());
    while ring.len() >= LOG_RING {
        ring.pop_front();
    }
    ring.push_back(LogEvent {
        nanos,
        level,
        target: target.to_string(),
        message,
    });
}

/// Snapshot of the buffered log events, oldest first.
pub fn events() -> Vec<LogEvent> {
    lock(ring()).iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_round_trips() {
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn max_level_filters() {
        let before = events().len();
        log(Level::Trace, "test", "dropped by default");
        assert_eq!(events().len(), before, "trace above default info level");
        log(Level::Error, "test", "kept");
        assert!(events().len() > before);
    }
}

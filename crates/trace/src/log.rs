//! A leveled event log emitted to stderr, with the max level settable at
//! runtime (`ftn serve --log-level`). When span recording is enabled, log
//! events are mirrored into the trace as instant events so they appear on
//! the Perfetto timeline next to the spans they interleave with.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::span;

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

    /// The name of the trace instant event that mirrors a log line.
    fn event_name(self) -> &'static str {
        match self {
            Level::Error => "log.error",
            Level::Warn => "log.warn",
            Level::Info => "log.info",
            Level::Debug => "log.debug",
            Level::Trace => "log.trace",
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

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// The current max emitted level.
pub fn max_level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Set the max emitted level (events above it are dropped).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether an event at `level` is emitted under max level `max`.
fn passes(level: Level, max: Level) -> bool {
    level <= max
}

/// Emit a log event: stderr line and (when tracing is enabled) an instant
/// event on the caller's trace lane.
pub fn log(level: Level, target: &str, message: impl Into<String>) {
    if !passes(level, max_level()) {
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
        level.event_name(),
        "log",
        &[
            ("target", target.into()),
            ("message", message.as_str().into()),
        ],
    );
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
            assert_eq!(l.event_name().strip_prefix("log."), Some(l.as_str()));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn max_level_filters() {
        assert_eq!(max_level(), Level::Info, "the default");
        assert!(!passes(Level::Trace, Level::Info), "trace above info");
        assert!(!passes(Level::Debug, Level::Info));
        assert!(passes(Level::Info, Level::Info), "the max level itself");
        assert!(passes(Level::Error, Level::Info));
        assert!(passes(Level::Trace, Level::Trace));
    }
}

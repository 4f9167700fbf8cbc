//! Chrome trace-event JSON export — the `GET /trace` payload, viewable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Every recorder lane becomes one timeline row (`tid` = lane index, named
//! after the recording thread via `thread_name` metadata), so the pool's
//! `ftn-device-N` workers and the server's `ftn-serve-N` HTTP workers each
//! get their own lane. Spans are emitted as complete (`"ph":"X"`) events
//! with microsecond timestamps; the trace/span/parent ids ride along in
//! `args` so a request can be followed across lanes.

use serde::Value;

use crate::span::{snapshot_range, LaneSnapshot, SpanEvent};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn event_json(lane: usize, e: &SpanEvent) -> Value {
    let mut args = vec![
        ("trace_id".to_string(), Value::UInt(e.trace_id)),
        ("span_id".to_string(), Value::UInt(e.span_id)),
        ("parent_id".to_string(), Value::UInt(e.parent_id)),
    ];
    for (k, v) in e.args.iter() {
        args.push((k.to_string(), Value::Str(v.to_string())));
    }
    let ph = if e.dur_nanos == 0 { "i" } else { "X" };
    let mut fields = vec![
        ("name", Value::Str(e.name.to_string())),
        ("cat", Value::Str(e.cat.to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("ts", Value::Float(e.start_nanos as f64 / 1000.0)),
    ];
    if e.dur_nanos > 0 {
        fields.push(("dur", Value::Float(e.dur_nanos as f64 / 1000.0)));
    } else {
        fields.push(("s", Value::Str("t".to_string())));
    }
    fields.extend([
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(lane as u64)),
        ("args", Value::Obj(args)),
    ]);
    obj(fields)
}

fn lane_metadata(lane: &LaneSnapshot) -> Value {
    obj(vec![
        ("name", Value::Str("thread_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(lane.lane as u64)),
        ("args", obj(vec![("name", Value::Str(lane.name.clone()))])),
    ])
}

/// Render everything recorded since `since_nanos` (0 = all buffered events)
/// as a Chrome trace-event JSON document.
pub fn export_chrome(since_nanos: u64) -> String {
    export_chrome_range(since_nanos, u64::MAX)
}

/// Render events overlapping the `[since_nanos, until_nanos]` window — the
/// bounded form behind `GET /trace?since=&until=`.
pub fn export_chrome_range(since_nanos: u64, until_nanos: u64) -> String {
    let lanes = snapshot_range(since_nanos, until_nanos);
    let mut events = vec![obj(vec![
        ("name", Value::Str("process_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(0)),
        ("args", obj(vec![("name", Value::Str("ftn".to_string()))])),
    ])];
    for lane in &lanes {
        events.push(lane_metadata(lane));
        for e in &lane.events {
            events.push(event_json(lane.lane, e));
        }
    }
    let doc = obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| "{\"traceEvents\":[]}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_valid_json_with_metadata() {
        let text = export_chrome(u64::MAX);
        let doc = serde_json::value_from_str(&text).expect("export parses");
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("missing traceEvents array");
        };
        assert!(!events.is_empty(), "process_name metadata always present");
        let first = &events[0];
        assert!(matches!(first.get("ph"), Some(Value::Str(s)) if s == "M"));
    }
}

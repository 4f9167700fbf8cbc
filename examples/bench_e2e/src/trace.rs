//! The benchmark's own span recorder: an in-memory `Vec` of spans taken
//! from outside the program, around the calls into each layer. It is off
//! during the timed rounds (end-to-end numbers never come from a traced
//! rep) and written out as a Chrome trace-event file when the run ends.

use std::time::Instant;

use crate::layers::Value;

/// One recorded interval. `parent` indexes the recorder's span list;
/// `trace` is shared by every span of one rep.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace: u64,
}

/// See the module docs.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Recorder {
    /// A recorder that records nothing: the timed rounds' recorder.
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    /// A recording recorder: the traced rep's.
    pub fn on() -> Recorder {
        Recorder::new(true)
    }

    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. A root span starts a new trace id.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.open.is_empty() {
            self.trace += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trace: self.trace,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's duration minus the part its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, microseconds);
    /// opens in Perfetto. One lane per trace id.
    pub fn chrome_json(&self) -> Value {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(s.trace)),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), Value::UInt(id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                            ),
                            ("self_us".into(), Value::Float(own[id] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_a_trace() {
        let mut rec = Recorder::on();
        rec.span("rep", |rec| {
            rec.span("http.launch", |_| {});
            rec.span("http.close", |_| {});
        });
        rec.span("ladder", |_| {});
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].trace, spans[2].trace);
        assert_ne!(spans[0].trace, spans[3].trace, "a new root is a new trace");
        let children: u64 = spans[1..3].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            rec.self_ns()[0],
            spans[0].end_ns - spans[0].start_ns - children
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("rep", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}

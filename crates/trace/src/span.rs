//! The span recorder: per-thread ring buffers of completed spans with a
//! process-global registry of lanes (one per thread that ever recorded).
//!
//! Recording is designed around three costs:
//!
//! - **Disabled** (the default): [`span`] is one relaxed atomic load and
//!   returns an empty guard — no allocation, no lock, no clock read.
//! - **Enabled hot path**: creating a span reads the monotonic clock and
//!   fills in the [`SpanEvent`] it will record. Names are `&'static str`
//!   and arg values are kept as they were recorded ([`Args`]: integers and
//!   floats as numbers, text copied into the event), so a span allocates
//!   and formats nothing once its lane is warm; values are rendered only
//!   where they are read. Dropping the span stamps the duration and pushes
//!   that event into the calling thread's own ring buffer, whose mutex is
//!   uncontended except during an export snapshot.
//! - **Bounded memory**: each lane is a ring of at most the configured
//!   capacity, each event packed into the bytes it uses; old events fall
//!   off the front and free nothing.
//!
//! Spans nest through a thread-local stack (parent ids are assigned
//! automatically) and carry a trace id installed with [`trace_scope`] —
//! worker threads continue a submitting request's trace by re-installing
//! its id and linking the job span to the submitting span with
//! [`span_linked`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::args::{read, text_bits, text_range, ArgValue, Args, Kind};
use crate::lock;

/// One completed span (or zero-duration instant event).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Human-readable span name (e.g. `job.kernel`, `http.request`).
    pub name: &'static str,
    /// Category — the Chrome-trace `cat` field (`http`, `worker`, `exchange`, …).
    pub cat: &'static str,
    /// The request/trace id this span belongs to (0 = none).
    pub trace_id: u64,
    /// This span's unique id.
    pub span_id: u64,
    /// The enclosing span's id (0 = root).
    pub parent_id: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_nanos: u64,
    /// Key/value annotations; keys are literals.
    pub args: Args,
}

/// All events captured on one thread, in completion order.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Stable lane index (Chrome-trace `tid`).
    pub lane: usize,
    /// The recording thread's name at registration time.
    pub name: String,
    /// Completed events, oldest first.
    pub events: Vec<SpanEvent>,
}

struct Lane {
    index: usize,
    name: String,
    ring: Mutex<Ring>,
}

/// A lane's recorded events, oldest first, packed: each event's fixed
/// fields, then its args and their text behind those of the event before
/// it. An event takes the bytes it uses, not its open span's inline room,
/// and dropping the oldest frees nothing.
#[derive(Default)]
struct Ring {
    events: VecDeque<Packed>,
    args: VecDeque<(&'static str, Kind, u64)>,
    text: VecDeque<u8>,
}

/// One event's fixed fields, and how many args and text bytes it packed.
struct Packed {
    name: &'static str,
    cat: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    start_nanos: u64,
    dur_nanos: u64,
    args: u32,
    text: u32,
}

impl Packed {
    fn of(e: &SpanEvent, text: usize) -> Packed {
        Packed {
            name: e.name,
            cat: e.cat,
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_id: e.parent_id,
            start_nanos: e.start_nanos,
            dur_nanos: e.dur_nanos,
            args: e.args.len() as u32,
            text: text as u32,
        }
    }
}

/// Make room for `more` items in one of a ring's deques, growing it by an
/// eighth rather than doubling it: a ring cycles through all of a deque's
/// capacity, so spare capacity is resident memory. (The events deque is
/// bounded by the ring's capacity and keeps the default growth.)
fn room<T>(deque: &mut VecDeque<T>, more: usize) {
    if deque.capacity() - deque.len() < more {
        deque.reserve_exact(more.max(deque.len() / 8).max(64));
    }
}

impl Ring {
    /// Pack `e` behind the newest event, first dropping the oldest ones
    /// past `capacity - 1`.
    fn push(&mut self, e: &SpanEvent, capacity: usize) {
        while self.events.len() >= capacity {
            self.pop_oldest();
        }
        if e.args.is_empty() {
            self.events.push_back(Packed::of(e, 0));
            return;
        }
        // Spilled text follows the inline text, so its args point past it.
        let (inline, spilled) = e.args.texts();
        let text = inline.len() + spilled.len();
        room(&mut self.text, text);
        self.text.extend(inline);
        self.text.extend(spilled);
        room(&mut self.args, e.args.len());
        for (key, kind, bits) in e.args.slots() {
            let (kind, bits) = match kind {
                Kind::SpilledText => {
                    let bytes = text_range(bits);
                    let at = inline.len() + bytes.start;
                    (Kind::Text, text_bits(at..at + bytes.len()))
                }
                kind => (kind, bits),
            };
            self.args.push_back((key, kind, bits));
        }
        self.events.push_back(Packed::of(e, text));
    }

    fn pop_oldest(&mut self) {
        let Some(oldest) = self.events.pop_front() else {
            return;
        };
        if oldest.args > 0 {
            self.args.drain(..oldest.args as usize);
        }
        if oldest.text > 0 {
            self.text.drain(..oldest.text as usize);
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.args.clear();
        self.text.clear();
    }

    /// Unpack the events `keep` selects, oldest first.
    fn unpack(&mut self, keep: impl Fn(&Packed) -> bool) -> Vec<SpanEvent> {
        let text = self.text.make_contiguous();
        let (mut arg, mut byte) = (0, 0);
        let mut out = Vec::new();
        for p in &self.events {
            let (args, bytes) = (arg..arg + p.args as usize, byte..byte + p.text as usize);
            (arg, byte) = (args.end, bytes.end);
            if !keep(p) {
                continue;
            }
            let mut unpacked = Args::new();
            for (key, kind, bits) in self.args.range(args) {
                unpacked.push(key, read(*kind, *bits, &text[bytes.clone()]));
            }
            out.push(SpanEvent {
                name: p.name,
                cat: p.cat,
                trace_id: p.trace_id,
                span_id: p.span_id,
                parent_id: p.parent_id,
                start_nanos: p.start_nanos,
                dur_nanos: p.dur_nanos,
                args: unpacked,
            });
        }
        out
    }
}

struct Recorder {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    next_id: AtomicU64,
    lanes: Mutex<Vec<Arc<Lane>>>,
    epoch: Instant,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(4096),
        next_id: AtomicU64::new(1),
        lanes: Mutex::new(Vec::new()),
        epoch: Instant::now(),
    })
}

thread_local! {
    static LANE: RefCell<Option<Arc<Lane>>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process trace epoch (first recorder touch).
pub fn now_nanos() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Whether span recording is currently on.
pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Turn span recording on or off. Off (the default) makes [`span`] a no-op.
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// Set the per-lane ring capacity (events per thread). Takes effect on the
/// next push to each lane.
pub fn set_capacity(events_per_lane: usize) {
    recorder()
        .capacity
        .store(events_per_lane.max(1), Ordering::Relaxed);
}

/// Drop every recorded event (lanes stay registered). Intended for tests.
pub fn clear() {
    for lane in lock(&recorder().lanes).iter() {
        lock(&lane.ring).clear();
    }
}

/// A fresh process-unique trace id.
pub fn new_trace_id() -> u64 {
    recorder().next_id.fetch_add(1, Ordering::Relaxed)
}

/// The trace id installed on this thread (0 = none).
pub fn current_trace_id() -> u64 {
    TRACE.with(|t| t.get())
}

/// The innermost open span's id on this thread (0 = none).
pub fn current_span_id() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Guard restoring the previous thread trace id on drop.
pub struct TraceScope {
    prev: u64,
}

/// Install `trace_id` as this thread's current trace until the returned
/// guard drops.
pub fn trace_scope(trace_id: u64) -> TraceScope {
    let prev = TRACE.with(|t| t.replace(trace_id));
    TraceScope { prev }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let prev = self.prev;
        TRACE.with(|t| t.set(prev));
    }
}

/// RAII guard for an open span: holds the event it records when dropped,
/// with `dur_nanos` still 0. Empty (free) when recording is disabled.
pub struct Span {
    event: Option<SpanEvent>,
}

/// Open a span named `name` under the thread's current trace and innermost
/// open span. Returns an empty guard when recording is disabled.
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span { event: None };
    }
    open(name, cat, current_trace_id(), current_span_id())
}

/// Open a span explicitly linked to a `(trace_id, parent_id)` recorded on
/// another thread — the cross-thread continuation used by pool workers.
pub fn span_linked(name: &'static str, cat: &'static str, trace_id: u64, parent_id: u64) -> Span {
    if !enabled() {
        return Span { event: None };
    }
    open(name, cat, trace_id, parent_id)
}

fn open(name: &'static str, cat: &'static str, trace_id: u64, parent_id: u64) -> Span {
    let span_id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(span_id));
    Span {
        event: Some(SpanEvent {
            name,
            cat,
            trace_id,
            span_id,
            parent_id,
            start_nanos: now_nanos(),
            dur_nanos: 0,
            args: Args::new(),
        }),
    }
}

impl Span {
    /// Attach a key/value annotation (no-op on a disabled-span guard). The
    /// value is kept as it is, not rendered: see [`ArgValue`].
    pub fn arg<'v>(&mut self, key: &'static str, value: impl Into<ArgValue<'v>>) {
        if let Some(e) = &mut self.event {
            e.args.push(key, value);
        }
    }

    /// This span's id (0 when recording is disabled).
    pub fn id(&self) -> u64 {
        self.event.as_ref().map_or(0, |e| e.span_id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(event) = &mut self.event else {
            return;
        };
        event.dur_nanos = now_nanos().saturating_sub(event.start_nanos);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&event.span_id) {
                s.pop();
            } else {
                // Out-of-order drop (should not happen with guards held on
                // the stack); drop our id wherever it sits.
                s.retain(|&id| id != event.span_id);
            }
        });
        record(event);
    }
}

/// Record a zero-duration instant event under the current trace/span.
pub fn instant(name: &'static str, cat: &'static str, args: &[(&'static str, ArgValue<'_>)]) {
    if !enabled() {
        return;
    }
    let now = now_nanos();
    let mut recorded = Args::new();
    for &(key, value) in args {
        recorded.push(key, value);
    }
    record(&SpanEvent {
        name,
        cat,
        trace_id: current_trace_id(),
        span_id: recorder().next_id.fetch_add(1, Ordering::Relaxed),
        parent_id: current_span_id(),
        start_nanos: now,
        dur_nanos: 0,
        args: recorded,
    });
}

fn record(event: &SpanEvent) {
    let r = recorder();
    LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let lane = slot.get_or_insert_with(|| {
            let mut lanes = lock(&r.lanes);
            let index = lanes.len();
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{index}"));
            let lane = Arc::new(Lane {
                index,
                name,
                ring: Mutex::new(Ring::default()),
            });
            lanes.push(lane.clone());
            lane
        });
        let capacity = r.capacity.load(Ordering::Relaxed);
        lock(&lane.ring).push(event, capacity);
    });
}

/// Copy out every lane's events that *end* at or after `since_nanos`
/// (0 = everything currently buffered).
pub fn snapshot(since_nanos: u64) -> Vec<LaneSnapshot> {
    snapshot_range(since_nanos, u64::MAX)
}

/// Copy out every lane's events overlapping the `[since_nanos, until_nanos]`
/// window: events that *end* at or after `since_nanos` and *start* at or
/// before `until_nanos`.
pub fn snapshot_range(since_nanos: u64, until_nanos: u64) -> Vec<LaneSnapshot> {
    lock(&recorder().lanes)
        .iter()
        .map(|lane| LaneSnapshot {
            lane: lane.index,
            name: lane.name.clone(),
            events: lock(&lane.ring).unpack(|e| {
                e.start_nanos + e.dur_nanos >= since_nanos && e.start_nanos <= until_nanos
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::INLINE_TEXT;

    // Span tests share global recorder state with each other (and with any
    // other test in this binary); serialize the ones that toggle it.
    fn lock_recorder() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        lock(GUARD.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn disabled_spans_are_free_and_unrecorded() {
        let _g = lock_recorder();
        set_enabled(false);
        clear();
        let before: usize = snapshot(0).iter().map(|l| l.events.len()).sum();
        for _ in 0..100 {
            let mut s = span("noop", "test");
            s.arg("k", 1);
        }
        let after: usize = snapshot(0).iter().map(|l| l.events.len()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn nesting_assigns_parents_and_trace_ids() {
        let _g = lock_recorder();
        set_enabled(true);
        clear();
        let trace = new_trace_id();
        {
            let _scope = trace_scope(trace);
            let outer = span("outer", "test");
            let outer_id = outer.id();
            {
                let inner = span("inner", "test");
                assert_eq!(current_span_id(), inner.id());
            }
            assert_eq!(current_span_id(), outer_id);
        }
        set_enabled(false);
        let events: Vec<SpanEvent> = snapshot(0)
            .into_iter()
            .flat_map(|l| l.events)
            .filter(|e| e.trace_id == trace)
            .collect();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(outer.parent_id, 0);
        assert!(inner.start_nanos >= outer.start_nanos);
        assert!(inner.start_nanos + inner.dur_nanos <= outer.start_nanos + outer.dur_nanos);
    }

    /// The rendering oracle: every arg kind, recorded through `Span::arg`
    /// and read back both from the event and from `/trace`'s export, prints
    /// exactly what recording it as `value.to_string()` (a float as
    /// `format!("{:.1}")`) printed. More args and more text than the event
    /// holds inline spill, in order.
    #[test]
    fn args_render_as_their_strings_did() {
        let _g = lock_recorder();
        let long = "ä€".repeat(INLINE_TEXT);
        let floats = [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            0.05,
            -2.25,
        ];
        let mut expected: Vec<(&'static str, String)> = vec![
            ("u64_max", u64::MAX.to_string()),
            ("i64_min", i64::MIN.to_string()),
            ("u8", 7u8.to_string()),
            ("i32", (-3i32).to_string()),
            ("usize", usize::MAX.to_string()),
            ("empty", String::new()),
            ("non_ascii", "séance ✓ 名前".to_string()),
            ("long", long.clone()),
            ("after_long", "fits".to_string()),
        ];
        let float_keys = ["neg_zero", "nan", "inf", "neg_inf", "big", "half", "neg"];
        for (key, x) in float_keys.into_iter().zip(floats) {
            expected.push((key, format!("{:.1}", x)));
        }
        set_enabled(true);
        clear();
        let trace = new_trace_id();
        {
            let _scope = trace_scope(trace);
            let mut s = span("oracle", "test");
            s.arg("u64_max", u64::MAX);
            s.arg("i64_min", i64::MIN);
            s.arg("u8", 7u8);
            s.arg("i32", -3);
            s.arg("usize", usize::MAX);
            s.arg("empty", "");
            s.arg("non_ascii", &"séance ✓ 名前".to_string());
            s.arg("long", long.as_str());
            s.arg("after_long", "fits");
            for (key, x) in float_keys.into_iter().zip(floats) {
                s.arg(key, ArgValue::Fixed1(x));
            }
        }
        set_enabled(false);
        let event = snapshot(0)
            .into_iter()
            .flat_map(|l| l.events)
            .find(|e| e.trace_id == trace)
            .expect("the oracle span is recorded");
        let read: Vec<(&str, String)> =
            event.args.iter().map(|(k, v)| (k, v.to_string())).collect();
        let want: Vec<(&str, String)> = expected.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(read, want);
        assert_eq!(event.args.len(), expected.len());
        assert_eq!(event.args.get("long"), Some(ArgValue::Str(&long)));

        let doc = serde_json::value_from_str(&crate::export_chrome(0)).expect("export parses");
        let Some(serde::Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let oracle = events
            .iter()
            .find(|e| e.get("name") == Some(&serde::Value::Str("oracle".into())))
            .expect("the oracle span is exported");
        let Some(serde::Value::Obj(args)) = oracle.get("args") else {
            panic!("no args object");
        };
        let exported: Vec<(&str, String)> = (args.iter().skip(3))
            .map(|(k, v)| match v {
                serde::Value::Str(s) => (k.as_str(), s.clone()),
                other => panic!("arg {k} exported as {other:?}"),
            })
            .collect();
        assert_eq!(exported, want);
    }

    #[test]
    fn ring_is_bounded() {
        let _g = lock_recorder();
        set_enabled(true);
        clear();
        set_capacity(8);
        for i in 0..100 {
            let mut s = span("s", "test");
            s.arg("i", i);
        }
        set_enabled(false);
        let mine: usize = snapshot(0)
            .iter()
            .filter(|l| l.events.iter().any(|e| e.cat == "test"))
            .map(|l| l.events.len())
            .max()
            .unwrap_or(0);
        assert!(mine <= 8, "lane exceeded capacity: {mine}");
        set_capacity(4096);
    }
}

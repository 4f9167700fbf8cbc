//! Span-derived profiling: folded-stack self/total-time trees, self-contained
//! SVG flamegraphs, and per-device utilization — all computed from the span
//! recorder's ring buffers. This is the engine behind `GET /profile` in the
//! serve stack.
//!
//! A [`Profile`] merges every span overlapping a time window into one call
//! tree keyed by span-name hierarchy (`http.request` →
//! `session.launch` → `job.kernel` → `kernel.execute`). Each node
//! carries:
//!
//! - **total time**: the window-clipped durations of every span that landed
//!   on this path, summed;
//! - **self time**: total minus the time covered by direct children,
//!   clamped at zero per span — so `self ≤ total` holds at every node by
//!   construction, even for cross-thread children (a sharded launch's
//!   `job.kernel` spans run concurrently on several device lanes and can
//!   jointly out-last their parent).
//!
//! Spans whose parent fell off the ring (or is still open) become roots —
//! a truncated ancestry degrades to a shallower stack, never to lost time.
//!
//! Exports: the Brendan Gregg collapsed-stack text format
//! ([`Profile::folded`], one `frame;frame;frame self_nanos` line per node
//! with self time, parseable back via [`Profile::parse_folded`]), a
//! dependency-free SVG flamegraph ([`Profile::flamegraph_svg`], icicle
//! layout, hover tooltips via `<title>`, no scripts), and a JSON tree
//! ([`Profile::to_value`]).
//!
//! [`device_utilization`] reduces each device's job and host-call spans to
//! a busy/idle split of the window: `busy` is their coverage, `idle` the
//! remainder. A device is a (pool, index) pair — every pool numbers its
//! devices from 0. A span counts for the device its `pool` and `device`
//! args name, on whatever lane recorded it — a job its caller ran, a host
//! program run on an HTTP worker — and a job span without a `device` arg
//! for the `ftn-device-N` lane it sits on. A worker lane belongs to the
//! pool its spans name. The two nanosecond figures partition the window
//! exactly, so the fractions sum to 1 (within float rounding) and never
//! above it.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use serde::Value;

use crate::args::ArgValue;
use crate::span::{now_nanos, snapshot_range, LaneSnapshot, SpanEvent};

/// Stack depth cap during aggregation — a guard against pathological (or
/// adversarial, in tests) parent cycles; real span stacks are ≤ 6 deep.
const MAX_DEPTH: usize = 64;

/// One node of the aggregated span-name call tree.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Span name at this tree position.
    pub name: String,
    /// Window-clipped nanoseconds spent in spans on this path, inclusive of
    /// children.
    pub total_nanos: u64,
    /// Nanoseconds on this path not covered by direct children (≤ total).
    pub self_nanos: u64,
    /// Number of spans merged into this node.
    pub count: u64,
    /// Child nodes keyed by span name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    fn new(name: &str) -> ProfileNode {
        ProfileNode {
            name: name.to_string(),
            total_nanos: 0,
            self_nanos: 0,
            count: 0,
            children: BTreeMap::new(),
        }
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(ProfileNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// An aggregated self/total-time tree over one time window.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Window start on the trace clock ([`now_nanos`]), nanoseconds.
    pub since_nanos: u64,
    /// Window end (inclusive), nanoseconds.
    pub until_nanos: u64,
    /// Root nodes keyed by span name.
    pub roots: BTreeMap<String, ProfileNode>,
}

/// Duration of `e` clipped to `[since, until]` (0 when disjoint).
fn clip(e: &SpanEvent, since: u64, until: u64) -> u64 {
    let start = e.start_nanos.max(since);
    let end = e.start_nanos.saturating_add(e.dur_nanos).min(until);
    end.saturating_sub(start)
}

/// A folded-stack frame: the span name with the format's reserved
/// characters (`;`, whitespace) replaced by `_`.
fn frame(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

impl Profile {
    /// Aggregate everything the recorder buffered inside
    /// `[since_nanos, until_nanos]`. `u64::MAX` as the upper bound means
    /// "now" (so clipping and utilization windows stay finite).
    pub fn from_recorder(since_nanos: u64, until_nanos: u64) -> Profile {
        let until = if until_nanos == u64::MAX {
            now_nanos()
        } else {
            until_nanos
        };
        Profile::from_lanes(&snapshot_range(since_nanos, until), since_nanos, until)
    }

    /// Aggregate an explicit lane snapshot — the deterministic entry point
    /// used by tests (no global recorder state).
    pub fn from_lanes(lanes: &[LaneSnapshot], since_nanos: u64, until_nanos: u64) -> Profile {
        let events: Vec<&SpanEvent> = lanes
            .iter()
            .flat_map(|l| l.events.iter())
            .filter(|e| e.dur_nanos > 0)
            .collect();
        let index: HashMap<u64, usize> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.span_id, i))
            .collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut root_events = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if e.parent_id != 0 && e.parent_id != e.span_id && index.contains_key(&e.parent_id) {
                children.entry(e.parent_id).or_default().push(i);
            } else {
                root_events.push(i);
            }
        }
        let mut roots = BTreeMap::new();
        for i in root_events {
            insert(
                &mut roots,
                &events,
                &children,
                i,
                since_nanos,
                until_nanos,
                0,
            );
        }
        Profile {
            since_nanos,
            until_nanos,
            roots,
        }
    }

    /// Sum of the root nodes' total times — the profile's whole attributed
    /// wall time.
    pub fn total_nanos(&self) -> u64 {
        self.roots.values().map(|n| n.total_nanos).sum()
    }

    /// Render as collapsed-stack text: one `a;b;c self_nanos` line per node
    /// with nonzero self time, depth-first in name order. The format
    /// round-trips through [`Profile::parse_folded`] and feeds standard
    /// flamegraph tooling directly.
    pub fn folded(&self) -> String {
        fn walk(node: &ProfileNode, prefix: &str, out: &mut String) {
            let path = if prefix.is_empty() {
                frame(&node.name)
            } else {
                format!("{prefix};{}", frame(&node.name))
            };
            if node.self_nanos > 0 {
                out.push_str(&path);
                out.push(' ');
                out.push_str(&node.self_nanos.to_string());
                out.push('\n');
            }
            for child in node.children.values() {
                walk(child, &path, out);
            }
        }
        let mut out = String::new();
        for root in self.roots.values() {
            walk(root, "", &mut out);
        }
        out
    }

    /// Parse collapsed-stack text back into a tree. Self weights land on the
    /// line's final frame; totals are recomputed bottom-up (total = self +
    /// Σ child totals) and counts record how many lines ended at each node.
    /// The window bounds are unknown to the text format and come back as 0.
    pub fn parse_folded(text: &str) -> Result<Profile, String> {
        let mut roots: BTreeMap<String, ProfileNode> = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (path, weight) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: missing ' weight' suffix", i + 1))?;
            let weight: u64 = weight
                .parse()
                .map_err(|_| format!("line {}: bad weight '{weight}'", i + 1))?;
            let mut slot = &mut roots;
            let mut parts = path.split(';').peekable();
            loop {
                let part = parts
                    .next()
                    .filter(|p| !p.is_empty())
                    .ok_or_else(|| format!("line {}: empty frame in stack '{path}'", i + 1))?;
                let node = slot
                    .entry(part.to_string())
                    .or_insert_with(|| ProfileNode::new(part));
                if parts.peek().is_none() {
                    node.self_nanos = node.self_nanos.saturating_add(weight);
                    node.count += 1;
                    break;
                }
                slot = &mut node.children;
            }
        }
        fn retotal(node: &mut ProfileNode) {
            let mut total = node.self_nanos;
            for child in node.children.values_mut() {
                retotal(child);
                total = total.saturating_add(child.total_nanos);
            }
            node.total_nanos = total;
        }
        for root in roots.values_mut() {
            retotal(root);
        }
        Ok(Profile {
            since_nanos: 0,
            until_nanos: 0,
            roots,
        })
    }

    /// Render a self-contained SVG flamegraph (icicle layout: roots on top,
    /// width proportional to total time, hover tooltips via `<title>` — no
    /// scripts, viewable anywhere SVG is).
    pub fn flamegraph_svg(&self, title: &str) -> String {
        const IMG_W: f64 = 1200.0;
        const PAD: f64 = 10.0;
        const FRAME_H: f64 = 17.0;
        const TOP: f64 = 42.0;
        let depth = self
            .roots
            .values()
            .map(ProfileNode::depth)
            .max()
            .unwrap_or(0);
        let img_h = TOP + depth.max(1) as f64 * FRAME_H + 26.0;
        let inner_w = IMG_W - 2.0 * PAD;
        let grand_total = self.total_nanos().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{IMG_W}\" height=\"{img_h}\" \
             viewBox=\"0 0 {IMG_W} {img_h}\" font-family=\"monospace\" font-size=\"12\">\n"
        ));
        out.push_str(&format!(
            "<rect x=\"0\" y=\"0\" width=\"{IMG_W}\" height=\"{img_h}\" fill=\"#f8f8f8\"/>\n"
        ));
        out.push_str(&format!(
            "<text x=\"{}\" y=\"24\" text-anchor=\"middle\" font-size=\"15\">{}</text>\n",
            IMG_W / 2.0,
            xml_escape(title)
        ));
        out.push_str(&format!(
            "<text x=\"{PAD}\" y=\"{}\" fill=\"#666\">window {:.3}s..{:.3}s, {:.3}s attributed</text>\n",
            img_h - 8.0,
            self.since_nanos as f64 * 1e-9,
            self.until_nanos as f64 * 1e-9,
            grand_total * 1e-9,
        ));
        let mut x = PAD;
        for root in self.roots.values() {
            let w = inner_w * root.total_nanos as f64 / grand_total;
            render_frame(root, x, w, 0, &mut out);
            x += w;
        }
        out.push_str("</svg>\n");
        return out;

        fn render_frame(node: &ProfileNode, x: f64, w: f64, depth: usize, out: &mut String) {
            const FRAME_H: f64 = 17.0;
            const TOP: f64 = 42.0;
            if w < 0.4 || depth >= MAX_DEPTH {
                return;
            }
            let y = TOP + depth as f64 * FRAME_H;
            let name = xml_escape(&node.name);
            out.push_str("<g>\n");
            out.push_str(&format!(
                "<title>{name}: total {:.3}ms, self {:.3}ms, {} span(s)</title>\n",
                node.total_nanos as f64 * 1e-6,
                node.self_nanos as f64 * 1e-6,
                node.count
            ));
            out.push_str(&format!(
                "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.2}\" \
                 fill=\"{}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\" rx=\"1\"/>\n",
                FRAME_H - 1.0,
                color(&node.name)
            ));
            // Roughly 7 px per monospace glyph at 12 px; skip unreadable slivers.
            let fit = (w / 7.0) as usize;
            if fit >= 3 {
                let label: String = if node.name.len() <= fit {
                    name.clone()
                } else {
                    xml_escape(&format!("{}..", &node.name[..fit.saturating_sub(2)]))
                };
                out.push_str(&format!(
                    "<text x=\"{:.2}\" y=\"{:.2}\">{label}</text>\n",
                    x + 3.0,
                    y + 12.0
                ));
            }
            out.push_str("</g>\n");
            // Concurrent cross-thread children can jointly out-last the
            // parent; scale them to fit its box instead of overflowing.
            let kids: u64 = node.children.values().map(|c| c.total_nanos).sum();
            let denom = node.total_nanos.max(kids).max(1) as f64;
            let mut cx = x;
            for child in node.children.values() {
                let cw = w * child.total_nanos as f64 / denom;
                render_frame(child, cx, cw, depth + 1, out);
                cx += cw;
            }
        }
    }

    /// The tree as a JSON value:
    /// `{since_nanos, until_nanos, total_nanos, roots: [{name, total_nanos,
    /// self_nanos, count, children: [...]}, ...]}`.
    pub fn to_value(&self) -> Value {
        fn node_value(node: &ProfileNode) -> Value {
            Value::Obj(vec![
                ("name".to_string(), Value::Str(node.name.clone())),
                ("total_nanos".to_string(), Value::UInt(node.total_nanos)),
                ("self_nanos".to_string(), Value::UInt(node.self_nanos)),
                ("count".to_string(), Value::UInt(node.count)),
                (
                    "children".to_string(),
                    Value::Arr(node.children.values().map(node_value).collect()),
                ),
            ])
        }
        Value::Obj(vec![
            ("since_nanos".to_string(), Value::UInt(self.since_nanos)),
            ("until_nanos".to_string(), Value::UInt(self.until_nanos)),
            ("total_nanos".to_string(), Value::UInt(self.total_nanos())),
            (
                "roots".to_string(),
                Value::Arr(self.roots.values().map(node_value).collect()),
            ),
        ])
    }
}

/// Merge event `i` (and, recursively, its children) into `slot`, returning
/// the event's window-clipped duration for the caller's self-time math.
fn insert(
    slot: &mut BTreeMap<String, ProfileNode>,
    events: &[&SpanEvent],
    children: &HashMap<u64, Vec<usize>>,
    i: usize,
    since: u64,
    until: u64,
    depth: usize,
) -> u64 {
    let e = events[i];
    let clipped = clip(e, since, until);
    // Look up before inserting: the key is copied once per node, not once
    // per folded event.
    if !slot.contains_key(e.name) {
        slot.insert(e.name.to_string(), ProfileNode::new(e.name));
    }
    let node = slot.get_mut(e.name).expect("inserted above");
    node.total_nanos = node.total_nanos.saturating_add(clipped);
    node.count += 1;
    let mut covered = 0u64;
    if depth < MAX_DEPTH {
        if let Some(kids) = children.get(&e.span_id) {
            for &k in kids {
                covered = covered.saturating_add(insert(
                    &mut node.children,
                    events,
                    children,
                    k,
                    since,
                    until,
                    depth + 1,
                ));
            }
        }
    }
    node.self_nanos = node
        .self_nanos
        .saturating_add(clipped.saturating_sub(covered));
    clipped
}

fn xml_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
    out
}

/// Deterministic warm-palette fill derived from the frame name (FNV-1a).
fn color(name: &str) -> String {
    let mut hash = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    let r = 205 + (hash % 50) as u8;
    let g = 80 + ((hash >> 8) % 120) as u8;
    let b = 20 + ((hash >> 16) % 50) as u8;
    format!("rgb({r},{g},{b})")
}

/// One device's busy/idle split of a profiling window.
///
/// The two nanosecond figures partition `window_nanos` exactly:
/// `busy + idle == window`, so the fractions sum to 1 within float
/// rounding — never above.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceUtilization {
    /// The pool the device belongs to: its spans' `pool` arg (empty when
    /// none names one).
    pub pool: String,
    /// Device index in its pool: a span's `device` arg, or parsed from the
    /// `ftn-device-N` lane name.
    pub device: usize,
    /// The window length in nanoseconds.
    pub window_nanos: u64,
    /// Nanoseconds covered by the device's job and host-call spans.
    pub busy_nanos: u64,
    /// The uncovered remainder.
    pub idle_nanos: u64,
}

impl DeviceUtilization {
    /// Busy fraction of the window, in `[0, 1]`.
    pub fn busy_fraction(&self) -> f64 {
        self.busy_nanos as f64 / self.window_nanos.max(1) as f64
    }

    /// Idle fraction of the window, in `[0, 1]`.
    pub fn idle_fraction(&self) -> f64 {
        self.idle_nanos as f64 / self.window_nanos.max(1) as f64
    }
}

/// Total length of the union of `intervals` (each `(start, end)`, clipped
/// by the caller). Sorts in place.
fn union_nanos(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Reduce every device in `lanes` to its busy/idle split of
/// `[since_nanos, until_nanos]`, from the coverage of its spans (see the
/// module docs for which count, and for which device). A device appears
/// when it has an `ftn-device-N` lane or a span in the window names it.
/// Sorted by pool, then device index.
pub fn device_utilization(
    lanes: &[LaneSnapshot],
    since_nanos: u64,
    until_nanos: u64,
) -> Vec<DeviceUtilization> {
    let window = until_nanos.saturating_sub(since_nanos);
    if window == 0 {
        return Vec::new();
    }
    let mut covered: BTreeMap<_, Vec<(u64, u64)>> = BTreeMap::new();
    for lane in lanes {
        let lane_device = lane
            .name
            .strip_prefix("ftn-device-")
            .and_then(|s| s.parse::<usize>().ok());
        if let Some(device) = lane_device {
            let pool = lane.events.iter().find_map(pool);
            covered
                .entry((pool.unwrap_or_default(), device))
                .or_default();
        }
        for e in &lane.events {
            let Some(device) = busy_device(e, lane_device) else {
                continue;
            };
            let start = e.start_nanos.max(since_nanos);
            let end = e.start_nanos.saturating_add(e.dur_nanos).min(until_nanos);
            if end > start {
                covered
                    .entry((pool(e).unwrap_or_default(), device))
                    .or_default()
                    .push((start, end));
            }
        }
    }
    (covered.into_iter())
        .map(|((pool, device), mut spans)| {
            let busy_nanos = union_nanos(&mut spans).min(window);
            DeviceUtilization {
                pool: pool.into_owned(),
                device,
                window_nanos: window,
                busy_nanos,
                idle_nanos: window - busy_nanos,
            }
        })
        .collect()
}

/// The device span `e` keeps busy, if any: a worker-category `job.*` span
/// or a `host.call` counts for the device its `device` arg names, and a
/// job span without the arg for the device lane it was recorded on.
fn busy_device(e: &SpanEvent, lane_device: Option<usize>) -> Option<usize> {
    let job = e.cat == "worker" && e.name.starts_with("job.");
    if !(job || e.name == "host.call") || e.dur_nanos == 0 {
        return None;
    }
    // The index its rendered text parses to: a fraction, a sign or a word
    // names no device.
    let named = e.args.get("device").and_then(|value| match value {
        ArgValue::U64(n) => usize::try_from(n).ok(),
        ArgValue::I64(n) => usize::try_from(n).ok(),
        ArgValue::Fixed1(_) => None,
        ArgValue::Str(s) => s.parse().ok(),
    });
    named.or(lane_device.filter(|_| job))
}

/// The text of `e`'s `pool` arg, if it has one: borrowed when recorded as
/// text (every production span), rendered otherwise.
fn pool(e: &SpanEvent) -> Option<Cow<'_, str>> {
    e.args.get("pool").map(|value| match value {
        ArgValue::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_string()),
    })
}

/// [`device_utilization`] over the live recorder. `u64::MAX` as the upper
/// bound means "now".
pub fn device_utilization_range(since_nanos: u64, until_nanos: u64) -> Vec<DeviceUtilization> {
    let until = if until_nanos == u64::MAX {
        now_nanos()
    } else {
        until_nanos
    };
    device_utilization(&snapshot_range(since_nanos, until), since_nanos, until)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn event(
        name: &'static str,
        cat: &'static str,
        span_id: u64,
        parent_id: u64,
        start: u64,
        dur: u64,
    ) -> SpanEvent {
        SpanEvent {
            name,
            cat,
            trace_id: 1,
            span_id,
            parent_id,
            start_nanos: start,
            dur_nanos: dur,
            args: Args::new(),
        }
    }

    fn lane(name: &str, index: usize, events: Vec<SpanEvent>) -> LaneSnapshot {
        LaneSnapshot {
            lane: index,
            name: name.to_string(),
            events,
        }
    }

    #[test]
    fn tree_aggregates_self_and_total() {
        let lanes = [lane(
            "ftn-serve-0",
            0,
            vec![
                event("http.request", "http", 1, 0, 0, 100),
                event("session.launch", "cluster", 2, 1, 10, 40),
                event("session.launch", "cluster", 3, 1, 60, 20),
            ],
        )];
        let p = Profile::from_lanes(&lanes, 0, 100);
        let root = &p.roots["http.request"];
        assert_eq!(root.total_nanos, 100);
        assert_eq!(root.count, 1);
        assert_eq!(root.self_nanos, 40, "100 - (40 + 20) covered by children");
        let child = &root.children["session.launch"];
        assert_eq!(child.total_nanos, 60);
        assert_eq!(child.count, 2);
        assert_eq!(child.self_nanos, 60);
        assert_eq!(p.total_nanos(), 100);
    }

    #[test]
    fn cross_thread_children_clamp_self_not_total() {
        // Two concurrent job spans on device lanes jointly out-last the
        // submitting span: parent self clamps to 0, never negative.
        let lanes = [
            lane(
                "ftn-serve-0",
                0,
                vec![event("session.launch", "cluster", 1, 0, 0, 50)],
            ),
            lane(
                "ftn-device-0",
                1,
                vec![event("job.kernel", "worker", 2, 1, 5, 40)],
            ),
            lane(
                "ftn-device-1",
                2,
                vec![event("job.kernel", "worker", 3, 1, 5, 45)],
            ),
        ];
        let p = Profile::from_lanes(&lanes, 0, 100);
        let root = &p.roots["session.launch"];
        assert_eq!(root.total_nanos, 50);
        assert_eq!(root.self_nanos, 0, "85ns of children clamp self at zero");
        assert_eq!(root.children["job.kernel"].total_nanos, 85);
    }

    #[test]
    fn window_clips_durations_and_orphans_become_roots() {
        let lanes = [lane(
            "ftn-serve-0",
            0,
            vec![
                // Straddles the window start: only [50, 80] counts.
                event("http.request", "http", 1, 0, 20, 60),
                // Parent id 99 never recorded (evicted): orphan becomes root.
                event("job.kernel", "worker", 2, 99, 55, 10),
            ],
        )];
        let p = Profile::from_lanes(&lanes, 50, 200);
        assert_eq!(p.roots["http.request"].total_nanos, 30);
        assert_eq!(p.roots["job.kernel"].total_nanos, 10);
    }

    #[test]
    fn folded_round_trips_and_sanitizes_frames() {
        let lanes = [lane(
            "ftn-serve-0",
            0,
            vec![
                event("http.request", "http", 1, 0, 0, 100),
                event("weird name;x", "http", 2, 1, 10, 30),
            ],
        )];
        let p = Profile::from_lanes(&lanes, 0, 100);
        let folded = p.folded();
        assert!(folded.contains("http.request 70\n"));
        assert!(
            folded.contains("http.request;weird_name_x 30\n"),
            "reserved characters sanitized: {folded:?}"
        );
        let reparsed = Profile::parse_folded(&folded).expect("round-trips");
        assert_eq!(reparsed.folded(), folded);
        // Parsing is also stable under duplicate-path merging.
        let doubled = format!("{folded}{folded}");
        let merged = Profile::parse_folded(&doubled).expect("merges duplicates");
        assert!(merged.folded().contains("http.request 140\n"));
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        for bad in ["nostack", "a;b xyz", "a; 10", ";a 10", " 10"] {
            assert!(
                Profile::parse_folded(bad).is_err(),
                "'{bad}' should not parse"
            );
        }
        // Blank lines are fine.
        let p = Profile::parse_folded("a;b 5\n\na 1\n").expect("parses");
        assert_eq!(p.roots["a"].total_nanos, 6);
        assert_eq!(p.roots["a"].self_nanos, 1);
    }

    #[test]
    fn flamegraph_svg_is_self_contained_and_escaped() {
        let lanes = [lane(
            "ftn-serve-0",
            0,
            vec![
                event("http.request", "http", 1, 0, 0, 100),
                event("a<b>&\"q\"", "http", 2, 1, 0, 90),
            ],
        )];
        let p = Profile::from_lanes(&lanes, 0, 100);
        let svg = p.flamegraph_svg("ftn profile");
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("http.request"));
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;q&quot;"), "{svg}");
        assert!(!svg.contains("<script"), "self-contained, no scripts");
        assert!(svg.matches("<rect").count() >= 3, "background + 2 frames");
    }

    #[test]
    fn json_tree_matches_structure() {
        let lanes = [lane(
            "ftn-serve-0",
            0,
            vec![
                event("http.request", "http", 1, 0, 0, 100),
                event("session.launch", "cluster", 2, 1, 10, 40),
            ],
        )];
        let p = Profile::from_lanes(&lanes, 0, 100);
        let v = p.to_value();
        assert_eq!(v.get("total_nanos"), Some(&Value::UInt(100)));
        let Some(Value::Arr(roots)) = v.get("roots") else {
            panic!("no roots array");
        };
        assert_eq!(roots.len(), 1);
        assert_eq!(
            roots[0].get("name"),
            Some(&Value::Str("http.request".to_string()))
        );
        let Some(Value::Arr(children)) = roots[0].get("children") else {
            panic!("no children array");
        };
        assert_eq!(children[0].get("self_nanos"), Some(&Value::UInt(40)));
    }

    #[test]
    fn utilization_partitions_the_window() {
        let lanes = [
            lane(
                "ftn-device-0",
                0,
                vec![
                    event("job.kernel", "worker", 1, 0, 10, 20),
                    event("job.halo_refresh", "worker", 2, 0, 40, 10),
                    // Overlaps the refresh interval: union, no double count.
                    event("job.kernel", "worker", 3, 0, 45, 15),
                ],
            ),
            // Non-device lanes are ignored.
            lane(
                "ftn-serve-0",
                1,
                vec![event("http.request", "http", 4, 0, 0, 100)],
            ),
        ];
        let u = device_utilization(&lanes, 0, 100);
        assert_eq!(u.len(), 1);
        let d = &u[0];
        assert_eq!(d.device, 0);
        assert_eq!(d.window_nanos, 100);
        // Coverage: [10,30) ∪ [40,60) = 40ns.
        assert_eq!(d.busy_nanos, 40);
        assert_eq!(d.idle_nanos, 60);
        assert_eq!(d.busy_nanos + d.idle_nanos, d.window_nanos);
        assert!((d.busy_fraction() - 0.40).abs() < 1e-12);
        let sum = d.busy_fraction() + d.idle_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_handles_empty_and_inverted_windows() {
        let lanes = [lane("ftn-device-3", 0, vec![])];
        let u = device_utilization(&lanes, 0, 100);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].idle_nanos, 100);
        assert!(device_utilization(&lanes, 100, 100).is_empty());
        assert!(device_utilization(&lanes, 200, 100).is_empty());
    }

    /// A job its caller ran and a host call count for the device their
    /// `device` arg names, whichever lane recorded them, with no device
    /// lane at all; coverage from several lanes is one union.
    #[test]
    fn utilization_follows_the_device_arg_across_lanes() {
        let on = |mut e: SpanEvent, device: &str| {
            e.args.push("device", device);
            e
        };
        let lanes = [
            lane(
                "ftn-serve-0",
                0,
                vec![
                    event("http.request", "http", 1, 0, 0, 100),
                    on(event("host.call", "cluster", 2, 1, 10, 20), "1"),
                    on(event("job.kernel", "worker", 3, 1, 50, 10), "2"),
                    // No device named: an HTTP lane's own time, not a device's.
                    event("host.call", "cluster", 4, 1, 70, 10),
                ],
            ),
            lane(
                "ftn-serve-1",
                1,
                vec![on(event("host.call", "cluster", 5, 0, 20, 20), "1")],
            ),
        ];
        let u = device_utilization(&lanes, 0, 100);
        let busy: Vec<(usize, u64)> = u.iter().map(|d| (d.device, d.busy_nanos)).collect();
        // Device 1: [10,30) ∪ [20,40) = 30ns; device 2: 10ns.
        assert_eq!(busy, vec![(1, 30), (2, 10)]);
    }

    /// Two pools each number their devices from 0: device 0 of one pool is
    /// not device 0 of the other. A worker lane is its pool's, named by its
    /// job spans.
    #[test]
    fn utilization_keys_a_device_by_its_pool() {
        let on = |mut e: SpanEvent, pool: &str, device: &str| {
            e.args.push("pool", pool);
            e.args.push("device", device);
            e
        };
        let lanes = [
            lane(
                "ftn-serve-0",
                0,
                vec![on(event("host.call", "cluster", 1, 0, 10, 20), "a", "0")],
            ),
            lane(
                "ftn-device-0",
                1,
                vec![on(event("job.kernel", "worker", 2, 0, 50, 10), "b", "0")],
            ),
        ];
        let u = device_utilization(&lanes, 0, 100);
        let busy: Vec<(&str, usize, u64)> = (u.iter())
            .map(|d| (d.pool.as_str(), d.device, d.busy_nanos))
            .collect();
        assert_eq!(busy, vec![("a", 0, 20), ("b", 0, 10)]);
    }
}

//! Counters, gauges and log-bucketed latency histograms behind a central
//! [`MetricsRegistry`], rendered in Prometheus text-exposition format.
//!
//! All metric handles are `Arc`-shared and update through relaxed atomics —
//! the hot path (a counter bump, a histogram observation) is a handful of
//! `fetch_add`s with no lock. The registry itself is only locked on handle
//! creation and on `/metrics` rendering.
//!
//! Histograms bucket durations logarithmically: four linear sub-buckets per
//! power-of-two octave of nanoseconds, so every bucket's width is at most a
//! quarter of its lower bound. Reported quantiles are the inclusive upper
//! bound of the rank's bucket, hence overestimates by at most 25% — tight
//! enough for p50/p95/p99 regression gates, cheap enough for one atomic
//! increment per observation, and mergeable across shards by bucket-wise
//! addition.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::{read, write};

/// Number of histogram buckets: 4 exact small-value buckets (0–3 ns) plus
/// 4 sub-buckets for each of the 62 remaining nanosecond octaves.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Index of the bucket holding a `nanos` observation.
fn bucket_index(nanos: u64) -> usize {
    if nanos < 4 {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros() as usize;
    let sub = ((nanos >> (msb - 2)) & 3) as usize;
    (msb - 1) * 4 + sub
}

/// Inclusive upper bound (in nanoseconds) of bucket `i`.
fn bucket_upper_nanos(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let octave = i / 4 + 1;
    let sub = (i % 4) as u64;
    let width = 1u64 << (octave - 2);
    ((1u64 << octave) - 1) + (sub + 1) * width
}

/// A log-bucketed duration histogram (see the module docs for the bucket
/// scheme and error bound).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Record a duration in seconds. Negative or NaN values clamp to zero.
    pub fn observe(&self, seconds: f64) {
        let nanos = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).min(1.8e19) as u64
        } else {
            0
        };
        self.observe_nanos(nanos);
    }

    /// Record a duration in nanoseconds.
    pub fn observe_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed durations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// A point-in-time copy of the bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) in seconds — the inclusive upper bound
    /// of the bucket holding the rank, so at most 25% above the true value.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    sum_nanos: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of observations in the snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of observed durations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos as f64 * 1e-9
    }

    /// The `q`-quantile in seconds (see [`Histogram::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_nanos(i) as f64 * 1e-9;
            }
        }
        bucket_upper_nanos(HISTOGRAM_BUCKETS - 1) as f64 * 1e-9
    }

    /// `(upper_bound_seconds, cumulative_count)` for every bucket up to and
    /// including the last non-empty one — the Prometheus `le` series.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            out.push((bucket_upper_nanos(i) as f64 * 1e-9, seen));
        }
        out
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics, rendered as Prometheus text exposition.
///
/// Handles are created on first use and cached by callers; labels are part
/// of the name (`ftn_pool_queue_depth{device="0"}`). Creation takes a write
/// lock, lookups a read lock — hot-path updates go through the returned
/// `Arc` handles and touch no lock at all.
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            metrics: RwLock::new(BTreeMap::new()),
        }
    }

    /// The counter registered under `name`, created if absent. If `name` is
    /// already registered as a different metric kind, a detached handle is
    /// returned (it updates nothing visible in the exposition).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Metric::Counter(c)) = read(&self.metrics).get(name) {
            return c.clone();
        }
        let mut w = write(&self.metrics);
        match w
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => Arc::new(Counter::default()),
        }
    }

    /// The gauge registered under `name`, created if absent (same kind
    /// rules as [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Metric::Gauge(g)) = read(&self.metrics).get(name) {
            return g.clone();
        }
        let mut w = write(&self.metrics);
        match w
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Arc::new(Gauge::default()),
        }
    }

    /// The histogram registered under `name`, created if absent (same kind
    /// rules as [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(Metric::Histogram(h)) = read(&self.metrics).get(name) {
            return h.clone();
        }
        let mut w = write(&self.metrics);
        match w
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Render every metric in Prometheus text-exposition format. Histograms
    /// emit the cumulative `_bucket{le=...}` series plus `_sum`/`_count` and
    /// derived `_p50`/`_p95`/`_p99` gauges. Every sample line is
    /// `series value` — the 0.0.4 grammar, which has no exemplars.
    pub fn render_prometheus(&self) -> String {
        let metrics = read(&self.metrics);
        let mut out = String::new();
        let mut announced = HashSet::new();
        for (name, metric) in metrics.iter() {
            let base = base_name(name);
            match metric {
                Metric::Counter(c) => {
                    type_line(&mut out, &mut announced, base, "counter");
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    type_line(&mut out, &mut announced, base, "gauge");
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    type_line(&mut out, &mut announced, base, "histogram");
                    let count = snap.count();
                    let bucket = suffixed(name, "_bucket");
                    for (le, cum) in snap.cumulative() {
                        let series = with_label(&bucket, "le", &le.to_string());
                        out.push_str(&format!("{series} {cum}\n"));
                    }
                    let inf = with_label(&bucket, "le", "+Inf");
                    out.push_str(&format!("{inf} {count}\n"));
                    out.push_str(&format!(
                        "{} {}\n",
                        suffixed(name, "_sum"),
                        snap.sum_seconds()
                    ));
                    out.push_str(&format!("{} {count}\n", suffixed(name, "_count")));
                    for (p, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                        let pname = suffixed(name, &format!("_{p}"));
                        type_line(&mut out, &mut announced, base_name(&pname), "gauge");
                        out.push_str(&format!("{pname} {}\n", snap.quantile(q)));
                    }
                }
            }
        }
        out
    }
}

/// The metric name stripped of any `{label}` suffix.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Escape a label value per the Prometheus text-exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
///
/// Registry names embed their label sets verbatim
/// (`ftn_pool_queue_depth{pool="..."}`), so escaping must happen when the
/// name is *built* — a raw quote or newline in a pool/session name would
/// otherwise corrupt every exposition line of that series. Use
/// [`labelled`] instead of hand-formatting.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Build a registry metric name with an embedded label set, escaping every
/// value per the exposition format: `labelled("ftn_jobs_total",
/// &[("pool", key)])` → `ftn_jobs_total{pool="..."}`.
pub fn labelled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label_value(value));
        out.push('"');
    }
    out.push('}');
    out
}

/// Emit a `# TYPE` header once per exposition. `announced` holds every
/// header so far, not just the last: two labelled histograms of one base
/// interleave their `_p50`/`_p95`/`_p99` headers.
fn type_line(out: &mut String, announced: &mut HashSet<String>, base: &str, kind: &str) {
    let line = format!("# TYPE {base} {kind}\n");
    if !announced.contains(&line) {
        out.push_str(&line);
        announced.insert(line);
    }
}

/// Splice an extra `key="value"` label into a possibly-labelled metric
/// name, escaping the value per the exposition format.
fn with_label(name: &str, key: &str, value: &str) -> String {
    let pair = format!("{key}=\"{}\"", escape_label_value(value));
    match name.strip_suffix('}') {
        Some(head) => format!("{head},{pair}}}"),
        None => format!("{name}{{{pair}}}"),
    }
}

/// Append a suffix to the base name, preserving any label set.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.split_once('{') {
        Some((base, labels)) => format!("{base}{suffix}{{{labels}"),
        None => format!("{name}{suffix}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_exact_low() {
        for n in 0..4u64 {
            assert_eq!(bucket_index(n), n as usize);
            assert_eq!(bucket_upper_nanos(n as usize), n);
        }
        let mut prev = 0;
        for shift in 2..63 {
            let n = 1u64 << shift;
            let i = bucket_index(n);
            assert!(i >= prev, "bucket index must not decrease");
            prev = i;
            assert!(bucket_upper_nanos(i) >= n);
            // ≤25% relative error: upper bound within 1.25x of the lower
            // edge of the bucket, which is ≤ the observed value.
            assert!(bucket_upper_nanos(i) as f64 <= n as f64 * 1.25);
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_nanos(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bound_observations() {
        let h = Histogram::new();
        for ms in [1u64, 2, 3, 10, 100] {
            h.observe_nanos(ms * 1_000_000);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile(0.5);
        assert!((0.003..=0.00375).contains(&p50), "p50 = {p50}");
        let p100 = h.quantile(1.0);
        assert!((0.1..=0.125).contains(&p100), "p100 = {p100}");
    }

    #[test]
    fn registry_renders_exposition() {
        let reg = MetricsRegistry::new();
        reg.counter("ftn_requests_total").add(3);
        reg.gauge("ftn_queue_depth{device=\"0\"}").set(2);
        reg.histogram("ftn_latency_seconds").observe(0.01);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ftn_requests_total counter"));
        assert!(text.contains("ftn_requests_total 3"));
        assert!(text.contains("ftn_queue_depth{device=\"0\"} 2"));
        assert!(text.contains("ftn_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ftn_latency_seconds_count 1"));
        assert!(text.contains("ftn_latency_seconds_p99"));
    }

    /// The exposition of two labelled histograms of one base, whose derived
    /// quantile gauges interleave with the base's own series: every header
    /// once, before the first series it describes (the text a renderer that
    /// scanned its whole output per header produced).
    #[test]
    fn labelled_histograms_of_one_base_announce_each_type_once() {
        let reg = MetricsRegistry::new();
        reg.histogram("ftn_wait_seconds{pool=\"a\"}")
            .observe_nanos(3_000);
        reg.histogram("ftn_wait_seconds{pool=\"b\"}")
            .observe_nanos(5_000_000);
        let text = reg.render_prometheus();
        for header in text.lines().filter(|l| l.starts_with("# TYPE")) {
            assert_eq!(text.matches(header).count(), 1, "{header}\n{text}");
        }
        assert_eq!(
            text,
            "# TYPE ftn_wait_seconds histogram\n\
             ftn_wait_seconds_bucket{pool=\"a\",le=\"0.0000030710000000000003\"} 1\n\
             ftn_wait_seconds_bucket{pool=\"a\",le=\"+Inf\"} 1\n\
             ftn_wait_seconds_sum{pool=\"a\"} 0.000003\n\
             ftn_wait_seconds_count{pool=\"a\"} 1\n\
             # TYPE ftn_wait_seconds_p50 gauge\n\
             ftn_wait_seconds_p50{pool=\"a\"} 0.0000030710000000000003\n\
             # TYPE ftn_wait_seconds_p95 gauge\n\
             ftn_wait_seconds_p95{pool=\"a\"} 0.0000030710000000000003\n\
             # TYPE ftn_wait_seconds_p99 gauge\n\
             ftn_wait_seconds_p99{pool=\"a\"} 0.0000030710000000000003\n\
             ftn_wait_seconds_bucket{pool=\"b\",le=\"0.005242879000000001\"} 1\n\
             ftn_wait_seconds_bucket{pool=\"b\",le=\"+Inf\"} 1\n\
             ftn_wait_seconds_sum{pool=\"b\"} 0.005\n\
             ftn_wait_seconds_count{pool=\"b\"} 1\n\
             ftn_wait_seconds_p50{pool=\"b\"} 0.005242879000000001\n\
             ftn_wait_seconds_p95{pool=\"b\"} 0.005242879000000001\n\
             ftn_wait_seconds_p99{pool=\"b\"} 0.005242879000000001\n"
        );
    }

    #[test]
    fn same_handle_is_shared() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.counter("c").inc();
        assert_eq!(reg.counter("c").get(), 2);
    }

    #[test]
    fn escape_label_value_covers_exposition_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        assert_eq!(
            escape_label_value("\\\"\n"),
            "\\\\\\\"\\n",
            "all three specials together"
        );
    }

    #[test]
    fn labelled_builds_escaped_series_names() {
        assert_eq!(labelled("ftn_jobs_total", &[]), "ftn_jobs_total");
        assert_eq!(
            labelled("ftn_jobs_total", &[("pool", "p0"), ("device", "1")]),
            "ftn_jobs_total{pool=\"p0\",device=\"1\"}"
        );
        assert_eq!(
            labelled("ftn_jobs_total", &[("pool", "evil\"},x 1\n")]),
            "ftn_jobs_total{pool=\"evil\\\"},x 1\\n\"}"
        );
    }

    #[test]
    fn hostile_label_values_render_escaped_and_unbroken() {
        let reg = MetricsRegistry::new();
        // A pool keyed by a hostile name: quote, backslash and newline. Via
        // `labelled` the registry key already holds the escaped form.
        let hostile = "po\"ol\\one\nbad";
        reg.counter(&labelled("ftn_jobs_total", &[("pool", hostile)]))
            .add(7);
        reg.gauge(&labelled(
            "ftn_slo_state",
            &[("slo", "weird\"spec\\with\nnewline")],
        ))
        .set(2);
        let text = reg.render_prometheus();
        // No raw newline may survive inside any line: every exposition line
        // stays `name value` shaped.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(
                line.split_whitespace().count(),
                2,
                "line broken by unescaped label value: {line:?}"
            );
        }
        assert!(
            text.contains("ftn_jobs_total{pool=\"po\\\"ol\\\\one\\nbad\"} 7"),
            "escaped series renders verbatim: {text}"
        );
        assert!(
            text.contains("ftn_slo_state{slo=\"weird\\\"spec\\\\with\\nnewline\"} 2"),
            "{text}"
        );
    }

    /// The registry lock ignores poisoning: a thread that dies holding the
    /// registry map must not take `/metrics` (or a later handle look-up)
    /// down with it.
    #[test]
    fn a_panic_under_a_lock_does_not_wedge_record_or_render() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("before_total").inc();
        let hist = reg.histogram("latency_seconds");
        let r = Arc::clone(&reg);
        let died = std::thread::spawn(move || {
            let _map = write(&r.metrics);
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        assert!(reg.metrics.is_poisoned());

        reg.counter("after_total").inc();
        hist.observe(0.25);
        let text = reg.render_prometheus();
        for series in ["before_total 1", "after_total 1", "latency_seconds_count 1"] {
            assert!(text.contains(series), "{series} missing from: {text}");
        }
    }
}

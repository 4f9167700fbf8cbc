//! An in-process time-series store: fixed-retention ring buffers of scraped
//! metric values, one ring per metric name.
//!
//! The serve stack runs a background scraper thread that calls
//! [`TimeSeriesStore::scrape_at`] on a configurable cadence; each scrape
//! appends one [`RangePoint`] per registered metric (histograms are folded
//! to count/sum/p50/p95/p99 so a point stays O(1)) and drops the oldest
//! point once a ring reaches the retention cap. `GET /metrics/range` is a
//! thin JSON view over [`TimeSeriesStore::query`].
//!
//! Memory is strictly bounded: `retention × series` points, independent of
//! uptime. With the 100 ms default cadence and 600-point default retention
//! that is one minute of history per metric.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use serde::Serialize;

use crate::lock;
use crate::metrics::{MetricValue, MetricsRegistry};

/// One scraped value of one metric at one instant.
#[derive(Debug, Clone)]
pub struct RangePoint {
    /// Scrape time in nanoseconds on the trace clock ([`crate::now_nanos`]).
    pub nanos: u64,
    /// The value recorded at that instant.
    pub value: PointValue,
}

/// The payload of a [`RangePoint`], shaped by the metric's kind.
#[derive(Debug, Clone)]
pub enum PointValue {
    /// Cumulative counter value at scrape time.
    Counter(u64),
    /// Gauge value at scrape time.
    Gauge(i64),
    /// Histogram summary at scrape time (cumulative count and sum, plus the
    /// derived quantiles in seconds).
    Histogram {
        /// Total observations so far.
        count: u64,
        /// Sum of observed durations so far, in seconds.
        sum_seconds: f64,
        /// Median in seconds.
        p50: f64,
        /// 95th percentile in seconds.
        p95: f64,
        /// 99th percentile in seconds.
        p99: f64,
    },
}

/// One row of the series index ([`TimeSeriesStore::index`]) — the discovery
/// payload `GET /metrics/range` returns when no `name=` is given.
#[derive(Debug, Clone, Serialize)]
pub struct SeriesInfo {
    /// The series (metric) name.
    pub name: String,
    /// The metric kind: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// Number of retained points.
    pub points: u64,
    /// Timestamp of the oldest retained point (trace-clock nanoseconds).
    pub first_nanos: u64,
    /// Timestamp of the newest retained point.
    pub last_nanos: u64,
}

/// Fixed-retention rings of scraped metric points, keyed by metric name.
pub struct TimeSeriesStore {
    retention: usize,
    series: Mutex<BTreeMap<String, VecDeque<RangePoint>>>,
}

impl TimeSeriesStore {
    /// An empty store keeping at most `retention_points` points per series
    /// (clamped to at least 1).
    pub fn new(retention_points: usize) -> TimeSeriesStore {
        TimeSeriesStore {
            retention: retention_points.max(1),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// The per-series retention cap.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Snapshot every metric in `registry` and append one point per metric,
    /// stamped `nanos`. Rings at capacity drop their oldest point first.
    pub fn scrape_at(&self, registry: &MetricsRegistry, nanos: u64) {
        let scraped = registry.snapshot_all();
        let mut series = lock(&self.series);
        for (name, value) in scraped {
            let point = RangePoint {
                nanos,
                value: match value {
                    MetricValue::Counter(v) => PointValue::Counter(v),
                    MetricValue::Gauge(v) => PointValue::Gauge(v),
                    MetricValue::Histogram(snap) => PointValue::Histogram {
                        count: snap.count(),
                        sum_seconds: snap.sum_seconds(),
                        p50: snap.quantile(0.5),
                        p95: snap.quantile(0.95),
                        p99: snap.quantile(0.99),
                    },
                },
            };
            let ring = series.entry(name).or_default();
            while ring.len() >= self.retention {
                ring.pop_front();
            }
            ring.push_back(point);
        }
    }

    /// The points of series `name` whose timestamps fall inside
    /// `[since_nanos, until_nanos]`, oldest first. `None` means the series
    /// does not exist (never scraped) — distinct from an empty window.
    pub fn query(&self, name: &str, since_nanos: u64, until_nanos: u64) -> Option<Vec<RangePoint>> {
        lock(&self.series).get(name).map(|ring| {
            ring.iter()
                .filter(|p| p.nanos >= since_nanos && p.nanos <= until_nanos)
                .cloned()
                .collect()
        })
    }

    /// One [`SeriesInfo`] row per retained series, in name order — the
    /// discovery index behind a bare `GET /metrics/range`. Series whose ring
    /// is momentarily empty are skipped (they have no window to report).
    pub fn index(&self) -> Vec<SeriesInfo> {
        lock(&self.series)
            .iter()
            .filter_map(|(name, ring)| {
                let (first, last) = (ring.front()?, ring.back()?);
                let kind = match first.value {
                    PointValue::Counter(_) => "counter",
                    PointValue::Gauge(_) => "gauge",
                    PointValue::Histogram { .. } => "histogram",
                };
                Some(SeriesInfo {
                    name: name.clone(),
                    kind,
                    points: ring.len() as u64,
                    first_nanos: first.nanos,
                    last_nanos: last.nanos,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_value(p: &RangePoint) -> u64 {
        match p.value {
            PointValue::Counter(v) => v,
            _ => panic!("expected counter point"),
        }
    }

    #[test]
    fn scrape_records_every_kind_and_windows_filter() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total").add(1);
        reg.gauge("g_depth").set(3);
        reg.histogram("h_seconds").observe(0.01);
        let store = TimeSeriesStore::new(16);
        store.scrape_at(&reg, 100);
        reg.counter("c_total").add(1);
        store.scrape_at(&reg, 200);

        let names: Vec<String> = store.index().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["c_total", "g_depth", "h_seconds"]);
        let pts = store.query("c_total", 0, u64::MAX).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(counter_value(&pts[0]), 1);
        assert_eq!(counter_value(&pts[1]), 2);
        // Bounded window keeps only the matching point.
        let pts = store.query("c_total", 150, u64::MAX).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].nanos, 200);
        let pts = store.query("c_total", 0, 150).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].nanos, 100);
        // Unknown series is None, not an empty vec.
        assert!(store.query("missing", 0, u64::MAX).is_none());
        // Histogram points carry the folded summary.
        let h = store.query("h_seconds", 0, u64::MAX).unwrap();
        match &h[0].value {
            PointValue::Histogram { count, p99, .. } => {
                assert_eq!(*count, 1);
                assert!(*p99 >= 0.01);
            }
            other => panic!("expected histogram point, got {other:?}"),
        }
    }

    #[test]
    fn index_reports_kind_count_and_window() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total").inc();
        reg.gauge("g_depth").set(1);
        reg.histogram("h_seconds").observe(0.5);
        let store = TimeSeriesStore::new(8);
        assert!(store.index().is_empty(), "nothing scraped yet");
        store.scrape_at(&reg, 100);
        store.scrape_at(&reg, 250);
        let index = store.index();
        assert_eq!(index.len(), 3);
        let c = &index[0];
        assert_eq!(
            (c.name.as_str(), c.kind, c.points),
            ("c_total", "counter", 2)
        );
        assert_eq!((c.first_nanos, c.last_nanos), (100, 250));
        assert_eq!(index[1].kind, "gauge");
        assert_eq!(index[2].kind, "histogram");
    }

    #[test]
    fn retention_caps_each_ring() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total").inc();
        let store = TimeSeriesStore::new(4);
        for t in 0..20u64 {
            store.scrape_at(&reg, t);
        }
        let pts = store.query("c_total", 0, u64::MAX).unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].nanos, 16, "oldest points fall off the front");
        assert_eq!(pts[3].nanos, 19);
    }
}

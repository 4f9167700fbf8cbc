//! Property tests for the time-series store: the retention cap is a hard
//! bound and range queries always come back oldest-first.

use ftn_trace::{MetricsRegistry, TimeSeriesStore};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However many scrapes happen and whatever (even non-monotonic)
    /// timestamps they carry, no series ever holds more than `retention`
    /// points, and every ring drops from the front (scrape order wins).
    #[test]
    fn ring_never_exceeds_retention(
        retention in 1usize..32,
        scrape_nanos in proptest::collection::vec(0u64..1_000_000, 1..120),
        metric_count in 1usize..5,
    ) {
        let registry = MetricsRegistry::new();
        for m in 0..metric_count {
            registry.counter(&format!("m{m}_total")).inc();
        }
        let store = TimeSeriesStore::new(retention);
        for &t in &scrape_nanos {
            store.scrape_at(&registry, t);
        }
        let series = store.index();
        prop_assert_eq!(series.len(), metric_count);
        let expected = scrape_nanos.len().min(retention);
        let kept = &scrape_nanos[scrape_nanos.len() - expected..];
        for name in series.into_iter().map(|s| s.name) {
            let points = store.query(&name, 0, u64::MAX).unwrap();
            prop_assert!(points.len() <= retention,
                "series {} holds {} > retention {}", name, points.len(), retention);
            prop_assert_eq!(points.len(), expected);
            for (p, &t) in points.iter().zip(kept) {
                prop_assert_eq!(p.nanos, t, "retained points are the latest scrapes");
            }
        }
    }

    /// Scrapes stamped by a monotonic clock yield range queries whose
    /// timestamps are monotonically non-decreasing and inside the window,
    /// for any window.
    #[test]
    fn range_queries_are_monotonic_and_windowed(
        retention in 1usize..64,
        deltas in proptest::collection::vec(0u64..1_000, 1..100),
        edge_a in 0u64..200_000,
        edge_b in 0u64..200_000,
    ) {
        let registry = MetricsRegistry::new();
        registry.gauge("depth").set(1);
        let store = TimeSeriesStore::new(retention);
        let mut now = 0u64;
        for &d in &deltas {
            now += d;
            store.scrape_at(&registry, now);
        }
        let (since, until) = (edge_a.min(edge_b), edge_a.max(edge_b));
        let points = store.query("depth", since, until).unwrap();
        let mut prev = since;
        for p in &points {
            prop_assert!(p.nanos >= since && p.nanos <= until,
                "point {} outside [{since}, {until}]", p.nanos);
            prop_assert!(p.nanos >= prev, "timestamps must not decrease");
            prev = p.nanos;
        }
        // Inverted windows are simply empty, never a panic.
        prop_assert!(store.query("depth", until.saturating_add(1), until).unwrap().is_empty());
    }
}

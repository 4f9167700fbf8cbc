//! Property tests for the log-bucketed histogram: the 25%-overestimate
//! quantile bound and monotone quantiles.

use ftn_trace::Histogram;
use proptest::prelude::*;

fn from_nanos(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.observe_nanos(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every quantile lies within the bucketing error bound: at least the
    /// true order statistic, at most 25% above it.
    #[test]
    fn quantiles_respect_error_bound(
        values in proptest::collection::vec(0u64..u64::MAX / 2, 1..80),
        qi in 0usize..5,
    ) {
        let q = [0.01, 0.25, 0.5, 0.95, 1.0][qi];
        let h = from_nanos(&values);
        let mut values = values;
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let truth = values[rank - 1] as f64 * 1e-9;
        let got = h.quantile(q);
        prop_assert!(got >= truth, "quantile {got} below true order statistic {truth}");
        prop_assert!(
            got <= truth * 1.25 + 1e-9,
            "quantile {} exceeds 1.25x true value {}",
            got,
            truth
        );
    }

    /// Quantiles are monotone in q.
    #[test]
    fn quantiles_are_monotone(
        values in proptest::collection::vec(0u64..u64::MAX / 2, 1..80),
    ) {
        let h = from_nanos(&values);
        let mut prev = 0.0f64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let cur = h.quantile(q);
            prop_assert!(cur >= prev, "quantile not monotone at q={q}");
            prev = cur;
        }
    }
}

//! The benchmark's one estimator: medians and quartiles, never a best-of-N.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), so a spread computed here equals the one the driver
//! computes over the same values.

/// Median, quartiles, minimum and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; panics on an empty slice (a metric with no
    /// samples is a bug in the caller, not a value to report).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, median, q3) = if s.len() == 1 {
            (s[0], s[0], s[0])
        } else {
            (quantile(&s, 1), quantile(&s, 2), quantile(&s, 3))
        };
        Summary {
            median,
            q1,
            q3,
            min: s[0],
            n: s.len(),
        }
    }

    /// `(q3 - q1) / median`: the benchmark's own noise figure.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The `k`-th quartile of sorted `s` (exclusive method, n = 4).
fn quantile(s: &[f64], k: usize) -> f64 {
    let m = s.len() + 1;
    let j = (k * m / 4).clamp(1, s.len() - 1);
    let delta = (k * m) as f64 / 4.0 - j as f64;
    s[j - 1] + (s[j] - s[j - 1]) * delta
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The `p`-th percentile (nearest rank) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.n), (1.0, 2.0, 3.0, 1.0, 3));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}

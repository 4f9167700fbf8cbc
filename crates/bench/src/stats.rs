//! Measurement statistics: the paper reports the median ± standard deviation
//! over 10 runs; our simulator is deterministic, so per-trial measurement
//! noise is modelled as seeded multiplicative jitter at the magnitude the
//! paper's std columns show (0.02–2%).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median of a sample (sorted copy; even-length takes the lower-middle
/// average).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Sample standard deviation.
pub fn std_dev(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    var.sqrt()
}

/// A measured quantity: median ± std over trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    pub median: f64,
    pub std: f64,
}

/// Apply `trials` multiplicative jitter draws (±`rel` uniform) to a base
/// value and summarize — the simulated analogue of repeated wall-clock runs.
pub fn measure_with_jitter(base: f64, trials: usize, rel: f64, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<f64> = (0..trials)
        .map(|_| base * (1.0 + rng.gen_range(-rel..=rel)))
        .collect();
    Measurement {
        median: median(&samples),
        std: std_dev(&samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn std_dev_known_value() {
        let s = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s - 2.138).abs() < 0.01, "{s}");
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let a = measure_with_jitter(100.0, 10, 0.01, 42);
        let b = measure_with_jitter(100.0, 10, 0.01, 42);
        assert_eq!(a, b, "same seed, same measurement");
        assert!((a.median - 100.0).abs() < 1.5);
        assert!(a.std < 1.5);
        let c = measure_with_jitter(100.0, 10, 0.01, 43);
        assert_ne!(a, c);
    }
}

//! Summary statistics for the benchmark harness.
//!
//! The paper reports NSPS as "the average time of one iteration … divided by
//! the number of particles and by the number of steps". The harness also
//! needs dispersion measures to decide whether a run is stable, so this
//! module provides a [`Summary`] over a sample and a streaming
//! [`OnlineStats`] accumulator (Welford's algorithm).

/// Summary statistics of a sample of `f64` observations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (average of the two central order statistics for even n).
    pub median: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is empty or contains NaN.
    pub fn of(sample: &[f64]) -> Summary {
        assert!(!sample.is_empty(), "Summary::of: empty sample");
        assert!(
            sample.iter().all(|x| !x.is_nan()),
            "Summary::of: sample contains NaN"
        );
        let mut acc = OnlineStats::new();
        for &x in sample {
            acc.push(x);
        }
        let mut sorted = sample.to_vec();
        #[expect(
            clippy::expect_used,
            reason = "the function rejects NaN input before this point, so the comparison is total"
        )]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        Summary {
            count: n,
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
        }
    }

    /// Relative dispersion `std_dev / mean` (0 when the mean is 0).
    pub fn rel_std_dev(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean.abs()
        }
    }
}

/// Streaming mean/variance accumulator (Welford).
///
/// # Example
///
/// ```
/// use pic_math::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator; 0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        // Sample std dev of 1..4 is sqrt(5/3).
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_element() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn summary_odd_median() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_nan_panics() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn welford_matches_naive() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut acc = OnlineStats::new();
        for &x in &data {
            acc.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-10);
        assert!((acc.variance() - var).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..57).map(|i| (i * i % 13) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let (a, b) = data.split_at(20);
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in a {
            left.push(x);
        }
        for &x in b {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn rel_std_dev() {
        let s = Summary::of(&[10.0, 10.0, 10.0]);
        assert_eq!(s.rel_std_dev(), 0.0);
    }
}

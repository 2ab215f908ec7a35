//! `Samples`: the one summary type `raven-bench` reports timings with —
//! median, quartiles, and a nearest-rank percentile that refuses to
//! answer when fewer than ten samples lie beyond it (a tail read off a
//! handful of points does not repeat between runs).

/// Samples beyond a percentile below which it is not reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A sorted bag of finite measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort `values`; non-finite values are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "Samples holds finite measurements only"
        );
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The middle value (mean of the two middle values for an even
    /// count); `None` when empty.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
    /// computes them (the "exclusive" method), so a spread computed here
    /// equals the one the driver computes. Needs two samples.
    pub fn quartiles(&self) -> Option<(f64, f64, f64)> {
        let n = self.sorted.len();
        if n < 2 {
            return None;
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (self.sorted[j - 1] * (4.0 - delta) + self.sorted[j] * delta) / 4.0
        };
        Some((cut(1), cut(2), cut(3)))
    }

    /// Interquartile range as a share of the median — the run-to-run
    /// spread the contract bounds. `None` below two samples or when the
    /// median is zero.
    pub fn spread(&self) -> Option<f64> {
        let (q1, q2, q3) = self.quartiles()?;
        (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
    }

    /// Nearest-rank percentile `p` in `(0, 100)`: the smallest sample
    /// with at least `p` % of the samples at or below it. `None` when
    /// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
            return None;
        }
        Some(self.sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(range: std::ops::RangeInclusive<u32>) -> Samples {
        Samples::new(range.rev().map(f64::from).collect())
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(of(1..=5).median(), Some(3.0));
        assert_eq!(of(1..=4).median(), Some(2.5));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(of(1..=10).quartiles(), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(of(1..=5).quartiles(), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(of(1..=2).quartiles(), Some((0.75, 1.5, 2.25)));
        assert_eq!(of(1..=1).quartiles(), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(of(1..=10).spread(), Some(5.5 / 5.5));
        assert_eq!(Samples::new(vec![0.0, 0.0, 0.0]).spread(), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = of(1..=1000);
        assert_eq!(s.percentile(50.0), Some(500.0));
        assert_eq!(s.percentile(95.0), Some(950.0));
        assert_eq!(s.percentile(99.0), Some(990.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 200 samples: exactly 10 lie beyond p95 — the smallest count
        // that still reports it.
        assert_eq!(of(1..=200).percentile(95.0), Some(190.0));
        assert_eq!(of(1..=199).percentile(95.0), None);
        // p99 needs 1 000.
        assert_eq!(of(1..=999).percentile(99.0), None);
        assert_eq!(of(1..=1000).percentile(99.0), Some(990.0));
        assert_eq!(Samples::default().percentile(50.0), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_are_rejected() {
        Samples::new(vec![1.0, f64::NAN]);
    }
}

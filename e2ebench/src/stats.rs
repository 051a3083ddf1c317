//! Percentiles and summaries for the timings the benchmark reports.
//!
//! Every timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count. Percentiles use the nearest-rank definition: the value at
//! rank `ceil(p/100 · n)` of the ascending samples.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// One-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    // A small tolerance keeps e.g. 0.9 * 100 = 90.00000000000001 from
    // rounding up to the next rank.
    let exact = p / 100.0 * n as f64;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (nearest rank, like every other percentile
/// here).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A sorted timing sample.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    sorted: Vec<f64>,
}

impl Timings {
    /// Sorts `samples` into a summary.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Timings { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank percentile `p`, or an error naming the shortfall
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail the
    /// sample cannot support is never reported.
    pub fn at(&self, p: f64) -> Result<f64, String> {
        let n = self.sorted.len();
        if n == 0 || (p > 50.0 && beyond(n, p) < MIN_BEYOND) {
            return Err(format!(
                "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples give {}",
                if n == 0 { 0 } else { beyond(n, p) }
            ));
        }
        Ok(percentile(&self.sorted, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Odd count: the median is the middle sample, not an average.
        assert_eq!(percentile(&[1.0, 2.0, 30.0], 50.0), 2.0);
        assert_eq!(median(&[30.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9); // rank 990 of 999
    }

    #[test]
    fn unsupported_tails_are_refused() {
        let t = Timings::new((0..999).map(f64::from).collect());
        assert!(t.at(99.0).is_err());
        assert_eq!(t.at(90.0), Ok(899.0));
        let t = Timings::new((0..1000).map(f64::from).collect());
        assert_eq!(t.at(99.0), Ok(989.0));
        assert_eq!(t.at(50.0), Ok(499.0));
        assert!(Timings::default().at(50.0).is_err());
    }
}

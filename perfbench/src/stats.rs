//! Aggregation rules shared by every workload: which percentile a sample
//! supports, medians, failure accounting, and the shape a request cycle
//! must have.

/// A reported percentile needs at least this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// The percentile every workload reports besides the median.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Samples a workload must collect so that [`TAIL_PERCENTILE`] is supported.
pub fn min_samples_for_tail() -> usize {
    (1..)
        .find(|&n| supports(n, TAIL_PERCENTILE))
        .unwrap_or(usize::MAX)
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100, to a tenth) among
/// `n` samples, in integer arithmetic so that `p` of `n` rounds exactly.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] samples above the
/// nearest-rank position of percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest of the conventional percentiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Nearest-rank percentile `p` of `samples` (need not be sorted).
/// `None` when the sample is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median: the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Operations attempted and failed. Every request counts once: a non-200
/// status or a transport error is a failure and is never retried.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempted operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks that a request cycle draws an odd number of inputs, each equally
/// often. `weights[i]` is how many times input `i` occurs per period.
///
/// With equal weights and an odd count, the median falls inside the middle
/// input's latency cluster instead of on the gap between two clusters.
pub fn check_cycle(weights: &[usize]) -> Result<(), String> {
    if weights.len().is_multiple_of(2) {
        return Err(format!(
            "a cycle needs an odd number of inputs, got {}",
            weights.len()
        ));
    }
    if weights.iter().any(|&w| w != weights[0]) || weights[0] == 0 {
        return Err(format!(
            "cycle inputs are not equally weighted: {weights:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert_eq!(min_samples_for_tail(), 100);
        assert!(!supports(10, 50.0));
        assert!(supports(20, 50.0));
    }

    #[test]
    fn highest_supported_percentile_grows_with_the_sample() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut a = Tally::default();
        a.record(true);
        a.record(false);
        let mut b = Tally::default();
        b.record(false);
        a.merge(b);
        assert_eq!(
            a,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }

    #[test]
    fn cycles_must_be_odd_and_equally_weighted() {
        assert!(check_cycle(&[3, 3, 3]).is_ok());
        assert!(check_cycle(&[1]).is_ok());
        assert!(check_cycle(&[2, 2]).is_err());
        assert!(check_cycle(&[3, 3, 2]).is_err());
        assert!(check_cycle(&[]).is_err());
        assert!(check_cycle(&[0, 0, 0]).is_err());
    }
}

//! Evaluation metrics for Section 6's experiments.
//!
//! "The matching accuracy of a source is defined as the percentage of
//! matchable source-schema tags that are matched correctly by LSD."

/// Matching accuracy: fraction of `(predicted, truth)` pairs that agree,
/// restricted by the caller to matchable tags. Returns `None` for an empty
/// input (an undefined accuracy must not silently count as 0 or 1).
pub fn matching_accuracy(predicted: &[usize], truth: &[usize]) -> Option<f64> {
    assert_eq!(predicted.len(), truth.len());
    if predicted.is_empty() {
        return None;
    }
    let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    Some(correct as f64 / predicted.len() as f64)
}

/// Arithmetic mean; `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Sample standard deviation (n−1 denominator); 0 for fewer than 2 values.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values).expect("non-empty");
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(matching_accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]), Some(0.75));
        assert_eq!(matching_accuracy(&[], &[]), None);
        assert_eq!(matching_accuracy(&[5], &[5]), Some(1.0));
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}

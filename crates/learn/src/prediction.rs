//! Confidence-score predictions.

use serde::{Deserialize, Serialize};

/// A prediction of the form `⟨s(c₁|x,L), …, s(cₙ|x,L)⟩` with
/// `Σ s(cᵢ|x,L) = 1` (paper Section 2.2). Index `i` is the label index in
/// the corresponding [`crate::LabelSet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    scores: Vec<f64>,
}

impl Prediction {
    /// Builds a prediction from raw non-negative scores, normalizing them to
    /// sum to 1. If every score is zero (a learner with no opinion), the
    /// result is the uniform distribution.
    pub fn from_scores(scores: Vec<f64>) -> Self {
        assert!(!scores.is_empty(), "prediction over empty label set");
        debug_assert!(
            scores.iter().all(|&s| s >= 0.0 && s.is_finite()),
            "scores: {scores:?}"
        );
        let mut p = Prediction { scores };
        p.renormalize();
        p
    }

    /// The uniform distribution over `n` labels — the "no information"
    /// prediction.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0);
        Prediction {
            scores: vec![1.0 / n as f64; n],
        }
    }

    /// Builds from log-scores (e.g. Naive Bayes log-posteriors) via a
    /// numerically-stable softmax.
    pub fn from_log_scores(log_scores: &[f64]) -> Self {
        assert!(!log_scores.is_empty());
        let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return Prediction::uniform(log_scores.len());
        }
        let scores: Vec<f64> = log_scores.iter().map(|&l| (l - max).exp()).collect();
        Prediction::from_scores(scores)
    }

    /// Score of one label.
    pub fn score(&self, label: usize) -> f64 {
        self.scores[label]
    }

    /// All scores, indexed by label.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Never true; predictions are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The highest-scoring label (lowest index wins ties).
    pub fn best_label(&self) -> usize {
        let mut best = 0;
        for (i, &s) in self.scores.iter().enumerate() {
            if s > self.scores[best] {
                best = i;
            }
        }
        best
    }

    /// Labels sorted by decreasing score (stable for ties).
    pub fn ranked_labels(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.scores.len()).collect();
        order.sort_by(|&a, &b| {
            self.scores[b]
                .partial_cmp(&self.scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// The element-wise average of several predictions — the paper's
    /// prediction converter rule (Section 3.2, step 2: "simply computes the
    /// average score of each label from the given predictions").
    pub fn average<'a>(
        predictions: impl IntoIterator<Item = &'a Prediction>,
    ) -> Option<Prediction> {
        let mut iter = predictions.into_iter();
        let first = iter.next()?;
        let mut sum = first.scores.clone();
        let mut count = 1usize;
        for p in iter {
            assert_eq!(p.scores.len(), sum.len(), "mismatched label sets");
            for (acc, s) in sum.iter_mut().zip(&p.scores) {
                *acc += s;
            }
            count += 1;
        }
        for s in &mut sum {
            *s /= count as f64;
        }
        Some(Prediction::from_scores(sum))
    }

    fn renormalize(&mut self) {
        let total: f64 = self.scores.iter().sum();
        if total > 0.0 {
            for s in &mut self.scores {
                *s /= total;
            }
        } else {
            let n = self.scores.len();
            self.scores.fill(1.0 / n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_scores_normalizes() {
        let p = Prediction::from_scores(vec![1.0, 3.0]);
        assert_eq!(p.scores(), &[0.25, 0.75]);
        assert_eq!(p.best_label(), 1);
    }

    #[test]
    fn zero_scores_become_uniform() {
        let p = Prediction::from_scores(vec![0.0, 0.0, 0.0]);
        assert!(p.scores().iter().all(|&s| (s - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn log_scores_softmax() {
        let p = Prediction::from_log_scores(&[0.0, (2.0f64).ln()]);
        assert!((p.score(1) / p.score(0) - 2.0).abs() < 1e-9);
        assert!((p.scores().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_scores_handle_extreme_magnitudes() {
        let p = Prediction::from_log_scores(&[-1e6, -1e6 + 1.0]);
        assert!(p.score(1) > p.score(0));
        assert!(p.scores().iter().all(|s| s.is_finite()));
    }

    #[test]
    fn all_neg_infinity_is_uniform() {
        let p = Prediction::from_log_scores(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert_eq!(p.scores(), &[0.5, 0.5]);
    }

    #[test]
    fn average_matches_paper_example() {
        // Section 3.2: averaging the three instance predictions for `area`
        // gives ⟨0.7, 0.163, 0.137⟩.
        let ps = [
            Prediction::from_scores(vec![0.7, 0.2, 0.1]),
            Prediction::from_scores(vec![0.5, 0.2, 0.3]),
            Prediction::from_scores(vec![0.9, 0.09, 0.01]),
        ];
        let avg = Prediction::average(ps.iter()).unwrap();
        assert!((avg.score(0) - 0.7).abs() < 1e-9);
        assert!((avg.score(1) - 0.163).abs() < 1e-3);
        assert!((avg.score(2) - 0.137).abs() < 1e-3);
    }

    #[test]
    fn average_of_none_is_none() {
        assert!(Prediction::average(std::iter::empty()).is_none());
    }

    #[test]
    fn ranked_labels_order() {
        let p = Prediction::from_scores(vec![0.2, 0.5, 0.3]);
        assert_eq!(p.ranked_labels(), vec![1, 2, 0]);
    }
}

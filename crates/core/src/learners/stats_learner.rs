//! The value-statistics learner (paper Section 1 / related work).
//!
//! The introduction motivates learning "from the characteristics of value
//! distributions: it can look at the average value of an element, and learn
//! that if that value is in the thousands, then the element is more likely
//! to be price than the number of bathrooms" — the kind of evidence the
//! Semint system (related work, Section 8) exploits. This learner models
//! each class's numeric profile — mean/variance of value magnitude, token
//! count, text length, digit/letter ratios — and scores a new instance by
//! Gaussian log-likelihood per feature. It is the numeric complement of the
//! text-oriented learners: strongest exactly where Naive Bayes and WHIRL
//! are weakest (short numeric fields), and a live demonstration that LSD's
//! learner set is extensible.

use crate::instance::Instance;
use crate::learners::{BaseLearner, Reads};
use lsd_learn::Prediction;

/// Number of numeric features extracted per instance.
const NUM_FEATURES: usize = 6;

/// Per-class running statistics for one feature.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
struct Moments {
    count: f64,
    sum: f64,
    sum_sq: f64,
}

impl Moments {
    fn push(&mut self, x: f64) {
        self.count += 1.0;
        self.sum += x;
        self.sum_sq += x * x;
    }

    fn mean(&self) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.sum / self.count
        }
    }

    /// Variance with a floor, so constant features don't produce
    /// zero-width Gaussians.
    fn variance(&self) -> f64 {
        if self.count < 2.0 {
            return 1.0;
        }
        let m = self.mean();
        ((self.sum_sq / self.count) - m * m).max(0.05)
    }

    /// Gaussian log-density of `x` under this feature's fitted moments.
    fn log_density(&self, x: f64) -> f64 {
        let var = self.variance();
        let d = x - self.mean();
        -0.5 * (d * d / var) - 0.5 * (var * std::f64::consts::TAU).ln()
    }
}

/// Gaussian naive-Bayes over numeric value-shape features.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StatsLearner {
    num_labels: usize,
    /// `moments[label][feature]`.
    moments: Vec<[Moments; NUM_FEATURES]>,
    class_counts: Vec<f64>,
    total: f64,
}

impl StatsLearner {
    /// Creates an untrained learner.
    pub fn new(num_labels: usize) -> Self {
        StatsLearner {
            num_labels,
            moments: vec![[Moments::default(); NUM_FEATURES]; num_labels],
            class_counts: vec![0.0; num_labels],
            total: 0.0,
        }
    }

    /// The feature vector of one instance:
    /// `[log10 magnitude, token count, char length, digit ratio, letter
    /// ratio, numeric-token ratio]`.
    fn features(instance: &Instance) -> [f64; NUM_FEATURES] {
        let text = instance.text();
        let trimmed = text.trim();
        let chars = trimmed.chars().count().max(1);
        let digits = trimmed.chars().filter(char::is_ascii_digit).count();
        let letters = trimmed.chars().filter(|c| c.is_alphabetic()).count();
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        let numeric_tokens = tokens
            .iter()
            .filter(|t| {
                let cleaned: String = t
                    .chars()
                    .filter(|c| !matches!(c, '$' | ',' | '%' | '#'))
                    .collect();
                !cleaned.is_empty() && cleaned.parse::<f64>().is_ok()
            })
            .count();
        // Magnitude: the largest numeric value found, log-scaled; 0 when
        // the instance has no number (log10 of 1).
        let magnitude = tokens
            .iter()
            .filter_map(|t| {
                let cleaned: String = t
                    .chars()
                    .filter(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                cleaned.parse::<f64>().ok()
            })
            .fold(0.0f64, f64::max);
        [
            (magnitude.max(1.0)).log10(),
            (tokens.len() as f64).min(40.0),
            (chars as f64).min(200.0).ln(),
            digits as f64 / chars as f64,
            letters as f64 / chars as f64,
            if tokens.is_empty() {
                0.0
            } else {
                numeric_tokens as f64 / tokens.len() as f64
            },
        ]
    }
}

impl BaseLearner for StatsLearner {
    fn snapshot(&self) -> Option<crate::persist::SavedLearner> {
        Some(crate::persist::SavedLearner::Stats(self.clone()))
    }

    fn name(&self) -> &'static str {
        "stats-learner"
    }

    fn train(&mut self, examples: &[(&Instance, usize)]) {
        *self = StatsLearner::new(self.num_labels);
        for (instance, label) in examples {
            let f = Self::features(instance);
            for (m, x) in self.moments[*label].iter_mut().zip(f) {
                m.push(x);
            }
            self.class_counts[*label] += 1.0;
            self.total += 1.0;
        }
    }

    fn supports_warm_start(&self) -> bool {
        true
    }

    fn warm_train(&mut self, examples: &[(&Instance, usize)]) -> bool {
        for (instance, label) in examples {
            let f = Self::features(instance);
            for (m, x) in self.moments[*label].iter_mut().zip(f) {
                m.push(x);
            }
            self.class_counts[*label] += 1.0;
            self.total += 1.0;
        }
        true
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        if self.total == 0.0 {
            return Prediction::uniform(self.num_labels);
        }
        let f = Self::features(instance);
        let log_scores: Vec<f64> = (0..self.num_labels)
            .map(|label| {
                if self.class_counts[label] == 0.0 {
                    return f64::NEG_INFINITY;
                }
                let prior = (self.class_counts[label] / self.total).ln();
                let likelihood: f64 = self.moments[label]
                    .iter()
                    .zip(f)
                    .map(|(m, x)| m.log_density(x))
                    .sum();
                prior + likelihood
            })
            .collect();
        Prediction::from_log_scores(&log_scores)
    }

    /// Predicts from the instance text alone.
    fn reads(&self) -> Reads {
        Reads::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::Element;

    fn inst(text: &str) -> Instance {
        Instance::new(Element::text_leaf("t", text), vec!["t".to_string()])
    }

    /// Labels: 0 PRICE (thousands), 1 BATHS (single digits), 2 DESCRIPTION
    /// (long text).
    fn trained() -> StatsLearner {
        let mut l = StatsLearner::new(3);
        let ex = [
            (inst("$250,000"), 0),
            (inst("$110,000"), 0),
            (inst("$485,000"), 0),
            (inst("$90,000"), 0),
            (inst("2"), 1),
            (inst("3"), 1),
            (inst("1.5"), 1),
            (inst("2.5"), 1),
            (inst("Fantastic house with a great yard near the river"), 2),
            (inst("Charming bungalow, close to downtown and schools"), 2),
            (inst("Spacious rooms and a beautiful garden"), 2),
        ];
        let refs: Vec<(&Instance, usize)> = ex.iter().map(|(i, l)| (i, *l)).collect();
        BaseLearner::train(&mut l, &refs);
        l
    }

    #[test]
    fn magnitude_separates_price_from_baths() {
        // The introduction's example: average value in the thousands →
        // price, not number of bathrooms.
        let l = trained();
        assert_eq!(l.predict(&inst("$375,000")).best_label(), 0);
        assert_eq!(l.predict(&inst("4")).best_label(), 1);
    }

    #[test]
    fn long_text_is_not_numeric() {
        let l = trained();
        let p = l.predict(&inst("Lovely cottage with mountain views and a new roof"));
        assert_eq!(p.best_label(), 2);
    }

    #[test]
    fn unseen_class_gets_zero_mass() {
        let mut l = StatsLearner::new(3);
        let a = inst("5");
        let b = inst("7");
        let refs: Vec<(&Instance, usize)> = vec![(&a, 0), (&b, 0)];
        BaseLearner::train(&mut l, &refs);
        let p = l.predict(&inst("6"));
        assert_eq!(p.best_label(), 0);
        assert_eq!(p.score(1), 0.0);
        assert_eq!(p.score(2), 0.0);
    }

    #[test]
    fn untrained_is_uniform() {
        let l = StatsLearner::new(4);
        let p = l.predict(&inst("anything"));
        assert!(p.scores().iter().all(|&s| (s - 0.25).abs() < 1e-12));
    }

    #[test]
    fn features_are_finite_on_edge_inputs() {
        for text in ["", " ", "$", "0", "a", "999999999999", "§§§"] {
            let f = StatsLearner::features(&inst(text));
            assert!(f.iter().all(|x| x.is_finite()), "{text:?}: {f:?}");
        }
    }
}

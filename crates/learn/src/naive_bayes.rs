//! The multinomial Naive Bayes text classifier (paper Section 3.3).
//!
//! Each input instance is a bag of tokens `d = {w₁ … wₖ}`. The learner
//! assigns `d` to the class maximizing `P(cᵢ|d) ∝ P(d|cᵢ)·P(cᵢ)` with
//! `P(d|cᵢ) = Π P(wⱼ|cᵢ)` under the token-independence assumption, where
//! `P(wⱼ|cᵢ) = n(wⱼ,cᵢ) / n(cᵢ)` — the fraction of token positions of class
//! `cᵢ` occupied by `wⱼ`. We add Laplace smoothing (configurable for the
//! ablation bench) so unseen tokens don't zero out the product, and work in
//! log space for numerical stability.

use crate::prediction::Prediction;
use crate::Classifier;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Naive Bayes hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NaiveBayesConfig {
    /// Laplace smoothing pseudo-count added to every token count.
    pub smoothing: f64,
}

impl Default for NaiveBayesConfig {
    fn default() -> Self {
        NaiveBayesConfig { smoothing: 1.0 }
    }
}

/// A trained multinomial Naive Bayes model over string tokens.
///
/// ```
/// use lsd_learn::{NaiveBayes, NaiveBayesConfig};
///
/// let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
/// let desc: Vec<String> = ["fantastic", "great", "view"].iter().map(|s| s.to_string()).collect();
/// let addr: Vec<String> = ["miami", "fl"].iter().map(|s| s.to_string()).collect();
/// nb.add_example(&desc, 0);
/// nb.add_example(&addr, 1);
/// let query: Vec<String> = ["great", "fantastic"].iter().map(|s| s.to_string()).collect();
/// assert_eq!(nb.predict_tokens(&query).best_label(), 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NaiveBayes {
    config: NaiveBayesConfig,
    num_labels: usize,
    /// `n(w, c)` — token counts per (token, class).
    token_counts: HashMap<String, Vec<f64>>,
    /// `n(c)` — total token positions per class.
    class_token_totals: Vec<f64>,
    /// Number of training instances per class (for the prior `P(c)`).
    class_doc_counts: Vec<f64>,
    total_docs: f64,
}

impl NaiveBayes {
    /// Creates an untrained model for `num_labels` classes.
    pub fn new(num_labels: usize, config: NaiveBayesConfig) -> Self {
        NaiveBayes {
            config,
            num_labels,
            token_counts: HashMap::new(),
            class_token_totals: vec![0.0; num_labels],
            class_doc_counts: vec![0.0; num_labels],
            total_docs: 0.0,
        }
    }

    /// Adds one training instance incrementally.
    pub fn add_example(&mut self, tokens: &[String], label: usize) {
        assert!(label < self.num_labels);
        for t in tokens {
            self.token_counts
                .entry(t.clone())
                .or_insert_with(|| vec![0.0; self.num_labels])[label] += 1.0;
        }
        self.class_token_totals[label] += tokens.len() as f64;
        self.class_doc_counts[label] += 1.0;
        self.total_docs += 1.0;
    }

    /// Vocabulary size (distinct tokens seen in training).
    pub fn vocab_size(&self) -> usize {
        self.token_counts.len()
    }

    /// Number of classes.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// `log P(c)` — the fraction of training instances with label `c`, as
    /// in the paper ("P(cᵢ) is approximated as the portion of training
    /// instances with label cᵢ"). Deliberately *not* smoothed: a class with
    /// no training instances must get probability 0, otherwise its empty
    /// token model (where every token is equally "likely") outcompetes
    /// trained classes on unseen tokens.
    fn log_prior(&self, label: usize) -> f64 {
        if self.class_doc_counts[label] == 0.0 {
            f64::NEG_INFINITY
        } else {
            (self.class_doc_counts[label] / self.total_docs).ln()
        }
    }

    /// Predicts the class distribution for a token bag.
    ///
    /// Scores token by token: one `token_counts` lookup per token, then
    /// each label's `log P(w|c)` term (Laplace smoothing over the
    /// vocabulary, division then `ln`) is added to that label's running
    /// sum. Each sum starts from `-0.0` and folds in token order, exactly
    /// as `Iterator::sum` would per label, and `log P(c)` is added last —
    /// so the scores are bit-identical to summing per label.
    pub fn predict_tokens(&self, tokens: &[String]) -> Prediction {
        if self.total_docs == 0.0 {
            return Prediction::uniform(self.num_labels);
        }
        Prediction::from_log_scores(&self.log_scores(tokens))
    }

    /// `log P(c) + Σ log P(w|c)` per label for a token bag (see
    /// [`Self::predict_tokens`]).
    fn log_scores(&self, tokens: &[String]) -> Vec<f64> {
        let smoothing = self.config.smoothing;
        let v = self.vocab_size() as f64 + 1.0; // +1 for the unseen-token bucket
        let denominators: Vec<f64> = self
            .class_token_totals
            .iter()
            .map(|&total| total + smoothing * v)
            .collect();
        let mut sums = vec![-0.0f64; self.num_labels];
        for token in tokens {
            let counts = self.token_counts.get(token);
            for (c, (sum, &denominator)) in sums.iter_mut().zip(&denominators).enumerate() {
                let count = counts.map_or(0.0, |counts| counts[c]);
                *sum += ((count + smoothing) / denominator).ln();
            }
        }
        sums.iter()
            .enumerate()
            .map(|(c, &sum)| self.log_prior(c) + sum)
            .collect()
    }
}

impl Classifier<[String]> for NaiveBayes {
    fn train(&mut self, examples: &[(&[String], usize)]) {
        *self = NaiveBayes::new(self.num_labels, self.config);
        for (tokens, label) in examples {
            self.add_example(tokens, *label);
        }
    }

    fn predict(&self, example: &[String]) -> Prediction {
        self.predict_tokens(example)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// The per-label formula `predict_tokens` replaced: for each label,
    /// `log P(c) + Σ log P(w|c)`, hashing every token once per label.
    fn reference_log_scores(nb: &NaiveBayes, tokens: &[String]) -> Vec<f64> {
        let log_token_prob = |token: &str, label: usize| {
            let v = nb.vocab_size() as f64 + 1.0;
            let count = nb.token_counts.get(token).map_or(0.0, |c| c[label]);
            ((count + nb.config.smoothing)
                / (nb.class_token_totals[label] + nb.config.smoothing * v))
                .ln()
        };
        (0..nb.num_labels)
            .map(|c| nb.log_prior(c) + tokens.iter().map(|t| log_token_prob(t, c)).sum::<f64>())
            .collect()
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    proptest! {
        /// Token-by-token scoring equals the per-label formula bit for
        /// bit, including empty bags, repeated and unseen tokens, and
        /// labels with no training documents (`log P(c) = -inf`).
        #[test]
        fn token_by_token_scoring_is_bit_identical(
            // Small vocabularies: tokens repeat within a bag, and queries
            // (over a wider alphabet) mix seen and unseen tokens.
            docs in prop::collection::vec((prop::collection::vec("[a-h]", 0..8), 0usize..5), 1..12),
            queries in prop::collection::vec(prop::collection::vec("[a-l]", 0..10), 1..6),
            smoothing in prop_oneof![Just(1.0f64), Just(0.5), Just(0.01)],
        ) {
            let mut nb = NaiveBayes::new(5, NaiveBayesConfig { smoothing });
            for (tokens, label) in &docs {
                nb.add_example(tokens, *label);
            }
            for query in &queries {
                prop_assert_eq!(
                    bits(&nb.log_scores(query)),
                    bits(&reference_log_scores(&nb, query))
                );
            }
        }
    }

    fn trained() -> NaiveBayes {
        // 0 = DESCRIPTION, 1 = ADDRESS.
        let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
        nb.add_example(&toks("fantastic house great location"), 0);
        nb.add_example(&toks("great yard beautiful view"), 0);
        nb.add_example(&toks("nice area close to river"), 0);
        nb.add_example(&toks("miami fl"), 1);
        nb.add_example(&toks("boston ma"), 1);
        nb.add_example(&toks("seattle wa"), 1);
        nb
    }

    #[test]
    fn frequent_indicative_tokens_drive_prediction() {
        let nb = trained();
        assert_eq!(
            nb.predict_tokens(&toks("great fantastic view"))
                .best_label(),
            0
        );
        assert_eq!(nb.predict_tokens(&toks("portland or")).best_label(), 1);
    }

    #[test]
    fn prediction_is_distribution() {
        let nb = trained();
        let p = nb.predict_tokens(&toks("great house miami"));
        assert!((p.scores().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.scores().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn untrained_model_is_uniform() {
        let nb = NaiveBayes::new(3, NaiveBayesConfig::default());
        let p = nb.predict_tokens(&toks("anything"));
        assert!(p.scores().iter().all(|&s| (s - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn empty_token_bag_follows_prior() {
        let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
        nb.add_example(&toks("a"), 0);
        nb.add_example(&toks("b"), 0);
        nb.add_example(&toks("c"), 0);
        nb.add_example(&toks("d"), 1);
        let p = nb.predict_tokens(&[]);
        assert_eq!(p.best_label(), 0);
    }

    #[test]
    fn unseen_tokens_are_smoothed_not_fatal() {
        let nb = trained();
        let p = nb.predict_tokens(&toks("zzz qqq www"));
        assert!(p.scores().iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn smoothing_strength_affects_confidence() {
        let mut weak = NaiveBayes::new(2, NaiveBayesConfig { smoothing: 0.01 });
        let mut strong = NaiveBayes::new(2, NaiveBayesConfig { smoothing: 10.0 });
        for nb in [&mut weak, &mut strong] {
            nb.add_example(&toks("alpha alpha alpha"), 0);
            nb.add_example(&toks("beta beta beta"), 1);
        }
        let pw = weak.predict_tokens(&toks("alpha"));
        let ps = strong.predict_tokens(&toks("alpha"));
        assert!(
            pw.score(0) > ps.score(0),
            "weaker smoothing → sharper posterior"
        );
        assert_eq!(pw.best_label(), 0);
        assert_eq!(ps.best_label(), 0);
    }

    #[test]
    fn classifier_trait_retrains_from_scratch() {
        let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
        let a = toks("old data");
        nb.train(&[(a.as_slice(), 0)]);
        let b = toks("new tokens");
        nb.train(&[(b.as_slice(), 1)]);
        // After retraining, "old data" is no longer known to class 0.
        assert_eq!(nb.vocab_size(), 2);
        assert_eq!(nb.predict_tokens(&toks("new")).best_label(), 1);
    }

    #[test]
    fn repeated_tokens_count_multiply() {
        let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
        nb.add_example(&toks("x x x x y"), 0);
        nb.add_example(&toks("y y y y x"), 1);
        assert_eq!(nb.predict_tokens(&toks("x")).best_label(), 0);
        assert_eq!(nb.predict_tokens(&toks("y")).best_label(), 1);
    }
}

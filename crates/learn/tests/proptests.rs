//! Property-based tests for the learning framework.

use lsd_learn::{LabelSet, Prediction};
use proptest::prelude::*;

proptest! {
    /// Predictions built from arbitrary non-negative scores are
    /// distributions.
    #[test]
    fn prediction_is_distribution(scores in prop::collection::vec(0.0f64..100.0, 1..20)) {
        let p = Prediction::from_scores(scores);
        let total: f64 = p.scores().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(p.best_label() < p.len());
        // ranked_labels is a permutation with non-increasing scores.
        let ranked = p.ranked_labels();
        prop_assert_eq!(ranked.len(), p.len());
        for w in ranked.windows(2) {
            prop_assert!(p.score(w[0]) >= p.score(w[1]) - 1e-12);
        }
    }

    /// Averaging distributions yields a distribution, and averaging a
    /// prediction with itself is the identity.
    #[test]
    fn average_properties(scores in prop::collection::vec(0.001f64..10.0, 2..8)) {
        let p = Prediction::from_scores(scores);
        let avg = Prediction::average([p.clone(), p.clone()].iter()).expect("non-empty");
        for l in 0..p.len() {
            prop_assert!((avg.score(l) - p.score(l)).abs() < 1e-9);
        }
    }

    /// Softmax of log-scores preserves the argmax.
    #[test]
    fn log_scores_preserve_argmax(logs in prop::collection::vec(-50.0f64..50.0, 1..10)) {
        let p = Prediction::from_log_scores(&logs);
        let arg_logs = logs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        prop_assert_eq!(p.best_label(), arg_logs);
    }

    /// Label sets index consistently for arbitrary distinct names.
    #[test]
    fn labelset_roundtrip(names in prop::collection::hash_set("[A-Z][A-Z-]{0,8}", 1..15)) {
        prop_assume!(!names.contains("OTHER"));
        let names: Vec<String> = names.into_iter().collect();
        let ls = LabelSet::new(names.clone());
        prop_assert_eq!(ls.len(), names.len() + 1);
        for n in &names {
            let idx = ls.get(n).expect("present");
            prop_assert_eq!(ls.name(idx), n.as_str());
        }
        prop_assert_eq!(ls.other(), names.len());
        prop_assert_eq!(ls.name(ls.other()), LabelSet::OTHER);
    }
}

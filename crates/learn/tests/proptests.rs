//! Property-based tests for the learning framework.

use lsd_learn::{
    fold_assignments, linear_least_squares, nonnegative_least_squares, LabelSet, Prediction,
};
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

    /// Fold assignments are balanced (sizes differ by at most one) and
    /// deterministic in the seed.
    #[test]
    fn folds_balanced(n in 1usize..200, d in 2usize..8, seed in any::<u64>()) {
        let folds = fold_assignments(n, d, seed);
        prop_assert_eq!(folds.clone(), fold_assignments(n, d, seed));
        let mut counts = vec![0usize; d];
        for f in &folds {
            prop_assert!(*f < d);
            counts[*f] += 1;
        }
        let max = counts.iter().max().expect("non-empty");
        let min = counts.iter().min().expect("non-empty");
        prop_assert!(max - min <= 1, "{counts:?}");
    }

    /// NNLS weights are always non-negative, and its residual is never
    /// more than a hair worse than unconstrained least squares clamped at
    /// zero would suggest (sanity: it actually fits).
    #[test]
    fn nnls_nonnegative_and_fits(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 3..20),
        true_w in prop::collection::vec(0.0f64..2.0, 3),
    ) {
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(&true_w).map(|(x, w)| x * w).sum())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = nonnegative_least_squares(&refs, &y, 1e-9);
        prop_assert!(w.iter().all(|&x| x >= 0.0), "{w:?}");
        // The generating weights are non-negative, so NNLS must reach
        // (near-)zero residual.
        let rss: f64 = rows
            .iter()
            .zip(&y)
            .map(|(r, &target)| {
                let fit: f64 = r.iter().zip(&w).map(|(x, wi)| x * wi).sum();
                (fit - target) * (fit - target)
            })
            .sum();
        prop_assert!(rss < 1e-6, "rss = {rss}, w = {w:?}, true = {true_w:?}");
    }

    /// Plain least squares reproduces exact linear relationships.
    #[test]
    fn ls_exact_recovery(
        rows in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 2), 8..20),
        w0 in -3.0f64..3.0,
        w1 in -3.0f64..3.0,
    ) {
        // Ensure the design matrix is not rank-deficient.
        let distinct = rows.windows(2).any(|p| {
            (p[0][0] * p[1][1] - p[0][1] * p[1][0]).abs() > 1e-3
        });
        prop_assume!(distinct);
        let y: Vec<f64> = rows.iter().map(|r| w0 * r[0] + w1 * r[1]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = linear_least_squares(&refs, &y, 0.0);
        prop_assert!((w[0] - w0).abs() < 1e-6, "{w:?} vs ({w0}, {w1})");
        prop_assert!((w[1] - w1).abs() < 1e-6);
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

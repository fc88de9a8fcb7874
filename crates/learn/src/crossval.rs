//! d-fold cross-validation (paper Section 3.1, step 5a).
//!
//! "To apply cross validation, the examples in T(L) are randomly divided
//! into d equal parts T₁ … T_d (we use d = 5 in our experiments). Next, for
//! each part Tᵢ, L is trained on the remaining (d−1) parts, then applied to
//! the examples in Tᵢ." The resulting `CV(L)` set contains exactly one
//! unbiased prediction per training example, which the meta-learner uses to
//! judge each base learner.

use crate::parallel::{parallel_map, ExecPolicy};
use crate::prediction::Prediction;
use crate::Classifier;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Randomly assigns `n` examples to `d` folds of (as near as possible)
/// equal size, deterministically for a given seed. Every fold index in
/// `0..d` is used when `n ≥ d`.
pub fn fold_assignments(n: usize, d: usize, seed: u64) -> Vec<usize> {
    assert!(d >= 2, "cross-validation needs at least 2 folds");
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut folds = vec![0usize; n];
    for (rank, &example) in order.iter().enumerate() {
        folds[example] = rank % d;
    }
    folds
}

/// Produces the `CV(L)` prediction set: one out-of-fold prediction per
/// example, in example order.
///
/// `make_learner` builds a fresh, untrained learner for each fold (training
/// state must not leak between folds). If `n < d` the fold count shrinks to
/// `max(2, n)`; with fewer than 2 examples the learner is trained on
/// everything and predictions are in-sample (there is nothing to hold out).
pub fn cross_validation_predictions<X: ?Sized + Sync, C: Classifier<X>>(
    examples: &[(&X, usize)],
    d: usize,
    seed: u64,
    make_learner: impl Fn() -> C + Sync,
) -> Vec<Prediction> {
    let n = examples.len();
    if n < 2 {
        return in_sample_predictions(examples, make_learner);
    }
    let d = d.min(n).max(2);
    let folds = fold_assignments(n, d, seed);
    predictions_for_folds(examples, &folds, d, &ExecPolicy::default(), make_learner)
}

/// Group-aware cross-validation: all examples sharing a group id land in
/// the same fold, so a learner can never train on an example from the
/// group it is asked to predict.
///
/// LSD's meta-learner uses this with one group per (source, tag): the
/// instances of one source tag are near-duplicates from the name matcher's
/// point of view (identical tag names), and example-level folds would leak
/// them across the train/test split, inflating that learner's apparent
/// accuracy and starving the others of stacking weight. Grouped folds make
/// the CV estimate match the real deployment condition — a new source's
/// tag names were never seen in training.
///
/// The d per-fold train/predict passes are independent and run on scoped
/// worker threads under `policy`. Results are identical to the serial path
/// for any thread count (each fold's learner sees exactly the same training
/// set and predictions land in example order).
pub fn cross_validation_predictions_grouped<X: ?Sized + Sync, C: Classifier<X>>(
    examples: &[(&X, usize)],
    groups: &[usize],
    d: usize,
    seed: u64,
    policy: &ExecPolicy,
    make_learner: impl Fn() -> C + Sync,
) -> Vec<Prediction> {
    assert_eq!(examples.len(), groups.len(), "one group per example");
    let mut distinct: Vec<usize> = groups.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < 2 {
        return in_sample_predictions(examples, make_learner);
    }
    let d = d.min(distinct.len()).max(2);
    let group_folds = fold_assignments(distinct.len(), d, seed);
    let fold_of_group: std::collections::HashMap<usize, usize> =
        distinct.iter().copied().zip(group_folds).collect();
    let folds: Vec<usize> = groups.iter().map(|g| fold_of_group[g]).collect();
    predictions_for_folds(examples, &folds, d, policy, make_learner)
}

fn in_sample_predictions<X: ?Sized, C: Classifier<X>>(
    examples: &[(&X, usize)],
    make_learner: impl Fn() -> C,
) -> Vec<Prediction> {
    let mut learner = make_learner();
    learner.train(examples);
    examples.iter().map(|(x, _)| learner.predict(x)).collect()
}

/// One fold per job: each worker trains a fresh learner on the other folds
/// and predicts its own, returning `(example index, prediction)` pairs that
/// are merged into example order. The per-fold learner never leaves its
/// worker, so `C` needs no `Send` bound — only the factory must be callable
/// from any worker.
fn predictions_for_folds<X: ?Sized + Sync, C: Classifier<X>>(
    examples: &[(&X, usize)],
    folds: &[usize],
    d: usize,
    policy: &ExecPolicy,
    make_learner: impl Fn() -> C + Sync,
) -> Vec<Prediction> {
    let fold_ids: Vec<usize> = (0..d).collect();
    let per_fold: Vec<Vec<(usize, Prediction)>> = parallel_map(&fold_ids, policy, |_, &fold| {
        let _span = lsd_obs::span!("train.cv_fold");
        lsd_obs::counter_add("crossval.folds", "", 1);
        let train: Vec<(&X, usize)> = examples
            .iter()
            .zip(folds)
            .filter(|(_, &f)| f != fold)
            .map(|((x, l), _)| (*x, *l))
            .collect();
        if train.len() == examples.len() {
            return Vec::new(); // no example in this fold
        }
        let mut learner = make_learner();
        learner.train(&train);
        examples
            .iter()
            .zip(folds)
            .enumerate()
            .filter(|(_, (_, &f))| f == fold)
            .map(|(i, ((x, _), _))| (i, learner.predict(x)))
            .collect()
    });
    let mut out: Vec<Option<Prediction>> = vec![None; examples.len()];
    for (i, prediction) in per_fold.into_iter().flatten() {
        out[i] = Some(prediction);
    }
    out.into_iter()
        .map(|p| p.expect("every fold predicted"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_bayes::{NaiveBayes, NaiveBayesConfig};

    #[test]
    fn folds_are_balanced_and_deterministic() {
        let f1 = fold_assignments(100, 5, 42);
        let f2 = fold_assignments(100, 5, 42);
        assert_eq!(f1, f2);
        for fold in 0..5 {
            assert_eq!(f1.iter().filter(|&&f| f == fold).count(), 20);
        }
        let f3 = fold_assignments(100, 5, 43);
        assert_ne!(f1, f3, "different seeds give different splits");
    }

    #[test]
    fn uneven_sizes_differ_by_at_most_one() {
        let f = fold_assignments(23, 5, 7);
        let counts: Vec<usize> = (0..5)
            .map(|k| f.iter().filter(|&&x| x == k).count())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 23);
        assert!(counts.iter().all(|&c| c == 4 || c == 5), "{counts:?}");
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cv_produces_one_prediction_per_example() {
        let data: Vec<(Vec<String>, usize)> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    (toks("great fantastic house"), 0)
                } else {
                    (toks("miami boston seattle"), 1)
                }
            })
            .collect();
        let examples: Vec<(&[String], usize)> =
            data.iter().map(|(t, l)| (t.as_slice(), *l)).collect();
        let cv = cross_validation_predictions(&examples, 5, 1, || {
            NaiveBayes::new(2, NaiveBayesConfig::default())
        });
        assert_eq!(cv.len(), 20);
        // Out-of-fold predictions should still be mostly right for separable data.
        let correct = cv
            .iter()
            .zip(&examples)
            .filter(|(p, (_, l))| p.best_label() == *l)
            .count();
        assert!(correct >= 18, "got {correct}/20");
    }

    #[test]
    fn cv_with_fewer_examples_than_folds() {
        let data = [(toks("a"), 0), (toks("b"), 1), (toks("c"), 0)];
        let examples: Vec<(&[String], usize)> =
            data.iter().map(|(t, l)| (t.as_slice(), *l)).collect();
        let cv = cross_validation_predictions(&examples, 5, 1, || {
            NaiveBayes::new(2, NaiveBayesConfig::default())
        });
        assert_eq!(cv.len(), 3);
    }

    #[test]
    fn cv_single_example_trains_in_sample() {
        let data = [(toks("solo"), 1)];
        let examples: Vec<(&[String], usize)> =
            data.iter().map(|(t, l)| (t.as_slice(), *l)).collect();
        let cv = cross_validation_predictions(&examples, 5, 1, || {
            NaiveBayes::new(2, NaiveBayesConfig::default())
        });
        assert_eq!(cv.len(), 1);
        assert_eq!(cv[0].best_label(), 1);
    }

    #[test]
    fn cv_empty_input() {
        let examples: Vec<(&[String], usize)> = Vec::new();
        let cv = cross_validation_predictions(&examples, 5, 1, || {
            NaiveBayes::new(2, NaiveBayesConfig::default())
        });
        assert!(cv.is_empty());
    }

    /// The defining property of stacking CV: an example memorized by an
    /// overfitting learner still gets an out-of-fold (not memorized)
    /// prediction. We simulate with a learner that predicts a label iff it
    /// saw that exact example during training.
    struct Memorizer {
        seen: Vec<(Vec<String>, usize)>,
    }
    impl Classifier<[String]> for Memorizer {
        fn train(&mut self, examples: &[(&[String], usize)]) {
            self.seen = examples.iter().map(|(x, l)| (x.to_vec(), *l)).collect();
        }
        fn predict(&self, example: &[String]) -> Prediction {
            match self.seen.iter().find(|(x, _)| x.as_slice() == example) {
                Some(&(_, l)) => {
                    let mut scores = vec![0.0; 2];
                    scores[l] = 1.0;
                    Prediction::from_scores(scores)
                }
                None => Prediction::uniform(2),
            }
        }
    }

    #[test]
    fn grouped_cv_keeps_groups_together() {
        // 4 groups of 3 identical examples each. The memorizer can only
        // answer examples it saw during training; with grouped folds it can
        // never have seen the held-out example's duplicates.
        let data: Vec<(Vec<String>, usize)> = (0..12)
            .map(|i| (toks(&format!("group{}", i / 3)), (i / 3) % 2))
            .collect();
        let groups: Vec<usize> = (0..12).map(|i| i / 3).collect();
        let examples: Vec<(&[String], usize)> =
            data.iter().map(|(t, l)| (t.as_slice(), *l)).collect();
        let policy = ExecPolicy::default();
        let cv = cross_validation_predictions_grouped(&examples, &groups, 4, 3, &policy, || {
            Memorizer { seen: vec![] }
        });
        for p in &cv {
            assert_eq!(
                p.scores(),
                &[0.5, 0.5],
                "duplicate leaked across grouped folds"
            );
        }
        // Plain example-level CV *does* leak duplicates: the memorizer gets
        // most of them right, proving the grouped variant changes behavior.
        let cv_plain = cross_validation_predictions(&examples, 4, 3, || Memorizer { seen: vec![] });
        assert!(
            cv_plain.iter().any(|p| p.scores() != [0.5, 0.5]),
            "expected example-level folds to leak duplicates"
        );
    }

    #[test]
    fn grouped_cv_single_group_is_in_sample() {
        let data = [(toks("a"), 0), (toks("a"), 0)];
        let examples: Vec<(&[String], usize)> =
            data.iter().map(|(t, l)| (t.as_slice(), *l)).collect();
        let policy = ExecPolicy::default();
        let cv = cross_validation_predictions_grouped(&examples, &[7, 7], 5, 1, &policy, || {
            NaiveBayes::new(2, NaiveBayesConfig::default())
        });
        assert_eq!(cv.len(), 2);
        assert_eq!(cv[0].best_label(), 0);
    }

    #[test]
    fn cv_predictions_are_out_of_fold() {
        // All 10 examples distinct, so the memorizer can never have seen the
        // held-out example: every CV prediction must be uniform.
        let data: Vec<(Vec<String>, usize)> =
            (0..10).map(|i| (toks(&format!("tok{i}")), i % 2)).collect();
        let examples: Vec<(&[String], usize)> =
            data.iter().map(|(t, l)| (t.as_slice(), *l)).collect();
        let cv = cross_validation_predictions(&examples, 5, 9, || Memorizer { seen: vec![] });
        for p in &cv {
            assert_eq!(p.scores(), &[0.5, 0.5], "prediction leaked training data");
        }
    }
}

//! # lsd-learn
//!
//! The machine-learning framework underneath LSD, hand-rolled because the
//! offline Rust ecosystem has no suitable ML crates:
//!
//! - [`LabelSet`] — the mediated-schema tag names as dense label indices,
//!   including the reserved [`LabelSet::OTHER`] label for unmatchable tags
//!   (paper Section 2.2).
//! - [`Prediction`] — a confidence-score distribution
//!   `⟨s(c₁|x), …, s(cₙ|x)⟩` with `Σ s(cᵢ|x) = 1` (Section 2.2).
//! - [`Classifier`] — the common train/predict interface of the base
//!   learners, generic over their feature type.
//! - [`NaiveBayes`] — the multinomial Naive Bayes text classifier of
//!   Section 3.3.
//! - [`cross_validation_predictions`] — the d-fold cross-validation
//!   procedure (d = 5 in the paper) that produces the unbiased `CV(L)`
//!   prediction sets used to train the meta-learner (Section 3.1, step 5a).
//! - [`linear_least_squares`] — the least-squares regression that computes
//!   the per-label learner weights (Section 3.1, step 5c).
//! - [`metrics`] — matching accuracy and summary statistics for Section 6.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod crossval;
mod labelset;
pub mod metrics;
mod naive_bayes;
pub mod parallel;
mod prediction;
mod regression;

pub use crossval::{
    cross_validation_predictions, cross_validation_predictions_grouped, fold_assignments,
};
pub use labelset::LabelSet;
pub use naive_bayes::{NaiveBayes, NaiveBayesConfig};
pub use parallel::{parallel_map, ExecPolicy};
pub use prediction::Prediction;
pub use regression::{linear_least_squares, nonnegative_least_squares};

/// The train/predict interface shared by all base learners.
///
/// `X` is the learner's feature type: the Name matcher sees tag names, the
/// Content matcher and Naive Bayes see token bags, the XML learner sees
/// element trees. Labels are dense indices into a [`LabelSet`].
pub trait Classifier<X: ?Sized> {
    /// Trains (or retrains) on `(example, label)` pairs.
    fn train(&mut self, examples: &[(&X, usize)]);

    /// Predicts a confidence-score distribution for one example.
    fn predict(&self, example: &X) -> Prediction;
}

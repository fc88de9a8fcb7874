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
//! - [`NaiveBayes`] — the multinomial Naive Bayes text classifier of
//!   Section 3.3.
//! - [`parallel_map`] — scoped-thread fan-out with results in input order.
//! - [`metrics`] — matching accuracy and summary statistics for Section 6.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod labelset;
pub mod metrics;
mod naive_bayes;
pub mod parallel;
mod prediction;

pub use labelset::LabelSet;
pub use naive_bayes::{NaiveBayes, NaiveBayesConfig};
pub use parallel::{parallel_map, ExecPolicy};
pub use prediction::Prediction;

//! # lsd-text
//!
//! The information-retrieval toolkit behind LSD's WHIRL-based base learners
//! (the Name matcher and Content matcher) and the Naive Bayes tokenizer:
//!
//! - [`tokenize`] / [`tokenize_name`] — word/symbol tokenization for data
//!   content and for schema tag names (splitting `listed-price`,
//!   `agent_phone`, `ListedPrice` into their words).
//! - [`PorterStemmer`] — the full Porter (1980) stemming algorithm.
//! - [`Vocabulary`], [`SparseVector`], [`TfIdfModel`] — a TF/IDF vector
//!   space with cosine similarity.
//! - [`Whirl`] — the nearest-neighbour classifier of Cohen & Hirsh used by
//!   the paper's Name and Content matchers: it stores training examples,
//!   finds the TF/IDF-nearest stored examples for a query, and combines
//!   neighbour similarities into per-label confidence scores.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod stem;
mod tfidf;
mod tokenize;
mod whirl;

pub use stem::PorterStemmer;
pub use tfidf::{SparseVector, TfIdfModel, Vocabulary};
pub use tokenize::{
    char_ngrams, for_each_token, tokenize, tokenize_name, tokenize_with, TokenizeOptions,
};
pub use whirl::{NeighborCombination, Whirl, WhirlConfig};

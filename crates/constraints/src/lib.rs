//! # lsd-constraints
//!
//! The domain-constraint engine of LSD (paper Section 4). Domain constraints
//! impose semantic regularities on the schemas and data of the sources in a
//! domain; they are specified once, when the mediated schema is created, and
//! apply to every source thereafter.
//!
//! - [`Predicate`] / [`DomainConstraint`] — the constraint language covering
//!   every row of the paper's Table 1: *frequency*, *nesting*, *contiguity*,
//!   *exclusivity* and *column* (key / functional-dependency) hard
//!   constraints, plus *binary* and *numeric* soft constraints, and the
//!   tag-level equality constraints used for user feedback (Section 4.3).
//! - [`SourceData`] — row-aligned extracted data, used to verify column
//!   constraints ("the few data instances we extract from the source will be
//!   enough to find a violation").
//! - [`MatchingContext`] + [`Evaluator`] — the cost model
//!   `cost(m) = Σᵢ λᵢ·cost(m,Tᵢ) − α·log prob(m)` over partial and complete
//!   candidate mappings, scored against a [`CompiledConstraintSet`]
//!   (compiled once per label set, shared across sources).
//!   [`evaluate_partial`] computes the same cost directly from the
//!   constraints; it is the reference the evaluator is tested against.
//! - [`ConstraintHandler::find_mapping`] — the search for the least-cost
//!   mapping over an [`Evaluator`] the caller builds: A\* with an
//!   admissible domain-independent heuristic (the paper's choice,
//!   Section 4.2), with beam-search and greedy alternatives for the
//!   ablation bench, plus the constraint pre-processing extension from
//!   Section 7 (cheap per-tag type constraints prune labels before search).
//!   [`search_mapping`] runs the search alone over given candidate sets.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod compiled;
mod constraint;
mod evaluate;
mod handler;
mod search;
mod source_data;

pub use compiled::{CompiledConstraintSet, ConstraintViolation, Evaluator, Scratch};
pub use constraint::{ConstraintKind, DomainConstraint, Predicate};
pub use evaluate::{evaluate_partial, MatchingContext, INFEASIBLE};
pub use handler::ConstraintHandler;
pub use search::{
    search_mapping, MappingResult, SearchAlgorithm, SearchConfig, SearchEvents, SearchStats,
};
pub use source_data::SourceData;

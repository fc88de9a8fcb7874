//! # lsd — multi-strategy machine learning for schema matching
//!
//! A Rust reproduction of the LSD system from *"Reconciling Schemas of
//! Disparate Data Sources: A Machine-Learning Approach"* (Doan, Domingos,
//! Halevy — SIGMOD 2001).
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! - [`xml`] — XML parser, DTD grammar, schema trees ([`lsd_xml`]).
//! - [`analysis`] — static diagnostics over DTDs and constraint sets with
//!   rustc-style rendering ([`lsd_analysis`]); `Error`-severity findings
//!   gate [`Lsd`]'s `train`/`set_constraints`.
//! - [`text`] — tokenizer, Porter stemmer, TF/IDF, WHIRL ([`lsd_text`]).
//! - [`learn`] — label sets, predictions, Naive Bayes, metrics ([`lsd_learn`]).
//! - [`constraints`] — domain constraints and the A\* constraint handler
//!   ([`lsd_constraints`]).
//! - [`core`] — the LSD system itself: base learners, their equal-weight
//!   combination, prediction converter, train/match pipeline ([`lsd_core`]).
//! - [`datagen`] — synthetic versions of the paper's four evaluation domains
//!   ([`lsd_datagen`]).
//! - [`obs`] — zero-dependency tracing spans and metrics registry
//!   ([`lsd_obs`]); the `*_with_report` methods on [`Lsd`] wrap the
//!   pipeline in a collection and return [`MatchReport`] / [`TrainReport`]
//!   snapshots.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use lsd_analysis as analysis;
pub use lsd_constraints as constraints;
pub use lsd_core as core;
pub use lsd_datagen as datagen;
pub use lsd_learn as learn;
pub use lsd_obs as obs;
pub use lsd_text as text;
pub use lsd_xml as xml;

// The batch-matching pipeline types, re-exported at the root so callers can
// write `lsd::Lsd` / `lsd::ExecPolicy` without spelling out the crate layout.
pub use lsd_core::{
    CandidateExplanation, ExecPolicy, Explanation, LabelCandidate, LearnerContribution, Lsd,
    LsdBuilder, LsdConfig, LsdError, MatchOutcome, MatchReport, RejectionReason, Source,
    TagExplanation, TagLabelSearch, TrainReport, TrainedSource,
};
pub use lsd_core::{Diagnostic, DiagnosticCode, Severity};

// The feedback-loop vocabulary: typed corrections, durable WAL, simulator.
pub use lsd_core::{
    simulate_feedback_session, Correction, CorrectionKind, Feedback, FeedbackOutcome,
    FeedbackRecord, FeedbackWal, StallReason, WalScan, WAL_MAGIC,
};

// The source-reader surface: every serialization funnels through
// `Source::from_reader`, so `lsd::CsvReader` and friends sit beside
// `lsd::Source` at the root.
pub use lsd_core::{
    synthesize_dtd, CsvReader, JsonReader, ReadError, SourceContents, SourceFormat,
    SourceProvenance, SourceReader, SqlReader, XmlReader,
};

/// The crate version, for experiment logs.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

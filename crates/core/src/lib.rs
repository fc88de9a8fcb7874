//! # lsd-core
//!
//! The LSD schema matcher (paper Sections 3–5): given a mediated DTD and a
//! handful of user-mapped training sources, LSD learns to propose 1-1
//! semantic mappings for new sources.
//!
//! The system has four major components (Figure 4):
//!
//! 1. **Base learners** ([`learners`]) — each exploits a different kind of
//!    information: the [`learners::NameMatcher`] (WHIRL over tag names +
//!    synonyms + root paths), the [`learners::ContentMatcher`] (WHIRL over
//!    data content), the [`learners::NaiveBayesLearner`] (word frequencies),
//!    the [`learners::XmlLearner`] (structure tokens, Section 5) and
//!    dictionary [`learners::Recognizer`]s such as the county-name
//!    recognizer. [`learners::paper_suite`] declares the paper's set once.
//! 2. **Combination** ([`combine_learners`]) — every base learner's
//!    prediction for an instance, with equal weights. The paper's stacking
//!    meta-learner (Section 3.1 step 5) is left out; DESIGN.md records why.
//! 3. **Prediction converter** ([`convert_column`]) — averages per-instance
//!    predictions into one prediction per source tag (Section 3.2 step 2).
//! 4. **Constraint handler** (re-exported from `lsd-constraints`) — A\*
//!    search for the least-cost mapping under domain constraints and user
//!    feedback (Section 4).
//!
//! [`Lsd`] ties them together with the two-phase train/match workflow, and
//! [`feedback`] implements the Section 6.3 interactive-feedback protocol
//! with a simulated oracle.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod converter;
mod counties;
mod error;
pub mod explain;
pub mod feedback;
mod instance;
pub mod learners;
pub mod persist;
pub mod readers;
pub mod report;
mod system;
pub mod wal;

pub use converter::{combine_learners, convert_column};
pub use error::LsdError;
pub use explain::{
    CandidateExplanation, Explanation, LearnerContribution, RejectionReason, TagLabelSearch,
};
pub use feedback::{
    simulate_feedback_session, Correction, CorrectionKind, Feedback, FeedbackOutcome, StallReason,
};
pub use instance::{Instance, SourceWalk, SubLabels};
pub use persist::{PersistError, SavedLearner, SavedModel, SAVED_MODEL_VERSION};
pub use readers::{
    synthesize_dtd, CsvReader, JsonReader, ReadError, SourceContents, SourceFormat, SourceReader,
    SqlReader, XmlReader,
};
pub use report::{MatchReport, TrainReport};
pub use system::{
    LabelCandidate, Lsd, LsdBuilder, LsdConfig, MatchOutcome, Source, SourceProvenance,
    TagExplanation, TrainedSource,
};
pub use wal::{FeedbackRecord, FeedbackWal, WalScan, WAL_MAGIC};

// Schema inference over DTD-less instances (`Lsd::infer_dtd` delegates
// here); the stats type also rides on [`SourceProvenance`].
pub use lsd_infer::{InferError, Inference, InferenceStats};

// The constraint vocabulary is part of LSD's public face.
pub use lsd_constraints::{
    ConstraintHandler, ConstraintKind, DomainConstraint, MappingResult, Predicate, SearchAlgorithm,
    SearchConfig, SourceData,
};
pub use lsd_learn::{ExecPolicy, LabelSet, Prediction};

// The static-analysis pass gates `train`/`set_constraints`; its vocabulary
// is part of the pipeline's error surface ([`LsdError::Analysis`]).
pub use lsd_analysis::{Code as DiagnosticCode, Diagnostic, Severity};

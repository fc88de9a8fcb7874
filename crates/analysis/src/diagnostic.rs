//! The diagnostic value type: code, severity, message, span and notes.

use lsd_xml::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How serious a diagnostic is. `Error` diagnostics are rejected by
/// `Lsd::train` / `Lsd::set_constraints`; `Warning` diagnostics pass
/// through (and are counted in the `lsd-obs` metrics registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but workable: the pipeline proceeds.
    Warning,
    /// The input cannot be used reliably: the pipeline refuses it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The stable diagnostic codes. `LSD0xx` codes are schema lints over a
/// parsed DTD; `LSD1xx` codes are constraint lints over a compiled
/// domain-constraint set; `LSD2xx` codes are artifact audits over serving
/// artifacts on disk (`LSD20x` snapshots, `LSD21x` feedback WALs, `LSD22x`
/// registry directories, `LSD23x` inferred-schema provenance). Each code
/// has exactly one default [`Severity`], listed in the table in
/// `DESIGN.md`. Retired numbers (`LSD202`, `LSD203`, `LSD205`: checks of the
/// stacking weights snapshots no longer carry) are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Code {
    /// LSD001 — a content model is not 1-unambiguous (its Glushkov
    /// automaton is non-deterministic).
    AmbiguousContentModel,
    /// LSD002 — a content model or attribute list references an element
    /// that is never declared.
    UndeclaredElementRef,
    /// LSD003 — a declared element is unreachable from the root.
    UnreachableElement,
    /// LSD004 — an element recurses with no `#PCDATA`/`EMPTY`/optional
    /// base case, so it can derive no finite document.
    NoFiniteDerivation,
    /// LSD005 — the same attribute is declared twice for one element.
    DuplicateAttribute,
    /// LSD101 — a constraint references a label absent from the mediated
    /// schema.
    UnknownLabel,
    /// LSD102 — a label is both required (hard `ExactlyOne` / `TagIs`)
    /// and excluded (hard `AtMostK` with `k = 0`, or a degenerate hard
    /// self-`NestedIn`).
    LabelRequiredAndExcluded,
    /// LSD103 — tag-level feedback contradicts itself (`TagIs` vs
    /// `TagIsNot` on the same pair, or two `TagIs` with different labels
    /// for one tag).
    ConflictingTagFeedback,
    /// LSD104 — the hard-constraint set statically prunes every complete
    /// mapping (e.g. two mandatory labels are mutually exclusive), so the
    /// A\* search can never return a feasible result.
    UnsatisfiableConstraintSet,
    /// LSD105 — the same constraint appears more than once (soft
    /// duplicates double-count their violation cost).
    DuplicateConstraint,
    /// LSD106 — a degenerate constraint: a soft constraint with a
    /// non-positive cost or weight, or a pair predicate relating a label
    /// to itself.
    DegenerateConstraint,
    /// LSD201 — a snapshot claims `trained: false`; it can never serve.
    SnapshotUntrained,
    /// LSD204 — a trained snapshot carries a learner with no training
    /// state (empty WHIRL vocabulary / zero observed documents).
    EmptyLearnerState,
    /// LSD206 — the snapshot's mediated DTD does not parse, or its element
    /// names disagree with the stored label set.
    MediatedDtdMismatch,
    /// LSD207 — the snapshot is not a well-formed `SavedModel` document
    /// (unparseable JSON, missing or mistyped required fields).
    MalformedSnapshot,
    /// LSD211 — a feedback WAL does not start with the `LSDWAL01` magic.
    WalBadMagic,
    /// LSD212 — a feedback WAL ends in a torn record (crash residue; the
    /// valid prefix is still replayable).
    WalTornTail,
    /// LSD213 — a WAL record's payload fails its CRC-32 mid-file: silent
    /// corruption, not a torn append.
    WalCorruptRecord,
    /// LSD214 — a snapshot's `feedback_applied` fold point lies beyond the
    /// end of its companion WAL (the fold point regressed, or the WAL was
    /// rewritten underneath the model).
    WalFoldPointBeyondLength,
    /// LSD215 — a WAL correction names a label absent from the companion
    /// model's label set.
    WalUnknownLabel,
    /// LSD216 — correction timestamps go backwards across the WAL.
    WalNonMonotoneTimestamps,
    /// LSD221 — two registry snapshots normalize to the same model slug.
    RegistryDuplicateSlug,
    /// LSD222 — registry snapshots carry different format versions.
    RegistryVersionSkew,
    /// LSD223 — two models with identical label sets (the same domain)
    /// disagree on the mediated DTD.
    RegistryDtdDrift,
    /// LSD224 — a feedback WAL has no companion model snapshot.
    RegistryOrphanWal,
    /// LSD231 — a snapshot was trained on a source whose schema was
    /// *inferred* from the instances, and some inferred element rests on
    /// too few observations to trust its content model.
    InferredSchemaLowSupport,
}

impl Code {
    /// The stable `LSDxxx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::AmbiguousContentModel => "LSD001",
            Code::UndeclaredElementRef => "LSD002",
            Code::UnreachableElement => "LSD003",
            Code::NoFiniteDerivation => "LSD004",
            Code::DuplicateAttribute => "LSD005",
            Code::UnknownLabel => "LSD101",
            Code::LabelRequiredAndExcluded => "LSD102",
            Code::ConflictingTagFeedback => "LSD103",
            Code::UnsatisfiableConstraintSet => "LSD104",
            Code::DuplicateConstraint => "LSD105",
            Code::DegenerateConstraint => "LSD106",
            Code::SnapshotUntrained => "LSD201",
            Code::EmptyLearnerState => "LSD204",
            Code::MediatedDtdMismatch => "LSD206",
            Code::MalformedSnapshot => "LSD207",
            Code::WalBadMagic => "LSD211",
            Code::WalTornTail => "LSD212",
            Code::WalCorruptRecord => "LSD213",
            Code::WalFoldPointBeyondLength => "LSD214",
            Code::WalUnknownLabel => "LSD215",
            Code::WalNonMonotoneTimestamps => "LSD216",
            Code::RegistryDuplicateSlug => "LSD221",
            Code::RegistryVersionSkew => "LSD222",
            Code::RegistryDtdDrift => "LSD223",
            Code::RegistryOrphanWal => "LSD224",
            Code::InferredSchemaLowSupport => "LSD231",
        }
    }

    /// The default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::AmbiguousContentModel
            | Code::UndeclaredElementRef
            | Code::NoFiniteDerivation
            | Code::UnknownLabel
            | Code::LabelRequiredAndExcluded
            | Code::ConflictingTagFeedback
            | Code::UnsatisfiableConstraintSet
            | Code::SnapshotUntrained
            | Code::MediatedDtdMismatch
            | Code::MalformedSnapshot
            | Code::WalBadMagic
            | Code::WalCorruptRecord
            | Code::WalFoldPointBeyondLength
            | Code::WalUnknownLabel
            | Code::RegistryDuplicateSlug => Severity::Error,
            Code::UnreachableElement
            | Code::DuplicateAttribute
            | Code::DuplicateConstraint
            | Code::DegenerateConstraint
            | Code::EmptyLearnerState
            | Code::WalTornTail
            | Code::WalNonMonotoneTimestamps
            | Code::RegistryVersionSkew
            | Code::RegistryDtdDrift
            | Code::RegistryOrphanWal
            | Code::InferredSchemaLowSupport => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the static-analysis pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The stable diagnostic code.
    pub code: Code,
    /// Error or warning (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// One-line description of the finding.
    pub message: String,
    /// Byte span into the DTD source text, when the finding points at a
    /// declaration that carries a non-synthetic span.
    pub span: Option<Span>,
    /// What the analyzed text came from (a file name, `"mediated schema"`,
    /// `"source 'x.com'"`, ...), for the `-->` line of the rendering.
    pub origin: Option<String>,
    /// Extra context lines, rendered as `= note: ...`.
    pub notes: Vec<String>,
    /// A suggested fix, rendered as `= help: ...`.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no location.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            span: None,
            origin: None,
            notes: Vec::new(),
            help: None,
        }
    }

    /// Attaches a source span (ignored if synthetic — a synthetic span
    /// points nowhere useful).
    pub fn with_span(mut self, span: Span) -> Self {
        if !span.is_synthetic() {
            self.span = Some(span);
        }
        self
    }

    /// Labels the origin of the analyzed text.
    pub fn with_origin(mut self, origin: impl Into<String>) -> Self {
        self.origin = Some(origin.into());
        self
    }

    /// Appends a `= note:` line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Sets the `= help:` line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// True for error-severity diagnostics.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    /// The compact one-line form, `error[LSD001]: message`. Use
    /// [`crate::render`] for the full rustc-style block.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// True if any diagnostic in the slice is an error.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(Diagnostic::is_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numbers of retired codes, never to be reused.
    const RETIRED: [&str; 3] = ["LSD202", "LSD203", "LSD205"];

    #[test]
    fn codes_are_unique_and_stable() {
        let all = [
            Code::AmbiguousContentModel,
            Code::UndeclaredElementRef,
            Code::UnreachableElement,
            Code::NoFiniteDerivation,
            Code::DuplicateAttribute,
            Code::UnknownLabel,
            Code::LabelRequiredAndExcluded,
            Code::ConflictingTagFeedback,
            Code::UnsatisfiableConstraintSet,
            Code::DuplicateConstraint,
            Code::DegenerateConstraint,
            Code::SnapshotUntrained,
            Code::EmptyLearnerState,
            Code::MediatedDtdMismatch,
            Code::MalformedSnapshot,
            Code::WalBadMagic,
            Code::WalTornTail,
            Code::WalCorruptRecord,
            Code::WalFoldPointBeyondLength,
            Code::WalUnknownLabel,
            Code::WalNonMonotoneTimestamps,
            Code::RegistryDuplicateSlug,
            Code::RegistryVersionSkew,
            Code::RegistryDtdDrift,
            Code::RegistryOrphanWal,
            Code::InferredSchemaLowSupport,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for c in all {
            assert!(seen.insert(c.as_str()), "duplicate code {}", c.as_str());
            assert!(c.as_str().starts_with("LSD"));
            assert!(
                !RETIRED.contains(&c.as_str()),
                "retired code {} reused",
                c.as_str()
            );
        }
    }

    #[test]
    fn display_is_compact() {
        let d = Diagnostic::new(Code::AmbiguousContentModel, "model is ambiguous");
        assert_eq!(d.to_string(), "error[LSD001]: model is ambiguous");
        assert!(d.is_error());
    }

    #[test]
    fn synthetic_spans_are_dropped() {
        let d = Diagnostic::new(Code::UnreachableElement, "x").with_span(Span::SYNTHETIC);
        assert_eq!(d.span, None);
        let d = Diagnostic::new(Code::UnreachableElement, "x").with_span(Span::new(3, 9));
        assert_eq!(d.span, Some(Span::new(3, 9)));
    }

    #[test]
    fn has_errors_scans_severities() {
        let w = Diagnostic::new(Code::UnreachableElement, "w");
        let e = Diagnostic::new(Code::UndeclaredElementRef, "e");
        assert!(!has_errors(std::slice::from_ref(&w)));
        assert!(has_errors(&[w, e]));
    }
}

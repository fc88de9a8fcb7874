//! # lsd-analysis
//!
//! Static diagnostics for LSD inputs, run *before* any training or
//! matching. Two families of lints share one [`Diagnostic`] type and one
//! rustc-style renderer:
//!
//! - **Schema lints** (`LSD001`–`LSD005`, [`analyze_dtd`]) check a parsed
//!   DTD: content models must be 1-unambiguous (Glushkov determinism),
//!   referenced elements must be declared, declared elements should be
//!   reachable, recursion needs a base case, and attributes must not be
//!   declared twice.
//! - **Constraint lints** (`LSD101`–`LSD106`, [`analyze_constraints`])
//!   check a domain-constraint set against the mediated label set: label
//!   names must exist, hard constraints must not contradict each other
//!   (a label both required and excluded, conflicting tag feedback, a
//!   statically unsatisfiable set), and duplicates / degenerate entries
//!   are flagged.
//!
//! - **Artifact audits** (`LSD2xx`, [`audit_snapshot`] / [`audit_wal`] /
//!   [`audit_registry`]) statically check the *serving* artifacts on disk:
//!   `SavedModel` snapshots (`LSD20x` — untrained or degenerate learners,
//!   malformed documents, mediated-DTD disagreement), feedback WALs (`LSD21x` — torn tails, mid-file CRC
//!   corruption, fold points beyond the log, corrections naming unknown
//!   labels), and whole registry directories (`LSD22x` — duplicate slugs,
//!   version skew, mediated-DTD drift, orphaned WALs).
//!
//! `Error`-severity findings make `Lsd::train` / `Lsd::set_constraints`
//! refuse the input; `Warning`s pass through and are counted in the
//! `lsd-obs` metrics registry. The `lsd-lint` and `lsd-audit` binaries
//! (in `crates/bench`) render the same diagnostics for artifacts on disk,
//! and `lsd-serve --strict-audit` gates registry loads on a clean audit.
//!
//! ```
//! use lsd_analysis::{analyze_dtd, render_all};
//!
//! let dtd = lsd_xml::parse_dtd("<!ELEMENT r ((a, b) | (a, c))>\n\
//!                               <!ELEMENT a (#PCDATA)>\n\
//!                               <!ELEMENT b (#PCDATA)>\n\
//!                               <!ELEMENT c (#PCDATA)>").unwrap();
//! let diags = analyze_dtd(&dtd);
//! assert_eq!(diags[0].code.as_str(), "LSD001");
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod artifact;
mod constraints;
mod diagnostic;
mod glushkov;
mod registry_audit;
mod render;
mod schema;
mod wal_audit;

pub use artifact::{
    audit_snapshot, audit_snapshot_with_summary, SnapshotSummary, MIN_INFERRED_SUPPORT,
};
pub use constraints::analyze_constraints;
pub use diagnostic::{has_errors, Code, Diagnostic, Severity};
pub use glushkov::{check_one_unambiguous, Ambiguity, GlushkovAutomaton};
pub use registry_audit::audit_registry;
pub use render::{render, render_all};
pub use schema::analyze_dtd;
pub use wal_audit::{audit_wal, WalAuditContext};

use lsd_constraints::DomainConstraint;
use lsd_learn::LabelSet;
use lsd_xml::Dtd;

/// Analyzes a schema and a constraint set together: schema findings first,
/// then constraint findings. This is what `Lsd::analyze` runs over the
/// mediated schema and the configured constraints.
pub fn analyze(dtd: &Dtd, labels: &LabelSet, constraints: &[DomainConstraint]) -> Vec<Diagnostic> {
    let mut out = analyze_dtd(dtd);
    out.extend(analyze_constraints(labels, constraints));
    out
}

/// Stamps every diagnostic with an origin label (file name, "mediated
/// schema", ...), preserving origins already set.
pub fn with_origin(diagnostics: Vec<Diagnostic>, origin: &str) -> Vec<Diagnostic> {
    diagnostics
        .into_iter()
        .map(|d| {
            if d.origin.is_some() {
                d
            } else {
                d.with_origin(origin)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::parse_dtd;

    #[test]
    fn combined_analysis_concatenates_both_fronts() {
        let dtd = parse_dtd("<!ELEMENT r (ghost)>").unwrap();
        let labels = LabelSet::new(["PRICE"]);
        let constraints = vec![lsd_constraints::DomainConstraint::hard(
            lsd_constraints::Predicate::ExactlyOne {
                label: "MISSING".into(),
            },
        )];
        let diags = analyze(&dtd, &labels, &constraints);
        let codes: Vec<_> = diags.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["LSD002", "LSD101"]);
    }

    #[test]
    fn with_origin_fills_only_missing() {
        let d1 = Diagnostic::new(Code::UnreachableElement, "a").with_origin("explicit");
        let d2 = Diagnostic::new(Code::UnreachableElement, "b");
        let tagged = with_origin(vec![d1, d2], "default");
        assert_eq!(tagged[0].origin.as_deref(), Some("explicit"));
        assert_eq!(tagged[1].origin.as_deref(), Some("default"));
    }

    /// Every datagen domain must pass its own static analysis: the
    /// mediated schema, each source DTD, and the domain constraint set are
    /// all clean.
    #[test]
    fn datagen_domains_are_clean() {
        for id in lsd_datagen::DomainId::ALL {
            let spec = id.spec();
            let mediated = spec.mediated_dtd();
            assert_eq!(
                analyze_dtd(&mediated),
                Vec::new(),
                "mediated schema of {}",
                spec.name
            );
            let labels = LabelSet::new(mediated.element_names().map(str::to_string));
            assert_eq!(
                analyze_constraints(&labels, &spec.constraints),
                Vec::new(),
                "constraints of {}",
                spec.name
            );
            for s in 0..spec.sources.len() {
                assert_eq!(
                    analyze_dtd(&spec.source_dtd(s)),
                    Vec::new(),
                    "source {s} of {}",
                    spec.name
                );
            }
        }
    }
}

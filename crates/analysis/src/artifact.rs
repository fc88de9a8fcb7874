//! Static audit of `SavedModel` snapshots (the `LSD20x` family).
//!
//! A snapshot is the serving side's unit of deployment: the trained state
//! of every learner, the label set and the mediated schema, serialized as
//! one JSON document (`lsd_core::persist`). Between training and serving it
//! crosses process and machine boundaries, and a silently corrupted
//! snapshot — a learner whose vocabulary never made it to disk, a label set
//! that drifted away from the mediated schema — only surfaces as wrong
//! *answers*, not as a load failure. [`audit_snapshot`] finds those defects
//! statically, before the artifact is allowed anywhere near traffic.
//!
//! `LSD202`, `LSD203` and `LSD205` are retired: they checked the stacking
//! weights that snapshots no longer carry. Version 1 snapshots still hold a
//! `meta` object; the audit ignores it, as loading does.
//!
//! The auditor works on the artifact *text*, not on a deserialized
//! `SavedModel` (`lsd-core` depends on this crate, not the other way
//! around), which is also what lets diagnostics carry byte spans into the
//! file for rustc-style caret rendering. Where loading refuses a learner,
//! the audit applies the same rule and reports `LSD207`: a learner kind
//! this build does not have, or WHIRL state that `Whirl::validate`
//! refuses.

use crate::diagnostic::{Code, Diagnostic};
use lsd_text::Whirl;
use lsd_xml::Span;
use serde::{Deserialize, Value};

/// What a snapshot audit could extract, whether or not the audit was
/// clean — the cross-artifact context [`crate::audit_registry`] and the
/// WAL auditor need (label set, fold point, version, mediated DTD).
#[derive(Debug, Clone, Default)]
pub struct SnapshotSummary {
    /// The `version` field, when present and integral.
    pub version: Option<u32>,
    /// The stored label names, in order (empty when unreadable).
    pub labels: Vec<String>,
    /// The mediated DTD text (empty for pre-analysis snapshots).
    pub mediated_dtd: String,
    /// The `feedback_applied` fold point (0 when absent).
    pub feedback_applied: u64,
    /// The `trained` flag (false when unreadable).
    pub trained: bool,
}

/// Audits one `SavedModel` JSON document. See the module docs for what is
/// checked; [`audit_snapshot_with_summary`] additionally returns the
/// fields later cross-checks need.
pub fn audit_snapshot(text: &str) -> Vec<Diagnostic> {
    audit_snapshot_with_summary(text).0
}

/// [`audit_snapshot`] plus the extracted [`SnapshotSummary`].
pub fn audit_snapshot_with_summary(text: &str) -> (Vec<Diagnostic>, SnapshotSummary) {
    let mut out = Vec::new();
    let mut summary = SnapshotSummary::default();
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            out.push(
                Diagnostic::new(
                    Code::MalformedSnapshot,
                    format!("snapshot is not valid JSON: {e}"),
                )
                .with_span(parse_error_span(&e.to_string(), text))
                .with_help("regenerate the snapshot with `Lsd::save_json`"),
            );
            return (out, summary);
        }
    };
    let Value::Map(fields) = &value else {
        out.push(Diagnostic::new(
            Code::MalformedSnapshot,
            "snapshot root is not a JSON object",
        ));
        return (out, summary);
    };

    summary.version = match get(fields, "version") {
        Some(Value::Int(v)) if *v >= 0 => Some(*v as u32),
        _ => None,
    };
    if summary.version.is_none() {
        out.push(
            Diagnostic::new(
                Code::MalformedSnapshot,
                "snapshot has no integral `version` field",
            )
            .with_span(key_span(text, "version")),
        );
    }

    summary.trained = matches!(get(fields, "trained"), Some(Value::Bool(true)));
    if !summary.trained {
        out.push(
            Diagnostic::new(
                Code::SnapshotUntrained,
                "snapshot is untrained (`trained` is not `true`); it can never serve",
            )
            .with_span(key_span(text, "trained"))
            .with_help("run `Lsd::train` before saving a serving snapshot"),
        );
    }

    summary.labels = match get(fields, "labels") {
        Some(Value::Seq(items)) => items
            .iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => {
            out.push(
                Diagnostic::new(Code::MalformedSnapshot, "snapshot has no `labels` array")
                    .with_span(key_span(text, "labels")),
            );
            Vec::new()
        }
    };

    let learners: &[Value] = match get(fields, "learners") {
        Some(Value::Seq(items)) => items,
        _ => &[],
    };
    let learner_names: Vec<String> = learners
        .iter()
        .enumerate()
        .map(|(j, l)| learner_kind(l).unwrap_or_else(|| format!("learner {j}")))
        .collect();

    for (j, learner) in learners.iter().enumerate() {
        if let Some(why) = unloadable_learner(learner) {
            out.push(
                Diagnostic::new(
                    Code::MalformedSnapshot,
                    format!("learner `{}` cannot be loaded: {why}", learner_names[j]),
                )
                .with_span(key_span(text, "learners"))
                .with_help("retrain and re-save the model"),
            );
        }
    }
    if summary.trained {
        for (j, learner) in learners.iter().enumerate() {
            if let Some(why) = degenerate_learner(learner) {
                out.push(
                    Diagnostic::new(
                        Code::EmptyLearnerState,
                        format!(
                            "learner `{}` has no training state: {why}",
                            learner_names[j]
                        ),
                    )
                    .with_span(key_span(text, "learners"))
                    .with_note("a trained snapshot should carry every learner's fitted state")
                    .with_help("retrain and re-save, or drop the learner from the configuration"),
                );
            }
        }
    }

    summary.mediated_dtd = match get(fields, "mediated_dtd") {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    audit_mediated_dtd(text, &summary, &mut out);

    summary.feedback_applied = match get(fields, "feedback_applied") {
        Some(Value::Int(v)) if *v >= 0 => *v as u64,
        Some(Value::Int(v)) => {
            out.push(
                Diagnostic::new(
                    Code::MalformedSnapshot,
                    format!("`feedback_applied` fold point is negative ({v})"),
                )
                .with_span(key_span(text, "feedback_applied")),
            );
            0
        }
        _ => 0,
    };

    audit_inferred_provenance(text, fields, &mut out);

    (out, summary)
}

/// Minimum per-element observation count below which an inferred content
/// model is considered weakly supported (LSD231). With fewer than this
/// many instances, `?`/`*` occurrence decisions rest on one or two
/// observations and are as likely memorization as structure.
pub const MIN_INFERRED_SUPPORT: i64 = 3;

/// The `LSD23x` family: snapshots trained on *inferred* schemas. Each
/// provenance entry carrying inference evidence is checked for elements
/// whose content model rests on fewer than [`MIN_INFERRED_SUPPORT`]
/// observations. A Warning, not an Error: the model serves, but the audit
/// surfaces which parts of its training schema were guessed from thin
/// evidence.
fn audit_inferred_provenance(text: &str, fields: &[(String, Value)], out: &mut Vec<Diagnostic>) {
    let Some(Value::Seq(entries)) = get(fields, "source_provenance") else {
        return; // pre-provenance snapshots have nothing to check
    };
    let span = key_span(text, "source_provenance");
    for (i, entry) in entries.iter().enumerate() {
        let Value::Map(entry) = entry else { continue };
        let Some(Value::Map(stats)) = get(entry, "inferred") else {
            continue; // native or DDL-derived schema
        };
        let source = match get(entry, "source") {
            Some(Value::Str(s)) => format!("`{s}`"),
            _ => format!("source {i}"),
        };
        let corpus_size = match get(stats, "corpus_size") {
            Some(Value::Int(n)) => *n,
            _ => 0,
        };
        let weak: Vec<String> = match get(stats, "element_support") {
            Some(Value::Map(support)) => support
                .iter()
                .filter_map(|(name, count)| match count {
                    Value::Int(n) if *n < MIN_INFERRED_SUPPORT => {
                        Some(format!("`{name}` (seen {n}x)"))
                    }
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        if weak.is_empty() {
            continue;
        }
        out.push(
            Diagnostic::new(
                Code::InferredSchemaLowSupport,
                format!(
                    "snapshot was trained on {source}, whose schema was inferred from \
                     {corpus_size} instance(s); {} element(s) have fewer than \
                     {MIN_INFERRED_SUPPORT} observations",
                    weak.len()
                ),
            )
            .with_span(span)
            .with_note(format!("weakly supported: {}", weak.join(", ")))
            .with_help(
                "supply a hand-written DTD for the source, or retrain with more instances \
                 so the inferred occurrence decisions rest on real evidence",
            ),
        );
    }
}

/// Cross-checks the stored mediated DTD against the stored label set.
fn audit_mediated_dtd(text: &str, summary: &SnapshotSummary, out: &mut Vec<Diagnostic>) {
    // Pre-analysis snapshots carry no mediated DTD; the label set alone is
    // authoritative for them, so there is nothing to cross-check.
    if summary.mediated_dtd.is_empty() {
        return;
    }
    let span = key_span(text, "mediated_dtd");
    let dtd = match lsd_xml::parse_dtd(&summary.mediated_dtd) {
        Ok(dtd) => dtd,
        Err(e) => {
            out.push(
                Diagnostic::new(
                    Code::MediatedDtdMismatch,
                    format!("snapshot's mediated DTD does not parse: {e}"),
                )
                .with_span(span),
            );
            return;
        }
    };
    if summary.labels.is_empty() {
        return; // already reported as MalformedSnapshot
    }
    let mut expected: Vec<String> = dtd.element_names().map(str::to_string).collect();
    expected.push("OTHER".to_string());
    expected.sort();
    let mut stored = summary.labels.clone();
    stored.sort();
    if expected != stored {
        let missing: Vec<&String> = expected.iter().filter(|l| !stored.contains(l)).collect();
        let extra: Vec<&String> = stored.iter().filter(|l| !expected.contains(l)).collect();
        let mut d = Diagnostic::new(
            Code::MediatedDtdMismatch,
            "snapshot's label set disagrees with its mediated DTD",
        )
        .with_span(span)
        .with_help("the schema or label set was edited after training; retrain");
        if !missing.is_empty() {
            d = d.with_note(format!(
                "declared in the DTD but absent from the label set: {}",
                join(&missing)
            ));
        }
        if !extra.is_empty() {
            d = d.with_note(format!(
                "in the label set but not declared in the DTD: {}",
                join(&extra)
            ));
        }
        out.push(d);
    }
}

/// Why `Lsd::load_json` would refuse one serialized learner: its kind is
/// not one this build has (the `Stats` and `Format` learners were
/// removed), or its WHIRL state does not parse or fails
/// [`Whirl::validate`].
fn unloadable_learner(learner: &Value) -> Option<String> {
    let Value::Map(entries) = learner else {
        return None;
    };
    let (kind, body) = entries.first()?;
    match kind.as_str() {
        "Name" | "Content" => {
            let whirl = match body {
                Value::Map(body) => get(body, "whirl"),
                _ => None,
            };
            match Whirl::from_value(whirl.unwrap_or(&Value::Null)) {
                Ok(whirl) => whirl.validate().err(),
                Err(e) => Some(format!("its WHIRL state does not parse: {e}")),
            }
        }
        "NaiveBayes" | "Xml" | "CountyRecognizer" => None,
        other => Some(format!("this build has no `{other}` learner")),
    }
}

/// True when a trained learner's serialized state shows it never saw a
/// training example. Returns a human-readable reason.
fn degenerate_learner(learner: &Value) -> Option<String> {
    let Value::Map(entries) = learner else {
        return None;
    };
    let (kind, body) = entries.first()?;
    let Value::Map(body) = body else { return None };
    match kind.as_str() {
        // WHIRL learners: the example store and the raw-document store are
        // both empty, so the vocabulary is empty and every query scores
        // uniform.
        "Name" | "Content" => {
            let whirl = match get(body, "whirl") {
                Some(Value::Map(w)) => w,
                _ => return None,
            };
            let empty = |key: &str| match get(whirl, key) {
                Some(Value::Seq(items)) => items.is_empty(),
                _ => true,
            };
            (empty("examples") && empty("docs"))
                .then(|| "its WHIRL vocabulary is empty (no stored examples)".to_string())
        }
        // Naive-Bayes-backed learners: zero observed documents.
        "NaiveBayes" | "Xml" => match get(body, "model") {
            Some(Value::Map(model)) => num_is_zero(get(model, "total_docs"))
                .then(|| "its Naive Bayes model observed zero documents".to_string()),
            _ => None,
        },
        // Parameter-only learners (e.g. the county recognizer) have no
        // trained state to lose.
        _ => None,
    }
}

fn num_is_zero(v: Option<&Value>) -> bool {
    match v {
        Some(Value::Int(i)) => *i == 0,
        Some(Value::Float(f)) => *f == 0.0,
        _ => false,
    }
}

/// The externally-tagged variant name of one serialized learner.
fn learner_kind(learner: &Value) -> Option<String> {
    match learner {
        Value::Map(entries) => entries.first().map(|(k, _)| k.clone()),
        Value::Str(unit) => Some(unit.clone()),
        _ => None,
    }
}

pub(crate) fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Byte span of the first `"key"` occurrence in the artifact text — enough
/// for the caret renderer to point at the offending field.
fn key_span(text: &str, key: &str) -> Span {
    let needle = format!("\"{key}\"");
    match text.find(&needle) {
        Some(start) => Span::new(start, start + needle.len()),
        None => Span::SYNTHETIC,
    }
}

/// Extracts the `at byte N` offset our JSON parser embeds in its messages,
/// so even an unparseable artifact gets a caret.
fn parse_error_span(message: &str, text: &str) -> Span {
    let offset = message
        .rsplit("at byte ")
        .next()
        .and_then(|tail| tail.trim().parse::<usize>().ok())
        .unwrap_or(0)
        .min(text.len());
    Span::new(offset, (offset + 1).min(text.len()))
}

fn join(items: &[&String]) -> String {
    items
        .iter()
        .map(|s| format!("`{s}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Severity;

    fn minimal(trained: bool) -> String {
        format!(
            r#"{{
  "version": 2,
  "mediated_dtd": "",
  "labels": ["A", "B", "OTHER"],
  "learners": [{{"NaiveBayes": {{"num_labels": 3, "model": {{"total_docs": 3.0}}}}}}],
  "xml_index": null,
  "constraints": [],
  "trained": {trained},
  "feedback_applied": 0
}}"#
        )
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_snapshot_is_clean() {
        assert_eq!(audit_snapshot(&minimal(true)), Vec::new());
    }

    #[test]
    fn version_1_stacking_weights_are_ignored() {
        // Version 1 snapshots carry a `meta` weight matrix; whatever it
        // holds, it no longer reaches matching, so the audit ignores it.
        let text = minimal(true).replace(
            "\"version\": 2,",
            "\"version\": 1,\n  \"meta\": {\"weights\": [[null], [0.0]]},",
        );
        assert!(text.contains("\"meta\""));
        assert_eq!(audit_snapshot(&text), Vec::new());
    }

    #[test]
    fn unparseable_json_is_lsd207_with_offset_span() {
        let diags = audit_snapshot("{\"version\": 1, !}");
        assert_eq!(codes(&diags), ["LSD207"]);
        assert_eq!(diags[0].severity, Severity::Error);
        let span = diags[0].span.expect("parse errors carry the byte offset");
        assert_eq!(span.start, 15);
    }

    #[test]
    fn untrained_snapshot_is_lsd201() {
        let text = minimal(false);
        let diags = audit_snapshot(&text);
        assert_eq!(codes(&diags), ["LSD201"]);
        let span = diags[0].span.expect("span points at the trained field");
        assert_eq!(&text[span.start..span.end], "\"trained\"");
    }

    #[test]
    fn degenerate_naive_bayes_learner_is_lsd204() {
        let text = minimal(true).replace("\"total_docs\": 3.0", "\"total_docs\": 0");
        let diags = audit_snapshot(&text);
        assert_eq!(codes(&diags), ["LSD204"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn untrained_learners_are_not_flagged_on_untrained_snapshots() {
        let text = minimal(false).replace("\"total_docs\": 3.0", "\"total_docs\": 0");
        assert_eq!(codes(&audit_snapshot(&text)), ["LSD201"]);
    }

    /// The fixture with its learner replaced by a content matcher over
    /// `whirl`.
    fn with_content_learner(whirl: &str) -> String {
        minimal(true).replace(
            r#"{"NaiveBayes": {"num_labels": 3, "model": {"total_docs": 3.0}}}"#,
            &format!(r#"{{"Content": {{"num_labels": 3, "config": {{}}, "whirl": {whirl}}}}}"#),
        )
    }

    fn empty_whirl() -> String {
        let whirl = Whirl::new(3, lsd_text::WhirlConfig::default());
        serde_json::to_string(&whirl).expect("serializes")
    }

    #[test]
    fn empty_whirl_vocabulary_is_lsd204() {
        let diags = audit_snapshot(&with_content_learner(&empty_whirl()));
        assert_eq!(codes(&diags), ["LSD204"]);
        assert!(diags[0].message.contains("WHIRL vocabulary"));
    }

    #[test]
    fn whirl_state_that_loading_refuses_is_lsd207() {
        let unparseable = with_content_learner(r#"{"docs": [], "examples": []}"#);
        let diags = audit_snapshot(&unparseable);
        assert!(codes(&diags).contains(&"LSD207"), "{diags:?}");
        // A document labelled `num_labels`.
        let bad_label = empty_whirl().replace(r#""docs":[]"#, r#""docs":[[["a"],3]]"#);
        assert_ne!(bad_label, empty_whirl());
        let diags = audit_snapshot(&with_content_learner(&bad_label));
        assert_eq!(codes(&diags), ["LSD207"]);
        assert!(diags[0].message.contains("example label 3"), "{diags:?}");
    }

    #[test]
    fn a_learner_kind_this_build_lacks_is_lsd207() {
        for kind in ["Stats", "Format"] {
            let text = minimal(true).replace("\"NaiveBayes\"", &format!("\"{kind}\""));
            let diags = audit_snapshot(&text);
            assert_eq!(codes(&diags), ["LSD207"]);
            assert_eq!(diags[0].severity, Severity::Error);
            assert!(diags[0].message.contains(&format!("`{kind}`")), "{diags:?}");
        }
    }

    #[test]
    fn mediated_dtd_label_disagreement_is_lsd206() {
        let text = minimal(true).replace(
            "\"mediated_dtd\": \"\"",
            "\"mediated_dtd\": \"<!ELEMENT A (#PCDATA)>\\n<!ELEMENT C (#PCDATA)>\"",
        );
        let diags = audit_snapshot(&text);
        assert_eq!(codes(&diags), ["LSD206"]);
        assert!(
            diags[0].notes.iter().any(|n| n.contains("`C`")),
            "{diags:?}"
        );
        assert!(
            diags[0].notes.iter().any(|n| n.contains("`B`")),
            "{diags:?}"
        );
    }

    #[test]
    fn unparseable_mediated_dtd_is_lsd206() {
        let text = minimal(true).replace(
            "\"mediated_dtd\": \"\"",
            "\"mediated_dtd\": \"<!ELEMENT broken\"",
        );
        assert_eq!(codes(&audit_snapshot(&text)), ["LSD206"]);
    }

    /// A clean trained snapshot plus one provenance entry with the given
    /// `inferred` JSON value.
    fn with_provenance(inferred: &str) -> String {
        minimal(true).replace(
            "\"feedback_applied\": 0",
            &format!(
                "\"feedback_applied\": 0,\n  \"source_provenance\": [{{\"source\": \"bare.xml\", \
                 \"format\": \"Xml\", \"listings\": 2, \"inferred\": {inferred}}}]"
            ),
        )
    }

    #[test]
    fn weakly_supported_inferred_schema_is_lsd231_warning() {
        let text = with_provenance(
            r#"{"corpus_size": 2, "elements": 3, "edges": 4, "generalizations": 1,
                "fallbacks": 0, "element_support": {"home": 2, "area": 2, "pool": 1}}"#,
        );
        let diags = audit_snapshot(&text);
        assert_eq!(codes(&diags), ["LSD231"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("`bare.xml`"), "{diags:?}");
        assert!(diags[0].message.contains("3 element(s)"), "{diags:?}");
        assert!(
            diags[0]
                .notes
                .iter()
                .any(|n| n.contains("`pool` (seen 1x)")),
            "{diags:?}"
        );
    }

    #[test]
    fn well_supported_inferred_schema_is_clean() {
        let text = with_provenance(
            r#"{"corpus_size": 40, "elements": 2, "edges": 3, "generalizations": 0,
                "fallbacks": 0, "element_support": {"home": 40, "area": 38}}"#,
        );
        assert_eq!(audit_snapshot(&text), Vec::new());
    }

    #[test]
    fn native_schema_provenance_is_not_flagged() {
        let text = with_provenance("null");
        assert_eq!(audit_snapshot(&text), Vec::new());
    }

    #[test]
    fn summary_extracts_cross_check_context() {
        let text = minimal(true).replace("\"feedback_applied\": 0", "\"feedback_applied\": 7");
        let (diags, summary) = audit_snapshot_with_summary(&text);
        assert!(diags.is_empty());
        assert_eq!(summary.version, Some(2));
        assert_eq!(summary.labels, ["A", "B", "OTHER"]);
        assert_eq!(summary.feedback_applied, 7);
        assert!(summary.trained);
    }
}

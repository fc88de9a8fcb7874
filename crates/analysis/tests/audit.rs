//! Integration tests for the artifact auditors against REAL artifacts:
//! snapshots written by `Lsd::save_json` and WALs written by
//! `FeedbackWal::append` (via the `lsd-core` dev-dependency), corrupted
//! the way production artifacts actually corrupt — a mediated schema edited
//! out from under its label set, a crash-torn tail at every possible byte
//! offset, a flipped byte mid-record.

use lsd_analysis::{
    audit_registry, audit_snapshot, audit_snapshot_with_summary, audit_wal, Diagnostic, Severity,
    WalAuditContext,
};
use lsd_core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher};
use lsd_core::{Correction, FeedbackRecord, FeedbackWal, Lsd, LsdBuilder, Source, TrainedSource};
use lsd_xml::{parse_dtd, parse_fragment};
use serde::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const MEDIATED: &str = "<!ELEMENT HOUSE (ADDRESS, DESCRIPTION, PHONE)>\n\
                        <!ELEMENT ADDRESS (#PCDATA)>\n\
                        <!ELEMENT DESCRIPTION (#PCDATA)>\n\
                        <!ELEMENT PHONE (#PCDATA)>";

const SOURCE_DTD: &str = "<!ELEMENT home (location, comments, contact)>\n\
                          <!ELEMENT location (#PCDATA)>\n\
                          <!ELEMENT comments (#PCDATA)>\n\
                          <!ELEMENT contact (#PCDATA)>";

fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join("lsd-audit-int-tests")
        .join(format!(
            "{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn train_model() -> Lsd {
    let mediated = parse_dtd(MEDIATED).expect("mediated DTD");
    let dtd = parse_dtd(SOURCE_DTD).expect("source DTD");
    let listings = [
        ("Miami, FL", "Great view of the bay", "(305) 111 2222"),
        ("Boston, MA", "Fantastic yard and porch", "(617) 333 4444"),
        ("Austin, TX", "Nice area near downtown", "(512) 555 6666"),
    ]
    .iter()
    .map(|(a, d, p)| {
        parse_fragment(&format!(
            "<home><location>{a}</location><comments>{d}</comments>\
             <contact>{p}</contact></home>"
        ))
        .expect("well-formed listing")
    })
    .collect();
    let train = TrainedSource {
        source: Source::from_xml("train", dtd, listings),
        mapping: HashMap::from([
            ("home".to_string(), "HOUSE".to_string()),
            ("location".to_string(), "ADDRESS".to_string()),
            ("comments".to_string(), "DESCRIPTION".to_string()),
            ("contact".to_string(), "PHONE".to_string()),
        ]),
    };
    let builder = LsdBuilder::new(&mediated);
    let n = builder.labels().len();
    let mut lsd = builder
        .add_learner(Box::new(NameMatcher::new(n, HashMap::new())))
        .add_learner(Box::new(ContentMatcher::new(n)))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .with_xml_learner(None)
        .build()
        .expect("builds");
    lsd.train(std::slice::from_ref(&train)).expect("trains");
    lsd
}

/// The trained model serialized by the real persistence path.
fn snapshot_text(label: &str) -> String {
    let dir = temp_dir(label);
    let path = dir.join("model.json");
    train_model().save_json(&path).expect("saves");
    let text = std::fs::read_to_string(&path).expect("reads");
    std::fs::remove_dir_all(&dir).ok();
    text
}

/// Edits one field of a snapshot through the JSON layer — the same
/// transformation a buggy writer performs.
fn edit_snapshot(text: &str, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
    let mut value: Value = serde_json::from_str(text).expect("snapshot parses");
    let Value::Map(fields) = &mut value else {
        panic!("snapshot root is an object");
    };
    edit(fields);
    serde_json::to_string(&value).expect("re-serializes")
}

fn field<'v>(fields: &'v mut [(String, Value)], key: &str) -> &'v mut Value {
    &mut fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("snapshot has a `{key}` field"))
        .1
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code.as_str()).collect()
}

fn wal_record(i: u64, label: &str) -> FeedbackRecord {
    let dtd = parse_dtd(SOURCE_DTD).expect("source DTD");
    let listing = parse_fragment(
        "<home><location>Kent, WA</location><comments>quiet street</comments>\
         <contact>(206) 111 2222</contact></home>",
    )
    .expect("listing");
    FeedbackRecord::from_source(
        &Source::from_xml("fb", dtd, vec![listing]),
        vec![Correction::tag_is("location", label).with_provenance("test", 1000 + i, "test")],
    )
}

#[test]
fn real_trained_snapshot_audits_clean() {
    let text = snapshot_text("clean");
    assert_eq!(audit_snapshot(&text), Vec::new());
    let (_, summary) = audit_snapshot_with_summary(&text);
    assert!(summary.trained);
    assert_eq!(summary.version, Some(lsd_core::SAVED_MODEL_VERSION));
    assert_eq!(
        summary.labels,
        ["HOUSE", "ADDRESS", "DESCRIPTION", "PHONE", "OTHER"]
    );
}

/// Renames one mediated element in the snapshot's stored DTD: the document
/// still deserializes and the model still matches, but its label set no
/// longer agrees with its schema.
fn rename_mediated_element(text: &str) -> String {
    edit_snapshot(text, |fields| {
        let Value::Str(dtd) = field(fields, "mediated_dtd") else {
            panic!("mediated_dtd is a string");
        };
        *dtd = dtd.replace("PHONE", "FAX");
    })
}

#[test]
fn renamed_mediated_element_is_lsd206_error() {
    let diags = audit_snapshot(&rename_mediated_element(&snapshot_text("renamed")));
    assert_eq!(codes(&diags), ["LSD206"]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(
        diags[0].notes.iter().any(|n| n.contains("`FAX`")),
        "{diags:?}"
    );
}

#[test]
fn untrained_flag_is_lsd201_error() {
    let text = snapshot_text("untrained");
    let untrained = edit_snapshot(&text, |fields| {
        *field(fields, "trained") = Value::Bool(false);
    });
    let diags = audit_snapshot(&untrained);
    assert_eq!(codes(&diags), ["LSD201"]);
    assert_eq!(diags[0].severity, Severity::Error);
}

#[test]
fn dropped_label_is_lsd206() {
    let text = snapshot_text("skew");
    let skewed = edit_snapshot(&text, |fields| {
        let Value::Seq(labels) = field(fields, "labels") else {
            panic!("labels is an array");
        };
        labels.remove(0);
    });
    let diags = audit_snapshot(&skewed);
    assert_eq!(
        codes(&diags),
        ["LSD206"],
        "the DTD still declares the dropped label"
    );
    assert_eq!(diags[0].severity, Severity::Error);
}

#[test]
fn wal_magic_constants_agree_across_crates() {
    // The auditor re-implements the frame walk (lsd-core depends on
    // lsd-analysis, so it cannot call into it); this pins the two magics
    // to each other.
    assert_eq!(lsd_core::WAL_MAGIC, b"LSDWAL01");
    let dir = temp_dir("magic");
    let (_, records) = FeedbackWal::open(dir.join("m.wal")).expect("creates");
    assert!(records.is_empty());
    let bytes = std::fs::read(dir.join("m.wal")).expect("reads");
    assert_eq!(audit_wal(&bytes, None), Vec::new());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_byte_offset_of_the_last_record_is_lsd212() {
    let dir = temp_dir("torn");
    let path = dir.join("m.wal");
    let intact_len;
    {
        let (mut wal, _) = FeedbackWal::open(&path).expect("creates");
        wal.append(&wal_record(0, "ADDRESS")).expect("appends");
        wal.append(&wal_record(1, "ADDRESS")).expect("appends");
        intact_len = std::fs::metadata(&path).expect("stats").len() as usize;
        wal.append(&wal_record(2, "ADDRESS")).expect("appends");
    }
    let full = std::fs::read(&path).expect("reads");
    // At exactly the intact boundary the file is a clean 2-record log...
    assert_eq!(audit_wal(&full[..intact_len], None), Vec::new());
    // ...and every cut inside the last record is a torn tail: one LSD212
    // warning, never an error, never a panic.
    for cut in intact_len + 1..full.len() {
        let diags = audit_wal(&full[..cut], None);
        assert_eq!(codes(&diags), ["LSD212"], "cut at {cut}");
        assert_eq!(diags[0].severity, Severity::Warning, "cut at {cut}");
        let span = diags[0].span.expect("torn spans exist");
        assert_eq!((span.start, span.end), (intact_len, cut), "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_record_crc_corruption_is_lsd213_error() {
    let dir = temp_dir("crc");
    let path = dir.join("m.wal");
    let first_record_end;
    {
        let (mut wal, _) = FeedbackWal::open(&path).expect("creates");
        wal.append(&wal_record(0, "ADDRESS")).expect("appends");
        first_record_end = std::fs::metadata(&path).expect("stats").len() as usize;
        wal.append(&wal_record(1, "ADDRESS")).expect("appends");
    }
    let mut bytes = std::fs::read(&path).expect("reads");
    bytes[first_record_end - 2] ^= 0xFF; // inside record 0's payload
    let diags = audit_wal(&bytes, None);
    assert_eq!(codes(&diags), ["LSD213"]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(
        diags[0].message.contains("record 0"),
        "{}",
        diags[0].message
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fold_point_beyond_wal_length_is_lsd214() {
    let dir = temp_dir("fold");
    let path = dir.join("m.wal");
    {
        let (mut wal, _) = FeedbackWal::open(&path).expect("creates");
        wal.append(&wal_record(0, "ADDRESS")).expect("appends");
    }
    let bytes = std::fs::read(&path).expect("reads");
    let (_, summary) = audit_snapshot_with_summary(&snapshot_text("fold-ctx"));
    let ctx = WalAuditContext {
        labels: summary.labels,
        feedback_applied: 2, // the WAL holds 1
    };
    let diags = audit_wal(&bytes, Some(&ctx));
    assert_eq!(codes(&diags), ["LSD214"]);
    assert_eq!(diags[0].severity, Severity::Error);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn correction_to_unknown_label_is_lsd215() {
    let dir = temp_dir("label");
    let path = dir.join("m.wal");
    {
        let (mut wal, _) = FeedbackWal::open(&path).expect("creates");
        wal.append(&wal_record(0, "ADDRESS")).expect("appends");
        wal.append(&wal_record(1, "ZIPCODE")).expect("appends"); // not in the model
    }
    let bytes = std::fs::read(&path).expect("reads");
    let (_, summary) = audit_snapshot_with_summary(&snapshot_text("label-ctx"));
    let ctx = WalAuditContext {
        labels: summary.labels,
        feedback_applied: 0,
    };
    let diags = audit_wal(&bytes, Some(&ctx));
    assert_eq!(codes(&diags), ["LSD215"]);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("`ZIPCODE`"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_with_duplicate_slugs_and_version_skew() {
    let dir = temp_dir("registry");
    let text = snapshot_text("registry-model");
    std::fs::write(dir.join("real_estate.json"), &text).expect("writes");
    std::fs::write(dir.join("Real-Estate.json"), &text).expect("writes");
    let old = edit_snapshot(&text, |fields| {
        // An older-format snapshot (version gating accepts <= current).
        *field(fields, "version") = Value::Int(0);
    });
    std::fs::write(dir.join("legacy.json"), &old).expect("writes");
    let diags = audit_registry(&dir).expect("audits");
    let found = codes(&diags);
    assert!(found.contains(&"LSD221"), "duplicate slug: {found:?}");
    assert!(found.contains(&"LSD222"), "version skew: {found:?}");
    let dup = diags
        .iter()
        .find(|d| d.code.as_str() == "LSD221")
        .expect("dup");
    assert_eq!(dup.severity, Severity::Error);
    let skew = diags
        .iter()
        .find(|d| d.code.as_str() == "LSD222")
        .expect("skew");
    assert_eq!(skew.severity, Severity::Warning);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_of_healthy_plus_corrupt_snapshot_plus_torn_wal() {
    // One healthy model, one snapshot whose schema disagrees with its
    // labels (and so drifts from the healthy model's schema), one torn WAL
    // — exactly the expected codes, exactly the expected severities.
    let dir = temp_dir("acceptance");
    let text = snapshot_text("acceptance-model");
    std::fs::write(dir.join("healthy.json"), &text).expect("writes");

    std::fs::write(dir.join("poisoned.json"), rename_mediated_element(&text)).expect("writes");

    let wal_path = dir.join("healthy.wal");
    {
        let (mut wal, _) = FeedbackWal::open(&wal_path).expect("creates");
        wal.append(&wal_record(0, "ADDRESS")).expect("appends");
    }
    let mut bytes = std::fs::read(&wal_path).expect("reads");
    bytes.truncate(bytes.len() - 3); // crash-torn tail
    std::fs::write(&wal_path, &bytes).expect("writes");

    let diags = audit_registry(&dir).expect("audits");
    let mut found: Vec<(&str, Severity)> = diags
        .iter()
        .map(|d| (d.code.as_str(), d.severity))
        .collect();
    found.sort();
    assert_eq!(
        found,
        [
            ("LSD206", Severity::Error),
            ("LSD212", Severity::Warning),
            ("LSD223", Severity::Warning),
        ],
        "{diags:#?}"
    );
    let corrupt = diags
        .iter()
        .find(|d| d.code.as_str() == "LSD206")
        .expect("corrupt");
    assert_eq!(corrupt.origin.as_deref(), Some("poisoned.json"));
    let torn = diags
        .iter()
        .find(|d| d.code.as_str() == "LSD212")
        .expect("torn");
    assert_eq!(torn.origin.as_deref(), Some("healthy.wal"));
    std::fs::remove_dir_all(&dir).ok();
}

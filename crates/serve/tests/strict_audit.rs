//! The deploy-time audit gate: a registry opened in [`AuditMode::Strict`]
//! refuses snapshots whose artifact audit finds error-severity `LSD2xx`
//! diagnostics — while continuing to serve the healthy models beside them
//! — and [`AuditMode::Warn`] (the library default) loads everything and
//! only counts the findings.

use lsd_core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher};
use lsd_core::{Correction, FeedbackRecord, FeedbackWal, Lsd, LsdBuilder, Source, TrainedSource};
use lsd_serve::{AuditMode, ModelRegistry, ServeError};
use lsd_xml::{parse_dtd, parse_fragment};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
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
        .join("lsd-strict-audit-tests")
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

/// Renames the mediated `PHONE` element to `FAX` in snapshot `text`'s
/// stored DTD, leaving the label set as it was — valid JSON, a valid DTD,
/// and invisible to everything but the audit.
fn rename_mediated_element(text: &str) -> String {
    text.lines()
        .map(|line| {
            if line.trim_start().starts_with("\"mediated_dtd\"") {
                line.replace("PHONE", "FAX")
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Replaces the number after the first `"key"` in snapshot `text` with the
/// literal `replacement`.
fn replace_number(text: &str, key: &str, replacement: &str) -> String {
    let at = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("`{key}` in snapshot"));
    let start = at
        + text[at..]
            .find(|c: char| c.is_ascii_digit() || c == '-')
            .expect("a number");
    let len = text[start..]
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .expect("number ends");
    format!("{}{replacement}{}", &text[..start], &text[start + len..])
}

/// Writes one healthy snapshot and one copy whose mediated DTD no longer
/// names one of its labels — it deserializes fine and passes
/// `ensure_servable` (which lints the schema and the constraints, not the
/// label set against the schema); only the artifact audit sees it
/// (`LSD206`).
fn write_healthy_and_poisoned(dir: &Path) {
    let healthy = dir.join("healthy.json");
    train_model().save_json(&healthy).expect("saves");
    let text = std::fs::read_to_string(&healthy).expect("reads");
    let poisoned = rename_mediated_element(&text);
    assert_ne!(poisoned, text, "the snapshot stores its mediated DTD");
    std::fs::write(dir.join("poisoned.json"), poisoned).expect("writes");
}

#[test]
fn strict_registry_refuses_the_poisoned_model_and_serves_the_healthy_one() {
    let dir = temp_dir("strict");
    write_healthy_and_poisoned(&dir);
    // A NaN can only appear in JSON as `null`; the deserializer refuses a
    // NaN `alpha` one layer earlier, as ModelInvalid rather than
    // AuditFailed. Either way the model never serves.
    let healthy = std::fs::read_to_string(dir.join("healthy.json")).expect("reads");
    std::fs::write(
        dir.join("nan.json"),
        replace_number(&healthy, "alpha", "null"),
    )
    .expect("writes");

    let registry = ModelRegistry::open_with(&dir, AuditMode::Strict).expect("opens");
    assert_eq!(registry.audit_mode(), AuditMode::Strict);
    assert_eq!(registry.names(), ["healthy"]);
    assert!(registry.model(Some("healthy")).is_ok());
    assert!(matches!(
        registry.model(Some("poisoned")),
        Err(ServeError::ModelNotFound { .. })
    ));

    // The rejections are visible, typed, and the audit one names its code.
    let listing = registry.list_json();
    assert!(listing.contains("poisoned"), "failure listed: {listing}");
    assert!(
        listing.contains("LSD206"),
        "failure carries the code: {listing}"
    );
    assert!(
        listing.contains("nan"),
        "deserializer rejection listed: {listing}"
    );

    // Explicit activation of the poisoned model fails the same way.
    let err = registry.activate("poisoned").expect_err("refused");
    assert!(matches!(err, ServeError::AuditFailed { .. }), "{err}");
    assert_eq!(err.status(), 422);
    assert_eq!(err.code(), "audit_failed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warn_mode_loads_everything_and_is_the_default() {
    let dir = temp_dir("warn");
    write_healthy_and_poisoned(&dir);

    let registry = ModelRegistry::open(&dir).expect("opens");
    assert_eq!(registry.audit_mode(), AuditMode::Warn);
    assert_eq!(registry.names(), ["healthy", "poisoned"]);
    assert!(registry.activate("poisoned").is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warning_only_findings_do_not_reject_under_strict() {
    let dir = temp_dir("torn-wal");
    let snapshot = dir.join("model.json");
    train_model().save_json(&snapshot).expect("saves");
    // A companion WAL with a crash-torn tail: LSD212 is a warning — the
    // model must still serve, strict mode or not.
    let wal_path = dir.join("model.wal");
    {
        let (mut wal, _) = FeedbackWal::open(&wal_path).expect("creates");
        let fb_dtd = parse_dtd(SOURCE_DTD).expect("dtd");
        let listing = parse_fragment(
            "<home><location>Kent, WA</location><comments>quiet</comments>\
             <contact>(206) 111 2222</contact></home>",
        )
        .expect("listing");
        wal.append(&FeedbackRecord::from_source(
            &Source::from_xml("fb", fb_dtd, vec![listing]),
            vec![Correction::tag_is("location", "ADDRESS")],
        ))
        .expect("appends");
    }
    let mut bytes = std::fs::read(&wal_path).expect("reads");
    bytes.extend_from_slice(&[0x17, 0x00, 0x00]); // torn next header
    std::fs::write(&wal_path, &bytes).expect("writes");

    let registry = ModelRegistry::open_with(&dir, AuditMode::Strict).expect("opens");
    assert_eq!(registry.names(), ["model"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn low_support_inferred_schema_warns_but_still_serves_under_strict() {
    use lsd_core::XmlReader;
    let dir = temp_dir("inferred");
    // A DTD-less training source with two instances, one of which carries
    // a tag seen only once: the inferred schema's occurrence decisions for
    // that tag rest on a single observation (LSD231 territory).
    let mediated = parse_dtd(MEDIATED).expect("mediated DTD");
    let reader = XmlReader::from_document(
        "<corpus><home><location>Miami, FL</location>\
         <comments>Great view of the bay</comments>\
         <contact>(305) 111 2222</contact></home>\
         <home><location>Boston, MA</location>\
         <contact>(617) 333 4444</contact></home></corpus>",
    );
    let source = Source::from_reader("bare", &reader).expect("reads");
    let train = TrainedSource {
        source,
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
        .build()
        .expect("builds");
    lsd.train(std::slice::from_ref(&train)).expect("trains");
    let snapshot = dir.join("model.json");
    lsd.save_json(&snapshot).expect("saves");

    // The audit surfaces the weakly-supported inferred schema...
    let text = std::fs::read_to_string(&snapshot).expect("reads");
    let diags = lsd_analysis::audit_snapshot(&text);
    let lsd231: Vec<_> = diags
        .iter()
        .filter(|d| d.code.as_str() == "LSD231")
        .collect();
    assert_eq!(lsd231.len(), 1, "{diags:?}");
    assert!(!lsd231[0].is_error(), "LSD231 is a warning");
    assert!(lsd231[0].message.contains("`bare`"), "{:?}", lsd231[0]);

    // ...but as a warning: the strict gate still activates the model.
    let registry = ModelRegistry::open_with(&dir, AuditMode::Strict).expect("opens");
    assert_eq!(registry.names(), ["model"]);
    assert!(registry.model(Some("model")).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_from_a_different_model_rejects_under_strict() {
    let dir = temp_dir("foreign-wal");
    let snapshot = dir.join("model.json");
    train_model().save_json(&snapshot).expect("saves");
    // A companion WAL whose corrections name a label this model does not
    // have: LSD215 is an error — replaying it at retrain time would fail.
    let wal_path = dir.join("model.wal");
    {
        let (mut wal, _) = FeedbackWal::open(&wal_path).expect("creates");
        let fb_dtd = parse_dtd(SOURCE_DTD).expect("dtd");
        let listing = parse_fragment(
            "<home><location>Kent, WA</location><comments>quiet</comments>\
             <contact>(206) 111 2222</contact></home>",
        )
        .expect("listing");
        wal.append(&FeedbackRecord::from_source(
            &Source::from_xml("fb", fb_dtd, vec![listing]),
            vec![Correction::tag_is("location", "ZIPCODE")],
        ))
        .expect("appends");
    }

    let registry = ModelRegistry::open_with(&dir, AuditMode::Strict).expect("opens");
    assert!(registry.names().is_empty());
    assert!(registry.list_json().contains("LSD215"));

    // The same directory under Warn still loads.
    let registry = ModelRegistry::open_with(&dir, AuditMode::Warn).expect("opens");
    assert_eq!(registry.names(), ["model"]);
    std::fs::remove_dir_all(&dir).ok();
}

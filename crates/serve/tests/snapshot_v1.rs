//! Version 1 snapshots still serve. `fixtures/model_v1.json` was written by
//! a build that fit stacking weights: it carries a `meta` weight matrix and
//! the `cv_folds`, `train_meta` and `converter` configuration fields. Those
//! keys are ignored on load, so the model serves with equal learner
//! weights, exactly as its version 2 re-save does.
//!
//! Snapshots of models trained on DTD-less sources carry inference
//! statistics in `source_provenance[].inferred`. Older builds wrote an
//! `edges` count there (single-occurrence-automaton edges); that key is
//! ignored on load too.

use lsd_core::{Lsd, SavedModel, Source, SAVED_MODEL_VERSION};
use lsd_serve::{json, AuditMode, ModelRegistry};
use lsd_xml::{parse_dtd, parse_fragment};
use std::path::PathBuf;

const FIXTURE: &str = include_str!("fixtures/model_v1.json");

/// A source the fixture's model was not trained on.
fn query() -> Source {
    let dtd = parse_dtd(
        "<!ELEMENT flat (where, notes, tel)>\n<!ELEMENT where (#PCDATA)>\n\
         <!ELEMENT notes (#PCDATA)>\n<!ELEMENT tel (#PCDATA)>",
    )
    .expect("DTD parses");
    let listings = [
        ("Tampa, FL", "Sunny porch and a big yard", "(813) 222 3333"),
        ("Reno, NV", "Great views near downtown", "(775) 444 5555"),
    ]
    .iter()
    .map(|(w, n, t)| {
        parse_fragment(&format!(
            "<flat><where>{w}</where><notes>{n}</notes><tel>{t}</tel></flat>"
        ))
        .expect("listing parses")
    })
    .collect();
    Source::from_xml("c.com", dtd, listings)
}

#[test]
fn a_version_1_snapshot_with_trained_weights_serves_like_its_resave() {
    for key in [
        "\"version\":1",
        "\"meta\"",
        "\"cv_folds\"",
        "\"train_meta\"",
    ] {
        assert!(FIXTURE.contains(key), "the fixture is a version 1 snapshot");
    }
    let v1 = Lsd::from_saved(SavedModel::from_json_str(FIXTURE).expect("version 1 loads"));
    assert!(v1.is_trained());

    let resaved = v1.to_saved().expect("snapshots");
    assert_eq!(resaved.version, SAVED_MODEL_VERSION);
    let text = serde_json::to_string(&resaved).expect("serializes");
    for key in [
        "\"meta\"",
        "\"cv_folds\"",
        "\"train_meta\"",
        "\"converter\"",
    ] {
        assert!(!text.contains(key), "{key} is gone from the re-save");
    }
    let v2 = Lsd::from_saved(SavedModel::from_json_str(&text).expect("re-save loads"));

    let source = query();
    let old = v1.match_source(&source).expect("matches");
    let new = v2.match_source(&source).expect("matches");
    assert_eq!(json::match_body("m", &old), json::match_body("m", &new));
    assert_eq!(json::explain_body("m", &old), json::explain_body("m", &new));
    assert_eq!(old.label_of("where"), Some("ADDRESS"));
}

#[test]
fn a_version_1_snapshot_passes_the_strict_audit() {
    assert_eq!(lsd_analysis::audit_snapshot(FIXTURE), Vec::new());
    let dir: PathBuf = std::env::temp_dir().join(format!("lsd-snapshot-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("old.json"), FIXTURE).expect("writes");
    let registry = ModelRegistry::open_with(&dir, AuditMode::Strict).expect("opens");
    assert_eq!(registry.names(), ["old"]);
    assert!(registry.model(Some("old")).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inferred_provenance_with_an_edges_count_loads_and_serves() {
    let plain = r#"{"source":"b.com","format":"Xml","listings":3,"inferred":null}"#;
    assert!(
        FIXTURE.contains(plain),
        "the fixture records b.com's provenance"
    );
    let text = FIXTURE.replace(
        plain,
        r#"{"source":"b.com","format":"Json","listings":3,"inferred":{"corpus_size":3,
            "elements":4,"edges":9,"generalizations":1,"fallbacks":0,
            "element_support":{"flat":3,"where":3,"notes":3,"tel":2}}}"#,
    );
    let with_edges = Lsd::from_saved(SavedModel::from_json_str(&text).expect("loads"));
    let stats = with_edges.source_provenance()[1]
        .inferred
        .as_ref()
        .expect("inferred provenance loads");
    assert_eq!((stats.corpus_size, stats.elements), (3, 4));
    assert_eq!((stats.generalizations, stats.fallbacks), (1, 0));
    assert_eq!(stats.element_support["tel"], 2);

    let resaved =
        serde_json::to_string(&with_edges.to_saved().expect("snapshots")).expect("serializes");
    assert!(
        !resaved.contains("\"edges\""),
        "edges is gone from the re-save"
    );

    let dir: PathBuf =
        std::env::temp_dir().join(format!("lsd-snapshot-edges-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("inferred.json"), &text).expect("writes");
    let registry = ModelRegistry::open_with(&dir, AuditMode::Strict).expect("opens");
    assert_eq!(registry.names(), ["inferred"]);
    let entry = registry.model(Some("inferred")).expect("serves");
    std::fs::remove_dir_all(&dir).ok();

    let v1 = Lsd::from_saved(SavedModel::from_json_str(FIXTURE).expect("version 1 loads"));
    let source = query();
    let served = entry.lsd.match_source(&source).expect("matches");
    let old = v1.match_source(&source).expect("matches");
    assert_eq!(json::match_body("m", &served), json::match_body("m", &old));
    assert_eq!(
        json::explain_body("m", &served),
        json::explain_body("m", &old)
    );
}

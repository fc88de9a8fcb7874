//! Pins the bytes the server would send, across a sweep of matches, to a
//! committed digest (`benchmarks/SERVED_DIGEST.json`).
//!
//! For each of the four datagen domains at 15, 100 and 200 listings and
//! seeds 1 and 2, the full-configuration model (`train_full_model`) is
//! snapshotted, reloaded from that snapshot as `lsd-serve` would load it,
//! and matched against held-out sources 3 and 4 three ways: plainly, and
//! under feedback pinning the first two and the last two mapped tags (in
//! schema order) to their true labels. Each held-out source is also
//! served schemaless, through the readers `POST /v1/match` uses: as JSON
//! (`emit_json`), as a bare XML container (`emit_bare_xml`), and as JSON
//! whose i-th listing has every object's keys rotated left by i, which
//! orders some siblings both ways and so reaches the inference catch-all.
//! Every `json::match_body` and `json::explain_body`, and every snapshot,
//! is hashed (64-bit FNV-1a).
//!
//! A change that claims "same output" passes this test unchanged. A change
//! that moves the output on purpose regenerates the file in the same
//! commit and says why:
//!
//! ```text
//! cargo test --release -p lsd-bench --test served_digest -- --ignored regenerate
//! ```
//!
//! The sweep trains 24 models and serves 288 matches, so the check only
//! runs in release builds; debug builds skip it.

use lsd_bench::{train_full_model, ExperimentParams};
use lsd_core::{
    Correction, Feedback, JsonReader, Lsd, MatchOutcome, SavedModel, Source, SourceReader,
    XmlReader,
};
use lsd_datagen::{emit_bare_xml, emit_json, DomainId, GeneratedSource};
use lsd_serve::json;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

const LISTINGS: [usize; 3] = [15, 100, 200];
const SEEDS: [u64; 2] = [1, 2];
const HELD_OUT: [usize; 2] = [3, 4];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Rotates every object's keys left by `by`, at every depth.
fn rotate_keys(value: &mut Value, by: usize) {
    match value {
        Value::Map(entries) => {
            if !entries.is_empty() {
                let shift = by % entries.len();
                entries.rotate_left(shift);
            }
            entries.iter_mut().for_each(|(_, v)| rotate_keys(v, by));
        }
        Value::Seq(items) => items.iter_mut().for_each(|v| rotate_keys(v, by)),
        _ => {}
    }
}

/// The source as `emit_json` serializes it, with the i-th listing's keys
/// rotated left by i.
fn rotated_json(generated: &GeneratedSource) -> Value {
    let mut doc: Value = serde_json::from_str(&emit_json(generated)).expect("emitted JSON parses");
    let Value::Seq(listings) = &mut doc else {
        panic!("emit_json writes an array");
    };
    for (i, listing) in listings.iter_mut().enumerate() {
        rotate_keys(listing, i);
    }
    doc
}

/// The held-out source served without its DTD, three ways, each read the
/// way the server reads that media type.
fn schemaless(generated: &GeneratedSource) -> [(&'static str, Source); 3] {
    let read = |reader: &dyn SourceReader| {
        Source::from_reader(generated.name.clone(), reader).expect("reads")
    };
    let rotated = read(&JsonReader::from_value(rotated_json(generated)));
    let fallbacks = rotated.inferred.as_ref().map_or(0, |stats| stats.fallbacks);
    assert!(
        fallbacks > 0,
        "{}: key-rotated JSON never reached the catch-all",
        generated.name
    );
    [
        ("json", read(&JsonReader::new(emit_json(generated)))),
        (
            "bare-xml",
            read(&XmlReader::from_document(emit_bare_xml(generated))),
        ),
        ("json-rotated", rotated),
    ]
}

fn insert_bodies(digests: &mut BTreeMap<String, String>, key: &str, outcome: &MatchOutcome) {
    digests.insert(
        format!("{key}/match"),
        fnv1a(json::match_body("m", outcome).as_bytes()),
    );
    digests.insert(
        format!("{key}/explain"),
        fnv1a(json::explain_body("m", outcome).as_bytes()),
    );
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/SERVED_DIGEST.json")
}

/// Every hash of the sweep, keyed `domain/listings/seed[/source/variant/body]`.
fn sweep() -> BTreeMap<String, String> {
    let mut digests = BTreeMap::new();
    for id in DomainId::ALL {
        for listings in LISTINGS {
            for seed in SEEDS {
                let params = ExperimentParams {
                    listings,
                    seed,
                    ..ExperimentParams::default()
                };
                let (domain, trained) = train_full_model(id, &params);
                let snapshot = serde_json::to_string_pretty(&trained.to_saved().expect("saves"))
                    .expect("serializes");
                let prefix = format!("{}/{listings}/{seed}", lsd_bench::domain_slug(id.name()));
                digests.insert(format!("{prefix}/snapshot"), fnv1a(snapshot.as_bytes()));
                let lsd = Lsd::from_saved(SavedModel::from_json_str(&snapshot).expect("loads"));
                for i in HELD_OUT {
                    let generated = &domain.sources[i];
                    let source = Source::from_xml(
                        generated.name.clone(),
                        generated.dtd.clone(),
                        generated.listings.clone(),
                    );
                    let plain = lsd.match_source(&source).expect("matches");
                    let mapped: Vec<&String> = plain
                        .tags
                        .iter()
                        .filter(|tag| generated.mapping.contains_key(*tag))
                        .collect();
                    let pin = |tags: &[&String]| {
                        Feedback::from_corrections(
                            tags.iter()
                                .map(|&tag| Correction::tag_is(tag, &generated.mapping[tag]))
                                .collect(),
                        )
                    };
                    let variants = [
                        ("plain", Feedback::new()),
                        ("first-two", pin(&mapped[..2.min(mapped.len())])),
                        ("last-two", pin(&mapped[mapped.len().saturating_sub(2)..])),
                    ];
                    for (variant, feedback) in variants {
                        let outcome = lsd.match_source_with(&source, &feedback).expect("matches");
                        let key = format!("{prefix}/{}/{variant}", generated.name);
                        insert_bodies(&mut digests, &key, &outcome);
                    }
                    for (variant, source) in schemaless(generated) {
                        let outcome = lsd.match_source(&source).expect("matches");
                        let key = format!("{prefix}/{}/{variant}", generated.name);
                        insert_bodies(&mut digests, &key, &outcome);
                    }
                }
            }
        }
    }
    digests
}

fn render(digests: &BTreeMap<String, String>) -> String {
    let doc = serde_json::Value::Map(
        digests
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::Str(v.clone())))
            .collect(),
    );
    serde_json::to_string_pretty(&doc).expect("serializes") + "\n"
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode sweep")]
fn served_bytes_match_the_committed_digest() {
    let text = std::fs::read_to_string(digest_path()).expect("benchmarks/SERVED_DIGEST.json");
    let committed: serde_json::Value = serde_json::from_str(&text).expect("parses");
    let serde_json::Value::Map(entries) = committed else {
        panic!("SERVED_DIGEST.json is not an object");
    };
    let committed: BTreeMap<String, String> = entries
        .into_iter()
        .map(|(k, v)| match v {
            serde_json::Value::Str(hash) => (k, hash),
            other => panic!("{k}: expected a hash string, found {other:?}"),
        })
        .collect();
    let fresh = sweep();
    let differing: Vec<&String> = committed
        .keys()
        .chain(fresh.keys())
        .filter(|k| committed.get(*k) != fresh.get(*k))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert!(
        differing.is_empty(),
        "{} of {} digests differ from benchmarks/SERVED_DIGEST.json: {differing:?}",
        differing.len(),
        fresh.len().max(committed.len())
    );
}

#[test]
#[ignore = "writes benchmarks/SERVED_DIGEST.json"]
fn regenerate() {
    std::fs::write(digest_path(), render(&sweep())).expect("writes the digest");
}

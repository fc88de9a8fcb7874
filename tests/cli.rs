//! The `lsd` binary end to end: `generate` writes a workspace, `train`
//! saves a model from three of its sources, and `match` labels a held-out
//! one. The CLI must build the same system as the experiments do
//! (`lsd_bench::build_lsd` with `Setup::FULL`) and print that system's
//! mapping.

use lsd::core::{LsdConfig, SavedModel, Source, TrainedSource};
use lsd::datagen::DomainId;
use lsd::xml::{parse_document, parse_dtd};
use lsd_bench::{build_lsd, Setup};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `lsd` with `args`, requiring success, and returns its stdout.
fn lsd(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lsd"))
        .args(args)
        .output()
        .expect("runs the lsd binary");
    assert!(
        out.status.success(),
        "lsd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A source directory as the CLI reads it: `source.dtd`, the listings
/// under the root of `listings.xml`, and `mapping.tsv`.
fn read_back(dir: &Path) -> TrainedSource {
    let dtd = parse_dtd(&read(&dir.join("source.dtd"))).expect("source DTD");
    let doc = parse_document(&read(&dir.join("listings.xml"))).expect("listings");
    let name = dir.file_name().expect("named").to_string_lossy();
    let source = Source::from_xml(name, dtd, doc.root.child_elements().cloned().collect());
    let mapping: HashMap<String, String> = read(&dir.join("mapping.tsv"))
        .lines()
        .map(|line| {
            let (tag, label) = line.split_once('\t').expect("tag<TAB>label");
            (tag.to_string(), label.to_string())
        })
        .collect();
    TrainedSource { source, mapping }
}

fn kinds(saved: &SavedModel) -> Vec<&'static str> {
    saved.learners.iter().map(|l| l.kind()).collect()
}

#[test]
fn train_builds_the_paper_system_and_match_prints_its_mapping() {
    let dir: PathBuf = std::env::temp_dir().join(format!("lsd-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let at = |name: &str| dir.join(name).to_string_lossy().into_owned();
    lsd(&[
        "generate",
        "--domain",
        "re2",
        "--listings",
        "12",
        "--out",
        &at(""),
    ]);

    let domain = DomainId::RealEstate2.generate(12, 0);
    let names: Vec<&str> = domain.sources.iter().map(|s| s.name.as_str()).collect();
    let (model, held_out) = (at("model.json"), at(names[3]));
    let sources = [at(names[0]), at(names[1]), at(names[2])];
    let mediated = at("mediated.dtd");
    let (constraints, synonyms) = (at("constraints.json"), at("synonyms.tsv"));
    lsd(&[
        "train",
        "--mediated",
        &mediated,
        "--source",
        &sources[0],
        "--source",
        &sources[1],
        "--source",
        &sources[2],
        "--constraints",
        &constraints,
        "--synonyms",
        &synonyms,
        "--model",
        &model,
    ]);
    let printed = lsd(&["match", "--model", &model, "--source", &held_out]);

    // The same learners as the experiments' complete system.
    let mut reference = build_lsd(&domain, Setup::FULL, LsdConfig::default());
    let saved = SavedModel::from_json_str(&read(Path::new(&model))).expect("loads");
    assert_eq!(
        kinds(&saved),
        kinds(&reference.to_saved().expect("snapshots"))
    );
    assert_eq!(
        kinds(&saved),
        ["Name", "Content", "NaiveBayes", "CountyRecognizer", "Xml"]
    );

    // The same mapping, trained on the sources the CLI read.
    let training: Vec<TrainedSource> = sources.iter().map(|s| read_back(Path::new(s))).collect();
    reference.train(&training).expect("trains");
    let outcome = reference
        .match_source(&read_back(Path::new(&held_out)).source)
        .expect("matches");
    let want: Vec<(String, String)> = outcome
        .tags
        .iter()
        .cloned()
        .zip(outcome.labels.iter().cloned())
        .collect();
    let got: Vec<(String, String)> = printed
        .lines()
        .skip(1)
        .map(|line| {
            let (tag, rest) = line.split_once(" => ").expect("tag => LABEL");
            let label = rest.split_whitespace().next().expect("a label");
            (tag.trim().to_string(), label.to_string())
        })
        .collect();
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).ok();
}

//! Warm-start retraining (`Lsd::train_incremental`) against the ground
//! truth of a full retrain: on an equivalent example set, both paths must
//! produce the *same model*, byte for byte — the property the serve-side
//! retrain worker's correctness rests on.
//!
//! The systems are built as served, with `LsdConfig::default()`: learners
//! combine with equal weights, so there is nothing the incremental path
//! could leave stale. Listing counts stay below the per-tag subsampling cap
//! so neither path draws from the RNG.

use lsd::core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher, StatsLearner};
use lsd::core::{Lsd, LsdBuilder, LsdConfig, LsdError, Source, TrainedSource};
use lsd::datagen::DomainId;

fn to_source(gs: &lsd::datagen::GeneratedSource) -> Source {
    Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone())
}

fn trained_sources(
    domain: &lsd::datagen::GeneratedDomain,
    indices: &[usize],
) -> Vec<TrainedSource> {
    indices
        .iter()
        .map(|&i| TrainedSource {
            source: to_source(&domain.sources[i]),
            mapping: domain.sources[i].mapping.clone(),
        })
        .collect()
}

fn build(domain: &lsd::datagen::GeneratedDomain) -> Lsd {
    let builder = LsdBuilder::new(&domain.mediated).with_config(LsdConfig::default());
    let n = builder.labels().len();
    let pairs: Vec<(&str, &str)> = domain
        .synonyms
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    builder
        .add_learner(Box::new(NameMatcher::with_synonym_pairs(n, pairs)))
        .add_learner(Box::new(ContentMatcher::new(n)))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .add_learner(Box::new(StatsLearner::new(n)))
        .with_xml_learner(None)
        .with_constraints(domain.constraints.clone())
        .build()
        .unwrap()
}

fn snapshot_json(lsd: &Lsd) -> String {
    serde_json::to_string(&lsd.to_saved().expect("snapshots")).expect("serializes")
}

/// The acceptance property: warm-start == full retrain, byte for byte.
#[test]
fn warm_start_retrain_equals_full_retrain() {
    // 20 listings/source stays far below the 40-instance subsampling cap.
    let domain = DomainId::RealEstate1.generate(20, 7);

    let mut full = build(&domain);
    full.train(&trained_sources(&domain, &[0, 1, 2])).unwrap();

    let mut warm = build(&domain);
    warm.train(&trained_sources(&domain, &[0, 1])).unwrap();
    warm.train_incremental(&trained_sources(&domain, &[2]))
        .unwrap();

    assert_eq!(
        snapshot_json(&full),
        snapshot_json(&warm),
        "incremental training must be indistinguishable from retraining \
         on the concatenated source list"
    );
}

/// The equality must also hold through a save/load cycle — the serve
/// retrain worker warm-trains a model that was round-tripped through a
/// JSON snapshot, not a freshly trained one.
#[test]
fn warm_start_after_snapshot_roundtrip_equals_full_retrain() {
    let domain = DomainId::TimeSchedule.generate(15, 21);

    let mut full = build(&domain);
    full.train(&trained_sources(&domain, &[0, 1, 2])).unwrap();

    let mut base = build(&domain);
    base.train(&trained_sources(&domain, &[0, 1])).unwrap();
    let mut reloaded = Lsd::from_saved(
        lsd::core::SavedModel::from_json_str(&snapshot_json(&base)).expect("parses"),
    );
    reloaded
        .train_incremental(&trained_sources(&domain, &[2]))
        .unwrap();

    assert_eq!(
        snapshot_json(&full),
        snapshot_json(&reloaded),
        "a snapshot round-trip must not perturb warm-start training"
    );
}

/// Matching behaviour, not just serialized state: both paths label unseen
/// sources identically.
#[test]
fn warm_start_and_full_retrain_match_identically() {
    let domain = DomainId::FacultyListings.generate(20, 3);

    let mut full = build(&domain);
    full.train(&trained_sources(&domain, &[0, 1, 2])).unwrap();

    let mut warm = build(&domain);
    warm.train(&trained_sources(&domain, &[0])).unwrap();
    warm.train_incremental(&trained_sources(&domain, &[1]))
        .unwrap();
    warm.train_incremental(&trained_sources(&domain, &[2]))
        .unwrap();

    for gs in &domain.sources[3..] {
        let a = full.match_source(&to_source(gs)).unwrap();
        let b = warm.match_source(&to_source(gs)).unwrap();
        assert_eq!(a.labels, b.labels, "{} diverged", gs.name);
    }
}

/// Guard rails: warm-starting an untrained system is refused with the
/// typed error, not a panic or silent full train.
#[test]
fn train_incremental_requires_a_trained_system() {
    let domain = DomainId::RealEstate1.generate(10, 1);
    let mut lsd = build(&domain);
    let err = lsd
        .train_incremental(&trained_sources(&domain, &[0]))
        .unwrap_err();
    assert!(
        matches!(err, LsdError::NotTrained { .. }),
        "got {err:?} instead"
    );
}

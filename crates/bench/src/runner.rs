//! Shared experiment machinery: system construction, splits, accuracy.

use lsd_core::feedback::simulate_feedback_session;
use lsd_core::learners::{
    county_name_recognizer, ContentMatcher, FormatLearner, NaiveBayesLearner, NameMatcher,
};
use lsd_core::{Lsd, LsdBuilder, LsdConfig, MatchOutcome, Source, TrainedSource};
use lsd_datagen::{DomainId, GeneratedDomain, GeneratedSource};
use lsd_learn::{metrics, ExecPolicy};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which base learners a configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LearnerSet {
    /// The WHIRL name matcher.
    pub name_matcher: bool,
    /// The WHIRL content matcher.
    pub content_matcher: bool,
    /// The Naive Bayes learner.
    pub naive_bayes: bool,
    /// The county-name recognizer (only effective in domains with a
    /// COUNTY label).
    pub county_recognizer: bool,
    /// The Section-7 format learner (extension; off in paper configs).
    pub format_learner: bool,
}

impl LearnerSet {
    /// The paper's base-learner suite (Section 3.3).
    pub const PAPER: LearnerSet = LearnerSet {
        name_matcher: true,
        content_matcher: true,
        naive_bayes: true,
        county_recognizer: true,
        format_learner: false,
    };

    /// Exactly one learner enabled.
    pub fn only(name: &str) -> LearnerSet {
        let mut set = LearnerSet {
            name_matcher: false,
            content_matcher: false,
            naive_bayes: false,
            county_recognizer: false,
            format_learner: false,
        };
        match name {
            "name-matcher" => set.name_matcher = true,
            "content-matcher" => set.content_matcher = true,
            "naive-bayes" => set.naive_bayes = true,
            "county-recognizer" => set.county_recognizer = true,
            "format-learner" => set.format_learner = true,
            other => panic!("unknown learner {other}"),
        }
        set
    }

    /// The paper suite minus one learner (Figure 9a lesions).
    pub fn without(name: &str) -> LearnerSet {
        let mut set = LearnerSet::PAPER;
        match name {
            "name-matcher" => set.name_matcher = false,
            "content-matcher" => set.content_matcher = false,
            "naive-bayes" => set.naive_bayes = false,
            "county-recognizer" => set.county_recognizer = false,
            other => panic!("unknown learner {other}"),
        }
        set
    }
}

/// Which domain constraints the constraint handler gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintMode {
    /// No constraints — the handler degenerates to per-tag argmax.
    None,
    /// Only constraints verifiable from the schema (Figure 9b
    /// "schema information only").
    SchemaOnly,
    /// Only constraints that need source data (Figure 9b "data instances
    /// only").
    DataOnly,
    /// Everything.
    All,
}

/// A full system configuration.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Base learners.
    pub learners: LearnerSet,
    /// Include the XML learner (Section 5)?
    pub xml_learner: bool,
    /// Constraint subset.
    pub constraints: ConstraintMode,
}

impl Setup {
    /// The complete LSD system (Figure 8a, rightmost bar).
    pub const FULL: Setup = Setup {
        learners: LearnerSet::PAPER,
        xml_learner: true,
        constraints: ConstraintMode::All,
    };
}

/// Experiment-wide parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Listings sampled per source (paper headline: 300).
    pub listings: usize,
    /// Independent trials, each with freshly generated data (paper: 3).
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pipeline tunables.
    pub lsd: LsdConfig,
    /// How test sources are fanned out by the batch-matching engine.
    pub exec: ExecPolicy,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            listings: 300,
            trials: 3,
            seed: 0,
            lsd: LsdConfig::default(),
            exec: ExecPolicy::default(),
        }
    }
}

impl ExperimentParams {
    /// Reads overrides from the environment: `LSD_TRIALS`, `LSD_LISTINGS`,
    /// `LSD_SEED`, `LSD_THREADS` (0 = one worker per CPU) — so the harness
    /// binaries can be scaled down for smoke runs without code changes.
    pub fn from_env() -> Self {
        let mut p = ExperimentParams::default();
        if let Ok(v) = std::env::var("LSD_TRIALS") {
            p.trials = v.parse().expect("LSD_TRIALS must be an integer");
        }
        if let Ok(v) = std::env::var("LSD_LISTINGS") {
            p.listings = v.parse().expect("LSD_LISTINGS must be an integer");
        }
        if let Ok(v) = std::env::var("LSD_SEED") {
            p.seed = v.parse().expect("LSD_SEED must be an integer");
        }
        if let Ok(v) = std::env::var("LSD_THREADS") {
            p.exec.threads = v.parse().expect("LSD_THREADS must be an integer");
        }
        p
    }
}

/// Converts a generated source into the core crate's source type.
pub fn to_sources(gs: &GeneratedSource) -> Source {
    Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone())
}

/// Builds an LSD system for a configuration over a generated domain.
pub fn build_lsd(domain: &GeneratedDomain, setup: Setup, config: LsdConfig) -> Lsd {
    let mut builder = LsdBuilder::new(&domain.mediated).with_config(config);
    let n = builder.labels().len();

    if setup.learners.name_matcher {
        let pairs: Vec<(&str, &str)> = domain
            .synonyms
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        builder = builder.add_learner(Box::new(NameMatcher::with_synonym_pairs(n, pairs)));
    }
    if setup.learners.content_matcher {
        builder = builder.add_learner(Box::new(ContentMatcher::new(n)));
    }
    if setup.learners.naive_bayes {
        builder = builder.add_learner(Box::new(NaiveBayesLearner::new(n)));
    }
    if setup.learners.county_recognizer {
        if let Some(county) = builder.labels().get("COUNTY") {
            builder = builder.add_learner(Box::new(county_name_recognizer(n, county)));
        }
    }
    if setup.learners.format_learner {
        builder = builder.add_learner(Box::new(FormatLearner::new(n)));
    }
    if setup.xml_learner {
        builder = builder.with_xml_learner(None);
    }

    let constraints = match setup.constraints {
        ConstraintMode::None => Vec::new(),
        ConstraintMode::SchemaOnly => domain
            .constraints
            .iter()
            .filter(|c| !c.predicate.uses_data())
            .cloned()
            .collect(),
        ConstraintMode::DataOnly => domain
            .constraints
            .iter()
            .filter(|c| c.predicate.uses_data())
            .cloned()
            .collect(),
        ConstraintMode::All => domain.constraints.clone(),
    };
    builder
        .with_constraints(constraints)
        .build()
        .expect("bench setups include learners")
}

/// Matching accuracy for one source (Section 6): the fraction of
/// *matchable* tags (those with a ground-truth mapping) that LSD labelled
/// correctly.
pub fn accuracy_of(lsd: &Lsd, gs: &GeneratedSource) -> f64 {
    let outcome = lsd
        .match_source(&to_sources(gs))
        .expect("bench sources are well-formed");
    accuracy_of_outcome(&outcome, gs)
}

/// [`accuracy_of`] over an already-computed outcome (e.g. one slot of a
/// [`Lsd::match_batch`] result).
pub fn accuracy_of_outcome(outcome: &MatchOutcome, gs: &GeneratedSource) -> f64 {
    let pairs: Vec<usize> = gs
        .mapping
        .iter()
        .filter_map(|(tag, label)| {
            outcome
                .label_of(tag)
                .map(|p| usize::from(p == label.as_str()))
        })
        .collect();
    let truth_ones = vec![1usize; pairs.len()];
    metrics::matching_accuracy(&pairs, &truth_ones).unwrap_or(0.0)
}

/// One split's observability record for the `metrics.json` exporter.
#[derive(Debug, serde::Serialize)]
pub struct SplitMetrics {
    /// Domain name.
    pub domain: String,
    /// Training source indices.
    pub train: Vec<usize>,
    /// Test source indices.
    pub test: Vec<usize>,
    /// Matching accuracy over the split's test sources (percent).
    pub accuracy: f64,
    /// Everything the training run recorded.
    pub train_report: lsd_core::TrainReport,
    /// Everything the batch match recorded: per-stage span timings, A\*
    /// counters, constraint evaluations, per-learner predict wall time.
    pub match_report: lsd_core::MatchReport,
}

/// Runs the FULL configuration over every C(5,3) = 10 split of `id`'s
/// domain with observability on: one trial, train + batch-match per split,
/// each wrapped in an `lsd_obs` collection. This is the data source for the
/// per-run `metrics.json` written next to `experiment_results.json`.
pub fn collect_split_metrics(id: DomainId, params: &ExperimentParams) -> Vec<SplitMetrics> {
    let domain = id.generate(params.listings, params.seed);
    let mut records = Vec::new();
    for (train, test) in all_splits() {
        let training: Vec<TrainedSource> = train
            .iter()
            .map(|&i| TrainedSource {
                source: to_sources(&domain.sources[i]),
                mapping: domain.sources[i].mapping.clone(),
            })
            .collect();
        let mut lsd = build_lsd(&domain, Setup::FULL, params.lsd);
        let train_report = lsd
            .train_with_report(&training)
            .expect("bench training sources have listings");
        let batch: Vec<Source> = test
            .iter()
            .map(|&t| to_sources(&domain.sources[t]))
            .collect();
        let (outcomes, match_report) = lsd
            .match_batch_with_report(&batch, &params.exec)
            .expect("bench sources are well-formed");
        let accuracy = 100.0
            * test
                .iter()
                .zip(&outcomes)
                .map(|(&t, o)| accuracy_of_outcome(o, &domain.sources[t]))
                .sum::<f64>()
            / test.len() as f64;
        records.push(SplitMetrics {
            domain: id.name().to_string(),
            train,
            test,
            accuracy,
            train_report,
            match_report,
        });
    }
    records
}

/// All C(5,3) = 10 train/test splits over five sources, as
/// `(train_indices, test_indices)` pairs.
pub fn all_splits() -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut splits = Vec::new();
    for a in 0..5 {
        for b in a + 1..5 {
            for c in b + 1..5 {
                let train = vec![a, b, c];
                let test: Vec<usize> = (0..5).filter(|i| !train.contains(i)).collect();
                splits.push((train, test));
            }
        }
    }
    splits
}

/// Per-domain accuracy summary for one configuration.
#[derive(Debug, Clone)]
pub struct DomainAccuracy {
    /// Mean matching accuracy over all trials × splits × test sources, in
    /// percent.
    pub mean: f64,
    /// Sample standard deviation over the same population, in percent.
    pub std_dev: f64,
    /// Number of (trial, split, test source) measurements.
    pub samples: usize,
    /// How many of those matches found no feasible mapping, so the
    /// constraint handler fell back to the per-tag argmax.
    pub infeasible: usize,
}

impl DomainAccuracy {
    fn from_samples(samples: &[f64], infeasible: usize) -> Self {
        DomainAccuracy {
            mean: metrics::mean(samples).unwrap_or(0.0),
            std_dev: metrics::std_dev(samples),
            samples: samples.len(),
            infeasible,
        }
    }
}

/// A named system configuration for the experiment matrix. Configurations
/// that share a trained system (differing only in what the constraint
/// handler knows) are trained once per split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// One base learner by itself (no constraints).
    Single(&'static str),
    /// All base learners combined with equal weights (no constraints, no
    /// XML learner).
    Meta,
    /// [`Config::Meta`] + constraint handler.
    MetaConstraints,
    /// The complete system: + XML learner (Figure 8a rightmost bar).
    Full,
    /// Complete system with the constraint handler's knowledge removed
    /// (Figure 9a "LSD without Constraint Handler").
    NoHandler,
    /// Complete system minus one base learner (Figure 9a lesions).
    Lesion(&'static str),
    /// Name matcher + schema-related constraints only (Figure 9b).
    SchemaOnly,
    /// Content-based learners + XML learner + data-related constraints
    /// only (Figure 9b).
    DataOnly,
}

impl Config {
    /// Human-readable label for tables.
    pub fn label(self) -> String {
        match self {
            Config::Single(l) => format!("single:{l}"),
            Config::Meta => "base+meta".into(),
            Config::MetaConstraints => "base+meta+constraints".into(),
            Config::Full => "complete LSD".into(),
            Config::NoHandler => "without constraint handler".into(),
            Config::Lesion(l) => format!("without {l}"),
            Config::SchemaOnly => "schema info only".into(),
            Config::DataOnly => "data instances only".into(),
        }
    }

    /// The training identity (what must be trained) and the constraint
    /// subset applied at match time.
    fn plan(self) -> (TrainKey, ConstraintMode) {
        match self {
            Config::Single(l) => (
                TrainKey {
                    learners: LearnerSet::only(l),
                    xml: false,
                },
                ConstraintMode::None,
            ),
            Config::Meta => (
                TrainKey {
                    learners: LearnerSet::PAPER,
                    xml: false,
                },
                ConstraintMode::None,
            ),
            Config::MetaConstraints => (
                TrainKey {
                    learners: LearnerSet::PAPER,
                    xml: false,
                },
                ConstraintMode::All,
            ),
            Config::Full => (
                TrainKey {
                    learners: LearnerSet::PAPER,
                    xml: true,
                },
                ConstraintMode::All,
            ),
            Config::NoHandler => (
                TrainKey {
                    learners: LearnerSet::PAPER,
                    xml: true,
                },
                ConstraintMode::None,
            ),
            Config::Lesion(l) => (
                TrainKey {
                    learners: LearnerSet::without(l),
                    xml: true,
                },
                ConstraintMode::All,
            ),
            Config::SchemaOnly => (
                TrainKey {
                    learners: LearnerSet {
                        name_matcher: true,
                        content_matcher: false,
                        naive_bayes: false,
                        county_recognizer: false,
                        format_learner: false,
                    },
                    xml: false,
                },
                ConstraintMode::SchemaOnly,
            ),
            Config::DataOnly => (
                TrainKey {
                    learners: LearnerSet {
                        name_matcher: false,
                        content_matcher: true,
                        naive_bayes: true,
                        county_recognizer: true,
                        format_learner: false,
                    },
                    xml: true,
                },
                ConstraintMode::DataOnly,
            ),
        }
    }
}

/// What uniquely identifies a trained system within one split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TrainKey {
    learners: LearnerSet,
    xml: bool,
}

/// Runs a whole configuration matrix for one domain, sharing trained
/// systems between configurations within each (trial, split). Returns one
/// [`DomainAccuracy`] per input configuration, in order.
pub fn run_matrix(
    domain_id: lsd_datagen::DomainId,
    configs: &[Config],
    params: &ExperimentParams,
) -> Vec<DomainAccuracy> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut infeasible = vec![0usize; configs.len()];
    for trial in 0..params.trials {
        let seed = params
            .seed
            .wrapping_add(trial as u64)
            .wrapping_mul(0x0100_0000_01B3);
        let domain = domain_id.generate(params.listings, seed);
        for (train, test) in all_splits() {
            let training: Vec<TrainedSource> = train
                .iter()
                .map(|&i| TrainedSource {
                    source: to_sources(&domain.sources[i]),
                    mapping: domain.sources[i].mapping.clone(),
                })
                .collect();
            let mut cache: std::collections::HashMap<TrainKey, Lsd> =
                std::collections::HashMap::new();
            for (ci, config) in configs.iter().enumerate() {
                let (key, mode) = config.plan();
                cache.entry(key).or_insert_with(|| {
                    let setup = Setup {
                        learners: key.learners,
                        xml_learner: key.xml,
                        constraints: ConstraintMode::None, // set per eval below
                    };
                    let mut lsd = build_lsd(&domain, setup, params.lsd);
                    lsd.train(&training)
                        .expect("bench training sources have listings");
                    lsd
                });
                let lsd = cache.get_mut(&key).expect("just inserted");
                lsd.set_constraints(constraints_for(&domain, mode))
                    .expect("generated constraints name mediated labels");
                // Fan the split's test sources over the batch engine.
                let batch: Vec<Source> = test
                    .iter()
                    .map(|&t| to_sources(&domain.sources[t]))
                    .collect();
                let outcomes = lsd
                    .match_batch(&batch, &params.exec)
                    .expect("bench sources are well-formed");
                for (&t, outcome) in test.iter().zip(&outcomes) {
                    samples[ci].push(100.0 * accuracy_of_outcome(outcome, &domain.sources[t]));
                    infeasible[ci] += usize::from(!outcome.result.feasible);
                }
            }
        }
    }
    samples
        .iter()
        .zip(infeasible)
        .map(|(s, n)| DomainAccuracy::from_samples(s, n))
        .collect()
}

/// The base learners Figure 8a runs on their own.
pub const FIG8A_SINGLES: [&str; 3] = ["name-matcher", "content-matcher", "naive-bayes"];

/// Figure 8a's configurations, in the order of its bars: the three single
/// base learners of [`FIG8A_SINGLES`], then their combination, the
/// constraint handler and the XML learner added in turn.
pub const FIG8A_CONFIGS: [Config; 6] = [
    Config::Single(FIG8A_SINGLES[0]),
    Config::Single(FIG8A_SINGLES[1]),
    Config::Single(FIG8A_SINGLES[2]),
    Config::Meta,
    Config::MetaConstraints,
    Config::Full,
];

/// The domains of Section 6.3's feedback study.
pub const FEEDBACK_DOMAINS: [DomainId; 2] = [DomainId::TimeSchedule, DomainId::RealEstate2];

/// One simulated feedback session of Section 6.3.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackRun {
    /// Tags in the held-out source's schema.
    pub tags: usize,
    /// Corrections the simulated user made.
    pub corrections: usize,
    /// True if the session ended with a perfect matching.
    pub converged: bool,
}

/// Section 6.3's three feedback sessions for `id`: each run generates the
/// domain afresh, trains the complete system on three random sources and
/// corrects its matching of a fourth until it is perfect.
pub fn feedback_runs(id: DomainId, params: &ExperimentParams) -> Vec<FeedbackRun> {
    (0..3u64)
        .map(|run| {
            let seed = params.seed.wrapping_add(run).wrapping_mul(0x9E37_79B9);
            let domain = id.generate(params.listings, seed);
            let mut order: Vec<usize> = (0..5).collect();
            order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
            let (test, train) = (order[0], &order[1..4]);
            let mut lsd = build_lsd(&domain, Setup::FULL, params.lsd);
            let training: Vec<TrainedSource> = train
                .iter()
                .map(|&i| TrainedSource {
                    source: to_sources(&domain.sources[i]),
                    mapping: domain.sources[i].mapping.clone(),
                })
                .collect();
            lsd.train(&training)
                .expect("training sources have listings");
            let gs = &domain.sources[test];
            let outcome = simulate_feedback_session(&lsd, &to_sources(gs), &gs.mapping)
                .expect("bench sources are well-formed");
            FeedbackRun {
                tags: gs.dtd.len(),
                corrections: outcome.corrections.len(),
                converged: outcome.converged,
            }
        })
        .collect()
}

/// The constraint subset for a mode.
pub fn constraints_for(
    domain: &GeneratedDomain,
    mode: ConstraintMode,
) -> Vec<lsd_core::DomainConstraint> {
    match mode {
        ConstraintMode::None => Vec::new(),
        ConstraintMode::SchemaOnly => domain
            .constraints
            .iter()
            .filter(|c| !c.predicate.uses_data())
            .cloned()
            .collect(),
        ConstraintMode::DataOnly => domain
            .constraints
            .iter()
            .filter(|c| c.predicate.uses_data())
            .cloned()
            .collect(),
        ConstraintMode::All => domain.constraints.clone(),
    }
}

/// `"Real Estate I"` → `"real-estate-1"`: lowercase, dash-separated, with
/// the paper's trailing roman numeral turned into a digit. Shared by every
/// binary that takes `--domain`.
pub fn domain_slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    let trimmed = out.trim_matches('-');
    if let Some(base) = trimmed.strip_suffix("-ii") {
        return format!("{base}-2");
    }
    if let Some(base) = trimmed.strip_suffix("-i") {
        return format!("{base}-1");
    }
    trimmed.to_string()
}

/// Resolves a `--domain` argument by slug (`"real-estate-1"`) or the
/// paper's display name (`"Real Estate I"`), case-insensitively.
pub fn resolve_domain(name: &str) -> Option<DomainId> {
    DomainId::ALL
        .into_iter()
        .find(|d| domain_slug(d.name()) == domain_slug(name))
}

/// Generates `id` and trains the FULL configuration on its first three
/// sources — the model the serving binaries snapshot, load, and compare
/// batched results against.
pub fn train_full_model(id: DomainId, params: &ExperimentParams) -> (GeneratedDomain, Lsd) {
    let domain = id.generate(params.listings, params.seed);
    let training: Vec<TrainedSource> = (0..3)
        .map(|i| TrainedSource {
            source: to_sources(&domain.sources[i]),
            mapping: domain.sources[i].mapping.clone(),
        })
        .collect();
    let mut lsd = build_lsd(&domain, Setup::FULL, params.lsd);
    lsd.train(&training)
        .expect("generated sources have listings");
    (domain, lsd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_datagen::DomainId;

    #[test]
    fn splits_enumerate_all_triples() {
        let splits = all_splits();
        assert_eq!(splits.len(), 10);
        for (train, test) in &splits {
            assert_eq!(train.len(), 3);
            assert_eq!(test.len(), 2);
            let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn learner_set_constructors() {
        let only_nb = LearnerSet::only("naive-bayes");
        assert!(only_nb.naive_bayes && !only_nb.name_matcher);
        let lesion = LearnerSet::without("naive-bayes");
        assert!(!lesion.naive_bayes && lesion.name_matcher && lesion.content_matcher);
    }

    #[test]
    fn full_pipeline_beats_chance_on_tiny_run() {
        // A minimal end-to-end smoke: 1 trial, few listings, one split.
        let domain = DomainId::FacultyListings.generate(12, 3);
        let mut lsd = build_lsd(&domain, Setup::FULL, lsd_core::LsdConfig::default());
        let training: Vec<TrainedSource> = (0..3)
            .map(|i| TrainedSource {
                source: to_sources(&domain.sources[i]),
                mapping: domain.sources[i].mapping.clone(),
            })
            .collect();
        lsd.train(&training).unwrap();
        let acc = accuracy_of(&lsd, &domain.sources[3]);
        // 14 labels + OTHER → chance ≈ 7%; the system must do far better.
        assert!(acc > 0.4, "accuracy {acc}");
    }

    #[test]
    fn domain_names_resolve_by_slug_and_display_name() {
        assert_eq!(domain_slug("Real Estate I"), "real-estate-1");
        assert_eq!(domain_slug("Real Estate II"), "real-estate-2");
        assert_eq!(
            resolve_domain("Real Estate I"),
            resolve_domain("real-estate-1")
        );
        assert!(resolve_domain("real-estate-1").is_some());
        assert!(resolve_domain("no-such-domain").is_none());
    }

    #[test]
    fn constraint_modes_partition() {
        let domain = DomainId::RealEstate2.generate(2, 1);
        let schema_only = domain
            .constraints
            .iter()
            .filter(|c| !c.predicate.uses_data())
            .count();
        let data_only = domain
            .constraints
            .iter()
            .filter(|c| c.predicate.uses_data())
            .count();
        assert_eq!(schema_only + data_only, domain.constraints.len());
        assert!(schema_only > 0);
        assert!(data_only > 0);
    }
}

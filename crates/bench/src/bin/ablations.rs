//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. A\* vs beam search vs greedy in the constraint handler (accuracy and
//!    wall-clock);
//! 2. WHIRL neighbour combination (noisy-or vs max vs mean);
//! 3. Naive Bayes smoothing strength;
//! 4. XML-learner structure tokens (text-only vs +node vs +node+edge).
//!
//! Run with `cargo run --release -p lsd-bench --bin ablations`.
//! Env overrides: `LSD_TRIALS` (default 1 here), `LSD_LISTINGS` (default
//! 120), `LSD_SEED`.

use lsd_bench::{accuracy_of, all_splits, to_sources, ExperimentParams};
use lsd_core::learners::{
    BaseLearner, ContentMatcher, NaiveBayesLearner, NameMatcher, XmlLearner, XmlTokenKinds,
};
use lsd_core::{Lsd, LsdBuilder, LsdConfig, SearchAlgorithm, SearchConfig, TrainedSource};
use lsd_datagen::{DomainId, GeneratedDomain};
use lsd_learn::NaiveBayesConfig;
use lsd_text::{NeighborCombination, WhirlConfig};
use std::time::Instant;

/// Builds the paper's learner suite with per-component overrides.
struct Variant {
    label: &'static str,
    whirl: Option<NeighborCombination>,
    nb_smoothing: Option<f64>,
    xml_tokens: Option<XmlTokenKinds>,
    search: Option<SearchConfig>,
}

impl Variant {
    fn baseline(label: &'static str) -> Self {
        Variant {
            label,
            whirl: None,
            nb_smoothing: None,
            xml_tokens: None,
            search: None,
        }
    }

    fn build(&self, domain: &GeneratedDomain, base: LsdConfig) -> Lsd {
        let mut config = base;
        if let Some(s) = self.search {
            config.search = s;
        }
        let builder = LsdBuilder::new(&domain.mediated).with_config(config);
        let n = builder.labels().len();
        let pairs: Vec<(&str, &str)> = domain
            .synonyms
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let content: Box<dyn BaseLearner> = match self.whirl {
            Some(combination) => Box::new(ContentMatcher::with_config(
                n,
                WhirlConfig {
                    combination,
                    ..WhirlConfig::default()
                },
            )),
            None => Box::new(ContentMatcher::new(n)),
        };
        let nb: Box<dyn BaseLearner> = match self.nb_smoothing {
            Some(smoothing) => Box::new(NaiveBayesLearner::with_config(
                n,
                NaiveBayesConfig { smoothing },
            )),
            None => Box::new(NaiveBayesLearner::new(n)),
        };
        let xml = XmlLearner::with_token_kinds(n, self.xml_tokens.unwrap_or_default());
        builder
            .add_learner(Box::new(NameMatcher::with_synonym_pairs(n, pairs)))
            .add_learner(content)
            .add_learner(nb)
            .with_xml_learner(xml)
            .with_constraints(domain.constraints.clone())
            .build()
            .expect("ablation setups include learners")
    }
}

/// Mean accuracy (%) and mean per-source match time over trials × splits.
fn run(variant: &Variant, ids: &[DomainId], params: &ExperimentParams) -> (f64, f64) {
    let mut accs = Vec::new();
    let mut match_seconds = Vec::new();
    for &id in ids {
        for trial in 0..params.trials {
            let seed = params
                .seed
                .wrapping_add(trial as u64)
                .wrapping_mul(0x100_0000_01B3);
            let domain = id.generate(params.listings, seed);
            for (train, test) in all_splits() {
                let mut lsd = variant.build(&domain, params.lsd);
                let training: Vec<TrainedSource> = train
                    .iter()
                    .map(|&i| TrainedSource {
                        source: to_sources(&domain.sources[i]),
                        mapping: domain.sources[i].mapping.clone(),
                    })
                    .collect();
                lsd.train(&training)
                    .expect("training sources have listings");
                for &t in &test {
                    let started = Instant::now();
                    accs.push(100.0 * accuracy_of(&lsd, &domain.sources[t]));
                    match_seconds.push(started.elapsed().as_secs_f64());
                }
            }
        }
    }
    (
        accs.iter().sum::<f64>() / accs.len() as f64,
        match_seconds.iter().sum::<f64>() / match_seconds.len() as f64,
    )
}

fn main() {
    let mut params = ExperimentParams::from_env();
    if std::env::var("LSD_TRIALS").is_err() {
        params.trials = 1;
    }
    if std::env::var("LSD_LISTINGS").is_err() {
        params.listings = 120;
    }
    // One small and one large domain keep the suite representative but fast.
    let ids = [DomainId::RealEstate1, DomainId::RealEstate2];
    println!(
        "Ablation studies ({} trials, {} listings, domains: Real Estate I & II)\n",
        params.trials, params.listings
    );
    println!("{:<44} {:>8} {:>12}", "variant", "acc(%)", "match(s)");
    println!("{}", "-".repeat(68));

    let section = |title: &str, variants: Vec<Variant>| {
        println!("[{title}]");
        for v in variants {
            let (acc, secs) = run(&v, &ids, &params);
            println!("{:<44} {:>8.1} {:>12.3}", v.label, acc, secs);
        }
    };

    section(
        "constraint-handler search",
        vec![
            Variant {
                search: Some(SearchConfig {
                    algorithm: SearchAlgorithm::AStar {
                        max_expansions: 20_000,
                    },
                    heuristic_weight: 1.0,
                }),
                ..Variant::baseline("A* admissible (e=1.0)")
            },
            Variant::baseline("A* weighted (e=1.2, default)"),
            Variant {
                search: Some(SearchConfig {
                    algorithm: SearchAlgorithm::Beam { width: 10 },
                    heuristic_weight: 1.0,
                }),
                ..Variant::baseline("beam width 10")
            },
            Variant {
                search: Some(SearchConfig {
                    algorithm: SearchAlgorithm::Greedy,
                    heuristic_weight: 1.0,
                }),
                ..Variant::baseline("greedy")
            },
        ],
    );
    section(
        "WHIRL neighbour combination",
        vec![
            Variant {
                whirl: Some(NeighborCombination::NoisyOr),
                ..Variant::baseline("noisy-or (paper)")
            },
            Variant {
                whirl: Some(NeighborCombination::Max),
                ..Variant::baseline("max")
            },
            Variant {
                whirl: Some(NeighborCombination::Mean),
                ..Variant::baseline("mean")
            },
        ],
    );
    section(
        "Naive Bayes smoothing",
        vec![
            Variant {
                nb_smoothing: Some(0.1),
                ..Variant::baseline("laplace 0.1")
            },
            Variant {
                nb_smoothing: Some(1.0),
                ..Variant::baseline("laplace 1.0 (default)")
            },
            Variant {
                nb_smoothing: Some(10.0),
                ..Variant::baseline("laplace 10")
            },
        ],
    );
    section(
        "XML-learner structure tokens",
        vec![
            Variant {
                xml_tokens: Some(XmlTokenKinds {
                    text: true,
                    nodes: false,
                    edges: false,
                }),
                ..Variant::baseline("text only (flat NB)")
            },
            Variant {
                xml_tokens: Some(XmlTokenKinds {
                    text: true,
                    nodes: true,
                    edges: false,
                }),
                ..Variant::baseline("text + node tokens")
            },
            Variant {
                xml_tokens: Some(XmlTokenKinds {
                    text: true,
                    nodes: true,
                    edges: true,
                }),
                ..Variant::baseline("text + node + edge (paper)")
            },
        ],
    );
}

//! Criterion micro-benchmarks for LSD's components: base-learner training
//! and prediction, the constraint handler's search algorithms, whole-match
//! and search-only, and rendering response bodies and snapshots.
//!
//! Run with `cargo bench -p lsd-bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsd_core::learners::{BaseLearner, ContentMatcher, NaiveBayesLearner, NameMatcher, XmlLearner};
use lsd_core::{
    Instance, LsdBuilder, LsdConfig, SearchAlgorithm, SearchConfig, Source, SourceWalk, SubLabels,
    TrainedSource,
};
use lsd_datagen::{DomainId, GeneratedDomain};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// One generated source walked, with its tags' true labels.
fn labelled_walk(domain: &GeneratedDomain, source: usize) -> (SourceWalk<'_>, SubLabels) {
    let gs = &domain.sources[source];
    let labels = lsd_learn::LabelSet::new(domain.mediated.element_names().map(str::to_string));
    let tag_labels: SubLabels = gs
        .dtd
        .element_names()
        .map(|t| {
            let l = gs
                .mapping
                .get(t)
                .and_then(|m| labels.get(m))
                .unwrap_or_else(|| labels.other());
            (t.to_string(), l)
        })
        .collect();
    (SourceWalk::new(&gs.listings), tag_labels)
}

/// Every occurrence of a walked source as a labelled instance.
fn labelled_instances<'w>(
    walk: &'w SourceWalk<'_>,
    tag_labels: &'w SubLabels,
) -> Vec<(Instance<'w>, usize)> {
    let mut out = Vec::new();
    for tag in walk.tags() {
        let label = tag_labels[tag];
        for &id in walk.column(tag) {
            out.push((walk.instance(id).with_sub_labels(tag_labels), label));
        }
    }
    out
}

fn bench_learners(c: &mut Criterion) {
    let domain = DomainId::RealEstate1.generate(50, 1);
    let (walk, tag_labels) = labelled_walk(&domain, 0);
    let examples = labelled_instances(&walk, &tag_labels);
    let refs = examples.as_slice();
    let n = domain.mediated.len() + 1;
    let pairs: Vec<(&str, &str)> = domain
        .synonyms
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();

    let mut group = c.benchmark_group("learner_train");
    group.bench_function("name_matcher", |b| {
        b.iter(|| {
            let mut l = NameMatcher::with_synonym_pairs(n, pairs.clone());
            BaseLearner::train(&mut l, black_box(refs));
            l
        })
    });
    group.bench_function("content_matcher", |b| {
        b.iter(|| {
            let mut l = ContentMatcher::new(n);
            BaseLearner::train(&mut l, black_box(refs));
            l
        })
    });
    group.bench_function("naive_bayes", |b| {
        b.iter(|| {
            let mut l = NaiveBayesLearner::new(n);
            BaseLearner::train(&mut l, black_box(refs));
            l
        })
    });
    group.bench_function("xml_learner", |b| {
        b.iter(|| {
            let mut l = XmlLearner::new(n);
            BaseLearner::train(&mut l, black_box(refs));
            l
        })
    });
    group.finish();

    let mut trained_nb = NaiveBayesLearner::new(n);
    BaseLearner::train(&mut trained_nb, refs);
    let mut trained_content = ContentMatcher::new(n);
    BaseLearner::train(&mut trained_content, refs);
    let probe = &examples[examples.len() / 2].0;

    let mut group = c.benchmark_group("learner_predict");
    group.bench_function("naive_bayes", |b| {
        b.iter(|| BaseLearner::predict(&trained_nb, black_box(probe)))
    });
    group.bench_function("content_matcher_whirl", |b| {
        b.iter(|| BaseLearner::predict(&trained_content, black_box(probe)))
    });
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    // End-to-end match of the largest domain under the three search
    // algorithms (includes prediction; the search dominates on RE2).
    let domain = DomainId::RealEstate2.generate(60, 3);
    let training: Vec<TrainedSource> = (0..3)
        .map(|i| TrainedSource {
            source: Source::from_xml(
                domain.sources[i].name.clone(),
                domain.sources[i].dtd.clone(),
                domain.sources[i].listings.clone(),
            ),
            mapping: domain.sources[i].mapping.clone(),
        })
        .collect();
    let target = Source::from_xml(
        domain.sources[3].name.clone(),
        domain.sources[3].dtd.clone(),
        domain.sources[3].listings.clone(),
    );

    let mut group = c.benchmark_group("match_real_estate2");
    group.sample_size(10);
    for (label, algorithm) in [
        (
            "astar",
            SearchAlgorithm::AStar {
                max_expansions: 20_000,
            },
        ),
        ("beam10", SearchAlgorithm::Beam { width: 10 }),
        ("greedy", SearchAlgorithm::Greedy),
    ] {
        let config = LsdConfig {
            search: SearchConfig {
                algorithm,
                ..SearchConfig::default()
            },
            ..LsdConfig::default()
        };
        let builder = LsdBuilder::new(&domain.mediated).with_config(config);
        let n = builder.labels().len();
        let pairs: Vec<(&str, &str)> = domain
            .synonyms
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let mut lsd = builder
            .add_learner(Box::new(NameMatcher::with_synonym_pairs(n, pairs)))
            .add_learner(Box::new(NaiveBayesLearner::new(n)))
            .with_constraints(domain.constraints.clone())
            .build()
            .expect("bench builder has learners");
        lsd.train(&training)
            .expect("training sources have listings");
        group.bench_with_input(BenchmarkId::from_parameter(label), &lsd, |b, lsd| {
            b.iter(|| {
                lsd.match_source(black_box(&target))
                    .expect("well-formed source")
            })
        });
    }
    group.finish();
}

fn bench_search_only(c: &mut Criterion) {
    // The A* search alone on the heaviest match-small input: Time Schedule
    // source 4 (`utexas.edu`, 1 735 expansions) under the model perfbench
    // serves. The evaluator is built once outside the timed loop, so each
    // iteration is the search (candidate pruning, refinement order, A*) and
    // nothing else; `match_real_estate2` above times whole matches.
    use lsd_bench::{to_sources, train_full_model, ExperimentParams};
    use lsd_constraints::{ConstraintHandler, Evaluator, MatchingContext};
    use lsd_xml::SchemaTree;

    let params = ExperimentParams {
        listings: 15,
        seed: 1,
        ..ExperimentParams::default()
    };
    let (_, model) = train_full_model(DomainId::TimeSchedule, &params);
    let generated = DomainId::TimeSchedule.generate(20, 1);
    let gs = &generated.sources[4];
    let outcome = model
        .match_source(&to_sources(gs))
        .expect("datagen sources match");
    let schema = SchemaTree::from_dtd(&gs.dtd).expect("valid schema");
    let walk = SourceWalk::new(&gs.listings);
    let data = walk.source_data(outcome.tags.iter().map(String::as_str));
    let ctx = MatchingContext {
        labels: model.labels(),
        schema: &schema,
        tags: outcome.tags.clone(),
        predictions: outcome.predictions.clone(),
        data: &data,
        alpha: params.lsd.alpha,
    };
    let handler = ConstraintHandler::new(model.constraints().to_vec())
        .with_config(params.lsd.search)
        .with_candidate_limit(params.lsd.candidate_limit);
    let evaluator = Evaluator::with_compiled(&ctx, &handler.compiled(ctx.labels));
    // The rebuilt context must reproduce the match's own search.
    let result = handler.find_mapping(&evaluator, &[]);
    assert_eq!(result.assignment, outcome.result.assignment);
    assert_eq!(result.stats.expansions, outcome.result.stats.expansions);

    let mut group = c.benchmark_group("search_only");
    group.sample_size(10);
    group.bench_function("time_schedule_utexas", |b| {
        b.iter(|| handler.find_mapping(black_box(&evaluator), &[]))
    });
    group.finish();
}

fn bench_render(c: &mut Criterion) {
    // Rendering what the server writes: the `/v1/explain` and `/v1/match`
    // bodies for Time Schedule source 3 at 20 listings, and the pretty
    // snapshot of the model perfbench serves, which boot writes.
    use lsd_bench::{to_sources, train_full_model, ExperimentParams};
    use lsd_serve::json;

    let params = ExperimentParams {
        listings: 15,
        seed: 1,
        ..ExperimentParams::default()
    };
    let (_, model) = train_full_model(DomainId::TimeSchedule, &params);
    let generated = DomainId::TimeSchedule.generate(20, 1);
    let outcome = model
        .match_source(&to_sources(&generated.sources[3]))
        .expect("datagen sources match");
    let saved = model.to_saved().expect("a trained model saves");

    let mut group = c.benchmark_group("render");
    group.sample_size(20);
    group.bench_function("explain_body", |b| {
        b.iter(|| json::explain_body("time-schedule", black_box(&outcome)))
    });
    group.bench_function("match_body", |b| {
        b.iter(|| json::match_body("time-schedule", black_box(&outcome)))
    });
    group.bench_function("saved_model_pretty", |b| {
        b.iter(|| serde_json::to_string_pretty(black_box(&saved)).expect("serializes"))
    });
    group.finish();
}

fn bench_batch_engine(c: &mut Criterion) {
    // The parallel batch-matching engine vs the serial loop it replaces:
    // one trained system, a 4-domain x 5-source workload, outcomes
    // byte-identical across thread counts (asserted in tests/batch_engine.rs).
    use lsd_learn::ExecPolicy;

    let workload: Vec<(lsd_datagen::GeneratedDomain, Vec<Source>)> = [
        DomainId::RealEstate1,
        DomainId::RealEstate2,
        DomainId::TimeSchedule,
        DomainId::FacultyListings,
    ]
    .iter()
    .map(|&id| {
        let domain = id.generate(40, 7);
        let sources: Vec<Source> = domain
            .sources
            .iter()
            .map(|gs| Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone()))
            .collect();
        (domain, sources)
    })
    .collect();

    let systems: Vec<lsd_core::Lsd> = workload
        .iter()
        .map(|(domain, sources)| {
            let builder = LsdBuilder::new(&domain.mediated).with_config(LsdConfig::default());
            let n = builder.labels().len();
            let pairs: Vec<(&str, &str)> = domain
                .synonyms
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            let mut lsd = builder
                .add_learner(Box::new(NameMatcher::with_synonym_pairs(n, pairs)))
                .add_learner(Box::new(NaiveBayesLearner::new(n)))
                .with_constraints(domain.constraints.clone())
                .build()
                .expect("bench builder has learners");
            let training: Vec<TrainedSource> = (0..3)
                .map(|i| TrainedSource {
                    source: sources[i].clone(),
                    mapping: domain.sources[i].mapping.clone(),
                })
                .collect();
            lsd.train(&training)
                .expect("training sources have listings");
            lsd
        })
        .collect();

    let mut group = c.benchmark_group("batch_engine_4x5");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let policy = ExecPolicy::with_threads(threads);
                b.iter(|| {
                    for (lsd, (_, sources)) in systems.iter().zip(&workload) {
                        lsd.match_batch(black_box(sources), &policy)
                            .expect("well-formed sources");
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_evaluators(c: &mut Criterion) {
    // The compiled constraint evaluator vs the reference implementation —
    // the optimization that makes A* affordable (DESIGN.md deviation 5).
    use lsd_constraints::{evaluate_partial, Evaluator, MatchingContext};
    use lsd_learn::{LabelSet, Prediction};
    use lsd_xml::SchemaTree;

    let domain = DomainId::RealEstate2.generate(40, 6);
    let gs = &domain.sources[0];
    let schema = SchemaTree::from_dtd(&gs.dtd).expect("valid schema");
    let labels = LabelSet::new(domain.mediated.element_names().map(str::to_string));
    let tags: Vec<String> = schema.tag_names().map(str::to_string).collect();
    let walk = SourceWalk::new(&gs.listings);
    let data = walk.source_data(tags.iter().map(String::as_str));
    let ctx = MatchingContext {
        labels: &labels,
        schema: &schema,
        tags: tags.clone(),
        predictions: vec![Prediction::uniform(labels.len()); tags.len()],
        data: &data,
        alpha: 1.0,
    };
    let assignment: Vec<Option<usize>> = (0..tags.len()).map(|i| Some(i % labels.len())).collect();

    let mut group = c.benchmark_group("constraint_evaluation");
    group.bench_function("reference", |b| {
        b.iter(|| evaluate_partial(black_box(&ctx), &domain.constraints, &assignment))
    });
    let evaluator = Evaluator::new(&ctx, &domain.constraints);
    let mut scratch = evaluator.scratch();
    group.bench_function("compiled", |b| {
        b.iter(|| evaluator.evaluate(black_box(&assignment), &mut scratch))
    });
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    // The substrates the pipeline leans on hardest.
    let domain = DomainId::RealEstate2.generate(100, 4);
    let listing_xml = lsd_xml::write_element(&domain.sources[0].listings[0]);

    c.bench_function("xml_parse_listing", |b| {
        b.iter(|| lsd_xml::parse_fragment(black_box(&listing_xml)).expect("parses"))
    });
    // What matching does with a source's listings: one walk, a seeded
    // subsample of each tag's occurrences, instances for the kept ones,
    // and the constraint data, all borrowing from the walk.
    let gs = &domain.sources[0];
    let tags: Vec<&str> = gs.dtd.element_names().collect();
    let cap = LsdConfig::default().max_match_instances_per_tag;
    c.bench_function("source_walk_100_listings", |b| {
        b.iter(|| {
            let walk = SourceWalk::new(black_box(&gs.listings));
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let kept: Vec<Vec<Instance>> = tags
                .iter()
                .map(|tag| {
                    let ids = walk.sample(tag, cap, &mut rng);
                    ids.iter().map(|&id| walk.instance(id)).collect()
                })
                .collect();
            black_box(&kept);
            black_box(&walk.source_data(tags.iter().copied()));
        })
    });
    let stemmer = lsd_text::PorterStemmer::new();
    c.bench_function("tokenize_and_stem_description", |b| {
        let text = domain.sources[0].listings[0].deep_text();
        b.iter(|| {
            lsd_text::tokenize(black_box(&text))
                .iter()
                .map(|t| stemmer.stem(t))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("generate_domain_re1_50_listings", |b| {
        b.iter(|| DomainId::RealEstate1.generate(black_box(50), 5))
    });
}

criterion_group!(
    benches,
    bench_learners,
    bench_search,
    bench_search_only,
    bench_render,
    bench_batch_engine,
    bench_evaluators,
    bench_substrates
);
criterion_main!(benches);

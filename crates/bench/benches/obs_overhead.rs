//! The observability layer's cost on the hottest path, in its own bench
//! target so CI can gate on it alone:
//! `cargo bench -p lsd-bench --bench obs_overhead`.
//!
//! `match_batch` with probes disabled (the default — every probe is one
//! Relaxed atomic load) vs enabled (thread-local shard writes + span
//! timing). The acceptance bar is <= 3% overhead for the disabled mode
//! relative to the pre-observability engine; compare `off` here against the
//! `batch_engine_4x5` numbers from before the layer existed, and `on`
//! against `off` for the cost of recording itself.
//!
//! Two more cases isolate the request-tracing layer added on top:
//! * `on` runs with recording enabled but **no** active trace context —
//!   the tracing-disabled fast path every span takes outside a request
//!   (one thread-local `Cell` read). It must be indistinguishable from
//!   the pre-tracing `on` cost.
//! * `on_traced` enters a begun [`lsd_obs::TraceContext`] around each
//!   batch, so every span also registers with the trace collector — the
//!   worst-case per-request tracing cost.

use criterion::{criterion_group, criterion_main, Criterion};
use lsd_core::learners::{NaiveBayesLearner, NameMatcher};
use lsd_core::{LsdBuilder, LsdConfig, Source, TrainedSource};
use lsd_datagen::DomainId;
use lsd_learn::ExecPolicy;
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
    let domain = DomainId::RealEstate1.generate(40, 7);
    let sources: Vec<Source> = domain
        .sources
        .iter()
        .map(|gs| Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone()))
        .collect();
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
    let policy = ExecPolicy::with_threads(4);

    let mut group = c.benchmark_group("obs_overhead_batch");
    group.sample_size(10);
    group.bench_function("off", |b| {
        b.iter(|| {
            lsd.match_batch(black_box(&sources), &policy)
                .expect("well-formed sources")
        })
    });
    group.bench_function("on", |b| {
        b.iter(|| {
            let (outcomes, _snapshot) =
                lsd_obs::collect(|| lsd.match_batch(black_box(&sources), &policy));
            outcomes.expect("well-formed sources")
        })
    });
    group.bench_function("on_traced", |b| {
        b.iter(|| {
            let (outcomes, _snapshot) = lsd_obs::collect(|| {
                let ctx = lsd_obs::TraceContext::generate();
                lsd_obs::trace::begin(&ctx);
                let result = {
                    let _scope = lsd_obs::TraceScope::enter(ctx);
                    lsd.match_batch(black_box(&sources), &policy)
                };
                lsd_obs::trace::finish(&ctx);
                result
            });
            outcomes.expect("well-formed sources")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);

//! Matching predicts once per distinct learner input (see
//! `lsd_core::learners::Reads`). These tests pin that memo to the
//! unmemoised pipeline: the same model built with every stage-1 learner
//! wrapped so that it declares `Reads::Instance` (one call per instance)
//! must serve byte-identical match and explain bodies.

use lsd_core::learners::{paper_suite, BaseLearner, Reads};
use lsd_core::{Instance, Lsd, LsdBuilder, Source, TrainedSource};
use lsd_datagen::{DomainId, GeneratedDomain};
use lsd_learn::Prediction;
use lsd_serve::json;

/// Forwards everything to the wrapped learner but makes no promise about
/// what it reads, so the matcher calls it once per instance.
struct Unmemoized(Box<dyn BaseLearner>);

impl BaseLearner for Unmemoized {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn train(&mut self, examples: &[(Instance, usize)]) {
        self.0.train(examples);
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        self.0.predict(instance)
    }

    fn reads(&self) -> Reads {
        Reads::Instance
    }

    fn supports_warm_start(&self) -> bool {
        self.0.supports_warm_start()
    }

    fn warm_train(&mut self, examples: &[(Instance, usize)]) -> bool {
        self.0.warm_train(examples)
    }
}

fn source(domain: &GeneratedDomain, i: usize) -> Source {
    let gs = &domain.sources[i];
    Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone())
}

/// The paper's learners plus the XML learner and the domain's
/// constraints, trained on sources 0–2; `wrap` decides how each stage-1
/// learner is added.
fn trained(
    domain: &GeneratedDomain,
    wrap: fn(Box<dyn BaseLearner>) -> Box<dyn BaseLearner>,
) -> Lsd {
    let mut builder = LsdBuilder::new(&domain.mediated);
    let synonyms = domain
        .synonyms
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()));
    for learner in paper_suite(builder.labels(), synonyms) {
        builder = builder.add_learner(wrap(learner));
    }
    let mut lsd = builder
        .with_xml_learner(None)
        .with_constraints(domain.constraints.clone())
        .build()
        .expect("builds");
    let training: Vec<TrainedSource> = (0..3)
        .map(|i| TrainedSource {
            source: source(domain, i),
            mapping: domain.sources[i].mapping.clone(),
        })
        .collect();
    lsd.train(&training).expect("trains");
    lsd
}

fn total_predict_calls(lsd: &Lsd, source: &Source) -> u64 {
    let (_, report) = lsd.match_source_with_report(source).expect("matches");
    report.predict_calls().iter().map(|(_, calls)| calls).sum()
}

#[test]
fn memoised_matching_serves_the_unmemoised_bodies_in_every_domain() {
    for id in DomainId::ALL {
        let domain = id.generate(12, 1);
        let memoised = trained(&domain, |learner| learner);
        let unmemoised = trained(&domain, |learner| Box::new(Unmemoized(learner)));
        for i in 3..5 {
            let source = source(&domain, i);
            let want = unmemoised.match_source(&source).expect("matches");
            let got = memoised.match_source(&source).expect("matches");
            assert_eq!(
                json::match_body("m", &got),
                json::match_body("m", &want),
                "{} source {i}: match body",
                id.name()
            );
            assert_eq!(
                json::explain_body("m", &got),
                json::explain_body("m", &want),
                "{} source {i}: explain body",
                id.name()
            );
            // The memo is live: repeated paths and texts skip the learner.
            assert!(
                total_predict_calls(&memoised, &source) < total_predict_calls(&unmemoised, &source),
                "{} source {i}: memo made no call redundant",
                id.name()
            );
        }
    }
}

//! Decision provenance end to end: `MatchOutcome::explain` must agree with
//! `MatchOutcome::candidates` exactly, carry the per-learner scores behind
//! every combined score (their equal-weight mean), blame a constraint when
//! one rejects a higher-ranked candidate, and render byte-identically
//! across thread counts.

use lsd::core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher};
use lsd::datagen::DomainId;
use lsd::{
    Correction, ExecPolicy, Feedback, Lsd, LsdBuilder, LsdConfig, RejectionReason, Source,
    TrainedSource,
};

fn to_source(gs: &lsd::datagen::GeneratedSource) -> Source {
    Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone())
}

fn build_trained() -> (Lsd, Vec<Source>) {
    let domain = DomainId::RealEstate1.generate(8, 21);
    let builder = LsdBuilder::new(&domain.mediated).with_config(LsdConfig::default());
    let n = builder.labels().len();
    let pairs: Vec<(&str, &str)> = domain
        .synonyms
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let mut lsd = builder
        .add_learner(Box::new(NameMatcher::with_synonym_pairs(n, pairs)))
        .add_learner(Box::new(ContentMatcher::new(n)))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .with_xml_learner(None)
        .with_constraints(domain.constraints.clone())
        .build()
        .unwrap();
    let training: Vec<TrainedSource> = domain.sources[..3]
        .iter()
        .map(|gs| TrainedSource {
            source: to_source(gs),
            mapping: gs.mapping.clone(),
        })
        .collect();
    lsd.train(&training).unwrap();
    let targets: Vec<Source> = domain.sources[3..].iter().map(to_source).collect();
    (lsd, targets)
}

#[test]
fn explanations_mirror_candidates_exactly() {
    let (lsd, targets) = build_trained();
    let outcome = lsd.match_source(&targets[0]).unwrap();
    let learner_names = outcome.learner_names().to_vec();

    for tag in outcome.tags.clone() {
        let explanation = outcome.explain(&tag).expect("tag was matched");
        assert_eq!(explanation.tag, tag);
        assert_eq!(
            explanation.chosen_label,
            outcome.label_of(&tag).unwrap().to_string()
        );

        // Candidate order, labels and scores match candidates() exactly.
        let candidates = outcome.candidates(&tag);
        assert_eq!(explanation.candidates.len(), candidates.len());
        let mut chosen_seen = 0;
        for (rank, (ce, cand)) in explanation.candidates.iter().zip(candidates).enumerate() {
            assert_eq!(ce.rank, rank);
            assert_eq!(ce.label, cand.label);
            assert_eq!(ce.score, cand.score);
            chosen_seen += usize::from(ce.chosen);

            // Per-learner provenance: same scores as the candidate view,
            // and every learner weighs the same, so the combined score is
            // their mean.
            assert_eq!(ce.learners.len(), learner_names.len());
            for (j, lc) in ce.learners.iter().enumerate() {
                assert_eq!(lc.learner, learner_names[j]);
                assert_eq!(lc.score, cand.per_learner[j]);
            }
            let mean =
                ce.learners.iter().map(|lc| lc.score).sum::<f64>() / ce.learners.len() as f64;
            assert!(
                (ce.score - mean).abs() < 1e-9,
                "{tag}#{rank}: combined {} vs learner mean {mean}",
                ce.score
            );
        }
        assert_eq!(chosen_seen, 1, "exactly one candidate is the chosen label");

        // Rejections only ever annotate candidates ranked above the chosen
        // label.
        let chosen_rank = explanation
            .candidates
            .iter()
            .position(|c| c.chosen)
            .unwrap();
        for ce in &explanation.candidates {
            if ce.rank >= chosen_rank {
                assert!(
                    ce.rejection.is_none(),
                    "{}#{} must carry no rejection",
                    tag,
                    ce.rank
                );
            } else {
                assert!(
                    ce.rejection.is_some(),
                    "{}#{} outranked the chosen label and needs a verdict",
                    tag,
                    ce.rank
                );
            }
        }
    }

    assert!(outcome.explain("no-such-tag").is_none());
    assert_eq!(outcome.explain_all().len(), outcome.tags.len());
}

#[test]
fn feedback_pin_shows_up_as_constraint_rejection() {
    let (lsd, targets) = build_trained();
    let baseline = lsd.match_source(&targets[0]).unwrap();
    // Pick a tag the system maps confidently, then pin it elsewhere: the
    // original top candidate must now be rejected by the feedback
    // constraint, and the explanation must say which constraint did it.
    let (tag, top_label) = baseline
        .tags
        .iter()
        .find_map(|t| {
            let cands = baseline.candidates(t);
            let top = cands.first()?;
            (Some(top.label.as_str()) == baseline.label_of(t) && top.label != "OTHER")
                .then(|| (t.clone(), top.label.clone()))
        })
        .expect("some tag is mapped to its top candidate");

    let feedback = Feedback::from_corrections(vec![Correction::tag_is_not(
        tag.as_str(),
        top_label.as_str(),
    )]);
    let outcome = lsd.match_source_with(&targets[0], &feedback).unwrap();
    assert_ne!(outcome.label_of(&tag), Some(top_label.as_str()));

    let explanation = outcome.explain(&tag).expect("tag was matched");
    let rejected = explanation
        .candidates
        .iter()
        .find(|c| c.label == top_label)
        .expect("the denied label is still a ranked candidate");
    match &rejected.rejection {
        Some(RejectionReason::Constraint { violated }) => {
            assert!(
                violated.iter().any(|v| v.contains(&top_label)),
                "the violated constraint must name the denied label: {violated:?}"
            );
        }
        other => panic!("denied label must be constraint-rejected, got {other:?}"),
    }
}

#[test]
fn explanations_are_byte_identical_across_thread_counts() {
    let (lsd, targets) = build_trained();
    let render_all = |threads: usize| -> (String, String) {
        let outcomes = lsd
            .match_batch(&targets, &ExecPolicy::with_threads(threads))
            .unwrap();
        let rendered: String = outcomes
            .iter()
            .flat_map(|o| o.explain_all())
            .map(|e| e.render())
            .collect();
        let json: String = outcomes
            .iter()
            .map(|o| serde_json::to_string_pretty(&o.explain_all()).unwrap())
            .collect();
        (rendered, json)
    };
    let (text1, json1) = render_all(1);
    let (text4, json4) = render_all(4);
    assert_eq!(text1, text4, "rendered explanations must be deterministic");
    assert_eq!(
        json1, json4,
        "serialized explanations must be deterministic"
    );
}

#[test]
fn search_counters_attribute_to_explained_candidates() {
    let (lsd, targets) = build_trained();
    let outcome = lsd.match_source(&targets[0]).unwrap();
    // The search generated at least one node for some explained (tag,
    // label) pair, and the per-pair totals never exceed the run totals.
    let explanations = outcome.explain_all();
    let generated: u64 = explanations
        .iter()
        .flat_map(|e| &e.candidates)
        .map(|c| c.search.generated)
        .sum();
    assert!(
        generated >= 1,
        "explained candidates must carry search activity"
    );
    assert_eq!(generated, outcome.result.stats.generated as u64);
}

//! The observability layer end to end: instrumented matching must report
//! search work and per-learner timings, span trees must nest correctly, and
//! the deterministic metric subset must not depend on the worker count.

use lsd::core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher};
use lsd::datagen::DomainId;
use lsd::obs::SpanRecord;
use lsd::{ExecPolicy, Lsd, LsdBuilder, LsdConfig, Source, TrainedSource};
use std::sync::{Mutex, MutexGuard};

/// Recording is process-wide: while one test's collection runs, every
/// other thread's probes record into it, including another test's
/// uncollected training. The tests here therefore run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn to_source(gs: &lsd::datagen::GeneratedSource) -> Source {
    Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone())
}

fn build_trained() -> (Lsd, Vec<Source>) {
    let domain = DomainId::RealEstate1.generate(6, 11);
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
fn match_report_counts_search_work_and_learner_time() {
    let _serial = serial();
    let (lsd, targets) = build_trained();
    let (outcome, report) = lsd.match_source_with_report(&targets[0]).unwrap();
    assert!(outcome.result.feasible);

    // The constraint search really ran.
    assert!(
        report.nodes_expanded() >= 1,
        "A* must expand at least one node, got {}",
        report.nodes_expanded()
    );
    assert!(report.constraint_evaluations() >= 1);
    assert_eq!(report.sources_matched(), 1);

    // Every registered learner predicted, and its wall time was recorded.
    let predict_nanos = report.predict_nanos();
    let predict_calls = report.predict_calls();
    for name in lsd.learner_names() {
        let ns = predict_nanos
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no predict-time entry for {name}"));
        assert!(ns.1 > 0, "{name} predict time must be nonzero");
        let calls = predict_calls
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no predict-call entry for {name}"));
        assert!(calls.1 > 0, "{name} must have predicted at least once");
    }
}

#[test]
fn train_report_counts_examples_and_learner_time() {
    let _serial = serial();
    let domain = DomainId::FacultyListings.generate(6, 3);
    let builder = LsdBuilder::new(&domain.mediated).with_config(LsdConfig::default());
    let n = builder.labels().len();
    let mut lsd = builder
        .add_learner(Box::new(NameMatcher::with_synonym_pairs(n, [])))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .build()
        .unwrap();
    let training: Vec<TrainedSource> = domain.sources[..3]
        .iter()
        .map(|gs| TrainedSource {
            source: to_source(gs),
            mapping: gs.mapping.clone(),
        })
        .collect();
    let report = lsd.train_with_report(&training).unwrap();
    assert!(report.examples() > 0);
    assert_eq!(report.metrics.counter("train.sources"), 3);
    for name in lsd.learner_names() {
        let nanos = report.train_nanos();
        let entry = nanos
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no train-time entry for {name}"));
        assert!(entry.1 > 0, "{name} train time must be nonzero");
    }
}

/// Every non-root span must point at a recorded parent on the same thread
/// whose interval encloses the child's.
fn assert_well_formed(spans: &[SpanRecord]) {
    assert!(!spans.is_empty(), "instrumented run must record spans");
    for child in spans {
        let Some(parent_id) = child.parent else {
            continue;
        };
        let parent = spans
            .iter()
            .find(|s| s.id == parent_id)
            .unwrap_or_else(|| panic!("span {} has unrecorded parent {parent_id}", child.name));
        assert_eq!(
            parent.thread, child.thread,
            "parent {} and child {} recorded on different threads",
            parent.name, child.name
        );
        assert!(
            parent.start_ns <= child.start_ns,
            "parent {} starts after child {}",
            parent.name,
            child.name
        );
        assert!(
            parent.start_ns + parent.duration_ns >= child.start_ns + child.duration_ns,
            "parent {} ends before child {}",
            parent.name,
            child.name
        );
    }
}

#[test]
fn span_tree_is_well_formed() {
    let _serial = serial();
    let (lsd, targets) = build_trained();
    let (_, report) = lsd
        .match_batch_with_report(&targets, &ExecPolicy::with_threads(4))
        .unwrap();
    assert_well_formed(&report.metrics.spans);
    // The per-source pipeline spans are present and nested under a
    // match.source root.
    let source_spans = report
        .metrics
        .spans
        .iter()
        .filter(|s| s.name == "match.source")
        .count();
    assert_eq!(source_spans, targets.len());
    let stage1 = report
        .metrics
        .spans
        .iter()
        .find(|s| s.name == "match.stage1")
        .expect("stage-1 span recorded");
    let root_id = stage1.parent.expect("stage1 nests under match.source");
    let root = report
        .metrics
        .spans
        .iter()
        .find(|s| s.id == root_id)
        .expect("parent recorded");
    assert_eq!(root.name, "match.source");
}

#[test]
fn chrome_trace_is_well_formed_across_thread_counts() {
    let _serial = serial();
    let (lsd, targets) = build_trained();
    for threads in [1usize, 4] {
        let (_, report) = lsd
            .match_batch_with_report(&targets, &ExecPolicy::with_threads(threads))
            .unwrap();
        let trace = report.chrome_trace();
        let parsed: serde_json::Value =
            serde_json::from_str(&trace).unwrap_or_else(|e| panic!("trace must parse: {e}"));
        let Some(serde_json::Value::Seq(events)) = parsed.get("traceEvents").cloned() else {
            panic!("traceEvents must be an array");
        };
        // One complete ("X") event per recorded span, each with the fields
        // Perfetto needs, plus one thread-name metadata event per thread.
        let complete: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph")
                    .is_some_and(|p| *p == serde_json::Value::Str("X".into()))
            })
            .collect();
        assert_eq!(
            complete.len(),
            report.metrics.spans.len(),
            "one X event per span at {threads} threads"
        );
        for event in &complete {
            for key in ["name", "ts", "dur", "pid", "tid", "cat"] {
                assert!(event.get(key).is_some(), "X event missing `{key}`");
            }
        }
        let threads_seen: std::collections::BTreeSet<u64> =
            report.metrics.spans.iter().map(|s| s.thread).collect();
        let names = events
            .iter()
            .filter(|e| {
                e.get("ph")
                    .is_some_and(|p| *p == serde_json::Value::Str("M".into()))
            })
            .count();
        assert_eq!(
            names,
            threads_seen.len(),
            "one thread_name event per thread"
        );
    }
}

#[test]
fn deterministic_metrics_agree_across_thread_counts() {
    let _serial = serial();
    let (lsd, targets) = build_trained();
    let (outcomes1, report1) = lsd
        .match_batch_with_report(&targets, &ExecPolicy::with_threads(1))
        .unwrap();
    let (outcomes4, report4) = lsd
        .match_batch_with_report(&targets, &ExecPolicy::with_threads(4))
        .unwrap();
    for (a, b) in outcomes1.iter().zip(&outcomes4) {
        assert_eq!(a.labels, b.labels);
    }
    // Counters and gauges are the deterministic subset: equal regardless of
    // the worker count. (Histograms and spans carry wall-clock timings.)
    assert_eq!(
        report1.metrics.deterministic_view(),
        report4.metrics.deterministic_view(),
        "deterministic counters/gauges must not depend on thread count"
    );
    assert!(report1.nodes_expanded() >= 1);
}

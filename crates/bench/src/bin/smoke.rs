//! CI smoke pass: one tiny instrumented train + `match_batch` over a single
//! generated domain, writing the full telemetry artifact set to the current
//! directory:
//!
//! - `metrics.json` — the raw train/match metric snapshots;
//! - `trace.json` — the match run's spans as Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`);
//! - `BENCH_match.json` — the schema-versioned perf-trajectory record.
//!
//! Each artifact is read back and validated in-process before the binary
//! exits, so a malformed export fails CI here rather than downstream. Scale
//! with `LSD_LISTINGS` / `LSD_SEED` / `LSD_THREADS` like the other binaries.

use lsd_bench::{
    accuracy_of_outcome, bench_match_json, build_lsd, to_sources, validate_bench_match,
    ExperimentParams, Setup,
};
use lsd_core::TrainedSource;
use lsd_datagen::DomainId;
use std::time::Instant;

fn main() {
    let mut params = ExperimentParams::from_env();
    if std::env::var("LSD_LISTINGS").is_err() {
        params.listings = 30; // tiny by default: this is a smoke test
    }
    let domain = DomainId::RealEstate1.generate(params.listings, params.seed);

    let training: Vec<TrainedSource> = (0..3)
        .map(|i| TrainedSource {
            source: to_sources(&domain.sources[i]),
            mapping: domain.sources[i].mapping.clone(),
        })
        .collect();
    let mut lsd = build_lsd(&domain, Setup::FULL, params.lsd);
    let train_report = lsd
        .train_with_report(&training)
        .expect("generated sources have listings");

    let batch = vec![
        to_sources(&domain.sources[3]),
        to_sources(&domain.sources[4]),
    ];
    let t0 = Instant::now();
    let (outcomes, match_report) = lsd
        .match_batch_with_report(&batch, &params.exec)
        .expect("generated sources are well-formed");
    let wall_ns = t0.elapsed().as_nanos() as u64;

    for (outcome, gs) in outcomes.iter().zip(&domain.sources[3..]) {
        println!(
            "{:<24} accuracy={:>5.1}%",
            gs.name,
            100.0 * accuracy_of_outcome(outcome, gs)
        );
    }
    println!("train: examples={}", train_report.examples());
    println!(
        "match: sources={} astar-expanded={} pruned={} constraint-evals={}",
        match_report.sources_matched(),
        match_report.nodes_expanded(),
        match_report.nodes_pruned(),
        match_report.constraint_evaluations()
    );

    assert!(
        match_report.nodes_expanded() >= 1,
        "instrumented search must expand at least one node"
    );

    let json = serde_json::json!({
        "train_report": train_report,
        "match_report": match_report,
    });
    write(
        "metrics.json",
        &serde_json::to_string_pretty(&json).expect("serializable"),
    );

    // Chrome trace: must be well-formed JSON with one complete event per
    // recorded span (Perfetto silently drops malformed files — validate
    // here instead).
    let trace = match_report.chrome_trace();
    let parsed: serde_json::Value =
        serde_json::from_str(&trace).expect("trace.json must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .expect("trace.json must carry traceEvents");
    let serde_json::Value::Seq(events) = events else {
        panic!("traceEvents must be an array");
    };
    let complete = events
        .iter()
        .filter(|e| {
            e.get("ph")
                .map(|p| p == &serde_json::Value::Str("X".into()))
                == Some(true)
        })
        .count();
    assert_eq!(
        complete,
        match_report.metrics.spans.len(),
        "one complete event per span"
    );
    write("trace.json", &trace);

    // Perf trajectory: schema-validate before shipping.
    let bench = bench_match_json(&match_report, &params, wall_ns);
    validate_bench_match(&bench).expect("BENCH_match.json must be schema-valid");
    write("BENCH_match.json", &bench);
}

fn write(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("Wrote {path}");
}

//! # lsd-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 6), plus Criterion micro-benchmarks.
//!
//! Binaries (run with `cargo run --release -p lsd-bench --bin <name>`):
//!
//! | binary        | what it runs                                        |
//! |---------------|-----------------------------------------------------|
//! | `experiments` | every table and figure of Section 6, writing `experiment_results.json`; `--only <section>` runs one (`table3`, `fig8a`, `fig8bc`, `fig9a`, `fig9b`, `feedback`, `metrics`) |
//! | `ablations`   | design-choice ablations (search, WHIRL, NB smoothing, XML tokens) |
//! | `lsd-serve`   | boots the `lsd-serve` matching server on a datagen-trained snapshot |
//! | `serve-load`  | load driver for the server; writes `BENCH_serve.json` (p50/p95/p99, throughput) |
//! | `lsd-infer`   | learns DTDs from DTD-less corpora; writes `BENCH_infer.json` (wall time, element counts, fallback rate) |
//!
//! The methodology follows Section 6: per domain, all C(5,3) = 10
//! train/test splits (train on 3 sources, test on the other 2), repeated
//! over several trials with freshly sampled data; accuracy is the
//! percentage of matchable source tags matched correctly, averaged.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bench_report;
pub mod runner;

pub use bench_report::{
    bench_infer_json, bench_match_json, bench_serve_json, validate_bench_infer,
    validate_bench_match, validate_bench_serve, InferBenchCorpus, ServeBenchRun,
    BENCH_INFER_SCHEMA_VERSION, BENCH_MATCH_SCHEMA_VERSION, BENCH_SERVE_SCHEMA_VERSION,
};
pub use runner::{
    accuracy_of, accuracy_of_outcome, all_splits, build_lsd, collect_split_metrics,
    constraints_for, domain_slug, feedback_runs, resolve_domain, run_matrix, to_sources,
    train_full_model, Config, ConstraintMode, DomainAccuracy, ExperimentParams, FeedbackRun,
    LearnerSet, Setup, SplitMetrics, FEEDBACK_DOMAINS, FIG8A_CONFIGS, FIG8A_SINGLES,
};

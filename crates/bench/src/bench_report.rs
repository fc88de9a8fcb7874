//! The `BENCH_match.json` perf-trajectory record (schema version 1).
//!
//! Every bench/smoke run exports one JSON document summarizing where the
//! match pipeline spent its time — per-stage span statistics (count, total,
//! mean, p50/p95/p99), the A\* search counters, throughput, and per-learner
//! predict costs — under a *stable schema*, so successive runs can be
//! diffed mechanically and CI can chart the performance trajectory over
//! commits. [`validate_bench_match`] is the schema check CI runs against
//! the artifact it just produced.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "params":     { "listings", "seed", "threads" },
//!   "stages":     { "<span name>": { "count", "total_ns", "mean_ns",
//!                                    "p50_ns", "p95_ns", "p99_ns" }, ... },
//!   "search":     { "runs", "nodes_expanded", "nodes_generated",
//!                   "nodes_pruned", "evaluations" },
//!   "throughput": { "sources", "tags", "instances", "wall_ns",
//!                   "sources_per_sec" },
//!   "learners":   { "<learner>": { "predict_calls", "predict_total_ns",
//!                                  "predict_p95_ns" }, ... }
//! }
//! ```

use crate::runner::ExperimentParams;
use lsd_core::MatchReport;
use serde::Value;

/// Version stamp written into (and demanded from) `BENCH_match.json`.
pub const BENCH_MATCH_SCHEMA_VERSION: i64 = 1;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Renders one match run as the `BENCH_match.json` document. `wall_ns` is
/// the caller-measured wall-clock time of the whole batch match.
pub fn bench_match_json(report: &MatchReport, params: &ExperimentParams, wall_ns: u64) -> String {
    let m = &report.metrics;

    let stages = Value::Map(
        m.histograms_labelled("span")
            .into_iter()
            .map(|(name, h)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("count", int(h.count)),
                        ("total_ns", int(h.sum)),
                        ("mean_ns", Value::Float(h.mean())),
                        ("p50_ns", int(h.p50())),
                        ("p95_ns", int(h.p95())),
                        ("p99_ns", int(h.p99())),
                    ]),
                )
            })
            .collect(),
    );

    let learners = Value::Map(
        m.counters_labelled("learner.predict_calls")
            .into_iter()
            .map(|(name, calls)| {
                let h = m.histogram(&format!("learner.predict_ns/{name}"));
                (
                    name.to_string(),
                    obj(vec![
                        ("predict_calls", int(calls)),
                        ("predict_total_ns", int(h.map_or(0, |h| h.sum))),
                        ("predict_p95_ns", int(h.map_or(0, |h| h.p95()))),
                    ]),
                )
            })
            .collect(),
    );

    let sources = m.counter("match.sources");
    let root = obj(vec![
        ("schema_version", Value::Int(BENCH_MATCH_SCHEMA_VERSION)),
        (
            "params",
            obj(vec![
                ("listings", int(params.listings as u64)),
                ("seed", int(params.seed)),
                ("threads", int(params.exec.threads as u64)),
            ]),
        ),
        ("stages", stages),
        (
            "search",
            obj(vec![
                ("runs", int(m.counter("search.runs"))),
                ("nodes_expanded", int(m.counter("search.nodes_expanded"))),
                ("nodes_generated", int(m.counter("search.nodes_generated"))),
                ("nodes_pruned", int(m.counter("search.nodes_pruned"))),
                ("evaluations", int(m.counter("search.evaluations"))),
            ]),
        ),
        (
            "throughput",
            obj(vec![
                ("sources", int(sources)),
                ("tags", int(m.counter("match.tags"))),
                ("instances", int(m.counter("match.instances"))),
                ("wall_ns", int(wall_ns)),
                (
                    "sources_per_sec",
                    Value::Float(if wall_ns == 0 {
                        0.0
                    } else {
                        sources as f64 * 1e9 / wall_ns as f64
                    }),
                ),
            ]),
        ),
        ("learners", learners),
    ]);
    serde_json::to_string_pretty(&root).expect("Value serialization cannot fail")
}

fn require<'v>(v: &'v Value, key: &str, path: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("{path}: missing `{key}`"))
}

fn require_number(v: &Value, key: &str, path: &str) -> Result<(), String> {
    match require(v, key, path)? {
        Value::Int(_) | Value::Float(_) => Ok(()),
        other => Err(format!(
            "{path}.{key}: expected number, found {}",
            other.kind()
        )),
    }
}

/// Checks a `BENCH_match.json` document against schema version 1. Returns
/// the first problem found, phrased with its JSON path.
pub fn validate_bench_match(text: &str) -> Result<(), String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match require(&root, "schema_version", "$")? {
        Value::Int(v) if *v == BENCH_MATCH_SCHEMA_VERSION => {}
        other => {
            return Err(format!(
                "$.schema_version: expected {BENCH_MATCH_SCHEMA_VERSION}, found {other:?}"
            ))
        }
    }

    let params = require(&root, "params", "$")?;
    for key in ["listings", "seed", "threads"] {
        require_number(params, key, "$.params")?;
    }

    let stages = require(&root, "stages", "$")?;
    let Value::Map(stage_entries) = stages else {
        return Err(format!(
            "$.stages: expected object, found {}",
            stages.kind()
        ));
    };
    for (name, stage) in stage_entries {
        for key in ["count", "total_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns"] {
            require_number(stage, key, &format!("$.stages.{name}"))?;
        }
    }

    let search = require(&root, "search", "$")?;
    for key in [
        "runs",
        "nodes_expanded",
        "nodes_generated",
        "nodes_pruned",
        "evaluations",
    ] {
        require_number(search, key, "$.search")?;
    }

    let throughput = require(&root, "throughput", "$")?;
    for key in ["sources", "tags", "instances", "wall_ns", "sources_per_sec"] {
        require_number(throughput, key, "$.throughput")?;
    }

    let learners = require(&root, "learners", "$")?;
    let Value::Map(learner_entries) = learners else {
        return Err(format!(
            "$.learners: expected object, found {}",
            learners.kind()
        ));
    };
    for (name, learner) in learner_entries {
        for key in ["predict_calls", "predict_total_ns", "predict_p95_ns"] {
            require_number(learner, key, &format!("$.learners.{name}"))?;
        }
    }
    Ok(())
}

/// Version stamp written into (and demanded from) `BENCH_serve.json`.
/// Version 2 added the `tracing` section: traceparent-echo checks, the
/// flight-recorder retrieval check, and the rolling-window quantiles
/// scraped from `/metrics`. Version 3 dropped the `batching` section when
/// the server stopped coalescing requests.
pub const BENCH_SERVE_SCHEMA_VERSION: i64 = 3;

/// Everything the serve load driver measured, ready to render as
/// `BENCH_serve.json`.
#[derive(Debug, Clone, Default)]
pub struct ServeBenchRun {
    /// Domain slug the served model was trained on.
    pub domain: String,
    /// Listings per generated source.
    pub listings: usize,
    /// RNG seed for the generated data.
    pub seed: u64,
    /// Concurrent load-driver clients.
    pub clients: usize,
    /// Requests each client issued in the load phase.
    pub requests_per_client: usize,
    /// Per-request wall latencies in nanoseconds (load phase, any status).
    pub latencies_ns: Vec<u64>,
    /// Wall-clock time of the whole load phase.
    pub wall_ns: u64,
    /// `(status, count)` across all load-phase responses.
    pub statuses: Vec<(u16, u64)>,
    /// Every 200 body was byte-identical to a direct `match_source` call.
    pub byte_identical: bool,
    /// Connections that failed at the transport level (must be 0).
    pub dropped_connections: u64,
    /// `503 queue_full` responses observed in the backpressure phase.
    pub backpressure_503: u64,
    /// Every load-phase response carried a well-formed `traceparent` echo.
    pub traceparent_echoed: bool,
    /// A client-supplied trace id was continued verbatim (same trace id,
    /// fresh server span id).
    pub trace_continuity: bool,
    /// The forced-slow request was retrievable from
    /// `GET /debug/traces?trace_id=...` with a non-empty span tree.
    pub sampled_trace_found: bool,
    /// Rolling-window `serve_request_ns_window_p50{label="match"}` scraped
    /// from `/metrics` after the load phase (ns; 0 when absent).
    pub window_p50_ns: f64,
    /// Rolling-window p95 for the same series.
    pub window_p95_ns: f64,
    /// Rolling-window p99 for the same series.
    pub window_p99_ns: f64,
}

/// Exact quantile of a **sorted** latency slice (nearest-rank).
fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Renders a load-driver run as the `BENCH_serve.json` document (schema
/// version 3): request latency quantiles (exact, from the full sample set,
/// unlike the log2-bucket estimates inside the server), throughput, status
/// counts, the pass/fail checks the
/// acceptance criteria gate on, and the tracing checks plus rolling-window
/// quantiles scraped from the live server.
pub fn bench_serve_json(run: &ServeBenchRun) -> String {
    let mut sorted = run.latencies_ns.clone();
    sorted.sort_unstable();
    let count = sorted.len() as u64;
    let sum: u64 = sorted.iter().sum();
    let mean = if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    };

    let statuses = Value::Map(
        run.statuses
            .iter()
            .map(|(status, n)| (status.to_string(), int(*n)))
            .collect(),
    );

    let root = obj(vec![
        ("schema_version", Value::Int(BENCH_SERVE_SCHEMA_VERSION)),
        (
            "params",
            obj(vec![
                ("domain", Value::Str(run.domain.clone())),
                ("listings", int(run.listings as u64)),
                ("seed", int(run.seed)),
                ("clients", int(run.clients as u64)),
                ("requests_per_client", int(run.requests_per_client as u64)),
            ]),
        ),
        (
            "latency",
            obj(vec![
                ("count", int(count)),
                ("mean_ns", Value::Float(mean)),
                ("p50_ns", int(sorted_quantile(&sorted, 0.50))),
                ("p95_ns", int(sorted_quantile(&sorted, 0.95))),
                ("p99_ns", int(sorted_quantile(&sorted, 0.99))),
                ("max_ns", int(sorted.last().copied().unwrap_or(0))),
            ]),
        ),
        (
            "throughput",
            obj(vec![
                ("requests", int(count)),
                ("wall_ns", int(run.wall_ns)),
                (
                    "requests_per_sec",
                    Value::Float(if run.wall_ns == 0 {
                        0.0
                    } else {
                        count as f64 * 1e9 / run.wall_ns as f64
                    }),
                ),
            ]),
        ),
        ("statuses", statuses),
        (
            "checks",
            obj(vec![
                ("byte_identical", Value::Bool(run.byte_identical)),
                ("dropped_connections", int(run.dropped_connections)),
                ("backpressure_503", int(run.backpressure_503)),
            ]),
        ),
        (
            "tracing",
            obj(vec![
                ("traceparent_echoed", Value::Bool(run.traceparent_echoed)),
                ("trace_continuity", Value::Bool(run.trace_continuity)),
                ("sampled_trace_found", Value::Bool(run.sampled_trace_found)),
                ("window_p50_ns", Value::Float(run.window_p50_ns)),
                ("window_p95_ns", Value::Float(run.window_p95_ns)),
                ("window_p99_ns", Value::Float(run.window_p99_ns)),
            ]),
        ),
    ]);
    serde_json::to_string_pretty(&root).expect("Value serialization cannot fail")
}

/// Checks a `BENCH_serve.json` document against schema version 3. Returns
/// the first problem found, phrased with its JSON path.
pub fn validate_bench_serve(text: &str) -> Result<(), String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match require(&root, "schema_version", "$")? {
        Value::Int(v) if *v == BENCH_SERVE_SCHEMA_VERSION => {}
        other => {
            return Err(format!(
                "$.schema_version: expected {BENCH_SERVE_SCHEMA_VERSION}, found {other:?}"
            ))
        }
    }

    let params = require(&root, "params", "$")?;
    match require(params, "domain", "$.params")? {
        Value::Str(_) => {}
        other => {
            return Err(format!(
                "$.params.domain: expected string, found {}",
                other.kind()
            ))
        }
    }
    for key in ["listings", "seed", "clients", "requests_per_client"] {
        require_number(params, key, "$.params")?;
    }

    let latency = require(&root, "latency", "$")?;
    for key in ["count", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns"] {
        require_number(latency, key, "$.latency")?;
    }

    let throughput = require(&root, "throughput", "$")?;
    for key in ["requests", "wall_ns", "requests_per_sec"] {
        require_number(throughput, key, "$.throughput")?;
    }

    let statuses = require(&root, "statuses", "$")?;
    let Value::Map(status_entries) = statuses else {
        return Err(format!(
            "$.statuses: expected object, found {}",
            statuses.kind()
        ));
    };
    for (status, count) in status_entries {
        if !matches!(count, Value::Int(_)) {
            return Err(format!("$.statuses.{status}: expected integer count"));
        }
    }

    let checks = require(&root, "checks", "$")?;
    match require(checks, "byte_identical", "$.checks")? {
        Value::Bool(_) => {}
        other => {
            return Err(format!(
                "$.checks.byte_identical: expected bool, found {}",
                other.kind()
            ))
        }
    }
    for key in ["dropped_connections", "backpressure_503"] {
        require_number(checks, key, "$.checks")?;
    }

    let tracing = require(&root, "tracing", "$")?;
    for key in [
        "traceparent_echoed",
        "trace_continuity",
        "sampled_trace_found",
    ] {
        match require(tracing, key, "$.tracing")? {
            Value::Bool(_) => {}
            other => {
                return Err(format!(
                    "$.tracing.{key}: expected bool, found {}",
                    other.kind()
                ))
            }
        }
    }
    for key in ["window_p50_ns", "window_p95_ns", "window_p99_ns"] {
        require_number(tracing, key, "$.tracing")?;
    }
    Ok(())
}

/// Version stamp written into (and demanded from) `BENCH_infer.json`.
pub const BENCH_INFER_SCHEMA_VERSION: i64 = 2;

/// One DTD-less corpus the `lsd-infer` binary learned a schema from,
/// ready to render into `BENCH_infer.json`.
#[derive(Debug, Clone, Default)]
pub struct InferBenchCorpus {
    /// Corpus identifier, e.g. `real-estate-1/source-0`.
    pub corpus: String,
    /// Training instances (listings) in the corpus.
    pub listings: usize,
    /// Total element nodes across all instances (sum of per-element
    /// support).
    pub instances: usize,
    /// Wall-clock time of the inference call.
    pub wall_ns: u64,
    /// Elements the learned DTD declares.
    pub elements: usize,
    /// Occurrence factors (`?`/`*`/`+`) across the learned chains.
    pub generalizations: usize,
    /// Elements whose content model is the catch-all `(a | b | …)*`.
    pub fallbacks: usize,
}

impl InferBenchCorpus {
    /// Share of elements that got the catch-all (0 when the corpus
    /// declared no elements).
    pub fn fallback_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.elements as f64
        }
    }
}

/// Renders an `lsd-infer` run as the `BENCH_infer.json` document (schema
/// version 2): per-corpus inference wall time, element counts, and
/// the generalization/fallback rates CI tracks across commits.
pub fn bench_infer_json(listings: usize, seed: u64, corpora: &[InferBenchCorpus]) -> String {
    let corpora_value = Value::Map(
        corpora
            .iter()
            .map(|c| {
                (
                    c.corpus.clone(),
                    obj(vec![
                        ("listings", int(c.listings as u64)),
                        ("instances", int(c.instances as u64)),
                        ("wall_ns", int(c.wall_ns)),
                        ("wall_ms", Value::Float(c.wall_ns as f64 / 1e6)),
                        ("elements", int(c.elements as u64)),
                        ("generalizations", int(c.generalizations as u64)),
                        ("fallbacks", int(c.fallbacks as u64)),
                        ("fallback_rate", Value::Float(c.fallback_rate())),
                    ]),
                )
            })
            .collect(),
    );
    let root = obj(vec![
        ("schema_version", Value::Int(BENCH_INFER_SCHEMA_VERSION)),
        (
            "params",
            obj(vec![
                ("listings", int(listings as u64)),
                ("seed", int(seed)),
            ]),
        ),
        ("corpora", corpora_value),
    ]);
    serde_json::to_string_pretty(&root).expect("Value serialization cannot fail")
}

/// Checks a `BENCH_infer.json` document against schema version 2. Returns
/// the first problem found, phrased with its JSON path.
pub fn validate_bench_infer(text: &str) -> Result<(), String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match require(&root, "schema_version", "$")? {
        Value::Int(v) if *v == BENCH_INFER_SCHEMA_VERSION => {}
        other => {
            return Err(format!(
                "$.schema_version: expected {BENCH_INFER_SCHEMA_VERSION}, found {other:?}"
            ))
        }
    }
    let params = require(&root, "params", "$")?;
    for key in ["listings", "seed"] {
        require_number(params, key, "$.params")?;
    }
    let corpora = require(&root, "corpora", "$")?;
    let Value::Map(corpus_entries) = corpora else {
        return Err(format!(
            "$.corpora: expected object, found {}",
            corpora.kind()
        ));
    };
    if corpus_entries.is_empty() {
        return Err("$.corpora: expected at least one corpus".to_string());
    }
    for (name, corpus) in corpus_entries {
        for key in [
            "listings",
            "instances",
            "wall_ns",
            "wall_ms",
            "elements",
            "generalizations",
            "fallbacks",
            "fallback_rate",
        ] {
            require_number(corpus, key, &format!("$.corpora.{name}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_schema_valid() {
        let report = MatchReport::default();
        let params = ExperimentParams::default();
        let json = bench_match_json(&report, &params, 0);
        validate_bench_match(&json).expect("schema-valid");
    }

    #[test]
    fn validator_rejects_missing_sections() {
        assert!(validate_bench_match("{}").is_err());
        assert!(validate_bench_match("not json").is_err());
        let wrong_version = r#"{"schema_version": 2}"#;
        let err = validate_bench_match(wrong_version).expect_err("version mismatch");
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn serve_report_round_trips_through_its_validator() {
        let run = ServeBenchRun {
            domain: "real-estate-1".to_string(),
            listings: 30,
            seed: 7,
            clients: 64,
            requests_per_client: 4,
            latencies_ns: (1..=256).map(|i| i * 1_000).collect(),
            wall_ns: 2_000_000,
            statuses: vec![(200, 255), (503, 1)],
            byte_identical: true,
            dropped_connections: 0,
            backpressure_503: 1,
            traceparent_echoed: true,
            trace_continuity: true,
            sampled_trace_found: true,
            window_p50_ns: 120_000.0,
            window_p95_ns: 480_000.0,
            window_p99_ns: 900_000.0,
        };
        let json = bench_serve_json(&run);
        validate_bench_serve(&json).expect("schema-valid");
        // Exact quantiles from the full sample set, not bucket estimates.
        assert!(json.contains("\"max_ns\": 256000"), "{json}");
        assert!(json.contains("\"statuses\""), "{json}");
        assert!(json.contains("\"tracing\""), "{json}");
        assert!(json.contains("\"traceparent_echoed\": true"), "{json}");
        assert!(json.contains("\"window_p99_ns\""), "{json}");
    }

    #[test]
    fn serve_validator_rejects_defects() {
        let good = bench_serve_json(&ServeBenchRun::default());
        validate_bench_serve(&good).expect("empty run is still schema-valid");
        assert!(validate_bench_serve("{}").is_err());
        assert!(validate_bench_serve("not json").is_err());
        let err = validate_bench_serve(r#"{"schema_version": 99}"#).expect_err("version");
        assert!(err.contains("schema_version"), "{err}");
        let missing_checks = good.replace("\"checks\"", "\"cheques\"");
        let err = validate_bench_serve(&missing_checks).expect_err("missing checks");
        assert!(err.contains("checks"), "{err}");
        let missing_tracing = good.replace("\"tracing\"", "\"trancing\"");
        let err = validate_bench_serve(&missing_tracing).expect_err("missing tracing");
        assert!(err.contains("tracing"), "{err}");
    }

    #[test]
    fn infer_report_round_trips_through_its_validator() {
        let corpora = [
            InferBenchCorpus {
                corpus: "real-estate-1/source-0".to_string(),
                listings: 12,
                instances: 180,
                wall_ns: 2_500_000,
                elements: 15,
                generalizations: 4,
                fallbacks: 1,
            },
            InferBenchCorpus {
                corpus: "faculty/source-2".to_string(),
                listings: 12,
                instances: 96,
                wall_ns: 900_000,
                elements: 9,
                generalizations: 2,
                fallbacks: 0,
            },
        ];
        let json = bench_infer_json(12, 42, &corpora);
        validate_bench_infer(&json).expect("schema-valid");
        assert!(json.contains("\"real-estate-1/source-0\""), "{json}");
        assert!(json.contains("\"fallback_rate\""), "{json}");
        assert!(json.contains("\"wall_ms\""), "{json}");
    }

    #[test]
    fn infer_validator_rejects_defects() {
        assert!(validate_bench_infer("{}").is_err());
        assert!(validate_bench_infer("not json").is_err());
        let err = validate_bench_infer(r#"{"schema_version": 9}"#).expect_err("version");
        assert!(err.contains("schema_version"), "{err}");
        let empty = bench_infer_json(12, 42, &[]);
        let err = validate_bench_infer(&empty).expect_err("no corpora");
        assert!(err.contains("at least one corpus"), "{err}");
        let good = bench_infer_json(
            12,
            42,
            &[InferBenchCorpus {
                corpus: "c".to_string(),
                ..InferBenchCorpus::default()
            }],
        );
        let missing = good.replace("\"fallbacks\"", "\"fallback\"");
        let err = validate_bench_infer(&missing).expect_err("missing fallbacks");
        assert!(err.contains("fallbacks"), "{err}");
        let v1 = good.replace("\"schema_version\": 2", "\"schema_version\": 1");
        let err = validate_bench_infer(&v1).expect_err("version 1");
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn fallback_rate_guards_division_by_zero() {
        assert_eq!(InferBenchCorpus::default().fallback_rate(), 0.0);
        let c = InferBenchCorpus {
            elements: 4,
            fallbacks: 1,
            ..InferBenchCorpus::default()
        };
        assert!((c.fallback_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sorted_quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(sorted_quantile(&v, 0.0), 1);
        assert_eq!(sorted_quantile(&v, 0.5), 51);
        assert_eq!(sorted_quantile(&v, 1.0), 100);
        assert_eq!(sorted_quantile(&[], 0.5), 0);
    }
}

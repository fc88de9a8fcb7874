//! Pipeline observability reports.
//!
//! [`crate::Lsd::train_with_report`], [`crate::Lsd::match_source_with_report`]
//! and [`crate::Lsd::match_batch_with_report`] wrap the corresponding
//! pipeline entry points in an `lsd_obs::collect` scope and return these
//! snapshot types. The raw [`lsd_obs::MetricsSnapshot`] is public — the
//! accessors below only name the keys the pipeline emits, so callers and
//! the bench runner's JSON exporter don't have to hard-code strings.

use lsd_obs::MetricsSnapshot;
use serde::Serialize;

/// Everything one training run recorded: per-learner train wall time,
/// example counts and spans.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TrainReport {
    /// The full metrics snapshot of the training run.
    pub metrics: MetricsSnapshot,
}

impl TrainReport {
    /// Number of training examples the run was fed.
    pub fn examples(&self) -> u64 {
        self.metrics.counter("train.examples")
    }

    /// `(learner name, nanoseconds)` spent in each base learner's
    /// full-set `train` call. Wall-clock, so recorded as histograms — the
    /// counters stay deterministic across thread counts.
    pub fn train_nanos(&self) -> Vec<(&str, u64)> {
        self.metrics
            .histograms_labelled("learner.train_ns")
            .into_iter()
            .map(|(name, h)| (name, h.sum))
            .collect()
    }

    /// The run's spans as a Chrome trace-event JSON document (load it in
    /// Perfetto / `chrome://tracing`). See [`lsd_obs::export::chrome_trace`].
    pub fn chrome_trace(&self) -> String {
        lsd_obs::export::chrome_trace(&self.metrics)
    }
}

/// Everything one match run (single source or batch) recorded: A\* search
/// counters, constraint evaluations, per-learner predict wall time,
/// WHIRL/TF-IDF gauges, batch-queue occupancy and spans.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MatchReport {
    /// The full metrics snapshot of the match run.
    pub metrics: MetricsSnapshot,
}

impl MatchReport {
    /// A\*/beam nodes expanded across every search in the run.
    pub fn nodes_expanded(&self) -> u64 {
        self.metrics.counter("search.nodes_expanded")
    }

    /// Child nodes rejected before entering the frontier (hard-constraint
    /// infeasibility or mandatory-label deadlines).
    pub fn nodes_pruned(&self) -> u64 {
        self.metrics.counter("search.nodes_pruned")
    }

    /// Compiled constraint-set evaluations across every search in the run.
    pub fn constraint_evaluations(&self) -> u64 {
        self.metrics.counter("search.evaluations")
    }

    /// Number of sources matched.
    pub fn sources_matched(&self) -> u64 {
        self.metrics.counter("match.sources")
    }

    /// `(learner name, nanoseconds)` spent inside each base learner's
    /// `predict` calls. Wall-clock, so recorded as histograms — the
    /// counters stay deterministic across thread counts.
    pub fn predict_nanos(&self) -> Vec<(&str, u64)> {
        self.metrics
            .histograms_labelled("learner.predict_ns")
            .into_iter()
            .map(|(name, h)| (name, h.sum))
            .collect()
    }

    /// `(learner name, calls)` — how often each base learner predicted.
    pub fn predict_calls(&self) -> Vec<(&str, u64)> {
        self.metrics.counters_labelled("learner.predict_calls")
    }

    /// The run's spans as a Chrome trace-event JSON document (load it in
    /// Perfetto / `chrome://tracing`). See [`lsd_obs::export::chrome_trace`].
    pub fn chrome_trace(&self) -> String {
        lsd_obs::export::chrome_trace(&self.metrics)
    }
}

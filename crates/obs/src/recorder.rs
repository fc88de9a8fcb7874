//! Slow-request flight recorder: a bounded ring of tail-sampled traces.
//!
//! Tail sampling decides *after* a request completes whether it was
//! interesting — latency over the configured threshold, or a 4xx/5xx
//! response — and only then stores its assembled span tree as a
//! [`TraceSample`]. Healthy traffic costs nothing here beyond the
//! per-request decision branch.
//!
//! The ring is bounded ([`FlightRecorder::capacity`]): storing into a full
//! ring evicts the oldest sample and bumps the `evicted` counter, so a
//! storm of slow requests degrades to "most recent N" rather than
//! unbounded memory. Writers take one short mutex per *sampled* request —
//! "lock-free-ish" in the sense that the hot path (requests that are not
//! sampled) never touches the lock, only two relaxed atomics.

use crate::trace::{SpanId, TraceId};
use crate::SpanRecord;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One tail-sampled request: identity, outcome, and the full span tree.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSample {
    /// The request's trace id (32-hex in JSON).
    pub trace_id: TraceId,
    /// The request's own span id (16-hex in JSON), the parent-id of the
    /// `traceparent` it answered with. Two requests that continue one
    /// upstream trace share the trace id and differ here.
    pub span_id: SpanId,
    /// Route label, e.g. `"match"`.
    pub route: String,
    /// Model slug the request resolved to (empty when none).
    pub model: String,
    /// HTTP status the request answered with.
    pub status: u16,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Why the sample was kept: `"slow"`, `"error"`, or `"slow+error"`.
    pub reason: String,
    /// Unix timestamp (milliseconds) of request completion.
    pub unix_ms: u64,
    /// The spans collected for this trace, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped because the per-trace cap was hit.
    pub truncated_spans: u64,
}

/// Bounded ring of [`TraceSample`]s with eviction accounting.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<TraceSample>>,
    capacity: usize,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Maximum number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stores a sample, evicting the oldest if the ring is full.
    pub fn record(&self, sample: TraceSample) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(sample);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> Vec<TraceSample> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    /// Looks up a retained sample by trace id and, when given, the
    /// request's span id. Without a span id the most recent sample of the
    /// trace wins (requests continuing one upstream trace share its id).
    pub fn find(&self, trace_id: TraceId, span_id: Option<SpanId>) -> Option<TraceSample> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter()
            .rev()
            .find(|s| s.trace_id == trace_id && (span_id.is_none() || span_id == Some(s.span_id)))
            .cloned()
    }

    /// Total samples ever stored.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Samples evicted to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// Default ring capacity of the process-global recorder.
pub const DEFAULT_CAPACITY: usize = 256;

/// The process-global flight recorder (capacity [`DEFAULT_CAPACITY`]).
pub fn flight_recorder() -> &'static FlightRecorder {
    static REC: OnceLock<FlightRecorder> = OnceLock::new();
    REC.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::synthetic_span;

    fn sample(id: u128, total_ns: u64) -> TraceSample {
        let trace_id = TraceId(id);
        TraceSample {
            trace_id,
            span_id: SpanId(total_ns),
            route: "match".to_string(),
            model: "real-estate-1".to_string(),
            status: 200,
            total_ns,
            reason: "slow".to_string(),
            unix_ms: 0,
            spans: vec![synthetic_span(
                "serve.request",
                "",
                0,
                total_ns,
                trace_id,
                None,
            )],
            truncated_spans: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let rec = FlightRecorder::new(3);
        for i in 1..=5u128 {
            rec.record(sample(i, i as u64 * 100));
        }
        let ids: Vec<u128> = rec.samples().iter().map(|s| s.trace_id.0).collect();
        assert_eq!(ids, [3, 4, 5], "oldest evicted first");
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.evicted(), 2);
        assert_eq!(rec.capacity(), 3);
    }

    #[test]
    fn find_locates_by_trace_id() {
        let rec = FlightRecorder::new(8);
        rec.record(sample(7, 100));
        rec.record(sample(9, 200));
        assert_eq!(rec.find(TraceId(9), None).expect("found").total_ns, 200);
        assert!(rec.find(TraceId(1234), None).is_none());
    }

    #[test]
    fn find_tells_samples_of_one_trace_apart_by_span_id() {
        let rec = FlightRecorder::new(8);
        rec.record(sample(7, 100));
        rec.record(sample(7, 200));
        assert_eq!(rec.find(TraceId(7), None).expect("newest").total_ns, 200);
        let older = rec.find(TraceId(7), Some(SpanId(100))).expect("older");
        assert_eq!(older.total_ns, 100);
        assert!(rec.find(TraceId(7), Some(SpanId(300))).is_none());
    }

    #[test]
    fn samples_serialize_with_span_trees() {
        let json = serde_json::to_string(&sample(0xabc, 5_000)).expect("serializable");
        assert!(json.contains("\"trace_id\":\"00000000000000000000000000000abc\""));
        assert!(json.contains("\"span_id\":\"0000000000001388\""));
        assert!(json.contains("\"spans\""));
        assert!(json.contains("serve.request"));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let rec = FlightRecorder::new(0);
        rec.record(sample(1, 10));
        rec.record(sample(2, 20));
        assert_eq!(rec.samples().len(), 1);
        assert_eq!(rec.evicted(), 1);
    }
}

//! Request-scoped trace contexts and the active-trace span collector.
//!
//! A [`TraceContext`] identifies one request end-to-end: a 128-bit trace id
//! plus the 64-bit id of the current span within it, in the shape of the
//! W3C Trace Context `traceparent` header (`00-<trace>-<span>-<flags>`), so
//! callers can ingest upstream contexts and propagate their own.
//!
//! Two mechanisms thread the context through the pipeline:
//!
//! * **Thread-local scope** — [`TraceScope::enter`] marks the context as
//!   current for the calling thread; every [`SpanGuard`](crate::SpanGuard)
//!   opened while a scope is active stamps its [`SpanRecord`] with the
//!   trace id, and the closed record is mirrored into the trace's span
//!   list. Scopes nest and restore the previous context on drop, so a
//!   worker can flip between jobs cheaply.
//! * **Explicit attachment** — an interval that starts on one thread and
//!   ends on another (a serve job's queue wait, from enqueue on the
//!   connection thread to claim on a worker) cannot sit inside a single
//!   guard. [`attach`] appends a synthetic [`SpanRecord`] (built with
//!   [`synthetic_span`]) to any live trace, so the interval shows up in
//!   the request's span tree with its true start and duration.
//!
//! Traces are tracked between [`begin`] and [`finish`], keyed by the
//! request's own context (trace id *and* span id), so two requests that
//! continue one upstream trace keep separate span trees. `finish` returns
//! the collected spans (sorted by start time) for the caller to render,
//! tail-sample into the [`FlightRecorder`](crate::FlightRecorder), or
//! drop. The collector is bounded: at most [`MAX_ACTIVE_TRACES`] live
//! traces and [`MAX_SPANS_PER_TRACE`] spans per trace — beyond either
//! limit spans are counted but not stored, never unbounded memory.

use crate::{now_ns, SpanRecord};
use serde::{Serialize, Value};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// 128-bit trace identifier. Displays (and serializes) as the 32 lowercase
/// hex digits used in `traceparent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::str::FromStr for TraceId {
    type Err = ();

    /// Parses exactly 32 lowercase/uppercase hex digits; the all-zero id is
    /// rejected (the W3C spec reserves it as "invalid").
    fn from_str(s: &str) -> Result<TraceId, ()> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(());
        }
        match u128::from_str_radix(s, 16) {
            Ok(0) | Err(_) => Err(()),
            Ok(v) => Ok(TraceId(v)),
        }
    }
}

impl Serialize for TraceId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// 64-bit span identifier. Displays (and serializes) as the 16 lowercase
/// hex digits of a `traceparent`'s parent-id field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for SpanId {
    type Err = ();

    /// Parses exactly 16 lowercase/uppercase hex digits; the all-zero id is
    /// rejected (the W3C spec reserves it as "invalid").
    fn from_str(s: &str) -> Result<SpanId, ()> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(());
        }
        match u64::from_str_radix(s, 16) {
            Ok(0) | Err(_) => Err(()),
            Ok(v) => Ok(SpanId(v)),
        }
    }
}

impl Serialize for SpanId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// One request's position in a distributed trace: which trace it belongs
/// to, which span represents it, and whether the upstream asked for it to
/// be sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 128-bit trace this request belongs to.
    pub trace_id: TraceId,
    /// The 64-bit id of the request's root span (the `parent-id` field of
    /// an outgoing `traceparent`).
    pub span_id: u64,
    /// The `sampled` flag from the upstream `traceparent` (set for
    /// generated contexts).
    pub sampled: bool,
}

/// Cheap process-local entropy: the std `RandomState` per-process seed
/// hashed with a monotonically increasing counter and the current clock.
/// Not cryptographic — collision-resistant enough for trace ids.
fn entropy(stream: u64) -> u64 {
    static STATE: OnceLock<std::collections::hash_map::RandomState> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0x9e37_79b9);
    let mut h = STATE.get_or_init(Default::default).build_hasher();
    h.write_u64(stream);
    h.write_u64(COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed));
    h.write_u64(now_ns());
    h.finish()
}

impl TraceContext {
    /// A fresh context with random non-zero trace and span ids, sampled.
    pub fn generate() -> TraceContext {
        let hi = entropy(1);
        let lo = entropy(2);
        let trace_id = TraceId((u128::from(hi) << 64 | u128::from(lo)).max(1));
        TraceContext {
            trace_id,
            span_id: entropy(3).max(1),
            sampled: true,
        }
    }

    /// Parses a W3C `traceparent` header value
    /// (`{version}-{trace-id}-{parent-id}-{flags}`). Returns `None` for
    /// malformed values, the reserved version `ff`, or all-zero ids —
    /// callers fall back to [`generate`](TraceContext::generate).
    pub fn from_traceparent(value: &str) -> Option<TraceContext> {
        let mut parts = value.trim().split('-');
        let version = parts.next()?;
        if version.len() != 2 || !version.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        if version.eq_ignore_ascii_case("ff") {
            return None;
        }
        let trace_id: TraceId = parts.next()?.parse().ok()?;
        let SpanId(span_id) = parts.next()?.parse().ok()?;
        let flags = parts.next()?;
        if flags.len() != 2 || !flags.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let sampled = u8::from_str_radix(flags, 16).ok()? & 1 == 1;
        Some(TraceContext {
            trace_id,
            span_id,
            sampled,
        })
    }

    /// Renders the context as a version-00 `traceparent` header value.
    pub fn to_traceparent(&self) -> String {
        format!(
            "00-{}-{:016x}-{:02x}",
            self.trace_id,
            self.span_id,
            u8::from(self.sampled)
        )
    }

    /// The same trace with a fresh span id — the context a child unit of
    /// work propagates onward.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: entropy(4).max(1),
            sampled: self.sampled,
        }
    }
}

thread_local! {
    /// The trace context current on this thread, if any.
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context current on this thread, if a [`TraceScope`] is active.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// Marks a [`TraceContext`] as current for the enclosing scope; restores
/// the previous context (scopes nest) on drop.
#[must_use = "the scope ends when this guard drops"]
pub struct TraceScope {
    previous: Option<TraceContext>,
}

impl TraceScope {
    /// Enters `context` on the calling thread.
    pub fn enter(context: TraceContext) -> TraceScope {
        TraceScope {
            previous: CURRENT.with(|c| c.replace(Some(context))),
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous.take()));
    }
}

/// Upper bound on concurrently tracked traces. A request arriving beyond
/// it is simply not tracked (its spans still reach the metric registry).
pub const MAX_ACTIVE_TRACES: usize = 1024;

/// Upper bound on spans stored per trace; extra spans are counted in the
/// trace's `truncated` tally but not stored.
pub const MAX_SPANS_PER_TRACE: usize = 256;

#[derive(Default)]
struct ActiveTrace {
    spans: Vec<SpanRecord>,
    truncated: u64,
}

/// A live trace's key: the trace id plus the request's own span id.
type ActiveKey = (u128, u64);

fn key(context: &TraceContext) -> ActiveKey {
    (context.trace_id.0, context.span_id)
}

fn active() -> &'static Mutex<HashMap<ActiveKey, ActiveTrace>> {
    static ACTIVE: OnceLock<Mutex<HashMap<ActiveKey, ActiveTrace>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Starts tracking `context`. Returns `false` (and tracks nothing) when
/// [`MAX_ACTIVE_TRACES`] traces are already live or this context is
/// already tracked — the request still runs, it just cannot be sampled.
pub fn begin(context: &TraceContext) -> bool {
    let mut map = active().lock().unwrap_or_else(|e| e.into_inner());
    if map.len() >= MAX_ACTIVE_TRACES || map.contains_key(&key(context)) {
        return false;
    }
    map.insert(key(context), ActiveTrace::default());
    true
}

/// Appends a span record to the live trace of `context`; a no-op for
/// untracked contexts.
pub fn attach(context: &TraceContext, record: SpanRecord) {
    let mut map = active().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = map.get_mut(&key(context)) {
        if entry.spans.len() < MAX_SPANS_PER_TRACE {
            entry.spans.push(record);
        } else {
            entry.truncated += 1;
        }
    }
}

/// Stops tracking `context` and returns `(spans sorted by start, spans
/// dropped over the per-trace cap)`. Untracked contexts yield `([], 0)`.
pub fn finish(context: &TraceContext) -> (Vec<SpanRecord>, u64) {
    let entry = {
        let mut map = active().lock().unwrap_or_else(|e| e.into_inner());
        map.remove(&key(context))
    };
    match entry {
        Some(mut entry) => {
            entry.spans.sort_by_key(|s| (s.start_ns, s.id));
            (entry.spans, entry.truncated)
        }
        None => (Vec::new(), 0),
    }
}

/// Builds a synthetic [`SpanRecord`] — a span measured outside the
/// [`SpanGuard`](crate::SpanGuard) machinery, e.g. queue wait reconstructed
/// from an enqueue timestamp — ready for [`attach`]. `start_ns` is an
/// offset from the process timing epoch (see [`now_ns`]).
pub fn synthetic_span(
    name: &'static str,
    label: &'static str,
    start_ns: u64,
    duration_ns: u64,
    trace_id: TraceId,
    parent: Option<u64>,
) -> SpanRecord {
    SpanRecord {
        name,
        label,
        id: crate::alloc_span_id(),
        parent,
        thread: crate::current_thread_ordinal(),
        start_ns,
        duration_ns,
        trace: Some(trace_id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext {
            trace_id: TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c),
            span_id: 0x00f0_67aa_0ba9_02b7,
            sampled: true,
        };
        let header = ctx.to_traceparent();
        assert_eq!(
            header,
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"
        );
        assert_eq!(TraceContext::from_traceparent(&header), Some(ctx));
    }

    #[test]
    fn malformed_traceparents_are_rejected() {
        for bad in [
            "",
            "garbage",
            "00-short-00f067aa0ba902b7-01",
            // all-zero trace id is reserved
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            // all-zero parent id is reserved
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
            // version ff is reserved
            "ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-zz",
            "00-zzf7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
        ] {
            assert_eq!(TraceContext::from_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn unsampled_flag_parses() {
        let ctx = TraceContext::from_traceparent(
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-00",
        )
        .expect("valid");
        assert!(!ctx.sampled);
    }

    #[test]
    fn generated_contexts_are_distinct_and_nonzero() {
        let a = TraceContext::generate();
        let b = TraceContext::generate();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.trace_id.0, 0);
        assert_ne!(a.span_id, 0);
        assert!(a.sampled);
        // And they survive their own header rendering.
        assert_eq!(TraceContext::from_traceparent(&a.to_traceparent()), Some(a));
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current(), None);
        let outer = TraceContext::generate();
        let inner = TraceContext::generate();
        {
            let _o = TraceScope::enter(outer);
            assert_eq!(current(), Some(outer));
            {
                let _i = TraceScope::enter(inner);
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn begin_attach_finish_collects_spans_in_start_order() {
        let ctx = TraceContext::generate();
        assert!(begin(&ctx));
        assert!(!begin(&ctx), "double-begin is rejected");
        attach(&ctx, synthetic_span("b", "", 20, 5, ctx.trace_id, None));
        attach(&ctx, synthetic_span("a", "", 10, 5, ctx.trace_id, None));
        let (spans, truncated) = finish(&ctx);
        assert_eq!(truncated, 0);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b"], "sorted by start_ns");
        assert!(spans.iter().all(|s| s.trace == Some(ctx.trace_id)));
        // Finished traces are gone.
        assert_eq!(finish(&ctx).0.len(), 0);
    }

    #[test]
    fn per_trace_span_cap_counts_overflow() {
        let ctx = TraceContext::generate();
        assert!(begin(&ctx));
        for i in 0..(MAX_SPANS_PER_TRACE as u64 + 7) {
            attach(&ctx, synthetic_span("s", "", i, 1, ctx.trace_id, None));
        }
        let (spans, truncated) = finish(&ctx);
        assert_eq!(spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(truncated, 7);
    }

    #[test]
    fn scoped_spans_are_stamped_and_collected() {
        let ctx = TraceContext::generate();
        assert!(begin(&ctx));
        let ((), _snap) = crate::collect(|| {
            let _scope = TraceScope::enter(ctx);
            let _outer = crate::span!("traced.outer");
            let _inner = crate::span!("traced.inner");
        });
        let (spans, _) = finish(&ctx);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(
            names.contains(&"traced.outer") && names.contains(&"traced.inner"),
            "{names:?}"
        );
        assert!(spans.iter().all(|s| s.trace == Some(ctx.trace_id)));
    }

    #[test]
    fn requests_continuing_one_upstream_trace_keep_separate_trees() {
        // Two requests carrying the same client `traceparent` share a trace
        // id; each gets its own span id, and so its own tree.
        let upstream = TraceContext::generate();
        let (a, b) = (upstream.child(), upstream.child());
        assert!(begin(&a), "request A is tracked");
        assert!(begin(&b), "request B is tracked too");
        let ((), _snap) = crate::collect(|| {
            let _a = TraceScope::enter(a);
            let _span_a = crate::span!("request.a");
            let _b = TraceScope::enter(b);
            let _span_b = crate::span!("request.b");
        });
        attach(&b, synthetic_span("wait.b", "", 0, 1, b.trace_id, None));
        let names = |ctx: &TraceContext| -> Vec<&str> {
            let mut names: Vec<&str> = finish(ctx).0.iter().map(|s| s.name).collect();
            names.sort_unstable();
            names
        };
        assert_eq!(names(&a), ["request.a"]);
        assert_eq!(names(&b), ["request.b", "wait.b"]);
    }
}

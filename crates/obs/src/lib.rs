//! Zero-dependency observability for the LSD pipeline.
//!
//! Two instruments, one aggregation strategy:
//!
//! * **Spans** — [`span!`] opens a lightweight tracing span with monotonic
//!   timing, a thread ordinal, and parent nesting (tracked per thread via a
//!   span stack). Every closed span is folded into a duration histogram
//!   keyed `span/<name>`; under a tracked request it also joins that
//!   request's trace (see [`trace`]). The span record itself is kept only
//!   while a [`collect`] run is active, so a long-lived process that merely
//!   [`set_enabled`] keeps no growing span log.
//! * **Metrics** — [`counter_add`], [`gauge_max`] and [`record_value`] feed a
//!   registry of counters, high-watermark gauges and histogram summaries
//!   (`{count, sum, min, max}` plus log2-bucket p50/p95/p99 estimates) keyed
//!   by `(name, label)` pairs of `&'static str`.
//!
//! The [`export`] module turns a [`MetricsSnapshot`] into text other tools
//! can read: Chrome trace-event JSON for Perfetto / `chrome://tracing`, and
//! the Prometheus exposition format.
//!
//! Besides the pipeline's own probes (A\* search counters, per-learner
//! train/predict timings, CV fold counts, batch-queue occupancy), the
//! static-analysis gate in `lsd-core` records warning-severity diagnostics
//! here: `analysis.warnings` counts them in total, and
//! `analysis.diagnostics` is labelled per code (flattened to
//! `analysis.diagnostics/LSD003`-style keys in the snapshot).
//!
//! # Shard-and-merge aggregation
//!
//! Probes write to a **thread-local shard** — no locks, no shared cache lines
//! in the hot loop. Shards drain into a process-wide aggregate at two points:
//! when a thread exits (the shard's TLS destructor fires) and when the
//! owning thread calls [`flush`] explicitly. Worker threads must be joined
//! through their `JoinHandle`s (as `parallel_map` in `lsd-learn` does) or
//! call [`flush`] before returning: `std::thread::scope`'s *implicit* wait
//! unblocks before TLS destructors run, so data recorded by an unjoined
//! scope worker can miss the snapshot. [`collect`] wraps a closure with
//! the full lifecycle: bump the epoch (invalidating any stale shard contents
//! left over from a previous collection), enable recording, run the closure,
//! flush the calling thread, and return a [`MetricsSnapshot`] of everything
//! the closure's thread tree recorded.
//!
//! # Disabled-mode cost
//!
//! Every probe starts with one `Relaxed` load of a global `AtomicBool` and
//! returns immediately when observability is off — no TLS access, no
//! allocation, no time reads. [`span!`] yields a guard wrapping `None`, whose
//! drop is a single branch.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use serde::{Serialize, Value};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod export;
pub mod recorder;
pub mod trace;
pub mod window;

pub use recorder::{flight_recorder, FlightRecorder, TraceSample};
pub use trace::{SpanId, TraceContext, TraceId, TraceScope};
pub use window::{window_record, window_record_duration, window_snapshot, RollingWindow};

/// Global on/off switch. Off by default; [`collect`] turns it on for the
/// duration of the wrapped closure.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Collection epoch. Shards stamped with an older epoch are cleared on next
/// use instead of leaking data from a previous [`collect`] call.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// True while a [`collect`] run is active. Closed spans are logged as
/// [`SpanRecord`]s only then; otherwise they feed just their duration
/// histogram and their request's trace.
static COLLECTING: AtomicBool = AtomicBool::new(false);

/// Dense thread ordinals for span records (thread names are not guaranteed
/// and `ThreadId` has no stable integer form on older toolchains).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Globally unique span ids, so parent links survive the shard merge.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// The instant all span start offsets are measured from.
fn process_epoch() -> Instant {
    static T: OnceLock<Instant> = OnceLock::new();
    *T.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process-wide timing epoch — the clock all
/// span `start_ns` offsets are measured on, exposed so callers can build
/// synthetic spans (see [`trace::synthetic_span`]) on the same timeline.
pub fn now_ns() -> u64 {
    process_epoch().elapsed().as_nanos() as u64
}

/// Allocates a fresh globally unique span id (for synthetic spans).
pub(crate) fn alloc_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Whole seconds elapsed since the process timing epoch (the clock the
/// rolling windows stamp their one-second slots with).
pub(crate) fn process_epoch_secs() -> u64 {
    process_epoch().elapsed().as_secs()
}

/// This thread's dense ordinal (`u64::MAX` during TLS teardown).
pub(crate) fn current_thread_ordinal() -> u64 {
    with_shard(|s| s.thread).unwrap_or(u64::MAX)
}

type Key = (&'static str, &'static str);

/// A closed span: timing, thread ordinal and parent link.
///
/// `parent` is the [`SpanRecord::id`] of the span that was open on the same
/// thread when this one was entered, or `None` for a root span.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// Static span name, e.g. `"train.base_learners"`.
    pub name: &'static str,
    /// Optional static label, e.g. a learner name. Empty when unused.
    pub label: &'static str,
    /// Globally unique id (unique within one process run).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Dense ordinal of the recording thread.
    pub thread: u64,
    /// Start offset in nanoseconds from the process-wide timing epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// The request trace this span belongs to, when it closed under an
    /// active [`TraceScope`] (or was attached explicitly).
    pub trace: Option<TraceId>,
}

/// Number of log2 magnitude buckets backing the quantile estimates: bucket 0
/// holds the value 0, bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
const LOG2_BUCKETS: usize = 65;

/// `{count, sum, min, max}` summary of recorded `u64` samples, plus a log2
/// magnitude histogram for p50/p95/p99 estimates.
///
/// Quantiles are estimated by locating the target rank's bucket and
/// interpolating linearly inside it, then clamping to `[min, max]` — exact
/// for the extremes, within a factor of two elsewhere, which is plenty for
/// nanosecond span durations spread over many orders of magnitude.
///
/// Serializes as `{count, sum, min, max, mean, p50, p95, p99}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sample counts per log2 magnitude bucket.
    buckets: [u64; LOG2_BUCKETS],
}

fn log2_bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl HistogramSummary {
    /// A summary with no samples. `min` holds `u64::MAX` until the first
    /// [`observe`](HistogramSummary::observe); all accessors treat the
    /// empty summary as zeros.
    pub fn empty() -> Self {
        HistogramSummary {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0u64; LOG2_BUCKETS],
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[log2_bucket(v)] += 1;
    }

    /// Folds another summary into this one. Merging is **exact** (not an
    /// approximation): log2 buckets, count, sum, min and max all combine
    /// losslessly, so merging per-shard summaries equals summarizing the
    /// concatenated stream.
    pub fn merge_from(&mut self, other: &HistogramSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (slot, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += n;
        }
    }

    /// Summarizes a full sample stream.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut h = HistogramSummary::empty();
        for v in samples {
            h.observe(v);
        }
        h
    }

    /// Per-bucket sample counts. Bucket 0 holds the value 0; bucket
    /// `i >= 1` holds values in `[2^(i-1), 2^i)`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive upper bound of log2 bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    fn new(v: u64) -> Self {
        let mut h = HistogramSummary::empty();
        h.observe(v);
        h
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]` (0 when empty). `quantile(0.0)`
    /// is `min` and `quantile(1.0)` is `max`; in between the estimate
    /// interpolates within the target rank's log2 bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < seen + n {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    0u64
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                let within = if n <= 1 {
                    0.0
                } else {
                    (rank - seen) as f64 / (n - 1) as f64
                };
                let est = lo as f64 + within * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl Serialize for HistogramSummary {
    fn to_value(&self) -> Value {
        let int = |v: u64| Value::Int(v as i64);
        Value::Map(vec![
            ("count".to_string(), int(self.count)),
            ("sum".to_string(), int(self.sum)),
            (
                "min".to_string(),
                int(if self.count == 0 { 0 } else { self.min }),
            ),
            ("max".to_string(), int(self.max)),
            ("mean".to_string(), Value::Float(self.mean())),
            ("p50".to_string(), int(self.p50())),
            ("p95".to_string(), int(self.p95())),
            ("p99".to_string(), int(self.p99())),
        ])
    }
}

#[derive(Default)]
struct Tables {
    counters: HashMap<Key, u64>,
    gauges: HashMap<Key, u64>,
    histograms: HashMap<Key, HistogramSummary>,
    spans: Vec<SpanRecord>,
}

impl Tables {
    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

struct Shard {
    epoch: u64,
    thread: u64,
    tables: Tables,
    /// Ids of spans currently open on this thread, innermost last.
    open_spans: Vec<u64>,
}

impl Shard {
    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.tables = Tables::default();
        self.open_spans.clear();
    }
}

/// Merges the shard into the global aggregate on thread exit.
struct ShardHolder(Shard);

impl Drop for ShardHolder {
    fn drop(&mut self) {
        merge_into_global(&mut self.0);
    }
}

thread_local! {
    static SHARD: RefCell<ShardHolder> = RefCell::new(ShardHolder(Shard {
        epoch: 0,
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        tables: Tables::default(),
        open_spans: Vec::new(),
    }));
}

fn global() -> &'static Mutex<Tables> {
    static GLOBAL: OnceLock<Mutex<Tables>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Tables::default()))
}

fn merge_into_global(shard: &mut Shard) {
    if shard.tables.is_empty() || shard.epoch != EPOCH.load(Ordering::Relaxed) {
        shard.tables = Tables::default();
        return;
    }
    let mut tables = Tables::default();
    std::mem::swap(&mut tables, &mut shard.tables);
    let mut agg = global().lock().unwrap_or_else(|e| e.into_inner());
    for (k, v) in tables.counters {
        *agg.counters.entry(k).or_insert(0) += v;
    }
    for (k, v) in tables.gauges {
        let slot = agg.gauges.entry(k).or_insert(0);
        *slot = (*slot).max(v);
    }
    for (k, v) in tables.histograms {
        agg.histograms
            .entry(k)
            .and_modify(|h| h.merge_from(&v))
            .or_insert(v);
    }
    agg.spans.extend(tables.spans);
}

/// Runs `f` on this thread's shard, resetting it first if it belongs to a
/// previous collection epoch. Returns `None` during TLS teardown.
fn with_shard<R>(f: impl FnOnce(&mut Shard) -> R) -> Option<R> {
    SHARD
        .try_with(|cell| {
            let mut holder = cell.borrow_mut();
            let epoch = EPOCH.load(Ordering::Relaxed);
            if holder.0.epoch != epoch {
                holder.0.reset(epoch);
            }
            f(&mut holder.0)
        })
        .ok()
}

/// True when probes are recording. One `Relaxed` atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off globally. Prefer [`collect`], which also
/// isolates the data of one run; this is the escape hatch for long-lived
/// recording (e.g. a server exporting metrics periodically). Recording
/// switched on here logs no span records, only their histograms and traces.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Adds `n` to the counter `(name, label)`. No-op when disabled.
#[inline]
pub fn counter_add(name: &'static str, label: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    with_shard(|s| *s.tables.counters.entry((name, label)).or_insert(0) += n);
}

/// Raises the high-watermark gauge `(name, label)` to at least `v`.
/// Gauges merge by maximum so the snapshot reports the peak across all
/// threads. No-op when disabled.
#[inline]
pub fn gauge_max(name: &'static str, label: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with_shard(|s| {
        let slot = s.tables.gauges.entry((name, label)).or_insert(0);
        *slot = (*slot).max(v);
    });
}

/// Records one sample into the histogram `(name, label)`. No-op when
/// disabled.
#[inline]
pub fn record_value(name: &'static str, label: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with_shard(|s| {
        s.tables
            .histograms
            .entry((name, label))
            .and_modify(|h| h.observe(v))
            .or_insert_with(|| HistogramSummary::new(v));
    });
}

/// Records an elapsed duration (nanoseconds) into the histogram
/// `(name, label)`. No-op when disabled.
#[inline]
pub fn record_duration(name: &'static str, label: &'static str, elapsed: std::time::Duration) {
    record_value(name, label, elapsed.as_nanos() as u64);
}

/// Opens a tracing span; prefer the [`span!`] macro.
///
/// The guard records the span when dropped. When observability is disabled
/// the guard is inert and costs one branch on drop.
pub struct SpanGuard {
    data: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    label: &'static str,
    id: u64,
    parent: Option<u64>,
    epoch: u64,
    start: Instant,
    start_ns: u64,
    trace: Option<TraceContext>,
}

impl SpanGuard {
    /// Enters a span named `name` with an optional static `label`.
    pub fn enter(name: &'static str, label: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { data: None };
        }
        let start = Instant::now();
        let start_ns = start.duration_since(process_epoch()).as_nanos() as u64;
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let info = with_shard(|s| {
            let parent = s.open_spans.last().copied();
            s.open_spans.push(id);
            (parent, s.epoch)
        });
        let Some((parent, epoch)) = info else {
            return SpanGuard { data: None };
        };
        SpanGuard {
            data: Some(OpenSpan {
                name,
                label,
                id,
                parent,
                epoch,
                start,
                start_ns,
                trace: trace::current(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.data.take() else {
            return;
        };
        let duration_ns = open.start.elapsed().as_nanos() as u64;
        with_shard(|s| {
            // If the epoch rolled over mid-span (a new `collect` started),
            // the shard was cleared; drop the record rather than emit a span
            // whose parent no longer exists.
            if s.epoch != open.epoch {
                return;
            }
            if let Some(pos) = s.open_spans.iter().rposition(|&id| id == open.id) {
                s.open_spans.truncate(pos);
            }
            let record = SpanRecord {
                name: open.name,
                label: open.label,
                id: open.id,
                parent: open.parent,
                thread: s.thread,
                start_ns: open.start_ns,
                duration_ns,
                trace: open.trace.map(|ctx| ctx.trace_id),
            };
            s.tables
                .histograms
                .entry(("span", open.name))
                .and_modify(|h| h.observe(duration_ns))
                .or_insert_with(|| HistogramSummary::new(duration_ns));
            if let Some(ctx) = &open.trace {
                trace::attach(ctx, record.clone());
            }
            if COLLECTING.load(Ordering::Relaxed) {
                s.tables.spans.push(record);
            }
        });
    }
}

/// Opens a tracing span for the enclosing scope.
///
/// ```
/// let _span = lsd_obs::span!("train.base_learners");
/// let _labeled = lsd_obs::span!("learner.train", "naive_bayes");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, "")
    };
    ($name:expr, $label:expr) => {
        $crate::SpanGuard::enter($name, $label)
    };
}

/// Merges this thread's shard into the global aggregate immediately.
///
/// Worker threads merge automatically on exit; the thread driving a
/// collection calls this (via [`collect`]) before snapshotting.
pub fn flush() {
    with_shard(merge_into_global);
}

/// Everything one [`collect`] run recorded, with keys flattened to
/// `name` / `name/label` strings (deterministically ordered).
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Monotonic event counts, summed across threads.
    pub counters: BTreeMap<String, u64>,
    /// High-watermark gauges, max-merged across threads.
    pub gauges: BTreeMap<String, u64>,
    /// Sample summaries (durations in nanoseconds unless noted).
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Rolling 60-second window summaries (see [`window`]) for the series
    /// fed through [`window_record`], which also land in `histograms`.
    /// Only filled by [`snapshot`] — the
    /// windows are wall-clock-based and meaningless for a batch
    /// [`collect`] run.
    pub windows: BTreeMap<String, HistogramSummary>,
    /// Closed spans in merge order. Ids and timings vary run to run.
    /// Only filled by [`collect`]: outside a collection no span is logged.
    pub spans: Vec<SpanRecord>,
}

pub(crate) fn flat_key(key: &Key) -> String {
    if key.1.is_empty() {
        key.0.to_string()
    } else {
        format!("{}/{}", key.0, key.1)
    }
}

impl MetricsSnapshot {
    /// Counter value for a flattened key (`"astar.nodes_expanded"` or
    /// `"learner.predict_calls/naive_bayes"`); 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Gauge value for a flattened key, if recorded.
    pub fn gauge(&self, key: &str) -> Option<u64> {
        self.gauges.get(key).copied()
    }

    /// Histogram summary for a flattened key, if recorded. Span durations
    /// appear under `"span/<name>"`.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSummary> {
        self.histograms.get(key)
    }

    /// `(suffix, value)` pairs of all counters whose key starts with
    /// `prefix + "/"` — e.g. `counters_labelled("learner.predict_ns")`
    /// yields one entry per learner.
    pub fn counters_labelled(&self, prefix: &str) -> Vec<(&str, u64)> {
        let want = format!("{prefix}/");
        self.counters
            .iter()
            .filter_map(|(k, &v)| k.strip_prefix(&want).map(|s| (s, v)))
            .collect()
    }

    /// `(suffix, summary)` pairs of all histograms whose key starts with
    /// `prefix + "/"` — e.g. `histograms_labelled("learner.train_ns")`
    /// yields one summary per learner.
    pub fn histograms_labelled(&self, prefix: &str) -> Vec<(&str, &HistogramSummary)> {
        let want = format!("{prefix}/");
        self.histograms
            .iter()
            .filter_map(|(k, h)| k.strip_prefix(&want).map(|s| (s, h)))
            .collect()
    }

    /// The deterministic subset (counters and gauges only — histograms and
    /// spans carry wall-clock measurements that vary run to run). Two runs
    /// of the same deterministic pipeline must produce equal values here
    /// regardless of thread count.
    pub fn deterministic_view(&self) -> (&BTreeMap<String, u64>, &BTreeMap<String, u64>) {
        (&self.counters, &self.gauges)
    }

    fn from_tables(tables: &Tables) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: tables
                .counters
                .iter()
                .map(|(k, &v)| (flat_key(k), v))
                .collect(),
            gauges: tables
                .gauges
                .iter()
                .map(|(k, &v)| (flat_key(k), v))
                .collect(),
            histograms: tables
                .histograms
                .iter()
                .map(|(k, &v)| (flat_key(k), v))
                .collect(),
            windows: BTreeMap::new(),
            spans: Vec::new(),
        }
    }
}

thread_local! {
    /// True while this thread is inside the closure of an active
    /// [`collect`] call. Used to reject same-thread nesting before touching
    /// the collection lock (which is not reentrant — a nested lock attempt
    /// would deadlock).
    static IN_COLLECT: Cell<bool> = const { Cell::new(false) };
}

/// Restores the enabled flag, the collecting flag and the in-collect marker
/// even if the wrapped closure panics, so a failed collection cannot poison
/// later ones.
struct CollectRestore {
    was_enabled: bool,
}

impl Drop for CollectRestore {
    fn drop(&mut self) {
        COLLECTING.store(false, Ordering::SeqCst);
        ENABLED.store(self.was_enabled, Ordering::SeqCst);
        IN_COLLECT.with(|c| c.set(false));
    }
}

/// Records everything `f` (and the threads it spawns and joins) does, and
/// returns `f`'s result with the snapshot.
///
/// Collections are serialized process-wide: concurrent `collect` calls from
/// *different* threads run one after another so their data cannot
/// interleave. A nested call on the *same* thread (from inside `f`) is a
/// programming error — it would reset the outer run's tables mid-flight —
/// and panics without running its closure; the outer run carries on.
/// Worker threads created inside `f` with `std::thread::scope` merge their
/// shards when they exit, i.e. before `f` returns; threads that outlive `f`
/// contribute whatever they flushed in time.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    if IN_COLLECT.with(Cell::get) {
        panic!(
            "lsd_obs::collect called inside an active collection on the same thread; \
             nested collections would reset the outer run's data (record into the \
             outer collection instead, or collect from a separate thread)"
        );
    }
    let _guard = COLLECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    collect_locked(f)
}

/// Serializes collections process-wide.
static COLLECT_LOCK: Mutex<()> = Mutex::new(());

/// The body of [`collect`]; the caller holds [`COLLECT_LOCK`].
fn collect_locked<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    EPOCH.fetch_add(1, Ordering::SeqCst);
    {
        let mut agg = global().lock().unwrap_or_else(|e| e.into_inner());
        *agg = Tables::default();
    }
    IN_COLLECT.with(|c| c.set(true));
    let restore = CollectRestore {
        was_enabled: ENABLED.swap(true, Ordering::SeqCst),
    };
    COLLECTING.store(true, Ordering::SeqCst);
    let result = f();
    flush();
    drop(restore);
    let snapshot = {
        let mut agg = global().lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = MetricsSnapshot::from_tables(&agg);
        snap.spans = std::mem::take(&mut agg.spans);
        snap
    };
    (result, snapshot)
}

/// Snapshots the global aggregate **without** resetting it — the companion
/// to [`set_enabled`] for long-lived recording (a server scraping its own
/// metrics periodically). The calling thread's shard is flushed first;
/// counters, gauges and histograms stay in place and keep accumulating
/// (cumulative, Prometheus-style). The snapshot carries no spans: their
/// durations are in the `span/<name>` histograms, and only [`collect`]
/// returns the span records.
///
/// Inside a [`collect`] run prefer the snapshot `collect` returns; calling
/// this mid-collection observes the partial aggregate (merged shards only).
pub fn snapshot() -> MetricsSnapshot {
    flush();
    let mut snap = {
        let agg = global().lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot::from_tables(&agg)
    };
    snap.windows = window::window_snapshot();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        let (_, snap) = collect(|| ());
        assert!(snap.counters.is_empty());
        counter_add("ghost", "", 7);
        let (_, snap) = collect(|| ());
        assert_eq!(snap.counter("ghost"), 0, "pre-collect data must not leak");
    }

    /// Spawns workers in a scope and joins each handle explicitly —
    /// `JoinHandle::join` waits for the worker's TLS destructors (where the
    /// shard merge happens), while the scope's implicit wait does not.
    fn scoped_join(workers: impl IntoIterator<Item = Box<dyn Fn() + Send + Sync>>) {
        let workers: Vec<_> = workers.into_iter().collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers.iter().map(|w| scope.spawn(w)).collect();
            for h in handles {
                h.join().expect("worker");
            }
        });
    }

    #[test]
    fn counters_sum_across_scoped_threads() {
        let (_, snap) = collect(|| {
            scoped_join((0..4).map(|_| {
                Box::new(|| counter_add("work.items", "", 10)) as Box<dyn Fn() + Send + Sync>
            }));
            counter_add("work.items", "", 2);
        });
        assert_eq!(snap.counter("work.items"), 42);
    }

    #[test]
    fn gauges_take_the_maximum() {
        let (_, snap) = collect(|| {
            gauge_max("cache.size", "", 5);
            gauge_max("cache.size", "", 3);
            scoped_join([
                Box::new(|| gauge_max("cache.size", "", 9)) as Box<dyn Fn() + Send + Sync>
            ]);
        });
        assert_eq!(snap.gauge("cache.size"), Some(9));
    }

    #[test]
    fn histograms_summarize_samples() {
        let (_, snap) = collect(|| {
            for v in [4, 2, 9] {
                record_value("queue.depth", "", v);
            }
        });
        let h = snap.histogram("queue.depth").expect("recorded");
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 15, 2, 9));
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_exact_at_the_extremes_and_sane_in_between() {
        let (_, snap) = collect(|| {
            for v in 1..=100u64 {
                record_value("lat", "", v);
            }
        });
        let h = snap.histogram("lat").expect("recorded");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
        // Log2 buckets bound the estimate within a factor of two.
        let p50 = h.p50();
        assert!((25..=100).contains(&p50), "p50 estimate {p50}");
        let p99 = h.p99();
        assert!((64..=100).contains(&p99), "p99 estimate {p99}");
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    }

    #[test]
    fn quantiles_handle_zero_and_singleton_histograms() {
        let (_, snap) = collect(|| {
            record_value("zeros", "", 0);
            record_value("zeros", "", 0);
            record_value("one", "", 42);
        });
        let zeros = snap.histogram("zeros").expect("recorded");
        assert_eq!((zeros.p50(), zeros.p99()), (0, 0));
        let one = snap.histogram("one").expect("recorded");
        assert_eq!((one.p50(), one.p95(), one.p99()), (42, 42, 42));
    }

    #[test]
    fn unjoined_scope_workers_can_miss_the_snapshot() {
        // Documents the limitation the explicit-join pattern exists for:
        // the scope's implicit wait does not cover TLS destructors, so an
        // unjoined worker's shard may (not must) merge too late. All we can
        // assert deterministically is that the supported pattern below works.
        let (_, snap) = collect(|| {
            std::thread::scope(|scope| {
                let h = scope.spawn(|| counter_add("joined.items", "", 10));
                h.join().expect("worker");
            });
        });
        assert_eq!(snap.counter("joined.items"), 10);
    }

    #[test]
    fn quantile_buckets_survive_cross_thread_merges() {
        let (_, snap) = collect(|| {
            scoped_join([[1u64, 2, 3], [1000, 2000, 3000]].map(|chunk| {
                Box::new(move || {
                    for v in chunk {
                        record_value("mixed", "", v);
                    }
                }) as Box<dyn Fn() + Send + Sync>
            }));
        });
        let h = snap.histogram("mixed").expect("recorded");
        assert_eq!(h.count, 6, "histogram: {h:?}");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 3000);
        assert!(
            h.p99() >= 1000,
            "p99 {} must land in the slow cluster",
            h.p99()
        );
    }

    #[test]
    fn histogram_serializes_with_quantile_fields() {
        let (_, snap) = collect(|| record_value("h", "", 7));
        let json = serde_json::to_string(snap.histogram("h").unwrap()).expect("serializable");
        for field in ["\"count\"", "\"p50\"", "\"p95\"", "\"p99\""] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn nested_collect_panics_with_a_clear_message() {
        let ((), _snap) = collect(|| {
            let mut ran = false;
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| collect(|| ran = true)))
                    .unwrap_err();
            let msg = err
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("nested"), "panic message was: {msg}");
            assert!(!ran, "nested closure must not run");
            assert!(enabled(), "outer collection must stay live");
        });
        // The outer collection finished normally; a fresh one still works.
        let (value, snap) = collect(|| {
            counter_add("after", "", 1);
            7
        });
        assert_eq!(value, 7);
        assert_eq!(snap.counter("after"), 1);
    }

    #[test]
    fn collect_recovers_after_a_panicking_closure() {
        let caught = std::panic::catch_unwind(|| collect(|| panic!("boom")));
        assert!(caught.is_err());
        let (_, snap) = collect(|| counter_add("recovered", "", 3));
        assert_eq!(snap.counter("recovered"), 3);
    }

    #[test]
    fn spans_nest_and_feed_duration_histograms() {
        let (_, snap) = collect(|| {
            let _outer = span!("outer");
            {
                let _inner = span!("inner", "lbl");
            }
        });
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.label, "lbl");
        assert_eq!(inner.thread, outer.thread);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(snap.histogram("span/outer").is_some());
        assert!(snap.histogram("span/inner").is_some());
    }

    #[test]
    fn labelled_counters_flatten_with_slash() {
        let (_, snap) = collect(|| {
            counter_add("learner.predict_calls", "naive_bayes", 3);
            counter_add("learner.predict_calls", "whirl_name", 1);
        });
        assert_eq!(snap.counter("learner.predict_calls/naive_bayes"), 3);
        let mut labelled = snap.counters_labelled("learner.predict_calls");
        labelled.sort();
        assert_eq!(labelled, vec![("naive_bayes", 3), ("whirl_name", 1)]);
    }

    #[test]
    fn collect_restores_prior_enabled_state() {
        // Other tests' collections flip `ENABLED` concurrently, so hold the
        // collection lock while observing it and run the locked half of
        // `collect` directly.
        let _guard = COLLECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for prior in [false, true] {
            set_enabled(prior);
            let (during, _snap) = collect_locked(enabled);
            assert!(during, "recording is on inside the collection");
            assert_eq!(enabled(), prior, "prior state {prior} restored");
        }
        set_enabled(false);
    }

    #[test]
    fn snapshot_accumulates_counters_and_leaves_spans_to_collect() {
        // Run inside `collect` so the global tables are owned by this test
        // (collections are serialized process-wide); `snapshot` observes the
        // partial aggregate without resetting it.
        let ((), outer) = collect(|| {
            counter_add("live.requests", "", 2);
            {
                let _s = span!("live.span");
            }
            let first = snapshot();
            assert_eq!(first.counter("live.requests"), 2);
            assert!(first.spans.is_empty(), "snapshot carries no span records");
            assert!(first.histogram("span/live.span").is_some());

            counter_add("live.requests", "", 3);
            let second = snapshot();
            assert_eq!(second.counter("live.requests"), 5, "counters accumulate");
            assert!(
                second.histogram("span/live.span").is_some(),
                "duration histograms persist across snapshots"
            );
        });
        assert_eq!(outer.spans.len(), 1, "the collection still gets its span");
    }

    #[test]
    fn spans_outside_collect_feed_only_their_histogram_and_trace() {
        // Hold the collection lock so no other test's `collect` runs (and
        // logs spans) while recording is switched on here.
        let _guard = COLLECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        const N: usize = 5;
        let ctx = TraceContext::generate();
        assert!(trace::begin(&ctx));
        {
            let _scope = TraceScope::enter(ctx);
            for _ in 0..N {
                let _s = span!("live.unlogged");
            }
        }
        flush();
        let logged = global()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .iter()
            .filter(|s| s.name == "live.unlogged")
            .count();
        let histogram = snapshot()
            .histogram("span/live.unlogged")
            .map_or(0, |h| h.count);
        let (traced, _) = trace::finish(&ctx);
        set_enabled(false);
        assert_eq!(logged, 0, "no span reaches the process-wide log");
        assert_eq!(histogram, N as u64, "every span is counted");
        assert_eq!(traced.len(), N, "every span joins its request's trace");
        assert!(traced.iter().all(|s| s.trace == Some(ctx.trace_id)));
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let (_, snap) = collect(|| {
            counter_add("a", "", 1);
            record_value("h", "", 2);
            let _s = span!("root");
        });
        let json = serde_json::to_string(&snap).expect("serializable");
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"spans\""));
    }
}

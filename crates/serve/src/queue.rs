//! The bounded request queue and the worker pool that drains it.
//!
//! Connection threads parse requests and push [`Job`]s; worker threads pop
//! them one at a time and run the matching pipeline. The queue is the
//! server's only buffer and it is *bounded*: when full, `push` fails
//! immediately with [`ServeError::QueueFull`] (rendered as `503` +
//! `Retry-After`) so overload surfaces as explicit backpressure instead of
//! latency collapse.
//!
//! A worker matches one job under the job's own [`TraceScope`], so the
//! pipeline's spans (`match.source`, `match.stage1`, ...) land in the
//! request's trace beneath a `serve.match` span. Concurrency comes from
//! the worker pool: each `match_source` call runs single-threaded.
//!
//! # Deadlines
//!
//! Every job carries an absolute deadline. Workers drop jobs whose deadline
//! passed while queued (replying `504`), and the connection thread waits on
//! the reply channel with a timeout — so even a stalled pipeline (or a
//! `workers = 0` test configuration) cannot hang a client past its
//! deadline.
//!
//! # Panics
//!
//! A panic while matching or rendering one job (say, in a custom learner)
//! is caught: that job is answered `500`, [`ServeStats::panicked`] and the
//! `serve.worker_panics` counter go up, and the worker takes the next job.

use crate::error::ServeError;
use crate::json;
use crate::registry::ModelEntry;
use lsd_core::Source;
use lsd_obs::{trace, TraceContext, TraceScope};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Per-job micro-timings, written by the worker *before* it replies (the
/// reply-channel send/recv pair orders the writes before the connection
/// thread's reads) and read by the connection thread for the access log.
#[derive(Debug, Default)]
pub struct JobTimings {
    /// Nanoseconds the job waited in the queue before a worker claimed it.
    pub queue_ns: AtomicU64,
    /// Nanoseconds inside the `match_source` call that served this job.
    pub match_ns: AtomicU64,
}

/// What to do with a job's match outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Render the mapping + ranked candidates (`POST /v1/match`).
    Match,
    /// Render the full provenance report (`POST /v1/explain`).
    Explain,
}

/// One queued request: the parsed source, the model resolved at enqueue
/// time (so a hot-swap mid-flight cannot change it), the deadline, and the
/// channel the rendered response body goes back on.
pub struct Job {
    /// Response rendering mode.
    pub kind: JobKind,
    /// The source to match.
    pub source: Source,
    /// The model this job is pinned to.
    pub model: Arc<ModelEntry>,
    /// Absolute queue deadline.
    pub deadline: Instant,
    /// The deadline as requested, for the `504` message.
    pub deadline_ms: u64,
    /// Set by the worker the moment processing starts. The connection
    /// thread checks it when its deadline fires: unclaimed means the job is
    /// still queued (reply `504` now), claimed means the result is coming
    /// (wait out the processing grace).
    pub claimed: Arc<AtomicBool>,
    /// The request's trace context; the worker re-enters it while matching.
    pub trace: TraceContext,
    /// When the job entered the queue, on the span timeline
    /// ([`lsd_obs::now_ns`]) — the start of the synthetic queue-wait span.
    pub enqueued_ns: u64,
    /// Where the worker publishes queue/match micro-timings.
    pub timings: Arc<JobTimings>,
    /// Where the rendered body (or error) is sent.
    pub reply: mpsc::SyncSender<Result<String, ServeError>>,
}

/// Monotonic counters the server exposes in `/healthz`; all relaxed, read
/// without locks.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Jobs accepted into the queue.
    pub enqueued: AtomicU64,
    /// Jobs rejected with `503 queue_full`.
    pub rejected_full: AtomicU64,
    /// Jobs dropped with `504` after their queue deadline passed.
    pub expired: AtomicU64,
    /// Jobs a worker claimed and matched.
    pub processed: AtomicU64,
    /// Jobs whose match or render panicked (answered `500`; the worker
    /// carries on with the next job).
    pub panicked: AtomicU64,
}

struct Inner {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// The bounded queue shared by connection threads and workers.
pub struct RequestQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
    /// Seconds a `503 queue_full` response tells the client to back off.
    retry_after_secs: u64,
    /// Shared serving counters.
    pub stats: ServeStats,
}

fn lock_err<T>(_: T) -> ServeError {
    ServeError::Internal {
        detail: "request queue lock poisoned".to_string(),
    }
}

impl RequestQueue {
    /// A queue holding at most `capacity` jobs (at least 1).
    pub fn new(capacity: usize, retry_after_secs: u64) -> RequestQueue {
        RequestQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            retry_after_secs,
            stats: ServeStats::default(),
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().map(|i| i.jobs.len()).unwrap_or(0)
    }

    /// Maximum queue depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues a job, failing fast when the queue is full or draining.
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::ShuttingDown`]
    /// once shutdown began.
    pub fn push(&self, job: Job) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().map_err(lock_err)?;
        if inner.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if inner.jobs.len() >= self.capacity {
            self.stats.rejected_full.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull {
                retry_after_secs: self.retry_after_secs,
            });
        }
        inner.jobs.push_back(job);
        self.stats.enqueued.fetch_add(1, Ordering::Relaxed);
        lsd_obs::gauge_max("serve.queue_depth", "", inner.jobs.len() as u64);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Marks the queue as draining: new pushes fail, blocked workers wake.
    /// Already queued jobs stay and will still be processed (graceful
    /// drain).
    pub fn begin_shutdown(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.shutting_down = true;
        }
        self.ready.notify_all();
    }

    /// Replies `503 shutting_down` to every job still queued. The safety
    /// net for configurations without workers to drain the queue.
    pub fn reject_remaining(&self) {
        let drained: Vec<Job> = match self.inner.lock() {
            Ok(mut inner) => inner.jobs.drain(..).collect(),
            Err(_) => return,
        };
        for job in drained {
            let _ = job.reply.send(Err(ServeError::ShuttingDown));
        }
    }

    /// Pops the next job, blocking while the queue is empty. Returns `None`
    /// when the queue is empty *and* shutting down — the worker's signal to
    /// exit after the queue has drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().ok()?;
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.shutting_down {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Processes one job: an expired job gets `504`; a live one is matched and
/// rendered under its request's trace scope. Send failures on the reply
/// channel are ignored: the client may have timed out and gone away.
fn process_job(job: Job, stats: &ServeStats) {
    // Publish the queue wait before replying so even a 504's access-log
    // line shows where the deadline went.
    let wait = lsd_obs::now_ns().saturating_sub(job.enqueued_ns);
    job.timings.queue_ns.store(wait, Ordering::Relaxed);
    note_queue_wait(&job, wait);
    if job.deadline <= Instant::now() {
        stats.expired.fetch_add(1, Ordering::Relaxed);
        lsd_obs::counter_add("serve.requests_expired", "", 1);
        let _ = job.reply.send(Err(ServeError::DeadlineExceeded {
            deadline_ms: job.deadline_ms,
        }));
        return;
    }
    job.claimed.store(true, Ordering::SeqCst);
    stats.processed.fetch_add(1, Ordering::Relaxed);
    // Always 1: kept because load drivers read the histogram's mean.
    lsd_obs::record_value("serve.batch_size", "", 1);

    // Scope and span close before the reply: the connection thread
    // finishes the request's trace as soon as it has the result. A panic
    // in the pipeline or the renderer (say, in a custom learner) becomes
    // this job's `500`, not the death of the worker.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let _scope = TraceScope::enter(job.trace);
        let label = match job.kind {
            JobKind::Match => "match",
            JobKind::Explain => "explain",
        };
        let _span = lsd_obs::span!("serve.match", label);
        let match_start = Instant::now();
        let outcome = job.model.lsd.match_source(&job.source);
        // The relaxed store is published by the reply send below.
        job.timings
            .match_ns
            .store(match_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        outcome
            .map(|outcome| match job.kind {
                JobKind::Match => json::match_body(&job.model.name, &outcome),
                JobKind::Explain => json::explain_body(&job.model.name, &outcome),
            })
            .map_err(ServeError::from)
    }))
    .unwrap_or_else(|_| {
        // The default panic hook has already logged the message.
        stats.panicked.fetch_add(1, Ordering::Relaxed);
        lsd_obs::counter_add("serve.worker_panics", "", 1);
        Err(ServeError::Internal {
            detail: "the matcher panicked on this request".to_string(),
        })
    });
    lsd_obs::counter_add(
        if result.is_ok() {
            "serve.requests_ok"
        } else {
            "serve.requests_failed"
        },
        "",
        1,
    );
    let _ = job.reply.send(result);
}

/// Attaches the synthetic queue-wait span to the job's trace and feeds the
/// wait into the cumulative + rolling registries. The wait crosses threads
/// (enqueued on the connection thread, claimed on a worker), so no
/// [`lsd_obs::SpanGuard`] can cover it.
fn note_queue_wait(job: &Job, wait_ns: u64) {
    trace::attach(
        &job.trace,
        trace::synthetic_span(
            "serve.queue_wait",
            "",
            job.enqueued_ns,
            wait_ns,
            job.trace.trace_id,
            None,
        ),
    );
    lsd_obs::window_record("serve.queue_wait_ns", "", wait_ns);
}

/// One worker's run loop: pop jobs until shutdown drains the queue, then
/// flush this thread's metric shard and exit.
pub fn worker_loop(queue: &RequestQueue) {
    while let Some(job) = queue.pop() {
        process_job(job, &queue.stats);
        lsd_obs::flush();
    }
    lsd_obs::flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn dummy_job(reply: mpsc::SyncSender<Result<String, ServeError>>) -> Job {
        // A job that will never be processed in these tests — queue
        // mechanics only.
        let dtd = lsd_xml::parse_dtd("<!ELEMENT a (#PCDATA)>").expect("dtd");
        Job {
            kind: JobKind::Match,
            source: Source::from_xml("q", dtd, Vec::new()),
            model: Arc::new(ModelEntry {
                name: "m".into(),
                lsd: untrained_model(),
                generation: 1,
            }),
            deadline: Instant::now() + Duration::from_secs(5),
            deadline_ms: 5000,
            claimed: Arc::new(AtomicBool::new(false)),
            trace: TraceContext::generate(),
            enqueued_ns: lsd_obs::now_ns(),
            timings: Arc::new(JobTimings::default()),
            reply,
        }
    }

    fn untrained_model() -> lsd_core::Lsd {
        let mediated = lsd_xml::parse_dtd("<!ELEMENT A (#PCDATA)>").expect("dtd");
        let builder = lsd_core::LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        builder
            .add_learner(Box::new(lsd_core::learners::NameMatcher::new(
                n,
                std::collections::HashMap::new(),
            )))
            .build()
            .expect("builds")
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        let queue = RequestQueue::new(2, 1);
        let (tx, _rx) = mpsc::sync_channel(1);
        queue.push(dummy_job(tx.clone())).expect("1 fits");
        queue.push(dummy_job(tx.clone())).expect("2 fits");
        match queue.push(dummy_job(tx)) {
            Err(ServeError::QueueFull { retry_after_secs }) => {
                assert_eq!(retry_after_secs, 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.stats.rejected_full.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_rejects_new_pushes_and_drains() {
        let queue = RequestQueue::new(8, 1);
        let (tx, rx) = mpsc::sync_channel(8);
        queue.push(dummy_job(tx.clone())).expect("fits");
        queue.begin_shutdown();
        assert!(matches!(
            queue.push(dummy_job(tx)),
            Err(ServeError::ShuttingDown)
        ));
        queue.reject_remaining();
        let queued_reply = rx.recv().expect("queued job got a reply");
        assert!(matches!(queued_reply, Err(ServeError::ShuttingDown)));
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn worker_exits_once_shutdown_drains_the_queue() {
        let queue = Arc::new(RequestQueue::new(8, 1));
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                worker_loop(&queue);
            })
        };
        queue.begin_shutdown();
        worker.join().expect("worker exits");
    }

    /// A learner that panics on any instance whose text is `boom`.
    struct PanicsOnBoom;

    impl lsd_core::learners::BaseLearner for PanicsOnBoom {
        fn name(&self) -> &'static str {
            "panics-on-boom"
        }

        fn train(&mut self, _examples: &[(lsd_core::Instance, usize)]) {}

        fn predict(&self, instance: &lsd_core::Instance) -> lsd_learn::Prediction {
            assert!(instance.text != "boom", "learner hit a boom");
            lsd_learn::Prediction::uniform(2)
        }
    }

    fn source(text: &str) -> Source {
        let dtd = lsd_xml::parse_dtd("<!ELEMENT a (#PCDATA)>").expect("dtd");
        let listing = lsd_xml::parse_fragment(&format!("<a>{text}</a>")).expect("listing");
        Source::from_xml("q", dtd, vec![listing])
    }

    #[test]
    fn a_panicking_match_is_a_500_and_the_worker_keeps_serving() {
        let mediated = lsd_xml::parse_dtd("<!ELEMENT A (#PCDATA)>").expect("dtd");
        let mut lsd = lsd_core::LsdBuilder::new(&mediated)
            .add_learner(Box::new(PanicsOnBoom))
            .build()
            .expect("builds");
        let train = lsd_core::TrainedSource {
            source: source("calm"),
            mapping: std::collections::HashMap::from([("a".to_string(), "A".to_string())]),
        };
        lsd.train(std::slice::from_ref(&train)).expect("trains");
        let model = Arc::new(ModelEntry {
            name: "m".into(),
            lsd,
            generation: 1,
        });

        let queue = Arc::new(RequestQueue::new(8, 1));
        let (tx, rx) = mpsc::sync_channel(8);
        for text in ["boom", "boom", "boom", "calm"] {
            let mut job = dummy_job(tx.clone());
            job.source = source(text);
            job.model = Arc::clone(&model);
            queue.push(job).expect("fits");
        }
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || worker_loop(&queue))
        };
        // A dead worker would leave the rest queued: time out, never hang.
        let reply = || rx.recv_timeout(Duration::from_secs(60)).expect("reply");
        for _ in 0..3 {
            match reply() {
                Err(e @ ServeError::Internal { .. }) => assert_eq!(e.status(), 500),
                other => panic!("expected a 500, got {other:?}"),
            }
        }
        let served = reply().expect("the calm job is served");
        assert!(served.contains("\"mapping\""), "{served}");
        queue.begin_shutdown();
        worker.join().expect("worker exits normally");
        assert_eq!(queue.stats.panicked.load(Ordering::Relaxed), 3);
        assert_eq!(queue.stats.processed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn expired_jobs_get_deadline_exceeded() {
        let (tx, rx) = mpsc::sync_channel(1);
        let mut job = dummy_job(tx);
        job.deadline = Instant::now() - Duration::from_millis(1);
        job.deadline_ms = 1;
        let stats = ServeStats::default();
        process_job(job, &stats);
        match rx.recv().expect("reply") {
            Err(ServeError::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 1),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(stats.expired.load(Ordering::Relaxed), 1);
        assert_eq!(stats.processed.load(Ordering::Relaxed), 0);
    }
}

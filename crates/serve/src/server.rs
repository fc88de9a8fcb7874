//! The HTTP server: accept loop, routing, worker pool and graceful
//! shutdown.
//!
//! Threading model: one OS thread per connection (bounded in practice by
//! keep-alive + read timeouts), a fixed worker pool draining the bounded
//! request queue, and the accept thread. Matching requests flow
//! connection-thread → queue → worker → reply channel → connection-thread;
//! registry and metrics endpoints are answered inline on the connection
//! thread.
//!
//! Shutdown ([`ServerHandle::shutdown`]) is graceful: the accept loop
//! stops, the queue rejects new work, workers drain what is already
//! queued, and any leftover jobs (e.g. in a `workers = 0` configuration)
//! are failed with `503` so no client is left hanging.

use crate::access_log::{unix_ms, AccessEntry, AccessLog};
use crate::error::ServeError;
use crate::feedback::{retrain_worker, FeedbackHub};
use crate::http::{error_response, read_request, write_response, ReadOutcome, Request, Response};
use crate::json;
use crate::media;
use crate::queue::{worker_loop, Job, JobKind, JobTimings, RequestQueue};
use crate::registry::ModelRegistry;
use lsd_core::{Feedback, FeedbackRecord};
use lsd_obs::{trace, SpanId, TraceContext, TraceId, TraceSample, TraceScope};
use serde::Value;
use std::cell::RefCell;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Worker threads draining the queue. `0` is allowed — nothing drains,
    /// which is how the backpressure tests force queue-full conditions
    /// deterministically.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it fail with `503`.
    pub queue_capacity: usize,
    /// Queue deadline for requests that send no `X-Deadline-Ms` header.
    pub default_deadline: Duration,
    /// Ceiling on client-requested deadlines.
    pub max_deadline: Duration,
    /// How long a request already being processed may keep its connection
    /// thread waiting past its queue deadline.
    pub processing_grace: Duration,
    /// Per-connection socket read timeout (slow-client defense).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Largest accepted request body; larger uploads get `413` unread.
    pub max_body_bytes: usize,
    /// `Retry-After` seconds advertised with `503 queue_full`.
    pub retry_after_secs: u64,
    /// Directory for per-model feedback WALs. `None` disables
    /// `POST /v1/feedback` (it answers `503 feedback_disabled`) and the
    /// retrain worker.
    pub feedback_dir: Option<std::path::PathBuf>,
    /// Latency at or above which a completed request is tail-sampled into
    /// the flight recorder (4xx/5xx responses are sampled regardless).
    /// `Duration::ZERO` samples everything — the test/CI setting.
    pub slow_threshold: Duration,
    /// JSONL access-log path; `None` disables access logging.
    pub access_log: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 128,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            processing_grace: Duration::from_secs(60),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body_bytes: 1024 * 1024,
            retry_after_secs: 1,
            feedback_dir: None,
            slow_threshold: Duration::from_millis(500),
            access_log: None,
        }
    }
}

struct Shared {
    config: ServeConfig,
    registry: ModelRegistry,
    queue: RequestQueue,
    feedback: Option<FeedbackHub>,
    access_log: Option<AccessLog>,
    shutdown: AtomicBool,
    active_connections: AtomicU64,
}

/// Per-request observability state, threaded from accept to response:
/// the trace context stamped at accept time, the worker-filled
/// micro-timings, and the model the request resolved to (for the access
/// log and flight-recorder samples). Lives on one connection thread;
/// only `timings` crosses into the worker pool.
struct RequestObs {
    trace: TraceContext,
    timings: Arc<JobTimings>,
    model: RefCell<String>,
}

/// A bound server, ready to [`run`](Server::run).
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    addr: SocketAddr,
}

/// Clonable remote control for a running server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown: stop accepting, drain the queue, fail
    /// whatever cannot be drained. Idempotent; returns immediately (the
    /// `run` call unwinds the rest).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue.begin_shutdown();
        // The accept loop may be blocked in `accept`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds the listener and wires the queue; does not serve yet.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig, registry: ModelRegistry) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = RequestQueue::new(config.queue_capacity, config.retry_after_secs);
        let feedback = match &config.feedback_dir {
            Some(dir) => Some(
                FeedbackHub::open(dir, &registry)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            ),
            None => None,
        };
        let access_log = match &config.access_log {
            Some(path) => Some(AccessLog::open(path)?),
            None => None,
        };
        Ok(Server {
            shared: Arc::new(Shared {
                config,
                registry,
                queue,
                feedback,
                access_log,
                shutdown: AtomicBool::new(false),
                active_connections: AtomicU64::new(0),
            }),
            listener,
            addr,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Runs the server on a background thread, returning the handle and the
    /// join handle for its `run` loop.
    pub fn spawn(self) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }

    /// Serves until [`ServerHandle::shutdown`] is called: spawns the worker
    /// pool, accepts connections, then drains and joins everything.
    /// Metrics recording is switched on for the server's lifetime so
    /// `GET /metrics` sees the pipeline's own counters too.
    pub fn run(self) {
        lsd_obs::set_enabled(true);
        let shared = &self.shared;
        let workers: Vec<_> = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || worker_loop(&shared.queue))
            })
            .collect();
        let retrainer = shared.feedback.as_ref().map(|_| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                if let Some(hub) = shared.feedback.as_ref() {
                    retrain_worker(&shared.registry, hub);
                }
            })
        });

        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Reap closed connections so a long-lived server holds handles
            // only for the ones still open.
            connections.retain(|connection| !connection.is_finished());
            let shared = Arc::clone(shared);
            shared.active_connections.fetch_add(1, Ordering::SeqCst);
            connections.push(std::thread::spawn(move || {
                handle_connection(&shared, stream);
                shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                lsd_obs::flush();
            }));
        }

        // Drain: the queue already rejects pushes; workers exit once it is
        // empty. Leftovers (workers = 0) are failed explicitly. The retrain
        // worker abandons its in-memory queue — the WAL keeps the records.
        if let Some(hub) = shared.feedback.as_ref() {
            hub.begin_shutdown();
        }
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(retrainer) = retrainer {
            let _ = retrainer.join();
        }
        self.shared.queue.reject_remaining();
        for connection in connections {
            let _ = connection.join();
        }
    }
}

/// Parses `X-Deadline-Ms`, clamped to the configured ceiling.
fn request_deadline(request: &Request, config: &ServeConfig) -> Result<Duration, ServeError> {
    match request.header("x-deadline-ms") {
        None => Ok(config.default_deadline),
        Some(v) => match v.parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms).min(config.max_deadline)),
            _ => Err(ServeError::BadRequest {
                detail: format!("invalid X-Deadline-Ms {v:?}: expected a positive integer"),
            }),
        },
    }
}

/// Enqueues a parsed match/explain request and waits for the reply, never
/// longer than deadline + processing grace.
fn run_job(
    shared: &Shared,
    kind: JobKind,
    request: &Request,
    obs: &RequestObs,
) -> Result<String, ServeError> {
    let parsed = media::parse_request(request)?;
    let model = shared.registry.model(parsed.model.as_deref())?;
    obs.model.replace(model.name.clone());
    let deadline = request_deadline(request, &shared.config)?;
    let deadline_ms = deadline.as_millis() as u64;
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let claimed = Arc::new(AtomicBool::new(false));
    shared.queue.push(Job {
        kind,
        source: parsed.source,
        model,
        deadline: Instant::now() + deadline,
        deadline_ms,
        claimed: Arc::clone(&claimed),
        trace: obs.trace,
        enqueued_ns: lsd_obs::now_ns(),
        timings: Arc::clone(&obs.timings),
        reply: reply_tx,
    })?;
    match reply_rx.recv_timeout(deadline) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            if claimed.load(Ordering::SeqCst) {
                // A worker picked the job up in time; give processing room
                // to finish rather than abandoning completed work.
                match reply_rx.recv_timeout(shared.config.processing_grace) {
                    Ok(result) => result,
                    Err(_) => Err(ServeError::Internal {
                        detail: "worker did not reply within the processing grace".to_string(),
                    }),
                }
            } else {
                Err(ServeError::DeadlineExceeded { deadline_ms })
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Internal {
            detail: "worker dropped the reply channel".to_string(),
        }),
    }
}

/// Validates, durably logs and acks one feedback request. The corrections
/// are checked against the target model's label set *before* the WAL
/// append, so a `200` always means "these corrections will be folded into
/// a future generation (or replayed after a crash)".
fn handle_feedback(
    shared: &Shared,
    request: &Request,
    obs: &RequestObs,
) -> Result<String, ServeError> {
    let hub = shared
        .feedback
        .as_ref()
        .ok_or(ServeError::FeedbackDisabled)?;
    let parsed = json::parse_feedback_request(&request.body)?;
    let entry = shared.registry.model(parsed.model.as_deref())?;
    obs.model.replace(entry.name.clone());
    Feedback::from_corrections(parsed.corrections.clone())
        .to_constraints(entry.lsd.labels())
        .map_err(|e| ServeError::BadRequest {
            detail: e.to_string(),
        })?;
    let accepted = parsed.corrections.len();
    let record = FeedbackRecord::from_source(&parsed.source, parsed.corrections);
    let index = hub.submit(&entry.name, entry.lsd.feedback_applied(), record)?;
    lsd_obs::counter_add("serve.feedback_records", "accepted", 1);
    Ok(json::feedback_ack_body(
        &entry.name,
        entry.generation,
        index,
        accepted,
    ))
}

fn healthz_body(shared: &Shared) -> String {
    let stats = &shared.queue.stats;
    let int = |v: u64| Value::Int(v as i64);
    let doc = Value::Map(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        ("models".to_string(), int(shared.registry.len() as u64)),
        ("queue_depth".to_string(), int(shared.queue.depth() as u64)),
        (
            "queue_capacity".to_string(),
            int(shared.queue.capacity() as u64),
        ),
        (
            "requests_enqueued".to_string(),
            int(stats.enqueued.load(Ordering::Relaxed)),
        ),
        (
            "requests_rejected_full".to_string(),
            int(stats.rejected_full.load(Ordering::Relaxed)),
        ),
        (
            "requests_expired".to_string(),
            int(stats.expired.load(Ordering::Relaxed)),
        ),
        (
            "requests_processed".to_string(),
            int(stats.processed.load(Ordering::Relaxed)),
        ),
        (
            "worker_panics".to_string(),
            int(stats.panicked.load(Ordering::Relaxed)),
        ),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| "{\"status\":\"ok\"}".to_string())
}

/// Renders `GET /debug/traces`: with `?trace_id=` a single sampled trace
/// (404 when it was not sampled or has been evicted), the most recent one
/// unless `&span_id=` names the request's own span; otherwise the most
/// recent sampled traces plus the recorder's accounting.
fn debug_traces_body(request: &Request) -> Result<String, ServeError> {
    let recorder = lsd_obs::flight_recorder();
    let render = |v: &Value| {
        serde_json::to_string(v).map_err(|e| ServeError::Internal {
            detail: format!("cannot render trace sample: {e}"),
        })
    };
    match request.query_param("trace_id") {
        Some(id) => {
            let trace_id: TraceId = id.parse().map_err(|()| ServeError::BadRequest {
                detail: format!("invalid trace_id {id:?}: expected 32 hex digits"),
            })?;
            let span_id: Option<SpanId> = request
                .query_param("span_id")
                .map(|span| {
                    span.parse().map_err(|()| ServeError::BadRequest {
                        detail: format!("invalid span_id {span:?}: expected 16 hex digits"),
                    })
                })
                .transpose()?;
            let sample = recorder
                .find(trace_id, span_id)
                .ok_or_else(|| ServeError::NotFound {
                    path: format!("/debug/traces?{}", request.query),
                })?;
            render(&serde::Serialize::to_value(&sample))
        }
        None => {
            // Newest first; bounded so the response stays scrapeable even
            // with the ring full.
            let samples: Vec<TraceSample> = recorder.samples().into_iter().rev().take(32).collect();
            let doc = Value::Map(vec![
                (
                    "recorded".to_string(),
                    Value::Int(recorder.recorded() as i64),
                ),
                ("evicted".to_string(), Value::Int(recorder.evicted() as i64)),
                (
                    "capacity".to_string(),
                    Value::Int(recorder.capacity() as i64),
                ),
                ("traces".to_string(), serde::Serialize::to_value(&samples)),
            ]);
            render(&doc)
        }
    }
}

/// Routes one request. Matching endpoints go through the queue; everything
/// else is answered inline.
fn route(shared: &Shared, request: &Request, obs: &RequestObs) -> Result<Response, ServeError> {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => Ok(Response::json(healthz_body(shared))),
        ("GET", "/metrics") => Ok(Response::text(lsd_obs::export::prometheus_text(
            &lsd_obs::snapshot(),
        ))),
        ("GET", "/debug/traces") => debug_traces_body(request).map(Response::json),
        ("GET", "/v1/models") => Ok(Response::json(shared.registry.list_json())),
        ("POST", "/v1/match") => run_job(shared, JobKind::Match, request, obs).map(Response::json),
        ("POST", "/v1/explain") => {
            run_job(shared, JobKind::Explain, request, obs).map(Response::json)
        }
        ("POST", "/v1/feedback") => handle_feedback(shared, request, obs).map(Response::json),
        ("PUT", path) if path.starts_with("/v1/models/") => {
            let name = &path["/v1/models/".len()..];
            let entry = shared.registry.activate(name)?;
            Ok(Response::json(
                serde_json::to_string(&Value::Map(vec![
                    ("activated".to_string(), Value::Str(entry.name.clone())),
                    (
                        "generation".to_string(),
                        Value::Int(entry.generation as i64),
                    ),
                ]))
                .unwrap_or_else(|_| "{}".to_string()),
            ))
        }
        (
            _,
            "/healthz" | "/metrics" | "/debug/traces" | "/v1/models" | "/v1/match" | "/v1/explain"
            | "/v1/feedback",
        ) => Err(ServeError::MethodNotAllowed {
            method: method.to_string(),
            path: path.to_string(),
        }),
        _ => Err(ServeError::NotFound {
            path: path.to_string(),
        }),
    }
}

fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/v1/match" => "match",
        "/v1/explain" => "explain",
        "/v1/feedback" => "feedback",
        "/v1/models" => "models",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/debug/traces" => "traces",
        p if p.starts_with("/v1/models/") => "models",
        _ => "other",
    }
}

/// Closes out one request's observability: ends the trace, tail-samples it
/// into the flight recorder when it was slow (>= `slow_threshold`) or
/// failed (4xx/5xx), and appends the access-log line.
fn finish_request_trace(
    shared: &Shared,
    request: &Request,
    obs: &RequestObs,
    tracked: bool,
    status: u16,
    total: Duration,
) {
    let total_ns = total.as_nanos() as u64;
    let (spans, truncated_spans) = if tracked {
        trace::finish(&obs.trace)
    } else {
        (Vec::new(), 0)
    };
    let slow = total >= shared.config.slow_threshold;
    let failed = status >= 400;
    if tracked && (slow || failed) {
        let reason = match (slow, failed) {
            (true, true) => "slow+error",
            (true, false) => "slow",
            _ => "error",
        };
        lsd_obs::counter_add("serve.traces_sampled", reason, 1);
        lsd_obs::flight_recorder().record(TraceSample {
            trace_id: obs.trace.trace_id,
            span_id: SpanId(obs.trace.span_id),
            route: endpoint_label(&request.path).to_string(),
            model: obs.model.borrow().clone(),
            status,
            total_ns,
            reason: reason.to_string(),
            unix_ms: unix_ms(),
            spans,
            truncated_spans,
        });
    }
    if let Some(log) = &shared.access_log {
        log.log(&AccessEntry {
            unix_ms: unix_ms(),
            trace_id: obs.trace.trace_id,
            route: endpoint_label(&request.path).to_string(),
            method: request.method.clone(),
            path: request.path.clone(),
            status,
            model: obs.model.borrow().clone(),
            queue_ns: obs.timings.queue_ns.load(Ordering::Relaxed),
            match_ns: obs.timings.match_ns.load(Ordering::Relaxed),
            total_ns,
        });
    }
}

/// Serves one connection until close, EOF, error or server shutdown.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_side) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_side);
    let mut stream = stream;
    loop {
        match read_request(&mut reader, shared.config.max_body_bytes) {
            ReadOutcome::Closed => break,
            ReadOutcome::Failed(error) => {
                // The request was unreadable; answer and close — the stream
                // position is unreliable now.
                lsd_obs::counter_add("serve.http_errors", error.code(), 1);
                lsd_obs::flush();
                let _ = write_response(&mut stream, &error_response(&error), true);
                break;
            }
            ReadOutcome::Request(request) => {
                let started = Instant::now();
                // Stamp the request: ingest the client's W3C traceparent
                // (continuing its trace with a fresh span id) or mint a
                // fresh context. `begin` only tracks spans while recording
                // is on, so a disabled server pays one atomic load here.
                let ctx = request
                    .header("traceparent")
                    .and_then(TraceContext::from_traceparent)
                    .map(|upstream| upstream.child())
                    .unwrap_or_else(TraceContext::generate);
                let tracked = lsd_obs::enabled() && trace::begin(&ctx);
                let label = endpoint_label(&request.path);
                let obs = RequestObs {
                    trace: ctx,
                    timings: Arc::new(JobTimings::default()),
                    model: RefCell::new(String::new()),
                };
                let draining = shared.shutdown.load(Ordering::SeqCst);
                let mut response = if draining {
                    error_response(&ServeError::ShuttingDown)
                } else {
                    // The scope tags every span this thread opens (and the
                    // root span below) with the request's trace; the
                    // worker re-enters it for the job on its side.
                    let _scope = TraceScope::enter(ctx);
                    let _root = lsd_obs::span!("serve.request", label);
                    match route(shared, &request, &obs) {
                        Ok(response) => response,
                        Err(error) => {
                            lsd_obs::counter_add("serve.http_errors", error.code(), 1);
                            error_response(&error)
                        }
                    }
                };
                // Every response echoes the (possibly server-minted)
                // context so clients can correlate and propagate.
                response
                    .extra_headers
                    .push(("traceparent", ctx.to_traceparent()));
                let total = started.elapsed();
                lsd_obs::counter_add("serve.http_requests", label, 1);
                lsd_obs::window_record_duration("serve.request_ns", label, total);
                finish_request_trace(shared, &request, &obs, tracked, response.status, total);
                // Merge this thread's shard before answering: once the
                // client has the response, a follow-up `/metrics` scrape
                // (on a different connection thread) must see the request
                // counted.
                lsd_obs::flush();
                let close = request.wants_close() || draining;
                if write_response(&mut stream, &response, close).is_err() || close {
                    break;
                }
            }
        }
    }
}

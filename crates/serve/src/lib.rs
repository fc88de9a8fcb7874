//! `lsd-serve` — a zero-dependency HTTP/1.1 server for trained LSD models.
//!
//! The paper's end state is an *interactive* system: users submit new
//! source schemas with data and get proposed 1-1 mappings back. This crate
//! exposes that loop as a long-running service over nothing but `std`:
//!
//! * **Model registry** ([`ModelRegistry`]) — `SavedModel` JSON snapshots
//!   loaded from a directory, each gated through version checking and
//!   [`Lsd::ensure_servable`] (trained + clean static analysis) before it
//!   can serve, hot-swappable behind `Arc`s so in-flight requests finish on
//!   the model they started with.
//! * **Request pipeline** ([`RequestQueue`] + workers) — a bounded queue
//!   with explicit backpressure (`503` + `Retry-After` when full), a worker
//!   pool in which each worker runs one [`Lsd::match_source`] call per
//!   request under that request's trace, and per-request queue deadlines
//!   (`504` instead of unbounded waiting).
//! * **Endpoints** — `POST /v1/match`, `POST /v1/explain` (provenance via
//!   `explain_all`), `GET /v1/models`, `PUT /v1/models/{name}` (hot-swap),
//!   `GET /healthz`, `GET /metrics` (Prometheus text dump of the `lsd-obs`
//!   registry plus server counters).
//! * **Robustness** — graceful queue-draining shutdown, slow-client
//!   read/write timeouts, oversized and malformed requests rejected onto
//!   the typed [`ServeError`].
//!
//! ```no_run
//! use lsd_serve::{ModelRegistry, ServeConfig, Server};
//!
//! let registry = ModelRegistry::open("serve-models")?;
//! let server = Server::bind(ServeConfig::default(), registry)?;
//! println!("listening on {}", server.local_addr());
//! server.run(); // blocks until a handle calls shutdown()
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Lsd::ensure_servable`]: lsd_core::Lsd::ensure_servable
//! [`Lsd::match_source`]: lsd_core::Lsd::match_source

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod access_log;
mod error;
mod feedback;
pub mod http;
pub mod json;
pub mod media;
mod queue;
mod registry;
mod server;

pub use access_log::{AccessEntry, AccessLog};
pub use error::ServeError;
pub use feedback::FeedbackHub;
pub use queue::{Job, JobKind, JobTimings, RequestQueue, ServeStats};
pub use registry::{AuditMode, ModelEntry, ModelRegistry};
pub use server::{ServeConfig, Server, ServerHandle};

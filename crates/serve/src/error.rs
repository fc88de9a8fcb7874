//! The server's typed error surface.
//!
//! Every failure a request can hit — transport, parsing, registry, queueing,
//! matching — is a [`ServeError`] variant with a fixed HTTP status, so
//! handlers return `Result<Response, ServeError>` and the connection loop
//! renders the error uniformly as a JSON body.

use lsd_core::LsdError;
use std::fmt;

/// Everything that can go wrong while serving one request.
#[derive(Debug)]
pub enum ServeError {
    /// The request line, headers or JSON body could not be understood
    /// (`400`). `detail` names the offending part.
    BadRequest {
        /// Human-readable description of what was malformed.
        detail: String,
    },
    /// No route matches the request path (`404`).
    NotFound {
        /// The path that was requested.
        path: String,
    },
    /// The path exists but not with this method (`405`).
    MethodNotAllowed {
        /// The method that was used.
        method: String,
        /// The path it was used on.
        path: String,
    },
    /// The declared body length exceeds the configured limit (`413`). The
    /// body is never read.
    PayloadTooLarge {
        /// Declared `Content-Length`.
        length: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// The request's `Content-Type` names no serialization the server can
    /// read (`415`). The supported types are `application/json`,
    /// `application/xml`, `text/csv` and `application/sql`.
    UnsupportedMediaType {
        /// The declared content type.
        content_type: String,
    },
    /// The request names a model the registry does not hold (`404`).
    ModelNotFound {
        /// The requested model name.
        name: String,
    },
    /// A snapshot loaded for activation failed validation (`422`): it was
    /// untrained, its analysis pass found errors, or its version is
    /// unsupported.
    ModelInvalid {
        /// The model name.
        name: String,
        /// Why activation was refused.
        detail: String,
    },
    /// The artifact audit (`lsd_analysis::audit_*`) found error-severity
    /// diagnostics in a model's snapshot or feedback WAL and the registry
    /// is running in strict mode (`422`). `detail` lists the `LSD2xx`
    /// codes.
    AuditFailed {
        /// The model name.
        name: String,
        /// The error diagnostics, one per line (`CODE: message`).
        detail: String,
    },
    /// The bounded request queue is full (`503` + `Retry-After`): explicit
    /// backpressure instead of unbounded buffering.
    QueueFull {
        /// Suggested client backoff in seconds.
        retry_after_secs: u64,
    },
    /// The server is draining for shutdown and accepts no new work (`503`).
    ShuttingDown,
    /// `POST /v1/feedback` was called but the server was started without a
    /// feedback directory, so corrections cannot be persisted (`503`).
    FeedbackDisabled,
    /// The registry holds no active model to match against (`503`).
    NoActiveModel,
    /// The request spent longer than its deadline in the queue (`504`).
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        deadline_ms: u64,
    },
    /// The matching pipeline itself failed.
    /// [`LsdError::InvalidSchema`] maps to `400` (the client sent a bad
    /// source); everything else is a server-side `500`.
    Match(LsdError),
    /// Internal invariant failure (`500`), e.g. a worker dropped its reply
    /// channel.
    Internal {
        /// What broke.
        detail: String,
    },
}

impl ServeError {
    /// The HTTP status code this error renders as.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest { .. } => 400,
            ServeError::NotFound { .. } | ServeError::ModelNotFound { .. } => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::UnsupportedMediaType { .. } => 415,
            ServeError::ModelInvalid { .. } | ServeError::AuditFailed { .. } => 422,
            ServeError::QueueFull { .. }
            | ServeError::ShuttingDown
            | ServeError::NoActiveModel
            | ServeError::FeedbackDisabled => 503,
            ServeError::DeadlineExceeded { .. } => 504,
            ServeError::Match(e) => match e {
                LsdError::InvalidSchema { .. } => 400,
                _ => 500,
            },
            ServeError::Internal { .. } => 500,
        }
    }

    /// Machine-readable error code for the JSON body.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::NotFound { .. } => "not_found",
            ServeError::MethodNotAllowed { .. } => "method_not_allowed",
            ServeError::PayloadTooLarge { .. } => "payload_too_large",
            ServeError::UnsupportedMediaType { .. } => "unsupported_media_type",
            ServeError::ModelNotFound { .. } => "model_not_found",
            ServeError::ModelInvalid { .. } => "model_invalid",
            ServeError::AuditFailed { .. } => "audit_failed",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::FeedbackDisabled => "feedback_disabled",
            ServeError::NoActiveModel => "no_active_model",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Match(_) => "match_failed",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// `Retry-After` value in seconds, for the statuses that advertise one.
    pub fn retry_after_secs(&self) -> Option<u64> {
        match self {
            ServeError::QueueFull { retry_after_secs } => Some(*retry_after_secs),
            ServeError::ShuttingDown => Some(1),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::NotFound { path } => write!(f, "no route for {path}"),
            ServeError::MethodNotAllowed { method, path } => {
                write!(f, "method {method} not allowed on {path}")
            }
            ServeError::PayloadTooLarge { length, limit } => {
                write!(f, "body of {length} bytes exceeds the {limit}-byte limit")
            }
            ServeError::UnsupportedMediaType { content_type } => {
                write!(
                    f,
                    "unsupported Content-Type {content_type:?}; use application/json, \
                     application/xml, text/csv or application/sql"
                )
            }
            ServeError::ModelNotFound { name } => write!(f, "no model named '{name}'"),
            ServeError::ModelInvalid { name, detail } => {
                write!(f, "model '{name}' failed validation: {detail}")
            }
            ServeError::AuditFailed { name, detail } => {
                write!(f, "model '{name}' failed its artifact audit: {detail}")
            }
            ServeError::QueueFull { retry_after_secs } => {
                write!(f, "request queue is full; retry after {retry_after_secs}s")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::FeedbackDisabled => {
                write!(
                    f,
                    "feedback is disabled; start the server with a feedback directory"
                )
            }
            ServeError::NoActiveModel => write!(f, "no active model in the registry"),
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(
                    f,
                    "request exceeded its {deadline_ms}ms deadline in the queue"
                )
            }
            ServeError::Match(e) => write!(f, "matching failed: {e}"),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Match(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LsdError> for ServeError {
    fn from(e: LsdError) -> Self {
        ServeError::Match(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_the_documented_contract() {
        let cases: Vec<(ServeError, u16)> = vec![
            (ServeError::BadRequest { detail: "x".into() }, 400),
            (ServeError::NotFound { path: "/x".into() }, 404),
            (
                ServeError::MethodNotAllowed {
                    method: "GET".into(),
                    path: "/v1/match".into(),
                },
                405,
            ),
            (
                ServeError::PayloadTooLarge {
                    length: 10,
                    limit: 5,
                },
                413,
            ),
            (
                ServeError::UnsupportedMediaType {
                    content_type: "image/png".into(),
                },
                415,
            ),
            (ServeError::ModelNotFound { name: "m".into() }, 404),
            (
                ServeError::ModelInvalid {
                    name: "m".into(),
                    detail: "untrained".into(),
                },
                422,
            ),
            (
                ServeError::AuditFailed {
                    name: "m".into(),
                    detail: "LSD206: label set disagrees with the mediated DTD".into(),
                },
                422,
            ),
            (
                ServeError::QueueFull {
                    retry_after_secs: 1,
                },
                503,
            ),
            (ServeError::ShuttingDown, 503),
            (ServeError::FeedbackDisabled, 503),
            (ServeError::NoActiveModel, 503),
            (ServeError::DeadlineExceeded { deadline_ms: 10 }, 504),
            (ServeError::Internal { detail: "x".into() }, 500),
        ];
        for (e, status) in cases {
            assert_eq!(e.status(), status, "{e}");
        }
    }

    #[test]
    fn invalid_schema_is_the_clients_fault() {
        let bad = ServeError::Match(LsdError::InvalidSchema {
            source: "s".into(),
            detail: "broken".into(),
        });
        assert_eq!(bad.status(), 400);
        let internal = ServeError::Match(LsdError::NotTrained { operation: "serve" });
        assert_eq!(internal.status(), 500);
    }

    #[test]
    fn backpressure_statuses_advertise_retry_after() {
        assert_eq!(
            ServeError::QueueFull {
                retry_after_secs: 2
            }
            .retry_after_secs(),
            Some(2)
        );
        assert_eq!(ServeError::ShuttingDown.retry_after_secs(), Some(1));
        assert_eq!(ServeError::NoActiveModel.retry_after_secs(), None);
    }
}

//! Structured JSONL access log: one JSON object per completed request.
//!
//! Each line carries the request's trace id, route, status, resolved model
//! and the micro-timings collected along the pipeline (queue wait, match time,
//! end-to-end total — all nanoseconds), so a log
//! line is enough to decide whether to go pull the full span tree from
//! `GET /debug/traces?trace_id=...`.
//!
//! The log is append-only and line-atomic per request: the line is
//! formatted off-lock and written with a single `write_all` under a short
//! mutex, so concurrent connection threads cannot interleave bytes.

use lsd_obs::TraceId;
use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One access-log line, before serialization.
#[derive(Debug, Clone, Serialize)]
pub struct AccessEntry {
    /// Completion time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The request's trace id (32-hex).
    pub trace_id: TraceId,
    /// Route label (`"match"`, `"explain"`, `"feedback"`, ...).
    pub route: String,
    /// HTTP method.
    pub method: String,
    /// Request path (query stripped).
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Model slug the request resolved to; empty when none applies.
    pub model: String,
    /// Time spent queued before a worker claimed the job (ns; 0 for
    /// inline-answered routes).
    pub queue_ns: u64,
    /// Time inside the `match_source` call that served this job (ns; 0 for
    /// inline routes).
    pub match_ns: u64,
    /// End-to-end time on the connection thread (ns).
    pub total_ns: u64,
}

/// An open JSONL access log.
pub struct AccessLog {
    file: Mutex<std::fs::File>,
}

impl AccessLog {
    /// Opens (creating or appending to) the log file.
    ///
    /// # Errors
    /// Propagates the open failure.
    pub fn open(path: &Path) -> std::io::Result<AccessLog> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(AccessLog {
            file: Mutex::new(file),
        })
    }

    /// Appends one request line. Failures are counted in the metrics
    /// registry rather than surfaced — losing a log line must not fail the
    /// request it describes.
    pub fn log(&self, entry: &AccessEntry) {
        let Ok(mut line) = serde_json::to_string(entry) else {
            return;
        };
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if file.write_all(line.as_bytes()).is_err() {
            lsd_obs::counter_add("serve.access_log_errors", "", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn entry(status: u16) -> AccessEntry {
        AccessEntry {
            unix_ms: 1_700_000_000_000,
            trace_id: TraceId(0xabc),
            route: "match".to_string(),
            method: "POST".to_string(),
            path: "/v1/match".to_string(),
            status,
            model: "real-estate-1".to_string(),
            queue_ns: 1_000,
            match_ns: 1_500,
            total_ns: 5_000,
        }
    }

    #[test]
    fn lines_are_one_json_object_each() {
        let dir = std::env::temp_dir().join(format!("lsd-access-{}", std::process::id()));
        let path = dir.join("access.log");
        let log = AccessLog::open(&path).expect("open");
        log.log(&entry(200));
        log.log(&entry(404));
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("valid JSON");
            let Value::Map(fields) = v else {
                panic!("line must be an object: {line}");
            };
            for want in [
                "unix_ms", "trace_id", "route", "method", "path", "status", "model", "queue_ns",
                "match_ns", "total_ns",
            ] {
                assert!(fields.iter().any(|(k, _)| k == want), "missing {want}");
            }
        }
        assert!(lines[0].contains("\"00000000000000000000000000000abc\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends() {
        let dir = std::env::temp_dir().join(format!("lsd-access2-{}", std::process::id()));
        let path = dir.join("access.log");
        AccessLog::open(&path).expect("open").log(&entry(200));
        AccessLog::open(&path).expect("reopen").log(&entry(200));
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 2, "append, not truncate");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

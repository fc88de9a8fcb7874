//! A deliberately small HTTP/1.1 layer over `std::net` — just enough for
//! `lsd-serve`'s JSON API, with the robustness the server contract needs:
//! bounded header blocks, a `Content-Length` cap enforced *before* the body
//! is read, read/write timeouts against slow clients, and keep-alive.
//!
//! Not supported (and rejected cleanly): chunked transfer encoding, HTTP
//! upgrade, multi-line headers.

use crate::error::ServeError;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + header block, to stop a hostile client
/// from streaming an unbounded preamble.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `"POST"`.
    pub method: String,
    /// Path with any query string stripped, e.g. `"/v1/match"`.
    pub path: String,
    /// The raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Lowercased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// First value of a `key=value` query parameter, unescaped only for
    /// `%XX` triplets and `+` (enough for hex trace ids and simple slugs).
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then(|| percent_decode(v))
        })
    }
}

/// Minimal percent-decoding (`%XX` and `+`); invalid escapes pass through.
fn percent_decode(v: &str) -> String {
    let bytes = v.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                Some(b) => {
                    out.push(b);
                    i += 2;
                }
                None => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Outcome of reading from an open connection.
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The client closed the connection (EOF before any bytes).
    Closed,
    /// The request was unreadable; respond with this error and close.
    Failed(ServeError),
}

fn bad(detail: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        detail: detail.into(),
    }
}

/// Reads one request from the stream. `max_body_bytes` is enforced against
/// the declared `Content-Length` before any body byte is read, so an
/// oversized upload costs the server nothing but the header parse. Each
/// header-line read is capped at what is left of the 16 KiB head budget
/// (plus one byte to detect the overflow), so a line with no newline
/// buffers at most that much.
pub fn read_request<R: BufRead>(reader: &mut R, max_body_bytes: usize) -> ReadOutcome {
    let mut head = String::new();
    let mut line = String::new();
    // Request line + headers, terminated by an empty line.
    loop {
        line.clear();
        let budget = (MAX_HEAD_BYTES + 1 - head.len()) as u64;
        match reader.by_ref().take(budget).read_line(&mut line) {
            Ok(0) => {
                return if head.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Failed(bad("connection closed mid-headers"))
                };
            }
            Ok(_) => {}
            Err(e) => {
                return if head.is_empty()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) {
                    // Idle keep-alive connection timed out: just close.
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Failed(bad(format!("read failed: {e}")))
                };
            }
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Failed(bad("header block exceeds 16KiB"));
        }
    }

    let mut lines = head.lines();
    let Some(request_line) = lines.next() else {
        return ReadOutcome::Failed(bad("empty request"));
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ReadOutcome::Failed(bad(format!("malformed request line: {request_line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Failed(bad(format!("unsupported protocol {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Failed(bad(format!("malformed header line: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return ReadOutcome::Failed(bad("chunked transfer encoding is not supported"));
    }

    let length = match request.header("content-length") {
        None => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return ReadOutcome::Failed(bad(format!("invalid Content-Length {v:?}")));
            }
        },
    };
    if length > max_body_bytes {
        return ReadOutcome::Failed(ServeError::PayloadTooLarge {
            length,
            limit: max_body_bytes,
        });
    }

    let mut request = request;
    if length > 0 {
        let mut body = vec![0u8; length];
        if let Err(e) = reader.read_exact(&mut body) {
            return ReadOutcome::Failed(bad(format!("body shorter than Content-Length: {e}")));
        }
        request.body = body;
    }
    ReadOutcome::Request(request)
}

/// A response ready to serialize: status, content type, body and optional
/// extra headers.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers, e.g. `Retry-After`.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A `200 OK` plain-text response (the `/metrics` format).
    pub fn text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes one response. `close` adds `Connection: close`.
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Renders a [`ServeError`] as its JSON response, carrying `Retry-After`
/// when the error advertises one.
pub fn error_response(error: &ServeError) -> Response {
    let body = serde_json::to_string(&serde::Value::Map(vec![
        (
            "error".to_string(),
            serde::Value::Str(error.code().to_string()),
        ),
        ("detail".to_string(), serde::Value::Str(error.to_string())),
    ]))
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
    let mut extra_headers = Vec::new();
    if let Some(secs) = error.retry_after_secs() {
        extra_headers.push(("Retry-After", secs.to_string()));
    }
    Response {
        status: error.status(),
        content_type: "application/json",
        body: body.into_bytes(),
        extra_headers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    /// Feeds `bytes` to `read_request` through a real socket pair.
    fn parse(bytes: &[u8]) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(bytes).expect("write");
        drop(client);
        let (server_side, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(server_side);
        read_request(&mut reader, 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let outcome =
            parse(b"POST /v1/match?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd");
        let ReadOutcome::Request(r) = outcome else {
            panic!("expected a request");
        };
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/match");
        assert_eq!(r.query, "x=1");
        assert_eq!(r.query_param("x").as_deref(), Some("1"));
        assert_eq!(r.query_param("y"), None);
        assert_eq!(r.header("host"), Some("h"));
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn query_params_percent_decode() {
        let outcome = parse(b"GET /debug/traces?trace_id=0af7%2B1&b=x+y HTTP/1.1\r\n\r\n");
        let ReadOutcome::Request(r) = outcome else {
            panic!("expected a request");
        };
        assert_eq!(r.path, "/debug/traces");
        assert_eq!(r.query_param("trace_id").as_deref(), Some("0af7+1"));
        assert_eq!(r.query_param("b").as_deref(), Some("x y"));
    }

    #[test]
    fn eof_before_bytes_is_a_clean_close() {
        assert!(matches!(parse(b""), ReadOutcome::Closed));
    }

    #[test]
    fn oversized_declared_body_is_rejected_unread() {
        let outcome = parse(b"POST /v1/match HTTP/1.1\r\nContent-Length: 99999\r\n\r\n");
        let ReadOutcome::Failed(e) = outcome else {
            panic!("expected failure");
        };
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn garbage_request_line_is_a_bad_request() {
        let outcome = parse(b"not-http\r\n\r\n");
        let ReadOutcome::Failed(e) = outcome else {
            panic!("expected failure");
        };
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let outcome = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        let ReadOutcome::Failed(e) = outcome else {
            panic!("expected failure");
        };
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn header_line_without_newline_buffers_at_most_the_head_limit() {
        let mut bytes = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
        bytes.resize(1 << 20, b'a');
        let mut reader = std::io::Cursor::new(bytes);
        let ReadOutcome::Failed(e) = read_request(&mut reader, 1024) else {
            panic!("expected failure");
        };
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("16KiB"), "{e}");
        assert!(reader.position() <= MAX_HEAD_BYTES as u64 + 1);
    }

    #[test]
    fn error_response_carries_retry_after() {
        let r = error_response(&ServeError::QueueFull {
            retry_after_secs: 3,
        });
        assert_eq!(r.status, 503);
        assert!(r
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "Retry-After" && v == "3"));
        let text = String::from_utf8(r.body).expect("utf8");
        assert!(text.contains("queue_full"));
    }
}

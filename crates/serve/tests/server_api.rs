//! End-to-end tests over a real socket: every endpoint, the error surface,
//! backpressure, deadlines, graceful shutdown, and the concurrent hot-swap
//! guarantee (every request is served entirely by one model, byte-identical
//! per model).

use lsd_core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher, StatsLearner};
use lsd_core::{Lsd, LsdBuilder, Source, TrainedSource};
use lsd_serve::{json, ModelRegistry, ServeConfig, Server, ServerHandle};
use lsd_xml::{parse_dtd, parse_fragment};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

const MEDIATED: &str = "<!ELEMENT HOUSE (ADDRESS, DESCRIPTION, PHONE)>\n\
                        <!ELEMENT ADDRESS (#PCDATA)>\n\
                        <!ELEMENT DESCRIPTION (#PCDATA)>\n\
                        <!ELEMENT PHONE (#PCDATA)>";

const SOURCE_DTD: &str = "<!ELEMENT home (location, comments, contact)>\n\
                          <!ELEMENT location (#PCDATA)>\n\
                          <!ELEMENT comments (#PCDATA)>\n\
                          <!ELEMENT contact (#PCDATA)>";

fn listings(rows: &[(&str, &str, &str)]) -> Vec<lsd_xml::Element> {
    rows.iter()
        .map(|(a, d, p)| {
            parse_fragment(&format!(
                "<home><location>{a}</location><comments>{d}</comments>\
                 <contact>{p}</contact></home>"
            ))
            .expect("well-formed listing")
        })
        .collect()
}

/// Trains a small system on the given rows; different rows produce
/// different learned scores, which is what the hot-swap test relies on.
fn train_model(rows: &[(&str, &str, &str)]) -> Lsd {
    let mediated = parse_dtd(MEDIATED).expect("mediated DTD");
    let dtd = parse_dtd(SOURCE_DTD).expect("source DTD");
    let train = TrainedSource {
        source: Source::from_xml("train", dtd, listings(rows)),
        mapping: HashMap::from([
            ("home".to_string(), "HOUSE".to_string()),
            ("location".to_string(), "ADDRESS".to_string()),
            ("comments".to_string(), "DESCRIPTION".to_string()),
            ("contact".to_string(), "PHONE".to_string()),
        ]),
    };
    let builder = LsdBuilder::new(&mediated);
    let n = builder.labels().len();
    let mut lsd = builder
        .add_learner(Box::new(NameMatcher::new(n, HashMap::new())))
        .add_learner(Box::new(ContentMatcher::new(n)))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .add_learner(Box::new(StatsLearner::new(n)))
        .with_xml_learner(None)
        .build()
        .expect("builds");
    lsd.train(std::slice::from_ref(&train)).expect("trains");
    lsd
}

fn model_a() -> Lsd {
    train_model(&[
        ("Miami, FL", "Great view of the bay", "(305) 111 2222"),
        ("Boston, MA", "Fantastic yard and porch", "(617) 333 4444"),
        ("Austin, TX", "Nice area near downtown", "(512) 555 6666"),
    ])
}

fn model_b() -> Lsd {
    train_model(&[
        ("Seattle, WA", "Quiet street with garden", "(206) 777 8888"),
        ("Denver, CO", "Mountain views all around", "(303) 999 0000"),
        ("Portland, OR", "Close to parks and cafes", "(503) 123 4567"),
        (
            "Chicago, IL",
            "Renovated kitchen and bath",
            "(312) 765 4321",
        ),
    ])
}

/// The query every test sends: a small unseen source.
fn query_source() -> Source {
    Source::from_xml(
        "query",
        parse_dtd(SOURCE_DTD).expect("query DTD"),
        listings(&[
            ("Raleigh, NC", "Corner lot with big trees", "(919) 222 3333"),
            ("Tampa, FL", "Walkable and sunny", "(813) 444 5555"),
        ]),
    )
}

fn match_request_body() -> String {
    let listing_strings: Vec<String> = [
        ("Raleigh, NC", "Corner lot with big trees", "(919) 222 3333"),
        ("Tampa, FL", "Walkable and sunny", "(813) 444 5555"),
    ]
    .iter()
    .map(|(a, d, p)| {
        format!(
            "<home><location>{a}</location><comments>{d}</comments>\
             <contact>{p}</contact></home>"
        )
    })
    .collect();
    let doc = serde::Value::Map(vec![(
        "source".to_string(),
        serde::Value::Map(vec![
            ("name".to_string(), serde::Value::Str("query".to_string())),
            ("dtd".to_string(), serde::Value::Str(SOURCE_DTD.to_string())),
            (
                "listings".to_string(),
                serde::Value::Seq(listing_strings.into_iter().map(serde::Value::Str).collect()),
            ),
        ]),
    )]);
    serde_json::to_string(&doc).expect("serializes")
}

struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A minimal blocking HTTP client: one request per connection.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    HttpResponse {
        status,
        headers,
        body,
    }
}

fn post_match(addr: SocketAddr) -> HttpResponse {
    http(
        addr,
        "POST",
        "/v1/match",
        &[("Content-Type", "application/json")],
        match_request_body().as_bytes(),
    )
}

/// A fresh model directory under the target-adjacent temp dir.
fn model_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsd-serve-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("model dir");
    dir
}

fn boot(dir: &Path, config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let registry = ModelRegistry::open(dir).expect("registry opens");
    let server = Server::bind(config, registry).expect("binds");
    server.spawn()
}

#[test]
fn match_results_are_byte_identical_to_direct_calls() {
    let dir = model_dir("roundtrip");
    let lsd = model_a();
    lsd.save_json(dir.join("m.json")).expect("saves");
    let expected = json::match_body("m", &lsd.match_source(&query_source()).expect("matches"));

    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    let first = post_match(addr);
    assert_eq!(first.status, 200, "body: {}", first.text());
    assert_eq!(
        first.text(),
        expected,
        "server output == direct match_source"
    );
    let second = post_match(addr);
    assert_eq!(second.text(), expected, "responses are deterministic");

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_models_healthz_and_metrics_endpoints_work() {
    let dir = model_dir("endpoints");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    let explain = http(
        addr,
        "POST",
        "/v1/explain",
        &[],
        match_request_body().as_bytes(),
    );
    assert_eq!(explain.status, 200, "body: {}", explain.text());
    let explain_text = explain.text();
    assert!(explain_text.contains("\"explanations\""), "{explain_text}");
    assert!(explain_text.contains("\"candidates\""), "{explain_text}");

    let models = http(addr, "GET", "/v1/models", &[], b"");
    assert_eq!(models.status, 200);
    let models_text = models.text();
    assert!(models_text.contains("\"m\""), "{models_text}");
    assert!(models_text.contains("\"active\""), "{models_text}");

    let health = http(addr, "GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    let health_text = health.text();
    assert!(health_text.contains("\"status\""), "{health_text}");
    assert!(health_text.contains("\"queue_capacity\""), "{health_text}");

    // A match first, so /metrics has server families to show.
    assert_eq!(post_match(addr).status, 200);
    let metrics = http(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let metrics_text = metrics.text();
    assert!(
        metrics_text.contains("serve_http_requests"),
        "{metrics_text}"
    );
    assert!(metrics_text.contains("serve_batch_size"), "{metrics_text}");

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_surface_maps_to_the_documented_statuses() {
    let dir = model_dir("errors");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let config = ServeConfig {
        max_body_bytes: 4096,
        ..ServeConfig::default()
    };
    let (handle, join) = boot(&dir, config);
    let addr = handle.addr();

    // Unknown path.
    assert_eq!(http(addr, "GET", "/nope", &[], b"").status, 404);
    // Wrong method on a known path.
    assert_eq!(http(addr, "GET", "/v1/match", &[], b"").status, 405);
    // Garbage JSON body.
    let bad = http(addr, "POST", "/v1/match", &[], b"not json");
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("bad_request"), "{}", bad.text());
    // Unknown model.
    let body = match_request_body().replacen('{', "{\"model\": \"ghost\", ", 1);
    let missing = http(addr, "POST", "/v1/match", &[], body.as_bytes());
    assert_eq!(missing.status, 404);
    assert!(
        missing.text().contains("model_not_found"),
        "{}",
        missing.text()
    );
    // Oversized body (rejected from the Content-Length alone).
    let huge = vec![b'x'; 5000];
    assert_eq!(http(addr, "POST", "/v1/match", &[], &huge).status, 413);
    // Activating a model with no snapshot on disk.
    assert_eq!(http(addr, "PUT", "/v1/models/ghost", &[], b"").status, 404);
    // Path tricks in model names are rejected, not resolved.
    assert_eq!(http(addr, "PUT", "/v1/models/..%2Fx", &[], b"").status, 400);

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_json_is_a_400_and_the_server_keeps_serving() {
    let dir = model_dir("deep-json");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    // A million open brackets fit under the default 1 MiB body cap; the
    // parser must stop at its depth limit rather than recurse off the
    // connection thread's stack.
    let deep = vec![b'['; 1_000_000];
    assert!(deep.len() <= ServeConfig::default().max_body_bytes);
    let response = http(
        addr,
        "POST",
        "/v1/match",
        &[("Content-Type", "application/json")],
        &deep,
    );
    assert_eq!(response.status, 400, "body: {}", response.text());
    assert!(response.text().contains("nesting"), "{}", response.text());

    let after = post_match(addr);
    assert_eq!(after.status, 200, "body: {}", after.text());
    assert!(after.text().contains("\"mapping\""), "{}", after.text());

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_xml_and_dtd_are_400s_and_the_server_keeps_serving() {
    let dir = model_dir("deep-xml");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    // Both bodies fit under the default 1 MiB cap; each parser must stop
    // at `lsd_xml::MAX_DEPTH` rather than recurse off the thread's stack.
    let deep_xml = "<a>".repeat(300_000);
    let levels = 200_000;
    let dtd = format!("<!ELEMENT a {}b{}>", "(".repeat(levels), ")".repeat(levels));
    let deep_dtd = format!(r#"{{"source": {{"name": "deep", "dtd": "{dtd}", "listings": []}}}}"#);
    for (content_type, body) in [
        ("application/xml", deep_xml.as_bytes()),
        ("application/json", deep_dtd.as_bytes()),
    ] {
        assert!(body.len() <= ServeConfig::default().max_body_bytes);
        let response = http(
            addr,
            "POST",
            "/v1/match",
            &[("Content-Type", content_type)],
            body,
        );
        assert_eq!(response.status, 400, "{content_type}: {}", response.text());
        assert!(response.text().contains("nesting"), "{}", response.text());
    }

    let after = post_match(addr);
    assert_eq!(after.status, 200, "body: {}", after.text());
    assert!(after.text().contains("\"mapping\""), "{}", after.text());

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_full_returns_503_and_deadline_returns_504_never_hang() {
    let dir = model_dir("backpressure");
    model_a().save_json(dir.join("m.json")).expect("saves");
    // No workers: nothing drains the queue, so the first request parks in
    // the queue until its deadline and the second hits the capacity wall.
    let config = ServeConfig {
        workers: 0,
        queue_capacity: 1,
        default_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (handle, join) = boot(&dir, config);
    let addr = handle.addr();

    let parked = std::thread::spawn(move || post_match(addr));
    // Give the first request time to occupy the queue slot.
    std::thread::sleep(Duration::from_millis(100));
    let rejected = post_match(addr);
    assert_eq!(rejected.status, 503, "body: {}", rejected.text());
    assert!(
        rejected.text().contains("queue_full"),
        "{}",
        rejected.text()
    );
    assert_eq!(rejected.header("retry-after"), Some("1"));

    let parked = parked.join().expect("parked request returns");
    assert_eq!(parked.status, 504, "body: {}", parked.text());
    assert!(
        parked.text().contains("deadline_exceeded"),
        "{}",
        parked.text()
    );

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let dir = model_dir("shutdown");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    assert_eq!(post_match(addr).status, 200);
    handle.shutdown();
    join.join().expect("server drains and exits");
    // The listener is gone (or answers nothing): new connections fail.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
            || post_match_is_rejected(addr),
        "server must not accept new work after shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn post_match_is_rejected(addr: SocketAddr) -> bool {
    std::panic::catch_unwind(|| post_match(addr))
        .map(|r| r.status >= 500)
        .unwrap_or(true)
}

#[test]
fn concurrent_hot_swap_serves_every_request_from_exactly_one_model() {
    let dir = model_dir("hotswap");
    let a = model_a();
    let b = model_b();
    a.save_json(dir.join("m.json")).expect("saves A");

    let query = query_source();
    let expected_a = json::match_body("m", &a.match_source(&query).expect("A matches"));
    let expected_b = json::match_body("m", &b.match_source(&query).expect("B matches"));
    assert_ne!(
        expected_a, expected_b,
        "the two models must be distinguishable for this test to mean anything"
    );

    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    // Clients hammer /v1/match while the snapshot is swapped A -> B and
    // re-activated mid-flight. Each client keeps requesting until it has
    // observed model B (bounded), so the run is guaranteed to straddle the
    // swap regardless of scheduling.
    let expected_b_for_client = expected_b.clone();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let expected_b = expected_b_for_client.clone();
            std::thread::spawn(move || {
                let mut responses = Vec::new();
                for _ in 0..500 {
                    let response = post_match(addr);
                    let done = response.text() == expected_b;
                    responses.push(response);
                    if done {
                        break;
                    }
                }
                responses
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    b.save_json(dir.join("m.json")).expect("saves B");
    let swap = http(addr, "PUT", "/v1/models/m", &[], b"");
    assert_eq!(swap.status, 200, "body: {}", swap.text());
    assert!(swap.text().contains("\"generation\""), "{}", swap.text());

    let mut saw_a = 0usize;
    let mut saw_b = 0usize;
    for client in clients {
        for response in client.join().expect("client finishes") {
            assert_eq!(response.status, 200, "body: {}", response.text());
            let text = response.text();
            if text == expected_a {
                saw_a += 1;
            } else if text == expected_b {
                saw_b += 1;
            } else {
                panic!("response matches neither model byte-for-byte: {text}");
            }
        }
    }
    assert_eq!(saw_b, 8, "every client eventually saw model B");
    assert!(saw_a > 0, "clients started before the swap saw model A");

    // After the swap settles, only B answers.
    let settled = post_match(addr);
    assert_eq!(settled.text(), expected_b);

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn match_negotiates_json_csv_sql_and_xml_bodies() {
    let dir = model_dir("formats");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    // The same two listings in each serialization; leaf tags match the
    // trained source, so every format should map them identically.
    let json_body = r#"[
        {"location": "Raleigh, NC", "comments": "Corner lot with big trees", "contact": "(919) 222 3333"},
        {"location": "Tampa, FL", "comments": "Walkable and sunny", "contact": "(813) 444 5555"}
    ]"#;
    let csv_body = "location,comments,contact\n\
                    \"Raleigh, NC\",Corner lot with big trees,(919) 222 3333\n\
                    \"Tampa, FL\",Walkable and sunny,(813) 444 5555\n";
    let sql_body = "CREATE TABLE home (location TEXT NOT NULL, comments TEXT, contact TEXT);\n\
                    INSERT INTO home VALUES\n\
                      ('Raleigh, NC', 'Corner lot with big trees', '(919) 222 3333'),\n\
                      ('Tampa, FL', 'Walkable and sunny', '(813) 444 5555');";
    let xml_body = "<homes>\
        <home><location>Raleigh, NC</location>\
        <comments>Corner lot with big trees</comments>\
        <contact>(919) 222 3333</contact></home>\
        <home><location>Tampa, FL</location>\
        <comments>Walkable and sunny</comments>\
        <contact>(813) 444 5555</contact></home></homes>";
    for (content_type, body) in [
        ("application/json", json_body),
        ("text/csv", csv_body),
        ("application/sql", sql_body),
        ("application/xml", xml_body),
    ] {
        let response = http(
            addr,
            "POST",
            "/v1/match",
            &[("Content-Type", content_type), ("X-Lsd-Source", "multi")],
            body.as_bytes(),
        );
        assert_eq!(
            response.status,
            200,
            "{content_type} body: {}",
            response.text()
        );
        let text = response.text();
        for pair in [
            "\"location\":\"ADDRESS\"",
            "\"comments\":\"DESCRIPTION\"",
            "\"contact\":\"PHONE\"",
        ] {
            assert!(
                text.contains(pair),
                "{content_type}: missing {pair}: {text}"
            );
        }
    }

    // An unknown serialization is a 415, counted in /metrics.
    let unsupported = http(
        addr,
        "POST",
        "/v1/match",
        &[("Content-Type", "image/png")],
        b"bytes",
    );
    assert_eq!(unsupported.status, 415, "body: {}", unsupported.text());
    assert!(
        unsupported.text().contains("unsupported_media_type"),
        "{}",
        unsupported.text()
    );
    let metrics = http(addr, "GET", "/metrics", &[], b"").text();
    assert!(
        metrics.contains("serve_http_errors{label=\"unsupported_media_type\"}"),
        "{metrics}"
    );

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bare_dtd_less_xml_infers_a_schema_and_returns_a_mapping() {
    let dir = model_dir("bareinfer");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    // No DOCTYPE, no DTD anywhere: the schema must be inferred from the
    // instances. The second listing drops <comments> so inference has to
    // generalize (comments becomes optional) rather than memorize.
    let body = "<homes>\
        <home><location>Raleigh, NC</location>\
        <comments>Corner lot with big trees</comments>\
        <contact>(919) 222 3333</contact></home>\
        <home><location>Tampa, FL</location>\
        <contact>(813) 444 5555</contact></home></homes>";
    let response = http(
        addr,
        "POST",
        "/v1/match",
        &[
            ("Content-Type", "application/xml"),
            ("X-Lsd-Source", "bare"),
        ],
        body.as_bytes(),
    );
    assert_eq!(response.status, 200, "body: {}", response.text());
    let text = response.text();
    assert!(text.contains("\"mapping\""), "{text}");
    for pair in ["\"location\":\"ADDRESS\"", "\"contact\":\"PHONE\""] {
        assert!(text.contains(pair), "missing {pair}: {text}");
    }

    // The inference pass shows up in /metrics: elements were learned for
    // this request, and the optional <comments> counts as a
    // generalization.
    let metrics = http(addr, "GET", "/metrics", &[], b"").text();
    assert!(metrics.contains("infer_elements"), "{metrics}");
    assert!(metrics.contains("infer_generalizations"), "{metrics}");

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

/// Pulls the trace id out of a `00-{trace}-{span}-{flags}` traceparent.
fn traceparent_parts(header: &str) -> (String, String) {
    let parts: Vec<&str> = header.split('-').collect();
    assert_eq!(parts.len(), 4, "traceparent has 4 segments: {header}");
    assert_eq!(parts[0], "00", "version 00: {header}");
    assert_eq!(parts[1].len(), 32, "128-bit trace id: {header}");
    assert_eq!(parts[2].len(), 16, "64-bit span id: {header}");
    assert!(
        parts[1].chars().all(|c| c.is_ascii_hexdigit()),
        "hex trace id: {header}"
    );
    (parts[1].to_string(), parts[2].to_string())
}

#[test]
fn every_response_echoes_a_traceparent_and_continues_client_traces() {
    let dir = model_dir("traceparent");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    // Server-minted context: every route echoes a well-formed traceparent
    // with a nonzero trace id, including inline-answered and error routes.
    for (method, path, body) in [
        ("POST", "/v1/match", match_request_body()),
        ("GET", "/healthz", String::new()),
        ("GET", "/nope", String::new()),
    ] {
        let response = http(addr, method, path, &[], body.as_bytes());
        let echoed = response
            .header("traceparent")
            .unwrap_or_else(|| panic!("{method} {path} must echo traceparent"))
            .to_string();
        let (trace, _) = traceparent_parts(&echoed);
        assert_ne!(trace, "0".repeat(32), "{method} {path}: nonzero trace id");
    }

    // Client-provided context: the trace id is continued verbatim but the
    // span id is the server's own (a child span, not a replay).
    let upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
    let response = http(
        addr,
        "POST",
        "/v1/match",
        &[("traceparent", upstream)],
        match_request_body().as_bytes(),
    );
    assert_eq!(response.status, 200, "body: {}", response.text());
    let echoed = response.header("traceparent").expect("echoed").to_string();
    let (trace, span) = traceparent_parts(&echoed);
    assert_eq!(trace, "4bf92f3577b34da6a3ce929d0e0e4736", "trace continued");
    assert_ne!(span, "00f067aa0ba902b7", "span id is the server's own");

    // A malformed traceparent is ignored, not propagated: the server mints
    // a fresh context instead of echoing garbage back.
    let response = http(
        addr,
        "GET",
        "/healthz",
        &[("traceparent", "00-zzzz-bad-ff")],
        b"",
    );
    let echoed = response.header("traceparent").expect("echoed").to_string();
    traceparent_parts(&echoed);

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_traces_are_retrievable_from_debug_traces_with_span_tree() {
    let dir = model_dir("flightrec");
    model_a().save_json(dir.join("m.json")).expect("saves");
    // Threshold zero: every completed request counts as slow, so the test
    // does not depend on wall-clock behaviour of the match itself.
    let config = ServeConfig {
        slow_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let (handle, join) = boot(&dir, config);
    let addr = handle.addr();

    let upstream = "00-feedfacecafebeef0123456789abcdef-0123456789abcdef-01";
    let matched = http(
        addr,
        "POST",
        "/v1/match",
        &[("traceparent", upstream)],
        match_request_body().as_bytes(),
    );
    assert_eq!(matched.status, 200, "body: {}", matched.text());

    // Single-trace lookup: the full span tree, including the queue wait,
    // the worker's match span and the pipeline's own spans beneath it.
    let lookup = http(
        addr,
        "GET",
        "/debug/traces?trace_id=feedfacecafebeef0123456789abcdef",
        &[],
        b"",
    );
    assert_eq!(lookup.status, 200, "body: {}", lookup.text());
    let body = lookup.text();
    assert!(
        body.contains("\"feedfacecafebeef0123456789abcdef\""),
        "{body}"
    );
    assert!(body.contains("\"reason\":\"slow\""), "{body}");
    for span in [
        "serve.request",
        "serve.queue_wait",
        "serve.match",
        "match.source",
    ] {
        let name = format!("\"name\":\"{span}\"");
        assert!(body.contains(&name), "span {span} in tree: {body}");
    }

    // The listing endpoint reports the recorder's accounting and the most
    // recent samples, newest first.
    let listing = http(addr, "GET", "/debug/traces", &[], b"");
    assert_eq!(listing.status, 200);
    let listing_text = listing.text();
    for key in ["\"recorded\"", "\"evicted\"", "\"capacity\"", "\"traces\""] {
        assert!(listing_text.contains(key), "{key} in: {listing_text}");
    }

    // A malformed id is the caller's error; an unknown-but-valid id is a
    // clean miss, not a 500.
    assert_eq!(
        http(addr, "GET", "/debug/traces?trace_id=xyz", &[], b"").status,
        400
    );
    assert_eq!(
        http(
            addr,
            "GET",
            "/debug/traces?trace_id=11111111111111111111111111111111",
            &[],
            b""
        )
        .status,
        404
    );

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn requests_continuing_one_traceparent_are_told_apart_by_span_id() {
    let dir = model_dir("flightrec-spans");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let config = ServeConfig {
        slow_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let (handle, join) = boot(&dir, config);
    let addr = handle.addr();

    // Two requests continue one client trace: a match and an explain, so
    // their samples differ in route as well as in span id.
    let trace = "5ca1ab1e5ca1ab1e0123456789abcdef";
    let upstream = format!("00-{trace}-0123456789abcdef-01");
    let mut spans = Vec::new();
    for path in ["/v1/match", "/v1/explain"] {
        let response = http(
            addr,
            "POST",
            path,
            &[("traceparent", upstream.as_str())],
            match_request_body().as_bytes(),
        );
        assert_eq!(response.status, 200, "{path}: {}", response.text());
        let (echoed_trace, span) =
            traceparent_parts(response.header("traceparent").expect("echoed"));
        assert_eq!(echoed_trace, trace);
        spans.push(span);
    }
    assert_ne!(spans[0], spans[1], "each request gets its own span id");

    // Each span id selects its own request's sample.
    for (span, route) in spans.iter().zip(["match", "explain"]) {
        let lookup = http(
            addr,
            "GET",
            &format!("/debug/traces?trace_id={trace}&span_id={span}"),
            &[],
            b"",
        );
        assert_eq!(lookup.status, 200, "body: {}", lookup.text());
        let body = lookup.text();
        assert!(body.contains(&format!("\"span_id\":\"{span}\"")), "{body}");
        assert!(body.contains(&format!("\"route\":\"{route}\"")), "{body}");
    }
    // Without a span id the newest sample answers, as before.
    let newest = http(
        addr,
        "GET",
        &format!("/debug/traces?trace_id={trace}"),
        &[],
        b"",
    )
    .text();
    assert!(
        newest.contains(&format!("\"span_id\":\"{}\"", spans[1])),
        "{newest}"
    );
    // An unknown span id of a sampled trace is a miss; a malformed one is
    // the caller's error.
    let miss = format!("/debug/traces?trace_id={trace}&span_id=00000000000000ff");
    assert_eq!(http(addr, "GET", &miss, &[], b"").status, 404);
    let bad = format!("/debug/traces?trace_id={trace}&span_id=xyz");
    assert_eq!(http(addr, "GET", &bad, &[], b"").status, 400);

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn access_log_is_valid_jsonl_with_per_request_timings() {
    let dir = model_dir("accesslog");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let log_path = dir.join("access.jsonl");
    let config = ServeConfig {
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (handle, join) = boot(&dir, config);
    let addr = handle.addr();

    let matched = post_match(addr);
    assert_eq!(matched.status, 200);
    let match_trace = traceparent_parts(matched.header("traceparent").expect("echoed")).0;
    assert_eq!(http(addr, "GET", "/healthz", &[], b"").status, 200);
    assert_eq!(http(addr, "GET", "/nope", &[], b"").status, 404);

    handle.shutdown();
    join.join().expect("server exits");

    let text = std::fs::read_to_string(&log_path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one line per request:\n{text}");
    for line in &lines {
        let value: serde::Value = serde_json::from_str(line).expect("valid JSON line");
        let serde::Value::Map(fields) = value else {
            panic!("line is an object: {line}");
        };
        for want in [
            "unix_ms", "trace_id", "route", "method", "path", "status", "model", "queue_ns",
            "match_ns", "total_ns",
        ] {
            assert!(fields.iter().any(|(k, _)| k == want), "missing {want}");
        }
    }
    // The match line carries the echoed trace id, the resolved model and
    // real pipeline timings; the inline healthz line has no queue time.
    let match_line = lines[0];
    assert!(
        match_line.contains(&format!("\"{match_trace}\"")),
        "{match_line}"
    );
    assert!(match_line.contains("\"route\":\"match\""), "{match_line}");
    assert!(match_line.contains("\"model\":\"m\""), "{match_line}");
    assert!(!match_line.contains("\"match_ns\":0"), "{match_line}");
    assert!(lines[1].contains("\"route\":\"healthz\""), "{}", lines[1]);
    assert!(lines[1].contains("\"queue_ns\":0"), "{}", lines[1]);
    assert!(lines[2].contains("\"status\":404"), "{}", lines[2]);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_expose_rolling_window_quantiles_and_real_histograms() {
    let dir = model_dir("windows");
    model_a().save_json(dir.join("m.json")).expect("saves");
    let (handle, join) = boot(&dir, ServeConfig::default());
    let addr = handle.addr();

    assert_eq!(post_match(addr).status, 200);
    let metrics = http(addr, "GET", "/metrics", &[], b"").text();
    // Rolling-window gauges sit next to the cumulative series.
    for family in [
        "serve_request_ns_window_p50",
        "serve_request_ns_window_p95",
        "serve_request_ns_window_p99",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family} gauge")),
            "{family} in:\n{metrics}"
        );
        assert!(
            metrics.contains(&format!("{family}{{label=\"match\"}}")),
            "{family} sample in:\n{metrics}"
        );
    }
    // The cumulative duration series is a real Prometheus histogram.
    assert!(
        metrics.contains("# TYPE serve_request_ns histogram"),
        "{metrics}"
    );
    assert!(
        metrics.contains("serve_request_ns_bucket{label=\"match\",le=\"+Inf\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("serve_request_ns_sum"), "{metrics}");
    assert!(metrics.contains("serve_request_ns_count"), "{metrics}");

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn untrained_snapshot_is_rejected_at_activation() {
    let dir = model_dir("unservable");
    // An untrained system snapshots fine but must not serve.
    let mediated = parse_dtd(MEDIATED).expect("mediated DTD");
    let builder = LsdBuilder::new(&mediated);
    let n = builder.labels().len();
    let untrained = builder
        .add_learner(Box::new(NameMatcher::new(n, HashMap::new())))
        .build()
        .expect("builds");
    untrained.save_json(dir.join("raw.json")).expect("saves");

    let registry = ModelRegistry::open(&dir).expect("opens");
    assert!(registry.is_empty(), "untrained snapshot must not activate");
    let listing = registry.list_json();
    assert!(listing.contains("raw"), "failure is reported: {listing}");

    let server = Server::bind(ServeConfig::default(), registry).expect("binds");
    let (handle, join) = server.spawn();
    let no_model = post_match(handle.addr());
    assert_eq!(no_model.status, 503, "body: {}", no_model.text());
    assert!(
        no_model.text().contains("no_active_model"),
        "{}",
        no_model.text()
    );
    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

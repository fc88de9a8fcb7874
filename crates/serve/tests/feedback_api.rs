//! End-to-end tests of the feedback loop: `POST /v1/feedback` durably logs
//! typed corrections, the retrain worker folds them into a new model
//! generation, and the hot-swap serves the corrected mapping without a
//! single failed request. Also covers the crash path: corrections acked to
//! the WAL before a shutdown are replayed and folded on the next boot.

use lsd_core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher};
use lsd_core::{
    Correction, Feedback, FeedbackRecord, FeedbackWal, Lsd, LsdBuilder, Source, TrainedSource,
};
use lsd_serve::{json, ModelRegistry, ServeConfig, Server, ServerHandle};
use lsd_xml::{parse_dtd, parse_fragment};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const MEDIATED: &str = "<!ELEMENT HOUSE (ADDRESS, DESCRIPTION, PHONE)>\n\
                        <!ELEMENT ADDRESS (#PCDATA)>\n\
                        <!ELEMENT DESCRIPTION (#PCDATA)>\n\
                        <!ELEMENT PHONE (#PCDATA)>";

const SOURCE_DTD: &str = "<!ELEMENT home (location, comments, contact)>\n\
                          <!ELEMENT location (#PCDATA)>\n\
                          <!ELEMENT comments (#PCDATA)>\n\
                          <!ELEMENT contact (#PCDATA)>";

const QUERY_ROWS: [(&str, &str, &str); 2] = [
    ("Raleigh, NC", "Corner lot with big trees", "(919) 222 3333"),
    ("Tampa, FL", "Walkable and sunny", "(813) 444 5555"),
];

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

fn train_model() -> Lsd {
    let mediated = parse_dtd(MEDIATED).expect("mediated DTD");
    let dtd = parse_dtd(SOURCE_DTD).expect("source DTD");
    let train = TrainedSource {
        source: Source::from_xml(
            "train",
            dtd,
            listings(&[
                ("Miami, FL", "Great view of the bay", "(305) 111 2222"),
                ("Boston, MA", "Fantastic yard and porch", "(617) 333 4444"),
                ("Austin, TX", "Nice area near downtown", "(512) 555 6666"),
            ]),
        ),
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
        .with_xml_learner(None)
        .build()
        .expect("builds");
    lsd.train(std::slice::from_ref(&train)).expect("trains");
    lsd
}

fn query_source() -> Source {
    Source::from_xml(
        "query",
        parse_dtd(SOURCE_DTD).expect("query DTD"),
        listings(&QUERY_ROWS),
    )
}

fn source_json() -> serde::Value {
    let listing_strings: Vec<String> = QUERY_ROWS
        .iter()
        .map(|(a, d, p)| {
            format!(
                "<home><location>{a}</location><comments>{d}</comments>\
                 <contact>{p}</contact></home>"
            )
        })
        .collect();
    serde::Value::Map(vec![
        ("name".to_string(), serde::Value::Str("query".to_string())),
        ("dtd".to_string(), serde::Value::Str(SOURCE_DTD.to_string())),
        (
            "listings".to_string(),
            serde::Value::Seq(listing_strings.into_iter().map(serde::Value::Str).collect()),
        ),
    ])
}

fn match_request_body() -> String {
    let doc = serde::Value::Map(vec![("source".to_string(), source_json())]);
    serde_json::to_string(&doc).expect("serializes")
}

/// The feedback body: "tag `comments` actually maps to PHONE".
fn feedback_request_body() -> String {
    let correction = serde::Value::Map(vec![
        ("tag".to_string(), serde::Value::Str("comments".to_string())),
        (
            "kind".to_string(),
            serde::Value::Map(vec![(
                "TagIs".to_string(),
                serde::Value::Map(vec![(
                    "label".to_string(),
                    serde::Value::Str("PHONE".to_string()),
                )]),
            )]),
        ),
    ]);
    let doc = serde::Value::Map(vec![
        ("origin".to_string(), serde::Value::Str("test".to_string())),
        ("source".to_string(), source_json()),
        (
            "corrections".to_string(),
            serde::Value::Seq(vec![correction]),
        ),
    ]);
    serde_json::to_string(&doc).expect("serializes")
}

struct HttpResponse {
    status: u16,
    body: Vec<u8>,
}

impl HttpResponse {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
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
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    HttpResponse { status, body }
}

fn dirs(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("lsd-feedback-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let models = base.join("models");
    let wals = base.join("feedback");
    std::fs::create_dir_all(&models).expect("model dir");
    (models, wals)
}

fn boot(models: &Path, wals: &Path) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let registry = ModelRegistry::open(models).expect("registry opens");
    let config = ServeConfig {
        feedback_dir: Some(wals.to_path_buf()),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, registry).expect("binds");
    server.spawn()
}

/// Polls `GET /v1/models` until the active model reports `generation` (or
/// panics after a generous timeout). Returns how many polls it took.
fn wait_for_generation(addr: SocketAddr, generation: u64) -> usize {
    let needle = format!("\"generation\":{generation}");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut polls = 0;
    loop {
        polls += 1;
        let listing = http(addr, "GET", "/v1/models", b"").text();
        if listing.contains(&needle) {
            return polls;
        }
        assert!(
            Instant::now() < deadline,
            "generation {generation} never appeared; last listing: {listing}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// What the retrain worker should produce, computed directly: re-match the
/// feedback source under the correction, warm-train on the constrained
/// mapping, and match the query. The server's post-retrain response must be
/// byte-identical to this.
fn expected_after_retrain(snapshot: &Path) -> Lsd {
    let mut lsd = Lsd::load_json(snapshot).expect("loads");
    let source = query_source();
    let feedback = Feedback::from_corrections(vec![Correction::tag_is("comments", "PHONE")]);
    let outcome = lsd.match_source_with(&source, &feedback).expect("matches");
    let corrected = TrainedSource {
        source,
        mapping: outcome.mapping().clone(),
    };
    lsd.train_incremental(std::slice::from_ref(&corrected))
        .expect("warm-trains");
    lsd
}

#[test]
fn feedback_retrains_and_hot_swaps_without_dropping_requests() {
    let (models, wals) = dirs("loop");
    let lsd = train_model();
    lsd.save_json(models.join("m.json")).expect("saves");

    // Precondition: the model must get `comments` wrong w.r.t. the
    // correction we are about to send, or the test shows nothing.
    let baseline = lsd.match_source(&query_source()).expect("matches");
    assert_eq!(baseline.label_of("comments"), Some("DESCRIPTION"));

    let expected = expected_after_retrain(&models.join("m.json"));
    assert_eq!(
        expected
            .match_source(&query_source())
            .expect("matches")
            .label_of("comments"),
        Some("PHONE"),
        "warm-training on the corrected mapping must flip the label"
    );
    let expected_body = json::match_body(
        "m",
        &expected.match_source(&query_source()).expect("matches"),
    );

    let (handle, join) = boot(&models, &wals);
    let addr = handle.addr();

    // Clients hammer /v1/match for the whole retrain window; any 5xx fails
    // the zero-downtime guarantee.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let response = http(addr, "POST", "/v1/match", match_request_body().as_bytes());
                    statuses.push(response.status);
                }
                statuses
            })
        })
        .collect();

    let ack = http(
        addr,
        "POST",
        "/v1/feedback",
        feedback_request_body().as_bytes(),
    );
    assert_eq!(ack.status, 200, "body: {}", ack.text());
    let ack_text = ack.text();
    assert!(ack_text.contains("\"accepted\":1"), "{ack_text}");
    assert!(ack_text.contains("\"record\":0"), "{ack_text}");

    // The initial load is generation 1; the retrained install is 2.
    wait_for_generation(addr, 2);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for hammer in hammers {
        for status in hammer.join().expect("hammer finishes") {
            assert!(status < 500, "zero-downtime violated: saw a {status}");
        }
    }

    // The corrected mapping is served, byte-identical to the direct
    // warm-train path, and stable across repeated requests.
    let first = http(addr, "POST", "/v1/match", match_request_body().as_bytes());
    assert_eq!(first.status, 200, "body: {}", first.text());
    assert_eq!(first.text(), expected_body, "server == direct warm-train");
    let second = http(addr, "POST", "/v1/match", match_request_body().as_bytes());
    assert_eq!(second.text(), expected_body, "responses stay deterministic");

    // The retrained snapshot also reached disk with its fold point, so a
    // cold start serves the corrected mapping with no WAL replay needed.
    let reloaded = Lsd::load_json(models.join("m.json")).expect("reloads");
    assert_eq!(reloaded.feedback_applied(), 1, "fold point persisted");
    assert_eq!(
        reloaded
            .match_source(&query_source())
            .expect("matches")
            .label_of("comments"),
        Some("PHONE")
    );

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(models.parent().expect("base")).ok();
}

#[test]
fn acked_corrections_survive_restart_and_are_folded_on_boot() {
    let (models, wals) = dirs("restart");
    train_model()
        .save_json(models.join("m.json"))
        .expect("saves");

    // Simulate a server that acked a correction and then died before the
    // retrain worker ran: the record exists only in the WAL.
    std::fs::create_dir_all(&wals).expect("wal dir");
    {
        let (mut wal, existing) = FeedbackWal::open(wals.join("m.wal")).expect("wal opens");
        assert!(existing.is_empty());
        let record = FeedbackRecord::from_source(
            &query_source(),
            vec![Correction::tag_is("comments", "PHONE")],
        );
        wal.append(&record).expect("appends");
    }

    let (handle, join) = boot(&models, &wals);
    let addr = handle.addr();

    // Boot-time recovery: the replayed record is folded without any new
    // feedback arriving — generation 1 is the load, 2 the fold.
    wait_for_generation(addr, 2);
    let response = http(addr, "POST", "/v1/match", match_request_body().as_bytes());
    assert_eq!(response.status, 200, "body: {}", response.text());
    assert!(
        response.text().contains("\"comments\":\"PHONE\""),
        "replayed correction must be honored: {}",
        response.text()
    );

    handle.shutdown();
    join.join().expect("server exits");

    // A second boot finds the fold point in the snapshot and replays
    // nothing: the generation stays at 1 (no spurious retrains).
    let (handle, join) = boot(&models, &wals);
    let addr = handle.addr();
    std::thread::sleep(Duration::from_millis(200));
    let listing = http(addr, "GET", "/v1/models", b"").text();
    assert!(
        listing.contains("\"generation\":1") && !listing.contains("\"generation\":2"),
        "already-folded WAL records must not retrain again: {listing}"
    );
    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(models.parent().expect("base")).ok();
}

#[test]
fn feedback_error_surface() {
    let (models, wals) = dirs("errors");
    train_model()
        .save_json(models.join("m.json"))
        .expect("saves");

    // Feedback disabled: the endpoint answers 503 feedback_disabled.
    let registry = ModelRegistry::open(&models).expect("opens");
    let server = Server::bind(ServeConfig::default(), registry).expect("binds");
    let (handle, join) = server.spawn();
    let disabled = http(
        handle.addr(),
        "POST",
        "/v1/feedback",
        feedback_request_body().as_bytes(),
    );
    assert_eq!(disabled.status, 503, "body: {}", disabled.text());
    assert!(
        disabled.text().contains("feedback_disabled"),
        "{}",
        disabled.text()
    );
    handle.shutdown();
    join.join().expect("server exits");

    // Enabled: bad corrections are rejected before anything is logged.
    let (handle, join) = boot(&models, &wals);
    let addr = handle.addr();

    // Unknown label.
    let bad_label = feedback_request_body().replace("PHONE", "TELEPHONE");
    let rejected = http(addr, "POST", "/v1/feedback", bad_label.as_bytes());
    assert_eq!(rejected.status, 400, "body: {}", rejected.text());
    assert!(rejected.text().contains("TELEPHONE"), "{}", rejected.text());

    // Empty corrections array.
    let empty = match_request_body().replacen('{', "{\"corrections\": [], ", 1);
    let rejected = http(addr, "POST", "/v1/feedback", empty.as_bytes());
    assert_eq!(rejected.status, 400, "body: {}", rejected.text());

    // Wrong method.
    assert_eq!(http(addr, "GET", "/v1/feedback", b"").status, 405);

    // Nothing was logged: no WAL record, no retrain, generation stays 1.
    std::thread::sleep(Duration::from_millis(200));
    let listing = http(addr, "GET", "/v1/models", b"").text();
    assert!(listing.contains("\"generation\":1"), "{listing}");

    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(models.parent().expect("base")).ok();
}

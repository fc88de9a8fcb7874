//! Every metric name the workspace records is documented in DESIGN.md's
//! "Metric catalogue" table. This test drives an in-process server (match,
//! explain, bare XML, feedback and its retrain, malformed requests) and the
//! report entry points (`train_with_report`, `match_source_with_report`,
//! `train_incremental` under `collect`), then fails on any recorded key
//! whose base name, or whose `span/<name>` label, has no row in the table.
//! The other direction is a static scan: every row must name a metric or
//! span whose string literal still occurs in some crate's `src`, so a row
//! outlives neither its code nor a rename.
//!
//! It lives in its own file so it runs in its own process: recording is
//! process-wide, and no other test's probes may land in its snapshots.

use lsd_core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher, XmlLearner};
use lsd_core::{Lsd, LsdBuilder, Source, TrainedSource};
use lsd_obs::MetricsSnapshot;
use lsd_serve::{ModelRegistry, ServeConfig, Server};
use lsd_xml::{parse_dtd, parse_fragment};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const MEDIATED: &str = "<!ELEMENT HOUSE (ADDRESS, DESCRIPTION, PHONE)>\n\
                        <!ELEMENT ADDRESS (#PCDATA)>\n\
                        <!ELEMENT DESCRIPTION (#PCDATA)>\n\
                        <!ELEMENT PHONE (#PCDATA)>";

const SOURCE_DTD: &str = "<!ELEMENT home (location, comments, contact)>\n\
                          <!ELEMENT location (#PCDATA)>\n\
                          <!ELEMENT comments (#PCDATA)>\n\
                          <!ELEMENT contact (#PCDATA)>";

const ROWS: [(&str, &str, &str); 3] = [
    ("Miami, FL", "Great view of the bay", "(305) 111 2222"),
    ("Boston, MA", "Fantastic yard and porch", "(617) 333 4444"),
    ("Austin, TX", "Nice area near downtown", "(512) 555 6666"),
];

fn listing(&(a, d, p): &(&str, &str, &str)) -> String {
    format!("<home><location>{a}</location><comments>{d}</comments><contact>{p}</contact></home>")
}

/// `(metric names, span names)` from DESIGN.md's catalogue table.
fn catalogue() -> (BTreeSet<String>, BTreeSet<String>) {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md readable");
    let section = design
        .split("### Metric catalogue")
        .nth(1)
        .expect("DESIGN.md has a Metric catalogue section");
    let section = section.split("\n#").next().unwrap_or(section);
    let (mut metrics, mut spans) = (BTreeSet::new(), BTreeSet::new());
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let name = cells[1].trim_matches('`').to_string();
        if cells[2] == "span" {
            spans.insert(name);
        } else {
            metrics.insert(name);
        }
    }
    (metrics, spans)
}

/// Every key a snapshot holds, windows included, plus its span records'
/// names as `span/<name>` keys.
fn keys(snapshot: &MetricsSnapshot) -> BTreeSet<String> {
    let mut keys: BTreeSet<String> = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .chain(snapshot.windows.keys())
        .cloned()
        .collect();
    keys.extend(snapshot.spans.iter().map(|s| format!("span/{}", s.name)));
    keys
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Type: {content_type}\r\nX-Lsd-Source: probe\r\n\
         traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    read_response(stream)
}

fn read_response(stream: TcpStream) -> (u16, String) {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn small_model() -> Lsd {
    let builder = LsdBuilder::new(&parse_dtd(MEDIATED).expect("mediated DTD"));
    let n = builder.labels().len();
    let mut lsd = builder
        .add_learner(Box::new(NameMatcher::new(n, HashMap::new())))
        .add_learner(Box::new(ContentMatcher::new(n)))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .with_xml_learner(None)
        .build()
        .expect("builds");
    let train = TrainedSource {
        source: Source::from_xml(
            "train",
            parse_dtd(SOURCE_DTD).expect("source DTD"),
            ROWS.iter()
                .map(|r| parse_fragment(&listing(r)).expect("listing"))
                .collect(),
        ),
        mapping: HashMap::from(
            [
                ("home", "HOUSE"),
                ("location", "ADDRESS"),
                ("comments", "DESCRIPTION"),
                ("contact", "PHONE"),
            ]
            .map(|(t, l)| (t.to_string(), l.to_string())),
        ),
    };
    lsd.train(std::slice::from_ref(&train)).expect("trains");
    lsd
}

/// Boots a server, drives every kind of request at it and returns its
/// `/metrics` source, `lsd_obs::snapshot()`.
fn served_snapshot() -> MetricsSnapshot {
    let base = std::env::temp_dir().join(format!("lsd-catalogue-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let models = base.join("models");
    std::fs::create_dir_all(&models).expect("model dir");
    small_model()
        .save_json(models.join("m.json"))
        .expect("saves");
    let config = ServeConfig {
        feedback_dir: Some(base.join("feedback")),
        access_log: Some(base.join("access.jsonl")),
        slow_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let registry = ModelRegistry::open(&models).expect("registry opens");
    let (handle, join) = Server::bind(config, registry).expect("binds").spawn();
    let addr = handle.addr();

    let listings: Vec<String> = ROWS.iter().map(listing).collect();
    let source = serde::Value::Map(vec![
        ("name".to_string(), serde::Value::Str("query".to_string())),
        ("dtd".to_string(), serde::Value::Str(SOURCE_DTD.to_string())),
        (
            "listings".to_string(),
            serde::Value::Seq(listings.iter().cloned().map(serde::Value::Str).collect()),
        ),
    ]);
    let json = "application/json";
    let body = serde_json::to_string(&serde::Value::Map(vec![(
        "source".to_string(),
        source.clone(),
    )]))
    .expect("serializes");
    assert_eq!(
        http(addr, "POST", "/v1/match", json, body.as_bytes()).0,
        200
    );
    assert_eq!(
        http(addr, "POST", "/v1/explain", json, body.as_bytes()).0,
        200
    );
    let bare = format!("<homes>{}</homes>", listings.concat());
    assert_eq!(
        http(
            addr,
            "POST",
            "/v1/match",
            "application/xml",
            bare.as_bytes()
        )
        .0,
        200
    );
    let feedback = format!(
        r#"{{"origin":"test","source":{},"corrections":[{{"tag":"comments","kind":{{"TagIs":{{"label":"PHONE"}}}}}}]}}"#,
        serde_json::to_string(&source).expect("serializes")
    );
    let (status, ack) = http(addr, "POST", "/v1/feedback", json, feedback.as_bytes());
    assert_eq!(status, 200, "{ack}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !http(addr, "GET", "/v1/models", json, b"")
        .1
        .contains("\"generation\":2")
    {
        assert!(Instant::now() < deadline, "the retrain never installed");
        std::thread::sleep(Duration::from_millis(50));
    }
    // Malformed requests: bad JSON, an unknown model, an unsupported body
    // type, and a request line that is not HTTP at all.
    assert_eq!(http(addr, "POST", "/v1/match", json, b"{not json").0, 400);
    let unknown = br#"{"model":"nope","source":{"name":"q","dtd":"","listings":[]}}"#;
    assert_eq!(http(addr, "POST", "/v1/match", json, unknown).0, 404);
    assert_eq!(http(addr, "POST", "/v1/match", "image/png", b"x").0, 415);
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"garbage\r\n\r\n").expect("write");
    assert_eq!(read_response(raw).0, 400);
    for path in ["/healthz", "/metrics", "/debug/traces", "/nowhere"] {
        http(addr, "GET", path, json, b"");
    }

    let snapshot = lsd_obs::snapshot();
    handle.shutdown();
    join.join().expect("server exits");
    std::fs::remove_dir_all(&base).ok();
    snapshot
}

/// Runs the report entry points on a generated domain with every learner,
/// the XML learner and the domain's constraints.
fn report_snapshots() -> Vec<MetricsSnapshot> {
    let domain = lsd_datagen::DomainId::RealEstate1.generate(6, 11);
    let to_source = |gs: &lsd_datagen::GeneratedSource| {
        Source::from_xml(gs.name.clone(), gs.dtd.clone(), gs.listings.clone())
    };
    let trained = |gs: &lsd_datagen::GeneratedSource| TrainedSource {
        source: to_source(gs),
        mapping: gs.mapping.clone(),
    };
    let builder = LsdBuilder::new(&domain.mediated);
    let n = builder.labels().len();
    let mut lsd = builder
        .add_learner(Box::new(NameMatcher::new(n, HashMap::new())))
        .add_learner(Box::new(ContentMatcher::new(n)))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .with_xml_learner(XmlLearner::new(n))
        .with_constraints(domain.constraints.clone())
        .build()
        .expect("builds");
    let training: Vec<TrainedSource> = domain.sources[..2].iter().map(trained).collect();
    let train = lsd.train_with_report(&training).expect("trains");
    let (_, matching) = lsd
        .match_source_with_report(&to_source(&domain.sources[3]))
        .expect("matches");
    let (warm, incremental) =
        lsd_obs::collect(|| lsd.train_incremental(&[trained(&domain.sources[2])]));
    warm.expect("warm-trains");
    vec![train.metrics, matching.metrics, incremental]
}

#[test]
fn every_recorded_metric_and_span_is_catalogued() {
    let (metrics, spans) = catalogue();
    assert!(
        metrics.len() > 40 && spans.len() > 10,
        "{metrics:?} {spans:?}"
    );

    let served = keys(&served_snapshot());
    for key in [
        "serve.http_requests/match",
        "serve.http_requests/explain",
        "serve.http_requests/feedback",
        "serve.http_errors/bad_request",
        "serve.retrain_runs/ok",
        "serve.request_ns/match",
        "infer.elements",
        "wal.appends",
        "span/serve.request",
        "span/train.incremental",
    ] {
        assert!(
            served.contains(key),
            "the server recorded no {key}: {served:?}"
        );
    }
    let mut recorded = served;
    for snapshot in report_snapshots() {
        assert!(!snapshot.spans.is_empty(), "a collect run logs its spans");
        recorded.extend(keys(&snapshot));
    }
    for key in [
        "train.examples",
        "search.runs",
        "span/match.stage2",
        "train.incremental_examples",
    ] {
        assert!(recorded.contains(key), "the reports recorded no {key}");
    }

    let missing: Vec<&String> = recorded
        .iter()
        .filter(|key| match key.split_once('/') {
            Some(("span", name)) => !spans.contains(name),
            Some((name, _)) => !metrics.contains(name),
            None => !metrics.contains(key.as_str()),
        })
        .collect();
    assert!(
        missing.is_empty(),
        "recorded but missing from DESIGN.md's Metric catalogue: {missing:?}"
    );
}

/// The text of every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("source readable"));
        }
    }
}

#[test]
fn every_catalogued_name_still_occurs_in_the_sources() {
    let (metrics, spans) = catalogue();
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut text = String::new();
    for entry in std::fs::read_dir(&crates).expect("crates dir readable") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut text);
        }
    }
    let stale: Vec<&String> = metrics
        .iter()
        .chain(&spans)
        .filter(|name| !text.contains(&format!("\"{name}\"")))
        .collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md's Metric catalogue names no longer in any crates/*/src: {stale:?}"
    );
}

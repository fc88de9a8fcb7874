//! `serve-load` — load driver for the `lsd-serve` matching server.
//!
//! ```text
//! serve-load                        64 clients against an in-process server
//! serve-load --domain NAME          pick a built-in datagen domain
//! serve-load --clients N            concurrent clients (default 64)
//! serve-load --requests N           match requests per client (default 4)
//! serve-load --out PATH             report path (default BENCH_serve.json)
//! ```
//!
//! Two phases, both against servers this process boots itself:
//!
//! 1. **Load** — trains the FULL configuration, snapshots it, serves it,
//!    and fires `clients × requests` concurrent `POST /v1/match` calls for
//!    the two held-out sources plus one `POST /v1/explain` per client.
//!    Every `200` body must be **byte-identical** to the response rendered
//!    from a direct [`Lsd::match_source`] call on the same reloaded
//!    snapshot, and no connection may fail at the transport level. Once
//!    the load threads drain, a feedback probe posts one correction to
//!    `POST /v1/feedback` and requires the retrain worker to produce a
//!    new model generation (visible in `/v1/models` and `/metrics`).
//! 2. **Backpressure** — a deliberately starved server (zero workers,
//!    queue capacity 1, 300 ms deadline) must answer every request with
//!    `503 queue_full` or `504 deadline_exceeded`, never hang.
//!
//! Phase 1 also runs a **tracing probe**: every response must echo a
//! well-formed `traceparent`; a request carrying a client traceparent must
//! have its trace id continued verbatim; and (the server samples every
//! request, `slow_threshold` zero) the probe's span tree must be
//! retrievable from `GET /debug/traces?trace_id=...`. The rolling-window
//! p50/p95/p99 are scraped from `/metrics` into the report.
//!
//! The run is written as `BENCH_serve.json` (schema version 3: exact
//! p50/p95/p99 latency, throughput, status counts, check outcomes,
//! tracing checks and window quantiles), validated
//! in-process before the driver exits. Any failed check exits nonzero.
//!
//! [`Lsd::match_source`]: lsd_core::Lsd::match_source

use lsd_bench::{
    bench_serve_json, domain_slug, resolve_domain, train_full_model, validate_bench_serve,
    ExperimentParams, ServeBenchRun,
};
use lsd_core::Lsd;
use lsd_datagen::{DomainId, GeneratedSource};
use lsd_serve::{json as serve_json, ModelRegistry, ServeConfig, Server};
use lsd_xml::write_element;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed HTTP response.
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
}

/// Minimal one-shot HTTP/1.1 client: `Connection: close`, read to EOF.
/// Transport failures come back as `Err` and count as dropped connections.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    http_with_headers(addr, method, path, &[], body)
}

/// Like [`http`], with extra request headers (e.g. a client `traceparent`).
fn http_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> Result<HttpResponse, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: lsd\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream.write_all(body).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response has no header/body separator".to_string())?;
    let head = std::str::from_utf8(&raw[..text_end]).map_err(|e| e.to_string())?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line: {head:?}"))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Ok(HttpResponse {
        status,
        headers,
        body: raw[text_end + 4..].to_vec(),
    })
}

/// True when `header` is a well-formed `00-{32 hex}-{16 hex}-{2 hex}`
/// traceparent with a nonzero trace id.
fn well_formed_traceparent(header: &str) -> bool {
    let parts: Vec<&str> = header.split('-').collect();
    parts.len() == 4
        && parts[0] == "00"
        && parts[1].len() == 32
        && parts[2].len() == 16
        && parts[3].len() == 2
        && parts[1].chars().all(|c| c.is_ascii_hexdigit())
        && parts[2].chars().all(|c| c.is_ascii_hexdigit())
        && parts[1].chars().any(|c| c != '0')
}

/// Reads the value of one Prometheus gauge sample line (exact series match,
/// labels included), e.g. `serve_request_ns_window_p50{label="match"}`.
fn scrape_gauge(metrics: &str, series: &str) -> f64 {
    metrics
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(series)?;
            rest.trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

/// The `"source"` object shared by `/v1/match` and `/v1/feedback` bodies —
/// DTD and listings back to text, exactly what a remote client would send.
fn source_value(source: &GeneratedSource) -> Value {
    let listings: Vec<Value> = source
        .listings
        .iter()
        .map(|e| Value::Str(write_element(e)))
        .collect();
    Value::Map(vec![
        ("name".to_string(), Value::Str(source.name.clone())),
        ("dtd".to_string(), Value::Str(source.dtd.to_dtd_syntax())),
        ("listings".to_string(), Value::Seq(listings)),
    ])
}

/// Renders a generated source as the `/v1/match` request body.
fn request_body(source: &GeneratedSource) -> Vec<u8> {
    let doc = Value::Map(vec![("source".to_string(), source_value(source))]);
    serde_json::to_string(&doc)
        .expect("Value serialization cannot fail")
        .into_bytes()
}

/// Renders a `/v1/feedback` request pinning `tag` to `label` on `source`.
fn feedback_body(source: &GeneratedSource, tag: &str, label: &str) -> Vec<u8> {
    let correction = Value::Map(vec![
        ("tag".to_string(), Value::Str(tag.to_string())),
        (
            "kind".to_string(),
            Value::Map(vec![(
                "TagIs".to_string(),
                Value::Map(vec![("label".to_string(), Value::Str(label.to_string()))]),
            )]),
        ),
    ]);
    let doc = Value::Map(vec![
        ("source".to_string(), source_value(source)),
        ("corrections".to_string(), Value::Seq(vec![correction])),
    ]);
    serde_json::to_string(&doc)
        .expect("Value serialization cannot fail")
        .into_bytes()
}

/// Polls `GET path` until the body contains `needle`, or times out.
fn poll_for(addr: SocketAddr, path: &str, needle: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(response) = http(addr, "GET", path, b"") {
            if response.status == 200 && String::from_utf8_lossy(&response.body).contains(needle) {
                return true;
            }
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// What one client thread observed.
#[derive(Default)]
struct ClientReport {
    latencies_ns: Vec<u64>,
    statuses: Vec<u16>,
    mismatches: u64,
    dropped: u64,
    /// Responses whose `traceparent` echo was missing or malformed.
    bad_traceparent: u64,
}

impl ClientReport {
    fn check_traceparent(&mut self, response: &HttpResponse) {
        let ok = response
            .header("traceparent")
            .is_some_and(well_formed_traceparent);
        if !ok {
            self.bad_traceparent += 1;
        }
    }
}

fn main() -> ExitCode {
    let mut domain_name = "real-estate-1".to_string();
    let mut clients: usize = 64;
    let mut requests: usize = 4;
    let mut out = "BENCH_serve.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value =
            |v: Option<String>, flag: &str| v.ok_or_else(|| format!("error: {flag} needs a value"));
        let result = match arg.as_str() {
            "--domain" => value(args.next(), "--domain").map(|v| domain_name = v),
            "--out" => value(args.next(), "--out").map(|v| out = v),
            "--clients" => value(args.next(), "--clients").and_then(|v| {
                v.parse()
                    .map(|n| clients = n)
                    .map_err(|e| format!("error: --clients: {e}"))
            }),
            "--requests" => value(args.next(), "--requests").and_then(|v| {
                v.parse()
                    .map(|n| requests = n)
                    .map_err(|e| format!("error: --requests: {e}"))
            }),
            other => Err(format!(
                "error: unknown argument `{other}`\n\
                 usage: serve-load [--domain NAME] [--clients N] [--requests N] [--out PATH]"
            )),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    if clients == 0 || requests == 0 {
        eprintln!("error: --clients and --requests must be positive");
        return ExitCode::FAILURE;
    }

    let Some(id) = resolve_domain(&domain_name) else {
        let names: Vec<String> = DomainId::ALL
            .iter()
            .map(|d| domain_slug(d.name()))
            .collect();
        eprintln!(
            "error: unknown domain `{domain_name}` (available: {})",
            names.join(", ")
        );
        return ExitCode::FAILURE;
    };
    let slug = domain_slug(id.name());

    let mut params = ExperimentParams::from_env();
    if std::env::var("LSD_LISTINGS").is_err() {
        params.listings = 30;
    }
    eprintln!(
        "training {} (listings {}, seed {})...",
        id.name(),
        params.listings,
        params.seed
    );
    let (domain, lsd) = train_full_model(id, &params);

    // Snapshot to a scratch directory; the server loads from disk like it
    // would in production.
    let models_dir = std::env::temp_dir().join(format!("serve-load-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&models_dir) {
        eprintln!("error: cannot create {}: {e}", models_dir.display());
        return ExitCode::FAILURE;
    }
    let snapshot = models_dir.join(format!("{slug}.json"));
    if let Err(e) = lsd.save_json(&snapshot) {
        eprintln!("error: cannot write snapshot: {e}");
        return ExitCode::FAILURE;
    }

    // Expected responses come from a *reloaded* snapshot driven through the
    // same render → parse path as the server, so "byte-identical" compares
    // the served pipeline against a direct in-process match of the same
    // model — the acceptance check.
    let loaded = match Lsd::load_json(&snapshot) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: snapshot does not reload: {e}");
            return ExitCode::FAILURE;
        }
    };
    let held_out = [&domain.sources[3], &domain.sources[4]];
    let bodies: Vec<Vec<u8>> = held_out.iter().map(|s| request_body(s)).collect();
    let mut expected_match = Vec::new();
    let mut expected_explain = Vec::new();
    for body in &bodies {
        let parsed = match serve_json::parse_match_request(body) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: generated request body does not parse: {e}");
                return ExitCode::FAILURE;
            }
        };
        let outcome = match loaded.match_source(&parsed.source) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: direct match failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        expected_match.push(serve_json::match_body(&slug, &outcome));
        expected_explain.push(serve_json::explain_body(&slug, &outcome));
    }

    // ---- Phase 1: load ----
    let registry = match ModelRegistry::open(&models_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot open registry: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_capacity: 1024,
        feedback_dir: Some(models_dir.clone()),
        // Sample every completed request into the flight recorder, so the
        // tracing probe below can retrieve its span tree deterministically.
        slow_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = match Server::bind(config, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    let (handle, join) = server.spawn();
    eprintln!("phase 1: {clients} clients x {requests} requests against {addr}");

    let bodies = Arc::new(bodies);
    let expected_match = Arc::new(expected_match);
    let expected_explain = Arc::new(expected_explain);
    let load_start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|client| {
            let bodies = Arc::clone(&bodies);
            let expected_match = Arc::clone(&expected_match);
            let expected_explain = Arc::clone(&expected_explain);
            std::thread::spawn(move || {
                let mut report = ClientReport::default();
                for request in 0..requests {
                    let which = (client + request) % bodies.len();
                    let started = Instant::now();
                    match http(addr, "POST", "/v1/match", &bodies[which]) {
                        Ok(response) => {
                            report
                                .latencies_ns
                                .push(started.elapsed().as_nanos() as u64);
                            report.statuses.push(response.status);
                            report.check_traceparent(&response);
                            if response.status == 200
                                && response.body != expected_match[which].as_bytes()
                            {
                                report.mismatches += 1;
                            }
                        }
                        Err(_) => report.dropped += 1,
                    }
                }
                let which = client % bodies.len();
                let started = Instant::now();
                match http(addr, "POST", "/v1/explain", &bodies[which]) {
                    Ok(response) => {
                        report
                            .latencies_ns
                            .push(started.elapsed().as_nanos() as u64);
                        report.statuses.push(response.status);
                        report.check_traceparent(&response);
                        if response.status == 200
                            && response.body != expected_explain[which].as_bytes()
                        {
                            report.mismatches += 1;
                        }
                    }
                    Err(_) => report.dropped += 1,
                }
                report
            })
        })
        .collect();

    let mut latencies_ns = Vec::new();
    let mut status_counts: BTreeMap<u16, u64> = BTreeMap::new();
    let mut mismatches = 0u64;
    let mut dropped = 0u64;
    let mut bad_traceparent = 0u64;
    for thread in threads {
        match thread.join() {
            Ok(report) => {
                latencies_ns.extend(report.latencies_ns);
                for status in report.statuses {
                    *status_counts.entry(status).or_insert(0) += 1;
                }
                mismatches += report.mismatches;
                dropped += report.dropped;
                bad_traceparent += report.bad_traceparent;
            }
            Err(_) => dropped += 1,
        }
    }
    let wall_ns = load_start.elapsed().as_nanos() as u64;

    // Tracing probe: a request carrying a client traceparent must have its
    // trace id continued verbatim (with a fresh server span id), and —
    // because `slow_threshold` is zero — be retrievable afterwards from
    // the flight recorder with its span tree intact.
    eprintln!("tracing probe: continuity + flight-recorder retrieval");
    let probe_trace = "deadbeefcafef00d0123456789abcdef";
    let probe_parent = format!("00-{probe_trace}-0011223344556677-01");
    let mut trace_continuity = false;
    let mut sampled_trace_found = false;
    match http_with_headers(
        addr,
        "POST",
        "/v1/match",
        &[("traceparent", probe_parent.as_str())],
        &bodies[0],
    ) {
        Ok(response) => {
            trace_continuity = response.header("traceparent").is_some_and(|echo| {
                well_formed_traceparent(echo)
                    && echo.split('-').nth(1) == Some(probe_trace)
                    && echo.split('-').nth(2) != Some("0011223344556677")
            });
            let lookup = http(
                addr,
                "GET",
                &format!("/debug/traces?trace_id={probe_trace}"),
                b"",
            );
            sampled_trace_found = lookup.is_ok_and(|r| {
                r.status == 200 && {
                    let text = String::from_utf8_lossy(&r.body).to_string();
                    text.contains(probe_trace) && text.contains("serve.request")
                }
            });
        }
        Err(e) => eprintln!("tracing probe request failed: {e}"),
    }

    // Probe the operational endpoints while the server is still up.
    let health = http(addr, "GET", "/healthz", b"");
    let metrics = http(addr, "GET", "/metrics", b"");

    // Feedback probe: post one durable correction and require the whole
    // serve → WAL → retrain → hot-swap loop to complete — the generation
    // visible in `/v1/models` bumps and `/metrics` exports it. Runs after
    // the load threads joined so the byte-identical check never races a
    // model swap.
    let mut probe_failures: Vec<String> = Vec::new();
    eprintln!("feedback probe: correcting one tag and waiting for the retrain worker");
    match held_out[0]
        .mapping
        .iter()
        .filter(|(_, label)| label.as_str() != "OTHER")
        .min()
    {
        Some((tag, label)) => match http(
            addr,
            "POST",
            "/v1/feedback",
            &feedback_body(held_out[0], tag, label),
        ) {
            Ok(response) if response.status == 200 => {
                let ack = String::from_utf8_lossy(&response.body).to_string();
                if !ack.contains("\"accepted\":1") {
                    probe_failures.push(format!("feedback ack looks wrong: {ack}"));
                } else if !poll_for(
                    addr,
                    "/v1/models",
                    "\"generation\":2",
                    Duration::from_secs(120),
                ) {
                    probe_failures
                        .push("retrain worker never bumped the model generation".to_string());
                } else if !poll_for(
                    addr,
                    "/metrics",
                    "serve_model_generation",
                    Duration::from_secs(10),
                ) {
                    probe_failures.push("/metrics is missing serve_model_generation".to_string());
                }
            }
            Ok(response) => probe_failures.push(format!(
                "/v1/feedback returned {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            )),
            Err(e) => probe_failures.push(format!("/v1/feedback failed: {e}")),
        },
        None => probe_failures.push("held-out source has no non-OTHER mapping".to_string()),
    }
    handle.shutdown();
    join.join().ok();

    match health {
        Ok(response) if response.status == 200 => {}
        Ok(response) => probe_failures.push(format!("/healthz returned {}", response.status)),
        Err(e) => probe_failures.push(format!("/healthz failed: {e}")),
    }
    let mut window_p50_ns = 0.0;
    let mut window_p95_ns = 0.0;
    let mut window_p99_ns = 0.0;
    match metrics {
        Ok(response) if response.status == 200 => {
            let text = String::from_utf8_lossy(&response.body).to_string();
            if !text.contains("serve_http_requests") {
                probe_failures.push("/metrics is missing serve_http_requests".to_string());
            }
            window_p50_ns = scrape_gauge(&text, "serve_request_ns_window_p50{label=\"match\"}");
            window_p95_ns = scrape_gauge(&text, "serve_request_ns_window_p95{label=\"match\"}");
            window_p99_ns = scrape_gauge(&text, "serve_request_ns_window_p99{label=\"match\"}");
            if window_p50_ns <= 0.0 {
                probe_failures.push(
                    "/metrics is missing rolling-window quantiles for serve_request_ns".to_string(),
                );
            }
        }
        Ok(response) => probe_failures.push(format!("/metrics returned {}", response.status)),
        Err(e) => probe_failures.push(format!("/metrics failed: {e}")),
    }

    // ---- Phase 2: backpressure ----
    // Zero workers and a one-slot queue: the first request parks in the
    // queue until its 300 ms deadline (504); everyone else bounces off the
    // full queue (503). Nothing may hang past the client timeout.
    eprintln!("phase 2: backpressure against a starved server");
    let starved_registry = match ModelRegistry::open(&models_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot reopen registry: {e}");
            return ExitCode::FAILURE;
        }
    };
    let starved_config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        queue_capacity: 1,
        default_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let starved = match Server::bind(starved_config, starved_registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind starved server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let starved_addr = starved.local_addr();
    let (starved_handle, starved_join) = starved.spawn();

    let mut backpressure_503 = 0u64;
    let mut backpressure_failures: Vec<String> = Vec::new();
    let probes: Vec<_> = (0..8)
        .map(|i| {
            let body = bodies[i % bodies.len()].clone();
            std::thread::spawn(move || http(starved_addr, "POST", "/v1/match", &body))
        })
        .collect();
    for probe in probes {
        match probe.join() {
            Ok(Ok(response)) => match response.status {
                503 => backpressure_503 += 1,
                504 => {}
                other => backpressure_failures.push(format!(
                    "starved server answered {other}, expected 503 or 504"
                )),
            },
            Ok(Err(e)) => backpressure_failures.push(format!("starved request failed: {e}")),
            Err(_) => backpressure_failures.push("starved client panicked".to_string()),
        }
    }
    starved_handle.shutdown();
    starved_join.join().ok();
    if backpressure_503 == 0 {
        backpressure_failures.push("no 503 observed from the full queue".to_string());
    }

    std::fs::remove_dir_all(&models_dir).ok();

    // ---- Report ----
    let dropped_connections = dropped;
    let byte_identical = mismatches == 0;
    let traceparent_echoed = bad_traceparent == 0;
    let run = ServeBenchRun {
        domain: slug.clone(),
        listings: params.listings,
        seed: params.seed,
        clients,
        requests_per_client: requests,
        latencies_ns,
        wall_ns,
        statuses: status_counts.into_iter().collect(),
        byte_identical,
        dropped_connections,
        backpressure_503,
        traceparent_echoed,
        trace_continuity,
        sampled_trace_found,
        window_p50_ns,
        window_p95_ns,
        window_p99_ns,
    };
    let report = bench_serve_json(&run);
    if let Err(e) = validate_bench_serve(&report) {
        eprintln!("error: generated report fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }

    let total = run.latencies_ns.len();
    eprintln!(
        "{total} responses, {dropped_connections} dropped, {mismatches} mismatches, \
         {backpressure_503} backpressure 503s"
    );
    eprintln!("report written to {out}");

    let mut failed = false;
    if dropped_connections > 0 {
        eprintln!("FAIL: {dropped_connections} connections dropped");
        failed = true;
    }
    if !byte_identical {
        eprintln!("FAIL: {mismatches} responses differ from direct match_source output");
        failed = true;
    }
    if !traceparent_echoed {
        eprintln!("FAIL: {bad_traceparent} responses had a missing or malformed traceparent echo");
        failed = true;
    }
    if !trace_continuity {
        eprintln!("FAIL: client-supplied trace id was not continued in the echo");
        failed = true;
    }
    if !sampled_trace_found {
        eprintln!("FAIL: probe trace was not retrievable from /debug/traces");
        failed = true;
    }
    for problem in probe_failures.iter().chain(&backpressure_failures) {
        eprintln!("FAIL: {problem}");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("all checks passed");
        ExitCode::SUCCESS
    }
}

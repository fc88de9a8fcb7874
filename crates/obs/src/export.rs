//! Exporters that turn a [`MetricsSnapshot`] into text other tools can
//! read.
//!
//! Two formats:
//!
//! * [`chrome_trace`] — Chrome trace-event JSON (the `traceEvents` array
//!   form) with one complete `"X"` event per closed span and one
//!   `thread_name` metadata event per thread ordinal, so Perfetto and
//!   `chrome://tracing` render each worker thread as its own track.
//! * [`prometheus_text`] — the Prometheus text exposition format that
//!   `lsd-serve` returns from `GET /metrics`.

use crate::{MetricsSnapshot, SpanRecord};
use serde::Value;

/// Microseconds (fractional) from a nanosecond count, the unit Chrome trace
/// events use for `ts`/`dur`.
fn micros(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders the snapshot's spans as Chrome trace-event JSON.
///
/// The output is the object form `{"traceEvents": [...]}`: first one
/// `"M"` (metadata) `thread_name` event per thread ordinal seen, then one
/// `"X"` (complete) event per span, sorted by `(thread, start_ns, id)` so
/// the output is stable for a given set of spans. Spans' `label`, `id` and
/// `parent` ride along in `args`. All events use `pid` 1; `tid` is the
/// span's dense thread ordinal.
pub fn chrome_trace(snapshot: &MetricsSnapshot) -> String {
    let mut threads: Vec<u64> = snapshot.spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut events: Vec<Value> = Vec::with_capacity(threads.len() + snapshot.spans.len());
    for &t in &threads {
        events.push(obj(vec![
            ("ph", Value::Str("M".to_string())),
            ("name", Value::Str("thread_name".to_string())),
            ("pid", Value::Int(1)),
            ("tid", Value::Int(t as i64)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("lsd-thread-{t}")))]),
            ),
        ]));
    }

    let mut spans: Vec<&SpanRecord> = snapshot.spans.iter().collect();
    spans.sort_by_key(|s| (s.thread, s.start_ns, s.id));
    for s in spans {
        let parent = match s.parent {
            Some(p) => Value::Int(p as i64),
            None => Value::Null,
        };
        events.push(obj(vec![
            ("ph", Value::Str("X".to_string())),
            ("name", Value::Str(s.name.to_string())),
            ("cat", Value::Str("lsd".to_string())),
            ("ts", Value::Float(micros(s.start_ns))),
            ("dur", Value::Float(micros(s.duration_ns))),
            ("pid", Value::Int(1)),
            ("tid", Value::Int(s.thread as i64)),
            (
                "args",
                obj(vec![
                    ("label", Value::Str(s.label.to_string())),
                    ("id", Value::Int(s.id as i64)),
                    ("parent", parent),
                ]),
            ),
        ]));
    }

    let root = obj(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ]);
    serde_json::to_string_pretty(&root).unwrap_or_else(|_| "{\"traceEvents\":[]}".to_string())
}

/// Mangles a metric key into a Prometheus-legal metric name: every
/// character outside `[a-zA-Z0-9_:]` becomes `_` (so `serve.request_ns`
/// exports as `serve_request_ns`).
fn prometheus_name(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Splits a flattened snapshot key into `(metric name, optional label)` —
/// `"learner.predict_ns/naive_bayes"` becomes
/// `("learner_predict_ns", Some("naive_bayes"))`.
fn split_key(key: &str) -> (String, Option<&str>) {
    match key.split_once('/') {
        Some((name, label)) => (prometheus_name(name), Some(label)),
        None => (prometheus_name(key), None),
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline must be backslash-escaped inside `label="..."`.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_pair(label: Option<&str>, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = Vec::new();
    if let Some(l) = label {
        pairs.push(format!("label=\"{}\"", escape_label(l)));
    }
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders the snapshot's counters, gauges, histograms and rolling windows
/// in the Prometheus text exposition format (version 0.0.4), the payload
/// `lsd-serve` returns from `GET /metrics`.
///
/// * Every family is announced once with `# HELP` and `# TYPE` metadata.
/// * Counters and gauges become single samples; the `label` half of a
///   `name/label` key is exported as an escaped `label="..."` pair.
/// * Histograms export as real `histogram` families: cumulative
///   `_bucket{le="..."}` samples taken from the log2 buckets (one per
///   non-empty bucket, with the exposition-mandated `le="+Inf"` terminal
///   equal to `_count`), plus `_sum` and `_count`.
/// * Rolling windows ([`MetricsSnapshot::windows`]) export as gauge
///   families `<name>_window_p50|p95|p99` next to the cumulative series,
///   so "p99 right now" and "p99 since boot" sit side by side.
/// * Spans are skipped — each span family is already aggregated into the
///   `span/<name>` duration histograms.
///
/// Keys are mangled to legal metric names (`.`, `-`, `/` → `_`). Output
/// order follows the snapshot's deterministic key order, so series of one
/// family stay contiguous after their metadata lines.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut announced: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut header = |out: &mut String, name: &str, kind: &str, help: &str| {
        if announced.insert(name.to_string()) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        }
    };

    for (key, &v) in &snapshot.counters {
        let (name, label) = split_key(key);
        header(&mut out, &name, "counter", "Monotonic event count.");
        out.push_str(&format!("{name}{} {v}\n", label_pair(label, None)));
    }
    for (key, &v) in &snapshot.gauges {
        let (name, label) = split_key(key);
        header(
            &mut out,
            &name,
            "gauge",
            "High-watermark gauge (max across threads).",
        );
        out.push_str(&format!("{name}{} {v}\n", label_pair(label, None)));
    }
    for (key, h) in &snapshot.histograms {
        let (name, label) = split_key(key);
        header(
            &mut out,
            &name,
            "histogram",
            "Log2-bucket sample histogram (nanoseconds for durations).",
        );
        let mut cumulative = 0u64;
        let mut saw_inf = false;
        for (i, &n) in h.bucket_counts().iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            let bound = crate::HistogramSummary::bucket_bound(i);
            let le = if bound == u64::MAX {
                saw_inf = true;
                "+Inf".to_string()
            } else {
                bound.to_string()
            };
            out.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                label_pair(label, Some(("le", &le)))
            ));
        }
        if !saw_inf {
            out.push_str(&format!(
                "{name}_bucket{} {}\n",
                label_pair(label, Some(("le", "+Inf"))),
                h.count
            ));
        }
        out.push_str(&format!(
            "{name}_sum{} {}\n",
            label_pair(label, None),
            h.sum
        ));
        out.push_str(&format!(
            "{name}_count{} {}\n",
            label_pair(label, None),
            h.count
        ));
    }
    // One pass per quantile so each `<name>_window_pXX` family stays one
    // contiguous group even when several labels share the family.
    for (suffix, q) in [
        ("window_p50", 0.50),
        ("window_p95", 0.95),
        ("window_p99", 0.99),
    ] {
        for (key, h) in &snapshot.windows {
            let (name, label) = split_key(key);
            let family = format!("{name}_{suffix}");
            header(
                &mut out,
                &family,
                "gauge",
                "Rolling 60s-window quantile (nanoseconds for durations).",
            );
            out.push_str(&format!(
                "{family}{} {}\n",
                label_pair(label, None),
                h.quantile(q)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect, counter_add, span};

    fn sample_snapshot() -> MetricsSnapshot {
        let (_, snap) = collect(|| {
            counter_add("work.items", "", 3);
            let _outer = span!("outer");
            let _inner = span!("inner", "lbl");
        });
        snap
    }

    #[test]
    fn chrome_trace_is_well_formed_and_complete() {
        let snap = sample_snapshot();
        let trace = chrome_trace(&snap);
        let root: Value = serde_json::from_str(&trace).expect("valid JSON");
        let Value::Map(entries) = &root else {
            panic!("trace root must be an object");
        };
        let events = entries
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let Value::Seq(events) = events else {
            panic!("traceEvents must be an array");
        };
        let phase = |e: &Value| match e {
            Value::Map(fields) => {
                fields
                    .iter()
                    .find(|(k, _)| k == "ph")
                    .and_then(|(_, v)| match v {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    })
            }
            _ => None,
        };
        let xs = events.iter().filter(|e| phase(e).as_deref() == Some("X"));
        assert_eq!(xs.count(), snap.spans.len(), "one X event per span");
        assert!(
            events.iter().any(|e| phase(e).as_deref() == Some("M")),
            "thread_name metadata present"
        );
    }

    #[test]
    fn prometheus_text_renders_all_families() {
        let snap = sample_snapshot();
        let text = prometheus_text(&snap);
        assert!(
            text.contains("# TYPE work_items counter"),
            "counter family typed in:\n{text}"
        );
        assert!(
            text.contains("# HELP work_items "),
            "counter family has HELP metadata in:\n{text}"
        );
        assert!(text.contains("work_items 3"), "counter sample in:\n{text}");
        assert!(
            text.contains("# TYPE span histogram"),
            "span histograms exported as histograms in:\n{text}"
        );
        assert!(
            text.contains("span_bucket{label=\"outer\",le=\"+Inf\"} 1"),
            "terminal +Inf bucket in:\n{text}"
        );
        assert!(
            text.contains("span_count{label=\"outer\"} 1"),
            "histogram count in:\n{text}"
        );
        // Exactly one HELP/TYPE pair per family even with several labels.
        assert_eq!(
            text.matches("# TYPE span histogram").count(),
            1,
            "in:\n{text}"
        );
        assert_eq!(text.matches("# HELP span ").count(), 1, "in:\n{text}");
        // No raw span events: every line is a comment or a sample.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_count() {
        let (_, snap) = collect(|| {
            // Buckets: 3 → le 3; 300 → le 511; 300_000 → le 524287.
            for v in [3u64, 3, 300, 300_000] {
                crate::record_value("lat.ns", "", v);
            }
        });
        let text = prometheus_text(&snap);
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 2"), "in:\n{text}");
        assert!(text.contains("lat_ns_bucket{le=\"511\"} 3"), "in:\n{text}");
        assert!(
            text.contains("lat_ns_bucket{le=\"524287\"} 4"),
            "in:\n{text}"
        );
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 4"), "in:\n{text}");
        assert!(text.contains("lat_ns_sum 300306"), "in:\n{text}");
        assert!(text.contains("lat_ns_count 4"), "in:\n{text}");
        // Cumulative bucket values never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_ns_bucket")) {
            let v: u64 = line
                .split_whitespace()
                .nth(1)
                .and_then(|v| v.parse().ok())
                .expect("sample value");
            assert!(v >= last, "non-monotone bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn prometheus_escapes_label_values() {
        assert_eq!(
            label_pair(Some("a\"b\\c\nd"), None),
            "{label=\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn prometheus_exports_window_quantiles_as_gauges() {
        let mut snap = sample_snapshot();
        snap.windows.insert(
            "serve.request_ns/match".to_string(),
            crate::HistogramSummary::from_samples([100u64, 200, 400]),
        );
        let text = prometheus_text(&snap);
        for family in [
            "serve_request_ns_window_p50",
            "serve_request_ns_window_p95",
            "serve_request_ns_window_p99",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} gauge")),
                "{family} typed in:\n{text}"
            );
            assert!(
                text.contains(&format!("{family}{{label=\"match\"}}")),
                "{family} sample in:\n{text}"
            );
        }
    }
}

//! JSON request parsing and response rendering for the `/v1` API.
//!
//! Responses are rendered through the deterministic `serde_json` writer,
//! so the same [`MatchOutcome`] always produces the same bytes — the
//! property the determinism tests and the load driver's byte-identical
//! check rely on. Objects keep the order their keys were inserted in (the
//! shim's maps do not sort), so every body fixes its own order: schema
//! declaration order for tags, and [`match_body`] sorts its mapping by
//! source tag itself. Floats are written shortest-roundtrip.

use crate::error::ServeError;
use lsd_core::{Correction, Explanation, MatchOutcome, Source};
use serde::{Deserialize, Serialize, Value};

fn bad(detail: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        detail: detail.into(),
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn as_str<'v>(value: &'v Value, what: &str) -> Result<&'v str, ServeError> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(bad(format!("{what} must be a string, got {other:?}"))),
    }
}

/// A parsed `POST /v1/match` / `POST /v1/explain` body: the optional model
/// name and the source to match.
#[derive(Debug)]
pub struct MatchRequest {
    /// Explicit model name; `None` targets the active model.
    pub model: Option<String>,
    /// The source assembled from the request's DTD text and XML listings.
    pub source: Source,
}

/// Parses the request body:
///
/// ```json
/// {
///   "model": "real-estate-1",          // optional; default: active model
///   "source": {
///     "name": "listings.com",          // optional display name
///     "dtd": "<!ELEMENT house (...)>", // DTD text
///     "listings": ["<house>...</house>", ...]
///   }
/// }
/// ```
///
/// All structural problems — non-JSON bodies, missing fields, unparseable
/// DTD or listings — map to `400` with a detail naming the offending part.
pub fn parse_match_request(body: &[u8]) -> Result<MatchRequest, ServeError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not valid UTF-8"))?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;
    match_request_from_value(&value)
}

/// [`parse_match_request`] over a body already parsed to a [`Value`].
pub fn match_request_from_value(value: &Value) -> Result<MatchRequest, ServeError> {
    let model = match value.get("model") {
        None | Some(Value::Null) => None,
        Some(v) => Some(as_str(v, "\"model\"")?.to_string()),
    };

    let source_value = value
        .get("source")
        .ok_or_else(|| bad("missing \"source\" object"))?;
    Ok(MatchRequest {
        model,
        source: parse_source(source_value)?,
    })
}

/// Parses a `{"name": ..., "dtd": ..., "listings": [...]}` source object —
/// shared by the match and feedback bodies.
fn parse_source(source_value: &Value) -> Result<Source, ServeError> {
    let name = match source_value.get("name") {
        None | Some(Value::Null) => "request".to_string(),
        Some(v) => as_str(v, "\"source.name\"")?.to_string(),
    };
    let dtd_text = as_str(
        source_value
            .get("dtd")
            .ok_or_else(|| bad("missing \"source.dtd\""))?,
        "\"source.dtd\"",
    )?;
    let dtd = lsd_xml::parse_dtd(dtd_text)
        .map_err(|e| bad(format!("\"source.dtd\" is not a valid DTD: {e}")))?;

    let listings_value = source_value
        .get("listings")
        .ok_or_else(|| bad("missing \"source.listings\""))?;
    let Value::Seq(items) = listings_value else {
        return Err(bad("\"source.listings\" must be an array of XML strings"));
    };
    let mut listings = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let xml = as_str(item, &format!("\"source.listings[{i}]\""))?;
        let element = lsd_xml::parse_fragment(xml).map_err(|e| {
            bad(format!(
                "\"source.listings[{i}]\" is not well-formed XML: {e}"
            ))
        })?;
        listings.push(element);
    }

    Ok(Source::from_xml(name, dtd, listings))
}

/// A parsed `POST /v1/feedback` body: the optional model name, the source
/// the corrections are about, and the corrections themselves with
/// provenance stamped in.
#[derive(Debug)]
pub struct FeedbackRequest {
    /// Explicit model name; `None` targets the active model.
    pub model: Option<String>,
    /// The source the corrections describe.
    pub source: Source,
    /// The typed corrections, provenance filled from the request.
    pub corrections: Vec<Correction>,
}

/// Parses the feedback body:
///
/// ```json
/// {
///   "model": "real-estate-1",             // optional; default: active
///   "origin": "review-ui",                // optional provenance
///   "source": {
///     "name": "listings.com",
///     "dtd": "<!ELEMENT house (...)>",
///     "listings": ["<house>...</house>", ...]
///   },
///   "corrections": [
///     {"tag": "phone", "kind": {"TagIs": {"label": "AGENT_PHONE"}}},
///     {"tag": "extra", "kind": "TagIsOther"}
///   ]
/// }
/// ```
///
/// Corrections arrive without provenance; the source name, the server's
/// clock and the request's `origin` (default `"api"`) are stamped onto
/// each one. An empty corrections array is a `400` — an ack would promise
/// durability for nothing.
pub fn parse_feedback_request(body: &[u8]) -> Result<FeedbackRequest, ServeError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not valid UTF-8"))?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;

    let model = match value.get("model") {
        None | Some(Value::Null) => None,
        Some(v) => Some(as_str(v, "\"model\"")?.to_string()),
    };
    let origin = match value.get("origin") {
        None | Some(Value::Null) => "api".to_string(),
        Some(v) => as_str(v, "\"origin\"")?.to_string(),
    };
    let source = parse_source(
        value
            .get("source")
            .ok_or_else(|| bad("missing \"source\" object"))?,
    )?;

    let corrections_value = value
        .get("corrections")
        .ok_or_else(|| bad("missing \"corrections\" array"))?;
    let Value::Seq(items) = corrections_value else {
        return Err(bad(
            "\"corrections\" must be an array of correction objects",
        ));
    };
    if items.is_empty() {
        return Err(bad("\"corrections\" must not be empty"));
    }
    let timestamp_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut corrections = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let correction = Correction::from_value(item)
            .map_err(|e| bad(format!("\"corrections[{i}]\" is invalid: {e}")))?;
        corrections.push(correction.with_provenance(
            source.name.as_str(),
            timestamp_ms,
            origin.as_str(),
        ));
    }

    Ok(FeedbackRequest {
        model,
        source,
        corrections,
    })
}

/// Renders the `POST /v1/feedback` ack: which model the corrections were
/// logged against, the generation that served the ack (retraining bumps
/// it), how many corrections were accepted and the WAL index of the record
/// that durably holds them.
pub fn feedback_ack_body(model: &str, generation: u64, record: u64, accepted: usize) -> String {
    let doc = obj(vec![
        ("model", Value::Str(model.to_string())),
        ("generation", Value::Int(generation as i64)),
        ("record", Value::Int(record as i64)),
        ("accepted", Value::Int(accepted as i64)),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_string())
}

/// How many ranked candidates per tag the match response carries.
pub const CANDIDATES_PER_TAG: usize = 5;

/// Renders a match outcome as the `/v1/match` response body. Deterministic:
/// tags in schema declaration order, the mapping sorted by source tag,
/// candidates capped at [`CANDIDATES_PER_TAG`] best-first.
pub fn match_body(model: &str, outcome: &MatchOutcome) -> String {
    let mut mapping: Vec<(String, String)> = outcome
        .mapping()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    mapping.sort();

    let labels = outcome
        .tags
        .iter()
        .zip(&outcome.labels)
        .map(|(tag, label)| {
            obj(vec![
                ("tag", Value::Str(tag.clone())),
                ("label", Value::Str(label.clone())),
            ])
        })
        .collect();

    let candidates = outcome
        .tags
        .iter()
        .map(|tag| {
            let ranked = outcome
                .candidates(tag)
                .iter()
                .take(CANDIDATES_PER_TAG)
                .map(|c| {
                    obj(vec![
                        ("label", Value::Str(c.label.clone())),
                        ("score", Value::Float(c.score)),
                    ])
                })
                .collect();
            (tag.to_string(), Value::Seq(ranked))
        })
        .collect();

    let doc = obj(vec![
        ("model", Value::Str(model.to_string())),
        ("feasible", Value::Bool(outcome.result.feasible)),
        (
            "mapping",
            Value::Map(
                mapping
                    .into_iter()
                    .map(|(k, v)| (k, Value::Str(v)))
                    .collect(),
            ),
        ),
        ("labels", Value::Seq(labels)),
        ("candidates", Value::Map(candidates)),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_string())
}

/// Renders the `/v1/explain` response body: the full provenance report from
/// [`MatchOutcome::explain_all`], one explanation per tag.
pub fn explain_body(model: &str, outcome: &MatchOutcome) -> String {
    let explanations: Vec<Explanation> = outcome.explain_all();
    let doc = obj(vec![
        ("model", Value::Str(model.to_string())),
        ("explanations", explanations.to_value()),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD: &str = "<!ELEMENT h (addr)>\n<!ELEMENT addr (#PCDATA)>";

    fn body(model: Option<&str>) -> String {
        let model_field = model
            .map(|m| format!("\"model\": \"{m}\", "))
            .unwrap_or_default();
        format!(
            "{{{model_field}\"source\": {{\"name\": \"s\", \"dtd\": {dtd:?}, \
             \"listings\": [\"<h><addr>Miami, FL</addr></h>\"]}}}}",
            dtd = DTD
        )
    }

    #[test]
    fn parses_a_complete_request() {
        let parsed = parse_match_request(body(Some("m")).as_bytes()).expect("parses");
        assert_eq!(parsed.model.as_deref(), Some("m"));
        assert_eq!(parsed.source.name, "s");
        assert_eq!(parsed.source.listings.len(), 1);
        assert!(parsed.source.dtd.element_names().any(|n| n == "addr"));
    }

    #[test]
    fn model_is_optional() {
        let parsed = parse_match_request(body(None).as_bytes()).expect("parses");
        assert!(parsed.model.is_none());
    }

    #[test]
    fn structural_problems_are_bad_requests_with_detail() {
        let cases: Vec<(&[u8], &str)> = vec![
            (b"not json", "valid JSON"),
            (b"{}", "\"source\""),
            (b"{\"source\": {\"listings\": []}}", "source.dtd"),
            (
                b"{\"source\": {\"dtd\": \"<!ELEMENT h (#PCDATA)>\"}}",
                "source.listings",
            ),
            (
                b"{\"source\": {\"dtd\": \"garbage\", \"listings\": []}}",
                "valid DTD",
            ),
            (
                b"{\"source\": {\"dtd\": \"<!ELEMENT h (#PCDATA)>\", \
                   \"listings\": [\"<unclosed\"]}}",
                "well-formed XML",
            ),
            (b"\xff\xfe", "UTF-8"),
        ];
        for (input, expected) in cases {
            match parse_match_request(input) {
                Err(ServeError::BadRequest { detail }) => {
                    assert!(
                        detail.contains(expected),
                        "detail {detail:?} should mention {expected:?}"
                    );
                }
                other => panic!("expected BadRequest for {input:?}, got {other:?}"),
            }
        }
    }
}

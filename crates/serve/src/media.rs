//! Content negotiation for the matching endpoints.
//!
//! `POST /v1/match` and `POST /v1/explain` accept any serialization with a
//! [`SourceReader`]: the `Content-Type` header picks the reader, and the
//! whole body is the source. The JSON envelope (`{"model": ..., "source":
//! {"dtd": ..., "listings": [...]}}`) remains the native representation;
//! raw bodies name their source with `X-Lsd-Source` and pick a model with
//! `X-Lsd-Model` instead of envelope fields.
//!
//! | `Content-Type` | Interpretation |
//! |---|---|
//! | none or `application/json` | envelope if the top level has a `"source"` key, else raw JSON documents via [`JsonReader`] |
//! | `application/xml`, `text/xml` | container document via [`XmlReader::from_document`] |
//! | `text/csv` | header + rows via [`CsvReader`] |
//! | `application/sql` | `CREATE TABLE` DDL + `INSERT`s via [`SqlReader`] |
//! | anything else | `415 unsupported_media_type` |

use crate::error::ServeError;
use crate::http::Request;
use crate::json::{self, MatchRequest};
use lsd_core::{CsvReader, JsonReader, ReadError, Source, SourceReader, SqlReader, XmlReader};

/// Strips parameters (`; charset=...`) and normalizes case, so
/// `Text/CSV; charset=utf-8` negotiates as `text/csv`.
fn essence(content_type: &str) -> String {
    content_type
        .split(';')
        .next()
        .unwrap_or("")
        .trim()
        .to_ascii_lowercase()
}

/// Parses one matching request according to its `Content-Type`.
///
/// # Errors
/// [`ServeError::UnsupportedMediaType`] for an unknown type,
/// [`ServeError::BadRequest`] when the negotiated reader rejects the body.
pub fn parse_request(request: &Request) -> Result<MatchRequest, ServeError> {
    let content_type = request.header("content-type").map(essence);
    match content_type.as_deref() {
        None | Some("") | Some("application/json") => {
            // Parsed once: the envelope check and the chosen path share it.
            let value = JsonReader::parse(body_text(request)?).map_err(|e| bad_request(&e))?;
            if value.get("source").is_some() {
                json::match_request_from_value(&value)
            } else {
                from_reader(request, &JsonReader::from_value(value))
            }
        }
        Some("application/xml" | "text/xml") => {
            from_reader(request, &XmlReader::from_document(body_text(request)?))
        }
        Some("text/csv") => from_reader(request, &CsvReader::new(body_text(request)?)),
        Some("application/sql") => from_reader(request, &SqlReader::new(body_text(request)?)),
        Some(other) => Err(ServeError::UnsupportedMediaType {
            content_type: other.to_string(),
        }),
    }
}

fn body_text(request: &Request) -> Result<&str, ServeError> {
    std::str::from_utf8(&request.body).map_err(|_| ServeError::BadRequest {
        detail: "body is not valid UTF-8".to_string(),
    })
}

fn bad_request(e: &ReadError) -> ServeError {
    ServeError::BadRequest {
        detail: e.to_string(),
    }
}

/// Runs a reader over the whole body; model and source name come from the
/// `X-Lsd-Model` / `X-Lsd-Source` headers.
fn from_reader(request: &Request, reader: &dyn SourceReader) -> Result<MatchRequest, ServeError> {
    let name = request.header("x-lsd-source").unwrap_or("request");
    let source = Source::from_reader(name, reader).map_err(|e| bad_request(&e))?;
    Ok(MatchRequest {
        model: request.header("x-lsd-model").map(str::to_string),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_core::SourceFormat;

    fn request(content_type: Option<&str>, body: &str) -> Request {
        let mut headers = vec![("x-lsd-source".to_string(), "unit".to_string())];
        if let Some(ct) = content_type {
            headers.push(("content-type".to_string(), ct.to_string()));
        }
        Request {
            method: "POST".to_string(),
            path: "/v1/match".to_string(),
            query: String::new(),
            headers,
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn json_envelope_still_parses() {
        let body = r#"{"source": {"dtd": "<!ELEMENT h (#PCDATA)>", "listings": ["<h>x</h>"]}}"#;
        let parsed = parse_request(&request(Some("application/json"), body)).expect("parses");
        assert_eq!(parsed.source.format, SourceFormat::Xml);
        assert_eq!(parsed.source.listings.len(), 1);
    }

    #[test]
    fn raw_json_negotiates_the_json_reader() {
        let body = r#"[{"area": "Miami"}, {"area": "Kent"}]"#;
        let parsed =
            parse_request(&request(Some("application/json; charset=utf-8"), body)).expect("parses");
        assert_eq!(parsed.source.format, SourceFormat::Json);
        assert_eq!(parsed.source.name, "unit");
        assert_eq!(parsed.source.listings.len(), 2);
    }

    #[test]
    fn csv_sql_and_xml_negotiate_their_readers() {
        let cases: [(&str, &str, SourceFormat, usize); 3] = [
            ("text/csv", "area\nMiami\nKent\n", SourceFormat::Csv, 2),
            (
                "application/sql",
                "CREATE TABLE h (area TEXT); INSERT INTO h VALUES ('Miami');",
                SourceFormat::Sql,
                1,
            ),
            (
                "Application/XML",
                "<hs><h><area>Miami</area></h></hs>",
                SourceFormat::Xml,
                1,
            ),
        ];
        for (ct, body, format, listings) in cases {
            let parsed = parse_request(&request(Some(ct), body)).expect(ct);
            assert_eq!(parsed.source.format, format, "{ct}");
            assert_eq!(parsed.source.listings.len(), listings, "{ct}");
        }
    }

    /// Everything a `MatchRequest` carries, in a form that compares
    /// deterministically (the DTD's name index is a `HashMap`).
    fn shape(parsed: &MatchRequest) -> String {
        let s = &parsed.source;
        format!(
            "{:?} {} {:?} {:?} {:?} {:?} {:?}",
            parsed.model,
            s.name,
            s.format,
            s.dtd.declarations(),
            s.dtd.attlists(),
            s.listings,
            s.inferred
        )
    }

    /// The JSON body routes to the same `MatchRequest` as the text-level
    /// envelope parser and the text-level JSON reader produce on their own.
    #[test]
    fn json_bodies_route_to_the_same_request_as_the_text_parsers() {
        let envelope = r#"{"model": "m", "source": {"name": "s",
            "dtd": "<!ELEMENT h (addr)> <!ELEMENT addr (#PCDATA)>",
            "listings": ["<h><addr>Miami, FL</addr></h>"]}}"#;
        let parsed = parse_request(&request(None, envelope)).expect("envelope parses");
        let expected = json::parse_match_request(envelope.as_bytes()).expect("parses");
        assert_eq!(shape(&parsed), shape(&expected));

        for raw in [
            r#"[{"area": "Miami", "beds": [2, 3]}, {"area": "Kent", "agent": null}]"#,
            r#"{"area": "Miami", "contact": {"name": "Gail", "phone": "305 1212"}}"#,
        ] {
            let parsed = parse_request(&request(Some("application/json"), raw)).expect(raw);
            let expected = MatchRequest {
                model: None,
                source: Source::from_reader("unit", &JsonReader::new(raw)).expect(raw),
            };
            assert_eq!(shape(&parsed), shape(&expected));
        }
    }

    #[test]
    fn rejected_json_bodies_keep_their_details() {
        let cases = [
            (
                "not json",
                "cannot read json source: input is not valid JSON: \
                 expected a JSON value at byte 0",
            ),
            (r#"{"source": 5}"#, "missing \"source.dtd\""),
            (r#"{"source": ["x"]}"#, "missing \"source.dtd\""),
            (
                r#"{"model": 1, "source": {}}"#,
                "\"model\" must be a string",
            ),
        ];
        for (body, detail) in cases {
            match parse_request(&request(None, body)) {
                Err(ServeError::BadRequest { detail: got }) => {
                    assert!(got.starts_with(detail), "{body}: {got}")
                }
                other => panic!("{body}: expected a 400, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_content_type_is_415() {
        let e = parse_request(&request(Some("image/png"), "x")).expect_err("rejects");
        assert_eq!(e.status(), 415);
        assert_eq!(e.code(), "unsupported_media_type");
    }

    #[test]
    fn reader_failures_are_bad_requests_naming_the_format() {
        let e = parse_request(&request(Some("text/csv"), "")).expect_err("rejects");
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("csv"), "{e}");
    }
}

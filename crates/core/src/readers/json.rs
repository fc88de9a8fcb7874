//! The JSON reader: documents become listing trees, keys become tags,
//! nesting is preserved.

use super::{sanitize_tag, synthesize_dtd, ReadError, SourceContents, SourceFormat, SourceReader};
use lsd_xml::Element;
use serde::Value;

/// Reads a JSON source: a single object or an array of objects, one
/// listing per object. Keys become element tags (sanitized to XML names),
/// nested objects become subtrees, arrays become repeated elements, and
/// scalars become text leaves; `null` fields are treated as absent. The
/// grammar is synthesized from the resulting trees.
pub struct JsonReader {
    input: Input,
    record_tag: String,
}

/// What a [`JsonReader`] reads: JSON text, or a document already parsed.
enum Input {
    Text(String),
    Parsed(Value),
}

impl JsonReader {
    /// A reader over JSON text; listing roots are tagged `record`.
    pub fn new(text: impl Into<String>) -> Self {
        JsonReader::over(Input::Text(text.into()))
    }

    /// A reader over a document the caller has already parsed (with
    /// [`JsonReader::parse`], say), so the text is not parsed twice.
    /// Reads exactly as [`JsonReader::new`] over that document's text.
    pub fn from_value(value: Value) -> Self {
        JsonReader::over(Input::Parsed(value))
    }

    fn over(input: Input) -> Self {
        JsonReader {
            input,
            record_tag: "record".to_string(),
        }
    }

    /// Parses JSON text, failing with the error [`SourceReader::read`]
    /// gives for the same text.
    ///
    /// # Errors
    /// A [`SourceFormat::Json`] [`ReadError`] when the text is not JSON.
    pub fn parse(text: &str) -> Result<Value, ReadError> {
        serde_json::from_str(text).map_err(|e| err(format!("input is not valid JSON: {e}")))
    }

    /// Overrides the tag wrapped around each document (the listing root).
    pub fn with_record_tag(mut self, tag: impl AsRef<str>) -> Self {
        self.record_tag = sanitize_tag(tag.as_ref());
        self
    }
}

fn err(detail: impl Into<String>) -> ReadError {
    ReadError::new(SourceFormat::Json, detail)
}

/// Renders a scalar the way the deterministic JSON writer would.
fn scalar_text(value: &Value) -> Option<String> {
    match value {
        Value::Bool(b) => Some(b.to_string()),
        Value::Int(i) => Some(i.to_string()),
        Value::Float(f) => Some(f.to_string()),
        Value::Str(s) => Some(s.clone()),
        Value::Null | Value::Seq(_) | Value::Map(_) => None,
    }
}

/// Converts one JSON object into an element subtree rooted at `tag`.
fn object_to_element(tag: &str, entries: &[(String, Value)]) -> Result<Element, ReadError> {
    let mut element = Element::new(tag);
    for (key, value) in entries {
        let child_tag = sanitize_tag(key);
        append_value(&mut element, &child_tag, key, value)?;
    }
    Ok(element)
}

fn append_value(
    parent: &mut Element,
    tag: &str,
    key: &str,
    value: &Value,
) -> Result<(), ReadError> {
    match value {
        // Absent field: the synthesized grammar marks the tag optional.
        Value::Null => Ok(()),
        Value::Map(entries) => {
            parent.push_child(object_to_element(tag, entries)?);
            Ok(())
        }
        Value::Seq(items) => {
            for item in items {
                match item {
                    Value::Seq(_) => {
                        return Err(err(format!(
                            "field \"{key}\": nested arrays are not supported"
                        )))
                    }
                    other => append_value(parent, tag, key, other)?,
                }
            }
            Ok(())
        }
        scalar => {
            let text = scalar_text(scalar).unwrap_or_default();
            parent.push_child(Element::text_leaf(tag, text));
            Ok(())
        }
    }
}

impl SourceReader for JsonReader {
    fn format(&self) -> SourceFormat {
        SourceFormat::Json
    }

    fn read(&self) -> Result<SourceContents, ReadError> {
        let parsed;
        let value = match &self.input {
            Input::Text(text) => {
                parsed = JsonReader::parse(text)?;
                &parsed
            }
            Input::Parsed(value) => value,
        };
        let documents: Vec<&Value> = match value {
            Value::Seq(items) => items.iter().collect(),
            Value::Map(_) => vec![value],
            other => {
                return Err(err(format!(
                    "expected an object or an array of objects, got {other:?}"
                )))
            }
        };
        if documents.is_empty() {
            return Err(err("input contains no records"));
        }
        let mut listings = Vec::with_capacity(documents.len());
        for (i, doc) in documents.iter().enumerate() {
            let Value::Map(entries) = doc else {
                return Err(err(format!("record {i} is not an object, got {doc:?}")));
            };
            listings.push(object_to_element(&self.record_tag, entries)?);
        }
        let (dtd, stats) = synthesize_dtd(&listings).map_err(err)?;
        Ok(SourceContents {
            dtd,
            listings,
            inferred: Some(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::write_element;

    #[test]
    fn objects_become_listings_with_nesting_preserved() {
        let reader = JsonReader::new(
            r#"[{"area": "Miami, FL", "contact": {"name": "Gail", "phone": "305 1212"}},
                {"area": "Kent, WA", "contact": {"name": "Mike", "phone": "206 5555"}}]"#,
        );
        let contents = reader.read().expect("reads");
        assert_eq!(contents.listings.len(), 2);
        assert_eq!(
            write_element(&contents.listings[0]),
            "<record><area>Miami, FL</area><contact><name>Gail</name>\
             <phone>305 1212</phone></contact></record>"
        );
        assert_eq!(contents.dtd.root_name().expect("rooted"), "record");
        assert!(contents.dtd.element_names().any(|n| n == "contact"));
        for listing in &contents.listings {
            assert!(contents.dtd.validate(listing).is_ok());
        }
    }

    #[test]
    fn arrays_repeat_scalars_and_nulls_vanish() {
        let reader =
            JsonReader::new(r#"{"beds": [2, 3], "price": 70000.5, "pool": true, "agent": null}"#)
                .with_record_tag("home");
        let contents = reader.read().expect("reads");
        assert_eq!(
            write_element(&contents.listings[0]),
            "<home><beds>2</beds><beds>3</beds><price>70000.5</price>\
             <pool>true</pool></home>"
        );
        assert!(
            !contents.dtd.element_names().any(|n| n == "agent"),
            "null-only fields synthesize no declaration"
        );
    }

    #[test]
    fn keys_are_sanitized_to_xml_names() {
        let reader = JsonReader::new(r#"{"agent phone": "305", "2nd floor": "yes"}"#);
        let contents = reader.read().expect("reads");
        assert_eq!(
            write_element(&contents.listings[0]),
            "<record><agent_phone>305</agent_phone><f2nd_floor>yes</f2nd_floor></record>"
        );
    }

    #[test]
    fn a_parsed_document_reads_like_its_text() {
        let text = r#"[{"area": "Miami", "beds": [2, 3]}, {"area": "Kent", "agent": null}]"#;
        let from_text = JsonReader::new(text).read().expect("reads");
        let value = JsonReader::parse(text).expect("parses");
        let from_value = JsonReader::from_value(value).read().expect("reads");
        assert_eq!(from_value.listings, from_text.listings);
        assert_eq!(
            from_value.dtd.to_dtd_syntax(),
            from_text.dtd.to_dtd_syntax()
        );

        let e = JsonReader::parse("not json").expect_err("rejects");
        let read = JsonReader::new("not json").read().expect_err("rejects");
        assert_eq!(e, read);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_detail() {
        let cases = [
            ("not json", "valid JSON"),
            ("42", "expected an object"),
            ("[]", "no records"),
            ("[1, 2]", "record 0 is not an object"),
            (r#"{"grid": [[1]]}"#, "nested arrays"),
        ];
        for (input, expected) in cases {
            let e = JsonReader::new(input).read().expect_err(input);
            assert_eq!(e.format, SourceFormat::Json);
            assert!(e.detail.contains(expected), "{input}: {e}");
        }
    }
}

//! The XML reader: the paper's native representation behind the common
//! [`SourceReader`] trait.

use super::{synthesize_dtd, ReadError, SourceContents, SourceFormat, SourceReader};
use lsd_xml::{parse_dtd, parse_fragment, Element};

enum Input {
    /// DTD text plus one XML string per listing — the classic LSD input.
    WithDtd {
        dtd_text: String,
        listing_texts: Vec<String>,
    },
    /// A single container document whose element children are the
    /// listings; the grammar is synthesized from them. This is the shape
    /// `lsd-serve` accepts for raw `application/xml` bodies.
    Container { document: String },
}

/// Reads XML sources: either DTD + listings (the native path, byte-for-byte
/// equivalent to constructing the source from parsed parts) or a bare
/// container document with a synthesized grammar.
pub struct XmlReader {
    input: Input,
}

impl XmlReader {
    /// A reader over DTD text and one XML string per listing.
    pub fn new(
        dtd_text: impl Into<String>,
        listing_texts: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        XmlReader {
            input: Input::WithDtd {
                dtd_text: dtd_text.into(),
                listing_texts: listing_texts.into_iter().map(Into::into).collect(),
            },
        }
    }

    /// A reader over one container document: the root element's children
    /// are the listings, and the schema skeleton is synthesized from them.
    pub fn from_document(document: impl Into<String>) -> Self {
        XmlReader {
            input: Input::Container {
                document: document.into(),
            },
        }
    }
}

impl SourceReader for XmlReader {
    fn format(&self) -> SourceFormat {
        SourceFormat::Xml
    }

    fn read(&self) -> Result<SourceContents, ReadError> {
        let err = |detail: String| ReadError::new(SourceFormat::Xml, detail);
        match &self.input {
            Input::WithDtd {
                dtd_text,
                listing_texts,
            } => {
                let dtd = parse_dtd(dtd_text).map_err(|e| err(format!("invalid DTD: {e}")))?;
                let listings = listing_texts
                    .iter()
                    .enumerate()
                    .map(|(i, text)| {
                        parse_fragment(text)
                            .map_err(|e| err(format!("listing {i} is not well-formed: {e}")))
                    })
                    .collect::<Result<Vec<Element>, ReadError>>()?;
                Ok(SourceContents {
                    dtd,
                    listings,
                    inferred: None,
                })
            }
            Input::Container { document } => {
                let root = parse_fragment(document)
                    .map_err(|e| err(format!("document is not well-formed: {e}")))?;
                let listings: Vec<Element> = root.child_elements().cloned().collect();
                if listings.is_empty() {
                    return Err(err(format!(
                        "container <{}> has no listing children",
                        root.name
                    )));
                }
                let (dtd, stats) = synthesize_dtd(&listings).map_err(err)?;
                Ok(SourceContents {
                    dtd,
                    listings,
                    inferred: Some(stats),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD: &str = "<!ELEMENT home (area, price)>\n\
                       <!ELEMENT area (#PCDATA)>\n<!ELEMENT price (#PCDATA)>";

    #[test]
    fn with_dtd_reads_the_native_representation() {
        let reader = XmlReader::new(
            DTD,
            ["<home><area>Miami, FL</area><price>$70,000</price></home>"],
        );
        let contents = reader.read().expect("reads");
        assert_eq!(contents.listings.len(), 1);
        assert_eq!(contents.dtd.root_name().expect("rooted"), "home");
        // Byte-identical to parsing the parts directly.
        assert_eq!(contents.dtd, parse_dtd(DTD).expect("dtd"));
        assert_eq!(
            contents.listings[0],
            parse_fragment("<home><area>Miami, FL</area><price>$70,000</price></home>")
                .expect("fragment")
        );
    }

    #[test]
    fn container_document_synthesizes_a_grammar() {
        let reader = XmlReader::from_document(
            "<listings><home><area>Miami</area></home>\
             <home><area>Kent</area></home></listings>",
        );
        let contents = reader.read().expect("reads");
        assert_eq!(contents.listings.len(), 2);
        assert_eq!(contents.dtd.root_name().expect("rooted"), "home");
        for listing in &contents.listings {
            assert!(contents.dtd.validate(listing).is_ok());
        }
        let stats = contents.inferred.expect("container schema is inferred");
        assert_eq!(stats.corpus_size, 2);
        assert_eq!(stats.element_support["home"], 2);
    }

    #[test]
    fn native_dtd_input_is_not_marked_inferred() {
        let reader = XmlReader::new(
            DTD,
            ["<home><area>Miami, FL</area><price>$70,000</price></home>"],
        );
        assert!(reader.read().expect("reads").inferred.is_none());
    }

    #[test]
    fn errors_name_the_offending_part() {
        let bad_dtd = XmlReader::new("garbage", ["<h/>"]).read().expect_err("dtd");
        assert!(bad_dtd.detail.contains("invalid DTD"), "{bad_dtd}");
        let bad_listing = XmlReader::new("<!ELEMENT h (#PCDATA)>", ["<unclosed"])
            .read()
            .expect_err("listing");
        assert!(bad_listing.detail.contains("listing 0"), "{bad_listing}");
        let empty = XmlReader::from_document("<listings/>")
            .read()
            .expect_err("empty container");
        assert!(empty.detail.contains("no listing children"), "{empty}");
        assert_eq!(empty.format, SourceFormat::Xml);
    }
}

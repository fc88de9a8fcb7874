//! A hand-rolled parser for the XML subset used by LSD's data sources.
//!
//! Supported: elements, attributes (single- or double-quoted), text content,
//! the five predefined entities plus numeric character references, comments,
//! CDATA sections, XML declarations and processing instructions (skipped),
//! and inline `<!DOCTYPE ...>` declarations (skipped — DTDs are parsed
//! separately by [`crate::parse_dtd`]). Not supported: namespaces (the
//! paper's sources don't use them).

use crate::error::XmlError;
use crate::tree::{Document, Element, Node};
use crate::{Result, MAX_DEPTH};

/// Parses a complete XML document. Exactly one root element is required;
/// anything but whitespace/comments/PIs around it is an error.
pub fn parse_document(input: &str) -> Result<Document> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let root = match p.parse_element(1)? {
        Some(root) => root,
        None => return Err(XmlError::NoRootElement),
    };
    p.skip_misc()?;
    if !p.at_end() {
        return Err(XmlError::TrailingContent { offset: p.pos });
    }
    Ok(Document { root })
}

/// Parses a single element from a string that may have surrounding
/// whitespace but no prolog. Useful for tests and for embedding fragments.
pub fn parse_fragment(input: &str) -> Result<Element> {
    let mut p = Parser::new(input);
    p.skip_misc()?;
    let el = p.parse_element(1)?.ok_or(XmlError::NoRootElement)?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(XmlError::TrailingContent { offset: p.pos });
    }
    Ok(el)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Skips the XML declaration, DOCTYPE, comments and PIs before the root.
    fn skip_prolog(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips whitespace, comments and PIs (used after the root element and
    /// around fragments).
    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, marker: &'static str) -> Result<()> {
        match self.input[self.pos..].find(marker) {
            Some(rel) => {
                self.pos += rel + marker.len();
                Ok(())
            }
            None => Err(XmlError::UnexpectedEof {
                context: "comment or processing instruction",
            }),
        }
    }

    /// Skips `<!DOCTYPE ...>` including an optional internal subset `[...]`.
    fn skip_doctype(&mut self) -> Result<()> {
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(XmlError::UnexpectedEof {
            context: "DOCTYPE declaration",
        })
    }

    /// Parses one element starting at `<`, `depth` levels deep (the root
    /// is level 1). Returns `Ok(None)` if the input does not start with an
    /// open tag.
    fn parse_element(&mut self, depth: usize) -> Result<Option<Element>> {
        if self.peek() != Some(b'<') {
            return Ok(None);
        }
        if depth > MAX_DEPTH {
            return Err(XmlError::NestingTooDeep { offset: self.pos });
        }
        self.pos += 1;
        let name = self.parse_name("element name")?;
        let mut element = Element::new(name);

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok(Some(element)); // self-closing
                    }
                    return Err(XmlError::UnexpectedChar {
                        offset: self.pos,
                        found: self.current_char(),
                        expected: "'>' after '/'",
                    });
                }
                Some(_) => {
                    let (an, av) = self.parse_attribute()?;
                    element.attributes.push((an, av));
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "open tag",
                    })
                }
            }
        }

        // Content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close_offset = self.pos;
                let close = self.parse_name("close tag name")?;
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(XmlError::UnexpectedChar {
                        offset: self.pos,
                        found: self.current_char(),
                        expected: "'>' in close tag",
                    });
                }
                self.pos += 1;
                if close != element.name {
                    return Err(XmlError::MismatchedTag {
                        offset: close_offset,
                        open: element.name,
                        close,
                    });
                }
                return Ok(Some(element));
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                let start = self.pos + "<![CDATA[".len();
                match self.input[start..].find("]]>") {
                    Some(rel) => {
                        push_text(&mut element, self.input[start..start + rel].to_string());
                        self.pos = start + rel + 3;
                    }
                    None => {
                        return Err(XmlError::UnexpectedEof {
                            context: "CDATA section",
                        })
                    }
                }
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element(depth + 1)?.expect("peeked '<'");
                element.children.push(Node::Element(child));
            } else if self.at_end() {
                return Err(XmlError::UnexpectedEof {
                    context: "element content",
                });
            } else {
                let text = self.parse_text()?;
                if !text.trim().is_empty() {
                    push_text(&mut element, text);
                }
            }
        }
    }

    fn current_char(&self) -> char {
        self.input[self.pos..].chars().next().unwrap_or('\u{0}')
    }

    fn parse_name(&mut self, context: &'static str) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            if self.at_end() {
                return Err(XmlError::UnexpectedEof { context });
            }
            return Err(XmlError::UnexpectedChar {
                offset: self.pos,
                found: self.current_char(),
                expected: "a name character",
            });
        }
        let name = &self.input[start..self.pos];
        match name.chars().next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            first => {
                return Err(XmlError::UnexpectedChar {
                    offset: start,
                    found: first.unwrap_or('\0'),
                    expected: "a letter or '_' starting a name",
                });
            }
        }
        Ok(name.to_string())
    }

    fn parse_attribute(&mut self) -> Result<(String, String)> {
        let name = self.parse_name("attribute name")?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(XmlError::UnexpectedChar {
                offset: self.pos,
                found: self.current_char(),
                expected: "'=' after attribute name",
            });
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(_) => {
                return Err(XmlError::UnexpectedChar {
                    offset: self.pos,
                    found: self.current_char(),
                    expected: "a quote starting an attribute value",
                })
            }
            None => {
                return Err(XmlError::UnexpectedEof {
                    context: "attribute value",
                })
            }
        };
        self.pos += 1;
        let mut value = String::new();
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    self.pos += 1;
                    return Ok((name, value));
                }
                Some(b'&') => value.push(self.parse_entity()?),
                Some(_) => {
                    let c = self.current_char();
                    value.push(c);
                    self.pos += c.len_utf8();
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "attribute value",
                    })
                }
            }
        }
    }

    /// Parses text up to the next `<`, resolving entity references.
    fn parse_text(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'<') | None => return Ok(out),
                Some(b'&') => out.push(self.parse_entity()?),
                Some(_) => {
                    let c = self.current_char();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses `&name;` / `&#NN;` / `&#xHH;` with the cursor on `&`.
    fn parse_entity(&mut self) -> Result<char> {
        let start = self.pos;
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let end = match self.input[self.pos..].find(';') {
            // Entities are short; a far-away ';' means the '&' is stray text.
            Some(rel) if rel <= 10 => self.pos + rel,
            _ => {
                return Err(XmlError::UnknownEntity {
                    offset: start,
                    entity: self.input[self.pos..].chars().take(8).collect(),
                })
            }
        };
        let body = &self.input[self.pos..end];
        self.pos = end + 1;
        let ch = match body {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                u32::from_str_radix(&body[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or(XmlError::UnknownEntity {
                        offset: start,
                        entity: body.to_string(),
                    })?
            }
            _ if body.starts_with('#') => body[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or(XmlError::UnknownEntity {
                    offset: start,
                    entity: body.to_string(),
                })?,
            _ => {
                return Err(XmlError::UnknownEntity {
                    offset: start,
                    entity: body.to_string(),
                })
            }
        };
        Ok(ch)
    }
}

/// Appends text, merging with a trailing text node if present (so CDATA and
/// entity boundaries don't fragment logical text runs).
fn push_text(element: &mut Element, text: String) {
    if let Some(Node::Text(prev)) = element.children.last_mut() {
        prev.push_str(&text);
    } else {
        element.children.push(Node::Text(text));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let doc = parse_document(
            "<house-listing>\n  <location>Seattle, WA</location>\n  <price> $70,000</price>\n  \
             <contact><name>Kate Richardson</name>\n  <phone>(206) 523 4719</phone>\n  \
             </contact>\n</house-listing>",
        )
        .unwrap();
        assert_eq!(doc.root.name, "house-listing");
        assert_eq!(doc.root.child_elements().count(), 3);
        let contact = doc.root.child("contact").unwrap();
        assert_eq!(
            contact.child("phone").unwrap().direct_text(),
            "(206) 523 4719"
        );
    }

    #[test]
    fn resolves_entities() {
        let e = parse_fragment("<d>Tom &amp; Jerry &lt;3 &#65;&#x42;</d>").unwrap();
        assert_eq!(e.direct_text(), "Tom & Jerry <3 AB");
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = parse_fragment("<d>&nbsp;</d>").unwrap_err();
        assert!(matches!(err, XmlError::UnknownEntity { entity, .. } if entity == "nbsp"));
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let e = parse_fragment(r#"<a x="1" y='two &amp; three'/>"#).unwrap();
        assert_eq!(e.attribute("x"), Some("1"));
        assert_eq!(e.attribute("y"), Some("two & three"));
    }

    #[test]
    fn self_closing_tags() {
        let e = parse_fragment("<r><a/><b x='1'/></r>").unwrap();
        assert_eq!(e.child_elements().count(), 2);
        assert!(e.child("a").unwrap().is_leaf());
    }

    #[test]
    fn mismatched_close_tag_is_error() {
        let err = parse_fragment("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { open, close, .. }
            if open == "b" && close == "a"));
    }

    #[test]
    fn skips_prolog_doctype_comments_pis() {
        let doc = parse_document(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE listing [<!ELEMENT listing (#PCDATA)>]>\n\
             <!-- a comment -->\n<listing>hi</listing>\n<!-- trailing -->",
        )
        .unwrap();
        assert_eq!(doc.root.direct_text(), "hi");
    }

    #[test]
    fn trailing_content_is_error() {
        let err = parse_document("<a/>junk").unwrap_err();
        assert!(matches!(err, XmlError::TrailingContent { .. }));
    }

    #[test]
    fn cdata_passes_through_verbatim() {
        let e = parse_fragment("<d>before <![CDATA[<not> & parsed]]> after</d>").unwrap();
        assert_eq!(e.direct_text(), "before <not> & parsed after");
    }

    #[test]
    fn cdata_merges_with_adjacent_text() {
        let e = parse_fragment("<d>a<![CDATA[b]]>c</d>").unwrap();
        assert_eq!(e.children.len(), 1, "text runs should merge");
        assert_eq!(e.direct_text(), "abc");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let e = parse_fragment("<r>\n  <a>1</a>\n  <b>2</b>\n</r>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn comments_inside_content_are_skipped() {
        let e = parse_fragment("<d>a<!-- c -->b</d>").unwrap();
        assert_eq!(e.direct_text(), "ab");
    }

    #[test]
    fn empty_input_is_no_root() {
        assert!(matches!(
            parse_document("   "),
            Err(XmlError::NoRootElement)
        ));
    }

    #[test]
    fn unterminated_element_is_eof() {
        let err = parse_fragment("<a><b>text").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn unicode_text_roundtrips() {
        let e = parse_fragment("<d>café — ½ 語</d>").unwrap();
        assert_eq!(e.direct_text(), "café — ½ 語");
    }

    #[test]
    fn bad_name_start_rejected() {
        assert!(parse_fragment("<1abc/>").is_err());
    }

    #[test]
    fn deeply_nested_ok() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("<n>");
        }
        s.push('x');
        for _ in 0..200 {
            s.push_str("</n>");
        }
        let e = parse_fragment(&s).unwrap();
        assert_eq!(e.depth(), 200);
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let nested = |depth: usize| "<n>".repeat(depth) + "x" + &"</n>".repeat(depth);
        assert_eq!(
            parse_fragment(&nested(MAX_DEPTH)).unwrap().depth(),
            MAX_DEPTH
        );
        assert_eq!(
            parse_document(&nested(MAX_DEPTH + 1)).unwrap_err(),
            XmlError::NestingTooDeep {
                offset: 3 * MAX_DEPTH
            }
        );
        // 300 000 open tags: an error, not a stack overflow.
        let deep = parse_document(&"<a>".repeat(300_000)).unwrap_err();
        assert!(matches!(deep, XmlError::NestingTooDeep { .. }), "{deep}");
        assert!(deep.to_string().contains("nesting"), "{deep}");
    }
}

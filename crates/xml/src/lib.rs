//! # lsd-xml
//!
//! XML substrate for the LSD schema matcher: a document model, a hand-rolled
//! parser for the XML subset the paper uses (elements, attributes, text,
//! comments, entity references), a DTD content-model grammar with a parser
//! for `<!ELEMENT ...>` declarations, document validation against a DTD, and
//! a [`SchemaTree`] abstraction that answers the structural questions the
//! constraint handler and the XML learner ask (nesting, siblings, paths,
//! depth).
//!
//! The paper (Section 2.1) treats attributes and sub-elements uniformly; we
//! preserve attributes in the model and expose
//! [`Element::attributes_as_children`] to realize that convention.
//!
//! ## Quick example
//!
//! ```
//! use lsd_xml::{parse_document, parse_dtd, SchemaTree};
//!
//! let doc = parse_document(
//!     "<house-listing><location>Seattle, WA</location>\
//!      <price>$70,000</price></house-listing>").unwrap();
//! assert_eq!(doc.root.name, "house-listing");
//! assert_eq!(doc.root.children.len(), 2);
//!
//! let dtd = parse_dtd(
//!     "<!ELEMENT house-listing (location?, price)>\n\
//!      <!ELEMENT location (#PCDATA)>\n\
//!      <!ELEMENT price (#PCDATA)>").unwrap();
//! let schema = SchemaTree::from_dtd(&dtd).unwrap();
//! assert!(schema.is_nested_in("location", "house-listing"));
//! assert!(dtd.validate(&doc.root).is_ok());
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod dtd;
mod error;
mod parser;
mod schema;
mod span;
mod tree;
mod writer;

pub use dtd::{parse_dtd, AttDef, AttlistDecl, ContentModel, Dtd, ElementDecl, Occurrence};
pub use error::XmlError;
pub use parser::{parse_document, parse_fragment};
pub use schema::{SchemaTree, TagInfo};
pub use span::{Location, Span};
pub use tree::{Document, Element, Node};
pub use writer::{escape_text, write_element, write_element_pretty};

/// The nesting depth past which parsing stops with
/// [`XmlError::NestingTooDeep`]: elements in a document, or parenthesized
/// groups in a DTD content model. Both parsers recurse once per level, so
/// this bounds their stack use on hostile input.
pub const MAX_DEPTH: usize = 256;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, XmlError>;

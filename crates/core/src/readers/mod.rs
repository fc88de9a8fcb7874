//! Format-agnostic source ingestion: the [`SourceReader`] trait.
//!
//! The paper assumes every source ships XML listings plus a DTD. Real
//! matching workloads span heterogeneous serializations behind one logical
//! schema, so ingestion is redesigned around one trait: a reader normalizes
//! a foreign serialization into the canonical internal representation —
//! a [`Dtd`] schema skeleton plus [`Element`] listing trees — and
//! [`crate::Source::from_reader`] is the one constructor over it. Every
//! learner, the constraint handler, and the serve endpoints then work
//! unchanged, because they only ever see the canonical representation.
//!
//! Four readers ship with the crate:
//!
//! | Reader | Format | Schema skeleton |
//! |---|---|---|
//! | [`XmlReader`] | XML + DTD, or a bare container document | the DTD, or synthesized |
//! | [`JsonReader`] | JSON document(s); keys → tags, nesting preserved | synthesized |
//! | [`CsvReader`] | CSV with a header row; columns → flat tags | synthesized |
//! | [`SqlReader`] | SQL `CREATE TABLE` DDL (+ optional `INSERT`s) | from the DDL: columns + FK edges |
//!
//! Sources that do not ship a schema (bare XML containers, JSON, CSV) get
//! a *synthesized grammar* ([`synthesize_dtd`]): a closed, 1-unambiguous
//! DTD learned from the listing trees by `lsd-infer`, so the
//! static-analysis pass behind [`crate::Lsd::analyze`] and
//! [`crate::Lsd::train`] gates them exactly like native XML sources. The
//! inference evidence rides along on [`SourceContents::inferred`].

mod csv;
mod json;
mod sql;
mod xml;

pub use csv::CsvReader;
pub use json::JsonReader;
pub use sql::SqlReader;
pub use xml::XmlReader;

use lsd_infer::InferenceStats;
use lsd_xml::{Dtd, Element};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The serialization a [`crate::Source`] was ingested from. Recorded on the
/// source itself and, per trained source, in the persisted snapshot
/// (`SavedModel::source_provenance`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SourceFormat {
    /// XML listings with a DTD — the paper's native representation.
    #[default]
    Xml,
    /// JSON documents (keys → tags, nesting preserved).
    Json,
    /// CSV with a header row (columns → flat tags).
    Csv,
    /// SQL `CREATE TABLE` DDL, columns + foreign-key edges as structure.
    Sql,
}

impl fmt::Display for SourceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SourceFormat::Xml => "xml",
            SourceFormat::Json => "json",
            SourceFormat::Csv => "csv",
            SourceFormat::Sql => "sql",
        };
        f.write_str(name)
    }
}

/// A reader failed to normalize its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// The format the failing reader handles.
    pub format: SourceFormat,
    /// What was wrong with the input.
    pub detail: String,
}

impl ReadError {
    pub(crate) fn new(format: SourceFormat, detail: impl Into<String>) -> Self {
        ReadError {
            format,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot read {} source: {}", self.format, self.detail)
    }
}

impl std::error::Error for ReadError {}

/// What a reader yields: the canonical internal representation of a source.
#[derive(Debug, Clone)]
pub struct SourceContents {
    /// The schema skeleton — native for XML, synthesized or DDL-derived
    /// otherwise. Always closed, so `SchemaTree::from_dtd` succeeds.
    pub dtd: Dtd,
    /// The listing trees the instance extractor runs over.
    pub listings: Vec<Element>,
    /// When the schema was *inferred* from the listings rather than
    /// supplied (bare XML containers, JSON documents): the inference
    /// evidence, carried into [`crate::SourceProvenance`] so audits can
    /// flag weakly-supported schemas. `None` for native/DDL schemas.
    pub inferred: Option<InferenceStats>,
}

/// One instance model for every serialization: a reader normalizes its
/// input into a [`SourceContents`] — the `Dtd` + `Vec<Element>` pair the
/// whole pipeline (extraction, learners, constraints, serving) is written
/// against. Implement this to teach LSD a new serialization; nothing
/// downstream needs to change.
pub trait SourceReader {
    /// The serialization this reader handles, recorded as provenance on the
    /// constructed [`crate::Source`].
    fn format(&self) -> SourceFormat;

    /// Normalizes the input.
    ///
    /// # Errors
    /// [`ReadError`] when the input cannot be parsed or does not form a
    /// coherent source (e.g. listings with differing root tags, or a SQL
    /// schema whose foreign keys do not form a tree).
    fn read(&self) -> Result<SourceContents, ReadError>;
}

/// Sanitizes an arbitrary string (JSON key, CSV column, SQL identifier)
/// into a valid XML element name: invalid characters become `_`, and a
/// leading digit (or empty input) gets a `f` prefix.
pub(crate) fn sanitize_tag(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.trim().chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.') {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    match out.chars().next() {
        None => "field".to_string(),
        Some(c) if c.is_ascii_digit() || c == '-' || c == '.' => format!("f{out}"),
        Some(_) => out,
    }
}

/// Infers a closed, 1-unambiguous DTD from listing trees: the schema
/// skeleton for sources that do not ship one. This delegates to
/// [`lsd_infer::infer_dtd`]: per element, a chain of the child names in
/// the one order every listing agrees with, each with its occurrence
/// factor (`?`, `*`, `+`), or the catch-all `(a | b | …)*` when the
/// listings order some names both ways. The result passes the
/// static-analysis gate (`LSD001`/`LSD002`/`LSD105`) that
/// [`crate::Lsd::train`] runs over training-source schemas and accepts
/// every listing it was derived from.
///
/// The DTD comes with the inference evidence: corpus size, per-element
/// support, occurrence-factor and catch-all counts. Readers store the stats on
/// [`SourceContents::inferred`] so they travel into trained snapshots as
/// provenance.
///
/// # Errors
/// A description of the problem when `listings` is empty or the listings
/// do not share one root tag (the DTD's root would be ill-defined).
pub fn synthesize_dtd(listings: &[Element]) -> Result<(Dtd, InferenceStats), String> {
    let Some(first) = listings.first() else {
        return Err("cannot synthesize a grammar from zero listings".to_string());
    };
    if let Some(odd) = listings.iter().find(|l| l.name != first.name) {
        return Err(format!(
            "listings must share one root tag, found both <{}> and <{}>",
            first.name, odd.name
        ));
    }
    let inference = lsd_infer::infer_dtd(listings).map_err(|e| e.to_string())?;
    Ok((inference.dtd, inference.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::{parse_fragment, SchemaTree};

    fn frag(s: &str) -> Element {
        parse_fragment(s).expect("well-formed")
    }

    #[test]
    fn sanitize_tag_produces_valid_names() {
        assert_eq!(sanitize_tag("agent phone"), "agent_phone");
        assert_eq!(sanitize_tag("agent-phone"), "agent-phone");
        assert_eq!(sanitize_tag("3beds"), "f3beds");
        assert_eq!(sanitize_tag(""), "field");
        assert_eq!(sanitize_tag("  price ($) "), "price____");
    }

    #[test]
    fn synthesized_dtd_is_closed_and_roots_correctly() {
        let listings = vec![
            frag("<home><area>Miami</area><price>1</price></home>"),
            frag("<home><area>Kent</area><price>2</price></home>"),
        ];
        let (dtd, _) = synthesize_dtd(&listings).expect("synthesizes");
        assert!(dtd.check_closed().is_ok());
        assert_eq!(dtd.root_name().expect("rooted"), "home");
        assert!(SchemaTree::from_dtd(&dtd).is_ok());
        for listing in &listings {
            assert!(dtd.validate(listing).is_ok(), "listing validates");
        }
    }

    #[test]
    fn occurrences_reflect_observed_counts() {
        let listings = vec![
            frag("<r><a>1</a><b>x</b><b>y</b></r>"),
            frag("<r><a>2</a></r>"),
        ];
        let (dtd, _) = synthesize_dtd(&listings).expect("synthesizes");
        let decl = dtd.decl("r").expect("declared");
        let rendered = decl.content.to_dtd_syntax();
        assert_eq!(rendered, "(a, b*)", "a is required, b repeats or vanishes");
        for listing in &listings {
            assert!(dtd.validate(listing).is_ok());
        }
    }

    #[test]
    fn text_plus_children_becomes_mixed() {
        let listings = vec![frag("<p>hello <b>world</b> again</p>")];
        let (dtd, _) = synthesize_dtd(&listings).expect("synthesizes");
        let rendered = dtd.decl("p").expect("declared").content.to_dtd_syntax();
        assert_eq!(rendered, "(#PCDATA | b)*");
        assert!(dtd.validate(&listings[0]).is_ok());
    }

    #[test]
    fn mismatched_roots_are_rejected() {
        let listings = vec![frag("<a/>"), frag("<b/>")];
        let err = synthesize_dtd(&listings).expect_err("rejects");
        assert!(err.contains("<a>") && err.contains("<b>"), "{err}");
    }

    #[test]
    fn zero_listings_are_rejected() {
        assert!(synthesize_dtd(&[]).is_err());
    }

    #[test]
    fn recursive_nesting_still_declares_once() {
        let listings = vec![frag(
            "<part><name>top</name><part><name>sub</name></part></part>",
        )];
        let (dtd, _) = synthesize_dtd(&listings).expect("synthesizes");
        assert_eq!(dtd.len(), 2);
        assert!(dtd.check_closed().is_ok());
        // The sub-part has no nested part, so recursion is optional and a
        // finite derivation exists.
        assert!(SchemaTree::from_dtd(&dtd).is_ok());
    }

    #[test]
    fn default_format_is_xml() {
        assert_eq!(SourceFormat::default(), SourceFormat::Xml);
    }
}

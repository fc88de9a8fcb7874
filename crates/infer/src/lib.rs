//! # lsd-infer
//!
//! Deterministic DTD inference from raw, DTD-less XML instances.
//!
//! The paper's pipeline assumes every source ships a DTD; scraped data
//! almost never does. This crate learns one from positive examples alone.
//! Per element name, the observed child sequences are aggregated, and an
//! element-only model is one of two shapes:
//!
//! 1. a **chain** `(a₁ᵒ¹, a₂ᵒ², …)`, a CHARE in the sense of
//!    Bex–Gelade–Neven–Vansummeren ("Learning Deterministic Regular
//!    Expressions for the Inference of Schemas from XML Data"), when some
//!    linear order of the child names agrees with every sequence. Names
//!    come in Kahn order with lexicographic ties; each factor is the
//!    name's per-parent minimum and maximum count, in the spirit of
//!    Ciucanu–Staworko's one multiplicity per child;
//! 2. otherwise the **catch-all** `(a | b | …)*` by name.
//!
//! Both shapes name each child once, so both are 1-unambiguous, and both
//! accept every training instance by construction (see the `chare`
//! module). Matching reads only each element's child order from the
//! schema, which the chain preserves whenever one exists. The property
//! tests in `tests/proptests.rs` check both invariants over arbitrary
//! child sequences against the Glushkov lint.
//!
//! Inference is **deterministic**: all intermediate state is kept in
//! ordered containers keyed by element name, sequences are deduplicated
//! into sets, and nothing depends on instance order or thread count — the
//! same corpus always yields a byte-identical DTD.
//!
//! ```
//! use lsd_infer::infer_dtd;
//! use lsd_xml::parse_document;
//!
//! let docs = [
//!     "<house><area>Miami</area><price>$70,000</price></house>",
//!     "<house><area>Kent</area></house>",
//! ];
//! let instances: Vec<_> = docs
//!     .iter()
//!     .map(|d| parse_document(d).unwrap().root)
//!     .collect();
//! let inferred = infer_dtd(&instances).unwrap();
//! assert!(inferred.dtd.to_dtd_syntax().contains("(area, price?)"));
//! assert_eq!(inferred.stats.corpus_size, 2);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod chare;

use lsd_xml::{
    AttDef, AttlistDecl, ContentModel, Dtd, Element, ElementDecl, Node, Occurrence, Span,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Aggregate statistics of one inference run. Recorded as provenance on
/// trained models (`SourceProvenance::inferred`) so `lsd-audit` can flag
/// snapshots built on weakly-evidenced schemas.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InferenceStats {
    /// Number of training instances.
    pub corpus_size: usize,
    /// Declared elements in the inferred DTD.
    pub elements: usize,
    /// Occurrence factors (`?`/`*`/`+`) across all chains: each is a
    /// child whose count varies, or exceeds one, across its parents.
    pub generalizations: usize,
    /// Elements whose children no linear order fits, so their content
    /// model is the catch-all `(a | b | …)*`.
    pub fallbacks: usize,
    /// Observed occurrences per element name — the evidence behind each
    /// declaration.
    pub element_support: BTreeMap<String, usize>,
}

/// A successful inference: the learned DTD and how it was earned.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The inferred schema: 1-unambiguous, accepting every training
    /// instance.
    pub dtd: Dtd,
    /// Corpus and per-element evidence.
    pub stats: InferenceStats,
}

/// Why inference could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// No instances were supplied — there is nothing to learn from.
    EmptyCorpus,
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::EmptyCorpus => write!(f, "cannot infer a DTD from an empty corpus"),
        }
    }
}

impl std::error::Error for InferError {}

/// Per-element evidence aggregated over the corpus, borrowing every name
/// from it.
#[derive(Default)]
struct Facts<'a> {
    support: usize,
    /// Distinct observed child-name sequences. A *set*, so inference is
    /// independent of instance order and multiplicity.
    seqs: BTreeSet<Vec<&'a str>>,
    has_text: bool,
    attrs: BTreeSet<&'a str>,
}

/// Learns a deterministic DTD from raw XML instances.
///
/// Every instance contributes evidence for each element it contains:
/// child sequences, text presence, attribute names. Instances may use
/// different root elements; roots are declared first (so
/// [`Dtd::root_name`] resolves to them), remaining elements follow in
/// lexicographic order.
///
/// # Errors
/// [`InferError::EmptyCorpus`] when `instances` is empty.
pub fn infer_dtd(instances: &[Element]) -> Result<Inference, InferError> {
    let _span = lsd_obs::span!("infer.dtd");
    if instances.is_empty() {
        return Err(InferError::EmptyCorpus);
    }

    let mut roots: BTreeSet<&str> = BTreeSet::new();
    let mut facts: BTreeMap<&str, Facts> = BTreeMap::new();
    // One child sequence, reused: a sequence already seen is not copied.
    let mut seq: Vec<&str> = Vec::new();
    for instance in instances {
        roots.insert(&instance.name);
        instance.visit(&mut |e| {
            let f = facts.entry(&e.name).or_default();
            f.support += 1;
            seq.clear();
            seq.extend(e.child_elements().map(|c| c.name.as_str()));
            if !f.seqs.contains(seq.as_slice()) {
                f.seqs.insert(seq.clone());
            }
            f.has_text |= e
                .children
                .iter()
                .filter_map(Node::as_text)
                .any(|run| !run.trim().is_empty());
            f.attrs.extend(e.attributes.iter().map(|(k, _)| k.as_str()));
        });
    }

    let ordered: Vec<&str> = roots
        .iter()
        .copied()
        .chain(facts.keys().copied().filter(|k| !roots.contains(k)))
        .collect();

    let mut stats = InferenceStats {
        corpus_size: instances.len(),
        ..InferenceStats::default()
    };
    let mut decls = Vec::with_capacity(ordered.len());
    let mut attlists = Vec::new();
    for name in ordered {
        let f = &facts[name];
        let model = infer_content(f, &mut stats);
        decls.push(ElementDecl::new(name, model));
        if !f.attrs.is_empty() {
            attlists.push(AttlistDecl {
                element: name.to_string(),
                attrs: f
                    .attrs
                    .iter()
                    .map(|a| AttDef {
                        name: a.to_string(),
                        span: Span::SYNTHETIC,
                    })
                    .collect(),
                span: Span::SYNTHETIC,
            });
        }
        stats.element_support.insert(name.to_string(), f.support);
    }
    stats.elements = decls.len();

    lsd_obs::counter_add("infer.elements", "", stats.elements as u64);
    lsd_obs::counter_add("infer.generalizations", "", stats.generalizations as u64);
    lsd_obs::counter_add("infer.fallbacks", "", stats.fallbacks as u64);

    let dtd = Dtd::with_attlists(decls, attlists)
        .expect("inferred declarations are unique by construction");
    Ok(Inference { dtd, stats })
}

/// Infers one element's content model from its aggregated evidence.
fn infer_content(f: &Facts, stats: &mut InferenceStats) -> ContentModel {
    let names: BTreeSet<&str> = f.seqs.iter().flatten().copied().collect();
    if names.is_empty() {
        // Leaf element: text content (or nothing — `(#PCDATA)` accepts
        // the empty string too).
        return ContentModel::Pcdata;
    }
    if f.has_text {
        // Text alongside child elements: the only DTD shape is mixed
        // content, `(#PCDATA | a | b)*`.
        return ContentModel::Mixed(names.iter().map(|n| n.to_string()).collect());
    }
    let Some(chain) = chare::chare(&names, &f.seqs) else {
        // No order fits, so there are at least two names: the catch-all
        // `(a | b | …)*`, deterministic (every name occurs once) and
        // accepting any child sequence over the alphabet.
        stats.fallbacks += 1;
        let parts = names
            .iter()
            .map(|n| ContentModel::Name(n.to_string(), Occurrence::One))
            .collect();
        return ContentModel::Choice(parts, Occurrence::ZeroOrMore);
    };
    stats.generalizations += chain
        .iter()
        .filter(|(_, occ)| *occ != Occurrence::One)
        .count();
    let mut parts: Vec<ContentModel> = chain
        .into_iter()
        .map(|(name, occ)| ContentModel::Name(name.to_string(), occ))
        .collect();
    if parts.len() == 1 {
        parts.remove(0)
    } else {
        ContentModel::Seq(parts, Occurrence::One)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::parse_document;

    fn instances(docs: &[&str]) -> Vec<Element> {
        docs.iter()
            .map(|d| parse_document(d).expect("test doc parses").root)
            .collect()
    }

    fn infer(docs: &[&str]) -> Inference {
        infer_dtd(&instances(docs)).expect("inference succeeds")
    }

    #[test]
    fn empty_corpus_is_an_error() {
        assert_eq!(infer_dtd(&[]).unwrap_err(), InferError::EmptyCorpus);
    }

    #[test]
    fn learns_nested_structure_with_occurrences() {
        let inferred = infer(&[
            "<l><addr>x</addr><ph>1</ph><ph>2</ph><agent><name>n</name></agent></l>",
            "<l><addr>y</addr><agent><name>m</name></agent></l>",
        ]);
        let text = inferred.dtd.to_dtd_syntax();
        assert!(text.contains("<!ELEMENT l (addr, ph*, agent)>"), "{text}");
        assert!(text.contains("<!ELEMENT agent (name)>"), "{text}");
        assert!(text.contains("<!ELEMENT addr (#PCDATA)>"), "{text}");
        for instance in instances(&[
            "<l><addr>x</addr><ph>1</ph><ph>2</ph><agent><name>n</name></agent></l>",
            "<l><addr>y</addr><agent><name>m</name></agent></l>",
        ]) {
            inferred.dtd.validate(&instance).expect("training accepted");
        }
    }

    #[test]
    fn interleaved_repeats_fall_back_to_catch_all() {
        // a b a orders a both before and after b: no chain fits.
        let inferred = infer(&["<r><a/><b/><a/></r>"]);
        let decl = inferred.dtd.decl("r").expect("r declared");
        assert_eq!(decl.content.to_dtd_syntax(), "(a | b)*");
        assert_eq!(inferred.stats.fallbacks, 1);
        inferred
            .dtd
            .validate(&instances(&["<r><a/><b/><a/></r>"])[0])
            .expect("training accepted");
    }

    #[test]
    fn inconsistent_orders_fall_back_to_catch_all() {
        let docs = ["<r><a/><b/></r>", "<r><b/><a/></r>"];
        let inferred = infer(&docs);
        let decl = inferred.dtd.decl("r").expect("r declared");
        assert_eq!(decl.content.to_dtd_syntax(), "(a | b)*");
        assert_eq!(inferred.stats.fallbacks, 1);
        for instance in instances(&docs) {
            inferred.dtd.validate(&instance).expect("training accepted");
        }
    }

    #[test]
    fn mixed_content_and_attributes_are_detected() {
        let inferred = infer(&["<p lang=\"en\">hello <b>world</b></p>"]);
        let text = inferred.dtd.to_dtd_syntax();
        assert!(text.contains("<!ELEMENT p (#PCDATA | b)*>"), "{text}");
        let attlist = &inferred.dtd.attlists()[0];
        assert_eq!(attlist.element, "p");
        assert_eq!(attlist.attrs[0].name, "lang");
    }

    #[test]
    fn stats_record_support_and_corpus_size() {
        let inferred = infer(&["<r><a/></r>", "<r><a/><a/></r>"]);
        assert_eq!(inferred.stats.corpus_size, 2);
        assert_eq!(inferred.stats.element_support["r"], 2);
        assert_eq!(inferred.stats.element_support["a"], 3);
        assert_eq!(inferred.stats.elements, 2);
        // One factor, and a one-name chain is not wrapped in a sequence.
        let decl = inferred.dtd.decl("r").expect("r declared");
        assert_eq!(decl.content.to_dtd_syntax(), "a+");
        assert_eq!(inferred.stats.generalizations, 1);
        assert_eq!(inferred.stats.fallbacks, 0);
    }

    #[test]
    fn inference_is_independent_of_instance_order() {
        let docs = [
            "<r><a/><b/><b/></r>",
            "<r><a/></r>",
            "<r><a/><c/></r>",
            "<r><b/></r>",
        ];
        let forward = infer(&docs).dtd.to_dtd_syntax();
        let mut reversed: Vec<&str> = docs.to_vec();
        reversed.reverse();
        let backward = infer(&reversed).dtd.to_dtd_syntax();
        assert_eq!(forward, backward);
    }

    #[test]
    fn every_inferred_model_is_one_unambiguous() {
        let inferred = infer(&[
            "<r><a/><b/><a/><c/></r>",
            "<r><c/><a/></r>",
            "<r><a/><a/><a/></r>",
        ]);
        for decl in inferred.dtd.declarations() {
            assert_eq!(
                lsd_analysis::check_one_unambiguous(&decl.content),
                None,
                "{}",
                decl.name
            );
        }
    }

    #[test]
    fn distinct_roots_are_all_declared_first() {
        let inferred = infer(&["<x><k/></x>", "<y><k/></y>"]);
        let names: Vec<&str> = inferred.dtd.element_names().collect();
        assert_eq!(names, ["x", "y", "k"]);
    }
}

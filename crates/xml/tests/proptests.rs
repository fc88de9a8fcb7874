//! Property-based tests for the XML substrate.

use lsd_xml::{parse_fragment, write_element, ContentModel, Dtd, Element, ElementDecl, Occurrence};
use proptest::prelude::*;

/// A legal XML name.
fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}".prop_map(|s| s)
}

/// Text content without leading/trailing whitespace (the parser trims
/// whitespace-only runs, and pretty-printing normalizes edges).
fn arb_text() -> impl Strategy<Value = String> {
    "[ -~]{1,30}"
        .prop_map(|s| s.trim().to_string())
        .prop_filter("non-empty", |s| !s.is_empty())
}

/// An arbitrary element tree of bounded depth and fanout. Children are
/// either elements or non-whitespace text runs (no two adjacent text runs:
/// the parser merges them, so round-tripping requires that normal form).
fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (arb_name(), prop::option::of(arb_text())).prop_map(|(name, text)| match text {
        Some(t) => Element::text_leaf(name, t),
        None => Element::new(name),
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            arb_name(),
            prop::collection::vec(inner, 1..4),
            prop::collection::vec((arb_name(), arb_text()), 0..3),
        )
            .prop_map(|(name, children, attrs)| {
                let mut e = Element::new(name);
                for (n, v) in attrs {
                    // Attribute names must be unique per element.
                    if e.attribute(&n).is_none() {
                        e.attributes.push((n, v));
                    }
                }
                for c in children {
                    e.push_child(c);
                }
                e
            })
    })
}

proptest! {
    /// write → parse is the identity on normalized element trees.
    #[test]
    fn write_parse_roundtrip(e in arb_element()) {
        let text = write_element(&e);
        let parsed = parse_fragment(&text).expect("own output must parse");
        prop_assert_eq!(parsed, e);
    }

    /// Writing is deterministic and parsing it again is stable (idempotent
    /// normal form).
    #[test]
    fn write_is_stable(e in arb_element()) {
        let once = write_element(&e);
        let twice = write_element(&parse_fragment(&once).expect("parses"));
        prop_assert_eq!(once, twice);
    }

    /// Structural statistics are consistent: subtree size bounds depth and
    /// equals the number of elements a visit reaches.
    #[test]
    fn structural_invariants(e in arb_element()) {
        prop_assert!(e.depth() <= e.subtree_size());
        let mut visited = 0;
        e.visit(&mut |_| visited += 1);
        prop_assert_eq!(visited, e.subtree_size());
    }
}

/// A random content model over a fixed small alphabet, plus a generator of
/// conforming child sequences.
#[derive(Debug, Clone)]
enum ModelSpec {
    Name(usize, Occurrence),
    Seq(Vec<ModelSpec>, Occurrence),
    Choice(Vec<ModelSpec>, Occurrence),
}

const ALPHABET: [&str; 4] = ["a", "b", "c", "d"];

fn arb_occurrence() -> impl Strategy<Value = Occurrence> {
    prop_oneof![
        Just(Occurrence::One),
        Just(Occurrence::Optional),
        Just(Occurrence::ZeroOrMore),
        Just(Occurrence::OneOrMore),
    ]
}

fn arb_model() -> impl Strategy<Value = ModelSpec> {
    let leaf = (0usize..ALPHABET.len(), arb_occurrence()).prop_map(|(i, o)| ModelSpec::Name(i, o));
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (prop::collection::vec(inner.clone(), 1..4), arb_occurrence())
                .prop_map(|(parts, o)| ModelSpec::Seq(parts, o)),
            (prop::collection::vec(inner, 1..4), arb_occurrence())
                .prop_map(|(parts, o)| ModelSpec::Choice(parts, o)),
        ]
    })
}

impl ModelSpec {
    fn to_model(&self) -> ContentModel {
        match self {
            ModelSpec::Name(i, o) => ContentModel::Name(ALPHABET[*i].to_string(), *o),
            ModelSpec::Seq(parts, o) => {
                ContentModel::Seq(parts.iter().map(ModelSpec::to_model).collect(), *o)
            }
            ModelSpec::Choice(parts, o) => {
                ContentModel::Choice(parts.iter().map(ModelSpec::to_model).collect(), *o)
            }
        }
    }

    /// Emits one conforming child-name sequence, using `picks` as a stream
    /// of pseudo-random decisions.
    fn emit(&self, picks: &mut impl Iterator<Item = u8>, out: &mut Vec<&'static str>) {
        let occ = match self {
            ModelSpec::Name(_, o) | ModelSpec::Seq(_, o) | ModelSpec::Choice(_, o) => *o,
        };
        let reps = match occ {
            Occurrence::One => 1,
            Occurrence::Optional => (picks.next().unwrap_or(0) % 2) as usize,
            Occurrence::ZeroOrMore => (picks.next().unwrap_or(0) % 3) as usize,
            Occurrence::OneOrMore => 1 + (picks.next().unwrap_or(0) % 2) as usize,
        };
        for _ in 0..reps {
            match self {
                ModelSpec::Name(i, _) => out.push(ALPHABET[*i]),
                ModelSpec::Seq(parts, _) => {
                    for p in parts {
                        p.emit(picks, out);
                    }
                }
                ModelSpec::Choice(parts, _) => {
                    let k = picks.next().unwrap_or(0) as usize % parts.len();
                    parts[k].emit(picks, out);
                }
            }
        }
    }
}

proptest! {
    /// Every sequence generated *from* a content model validates *against*
    /// that model.
    #[test]
    fn conforming_sequences_validate(spec in arb_model(), picks in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut decls = vec![ElementDecl::new("root", spec.to_model())];
        for name in ALPHABET {
            decls.push(ElementDecl::new(name, ContentModel::Pcdata));
        }
        let dtd = Dtd::new(decls).expect("no duplicate names");

        let mut names = Vec::new();
        let mut stream = picks.into_iter();
        spec.emit(&mut stream, &mut names);
        // Keep the test tractable for pathological star nestings.
        prop_assume!(names.len() <= 64);

        let mut root = Element::new("root");
        for n in &names {
            root.push_child(Element::text_leaf(*n, "x"));
        }
        dtd.validate(&root).map_err(|e| {
            TestCaseError::fail(format!("{names:?} should match {}: {e}",
                dtd.decl("root").expect("declared root").content.to_dtd_syntax()))
        })?;
    }

    /// DTD syntax round-trips: after one parse pass (which canonicalizes
    /// redundant single-particle groups), render → parse → render is the
    /// identity.
    #[test]
    fn dtd_syntax_roundtrip(spec in arb_model()) {
        let decls = vec![ElementDecl::new("root", spec.to_model())];
        let dtd = Dtd::new(decls).expect("single decl");
        let canonical = lsd_xml::parse_dtd(&dtd.to_dtd_syntax()).expect("own syntax must parse");
        let rendered = canonical.to_dtd_syntax();
        let reparsed = lsd_xml::parse_dtd(&rendered).expect("canonical syntax must parse");
        prop_assert_eq!(reparsed.to_dtd_syntax(), rendered);
        prop_assert_eq!(reparsed, canonical);
    }
}

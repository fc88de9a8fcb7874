//! Property tests for the inference invariants: for datagen corpora and
//! for arbitrary child sequences the inferred DTD (a) accepts every
//! training instance and (b) passes the static schema lints with zero
//! errors, in particular the Glushkov 1-unambiguity check; (c) it is
//! stable, byte-identical regardless of instance order and
//! `LSD_THREADS`; (d) an element gets the catch-all exactly when no
//! linear order of its child names fits every observed sequence; and (e)
//! it is the DTD, with the same statistics, that the name-cloning
//! inference it replaced learned.

use lsd_datagen::DomainId;
use lsd_infer::{infer_dtd, InferenceStats};
use lsd_xml::{ContentModel, Dtd, Element, ElementDecl, Node, Occurrence};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

fn arb_domain() -> impl Strategy<Value = DomainId> {
    prop_oneof![
        Just(DomainId::RealEstate1),
        Just(DomainId::TimeSchedule),
        Just(DomainId::FacultyListings),
        Just(DomainId::RealEstate2),
    ]
}

/// The DTD-less corpora of one generated domain: each source's listings,
/// with the source DTD deliberately thrown away.
fn corpora(id: DomainId, listings: usize, seed: u64) -> Vec<Vec<Element>> {
    id.generate(listings, seed)
        .sources
        .into_iter()
        .map(|s| s.listings)
        .collect()
}

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

/// One instance over an alphabet of the first `alphabet` names: the root
/// is `a`, each child carries its own (possibly empty) child sequence of
/// leaves, so `a` may nest inside `a` one level deep. Raw indices are
/// folded into the alphabet, which makes repeats and interleavings
/// (`a b a`) common in small alphabets.
fn build(alphabet: usize, children: &[(usize, Vec<usize>)]) -> Element {
    let mut root = Element::new(NAMES[0]);
    for (child, grandchildren) in children {
        let mut element = Element::new(NAMES[child % alphabet]);
        for g in grandchildren {
            element.push_child(Element::new(NAMES[g % alphabet]));
        }
        root.push_child(element);
    }
    root
}

/// Every element name's observed child-name sequences.
fn sequences(corpus: &[Element]) -> BTreeMap<String, BTreeSet<Vec<String>>> {
    let mut seqs: BTreeMap<String, BTreeSet<Vec<String>>> = BTreeMap::new();
    for instance in corpus {
        instance.visit(&mut |e| {
            seqs.entry(e.name.clone())
                .or_default()
                .insert(e.child_elements().map(|c| c.name.clone()).collect());
        });
    }
    seqs
}

/// All orderings of `items`.
fn permutations(items: &[String]) -> Vec<Vec<String>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first.clone());
            out.push(tail);
        }
    }
    out
}

/// Whether some linear order of the names puts every sequence in
/// non-decreasing order, checked by brute force over all orderings.
fn some_order_fits(seqs: &BTreeSet<Vec<String>>) -> bool {
    let names: Vec<String> = seqs
        .iter()
        .flatten()
        .cloned()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    permutations(&names).iter().any(|order| {
        let rank = |n: &String| order.iter().position(|o| o == n);
        seqs.iter()
            .all(|seq| seq.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])))
    })
}

/// Whether two names occur in both orders somewhere in the corpus.
fn some_pair_in_both_orders(seqs: &BTreeSet<Vec<String>>) -> bool {
    let mut before = BTreeSet::new();
    for seq in seqs {
        for (i, a) in seq.iter().enumerate() {
            for b in &seq[i + 1..] {
                if a != b {
                    before.insert((a, b));
                }
            }
        }
    }
    before.iter().any(|&(a, b)| before.contains(&(b, a)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant (a): the inferred DTD accepts 100% of its training
    /// instances, and (b): it is clean under the static schema lints —
    /// in particular every content model passes the Glushkov
    /// 1-unambiguity check.
    #[test]
    fn inferred_dtds_accept_their_corpus_and_lint_clean(
        id in arb_domain(),
        listings in 1usize..8,
        seed in any::<u64>(),
    ) {
        for corpus in corpora(id, listings, seed) {
            let inferred = infer_dtd(&corpus).expect("non-empty corpus infers");
            for instance in &corpus {
                inferred.dtd.validate(instance).map_err(|e| {
                    TestCaseError::fail(format!("training instance rejected: {e}"))
                })?;
            }
            let diagnostics = lsd_analysis::analyze_dtd(&inferred.dtd);
            prop_assert!(
                !lsd_analysis::has_errors(&diagnostics),
                "inferred DTD has lint errors: {:?}",
                diagnostics
            );
            prop_assert_eq!(inferred.stats.corpus_size, corpus.len());
            prop_assert!(inferred.stats.elements > 0);
        }
    }

    /// Invariant (c): inference is a pure function of the corpus *set* —
    /// shuffling instance order yields a byte-identical DTD.
    #[test]
    fn inference_is_stable_under_instance_order(
        id in arb_domain(),
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        for corpus in corpora(id, 4, seed) {
            let reference = infer_dtd(&corpus).expect("infers").dtd.to_dtd_syntax();
            let mut shuffled = corpus.clone();
            shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));
            let reshuffled = infer_dtd(&shuffled).expect("infers").dtd.to_dtd_syntax();
            prop_assert_eq!(&reference, &reshuffled);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariants (a), (b) and (d) over arbitrary child sequences of 1–5
    /// names: repeats, interleavings, empty children and `a` inside `a`.
    #[test]
    fn arbitrary_child_sequences_infer_a_chain_or_the_catch_all(
        alphabet in 1usize..6,
        corpus in prop::collection::vec(
            prop::collection::vec((0usize..5, prop::collection::vec(0usize..5, 0..4)), 0..6),
            1..6,
        ),
    ) {
        let corpus: Vec<Element> = corpus.iter().map(|c| build(alphabet, c)).collect();
        let inferred = infer_dtd(&corpus).expect("non-empty corpus infers");
        for instance in &corpus {
            inferred.dtd.validate(instance).map_err(|e| {
                TestCaseError::fail(format!("training instance rejected: {e}"))
            })?;
        }
        let diagnostics = lsd_analysis::analyze_dtd(&inferred.dtd);
        prop_assert!(
            !lsd_analysis::has_errors(&diagnostics),
            "inferred DTD has lint errors: {:?}",
            diagnostics
        );

        let mut catch_alls = 0;
        for (name, seqs) in sequences(&corpus) {
            let content = &inferred.dtd.decl(&name).expect("every element declared").content;
            if seqs.iter().all(Vec::is_empty) {
                prop_assert_eq!(content, &ContentModel::Pcdata);
                continue;
            }
            let fits = some_order_fits(&seqs);
            // A single name always fits, so a catch-all is a choice.
            let is_catch_all = matches!(content, ContentModel::Choice(..));
            prop_assert_eq!(is_catch_all, !fits, "{}: {}", name, content.to_dtd_syntax());
            if some_pair_in_both_orders(&seqs) {
                prop_assert!(is_catch_all, "{}: {}", name, content.to_dtd_syntax());
            }
            catch_alls += usize::from(is_catch_all);
        }
        prop_assert_eq!(inferred.stats.fallbacks, catch_alls);
    }
}

/// Invariant (c), thread axis: `LSD_THREADS` (the knob that fans out the
/// matching engine) must not leak into inference. Inference is
/// single-threaded by construction; this pins that contract. Runs as one
/// sequential test because it mutates process environment.
#[test]
fn inference_is_stable_under_lsd_threads() {
    let corpus = &corpora(DomainId::RealEstate1, 5, 7)[0];
    let mut renderings = Vec::new();
    for threads in ["1", "4", "0"] {
        std::env::set_var("LSD_THREADS", threads);
        renderings.push(infer_dtd(corpus).expect("infers").dtd.to_dtd_syntax());
    }
    std::env::remove_var("LSD_THREADS");
    assert_eq!(renderings[0], renderings[1]);
    assert_eq!(renderings[1], renderings[2]);
}

/// The inference before it borrowed names and interned the alphabet, kept
/// as an oracle: every tag and attribute name cloned into `String`-keyed
/// ordered maps, `before` as a set of name pairs.
mod oracle {
    use super::*;

    #[derive(Default)]
    struct Facts {
        support: usize,
        seqs: BTreeSet<Vec<String>>,
        has_text: bool,
        attrs: BTreeSet<String>,
    }

    /// What the oracle learns from a corpus.
    pub(super) struct Learned {
        /// The DTD's element declarations, in declaration order.
        pub(super) decls: Vec<ElementDecl>,
        /// Per element with attributes, their names.
        pub(super) attlists: Vec<(String, Vec<String>)>,
        pub(super) stats: InferenceStats,
    }

    pub(super) fn infer(instances: &[Element]) -> Learned {
        let mut roots: BTreeSet<String> = BTreeSet::new();
        let mut facts: BTreeMap<String, Facts> = BTreeMap::new();
        for instance in instances {
            roots.insert(instance.name.clone());
            instance.visit(&mut |e| {
                let f = facts.entry(e.name.clone()).or_default();
                f.support += 1;
                f.seqs
                    .insert(e.child_elements().map(|c| c.name.clone()).collect());
                f.has_text |= !e.direct_text().is_empty();
                f.attrs.extend(e.attributes.iter().map(|(k, _)| k.clone()));
            });
        }
        let ordered: Vec<String> = roots
            .iter()
            .cloned()
            .chain(facts.keys().filter(|k| !roots.contains(*k)).cloned())
            .collect();
        let mut stats = InferenceStats {
            corpus_size: instances.len(),
            ..InferenceStats::default()
        };
        let mut decls = Vec::new();
        let mut attlists = Vec::new();
        for name in &ordered {
            let f = &facts[name];
            decls.push(ElementDecl::new(name.clone(), content(f, &mut stats)));
            if !f.attrs.is_empty() {
                attlists.push((name.clone(), f.attrs.iter().cloned().collect()));
            }
            stats.element_support.insert(name.clone(), f.support);
        }
        stats.elements = decls.len();
        Learned {
            decls,
            attlists,
            stats,
        }
    }

    fn content(f: &Facts, stats: &mut InferenceStats) -> ContentModel {
        let names: BTreeSet<&str> = f.seqs.iter().flatten().map(String::as_str).collect();
        if names.is_empty() {
            return ContentModel::Pcdata;
        }
        if f.has_text {
            return ContentModel::Mixed(names.iter().map(|n| n.to_string()).collect());
        }
        let Some(chain) = chare(&names, &f.seqs) else {
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

    fn chare<'a>(
        names: &BTreeSet<&'a str>,
        seqs: &'a BTreeSet<Vec<String>>,
    ) -> Option<Vec<(&'a str, Occurrence)>> {
        let mut bounds: BTreeMap<&str, (usize, usize)> =
            names.iter().map(|&n| (n, (usize::MAX, 0))).collect();
        let mut before: BTreeSet<(&'a str, &'a str)> = BTreeSet::new();
        for seq in seqs {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for name in seq {
                *counts.entry(name.as_str()).or_insert(0) += 1;
            }
            for (name, (min, max)) in &mut bounds {
                let c = counts.get(name).copied().unwrap_or(0);
                *min = (*min).min(c);
                *max = (*max).max(c);
            }
            for (i, a) in seq.iter().enumerate() {
                for b in &seq[i + 1..] {
                    if a != b {
                        before.insert((a.as_str(), b.as_str()));
                    }
                }
            }
        }
        let order = topo_sort(names, &before)?;
        Some(
            order
                .into_iter()
                .map(|name| {
                    let (min, max) = bounds[name];
                    let occ = match (min, max) {
                        (0, 1) => Occurrence::Optional,
                        (0, _) => Occurrence::ZeroOrMore,
                        (_, 1) => Occurrence::One,
                        _ => Occurrence::OneOrMore,
                    };
                    (name, occ)
                })
                .collect(),
        )
    }

    fn topo_sort<'a>(
        names: &BTreeSet<&'a str>,
        before: &BTreeSet<(&'a str, &'a str)>,
    ) -> Option<Vec<&'a str>> {
        let mut indegree: BTreeMap<&str, usize> = names.iter().map(|&n| (n, 0)).collect();
        for &(_, b) in before {
            *indegree.entry(b).or_insert(0) += 1;
        }
        let mut frontier: BTreeSet<&str> = indegree
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut order = Vec::with_capacity(names.len());
        while let Some(next) = frontier.pop_first() {
            order.push(next);
            for &(a, b) in before {
                if a == next {
                    let d = indegree.entry(b).or_insert(0);
                    *d -= 1;
                    if *d == 0 {
                        frontier.insert(b);
                    }
                }
            }
        }
        (order.len() == names.len()).then_some(order)
    }
}

/// A text run: empty, ASCII or Unicode whitespace only, or words among
/// whitespace.
fn arb_run() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ \t\n]{1,3}",
        Just("\u{a0}\u{2003}\u{3000}".to_string()),
        "[ \u{a0}]{0,2}[a-cé0-9]{1,4}[ \u{3000}]{0,2}",
    ]
}

/// An element over the names `a`–`e` (so names repeat, nest in
/// themselves and come in inconsistent orders), with attributes from a
/// small set and text runs mixed among its children.
fn arb_element() -> impl Strategy<Value = Element> {
    let name = || prop_oneof![Just("a"), Just("b"), Just("c"), Just("d"), Just("e")];
    let attrs = || prop::collection::vec(prop_oneof![Just("id"), Just("lang"), Just("ref")], 0..3);
    let with_attrs = |mut e: Element, attrs: Vec<&str>| {
        for a in attrs {
            e = e.with_attr(a, "v");
        }
        e
    };
    let leaf = (name(), attrs(), prop::collection::vec(arb_run(), 0..2)).prop_map(
        move |(name, attrs, runs)| {
            let mut e = with_attrs(Element::new(name), attrs);
            for run in runs {
                e.push_text(run);
            }
            e
        },
    );
    leaf.prop_recursive(3, 32, 5, move |inner| {
        let child = prop_oneof![
            arb_run().prop_map(Node::Text),
            inner.clone().prop_map(Node::Element),
            inner.prop_map(Node::Element),
        ];
        (name(), attrs(), prop::collection::vec(child, 0..6)).prop_map(
            move |(name, attrs, children)| {
                let mut e = with_attrs(Element::new(name), attrs);
                e.children = children;
                e
            },
        )
    })
}

/// Per element with attributes, their names: the oracle's shape of a
/// learned DTD's attribute lists.
fn attlists(dtd: &Dtd) -> Vec<(String, Vec<String>)> {
    dtd.attlists()
        .iter()
        .map(|list| {
            let names = list.attrs.iter().map(|a| a.name.clone()).collect();
            (list.element.clone(), names)
        })
        .collect()
}

/// Infers `corpus` both ways and requires the same DTD, attribute lists
/// and statistics.
fn assert_matches_oracle(corpus: &[Element]) -> Result<(), TestCaseError> {
    let inferred = infer_dtd(corpus).expect("non-empty corpus infers");
    let expected = oracle::infer(corpus);
    let expected_dtd = Dtd::new(expected.decls).expect("unique declarations");
    prop_assert_eq!(inferred.dtd.to_dtd_syntax(), expected_dtd.to_dtd_syntax());
    prop_assert_eq!(attlists(&inferred.dtd), expected.attlists);
    prop_assert_eq!(inferred.stats, expected.stats);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant (e): over arbitrary corpora (attributes, mixed and
    /// Unicode-whitespace text, repeated names, inconsistent orders,
    /// several roots) the borrowing inference learns the oracle's DTD,
    /// attribute lists and statistics.
    #[test]
    fn inference_matches_the_name_cloning_oracle(
        corpus in prop::collection::vec(arb_element(), 1..6),
    ) {
        assert_matches_oracle(&corpus)?;
    }

    /// Invariant (e) on the generated domains' corpora.
    #[test]
    fn domain_inference_matches_the_name_cloning_oracle(
        id in arb_domain(),
        listings in 1usize..8,
        seed in any::<u64>(),
    ) {
        for corpus in corpora(id, listings, seed) {
            assert_matches_oracle(&corpus)?;
        }
    }
}

//! Property tests for the inference invariants: for datagen corpora and
//! for arbitrary child sequences the inferred DTD (a) accepts every
//! training instance and (b) passes the static schema lints with zero
//! errors, in particular the Glushkov 1-unambiguity check; (c) it is
//! stable, byte-identical regardless of instance order and
//! `LSD_THREADS`; and (d) an element gets the catch-all exactly when no
//! linear order of its child names fits every observed sequence.

use lsd_datagen::DomainId;
use lsd_infer::infer_dtd;
use lsd_xml::{ContentModel, Element};
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

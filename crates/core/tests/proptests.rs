//! Property-based tests for the core pipeline's building blocks:
//! instance extraction, the learner combination and the converter.

use lsd_core::{combine_learners, convert_column, SourceData, SourceWalk};
use lsd_learn::Prediction;
use lsd_xml::{Element, Node};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// An arbitrary listing tree (bounded), with distinct-ish tag names.
fn arb_listing() -> impl Strategy<Value = Element> {
    let leaf =
        ("[a-z]{1,6}", "[a-z0-9 ]{0,12}").prop_map(|(name, text)| Element::text_leaf(name, text));
    leaf.prop_recursive(3, 20, 4, |inner| {
        ("[a-z]{1,6}", prop::collection::vec(inner, 1..4)).prop_map(|(name, children)| {
            let mut e = Element::new(name);
            for c in children {
                e.push_child(c);
            }
            e
        })
    })
}

/// One occurrence as the extraction before the walk owned it: the element
/// subtree and its root path, cloned.
#[derive(Clone)]
struct OwnedInstance {
    element: Element,
    path: Vec<String>,
}

/// The extraction the walk replaced, kept as an oracle: every occurrence
/// cloned, in stack-based depth-first order (last child first).
fn oracle_extract(listings: &[Element]) -> HashMap<String, Vec<OwnedInstance>> {
    let mut columns: HashMap<String, Vec<OwnedInstance>> = HashMap::new();
    for listing in listings {
        let mut stack: Vec<(Vec<String>, &Element)> = vec![(vec![listing.name.clone()], listing)];
        while let Some((path, element)) = stack.pop() {
            columns
                .entry(element.name.clone())
                .or_default()
                .push(OwnedInstance {
                    element: element.clone(),
                    path: path.clone(),
                });
            for child in element.child_elements() {
                let mut child_path = path.clone();
                child_path.push(child.name.clone());
                stack.push((child_path, child));
            }
        }
    }
    columns
}

/// The owned-column subsample the walk replaced: shuffle, then truncate.
fn oracle_subsample(instances: &mut Vec<OwnedInstance>, cap: usize, rng: &mut ChaCha8Rng) {
    if cap == 0 || instances.len() <= cap {
        return;
    }
    instances.shuffle(rng);
    instances.truncate(cap);
}

/// The `visit`-based constraint data the walk replaced.
fn oracle_source_data(tags: &[&str], listings: &[Element]) -> String {
    let mut rows: Vec<Vec<(String, String)>> = Vec::new();
    for listing in listings {
        let mut values: Vec<(String, String)> = Vec::new();
        listing.visit(&mut |e| {
            if e.is_leaf() {
                values.push((e.name.clone(), e.direct_text()));
            } else {
                values.push((e.name.clone(), e.deep_text()));
            }
        });
        rows.push(values);
    }
    let mut data = SourceData::new(tags.iter().copied());
    for values in &rows {
        data.push_row(values.iter().map(|(t, v)| (t.as_str(), v.as_str())));
    }
    serde_json::to_string(&data).expect("serializes")
}

/// A text run: empty, whitespace-only (ASCII and Unicode), or words with
/// surrounding whitespace.
fn arb_text_run() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ \t\n]{1,3}",
        Just("\u{a0}\u{3000}".to_string()),
        "[ \n]{0,2}[a-c0-9]{1,4}[ ,\t]{0,2}[a-c]{0,3}[ \n]{0,2}",
    ]
}

/// A listing tree over a four-tag alphabet, so tags repeat within and
/// across listings, with empty elements and text runs mixed between
/// child elements.
fn arb_mixed_listing() -> impl Strategy<Value = Element> {
    let tag = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].boxed();
    let leaf =
        (tag.clone(), prop::collection::vec(arb_text_run(), 0..3)).prop_map(|(name, runs)| {
            let mut e = Element::new(name);
            for run in runs {
                e.push_text(run);
            }
            e
        });
    leaf.prop_recursive(3, 24, 4, move |inner| {
        let child = prop_oneof![
            arb_text_run().prop_map(Node::Text),
            inner.clone().prop_map(Node::Element),
            inner.prop_map(Node::Element),
        ];
        (tag.clone(), prop::collection::vec(child, 0..5)).prop_map(|(name, children)| {
            let mut e = Element::new(name);
            e.children = children;
            e
        })
    })
}

proptest! {
    /// The walk's subsample-first extraction keeps exactly what cloning
    /// every occurrence and then shuffling the owned columns kept: the same
    /// elements, paths and texts, in the same order, for every cap and
    /// seed; and its constraint data has the same cells.
    #[test]
    fn walk_matches_extract_then_subsample(
        listings in prop::collection::vec(arb_mixed_listing(), 0..5),
        seed in 0u64..4,
    ) {
        let oracle = oracle_extract(&listings);
        let walk = SourceWalk::new(&listings);
        let longest = oracle.values().map(Vec::len).max().unwrap_or(0);
        // "e" never occurs: an empty column makes no draws on either side.
        let tags = ["a", "b", "c", "d", "e"];
        for cap in [0, 1, 3, longest, longest + 1] {
            let mut old_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut new_rng = ChaCha8Rng::seed_from_u64(seed);
            for tag in tags {
                let mut old = oracle.get(tag).cloned().unwrap_or_default();
                oracle_subsample(&mut old, cap, &mut old_rng);
                let kept = walk.sample(tag, cap, &mut new_rng);
                prop_assert_eq!(kept.len(), old.len(), "tag {} cap {}", tag, cap);
                for (&id, old) in kept.iter().zip(&old) {
                    let new = walk.instance(id);
                    prop_assert_eq!(new.element, &old.element);
                    prop_assert_eq!(new.path, old.path.as_slice());
                    let old_text = old.element.deep_text();
                    prop_assert_eq!(walk.text(id), old_text.as_str());
                    prop_assert_eq!(new.text, old_text.as_str());
                }
            }
        }
        // Every full column, in order, agrees with the oracle too.
        prop_assert_eq!(walk.tags().count(), oracle.len());
        for (tag, old) in &oracle {
            let column = walk.column(tag);
            prop_assert_eq!(column.len(), old.len());
            for (&id, old) in column.iter().zip(old) {
                let new = walk.instance(id);
                prop_assert_eq!(new.element, &old.element);
                prop_assert_eq!(new.path, old.path.as_slice());
            }
        }
        let cells = serde_json::to_string(&walk.source_data(tags)).expect("serializes");
        prop_assert_eq!(cells, oracle_source_data(&tags, &listings));
    }

    /// Extraction is exhaustive and faithful: each element occurrence of
    /// each listing appears in exactly one column, paths start at the
    /// listing root and end at the instance's own tag.
    #[test]
    fn extraction_covers_every_element(listings in prop::collection::vec(arb_listing(), 1..5)) {
        let walk = SourceWalk::new(&listings);
        let extracted: usize = walk.tags().map(|tag| walk.column(tag).len()).sum();
        let expected: usize = listings.iter().map(Element::subtree_size).sum();
        prop_assert_eq!(extracted, expected);
        let roots: std::collections::HashSet<&str> =
            listings.iter().map(|l| l.name.as_str()).collect();
        for tag in walk.tags() {
            for &id in walk.column(tag) {
                let instance = walk.instance(id);
                prop_assert_eq!(instance.element.name.as_str(), tag);
                prop_assert_eq!(instance.path.last().copied(), Some(tag));
                prop_assert!(roots.contains(instance.path[0]));
            }
        }
    }

    /// The equal-weight combination is a distribution for full learner
    /// sets and subsets alike, and a subset scores like the same learners
    /// combined on their own.
    #[test]
    fn learner_combination_is_distribution(
        scores in prop::collection::vec(prop::collection::vec(0.01f64..1.0, 4), 3),
    ) {
        let preds: Vec<Prediction> =
            scores.into_iter().map(Prediction::from_scores).collect();
        let combined = combine_learners(&preds, 3, 4);
        prop_assert!((combined.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let subset = combine_learners(&preds[..2], 3, 4);
        prop_assert!((subset.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let pair = combine_learners(&preds[..2], 2, 4);
        for l in 0..4 {
            prop_assert!((subset.score(l) - pair.score(l)).abs() < 1e-9);
        }
    }

    /// The converter returns a distribution and agrees with the
    /// single-instance identity.
    #[test]
    fn converter_is_well_behaved(
        column in prop::collection::vec(prop::collection::vec(0.01f64..1.0, 5), 1..8),
    ) {
        let preds: Vec<Prediction> =
            column.into_iter().map(Prediction::from_scores).collect();
        let out = convert_column(&preds, 5);
        prop_assert!((out.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        if preds.len() == 1 {
            for l in 0..5 {
                prop_assert!((out.score(l) - preds[0].score(l)).abs() < 1e-9);
            }
        }
    }
}

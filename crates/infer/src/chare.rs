//! The chain: a CHARE of single names with occurrence factors.
//!
//! A chain `a₁ᵒ¹, a₂ᵒ², …` lists each observed child name once, with an
//! occurrence factor taken from its per-parent minimum and maximum count.
//! Such a chain exists exactly when the corpus orders the names
//! consistently, that is when some linear order of the names agrees with
//! every sequence. Consistency forces the occurrences of each name to be
//! contiguous within a sequence (anything between two runs of `a` would
//! have to be both before and after `a`), so the chain accepts every
//! training sequence by construction, and being single-occurrence it is
//! 1-unambiguous for free.

use lsd_xml::Occurrence;
use std::collections::{BTreeMap, BTreeSet};

/// The chain over a non-empty alphabet, in Kahn order with lexicographic
/// ties. `None` when no linear order agrees with every sequence (two
/// names in both orders, interleaved repeats, or a longer cycle); the
/// caller then uses the catch-all `(a | b | …)*`.
pub(crate) fn chare<'a>(
    names: &BTreeSet<&'a str>,
    seqs: &'a BTreeSet<Vec<String>>,
) -> Option<Vec<(&'a str, Occurrence)>> {
    // Per-name (min, max) occurrences over all sequences (0 when absent).
    let mut bounds: BTreeMap<&str, (usize, usize)> =
        names.iter().map(|&n| (n, (usize::MAX, 0))).collect();
    // `a` observed (somewhere) before `b`.
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
                (name, occurrence(min, max))
            })
            .collect(),
    )
}

/// Kahn's algorithm with a lexicographic frontier, so ties between names
/// that never co-occur are broken deterministically. `None` on a cycle,
/// a 2-cycle (two names seen in both orders) included.
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

/// Maps observed per-sequence bounds to a DTD occurrence factor.
fn occurrence(min: usize, max: usize) -> Occurrence {
    match (min, max) {
        (0, 1) => Occurrence::Optional,
        (0, _) => Occurrence::ZeroOrMore,
        (_, 1) => Occurrence::One,
        _ => Occurrence::OneOrMore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::ContentModel;

    fn render(rows: &[&[&str]]) -> Option<String> {
        let seqs: BTreeSet<Vec<String>> = rows
            .iter()
            .map(|row| row.iter().map(|s| s.to_string()).collect())
            .collect();
        let names: BTreeSet<&str> = seqs.iter().flatten().map(String::as_str).collect();
        chare(&names, &seqs).map(|chain| {
            chain
                .iter()
                .map(|&(name, occ)| ContentModel::Name(name.to_string(), occ).to_dtd_syntax())
                .collect::<Vec<_>>()
                .join(", ")
        })
    }

    #[test]
    fn consistent_order_yields_a_chain() {
        assert_eq!(
            render(&[&["a", "b", "b", "c"], &["a", "c"], &["a", "b", "c"]]).as_deref(),
            Some("a, b*, c")
        );
    }

    #[test]
    fn names_that_never_cooccur_are_ordered_lexicographically() {
        assert_eq!(render(&[&["b"], &["a"]]).as_deref(), Some("a?, b?"));
    }

    #[test]
    fn inconsistent_order_is_rejected() {
        assert_eq!(render(&[&["a", "b"], &["b", "a"]]), None);
        // Interleaved repeats imply a 2-cycle through the interleaver.
        assert_eq!(render(&[&["a", "b", "a"]]), None);
        // No pair in both orders, but no linear order either.
        assert_eq!(render(&[&["a", "b"], &["b", "c"], &["c", "a"]]), None);
    }

    #[test]
    fn repeated_single_name_gets_a_plus() {
        assert_eq!(render(&[&["a", "a"], &["a"]]).as_deref(), Some("a+"));
    }
}

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
use std::collections::BTreeSet;

/// The chain over a non-empty alphabet, in Kahn order with lexicographic
/// ties. `None` when no linear order agrees with every sequence (two
/// names in both orders, interleaved repeats, or a longer cycle); the
/// caller then uses the catch-all `(a | b | …)*`.
pub(crate) fn chare<'a>(
    names: &BTreeSet<&'a str>,
    seqs: &BTreeSet<Vec<&'a str>>,
) -> Option<Vec<(&'a str, Occurrence)>> {
    // The alphabet, interned in lexicographic order, so that id order is
    // name order.
    let alphabet: Vec<&'a str> = names.iter().copied().collect();
    let n = alphabet.len();
    // Per name, its (min, max) occurrences over all sequences (0 when
    // absent).
    let mut bounds = vec![(usize::MAX, 0usize); n];
    // `before[a * n + b]`: `a` observed (somewhere) before `b`.
    let mut before = vec![false; n * n];
    let mut counts = vec![0usize; n];
    // The distinct names of the sequence so far, in order of appearance.
    let mut seen: Vec<usize> = Vec::new();

    for seq in seqs {
        counts.fill(0);
        seen.clear();
        for name in seq {
            let b = alphabet
                .binary_search(name)
                .expect("every sequence name is in the alphabet");
            if counts[b] == 0 {
                seen.push(b);
            }
            counts[b] += 1;
            for &a in &seen {
                if a != b {
                    before[a * n + b] = true;
                }
            }
        }
        for ((min, max), &c) in bounds.iter_mut().zip(&counts) {
            *min = (*min).min(c);
            *max = (*max).max(c);
        }
    }

    let order = topo_sort(n, &before)?;
    Some(
        order
            .into_iter()
            .map(|a| {
                let (min, max) = bounds[a];
                (alphabet[a], occurrence(min, max))
            })
            .collect(),
    )
}

/// Kahn's algorithm over the `n × n` precedence matrix, with the smallest
/// id (the lexicographically first name) taken first, so ties between
/// names that never co-occur are broken deterministically. `None` on a
/// cycle, a 2-cycle (two names seen in both orders) included.
fn topo_sort(n: usize, before: &[bool]) -> Option<Vec<usize>> {
    let mut indegree: Vec<usize> = (0..n)
        .map(|b| (0..n).filter(|&a| before[a * n + b]).count())
        .collect();
    let mut frontier: BTreeSet<usize> = (0..n).filter(|&b| indegree[b] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(next) = frontier.pop_first() {
        order.push(next);
        for b in 0..n {
            if before[next * n + b] {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    frontier.insert(b);
                }
            }
        }
    }
    (order.len() == n).then_some(order)
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
        let seqs: BTreeSet<Vec<&str>> = rows.iter().map(|row| row.to_vec()).collect();
        let names: BTreeSet<&str> = seqs.iter().flatten().copied().collect();
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

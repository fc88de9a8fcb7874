//! 1-unambiguity checking of DTD content models via Glushkov automata.
//!
//! XML DTDs require *deterministic* (1-unambiguous) content models: while
//! reading a child sequence left to right, the next child name must always
//! determine a unique position in the regular expression without lookahead
//! (Brüggemann-Klein & Wood). The classic counterexample is
//! `((a, b) | (a, c))` — on seeing `a` the parser cannot tell which branch
//! it is in.
//!
//! The check is the textbook one: number every element-name occurrence in
//! the model (its *positions*), compute the Glushkov `first` and `follow`
//! sets, and flag the model if two **distinct** positions carrying the
//! **same** name appear together in `first` or in any `follow(p)` — exactly
//! the condition under which the Glushkov automaton is nondeterministic.
//!
//! The construction itself is exposed as [`GlushkovAutomaton`], with its
//! position, first, last and follow sets.

use lsd_xml::{ContentModel, Occurrence};
use std::collections::BTreeSet;

/// Why a content model is not 1-unambiguous: the name two positions share,
/// and (when the collision is in a follow set rather than the first set)
/// the name after which the two positions compete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ambiguity {
    /// The element name that two distinct positions both match.
    pub symbol: String,
    /// `None` — both positions can start the content; `Some(prev)` — both
    /// can follow an occurrence of `prev`.
    pub after: Option<String>,
}

impl Ambiguity {
    /// Human-readable explanation for a diagnostic note.
    pub fn describe(&self) -> String {
        match &self.after {
            None => format!(
                "two different occurrences of `{}` can both match the first child",
                self.symbol
            ),
            Some(prev) => format!(
                "after reading `{prev}`, two different occurrences of `{}` can both match \
                 the next child",
                self.symbol
            ),
        }
    }
}

/// The Glushkov (position) automaton of a content model.
///
/// Every element-name occurrence in the model is a *position*; the
/// automaton records, for each position, which positions may follow it,
/// which positions may start the content, which may end it, and whether
/// the empty child sequence is accepted. This is the substrate of the
/// 1-unambiguity lint ([`check_one_unambiguous`]).
#[derive(Debug, Clone)]
pub struct GlushkovAutomaton {
    /// `symbols[p]` — the element name at position `p`.
    pub symbols: Vec<String>,
    /// `follow[p]` — positions that may come immediately after `p`.
    pub follow: Vec<BTreeSet<usize>>,
    /// Positions that may match the first child.
    pub first: BTreeSet<usize>,
    /// Positions that may match the last child.
    pub last: BTreeSet<usize>,
    /// Whether the model accepts an empty child sequence.
    pub nullable: bool,
}

impl GlushkovAutomaton {
    /// Builds the position automaton of `model`.
    pub fn from_model(model: &ContentModel) -> GlushkovAutomaton {
        let mut b = Builder {
            symbols: Vec::new(),
            follow: Vec::new(),
        };
        let term = b.build(model);
        GlushkovAutomaton {
            symbols: b.symbols,
            follow: b.follow,
            first: term.first.iter().copied().collect(),
            last: term.last.iter().copied().collect(),
            nullable: term.nullable,
        }
    }

    /// Returns a witness if the underlying model is not 1-unambiguous:
    /// two distinct positions with the same name in `first` or in some
    /// `follow(p)`. `None` means the model is deterministic.
    pub fn ambiguity(&self) -> Option<Ambiguity> {
        if let Some(symbol) = self.collision(self.first.iter().copied()) {
            return Some(Ambiguity {
                symbol,
                after: None,
            });
        }
        for p in 0..self.symbols.len() {
            if let Some(symbol) = self.collision(self.follow[p].iter().copied()) {
                return Some(Ambiguity {
                    symbol,
                    after: Some(self.symbols[p].clone()),
                });
            }
        }
        None
    }

    /// Two distinct positions with the same symbol in `set`?
    fn collision(&self, set: impl IntoIterator<Item = usize>) -> Option<String> {
        let mut seen: Vec<usize> = Vec::new();
        for p in set {
            if seen
                .iter()
                .any(|&q| q != p && self.symbols[q] == self.symbols[p])
            {
                return Some(self.symbols[p].clone());
            }
            if !seen.contains(&p) {
                seen.push(p);
            }
        }
        None
    }
}

/// The nullable/first/last summary of a subexpression, over position ids.
struct Term {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

/// Accumulates positions (one per name occurrence) and their follow sets.
struct Builder {
    symbols: Vec<String>,
    follow: Vec<BTreeSet<usize>>,
}

impl Builder {
    fn position(&mut self, name: &str) -> usize {
        self.symbols.push(name.to_string());
        self.follow.push(BTreeSet::new());
        self.symbols.len() - 1
    }

    fn link(&mut self, from: &[usize], to: &[usize]) {
        for &f in from {
            self.follow[f].extend(to.iter().copied());
        }
    }

    /// Applies an occurrence suffix to a built subexpression: `?` and `*`
    /// make it nullable; `*` and `+` loop its last positions back to its
    /// first positions.
    fn apply_occurrence(&mut self, mut term: Term, occ: Occurrence) -> Term {
        match occ {
            Occurrence::One => {}
            Occurrence::Optional => term.nullable = true,
            Occurrence::ZeroOrMore => {
                term.nullable = true;
                let (last, first) = (term.last.clone(), term.first.clone());
                self.link(&last, &first);
            }
            Occurrence::OneOrMore => {
                let (last, first) = (term.last.clone(), term.first.clone());
                self.link(&last, &first);
            }
        }
        term
    }

    fn build(&mut self, model: &ContentModel) -> Term {
        match model {
            // No positions: trivially deterministic, never part of a
            // composite model.
            ContentModel::Empty | ContentModel::Any | ContentModel::Pcdata => Term {
                nullable: true,
                first: Vec::new(),
                last: Vec::new(),
            },
            // `(#PCDATA | a | b)*` is `(a | b)*` over element positions.
            ContentModel::Mixed(names) => {
                let positions: Vec<usize> = names.iter().map(|n| self.position(n)).collect();
                let term = Term {
                    nullable: true,
                    first: positions.clone(),
                    last: positions,
                };
                self.apply_occurrence(term, Occurrence::ZeroOrMore)
            }
            ContentModel::Name(name, occ) => {
                let p = self.position(name);
                let term = Term {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                };
                self.apply_occurrence(term, *occ)
            }
            ContentModel::Seq(parts, occ) => {
                let mut acc = Term {
                    nullable: true,
                    first: Vec::new(),
                    last: Vec::new(),
                };
                for part in parts {
                    let next = self.build(part);
                    self.link(&acc.last, &next.first);
                    if acc.nullable {
                        acc.first.extend(&next.first);
                    }
                    if next.nullable {
                        acc.last.extend(next.last.iter().copied());
                    } else {
                        acc.last = next.last;
                    }
                    acc.nullable &= next.nullable;
                }
                self.apply_occurrence(acc, *occ)
            }
            ContentModel::Choice(parts, occ) => {
                let mut acc = Term {
                    nullable: false,
                    first: Vec::new(),
                    last: Vec::new(),
                };
                for part in parts {
                    let t = self.build(part);
                    acc.nullable |= t.nullable;
                    acc.first.extend(t.first);
                    acc.last.extend(t.last);
                }
                self.apply_occurrence(acc, *occ)
            }
        }
    }
}

/// Checks one content model for 1-unambiguity. Returns `None` when the
/// model is deterministic, or a witness [`Ambiguity`] otherwise.
pub fn check_one_unambiguous(model: &ContentModel) -> Option<Ambiguity> {
    GlushkovAutomaton::from_model(model).ambiguity()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_model(spec: &str) -> ContentModel {
        let dtd = lsd_xml::parse_dtd(&format!("<!ELEMENT root {spec}>")).expect("test DTD parses");
        dtd.decl("root").expect("root declared").content.clone()
    }

    #[test]
    fn simple_models_are_unambiguous() {
        for spec in [
            "(a, b)",
            "(a | b)",
            "(a?, b)",
            "(a, b, c)*",
            "((a | b), c)+",
            "(a+, b?)",
            "(#PCDATA)",
            "EMPTY",
            "ANY",
            "(#PCDATA | a | b)*",
        ] {
            assert_eq!(check_one_unambiguous(&parse_model(spec)), None, "{spec}");
        }
    }

    #[test]
    fn common_prefix_choice_is_ambiguous_at_first() {
        let a = check_one_unambiguous(&parse_model("((a, b) | (a, c))")).expect("ambiguous");
        assert_eq!(a.symbol, "a");
        assert_eq!(a.after, None);
        assert!(a.describe().contains("first child"));
    }

    #[test]
    fn optional_then_same_name_is_ambiguous() {
        let a = check_one_unambiguous(&parse_model("(a?, a)")).expect("ambiguous");
        assert_eq!(a.symbol, "a");
        assert_eq!(a.after, None);
    }

    #[test]
    fn star_loop_followed_by_same_name_is_ambiguous() {
        // `(a, b)*` is nullable, so both `a` occurrences can also start the
        // content — the collision already shows in the first set.
        let a = check_one_unambiguous(&parse_model("((a, b)*, a?)")).expect("ambiguous");
        assert_eq!(a.symbol, "a");
    }

    #[test]
    fn plus_loop_followed_by_same_name_is_ambiguous_in_follow() {
        // `(a, b)+` is not nullable, so the first set is unambiguous; the
        // collision is only visible after reading `b`, where the loop can
        // restart with `a` or the trailing `a?` can match.
        let a = check_one_unambiguous(&parse_model("((a, b)+, a?)")).expect("ambiguous");
        assert_eq!(a.symbol, "a");
        assert_eq!(a.after.as_deref(), Some("b"));
        assert!(a.describe().contains("after reading `b`"));
    }

    #[test]
    fn duplicate_mixed_names_are_ambiguous() {
        let model = ContentModel::Mixed(vec!["a".into(), "b".into(), "a".into()]);
        let a = check_one_unambiguous(&model).expect("ambiguous");
        assert_eq!(a.symbol, "a");
    }

    #[test]
    fn star_of_choice_with_distinct_names_is_fine() {
        assert_eq!(check_one_unambiguous(&parse_model("(a | b | c)*")), None);
    }

    #[test]
    fn repeated_name_across_branches_of_star_is_ambiguous() {
        // After `a`, the loop can restart with `a` (position 1) or continue
        // with `a` (position 2): ((a)*, a) is ambiguous.
        let a = check_one_unambiguous(&parse_model("(a*, a)")).expect("ambiguous");
        assert_eq!(a.symbol, "a");
    }

    #[test]
    fn automaton_positions_follow_the_model() {
        // Positions: a=0, b=1, c=2, d=3.
        let auto = GlushkovAutomaton::from_model(&parse_model("(a, b*, (c | d))"));
        assert_eq!(auto.symbols, ["a", "b", "c", "d"]);
        assert_eq!(auto.first, BTreeSet::from([0]));
        assert_eq!(auto.follow[0], BTreeSet::from([1, 2, 3]));
        assert_eq!(auto.follow[1], BTreeSet::from([1, 2, 3]));
        assert_eq!(auto.last, BTreeSet::from([2, 3]));
        assert!(!auto.nullable);

        let nullable = GlushkovAutomaton::from_model(&parse_model("(a | b)*"));
        assert!(nullable.nullable);
        assert_eq!(nullable.follow[0], BTreeSet::from([0, 1]));
    }
}

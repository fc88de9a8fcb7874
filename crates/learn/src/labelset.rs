//! The label universe: mediated-schema tags plus the reserved OTHER label.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The classification labels: the mediated-schema tag names `c₁ … cₙ` plus
/// the unique reserved label `OTHER`, assigned when no mediated tag matches
/// a source tag (paper Section 2.2).
///
/// Labels are addressed by dense `usize` indices. `OTHER` is always the
/// *last* index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "Vec<String>", into = "Vec<String>")]
pub struct LabelSet {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl From<Vec<String>> for LabelSet {
    /// Rebuilds the index from a serialized name list (which already ends
    /// with `OTHER`).
    fn from(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        LabelSet { names, index }
    }
}

impl From<LabelSet> for Vec<String> {
    fn from(ls: LabelSet) -> Self {
        ls.names
    }
}

impl LabelSet {
    /// The reserved name of the no-match label.
    pub const OTHER: &'static str = "OTHER";

    /// Builds a label set from mediated-schema tag names, appending `OTHER`.
    /// Duplicate names and an explicit `OTHER` entry are rejected with a
    /// panic (they indicate a malformed mediated schema).
    pub fn new<I, S>(mediated_tags: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut names: Vec<String> = mediated_tags.into_iter().map(Into::into).collect();
        assert!(
            !names.iter().any(|n| n == Self::OTHER),
            "mediated schema must not declare a tag named OTHER"
        );
        names.push(Self::OTHER.to_string());
        let index: HashMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        assert_eq!(
            index.len(),
            names.len(),
            "duplicate mediated-schema tag names"
        );
        LabelSet { names, index }
    }

    /// Total number of labels, including `OTHER`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false: a label set has at least the `OTHER` label.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The index of the `OTHER` label (always the last one).
    pub fn other(&self) -> usize {
        self.names.len() - 1
    }

    /// Looks up a label index by name.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The name of a label index.
    pub fn name(&self, label: usize) -> &str {
        &self.names[label]
    }

    /// All label names in index order (`OTHER` last).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_appended_last() {
        let ls = LabelSet::new(["ADDRESS", "DESCRIPTION", "AGENT-PHONE"]);
        assert_eq!(ls.len(), 4);
        assert_eq!(ls.other(), 3);
        assert_eq!(ls.name(3), "OTHER");
    }

    #[test]
    fn lookup_roundtrips() {
        let ls = LabelSet::new(["A", "B"]);
        for (i, n) in ls.names().enumerate().collect::<Vec<_>>() {
            assert_eq!(ls.get(n), Some(i));
        }
        assert_eq!(ls.get("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_rejected() {
        LabelSet::new(["A", "A"]);
    }

    #[test]
    #[should_panic(expected = "OTHER")]
    fn explicit_other_rejected() {
        LabelSet::new(["A", "OTHER"]);
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let ls = LabelSet::new(["A", "B"]);
        let json = serde_json::to_string(&ls).unwrap();
        let back: LabelSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ls);
        assert_eq!(back.get("B"), Some(1));
    }
}

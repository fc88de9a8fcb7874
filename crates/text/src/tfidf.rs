//! TF/IDF vector space with cosine similarity.
//!
//! WHIRL (Cohen & Hirsh), which the paper's Name and Content matchers use,
//! represents each text fragment as a TF/IDF-weighted term vector and
//! measures similarity by the cosine of the angle between vectors. We use
//! the standard log-scaled variant: `tf = 1 + ln(count)`,
//! `idf = ln(N / df)`, weights L2-normalized per document.

use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;

/// Interns token strings to dense `u32` ids: the ids are always
/// `0..len()`, each token's id its interning order.
#[derive(Debug, Clone, Default, Deserialize)]
#[serde(from = "StoredVocabulary")]
pub struct Vocabulary {
    ids: HashMap<String, u32>,
}

/// The serialized shape of [`Vocabulary`]: `ids` (keys sorted) and
/// `tokens` in id order. Loading rebuilds the ids from `tokens` alone.
#[derive(Deserialize)]
struct StoredVocabulary {
    tokens: Vec<String>,
}

impl From<StoredVocabulary> for Vocabulary {
    /// Interns the tokens in order, so a hand-edited snapshot with a
    /// repeated token still gives dense ids.
    fn from(stored: StoredVocabulary) -> Self {
        let mut ids = HashMap::with_capacity(stored.tokens.len());
        for token in stored.tokens {
            let next = ids.len() as u32;
            ids.entry(token).or_insert(next);
        }
        Vocabulary { ids }
    }
}

impl Serialize for Vocabulary {
    /// Writes `tokens` in id order from `ids`, the one copy of each token
    /// the vocabulary keeps.
    fn to_value(&self) -> Value {
        let mut tokens = vec![""; self.ids.len()];
        for (token, &id) in &self.ids {
            tokens[id as usize] = token;
        }
        Value::Map(vec![
            ("ids".to_string(), self.ids.to_value()),
            ("tokens".to_string(), tokens.to_value()),
        ])
    }
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `token`, interning it if new.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(token.to_string(), id);
        id
    }

    /// Returns the id for `token` if already interned.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no tokens have been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A sparse vector: sorted `(dimension, weight)` pairs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Builds a vector from unsorted `(dim, weight)` pairs, summing
    /// duplicate dimensions.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(d, _)| d);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (d, w) in pairs {
            match entries.last_mut() {
                Some((ld, lw)) if *ld == d => *lw += w,
                _ => entries.push((d, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        SparseVector { entries }
    }

    /// The sorted `(dim, weight)` entries.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// The L2 norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Scales the vector to unit L2 norm (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for (_, w) in &mut self.entries {
                *w /= n;
            }
        }
    }

    /// Dot product with another sparse vector (merge join over sorted dims).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut sum = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            let (da, wa) = self.entries[i];
            let (db, wb) = other.entries[j];
            match da.cmp(&db) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Cosine similarity in `[0, 1]` for non-negative weights.
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            (self.dot(other) / denom).clamp(-1.0, 1.0)
        }
    }
}

/// A fitted TF/IDF model: vocabulary plus per-token document frequencies.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TfIdfModel {
    vocab: Vocabulary,
    doc_freq: Vec<u32>,
    num_docs: u32,
}

impl TfIdfModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document's tokens to the corpus statistics and returns the
    /// interned token ids (with duplicates, in input order).
    pub fn add_document<'a>(&mut self, tokens: impl IntoIterator<Item = &'a str>) -> Vec<u32> {
        let ids: Vec<u32> = tokens.into_iter().map(|t| self.vocab.intern(t)).collect();
        let mut seen: Vec<u32> = ids.clone();
        seen.sort_unstable();
        seen.dedup();
        if self.doc_freq.len() < self.vocab.len() {
            self.doc_freq.resize(self.vocab.len(), 0);
        }
        for id in seen {
            self.doc_freq[id as usize] += 1;
        }
        self.num_docs += 1;
        ids
    }

    /// Number of documents added.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// The vocabulary (for inspection/debugging).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// IDF of a token id: `ln((1 + N) / (1 + df))`, smoothed so unseen
    /// tokens still receive the maximum weight instead of a division by zero.
    pub fn idf(&self, id: u32) -> f64 {
        let df = self.doc_freq.get(id as usize).copied().unwrap_or(0);
        ((1.0 + f64::from(self.num_docs)) / (1.0 + f64::from(df))).ln()
    }

    /// Builds the L2-normalized TF/IDF vector for a token-id multiset.
    pub fn vector_for_ids(&self, ids: &[u32]) -> SparseVector {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &id in ids {
            *counts.entry(id).or_insert(0) += 1;
        }
        let mut v = SparseVector::from_pairs(
            counts
                .into_iter()
                .map(|(id, c)| (id, (1.0 + f64::from(c).ln()) * self.idf(id)))
                .collect(),
        );
        v.normalize();
        v
    }

    /// Builds the vector for raw tokens; tokens outside the vocabulary are
    /// dropped (they carry no comparable weight).
    pub fn vector_for_tokens<'a>(&self, tokens: impl IntoIterator<Item = &'a str>) -> SparseVector {
        let ids: Vec<u32> = tokens
            .into_iter()
            .filter_map(|t| self.vocab.get(t))
            .collect();
        self.vector_for_ids(&ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_interns_stably() {
        let mut v = Vocabulary::new();
        let a = v.intern("price");
        let b = v.intern("phone");
        assert_ne!(a, b);
        assert_eq!(v.intern("price"), a);
        assert_eq!(v.get("phone"), Some(b));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn vocabulary_keeps_its_stored_shape() {
        let mut v = Vocabulary::new();
        for token in ["price", "phone", "agent"] {
            v.intern(token);
        }
        let text = serde_json::to_string(&v).expect("serializes");
        assert_eq!(
            text,
            r#"{"ids":{"agent":2,"phone":1,"price":0},"tokens":["price","phone","agent"]}"#
        );
        let back: Vocabulary = serde_json::from_str(&text).expect("loads");
        assert_eq!((back.get("agent"), back.len()), (Some(2), 3));
        // A repeated token keeps its first id, so ids stay dense.
        let edited: Vocabulary =
            serde_json::from_str(r#"{"ids":{},"tokens":["a","b","a","c"]}"#).expect("loads");
        assert_eq!((edited.get("c"), edited.len()), (Some(2), 3));
    }

    #[test]
    fn sparse_vector_merges_duplicates() {
        let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 4.0)]);
        assert_eq!(v.entries(), &[(1, 2.0), (3, 5.0)]);
    }

    #[test]
    fn dot_product_merge_join() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = SparseVector::from_pairs(vec![(2, 4.0), (5, 1.0), (9, 7.0)]);
        assert_eq!(a.dot(&b), 2.0 * 4.0 + 3.0);
    }

    #[test]
    fn cosine_identity_and_orthogonality() {
        let a = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        let b = SparseVector::from_pairs(vec![(2, 1.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&SparseVector::default()), 0.0);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        let mut zero = SparseVector::default();
        zero.normalize(); // must not panic
        assert!(zero.entries().is_empty());
    }

    #[test]
    fn idf_weights_rare_tokens_higher() {
        let mut m = TfIdfModel::new();
        m.add_document(["house", "great"].iter().copied());
        m.add_document(["house", "fantastic"].iter().copied());
        m.add_document(["house", "great"].iter().copied());
        let house = m.vocabulary().get("house").unwrap();
        let fantastic = m.vocabulary().get("fantastic").unwrap();
        assert!(m.idf(fantastic) > m.idf(house));
    }

    #[test]
    fn vectors_of_similar_docs_are_closer() {
        let mut m = TfIdfModel::new();
        let docs = [
            vec!["great", "location", "nice", "view"],
            vec!["fantastic", "house", "great", "yard"],
            vec!["206", "523", "4719"],
        ];
        for d in &docs {
            m.add_document(d.iter().copied());
        }
        let desc = m.vector_for_tokens(["great", "nice", "house"].iter().copied());
        let desc2 = m.vector_for_tokens(["great", "view"].iter().copied());
        let phone = m.vector_for_tokens(["206", "4719"].iter().copied());
        assert!(desc.cosine(&desc2) > desc.cosine(&phone));
    }

    #[test]
    fn unknown_tokens_are_dropped() {
        let mut m = TfIdfModel::new();
        m.add_document(["a", "b"].iter().copied());
        let v = m.vector_for_tokens(["zzz", "qqq"].iter().copied());
        assert!(v.entries().is_empty());
    }
}

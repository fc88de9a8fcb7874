//! The WHIRL nearest-neighbour classifier (Cohen & Hirsh).
//!
//! The paper's Name matcher and Content matcher both use WHIRL (Section
//! 3.3): all training examples `(text, label)` are stored; to classify a
//! query, the classifier finds the stored examples within a similarity
//! threshold of the query under TF/IDF cosine distance and combines their
//! similarities into per-label confidence scores.
//!
//! The combination rule is configurable for ablation studies:
//! [`NeighborCombination::NoisyOr`] (WHIRL's own rule —
//! `score(c) = 1 − Π (1 − sim)` over neighbours with label `c`),
//! `Max`, or `Mean`.

use crate::tfidf::{SparseVector, TfIdfModel};
use serde::{Deserialize, Serialize};

/// How neighbour similarities are merged into one score per label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NeighborCombination {
    /// `1 − Π (1 − sim)` — WHIRL's rule; multiple agreeing neighbours
    /// reinforce each other.
    NoisyOr,
    /// The single best neighbour similarity per label.
    Max,
    /// The mean similarity over that label's neighbours.
    Mean,
}

/// Configuration for a [`Whirl`] classifier.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WhirlConfig {
    /// Only neighbours with cosine similarity strictly above this threshold
    /// vote (the paper's "within a δ distance"). Below 0, every stored
    /// example that shares no token with the query also votes, at
    /// similarity 0, ranked after every positive neighbour in example
    /// order.
    pub min_similarity: f64,
    /// At most this many nearest neighbours vote.
    pub max_neighbors: usize,
    /// The score combination rule.
    pub combination: NeighborCombination,
    /// Tempering toward uniform: the returned distribution is
    /// `(1−t)·scores + t·uniform`. Cosine similarities are not calibrated
    /// probabilities — an exact-duplicate neighbour would otherwise yield
    /// certainty 1.0, letting one confidently-wrong nearest-neighbour vote
    /// overpower every other learner in the stack.
    pub temper: f64,
}

impl Default for WhirlConfig {
    fn default() -> Self {
        WhirlConfig {
            min_similarity: 0.0,
            max_neighbors: 30,
            combination: NeighborCombination::NoisyOr,
            temper: 0.1,
        }
    }
}

/// A stored training example: its TF/IDF vector and label index.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Example {
    vector: SparseVector,
    label: usize,
}

/// The WHIRL classifier over an arbitrary label set (labels are dense
/// `usize` indices; the caller owns the mapping to label names).
///
/// ```
/// use lsd_text::{tokenize, Whirl, WhirlConfig};
///
/// let mut whirl = Whirl::new(2, WhirlConfig::default());
/// for (text, label) in [("Miami, FL", 0), ("Boston, MA", 0),
///                       ("(305) 729 0831", 1), ("(617) 253 1429", 1)] {
///     let tokens = tokenize(text);
///     whirl.add_example(tokens.iter().map(String::as_str), label);
/// }
/// whirl.finalize();
/// let tokens = tokenize("Orlando, FL");
/// let scores = whirl.classify(tokens.iter().map(String::as_str));
/// assert!(scores[0] > scores[1]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Whirl {
    config: WhirlConfig,
    model: TfIdfModel,
    /// The permanent raw document store: every example's token list, in
    /// insertion order. Serialized, so a snapshot can *warm-start*: adding
    /// examples after deserialization re-vectorizes the whole store under
    /// the updated corpus statistics, making incremental training
    /// byte-equal to training from scratch on the concatenated sequence.
    /// Empty in snapshots from builds that stored only frozen vectors —
    /// those still classify but cannot warm-start
    /// (see [`Self::retains_documents`]).
    #[serde(default)]
    docs: Vec<(Vec<String>, usize)>,
    /// Frozen TF/IDF vectors, rebuilt from `docs` by [`Self::finalize`].
    examples: Vec<Example>,
    /// Inverted index, one slot per vocabulary id: `postings[dim]` lists
    /// `(example, weight)` pairs in example order, so a query only touches
    /// examples it shares at least one token with.
    #[serde(skip)]
    postings: Vec<Vec<(u32, f64)>>,
    num_labels: usize,
}

impl Whirl {
    /// Creates an empty classifier for `num_labels` labels.
    pub fn new(num_labels: usize, config: WhirlConfig) -> Self {
        Whirl {
            config,
            model: TfIdfModel::new(),
            docs: Vec::new(),
            examples: Vec::new(),
            postings: Vec::new(),
            num_labels,
        }
    }

    /// Adds one training example. Call [`Self::finalize`] after the last
    /// example and before classifying. Examples may be added again after a
    /// finalize; the next finalize folds them in under the updated corpus
    /// statistics.
    pub fn add_example<'a>(&mut self, tokens: impl IntoIterator<Item = &'a str>, label: usize) {
        self.add_example_with(|sink| tokens.into_iter().for_each(sink), label);
    }

    /// Adds the training example whose tokens `feed` passes, one at a
    /// time, to the sink it is given (see [`Self::add_example`]).
    pub fn add_example_with(&mut self, feed: impl FnOnce(&mut dyn FnMut(&str)), label: usize) {
        debug_assert!(label < self.num_labels, "label out of range");
        let mut toks: Vec<String> = Vec::new();
        feed(&mut |token| toks.push(token.to_string()));
        self.model.add_document(toks.iter().map(String::as_str));
        self.docs.push((toks, label));
    }

    /// Freezes corpus statistics, computes the stored vectors, and builds
    /// the inverted index. Idempotent. Also call after deserializing a
    /// trained classifier: the index is not serialized and is rebuilt here.
    ///
    /// When new documents were added since the last finalize, *every*
    /// stored vector is recomputed — IDF weights shift with each new
    /// document, so refreezing the whole store is what keeps incremental
    /// training identical to a from-scratch train on the same sequence.
    pub fn finalize(&mut self) {
        let stale = !self.docs.is_empty()
            && (self.examples.len() != self.docs.len() || self.postings.is_empty());
        if stale {
            self.examples = self
                .docs
                .iter()
                .map(|(tokens, label)| Example {
                    vector: self
                        .model
                        .vector_for_tokens(tokens.iter().map(String::as_str)),
                    label: *label,
                })
                .collect();
        }
        // A vectors-only snapshot (no document store) rebuilds the index
        // from its frozen vectors.
        if stale || self.postings.is_empty() {
            self.postings = vec![Vec::new(); self.model.vocabulary().len()];
            for (id, ex) in self.examples.iter().enumerate() {
                for &(dim, weight) in ex.vector.entries() {
                    // A dimension outside the vocabulary never meets a
                    // query, whose ids all come from the vocabulary, so it
                    // needs no slot. Snapshots holding one are refused at
                    // load (see `Self::validate`).
                    if let Some(posting) = self.postings.get_mut(dim as usize) {
                        posting.push((id as u32, weight));
                    }
                }
            }
        }
        if lsd_obs::enabled() {
            let dims = self.postings.iter().filter(|p| !p.is_empty()).count();
            lsd_obs::gauge_max("tfidf.vocab_size", "", self.model.vocabulary().len() as u64);
            lsd_obs::gauge_max("tfidf.index_dims", "", dims as u64);
            lsd_obs::gauge_max("whirl.examples", "", self.examples.len() as u64);
        }
    }

    /// Checks state that deserialization cannot: every stored label is
    /// below [`Self::num_labels`] and every stored vector dimension is
    /// below the vocabulary's length. A snapshot that fails would panic
    /// on the first query reaching the bad label, or ask `finalize` for
    /// one posting slot per claimed dimension.
    ///
    /// # Errors
    /// A description of the first bad label or dimension.
    pub fn validate(&self) -> Result<(), String> {
        let mut labels = (self.docs.iter().map(|(_, label)| *label))
            .chain(self.examples.iter().map(|ex| ex.label));
        if let Some(label) = labels.find(|&l| l >= self.num_labels) {
            return Err(format!(
                "example label {label} is not below num_labels {}",
                self.num_labels
            ));
        }
        let vocab = self.model.vocabulary().len();
        let mut dims = self.examples.iter().flat_map(|ex| ex.vector.entries());
        if let Some(&(dim, _)) = dims.find(|&&(d, _)| d as usize >= vocab) {
            return Err(format!(
                "vector dimension {dim} is not below the vocabulary length {vocab}"
            ));
        }
        Ok(())
    }

    /// Whether the raw document store is available, i.e. whether this
    /// classifier can accept further examples after being trained (or
    /// deserialized) without corrupting its statistics. False only for
    /// non-empty snapshots from builds that serialized frozen vectors
    /// without the document store.
    pub fn retains_documents(&self) -> bool {
        self.examples.is_empty() || !self.docs.is_empty()
    }

    /// Number of stored examples (including ones not yet finalized).
    pub fn num_examples(&self) -> usize {
        self.docs.len().max(self.examples.len())
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Classifies a token multiset: returns a confidence-score distribution
    /// over labels that sums to 1 (uniform if no neighbour qualifies, e.g.
    /// for an empty store or fully out-of-vocabulary query).
    pub fn classify<'a>(&self, tokens: impl IntoIterator<Item = &'a str>) -> Vec<f64> {
        self.classify_with(|sink| tokens.into_iter().for_each(sink))
    }

    /// Classifies the token multiset that `feed` passes, one token at a
    /// time, to the sink it is given (see [`Self::classify`]).
    pub fn classify_with(&self, feed: impl FnOnce(&mut dyn FnMut(&str))) -> Vec<f64> {
        debug_assert!(
            self.docs.is_empty() || self.examples.len() == self.docs.len(),
            "classify called before finalize"
        );
        let query = self.model.vector_with(feed);
        let mut scores = self.label_scores(&query);
        let total: f64 = scores.iter().sum();
        let n = self.num_labels.max(1) as f64;
        if total > 0.0 {
            let t = self.config.temper.clamp(0.0, 1.0);
            for s in &mut scores {
                *s = (1.0 - t) * (*s / total) + t / n;
            }
        } else if self.num_labels > 0 {
            scores = vec![1.0 / n; self.num_labels];
        }
        scores
    }

    /// Raw (unnormalized) per-label neighbour scores for a query vector.
    /// Both query and stored vectors are unit-normalized, so the cosine is
    /// a plain dot product, accumulated through the inverted index.
    ///
    /// The cost follows the postings the query reaches, not the number of
    /// stored examples: only reached examples get an accumulator, and
    /// the `max_neighbors` best are selected before the sort. Neighbours
    /// rank by similarity, descending, then by example id, so ties between
    /// equally similar examples always resolve the same way. Each reached
    /// example's dot product sums its terms in query-dimension order.
    fn label_scores(&self, query: &SparseVector) -> Vec<f64> {
        // `slot[id]` is 1 + the index of example `id`'s `(dot, id)`
        // accumulator in `sims`, or 0 while no posting has reached it.
        let mut slot = vec![0u32; self.examples.len()];
        let mut sims: Vec<(f64, u32)> = Vec::new();
        for &(dim, qw) in query.entries() {
            let Some(posting) = self.postings.get(dim as usize) else {
                continue;
            };
            for &(id, w) in posting {
                let s = &mut slot[id as usize];
                if *s == 0 {
                    sims.push((0.0, id));
                    *s = sims.len() as u32;
                }
                sims[*s as usize - 1].0 += qw * w;
            }
        }
        let min_similarity = self.config.min_similarity;
        sims.retain_mut(|(sim, _)| {
            *sim = sim.clamp(-1.0, 1.0);
            *sim > min_similarity
        });
        if min_similarity < 0.0 {
            // A negative threshold admits the examples sharing no token,
            // at similarity 0.
            let unreached = slot.iter().enumerate().filter(|&(_, &s)| s == 0);
            sims.extend(unreached.map(|(id, _)| (0.0, id as u32)));
        }
        let rank = |a: &(f64, u32), b: &(f64, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        let k = self.config.max_neighbors;
        if sims.len() > k {
            if k > 0 {
                sims.select_nth_unstable_by(k - 1, rank);
            }
            sims.truncate(k);
        }
        sims.sort_unstable_by(rank);
        let sims = sims
            .into_iter()
            .map(|(sim, id)| (sim, self.examples[id as usize].label));

        let mut scores = vec![0.0; self.num_labels];
        match self.config.combination {
            NeighborCombination::NoisyOr => {
                let mut keep = vec![1.0; self.num_labels];
                for (sim, label) in sims {
                    // Cap a touch below 1 so several exact matches for
                    // different labels cannot all saturate to certainty.
                    keep[label] *= 1.0 - sim.min(0.999);
                }
                for (s, k) in scores.iter_mut().zip(keep) {
                    *s = 1.0 - k;
                }
            }
            NeighborCombination::Max => {
                for (sim, label) in sims {
                    if sim > scores[label] {
                        scores[label] = sim;
                    }
                }
            }
            NeighborCombination::Mean => {
                let mut counts = vec![0u32; self.num_labels];
                for (sim, label) in sims {
                    scores[label] += sim;
                    counts[label] += 1;
                }
                for (s, c) in scores.iter_mut().zip(counts) {
                    if c > 0 {
                        *s /= f64::from(c);
                    }
                }
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize;

    fn trained(combination: NeighborCombination) -> Whirl {
        // Labels: 0 = ADDRESS, 1 = DESCRIPTION, 2 = AGENT-PHONE.
        let mut w = Whirl::new(
            3,
            WhirlConfig {
                combination,
                ..Default::default()
            },
        );
        let data: &[(&str, usize)] = &[
            ("Miami, FL", 0),
            ("Boston, MA", 0),
            ("Seattle, WA", 0),
            ("Portland, OR", 0),
            ("Nice area close to downtown", 1),
            ("Great location fantastic house", 1),
            ("Close to river great yard", 1),
            ("Fantastic house near beach", 1),
            ("(305) 729 0831", 2),
            ("(617) 253 1429", 2),
            ("(206) 753 2605", 2),
            ("(515) 273 4312", 2),
        ];
        for (text, label) in data {
            let toks = tokenize(text);
            w.add_example(toks.iter().map(String::as_str), *label);
        }
        w.finalize();
        w
    }

    fn classify(w: &Whirl, text: &str) -> Vec<f64> {
        let toks = tokenize(text);
        w.classify(toks.iter().map(String::as_str))
    }

    fn argmax(scores: &[f64]) -> usize {
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }

    #[test]
    fn classifies_each_category() {
        for comb in [
            NeighborCombination::NoisyOr,
            NeighborCombination::Max,
            NeighborCombination::Mean,
        ] {
            let w = trained(comb);
            assert_eq!(argmax(&classify(&w, "Orlando, FL")), 0, "{comb:?}");
            assert_eq!(
                argmax(&classify(&w, "great house close to park")),
                1,
                "{comb:?}"
            );
            assert_eq!(argmax(&classify(&w, "(415) 273 1234")), 2, "{comb:?}");
        }
    }

    #[test]
    fn scores_form_distribution() {
        let w = trained(NeighborCombination::NoisyOr);
        let s = classify(&w, "Kent, WA");
        assert_eq!(s.len(), 3);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn out_of_vocabulary_query_is_uniform() {
        let w = trained(NeighborCombination::NoisyOr);
        let s = classify(&w, "zzz qqq");
        assert!(s.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-9));
    }

    #[test]
    fn empty_classifier_is_uniform() {
        let mut w = Whirl::new(4, WhirlConfig::default());
        w.finalize();
        let s = w.classify(["anything"].iter().copied());
        assert!(s.iter().all(|&x| (x - 0.25).abs() < 1e-9));
    }

    #[test]
    fn exact_duplicate_dominates() {
        let w = trained(NeighborCombination::NoisyOr);
        let s = classify(&w, "(305) 729 0831");
        assert_eq!(argmax(&s), 2);
        assert!(s[2] > 0.6, "exact match should be confident, got {s:?}");
    }

    #[test]
    fn min_similarity_threshold_filters_neighbors() {
        let mut w = Whirl::new(
            2,
            WhirlConfig {
                min_similarity: 0.99,
                ..Default::default()
            },
        );
        w.add_example(["alpha"].iter().copied(), 0);
        w.add_example(["beta"].iter().copied(), 1);
        w.finalize();
        // A weakly-similar query has no neighbour above 0.99: uniform result.
        let s = w.classify(["alpha", "beta", "gamma"].iter().copied());
        assert!((s[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_or_rewards_multiple_agreeing_neighbors() {
        let mut w = Whirl::new(2, WhirlConfig::default());
        for _ in 0..3 {
            w.add_example(["blue", "sky"].iter().copied(), 0);
        }
        w.add_example(["blue", "cheese"].iter().copied(), 1);
        w.finalize();
        let s = w.classify(["blue", "sky"].iter().copied());
        assert!(s[0] > s[1]);
    }

    #[test]
    fn classifying_records_no_metric() {
        let w = trained(NeighborCombination::NoisyOr);
        let (_, metrics) = lsd_obs::collect(|| {
            classify(&w, "Orlando, FL");
            w.classify_with(|sink| crate::for_each_token("(415) 273", Default::default(), sink));
        });
        assert!(metrics.counters.is_empty(), "{:?}", metrics.counters);
        assert!(metrics.gauges.is_empty(), "{:?}", metrics.gauges);
        assert!(
            metrics.histograms.is_empty(),
            "{:?}",
            metrics.histograms.keys()
        );
    }

    #[test]
    fn ties_rank_by_example_id() {
        // Three identical "a" examples tie; the one kept is the lowest id.
        let mut w = Whirl::new(
            3,
            WhirlConfig {
                max_neighbors: 1,
                combination: NeighborCombination::Max,
                temper: 0.0,
                ..Default::default()
            },
        );
        for (tokens, label) in [(["b"], 0), (["a"], 2), (["a"], 1), (["a"], 0)] {
            w.add_example(tokens, label);
        }
        w.finalize();
        let s = w.classify(["a"]);
        assert_eq!(s, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn validate_refuses_bad_labels_and_dimensions() {
        let mut w = Whirl::new(2, WhirlConfig::default());
        w.add_example(["a", "b"], 0);
        w.add_example(["b", "c"], 1);
        w.finalize();
        assert_eq!(w.validate(), Ok(()));

        let mut bad_label = w.clone();
        bad_label.docs[1].1 = 7;
        assert_eq!(
            bad_label.validate(),
            Err("example label 7 is not below num_labels 2".to_string())
        );

        let mut bad_dim = w.clone();
        bad_dim.docs.clear();
        bad_dim.examples[0].vector = SparseVector::from_pairs(vec![(u32::MAX, 1.0)]);
        assert_eq!(
            bad_dim.validate(),
            Err("vector dimension 4294967295 is not below the vocabulary length 3".to_string())
        );
        // `finalize` gives such a dimension no slot rather than growing
        // the index to reach it.
        bad_dim.postings.clear();
        bad_dim.finalize();
        assert_eq!(bad_dim.postings.len(), 3);
    }

    #[test]
    fn finalize_is_required_before_vectors_exist() {
        let mut w = Whirl::new(2, WhirlConfig::default());
        w.add_example(["x"].iter().copied(), 0);
        assert_eq!(w.num_examples(), 1);
        w.finalize();
        assert_eq!(w.num_examples(), 1);
        w.finalize(); // idempotent
        assert_eq!(w.num_examples(), 1);
    }
}

//! The multinomial Naive Bayes text classifier (paper Section 3.3).
//!
//! Each input instance is a bag of tokens `d = {w₁ … wₖ}`. The learner
//! assigns `d` to the class maximizing `P(cᵢ|d) ∝ P(d|cᵢ)·P(cᵢ)` with
//! `P(d|cᵢ) = Π P(wⱼ|cᵢ)` under the token-independence assumption, where
//! `P(wⱼ|cᵢ) = n(wⱼ,cᵢ) / n(cᵢ)` — the fraction of token positions of class
//! `cᵢ` occupied by `wⱼ`. We add Laplace smoothing (configurable for the
//! ablation bench) so unseen tokens don't zero out the product, and work in
//! log space for numerical stability.

use crate::prediction::Prediction;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Naive Bayes hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NaiveBayesConfig {
    /// Laplace smoothing pseudo-count added to every token count.
    pub smoothing: f64,
}

impl Default for NaiveBayesConfig {
    fn default() -> Self {
        NaiveBayesConfig { smoothing: 1.0 }
    }
}

/// A trained multinomial Naive Bayes model over string tokens.
///
/// Every `log P(w|c)` and `log P(c)` depends only on the trained counts, so
/// the model keeps them in a scoring table: one row of `num_labels` values
/// per vocabulary token, plus a row for unseen tokens. Adding an example
/// drops the table; the next prediction rebuilds it, and a loaded model
/// builds it at load. Predicting is then one vocabulary lookup and one row
/// add per token. The table is never serialized.
///
/// ```
/// use lsd_learn::{NaiveBayes, NaiveBayesConfig};
///
/// let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
/// let desc: Vec<String> = ["fantastic", "great", "view"].iter().map(|s| s.to_string()).collect();
/// let addr: Vec<String> = ["miami", "fl"].iter().map(|s| s.to_string()).collect();
/// nb.add_example(&desc, 0);
/// nb.add_example(&addr, 1);
/// let query: Vec<String> = ["great", "fantastic"].iter().map(|s| s.to_string()).collect();
/// assert_eq!(nb.predict_tokens(&query).best_label(), 0);
/// ```
#[derive(Debug, Clone, Deserialize)]
#[serde(from = "NaiveBayesCounts")]
pub struct NaiveBayes {
    config: NaiveBayesConfig,
    num_labels: usize,
    /// Row of each vocabulary token in `token_counts` and in the table.
    rows: HashMap<String, usize>,
    /// `n(w, c)` — token counts, `num_labels` per row: row `r`, class `c`
    /// at `token_counts[r * num_labels + c]`.
    token_counts: Vec<f64>,
    /// `n(c)` — total token positions per class.
    class_token_totals: Vec<f64>,
    /// Number of training instances per class (for the prior `P(c)`).
    class_doc_counts: Vec<f64>,
    total_docs: f64,
    /// The scoring table for the current counts; empty after they change.
    table: OnceLock<ScoreTable>,
}

/// `log P(w|c)` and `log P(c)` for one set of counts.
#[derive(Debug, Clone)]
struct ScoreTable {
    /// `log P(w|c)` in the layout of `token_counts`, then one more row for
    /// tokens outside the vocabulary.
    log_probs: Vec<f64>,
    /// `log P(c)` per class.
    log_priors: Vec<f64>,
}

/// The serialized shape of [`NaiveBayes`]: `token_counts` as a map from
/// token to its per-class counts (written with keys sorted).
#[derive(Deserialize)]
struct NaiveBayesCounts {
    config: NaiveBayesConfig,
    num_labels: usize,
    token_counts: HashMap<String, Vec<f64>>,
    class_token_totals: Vec<f64>,
    class_doc_counts: Vec<f64>,
    total_docs: f64,
}

impl From<NaiveBayesCounts> for NaiveBayes {
    /// Flattens the counts into rows and builds the scoring table. Every
    /// per-class vector is cut or zero-padded to `num_labels`, so a
    /// hand-edited snapshot cannot misalign the rows.
    fn from(counts: NaiveBayesCounts) -> Self {
        let num_labels = counts.num_labels;
        let per_class = |mut values: Vec<f64>| {
            values.resize(num_labels, 0.0);
            values
        };
        let mut rows = HashMap::with_capacity(counts.token_counts.len());
        let mut token_counts = Vec::with_capacity(counts.token_counts.len() * num_labels);
        for (row, (token, values)) in counts.token_counts.into_iter().enumerate() {
            token_counts.extend(per_class(values));
            rows.insert(token, row);
        }
        let nb = NaiveBayes {
            config: counts.config,
            num_labels,
            rows,
            token_counts,
            class_token_totals: per_class(counts.class_token_totals),
            class_doc_counts: per_class(counts.class_doc_counts),
            total_docs: counts.total_docs,
            table: OnceLock::new(),
        };
        if nb.total_docs != 0.0 {
            nb.table();
        }
        nb
    }
}

impl Serialize for NaiveBayes {
    /// The shape loading reads (`token_counts` as an object from token to
    /// per-class counts, keys sorted), written from the rows without
    /// cloning the model.
    fn to_value(&self) -> Value {
        let mut tokens: Vec<(&String, &usize)> = self.rows.iter().collect();
        tokens.sort_unstable();
        let token_counts = tokens
            .into_iter()
            .map(|(token, &row)| {
                let start = row * self.num_labels;
                let counts = &self.token_counts[start..start + self.num_labels];
                (token.clone(), counts.to_value())
            })
            .collect();
        Value::Map(vec![
            ("config".to_string(), self.config.to_value()),
            ("num_labels".to_string(), self.num_labels.to_value()),
            ("token_counts".to_string(), Value::Map(token_counts)),
            (
                "class_token_totals".to_string(),
                self.class_token_totals.to_value(),
            ),
            (
                "class_doc_counts".to_string(),
                self.class_doc_counts.to_value(),
            ),
            ("total_docs".to_string(), self.total_docs.to_value()),
        ])
    }
}

impl NaiveBayes {
    /// Creates an untrained model for `num_labels` classes.
    pub fn new(num_labels: usize, config: NaiveBayesConfig) -> Self {
        NaiveBayes {
            config,
            num_labels,
            rows: HashMap::new(),
            token_counts: Vec::new(),
            class_token_totals: vec![0.0; num_labels],
            class_doc_counts: vec![0.0; num_labels],
            total_docs: 0.0,
            table: OnceLock::new(),
        }
    }

    /// Adds one training instance incrementally.
    pub fn add_example(&mut self, tokens: &[String], label: usize) {
        self.add_example_with(label, |sink| tokens.iter().for_each(|t| sink(t)));
    }

    /// Adds one training instance whose tokens `feed` passes, one at a
    /// time, to the sink it is given — so a caller can build each token in
    /// a reused buffer instead of collecting a `Vec<String>`.
    pub fn add_example_with(&mut self, label: usize, feed: impl FnOnce(&mut dyn FnMut(&str))) {
        assert!(label < self.num_labels);
        let num_labels = self.num_labels;
        let (rows, token_counts) = (&mut self.rows, &mut self.token_counts);
        let mut positions = 0usize;
        feed(&mut |token: &str| {
            let row = match rows.get(token) {
                Some(&row) => row,
                None => {
                    let row = rows.len();
                    rows.insert(token.to_owned(), row);
                    token_counts.resize(token_counts.len() + num_labels, 0.0);
                    row
                }
            };
            token_counts[row * num_labels + label] += 1.0;
            positions += 1;
        });
        self.class_token_totals[label] += positions as f64;
        self.class_doc_counts[label] += 1.0;
        self.total_docs += 1.0;
        self.table = OnceLock::new();
    }

    /// Vocabulary size (distinct tokens seen in training).
    pub fn vocab_size(&self) -> usize {
        self.rows.len()
    }

    /// Number of classes.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// `log P(c)` — the fraction of training instances with label `c`, as
    /// in the paper ("P(cᵢ) is approximated as the portion of training
    /// instances with label cᵢ"). Deliberately *not* smoothed: a class with
    /// no training instances must get probability 0, otherwise its empty
    /// token model (where every token is equally "likely") outcompetes
    /// trained classes on unseen tokens.
    fn log_prior(&self, label: usize) -> f64 {
        if self.class_doc_counts[label] == 0.0 {
            f64::NEG_INFINITY
        } else {
            (self.class_doc_counts[label] / self.total_docs).ln()
        }
    }

    /// The scoring table for the current counts, built on first use.
    ///
    /// Each entry is `log P(w|c)` with Laplace smoothing over the
    /// vocabulary plus one unseen-token bucket, computed as
    /// `((n(w,c) + α) / (n(c) + α·(|V| + 1))).ln()`; the unseen row uses
    /// `n(w,c) = 0`.
    fn table(&self) -> &ScoreTable {
        self.table.get_or_init(|| {
            let smoothing = self.config.smoothing;
            let v = self.vocab_size() as f64 + 1.0; // +1 for the unseen-token bucket
            let denominators: Vec<f64> = self
                .class_token_totals
                .iter()
                .map(|&total| total + smoothing * v)
                .collect();
            let unseen = std::iter::repeat_n(&0.0, self.num_labels);
            let log_probs = self
                .token_counts
                .iter()
                .chain(unseen)
                .zip(denominators.iter().cycle())
                .map(|(&count, &denominator)| ((count + smoothing) / denominator).ln())
                .collect();
            ScoreTable {
                log_probs,
                log_priors: (0..self.num_labels).map(|c| self.log_prior(c)).collect(),
            }
        })
    }

    /// Predicts the class distribution for a token bag.
    pub fn predict_tokens(&self, tokens: &[String]) -> Prediction {
        self.predict_with(|sink| tokens.iter().for_each(|t| sink(t)))
    }

    /// Predicts the class distribution for the token bag that `feed`
    /// passes, one token at a time, to the sink it is given.
    ///
    /// Scores token by token: one vocabulary lookup per token, then that
    /// token's table row is added to the per-label running sums. Each sum
    /// starts from `-0.0` and folds in token order, exactly as
    /// `Iterator::sum` would per label, and `log P(c)` is added last — so
    /// the scores are bit-identical to computing the formula per label.
    pub fn predict_with(&self, feed: impl FnOnce(&mut dyn FnMut(&str))) -> Prediction {
        if self.total_docs == 0.0 {
            return Prediction::uniform(self.num_labels);
        }
        Prediction::from_log_scores(&self.log_scores(feed))
    }

    /// `log P(c) + Σ log P(w|c)` per label for a token bag (see
    /// [`Self::predict_with`]).
    fn log_scores(&self, feed: impl FnOnce(&mut dyn FnMut(&str))) -> Vec<f64> {
        let table = self.table();
        let num_labels = self.num_labels;
        let unseen = self.vocab_size();
        let mut sums = vec![-0.0f64; num_labels];
        feed(&mut |token: &str| {
            let start = self.rows.get(token).map_or(unseen, |&row| row) * num_labels;
            for (sum, log_prob) in sums.iter_mut().zip(&table.log_probs[start..]) {
                *sum += log_prob;
            }
        });
        table
            .log_priors
            .iter()
            .zip(&sums)
            .map(|(prior, sum)| prior + sum)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// The model as it was before the scoring table, kept as the oracle:
    /// per-token count vectors in a map, and each `log P(w|c)` computed
    /// per query token per label.
    #[derive(Serialize)]
    struct Reference {
        config: NaiveBayesConfig,
        num_labels: usize,
        token_counts: HashMap<String, Vec<f64>>,
        class_token_totals: Vec<f64>,
        class_doc_counts: Vec<f64>,
        total_docs: f64,
    }

    impl Reference {
        fn new(num_labels: usize, config: NaiveBayesConfig) -> Self {
            Reference {
                config,
                num_labels,
                token_counts: HashMap::new(),
                class_token_totals: vec![0.0; num_labels],
                class_doc_counts: vec![0.0; num_labels],
                total_docs: 0.0,
            }
        }

        fn add_example(&mut self, tokens: &[String], label: usize) {
            for t in tokens {
                self.token_counts
                    .entry(t.clone())
                    .or_insert_with(|| vec![0.0; self.num_labels])[label] += 1.0;
            }
            self.class_token_totals[label] += tokens.len() as f64;
            self.class_doc_counts[label] += 1.0;
            self.total_docs += 1.0;
        }

        fn log_scores(&self, tokens: &[String]) -> Vec<f64> {
            let smoothing = self.config.smoothing;
            let v = self.token_counts.len() as f64 + 1.0;
            let log_token_prob = |token: &str, label: usize| {
                let count = self.token_counts.get(token).map_or(0.0, |c| c[label]);
                ((count + smoothing) / (self.class_token_totals[label] + smoothing * v)).ln()
            };
            (0..self.num_labels)
                .map(|c| {
                    let prior = if self.class_doc_counts[c] == 0.0 {
                        f64::NEG_INFINITY
                    } else {
                        (self.class_doc_counts[c] / self.total_docs).ln()
                    };
                    prior + tokens.iter().map(|t| log_token_prob(t, c)).sum::<f64>()
                })
                .collect()
        }
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    fn table_bits(nb: &NaiveBayes, tokens: &[String]) -> Vec<u64> {
        bits(&nb.log_scores(|sink| tokens.iter().for_each(|t| sink(t))))
    }

    proptest! {
        /// Table scoring equals the per-label formula bit for bit: on
        /// empty bags, repeated and unseen tokens, and labels with no
        /// training documents (`log P(c) = -inf`; label 5 never has any);
        /// after more examples are added between predictions, which must
        /// drop the table; and after a serde round trip, whose JSON is
        /// byte-identical to the previous model's.
        #[test]
        fn token_by_token_scoring_is_bit_identical(
            // Small vocabularies: tokens repeat within a bag, and queries
            // (over a wider alphabet) mix seen and unseen tokens.
            docs in prop::collection::vec((prop::collection::vec("[a-h]", 0..8), 0usize..5), 1..12),
            later in prop::collection::vec((prop::collection::vec("[a-j]", 0..8), 0usize..5), 1..6),
            queries in prop::collection::vec(prop::collection::vec("[a-l]", 0..10), 1..6),
            smoothing in prop_oneof![Just(1.0f64), Just(0.5), Just(0.01)],
        ) {
            let config = NaiveBayesConfig { smoothing };
            let mut nb = NaiveBayes::new(6, config);
            let mut reference = Reference::new(6, config);
            for batch in [&docs, &later] {
                for (tokens, label) in batch {
                    nb.add_example(tokens, *label);
                    reference.add_example(tokens, *label);
                }
                for query in &queries {
                    prop_assert_eq!(table_bits(&nb, query), bits(&reference.log_scores(query)));
                }
            }
            let json = serde_json::to_string(&nb).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(&reference).unwrap());
            let loaded: NaiveBayes = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&serde_json::to_string(&loaded).unwrap(), &json);
            for query in &queries {
                prop_assert_eq!(table_bits(&loaded, query), bits(&reference.log_scores(query)));
            }
        }
    }

    #[test]
    fn misshapen_snapshot_counts_load_without_misaligning_rows() {
        let json = r#"{"config":{"smoothing":1.0},"num_labels":3,
            "token_counts":{"a":[2.0],"b":[0.0,1.0,0.0,9.0]},
            "class_token_totals":[2.0,1.0],"class_doc_counts":[1.0,1.0,0.0,4.0],
            "total_docs":2.0}"#;
        let nb: NaiveBayes = serde_json::from_str(json).unwrap();
        let mut reference = Reference::new(3, NaiveBayesConfig::default());
        reference.add_example(&toks("a a"), 0);
        reference.add_example(&toks("b"), 1);
        for query in [toks("a b c"), toks("b b"), vec![]] {
            assert_eq!(table_bits(&nb, &query), bits(&reference.log_scores(&query)));
        }
    }

    fn trained() -> NaiveBayes {
        // 0 = DESCRIPTION, 1 = ADDRESS.
        let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
        nb.add_example(&toks("fantastic house great location"), 0);
        nb.add_example(&toks("great yard beautiful view"), 0);
        nb.add_example(&toks("nice area close to river"), 0);
        nb.add_example(&toks("miami fl"), 1);
        nb.add_example(&toks("boston ma"), 1);
        nb.add_example(&toks("seattle wa"), 1);
        nb
    }

    #[test]
    fn frequent_indicative_tokens_drive_prediction() {
        let nb = trained();
        assert_eq!(
            nb.predict_tokens(&toks("great fantastic view"))
                .best_label(),
            0
        );
        assert_eq!(nb.predict_tokens(&toks("portland or")).best_label(), 1);
    }

    #[test]
    fn prediction_is_distribution() {
        let nb = trained();
        let p = nb.predict_tokens(&toks("great house miami"));
        assert!((p.scores().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.scores().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn untrained_model_is_uniform() {
        let nb = NaiveBayes::new(3, NaiveBayesConfig::default());
        let p = nb.predict_tokens(&toks("anything"));
        assert!(p.scores().iter().all(|&s| (s - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn empty_token_bag_follows_prior() {
        let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
        nb.add_example(&toks("a"), 0);
        nb.add_example(&toks("b"), 0);
        nb.add_example(&toks("c"), 0);
        nb.add_example(&toks("d"), 1);
        let p = nb.predict_tokens(&[]);
        assert_eq!(p.best_label(), 0);
    }

    #[test]
    fn unseen_tokens_are_smoothed_not_fatal() {
        let nb = trained();
        let p = nb.predict_tokens(&toks("zzz qqq www"));
        assert!(p.scores().iter().all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn smoothing_strength_affects_confidence() {
        let mut weak = NaiveBayes::new(2, NaiveBayesConfig { smoothing: 0.01 });
        let mut strong = NaiveBayes::new(2, NaiveBayesConfig { smoothing: 10.0 });
        for nb in [&mut weak, &mut strong] {
            nb.add_example(&toks("alpha alpha alpha"), 0);
            nb.add_example(&toks("beta beta beta"), 1);
        }
        let pw = weak.predict_tokens(&toks("alpha"));
        let ps = strong.predict_tokens(&toks("alpha"));
        assert!(
            pw.score(0) > ps.score(0),
            "weaker smoothing → sharper posterior"
        );
        assert_eq!(pw.best_label(), 0);
        assert_eq!(ps.best_label(), 0);
    }

    #[test]
    fn repeated_tokens_count_multiply() {
        let mut nb = NaiveBayes::new(2, NaiveBayesConfig::default());
        nb.add_example(&toks("x x x x y"), 0);
        nb.add_example(&toks("y y y y x"), 1);
        assert_eq!(nb.predict_tokens(&toks("x")).best_label(), 0);
        assert_eq!(nb.predict_tokens(&toks("y")).best_label(), 1);
    }
}

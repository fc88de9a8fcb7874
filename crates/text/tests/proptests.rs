//! Property-based tests for the text/IR toolkit.

use lsd_text::{
    tokenize, tokenize_name, tokenize_with, NeighborCombination, PorterStemmer, SparseVector,
    TfIdfModel, TokenizeOptions, Whirl, WhirlConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The tokenizer before its ASCII fast path: every alphabetic character
/// lowercased through `char::to_lowercase` into a fresh `Vec<char>`.
fn reference_tokenize(text: &str, opts: TokenizeOptions) -> Vec<String> {
    const SIGNAL_SYMBOLS: &[char] = &['$', '%', '(', ')', '-', '/', '@', ':', ',', '.', '#'];
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Alpha,
        Digit,
        Other,
    }
    let kind_of = |c: char| {
        if c.is_alphabetic() {
            Kind::Alpha
        } else if c.is_ascii_digit() {
            Kind::Digit
        } else {
            Kind::Other
        }
    };
    let mut tokens = Vec::new();
    let mut word = String::new();
    let mut prev_kind = Kind::Other;
    let mut prev_char: Option<char> = None;
    for c in text.chars() {
        let kind = kind_of(c);
        let boundary = match (prev_kind, kind) {
            (Kind::Alpha, Kind::Alpha) => {
                opts.split_camel_case
                    && c.is_uppercase()
                    && prev_char.is_some_and(char::is_lowercase)
            }
            (a, b) => a != b,
        };
        if boundary && !word.is_empty() {
            tokens.push(std::mem::take(&mut word));
        }
        match kind {
            Kind::Alpha => word.extend(if opts.lowercase {
                c.to_lowercase().collect::<Vec<_>>()
            } else {
                vec![c]
            }),
            Kind::Digit => word.push(c),
            Kind::Other => {
                if opts.keep_symbols && SIGNAL_SYMBOLS.contains(&c) {
                    tokens.push(c.to_string());
                }
            }
        }
        prev_kind = kind;
        prev_char = Some(c);
    }
    if !word.is_empty() {
        tokens.push(word);
    }
    tokens
}

/// WHIRL as it scored before the top-k selection, kept as the oracle: a
/// query vector counted through a `HashMap`, a `HashMap` inverted index,
/// a dense dot-product array over every stored example, and a stable sort
/// of every example above the threshold.
struct ReferenceWhirl {
    config: WhirlConfig,
    model: TfIdfModel,
    labels: Vec<usize>,
    postings: HashMap<u32, Vec<(u32, f64)>>,
    num_labels: usize,
}

impl ReferenceWhirl {
    fn new(num_labels: usize, config: WhirlConfig, examples: &[(Vec<String>, usize)]) -> Self {
        let mut model = TfIdfModel::new();
        for (tokens, _) in examples {
            model.add_document(tokens.iter().map(String::as_str));
        }
        let mut postings: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
        for (id, (tokens, _)) in examples.iter().enumerate() {
            for &(dim, weight) in Self::vector(&model, tokens).entries() {
                postings.entry(dim).or_default().push((id as u32, weight));
            }
        }
        ReferenceWhirl {
            config,
            model,
            labels: examples.iter().map(|&(_, label)| label).collect(),
            postings,
            num_labels,
        }
    }

    fn vector(model: &TfIdfModel, tokens: &[String]) -> SparseVector {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for token in tokens {
            if let Some(id) = model.vocabulary().get(token) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        let mut v = SparseVector::from_pairs(
            counts
                .into_iter()
                .map(|(id, c)| (id, (1.0 + f64::from(c).ln()) * model.idf(id)))
                .collect(),
        );
        v.normalize();
        v
    }

    fn classify(&self, tokens: &[String]) -> Vec<f64> {
        let mut scores = self.label_scores(&Self::vector(&self.model, tokens));
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

    fn label_scores(&self, query: &SparseVector) -> Vec<f64> {
        let mut dots: Vec<f64> = vec![0.0; self.labels.len()];
        for &(dim, qw) in query.entries() {
            if let Some(posting) = self.postings.get(&dim) {
                for &(id, w) in posting {
                    dots[id as usize] += qw * w;
                }
            }
        }
        let mut sims: Vec<(f64, usize)> = dots
            .into_iter()
            .enumerate()
            .map(|(id, sim)| (sim.clamp(-1.0, 1.0), self.labels[id]))
            .filter(|&(sim, _)| sim > self.config.min_similarity)
            .collect();
        sims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        sims.truncate(self.config.max_neighbors);

        let mut scores = vec![0.0; self.num_labels];
        match self.config.combination {
            NeighborCombination::NoisyOr => {
                let mut keep = vec![1.0; self.num_labels];
                for (sim, label) in sims {
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

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    /// The ASCII fast path tokenizes exactly as lowercasing every
    /// character through `char::to_lowercase`, on arbitrary Unicode and
    /// under every combination of the three options. The second string
    /// draws from letters whose case mappings are unusual: `İ` lowercases
    /// to two characters, `ẞ` and `Σ`/`ς` have irregular pairs, `ǅ` is
    /// titlecase.
    #[test]
    fn ascii_fast_path_matches_char_lowercasing(
        free in "\\PC{0,60}",
        cased in "[a-zA-Z0-9 $,.İıẞßΣσςǅǄÉéÅå-]{0,40}",
        lowercase in any::<bool>(),
        keep_symbols in any::<bool>(),
        split_camel_case in any::<bool>(),
    ) {
        let opts = TokenizeOptions { lowercase, keep_symbols, split_camel_case };
        for text in [free.as_str(), cased.as_str(), &format!("{cased}{free}")] {
            prop_assert_eq!(tokenize_with(text, opts), reference_tokenize(text, opts));
        }
    }

    /// The tokenizer never panics and produces only lowercase alphabetic,
    /// digit, or single-symbol tokens.
    #[test]
    fn tokenize_output_shape(s in "\\PC{0,60}") {
        for token in tokenize(&s) {
            prop_assert!(!token.is_empty());
            // "Lowercase" means fixed under lowercasing: some alphabetic
            // characters (e.g. 𝒢) have no lowercase mapping at all.
            let alpha = token
                .chars()
                .all(|c| c.is_alphabetic() && c.to_lowercase().collect::<String>() == c.to_string());
            let digit = token.chars().all(|c| c.is_ascii_digit());
            let symbol = token.chars().count() == 1
                && !token.chars().next().expect("non-empty").is_alphanumeric();
            prop_assert!(alpha || digit || symbol, "bad token {token:?} from {s:?}");
        }
    }

    /// Name tokenization is insensitive to separator choice.
    #[test]
    fn name_separators_equivalent(words in prop::collection::vec("[a-z]{1,6}", 1..4)) {
        let dashed = words.join("-");
        let under = words.join("_");
        prop_assert_eq!(tokenize_name(&dashed), tokenize_name(&under));
        prop_assert_eq!(tokenize_name(&dashed), words);
    }

    /// Stemming never grows a word and never panics.
    #[test]
    fn stem_never_grows(w in "[a-z]{1,15}") {
        let stemmer = PorterStemmer::new();
        let s = stemmer.stem(&w);
        prop_assert!(!s.is_empty());
        prop_assert!(s.len() <= w.len(), "stem({w}) = {s} grew");
    }

    /// Cosine similarity is symmetric, bounded, and 1 on self (for
    /// non-zero vectors).
    #[test]
    fn cosine_properties(
        a in prop::collection::vec((0u32..50, 0.01f64..10.0), 1..10),
        b in prop::collection::vec((0u32..50, 0.01f64..10.0), 1..10),
    ) {
        let va = SparseVector::from_pairs(a);
        let vb = SparseVector::from_pairs(b);
        let ab = va.cosine(&vb);
        let ba = vb.cosine(&va);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0 + 1e-12).contains(&ab));
        prop_assert!((va.cosine(&va) - 1.0).abs() < 1e-9);
    }

    /// TF/IDF vectors are unit-normalized (or zero for out-of-vocabulary
    /// input).
    #[test]
    fn tfidf_vectors_unit_norm(
        docs in prop::collection::vec(prop::collection::vec("[a-e]", 1..6), 1..6),
        query in prop::collection::vec("[a-g]", 0..6),
    ) {
        let mut m = TfIdfModel::new();
        for d in &docs {
            m.add_document(d.iter().map(String::as_str));
        }
        let v = m.vector_for_tokens(query.iter().map(String::as_str));
        let norm = v.norm();
        prop_assert!(v.entries().is_empty() || (norm - 1.0).abs() < 1e-9, "norm = {norm}");
    }

    /// WHIRL always returns a probability distribution over its labels.
    #[test]
    fn whirl_returns_distribution(
        examples in prop::collection::vec((prop::collection::vec("[a-f]", 1..4), 0usize..3), 1..12),
        query in prop::collection::vec("[a-h]", 0..5),
    ) {
        let mut w = Whirl::new(3, WhirlConfig::default());
        for (tokens, label) in &examples {
            w.add_example(tokens.iter().map(String::as_str), *label);
        }
        w.finalize();
        let scores = w.classify(query.iter().map(String::as_str));
        prop_assert_eq!(scores.len(), 3);
        let total: f64 = scores.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        prop_assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// WHIRL's top-k scorer returns the dense oracle's scores bit for bit,
    /// through both `classify` and `classify_with`. Repeated documents
    /// make similarities tie, so the id tie-break decides which
    /// neighbours are kept; a negative threshold admits every example
    /// sharing no token at similarity 0, which only `Mean` can see.
    #[test]
    fn whirl_top_k_matches_the_dense_oracle(
        num_labels in 1usize..5,
        docs in prop::collection::vec((prop::collection::vec("[a-f]", 1..4), 0usize..4), 1..10),
        repeats in prop::collection::vec((0usize..10, 0usize..4), 0..8),
        combination in prop_oneof![
            Just(NeighborCombination::NoisyOr),
            Just(NeighborCombination::Max),
            Just(NeighborCombination::Mean),
        ],
        neighbours in 0usize..5,
        threshold in 0usize..4,
        queries in prop::collection::vec(prop::collection::vec("[a-h]", 0..6), 1..5),
    ) {
        let mut examples: Vec<(Vec<String>, usize)> =
            docs.iter().map(|(tokens, label)| (tokens.clone(), label % num_labels)).collect();
        for &(i, label) in &repeats {
            let tokens = docs[i % docs.len()].0.clone();
            examples.push((tokens, label % num_labels));
        }
        let config = WhirlConfig {
            min_similarity: [-0.5, 0.0, 0.2, 0.99][threshold],
            max_neighbors: [0, 1, 2, 30, examples.len() + 1][neighbours],
            combination,
            ..WhirlConfig::default()
        };
        let mut whirl = Whirl::new(num_labels, config);
        for (tokens, label) in &examples {
            whirl.add_example(tokens.iter().map(String::as_str), *label);
        }
        whirl.finalize();
        let oracle = ReferenceWhirl::new(num_labels, config, &examples);
        for query in &queries {
            let expected = bits(&oracle.classify(query));
            prop_assert_eq!(bits(&whirl.classify(query.iter().map(String::as_str))), expected.clone());
            let fed = whirl.classify_with(|sink| query.iter().for_each(|t| sink(t)));
            prop_assert_eq!(bits(&fed), expected);
        }
    }
}

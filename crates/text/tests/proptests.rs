//! Property-based tests for the text/IR toolkit.

use lsd_text::{
    tokenize, tokenize_name, tokenize_with, PorterStemmer, SparseVector, TfIdfModel,
    TokenizeOptions, Whirl, WhirlConfig,
};
use proptest::prelude::*;

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

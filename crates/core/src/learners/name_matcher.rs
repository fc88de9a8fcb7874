//! The Name matcher (paper Section 3.3).
//!
//! "Matches an XML element using its tag name (expanded with synonyms and
//! all tag names leading to this element from the root element). It uses
//! Whirl, the nearest-neighbor classification model developed by Cohen and
//! Hirsh." Works well on specific, descriptive names (`price`,
//! `house-location`); poor on names without shared synonyms, partial names
//! or vacuous names (`item`, `listing`).

use crate::instance::Instance;
use crate::learners::{BaseLearner, Reads};
use lsd_learn::Prediction;
use lsd_text::{
    char_ngrams, for_each_token, NeighborCombination, TokenizeOptions, Whirl, WhirlConfig,
};
use std::collections::HashMap;

/// WHIRL over name tokens: path tags split into words, each word expanded
/// with its synonyms.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NameMatcher {
    num_labels: usize,
    whirl_config: WhirlConfig,
    synonyms: HashMap<String, Vec<String>>,
    whirl: Whirl,
}

impl NameMatcher {
    /// Creates an untrained name matcher. `synonyms` maps a word to the
    /// words it should be expanded with (applied in both training and
    /// prediction; expansion is one-directional, so supply both directions
    /// if desired or use [`Self::with_synonym_pairs`]).
    pub fn new(num_labels: usize, synonyms: HashMap<String, Vec<String>>) -> Self {
        let whirl_config = WhirlConfig {
            combination: NeighborCombination::NoisyOr,
            ..WhirlConfig::default()
        };
        NameMatcher {
            num_labels,
            whirl_config,
            synonyms,
            whirl: Whirl::new(num_labels, whirl_config),
        }
    }

    /// Convenience constructor from symmetric synonym pairs, e.g.
    /// `("phone", "contact")` makes each expand to the other.
    pub fn with_synonym_pairs<'a>(
        num_labels: usize,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Self {
        let mut synonyms: HashMap<String, Vec<String>> = HashMap::new();
        for (a, b) in pairs {
            synonyms
                .entry(a.to_string())
                .or_default()
                .push(b.to_string());
            synonyms
                .entry(b.to_string())
                .or_default()
                .push(a.to_string());
        }
        Self::new(num_labels, synonyms)
    }

    /// Rebuilds the WHIRL inverted index after deserialization (it is not
    /// part of the serialized form).
    pub(crate) fn rehydrate(&mut self) {
        self.whirl.finalize();
    }

    /// Checks the deserialized WHIRL state (see [`Whirl::validate`]).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.whirl.validate()
    }
}

/// Passes the feature tokens of one root path to `sink`: every word of
/// every path tag, plus its `synonyms`. Two refinements over a naive path
/// bag:
///
/// - The element's own tag words are included twice, so the local name
///   outweighs ancestor context.
/// - The *root* tag is dropped from the ancestor context of non-root
///   elements: it is identical for every element of a source, so it says
///   nothing about which tag this is — but, being the only guaranteed
///   in-vocabulary token, it would otherwise make every unseen tag name
///   look exactly like the root element.
fn feed(synonyms: &HashMap<String, Vec<String>>, path: &[&str], sink: &mut dyn FnMut(&str)) {
    let mut gram = String::new();
    for (i, tag) in path.iter().enumerate() {
        let is_last = i + 1 == path.len();
        if i == 0 && !is_last {
            continue; // root as ancestor context: uninformative
        }
        for_each_token(tag, TokenizeOptions::NAME, |word| {
            for synonym in synonyms.get(word).into_iter().flatten() {
                sink(synonym);
            }
            if is_last {
                sink(word);
                // Character trigrams of the element's own name bridge
                // fused spellings ("zipcode" ↔ "zip-code") and shared
                // prefixes ("sqft" ↔ "sq-ft") that word tokens and the
                // synonym table miss. Prefixed so they never collide
                // with word tokens.
                if word.len() > 3 {
                    for g in char_ngrams(word, 3) {
                        gram.clear();
                        gram.push('#');
                        gram.push_str(g);
                        sink(&gram);
                    }
                }
            }
            sink(word);
        });
    }
}

impl BaseLearner for NameMatcher {
    fn snapshot(&self) -> Option<crate::persist::SavedLearner> {
        Some(crate::persist::SavedLearner::Name(self.clone()))
    }

    fn name(&self) -> &'static str {
        "name-matcher"
    }

    fn train(&mut self, examples: &[(Instance, usize)]) {
        let mut whirl = Whirl::new(self.num_labels, self.whirl_config);
        for (instance, label) in examples {
            whirl.add_example_with(|sink| feed(&self.synonyms, instance.path, sink), *label);
        }
        whirl.finalize();
        self.whirl = whirl;
    }

    fn supports_warm_start(&self) -> bool {
        self.whirl.retains_documents()
    }

    fn warm_train(&mut self, examples: &[(Instance, usize)]) -> bool {
        if !self.whirl.retains_documents() {
            return false;
        }
        for (instance, label) in examples {
            self.whirl
                .add_example_with(|sink| feed(&self.synonyms, instance.path, sink), *label);
        }
        self.whirl.finalize();
        true
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        Prediction::from_scores(
            self.whirl
                .classify_with(|sink| feed(&self.synonyms, instance.path, sink)),
        )
    }

    /// Predicts from the tag path alone.
    fn reads(&self) -> Reads {
        Reads::Path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::leaked;
    use lsd_text::tokenize_name;
    use lsd_xml::Element;

    fn inst(path: &[&str]) -> Instance<'static> {
        leaked(Element::text_leaf(*path.last().unwrap(), "x"), path)
    }

    /// Labels: 0 ADDRESS, 1 AGENT-PHONE, 2 PRICE.
    fn trained() -> NameMatcher {
        let mut m = NameMatcher::with_synonym_pairs(3, [("location", "address")]);
        let examples = [
            (inst(&["listing", "location"]), 0),
            (inst(&["listing", "house-addr"]), 0),
            (inst(&["listing", "contact", "phone"]), 1),
            (inst(&["listing", "contact-phone"]), 1),
            (inst(&["listing", "listed-price"]), 2),
            (inst(&["listing", "price"]), 2),
        ];
        m.train(&examples);
        m
    }

    #[test]
    fn phone_in_name_predicts_agent_phone() {
        // The paper's Figure 2 hypothesis: "if 'phone' occurs in the name
        // => AGENT-PHONE".
        let m = trained();
        let p = m.predict(&inst(&["home", "work-phone"]));
        assert_eq!(p.best_label(), 1, "{:?}", p.scores());
    }

    #[test]
    fn synonym_expansion_bridges_vocabularies() {
        let m = trained();
        // "address" never appears as a training token directly, but
        // house-addr→addr… the synonym location↔address links them.
        let p = m.predict(&inst(&["home", "address"]));
        assert_eq!(p.best_label(), 0, "{:?}", p.scores());
    }

    #[test]
    fn path_context_contributes() {
        let m = trained();
        // A vacuous name alone gives no signal, but a path through
        // "contact" leans toward AGENT-PHONE.
        let p = m.predict(&inst(&["listing", "contact", "info"]));
        assert_eq!(p.best_label(), 1, "{:?}", p.scores());
    }

    #[test]
    fn compound_names_split() {
        let m = trained();
        let p = m.predict(&inst(&["home", "listedPrice"]));
        assert_eq!(p.best_label(), 2, "{:?}", p.scores());
    }

    #[test]
    fn unknown_name_is_near_uniform() {
        let m = trained();
        let p = m.predict(&inst(&["zzz", "qqq"]));
        let s = p.scores();
        assert!(s.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6), "{s:?}");
    }

    /// The token list before the sink: one `Vec<String>` per call and one
    /// `format!` per trigram.
    fn reference_tokens(m: &NameMatcher, path: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        for (i, tag) in path.iter().enumerate() {
            let is_last = i + 1 == path.len();
            if i == 0 && !is_last {
                continue;
            }
            for word in tokenize_name(tag) {
                if let Some(syns) = m.synonyms.get(&word) {
                    out.extend(syns.iter().cloned());
                }
                if is_last {
                    out.push(word.clone());
                    if word.len() > 3 {
                        let chars: Vec<char> = word.chars().collect();
                        if chars.len() <= 3 {
                            out.push(format!("#{word}"));
                        } else {
                            out.extend(
                                chars
                                    .windows(3)
                                    .map(|w| format!("#{}", w.iter().collect::<String>())),
                            );
                        }
                    }
                }
                out.push(word);
            }
        }
        out
    }

    #[test]
    fn fed_tokens_match_the_collected_list() {
        let m = NameMatcher::with_synonym_pairs(
            3,
            [
                ("location", "address"),
                ("phone", "contact"),
                ("zip", "postal"),
            ],
        );
        let paths: [&[&str]; 8] = [
            &["listing"],
            &["listing", "location"],
            &["listing", "contact", "agentPhone2"],
            &["house", "zip-code", "ZIPCODE"],
            &["root", "éé"],
            &["root", "straße_größe"],
            &["a", "b", "c", "d"],
            &[],
        ];
        for path in paths {
            let mut fed = Vec::new();
            feed(&m.synonyms, path, &mut |t| fed.push(t.to_string()));
            assert_eq!(fed, reference_tokens(&m, path), "{path:?}");
        }
    }
}

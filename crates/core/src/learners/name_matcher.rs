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
use lsd_text::{char_ngrams, tokenize_name, NeighborCombination, Whirl, WhirlConfig};
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

    /// The feature tokens of one instance: every word of every path tag,
    /// plus synonyms. Two refinements over a naive path bag:
    ///
    /// - The element's own tag words are included twice, so the local name
    ///   outweighs ancestor context.
    /// - The *root* tag is dropped from the ancestor context of non-root
    ///   elements: it is identical for every element of a source, so it
    ///   says nothing about which tag this is — but, being the only
    ///   guaranteed in-vocabulary token, it would otherwise make every
    ///   unseen tag name look exactly like the root element.
    fn tokens(&self, instance: &Instance) -> Vec<String> {
        let mut out = Vec::new();
        for (i, tag) in instance.path.iter().enumerate() {
            let is_last = i + 1 == instance.path.len();
            if i == 0 && !is_last {
                continue; // root as ancestor context: uninformative
            }
            for word in tokenize_name(tag) {
                if let Some(syns) = self.synonyms.get(&word) {
                    out.extend(syns.iter().cloned());
                }
                if is_last {
                    out.push(word.clone());
                    // Character trigrams of the element's own name bridge
                    // fused spellings ("zipcode" ↔ "zip-code") and shared
                    // prefixes ("sqft" ↔ "sq-ft") that word tokens and the
                    // synonym table miss. Prefixed so they never collide
                    // with word tokens.
                    if word.len() > 3 {
                        out.extend(char_ngrams(&word, 3).into_iter().map(|g| format!("#{g}")));
                    }
                }
                out.push(word);
            }
        }
        out
    }
}

impl BaseLearner for NameMatcher {
    fn snapshot(&self) -> Option<crate::persist::SavedLearner> {
        Some(crate::persist::SavedLearner::Name(self.clone()))
    }

    fn name(&self) -> &'static str {
        "name-matcher"
    }

    fn train(&mut self, examples: &[(&Instance, usize)]) {
        let mut whirl = Whirl::new(self.num_labels, self.whirl_config);
        for (instance, label) in examples {
            let toks = self.tokens(instance);
            whirl.add_example(toks.iter().map(String::as_str), *label);
        }
        whirl.finalize();
        self.whirl = whirl;
    }

    fn supports_warm_start(&self) -> bool {
        self.whirl.retains_documents()
    }

    fn warm_train(&mut self, examples: &[(&Instance, usize)]) -> bool {
        if !self.whirl.retains_documents() {
            return false;
        }
        for (instance, label) in examples {
            let toks = self.tokens(instance);
            self.whirl
                .add_example(toks.iter().map(String::as_str), *label);
        }
        self.whirl.finalize();
        true
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        let toks = self.tokens(instance);
        Prediction::from_scores(self.whirl.classify(toks.iter().map(String::as_str)))
    }

    /// Predicts from the tag path alone.
    fn reads(&self) -> Reads {
        Reads::Path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::Element;

    fn inst(path: &[&str]) -> Instance {
        let element = Element::text_leaf(*path.last().unwrap(), "x");
        Instance::new(element, path.iter().map(|s| s.to_string()).collect())
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
        let refs: Vec<(&Instance, usize)> = examples.iter().map(|(i, l)| (i, *l)).collect();
        m.train(&refs);
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
}

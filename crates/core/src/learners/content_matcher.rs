//! The Content matcher (paper Section 3.3).
//!
//! "Also uses Whirl. However, this learner matches an XML element using its
//! data content, instead of its tag name." Works well on long textual
//! elements (house descriptions) and elements with distinct descriptive
//! values (colors); poor on short numeric elements.

use crate::instance::Instance;
use crate::learners::{BaseLearner, Reads};
use lsd_learn::Prediction;
use lsd_text::{for_each_token, TokenizeOptions, Whirl, WhirlConfig};

/// WHIRL over the tokens of the instance's subtree text.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ContentMatcher {
    num_labels: usize,
    config: WhirlConfig,
    whirl: Whirl,
}

impl ContentMatcher {
    /// Creates an untrained content matcher with default WHIRL settings.
    pub fn new(num_labels: usize) -> Self {
        Self::with_config(num_labels, WhirlConfig::default())
    }

    /// Creates an untrained content matcher with explicit WHIRL settings
    /// (exposed for the `ablation_whirl` bench).
    pub fn with_config(num_labels: usize, config: WhirlConfig) -> Self {
        ContentMatcher {
            num_labels,
            config,
            whirl: Whirl::new(num_labels, config),
        }
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

/// Passes the tokens of the instance's subtree text to `sink`.
fn feed(instance: &Instance, sink: &mut dyn FnMut(&str)) {
    for_each_token(instance.text, TokenizeOptions::default(), sink);
}

impl BaseLearner for ContentMatcher {
    fn snapshot(&self) -> Option<crate::persist::SavedLearner> {
        Some(crate::persist::SavedLearner::Content(self.clone()))
    }

    fn name(&self) -> &'static str {
        "content-matcher"
    }

    fn train(&mut self, examples: &[(Instance, usize)]) {
        let mut whirl = Whirl::new(self.num_labels, self.config);
        for (instance, label) in examples {
            whirl.add_example_with(|sink| feed(instance, sink), *label);
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
                .add_example_with(|sink| feed(instance, sink), *label);
        }
        self.whirl.finalize();
        true
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        Prediction::from_scores(self.whirl.classify_with(|sink| feed(instance, sink)))
    }

    /// Predicts from the instance text alone.
    fn reads(&self) -> Reads {
        Reads::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::leaked;
    use lsd_xml::Element;

    fn inst(tag: &str, text: &str) -> Instance<'static> {
        leaked(Element::text_leaf(tag, text), &[tag])
    }

    /// Labels: 0 DESCRIPTION, 1 ADDRESS, 2 COLOR.
    fn trained() -> ContentMatcher {
        let mut m = ContentMatcher::new(3);
        let ex = [
            (inst("comments", "Fantastic house with great view"), 0),
            (inst("comments", "Nice area close to the river"), 0),
            (inst("extra-info", "Great location, beautiful yard"), 0),
            (inst("location", "Miami, FL"), 1),
            (inst("location", "Boston, MA"), 1),
            (inst("house-addr", "Seattle, WA"), 1),
            (inst("color", "red"), 2),
            (inst("color", "blue"), 2),
            (inst("paint", "green"), 2),
        ];
        m.train(&ex);
        m
    }

    #[test]
    fn long_text_matches_description() {
        let m = trained();
        let p = m.predict(&inst("anything", "Great house, fantastic river view"));
        assert_eq!(p.best_label(), 0, "{:?}", p.scores());
    }

    #[test]
    fn distinct_values_match_color() {
        let m = trained();
        let p = m.predict(&inst("x", "blue"));
        assert_eq!(p.best_label(), 2, "{:?}", p.scores());
    }

    #[test]
    fn tag_name_is_ignored() {
        let m = trained();
        // Tag says "color" but the content is an address.
        let p = m.predict(&inst("color", "Portland, OR"));
        assert_eq!(p.best_label(), 1, "{:?}", p.scores());
    }

    #[test]
    fn nested_content_uses_subtree_text() {
        let m = trained();
        let element = lsd_xml::parse_fragment(
            "<info><line1>great view</line1><line2>fantastic yard</line2></info>",
        )
        .unwrap();
        let p = m.predict(&leaked(element, &["info"]));
        assert_eq!(p.best_label(), 0);
    }
}

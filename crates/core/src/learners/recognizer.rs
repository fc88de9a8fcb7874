//! Dictionary recognizers (paper Section 3.3).
//!
//! "The County-Name Recognizer searches a database (extracted from the Web)
//! to verify if an XML element is a county name. … This module illustrates
//! how recognizers with a narrow and specific area of expertise can be
//! incorporated into our system." A [`Recognizer`] is a generic dictionary
//! membership test over one target label; [`county_name_recognizer`] is the
//! paper's concrete example.

use crate::counties::is_county_name;
use crate::instance::Instance;
use crate::learners::{BaseLearner, Reads};
use lsd_learn::Prediction;
use std::sync::Arc;

/// A narrow-expertise base learner: if the instance's text passes the
/// membership test, predict the target label with high confidence;
/// otherwise spread mass over all *other* labels (the recognizer knows the
/// instance is not its label, and says nothing more).
#[derive(Clone)]
pub struct Recognizer {
    name: &'static str,
    num_labels: usize,
    target: usize,
    /// Confidence when the test passes.
    hit_confidence: f64,
    test: Arc<dyn Fn(&str) -> bool + Send + Sync>,
}

impl std::fmt::Debug for Recognizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recognizer")
            .field("name", &self.name)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl Recognizer {
    /// Creates a recognizer for `target` (a label index) with the given
    /// membership test.
    pub fn new(
        name: &'static str,
        num_labels: usize,
        target: usize,
        test: impl Fn(&str) -> bool + Send + Sync + 'static,
    ) -> Self {
        assert!(target < num_labels);
        Recognizer {
            name,
            num_labels,
            target,
            hit_confidence: 0.9,
            test: Arc::new(test),
        }
    }
}

impl BaseLearner for Recognizer {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Recognizers are knowledge-based, not trained.
    fn train(&mut self, _examples: &[(Instance, usize)]) {}

    fn supports_warm_start(&self) -> bool {
        true
    }

    /// Knowledge-based: additional examples change nothing, trivially
    /// satisfying the warm-start contract.
    fn warm_train(&mut self, _examples: &[(Instance, usize)]) -> bool {
        true
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        let n = self.num_labels;
        let hit = (self.test)(instance.text);
        let mut scores = vec![0.0; n];
        if hit {
            let rest = (1.0 - self.hit_confidence) / (n - 1) as f64;
            scores.fill(rest);
            scores[self.target] = self.hit_confidence;
        } else {
            // Not my label; mildly demote the target, stay agnostic elsewhere.
            scores.fill(1.0 / (n - 1) as f64);
            scores[self.target] = 0.0;
        }
        Prediction::from_scores(scores)
    }

    /// Predicts from the instance text alone.
    fn reads(&self) -> Reads {
        Reads::Text
    }

    /// Only the built-in county recognizer is reconstructible from
    /// parameters; custom recognizers carry arbitrary closures.
    fn snapshot(&self) -> Option<crate::persist::SavedLearner> {
        if self.name == "county-recognizer" {
            Some(crate::persist::SavedLearner::CountyRecognizer {
                num_labels: self.num_labels,
                target: self.target,
            })
        } else {
            None
        }
    }
}

/// The paper's county-name recognizer, targeting the given label index
/// (typically the mediated schema's `COUNTY` tag).
pub fn county_name_recognizer(num_labels: usize, county_label: usize) -> Recognizer {
    Recognizer::new(
        "county-recognizer",
        num_labels,
        county_label,
        is_county_name,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::leaked;
    use lsd_xml::Element;

    fn inst(text: &str) -> Instance<'static> {
        leaked(Element::text_leaf("t", text), &["t"])
    }

    #[test]
    fn hit_concentrates_on_target() {
        let r = county_name_recognizer(4, 2);
        let p = r.predict(&inst("King County"));
        assert_eq!(p.best_label(), 2);
        assert!(p.score(2) >= 0.9 - 1e-9);
    }

    #[test]
    fn miss_zeroes_target() {
        let r = county_name_recognizer(4, 2);
        let p = r.predict(&inst("fantastic house"));
        assert_eq!(p.score(2), 0.0);
        assert!((p.score(0) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn custom_recognizer_scores_hits() {
        let r = Recognizer::new("zip-recognizer", 3, 1, |v| {
            v.trim().len() == 5 && v.trim().chars().all(|c| c.is_ascii_digit())
        });
        let p = r.predict(&inst("98195"));
        assert!((p.score(1) - 0.9).abs() < 1e-9);
        assert_eq!(r.predict(&inst("9819")).score(1), 0.0);
    }

    #[test]
    fn training_is_a_noop() {
        let mut r = county_name_recognizer(3, 0);
        r.train(&[(inst("whatever"), 2)]);
        assert_eq!(r.predict(&inst("King")).best_label(), 0);
    }
}

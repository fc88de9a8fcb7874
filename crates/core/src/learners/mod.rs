//! The base learners (paper Sections 3.3 and 5).
//!
//! Each base learner exploits a different type of information in the source
//! schema or data. The [`BaseLearner`] trait is the extension point the
//! paper emphasizes: "our system is extensible since we can add new
//! learners that have specific strengths in particular domains".

mod content_matcher;
mod naive_bayes;
mod name_matcher;
mod recognizer;
mod xml_learner;

pub use content_matcher::ContentMatcher;
pub use naive_bayes::NaiveBayesLearner;
pub use name_matcher::NameMatcher;
pub use recognizer::{county_name_recognizer, Recognizer};
pub use xml_learner::{XmlLearner, XmlTokenKinds};

use crate::instance::Instance;
use crate::persist::SavedLearner;
use lsd_learn::{LabelSet, Prediction};

/// The paper's base learners (Section 3.3) for a mediated schema's
/// `labels`, in combination order: the name matcher with the domain's
/// `synonyms`, the content matcher, Naive Bayes and, when the labels
/// include `COUNTY`, the county-name recognizer. The `lsd train` CLI and
/// every experiment build their systems from this one suite; the XML
/// learner (Section 5) joins it through [`crate::LsdBuilder::with_xml_learner`].
pub fn paper_suite<'a>(
    labels: &LabelSet,
    synonyms: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Vec<Box<dyn BaseLearner>> {
    let n = labels.len();
    let mut suite: Vec<Box<dyn BaseLearner>> = vec![
        Box::new(NameMatcher::with_synonym_pairs(n, synonyms)),
        Box::new(ContentMatcher::new(n)),
        Box::new(NaiveBayesLearner::new(n)),
    ];
    if let Some(county) = labels.get("COUNTY") {
        suite.push(Box::new(county_name_recognizer(n, county)));
    }
    suite
}

/// What part of an [`Instance`] a learner's prediction depends on — the
/// contract that lets the matcher predict once per distinct input.
///
/// Within one match, every instance whose declared input is equal gets
/// the prediction made for the first of them, so a learner must declare
/// no less than it reads. [`Reads::Instance`] (the default) makes no
/// promise and gets one call per instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// Only the tag path ([`Instance::path`]).
    Path,
    /// Only the subtree text ([`Instance::text`]).
    Text,
    /// Anything: the element subtree, its path, its text and `sub_labels`.
    Instance,
}

/// A base learner: trains on labelled [`Instance`]s and predicts
/// confidence-score distributions for new ones.
///
/// `Send + Sync` is part of the contract: the batch-matching engine shares
/// a trained system across scoped worker threads (`&Lsd` per worker), and
/// training runs each learner on its own thread. All built-in learners are
/// plain data; a custom learner with interior mutability must use
/// thread-safe primitives.
pub trait BaseLearner: Send + Sync {
    /// Stable display name, used in lesion studies and experiment reports.
    fn name(&self) -> &'static str;

    /// Trains from scratch on the given examples.
    fn train(&mut self, examples: &[(Instance, usize)]);

    /// Predicts the label distribution for one instance.
    fn predict(&self, instance: &Instance) -> Prediction;

    /// What [`Self::predict`] reads of an instance. Matching memoises
    /// predictions by it (see [`Reads`]). The default, [`Reads::Instance`],
    /// is always correct: a custom learner is called once per instance
    /// unless it declares a narrower input.
    fn reads(&self) -> Reads {
        Reads::Instance
    }

    /// A serializable snapshot of the trained state, if this learner
    /// supports persistence (all built-in learners do; custom learners may
    /// return `None`, which makes [`crate::Lsd::to_saved`] fail loudly
    /// rather than drop them silently).
    fn snapshot(&self) -> Option<SavedLearner> {
        None
    }

    /// Whether [`Self::warm_train`] can fold additional examples into this
    /// learner's *current* trained state. All built-in learners support it;
    /// the default is `false` so custom learners opt in explicitly.
    ///
    /// May depend on runtime state, not just the type: a learner restored
    /// from a snapshot that lacks the data needed to extend its statistics
    /// soundly should return `false` here.
    fn supports_warm_start(&self) -> bool {
        false
    }

    /// Folds additional examples into the current trained state, so that
    /// the result is equivalent to [`Self::train`] on the concatenation of
    /// all examples seen so far. Returns `false` (leaving the learner
    /// unchanged) when warm-starting is unsupported — callers should check
    /// [`Self::supports_warm_start`] on every learner *before* mutating any
    /// of them, to keep incremental training all-or-nothing.
    fn warm_train(&mut self, examples: &[(Instance, usize)]) -> bool {
        let _ = examples;
        false
    }
}

/// Each built-in learner's [`BaseLearner::reads`] is true: predictions are
/// equal whenever the declared input is, whatever else differs.
#[cfg(test)]
mod reads_contract {
    use super::*;
    use crate::instance::{leaked, leaked_labels, SubLabels};
    use lsd_xml::{parse_fragment, Element};
    use std::collections::HashMap;

    /// Labels: 0 ADDRESS, 1 PHONE, 2 DESCRIPTION, 3 CONTACT, 4 OTHER.
    const N: usize = 5;

    fn leaf(tags: &[&str], text: &str) -> Instance<'static> {
        let tag = tags.last().expect("non-empty path");
        leaked(Element::text_leaf(*tag, text), tags)
    }

    fn nested(tags: &[&str], xml: &str) -> Instance<'static> {
        leaked(parse_fragment(xml).expect("well-formed"), tags)
    }

    fn labels() -> &'static SubLabels {
        leaked_labels(SubLabels::from([
            ("location".to_string(), 0),
            ("phone".to_string(), 1),
            ("comments".to_string(), 2),
        ]))
    }

    fn trained(mut learner: Box<dyn BaseLearner>) -> Box<dyn BaseLearner> {
        let contact = |name: &str, phone: &str| {
            nested(
                &["house", "contact"],
                &format!("<contact><name>{name}</name><phone>{phone}</phone></contact>"),
            )
            .with_sub_labels(labels())
        };
        let data = [
            (leaf(&["house", "location"], "Miami, FL"), 0),
            (leaf(&["house", "area"], "Boston, MA"), 0),
            (leaf(&["house", "phone"], "(305) 729 0831"), 1),
            (leaf(&["house", "agent-phone"], "(617) 253 1429"), 1),
            (leaf(&["house", "comments"], "Great view of the bay"), 2),
            (
                leaf(&["house", "description"], "Fantastic yard, close to river"),
                2,
            ),
            (contact("Kate Richardson", "(206) 523 4719"), 3),
            (contact("Mike Smith", "(512) 555 6666"), 3),
            (leaf(&["house", "id"], "A-17"), 4),
        ];
        learner.train(&data);
        learner
    }

    fn bits(learner: &dyn BaseLearner, instance: &Instance) -> Vec<u64> {
        let pred = learner.predict(instance);
        pred.scores().iter().map(|s| s.to_bits()).collect()
    }

    const TEXTS: [&str; 5] = [
        "Miami, FL",
        "(305) 111 2222",
        "great view of the bay",
        "Kate (305) 111 2222",
        "",
    ];

    /// Same text under other tags, paths and labels — and as the subtree
    /// text of a non-leaf — gives the same prediction.
    fn assert_reads_only_text(learner: Box<dyn BaseLearner>) {
        assert_eq!(learner.reads(), Reads::Text);
        let learner = trained(learner);
        for text in TEXTS {
            let base = bits(learner.as_ref(), &leaf(&["house", "location"], text));
            let variants = [
                leaf(&["listing", "contact", "phone"], text),
                leaf(&["x"], text),
                leaf(&["house", "comments"], text).with_sub_labels(labels()),
            ];
            for variant in &variants {
                assert_eq!(bits(learner.as_ref(), variant), base, "text {text:?}");
            }
        }
        let contact = nested(
            &["house", "contact"],
            "<contact><name>Kate</name><phone>(305) 111 2222</phone></contact>",
        )
        .with_sub_labels(labels());
        assert_eq!(
            bits(learner.as_ref(), &contact),
            bits(learner.as_ref(), &leaf(&["agent"], "Kate (305) 111 2222"))
        );
    }

    #[test]
    fn name_matcher_reads_only_the_path() {
        let learner = trained(Box::new(NameMatcher::new(N, HashMap::new())));
        assert_eq!(learner.reads(), Reads::Path);
        let paths: [&[&str]; 3] = [
            &["house", "location"],
            &["house", "contact", "phone"],
            &["house"],
        ];
        for tags in paths {
            let base = bits(learner.as_ref(), &leaf(tags, "Miami, FL"));
            for text in TEXTS {
                let other = leaf(tags, text).with_sub_labels(labels());
                assert_eq!(bits(learner.as_ref(), &other), base, "path {tags:?}");
            }
            let tag = tags.last().expect("non-empty path");
            let subtree = nested(tags, &format!("<{tag}><a>1</a><b>x y</b></{tag}>"));
            assert_eq!(bits(learner.as_ref(), &subtree), base, "path {tags:?}");
        }
    }

    #[test]
    fn content_matcher_reads_only_the_text() {
        assert_reads_only_text(Box::new(ContentMatcher::new(N)));
    }

    #[test]
    fn naive_bayes_reads_only_the_text() {
        assert_reads_only_text(Box::new(NaiveBayesLearner::new(N)));
    }

    #[test]
    fn recognizers_read_only_the_text() {
        assert_reads_only_text(Box::new(county_name_recognizer(N, 0)));
        assert_reads_only_text(Box::new(Recognizer::new("phone", N, 1, |t| {
            t.starts_with('(')
        })));
    }

    /// The XML learner reads the whole instance, but a leaf only by its
    /// text: the matcher's stage-2 leaf memo rests on this.
    #[test]
    fn xml_learner_reads_a_leaf_only_by_its_text() {
        let learner = trained(Box::new(XmlLearner::new(N)));
        assert_eq!(learner.reads(), Reads::Instance);
        let other_labels = leaked_labels(SubLabels::from([
            ("location".to_string(), 2),
            ("x".to_string(), 1),
        ]));
        for text in TEXTS {
            let base = bits(learner.as_ref(), &leaf(&["house", "location"], text));
            let variants = [
                leaf(&["listing", "contact", "phone"], text),
                leaf(&["x"], text).with_sub_labels(labels()),
                leaf(&["house", "location"], text).with_sub_labels(other_labels),
            ];
            for variant in &variants {
                assert_eq!(bits(learner.as_ref(), variant), base, "text {text:?}");
            }
        }
        // A non-leaf is read through its children's labels.
        let contact = nested(
            &["house", "contact"],
            "<contact><name>Kate</name><phone>(305) 111 2222</phone></contact>",
        );
        assert_ne!(
            bits(learner.as_ref(), &contact.with_sub_labels(labels())),
            bits(
                learner.as_ref(),
                &contact.with_sub_labels(leaked_labels(SubLabels::new()))
            )
        );
    }
}

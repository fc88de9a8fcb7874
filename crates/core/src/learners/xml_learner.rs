//! The XML learner (paper Section 5, Table 2).
//!
//! Naive Bayes "flattens" instances into word bags, so it confuses classes
//! like HOUSE, CONTACT-INFO, OFFICE-INFO and AGENT-INFO that share words.
//! The XML learner keeps the hierarchy: it rebuilds the instance as a tree,
//! replaces the root with a generic root `d` and every non-root element
//! node with its *label* (true labels during training, LSD's first-pass
//! predictions during matching — carried in [`Instance::sub_labels`]), and
//! then tokenizes the tree into:
//!
//! - **text tokens** — the stemmed leaf words;
//! - **node tokens** — one per labelled node (`AGENT-NAME` appearing inside
//!   an instance is evidence about the instance's own class);
//! - **edge tokens** — `parent→child` pairs, including `d→label`,
//!   `label→label`, and `label→word` edges (the paper's
//!   `WATERFRONT→"yes"` example), which discriminate where node tokens
//!   fail (e.g. `d→AGENT-NAME` separates AGENT-INFO from HOUSE).
//!
//! The bag of all three token kinds feeds a multinomial Naive Bayes model.

use crate::instance::{Instance, SubLabels};
use crate::learners::BaseLearner;
use lsd_learn::{NaiveBayes, NaiveBayesConfig, Prediction};
use lsd_text::{for_each_token, PorterStemmer, TokenizeOptions};
use lsd_xml::{Element, Node};
use std::fmt::Write;

/// Which structure-token kinds the learner generates; all on by default.
/// Exposed for the `ablation_xml` bench (text-only degenerates to plain
/// Naive Bayes).
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct XmlTokenKinds {
    /// Stemmed leaf words.
    pub text: bool,
    /// Labels of non-root element nodes.
    pub nodes: bool,
    /// Parent→child label/word pairs.
    pub edges: bool,
}

impl Default for XmlTokenKinds {
    fn default() -> Self {
        XmlTokenKinds {
            text: true,
            nodes: true,
            edges: true,
        }
    }
}

/// The structure-aware Naive Bayes classifier of Section 5.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct XmlLearner {
    num_labels: usize,
    kinds: XmlTokenKinds,
    model: NaiveBayes,
    stemmer: PorterStemmer,
}

impl XmlLearner {
    /// Creates an untrained XML learner generating all token kinds.
    pub fn new(num_labels: usize) -> Self {
        Self::with_token_kinds(num_labels, XmlTokenKinds::default())
    }

    /// Creates an untrained XML learner with selected token kinds.
    pub fn with_token_kinds(num_labels: usize, kinds: XmlTokenKinds) -> Self {
        XmlLearner {
            num_labels,
            kinds,
            model: NaiveBayes::new(num_labels, NaiveBayesConfig::default()),
            stemmer: PorterStemmer::new(),
        }
    }

    /// The token generator for this learner's settings.
    fn tree_tokens(&self) -> TreeTokens {
        TreeTokens {
            kinds: self.kinds,
            other: self.num_labels - 1,
            stemmer: self.stemmer,
        }
    }

    /// The token bag of an instance, collected (for tests).
    #[cfg(test)]
    fn tokens(&self, instance: &Instance) -> Vec<String> {
        let mut out = Vec::new();
        self.tree_tokens()
            .feed(instance, &mut |token| out.push(token.to_string()));
        out
    }
}

/// Generates an instance's token bag from its tree, one token at a time.
#[derive(Clone, Copy)]
struct TreeTokens {
    kinds: XmlTokenKinds,
    /// The OTHER label's index, for child tags with no first-pass label.
    other: usize,
    stemmer: PorterStemmer,
}

/// A node's token identity: `d` for the instance root, `L<label>` for a
/// labelled descendant.
fn push_node_id(out: &mut String, node: Option<usize>) {
    match node {
        None => out.push('d'),
        Some(label) => {
            let _ = write!(out, "L{label}");
        }
    }
}

impl TreeTokens {
    /// Passes the instance's tokens to `sink`, each built in one reused
    /// buffer.
    fn feed(self, instance: &Instance, sink: &mut dyn FnMut(&str)) {
        let mut token = String::new();
        let mut stem = String::new();
        self.walk(
            instance.element,
            None,
            instance.sub_labels,
            &mut token,
            &mut stem,
            sink,
        );
    }

    /// Recursive tree walk below `node` (see [`push_node_id`]).
    fn walk(
        self,
        element: &Element,
        node: Option<usize>,
        sub_labels: Option<&SubLabels>,
        token: &mut String,
        stem: &mut String,
        sink: &mut dyn FnMut(&str),
    ) {
        // Direct text words hang below this node. Tokenizing each run
        // gives the tokens of the joined direct text: the join only adds
        // separators.
        for run in element.children.iter().filter_map(Node::as_text) {
            for_each_token(run, TokenizeOptions::default(), |word| {
                self.stemmer.stem_into(word, stem);
                if self.kinds.text {
                    token.clear();
                    token.push_str("w:");
                    token.push_str(stem);
                    sink(token);
                }
                if self.kinds.edges {
                    token.clear();
                    token.push_str("e:");
                    push_node_id(token, node);
                    token.push_str(">w:");
                    token.push_str(stem);
                    sink(token);
                }
            });
        }
        for child in element.child_elements() {
            // Unknown tags (no first-pass label yet) fall back to the
            // OTHER slot.
            let label = sub_labels
                .and_then(|labels| labels.get(&child.name))
                .copied()
                .unwrap_or(self.other);
            if self.kinds.nodes {
                token.clear();
                token.push_str("n:");
                push_node_id(token, Some(label));
                sink(token);
            }
            if self.kinds.edges {
                token.clear();
                token.push_str("e:");
                push_node_id(token, node);
                token.push('>');
                push_node_id(token, Some(label));
                sink(token);
            }
            self.walk(child, Some(label), sub_labels, token, stem, sink);
        }
    }
}

impl BaseLearner for XmlLearner {
    fn snapshot(&self) -> Option<crate::persist::SavedLearner> {
        Some(crate::persist::SavedLearner::Xml(self.clone()))
    }

    fn name(&self) -> &'static str {
        "xml-learner"
    }

    fn train(&mut self, examples: &[(Instance, usize)]) {
        let tokens = self.tree_tokens();
        let mut model = NaiveBayes::new(self.num_labels, NaiveBayesConfig::default());
        for (instance, label) in examples {
            model.add_example_with(*label, |sink| tokens.feed(instance, sink));
        }
        self.model = model;
    }

    fn supports_warm_start(&self) -> bool {
        true
    }

    fn warm_train(&mut self, examples: &[(Instance, usize)]) -> bool {
        let tokens = self.tree_tokens();
        for (instance, label) in examples {
            self.model
                .add_example_with(*label, |sink| tokens.feed(instance, sink));
        }
        true
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        let tokens = self.tree_tokens();
        self.model.predict_with(|sink| tokens.feed(instance, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{leaked, leaked_labels};
    use lsd_xml::parse_fragment;

    /// Labels: 0 CONTACT-INFO, 1 DESCRIPTION, 2 AGENT-NAME, 3 OFFICE-NAME,
    /// 4 OTHER.
    const N: usize = 5;

    fn labels() -> &'static SubLabels {
        leaked_labels(SubLabels::from([
            ("name".to_string(), 2usize),
            ("firm".to_string(), 3usize),
            ("agent".to_string(), 2usize),
            ("office".to_string(), 3usize),
        ]))
    }

    fn contact(name: &str, firm: &str) -> Instance<'static> {
        let el = parse_fragment(&format!(
            "<contact><name>{name}</name><firm>{firm}</firm></contact>"
        ))
        .unwrap();
        leaked(el, &["contact"]).with_sub_labels(labels())
    }

    fn description(text: &str) -> Instance<'static> {
        let el = parse_fragment(&format!("<description>{text}</description>")).unwrap();
        leaked(el, &["description"]).with_sub_labels(labels())
    }

    /// The paper's Figure 7 pair: a CONTACT-INFO element and a DESCRIPTION
    /// element that share all their words. Flat NB cannot separate them;
    /// the XML learner must.
    fn figure7_training() -> Vec<(Instance<'static>, usize)> {
        vec![
            (contact("Gail Murphy", "MAX Realtors"), 0),
            (contact("Jane Kendall", "ACME Homes"), 0),
            (contact("Mike Smith", "MAX Realtors"), 0),
            (
                description("Victorian house with a view. Contact Gail Murphy at MAX Realtors"),
                1,
            ),
            (
                description("Name your price! call Jane Kendall of ACME Homes"),
                1,
            ),
            (description("Great house. Mike Smith will show it"), 1),
        ]
    }

    fn trained(kinds: XmlTokenKinds) -> XmlLearner {
        let mut m = XmlLearner::with_token_kinds(N, kinds);
        m.train(&figure7_training());
        m
    }

    #[test]
    fn structure_tokens_separate_shared_vocabulary() {
        let m = trained(XmlTokenKinds::default());
        let c = m.predict(&contact("Pat Doe", "MAX Realtors"));
        let d = m.predict(&description("To see it, contact Pat Doe at MAX Realtors"));
        assert_eq!(c.best_label(), 0, "{:?}", c.scores());
        assert_eq!(d.best_label(), 1, "{:?}", d.scores());
    }

    #[test]
    fn text_only_kinds_degenerate_to_flat_bag() {
        // With only text tokens the two Figure-7 instances are nearly
        // indistinguishable — structure is what separates them.
        let m = trained(XmlTokenKinds {
            text: true,
            nodes: false,
            edges: false,
        });
        let c = m.predict(&contact("Gail Murphy", "MAX Realtors"));
        let full = trained(XmlTokenKinds::default());
        let c_full = full.predict(&contact("Gail Murphy", "MAX Realtors"));
        assert!(
            c_full.score(0) > c.score(0),
            "structure tokens should sharpen the correct class: full={:.3} text-only={:.3}",
            c_full.score(0),
            c.score(0)
        );
    }

    #[test]
    fn token_generation_covers_all_kinds() {
        let m = XmlLearner::new(N);
        let inst = contact("Gail Murphy", "MAX Realtors");
        let toks = m.tokens(&inst);
        // Node tokens for the two labelled children.
        assert!(toks.contains(&"n:L2".to_string()), "{toks:?}");
        assert!(toks.contains(&"n:L3".to_string()));
        // Root edges.
        assert!(toks.contains(&"e:d>L2".to_string()));
        // Label→word edge (the WATERFRONT→"yes" pattern).
        assert!(toks.contains(&"e:L2>w:gail".to_string()));
        // Text tokens.
        assert!(toks.contains(&"w:gail".to_string()));
    }

    #[test]
    fn unknown_child_tags_fall_back_to_other() {
        let m = XmlLearner::new(N);
        let el = parse_fragment("<x><mystery>v</mystery></x>").unwrap();
        let inst = leaked(el, &["x"]); // no sub_labels
        let toks = m.tokens(&inst);
        assert!(toks.contains(&format!("n:L{}", N - 1)), "{toks:?}");
    }

    #[test]
    fn root_text_gets_d_edges() {
        let m = XmlLearner::new(N);
        let inst = description("hello");
        let toks = m.tokens(&inst);
        assert!(toks.contains(&"e:d>w:hello".to_string()), "{toks:?}");
    }

    /// The token generator before it wrote into a reused buffer: one
    /// `format!`ed `String` per token.
    fn reference_tokens(m: &XmlLearner, instance: &Instance) -> Vec<String> {
        fn walk(
            m: &XmlLearner,
            element: &Element,
            parent_id: &str,
            sub_labels: Option<&SubLabels>,
            out: &mut Vec<String>,
        ) {
            for word in lsd_text::tokenize(&element.direct_text()) {
                let w = m.stemmer.stem(&word);
                if m.kinds.text {
                    out.push(format!("w:{w}"));
                }
                if m.kinds.edges {
                    out.push(format!("e:{parent_id}>w:{w}"));
                }
            }
            for child in element.child_elements() {
                let label = sub_labels
                    .and_then(|labels| labels.get(&child.name))
                    .copied()
                    .unwrap_or(m.num_labels - 1);
                let child_id = format!("L{label}");
                if m.kinds.nodes {
                    out.push(format!("n:{child_id}"));
                }
                if m.kinds.edges {
                    out.push(format!("e:{parent_id}>{child_id}"));
                }
                walk(m, child, &child_id, sub_labels, out);
            }
        }
        let mut out = Vec::new();
        walk(m, instance.element, "d", instance.sub_labels, &mut out);
        out
    }

    #[test]
    fn buffered_tokens_match_formatted_tokens_for_every_kind_set() {
        let el = parse_fragment(
            "<house>Root words <agent><name>Gail Murphy</name>\
             <mystery>(305) 729-0831 Callers</mystery></agent>\
             <office>MAX Realtors, Seattle</office> trailing café</house>",
        )
        .unwrap();
        let inst = leaked(el, &["house"]).with_sub_labels(labels());
        for bits in 0..8u8 {
            let kinds = XmlTokenKinds {
                text: bits & 1 != 0,
                nodes: bits & 2 != 0,
                edges: bits & 4 != 0,
            };
            let m = XmlLearner::with_token_kinds(12, kinds);
            assert_eq!(m.tokens(&inst), reference_tokens(&m, &inst), "{kinds:?}");
        }
    }
}

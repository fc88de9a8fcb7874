//! The format learner (paper Section 7, implemented as an extension).
//!
//! "Some tags simply require different types of learners. For example,
//! course codes are short alpha-numeric strings that consist of department
//! code followed by course number. As such, a format learner would
//! presumably match it better than any of LSD's current base learners."
//!
//! This learner abstracts each value into a character-class *pattern*
//! (runs of letters → `A`, digits → `9`, other characters kept verbatim;
//! e.g. `CSE142` → `A9`, `$70,000` → `$9,9`, `(206) 523 4719` →
//! `(9) 9 9`) and trains Naive Bayes over the patterns. It excels exactly
//! where the content matcher and Naive Bayes are weak: short numeric and
//! code-like fields whose *shape*, not vocabulary, is the signal.

use crate::instance::Instance;
use crate::learners::{BaseLearner, Reads};
use lsd_learn::{NaiveBayes, NaiveBayesConfig, Prediction};
use std::fmt::Write;

/// Naive Bayes over character-class patterns of the instance's values.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FormatLearner {
    num_labels: usize,
    model: NaiveBayes,
}

impl FormatLearner {
    /// Creates an untrained format learner.
    pub fn new(num_labels: usize) -> Self {
        FormatLearner {
            num_labels,
            model: NaiveBayes::new(num_labels, NaiveBayesConfig::default()),
        }
    }

    /// Passes the pattern tokens of one instance to `sink`, from one reused
    /// buffer: the whole-value pattern plus a length bucket, so `A9` codes
    /// of similar lengths cluster.
    fn feed(instance: &Instance, sink: &mut dyn FnMut(&str)) {
        let text = instance.text();
        let value = text.trim();
        let mut token = String::from("p:");
        push_pattern(value, &mut token);
        sink(&token);
        token.clear();
        token.push_str("len:");
        push_length_bucket(value.len(), &mut token);
        sink(&token);
        // Per-whitespace-word patterns add robustness for composite values.
        for word in value.split_whitespace() {
            token.clear();
            token.push_str("wp:");
            push_pattern(word, &mut token);
            sink(&token);
        }
    }
}

/// Appends the character-class pattern of `value` to `out`: letter runs →
/// `A`, digit runs → `9`, whitespace runs → one space, everything else
/// verbatim.
fn push_pattern(value: &str, out: &mut String) {
    #[derive(PartialEq, Clone, Copy)]
    enum Class {
        Alpha,
        Digit,
        Space,
        Other,
    }
    let mut prev: Option<Class> = None;
    for c in value.chars() {
        let class = if c.is_alphabetic() {
            Class::Alpha
        } else if c.is_ascii_digit() {
            Class::Digit
        } else if c.is_whitespace() {
            Class::Space
        } else {
            Class::Other
        };
        let repeat_collapsed = matches!(class, Class::Alpha | Class::Digit | Class::Space);
        if repeat_collapsed && prev == Some(class) {
            continue;
        }
        match class {
            Class::Alpha => out.push('A'),
            Class::Digit => out.push('9'),
            Class::Space => out.push(' '),
            Class::Other => out.push(c),
        }
        prev = Some(class);
    }
}

/// Appends a coarse length token to `out`: exact to 6, then ranges.
fn push_length_bucket(len: usize, out: &mut String) {
    match len {
        0..=6 => {
            let _ = write!(out, "{len}");
        }
        7..=10 => out.push_str("7-10"),
        11..=20 => out.push_str("11-20"),
        _ => out.push_str("20+"),
    }
}

impl BaseLearner for FormatLearner {
    fn snapshot(&self) -> Option<crate::persist::SavedLearner> {
        Some(crate::persist::SavedLearner::Format(self.clone()))
    }

    fn name(&self) -> &'static str {
        "format-learner"
    }

    fn train(&mut self, examples: &[(&Instance, usize)]) {
        let mut model = NaiveBayes::new(self.num_labels, NaiveBayesConfig::default());
        for (instance, label) in examples {
            model.add_example_with(*label, |sink| Self::feed(instance, sink));
        }
        self.model = model;
    }

    fn supports_warm_start(&self) -> bool {
        true
    }

    fn warm_train(&mut self, examples: &[(&Instance, usize)]) -> bool {
        for (instance, label) in examples {
            self.model
                .add_example_with(*label, |sink| Self::feed(instance, sink));
        }
        true
    }

    fn predict(&self, instance: &Instance) -> Prediction {
        self.model.predict_with(|sink| Self::feed(instance, sink))
    }

    /// Predicts from the instance text alone.
    fn reads(&self) -> Reads {
        Reads::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::Element;

    fn inst(text: &str) -> Instance {
        Instance::new(Element::text_leaf("t", text), vec!["t".to_string()])
    }

    fn pattern_of(value: &str) -> String {
        let mut out = String::new();
        push_pattern(value, &mut out);
        out
    }

    #[test]
    fn patterns_abstract_shape() {
        assert_eq!(pattern_of("CSE142"), "A9");
        assert_eq!(pattern_of("$70,000"), "$9,9");
        assert_eq!(pattern_of("(206) 523 4719"), "(9) 9 9");
        assert_eq!(pattern_of("Seattle, WA"), "A, A");
        assert_eq!(pattern_of(""), "");
        assert_eq!(pattern_of("a  b"), "A A");
    }

    /// Labels: 0 COURSE-CODE, 1 PRICE, 2 CREDITS.
    fn trained() -> FormatLearner {
        let mut m = FormatLearner::new(3);
        let ex = [
            (inst("CSE142"), 0),
            (inst("MATH126"), 0),
            (inst("BIO101"), 0),
            (inst("$250,000"), 1),
            (inst("$1,100,000"), 1),
            (inst("$90,000"), 1),
            (inst("3"), 2),
            (inst("4"), 2),
            (inst("5"), 2),
        ];
        let refs: Vec<(&Instance, usize)> = ex.iter().map(|(i, l)| (i, *l)).collect();
        m.train(&refs);
        m
    }

    #[test]
    fn classifies_by_shape_not_vocabulary() {
        let m = trained();
        // Unseen department code, unseen number: only the shape matches.
        assert_eq!(m.predict(&inst("PHYS121")).best_label(), 0);
        assert_eq!(m.predict(&inst("$475,000")).best_label(), 1);
        assert_eq!(m.predict(&inst("2")).best_label(), 2);
    }

    #[test]
    fn single_digit_vs_code_distinction() {
        let m = trained();
        let code = m.predict(&inst("CHEM237"));
        let credit = m.predict(&inst("3"));
        assert_ne!(code.best_label(), credit.best_label());
    }
}

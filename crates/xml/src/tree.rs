//! In-memory XML document model.
//!
//! The model is deliberately simple: an [`Element`] has a name, an ordered
//! list of attributes, and an ordered list of child [`Node`]s (elements or
//! text runs). This matches the subset of XML the LSD paper works with —
//! data-centric documents with associated DTDs.

use serde::{Deserialize, Serialize};

/// A parsed XML document: a root element (prolog/comments are discarded).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    /// The unique root element in which all others are nested.
    pub root: Element,
}

/// One node in an element's content: either a child element or a text run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// A nested child element.
    Element(Element),
    /// A run of character data (entity references already resolved).
    Text(String),
}

impl Node {
    /// Returns the contained element, if this node is an element.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Returns the contained text, if this node is a text run.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Element(_) => None,
            Node::Text(t) => Some(t),
        }
    }
}

/// An XML element: tag name, attributes, and ordered child nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Element {
    /// Tag name, e.g. `house-listing`.
    pub name: String,
    /// Attributes in document order as `(name, value)` pairs.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Creates a leaf element wrapping a single text run.
    pub fn text_leaf(name: impl Into<String>, text: impl Into<String>) -> Self {
        let mut e = Element::new(name);
        e.children.push(Node::Text(text.into()));
        e
    }

    /// Builder-style: appends a child element and returns `self`.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: appends an attribute and returns `self`.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Appends a child element in place.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Appends a text run in place.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Iterates over child *elements* only, skipping text runs.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Returns the first child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// True if the element contains no child elements (text only or empty).
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|c| matches!(c, Node::Text(_)))
    }

    /// Concatenates the direct text runs of this element (not descendants),
    /// trimming surrounding whitespace and separating runs with one space.
    pub fn direct_text(&self) -> String {
        join_text(self.children.iter().filter_map(Node::as_text))
    }

    /// Concatenates all text in the subtree rooted at this element, in
    /// document order, separating runs with one space.
    pub fn deep_text(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        collect_text(self, &mut parts);
        join_text(parts.into_iter())
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Per the paper's convention (Section 2.1), attributes are treated the
    /// same as sub-elements: this returns a copy of the element in which each
    /// attribute `n="v"` becomes a leading child `<n>v</n>`.
    pub fn attributes_as_children(&self) -> Element {
        let mut out = Element::new(self.name.clone());
        for (n, v) in &self.attributes {
            out.children
                .push(Node::Element(Element::text_leaf(n.clone(), v.clone())));
        }
        for c in &self.children {
            match c {
                Node::Element(e) => out.children.push(Node::Element(e.attributes_as_children())),
                Node::Text(t) => out.children.push(Node::Text(t.clone())),
            }
        }
        out
    }

    /// Number of elements in the subtree (including this one).
    pub fn subtree_size(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::subtree_size)
            .sum::<usize>()
    }

    /// Maximum nesting depth of the subtree; a leaf has depth 1.
    pub fn depth(&self) -> usize {
        1 + self.child_elements().map(Element::depth).max().unwrap_or(0)
    }

    /// Visits every element in the subtree in document (pre-)order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Element)) {
        f(self);
        for c in self.child_elements() {
            c.visit(f);
        }
    }
}

fn join_text<'a>(parts: impl Iterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for p in parts {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(p);
    }
    out
}

fn collect_text<'a>(e: &'a Element, out: &mut Vec<&'a str>) {
    for c in &e.children {
        match c {
            Node::Text(t) => out.push(t),
            Node::Element(ch) => collect_text(ch, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing() -> Element {
        Element::new("house-listing")
            .with_child(Element::text_leaf("location", "Seattle, WA"))
            .with_child(Element::text_leaf("price", " $70,000 "))
            .with_child(
                Element::new("contact")
                    .with_child(Element::text_leaf("name", "Kate Richardson"))
                    .with_child(Element::text_leaf("phone", "(206) 523 4719")),
            )
    }

    #[test]
    fn builders_compose() {
        let e = listing();
        assert_eq!(e.name, "house-listing");
        assert_eq!(e.child_elements().count(), 3);
        assert_eq!(e.child("price").unwrap().direct_text(), "$70,000");
    }

    #[test]
    fn deep_text_concatenates_in_document_order() {
        let e = listing();
        assert_eq!(
            e.deep_text(),
            "Seattle, WA $70,000 Kate Richardson (206) 523 4719"
        );
    }

    #[test]
    fn direct_text_ignores_descendants() {
        let e = listing();
        assert_eq!(e.direct_text(), "");
        assert_eq!(e.child("location").unwrap().direct_text(), "Seattle, WA");
    }

    #[test]
    fn leaf_detection() {
        let e = listing();
        assert!(!e.is_leaf());
        assert!(e.child("location").unwrap().is_leaf());
        assert!(Element::new("empty").is_leaf());
    }

    #[test]
    fn subtree_size_and_depth() {
        let e = listing();
        assert_eq!(e.subtree_size(), 6);
        assert_eq!(e.depth(), 3);
        assert_eq!(Element::new("x").depth(), 1);
    }

    #[test]
    fn attributes_become_children() {
        let e = Element::new("listing")
            .with_attr("id", "42")
            .with_child(Element::text_leaf("price", "$1"));
        let converted = e.attributes_as_children();
        assert_eq!(converted.child_elements().count(), 2);
        let first = converted.child_elements().next().unwrap();
        assert_eq!(first.name, "id");
        assert_eq!(first.direct_text(), "42");
    }

    #[test]
    fn visit_preorder() {
        let e = listing();
        let mut names = Vec::new();
        e.visit(&mut |el| names.push(el.name.clone()));
        assert_eq!(names[0], "house-listing");
        assert_eq!(names.len(), 6);
        assert_eq!(names[3], "contact");
    }

    #[test]
    fn attribute_lookup() {
        let e = Element::new("x").with_attr("k", "v").with_attr("k2", "v2");
        assert_eq!(e.attribute("k"), Some("v"));
        assert_eq!(e.attribute("missing"), None);
    }
}

//! Instances: the XML element occurrences the learners classify.
//!
//! In the matching phase "LSD extracts data from the source, and creates for
//! each source-schema element a column of XML elements that belong to it"
//! (Section 3). An [`Instance`] is one such element occurrence plus the
//! context the learners need: the tag path from the listing root and — for
//! the XML learner — the (true or currently-predicted) labels of the tags
//! below it.

use lsd_constraints::SourceData;
use lsd_xml::{Element, Node};
use rand::seq::SliceRandom;
use rand::RngCore;
use std::collections::HashMap;

/// One occurrence of a source tag in a listing.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The element subtree (the element itself plus everything below it).
    pub element: Element,
    /// Tag names from the listing root down to this element, inclusive —
    /// the name matcher learns from the whole path (Section 3.3: the tag
    /// name is "expanded with … all tag names leading to this element from
    /// the root element").
    pub path: Vec<String>,
    /// Per source tag, the label index of that tag — the true labels during
    /// training, or LSD's first-pass predictions during matching. Consumed
    /// by the XML learner (Section 5) to turn non-leaf descendants into
    /// node/edge tokens. Empty when structure labels are unavailable.
    pub sub_labels: HashMap<String, usize>,
}

impl Instance {
    /// Creates an instance with no structure-label context.
    pub fn new(element: Element, path: Vec<String>) -> Self {
        Instance {
            element,
            path,
            sub_labels: HashMap::new(),
        }
    }

    /// The tag name of the instance's element.
    pub fn tag(&self) -> &str {
        &self.element.name
    }

    /// All text in the instance's subtree.
    pub fn text(&self) -> String {
        self.element.deep_text()
    }

    /// Returns a copy with the given structure labels attached.
    pub fn with_sub_labels(mut self, sub_labels: HashMap<String, usize>) -> Self {
        self.sub_labels = sub_labels;
        self
    }
}

/// One borrowed pass over a source's listings: every element occurrence,
/// with its tag, root path and deep text, and no element cloned. Matching,
/// training and the constraint [`SourceData`] all read the same walk;
/// only the occurrences that subsampling keeps become owned [`Instance`]s
/// (see [`SourceWalk::sample`] and [`SourceWalk::instance`]).
///
/// Occurrences are identified by `usize` ids. Each column lists its ids in
/// *extraction order*: listing by listing, a stack-based depth-first walk
/// that visits the last child first. That order fixes which instances a
/// seeded subsample keeps, so it must not change.
pub struct SourceWalk<'a> {
    /// Occurrences in document pre-order, listing after listing.
    nodes: Vec<WalkNode<'a>>,
    /// The id of each listing's root occurrence.
    roots: Vec<usize>,
    /// Per tag, its occurrence ids in extraction order.
    columns: HashMap<&'a str, Vec<usize>>,
}

struct WalkNode<'a> {
    element: &'a Element,
    parent: Option<usize>,
    /// One past the id of this subtree's last occurrence.
    end: usize,
    /// All text in the subtree, as [`Element::deep_text`] joins it.
    text: String,
}

impl<'a> SourceWalk<'a> {
    /// Walks `listings` once. Each occurrence's deep text is joined from
    /// its direct text runs and its children's deep texts, so a listing's
    /// text is joined once rather than once per ancestor.
    pub fn new(listings: &'a [Element]) -> Self {
        let mut walk = SourceWalk {
            nodes: Vec::new(),
            roots: Vec::with_capacity(listings.len()),
            columns: HashMap::new(),
        };
        for listing in listings {
            let root = walk.push(listing, None);
            walk.roots.push(root);
        }
        let mut stack = Vec::new();
        for &root in &walk.roots {
            stack.push(root);
            while let Some(id) = stack.pop() {
                let node = &walk.nodes[id];
                walk.columns
                    .entry(node.element.name.as_str())
                    .or_default()
                    .push(id);
                // Children in document order, so the last one pops first.
                let mut child = id + 1;
                while child < node.end {
                    stack.push(child);
                    child = walk.nodes[child].end;
                }
            }
        }
        walk
    }

    /// Appends `element`'s subtree in document pre-order; returns its id.
    fn push(&mut self, element: &'a Element, parent: Option<usize>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(WalkNode {
            element,
            parent,
            end: 0,
            text: String::new(),
        });
        let mut text = String::new();
        for child in &element.children {
            match child {
                Node::Text(run) => push_text_part(&mut text, run),
                Node::Element(e) => {
                    let child_id = self.push(e, Some(id));
                    push_text_part(&mut text, &self.nodes[child_id].text);
                }
            }
        }
        let end = self.nodes.len();
        let node = &mut self.nodes[id];
        node.end = end;
        node.text = text;
        id
    }

    /// The tags that occur at least once, in no particular order.
    pub fn tags(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.columns.keys().copied()
    }

    /// The occurrence ids of `tag` in extraction order (empty if it never
    /// occurs).
    pub fn column(&self, tag: &str) -> &[usize] {
        self.columns.get(tag).map_or(&[], Vec::as_slice)
    }

    /// `tag`'s column cut to at most `cap` uniformly chosen occurrences
    /// (`cap == 0` keeps all). The shuffle is over ids, but it makes the
    /// same draws from `rng` as shuffling the owned instances would (the
    /// draws depend only on the length), so the kept occurrences and their
    /// order are the same.
    pub fn sample(&self, tag: &str, cap: usize, rng: &mut impl RngCore) -> Vec<usize> {
        let mut ids = self.column(tag).to_vec();
        if cap != 0 && ids.len() > cap {
            ids.shuffle(rng);
            ids.truncate(cap);
        }
        ids
    }

    /// The occurrence's deep text (the same string [`Instance::text`]
    /// returns for its instance).
    pub fn text(&self, id: usize) -> &str {
        &self.nodes[id].text
    }

    /// The occurrence as an owned [`Instance`]: its element subtree and
    /// root path are cloned here, and only here.
    pub fn instance(&self, id: usize) -> Instance {
        let mut path = Vec::new();
        let mut at = Some(id);
        while let Some(i) = at {
            path.push(self.nodes[i].element.name.clone());
            at = self.nodes[i].parent;
        }
        path.reverse();
        Instance::new(self.nodes[id].element.clone(), path)
    }

    /// The row-aligned [`SourceData`] used by column constraints: one row
    /// per listing, each tag's cell holding the text of that tag's
    /// occurrences in the listing (joined in document order when repeated).
    pub fn source_data<'t>(&self, tags: impl IntoIterator<Item = &'t str>) -> SourceData {
        let mut data = SourceData::new(tags);
        for &root in &self.roots {
            data.push_row(
                self.nodes[root..self.nodes[root].end]
                    .iter()
                    .map(|n| (n.element.name.as_str(), n.text.as_str())),
            );
        }
        data
    }
}

/// Appends one text part the way [`Element::deep_text`] joins runs:
/// trimmed, skipped when empty, separated by one space.
fn push_text_part(out: &mut String, part: &str) {
    let part = part.trim();
    if part.is_empty() {
        return;
    }
    if !out.is_empty() {
        out.push(' ');
    }
    out.push_str(part);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::parse_fragment;

    fn listings() -> Vec<Element> {
        vec![
            parse_fragment(
                "<listing><area>Miami, FL</area>\
                 <contact><name>Kate</name><phone>(305) 111 2222</phone></contact></listing>",
            )
            .unwrap(),
            parse_fragment(
                "<listing><area>Boston, MA</area>\
                 <contact><name>Mike</name><phone>(617) 333 4444</phone></contact></listing>",
            )
            .unwrap(),
        ]
    }

    #[test]
    fn extracts_one_column_per_tag() {
        let listings = listings();
        let walk = SourceWalk::new(&listings);
        assert_eq!(walk.tags().count(), 5);
        assert_eq!(walk.column("area").len(), 2);
        assert_eq!(walk.column("contact").len(), 2);
        assert_eq!(walk.column("listing").len(), 2);
        assert!(walk.column("absent").is_empty());
    }

    #[test]
    fn instance_paths_run_from_root() {
        let listings = listings();
        let walk = SourceWalk::new(&listings);
        let phone = walk.instance(walk.column("phone")[0]);
        assert_eq!(phone.path, vec!["listing", "contact", "phone"]);
        let root = walk.instance(walk.column("listing")[0]);
        assert_eq!(root.path, vec!["listing"]);
    }

    #[test]
    fn instance_text_is_subtree_text() {
        let listings = listings();
        let walk = SourceWalk::new(&listings);
        let contact_texts: Vec<String> = walk
            .column("contact")
            .iter()
            .map(|&id| walk.instance(id).text())
            .collect();
        assert!(contact_texts.contains(&"Kate (305) 111 2222".to_string()));
        for &id in walk.column("contact") {
            assert_eq!(walk.text(id), walk.instance(id).text());
        }
    }

    #[test]
    fn source_data_rows_align_with_listings() {
        let listings = listings();
        let data =
            SourceWalk::new(&listings).source_data(["listing", "area", "contact", "name", "phone"]);
        assert_eq!(data.num_rows(), 2);
        let areas = data.column("area");
        assert_eq!(areas.len(), 2);
        assert!(areas.contains(&"Miami, FL"));
        // Non-leaf tag cells hold the subtree text.
        assert!(data.column("contact")[0].contains("Kate"));
    }

    #[test]
    fn sub_labels_attach() {
        let listings = listings();
        let walk = SourceWalk::new(&listings);
        let inst = walk
            .instance(walk.column("contact")[0])
            .with_sub_labels(HashMap::from([("name".to_string(), 3usize)]));
        assert_eq!(inst.sub_labels.get("name"), Some(&3));
    }

    #[test]
    fn empty_listings_give_empty_columns() {
        let walk = SourceWalk::new(&[]);
        assert_eq!(walk.tags().count(), 0);
        let data = walk.source_data(["a"]);
        assert_eq!(data.num_rows(), 0);
    }
}

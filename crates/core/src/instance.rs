//! Instances: the XML element occurrences the learners classify.
//!
//! In the matching phase "LSD extracts data from the source, and creates for
//! each source-schema element a column of XML elements that belong to it"
//! (Section 3). An [`Instance`] is one such element occurrence plus the
//! context the learners need: the tag path from the listing root, the
//! subtree text and — for the XML learner — the (true or currently-predicted)
//! labels of the tags below it. It borrows all of them.

use lsd_constraints::SourceData;
use lsd_xml::{Element, Node};
use rand::seq::SliceRandom;
use rand::RngCore;
use std::collections::HashMap;

/// Per source tag, a label index (see [`Instance::sub_labels`]).
pub type SubLabels = HashMap<String, usize>;

/// One occurrence of a source tag in a listing, borrowed from its listing
/// and from the [`SourceWalk`] that found it.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    /// The element subtree (the element itself plus everything below it).
    pub element: &'a Element,
    /// Tag names from the listing root down to this element, inclusive —
    /// the name matcher learns from the whole path (Section 3.3: the tag
    /// name is "expanded with … all tag names leading to this element from
    /// the root element").
    pub path: &'a [&'a str],
    /// All text in the subtree, as [`Element::deep_text`] joins it.
    pub text: &'a str,
    /// Per source tag, the label index of that tag — the true labels during
    /// training, or LSD's first-pass predictions during matching. Consumed
    /// by the XML learner (Section 5) to turn non-leaf descendants into
    /// node/edge tokens. `None` when structure labels are unavailable.
    pub sub_labels: Option<&'a SubLabels>,
}

impl<'a> Instance<'a> {
    /// An instance with no structure-label context. `text` must be
    /// `element`'s [`Element::deep_text`]: learners read it instead of
    /// joining the subtree's text again.
    pub fn new(element: &'a Element, path: &'a [&'a str], text: &'a str) -> Self {
        Instance {
            element,
            path,
            text,
            sub_labels: None,
        }
    }

    /// The tag name of the instance's element.
    pub fn tag(&self) -> &'a str {
        &self.element.name
    }

    /// The instance with the given structure labels attached.
    pub fn with_sub_labels(self, sub_labels: &'a SubLabels) -> Self {
        Instance {
            sub_labels: Some(sub_labels),
            ..self
        }
    }
}

/// One borrowed pass over a source's listings: every element occurrence,
/// with its tag, root path and deep text, and no element or string cloned.
/// Matching, training and the constraint [`SourceData`] all read the same
/// walk, and the [`Instance`]s it hands out borrow from it.
///
/// All text of the listings is joined once, into one string, the way
/// [`Element::deep_text`] joins runs: trimmed, empty runs skipped, one
/// space between runs. An occurrence's deep text is then the slice from
/// its subtree's first run to its last. The root paths share one arena
/// the same way.
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
    /// Per tag, its column: an index into `columns`.
    index: HashMap<&'a str, usize>,
    /// Per column, its tag and its occurrence ids in extraction order.
    columns: Vec<(&'a str, Vec<usize>)>,
    /// Every text run of every listing, joined.
    text: String,
    /// Every occurrence's root path, back to back.
    paths: Vec<&'a str>,
}

struct WalkNode<'a> {
    element: &'a Element,
    /// The occurrence's column (its tag).
    column: usize,
    /// One past the id of this subtree's last occurrence.
    end: usize,
    /// The subtree's deep text: a byte range of the joined text.
    text: (usize, usize),
    /// The root path: a range of the path arena.
    path: (usize, usize),
}

impl<'a> SourceWalk<'a> {
    /// Walks `listings` once.
    pub fn new(listings: &'a [Element]) -> Self {
        let mut walk = SourceWalk {
            nodes: Vec::new(),
            roots: Vec::with_capacity(listings.len()),
            index: HashMap::new(),
            columns: Vec::new(),
            text: String::new(),
            paths: Vec::new(),
        };
        let mut ancestors = Vec::new();
        for listing in listings {
            let root = walk.push(listing, &mut ancestors);
            walk.roots.push(root);
        }
        let mut stack = Vec::new();
        for &root in &walk.roots {
            stack.push(root);
            while let Some(id) = stack.pop() {
                let node = &walk.nodes[id];
                walk.columns[node.column].1.push(id);
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

    /// Appends `element`'s subtree in document pre-order, below the path
    /// `ancestors`; returns its id.
    fn push(&mut self, element: &'a Element, ancestors: &mut Vec<&'a str>) -> usize {
        let id = self.nodes.len();
        let columns = &mut self.columns;
        let column = *self.index.entry(element.name.as_str()).or_insert_with(|| {
            columns.push((element.name.as_str(), Vec::new()));
            columns.len() - 1
        });
        ancestors.push(&element.name);
        let path_start = self.paths.len();
        self.paths.extend_from_slice(ancestors);
        self.nodes.push(WalkNode {
            element,
            column,
            end: 0,
            text: (0, 0),
            path: (path_start, self.paths.len()),
        });
        let text_start = self.text.len();
        for child in &element.children {
            match child {
                Node::Text(run) => self.push_run(run),
                Node::Element(e) => {
                    self.push(e, ancestors);
                }
            }
        }
        ancestors.pop();
        let (end, text_end) = (self.nodes.len(), self.text.len());
        let node = &mut self.nodes[id];
        node.end = end;
        if text_end > text_start {
            // The first run of the subtree follows a separating space
            // unless it opens the joined text.
            node.text = (text_start + usize::from(text_start > 0), text_end);
        }
        id
    }

    /// Appends one text run the way [`Element::deep_text`] joins runs:
    /// trimmed, skipped when empty, separated by one space.
    fn push_run(&mut self, run: &str) {
        let run = run.trim();
        if run.is_empty() {
            return;
        }
        if !self.text.is_empty() {
            self.text.push(' ');
        }
        self.text.push_str(run);
    }

    /// The tags that occur at least once, in order of first occurrence.
    pub fn tags(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.columns.iter().map(|&(tag, _)| tag)
    }

    /// The occurrence ids of `tag` in extraction order (empty if it never
    /// occurs).
    pub fn column(&self, tag: &str) -> &[usize] {
        self.index
            .get(tag)
            .map_or(&[], |&c| self.columns[c].1.as_slice())
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

    /// The occurrence's deep text (the same string as its
    /// [`Instance::text`]).
    pub fn text(&self, id: usize) -> &str {
        let (start, end) = self.nodes[id].text;
        &self.text[start..end]
    }

    /// The occurrence as an [`Instance`] borrowing its element, root path
    /// and text from this walk.
    pub fn instance(&self, id: usize) -> Instance<'_> {
        let node = &self.nodes[id];
        let (start, end) = node.path;
        Instance::new(node.element, &self.paths[start..end], self.text(id))
    }

    /// The row-aligned [`SourceData`] used by column constraints: one row
    /// per listing, each tag's cell borrowing the text of that tag's
    /// occurrence in the listing (joined in document order when repeated).
    pub fn source_data<'t>(&self, tags: impl IntoIterator<Item = &'t str>) -> SourceData<'_> {
        let mut data = SourceData::new(tags);
        let cells: Vec<Option<usize>> = self
            .columns
            .iter()
            .map(|&(tag, _)| data.tag_index(tag))
            .collect();
        for &root in &self.roots {
            data.push_cells(
                (root..self.nodes[root].end)
                    .filter_map(|id| Some((cells[self.nodes[id].column]?, self.text(id)))),
            );
        }
        data
    }
}

/// A stand-alone instance for unit tests: its element, path and deep text
/// are leaked so that it borrows nothing from the test's stack.
#[cfg(test)]
pub(crate) fn leaked(element: Element, path: &[&str]) -> Instance<'static> {
    let element: &'static Element = Box::leak(Box::new(element));
    let path: Vec<&'static str> = path
        .iter()
        .map(|tag| &*Box::leak(Box::<str>::from(*tag)))
        .collect();
    let text = Box::leak(element.deep_text().into_boxed_str());
    Instance::new(element, Box::leak(path.into_boxed_slice()), text)
}

/// Structure labels leaked for a [`leaked`] instance.
#[cfg(test)]
pub(crate) fn leaked_labels(labels: SubLabels) -> &'static SubLabels {
    Box::leak(Box::new(labels))
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
        assert_eq!(phone.path, ["listing", "contact", "phone"]);
        let root = walk.instance(walk.column("listing")[0]);
        assert_eq!(root.path, ["listing"]);
    }

    #[test]
    fn instance_text_is_subtree_text() {
        let listings = listings();
        let walk = SourceWalk::new(&listings);
        let contact_texts: Vec<&str> = walk
            .column("contact")
            .iter()
            .map(|&id| walk.instance(id).text)
            .collect();
        assert!(contact_texts.contains(&"Kate (305) 111 2222"));
        for tag in walk.tags() {
            for &id in walk.column(tag) {
                let instance = walk.instance(id);
                assert_eq!(instance.text, instance.element.deep_text());
                assert_eq!(walk.text(id), instance.text);
            }
        }
    }

    #[test]
    fn source_data_rows_align_with_listings() {
        let listings = listings();
        let walk = SourceWalk::new(&listings);
        let data = walk.source_data(["listing", "area", "contact", "name", "phone"]);
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
        let labels = SubLabels::from([("name".to_string(), 3usize)]);
        let inst = walk
            .instance(walk.column("contact")[0])
            .with_sub_labels(&labels);
        assert_eq!(inst.sub_labels.and_then(|l| l.get("name")), Some(&3));
    }

    #[test]
    fn empty_listings_give_empty_columns() {
        let walk = SourceWalk::new(&[]);
        assert_eq!(walk.tags().count(), 0);
        let data = walk.source_data(["a"]);
        assert_eq!(data.num_rows(), 0);
    }
}

//! Schema trees: the structural view of a DTD used by LSD.
//!
//! The constraint handler asks questions like "is `b` nested in `a`?",
//! "are `a` and `b` siblings, and which tags sit between them?", and the
//! user-feedback loop orders tags by how much structure lies below them.
//! [`SchemaTree`] precomputes all of that from a [`Dtd`].

use crate::dtd::Dtd;
use crate::error::XmlError;
use crate::Result;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Precomputed structural information about one tag in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagInfo {
    /// The tag name.
    pub name: String,
    /// Depth in the schema tree; the root has depth 1.
    pub depth: usize,
    /// True if the tag's content model references no child elements.
    pub is_leaf: bool,
    /// Direct parents (a tag may be referenced by several content models).
    pub parents: Vec<String>,
    /// Direct children in content-model order.
    pub children: Vec<String>,
    /// One slash-joined path from the root to this tag (shortest, first
    /// found), e.g. `house-listing/contact/phone`.
    pub path: String,
}

/// The structural view of a DTD: tags, parent/child edges, depths, paths.
#[derive(Debug, Clone)]
pub struct SchemaTree {
    root: String,
    tags: Vec<TagInfo>,
    index: HashMap<String, usize>,
    /// `descendants[i]` = set of tag indices reachable below tag `i`.
    descendants: Vec<BTreeSet<usize>>,
}

impl SchemaTree {
    /// Builds the schema tree for a DTD. The DTD must be closed (every
    /// referenced element declared).
    pub fn from_dtd(dtd: &Dtd) -> Result<Self> {
        dtd.check_closed()?;
        let root = dtd.root_name()?.to_string();

        let names: Vec<String> = dtd.element_names().map(str::to_string).collect();
        let index: HashMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();

        let mut children: Vec<Vec<String>> = Vec::with_capacity(names.len());
        let mut parents: Vec<Vec<String>> = vec![Vec::new(); names.len()];
        for decl in dtd.declarations() {
            let kids = decl.content.referenced_names();
            let pi = index[&decl.name];
            for k in &kids {
                let ki = index[k];
                if !parents[ki].contains(&decl.name) {
                    parents[ki].push(decl.name.clone());
                }
                let _ = pi; // parent index retained for clarity
            }
            children.push(kids);
        }

        // BFS from the root for depth and a canonical path per tag.
        let mut depth = vec![usize::MAX; names.len()];
        let mut path = vec![String::new(); names.len()];
        let ri = *index
            .get(&root)
            .ok_or_else(|| XmlError::UndeclaredElement { name: root.clone() })?;
        depth[ri] = 1;
        path[ri] = root.clone();
        let mut queue = VecDeque::from([ri]);
        while let Some(i) = queue.pop_front() {
            for k in &children[i] {
                let ki = index[k];
                if depth[ki] == usize::MAX {
                    depth[ki] = depth[i] + 1;
                    path[ki] = format!("{}/{}", path[i], k);
                    queue.push_back(ki);
                }
            }
        }

        // Transitive descendants, computed per tag by DFS (schemas are small).
        let child_idx: Vec<Vec<usize>> = children
            .iter()
            .map(|kids| kids.iter().map(|k| index[k]).collect())
            .collect();
        let mut descendants = vec![BTreeSet::new(); names.len()];
        for i in 0..names.len() {
            let mut seen = BTreeSet::new();
            let mut stack: Vec<usize> = child_idx[i].clone();
            while let Some(j) = stack.pop() {
                if seen.insert(j) {
                    stack.extend(child_idx[j].iter().copied());
                }
            }
            descendants[i] = seen;
        }

        let tags: Vec<TagInfo> = names
            .iter()
            .enumerate()
            .map(|(i, n)| TagInfo {
                name: n.clone(),
                depth: if depth[i] == usize::MAX { 0 } else { depth[i] },
                is_leaf: children[i].is_empty(),
                parents: parents[i].clone(),
                children: children[i].clone(),
                path: path[i].clone(),
            })
            .collect();

        Ok(SchemaTree {
            root,
            tags,
            index,
            descendants,
        })
    }

    /// The root tag name.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// All tags in declaration order.
    pub fn tags(&self) -> impl Iterator<Item = &TagInfo> {
        self.tags.iter()
    }

    /// Number of tags in the schema.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if the schema has no tags.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// All tag names in declaration order.
    pub fn tag_names(&self) -> impl Iterator<Item = &str> {
        self.tags.iter().map(|t| t.name.as_str())
    }

    /// Looks up a tag's info.
    pub fn tag(&self, name: &str) -> Option<&TagInfo> {
        self.index.get(name).map(|&i| &self.tags[i])
    }

    /// Names of the non-leaf tags (tags with element content).
    pub fn non_leaf_tags(&self) -> impl Iterator<Item = &str> {
        self.tags
            .iter()
            .filter(|t| !t.is_leaf)
            .map(|t| t.name.as_str())
    }

    /// Maximum tag depth (the paper's Table 3 "Depth" column).
    pub fn max_depth(&self) -> usize {
        self.tags.iter().map(|t| t.depth).max().unwrap_or(0)
    }

    /// True if `inner` appears (transitively) below `outer`.
    pub fn is_nested_in(&self, inner: &str, outer: &str) -> bool {
        match (self.index.get(inner), self.index.get(outer)) {
            (Some(&ii), Some(&oi)) => self.descendants[oi].contains(&ii),
            _ => false,
        }
    }

    /// For siblings `a` and `b` under a shared parent, the tags declared
    /// between them in content-model order. Empty if they are adjacent;
    /// `None` if they are not siblings.
    pub fn tags_between(&self, a: &str, b: &str) -> Option<Vec<String>> {
        if a == b {
            return None; // a tag is not its own sibling
        }
        let (ta, tb) = (self.tag(a)?, self.tag(b)?);
        let parent = ta.parents.iter().find(|p| tb.parents.contains(p))?;
        let siblings = &self.tag(parent)?.children;
        let ia = siblings.iter().position(|s| s == a)?;
        let ib = siblings.iter().position(|s| s == b)?;
        let (lo, hi) = if ia < ib { (ia, ib) } else { (ib, ia) };
        Some(siblings[lo + 1..hi].to_vec())
    }

    /// Number of distinct tags nestable (transitively) within `tag`. The
    /// paper (Section 6.3) uses this as the constraint-participation score
    /// that orders tags for user feedback and for the A* refinement order.
    pub fn nestable_count(&self, tag: &str) -> usize {
        self.index
            .get(tag)
            .map_or(0, |&i| self.descendants[i].len())
    }

    /// Tag names ordered by decreasing [`Self::nestable_count`], ties broken
    /// by declaration order — the feedback/search order of Section 6.3.
    pub fn tags_by_structure_score(&self) -> Vec<&str> {
        let mut order: Vec<usize> = (0..self.tags.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.descendants[i].len()));
        order
            .into_iter()
            .map(|i| self.tags[i].name.as_str())
            .collect()
    }

    /// The slash-joined path from the root to `tag` (first found by BFS).
    pub fn path_to(&self, tag: &str) -> Option<&str> {
        self.tag(tag).map(|t| t.path.as_str())
    }

    /// Distance between two tags in the undirected schema tree (number of
    /// edges on the path through their lowest common ancestor, using
    /// canonical BFS paths). Used by numeric proximity constraints.
    pub fn tree_distance(&self, a: &str, b: &str) -> Option<usize> {
        let pa: Vec<&str> = self.path_to(a)?.split('/').collect();
        let pb: Vec<&str> = self.path_to(b)?.split('/').collect();
        let common = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count();
        Some((pa.len() - common) + (pb.len() - common))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::parse_dtd;

    fn mediated() -> SchemaTree {
        let dtd = parse_dtd(
            "<!ELEMENT house-listing (location?, baths, beds, price, contact)>\n\
             <!ELEMENT location (#PCDATA)>\n\
             <!ELEMENT baths (#PCDATA)>\n\
             <!ELEMENT beds (#PCDATA)>\n\
             <!ELEMENT price (#PCDATA)>\n\
             <!ELEMENT contact (name, phone)>\n\
             <!ELEMENT name (#PCDATA)>\n\
             <!ELEMENT phone (#PCDATA)>",
        )
        .unwrap();
        SchemaTree::from_dtd(&dtd).unwrap()
    }

    #[test]
    fn basic_shape() {
        let s = mediated();
        assert_eq!(s.root(), "house-listing");
        assert_eq!(s.len(), 8);
        assert_eq!(s.max_depth(), 3);
        let non_leaf: Vec<&str> = s.non_leaf_tags().collect();
        assert_eq!(non_leaf, vec!["house-listing", "contact"]);
    }

    #[test]
    fn nesting_queries() {
        let s = mediated();
        assert!(s.is_nested_in("phone", "house-listing"));
        assert!(s.is_nested_in("phone", "contact"));
        assert!(!s.is_nested_in("contact", "phone"));
        assert!(!s.is_nested_in("price", "contact"));
    }

    #[test]
    fn tags_between_in_declaration_order() {
        let s = mediated();
        assert_eq!(
            s.tags_between("baths", "beds").unwrap(),
            Vec::<String>::new()
        );
        assert_eq!(
            s.tags_between("location", "price").unwrap(),
            vec!["baths", "beds"]
        );
        assert_eq!(
            s.tags_between("price", "location").unwrap(),
            vec!["baths", "beds"]
        );
        assert!(s.tags_between("name", "price").is_none());
    }

    #[test]
    fn structure_scores_order_tags() {
        let s = mediated();
        assert_eq!(s.nestable_count("house-listing"), 7);
        assert_eq!(s.nestable_count("contact"), 2);
        assert_eq!(s.nestable_count("price"), 0);
        let order = s.tags_by_structure_score();
        assert_eq!(order[0], "house-listing");
        assert_eq!(order[1], "contact");
    }

    #[test]
    fn paths_and_distance() {
        let s = mediated();
        assert_eq!(s.path_to("phone").unwrap(), "house-listing/contact/phone");
        assert_eq!(s.tree_distance("name", "phone"), Some(2));
        assert_eq!(s.tree_distance("price", "phone"), Some(3));
        assert_eq!(s.tree_distance("price", "price"), Some(0));
        assert_eq!(s.tree_distance("house-listing", "phone"), Some(2));
    }

    #[test]
    fn shared_tag_under_two_parents() {
        let dtd = parse_dtd(
            "<!ELEMENT r (a, b)>\n<!ELEMENT a (x)>\n<!ELEMENT b (x)>\n<!ELEMENT x (#PCDATA)>",
        )
        .unwrap();
        let s = SchemaTree::from_dtd(&dtd).unwrap();
        let x = s.tag("x").unwrap();
        assert_eq!(x.parents, vec!["a", "b"]);
        assert!(s.is_nested_in("x", "a"));
        assert!(s.is_nested_in("x", "b"));
        assert_eq!(x.depth, 3);
    }

    #[test]
    fn unknown_tags_answer_negative() {
        let s = mediated();
        assert!(!s.is_nested_in("ghost", "house-listing"));
        assert_eq!(s.tags_between("ghost", "price"), None);
        assert_eq!(s.nestable_count("ghost"), 0);
    }
}

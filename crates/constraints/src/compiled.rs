//! Compiled constraint evaluation — the fast path used by the search.
//!
//! [`crate::evaluate_partial`] resolves label names and queries the schema
//! and data on every call, which is fine for one-off scoring but dominates
//! the A\* search (hundreds of thousands of evaluations on a Real Estate
//! II-sized schema). [`Evaluator`] does all of that once up front:
//!
//! - label names → dense indices; constraints referencing unknown labels
//!   or tags are dropped (they can never fire);
//! - schema relations (nesting, between-tags, tree distance) → `q × q`
//!   matrices;
//! - data predicates (key duplicates, numeric fraction) → per-tag flags;
//! - functional-dependency refutations → lazily cached per tag tuple.
//!
//! Evaluation then costs `O(q + #constraints)` per node with no hashing of
//! strings, using a caller-provided [`Scratch`] to avoid allocation.

use crate::constraint::{ConstraintKind, DomainConstraint, Predicate};
use crate::evaluate::{MatchingContext, INFEASIBLE};
use lsd_learn::LabelSet;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// A predicate with *label* names resolved to dense indices. Tag names stay
/// textual: labels are fixed per system, but tags differ per source, so
/// this is the largest compilation step that can be shared across sources.
#[derive(Debug, Clone)]
enum HalfCompiled {
    AtMostOne {
        label: usize,
    },
    ExactlyOne {
        label: usize,
    },
    NestedIn {
        outer: usize,
        inner: usize,
    },
    NotNestedIn {
        outer: usize,
        inner: usize,
    },
    Contiguous {
        a: usize,
        b: usize,
    },
    MutuallyExclusive {
        a: usize,
        b: usize,
    },
    IsKey {
        label: usize,
    },
    FunctionalDependency {
        determinants: Vec<usize>,
        dependent: usize,
    },
    AtMostK {
        label: usize,
        k: usize,
    },
    Proximity {
        a: usize,
        b: usize,
    },
    IsNumeric {
        label: usize,
    },
    IsTextual {
        label: usize,
    },
    TagIs {
        tag: String,
        label: usize,
    },
    TagIsNot {
        tag: String,
        label: usize,
    },
}

#[derive(Debug, Clone)]
struct HalfEntry {
    predicate: HalfCompiled,
    kind: ConstraintKind,
    /// Human-readable rendering of the source constraint (its `Display`
    /// form), carried through compilation so rejected candidates can be
    /// blamed on a nameable constraint.
    description: String,
}

/// Domain constraints compiled against a [`LabelSet`]: the read-only,
/// source-independent half of [`Evaluator`] construction. The batch engine
/// compiles once per system and shares the set (`&CompiledConstraintSet`)
/// across per-source search workers; constraints naming unknown labels are
/// dropped here (they can never fire).
#[derive(Debug, Clone, Default)]
pub struct CompiledConstraintSet {
    entries: Vec<HalfEntry>,
}

impl CompiledConstraintSet {
    /// Resolves label names once. Constraints referencing labels absent
    /// from `labels` are dropped.
    pub fn compile(labels: &LabelSet, constraints: &[DomainConstraint]) -> Self {
        let label_of = |name: &str| labels.get(name);
        let entries = constraints
            .iter()
            .filter_map(|c| {
                let predicate = match &c.predicate {
                    Predicate::AtMostOne { label } => HalfCompiled::AtMostOne {
                        label: label_of(label)?,
                    },
                    Predicate::ExactlyOne { label } => HalfCompiled::ExactlyOne {
                        label: label_of(label)?,
                    },
                    Predicate::NestedIn { outer, inner } => HalfCompiled::NestedIn {
                        outer: label_of(outer)?,
                        inner: label_of(inner)?,
                    },
                    Predicate::NotNestedIn { outer, inner } => HalfCompiled::NotNestedIn {
                        outer: label_of(outer)?,
                        inner: label_of(inner)?,
                    },
                    Predicate::Contiguous { a, b } => HalfCompiled::Contiguous {
                        a: label_of(a)?,
                        b: label_of(b)?,
                    },
                    Predicate::MutuallyExclusive { a, b } => HalfCompiled::MutuallyExclusive {
                        a: label_of(a)?,
                        b: label_of(b)?,
                    },
                    Predicate::IsKey { label } => HalfCompiled::IsKey {
                        label: label_of(label)?,
                    },
                    Predicate::FunctionalDependency {
                        determinants,
                        dependent,
                    } => HalfCompiled::FunctionalDependency {
                        determinants: determinants
                            .iter()
                            .map(|d| label_of(d))
                            .collect::<Option<Vec<_>>>()?,
                        dependent: label_of(dependent)?,
                    },
                    Predicate::AtMostK { label, k } => HalfCompiled::AtMostK {
                        label: label_of(label)?,
                        k: *k,
                    },
                    Predicate::Proximity { a, b } => HalfCompiled::Proximity {
                        a: label_of(a)?,
                        b: label_of(b)?,
                    },
                    Predicate::IsNumeric { label } => HalfCompiled::IsNumeric {
                        label: label_of(label)?,
                    },
                    Predicate::IsTextual { label } => HalfCompiled::IsTextual {
                        label: label_of(label)?,
                    },
                    Predicate::TagIs { tag, label } => HalfCompiled::TagIs {
                        tag: tag.clone(),
                        label: label_of(label)?,
                    },
                    Predicate::TagIsNot { tag, label } => HalfCompiled::TagIsNot {
                        tag: tag.clone(),
                        label: label_of(label)?,
                    },
                };
                Some(HalfEntry {
                    predicate,
                    kind: c.kind,
                    description: c.to_string(),
                })
            })
            .collect();
        CompiledConstraintSet { entries }
    }

    /// This set plus `extra` constraints (per-source user feedback) compiled
    /// against the same labels. The base set is not modified.
    pub fn with_extra(&self, labels: &LabelSet, extra: &[DomainConstraint]) -> Self {
        let mut merged = self.clone();
        merged
            .entries
            .extend(CompiledConstraintSet::compile(labels, extra).entries);
        merged
    }

    /// Number of compiled (retained) constraints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no constraint survived compilation.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Labels demanded by a hard `ExactlyOne` constraint (deadline
    /// propagation in the search; also consumed by `lsd-analysis` for
    /// satisfiability lints).
    pub fn mandatory_labels(&self) -> Vec<usize> {
        self.entries
            .iter()
            .filter_map(|e| match (&e.kind, &e.predicate) {
                (ConstraintKind::Hard, HalfCompiled::ExactlyOne { label }) => Some(*label),
                _ => None,
            })
            .collect()
    }

    /// Labels statically excluded from every mapping: a hard `AtMostK`
    /// with `k = 0` means no tag may ever carry the label.
    pub fn hard_excluded_labels(&self) -> Vec<usize> {
        self.entries
            .iter()
            .filter_map(|e| match (&e.kind, &e.predicate) {
                (ConstraintKind::Hard, HalfCompiled::AtMostK { label, k: 0 }) => Some(*label),
                _ => None,
            })
            .collect()
    }

    /// Label pairs under a hard `MutuallyExclusive` constraint.
    pub fn hard_exclusive_pairs(&self) -> Vec<(usize, usize)> {
        self.entries
            .iter()
            .filter_map(|e| match (&e.kind, &e.predicate) {
                (ConstraintKind::Hard, HalfCompiled::MutuallyExclusive { a, b }) => Some((*a, *b)),
                _ => None,
            })
            .collect()
    }

    /// `(tag, label)` pairs pinned by hard `TagIs` feedback.
    pub fn forced_tag_labels(&self) -> Vec<(&str, usize)> {
        self.entries
            .iter()
            .filter_map(|e| match (&e.kind, &e.predicate) {
                (ConstraintKind::Hard, HalfCompiled::TagIs { tag, label }) => {
                    Some((tag.as_str(), *label))
                }
                _ => None,
            })
            .collect()
    }

    /// `(tag, label)` pairs vetoed by hard `TagIsNot` feedback.
    pub fn forbidden_tag_labels(&self) -> Vec<(&str, usize)> {
        self.entries
            .iter()
            .filter_map(|e| match (&e.kind, &e.predicate) {
                (ConstraintKind::Hard, HalfCompiled::TagIsNot { tag, label }) => {
                    Some((tag.as_str(), *label))
                }
                _ => None,
            })
            .collect()
    }

    /// Hard `NestedIn { outer, inner }` pairs with `outer == inner`. Since
    /// no tag is nested in itself, such a constraint silently excludes its
    /// label from every mapping that assigns it twice — and combined with a
    /// mandatory label it is a static contradiction.
    pub fn hard_self_nested_labels(&self) -> Vec<usize> {
        self.entries
            .iter()
            .filter_map(|e| match (&e.kind, &e.predicate) {
                (ConstraintKind::Hard, HalfCompiled::NestedIn { outer, inner })
                    if outer == inner =>
                {
                    Some(*outer)
                }
                _ => None,
            })
            .collect()
    }
}

/// A predicate with every name — labels *and* tags — resolved to an index.
#[derive(Debug, Clone)]
enum CompiledPredicate {
    AtMostOne {
        label: usize,
    },
    ExactlyOne {
        label: usize,
    },
    NestedIn {
        outer: usize,
        inner: usize,
    },
    NotNestedIn {
        outer: usize,
        inner: usize,
    },
    Contiguous {
        a: usize,
        b: usize,
    },
    MutuallyExclusive {
        a: usize,
        b: usize,
    },
    IsKey {
        label: usize,
    },
    FunctionalDependency {
        determinants: Vec<usize>,
        dependent: usize,
    },
    AtMostK {
        label: usize,
        k: usize,
    },
    Proximity {
        a: usize,
        b: usize,
    },
    IsNumeric {
        label: usize,
    },
    IsTextual {
        label: usize,
    },
    TagIs {
        tag: usize,
        label: usize,
    },
    TagIsNot {
        tag: usize,
        label: usize,
    },
}

#[derive(Debug, Clone)]
struct Compiled {
    predicate: CompiledPredicate,
    kind: ConstraintKind,
    description: String,
}

/// One constraint's verdict on an assignment, from
/// [`Evaluator::violations`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ConstraintViolation {
    /// The constraint's `Display` rendering, e.g.
    /// `"[hard] at most one tag maps to ADDRESS"`.
    pub description: String,
    /// True for a hard constraint (a violation makes the assignment
    /// infeasible rather than merely costly).
    pub hard: bool,
    /// The raw violation magnitude (0.0 when satisfied).
    pub violation: f64,
}

/// Reusable per-thread scratch space for [`Evaluator::evaluate`].
#[derive(Debug, Default)]
pub struct Scratch {
    /// `tags_by_label[l]` — tags currently assigned label `l`.
    tags_by_label: Vec<Vec<usize>>,
}

/// The compiled evaluator for one matching context + constraint set.
pub struct Evaluator<'a> {
    ctx: &'a MatchingContext<'a>,
    constraints: Vec<Compiled>,
    /// `nested[inner][outer]` — inner tag transitively below outer tag.
    nested: Vec<Vec<bool>>,
    /// `between[a][b]` — tag indices between siblings a and b, or None if
    /// not siblings.
    between: Vec<Vec<Option<Vec<usize>>>>,
    /// `tree_dist[a][b]` — undirected schema-tree distance.
    tree_dist: Vec<Vec<usize>>,
    /// Per tag: extracted column has duplicate values.
    has_duplicates: Vec<bool>,
    /// Per tag: fraction of numeric values, if any data.
    numeric_fraction: Vec<Option<f64>>,
    /// `assignment_cost[t][l]` — the `−α·log s` term.
    assignment_cost: Vec<Vec<f64>>,
    /// Per tag: the cheapest assignment cost (heuristic building block).
    best_cost: Vec<f64>,
    /// Labels every complete mapping must place.
    mandatory_labels: Vec<usize>,
    /// Lazily cached FD refutations keyed by (determinant tags, dependent
    /// tag).
    fd_cache: RefCell<HashMap<(Vec<usize>, usize), bool>>,
    /// Calls to [`Evaluator::evaluate`] — a plain cell so the hot loop pays
    /// one non-atomic add; the search flushes it into the metrics registry
    /// once per run.
    evaluations: Cell<u64>,
}

impl<'a> Evaluator<'a> {
    /// Compiles the constraints against a context (one-shot path: label
    /// resolution and per-source finishing in one call).
    pub fn new(ctx: &'a MatchingContext<'a>, constraints: &[DomainConstraint]) -> Self {
        Evaluator::with_compiled(
            ctx,
            &CompiledConstraintSet::compile(ctx.labels, constraints),
        )
    }

    /// Finishes a pre-compiled constraint set for one source: resolves tag
    /// names against `ctx.tags` (entries naming unknown tags are dropped)
    /// and builds the per-source schema/data matrices. The set is only
    /// borrowed during construction, so one `CompiledConstraintSet` can
    /// serve many concurrent per-source evaluators.
    pub fn with_compiled(ctx: &'a MatchingContext<'a>, set: &CompiledConstraintSet) -> Self {
        let q = ctx.tags.len();
        let tag_of = |name: &str| ctx.tag_index(name);

        let compiled = set
            .entries
            .iter()
            .filter_map(|e| {
                let predicate = match &e.predicate {
                    HalfCompiled::AtMostOne { label } => {
                        CompiledPredicate::AtMostOne { label: *label }
                    }
                    HalfCompiled::ExactlyOne { label } => {
                        CompiledPredicate::ExactlyOne { label: *label }
                    }
                    HalfCompiled::NestedIn { outer, inner } => CompiledPredicate::NestedIn {
                        outer: *outer,
                        inner: *inner,
                    },
                    HalfCompiled::NotNestedIn { outer, inner } => CompiledPredicate::NotNestedIn {
                        outer: *outer,
                        inner: *inner,
                    },
                    HalfCompiled::Contiguous { a, b } => {
                        CompiledPredicate::Contiguous { a: *a, b: *b }
                    }
                    HalfCompiled::MutuallyExclusive { a, b } => {
                        CompiledPredicate::MutuallyExclusive { a: *a, b: *b }
                    }
                    HalfCompiled::IsKey { label } => CompiledPredicate::IsKey { label: *label },
                    HalfCompiled::FunctionalDependency {
                        determinants,
                        dependent,
                    } => CompiledPredicate::FunctionalDependency {
                        determinants: determinants.clone(),
                        dependent: *dependent,
                    },
                    HalfCompiled::AtMostK { label, k } => CompiledPredicate::AtMostK {
                        label: *label,
                        k: *k,
                    },
                    HalfCompiled::Proximity { a, b } => {
                        CompiledPredicate::Proximity { a: *a, b: *b }
                    }
                    HalfCompiled::IsNumeric { label } => {
                        CompiledPredicate::IsNumeric { label: *label }
                    }
                    HalfCompiled::IsTextual { label } => {
                        CompiledPredicate::IsTextual { label: *label }
                    }
                    HalfCompiled::TagIs { tag, label } => CompiledPredicate::TagIs {
                        tag: tag_of(tag)?,
                        label: *label,
                    },
                    HalfCompiled::TagIsNot { tag, label } => CompiledPredicate::TagIsNot {
                        tag: tag_of(tag)?,
                        label: *label,
                    },
                };
                Some(Compiled {
                    predicate,
                    kind: e.kind,
                    description: e.description.clone(),
                })
            })
            .collect();

        let nested: Vec<Vec<bool>> = (0..q)
            .map(|inner| {
                (0..q)
                    .map(|outer| ctx.schema.is_nested_in(&ctx.tags[inner], &ctx.tags[outer]))
                    .collect()
            })
            .collect();
        let between: Vec<Vec<Option<Vec<usize>>>> = (0..q)
            .map(|a| {
                (0..q)
                    .map(|b| {
                        ctx.schema
                            .tags_between(&ctx.tags[a], &ctx.tags[b])
                            .map(|names| names.iter().filter_map(|n| ctx.tag_index(n)).collect())
                    })
                    .collect()
            })
            .collect();
        let tree_dist: Vec<Vec<usize>> = (0..q)
            .map(|a| {
                (0..q)
                    .map(|b| {
                        ctx.schema
                            .tree_distance(&ctx.tags[a], &ctx.tags[b])
                            .unwrap_or(0)
                    })
                    .collect()
            })
            .collect();
        let has_duplicates: Vec<bool> = ctx
            .tags
            .iter()
            .map(|t| ctx.data.has_duplicates(t))
            .collect();
        let numeric_fraction: Vec<Option<f64>> = ctx
            .tags
            .iter()
            .map(|t| ctx.data.numeric_fraction(t))
            .collect();
        let n = ctx.labels.len();
        let assignment_cost: Vec<Vec<f64>> = (0..q)
            .map(|t| (0..n).map(|l| ctx.assignment_cost(t, l)).collect())
            .collect();
        let best_cost: Vec<f64> = (0..q).map(|t| ctx.best_assignment_cost(t)).collect();

        Evaluator {
            ctx,
            constraints: compiled,
            nested,
            between,
            tree_dist,
            has_duplicates,
            numeric_fraction,
            assignment_cost,
            best_cost,
            mandatory_labels: set.mandatory_labels(),
            fd_cache: RefCell::new(HashMap::new()),
            evaluations: Cell::new(0),
        }
    }

    /// The matching context this evaluator was built for.
    pub fn context(&self) -> &'a MatchingContext<'a> {
        self.ctx
    }

    /// Per tag: the fraction of its extracted values that are numeric, if
    /// it has any data (see [`crate::SourceData::numeric_fraction`]).
    pub fn numeric_fraction(&self, tag: usize) -> Option<f64> {
        self.numeric_fraction[tag]
    }

    /// The set's [`CompiledConstraintSet::mandatory_labels`].
    pub fn mandatory_labels(&self) -> &[usize] {
        &self.mandatory_labels
    }

    /// Number of [`Evaluator::evaluate`] calls so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// Number of cached functional-dependency refutation entries.
    pub fn fd_cache_entries(&self) -> usize {
        self.fd_cache.borrow().len()
    }

    /// A fresh scratch sized for this evaluator.
    pub fn scratch(&self) -> Scratch {
        Scratch {
            tags_by_label: vec![Vec::new(); self.ctx.labels.len()],
        }
    }

    /// The admissible per-tag heuristic value (cheapest probability cost).
    pub fn best_cost(&self, tag: usize) -> f64 {
        self.best_cost[tag]
    }

    /// Fast equivalent of [`crate::evaluate_partial`].
    pub fn evaluate(&self, assignment: &[Option<usize>], scratch: &mut Scratch) -> f64 {
        self.evaluations.set(self.evaluations.get() + 1);
        for v in &mut scratch.tags_by_label {
            v.clear();
        }
        let mut cost = 0.0;
        let mut assigned = 0usize;
        for (t, a) in assignment.iter().enumerate() {
            if let Some(l) = a {
                cost += self.assignment_cost[t][*l];
                scratch.tags_by_label[*l].push(t);
                assigned += 1;
            }
        }
        let complete = assigned == assignment.len();
        let by = &scratch.tags_by_label;

        for c in &self.constraints {
            let violation = self.violation_of(c, assignment, by, complete);
            if violation <= 0.0 {
                continue;
            }
            match c.kind {
                ConstraintKind::Hard => return INFEASIBLE,
                ConstraintKind::SoftBinary { cost: unit } => cost += unit,
                ConstraintKind::SoftNumeric { weight } => cost += weight * violation,
            }
        }
        cost
    }

    /// Per-constraint verdicts for a *complete* assignment, in compiled
    /// order — the blame report behind "why was this candidate rejected".
    /// Unlike [`Evaluator::evaluate`], which returns at the first hard
    /// violation, this scores every constraint.
    pub fn violations(
        &self,
        assignment: &[Option<usize>],
        scratch: &mut Scratch,
    ) -> Vec<ConstraintViolation> {
        for v in &mut scratch.tags_by_label {
            v.clear();
        }
        let mut assigned = 0usize;
        for (t, a) in assignment.iter().enumerate() {
            if let Some(l) = a {
                scratch.tags_by_label[*l].push(t);
                assigned += 1;
            }
        }
        let complete = assigned == assignment.len();
        let by = &scratch.tags_by_label;
        self.constraints
            .iter()
            .map(|c| ConstraintViolation {
                description: c.description.clone(),
                hard: matches!(c.kind, ConstraintKind::Hard),
                violation: self.violation_of(c, assignment, by, complete),
            })
            .collect()
    }

    /// The raw violation magnitude of one compiled constraint.
    #[inline]
    fn violation_of(
        &self,
        c: &Compiled,
        assignment: &[Option<usize>],
        by: &[Vec<usize>],
        complete: bool,
    ) -> f64 {
        let other = self.ctx.labels.other();
        match &c.predicate {
            CompiledPredicate::AtMostOne { label } => {
                let n = by[*label].len();
                if n > 1 {
                    (n - 1) as f64
                } else {
                    0.0
                }
            }
            CompiledPredicate::ExactlyOne { label } => {
                let n = by[*label].len();
                if n > 1 {
                    (n - 1) as f64
                } else if n == 0 && complete {
                    1.0
                } else {
                    0.0
                }
            }
            CompiledPredicate::NestedIn { outer, inner } => {
                pair_count(&by[*outer], &by[*inner], |a, b| !self.nested[b][a])
            }
            CompiledPredicate::NotNestedIn { outer, inner } => {
                pair_count(&by[*outer], &by[*inner], |a, b| self.nested[b][a])
            }
            CompiledPredicate::Contiguous { a, b } => {
                let mut v = 0.0;
                for &ta in &by[*a] {
                    for &tb in &by[*b] {
                        match &self.between[ta][tb] {
                            None => v += 1.0,
                            Some(mid) => {
                                for &t in mid {
                                    if matches!(assignment[t], Some(l) if l != other) {
                                        v += 1.0;
                                    }
                                }
                            }
                        }
                    }
                }
                v
            }
            CompiledPredicate::MutuallyExclusive { a, b } => {
                if !by[*a].is_empty() && !by[*b].is_empty() {
                    1.0
                } else {
                    0.0
                }
            }
            CompiledPredicate::IsKey { label } => by[*label]
                .iter()
                .filter(|&&t| self.has_duplicates[t])
                .count() as f64,
            CompiledPredicate::FunctionalDependency {
                determinants,
                dependent,
            } => {
                let dets: Option<Vec<usize>> = determinants
                    .iter()
                    .map(|&d| by[d].first().copied())
                    .collect();
                match (dets, by[*dependent].first().copied()) {
                    (Some(dets), Some(dep)) => {
                        let key = (dets.clone(), dep);
                        let mut cache = self.fd_cache.borrow_mut();
                        let refuted = *cache.entry(key).or_insert_with(|| {
                            let det_names: Vec<&str> =
                                dets.iter().map(|&t| self.ctx.tags[t].as_str()).collect();
                            self.ctx.data.fd_refuted(&det_names, &self.ctx.tags[dep])
                        });
                        if refuted {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    _ => 0.0,
                }
            }
            CompiledPredicate::AtMostK { label, k } => {
                let n = by[*label].len();
                if n > *k {
                    (n - k) as f64
                } else {
                    0.0
                }
            }
            CompiledPredicate::Proximity { a, b } => {
                let mut v = 0.0;
                for &ta in &by[*a] {
                    for &tb in &by[*b] {
                        v += self.tree_dist[ta][tb].saturating_sub(2) as f64;
                    }
                }
                v
            }
            CompiledPredicate::IsNumeric { label } => by[*label]
                .iter()
                .filter(|&&t| self.numeric_fraction[t].is_some_and(|f| f < 0.5))
                .count() as f64,
            CompiledPredicate::IsTextual { label } => by[*label]
                .iter()
                .filter(|&&t| self.numeric_fraction[t].is_some_and(|f| f > 0.5))
                .count() as f64,
            CompiledPredicate::TagIs { tag, label } => {
                if matches!(assignment[*tag], Some(l) if l != *label) {
                    1.0
                } else {
                    0.0
                }
            }
            CompiledPredicate::TagIsNot { tag, label } => {
                if assignment[*tag] == Some(*label) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Counts pairs `(a, b)` from the two tag lists satisfying `violates`.
fn pair_count(outer: &[usize], inner: &[usize], violates: impl Fn(usize, usize) -> bool) -> f64 {
    let mut v = 0usize;
    for &a in outer {
        for &b in inner {
            if violates(a, b) {
                v += 1;
            }
        }
    }
    v as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_partial;
    use crate::source_data::SourceData;
    use lsd_learn::{LabelSet, Prediction};
    use lsd_xml::{parse_dtd, SchemaTree};
    use rand::Rng;
    use rand::SeedableRng;

    /// The compiled evaluator must agree with the reference implementation
    /// on random partial assignments across every constraint type.
    #[test]
    fn matches_reference_evaluator_on_random_assignments() {
        let dtd = parse_dtd(
            "<!ELEMENT l (contact, area, baths, extra, beds, price)>\n\
             <!ELEMENT contact (name, phone)>\n\
             <!ELEMENT name (#PCDATA)>\n<!ELEMENT phone (#PCDATA)>\n\
             <!ELEMENT area (#PCDATA)>\n<!ELEMENT baths (#PCDATA)>\n\
             <!ELEMENT extra (#PCDATA)>\n<!ELEMENT beds (#PCDATA)>\n\
             <!ELEMENT price (#PCDATA)>",
        )
        .unwrap();
        let schema = SchemaTree::from_dtd(&dtd).unwrap();
        let labels = LabelSet::new([
            "CONTACT-INFO",
            "AGENT-NAME",
            "AGENT-PHONE",
            "ADDRESS",
            "BATHS",
            "BEDS",
            "PRICE",
        ]);
        let tags: Vec<String> = schema.tag_names().map(str::to_string).collect();
        let mut data = SourceData::new(tags.clone());
        data.push_row([
            ("name", "Kate"),
            ("phone", "(206) 111 2222"),
            ("area", "Seattle"),
            ("baths", "2"),
            ("beds", "3"),
            ("price", "$70,000"),
        ]);
        data.push_row([
            ("name", "Mike"),
            ("phone", "(305) 333 4444"),
            ("area", "Miami"),
            ("baths", "2"),
            ("beds", "4"),
            ("price", "$90,000"),
        ]);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let n = labels.len();
        let predictions: Vec<Prediction> = (0..tags.len())
            .map(|_| Prediction::from_scores((0..n).map(|_| rng.gen_range(0.01..1.0)).collect()))
            .collect();
        let ctx = MatchingContext {
            labels: &labels,
            schema: &schema,
            tags,
            predictions,
            data: &data,
            alpha: 1.0,
        };

        use crate::constraint::{DomainConstraint as DC, Predicate as P};
        let constraints = vec![
            DC::hard(P::AtMostOne {
                label: "ADDRESS".into(),
            }),
            DC::hard(P::ExactlyOne {
                label: "PRICE".into(),
            }),
            DC::hard(P::NestedIn {
                outer: "CONTACT-INFO".into(),
                inner: "AGENT-NAME".into(),
            }),
            DC::hard(P::NotNestedIn {
                outer: "CONTACT-INFO".into(),
                inner: "PRICE".into(),
            }),
            DC::hard(P::Contiguous {
                a: "BATHS".into(),
                b: "BEDS".into(),
            }),
            DC::hard(P::MutuallyExclusive {
                a: "BATHS".into(),
                b: "BEDS".into(),
            }),
            DC::hard(P::IsKey {
                label: "PRICE".into(),
            }),
            DC::hard(P::FunctionalDependency {
                determinants: vec!["BEDS".into()],
                dependent: "BATHS".into(),
            }),
            DC::soft(P::AtMostK {
                label: "ADDRESS".into(),
                k: 1,
            }),
            DC::numeric(
                P::Proximity {
                    a: "AGENT-NAME".into(),
                    b: "AGENT-PHONE".into(),
                },
                0.3,
            ),
            DC::hard(P::IsNumeric {
                label: "BATHS".into(),
            }),
            DC::hard(P::IsTextual {
                label: "ADDRESS".into(),
            }),
            DC::hard(P::TagIs {
                tag: "area".into(),
                label: "ADDRESS".into(),
            }),
            DC::hard(P::TagIsNot {
                tag: "extra".into(),
                label: "PRICE".into(),
            }),
            // Constraints over unknown labels must be inert in both paths.
            DC::hard(P::AtMostOne {
                label: "GHOST".into(),
            }),
        ];

        let evaluator = Evaluator::new(&ctx, &constraints);
        let mut scratch = evaluator.scratch();
        let q = ctx.tags.len();
        for _ in 0..500 {
            let assignment: Vec<Option<usize>> = (0..q)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        None
                    } else {
                        Some(rng.gen_range(0..n))
                    }
                })
                .collect();
            let fast = evaluator.evaluate(&assignment, &mut scratch);
            let slow = evaluate_partial(&ctx, &constraints, &assignment);
            if fast.is_infinite() || slow.is_infinite() {
                assert_eq!(fast, slow, "assignment {assignment:?}");
            } else {
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "{fast} vs {slow} for {assignment:?}"
                );
            }
        }
    }
}

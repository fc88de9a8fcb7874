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
//!   matrices, built over interned schema-tag indices;
//! - data predicates (key duplicates, numeric fraction) → per-tag flags,
//!   one pass over each column;
//! - functional-dependency refutations → lazily cached per tag tuple;
//! - *watch sets*: per label and per tag, the hard constraints whose
//!   verdict can change when that label or tag is assigned.
//!
//! [`Evaluator::evaluate`] scores any assignment in `O(q + #constraints)`
//! with no hashing of strings, using a caller-provided [`Scratch`].
//! [`Evaluator::evaluate_extension`] scores a *feasible* parent plus one
//! `(tag, label)`: only the watched hard constraints are re-checked, and the
//! cost is summed exactly as `evaluate` sums it, so the two agree bit for
//! bit. The search scores every child this way.

use crate::constraint::{ConstraintKind, DomainConstraint, Predicate};
use crate::evaluate::{MatchingContext, INFEASIBLE};
use lsd_learn::LabelSet;
use lsd_xml::{SchemaTree, TagInfo};
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

/// A partial assignment held together with its per-label tag lists, so
/// that one-tag extensions can be scored without rebuilding either (see
/// [`Evaluator::evaluate_extension`]). Each list stays in ascending tag
/// order, the order [`Evaluator::evaluate`] builds: functional
/// dependencies read each label's first tag.
#[derive(Debug, Clone)]
pub struct PartialAssignment {
    assignment: Vec<Option<usize>>,
    by_label: Vec<Vec<usize>>,
    assigned: usize,
}

impl PartialAssignment {
    /// The assignment: `assignment()[t]` is tag `t`'s label, if any.
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.assignment
    }

    /// True if some tag carries `label`.
    pub fn has_label(&self, label: usize) -> bool {
        !self.by_label[label].is_empty()
    }

    /// Assigns `label` to the unassigned `tag`.
    pub fn assign(&mut self, tag: usize, label: usize) {
        debug_assert!(self.assignment[tag].is_none(), "tag {tag} already assigned");
        self.assignment[tag] = Some(label);
        let tags = &mut self.by_label[label];
        let at = tags.partition_point(|&t| t < tag);
        tags.insert(at, tag);
        self.assigned += 1;
    }

    /// Unassigns `tag` (a no-op if it has no label).
    pub fn unassign(&mut self, tag: usize) {
        if let Some(label) = self.assignment[tag].take() {
            let tags = &mut self.by_label[label];
            if let Ok(at) = tags.binary_search(&tag) {
                tags.remove(at);
            }
            self.assigned -= 1;
        }
    }

    /// Unassigns every tag.
    pub fn clear(&mut self) {
        self.assignment.fill(None);
        for tags in &mut self.by_label {
            tags.clear();
        }
        self.assigned = 0;
    }

    /// True if every tag has a label.
    pub fn is_complete(&self) -> bool {
        self.assigned == self.assignment.len()
    }
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
    /// Hard and soft constraint indices, and the watch sets.
    watches: Watches,
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

        let compiled: Vec<Compiled> = set
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

        let SchemaMatrices {
            nested,
            between,
            tree_dist,
        } = SchemaMatrices::new(ctx.schema, &ctx.tags);
        let (has_duplicates, numeric_fraction): (Vec<bool>, Vec<Option<f64>>) =
            ctx.tags.iter().map(|t| ctx.data.key_and_numeric(t)).unzip();
        let n = ctx.labels.len();
        let assignment_cost: Vec<Vec<f64>> = (0..q)
            .map(|t| (0..n).map(|l| ctx.assignment_cost(t, l)).collect())
            .collect();
        let best_cost: Vec<f64> = (0..q).map(|t| ctx.best_assignment_cost(t)).collect();
        let watches = Watches::new(&compiled, q, n, ctx.labels.other());

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
            watches,
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

    /// Number of [`Evaluator::evaluate`] and
    /// [`Evaluator::evaluate_extension`] calls so far.
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

    /// The empty assignment over this evaluator's tags and labels. It is
    /// feasible: no hard constraint can be violated before a tag is
    /// assigned.
    pub fn partial(&self) -> PartialAssignment {
        PartialAssignment {
            assignment: vec![None; self.ctx.tags.len()],
            by_label: vec![Vec::new(); self.ctx.labels.len()],
            assigned: 0,
        }
    }

    /// The admissible per-tag heuristic value (cheapest probability cost).
    pub fn best_cost(&self, tag: usize) -> f64 {
        self.best_cost[tag]
    }

    /// Fast equivalent of [`crate::evaluate_partial`], for scoring any
    /// assignment once (the search's final cost, its argmax fallback,
    /// provenance swaps).
    pub fn evaluate(&self, assignment: &[Option<usize>], scratch: &mut Scratch) -> f64 {
        self.evaluations.set(self.evaluations.get() + 1);
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
        if self.any_violated(&self.watches.hard, assignment, by, complete) {
            return INFEASIBLE;
        }
        self.feasible_cost(assignment, by, complete)
    }

    /// [`Evaluator::evaluate`] of `parent` with `tag` assigned `label`,
    /// bit for bit, provided `parent` is feasible (`evaluate` would not
    /// return [`INFEASIBLE`] for it). Only the hard constraints watching
    /// `label` and `tag`, and the `ExactlyOne`s when the extension
    /// completes the assignment, can change their verdict, so only those
    /// are re-checked; the cost is then summed as `evaluate` sums it. On an
    /// infeasible parent the result is meaningless. `parent` is left as it
    /// was.
    pub fn evaluate_extension(
        &self,
        parent: &mut PartialAssignment,
        tag: usize,
        label: usize,
    ) -> f64 {
        self.evaluations.set(self.evaluations.get() + 1);
        parent.assign(tag, label);
        let complete = parent.is_complete();
        let (assignment, by) = (&parent.assignment, &parent.by_label);
        let w = &self.watches;
        let infeasible = self.any_violated(&w.label[label], assignment, by, complete)
            || self.any_violated(&w.tag[tag], assignment, by, complete)
            || (complete && self.any_violated(&w.complete, assignment, by, complete));
        let cost = if infeasible {
            INFEASIBLE
        } else {
            self.feasible_cost(assignment, by, complete)
        };
        parent.unassign(tag);
        cost
    }

    /// True if any of the listed constraints is violated.
    fn any_violated(
        &self,
        which: &[usize],
        assignment: &[Option<usize>],
        by: &[Vec<usize>],
        complete: bool,
    ) -> bool {
        which
            .iter()
            .any(|&i| self.violation_of(&self.constraints[i], assignment, by, complete) > 0.0)
    }

    /// The cost of an assignment no hard constraint rejects: the
    /// probability term in tag order, then each violated soft constraint's
    /// cost in compiled order. Both scoring paths end here, so they add the
    /// same terms in the same order.
    fn feasible_cost(
        &self,
        assignment: &[Option<usize>],
        by: &[Vec<usize>],
        complete: bool,
    ) -> f64 {
        let mut cost = 0.0;
        for (t, a) in assignment.iter().enumerate() {
            if let Some(l) = a {
                cost += self.assignment_cost[t][*l];
            }
        }
        for &i in &self.watches.soft {
            let c = &self.constraints[i];
            let violation = self.violation_of(c, assignment, by, complete);
            if violation <= 0.0 {
                continue;
            }
            match c.kind {
                ConstraintKind::Hard => {}
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

impl CompiledPredicate {
    /// Calls `f` with every label the predicate names (a label named twice
    /// is passed twice).
    fn for_each_label(&self, mut f: impl FnMut(usize)) {
        match self {
            CompiledPredicate::AtMostOne { label }
            | CompiledPredicate::ExactlyOne { label }
            | CompiledPredicate::IsKey { label }
            | CompiledPredicate::AtMostK { label, .. }
            | CompiledPredicate::IsNumeric { label }
            | CompiledPredicate::IsTextual { label }
            | CompiledPredicate::TagIs { label, .. }
            | CompiledPredicate::TagIsNot { label, .. } => f(*label),
            CompiledPredicate::NestedIn { outer, inner }
            | CompiledPredicate::NotNestedIn { outer, inner } => {
                f(*outer);
                f(*inner);
            }
            CompiledPredicate::Contiguous { a, b }
            | CompiledPredicate::MutuallyExclusive { a, b }
            | CompiledPredicate::Proximity { a, b } => {
                f(*a);
                f(*b);
            }
            CompiledPredicate::FunctionalDependency {
                determinants,
                dependent,
            } => {
                determinants.iter().for_each(|&d| f(d));
                f(*dependent);
            }
        }
    }
}

/// The constraint partition and watch sets behind
/// [`Evaluator::evaluate_extension`]. Extending a feasible parent by one
/// `(tag, label)` changes only `assignment[tag]`, the label's tag list and
/// whether the assignment is complete, so a hard constraint can flip to
/// violated only if it reads one of those:
///
/// - it names `label` (every list-reading predicate, `TagIs`/`TagIsNot`'s
///   label);
/// - it is a `Contiguous` and `label` is not `OTHER`: the tags between its
///   pair count unless they are unassigned or `OTHER`;
/// - it is a `TagIs`/`TagIsNot` on `tag`;
/// - it is an `ExactlyOne` and the extension completes the assignment.
struct Watches {
    /// Indices into the evaluator's constraints of the hard ones, in
    /// compiled order.
    hard: Vec<usize>,
    /// The soft ones, in compiled order.
    soft: Vec<usize>,
    /// `label[l]` — the hard constraints to re-check on an extension with
    /// label `l`. Ascending, without duplicates.
    label: Vec<Vec<usize>>,
    /// `tag[t]` — the hard `TagIs`/`TagIsNot` constraints on tag `t`.
    tag: Vec<Vec<usize>>,
    /// The hard `ExactlyOne` constraints, re-checked on a completing
    /// extension (an absent label is a violation only then).
    complete: Vec<usize>,
}

impl Watches {
    fn new(constraints: &[Compiled], tags: usize, labels: usize, other: usize) -> Self {
        let mut w = Watches {
            hard: Vec::new(),
            soft: Vec::new(),
            label: vec![Vec::new(); labels],
            tag: vec![Vec::new(); tags],
            complete: Vec::new(),
        };
        for (i, c) in constraints.iter().enumerate() {
            if !matches!(c.kind, ConstraintKind::Hard) {
                w.soft.push(i);
                continue;
            }
            w.hard.push(i);
            c.predicate.for_each_label(|l| w.label[l].push(i));
            match c.predicate {
                CompiledPredicate::Contiguous { .. } => {
                    for (l, watch) in w.label.iter_mut().enumerate() {
                        if l != other {
                            watch.push(i);
                        }
                    }
                }
                CompiledPredicate::ExactlyOne { .. } => w.complete.push(i),
                CompiledPredicate::TagIs { tag, .. } | CompiledPredicate::TagIsNot { tag, .. } => {
                    w.tag[tag].push(i)
                }
                _ => {}
            }
        }
        // One constraint's pushes are consecutive, so repeats are adjacent.
        for watch in &mut w.label {
            watch.dedup();
        }
        w
    }
}

/// The schema relations the evaluator reads, as `q × q` matrices over the
/// context's tag indices. Equal, pair by pair, to asking the
/// [`SchemaTree`] by name (`is_nested_in`, `tags_between` resolved through
/// [`MatchingContext::tag_index`], `tree_distance` or 0), but built from
/// interned schema-tag indices: one name lookup per tag and per schema
/// edge, none per pair.
struct SchemaMatrices {
    nested: Vec<Vec<bool>>,
    between: Vec<Vec<Option<Vec<usize>>>>,
    tree_dist: Vec<Vec<usize>>,
}

impl SchemaMatrices {
    fn new(schema: &SchemaTree, tags: &[String]) -> Self {
        let infos: Vec<&TagInfo> = schema.tags().collect();
        let sid: HashMap<&str, usize> = infos
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();
        let ids = |names: &[String]| -> Vec<usize> {
            names
                .iter()
                .filter_map(|n| sid.get(n.as_str()).copied())
                .collect()
        };
        let parents: Vec<Vec<usize>> = infos.iter().map(|t| ids(&t.parents)).collect();
        let children: Vec<Vec<usize>> = infos.iter().map(|t| ids(&t.children)).collect();
        // Each context tag's schema index, and each schema tag's first
        // context index (what `MatchingContext::tag_index` returns).
        let at: Vec<Option<usize>> = tags.iter().map(|t| sid.get(t.as_str()).copied()).collect();
        let mut first = vec![None; infos.len()];
        for (t, s) in at.iter().enumerate().rev() {
            if let Some(s) = *s {
                first[s] = Some(t);
            }
        }

        let nested = at
            .iter()
            .map(|inner| {
                // Every schema tag above `inner` (itself only on a cycle).
                let mut above = vec![false; infos.len()];
                let mut stack: Vec<usize> = inner.map_or_else(Vec::new, |s| parents[s].clone());
                while let Some(p) = stack.pop() {
                    if !above[p] {
                        above[p] = true;
                        stack.extend_from_slice(&parents[p]);
                    }
                }
                at.iter()
                    .map(|outer| outer.is_some_and(|o| above[o]))
                    .collect()
            })
            .collect();

        let between = at
            .iter()
            .map(|&a| {
                at.iter()
                    .map(|&b| {
                        let (a, b) = (a?, b?);
                        if a == b {
                            return None; // a tag is not its own sibling
                        }
                        let parent = parents[a].iter().find(|p| parents[b].contains(p))?;
                        let siblings = &children[*parent];
                        let ia = siblings.iter().position(|&s| s == a)?;
                        let ib = siblings.iter().position(|&s| s == b)?;
                        let (lo, hi) = if ia < ib { (ia, ib) } else { (ib, ia) };
                        Some(
                            siblings[lo + 1..hi]
                                .iter()
                                .filter_map(|&s| first[s])
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect();

        // Canonical root paths as schema indices; an unreachable tag's
        // empty path is one `None` component, as `"".split('/')` is `[""]`.
        let paths: Vec<Option<Vec<Option<usize>>>> = at
            .iter()
            .map(|s| {
                s.map(|s| {
                    infos[s]
                        .path
                        .split('/')
                        .map(|c| sid.get(c).copied())
                        .collect()
                })
            })
            .collect();
        let tree_dist = paths
            .iter()
            .map(|pa| {
                paths
                    .iter()
                    .map(|pb| match (pa, pb) {
                        (Some(pa), Some(pb)) => {
                            let common = pa.iter().zip(pb).take_while(|(x, y)| x == y).count();
                            (pa.len() - common) + (pb.len() - common)
                        }
                        _ => 0,
                    })
                    .collect()
            })
            .collect();

        SchemaMatrices {
            nested,
            between,
            tree_dist,
        }
    }
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

    /// Checks every pair of `tags` against the by-name `SchemaTree` queries,
    /// asked pair by pair.
    fn assert_matrices_match_schema(schema: &SchemaTree, tags: &[String]) {
        let m = SchemaMatrices::new(schema, tags);
        let tag_index = |name: &str| tags.iter().position(|t| t == name);
        for (a, ta) in tags.iter().enumerate() {
            for (b, tb) in tags.iter().enumerate() {
                assert_eq!(m.nested[a][b], schema.is_nested_in(ta, tb), "{ta} in {tb}");
                let between = schema
                    .tags_between(ta, tb)
                    .map(|names| names.iter().filter_map(|n| tag_index(n)).collect());
                assert_eq!(m.between[a][b], between, "between {ta} and {tb}");
                let dist = schema.tree_distance(ta, tb).unwrap_or(0);
                assert_eq!(m.tree_dist[a][b], dist, "distance {ta} to {tb}");
            }
        }
    }

    /// The index-built matrices equal the per-pair schema answers on every
    /// datagen domain's mediated and source schemas (in declaration order,
    /// and reversed with a repeated and an unknown tag), and on a schema
    /// with shared children and an unreachable cycle.
    #[test]
    fn schema_matrices_equal_per_pair_schema_answers() {
        let mut schemas = Vec::new();
        for id in lsd_datagen::DomainId::ALL {
            let domain = id.generate(2, 1);
            schemas.push(SchemaTree::from_dtd(&domain.mediated).unwrap());
            for source in &domain.sources {
                schemas.push(SchemaTree::from_dtd(&source.dtd).unwrap());
            }
        }
        let shared = parse_dtd(
            "<!ELEMENT r (a, b, c, p)>\n<!ELEMENT a (x, y, c)>\n<!ELEMENT b (y, c, x)>\n\
             <!ELEMENT c (#PCDATA)>\n<!ELEMENT x (#PCDATA)>\n<!ELEMENT y (c)>\n\
             <!ELEMENT p (#PCDATA)>\n<!ELEMENT u (v)>\n<!ELEMENT v (u, c)>",
        )
        .unwrap();
        schemas.push(SchemaTree::from_dtd(&shared).unwrap());
        for schema in &schemas {
            let mut tags: Vec<String> = schema.tag_names().map(str::to_string).collect();
            assert_matrices_match_schema(schema, &tags);
            tags.reverse();
            tags.insert(1, tags[3].clone());
            tags.push("no-such-tag".to_string());
            assert_matrices_match_schema(schema, &tags);
        }
    }

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

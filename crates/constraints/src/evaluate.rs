//! The cost model over candidate mappings (paper Section 4.2).
//!
//! A candidate mapping `m = ⟨e₁:c_i1, …, e_q:c_iq⟩` has cost
//! `cost(m) = Σᵢ λᵢ·cost(m,Tᵢ) − α·log prob(m)` where
//! `prob(m) = Πⱼ s(c_ij|eⱼ, PC)` uses the prediction-converter scores.
//! Hard-constraint violations make the cost infinite.
//!
//! [`evaluate_partial`] also scores *partial* assignments, counting only
//! violations that are already certain; since constraints can only add cost
//! as more tags are assigned, the partial cost is a lower bound on any
//! completion — which is exactly what the A\* heuristic needs. Functional
//! dependencies are the exception: their verdict reads each label's first
//! tag, which can move as tags are added, so a refuted dependency can be
//! repaired by a completion.

use crate::constraint::{ConstraintKind, DomainConstraint, Predicate};
use crate::source_data::SourceData;
use lsd_learn::{LabelSet, Prediction};
use lsd_xml::SchemaTree;

/// Cost of a mapping violating a hard constraint.
pub const INFEASIBLE: f64 = f64::INFINITY;

/// Scores below this are clamped before taking logs, so a zero-probability
/// prediction costs a lot but stays finite (hard infeasibility is reserved
/// for hard constraints).
const MIN_SCORE: f64 = 1e-9;

/// Everything the constraint handler knows about one target source.
pub struct MatchingContext<'a> {
    /// The mediated-schema labels (including OTHER).
    pub labels: &'a LabelSet,
    /// The source schema tree.
    pub schema: &'a SchemaTree,
    /// The source tags to be assigned, parallel to `predictions`.
    pub tags: Vec<String>,
    /// Prediction-converter output per tag.
    pub predictions: Vec<Prediction>,
    /// Extracted data, for column constraints.
    pub data: &'a SourceData<'a>,
    /// Weight α of the `−log prob(m)` term.
    pub alpha: f64,
}

impl<'a> MatchingContext<'a> {
    /// Index of a source tag in `tags`.
    pub fn tag_index(&self, tag: &str) -> Option<usize> {
        self.tags.iter().position(|t| t == tag)
    }

    /// The `−α·log prob` contribution of assigning `label` to tag `t`.
    pub fn assignment_cost(&self, t: usize, label: usize) -> f64 {
        -self.alpha * self.predictions[t].score(label).max(MIN_SCORE).ln()
    }
}

/// Evaluates a (possibly partial) assignment: `assignment[t]` is the label
/// of `ctx.tags[t]`, or `None` if not yet assigned. Returns the total cost —
/// probability term over assigned tags plus the cost of every
/// definitely-violated constraint — or [`INFEASIBLE`] if a hard constraint
/// is definitely violated.
pub fn evaluate_partial(
    ctx: &MatchingContext<'_>,
    constraints: &[DomainConstraint],
    assignment: &[Option<usize>],
) -> f64 {
    debug_assert_eq!(assignment.len(), ctx.tags.len());
    let mut cost = 0.0;
    for (t, label) in assignment.iter().enumerate() {
        if let Some(l) = label {
            cost += ctx.assignment_cost(t, *l);
        }
    }
    let complete = assignment.iter().all(Option::is_some);
    for c in constraints {
        let violation = violation_measure(ctx, &c.predicate, assignment, complete);
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

/// How violated a predicate is under the partial assignment: 0 when
/// satisfied (or not yet decidable), a positive measure otherwise. For most
/// predicates the measure is a violation count; for [`Predicate::Proximity`]
/// it is the schema-tree distance beyond the minimum possible (2 =
/// siblings).
fn violation_measure(
    ctx: &MatchingContext<'_>,
    predicate: &Predicate,
    assignment: &[Option<usize>],
    complete: bool,
) -> f64 {
    // Tags currently assigned to the given label name.
    let tags_with = |label: &str| -> Vec<usize> {
        match ctx.labels.get(label) {
            Some(lid) => assignment
                .iter()
                .enumerate()
                .filter(|(_, a)| **a == Some(lid))
                .map(|(t, _)| t)
                .collect(),
            None => Vec::new(),
        }
    };

    match predicate {
        Predicate::AtMostOne { label } => {
            let n = tags_with(label).len();
            if n > 1 {
                (n - 1) as f64
            } else {
                0.0
            }
        }
        Predicate::ExactlyOne { label } => {
            if ctx.labels.get(label).is_none() {
                return 0.0; // unknown label: the constraint is vacuous
            }
            let n = tags_with(label).len();
            if n > 1 {
                (n - 1) as f64
            } else if n == 0 && complete {
                1.0
            } else {
                0.0
            }
        }
        Predicate::NestedIn { outer, inner } => {
            let mut v = 0usize;
            for &a in &tags_with(outer) {
                for &b in &tags_with(inner) {
                    if !ctx.schema.is_nested_in(&ctx.tags[b], &ctx.tags[a]) {
                        v += 1;
                    }
                }
            }
            v as f64
        }
        Predicate::NotNestedIn { outer, inner } => {
            let mut v = 0usize;
            for &a in &tags_with(outer) {
                for &b in &tags_with(inner) {
                    if ctx.schema.is_nested_in(&ctx.tags[b], &ctx.tags[a]) {
                        v += 1;
                    }
                }
            }
            v as f64
        }
        Predicate::Contiguous { a, b } => {
            let other = ctx.labels.other();
            let mut v = 0usize;
            for &ta in &tags_with(a) {
                for &tb in &tags_with(b) {
                    match ctx.schema.tags_between(&ctx.tags[ta], &ctx.tags[tb]) {
                        None => v += 1, // not siblings
                        Some(between) => {
                            for name in &between {
                                if let Some(t) = ctx.tag_index(name) {
                                    if matches!(assignment[t], Some(l) if l != other) {
                                        v += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            v as f64
        }
        Predicate::MutuallyExclusive { a, b } => {
            if !tags_with(a).is_empty() && !tags_with(b).is_empty() {
                1.0
            } else {
                0.0
            }
        }
        Predicate::IsKey { label } => tags_with(label)
            .iter()
            .filter(|&&t| ctx.data.has_duplicates(&ctx.tags[t]))
            .count() as f64,
        Predicate::FunctionalDependency {
            determinants,
            dependent,
        } => {
            // First assigned tag per determinant label; decidable only when
            // every determinant and the dependent are present.
            let det_tags: Option<Vec<usize>> = determinants
                .iter()
                .map(|d| tags_with(d).first().copied())
                .collect();
            let dep_tag = tags_with(dependent).first().copied();
            match (det_tags, dep_tag) {
                (Some(dets), Some(dep)) => {
                    let det_names: Vec<&str> = dets.iter().map(|&t| ctx.tags[t].as_str()).collect();
                    if ctx.data.fd_refuted(&det_names, &ctx.tags[dep]) {
                        1.0
                    } else {
                        0.0
                    }
                }
                _ => 0.0,
            }
        }
        Predicate::AtMostK { label, k } => {
            let n = tags_with(label).len();
            if n > *k {
                (n - k) as f64
            } else {
                0.0
            }
        }
        Predicate::Proximity { a, b } => {
            let mut measure = 0.0;
            for &ta in &tags_with(a) {
                for &tb in &tags_with(b) {
                    if let Some(d) = ctx.schema.tree_distance(&ctx.tags[ta], &ctx.tags[tb]) {
                        // Siblings are distance 2 — the closest two distinct
                        // tags can be — so only the excess costs anything.
                        measure += (d.saturating_sub(2)) as f64;
                    }
                }
            }
            measure
        }
        Predicate::IsNumeric { label } => tags_with(label)
            .iter()
            .filter(|&&t| {
                ctx.data
                    .numeric_fraction(&ctx.tags[t])
                    .is_some_and(|f| f < 0.5)
            })
            .count() as f64,
        Predicate::IsTextual { label } => tags_with(label)
            .iter()
            .filter(|&&t| {
                ctx.data
                    .numeric_fraction(&ctx.tags[t])
                    .is_some_and(|f| f > 0.5)
            })
            .count() as f64,
        Predicate::TagIs { tag, label } => match (ctx.tag_index(tag), ctx.labels.get(label)) {
            (Some(t), Some(lid)) => {
                if matches!(assignment[t], Some(l) if l != lid) {
                    1.0
                } else {
                    0.0
                }
            }
            _ => 0.0,
        },
        Predicate::TagIsNot { tag, label } => match (ctx.tag_index(tag), ctx.labels.get(label)) {
            (Some(t), Some(lid)) if assignment[t] == Some(lid) => 1.0,
            _ => 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::parse_dtd;

    fn schema() -> SchemaTree {
        let dtd = parse_dtd(
            "<!ELEMENT listing (area, baths, extra, beds, agent)>\n\
             <!ELEMENT area (#PCDATA)>\n\
             <!ELEMENT baths (#PCDATA)>\n\
             <!ELEMENT extra (#PCDATA)>\n\
             <!ELEMENT beds (#PCDATA)>\n\
             <!ELEMENT agent (name, phone)>\n\
             <!ELEMENT name (#PCDATA)>\n\
             <!ELEMENT phone (#PCDATA)>",
        )
        .unwrap();
        SchemaTree::from_dtd(&dtd).unwrap()
    }

    fn labels() -> LabelSet {
        LabelSet::new([
            "ADDRESS",
            "BATHS",
            "BEDS",
            "AGENT-INFO",
            "AGENT-NAME",
            "AGENT-PHONE",
        ])
    }

    struct Fixture {
        labels: LabelSet,
        schema: SchemaTree,
        data: SourceData<'static>,
    }

    impl Fixture {
        fn new() -> Self {
            let schema = schema();
            let mut data =
                SourceData::new(schema.tag_names().map(str::to_string).collect::<Vec<_>>());
            data.push_row([
                ("area", "Miami, FL"),
                ("baths", "2"),
                ("beds", "3"),
                ("phone", "(305) 111 2222"),
            ]);
            data.push_row([
                ("area", "Boston, MA"),
                ("baths", "2"),
                ("beds", "4"),
                ("phone", "(617) 333 4444"),
            ]);
            Fixture {
                labels: labels(),
                schema,
                data,
            }
        }

        fn ctx(&self) -> MatchingContext<'_> {
            let tags: Vec<String> = ["area", "baths", "extra", "beds", "agent", "name", "phone"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let n = self.labels.len();
            let predictions = vec![Prediction::uniform(n); tags.len()];
            MatchingContext {
                labels: &self.labels,
                schema: &self.schema,
                tags,
                predictions,
                data: &self.data,
                alpha: 1.0,
            }
        }
    }

    /// Builds an assignment from `(tag, label_name)` pairs.
    fn assign(ctx: &MatchingContext<'_>, pairs: &[(&str, &str)]) -> Vec<Option<usize>> {
        let mut a = vec![None; ctx.tags.len()];
        for (tag, label) in pairs {
            a[ctx.tag_index(tag).unwrap()] = Some(ctx.labels.get(label).unwrap());
        }
        a
    }

    #[test]
    fn probability_term_prefers_confident_assignments() {
        let f = Fixture::new();
        let mut ctx = f.ctx();
        let n = f.labels.len();
        ctx.predictions[0] = Prediction::from_scores({
            let mut s = vec![0.01; n];
            s[0] = 1.0;
            s
        });
        let confident = assign(&ctx, &[("area", "ADDRESS")]);
        let unlikely = assign(&ctx, &[("area", "BATHS")]);
        let c1 = evaluate_partial(&ctx, &[], &confident);
        let c2 = evaluate_partial(&ctx, &[], &unlikely);
        assert!(c1 < c2);
    }

    #[test]
    fn at_most_one_violated_by_two() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::AtMostOne {
            label: "ADDRESS".into(),
        })];
        let ok = assign(&ctx, &[("area", "ADDRESS")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
        let bad = assign(&ctx, &[("area", "ADDRESS"), ("extra", "ADDRESS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad), INFEASIBLE);
    }

    #[test]
    fn exactly_one_checked_only_on_completion() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::ExactlyOne {
            label: "BATHS".into(),
        })];
        // Partial assignment without BATHS: not yet a violation.
        let partial = assign(&ctx, &[("area", "ADDRESS")]);
        assert!(evaluate_partial(&ctx, &cs, &partial).is_finite());
        // Complete assignment without BATHS: violated.
        let mut complete = vec![Some(ctx.labels.other()); ctx.tags.len()];
        assert_eq!(evaluate_partial(&ctx, &cs, &complete), INFEASIBLE);
        // Complete with exactly one BATHS: fine.
        complete[ctx.tag_index("baths").unwrap()] = Some(ctx.labels.get("BATHS").unwrap());
        assert!(evaluate_partial(&ctx, &cs, &complete).is_finite());
    }

    #[test]
    fn nesting_constraint() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::NestedIn {
            outer: "AGENT-INFO".into(),
            inner: "AGENT-NAME".into(),
        })];
        let ok = assign(&ctx, &[("agent", "AGENT-INFO"), ("name", "AGENT-NAME")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
        let bad = assign(&ctx, &[("agent", "AGENT-INFO"), ("area", "AGENT-NAME")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad), INFEASIBLE);
    }

    #[test]
    fn negative_nesting_constraint() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::NotNestedIn {
            outer: "AGENT-INFO".into(),
            inner: "ADDRESS".into(),
        })];
        let bad = assign(&ctx, &[("agent", "AGENT-INFO"), ("phone", "ADDRESS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad), INFEASIBLE);
        let ok = assign(&ctx, &[("agent", "AGENT-INFO"), ("area", "ADDRESS")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
    }

    #[test]
    fn contiguity_requires_siblings_and_other_between() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::Contiguous {
            a: "BATHS".into(),
            b: "BEDS".into(),
        })];
        // baths and beds are siblings with "extra" between them.
        let ok = assign(&ctx, &[("baths", "BATHS"), ("beds", "BEDS")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
        // The tag between them assigned non-OTHER: violation.
        let bad = assign(
            &ctx,
            &[("baths", "BATHS"), ("beds", "BEDS"), ("extra", "ADDRESS")],
        );
        assert_eq!(evaluate_partial(&ctx, &cs, &bad), INFEASIBLE);
        // Between-tag explicitly OTHER: fine.
        let mut okay2 = assign(&ctx, &[("baths", "BATHS"), ("beds", "BEDS")]);
        okay2[ctx.tag_index("extra").unwrap()] = Some(ctx.labels.other());
        assert!(evaluate_partial(&ctx, &cs, &okay2).is_finite());
        // Non-siblings matching the pair: violation.
        let bad2 = assign(&ctx, &[("baths", "BATHS"), ("phone", "BEDS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad2), INFEASIBLE);
    }

    #[test]
    fn exclusivity() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::MutuallyExclusive {
            a: "BATHS".into(),
            b: "BEDS".into(),
        })];
        let bad = assign(&ctx, &[("baths", "BATHS"), ("beds", "BEDS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad), INFEASIBLE);
        let ok = assign(&ctx, &[("baths", "BATHS")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
    }

    #[test]
    fn key_constraint_uses_data() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::IsKey {
            label: "BATHS".into(),
        })];
        // "baths" column is [2, 2]: duplicates → cannot be a key.
        let bad = assign(&ctx, &[("baths", "BATHS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad), INFEASIBLE);
        // "phone" column is unique.
        let ok = assign(&ctx, &[("phone", "BATHS")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
    }

    #[test]
    fn fd_constraint_uses_data() {
        let mut f = Fixture::new();
        // beds functionally determines baths? rows: (3→2), (4→2) — holds.
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::FunctionalDependency {
            determinants: vec!["BEDS".into()],
            dependent: "BATHS".into(),
        })];
        let ok = assign(&ctx, &[("beds", "BEDS"), ("baths", "BATHS")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
        drop(ctx);
        // Add a refuting row: same beds, different baths.
        f.data.push_row([("beds", "3"), ("baths", "99")]);
        let ctx = f.ctx();
        let bad = assign(&ctx, &[("beds", "BEDS"), ("baths", "BATHS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad), INFEASIBLE);
    }

    #[test]
    fn soft_binary_adds_finite_cost() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::soft(Predicate::AtMostK {
            label: "ADDRESS".into(),
            k: 1,
        })];
        let one = assign(&ctx, &[("area", "ADDRESS")]);
        let two = assign(&ctx, &[("area", "ADDRESS"), ("extra", "ADDRESS")]);
        let c1 = evaluate_partial(&ctx, &cs, &one);
        let c2 = evaluate_partial(&ctx, &cs, &two);
        assert!(c2.is_finite());
        // Same probability cost per tag (uniform), so the delta is the soft cost.
        let base_two = evaluate_partial(&ctx, &[], &two);
        assert!((c2 - base_two - 1.0).abs() < 1e-9);
        assert!(c1.is_finite());
    }

    #[test]
    fn proximity_scales_with_distance() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::numeric(
            Predicate::Proximity {
                a: "AGENT-NAME".into(),
                b: "AGENT-PHONE".into(),
            },
            1.0,
        )];
        // name & phone are siblings (distance 2 → excess 0).
        let close = assign(&ctx, &[("name", "AGENT-NAME"), ("phone", "AGENT-PHONE")]);
        // area & phone are distance 3 (area–listing–agent–phone) → excess 1.
        let far = assign(&ctx, &[("area", "AGENT-NAME"), ("phone", "AGENT-PHONE")]);
        let cc = evaluate_partial(&ctx, &cs, &close) - evaluate_partial(&ctx, &[], &close);
        let cf = evaluate_partial(&ctx, &cs, &far) - evaluate_partial(&ctx, &[], &far);
        assert!((cc - 0.0).abs() < 1e-9, "{cc}");
        assert!((cf - 1.0).abs() < 1e-9, "{cf}");
    }

    #[test]
    fn type_constraints_prune_by_data() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let numeric = [DomainConstraint::hard(Predicate::IsNumeric {
            label: "BATHS".into(),
        })];
        // "area" values are textual → IsNumeric violated.
        let bad = assign(&ctx, &[("area", "BATHS")]);
        assert_eq!(evaluate_partial(&ctx, &numeric, &bad), INFEASIBLE);
        let ok = assign(&ctx, &[("baths", "BATHS")]);
        assert!(evaluate_partial(&ctx, &numeric, &ok).is_finite());

        let textual = [DomainConstraint::hard(Predicate::IsTextual {
            label: "ADDRESS".into(),
        })];
        let bad = assign(&ctx, &[("beds", "ADDRESS")]);
        assert_eq!(evaluate_partial(&ctx, &textual, &bad), INFEASIBLE);
    }

    #[test]
    fn feedback_constraints() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [
            DomainConstraint::hard(Predicate::TagIs {
                tag: "area".into(),
                label: "ADDRESS".into(),
            }),
            DomainConstraint::hard(Predicate::TagIsNot {
                tag: "extra".into(),
                label: "ADDRESS".into(),
            }),
        ];
        let ok = assign(&ctx, &[("area", "ADDRESS")]);
        assert!(evaluate_partial(&ctx, &cs, &ok).is_finite());
        let bad1 = assign(&ctx, &[("area", "BATHS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad1), INFEASIBLE);
        let bad2 = assign(&ctx, &[("extra", "ADDRESS")]);
        assert_eq!(evaluate_partial(&ctx, &cs, &bad2), INFEASIBLE);
    }

    #[test]
    fn unknown_labels_in_constraints_are_inert() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let cs = [DomainConstraint::hard(Predicate::AtMostOne {
            label: "NO-SUCH-LABEL".into(),
        })];
        let a = assign(&ctx, &[("area", "ADDRESS")]);
        assert!(evaluate_partial(&ctx, &cs, &a).is_finite());
    }

    #[test]
    fn empty_assignment_costs_nothing() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let a = vec![None; ctx.tags.len()];
        assert_eq!(evaluate_partial(&ctx, &[], &a), 0.0);
    }
}

//! The constraint handler (paper Sections 4.2–4.3).
//!
//! Takes the prediction converter's per-tag predictions together with the
//! domain constraints and outputs the 1-1 mappings: it searches the space of
//! candidate mappings for the least-cost one. User feedback is handled by
//! passing additional constraints that apply only to the current source
//! (the `feedback` argument of [`ConstraintHandler::find_mapping`]).
//!
//! Before searching, the handler applies the Section 7 efficiency
//! extension: per-tag *candidate label sets* are pruned to the top-scoring
//! labels plus `OTHER`, and cheap hard type constraints
//! ([`Predicate::IsNumeric`] / [`Predicate::IsTextual`]) eliminate labels a
//! tag's data already rules out. Labels demanded by `TagIs` feedback or by
//! `ExactlyOne` constraints are re-inserted so pruning cannot make the
//! problem artificially infeasible.

use crate::compiled::{CompiledConstraintSet, Evaluator};
use crate::constraint::{ConstraintKind, DomainConstraint, Predicate};
use crate::evaluate::MatchingContext;
use crate::search::{search_mapping, MappingResult, SearchConfig};
use lsd_learn::LabelSet;

/// The constraint handler: domain constraints + search configuration.
///
/// ```
/// use lsd_constraints::{
///     ConstraintHandler, DomainConstraint, Evaluator, MatchingContext, Predicate, SourceData,
/// };
/// use lsd_learn::{LabelSet, Prediction};
/// use lsd_xml::{parse_dtd, SchemaTree};
///
/// let dtd = parse_dtd(
///     "<!ELEMENT l (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>").unwrap();
/// let schema = SchemaTree::from_dtd(&dtd).unwrap();
/// let labels = LabelSet::new(["PRICE"]);
/// let data = SourceData::new(["l", "a", "b"]);
/// let ctx = MatchingContext {
///     labels: &labels,
///     schema: &schema,
///     tags: vec!["l".into(), "a".into(), "b".into()],
///     // Both leaf tags look like PRICE; `a` slightly more so.
///     predictions: vec![
///         Prediction::from_scores(vec![0.2, 0.8]),
///         Prediction::from_scores(vec![0.7, 0.3]),
///         Prediction::from_scores(vec![0.6, 0.4]),
///     ],
///     data: &data,
///     alpha: 1.0,
/// };
/// let handler = ConstraintHandler::new(vec![DomainConstraint::hard(
///     Predicate::AtMostOne { label: "PRICE".into() },
/// )]);
/// let set = handler.compiled(&labels);
/// let result = handler.find_mapping(&Evaluator::with_compiled(&ctx, &set), &[]);
/// assert!(result.feasible);
/// let price = labels.get("PRICE").unwrap();
/// let count = result.assignment.iter().filter(|&&l| l == price).count();
/// assert!(count <= 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConstraintHandler {
    constraints: Vec<DomainConstraint>,
    config: SearchConfig,
    /// Keep at most this many top-scoring candidate labels per tag
    /// (besides `OTHER` and force-included labels). 0 disables pruning.
    candidate_limit: usize,
}

impl ConstraintHandler {
    /// Default number of candidate labels retained per tag.
    pub const DEFAULT_CANDIDATE_LIMIT: usize = 6;

    /// Creates a handler over the given domain constraints.
    pub fn new(constraints: Vec<DomainConstraint>) -> Self {
        ConstraintHandler {
            constraints,
            config: SearchConfig::default(),
            candidate_limit: Self::DEFAULT_CANDIDATE_LIMIT,
        }
    }

    /// Overrides the search configuration.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the per-tag candidate limit (0 = consider every label).
    pub fn with_candidate_limit(mut self, limit: usize) -> Self {
        self.candidate_limit = limit;
        self
    }

    /// The domain constraints.
    pub fn constraints(&self) -> &[DomainConstraint] {
        &self.constraints
    }

    /// Replaces the domain constraints — used by lesion studies that
    /// evaluate the same trained system with and without the constraint
    /// handler's knowledge.
    pub fn set_constraints(&mut self, constraints: Vec<DomainConstraint>) {
        self.constraints = constraints;
    }

    /// Resolves the domain constraints against a label set once, so the
    /// result can be shared (read-only) by many per-source searches. The
    /// batch engine calls this before fanning sources out to workers.
    pub fn compiled(&self, labels: &LabelSet) -> CompiledConstraintSet {
        CompiledConstraintSet::compile(labels, &self.constraints)
    }

    /// Finds the least-cost 1-1 mapping for the evaluator's source under
    /// the domain constraints *plus* per-source `feedback` constraints
    /// (paper Section 4.3: "the constraint handler simply treats the new
    /// constraints as additional domain constraints, but uses them only in
    /// matching the current source").
    ///
    /// The caller builds the evaluator and keeps it, e.g. to explain the
    /// result against it afterwards. It must be over the effective
    /// constraint set: the set from [`Self::compiled`], plus `feedback` via
    /// [`CompiledConstraintSet::with_extra`] when there is any. `feedback`
    /// is still needed here because candidate pruning reads the uncompiled
    /// feedback constraints.
    pub fn find_mapping(
        &self,
        evaluator: &Evaluator<'_>,
        feedback: &[DomainConstraint],
    ) -> MappingResult {
        let ctx = evaluator.context();
        let order = refinement_order(ctx);
        let candidates = if feedback.is_empty() {
            self.prepare_candidates(evaluator, &self.constraints)
        } else {
            let mut all: Vec<DomainConstraint> =
                Vec::with_capacity(self.constraints.len() + feedback.len());
            all.extend(self.constraints.iter().cloned());
            all.extend(feedback.iter().cloned());
            self.prepare_candidates(evaluator, &all)
        };
        search_mapping(evaluator, &candidates, &order, self.config)
    }

    /// Builds the pruned candidate label sets per tag.
    fn prepare_candidates(
        &self,
        evaluator: &Evaluator<'_>,
        constraints: &[DomainConstraint],
    ) -> Vec<Vec<usize>> {
        let ctx = evaluator.context();
        let other = ctx.labels.other();
        let mut candidates: Vec<Vec<usize>> = ctx
            .predictions
            .iter()
            .map(|p| {
                let mut ranked = p.ranked_labels();
                if self.candidate_limit > 0 {
                    ranked.truncate(self.candidate_limit);
                }
                if !ranked.contains(&other) {
                    ranked.push(other);
                }
                ranked
            })
            .collect();

        // Hard type constraints prune labels whose data is incompatible
        // (cheap pre-processing, Section 7), reading the numeric fractions
        // the evaluator computed once per tag.
        for c in constraints {
            let ConstraintKind::Hard = c.kind else {
                continue;
            };
            let (label, want_numeric) = match &c.predicate {
                Predicate::IsNumeric { label } => (label, true),
                Predicate::IsTextual { label } => (label, false),
                _ => continue,
            };
            let Some(lid) = ctx.labels.get(label) else {
                continue;
            };
            for (t, cands) in candidates.iter_mut().enumerate() {
                let Some(frac) = evaluator.numeric_fraction(t) else {
                    continue;
                };
                let incompatible = if want_numeric { frac < 0.5 } else { frac > 0.5 };
                if incompatible {
                    cands.retain(|&l| l != lid);
                }
            }
        }

        // Hard tag-level constraints rewrite candidate sets outright: a
        // `TagIs` pin makes every other label infeasible anyway, so the
        // search should never branch on them, and a `TagIsNot` denial
        // removes its label. This keeps the space small and — crucially —
        // makes user corrections (Section 4.3) binding even when the rest
        // of the search degrades to greedy completion.
        let mut pinned: Vec<Option<usize>> = vec![None; ctx.tags.len()];
        for c in constraints {
            let ConstraintKind::Hard = c.kind else {
                continue;
            };
            match &c.predicate {
                Predicate::TagIs { tag, label } => {
                    if let (Some(t), Some(lid)) = (ctx.tag_index(tag), ctx.labels.get(label)) {
                        candidates[t] = vec![lid];
                        pinned[t] = Some(lid);
                    }
                }
                Predicate::TagIsNot { tag, label } => {
                    if let (Some(t), Some(lid)) = (ctx.tag_index(tag), ctx.labels.get(label)) {
                        if pinned[t].is_none() {
                            candidates[t].retain(|&l| l != lid);
                            if candidates[t].is_empty() {
                                candidates[t].push(other);
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        // Mandatory labels must stay placeable: for each hard ExactlyOne
        // label, make sure some *unpinned* tag can take it (a pinned tag
        // counts only if pinned to that very label). Otherwise, pruning —
        // or a user pinning the only candidate tag elsewhere — would make
        // every complete mapping infeasible.
        for c in constraints {
            let (ConstraintKind::Hard, Predicate::ExactlyOne { label }) = (&c.kind, &c.predicate)
            else {
                continue;
            };
            let Some(lid) = ctx.labels.get(label) else {
                continue;
            };
            let placeable = (0..ctx.tags.len()).any(|t| match pinned[t] {
                Some(p) => p == lid,
                None => candidates[t].contains(&lid),
            });
            if placeable {
                continue;
            }
            // Re-insert for the three unpinned tags that score it highest.
            let mut by_score: Vec<usize> = (0..ctx.tags.len())
                .filter(|&t| pinned[t].is_none())
                .collect();
            by_score.sort_by(|&a, &b| {
                ctx.predictions[b]
                    .score(lid)
                    .partial_cmp(&ctx.predictions[a].score(lid))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &t in by_score.iter().take(3) {
                candidates[t].push(lid);
            }
        }
        candidates
    }
}

/// The refinement order: tags sorted by decreasing structure score (number
/// of distinct tags nestable below them), the order the paper uses both for
/// A\* refinement and for presenting predictions to the user (Section 6.3).
pub(crate) fn refinement_order(ctx: &MatchingContext<'_>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ctx.tags.len()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(ctx.schema.nestable_count(&ctx.tags[t])));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_data::SourceData;
    use lsd_learn::{LabelSet, Prediction};
    use lsd_xml::{parse_dtd, SchemaTree};

    /// Runs `h` over `ctx` the way the pipeline does: the domain set,
    /// plus `feedback` when there is any, behind one evaluator.
    fn find(
        h: &ConstraintHandler,
        ctx: &MatchingContext<'_>,
        feedback: &[DomainConstraint],
    ) -> MappingResult {
        let mut set = h.compiled(ctx.labels);
        if !feedback.is_empty() {
            set = set.with_extra(ctx.labels, feedback);
        }
        h.find_mapping(&Evaluator::with_compiled(ctx, &set), feedback)
    }

    struct Fixture {
        labels: LabelSet,
        schema: SchemaTree,
        data: SourceData<'static>,
    }

    impl Fixture {
        fn new() -> Self {
            let dtd = parse_dtd(
                "<!ELEMENT l (contact, area, price)>\n\
                 <!ELEMENT contact (name, phone)>\n\
                 <!ELEMENT name (#PCDATA)>\n\
                 <!ELEMENT phone (#PCDATA)>\n\
                 <!ELEMENT area (#PCDATA)>\n\
                 <!ELEMENT price (#PCDATA)>",
            )
            .unwrap();
            let schema = SchemaTree::from_dtd(&dtd).unwrap();
            let mut data =
                SourceData::new(schema.tag_names().map(str::to_string).collect::<Vec<_>>());
            data.push_row([
                ("name", "Kate"),
                ("phone", "(206) 111 2222"),
                ("area", "Seattle, WA"),
                ("price", "$70,000"),
            ]);
            data.push_row([
                ("name", "Mike"),
                ("phone", "(305) 333 4444"),
                ("area", "Miami, FL"),
                ("price", "$250,000"),
            ]);
            Fixture {
                labels: LabelSet::new([
                    "CONTACT-INFO",
                    "AGENT-NAME",
                    "AGENT-PHONE",
                    "ADDRESS",
                    "PRICE",
                ]),
                schema,
                data,
            }
        }

        fn ctx(&self) -> MatchingContext<'_> {
            let tags: Vec<String> = ["contact", "name", "phone", "area", "price"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let peak = |i: usize, v: f64| {
                let n = self.labels.len();
                let mut s = vec![(1.0 - v) / (n as f64 - 1.0); n];
                s[i] = v;
                Prediction::from_scores(s)
            };
            MatchingContext {
                labels: &self.labels,
                schema: &self.schema,
                tags,
                predictions: vec![
                    peak(0, 0.6),
                    peak(1, 0.7),
                    peak(2, 0.8),
                    peak(3, 0.7),
                    peak(4, 0.9),
                ],
                data: &self.data,
                alpha: 1.0,
            }
        }
    }

    #[test]
    fn handler_finds_obvious_mapping() {
        let f = Fixture::new();
        let h = ConstraintHandler::new(vec![]);
        let r = find(&h, &f.ctx(), &[]);
        assert!(r.feasible);
        assert_eq!(r.assignment, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn refinement_order_puts_structured_tags_first() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let order = refinement_order(&ctx);
        assert_eq!(ctx.tags[order[0]], "contact");
    }

    #[test]
    fn feedback_overrides_prediction() {
        let f = Fixture::new();
        let h = ConstraintHandler::new(vec![]);
        let ctx = f.ctx();
        let fb = [DomainConstraint::hard(Predicate::TagIs {
            tag: "area".into(),
            label: "PRICE".into(),
        })];
        let r = find(&h, &ctx, &fb);
        assert!(r.feasible);
        let price = ctx.labels.get("PRICE").unwrap();
        assert_eq!(r.assignment[3], price);
    }

    #[test]
    fn candidate_pruning_keeps_other_and_forced_labels() {
        let f = Fixture::new();
        let h = ConstraintHandler::new(vec![]).with_candidate_limit(1);
        let ctx = f.ctx();
        // Force `price` to a label far down its ranking.
        let fb = [DomainConstraint::hard(Predicate::TagIs {
            tag: "price".into(),
            label: "AGENT-NAME".into(),
        })];
        let r = find(&h, &ctx, &fb);
        assert!(r.feasible);
        assert_eq!(r.assignment[4], ctx.labels.get("AGENT-NAME").unwrap());
    }

    #[test]
    fn type_preprocessing_blocks_textual_tag_from_numeric_label() {
        let f = Fixture::new();
        let cs = vec![DomainConstraint::hard(Predicate::IsNumeric {
            label: "PRICE".into(),
        })];
        let h = ConstraintHandler::new(cs);
        let ctx = f.ctx();
        // Even if the learners preferred PRICE for `area`, the handler must
        // not assign it: force the scenario with a skewed prediction.
        let mut ctx2 = MatchingContext {
            labels: ctx.labels,
            schema: ctx.schema,
            tags: ctx.tags.clone(),
            predictions: ctx.predictions.clone(),
            data: ctx.data,
            alpha: 1.0,
        };
        let n = f.labels.len();
        let mut s = vec![0.02; n];
        s[f.labels.get("PRICE").unwrap()] = 0.9;
        ctx2.predictions[3] = Prediction::from_scores(s); // `area` claims PRICE
        let r = find(&h, &ctx2, &[]);
        assert!(r.feasible);
        assert_ne!(r.assignment[3], f.labels.get("PRICE").unwrap());
    }

    #[test]
    fn exactly_one_reinserted_after_pruning() {
        let f = Fixture::new();
        let cs = vec![DomainConstraint::hard(Predicate::ExactlyOne {
            label: "PRICE".into(),
        })];
        let h = ConstraintHandler::new(cs).with_candidate_limit(1);
        let ctx = f.ctx();
        let r = find(&h, &ctx, &[]);
        assert!(r.feasible);
        let price = ctx.labels.get("PRICE").unwrap();
        assert_eq!(r.assignment.iter().filter(|&&l| l == price).count(), 1);
    }
}

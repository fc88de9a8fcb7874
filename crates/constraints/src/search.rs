//! Search for the least-cost candidate mapping (paper Section 4.2).
//!
//! LSD uses A\* over the space of label assignments: tags are refined in
//! decreasing structure-score order (the same order used for user feedback,
//! Section 6.3), the path cost `g` is the partial-mapping cost from
//! [`crate::evaluate_partial`], and the admissible heuristic `h` is the sum
//! over unassigned tags of their cheapest possible `−α·log s` contribution
//! (constraints can only *add* cost, so `h` never overestimates).
//!
//! Because the paper notes the handler can take minutes on large schemas,
//! the A\* expansion count is capped; on overflow the best frontier node is
//! completed greedily. Beam search and pure greedy are provided as the
//! ablation baselines (`ablation_search` bench).
//!
//! Every node the search keeps is feasible: the root (nothing assigned)
//! violates no hard constraint, and a child enters the frontier only if it
//! scored finite. So each child is scored as "feasible parent plus one
//! `(tag, label)`" by [`Evaluator::evaluate_extension`], which re-checks
//! only the hard constraints that extension can flip and returns the same
//! bits as a full [`Evaluator::evaluate`] of the child. Nodes are stored
//! compactly: the frontier holds `(id, depth, g, f)` entries and an arena
//! holds one `(parent id, label)` link per node (a node's tag is
//! `order[depth − 1]`); a popped node's assignment and per-label tag lists
//! are rebuilt once from its chain, then shared by all of its children.
//! `h` is precomputed per depth, each entry summed forward over
//! `order[d..]`: a suffix-sum table would round differently and could
//! reorder equal-looking pops. `search.evaluations` counts one evaluation
//! per scored child, plus the final cost of a greedy completion and of the
//! argmax fallback.

use crate::compiled::{CompiledConstraintSet, Evaluator, PartialAssignment};
use crate::constraint::DomainConstraint;
#[cfg(test)]
use crate::evaluate::evaluate_partial;
use crate::evaluate::{MatchingContext, INFEASIBLE};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which search algorithm the constraint handler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchAlgorithm {
    /// A\* with an expansion cap (the paper's algorithm).
    AStar {
        /// Maximum node expansions before falling back to greedy
        /// completion of the best frontier node.
        max_expansions: usize,
    },
    /// Level-synchronous beam search keeping the best `width` partial
    /// assignments per level.
    Beam {
        /// Beam width.
        width: usize,
    },
    /// Sequential greedy: each tag takes the feasible label with the lowest
    /// incremental cost.
    Greedy,
}

impl Default for SearchAlgorithm {
    fn default() -> Self {
        SearchAlgorithm::AStar {
            max_expansions: 20_000,
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SearchConfig {
    /// The algorithm to run.
    pub algorithm: SearchAlgorithm,
    /// Heuristic inflation ε for weighted A\* (`f = g + ε·h`). With ε = 1
    /// the search is admissible and the returned mapping provably optimal,
    /// but on large schemas with flat prediction scores the frontier
    /// explodes (the paper reports constraint-handler runtimes up to 20
    /// minutes). ε slightly above 1 trades the optimality proof for
    /// rapid convergence; 1.2 is the default.
    pub heuristic_weight: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            algorithm: SearchAlgorithm::default(),
            heuristic_weight: 1.2,
        }
    }
}

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Nodes expanded (popped and branched).
    pub expansions: usize,
    /// Child nodes generated (after feasibility pruning).
    pub generated: usize,
    /// Child nodes rejected before entering the frontier (hard-constraint
    /// infeasibility or a missed mandatory-label deadline).
    #[serde(default)]
    pub pruned: usize,
    /// True if the result is provably the least-cost mapping (A\* completed
    /// within its expansion budget).
    pub optimal: bool,
}

/// Per-`(tag, label)` event counters from one search run, the provenance
/// behind [`SearchStats`]' totals: how often each pairing entered the
/// frontier and how often (and why) it was pruned. Flat-indexed
/// `tag * num_labels + label`; all-zero when no search ran (a mandatory
/// label with no candidate tag dooms the search before it starts). When
/// the search ran but failed and the handler fell back to argmax, the
/// counters keep the failed run's prune history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchEvents {
    /// Label-space width (row stride of the flattened tables).
    pub num_labels: usize,
    /// `generated[t * num_labels + l]` — times assigning label `l` to tag
    /// `t` produced a frontier node.
    pub generated: Vec<u64>,
    /// Times the pairing was pruned for missing a mandatory-label deadline.
    pub pruned_deadline: Vec<u64>,
    /// Times the pairing was pruned as hard-constraint infeasible.
    pub pruned_infeasible: Vec<u64>,
}

impl SearchEvents {
    /// All-zero tables for `tags` tags over `labels` labels.
    pub fn new(tags: usize, labels: usize) -> SearchEvents {
        SearchEvents {
            num_labels: labels,
            generated: vec![0; tags * labels],
            pruned_deadline: vec![0; tags * labels],
            pruned_infeasible: vec![0; tags * labels],
        }
    }

    fn idx(&self, tag: usize, label: usize) -> usize {
        tag * self.num_labels + label
    }

    /// Frontier-node count for a `(tag, label)` pairing (0 out of range).
    pub fn generated_for(&self, tag: usize, label: usize) -> u64 {
        self.generated
            .get(self.idx(tag, label))
            .copied()
            .unwrap_or(0)
    }

    /// Deadline-prune count for a `(tag, label)` pairing (0 out of range).
    pub fn pruned_deadline_for(&self, tag: usize, label: usize) -> u64 {
        self.pruned_deadline
            .get(self.idx(tag, label))
            .copied()
            .unwrap_or(0)
    }

    /// Infeasibility-prune count for a `(tag, label)` pairing (0 out of
    /// range).
    pub fn pruned_infeasible_for(&self, tag: usize, label: usize) -> u64 {
        self.pruned_infeasible
            .get(self.idx(tag, label))
            .copied()
            .unwrap_or(0)
    }

    /// True when no search ran (the argmax fallback) or nothing happened.
    pub fn is_empty(&self) -> bool {
        self.generated.is_empty()
            || (self.generated.iter().all(|&n| n == 0)
                && self.pruned_deadline.iter().all(|&n| n == 0)
                && self.pruned_infeasible.iter().all(|&n| n == 0))
    }

    fn record_generated(&mut self, tag: usize, label: usize) {
        let i = self.idx(tag, label);
        self.generated[i] += 1;
    }

    fn record_pruned_deadline(&mut self, tag: usize, label: usize) {
        let i = self.idx(tag, label);
        self.pruned_deadline[i] += 1;
    }

    fn record_pruned_infeasible(&mut self, tag: usize, label: usize) {
        let i = self.idx(tag, label);
        self.pruned_infeasible[i] += 1;
    }
}

/// The mapping the search produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MappingResult {
    /// `assignment[t]` is the label index for `ctx.tags[t]`.
    pub assignment: Vec<usize>,
    /// Total cost of the assignment under the cost model.
    pub cost: f64,
    /// True if the assignment satisfies every hard constraint. False only
    /// when no feasible complete mapping was found and the handler fell
    /// back to the unconstrained argmax.
    pub feasible: bool,
    /// Search counters.
    pub stats: SearchStats,
    /// Per-`(tag, label)` provenance counters (empty in serialized results
    /// from older versions).
    #[serde(default)]
    pub events: SearchEvents,
}

/// One A\* frontier entry: arena node `id`, a prefix of `depth` tags in
/// `order`, with its path cost and priority.
#[derive(Debug, Clone, Copy)]
struct Open {
    id: u32,
    depth: u32,
    g: f64,
    f: f64,
}

impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.depth == other.depth
    }
}
impl Eq for Open {}
impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Open {
    /// Max-heap on *reverse* f (lower f pops first); deeper nodes win ties
    /// so complete mappings surface quickly.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

/// Search nodes as `(parent id, label)` links. The root has no link: its
/// id is [`Arena::ROOT`]. The node at depth `d` labels tag `order[d − 1]`.
#[derive(Default)]
struct Arena {
    links: Vec<(u32, u32)>,
}

impl Arena {
    const ROOT: u32 = u32::MAX;

    /// Adds the child of `parent` that assigns `label`; returns its id.
    fn push(&mut self, parent: u32, label: usize) -> u32 {
        let id = u32::try_from(self.links.len())
            .ok()
            .filter(|&id| id != Self::ROOT)
            .expect("fewer than 2^32 - 1 search nodes");
        let label = u32::try_from(label).expect("label index fits in u32");
        self.links.push((parent, label));
        id
    }

    /// Loads node `id` (at `depth`) into `partial`, replacing its contents.
    fn load(&self, id: u32, depth: usize, order: &[usize], partial: &mut PartialAssignment) {
        partial.clear();
        let (mut id, mut depth) = (id, depth);
        while id != Self::ROOT {
            let (parent, label) = self.links[id as usize];
            depth -= 1;
            partial.assign(order[depth], label as usize);
            id = parent;
        }
    }
}

/// Deadline propagation for mandatory labels: a hard `ExactlyOne(l)`
/// constraint is only *detectably* violated at the final node of a path
/// (when no tag took `l`), which makes A\* dive to the bottom, fail, and
/// backtrack across an exponential frontier. Instead, precompute for each
/// mandatory label the last position in the refinement order whose tag
/// could still take it; any state that passes that position without having
/// placed the label is pruned immediately.
struct Deadlines {
    /// `due[pos]` — labels that must be present once `order[pos]` has been
    /// assigned.
    due: Vec<Vec<usize>>,
    /// Labels no candidate set can provide at all (dooms the search).
    unplaceable: bool,
}

impl Deadlines {
    /// `mandatory` lists the label indices demanded by hard `ExactlyOne`
    /// constraints (see [`Evaluator::mandatory_labels`]).
    fn new(mandatory: &[usize], candidates: &[Vec<usize>], order: &[usize]) -> Self {
        let mut due = vec![Vec::new(); order.len()];
        let mut unplaceable = false;
        for &lid in mandatory {
            let last = order
                .iter()
                .enumerate()
                .filter(|(_, &t)| candidates[t].contains(&lid))
                .map(|(pos, _)| pos)
                .max();
            match last {
                Some(pos) => due[pos].push(lid),
                None => unplaceable = true,
            }
        }
        Deadlines { due, unplaceable }
    }

    /// True if `parent` extended with `label` at position `pos` may
    /// continue past `pos` (every label due by `pos` has been placed).
    fn satisfied(&self, pos: usize, parent: &PartialAssignment, label: usize) -> bool {
        self.due[pos]
            .iter()
            .all(|&l| l == label || parent.has_label(l))
    }
}

/// Runs the configured search. `candidates[t]` lists the label indices tag
/// `t` may take (prepared by the [`crate::ConstraintHandler`]); `order` is
/// the refinement order over tag indices.
pub fn search_mapping(
    ctx: &MatchingContext<'_>,
    constraints: &[DomainConstraint],
    candidates: &[Vec<usize>],
    order: &[usize],
    config: SearchConfig,
) -> MappingResult {
    let set = CompiledConstraintSet::compile(ctx.labels, constraints);
    search_mapping_evaluated(
        &Evaluator::with_compiled(ctx, &set),
        candidates,
        order,
        config,
    )
}

/// [`search_mapping`] over an evaluator the caller built (for one source,
/// from a constraint set compiled once and shared read-only across worker
/// threads) and keeps, so the same evaluator can also serve work after the
/// search, such as the pipeline's decision provenance. Only this search's
/// evaluations are counted in `search.evaluations`.
pub fn search_mapping_evaluated(
    evaluator: &Evaluator<'_>,
    candidates: &[Vec<usize>],
    order: &[usize],
    config: SearchConfig,
) -> MappingResult {
    let ctx = evaluator.context();
    debug_assert_eq!(candidates.len(), ctx.tags.len());
    debug_assert_eq!(order.len(), ctx.tags.len());
    let _span = lsd_obs::span!("constraints.search");
    let evaluations_before = evaluator.evaluations();
    let mut run = Run {
        evaluator,
        deadlines: Deadlines::new(evaluator.mandatory_labels(), candidates, order),
        candidates,
        order,
        stats: SearchStats::default(),
        events: SearchEvents::new(ctx.tags.len(), ctx.labels.len()),
    };
    let result = if run.deadlines.unplaceable {
        None
    } else {
        match config.algorithm {
            SearchAlgorithm::AStar { max_expansions } => {
                run.astar(max_expansions, config.heuristic_weight)
            }
            SearchAlgorithm::Beam { width } => run.beam(width),
            SearchAlgorithm::Greedy => run.complete_greedily(evaluator.partial(), 0),
        }
    };
    let mut result = result.unwrap_or_else(|| fallback_argmax(evaluator, candidates));
    result.events = run.events;
    // One flush per search call: counters were accumulated in the local
    // `SearchStats` / evaluator cell, so the hot loop never touches the
    // metrics registry.
    if lsd_obs::enabled() {
        lsd_obs::counter_add("search.runs", "", 1);
        lsd_obs::counter_add("search.nodes_expanded", "", result.stats.expansions as u64);
        lsd_obs::counter_add("search.nodes_generated", "", result.stats.generated as u64);
        lsd_obs::counter_add("search.nodes_pruned", "", result.stats.pruned as u64);
        lsd_obs::counter_add(
            "search.evaluations",
            "",
            evaluator.evaluations() - evaluations_before,
        );
        lsd_obs::gauge_max(
            "search.fd_cache_entries",
            "",
            evaluator.fd_cache_entries() as u64,
        );
    }
    result
}

/// One search run: its fixed inputs and the counters it accumulates.
struct Run<'r, 'e> {
    evaluator: &'r Evaluator<'e>,
    deadlines: Deadlines,
    candidates: &'r [Vec<usize>],
    order: &'r [usize],
    stats: SearchStats,
    events: SearchEvents,
}

impl Run<'_, '_> {
    /// Scores the child of the feasible `parent` that assigns `label` to
    /// `order[pos]`, counting it as pruned or generated. `None` if pruned.
    fn score_child(
        &mut self,
        parent: &mut PartialAssignment,
        pos: usize,
        label: usize,
    ) -> Option<f64> {
        let tag = self.order[pos];
        if !self.deadlines.satisfied(pos, parent, label) {
            self.stats.pruned += 1;
            self.events.record_pruned_deadline(tag, label);
            return None;
        }
        let g = self.evaluator.evaluate_extension(parent, tag, label);
        if g == INFEASIBLE {
            self.stats.pruned += 1;
            self.events.record_pruned_infeasible(tag, label);
            return None;
        }
        self.stats.generated += 1;
        self.events.record_generated(tag, label);
        Some(g)
    }

    /// The feasible result for a complete assignment.
    fn found(&self, partial: &PartialAssignment, cost: f64) -> MappingResult {
        MappingResult {
            assignment: partial
                .assignment()
                .iter()
                .map(|a| a.expect("complete"))
                .collect(),
            cost,
            feasible: true,
            stats: self.stats,
            events: SearchEvents::default(),
        }
    }

    fn astar(&mut self, max_expansions: usize, heuristic_weight: f64) -> Option<MappingResult> {
        let q = self.order.len();
        self.stats.optimal = heuristic_weight <= 1.0;
        // `h[d]`: the cheapest probability cost of the tags not yet
        // assigned at depth `d`, summed forward from `order[d]` (a suffix
        // sum would round differently).
        let h: Vec<f64> = (0..=q)
            .map(|d| {
                self.order[d..]
                    .iter()
                    .map(|&t| self.evaluator.best_cost(t))
                    .sum()
            })
            .collect();
        let mut arena = Arena::default();
        let mut partial = self.evaluator.partial();
        let mut open = BinaryHeap::new();
        open.push(Open {
            id: Arena::ROOT,
            depth: 0,
            g: 0.0,
            f: heuristic_weight * h[0],
        });

        while let Some(node) = open.pop() {
            let depth = node.depth as usize;
            arena.load(node.id, depth, self.order, &mut partial);
            if depth == q {
                return Some(self.found(&partial, node.g));
            }
            if self.stats.expansions >= max_expansions {
                // Budget exhausted: greedily complete this (lowest-f) node.
                self.stats.optimal = false;
                return self.complete_greedily(partial, depth);
            }
            self.stats.expansions += 1;
            let tag = self.order[depth];
            for &label in &self.candidates[tag] {
                if let Some(g) = self.score_child(&mut partial, depth, label) {
                    open.push(Open {
                        id: arena.push(node.id, label),
                        depth: node.depth + 1,
                        g,
                        f: g + heuristic_weight * h[depth + 1],
                    });
                }
            }
        }
        None // no feasible complete mapping under the candidate sets
    }

    /// Completes a feasible assignment of the first `depth` tags in `order`
    /// by per-tag feasible-best choices.
    fn complete_greedily(
        &mut self,
        mut partial: PartialAssignment,
        depth: usize,
    ) -> Option<MappingResult> {
        for pos in depth..self.order.len() {
            let tag = self.order[pos];
            let mut best: Option<(usize, f64)> = None;
            for &label in &self.candidates[tag] {
                if let Some(g) = self.score_child(&mut partial, pos, label) {
                    if g < best.map_or(INFEASIBLE, |(_, c)| c) {
                        best = Some((label, g));
                    }
                }
            }
            match best {
                Some((label, _)) => partial.assign(tag, label),
                None => return None, // dead end even for greedy
            }
        }
        let cost = self
            .evaluator
            .evaluate(partial.assignment(), &mut self.evaluator.scratch());
        if cost == INFEASIBLE {
            return None;
        }
        Some(self.found(&partial, cost))
    }

    fn beam(&mut self, width: usize) -> Option<MappingResult> {
        let width = width.max(1);
        let mut arena = Arena::default();
        let mut partial = self.evaluator.partial();
        // `(id, g)` per kept node of the current level.
        let mut level = vec![(Arena::ROOT, 0.0)];
        for (pos, &tag) in self.order.iter().enumerate() {
            let mut next: Vec<(u32, f64)> = Vec::with_capacity(level.len() * 4);
            for &(id, _) in &level {
                self.stats.expansions += 1;
                arena.load(id, pos, self.order, &mut partial);
                for &label in &self.candidates[tag] {
                    if let Some(g) = self.score_child(&mut partial, pos, label) {
                        next.push((arena.push(id, label), g));
                    }
                }
            }
            if next.is_empty() {
                return None;
            }
            next.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
            next.truncate(width);
            level = next;
        }
        let (id, cost) = level
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))?;
        arena.load(id, self.order.len(), self.order, &mut partial);
        Some(self.found(&partial, cost))
    }
}

/// Last resort when no feasible mapping exists (e.g. contradictory hard
/// constraints): per-tag argmax *within each tag's candidate set*, flagged
/// infeasible. Honouring the candidate sets keeps user `TagIs`/`TagIsNot`
/// feedback binding even when the global search fails.
fn fallback_argmax(evaluator: &Evaluator<'_>, candidates: &[Vec<usize>]) -> MappingResult {
    let assignment: Vec<usize> = evaluator
        .context()
        .predictions
        .iter()
        .zip(candidates)
        .map(|(p, cands)| {
            cands
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    p.score(a)
                        .partial_cmp(&p.score(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or_else(|| p.best_label())
        })
        .collect();
    let opt: Vec<Option<usize>> = assignment.iter().map(|&l| Some(l)).collect();
    let cost = evaluator.evaluate(&opt, &mut evaluator.scratch());
    MappingResult {
        assignment,
        cost,
        feasible: false,
        stats: SearchStats::default(),
        events: SearchEvents::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Predicate;
    use crate::source_data::SourceData;
    use lsd_learn::{LabelSet, Prediction};
    use lsd_xml::{parse_dtd, SchemaTree};

    struct Fixture {
        labels: LabelSet,
        schema: SchemaTree,
        data: SourceData,
    }

    impl Fixture {
        fn new() -> Self {
            let dtd = parse_dtd(
                "<!ELEMENT listing (area, price, extra)>\n\
                 <!ELEMENT area (#PCDATA)>\n\
                 <!ELEMENT price (#PCDATA)>\n\
                 <!ELEMENT extra (#PCDATA)>",
            )
            .unwrap();
            let schema = SchemaTree::from_dtd(&dtd).unwrap();
            let mut data =
                SourceData::new(schema.tag_names().map(str::to_string).collect::<Vec<_>>());
            data.push_row([("area", "Miami"), ("price", "100"), ("extra", "nice")]);
            data.push_row([("area", "Boston"), ("price", "100"), ("extra", "nice")]);
            Fixture {
                labels: LabelSet::new(["ADDRESS", "PRICE"]),
                schema,
                data,
            }
        }

        /// Context where `area` and `extra` both look like ADDRESS, with
        /// `area` the stronger match, and `price` looks like PRICE.
        fn ctx(&self) -> MatchingContext<'_> {
            MatchingContext {
                labels: &self.labels,
                schema: &self.schema,
                tags: vec!["area".into(), "price".into(), "extra".into()],
                predictions: vec![
                    Prediction::from_scores(vec![0.8, 0.1, 0.1]),
                    Prediction::from_scores(vec![0.1, 0.8, 0.1]),
                    Prediction::from_scores(vec![0.6, 0.1, 0.3]),
                ],
                data: &self.data,
                alpha: 1.0,
            }
        }
    }

    fn all_candidates(ctx: &MatchingContext<'_>) -> Vec<Vec<usize>> {
        vec![(0..ctx.labels.len()).collect(); ctx.tags.len()]
    }

    fn run(f: &Fixture, constraints: &[DomainConstraint], alg: SearchAlgorithm) -> MappingResult {
        let ctx = f.ctx();
        let candidates = all_candidates(&ctx);
        let order: Vec<usize> = (0..ctx.tags.len()).collect();
        search_mapping(
            &ctx,
            constraints,
            &candidates,
            &order,
            SearchConfig {
                algorithm: alg,
                heuristic_weight: 1.0,
            },
        )
    }

    #[test]
    fn unconstrained_search_is_argmax() {
        let f = Fixture::new();
        for alg in [
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
            SearchAlgorithm::Beam { width: 8 },
            SearchAlgorithm::Greedy,
        ] {
            let r = run(&f, &[], alg);
            assert!(r.feasible);
            // area→ADDRESS, price→PRICE, extra→ADDRESS (its argmax).
            assert_eq!(r.assignment, vec![0, 1, 0], "{alg:?}");
        }
    }

    #[test]
    fn at_most_one_forces_weaker_tag_elsewhere() {
        let f = Fixture::new();
        let cs = [DomainConstraint::hard(Predicate::AtMostOne {
            label: "ADDRESS".into(),
        })];
        let r = run(
            &f,
            &cs,
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
        );
        assert!(r.feasible);
        assert!(r.stats.optimal);
        // `area` keeps ADDRESS (stronger), `extra` must move to OTHER
        // (score 0.3) rather than PRICE (0.1).
        assert_eq!(r.assignment[0], 0);
        assert_eq!(r.assignment[2], f.labels.other());
    }

    #[test]
    fn astar_result_is_optimal_vs_exhaustive() {
        let f = Fixture::new();
        let cs = [
            DomainConstraint::hard(Predicate::AtMostOne {
                label: "ADDRESS".into(),
            }),
            DomainConstraint::soft(Predicate::AtMostK {
                label: "PRICE".into(),
                k: 1,
            }),
        ];
        let ctx = f.ctx();
        let n = ctx.labels.len();
        // Exhaustive minimum over all n^3 assignments.
        let mut best_cost = INFEASIBLE;
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    let cost = evaluate_partial(&ctx, &cs, &[Some(a), Some(b), Some(c)]);
                    if cost < best_cost {
                        best_cost = cost;
                    }
                }
            }
        }
        let r = run(
            &f,
            &cs,
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
        );
        assert!((r.cost - best_cost).abs() < 1e-9);
    }

    #[test]
    fn expansion_cap_falls_back_to_greedy_completion() {
        let f = Fixture::new();
        let r = run(&f, &[], SearchAlgorithm::AStar { max_expansions: 1 });
        assert!(r.feasible);
        assert!(!r.stats.optimal);
        assert_eq!(r.assignment.len(), 3);
    }

    #[test]
    fn contradictory_hard_constraints_fall_back_to_argmax() {
        let f = Fixture::new();
        let cs = [
            DomainConstraint::hard(Predicate::TagIs {
                tag: "area".into(),
                label: "PRICE".into(),
            }),
            DomainConstraint::hard(Predicate::TagIsNot {
                tag: "area".into(),
                label: "PRICE".into(),
            }),
        ];
        let r = run(
            &f,
            &cs,
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
        );
        assert!(!r.feasible);
        assert_eq!(r.assignment, vec![0, 1, 0]);
    }

    #[test]
    fn feedback_constraint_steers_search() {
        let f = Fixture::new();
        let cs = [DomainConstraint::hard(Predicate::TagIs {
            tag: "extra".into(),
            label: "PRICE".into(),
        })];
        let r = run(
            &f,
            &cs,
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
        );
        assert!(r.feasible);
        assert_eq!(r.assignment[2], 1);
    }

    #[test]
    fn beam_width_one_equals_greedy() {
        let f = Fixture::new();
        let cs = [DomainConstraint::hard(Predicate::AtMostOne {
            label: "ADDRESS".into(),
        })];
        let beam = run(&f, &cs, SearchAlgorithm::Beam { width: 1 });
        let greedy = run(&f, &cs, SearchAlgorithm::Greedy);
        assert_eq!(beam.assignment, greedy.assignment);
    }

    #[test]
    fn events_attribute_prunes_to_tag_label_pairs() {
        let f = Fixture::new();
        let cs = [DomainConstraint::hard(Predicate::AtMostOne {
            label: "ADDRESS".into(),
        })];
        let r = run(
            &f,
            &cs,
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
        );
        assert!(r.feasible);
        let ev = &r.events;
        assert_eq!(ev.num_labels, f.labels.len());
        // Totals agree with the aggregate stats.
        assert_eq!(
            ev.generated.iter().sum::<u64>(),
            r.stats.generated as u64,
            "generated totals"
        );
        assert_eq!(
            ev.pruned_deadline.iter().sum::<u64>() + ev.pruned_infeasible.iter().sum::<u64>(),
            r.stats.pruned as u64,
            "pruned totals"
        );
        // The AtMostOne(ADDRESS) constraint fires when `extra` (tag 2)
        // tries ADDRESS (label 0) after `area` took it.
        assert!(ev.pruned_infeasible_for(2, 0) > 0, "{ev:?}");
        // The winning pairings generated frontier nodes.
        assert!(ev.generated_for(0, 0) > 0);
        assert!(ev.generated_for(1, 1) > 0);
    }

    #[test]
    fn fallback_leaves_failed_search_events() {
        let f = Fixture::new();
        let cs = [
            DomainConstraint::hard(Predicate::TagIs {
                tag: "area".into(),
                label: "PRICE".into(),
            }),
            DomainConstraint::hard(Predicate::TagIsNot {
                tag: "area".into(),
                label: "PRICE".into(),
            }),
        ];
        let r = run(
            &f,
            &cs,
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
        );
        assert!(!r.feasible);
        // Dimensions are still right even though the search failed.
        assert_eq!(r.events.num_labels, f.labels.len());
        assert_eq!(r.events.generated.len(), 3 * f.labels.len());
    }

    #[test]
    fn stats_are_populated() {
        let f = Fixture::new();
        let r = run(
            &f,
            &[],
            SearchAlgorithm::AStar {
                max_expansions: 10_000,
            },
        );
        assert!(r.stats.expansions > 0);
        assert!(r.stats.generated >= r.stats.expansions);
    }
}

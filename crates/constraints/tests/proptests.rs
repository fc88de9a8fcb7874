//! Property-based tests for the constraint engine: random constraint sets
//! and predictions must never panic, the search must uphold its contracts
//! (assignment shape, feasibility flag, greedy ≥ A\* cost), scoring a
//! feasible parent's child must give the bits a full evaluation gives, and
//! the search must return exactly what full-evaluation search loops return
//! (the test-only oracle below).

use lsd_constraints::{
    evaluate_partial, search_mapping_evaluated, ConstraintHandler, DomainConstraint, Evaluator,
    MappingResult, MatchingContext, Predicate, SearchAlgorithm, SearchConfig, SourceData,
    INFEASIBLE,
};
use lsd_learn::{LabelSet, Prediction};
use lsd_xml::{parse_dtd, SchemaTree};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const LABELS: [&str; 5] = ["ALPHA", "BETA", "GAMMA", "DELTA", "EPSILON"];
const TAGS: [&str; 7] = ["root", "grp", "t1", "t2", "t3", "t4", "t5"];

/// `grp`, `t3`, `t4` and `t5` are siblings, so contiguity between `grp`
/// and `t5` reads the labels of `t3` and `t4`.
fn schema() -> SchemaTree {
    let dtd = parse_dtd(
        "<!ELEMENT root (grp, t3, t4, t5)>\n<!ELEMENT grp (t1, t2)>\n\
         <!ELEMENT t1 (#PCDATA)>\n<!ELEMENT t2 (#PCDATA)>\n\
         <!ELEMENT t3 (#PCDATA)>\n<!ELEMENT t4 (#PCDATA)>\n<!ELEMENT t5 (#PCDATA)>",
    )
    .expect("valid DTD");
    SchemaTree::from_dtd(&dtd).expect("closed DTD")
}

fn data() -> SourceData {
    let mut d = SourceData::new(TAGS.iter().map(|t| t.to_string()).collect::<Vec<_>>());
    d.push_row([
        ("t1", "1"),
        ("t2", "alpha"),
        ("t3", "7"),
        ("t4", "x"),
        ("t5", "9"),
    ]);
    d.push_row([
        ("t1", "2"),
        ("t2", "beta"),
        ("t3", "7"),
        ("t4", "y"),
        ("t5", "8"),
    ]);
    d
}

/// An arbitrary label name — sometimes `OTHER`, sometimes unknown, to
/// exercise the inert path.
fn arb_label() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..LABELS.len()).prop_map(|i| LABELS[i].to_string()),
        (0usize..LABELS.len()).prop_map(|i| LABELS[i].to_string()),
        Just("OTHER".to_string()),
        Just("NO-SUCH-LABEL".to_string()),
    ]
}

/// An arbitrary source tag name — sometimes unknown.
fn arb_tag() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..TAGS.len()).prop_map(|i| TAGS[i].to_string()),
        Just("no-such-tag".to_string()),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        arb_label().prop_map(|label| Predicate::AtMostOne { label }),
        arb_label().prop_map(|label| Predicate::ExactlyOne { label }),
        (arb_label(), arb_label()).prop_map(|(outer, inner)| Predicate::NestedIn { outer, inner }),
        (arb_label(), arb_label())
            .prop_map(|(outer, inner)| Predicate::NotNestedIn { outer, inner }),
        (arb_label(), arb_label()).prop_map(|(a, b)| Predicate::Contiguous { a, b }),
        (arb_label(), arb_label()).prop_map(|(a, b)| Predicate::MutuallyExclusive { a, b }),
        arb_label().prop_map(|label| Predicate::IsKey { label }),
        (arb_label(), arb_label()).prop_map(|(d, dep)| Predicate::FunctionalDependency {
            determinants: vec![d],
            dependent: dep,
        }),
        (arb_label(), arb_label(), arb_label()).prop_map(|(d1, d2, dep)| {
            Predicate::FunctionalDependency {
                determinants: vec![d1, d2],
                dependent: dep,
            }
        }),
        (arb_label(), 0usize..3).prop_map(|(label, k)| Predicate::AtMostK { label, k }),
        (arb_label(), arb_label()).prop_map(|(a, b)| Predicate::Proximity { a, b }),
        arb_label().prop_map(|label| Predicate::IsNumeric { label }),
        arb_label().prop_map(|label| Predicate::IsTextual { label }),
        (arb_tag(), arb_label()).prop_map(|(tag, label)| Predicate::TagIs { tag, label }),
        (arb_tag(), arb_label()).prop_map(|(tag, label)| Predicate::TagIsNot { tag, label }),
    ]
}

fn arb_constraint() -> impl Strategy<Value = DomainConstraint> {
    (arb_predicate(), 0u8..3).prop_map(|(predicate, kind)| match kind {
        0 => DomainConstraint::hard(predicate),
        1 => DomainConstraint::soft(predicate),
        _ => DomainConstraint::numeric(predicate, 0.5),
    })
}

fn arb_predictions() -> impl Strategy<Value = Vec<Prediction>> {
    prop::collection::vec(
        prop::collection::vec(0.01f64..1.0, LABELS.len() + 1).prop_map(Prediction::from_scores),
        TAGS.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The handler never panics and always returns one label per tag, for
    /// any constraint set and any predictions.
    #[test]
    fn handler_total_and_well_shaped(
        constraints in prop::collection::vec(arb_constraint(), 0..12),
        predictions in arb_predictions(),
        algorithm in prop_oneof![
            Just(SearchAlgorithm::AStar { max_expansions: 2_000 }),
            Just(SearchAlgorithm::Beam { width: 4 }),
            Just(SearchAlgorithm::Greedy),
        ],
    ) {
        let (labels, schema, data) = (LabelSet::new(LABELS), schema(), data());
        let ctx = context(&labels, &schema, &data, predictions);
        let handler = ConstraintHandler::new(constraints.clone())
            .with_config(SearchConfig { algorithm, heuristic_weight: 1.2 });
        let result = handler.find_mapping(&ctx);
        prop_assert_eq!(result.assignment.len(), TAGS.len());
        prop_assert!(result.assignment.iter().all(|&l| l < labels.len()));
        // If flagged feasible, the full evaluation agrees it is finite.
        if result.feasible {
            let opt: Vec<Option<usize>> = result.assignment.iter().map(|&l| Some(l)).collect();
            let cost = evaluate_partial(&ctx, &constraints, &opt);
            prop_assert!(cost.is_finite(), "feasible result evaluates to {cost}");
        }
    }

    /// Admissible A* never returns a costlier mapping than greedy under the
    /// same (finite) constraint set.
    #[test]
    fn astar_cost_at_most_greedy(
        constraints in prop::collection::vec(arb_constraint(), 0..8),
        predictions in arb_predictions(),
    ) {
        let (labels, schema, data) = (LabelSet::new(LABELS), schema(), data());
        let ctx = context(&labels, &schema, &data, predictions);
        let run = |algorithm| {
            ConstraintHandler::new(constraints.clone())
                .with_config(SearchConfig { algorithm, heuristic_weight: 1.0 })
                .find_mapping(&ctx)
        };
        let astar = run(SearchAlgorithm::AStar { max_expansions: 200_000 });
        let greedy = run(SearchAlgorithm::Greedy);
        prop_assume!(astar.feasible && astar.stats.optimal && greedy.feasible);
        prop_assert!(
            astar.cost <= greedy.cost + 1e-9,
            "A* cost {} > greedy cost {}",
            astar.cost,
            greedy.cost
        );
    }

    /// Partial-assignment evaluation is monotone for hard constraints:
    /// extending an infeasible prefix can never make it feasible.
    #[test]
    fn infeasible_prefixes_stay_infeasible(
        constraints in prop::collection::vec(arb_constraint(), 1..8),
        predictions in arb_predictions(),
        assignment in prop::collection::vec(prop::option::of(0usize..LABELS.len() + 1), TAGS.len()),
        extend_at in 0usize..TAGS.len(),
        extend_with in 0usize..LABELS.len() + 1,
    ) {
        let (labels, schema, data) = (LabelSet::new(LABELS), schema(), data());
        let ctx = context(&labels, &schema, &data, predictions);
        // Only meaningful when there is an unassigned slot to extend:
        // completing a partial assignment can trigger ExactlyOne's
        // at-completion check, which is not a prefix violation.
        prop_assume!(assignment[extend_at].is_none());
        let mut extended = assignment.clone();
        extended[extend_at] = Some(extend_with);
        prop_assume!(extended.iter().any(Option::is_none));
        let before = evaluate_partial(&ctx, &constraints, &assignment);
        let after = evaluate_partial(&ctx, &constraints, &extended);
        if before.is_infinite() {
            prop_assert!(after.is_infinite(), "extension repaired an infeasible prefix");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Scoring a feasible parent plus one `(tag, label)` returns the same
    /// bits as a full evaluation of the child, for every extension:
    /// infeasible ones, completing ones, `OTHER` between contiguous tags,
    /// functional dependencies whose first tag moves, feedback on the
    /// extended tag. The parent is left as it was.
    #[test]
    fn extension_scoring_is_bit_identical_to_full_evaluation(
        constraints in prop::collection::vec(arb_constraint(), 0..14),
        predictions in arb_predictions(),
        seed in any::<u64>(),
    ) {
        let (labels, schema, data) = (LabelSet::new(LABELS), schema(), data());
        let ctx = context(&labels, &schema, &data, predictions);
        let evaluator = Evaluator::new(&ctx, &constraints);
        let mut scratch = evaluator.scratch();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (q, n) = (TAGS.len(), labels.len());

        // A feasible parent: random steps, each kept only if the result is
        // still feasible. Half the parents are filled as far as possible
        // around one hole, so completing extensions are common.
        let mut parent = evaluator.partial();
        let hole = rng.gen_range(0..q);
        let dense = rng.gen_bool(0.5);
        let steps = if dense { q } else { rng.gen_range(0..=q) };
        let mut tags: Vec<usize> = (0..q).collect();
        tags.shuffle(&mut rng);
        for &tag in tags.iter().take(steps) {
            if dense && tag == hole {
                continue;
            }
            let mut tries: Vec<usize> = (0..n).collect();
            tries.shuffle(&mut rng);
            tries.truncate(if dense { n } else { 1 });
            for label in tries {
                let mut child = parent.assignment().to_vec();
                child[tag] = Some(label);
                if evaluator.evaluate(&child, &mut scratch) != INFEASIBLE {
                    parent.assign(tag, label);
                    break;
                }
            }
        }
        let before = parent.assignment().to_vec();
        prop_assert!(evaluator.evaluate(&before, &mut scratch) != INFEASIBLE);

        for tag in (0..q).filter(|&t| before[t].is_none()) {
            for label in 0..n {
                let mut child = before.clone();
                child[tag] = Some(label);
                let full = evaluator.evaluate(&child, &mut scratch);
                let extended = evaluator.evaluate_extension(&mut parent, tag, label);
                prop_assert_eq!(
                    extended.to_bits(),
                    full.to_bits(),
                    "child {:?}: extension {} vs full {}",
                    child,
                    extended,
                    full
                );
                prop_assert_eq!(parent.assignment(), &before[..]);
            }
        }
    }

    /// A\*, beam and greedy return exactly what the full-evaluation oracle
    /// returns: assignment, cost bits, feasibility, counters,
    /// per-pair events and the number of evaluations. Small expansion caps
    /// make A\* finish many runs by greedy completion.
    #[test]
    fn search_matches_full_evaluation_oracle(
        constraints in prop::collection::vec(arb_constraint(), 0..12),
        predictions in arb_predictions(),
        seed in any::<u64>(),
        algorithm in prop_oneof![
            (0usize..40).prop_map(|max_expansions| SearchAlgorithm::AStar { max_expansions }),
            Just(SearchAlgorithm::AStar { max_expansions: 100_000 }),
            (1usize..5).prop_map(|width| SearchAlgorithm::Beam { width }),
            Just(SearchAlgorithm::Greedy),
        ],
        heuristic_weight in prop_oneof![Just(1.0), Just(1.2)],
    ) {
        let (labels, schema, data) = (LabelSet::new(LABELS), schema(), data());
        let ctx = context(&labels, &schema, &data, predictions);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (q, n) = (TAGS.len(), labels.len());
        // Random candidate lists (in random order, now and then empty) and
        // a random refinement order.
        let candidates: Vec<Vec<usize>> = (0..q)
            .map(|_| {
                let mut all: Vec<usize> = (0..n).collect();
                all.shuffle(&mut rng);
                let keep = if rng.gen_bool(0.03) { 0 } else { rng.gen_range(1..=n) };
                all.truncate(keep);
                all
            })
            .collect();
        let mut order: Vec<usize> = (0..q).collect();
        order.shuffle(&mut rng);
        let config = SearchConfig { algorithm, heuristic_weight };

        let fast = Evaluator::new(&ctx, &constraints);
        let got = search_mapping_evaluated(&fast, &candidates, &order, config);
        let slow = Evaluator::new(&ctx, &constraints);
        let want = oracle::search(&slow, &candidates, &order, config);
        prop_assert_eq!(&got.assignment, &want.assignment);
        prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{} vs {}", got.cost, want.cost);
        prop_assert_eq!(got.feasible, want.feasible);
        prop_assert_eq!(stats(&got), stats(&want));
        prop_assert_eq!(&got.events, &want.events);
        prop_assert_eq!(fast.evaluations(), slow.evaluations());
    }
}

fn context<'a>(
    labels: &'a LabelSet,
    schema: &'a SchemaTree,
    data: &'a SourceData,
    predictions: Vec<Prediction>,
) -> MatchingContext<'a> {
    MatchingContext {
        labels,
        schema,
        tags: TAGS.iter().map(|t| t.to_string()).collect(),
        predictions,
        data,
        alpha: 1.0,
    }
}

fn stats(r: &MappingResult) -> (usize, usize, usize, bool) {
    (
        r.stats.expansions,
        r.stats.generated,
        r.stats.pruned,
        r.stats.optimal,
    )
}

/// A\*, beam and greedy with no incremental state: every node owns a cloned
/// assignment and every child is scored by a full [`Evaluator::evaluate`].
/// The reference the real search must match exactly.
mod oracle {
    use lsd_constraints::{
        Evaluator, MappingResult, Scratch, SearchAlgorithm, SearchConfig, SearchEvents,
        SearchStats, INFEASIBLE,
    };
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Clone)]
    struct Node {
        assignment: Vec<Option<usize>>,
        depth: usize,
        g: f64,
        f: f64,
    }

    impl PartialEq for Node {
        fn eq(&self, other: &Self) -> bool {
            self.f == other.f && self.depth == other.depth
        }
    }
    impl Eq for Node {}
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .f
                .partial_cmp(&self.f)
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.depth.cmp(&other.depth))
        }
    }

    struct Deadlines {
        due: Vec<Vec<usize>>,
        unplaceable: bool,
    }

    impl Deadlines {
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

        fn satisfied(&self, pos: usize, assignment: &[Option<usize>]) -> bool {
            self.due[pos].iter().all(|&l| assignment.contains(&Some(l)))
        }
    }

    struct Run<'e, 'a> {
        evaluator: &'e Evaluator<'a>,
        deadlines: Deadlines,
        scratch: Scratch,
        candidates: &'e [Vec<usize>],
        order: &'e [usize],
        events: SearchEvents,
    }

    impl Run<'_, '_> {
        fn bump(table: &mut [u64], labels: usize, tag: usize, label: usize) {
            table[tag * labels + label] += 1;
        }

        /// Scores one child; `None` if pruned.
        fn child(
            &mut self,
            pos: usize,
            assignment: &[Option<usize>],
            stats: &mut SearchStats,
        ) -> Option<f64> {
            let tag = self.order[pos];
            let label = assignment[tag].expect("child assigns its tag");
            let labels = self.events.num_labels;
            if !self.deadlines.satisfied(pos, assignment) {
                stats.pruned += 1;
                Self::bump(&mut self.events.pruned_deadline, labels, tag, label);
                return None;
            }
            let g = self.evaluator.evaluate(assignment, &mut self.scratch);
            if g == INFEASIBLE {
                stats.pruned += 1;
                Self::bump(&mut self.events.pruned_infeasible, labels, tag, label);
                return None;
            }
            stats.generated += 1;
            Self::bump(&mut self.events.generated, labels, tag, label);
            Some(g)
        }

        fn heuristic(&self, depth: usize) -> f64 {
            self.order[depth..]
                .iter()
                .map(|&t| self.evaluator.best_cost(t))
                .sum()
        }

        fn done(assignment: Vec<Option<usize>>, cost: f64, stats: SearchStats) -> MappingResult {
            MappingResult {
                assignment: assignment
                    .into_iter()
                    .map(|a| a.expect("complete"))
                    .collect(),
                cost,
                feasible: true,
                stats,
                events: SearchEvents::default(),
            }
        }

        fn astar(&mut self, max_expansions: usize, weight: f64) -> Option<MappingResult> {
            let q = self.order.len();
            let mut stats = SearchStats {
                optimal: weight <= 1.0,
                ..Default::default()
            };
            let mut open = BinaryHeap::new();
            open.push(Node {
                assignment: vec![None; q],
                depth: 0,
                g: 0.0,
                f: weight * self.heuristic(0),
            });
            while let Some(node) = open.pop() {
                if node.depth == q {
                    return Some(Self::done(node.assignment, node.g, stats));
                }
                if stats.expansions >= max_expansions {
                    stats.optimal = false;
                    return self.complete_greedily(node, stats);
                }
                stats.expansions += 1;
                let tag = self.order[node.depth];
                for &label in &self.candidates[tag] {
                    let mut assignment = node.assignment.clone();
                    assignment[tag] = Some(label);
                    if let Some(g) = self.child(node.depth, &assignment, &mut stats) {
                        let f = g + weight * self.heuristic(node.depth + 1);
                        open.push(Node {
                            assignment,
                            depth: node.depth + 1,
                            g,
                            f,
                        });
                    }
                }
            }
            None
        }

        fn complete_greedily(
            &mut self,
            node: Node,
            mut stats: SearchStats,
        ) -> Option<MappingResult> {
            let mut assignment = node.assignment;
            for pos in node.depth..self.order.len() {
                let tag = self.order[pos];
                let mut best: Option<(usize, f64)> = None;
                for &label in &self.candidates[tag] {
                    assignment[tag] = Some(label);
                    if let Some(g) = self.child(pos, &assignment, &mut stats) {
                        if g < best.map_or(INFEASIBLE, |(_, c)| c) {
                            best = Some((label, g));
                        }
                    }
                }
                match best {
                    Some((label, _)) => assignment[tag] = Some(label),
                    None => return None,
                }
            }
            let cost = self.evaluator.evaluate(&assignment, &mut self.scratch);
            if cost == INFEASIBLE {
                return None;
            }
            Some(Self::done(assignment, cost, stats))
        }

        fn beam(&mut self, width: usize) -> Option<MappingResult> {
            let width = width.max(1);
            let mut stats = SearchStats::default();
            let mut level = vec![Node {
                assignment: vec![None; self.order.len()],
                depth: 0,
                g: 0.0,
                f: 0.0,
            }];
            for pos in 0..self.order.len() {
                let tag = self.order[pos];
                let mut next = Vec::new();
                for node in &level {
                    stats.expansions += 1;
                    for &label in &self.candidates[tag] {
                        let mut assignment = node.assignment.clone();
                        assignment[tag] = Some(label);
                        if let Some(g) = self.child(pos, &assignment, &mut stats) {
                            next.push(Node {
                                assignment,
                                depth: node.depth + 1,
                                g,
                                f: g,
                            });
                        }
                    }
                }
                if next.is_empty() {
                    return None;
                }
                next.sort_by(|a, b| a.g.partial_cmp(&b.g).unwrap_or(Ordering::Equal));
                next.truncate(width);
                level = next;
            }
            let best = level
                .into_iter()
                .min_by(|a, b| a.g.partial_cmp(&b.g).unwrap_or(Ordering::Equal))?;
            Some(Self::done(best.assignment, best.g, stats))
        }

        fn fallback_argmax(&mut self) -> MappingResult {
            let ctx = self.evaluator.context();
            let assignment: Vec<usize> = ctx
                .predictions
                .iter()
                .zip(self.candidates)
                .map(|(p, cands)| {
                    cands
                        .iter()
                        .copied()
                        .max_by(|&a, &b| {
                            p.score(a)
                                .partial_cmp(&p.score(b))
                                .unwrap_or(Ordering::Equal)
                        })
                        .unwrap_or_else(|| p.best_label())
                })
                .collect();
            let opt: Vec<Option<usize>> = assignment.iter().map(|&l| Some(l)).collect();
            let cost = self.evaluator.evaluate(&opt, &mut self.scratch);
            MappingResult {
                assignment,
                cost,
                feasible: false,
                stats: SearchStats::default(),
                events: SearchEvents::default(),
            }
        }
    }

    /// `search_mapping_evaluated`, by the full-evaluation loops.
    pub fn search(
        evaluator: &Evaluator<'_>,
        candidates: &[Vec<usize>],
        order: &[usize],
        config: SearchConfig,
    ) -> MappingResult {
        let ctx = evaluator.context();
        let mut run = Run {
            evaluator,
            deadlines: Deadlines::new(evaluator.mandatory_labels(), candidates, order),
            scratch: evaluator.scratch(),
            candidates,
            order,
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
                SearchAlgorithm::Greedy => {
                    let start = Node {
                        assignment: vec![None; order.len()],
                        depth: 0,
                        g: 0.0,
                        f: 0.0,
                    };
                    run.complete_greedily(start, SearchStats::default())
                }
            }
        };
        let mut result = result.unwrap_or_else(|| run.fallback_argmax());
        result.events = run.events;
        result
    }
}

//! Decision provenance: the full "why did LSD map `tag` to `label`?" story
//! for one matched source.
//!
//! [`crate::MatchOutcome::explain`] assembles, per source tag, everything
//! the pipeline already captured while matching — no second pass:
//!
//! - each base learner's converted tag-level score for every candidate
//!   label (every learner carries the same weight in the combination);
//! - the combined converter score the constraint handler ranked by;
//! - for every candidate that outranked the chosen label, *why it lost*:
//!   the hard constraints it violates, or the cost delta the swap would
//!   incur ([`RejectionReason`]);
//! - the A\* search's per-(tag, label) generate/prune counters
//!   ([`TagLabelSearch`], from `lsd_constraints::SearchEvents`).
//!
//! Explanations are plain serializable data: render them with
//! [`Explanation::render`] for humans or serialize to JSON for tooling
//! (the `lsd-explain` binary does both). The record is deterministic —
//! byte-identical across `LSD_THREADS` settings, like the mapping itself.

use serde::Serialize;

use crate::system::MatchOutcome;

/// Why a candidate that outranked the chosen label did not win.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RejectionReason {
    /// Swapping the candidate in violates one or more hard domain
    /// constraints — the assignment would be infeasible.
    Constraint {
        /// `Display` renderings of the violated hard constraints.
        violated: Vec<String>,
    },
    /// The swap is feasible but costs more than the chosen mapping
    /// (soft-constraint penalties and/or probability cost outweigh the
    /// higher tag-level score).
    CostlierMapping {
        /// `cost(swapped) − cost(chosen)`, strictly positive.
        delta_cost: f64,
    },
    /// The swap is feasible and not costlier with every other tag held
    /// fixed, yet the search still preferred the chosen mapping — the
    /// search stopped early (deadline, beam width) before exploring it.
    SearchIncomplete {
        /// `cost(swapped) − cost(chosen)`, zero or negative.
        delta_cost: f64,
    },
}

/// One base learner's contribution to a candidate's combined score.
#[derive(Debug, Clone, Serialize)]
pub struct LearnerContribution {
    /// Base learner name.
    pub learner: String,
    /// The learner's converted tag-level score for this label.
    pub score: f64,
}

/// Per-(tag, label) constraint-search telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TagLabelSearch {
    /// Successor nodes generated assigning this label to this tag.
    pub generated: u64,
    /// Prunes by the mandatory-label deadline check.
    pub pruned_deadline: u64,
    /// Prunes by hard-constraint infeasibility.
    pub pruned_infeasible: u64,
}

/// One ranked candidate label, annotated with provenance.
#[derive(Debug, Clone, Serialize)]
pub struct CandidateExplanation {
    /// The mediated-schema label name.
    pub label: String,
    /// Rank by combined score (0 = best). Matches the order of
    /// [`MatchOutcome::candidates`] exactly.
    pub rank: usize,
    /// The combined converter score the constraint handler ranked by.
    pub score: f64,
    /// True for the label the final mapping assigned to this tag.
    pub chosen: bool,
    /// Per-learner breakdown of `score`'s provenance, in combination
    /// order.
    pub learners: Vec<LearnerContribution>,
    /// Why this candidate lost, for candidates ranked above the chosen
    /// label in a feasible mapping. `None` for the chosen label, for
    /// candidates ranked below it, and throughout infeasible mappings.
    pub rejection: Option<RejectionReason>,
    /// Search activity attributed to this (tag, label) pair.
    pub search: TagLabelSearch,
}

/// The full provenance record for one source tag.
#[derive(Debug, Clone, Serialize)]
pub struct Explanation {
    /// The source tag.
    pub tag: String,
    /// The label the final mapping assigned (`OTHER` if unmatched).
    pub chosen_label: String,
    /// Whether the overall source mapping satisfied every hard constraint.
    pub feasible: bool,
    /// How many data instances of this tag the pipeline examined.
    pub instances_examined: usize,
    /// Every candidate label, best first, with scores and rejection
    /// verdicts.
    pub candidates: Vec<CandidateExplanation>,
}

impl Explanation {
    /// Renders the explanation for humans. Deterministic: byte-identical
    /// across thread counts for the same trained system and source.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tag `{}` -> {}  ({}, {} instances examined)",
            self.tag,
            self.chosen_label,
            if self.feasible {
                "feasible mapping"
            } else {
                "no feasible mapping"
            },
            self.instances_examined,
        );
        for cand in &self.candidates {
            let marker = if cand.chosen { "  <- chosen" } else { "" };
            let _ = writeln!(
                out,
                "  #{} {}  score {:.4}{}",
                cand.rank + 1,
                cand.label,
                cand.score,
                marker,
            );
            for lc in &cand.learners {
                let _ = writeln!(out, "      {:<12} s={:.4}", lc.learner, lc.score);
            }
            match &cand.rejection {
                Some(RejectionReason::Constraint { violated }) => {
                    let _ = writeln!(out, "      rejected: violates {}", violated.join("; "));
                }
                Some(RejectionReason::CostlierMapping { delta_cost }) => {
                    let _ = writeln!(
                        out,
                        "      rejected: mapping cost would rise by {delta_cost:.4}",
                    );
                }
                Some(RejectionReason::SearchIncomplete { delta_cost }) => {
                    let _ = writeln!(
                        out,
                        "      rejected: search stopped early (swap delta {delta_cost:.4})",
                    );
                }
                None => {}
            }
            if cand.search != TagLabelSearch::default() {
                let _ = writeln!(
                    out,
                    "      search: {} generated, {} pruned (deadline), {} pruned (infeasible)",
                    cand.search.generated,
                    cand.search.pruned_deadline,
                    cand.search.pruned_infeasible,
                );
            }
        }
        out
    }
}

impl MatchOutcome {
    /// The provenance record for one source tag: per-learner scores,
    /// combined scores, rejection verdicts for
    /// every candidate that outranked the chosen label, and per-(tag,
    /// label) search counters. `None` for a tag the source does not have.
    ///
    /// Candidates appear in exactly the order of
    /// [`MatchOutcome::candidates`].
    pub fn explain(&self, tag: &str) -> Option<Explanation> {
        let ti = self.tags.iter().position(|t| t == tag)?;
        Some(self.explain_index(ti))
    }

    /// [`MatchOutcome::explain`] for every tag, in schema declaration
    /// order.
    pub fn explain_all(&self) -> Vec<Explanation> {
        (0..self.tags.len())
            .map(|ti| self.explain_index(ti))
            .collect()
    }

    fn explain_index(&self, ti: usize) -> Explanation {
        let events = &self.result.events;
        let candidates = self.candidates[ti]
            .iter()
            .enumerate()
            .map(|(rank, cand)| {
                let learners = self
                    .learner_names
                    .iter()
                    .zip(&cand.per_learner)
                    .map(|(name, &score)| LearnerContribution {
                        learner: name.to_string(),
                        score,
                    })
                    .collect();
                CandidateExplanation {
                    label: cand.label.clone(),
                    rank,
                    score: cand.score,
                    chosen: cand.label == self.labels[ti],
                    learners,
                    rejection: self.rejections[ti].get(rank).cloned().flatten(),
                    search: TagLabelSearch {
                        generated: events.generated_for(ti, cand.label_id),
                        pruned_deadline: events.pruned_deadline_for(ti, cand.label_id),
                        pruned_infeasible: events.pruned_infeasible_for(ti, cand.label_id),
                    },
                }
            })
            .collect();
        Explanation {
            tag: self.tags[ti].clone(),
            chosen_label: self.labels[ti].clone(),
            feasible: self.result.feasible,
            instances_examined: self.instances_examined[ti],
            candidates,
        }
    }
}

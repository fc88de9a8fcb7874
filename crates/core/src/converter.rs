//! The prediction converter (paper Section 3.2, step 2).
//!
//! Base learners and the meta-learner predict per *instance*; the constraint
//! handler needs one prediction per source *tag*. "The prediction converter
//! then combines the … predictions of the … data instances into a single
//! prediction … Currently, the prediction converter simply computes the
//! average score of each label from the given predictions." — the
//! "currently" invites alternatives, so the rule is pluggable:
//! [`CombinationRule::Average`] (the paper's), `Max` (optimistic: one very
//! confident instance decides) and `Median` (robust to outlier instances).

use lsd_learn::Prediction;
use serde::{Deserialize, Serialize};

/// How per-instance predictions merge into the tag-level prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CombinationRule {
    /// Per-label mean — the paper's converter.
    #[default]
    Average,
    /// Per-label maximum, renormalized: one confident instance suffices.
    Max,
    /// Per-label median, renormalized: robust to a few outlier instances.
    Median,
}

/// Converts per-instance predictions of one tag's column into the tag-level
/// prediction under `rule`. An empty column yields the uniform distribution
/// over `num_labels` (nothing observed — no opinion).
pub fn convert_column(
    instance_predictions: &[Prediction],
    num_labels: usize,
    rule: CombinationRule,
) -> Prediction {
    lsd_obs::counter_add("converter.conversions", "", 1);
    if instance_predictions.is_empty() {
        return Prediction::uniform(num_labels);
    }
    match rule {
        CombinationRule::Average => Prediction::average(instance_predictions.iter())
            .unwrap_or_else(|| Prediction::uniform(num_labels)),
        CombinationRule::Max => {
            let n = instance_predictions[0].len();
            let scores: Vec<f64> = (0..n)
                .map(|l| {
                    instance_predictions
                        .iter()
                        .map(|p| p.score(l))
                        .fold(0.0f64, f64::max)
                })
                .collect();
            Prediction::from_scores(scores)
        }
        CombinationRule::Median => {
            let n = instance_predictions[0].len();
            let scores: Vec<f64> = (0..n)
                .map(|l| {
                    let mut column: Vec<f64> =
                        instance_predictions.iter().map(|p| p.score(l)).collect();
                    column.sort_by(f64::total_cmp);
                    let mid = column.len() / 2;
                    if column.len() % 2 == 1 {
                        column[mid]
                    } else {
                        (column[mid - 1] + column[mid]) / 2.0
                    }
                })
                .collect();
            Prediction::from_scores(scores)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preds() -> Vec<Prediction> {
        vec![
            Prediction::from_scores(vec![0.7, 0.2, 0.1]),
            Prediction::from_scores(vec![0.5, 0.2, 0.3]),
            Prediction::from_scores(vec![0.9, 0.09, 0.01]),
        ]
    }

    #[test]
    fn averages_instance_predictions() {
        // The paper's `area` column example (Section 3.2).
        let tag_pred = convert_column(&preds(), 3, CombinationRule::Average);
        assert!((tag_pred.score(0) - 0.7).abs() < 1e-9);
        assert_eq!(tag_pred.best_label(), 0);
    }

    #[test]
    fn empty_column_is_uniform_under_every_rule() {
        for rule in [
            CombinationRule::Average,
            CombinationRule::Max,
            CombinationRule::Median,
        ] {
            let p = convert_column(&[], 4, rule);
            assert!(
                p.scores().iter().all(|&s| (s - 0.25).abs() < 1e-12),
                "{rule:?}"
            );
        }
    }

    #[test]
    fn single_instance_passes_through() {
        let p = Prediction::from_scores(vec![0.6, 0.4]);
        for rule in [
            CombinationRule::Average,
            CombinationRule::Max,
            CombinationRule::Median,
        ] {
            assert_eq!(
                convert_column(std::slice::from_ref(&p), 2, rule),
                p,
                "{rule:?}"
            );
        }
    }

    #[test]
    fn max_rewards_single_confident_instance() {
        // Three mildly label-0 instances and one strongly label-1 outlier:
        // averaging stays with label 0 (mean 0.54 vs 0.46), max flips to
        // the single confident vote (0.95 vs 0.7).
        let column = vec![
            Prediction::from_scores(vec![0.7, 0.3]),
            Prediction::from_scores(vec![0.7, 0.3]),
            Prediction::from_scores(vec![0.7, 0.3]),
            Prediction::from_scores(vec![0.05, 0.95]),
        ];
        let avg = convert_column(&column, 2, CombinationRule::Average);
        let max = convert_column(&column, 2, CombinationRule::Max);
        assert_eq!(avg.best_label(), 0);
        assert_eq!(max.best_label(), 1);
    }

    #[test]
    fn median_shrugs_off_outliers() {
        let column = vec![
            Prediction::from_scores(vec![0.8, 0.2]),
            Prediction::from_scores(vec![0.7, 0.3]),
            Prediction::from_scores(vec![0.75, 0.25]),
            Prediction::from_scores(vec![0.0, 1.0]), // one corrupt instance
        ];
        let median = convert_column(&column, 2, CombinationRule::Median);
        assert_eq!(median.best_label(), 0);
        assert!(median.score(0) > 0.6);
    }

    #[test]
    fn outputs_are_distributions() {
        for rule in [
            CombinationRule::Average,
            CombinationRule::Max,
            CombinationRule::Median,
        ] {
            let p = convert_column(&preds(), 3, rule);
            assert!(
                (p.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{rule:?}"
            );
        }
    }
}

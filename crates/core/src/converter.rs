//! The two combination steps of matching (paper Section 3.2).
//!
//! Step 1 merges the base learners' predictions for one instance. The paper
//! weights each learner by a stacking weight fit on cross-validated
//! predictions (Section 3.1, step 5); here every learner gets the same
//! weight `1/k` ([`combine_learners`]). With only three training sources the
//! fitted weights were less accurate than equal ones (DESIGN.md, Engineering
//! deviation 1).
//!
//! Step 2, the prediction converter, merges the instance predictions of one
//! source tag: "The prediction converter then combines the … predictions of
//! the … data instances into a single prediction … Currently, the
//! prediction converter simply computes the average score of each label
//! from the given predictions" ([`convert_column`]).

use lsd_learn::Prediction;

/// Combines base-learner predictions over `num_labels` labels for one
/// instance: each score times `1/num_learners`, summed per label in learner
/// order, clamped at zero, normalized. `predictions` may hold fewer than
/// `num_learners` entries: the first matching stage combines every learner
/// but the XML learner, with the same weight. No predictions at all yield
/// the uniform distribution.
pub fn combine_learners(
    predictions: &[Prediction],
    num_learners: usize,
    num_labels: usize,
) -> Prediction {
    assert!(
        predictions.len() <= num_learners,
        "one prediction per combined learner"
    );
    let weight = 1.0 / num_learners as f64;
    let scores: Vec<f64> = (0..num_labels)
        .map(|label| {
            let s: f64 = predictions.iter().map(|p| weight * p.score(label)).sum();
            s.max(0.0)
        })
        .collect();
    Prediction::from_scores(scores)
}

/// Converts per-instance predictions of one tag's column into the tag-level
/// prediction: the per-label mean. An empty column yields the uniform
/// distribution over `num_labels` (nothing observed — no opinion).
pub fn convert_column(instance_predictions: &[Prediction], num_labels: usize) -> Prediction {
    lsd_obs::counter_add("converter.conversions", "", 1);
    Prediction::average(instance_predictions).unwrap_or_else(|| Prediction::uniform(num_labels))
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
        let tag_pred = convert_column(&preds(), 3);
        assert!((tag_pred.score(0) - 0.7).abs() < 1e-9);
        assert_eq!(tag_pred.best_label(), 0);
    }

    #[test]
    fn empty_column_is_uniform() {
        let p = convert_column(&[], 4);
        assert!(p.scores().iter().all(|&s| (s - 0.25).abs() < 1e-12));
    }

    #[test]
    fn single_instance_passes_through() {
        let p = Prediction::from_scores(vec![0.6, 0.4]);
        assert_eq!(convert_column(std::slice::from_ref(&p), 2), p);
    }

    #[test]
    fn equal_weights_average_the_learners() {
        // Section 3.2's Name matcher ⟨0.5,0.3,0.2⟩ and Naive Bayes
        // ⟨0.7,0.3,0.0⟩, each weighted 1/2: ADDRESS gets 0.6.
        let combined = combine_learners(
            &[
                Prediction::from_scores(vec![0.5, 0.3, 0.2]),
                Prediction::from_scores(vec![0.7, 0.3, 0.0]),
            ],
            2,
            3,
        );
        assert!((combined.score(0) - 0.6).abs() < 1e-12);
        assert_eq!(combined.best_label(), 0);
    }
}

//! Property-based tests for the metrics aggregation layer: quantile
//! estimates and shard-merge equivalence.

use lsd_obs::HistogramSummary;
use proptest::prelude::*;

proptest! {
    /// Quantile estimates are monotone in `q`, bracketed by the observed
    /// extremes' bucket bounds, and exact at the recorded min.
    #[test]
    fn quantiles_are_monotone_and_bounded(
        samples in prop::collection::vec(0u64..1_000_000_000, 1..200),
        qs in prop::collection::vec(0.0f64..1.0, 2..8),
    ) {
        let h = HistogramSummary::from_samples(samples.iter().copied());
        let mut sorted_q = qs.clone();
        sorted_q.sort_by(f64::total_cmp);
        let values: Vec<u64> = sorted_q.iter().map(|&q| h.quantile(q)).collect();
        for pair in values.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantile not monotone: {values:?}");
        }
        // Estimates are clamped to the observed range, with the extremes
        // exact: q=0 is the recorded min, q=1 the recorded max.
        let min = *samples.iter().min().expect("non-empty");
        let max = *samples.iter().max().expect("non-empty");
        for &v in &values {
            prop_assert!((min..=max).contains(&v), "quantile {v} outside [{min}, {max}]");
        }
        prop_assert_eq!(h.quantile(0.0), min);
        prop_assert_eq!(h.quantile(1.0), max);
    }

    /// Merging per-shard histograms is exactly the histogram of the merged
    /// stream — count, sum, min, max, and every bucket agree, so sharded
    /// recording is invisible to every downstream consumer.
    #[test]
    fn merge_of_shards_equals_merged_stream(
        shards in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 0..50),
            1..6,
        ),
    ) {
        let per_shard: Vec<HistogramSummary> = shards
            .iter()
            .map(|s| HistogramSummary::from_samples(s.iter().copied()))
            .collect();
        let mut merged = HistogramSummary::empty();
        for shard in &per_shard {
            merged.merge_from(shard);
        }
        let stream = HistogramSummary::from_samples(shards.iter().flatten().copied());
        prop_assert_eq!(merged.count, stream.count);
        prop_assert_eq!(merged.sum, stream.sum);
        prop_assert_eq!(merged.max, stream.max);
        if stream.count > 0 {
            prop_assert_eq!(merged.min, stream.min);
        }
        prop_assert_eq!(merged.bucket_counts(), stream.bucket_counts());
        // Identical buckets mean identical quantiles, but check anyway:
        // this is the property /metrics consumers actually observe.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), stream.quantile(q));
        }
    }

    /// Merging in either order gives the same summary (merge is
    /// commutative), and merging an empty histogram is the identity.
    #[test]
    fn merge_is_commutative_with_empty_identity(
        a in prop::collection::vec(0u64..1_000_000, 0..40),
        b in prop::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let ha = HistogramSummary::from_samples(a.iter().copied());
        let hb = HistogramSummary::from_samples(b.iter().copied());
        let mut ab = ha;
        ab.merge_from(&hb);
        let mut ba = hb;
        ba.merge_from(&ha);
        prop_assert_eq!(ab.count, ba.count);
        prop_assert_eq!(ab.sum, ba.sum);
        prop_assert_eq!(ab.min, ba.min);
        prop_assert_eq!(ab.max, ba.max);
        prop_assert_eq!(ab.bucket_counts(), ba.bucket_counts());

        let mut with_empty = ha;
        with_empty.merge_from(&HistogramSummary::empty());
        prop_assert_eq!(with_empty.count, ha.count);
        prop_assert_eq!(with_empty.sum, ha.sum);
        prop_assert_eq!(with_empty.min, ha.min);
        prop_assert_eq!(with_empty.bucket_counts(), ha.bucket_counts());
    }
}

//! Property-based tests for the metrics aggregation layer: quantile
//! estimates, shard-merge equivalence, and the event sink's drop
//! accounting.

use lsd_obs::export::{EventSink, ExportEvent};
use lsd_obs::HistogramSummary;
use proptest::prelude::*;

fn event(i: u64) -> ExportEvent {
    ExportEvent {
        kind: "counter".to_string(),
        name: format!("e{i}"),
        label: String::new(),
        value: i,
        thread: 0,
        start_ns: 0,
    }
}

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

    /// The event sink's accounting is exact at every capacity boundary:
    /// `len + dropped == pushed`, `len <= capacity`, the buffer holds
    /// exactly the newest events in order, and `dropped` counts the oldest.
    #[test]
    fn event_sink_drop_accounting_is_exact(
        capacity in 1usize..20,
        pushed in 0u64..60,
    ) {
        let mut sink = EventSink::with_capacity(capacity);
        for i in 0..pushed {
            sink.push(event(i));
        }
        prop_assert_eq!(sink.capacity(), capacity);
        prop_assert_eq!(sink.len() as u64 + sink.dropped(), pushed);
        prop_assert!(sink.len() <= capacity);
        prop_assert_eq!(
            sink.dropped(),
            pushed.saturating_sub(capacity as u64),
            "exactly the overflow is dropped"
        );
        // Survivors are the newest `len` events, oldest first.
        let first_kept = pushed.saturating_sub(capacity as u64);
        let kept: Vec<u64> = sink.events().map(|e| e.value).collect();
        let expected: Vec<u64> = (first_kept..pushed).collect();
        prop_assert_eq!(kept, expected);
        prop_assert_eq!(sink.is_empty(), pushed == 0);
    }
}

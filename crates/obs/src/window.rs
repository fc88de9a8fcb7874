//! Rolling-window histograms: "what is p99 *right now*", next to the
//! cumulative-since-boot registry.
//!
//! A [`RollingWindow`] is a ring of [`WINDOW_SECS`]` + 1` one-second
//! epochs, each a log2-bucket [`HistogramSummary`]. Recording a sample
//! stamps the current-second slot (lazily clearing slots left over from
//! previous laps of the ring); reading merges every slot whose stamp falls
//! inside the trailing 60 seconds. Merging log2 histograms is exact, so a
//! window summary is exactly the summary of the samples recorded in its
//! span — no decay approximation.
//!
//! The process-global registry ([`window_record`] / [`window_snapshot`])
//! is a plain mutex-guarded map, **not** the thread-local shard machinery
//! the cumulative registry uses: windows are fed at request *completion*
//! (a handful of calls per request, not per-probe), where one short lock
//! is cheaper than per-thread ring duplication and a time-based merge
//! protocol. Like every probe it is a no-op while observability is
//! disabled.
//!
//! [`window_record`] is the one call for a series that has both views: it
//! also records the sample into the cumulative histogram of the same
//! `(name, label)`, as [`crate::record_value`] would.

use crate::{enabled, process_epoch_secs, HistogramSummary};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

/// Width of the rolling window, in seconds.
pub const WINDOW_SECS: u64 = 60;

/// Ring slots: one per window second plus one being overwritten.
const SLOTS: usize = WINDOW_SECS as usize + 1;

/// A 60-second rolling histogram over one-second epochs.
///
/// Time is passed in explicitly (seconds on any monotonic clock) so the
/// ring is deterministic under test; the global registry feeds it seconds
/// since the process timing epoch.
pub struct RollingWindow {
    /// `(second stamp, samples recorded in that second)` per ring slot.
    /// A slot belongs to the window iff its stamp is within the trailing
    /// [`WINDOW_SECS`] seconds of "now"; stale stamps are dead laps.
    slots: Box<[(u64, HistogramSummary); SLOTS]>,
}

impl Default for RollingWindow {
    fn default() -> Self {
        RollingWindow::new()
    }
}

impl RollingWindow {
    /// An empty window.
    pub fn new() -> RollingWindow {
        RollingWindow {
            // Stamp u64::MAX marks "never written" (no real second reaches
            // it; second 0 must stay distinguishable from an empty slot).
            slots: Box::new([(u64::MAX, HistogramSummary::empty()); SLOTS]),
        }
    }

    /// Records `v` into the epoch for second `sec`, clearing the slot
    /// first if it still holds data from a previous lap of the ring.
    pub fn record_at(&mut self, sec: u64, v: u64) {
        let slot = &mut self.slots[(sec % SLOTS as u64) as usize];
        if slot.0 != sec {
            *slot = (sec, HistogramSummary::empty());
        }
        slot.1.observe(v);
    }

    /// Merged summary of every sample recorded in `[sec - WINDOW_SECS,
    /// sec]` — the trailing window (inclusive at both ends, which is
    /// exactly the span the 61-slot ring holds collision-free) as seen at
    /// second `sec`. The never-written stamp `u64::MAX` can't satisfy
    /// `stamp <= sec`, so empty slots are skipped for free.
    pub fn summary_at(&self, sec: u64) -> HistogramSummary {
        let floor = sec.saturating_sub(WINDOW_SECS);
        let mut out = HistogramSummary::empty();
        for (stamp, hist) in self.slots.iter() {
            if *stamp <= sec && *stamp >= floor {
                out.merge_from(hist);
            }
        }
        out
    }
}

type Key = (&'static str, &'static str);

fn registry() -> &'static Mutex<HashMap<Key, RollingWindow>> {
    static REG: OnceLock<Mutex<HashMap<Key, RollingWindow>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Records one sample into the rolling window `(name, label)`, stamped
/// with the current second, and into the cumulative histogram of the same
/// key. No-op when observability is disabled.
pub fn window_record(name: &'static str, label: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    crate::record_value(name, label, v);
    let sec = process_epoch_secs();
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.entry((name, label)).or_default().record_at(sec, v);
}

/// Records an elapsed duration (nanoseconds) into the rolling window and
/// the cumulative histogram `(name, label)`. No-op when disabled.
pub fn window_record_duration(name: &'static str, label: &'static str, d: std::time::Duration) {
    window_record(name, label, d.as_nanos() as u64);
}

/// Current trailing-window summaries for every recorded series, keyed like
/// the cumulative snapshot (`name` / `name/label`). Series whose window is
/// empty (no samples in the last [`WINDOW_SECS`] seconds) are omitted.
pub fn window_snapshot() -> BTreeMap<String, HistogramSummary> {
    let sec = process_epoch_secs();
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .filter_map(|(key, window)| {
            let summary = window.summary_at(sec);
            (summary.count > 0).then(|| (crate::flat_key(key), summary))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sees_only_the_trailing_sixty_seconds() {
        let mut w = RollingWindow::new();
        w.record_at(100, 10);
        w.record_at(130, 20);
        w.record_at(160, 30);
        let at_160 = w.summary_at(160);
        assert_eq!(at_160.count, 3, "all three inside (100, 160]");
        // At second 161 the sample from second 100 ages out (floor 101).
        let at_161 = w.summary_at(161);
        assert_eq!((at_161.count, at_161.min, at_161.max), (2, 20, 30));
        // Far in the future everything has aged out.
        assert_eq!(w.summary_at(400).count, 0);
    }

    #[test]
    fn ring_reuse_clears_stale_laps() {
        let mut w = RollingWindow::new();
        w.record_at(5, 111);
        // Second 5 + SLOTS lands on the same ring slot one lap later.
        let next_lap = 5 + SLOTS as u64;
        w.record_at(next_lap, 222);
        let s = w.summary_at(next_lap);
        assert_eq!((s.count, s.min, s.max), (1, 222, 222), "old lap cleared");
    }

    #[test]
    fn second_zero_is_recordable() {
        let mut w = RollingWindow::new();
        w.record_at(0, 7);
        let s = w.summary_at(0);
        assert_eq!((s.count, s.min), (1, 7));
        assert_eq!(w.summary_at(WINDOW_SECS).count, 1, "still inside window");
        assert_eq!(w.summary_at(WINDOW_SECS + 1).count, 0, "aged out");
    }

    #[test]
    fn window_merge_is_exact_over_the_covered_seconds() {
        let mut w = RollingWindow::new();
        let samples: Vec<u64> = (0..50).map(|i| i * 37 + 1).collect();
        for (i, &v) in samples.iter().enumerate() {
            w.record_at(200 + (i as u64 % 10), v);
        }
        let s = w.summary_at(209);
        let expect = HistogramSummary::from_samples(samples.iter().copied());
        assert_eq!(s, expect, "ring merge equals straight summary");
    }

    #[test]
    fn one_record_feeds_the_cumulative_and_the_rolling_view() {
        let ((), snap) = crate::collect(|| {
            window_record("win.both", "", 40);
            window_record_duration("win.both", "ms", std::time::Duration::from_nanos(7));
        });
        let cumulative = snap.histogram("win.both").expect("cumulative series");
        assert_eq!((cumulative.count, cumulative.sum), (1, 40));
        let labelled = snap.histogram("win.both/ms").expect("labelled series");
        assert_eq!((labelled.count, labelled.sum), (1, 7));
        let windows = window_snapshot();
        assert_eq!(windows["win.both"], *cumulative);
        assert_eq!(windows["win.both/ms"], *labelled);
    }

    #[test]
    fn global_registry_is_gated_on_enabled() {
        // Not under `collect` — recording is off, so nothing lands.
        window_record("win.gated", "", 5);
        assert!(!window_snapshot().contains_key("win.gated"));
    }
}

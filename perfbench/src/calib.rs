//! Machine-drift probe: a fixed allocation-heavy kernel timed at the start
//! and end of every run. Allocation-heavy code is what drifts most on a
//! shared machine, so when two sets of runs disagree, comparing their
//! calibration times tells a slower machine from slower code.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const KEYS: u64 = 100_000;

fn kernel() -> u64 {
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..KEYS {
        map.entry(format!("key-{}", i % (KEYS / 2)))
            .or_default()
            .push(i);
    }
    map.values().map(|v| v.iter().sum::<u64>()).sum()
}

/// Median wall time of three runs of the kernel, in milliseconds.
pub fn calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            black_box(kernel());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

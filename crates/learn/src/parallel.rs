//! Thread-pool-free parallel execution on top of [`std::thread::scope`].
//!
//! LSD's batch workload — the per-source fan-out of `Lsd::match_batch` — is
//! embarrassingly parallel and needs no persistent pool: scoped threads are
//! spawned per call, borrow the shared read-only state directly, and join
//! before the call returns. No external crates, no `'static` bounds, no
//! channels.
//!
//! Output order is **always** input order: every job writes its result into
//! its own index slot, so the caller observes byte-identical results
//! regardless of thread count or scheduling. [`ExecPolicy::deterministic_order`]
//! additionally fixes *which worker runs which job* (static striding instead
//! of dynamic work-stealing), which makes wall-clock profiles reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a batch of independent jobs is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker thread count. `0` means one worker per available CPU
    /// (`std::thread::available_parallelism`); `1` runs everything on the
    /// calling thread.
    pub threads: usize,
    /// `true` assigns job *i* to worker `i % threads` (static striding):
    /// the same worker runs the same jobs on every run. `false` lets idle
    /// workers claim the next unstarted job (dynamic scheduling), which
    /// balances uneven jobs better. Results are returned in input order
    /// either way.
    pub deterministic_order: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            threads: 0,
            deterministic_order: true,
        }
    }
}

impl ExecPolicy {
    /// A fixed worker count with the default (deterministic) scheduling.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads,
            ..ExecPolicy::default()
        }
    }

    /// The number of workers to actually spawn for `jobs` jobs.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        };
        let requested = if self.threads == 0 {
            hw()
        } else {
            self.threads
        };
        requested.min(jobs).max(1)
    }
}

/// Applies `f` to every item, in parallel under `policy`, returning results
/// in input order. Panics in `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: &[T], policy: &ExecPolicy, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = policy.effective_threads(items.len());
    if lsd_obs::enabled() && !items.is_empty() {
        lsd_obs::counter_add("parallel.batches", "", 1);
        lsd_obs::counter_add("parallel.jobs", "", items.len() as u64);
        // A histogram, not a gauge: worker count varies with ExecPolicy,
        // and gauges are part of the deterministic (thread-count-invariant)
        // snapshot subset.
        lsd_obs::record_value("parallel.workers", "", workers as u64);
    }
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let out = Mutex::new(slots);
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let out = &out;
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                if policy.deterministic_order {
                    // Static striding: worker w owns jobs w, w+T, w+2T, …
                    let owned = (worker..items.len()).step_by(workers).count();
                    lsd_obs::record_value("parallel.jobs_per_worker", "", owned as u64);
                    let mut i = worker;
                    while i < items.len() {
                        let r = f(i, &items[i]);
                        out.lock().expect("no poisoned worker")[i] = Some(r);
                        i += workers;
                    }
                } else {
                    // Dynamic scheduling: claim the next unstarted job.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // Queue occupancy at claim time: jobs not yet started.
                        lsd_obs::record_value(
                            "parallel.queue_occupancy",
                            "",
                            (items.len() - i) as u64,
                        );
                        let r = f(i, &items[i]);
                        out.lock().expect("no poisoned worker")[i] = Some(r);
                    }
                }
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    out.into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_every_policy() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for policy in [
            ExecPolicy::with_threads(1),
            ExecPolicy::with_threads(2),
            ExecPolicy::with_threads(8),
            ExecPolicy {
                threads: 3,
                deterministic_order: false,
            },
            ExecPolicy::default(),
        ] {
            let got = parallel_map(&items, &policy, |_, &x| x * 3);
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = ["a", "b", "c", "d", "e"];
        let got = parallel_map(&items, &ExecPolicy::with_threads(4), |i, s| {
            format!("{i}{s}")
        });
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u8> = Vec::new();
        let got: Vec<u8> = parallel_map(&items, &ExecPolicy::default(), |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn effective_threads_clamps_to_jobs() {
        assert_eq!(ExecPolicy::with_threads(8).effective_threads(3), 3);
        assert_eq!(ExecPolicy::with_threads(2).effective_threads(100), 2);
        assert_eq!(ExecPolicy::with_threads(1).effective_threads(100), 1);
        assert!(ExecPolicy::default().effective_threads(100) >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items = [0usize, 1, 2, 3];
        parallel_map(&items, &ExecPolicy::with_threads(2), |_, &x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}

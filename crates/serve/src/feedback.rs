//! The serve side of the feedback loop: a durable per-model correction WAL
//! and a background retrain worker with zero-downtime hot-swap.
//!
//! Flow: `POST /v1/feedback` validates the corrections against the target
//! model's label set, appends one [`FeedbackRecord`] to `<dir>/<model>.wal`
//! — fsynced before the request is acknowledged — and notifies the worker.
//! The worker drains a model's pending records, re-matches each recorded
//! source under its corrections, warm-trains a copy of the served model on
//! the corrected mappings (`Lsd::train_incremental`), snapshots the new
//! generation to disk (write-to-temp + rename), and installs it in the
//! [`ModelRegistry`]. In-flight requests hold an `Arc` of the old entry and
//! finish on the generation they started with; new requests resolve the new
//! one.
//!
//! Crash safety: a correction is acknowledged only after its WAL append has
//! been synced. Each snapshot records how many WAL records it has folded
//! ([`Lsd::feedback_applied`]); on restart the hub replays every WAL and
//! schedules only the unfolded suffix, so a kill anywhere between ack and
//! retrain loses nothing. A retrain failure drops the in-memory batch but
//! never the WAL — the records are retried on the next restart.
//!
//! [`Lsd::feedback_applied`]: lsd_core::Lsd::feedback_applied

use crate::error::ServeError;
use crate::registry::ModelRegistry;
use lsd_core::{Feedback, FeedbackRecord, FeedbackWal, Lsd, TrainedSource};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

fn internal(detail: impl Into<String>) -> ServeError {
    ServeError::Internal {
        detail: detail.into(),
    }
}

/// One model's feedback log: the durable WAL plus the replayed-or-appended
/// records the retrain worker has not folded into a snapshot yet.
struct ModelLog {
    wal: FeedbackWal,
    pending: Vec<FeedbackRecord>,
}

struct HubState {
    logs: BTreeMap<String, ModelLog>,
    shutdown: bool,
}

/// Shared state between the feedback endpoint and the retrain worker:
/// per-model WALs behind one mutex, with a condvar waking the worker when
/// records arrive.
pub struct FeedbackHub {
    dir: PathBuf,
    state: Mutex<HubState>,
    wake: Condvar,
}

impl FeedbackHub {
    /// Opens (or creates) the feedback directory and replays the WAL of
    /// every model currently installed in `registry`. Records beyond each
    /// model's `feedback_applied` fold point become pending work for the
    /// retrain worker — this is the kill-and-restart recovery path.
    ///
    /// # Errors
    /// [`ServeError::Internal`] when the directory cannot be created or a
    /// WAL is unreadable (foreign magic is an error; a torn tail is not).
    pub fn open(dir: impl Into<PathBuf>, registry: &ModelRegistry) -> Result<Self, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            internal(format!(
                "cannot create feedback directory {}: {e}",
                dir.display()
            ))
        })?;
        let mut logs = BTreeMap::new();
        for name in registry.names() {
            let applied = registry
                .model(Some(&name))
                .map(|entry| entry.lsd.feedback_applied())
                .unwrap_or(0);
            let path = dir.join(format!("{name}.wal"));
            let (wal, records) = FeedbackWal::open(&path)
                .map_err(|e| internal(format!("cannot open WAL {}: {e}", path.display())))?;
            let pending = records.into_iter().skip(applied as usize).collect();
            logs.insert(name, ModelLog { wal, pending });
        }
        Ok(FeedbackHub {
            dir,
            state: Mutex::new(HubState {
                logs,
                shutdown: false,
            }),
            wake: Condvar::new(),
        })
    }

    /// Durably appends one record to `model`'s WAL and queues it for the
    /// retrain worker. Returns the record's zero-based WAL index; when this
    /// returns, the record has been fsynced and will survive a crash.
    ///
    /// `applied` is the model's current fold point, used only when the
    /// model has no log yet (activated after the hub opened) to skip the
    /// already-folded prefix of a pre-existing WAL.
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] during drain, [`ServeError::Internal`]
    /// for WAL I/O failures.
    pub fn submit(
        &self,
        model: &str,
        applied: u64,
        record: FeedbackRecord,
    ) -> Result<u64, ServeError> {
        let mut state = self
            .state
            .lock()
            .map_err(|_| internal("feedback hub lock poisoned"))?;
        if state.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if !state.logs.contains_key(model) {
            let path = self.dir.join(format!("{model}.wal"));
            let (wal, records) = FeedbackWal::open(&path)
                .map_err(|e| internal(format!("cannot open WAL {}: {e}", path.display())))?;
            let pending = records.into_iter().skip(applied as usize).collect();
            state
                .logs
                .insert(model.to_string(), ModelLog { wal, pending });
        }
        let log = state
            .logs
            .get_mut(model)
            .ok_or_else(|| internal("feedback log vanished under the lock"))?;
        let index = log
            .wal
            .append(&record)
            .map_err(|e| internal(format!("WAL append failed: {e}")))?;
        log.pending.push(record);
        self.wake.notify_all();
        Ok(index)
    }

    /// Where `model`'s WAL lives — for the retrain worker's pre-hot-swap
    /// fold-point sanity check.
    pub(crate) fn wal_path(&self, model: &str) -> PathBuf {
        self.dir.join(format!("{model}.wal"))
    }

    /// Wakes the worker and makes further submits fail with `503`. Pending
    /// batches are abandoned (the WAL keeps them for the next start) so
    /// shutdown is never blocked behind a retrain.
    pub(crate) fn begin_shutdown(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.shutdown = true;
        }
        self.wake.notify_all();
    }

    /// Blocks until some model has pending records (returning the model
    /// name, the drained batch and the new fold point — the WAL record
    /// count after the batch) or shutdown begins (returning `None`).
    fn next_batch(&self) -> Option<(String, Vec<FeedbackRecord>, u64)> {
        let mut state = self.state.lock().ok()?;
        loop {
            if state.shutdown {
                return None;
            }
            let found = state.logs.iter_mut().find_map(|(name, log)| {
                if log.pending.is_empty() {
                    None
                } else {
                    Some((
                        name.clone(),
                        std::mem::take(&mut log.pending),
                        log.wal.record_count(),
                    ))
                }
            });
            if let Some(batch) = found {
                return Some(batch);
            }
            state = self.wake.wait(state).ok()?;
        }
    }
}

impl std::fmt::Debug for FeedbackHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedbackHub")
            .field("dir", &self.dir)
            .finish()
    }
}

/// The retrain worker loop: drain batches until shutdown. Failures are
/// counted and logged, never fatal — the WAL retains the records.
pub(crate) fn retrain_worker(registry: &ModelRegistry, hub: &FeedbackHub) {
    while let Some((name, batch, folded)) = hub.next_batch() {
        match retrain_one(registry, hub, &name, &batch, folded) {
            Ok(generation) => {
                lsd_obs::counter_add("serve.retrain_runs", "ok", 1);
                lsd_obs::gauge_max("serve.model_generation", "max", generation);
            }
            Err(e) => {
                lsd_obs::counter_add("serve.retrain_failures", "error", 1);
                eprintln!("lsd-serve: retrain of '{name}' failed: {e}");
            }
        }
        lsd_obs::flush();
    }
}

/// Folds one batch into a fresh generation of `name`:
/// clone the served model, re-match each recorded source under its
/// corrections (the constrained mapping is the new ground truth),
/// warm-train, snapshot, audit, install.
fn retrain_one(
    registry: &ModelRegistry,
    hub: &FeedbackHub,
    name: &str,
    batch: &[FeedbackRecord],
    folded: u64,
) -> Result<u64, ServeError> {
    let entry = registry.model(Some(name))?;
    let saved = entry
        .lsd
        .to_saved()
        .map_err(|e| internal(format!("cannot snapshot '{name}' for retraining: {e}")))?;
    let mut lsd = Lsd::from_saved(saved);

    let mut corrected = Vec::with_capacity(batch.len());
    for record in batch {
        let source = record
            .to_source()
            .map_err(|e| internal(format!("WAL record does not reconstruct: {e}")))?;
        let feedback = Feedback::from_corrections(record.corrections.clone());
        let outcome = lsd.match_source_with(&source, &feedback)?;
        corrected.push(TrainedSource {
            source,
            mapping: outcome.mapping().clone(),
        });
    }
    lsd.train_incremental(&corrected)?;
    lsd.set_feedback_applied(folded);
    lsd.ensure_servable()?;

    // Persist before installing, via temp + rename, so the on-disk snapshot
    // is never torn and never newer than what has actually been validated.
    let path = registry.snapshot_path(name);
    let tmp = path.with_extension("json.tmp");
    lsd.save_json(&tmp)
        .map_err(|e| internal(format!("cannot write retrained snapshot: {e}")))?;

    // Pre-hot-swap audit, always strict regardless of the registry's mode:
    // a corrupted warm-start (an empty learner, label skew, a fold point
    // the WAL cannot back) must never replace the on-disk snapshot, let
    // alone be promoted to a live generation. On failure the temp file is
    // removed and the served model keeps running on its old generation; the
    // WAL retains the batch for the next restart.
    if let Err(e) = audit_before_swap(hub, name, &tmp) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }

    std::fs::rename(&tmp, &path)
        .map_err(|e| internal(format!("cannot install retrained snapshot: {e}")))?;

    let entry = registry.install_retrained(name, lsd)?;
    Ok(entry.generation)
}

/// Audits the candidate snapshot at `tmp` plus `name`'s WAL before the
/// rename that would make it the model's on-disk truth.
fn audit_before_swap(
    hub: &FeedbackHub,
    name: &str,
    tmp: &std::path::Path,
) -> Result<(), ServeError> {
    let text = std::fs::read_to_string(tmp)
        .map_err(|e| internal(format!("cannot read back retrained snapshot: {e}")))?;
    let (mut diags, summary) = lsd_analysis::audit_snapshot_with_summary(&text);
    // The WAL's own framing health is scanned non-destructively; its record
    // count must back the fold point this snapshot claims.
    match FeedbackWal::scan_file(hub.wal_path(name)) {
        Ok(scan) => {
            let ctx = lsd_analysis::WalAuditContext {
                labels: summary.labels.clone(),
                feedback_applied: summary.feedback_applied.min(scan.record_count()),
            };
            if summary.feedback_applied > scan.record_count() {
                return Err(ServeError::AuditFailed {
                    name: name.to_string(),
                    detail: format!(
                        "LSD214: retrained snapshot claims {} folded record(s) but the WAL \
                         holds only {}",
                        summary.feedback_applied,
                        scan.record_count()
                    ),
                });
            }
            // Another submit may be appending concurrently, so a torn tail
            // (a warning) is possible and tolerated; error-severity WAL
            // damage is not.
            let wal_bytes = std::fs::read(hub.wal_path(name)).unwrap_or_default();
            diags.extend(lsd_analysis::audit_wal(&wal_bytes, Some(&ctx)));
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(internal(format!("cannot scan WAL for audit: {e}"))),
    }
    crate::registry::record_audit(name, &diags, crate::registry::AuditMode::Strict)
}

//! Static audit of model-registry directories (the `LSD22x` family).
//!
//! A registry directory is what `lsd-serve` boots from: one `<name>.json`
//! snapshot per model, with an optional `<name>.wal` feedback log beside
//! it. Each file can be individually healthy while the directory as a
//! whole is not — two files that collapse to the same serving slug, a
//! half-upgraded fleet with mixed snapshot versions, two models claiming
//! the same domain with diverged mediated schemas, or a WAL left behind by
//! a deleted model. [`audit_registry`] audits every artifact individually
//! (stamping each diagnostic's `origin` with its file name) and then
//! cross-checks the set.

use crate::artifact::{audit_snapshot_with_summary, SnapshotSummary};
use crate::diagnostic::{Code, Diagnostic};
use crate::wal_audit::{audit_wal, WalAuditContext};
use std::io;
use std::path::Path;

/// Audits every snapshot and WAL in `dir`, plus the directory-level
/// cross-checks. Diagnostics carry the originating file name as their
/// `origin`; directory-level findings name every involved file.
///
/// # Errors
/// I/O failures reading the directory or a file in it. Unreadable
/// artifacts are an environment problem, not an artifact defect — the
/// `lsd-audit` binary maps this to its usage exit code.
pub fn audit_registry(dir: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut snapshot_files = Vec::new();
    let mut wal_files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_file() {
            continue;
        }
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => snapshot_files.push(path),
            Some("wal") => wal_files.push(path),
            _ => {}
        }
    }
    // Deterministic order regardless of directory iteration order.
    snapshot_files.sort();
    wal_files.sort();

    let mut out = Vec::new();
    let mut models: Vec<(String, SnapshotSummary)> = Vec::new();
    for path in &snapshot_files {
        let name = file_name(path);
        let text = std::fs::read_to_string(path)?;
        let (diags, summary) = audit_snapshot_with_summary(&text);
        out.extend(crate::with_origin(diags, &name));

        let wal_path = path.with_extension("wal");
        if let Some(i) = wal_files.iter().position(|w| *w == wal_path) {
            let wal_name = file_name(&wal_files.remove(i));
            let ctx = WalAuditContext {
                labels: summary.labels.clone(),
                feedback_applied: summary.feedback_applied,
            };
            let bytes = std::fs::read(&wal_path)?;
            out.extend(crate::with_origin(audit_wal(&bytes, Some(&ctx)), &wal_name));
        }
        models.push((name, summary));
    }

    for path in &wal_files {
        out.push(
            Diagnostic::new(
                Code::RegistryOrphanWal,
                format!(
                    "feedback WAL `{}` has no companion snapshot in the registry",
                    file_name(path)
                ),
            )
            .with_origin(file_name(path))
            .with_note("its corrections can never be folded — no model will ever replay it")
            .with_help("delete the WAL, or restore the model snapshot it belonged to"),
        );
    }

    audit_duplicate_slugs(&models, &mut out);
    audit_version_skew(&models, &mut out);
    audit_dtd_drift(&models, &mut out);
    Ok(out)
}

/// Two snapshot files that normalize to the same serving slug would fight
/// over one registry entry; which one wins depends on directory order.
fn audit_duplicate_slugs(models: &[(String, SnapshotSummary)], out: &mut Vec<Diagnostic>) {
    for (i, (name, _)) in models.iter().enumerate() {
        let slug = slugify(stem(name));
        for (other, _) in &models[..i] {
            if slugify(stem(other)) == slug {
                out.push(
                    Diagnostic::new(
                        Code::RegistryDuplicateSlug,
                        format!("`{name}` and `{other}` both normalize to model slug `{slug}`"),
                    )
                    .with_origin(name.clone())
                    .with_note("which snapshot serves depends on directory iteration order")
                    .with_help("rename one of the files to a distinct slug"),
                );
            }
        }
    }
}

/// More than one distinct snapshot-format version in one directory is a
/// half-finished migration: the next format change strands the stragglers.
fn audit_version_skew(models: &[(String, SnapshotSummary)], out: &mut Vec<Diagnostic>) {
    let mut versions: Vec<u32> = models.iter().filter_map(|(_, s)| s.version).collect();
    versions.sort_unstable();
    versions.dedup();
    if versions.len() > 1 {
        let mut detail: Vec<String> = models
            .iter()
            .filter_map(|(name, s)| s.version.map(|v| format!("`{name}` is v{v}")))
            .collect();
        detail.sort();
        out.push(
            Diagnostic::new(
                Code::RegistryVersionSkew,
                format!(
                    "registry mixes {} snapshot format versions ({})",
                    versions.len(),
                    versions
                        .iter()
                        .map(|v| format!("v{v}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_note(detail.join("; "))
            .with_help("re-save the older snapshots with the current build"),
        );
    }
}

/// Two models with the same label set claim the same mediated domain; if
/// their stored mediated DTDs differ, one of them trained against a stale
/// schema.
fn audit_dtd_drift(models: &[(String, SnapshotSummary)], out: &mut Vec<Diagnostic>) {
    for (i, (name, summary)) in models.iter().enumerate() {
        if summary.labels.is_empty() || summary.mediated_dtd.is_empty() {
            continue;
        }
        let mut labels = summary.labels.clone();
        labels.sort();
        for (other, other_summary) in &models[..i] {
            if other_summary.mediated_dtd.is_empty() {
                continue;
            }
            let mut other_labels = other_summary.labels.clone();
            other_labels.sort();
            if labels == other_labels && summary.mediated_dtd != other_summary.mediated_dtd {
                out.push(
                    Diagnostic::new(
                        Code::RegistryDtdDrift,
                        format!(
                            "`{name}` and `{other}` share a label set but store different \
                             mediated DTDs"
                        ),
                    )
                    .with_origin(name.clone())
                    .with_note(
                        "models of one domain should agree on the mediated schema; one \
                                of these trained against a stale revision",
                    )
                    .with_help("retrain the stale model against the current mediated schema"),
                );
            }
        }
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn stem(file_name: &str) -> &str {
    file_name.strip_suffix(".json").unwrap_or(file_name)
}

/// The serving layer's slug normalization: ASCII lowercase with `_` → `-`
/// (mirrors `domain_slug` in the bench runner helpers).
fn slugify(stem: &str) -> String {
    stem.chars()
        .map(|c| match c {
            '_' | ' ' => '-',
            c => c.to_ascii_lowercase(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Severity;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_registry(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir()
            .join("lsd-registry-audit-tests")
            .join(format!(
                "{label}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir).expect("temp registry dir");
        dir
    }

    fn snapshot(version: u32, dtd: &str, labels: &[&str]) -> String {
        let labels = labels
            .iter()
            .map(|l| format!("{l:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            r#"{{
  "version": {version},
  "mediated_dtd": {dtd:?},
  "labels": [{labels}],
  "learners": [{{"Stats": {{"num_labels": 2, "moments": [], "class_counts": [1.0], "total": 3.0}}}}],
  "xml_index": null,
  "constraints": [],
  "trained": true,
  "feedback_applied": 0
}}"#
        )
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn healthy_registry_is_clean() {
        let dir = temp_registry("clean");
        std::fs::write(dir.join("a.json"), snapshot(1, "", &["X", "OTHER"])).expect("writes");
        std::fs::write(dir.join("b.json"), snapshot(1, "", &["Y", "OTHER"])).expect("writes");
        assert_eq!(audit_registry(&dir).expect("audits"), Vec::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_slugs_are_lsd221_errors() {
        let dir = temp_registry("dup");
        std::fs::write(dir.join("real_estate.json"), snapshot(1, "", &["OTHER"])).expect("writes");
        std::fs::write(dir.join("Real-Estate.json"), snapshot(1, "", &["OTHER"])).expect("writes");
        let diags = audit_registry(&dir).expect("audits");
        assert_eq!(codes(&diags), ["LSD221"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("`real-estate`"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_is_lsd222_warning() {
        let dir = temp_registry("skew");
        std::fs::write(dir.join("a.json"), snapshot(1, "", &["OTHER"])).expect("writes");
        std::fs::write(dir.join("b.json"), snapshot(2, "", &["OTHER"])).expect("writes");
        let diags = audit_registry(&dir).expect("audits");
        assert_eq!(codes(&diags), ["LSD222"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("v1, v2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dtd_drift_between_same_domain_models_is_lsd223() {
        let dir = temp_registry("drift");
        // Same parsed schema, textually diverged revisions.
        let dtd_a = "<!ELEMENT X (#PCDATA)>";
        let dtd_b = "<!ELEMENT  X  (#PCDATA)>";
        std::fs::write(dir.join("a.json"), snapshot(1, dtd_a, &["X", "OTHER"])).expect("writes");
        std::fs::write(dir.join("b.json"), snapshot(1, dtd_b, &["X", "OTHER"])).expect("writes");
        let diags = audit_registry(&dir).expect("audits");
        // Both DTDs are individually fine; only the drift is flagged.
        assert_eq!(codes(&diags), ["LSD223"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_wal_is_lsd224() {
        let dir = temp_registry("orphan");
        std::fs::write(dir.join("a.json"), snapshot(1, "", &["OTHER"])).expect("writes");
        std::fs::write(dir.join("gone.wal"), b"LSDWAL01").expect("writes");
        let diags = audit_registry(&dir).expect("audits");
        assert_eq!(codes(&diags), ["LSD224"]);
        assert_eq!(diags[0].origin.as_deref(), Some("gone.wal"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn companion_wal_is_audited_with_snapshot_context() {
        let dir = temp_registry("companion");
        // Snapshot claims 3 folded records; the WAL is empty → LSD214.
        let text = snapshot(1, "", &["OTHER"])
            .replace("\"feedback_applied\": 0", "\"feedback_applied\": 3");
        std::fs::write(dir.join("a.json"), text).expect("writes");
        std::fs::write(dir.join("a.wal"), b"LSDWAL01").expect("writes");
        let diags = audit_registry(&dir).expect("audits");
        assert_eq!(codes(&diags), ["LSD214"]);
        assert_eq!(diags[0].origin.as_deref(), Some("a.wal"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_snapshot_diagnostics_carry_the_file_origin() {
        let dir = temp_registry("origin");
        let untrained =
            snapshot(1, "", &["OTHER"]).replace("\"trained\": true", "\"trained\": false");
        std::fs::write(dir.join("bad.json"), untrained).expect("writes");
        let diags = audit_registry(&dir).expect("audits");
        assert_eq!(codes(&diags), ["LSD201"]);
        assert_eq!(diags[0].origin.as_deref(), Some("bad.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let dir = temp_registry("gone").join("definitely-missing");
        assert!(audit_registry(&dir).is_err());
    }
}

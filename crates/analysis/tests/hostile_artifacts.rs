//! Hostile input: a feedback WAL and a model snapshot are read back from
//! disk, where anything can happen to them, so `FeedbackWal::scan_bytes`
//! and `audit_snapshot` must answer any input with a scan or with
//! diagnostics, never a panic. The inputs are arbitrary bytes, and
//! truncations and byte-level mutations of a real WAL (written by
//! `FeedbackWal::append`) and a real snapshot (written by `Lsd::save_json`).
//! A snapshot whose WHIRL state parses but cannot be served must be refused
//! at load with a typed error, without an allocation sized by the bad value.

use lsd_analysis::{audit_snapshot, audit_wal, Severity};
use lsd_core::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher};
use lsd_core::{
    Correction, FeedbackRecord, FeedbackWal, Lsd, LsdBuilder, PersistError, SavedModel, Source,
    TrainedSource, WAL_MAGIC,
};
use lsd_xml::{parse_dtd, parse_fragment};
use proptest::prelude::*;
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The system allocator, recording the largest single request and
/// refusing any above 1 GiB, so that an allocation sized by a hostile
/// value aborts the test binary instead of exhausting memory.
struct LargestRequest;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);
const REFUSED_ABOVE: usize = 1 << 30;

// SAFETY: every call is forwarded unchanged to `System`, or answered with
// null, which `GlobalAlloc` permits for any request; the wrapper keeps no
// state but a statistic.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` is passed on as `alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (this allocator's only source)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

const SOURCE_DTD: &str = "<!ELEMENT home (location, comments, contact)>\n\
                          <!ELEMENT location (#PCDATA)>\n\
                          <!ELEMENT comments (#PCDATA)>\n\
                          <!ELEMENT contact (#PCDATA)>";

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("lsd-hostile-artifacts")
        .join(format!("{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn source(listings: &[(&str, &str, &str)]) -> Source {
    let dtd = parse_dtd(SOURCE_DTD).expect("source DTD");
    let listings = listings
        .iter()
        .map(|(a, d, p)| {
            parse_fragment(&format!(
                "<home><location>{a}</location><comments>{d}</comments>\
                 <contact>{p}</contact></home>"
            ))
            .expect("well-formed listing")
        })
        .collect();
    Source::from_xml("home.com", dtd, listings)
}

/// A real WAL of three records, its records, and each frame's end offset.
struct Wal {
    bytes: Vec<u8>,
    records: Vec<FeedbackRecord>,
    frame_ends: Vec<usize>,
}

fn wal() -> &'static Wal {
    static WAL: OnceLock<Wal> = OnceLock::new();
    WAL.get_or_init(|| {
        let dir = scratch_dir("wal");
        let path = dir.join("feedback.wal");
        std::fs::remove_file(&path).ok();
        let (mut log, _) = FeedbackWal::open(&path).expect("creates the WAL");
        let mut records = Vec::new();
        let mut frame_ends = Vec::new();
        for (i, label) in ["ADDRESS", "DESCRIPTION", "PHONE"].into_iter().enumerate() {
            let record = FeedbackRecord::from_source(
                &source(&[("Kent, WA", "quiet street", "(206) 111 2222")]),
                vec![Correction::tag_is("location", label).with_provenance("test", i as u64, "t")],
            );
            log.append(&record).expect("appends");
            records.push(record);
            frame_ends.push(std::fs::metadata(&path).expect("stat").len() as usize);
        }
        let bytes = std::fs::read(&path).expect("reads the WAL");
        std::fs::remove_dir_all(&dir).ok();
        Wal {
            bytes,
            records,
            frame_ends,
        }
    })
}

/// A real trained snapshot's text.
fn snapshot() -> &'static str {
    static SNAPSHOT: OnceLock<String> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mediated = parse_dtd(
            "<!ELEMENT HOUSE (ADDRESS, DESCRIPTION, PHONE)>\n<!ELEMENT ADDRESS (#PCDATA)>\n\
             <!ELEMENT DESCRIPTION (#PCDATA)>\n<!ELEMENT PHONE (#PCDATA)>",
        )
        .expect("mediated DTD");
        let train = TrainedSource {
            source: source(&[
                ("Miami, FL", "Great view of the bay", "(305) 111 2222"),
                ("Boston, MA", "Fantastic yard and porch", "(617) 333 4444"),
            ]),
            mapping: HashMap::from([
                ("home".to_string(), "HOUSE".to_string()),
                ("location".to_string(), "ADDRESS".to_string()),
                ("comments".to_string(), "DESCRIPTION".to_string()),
                ("contact".to_string(), "PHONE".to_string()),
            ]),
        };
        let builder = LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        let mut lsd = builder
            .add_learner(Box::new(NameMatcher::new(n, HashMap::new())))
            .add_learner(Box::new(ContentMatcher::new(n)))
            .add_learner(Box::new(NaiveBayesLearner::new(n)))
            .build()
            .expect("builds");
        lsd.train(std::slice::from_ref(&train)).expect("trains");
        let dir = scratch_dir("snapshot");
        let path = dir.join("model.json");
        lsd.save_json(&path).expect("saves");
        let text = std::fs::read_to_string(&path).expect("reads");
        std::fs::remove_dir_all(&dir).ok();
        text
    })
}

/// Position `at` (a fraction of `u16::MAX`) within `0..=len`.
fn position(at: u16, len: usize) -> usize {
    (at as usize * (len + 1)) / (u16::MAX as usize + 1)
}

/// `bytes` with 1–4 positions overwritten.
fn overwrite(bytes: &[u8], edits: &[(u16, u8)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(at, byte) in edits {
        let i = position(at, out.len().saturating_sub(1));
        if let Some(b) = out.get_mut(i) {
            *b = byte;
        }
    }
    out
}

/// Internal consistency of any scan: the valid prefix fits in the input,
/// and without the magic nothing is recovered.
fn check_scan_shape(bytes: &[u8]) -> Result<lsd_core::WalScan, TestCaseError> {
    let scan = FeedbackWal::scan_bytes(bytes);
    prop_assert_eq!(scan.file_len, bytes.len() as u64);
    prop_assert!(scan.valid_len <= scan.file_len);
    prop_assert_eq!(scan.has_magic, bytes.starts_with(WAL_MAGIC));
    if !scan.has_magic {
        prop_assert!(scan.records.is_empty() && scan.valid_len == 0);
    }
    // The auditor reads the same bytes; it must answer too.
    let _ = audit_wal(bytes, None);
    Ok(scan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, with and without the magic in front.
    #[test]
    fn wal_scan_answers_arbitrary_bytes(
        body in prop::collection::vec(any::<u8>(), 0..96),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = if with_magic { WAL_MAGIC.to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&body);
        check_scan_shape(&bytes)?;
    }

    /// A real WAL cut anywhere recovers exactly the records whose frames
    /// fit before the cut.
    #[test]
    fn wal_scan_of_a_truncated_log_recovers_the_whole_frames(at in any::<u16>()) {
        let wal = wal();
        let cut = position(at, wal.bytes.len());
        let scan = check_scan_shape(&wal.bytes[..cut])?;
        let whole = wal.frame_ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(&scan.records[..], &wal.records[..whole]);
        let valid = if whole == 0 { WAL_MAGIC.len().min(cut) } else { wal.frame_ends[whole - 1] };
        prop_assert_eq!(scan.valid_len, if scan.has_magic { valid as u64 } else { 0 });
    }

    /// A real WAL with bytes overwritten recovers a prefix of its records,
    /// at least every record framed before the first edited byte.
    #[test]
    fn wal_scan_of_a_mutated_log_recovers_a_prefix(
        edits in prop::collection::vec((any::<u16>(), any::<u8>()), 1..5),
    ) {
        let wal = wal();
        let bytes = overwrite(&wal.bytes, &edits);
        let scan = check_scan_shape(&bytes)?;
        prop_assert!(scan.records.len() <= wal.records.len());
        prop_assert_eq!(&scan.records[..], &wal.records[..scan.records.len()]);
        let first_edit = bytes.iter().zip(&wal.bytes).position(|(a, b)| a != b);
        if let Some(first) = first_edit.filter(|&i| i >= WAL_MAGIC.len()) {
            let untouched = wal.frame_ends.iter().filter(|&&end| end <= first).count();
            prop_assert!(scan.records.len() >= untouched);
        }
    }

    /// Arbitrary text is not a snapshot: the audit reports an error.
    #[test]
    fn snapshot_audit_answers_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let diagnostics = audit_snapshot(&text);
        prop_assert!(
            diagnostics.iter().any(|d| d.severity == Severity::Error),
            "{text:?} audited clean"
        );
    }

    /// A real snapshot cut short no longer parses: the audit reports an
    /// error.
    #[test]
    fn snapshot_audit_of_a_truncated_snapshot_reports_an_error(at in any::<u16>()) {
        let text = snapshot();
        let mut cut = position(at, text.len().saturating_sub(1));
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let diagnostics = audit_snapshot(&text[..cut]);
        prop_assert!(diagnostics.iter().any(|d| d.severity == Severity::Error));
    }

    /// A real snapshot with bytes overwritten is audited without a panic
    /// (a harmless edit, say to a digit of a count, may audit clean).
    #[test]
    fn snapshot_audit_of_a_mutated_snapshot_answers(
        edits in prop::collection::vec((any::<u16>(), any::<u8>()), 1..5),
    ) {
        let bytes = overwrite(snapshot().as_bytes(), &edits);
        let _ = audit_snapshot(&String::from_utf8_lossy(&bytes));
    }
}

/// The real artifacts the properties corrupt are themselves clean.
#[test]
fn the_seed_artifacts_are_clean() {
    let wal = wal();
    let scan = FeedbackWal::scan_bytes(&wal.bytes);
    assert_eq!(scan.records, wal.records);
    assert_eq!(scan.torn_bytes(), 0);
    assert_eq!(audit_snapshot(snapshot()), Vec::new());
}

/// Deep nesting is refused by the JSON parser's depth limit, not by
/// overflowing the stack.
#[test]
fn deeply_nested_snapshot_reports_an_error() {
    let text = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(audit_snapshot(&text)
        .iter()
        .any(|d| d.severity == Severity::Error));
}

/// `value[key]` of a JSON object, for editing.
fn field<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Map(entries) => {
            let entry = entries.iter_mut().find(|(k, _)| k == key);
            &mut entry.unwrap_or_else(|| panic!("no field {key}")).1
        }
        other => panic!("{key}: expected an object, found {}", other.kind()),
    }
}

/// `value[i]` of a JSON array, for editing.
fn item(value: &mut Value, i: usize) -> &mut Value {
    match value {
        Value::Seq(items) => &mut items[i],
        other => panic!("[{i}]: expected an array, found {}", other.kind()),
    }
}

/// The real snapshot with its content matcher's WHIRL state edited.
fn with_content_whirl(edit: impl FnOnce(&mut Value)) -> String {
    let mut value: Value = serde_json::from_str(snapshot()).expect("parses");
    let Value::Seq(learners) = field(&mut value, "learners") else {
        panic!("learners is not an array");
    };
    let content = learners
        .iter_mut()
        .find_map(|learner| match learner {
            Value::Map(entries) if entries[0].0 == "Content" => Some(&mut entries[0].1),
            _ => None,
        })
        .expect("a content matcher");
    edit(field(content, "whirl"));
    serde_json::to_string(&value).expect("serializes")
}

/// The WHIRL learner's label count, as an out-of-range label.
fn label_count(whirl: &mut Value) -> Value {
    field(whirl, "num_labels").clone()
}

/// Loads `text` as a snapshot, through a file as the server does, and
/// returns the refusal's reason.
fn refusal(label: &str, text: &str) -> String {
    let dir = scratch_dir(label);
    let path = dir.join("model.json");
    std::fs::write(&path, text).expect("writes");
    let loaded = Lsd::load_json(&path);
    std::fs::remove_dir_all(&dir).ok();
    match loaded {
        Err(PersistError::InvalidLearner { kind, reason }) => {
            assert_eq!(kind, "Content");
            reason
        }
        Err(e) => panic!("refused for another reason: {e}"),
        Ok(_) => panic!("a snapshot that cannot be served loaded"),
    }
}

/// A WHIRL label at or beyond the label count, in the document store or
/// in a vectors-only snapshot's frozen examples, is refused at load: it
/// would otherwise load, audit and then panic on every query reaching it.
#[test]
fn whirl_label_out_of_range_is_refused_at_load() {
    let in_docs = with_content_whirl(|whirl| {
        let bad = label_count(whirl);
        *item(item(field(whirl, "docs"), 0), 1) = bad;
    });
    assert!(refusal("label-docs", &in_docs).starts_with("example label "));
    let in_vectors = with_content_whirl(|whirl| {
        let bad = label_count(whirl);
        *field(whirl, "docs") = Value::Seq(Vec::new());
        *field(item(field(whirl, "examples"), 0), "label") = bad;
    });
    assert!(refusal("label-vectors", &in_vectors).starts_with("example label "));
    // The untouched snapshot loads.
    assert!(SavedModel::from_json_str(snapshot()).is_ok());
}

/// A vectors-only snapshot naming dimension `u32::MAX` is refused at load,
/// and neither the refusal nor rebuilding the index from the raw parse
/// asks for memory in proportion to the dimension.
#[test]
fn whirl_dimension_beyond_the_vocabulary_is_refused_without_allocating_for_it() {
    let text = with_content_whirl(|whirl| {
        *field(whirl, "docs") = Value::Seq(Vec::new());
        let vector = field(item(field(whirl, "examples"), 0), "vector");
        *item(item(field(vector, "entries"), 0), 0) = Value::Int(i64::from(u32::MAX));
    });
    let reason = refusal("dimension", &text);
    assert!(reason.contains("dimension 4294967295"), "{reason}");
    // Past the check, `finalize` gives the dimension no posting slot.
    let raw: SavedModel = serde_json::from_str(&text).expect("parses without the check");
    drop(Lsd::from_saved(raw));
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest < 64 << 20,
        "largest allocation request {largest} bytes"
    );
}

//! Persistence of trained LSD systems.
//!
//! The paper's workflow separates an offline training phase from an
//! interactive matching phase ("the training phase of LSD can be done
//! offline", Section 7). [`SavedModel`] is the serializable snapshot that
//! connects them: every built-in learner's trained state, the domain
//! constraints and the configuration, round-trippable through JSON.
//!
//! Version 1 snapshots also carried fitted stacking weights (`meta`) and
//! three configuration fields (`cv_folds`, `train_meta`, `converter`).
//! They still load: unknown keys are ignored, so the model serves with
//! equal learner weights, as every model now does.
//!
//! A snapshot holding a `Stats` or `Format` learner, kinds that were
//! removed, fails to parse ([`PersistError::Json`] names the kind); retrain
//! the model.
//!
//! Custom [`BaseLearner`] implementations added by downstream users are not
//! serializable through this path (they are trait objects with arbitrary
//! state); [`Lsd::to_saved`] reports them by name instead of silently
//! dropping them.

use crate::learners::{
    county_name_recognizer, BaseLearner, ContentMatcher, NaiveBayesLearner, NameMatcher, XmlLearner,
};
use crate::system::{Lsd, LsdConfig, SourceProvenance};
use lsd_constraints::{ConstraintHandler, DomainConstraint};
use lsd_learn::LabelSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from saving or loading a model.
#[derive(Debug)]
pub enum PersistError {
    /// A learner in the system has no serializable snapshot.
    UnsupportedLearner {
        /// The learner's display name.
        name: String,
    },
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// File I/O failed.
    Io(std::io::Error),
    /// The snapshot's schema version is newer than this build understands.
    /// Reported before field-level parsing so the caller sees "produced by
    /// a newer lsd-core" instead of an arbitrary missing-field error.
    UnsupportedVersion {
        /// The version stamped into the snapshot.
        found: u32,
        /// The newest version this build can load.
        supported: u32,
    },
    /// A learner's state parsed but is inconsistent: serving it would
    /// panic or allocate without bound (say, a WHIRL example labelled
    /// beyond the label count).
    InvalidLearner {
        /// The learner's snapshot kind (see [`SavedLearner::kind`]).
        kind: &'static str,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnsupportedLearner { name } => {
                write!(f, "learner '{name}' has no serializable snapshot")
            }
            PersistError::Json(e) => write!(f, "serialization failed: {e}"),
            PersistError::Io(e) => write!(f, "file I/O failed: {e}"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot has schema version {found}, but this build supports \
                 at most version {supported}; load it with a newer lsd-core"
            ),
            PersistError::InvalidLearner { kind, reason } => {
                write!(f, "learner '{kind}' is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The trained state of one built-in base learner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SavedLearner {
    /// WHIRL name matcher.
    Name(NameMatcher),
    /// WHIRL content matcher.
    Content(ContentMatcher),
    /// Multinomial Naive Bayes.
    NaiveBayes(NaiveBayesLearner),
    /// Structure-token Naive Bayes (Section 5).
    Xml(XmlLearner),
    /// The county-name recognizer, reconstructed from its parameters (its
    /// dictionary is compiled in).
    CountyRecognizer {
        /// Total label count.
        num_labels: usize,
        /// The COUNTY label index.
        target: usize,
    },
}

impl SavedLearner {
    /// The variant name, as it appears as the externally-tagged key in the
    /// snapshot JSON — what audit tooling reports a learner as.
    pub fn kind(&self) -> &'static str {
        match self {
            SavedLearner::Name(_) => "Name",
            SavedLearner::Content(_) => "Content",
            SavedLearner::NaiveBayes(_) => "NaiveBayes",
            SavedLearner::Xml(_) => "Xml",
            SavedLearner::CountyRecognizer { .. } => "CountyRecognizer",
        }
    }

    /// Checks the state that parsing cannot, so that [`Self::restore`]
    /// never rebuilds an index from a bad snapshot: each WHIRL learner's
    /// labels and vector dimensions must be in range.
    ///
    /// # Errors
    /// [`PersistError::InvalidLearner`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), PersistError> {
        let checked = match self {
            SavedLearner::Name(l) => l.validate(),
            SavedLearner::Content(l) => l.validate(),
            _ => Ok(()),
        };
        checked.map_err(|reason| PersistError::InvalidLearner {
            kind: self.kind(),
            reason,
        })
    }

    /// Restores the boxed learner, rebuilding any in-memory indexes. The
    /// learner must pass [`Self::validate`], as every snapshot parsed by
    /// [`SavedModel::from_json_str`] or made by [`Lsd::to_saved`] does.
    pub fn restore(self) -> Box<dyn BaseLearner> {
        match self {
            SavedLearner::Name(mut l) => {
                l.rehydrate();
                Box::new(l)
            }
            SavedLearner::Content(mut l) => {
                l.rehydrate();
                Box::new(l)
            }
            SavedLearner::NaiveBayes(l) => Box::new(l),
            SavedLearner::Xml(l) => Box::new(l),
            SavedLearner::CountyRecognizer { num_labels, target } => {
                Box::new(county_name_recognizer(num_labels, target))
            }
        }
    }
}

/// A complete serializable snapshot of a (usually trained) LSD system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// The mediated schema rendered as `<!ELEMENT ...>` syntax, reparsed
    /// on load (the DTD's name index is not serializable, and text keeps
    /// the snapshot readable). Empty in pre-analysis snapshots, which load
    /// an empty schema — labels still come from `labels` below.
    #[serde(default)]
    pub mediated_dtd: String,
    /// The label set.
    pub labels: LabelSet,
    /// The learners, in combination order.
    pub learners: Vec<SavedLearner>,
    /// Index of the XML learner within `learners`, if present.
    pub xml_index: Option<usize>,
    /// The domain constraints.
    pub constraints: Vec<DomainConstraint>,
    /// Pipeline configuration.
    pub config: LsdConfig,
    /// Whether [`Lsd::train`] had run.
    pub trained: bool,
    /// Per-source training provenance (name, serialization format, listing
    /// count). Empty for snapshots saved before formats were tracked.
    #[serde(default)]
    pub source_provenance: Vec<SourceProvenance>,
    /// Number of feedback-WAL records folded into this model by incremental
    /// retraining (see [`Lsd::feedback_applied`]). 0 for snapshots saved
    /// before the feedback loop existed.
    #[serde(default)]
    pub feedback_applied: u64,
}

/// Current snapshot format version. Version 2 dropped the stacking weights;
/// version 1 snapshots still load (see the module docs).
pub const SAVED_MODEL_VERSION: u32 = 2;

impl SavedModel {
    /// Parses a snapshot from JSON text, rejecting snapshots stamped with a
    /// schema version newer than [`SAVED_MODEL_VERSION`] *before* field
    /// parsing — so a future format change surfaces as a descriptive
    /// [`PersistError::UnsupportedVersion`] instead of an opaque
    /// missing-field parse error.
    ///
    /// Each learner is then validated ([`SavedLearner::validate`]).
    ///
    /// # Errors
    /// [`PersistError::UnsupportedVersion`] for newer snapshots,
    /// [`PersistError::Json`] for malformed JSON or field mismatches,
    /// [`PersistError::InvalidLearner`] for learner state that would
    /// fail when served.
    pub fn from_json_str(text: &str) -> Result<SavedModel, PersistError> {
        let value: serde_json::Value = serde_json::from_str(text)?;
        if let Some(serde::Value::Int(found)) = value.get("version") {
            let found = u32::try_from(*found).unwrap_or(u32::MAX);
            if found > SAVED_MODEL_VERSION {
                return Err(PersistError::UnsupportedVersion {
                    found,
                    supported: SAVED_MODEL_VERSION,
                });
            }
        }
        let saved = SavedModel::from_value(&value).map_err(|e| PersistError::Json(e.into()))?;
        for learner in &saved.learners {
            learner.validate()?;
        }
        Ok(saved)
    }
}

impl Lsd {
    /// Snapshots the system (learners, constraints, config).
    ///
    /// # Errors
    /// [`PersistError::UnsupportedLearner`] if a custom learner without a
    /// snapshot is present.
    pub fn to_saved(&self) -> Result<SavedModel, PersistError> {
        let learners = self
            .learners
            .iter()
            .map(|l| {
                l.snapshot()
                    .ok_or_else(|| PersistError::UnsupportedLearner {
                        name: l.name().to_string(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SavedModel {
            version: SAVED_MODEL_VERSION,
            mediated_dtd: self.mediated.to_dtd_syntax(),
            labels: self.labels.clone(),
            learners,
            xml_index: self.xml_index,
            constraints: self.handler.constraints().to_vec(),
            config: self.config,
            trained: self.trained,
            source_provenance: self.provenance.clone(),
            feedback_applied: self.feedback_applied,
        })
    }

    /// Reconstructs a system from a snapshot whose learners pass
    /// [`SavedLearner::validate`].
    pub fn from_saved(saved: SavedModel) -> Lsd {
        let learners: Vec<Box<dyn BaseLearner>> = saved
            .learners
            .into_iter()
            .map(SavedLearner::restore)
            .collect();
        let handler = ConstraintHandler::new(saved.constraints)
            .with_config(saved.config.search)
            .with_candidate_limit(saved.config.candidate_limit);
        let compiled = handler.compiled(&saved.labels);
        let mediated = lsd_xml::parse_dtd(&saved.mediated_dtd).unwrap_or_default();
        Lsd {
            mediated,
            labels: saved.labels,
            learners,
            xml_index: saved.xml_index,
            handler,
            compiled,
            config: saved.config,
            trained: saved.trained,
            provenance: saved.source_provenance,
            feedback_applied: saved.feedback_applied,
        }
    }

    /// Saves the system as pretty-printed JSON at `path`.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        let saved = self.to_saved()?;
        std::fs::write(path, serde_json::to_string_pretty(&saved)?)?;
        Ok(())
    }

    /// Loads a system from a JSON snapshot at `path`.
    ///
    /// # Errors
    /// [`PersistError::UnsupportedVersion`] if the snapshot was produced by
    /// a newer build, [`PersistError::Json`] / [`PersistError::Io`] for
    /// parse and file failures, [`PersistError::InvalidLearner`] for
    /// inconsistent learner state.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<Lsd, PersistError> {
        let text = std::fs::read_to_string(path)?;
        Ok(Lsd::from_saved(SavedModel::from_json_str(&text)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learners::Recognizer;
    use crate::system::{LsdBuilder, Source, TrainedSource};
    use lsd_xml::{parse_dtd, parse_fragment};
    use std::collections::HashMap;

    fn trained_system() -> (Lsd, Source) {
        let mediated = parse_dtd(
            "<!ELEMENT H (A, D, P)>\n<!ELEMENT A (#PCDATA)>\n\
             <!ELEMENT D (#PCDATA)>\n<!ELEMENT P (#PCDATA)>",
        )
        .expect("valid DTD");
        let dtd = parse_dtd(
            "<!ELEMENT h (addr, descr, phone)>\n<!ELEMENT addr (#PCDATA)>\n\
             <!ELEMENT descr (#PCDATA)>\n<!ELEMENT phone (#PCDATA)>",
        )
        .expect("valid DTD");
        let listings = [
            ("Miami, FL", "Great view", "(305) 111 2222"),
            ("Boston, MA", "Fantastic yard", "(617) 333 4444"),
            ("Austin, TX", "Nice area", "(512) 555 6666"),
        ]
        .iter()
        .map(|(a, d, p)| {
            parse_fragment(&format!(
                "<h><addr>{a}</addr><descr>{d}</descr><phone>{p}</phone></h>"
            ))
            .expect("well-formed")
        })
        .collect::<Vec<_>>();
        let train = TrainedSource {
            source: Source::from_xml("t", dtd.clone(), listings.clone()),
            mapping: HashMap::from([
                ("h".to_string(), "H".to_string()),
                ("addr".to_string(), "A".to_string()),
                ("descr".to_string(), "D".to_string()),
                ("phone".to_string(), "P".to_string()),
            ]),
        };
        let builder = LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        let mut lsd = builder
            .add_learner(Box::new(NameMatcher::with_synonym_pairs(
                n,
                [("addr", "address")],
            )))
            .add_learner(Box::new(ContentMatcher::new(n)))
            .add_learner(Box::new(NaiveBayesLearner::new(n)))
            .with_xml_learner(None)
            .build()
            .unwrap();
        lsd.train(std::slice::from_ref(&train)).unwrap();
        let target = Source::from_xml("same", dtd, listings);
        (lsd, target)
    }

    #[test]
    fn roundtrip_preserves_matching_behavior() {
        let (lsd, target) = trained_system();
        let before = lsd.match_source(&target).unwrap();

        let saved = lsd.to_saved().expect("all built-in learners snapshot");
        let json = serde_json::to_string(&saved).expect("serializes");
        let restored: SavedModel = serde_json::from_str(&json).expect("deserializes");
        let lsd2 = Lsd::from_saved(restored);

        assert!(lsd2.is_trained());
        assert_eq!(lsd2.learner_names(), lsd.learner_names());
        let after = lsd2.match_source(&target).unwrap();
        assert_eq!(before.labels, after.labels);
        for (a, b) in before.predictions.iter().zip(&after.predictions) {
            for l in 0..a.len() {
                assert!((a.score(l) - b.score(l)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let (lsd, target) = trained_system();
        let dir = std::env::temp_dir().join("lsd-persist-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.json");
        lsd.save_json(&path).expect("saves");
        let lsd2 = Lsd::load_json(&path).expect("loads");
        assert_eq!(
            lsd.match_source(&target).unwrap().labels,
            lsd2.match_source(&target).unwrap().labels
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_preserves_mediated_schema_for_analysis() {
        let (lsd, _) = trained_system();
        let saved = lsd.to_saved().expect("snapshots");
        let json = serde_json::to_string(&saved).expect("serializes");
        let restored: SavedModel = serde_json::from_str(&json).expect("deserializes");
        let lsd2 = Lsd::from_saved(restored);
        // The mediated DTD survives as rendered text, so the static-analysis
        // pass still works on a loaded model.
        assert!(lsd2.analyze().is_empty());
    }

    #[test]
    fn source_provenance_roundtrips_and_defaults_for_old_snapshots() {
        let (lsd, _) = trained_system();
        assert_eq!(
            lsd.source_provenance(),
            &[crate::SourceProvenance {
                source: "t".into(),
                format: crate::SourceFormat::Xml,
                listings: 3,
                inferred: None,
            }]
        );
        let saved = lsd.to_saved().expect("snapshots");
        let json = serde_json::to_string(&saved).expect("serializes");
        let lsd2 = Lsd::from_saved(SavedModel::from_json_str(&json).expect("loads"));
        assert_eq!(lsd2.source_provenance(), lsd.source_provenance());
        // Snapshots written before the field existed still load, with
        // empty provenance.
        let mut value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        if let serde_json::Value::Map(entries) = &mut value {
            entries.retain(|(k, _)| k != "source_provenance");
        }
        let old_json = serde_json::to_string(&value).expect("serializes");
        let lsd3 = Lsd::from_saved(SavedModel::from_json_str(&old_json).expect("loads"));
        assert!(lsd3.source_provenance().is_empty());
        assert!(lsd3.is_trained());
    }

    #[test]
    fn inferred_schema_provenance_survives_snapshot_roundtrip() {
        use crate::readers::XmlReader;
        let mediated = parse_dtd("<!ELEMENT H (A)>\n<!ELEMENT A (#PCDATA)>").expect("valid DTD");
        let reader = XmlReader::from_document(
            "<corpus><h><addr>Miami, FL</addr></h>\
             <h><addr>Boston, MA</addr></h>\
             <h><addr>Austin, TX</addr></h></corpus>",
        );
        let source = Source::from_reader("bare", &reader).expect("reads");
        assert!(source.inferred.is_some(), "container schema is inferred");
        let train = TrainedSource {
            source,
            mapping: HashMap::from([
                ("h".to_string(), "H".to_string()),
                ("addr".to_string(), "A".to_string()),
            ]),
        };
        let builder = LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        let mut lsd = builder
            .add_learner(Box::new(NameMatcher::new(n, HashMap::new())))
            .build()
            .unwrap();
        lsd.train(std::slice::from_ref(&train)).unwrap();

        let saved = lsd.to_saved().expect("snapshots");
        let json = serde_json::to_string(&saved).expect("serializes");
        let lsd2 = Lsd::from_saved(SavedModel::from_json_str(&json).expect("loads"));
        let prov = &lsd2.source_provenance()[0];
        let stats = prov.inferred.as_ref().expect("marker persists");
        assert_eq!(stats.corpus_size, 3);
        assert_eq!(stats.element_support["h"], 3);
        assert_eq!(stats.element_support["addr"], 3);
    }

    #[test]
    fn snapshot_without_mediated_dtd_still_loads() {
        // Pre-analysis snapshots lack the `mediated_dtd` field; `analyze`
        // on such a model sees an empty schema rather than failing to load.
        let (lsd, target) = trained_system();
        let mut saved = lsd.to_saved().expect("snapshots");
        saved.mediated_dtd = String::new();
        let lsd2 = Lsd::from_saved(saved);
        assert!(lsd2.is_trained());
        assert!(lsd2.match_source(&target).is_ok());
    }

    #[test]
    fn newer_snapshot_version_is_rejected_descriptively() {
        let (lsd, _) = trained_system();
        let mut saved = lsd.to_saved().expect("snapshots");
        saved.version = 999;
        let json = serde_json::to_string(&saved).expect("serializes");
        match SavedModel::from_json_str(&json) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, SAVED_MODEL_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // The same guard protects the file-loading path.
        let dir = std::env::temp_dir().join("lsd-persist-version-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("future.json");
        std::fs::write(&path, &json).expect("writes");
        let err = match Lsd::load_json(&path) {
            Err(e) => e,
            Ok(_) => panic!("future snapshot must not load"),
        };
        assert!(err.to_string().contains("schema version 999"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn current_snapshot_version_loads_via_from_json_str() {
        let (lsd, target) = trained_system();
        let json = serde_json::to_string(&lsd.to_saved().expect("snapshots")).expect("serializes");
        let restored = SavedModel::from_json_str(&json).expect("current version loads");
        let lsd2 = Lsd::from_saved(restored);
        assert_eq!(
            lsd.match_source(&target).unwrap().labels,
            lsd2.match_source(&target).unwrap().labels
        );
    }

    #[test]
    fn county_recognizer_roundtrips_via_parameters() {
        let saved = SavedLearner::CountyRecognizer {
            num_labels: 4,
            target: 2,
        };
        let learner = saved.restore();
        let instance =
            crate::instance::leaked(lsd_xml::Element::text_leaf("c", "King County"), &["c"]);
        assert_eq!(learner.predict(&instance).best_label(), 2);
    }

    #[test]
    fn custom_recognizer_is_rejected_with_name() {
        let mediated = parse_dtd("<!ELEMENT A (#PCDATA)>").expect("valid DTD");
        let builder = LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        let lsd = builder
            .add_learner(Box::new(Recognizer::new("zip-recognizer", n, 0, |v| {
                v.len() == 5
            })))
            .build()
            .unwrap();
        match lsd.to_saved() {
            Err(PersistError::UnsupportedLearner { name }) => {
                assert_eq!(name, "zip-recognizer");
            }
            other => panic!("expected UnsupportedLearner, got {other:?}"),
        }
    }
}

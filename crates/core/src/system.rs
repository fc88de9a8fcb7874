//! The LSD system: two-phase train/match pipeline (paper Section 3,
//! Figure 4).
//!
//! **Training** (Section 3.1): the user maps a few sources by hand; LSD
//! extracts data, creates per-learner training examples and trains the base
//! learners. The paper's fifth step, fitting stacking weights on
//! cross-validated predictions, is left out: every learner gets the same
//! weight (see [`crate::converter`]).
//!
//! **Matching** (Section 3.2): for a new source, LSD extracts a column of
//! instances per source tag, applies the base learners to each instance,
//! combines their predictions with equal weights, averages per column
//! with the prediction converter, and hands the tag-level predictions to
//! the constraint handler, which searches for the best global 1-1 mapping.
//!
//! The XML learner runs as a *second stage*: it needs labels for the
//! sub-elements of each instance (Section 5, Table 2: "Use LSD (with other
//! base learners) to predict for each non-leaf & non-root node in T a
//! label"), so the pipeline first computes a preliminary per-tag labelling
//! from the other learners, then lets the XML learner vote with that
//! structural context.

use crate::converter::{combine_learners, convert_column};
use crate::error::LsdError;
use crate::explain::RejectionReason;
use crate::feedback::Feedback;
use crate::instance::{Instance, SourceWalk, SubLabels};
use crate::learners::{BaseLearner, Reads, XmlLearner};
use crate::readers::{ReadError, SourceFormat, SourceReader};
use crate::report::{MatchReport, TrainReport};
use lsd_analysis::Diagnostic;
use lsd_constraints::{
    CompiledConstraintSet, ConstraintHandler, DomainConstraint, Evaluator, MappingResult,
    MatchingContext, SearchConfig, INFEASIBLE,
};
use lsd_infer::InferenceStats;
use lsd_learn::{parallel_map, ExecPolicy, LabelSet, Prediction};
use lsd_xml::{Dtd, Element, SchemaTree};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// A data source: its schema (DTD) and the listings extracted from it.
///
/// Construct one with [`Source::from_xml`] (the native representation) or
/// [`Source::from_reader`] (any [`SourceReader`]: JSON, CSV, SQL DDL, or
/// XML). Every reader normalizes into the same canonical `dtd` + `listings`
/// pair, so the rest of the pipeline never sees the serialization format.
#[derive(Debug, Clone)]
pub struct Source {
    /// Display name, e.g. `realestate.com`.
    pub name: String,
    /// The source DTD.
    pub dtd: Dtd,
    /// Extracted listings, each conforming to the DTD.
    pub listings: Vec<Element>,
    /// The serialization format this source was read from. Provenance
    /// only: the pipeline treats every source identically.
    pub format: SourceFormat,
    /// Inference evidence when the schema was learned from the listings
    /// rather than supplied (bare XML containers, JSON documents). `None`
    /// for native DTDs and DDL-derived schemas. Provenance only.
    pub inferred: Option<InferenceStats>,
}

impl Source {
    /// A source from the native representation: a parsed DTD plus parsed
    /// listing trees. Equivalent to the pre-reader struct literal.
    pub fn from_xml(name: impl Into<String>, dtd: Dtd, listings: Vec<Element>) -> Self {
        Source::from_parts(name, dtd, listings, SourceFormat::Xml)
    }

    /// A source from already-normalized parts with explicit format
    /// provenance.
    pub fn from_parts(
        name: impl Into<String>,
        dtd: Dtd,
        listings: Vec<Element>,
        format: SourceFormat,
    ) -> Self {
        Source {
            name: name.into(),
            dtd,
            listings,
            format,
            inferred: None,
        }
    }

    /// The one constructor for foreign serializations: runs the reader and
    /// wraps its normalized contents, carrying any schema-inference
    /// evidence along as provenance.
    ///
    /// # Errors
    /// [`ReadError`] when the reader cannot parse its input; the error
    /// names the format and the offending part.
    pub fn from_reader(
        name: impl Into<String>,
        reader: &dyn SourceReader,
    ) -> Result<Self, ReadError> {
        let contents = reader.read()?;
        let mut source = Source::from_parts(name, contents.dtd, contents.listings, reader.format());
        source.inferred = contents.inferred;
        Ok(source)
    }
}

/// Where one trained source came from: recorded by [`Lsd::train`] and
/// persisted with the model, so a snapshot remembers which serializations
/// taught it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SourceProvenance {
    /// The source's display name.
    pub source: String,
    /// The serialization format the source was read from.
    pub format: SourceFormat,
    /// How many listings the source contributed.
    pub listings: usize,
    /// Inference evidence when the source's schema was learned from its
    /// listings instead of supplied: corpus size, per-element support,
    /// generalization and fallback counts. `None` for native schemas and
    /// for snapshots saved before this field existed. Audits use it to
    /// flag models trained on weakly-supported inferred schemas.
    #[serde(default)]
    pub inferred: Option<InferenceStats>,
}

/// A training source: a source plus the user-specified 1-1 mappings from
/// its tags to mediated-schema tag names. Tags absent from the map are
/// unmatchable and train the `OTHER` label.
#[derive(Debug, Clone)]
pub struct TrainedSource {
    /// The source.
    pub source: Source,
    /// `source tag → mediated tag` as provided by the user.
    pub mapping: HashMap<String, String>,
}

/// Tunables for the pipeline.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct LsdConfig {
    /// RNG seed: instance subsampling is deterministic given the seed.
    pub seed: u64,
    /// Weight α of the `−log prob(m)` term in the mapping cost.
    pub alpha: f64,
    /// Constraint-handler search configuration.
    pub search: SearchConfig,
    /// Per-tag candidate-label limit for the handler (0 = all labels).
    pub candidate_limit: usize,
    /// Cap on training instances per (source, tag); 0 = no cap. The paper
    /// notes running time can be reduced "if we run it on fewer examples".
    pub max_train_instances_per_tag: usize,
    /// Cap on instances per tag examined when matching; 0 = no cap.
    pub max_match_instances_per_tag: usize,
}

/// Counts accepted (warning-severity) analysis diagnostics in the metrics
/// registry: one total plus one per diagnostic code.
fn record_diagnostics(diagnostics: &[Diagnostic]) {
    if !lsd_obs::enabled() || diagnostics.is_empty() {
        return;
    }
    lsd_obs::counter_add("analysis.warnings", "", diagnostics.len() as u64);
    for d in diagnostics {
        lsd_obs::counter_add("analysis.diagnostics", d.code.as_str(), 1);
    }
}

impl Default for LsdConfig {
    fn default() -> Self {
        LsdConfig {
            seed: 0,
            alpha: 1.0,
            search: SearchConfig::default(),
            candidate_limit: ConstraintHandler::DEFAULT_CANDIDATE_LIMIT,
            max_train_instances_per_tag: 40,
            max_match_instances_per_tag: 25,
        }
    }
}

/// Builder for an [`Lsd`] system.
pub struct LsdBuilder {
    mediated: Dtd,
    labels: LabelSet,
    learners: Vec<Box<dyn BaseLearner>>,
    xml_learner: Option<XmlLearner>,
    constraints: Vec<DomainConstraint>,
    config: LsdConfig,
}

impl LsdBuilder {
    /// Starts a builder for the given mediated schema: every mediated tag
    /// becomes a label, plus the reserved `OTHER`. The schema is retained
    /// for the static-analysis pass ([`Lsd::analyze`]).
    pub fn new(mediated: &Dtd) -> Self {
        LsdBuilder {
            labels: LabelSet::new(mediated.element_names().map(str::to_string)),
            mediated: mediated.clone(),
            learners: Vec::new(),
            xml_learner: None,
            constraints: Vec::new(),
            config: LsdConfig::default(),
        }
    }

    /// The label set (for constructing label-aware learners such as
    /// recognizers before adding them).
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Adds a first-stage base learner.
    pub fn add_learner(mut self, learner: Box<dyn BaseLearner>) -> Self {
        self.learners.push(learner);
        self
    }

    /// Adds the second-stage XML learner (Section 5). Pass `None` for the
    /// default configuration, or a pre-configured [`XmlLearner`]:
    ///
    /// ```ignore
    /// builder.with_xml_learner(None)              // default XML learner
    /// builder.with_xml_learner(custom_learner)    // custom-configured
    /// ```
    pub fn with_xml_learner(mut self, learner: impl Into<Option<XmlLearner>>) -> Self {
        self.xml_learner = Some(
            learner
                .into()
                .unwrap_or_else(|| XmlLearner::new(self.labels.len())),
        );
        self
    }

    /// Sets the domain constraints.
    pub fn with_constraints(mut self, constraints: Vec<DomainConstraint>) -> Self {
        self.constraints = constraints;
        self
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: LsdConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the (untrained) system.
    ///
    /// # Errors
    /// [`LsdError::NoLearners`] if no base learner was added.
    pub fn build(self) -> Result<Lsd, LsdError> {
        if self.learners.is_empty() && self.xml_learner.is_none() {
            return Err(LsdError::NoLearners);
        }
        let mut learners = self.learners;
        let xml_index = self.xml_learner.map(|xl| {
            learners.push(Box::new(xl) as Box<dyn BaseLearner>);
            learners.len() - 1
        });
        let handler = ConstraintHandler::new(self.constraints)
            .with_config(self.config.search)
            .with_candidate_limit(self.config.candidate_limit);
        let compiled = handler.compiled(&self.labels);
        Ok(Lsd {
            mediated: self.mediated,
            labels: self.labels,
            learners,
            xml_index,
            handler,
            compiled,
            config: self.config,
            trained: false,
            provenance: Vec::new(),
            feedback_applied: 0,
        })
    }
}

/// A trained (or trainable) LSD system.
pub struct Lsd {
    /// The mediated schema, retained for [`Lsd::analyze`].
    pub(crate) mediated: Dtd,
    pub(crate) labels: LabelSet,
    pub(crate) learners: Vec<Box<dyn BaseLearner>>,
    /// Index of the XML learner within `learners`, if present.
    pub(crate) xml_index: Option<usize>,
    pub(crate) handler: ConstraintHandler,
    /// The domain constraints compiled against `labels`, kept in lockstep
    /// with `handler` by [`Lsd::set_constraints`] — every match path shares
    /// this set, so it must never go stale.
    pub(crate) compiled: CompiledConstraintSet,
    pub(crate) config: LsdConfig,
    pub(crate) trained: bool,
    /// One entry per training source, recorded by [`Lsd::train`].
    pub(crate) provenance: Vec<SourceProvenance>,
    /// Number of feedback-WAL records already folded into this model by
    /// incremental retraining (see [`Lsd::feedback_applied`]).
    pub(crate) feedback_applied: u64,
}

/// One ranked mediated-schema label for a source tag (see
/// [`MatchOutcome::candidates`]).
#[derive(Debug, Clone)]
pub struct LabelCandidate {
    /// The mediated-schema label name.
    pub label: String,
    /// The combined tag-level score (post combination and converter) —
    /// the value the constraint handler ranked this label by.
    pub score: f64,
    /// Per-learner tag-level scores for this label, parallel to
    /// [`MatchOutcome::learner_names`].
    pub per_learner: Vec<f64>,
    /// The label's id in the label set (the provenance plumbing behind
    /// [`MatchOutcome::explain`]).
    pub(crate) label_id: usize,
}

/// The outcome of matching one source.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The source tags that were matched, in schema declaration order.
    pub tags: Vec<String>,
    /// Final tag-level predictions (post combination and converter),
    /// parallel to `tags`.
    pub predictions: Vec<Prediction>,
    /// The constraint handler's output, parallel to `tags`.
    pub result: MappingResult,
    /// Label names, parallel to `tags` (`OTHER` for unmatchable tags).
    pub labels: Vec<String>,
    /// `source tag → mediated tag`, computed once at match time.
    pub(crate) mapping: HashMap<String, String>,
    /// Base learner names, in combination order.
    pub(crate) learner_names: Vec<&'static str>,
    /// `per_learner[t][j]` — learner `j`'s converted tag-level prediction
    /// for tag `t` (the `explain_source` plumbing, captured during the
    /// match pass instead of re-predicting).
    pub(crate) per_learner: Vec<Vec<Prediction>>,
    /// `candidates[t]` — every label ranked by combined score for tag `t`.
    pub(crate) candidates: Vec<Vec<LabelCandidate>>,
    /// Instances examined per tag, parallel to `tags`.
    pub(crate) instances_examined: Vec<usize>,
    /// `rejections[t][rank]` — why candidate `rank` of tag `t` lost,
    /// parallel to `candidates`. `None` for the chosen label, candidates
    /// ranked below it, and throughout infeasible mappings.
    pub(crate) rejections: Vec<Vec<Option<RejectionReason>>>,
}

impl MatchOutcome {
    /// The produced 1-1 mapping as `source tag → mediated tag`, excluding
    /// tags mapped to `OTHER`. Computed once when the outcome is built;
    /// repeated calls return the same cached map.
    pub fn mapping(&self) -> &HashMap<String, String> {
        &self.mapping
    }

    /// The predicted label for one tag.
    pub fn label_of(&self, tag: &str) -> Option<&str> {
        self.tags
            .iter()
            .position(|t| t == tag)
            .map(|i| self.labels[i].as_str())
    }

    /// Base learner names, in combination order (the order of
    /// [`LabelCandidate::per_learner`]).
    pub fn learner_names(&self) -> &[&'static str] {
        &self.learner_names
    }

    /// The ranked label candidates for one tag: every label with its
    /// combined converter score and per-learner breakdown, best first.
    /// Empty for a tag the source does not have. No second explain pass is
    /// needed — the evidence is captured while matching.
    pub fn candidates(&self, tag: &str) -> &[LabelCandidate] {
        self.tags
            .iter()
            .position(|t| t == tag)
            .map(|i| self.candidates[i].as_slice())
            .unwrap_or(&[])
    }

    /// How many instances of `tag` the pipeline examined.
    pub fn instances_examined(&self, tag: &str) -> Option<usize> {
        self.tags
            .iter()
            .position(|t| t == tag)
            .map(|i| self.instances_examined[i])
    }
}

impl Lsd {
    /// The label set (mediated tags + `OTHER`).
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Names of the base learners, in combination order.
    pub fn learner_names(&self) -> Vec<&'static str> {
        self.learners.iter().map(|l| l.name()).collect()
    }

    /// Runs the static-analysis pass over the mediated schema and the
    /// constraints currently in force, without touching any source. The
    /// same diagnostics gate [`Lsd::train`] and [`Lsd::set_constraints`];
    /// call this to inspect them (or render them with
    /// `lsd_analysis::render_all`) before committing to a pipeline run.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        lsd_analysis::with_origin(
            lsd_analysis::analyze(&self.mediated, &self.labels, self.handler.constraints()),
            "mediated schema",
        )
    }

    /// Replaces the domain constraints, re-running the two-stage
    /// compilation so every match path sees the new set immediately. This
    /// supersedes the old `handler_mut()` escape hatch, which let callers
    /// swap constraints behind the pre-compiled set's back and match
    /// against a stale compilation.
    ///
    /// # Errors
    /// [`LsdError::UnknownLabel`] if a constraint names a label outside the
    /// mediated schema, and [`LsdError::Analysis`] if the constraint lints
    /// (`LSD102`–`LSD104`) find a contradiction among the hard constraints.
    /// Either way the previous constraints stay in force; warnings are
    /// accepted and counted in the metrics registry.
    pub fn set_constraints(&mut self, constraints: Vec<DomainConstraint>) -> Result<(), LsdError> {
        for c in &constraints {
            for name in c.predicate.label_names() {
                if self.labels.get(name).is_none() {
                    return Err(LsdError::UnknownLabel { label: name.into() });
                }
            }
        }
        let diagnostics = lsd_analysis::analyze_constraints(&self.labels, &constraints);
        if lsd_analysis::has_errors(&diagnostics) {
            return Err(LsdError::Analysis { diagnostics });
        }
        record_diagnostics(&diagnostics);
        self.handler.set_constraints(constraints);
        self.compiled = self.handler.compiled(&self.labels);
        Ok(())
    }

    /// The domain constraints currently in force.
    pub fn constraints(&self) -> &[DomainConstraint] {
        self.handler.constraints()
    }

    /// True once [`Self::train`] has run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Gate used before exposing this system to serving traffic (the
    /// `lsd-serve` model registry calls this on every loaded snapshot
    /// before activation): the system must be trained, and the
    /// static-analysis pass over its mediated schema and constraints must
    /// be free of error-severity diagnostics.
    ///
    /// # Errors
    /// [`LsdError::NotTrained`] for an untrained system,
    /// [`LsdError::Analysis`] with the full diagnostic list if the
    /// analysis pass finds errors. Warnings pass.
    pub fn ensure_servable(&self) -> Result<(), LsdError> {
        self.ensure_trained("serve")?;
        let diagnostics = self.analyze();
        if lsd_analysis::has_errors(&diagnostics) {
            return Err(LsdError::Analysis { diagnostics });
        }
        Ok(())
    }

    /// Trains the base learners on user-mapped sources (Section 3.1).
    /// Retrains from scratch on each call; to *add* a source incrementally
    /// (the paper's "reuse past matchings" loop), call again with the
    /// extended source list or use [`Self::train_incremental`].
    ///
    /// Base learners train concurrently, one scoped thread each. Results
    /// are identical to serial execution.
    ///
    /// # Errors
    /// [`LsdError::Analysis`] if the static-analysis pass finds
    /// error-severity diagnostics in the mediated schema, the constraint
    /// set, or any training source's schema (warnings pass and are counted
    /// in the metrics registry); [`LsdError::NoTrainingData`] if the
    /// sources yield no instances.
    pub fn train(&mut self, sources: &[TrainedSource]) -> Result<(), LsdError> {
        let _span = lsd_obs::span!("train");
        let mut diagnostics = self.analyze();
        for ts in sources {
            diagnostics.extend(lsd_analysis::with_origin(
                lsd_analysis::analyze_dtd(&ts.source.dtd),
                &ts.source.name,
            ));
        }
        if lsd_analysis::has_errors(&diagnostics) {
            return Err(LsdError::Analysis { diagnostics });
        }
        record_diagnostics(&diagnostics);
        let walks = self.labelled_walks(sources);
        let examples = self.training_examples(&walks);
        if examples.is_empty() {
            return Err(LsdError::NoTrainingData);
        }
        if lsd_obs::enabled() {
            lsd_obs::counter_add("train.sources", "", sources.len() as u64);
            lsd_obs::counter_add("train.examples", "", examples.len() as u64);
        }

        // Train every base learner on its full example set, one scoped
        // thread per learner (they are independent and `train` needs
        // `&mut`, so this fans out over `iter_mut` rather than
        // `parallel_map`).
        let train_timed = |learner: &mut Box<dyn BaseLearner>, examples: &[(Instance, usize)]| {
            let name = learner.name();
            let _span = lsd_obs::span!("learner.train", name);
            let t0 = lsd_obs::enabled().then(Instant::now);
            learner.train(examples);
            if let Some(t0) = t0 {
                lsd_obs::record_duration("learner.train_ns", name, t0.elapsed());
            }
        };
        {
            let _stage = lsd_obs::span!("train.base_learners");
            if self.learners.len() > 1 {
                let examples = &examples;
                // Each worker flushes its metric shard: the scope's implicit
                // wait can return before a worker's TLS destructor merges it.
                std::thread::scope(|scope| {
                    for learner in &mut self.learners {
                        scope.spawn(move || {
                            train_timed(learner, examples);
                            lsd_obs::flush();
                        });
                    }
                });
            } else {
                for learner in &mut self.learners {
                    train_timed(learner, &examples);
                }
            }
        }

        self.record_provenance(sources);
        self.trained = true;
        Ok(())
    }

    /// Snapshots per-source provenance after a successful training pass.
    /// Retraining replaces the whole list, mirroring `train`'s
    /// from-scratch semantics.
    fn record_provenance(&mut self, sources: &[TrainedSource]) {
        self.provenance = sources
            .iter()
            .map(|ts| SourceProvenance {
                source: ts.source.name.clone(),
                format: ts.source.format,
                listings: ts.source.listings.len(),
                inferred: ts.source.inferred.clone(),
            })
            .collect();
    }

    /// Where the trained sources came from: name, serialization format,
    /// and listing count per source, in training order. Empty before
    /// [`Lsd::train`] (and for snapshots saved before provenance existed).
    pub fn source_provenance(&self) -> &[SourceProvenance] {
        &self.provenance
    }

    /// Learns a deterministic, 1-unambiguous DTD from raw XML instances —
    /// the schema-inference entry point for DTD-less sources, exposed on
    /// the facade so callers need not depend on `lsd-infer` directly.
    /// Every returned model is 1-unambiguous and accepts every training
    /// instance; the returned [`lsd_infer::InferenceStats`] reports corpus
    /// size, per-element support, the occurrence factors in the learned
    /// chains and how many elements got the catch-all.
    ///
    /// # Errors
    /// [`lsd_infer::InferError::EmptyCorpus`] when `instances` is empty.
    pub fn infer_dtd(instances: &[Element]) -> Result<lsd_infer::Inference, lsd_infer::InferError> {
        lsd_infer::infer_dtd(instances)
    }

    /// Extends a trained system with additional mapped sources by
    /// warm-starting every base learner from its current state — the
    /// retrain step of the online feedback loop, where a correction batch
    /// becomes one small [`TrainedSource`] and a full retrain would be
    /// wasteful. Provenance entries are appended rather than replaced.
    ///
    /// As long as no tag's training data exceeds
    /// [`LsdConfig::max_train_instances_per_tag`], the resulting system is
    /// identical to a full [`Self::train`] over the concatenated source
    /// list: warm-start is exact, not approximate.
    /// Above the cap, subsampling draws differ between the two paths.
    ///
    /// # Errors
    /// [`LsdError::NotTrained`] before [`Self::train`];
    /// [`LsdError::WarmStartUnsupported`] if any base learner cannot extend
    /// its trained state (checked for *all* learners before any is
    /// modified, so the system is never left half-updated);
    /// [`LsdError::Analysis`] / [`LsdError::NoTrainingData`] as for
    /// [`Self::train`].
    pub fn train_incremental(&mut self, additional: &[TrainedSource]) -> Result<(), LsdError> {
        let _span = lsd_obs::span!("train.incremental");
        self.ensure_trained("train_incremental")?;
        let mut diagnostics = Vec::new();
        for ts in additional {
            diagnostics.extend(lsd_analysis::with_origin(
                lsd_analysis::analyze_dtd(&ts.source.dtd),
                &ts.source.name,
            ));
        }
        if lsd_analysis::has_errors(&diagnostics) {
            return Err(LsdError::Analysis { diagnostics });
        }
        record_diagnostics(&diagnostics);
        if let Some(learner) = self.learners.iter().find(|l| !l.supports_warm_start()) {
            return Err(LsdError::WarmStartUnsupported {
                learner: learner.name().to_string(),
            });
        }
        let walks = self.labelled_walks(additional);
        let examples = self.training_examples(&walks);
        if examples.is_empty() {
            return Err(LsdError::NoTrainingData);
        }
        if lsd_obs::enabled() {
            lsd_obs::counter_add("train.incremental_sources", "", additional.len() as u64);
            lsd_obs::counter_add("train.incremental_examples", "", examples.len() as u64);
        }
        let warm_timed = |learner: &mut Box<dyn BaseLearner>, examples: &[(Instance, usize)]| {
            let name = learner.name();
            let _span = lsd_obs::span!("learner.warm_train", name);
            let t0 = lsd_obs::enabled().then(Instant::now);
            let ok = learner.warm_train(examples);
            debug_assert!(ok, "supports_warm_start was checked for every learner");
            if let Some(t0) = t0 {
                lsd_obs::record_duration("learner.warm_train_ns", name, t0.elapsed());
            }
        };
        let _stage = lsd_obs::span!("train.incremental_learners");
        if self.learners.len() > 1 {
            let examples = &examples;
            std::thread::scope(|scope| {
                for learner in &mut self.learners {
                    scope.spawn(move || {
                        warm_timed(learner, examples);
                        lsd_obs::flush();
                    });
                }
            });
        } else {
            for learner in &mut self.learners {
                warm_timed(learner, &examples);
            }
        }
        self.provenance
            .extend(additional.iter().map(|ts| SourceProvenance {
                source: ts.source.name.clone(),
                format: ts.source.format,
                listings: ts.source.listings.len(),
                inferred: ts.source.inferred.clone(),
            }));
        Ok(())
    }

    /// How many feedback-WAL records have been folded into this model by
    /// incremental retraining. The retrain worker persists this with the
    /// snapshot, so a restarted server replays only the WAL suffix that
    /// postdates the model generation it loaded. 0 for a freshly trained
    /// system.
    pub fn feedback_applied(&self) -> u64 {
        self.feedback_applied
    }

    /// Records that the first `applied` feedback-WAL records are folded
    /// into this model (called by the retrain worker after
    /// [`Self::train_incremental`]).
    pub fn set_feedback_applied(&mut self, applied: u64) {
        self.feedback_applied = applied;
    }

    /// Walks each source once and labels its tags via the user mapping
    /// (`OTHER` when unmapped): what [`Self::training_examples`] borrows.
    fn labelled_walks<'s>(&self, sources: &'s [TrainedSource]) -> Vec<(SourceWalk<'s>, SubLabels)> {
        sources
            .iter()
            .map(|ts| {
                let tag_labels: SubLabels = ts
                    .source
                    .dtd
                    .element_names()
                    .map(|tag| {
                        let label = ts
                            .mapping
                            .get(tag)
                            .and_then(|name| self.labels.get(name))
                            .unwrap_or_else(|| self.labels.other());
                        (tag.to_string(), label)
                    })
                    .collect();
                (SourceWalk::new(&ts.source.listings), tag_labels)
            })
            .collect()
    }

    /// The labelled training instances of the walked sources: one example
    /// per extracted element occurrence (subsampled per tag), with the true
    /// structure labels attached for the XML learner.
    fn training_examples<'w>(
        &self,
        walks: &'w [(SourceWalk<'_>, SubLabels)],
    ) -> Vec<(Instance<'w>, usize)> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut examples = Vec::new();
        for (walk, tag_labels) in walks {
            // Columns in tag-name order: the subsample draws, and so the
            // kept examples, follow it.
            let mut tags: Vec<&str> = walk.tags().collect();
            tags.sort_unstable();
            for tag in tags {
                let Some(&label) = tag_labels.get(tag) else {
                    continue;
                };
                let kept = walk.sample(tag, self.config.max_train_instances_per_tag, &mut rng);
                for id in kept {
                    examples.push((walk.instance(id).with_sub_labels(tag_labels), label));
                }
            }
        }
        examples
    }

    /// `Err(NotTrained)` unless [`Self::train`] has completed.
    fn ensure_trained(&self, operation: &'static str) -> Result<(), LsdError> {
        if self.trained {
            Ok(())
        } else {
            Err(LsdError::NotTrained { operation })
        }
    }

    /// Matches a new source (Section 3.2): returns the proposed 1-1 mapping
    /// and the tag-level predictions behind it.
    ///
    /// # Errors
    /// [`LsdError::NotTrained`] before [`Self::train`];
    /// [`LsdError::InvalidSchema`] if the source DTD is malformed.
    pub fn match_source(&self, source: &Source) -> Result<MatchOutcome, LsdError> {
        self.ensure_trained("match_source")?;
        self.match_one(source, &[], &self.compiled)
    }

    /// Matches a source under user feedback (Section 4.3): the corrections
    /// compile to hard per-source constraints, validated against this
    /// system's label set first.
    ///
    /// # Errors
    /// As for [`Self::match_source`], plus [`LsdError::UnknownLabel`] when
    /// a correction references a label outside the mediated schema.
    pub fn match_source_with(
        &self,
        source: &Source,
        feedback: &Feedback,
    ) -> Result<MatchOutcome, LsdError> {
        self.ensure_trained("match_source")?;
        let constraints = feedback.to_constraints(&self.labels)?;
        self.match_one(source, &constraints, &self.compiled)
    }

    /// Matches many sources concurrently under `policy`, sharing this
    /// trained system (read-only) and one pre-compiled constraint set
    /// across scoped worker threads. Outcomes are returned in input order
    /// and are byte-identical to matching each source serially, regardless
    /// of thread count; on error, the first failing source (in input
    /// order) wins.
    ///
    /// # Errors
    /// As for [`Self::match_source`], for the first offending source.
    pub fn match_batch(
        &self,
        sources: &[Source],
        policy: &ExecPolicy,
    ) -> Result<Vec<MatchOutcome>, LsdError> {
        self.ensure_trained("match_batch")?;
        parallel_map(sources, policy, |_, source| {
            self.match_one(source, &[], &self.compiled)
        })
        .into_iter()
        .collect()
    }

    /// [`Self::train`] wrapped in an observability collection: returns a
    /// [`TrainReport`] with per-learner train wall time, example counts and
    /// the full metrics snapshot. Observability is enabled only for the
    /// duration of the call.
    ///
    /// # Errors
    /// As for [`Self::train`].
    pub fn train_with_report(
        &mut self,
        sources: &[TrainedSource],
    ) -> Result<TrainReport, LsdError> {
        let (result, metrics) = lsd_obs::collect(|| self.train(sources));
        result.map(|()| TrainReport { metrics })
    }

    /// [`Self::match_source`] wrapped in an observability collection:
    /// returns the outcome plus a [`MatchReport`] with A\* search counters,
    /// constraint evaluations and per-learner predict wall time.
    ///
    /// # Errors
    /// As for [`Self::match_source`].
    pub fn match_source_with_report(
        &self,
        source: &Source,
    ) -> Result<(MatchOutcome, MatchReport), LsdError> {
        let (result, metrics) = lsd_obs::collect(|| self.match_source(source));
        result.map(|outcome| (outcome, MatchReport { metrics }))
    }

    /// [`Self::match_batch`] wrapped in an observability collection: one
    /// [`MatchReport`] aggregated across every source and worker thread.
    ///
    /// # Errors
    /// As for [`Self::match_batch`].
    pub fn match_batch_with_report(
        &self,
        sources: &[Source],
        policy: &ExecPolicy,
    ) -> Result<(Vec<MatchOutcome>, MatchReport), LsdError> {
        let (result, metrics) = lsd_obs::collect(|| self.match_batch(sources, policy));
        result.map(|outcomes| (outcomes, MatchReport { metrics }))
    }

    /// The per-source matching pipeline, over a constraint set the caller
    /// has already compiled (shared read-only by [`Self::match_batch`]'s
    /// workers).
    fn match_one(
        &self,
        source: &Source,
        feedback: &[DomainConstraint],
        domain: &CompiledConstraintSet,
    ) -> Result<MatchOutcome, LsdError> {
        let _span = lsd_obs::span!("match.source");
        let schema = SchemaTree::from_dtd(&source.dtd).map_err(|e| LsdError::InvalidSchema {
            source: source.name.clone(),
            detail: e.to_string(),
        })?;
        let tags: Vec<String> = schema.tag_names().map(str::to_string).collect();

        // Walk the listings once and (deterministically) subsample each
        // tag's occurrences in schema order. The kept instances, and the
        // constraint data, borrow from the same walk.
        let walk = SourceWalk::new(&source.listings);
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let columns: Vec<Vec<Instance>> = tags
            .iter()
            .map(|tag| {
                walk.sample(tag, self.config.max_match_instances_per_tag, &mut rng)
                    .into_iter()
                    .map(|id| walk.instance(id))
                    .collect()
            })
            .collect();

        // Per-learner wall-time accumulators, flushed once per source so
        // the per-instance loop never touches the metrics registry.
        let obs_on = lsd_obs::enabled();
        let num_learners = self.learners.len();
        let mut predict_ns = vec![0u64; num_learners];
        let mut predict_calls = vec![0u64; num_learners];
        let mut timed_predict = |j: usize, inst: &Instance| {
            if obs_on {
                let t0 = Instant::now();
                let pred = self.learners[j].predict(inst);
                predict_ns[j] += t0.elapsed().as_nanos() as u64;
                predict_calls[j] += 1;
                pred
            } else {
                self.learners[j].predict(inst)
            }
        };

        // Stage 1: first-pass predictions from everything but the XML
        // learner. Each learner predicts once per distinct input it reads
        // (see `Reads`); repeats within this source reuse that prediction.
        let stage1_learners: Vec<usize> = (0..num_learners)
            .filter(|i| Some(*i) != self.xml_index)
            .collect();
        let mut stage1_instance_preds: Vec<Vec<Vec<Prediction>>> = Vec::with_capacity(tags.len());
        let mut tag_predictions: Vec<Prediction> = Vec::with_capacity(tags.len());
        let mut instances_examined: Vec<usize> = Vec::with_capacity(tags.len());
        {
            let _stage = lsd_obs::span!("match.stage1");
            let stage1_reads: Vec<Reads> = stage1_learners
                .iter()
                .map(|&j| self.learners[j].reads())
                .collect();
            let mut stage1_memos: Vec<PredictMemo> = stage1_learners
                .iter()
                .map(|_| PredictMemo::default())
                .collect();
            for instances in &columns {
                instances_examined.push(instances.len());
                let per_instance: Vec<Vec<Prediction>> = instances
                    .iter()
                    .map(|inst| {
                        stage1_learners
                            .iter()
                            .zip(&stage1_reads)
                            .zip(&mut stage1_memos)
                            .map(|((&j, &reads), memo)| {
                                memo.predict(reads, inst, || timed_predict(j, inst))
                            })
                            .collect()
                    })
                    .collect();
                let combined: Vec<Prediction> = per_instance
                    .iter()
                    .map(|preds| combine_learners(preds, num_learners, self.labels.len()))
                    .collect();
                tag_predictions.push(convert_column(&combined, self.labels.len()));
                stage1_instance_preds.push(per_instance);
            }
        }

        // Stage 2: the XML learner votes with the stage-1 labelling as
        // structural context, and every learner's vote is re-combined.
        // Its per-instance predictions are kept so the per-learner views
        // below need no second predict pass.
        let mut xml_instance_preds: Vec<Vec<Prediction>> = vec![Vec::new(); tags.len()];
        if let Some(xml_idx) = self.xml_index {
            let _stage = lsd_obs::span!("match.stage2");
            let stage1_labels: SubLabels = tags
                .iter()
                .zip(&tag_predictions)
                .map(|(t, p)| (t.clone(), p.best_label()))
                .collect();
            // A leaf's XML-learner tokens come from its direct text alone
            // (the XML learner's tree walk reads neither the tag name nor
            // the labels without child elements), so leaves are memoised
            // by text.
            let mut leaf_memo = PredictMemo::default();
            for (ti, instances) in columns.iter().enumerate() {
                let stage1 = &stage1_instance_preds[ti];
                let mut xml_preds: Vec<Prediction> = Vec::with_capacity(instances.len());
                let combined: Vec<Prediction> = instances
                    .iter()
                    .zip(stage1)
                    .map(|(inst, s1_preds)| {
                        let xml_pred = if inst.element.is_leaf() {
                            leaf_memo.predict(Reads::Text, inst, || timed_predict(xml_idx, inst))
                        } else {
                            // Every non-leaf borrows the one label map.
                            timed_predict(xml_idx, &inst.with_sub_labels(&stage1_labels))
                        };
                        // Reassemble the full prediction vector in learner
                        // order (stage-1 learners + XML learner).
                        let mut all: Vec<Prediction> = Vec::with_capacity(num_learners);
                        let mut s1 = s1_preds.iter();
                        for j in 0..num_learners {
                            if j == xml_idx {
                                all.push(xml_pred.clone());
                            } else {
                                all.push(s1.next().expect("stage-1 prediction").clone());
                            }
                        }
                        xml_preds.push(xml_pred);
                        combine_learners(&all, num_learners, self.labels.len())
                    })
                    .collect();
                tag_predictions[ti] = convert_column(&combined, self.labels.len());
                xml_instance_preds[ti] = xml_preds;
            }
        }

        // The constraint data borrows its cells from the walk.
        let data = walk.source_data(tags.iter().map(String::as_str));

        // Per-learner tag-level views: each learner's instance column run
        // through the same converter as the combined pipeline. This is the
        // evidence behind `candidates()` and `explain_source`, captured from
        // the predictions already made above.
        let per_learner: Vec<Vec<Prediction>> = stage1_instance_preds
            .iter()
            .zip(&xml_instance_preds)
            .map(|(stage1, xml_preds)| {
                (0..num_learners)
                    .map(|j| {
                        let column: Vec<Prediction> = if Some(j) == self.xml_index {
                            xml_preds.clone()
                        } else {
                            let pos = stage1_learners
                                .iter()
                                .position(|&s| s == j)
                                .expect("stage-1 learner index");
                            stage1.iter().map(|preds| preds[pos].clone()).collect()
                        };
                        convert_column(&column, self.labels.len())
                    })
                    .collect()
            })
            .collect();

        if obs_on {
            lsd_obs::counter_add("match.sources", "", 1);
            lsd_obs::counter_add("match.tags", "", tags.len() as u64);
            lsd_obs::counter_add(
                "match.instances",
                "",
                instances_examined.iter().map(|&n| n as u64).sum(),
            );
            for (j, learner) in self.learners.iter().enumerate() {
                if predict_calls[j] > 0 {
                    // Wall time goes into histograms: counters must stay
                    // deterministic across thread counts.
                    lsd_obs::record_value("learner.predict_ns", learner.name(), predict_ns[j]);
                    lsd_obs::counter_add("learner.predict_calls", learner.name(), predict_calls[j]);
                }
            }
        }

        // Constraint handling. One evaluator, over the effective constraint
        // set (domain plus this source's feedback), serves the search and
        // the provenance pass below.
        let ctx = MatchingContext {
            labels: &self.labels,
            schema: &schema,
            tags: tags.clone(),
            predictions: tag_predictions.clone(),
            data: &data,
            alpha: self.config.alpha,
        };
        let extended;
        let set = if feedback.is_empty() {
            domain
        } else {
            extended = domain.with_extra(&self.labels, feedback);
            &extended
        };
        let (eval, result) = {
            let _search = lsd_obs::span!("match.constraints");
            let eval = Evaluator::with_compiled(&ctx, set);
            let result = self.handler.find_mapping(&eval, feedback);
            (eval, result)
        };
        let labels: Vec<String> = result
            .assignment
            .iter()
            .map(|&l| self.labels.name(l).to_string())
            .collect();
        let mapping: HashMap<String, String> = tags
            .iter()
            .zip(&labels)
            .filter(|(_, l)| *l != LabelSet::OTHER)
            .map(|(t, l)| (t.clone(), l.clone()))
            .collect();
        let candidates: Vec<Vec<LabelCandidate>> = tag_predictions
            .iter()
            .enumerate()
            .map(|(ti, pred)| {
                pred.ranked_labels()
                    .into_iter()
                    .map(|l| LabelCandidate {
                        label: self.labels.name(l).to_string(),
                        score: pred.score(l),
                        per_learner: per_learner[ti].iter().map(|v| v.score(l)).collect(),
                        label_id: l,
                    })
                    .collect()
            })
            .collect();
        // Decision provenance: classify why every candidate that outranked
        // the chosen label lost, against the same effective constraint set
        // the search used.
        let rejections = {
            let _span = lsd_obs::span!("match.provenance");
            compute_rejections(&eval, &result, &candidates)
        };
        Ok(MatchOutcome {
            tags,
            predictions: tag_predictions,
            result,
            labels,
            mapping,
            learner_names: self.learners.iter().map(|l| l.name()).collect(),
            per_learner,
            candidates,
            instances_examined,
            rejections,
        })
    }

    /// Explains how each base learner sees each tag of a source: one
    /// tag-level (converted) prediction per learner, using the true
    /// two-stage protocol for the XML learner. This is the diagnostic
    /// behind "why did LSD map X to Y?" — the lesion studies of the paper
    /// in miniature, per tag.
    ///
    /// # Errors
    /// As for [`Self::match_source`].
    pub fn explain_source(&self, source: &Source) -> Result<Vec<TagExplanation>, LsdError> {
        self.ensure_trained("explain_source")?;
        // The per-learner views are captured during the match pass itself
        // (see `match_one`), so explaining costs one pipeline run instead of
        // the former run-then-re-predict-everything double pass.
        let outcome = self.match_source(source)?;
        Ok(outcome
            .tags
            .iter()
            .enumerate()
            .map(|(ti, tag)| TagExplanation {
                tag: tag.clone(),
                per_learner: outcome
                    .learner_names
                    .iter()
                    .zip(&outcome.per_learner[ti])
                    .map(|(name, pred)| (name.to_string(), pred.clone()))
                    .collect(),
                combined: outcome.predictions[ti].clone(),
                instances_examined: outcome.instances_examined[ti],
            })
            .collect())
    }
}

/// Classifies, per tag, why each candidate ranked above the chosen label
/// lost: swap the candidate into the final assignment (everything else
/// fixed), re-evaluate, and read off the verdict — hard-constraint
/// violations, a cost increase, or an early-stopped search (see
/// [`RejectionReason`]). When the search itself fell back to an infeasible
/// assignment, a candidate is blamed only for the hard violations it would
/// *introduce* on top of the base assignment's own.
fn compute_rejections(
    eval: &Evaluator<'_>,
    result: &MappingResult,
    candidates: &[Vec<LabelCandidate>],
) -> Vec<Vec<Option<RejectionReason>>> {
    let mut scratch = eval.scratch();
    let mut assignment: Vec<Option<usize>> = result.assignment.iter().map(|&l| Some(l)).collect();
    let base_cost = eval.evaluate(&assignment, &mut scratch);
    // Hard violations the final assignment already carries (empty when the
    // mapping is feasible). A candidate is blamed only for violations it
    // *introduces* beyond these, so explanations stay meaningful even when
    // the search fell back to an infeasible assignment.
    let base_violations: Vec<String> = eval
        .violations(&assignment, &mut scratch)
        .into_iter()
        .filter(|v| v.hard && v.violation > 0.0)
        .map(|v| v.description)
        .collect();
    candidates
        .iter()
        .enumerate()
        .map(|(ti, cands)| {
            let chosen = result.assignment[ti];
            let chosen_rank = cands.iter().position(|c| c.label_id == chosen);
            cands
                .iter()
                .enumerate()
                .map(|(rank, cand)| {
                    // Only candidates strictly above the chosen label need
                    // explaining — lower-ranked ones lost on score alone.
                    match chosen_rank {
                        Some(cr) if rank < cr => {}
                        _ => return None,
                    }
                    assignment[ti] = Some(cand.label_id);
                    let cost = eval.evaluate(&assignment, &mut scratch);
                    let introduced: Vec<String> = if cost >= INFEASIBLE {
                        let mut budget = base_violations.clone();
                        eval.violations(&assignment, &mut scratch)
                            .into_iter()
                            .filter(|v| v.hard && v.violation > 0.0)
                            .map(|v| v.description)
                            .filter(|d| {
                                // Multiset subtraction: keep only violations
                                // the base assignment does not already have.
                                match budget.iter().position(|b| b == d) {
                                    Some(i) => {
                                        budget.swap_remove(i);
                                        false
                                    }
                                    None => true,
                                }
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let reason = if !introduced.is_empty() {
                        RejectionReason::Constraint {
                            violated: introduced,
                        }
                    } else if cost > base_cost {
                        RejectionReason::CostlierMapping {
                            delta_cost: cost - base_cost,
                        }
                    } else {
                        RejectionReason::SearchIncomplete {
                            delta_cost: cost - base_cost,
                        }
                    };
                    assignment[ti] = Some(chosen);
                    Some(reason)
                })
                .collect()
        })
        .collect()
}

/// The per-learner view of one source tag (see [`Lsd::explain_source`]).
#[derive(Debug, Clone)]
pub struct TagExplanation {
    /// The source tag.
    pub tag: String,
    /// `(learner name, tag-level prediction)` per base learner, in
    /// combination order.
    pub per_learner: Vec<(String, Prediction)>,
    /// The combined, converted prediction the constraint handler saw.
    pub combined: Prediction,
    /// How many instances of the tag were examined.
    pub instances_examined: usize,
}

/// One learner's predictions within a match, keyed by what it reads (see
/// [`Reads`]): a repeated path or text reuses the first prediction. The
/// keys borrow from the source's walk.
#[derive(Default)]
struct PredictMemo<'a> {
    by_path: HashMap<&'a [&'a str], Prediction>,
    by_text: HashMap<&'a str, Prediction>,
}

impl<'a> PredictMemo<'a> {
    /// The prediction for `inst`: memoised under `reads`, made by
    /// `predict` on a miss.
    fn predict(
        &mut self,
        reads: Reads,
        inst: &Instance<'a>,
        predict: impl FnOnce() -> Prediction,
    ) -> Prediction {
        match reads {
            Reads::Path => memoised(&mut self.by_path, inst.path, predict),
            Reads::Text => memoised(&mut self.by_text, inst.text, predict),
            Reads::Instance => predict(),
        }
    }
}

fn memoised<K: std::hash::Hash + Eq>(
    memo: &mut HashMap<K, Prediction>,
    key: K,
    predict: impl FnOnce() -> Prediction,
) -> Prediction {
    memo.entry(key).or_insert_with(predict).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::Correction;
    use crate::learners::{ContentMatcher, NaiveBayesLearner, NameMatcher};
    use lsd_constraints::Predicate;
    use lsd_xml::{parse_dtd, parse_fragment};
    use rand::seq::SliceRandom;

    /// The paper's running example (Figures 2, 5, 6): mediated schema with
    /// ADDRESS / DESCRIPTION / AGENT-PHONE; train on realestate.com and
    /// homeseekers.com, match greathomes.com.
    fn mediated() -> Dtd {
        parse_dtd(
            "<!ELEMENT HOUSE (ADDRESS, DESCRIPTION, AGENT-PHONE)>\n\
             <!ELEMENT ADDRESS (#PCDATA)>\n\
             <!ELEMENT DESCRIPTION (#PCDATA)>\n\
             <!ELEMENT AGENT-PHONE (#PCDATA)>",
        )
        .unwrap()
    }

    fn realestate() -> TrainedSource {
        let dtd = parse_dtd(
            "<!ELEMENT house (location, comments, contact)>\n\
             <!ELEMENT location (#PCDATA)>\n<!ELEMENT comments (#PCDATA)>\n\
             <!ELEMENT contact (#PCDATA)>",
        )
        .unwrap();
        let rows = [
            ("Miami, FL", "Nice area near downtown", "(305) 729 0831"),
            (
                "Boston, MA",
                "Close to river, great views",
                "(617) 253 1429",
            ),
            (
                "Austin, TX",
                "Fantastic yard, beautiful trees",
                "(512) 441 8338",
            ),
            (
                "Denver, CO",
                "Great location close to park",
                "(303) 220 9154",
            ),
        ];
        let listings = rows
            .iter()
            .map(|(a, d, p)| {
                parse_fragment(&format!(
                    "<house><location>{a}</location><comments>{d}</comments>\
                     <contact>{p}</contact></house>"
                ))
                .unwrap()
            })
            .collect();
        TrainedSource {
            source: Source::from_xml("realestate.com", dtd, listings),
            mapping: HashMap::from([
                ("location".to_string(), "ADDRESS".to_string()),
                ("comments".to_string(), "DESCRIPTION".to_string()),
                ("contact".to_string(), "AGENT-PHONE".to_string()),
                ("house".to_string(), "HOUSE".to_string()),
            ]),
        }
    }

    fn homeseekers() -> TrainedSource {
        let dtd = parse_dtd(
            "<!ELEMENT listing (house-addr, detailed-desc, phone)>\n\
             <!ELEMENT house-addr (#PCDATA)>\n<!ELEMENT detailed-desc (#PCDATA)>\n\
             <!ELEMENT phone (#PCDATA)>",
        )
        .unwrap();
        let rows = [
            (
                "Seattle, WA",
                "Fantastic house, great schools",
                "(206) 753 2605",
            ),
            (
                "Portland, OR",
                "Great yard, close to highway",
                "(515) 273 4312",
            ),
            (
                "Spokane, WA",
                "Beautiful views of the river",
                "(509) 811 4200",
            ),
            (
                "Eugene, OR",
                "Nice neighborhood, fantastic deck",
                "(541) 688 2442",
            ),
        ];
        let listings = rows
            .iter()
            .map(|(a, d, p)| {
                parse_fragment(&format!(
                    "<listing><house-addr>{a}</house-addr>\
                     <detailed-desc>{d}</detailed-desc><phone>{p}</phone></listing>"
                ))
                .unwrap()
            })
            .collect();
        TrainedSource {
            source: Source::from_xml("homeseekers.com", dtd, listings),
            mapping: HashMap::from([
                ("house-addr".to_string(), "ADDRESS".to_string()),
                ("detailed-desc".to_string(), "DESCRIPTION".to_string()),
                ("phone".to_string(), "AGENT-PHONE".to_string()),
                ("listing".to_string(), "HOUSE".to_string()),
            ]),
        }
    }

    fn greathomes() -> Source {
        let dtd = parse_dtd(
            "<!ELEMENT home (area, extra-info, contact-phone)>\n\
             <!ELEMENT area (#PCDATA)>\n<!ELEMENT extra-info (#PCDATA)>\n\
             <!ELEMENT contact-phone (#PCDATA)>",
        )
        .unwrap();
        let rows = [
            (
                "Orlando, FL",
                "Spacious rooms with great light",
                "(315) 237 4379",
            ),
            ("Kent, WA", "Close to highway, nice yard", "(415) 273 1234"),
            (
                "Portland, OR",
                "Great location near schools",
                "(515) 237 4244",
            ),
        ];
        let listings = rows
            .iter()
            .map(|(a, d, p)| {
                parse_fragment(&format!(
                    "<home><area>{a}</area><extra-info>{d}</extra-info>\
                     <contact-phone>{p}</contact-phone></home>"
                ))
                .unwrap()
            })
            .collect();
        Source::from_xml("greathomes.com", dtd, listings)
    }

    fn build_system() -> Lsd {
        let mediated = mediated();
        let builder = LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        builder
            .add_learner(Box::new(NameMatcher::with_synonym_pairs(
                n,
                [("location", "address"), ("comments", "description")],
            )))
            .add_learner(Box::new(ContentMatcher::new(n)))
            .add_learner(Box::new(NaiveBayesLearner::new(n)))
            .with_constraints(vec![
                DomainConstraint::hard(Predicate::AtMostOne {
                    label: "ADDRESS".into(),
                }),
                // Frequency + nesting constraints pin the root tag, exactly
                // as a real domain specification would (Table 1).
                DomainConstraint::hard(Predicate::ExactlyOne {
                    label: "HOUSE".into(),
                }),
                DomainConstraint::hard(Predicate::NestedIn {
                    outer: "HOUSE".into(),
                    inner: "ADDRESS".into(),
                }),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn figure2_end_to_end() {
        let mut lsd = build_system();
        assert!(!lsd.is_trained());
        lsd.train(&[realestate(), homeseekers()]).unwrap();
        assert!(lsd.is_trained());

        let outcome = lsd.match_source(&greathomes()).unwrap();
        assert!(outcome.result.feasible);
        assert_eq!(outcome.label_of("area"), Some("ADDRESS"));
        assert_eq!(outcome.label_of("extra-info"), Some("DESCRIPTION"));
        assert_eq!(outcome.label_of("contact-phone"), Some("AGENT-PHONE"));
        assert_eq!(outcome.label_of("home"), Some("HOUSE"));
        let mapping = outcome.mapping();
        assert_eq!(mapping.len(), 4);
    }

    #[test]
    fn feedback_constrains_current_source_only() {
        let mut lsd = build_system();
        lsd.train(&[realestate(), homeseekers()]).unwrap();
        let fb = Feedback::from_corrections(vec![Correction::tag_is("extra-info", "ADDRESS")]);
        let outcome = lsd.match_source_with(&greathomes(), &fb).unwrap();
        assert_eq!(outcome.label_of("extra-info"), Some("ADDRESS"));
        // A later call without feedback is unaffected.
        let outcome2 = lsd.match_source(&greathomes()).unwrap();
        assert_eq!(outcome2.label_of("extra-info"), Some("DESCRIPTION"));
    }

    #[test]
    fn learner_names_listed_in_order() {
        let lsd = build_system();
        assert_eq!(
            lsd.learner_names(),
            vec!["name-matcher", "content-matcher", "naive-bayes"]
        );
    }

    #[test]
    fn xml_learner_stage_runs() {
        let mediated = mediated();
        let builder = LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        let mut lsd = builder
            .add_learner(Box::new(NameMatcher::with_synonym_pairs(n, [])))
            .add_learner(Box::new(NaiveBayesLearner::new(n)))
            .with_xml_learner(None)
            .build()
            .unwrap();
        lsd.train(&[realestate(), homeseekers()]).unwrap();
        assert_eq!(lsd.learner_names().last(), Some(&"xml-learner"));
        let outcome = lsd.match_source(&greathomes()).unwrap();
        assert_eq!(outcome.label_of("contact-phone"), Some("AGENT-PHONE"));
    }

    #[test]
    fn empty_builder_errors() {
        let mediated = mediated();
        match LsdBuilder::new(&mediated).build() {
            Err(LsdError::NoLearners) => {}
            Err(other) => panic!("expected NoLearners, got {other:?}"),
            Ok(_) => panic!("expected NoLearners, got a system"),
        }
    }

    #[test]
    fn matching_before_training_errors() {
        let lsd = build_system();
        assert!(matches!(
            lsd.match_source(&greathomes()),
            Err(LsdError::NotTrained {
                operation: "match_source"
            })
        ));
        assert!(matches!(
            lsd.match_batch(&[greathomes()], &ExecPolicy::default()),
            Err(LsdError::NotTrained {
                operation: "match_batch"
            })
        ));
        assert!(matches!(
            lsd.explain_source(&greathomes()),
            Err(LsdError::NotTrained {
                operation: "explain_source"
            })
        ));
    }

    #[test]
    fn training_on_nothing_errors() {
        let mut lsd = build_system();
        assert!(matches!(lsd.train(&[]), Err(LsdError::NoTrainingData)));
        assert!(!lsd.is_trained());
    }

    #[test]
    fn malformed_dtd_reports_invalid_schema() {
        let mut lsd = build_system();
        lsd.train(&[realestate(), homeseekers()]).unwrap();
        let mut bad = greathomes();
        // An element content model referring to an undeclared element makes
        // the schema unbuildable.
        bad.dtd = parse_dtd("<!ELEMENT home (ghost)>").unwrap();
        let err = lsd.match_source(&bad).unwrap_err();
        match err {
            LsdError::InvalidSchema { source, .. } => assert_eq!(source, "greathomes.com"),
            other => panic!("expected InvalidSchema, got {other:?}"),
        }
    }

    #[test]
    fn match_batch_agrees_with_serial_and_all_thread_counts() {
        let mut lsd = build_system();
        lsd.train(&[realestate(), homeseekers()]).unwrap();
        let sources = vec![
            greathomes(),
            greathomes(),
            greathomes(),
            greathomes(),
            greathomes(),
        ];
        let serial: Vec<MatchOutcome> = sources
            .iter()
            .map(|s| lsd.match_source(s).unwrap())
            .collect();
        for threads in [1, 2, 8] {
            let batch = lsd
                .match_batch(&sources, &ExecPolicy::with_threads(threads))
                .unwrap();
            assert_eq!(batch.len(), serial.len());
            for (b, s) in batch.iter().zip(&serial) {
                assert_eq!(b.tags, s.tags, "{threads} threads");
                assert_eq!(b.labels, s.labels, "{threads} threads");
                assert_eq!(b.result.assignment, s.result.assignment);
                assert_eq!(b.result.cost.to_bits(), s.result.cost.to_bits());
            }
        }
    }

    #[test]
    fn explain_source_reports_all_learners() {
        let mut lsd = build_system();
        lsd.train(&[realestate(), homeseekers()]).unwrap();
        let explanations = lsd.explain_source(&greathomes()).unwrap();
        assert_eq!(explanations.len(), 4); // home, area, extra-info, contact-phone
        let area = explanations
            .iter()
            .find(|e| e.tag == "area")
            .expect("area explained");
        assert_eq!(area.per_learner.len(), 3);
        assert!(area.instances_examined > 0);
        // The combined view matches what match_source produced.
        let outcome = lsd.match_source(&greathomes()).unwrap();
        let i = outcome
            .tags
            .iter()
            .position(|t| t == "area")
            .expect("area matched");
        assert_eq!(
            area.combined.best_label(),
            outcome.predictions[i].best_label()
        );
        // Learner names are reported in combination order.
        let names: Vec<&str> = area.per_learner.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["name-matcher", "content-matcher", "naive-bayes"]
        );
    }

    #[test]
    fn explain_includes_xml_learner_second_stage() {
        let mediated = mediated();
        let builder = LsdBuilder::new(&mediated);
        let n = builder.labels().len();
        let mut lsd = builder
            .add_learner(Box::new(NaiveBayesLearner::new(n)))
            .with_xml_learner(None)
            .build()
            .unwrap();
        lsd.train(&[realestate(), homeseekers()]).unwrap();
        let explanations = lsd.explain_source(&greathomes()).unwrap();
        let names: Vec<&str> = explanations[0]
            .per_learner
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["naive-bayes", "xml-learner"]);
    }

    #[test]
    fn subsample_caps_deterministically() {
        let listings: Vec<Element> = (0..10)
            .map(|i| lsd_xml::Element::text_leaf("t", i.to_string()))
            .collect();
        let walk = SourceWalk::new(&listings);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = walk.sample("t", 3, &mut rng);
        assert_eq!(a.len(), 3);
        let mut rng2 = ChaCha8Rng::seed_from_u64(1);
        let b = walk.sample("t", 3, &mut rng2);
        assert_eq!(a, b);
        // The ids pick the same instances a shuffle of the owned column
        // would, with the same draws.
        let mut owned: Vec<String> = (0..10).map(|i| i.to_string()).collect();
        owned.shuffle(&mut ChaCha8Rng::seed_from_u64(1));
        owned.truncate(3);
        let texts: Vec<&str> = a.iter().map(|&id| walk.text(id)).collect();
        assert_eq!(texts, owned);
        assert_eq!(walk.sample("t", 0, &mut rng).len(), 10);
        assert_eq!(walk.sample("t", 10, &mut rng).len(), 10);
        assert!(walk.sample("absent", 3, &mut rng).is_empty());
    }
}

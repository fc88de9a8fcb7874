//! The traced run's in-process replay: the workload's inputs go through
//! the same public functions the server calls, in the same order, each call
//! wrapped in a span the benchmark records. Spans stay in memory and are
//! written out when the replay ends.

use crate::reference::copy;
use crate::stats::median;
use crate::workload::{Kind, Plan};
use lsd_bench::{build_lsd, to_sources, Setup};
use lsd_core::{
    Correction, CsvReader, Feedback, FeedbackRecord, FeedbackWal, JsonReader, Lsd, LsdConfig,
    MatchReport, SourceReader, TrainedSource, XmlReader,
};
use lsd_datagen::{emit_bare_xml, emit_csv, emit_json};
use lsd_serve::{json, media};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Schedule periods replayed through decode, match and render.
const PERIODS: usize = 2;
/// Repetitions of each cheaper layer call; the median is reported.
const REPEATS: usize = 5;
/// Rounds of the collection-on/off comparison behind `obs.overhead_pct`.
const OVERHEAD_ROUNDS: usize = 4;

/// The learners every datagen domain trains, by their `learner.predict_ns`
/// label.
const LEARNERS: [&str; 3] = ["name-matcher", "content-matcher", "naive-bayes"];

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    duration_ns: u128,
}

/// Spans recorded by the benchmark around each layer call.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span that the spans recorded until [`Recorder::end`] nest in.
    fn begin(&mut self, name: &str) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos(),
            duration_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span; returns its duration in milliseconds.
    fn end(&mut self) -> f64 {
        let index = self.open.pop().expect("end() matches a begin()");
        let span = &mut self.spans[index];
        span.duration_ns = self.origin.elapsed().as_nanos() - span.start_ns;
        span.duration_ns as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in milliseconds.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.begin(name);
        let result = f();
        (result, self.end())
    }

    /// One JSON object per span: name, id, parent id, start and duration.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":{:?},\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"duration_ns\":{}}}",
                span.name, span.start_ns, span.duration_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Layer values by metric name, with their units.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, (f64, &'static str)>);

impl Layers {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn set_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.set(name, median(values).unwrap_or(0.0), unit);
    }
}

/// Total duration in milliseconds of the program's own spans named `name`
/// in one match report.
fn span_ms(report: &MatchReport, name: &str) -> f64 {
    report
        .metrics
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns as f64 / 1e6)
        .sum()
}

/// Where the in-process replay keeps what it needs.
pub struct Inputs<'a> {
    pub plan: &'a Plan,
    pub seed: u64,
    /// The snapshot the server loaded at boot.
    pub snapshot: &'a Path,
    pub scratch: &'a Path,
    /// Where the span log is written.
    pub spans_out: &'a Path,
}

/// Replays the workload in process and returns every per-layer metric
/// measured here; the caller adds the ones read from the server.
pub fn replay(inputs: &Inputs) -> Result<Layers, String> {
    let plan = inputs.plan;
    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    rec.begin("replay.persist");

    // Persist and audit: what registry open costs at boot.
    let (model, load_ms) = rec.time("persist.load", || Lsd::load_json(inputs.snapshot));
    let model = model.map_err(|e| format!("snapshot does not reload: {e}"))?;
    layers.set("persist.load_s", load_ms / 1e3, "s");
    let text = std::fs::read_to_string(inputs.snapshot).map_err(|e| e.to_string())?;
    let (_, audit_ms) = rec.time("audit.snapshot", || {
        lsd_analysis::audit_snapshot_with_summary(&text)
    });
    layers.set("audit.snapshot_s", audit_ms / 1e3, "s");
    let save_path = inputs.scratch.join("replay-save.json");
    let save: Vec<f64> = (0..REPEATS)
        .map(|_| rec.time("persist.save", || model.save_json(&save_path)).1)
        .collect();
    layers.set_median("persist.save_ms", &save, "ms");
    rec.end();

    rec.begin("replay.requests");
    replay_requests(plan, &model, &mut rec, &mut layers)?;
    rec.end();
    rec.begin("replay.obs_overhead");
    replay_overhead(plan, &model, &mut rec, &mut layers)?;
    rec.end();
    rec.begin("replay.readers");
    replay_readers(plan, &mut rec, &mut layers)?;
    rec.end();
    rec.begin("replay.training");
    replay_training(
        plan,
        inputs.seed,
        &model,
        inputs.scratch,
        &mut rec,
        &mut layers,
    )?;
    rec.end();

    std::fs::write(inputs.spans_out, rec.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", inputs.spans_out.display()))?;
    Ok(layers)
}

/// Decode, match and render over the schedule, as the server runs them.
fn replay_requests(
    plan: &Plan,
    model: &Lsd,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut decode = Vec::new();
    let mut render = Vec::new();
    let mut render_explain = Vec::new();
    let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut predict: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..PERIODS * plan.period() {
        let (index, kind) = plan.step(i);
        let request = plan.inputs[index].as_request(kind);
        rec.begin(kind.path());
        let (parsed, decode_ms) = rec.time("serve.decode", || media::parse_request(&request));
        let parsed = parsed.map_err(|e| format!("replay decode failed: {e}"))?;
        let (matched, _) = rec.time("lsd.match_source_with_report", || {
            model.match_source_with_report(&parsed.source)
        });
        let (outcome, report) = matched.map_err(|e| format!("replay match failed: {e}"))?;
        let (_, render_ms) = rec.time("serve.render", || match kind {
            Kind::Match => json::match_body(&plan.slug, &outcome),
            Kind::Explain => json::explain_body(&plan.slug, &outcome),
        });
        rec.end();
        if kind == Kind::Explain {
            render_explain.push(render_ms);
            continue;
        }
        decode.push(decode_ms);
        render.push(render_ms);
        for stage in [
            "match.source",
            "match.stage1",
            "match.stage2",
            "match.constraints",
            "match.provenance",
            "constraints.search",
        ] {
            stages
                .entry(stage)
                .or_default()
                .push(span_ms(&report, stage));
        }
        for (learner, ns) in report.predict_nanos() {
            predict
                .entry(learner.to_string())
                .or_default()
                .push(ns as f64 / 1e6);
        }
        let calls: u64 = report.predict_calls().iter().map(|(_, n)| n).sum();
        for (name, count) in [
            ("learner.predict_calls", calls),
            ("search.nodes_expanded", report.nodes_expanded()),
            ("search.evaluations", report.constraint_evaluations()),
        ] {
            counts.entry(name).or_default().push(count as f64);
        }
    }
    layers.set_median("serve.decode_ms", &decode, "ms");
    layers.set_median("serve.render_ms", &render, "ms");
    layers.set_median("serve.render_explain_ms", &render_explain, "ms");
    for (stage, values) in &stages {
        layers.set_median(&format!("{stage}_ms"), values, "ms");
    }
    for (name, values) in &counts {
        layers.set_median(name, values, "count");
    }
    for learner in LEARNERS {
        let values = predict
            .get(learner)
            .ok_or_else(|| format!("no predict time recorded for {learner}"))?;
        layers.set_median(&format!("learner.predict_ms.{learner}"), values, "ms");
    }
    Ok(())
}

/// `obs.overhead_pct`: match time with metric collection on against off,
/// alternating which goes first.
fn replay_overhead(
    plan: &Plan,
    model: &Lsd,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Result<(), String> {
    let sources = plan
        .inputs
        .iter()
        .map(|input| {
            media::parse_request(&input.as_request(Kind::Match))
                .map(|r| r.source)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (mut on, mut off) = (0.0, 0.0);
    for round in 0..OVERHEAD_ROUNDS {
        for source in &sources {
            for collect in [round % 2 == 0, round % 2 == 1] {
                if collect {
                    on += rec
                        .time("obs.collect_on", || model.match_source_with_report(source))
                        .1;
                } else {
                    off += rec.time("obs.collect_off", || model.match_source(source)).1;
                }
            }
        }
    }
    layers.set("obs.overhead_pct", (on / off - 1.0) * 100.0, "%");
    Ok(())
}

/// Each reader over the workload's sources serialized in its format, and
/// schema inference over their listings.
fn replay_readers(plan: &Plan, rec: &mut Recorder, layers: &mut Layers) -> Result<(), String> {
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for input in &plan.inputs {
        let source = &input.source;
        let csv = emit_csv(source)?;
        let readers: [(&str, Box<dyn SourceReader>); 3] = [
            (
                "readers.json_ms",
                Box::new(JsonReader::new(emit_json(source))),
            ),
            (
                "readers.xml_ms",
                Box::new(XmlReader::from_document(emit_bare_xml(source))),
            ),
            ("readers.csv_ms", Box::new(CsvReader::new(csv))),
        ];
        for (name, reader) in &readers {
            for _ in 0..REPEATS {
                let (read, ms) = rec.time(name, || reader.read());
                read.map_err(|e| format!("{name}: {e}"))?;
                times.entry(name).or_default().push(ms);
            }
        }
        for _ in 0..REPEATS {
            let (inferred, ms) = rec.time("infer.dtd", || Lsd::infer_dtd(&source.listings));
            inferred.map_err(|e| format!("inference failed: {e}"))?;
            times.entry("infer.dtd_ms").or_default().push(ms);
        }
    }
    for (name, values) in &times {
        layers.set_median(name, values, "ms");
    }
    Ok(())
}

/// Full training on the server's training sources, a warm retrain on one
/// corrected source, and a durable WAL append of its feedback record.
fn replay_training(
    plan: &Plan,
    seed: u64,
    model: &Lsd,
    scratch: &Path,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Result<(), String> {
    let domain = plan
        .workload
        .domain()
        .generate(crate::server::TRAIN_LISTINGS, seed);
    let training: Vec<TrainedSource> = domain.sources[..3]
        .iter()
        .map(|gs| TrainedSource {
            source: to_sources(gs),
            mapping: gs.mapping.clone(),
        })
        .collect();
    let mut full = Vec::new();
    for _ in 0..3 {
        let mut lsd = build_lsd(&domain, Setup::FULL, LsdConfig::default());
        let (trained, ms) = rec.time("train.full", || lsd.train(&training));
        trained.map_err(|e| format!("training failed: {e}"))?;
        full.push(ms / 1e3);
    }
    layers.set_median("train.full_s", &full, "s");

    let input = &plan.inputs[0].source;
    let corrections: Vec<Correction> = {
        let mut truth: Vec<_> = input.mapping.iter().collect();
        truth.sort();
        truth
            .into_iter()
            .take(3)
            .map(|(tag, label)| {
                Correction::tag_is(tag.as_str(), label.as_str()).with_provenance(
                    input.name.as_str(),
                    0,
                    "perfbench",
                )
            })
            .collect()
    };
    let record = FeedbackRecord::from_source(&to_sources(input), corrections);
    let source = record.to_source().map_err(|e| e.to_string())?;
    let outcome = model
        .match_source_with(
            &source,
            &Feedback::from_corrections(record.corrections.clone()),
        )
        .map_err(|e| format!("corrected match failed: {e}"))?;
    let corrected = [TrainedSource {
        source,
        mapping: outcome.mapping().clone(),
    }];
    let mut warm = Vec::new();
    for _ in 0..3 {
        let mut lsd = copy(model)?;
        let (trained, ms) = rec.time("train.incremental", || lsd.train_incremental(&corrected));
        trained.map_err(|e| format!("warm retrain failed: {e}"))?;
        warm.push(ms);
    }
    layers.set_median("train.incremental_ms", &warm, "ms");

    let (mut wal, _) =
        FeedbackWal::open(scratch.join("replay.wal")).map_err(|e| format!("WAL open: {e}"))?;
    let mut append = Vec::new();
    for _ in 0..REPEATS {
        let (appended, ms) = rec.time("wal.append", || wal.append(&record));
        appended.map_err(|e| format!("WAL append: {e}"))?;
        append.push(ms);
    }
    layers.set_median("wal.append_ms", &append, "ms");
    Ok(())
}

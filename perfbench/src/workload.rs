//! The two workloads: which model the server trains, which requests the
//! clients cycle through, and in what order.

use lsd_datagen::{emit_bare_xml, emit_csv, emit_json, DomainId, GeneratedSource};
use lsd_serve::http::Request;
use lsd_xml::write_element;
use serde::Value;
use std::collections::HashMap;

/// Every `EXPLAIN_EVERY`-th request of a client is `POST /v1/explain`.
const EXPLAIN_EVERY: usize = 4;

/// Concurrent closed-loop clients of every workload; never more than the
/// two cores the benchmark is sized for. With one busy request at a time, a
/// run's speed follows whichever core the worker lands on; two clients keep
/// both cores busy, which made `ingest-large` runs steadier.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two clients matching small native sources against Time Schedule.
    MatchSmall,
    /// Two clients matching large schemaless sources against Real Estate I.
    IngestLarge,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::MatchSmall, Workload::IngestLarge];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatchSmall => "match-small",
            Workload::IngestLarge => "ingest-large",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn domain(self) -> DomainId {
        match self {
            Workload::MatchSmall => DomainId::TimeSchedule,
            Workload::IngestLarge => DomainId::RealEstate1,
        }
    }

    /// Listings in each request's source.
    fn listings(self) -> usize {
        match self {
            Workload::MatchSmall => 20,
            Workload::IngestLarge => 200,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Match,
    Explain,
}

impl Kind {
    pub fn path(self) -> &'static str {
        match self {
            Kind::Match => "/v1/match",
            Kind::Explain => "/v1/explain",
        }
    }
}

/// One request body of the cycle and the datagen source it carries.
pub struct Input {
    pub source: GeneratedSource,
    /// Request headers besides `Host` and `Content-Length`.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Input {
    pub fn header_refs(&self) -> Vec<(&str, &str)> {
        self.headers
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }

    /// The request as the server's HTTP layer hands it to the decoder.
    pub fn as_request(&self, kind: Kind) -> Request {
        Request {
            method: "POST".to_string(),
            path: kind.path().to_string(),
            query: String::new(),
            headers: self
                .headers
                .iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v.clone()))
                .collect(),
            body: self.body.clone(),
        }
    }
}

/// Everything a run sends, generated from the seed alone.
pub struct Plan {
    pub workload: Workload,
    /// The model name the server registers (`lsd-serve --domain <slug>`).
    pub slug: String,
    pub inputs: Vec<Input>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let domain = workload.domain();
        let slug = lsd_bench::domain_slug(domain.name());
        let listings = workload.listings();
        // Sources 0-2 train the model; 3 and 4 are held out. A second draw
        // of one held-out source from the next seed makes the third input.
        let first = domain.generate(listings, seed);
        let second = domain.generate(listings, seed.wrapping_add(1));
        let third = match workload {
            Workload::MatchSmall => &second.sources[3],
            Workload::IngestLarge => &second.sources[4],
        };
        let sources = [
            first.sources[3].clone(),
            first.sources[4].clone(),
            third.clone(),
        ];
        let inputs = match workload {
            Workload::MatchSmall => sources
                .into_iter()
                .map(|source| {
                    let body = envelope_body(&slug, &source);
                    Input {
                        source,
                        headers: vec![("Content-Type".into(), "application/json".into())],
                        body,
                    }
                })
                .collect(),
            Workload::IngestLarge => sources
                .into_iter()
                .zip(["application/json", "application/xml", "text/csv"])
                .map(|(source, content_type)| {
                    let body = match content_type {
                        "application/json" => emit_json(&source),
                        "application/xml" => emit_bare_xml(&source),
                        _ => emit_csv(&source).expect("datagen sources flatten to CSV"),
                    };
                    Input {
                        headers: vec![
                            ("Content-Type".into(), content_type.into()),
                            ("X-Lsd-Model".into(), slug.clone()),
                            ("X-Lsd-Source".into(), source.name.clone()),
                        ],
                        body: body.into_bytes(),
                        source,
                    }
                })
                .collect(),
        };
        Plan {
            workload,
            slug,
            inputs,
        }
    }

    /// The `i`-th request of a client: which input, and match or explain.
    pub fn step(&self, i: usize) -> (usize, Kind) {
        let kind = if i % EXPLAIN_EVERY == EXPLAIN_EVERY - 1 {
            Kind::Explain
        } else {
            Kind::Match
        };
        (i % self.inputs.len(), kind)
    }

    /// Requests after which the schedule repeats.
    pub fn period(&self) -> usize {
        let n = self.inputs.len();
        (1..=n * EXPLAIN_EVERY)
            .find(|p| p % n == 0 && p % EXPLAIN_EVERY == 0)
            .unwrap_or(n * EXPLAIN_EVERY)
    }

    /// How often each input is matched in one period.
    pub fn match_weights(&self) -> Vec<usize> {
        let mut weights = vec![0; self.inputs.len()];
        for i in 0..self.period() {
            if let (input, Kind::Match) = self.step(i) {
                weights[input] += 1;
            }
        }
        weights
    }
}

/// The `"source"` object of the native envelope: DTD text plus one XML
/// document per listing.
fn source_value(source: &GeneratedSource) -> Value {
    let listings = source
        .listings
        .iter()
        .map(|e| Value::Str(write_element(e)))
        .collect();
    Value::Map(vec![
        ("name".to_string(), Value::Str(source.name.clone())),
        ("dtd".to_string(), Value::Str(source.dtd.to_dtd_syntax())),
        ("listings".to_string(), Value::Seq(listings)),
    ])
}

fn envelope_body(slug: &str, source: &GeneratedSource) -> Vec<u8> {
    let doc = Value::Map(vec![
        ("model".to_string(), Value::Str(slug.to_string())),
        ("source".to_string(), source_value(source)),
    ]);
    serde_json::to_string(&doc)
        .expect("a Value always serializes")
        .into_bytes()
}

/// `(tag, label)` pairs of a served `/v1/match` body.
pub fn served_labels(body: &[u8]) -> Result<HashMap<String, String>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Seq(labels)) = value.get("labels") else {
        return Err("match body has no \"labels\" array".to_string());
    };
    labels
        .iter()
        .map(|entry| match (entry.get("tag"), entry.get("label")) {
            (Some(Value::Str(tag)), Some(Value::Str(label))) => Ok((tag.clone(), label.clone())),
            _ => Err(format!("malformed label entry {entry:?}")),
        })
        .collect()
}

/// Ground-truth tags the served source still has, and how many of them
/// carry the datagen label. Tags a serialization drops (CSV flattens
/// nesting) are not counted.
pub fn score(truth: &HashMap<String, String>, served: &HashMap<String, String>) -> (usize, usize) {
    truth
        .iter()
        .filter_map(|(tag, label)| served.get(tag).map(|s| usize::from(s == label)))
        .fold((0, 0), |(correct, total), hit| (correct + hit, total + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::check_cycle;

    #[test]
    fn every_workload_cycles_an_odd_number_of_equally_weighted_inputs() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 7);
            if let Err(e) = check_cycle(&plan.match_weights()) {
                panic!("{}: {e}", workload.name());
            }
        }
    }

    #[test]
    fn explains_cover_every_input() {
        let plan = Plan::new(Workload::MatchSmall, 1);
        let mut explained = vec![0; plan.inputs.len()];
        for i in 0..plan.period() {
            if let (input, Kind::Explain) = plan.step(i) {
                explained[input] += 1;
            }
        }
        assert_eq!(explained, vec![1, 1, 1]);
        assert_eq!(plan.period(), 12);
    }

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let a = Plan::new(Workload::IngestLarge, 3);
        let b = Plan::new(Workload::IngestLarge, 3);
        let c = Plan::new(Workload::IngestLarge, 4);
        let bodies = |p: &Plan| p.inputs.iter().map(|i| i.body.clone()).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&c));
    }

    #[test]
    fn score_counts_only_tags_the_source_still_has() {
        let truth: HashMap<String, String> = [("a", "X"), ("b", "Y"), ("c", "Z")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let served: HashMap<String, String> = [("a", "X"), ("b", "OTHER"), ("d", "W")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(score(&truth, &served), (1, 2));
    }
}

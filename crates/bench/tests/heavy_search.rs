//! Pins the two heaviest constraint searches the benchmark workloads reach.
//!
//! CI's exact `bench-smoke` gate covers two small searches (55 expansions
//! in all). The searches pinned here are the ones that dominate a match:
//! a Time Schedule source whose A\* expands about twelve thousand nodes,
//! and a Real Estate II source that hits the 20 000-expansion cap and is
//! finished by greedy completion. Both use the model perfbench serves
//! (`train_full_model` at 15 listings, seed 1) and the held-out source
//! `generate(20, 1).sources[4]`. Expansions, evaluations, the other search
//! counters, the cost's bits and the mapping are deterministic, so any
//! change to how the search scores or orders nodes shows up here as an
//! exact mismatch.

use lsd_bench::{to_sources, train_full_model, ExperimentParams};
use lsd_datagen::DomainId;

struct Pinned {
    domain: DomainId,
    source: &'static str,
    expansions: u64,
    evaluations: u64,
    /// `(generated, pruned)` from the result's `SearchStats`.
    generated_pruned: (usize, usize),
    cost_bits: u64,
    labels: &'static [&'static str],
}

fn check(pin: &Pinned) {
    let params = ExperimentParams {
        listings: 15,
        seed: 1,
        ..ExperimentParams::default()
    };
    let (_, model) = train_full_model(pin.domain, &params);
    let generated = pin.domain.generate(20, 1);
    let source = &generated.sources[4];
    assert_eq!(source.name, pin.source);
    let (outcome, report) = model
        .match_source_with_report(&to_sources(source))
        .expect("datagen sources match");
    let result = &outcome.result;
    assert_eq!(
        (report.nodes_expanded(), report.constraint_evaluations()),
        (pin.expansions, pin.evaluations),
        "{}: (expansions, evaluations)",
        pin.source
    );
    assert_eq!(
        (result.stats.generated, result.stats.pruned),
        pin.generated_pruned,
        "{}: (generated, pruned)",
        pin.source
    );
    assert!(result.feasible, "{}", pin.source);
    assert_eq!(
        result.cost.to_bits(),
        pin.cost_bits,
        "{}: cost {}",
        pin.source,
        result.cost
    );
    let labels: Vec<&str> = outcome.labels.iter().map(String::as_str).collect();
    assert_eq!(labels, pin.labels, "{}: labels", pin.source);
}

#[test]
fn time_schedule_utexas_search_is_pinned() {
    check(&Pinned {
        domain: DomainId::TimeSchedule,
        source: "utexas.edu",
        expansions: 11_856,
        evaluations: 72_198,
        generated_pruned: (25_708, 46_490),
        cost_bits: 0x403c_3df0_2468_12d8,
        labels: &[
            "COURSE-OFFERING",
            "CODE",
            "TITLE",
            "CREDITS",
            "SECTION",
            "SECTION-ID",
            "OTHER",
            "ENROLLMENT",
            "OTHER",
            "MEETING",
            "DAYS",
            "TIME",
            "LOCATION",
            "BUILDING",
            "ROOM",
            "INSTRUCTOR",
            "INSTRUCTOR-NAME",
            "OTHER",
            "INSTRUCTOR-EMAIL",
        ],
    });
}

#[test]
fn real_estate_2_houseweb_search_hits_the_cap_and_is_pinned() {
    check(&Pinned {
        domain: DomainId::RealEstate2,
        source: "houseweb.com",
        expansions: 20_000,
        evaluations: 138_583,
        generated_pruned: (70_953, 67_629),
        cost_bits: 0x4056_37b2_4352_fb1e,
        labels: &[
            "LISTING",
            "COOLING",
            "BASIC",
            "SQFT",
            "BATHS",
            "BEDS",
            "OTHER",
            "YEAR-BUILT",
            "FLOORING",
            "OTHER",
            "FIREPLACE",
            "HEATING",
            "OTHER",
            "EXTERIOR",
            "ROOF",
            "LOT-ACRES",
            "OTHER",
            "ADDRESS",
            "STREET",
            "CITY",
            "STATE",
            "ZIP",
            "SCHOOL-DISTRICT",
            "FINANCIAL",
            "OTHER",
            "PRICE",
            "TAXES",
            "OTHER",
            "LISTING-INFO",
            "LISTING-ID",
            "MLS",
            "OTHER",
            "AGENT",
            "AGENT-NAME",
            "AGENT-PHONE",
            "AGENT-EMAIL",
            "OFFICE",
            "OFFICE-NAME",
            "OFFICE-PHONE",
            "REMARKS",
            "DESCRIPTION",
            "OPEN-HOUSE",
        ],
    });
}

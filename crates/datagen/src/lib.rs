//! # lsd-datagen
//!
//! Synthetic reproductions of the four evaluation domains of the LSD paper
//! (Table 3): **Real Estate I**, **Time Schedule**, **Faculty Listings**
//! and **Real Estate II**.
//!
//! The paper evaluated on five web sources per domain, scraped in 2000
//! (realestate.com, homeseekers.com, university time schedules, CS faculty
//! pages). Those sources no longer exist and no public dump survives, so —
//! per the substitution rule in DESIGN.md — this crate generates synthetic
//! domains that reproduce Table 3's *structural statistics* (tag counts,
//! non-leaf tags, DTD depth, listing counts, matchable percentages) and
//! embed the learnable signals the paper's learners exploit:
//!
//! - per-source tag-name vocabularies that overlap through synonyms and
//!   shared words (name matcher);
//! - label-indicative word frequencies in free-text fields (Naive Bayes,
//!   content matcher);
//! - formatted values — prices, phones, course codes — whose shape is the
//!   signal (content matcher, Naive Bayes);
//! - nested agent/office/contact structure that flat bags of words confuse
//!   but structure tokens separate (XML learner);
//! - integrity regularities — keys, frequencies, nestings — for the
//!   constraint handler;
//! - deliberate noise: ambiguous tag names, unmatchable OTHER tags, dirty
//!   values ("unknown", "n/a"), so the matching task stays non-trivial.
//!
//! Entry point: [`generate_domain`] (or [`DomainId::generate`]).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod domains;
pub mod emit;
mod engine;
mod spec;
mod values;
mod vocab;

pub use emit::{emit_bare_xml, emit_csv, emit_json, emit_sql, emit_xml, leaf_columns};
pub use engine::{GeneratedDomain, GeneratedSource};
pub use spec::{ConceptDef, ConceptId, DomainSpec, SourceStructure, TreeNode};
pub use values::ValueKind;

use lsd_xml::Dtd;

/// The four evaluation domains of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainId {
    /// Houses for sale; small mediated schema (Table 3 row 1).
    RealEstate1,
    /// University course offerings (Table 3 row 2).
    TimeSchedule,
    /// CS faculty profiles (Table 3 row 3).
    FacultyListings,
    /// Houses for sale; large mediated schema, deep structure (Table 3
    /// row 4).
    RealEstate2,
}

impl DomainId {
    /// All four domains, in the paper's order.
    pub const ALL: [DomainId; 4] = [
        DomainId::RealEstate1,
        DomainId::TimeSchedule,
        DomainId::FacultyListings,
        DomainId::RealEstate2,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            DomainId::RealEstate1 => "Real Estate I",
            DomainId::TimeSchedule => "Time Schedule",
            DomainId::FacultyListings => "Faculty Listings",
            DomainId::RealEstate2 => "Real Estate II",
        }
    }

    /// The domain specification (schemas, concepts, constraints, synonyms).
    pub fn spec(self) -> DomainSpec {
        match self {
            DomainId::RealEstate1 => domains::real_estate1::spec(),
            DomainId::TimeSchedule => domains::time_schedule::spec(),
            DomainId::FacultyListings => domains::faculty::spec(),
            DomainId::RealEstate2 => domains::real_estate2::spec(),
        }
    }

    /// Default listings per source, the midpoint of Table 3's download
    /// ranges (Real Estate 502–3002, Time Schedule 704–3925, Faculty
    /// 32–73). The paper's headline experiments use 300 listings, so that
    /// is the practical default for the experiment harness.
    pub fn default_listings(self) -> usize {
        match self {
            DomainId::RealEstate1 | DomainId::RealEstate2 => 300,
            DomainId::TimeSchedule => 300,
            DomainId::FacultyListings => 50,
        }
    }

    /// Generates the domain with `listings_per_source` listings for each of
    /// the five sources.
    pub fn generate(self, listings_per_source: usize, seed: u64) -> GeneratedDomain {
        generate_domain(self, listings_per_source, seed)
    }
}

/// Generates one domain: the mediated DTD, five sources with their DTDs,
/// listings and ground-truth mappings, the domain constraints and the
/// name-matcher synonym table.
pub fn generate_domain(id: DomainId, listings_per_source: usize, seed: u64) -> GeneratedDomain {
    engine::generate(&id.spec(), listings_per_source, seed)
}

/// Convenience: just the mediated DTD of a domain.
pub fn mediated_dtd(id: DomainId) -> Dtd {
    id.spec().mediated_dtd()
}

//! `lsd-explain` — decision provenance from the command line.
//!
//! ```text
//! lsd-explain                     explain the real-estate-1 held-out source
//! lsd-explain --domain NAME       pick a built-in datagen domain
//!                                 (real-estate-1, time-schedule,
//!                                 faculty-listings, real-estate-2; the
//!                                 paper's display names work too)
//! lsd-explain --json              machine-readable output (one JSON array
//!                                 of per-tag explanation records)
//! ```
//!
//! Trains the FULL configuration on the domain's first three sources, then
//! matches the held-out fourth source and prints, per source tag, the
//! complete "why": every candidate label with each base learner's score,
//! the combined converter score, the constraint verdict that rejected any higher-ranked candidate, and the
//! A\* search counters attributed to the (tag, label) pair. The candidate
//! order matches `MatchOutcome::candidates` exactly, and the output is
//! byte-identical across `LSD_THREADS` settings.
//!
//! Scale with `LSD_LISTINGS` / `LSD_SEED` like the other binaries.

use lsd_bench::{domain_slug, resolve_domain, to_sources, train_full_model, ExperimentParams};
use lsd_datagen::DomainId;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut domain_name = "real-estate-1".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--domain" => match args.next() {
                Some(name) => domain_name = name,
                None => {
                    eprintln!("error: --domain needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: lsd-explain [--json] [--domain NAME]");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(id) = resolve_domain(&domain_name) else {
        let names: Vec<String> = DomainId::ALL
            .iter()
            .map(|d| domain_slug(d.name()))
            .collect();
        eprintln!(
            "error: unknown domain `{domain_name}` (available: {})",
            names.join(", ")
        );
        return ExitCode::FAILURE;
    };

    let mut params = ExperimentParams::from_env();
    if std::env::var("LSD_LISTINGS").is_err() {
        params.listings = 30; // explanation needs evidence, not statistics
    }
    let (domain, lsd) = train_full_model(id, &params);

    let held_out = &domain.sources[3];
    let outcome = lsd
        .match_source(&to_sources(held_out))
        .expect("generated sources are well-formed");

    let explanations = outcome.explain_all();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&explanations).expect("explanations serialize")
        );
    } else {
        println!(
            "# {} — source `{}` ({} listings, seed {})\n",
            id.name(),
            held_out.name,
            params.listings,
            params.seed
        );
        for explanation in &explanations {
            print!("{}", explanation.render());
        }
    }
    ExitCode::SUCCESS
}

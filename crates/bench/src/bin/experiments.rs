//! Runs the paper's Section 6 evaluation — every table and figure — and
//! writes both a human-readable report to stdout and machine-readable
//! results to `experiment_results.json` in the current directory.
//!
//! This is the binary behind EXPERIMENTS.md. With no arguments it runs
//! every section in order; `--only <section>` runs one:
//!
//! | section    | paper artefact                                       |
//! |------------|------------------------------------------------------|
//! | `table3`   | Table 3 — domain and source characteristics          |
//! | `fig8a`    | Figure 8a — average matching accuracy, 4 configs     |
//! | `fig8bc`   | Figures 8b/8c — accuracy vs. listings per source     |
//! | `fig9a`    | Figure 9a — lesion studies                           |
//! | `fig9b`    | Figure 9b — schema info vs. data instances vs. both  |
//! | `feedback` | Section 6.3 — corrections needed for a perfect match |
//! | `metrics`  | per-split pipeline metrics: writes `metrics.json`, `trace.json` and `BENCH_match.json` |
//!
//! Each section but `metrics` stores its results in
//! `experiment_results.json` under its own name. A full run with the
//! paper's parameters (3 trials, 300 listings) takes tens of minutes; scale
//! down with `LSD_TRIALS=1 LSD_LISTINGS=80` for a smoke pass (see
//! [`ExperimentParams::from_env`] for every override).

use lsd_bench::{
    feedback_runs, run_matrix, Config, DomainAccuracy, ExperimentParams, FEEDBACK_DOMAINS,
    FIG8A_CONFIGS, FIG8A_SINGLES,
};
use lsd_datagen::DomainId;
use lsd_xml::SchemaTree;
use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;

/// One section of the evaluation: prints its report and returns what goes
/// into `experiment_results.json` under its name, if anything.
type Section = fn(&ExperimentParams) -> Option<Value>;

/// Every section, in the order a full run prints them.
const SECTIONS: [(&str, Section); 7] = [
    ("table3", table3),
    ("fig8a", fig8a),
    ("fig8bc", fig8bc),
    ("fig9a", fig9a),
    ("fig9b", fig9b),
    ("feedback", feedback),
    ("metrics", metrics),
];

/// The section `--only` names, or `None` to run them all.
fn parse_only(mut args: impl Iterator<Item = String>) -> Result<Option<&'static str>, String> {
    let mut only = None;
    while let Some(arg) = args.next() {
        if arg != "--only" {
            return Err(format!("unknown argument `{arg}`"));
        }
        if only.is_some() {
            return Err("--only given more than once".into());
        }
        let name = args.next().ok_or("--only needs a section")?;
        let section = SECTIONS
            .iter()
            .find(|(s, _)| *s == name)
            .ok_or_else(|| format!("unknown section `{name}`"))?;
        only = Some(section.0);
    }
    Ok(only)
}

fn main() -> ExitCode {
    let only = match parse_only(std::env::args().skip(1)) {
        Ok(only) => only,
        Err(e) => {
            let names: Vec<&str> = SECTIONS.iter().map(|(s, _)| *s).collect();
            eprintln!("error: {e}");
            eprintln!("usage: experiments [--only <{}>]", names.join("|"));
            return ExitCode::from(2);
        }
    };
    let params = ExperimentParams::from_env();
    let started = Instant::now();
    let mut report = serde_json::Map::new();
    report.insert(
        "params".into(),
        json!({
            "trials": params.trials,
            "listings": params.listings,
            "seed": params.seed,
        }),
    );

    println!("== LSD full experiment suite ==");
    println!(
        "trials={} listings={} seed={}",
        params.trials, params.listings, params.seed
    );
    for (name, run) in SECTIONS {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        println!();
        if let Some(results) = run(&params) {
            report.insert(name.into(), results);
        }
    }

    report.insert(
        "elapsed_seconds".into(),
        json!(started.elapsed().as_secs_f64()),
    );
    let path = "experiment_results.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write results file");
    println!(
        "\nWrote {path} ({:.0}s total)",
        started.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// Table 3: the mediated schema's tags, non-leaf tags and depth, and the
/// per-source ranges of listings, tags, non-leaf tags, depth and matchable
/// tags, in the layout of the paper's table.
///
/// Depth counts the *levels* of the DTD tree (root = 1), so flat sources
/// show depth 2 where the paper shows 1; the mediated-schema depths match
/// the paper exactly. Without `LSD_LISTINGS`, each domain is generated at
/// its own default size rather than the harness-wide 300.
fn table3(params: &ExperimentParams) -> Option<Value> {
    let listings = std::env::var_os("LSD_LISTINGS").map(|_| params.listings);
    println!("-- Table 3: domains and data sources --");
    println!(
        "{:<16} | {:>4} {:>8} {:>5} | {:>7} {:>11} {:>7} {:>8} {:>5} {:>10}",
        "Domain",
        "Tags",
        "Non-leaf",
        "Depth",
        "Sources",
        "Listings",
        "Tags",
        "Non-leaf",
        "Depth",
        "Matchable"
    );
    println!("{}", "-".repeat(106));
    let mut table = serde_json::Map::new();
    for id in DomainId::ALL {
        let domain = id.generate(
            listings.unwrap_or_else(|| id.default_listings()),
            params.seed,
        );
        let mediated = SchemaTree::from_dtd(&domain.mediated).expect("valid mediated DTD");

        let mut tag_range = (usize::MAX, 0);
        let mut nl_range = (usize::MAX, 0);
        let mut depth_range = (usize::MAX, 0);
        let mut listings_range = (usize::MAX, 0);
        let mut match_range = (f64::MAX, 0.0f64);
        for src in &domain.sources {
            let tree = SchemaTree::from_dtd(&src.dtd).expect("valid source DTD");
            let grow = |r: &mut (usize, usize), v: usize| {
                r.0 = r.0.min(v);
                r.1 = r.1.max(v);
            };
            grow(&mut tag_range, tree.len());
            grow(&mut nl_range, tree.non_leaf_tags().count());
            grow(&mut depth_range, tree.max_depth());
            grow(&mut listings_range, src.listings.len());
            let pct = src.matchable_percent();
            match_range.0 = match_range.0.min(pct);
            match_range.1 = match_range.1.max(pct);
        }
        let range = |r: (usize, usize)| {
            if r.0 == r.1 {
                format!("{}", r.0)
            } else {
                format!("{}-{}", r.0, r.1)
            }
        };
        let one_matchable = (match_range.1 - match_range.0).abs() < 1e-9;
        println!(
            "{:<16} | {:>4} {:>8} {:>5} | {:>7} {:>11} {:>7} {:>8} {:>5} {:>9.0}%",
            id.name(),
            mediated.len(),
            mediated.non_leaf_tags().count(),
            mediated.max_depth(),
            domain.sources.len(),
            range(listings_range),
            range(tag_range),
            range(nl_range),
            range(depth_range),
            // A range shows its low end here and the whole range below.
            if one_matchable {
                match_range.1
            } else {
                match_range.0
            },
        );
        if !one_matchable {
            println!(
                "{:>104}",
                format!("(matchable {:.0}-{:.0}%)", match_range.0, match_range.1)
            );
        }
        let pair = |r: (usize, usize)| json!([r.0, r.1]);
        table.insert(
            id.name().into(),
            json!({
                "mediated": json!({
                    "tags": mediated.len(),
                    "non_leaf": mediated.non_leaf_tags().count(),
                    "depth": mediated.max_depth(),
                }),
                "sources": domain.sources.len(),
                "listings": pair(listings_range),
                "tags": pair(tag_range),
                "non_leaf": pair(nl_range),
                "depth": pair(depth_range),
                "matchable_pct": [match_range.0, match_range.1],
            }),
        );
    }
    println!(
        "\nPaper reference (Table 3): mediated tags 20/23/14/66, non-leaf 4/6/4/13, depth 3/4/3/4."
    );
    Some(table.into())
}

/// Figure 8a: average accuracy of the best single base learner, then of
/// all learners combined ("meta", equal weights), with the constraint
/// handler and the XML learner added.
fn fig8a(params: &ExperimentParams) -> Option<Value> {
    println!("-- Figure 8a: average matching accuracy --");
    let (singles, configs) = (FIG8A_SINGLES, FIG8A_CONFIGS);
    let mut fig8a = serde_json::Map::new();
    for id in DomainId::ALL {
        let r = run_matrix(id, &configs, params);
        let (best_idx, best) = r[..3]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.mean.partial_cmp(&b.1.mean).expect("finite"))
            .expect("three single-learner configs");
        println!(
            "{:<16} best-base={:>5.1} ({}) meta={:>5.1} constraints={:>5.1} full={:>5.1}",
            id.name(),
            best.mean,
            singles[best_idx],
            r[3].mean,
            r[4].mean,
            r[5].mean
        );
        fig8a.insert(
            id.name().into(),
            json!({
                "best_base": best.mean,
                "best_base_learner": singles[best_idx],
                "singles": configs[..3]
                    .iter()
                    .zip(&r[..3])
                    .map(|(c, d)| json!({"config": c.label(), "mean": d.mean, "std": d.std_dev}))
                    .collect::<Vec<_>>(),
                "meta": acc_json(&r[3]),
                "meta_constraints": acc_json(&r[4]),
                "full": acc_json(&r[5]),
            }),
        );
    }
    println!("Paper: best base learner 42-72%, complete LSD 71-92%; each step adds accuracy.");
    Some(fig8a.into())
}

/// Figures 8b/8c: accuracy against listings per source, for Real Estate I
/// (8b) and Time Schedule (8c). The sizes are the paper's x-axis, whatever
/// `LSD_LISTINGS` says.
fn fig8bc(params: &ExperimentParams) -> Option<Value> {
    println!("-- Figures 8b/8c: accuracy vs listings per source --");
    let configs = [
        Config::Single("naive-bayes"),
        Config::Meta,
        Config::MetaConstraints,
        Config::Full,
    ];
    let mut sweeps = serde_json::Map::new();
    for (figure, id) in [
        ("fig8b", DomainId::RealEstate1),
        ("fig8c", DomainId::TimeSchedule),
    ] {
        let mut series = Vec::new();
        for listings in [5usize, 10, 20, 50, 100, 200, 300, 500] {
            let mut p = *params;
            p.listings = listings;
            let r = run_matrix(id, &configs, &p);
            println!(
                "{} {:>4} listings: base={:>5.1} meta={:>5.1} constraints={:>5.1} full={:>5.1}",
                figure, listings, r[0].mean, r[1].mean, r[2].mean, r[3].mean
            );
            series.push(json!({
                "listings": listings,
                "base": r[0].mean,
                "meta": r[1].mean,
                "constraints": r[2].mean,
                "full": r[3].mean,
            }));
        }
        sweeps.insert(figure.into(), series.into());
    }
    println!("Paper: steep climb up to ~20 listings, plateau beyond ~200.");
    Some(sweeps.into())
}

/// Figure 9a: the complete system against versions with one component
/// removed.
fn fig9a(params: &ExperimentParams) -> Option<Value> {
    println!("-- Figure 9a: lesion studies --");
    let configs = [
        Config::Lesion("name-matcher"),
        Config::Lesion("naive-bayes"),
        Config::Lesion("content-matcher"),
        Config::NoHandler,
        Config::Full,
    ];
    let mut fig9a = serde_json::Map::new();
    for id in DomainId::ALL {
        let r = run_matrix(id, &configs, params);
        println!(
            "{:<16} -name={:>5.1} -nb={:>5.1} -content={:>5.1} -handler={:>5.1} full={:>5.1}",
            id.name(),
            r[0].mean,
            r[1].mean,
            r[2].mean,
            r[3].mean,
            r[4].mean
        );
        fig9a.insert(
            id.name().into(),
            json!({
                "without_name_matcher": acc_json(&r[0]),
                "without_naive_bayes": acc_json(&r[1]),
                "without_content_matcher": acc_json(&r[2]),
                "without_constraint_handler": acc_json(&r[3]),
                "complete": acc_json(&r[4]),
            }),
        );
    }
    println!("Paper: every lesion at or below the complete system, none dominant.");
    Some(fig9a.into())
}

/// Figure 9b: learning from schema information only, from data instances
/// only, and from both.
fn fig9b(params: &ExperimentParams) -> Option<Value> {
    println!("-- Figure 9b: schema vs data information --");
    let configs = [Config::SchemaOnly, Config::DataOnly, Config::Full];
    let mut fig9b = serde_json::Map::new();
    for id in DomainId::ALL {
        let r = run_matrix(id, &configs, params);
        println!(
            "{:<16} schema-only={:>5.1} data-only={:>5.1} both={:>5.1}",
            id.name(),
            r[0].mean,
            r[1].mean,
            r[2].mean
        );
        fig9b.insert(
            id.name().into(),
            json!({
                "schema_only": acc_json(&r[0]),
                "data_only": acc_json(&r[1]),
                "both": acc_json(&r[2]),
            }),
        );
    }
    println!("Paper: 'both' beats each half on every domain.");
    Some(fig9b.into())
}

/// Section 6.3: how many corrections a simulated user makes before the
/// matching of a held-out source is perfect. Three runs per domain, each
/// training on three random sources and testing on a fourth.
fn feedback(params: &ExperimentParams) -> Option<Value> {
    println!("-- Section 6.3: user feedback --");
    let mut feedback = serde_json::Map::new();
    for id in FEEDBACK_DOMAINS {
        let runs = feedback_runs(id, params);
        for (i, run) in runs.iter().enumerate() {
            println!(
                "{:<16} run={} tags={} corrections={} converged={}",
                id.name(),
                i + 1,
                run.tags,
                run.corrections,
                run.converged
            );
        }
        let corrections: Vec<f64> = runs.iter().map(|r| r.corrections as f64).collect();
        let avg_c = corrections.iter().sum::<f64>() / runs.len() as f64;
        let avg_t = runs.iter().map(|r| r.tags as f64).sum::<f64>() / runs.len() as f64;
        println!(
            "{:<16} avg corrections={:.1} over avg {:.1} tags",
            id.name(),
            avg_c,
            avg_t
        );
        feedback.insert(
            id.name().into(),
            json!({
                "avg_corrections": avg_c,
                "avg_tags": avg_t,
                "runs": corrections,
                "converged": runs.iter().map(|r| r.converged).collect::<Vec<_>>(),
            }),
        );
    }
    println!(
        "Paper: 3.0 corrections over ~17 tags (Time Schedule), 6.3 over ~38.6 (Real Estate II)."
    );
    Some(feedback.into())
}

/// The observability export: one instrumented FULL-configuration pass per
/// domain, in which every C(5,3) split trains and batch-matches inside an
/// `lsd_obs` collection. The per-stage timings and A* counters land in
/// `metrics.json`, next to `experiment_results.json`.
fn metrics(params: &ExperimentParams) -> Option<Value> {
    println!("-- observability: per-split pipeline metrics --");
    let mut all_metrics = Vec::new();
    for id in DomainId::ALL {
        let records = lsd_bench::collect_split_metrics(id, params);
        let expanded: u64 = records
            .iter()
            .map(|r| r.match_report.nodes_expanded())
            .sum();
        let evals: u64 = records
            .iter()
            .map(|r| r.match_report.constraint_evaluations())
            .sum();
        println!(
            "{:<16} splits={} astar-expanded={} constraint-evals={}",
            id.name(),
            records.len(),
            expanded,
            evals
        );
        all_metrics.extend(records);
    }
    let metrics_path = "metrics.json";
    std::fs::write(
        metrics_path,
        serde_json::to_string_pretty(&all_metrics).expect("serializable"),
    )
    .expect("write metrics file");
    println!("Wrote {metrics_path} ({} split records)", all_metrics.len());

    // Exportable telemetry for the first split record: a Perfetto-loadable
    // Chrome trace and the schema-versioned perf record. (One
    // representative split keeps the artifacts small; the full per-split
    // snapshots are all in metrics.json above.)
    if let Some(record) = all_metrics.first() {
        std::fs::write("trace.json", record.match_report.chrome_trace()).expect("write trace.json");
        println!("Wrote trace.json");
        // No single wall-clock measurement spans exactly this batch match,
        // so use the cumulative per-source match wall time (an upper bound
        // on the batch wall: workers overlap).
        let wall_ns = record
            .match_report
            .metrics
            .histogram("span/match.source")
            .map_or(0, |h| h.sum);
        let bench = lsd_bench::bench_match_json(&record.match_report, params, wall_ns);
        lsd_bench::validate_bench_match(&bench).expect("BENCH_match.json must be schema-valid");
        std::fs::write("BENCH_match.json", bench).expect("write BENCH_match.json");
        println!("Wrote BENCH_match.json");
    }
    None
}

fn acc_json(d: &DomainAccuracy) -> Value {
    json!({"mean": d.mean, "std": d.std_dev, "samples": d.samples})
}

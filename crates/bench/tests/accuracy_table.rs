//! Pins the paper's accuracy figures, at a small size, to a committed table
//! (`benchmarks/ACCURACY.json`).
//!
//! At one trial and 20 listings per source (seed 0, what
//! `LSD_TRIALS=1 LSD_LISTINGS=20 experiments --only <section>` runs), the
//! table holds, through the same `lsd_bench` code as `experiments`:
//!
//! - Figure 8a per domain: the best single base learner, all learners
//!   combined with equal weights ("meta"), the constraint handler added,
//!   and the complete system (percent, three
//!   decimals), each with the number of its matches that found no feasible
//!   mapping and fell back to the per-tag argmax;
//! - Section 6.3 per domain: each feedback run's corrections and their
//!   average.
//!
//! The pipeline is deterministic, so the table is compared exactly. A
//! change that moves accuracy on purpose regenerates the file in the same
//! commit and says why, per domain:
//!
//! ```text
//! cargo test --release -p lsd-bench --test accuracy_table -- --ignored regenerate
//! ```
//!
//! The run trains about two hundred systems, so the check only runs in
//! release builds; debug builds skip it.

use lsd_bench::{
    domain_slug, feedback_runs, run_matrix, ExperimentParams, FEEDBACK_DOMAINS, FIG8A_CONFIGS,
    FIG8A_SINGLES,
};
use lsd_datagen::DomainId;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/ACCURACY.json")
}

/// Every entry of the table, keyed `section/domain/column`.
fn table() -> BTreeMap<String, String> {
    let params = ExperimentParams {
        trials: 1,
        listings: 20,
        ..ExperimentParams::default()
    };
    let mut table = BTreeMap::new();
    for id in DomainId::ALL {
        let slug = domain_slug(id.name());
        let r = run_matrix(id, &FIG8A_CONFIGS, &params);
        let best = (0..FIG8A_SINGLES.len())
            .max_by(|&a, &b| r[a].mean.partial_cmp(&r[b].mean).expect("finite"))
            .expect("three single-learner configs");
        let columns = [
            ("best-base", best),
            ("meta", 3),
            ("constraints", 4),
            ("full", 5),
        ];
        for (column, i) in columns {
            let key = format!("fig8a/{slug}/{column}");
            table.insert(key.clone(), format!("{:.3}", r[i].mean));
            table.insert(format!("{key}/infeasible"), r[i].infeasible.to_string());
        }
        table.insert(
            format!("fig8a/{slug}/best-base/learner"),
            FIG8A_SINGLES[best].to_string(),
        );
    }
    for id in FEEDBACK_DOMAINS {
        let slug = domain_slug(id.name());
        let runs = feedback_runs(id, &params);
        let corrections: Vec<String> = runs.iter().map(|r| r.corrections.to_string()).collect();
        let average = runs.iter().map(|r| r.corrections as f64).sum::<f64>() / runs.len() as f64;
        table.insert(
            format!("feedback/{slug}/corrections"),
            corrections.join(" "),
        );
        table.insert(format!("feedback/{slug}/average"), format!("{average:.3}"));
    }
    table
}

fn render(table: &BTreeMap<String, String>) -> String {
    let doc = serde_json::Value::Map(
        table
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::Str(v.clone())))
            .collect(),
    );
    serde_json::to_string_pretty(&doc).expect("serializes") + "\n"
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode sweep")]
fn accuracy_matches_the_committed_table() {
    let text = std::fs::read_to_string(table_path()).expect("benchmarks/ACCURACY.json");
    let committed: serde_json::Value = serde_json::from_str(&text).expect("parses");
    let serde_json::Value::Map(entries) = committed else {
        panic!("ACCURACY.json is not an object");
    };
    let committed: BTreeMap<String, String> = entries
        .into_iter()
        .map(|(k, v)| match v {
            serde_json::Value::Str(value) => (k, value),
            other => panic!("{k}: expected a string, found {other:?}"),
        })
        .collect();
    let fresh = table();
    let differing: Vec<String> = committed
        .keys()
        .chain(fresh.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter(|k| committed.get(*k) != fresh.get(*k))
        .map(|k| format!("{k}: {:?} -> {:?}", committed.get(k), fresh.get(k)))
        .collect();
    assert!(
        differing.is_empty(),
        "{} entries differ from benchmarks/ACCURACY.json:\n{}",
        differing.len(),
        differing.join("\n")
    );
}

#[test]
#[ignore = "writes benchmarks/ACCURACY.json"]
fn regenerate() {
    std::fs::write(table_path(), render(&table())).expect("writes the table");
}

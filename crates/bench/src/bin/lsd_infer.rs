//! `lsd-infer` — learn a deterministic DTD from raw DTD-less XML
//! instances and print it.
//!
//! ```text
//! lsd-infer DIR             infer one DTD from every *.xml file in DIR
//!                           (each file is one instance) and print it
//! lsd-infer                 datagen mode: for each built-in domain and
//!                           source, discard the generated DTD and infer a
//!                           schema from the bare listings
//! lsd-infer --bench-out P   also write the BENCH_infer.json perf record
//!                           (schema version 2) to path P
//! ```
//!
//! Every learned DTD is verified the way CI gates it: the Glushkov lint
//! must report zero errors and the model must accept 100% of the training
//! instances. Exit codes:
//!
//! * `0` — every corpus inferred, linted clean, and accepted its
//!   instances;
//! * `1` — a learned DTD produced a lint error or rejected a training
//!   instance (an inference defect, not an input problem);
//! * `2` — I/O or usage errors: unreadable input, unparseable instance,
//!   unknown flag.
//!
//! Environment: `LSD_LISTINGS` (default 12) sets listings per generated
//! source in datagen mode.

use lsd_bench::{bench_infer_json, validate_bench_infer, InferBenchCorpus};
use lsd_datagen::DomainId;
use lsd_infer::Inference;
use lsd_xml::Element;
use std::process::ExitCode;
use std::time::Instant;

/// Exit code for I/O and usage failures — inference did not run, as
/// opposed to running and producing a defective model (`1`).
const EXIT_USAGE: u8 = 2;

fn listings_per_source() -> usize {
    std::env::var("LSD_LISTINGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// Infers a schema for one corpus, prints it, and verifies it the way CI
/// gates inferred schemas. Returns the perf record, plus any defects.
fn run_corpus(
    name: &str,
    instances: &[Element],
    report: &mut Vec<InferBenchCorpus>,
) -> Vec<String> {
    let t0 = Instant::now();
    let Inference { dtd, stats } = match lsd_infer::infer_dtd(instances) {
        Ok(inference) => inference,
        Err(e) => return vec![format!("{name}: inference failed: {e}")],
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;

    println!("=== {name} ({} instances) ===", instances.len());
    println!("{}", dtd.to_dtd_syntax());

    let mut defects = Vec::new();
    // Lint gate: render, reparse (so diagnostics carry spans), analyze.
    let text = dtd.to_dtd_syntax();
    let diagnostics = match lsd_xml::parse_dtd(&text) {
        Ok(reparsed) => lsd_analysis::analyze_dtd(&reparsed),
        Err(e) => {
            defects.push(format!("{name}: learned DTD does not reparse: {e}"));
            lsd_analysis::analyze_dtd(&dtd)
        }
    };
    for d in diagnostics.iter().filter(|d| d.is_error()) {
        defects.push(format!("{name}: lint {}: {}", d.code.as_str(), d.message));
    }
    // Acceptance gate: the model must accept every training instance.
    for (i, instance) in instances.iter().enumerate() {
        if let Err(e) = dtd.validate(instance) {
            defects.push(format!("{name}: instance {i} rejected: {e}"));
        }
    }

    report.push(InferBenchCorpus {
        corpus: name.to_string(),
        listings: instances.len(),
        instances: stats.element_support.values().sum(),
        wall_ns,
        elements: stats.elements,
        generalizations: stats.generalizations,
        fallbacks: stats.fallbacks,
    });
    defects
}

/// Directory mode: every `*.xml` file is one instance, in filename order.
fn load_directory(dir: &str) -> Result<Vec<Element>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read directory {dir}: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.xml files in {dir}"));
    }
    let mut instances = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let instance = lsd_xml::parse_fragment(&text)
            .map_err(|e| format!("{} is not well-formed XML: {e}", path.display()))?;
        instances.push(instance);
    }
    Ok(instances)
}

fn main() -> ExitCode {
    let mut bench_out: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--bench-out" {
            match args.next() {
                Some(path) => bench_out = Some(path),
                None => {
                    eprintln!("error: --bench-out needs a path");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        } else if arg.starts_with('-') {
            eprintln!("error: unknown flag `{arg}`");
            eprintln!("usage: lsd-infer [--bench-out PATH] [DIR]");
            return ExitCode::from(EXIT_USAGE);
        } else if dir.is_some() {
            eprintln!("error: more than one directory given");
            return ExitCode::from(EXIT_USAGE);
        } else {
            dir = Some(arg);
        }
    }

    let listings = listings_per_source();
    let seed = 42u64;
    let mut report = Vec::new();
    let mut defects = Vec::new();

    if let Some(dir) = &dir {
        let instances = match load_directory(dir) {
            Ok(instances) => instances,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        defects.extend(run_corpus(dir, &instances, &mut report));
    } else {
        // Datagen mode: the generated DTD is *discarded* — inference sees
        // only the bare listing trees, exactly like a DTD-less upload.
        for domain in DomainId::ALL {
            let generated = domain.generate(listings, seed);
            let slug = lsd_bench::domain_slug(generated.name);
            for (s, source) in generated.sources.iter().enumerate() {
                let name = format!("{slug}/source-{s}");
                defects.extend(run_corpus(&name, &source.listings, &mut report));
            }
        }
    }

    if let Some(path) = &bench_out {
        let json = bench_infer_json(listings, seed, &report);
        if let Err(e) = validate_bench_infer(&json) {
            eprintln!("error: generated BENCH_infer.json is not schema-valid: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
        println!("wrote {path}");
    }

    let corpora = report.len();
    if defects.is_empty() {
        println!(
            "lsd-infer: {corpora} corpora inferred, all lint-clean, \
             all instances accepted"
        );
        ExitCode::SUCCESS
    } else {
        for defect in &defects {
            eprintln!("FAIL {defect}");
        }
        eprintln!(
            "lsd-infer: {} defects across {corpora} corpora",
            defects.len()
        );
        ExitCode::FAILURE
    }
}

//! `lsd` — command-line schema matcher.
//!
//! The deployment workflow of the paper, as a tool:
//!
//! ```text
//! # 1. Produce a demo workspace (or bring your own DTDs + data):
//! lsd generate --domain re1 --listings 100 --seed 7 --out demo/
//!
//! # 2. Train the paper's learners (Sections 3.3 and 5) on the user-mapped
//! #    sources, save the model:
//! lsd train --mediated demo/mediated.dtd \
//!           --source demo/homeseekers.com --source demo/texashomes.com \
//!           --source demo/greathomes.com \
//!           --constraints demo/constraints.json \
//!           --synonyms demo/synonyms.tsv \
//!           --model demo/model.json
//!
//! # 3. Match a new source (training can be done offline, Section 7):
//! lsd match --model demo/model.json --source demo/nwhomes.com
//!
//! # Optional: steer the result with feedback constraints:
//! lsd match --model demo/model.json --source demo/nwhomes.com \
//!           --assert "beds=BEDS" --deny "extras=DESCRIPTION"
//! ```
//!
//! File formats: a *source directory* holds `source.dtd`, `listings.xml`
//! (listings wrapped in a `<listings>` root) and, for training sources,
//! `mapping.tsv` (`tag<TAB>MEDIATED-TAG` lines). Synonyms are `a<TAB>b`
//! lines; constraints are the JSON serialization of
//! `Vec<DomainConstraint>`.

use lsd::constraints::DomainConstraint;
use lsd::core::learners::paper_suite;
use lsd::core::{Correction, Feedback, Lsd, LsdBuilder, Source, TrainedSource};
use lsd::datagen::DomainId;
use lsd::xml::{parse_document, parse_dtd, write_element_pretty, Dtd, Element};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Prints a line to stdout, exiting quietly if the consumer closed the
/// pipe (e.g. `lsd match … | head`).
macro_rules! out {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("match") => cmd_match(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    out!(
        "lsd — multi-strategy schema matching (SIGMOD 2001 reproduction)\n\n\
         USAGE:\n  lsd generate --domain <re1|re2|ts|faculty> [--listings N] [--seed S] --out DIR\n  \
         lsd train --mediated FILE.dtd --source DIR... [--constraints FILE.json]\n            \
         [--synonyms FILE.tsv] --model OUT.json\n  \
         lsd match --model MODEL.json --source DIR [--assert tag=LABEL]... [--deny tag=LABEL]...\n  \
         lsd explain --model MODEL.json --source DIR [--tag TAG]\n\n\
         A source DIR holds source.dtd + listings.xml (+ mapping.tsv for training)."
    );
}

/// Minimal flag parser: `--name value` pairs, repeatable flags collected.
struct Flags {
    values: HashMap<String, Vec<String>>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, found '{flag}'"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            values
                .entry(name.to_string())
                .or_default()
                .push(value.clone());
        }
        Ok(Flags { values })
    }

    fn one(&self, name: &str) -> Result<&str, String> {
        match self.values.get(name).map(Vec::as_slice) {
            Some([v]) => Ok(v),
            Some(_) => Err(format!("--{name} given more than once")),
            None => Err(format!("--{name} is required")),
        }
    }

    fn opt(&self, name: &str) -> Result<Option<&str>, String> {
        match self.values.get(name).map(Vec::as_slice) {
            Some([v]) => Ok(Some(v)),
            Some(_) => Err(format!("--{name} given more than once")),
            None => Ok(None),
        }
    }

    fn many(&self, name: &str) -> Vec<&str> {
        self.values
            .get(name)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }
}

// ---------------------------------------------------------------- generate

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let domain_id = match flags.one("domain")? {
        "re1" | "real-estate-1" => DomainId::RealEstate1,
        "re2" | "real-estate-2" => DomainId::RealEstate2,
        "ts" | "time-schedule" => DomainId::TimeSchedule,
        "faculty" => DomainId::FacultyListings,
        other => return Err(format!("unknown domain '{other}' (re1|re2|ts|faculty)")),
    };
    let listings: usize = flags
        .opt("listings")?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--listings: '{v}' is not a number"))
        })
        .transpose()?
        .unwrap_or_else(|| domain_id.default_listings());
    let seed: u64 = flags
        .opt("seed")?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--seed: '{v}' is not a number"))
        })
        .transpose()?
        .unwrap_or(0);
    let out = PathBuf::from(flags.one("out")?);

    let domain = domain_id.generate(listings, seed);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    write(&out.join("mediated.dtd"), &domain.mediated.to_dtd_syntax())?;
    let constraints = serde_json::to_string_pretty(&domain.constraints)
        .map_err(|e| format!("serializing constraints: {e}"))?;
    write(&out.join("constraints.json"), &constraints)?;
    let synonyms: String = domain
        .synonyms
        .iter()
        .map(|(a, b)| format!("{a}\t{b}\n"))
        .collect();
    write(&out.join("synonyms.tsv"), &synonyms)?;

    for source in &domain.sources {
        let dir = out.join(&source.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        write(&dir.join("source.dtd"), &source.dtd.to_dtd_syntax())?;
        let mut doc = String::from("<listings>\n");
        for listing in &source.listings {
            doc.push_str(&write_element_pretty(listing));
        }
        doc.push_str("</listings>\n");
        write(&dir.join("listings.xml"), &doc)?;
        let mut mapping: Vec<(&String, &String)> = source.mapping.iter().collect();
        mapping.sort();
        let tsv: String = mapping.iter().map(|(t, l)| format!("{t}\t{l}\n")).collect();
        write(&dir.join("mapping.tsv"), &tsv)?;
    }
    out!(
        "wrote domain '{}' ({} sources x {} listings) to {}",
        domain.name,
        domain.sources.len(),
        listings,
        out.display()
    );
    Ok(())
}

// ------------------------------------------------------------------- train

fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let mediated = read_dtd(Path::new(flags.one("mediated")?))?;
    let model_path = flags.one("model")?.to_string();
    let source_dirs = flags.many("source");
    if source_dirs.len() < 2 {
        return Err("at least two --source training directories are required".into());
    }

    let constraints: Vec<DomainConstraint> = match flags.opt("constraints")? {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => Vec::new(),
    };
    let synonyms: Vec<(String, String)> = match flags.opt("synonyms")? {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| {
                    let mut parts = l.splitn(2, '\t');
                    match (parts.next(), parts.next()) {
                        (Some(a), Some(b)) => Ok((a.to_string(), b.trim().to_string())),
                        _ => Err(format!("{path}: bad synonym line '{l}' (want a<TAB>b)")),
                    }
                })
                .collect::<Result<_, _>>()?
        }
        None => Vec::new(),
    };

    let training: Vec<TrainedSource> = source_dirs
        .iter()
        .map(|dir| read_training_source(Path::new(dir)))
        .collect::<Result<_, _>>()?;

    // The paper's system: its base learners and the XML learner.
    let builder = LsdBuilder::new(&mediated);
    let pairs = synonyms.iter().map(|(a, b)| (a.as_str(), b.as_str()));
    let mut lsd = paper_suite(builder.labels(), pairs)
        .into_iter()
        .fold(builder, LsdBuilder::add_learner)
        .with_xml_learner(None)
        .with_constraints(constraints)
        .build()
        .map_err(|e| e.to_string())?;
    lsd.train(&training).map_err(|e| e.to_string())?;
    lsd.save_json(&model_path)
        .map_err(|e| format!("{model_path}: {e}"))?;
    out!(
        "trained on {} sources ({} learners), saved model to {model_path}",
        training.len(),
        lsd.learner_names().len()
    );
    Ok(())
}

// ------------------------------------------------------------------- match

fn cmd_match(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let model_path = flags.one("model")?;
    let lsd = Lsd::load_json(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    let source = read_source(Path::new(flags.one("source")?))?;

    let mut feedback = Feedback::new();
    for (flag, positive) in [("assert", true), ("deny", false)] {
        for spec in flags.many(flag) {
            let (tag, label) = spec
                .split_once('=')
                .ok_or_else(|| format!("--{flag} wants tag=LABEL, got '{spec}'"))?;
            let correction = if positive {
                Correction::tag_is(tag, label)
            } else {
                Correction::tag_is_not(tag, label)
            };
            feedback.push(correction.with_provenance(source.name.as_str(), 0, "cli"));
        }
    }

    let outcome = lsd
        .match_source_with(&source, &feedback)
        .map_err(|e| e.to_string())?;
    out!(
        "match of {} ({} tags, search {}):",
        source.name,
        outcome.tags.len(),
        if outcome.result.stats.optimal {
            "optimal"
        } else {
            "heuristic"
        }
    );
    for (i, (tag, label)) in outcome.tags.iter().zip(&outcome.labels).enumerate() {
        let p = &outcome.predictions[i];
        out!(
            "  {tag:<24} => {label:<20} (score {:.2})",
            p.score(p.best_label())
        );
    }
    Ok(())
}

// ----------------------------------------------------------------- explain

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let model_path = flags.one("model")?;
    let lsd = Lsd::load_json(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    let source = read_source(Path::new(flags.one("source")?))?;
    let only_tag = flags.opt("tag")?;

    let explanations = lsd.explain_source(&source).map_err(|e| e.to_string())?;
    for e in &explanations {
        if only_tag.is_some_and(|t| t != e.tag) {
            continue;
        }
        out!("{} ({} instances examined):", e.tag, e.instances_examined);
        for (learner, prediction) in &e.per_learner {
            let best = prediction.best_label();
            out!(
                "  {learner:<18} => {:<20} (score {:.2})",
                lsd.labels().name(best),
                prediction.score(best)
            );
        }
        let best = e.combined.best_label();
        out!(
            "  {:<18} => {:<20} (score {:.2})",
            "combined",
            lsd.labels().name(best),
            e.combined.score(best)
        );
    }
    if let Some(tag) = only_tag {
        if !explanations.iter().any(|e| e.tag == tag) {
            return Err(format!("tag '{tag}' not found in the source schema"));
        }
    }
    Ok(())
}

// ------------------------------------------------------------------- io

fn write(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_dtd(path: &Path) -> Result<Dtd, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_dtd(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads `source.dtd` + `listings.xml` from a source directory.
fn read_source(dir: &Path) -> Result<Source, String> {
    let dtd = read_dtd(&dir.join("source.dtd"))?;
    let listings_path = dir.join("listings.xml");
    let text = std::fs::read_to_string(&listings_path)
        .map_err(|e| format!("{}: {e}", listings_path.display()))?;
    let doc = parse_document(&text).map_err(|e| format!("{}: {e}", listings_path.display()))?;
    let listings: Vec<Element> = doc.root.child_elements().cloned().collect();
    if listings.is_empty() {
        return Err(format!(
            "{}: no listings under the root element",
            listings_path.display()
        ));
    }
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| dir.display().to_string());
    Ok(Source::from_xml(name, dtd, listings))
}

/// Reads a training source: [`read_source`] plus `mapping.tsv`.
fn read_training_source(dir: &Path) -> Result<TrainedSource, String> {
    let source = read_source(dir)?;
    let mapping_path = dir.join("mapping.tsv");
    let text = std::fs::read_to_string(&mapping_path)
        .map_err(|e| format!("{}: {e}", mapping_path.display()))?;
    let mut mapping = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (tag, label) = line
            .split_once('\t')
            .ok_or_else(|| format!("{}: bad line '{line}'", mapping_path.display()))?;
        mapping.insert(tag.to_string(), label.trim().to_string());
    }
    Ok(TrainedSource { source, mapping })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_single_and_repeated_flags() {
        let f = flags(&["--model", "m.json", "--source", "a", "--source", "b"]).expect("parses");
        assert_eq!(f.one("model").expect("present"), "m.json");
        assert_eq!(f.many("source"), vec!["a", "b"]);
        assert_eq!(f.opt("absent").expect("ok"), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(flags(&["--model"]).is_err());
    }

    #[test]
    fn positional_arguments_are_rejected() {
        assert!(flags(&["model.json"]).is_err());
    }

    #[test]
    fn duplicate_single_flag_is_an_error() {
        let f = flags(&["--model", "a", "--model", "b"]).expect("parses");
        assert!(f.one("model").is_err());
        assert!(f.opt("model").is_err());
    }

    #[test]
    fn required_flag_missing() {
        let f = flags(&[]).expect("parses");
        assert!(f.one("model").is_err());
    }
}

//! `perfbench` — end-to-end and per-layer benchmark of `lsd-serve`.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots the `lsd-serve` binary at PATH the way a user does, drives one
//! workload's closed-loop HTTP traffic at it and checks every response
//! against an in-process match of the same snapshot. With `--trace 0` the
//! last stdout line reports the end-to-end metrics; with `--trace 1` it
//! reports the per-layer metrics of an in-process replay of the same inputs
//! plus the queue figures the server exports. See `README.md` for the
//! workloads, metrics and how steady they are.

mod calib;
mod client;
mod reference;
mod server;
mod stats;
mod timed;
mod traced;
mod workload;

use lsd_bench::ExperimentParams;
use reference::Reference;
use serde::Value;
use server::Server;
use stats::{median, percentile, TAIL_PERCENTILE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{score, served_labels, Kind, Plan, Workload};

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The run's result line.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Map(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.problems.is_empty())),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&doc).expect("a Value always serializes")
    }
}

/// A per-run directory inside the checkout, removed when the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(args.workload, args.seed);
    stats::check_cycle(&plan.match_weights())?;
    let run_dir = RunDir(PathBuf::from(format!(
        ".bench_run/{}-s{}-p{}",
        plan.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&run_dir.0)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.0.display()))?;

    // The reference model is trained in process by the same call the server
    // makes; its snapshot must equal the server's byte for byte, so matching
    // on it is matching on the snapshot the server reloaded.
    let params = ExperimentParams {
        listings: server::TRAIN_LISTINGS,
        seed: args.seed,
        ..ExperimentParams::default()
    };
    let (_, model) = lsd_bench::train_full_model(args.workload.domain(), &params);
    let reference_snapshot = run_dir.0.join("reference.json");
    model
        .save_json(&reference_snapshot)
        .map_err(|e| format!("cannot save the reference snapshot: {e}"))?;

    let server = Server::boot(&args.server, &plan.slug, args.seed, &run_dir.0)?;
    let mut problems = Vec::new();
    if std::fs::read(server.snapshot_path(&plan.slug)).ok()
        != std::fs::read(&reference_snapshot).ok()
    {
        problems.push("the server's snapshot differs from the reference model's".to_string());
    }
    let reference = Reference::new(&model, &plan)?;

    // Accuracy of the model as first served, over the cycle's sources.
    let (mut correct, mut counted) = (0, 0);
    for (i, input) in plan.inputs.iter().enumerate() {
        let served = served_labels(reference.body(i, Kind::Match).as_bytes())?;
        let (c, n) = score(&input.source.mapping, &served);
        correct += c;
        counted += n;
    }

    let samples = timed::closed_loop(&plan, server.addr, &reference, args.seconds);
    let metrics_text = if args.trace {
        let response = client::Conn::new(server.addr).send("GET", "/metrics", &[], b"")?;
        String::from_utf8_lossy(&response.body).into_owned()
    } else {
        String::new()
    };
    let peak_rss_mb = server.peak_rss_mb()?;
    let setup_s = server.setup_s;
    drop(server);
    problems.extend(samples.problems.iter().cloned());

    let match_ms = samples.match_ms(None);
    let matched = match_ms.len();
    if !stats::supports(matched, TAIL_PERCENTILE) {
        problems.push(format!(
            "{matched} matches do not support p{TAIL_PERCENTILE} (need {})",
            stats::min_samples_for_tail()
        ));
    }
    let match_p50 = median(&match_ms).unwrap_or(0.0);
    eprintln!(
        "perfbench: {} seed {}: {matched} matches, {} explains in {:.1} s (p{} supported: {:?}), setup {setup_s:.2} s",
        plan.workload.name(),
        args.seed,
        samples.explain_ms.len(),
        samples.window_s,
        TAIL_PERCENTILE,
        stats::highest_supported(matched),
    );
    for (i, input) in plan.inputs.iter().enumerate() {
        let ms = samples.match_ms(Some(i));
        eprintln!(
            "perfbench:   {} ({} bytes): match p10 {:.1} / p50 {:.1} / p90 {:.1} ms over {}",
            input.source.name,
            input.body.len(),
            percentile(&ms, 10.0).unwrap_or(0.0),
            percentile(&ms, 50.0).unwrap_or(0.0),
            percentile(&ms, 90.0).unwrap_or(0.0),
            ms.len()
        );
    }

    let metrics = if args.trace {
        let spans_out = PathBuf::from(format!(
            ".bench_out/{}-seed{}.spans.jsonl",
            plan.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
        let layers = traced::replay(&traced::Inputs {
            plan: &plan,
            seed: args.seed,
            snapshot: &reference_snapshot,
            scratch: &run_dir.0,
            spans_out: &spans_out,
        })?;
        let queue_wait = server::histogram_mean(&metrics_text, "serve_queue_wait_ns")
            .ok_or("/metrics has no serve_queue_wait_ns histogram")?;
        let batch = server::histogram_mean(&metrics_text, "serve_batch_size")
            .ok_or("/metrics has no serve_batch_size histogram")?;
        let in_process: f64 = ["serve.decode_ms", "match.source_ms", "serve.render_ms"]
            .iter()
            .map(|name| layers.0.get(*name).map_or(0.0, |(v, _)| *v))
            .sum();
        let mut metrics: Vec<(String, f64, &'static str)> = layers
            .0
            .into_iter()
            .map(|(name, (value, unit))| (name, value, unit))
            .collect();
        metrics.push(("serve.queue_wait_ms".into(), queue_wait / 1e6, "ms"));
        metrics.push(("serve.batch_mean".into(), batch, "jobs"));
        metrics.push(("serve.residual_ms".into(), match_p50 - in_process, "ms"));
        metrics
    } else {
        vec![
            ("match_p50_ms".into(), match_p50, "ms"),
            (
                "match_p90_ms".into(),
                percentile(&match_ms, TAIL_PERCENTILE).unwrap_or(0.0),
                "ms",
            ),
            ("match_rps".into(), matched as f64 / samples.window_s, "1/s"),
            (
                "explain_p50_ms".into(),
                median(&samples.explain_ms).unwrap_or(0.0),
                "ms",
            ),
            (
                "accuracy_pct".into(),
                100.0 * correct as f64 / counted.max(1) as f64,
                "%",
            ),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
        ]
    };
    Ok(Outcome {
        problems,
        attempted: samples.tally.attempted,
        failed: samples.tally.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.server).is_file() {
        eprintln!("perfbench: no server binary at {}", args.server.display());
        return ExitCode::from(2);
    }
    let calib_start = calib::calib_ms();
    let result = run(&args);
    let calib_end = calib::calib_ms();
    match result {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            // The drift probe is printed beside the metrics, never as one.
            println!("env.calib_ms start={calib_start:.3} end={calib_end:.3}");
            println!("{}", outcome.to_json());
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! The timed part of a run: closed-loop clients against the server, with
//! every response checked against the reference.

use crate::client::Conn;
use crate::reference::Reference;
use crate::stats::{self, Tally};
use crate::workload::{Kind, Plan, CLIENTS};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The window closes after this long even without enough matches, so a
/// failing server cannot hold a run open.
const MAX_WINDOW: Duration = Duration::from_secs(100);

/// Whether a window opened at `opened` stays open: for `seconds`, and until
/// `matches` reach the tail-percentile sample size.
fn window_open(opened: Instant, seconds: f64, matches: usize) -> bool {
    let elapsed = opened.elapsed();
    elapsed < MAX_WINDOW
        && (elapsed.as_secs_f64() < seconds || matches < stats::min_samples_for_tail())
}

/// What the clients observed in the measured window.
#[derive(Default)]
pub struct Samples {
    /// Each timed match: which input, and its latency.
    matches: Vec<(usize, f64)>,
    pub explain_ms: Vec<f64>,
    /// Wall time of the measured window.
    pub window_s: f64,
    /// Every operation sent, warm-up included.
    pub tally: Tally,
    /// Failed correctness checks, described.
    pub problems: Vec<String>,
}

impl Samples {
    /// Match latencies of `input`, or of every input when `None`.
    pub fn match_ms(&self, input: Option<usize>) -> Vec<f64> {
        self.matches
            .iter()
            .filter(|(i, _)| input.is_none_or(|want| *i == want))
            .map(|(_, ms)| *ms)
            .collect()
    }

    fn merge(&mut self, other: Samples) {
        self.matches.extend(other.matches);
        self.explain_ms.extend(other.explain_ms);
        self.tally.merge(other.tally);
        self.problems.extend(other.problems);
    }

    /// Sends the `i`-th request of the schedule and checks the response;
    /// its latency is kept when `measured`.
    fn step(
        &mut self,
        conn: &mut Conn,
        plan: &Plan,
        reference: &Reference,
        i: usize,
        measured: bool,
    ) -> bool {
        let (index, kind) = plan.step(i);
        let input = &plan.inputs[index];
        match conn.send("POST", kind.path(), &input.header_refs(), &input.body) {
            Ok(response) => {
                let ok = response.status == 200;
                self.tally.record(ok);
                if !ok {
                    self.note(format!(
                        "{} {} answered {}: {}",
                        kind.path(),
                        input.source.name,
                        response.status,
                        String::from_utf8_lossy(&response.body)
                    ));
                } else if response.body != reference.body(index, kind).as_bytes() {
                    self.problems.push(format!(
                        "{} {}: body differs from the direct match",
                        kind.path(),
                        input.source.name
                    ));
                } else if measured {
                    let ms = response.elapsed.as_secs_f64() * 1e3;
                    match kind {
                        Kind::Match => self.matches.push((index, ms)),
                        Kind::Explain => self.explain_ms.push(ms),
                    }
                    return kind == Kind::Match;
                }
            }
            Err(e) => {
                self.tally.record(false);
                self.note(format!("{} {}: {e}", kind.path(), input.source.name));
            }
        }
        false
    }

    /// Failed operations are counted in the tally; the first few are also
    /// printed so a failing run says why.
    fn note(&self, message: String) {
        if self.tally.failed <= 3 {
            eprintln!("perfbench: failed operation: {message}");
        }
    }
}

/// Requests each client sends before the window opens: every input once,
/// plus one explain.
fn warmup_steps(plan: &Plan) -> usize {
    plan.inputs.len() + 1
}

/// Where client `client` starts in the schedule: `client` inputs along the
/// cycle, so concurrent clients begin on different inputs.
fn start_step(client: usize) -> usize {
    client
}

/// [`CLIENTS`] closed loops, each sending its next request when the previous
/// one completes. The window stays open for `seconds` and until enough
/// matches have completed for the tail percentile.
pub fn closed_loop(plan: &Plan, addr: SocketAddr, reference: &Reference, seconds: f64) -> Samples {
    let matches = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS + 1);
    let mut samples = Samples::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (matches, barrier) = (&matches, &barrier);
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut out = Samples::default();
                    let mut i = start_step(client);
                    for _ in 0..warmup_steps(plan) {
                        out.step(&mut conn, plan, reference, i, false);
                        i += 1;
                    }
                    barrier.wait();
                    let opened = Instant::now();
                    while window_open(opened, seconds, matches.load(Ordering::Relaxed)) {
                        if out.step(&mut conn, plan, reference, i, true) {
                            matches.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let opened = Instant::now();
        for handle in handles {
            match handle.join() {
                Ok(out) => samples.merge(out),
                Err(_) => samples
                    .problems
                    .push("a client thread panicked".to_string()),
            }
        }
        samples.window_s = opened.elapsed().as_secs_f64();
    });
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use lsd_bench::{train_full_model, ExperimentParams};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// A server that answers every request with `status` and counts them.
    fn answering(status: u16) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            let mut served = 0;
            loop {
                let mut length = 0;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return served;
                    }
                    if line.trim().is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().expect("length");
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).expect("body");
                served += 1;
                let reply = format!("HTTP/1.1 {status} X\r\nContent-Length: 2\r\n\r\n{{}}");
                reader.get_mut().write_all(reply.as_bytes()).expect("reply");
            }
        });
        (addr, handle)
    }

    fn reference(plan: &Plan) -> Reference {
        let params = ExperimentParams {
            listings: 5,
            seed: 1,
            ..ExperimentParams::default()
        };
        let (_, model) = train_full_model(plan.workload.domain(), &params);
        Reference::new(&model, plan).expect("reference")
    }

    #[test]
    fn concurrent_clients_never_send_the_same_input_in_step() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 1);
            for k in 0..plan.period() {
                let inputs: Vec<usize> = (0..CLIENTS)
                    .map(|client| plan.step(start_step(client) + k).0)
                    .collect();
                let mut distinct = inputs.clone();
                distinct.dedup();
                assert_eq!(distinct, inputs, "{} step {k}", workload.name());
            }
        }
    }

    #[test]
    fn error_statuses_and_transport_errors_fail_once_and_are_not_retried() {
        let plan = Plan::new(Workload::MatchSmall, 1);
        let reference = reference(&plan);
        let (addr, server) = answering(503);
        let mut samples = Samples::default();
        let mut conn = Conn::new(addr);
        for i in 0..3 {
            assert!(!samples.step(&mut conn, &plan, &reference, i, true));
        }
        drop(conn);
        assert_eq!(server.join().expect("server"), 3);

        // Nothing listens on the port any more: a transport error.
        let mut conn = Conn::new(addr);
        assert!(!samples.step(&mut conn, &plan, &reference, 3, true));
        assert_eq!(
            samples.tally,
            Tally {
                attempted: 4,
                failed: 4
            }
        );
        assert!(samples.matches.is_empty() && samples.explain_ms.is_empty());
    }
}

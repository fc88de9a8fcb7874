//! Boots `lsd-serve` as a user does and owns the process until it is
//! stopped.

use crate::client::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Listings per training source: the size of the committed `BENCH_*`
/// baselines.
pub const TRAIN_LISTINGS: usize = 15;

/// Longest wait for the server to train, load and start listening.
const BOOT_TIMEOUT: Duration = Duration::from_secs(150);

/// A running `lsd-serve` process. Dropping it kills the process and waits
/// for it to exit.
pub struct Server {
    child: Child,
    stdout_reader: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn to the first `200` from `/healthz`: training, snapshot, registry
    /// open (load plus audit) and bind.
    pub setup_s: f64,
    models_dir: PathBuf,
}

impl Server {
    /// Starts `bin` serving `domain` trained at `seed`, with every serving
    /// option at its default, and waits until `/healthz` answers.
    pub fn boot(bin: &Path, domain: &str, seed: u64, run_dir: &Path) -> Result<Server, String> {
        let models_dir = run_dir.join("models");
        let log = std::fs::File::create(run_dir.join("server.log"))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--domain")
            .arg(domain)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--models-dir")
            .arg(&models_dir)
            .env("LSD_LISTINGS", TRAIN_LISTINGS.to_string())
            .env("LSD_SEED", seed.to_string())
            .env_remove("LSD_SLOW_MS")
            .env_remove("LSD_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;

        // The server prints `listening on ADDR` once the registry is open.
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    tx.send(addr.trim().to_string()).ok();
                }
            }
        });
        let mut server = Server {
            child,
            stdout_reader: Some(stdout_reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
            models_dir,
        };
        let log_tail = || {
            let log = std::fs::read_to_string(run_dir.join("server.log")).unwrap_or_default();
            let lines: Vec<&str> = log.lines().collect();
            lines[lines.len().saturating_sub(5)..].join("\n")
        };
        let addr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| format!("lsd-serve did not start listening:\n{}", log_tail()))?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
        let mut conn = Conn::new(server.addr);
        loop {
            match conn.send("GET", "/healthz", &[], b"") {
                Ok(r) if r.status == 200 => break,
                _ if started.elapsed() > BOOT_TIMEOUT => {
                    return Err(format!("lsd-serve never became healthy:\n{}", log_tail()))
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The snapshot the server trained and loaded.
    pub fn snapshot_path(&self, slug: &str) -> PathBuf {
        self.models_dir.join(format!("{slug}.json"))
    }

    /// The process's peak resident set, in MiB (Linux `VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(reader) = self.stdout_reader.take() {
            reader.join().ok();
        }
    }
}

/// Reads `<name>_sum` / `<name>_count` of a Prometheus histogram and
/// returns their ratio, the mean observation.
pub fn histogram_mean(metrics: &str, name: &str) -> Option<f64> {
    let sample = |suffix: &str| {
        let series = format!("{name}_{suffix}");
        metrics.lines().find_map(|line| {
            let rest = line.strip_prefix(series.as_str())?;
            let rest = rest.strip_prefix("{label=\"\"}").unwrap_or(rest);
            rest.trim().parse::<f64>().ok()
        })
    };
    let (sum, count) = (sample("sum")?, sample("count")?);
    (count > 0.0).then(|| sum / count)
}

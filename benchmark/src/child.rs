//! The program under test as child processes: building the release
//! `ferret` binary, `ferret import`, and `ferret serve`.
//!
//! Only shipped defaults are measured: the harness passes `--db --watch
//! --dim --bits --tcp --http` and, for one workload, `--scan-interval`. It
//! never names a strategy, layout, thread count or cache size.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::corpus::Request;
use crate::proto::{Client, REPLY_TIMEOUT};

/// Sketch width passed as `--bits` (the binary's own default, pinned so
/// the traced in-process run can mirror it).
pub const SKETCH_BITS: usize = 128;

/// Cargo's target directory: `CARGO_TARGET_DIR` when set, else `target`.
/// Everything the benchmark writes goes below `<target>/benchmark`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `ferret` binary of the checkout in the current
/// directory and returns its path. A no-op when it is up to date.
pub fn build_ferret() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--bin", "ferret"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release --bin ferret` failed: {status}"
        ));
    }
    let binary = target_dir().join("release").join("ferret");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()));
    }
    Ok(binary)
}

/// Where one run keeps its inputs and the program's state.
pub struct WorkDir {
    pub root: PathBuf,
}

impl WorkDir {
    /// A fresh, empty directory for `workload`. The path does not vary
    /// between runs: it ends up in the stored `dir` attributes, and
    /// `store.bytes_per_object` must repeat exactly.
    pub fn create(workload: &str) -> io::Result<Self> {
        let root = target_dir().join("benchmark").join("work").join(workload);
        if root.exists() {
            fs::remove_dir_all(&root)?;
        }
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    pub fn watch(&self) -> PathBuf {
        self.root.join("watch")
    }

    pub fn staging(&self) -> PathBuf {
        self.root.join("staging")
    }

    pub fn db(&self) -> PathBuf {
        self.root.join("db")
    }

    /// The last lines the program wrote to standard error, for error
    /// messages: the work directory is gone once the run has failed.
    fn stderr_tail(&self) -> String {
        let log = fs::read_to_string(self.root.join("ferret.err")).unwrap_or_default();
        let lines: Vec<&str> = log.lines().collect();
        lines[lines.len().saturating_sub(10)..].join("\n")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

pub struct Ferret {
    pub binary: PathBuf,
    pub dim: usize,
}

impl Ferret {
    fn command(&self, subcommand: &str, work: &WorkDir) -> io::Result<Command> {
        let log = |name: &str| {
            File::options()
                .create(true)
                .append(true)
                .open(work.root.join(name))
        };
        let mut cmd = Command::new(&self.binary);
        cmd.arg(subcommand)
            .arg("--db")
            .arg(work.db())
            .arg("--watch")
            .arg(work.watch())
            .args(["--dim", &self.dim.to_string()])
            .args(["--bits", &SKETCH_BITS.to_string()])
            .stdin(Stdio::null())
            .stdout(log("ferret.out")?)
            .stderr(log("ferret.err")?);
        Ok(cmd)
    }

    /// Runs `ferret import` to completion; returns its wall time.
    pub fn import(&self, work: &WorkDir) -> Result<Duration, String> {
        let start = Instant::now();
        let status = self
            .command("import", work)
            .and_then(|mut c| c.status())
            .map_err(|e| format!("cannot run ferret import: {e}"))?;
        let wall = start.elapsed();
        if !status.success() {
            return Err(format!(
                "ferret import failed: {status}\n{}",
                work.stderr_tail()
            ));
        }
        Ok(wall)
    }

    /// Spawns `ferret serve` and waits for the first correct reply to
    /// `probe`; returns the server and that cold-start time.
    pub fn serve(
        &self,
        work: &WorkDir,
        scan_interval: Option<u64>,
        probe: &Request,
    ) -> Result<(Server, Duration), String> {
        let tcp = free_local_addr().map_err(|e| format!("no free port: {e}"))?;
        let http = free_local_addr().map_err(|e| format!("no free port: {e}"))?;
        let start = Instant::now();
        let mut cmd = self
            .command("serve", work)
            .map_err(|e| format!("cannot open the server's log files: {e}"))?;
        cmd.args(["--tcp", &tcp.to_string()])
            .args(["--http", &http.to_string()]);
        if let Some(secs) = scan_interval {
            cmd.args(["--scan-interval", &secs.to_string()]);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn ferret serve: {e}"))?;
        let mut server = Server { child, tcp, http };
        let control = server
            .wait_ready(probe)
            .map_err(|e| format!("{e}\n{}", work.stderr_tail()))?;
        let cold_start = start.elapsed();
        drop(control);
        Ok((server, cold_start))
    }
}

/// A port that was free a moment ago. Nothing else in the checkout is
/// listening, so the window between this probe and the child's own bind
/// is harmless.
fn free_local_addr() -> io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// A running `ferret serve`. Dropping it kills the process and waits for
/// it, so no path out of a run leaves a server behind.
pub struct Server {
    child: Child,
    pub tcp: SocketAddr,
    pub http: SocketAddr,
}

/// Cold start may re-sketch the whole corpus; past this the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

impl Server {
    /// Polls until the server accepts a connection and answers `probe`
    /// correctly.
    fn wait_ready(&mut self, probe: &Request) -> Result<Client, String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("ferret serve exited before serving: {status}"));
            }
            if let Ok(mut client) = Client::connect(self.tcp) {
                let reply = client
                    .send(&probe.line)
                    .map_err(|e| format!("first query failed: {e}"))?;
                probe
                    .expect
                    .check(&reply)
                    .map_err(|e| format!("first reply to {:?} is wrong: {e}", probe.line))?;
                return Ok(client);
            }
            if Instant::now() > deadline {
                return Err(format!("ferret serve not ready after {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set size (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
            .map(|kb: f64| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// One scrape of `GET /metrics`: `(series with labels, value)` pairs.
    pub fn scrape_metrics(&self) -> Result<Vec<(String, f64)>, String> {
        let fetch = || -> io::Result<String> {
            let mut stream = TcpStream::connect(self.http)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
            let mut body = String::new();
            stream.read_to_string(&mut body)?;
            Ok(body)
        };
        let text = fetch().map_err(|e| format!("GET /metrics: {e}"))?;
        if !text.starts_with("HTTP/1.1 200") {
            let status = text.lines().next().unwrap_or_default();
            return Err(format!("GET /metrics answered {status:?}"));
        }
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// `SIGKILL`, then wait: the process never gets to flush anything.
    pub fn kill(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// Sum of every series of `family` whose label set contains all `labels`
/// (written as they appear on the wire, e.g. `lock="read"`).
pub fn metric_sum(metrics: &[(String, f64)], family: &str, labels: &[&str]) -> f64 {
    metrics
        .iter()
        .filter(|(series, _)| {
            let (name, label_set) = series.split_once('{').unwrap_or((series, ""));
            name == family && labels.iter().all(|l| label_set.contains(l))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Bytes of every regular file below `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_sum_matches_family_and_labels() {
        let metrics = vec![
            ("ferret_cache_hits_total".to_string(), 40.0),
            ("ferret_cache_hits_total_extra".to_string(), 1.0),
            (
                "ferret_lock_wait_seconds_sum{lock=\"read\"}".to_string(),
                0.5,
            ),
            (
                "ferret_lock_wait_seconds_sum{lock=\"write\"}".to_string(),
                0.25,
            ),
        ];
        assert_eq!(metric_sum(&metrics, "ferret_cache_hits_total", &[]), 40.0);
        assert_eq!(
            metric_sum(&metrics, "ferret_lock_wait_seconds_sum", &[]),
            0.75
        );
        assert_eq!(
            metric_sum(
                &metrics,
                "ferret_lock_wait_seconds_sum",
                &["lock=\"write\""]
            ),
            0.25
        );
        assert_eq!(metric_sum(&metrics, "ferret_absent_total", &[]), 0.0);
    }
}

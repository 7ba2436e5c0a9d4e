//! Ferret's macro-benchmark: generates a workload's corpus from `--seed`,
//! drives the release `ferret` binary as a child process through
//! `ferret import` and `ferret serve` over its TCP line protocol, checks
//! every reply, and prints every metric by name with its unit.
//!
//! ```text
//! ferret-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ferret-benchmark [--seed <n>] [--seconds <s>] [--smoke]      # all workloads, both modes
//! ferret-benchmark --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod child;
mod compare;
mod corpus;
mod json;
mod load;
mod proto;
mod rng;
mod stats;
mod traced;

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use child::{Ferret, Server, WorkDir};
use corpus::{
    Corpus, Request, Traffic, Workload, INGEST_FILES_PER_TICK, INGEST_TICK_SECS, WORKLOADS,
};
use json::Json;
use load::{IngestDone, IngestPlan, LoadResult, Tally};
use proto::{Client, Expect, Reply};
use stats::{median, windows};

/// Traffic before the timed phase, part of `setup_s`: a quarter of the
/// timed phase, at most this.
const MAX_WARMUP: Duration = Duration::from_secs(1);
/// Seed-fixed queries of the recall probe.
const RECALL_QUERIES: usize = 40;
/// `mixed-ingest-20k` is served with `--scan-interval 2`, one rescan per
/// ingest tick. Every rescan holds the write lock and stalls the one query
/// in flight; at one rescan a second the stalled share of queries sits
/// right at 1 % and `query_p99_ms` flips between ~10 ms and the stall
/// length from run to run. At half that the stalls stay beyond p99 and
/// show in `throughput_qps` and `server.lock_wait_s`.
const SCAN_INTERVAL_SECS: u64 = 2;
/// Cold starts per run; `cold_start_s` is their median.
const COLD_STARTS: usize = 3;
/// Most of a query's time may go unattributed by the engine's stage
/// timers before the traced run fails, on the two engine-bound workloads.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.25;
/// `--smoke` corpus size and window length.
const SMOKE_OBJECTS: usize = 1000;
const SMOKE_SECONDS: u64 = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: None,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One run's outcome: what the driver reads, plus the facts a reader
/// needs to judge it.
struct Record {
    workload: &'static str,
    seed: u64,
    trace: bool,
    seconds: u64,
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Latency samples and windows behind the timing metrics.
    samples: usize,
    windows: usize,
    wall: Duration,
}

impl Record {
    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        }))
    }

    /// Exactly the keys the driver's contract names.
    fn driver_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", self.metrics_json()),
        ])
    }

    fn full_line(&self, host: &Host) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("trace", Json::from(u64::from(self.trace))),
            ("seconds", Json::from(self.seconds)),
            ("host_cores", Json::from(host.cores as u64)),
            ("git_rev", Json::from(host.git_rev.as_str())),
            ("ferret_bytes", Json::from(host.ferret_bytes)),
            ("wall_s", Json::from(self.wall.as_secs_f64())),
            ("samples", Json::from(self.samples as u64)),
            ("windows", Json::from(self.windows as u64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", self.metrics_json()),
        ])
    }

    fn log(&self) {
        eprintln!(
            "# {} seed={} trace={} correct={} failed={}/{} samples={} windows={} wall={:.1}s",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.correct,
            self.tally.failed,
            self.tally.attempted,
            self.samples,
            self.windows,
            self.wall.as_secs_f64()
        );
        for (name, value, unit) in &self.metrics {
            eprintln!("#   {name:<36} {value:>14.4} {unit}");
        }
        for failure in &self.tally.failures {
            eprintln!("#   failed: {failure}");
        }
    }
}

/// Recorded with every result.
struct Host {
    cores: usize,
    git_rev: String,
    ferret_bytes: u64,
}

impl Host {
    fn probe(ferret: &Ferret) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev,
            ferret_bytes: fs::metadata(&ferret.binary).map_or(0, |m| m.len()),
        }
    }
}

/// Logs how long each phase of a run took, for whoever sizes the run.
struct Phases(Instant);

impl Phases {
    fn done(&mut self, phase: &str) {
        eprintln!(
            "#   phase {phase:<12} {:>7.2} s",
            self.0.elapsed().as_secs_f64()
        );
        self.0 = Instant::now();
    }
}

/// A generated corpus on disk, ready to import.
struct Prepared {
    work: WorkDir,
    /// `mixed-ingest-20k`: staged batch directories, one per tick.
    staged: Vec<PathBuf>,
    /// The first request of reader 0: the cold-start probe.
    probe: Request,
    /// Seed ids of the recall probe.
    recall_ids: Vec<u64>,
}

fn ingest_ticks(spec: &Workload, seconds: u64) -> usize {
    if spec.ingest {
        (seconds / INGEST_TICK_SECS) as usize
    } else {
        0
    }
}

fn prepare(spec: &Workload, seed: u64, seconds: u64) -> Result<Prepared, String> {
    let ticks = ingest_ticks(spec, seconds);
    let work = WorkDir::create(spec.name).map_err(|e| format!("work directory: {e}"))?;
    let corpus = Corpus::new(spec, seed, ticks * INGEST_FILES_PER_TICK);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    corpus
        .write_watch_dir(&work.watch(), cores)
        .map_err(|e| format!("writing the corpus: {e}"))?;
    let staged = (0..ticks)
        .map(|tick| corpus.write_staged_batch(&work.staging(), tick))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("writing staged batches: {e}"))?;
    let probe = spec.requests(seed, 0).next();
    let recall_ids = corpus.recall_ids(RECALL_QUERIES, &spec.delete_ids(seed, ticks));
    Ok(Prepared {
        work,
        staged,
        probe,
        recall_ids,
    })
}

fn scan_interval(spec: &Workload) -> Option<u64> {
    spec.ingest.then_some(SCAN_INTERVAL_SECS)
}

/// Warm-up plus the timed phase of the workload's traffic.
fn serve_load(
    spec: &Workload,
    seed: u64,
    seconds: u64,
    prepared: &Prepared,
    server: &Server,
) -> Result<LoadResult, String> {
    let sources = (0..spec.readers)
        .map(|conn| spec.requests(seed, conn))
        .collect();
    let ticks = ingest_ticks(spec, seconds);
    let ingest = (ticks > 0).then(|| IngestPlan {
        staged: prepared.staged.clone(),
        watch: prepared.work.watch(),
        deletes: spec.delete_ids(seed, ticks),
    });
    let measure = Duration::from_secs(seconds);
    load::run(
        server.tcp,
        sources,
        ingest,
        MAX_WARMUP.min(measure / 4),
        measure,
    )
}

/// The timed phase cut into windows: each at least a third of the phase
/// and 1000 replies long.
fn timed_windows(load: &LoadResult, seconds: u64) -> Vec<stats::Window> {
    let phase = Duration::from_secs(seconds);
    windows(&load.samples, phase, phase / 3)
}

/// Overlap of the workload's query shape with `mode=brute` top-10 on the
/// same server, over [`RECALL_QUERIES`] seed-fixed queries.
fn recall_at_10(
    spec: &Workload,
    ids: &[u64],
    server: &Server,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut client = Client::connect(server.tcp).map_err(|e| format!("recall connection: {e}"))?;
    let (mut found, mut wanted) = (0usize, 0usize);
    for &id in ids {
        let (filter_line, brute_line) = spec.recall_lines(id);
        let mut top10 = |line: &str, expect: Expect| -> Result<Vec<u64>, String> {
            let reply = client.send(line).map_err(|e| format!("{line:?}: {e}"))?;
            let ids = expect.check(&reply).map_err(|e| format!("{line:?}: {e}"))?;
            Ok(ids.into_iter().take(10).collect())
        };
        let any = Expect::text(id, usize::MAX);
        match (
            top10(&filter_line, any.clone()),
            top10(&brute_line, any.exact()),
        ) {
            (Ok(got), Ok(truth)) => {
                found += truth.iter().filter(|id| got.contains(id)).count();
                wanted += truth.len();
                tally.record(Ok(()));
            }
            (Err(e), _) | (_, Err(e)) => tally.record(Err(e)),
        }
    }
    if wanted == 0 {
        return Err("the recall probe got no reply".into());
    }
    Ok(found as f64 / wanted as f64)
}

/// End-of-run checks of `mixed-ingest-20k`: the object count is exactly
/// preloaded + added − deleted within three scan intervals, a deleted id
/// no longer answers, and both still hold after `SIGKILL` and a restart.
/// Every miss is a failed operation. Returns the restarted server.
fn check_ingest(
    ferret: &Ferret,
    spec: &Workload,
    prepared: &Prepared,
    server: Server,
    ingest: &IngestDone,
    tally: &mut Tally,
) -> Result<Server, String> {
    let expected =
        (spec.objects + ingest.ticks * INGEST_FILES_PER_TICK - ingest.deleted.len()) as u64;
    let check = |server: &Server, patience: Duration, when: &str, tally: &mut Tally| {
        let outcome = (|| {
            let mut client = Client::connect(server.tcp).map_err(|e| e.to_string())?;
            let deadline = Instant::now() + patience;
            loop {
                let objects = client.stat_objects()?;
                if objects == expected {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!(
                        "stat reports {objects} objects, expected {expected}"
                    ));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            if let Some(id) = ingest.deleted.last() {
                match client.send(&format!("query id={id} k=1 mode=filter")) {
                    Ok(Reply::Err(_)) => {}
                    other => return Err(format!("deleted id {id} still answers: {other:?}")),
                }
            }
            // The newest object of the last batch answers as itself.
            if ingest.ticks > 0 {
                let id = (spec.objects + ingest.ticks * INGEST_FILES_PER_TICK - 1) as u64;
                let reply = client
                    .send(&format!("query id={id} k=1 mode=brute"))
                    .map_err(|e| e.to_string())?;
                Expect::text(id, 1)
                    .exact()
                    .check(&reply)
                    .map_err(|e| format!("ingested id {id}: {e}"))?;
            }
            Ok(())
        })();
        tally.record(outcome.map_err(|e| format!("{when}: {e}")));
    };
    check(
        &server,
        Duration::from_secs(3 * SCAN_INTERVAL_SECS),
        "after ingest",
        tally,
    );
    server.kill();
    let (server, _) = ferret.serve(&prepared.work, scan_interval(spec), &prepared.probe)?;
    check(&server, Duration::ZERO, "after SIGKILL and restart", tally);
    Ok(server)
}

fn run_untraced(
    ferret: &Ferret,
    spec: &Workload,
    seed: u64,
    seconds: u64,
) -> Result<Record, String> {
    let begin = Instant::now();
    let mut phases = Phases(begin);
    let prepared = prepare(spec, seed, seconds)?;
    phases.done("corpus");

    // Set-up: import into an empty database, then cold start. The cold
    // start repeats so that its median is steady; importing again would
    // cost most of a run.
    let import = ferret.import(&prepared.work)?;
    let mut cold_starts = Vec::new();
    let mut server = None;
    for _ in 0..COLD_STARTS {
        drop(server.take());
        let (started, cold_start) =
            ferret.serve(&prepared.work, scan_interval(spec), &prepared.probe)?;
        cold_starts.push(cold_start.as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("COLD_STARTS is positive");
    let cold_start_s = median(&cold_starts);
    phases.done("set-up");

    let load = serve_load(spec, seed, seconds, &prepared, &server)?;
    phases.done("load");
    let mut tally = load.tally.clone();
    let windows = timed_windows(&load, seconds);
    let over_windows =
        |f: fn(&stats::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());

    let recall = recall_at_10(spec, &prepared.recall_ids, &server, &mut tally)?;
    phases.done("recall");
    let peak_rss_mb = server.peak_rss_mb()?;
    let server = if ingest_ticks(spec, seconds) > 0 {
        check_ingest(ferret, spec, &prepared, server, &load.ingest, &mut tally)?
    } else {
        server
    };
    server.kill();
    drop(prepared);
    phases.done("end checks");

    if load.samples.is_empty() {
        return Err(format!("no query succeeded: {:?}", tally.failures));
    }
    Ok(Record {
        workload: spec.name,
        seed,
        trace: false,
        seconds,
        correct: tally.failed == 0,
        metrics: vec![
            (
                "setup_s",
                import.as_secs_f64() + cold_start_s + load.warmup.as_secs_f64(),
                "s",
            ),
            ("cold_start_s", cold_start_s, "s"),
            ("query_p50_ms", over_windows(|w| w.p50_ms), "ms"),
            ("query_p99_ms", over_windows(|w| w.p99_ms), "ms"),
            ("throughput_qps", over_windows(|w| w.qps), "1/s"),
            ("recall_at_10", recall, "ratio"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        tally,
        samples: load.samples.len(),
        windows: windows.len(),
        wall: begin.elapsed(),
    })
}

fn run_traced(ferret: &Ferret, spec: &Workload, seed: u64, seconds: u64) -> Result<Record, String> {
    let begin = Instant::now();
    let mut phases = Phases(begin);
    let prepared = prepare(spec, seed, seconds)?;
    phases.done("corpus");

    // Served half: the same traffic as the untraced run, then one scrape.
    let import = ferret.import(&prepared.work)?;
    let db_bytes_after_import =
        child::dir_bytes(&prepared.work.db()).map_err(|e| format!("sizing the database: {e}"))?;
    let (server, _) = ferret.serve(&prepared.work, scan_interval(spec), &prepared.probe)?;
    let load = serve_load(spec, seed, seconds, &prepared, &server)?;
    let metrics = server.scrape_metrics()?;
    // The in-process half opens the database next: the WAL has one writer.
    server.kill();
    phases.done("served");
    let mut tally = load.tally.clone();
    let windows = timed_windows(&load, seconds);
    if load.samples.is_empty() {
        return Err(format!("no query succeeded: {:?}", tally.failures));
    }
    let served = traced::Served {
        import,
        query_p50_ms: median(&windows.iter().map(|w| w.p50_ms).collect::<Vec<_>>()),
        metrics,
        db_bytes_after_import,
    };

    let run = traced::run(
        spec,
        seed,
        &prepared.work.watch(),
        &prepared.work.db(),
        &served,
        Duration::from_secs(seconds),
    )?;
    phases.done("in-process");
    let trace_file = child::target_dir()
        .join("benchmark")
        .join(format!("trace-{}.jsonl", spec.name));
    run.tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    tally.merge(run.tally);
    if matches!(spec.traffic, Traffic::Distinct { .. }) && !spec.ingest {
        let share = run.layers["engine.unattributed_share"].0;
        tally.record(if share <= MAX_UNATTRIBUTED_SHARE {
            Ok(())
        } else {
            Err(format!(
                "engine.unattributed_share {share:.3} exceeds {MAX_UNATTRIBUTED_SHARE}: \
                 the stage timers no longer explain the query"
            ))
        });
    }
    Ok(Record {
        workload: spec.name,
        seed,
        trace: true,
        seconds,
        correct: tally.failed == 0,
        metrics: run
            .layers
            .iter()
            .map(|(&name, &(value, unit))| (name, value, unit))
            .collect(),
        tally,
        samples: load.samples.len(),
        windows: windows.len(),
        wall: begin.elapsed(),
    })
}

fn run_all(args: &Args) -> Result<bool, String> {
    let binary = child::build_ferret()?;
    let specs: Vec<Workload> = match &args.workload {
        Some(name) => vec![Workload::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; the workloads are {names:?}")
        })?],
        None => WORKLOADS.to_vec(),
    };
    let single = args.workload.is_some() && args.trace.is_some();
    let seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        args.seconds
    };
    let results = child::target_dir().join("benchmark").join("result.jsonl");
    fs::create_dir_all(results.parent().expect("has a parent")).map_err(|e| e.to_string())?;
    if !single {
        // A run of several starts its result file afresh; single runs append.
        let _ = fs::remove_file(&results);
    }
    let mut all_correct = true;
    for spec in &specs {
        let spec = if args.smoke {
            spec.scaled(SMOKE_OBJECTS)
        } else {
            spec.clone()
        };
        let ferret = Ferret {
            binary: binary.clone(),
            dim: spec.dim,
        };
        let host = Host::probe(&ferret);
        for trace in [false, true] {
            if args.trace.is_some_and(|only| only != trace) {
                continue;
            }
            let record = if trace {
                run_traced(&ferret, &spec, args.seed, seconds)
            } else {
                run_untraced(&ferret, &spec, args.seed, seconds)
            }
            .map_err(|e| format!("{} (trace {}): {e}", spec.name, u8::from(trace)))?;
            record.log();
            all_correct &= record.correct;
            let full = record.full_line(&host);
            let mut file = fs::File::options()
                .create(true)
                .append(true)
                .open(&results)
                .map_err(|e| format!("{}: {e}", results.display()))?;
            writeln!(file, "{full}").map_err(|e| e.to_string())?;
            // The driver reads the last line of standard output.
            println!("{}", if single { record.driver_line() } else { full });
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.compare {
        Some((a, b)) => compare::run(a, b).map(|()| true),
        None => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness check failed (see the lines marked `failed:` above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

//! The traced run's in-process half: the harness opens the workload's
//! imported database through the library's public API and records a span
//! around each call into a layer. Spans stay in memory and are written out
//! when the run ends. Spans inside the program are a later change; until
//! then the stage split of a query comes from the `QueryTrace` the engine
//! already leaves in `FerretService::last_trace()`.
//!
//! The service is configured as `src/bin/ferret.rs` configures it under
//! its defaults (wide sketch ranges at open, then `retune_sketches`, a
//! 128-entry result cache, telemetry on).

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ferret_core::engine::EngineConfig;
use ferret_core::object::DataObject;
use ferret_core::sketch::{SketchBuilder, SketchParams};
use ferret_core::telemetry::MetricsRegistry;
use ferret_datatypes::generic::parse_fvec;
use ferret_query::{parse_command, render_reply, Command, FerretService};
use ferret_store::{Database, DbOptions};

use crate::child::{metric_sum, SKETCH_BITS};
use crate::corpus::{Corpus, Request, Traffic, Workload};
use crate::load::Tally;
use crate::proto::read_reply;
use crate::stats::{mean, median};

/// The binary's defaults that have no flag the harness passes.
const XOR_FOLDS: usize = 2;
const ENGINE_SEED: u64 = 0xFE44E7;
const CACHE_CAPACITY: usize = 128;

/// Corpus files parsed and sketched for the ingest-side spans.
const INGEST_SAMPLE: usize = 20_000;
/// Distinct requests replayed (fewer if the time budget runs out first).
const REPLAY_REQUESTS: usize = 200;
/// Requests sent a second time to time the cache-hit path.
const REPEAT_REQUESTS: usize = 32;
/// Deletes timed for `store.commit_us`.
const COMMITS: usize = 8;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Spans of one replayed request share its number.
    pub request: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span recorder; a span's id is its index.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            request,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Records a span around `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(name, parent, request);
        let value = f();
        (value, self.end(id))
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.parent),
                opt(s.request),
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// What one replayed request cost, by layer.
#[derive(Debug, Default, Clone)]
struct Replayed {
    parse: Duration,
    execute: Duration,
    render: Duration,
    total: Duration,
    /// The engine's own stage split; `None` when the reply came from the
    /// result cache (no engine work, no new trace).
    engine: Option<EngineStages>,
}

#[derive(Debug, Default, Clone)]
struct EngineStages {
    sketch: Duration,
    filter: Duration,
    rank: Duration,
    segments_compared: usize,
    candidates: usize,
    distance_evals: usize,
}

impl EngineStages {
    fn total(&self) -> Duration {
        self.sketch + self.filter + self.rank
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Parses, executes and renders one request line in-process, checks the
/// rendered reply like a served one, and records a span per layer.
fn replay(
    tracer: &mut Tracer,
    service: &FerretService,
    request: &Request,
    number: usize,
) -> Result<Replayed, String> {
    let before = service.last_trace().map(|(id, _)| id);
    let root = tracer.begin("request", None, Some(number));
    let (command, parse) = tracer.span("protocol.parse", Some(root), Some(number), || {
        parse_command(&request.line)
    });
    let command: Command = command.map_err(|e| format!("{:?}: {e}", request.line))?;
    let (response, execute) = tracer.span("service.execute_read", Some(root), Some(number), || {
        service.execute_read(&command)
    });
    let response = response.map_err(|e| format!("{:?}: {e}", request.line))?;
    let (text, render) = tracer.span("protocol.render", Some(root), Some(number), || {
        render_reply(&command, &response)
    });
    let total = tracer.end(root);

    let reply = read_reply(&mut text.as_bytes()).map_err(|e| format!("{:?}: {e}", request.line))?;
    request
        .expect
        .check(&reply)
        .map_err(|e| format!("in-process reply to {:?} is wrong: {e}", request.line))?;

    let engine = match service.last_trace() {
        Some((id, trace)) if Some(id) != before => {
            let stage = |s: &Option<ferret_core::telemetry::StageTrace>| {
                s.as_ref().map_or(Duration::ZERO, |s| s.duration)
            };
            Some(EngineStages {
                sketch: stage(&trace.sketch),
                filter: stage(&trace.filter),
                rank: stage(&trace.rank),
                segments_compared: trace.segments_scanned,
                candidates: trace.candidates,
                distance_evals: trace.distance_evals,
            })
        }
        _ => None,
    };
    Ok(Replayed {
        parse,
        execute,
        render,
        total,
        engine,
    })
}

/// The numbers the served half of the traced run hands over.
pub struct Served {
    pub import: Duration,
    pub query_p50_ms: f64,
    pub metrics: Vec<(String, f64)>,
    pub db_bytes_after_import: u64,
}

/// Per-layer metrics by name, each with its unit.
pub type Layers = BTreeMap<&'static str, (f64, &'static str)>;

pub struct TracedRun {
    pub layers: Layers,
    pub tracer: Tracer,
    /// Requests replayed; one fails when its reply is wrong or its stage
    /// timers exceed the span around them.
    pub tally: Tally,
}

/// Opens the imported database in-process and measures every layer.
/// `budget` bounds the replay of distinct requests; the fixed-size parts
/// (open, retune, ingest sample) take what they take.
pub fn run(
    spec: &Workload,
    seed: u64,
    watch: &Path,
    db: &Path,
    served: &Served,
    budget: Duration,
) -> Result<TracedRun, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut layers = Layers::new();
    let mut put = |name, value: f64, unit| {
        layers.insert(name, (value, unit));
    };

    // acquire + datatypes::generic, core::sketch (ingest side): parse and
    // sketch a sample of the corpus files as the importer would.
    let sample = spec.objects.min(INGEST_SAMPLE);
    let texts: Vec<String> = (0..sample)
        .map(|i| {
            let path = watch.join(Corpus::watch_path(i));
            fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    let (objects, parse_wall) = tracer.span("acquire.parse_fvec", None, None, || {
        texts
            .iter()
            .map(|t| parse_fvec(t))
            .collect::<Result<Vec<DataObject>, _>>()
    });
    let objects = objects.map_err(|e| format!("parse_fvec: {e}"))?;
    let wide = || {
        SketchParams::with_options(
            SKETCH_BITS,
            XOR_FOLDS,
            vec![-1000.0; spec.dim],
            vec![1000.0; spec.dim],
            None,
        )
        .map_err(|e| format!("sketch parameters: {e}"))
    };
    let builder = SketchBuilder::new(wide()?, ENGINE_SEED);
    let (sketched, sketch_wall) = tracer.span("sketch.sketch_objects", None, None, || {
        builder.sketch_objects(&objects, cores)
    });
    sketched.map_err(|e| format!("sketch_objects: {e}"))?;
    drop((texts, objects));
    let per_s = |wall: Duration| sample as f64 / wall.as_secs_f64();
    put("acquire.parse_objs_per_s", per_s(parse_wall), "1/s");
    put("sketch.ingest_objs_per_s", per_s(sketch_wall), "1/s");
    put("import_s", served.import.as_secs_f64(), "s");

    // store: open the imported database alone, then the whole service.
    let (opened, store_open) = tracer.span("store.open", None, None, || {
        Database::open_with(db, DbOptions::default())
    });
    drop(opened.map_err(|e| format!("Database::open_with: {e}"))?);
    let (service, service_open) = tracer.span("service.open", None, None, || {
        FerretService::builder(EngineConfig::basic(wide()?, ENGINE_SEED))
            .db_options(DbOptions::default())
            .cache_capacity(CACHE_CAPACITY)
            .open(db)
            .map_err(|e| format!("FerretService::open: {e}"))
    });
    let mut service = service?;
    let (retuned, retune) = tracer.span("service.retune", None, None, || {
        service.retune_sketches(SKETCH_BITS, XOR_FOLDS, ENGINE_SEED)
    });
    retuned.map_err(|e| format!("retune_sketches: {e}"))?;
    service.enable_telemetry(Arc::new(MetricsRegistry::new()));
    put("store.open_s", store_open.as_secs_f64(), "s");
    put("service.open_s", service_open.as_secs_f64(), "s");
    put("service.retune_s", retune.as_secs_f64(), "s");
    let bytes_per_object = served.db_bytes_after_import as f64 / spec.objects as f64;
    put("store.bytes_per_object", bytes_per_object, "B");

    // The workload's own lines, each for the first time: cache misses
    // whose engine stages may not exceed the span around them.
    let pool_traffic = spec.traffic == Traffic::Pool;
    let lines = if pool_traffic {
        spec.pool(seed)
    } else {
        spec.script(seed, 0, REPLAY_REQUESTS)
    };
    let deadline = Instant::now() + budget;
    let mut misses: Vec<(Replayed, EngineStages, &Request)> = Vec::new();
    for (number, request) in lines.iter().enumerate() {
        if !pool_traffic && Instant::now() > deadline {
            break;
        }
        let miss =
            replay(&mut tracer, &service, request, number).and_then(|r| match r.engine.clone() {
                None => Err(format!("{:?} left no engine trace", request.line)),
                Some(s) if s.total() > r.execute => Err(format!(
                    "{:?}: stages {:?} exceed the execute_read span {:?}",
                    request.line,
                    s.total(),
                    r.execute
                )),
                Some(s) => Ok((r, s, request)),
            });
        tally.record(miss.map(|m| misses.push(m)));
    }
    // Some of the same lines again: cache hits.
    let repeat_from = if pool_traffic {
        0
    } else {
        misses.len().saturating_sub(REPEAT_REQUESTS)
    };
    let mut hits: Vec<Replayed> = Vec::new();
    for (number, (_, _, request)) in misses.iter().enumerate().skip(repeat_from) {
        let hit =
            replay(&mut tracer, &service, request, lines.len() + number).and_then(|r| {
                match r.engine {
                    None => Ok(r),
                    Some(_) => Err(format!("repeated {:?} missed the cache", request.line)),
                }
            });
        tally.record(hit.map(|h| hits.push(h)));
    }
    if misses.is_empty() || hits.is_empty() {
        return Err(format!(
            "in-process replay produced nothing: {:?}",
            tally.failures
        ));
    }

    // Engine stages, from the misses.
    let sum = |f: &dyn Fn(&EngineStages) -> f64| misses.iter().map(|(_, s, _)| f(s)).sum::<f64>();
    let per_query = |f: &dyn Fn(&EngineStages) -> f64| sum(f) / misses.len() as f64;
    let execute_total: f64 = misses.iter().map(|(r, _, _)| us(r.execute)).sum();
    let (filter_us, rank_us) = (sum(&|s| us(s.filter)), sum(&|s| us(s.rank)));
    let (compared, candidates, evals) = (
        sum(&|s| s.segments_compared as f64),
        sum(&|s| s.candidates as f64),
        sum(&|s| s.distance_evals as f64),
    );
    put(
        "engine.unattributed_share",
        1.0 - sum(&|s| us(s.total())) / execute_total,
        "ratio",
    );
    put("engine.filter_share", filter_us / execute_total, "ratio");
    put("engine.rank_share", rank_us / execute_total, "ratio");
    put("sketch.query_us", per_query(&|s| us(s.sketch)), "us");
    put("filter.us_per_query", per_query(&|s| us(s.filter)), "us");
    put(
        "filter.segments_compared_per_query",
        compared / misses.len() as f64,
        "count",
    );
    put(
        "filter.candidates_per_query",
        candidates / misses.len() as f64,
        "count",
    );
    put(
        "filter.useful_ratio",
        candidates / compared.max(1.0),
        "ratio",
    );
    put("rank.us_per_query", per_query(&|s| us(s.rank)), "us");
    put(
        "rank.emd_evals_per_query",
        evals / misses.len() as f64,
        "count",
    );
    put("rank.us_per_emd", rank_us / evals.max(1.0), "us");

    // Front end: parse and render over every replayed line; the hit path.
    let replayed = || misses.iter().map(|(r, _, _)| r).chain(&hits);
    let of = |f: fn(&Replayed) -> Duration, rs: &mut dyn Iterator<Item = &Replayed>| {
        rs.map(|r| us(f(r))).collect::<Vec<f64>>()
    };
    put(
        "protocol.parse_us",
        mean(&of(|r| r.parse, &mut replayed())),
        "us",
    );
    put(
        "protocol.render_us",
        mean(&of(|r| r.render, &mut replayed())),
        "us",
    );
    put(
        "cache.hit_us",
        median(&of(|r| r.execute, &mut hits.iter())),
        "us",
    );
    let mut hybrid_misses = misses
        .iter()
        .filter(|(_, _, request)| request.expect.ids_within.is_some())
        .map(|(r, _, _)| r);
    put(
        "attr.hybrid_miss_us",
        mean(&of(|r| r.execute, &mut hybrid_misses)),
        "us",
    );

    // server + admission: what the served request costs beyond the same
    // request in-process — socket, worker hand-off, lock, CPU queueing.
    // The served steady state is hits for pool traffic, misses otherwise.
    let in_process_us = if pool_traffic {
        median(&of(|r| r.total, &mut hits.iter()))
    } else {
        median(&of(|r| r.total, &mut misses.iter().map(|(r, _, _)| r)))
    };
    put("served.query_p50_ms", served.query_p50_ms, "ms");
    put(
        "server.gap_us",
        served.query_p50_ms * 1e3 - in_process_us,
        "us",
    );
    let scraped = |family| metric_sum(&served.metrics, family, &[]);
    put(
        "server.lock_wait_s",
        scraped("ferret_lock_wait_seconds_sum"),
        "s",
    );
    put("server.rejected", scraped("ferret_rejected_total"), "count");
    let (cache_hits, cache_misses) = (
        scraped("ferret_cache_hits_total"),
        scraped("ferret_cache_misses_total"),
    );
    put(
        "cache.hit_ratio",
        cache_hits / (cache_hits + cache_misses).max(1.0),
        "ratio",
    );
    put(
        "cache.evictions",
        scraped("ferret_cache_evictions_total"),
        "count",
    );
    put(
        "attr.pushdown_queries",
        scraped("ferret_pushdown_queries_total"),
        "count",
    );
    put(
        "attr.skipped",
        scraped("ferret_pushdown_skipped_total"),
        "count",
    );

    // store (write side): a delete and the flush that makes it durable, on
    // ids no request names and the served ingest thread never deleted.
    let mut commits = Vec::new();
    for id in spec.spare_ids(seed, COMMITS) {
        let command = parse_command(&format!("delete id={id}")).map_err(|e| e.to_string())?;
        let (outcome, wall) = tracer.span("store.commit", None, None, || {
            service
                .execute(&command)
                .map_err(|e| e.to_string())
                .and_then(|_| service.flush().map_err(|e| e.to_string()))
        });
        tally.record(match outcome {
            Ok(()) => {
                commits.push(us(wall));
                Ok(())
            }
            Err(e) => Err(format!("delete id={id}: {e}")),
        });
    }
    if commits.is_empty() {
        return Err(format!(
            "no delete committed in-process: {:?}",
            tally.failures
        ));
    }
    put("store.commit_us", median(&commits), "us");

    Ok(TracedRun {
        layers,
        tracer,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("request", None, Some(0));
        let ((), a) = t.span("protocol.parse", Some(root), Some(0), || {
            std::thread::sleep(Duration::from_millis(3))
        });
        let ((), b) = t.span("service.execute_read", Some(root), Some(0), || {
            std::thread::sleep(Duration::from_millis(5))
        });
        std::thread::sleep(Duration::from_millis(2));
        let total = t.end(root);
        assert!(total >= a + b + Duration::from_millis(2));
        assert_eq!(t.spans[1].parent, Some(root));
        assert!(t.spans[1].end <= t.spans[2].start);

        let path =
            std::env::temp_dir().join(format!("ferret-bench-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let rows: Vec<crate::json::Json> = text
            .lines()
            .map(|l| crate::json::Json::parse(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(
            rows[2].get("name").and_then(|n| n.as_str()),
            Some("service.execute_read")
        );
        assert_eq!(rows[2].get("parent").and_then(|p| p.as_f64()), Some(0.0));
    }
}

//! The `ferret` command-line tool: run a complete similarity search system
//! from the shell.
//!
//! ```text
//! ferret serve  --db <dir> --watch <dir> --dim <D> [--bits N] [--tcp addr]
//!               [--http addr] [--scan-interval secs]
//! ferret import --db <dir> --watch <dir> --dim <D> [--bits N]
//! ferret retune --db <dir> --dim <D> [--bits N] [--k K]
//! ferret query  --addr <host:port> <protocol command ...>
//! ```
//!
//! Objects are `.fvec` files (pre-extracted weighted feature vectors, one
//! segment per line) dropped into the watch directory; `serve` runs the
//! acquisition loop, the TCP command protocol, and the web interface over
//! a persistent metadata store.
//!
//! A store is calibrated once, by the first `import` or `serve` that finds
//! it non-empty and without a calibration record; every later open
//! sketches with that record, and only `retune` replaces it.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use ferret::acquire::{ImportSink, Importer};
use ferret::attr::Attributes;
use ferret::core::engine::EngineConfig;
use ferret::core::error::CoreError;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::sketch::SketchParams;
use ferret::core::telemetry::MetricsRegistry;
use ferret::datatypes::generic::FvecExtractor;
use ferret::query::{
    AdmissionControl, Client, Dispatcher, FerretService, Protocol, Server, ServiceError,
};
use ferret::store::DbOptions;

/// Seed of the sketch construction unit's random `(i, t)` pairs, stored
/// with every calibration this binary makes.
const ENGINE_SEED: u64 = 0xFE44E7;

struct Options {
    db: Option<PathBuf>,
    watch: Option<PathBuf>,
    dim: usize,
    bits: usize,
    xor_folds: usize,
    tcp: String,
    http: String,
    scan_interval: u64,
    threads: Parallelism,
    workers: Option<usize>,
    max_inflight: Option<usize>,
    cache_capacity: usize,
    telemetry: bool,
    addr: Option<String>,
    rest: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  ferret serve  --db <dir> --watch <dir> --dim <D> [--bits N] [--k K]\n                [--tcp addr] [--http addr] [--scan-interval secs]\n                [--threads N|auto|serial] [--workers N] [--max-inflight N]\n                [--cache-capacity N] [--no-telemetry]\n  ferret import --db <dir> --watch <dir> --dim <D> [--bits N] [--k K]\n                [--threads N|auto|serial]\n  ferret retune --db <dir> --dim <D> [--bits N] [--k K]\n  ferret query  --addr <host:port> <command ...>"
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        db: None,
        watch: None,
        dim: 0,
        bits: 128,
        xor_folds: 2,
        tcp: "127.0.0.1:7878".to_string(),
        http: "127.0.0.1:8080".to_string(),
        scan_interval: 5,
        threads: Parallelism::Auto,
        workers: None,
        max_inflight: None,
        cache_capacity: 128,
        telemetry: true,
        addr: None,
        rest: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &String { args.get(i + 1).unwrap_or_else(|| usage()) };
        match args[i].as_str() {
            "--db" => {
                opts.db = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--watch" => {
                opts.watch = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--dim" => {
                opts.dim = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--bits" => {
                opts.bits = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--k" => {
                opts.xor_folds = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--tcp" => {
                opts.tcp = need(i).clone();
                i += 2;
            }
            "--http" => {
                opts.http = need(i).clone();
                i += 2;
            }
            "--scan-interval" => {
                opts.scan_interval = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--threads" => {
                opts.threads = parse_threads(need(i)).unwrap_or_else(|| usage());
                i += 2;
            }
            "--workers" => {
                opts.workers = Some(need(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--max-inflight" => {
                opts.max_inflight = Some(need(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--cache-capacity" => {
                opts.cache_capacity = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--no-telemetry" => {
                opts.telemetry = false;
                i += 1;
            }
            "--addr" => {
                opts.addr = Some(need(i).clone());
                i += 2;
            }
            _ => {
                opts.rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    opts
}

fn parse_threads(value: &str) -> Option<Parallelism> {
    // Accepts serial, auto, N, or threads(N) — see Parallelism::from_str.
    value.parse().ok()
}

struct ServiceSink<'a>(&'a mut FerretService);

impl ImportSink for ServiceSink<'_> {
    type Error = ServiceError;

    fn upsert(
        &mut self,
        id: ObjectId,
        object: DataObject,
        attributes: Attributes,
        _path: &Path,
    ) -> Result<(), ServiceError> {
        if self.0.engine().contains(id) {
            self.0.remove(id)?;
        }
        self.0.insert(id, object, Some(attributes))
    }

    fn remove(&mut self, id: ObjectId, _path: &Path) -> Result<(), ServiceError> {
        self.0.remove(id)?;
        Ok(())
    }

    fn upsert_batch(
        &mut self,
        items: Vec<(ObjectId, DataObject, Attributes, PathBuf)>,
    ) -> Vec<Result<(), ServiceError>> {
        // Fresh ids can be sketched batch-parallel in one atomic insert;
        // updates (or a failing batch) fall back to per-item upserts so
        // failures attribute to individual files.
        if items.iter().all(|(id, ..)| !self.0.engine().contains(*id)) {
            let batch: Vec<_> = items
                .iter()
                .map(|(id, object, attrs, _)| (*id, object.clone(), Some(attrs.clone())))
                .collect();
            if self.0.insert_batch(batch).is_ok() {
                return items.iter().map(|_| Ok(())).collect();
            }
        }
        items
            .into_iter()
            .map(|(id, object, attrs, path)| self.upsert(id, object, attrs, &path))
            .collect()
    }
}

fn open_service(opts: &Options) -> FerretService {
    let db = opts.db.clone().unwrap_or_else(|| usage());
    if opts.dim == 0 {
        eprintln!("error: --dim is required (dimensionality of the .fvec vectors)");
        std::process::exit(2);
    }
    // Generic vectors: ranges are unknown up front, so a store without a
    // calibration record is sketched under a wide symmetric range.
    let params = SketchParams::with_options(
        opts.bits,
        opts.xor_folds,
        vec![-1000.0; opts.dim],
        vec![1000.0; opts.dim],
        None,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut config = EngineConfig::basic(params, ENGINE_SEED);
    config.parallelism = opts.threads;
    let built = FerretService::builder(config)
        .db_options(DbOptions::default())
        .cache_capacity(opts.cache_capacity)
        .open(&db);
    built.unwrap_or_else(|e| {
        match e {
            ServiceError::Core(CoreError::DimensionMismatch { expected, actual }) => eprintln!(
                "error: --dim {expected} does not match the dimensionality {actual} \
                 stored in {}",
                db.display()
            ),
            e => eprintln!("error: cannot open database {}: {e}", db.display()),
        }
        std::process::exit(1);
    })
}

/// Calibrates the store when `retune` is set, or when it has no
/// calibration record yet and is non-empty (a fresh store after its first
/// scan, or one written before records existed), and makes the record
/// durable; exits 1 when that fails. Prints the effective N/K and where
/// they came from.
fn calibrate(service: &mut FerretService, opts: &Options, retune: bool) {
    let source = if !retune && service.calibrated() {
        "stored record".to_string()
    } else if !retune && service.engine().is_empty() {
        "configured; the store is empty".to_string()
    } else {
        let retuned = service
            .retune_sketches(opts.bits, opts.xor_folds, ENGINE_SEED)
            .and_then(|()| service.flush());
        if let Err(e) = retuned {
            eprintln!("error: sketch calibration failed: {e}");
            std::process::exit(1);
        }
        format!("derived from {} objects", service.engine().len())
    };
    let params = service.engine().sketch_builder().params();
    println!(
        "sketch calibration: N={} K={} ({source})",
        params.nbits, params.xor_folds
    );
}

/// Restores importer state (manifest + path → id table) from the
/// service's metadata store, so restarts neither re-import unchanged
/// files nor reassign ids.
fn open_importer(
    service: &FerretService,
    watch: &std::path::Path,
    dim: usize,
) -> Importer<FvecExtractor> {
    let extractor = FvecExtractor::new(dim);
    match service.db() {
        Some(db) => match Importer::load_state(watch, extractor, db) {
            Ok(importer) => importer,
            Err(e) => {
                eprintln!("warning: importer state not recovered ({e}); rescanning from scratch");
                Importer::new(watch, FvecExtractor::new(dim))
            }
        },
        None => Importer::new(watch, extractor),
    }
}

fn scan_once(service: &mut FerretService, importer: &mut Importer<FvecExtractor>) -> usize {
    match importer.scan_once(&mut ServiceSink(service)) {
        Ok(report) => {
            for (path, err) in &report.failures {
                eprintln!("import failed: {}: {err}", path.display());
            }
            let changed = report.imported.len() + report.updated.len() + report.removed.len();
            if changed > 0 {
                if let Some(db) = service.db_mut() {
                    if let Err(e) = importer.save_state(db) {
                        eprintln!("warning: importer state not saved: {e}");
                    }
                    // Make the scan's commits (engine inserts + importer
                    // state) durable now; buffered durability would other-
                    // wise lose them to a crash and force a re-ingest.
                    if let Err(e) = db.flush() {
                        eprintln!("warning: scan results not flushed: {e}");
                    }
                }
            }
            changed
        }
        Err(e) => {
            eprintln!("scan failed: {e}");
            0
        }
    }
}

/// The one `ferret_memory_bytes` component the service cannot see: the
/// importer's manifest and path → id table live in this process, not in it.
fn publish_importer_memory(registry: &MetricsRegistry, importer: &Importer<FvecExtractor>) {
    registry
        .gauge(
            "ferret_memory_bytes",
            "Estimated resident bytes, by component.",
            &[("component", "importer")],
        )
        .set(importer.memory_bytes() as i64);
}

fn cmd_import(opts: &Options) {
    let watch = opts.watch.clone().unwrap_or_else(|| usage());
    let mut service = open_service(opts);
    let mut importer = open_importer(&service, &watch, opts.dim);
    let changed = scan_once(&mut service, &mut importer);
    service.flush().expect("flush");
    println!(
        "imported {} changes; {} objects in the index",
        changed,
        service.engine().len()
    );
    calibrate(&mut service, opts, false);
}

fn cmd_retune(opts: &Options) {
    calibrate(&mut open_service(opts), opts, true);
}

/// The listener bound on `addr`, or the server started on it; exits 1
/// when serve cannot listen there (a busy port or an invalid address).
fn listening<T>(addr: &str, started: std::io::Result<T>) -> T {
    started.unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {addr}: {e}");
        std::process::exit(1);
    })
}

fn cmd_serve(opts: &Options) {
    let watch = opts.watch.clone().unwrap_or_else(|| usage());
    // Bind before recovery: a bad address fails at once, and clients that
    // connect while the store recovers wait in the listen backlog.
    let tcp = listening(&opts.tcp, TcpListener::bind(&opts.tcp));
    let http = listening(&opts.http, TcpListener::bind(&opts.http));
    let mut service = open_service(opts);
    let start = Instant::now();
    let mut importer = open_importer(&service, &watch, opts.dim);
    service.record_recovery_stage("importer_state", start.elapsed());
    let start = Instant::now();
    let changed = scan_once(&mut service, &mut importer);
    service.record_recovery_stage("initial_scan", start.elapsed());
    println!(
        "initial scan: {} changes, {} objects indexed",
        changed,
        service.engine().len()
    );
    calibrate(&mut service, opts, false);
    let stages: Vec<String> = service
        .recovery()
        .stages
        .iter()
        .map(|(stage, wall)| format!("{stage} {:.3}s", wall.as_secs_f64()))
        .collect();
    println!("recovery: {}", stages.join(", "));
    let registry = opts.telemetry.then(|| Arc::new(MetricsRegistry::new()));
    if let Some(reg) = &registry {
        service.enable_telemetry(Arc::clone(reg));
        publish_importer_memory(reg, &importer);
    }
    let service = Arc::new(RwLock::new(service));

    let workers = opts
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(4)
        })
        .max(1);
    let max_inflight = opts.max_inflight.unwrap_or(4 * workers);
    // One dispatcher, and so one admission controller, for both
    // listeners: --max-inflight bounds the whole process.
    let admission = Arc::new(AdmissionControl::new(max_inflight, registry.as_ref()));
    let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&service), admission));
    let tcp = listening(
        &opts.tcp,
        Server::start(tcp, Protocol::Line, workers, Arc::clone(&dispatcher)),
    );
    let http = listening(
        &opts.http,
        Server::start(http, Protocol::Http, workers, dispatcher),
    );
    println!("query parallelism: {}", opts.threads);
    println!(
        "serving: {workers} workers per surface, max in-flight queries {}",
        if max_inflight == 0 {
            "unlimited".to_string()
        } else {
            max_inflight.to_string()
        }
    );
    println!(
        "result cache: {}",
        if opts.cache_capacity == 0 {
            "disabled".to_string()
        } else {
            format!("{} entries", opts.cache_capacity)
        }
    );
    println!("tcp protocol on {}", tcp.addr());
    println!("web interface on http://{}/", http.addr());
    if opts.telemetry {
        println!("metrics on http://{}/metrics", http.addr());
    }
    println!(
        "watching {} every {}s; Ctrl-C to stop",
        watch.display(),
        opts.scan_interval
    );

    loop {
        std::thread::sleep(std::time::Duration::from_secs(opts.scan_interval.max(1)));
        let changed = scan_once(&mut service.write(), &mut importer);
        if changed > 0 {
            println!("scan: {changed} changes applied");
            if let Some(reg) = &registry {
                publish_importer_memory(reg, &importer);
            }
        }
    }
}

fn cmd_query(opts: &Options) {
    let addr = opts.addr.clone().unwrap_or_else(|| usage());
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("error: invalid address {addr:?}");
            std::process::exit(2);
        }
    };
    if opts.rest.is_empty() {
        usage();
    }
    let command = opts.rest.join(" ");
    match Client::connect(addr) {
        Ok(mut client) => match client.send(&command) {
            Ok(reply) => print!("{reply}"),
            Err(e) => {
                eprintln!("error: send failed: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(subcommand) = args.first() else {
        usage()
    };
    let opts = parse_options(&args[1..]);
    // Only `query` takes free arguments (the protocol command); anywhere
    // else an unrecognised argument is a mistyped or removed flag, which
    // must not silently fall back to a default.
    if subcommand != "query" && !opts.rest.is_empty() {
        eprintln!("error: unrecognised arguments: {}", opts.rest.join(" "));
        usage();
    }
    match subcommand.as_str() {
        "serve" => cmd_serve(&opts),
        "import" => cmd_import(&opts),
        "retune" => cmd_retune(&opts),
        "query" => cmd_query(&opts),
        _ => usage(),
    }
}

//! Integration tests for the outward-facing components: the TCP command
//! protocol, the web interface, and the acquisition pipeline feeding a
//! live service.

// Dev-tool output and test fixtures are written directly; the Vfs seam
// covers production durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::RwLock;

use ferret::acquire::{ImportSink, Importer};
use ferret::attr::Attributes;
use ferret::core::engine::EngineConfig;
use ferret::core::error::{CoreError, Result as CoreResult};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::plugin::FileExtractor;
use ferret::core::sketch::SketchParams;
use ferret::core::vector::FeatureVector;
use ferret::query::{
    http, AdmissionControl, Client, Dispatcher, FerretService, Protocol, Server, ServiceError,
};

fn config() -> EngineConfig {
    EngineConfig::basic(
        SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap(),
        17,
    )
}

fn point(x: f32, y: f32) -> DataObject {
    DataObject::single(FeatureVector::new(vec![x, y]).unwrap())
}

/// Serves `svc` in `protocol` on an ephemeral loopback port.
fn serve(svc: Arc<RwLock<FerretService>>, protocol: Protocol) -> Server {
    let registry = svc.read().telemetry().cloned();
    let admission = Arc::new(AdmissionControl::new(0, registry.as_ref()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    Server::start(
        listener,
        protocol,
        4,
        Arc::new(Dispatcher::new(svc, admission)),
    )
    .unwrap()
}

fn shared_service(n: u64) -> Arc<RwLock<FerretService>> {
    let mut svc = FerretService::in_memory(config()).unwrap();
    for i in 0..n {
        let x = i as f32 / n as f32;
        svc.insert(
            ObjectId(i),
            point(x, 1.0 - x),
            Some(
                ferret::attr::AttrsBuilder::new()
                    .keyword("half", if 2 * i < n { "first" } else { "second" })
                    .build(),
            ),
        )
        .unwrap();
    }
    Arc::new(RwLock::new(svc))
}

#[test]
fn tcp_protocol_full_session() {
    let server = serve(shared_service(10), Protocol::Line);
    let mut client = Client::connect(server.addr()).unwrap();

    let stat = client.send("stat").unwrap();
    assert!(stat.contains("objects 10"), "{stat}");

    let reply = client.send("query id=2 k=3 mode=brute").unwrap();
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines[0], "OK 3");
    assert!(lines[1].starts_with("2 0.000000"), "{reply}");

    let reply = client
        .send("query id=0 k=2 mode=filter attr=\"half:second\"")
        .unwrap();
    for line in reply.lines().skip(1) {
        let id: u64 = line.split_whitespace().next().unwrap().parse().unwrap();
        assert!(id >= 5, "attr restriction violated: {reply}");
    }

    let reply = client.send("attr half:first").unwrap();
    assert!(reply.starts_with("OK 5"), "{reply}");

    assert!(client.send("query id=999").unwrap().starts_with("ERR"));
    assert!(client.send("quit").unwrap().starts_with("OK bye"));
    server.stop();
}

#[test]
fn web_interface_serves_json_and_html() {
    let server = serve(shared_service(6), Protocol::Http);
    let (status, body) = http::http_get(server.addr(), "/").unwrap();
    assert!(status.contains("200"));
    assert!(body.contains("<form"));

    let (status, body) = http::http_get(server.addr(), "/search?id=0&k=3&mode=brute").unwrap();
    assert!(status.contains("200"), "{status} {body}");
    assert!(body.contains("\"results\""), "{body}");

    let (status, body) = http::http_get(server.addr(), "/attr?q=half%3Afirst").unwrap();
    assert!(status.contains("200"));
    assert!(body.contains("\"ids\""), "{body}");

    let (status, _) = http::http_get(server.addr(), "/missing").unwrap();
    assert!(status.contains("404"));
    server.stop();
}

/// Parses a Prometheus text exposition into (series, value) pairs, checking
/// basic well-formedness: every non-comment line is `name[{labels}] value`,
/// and every series name is announced by `# HELP` and `# TYPE` lines.
fn parse_exposition(body: &str) -> std::collections::HashMap<String, f64> {
    let mut announced = std::collections::HashSet::new();
    let mut series = std::collections::HashMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.split_whitespace();
            let kind = parts.next().unwrap();
            assert!(kind == "HELP" || kind == "TYPE", "bad comment: {line}");
            announced.insert(parts.next().unwrap().to_string());
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let (name_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("series line has no value: {line}");
        });
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable value in: {line}");
        });
        let base = name_labels.split('{').next().unwrap();
        let base = base
            .strip_suffix("_bucket")
            .or_else(|| base.strip_suffix("_sum"))
            .or_else(|| base.strip_suffix("_count"))
            .unwrap_or(base);
        assert!(
            announced.contains(base),
            "series {base} not announced by HELP/TYPE"
        );
        series.insert(name_labels.to_string(), value);
    }
    series
}

#[test]
fn metrics_endpoint_end_to_end() {
    let svc = shared_service(8);
    let registry = Arc::new(ferret::core::telemetry::MetricsRegistry::new());
    svc.write().enable_telemetry(Arc::clone(&registry));
    let server = serve(svc, Protocol::Http);

    for id in [0, 3, 5] {
        let (status, _) =
            http::http_get(server.addr(), &format!("/search?id={id}&k=3&mode=filter")).unwrap();
        assert!(status.contains("200"), "{status}");
    }
    for q in ["half%3Afirst", "half%3Asecond"] {
        let (status, _) = http::http_get(server.addr(), &format!("/attr?q={q}")).unwrap();
        assert!(status.contains("200"), "{status}");
    }
    let (status, _) = http::http_get(server.addr(), "/definitely-missing").unwrap();
    assert!(status.contains("404"), "{status}");

    let (status, body) = http::http_get(server.addr(), "/metrics").unwrap();
    server.stop();
    assert!(status.contains("200"), "{status}");
    assert!(!body.is_empty());

    let series = parse_exposition(&body);
    let get = |k: &str| {
        *series
            .get(k)
            .unwrap_or_else(|| panic!("missing series {k}\n{body}"))
    };

    // Per-endpoint request counters match what we sent.
    assert_eq!(
        get("ferret_http_requests_total{endpoint=\"/search\",status=\"200\"}"),
        3.0
    );
    assert_eq!(
        get("ferret_http_requests_total{endpoint=\"/attr\",status=\"200\"}"),
        2.0
    );
    assert_eq!(
        get("ferret_http_requests_total{endpoint=\"other\",status=\"404\"}"),
        1.0
    );
    // Per-endpoint latency histograms count one observation per request,
    // and the +Inf bucket always equals the count.
    assert_eq!(
        get("ferret_http_request_seconds_count{endpoint=\"/search\"}"),
        3.0
    );
    assert_eq!(
        get("ferret_http_request_seconds_bucket{endpoint=\"/search\",le=\"+Inf\"}"),
        3.0
    );
    // The query pipeline behind /search recorded per-stage latencies.
    assert_eq!(get("ferret_queries_total{mode=\"filtering\"}"), 3.0);
    assert_eq!(get("ferret_query_seconds_count{mode=\"filtering\"}"), 3.0);
    assert_eq!(
        get("ferret_query_stage_seconds_count{mode=\"filtering\",stage=\"rank\"}"),
        3.0,
        "rank stage not instrumented\n{body}"
    );
    assert_eq!(
        get("ferret_query_stage_seconds_count{mode=\"filtering\",stage=\"sketch\"}"),
        3.0,
        "sketch stage not instrumented\n{body}"
    );
    assert_eq!(
        get("ferret_query_stage_seconds_count{mode=\"filtering\",stage=\"filter\"}"),
        3.0,
        "filter stage not instrumented\n{body}"
    );
    // Commands dispatched through the service were counted too.
    assert_eq!(
        get("ferret_commands_total{command=\"query\",outcome=\"ok\"}"),
        3.0
    );
    assert_eq!(
        get("ferret_commands_total{command=\"attr\",outcome=\"ok\"}"),
        2.0
    );
}

/// Extractor for a tiny CSV-of-points file format.
struct PointsExtractor;

impl FileExtractor for PointsExtractor {
    fn name(&self) -> &'static str {
        "points"
    }

    fn extract_file(&self, path: &Path) -> CoreResult<DataObject> {
        let text =
            std::fs::read_to_string(path).map_err(|e| CoreError::Extraction(e.to_string()))?;
        let mut parts = Vec::new();
        for line in text.lines() {
            let nums: Vec<f32> = line
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect();
            if nums.len() == 2 {
                parts.push((FeatureVector::new(nums)?, 1.0));
            }
        }
        DataObject::new(parts)
    }
}

struct Sink<'a>(&'a mut FerretService);

impl ImportSink for Sink<'_> {
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
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ferret-it-acq-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn acquisition_feeds_live_service() {
    let dir = tmpdir("live");
    std::fs::write(dir.join("a.csv"), "0.1, 0.1\n0.2, 0.2\n").unwrap();
    std::fs::write(dir.join("b.csv"), "0.9, 0.9\n").unwrap();
    std::fs::write(dir.join("broken.csv"), "not,numbers,here\n").unwrap();

    let mut svc = FerretService::in_memory(config()).unwrap();
    let mut importer = Importer::new(&dir, PointsExtractor);
    let report = importer.scan_once(&mut Sink(&mut svc)).unwrap();
    assert_eq!(report.imported.len(), 2);
    assert_eq!(report.failures.len(), 1, "broken.csv parses to no segments");
    assert_eq!(svc.engine().len(), 2);

    // Imported files are searchable by auto-collected attributes.
    let hits = svc.attrs().search_str("ext:csv").unwrap();
    assert_eq!(hits.len(), 2);

    // A changed file is re-imported under the same id; a removed file is
    // dropped from the engine.
    let a_id = importer.id_of(&dir.join("a.csv")).unwrap();
    std::fs::write(dir.join("a.csv"), "0.5, 0.5\n0.6, 0.6\n0.7, 0.7\n").unwrap();
    std::fs::remove_file(dir.join("b.csv")).unwrap();
    let report = importer.scan_once(&mut Sink(&mut svc)).unwrap();
    assert_eq!(report.updated.len(), 1);
    assert_eq!(report.removed.len(), 1);
    assert_eq!(svc.engine().len(), 1);
    assert!(svc.engine().contains(a_id));
    assert_eq!(
        svc.engine().object(a_id).unwrap().num_segments(),
        3,
        "updated object reflects new contents"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn acquisition_then_query_over_tcp() {
    let dir = tmpdir("tcp");
    for i in 0..5 {
        let x = 0.1 + 0.15 * i as f32;
        std::fs::write(dir.join(format!("p{i}.csv")), format!("{x}, {x}\n")).unwrap();
    }
    let mut svc = FerretService::in_memory(config()).unwrap();
    let mut importer = Importer::new(&dir, PointsExtractor);
    importer.scan_once(&mut Sink(&mut svc)).unwrap();

    let server = serve(Arc::new(RwLock::new(svc)), Protocol::Line);
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.send("query id=0 k=2 mode=brute").unwrap();
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines[0], "OK 2");
    assert!(lines[1].starts_with("0 "));
    assert!(lines[2].starts_with("1 "));
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

//! A complete search *system*: persistent service, data acquisition, the
//! command-line protocol over TCP, and the web interface — the pieces a
//! toolkit user wires together (paper §3).
//!
//! Writes a few synthetic "image" files into a watch directory, imports
//! them with a file extractor through the acquisition scanner, serves
//! queries over the TCP line protocol and HTTP, then exercises both from
//! in-process clients.
//!
//! Run with: `cargo run --example server_demo`

// Dev-tool output and test fixtures are written directly; the Vfs seam
// covers production durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use std::net::TcpListener;
use std::path::Path;
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
use ferret::query::{http, AdmissionControl, Client, Dispatcher, FerretService, Protocol, Server};
use ferret::store::{DbOptions, Durability};

/// A toy extractor: each line of the file is one segment "x y w".
struct PointFileExtractor;

impl FileExtractor for PointFileExtractor {
    fn name(&self) -> &'static str {
        "point-file"
    }

    fn extract_file(&self, path: &Path) -> CoreResult<DataObject> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CoreError::Extraction(format!("read {}: {e}", path.display())))?;
        let mut parts = Vec::new();
        for line in text.lines() {
            let nums: Vec<f32> = line
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            if let [x, y, w] = nums[..] {
                parts.push((FeatureVector::new(vec![x, y])?, w));
            }
        }
        DataObject::new(parts)
    }
}

struct ServiceSink<'a>(&'a mut FerretService);

impl ImportSink for ServiceSink<'_> {
    type Error = ferret::query::ServiceError;

    fn upsert(
        &mut self,
        id: ObjectId,
        object: DataObject,
        attributes: Attributes,
        _path: &Path,
    ) -> Result<(), Self::Error> {
        if self.0.engine().contains(id) {
            self.0.remove(id)?;
        }
        self.0.insert(id, object, Some(attributes))
    }

    fn remove(&mut self, id: ObjectId, _path: &Path) -> Result<(), Self::Error> {
        self.0.remove(id)?;
        Ok(())
    }
}

fn main() {
    let base = std::env::temp_dir().join(format!("ferret-server-demo-{}", std::process::id()));
    let watch_dir = base.join("incoming");
    let db_dir = base.join("metadata");
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&watch_dir).expect("create watch dir");

    // Drop some data files into the watch directory.
    for (i, (x, y)) in [(0.1f32, 0.1f32), (0.12, 0.11), (0.8, 0.9), (0.82, 0.88)]
        .iter()
        .enumerate()
    {
        std::fs::write(
            watch_dir.join(format!("object-{i}.pts")),
            format!("{x} {y} 1.0\n{} {} 0.5\n", x + 0.05, y - 0.05),
        )
        .expect("write data file");
    }

    // Open the persistent service (WAL + checkpoints under db_dir).
    let config = EngineConfig::basic(
        SketchParams::new(128, vec![0.0, 0.0], vec![1.0, 1.0]).expect("params"),
        5,
    );
    let db_opts = DbOptions {
        durability: Durability::Sync,
        checkpoint_every: None,
    };
    let mut service = FerretService::open(&db_dir, config, db_opts).expect("open service");

    // One acquisition pass imports everything.
    let mut importer = Importer::new(&watch_dir, PointFileExtractor);
    let report = importer
        .scan_once(&mut ServiceSink(&mut service))
        .expect("scan");
    println!(
        "acquisition: imported {} objects ({} failures)",
        report.imported.len(),
        report.failures.len()
    );

    let service = Arc::new(RwLock::new(service));

    // Serve the command-line protocol and the web interface, each on its
    // own listener, through one dispatcher (no admission limit here).
    let dispatcher = Arc::new(Dispatcher::new(
        Arc::clone(&service),
        Arc::new(AdmissionControl::new(0, None)),
    ));
    let serve = |protocol| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        Server::start(listener, protocol, 2, Arc::clone(&dispatcher)).expect("server")
    };
    let tcp = serve(Protocol::Line);
    let web = serve(Protocol::Http);
    println!(
        "tcp server on {}, web interface on http://{}/",
        tcp.addr(),
        web.addr()
    );

    // Talk to it like a script would (paper §4.1.4).
    let mut client = Client::connect(tcp.addr()).expect("connect");
    for command in [
        "stat",
        "attr ext:pts",
        "query id=0 k=3 mode=brute",
        "query id=0 k=3 mode=filter attr=\"filename:object\"",
    ] {
        println!("\n> {command}");
        print!("{}", client.send(command).expect("send"));
    }

    // And like a browser would.
    let (status, body) = http::http_get(web.addr(), "/search?id=2&k=2&mode=sketch").expect("http");
    println!("\nGET /search?id=2&k=2&mode=sketch -> {status}\n{body}");

    tcp.stop();
    web.stop();
    std::fs::remove_dir_all(&base).ok();
    println!("\ndone.");
}

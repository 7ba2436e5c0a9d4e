//! Telemetry tie-in for injected storage faults: when the metadata store
//! fails underneath the service, the failure must be observable — the
//! `ferret_store_errors_total` counter increments with the failing
//! operation's label and the series shows up in `GET /metrics`.

use std::sync::Arc;

use ferret_core::engine::EngineConfig;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::sketch::SketchParams;
use ferret_core::telemetry::MetricsRegistry;
use ferret_core::vector::FeatureVector;
use ferret_query::http::route;
use ferret_query::{AdmissionControl, Dispatcher, FerretService};
use ferret_store::vfs::{FaultPlan, FaultVfs, StdVfs};
use ferret_store::{DbOptions, Durability};
use parking_lot::RwLock;

/// Serves `GET /metrics` for `svc` without a listener.
fn metrics(svc: FerretService) -> (&'static str, &'static str, String) {
    let svc = Arc::new(RwLock::new(svc));
    let dispatcher = Dispatcher::new(svc, Arc::new(AdmissionControl::new(0, None)));
    route(&dispatcher, "/metrics")
}

fn config() -> EngineConfig {
    EngineConfig::basic(
        SketchParams::new(128, vec![0.0; 3], vec![1.0; 3]).unwrap(),
        7,
    )
}

fn obj(x: f32) -> DataObject {
    DataObject::single(FeatureVector::new(vec![x, x, x]).unwrap())
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ferret-faulttel-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// An injected WAL write failure during insert increments the store-error
/// counter with `op="insert"`, rolls the engine back, and the series is
/// served by the `/metrics` endpoint.
#[test]
fn injected_write_failure_counts_and_serves_in_metrics() {
    let dir = tmpdir("insert");
    // Opening writes nothing (the new log is created empty), so data
    // write #0 is the first commit's log flush.
    let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::fail_nth_write(0));
    let mut svc = FerretService::open_with_vfs(
        Arc::new(fault.clone()),
        &dir,
        config(),
        DbOptions {
            durability: Durability::Sync,
            checkpoint_every: None,
        },
    )
    .expect("open performs no data writes");
    let registry = Arc::new(MetricsRegistry::new());
    svc.enable_telemetry(Arc::clone(&registry));

    let err = svc
        .insert(ObjectId(7), obj(0.4), None)
        .expect_err("first commit's log write is the injected failure");
    assert!(
        err.to_string().contains("injected fault"),
        "unexpected error: {err}"
    );
    assert!(fault.tripped());
    // The engine was rolled back so memory matches storage.
    assert_eq!(svc.engine().len(), 0);
    assert_eq!(
        registry.counter_value("ferret_store_errors_total", &[("op", "insert")]),
        Some(1)
    );

    let (status, ctype, body) = metrics(svc);
    assert_eq!(status, "200 OK");
    assert!(ctype.starts_with("text/plain"), "{ctype}");
    assert!(
        body.contains("ferret_store_errors_total{op=\"insert\"} 1"),
        "store error series missing from /metrics:\n{body}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Flush and checkpoint failures (simulated ENOSPC) label their own
/// series; commits buffered before the failed flush never lied about
/// durability and the counters tell the operator which path failed.
#[test]
fn flush_and_checkpoint_failures_have_their_own_series() {
    let dir = tmpdir("flush");
    // Byte budget 0: every data write is ENOSPC, but opening an empty
    // store and buffering commits in memory perform none.
    let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::with_byte_budget(0));
    let mut svc = FerretService::open_with_vfs(
        Arc::new(fault.clone()),
        &dir,
        config(),
        DbOptions {
            durability: Durability::Buffered { flush_every: 1000 },
            checkpoint_every: None,
        },
    )
    .expect("open performs no data writes");
    let registry = Arc::new(MetricsRegistry::new());
    svc.enable_telemetry(Arc::clone(&registry));

    // Commits succeed into the write buffer without touching the disk.
    svc.insert(ObjectId(1), obj(0.2), None).unwrap();
    svc.insert(ObjectId(2), obj(0.6), None).unwrap();
    assert_eq!(
        registry.counter_value("ferret_store_errors_total", &[("op", "insert")]),
        None
    );

    svc.flush().expect_err("flush must hit the byte budget");
    assert_eq!(
        registry.counter_value("ferret_store_errors_total", &[("op", "flush")]),
        Some(1)
    );
    svc.checkpoint()
        .expect_err("checkpoint's snapshot write must hit the byte budget");
    assert_eq!(
        registry.counter_value("ferret_store_errors_total", &[("op", "checkpoint")]),
        Some(1)
    );

    let (status, _, body) = metrics(svc);
    assert_eq!(status, "200 OK");
    assert!(
        body.contains("ferret_store_errors_total{op=\"flush\"} 1"),
        "flush series missing:\n{body}"
    );
    assert!(
        body.contains("ferret_store_errors_total{op=\"checkpoint\"} 1"),
        "checkpoint series missing:\n{body}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

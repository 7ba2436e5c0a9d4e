//! Integration tests for concurrent query serving: several client
//! connections querying a live server while a writer mutates the index,
//! plus admission control across both serving surfaces.
//!
//! No test slows a query down to keep it in flight. A test that needs one
//! held holds the service's write lock instead: a query is admitted before
//! it takes the service lock, so it then waits on the read lock with its
//! admission slot taken until the test lets go.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use ferret::core::engine::EngineConfig;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::sketch::SketchParams;
use ferret::core::telemetry::MetricsRegistry;
use ferret::core::vector::FeatureVector;
use ferret::query::{http, AdmissionControl, Client, Dispatcher, FerretService, Protocol, Server};

fn config() -> EngineConfig {
    EngineConfig::basic(
        SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap(),
        17,
    )
}

fn point(x: f32, y: f32) -> DataObject {
    DataObject::single(FeatureVector::new(vec![x, y]).unwrap())
}

/// Serves `dispatcher` in `protocol` on an ephemeral loopback port.
fn serve(dispatcher: &Arc<Dispatcher>, protocol: Protocol, workers: usize) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    Server::start(listener, protocol, workers, Arc::clone(dispatcher)).unwrap()
}

/// Polls until `done` holds, for at most ten seconds.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A service whose first `n` objects cluster near the origin; background
/// inserts land far away so brute-force top-k results never change.
fn clustered_service(n: u64) -> Arc<RwLock<FerretService>> {
    let mut svc = FerretService::in_memory(config()).unwrap();
    for i in 0..n {
        let x = 0.05 + i as f32 * 0.03;
        svc.insert(ObjectId(i), point(x, x), None).unwrap();
    }
    Arc::new(RwLock::new(svc))
}

/// Four clients query concurrently while a background writer inserts new
/// objects. Every reply must be bit-identical to the serial baseline, and
/// the in-flight gauge must have observed at least two simultaneous
/// queries.
#[test]
fn concurrent_queries_match_serial_baseline_during_inserts() {
    let svc = clustered_service(8);
    let registry = Arc::new(MetricsRegistry::new());
    svc.write().enable_telemetry(Arc::clone(&registry));

    // Serial baseline, computed before any concurrency exists. The
    // background inserts are far from the seed cluster and the queries
    // use brute-force mode, so these replies are invariant.
    let commands: Vec<String> = (0..4)
        .map(|i| format!("query id={i} k=3 mode=brute"))
        .collect();
    let baseline: Vec<String> = {
        let mut svc = svc.write();
        commands.iter().map(|c| svc.execute_line(c)).collect()
    };
    for reply in &baseline {
        assert!(reply.starts_with("OK 3"), "{reply}");
    }

    let admission = Arc::new(AdmissionControl::new(8, Some(&registry)));
    let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&svc), Arc::clone(&admission)));
    let server = serve(&dispatcher, Protocol::Line, 6);
    let addr = server.addr();

    // The clients' first queries are admitted and then wait on the read
    // lock behind this gate, so at least two are in flight at once.
    let gate = svc.write();
    let writer_done = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let commands = commands.clone();
            let baseline = baseline.clone();
            let writer_done = Arc::clone(&writer_done);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // At least eight rounds, and on until every insert landed.
                for round in 0.. {
                    if round >= 8 && writer_done.load(Ordering::Relaxed) {
                        break;
                    }
                    let idx = (i + round) % commands.len();
                    let reply = client.send(&commands[idx]).unwrap();
                    assert_eq!(
                        reply, baseline[idx],
                        "client {i} round {round} diverged from serial baseline"
                    );
                }
            })
        })
        .collect();
    wait_until(|| admission.inflight() >= 2);
    drop(gate);

    // Background writer: inserts far-away objects through the write lock
    // while the clients are querying.
    let writer_svc = Arc::clone(&svc);
    let writer = std::thread::spawn(move || {
        for j in 0..20u64 {
            let mut svc = writer_svc.write();
            svc.insert(ObjectId(1000 + j), point(0.95, 0.95), None)
                .unwrap();
            drop(svc);
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    writer.join().unwrap();
    writer_done.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }

    let peak = registry.gauge("ferret_inflight_queries_peak", "", &[]);
    assert!(
        peak.get() >= 2,
        "expected >=2 simultaneous in-flight queries, peak was {}",
        peak.get()
    );
    // All slots were released.
    let inflight = registry.gauge("ferret_inflight_queries", "", &[]);
    assert_eq!(inflight.get(), 0);
    // The writer's inserts actually landed.
    assert_eq!(svc.read().engine().len(), 28);
    server.stop();
}

/// Result-cache staleness under concurrency: while a writer toggles one
/// object in and out of the index, cache-enabled readers must only ever
/// see one of the two valid replies — the pre-insert ranking or the
/// post-insert ranking — never a mix, and never a reply cached under an
/// index state that has since changed. Afterwards the reply must match
/// the final index state exactly, and the cache must have actually
/// served hits during the run.
#[test]
fn concurrent_readers_never_observe_stale_cache_hits() {
    let mut svc = FerretService::builder(config())
        .cache_capacity(32)
        .build_in_memory()
        .unwrap();
    for i in 0..6u64 {
        let x = 0.05 + i as f32 * 0.03;
        svc.insert(ObjectId(i), point(x, x), None).unwrap();
    }
    let registry = Arc::new(MetricsRegistry::new());
    svc.enable_telemetry(Arc::clone(&registry));

    // The toggled object sits right next to the seed cluster, so its
    // presence changes the brute-force top-k reply.
    let toggled = ObjectId(999);
    let q = "query id=0 k=4 mode=brute";
    let reply_without = svc.execute_line(q);
    svc.insert(toggled, point(0.06, 0.06), None).unwrap();
    let reply_with = svc.execute_line(q);
    assert_ne!(reply_without, reply_with);
    svc.remove(toggled).unwrap();

    let svc = Arc::new(RwLock::new(svc));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let writer_svc = Arc::clone(&svc);
    let writer = std::thread::spawn(move || {
        for round in 0..30u32 {
            {
                let mut svc = writer_svc.write();
                if round % 2 == 0 {
                    svc.insert(toggled, point(0.06, 0.06), None).unwrap();
                } else {
                    svc.remove(toggled).unwrap();
                }
            }
            std::thread::sleep(Duration::from_millis(3));
        }
    });

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let reply_with = reply_with.clone();
            let reply_without = reply_without.clone();
            std::thread::spawn(move || {
                // The server's shared-lock read path: parse, execute
                // under the read lock, render.
                let cmd = ferret::query::parse_command(q).unwrap();
                let mut observed = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = svc.read().execute_read(&cmd).unwrap();
                    let reply = ferret::query::render_reply(&cmd, &resp);
                    assert!(
                        reply == reply_with || reply == reply_without,
                        "reader {r} saw a reply matching neither index state:\n{reply}"
                    );
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    writer.join().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u32 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers never ran");

    // The final reply must reflect the final index state (writer ended
    // on an odd round → remove → object absent).
    assert_eq!(svc.write().execute_line(q), reply_without);

    // The run exercised the cache on both sides: hits were served, and
    // every epoch bump forced at least one fresh miss.
    let hits = registry
        .counter_value("ferret_cache_hits_total", &[])
        .unwrap();
    let misses = registry
        .counter_value("ferret_cache_misses_total", &[])
        .unwrap();
    assert!(hits > 0, "no cache hit was ever served");
    assert!(misses > 0, "no cache miss ever recomputed");
}

/// One admission controller shared by the TCP and HTTP servers: a TCP
/// query holding the only slot makes a concurrent HTTP `/search` answer
/// 503 promptly (no hang), and both surfaces recover once the slot frees.
#[test]
fn shared_admission_rejects_across_surfaces() {
    let svc = clustered_service(6);
    let registry = Arc::new(MetricsRegistry::new());
    svc.write().enable_telemetry(Arc::clone(&registry));
    let admission = Arc::new(AdmissionControl::new(1, Some(&registry)));
    let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&svc), Arc::clone(&admission)));
    let tcp = serve(&dispatcher, Protocol::Line, 2);
    let web = serve(&dispatcher, Protocol::Http, 2);
    let tcp_addr = tcp.addr();
    let web_addr = web.addr();

    // Occupy the single slot over TCP: the query is admitted and then
    // waits on the read lock behind this gate...
    let gate = svc.write();
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(tcp_addr).unwrap();
        client.send("query id=0 k=2 mode=brute").unwrap()
    });
    // ...wait until it holds the slot (an HTTP query racing it to the slot
    // would bounce the TCP one instead, and nothing would stay in flight)...
    let deadline = Instant::now() + Duration::from_secs(10);
    while admission.inflight() == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    // ...and hammer HTTP until a 503 comes back. Replies must be prompt.
    let mut saw_503 = false;
    while Instant::now() < deadline {
        let start = Instant::now();
        let (status, body) = http::http_get(web_addr, "/search?id=1&k=2&mode=brute").unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "HTTP reply took {:?}",
            start.elapsed()
        );
        if status.contains("503") {
            assert!(body.contains("BUSY"), "{body}");
            saw_503 = true;
            break;
        }
        assert!(status.contains("200"), "{status}");
    }
    assert!(saw_503, "saturating the shared limit never produced a 503");
    drop(gate);
    assert!(slow.join().unwrap().starts_with("OK"));
    assert!(
        registry
            .counter_value("ferret_rejected_total", &[])
            .unwrap()
            >= 1
    );

    // Recovery: with no query in flight, both surfaces serve again.
    let (status, _) = http::http_get(web_addr, "/search?id=1&k=2&mode=brute").unwrap();
    assert!(status.contains("200"), "{status}");
    let mut client = Client::connect(tcp_addr).unwrap();
    assert!(client.send("stat").unwrap().contains("objects 6"));
    web.stop();
    tcp.stop();
}

/// Graceful drain: stopping the server lets the command in flight finish
/// and its reply reach the client.
#[test]
fn shutdown_drains_in_flight_commands() {
    let svc = clustered_service(6);
    let admission = Arc::new(AdmissionControl::new(0, None));
    let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&svc), Arc::clone(&admission)));
    let server = serve(&dispatcher, Protocol::Line, 2);
    let addr = server.addr();
    // The query is admitted, then waits on the read lock behind the gate.
    let gate = svc.write();
    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.send("query id=0 k=2 mode=brute").unwrap()
    });
    // Wait until the query is actually admitted (a fixed sleep loses
    // this race on a loaded 1-core host), then stop mid-query.
    wait_until(|| admission.inflight() > 0);
    assert!(admission.inflight() > 0, "query was never admitted");
    let stopping = std::thread::spawn(move || server.stop());
    // The stop has begun once the listener is closed; only then may the
    // query finish.
    wait_until(|| TcpStream::connect(addr).is_err());
    assert!(
        TcpStream::connect(addr).is_err(),
        "the stop never closed the listener"
    );
    drop(gate);
    stopping.join().unwrap();
    let reply = inflight.join().unwrap();
    assert!(reply.starts_with("OK 2"), "{reply}");
}

//! Determinism guards for the relaxed atomic orderings.
//!
//! This PR downgraded several `SeqCst` sites (see the `// ordering:`
//! comments at each atomic): the cache epoch to `Acquire`/`AcqRel` and
//! the server/http stop flags to `Relaxed`. These tests pin the two
//! properties those downgrades must preserve: an epoch observed by a
//! reader is never newer than the entries that reader can hit, and the
//! stop handshake still terminates every worker and accept loop.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use ferret_core::engine::EngineConfig;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::sketch::SketchParams;
use ferret_core::vector::FeatureVector;
use ferret_query::protocol::Response;
use ferret_query::{
    AdmissionControl, Client, Dispatcher, FerretService, Protocol, ResultCache, Server,
};
use parking_lot::RwLock;

fn resp(id: u64) -> Response {
    Response::Results(vec![(ObjectId(id), 0.5)])
}

/// Readers race `epoch()` + `lookup()` against a writer doing
/// `bump_epoch()` + `store()`. The writer stores `resp(i)` right after
/// the i-th bump, so every entry's payload id equals the epoch it was
/// stamped with — a reader that first observes epoch `e` and then hits
/// must therefore see a payload id ≥ `e`: with the Acquire load pairing
/// with the AcqRel bump, a hit can never surface an entry from an epoch
/// older than one the reader already proved was current.
#[test]
fn cache_hits_are_never_older_than_an_observed_epoch() {
    let cache = Arc::new(ResultCache::new(8));
    let stop = Arc::new(AtomicBool::new(false));
    const BUMPS: u64 = 20_000;

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let e = cache.epoch();
                    assert!(e >= last_epoch, "epoch went backwards: {last_epoch} -> {e}");
                    last_epoch = e;
                    if let Some(Response::Results(hits)) = cache.lookup("k") {
                        let id = hits[0].0 .0;
                        assert!(
                            id >= e,
                            "hit from epoch {id} after having observed epoch {e}"
                        );
                        assert!(id <= BUMPS);
                    }
                }
            })
        })
        .collect();

    for i in 1..=BUMPS {
        cache.bump_epoch();
        cache.store("k".into(), resp(i));
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader must not panic");
    }
    assert_eq!(cache.epoch(), BUMPS);
    // After the writer finishes, the final entry is current and must hit.
    assert_eq!(cache.lookup("k"), Some(resp(BUMPS)));
}

fn tiny_service() -> FerretService {
    let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).expect("valid params");
    let mut svc = FerretService::in_memory(EngineConfig::basic(params, 0xFE44E7)).unwrap();
    let objects = (0..4u64)
        .map(|id| {
            let v = FeatureVector::from_components(vec![id as f32 * 0.1, 0.5]);
            let obj = DataObject::new(vec![(v, 1.0)]).expect("valid object");
            (ObjectId(id), obj, None)
        })
        .collect();
    svc.insert_batch(objects).expect("insert");
    svc
}

/// The workers' stop checks are `Relaxed`: the `join` in `stop()` is the
/// real synchronization point, and the accept loop is woken by a
/// connection. Repeatedly starting, exercising, and stopping both
/// surfaces proves the handshake cannot hang — under a broken ordering
/// this test wedges instead of failing.
#[test]
fn server_stop_handshake_terminates_under_relaxed_flags() {
    for round in 0..5 {
        let service = Arc::new(RwLock::new(tiny_service()));
        let dispatcher = Arc::new(Dispatcher::new(
            service,
            Arc::new(AdmissionControl::new(0, None)),
        ));
        let serve = |protocol| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            Server::start(listener, protocol, 4, Arc::clone(&dispatcher)).expect("server")
        };
        let tcp = serve(Protocol::Line);
        let http = serve(Protocol::Http);

        let mut client = Client::connect(tcp.addr()).expect("connect");
        let reply = client.send("stat").expect("stat");
        assert!(!reply.is_empty(), "round {round}: empty reply");

        // Stop while a client connection is still open: the drain path
        // must still terminate.
        tcp.stop();
        http.stop();
    }
}

//! Property and lifecycle tests for the multi-index Hamming sketch index.
//!
//! The contract under test (DESIGN.md, "Sub-linear sketch filtering"):
//! the `Indexed` filter strategy must be *byte-identical* to the linear
//! scan — same ranked results, same candidate sets, same candidate
//! counts — for every corpus, thread count, and threshold setting, and
//! the index must stay correct across inserts, removals, and crash
//! recovery.

use proptest::prelude::*;

use std::collections::HashSet;
use std::path::PathBuf;

use ferret::core::engine::{EngineBuilder, EngineConfig, QueryMode, QueryOptions, SearchEngine};
use ferret::core::filter::{
    filter_candidates, filter_candidates_indexed, FilterParams, FilterStrategy,
    IndexedFilterOutcome,
};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::sketch::{ShardedSketchIndex, SketchParams, SketchedObject};
use ferret::core::vector::FeatureVector;
use ferret::query::FerretService;
use ferret::store::DbOptions;

fn vec_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..1.0, dim)
}

fn object_strategy(dim: usize) -> impl Strategy<Value = DataObject> {
    prop::collection::vec((vec_strategy(dim), 0.1f32..2.0), 1..4).prop_map(|parts| {
        DataObject::new(
            parts
                .into_iter()
                .map(|(c, w)| (FeatureVector::from_components(c), w))
                .collect(),
        )
        .expect("valid generated object")
    })
}

fn engine_with(objects: &[DataObject], seed: u64, strategy: FilterStrategy) -> SearchEngine {
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let mut config = EngineConfig::basic(params, seed);
    config.filter_strategy = strategy;
    let mut engine = EngineBuilder::from_config(config).build().unwrap();
    engine.set_parallelism(Parallelism::Serial);
    for (i, obj) in objects.iter().enumerate() {
        engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
    }
    engine
}

/// Deterministic pseudo-random components without a generator dependency.
fn mix(seed: u64, i: u64, d: u64) -> f32 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(d.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    (z % 10_000) as f32 / 10_000.0
}

fn mixed_object(seed: u64, i: u64) -> DataObject {
    DataObject::single(
        FeatureVector::new(vec![mix(seed, i, 0), mix(seed, i, 1), mix(seed, i, 2)]).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An `Indexed` engine answers every filtering query with the same
    /// ranked results and distance evaluations as a `Scan` twin, across
    /// random corpora, thresholds, attenuations, and thread counts — and
    /// the indexed path itself is deterministic across thread counts.
    #[test]
    fn indexed_engine_matches_scan_engine(
        objects in prop::collection::vec(object_strategy(3), 4..20),
        k in 1usize..6,
        cand in 1usize..5,
        threshold in prop_oneof![Just(None), (0u32..12).prop_map(Some)],
        attenuation in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let scan = engine_with(&objects, seed, FilterStrategy::Scan);
        let mut indexed = engine_with(&objects, seed, FilterStrategy::Indexed);
        let opts = QueryOptions::default()
            .with_mode(QueryMode::Filtering)
            .with_k(k)
            .with_filter(FilterParams {
                query_segments: 2,
                candidates_per_segment: cand,
                base_threshold: threshold,
                weight_attenuation: attenuation,
            });
        let base = scan.query_by_id(ObjectId(0), &opts).unwrap();
        let mut probe_stats = None;
        for p in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(7)] {
            indexed.set_parallelism(p);
            let resp = indexed.query_by_id(ObjectId(0), &opts).unwrap();
            prop_assert_eq!(&resp.results, &base.results, "{} threshold {:?}", p, threshold);
            prop_assert_eq!(resp.stats.distance_evals, base.stats.distance_evals);
            // The probe's own statistics must not depend on the thread count.
            let snapshot = (
                resp.stats.objects_scanned,
                resp.stats.segments_scanned,
                resp.stats.distance_evals,
            );
            match &probe_stats {
                None => probe_stats = Some(snapshot),
                Some(first) => prop_assert_eq!(&snapshot, first, "{}", p),
            }
        }
    }

    /// With a static exactness guarantee (every slot threshold within the
    /// index radius) the raw indexed probe returns the *identical*
    /// candidate set and candidate count as the linear scan, for any
    /// shard layout and thread count.
    #[test]
    fn indexed_probe_candidates_identical_to_scan(
        objects in prop::collection::vec(object_strategy(3), 4..20),
        cand in 1usize..5,
        threshold in 0u32..8,
        seed in 0u64..100,
    ) {
        let engine = engine_with(&objects, seed, FilterStrategy::Scan);
        let query = engine.sketched(ObjectId(0)).unwrap().clone();
        let params = FilterParams {
            query_segments: 2,
            candidates_per_segment: cand,
            base_threshold: Some(threshold),
            weight_attenuation: 0.0,
        };
        let dataset: Vec<(ObjectId, &SketchedObject)> = engine
            .ids()
            .iter()
            .map(|&id| (id, engine.sketched(id).unwrap()))
            .collect();
        let (scan_set, scan_stats) =
            filter_candidates(&query, dataset.iter().map(|&(id, so)| (id, so)), &params)
                .unwrap();
        // Tiny shard capacity so even small corpora span several shards.
        let mut index = ShardedSketchIndex::with_options(64, 8, 3).unwrap();
        for &(id, so) in &dataset {
            index.insert(id, so).unwrap();
        }
        // threshold < 8 = block count ⇒ the probe is provably exhaustive,
        // so it never falls back.
        let mut first: Option<(HashSet<ObjectId>, usize)> = None;
        for threads in [1usize, 2, 7] {
            match filter_candidates_indexed(&query, &index, &params, None, threads).unwrap() {
                IndexedFilterOutcome::Exact { candidates, stats, .. } => {
                    prop_assert_eq!(&candidates, &scan_set, "threads {}", threads);
                    prop_assert_eq!(stats.candidates, scan_stats.candidates);
                    let snapshot = (candidates, stats.segments_scanned);
                    match &first {
                        None => first = Some(snapshot),
                        Some(f) => prop_assert_eq!(&snapshot, f, "threads {}", threads),
                    }
                }
                IndexedFilterOutcome::Fallback { .. } => {
                    prop_assert!(false, "static guarantee must yield Exact");
                }
            }
        }
    }
}

/// The index follows the engine through interleaved inserts, removals,
/// and re-inserts: after every mutation the `Indexed` engine still
/// answers exactly like a `Scan` twin.
#[test]
fn index_maintenance_tracks_engine_mutations() {
    let seed = 0xA5E_u64;
    let opts = QueryOptions::default()
        .with_mode(QueryMode::Filtering)
        .with_k(5)
        .with_filter(FilterParams {
            query_segments: 2,
            candidates_per_segment: 8,
            base_threshold: Some(6),
            weight_attenuation: 0.25,
        });
    let mut scan = engine_with(&[], seed, FilterStrategy::Scan);
    let mut indexed = engine_with(&[], seed, FilterStrategy::Indexed);
    let check = |scan: &SearchEngine, indexed: &SearchEngine, step: &str| {
        let a = scan.query_by_id(ObjectId(0), &opts).unwrap();
        let b = indexed.query_by_id(ObjectId(0), &opts).unwrap();
        assert_eq!(a.results, b.results, "divergence after {step}");
    };
    for i in 0..40u64 {
        let obj = mixed_object(seed, i);
        scan.insert(ObjectId(i), obj.clone()).unwrap();
        indexed.insert(ObjectId(i), obj).unwrap();
    }
    check(&scan, &indexed, "initial load");
    for i in 40..60u64 {
        let obj = mixed_object(seed, i);
        scan.insert(ObjectId(i), obj.clone()).unwrap();
        indexed.insert(ObjectId(i), obj).unwrap();
    }
    check(&scan, &indexed, "incremental insert");
    for i in (10..30u64).step_by(3) {
        assert!(scan.remove(ObjectId(i)).unwrap());
        assert!(indexed.remove(ObjectId(i)).unwrap());
    }
    check(&scan, &indexed, "removal");
    for i in (10..30u64).step_by(3) {
        let obj = mixed_object(seed.wrapping_add(7), i);
        scan.insert(ObjectId(i), obj.clone()).unwrap();
        indexed.insert(ObjectId(i), obj).unwrap();
    }
    check(&scan, &indexed, "re-insert after removal");
}

/// `Auto` scans and builds no index, even for corpora and thresholds that
/// would make a probe exact; an explicit switch to `Indexed` builds the
/// index on demand and a switch away drops it again.
#[test]
fn auto_strategy_and_runtime_switching() {
    let seed = 0xBEEF_u64;
    let exact_opts = QueryOptions::default()
        .with_mode(QueryMode::Filtering)
        .with_k(3)
        .with_filter(FilterParams {
            query_segments: 1,
            candidates_per_segment: 8,
            base_threshold: Some(6),
            weight_attenuation: 0.0,
        });
    let mut engine = engine_with(&[], seed, FilterStrategy::Auto);
    let registry = std::sync::Arc::new(ferret::core::telemetry::MetricsRegistry::new());
    engine.set_telemetry(Some(std::sync::Arc::clone(&registry)));
    for i in 0..300u64 {
        engine.insert(ObjectId(i), mixed_object(seed, i)).unwrap();
    }
    let resp = engine.query_by_id(ObjectId(0), &exact_opts).unwrap();
    let strategy = resp.trace.unwrap().filter_strategy.unwrap();
    assert_eq!(strategy, "scan", "auto must never probe");
    assert!(engine.filter_index().is_none());
    assert_eq!(engine.filter_index_bytes(), 0);
    assert!(registry
        .render_prometheus()
        .lines()
        .any(|line| line == "ferret_index_memory_bytes 0"));

    // Force the index regardless of corpus size.
    engine.set_filter_strategy(FilterStrategy::Indexed).unwrap();
    assert!(engine.filter_index().is_some());
    assert!(engine.filter_index_bytes() > 0);
    let resp = engine.query_by_id(ObjectId(0), &exact_opts).unwrap();
    let strategy = resp.trace.unwrap().filter_strategy.unwrap();
    assert_eq!(strategy, "indexed");

    // Without any threshold the probe cannot prove exactness up front;
    // the engine must degrade to the scan, not to wrong answers.
    let unbounded = QueryOptions::default()
        .with_mode(QueryMode::Filtering)
        .with_k(3)
        .with_filter(FilterParams {
            query_segments: 1,
            candidates_per_segment: 200,
            base_threshold: None,
            weight_attenuation: 0.0,
        });
    let resp = engine.query_by_id(ObjectId(0), &unbounded).unwrap();
    let strategy = resp.trace.unwrap().filter_strategy.unwrap();
    assert_eq!(strategy, "indexed-fallback");

    // Dropping back to Auto (or Scan) frees the index.
    engine.set_filter_strategy(FilterStrategy::Auto).unwrap();
    assert!(engine.filter_index().is_none());
    assert_eq!(engine.filter_index_bytes(), 0);
    let resp = engine.query_by_id(ObjectId(0), &exact_opts).unwrap();
    assert_eq!(resp.trace.unwrap().filter_strategy.unwrap(), "scan");
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ferret-it-fidx-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recovery replay rebuilds the sketch index: a service reopened from
/// disk carries an index equivalent to a fresh build and answers
/// identically to a scan over the recovered corpus.
#[test]
fn recovery_replay_rebuilds_index() {
    let dir = tmpdir("recovery");
    let seed = 0xD15C_u64;
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let mut config = EngineConfig::basic(params, seed);
    config.filter_strategy = FilterStrategy::Indexed;
    let opts = QueryOptions::default()
        .with_mode(QueryMode::Filtering)
        .with_k(5)
        .with_filter(FilterParams {
            query_segments: 1,
            candidates_per_segment: 8,
            base_threshold: Some(6),
            weight_attenuation: 0.0,
        });

    let before = {
        let mut svc = FerretService::open(&dir, config.clone(), DbOptions::default()).unwrap();
        for i in 0..50u64 {
            svc.insert(ObjectId(i), mixed_object(seed, i), None)
                .unwrap();
        }
        svc.flush().unwrap();
        let idx = svc.engine().filter_index().expect("index present");
        let fingerprint = (idx.len(), idx.live_segments());
        let resp = svc.engine().query_by_id(ObjectId(0), &opts).unwrap();
        (fingerprint, resp.results)
    };

    // Reopen: recovery replay must rebuild an equivalent index.
    let svc = FerretService::open(&dir, config.clone(), DbOptions::default()).unwrap();
    let idx = svc
        .engine()
        .filter_index()
        .expect("index rebuilt on recovery");
    assert_eq!((idx.len(), idx.live_segments()), before.0);
    let resp = svc.engine().query_by_id(ObjectId(0), &opts).unwrap();
    assert_eq!(resp.results, before.1);

    // And the recovered index still answers exactly like a fresh scan twin.
    let mut scan_config = config;
    scan_config.filter_strategy = FilterStrategy::Scan;
    let mut scan = EngineBuilder::from_config(scan_config).build().unwrap();
    scan.set_parallelism(Parallelism::Serial);
    for i in 0..50u64 {
        scan.insert(ObjectId(i), mixed_object(seed, i)).unwrap();
    }
    let base = scan.query_by_id(ObjectId(0), &opts).unwrap();
    assert_eq!(resp.results, base.results);

    std::fs::remove_dir_all(&dir).ok();
}

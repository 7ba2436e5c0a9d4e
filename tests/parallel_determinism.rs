//! Property tests for the determinism contract of the parallel execution
//! layer: every query path must return bit-identical answers for every
//! thread count (see DESIGN.md §4, "Threading model").

use proptest::prelude::*;

use ferret::core::engine::{QueryMode, QueryOptions, SearchEngine};
use ferret::core::filter::{filter_candidates, filter_candidates_sharded, FilterParams};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::sketch::{SketchParams, SketchedObject};
use ferret::core::vector::FeatureVector;

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

fn engine_with(objects: &[DataObject], seed: u64) -> SearchEngine {
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let mut engine = SearchEngine::builder(params, seed).build().unwrap();
    engine.set_parallelism(Parallelism::Serial);
    for (i, obj) in objects.iter().enumerate() {
        engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Filtering and brute-force-original queries return identical ids,
    /// distances, and scan statistics for every parallelism setting.
    #[test]
    fn queries_identical_across_thread_counts(
        objects in prop::collection::vec(object_strategy(3), 4..14),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut engine = engine_with(&objects, seed);
        let opts = [
            QueryOptions::default()
                .with_mode(QueryMode::BruteForceOriginal)
                .with_k(k),
            QueryOptions::default()
                .with_mode(QueryMode::Filtering)
                .with_k(k)
                .with_filter(FilterParams {
                    query_segments: 2,
                    candidates_per_segment: 3,
                    ..FilterParams::default()
                }),
        ];
        let baselines: Vec<_> = opts
            .iter()
            .map(|o| engine.query_by_id(ObjectId(0), o).unwrap())
            .collect();
        for p in [Parallelism::Threads(2), Parallelism::Threads(7)] {
            engine.set_parallelism(p);
            for (o, base) in opts.iter().zip(&baselines) {
                let resp = engine.query_by_id(ObjectId(0), o).unwrap();
                prop_assert_eq!(&resp.results, &base.results, "{} {:?}", p, o.mode);
                prop_assert_eq!(resp.stats.objects_scanned, base.stats.objects_scanned);
                prop_assert_eq!(resp.stats.segments_scanned, base.stats.segments_scanned);
                prop_assert_eq!(resp.stats.distance_evals, base.stats.distance_evals);
            }
        }
    }

    /// Telemetry is pure observation: enabling it must not perturb results,
    /// distances, or scan statistics — for any query mode or thread count.
    #[test]
    fn telemetry_never_perturbs_results(
        objects in prop::collection::vec(object_strategy(3), 4..14),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut engine = engine_with(&objects, seed);
        let opts = [
            QueryOptions::default()
                .with_mode(QueryMode::BruteForceOriginal)
                .with_k(k),
            QueryOptions::default()
                .with_mode(QueryMode::BruteForceSketch)
                .with_k(k),
            QueryOptions::default()
                .with_mode(QueryMode::Filtering)
                .with_k(k)
                .with_filter(FilterParams {
                    query_segments: 2,
                    candidates_per_segment: 3,
                    ..FilterParams::default()
                }),
        ];
        // Baseline: telemetry off, serial.
        let baselines: Vec<_> = opts
            .iter()
            .map(|o| engine.query_by_id(ObjectId(0), o).unwrap())
            .collect();
        for p in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(7)] {
            engine.set_parallelism(p);
            let registry = std::sync::Arc::new(ferret::core::telemetry::MetricsRegistry::new());
            engine.set_telemetry(Some(registry));
            for (o, base) in opts.iter().zip(&baselines) {
                let resp = engine.query_by_id(ObjectId(0), o).unwrap();
                prop_assert!(resp.trace.is_some(), "telemetry on must attach a trace");
                prop_assert_eq!(&resp.results, &base.results, "{} {:?}", p, o.mode);
                prop_assert_eq!(resp.stats.objects_scanned, base.stats.objects_scanned);
                prop_assert_eq!(resp.stats.segments_scanned, base.stats.segments_scanned);
                prop_assert_eq!(resp.stats.distance_evals, base.stats.distance_evals);
            }
            engine.set_telemetry(None);
            for (o, base) in opts.iter().zip(&baselines) {
                let resp = engine.query_by_id(ObjectId(0), o).unwrap();
                prop_assert!(resp.trace.is_none(), "telemetry off must not trace");
                prop_assert_eq!(&resp.results, &base.results, "{} {:?}", p, o.mode);
            }
        }
    }

    /// The sharded in-memory filter scan yields the exact candidate set
    /// and statistics of the serial scan.
    #[test]
    fn sharded_filter_candidates_identical(
        objects in prop::collection::vec(object_strategy(3), 4..20),
        cand in 1usize..5,
        seed in 0u64..100,
    ) {
        let engine = engine_with(&objects, seed);
        let query = engine.sketched(ObjectId(0)).unwrap().clone();
        let params = FilterParams {
            query_segments: 2,
            candidates_per_segment: cand,
            ..FilterParams::default()
        };
        let dataset: Vec<(ObjectId, &SketchedObject)> = engine
            .ids()
            .iter()
            .map(|&id| (id, engine.sketched(id).unwrap()))
            .collect();
        let (serial_set, serial_stats) =
            filter_candidates(&query, dataset.iter().map(|&(id, so)| (id, so)), &params)
                .unwrap();
        for threads in [2usize, 7] {
            let (set, stats) =
                filter_candidates_sharded(&query, &dataset, &params, threads).unwrap();
            prop_assert_eq!(&set, &serial_set, "threads {}", threads);
            prop_assert_eq!(stats, serial_stats, "threads {}", threads);
        }
    }
}

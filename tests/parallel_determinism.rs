//! Property tests for the determinism contract of batch sketching, the
//! one place work is split across threads (see DESIGN.md §4, "Threading
//! model"): the batch answers exactly what a per-object loop does, for
//! every thread count, and telemetry never changes a query's answer.

use proptest::prelude::*;

use ferret::core::engine::{QueryMode, QueryOptions, SearchEngine};
use ferret::core::error::CoreError;
use ferret::core::filter::FilterParams;
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::sketch::{SketchBuilder, SketchParams};
use ferret::core::vector::FeatureVector;

/// Thread counts the batch is checked at: serial, even, and more threads
/// than a 2-core host has.
const THREADS: [usize; 3] = [1, 2, 7];

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

fn builder(seed: u64) -> SketchBuilder {
    SketchBuilder::new(
        SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap(),
        seed,
    )
}

fn engine_with(objects: &[DataObject], seed: u64) -> SearchEngine {
    let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let mut engine = SearchEngine::builder(params, seed).build().unwrap();
    for (i, obj) in objects.iter().enumerate() {
        engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A batch sketched on any number of threads equals the per-object
    /// sketches, in input order. Batches run past several 8-item chunks.
    #[test]
    fn batch_sketches_equal_per_object_sketches(
        objects in prop::collection::vec(object_strategy(3), 0..60),
        seed in 0u64..100,
    ) {
        let b = builder(seed);
        let serial: Vec<_> = objects.iter().map(|o| b.sketch_object(o).unwrap()).collect();
        for t in THREADS {
            prop_assert_eq!(&b.sketch_objects(&objects, t).unwrap(), &serial, "threads {}", t);
        }
    }

    /// When several objects fail, the batch reports the failure at the
    /// lowest index, as a serial loop would. Each bad object has its own
    /// dimensionality, so the error names which one was reported.
    #[test]
    fn batch_sketching_reports_the_lowest_index_error(
        objects in prop::collection::vec(object_strategy(3), 9..60),
        bad in prop::collection::vec(0usize..1000, 2..5),
        seed in 0u64..100,
    ) {
        let mut objects = objects;
        let mut first_bad: Option<(usize, usize)> = None;
        for (rank, pos) in bad.iter().enumerate() {
            let i = pos % objects.len();
            let dim = 4 + rank;
            objects[i] = DataObject::single(FeatureVector::from_components(vec![0.5; dim]));
            if first_bad.is_none_or(|(fi, _)| i <= fi) {
                first_bad = Some((i, dim));
            }
        }
        let (_, dim) = first_bad.unwrap();
        let want = CoreError::DimensionMismatch { expected: 3, actual: dim };
        let b = builder(seed);
        for t in THREADS {
            prop_assert_eq!(b.sketch_objects(&objects, t).unwrap_err(), want.clone(), "threads {}", t);
        }
    }

    /// Telemetry is pure observation: enabling it must not perturb results,
    /// distances, or scan statistics, for any query mode.
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
        // Baseline: telemetry off.
        let baselines: Vec<_> = opts
            .iter()
            .map(|o| engine.query_by_id(ObjectId(0), o).unwrap())
            .collect();
        let registry = std::sync::Arc::new(ferret::core::telemetry::MetricsRegistry::new());
        engine.set_telemetry(Some(registry));
        for (o, base) in opts.iter().zip(&baselines) {
            let resp = engine.query_by_id(ObjectId(0), o).unwrap();
            prop_assert!(resp.trace.is_some(), "telemetry on must attach a trace");
            prop_assert_eq!(&resp.results, &base.results, "{:?}", o.mode);
            prop_assert_eq!(resp.stats.objects_scanned, base.stats.objects_scanned);
            prop_assert_eq!(resp.stats.segments_scanned, base.stats.segments_scanned);
            prop_assert_eq!(resp.stats.distance_evals, base.stats.distance_evals);
        }
        engine.set_telemetry(None);
        for (o, base) in opts.iter().zip(&baselines) {
            let resp = engine.query_by_id(ObjectId(0), o).unwrap();
            prop_assert!(resp.trace.is_none(), "telemetry off must not trace");
            prop_assert_eq!(&resp.results, &base.results, "{:?}", o.mode);
        }
    }
}

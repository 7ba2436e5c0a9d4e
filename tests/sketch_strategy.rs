//! Cross-strategy determinism: two engines that differ only in
//! [`SketchStrategy`] must store bit-identical sketches and answer every
//! query identically, for any corpus and thread count.
//!
//! This drives the equivalence through the full engine — insertion
//! (including batch-parallel sketching), the filter stage, and both
//! sketch-based query modes — rather than just
//! the builder, so regressions in any layer's interaction with the
//! strategy knob surface here.

use proptest::prelude::*;

use ferret::core::engine::{EngineBuilder, EngineConfig, QueryOptions, SearchEngine};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::sketch::{SketchParams, SketchStrategy};
use ferret::core::vector::FeatureVector;

const DIM: usize = 4;
const SEED: u64 = 0x00FE_44E7;

fn vec_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-0.25f32..1.25, DIM)
}

fn object_strategy() -> impl Strategy<Value = DataObject> {
    prop::collection::vec((vec_strategy(), 0.1f32..2.0), 1..4).prop_map(|parts| {
        DataObject::new(
            parts
                .into_iter()
                .map(|(c, w)| (FeatureVector::from_components(c), w))
                .collect(),
        )
        .expect("valid generated object")
    })
}

fn build_engine(
    strategy: SketchStrategy,
    parallelism: Parallelism,
    objects: &[DataObject],
) -> SearchEngine {
    let params = SketchParams::with_options(96, 2, vec![0.0; DIM], vec![1.0; DIM], None).unwrap();
    let mut config = EngineConfig::basic(params, SEED);
    config.sketch_strategy = strategy;
    config.parallelism = parallelism;
    let mut engine = EngineBuilder::from_config(config).build().unwrap();
    let batch: Vec<_> = objects
        .iter()
        .enumerate()
        .map(|(i, o)| (ObjectId(i as u64), o.clone()))
        .collect();
    engine.insert_batch(batch).unwrap();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_pass_engine_is_indistinguishable_from_classic(
        objects in prop::collection::vec(object_strategy(), 4..12),
        par_idx in 0usize..2,
        k in 1usize..6,
    ) {
        let parallelism = [Parallelism::Serial, Parallelism::Threads(3)][par_idx];
        let classic = build_engine(SketchStrategy::Classic, parallelism, &objects);
        let one_pass = build_engine(SketchStrategy::OnePass, parallelism, &objects);

        // Stored sketches are bit-identical, object by object.
        for i in 0..objects.len() {
            let id = ObjectId(i as u64);
            prop_assert_eq!(
                classic.sketched(id).unwrap(),
                one_pass.sketched(id).unwrap(),
                "stored sketch differs for object {}", i
            );
        }

        // Every sketch-based query mode returns identical rankings and
        // distances from identical sketches.
        for i in 0..objects.len() {
            let id = ObjectId(i as u64);
            for options in [
                QueryOptions::default().with_k(k),
                QueryOptions::brute_force_sketch(k),
            ] {
                let rc = classic.query_by_id(id, &options).unwrap();
                let ro = one_pass.query_by_id(id, &options).unwrap();
                let res_c: Vec<_> = rc.results.iter().map(|r| (r.id, r.distance)).collect();
                let res_o: Vec<_> = ro.results.iter().map(|r| (r.id, r.distance)).collect();
                prop_assert_eq!(res_c, res_o, "query {} with {:?} diverged", i, options.mode);
            }
        }
    }
}

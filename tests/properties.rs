//! Cross-crate property-based tests on the toolkit's core invariants.

use proptest::prelude::*;

use ferret::core::distance::emd::{emd_with_costs, greedy_emd_with_costs, Emd};
use ferret::core::distance::lp::{L1, L2};
use ferret::core::distance::{ObjectDistance, SegmentDistance};
use ferret::core::engine::{QueryOptions, SearchEngine};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::sketch::{BitVec, SketchBuilder, SketchParams};
use ferret::core::vector::FeatureVector;
use ferret::eval::score_query;

fn vec_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..1.0, dim)
}

fn object_strategy(dim: usize) -> impl Strategy<Value = DataObject> {
    prop::collection::vec((vec_strategy(dim), 0.1f32..2.0), 1..5).prop_map(|parts| {
        DataObject::new(
            parts
                .into_iter()
                .map(|(c, w)| (FeatureVector::from_components(c), w))
                .collect(),
        )
        .expect("valid generated object")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ℓ₁ and ℓ₂ satisfy the metric axioms on random vectors.
    #[test]
    fn lp_metric_axioms(a in vec_strategy(6), b in vec_strategy(6), c in vec_strategy(6)) {
        for d in [&L1 as &dyn SegmentDistance, &L2] {
            let dab = d.eval(&a, &b);
            let dba = d.eval(&b, &a);
            let dac = d.eval(&a, &c);
            let dcb = d.eval(&c, &b);
            prop_assert!(dab >= 0.0);
            prop_assert!((dab - dba).abs() < 1e-9);
            prop_assert!(d.eval(&a, &a) < 1e-9);
            prop_assert!(dab <= dac + dcb + 1e-5, "triangle: {dab} > {dac} + {dcb}");
        }
    }

    /// EMD with a metric ground distance is symmetric, non-negative, zero
    /// on identical objects, and dominated by the greedy upper bound.
    #[test]
    fn emd_properties(x in object_strategy(4), y in object_strategy(4)) {
        let emd = Emd::new(L1);
        let dxy = emd.distance(&x, &y).unwrap();
        let dyx = emd.distance(&y, &x).unwrap();
        prop_assert!(dxy >= -1e-9);
        prop_assert!((dxy - dyx).abs() < 1e-6, "symmetry: {dxy} vs {dyx}");
        prop_assert!(emd.distance(&x, &x).unwrap() < 1e-6);
        let wa: Vec<f32> = x.segments().iter().map(|s| s.weight).collect();
        let wb: Vec<f32> = y.segments().iter().map(|s| s.weight).collect();
        let ground = |i: usize, j: usize| {
            L1.eval(
                x.segment(i).vector.components(),
                y.segment(j).vector.components(),
            )
        };
        let exact = emd_with_costs(&wa, &wb, ground).unwrap();
        let greedy = greedy_emd_with_costs(&wa, &wb, ground).unwrap();
        prop_assert!(greedy >= exact - 1e-9, "greedy {greedy} below exact {exact}");
        prop_assert!((exact - dxy).abs() < 1e-9);
    }

    /// EMD triangle inequality with metric ground distance.
    #[test]
    fn emd_triangle(
        x in object_strategy(3),
        y in object_strategy(3),
        z in object_strategy(3),
    ) {
        let emd = Emd::new(L1);
        let dxy = emd.distance(&x, &y).unwrap();
        let dyz = emd.distance(&y, &z).unwrap();
        let dxz = emd.distance(&x, &z).unwrap();
        prop_assert!(dxz <= dxy + dyz + 1e-5, "{dxz} > {dxy} + {dyz}");
    }

    /// Hamming distance equals the naive per-bit count and is a metric.
    #[test]
    fn hamming_is_bit_count(
        a in prop::collection::vec(any::<bool>(), 1..200),
        flips in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = a.len().min(flips.len());
        let a = &a[..n];
        let b: Vec<bool> = a.iter().zip(&flips[..n]).map(|(&x, &f)| x ^ f).collect();
        let expected = flips[..n].iter().filter(|&&f| f).count() as u32;
        let ba = BitVec::from_bits(a);
        let bb = BitVec::from_bits(&b);
        prop_assert_eq!(ba.hamming(&bb).unwrap(), expected);
        prop_assert_eq!(bb.hamming(&ba).unwrap(), expected);
        prop_assert_eq!(ba.hamming(&ba).unwrap(), 0);
    }

    /// Sketches roundtrip through their byte encoding.
    #[test]
    fn bitvec_bytes_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let bv = BitVec::from_bits(&bits);
        let back = BitVec::from_bytes(&bv.to_bytes()).unwrap();
        prop_assert_eq!(bv, back);
    }

    /// Objects roundtrip through the persistence codec bit for bit,
    /// weights included: decoding does not normalize the stored weights
    /// again, so a restart sketches and ranks every object as before.
    #[test]
    fn object_codec_roundtrip(obj in object_strategy(5)) {
        let bytes = ferret::core::codec::encode_object(&obj);
        let back = ferret::core::codec::decode_object(&bytes).unwrap();
        prop_assert_eq!(obj.num_segments(), back.num_segments());
        prop_assert_eq!(obj.dim(), back.dim());
        for (a, b) in obj.segments().iter().zip(back.segments()) {
            prop_assert_eq!(a.vector.components(), b.vector.components());
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    /// Sketch construction is deterministic and Hamming distance on
    /// sketches never exceeds the sketch length.
    #[test]
    fn sketch_determinism_and_bounds(
        a in vec_strategy(6),
        b in vec_strategy(6),
        seed in 0u64..1000,
    ) {
        let params = SketchParams::new(128, vec![0.0; 6], vec![1.0; 6]).unwrap();
        let b1 = SketchBuilder::new(params.clone(), seed);
        let b2 = SketchBuilder::new(params, seed);
        let fa = FeatureVector::from_components(a);
        let fb = FeatureVector::from_components(b);
        let sa1 = b1.sketch(&fa).unwrap();
        let sa2 = b2.sketch(&fa).unwrap();
        prop_assert_eq!(&sa1, &sa2);
        let sb = b1.sketch(&fb).unwrap();
        let h = sa1.hamming(&sb).unwrap();
        prop_assert!(h as usize <= 128);
    }

    /// Brute-force query results are exactly the k nearest by the object
    /// distance, independently recomputed.
    #[test]
    fn brute_force_is_exact_knn(
        objects in prop::collection::vec(object_strategy(3), 3..10),
        query in object_strategy(3),
    ) {
        let params = SketchParams::new(32, vec![0.0; 3], vec![1.0; 3]).unwrap();
        let mut engine = SearchEngine::builder(params, 1).build().unwrap();
        for (i, obj) in objects.iter().enumerate() {
            engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
        }
        let k = 3.min(objects.len());
        let resp = engine.query(&query, &QueryOptions::brute_force(k)).unwrap();
        // Independent reference ranking.
        let emd = Emd::new(L1);
        let mut reference: Vec<(u64, f64)> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (i as u64, emd.distance(&query, o).unwrap()))
            .collect();
        reference.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap().then(x.0.cmp(&y.0)));
        for (got, want) in resp.results.iter().zip(reference.iter()) {
            prop_assert!((got.distance - want.1).abs() < 1e-9);
        }
    }

    /// Filter candidate sets grow monotonically with the per-segment k-NN
    /// breadth, and restricted queries only return allowed ids.
    #[test]
    fn filter_monotone_and_restrict_respected(
        objects in prop::collection::vec(object_strategy(3), 4..12),
        cand_small in 1usize..5,
        extra in 1usize..10,
    ) {
        use ferret::core::filter::{filter_candidates, FilterParams};
        use std::collections::HashSet;

        let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
        let mut engine = SearchEngine::builder(params, 5).build().unwrap();
        for (i, obj) in objects.iter().enumerate() {
            engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
        }
        let query = engine.sketched(ObjectId(0)).unwrap().clone();
        let mk = |cand: usize| FilterParams {
            query_segments: 2,
            candidates_per_segment: cand,
            ..FilterParams::default()
        };
        let ids = engine.ids();
        let dataset = || ids.iter().map(|&id| (id, engine.sketched(id).unwrap()));
        let (small, _) = filter_candidates(&query, dataset(), &mk(cand_small)).unwrap();
        let (large, _) =
            filter_candidates(&query, dataset(), &mk(cand_small + extra)).unwrap();
        prop_assert!(small.is_subset(&large), "k-NN breadth must be monotone");

        // Restriction: results are a subset of the allowed ids.
        let allowed: HashSet<ObjectId> =
            (0..objects.len() as u64).filter(|i| i % 2 == 0).map(ObjectId).collect();
        let mut opts = QueryOptions::brute_force(objects.len());
        opts.restrict = Some(allowed.clone());
        let resp = engine.query_by_id(ObjectId(0), &opts).unwrap();
        for r in &resp.results {
            prop_assert!(allowed.contains(&r.id), "restriction violated");
        }
    }

    /// Query statistics are internally consistent across modes.
    #[test]
    fn query_stats_consistent(
        objects in prop::collection::vec(object_strategy(3), 3..10),
        mode_pick in 0usize..3,
    ) {
        use ferret::core::engine::QueryMode;
        let params = SketchParams::new(64, vec![0.0; 3], vec![1.0; 3]).unwrap();
        let mut engine = SearchEngine::builder(params, 8).build().unwrap();
        for (i, obj) in objects.iter().enumerate() {
            engine.insert(ObjectId(i as u64), obj.clone()).unwrap();
        }
        let mode = [
            QueryMode::BruteForceOriginal,
            QueryMode::BruteForceSketch,
            QueryMode::Filtering,
        ][mode_pick];
        let opts = QueryOptions::default().with_mode(mode).with_k(5);
        let resp = engine.query_by_id(ObjectId(0), &opts).unwrap();
        prop_assert!(resp.results.len() <= 5);
        prop_assert!(resp.stats.objects_scanned <= objects.len());
        prop_assert!(resp.stats.distance_evals <= objects.len());
        prop_assert_eq!(resp.stats.mode, mode);
        // Results are sorted by distance.
        for w in resp.results.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance + 1e-12);
        }
    }

    /// Quality metrics are bounded and second tier dominates first tier.
    #[test]
    fn metric_bounds(
        gold_size in 2usize..6,
        ranked in prop::collection::vec(0u64..30, 1..30),
    ) {
        let gold: Vec<ObjectId> = (0..gold_size as u64).map(ObjectId).collect();
        let ranked: Vec<ObjectId> = ranked.into_iter().map(ObjectId).collect();
        if let Some(s) = score_query(ObjectId(0), &gold, &ranked, 30) {
            prop_assert!((0.0..=1.0).contains(&s.first_tier));
            prop_assert!((0.0..=1.0).contains(&s.second_tier));
            prop_assert!(s.average_precision >= 0.0 && s.average_precision <= 1.0 + 1e-12);
            prop_assert!(s.second_tier >= s.first_tier);
        }
    }
}

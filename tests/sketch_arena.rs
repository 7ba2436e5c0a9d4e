//! Exactness of the arena filter kernel.
//!
//! The contract under test (DESIGN.md, "Sketch arena and filter kernel"):
//! the arena kernel that serves every scan returns the *same candidate set*
//! as the per-object reference scan (`filter_candidates`) over the same
//! live (and allowed) objects, with statistics that count every live object
//! and segment — for every sketch width, threshold, attenuation, pushdown
//! set, and set of removals; and an engine driven through random
//! insert/remove/re-insert scripts serves exactly the reference candidates
//! and counts the objects its pushdown set skipped.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use ferret::core::engine::{QueryMode, QueryOptions, SearchEngine};
use ferret::core::filter::{filter_candidates, filter_candidates_arena, FilterParams, FilterStats};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::sketch::{BitVec, SketchArena, SketchParams, SketchedObject};
use ferret::core::telemetry::MetricsRegistry;
use ferret::core::vector::FeatureVector;

/// Sketch widths: 1-, 2-, 3- and 4-word sketches, and widths that are not
/// a multiple of 64.
const WIDTHS: [usize; 5] = [64, 100, 128, 192, 256];

/// A sketch drawn from a four-pattern palette with a few bits flipped, so
/// distances repeat and the heap boundary is full of ties.
fn sketch(nbits: usize, palette: &[u64; 4], pick: u8, flips: &[u16]) -> BitVec {
    let pattern = palette[usize::from(pick % 4)];
    let mut bits: Vec<bool> = (0..nbits).map(|i| pattern >> (i % 64) & 1 == 1).collect();
    for &f in flips {
        let i = usize::from(f) % nbits;
        bits[i] = !bits[i];
    }
    BitVec::from_bits(&bits)
}

type RawObject = Vec<(u8, Vec<u16>, f32)>;

fn raw_object() -> impl Strategy<Value = RawObject> {
    prop::collection::vec(
        (
            any::<u8>(),
            prop::collection::vec(any::<u16>(), 0..3),
            0.1f32..2.0,
        ),
        1..4,
    )
}

fn sketched(nbits: usize, palette: &[u64; 4], raw: &RawObject) -> SketchedObject {
    let total: f32 = raw.iter().map(|(_, _, w)| w).sum();
    SketchedObject {
        weights: raw.iter().map(|(_, _, w)| w / total).collect(),
        sketches: raw
            .iter()
            .map(|(pick, flips, _)| sketch(nbits, palette, *pick, flips))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole corpus is pushed into one arena and a random subset is
    /// removed from it again. The kernel must equal the reference scan
    /// over the live objects.
    #[test]
    fn arena_kernel_equals_reference_scan(
        width in 0usize..WIDTHS.len(),
        palette in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(a, b, c, d)| [a, b, c, d]),
        raw in prop::collection::vec(raw_object(), 1..40),
        query_raw in raw_object(),
        removed_mask in prop::collection::vec(any::<bool>(), 40),
        restrict_on in any::<bool>(),
        restrict_mask in prop::collection::vec(any::<bool>(), 40),
        query_segments in 1usize..4,
        cand in 1usize..6,
        threshold in prop_oneof![Just(None), (0u32..80).prop_map(Some)],
        attenuation in 0.0f64..1.0,
    ) {
        let nbits = WIDTHS[width];
        let objects: Vec<SketchedObject> =
            raw.iter().map(|r| sketched(nbits, &palette, r)).collect();
        let query = sketched(nbits, &palette, &query_raw);
        let params = FilterParams {
            query_segments,
            candidates_per_segment: cand,
            base_threshold: threshold,
            weight_attenuation: attenuation,
        };
        let restrict: Option<HashSet<ObjectId>> = restrict_on.then(|| {
            (0..objects.len() as u64)
                .filter(|&i| restrict_mask[i as usize])
                .map(ObjectId)
                .collect()
        });

        let mut arena = SketchArena::new(nbits);
        for (i, so) in objects.iter().enumerate() {
            arena.push(ObjectId(i as u64), so).unwrap();
        }
        for i in (0..objects.len()).filter(|&i| removed_mask[i]) {
            prop_assert!(arena.remove(ObjectId(i as u64)));
        }

        let live: Vec<(ObjectId, &SketchedObject)> = (0..objects.len())
            .filter(|&i| !removed_mask[i])
            .map(|i| (ObjectId(i as u64), &objects[i]))
            .collect();
        let allowed: Vec<(ObjectId, &SketchedObject)> = live
            .iter()
            .copied()
            .filter(|(id, _)| restrict.as_ref().is_none_or(|r| r.contains(id)))
            .collect();
        let (expect, reference) = filter_candidates(&query, allowed, &params).unwrap();
        let expect_stats = FilterStats {
            objects_scanned: live.len(),
            segments_scanned: live.iter().map(|(_, so)| so.num_segments()).sum(),
            candidates: reference.candidates,
        };
        if restrict.is_none() {
            prop_assert_eq!(expect_stats, reference);
        }

        let (got, stats) =
            filter_candidates_arena(&query, &arena, &params, restrict.as_ref()).unwrap();
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(stats, expect_stats);
    }
}

/// Quantised components so distinct ids often share a feature vector —
/// and so a sketch — which puts ties on the heap boundary.
fn quantised_object(seed: u64, i: u64, segments: u64) -> DataObject {
    let level = |d: u64| ((seed ^ (i * 7 + d * 13)) % 4) as f32 / 3.0;
    DataObject::new(
        (0..segments)
            .map(|s| {
                (
                    FeatureVector::new(vec![level(s), level(s + 1), level(s + 2)]).unwrap(),
                    1.0 + s as f32,
                )
            })
            .collect(),
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..6, 0u64..40).prop_map(|(kind, i)| match kind {
        0..=3 => Op::Insert(i),
        _ => Op::Remove(i),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random insert/remove scripts (re-inserts included: an id may come
    /// back with a new payload after its removal): the served candidate set — every candidate, as `k` exceeds
    /// the corpus — equals the reference scan over the engine's live
    /// objects, and the scan's statistics equal the reference's.
    #[test]
    fn engine_serves_reference_candidates_after_any_script(
        ops in prop::collection::vec(op_strategy(), 1..60),
        width in 0usize..WIDTHS.len(),
        cand in 1usize..6,
        threshold in prop_oneof![Just(None), (0u32..60).prop_map(Some)],
        restrict_on in any::<bool>(),
        restrict_mask in prop::collection::vec(any::<bool>(), 40),
        seed in 0u64..64,
    ) {
        let nbits = WIDTHS[width];
        let params = SketchParams::new(nbits, vec![0.0; 3], vec![1.0; 3]).unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let mut engine = SearchEngine::builder(params, seed)
            .parallelism(Parallelism::Threads(3))
            .telemetry(Some(Arc::clone(&registry)))
            .build()
            .unwrap();
        let mut generation = 0u64;
        for op in &ops {
            match op {
                Op::Insert(i) => {
                    if !engine.contains(ObjectId(*i)) {
                        generation += 1;
                        let obj = quantised_object(seed + generation, *i, 1 + (*i + generation) % 3);
                        engine.insert(ObjectId(*i), obj).unwrap();
                    }
                }
                Op::Remove(i) => {
                    engine.remove(ObjectId(*i));
                }
            }
        }
        let filter = FilterParams {
            query_segments: 2,
            candidates_per_segment: cand,
            base_threshold: threshold,
            weight_attenuation: 0.25,
        };
        let restrict: Option<HashSet<ObjectId>> = restrict_on.then(|| {
            (0..40u64)
                .filter(|&i| restrict_mask[i as usize])
                .map(ObjectId)
                .collect()
        });
        let query = quantised_object(seed, 1000, 2);
        let query_sketch = engine.sketch_query(&query).unwrap();
        let live: Vec<(ObjectId, &SketchedObject)> = engine
            .ids()
            .into_iter()
            .map(|id| (id, engine.sketched(id).unwrap()))
            .collect();
        let allowed: Vec<(ObjectId, &SketchedObject)> = live
            .iter()
            .copied()
            .filter(|(id, _)| restrict.as_ref().is_none_or(|r| r.contains(id)))
            .collect();
        let skipped = (live.len() - allowed.len()) as u64;
        let (expect, reference) = filter_candidates(&query_sketch, allowed, &filter).unwrap();

        let mut opts = QueryOptions::default()
            .with_mode(QueryMode::Filtering)
            .with_k(1000)
            .with_filter(filter);
        if let Some(r) = &restrict {
            opts = opts.with_restrict(r.clone());
        }
        let resp = engine.query(&query, &opts).unwrap();
        let served: HashSet<ObjectId> = resp.results.iter().map(|r| r.id).collect();
        prop_assert_eq!(&served, &expect);
        prop_assert_eq!(resp.stats.distance_evals, reference.candidates);
        // The pushdown counter: live objects outside the restrict set,
        // removed and never-inserted ids in the set not counted.
        prop_assert_eq!(
            registry.counter_value("ferret_pushdown_skipped_total", &[]),
            Some(skipped)
        );
        prop_assert_eq!(
            registry.counter_value("ferret_pushdown_queries_total", &[]),
            Some(u64::from(restrict.is_some()))
        );
        prop_assert_eq!(resp.stats.objects_scanned, live.len());
        prop_assert_eq!(
            resp.stats.segments_scanned,
            live.iter().map(|(_, so)| so.num_segments()).sum::<usize>()
        );
        if restrict.is_none() {
            prop_assert_eq!(resp.stats.segments_scanned, reference.segments_scanned);
        }
    }
}

/// The sketch arena is part of the sketch memory account.
#[test]
fn arenas_are_counted_in_the_sketch_memory_account() {
    let params = SketchParams::new(128, vec![0.0; 3], vec![1.0; 3]).unwrap();
    let mut engine = SearchEngine::builder(params, 5).build().unwrap();
    for i in 0..30u64 {
        engine
            .insert(ObjectId(i), quantised_object(5, i, 2))
            .unwrap();
    }
    // 60 segment sketches of 16 bytes each, at least once in the arena.
    assert!(engine.memory_estimate().sketches >= 60 * 16);
}

//! Hybrid query equivalence: predicate pushdown must be *exact*.
//!
//! The contract (DESIGN.md "Hybrid queries"): restricting a similarity
//! query to an attribute candidate set returns results bit-identical to
//! running the similarity query without the restriction and filtering
//! its ranking by the predicate afterwards. For the filter stage the
//! oracle needs care — a bounded candidate heap can legitimately drop
//! an allowed object in favor of disallowed ones, so the post-filter
//! oracle only applies where no pruning occurs (brute-force modes, or
//! filtering with an unbounded candidate budget). For the pruned
//! filtering path the oracle is stronger: the restricted query must
//! equal the same query against a *fresh engine built from only the
//! matching objects*, across thread counts.

use std::collections::HashSet;

use proptest::prelude::*;

use ferret::core::engine::{EngineConfig, QueryMode, QueryOptions, SearchEngine};
use ferret::core::object::{DataObject, ObjectId};
use ferret::core::parallel::Parallelism;
use ferret::core::sketch::SketchParams;
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

fn build_engine(parallelism: Parallelism, items: &[(ObjectId, DataObject)]) -> SearchEngine {
    let params = SketchParams::with_options(96, 2, vec![0.0; DIM], vec![1.0; DIM], None).unwrap();
    let mut engine = SearchEngine::builder(params, SEED)
        .parallelism(parallelism)
        .build()
        .unwrap();
    engine.insert_batch(items.to_vec()).unwrap();
    engine
}

fn results_of(resp: &ferret::core::engine::QueryResponse) -> Vec<(ObjectId, f64)> {
    resp.results.iter().map(|r| (r.id, r.distance)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unpruned paths: restricted query == unrestricted full ranking,
    /// post-filtered by the predicate, truncated to k. Bit identical.
    #[test]
    fn pushdown_matches_post_filter_on_unpruned_paths(
        objects in prop::collection::vec(object_strategy(), 4..12),
        mask in prop::collection::vec(any::<bool>(), 12),
        par_idx in 0usize..2,
        k in 1usize..6,
    ) {
        let parallelism = [Parallelism::Serial, Parallelism::Threads(3)][par_idx];
        let items: Vec<(ObjectId, DataObject)> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o.clone()))
            .collect();
        let engine = build_engine(parallelism, &items);
        let allowed: HashSet<ObjectId> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[*i])
            .map(|(_, (id, _))| *id)
            .collect();

        // An unbounded candidate budget makes the filtering mode
        // pruning-free, so the post-filter oracle applies to all three
        // modes.
        let unbounded = ferret::core::filter::FilterParams {
            candidates_per_segment: 10_000,
            ..Default::default()
        };

        for mode in [
            QueryMode::BruteForceOriginal,
            QueryMode::BruteForceSketch,
            QueryMode::Filtering,
        ] {
            let seed = &objects[0];
            let restricted = QueryOptions::default()
                .with_mode(mode)
                .with_k(k)
                .with_filter(unbounded.clone())
                .with_restrict(allowed.clone());
            let hybrid = results_of(&engine.query(seed, &restricted).unwrap());

            let full = QueryOptions::default()
                .with_mode(mode)
                .with_k(items.len())
                .with_filter(unbounded.clone());
            let mut oracle = results_of(&engine.query(seed, &full).unwrap());
            oracle.retain(|(id, _)| allowed.contains(id));
            oracle.truncate(k);

            prop_assert_eq!(
                hybrid, oracle,
                "mode {:?} par {:?} diverged from post-filter",
                mode, parallelism
            );
        }
    }

    /// Pruned filtering path: the restricted query equals the same
    /// query against a fresh engine containing only the allowed
    /// objects — pushdown behaves as if the excluded objects never
    /// existed, even with a tight candidate budget.
    #[test]
    fn pushdown_matches_subset_engine_on_filtering_path(
        objects in prop::collection::vec(object_strategy(), 4..12),
        mask in prop::collection::vec(any::<bool>(), 12),
        par_idx in 0usize..2,
        k in 1usize..6,
    ) {
        let parallelism = [Parallelism::Serial, Parallelism::Threads(3)][par_idx];
        let items: Vec<(ObjectId, DataObject)> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o.clone()))
            .collect();
        let subset: Vec<(ObjectId, DataObject)> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[*i])
            .map(|(_, item)| item.clone())
            .collect();
        let allowed: HashSet<ObjectId> = subset.iter().map(|(id, _)| *id).collect();

        let full_engine = build_engine(parallelism, &items);
        let subset_engine = build_engine(parallelism, &subset);

        let seed = &objects[0];
        let restricted = QueryOptions::default()
            .with_k(k)
            .with_restrict(allowed.clone());
        let plain = QueryOptions::default().with_k(k);
        let hybrid = results_of(&full_engine.query(seed, &restricted).unwrap());
        let oracle = results_of(&subset_engine.query(seed, &plain).unwrap());
        prop_assert_eq!(
            hybrid, oracle,
            "par {:?}: restricted full engine != subset engine",
            parallelism
        );
    }
}

/// Empty candidate set: the query legitimately returns zero results on
/// every mode — never an error, never a leak of excluded
/// objects.
#[test]
fn empty_candidate_set_returns_no_results() {
    let items: Vec<(ObjectId, DataObject)> = (0..8)
        .map(|i| {
            let x = 0.1 + 0.1 * i as f32;
            (
                ObjectId(i),
                DataObject::single(FeatureVector::new(vec![x; DIM]).unwrap()),
            )
        })
        .collect();
    let engine = build_engine(Parallelism::Serial, &items);
    for mode in [
        QueryMode::BruteForceOriginal,
        QueryMode::BruteForceSketch,
        QueryMode::Filtering,
    ] {
        let options = QueryOptions::default()
            .with_mode(mode)
            .with_k(3)
            .with_restrict(HashSet::new());
        let resp = engine.query_by_id(ObjectId(0), &options).unwrap();
        assert!(resp.results.is_empty(), "mode {mode:?} leaked results");
    }
}

/// All-match candidate set: restricting to every stored id must be
/// indistinguishable from not restricting at all.
#[test]
fn all_match_candidate_set_equals_unrestricted() {
    let items: Vec<(ObjectId, DataObject)> = (0..8)
        .map(|i| {
            let x = 0.1 + 0.1 * i as f32;
            (
                ObjectId(i),
                DataObject::single(FeatureVector::new(vec![x; DIM]).unwrap()),
            )
        })
        .collect();
    let everyone: HashSet<ObjectId> = items.iter().map(|(id, _)| *id).collect();
    let engine = build_engine(Parallelism::Threads(2), &items);
    for mode in [
        QueryMode::BruteForceOriginal,
        QueryMode::BruteForceSketch,
        QueryMode::Filtering,
    ] {
        let restricted = QueryOptions::default()
            .with_mode(mode)
            .with_k(4)
            .with_restrict(everyone.clone());
        let plain = QueryOptions::default().with_mode(mode).with_k(4);
        let a = results_of(&engine.query_by_id(ObjectId(0), &restricted).unwrap());
        let b = results_of(&engine.query_by_id(ObjectId(0), &plain).unwrap());
        assert_eq!(a, b, "mode {mode:?} diverged");
    }
}

/// The service-level wiring: an `attr=` expression restricting a
/// protocol query must match manually post-filtering the unrestricted
/// reply by the attribute hits.
#[test]
fn service_attr_queries_match_manual_post_filter() {
    use ferret::attr::AttrsBuilder;
    use ferret::query::FerretService;

    let params = SketchParams::new(96, vec![0.0; DIM], vec![1.0; DIM]).unwrap();
    let mut svc = FerretService::in_memory(EngineConfig::basic(params, SEED)).unwrap();
    for i in 0..10u64 {
        let x = 0.05 + 0.09 * i as f32;
        let attrs = AttrsBuilder::new()
            .keyword("band", if i.is_multiple_of(3) { "zero" } else { "rest" })
            .int("idx", i as i64)
            .build();
        svc.insert(
            ObjectId(i),
            DataObject::single(FeatureVector::new(vec![x; DIM]).unwrap()),
            Some(attrs),
        )
        .unwrap();
    }
    for expr in ["band:zero", "band:rest", "idx>=5", "band:zero OR idx>=8"] {
        let hits = svc.attrs().search_str(expr).unwrap();
        let full = svc.execute_line("query id=0 k=10 mode=brute");
        let hybrid = svc.execute_line(&format!("query id=0 k=3 mode=brute attr=\"{expr}\""));
        // Post-filter the full reply's payload lines by the attr hits.
        let kept: Vec<&str> = full
            .lines()
            .skip(1)
            .filter(|line| {
                let id: u64 = line.split_whitespace().next().unwrap().parse().unwrap();
                hits.contains(&ObjectId(id))
            })
            .take(3)
            .collect();
        let oracle = format!(
            "OK {}\n{}{}",
            kept.len(),
            kept.join("\n"),
            if kept.is_empty() { "" } else { "\n" }
        );
        assert_eq!(hybrid, oracle, "expr {expr:?}");
    }
}

//! Golden-query regression fixture: the engine's answers for a pinned
//! corpus, checked into the repository.
//!
//! Every query mode, seeded by an object and by a stored id, over three
//! ranking methods and a sketch-only engine, with and without an
//! attribute restrict set, a weight override and result shaping. Each
//! line pins the result ids with the bit patterns of their distances,
//! the `QueryStats` counts, and which trace stages ran with how many
//! candidates — or the error a rejected query reports. A change to the
//! query path must reproduce the fixture exactly.
//!
//! To regenerate after an *intentional* change of answers:
//! `GOLDEN_REGEN=1 cargo test -p ferret-core --test golden_queries`
//! and commit the updated fixture with the reason.

// Dev-tool output and test fixtures are written directly; the Vfs seam
// covers production durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use ferret_core::prelude::*;

const SEED: u64 = 0x0060_1DE4;
const DIM: usize = 4;
const CORPUS_SIZE: u64 = 48;
const MODES: [QueryMode; 3] = [
    QueryMode::BruteForceOriginal,
    QueryMode::BruteForceSketch,
    QueryMode::Filtering,
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_queries.txt")
}

/// SplitMix64, pinned here so the corpus can never drift with a
/// dependency.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from the next SplitMix64 state.
fn unit(state: &mut u64) -> f32 {
    *state = mix64(*state);
    ((*state >> 40) as f64 / (1u64 << 24) as f64) as f32
}

/// A deterministic object of 1–4 segments around a per-object centre.
fn object(state: &mut u64) -> DataObject {
    let segments = 1 + (mix64(*state) % 4) as usize;
    let centre: Vec<f32> = (0..DIM).map(|_| unit(state)).collect();
    let parts = (0..segments)
        .map(|_| {
            let v: Vec<f32> = centre
                .iter()
                .map(|c| (c + 0.3 * (unit(state) - 0.5)).clamp(0.0, 1.0))
                .collect();
            (FeatureVector::new(v).unwrap(), 0.1 + unit(state))
        })
        .collect();
    DataObject::new(parts).unwrap()
}

fn build(ranking: RankingMethod, store_originals: bool) -> SearchEngine {
    let params = SketchParams::new(96, vec![0.0; DIM], vec![1.0; DIM]).unwrap();
    let mut engine = SearchEngine::builder(params, SEED)
        .ranking(ranking)
        .store_originals(store_originals)
        .parallelism(Parallelism::Threads(2))
        .telemetry(Some(Arc::new(MetricsRegistry::new())))
        .build()
        .unwrap();
    let mut state = SEED;
    for i in 0..CORPUS_SIZE {
        engine.insert(ObjectId(i), object(&mut state)).unwrap();
    }
    // A removed object must never be answered.
    assert!(engine.remove(ObjectId(7)));
    engine
}

fn options(mode: QueryMode, k: usize) -> QueryOptions {
    let mut opts = QueryOptions::filtering(
        k,
        FilterParams {
            query_segments: 2,
            candidates_per_segment: 6,
            ..FilterParams::default()
        },
    );
    opts.mode = mode;
    opts
}

fn render(out: &mut String, label: &str, answer: Result<QueryResponse>) {
    write!(out, "{label} |").unwrap();
    match answer {
        Err(e) => writeln!(out, " ERR {e}").unwrap(),
        Ok(resp) => {
            let s = resp.stats;
            write!(
                out,
                " {} o={} s={} d={} |",
                s.mode, s.objects_scanned, s.segments_scanned, s.distance_evals
            )
            .unwrap();
            let t = resp.trace.expect("telemetry is on");
            let stage = |st: &Option<StageTrace>| st.as_ref().map_or(0, |st| st.threads);
            write!(
                out,
                " stages={}/{}/{} cand={} res={} |",
                stage(&t.sketch),
                stage(&t.filter),
                stage(&t.rank),
                t.candidates,
                t.results
            )
            .unwrap();
            for r in &resp.results {
                write!(out, " {}:{:016x}", r.id.0, r.distance.to_bits()).unwrap();
            }
            out.push('\n');
        }
    }
}

/// Every query the fixture pins, against one engine.
fn render_engine(out: &mut String, name: &str, engine: &SearchEngine) {
    let mut state = SEED ^ 0xABCD;
    let queries: Vec<DataObject> = (0..3).map(|_| object(&mut state)).collect();
    let three = DataObject::new(
        [0.2f32, 0.5, 0.8]
            .iter()
            .map(|&x| (FeatureVector::new(vec![x; DIM]).unwrap(), 1.0))
            .collect(),
    )
    .unwrap();
    let two_segment_id = engine
        .ids()
        .into_iter()
        .find(|&id| engine.sketched(id).unwrap().num_segments() == 2)
        .unwrap();
    let restrict: HashSet<ObjectId> = (0..CORPUS_SIZE).step_by(3).map(ObjectId).collect();
    for mode in MODES {
        for (i, q) in queries.iter().enumerate() {
            render(
                out,
                &format!("{name} query#{i} {mode}"),
                engine.query(q, &options(mode, 5)),
            );
        }
        for id in [0u64, 13, 7, 999] {
            render(
                out,
                &format!("{name} id={id} {mode}"),
                engine.query_by_id(ObjectId(id), &options(mode, 5)),
            );
        }
        let mut opts = options(mode, 4);
        opts.restrict = Some(restrict.clone());
        render(
            out,
            &format!("{name} query#0 restrict {mode}"),
            engine.query(&queries[0], &opts),
        );
        render(
            out,
            &format!("{name} id=3 restrict {mode}"),
            engine.query_by_id(ObjectId(3), &opts),
        );
        let mut opts = options(mode, 6);
        opts.weight_override = Some(vec![3.0, 1.0, 0.0]);
        render(
            out,
            &format!("{name} three weights=3,1,0 {mode}"),
            engine.query(&three, &opts),
        );
        opts.weight_override = Some(vec![1.0, 3.0]);
        render(
            out,
            &format!("{name} id={} weights=1,3 {mode}", two_segment_id.0),
            engine.query_by_id(two_segment_id, &opts),
        );
        render(
            out,
            &format!("{name} three weights=1,3 {mode}"),
            engine.query(&three, &opts),
        );
        let mut opts = options(mode, 8);
        opts.min_similarity = Some(0.55);
        opts.limit = Some(3);
        render(
            out,
            &format!("{name} query#1 shaped {mode}"),
            engine.query(&queries[1], &opts),
        );
        render(
            out,
            &format!("{name} query#1 k=0 {mode}"),
            engine.query(&queries[1], &options(mode, 0)),
        );
    }
}

fn render_all() -> String {
    let mut out = String::new();
    let engines = [
        ("emd", build(RankingMethod::Emd, true)),
        (
            "thresholded",
            build(
                RankingMethod::ThresholdedEmd {
                    tau: 0.6,
                    sqrt_weights: true,
                },
                true,
            ),
        ),
        ("greedy", build(RankingMethod::GreedyEmd, true)),
        ("sketch-only", build(RankingMethod::Emd, false)),
    ];
    for (name, engine) in &engines {
        render_engine(&mut out, name, engine);
    }
    out
}

#[test]
fn golden_queries_are_stable() {
    let rendered = render_all();
    let path = fixture_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "fixture line count"
    );
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a query answer drifted from the golden fixture");
    }
}

//! Estimator-quality suite: the sketch builder must produce Hamming
//! distances that track the analytic collision probability within
//! Chernoff/Hoeffding tolerance bands, and the engine built on it must
//! find tight clusters on a clustered recall benchmark.
//!
//! The bands are sized for an overall failure probability of `DELTA`
//! over the builder seed; the seeds below are pinned, so the suite is
//! fully deterministic.

use ferret_core::engine::{QueryOptions, SearchEngine};
use ferret_core::sketch::{SketchBuilder, SketchParams};
use ferret_eval::benchmark::BenchmarkSuite;
use ferret_eval::estimator::{clustered_objects, evaluate_builder, seeded_corpus};
use ferret_eval::runner::run_suite;

const DELTA: f64 = 1e-6;
const SEED: u64 = 0x00FE_44E7;

/// Parameter shapes covering the interesting corners of the
/// construction: no folding, heavy folding, skewed ranges, and explicit
/// dimension weights (including a zero-range dimension).
fn param_shapes() -> Vec<(&'static str, SketchParams)> {
    vec![
        (
            "k1-uniform",
            SketchParams::new(512, vec![0.0; 8], vec![1.0; 8]).unwrap(),
        ),
        (
            "k4-uniform",
            SketchParams::with_options(512, 4, vec![0.0; 8], vec![1.0; 8], None).unwrap(),
        ),
        (
            "k2-skewed-ranges",
            SketchParams::with_options(
                512,
                2,
                vec![-10.0, 0.0, 0.0, 5.0],
                vec![10.0, 0.5, 100.0, 5.0],
                None,
            )
            .unwrap(),
        ),
        (
            "k2-weighted",
            SketchParams::with_options(
                512,
                2,
                vec![0.0; 6],
                vec![1.0; 6],
                Some(vec![4.0, 2.0, 1.0, 1.0, 0.5, 0.0]),
            )
            .unwrap(),
        ),
    ]
}

#[test]
fn sketches_pass_tolerance_bands_on_all_shapes() {
    for (name, params) in param_shapes() {
        let corpus = seeded_corpus(&params, 12, SEED);
        let builder = SketchBuilder::new(params, SEED);
        let report = evaluate_builder(&builder, &corpus, DELTA).unwrap();
        assert!(
            report.pass(),
            "{name}: {} of {} pairs outside the band \
             (max deviation {:.4}, tolerance {:.4})",
            report.violations().len(),
            report.checks.len(),
            report.max_deviation(),
            report.checks[0].tolerance,
        );
        // The bands are loose by construction; the typical deviation
        // must be much tighter than the worst-case bound, otherwise
        // the estimator is systematically biased.
        assert!(
            report.mean_abs_deviation() < report.checks[0].tolerance / 2.0,
            "{name}: mean deviation {:.4} suspiciously close to band {:.4}",
            report.mean_abs_deviation(),
            report.checks[0].tolerance,
        );
    }
}

#[test]
fn negative_control_mismatched_builders_fail_bands() {
    // Sketch the corpus with one builder but score the pairs against
    // sketches from a differently seeded builder: the Hamming fractions
    // of close pairs then hover near coin-flip level, far outside the
    // band around their small expectations. If this "estimator" passed,
    // the bands would be too loose to certify anything.
    let params = SketchParams::new(512, vec![0.0; 8], vec![1.0; 8]).unwrap();
    let a = SketchBuilder::new(params.clone(), SEED);
    let b = SketchBuilder::new(params.clone(), SEED ^ 0xDEAD_BEEF);
    // Close pairs: base vector plus a tiny perturbation.
    let base = seeded_corpus(&params, 6, SEED);
    let mut corpus = Vec::new();
    for v in &base {
        corpus.push(v.clone());
        corpus.push(v.iter().map(|x| x + 0.01).collect());
    }
    // Interleave: even indices sketched by `a`, odd by `b`.
    let report_ok = evaluate_builder(&a, &corpus, DELTA).unwrap();
    assert!(report_ok.pass(), "sanity: single builder must pass");
    let sketches: Vec<_> = corpus
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if i % 2 == 0 {
                a.sketch_components(v).unwrap()
            } else {
                b.sketch_components(v).unwrap()
            }
        })
        .collect();
    let n = a.nbits() as f64;
    let mut worst = 0.0f64;
    let mut violated = false;
    for check in &report_ok.checks {
        // Re-score the same pairs with the mismatched sketches; pairs
        // with one even and one odd index cross the builder boundary.
        if check.left % 2 == check.right % 2 {
            continue;
        }
        let observed =
            f64::from(sketches[check.left].hamming_unchecked(&sketches[check.right])) / n;
        let deviation = (observed - check.expected).abs();
        worst = worst.max(deviation);
        if deviation > check.tolerance {
            violated = true;
        }
    }
    assert!(
        violated,
        "mismatched builders stayed within bands (worst deviation {worst:.4}) — \
         the harness has no statistical power"
    );
}

#[test]
fn engine_finds_tight_clusters() {
    let params = SketchParams::with_options(256, 2, vec![-1.0; 8], vec![1.0; 8], None).unwrap();
    let (objects, sets) = clustered_objects(&params, 6, 5, 0.02, SEED);
    let suite = BenchmarkSuite::from_sets(&sets);
    let mut engine = SearchEngine::builder(params, SEED).build().unwrap();
    for (id, object) in objects {
        engine.insert(id, object).unwrap();
    }
    for options in [
        QueryOptions::default(),
        QueryOptions::brute_force_sketch(10),
    ] {
        let result = run_suite(&engine, &suite, &options).unwrap();
        assert_eq!(result.outcomes.len(), 6, "{:?}", options.mode);
        // Tight clusters inside the range: the sketch pipeline must
        // actually find them.
        assert!(
            result.quality.average_precision > 0.8,
            "{:?}: average precision {:.3} too low for tight clusters",
            options.mode,
            result.quality.average_precision
        );
    }
}

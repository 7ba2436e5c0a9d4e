//! End-to-end integration tests: each of the paper's four data types runs
//! through its full pipeline (generate → extract → sketch → filter → rank)
//! and must retrieve the planted ground truth.

use std::sync::Arc;

use ferret::core::engine::{
    EngineBuilder, EngineConfig, QueryOptions, RankingMethod, SearchEngine,
};
use ferret::core::filter::FilterParams;
use ferret::datatypes::audio::{audio_sketch_params, generate_timit_dataset, TimitConfig};
use ferret::datatypes::genomic::{
    generate_genomic_dataset, genomic_sketch_params, MicroarrayConfig,
};
use ferret::datatypes::image::{generate_vary_dataset, image_sketch_params, VaryConfig};
use ferret::datatypes::shape::{generate_psb_dataset, shape_sketch_params, PsbConfig};
use ferret::datatypes::Dataset;
use ferret::eval::{run_suite, BenchmarkSuite, SuiteResult};

fn index(dataset: &Dataset, config: EngineConfig) -> SearchEngine {
    let mut engine = EngineBuilder::from_config(config).build().unwrap();
    for (id, obj) in &dataset.objects {
        engine.insert(*id, obj.clone()).expect("insert");
    }
    engine
}

fn evaluate(engine: &SearchEngine, dataset: &Dataset, options: &QueryOptions) -> SuiteResult {
    let suite = BenchmarkSuite::from_sets(&dataset.similarity_sets);
    run_suite(engine, &suite, options).expect("suite runs")
}

#[test]
fn image_pipeline_finds_planted_sets() {
    let dataset = generate_vary_dataset(&VaryConfig {
        num_sets: 5,
        set_size: 3,
        num_distractors: 40,
        raster_size: 32,
        noise: 0.02,
        seed: 11,
    });
    dataset.validate().unwrap();
    let mut config = EngineConfig::basic(image_sketch_params(96, 2), 3);
    config.ranking = RankingMethod::ThresholdedEmd {
        tau: 4.0,
        sqrt_weights: true,
    };
    let engine = index(&dataset, config);

    let brute = evaluate(&engine, &dataset, &QueryOptions::brute_force(10));
    assert!(
        brute.quality.average_precision > 0.5,
        "image brute-force avg precision {:.3}",
        brute.quality.average_precision
    );
    let filt = evaluate(
        &engine,
        &dataset,
        &QueryOptions::filtering(
            10,
            FilterParams {
                query_segments: 2,
                candidates_per_segment: 25,
                ..FilterParams::default()
            },
        ),
    );
    assert!(
        filt.quality.average_precision > 0.4,
        "image filtering avg precision {:.3}",
        filt.quality.average_precision
    );
    // Filtering must actually filter.
    assert!(filt.avg_distance_evals < dataset.len() as f64 * 0.9);
}

#[test]
fn audio_pipeline_finds_same_sentence_by_other_speakers() {
    let dataset = generate_timit_dataset(&TimitConfig {
        num_sets: 4,
        speakers_per_set: 4,
        num_distractors: 16,
        vocab_size: 30,
        words_per_sentence: (4, 6),
        seed: 2,
    });
    dataset.validate().unwrap();
    let engine = index(
        &dataset,
        EngineConfig::basic(audio_sketch_params(&dataset, 600, 2), 5),
    );
    let brute = evaluate(&engine, &dataset, &QueryOptions::brute_force(12));
    assert!(
        brute.quality.average_precision > 0.6,
        "audio brute-force avg precision {:.3}",
        brute.quality.average_precision
    );
    let sketch = evaluate(&engine, &dataset, &QueryOptions::brute_force_sketch(12));
    assert!(
        sketch.quality.average_precision > 0.5,
        "audio sketch avg precision {:.3}",
        sketch.quality.average_precision
    );
}

#[test]
fn shape_pipeline_is_rotation_invariant_retrieval() {
    let dataset = generate_psb_dataset(&PsbConfig {
        num_classes: 5,
        class_size: 3,
        num_distractors: 25,
        grid_size: 24,
        seed: 6,
    });
    dataset.validate().unwrap();
    let engine = index(
        &dataset,
        EngineConfig::basic(shape_sketch_params(&dataset, 800, 2), 9),
    );
    let brute = evaluate(&engine, &dataset, &QueryOptions::brute_force(10));
    assert!(
        brute.quality.average_precision > 0.5,
        "shape brute-force avg precision {:.3} (classes contain rotated variants)",
        brute.quality.average_precision
    );
    // Sketches keep most of the quality at a fraction of the bytes.
    let sketch = evaluate(&engine, &dataset, &QueryOptions::brute_force_sketch(10));
    assert!(
        sketch.quality.average_precision > brute.quality.average_precision * 0.6,
        "shape sketch avg precision {:.3} vs brute {:.3}",
        sketch.quality.average_precision,
        brute.quality.average_precision
    );
    let fp = engine.metadata_footprint();
    assert!(fp.ratio() > 15.0, "shape metadata ratio {:.1}", fp.ratio());
}

#[test]
fn genomic_pipeline_retrieves_coexpressed_modules() {
    let dataset = generate_genomic_dataset(&MicroarrayConfig {
        num_modules: 6,
        module_size: 4,
        num_background: 60,
        num_experiments: 50,
        noise: 0.25,
        seed: 8,
    });
    dataset.validate().unwrap();
    let mut config = EngineConfig::basic(genomic_sketch_params(&dataset, 128, 1), 2);
    config.seg_distance = Arc::new(ferret::core::distance::correlation::PearsonDistance);
    let engine = index(&dataset, config);
    let brute = evaluate(&engine, &dataset, &QueryOptions::brute_force(10));
    assert!(
        brute.quality.average_precision > 0.7,
        "genomic avg precision {:.3}",
        brute.quality.average_precision
    );
}

/// Filtering results must be a subset-quality approximation of brute
/// force: the top hit of a filtered query matches the brute-force top hit
/// on an easy, well-separated dataset.
#[test]
fn filtering_agrees_with_brute_force_on_easy_data() {
    let dataset = generate_genomic_dataset(&MicroarrayConfig {
        num_modules: 4,
        module_size: 4,
        num_background: 40,
        num_experiments: 40,
        noise: 0.1,
        seed: 14,
    });
    let engine = index(
        &dataset,
        EngineConfig::basic(genomic_sketch_params(&dataset, 256, 1), 4),
    );
    for set in &dataset.similarity_sets {
        let seed = set[0];
        let brute = engine
            .query_by_id(seed, &QueryOptions::brute_force(2))
            .unwrap();
        let filt = engine
            .query_by_id(
                seed,
                &QueryOptions::filtering(
                    2,
                    FilterParams {
                        query_segments: 1,
                        candidates_per_segment: 10,
                        ..FilterParams::default()
                    },
                ),
            )
            .unwrap();
        // Both rank the seed itself first.
        assert_eq!(brute.results[0].id, seed);
        assert_eq!(filt.results[0].id, seed);
    }
}

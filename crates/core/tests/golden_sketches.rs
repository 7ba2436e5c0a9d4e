//! Golden-sketch regression fixtures: byte-exact sketches for a pinned
//! parameter set, seed, and corpus, checked into the repository.
//!
//! Sketch bytes are persisted (disk store, sketch files) and compared
//! across processes, so the construction must never drift — a change in
//! RNG stream order, threshold comparison, fold order, or bit packing
//! would silently corrupt every existing database. The production builder
//! must reproduce the fixture exactly.
//!
//! To regenerate after an *intentional* format change:
//! `GOLDEN_REGEN=1 cargo test -p ferret-core --test golden_sketches`
//! and commit the updated fixture together with a migration story for
//! existing stores.

// Dev-tool output and test fixtures are written directly; the Vfs seam
// covers production durability, not harness artifacts.
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::path::PathBuf;

use ferret_core::sketch::{SketchBuilder, SketchParams};

const SEED: u64 = 0x00FE_44E7;
const CORPUS_SIZE: usize = 24;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_sketches.txt")
}

fn pinned_params() -> SketchParams {
    SketchParams::with_options(
        128,
        2,
        vec![-1.0, 0.0, 0.0, -5.0, 0.0, 2.0, 0.0, 0.0],
        vec![1.0, 1.0, 10.0, 5.0, 0.25, 2.0, 1.0, 1.0],
        Some(vec![1.0, 2.0, 0.5, 1.0, 4.0, 1.0, 0.0, 1.5]),
    )
    .unwrap()
}

/// SplitMix64, pinned here independently of any library so the corpus
/// bytes can never drift with a dependency.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The pinned corpus: deterministic values spanning below, inside, and
/// above each dimension's range (clipping is part of the contract).
fn pinned_corpus(params: &SketchParams) -> Vec<Vec<f32>> {
    let d = params.dim();
    let mut state = SEED;
    (0..CORPUS_SIZE)
        .map(|_| {
            (0..d)
                .map(|i| {
                    state = mix64(state);
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                    let lo = f64::from(params.mins[i]);
                    let range = f64::from(params.maxs[i] - params.mins[i]);
                    // 150% of the range, centred: 1/6 below min, 1/6 above max.
                    (lo - 0.25 * range + unit * 1.5 * range.max(0.5)) as f32
                })
                .collect()
        })
        .collect()
}

fn render_sketches(builder: &SketchBuilder, corpus: &[Vec<f32>]) -> String {
    let mut out = String::new();
    for v in corpus {
        let sketch = builder.sketch_components(v).unwrap();
        for byte in sketch.to_bytes() {
            write!(out, "{byte:02x}").unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn golden_sketches_are_stable() {
    let params = pinned_params();
    let corpus = pinned_corpus(&params);
    let builder = SketchBuilder::new(params, SEED);
    let rendered = render_sketches(&builder, &corpus);

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
    assert_eq!(golden.lines().count(), CORPUS_SIZE, "fixture line count");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got, want,
            "sketch {i} drifted from the golden fixture — this breaks every \
             persisted store; see the module docs before regenerating"
        );
    }
}

#[test]
fn golden_corpus_exercises_clipping() {
    // Guard the fixture's coverage: the corpus must contain values below
    // min and above max for at least one dimension, or the golden test
    // stops covering the saturation paths.
    let params = pinned_params();
    let corpus = pinned_corpus(&params);
    let mut below = false;
    let mut above = false;
    for v in &corpus {
        for (i, &x) in v.iter().enumerate() {
            below |= x < params.mins[i];
            above |= x > params.maxs[i];
        }
    }
    assert!(below && above, "corpus no longer spans outside the range");
}

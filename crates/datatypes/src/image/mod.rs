//! The image data type (paper §5.1): region-based image retrieval.
//!
//! Pipeline: render/ingest a raster → color segmentation (JSEG stand-in) →
//! 14-d region features (9 color moments + 5 bounding-box features, weight
//! ∝ √area). Includes a global-feature baseline standing in for the
//! SIMPLIcity comparator of Table 1 and generators for the VARY-like
//! quality benchmark and the Mixed-image speed benchmark.

pub mod features;
pub mod raster;
pub mod segment;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ferret_core::error::Result;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::plugin::Extractor;
use ferret_core::sketch::SketchParams;
use ferret_core::vector::FeatureVector;

use crate::common::Dataset;
pub use features::IMAGE_DIM;
use features::{
    color_moments, extract_region_features, feature_maxs, feature_mins, regions_to_object,
};
use raster::{Raster, RegionShape, RegionSpec, SceneSpec};
use segment::{segment, SegmenterParams};

/// Region-based image extractor: segmentation + 14-d region features.
#[derive(Debug, Clone)]
pub struct ImageExtractor {
    params: SegmenterParams,
    seed: u64,
}

impl ImageExtractor {
    /// Creates an extractor with default segmentation parameters.
    pub fn new(seed: u64) -> Self {
        Self {
            params: SegmenterParams::default(),
            seed,
        }
    }
}

impl Extractor for ImageExtractor {
    type Input = Raster;

    fn name(&self) -> &'static str {
        "image-region"
    }

    fn dim(&self) -> usize {
        IMAGE_DIM
    }

    fn extract(&self, input: &Raster) -> Result<DataObject> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let seg = segment(input, &self.params, &mut rng);
        regions_to_object(extract_region_features(input, &seg))
    }
}

/// Dimensionality of the global (SIMPLIcity stand-in) features: 9 global
/// color moments plus 4 quadrant mean colors.
pub const GLOBAL_IMAGE_DIM: usize = 21;

/// Global-feature image extractor: the non-region baseline of Table 1.
///
/// Represents the whole image by one feature vector (global color moments
/// plus a 2×2 grid of quadrant mean colors), the classic CBIR approach the
/// paper's region-based method is compared against.
#[derive(Debug, Clone, Default)]
pub struct GlobalImageExtractor;

impl Extractor for GlobalImageExtractor {
    type Input = Raster;

    fn name(&self) -> &'static str {
        "image-global"
    }

    fn dim(&self) -> usize {
        GLOBAL_IMAGE_DIM
    }

    fn extract(&self, input: &Raster) -> Result<DataObject> {
        let moments = color_moments(input.pixels().iter().copied());
        let (w, h) = (input.width(), input.height());
        let mut components = Vec::with_capacity(GLOBAL_IMAGE_DIM);
        components.extend_from_slice(&moments);
        for qy in 0..2 {
            for qx in 0..2 {
                let (x0, x1) = (qx * w / 2, ((qx + 1) * w / 2).max(qx * w / 2 + 1));
                let (y0, y1) = (qy * h / 2, ((qy + 1) * h / 2).max(qy * h / 2 + 1));
                let mut sum = [0.0f64; 3];
                let mut n = 0usize;
                for y in y0..y1.min(h) {
                    for x in x0..x1.min(w) {
                        let p = input.get(x, y);
                        for ch in 0..3 {
                            sum[ch] += f64::from(p[ch]);
                        }
                        n += 1;
                    }
                }
                for s in sum {
                    components.push((s / n.max(1) as f64) as f32);
                }
            }
        }
        Ok(DataObject::single(FeatureVector::from_components(
            components,
        )))
    }
}

/// Sketch parameters for region image features.
pub fn image_sketch_params(nbits: usize, xor_folds: usize) -> SketchParams {
    SketchParams::with_options(nbits, xor_folds, feature_mins(), feature_maxs(), None)
        .expect("static image ranges are valid")
}

/// Configuration of the VARY-like quality benchmark generator.
#[derive(Debug, Clone)]
pub struct VaryConfig {
    /// Number of planted similarity sets (the paper's VARY has 32).
    pub num_sets: usize,
    /// Images per similarity set.
    pub set_size: usize,
    /// Additional unrelated distractor images.
    pub num_distractors: usize,
    /// Raster side length in pixels.
    pub raster_size: usize,
    /// Per-pixel color noise amplitude.
    pub noise: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for VaryConfig {
    fn default() -> Self {
        Self {
            num_sets: 32,
            set_size: 5,
            num_distractors: 500,
            raster_size: 48,
            noise: 0.02,
            seed: 0xFE44E7,
        }
    }
}

fn random_color<R: Rng>(rng: &mut R) -> [f32; 3] {
    [
        rng.random_range(0.05..0.95),
        rng.random_range(0.05..0.95),
        rng.random_range(0.05..0.95),
    ]
}

/// Generates a random scene with 2–5 salient regions.
pub fn random_scene<R: Rng>(rng: &mut R) -> SceneSpec {
    let num_regions = rng.random_range(2..=5);
    let mut regions = Vec::with_capacity(num_regions);
    for _ in 0..num_regions {
        regions.push(RegionSpec {
            shape: if rng.random_bool(0.5) {
                RegionShape::Rect
            } else {
                RegionShape::Ellipse
            },
            cx: rng.random_range(0.15..0.85),
            cy: rng.random_range(0.15..0.85),
            rx: rng.random_range(0.08..0.3),
            ry: rng.random_range(0.08..0.3),
            color: random_color(rng),
        });
    }
    SceneSpec {
        background: random_color(rng),
        regions,
    }
}

/// Perturbs a base scene into a "similar" variant, mimicking two
/// photographs of the same subject: the salient regions keep their colors
/// (with jitter) but move and rescale, the *background* often changes
/// entirely (a different setting), and small distractor regions come and
/// go. This is exactly the variation under which region-based matching
/// beats global color statistics (paper §5.1).
pub fn perturb_scene<R: Rng>(base: &SceneSpec, rng: &mut R) -> SceneSpec {
    let jc = |c: f32, rng: &mut R| (c + rng.random_range(-0.08f32..0.08)).clamp(0.02, 0.98);
    let mut scene = base.clone();
    // Same subject, different setting: half the time the background is a
    // completely different color.
    if rng.random_bool(0.5) {
        scene.background = random_color(rng);
    } else {
        for ch in scene.background.iter_mut() {
            *ch = jc(*ch, rng);
        }
    }
    for r in scene.regions.iter_mut() {
        r.cx = (r.cx + rng.random_range(-0.12..0.12)).clamp(0.1, 0.9);
        r.cy = (r.cy + rng.random_range(-0.12..0.12)).clamp(0.1, 0.9);
        r.rx = (r.rx * rng.random_range(0.75..1.3)).clamp(0.05, 0.35);
        r.ry = (r.ry * rng.random_range(0.75..1.3)).clamp(0.05, 0.35);
        for ch in r.color.iter_mut() {
            *ch = jc(*ch, rng);
        }
    }
    // Occasionally drop a non-salient region (occlusion / reframing).
    if scene.regions.len() > 2 && rng.random_bool(0.25) {
        let victim = rng.random_range(0..scene.regions.len());
        scene.regions.remove(victim);
    }
    // Occasionally a small unrelated object enters the frame.
    if rng.random_bool(0.35) {
        scene.regions.push(RegionSpec {
            shape: if rng.random_bool(0.5) {
                RegionShape::Rect
            } else {
                RegionShape::Ellipse
            },
            cx: rng.random_range(0.15..0.85),
            cy: rng.random_range(0.15..0.85),
            rx: rng.random_range(0.05..0.12),
            ry: rng.random_range(0.05..0.12),
            color: random_color(rng),
        });
    }
    scene
}

/// Generates the VARY-like image quality benchmark: `num_sets` planted
/// similarity sets of perturbed scenes plus unrelated distractors, run
/// through the full render → segment → extract pipeline.
pub fn generate_vary_dataset(cfg: &VaryConfig) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let extractor = ImageExtractor::new(cfg.seed ^ 0x5EED);
    let mut objects = Vec::new();
    let mut similarity_sets = Vec::new();
    let mut next_id = 0u64;
    let size = cfg.raster_size;
    for _ in 0..cfg.num_sets {
        let base = random_scene(&mut rng);
        let mut set = Vec::with_capacity(cfg.set_size);
        for v in 0..cfg.set_size {
            let scene = if v == 0 {
                base.clone()
            } else {
                perturb_scene(&base, &mut rng)
            };
            let raster = scene.render(size, size, cfg.noise, &mut rng);
            let obj = extractor.extract(&raster).expect("extraction succeeds");
            let id = ObjectId(next_id);
            next_id += 1;
            objects.push((id, obj));
            set.push(id);
        }
        similarity_sets.push(set);
    }
    for _ in 0..cfg.num_distractors {
        let scene = random_scene(&mut rng);
        let raster = scene.render(size, size, cfg.noise, &mut rng);
        let obj = extractor.extract(&raster).expect("extraction succeeds");
        objects.push((ObjectId(next_id), obj));
        next_id += 1;
    }
    Dataset {
        name: "vary-image".into(),
        objects,
        similarity_sets,
        feature_dim: IMAGE_DIM,
    }
}

/// Generates the same benchmark through the global-feature baseline
/// extractor (identical scenes via the same seed, different features).
pub fn generate_vary_dataset_global(cfg: &VaryConfig) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let extractor = GlobalImageExtractor;
    let mut objects = Vec::new();
    let mut similarity_sets = Vec::new();
    let mut next_id = 0u64;
    let size = cfg.raster_size;
    for _ in 0..cfg.num_sets {
        let base = random_scene(&mut rng);
        let mut set = Vec::with_capacity(cfg.set_size);
        for v in 0..cfg.set_size {
            let scene = if v == 0 {
                base.clone()
            } else {
                perturb_scene(&base, &mut rng)
            };
            let raster = scene.render(size, size, cfg.noise, &mut rng);
            let obj = extractor.extract(&raster).expect("extraction succeeds");
            let id = ObjectId(next_id);
            next_id += 1;
            objects.push((id, obj));
            set.push(id);
        }
        similarity_sets.push(set);
    }
    for _ in 0..cfg.num_distractors {
        let scene = random_scene(&mut rng);
        let raster = scene.render(size, size, cfg.noise, &mut rng);
        let obj = extractor.extract(&raster).expect("extraction succeeds");
        objects.push((ObjectId(next_id), obj));
        next_id += 1;
    }
    Dataset {
        name: "vary-image-global".into(),
        objects,
        similarity_sets,
        feature_dim: GLOBAL_IMAGE_DIM,
    }
}

/// Sketch parameters for the global baseline features.
pub fn global_image_sketch_params(nbits: usize, xor_folds: usize) -> SketchParams {
    let mut mins = vec![0.0f32; GLOBAL_IMAGE_DIM];
    let mut maxs = vec![1.0f32; GLOBAL_IMAGE_DIM];
    // Skew dims are in [-1, 1].
    for d in 6..9 {
        mins[d] = -1.0;
        maxs[d] = 1.0;
    }
    SketchParams::with_options(nbits, xor_folds, mins, maxs, None)
        .expect("static global ranges are valid")
}

/// Fast parametric generator for the Mixed-image *speed* benchmark
/// (§6.1): objects are drawn directly in feature space with the same
/// ranges and segment statistics (≈ 10.8 segments/object) the region
/// extractor produces, so per-query cost is representative without
/// rendering 660k rasters.
pub fn generate_mixed_images(n: usize, seed: u64) -> Vec<(ObjectId, DataObject)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mins = feature_mins();
    let maxs = feature_maxs();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let k = rng.random_range(6..=16); // Mean ≈ 11 segments.
        let mut parts = Vec::with_capacity(k);
        for _ in 0..k {
            let mut c = Vec::with_capacity(IMAGE_DIM);
            for d in 0..IMAGE_DIM {
                c.push(rng.random_range(mins[d]..maxs[d]));
            }
            let area: f32 = rng.random_range(1.0f32..1000.0);
            parts.push((FeatureVector::from_components(c), area.sqrt()));
        }
        out.push((
            ObjectId(i as u64),
            DataObject::new(parts).expect("valid generated object"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extractor_names_and_dims() {
        assert_eq!(ImageExtractor::new(0).name(), "image-region");
        assert_eq!(ImageExtractor::new(0).dim(), IMAGE_DIM);
        assert_eq!(GlobalImageExtractor.name(), "image-global");
        assert_eq!(GlobalImageExtractor.dim(), GLOBAL_IMAGE_DIM);
    }

    #[test]
    fn extract_region_object() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let raster = random_scene(&mut rng).render(32, 32, 0.02, &mut rng);
        let obj = ImageExtractor::new(0).extract(&raster).unwrap();
        assert_eq!(obj.dim(), IMAGE_DIM);
        assert!(obj.num_segments() >= 1);
    }

    #[test]
    fn extract_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let raster = random_scene(&mut rng).render(32, 32, 0.02, &mut rng);
        let e = ImageExtractor::new(5);
        let a = e.extract(&raster).unwrap();
        let b = e.extract(&raster).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn global_extractor_single_segment() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let raster = random_scene(&mut rng).render(32, 32, 0.02, &mut rng);
        let obj = GlobalImageExtractor.extract(&raster).unwrap();
        assert_eq!(obj.num_segments(), 1);
        assert_eq!(obj.dim(), GLOBAL_IMAGE_DIM);
    }

    #[test]
    fn vary_dataset_structure() {
        let cfg = VaryConfig {
            num_sets: 3,
            set_size: 3,
            num_distractors: 5,
            raster_size: 24,
            noise: 0.02,
            seed: 7,
        };
        let ds = generate_vary_dataset(&cfg);
        assert_eq!(ds.len(), 3 * 3 + 5);
        assert_eq!(ds.similarity_sets.len(), 3);
        ds.validate().unwrap();
        assert!(ds.avg_segments() >= 1.0);
    }

    #[test]
    fn vary_global_dataset_structure() {
        let cfg = VaryConfig {
            num_sets: 2,
            set_size: 2,
            num_distractors: 3,
            raster_size: 24,
            noise: 0.02,
            seed: 7,
        };
        let ds = generate_vary_dataset_global(&cfg);
        assert_eq!(ds.len(), 7);
        assert!(ds.objects.iter().all(|(_, o)| o.num_segments() == 1));
        ds.validate().unwrap();
    }

    /// Variants of the same scene must be closer (in EMD) than unrelated
    /// scenes — the planted ground truth has to be learnable.
    #[test]
    fn variants_are_closer_than_distractors() {
        use ferret_core::distance::emd::ThresholdedEmd;
        use ferret_core::distance::lp::L1;
        use ferret_core::distance::ObjectDistance;

        let cfg = VaryConfig {
            num_sets: 4,
            set_size: 3,
            num_distractors: 0,
            raster_size: 32,
            noise: 0.02,
            seed: 99,
        };
        let ds = generate_vary_dataset(&cfg);
        let emd = ThresholdedEmd::new(L1, 4.0, true);
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for (si, set) in ds.similarity_sets.iter().enumerate() {
            let a = ds.object(set[0]).unwrap();
            let b = ds.object(set[1]).unwrap();
            intra.push(emd.distance(a, b).unwrap());
            for (sj, other) in ds.similarity_sets.iter().enumerate() {
                if si < sj {
                    let c = ds.object(other[0]).unwrap();
                    inter.push(emd.distance(a, c).unwrap());
                }
            }
        }
        let mean_intra: f64 = intra.iter().sum::<f64>() / intra.len() as f64;
        let mean_inter: f64 = inter.iter().sum::<f64>() / inter.len() as f64;
        assert!(
            mean_intra < mean_inter,
            "intra {mean_intra} not below inter {mean_inter}"
        );
    }

    #[test]
    fn mixed_images_statistics() {
        let objs = generate_mixed_images(200, 1);
        assert_eq!(objs.len(), 200);
        let avg: f64 = objs
            .iter()
            .map(|(_, o)| o.num_segments() as f64)
            .sum::<f64>()
            / 200.0;
        assert!((avg - 11.0).abs() < 1.5, "avg segments {avg}");
        for (_, o) in &objs {
            assert_eq!(o.dim(), IMAGE_DIM);
        }
    }

    #[test]
    fn sketch_params_constructors() {
        let p = image_sketch_params(96, 2);
        assert_eq!(p.nbits, 96);
        assert_eq!(p.dim(), IMAGE_DIM);
        let g = global_image_sketch_params(128, 1);
        assert_eq!(g.dim(), GLOBAL_IMAGE_DIM);
    }
}

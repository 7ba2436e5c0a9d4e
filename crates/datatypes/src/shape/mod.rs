//! The 3D shape data type (paper §5.3): spherical harmonic descriptors.
//!
//! Pipeline: a parametric model (union of ellipsoids and boxes, optionally
//! rotated) is voxelized onto an axial grid; 32 concentric spherical shells
//! decompose the model; each shell's occupancy function is expanded in
//! spherical harmonics up to order 16 and reduced to its rotation-invariant
//! power spectrum — a 32 × 17 = 544-dimensional descriptor. Each object
//! has a single feature vector, so segment and object distances coincide.

pub mod harmonics;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ferret_core::error::{CoreError, Result};
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::plugin::Extractor;
use ferret_core::sketch::SketchParams;
use ferret_core::vector::FeatureVector;

use crate::common::Dataset;
use harmonics::ShAccumulator;

/// Number of concentric shells.
pub const NUM_SHELLS: usize = 32;

/// Maximum spherical-harmonic degree (inclusive), giving 17 values/shell.
pub const MAX_DEGREE: usize = 16;

/// Descriptor dimensionality: 32 shells × 17 degrees = 544.
pub const SHAPE_DIM: usize = NUM_SHELLS * (MAX_DEGREE + 1);

/// A geometric primitive in model coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum Primitive {
    /// An axis-aligned ellipsoid.
    Ellipsoid {
        /// Center.
        center: [f64; 3],
        /// Semi-axes.
        radii: [f64; 3],
    },
    /// An axis-aligned box.
    Cuboid {
        /// Center.
        center: [f64; 3],
        /// Half-extents.
        half: [f64; 3],
    },
}

impl Primitive {
    fn contains(&self, p: [f64; 3]) -> bool {
        match self {
            Primitive::Ellipsoid { center, radii } => {
                let mut s = 0.0;
                for i in 0..3 {
                    let d = (p[i] - center[i]) / radii[i].max(1e-9);
                    s += d * d;
                }
                s <= 1.0
            }
            Primitive::Cuboid { center, half } => {
                (0..3).all(|i| (p[i] - center[i]).abs() <= half[i])
            }
        }
    }
}

/// A parametric 3D model: primitives plus a whole-model rotation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeSpec {
    /// The union of these primitives is the model.
    pub primitives: Vec<Primitive>,
    /// Whole-model rotation (axis-angle); descriptor must be invariant.
    pub rotation_axis: [f64; 3],
    /// Rotation angle in radians.
    pub rotation_angle: f64,
}

impl ShapeSpec {
    /// A model with no rotation.
    pub fn unrotated(primitives: Vec<Primitive>) -> Self {
        Self {
            primitives,
            rotation_axis: [0.0, 0.0, 1.0],
            rotation_angle: 0.0,
        }
    }

    fn rotation_matrix(&self) -> [[f64; 3]; 3] {
        let norm = (self.rotation_axis.iter().map(|x| x * x).sum::<f64>()).sqrt();
        if norm < 1e-12 || self.rotation_angle == 0.0 {
            return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        }
        let (x, y, z) = (
            self.rotation_axis[0] / norm,
            self.rotation_axis[1] / norm,
            self.rotation_axis[2] / norm,
        );
        let (s, c) = self.rotation_angle.sin_cos();
        let t = 1.0 - c;
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    }

    /// True if model point `p` (after inverse rotation) is inside.
    fn contains(&self, p: [f64; 3], rot_t: &[[f64; 3]; 3]) -> bool {
        // Rotate by the transpose (inverse) to reach model coordinates.
        let q = [
            rot_t[0][0] * p[0] + rot_t[1][0] * p[1] + rot_t[2][0] * p[2],
            rot_t[0][1] * p[0] + rot_t[1][1] * p[1] + rot_t[2][1] * p[2],
            rot_t[0][2] * p[0] + rot_t[1][2] * p[1] + rot_t[2][2] * p[2],
        ];
        self.primitives.iter().any(|prim| prim.contains(q))
    }
}

/// A voxelized model: an `n³` occupancy grid over `[-1, 1]³`.
#[derive(Debug, Clone)]
pub struct VoxelGrid {
    n: usize,
    data: Vec<bool>,
}

impl VoxelGrid {
    /// Voxelizes a shape onto an `n³` grid (the paper uses 64³).
    pub fn from_shape(shape: &ShapeSpec, n: usize) -> Self {
        assert!(n >= 2, "grid too small");
        let rot = shape.rotation_matrix();
        let mut data = vec![false; n * n * n];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let p = [
                        -1.0 + 2.0 * (x as f64 + 0.5) / n as f64,
                        -1.0 + 2.0 * (y as f64 + 0.5) / n as f64,
                        -1.0 + 2.0 * (z as f64 + 0.5) / n as f64,
                    ];
                    if shape.contains(p, &rot) {
                        data[(z * n + y) * n + x] = true;
                    }
                }
            }
        }
        Self { n, data }
    }

    /// Grid side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of occupied voxels.
    #[cfg(test)]
    fn occupied(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// True if the continuous point `p` (in `[-1, 1]³`) falls in an
    /// occupied voxel. Points outside the grid are unoccupied.
    pub fn contains(&self, p: [f64; 3]) -> bool {
        let n = self.n;
        let mut idx = [0usize; 3];
        for i in 0..3 {
            let c = (p[i] + 1.0) * 0.5 * n as f64;
            if c < 0.0 || c >= n as f64 {
                return false;
            }
            idx[i] = c as usize;
        }
        self.data[(idx[2] * n + idx[1]) * n + idx[0]]
    }

    /// Iterates centers of occupied voxels in `[-1, 1]³` coordinates.
    pub fn occupied_points(&self) -> impl Iterator<Item = [f64; 3]> + '_ {
        let n = self.n;
        self.data
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| {
                let x = i % n;
                let y = (i / n) % n;
                let z = i / (n * n);
                [
                    -1.0 + 2.0 * (x as f64 + 0.5) / n as f64,
                    -1.0 + 2.0 * (y as f64 + 0.5) / n as f64,
                    -1.0 + 2.0 * (z as f64 + 0.5) / n as f64,
                ]
            })
    }
}

/// Number of spherical sample directions per shell. Degree-16 harmonics
/// need at least `(16 + 1)² = 289` well-spread samples; 1024 gives a
/// comfortable margin.
const SHELL_SAMPLES: usize = 1024;

/// An equal-area Fibonacci covering of the unit sphere.
fn fibonacci_directions(n: usize) -> Vec<([f64; 3], f64, f64)> {
    let golden = std::f64::consts::PI * (3.0 - 5.0f64.sqrt());
    (0..n)
        .map(|i| {
            let ct = 1.0 - 2.0 * (i as f64 + 0.5) / n as f64;
            let st = (1.0 - ct * ct).sqrt();
            let phi = golden * i as f64;
            ([st * phi.cos(), st * phi.sin(), ct], ct, phi)
        })
        .collect()
}

/// Computes the 544-d spherical harmonic descriptor of a voxel grid.
///
/// The model is normalized by its center of mass and maximal radius and cut
/// into [`NUM_SHELLS`] concentric shells. Each shell's binary intersection
/// function with the voxel grid is sampled on a fixed equal-area direction
/// grid and reduced to its harmonic power amplitudes (square roots of the
/// per-degree power), scaled by the square root of the shell's relative
/// area, as in the paper (§5.3).
pub fn shape_descriptor(grid: &VoxelGrid) -> Result<FeatureVector> {
    // Center of mass and maximal radius from occupied voxels.
    let mut com = [0.0f64; 3];
    let mut count = 0usize;
    for p in grid.occupied_points() {
        for i in 0..3 {
            com[i] += p[i];
        }
        count += 1;
    }
    if count == 0 {
        return Err(CoreError::Extraction("empty voxel grid".into()));
    }
    for c in com.iter_mut() {
        *c /= count as f64;
    }
    let mut max_r = 0.0f64;
    for p in grid.occupied_points() {
        let r = (0..3).map(|i| (p[i] - com[i]).powi(2)).sum::<f64>().sqrt();
        max_r = max_r.max(r);
    }
    let max_r = max_r.max(1e-9);

    let dirs = fibonacci_directions(SHELL_SAMPLES);
    let mut acc = ShAccumulator::new(MAX_DEGREE);
    let mut components = vec![0.0f32; SHAPE_DIM];
    let inv_n = 1.0 / SHELL_SAMPLES as f64;
    for s in 0..NUM_SHELLS {
        let radius = (s as f64 + 0.5) / NUM_SHELLS as f64 * max_r;
        acc.reset();
        let mut hits = 0usize;
        for (dir, ct, phi) in &dirs {
            let p = [
                com[0] + radius * dir[0],
                com[1] + radius * dir[1],
                com[2] + radius * dir[2],
            ];
            if grid.contains(p) {
                acc.add_sample(*ct, *phi, inv_n);
                hits += 1;
            }
        }
        if hits == 0 {
            continue;
        }
        let rel_radius = (s as f64 + 0.5) / NUM_SHELLS as f64;
        let area_scale = rel_radius; // sqrt(area) ∝ radius.
        for (l, p) in acc.power_spectrum().into_iter().enumerate() {
            components[s * (MAX_DEGREE + 1) + l] = (p.sqrt() * area_scale) as f32;
        }
    }
    Ok(FeatureVector::from_components(components))
}

/// The shape extraction plug-in: voxel grid → 544-d descriptor.
#[derive(Debug, Clone, Copy)]
pub struct ShapeExtractor {
    /// Voxel grid resolution (the paper uses 64).
    pub grid_size: usize,
}

impl Default for ShapeExtractor {
    fn default() -> Self {
        Self { grid_size: 64 }
    }
}

impl ShapeExtractor {
    /// Extractor with a custom grid resolution (tests use smaller grids).
    pub fn with_grid(grid_size: usize) -> Self {
        Self { grid_size }
    }

    /// Voxelizes and describes a parametric shape.
    pub fn extract_spec(&self, spec: &ShapeSpec) -> Result<DataObject> {
        let grid = VoxelGrid::from_shape(spec, self.grid_size);
        Ok(DataObject::single(shape_descriptor(&grid)?))
    }
}

impl Extractor for ShapeExtractor {
    type Input = VoxelGrid;

    fn name(&self) -> &'static str {
        "shape-shd"
    }

    fn dim(&self) -> usize {
        SHAPE_DIM
    }

    fn extract(&self, input: &VoxelGrid) -> Result<DataObject> {
        Ok(DataObject::single(shape_descriptor(input)?))
    }
}

/// Generates a random base shape of 1–4 primitives.
pub fn random_shape<R: Rng>(rng: &mut R) -> ShapeSpec {
    let num = rng.random_range(1..=4);
    let primitives = (0..num)
        .map(|_| {
            let center = [
                rng.random_range(-0.35..0.35),
                rng.random_range(-0.35..0.35),
                rng.random_range(-0.35..0.35),
            ];
            let size = [
                rng.random_range(0.1..0.45),
                rng.random_range(0.1..0.45),
                rng.random_range(0.1..0.45),
            ];
            if rng.random_bool(0.5) {
                Primitive::Ellipsoid {
                    center,
                    radii: size,
                }
            } else {
                Primitive::Cuboid { center, half: size }
            }
        })
        .collect();
    ShapeSpec::unrotated(primitives)
}

/// Perturbs a base shape into a same-class variant: jittered geometry plus
/// a random whole-model rotation (the descriptor's rotation invariance is
/// what makes these variants findable).
pub fn perturb_shape<R: Rng>(base: &ShapeSpec, rng: &mut R) -> ShapeSpec {
    let mut spec = base.clone();
    for prim in spec.primitives.iter_mut() {
        match prim {
            Primitive::Ellipsoid { center, radii } => {
                for c in center.iter_mut() {
                    *c = (*c + rng.random_range(-0.03..0.03)).clamp(-0.4, 0.4);
                }
                for r in radii.iter_mut() {
                    *r = (*r * rng.random_range(0.9..1.1)).clamp(0.08, 0.5);
                }
            }
            Primitive::Cuboid { center, half } => {
                for c in center.iter_mut() {
                    *c = (*c + rng.random_range(-0.03..0.03)).clamp(-0.4, 0.4);
                }
                for h in half.iter_mut() {
                    *h = (*h * rng.random_range(0.9..1.1)).clamp(0.08, 0.5);
                }
            }
        }
    }
    spec.rotation_axis = [
        rng.random_range(-1.0..1.0),
        rng.random_range(-1.0..1.0),
        rng.random_range(-1.0..1.0),
    ];
    spec.rotation_angle = rng.random_range(0.0..std::f64::consts::TAU);
    spec
}

/// Configuration of the PSB-like shape quality benchmark generator.
#[derive(Debug, Clone)]
pub struct PsbConfig {
    /// Number of shape classes (the paper's PSB test set has 92).
    pub num_classes: usize,
    /// Models per class.
    pub class_size: usize,
    /// Additional unrelated distractor models.
    pub num_distractors: usize,
    /// Voxel grid resolution.
    pub grid_size: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for PsbConfig {
    fn default() -> Self {
        Self {
            num_classes: 20,
            class_size: 6,
            num_distractors: 80,
            grid_size: 32,
            seed: 0x9538,
        }
    }
}

/// Generates the PSB-like shape quality benchmark: classes of rotated,
/// jittered variants of base shapes plus distractors.
pub fn generate_psb_dataset(cfg: &PsbConfig) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let extractor = ShapeExtractor::with_grid(cfg.grid_size);
    let mut objects = Vec::new();
    let mut similarity_sets = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..cfg.num_classes {
        let base = random_shape(&mut rng);
        let mut set = Vec::with_capacity(cfg.class_size);
        for v in 0..cfg.class_size {
            let spec = if v == 0 {
                base.clone()
            } else {
                perturb_shape(&base, &mut rng)
            };
            let obj = extractor.extract_spec(&spec).expect("non-empty shape");
            let id = ObjectId(next_id);
            next_id += 1;
            objects.push((id, obj));
            set.push(id);
        }
        similarity_sets.push(set);
    }
    for _ in 0..cfg.num_distractors {
        let spec = random_shape(&mut rng);
        let obj = extractor.extract_spec(&spec).expect("non-empty shape");
        objects.push((ObjectId(next_id), obj));
        next_id += 1;
    }
    Dataset {
        name: "psb-shape".into(),
        objects,
        similarity_sets,
        feature_dim: SHAPE_DIM,
    }
}

/// Derives sketch parameters from a shape dataset's descriptor ranges.
pub fn shape_sketch_params(dataset: &Dataset, nbits: usize, xor_folds: usize) -> SketchParams {
    let vectors = dataset
        .objects
        .iter()
        .flat_map(|(_, o)| o.segments().iter().map(|s| &s.vector));
    SketchParams::from_samples(nbits, xor_folds, vectors).expect("dataset is non-empty")
}

/// Fast parametric generator for the Mixed-shape *speed* benchmark:
/// single-segment 544-d descriptors drawn in feature space.
pub fn generate_mixed_shapes(n: usize, seed: u64) -> Vec<(ObjectId, DataObject)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = Vec::with_capacity(SHAPE_DIM);
        for s in 0..NUM_SHELLS {
            let shell_amp = 0.02 + 0.04 * (s as f32 / NUM_SHELLS as f32);
            for l in 0..=MAX_DEGREE {
                // Power falls off with degree, as for real shapes.
                let falloff = 1.0 / (1.0 + l as f32);
                c.push(rng.random_range(0.0..shell_amp * falloff));
            }
        }
        out.push((
            ObjectId(i as u64),
            DataObject::single(FeatureVector::from_components(c)),
        ));
    }
    out
}

/// Sketch parameters matching [`generate_mixed_shapes`]'s feature ranges.
pub fn mixed_shape_sketch_params(nbits: usize, xor_folds: usize) -> SketchParams {
    let mut mins = Vec::with_capacity(SHAPE_DIM);
    let mut maxs = Vec::with_capacity(SHAPE_DIM);
    for s in 0..NUM_SHELLS {
        let shell_amp = 0.02 + 0.04 * (s as f32 / NUM_SHELLS as f32);
        for l in 0..=MAX_DEGREE {
            let falloff = 1.0 / (1.0 + l as f32);
            mins.push(0.0);
            maxs.push(shell_amp * falloff);
        }
    }
    SketchParams::with_options(nbits, xor_folds, mins, maxs, None)
        .expect("static shape ranges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_core::distance::lp::L1;
    use ferret_core::distance::SegmentDistance;

    fn sphere() -> ShapeSpec {
        ShapeSpec::unrotated(vec![Primitive::Ellipsoid {
            center: [0.0; 3],
            radii: [0.5, 0.5, 0.5],
        }])
    }

    fn bar() -> ShapeSpec {
        ShapeSpec::unrotated(vec![Primitive::Cuboid {
            center: [0.0; 3],
            half: [0.6, 0.12, 0.12],
        }])
    }

    #[test]
    fn voxelization_counts_volume() {
        let grid = VoxelGrid::from_shape(&sphere(), 24);
        // Sphere radius 0.5 in [-1,1]^3: volume fraction = (4/3)π0.5³ / 8.
        let expect = (4.0 / 3.0) * std::f64::consts::PI * 0.125 / 8.0;
        let got = grid.occupied() as f64 / (24f64.powi(3));
        assert!((got - expect).abs() / expect < 0.1, "fraction {got}");
        assert_eq!(grid.n(), 24);
    }

    #[test]
    fn descriptor_has_right_shape() {
        let grid = VoxelGrid::from_shape(&sphere(), 20);
        let d = shape_descriptor(&grid).unwrap();
        assert_eq!(d.dim(), SHAPE_DIM);
        assert!(d.components().iter().all(|c| c.is_finite() && *c >= 0.0));
    }

    #[test]
    fn empty_grid_is_rejected() {
        let empty = ShapeSpec::unrotated(vec![Primitive::Ellipsoid {
            center: [5.0, 5.0, 5.0], // Entirely outside [-1,1]^3.
            radii: [0.1, 0.1, 0.1],
        }]);
        let grid = VoxelGrid::from_shape(&empty, 16);
        assert!(shape_descriptor(&grid).is_err());
    }

    /// The headline property: rotating a model leaves its descriptor
    /// (nearly) unchanged, while a different model is clearly different.
    #[test]
    fn descriptor_rotation_invariance() {
        let e = ShapeExtractor::with_grid(28);
        let base = bar();
        let mut rotated = bar();
        rotated.rotation_axis = [0.3, 0.9, 0.1];
        rotated.rotation_angle = 1.1;
        let d_base = e.extract_spec(&base).unwrap();
        let d_rot = e.extract_spec(&rotated).unwrap();
        let d_sphere = e.extract_spec(&sphere()).unwrap();
        let v = |o: &DataObject| o.segment(0).vector.components().to_vec();
        let rot_dist = L1.eval(&v(&d_base), &v(&d_rot));
        let other_dist = L1.eval(&v(&d_base), &v(&d_sphere));
        assert!(
            rot_dist < other_dist * 0.5,
            "rotated dist {rot_dist} vs other-shape dist {other_dist}"
        );
    }

    #[test]
    fn extractor_interface() {
        let e = ShapeExtractor::default();
        assert_eq!(e.name(), "shape-shd");
        assert_eq!(e.dim(), SHAPE_DIM);
        assert_eq!(e.grid_size, 64);
        let grid = VoxelGrid::from_shape(&sphere(), 16);
        let obj = e.extract(&grid).unwrap();
        assert_eq!(obj.num_segments(), 1);
    }

    #[test]
    fn psb_dataset_structure() {
        let cfg = PsbConfig {
            num_classes: 3,
            class_size: 3,
            num_distractors: 4,
            grid_size: 16,
            seed: 1,
        };
        let ds = generate_psb_dataset(&cfg);
        assert_eq!(ds.len(), 13);
        assert_eq!(ds.similarity_sets.len(), 3);
        ds.validate().unwrap();
        assert_eq!(ds.avg_segments(), 1.0);
        let p = shape_sketch_params(&ds, 800, 2);
        assert_eq!(p.dim(), SHAPE_DIM);
    }

    /// Class variants (including rotations) must be nearer than other
    /// classes — the planted ground truth has to be learnable.
    #[test]
    fn class_members_are_closer_than_strangers() {
        let cfg = PsbConfig {
            num_classes: 4,
            class_size: 3,
            num_distractors: 0,
            grid_size: 20,
            seed: 3,
        };
        let ds = generate_psb_dataset(&cfg);
        let v = |id: ObjectId| {
            ds.object(id)
                .unwrap()
                .segment(0)
                .vector
                .components()
                .to_vec()
        };
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for (si, set) in ds.similarity_sets.iter().enumerate() {
            intra.push(L1.eval(&v(set[0]), &v(set[1])));
            for (sj, other) in ds.similarity_sets.iter().enumerate() {
                if si < sj {
                    inter.push(L1.eval(&v(set[0]), &v(other[0])));
                }
            }
        }
        let mi: f64 = intra.iter().sum::<f64>() / intra.len() as f64;
        let me: f64 = inter.iter().sum::<f64>() / inter.len() as f64;
        assert!(mi < me, "intra {mi} not below inter {me}");
    }

    #[test]
    fn mixed_shapes_statistics() {
        let objs = generate_mixed_shapes(50, 2);
        assert_eq!(objs.len(), 50);
        for (_, o) in &objs {
            assert_eq!(o.num_segments(), 1);
            assert_eq!(o.dim(), SHAPE_DIM);
        }
    }
}

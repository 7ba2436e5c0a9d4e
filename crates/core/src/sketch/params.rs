//! Sketch construction parameters.
//!
//! To initialize the sketch construction unit one specifies (paper §4.1.1):
//! `N` (sketch size in bits), per-dimension `min`/`max` value ranges, an
//! optional per-dimension weight vector `w`, and the optional threshold
//! control `K` (default 1).

use crate::error::{CoreError, Result};
use crate::object::DataObject;
use crate::vector::FeatureVector;

/// Parameters of the sketch construction unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchParams {
    /// `N`: sketch size in bits.
    pub nbits: usize,
    /// `K`: number of raw bits XOR-folded into each sketch bit (threshold
    /// control; values above 1 dampen large distances).
    pub xor_folds: usize,
    /// `min[D]`: minimum value of each dimension.
    pub mins: Vec<f32>,
    /// `max[D]`: maximum value of each dimension.
    pub maxs: Vec<f32>,
    /// `w[D]`: relative importance of each dimension (uniform when `None`).
    pub dim_weights: Option<Vec<f32>>,
}

impl SketchParams {
    /// Creates parameters with uniform dimension weights and `K = 1`.
    pub fn new(nbits: usize, mins: Vec<f32>, maxs: Vec<f32>) -> Result<Self> {
        Self::with_options(nbits, 1, mins, maxs, None)
    }

    /// Creates fully specified parameters, validating every field.
    pub fn with_options(
        nbits: usize,
        xor_folds: usize,
        mins: Vec<f32>,
        maxs: Vec<f32>,
        dim_weights: Option<Vec<f32>>,
    ) -> Result<Self> {
        if nbits == 0 {
            return Err(CoreError::InvalidSketchParams("N must be > 0".into()));
        }
        if xor_folds == 0 {
            return Err(CoreError::InvalidSketchParams("K must be > 0".into()));
        }
        if mins.is_empty() || mins.len() != maxs.len() {
            return Err(CoreError::InvalidSketchParams(format!(
                "min/max length mismatch: {} vs {}",
                mins.len(),
                maxs.len()
            )));
        }
        let mut any_positive_range = false;
        for (i, (lo, hi)) in mins.iter().zip(maxs.iter()).enumerate() {
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(CoreError::InvalidSketchParams(format!(
                    "dimension {i} has invalid range [{lo}, {hi}]"
                )));
            }
            if hi > lo {
                any_positive_range = true;
            }
        }
        if !any_positive_range {
            return Err(CoreError::InvalidSketchParams(
                "all dimensions have zero range".into(),
            ));
        }
        if let Some(w) = &dim_weights {
            if w.len() != mins.len() {
                return Err(CoreError::InvalidSketchParams(format!(
                    "weight length {} does not match dimensionality {}",
                    w.len(),
                    mins.len()
                )));
            }
            if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(CoreError::InvalidSketchParams(
                    "dimension weights must be finite and non-negative".into(),
                ));
            }
            let sum: f64 = w.iter().map(|&x| f64::from(x)).sum();
            if sum <= 0.0 {
                return Err(CoreError::InvalidSketchParams(
                    "dimension weights sum to zero".into(),
                ));
            }
        }
        Ok(Self {
            nbits,
            xor_folds,
            mins,
            maxs,
            dim_weights,
        })
    }

    /// Derives parameters from a sample of feature vectors: per-dimension
    /// min/max are taken from the data (with a small margin so that values
    /// at the boundary still split).
    pub fn from_samples<'a, I>(nbits: usize, xor_folds: usize, samples: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a FeatureVector>,
    {
        let mut iter = samples.into_iter();
        let first = iter
            .next()
            .ok_or_else(|| CoreError::InvalidSketchParams("no sample vectors".into()))?;
        let mut mins: Vec<f32> = first.components().to_vec();
        let mut maxs: Vec<f32> = first.components().to_vec();
        for v in iter {
            if v.dim() != mins.len() {
                return Err(CoreError::DimensionMismatch {
                    expected: mins.len(),
                    actual: v.dim(),
                });
            }
            for (i, &c) in v.components().iter().enumerate() {
                mins[i] = mins[i].min(c);
                maxs[i] = maxs[i].max(c);
            }
        }
        // Widen degenerate dimensions slightly so thresholds remain valid.
        for (lo, hi) in mins.iter_mut().zip(maxs.iter_mut()) {
            if (*hi - *lo).abs() < f32::EPSILON {
                *lo -= 0.5;
                *hi += 0.5;
            }
        }
        Self::with_options(nbits, xor_folds, mins, maxs, None)
    }

    /// [`SketchParams::from_samples`] over every segment vector of
    /// `objects` — the one derivation both the engine's retune and the
    /// service's single-pass recovery use, so they agree bit for bit.
    pub fn from_objects<'a, I>(nbits: usize, xor_folds: usize, objects: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a DataObject>,
    {
        let vectors = objects
            .into_iter()
            .flat_map(|o| o.segments().iter().map(|s| &s.vector));
        Self::from_samples(nbits, xor_folds, vectors)
    }

    /// The dimensionality `D` these parameters describe.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// True when every component of every segment of `object` lies within
    /// its dimension's `[min, max]`. Thresholds are drawn from that range,
    /// so a component outside it lands on the same side of every threshold
    /// as the nearer bound does.
    pub fn covers(&self, object: &DataObject) -> bool {
        object.segments().iter().all(|s| {
            let ranges = self.mins.iter().zip(&self.maxs);
            s.vector
                .components()
                .iter()
                .zip(ranges)
                .all(|(c, (lo, hi))| (lo..=hi).contains(&c))
        })
    }

    /// The sampling probability of each dimension:
    /// `p_i ∝ w_i · (max_i − min_i)`, normalized to sum to 1 (Algorithm 1).
    pub fn dimension_probabilities(&self) -> Vec<f64> {
        let d = self.dim();
        let mut p = vec![0.0f64; d];
        for i in 0..d {
            let w = self.dim_weights.as_ref().map_or(1.0, |w| f64::from(w[i]));
            p[i] = w * f64::from(self.maxs[i] - self.mins[i]);
        }
        let sum: f64 = p.iter().sum();
        debug_assert!(sum > 0.0);
        for x in p.iter_mut() {
            *x /= sum;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates() {
        assert!(SketchParams::new(0, vec![0.0], vec![1.0]).is_err());
        assert!(SketchParams::new(8, vec![], vec![]).is_err());
        assert!(SketchParams::new(8, vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(SketchParams::new(8, vec![2.0], vec![1.0]).is_err());
        assert!(SketchParams::new(8, vec![0.0], vec![f32::NAN]).is_err());
        assert!(SketchParams::new(8, vec![1.0], vec![1.0]).is_err());
        assert!(SketchParams::new(8, vec![0.0], vec![1.0]).is_ok());
    }

    #[test]
    fn with_options_validates_k_and_weights() {
        let mk = |k, w: Option<Vec<f32>>| {
            SketchParams::with_options(8, k, vec![0.0, 0.0], vec![1.0, 2.0], w)
        };
        assert!(mk(0, None).is_err());
        assert!(mk(2, Some(vec![1.0])).is_err());
        assert!(mk(2, Some(vec![1.0, -1.0])).is_err());
        assert!(mk(2, Some(vec![0.0, 0.0])).is_err());
        assert!(mk(2, Some(vec![0.5, 0.5])).is_ok());
    }

    #[test]
    fn dimension_probabilities_follow_range_and_weight() {
        let p = SketchParams::new(8, vec![0.0, 0.0], vec![1.0, 3.0])
            .unwrap()
            .dimension_probabilities();
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p[1] - 0.75).abs() < 1e-12);

        let p =
            SketchParams::with_options(8, 1, vec![0.0, 0.0], vec![1.0, 1.0], Some(vec![3.0, 1.0]))
                .unwrap()
                .dimension_probabilities();
        assert!((p[0] - 0.75).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_range_dimension_gets_zero_probability() {
        let p = SketchParams::new(8, vec![0.0, 5.0], vec![1.0, 5.0])
            .unwrap()
            .dimension_probabilities();
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_samples_computes_ranges() {
        let vs = [
            FeatureVector::new(vec![1.0, -2.0]).unwrap(),
            FeatureVector::new(vec![3.0, 4.0]).unwrap(),
            FeatureVector::new(vec![2.0, 0.0]).unwrap(),
        ];
        let p = SketchParams::from_samples(16, 1, vs.iter()).unwrap();
        assert_eq!(p.mins, vec![1.0, -2.0]);
        assert_eq!(p.maxs, vec![3.0, 4.0]);
    }

    #[test]
    fn from_samples_widens_constant_dimensions() {
        let vs = [
            FeatureVector::new(vec![5.0, 1.0]).unwrap(),
            FeatureVector::new(vec![5.0, 2.0]).unwrap(),
        ];
        let p = SketchParams::from_samples(16, 1, vs.iter()).unwrap();
        assert!(p.maxs[0] > p.mins[0]);
    }

    #[test]
    fn from_samples_rejects_empty_or_mismatched() {
        let empty: Vec<FeatureVector> = vec![];
        assert!(SketchParams::from_samples(16, 1, empty.iter()).is_err());
        let vs = [
            FeatureVector::new(vec![1.0]).unwrap(),
            FeatureVector::new(vec![1.0, 2.0]).unwrap(),
        ];
        assert!(SketchParams::from_samples(16, 1, vs.iter()).is_err());
    }
}

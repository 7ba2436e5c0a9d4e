//! The generic multi-feature object representation.
//!
//! A data object is a weighted set of segments, each described by a feature
//! vector: `X = {<X_1, w(X_1)>, ..., <X_k, w(X_k)>}` (paper §2). The number
//! of segments `k` varies from object to object; the weights are normalized
//! so they sum to 1.

use crate::error::{CoreError, Result};
use crate::vector::FeatureVector;

/// Identifier of a data object inside an engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

/// One segment of a data object: a feature vector plus its importance weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The extracted feature vector for this segment.
    pub vector: FeatureVector,
    /// The normalized importance weight of this segment within its object.
    pub weight: f32,
}

/// A feature-rich data object: a weighted set of segments.
///
/// This is the Rust counterpart of the paper's `ObjectT` plug-in structure.
/// Invariants enforced at construction:
///
/// * at least one segment,
/// * all segments share one dimensionality,
/// * all weights are finite and non-negative with a positive sum,
/// * weights are re-normalized to sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DataObject {
    segments: Vec<Segment>,
    dim: usize,
}

impl DataObject {
    /// Builds an object from `(vector, weight)` pairs, normalizing weights.
    pub fn new(parts: Vec<(FeatureVector, f32)>) -> Result<Self> {
        Self::build(parts, true)
    }

    /// Rebuilds an object whose weights [`DataObject::new`] already
    /// normalized (decoded from storage): validated, not normalized again.
    /// A second normalization can move a weight by an ulp, and a restart
    /// would then sketch and rank the object differently.
    pub(crate) fn from_normalized(parts: Vec<(FeatureVector, f32)>) -> Result<Self> {
        Self::build(parts, false)
    }

    fn build(parts: Vec<(FeatureVector, f32)>, normalize: bool) -> Result<Self> {
        if parts.is_empty() {
            return Err(CoreError::EmptyObject);
        }
        let dim = parts[0].0.dim();
        let mut sum = 0.0f64;
        for (i, (v, w)) in parts.iter().enumerate() {
            if v.dim() != dim {
                return Err(CoreError::DimensionMismatch {
                    expected: dim,
                    actual: v.dim(),
                });
            }
            if !w.is_finite() || *w < 0.0 {
                return Err(CoreError::InvalidWeights(format!(
                    "segment {i} has weight {w}"
                )));
            }
            sum += f64::from(*w);
        }
        if sum <= 0.0 {
            return Err(CoreError::InvalidWeights("weights sum to zero".to_string()));
        }
        let scale = if normalize { sum } else { 1.0 };
        let segments = parts
            .into_iter()
            .map(|(vector, weight)| Segment {
                vector,
                weight: (f64::from(weight) / scale) as f32,
            })
            .collect();
        Ok(Self { segments, dim })
    }

    /// Builds a single-segment object with weight 1.
    ///
    /// Convenience for data types where the whole object is one feature
    /// vector (3D shape descriptors, microarray gene rows).
    pub fn single(vector: FeatureVector) -> Self {
        let dim = vector.dim();
        Self {
            segments: vec![Segment {
                vector,
                weight: 1.0,
            }],
            dim,
        }
    }

    /// Number of segments `k`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Shared dimensionality of all segment feature vectors.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// All segments, in extraction order.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Segment `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_segments()`.
    #[inline]
    pub fn segment(&self, i: usize) -> &Segment {
        &self.segments[i]
    }

    /// Indices of segments ordered by decreasing weight.
    ///
    /// Used by the filtering unit to pick the `r` highest-weight query
    /// segments. Ties broken by segment index for determinism.
    pub fn segments_by_weight(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.segments.len()).collect();
        idx.sort_by(|&a, &b| {
            self.segments[b]
                .weight
                .partial_cmp(&self.segments[a].weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }

    /// Sum of weights; 1 up to floating-point rounding.
    pub fn total_weight(&self) -> f32 {
        self.segments.iter().map(|s| s.weight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(c: &[f32]) -> FeatureVector {
        FeatureVector::new(c.to_vec()).unwrap()
    }

    #[test]
    fn new_normalizes_weights() {
        let obj = DataObject::new(vec![(fv(&[1.0]), 2.0), (fv(&[2.0]), 6.0)]).unwrap();
        assert_eq!(obj.num_segments(), 2);
        assert!((obj.segment(0).weight - 0.25).abs() < 1e-6);
        assert!((obj.segment(1).weight - 0.75).abs() < 1e-6);
        assert!((obj.total_weight() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn new_rejects_empty_and_bad_weights() {
        assert!(matches!(
            DataObject::new(vec![]),
            Err(CoreError::EmptyObject)
        ));
        assert!(DataObject::new(vec![(fv(&[1.0]), -1.0)]).is_err());
        assert!(DataObject::new(vec![(fv(&[1.0]), f32::NAN)]).is_err());
        assert!(DataObject::new(vec![(fv(&[1.0]), 0.0)]).is_err());
    }

    #[test]
    fn new_rejects_mixed_dimensions() {
        let r = DataObject::new(vec![(fv(&[1.0, 2.0]), 1.0), (fv(&[1.0]), 1.0)]);
        assert!(matches!(r, Err(CoreError::DimensionMismatch { .. })));
    }

    #[test]
    fn single_has_unit_weight() {
        let obj = DataObject::single(fv(&[5.0, 6.0]));
        assert_eq!(obj.num_segments(), 1);
        assert_eq!(obj.dim(), 2);
        assert_eq!(obj.segment(0).weight, 1.0);
    }

    #[test]
    fn segments_by_weight_sorts_descending_with_stable_ties() {
        let obj = DataObject::new(vec![
            (fv(&[0.0]), 1.0),
            (fv(&[1.0]), 3.0),
            (fv(&[2.0]), 3.0),
            (fv(&[3.0]), 2.0),
        ])
        .unwrap();
        assert_eq!(obj.segments_by_weight(), vec![1, 2, 3, 0]);
    }

    #[test]
    fn zero_weight_segments_allowed_if_sum_positive() {
        let obj = DataObject::new(vec![(fv(&[0.0]), 0.0), (fv(&[1.0]), 1.0)]).unwrap();
        assert_eq!(obj.segment(0).weight, 0.0);
        assert_eq!(obj.segment(1).weight, 1.0);
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId(42).to_string(), "obj:42");
    }
}

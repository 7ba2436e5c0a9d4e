//! Distance functions.
//!
//! The toolkit uses two kinds of distance functions (paper §4.2.2):
//!
//! * a **segment distance function** between two feature vectors, used by the
//!   filtering unit (and approximated by sketch Hamming distance), and
//! * an **object distance function** between two data objects (weighted sets
//!   of feature vectors), used by the ranking unit — by default the Earth
//!   Mover's Distance.

pub mod correlation;
pub mod emd;
pub mod lp;

use crate::error::Result;
use crate::object::DataObject;
use crate::vector::FeatureVector;

/// A distance function between two feature vectors (segments).
///
/// Implementations must be symmetric and non-negative; most are metrics but
/// that is not required (e.g. correlation distances violate the triangle
/// inequality only marginally under ties).
pub trait SegmentDistance: Send + Sync {
    /// Human-readable name used in reports ("l1", "l2", "pearson", ...).
    fn name(&self) -> &'static str;

    /// Evaluates the distance on raw component slices.
    ///
    /// Both slices must have the same length; this is the hot path and is
    /// only `debug_assert`ed. Use [`SegmentDistance::distance`] at API
    /// boundaries for checked evaluation.
    fn eval(&self, a: &[f32], b: &[f32]) -> f64;

    /// Checked evaluation on feature vectors.
    fn distance(&self, a: &FeatureVector, b: &FeatureVector) -> Result<f64> {
        a.check_same_dim(b)?;
        Ok(self.eval(a.components(), b.components()))
    }
}

/// A distance function between two data objects.
pub trait ObjectDistance: Send + Sync {
    /// Human-readable name used in reports ("emd", "thresholded-emd", ...).
    fn name(&self) -> &'static str;

    /// Evaluates the object distance.
    fn distance(&self, a: &DataObject, b: &DataObject) -> Result<f64>;
}

/// Blanket impl so trait objects and smart pointers can be used uniformly.
impl<T: SegmentDistance + ?Sized> SegmentDistance for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        (**self).eval(a, b)
    }
}

impl<T: SegmentDistance + ?Sized> SegmentDistance for std::sync::Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        (**self).eval(a, b)
    }
}

impl<T: ObjectDistance + ?Sized> ObjectDistance for std::sync::Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn distance(&self, a: &DataObject, b: &DataObject) -> Result<f64> {
        (**self).distance(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::lp::L1;
    use super::*;
    use std::sync::Arc;

    #[test]
    fn segment_distance_checks_dims() {
        let a = FeatureVector::new(vec![0.0, 0.0]).unwrap();
        let b = FeatureVector::new(vec![1.0]).unwrap();
        assert!(L1.distance(&a, &b).is_err());
    }

    #[test]
    fn arc_and_ref_forward() {
        let d: Arc<dyn SegmentDistance> = Arc::new(L1);
        assert_eq!(d.name(), "l1");
        assert_eq!(d.eval(&[0.0], &[2.0]), 2.0);
        let r: &dyn SegmentDistance = &L1;
        assert_eq!((&r).eval(&[1.0], &[0.0]), 1.0);
    }
}

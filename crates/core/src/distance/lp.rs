//! ℓ_p norm distances on feature vectors.
//!
//! The paper's image and audio systems use (weighted) ℓ₁ as the segment
//! distance; the 3D shape baseline uses ℓ₂ (§5). The general ℓ_p form is
//! `d(X, Y) = (Σ |X_i − Y_i|^p)^(1/p)`.

use super::SegmentDistance;

/// The ℓ₁ (Manhattan) distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct L1;

impl SegmentDistance for L1 {
    fn name(&self) -> &'static str {
        "l1"
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut sum = 0.0f64;
        for (x, y) in a.iter().zip(b.iter()) {
            sum += f64::from(x - y).abs();
        }
        sum
    }
}

/// The ℓ₂ (Euclidean) distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2;

impl SegmentDistance for L2 {
    fn name(&self) -> &'static str {
        "l2"
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut sum = 0.0f64;
        for (x, y) in a.iter().zip(b.iter()) {
            let d = f64::from(x - y);
            sum += d * d;
        }
        sum.sqrt()
    }
}

/// The general ℓ_p distance for `p >= 1`.
#[derive(Debug, Clone, Copy)]
// ferret-lint: allow(pub-without-caller) -- the paper's general ℓ_p segment distance (§4.2.2), offered to plug-ins
pub struct Lp {
    p: f64,
}

impl Lp {
    /// Creates an ℓ_p distance.
    ///
    /// # Panics
    ///
    /// Panics if `p < 1` (not a norm) or `p` is not finite.
    pub fn new(p: f64) -> Self {
        assert!(p.is_finite() && p >= 1.0, "lp norm requires finite p >= 1");
        Self { p }
    }

    /// The exponent `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl SegmentDistance for Lp {
    fn name(&self) -> &'static str {
        "lp"
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut sum = 0.0f64;
        for (x, y) in a.iter().zip(b.iter()) {
            sum += f64::from(x - y).abs().powf(self.p);
        }
        sum.powf(1.0 / self.p)
    }
}

/// Per-dimension weighted ℓ₁ distance: `Σ w_i · |X_i − Y_i|`.
///
/// Used as the image segment distance in the paper (§5.1), where bounding
/// box dimensions are weighted differently from color moments.
#[derive(Debug, Clone)]
// ferret-lint: allow(pub-without-caller) -- the paper's weighted ℓ₁ segment distance (§4.2.2, §5.1), offered to plug-ins
pub struct WeightedL1 {
    weights: Box<[f32]>,
}

impl WeightedL1 {
    /// Creates a weighted ℓ₁ distance with one non-negative weight per
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative or non-finite
    /// weight.
    pub fn new(weights: Vec<f32>) -> Self {
        assert!(!weights.is_empty(), "weighted l1 needs at least 1 weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weighted l1 weights must be finite and non-negative"
        );
        Self {
            weights: weights.into_boxed_slice(),
        }
    }

    /// The per-dimension weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }
}

impl SegmentDistance for WeightedL1 {
    fn name(&self) -> &'static str {
        "weighted-l1"
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), self.weights.len());
        let mut sum = 0.0f64;
        for ((x, y), w) in a.iter().zip(b.iter()).zip(self.weights.iter()) {
            sum += f64::from(*w) * f64::from(x - y).abs();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f32; 3] = [1.0, 2.0, 3.0];
    const B: [f32; 3] = [4.0, 0.0, 3.0];

    #[test]
    fn l1_matches_hand_computation() {
        assert_eq!(L1.eval(&A, &B), 5.0);
        assert_eq!(L1.eval(&A, &A), 0.0);
    }

    #[test]
    fn l2_matches_hand_computation() {
        let d = L2.eval(&A, &B);
        assert!((d - 13.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn lp_generalizes_l1_l2() {
        let d1 = Lp::new(1.0).eval(&A, &B);
        let d2 = Lp::new(2.0).eval(&A, &B);
        assert!((d1 - L1.eval(&A, &B)).abs() < 1e-9);
        assert!((d2 - L2.eval(&A, &B)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn lp_rejects_p_below_one() {
        let _ = Lp::new(0.5);
    }

    #[test]
    fn weighted_l1_applies_weights() {
        let d = WeightedL1::new(vec![1.0, 0.5, 0.0]);
        assert_eq!(d.eval(&A, &B), 3.0 + 0.5 * 2.0);
        assert_eq!(d.weights().len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_l1_rejects_negative_weight() {
        let _ = WeightedL1::new(vec![1.0, -0.1]);
    }

    #[test]
    fn lp_monotone_in_p_on_unit_differences() {
        // With all |diffs| = 1, lp distance is n^(1/p), decreasing in p.
        let a = [0.0f32; 8];
        let b = [1.0f32; 8];
        let d1 = Lp::new(1.0).eval(&a, &b);
        let d3 = Lp::new(3.0).eval(&a, &b);
        let d8 = Lp::new(8.0).eval(&a, &b);
        assert!(d1 > d3 && d3 > d8);
        assert!((d1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn symmetry() {
        for d in [
            &L1 as &dyn SegmentDistance,
            &L2,
            &Lp::new(3.0),
            &WeightedL1::new(vec![0.3, 1.0, 2.0]),
        ] {
            assert!(
                (d.eval(&A, &B) - d.eval(&B, &A)).abs() < 1e-12,
                "{}",
                d.name()
            );
        }
    }
}

//! Correlation-based distances for genomic expression data (paper §5.4).
//!
//! The Princeton genomics group used Pearson correlation, Spearman rank
//! correlation, and ℓ₁ distance to compare gene expression rows. Correlation
//! `r ∈ [−1, 1]` is turned into a distance `1 − r ∈ [0, 2]`, so identical
//! expression profiles are at distance 0 and perfectly anti-correlated ones
//! at distance 2.

use super::SegmentDistance;

/// Pearson correlation distance: `1 − r` where `r` is the sample Pearson
/// correlation coefficient.
///
/// Degenerate inputs (a constant vector has zero variance) are defined to
/// have correlation 0, i.e. distance 1, unless both vectors are constant and
/// equal, in which case the distance is 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct PearsonDistance;

/// Computes the sample Pearson correlation coefficient of two slices.
///
/// Returns `None` if either slice has zero variance.
pub fn pearson(a: &[f32], b: &[f32]) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if a.is_empty() {
        return None;
    }
    let mean_a: f64 = a.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
    let mean_b: f64 = b.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let dx = f64::from(x) - mean_a;
        let dy = f64::from(y) - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a <= 0.0 || var_b <= 0.0 {
        return None;
    }
    Some((cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0))
}

impl SegmentDistance for PearsonDistance {
    fn name(&self) -> &'static str {
        "pearson"
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        match pearson(a, b) {
            Some(r) => 1.0 - r,
            None => {
                if a == b {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// Spearman rank correlation distance: `1 − ρ`, where `ρ` is Pearson
/// correlation applied to the value ranks (average ranks for ties).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpearmanDistance;

/// Converts values to average ranks (1-based), assigning tied values the
/// mean of the ranks they would occupy.
pub fn average_ranks(values: &[f32]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        values[i]
            .partial_cmp(&values[j])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        // Group ties: values[order[i..=j]] are all equal.
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Average of 1-based ranks i+1 ..= j+1.
        let avg = ((i + 1 + j + 1) as f64) / 2.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

impl SegmentDistance for SpearmanDistance {
    fn name(&self) -> &'static str {
        "spearman"
    }

    fn eval(&self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let ra: Vec<f32> = average_ranks(a).into_iter().map(|r| r as f32).collect();
        let rb: Vec<f32> = average_ranks(b).into_iter().map(|r| r as f32).collect();
        PearsonDistance.eval(&ra, &rb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!(PearsonDistance.eval(&a, &b) < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert!((pearson(&a, &b).unwrap() + 1.0).abs() < 1e-12);
        assert!((PearsonDistance.eval(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_vector_is_degenerate() {
        let a = [5.0, 5.0, 5.0];
        let b = [1.0, 2.0, 3.0];
        assert!(pearson(&a, &b).is_none());
        assert_eq!(PearsonDistance.eval(&a, &b), 1.0);
        assert_eq!(PearsonDistance.eval(&a, &a), 0.0);
    }

    #[test]
    fn pearson_invariant_to_affine_transform() {
        let a = [0.3f32, -1.2, 2.2, 0.9, -0.5];
        let b: Vec<f32> = a.iter().map(|x| 3.0 * x + 7.0).collect();
        assert!(PearsonDistance.eval(&a, &b) < 1e-6);
    }

    #[test]
    fn average_ranks_handles_ties() {
        // Values 10, 20, 20, 30 -> ranks 1, 2.5, 2.5, 4.
        assert_eq!(
            average_ranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
        // All equal -> all get the middle rank.
        assert_eq!(average_ranks(&[7.0, 7.0, 7.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn spearman_is_rank_based() {
        // A monotone but non-linear relationship has perfect Spearman
        // correlation even though Pearson correlation is < 1.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!(SpearmanDistance.eval(&a, &b) < 1e-9);
        assert!(PearsonDistance.eval(&a, &b) > 1e-4);
    }

    #[test]
    fn spearman_reversed_is_two() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((SpearmanDistance.eval(&a, &b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_distances_are_symmetric() {
        let a = [0.4f32, 1.7, -2.0, 0.0, 3.3];
        let b = [9.1f32, -0.2, 0.7, 1.1, -4.0];
        for d in [&PearsonDistance as &dyn SegmentDistance, &SpearmanDistance] {
            assert!(
                (d.eval(&a, &b) - d.eval(&b, &a)).abs() < 1e-12,
                "{}",
                d.name()
            );
        }
    }
}

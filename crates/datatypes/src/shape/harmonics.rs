//! Real spherical harmonics and rotation-invariant power spectra.
//!
//! The Spherical Harmonic Descriptor (paper §5.3, after Kazhdan et al.)
//! represents each concentric shell of a voxelized model by the power of
//! its spherical-harmonic decomposition per degree `l = 0..=16` — 17
//! rotation-invariant values per shell. This module implements associated
//! Legendre polynomials, real spherical harmonics `Y_lm`, and the power
//! spectrum of a sampled spherical function.

/// Computes all associated Legendre values `P_l^m(x)` for
/// `0 <= m <= l <= max_degree` using the standard recurrences.
///
/// Returns a row-major triangular table indexed via [`plm_index`].
pub fn assoc_legendre_table(max_degree: usize, x: f64) -> Vec<f64> {
    let l_max = max_degree;
    let mut table = vec![0.0f64; (l_max + 1) * (l_max + 2) / 2];
    let somx2 = ((1.0 - x) * (1.0 + x)).max(0.0).sqrt();
    // P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}.
    let mut pmm = 1.0f64;
    for m in 0..=l_max {
        if m > 0 {
            pmm *= -((2 * m - 1) as f64) * somx2;
        }
        table[plm_index(m, m)] = pmm;
        if m < l_max {
            // P_{m+1}^m = x (2m+1) P_m^m.
            let pmmp1 = x * (2 * m + 1) as f64 * pmm;
            table[plm_index(m + 1, m)] = pmmp1;
            let mut p_prev = pmm;
            let mut p_curr = pmmp1;
            for l in m + 2..=l_max {
                // (l-m) P_l^m = x (2l-1) P_{l-1}^m - (l+m-1) P_{l-2}^m.
                let p_next = (x * (2 * l - 1) as f64 * p_curr - (l + m - 1) as f64 * p_prev)
                    / (l - m) as f64;
                table[plm_index(l, m)] = p_next;
                p_prev = p_curr;
                p_curr = p_next;
            }
        }
    }
    table
}

/// Index of `P_l^m` in the triangular table.
#[inline]
pub fn plm_index(l: usize, m: usize) -> usize {
    debug_assert!(m <= l);
    l * (l + 1) / 2 + m
}

/// Normalization constant `K_l^m = sqrt((2l+1)/(4π) · (l-m)!/(l+m)!)`.
fn k_lm(l: usize, m: usize) -> f64 {
    // (l-m)!/(l+m)! computed as a product to avoid factorial overflow.
    let mut ratio = 1.0f64;
    for k in (l - m + 1)..=(l + m) {
        ratio /= k as f64;
    }
    ((2 * l + 1) as f64 / (4.0 * std::f64::consts::PI) * ratio).sqrt()
}

/// Accumulates spherical-harmonic coefficients of a sampled function and
/// yields the rotation-invariant power per degree.
#[derive(Debug, Clone)]
pub struct ShAccumulator {
    max_degree: usize,
    /// Real coefficients `c_{l,m}` for `m = -l..=l`, packed per degree.
    coeffs: Vec<f64>,
    /// Precomputed `K_l^m` table (triangular).
    norms: Vec<f64>,
}

impl ShAccumulator {
    /// Creates an accumulator for degrees `0..=max_degree`.
    pub fn new(max_degree: usize) -> Self {
        let mut norms = vec![0.0f64; (max_degree + 1) * (max_degree + 2) / 2];
        for l in 0..=max_degree {
            for m in 0..=l {
                norms[plm_index(l, m)] = k_lm(l, m);
            }
        }
        Self {
            max_degree,
            coeffs: vec![0.0; (max_degree + 1) * (max_degree + 1)],
            norms,
        }
    }

    /// Index of coefficient `(l, m)` with `m in -l..=l`.
    #[inline]
    fn cidx(l: usize, m: i64) -> usize {
        (l * l) + (m + l as i64) as usize
    }

    /// Adds one sample: function value `v` at spherical direction
    /// `(cos_theta, phi)`.
    pub fn add_sample(&mut self, cos_theta: f64, phi: f64, v: f64) {
        let plm = assoc_legendre_table(self.max_degree, cos_theta.clamp(-1.0, 1.0));
        // cos(mφ), sin(mφ) by recurrence.
        let (sin_phi, cos_phi) = phi.sin_cos();
        let mut cos_m = vec![0.0f64; self.max_degree + 1];
        let mut sin_m = vec![0.0f64; self.max_degree + 1];
        cos_m[0] = 1.0;
        sin_m[0] = 0.0;
        for m in 1..=self.max_degree {
            cos_m[m] = cos_m[m - 1] * cos_phi - sin_m[m - 1] * sin_phi;
            sin_m[m] = sin_m[m - 1] * cos_phi + cos_m[m - 1] * sin_phi;
        }
        let sqrt2 = std::f64::consts::SQRT_2;
        for l in 0..=self.max_degree {
            // m = 0.
            let y0 = self.norms[plm_index(l, 0)] * plm[plm_index(l, 0)];
            self.coeffs[Self::cidx(l, 0)] += v * y0;
            for m in 1..=l {
                let base = self.norms[plm_index(l, m)] * plm[plm_index(l, m)];
                let y_pos = sqrt2 * base * cos_m[m];
                let y_neg = sqrt2 * base * sin_m[m];
                self.coeffs[Self::cidx(l, m as i64)] += v * y_pos;
                self.coeffs[Self::cidx(l, -(m as i64))] += v * y_neg;
            }
        }
    }

    /// The rotation-invariant power per degree: `Σ_m c_{l,m}²`.
    pub fn power_spectrum(&self) -> Vec<f64> {
        (0..=self.max_degree)
            .map(|l| {
                (-(l as i64)..=(l as i64))
                    .map(|m| {
                        let c = self.coeffs[Self::cidx(l, m)];
                        c * c
                    })
                    .sum()
            })
            .collect()
    }

    /// Resets all coefficients (reuse across shells).
    pub fn reset(&mut self) {
        self.coeffs.fill(0.0);
    }
}

/// Convenience: power spectrum of `(cos_theta, phi, value)` samples.
#[cfg(test)]
fn sh_power_spectrum(samples: &[(f64, f64, f64)], max_degree: usize) -> Vec<f64> {
    let mut acc = ShAccumulator::new(max_degree);
    for &(ct, phi, v) in samples {
        acc.add_sample(ct, phi, v);
    }
    acc.power_spectrum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legendre_low_degrees_match_closed_forms() {
        for &x in &[-0.9, -0.3, 0.0, 0.5, 0.99] {
            let t = assoc_legendre_table(3, x);
            assert!((t[plm_index(0, 0)] - 1.0).abs() < 1e-12);
            assert!((t[plm_index(1, 0)] - x).abs() < 1e-12);
            let s = (1.0f64 - x * x).sqrt();
            assert!(
                (t[plm_index(1, 1)] + s).abs() < 1e-12,
                "P_1^1 = -sqrt(1-x^2)"
            );
            assert!((t[plm_index(2, 0)] - 0.5 * (3.0 * x * x - 1.0)).abs() < 1e-12);
            assert!((t[plm_index(2, 1)] + 3.0 * x * s).abs() < 1e-12);
            assert!((t[plm_index(2, 2)] - 3.0 * (1.0 - x * x)).abs() < 1e-12);
        }
    }

    /// Uniform spherical sampling of a constant function: all power in
    /// degree 0.
    #[test]
    fn constant_function_power_in_degree_zero() {
        let mut samples = Vec::new();
        let n = 40;
        for i in 0..n {
            // Fibonacci-like sphere covering.
            let ct = -1.0 + 2.0 * (i as f64 + 0.5) / n as f64;
            let phi = 2.399963 * i as f64;
            samples.push((ct, phi, 1.0));
        }
        let power = sh_power_spectrum(&samples, 6);
        assert!(power[0] > 0.0);
        for (l, &p) in power.iter().enumerate().skip(1) {
            assert!(
                p < power[0] * 0.02,
                "degree {l} power {p} not negligible vs {}",
                power[0]
            );
        }
    }

    /// Rotating the sampled function about the z-axis must not change the
    /// power spectrum (rotation invariance).
    #[test]
    fn power_spectrum_is_rotation_invariant_about_z() {
        // A bumpy function f(θ,φ) sampled densely; rotate by φ -> φ + δ.
        let f = |ct: f64, phi: f64| {
            1.0 + 0.5 * ct + 0.3 * (2.0 * phi).cos() * (1.0 - ct * ct) + 0.2 * (3.0 * phi).sin()
        };
        let n = 64;
        let build = |delta: f64| {
            let mut samples = Vec::new();
            for i in 0..n {
                let ct = -1.0 + 2.0 * (i as f64 + 0.5) / n as f64;
                for j in 0..n {
                    let phi = 2.0 * std::f64::consts::PI * j as f64 / n as f64;
                    // Sample the *rotated* function on the same grid.
                    samples.push((ct, phi, f(ct, phi + delta)));
                }
            }
            sh_power_spectrum(&samples, 8)
        };
        let p0 = build(0.0);
        let p1 = build(1.234);
        for l in 0..=8 {
            let denom = p0[l].abs().max(1e-6);
            assert!(
                (p0[l] - p1[l]).abs() / denom < 0.02,
                "degree {l}: {} vs {}",
                p0[l],
                p1[l]
            );
        }
    }

    /// A full 3D rotation (not just about z) must also preserve the power
    /// spectrum. Rotate sample directions by a fixed rotation matrix.
    #[test]
    fn power_spectrum_invariant_under_general_rotation() {
        // f depends on direction via a fixed axis dot product -> easy to
        // evaluate in rotated coordinates.
        let axis = [0.267, 0.534, 0.802]; // Unit vector.
        let f = |d: [f64; 3]| {
            let dot = d[0] * axis[0] + d[1] * axis[1] + d[2] * axis[2];
            1.0 + dot + 2.0 * dot * dot
        };
        // Rotation matrix: 40 degrees about a skew axis (orthonormal rows).
        let r = rotation_matrix([0.6, 0.8, 0.0], 0.7);
        let n = 48;
        let mut p_orig = ShAccumulator::new(8);
        let mut p_rot = ShAccumulator::new(8);
        for i in 0..n {
            let ct: f64 = -1.0 + 2.0 * (i as f64 + 0.5) / n as f64;
            let st = (1.0 - ct * ct).sqrt();
            for j in 0..n {
                let phi = 2.0 * std::f64::consts::PI * j as f64 / n as f64;
                let d = [st * phi.cos(), st * phi.sin(), ct];
                p_orig.add_sample(ct, phi, f(d));
                // Rotated function value at the same grid direction.
                let rd = [
                    r[0][0] * d[0] + r[0][1] * d[1] + r[0][2] * d[2],
                    r[1][0] * d[0] + r[1][1] * d[1] + r[1][2] * d[2],
                    r[2][0] * d[0] + r[2][1] * d[1] + r[2][2] * d[2],
                ];
                p_rot.add_sample(ct, phi, f(rd));
            }
        }
        let a = p_orig.power_spectrum();
        let b = p_rot.power_spectrum();
        // Compare relative to the total power: degrees with (numerically)
        // zero power would otherwise blow up the relative error.
        let total: f64 = a.iter().sum();
        for l in 0..=8 {
            assert!(
                (a[l] - b[l]).abs() / total < 0.02,
                "degree {l}: {} vs {} (total {total})",
                a[l],
                b[l]
            );
        }
    }

    fn rotation_matrix(axis: [f64; 3], angle: f64) -> [[f64; 3]; 3] {
        let (x, y, z) = (axis[0], axis[1], axis[2]);
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    }

    #[test]
    fn accumulator_reset_clears() {
        let mut acc = ShAccumulator::new(4);
        acc.add_sample(0.3, 1.0, 2.0);
        assert!(acc.power_spectrum().iter().any(|&p| p > 0.0));
        acc.reset();
        assert!(acc.power_spectrum().iter().all(|&p| p == 0.0));
    }
}

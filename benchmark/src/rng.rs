//! Dependency-free seeded randomness: SplitMix64, a Box–Muller Gaussian
//! and a table-driven Zipf sampler. Everything the program under test
//! sees is derived from `--seed` through this module.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, one add and
/// three xor-shift-multiplies per output.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A generator for one named purpose, so adding a stream never shifts
    /// the values another stream produces from the same seed.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = Self(seed);
        for b in purpose.bytes() {
            h.0 = h.next_u64() ^ u64::from(b);
        }
        Self(h.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is below
    /// 2⁻⁴⁰ for every `n` this benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Standard normal (Box–Muller, one value per call).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0, 1]: ln is finite
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Samples ranks `0..n` with probability ∝ `1 / (rank + 1)^s` by binary
/// search over the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Splits `total` into `parts` sizes ∝ `1 / (rank + 1)^s` that sum to
/// `total` exactly (largest-remainder rounding), every part at least 1.
/// Deterministic in its arguments alone, so corpus shape does not vary
/// with the seed.
pub fn zipf_sizes(total: usize, parts: usize, s: f64) -> Vec<usize> {
    assert!(parts > 0 && total >= parts, "need 1 <= parts <= total");
    let weights: Vec<f64> = (0..parts).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let spare = total - parts;
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * spare as f64).collect();
    let mut sizes: Vec<usize> = exact.iter().map(|e| 1 + e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..parts).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a].fract(), exact[b].fract());
        fb.partial_cmp(&fa).expect("finite").then(a.cmp(&b))
    });
    let assigned: usize = sizes.iter().sum();
    for &i in order.iter().take(total - assigned) {
        sizes[i] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn streams_are_independent_and_repeatable() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "corpus");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "corpus");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "queries");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_has_unit_moments() {
        let mut rng = SplitMix64::new(42);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn zipf_sampler_frequencies_follow_the_law() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = SplitMix64::new(3);
        let n = 400_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let h10: f64 = (1..=10).map(|r| 1.0 / r as f64).sum();
        for (rank, &count) in counts.iter().enumerate() {
            let expected = 1.0 / ((rank + 1) as f64 * h10);
            let got = count as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.004,
                "rank {rank}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn zipf_sizes_sum_exactly_and_are_skewed() {
        let sizes = zipf_sizes(100_000, 1000, 1.0);
        assert_eq!(sizes.iter().sum::<usize>(), 100_000);
        assert!(sizes.iter().all(|&s| s >= 1));
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "non-increasing");
        // Rank 1 holds 1/H(1000) ≈ 13.4 % of the spare mass.
        assert!((13_000..13_600).contains(&sizes[0]), "{}", sizes[0]);
        assert_eq!(zipf_sizes(5, 5, 1.0), vec![1; 5]);
    }
}

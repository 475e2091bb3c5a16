//! Shannon entropy over discrete distributions (Appendix A toolkit).
//!
//! All entropies are in **bits** (`log₂`), matching the paper's convention
//! `|A| = log |supp(A)|`.

use std::collections::HashMap;

/// Binary entropy `h(p) = −p·log₂ p − (1−p)·log₂(1−p)`.
pub fn binary_entropy(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let term = |q: f64| if q <= 0.0 { 0.0 } else { -q * q.log2() };
    term(p) + term(1.0 - p)
}

/// Entropy of an explicit probability vector (must sum to ≈ 1).
pub fn entropy_of_pmf(pmf: &[f64]) -> f64 {
    let total: f64 = pmf.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "pmf sums to {total}, expected 1"
    );
    pmf.iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.log2())
        .sum()
}

/// An empirical distribution over `u64` symbols, built from samples.
#[derive(Clone, Debug, Default)]
pub struct Empirical {
    counts: HashMap<u64, u64>,
    total: u64,
}

impl Empirical {
    /// Empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a sample slice.
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut e = Self::new();
        for &s in samples {
            e.push(s);
        }
        e
    }

    /// Records one observation.
    pub fn push(&mut self, symbol: u64) {
        *self.counts.entry(symbol).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct symbols observed.
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Plug-in entropy estimate `Ĥ = −Σ (c/N)·log₂(c/N)`.
    ///
    /// The plug-in estimator is biased downward by roughly
    /// `(support−1)/(2N·ln 2)` (Miller–Madow); callers that care apply
    /// [`Empirical::entropy_miller_madow`].
    ///
    /// The terms are summed in sorted-count order, not in the hash map's
    /// per-process order, so the estimate is bit-identical across runs and
    /// insertion orders.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable();
        counts
            .into_iter()
            .map(|c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }

    /// Miller–Madow bias-corrected entropy estimate.
    pub fn entropy_miller_madow(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.entropy()
            + (self.support_size().saturating_sub(1)) as f64
                / (2.0 * self.total as f64 * std::f64::consts::LN_2)
    }
}

/// Plug-in mutual information `Î(X : Y)` from joint samples,
/// `Ĥ(X) + Ĥ(Y) − Ĥ(X,Y)`.
pub fn mutual_information(pairs: &[(u64, u64)]) -> f64 {
    let mut ex = Empirical::new();
    let mut ey = Empirical::new();
    let mut exy = Empirical::new();
    for &(x, y) in pairs {
        ex.push(x);
        ey.push(y);
        exy.push(pack2(x, y));
    }
    (ex.entropy() + ey.entropy() - exy.entropy()).max(0.0)
}

/// Plug-in conditional mutual information `Î(X : Y | Z)` from joint samples,
/// `Ĥ(X,Z) + Ĥ(Y,Z) − Ĥ(X,Y,Z) − Ĥ(Z)`.
pub fn conditional_mutual_information(triples: &[(u64, u64, u64)]) -> f64 {
    let mut exz = Empirical::new();
    let mut eyz = Empirical::new();
    let mut exyz = Empirical::new();
    let mut ez = Empirical::new();
    for &(x, y, z) in triples {
        exz.push(pack2(x, z));
        eyz.push(pack2(y, z));
        exyz.push(pack2(pack2(x, y), z));
        ez.push(z);
    }
    (exz.entropy() + eyz.entropy() - exyz.entropy() - ez.entropy()).max(0.0)
}

/// Injectively packs two symbols into one (FNV-style mixing; collision
/// probability negligible for the ≤ 2^20 distinct symbols we estimate over).
fn pack2(a: u64, b: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in [a, b] {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn entropy_is_bit_identical_across_insertion_orders() {
        let mut rng = StdRng::seed_from_u64(76);
        // Many symbols with uneven counts, so the summation order matters
        // in floating point.
        let samples: Vec<u64> = (0..5000)
            .map(|_| {
                let r = rng.gen_range(0u64..1000);
                r * r % 977
            })
            .collect();
        let forward = Empirical::from_samples(&samples).entropy();
        let mut reversed = samples.clone();
        reversed.reverse();
        for _ in 0..8 {
            // Each fresh map gets its own hasher keys, hence its own order.
            assert_eq!(
                Empirical::from_samples(&reversed).entropy().to_bits(),
                forward.to_bits()
            );
            reversed.rotate_left(977);
        }
    }

    #[test]
    fn binary_entropy_values() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy(0.25) - 0.811278).abs() < 1e-5);
        // Symmetry.
        assert!((binary_entropy(0.3) - binary_entropy(0.7)).abs() < 1e-12);
    }

    #[test]
    fn pmf_entropy() {
        assert!((entropy_of_pmf(&[0.25; 4]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy_of_pmf(&[1.0]), 0.0);
        assert!((entropy_of_pmf(&[0.5, 0.5, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expected 1")]
    fn pmf_must_normalize() {
        entropy_of_pmf(&[0.5, 0.3]);
    }

    #[test]
    fn empirical_uniform_converges_to_log_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<u64> = (0..50_000).map(|_| rng.gen_range(0..16u64)).collect();
        let e = Empirical::from_samples(&samples);
        assert!((e.entropy() - 4.0).abs() < 0.01, "Ĥ = {}", e.entropy());
        assert!(e.entropy_miller_madow() >= e.entropy());
    }

    #[test]
    fn empirical_constant_has_zero_entropy() {
        let e = Empirical::from_samples(&[7; 100]);
        assert_eq!(e.entropy(), 0.0);
        assert_eq!(e.support_size(), 1);
        assert_eq!(Empirical::new().entropy(), 0.0);
    }

    #[test]
    fn mi_of_independent_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let pairs: Vec<(u64, u64)> = (0..40_000)
            .map(|_| (rng.gen_range(0..8), rng.gen_range(0..8)))
            .collect();
        let mi = mutual_information(&pairs);
        assert!(mi < 0.01, "Î = {mi} for independent variables");
    }

    #[test]
    fn mi_of_identical_is_entropy() {
        let mut rng = StdRng::seed_from_u64(3);
        let pairs: Vec<(u64, u64)> = (0..40_000)
            .map(|_| {
                let x = rng.gen_range(0..8);
                (x, x)
            })
            .collect();
        let mi = mutual_information(&pairs);
        assert!((mi - 3.0).abs() < 0.02, "Î = {mi}, expected 3 bits");
    }

    #[test]
    fn cmi_screens_off_the_condition() {
        // X = Z ⊕ noise? Take Y = Z: then I(X:Y|Z) = 0 whatever X is.
        let mut rng = StdRng::seed_from_u64(4);
        let triples: Vec<(u64, u64, u64)> = (0..30_000)
            .map(|_| {
                let z = rng.gen_range(0..4);
                let x = z ^ rng.gen_range(0..2u64); // correlated with z
                (x, z, z)
            })
            .collect();
        let cmi = conditional_mutual_information(&triples);
        assert!(cmi < 0.01, "Î(X:Y|Z) = {cmi}, expected ≈ 0");
    }

    #[test]
    fn cmi_detects_conditional_dependence() {
        // X, Y uniform bits; Z = X ⊕ Y: I(X:Y) = 0 but I(X:Y|Z) = 1.
        let mut rng = StdRng::seed_from_u64(5);
        let triples: Vec<(u64, u64, u64)> = (0..40_000)
            .map(|_| {
                let x = rng.gen_range(0..2u64);
                let y = rng.gen_range(0..2u64);
                (x, y, x ^ y)
            })
            .collect();
        let pairs: Vec<(u64, u64)> = triples.iter().map(|&(x, y, _)| (x, y)).collect();
        assert!(mutual_information(&pairs) < 0.01);
        let cmi = conditional_mutual_information(&triples);
        assert!((cmi - 1.0).abs() < 0.02, "Î(X:Y|X⊕Y) = {cmi}, expected 1");
    }
}

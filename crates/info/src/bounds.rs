//! The paper's concentration bounds as executable calculators.
//!
//! * Proposition 2.1 — the multiplicative Chernoff bound
//!   `P(|X−μ| > ε·μ) ≤ 2·exp(−ε²·μ/2)`.
//! * Lemma 2.2 — random large sets leave residuals: for `k` independent
//!   uniform `(n−s)`-subsets and an independent `U ⊆ [n]`,
//!   `P(|U \ ⋃S_i| < (|U|/2)·(s/2n)^k) < 2·exp(−(|U|/8)·(s/2n)^k)` when
//!   `k = o(e^s)`. This is the engine behind Lemma 3.2 and Claim 3.3.
//! * Communication lower bounds — [`disj_lower_bound_bits`] (the linear
//!   randomized Disjointness bound) and [`dsc_lower_bound_bits`] (its
//!   transfer to `D_SC` through Lemma 3.4's embedding): the floors the
//!   distributed executor's measured bytes-on-the-wire are gated against.

use rand::Rng;
use streamcover_core::{random_subset, BitSet};

/// The randomized communication lower bound for set disjointness on `t`
/// elements: `R(Disj_t) ≥ t/4` bits (Kalyanasundaram–Schnitger '92,
/// Razborov '92 — the linear bound the paper invokes as Fact 3.1's
/// quantitative engine). Any two-party protocol that decides `Disj_t` with
/// error ≤ 1/3 must exchange at least this many bits.
pub fn disj_lower_bound_bits(t: usize) -> f64 {
    t as f64 / 4.0
}

/// The communication floor for `D_SC(n, m, t)` instances via Lemma 3.4:
/// a protocol whose answer distinguishes `opt ≤ 2` from `opt > 2α` on the
/// hard distribution decides the embedded `Disj_t` instance, so its
/// transcript must carry at least [`disj_lower_bound_bits`]`(t)` bits.
/// This is the gate the distributed executor's measured
/// `Transcript::total_bits()` is checked against (measured ≥ bound, in
/// `tests/dist_cover.rs`).
pub fn dsc_lower_bound_bits(t: usize) -> f64 {
    disj_lower_bound_bits(t)
}

/// Proposition 2.1: the probability bound `2·exp(−ε²·μ/2)`.
pub fn chernoff_bound(eps: f64, mean: f64) -> f64 {
    assert!((0.0..=1.0).contains(&eps), "Chernoff needs 0 ≤ ε ≤ 1");
    assert!(mean >= 0.0);
    2.0 * (-eps * eps * mean / 2.0).exp()
}

/// Lemma 2.2's residual threshold `(|U|/2)·(s/2n)^k`.
pub fn lemma22_threshold(u_len: usize, s: usize, n: usize, k: usize) -> f64 {
    assert!(s <= n && n > 0);
    (u_len as f64 / 2.0) * (s as f64 / (2.0 * n as f64)).powi(k as i32)
}

/// Lemma 2.2's failure-probability bound `2·exp(−(|U|/8)·(s/2n)^k)`.
pub fn lemma22_failure_bound(u_len: usize, s: usize, n: usize, k: usize) -> f64 {
    assert!(s <= n && n > 0);
    2.0 * (-(u_len as f64 / 8.0) * (s as f64 / (2.0 * n as f64)).powi(k as i32)).exp()
}

/// One Lemma 2.2 trial: draws `k` independent uniform `(n−s)`-subsets and
/// reports the residual `|U \ (S_1 ∪ … ∪ S_k)|`.
pub fn lemma22_trial<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    s: usize,
    k: usize,
    u: &BitSet,
) -> usize {
    assert_eq!(u.capacity(), n);
    let mut residual = u.clone();
    for _ in 0..k {
        let set = random_subset(rng, n, n - s);
        residual.difference_with(&set);
    }
    residual.len()
}

/// Runs `trials` Lemma 2.2 experiments; returns the empirical failure rate
/// (fraction of trials with residual below the threshold) and the mean
/// residual. The lemma predicts the failure rate ≤
/// [`lemma22_failure_bound`].
pub fn lemma22_experiment<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    s: usize,
    k: usize,
    u: &BitSet,
    trials: usize,
) -> (f64, f64) {
    let threshold = lemma22_threshold(u.len(), s, n, k);
    let mut failures = 0usize;
    let mut total_residual = 0usize;
    for _ in 0..trials {
        let r = lemma22_trial(rng, n, s, k, u);
        if (r as f64) < threshold {
            failures += 1;
        }
        total_residual += r;
    }
    (
        failures as f64 / trials as f64,
        total_residual as f64 / trials as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn comm_lower_bounds_scale_linearly() {
        assert!((disj_lower_bound_bits(32) - 8.0).abs() < 1e-12);
        assert!((dsc_lower_bound_bits(32) - disj_lower_bound_bits(32)).abs() < 1e-12);
        assert!(dsc_lower_bound_bits(64) > dsc_lower_bound_bits(32));
        assert_eq!(disj_lower_bound_bits(0), 0.0);
    }

    #[test]
    fn chernoff_values() {
        assert!((chernoff_bound(1.0, 0.0) - 2.0).abs() < 1e-12);
        let b = chernoff_bound(0.5, 100.0);
        assert!((b - 2.0 * (-12.5f64).exp()).abs() < 1e-15);
        assert!(chernoff_bound(0.1, 1000.0) < chernoff_bound(0.1, 100.0));
    }

    #[test]
    fn threshold_and_failure_formulas() {
        // n = 100, s = 50, k = 2: (s/2n)^k = (1/4)² = 1/16.
        assert!((lemma22_threshold(80, 50, 100, 2) - 40.0 / 16.0).abs() < 1e-12);
        let f = lemma22_failure_bound(80, 50, 100, 2);
        assert!((f - 2.0 * (-(80.0f64 / 8.0) / 16.0).exp()).abs() < 1e-12);
    }

    #[test]
    fn mean_residual_matches_expectation() {
        // E residual = |U|·(s/n)^k (each element survives each set w.p. s/n).
        let mut rng = StdRng::seed_from_u64(1);
        let n = 1000;
        let s = 250;
        let k = 2;
        let u = BitSet::full(n);
        let (_, mean_resid) = lemma22_experiment(&mut rng, n, s, k, &u, 300);
        let expected = n as f64 * (s as f64 / n as f64).powi(k as i32); // 62.5
        assert!(
            (mean_resid - expected).abs() < expected * 0.15,
            "mean residual {mean_resid} vs expected {expected}"
        );
    }

    #[test]
    fn failure_rate_below_lemma_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 2000;
        let s = 500;
        let u = BitSet::full(n);
        for k in [1, 2, 3] {
            let (rate, _) = lemma22_experiment(&mut rng, n, s, k, &u, 200);
            let bound = lemma22_failure_bound(n, s, n, k).min(1.0);
            assert!(
                rate <= bound + 0.05,
                "k={k}: empirical failure {rate} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn trial_on_partial_u() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 500;
        let u = BitSet::from_iter(n, 0..100);
        let r = lemma22_trial(&mut rng, n, 125, 1, &u);
        assert!(r <= 100);
        // Expected ≈ 100·(125/500) = 25.
        let (_, mean) = lemma22_experiment(&mut rng, n, 125, 1, &u, 400);
        assert!((mean - 25.0).abs() < 4.0, "mean {mean}");
    }
}

//! Algorithm 1 of the paper (§3.4): the `(α+ε)`-approximation streaming set
//! cover algorithm in `2α+1` passes and `Õ(m·n^{1/α}/ε² + n/ε)` space —
//! Assadi's sharpening of Har-Peled et al. (PODS 2016).
//!
//! Structure for a known guess `o͂pt` of the optimum:
//!
//! 1. **One-shot pruning pass** — pick every set covering `≥ n/(ε·o͂pt)`
//!    still-uncovered elements; at most `ε·o͂pt` picks, leaving all residual
//!    sets small (this is what caps the stored projections later).
//! 2. **α element-sampling rounds** — sample `U_smpl ⊆ U` at rate
//!    `p = 16·o͂pt·ln m / n^{1−1/α}`, store every `S'_i = S_i ∩ U_smpl` in one
//!    pass, solve set cover of `U_smpl` *offline* on the stored projections
//!    (computation is unrestricted in this model), then spend one more pass
//!    removing the chosen sets' elements from `U`. Lemma 3.12 with
//!    `ρ = n^{-1/α}` guarantees each round shrinks `U` by an `n^{1/α}`
//!    factor, so α rounds finish.
//!
//! The two knobs the paper's §3.4 comparison highlights are exposed for the
//! ablation (E11): [`Pruning`] (one-shot vs per-round vs none) and
//! [`SamplingRate`] (the paper's `1/ρ` rate vs the `1/ρ²` rate of the
//! original Har-Peled et al. analysis, which costs a full extra `n^{1/α}`
//! factor of space).
//!
//! Note on the paper's step 3(d): it reads `U_smpl ← U_smpl \ …`, but the
//! surrounding analysis (Lemma 3.11 tracks `|U|` shrinking per iteration and
//! step 3(a) re-samples from `U`) requires the update to apply to `U`; we
//! implement `U ← U \ ⋃_{i∈OPT'} S_i`.

use crate::guessing::GuessDriver;
use crate::meter::{SpaceMeter, WORD};
use crate::parallel::ParallelPass;
use crate::report::{CoverRun, SetCoverStreamer};
use crate::runtime::{ExecPolicy, Runtime};
use crate::stream::{Arrival, SetStream};
use rand::rngs::StdRng;
use rand::Rng;
use streamcover_core::{ceil_log2, cover_within, BitSet, SetId, SetSystem};

/// Which pruning discipline to run before/within the sampling rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pruning {
    /// The paper's single pruning pass before the rounds (Algorithm 1).
    OneShot,
    /// A pruning pass at the start of every round — the iterative pruning
    /// of Har-Peled et al. that Algorithm 1 replaces (costs `α−1` extra
    /// passes; ablation arm).
    PerRound,
    /// No pruning (ablation arm: projections are no longer size-capped and
    /// the stored bits blow up).
    None,
}

/// Element-sampling rate per round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingRate {
    /// The paper's Lemma 3.12 rate `p = 16·k·ln m/(ρ·n)` with `ρ = n^{-1/α}`.
    Fine,
    /// The coarser `p = 16·k·ln m/(ρ²·n)` rate matching the original
    /// Har-Peled et al. analysis (Lemma 2.5 of \[32\]) — an extra `n^{1/α}`
    /// space factor.
    Coarse,
}

/// Algorithm 1 with its ablation knobs.
///
/// The struct carries *algorithmic* parameters only. Execution —
/// per-pass fan-out, guess-grid fan-out, storage representation, space
/// accounting, run seed — is configured on the
/// [`ExecPolicy`] handed to
/// [`run_in`](crate::report::SetCoverStreamer::run_in); the legacy
/// per-algorithm `workers`/`guess_workers`/`accounting` fields are gone.
#[derive(Clone, Copy, Debug)]
pub struct HarPeledAssadi {
    /// Target approximation `α ≥ 1`.
    pub alpha: usize,
    /// Accuracy/space knob `ε ∈ (0, 1]`.
    pub eps: f64,
    /// Pruning discipline.
    pub pruning: Pruning,
    /// Sampling rate.
    pub rate: SamplingRate,
    /// Search-node budget per round of the offline oracle: exact
    /// branch-and-bound ([`cover_within`]) capped at `k = o͂pt` picks, run
    /// over the sampled sub-universe. `U_smpl` is relabelled onto
    /// `0..|U_smpl|` and each stored projection becomes one row of
    /// `⌈|U_smpl|/64⌉` words, at most `m × ⌈|U_smpl|/64⌉` words per call.
    /// The cap prunes every branch past `k` picks, since a larger cover is
    /// discarded anyway. When the budget trips, the round keeps the best
    /// cover of at most `k` sets found so far (greedy's, at worst). The
    /// `(α+ε)` guarantee holds whenever the search completes, which it
    /// virtually always does at our scales because the sampled instances
    /// have tiny covers.
    pub node_budget: u64,
    /// The constant `c` in the sampling rate `p = c·k·ln m/(ρ·n)`. The
    /// paper's analysis uses 16; at laptop scale `16·ln m` can exceed
    /// `n^{1−1/α}` and cap `p` at 1 (degenerating the algorithm into
    /// store-everything), so experiments may lower it — rounds then fail
    /// with slightly higher probability, which the o͂pt-guess grid absorbs.
    /// This is a deliberate substitution for the paper's constant, made
    /// only by [`scaled`](Self::scaled); [`paper`](Self::paper) keeps 16.
    pub rate_constant: f64,
}

impl HarPeledAssadi {
    /// The paper's configuration: one-shot pruning, fine sampling, `c = 16`,
    /// and the exact oracle capped at `k` picks on the compact bit-matrix
    /// of the sample (see [`node_budget`](Self::node_budget)).
    pub fn paper(alpha: usize, eps: f64) -> Self {
        assert!(alpha >= 1, "α ≥ 1 required");
        assert!(eps > 0.0 && eps <= 1.0, "ε ∈ (0,1] required");
        HarPeledAssadi {
            alpha,
            eps,
            pruning: Pruning::OneShot,
            rate: SamplingRate::Fine,
            node_budget: 50_000,
            rate_constant: 16.0,
        }
    }

    /// Laptop-scale configuration: the paper's structure with `c = 2`, so
    /// the `n^{1/α}` scaling is visible at `n ≤ 2^14`. With `c = 16` the
    /// rate `p = c·k·ln m/(ρ·n)` caps at 1 at these sizes and every round
    /// stores the whole input.
    pub fn scaled(alpha: usize, eps: f64) -> Self {
        HarPeledAssadi {
            rate_constant: 2.0,
            ..Self::paper(alpha, eps)
        }
    }

    /// The original Har-Peled et al. shape: per-round pruning + coarse rate.
    pub fn harpeled_original(alpha: usize, eps: f64) -> Self {
        HarPeledAssadi {
            pruning: Pruning::PerRound,
            rate: SamplingRate::Coarse,
            ..Self::paper(alpha, eps)
        }
    }

    /// The sampling probability for guess `k` on a universe of size `n`.
    pub fn sample_rate(&self, n: usize, m: usize, k: usize) -> f64 {
        let rho = (n as f64).powf(-1.0 / self.alpha as f64);
        let base = self.rate_constant * k as f64 * (m.max(2) as f64).ln() / (rho * n as f64);
        let p = match self.rate {
            SamplingRate::Fine => base,
            SamplingRate::Coarse => base / rho,
        };
        p.min(1.0)
    }

    /// Runs Algorithm 1 for a fixed guess `k = o͂pt` on `rt` under
    /// `policy`. Returns `None` when the guess fails (sampled instance not
    /// coverable within `k` picks, or `U` nonempty after the rounds); the
    /// guessing driver then moves on.
    ///
    /// Space charged: `U` as a dense `n`-bit map, the solution ids, the
    /// sampled universe and every stored projection `S'_i` under the
    /// policy's [`Accounting`](crate::meter::Accounting). All retained
    /// state is held through RAII `ChargeGuard`s, so the early
    /// `return None` below (and any future one) releases exactly what is
    /// live — nothing leaks, nothing is force-reset.
    pub fn run_guess(
        &self,
        rt: &Runtime,
        policy: &ExecPolicy,
        stream: &mut SetStream<'_>,
        meter: &SpaceMeter,
        rng: &mut StdRng,
        k: usize,
    ) -> Option<Vec<SetId>> {
        let n = stream.universe();
        let m = stream.num_sets();
        let logm = u64::from(ceil_log2(m.max(2)));
        if n == 0 {
            return Some(Vec::new());
        }
        let engine = ParallelPass::from_policy(rt, policy);

        // U as a dense bitmap, live for the whole run; the solution ids
        // accrete into their own guard (`logm` bits each).
        let mut u = BitSet::full(n);
        let _u_guard = meter.guard(u.stored_bits_dense());
        let mut sol_guard = meter.guard(0);
        let mut sol: Vec<SetId> = Vec::new();

        // Pruning threshold n/(ε·k); each accepted set covers that many new
        // elements, so at most ε·k sets are accepted per pruning pass. The
        // pass fans out through the engine; accepted ids come back live on
        // the meter and are adopted into the solution guard.
        let threshold = ((n as f64) / (self.eps * k as f64)).ceil().max(1.0) as usize;
        let prune_pass = |u: &mut BitSet,
                          sol: &mut Vec<SetId>,
                          sol_guard: &mut crate::meter::ChargeGuard<'_>,
                          stream: &mut SetStream<'_>| {
            let _threshold_word = meter.guard(WORD);
            let picks = engine.threshold_pass(stream, u, threshold, meter, |i, _| sol.push(i));
            sol_guard.adopt(picks as u64 * logm);
        };

        if self.pruning == Pruning::OneShot {
            prune_pass(&mut u, &mut sol, &mut sol_guard, stream);
        }

        let p = self.sample_rate(n, m, k);
        for _round in 0..self.alpha {
            if u.is_empty() {
                break;
            }
            if self.pruning == Pruning::PerRound {
                prune_pass(&mut u, &mut sol, &mut sol_guard, stream);
                if u.is_empty() {
                    break;
                }
            }

            // Sample U_smpl ⊆ U (no pass needed: U is in memory).
            let mut u_smpl = BitSet::new(n);
            for e in u.iter() {
                if rng.gen_bool(p) {
                    u_smpl.insert(e);
                }
            }
            let _smpl_guard = meter.guard(u_smpl.stored_bits_sparse());

            // Storing pass: S'_i = S_i ∩ U_smpl for all i, fanned out over
            // the workers (each stores its chunk of the arrival order; the
            // merge is in arrival order, so the projected system is indexed
            // by arrival position and `arrival_ids` maps positions back to
            // instance ids — the `logm` per stored set is exactly that id).
            let mut stored_guard = meter.guard(0);
            let (arrival_ids, projected, stored_bits) =
                engine.store_pass(stream, meter, Some((&u_smpl, policy.accounting)));
            stored_guard.adopt(stored_bits);

            // Offline oracle on the sample, capped at k picks; map its
            // position-indexed answer back to instance ids.
            let picks = self.solve_sample(&projected, &u_smpl, k);
            drop(stored_guard);
            drop(_smpl_guard);
            let picks = picks?; // guess too small — guards release U + sol
            let picks: Vec<SetId> = picks.into_iter().map(|j| arrival_ids[j]).collect();

            // Update pass: U ← U \ ⋃ S_i over the chosen ids.
            for (i, s) in stream.pass() {
                if picks.contains(&i) {
                    u.difference_with_ref(s);
                }
            }
            for i in picks {
                sol.push(i);
                sol_guard.add(logm);
            }
        }

        let feasible = u.is_empty();
        feasible.then_some(sol)
    }

    /// Solves set cover of `target` on the stored projections, returning at
    /// most `k` ids or `None` when `k` do not suffice.
    fn solve_sample(&self, projected: &SetSystem, target: &BitSet, k: usize) -> Option<Vec<SetId>> {
        cover_within(projected, target, k, self.node_budget)
            .0
            .ok()?
    }
}

impl SetCoverStreamer for HarPeledAssadi {
    fn name(&self) -> &'static str {
        match (self.pruning, self.rate) {
            (Pruning::OneShot, SamplingRate::Fine) => "assadi-alg1",
            (Pruning::PerRound, SamplingRate::Coarse) => "harpeled-original",
            (Pruning::None, _) => "alg1-noprune",
            _ => "alg1-variant",
        }
    }

    fn run_in(
        &self,
        rt: &Runtime,
        policy: &ExecPolicy,
        sys: &SetSystem,
        arrival: Arrival,
        rng: &mut StdRng,
    ) -> CoverRun {
        let mut slot = None;
        let rng = policy.select_rng(rng, &mut slot);
        GuessDriver::new(self.eps).run(
            self.name(),
            rt,
            policy,
            sys,
            arrival,
            rng,
            |stream, meter, rng, k| self.run_guess(rt, policy, stream, meter, rng, k),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Accounting;
    use rand::SeedableRng;
    use streamcover_dist::{planted_cover, ScParams};

    fn run_paper(alpha: usize, eps: f64, seed: u64) -> (CoverRun, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = planted_cover(&mut rng, 512, 48, 6);
        let algo = HarPeledAssadi::paper(alpha, eps);
        let run = algo.run(&w.system, Arrival::Adversarial, &mut rng);
        (run, 6)
    }

    #[test]
    fn paper_config_covers_and_respects_ratio() {
        let (run, planted_opt) = run_paper(3, 0.5, 1);
        assert!(run.feasible, "must return a feasible cover");
        // (α+ε)·opt bound against the *planted* opt (true opt ≤ planted).
        let bound = (3.0 + 0.5) * planted_opt as f64 * 1.5; // guess-grid slack
        assert!(
            (run.size() as f64) <= bound,
            "size {} exceeds (α+ε)·opt·slack = {bound}",
            run.size()
        );
    }

    #[test]
    fn pass_budget_is_2alpha_plus_1() {
        for alpha in [1, 2, 3, 4] {
            let mut rng = StdRng::seed_from_u64(7);
            let w = planted_cover(&mut rng, 256, 24, 4);
            let algo = HarPeledAssadi::paper(alpha, 0.5);
            let run = algo.run(&w.system, Arrival::Adversarial, &mut rng);
            assert!(
                run.passes <= 2 * alpha + 1,
                "α={alpha}: {} passes > 2α+1",
                run.passes
            );
            assert!(run.feasible);
        }
    }

    #[test]
    fn per_round_pruning_uses_more_passes() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = planted_cover(&mut rng, 256, 24, 4);
        let paper = HarPeledAssadi::paper(3, 0.5);
        let orig = HarPeledAssadi::harpeled_original(3, 0.5);
        let r1 = paper.run(&w.system, Arrival::Adversarial, &mut rng);
        let r2 = orig.run(&w.system, Arrival::Adversarial, &mut rng);
        assert!(r1.feasible && r2.feasible);
        assert!(
            r2.passes >= r1.passes,
            "iterative pruning cannot use fewer passes ({} vs {})",
            r2.passes,
            r1.passes
        );
    }

    #[test]
    fn coarse_rate_charges_more_space() {
        // The 1/ρ² rate must store ≈ n^{1/α} times more bits (capped by p≤1).
        let mut rng = StdRng::seed_from_u64(11);
        let w = planted_cover(&mut rng, 2048, 64, 4);
        let fine = HarPeledAssadi::paper(4, 0.5);
        let coarse = HarPeledAssadi {
            rate: SamplingRate::Coarse,
            ..fine
        };
        let rf = fine.run(&w.system, Arrival::Adversarial, &mut rng);
        let rc = coarse.run(&w.system, Arrival::Adversarial, &mut rng);
        assert!(rf.feasible && rc.feasible);
        assert!(
            rc.peak_bits > rf.peak_bits,
            "coarse {} bits ≤ fine {} bits",
            rc.peak_bits,
            rf.peak_bits
        );
    }

    #[test]
    fn sample_rate_formula() {
        let algo = HarPeledAssadi::paper(2, 0.5);
        // n = 10_000, α = 2 ⇒ ρ = 0.01; p = 16·k·ln m/(ρ·n) = 16·k·ln m/100.
        let p = algo.sample_rate(10_000, 64, 1);
        assert!((p - 16.0 * 64f64.ln() / 100.0).abs() < 1e-12);
        // Rates cap at 1.
        assert_eq!(algo.sample_rate(100, 64, 50), 1.0);
        // Coarse = fine / ρ (before capping).
        let coarse = HarPeledAssadi {
            rate: SamplingRate::Coarse,
            ..algo
        };
        let pc = coarse.sample_rate(10_000, 64, 1);
        assert!((pc - p * 100.0).min(1.0) <= 1.0);
    }

    #[test]
    fn random_arrival_also_works() {
        let mut rng = StdRng::seed_from_u64(13);
        let w = planted_cover(&mut rng, 512, 48, 6);
        let algo = HarPeledAssadi::paper(3, 0.5);
        let run = algo.run(&w.system, Arrival::Random { seed: 99 }, &mut rng);
        assert!(run.feasible);
        assert!(run.passes <= 7);
    }

    #[test]
    fn dsc_space_decreases_under_actual_repr_accounting() {
        // Regression pin for the hybrid-store accounting: on a `D_SC`
        // instance the sets are dense (≈ 2n/3 elements), so whenever the
        // sampling rate caps near 1 the stored projections cross the
        // density cutover and live as n-bit maps. Charging the actual
        // representation must therefore come in strictly below the old
        // always-a-member-list convention (|S'|·log n ≈ 9n per projection),
        // and the measured peak must stay inside the Theorem 2 envelope
        // Õ(m·n^{1/α}/ε² + n/ε). Since the compressed backends landed,
        // ActualRepr charges *measured* encoded size — the store's argmin
        // now also considers chunked/Elias–Fano encodings, which can only
        // lower the actual peak, so this envelope rerun covers the real
        // encodings end to end.
        let p = ScParams::explicit(2048, 8, 16);
        let mut rng = StdRng::seed_from_u64(7);
        let inst = streamcover_dist::sample_dsc_with_theta(&mut rng, p, true);
        let sys = inst.combined();
        let (alpha, eps) = (2usize, 0.5f64);

        let run_with = |accounting: Accounting| {
            let mut r = StdRng::seed_from_u64(42);
            let algo = HarPeledAssadi::scaled(alpha, eps);
            algo.run_in(
                Runtime::sequential(),
                &ExecPolicy::sequential().accounting(accounting),
                &sys,
                Arrival::Adversarial,
                &mut r,
            )
        };
        let actual = run_with(Accounting::ActualRepr);
        let always_sparse = run_with(Accounting::AlwaysSparse);
        assert!(actual.feasible && always_sparse.feasible);
        assert_eq!(
            actual.solution, always_sparse.solution,
            "accounting must not change the algorithm"
        );
        assert!(
            actual.peak_bits < always_sparse.peak_bits,
            "actual-repr accounting must be cheaper on dense D_SC sets: \
             {} vs {}",
            actual.peak_bits,
            always_sparse.peak_bits
        );

        // Theorem 2 envelope with the Õ slack spelled out: ln n·ln m for
        // the hidden polylogs plus a constant absorbing the o͂pt-guess grid
        // (≈ log_{1.5} n parallel copies; measured ratio is ≈ 3.4, so 8×
        // leaves headroom without letting a Θ(m·n·polylog) regression pass).
        let (nf, mm) = (p.n as f64, (2 * p.m) as f64);
        let envelope = 8.0
            * (mm * nf.powf(1.0 / alpha as f64) * nf.ln() * mm.ln() / (eps * eps)
                + nf * nf.ln() / eps);
        assert!(
            (actual.peak_bits as f64) <= envelope,
            "peak {} bits exceeds Theorem 2 envelope {envelope:.0}",
            actual.peak_bits
        );
    }

    #[test]
    fn alpha_one_single_round_stores_everything_relevant() {
        // α = 1 ⇒ ρ = 1/n ⇒ p = 1: degenerate to store-the-residual exact.
        let mut rng = StdRng::seed_from_u64(17);
        let w = planted_cover(&mut rng, 128, 16, 4);
        let algo = HarPeledAssadi::paper(1, 0.5);
        let run = algo.run(&w.system, Arrival::Adversarial, &mut rng);
        assert!(run.feasible);
        assert!(run.passes <= 3);
    }
}

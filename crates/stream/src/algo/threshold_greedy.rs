//! Multi-pass threshold greedy — the classical `O(log n)`-pass,
//! `O(log n)`-approximation baseline in `O(n)` bits (the pre-\[32\] regime the
//! paper's introduction contrasts against; a fixed `log n`-approximation in
//! this space/pass envelope is what Bateni et al. \[9\] refine).
//!
//! Pass `j` uses threshold `τ_j = n/2^j`: any arriving set covering at least
//! `τ_j` still-uncovered elements is taken immediately. After `⌈log₂ n⌉+1`
//! passes the threshold reaches 1 and the solution is feasible (if the
//! instance is coverable). Every pick at threshold `τ` covers ≥ τ new
//! elements while the optimum must cover the remaining elements too —
//! the standard charging gives an `O(log n)` ratio.
//!
//! Passes execute through [`ParallelPass`] on the [`Runtime`] the caller
//! hands to [`SetCoverStreamer::run_in`]: workers filter candidates
//! against the pass-start residual in parallel, and one arrival-order loop
//! re-evaluates each candidate once against the evolving residual, which
//! makes the picks identical to the sequential loop for every fan-out
//! width (see `crate::parallel` for the argument).
//! All execution knobs live on the [`ExecPolicy`] — the algorithm struct
//! itself is a unit type.

use crate::meter::{SpaceMeter, WORD};
use crate::parallel::ParallelPass;
use crate::report::{CoverRun, SetCoverStreamer};
use crate::runtime::{ExecPolicy, Runtime};
use crate::stream::{Arrival, SetStream};
use rand::rngs::StdRng;
use streamcover_core::{BitSet, SetSystem};

/// The threshold-greedy streaming set cover algorithm. Carries no
/// execution state: fan-out is the [`ExecPolicy`]'s business.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThresholdGreedy;

impl SetCoverStreamer for ThresholdGreedy {
    fn name(&self) -> &'static str {
        "threshold-greedy"
    }

    fn run_in(
        &self,
        rt: &Runtime,
        policy: &ExecPolicy,
        sys: &SetSystem,
        arrival: Arrival,
        _rng: &mut StdRng,
    ) -> CoverRun {
        let n = sys.universe();
        let mut stream = SetStream::new(sys, arrival);
        let meter = SpaceMeter::new();
        if n == 0 {
            return CoverRun {
                algorithm: self.name(),
                solution: Vec::new(),
                feasible: true,
                passes: 0,
                peak_bits: 0,
            };
        }
        let engine = ParallelPass::from_policy(rt, policy);
        let mut u = BitSet::full(n);
        // U bitmap + threshold word, live for the whole run; pick ids stay
        // live on the meter (charged by the engine's accept path).
        let _state = meter.guard(u.stored_bits_dense() + WORD);

        let mut sol = Vec::new();
        let mut threshold = n;
        while !u.is_empty() && threshold >= 1 {
            engine.threshold_pass(&mut stream, &mut u, threshold, &meter, |i, _| sol.push(i));
            if threshold == 1 {
                break;
            }
            threshold /= 2;
        }
        let feasible = u.is_empty();
        CoverRun {
            algorithm: self.name(),
            solution: sol,
            feasible,
            passes: stream.passes_made(),
            peak_bits: meter.peak_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use streamcover_core::exact_set_cover;
    use streamcover_dist::planted_cover;

    #[test]
    fn covers_planted_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = planted_cover(&mut rng, 256, 32, 5);
        let run = ThresholdGreedy.run(&w.system, Arrival::Adversarial, &mut rng);
        assert!(run.feasible);
        let opt = exact_set_cover(&w.system).expect("coverable").size();
        // O(log n) guarantee: H(n) ≈ 5.5 for n=256; allow the full bound.
        assert!(
            (run.size() as f64) <= (2.0 * (256f64).ln() + 1.0) * opt as f64,
            "size {} vs opt {opt}",
            run.size()
        );
    }

    #[test]
    fn pass_budget_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = planted_cover(&mut rng, 1024, 32, 4);
        let run = ThresholdGreedy.run(&w.system, Arrival::Adversarial, &mut rng);
        assert!(run.passes <= 11, "{} passes > log₂(1024)+1", run.passes);
        assert!(run.feasible);
    }

    #[test]
    fn space_is_linear_in_n_not_mn() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = planted_cover(&mut rng, 512, 64, 4);
        let run = ThresholdGreedy.run(&w.system, Arrival::Adversarial, &mut rng);
        // Dense U (512 bits) + word + solution/candidate ids; far below
        // m·n = 32768.
        assert!(run.peak_bits < 2_000, "peak {} bits", run.peak_bits);
    }

    #[test]
    fn infeasible_instance_reported() {
        let sys = SetSystem::from_elements(4, &[vec![0], vec![1]]);
        let mut rng = StdRng::seed_from_u64(4);
        let run = ThresholdGreedy.run(&sys, Arrival::Adversarial, &mut rng);
        assert!(!run.feasible);
        assert_eq!(run.size(), 2, "picks what it can");
    }

    #[test]
    fn empty_universe() {
        let sys = SetSystem::new(0);
        let mut rng = StdRng::seed_from_u64(5);
        let run = ThresholdGreedy.run(&sys, Arrival::Adversarial, &mut rng);
        assert!(run.feasible);
        assert_eq!(run.passes, 0);
    }

    #[test]
    fn random_arrival_same_guarantees() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = planted_cover(&mut rng, 256, 32, 5);
        let run = ThresholdGreedy.run(&w.system, Arrival::Random { seed: 1 }, &mut rng);
        assert!(run.feasible);
        assert!(run.passes <= 9);
    }

    #[test]
    fn worker_count_never_changes_the_run() {
        let mut rng = StdRng::seed_from_u64(7);
        let rt = Runtime::new(4);
        for &(n, m, opt) in &[(256usize, 32usize, 5usize), (512, 96, 8)] {
            let w = planted_cover(&mut rng, n, m, opt);
            for arrival in [Arrival::Adversarial, Arrival::Random { seed: 11 }] {
                let base = ThresholdGreedy.run(&w.system, arrival, &mut rng);
                for workers in [2, 4, 8] {
                    let run = ThresholdGreedy.run_in(
                        &rt,
                        &ExecPolicy::sequential().workers(workers),
                        &w.system,
                        arrival,
                        &mut rng,
                    );
                    assert_eq!(run.solution, base.solution, "workers={workers}");
                    assert_eq!(run.passes, base.passes);
                    assert_eq!(run.peak_bits, base.peak_bits, "workers={workers}");
                }
            }
        }
    }
}

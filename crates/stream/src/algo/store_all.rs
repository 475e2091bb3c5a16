//! The store-everything baseline: one pass, `Θ(mn)`-ish bits, and an
//! optimal answer when the offline exact search finishes within
//! [`StoreAll::node_budget`]; past the budget the answer is the greedy
//! incumbent, which may be larger than the optimum (the run report does
//! not say which). This is the trivial upper bound the streaming model
//! exists to beat — and the yardstick the lower bound says you cannot beat
//! by more than `n^{1-1/α}` while keeping `α`-approximation.

use crate::meter::SpaceMeter;
use crate::parallel::ParallelPass;
use crate::report::{CoverRun, SetCoverStreamer};
use crate::runtime::{ExecPolicy, Runtime};
use crate::stream::{Arrival, SetStream};
use rand::rngs::StdRng;
use streamcover_core::{budgeted_cover_of, BitSet, SetSystem};

/// One-pass store-all exact baseline. The storing pass's fan-out is the
/// [`ExecPolicy`]'s business; the struct only carries the solver budget.
#[derive(Clone, Copy, Debug)]
pub struct StoreAll {
    /// Node budget for the offline exact solve (falls back to the greedy
    /// incumbent when exceeded).
    pub node_budget: u64,
}

impl Default for StoreAll {
    fn default() -> Self {
        StoreAll {
            node_budget: 5_000_000,
        }
    }
}

impl SetCoverStreamer for StoreAll {
    fn name(&self) -> &'static str {
        "store-all"
    }

    fn run_in(
        &self,
        rt: &Runtime,
        policy: &ExecPolicy,
        sys: &SetSystem,
        arrival: Arrival,
        _rng: &mut StdRng,
    ) -> CoverRun {
        let mut stream = SetStream::new(sys, arrival);
        let meter = SpaceMeter::new();
        let n = stream.universe();
        // Storing pass: per-worker arenas merged in arrival order; every
        // copy's bits stay live for the offline solve.
        let (order, stored, _stored_bits) =
            ParallelPass::from_policy(rt, policy).store_pass(&mut stream, &meter, None);
        // Offline exact solve on the stored copy.
        let target = BitSet::full(n);
        let (ids, _complete) = budgeted_cover_of(&stored, &target, self.node_budget);
        let (solution, feasible) = match ids {
            Ok(local) => {
                // Map stored positions back to instance ids.
                let mapped: Vec<usize> = local.into_iter().map(|j| order[j]).collect();
                let ok = sys.is_cover(&mapped);
                (mapped, ok)
            }
            Err(_) => (Vec::new(), false),
        };
        CoverRun {
            algorithm: self.name(),
            solution,
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
    fn finds_the_optimum_in_one_pass() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = planted_cover(&mut rng, 128, 24, 4);
        let run = StoreAll::default().run(&w.system, Arrival::Adversarial, &mut rng);
        assert!(run.feasible);
        assert_eq!(run.passes, 1);
        assert_eq!(
            run.size(),
            exact_set_cover(&w.system).expect("coverable").size()
        );
    }

    #[test]
    fn charges_the_whole_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = planted_cover(&mut rng, 128, 24, 4);
        let run = StoreAll::default().run(&w.system, Arrival::Adversarial, &mut rng);
        let expected: u64 = w.system.iter().map(|(_, s)| s.stored_bits().max(1)).sum();
        assert_eq!(run.peak_bits, expected);
    }

    #[test]
    fn solution_uses_instance_ids_under_random_arrival() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = planted_cover(&mut rng, 64, 12, 3);
        let run = StoreAll::default().run(&w.system, Arrival::Random { seed: 5 }, &mut rng);
        assert!(run.feasible);
        assert!(w.system.is_cover(&run.solution));
    }

    #[test]
    fn infeasible_instance() {
        let sys = SetSystem::from_elements(3, &[vec![0]]);
        let mut rng = StdRng::seed_from_u64(4);
        let run = StoreAll::default().run(&sys, Arrival::Adversarial, &mut rng);
        assert!(!run.feasible);
    }

    #[test]
    fn worker_count_never_changes_the_run() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = planted_cover(&mut rng, 128, 40, 5);
        let rt = Runtime::new(4);
        for arrival in [Arrival::Adversarial, Arrival::Random { seed: 9 }] {
            let base = StoreAll::default().run(&w.system, arrival, &mut rng);
            for workers in [2, 8] {
                let run = StoreAll::default().run_in(
                    &rt,
                    &ExecPolicy::sequential().workers(workers),
                    &w.system,
                    arrival,
                    &mut rng,
                );
                assert_eq!(run.solution, base.solution, "workers={workers}");
                assert_eq!(run.peak_bits, base.peak_bits, "workers={workers}");
            }
        }
    }
}

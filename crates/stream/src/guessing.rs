//! The o͂pt-guessing driver.
//!
//! Algorithm 1 assumes a `(1+ε)`-approximate guess of the optimum. As the
//! paper notes, this is WLOG: run `O(log n / ε)` copies in parallel for the
//! guesses `o͂pt ∈ {1, (1+ε), (1+ε)², …, min(n, m)}` and return the smallest
//! feasible cover among them. The driver simulates that parallel
//! composition faithfully for the cost model:
//!
//! * each guess runs against its **own stream with the same arrival
//!   permutation** (one physical stream serves all copies in a real
//!   deployment);
//! * reported passes = the **maximum** over copies (parallel copies share
//!   passes);
//! * reported peak bits = the **sum** of the copies' peaks (they coexist) —
//!   copies are folded with [`SpaceMeter::absorb_parallel`].
//!
//! Since the copies are genuinely independent — each owns a private
//! [`SetStream`], [`SpaceMeter`], and `StdRng` — the driver can *execute*
//! them on a persistent [`Runtime`] pool too: [`GuessDriver::run`] chunks
//! the grid into the policy's `guess_workers` work items and folds the
//! reports in guess order afterwards. Per-guess rngs are split
//! deterministically from a single draw off the caller's rng, so the
//! sequential and pooled drivers return **identical** solutions, passes and
//! peak bits for every fan-out width and pool size.

use crate::meter::SpaceMeter;
use crate::report::CoverRun;
use crate::runtime::{ExecPolicy, Runtime};
use crate::stream::{Arrival, SetStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamcover_core::shard::split_ranges;
use streamcover_core::{SetId, SetSystem};

/// Runs a per-guess set cover routine over the `(1+ε)`-grid of guesses.
#[derive(Clone, Copy, Debug)]
pub struct GuessDriver {
    eps: f64,
}

impl GuessDriver {
    /// A driver with grid ratio `1+ε`. The fan-out width is configured per
    /// call by the [`ExecPolicy`] handed to [`run`](Self::run) — the driver
    /// itself carries no thread knobs.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0, "ε > 0 required");
        GuessDriver { eps }
    }

    /// The guess grid `{1, ⌈(1+ε)⌉, ⌈(1+ε)²⌉, …}` clipped to
    /// `[1, min(n, m)]`, deduplicated. The `m` clip is sound because a
    /// cover never uses more than `m` sets (and a guess is a pick budget),
    /// so grids on wide systems (`m ≪ n`) are shorter than the classic
    /// `O(log n / ε)` bound.
    pub fn guesses(&self, n: usize, m: usize) -> Vec<usize> {
        let cap = n.min(m).max(1);
        let mut out = Vec::new();
        let mut g = 1.0f64;
        loop {
            let k = (g.ceil() as usize).min(cap);
            if out.last() != Some(&k) {
                out.push(k);
            }
            if k >= cap {
                break;
            }
            g *= 1.0 + self.eps;
        }
        out
    }

    /// Runs `per_guess` for every guess (fresh stream per copy, same
    /// arrival order, private split rng) and assembles the
    /// parallel-composition report. With `policy.guess_workers > 1` the
    /// grid executes as work items on `rt`'s pool; the fold is in guess
    /// order either way, so the report depends on neither the fan-out
    /// width nor the pool size.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        name: &'static str,
        rt: &Runtime,
        policy: &ExecPolicy,
        sys: &SetSystem,
        arrival: Arrival,
        rng: &mut StdRng,
        per_guess: impl Fn(&mut SetStream<'_>, &SpaceMeter, &mut StdRng, usize) -> Option<Vec<SetId>>
            + Sync,
    ) -> CoverRun {
        let guesses = self.guesses(sys.universe(), sys.len());
        // One draw, regardless of grid size or worker count: every copy's
        // rng is split from it by guess index, so copies never share (or
        // race on) a random stream.
        let base: u64 = rng.gen();
        let run_one = |(gi, &k): (usize, &usize)| {
            let mut grng = StdRng::seed_from_u64(split_seed(base, gi));
            let mut stream = SetStream::new(sys, arrival);
            let meter = SpaceMeter::new();
            let sol = per_guess(&mut stream, &meter, &mut grng, k);
            (sol, stream.passes_made(), meter)
        };
        // Contiguous chunks of the grid per work item (one chunk ⇒ inline,
        // no submission); flattening chunk results restores guess order
        // for the fold.
        let workers = policy.guess_workers.min(guesses.len()).max(1);
        let chunks = split_ranges(guesses.len(), workers);
        let results: Vec<(Option<Vec<SetId>>, usize, SpaceMeter)> = rt
            .map_parts(&chunks, |r| {
                r.clone()
                    .map(|gi| run_one((gi, &guesses[gi])))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        // Fold in guess order: passes max, peaks add (the copies coexist
        // for the whole run). Best = smallest feasible with ties to the
        // earlier guess.
        let driver_meter = SpaceMeter::new();
        let mut best: Option<Vec<SetId>> = None;
        let mut max_passes = 0usize;
        for (sol, passes, meter) in results {
            driver_meter.absorb_parallel(&meter);
            max_passes = max_passes.max(passes);
            if let Some(sol) = sol {
                debug_assert!(sys.is_cover(&sol), "per-guess returned a non-cover");
                match &best {
                    Some(b) if b.len() <= sol.len() => {}
                    _ => best = Some(sol),
                }
            }
        }
        match best {
            Some(solution) => CoverRun {
                algorithm: name,
                feasible: true,
                solution,
                passes: max_passes,
                peak_bits: driver_meter.peak_bits(),
            },
            None => CoverRun {
                algorithm: name,
                feasible: sys.universe() == 0,
                solution: Vec::new(),
                passes: max_passes,
                peak_bits: driver_meter.peak_bits(),
            },
        }
    }
}

/// Deterministic per-guess seed split (SplitMix64 finalizer over
/// `base ⊕ f(index)`): guess `idx`'s stream depends only on the caller's
/// draw and its own grid position, never on other guesses or on which
/// worker ran it.
fn split_seed(base: u64, idx: usize) -> u64 {
    let mut z = base ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn guess_grid_covers_range() {
        let d = GuessDriver::new(0.5);
        let g = d.guesses(100, 100);
        assert_eq!(g[0], 1);
        assert_eq!(*g.last().unwrap(), 100);
        // Strictly increasing, ratio ≤ 1.5 + rounding.
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
            assert!(w[1] as f64 <= 1.5 * w[0] as f64 + 1.0);
        }
        // Grid size is O(log n / ε).
        assert!(g.len() <= 16, "grid too large: {}", g.len());
    }

    #[test]
    fn guess_grid_degenerate() {
        let d = GuessDriver::new(0.5);
        assert_eq!(d.guesses(1, 8), vec![1]);
        assert_eq!(d.guesses(0, 8), vec![1]);
        assert_eq!(d.guesses(100, 0), vec![1]);
    }

    #[test]
    fn guess_grid_clips_to_set_count() {
        // m ≪ n: a cover never needs more than m sets, so the grid stops
        // at m — shorter than the n-capped grid on wide systems.
        let d = GuessDriver::new(0.5);
        let wide = d.guesses(10_000, 12);
        assert_eq!(*wide.last().unwrap(), 12);
        assert!(wide.iter().all(|&k| k <= 12));
        assert!(wide.len() < d.guesses(10_000, 10_000).len());
        // m ≥ n leaves the classic grid unchanged.
        assert_eq!(d.guesses(100, 100), d.guesses(100, 5000));
    }

    #[test]
    fn driver_picks_smallest_feasible() {
        let sys = SetSystem::from_elements(3, &[vec![0, 1, 2], vec![0], vec![1], vec![2]]);
        let d = GuessDriver::new(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        // per_guess: guess 1 → the singleton full set; guess ≥ 2 → 3 sets.
        let run = d.run(
            "t",
            Runtime::sequential(),
            &ExecPolicy::sequential(),
            &sys,
            Arrival::Adversarial,
            &mut rng,
            |st, me, _rng, k| {
                for _ in st.pass() {}
                me.charge(10);
                if k == 1 {
                    Some(vec![0])
                } else {
                    Some(vec![1, 2, 3])
                }
            },
        );
        assert!(run.feasible);
        assert_eq!(run.solution, vec![0]);
        assert_eq!(run.passes, 1, "parallel copies share passes");
        // 3 guesses {1,2,3} ⇒ peaks add.
        assert_eq!(run.peak_bits, 30);
    }

    #[test]
    fn driver_reports_infeasible_when_all_guesses_fail() {
        let sys = SetSystem::from_elements(2, &[vec![0]]);
        let d = GuessDriver::new(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let run = d.run(
            "t",
            Runtime::sequential(),
            &ExecPolicy::sequential(),
            &sys,
            Arrival::Adversarial,
            &mut rng,
            |_, _, _, _| None,
        );
        assert!(!run.feasible);
        assert!(run.solution.is_empty());
    }

    #[test]
    fn thread_parallel_grid_matches_sequential_exactly() {
        // A randomness-consuming per-guess routine: the split rng must make
        // every copy's stream independent of worker count and grid
        // position, so all reports coincide with the one-thread driver.
        let sys = SetSystem::from_elements(
            64,
            &(0..64).map(|e| vec![e, (e + 1) % 64]).collect::<Vec<_>>(),
        );
        let per_guess = |st: &mut SetStream<'_>,
                         me: &SpaceMeter,
                         rng: &mut StdRng,
                         k: usize|
         -> Option<Vec<usize>> {
            let mut picked = Vec::new();
            let mut covered = streamcover_core::BitSet::new(st.universe());
            for (i, s) in st.pass() {
                if rng.gen_bool(0.9) || picked.len() < k {
                    covered.union_with_ref(s);
                    picked.push(i);
                }
            }
            me.charge(picked.len() as u64 * 7);
            covered.is_full().then_some(picked)
        };
        let rt = Runtime::new(4);
        let run_with = |workers: usize| {
            let mut rng = StdRng::seed_from_u64(99);
            GuessDriver::new(0.5).run(
                "t",
                &rt,
                &ExecPolicy::sequential().guess_workers(workers),
                &sys,
                Arrival::Random { seed: 3 },
                &mut rng,
                per_guess,
            )
        };
        let base = run_with(1);
        assert!(base.feasible);
        for workers in [2, 4, 8, 64] {
            let run = run_with(workers);
            assert_eq!(run.solution, base.solution, "workers={workers}");
            assert_eq!(run.passes, base.passes, "workers={workers}");
            assert_eq!(run.peak_bits, base.peak_bits, "workers={workers}");
        }
    }

    #[test]
    fn caller_rng_consumption_is_worker_invariant() {
        // The driver draws exactly one u64 from the caller's rng; the next
        // caller draw must not depend on grid size or worker count.
        let sys = SetSystem::from_elements(8, &[vec![0, 1, 2, 3, 4, 5, 6, 7]]);
        let rt = Runtime::new(2);
        let next_draw = |workers: usize| {
            let mut rng = StdRng::seed_from_u64(7);
            GuessDriver::new(1.0).run(
                "t",
                &rt,
                &ExecPolicy::sequential().guess_workers(workers),
                &sys,
                Arrival::Adversarial,
                &mut rng,
                |_, _, _, _| Some(vec![0]),
            );
            rng.gen::<u64>()
        };
        assert_eq!(next_draw(1), next_draw(4));
    }
}

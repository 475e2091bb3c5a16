//! The classical offline greedy algorithms.
//!
//! * [`greedy_set_cover`] — iteratively pick the set covering the most
//!   uncovered elements; `(ln n + 1)`-approximation (Johnson '74, Slavík '97).
//! * [`greedy_max_coverage`] — the same rule stopped after `k` picks;
//!   `(1 − 1/e)`-approximation for maximum coverage.
//!
//! These are the baselines the paper measures every streaming algorithm
//! against, and the workhorse inside our exact solver's bounds.
//!
//! The selection rule is implemented **lazily** (CELF-style): marginal gains
//! are submodular, so a max-heap of stale upper bounds only re-evaluates the
//! top candidate instead of rescanning all `m` sets per pick. The eager
//! `O(picks·m)` scan survives as [`greedy_cover_until_eager`] for the
//! lazy-vs-eager timing gate and the equivalence tests. Both produce
//! identical solutions (largest gain, ties to the smallest id).

use crate::bitset::BitSet;
use crate::shard::StoreShard;
use crate::store::{BatchedSweep, SetStore};
use crate::system::{SetId, SetSystem};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a greedy (or any) cover computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverResult {
    /// Chosen set ids, in pick order.
    pub ids: Vec<SetId>,
    /// Elements covered by the chosen sets.
    pub covered: BitSet,
}

impl CoverResult {
    /// Number of sets chosen.
    pub fn size(&self) -> usize {
        self.ids.len()
    }

    /// Number of elements covered.
    pub fn coverage(&self) -> usize {
        self.covered.len()
    }

    /// Whether the whole universe is covered.
    pub fn is_feasible(&self) -> bool {
        self.covered.is_full()
    }
}

/// Greedy set cover: repeatedly selects the set with the largest number of
/// still-uncovered elements until the universe is covered or no set makes
/// progress.
///
/// Returns the picked ids and the covered elements. If the instance is not
/// coverable the result covers `⋃_i S_i` and `is_feasible()` is `false`.
pub fn greedy_set_cover(sys: &SetSystem) -> CoverResult {
    greedy_cover_until(sys, usize::MAX, &BitSet::full(sys.universe()))
}

/// Greedy maximum coverage: greedily picks at most `k` sets maximizing
/// marginal coverage. Classic `(1 − 1/e)`-approximation.
pub fn greedy_max_coverage(sys: &SetSystem, k: usize) -> CoverResult {
    greedy_cover_until(sys, k, &BitSet::full(sys.universe()))
}

/// Greedy cover of a *target* subset of the universe with at most
/// `max_picks` sets. Used by Algorithm 1's analysis experiments (covering
/// the residual `U`) and by the exact solver's upper bound.
///
/// Lazy-greedy (CELF): a max-heap holds per-set gain upper bounds; popping
/// a candidate re-evaluates its true gain against the current residual and
/// only commits a pick when the refreshed gain still tops the heap.
/// Submodularity makes stale bounds valid upper bounds, so the pick
/// sequence — including the smallest-id tie-break — matches the eager scan
/// exactly while evaluating far fewer gains on instances with many sets.
pub fn greedy_cover_until(sys: &SetSystem, max_picks: usize, target: &BitSet) -> CoverResult {
    CelfHeap::seed(sys, target).cover_until(sys, max_picks, target)
}

/// [`greedy_cover_until`] with the heap-seeding sweep fanned out over
/// `workers` zero-copy arena shards ([`SetSystem::shards`]) on the shared
/// default [`Runtime`](crate::runtime::Runtime) — the `O(Σ|S|)` up-front
/// sweep is the scan that dominates lazy greedy on wide systems, and it is
/// embarrassingly parallel over set ranges. The CELF loop itself is
/// untouched, so the picks are identical to [`greedy_cover_until`] for
/// every worker count.
pub fn greedy_cover_until_sharded(
    sys: &SetSystem,
    workers: usize,
    max_picks: usize,
    target: &BitSet,
) -> CoverResult {
    greedy_cover_until_sharded_in(
        crate::runtime::Runtime::global(),
        sys,
        workers,
        max_picks,
        target,
    )
}

/// [`greedy_cover_until_sharded`] on an explicit runtime: the per-shard
/// seeding sweeps are pooled work items on `rt`. Picks are identical to
/// [`greedy_cover_until`] for every shard count and pool size.
pub fn greedy_cover_until_sharded_in(
    rt: &crate::runtime::Runtime,
    sys: &SetSystem,
    workers: usize,
    max_picks: usize,
    target: &BitSet,
) -> CoverResult {
    CelfHeap::seed_in(rt, sys, workers, target).cover_until(sys, max_picks, target)
}

/// A resumable CELF bound heap: the lazy-greedy pick state, detached from
/// any one call so callers can draw the greedy sequence incrementally.
///
/// Greedy's pick sequence is a *prefix property* — the first `k` picks do
/// not depend on how many more will be requested — so a heap seeded once
/// per system can serve `max_cover(k)` for growing `k` without reseeding,
/// provided the caller carries the residual (`uncovered`) alongside and
/// feeds it back into [`next_pick`](Self::next_pick). The serving layer's
/// same-epoch CELF-chain reuse is built on exactly this: every prefix it
/// hands out is byte-identical to a fresh [`greedy_cover_until`] run
/// because both drive the same heap through the same loop.
///
/// The loop is split into a non-committing peek ([`best`](Self::best),
/// [`shard_best`](Self::shard_best)) and a commit ([`pop`](Self::pop)), so
/// a distributed shard owner can report its local argmax every round and
/// remove it only when it wins the global pick; between peeks the
/// residual may shrink by anyone's picks.
pub struct CelfHeap {
    /// `(gain bound, Reverse(id))`: largest gain first, smallest id among
    /// equals — the eager scan's selection rule.
    heap: BinaryHeap<(usize, Reverse<SetId>)>,
    /// The candidate the last peek returned, held off the heap with its
    /// then-exact gain. It tops every heap bound, so the next peek
    /// re-evaluates it first and [`pop`](Self::pop) commits it without a
    /// heap operation.
    top: Option<(usize, Reverse<SetId>)>,
}

impl CelfHeap {
    /// Seeds the bound heap with one batched sweep of true gains against
    /// `target` over the whole arena (rather than `m` per-set kernel
    /// calls). Sets with zero initial gain never enter the heap.
    ///
    /// # Panics
    /// Panics if `target.capacity() != sys.universe()`.
    pub fn seed(sys: &SetSystem, target: &BitSet) -> CelfHeap {
        assert_eq!(
            target.capacity(),
            sys.universe(),
            "target universe mismatch"
        );
        let mut sweep = BatchedSweep::new();
        CelfHeap::from_gains([(0, sweep.gains(sys.store(), target))])
    }

    /// [`seed`](Self::seed) over one shard view: the heap holds the
    /// shard's *local* ids (`0..shard.len()`), seeded by one
    /// [`StoreShard::gains`] sweep. Drive it with
    /// [`shard_best`](Self::shard_best).
    pub fn seed_shard(shard: &StoreShard<'_>, target: &BitSet) -> CelfHeap {
        let mut sweep = BatchedSweep::new();
        CelfHeap::from_gains([(0, shard.gains(&mut sweep, target))])
    }

    /// [`seed`](Self::seed) with the sweep fanned out over `workers`
    /// zero-copy arena shards as pooled work items on `rt`. The heap
    /// contents are identical to the flat seed for every shard count and
    /// pool size.
    pub fn seed_in(
        rt: &crate::runtime::Runtime,
        sys: &SetSystem,
        workers: usize,
        target: &BitSet,
    ) -> CelfHeap {
        assert_eq!(
            target.capacity(),
            sys.universe(),
            "target universe mismatch"
        );
        let shards = sys.shards(workers);
        let per_shard: Vec<Vec<usize>> = rt.map_parts(&shards, |sh| {
            let mut sweep = BatchedSweep::new();
            sh.gains(&mut sweep, target).to_vec()
        });
        CelfHeap::from_gains(
            shards
                .iter()
                .zip(&per_shard)
                .map(|(sh, gains)| (sh.ids().start, gains.as_slice())),
        )
    }

    /// A heap over caller-supplied `(id, bound)` pairs — the seam for
    /// seeding from an index instead of a sweep. Zero bounds are left out.
    ///
    /// Precondition, for the target the heap is then driven against:
    /// every set whose gain on it is positive appears, and each bound is
    /// at least that set's true gain. Extra ids and loose bounds are fine
    /// (a refresh drops an entry whose true gain is 0), so
    /// [`cover_until`](Self::cover_until) on such a heap picks exactly
    /// what [`greedy_cover_until`] picks. A missing id or a bound below
    /// the true gain silently changes the picks.
    pub fn from_bounds(bounds: impl IntoIterator<Item = (SetId, usize)>) -> CelfHeap {
        let heap = bounds
            .into_iter()
            .filter_map(|(i, b)| (b > 0).then_some((b, Reverse(i))))
            .collect();
        CelfHeap { heap, top: None }
    }

    /// A heap over `(first id, gains)` runs; zero gains are left out.
    fn from_gains<'g>(runs: impl IntoIterator<Item = (SetId, &'g [usize])>) -> CelfHeap {
        let heap = runs
            .into_iter()
            .flat_map(|(start, gains)| {
                gains
                    .iter()
                    .enumerate()
                    .filter_map(move |(j, &g)| (g > 0).then_some((g, Reverse(start + j))))
            })
            .collect();
        CelfHeap { heap, top: None }
    }

    /// Peeks the greedy pick against the caller-maintained residual
    /// without committing it: `(id, gain)` of the set with the largest
    /// true gain on `uncovered`, smallest id among equals — exactly the
    /// eager scan's rule, i.e. [`BatchedSweep::best`] over the same
    /// residual. Returns `None` when no remaining set makes progress (the
    /// heap is then exhausted for this residual *and* every smaller one,
    /// by submodularity).
    ///
    /// `uncovered` may shrink arbitrarily between calls; the heap only
    /// tracks stale upper bounds.
    pub fn best(&mut self, sys: &SetSystem, uncovered: &BitSet) -> Option<(SetId, usize)> {
        self.refresh(sys.store(), 0, uncovered)
    }

    /// [`best`](Self::best) for a heap built by
    /// [`seed_shard`](Self::seed_shard): returns the shard-local id.
    pub fn shard_best(
        &mut self,
        shard: &StoreShard<'_>,
        uncovered: &BitSet,
    ) -> Option<(usize, usize)> {
        self.refresh(shard.store(), shard.ids().start, uncovered)
    }

    /// Commits the candidate the last peek returned: removes and returns
    /// it (`None` if the last peek found nothing). The caller subtracts
    /// the set from its residual.
    pub fn pop(&mut self) -> Option<SetId> {
        self.top.take().map(|(_, Reverse(i))| i)
    }

    /// Peeks then pops: the next greedy pick. The caller must subtract the
    /// returned set from `uncovered` before the next call.
    pub fn next_pick(&mut self, sys: &SetSystem, uncovered: &BitSet) -> Option<SetId> {
        self.best(sys, uncovered)?;
        self.pop()
    }

    /// Drains the heap as a greedy cover of `target` with at most
    /// `max_picks` sets — the CELF selection loop [`greedy_cover_until`]
    /// runs on a swept seed. The heap must have been seeded for `target`
    /// (see [`from_bounds`](Self::from_bounds) for the precondition).
    ///
    /// # Panics
    /// Panics if `target.capacity() != sys.universe()`.
    pub fn cover_until(
        mut self,
        sys: &SetSystem,
        max_picks: usize,
        target: &BitSet,
    ) -> CoverResult {
        assert_eq!(
            target.capacity(),
            sys.universe(),
            "target universe mismatch"
        );
        let mut uncovered = target.clone();
        let mut covered = BitSet::new(sys.universe());
        let mut ids = Vec::new();
        while !uncovered.is_empty() && ids.len() < max_picks {
            let Some(i) = self.next_pick(sys, &uncovered) else {
                break; // no set makes progress
            };
            uncovered.difference_with_ref(sys.set(i));
            covered.union_with_ref(sys.set(i));
            ids.push(i);
        }
        covered.intersect_with(target);
        CoverResult { ids, covered }
    }

    /// The one CELF refresh loop: re-evaluate the top candidate's true
    /// gain (ids are relative to `base` in `store`) until a refreshed
    /// entry still tops every remaining bound.
    fn refresh(
        &mut self,
        store: &SetStore,
        base: usize,
        uncovered: &BitSet,
    ) -> Option<(SetId, usize)> {
        let residual = uncovered.as_set_ref();
        while let Some((_, Reverse(i))) = self.top.take().or_else(|| self.heap.pop()) {
            let gain = store.get(base + i).intersection_len(residual);
            if gain == 0 {
                continue; // fully stale candidate; drop it
            }
            // Hold the candidate only if the refreshed entry would still
            // be popped first — `>=` on the (gain, Reverse(id)) pair
            // preserves the id tie-break.
            let entry = (gain, Reverse(i));
            if self.heap.peek().is_none_or(|&next| entry >= next) {
                self.top = Some(entry);
                return Some((i, gain));
            }
            self.heap.push(entry);
        }
        None
    }
}

/// The eager `O(picks·m)` greedy scan — the pre-CELF reference
/// implementation, kept for the lazy-vs-eager timing gate and the
/// equivalence tests. Produces exactly the same picks as [`greedy_cover_until`].
pub fn greedy_cover_until_eager(sys: &SetSystem, max_picks: usize, target: &BitSet) -> CoverResult {
    assert_eq!(
        target.capacity(),
        sys.universe(),
        "target universe mismatch"
    );
    let mut uncovered = target.clone();
    let mut covered = BitSet::new(sys.universe());
    let mut ids = Vec::new();

    // One batched sweep per pick replaces the m per-set kernel calls; the
    // selection rule (largest gain, ties to the smallest id) is the sweep's
    // `best()`.
    let mut sweep = BatchedSweep::new();
    while !uncovered.is_empty() && ids.len() < max_picks {
        sweep.gains(sys.store(), &uncovered);
        let Some((pick, _)) = sweep.best() else {
            break; // no set makes progress
        };
        uncovered.difference_with_ref(sys.set(pick));
        covered.union_with_ref(sys.set(pick));
        ids.push(pick);
    }
    covered.intersect_with(target);
    CoverResult { ids, covered }
}

/// The harmonic bound `H(n) = 1 + 1/2 + … + 1/n` — greedy's approximation
/// guarantee for set cover (`greedy ≤ H(max |S_i|) · opt`).
pub fn harmonic(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> SetSystem {
        // opt = 2 ({0,1,2,3} isn't a set; {0,1,2} ∪ {3,4,5}); greedy also 2.
        SetSystem::from_elements(6, &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5]])
    }

    #[test]
    fn greedy_finds_cover() {
        let r = greedy_set_cover(&demo());
        assert!(r.is_feasible());
        assert_eq!(r.size(), 2);
        assert_eq!(r.ids, vec![0, 2]);
    }

    #[test]
    fn greedy_classic_log_trap() {
        // The textbook instance where greedy pays a log factor:
        // universe {0..5}; two "row" sets of size 3 (opt = 2) and
        // column sets of sizes 4, 2 that greedy prefers.
        let sys = SetSystem::from_elements(
            6,
            &[
                vec![0, 1, 2],    // row A
                vec![3, 4, 5],    // row B
                vec![0, 1, 3, 4], // greedy bait (size 4)
                vec![2, 5],       // finisher
            ],
        );
        let r = greedy_set_cover(&sys);
        assert!(r.is_feasible());
        assert_eq!(r.ids[0], 2, "greedy takes the bait");
        assert_eq!(r.size(), 2); // bait + {2,5} still covers here
    }

    #[test]
    fn greedy_on_uncoverable_instance() {
        let sys = SetSystem::from_elements(4, &[vec![0], vec![1]]);
        let r = greedy_set_cover(&sys);
        assert!(!r.is_feasible());
        assert_eq!(r.coverage(), 2);
        assert_eq!(r.size(), 2);
    }

    #[test]
    fn greedy_ignores_empty_sets() {
        let sys = SetSystem::from_elements(3, &[vec![], vec![0, 1, 2], vec![]]);
        let r = greedy_set_cover(&sys);
        assert_eq!(r.ids, vec![1]);
    }

    #[test]
    fn max_coverage_respects_k() {
        let sys = demo();
        let r = greedy_max_coverage(&sys, 1);
        assert_eq!(r.size(), 1);
        assert_eq!(r.coverage(), 3);
        let r2 = greedy_max_coverage(&sys, 0);
        assert_eq!(r2.size(), 0);
        assert_eq!(r2.coverage(), 0);
    }

    #[test]
    fn max_coverage_is_monotone_in_k() {
        let sys = demo();
        let mut prev = 0;
        for k in 0..=4 {
            let c = greedy_max_coverage(&sys, k).coverage();
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(prev, 6);
    }

    #[test]
    fn cover_until_targets_subset() {
        let sys = demo();
        let target = BitSet::from_iter(6, [4, 5]);
        let r = greedy_cover_until(&sys, usize::MAX, &target);
        assert_eq!(r.ids, vec![2]);
        assert_eq!(r.covered.to_vec(), vec![4, 5]);
    }

    #[test]
    fn lazy_matches_eager_pick_for_pick() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let n = 1 + rng.gen_range(0usize..60);
            let m = rng.gen_range(1usize..25);
            let density = 0.05 + 0.3 * rng.gen::<f64>();
            let lists: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..n).filter(|_| rng.gen_bool(density)).collect())
                .collect();
            let sys = SetSystem::from_elements(n, &lists);
            for max_picks in [0, 1, 3, usize::MAX] {
                let target = BitSet::full(n);
                let lazy = greedy_cover_until(&sys, max_picks, &target);
                let eager = greedy_cover_until_eager(&sys, max_picks, &target);
                assert_eq!(lazy.ids, eager.ids, "trial {trial} max_picks {max_picks}");
                assert_eq!(lazy.covered, eager.covered, "trial {trial}");
            }
        }
    }

    #[test]
    fn sharded_seeding_matches_flat_for_any_worker_count() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..20 {
            let n = 1 + rng.gen_range(0usize..80);
            let m = rng.gen_range(0usize..30);
            let lists: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..n).filter(|_| rng.gen_bool(0.2)).collect())
                .collect();
            let sys = SetSystem::from_elements(n, &lists);
            let target = BitSet::full(n);
            let base = greedy_cover_until(&sys, usize::MAX, &target);
            for workers in [1, 2, 4, 8] {
                let r = greedy_cover_until_sharded(&sys, workers, usize::MAX, &target);
                assert_eq!(r.ids, base.ids, "trial {trial} workers {workers}");
                assert_eq!(r.covered, base.covered, "trial {trial}");
            }
        }
    }

    #[test]
    fn resumable_heap_prefixes_match_fresh_runs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..20 {
            let n = 1 + rng.gen_range(0usize..60);
            let m = rng.gen_range(1usize..25);
            let lists: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..n).filter(|_| rng.gen_bool(0.15)).collect())
                .collect();
            let sys = SetSystem::from_elements(n, &lists);
            let target = BitSet::full(n);
            // One heap, drained incrementally: every prefix must equal a
            // fresh greedy_cover_until run at that k (the prefix property
            // the serving layer's chain cache relies on).
            let mut heap = CelfHeap::seed(&sys, &target);
            let mut uncovered = target.clone();
            let mut picks = Vec::new();
            loop {
                if uncovered.is_empty() {
                    break;
                }
                let Some(i) = heap.next_pick(&sys, &uncovered) else {
                    break;
                };
                uncovered.difference_with_ref(sys.set(i));
                picks.push(i);
                let fresh = greedy_cover_until(&sys, picks.len(), &target);
                assert_eq!(fresh.ids, picks, "trial {trial} k={}", picks.len());
            }
            let full = greedy_cover_until(&sys, usize::MAX, &target);
            assert_eq!(full.ids, picks, "trial {trial} full drain");
        }
    }

    /// A non-committing peek is the eager argmax at every step, while the
    /// residual shrinks by picks the heap never saw — over the whole
    /// system and over shard views, with ties and zero-gain sets.
    #[test]
    fn peek_matches_eager_best_under_foreign_picks() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let mut sweep = BatchedSweep::new();
        for trial in 0..40 {
            let n = 1 + rng.gen_range(0usize..48);
            let m = rng.gen_range(1usize..30);
            // Small universes make gain ties common; empty sets and a copy
            // of set 0 add zero gains and exact ties.
            let mut lists: Vec<Vec<usize>> = (0..m)
                .map(|_| match rng.gen_range(0u32..5) {
                    0 => Vec::new(),
                    _ => (0..n).filter(|_| rng.gen_bool(0.2)).collect(),
                })
                .collect();
            lists.push(lists[0].clone());
            let sys = SetSystem::from_elements(n, &lists);
            let target = BitSet::from_iter(n, (0..n).filter(|_| rng.gen_bool(0.9)));
            let shards = sys.shards(1 + trial % 4);
            let mut whole = CelfHeap::seed(&sys, &target);
            let mut parts: Vec<CelfHeap> = shards
                .iter()
                .map(|sh| CelfHeap::seed_shard(sh, &target))
                .collect();
            let mut uncovered = target.clone();
            for step in 0.. {
                let got = whole.best(&sys, &uncovered);
                sweep.gains(sys.store(), &uncovered);
                assert_eq!(got, sweep.best(), "trial {trial} step {step}");
                for (sh, heap) in shards.iter().zip(&mut parts) {
                    sh.gains(&mut sweep, &uncovered);
                    let want = sweep.best();
                    assert_eq!(heap.shard_best(sh, &uncovered), want, "trial {trial}");
                    // A repeated peek on an unchanged residual is stable.
                    assert_eq!(heap.shard_best(sh, &uncovered), want, "trial {trial}");
                }
                let Some((i, _)) = got else { break };
                if step % 2 == 0 {
                    // Someone else's pick: a random subset the heaps never
                    // saw leaves the residual; nothing is popped.
                    for e in 0..n {
                        if rng.gen_bool(0.3) {
                            uncovered.remove(e);
                        }
                    }
                } else {
                    // The peeked winner is committed where it lives.
                    assert_eq!(whole.pop(), Some(i));
                    let o = shards.iter().position(|sh| sh.ids().contains(&i)).unwrap();
                    assert_eq!(parts[o].pop(), Some(i - shards[o].ids().start));
                    uncovered.difference_with_ref(sys.set(i));
                }
            }
        }
    }

    /// An index-style seed — every set with a positive gain, bounds
    /// inflated above the true gain, tombstoned and zero-gain ids mixed
    /// in — drains to exactly the swept greedy's picks.
    #[test]
    fn inflated_bounds_seed_picks_like_greedy() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..60 {
            let n = 1 + rng.gen_range(0usize..50);
            let m = rng.gen_range(1usize..30);
            let lists: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..n).filter(|_| rng.gen_bool(0.2)).collect())
                .collect();
            let mut sys = SetSystem::from_elements(n, &lists);
            // Bounds are taken before the removals, like a postings index
            // that keeps a removed set's ids: a stale bound ≥ true gain 0.
            let target = BitSet::from_iter(n, (0..n).filter(|_| rng.gen_bool(0.5)));
            let bounds: Vec<(SetId, usize)> = (0..m)
                .map(|i| {
                    let g = sys.set(i).intersection_len(target.as_set_ref());
                    let slack = match rng.gen_range(0u32..3) {
                        0 => 0,
                        1 => 1,
                        _ => rng.gen_range(0..n + 1),
                    };
                    (i, g + slack)
                })
                .collect();
            for i in 0..m {
                if rng.gen_bool(0.2) {
                    sys.remove_set(i);
                }
            }
            for max_picks in [0, 1, 2, usize::MAX] {
                let want = greedy_cover_until(&sys, max_picks, &target);
                let mut shuffled = bounds.clone();
                shuffled.reverse();
                let got = CelfHeap::from_bounds(shuffled).cover_until(&sys, max_picks, &target);
                assert_eq!(got, want, "trial {trial} max_picks {max_picks}");
            }
        }
    }

    #[test]
    fn harmonic_values() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        // H(n) ≈ ln n + γ
        let h = harmonic(100_000);
        let approx = (100_000f64).ln() + 0.577_215_664_9;
        assert!((h - approx).abs() < 1e-4);
    }
}

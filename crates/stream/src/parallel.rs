//! Thread-parallel execution of one stream pass.
//!
//! A [`ParallelPass`] fans a pass out over chunks of the arrival order on a
//! persistent [`Runtime`] pool — work items on long-lived pool workers
//! instead of one `std::thread::scope` spawn per pass (no external
//! dependencies; the pool is `std` only). Each worker reads sets through
//! the `Copy` view `SetRef` — borrowed data, no cloning — and owns a
//! **private [`SpaceMeter`]**; the caller's meter folds the workers in
//! with [`SpaceMeter::absorb_join`], which models their side-by-side
//! residency within one pass (peak = `max(peak, live + Σ worker peaks)`).
//!
//! Note on accounting: the engine is a *simulator* for the sequential
//! pass — it provably reproduces the sequential picks, and the measured
//! cost is the sequential algorithm's. Engine scaffolding (the candidate
//! work-queue, the per-chunk sweeps) is never metered, exactly as the
//! exact solver's inverted index and the greedy heap are not; worker
//! meters carry charges only for *model state* the pass genuinely
//! retains (the copies made by [`ParallelPass::store_pass`]). Reported
//! peaks are therefore identical to the plain sequential implementation,
//! at every worker count.
//!
//! Picks are guaranteed **identical to the sequential pass** by a
//! filter-then-refine merge:
//!
//! 1. *Filter (parallel over set-range shards)* — the arena is split into
//!    zero-copy [`StoreShard`] views ([`SetSystem::shards`]), one per
//!    worker; each worker computes, with one columnar
//!    [`BatchedSweep::gains_span`] walk of **its own contiguous arena
//!    region**, each set's gain against the **pass-start residual
//!    snapshot** and keeps the sets at or above the acceptance threshold.
//!    Gains against a shrinking residual only decrease (submodularity), so
//!    every set the sequential pass would accept is necessarily a
//!    candidate. Candidates are then ordered by arrival position — the
//!    order the sequential pass would meet them in.
//! 2. *Refine (one arrival-order loop)* — each candidate is re-evaluated
//!    once against the *evolving* residual and accepted if its gain is
//!    still at or above threshold. Sets the filter dropped would have been
//!    rejected at their turn anyway, so this loop *is* the sequential scan
//!    restricted to the candidates, and the pick sequence is identical at
//!    every fan-out width.
//!
//! Worker accounting is worker-count-invariant by construction: workers
//! only ever *charge* (monotone meters), so the sum of worker peaks is a
//! property of the pass, not of how the chunks were cut — 1, 2 or 8
//! workers report identical merged peaks. Workers are folded in with
//! [`SpaceMeter::absorb_join`]: their state coexists with the caller's
//! *current* live bits, so across successive passes the reported peak is
//! a true high-water mark (max over scopes), not a sum of every pass's
//! transients.

use crate::meter::SpaceMeter;
use crate::runtime::{ExecPolicy, Runtime};
use crate::stream::SetStream;
use streamcover_core::{
    ceil_log2, BatchedSweep, BitSet, ReprPolicy, SetId, SetRef, SetSystem, StoreShard,
};

/// A pass-execution engine dispatching a policy's fan-out onto a
/// [`Runtime`] pool.
#[derive(Clone, Copy, Debug)]
pub struct ParallelPass<'rt> {
    rt: &'rt Runtime,
    workers: usize,
}

impl<'rt> ParallelPass<'rt> {
    /// An engine with the given fan-out width (clamped to ≥ 1), executing
    /// on `rt`.
    pub fn new(rt: &'rt Runtime, workers: usize) -> Self {
        ParallelPass {
            rt,
            workers: workers.max(1),
        }
    }

    /// The engine a policy configures: the fan-out width comes from
    /// `policy`, the threads from `rt`.
    pub fn from_policy(rt: &'rt Runtime, policy: &ExecPolicy) -> Self {
        Self::new(rt, policy.workers)
    }

    /// The configured fan-out width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The runtime this engine submits to.
    pub fn runtime(&self) -> &'rt Runtime {
        self.rt
    }

    /// Runs one threshold-accept pass: any arriving set covering at least
    /// `threshold ≥ 1` still-uncovered elements of `residual` is accepted,
    /// immediately removing its elements. Calls `on_pick(id, set)` per
    /// accepted set in arrival order and returns the number of picks.
    ///
    /// Accounting: the *measured algorithm* is the sequential pass (the
    /// engine provably reproduces its picks), so the engine charges
    /// exactly what that algorithm retains — one `⌈log₂ m⌉`-bit id per
    /// accepted set, left live on `meter` for the caller to own (typically
    /// via `ChargeGuard::adopt`). The candidate work-queue is simulator
    /// scaffolding — uncharged, like the exact solver's inverted index and
    /// the sweep's gains buffer. Worker meters carry model state only in
    /// passes that genuinely retain per-arrival data ([`store_pass`]).
    ///
    /// This is the pass shape of threshold greedy (every pass), Algorithm
    /// 1's pruning pass, and online-prune's accept pass (`threshold = 1`).
    ///
    /// [`store_pass`]: Self::store_pass
    ///
    /// # Panics
    /// Panics if `threshold == 0` (a zero threshold would accept
    /// non-progressing sets and the submodular candidate filter would be
    /// vacuous) or if the residual's capacity differs from the universe.
    pub fn threshold_pass<'s>(
        &self,
        stream: &mut SetStream<'s>,
        residual: &mut BitSet,
        threshold: usize,
        meter: &SpaceMeter,
        mut on_pick: impl FnMut(SetId, SetRef<'s>),
    ) -> usize {
        assert!(threshold >= 1, "threshold-accept pass needs threshold ≥ 1");
        let _ = stream.pass(); // start (and count) the shared pass
        let sys = stream.system();
        let order = stream.order();
        let logm = u64::from(ceil_log2(sys.len().max(2)));

        // Phase 1 — parallel candidate filter against the snapshot, one
        // zero-copy arena shard per work item: each item's gains_span walk
        // reads its own contiguous descriptor (and element-arena) region.
        // The worker meters stay empty here (candidates are simulator
        // state, see above); they exist so every pass folds workers
        // uniformly.
        let shards = sys.shards(self.workers);
        let filter = |shard: &StoreShard<'_>| -> (Vec<SetId>, SpaceMeter) {
            let mut sweep = BatchedSweep::new();
            let start = shard.ids().start;
            let cands: Vec<SetId> = shard
                .gains(&mut sweep, residual)
                .iter()
                .enumerate()
                .filter(|&(_, &g)| g >= threshold)
                .map(|(j, _)| start + j)
                .collect();
            (cands, SpaceMeter::new())
        };
        let sharded: Vec<(Vec<SetId>, SpaceMeter)> = self.rt.map_parts(&shards, filter);
        meter.absorb_join(sharded.iter().map(|(_, w)| w));

        // Candidates come back in set-id order per shard; the refine phase
        // must meet them in *arrival* order, like the sequential pass.
        let mut pos = vec![0u32; sys.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p as u32;
        }
        let mut cands: Vec<SetId> = sharded.into_iter().flat_map(|(c, _)| c).collect();
        cands.sort_unstable_by_key(|&i| pos[i]);

        // Phase 2 — the sequential re-evaluation over the candidates,
        // charging each accepted pick exactly as the sequential pass would.
        let mut picks = 0usize;
        for i in cands {
            let s = sys.set(i);
            if s.intersection_len(residual.as_set_ref()) >= threshold {
                residual.difference_with_ref(s);
                meter.charge(logm);
                on_pick(i, s);
                picks += 1;
            }
        }
        picks
    }

    /// Runs one storing pass: every arriving set is copied verbatim into a
    /// per-worker arena, charged at `max(stored_bits, 1)` on the worker's
    /// meter; chunks are merged in arrival order. Returns the arrival-order
    /// id map, the stored system (positions follow the id map), and the
    /// total bits charged, which stay live on `meter` for the caller to
    /// own (typically via `ChargeGuard::adopt` of exactly that total).
    ///
    /// This is store-all's pass, and — via `domain` — Algorithm 1's
    /// projection-storing pass (`S'_i = S_i ∩ U_smpl`): with
    /// `Some((domain, cost))`, each stored set is the projection onto
    /// `domain` and is charged `cost(projection) + ⌈log₂ m⌉` (projection
    /// bits plus the retained instance id).
    pub fn store_pass<'s>(
        &self,
        stream: &mut SetStream<'s>,
        meter: &SpaceMeter,
        domain: Option<(&BitSet, crate::meter::Accounting)>,
    ) -> (Vec<SetId>, SetSystem, u64) {
        let _ = stream.pass(); // start (and count) the shared pass
        let sys = stream.system();
        let order = stream.order();
        let n = sys.universe();
        let logm = u64::from(ceil_log2(sys.len().max(2)));

        let store_chunk = |ids: &[SetId]| -> (Vec<SetId>, SetSystem, SpaceMeter) {
            let worker_meter = SpaceMeter::new();
            let mut stored = SetSystem::new(n);
            for &i in ids {
                match domain {
                    None => {
                        let s = sys.set(i);
                        stored.push_ref(s);
                        worker_meter.charge(s.stored_bits().max(1));
                    }
                    Some((dom, accounting)) => {
                        let j = stored.push_sorted(&sys.set(i).intersection_elems(dom));
                        worker_meter.charge(accounting.bits_for(stored.set(j)) + logm);
                    }
                }
            }
            (ids.to_vec(), stored, worker_meter)
        };
        let chunked = self.run_chunks(order, store_chunk);

        // The charged total is derived once, here, from the same worker
        // meters whose bits transfer to the caller — callers adopt this
        // figure instead of re-deriving it.
        let charged: u64 = chunked.iter().map(|(_, _, w)| w.live_bits()).sum();
        meter.absorb_join(chunked.iter().map(|(_, _, w)| w));
        // Single chunk (workers=1, or a short order): the worker's system
        // already *is* the merged result — move it out instead of copying.
        if chunked.len() == 1 {
            let (ids, stored, _) = chunked.into_iter().next().expect("one chunk");
            return (ids, stored, charged);
        }
        // Multi-chunk merge: chunks follow arrival order, so concatenating
        // the worker arenas *is* the arrival order, representations
        // preserved verbatim.
        let arrival_ids: Vec<SetId> = chunked
            .iter()
            .flat_map(|(ids, _, _)| ids.iter().copied())
            .collect();
        let stores = chunked.iter().map(|(_, s, _)| s.store());
        let stored = SetSystem::from_shard_stores(n, ReprPolicy::Auto, stores);
        (arrival_ids, stored, charged)
    }

    /// Fans `work` out over contiguous chunks of `order` as runtime work
    /// items, returning results in chunk (= arrival) order. With one worker
    /// (or a tiny order) the work runs inline — same code path, no
    /// submission.
    fn run_chunks<T: Send, U: Send>(
        &self,
        order: &[SetId],
        work: impl Fn(&[SetId]) -> (Vec<SetId>, U, T) + Sync,
    ) -> Vec<(Vec<SetId>, U, T)> {
        let workers = self.workers.min(order.len()).max(1);
        if workers == 1 {
            return vec![work(order)];
        }
        let chunk_len = order.len().div_ceil(workers).max(1);
        let chunks: Vec<&[SetId]> = order.chunks(chunk_len).collect();
        self.rt.map_parts(&chunks, |chunk| work(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Arrival;
    use streamcover_core::ReprPolicy;

    fn sys() -> SetSystem {
        SetSystem::from_elements(
            8,
            &[
                vec![0, 1, 2, 3],
                vec![2, 3],
                vec![3, 4, 5, 6],
                vec![6, 7],
                vec![],
                vec![0, 7],
            ],
        )
    }

    /// The plain sequential threshold loop every engine run must match.
    fn sequential_reference(
        sys: &SetSystem,
        arrival: Arrival,
        threshold: usize,
    ) -> (Vec<SetId>, BitSet) {
        let mut stream = SetStream::new(sys, arrival);
        let mut residual = BitSet::full(sys.universe());
        let mut picks = Vec::new();
        for (i, s) in stream.pass() {
            if s.intersection_len(residual.as_set_ref()) >= threshold {
                residual.difference_with_ref(s);
                picks.push(i);
            }
        }
        (picks, residual)
    }

    /// Runs the engine at worker counts 1–8 over every threshold/arrival
    /// combination on `s` and asserts picks, residual and peak space match
    /// the sequential loop.
    fn assert_matches_sequential_for_any_worker_count(s: &SetSystem) {
        // One pool, reused across every configuration: fan-out width varies
        // per engine while the runtime stays warm.
        let rt = Runtime::new(4);
        for threshold in [1, 2, 3, 5] {
            for arrival in [Arrival::Adversarial, Arrival::Random { seed: 3 }] {
                let (expect_picks, expect_residual) = sequential_reference(s, arrival, threshold);
                let mut peaks = Vec::new();
                for workers in [1, 2, 3, 4, 8] {
                    let mut stream = SetStream::new(s, arrival);
                    let mut residual = BitSet::full(s.universe());
                    let meter = SpaceMeter::new();
                    let mut picks = Vec::new();
                    let n_picks = ParallelPass::new(&rt, workers).threshold_pass(
                        &mut stream,
                        &mut residual,
                        threshold,
                        &meter,
                        |i, _| picks.push(i),
                    );
                    let n = s.universe();
                    assert_eq!(picks, expect_picks, "n={n} w={workers} τ={threshold}");
                    assert_eq!(n_picks, picks.len());
                    assert_eq!(residual, expect_residual);
                    assert_eq!(stream.passes_made(), 1, "one shared pass");
                    peaks.push(meter.peak_bits());
                }
                assert!(
                    peaks.windows(2).all(|w| w[0] == w[1]),
                    "merged peaks must not depend on worker count: {peaks:?}"
                );
            }
        }
    }

    #[test]
    fn threshold_pass_matches_sequential_for_any_worker_count() {
        assert_matches_sequential_for_any_worker_count(&sys());
    }

    #[test]
    fn block_refine_handles_non_dividing_word_counts() {
        // Regression, named for the universe-block refine it first caught:
        // a residual of 9 words (n = 576) split over 8 workers once
        // ceil-chunked into an inverted window and panicked. The refine is
        // now one arrival-order loop, but a 9-word residual under 4 and 8
        // workers must still reproduce the sequential picks; at τ=1 the
        // filter keeps every one of the 4096 sets as a candidate.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = streamcover_dist::planted_cover(&mut rng, 576, 4096, 16);
        assert_matches_sequential_for_any_worker_count(&w.system);
    }

    #[test]
    fn threshold_pass_leaves_only_pick_ids_live() {
        let s = sys();
        let logm = u64::from(ceil_log2(s.len().max(2)));
        let mut stream = SetStream::new(&s, Arrival::Adversarial);
        let mut residual = BitSet::full(8);
        let meter = SpaceMeter::new();
        let rt = Runtime::new(2);
        let picks = ParallelPass::new(&rt, 4).threshold_pass(
            &mut stream,
            &mut residual,
            2,
            &meter,
            |_, _| {},
        );
        assert_eq!(meter.live_bits(), picks as u64 * logm);
    }

    #[test]
    fn store_pass_preserves_arrival_order_and_total_charge() {
        let s = sys();
        let expect: u64 = s.iter().map(|(_, r)| r.stored_bits().max(1)).sum();
        let rt = Runtime::new(3);
        for workers in [1, 2, 8] {
            let mut stream = SetStream::new(&s, Arrival::Random { seed: 7 });
            let meter = SpaceMeter::new();
            let (ids, stored, charged) =
                ParallelPass::new(&rt, workers).store_pass(&mut stream, &meter, None);
            assert_eq!(ids, stream.order(), "w={workers}");
            for (pos, &i) in ids.iter().enumerate() {
                assert_eq!(stored.set(pos), s.set(i));
            }
            assert_eq!(meter.peak_bits(), expect, "w={workers}");
            assert_eq!(charged, expect, "charged total is derived once");
            assert_eq!(stream.passes_made(), 1);
        }
    }

    #[test]
    fn store_pass_projects_onto_domain() {
        let mut s = SetSystem::with_policy(8, ReprPolicy::ForceSparse);
        s.push_elems([0usize, 1, 2]);
        s.push_elems([2usize, 3, 4]);
        s.push_elems([5usize]);
        let dom = BitSet::from_iter(8, [2, 3]);
        let mut stream = SetStream::new(&s, Arrival::Adversarial);
        let meter = SpaceMeter::new();
        let rt = Runtime::new(2);
        let (_, stored, _) = ParallelPass::new(&rt, 2).store_pass(
            &mut stream,
            &meter,
            Some((&dom, crate::meter::Accounting::ActualRepr)),
        );
        assert_eq!(stored.set(0).to_vec(), vec![2]);
        assert_eq!(stored.set(1).to_vec(), vec![2, 3]);
        assert!(stored.set(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold ≥ 1")]
    fn zero_threshold_panics() {
        let s = sys();
        let mut stream = SetStream::new(&s, Arrival::Adversarial);
        let meter = SpaceMeter::new();
        let rt = Runtime::new(2);
        ParallelPass::new(&rt, 2).threshold_pass(
            &mut stream,
            &mut BitSet::full(8),
            0,
            &meter,
            |_, _| {},
        );
    }
}

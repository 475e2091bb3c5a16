//! Set systems: an indexed collection of subsets of a shared universe `[n]`,
//! backed by the hybrid sparse/dense arena of [`crate::store`].

use crate::bitset::BitSet;
use crate::shard::{split_ranges, StoreShard};
use crate::store::{CompactionMap, ReprPolicy, SetRef, SetStore};
use std::fmt;

/// Identifier of a set within a [`SetSystem`] (its stream position).
pub type SetId = usize;

/// A collection `S_1, …, S_m` of subsets of the universe `[n]`.
///
/// This is the static, offline representation of an instance; streaming
/// algorithms consume it through the `streamcover-stream` substrate which
/// controls arrival order and pass counting.
///
/// Storage lives in a contiguous CSR-style [`SetStore`]: each set is kept
/// either as a sorted `u32` element list or as a word-packed bitmap,
/// selected per set by the system's [`ReprPolicy`] (the default `Auto`
/// cutover picks whichever is cheaper under the paper's bit accounting).
/// Reads go through the `Copy` view type [`SetRef`].
#[derive(Clone)]
pub struct SetSystem {
    store: SetStore,
    /// Mutation version, bumped by every mutating call on this instance
    /// (see [`epoch`](Self::epoch)).
    epoch: u64,
}

impl SetSystem {
    /// Creates an empty system over `[universe]` with the automatic
    /// sparse/dense cutover.
    pub fn new(universe: usize) -> Self {
        SetSystem {
            store: SetStore::new(universe),
            epoch: 0,
        }
    }

    /// Creates an empty system with an explicit representation policy.
    pub fn with_policy(universe: usize, policy: ReprPolicy) -> Self {
        SetSystem {
            store: SetStore::with_policy(universe, policy),
            epoch: 0,
        }
    }

    /// Creates a system from pre-built sets.
    ///
    /// # Panics
    /// Panics if any set's capacity differs from `universe`.
    pub fn from_sets(universe: usize, sets: Vec<BitSet>) -> Self {
        let mut sys = SetSystem::new(universe);
        for s in &sets {
            sys.store.push_bitset(s);
        }
        sys
    }

    /// Creates a system from element lists.
    pub fn from_elements(universe: usize, lists: &[Vec<usize>]) -> Self {
        let mut sys = SetSystem::new(universe);
        for l in lists {
            sys.store.push_elems(l.iter().copied());
        }
        sys
    }

    /// Appends a set, returning its id.
    pub fn push(&mut self, set: BitSet) -> SetId {
        self.epoch += 1;
        self.store.push_bitset(&set)
    }

    /// Appends a set given as a strictly increasing element list — the
    /// zero-copy emitter path for the `dist` generators.
    ///
    /// # Panics
    /// Panics if any element is `>= universe` or the list is not strictly
    /// increasing.
    pub fn push_sorted(&mut self, elems: &[u32]) -> SetId {
        self.epoch += 1;
        self.store.push_sorted(elems)
    }

    /// Appends a set given as sorted disjoint `(start, len)` runs — the
    /// run-native emitter path for huge-universe catalogs (no per-element
    /// list is ever materialized; see [`SetStore::push_runs`]).
    ///
    /// # Panics
    /// Panics if runs are empty, unsorted, overlapping, or out of universe.
    pub fn push_runs(&mut self, runs: &[(u32, u32)]) -> SetId {
        self.epoch += 1;
        self.store.push_runs(runs)
    }

    /// Appends a set from an arbitrary element iterator (sorted and
    /// deduplicated internally).
    pub fn push_elems(&mut self, elems: impl IntoIterator<Item = usize>) -> SetId {
        self.epoch += 1;
        self.store.push_elems(elems)
    }

    /// Appends a copy of an existing view, preserving its representation
    /// (cheap cross-system clone).
    pub fn push_ref(&mut self, set: SetRef<'_>) -> SetId {
        self.epoch += 1;
        self.store.push_ref(set)
    }

    /// The mutation epoch: a version counter bumped by every mutating call
    /// on this instance (`push*`, [`add_set`](Self::add_set),
    /// [`remove_set`](Self::remove_set)). The serving layer keys its
    /// solution caches on `(epoch, query)` so any mutation invalidates
    /// every cached answer.
    ///
    /// The counter orders mutations on *one* instance — it is not a
    /// content hash: clones carry their source's epoch forward, while
    /// construction helpers (`from_elements`, `project`, `subsystem`,
    /// `from_shard_stores`, …) build at epoch 0. Equality
    /// ([`PartialEq`]) ignores it.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends a set given as a strictly increasing element list — the
    /// resident-system mutation seam the serving layer's `add_set` request
    /// commits through. Identical to [`push_sorted`](Self::push_sorted)
    /// (including the epoch bump); the alias names the live-mutation
    /// intent.
    ///
    /// # Panics
    /// Panics if any element is `>= universe` or the list is not strictly
    /// increasing.
    pub fn add_set(&mut self, elems: &[u32]) -> SetId {
        self.push_sorted(elems)
    }

    /// Tombstones the set with id `id`: its descriptor becomes the empty
    /// set (ids of all other sets unchanged, arena bytes left in place —
    /// see [`SetStore::remove`]), and the [`epoch`](Self::epoch) is
    /// bumped. Solvers never pick an empty set, so a fresh run against
    /// the mutated system behaves as if the set was never inserted except
    /// for id numbering. Idempotent per call (each call still bumps the
    /// epoch).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn remove_set(&mut self, id: SetId) {
        self.epoch += 1;
        self.store.remove(id);
    }

    /// Rebuilds the backing arenas dropping every tombstoned slot
    /// ([`SetStore::compact`]) and bumps the [`epoch`](Self::epoch) — ids
    /// change, so every cached answer keyed on the old epoch is dead. The
    /// returned [`CompactionMap`] translates old ids to new ids; live sets
    /// keep their relative order and representation, so a tombstone-free
    /// system compacts to an identical system (`is_identity` map) and
    /// answers computed after compaction equal answers computed before,
    /// modulo the remap.
    pub fn compact(&mut self) -> CompactionMap {
        self.epoch += 1;
        self.store.compact()
    }

    /// Paper-accounting bits still occupied by tombstoned slots' arena
    /// bytes (0 right after [`compact`](Self::compact)).
    pub fn tombstone_bits(&self) -> u64 {
        self.store.tombstone_bits()
    }

    /// Number of tombstoned slots.
    pub fn num_tombstones(&self) -> usize {
        self.store.num_tombstones()
    }

    /// Fraction of stored bits belonging to live sets — the garbage gauge
    /// a serving-layer `CompactionPolicy` watches (see
    /// [`SetStore::live_ratio`]).
    pub fn live_ratio(&self) -> f64 {
        self.store.live_ratio()
    }

    /// Universe size `n`.
    #[inline]
    pub fn universe(&self) -> usize {
        self.store.universe()
    }

    /// Number of sets `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the system holds no sets.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The set with id `i`.
    #[inline]
    pub fn set(&self, i: SetId) -> SetRef<'_> {
        self.store.get(i)
    }

    /// Iterates `(id, set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SetId, SetRef<'_>)> {
        (0..self.store.len()).map(|i| (i, self.store.get(i)))
    }

    /// The backing arena (diagnostics, benchmarking).
    pub fn store(&self) -> &SetStore {
        &self.store
    }

    /// `[sparse, dense, chunked, elias_fano]` counts of stored
    /// representations.
    pub fn repr_counts(&self) -> [usize; 4] {
        self.store.repr_counts()
    }

    /// Sum over sets of the bits the actual representation costs under the
    /// paper's accounting (`|S|·⌈log₂ n⌉` sparse, `n` dense, measured
    /// encoded size for the compressed backends).
    pub fn stored_bits(&self) -> u64 {
        self.store.stored_bits()
    }

    /// Union of the sets with the given ids.
    pub fn coverage(&self, ids: &[SetId]) -> BitSet {
        let mut c = BitSet::new(self.universe());
        for &i in ids {
            c.union_with_ref(self.store.get(i));
        }
        c
    }

    /// `|⋃_{i∈ids} S_i|`, the objective of maximum coverage.
    pub fn coverage_len(&self, ids: &[SetId]) -> usize {
        self.coverage(ids).len()
    }

    /// Whether the given ids form a feasible set cover of `[n]`.
    pub fn is_cover(&self, ids: &[SetId]) -> bool {
        self.coverage(ids).is_full()
    }

    /// Whether the instance admits *any* cover (i.e. `⋃_i S_i = [n]`).
    pub fn is_coverable(&self) -> bool {
        let all: Vec<SetId> = (0..self.len()).collect();
        self.is_cover(&all)
    }

    /// Elements of `[n]` not covered by any set.
    pub fn uncoverable_elements(&self) -> BitSet {
        let all: Vec<SetId> = (0..self.len()).collect();
        self.coverage(&all).complement()
    }

    /// Restricts every set to `domain`, producing the projected system used
    /// by element sampling (`S'_i = S_i ∩ U_smpl`, Algorithm 1 step 3b).
    ///
    /// The projected sets keep the original universe capacity so ids and
    /// element labels stay stable; only membership outside `domain` is
    /// dropped. Projections are re-homed by the policy's cutover, so a
    /// dense set projected onto a thin sample lands in the sparse backend.
    pub fn project(&self, domain: &BitSet) -> SetSystem {
        let mut out = SetSystem::with_policy(self.universe(), self.store.policy());
        for (_, s) in self.iter() {
            out.store.push_sorted(&s.intersection_elems(domain));
        }
        out
    }

    /// The subsystem holding copies of the sets with the given ids, in the
    /// given order (ids are re-numbered from 0).
    pub fn subsystem(&self, ids: impl IntoIterator<Item = SetId>) -> SetSystem {
        let mut out = SetSystem::with_policy(self.universe(), self.store.policy());
        for i in ids {
            out.store.push_ref(self.store.get(i));
        }
        out
    }

    /// Total number of (set, element) incidences, `Σ|S_i|` — the input size
    /// `O(mn)` that streaming algorithms must be sublinear in.
    pub fn total_incidences(&self) -> usize {
        self.store.total_incidences()
    }

    /// Wraps an already-built arena (the inverse of
    /// [`into_store`](Self::into_store)).
    pub fn from_store(store: SetStore) -> SetSystem {
        SetSystem { store, epoch: 0 }
    }

    /// Unwraps the backing arena, consuming the system.
    pub fn into_store(self) -> SetStore {
        self.store
    }

    /// Concatenates arenas built by parallel workers into one flat system
    /// under `policy`: the sets of `stores[0]` first, then `stores[1]`, and
    /// so on, each copied with its representation verbatim (a tombstoned
    /// slot arrives as the empty set it reads as). The merge seam of
    /// `ParallelPass::store_pass` and the windowed turnstile snapshot.
    ///
    /// # Panics
    /// Panics if any store's universe differs from `universe`.
    pub fn from_shard_stores<'a>(
        universe: usize,
        policy: ReprPolicy,
        stores: impl IntoIterator<Item = &'a SetStore>,
    ) -> SetSystem {
        let mut out = SetSystem::with_policy(universe, policy);
        for s in stores {
            assert_eq!(
                s.universe(),
                universe,
                "shard universe mismatch: {} vs {universe}",
                s.universe()
            );
            for i in 0..s.len() {
                out.store.push_ref(s.get(i));
            }
        }
        out
    }

    /// Zero-copy shard views: `shards` contiguous near-equal set-id ranges
    /// over the single flat arena (clamped to `[1, m]`, with at least one
    /// view even when empty). Each [`StoreShard`] walks only its own
    /// descriptor span, so parallel consumers — `ParallelPass` chunk
    /// workers, parallel greedy seeding, distributed owners — iterate
    /// their own arena region instead of striding a shared one.
    pub fn shards(&self, shards: usize) -> Vec<StoreShard<'_>> {
        let k = shards.clamp(1, self.len().max(1));
        split_ranges(self.len(), k)
            .into_iter()
            .map(|r| StoreShard::new(&self.store, r))
            .collect()
    }
}

impl PartialEq for SetSystem {
    /// Semantic equality: same universe and the same sequence of sets,
    /// regardless of each set's representation.
    fn eq(&self, other: &Self) -> bool {
        self.universe() == other.universe()
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.set(i) == other.set(i))
    }
}

impl Eq for SetSystem {}

impl fmt::Debug for SetSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [sp, de, ch, ef] = self.repr_counts();
        write!(
            f,
            "SetSystem{{n={}, m={}, sparse={sp}, dense={de}, chunked={ch}, ef={ef}}}",
            self.universe(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SetRepr;

    fn demo() -> SetSystem {
        SetSystem::from_elements(
            6,
            &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5], vec![]],
        )
    }

    #[test]
    fn epoch_counts_mutations() {
        let mut s = demo();
        assert_eq!(s.epoch(), 0, "construction helpers build at epoch 0");
        let id = s.add_set(&[1, 4]);
        assert_eq!(id, 5);
        assert_eq!(s.epoch(), 1);
        s.push_elems([0usize, 2]);
        assert_eq!(s.epoch(), 2);
        s.push(crate::bitset::BitSet::from_iter(6, [3usize]));
        assert_eq!(s.epoch(), 3);
        s.remove_set(id);
        assert_eq!(s.epoch(), 4);
        // Clones carry the epoch forward; equality ignores it.
        let c = s.clone();
        assert_eq!(c.epoch(), 4);
        let fresh = SetSystem::from_elements(6, &[vec![0]]);
        let mut fresh2 = SetSystem::new(6);
        fresh2.push_sorted(&[0]);
        assert_eq!(fresh, fresh2, "PartialEq ignores the epoch");
        assert_ne!(fresh.epoch(), fresh2.epoch());
    }

    #[test]
    fn remove_set_tombstones_in_place() {
        let mut s = demo();
        let m = s.len();
        s.remove_set(1);
        assert_eq!(s.len(), m, "ids of other sets are unchanged");
        assert_eq!(s.set(1).len(), 0, "removed set reads as empty");
        assert_eq!(s.set(0).to_vec(), vec![0, 1, 2], "neighbors untouched");
        assert_eq!(s.set(2).to_vec(), vec![3, 4, 5]);
        // Idempotent; a later add still appends at the end.
        s.remove_set(1);
        assert_eq!(s.set(1).len(), 0);
        let id = s.add_set(&[2, 3]);
        assert_eq!(id, m);
        assert_eq!(s.set(id).to_vec(), vec![2, 3]);
    }

    #[test]
    fn compact_drops_tombstones_and_remaps() {
        let mut s = demo();
        let before_bits = s.stored_bits();
        s.remove_set(1);
        s.remove_set(4); // the genuinely empty set — charges 0 but drops
        assert_eq!(s.stored_bits(), before_bits, "tombstones stay charged");
        assert_eq!(s.num_tombstones(), 2);
        assert!(s.live_ratio() < 1.0);
        let epoch = s.epoch();
        let map = s.compact();
        assert_eq!(s.epoch(), epoch + 1, "compaction is a mutation");
        assert_eq!(s.len(), 3);
        assert_eq!(s.tombstone_bits(), 0);
        assert_eq!(s.num_tombstones(), 0);
        assert_eq!(s.live_ratio(), 1.0);
        // Survivors keep relative order; answers translate through the map.
        assert_eq!(map.remap_ids(&[0, 2, 3]), vec![0, 1, 2]);
        assert_eq!(s.set(0).to_vec(), vec![0, 1, 2]);
        assert_eq!(s.set(1).to_vec(), vec![3, 4, 5]);
        assert_eq!(s.set(2).to_vec(), vec![0, 5]);
        assert!(s.is_cover(&map.remap_ids(&[0, 2])));
    }

    #[test]
    fn compact_without_tombstones_is_semantic_noop() {
        let mut s = demo();
        let orig = s.clone();
        let map = s.compact();
        assert!(map.is_identity());
        assert_eq!(s, orig);
        assert_eq!(s.epoch(), orig.epoch() + 1, "the epoch still bumps");
    }

    #[test]
    fn basic_accessors() {
        let s = demo();
        assert_eq!(s.universe(), 6);
        assert_eq!(s.len(), 5);
        assert_eq!(s.set(1).to_vec(), vec![2, 3]);
        assert_eq!(s.total_incidences(), 3 + 2 + 3 + 2);
    }

    #[test]
    fn coverage_and_feasibility() {
        let s = demo();
        assert_eq!(s.coverage_len(&[0, 1]), 4);
        assert!(s.is_cover(&[0, 2]));
        assert!(!s.is_cover(&[0, 1]));
        assert!(s.is_cover(&[0, 1, 2, 3, 4]));
        assert!(s.is_coverable());
    }

    #[test]
    fn duplicate_ids_in_cover_are_harmless() {
        let s = demo();
        assert!(s.is_cover(&[0, 2, 2, 0]));
        assert_eq!(s.coverage_len(&[1, 1, 1]), 2);
    }

    #[test]
    fn uncoverable_detection() {
        let s = SetSystem::from_elements(4, &[vec![0], vec![1]]);
        assert!(!s.is_coverable());
        assert_eq!(s.uncoverable_elements().to_vec(), vec![2, 3]);
    }

    #[test]
    fn empty_system() {
        let s = SetSystem::new(3);
        assert!(s.is_empty());
        assert!(!s.is_coverable());
        assert!(!s.is_cover(&[]));
        let s0 = SetSystem::new(0);
        // Zero universe: the empty collection vacuously covers.
        assert!(s0.is_cover(&[]));
    }

    #[test]
    fn projection_keeps_universe() {
        let s = demo();
        let dom = BitSet::from_iter(6, [2, 3]);
        let p = s.project(&dom);
        assert_eq!(p.universe(), 6);
        assert_eq!(p.set(0).to_vec(), vec![2]);
        assert_eq!(p.set(1).to_vec(), vec![2, 3]);
        assert_eq!(p.set(3).to_vec(), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_set_panics() {
        SetSystem::from_sets(5, vec![BitSet::new(6)]);
    }

    #[test]
    fn policy_controls_representation() {
        let lists = vec![vec![0usize, 1, 2], (0..60).collect::<Vec<usize>>()];
        let mut auto = SetSystem::new(64);
        let mut sparse = SetSystem::with_policy(64, ReprPolicy::ForceSparse);
        for l in &lists {
            auto.push_elems(l.iter().copied());
            sparse.push_elems(l.iter().copied());
        }
        // Auto: ⌈log₂ 64⌉ = 6 ⇒ size-3 set sparse (18 ≤ 64), size-60 dense.
        assert_eq!(auto.set(0).repr(), SetRepr::Sparse);
        assert_eq!(auto.set(1).repr(), SetRepr::Dense);
        assert_eq!(sparse.repr_counts(), [2, 0, 0, 0]);
        // Semantic equality holds across policies.
        assert_eq!(auto, sparse);
    }

    #[test]
    fn subsystem_selects_and_renumbers() {
        let s = demo();
        let sub = s.subsystem([2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.set(0), s.set(2));
        assert_eq!(sub.set(1), s.set(0));
    }

    #[test]
    fn shards_view_is_a_partition() {
        let s = demo();
        let shards = s.shards(2);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].ids(), 0..3);
        assert_eq!(shards[1].ids(), 3..5);
        assert_eq!(shards[1].get(0), s.set(3));
        // Clamped to m, and the empty system still yields one view.
        assert_eq!(s.shards(99).len(), 5);
        assert_eq!(SetSystem::new(4).shards(3).len(), 1);
    }

    #[test]
    fn sharded_round_trip_both_plans() {
        let s = demo();
        // Set ranges: private arenas copied from the shard views merge
        // back through `from_shard_stores`.
        let stores: Vec<SetStore> = s
            .shards(2)
            .iter()
            .map(|sh| s.subsystem(sh.ids()).into_store())
            .collect();
        assert_eq!(stores.iter().map(SetStore::len).sum::<usize>(), s.len());
        let back = SetSystem::from_shard_stores(s.universe(), s.store().policy(), &stores);
        assert_eq!(back, s, "set-range round-trip");
        // Universe blocks: projections onto the block domains concatenate,
        // in block order, to each set.
        let blocks: Vec<SetSystem> = split_ranges(s.universe(), 3)
            .into_iter()
            .map(|b| s.project(&BitSet::from_iter(s.universe(), b)))
            .collect();
        let lists: Vec<Vec<usize>> = (0..s.len())
            .map(|i| blocks.iter().flat_map(|p| p.set(i).iter()).collect())
            .collect();
        let back = SetSystem::from_elements(s.universe(), &lists);
        assert_eq!(back, s, "universe-block round-trip");
    }

    #[test]
    fn into_store_from_store_round_trip() {
        let s = demo();
        let back = SetSystem::from_store(s.clone().into_store());
        assert_eq!(back, s);
    }

    #[test]
    fn clone_is_deep_and_semantic_eq() {
        let s = demo();
        let mut c = s.clone();
        assert_eq!(s, c);
        c.push_elems([0usize]);
        assert_ne!(s, c);
        assert_eq!(s.len() + 1, c.len());
    }
}

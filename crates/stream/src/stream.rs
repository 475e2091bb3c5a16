//! The set-streaming model: sets arrive one at a time; algorithms may make
//! several passes; the substrate counts them.
//!
//! A [`SetStream`] wraps a [`SetSystem`] with an arrival order. Data is only
//! reachable through [`SetStream::pass`], which increments the pass counter
//! — a reported pass count therefore cannot lie. Random-arrival streams fix
//! one uniform permutation for the whole run (the model of Theorem 1);
//! an optional mode reshuffles between passes for ablations.
//!
//! The paper's model is insertion-only; the serving north-star is not. A
//! [`TurnstileStream`] ingests a sequence of [`Update`]s — inserts *and*
//! deletes — either into an unbounded resident system (deletes tombstone,
//! [`TurnstileStream::compact`] reclaims), or in sliding-window mode
//! ([`TurnstileStream::windowed`]) where only the last `w` arrivals are
//! live and storage is a ring of per-bucket arenas: a bucket whose every
//! arrival has left the window is dropped *whole*, reclaiming its arena in
//! O(1) without renumbering anything still live. [`Arrival::Window`] is
//! the static-instance counterpart for replaying a window against the
//! existing solvers.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use streamcover_core::{CompactionMap, ReprPolicy, SetId, SetRef, SetStore, SetSystem};

/// Arrival order of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Sets arrive in instance order (worst case / adversary-chosen).
    Adversarial,
    /// Sets arrive in a uniformly random order fixed once per run,
    /// derived from the given seed.
    Random {
        /// Seed of the arrival permutation.
        seed: u64,
    },
    /// A fresh uniform order every pass (not a model in the paper; used by
    /// the arrival-order ablation E9).
    ReshuffledEachPass {
        /// Seed of the per-pass permutations.
        seed: u64,
    },
    /// Sliding window: only the **last `w` sets** of the instance arrive,
    /// in instance order — the stream a windowed turnstile ingest exposes
    /// to the solvers once the older arrivals have expired (see
    /// [`TurnstileStream::windowed`]). With `w ≥ m` this is
    /// [`Arrival::Adversarial`].
    Window {
        /// Window length in arrivals.
        w: usize,
    },
}

impl Arrival {
    /// Materializes the first-pass order for `m` sets.
    pub fn initial_order(self, m: usize) -> Vec<SetId> {
        let mut order: Vec<SetId> = (0..m).collect();
        match self {
            Arrival::Adversarial => {}
            Arrival::Random { seed } | Arrival::ReshuffledEachPass { seed } => {
                order.shuffle(&mut StdRng::seed_from_u64(seed));
            }
            Arrival::Window { w } => {
                order.drain(..m.saturating_sub(w));
            }
        }
        order
    }
}

/// A multi-pass stream over a set system.
pub struct SetStream<'a> {
    sys: &'a SetSystem,
    order: Vec<SetId>,
    passes: usize,
    reshuffler: Option<StdRng>,
}

impl<'a> SetStream<'a> {
    /// Creates a stream with the given arrival order.
    pub fn new(sys: &'a SetSystem, arrival: Arrival) -> Self {
        let order = arrival.initial_order(sys.len());
        let reshuffler = match arrival {
            Arrival::ReshuffledEachPass { seed } => Some(StdRng::seed_from_u64(seed ^ 0x5eed)),
            _ => None,
        };
        SetStream {
            sys,
            order,
            passes: 0,
            reshuffler,
        }
    }

    /// Universe size `n` (known to algorithms up front, as is standard).
    pub fn universe(&self) -> usize {
        self.sys.universe()
    }

    /// Number of sets `m` (also known up front).
    pub fn num_sets(&self) -> usize {
        self.sys.len()
    }

    /// Starts the next pass, yielding `(id, set)` in arrival order. The id
    /// is the set's identity in the underlying instance, so solutions are
    /// stated in instance coordinates regardless of arrival order.
    pub fn pass(&mut self) -> Pass<'_> {
        self.passes += 1;
        if let Some(rng) = &mut self.reshuffler {
            self.order.shuffle(rng);
        }
        Pass {
            sys: self.sys,
            order: &self.order,
            pos: 0,
        }
    }

    /// Number of passes started so far.
    pub fn passes_made(&self) -> usize {
        self.passes
    }

    /// The underlying instance, at the stream's own lifetime — this is what
    /// lets [`crate::parallel::ParallelPass`] workers read sets side by
    /// side during one shared pass (the borrow is not tied to `&self`, so
    /// it coexists with the arrival-order borrow). Crate-private on
    /// purpose: data must stay reachable only through [`SetStream::pass`]
    /// so a reported pass count cannot lie; the engine calls `pass()`
    /// exactly once per fan-out.
    pub(crate) fn system(&self) -> &'a SetSystem {
        self.sys
    }

    /// The current arrival permutation (exposed for tests/diagnostics).
    pub fn order(&self) -> &[SetId] {
        &self.order
    }
}

/// Iterator over one pass of the stream.
pub struct Pass<'a> {
    sys: &'a SetSystem,
    order: &'a [SetId],
    pos: usize,
}

impl<'a> Iterator for Pass<'a> {
    type Item = (SetId, SetRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let &id = self.order.get(self.pos)?;
        self.pos += 1;
        Some((id, self.sys.set(id)))
    }
}

impl ExactSizeIterator for Pass<'_> {
    fn len(&self) -> usize {
        self.order.len() - self.pos
    }
}

/// Draws a per-run seed from an `rng`, for building `Arrival::Random` values
/// inside randomized harnesses.
pub fn random_arrival<R: Rng + ?Sized>(rng: &mut R) -> Arrival {
    Arrival::Random { seed: rng.gen() }
}

/// One event of a turnstile stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Update {
    /// A set arrives, given as a strictly increasing element list. Its id
    /// is its arrival sequence number (0-based).
    Insert(Vec<u32>),
    /// A previously arrived set is retracted by id.
    Delete(SetId),
}

/// One window bucket: a private arena holding `bucket_cap` consecutive
/// arrivals starting at arrival number `base`.
struct Bucket {
    base: usize,
    store: SetStore,
}

enum Mode {
    /// Every arrival stays resident; deletes tombstone
    /// ([`SetSystem::remove_set`]) and [`TurnstileStream::compact`]
    /// reclaims.
    Unbounded { sys: SetSystem },
    /// Only the last `w` arrivals are live. Storage is a deque of
    /// fixed-capacity bucket arenas; a fully expired bucket is dropped
    /// whole, a partially expired head bucket tombstones its expired slots
    /// until it too falls off.
    Windowed {
        w: usize,
        bucket_cap: usize,
        buckets: VecDeque<Bucket>,
    },
}

/// A deletion-aware ingest path: the turnstile analogue of [`SetStream`].
///
/// Feed it [`Update`]s with [`apply`](Self::apply). Each `Insert` gets the
/// next arrival number as its id; `Delete(id)` retracts that arrival. Two
/// modes:
///
/// * **Unbounded** ([`new`](Self::new)): updates mutate a resident
///   [`SetSystem`] in place. Deletes tombstone — the slot reads as empty
///   but its arena bytes stay charged ([`stored_bits`](Self::stored_bits))
///   until [`compact`](Self::compact) rebuilds the arenas and renumbers
///   the survivors through a [`CompactionMap`]. An insertion-only update
///   sequence builds a system *byte-identical* to pushing the same lists
///   into a fresh [`SetSystem`] — so streaming reports over
///   [`system`](Self::system) reproduce the insertion-only model exactly
///   (the standing invariant `tests/turnstile_compaction.rs` pins).
/// * **Windowed** ([`windowed`](Self::windowed)): only the last `w`
///   arrivals are live. Arrivals append to per-bucket arenas of
///   `⌈w/8⌉` slots each; when every arrival of the head bucket has left
///   the window the *whole bucket* is dropped — O(1) arena reclamation —
///   while a partially expired head tombstones its dead slots, which stay
///   honestly charged until the drop. Retained arrivals never exceed
///   `w + bucket_cap`.
///
/// The accounting story in both modes is the one the meter conventions
/// demand: retraction does not make stored state look cheaper; only
/// compaction (or a whole-bucket drop) gives bits back.
pub struct TurnstileStream {
    universe: usize,
    policy: ReprPolicy,
    /// Total inserts applied; the next insert's id.
    arrivals: usize,
    deletes: usize,
    mode: Mode,
}

impl TurnstileStream {
    /// An unbounded turnstile over `[universe]` with [`ReprPolicy::Auto`].
    pub fn new(universe: usize) -> Self {
        Self::with_policy(universe, ReprPolicy::Auto)
    }

    /// An unbounded turnstile with an explicit representation policy.
    pub fn with_policy(universe: usize, policy: ReprPolicy) -> Self {
        TurnstileStream {
            universe,
            policy,
            arrivals: 0,
            deletes: 0,
            mode: Mode::Unbounded {
                sys: SetSystem::with_policy(universe, policy),
            },
        }
    }

    /// A sliding-window turnstile: only the last `w` arrivals are live.
    ///
    /// # Panics
    /// Panics if `w == 0`.
    pub fn windowed(universe: usize, w: usize) -> Self {
        Self::windowed_with_policy(universe, w, ReprPolicy::Auto)
    }

    /// A sliding-window turnstile with an explicit representation policy.
    ///
    /// # Panics
    /// Panics if `w == 0`.
    pub fn windowed_with_policy(universe: usize, w: usize, policy: ReprPolicy) -> Self {
        assert!(w >= 1, "window must hold at least one arrival");
        TurnstileStream {
            universe,
            policy,
            arrivals: 0,
            deletes: 0,
            mode: Mode::Windowed {
                w,
                bucket_cap: w.div_ceil(8).max(1),
                buckets: VecDeque::new(),
            },
        }
    }

    /// Applies one update. Returns the arrival id for an `Insert`, `None`
    /// for a `Delete`.
    ///
    /// # Panics
    /// Panics if an `Insert` list is not strictly increasing / in range,
    /// or a `Delete` names an id that never arrived.
    pub fn apply(&mut self, update: Update) -> Option<SetId> {
        match update {
            Update::Insert(elems) => Some(self.insert(&elems)),
            Update::Delete(id) => {
                self.delete(id);
                None
            }
        }
    }

    /// Applies a batch of updates in order.
    pub fn apply_all<I: IntoIterator<Item = Update>>(&mut self, updates: I) {
        for u in updates {
            self.apply(u);
        }
    }

    fn insert(&mut self, elems: &[u32]) -> SetId {
        let id = self.arrivals;
        match &mut self.mode {
            Mode::Unbounded { sys } => {
                let got = sys.add_set(elems);
                debug_assert_eq!(got, id, "unbounded ids are arrival numbers");
            }
            Mode::Windowed {
                w,
                bucket_cap,
                buckets,
            } => {
                let needs_bucket = buckets.back().is_none_or(|b| b.store.len() >= *bucket_cap);
                if needs_bucket {
                    buckets.push_back(Bucket {
                        base: id,
                        store: SetStore::with_policy(self.universe, self.policy),
                    });
                }
                buckets
                    .back_mut()
                    .expect("just ensured")
                    .store
                    .push_sorted(elems);
                // Expire: arrivals < cutoff have left the window. Drop
                // fully expired head buckets whole; tombstone the expired
                // prefix of a partial head (idempotent, so re-tombstoning
                // on the next insert charges nothing twice).
                let cutoff = (id + 1).saturating_sub(*w);
                while buckets
                    .front()
                    .is_some_and(|b| b.base + b.store.len() <= cutoff)
                {
                    buckets.pop_front();
                }
                if let Some(head) = buckets.front_mut() {
                    for local in 0..cutoff.saturating_sub(head.base) {
                        head.store.remove(local);
                    }
                }
            }
        }
        self.arrivals = id + 1;
        id
    }

    fn delete(&mut self, id: SetId) {
        assert!(
            id < self.arrivals,
            "delete of arrival {id} which never happened (arrivals = {})",
            self.arrivals
        );
        self.deletes += 1;
        match &mut self.mode {
            Mode::Unbounded { sys } => sys.remove_set(id),
            Mode::Windowed { buckets, .. } => {
                // Already expired (bucket dropped)? Then the delete is a
                // no-op: the window beat the retraction to it.
                let Some(front_base) = buckets.front().map(|b| b.base) else {
                    return;
                };
                if id < front_base {
                    return;
                }
                let idx = buckets.partition_point(|b| b.base <= id) - 1;
                let bucket = &mut buckets[idx];
                bucket.store.remove(id - bucket.base);
            }
        }
    }

    /// Universe size `n`.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Total inserts applied so far (= the next insert's id).
    pub fn arrivals(&self) -> usize {
        self.arrivals
    }

    /// Total deletes applied so far (including no-op deletes of expired
    /// window arrivals).
    pub fn num_deletes(&self) -> usize {
        self.deletes
    }

    /// The window length, or `None` in unbounded mode.
    pub fn window(&self) -> Option<usize> {
        match &self.mode {
            Mode::Unbounded { .. } => None,
            Mode::Windowed { w, .. } => Some(*w),
        }
    }

    /// The arrival number of the oldest *retained* slot: 0 in unbounded
    /// mode, the head bucket's base in windowed mode
    /// (= [`Self::arrivals`] when no bucket is retained). Snapshot id
    /// `j` corresponds to arrival `base_id() + j`.
    pub fn base_id(&self) -> usize {
        match &self.mode {
            Mode::Unbounded { .. } => 0,
            Mode::Windowed { buckets, .. } => buckets.front().map_or(self.arrivals, |b| b.base),
        }
    }

    /// Number of retained arrival slots (live + tombstoned-but-resident).
    /// In windowed mode this is bounded by `w + ⌈w/8⌉`.
    pub fn retained(&self) -> usize {
        match &self.mode {
            Mode::Unbounded { sys } => sys.len(),
            Mode::Windowed { buckets, .. } => buckets.iter().map(|b| b.store.len()).sum(),
        }
    }

    /// The resident system in unbounded mode — the instance streaming
    /// reports run against. `None` in windowed mode (use
    /// [`snapshot`](Self::snapshot)).
    pub fn system(&self) -> Option<&SetSystem> {
        match &self.mode {
            Mode::Unbounded { sys } => Some(sys),
            Mode::Windowed { .. } => None,
        }
    }

    /// Materializes the retained slots as a flat [`SetSystem`] whose id
    /// `j` is arrival `base_id() + j` — expired-in-place and deleted slots
    /// read as empty sets, exactly as a tombstone does. In windowed mode
    /// the bucket arenas are concatenated through
    /// [`SetSystem::from_shard_stores`], so representations are preserved
    /// verbatim.
    pub fn snapshot(&self) -> SetSystem {
        match &self.mode {
            Mode::Unbounded { sys } => sys.clone(),
            Mode::Windowed { buckets, .. } => SetSystem::from_shard_stores(
                self.universe,
                self.policy,
                buckets.iter().map(|b| &b.store),
            ),
        }
    }

    /// Reclaims tombstoned arena bytes in unbounded mode, returning the id
    /// remap (see [`SetSystem::compact`]). `None` in windowed mode, where
    /// reclamation is the whole-bucket drop instead — windowed ids are
    /// arrival numbers and must not be renumbered.
    pub fn compact(&mut self) -> Option<CompactionMap> {
        match &mut self.mode {
            Mode::Unbounded { sys } => Some(sys.compact()),
            Mode::Windowed { .. } => None,
        }
    }

    /// Paper-accounting bits of all retained arenas — live sets *plus*
    /// tombstoned/expired slots not yet reclaimed, per the meter
    /// conventions ([`crate::meter`]).
    pub fn stored_bits(&self) -> u64 {
        match &self.mode {
            Mode::Unbounded { sys } => sys.stored_bits(),
            Mode::Windowed { buckets, .. } => buckets.iter().map(|b| b.store.stored_bits()).sum(),
        }
    }

    /// Bits still occupied by tombstoned (deleted or expired-in-place)
    /// slots awaiting reclamation.
    pub fn tombstone_bits(&self) -> u64 {
        match &self.mode {
            Mode::Unbounded { sys } => sys.tombstone_bits(),
            Mode::Windowed { buckets, .. } => {
                buckets.iter().map(|b| b.store.tombstone_bits()).sum()
            }
        }
    }

    /// Fraction of retained bits belonging to live sets (1.0 when nothing
    /// is retained).
    pub fn live_ratio(&self) -> f64 {
        let total = self.stored_bits();
        if total == 0 {
            return 1.0;
        }
        (total - self.tombstone_bits()) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SetSystem {
        SetSystem::from_elements(4, &[vec![0], vec![1], vec![2], vec![3], vec![0, 1]])
    }

    #[test]
    fn adversarial_order_is_identity() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Adversarial);
        let ids: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(st.passes_made(), 1);
    }

    #[test]
    fn pass_counter_increments() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Adversarial);
        assert_eq!(st.passes_made(), 0);
        for _ in st.pass() {}
        for _ in st.pass() {}
        let _ = st.pass(); // starting a pass counts even if not consumed
        assert_eq!(st.passes_made(), 3);
    }

    #[test]
    fn random_order_is_a_permutation_and_stable_across_passes() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Random { seed: 9 });
        let p1: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        let p2: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        assert_eq!(p1, p2, "random arrival fixes one permutation per run");
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_orders_differ_across_seeds() {
        let _s = SetSystem::from_elements(2, &(0..50).map(|_| vec![0]).collect::<Vec<_>>());
        let o1 = Arrival::Random { seed: 1 }.initial_order(50);
        let o2 = Arrival::Random { seed: 2 }.initial_order(50);
        assert_ne!(o1, o2);
    }

    #[test]
    fn reshuffled_mode_changes_between_passes() {
        let s = SetSystem::from_elements(2, &(0..50).map(|_| vec![0]).collect::<Vec<_>>());
        let mut st = SetStream::new(&s, Arrival::ReshuffledEachPass { seed: 3 });
        let p1: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        let p2: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        assert_ne!(p1, p2, "reshuffled mode must re-permute (50 items)");
    }

    #[test]
    fn items_carry_instance_ids() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Random { seed: 4 });
        for (id, set) in st.pass() {
            assert_eq!(set, s.set(id), "payload must match instance set {id}");
        }
    }

    #[test]
    fn pass_len_is_exact() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Adversarial);
        let mut p = st.pass();
        assert_eq!(p.len(), 5);
        p.next();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn window_arrival_keeps_the_last_w_in_instance_order() {
        assert_eq!(Arrival::Window { w: 2 }.initial_order(5), vec![3, 4]);
        assert_eq!(
            Arrival::Window { w: 9 }.initial_order(5),
            Arrival::Adversarial.initial_order(5),
            "w ≥ m sees the whole instance"
        );
        assert_eq!(
            Arrival::Window { w: 0 }.initial_order(5),
            Vec::<SetId>::new()
        );
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Window { w: 3 });
        let ids: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![2, 3, 4], "instance ids, not window-relative");
    }

    #[test]
    fn insertion_only_turnstile_matches_direct_construction() {
        let lists: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![2, 3], vec![3], vec![], vec![0, 3]];
        let mut ts = TurnstileStream::new(4);
        for (i, l) in lists.iter().enumerate() {
            assert_eq!(ts.apply(Update::Insert(l.clone())), Some(i));
        }
        let mut direct = SetSystem::new(4);
        for l in &lists {
            direct.push_sorted(l);
        }
        let resident = ts.system().expect("unbounded mode");
        assert_eq!(resident, &direct);
        assert_eq!(resident.stored_bits(), direct.stored_bits());
        assert_eq!(ts.arrivals(), 5);
        assert_eq!(ts.num_deletes(), 0);
        assert_eq!(ts.window(), None);
        assert_eq!(ts.base_id(), 0);
        assert_eq!(ts.snapshot(), direct);
    }

    #[test]
    fn unbounded_delete_tombstones_then_compact_reclaims() {
        let mut ts = TurnstileStream::new(4);
        ts.apply_all([
            Update::Insert(vec![0, 1]),
            Update::Insert(vec![2]),
            Update::Insert(vec![3]),
            Update::Delete(1),
        ]);
        let before = ts.stored_bits();
        assert!(ts.tombstone_bits() > 0, "retraction must stay charged");
        assert_eq!(ts.stored_bits(), before, "delete gives no bits back");
        assert!(ts.live_ratio() < 1.0);
        assert!(ts.system().unwrap().set(1).is_empty());
        let map = ts.compact().expect("unbounded compacts");
        assert_eq!(map.len_before(), 3);
        assert_eq!(map.len_after(), 2);
        assert_eq!(map.new_id(0), Some(0));
        assert_eq!(map.new_id(1), None);
        assert_eq!(map.new_id(2), Some(1));
        assert_eq!(ts.tombstone_bits(), 0);
        assert!(ts.stored_bits() < before);
        assert_eq!(ts.live_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "never happened")]
    fn deleting_a_future_arrival_panics() {
        let mut ts = TurnstileStream::new(4);
        ts.apply(Update::Insert(vec![0]));
        ts.apply(Update::Delete(1));
    }

    #[test]
    fn windowed_turnstile_expires_old_arrivals() {
        let mut ts = TurnstileStream::windowed(8, 3);
        assert_eq!(ts.window(), Some(3));
        assert!(ts.compact().is_none(), "windowed mode never renumbers");
        for i in 0..6u32 {
            ts.apply(Update::Insert(vec![i]));
        }
        // Window = arrivals {3, 4, 5}; snapshot ids are base_id()-relative.
        let snap = ts.snapshot();
        let base = ts.base_id();
        assert!(base <= 3, "live arrivals must be retained");
        for arrival in 0..6 {
            let j = arrival - base.min(arrival);
            let live = arrival >= 3;
            if arrival < base {
                continue; // dropped whole-bucket — not even a slot
            }
            assert_eq!(
                !snap.set(j).is_empty(),
                live,
                "arrival {arrival} live={live}"
            );
            if live {
                assert_eq!(snap.set(j).iter().collect::<Vec<_>>(), vec![arrival]);
            }
        }
        assert!(ts.retained() <= 3 + 1, "retained ≤ w + bucket_cap");
    }

    #[test]
    fn windowed_whole_bucket_drop_reclaims_bits() {
        // w = 8 → bucket_cap = 1: every arrival is its own bucket, so each
        // expiry is a whole-bucket drop and stored bits stay flat.
        let mut ts = TurnstileStream::windowed(64, 8);
        let mut peak = 0;
        for i in 0..64u32 {
            ts.apply(Update::Insert(vec![i % 64]));
            peak = peak.max(ts.stored_bits());
        }
        assert_eq!(ts.retained(), 8, "exactly the window is retained");
        assert_eq!(ts.base_id(), 56);
        assert_eq!(ts.tombstone_bits(), 0, "cap-1 buckets drop whole");
        assert_eq!(ts.stored_bits(), peak, "storage is flat at the window");
    }

    #[test]
    fn windowed_partial_head_tombstones_until_dropped() {
        // w = 16 → bucket_cap = 2: expiry tombstones the head bucket's
        // first slot (charged!) before the bucket finally drops whole.
        let mut ts = TurnstileStream::windowed(1 << 20, 16);
        let mut saw_tombstones = false;
        for i in 0..48u32 {
            ts.apply(Update::Insert(vec![i]));
            saw_tombstones |= ts.tombstone_bits() > 0;
            assert!(ts.retained() <= 16 + 2);
        }
        assert!(saw_tombstones, "partial head expiry must charge tombstones");
    }

    #[test]
    fn windowed_delete_inside_window_and_after_expiry() {
        let mut ts = TurnstileStream::windowed(8, 4);
        for i in 0..6u32 {
            ts.apply(Update::Insert(vec![i]));
        }
        ts.apply(Update::Delete(0)); // long expired: no-op
        ts.apply(Update::Delete(4)); // live: tombstoned
        assert_eq!(ts.num_deletes(), 2);
        let snap = ts.snapshot();
        let base = ts.base_id();
        assert!(snap.set(4 - base).is_empty(), "deleted in-window arrival");
        assert!(!snap.set(5 - base).is_empty(), "untouched neighbour");
    }

    #[test]
    fn empty_windowed_snapshot_is_an_empty_system() {
        let ts = TurnstileStream::windowed(8, 4);
        let snap = ts.snapshot();
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.universe(), 8);
        assert_eq!(ts.base_id(), 0);
        assert_eq!(ts.stored_bits(), 0);
        assert_eq!(ts.live_ratio(), 1.0);
    }
}

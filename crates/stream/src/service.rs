//! The resident serving layer: [`CoverService`], a long-lived handle that
//! owns a [`SetSystem`] plus a [`Runtime`] and answers coverage queries
//! from many threads at once.
//!
//! The batch entry points (`run_in` and friends) rebuild everything per
//! call; a deployment answering a heavy-tailed query mix over one large
//! system wants the opposite: *keep* the system resident, mutate it in
//! place, and share work between queries that arrive together. The service
//! adds exactly three mechanisms on top of the existing engine, none of
//! which may change a single answer byte:
//!
//! * **Epoch-keyed caching.** The resident system carries a mutation
//!   [`epoch`](SetSystem::epoch); every `add_set`/`remove_set` bumps it and
//!   clears the cache, so a cached answer can only ever be replayed at the
//!   epoch it was computed for. Same-epoch repeats are served without
//!   touching the solver (visible via [`CoverService::stats`]).
//! * **Request coalescing (single-flight).** Threads asking the *same*
//!   query at the same epoch share one computation: the first becomes the
//!   leader and runs the solver, the rest park on a condvar and receive a
//!   clone of the leader's answer — simultaneous identical queries cost one
//!   [`BatchedSweep`](streamcover_core::BatchedSweep) walk, not N.
//! * **Incremental CELF-chain reuse.** Budgeted [`max_cover`] queries on
//!   one epoch share a single resumable [`CelfHeap`]: greedy's pick
//!   sequence is a prefix property (the first `k` picks don't depend on how
//!   many more will be requested), so `max_cover(3)` then `max_cover(10)`
//!   seeds the heap once and extends the same chain by seven picks instead
//!   of reseeding from scratch.
//!
//! The standing invariant — the serving-layer analogue of the runtime's
//! determinism contract — is that **every response is byte-identical to a
//! fresh single-threaded run against the same epoch's system**: caching,
//! coalescing and chain reuse are pure execution optimizations. This is
//! gated by `tests/service_invariance.rs` (1/2/4/8 threads of interleaved
//! queries and mutations, replayed sequentially per epoch), the
//! cache-correctness proptest in `tests/service_cache.rs`, and the
//! `substrate_bench` service arm.
//!
//! Consistency model: queries take the resident system's read lock for the
//! duration of the computation and mutations take the write lock, so every
//! answer is computed against exactly one epoch (no torn reads), mutations
//! serialize, and the epoch a response reports is the epoch its bytes were
//! computed at. [`what_if`](CoverService::what_if) evaluates a hypothetical
//! mutation against a private clone — the resident system and its caches
//! are untouched.
//!
//! **Garbage.** Removes tombstone: the arena bytes stay resident *and
//! charged* ([`CoverService::tombstone_bits`]) until a compaction reclaims
//! them, so a long-lived service under churn accretes garbage. An opt-in
//! [`CompactionPolicy`]
//! ([`with_compaction_policy`](CoverService::with_compaction_policy))
//! auto-compacts *under the mutation write lock* whenever the live ratio
//! falls below its threshold: ids are renumbered through a
//! [`CompactionMap`] (published via
//! [`last_compaction`](CoverService::last_compaction)), the epoch bumps
//! again, and the ordinary invalidation path republishes it — in-flight
//! queries still hold the read lock at the *old* epoch, so the cache and
//! singleflight entries stay structurally safe. Without a policy the
//! service never renumbers ids on its own (the default, which raw-id replay
//! harnesses rely on).
//!
//! [`max_cover`]: CoverService::max_cover

use crate::report::{CoverRun, SetCoverStreamer};
use crate::runtime::{ExecPolicy, Runtime};
use crate::stream::Arrival;
use crate::ThresholdGreedy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use streamcover_core::{
    greedy_cover_until, greedy_cover_until_sharded_in, BitSet, CelfHeap, CompactionMap, SetId,
    SetSystem,
};

/// When the service reclaims tombstoned arena bytes: compact as soon as
/// the resident system's [`live_ratio`](SetSystem::live_ratio) drops below
/// `min_live_ratio`. Compaction renumbers ids (see
/// [`CoverService::last_compaction`]), so the policy is opt-in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactionPolicy {
    min_live_ratio: f64,
}

impl CompactionPolicy {
    /// Compact whenever less than `min_live_ratio` of the stored bits
    /// belong to live sets. `1.0` compacts on every remove; values near
    /// `0.0` tolerate almost-all-garbage arenas.
    ///
    /// # Panics
    /// Panics unless `min_live_ratio ∈ [0, 1]`.
    pub fn at_live_ratio(min_live_ratio: f64) -> CompactionPolicy {
        assert!(
            (0.0..=1.0).contains(&min_live_ratio),
            "live ratio threshold out of range: {min_live_ratio}"
        );
        CompactionPolicy { min_live_ratio }
    }

    /// The configured threshold.
    pub fn min_live_ratio(&self) -> f64 {
        self.min_live_ratio
    }
}

/// A read-only coverage question against the resident system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Greedily cover the given target elements (duplicates and order are
    /// irrelevant; the service canonicalizes). Unbudgeted: picks until the
    /// target is covered or no set makes progress.
    CoverForSubset {
        /// Target elements (must all be `< universe`).
        target: Vec<u32>,
    },
    /// Budgeted greedy maximum coverage: the first `k` greedy picks against
    /// the full universe — served incrementally from the epoch's shared
    /// CELF chain.
    MaxCover {
        /// Maximum number of sets to pick.
        k: usize,
    },
    /// A full streaming set-cover run (threshold greedy) on a
    /// random-arrival stream drawn from `seed` — passes and peak bits
    /// metered exactly as a standalone run would.
    StreamCover {
        /// Arrival shuffle / algorithm seed.
        seed: u64,
    },
}

/// A mutation of the resident system. Committing one bumps the epoch and
/// invalidates every cached answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Append a set (elements sorted + deduplicated by the service).
    Add {
        /// The new set's elements (must all be `< universe`).
        elems: Vec<u32>,
    },
    /// Tombstone the set with this id: it reads as empty from then on; all
    /// other ids are unchanged.
    Remove {
        /// Id of the set to remove.
        id: SetId,
    },
}

/// The narrow request surface: everything the service can do, as data.
/// [`CoverService::call`] dispatches these; the typed methods
/// ([`cover_for_subset`](CoverService::cover_for_subset) etc.) are
/// convenience wrappers over the same paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Answer a query against the resident system (cached, coalesced).
    Query(Query),
    /// Evaluate `query` as if `mutation` had been applied — against a
    /// private clone; the resident system is untouched and nothing is
    /// cached.
    WhatIf {
        /// The hypothetical mutation.
        mutation: Mutation,
        /// The query to evaluate against the mutated clone.
        query: Query,
    },
    /// Commit [`Mutation::Add`] to the resident system.
    AddSet {
        /// The new set's elements.
        elems: Vec<u32>,
    },
    /// Commit [`Mutation::Remove`] to the resident system.
    RemoveSet {
        /// Id of the set to remove.
        id: SetId,
    },
    /// Snapshot the service counters.
    Stats,
}

/// Answer to a [`Query::CoverForSubset`] or [`Query::MaxCover`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverAnswer {
    /// The epoch of the system this answer was computed against.
    pub epoch: u64,
    /// Chosen set ids, in greedy pick order.
    pub solution: Vec<SetId>,
    /// Number of target elements the solution covers.
    pub covered: usize,
    /// Whether the whole target (subset or universe) is covered.
    pub feasible: bool,
}

/// Answer to a [`Query::StreamCover`] — a full [`CoverRun`] pinned to the
/// serving epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamAnswer {
    /// The epoch of the system this answer was computed against.
    pub epoch: u64,
    /// Chosen set ids.
    pub solution: Vec<SetId>,
    /// Whether the solution covers the universe.
    pub feasible: bool,
    /// Stream passes the run made.
    pub passes: usize,
    /// Peak working-memory bits the run metered.
    pub peak_bits: u64,
}

/// Any query answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Greedy cover / max-cover result.
    Cover(CoverAnswer),
    /// Streaming run result.
    Stream(StreamAnswer),
}

impl Answer {
    /// The epoch the answer was computed at.
    pub fn epoch(&self) -> u64 {
        match self {
            Answer::Cover(a) => a.epoch,
            Answer::Stream(a) => a.epoch,
        }
    }
}

/// Response to a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A query answer.
    Answer(Answer),
    /// A committed mutation: the new epoch, and the appended id for adds.
    Mutated {
        /// Epoch after the mutation.
        epoch: u64,
        /// `Some(id)` for [`Request::AddSet`], `None` for removes.
        id: Option<SetId>,
    },
    /// Counter snapshot.
    Stats(ServiceStats),
}

/// A snapshot of the service counters (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Current epoch of the resident system.
    pub epoch: u64,
    /// Queries served (all paths).
    pub queries: u64,
    /// Queries answered from the epoch cache or an already-long-enough
    /// CELF chain, without running a solver.
    pub cache_hits: u64,
    /// Queries that joined another thread's in-flight computation.
    pub coalesced: u64,
    /// Queries that actually ran a solver (cache misses / chain
    /// extensions).
    pub computed: u64,
    /// Mutations committed.
    pub mutations: u64,
    /// Automatic compactions triggered by the [`CompactionPolicy`].
    pub compactions: u64,
}

/// Canonical identity of a query at one epoch — the cache key.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum QueryKey {
    /// Canonicalized (sorted, deduplicated) subset target.
    Cover(Vec<u32>),
    /// Stream seed.
    Stream(u64),
}

/// A finished or in-flight cache slot.
enum Entry {
    Done(Answer),
    InFlight(Arc<Flight>),
}

/// Rendezvous for coalesced waiters: the leader fills `slot` and notifies.
struct Flight {
    slot: Mutex<Option<Answer>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// The epoch-keyed answer cache. `epoch` always equals the resident
/// system's epoch: mutations update both under the write lock.
struct Cache {
    epoch: u64,
    entries: HashMap<QueryKey, Entry>,
}

/// The shared incremental CELF chain for full-universe greedy queries at
/// the current epoch: one seeded heap, drawn further only when a query
/// asks for more picks than drawn so far.
struct Chain {
    epoch: u64,
    heap: CelfHeap,
    uncovered: BitSet,
    /// Greedy picks drawn so far, in order.
    picks: Vec<SetId>,
    /// `counts[j]` = elements covered by the first `j + 1` picks.
    counts: Vec<usize>,
    /// Whether the greedy sequence is fully drawn (universe covered or no
    /// set makes progress).
    exhausted: bool,
}

impl Chain {
    fn seed(rt: &Runtime, sys: &SetSystem, parts: usize, epoch: u64) -> Chain {
        let full = BitSet::full(sys.universe());
        Chain {
            epoch,
            heap: CelfHeap::seed_in(rt, sys, parts, &full),
            uncovered: full,
            picks: Vec::new(),
            counts: Vec::new(),
            exhausted: false,
        }
    }

    /// Extends the drawn prefix to at least `k` picks (or exhaustion) —
    /// the same pop/refresh/commit loop `greedy_cover_until` runs, so
    /// every prefix matches a fresh run at that budget.
    fn extend_to(&mut self, sys: &SetSystem, k: usize) {
        let n = sys.universe();
        while !self.exhausted && self.picks.len() < k {
            if self.uncovered.is_empty() {
                self.exhausted = true;
                break;
            }
            match self.heap.next_pick(sys, &self.uncovered) {
                Some(i) => {
                    self.uncovered.difference_with_ref(sys.set(i));
                    self.picks.push(i);
                    self.counts.push(n - self.uncovered.len());
                }
                None => self.exhausted = true,
            }
        }
    }

    /// The answer for budget `k` from the drawn prefix.
    fn answer(&self, k: usize, universe: usize) -> CoverAnswer {
        let kk = k.min(self.picks.len());
        let covered = if kk == 0 { 0 } else { self.counts[kk - 1] };
        CoverAnswer {
            epoch: self.epoch,
            solution: self.picks[..kk].to_vec(),
            covered,
            feasible: covered == universe,
        }
    }
}

/// A long-lived, thread-safe serving handle over one resident
/// [`SetSystem`]: concurrent queries, in-place mutations, epoch-keyed
/// caching, request coalescing and incremental CELF-chain reuse — every
/// response byte-identical to a fresh single-threaded run at its epoch.
///
/// ```
/// use streamcover_core::SetSystem;
/// use streamcover_stream::service::CoverService;
///
/// let sys = SetSystem::from_elements(6, &[vec![0, 1, 2], vec![3, 4, 5], vec![2, 3]]);
/// let svc = CoverService::new(sys);
///
/// let a = svc.max_cover(2);
/// assert!(a.feasible);
/// assert_eq!(a.solution, vec![0, 1]);
///
/// // Same epoch, same query: served from the chain, not recomputed.
/// let b = svc.max_cover(2);
/// assert_eq!(a, b);
/// assert!(svc.stats().cache_hits >= 1);
///
/// // A mutation bumps the epoch and invalidates.
/// let (epoch, _id) = svc.add_set(&[0, 1, 2, 3, 4, 5]);
/// assert_eq!(epoch, 1);
/// assert_eq!(svc.max_cover(2).solution, vec![3]);
/// ```
pub struct CoverService {
    rt: &'static Runtime,
    policy: ExecPolicy,
    compaction: Option<CompactionPolicy>,
    resident: RwLock<SetSystem>,
    cache: Mutex<Cache>,
    chain: Mutex<Option<Chain>>,
    /// The most recent auto-compaction: `(epoch it produced, id remap)`.
    /// Updated under the resident write lock.
    last_compaction: Mutex<Option<(u64, CompactionMap)>>,
    queries: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    computed: AtomicU64,
    mutations: AtomicU64,
    compactions: AtomicU64,
}

impl CoverService {
    /// A service over `system` on the shared global [`Runtime`] under the
    /// sequential [`ExecPolicy`].
    pub fn new(system: SetSystem) -> CoverService {
        CoverService::with(system, Runtime::global(), ExecPolicy::sequential())
    }

    /// A service over `system` executing on `rt` under `policy` — the
    /// policy's [`workers`](ExecPolicy::workers) sizes the heap seeding
    /// fan-out and its seedless fields configure streaming runs.
    /// Answers are identical for every runtime size and policy fan-out
    /// (the engine's determinism contract).
    pub fn with(system: SetSystem, rt: &'static Runtime, policy: ExecPolicy) -> CoverService {
        let epoch = system.epoch();
        CoverService {
            rt,
            policy,
            compaction: None,
            resident: RwLock::new(system),
            cache: Mutex::new(Cache {
                epoch,
                entries: HashMap::new(),
            }),
            chain: Mutex::new(None),
            last_compaction: Mutex::new(None),
            queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Opts in to automatic garbage reclamation: after any
    /// [`remove_set`](Self::remove_set) that drops the resident system's
    /// live ratio below the policy threshold, the service compacts *while
    /// still holding the mutation write lock* — ids renumber through the
    /// map published by [`last_compaction`](Self::last_compaction), the
    /// epoch bumps a second time, and every cached answer dies with the
    /// old epoch, exactly like any other mutation.
    ///
    /// Off by default: an unconfigured service never renumbers ids on its
    /// own.
    pub fn with_compaction_policy(mut self, policy: CompactionPolicy) -> CoverService {
        self.compaction = Some(policy);
        self
    }

    /// Dispatches a [`Request`]. The typed methods are thin wrappers over
    /// exactly these paths.
    pub fn call(&self, request: Request) -> Response {
        match request {
            Request::Query(q) => Response::Answer(self.query(q)),
            Request::WhatIf { mutation, query } => Response::Answer(self.what_if(mutation, query)),
            Request::AddSet { elems } => {
                let (epoch, id) = self.add_set(&elems);
                Response::Mutated {
                    epoch,
                    id: Some(id),
                }
            }
            Request::RemoveSet { id } => Response::Mutated {
                epoch: self.remove_set(id),
                id: None,
            },
            Request::Stats => Response::Stats(self.stats()),
        }
    }

    /// Answers any [`Query`].
    pub fn query(&self, query: Query) -> Answer {
        match query {
            Query::CoverForSubset { target } => Answer::Cover(self.cover_for_subset(&target)),
            Query::MaxCover { k } => Answer::Cover(self.max_cover(k)),
            Query::StreamCover { seed } => Answer::Stream(self.stream_cover(seed)),
        }
    }

    /// Greedy cover of the target elements: byte-identical to
    /// `greedy_cover_until(&system, usize::MAX, &target)` at the answer's
    /// epoch. Cached per `(epoch, canonical target)` and coalesced across
    /// threads.
    ///
    /// # Panics
    /// Panics if any target element is `>= universe()`.
    pub fn cover_for_subset(&self, target: &[u32]) -> CoverAnswer {
        let mut canon = target.to_vec();
        canon.sort_unstable();
        canon.dedup();
        let key = QueryKey::Cover(canon.clone());
        let answer = self.serve_cached(key, |sys, epoch| {
            let tb = BitSet::from_iter(sys.universe(), canon.iter().map(|&e| e as usize));
            let r =
                greedy_cover_until_sharded_in(self.rt, sys, self.policy.workers, usize::MAX, &tb);
            Answer::Cover(CoverAnswer {
                epoch,
                covered: r.coverage(),
                feasible: r.coverage() == tb.len(),
                solution: r.ids,
            })
        });
        match answer {
            Answer::Cover(a) => a,
            Answer::Stream(_) => unreachable!("cover key produced a stream answer"),
        }
    }

    /// The first `k` greedy picks against the full universe:
    /// byte-identical to `greedy_max_coverage(&system, k)` at the answer's
    /// epoch. Served incrementally from the epoch's shared CELF chain —
    /// same-epoch queries extend one heap instead of reseeding, and a
    /// query whose budget the chain already covers runs no solver at all
    /// (counted as a cache hit).
    pub fn max_cover(&self, k: usize) -> CoverAnswer {
        let sys = self.resident.read().expect("resident system poisoned");
        let epoch = sys.epoch();
        self.queries.fetch_add(1, Ordering::Relaxed);
        // The chain mutex serializes same-epoch chain queries: simultaneous
        // arrivals share one seeding sweep and one drawn prefix (this is
        // the coalescing for the chain path).
        let mut slot = self.chain.lock().expect("chain poisoned");
        let stale = slot.as_ref().is_none_or(|c| c.epoch != epoch);
        let served_from_prefix = !stale
            && slot
                .as_ref()
                .is_some_and(|c| c.exhausted || c.picks.len() >= k);
        if stale {
            *slot = Some(Chain::seed(self.rt, &sys, self.policy.workers, epoch));
        }
        let chain = slot.as_mut().expect("chain just seeded");
        chain.extend_to(&sys, k);
        if served_from_prefix {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.computed.fetch_add(1, Ordering::Relaxed);
        }
        chain.answer(k, sys.universe())
    }

    /// A full threshold-greedy streaming run on a random-arrival stream
    /// drawn from `seed`: solution, passes and peak bits byte-identical to
    /// `ThresholdGreedy.run(&system, Arrival::Random { seed }, &mut
    /// StdRng::seed_from_u64(seed))` at the answer's epoch. Cached per
    /// `(epoch, seed)` and coalesced across threads.
    pub fn stream_cover(&self, seed: u64) -> StreamAnswer {
        let answer = self.serve_cached(QueryKey::Stream(seed), |sys, epoch| {
            Answer::Stream(stream_answer(
                epoch,
                ThresholdGreedy.run_in(
                    self.rt,
                    &self.policy.seed(seed),
                    sys,
                    Arrival::Random { seed },
                    &mut StdRng::seed_from_u64(seed),
                ),
            ))
        });
        match answer {
            Answer::Stream(a) => a,
            Answer::Cover(_) => unreachable!("stream key produced a cover answer"),
        }
    }

    /// Evaluates `query` as if `mutation` had been committed — against a
    /// private clone of the resident system. Nothing is cached, the
    /// resident system and its epoch are untouched, and the answer's
    /// `epoch` is the *current* epoch the hypothetical is based on.
    pub fn what_if(&self, mutation: Mutation, query: Query) -> Answer {
        let (mut clone, epoch) = {
            let sys = self.resident.read().expect("resident system poisoned");
            (sys.clone(), sys.epoch())
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.computed.fetch_add(1, Ordering::Relaxed);
        match mutation {
            Mutation::Add { elems } => {
                let mut canon = elems;
                canon.sort_unstable();
                canon.dedup();
                clone.add_set(&canon);
            }
            Mutation::Remove { id } => clone.remove_set(id),
        }
        match query {
            Query::CoverForSubset { target } => {
                let mut canon = target;
                canon.sort_unstable();
                canon.dedup();
                let tb = BitSet::from_iter(clone.universe(), canon.iter().map(|&e| e as usize));
                let r = greedy_cover_until(&clone, usize::MAX, &tb);
                Answer::Cover(CoverAnswer {
                    epoch,
                    covered: r.coverage(),
                    feasible: r.coverage() == tb.len(),
                    solution: r.ids,
                })
            }
            Query::MaxCover { k } => {
                let full = BitSet::full(clone.universe());
                let r = greedy_cover_until(&clone, k, &full);
                Answer::Cover(CoverAnswer {
                    epoch,
                    covered: r.coverage(),
                    feasible: r.coverage() == clone.universe(),
                    solution: r.ids,
                })
            }
            Query::StreamCover { seed } => Answer::Stream(stream_answer(
                epoch,
                ThresholdGreedy.run(
                    &clone,
                    Arrival::Random { seed },
                    &mut StdRng::seed_from_u64(seed),
                ),
            )),
        }
    }

    /// Commits a set addition to the resident system (elements sorted and
    /// deduplicated first). Bumps the epoch, invalidates every cached
    /// answer, and returns `(new epoch, appended id)`.
    ///
    /// # Panics
    /// Panics if any element is `>= universe()`.
    pub fn add_set(&self, elems: &[u32]) -> (u64, SetId) {
        let mut canon = elems.to_vec();
        canon.sort_unstable();
        canon.dedup();
        let mut sys = self.resident.write().expect("resident system poisoned");
        let id = sys.add_set(&canon);
        let epoch = sys.epoch();
        self.invalidate(epoch);
        (epoch, id)
    }

    /// Commits a set removal (tombstone: the id reads as empty from then
    /// on, other ids unchanged). Bumps the epoch, invalidates every cached
    /// answer, and returns the new epoch.
    ///
    /// With a [`CompactionPolicy`] configured, a remove that drops the
    /// live ratio below the threshold triggers a compaction before the
    /// write lock is released: ids renumber (see
    /// [`last_compaction`](Self::last_compaction)) and the returned epoch
    /// reflects the post-compaction system.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn remove_set(&self, id: SetId) -> u64 {
        let mut sys = self.resident.write().expect("resident system poisoned");
        sys.remove_set(id);
        if let Some(policy) = &self.compaction {
            if sys.live_ratio() < policy.min_live_ratio() {
                let map = sys.compact();
                *self
                    .last_compaction
                    .lock()
                    .expect("compaction log poisoned") = Some((sys.epoch(), map));
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let epoch = sys.epoch();
        self.invalidate(epoch);
        epoch
    }

    /// The most recent automatic compaction, as `(epoch it produced, old
    /// id → new id map)` — what an id-holding client consults after a
    /// remove to re-translate its handles. `None` until the policy first
    /// fires.
    pub fn last_compaction(&self) -> Option<(u64, CompactionMap)> {
        self.last_compaction
            .lock()
            .expect("compaction log poisoned")
            .clone()
    }

    /// Paper-accounting bits still occupied by tombstoned slots of the
    /// resident system (0 right after a compaction).
    pub fn tombstone_bits(&self) -> u64 {
        self.resident
            .read()
            .expect("resident system poisoned")
            .tombstone_bits()
    }

    /// Fraction of the resident system's stored bits belonging to live
    /// sets — the gauge the [`CompactionPolicy`] watches.
    pub fn live_ratio(&self) -> f64 {
        self.resident
            .read()
            .expect("resident system poisoned")
            .live_ratio()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            epoch: self.epoch(),
            queries: self.queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// The resident system's current epoch.
    pub fn epoch(&self) -> u64 {
        self.resident
            .read()
            .expect("resident system poisoned")
            .epoch()
    }

    /// The resident system's universe size.
    pub fn universe(&self) -> usize {
        self.resident
            .read()
            .expect("resident system poisoned")
            .universe()
    }

    /// Number of sets in the resident system (tombstones included).
    pub fn num_sets(&self) -> usize {
        self.resident
            .read()
            .expect("resident system poisoned")
            .len()
    }

    /// A clone of the resident system at its current epoch — the replay
    /// seam the invariance tests verify responses against.
    pub fn snapshot(&self) -> SetSystem {
        self.resident
            .read()
            .expect("resident system poisoned")
            .clone()
    }

    /// The single-flight cached serve: hit → clone; in-flight → wait;
    /// miss → compute as leader (holding the resident read guard, so the
    /// epoch cannot move underneath), publish, wake waiters.
    ///
    /// `compute` runs on validated inputs only; the public wrappers panic
    /// on malformed queries *before* an `InFlight` marker is planted, so a
    /// compute panic cannot strand waiters.
    fn serve_cached(
        &self,
        key: QueryKey,
        compute: impl FnOnce(&SetSystem, u64) -> Answer,
    ) -> Answer {
        let sys = self.resident.read().expect("resident system poisoned");
        let epoch = sys.epoch();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let flight = {
            let mut cache = self.cache.lock().expect("cache poisoned");
            debug_assert_eq!(
                cache.epoch, epoch,
                "cache epoch desynced from the resident system"
            );
            match cache.entries.get(&key) {
                Some(Entry::Done(a)) => {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return a.clone();
                }
                Some(Entry::InFlight(f)) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(f))
                }
                None => {
                    cache
                        .entries
                        .insert(key.clone(), Entry::InFlight(Arc::new(Flight::new())));
                    None
                }
            }
        };
        if let Some(f) = flight {
            // Still holding the resident read guard: the leader computes at
            // this same epoch, and a mutation (write lock) cannot intervene.
            let mut slot = f.slot.lock().expect("flight poisoned");
            while slot.is_none() {
                slot = f.ready.wait(slot).expect("flight poisoned");
            }
            return slot.clone().expect("flight filled");
        }
        let answer = compute(&sys, epoch);
        self.computed.fetch_add(1, Ordering::Relaxed);
        let old = {
            let mut cache = self.cache.lock().expect("cache poisoned");
            cache.entries.insert(key, Entry::Done(answer.clone()))
        };
        if let Some(Entry::InFlight(f)) = old {
            *f.slot.lock().expect("flight poisoned") = Some(answer.clone());
            f.ready.notify_all();
        }
        answer
    }

    /// Drops every cached answer and the CELF chain, re-keying the cache
    /// to `epoch`. Called with the resident write lock held, so no query
    /// holds a read guard and no `InFlight` entry can exist.
    fn invalidate(&self, epoch: u64) {
        let mut cache = self.cache.lock().expect("cache poisoned");
        cache.epoch = epoch;
        cache.entries.clear();
        drop(cache);
        *self.chain.lock().expect("chain poisoned") = None;
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for CoverService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "CoverService{{n={}, m={}, epoch={}, queries={}, hits={}, coalesced={}}}",
            self.universe(),
            self.num_sets(),
            s.epoch,
            s.queries,
            s.cache_hits,
            s.coalesced
        )
    }
}

/// Pins a [`CoverRun`] to the epoch it was computed at.
fn stream_answer(epoch: u64, run: CoverRun) -> StreamAnswer {
    StreamAnswer {
        epoch,
        solution: run.solution,
        feasible: run.feasible,
        passes: run.passes,
        peak_bits: run.peak_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamcover_core::greedy_max_coverage;

    fn demo() -> SetSystem {
        SetSystem::from_elements(
            8,
            &[
                vec![0, 1, 2, 3],
                vec![4, 5, 6, 7],
                vec![2, 3, 4],
                vec![0, 7],
                vec![5],
            ],
        )
    }

    #[test]
    fn cover_for_subset_matches_fresh_greedy() {
        let svc = CoverService::new(demo());
        let a = svc.cover_for_subset(&[2, 3, 4, 5]);
        let tb = BitSet::from_iter(8, [2usize, 3, 4, 5]);
        let fresh = greedy_cover_until(&demo(), usize::MAX, &tb);
        assert_eq!(a.solution, fresh.ids);
        assert_eq!(a.covered, fresh.coverage());
        assert!(a.feasible);
        assert_eq!(a.epoch, 0);
        // Unordered, duplicated input canonicalizes to the same key and
        // answer.
        let b = svc.cover_for_subset(&[5, 4, 3, 2, 2, 5]);
        assert_eq!(a, b);
        let s = svc.stats();
        assert_eq!(s.computed, 1, "second call must be a cache hit");
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn max_cover_chain_prefixes_match_fresh_runs() {
        let svc = CoverService::new(demo());
        // Growing, then shrinking budgets: each answer must equal the
        // fresh greedy run at that k, and shrinking budgets never compute.
        for k in [1, 2, 3, 5, 2, 0] {
            let a = svc.max_cover(k);
            let fresh = greedy_max_coverage(&demo(), k);
            assert_eq!(a.solution, fresh.ids, "k={k}");
            assert_eq!(a.covered, fresh.coverage(), "k={k}");
            assert_eq!(a.feasible, fresh.is_feasible(), "k={k}");
        }
        let s = svc.stats();
        assert_eq!(s.queries, 6);
        assert!(
            s.cache_hits >= 2,
            "k=2 and k=0 after the k=5 drain must be prefix hits (stats: {s:?})"
        );
    }

    #[test]
    fn mutations_bump_epoch_and_invalidate() {
        let svc = CoverService::new(demo());
        let before = svc.max_cover(2);
        assert_eq!(before.epoch, 0);
        // A superset-of-everything set changes the greedy answer.
        let (epoch, id) = svc.add_set(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(epoch, 1);
        assert_eq!(id, 5);
        let after = svc.max_cover(2);
        assert_eq!(after.epoch, 1);
        assert_eq!(after.solution, vec![5], "new set dominates");
        assert!(after.feasible);
        // Removing it restores the old answer at a new epoch.
        let epoch = svc.remove_set(id);
        assert_eq!(epoch, 2);
        let restored = svc.max_cover(2);
        assert_eq!(restored.epoch, 2);
        assert_eq!(restored.solution, before.solution);
        assert_eq!(svc.stats().mutations, 2);
    }

    #[test]
    fn what_if_leaves_resident_untouched() {
        let svc = CoverService::new(demo());
        let hypo = svc.what_if(
            Mutation::Add {
                elems: vec![0, 1, 2, 3, 4, 5, 6, 7],
            },
            Query::MaxCover { k: 1 },
        );
        match hypo {
            Answer::Cover(a) => {
                assert_eq!(a.solution, vec![5], "clone sees the hypothetical set");
                assert!(a.feasible);
                assert_eq!(a.epoch, 0, "based-on epoch");
            }
            Answer::Stream(_) => panic!("cover query"),
        }
        assert_eq!(svc.epoch(), 0, "resident epoch untouched");
        assert_eq!(svc.num_sets(), 5, "resident membership untouched");
        let real = svc.max_cover(1);
        assert_eq!(real.solution, greedy_max_coverage(&demo(), 1).ids);
    }

    #[test]
    fn stream_cover_matches_standalone_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = streamcover_dist::planted_cover(&mut rng, 128, 24, 4);
        let svc = CoverService::new(w.system.clone());
        // Workload builders construct through the public mutators, so the
        // system arrives at a nonzero epoch — the service serves whatever
        // epoch the system carries.
        let e0 = w.system.epoch();
        let a = svc.stream_cover(9);
        assert_eq!(a.epoch, e0);
        let fresh = ThresholdGreedy.run(
            &w.system,
            Arrival::Random { seed: 9 },
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a.solution, fresh.solution);
        assert_eq!(a.feasible, fresh.feasible);
        assert_eq!(a.passes, fresh.passes);
        assert_eq!(a.peak_bits, fresh.peak_bits);
        // Same seed: cached. Different seed: computed.
        let b = svc.stream_cover(9);
        assert_eq!(a, b);
        let c = svc.stream_cover(10);
        assert_eq!(c.epoch, e0);
        let s = svc.stats();
        assert_eq!(s.computed, 2);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn request_response_roundtrip() {
        let svc = CoverService::new(demo());
        let r = svc.call(Request::Query(Query::MaxCover { k: 2 }));
        let direct = svc.max_cover(2);
        assert_eq!(r, Response::Answer(Answer::Cover(direct)));
        let r = svc.call(Request::AddSet {
            elems: vec![6, 0, 6],
        });
        assert_eq!(
            r,
            Response::Mutated {
                epoch: 1,
                id: Some(5)
            }
        );
        let r = svc.call(Request::RemoveSet { id: 5 });
        assert_eq!(r, Response::Mutated { epoch: 2, id: None });
        match svc.call(Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.epoch, 2);
                assert_eq!(s.mutations, 2);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        let r = svc.call(Request::WhatIf {
            mutation: Mutation::Remove { id: 0 },
            query: Query::CoverForSubset {
                target: vec![0, 1, 2],
            },
        });
        match r {
            Response::Answer(Answer::Cover(a)) => {
                let mut clone = svc.snapshot();
                clone.remove_set(0);
                let tb = BitSet::from_iter(8, [0usize, 1, 2]);
                let fresh = greedy_cover_until(&clone, usize::MAX, &tb);
                assert_eq!(a.solution, fresh.ids);
            }
            other => panic!("expected cover answer, got {other:?}"),
        }
    }

    #[test]
    fn simultaneous_identical_queries_coalesce() {
        use std::sync::Barrier;
        let mut rng = StdRng::seed_from_u64(5);
        let w = streamcover_dist::planted_cover(&mut rng, 512, 64, 6);
        let svc = CoverService::new(w.system.clone());
        let e0 = w.system.epoch();
        let target: Vec<u32> = (0..512).collect();
        let barrier = Barrier::new(4);
        let answers: Vec<CoverAnswer> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        svc.cover_for_subset(&target)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = greedy_cover_until(&w.system, usize::MAX, &BitSet::full(512));
        for a in &answers {
            assert_eq!(a.solution, fresh.ids);
            assert_eq!(a.epoch, e0);
        }
        let s = svc.stats();
        assert_eq!(s.queries, 4);
        assert_eq!(s.computed, 1, "exactly one leader computes");
        assert_eq!(
            s.cache_hits + s.coalesced,
            3,
            "everyone else waits or hits (stats: {s:?})"
        );
    }

    #[test]
    fn auto_compaction_fires_renumbers_and_republishes() {
        let svc =
            CoverService::new(demo()).with_compaction_policy(CompactionPolicy::at_live_ratio(0.99));
        assert!(svc.last_compaction().is_none());
        // The remove tombstones (epoch 1), the policy sees the ratio drop
        // below 0.99 and compacts (epoch 2) under the same write lock.
        let epoch = svc.remove_set(1);
        assert_eq!(epoch, 2, "tombstone bump + compaction bump");
        assert_eq!(svc.epoch(), 2);
        assert_eq!(svc.num_sets(), 4, "slot physically gone");
        assert_eq!(svc.tombstone_bits(), 0);
        assert_eq!(svc.live_ratio(), 1.0);
        let (at, map) = svc.last_compaction().expect("policy fired");
        assert_eq!(at, 2);
        assert_eq!(map.len_before(), 5);
        assert_eq!(map.len_after(), 4);
        assert_eq!(map.new_id(1), None);
        assert_eq!(map.new_id(4), Some(3));
        let s = svc.stats();
        assert_eq!(s.compactions, 1);
        assert_eq!(
            s.mutations, 1,
            "one committed mutation, compaction included"
        );
        // Answers are byte-identical to a fresh run on the compacted system.
        let a = svc.max_cover(2);
        let fresh = greedy_max_coverage(&svc.snapshot(), 2);
        assert_eq!(a.solution, fresh.ids);
        assert_eq!(a.epoch, 2);
    }

    #[test]
    fn unconfigured_service_never_renumbers() {
        let svc = CoverService::new(demo());
        svc.remove_set(1);
        assert_eq!(svc.num_sets(), 5, "tombstone only — ids stable");
        assert!(svc.tombstone_bits() > 0, "garbage charged, not reclaimed");
        assert!(svc.last_compaction().is_none());
        assert_eq!(svc.stats().compactions, 0);
    }

    #[test]
    fn soak_sustained_churn_keeps_tombstone_bits_bounded() {
        use streamcover_core::random_subset_elems;
        // A long add/remove mix against a policy-managed service: the
        // live-ratio floor must hold after every mutation, id handles must
        // stay translatable through the published maps, and answers must
        // stay byte-identical to fresh runs on the resident system.
        const THRESHOLD: f64 = 0.8;
        let mut rng = StdRng::seed_from_u64(42);
        let svc = CoverService::new(SetSystem::new(64))
            .with_compaction_policy(CompactionPolicy::at_live_ratio(THRESHOLD));
        let mut live: Vec<SetId> = Vec::new();
        for round in 0..240usize {
            let size = 1 + round % 4;
            let (_, id) = svc.add_set(&random_subset_elems(&mut rng, 64, size));
            live.push(id);
            // Remove roughly every other round, oldest-first — a steady
            // delete pressure that forces repeated compactions.
            if round % 2 == 1 {
                let epoch = svc.remove_set(live.remove(0));
                if let Some((at, map)) = svc.last_compaction() {
                    if at == epoch {
                        live = map.remap_ids(&live);
                    }
                }
            }
            assert!(
                svc.live_ratio() >= THRESHOLD,
                "round {round}: live ratio {} under the policy floor",
                svc.live_ratio()
            );
        }
        let s = svc.stats();
        assert!(s.compactions >= 1, "churn must have forced compactions");
        assert_eq!(s.mutations, 240 + 120);
        // Tombstone garbage is bounded by the policy: at most
        // (1 − threshold) of the stored bits, never unbounded accretion.
        let stored = svc.snapshot().stored_bits();
        assert!(
            svc.tombstone_bits() as f64 <= (1.0 - THRESHOLD) * stored as f64,
            "tombstone bits {} of stored {stored} exceed the policy bound",
            svc.tombstone_bits()
        );
        // Every tracked handle is live and answers match a fresh run.
        let snap = svc.snapshot();
        for &id in &live {
            assert!(id < snap.len(), "tracked handle out of range");
        }
        let a = svc.max_cover(3);
        let fresh = greedy_max_coverage(&snap, 3);
        assert_eq!(a.solution, fresh.ids);
        assert_eq!(a.covered, fresh.coverage());
    }

    #[test]
    fn service_with_pooled_policy_matches_sequential_answers() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = streamcover_dist::planted_cover(&mut rng, 256, 48, 5);
        let seq = CoverService::new(w.system.clone());
        let pooled = CoverService::with(
            w.system.clone(),
            Runtime::global(),
            ExecPolicy::sequential().workers(4),
        );
        assert_eq!(seq.max_cover(6), pooled.max_cover(6));
        assert_eq!(
            seq.cover_for_subset(&[1, 5, 9, 200]),
            pooled.cover_for_subset(&[1, 5, 9, 200])
        );
        assert_eq!(seq.stream_cover(2), pooled.stream_cover(2));
    }
}

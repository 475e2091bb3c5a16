//! # streamcover-stream
//!
//! The streaming model of computation and the algorithms of Assadi
//! (PODS 2017) within it.
//!
//! Substrate:
//! * [`runtime`] — the unified execution API: a persistent
//!   [`runtime::Runtime`] pool (one shared task queue, re-exported from
//!   `streamcover-core`) that every fan-out submits to, and the
//!   [`runtime::ExecPolicy`] builder
//!   holding *all* execution configuration (`workers`, `guess_workers`,
//!   accounting, seed).
//!   Algorithms take both through `run_in`; the legacy `run` delegates to
//!   the lazily-initialized sequential runtime.
//! * [`stream::SetStream`] — multi-pass set streams with enforced pass
//!   counting; adversarial and random-arrival orders
//!   ([`stream::Arrival`]).
//! * [`meter::SpaceMeter`] — bit-exact working-memory accounting (the
//!   paper's cost model), with RAII [`meter::ChargeGuard`]s so early
//!   returns can never leak live bits. Finished workers fold in one of
//!   two ways, fixed by what they model: a pass's transient workers join
//!   (`absorb_join`, scopes max) and coexisting guess copies add
//!   (`absorb_parallel`).
//! * [`parallel::ParallelPass`] — pooled fan-out of one pass: the
//!   candidate filter runs one work item per zero-copy arena shard, then
//!   one arrival-order loop re-evaluates each candidate once against the
//!   evolving residual; workers own private meters joined into the
//!   caller's, and that refine loop *is* the sequential scan over the
//!   candidates, so picks are identical to the sequential pass for every
//!   fan-out width and pool size.
//! * [`guessing::GuessDriver`] — the o͂pt-guess grid (clipped to
//!   `min(n, m)`), executed as pooled work items with per-guess split
//!   rngs; sequential and pooled drivers report identically.
//! * [`report`] — uniform run reports and the [`report::SetCoverStreamer`] /
//!   [`report::MaxCoverStreamer`] traits the bench harness sweeps, each
//!   with the `run_in(&Runtime, &ExecPolicy, …)` entry point.
//! * [`service`] — the resident serving layer: [`service::CoverService`]
//!   keeps one mutable `SetSystem` live and answers concurrent
//!   `cover_for_subset` and budgeted `max_cover` queries with epoch-keyed
//!   caching, single-flight query coalescing and incremental CELF-chain
//!   reuse — every answer byte-identical to a fresh single-threaded run at
//!   its epoch. An opt-in
//!   [`service::CompactionPolicy`] auto-compacts tombstone garbage under
//!   the mutation write lock, keeping long-lived churn bounded.
//!
//! Set cover algorithms ([`algo`]):
//! * [`algo::HarPeledAssadi`] — **Algorithm 1**: `(α+ε)`-approximation,
//!   `2α+1` passes, `Õ(m·n^{1/α}/ε² + n/ε)` bits (Theorem 2), with ablation
//!   knobs for the one-shot-pruning and fine-sampling improvements over
//!   Har-Peled et al. (PODS 2016).
//! * [`algo::ThresholdGreedy`] — `O(log n)` passes / `O(log n)`-approx /
//!   `O(n)` bits classical baseline.
//! * [`algo::StoreAll`] — one pass, optimal, `Θ(mn)` bits.
//! * [`algo::OnlinePrune`] — single-pass accept-then-prune heuristic
//!   (Saha–Getoor style).
//!
//! Maximum coverage algorithms ([`maxcov`]):
//! * [`maxcov::ElementSampling`] — `(1−ε)`-approximate `k`-cover in
//!   `Õ(mk/ε²)` bits (the subject of Result 2's tight lower bound).
//! * [`maxcov::SieveStream`] — single-pass `(1/2−ε)` sieve baseline.
//! * [`maxcov::SahaGetoorSwap`] — the original swap heuristic
//!   (`1/4`-approximation).
//!
//! ## Quickstart
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use streamcover_dist::planted_cover;
//! use streamcover_stream::{
//!     Arrival, ExecPolicy, Runtime, SetCoverStreamer, ThresholdGreedy,
//! };
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let w = planted_cover(&mut rng, 256, 24, 4);
//!
//! // One persistent pool for the whole process; ExecPolicy holds every
//! // execution knob. Picks, passes and peak bits are guaranteed identical
//! // to the sequential run at every fan-out width and pool size.
//! let rt = Runtime::new(4);
//! let policy = ExecPolicy::sequential().workers(4);
//! let run = ThresholdGreedy.run_in(&rt, &policy, &w.system, Arrival::Adversarial, &mut rng);
//! assert!(run.feasible);
//! assert!(w.system.is_cover(&run.solution));
//! assert!(run.passes <= 9); // ⌈log₂ 256⌉ + 1
//!
//! // The legacy entry point still exists: it delegates to the shared
//! // sequential runtime and reports the same result.
//! let seq = ThresholdGreedy.run(&w.system, Arrival::Adversarial, &mut rng);
//! assert_eq!(seq.solution, run.solution);
//! ```
//!
//! ## Serving layer
//!
//! For a long-lived deployment, wrap the system in a [`CoverService`]
//! instead of re-running batch entry points: queries from any number of
//! threads are cached per epoch, coalesced when simultaneous, and served
//! from a shared incremental CELF chain — all without changing a single
//! answer byte.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use streamcover_dist::planted_cover;
//! use streamcover_stream::service::CoverService;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let w = planted_cover(&mut rng, 256, 32, 4);
//! let svc = CoverService::new(w.system);
//!
//! // Budgeted greedy max coverage; a same-epoch repeat is served from
//! // the service's CELF chain without running the solver again.
//! let first = svc.max_cover(4);
//! let again = svc.max_cover(4);
//! assert_eq!(first, again);
//! assert!(svc.stats().cache_hits >= 1);
//!
//! // Mutations bump the epoch: no stale answer can survive them.
//! let before = svc.epoch();
//! let (epoch, _id) = svc.add_set(&[0, 1, 2, 3]);
//! assert_eq!(epoch, before + 1);
//! assert_eq!(svc.max_cover(4).epoch, epoch);
//! ```

pub mod algo;
pub mod guessing;
pub mod maxcov;
pub mod meter;
pub mod parallel;
pub mod report;
pub mod runtime;
pub mod service;
pub mod stream;

pub use algo::{HarPeledAssadi, OnlinePrune, Pruning, SamplingRate, StoreAll, ThresholdGreedy};
pub use guessing::GuessDriver;
pub use maxcov::{ElementSampling, McOracle, SahaGetoorSwap, SieveStream};
pub use meter::{Accounting, ChargeGuard, SpaceMeter};
pub use parallel::ParallelPass;
pub use report::{CoverRun, MaxCoverRun, MaxCoverStreamer, SetCoverStreamer};
pub use runtime::{default_workers, DistBackend, ExecPolicy, Runtime};
pub use service::{CompactionPolicy, CoverAnswer, CoverService, Mutation, ServiceStats};
pub use stream::{Arrival, SetStream};

//! The unified execution API: one [`Runtime`] to run on, one [`ExecPolicy`]
//! to configure with.
//!
//! Before this module, execution knobs were smeared across the surface:
//! `HarPeledAssadi` carried `workers` *and* `guess_workers`,
//! `ThresholdGreedy`/`OnlinePrune`/`StoreAll` each carried their own
//! `workers`, accounting lived on `HarPeledAssadi`, and storage policy was
//! configured in yet other places — while every fan-out paid a fresh
//! `std::thread::scope` spawn. Now:
//!
//! * the [`Runtime`] (re-exported from `streamcover-core`) owns the
//!   persistent pool every fan-out executes on — per-worker Chase–Lev
//!   work-stealing deques and bounded injector rings, so the task fast
//!   path takes no lock (see `streamcover-core::runtime` for the
//!   memory-ordering argument) — and
//! * the [`ExecPolicy`] builder holds *all* execution configuration:
//!   per-pass fan-out (`workers`), guess-grid fan-out (`guess_workers`),
//!   space accounting, and an optional run seed. Systems a run builds
//!   (stored copies, projections) always use the `Auto` cutover.
//!   How worker meters fold is not a knob: it is fixed by what the workers
//!   model (a pass's workers are transient, guess copies coexist; see
//!   [`crate::meter::SpaceMeter::absorb_join`]).
//!
//! Algorithms take both through
//! [`SetCoverStreamer::run_in`](crate::report::SetCoverStreamer::run_in) /
//! [`MaxCoverStreamer::run_in`](crate::report::MaxCoverStreamer::run_in);
//! the legacy `run` entry points delegate to the lazily-initialized
//! sequential runtime with the sequential policy, so their behavior is
//! byte-for-byte unchanged.
//!
//! The determinism contract carries over from the scoped-thread era and is
//! strengthened: solution, passes and peak bits are identical to the
//! sequential run at **every pool size and fan-out width, and across
//! repeated [`Runtime`] reuse** — a pool run warm by one algorithm hands
//! the next one bit-identical results (gated by
//! `tests/parallel_invariance.rs` and the `substrate_bench` runtime arm).

use crate::meter::Accounting;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use streamcover_core::runtime::{default_workers, Runtime};

/// Which message fabric a distributed cover run exchanges frames over.
///
/// Both backends speak the same versioned wire format and drive the same
/// owner/coordinator protocol (`streamcover-comm`'s `cluster` family); the
/// choice only changes *where* the bytes travel, never what is computed —
/// solutions are byte-identical across backends and owner counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DistBackend {
    /// Deterministic in-process channel pairs (the test fabric: owners are
    /// threads, frames are `Vec<u8>` hand-offs, no syscalls).
    InProcess,
    /// Unix-domain socket pairs: frames cross a real kernel byte stream
    /// (owners may be threads or spawned processes).
    Socket,
}

/// Everything that configures *how* a streaming run executes, none of it
/// changing *what* the run computes: solution, passes and peak bits are
/// identical under every policy whose accounting fields agree.
///
/// Build one by chaining the methods off [`ExecPolicy::sequential`] (or
/// `Default`):
///
/// ```
/// use streamcover_stream::{Accounting, ExecPolicy};
///
/// let policy = ExecPolicy::sequential()
///     .workers(4)
///     .guess_workers(2)
///     .accounting(Accounting::ActualRepr);
/// assert_eq!(policy.workers, 4);
/// assert_eq!(policy.guess_workers, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecPolicy {
    /// Fan-out width of one stream pass (the candidate filter's shard
    /// count, the refine waves' block count, the storing pass's chunk
    /// count). Clamped to ≥ 1 by the builder; 1 runs the plain sequential
    /// pass inline.
    pub workers: usize,
    /// Fan-out width of the o͂pt-guess grid (how many chunks the grid is
    /// split into). Composes with `workers`: each guess copy's passes fan
    /// out again on the same runtime.
    pub guess_workers: usize,
    /// How retained sets are charged to the meter (actual representation
    /// vs the always-a-member-list convention).
    pub accounting: Accounting,
    /// When set, the run draws its randomness from a private
    /// `StdRng::seed_from_u64(seed)` instead of the caller's rng (which is
    /// then left untouched) — reproducible runs detached from caller rng
    /// state.
    pub seed: Option<u64>,
}

impl ExecPolicy {
    /// The sequential policy: every fan-out width 1, actual-representation
    /// accounting, caller-provided randomness. This is exactly what the
    /// legacy `run` entry points execute under.
    pub fn sequential() -> Self {
        ExecPolicy {
            workers: 1,
            guess_workers: 1,
            accounting: Accounting::ActualRepr,
            seed: None,
        }
    }

    /// Sets the per-pass fan-out width (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the guess-grid fan-out width (clamped to ≥ 1).
    pub fn guess_workers(mut self, guess_workers: usize) -> Self {
        self.guess_workers = guess_workers.max(1);
        self
    }

    /// Sets the space-accounting convention for retained sets.
    pub fn accounting(mut self, accounting: Accounting) -> Self {
        self.accounting = accounting;
        self
    }

    /// Pins the run to a private rng seeded with `seed`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The rng this run should consume: the caller's, unless the policy
    /// pins a [`seed`](Self::seed) — then a private rng parked in `slot`
    /// (the caller's is left untouched).
    pub fn select_rng<'a>(
        &self,
        caller: &'a mut StdRng,
        slot: &'a mut Option<StdRng>,
    ) -> &'a mut StdRng {
        match self.seed {
            Some(seed) => slot.insert(StdRng::seed_from_u64(seed)),
            None => caller,
        }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_the_default_and_all_ones() {
        let p = ExecPolicy::default();
        assert_eq!(p, ExecPolicy::sequential());
        assert_eq!(p.workers, 1);
        assert_eq!(p.guess_workers, 1);
        assert_eq!(p.accounting, Accounting::ActualRepr);
        assert_eq!(p.seed, None);
    }

    #[test]
    fn builder_clamps_and_chains() {
        let p = ExecPolicy::sequential()
            .workers(0)
            .guess_workers(8)
            .accounting(Accounting::AlwaysSparse)
            .seed(7);
        assert_eq!(p.workers, 1, "zero clamps to sequential");
        assert_eq!(p.guess_workers, 8);
        assert_eq!(p.accounting, Accounting::AlwaysSparse);
        assert_eq!(p.seed, Some(7));
    }

    #[test]
    fn pinned_seed_leaves_the_caller_rng_untouched() {
        use rand::Rng;
        let mut caller = StdRng::seed_from_u64(1);
        let before: u64 = {
            let mut probe = StdRng::seed_from_u64(1);
            probe.gen()
        };
        let mut slot = None;
        let rng = ExecPolicy::sequential()
            .seed(42)
            .select_rng(&mut caller, &mut slot);
        let _: u64 = rng.gen();
        assert_eq!(caller.gen::<u64>(), before, "caller rng must be untouched");
        // Without a seed, the caller's rng is handed through.
        let mut slot = None;
        let rng = ExecPolicy::sequential().select_rng(&mut caller, &mut slot);
        let _: u64 = rng.gen();
        assert!(slot.is_none());
    }
}

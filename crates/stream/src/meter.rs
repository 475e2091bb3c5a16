//! Bit-exact space accounting.
//!
//! The paper measures streaming algorithms in bits of working memory, not
//! RSS. Every algorithm in this crate routes each retained object through a
//! [`SpaceMeter`]: `charge` on acquisition, `release` on drop, and the meter
//! tracks the live total and the high-water mark. Reports quote the peak.
//!
//! Retained state with a clear lifetime should be held through a
//! [`ChargeGuard`] (from [`SpaceMeter::guard`]): the guard releases its bits
//! on drop, so early returns cannot leak live charges — the bug class that
//! used to be patched over with a raw `set_live` override, which could
//! silently erase outstanding charges and corrupt the peak audit (that
//! method is gone).
//!
//! Conventions (matching the paper's accounting):
//! * an element id costs `⌈log₂ n⌉` bits, a set id `⌈log₂ m⌉` bits;
//! * a subset stored as a member list costs `|S| · ⌈log₂ n⌉` bits
//!   ([`streamcover_core::SetRef::stored_bits_sparse`]);
//! * a subset stored as a bitmap costs `n` bits (`stored_bits_dense`);
//! * a retained set is charged for the representation its store *actually*
//!   chose ([`streamcover_core::SetRef::stored_bits`]) — sparse member
//!   lists for thin projections, bitmaps past the density cutover, and the
//!   *measured* encoded size (every occupied arena word) for the
//!   compressed chunked / Elias–Fano backends — so the measured curves
//!   track the paper's cost model instead of a worst-case convention (see
//!   [`Accounting`]);
//! * counters and thresholds cost one word (64 bits);
//! * a **tombstoned** set (deleted but not yet compacted) keeps costing the
//!   bits of the representation its arena bytes still occupy —
//!   `SetStore::stored_bits` includes `tombstone_bits`, so retraction never
//!   makes stored state look cheaper; only `SetStore::compact` gives the
//!   bits back.

use std::cell::Cell;

/// Bits in one machine word, charged for counters/thresholds.
pub const WORD: u64 = 64;

/// How retained sets are charged to the meter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Accounting {
    /// Charge the representation the store actually picked:
    /// `|S|·⌈log₂ n⌉` bits for sparse sets, `n` bits for dense ones, and
    /// *measured* encoded size (every arena word the encoding occupies)
    /// for the compressed chunked / Elias–Fano backends — so the paper's
    /// bit-accounting reports real storage, not a model.
    #[default]
    ActualRepr,
    /// Charge every retained set as a member list (`|S|·⌈log₂ n⌉` bits)
    /// regardless of representation — the pre-refactor convention, kept as
    /// a comparison arm for the accounting regression tests.
    AlwaysSparse,
}

impl Accounting {
    /// Bits to charge for retaining `set` under this accounting rule.
    pub fn bits_for(self, set: streamcover_core::SetRef<'_>) -> u64 {
        match self {
            Accounting::ActualRepr => set.stored_bits(),
            Accounting::AlwaysSparse => set.stored_bits_sparse(),
        }
    }
}

/// A live/peak bit counter.
///
/// Counters live in `Cell`s so charging needs only a shared reference —
/// that is what lets [`ChargeGuard`]s coexist (each holds `&SpaceMeter`)
/// and worker threads own private meters that the caller later folds in
/// with [`SpaceMeter::absorb_parallel`]. The type is deliberately not
/// `Sync`: a meter belongs to exactly one thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpaceMeter {
    live: Cell<u64>,
    peak: Cell<u64>,
}

impl SpaceMeter {
    /// A fresh meter with zero usage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `bits` of newly retained state.
    pub fn charge(&self, bits: u64) {
        self.live.set(self.live.get() + bits);
        self.peak.set(self.peak.get().max(self.live.get()));
    }

    /// Releases `bits` of previously charged state.
    ///
    /// # Panics
    /// Panics if releasing more than is live — that is always an accounting
    /// bug in the calling algorithm.
    pub fn release(&self, bits: u64) {
        assert!(
            bits <= self.live.get(),
            "releasing {bits} bits with only {} live — accounting bug",
            self.live.get()
        );
        self.live.set(self.live.get() - bits);
    }

    /// Charges `bits` and returns an RAII guard that releases them on drop,
    /// so early returns cannot leak live state.
    #[must_use = "dropping the guard immediately releases the charge"]
    pub fn guard(&self, bits: u64) -> ChargeGuard<'_> {
        self.charge(bits);
        ChargeGuard { meter: self, bits }
    }

    /// Currently live bits.
    pub fn live_bits(&self) -> u64 {
        self.live.get()
    }

    /// High-water mark.
    pub fn peak_bits(&self) -> u64 {
        self.peak.get()
    }

    /// Folds another meter's usage in as if it ran *in parallel* with this
    /// one for this meter's whole lifetime (peaks and live totals add) —
    /// the o͂pt-guessing driver's side-by-side copies.
    pub fn absorb_parallel(&self, other: &SpaceMeter) {
        self.peak.set(self.peak.get() + other.peak.get());
        self.live.set(self.live.get() + other.live.get());
    }

    /// Joins worker meters that ran side by side *within the current
    /// scope* and have finished — [`crate::parallel::ParallelPass`]'s
    /// fan-out. The workers' peaks coexisted with this meter's *current*
    /// live total (not with its historical peak), so the high-water mark
    /// is `max(peak, live + Σ worker peaks)` — unlike
    /// [`absorb_parallel`](Self::absorb_parallel), successive scopes do
    /// not sum. The workers' live bits transfer to this meter.
    pub fn absorb_join<'a>(&self, workers: impl IntoIterator<Item = &'a SpaceMeter>) {
        let (mut peaks, mut lives) = (0u64, 0u64);
        for w in workers {
            peaks += w.peak.get();
            lives += w.live.get();
        }
        self.peak.set(self.peak.get().max(self.live.get() + peaks));
        self.live.set(self.live.get() + lives);
    }
}

/// RAII ownership of a block of charged bits: releases them on drop.
///
/// Guards may grow ([`add`](ChargeGuard::add)) as their object accretes
/// state, and may [`adopt`](ChargeGuard::adopt) bits that were already
/// charged elsewhere (e.g. by parallel workers whose meters were absorbed)
/// so one owner is responsible for the release.
#[must_use = "dropping the guard immediately releases the charge"]
#[derive(Debug)]
pub struct ChargeGuard<'a> {
    meter: &'a SpaceMeter,
    bits: u64,
}

impl ChargeGuard<'_> {
    /// Charges `bits` more into this guard's ownership.
    pub fn add(&mut self, bits: u64) {
        self.meter.charge(bits);
        self.bits += bits;
    }

    /// Takes ownership of `bits` that are *already live* on the meter
    /// (charged by an absorbed worker meter); no new charge is made, but
    /// the guard will release them on drop.
    ///
    /// # Panics
    /// Panics if adopting more than is live — like
    /// [`SpaceMeter::release`], a hard assert so an over-adoption fails at
    /// the cause instead of corrupting the audit at some later drop.
    pub fn adopt(&mut self, bits: u64) {
        assert!(
            bits <= self.meter.live_bits(),
            "adopting {bits} bits with only {} live — accounting bug",
            self.meter.live_bits()
        );
        self.bits += bits;
    }

    /// Bits currently owned by this guard.
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

impl Drop for ChargeGuard<'_> {
    fn drop(&mut self) {
        self.meter.release(self.bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_tracks_peak() {
        let m = SpaceMeter::new();
        m.charge(100);
        m.charge(50);
        assert_eq!(m.live_bits(), 150);
        assert_eq!(m.peak_bits(), 150);
        m.release(120);
        assert_eq!(m.live_bits(), 30);
        assert_eq!(m.peak_bits(), 150, "peak is sticky");
        m.charge(200);
        assert_eq!(m.peak_bits(), 230);
    }

    #[test]
    #[should_panic(expected = "accounting bug")]
    fn over_release_panics() {
        let m = SpaceMeter::new();
        m.charge(10);
        m.release(11);
    }

    #[test]
    fn guard_releases_on_drop_and_on_early_return() {
        let m = SpaceMeter::new();
        {
            let mut g = m.guard(100);
            g.add(20);
            assert_eq!(g.bits(), 120);
            assert_eq!(m.live_bits(), 120);
        }
        assert_eq!(m.live_bits(), 0, "drop released everything");
        assert_eq!(m.peak_bits(), 120);

        // An early return (here: `?` out of a closure) cannot leak.
        let attempt = |fail: bool| -> Option<u64> {
            let _g = m.guard(64);
            if fail {
                return None; // _g drops, releasing the 64 bits
            }
            Some(m.live_bits())
        };
        assert_eq!(attempt(false), Some(64));
        assert_eq!(attempt(true), None);
        assert_eq!(m.live_bits(), 0, "early return leaked live bits");
    }

    #[test]
    fn guard_adopts_absorbed_worker_bits() {
        let m = SpaceMeter::new();
        let worker = SpaceMeter::new();
        worker.charge(40);
        m.absorb_parallel(&worker);
        assert_eq!(m.live_bits(), 40);
        let mut g = m.guard(0);
        g.adopt(40);
        drop(g);
        assert_eq!(m.live_bits(), 0, "adopted bits released by the guard");
    }

    #[test]
    fn join_takes_max_over_scopes_not_sum() {
        let m = SpaceMeter::new();
        m.charge(100); // long-lived state
                       // Scope 1: workers hold 30 transient bits, all released after.
        let w1 = SpaceMeter::new();
        w1.charge(30);
        m.absorb_join([&w1]);
        assert_eq!(m.peak_bits(), 130);
        assert_eq!(m.live_bits(), 130);
        m.release(30); // scope 1 transients gone
                       // Scope 2: a *smaller* transient must not raise (or re-add to) the
                       // peak — scopes max, they do not sum.
        let w2 = SpaceMeter::new();
        w2.charge(10);
        m.absorb_join([&w2]);
        assert_eq!(m.peak_bits(), 130, "scopes must not sum");
        assert_eq!(m.live_bits(), 110);
        m.release(10);
        // A bigger scope raises the mark to live + workers.
        let w3 = SpaceMeter::new();
        w3.charge(50);
        let w4 = SpaceMeter::new();
        w4.charge(25);
        m.absorb_join([&w3, &w4]);
        assert_eq!(m.peak_bits(), 175);
    }

    #[test]
    fn fold_modes_pin_their_peak_semantics() {
        // Identical worker histories, folded both ways: a join (a pass's
        // workers) maxes successive scopes against live state; a parallel
        // fold (coexisting guess copies) sums peaks unconditionally. This
        // pins the asymmetry between the two call sites — if either arm's
        // arithmetic drifts, this fails first.
        let history = || {
            let w = SpaceMeter::new();
            w.charge(40);
            w.release(40); // transient: peak 40, live 0
            let v = SpaceMeter::new();
            v.charge(25); // retained: peak 25, live 25
            (w, v)
        };

        // Scoped: two successive scopes of the same shape. Peak is
        // max over scopes of (live + Σ worker peaks), not their sum.
        let scoped = SpaceMeter::new();
        scoped.charge(100);
        let (w, v) = history();
        scoped.absorb_join([&w, &v]);
        assert_eq!(scoped.peak_bits(), 100 + 40 + 25);
        assert_eq!(scoped.live_bits(), 100 + 25, "worker live bits transfer");
        scoped.release(25); // scope 1's retained state dropped
        let (w, v) = history();
        scoped.absorb_join([&w, &v]);
        assert_eq!(scoped.peak_bits(), 165, "scopes max, they do not sum");

        // Concurrent: the same two rounds coexist for the whole run —
        // every fold adds its peaks on top.
        let conc = SpaceMeter::new();
        conc.charge(100);
        let (w, v) = history();
        conc.absorb_parallel(&w);
        conc.absorb_parallel(&v);
        assert_eq!(conc.peak_bits(), 100 + 40 + 25);
        assert_eq!(conc.live_bits(), 100 + 25);
        conc.release(25);
        let (w, v) = history();
        conc.absorb_parallel(&w);
        conc.absorb_parallel(&v);
        assert_eq!(conc.peak_bits(), 165 + 65, "concurrent copies sum");
    }

    #[test]
    fn parallel_absorb_adds_peaks() {
        let a = SpaceMeter::new();
        a.charge(100);
        a.release(100);
        let b = SpaceMeter::new();
        b.charge(70);
        a.absorb_parallel(&b);
        assert_eq!(a.peak_bits(), 170);
        assert_eq!(a.live_bits(), 70);
    }

    #[test]
    fn default_is_zero() {
        let m = SpaceMeter::default();
        assert_eq!(m.live_bits(), 0);
        assert_eq!(m.peak_bits(), 0);
    }

    #[test]
    fn tombstones_stay_charged_until_compaction() {
        // Regression for the hole ISSUE 8 closes: a retained system's
        // stored_bits must keep charging tombstoned slots, so a meter fed
        // from it cannot under-report after a delete. Only compaction may
        // release bits.
        use streamcover_core::SetSystem;
        let mut sys = SetSystem::new(256);
        sys.add_set(&[0, 1, 2, 3]);
        // Every other element: incompressible structure, so the measured
        // argmin keeps the plain 256-bit bitmap (a contiguous 0..200 run
        // would now encode as a 160-bit chunked run container).
        sys.add_set(&(0..256).step_by(2).collect::<Vec<u32>>());
        let full = sys.stored_bits();

        let m = SpaceMeter::new();
        let mut g = m.guard(sys.stored_bits());
        sys.remove_set(1);
        assert_eq!(
            sys.stored_bits(),
            full,
            "retraction must not make stored state look cheaper"
        );
        assert_eq!(sys.tombstone_bits(), 256, "dense slot keeps its n bits");

        // Re-metering after compaction: only now do the bits come back.
        let reclaimed = sys.tombstone_bits();
        sys.compact();
        drop(g);
        g = m.guard(sys.stored_bits());
        assert_eq!(m.live_bits(), full - reclaimed);
        assert_eq!(
            m.peak_bits(),
            full,
            "peak saw the honest pre-compact charge"
        );
        drop(g);
    }
}

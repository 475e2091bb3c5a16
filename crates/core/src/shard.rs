//! Fan-out over one flat arena.
//!
//! A set system lives in exactly one [`SetStore`]. Parallel consumers split
//! it into views; they never copy it into per-shard arenas:
//!
//! * [`split_ranges`] — the near-equal contiguous partition behind every
//!   fan-out in the workspace (set-id ranges, universe word blocks, guess
//!   grid chunks).
//! * [`StoreShard`] — a zero-copy view of one contiguous set-id range,
//!   produced by [`crate::SetSystem::shards`]. Parallel greedy seeding, the
//!   pass engine's candidate filter and the distributed owners each sweep
//!   their own view without striding past other workers' data.
//!
//! The one seam in the other direction is
//! [`crate::SetSystem::from_shard_stores`]: arenas built by parallel
//! workers (a storing pass's chunks) are concatenated into one flat system,
//! representations verbatim.

use crate::bitset::BitSet;
use crate::store::{BatchedSweep, SetRef, SetStore};
use std::ops::Range;

/// Splits `0..len` into `parts` contiguous near-equal ranges (the first
/// `len % parts` ranges are one longer; trailing ranges may be empty when
/// `parts > len`, but every range stays inside `0..len`). The partition
/// arithmetic behind every fan-out in the workspace — pair it with
/// [`Runtime::map_parts`](crate::runtime::Runtime::map_parts) instead of
/// hand-rolling ceil-chunk bounds, which can produce inverted out-of-range
/// windows when `parts` does not divide `len`.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let (base, extra) = (len / parts, len % parts);
    let mut out = Vec::with_capacity(parts);
    let mut pos = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(pos..pos + size);
        pos += size;
    }
    out
}

/// A zero-copy shard view over one flat [`SetStore`] arena: a contiguous
/// range of set ids whose descriptors — and therefore whose slice of the
/// element arena — a single worker walks without striding past other
/// workers' data. Produced by [`crate::SetSystem::shards`].
#[derive(Clone, Debug)]
pub struct StoreShard<'a> {
    store: &'a SetStore,
    ids: Range<usize>,
}

impl<'a> StoreShard<'a> {
    /// A view of `ids` within `store`.
    ///
    /// # Panics
    /// Panics if the range exceeds the store.
    pub fn new(store: &'a SetStore, ids: Range<usize>) -> Self {
        assert!(ids.end <= store.len(), "shard range {ids:?} out of store");
        StoreShard { store, ids }
    }

    /// The backing flat arena.
    pub fn store(&self) -> &'a SetStore {
        self.store
    }

    /// The global id range this shard owns.
    pub fn ids(&self) -> Range<usize> {
        self.ids.clone()
    }

    /// Number of sets in the shard.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Shard-local read (`local` is relative to [`ids`](Self::ids)`.start`).
    #[inline]
    pub fn get(&self, local: usize) -> SetRef<'a> {
        assert!(local < self.ids.len(), "local id {local} out of shard");
        self.store.get(self.ids.start + local)
    }

    /// Gains of every set in the shard against `residual`, in shard-local
    /// order — one contiguous descriptor-span walk of the shared arena.
    pub fn gains<'g>(&self, sweep: &'g mut BatchedSweep, residual: &BitSet) -> &'g [usize] {
        sweep.gains_span(self.store, self.ids.clone(), residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ReprPolicy;
    use crate::system::SetSystem;

    fn lists() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2, 63, 64],
            vec![],
            vec![5, 70, 99],
            vec![0, 99],
            vec![33, 34, 35, 36, 37, 38, 39, 40],
        ]
    }

    #[test]
    fn shard_count_clamps() {
        let sys = SetSystem::from_elements(100, &lists());
        assert_eq!(sys.shards(4).len(), 4);
        assert_eq!(sys.shards(0).len(), 1, "zero clamps to one view");
        assert_eq!(sys.shards(99).len(), 5, "clamped to m");
        assert_eq!(SetSystem::new(0).shards(2).len(), 1);
    }

    #[test]
    fn split_ranges_cover_and_balance() {
        let rs = split_ranges(10, 3);
        assert_eq!(rs, vec![0..4, 4..7, 7..10]);
        assert_eq!(split_ranges(2, 5), vec![0..1, 1..2, 2..2, 2..2, 2..2]);
        assert_eq!(split_ranges(0, 2), vec![0..0, 0..0]);
    }

    #[test]
    fn by_set_range_partitions_ids() {
        let sys = SetSystem::from_elements(100, &lists());
        let shards = sys.shards(2);
        assert_eq!(shards[0].ids(), 0..3);
        assert_eq!(shards[1].ids(), 3..5);
        assert_eq!(shards[0].get(2).to_vec(), vec![5, 70, 99]);
        assert_eq!(shards[1].get(0).to_vec(), vec![0, 99]);
        assert_eq!(
            shards[1].get(1).to_vec(),
            vec![33, 34, 35, 36, 37, 38, 39, 40]
        );
        // Every view reads the one arena: no set is copied.
        assert!(shards.iter().all(|s| std::ptr::eq(s.store(), sys.store())));
    }

    #[test]
    fn from_shard_stores_concatenates() {
        let mut a = SetStore::new(16);
        a.push_sorted(&[0, 1]);
        let mut b = SetStore::new(16);
        b.push_sorted(&[2]);
        b.push_sorted(&[3]);
        let sys = SetSystem::from_shard_stores(16, ReprPolicy::Auto, [&a, &b]);
        assert_eq!(sys.len(), 3);
        assert_eq!(sys.set(0).to_vec(), vec![0, 1]);
        assert_eq!(sys.set(2).to_vec(), vec![3]);
        assert_eq!(sys.epoch(), 0, "a construction helper");
        // Shards out and back in: set-range views copied into private
        // arenas reassemble the original system.
        let orig = SetSystem::from_elements(100, &lists());
        for k in 1..=6 {
            let stores: Vec<SetStore> = orig
                .shards(k)
                .iter()
                .map(|s| orig.subsystem(s.ids()).into_store())
                .collect();
            let back = SetSystem::from_shard_stores(100, ReprPolicy::Auto, &stores);
            assert_eq!(back, orig, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "shard universe mismatch")]
    fn from_shard_stores_checks_universe() {
        SetSystem::from_shard_stores(16, ReprPolicy::Auto, [&SetStore::new(8)]);
    }

    #[test]
    fn gains_sharded_walks_one_arena() {
        let n = 100;
        let residual = BitSet::from_iter(n, (0..n).filter(|e| e % 2 == 0));
        let sys = SetSystem::from_elements(n, &lists());
        let mut sweep = BatchedSweep::new();
        let expect = sweep.gains(sys.store(), &residual).to_vec();
        // The shard-order concatenation of per-view gains is the flat
        // gains vector at every shard count.
        for k in 1..=6 {
            let mut cat = Vec::new();
            for shard in sys.shards(k) {
                cat.extend_from_slice(shard.gains(&mut sweep, &residual));
            }
            assert_eq!(cat, expect, "k={k}");
        }
    }

    #[test]
    fn store_shard_views_are_zero_copy_windows() {
        let mut flat = SetStore::new(50);
        for l in [&[0u32, 1][..], &[2, 3, 4], &[5]] {
            flat.push_sorted(l);
        }
        let shard = StoreShard::new(&flat, 1..3);
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.get(0).to_vec(), vec![2, 3, 4]);
        assert_eq!(shard.get(1).to_vec(), vec![5]);
        let residual = BitSet::full(50);
        let mut sweep = BatchedSweep::new();
        assert_eq!(shard.gains(&mut sweep, &residual), &[3, 1]);
    }
}

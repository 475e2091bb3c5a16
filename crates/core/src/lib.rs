//! # streamcover-core
//!
//! Set-system substrate and offline solvers for the `streamcover` project —
//! a Rust reproduction of *"Tight Space-Approximation Tradeoff for the
//! Multi-Pass Streaming Set Cover Problem"* (Sepehr Assadi, PODS 2017).
//!
//! This crate holds everything the rest of the workspace builds on:
//!
//! * [`store`] — the **hybrid set storage engine**: [`store::SetStore`], a
//!   contiguous CSR-style arena holding every set of a system in one of two
//!   backends ([`store::SetRepr`]) — sorted `u32` element lists (sparse) or
//!   word-packed bitmaps (dense) — selected per set by a
//!   [`store::ReprPolicy`] whose `Auto` cutover matches the paper's bit
//!   accounting (`|S|·⌈log₂ n⌉` vs `n` bits). Reads go through the `Copy`
//!   view [`store::SetRef`], whose binary ops dispatch to kernels
//!   specialized per representation pair (merge-walk for sparse×sparse,
//!   word ops for dense×dense, probes for the mixed cases). The
//!   many-vs-one companion is [`store::BatchedSweep`]: the gain of *every*
//!   set against one residual in a single columnar arena walk — the kernel
//!   under the greedy solvers and the streaming candidate filters.
//! * [`runtime`] — the **persistent execution runtime**: a long-lived pool
//!   of parked worker threads ([`runtime::Runtime`]) with per-worker
//!   injector/stealer deques and a structured-submission API
//!   ([`runtime::Runtime::scope`] / [`runtime::Runtime::map_parts`]) that
//!   every fan-out in the workspace routes through — one spawn cost for the
//!   process lifetime instead of one per pass. Results are identical at
//!   every pool size and across pool reuse.
//! * [`shard`] — **fan-out over one flat arena**: [`shard::StoreShard`] is
//!   the zero-copy view of a contiguous set-id range that parallel
//!   consumers walk without striding shared data, and
//!   [`shard::split_ranges`] the partition arithmetic behind every fan-out.
//!   A system is never split into per-shard arenas; arenas built by
//!   parallel workers merge back through
//!   [`system::SetSystem::from_shard_stores`].
//! * [`bitset::BitSet`] — owned, mutable packed subsets of a fixed universe
//!   `[n]` — the working-set type solvers mutate (residuals, coverage
//!   accumulators) — with the full set algebra the paper's constructions
//!   use and the random sampling primitives (`random_subset`,
//!   `bernoulli_subset`, and their sorted-list emitters).
//! * [`system::SetSystem`] — an indexed collection `S_1, …, S_m ⊆ [n]`
//!   backed by a [`store::SetStore`] arena.
//! * [`greedy`] — offline greedy set cover (`ln n`-approximation) and greedy
//!   maximum coverage (`1-1/e`), the classical baselines of §1, implemented
//!   lazily (CELF-style max-heap with stale-bound re-evaluation).
//! * [`exact`] — branch-and-bound exact set cover, the bounded decision
//!   procedure `opt ≤ B` needed by the Lemma 3.2 experiments, and exact
//!   max-`k`-coverage for the `k = 2` hard instances of §4.
//! * [`stats`] — instance statistics and the regression helpers used to fit
//!   the measured `space ∝ n^{1/α}` exponents.
//! * [`fractional`] — certified dual-fitting lower bounds on `opt` and a
//!   multiplicative-weights fractional LP solver (opt brackets for when the
//!   exact search hits its node budget).
//! * [`io`] — a plain-text instance format (writer + parser).
//!
//! ## Quickstart
//!
//! ```
//! use streamcover_core::{exact_set_cover, greedy_set_cover, SetSystem};
//!
//! // {0,1,2} ∪ {3,4,5} is an optimal cover of [6].
//! let sys = SetSystem::from_elements(
//!     6,
//!     &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5]],
//! );
//! let exact = exact_set_cover(&sys).expect("coverable");
//! assert_eq!(exact.size(), 2);
//! let greedy = greedy_set_cover(&sys);
//! assert!(greedy.is_feasible());
//! assert!(greedy.size() >= 2);
//! ```

pub mod bitset;
pub mod exact;
pub mod fractional;
pub mod greedy;
pub mod io;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod store;
pub mod system;

pub use bitset::{bernoulli_elems, bernoulli_subset, random_subset, random_subset_elems, BitSet};
pub use exact::{
    budgeted_cover_of, decide_opt_at_most, exact_cover_of, exact_max_coverage, exact_set_cover,
    CoverError, Decision, ExactCover,
};
pub use fractional::{dual_fitting_bound, mwu_fractional_cover, DualBound, FractionalCover};
pub use greedy::{
    greedy_cover_until, greedy_cover_until_eager, greedy_cover_until_sharded,
    greedy_cover_until_sharded_in, greedy_max_coverage, greedy_set_cover, CelfHeap, CoverResult,
};
pub use io::{read_instance, write_instance, ParseError};
pub use runtime::Runtime;
pub use shard::{split_ranges, StoreShard};
pub use stats::{linear_fit, mean, power_law_exponent, quantile, std_dev, system_stats};
pub use store::{BatchedSweep, CompactionMap, KernelTier, ReprPolicy, SetRef, SetRepr, SetStore};
pub use system::{SetId, SetSystem};

/// `⌈log₂ x⌉` for `x ≥ 1`, the bit width used across the space accounting.
pub fn ceil_log2(x: usize) -> u32 {
    assert!(x >= 1, "ceil_log2(0) undefined");
    usize::BITS - (x - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn ceil_log2_zero_panics() {
        ceil_log2(0);
    }
}

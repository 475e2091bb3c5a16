//! Wall-clock gates on two of the paper's substrate claims, at the CI
//! scale:
//!
//! * in the `D_SC` regime (`m` sets of average size `n^{1/3}`), where a
//!   dense word scan pays `n/64` words per pair while the sparse merge
//!   pays `O(n^{1/3})`, sparse pairwise coverage is ≥ 2× dense at the
//!   effective kernel tier;
//! * lazy (CELF) greedy picks exactly eager greedy's ids, and is faster at
//!   `m ≥ 4096`.
//!
//! Each gate reads a median of timed samples, so it means something only
//! under optimized codegen: a debug build skips both (run them with
//! `cargo test --release --test timing_gates`). They are the only tests in
//! this binary and take one lock, so no other test shares the host while a
//! gate is timing.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use streamcover::core::{bernoulli_elems, greedy_cover_until_eager, SetRef};
use streamcover::prelude::*;

/// Held by each gate while it times, so the two never run concurrently.
static HOST: Mutex<()> = Mutex::new(());

/// Median-of-samples ns/op for `f`, which must return a checksum (kept
/// opaque via `black_box` so the work is not optimized away).
fn time_ns_per_op(ops_per_call: u64, samples: usize, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f()); // warm-up
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64 / ops_per_call as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    per_op[per_op.len() / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run under --release")]
fn sparse_coverage_beats_dense_in_the_dsc_regime() {
    let _host = HOST.lock().unwrap_or_else(|e| e.into_inner());
    let (n, m) = (1 << 14, 128);
    let mut rng = StdRng::seed_from_u64(2017);
    let p = (n as f64).powf(1.0 / 3.0) / n as f64;
    let lists: Vec<Vec<u32>> = (0..m).map(|_| bernoulli_elems(&mut rng, n, p)).collect();
    let mut sparse = SetSystem::with_policy(n, ReprPolicy::ForceSparse);
    let mut dense = SetSystem::with_policy(n, ReprPolicy::ForceDense);
    for l in &lists {
        sparse.push_sorted(l);
        dense.push_sorted(l);
    }

    // Views are resolved once per sweep, as the solvers do, so the timing
    // isolates the kernel rather than descriptor lookups.
    fn pairwise_coverage(sys: &SetSystem) -> u64 {
        let views: Vec<SetRef<'_>> = (0..sys.len()).map(|i| sys.set(i)).collect();
        let mut acc = 0u64;
        for &a in &views {
            for &b in &views {
                acc = acc.wrapping_add(a.intersection_len(b) as u64);
            }
        }
        acc
    }
    let pairs = (m * m) as u64;
    let sparse_ns = time_ns_per_op(pairs, 7, || pairwise_coverage(&sparse));
    let dense_ns = time_ns_per_op(pairs, 7, || pairwise_coverage(&dense));
    let speedup = dense_ns / sparse_ns;
    assert!(
        speedup >= 2.0,
        "sparse coverage speedup {speedup:.2} < 2.0 at tier {} \
         ({sparse_ns:.1} ns sparse vs {dense_ns:.1} ns dense per pair)",
        KernelTier::effective().name()
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run under --release")]
fn lazy_greedy_matches_and_beats_eager_at_m_4096() {
    let _host = HOST.lock().unwrap_or_else(|e| e.into_inner());
    let (n, m, opt) = (2048, 4096, 16);
    let mut rng = StdRng::seed_from_u64(2017);
    let w = planted_cover(&mut rng, n, m, opt);
    let target = BitSet::full(n);
    let lazy = greedy_cover_until(&w.system, usize::MAX, &target);
    let eager = greedy_cover_until_eager(&w.system, usize::MAX, &target);
    assert_eq!(lazy.ids, eager.ids, "lazy/eager divergence at n={n} m={m}");

    let lazy_ns = time_ns_per_op(1, 5, || {
        greedy_cover_until(&w.system, usize::MAX, &target).ids.len() as u64
    });
    let eager_ns = time_ns_per_op(1, 5, || {
        greedy_cover_until_eager(&w.system, usize::MAX, &target)
            .ids
            .len() as u64
    });
    let speedup = eager_ns / lazy_ns;
    assert!(
        speedup > 1.0,
        "lazy speedup {speedup:.2} ≤ 1.0 at m={m} ({lazy_ns:.0} ns lazy vs {eager_ns:.0} ns eager)"
    );
}

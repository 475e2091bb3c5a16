//! Representation-equivalence property tests: every set-algebra operation
//! must agree bit-for-bit across the storage backends.
//!
//! Strategy: generate random element lists over random universes, build the
//! same system five ways — one arena per forced representation (sparse,
//! dense, chunked, Elias–Fano) plus the auto-cutover arena — and reference
//! `BitSet`s, then check that every operation ([`SetRef`] kernels,
//! system-level aggregates, the `BitSet` mutation kernels) produces
//! identical results no matter which backend either operand lives in.
//!
//! The check bodies live in plain helper functions returning
//! `Result<_, TestCaseError>`, and each `proptest!` argument is a single
//! binding (the offline `proptest!` stand-in supports only bare-ident
//! arguments).

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamcover_core::{
    BatchedSweep, BitSet, KernelTier, ReprPolicy, SetRepr, SetStore, SetSystem,
};

/// Every storage policy: the four forcings plus auto-cutover.
const POLICIES: [ReprPolicy; 5] = [
    ReprPolicy::ForceSparse,
    ReprPolicy::ForceDense,
    ReprPolicy::ForceChunked,
    ReprPolicy::ForceEliasFano,
    ReprPolicy::Auto,
];

/// A universe plus random element lists (possibly with duplicates — the
/// construction paths must canonicalize identically).
fn arb_instance() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (1usize..160, 2usize..8).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0usize..n, 0..n), m)
            .prop_map(move |lists| (n, lists))
    })
}

/// Elements per chunk of the chunked layout (`2^16`).
const CHUNK: usize = 1 << 16;

/// Multi-chunk instances: three full chunks plus a ragged fourth, so every
/// chunked operand spans several containers and the pair kernels must
/// merge container keys. Each set mixes the three container kinds:
/// runs placed up to 80 elements either side of a chunk boundary (run
/// containers, crossing the boundary), scattered singletons (array
/// containers) and, in about half the sets, a half-full stretch over the
/// ragged last chunk (a bitmap container there, since `card > span/16`).
fn arb_multi_chunk_instance() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (64usize..2048, 2usize..5).prop_flat_map(|(ragged, m)| {
        let n = 3 * CHUNK + ragged;
        let set = (
            proptest::collection::vec((0usize..4, 0usize..160, 1usize..200), 0..6),
            proptest::collection::vec(0usize..n, 0..40),
            (0usize..2, 0usize..ragged),
        )
            .prop_map(move |(runs, singles, (bitmap, from))| {
                let mut v = singles;
                for (k, off, len) in runs {
                    let start = (k * CHUNK + off).saturating_sub(80);
                    v.extend((start..start + len).filter(|&e| e < n));
                }
                if bitmap == 1 {
                    v.extend((3 * CHUNK + from / 2..n).step_by(2));
                }
                v
            });
        (Just(n), proptest::collection::vec(set, m))
    })
}

fn build(n: usize, lists: &[Vec<usize>], policy: ReprPolicy) -> SetSystem {
    let mut sys = SetSystem::with_policy(n, policy);
    for l in lists {
        sys.push_elems(l.iter().copied());
    }
    sys
}

fn reference_bitsets(n: usize, lists: &[Vec<usize>]) -> Vec<BitSet> {
    lists
        .iter()
        .map(|l| BitSet::from_iter(n, l.iter().copied()))
        .collect()
}

fn check_pairwise_algebra(n: usize, lists: Vec<Vec<usize>>) -> Result<(), TestCaseError> {
    {
        let systems: Vec<SetSystem> = POLICIES.iter().map(|&p| build(n, &lists, p)).collect();
        let refs = reference_bitsets(n, &lists);

        for i in 0..lists.len() {
            for j in 0..lists.len() {
                let expect_inter = refs[i].intersection_len(&refs[j]);
                let expect_union = refs[i].union_len(&refs[j]);
                let expect_diff = refs[i].difference_len(&refs[j]);
                let expect_ham = refs[i].hamming_distance(&refs[j]);
                let expect_disj = refs[i].is_disjoint(&refs[j]);
                let expect_sub = refs[i].is_subset_of(&refs[j]);
                // Every backend pairing — all 25 policy combinations, which
                // exercises the full 4×4 representation kernel matrix.
                for sa in &systems {
                    for sb in &systems {
                        let (a, b) = (sa.set(i), sb.set(j));
                        prop_assert_eq!(a.intersection_len(b), expect_inter);
                        prop_assert_eq!(a.union_len(b), expect_union);
                        prop_assert_eq!(a.difference_len(b), expect_diff);
                        prop_assert_eq!(a.hamming_distance(b), expect_ham);
                        prop_assert_eq!(a.is_disjoint(b), expect_disj);
                        prop_assert_eq!(a.is_subset_of(b), expect_sub);
                        prop_assert_eq!(a.union(b), refs[i].union(&refs[j]));
                        prop_assert_eq!(a.intersection(b), refs[i].intersection(&refs[j]));
                    }
                }
            }
        }
    }

    Ok(())
}

fn check_views_and_aggregates(n: usize, lists: Vec<Vec<usize>>) -> Result<(), TestCaseError> {
    {
        let systems: Vec<SetSystem> = POLICIES.iter().map(|&p| build(n, &lists, p)).collect();
        let auto = systems.last().unwrap();
        let refs = reference_bitsets(n, &lists);

        for sys in &systems {
            prop_assert_eq!(sys, &systems[0]);
            for (i, s) in sys.iter() {
                prop_assert_eq!(s.len(), refs[i].len());
                prop_assert_eq!(s.is_empty(), refs[i].is_empty());
                prop_assert_eq!(s.to_vec(), refs[i].to_vec());
                prop_assert_eq!(s.to_bitset(), refs[i].clone());
                prop_assert_eq!(s, &refs[i]);
                for e in [0, n / 2, n - 1, n, n + 7] {
                    prop_assert_eq!(s.contains(e), refs[i].contains(e));
                }
                // Paper-accounting figures are representation-independent…
                prop_assert_eq!(s.stored_bits_sparse(), refs[i].stored_bits_sparse());
                prop_assert_eq!(s.stored_bits_dense(), refs[i].stored_bits_dense());
                // …and the actual charge matches the backend: the two model
                // costs exactly for the modeled reprs, measured encoded size
                // (whole arena words, so nonzero iff the set is) for the
                // compressed ones.
                match s.repr() {
                    SetRepr::Sparse => prop_assert_eq!(s.stored_bits(), s.stored_bits_sparse()),
                    SetRepr::Dense => prop_assert_eq!(s.stored_bits(), s.stored_bits_dense()),
                    SetRepr::Chunked | SetRepr::EliasFano => {
                        prop_assert_eq!(s.stored_bits() > 0, !s.is_empty());
                        prop_assert_eq!(s.stored_bits() % 32, 0);
                    }
                }
            }
            prop_assert_eq!(
                sys.total_incidences(),
                refs.iter().map(|r| r.len()).sum::<usize>()
            );
            let all: Vec<usize> = (0..lists.len()).collect();
            let mut cov = BitSet::new(n);
            for r in &refs {
                cov.union_with(r);
            }
            prop_assert_eq!(sys.coverage(&all), cov.clone());
            prop_assert_eq!(sys.coverage_len(&all), cov.len());
            prop_assert_eq!(sys.is_coverable(), cov.is_full());
            // Auto's measured argmin is no worse than any forcing.
            prop_assert!(auto.stored_bits() <= sys.stored_bits());
        }
    }

    Ok(())
}

#[allow(clippy::needless_range_loop)] // `i` indexes `refs` and two systems
fn check_mutation_kernels(
    n: usize,
    lists: Vec<Vec<usize>>,
    acc_elems: Vec<usize>,
) -> Result<(), TestCaseError> {
    {
        let systems: Vec<SetSystem> = POLICIES.iter().map(|&p| build(n, &lists, p)).collect();
        let acc0 = BitSet::from_iter(n, acc_elems.into_iter().filter(|&e| e < n));
        let refs = reference_bitsets(n, &lists);

        for i in 0..lists.len() {
            // union into an accumulator
            let mut expect = acc0.clone();
            expect.union_with(&refs[i]);
            for sys in &systems {
                let mut got = acc0.clone();
                got.union_with_ref(sys.set(i));
                prop_assert_eq!(&got, &expect);
            }
            // difference out of an accumulator
            let mut expect = acc0.clone();
            expect.difference_with(&refs[i]);
            for sys in &systems {
                let mut got = acc0.clone();
                got.difference_with_ref(sys.set(i));
                prop_assert_eq!(&got, &expect);
            }
            // SetRef × BitSet-view kernels
            for sys in &systems {
                let s = sys.set(i);
                prop_assert_eq!(
                    s.intersection_len(acc0.as_set_ref()),
                    refs[i].intersection_len(&acc0)
                );
                prop_assert_eq!(
                    s.difference_len(acc0.as_set_ref()),
                    refs[i].difference_len(&acc0)
                );
                prop_assert_eq!(
                    s.intersection_elems(&acc0)
                        .into_iter()
                        .map(|e| e as usize)
                        .collect::<Vec<_>>(),
                    refs[i].intersection(&acc0).to_vec()
                );
            }
        }
    }

    Ok(())
}

/// The forced-tier battery: the intersection kernel (which the union,
/// difference and Hamming counts are inclusion–exclusion over), every
/// backend pairing, both tiers where supported — all pinned byte-equal to
/// the `BitSet` reference. An unsupported `Avx2` is skipped with an
/// explicit log line (so a CI container without AVX2 still shows the
/// dispatch logic ran and which tier it could not execute) rather than
/// silently passing.
fn check_tiered_kernels(n: usize, lists: Vec<Vec<usize>>) -> Result<(), TestCaseError> {
    {
        let systems: Vec<SetSystem> = POLICIES.iter().map(|&p| build(n, &lists, p)).collect();
        let refs = reference_bitsets(n, &lists);

        for tier in KernelTier::ALL {
            if !tier.is_supported() {
                eprintln!(
                    "skipping kernel tier {}: not supported on this CPU (detected {})",
                    tier.name(),
                    KernelTier::detect().name()
                );
                continue;
            }
            for i in 0..lists.len() {
                for j in 0..lists.len() {
                    for sa in &systems {
                        for sb in &systems {
                            let (a, b) = (sa.set(i), sb.set(j));
                            prop_assert_eq!(
                                a.intersection_len_tier(b, tier),
                                refs[i].intersection_len(&refs[j]),
                                "intersection tier {} ({}×{})",
                                tier.name(),
                                i,
                                j
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn check_projection_and_subsystem(n: usize, lists: Vec<Vec<usize>>) -> Result<(), TestCaseError> {
    {
        let systems: Vec<SetSystem> = POLICIES.iter().map(|&p| build(n, &lists, p)).collect();
        let dom = BitSet::from_iter(n, (0..n).filter(|e| e % 3 != 1));
        let pick: Vec<usize> = (0..lists.len()).rev().collect();
        for sys in &systems[1..] {
            prop_assert_eq!(systems[0].project(&dom), sys.project(&dom));
            prop_assert_eq!(
                systems[0].subsystem(pick.iter().copied()),
                sys.subsystem(pick.iter().copied())
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pairwise_algebra_agrees_across_backends(case in arb_instance()) {
        let (n, lists) = case;
        check_pairwise_algebra(n, lists)?;
    }

    #[test]
    fn views_and_aggregates_agree_across_backends(case in arb_instance()) {
        let (n, lists) = case;
        check_views_and_aggregates(n, lists)?;
    }

    #[test]
    fn bitset_mutation_kernels_agree_across_backends(
        case in arb_instance(),
        acc_elems in proptest::collection::vec(0usize..160, 0..160),
    ) {
        let (n, lists) = case;
        check_mutation_kernels(n, lists, acc_elems)?;
    }

    #[test]
    fn projection_and_subsystem_agree_across_backends(case in arb_instance()) {
        let (n, lists) = case;
        check_projection_and_subsystem(n, lists)?;
    }

    #[test]
    fn counting_kernels_agree_across_forced_tiers(case in arb_instance()) {
        let (n, lists) = case;
        check_tiered_kernels(n, lists)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pairwise_algebra_agrees_across_backends_on_multi_chunk_sets(
        case in arb_multi_chunk_instance(),
    ) {
        let (n, lists) = case;
        check_pairwise_algebra(n, lists)?;
    }

    #[test]
    fn counting_kernels_agree_across_forced_tiers_on_multi_chunk_sets(
        case in arb_multi_chunk_instance(),
    ) {
        let (n, lists) = case;
        check_tiered_kernels(n, lists)?;
    }
}

/// Builds a runs-structured Zipf catalog: the set of popularity rank `r` is
/// a union of `≈ nblocks/2/(r+1)` contiguous episode runs, one per sampled
/// 2048-element block. This is the regime compressed containers exist
/// for — run-heavy event catalogs where a per-element sparse list pays
/// `⌈log₂ n⌉` bits for every element of every run.
fn runs_zipf_catalog(rng: &mut StdRng, n: usize, m: usize) -> Vec<Vec<(u32, u32)>> {
    const BLOCK: u32 = 2048;
    let nblocks = (n as u32 / BLOCK) as usize;
    let mut idx: Vec<u32> = (0..nblocks as u32).collect();
    (0..m)
        .map(|r| {
            let want = (nblocks / 2 / (r + 1)).max(1);
            // Partial Fisher–Yates: `want` distinct blocks.
            for i in 0..want {
                let j = rng.gen_range(i..nblocks);
                idx.swap(i, j);
            }
            let mut picks = idx[..want].to_vec();
            picks.sort_unstable();
            picks
                .iter()
                .map(|&b| {
                    let off = rng.gen_range(0..BLOCK as usize / 2) as u32;
                    // Cap below the block end so runs from adjacent blocks
                    // never touch and every episode stays distinct.
                    let len = 1 + rng.gen_range(0..(BLOCK - off - 1) as usize) as u32;
                    (b * BLOCK + off, len)
                })
                .collect()
        })
        .collect()
}

/// The compression claim on the runs-structured Zipf catalog
/// (`n = 2^20`, `m = 256`): the chunked layout stores ≤ 0.6× the bits of
/// the better flat (sparse/dense) layout, and `Auto`, the measured argmin,
/// stores no more than any forcing. Every store layout (and `Auto`) swept
/// against the residual in every layout — a non-bitmap residual is
/// materialized once and swept as a bitmap — and the columnar walk over a
/// bitmap residual reproduce the per-set kernel's gains vector.
#[test]
fn chunked_compresses_runs_zipf_catalog_and_every_sweep_pairing_agrees() {
    const FORCED: [ReprPolicy; 4] = [
        ReprPolicy::ForceSparse,
        ReprPolicy::ForceDense,
        ReprPolicy::ForceChunked,
        ReprPolicy::ForceEliasFano,
    ];
    let (n, m) = (1 << 20, 256);
    let mut rng = StdRng::seed_from_u64(2017 ^ 0x4e47_0de5);
    let catalog = runs_zipf_catalog(&mut rng, n, m);
    let build = |policy: ReprPolicy| -> SetSystem {
        let mut sys = SetSystem::with_policy(n, policy);
        for runs in &catalog {
            sys.push_runs(runs);
        }
        sys
    };
    let stores: Vec<SetSystem> = FORCED.iter().map(|&p| build(p)).collect();
    let auto = build(ReprPolicy::Auto);

    let bits: Vec<u64> = stores.iter().map(SetSystem::stored_bits).collect();
    let best_flat = bits[0].min(bits[1]).max(1);
    let chunked_ratio = bits[2] as f64 / best_flat as f64;
    assert!(
        chunked_ratio <= 0.6,
        "chunked ratio {chunked_ratio:.3} > 0.6x best-of-sparse/dense (bits {bits:?})"
    );
    let best = *bits.iter().min().unwrap();
    assert!(
        auto.stored_bits() <= best,
        "auto stored_bits {} exceeds best forcing {best} (bits {bits:?})",
        auto.stored_bits()
    );

    // A residual over about half the universe, run-structured like the
    // catalog, in every layout via one-set stores.
    let mut residual_runs: Vec<(u32, u32)> = Vec::new();
    for b in 0..n as u32 / 2048 {
        if rng.gen_bool(0.5) {
            residual_runs.push((b * 2048, 1 + rng.gen_range(0u32..1024)));
        }
    }
    let rstores: Vec<SetStore> = FORCED
        .iter()
        .map(|&p| {
            let mut st = SetStore::with_policy(n, p);
            st.push_runs(&residual_runs);
            st
        })
        .collect();
    let residual = rstores[0].get(0).to_bitset();
    let expect: Vec<usize> = (0..m)
        .map(|i| stores[0].set(i).intersection_len(residual.as_set_ref()))
        .collect();

    let mut sweep = BatchedSweep::new();
    for (si, st) in stores.iter().chain(std::iter::once(&auto)).enumerate() {
        assert_eq!(
            sweep.gains(st.store(), &residual),
            &expect[..],
            "columnar gains diverged for store {si}"
        );
        for (ri, rs) in rstores.iter().enumerate() {
            assert_eq!(
                sweep.gains_vs_ref(st.store(), rs.get(0)),
                &expect[..],
                "gains diverged for store {si} × residual {ri}"
            );
        }
    }
}

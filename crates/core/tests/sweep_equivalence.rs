//! Property tests: `BatchedSweep` gains must match the per-set
//! `intersection_len` kernel bit-for-bit across every pairing of stored
//! representation (sparse / dense / chunked / Elias–Fano arenas) and
//! residual representation (dense bitmap view, sparse list view, and the
//! compressed views), on arbitrary systems.

use proptest::prelude::*;
use streamcover_core::{BatchedSweep, BitSet, KernelTier, ReprPolicy, SetStore};

/// Every storage policy the sweep must be bit-equal under.
const POLICIES: [ReprPolicy; 5] = [
    ReprPolicy::ForceSparse,
    ReprPolicy::ForceDense,
    ReprPolicy::ForceChunked,
    ReprPolicy::ForceEliasFano,
    ReprPolicy::Auto,
];

/// Strategy: `(universe, element lists, residual elements)`.
fn arb_instance() -> impl Strategy<Value = (usize, Vec<Vec<usize>>, Vec<usize>)> {
    (1usize..160, 0usize..14).prop_flat_map(|(n, m)| {
        (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(0usize..n, 0..n), m),
            proptest::collection::vec(0usize..n, 0..n),
        )
    })
}

fn store_of(policy: ReprPolicy, n: usize, lists: &[Vec<usize>]) -> SetStore {
    let mut st = SetStore::with_policy(n, policy);
    for l in lists {
        st.push_elems(l.iter().copied());
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_matches_per_set_kernel_across_all_repr_pairings(inst in arb_instance()) {
        let (n, lists, resid) = inst;
        let residual = BitSet::from_iter(n, resid.iter().copied());
        // Residual as a view in every forced representation, via one-set
        // stores (index 4 is Auto — skipped; the dense view covers it).
        let rstores: Vec<SetStore> = POLICIES[..4]
            .iter()
            .map(|&p| {
                let mut st = SetStore::with_policy(n, p);
                st.push_elems(residual.iter());
                st
            })
            .collect();

        for policy in POLICIES {
            let st = store_of(policy, n, &lists);
            let expect: Vec<usize> = (0..st.len())
                .map(|i| st.get(i).intersection_len(residual.as_set_ref()))
                .collect();
            let mut sweep = BatchedSweep::new();
            // Dense residual: the columnar arena walk.
            prop_assert_eq!(sweep.gains(&st, &residual), &expect[..]);
            // Dense residual as a SetRef view.
            prop_assert_eq!(sweep.gains_vs_ref(&st, residual.as_set_ref()), &expect[..]);
            // Residual in every stored representation (a non-dense one is
            // materialized as a bitmap once, then swept columnarly).
            for rs in &rstores {
                prop_assert_eq!(sweep.gains_vs_ref(&st, rs.get(0)), &expect[..]);
            }
        }
    }

    #[test]
    fn sweep_matches_scalar_reference_under_every_forced_tier(inst in arb_instance()) {
        // The forced-tier knob: the same sweep shapes as above, but with
        // the kernel tier pinned — `Avx2`, where supported, must reproduce
        // the Scalar tier byte-for-byte; an unsupported tier is skipped
        // with an explicit log line, never silently.
        let (n, lists, resid) = inst;
        let residual = BitSet::from_iter(n, resid.iter().copied());
        let mut rstore = SetStore::with_policy(n, ReprPolicy::ForceSparse);
        rstore.push_elems(residual.iter());
        let rsparse = rstore.get(0);

        for policy in POLICIES {
            let st = store_of(policy, n, &lists);
            let reference = BatchedSweep::with_tier(KernelTier::Scalar)
                .gains(&st, &residual)
                .to_vec();
            for tier in KernelTier::ALL {
                if !tier.is_supported() {
                    eprintln!(
                        "skipping kernel tier {}: not supported on this CPU (detected {})",
                        tier.name(),
                        KernelTier::detect().name()
                    );
                    continue;
                }
                let mut sweep = BatchedSweep::with_tier(tier);
                prop_assert_eq!(sweep.gains(&st, &residual), &reference[..],
                    "dense residual, tier {}", tier.name());
                prop_assert_eq!(sweep.gains_vs_ref(&st, residual.as_set_ref()), &reference[..],
                    "dense view residual, tier {}", tier.name());
                prop_assert_eq!(sweep.gains_vs_ref(&st, rsparse), &reference[..],
                    "sparse residual, tier {}", tier.name());
                if !st.is_empty() {
                    prop_assert_eq!(sweep.gains_span(&st, 0..st.len() - 1, &residual),
                        &reference[..st.len() - 1],
                        "gains_span, tier {}", tier.name());
                }
            }
        }
    }

    #[test]
    fn sweep_best_matches_eager_argmax(inst in arb_instance()) {
        let (n, lists, resid) = inst;
        let residual = BitSet::from_iter(n, resid.iter().copied());
        let st = store_of(ReprPolicy::Auto, n, &lists);
        let mut sweep = BatchedSweep::new();
        sweep.gains(&st, &residual);
        // Reference argmax with the greedy tie-break (largest gain, then
        // smallest id), None when every gain is zero.
        let mut expect: Option<(usize, usize)> = None;
        for i in 0..st.len() {
            let g = st.get(i).intersection_len(residual.as_set_ref());
            match expect {
                Some((_, b)) if b >= g => {}
                _ if g > 0 => expect = Some((i, g)),
                _ => {}
            }
        }
        prop_assert_eq!(sweep.best(), expect);
    }
}

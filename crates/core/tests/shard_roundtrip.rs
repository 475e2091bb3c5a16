//! Property tests for fan-out over the one flat arena: on arbitrary
//! systems, set-range shards copied into private arenas (serially or as
//! parallel runtime work items) must merge back through
//! `SetSystem::from_shard_stores` to a semantically equal system under
//! **every** `ReprPolicy`, and the zero-copy `shards()` span sweeps must
//! agree with the unsharded `BatchedSweep`.

use proptest::prelude::*;
use streamcover_core::{BatchedSweep, BitSet, ReprPolicy, Runtime, SetStore, SetSystem};

/// Strategy: `(universe, element lists, residual elements, shard count)`.
fn arb_instance() -> impl Strategy<Value = (usize, Vec<Vec<usize>>, Vec<usize>, usize)> {
    (1usize..140, 0usize..12).prop_flat_map(|(n, m)| {
        (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(0usize..n, 0..n), m),
            proptest::collection::vec(0usize..n, 0..n),
            1usize..9,
        )
    })
}

fn system_of(policy: ReprPolicy, n: usize, lists: &[Vec<usize>]) -> SetSystem {
    let mut sys = SetSystem::with_policy(n, policy);
    for l in lists {
        sys.push_elems(l.iter().copied());
    }
    sys
}

const POLICIES: [ReprPolicy; 5] = [
    ReprPolicy::ForceSparse,
    ReprPolicy::ForceDense,
    ReprPolicy::ForceChunked,
    ReprPolicy::ForceEliasFano,
    ReprPolicy::Auto,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_round_trip_under_every_plan_and_policy(inst in arb_instance()) {
        let (n, lists, _, k) = inst;
        for policy in POLICIES {
            let sys = system_of(policy, n, &lists);
            let shards = sys.shards(k);
            prop_assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), sys.len());
            // Shard-local reads agree with the flat system.
            for shard in &shards {
                for (j, i) in shard.ids().enumerate() {
                    prop_assert_eq!(shard.get(j), sys.set(i));
                }
            }
            // Private per-shard arenas (copied from the views) merge back
            // to the original system, representations verbatim.
            let stores: Vec<SetStore> = shards
                .iter()
                .map(|s| sys.subsystem(s.ids()).into_store())
                .collect();
            let back = SetSystem::from_shard_stores(n, policy, &stores);
            prop_assert_eq!(&back, &sys);
            prop_assert_eq!(back.repr_counts(), sys.repr_counts());
            prop_assert_eq!(back.stored_bits(), sys.stored_bits());
        }
    }

    #[test]
    fn parallel_construction_matches_into_sharded(inst in arb_instance()) {
        let (n, lists, _, k) = inst;
        // Per-range arenas built from sorted lists as runtime work items
        // (the parallel construction path) and arenas copied out of the
        // zero-copy shard views must hold the same sets and merge to the
        // flat build.
        for policy in POLICIES {
            let sys = system_of(policy, n, &lists);
            let shards = sys.shards(k);
            let copied: Vec<SetSystem> = shards.iter().map(|s| sys.subsystem(s.ids())).collect();
            let ranges: Vec<_> = shards.iter().map(|s| s.ids()).collect();
            let built = Runtime::global().map_parts(&ranges, |r| {
                let mut st = SetStore::with_policy(n, policy);
                for i in r.clone() {
                    let elems: Vec<u32> = sys.set(i).iter().map(|e| e as u32).collect();
                    st.push_sorted(&elems);
                }
                st
            });
            prop_assert_eq!(built.len(), copied.len());
            for (b, c) in built.iter().zip(&copied) {
                prop_assert_eq!(&SetSystem::from_store(b.clone()), c);
            }
            prop_assert_eq!(&SetSystem::from_shard_stores(n, policy, &built), &sys);
        }
    }

    #[test]
    fn sharded_sweeps_match_unsharded(inst in arb_instance()) {
        let (n, lists, resid, k) = inst;
        let residual = BitSet::from_iter(n, resid.iter().copied());
        for policy in POLICIES {
            let sys = system_of(policy, n, &lists);
            let mut sweep = BatchedSweep::new();
            let expect = sweep.gains(sys.store(), &residual).to_vec();
            // Zero-copy shard views: span sweeps concatenate to the gains
            // vector (same arena, no copies).
            let mut cat = Vec::new();
            for shard in sys.shards(k) {
                cat.extend_from_slice(shard.gains(&mut sweep, &residual));
            }
            prop_assert_eq!(&cat, &expect);
        }
    }
}

//! Cross-crate property tests (proptest): the invariants every component
//! must satisfy on arbitrary inputs, including the compaction that
//! `CoverService` runs under churn.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use streamcover::dist::{sample_dsc_with_theta, MappingExtension, ScParams};
use streamcover::prelude::*;

/// Strategy: a random set system over a small universe.
fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..24, 1usize..10).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0usize..n, 0..n), m)
            .prop_map(move |lists| SetSystem::from_elements(n, &lists))
    })
}

/// Strategy: canonical (strictly increasing) element lists over `[n]`.
fn arb_lists() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    (2usize..24, 1usize..10).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 0..n), m).prop_map(
            move |mut lists| {
                for l in &mut lists {
                    l.sort_unstable();
                    l.dedup();
                }
                (n, lists)
            },
        )
    })
}

fn build(n: usize, lists: &[Vec<u32>]) -> SetSystem {
    let mut sys = SetSystem::new(n);
    for l in lists {
        sys.add_set(l);
    }
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_cover_is_feasible_iff_coverable(sys in arb_system()) {
        let r = greedy_set_cover(&sys);
        prop_assert_eq!(r.is_feasible(), sys.is_coverable());
        // Greedy never picks redundant zero-gain sets.
        prop_assert!(r.size() <= sys.universe().max(1));
    }

    #[test]
    fn exact_never_exceeds_greedy(sys in arb_system()) {
        let g = greedy_set_cover(&sys);
        match exact_set_cover(&sys) {
            Ok(e) => {
                let opt = e.size();
                prop_assert!(g.is_feasible());
                prop_assert!(opt <= g.size());
                // Greedy's H(n) guarantee.
                let h: f64 = (1..=sys.universe().max(1)).map(|i| 1.0 / i as f64).sum();
                prop_assert!((g.size() as f64) <= h * opt as f64 + 1e-9);
            }
            Err(CoverError::Infeasible { element }) => {
                prop_assert!(!g.is_feasible());
                // The witness element really is uncoverable.
                prop_assert!(sys.uncoverable_elements().contains(element));
            }
        }
    }

    #[test]
    fn exact_max_coverage_dominates_greedy_and_caps_at_k(
        sys in arb_system(),
        k in 0usize..5,
    ) {
        let (ids, cov) = exact_max_coverage(&sys, k);
        prop_assert!(ids.len() <= k);
        prop_assert_eq!(sys.coverage_len(&ids), cov);
        let g = greedy_max_coverage(&sys, k);
        prop_assert!(cov >= g.coverage());
        // (1 − 1/e) bound.
        prop_assert!(g.coverage() as f64 >= 0.63 * cov as f64 - 1e-9);
    }

    #[test]
    fn threshold_greedy_streaming_matches_offline_feasibility(sys in arb_system()) {
        let mut rng = StdRng::seed_from_u64(0);
        let run = ThresholdGreedy.run(&sys, Arrival::Adversarial, &mut rng);
        prop_assert_eq!(run.feasible, sys.is_coverable());
        if run.feasible {
            prop_assert!(sys.is_cover(&run.solution));
        }
    }

    #[test]
    fn mapping_extension_partitions(tn in (1usize..12).prop_flat_map(|t| (Just(t), t..40))) {
        let (t, n) = tn;
        let mut rng = StdRng::seed_from_u64((t * 1000 + n) as u64);
        let f = MappingExtension::sample(&mut rng, t, n);
        let mut seen = BitSet::new(n);
        let mut total = 0;
        for i in 0..t {
            let b = f.block(i);
            prop_assert!(b.is_disjoint(&seen));
            total += b.len();
            seen.union_with(&b);
        }
        prop_assert_eq!(total, n);
        // f(A) respects unions.
        let a = BitSet::from_iter(t, (0..t).filter(|i| i % 2 == 0));
        let fa = f.extend(&a);
        for e in 0..n {
            prop_assert_eq!(fa.contains(e), a.contains(f.block_of(e)));
        }
    }

    #[test]
    fn dsc_structure_invariants(seed in 0u64..500, theta in proptest::bool::ANY) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = ScParams::explicit(96, 4, 12);
        let inst = sample_dsc_with_theta(&mut rng, p, theta);
        for i in 0..p.m {
            // S_i ∪ T_i = [n] \ f_i(A_i ∩ B_i) — Remark 3.1-(iii).
            let union = inst.alice.set(i).union(inst.bob.set(i));
            let miss = inst.mappings[i].extend(&inst.disj[i].intersection());
            prop_assert_eq!(union, miss.complement());
        }
        match inst.i_star {
            Some(i) => {
                prop_assert!(theta);
                prop_assert!(inst.pair_covers(i));
                prop_assert!(inst.combined().is_cover(&inst.planted_cover().unwrap()));
            }
            None => {
                prop_assert!(!theta);
                for i in 0..p.m {
                    prop_assert!(!inst.pair_covers(i));
                }
            }
        }
    }

    #[test]
    fn bitset_algebra_laws(
        n in 1usize..80,
        xs in proptest::collection::vec(0usize..80, 0..40),
        ys in proptest::collection::vec(0usize..80, 0..40),
    ) {
        let a = BitSet::from_iter(n, xs.into_iter().filter(|&e| e < n));
        let b = BitSet::from_iter(n, ys.into_iter().filter(|&e| e < n));
        // De Morgan.
        prop_assert_eq!(
            a.union(&b).complement(),
            a.complement().intersection(&b.complement())
        );
        // |A| + |B| = |A∪B| + |A∩B|.
        prop_assert_eq!(a.len() + b.len(), a.union_len(&b) + a.intersection_len(&b));
        // Δ(A,B) = |A∪B| − |A∩B|.
        prop_assert_eq!(a.hamming_distance(&b), a.union_len(&b) - a.intersection_len(&b));
        // Difference partition.
        prop_assert_eq!(a.difference_len(&b) + a.intersection_len(&b), a.len());
    }

    #[test]
    fn space_meter_never_underflows_in_algorithms(seed in 0u64..40) {
        // Running Algorithm 1 end to end must keep the meter consistent
        // (release() panics on underflow — so surviving the run is the
        // assertion).
        let mut rng = StdRng::seed_from_u64(seed);
        let w = planted_cover(&mut rng, 128, 12, 3);
        let run = HarPeledAssadi::scaled(2, 0.5).run(&w.system, Arrival::Random { seed }, &mut rng);
        prop_assert!(run.feasible);
        prop_assert!(run.peak_bits > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Answers commute with compaction modulo the id remap.
    #[test]
    fn compact_then_solve_equals_solve_then_remap(
        input in arb_lists(),
        removal_mask in proptest::collection::vec(proptest::bool::ANY, 10),
    ) {
        let (n, lists) = input;
        let mut sys = build(n, &lists);
        for (id, &kill) in removal_mask.iter().take(sys.len()).enumerate() {
            if kill {
                sys.remove_set(id);
            }
        }
        let before = sys.clone();
        let mut compacted = sys.clone();
        let map = compacted.compact();
        prop_assert_eq!(map.len_before(), before.len());
        prop_assert_eq!(map.len_after(), compacted.len());
        prop_assert_eq!(compacted.tombstone_bits(), 0);

        // Offline greedy on the tombstoned system vs the compacted one.
        let old = greedy_set_cover(&before);
        let new = greedy_set_cover(&compacted);
        prop_assert_eq!(map.remap_ids(&old.ids), new.ids.clone());
        prop_assert_eq!(old.coverage(), new.coverage());
        prop_assert_eq!(old.is_feasible(), new.is_feasible());

        // Streaming threshold greedy: the pick sequence remaps too.
        let so = ThresholdGreedy.run(&before, Arrival::Adversarial,
            &mut StdRng::seed_from_u64(3));
        let sn = ThresholdGreedy.run(&compacted, Arrival::Adversarial,
            &mut StdRng::seed_from_u64(3));
        prop_assert_eq!(map.remap_ids(&so.solution), sn.solution);
        prop_assert_eq!(so.feasible, sn.feasible);
    }

    // Compaction without tombstones changes nothing.
    #[test]
    fn tombstone_free_compaction_is_a_semantic_noop(input in arb_lists()) {
        let (n, lists) = input;
        let mut sys = build(n, &lists);
        let orig = sys.clone();
        let map = sys.compact();
        prop_assert!(map.is_identity());
        prop_assert_eq!(&sys, &orig);
        prop_assert_eq!(sys.stored_bits(), orig.stored_bits());
    }
}

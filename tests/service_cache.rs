//! Property: `CoverService`'s epoch cache is invisible in answers. For
//! arbitrary interleavings of queries and mutations (driven from proptest
//! op sequences against a shadow system mutated identically), no
//! post-mutation query ever returns a pre-mutation cached answer — every
//! answer carries the shadow's exact epoch and byte-matches a fresh
//! computation on the shadow — and repeat queries on an unchanged epoch
//! are served from the cache (the hit counter exposed via
//! `CoverService::stats` must advance).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use streamcover::core::random_subset_elems;
use streamcover::prelude::*;

fn base_system() -> SetSystem {
    let mut rng = StdRng::seed_from_u64(2017);
    planted_cover(&mut rng, 64, 12, 3).system
}

/// The fixed pool of subset targets queries draw from.
fn pool(n: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..4)
        .map(|i| random_subset_elems(&mut rng, n, 4 + 5 * i))
        .collect()
}

/// Asserts `answer` equals a fresh sequential computation on `shadow`.
fn check_cover(
    shadow: &SetSystem,
    target: &[u32],
    answer: &CoverAnswer,
) -> Result<(), TestCaseError> {
    let tb = BitSet::from_iter(shadow.universe(), target.iter().map(|&e| e as usize));
    let fresh = greedy_cover_until(shadow, usize::MAX, &tb);
    prop_assert_eq!(answer.epoch, shadow.epoch(), "stale epoch served");
    prop_assert_eq!(&answer.solution, &fresh.ids);
    prop_assert_eq!(answer.covered, fresh.coverage());
    prop_assert_eq!(answer.feasible, fresh.coverage() == tb.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_is_invisible_under_arbitrary_interleavings(
        ops in proptest::collection::vec((0usize..7, 0usize..4, 0usize..16), 1..40),
    ) {
        let shadow_src = base_system();
        let svc = CoverService::new(shadow_src.clone());
        let mut shadow = shadow_src;
        let n = shadow.universe();
        let m0 = shadow.len();
        let targets = pool(n);

        for &(kind, t, misc) in &ops {
            match kind {
                // Mutations: applied identically to the shadow; epochs must
                // track exactly.
                0 => {
                    let mut seed_rng = StdRng::seed_from_u64(misc as u64);
                    let elems = random_subset_elems(&mut seed_rng, n, 1 + misc % 12);
                    let (epoch, id) = svc.add_set(&elems);
                    let shadow_id = shadow.add_set(&elems);
                    prop_assert_eq!(id, shadow_id);
                    prop_assert_eq!(epoch, shadow.epoch());
                }
                1 => {
                    let id = misc % m0;
                    let epoch = svc.remove_set(id);
                    shadow.remove_set(id);
                    prop_assert_eq!(epoch, shadow.epoch());
                }
                // Subset queries: fresh-equal, and an immediate repeat on
                // the unchanged epoch must be a cache hit.
                2..=4 => {
                    let target = &targets[t];
                    let a = svc.cover_for_subset(target);
                    check_cover(&shadow, target, &a)?;
                    let hits_before = svc.stats().cache_hits;
                    let b = svc.cover_for_subset(target);
                    prop_assert_eq!(&a, &b, "same-epoch repeat changed");
                    prop_assert_eq!(
                        svc.stats().cache_hits,
                        hits_before + 1,
                        "same-epoch repeat must hit the cache"
                    );
                }
                // Budgeted max-cover: chain answers fresh-equal; repeats on
                // an already-drawn prefix are hits.
                _ => {
                    let k = misc % 8;
                    let a = svc.max_cover(k);
                    let fresh = greedy_max_coverage(&shadow, k);
                    prop_assert_eq!(a.epoch, shadow.epoch(), "stale epoch served");
                    prop_assert_eq!(&a.solution, &fresh.ids);
                    prop_assert_eq!(a.covered, fresh.coverage());
                    let hits_before = svc.stats().cache_hits;
                    let b = svc.max_cover(k);
                    prop_assert_eq!(&a, &b, "same-epoch repeat changed");
                    prop_assert_eq!(
                        svc.stats().cache_hits,
                        hits_before + 1,
                        "drawn-prefix repeat must hit the chain"
                    );
                }
            }
        }

        // Bookkeeping identity: every query is exactly one of
        // hit / coalesced / computed, and the shadow tracked every epoch.
        let s = svc.stats();
        prop_assert_eq!(s.epoch, shadow.epoch());
        prop_assert_eq!(s.coalesced, 0, "single-threaded driver never coalesces");
        prop_assert_eq!(s.cache_hits + s.computed, s.queries);
    }
}

#[test]
fn malformed_target_panics_without_stranding_later_callers() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    // Runs `f` on its own thread and returns its outcome (`Err` on a
    // panic), failing the test instead of hanging if it never returns.
    fn within<T: Send + 'static>(
        what: &str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        rx.recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("{what} never returned"))
    }

    let svc = Arc::new(CoverService::new(base_system()));
    let n = svc.universe() as u32;
    let bad = vec![3, n, 1];
    let first = catch_unwind(AssertUnwindSafe(|| svc.cover_for_subset(&bad)));
    assert!(first.is_err(), "an element ≥ universe() must panic");

    // An identical query must panic too, not wait on a stranded flight.
    let (s, b) = (Arc::clone(&svc), bad.clone());
    let second = within("a repeated malformed query", move || s.cover_for_subset(&b));
    assert!(second.is_err(), "the repeated malformed query must panic");

    // No read guard is left behind, so a mutation still completes, and a
    // well-formed query still answers at the new epoch.
    let s = Arc::clone(&svc);
    let (epoch, _) = within("add_set", move || s.add_set(&[0, 1])).expect("add_set");
    let s = Arc::clone(&svc);
    let answer =
        within("a valid query", move || s.cover_for_subset(&[0, 1, 2])).expect("valid query");
    assert_eq!(answer.epoch, epoch);
    assert!(answer.feasible);
}

//! Scheduler stress battery for the pooled `Runtime` (one shared task
//! queue, idle workers sleeping on a condvar): nested scopes under
//! concurrent external submitters, panic propagation while workers are
//! mid-pickup, shutdown racing the idle backoff and sleep, and a property
//! test interleaving spawn/pickup/sleep across pool widths — all asserting
//! **no task is lost and none runs twice** via per-task completion
//! counters. In the test names and comments, a worker "steals" when it
//! takes a task off the shared queue, "parks" when it sleeps on the
//! condvar, and the "injector" is that queue.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use streamcover::prelude::Runtime;

/// Per-task exactly-once ledger: one counter per task; every counter must
/// end at exactly 1.
fn assert_exactly_once(counters: &[AtomicUsize], context: &str) {
    for (i, c) in counters.iter().enumerate() {
        let runs = c.load(Ordering::SeqCst);
        assert_eq!(runs, 1, "{context}: task {i} ran {runs} times (want 1)");
    }
}

#[test]
fn nested_scopes_under_concurrent_external_submitters() {
    // One shared pool; 4 external OS threads each drive nested fan-outs
    // into it concurrently. Injection (external), owner pushes (nested
    // spawns from workers), stealing, and submitter-helping all interleave.
    let rt = Arc::new(Runtime::new(4));
    let submitters = 4usize;
    let outer = 6usize;
    let inner = 9usize;
    let counters: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..submitters * outer * inner)
            .map(|_| AtomicUsize::new(0))
            .collect(),
    );
    let barrier = Arc::new(Barrier::new(submitters));
    let handles: Vec<_> = (0..submitters)
        .map(|s| {
            let rt = Arc::clone(&rt);
            let counters = Arc::clone(&counters);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait(); // all submitters hit the pool at once
                let outer_ids: Vec<usize> = (0..outer).collect();
                let sums = rt.map_parts(&outer_ids, |&o| {
                    let inner_ids: Vec<usize> = (0..inner).collect();
                    rt.map_parts(&inner_ids, |&i| {
                        let id = (s * outer + o) * inner + i;
                        counters[id].fetch_add(1, Ordering::SeqCst);
                        id
                    })
                    .into_iter()
                    .sum::<usize>()
                });
                // Each outer part's sum is the arithmetic series of its ids.
                for (o, got) in sums.iter().enumerate() {
                    let base = (s * outer + o) * inner;
                    let expect = (base..base + inner).sum::<usize>();
                    assert_eq!(*got, expect, "submitter {s}, outer {o}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread panicked");
    }
    assert_exactly_once(&counters, "nested × concurrent submitters");
}

#[test]
fn panic_propagation_mid_steal() {
    // Many tasks, a few panickers scattered among them, at a width where
    // thieves are guaranteed to be stealing when panics fire. The scope
    // must resurface a panic AND still run every task exactly once (a
    // panicking sibling never cancels queued work — determinism of the
    // completion set is what the solvers rely on).
    let rt = Runtime::new(8);
    for round in 0..20 {
        let total = 64usize;
        let counters: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                for (id, c) in counters.iter().enumerate() {
                    s.spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                        if id % 17 == 3 {
                            panic!("mid-steal panic {id}");
                        }
                    });
                }
            });
        }))
        .expect_err("a panicking task must surface");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("mid-steal panic"),
            "round {round}: unexpected payload {msg:?}"
        );
        // 64 tasks, panickers at 3, 20, 37, 54 → 3 suppressed siblings.
        assert!(
            msg.contains("3 additional task panic(s) suppressed"),
            "round {round}: suppressed count missing from {msg:?}"
        );
        assert_exactly_once(&counters, "panic round");
    }
    // The pool survives all 20 panicking rounds.
    assert_eq!(rt.map_parts(&[1, 2, 3], |&p: &i32| p + 1), vec![2, 3, 4]);
}

#[test]
fn shutdown_races_backoff_and_park() {
    // Drop the runtime at every phase a worker can be in — mid-run,
    // mid-backoff (immediately after work), and parked (after a sleep) —
    // across widths. Every spawned task still runs exactly once (scopes
    // drain before drop can begin), and every drop joins cleanly.
    for workers in [2usize, 3, 5, 9] {
        for pause_us in [0u64, 50, 500] {
            let rt = Runtime::new(workers);
            let total = 128usize;
            let counters: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            rt.scope(|s| {
                for c in &counters {
                    s.spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            if pause_us > 0 {
                // Let workers fall through backoff into the parked state
                // so drop exercises the park/wake path too.
                std::thread::sleep(std::time::Duration::from_micros(pause_us));
            }
            drop(rt); // must join all workers without hanging or leaking
            assert_exactly_once(&counters, "shutdown race");
        }
    }
}

#[test]
fn external_submission_storm_from_many_threads() {
    // Pure injector-ring pressure: more submitters than workers, each
    // pushing bursts big enough to overflow the rings (the overflow path
    // runs inline on the submitter — still exactly once).
    let rt = Arc::new(Runtime::new(2)); // 1 pool worker → 1 ring to storm
    let submitters = 6usize;
    let per = 600usize; // > 2× the ring capacity, per submitter
    let counters: Arc<Vec<AtomicUsize>> =
        Arc::new((0..submitters * per).map(|_| AtomicUsize::new(0)).collect());
    let handles: Vec<_> = (0..submitters)
        .map(|s| {
            let rt = Arc::clone(&rt);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                rt.scope(|sc| {
                    for i in 0..per {
                        let counters = Arc::clone(&counters);
                        sc.spawn(move || {
                            counters[s * per + i].fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter panicked");
    }
    assert_exactly_once(&counters, "submission storm");
}

/// Random interleavings of spawn (external and nested), steal, and park at
/// one pool width: a random tree of scopes is submitted and every leaf
/// task must complete exactly once. Worker parking is forced into the mix
/// by making some tasks sleep (draining the queues so peers park) and some
/// spawn bursts (waking them).
fn check_interleaving(workers: usize, shape: Vec<(usize, usize)>) -> Result<(), TestCaseError> {
    let rt = Runtime::new(workers);
    let total: usize = shape.iter().map(|&(leaves, _)| leaves).sum();
    let counters: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
    let mut base = 0usize;
    rt.scope(|s| {
        for &(leaves, style) in &shape {
            let my_base = base;
            base += leaves;
            let counters = &counters;
            let rt = &rt;
            s.spawn(move || {
                match style {
                    // Burst: nested fan-out from a worker (owner pushes).
                    0 => {
                        let ids: Vec<usize> = (0..leaves).collect();
                        rt.map_parts(&ids, |&i| {
                            counters[my_base + i].fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    // Slow leaf chain: drains peers into park, then
                    // spawns (forcing unpark on a parked pool).
                    1 => {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        rt.scope(|inner| {
                            for i in 0..leaves {
                                inner.spawn(move || {
                                    counters[my_base + i].fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    }
                    // Inline run on the task itself.
                    _ => {
                        for i in 0..leaves {
                            counters[my_base + i].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });
    for (i, c) in counters.iter().enumerate() {
        prop_assert_eq!(
            c.load(Ordering::SeqCst),
            1,
            "task {} (workers {})",
            i,
            workers
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spawn_steal_park_interleavings_lose_nothing(
        workers in 1usize..9,
        shape in proptest::collection::vec((1usize..24, 0usize..3), 1..12),
    ) {
        check_interleaving(workers, shape)?;
    }
}

//! Integration: `CoverService` linearizability — N worker threads fire
//! interleaved subset covers, budgeted max covers and mutations at one
//! service on the shared global `Runtime`, every answer records the epoch
//! it was served at, and afterwards a *sequential replay* reconstructs each
//! epoch's system from the mutation log and recomputes every sampled answer
//! fresh. Every field of every answer — picks, coverage, feasibility — must
//! be byte-identical to the fresh single-threaded run at its epoch, at
//! 1/2/4/8 threads: caching, coalescing, CELF-chain reuse and the
//! postings-seeded subset covers are execution optimizations only, never
//! visible in an answer. The compaction batteries rerun this under an
//! auto-compaction policy that fires (the postings index is rebuilt over
//! renumbered ids), for every layout forcing and chain fan-outs 1 and 2.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Mutex;
use streamcover::core::random_subset_elems;
use streamcover::prelude::*;

/// One sampled answer, with the query that produced it.
enum Sample {
    /// `cover_for_subset(target)`.
    Subset {
        target: Vec<u32>,
        answer: CoverAnswer,
    },
    /// `max_cover(k)`.
    MaxCover { k: usize, answer: CoverAnswer },
}

impl Sample {
    fn answer(&self) -> &CoverAnswer {
        match self {
            Sample::Subset { answer, .. } | Sample::MaxCover { answer, .. } => answer,
        }
    }
}

/// The fixed pool of subset targets every thread queries from — repeats
/// across threads are what exercises the cache and the coalescer.
fn target_pool(n: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..6)
        .map(|i| random_subset_elems(&mut rng, n, 8 + 6 * i))
        .collect()
}

/// Replays one logged `(epoch, mutation)` through the calls the service
/// commits through, so replay epochs advance in lockstep. A remove the
/// service followed with an auto-compaction logged the post-compaction
/// epoch, one past the mutation's own bump, and the replay compacts the
/// same way.
fn advance(sys: &mut SetSystem, (epoch, m): &(u64, Mutation)) {
    match m {
        Mutation::Add { elems } => {
            sys.add_set(elems);
        }
        Mutation::Remove { id } => sys.remove_set(*id),
    }
    if sys.epoch() < *epoch {
        sys.compact();
    }
    assert_eq!(sys.epoch(), *epoch, "replay epoch out of step with the log");
}

/// One battery configuration.
#[derive(Clone, Copy, Debug)]
struct Config {
    threads: usize,
    /// Layout policy of the resident system (added sets follow it too).
    repr: ReprPolicy,
    /// Auto-compaction threshold, if any.
    compaction: Option<f64>,
    /// `ExecPolicy::workers`: the fan-out of the max-cover chain's seeding.
    workers: usize,
}

impl Config {
    fn plain(threads: usize) -> Config {
        Config {
            threads,
            repr: ReprPolicy::Auto,
            compaction: None,
            workers: 2,
        }
    }
}

/// Every layout policy, forcings included.
const REPRS: [ReprPolicy; 5] = [
    ReprPolicy::Auto,
    ReprPolicy::ForceSparse,
    ReprPolicy::ForceDense,
    ReprPolicy::ForceChunked,
    ReprPolicy::ForceEliasFano,
];

/// Recomputes the sampled query fresh and single-threaded against `sys`
/// and asserts the served answer is byte-identical.
fn assert_matches_fresh(sys: &SetSystem, sample: &Sample, ctx: &str) {
    match sample {
        Sample::Subset { target, answer: a } => {
            let mut canon = target.clone();
            canon.sort_unstable();
            canon.dedup();
            let tb = BitSet::from_iter(sys.universe(), canon.iter().map(|&e| e as usize));
            let fresh = greedy_cover_until(sys, usize::MAX, &tb);
            assert_eq!(a.solution, fresh.ids, "{ctx}: subset picks");
            assert_eq!(a.covered, fresh.coverage(), "{ctx}: subset coverage");
            assert_eq!(a.feasible, fresh.coverage() == tb.len(), "{ctx}");
        }
        Sample::MaxCover { k, answer: a } => {
            let fresh = greedy_max_coverage(sys, *k);
            assert_eq!(a.solution, fresh.ids, "{ctx}: max-cover picks at k={k}");
            assert_eq!(a.covered, fresh.coverage(), "{ctx}: max-cover coverage");
            assert_eq!(a.feasible, fresh.is_feasible(), "{ctx}");
        }
    }
}

/// The battery at one configuration.
fn run_battery(cfg: Config) {
    let threads = cfg.threads;
    let mut rng = StdRng::seed_from_u64(2017 + threads as u64);
    let w = planted_cover(&mut rng, 256, 48, 6);
    let n = w.system.universe();
    let mut initial = SetSystem::with_policy(n, cfg.repr);
    for (_, set) in w.system.iter() {
        let elems: Vec<u32> = set.iter().map(|e| e as u32).collect();
        initial.push_sorted(&elems);
    }
    let mut svc = CoverService::with(
        initial.clone(),
        Runtime::global(),
        ExecPolicy::sequential().workers(cfg.workers),
    );
    if let Some(ratio) = cfg.compaction {
        svc = svc.with_compaction_policy(CompactionPolicy::at_live_ratio(ratio));
    }
    let pool = target_pool(n);
    let mutation_log: Mutex<Vec<(u64, Mutation)>> = Mutex::new(Vec::new());
    // A compaction shrinks the id range. With a policy set, a thread holds
    // this gate from drawing an id until its remove is served, so the id
    // stays in range; without one the range only grows.
    let gate = Mutex::new(());

    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let svc = &svc;
                let pool = &pool;
                let mutation_log = &mutation_log;
                let gate = &gate;
                let hold = || cfg.compaction.map(|_| gate.lock().unwrap());
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 * (t as u64 + 1));
                    let mut out = Vec::new();
                    for _ in 0..40 {
                        match rng.gen_range(0u32..10) {
                            0 => {
                                let size = 1 + rng.gen_range(0usize..24);
                                let elems = random_subset_elems(&mut rng, n, size);
                                let (epoch, _id) = svc.add_set(&elems);
                                mutation_log
                                    .lock()
                                    .unwrap()
                                    .push((epoch, Mutation::Add { elems }));
                            }
                            1 => {
                                // Removing a tombstone is a legal no-op
                                // mutation (still bumps the epoch).
                                let _held = hold();
                                let id = rng.gen_range(0..svc.num_sets());
                                let epoch = svc.remove_set(id);
                                mutation_log
                                    .lock()
                                    .unwrap()
                                    .push((epoch, Mutation::Remove { id }));
                            }
                            2..=5 => {
                                let target = pool[rng.gen_range(0..pool.len())].clone();
                                let answer = svc.cover_for_subset(&target);
                                out.push(Sample::Subset { target, answer });
                            }
                            _ => {
                                let k = rng.gen_range(0..10);
                                let answer = svc.max_cover(k);
                                out.push(Sample::MaxCover { k, answer });
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut log = mutation_log.into_inner().unwrap();
    log.sort_by_key(|&(epoch, _)| epoch);
    // Mutations serialize under the write lock and bump the epoch by
    // exactly one each, plus one for a compaction: without a policy the
    // logged epochs must be consecutive from the initial system's epoch.
    let mut prev = initial.epoch();
    for &(epoch, _) in &log {
        let step = epoch - prev;
        assert!(
            step == 1 || (step == 2 && cfg.compaction.is_some()),
            "epoch gap in log ({cfg:?})"
        );
        prev = epoch;
    }
    assert_eq!(svc.epoch(), prev);

    // Sequential replay: walk the samples in epoch order, advancing a
    // rolling copy of the initial system through the mutation log, and
    // recompute every answer fresh at its serving epoch.
    samples.sort_by_key(|s| s.answer().epoch);
    let mut replay = initial.clone();
    let mut applied = 0usize;
    let (mut subsets, mut max_covers) = (0usize, 0usize);
    for (i, sample) in samples.iter().enumerate() {
        let epoch = sample.answer().epoch;
        while replay.epoch() < epoch {
            advance(&mut replay, &log[applied]);
            applied += 1;
        }
        assert_eq!(
            replay.epoch(),
            epoch,
            "sample {i}: served epoch must be reachable by replay"
        );
        let ctx = format!("{cfg:?} sample={i} epoch={epoch}");
        assert_matches_fresh(&replay, sample, &ctx);
        match sample {
            Sample::Subset { .. } => subsets += 1,
            Sample::MaxCover { .. } => max_covers += 1,
        }
    }
    // A replay with no answers of a kind would check nothing about it.
    assert!(
        subsets >= 1 && max_covers >= 1,
        "replayed {subsets} subset and {max_covers} max-cover answers ({cfg:?})"
    );

    let stats = svc.stats();
    assert_eq!(
        stats.queries,
        samples.len() as u64,
        "every sampled op is a query"
    );
    assert_eq!(stats.mutations, log.len() as u64);
    assert_eq!(
        stats.cache_hits + stats.coalesced + stats.computed,
        stats.queries,
        "every query is exactly one of hit / coalesced / computed ({stats:?})"
    );
    if cfg.compaction.is_some() {
        assert!(stats.compactions >= 1, "the policy never fired ({cfg:?})");
    }
}

/// The compaction battery at one thread count, over every layout policy
/// and chain fan-outs 1 and 2.
fn run_compaction_batteries(threads: usize) {
    for repr in REPRS {
        for workers in [1, 2] {
            run_battery(Config {
                threads,
                repr,
                compaction: Some(COMPACT_BELOW),
                workers,
            });
        }
    }
}

/// Live ratio under which the compaction batteries compact: high enough
/// that a few removes fire it, low enough that tombstones live between.
const COMPACT_BELOW: f64 = 0.97;

#[test]
fn service_responses_replay_sequentially_at_1_thread() {
    run_battery(Config::plain(1));
}

#[test]
fn service_responses_replay_sequentially_at_2_threads() {
    run_battery(Config::plain(2));
}

#[test]
fn service_responses_replay_sequentially_at_4_threads() {
    run_battery(Config::plain(4));
}

#[test]
fn service_responses_replay_sequentially_at_8_threads() {
    run_battery(Config::plain(8));
}

#[test]
fn service_responses_replay_under_compaction_at_1_thread() {
    run_compaction_batteries(1);
}

#[test]
fn service_responses_replay_under_compaction_at_2_threads() {
    run_compaction_batteries(2);
}

#[test]
fn service_responses_replay_under_compaction_at_4_threads() {
    run_compaction_batteries(4);
}

#[test]
fn service_responses_replay_under_compaction_at_8_threads() {
    run_compaction_batteries(8);
}

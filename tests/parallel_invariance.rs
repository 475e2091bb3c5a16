//! Integration: `Runtime`/`ExecPolicy` determinism — for every workload
//! family the experiment tables run on, dispatching a streaming algorithm
//! at fan-out 1/2/4/8 on a persistent pool must produce *identical* picks,
//! passes and merged peak bits to the sequential run. The pool dimension is
//! exercised the hard way: one shared `Runtime` is reused across the whole
//! workload × arrival × algorithm grid (with set-cover and max-cover runs
//! interleaved on the same pool), and every report is compared
//! byte-for-byte against a fresh-runtime run of the same configuration —
//! reuse must leak no state.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use streamcover::dist::sample_dsc_with_theta;
use streamcover::prelude::*;

/// The workload families the e-tables sweep (kept at test-friendly sizes).
fn workloads() -> Vec<(&'static str, SetSystem)> {
    let mut rng = StdRng::seed_from_u64(2017);
    let mut out: Vec<(&'static str, SetSystem)> = vec![
        ("planted", planted_cover(&mut rng, 512, 64, 6).system),
        (
            "uniform-coverable",
            uniform_random(&mut rng, 512, 48, 0.05, true),
        ),
        (
            "uniform-uncoverable",
            uniform_random(&mut rng, 512, 24, 0.02, false),
        ),
        ("blog-watch", blog_watch(&mut rng, 128, 160)),
    ];
    let dsc = sample_dsc_with_theta(&mut rng, ScParams::explicit(384, 6, 12), true);
    out.push(("dsc", dsc.combined()));
    out
}

/// A planted instance of 2048 sets over 2048 elements, so the candidate
/// filter fans out over shards of hundreds of sets rather than the
/// handful `workloads()` gives each worker.
fn wide_workload() -> SetSystem {
    let mut rng = StdRng::seed_from_u64(2048);
    planted_cover(&mut rng, 2048, 2048, 16).system
}

fn runs_match(name: &str, algo_name: &str, base: &CoverRun, run: &CoverRun, workers: usize) {
    assert_eq!(
        run.solution, base.solution,
        "{algo_name} on {name}: picks changed at {workers} workers"
    );
    assert_eq!(run.feasible, base.feasible, "{algo_name} on {name}");
    assert_eq!(run.passes, base.passes, "{algo_name} on {name}");
    assert_eq!(
        run.peak_bits, base.peak_bits,
        "{algo_name} on {name}: merged peak changed at {workers} workers"
    );
}

#[test]
fn shared_pool_matches_sequential_on_every_workload() {
    // ONE runtime for the entire grid: every algorithm, workload, arrival
    // order and fan-out width reuses the same warm pool. Each pooled
    // report must equal both the sequential baseline and a fresh-runtime
    // run of the identical configuration.
    // The wide workload skips store-all: its exact solve is too slow for a
    // debug test at that size.
    let shared = Runtime::new(4);
    let mut cases: Vec<(&str, SetSystem, usize)> = workloads()
        .into_iter()
        .map(|(name, sys)| (name, sys, 3))
        .collect();
    cases.push(("wide", wide_workload(), 2));
    for (name, sys, algo_count) in &cases {
        for arrival in [Arrival::Adversarial, Arrival::Random { seed: 5 }] {
            let algos: Vec<(&str, Box<dyn SetCoverStreamer>)> = vec![
                ("threshold-greedy", Box::new(ThresholdGreedy)),
                ("online-prune", Box::new(OnlinePrune)),
                ("store-all", Box::new(StoreAll::default())),
            ];
            for (algo_name, algo) in &algos[..*algo_count] {
                let mut rng = StdRng::seed_from_u64(1);
                let base = algo.run(sys, arrival, &mut rng);
                for workers in [2, 4, 8] {
                    let policy = ExecPolicy::sequential().workers(workers);
                    let pooled = algo.run_in(&shared, &policy, sys, arrival, &mut rng);
                    runs_match(name, algo_name, &base, &pooled, workers);
                    let fresh_rt = Runtime::new(workers);
                    let fresh = algo.run_in(&fresh_rt, &policy, sys, arrival, &mut rng);
                    runs_match(name, algo_name, &fresh, &pooled, workers);
                }
            }
        }
    }
}

#[test]
fn algorithm_one_is_worker_invariant() {
    // Algorithm 1 additionally consumes randomness (element sampling), so
    // each run gets the same fresh rng seed; neither the fan-out width nor
    // the shared pool may touch the random stream or the outcome.
    let shared = Runtime::new(4);
    let mut cases = workloads();
    cases.push(("wide", wide_workload()));
    for (name, sys) in &cases {
        let run_with = |rt: &Runtime, workers: usize| {
            let mut rng = StdRng::seed_from_u64(42);
            let algo = HarPeledAssadi::scaled(3, 0.5);
            algo.run_in(
                rt,
                &ExecPolicy::sequential().workers(workers),
                sys,
                Arrival::Adversarial,
                &mut rng,
            )
        };
        let base = run_with(Runtime::sequential(), 1);
        for workers in [2, 4, 8] {
            let run = run_with(&shared, workers);
            runs_match(name, "assadi-alg1", &base, &run, workers);
        }
    }
}

#[test]
fn guess_grid_is_worker_invariant_across_workloads() {
    // The full o͂pt-guess grid (the whole `GuessDriver` composition around
    // Algorithm 1, not just one pass) dispatched at 1/2/4/8 grid workers on
    // one shared pool must report identical picks, passes and summed peaks
    // on every workload family and arrival order — each guess copy owns a
    // private stream/meter/split-rng, so the fold cannot see the pool
    // layout.
    let shared = Runtime::new(4);
    for (name, sys) in &workloads() {
        for arrival in [Arrival::Adversarial, Arrival::Random { seed: 13 }] {
            let run_with = |rt: &Runtime, guess_workers: usize| {
                let mut rng = StdRng::seed_from_u64(7);
                let algo = HarPeledAssadi::scaled(2, 0.5);
                algo.run_in(
                    rt,
                    &ExecPolicy::sequential().guess_workers(guess_workers),
                    sys,
                    arrival,
                    &mut rng,
                )
            };
            let base = run_with(Runtime::sequential(), 1);
            for workers in [2, 4, 8] {
                let run = run_with(&shared, workers);
                runs_match(name, "assadi-alg1 (guess grid)", &base, &run, workers);
            }
        }
    }
}

#[test]
fn guess_grid_and_pass_workers_compose() {
    // Both fan-outs at once — per-pass workers inside each guess *and*
    // grid chunks across guesses — nested on the same shared pool, still
    // reproducing the fully sequential run.
    let shared = Runtime::new(4);
    for (name, sys) in &workloads() {
        let run_with = |rt: &Runtime, workers: usize, guess_workers: usize| {
            let mut rng = StdRng::seed_from_u64(42);
            let algo = HarPeledAssadi::scaled(3, 0.5);
            algo.run_in(
                rt,
                &ExecPolicy::sequential()
                    .workers(workers)
                    .guess_workers(guess_workers),
                sys,
                Arrival::Adversarial,
                &mut rng,
            )
        };
        let base = run_with(Runtime::sequential(), 1, 1);
        for (w, gw) in [(2, 2), (4, 2), (2, 4), (8, 8)] {
            let run = run_with(&shared, w, gw);
            runs_match(name, "assadi-alg1 (composed)", &base, &run, w * gw);
        }
    }
}

#[test]
fn interleaved_set_cover_and_max_cover_share_one_pool() {
    // Set cover and max coverage alternating on the same runtime: each
    // round's reports must be byte-identical to the sequential references
    // computed up front — no state may bleed between problem kinds or
    // rounds.
    let mut rng = StdRng::seed_from_u64(33);
    let w = planted_cover(&mut rng, 384, 48, 6);
    let sc_policy = ExecPolicy::sequential().workers(4);
    let mc_policy = ExecPolicy::sequential().workers(4).seed(99);

    let sc_base = ThresholdGreedy.run(&w.system, Arrival::Adversarial, &mut rng);
    let mc_base = {
        let mut r = StdRng::seed_from_u64(0);
        ElementSampling::new(0.2).run_in(
            Runtime::sequential(),
            &ExecPolicy::sequential().seed(99),
            &w.system,
            3,
            Arrival::Adversarial,
            &mut r,
        )
    };

    let shared = Runtime::new(4);
    for round in 0..3 {
        let sc = ThresholdGreedy.run_in(
            &shared,
            &sc_policy,
            &w.system,
            Arrival::Adversarial,
            &mut rng,
        );
        runs_match(
            "planted",
            "threshold-greedy (interleaved)",
            &sc_base,
            &sc,
            4,
        );

        let mut r = StdRng::seed_from_u64(round);
        let mc = ElementSampling::new(0.2).run_in(
            &shared,
            &mc_policy,
            &w.system,
            3,
            Arrival::Adversarial,
            &mut r,
        );
        // The policy pins seed 99, so the caller rng (varied per round)
        // must not matter: byte-identical reports every round.
        assert_eq!(mc.chosen, mc_base.chosen, "round {round}");
        assert_eq!(mc.coverage, mc_base.coverage, "round {round}");
        assert_eq!(mc.passes, mc_base.passes, "round {round}");
        assert_eq!(mc.peak_bits, mc_base.peak_bits, "round {round}");
    }
}

/// Strategy: a random coverable-ish set system over a small universe.
fn arb_system() -> impl Strategy<Value = SetSystem> {
    (8usize..48, 2usize..20).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0usize..n, 0..n), m)
            .prop_map(move |lists| SetSystem::from_elements(n, &lists))
    })
}

// Property: on arbitrary systems, every (fan-out, pool) configuration of
// threshold greedy reproduces the sequential report, and running the same
// configuration twice on one runtime is idempotent.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_threshold_greedy_is_sequential_on_arbitrary_systems(
        sys in arb_system(),
        workers in 2usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(11);
        let base = ThresholdGreedy.run(&sys, Arrival::Adversarial, &mut rng);
        let rt = Runtime::new(3);
        let policy = ExecPolicy::sequential().workers(workers);
        let first = ThresholdGreedy.run_in(&rt, &policy, &sys, Arrival::Adversarial, &mut rng);
        let second = ThresholdGreedy.run_in(&rt, &policy, &sys, Arrival::Adversarial, &mut rng);
        prop_assert_eq!(&first.solution, &base.solution);
        prop_assert_eq!(first.passes, base.passes);
        prop_assert_eq!(first.peak_bits, base.peak_bits);
        // Reuse must be idempotent.
        prop_assert_eq!(&second.solution, &base.solution);
        prop_assert_eq!(second.peak_bits, base.peak_bits);
    }
}

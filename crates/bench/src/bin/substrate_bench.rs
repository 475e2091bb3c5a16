//! Machine-readable substrate benchmarks: ns/op for the hybrid-store
//! kernels (coverage/union/difference, sparse vs dense backend), the
//! batched columnar sweep vs the per-set kernel loop, lazy vs eager greedy
//! set cover, thread-scaling of the parallel pass engine, sustained
//! QPS + tail latency of the resident `CoverService` under a Zipf query
//! mix, and the deletion-aware stack (`mutation` arm): turnstile replay,
//! arena compaction, sliding-window ingest/snapshot, and a
//! `CompactionPolicy` service soak, all identity-gated.
//!
//! Usage: `substrate_bench [--smoke] [--check] [--seed N] [--out PATH]`
//!
//! * `--smoke` — smallest scale only (CI's release-mode regression job);
//! * `--check` — exit nonzero unless the perf acceptance criteria hold
//!   (sparse coverage kernel ≥ 2× dense on the `D_SC`-regime instance,
//!   measured with both sides pinned at the SSE2 baseline tier so the
//!   representation asymptotics are gated independently of the host's
//!   vector hardware — effective-tier ratios are recorded alongside;
//!   batched sweep ≥ 2× the frozen pre-tier branchy
//!   probe loop; lazy greedy beats eager at `m ≥ 4096`; the service arm's
//!   cache hit-rate is nonzero under the Zipf mix; the `repr` arm's
//!   chunked encoding compresses the runs-structured Zipf catalog to
//!   ≤ 0.6× the best flat sparse/dense encoding, with gains identity
//!   across every store-repr × residual-repr kernel pairing asserted
//!   unconditionally in-arm; the `dist` arm's measured protocol bits on
//!   the `D_SC` hard distribution dominate the `Disj_t` communication
//!   floor, with the ratio recorded in the JSON);
//! * `--out` — output path (default `BENCH_substrate.json`).
//!
//! The kernel scales model the paper's own regime: `m` sets of average
//! size `n^{1/3}` (α = 3) over universes `n = 2^14 … 2^16`, where a dense
//! word-scan pays `n/64` word ops per pair while the sparse merge-walk
//! pays `O(n^{1/3})`.
//!
//! The `scheduler` arm measures the task path itself with no-op tasks:
//! injection throughput, single-task steal latency, and old-vs-new
//! per-task dispatch overhead against an in-bench replica of the PR 5
//! global-`Mutex` scheduler, at 1/2/4/8 workers. Its identity gates
//! (exact task accounting, `map_parts` equal to the sequential reference)
//! are hard everywhere; its timing gates apply only on hosts with ≥ 4
//! cores, where scheduler contention can actually manifest.
//!
//! The thread, runtime, shard and guess-grid arms are correctness-gated,
//! not speed-gated: worker counts 1/2/4/8 must produce identical picks and
//! identical merged peaks, the `runtime` arm additionally pins pooled
//! dispatch (one persistent `Runtime` reused across runs) against fresh
//! dispatch (spawn + teardown per run — the old scoped-thread cost shape)
//! and against the sequential run, the zero-copy shard views' span
//! sweeps must reproduce the flat gains at every shard count, and the
//! pooled o͂pt-guess grid must report the sequential
//! driver's solution/passes/peaks at every fan-out (all asserted
//! unconditionally, so `--smoke --check` is a runtime-identity,
//! shard-invariance and guess-grid gate too); wall-clock per worker count
//! is recorded for the curious but CI machines (often 1–2 cores) make a
//! speedup gate meaningless there.
//!
//! The `dist` arm runs the message-passing shard-owner executor
//! (`DistCover`) on the planted, podcast-catalogue and `D_SC` workloads
//! at owner counts 1/2/4/8 over both thread fabrics, asserting solution
//! identity against the sequential CELF reference unconditionally and
//! recording bytes-per-pick, protocol rounds, and wall-clock against the
//! in-process sharded seeding path at matched owner counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use streamcover_comm::DistCover;
use streamcover_core::{
    bernoulli_elems, bernoulli_subset, greedy_cover_until, greedy_cover_until_eager,
    greedy_cover_until_sharded, greedy_set_cover, random_subset_elems, BatchedSweep, BitSet,
    KernelTier, ReprPolicy, SetId, SetRef, SetStore, SetSystem,
};
use streamcover_dist::{
    planted_cover, podcast_catalog, sample_dsc_with_theta, stress_cover, stress_cover_shards,
    turnstile_catalog, zipf_query_mix, CatalogOp, ScParams,
};
use streamcover_info::dsc_lower_bound_bits;
use streamcover_stream::{
    Arrival, CompactionPolicy, CoverAnswer, CoverService, DistBackend, ExecPolicy, HarPeledAssadi,
    Mutation, Runtime, SetCoverStreamer, ThresholdGreedy, TurnstileStream, Update,
};

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

struct KernelRow {
    name: &'static str,
    n: usize,
    m: usize,
    avg_set_size: f64,
    coverage_sparse_ns: f64,
    coverage_dense_ns: f64,
    coverage_sparse_base_ns: f64,
    coverage_dense_base_ns: f64,
    union_sparse_ns: f64,
    union_dense_ns: f64,
    difference_sparse_ns: f64,
    difference_dense_ns: f64,
    residual_gain_sparse_ns: f64,
    residual_gain_dense_ns: f64,
}

impl KernelRow {
    /// Hardware-tier ratio — recorded for the trajectory, not gated: the
    /// AVX-512 `vpopcntdq` dense kernel moved the sparse/dense crossover,
    /// so this ratio is a property of the host tier.
    fn coverage_speedup(&self) -> f64 {
        self.coverage_dense_ns / self.coverage_sparse_ns
    }

    /// Baseline-tier ratio — the gated one: the *representation* claim (a
    /// sparse merge pays `O(n^{1/3})` per pair where a dense scan pays
    /// `n/64` words) with both sides pinned at `KernelTier::Sse2` — the
    /// pre-AVX-512 kernels exactly (SSE2 is mandatory on `x86_64`, and the
    /// tier degrades to scalar elsewhere), so the gate does not move with
    /// the host's vector hardware.
    fn base_coverage_speedup(&self) -> f64 {
        self.coverage_dense_base_ns / self.coverage_sparse_base_ns
    }
}

/// Benchmarks the pairwise kernels on a `D_SC`-regime instance (`m` sets of
/// average size `n^{1/3}`), with the same sets stored through both backends.
fn bench_kernels(name: &'static str, n: usize, m: usize, seed: u64) -> KernelRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let target_size = (n as f64).powf(1.0 / 3.0);
    let p = target_size / n as f64;
    let lists: Vec<Vec<u32>> = (0..m).map(|_| bernoulli_elems(&mut rng, n, p)).collect();
    let mut sparse = SetSystem::with_policy(n, ReprPolicy::ForceSparse);
    let mut dense = SetSystem::with_policy(n, ReprPolicy::ForceDense);
    for l in &lists {
        sparse.push_sorted(l);
        dense.push_sorted(l);
    }
    let avg = sparse.total_incidences() as f64 / m as f64;
    let pairs = (m * m) as u64;

    // Views are resolved once per sweep (as the solvers do), so the timing
    // isolates the kernels rather than descriptor lookups.
    fn pairwise(sys: &SetSystem, op: impl Fn(SetRef<'_>, SetRef<'_>) -> usize) -> u64 {
        let views: Vec<SetRef<'_>> = (0..sys.len()).map(|i| sys.set(i)).collect();
        let mut acc = 0u64;
        for &a in &views {
            for &b in &views {
                acc = acc.wrapping_add(op(a, b) as u64);
            }
        }
        acc
    }
    let inter = |a: SetRef<'_>, b: SetRef<'_>| a.intersection_len(b);
    let inter_base = |a: SetRef<'_>, b: SetRef<'_>| a.intersection_len_tier(b, KernelTier::Sse2);
    let union = |a: SetRef<'_>, b: SetRef<'_>| a.union_len(b);
    let diff = |a: SetRef<'_>, b: SetRef<'_>| a.difference_len(b);

    // The greedy inner-loop op: marginal gain against a dense residual.
    let residual = BitSet::from_iter(n, (0..n).filter(|e| e % 3 != 0));
    let gain_sweep = |sys: &SetSystem| -> u64 {
        let mut acc = 0u64;
        for (_, s) in sys.iter() {
            acc = acc.wrapping_add(s.intersection_len(residual.as_set_ref()) as u64);
        }
        acc
    };

    let samples = 7;
    KernelRow {
        name,
        n,
        m,
        avg_set_size: avg,
        coverage_sparse_ns: time_ns_per_op(pairs, samples, || pairwise(&sparse, inter)),
        coverage_dense_ns: time_ns_per_op(pairs, samples, || pairwise(&dense, inter)),
        coverage_sparse_base_ns: time_ns_per_op(pairs, samples, || pairwise(&sparse, inter_base)),
        coverage_dense_base_ns: time_ns_per_op(pairs, samples, || pairwise(&dense, inter_base)),
        union_sparse_ns: time_ns_per_op(pairs, samples, || pairwise(&sparse, union)),
        union_dense_ns: time_ns_per_op(pairs, samples, || pairwise(&dense, union)),
        difference_sparse_ns: time_ns_per_op(pairs, samples, || pairwise(&sparse, diff)),
        difference_dense_ns: time_ns_per_op(pairs, samples, || pairwise(&dense, diff)),
        residual_gain_sparse_ns: time_ns_per_op(m as u64, samples, || gain_sweep(&sparse)),
        residual_gain_dense_ns: time_ns_per_op(m as u64, samples, || gain_sweep(&dense)),
    }
}

struct SweepRow {
    name: &'static str,
    n: usize,
    m: usize,
    avg_set_size: f64,
    per_set_ns: f64,
    branchy_ns: f64,
    batched_ns: f64,
}

impl SweepRow {
    /// Batched vs the *current* per-set loop — recorded, not gated: since
    /// the per-set mixed-pair kernel was routed through the same tiered
    /// gather probe the sweep uses, the two paths differ only by per-set
    /// dispatch overhead.
    fn speedup(&self) -> f64 {
        self.per_set_ns / self.batched_ns
    }

    /// Batched vs the frozen pre-tier baseline (the branchy
    /// `filter().count()` probe the per-set path used before the kernels
    /// were unified) — the gated ratio: the historical ≥ 2× claim measured
    /// against the loop it was originally claimed against.
    fn legacy_speedup(&self) -> f64 {
        self.branchy_ns / self.batched_ns
    }
}

/// Benchmarks the batched columnar sweep against the per-set kernel loop:
/// gains of all `m` sets vs one residual, paper-regime sets (pinned to the
/// sparse backend — `|S| ≈ n^{1/3}` scattered sets now auto-cut to
/// Elias–Fano, and this row measures the *sparse* sweep; the `repr` arm
/// covers the compressed pairings) and a Bernoulli(½) residual whose
/// membership bits defeat the branch predictor in the per-set probe loop.
fn bench_sweep(name: &'static str, n: usize, m: usize, seed: u64) -> SweepRow {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
    let target_size = (n as f64).powf(1.0 / 3.0);
    let p = target_size / n as f64;
    let mut sys = SetSystem::with_policy(n, ReprPolicy::ForceSparse);
    for _ in 0..m {
        sys.push_sorted(&bernoulli_elems(&mut rng, n, p));
    }
    let avg = sys.total_incidences() as f64 / m as f64;
    let residual = bernoulli_subset(&mut rng, n, 0.5);

    let per_set = || -> u64 {
        let mut acc = 0u64;
        for (_, s) in sys.iter() {
            acc = acc.wrapping_add(s.intersection_len(residual.as_set_ref()) as u64);
        }
        acc
    };
    // The frozen legacy baseline: the branchy membership-filter probe the
    // per-set path used before the mixed-pair kernel was unified with the
    // sweep's tiered gather probe. Kept as an explicit replica so the
    // historical "batched ≥ 2× the per-set loop" gate keeps measuring the
    // loop it was claimed against.
    let branchy = || -> u64 {
        let words = residual.words();
        let mut acc = 0u64;
        for (_, s) in sys.iter() {
            let c = match s {
                SetRef::Sparse { elems, .. } => elems
                    .iter()
                    .filter(|&&e| words[e as usize / 64] >> (e % 64) & 1 == 1)
                    .count(),
                SetRef::Dense { words: a, .. } => a
                    .iter()
                    .zip(words)
                    .map(|(x, y)| (x & y).count_ones() as usize)
                    .sum(),
                _ => unreachable!("sweep bench store is pinned to ForceSparse"),
            };
            acc = acc.wrapping_add(c as u64);
        }
        acc
    };
    let mut sweep = BatchedSweep::new();
    let mut batched = || -> u64 {
        sweep
            .gains(sys.store(), &residual)
            .iter()
            .fold(0u64, |a, &g| a.wrapping_add(g as u64))
    };
    assert_eq!(per_set(), batched(), "sweep checksum diverged at n={n}");
    assert_eq!(per_set(), branchy(), "branchy baseline diverged at n={n}");

    let samples = 9;
    SweepRow {
        name,
        n,
        m,
        avg_set_size: avg,
        per_set_ns: time_ns_per_op(m as u64, samples, per_set),
        branchy_ns: time_ns_per_op(m as u64, samples, branchy),
        batched_ns: time_ns_per_op(m as u64, samples, batched),
    }
}

/// Names for the four storable representations, indexed like the forced
/// [`ReprPolicy`] list in [`bench_repr`].
const REPR_NAMES: [&str; 4] = ["sparse", "dense", "chunked", "ef"];

struct ReprPairRow {
    store_repr: &'static str,
    residual_repr: &'static str,
    sweep_ns_per_set: f64,
}

struct ReprRow {
    scale: &'static str,
    n: usize,
    m: usize,
    incidences: u64,
    /// Measured `stored_bits()` under each forcing, `REPR_NAMES` order.
    bits: [u64; 4],
    /// Measured `stored_bits()` under `ReprPolicy::Auto`.
    auto_bits: u64,
    /// Batched-sweep throughput for every store-repr × residual-repr
    /// pairing (gains asserted identical in-arm before timing).
    pairings: Vec<ReprPairRow>,
}

impl ReprRow {
    /// The PR 2 baseline: the better of the two flat encodings.
    fn best_flat_bits(&self) -> u64 {
        self.bits[0].min(self.bits[1]).max(1)
    }

    fn ratio(&self, repr: usize) -> f64 {
        self.bits[repr] as f64 / self.best_flat_bits() as f64
    }

    fn auto_ratio(&self) -> f64 {
        self.auto_bits as f64 / self.best_flat_bits() as f64
    }
}

/// Builds a runs-structured Zipf catalog: set of popularity rank `r` is a
/// union of `≈ nblocks/2/(r+1)` contiguous episode runs, one per sampled
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
                    // never touch (push_runs would merge them anyway, but
                    // keeping episodes distinct keeps the workload honest).
                    let len = 1 + rng.gen_range(0..(BLOCK - off - 1) as usize) as u32;
                    (b * BLOCK + off, len)
                })
                .collect()
        })
        .collect()
}

/// The `repr` arm: measured compression ratio of the chunked / Elias–Fano
/// encodings against the best flat (sparse/dense) encoding on a
/// runs-structured Zipf catalog, plus batched-sweep throughput for every
/// store-repr × residual-repr kernel pairing. Identity is hard-gated
/// in-arm: every pairing must reproduce the ForceSparse gains vector
/// bit-for-bit before anything is timed. `--check` additionally requires
/// the chunked encoding to land at ≤ 0.6× the best flat encoding (and
/// Auto to be no worse than every forcing).
fn bench_repr(scale: &'static str, n: usize, m: usize, seed: u64, smoke: bool) -> ReprRow {
    const FORCED: [ReprPolicy; 4] = [
        ReprPolicy::ForceSparse,
        ReprPolicy::ForceDense,
        ReprPolicy::ForceChunked,
        ReprPolicy::ForceEliasFano,
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4e47_0de5);
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
    let bits = [
        stores[0].stored_bits(),
        stores[1].stored_bits(),
        stores[2].stored_bits(),
        stores[3].stored_bits(),
    ];

    // Residual (~half the universe, run-structured like the catalog) in
    // every stored representation, via one-set stores.
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

    // Identity gate, asserted unconditionally: the full pairing matrix
    // (plus Auto and the columnar dense walk) reproduces one gains vector.
    let mut sweep = BatchedSweep::new();
    let expect = sweep
        .gains_vs_ref(stores[0].store(), rstores[0].get(0))
        .to_vec();
    for (si, st) in stores.iter().chain(std::iter::once(&auto)).enumerate() {
        assert_eq!(
            sweep.gains(st.store(), &residual),
            &expect[..],
            "repr/{scale}: columnar gains diverged for store {si}"
        );
        for (ri, rs) in rstores.iter().enumerate() {
            assert_eq!(
                sweep.gains_vs_ref(st.store(), rs.get(0)),
                &expect[..],
                "repr/{scale}: gains diverged for store {si} × residual {ri}"
            );
        }
    }

    let samples = if smoke { 3 } else { 5 };
    let mut pairings = Vec::with_capacity(16);
    for (si, st) in stores.iter().enumerate() {
        for (ri, rs) in rstores.iter().enumerate() {
            let rref = rs.get(0);
            let ns = time_ns_per_op(m as u64, samples, || {
                sweep
                    .gains_vs_ref(st.store(), rref)
                    .iter()
                    .fold(0u64, |a, &g| a.wrapping_add(g as u64))
            });
            pairings.push(ReprPairRow {
                store_repr: REPR_NAMES[si],
                residual_repr: REPR_NAMES[ri],
                sweep_ns_per_set: ns,
            });
        }
    }

    ReprRow {
        scale,
        n,
        m,
        incidences: stores[0].total_incidences() as u64,
        bits,
        auto_bits: auto.stored_bits(),
        pairings,
    }
}

struct ThreadRow {
    workers: usize,
    n: usize,
    m: usize,
    run_ns: f64,
    speedup_vs_1: f64,
}

/// Benchmarks pass-engine thread scaling through threshold greedy on a
/// `stress_cover` workload (≥ 1024 sets per chunk at 4 workers), dispatched
/// on one persistent `Runtime`, asserting pick/peak identity across worker
/// counts — the determinism contract is gated here even when the host has
/// too few cores for a speedup.
fn bench_threads(seed: u64, smoke: bool) -> Vec<ThreadRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a11);
    let w = if smoke {
        planted_cover(&mut rng, 2048, 2048, 16)
    } else {
        stress_cover(&mut rng, 4)
    };
    let (n, m) = (w.system.universe(), w.system.len());
    let rt = Runtime::default();
    let base = ThresholdGreedy.run(&w.system, Arrival::Adversarial, &mut rng);
    assert!(base.feasible, "thread-arm workload must be coverable");
    let samples = 5;
    let mut rows = Vec::new();
    let mut base_ns = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let policy = ExecPolicy::sequential().workers(workers);
        let run = ThresholdGreedy.run_in(&rt, &policy, &w.system, Arrival::Adversarial, &mut rng);
        assert_eq!(
            run.solution, base.solution,
            "pass engine picks diverged at {workers} workers"
        );
        assert_eq!(
            run.peak_bits, base.peak_bits,
            "pass engine merged peaks diverged at {workers} workers"
        );
        let ns = time_ns_per_op(1, samples, || {
            ThresholdGreedy
                .run_in(&rt, &policy, &w.system, Arrival::Adversarial, &mut rng)
                .size() as u64
        });
        if workers == 1 {
            base_ns = ns;
        }
        rows.push(ThreadRow {
            workers,
            n,
            m,
            run_ns: ns,
            speedup_vs_1: base_ns / ns,
        });
    }
    rows
}

struct RuntimeRow {
    workers: usize,
    n: usize,
    m: usize,
    pooled_ns: f64,
    fresh_ns: f64,
    pooled_speedup: f64,
}

/// The `runtime` arm: per-pass overhead of a *pooled* dispatch (one
/// persistent `Runtime` reused across every run) vs *fresh* dispatch (a
/// new `Runtime` — thread spawn and teardown — per run, the cost shape of
/// the old per-pass `std::thread::scope` engine), at 1/2/4/8 workers.
/// Both modes use a runtime of the SAME width, so the ratio isolates
/// pool reuse vs per-run spawn rather than conflating it with pool size.
/// Identity vs the sequential run is asserted for both dispatch modes at
/// every width — that is the gate; wall-clock is recorded for the curious
/// (the CI container is 1-core, so only identity is enforced there).
fn bench_runtime(seed: u64, smoke: bool) -> Vec<RuntimeRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4001);
    let w = if smoke {
        planted_cover(&mut rng, 2048, 2048, 16)
    } else {
        stress_cover(&mut rng, 4)
    };
    let (n, m) = (w.system.universe(), w.system.len());
    let base = ThresholdGreedy.run(&w.system, Arrival::Adversarial, &mut rng);
    assert!(base.feasible, "runtime-arm workload must be coverable");
    let samples = 5;
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let policy = ExecPolicy::sequential().workers(workers);
        let pooled_rt = Runtime::new(workers);
        for (mode, run) in [
            (
                "pooled",
                ThresholdGreedy.run_in(
                    &pooled_rt,
                    &policy,
                    &w.system,
                    Arrival::Adversarial,
                    &mut rng,
                ),
            ),
            (
                "fresh",
                ThresholdGreedy.run_in(
                    &Runtime::new(workers),
                    &policy,
                    &w.system,
                    Arrival::Adversarial,
                    &mut rng,
                ),
            ),
        ] {
            assert_eq!(
                run.solution, base.solution,
                "{mode} dispatch picks diverged at {workers} workers"
            );
            assert_eq!(
                run.peak_bits, base.peak_bits,
                "{mode} dispatch peaks diverged at {workers} workers"
            );
            assert_eq!(run.passes, base.passes);
        }
        let pooled_ns = time_ns_per_op(1, samples, || {
            ThresholdGreedy
                .run_in(
                    &pooled_rt,
                    &policy,
                    &w.system,
                    Arrival::Adversarial,
                    &mut rng,
                )
                .size() as u64
        });
        let fresh_ns = time_ns_per_op(1, samples, || {
            let rt = Runtime::new(workers);
            ThresholdGreedy
                .run_in(&rt, &policy, &w.system, Arrival::Adversarial, &mut rng)
                .size() as u64
        });
        rows.push(RuntimeRow {
            workers,
            n,
            m,
            pooled_ns,
            fresh_ns,
            pooled_speedup: fresh_ns / pooled_ns,
        });
    }
    rows
}

struct SchedulerRow {
    workers: usize,
    tasks: usize,
    inject_ns: f64,
    steal_lat_ns: f64,
    old_dispatch_ns: f64,
    new_dispatch_ns: f64,
    dispatch_ratio: f64,
}

/// A faithful replica of the PR 5 scheduler — every per-worker deque
/// folded behind ONE global `Mutex` that doubles as the park/wake lock —
/// kept here as the baseline the `scheduler` arm measures the lock-split
/// Chase–Lev runtime against. Submitters help by popping the same global
/// queue, as the old `claim_from_scope` did.
struct MutexPool {
    shared: std::sync::Arc<MxShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

struct MxShared {
    queue: Mutex<MxQueue>,
    work: std::sync::Condvar,
    pending: std::sync::atomic::AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: std::sync::Condvar,
}

struct MxQueue {
    tasks: std::collections::VecDeque<Box<dyn FnOnce() + Send>>,
    shutdown: bool,
}

impl MutexPool {
    fn new(workers: usize) -> Self {
        use std::sync::atomic::AtomicUsize;
        let shared = std::sync::Arc::new(MxShared {
            queue: Mutex::new(MxQueue {
                tasks: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            work: std::sync::Condvar::new(),
            pending: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done_cv: std::sync::Condvar::new(),
        });
        let threads = (0..workers.saturating_sub(1))
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let task = {
                        let mut q = shared.queue.lock().expect("mutex pool queue");
                        loop {
                            if let Some(t) = q.tasks.pop_front() {
                                break t;
                            }
                            if q.shutdown {
                                return;
                            }
                            q = shared.work.wait(q).expect("mutex pool queue");
                        }
                    };
                    task();
                    shared.finish_one();
                })
            })
            .collect();
        MutexPool { shared, threads }
    }

    /// Runs `count` invocations of `f`, blocking until all complete —
    /// inline when the pool has no threads (PR 5's sequential mode).
    fn run_batch(&self, count: usize, f: impl Fn() + Send + Sync + Clone + 'static) {
        use std::sync::atomic::Ordering;
        if self.threads.is_empty() {
            for _ in 0..count {
                f();
            }
            return;
        }
        self.shared.pending.fetch_add(count, Ordering::Relaxed);
        {
            let mut q = self.shared.queue.lock().expect("mutex pool queue");
            for _ in 0..count {
                let f = f.clone();
                q.tasks.push_back(Box::new(f));
            }
        }
        self.shared.work.notify_all();
        // Submitter helps under the same global lock (the PR 5 shape).
        loop {
            let task = {
                let mut q = self.shared.queue.lock().expect("mutex pool queue");
                q.tasks.pop_front()
            };
            match task {
                Some(t) => {
                    t();
                    self.shared.finish_one();
                }
                None => break,
            }
        }
        let mut guard = self.shared.done_lock.lock().expect("mutex pool done");
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            guard = self.shared.done_cv.wait(guard).expect("mutex pool done");
        }
    }
}

impl MxShared {
    fn finish_one(&self) {
        use std::sync::atomic::Ordering;
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(self.done_lock.lock().expect("mutex pool done"));
            self.done_cv.notify_all();
        }
    }
}

impl Drop for MutexPool {
    fn drop(&mut self) {
        self.shared.queue.lock().expect("mutex pool queue").shutdown = true;
        self.shared.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The `scheduler` arm: per-task cost of the task path itself, measured
/// with no-op tasks so queueing — not work — dominates. Three timings per
/// width: `inject_ns` (amortized external submission throughput over a
/// large scope), `steal_lat_ns` (single-task scope round-trip: inject →
/// steal → complete → wake), and the old-vs-new comparison (`MutexPool`
/// replica of the PR 5 global-lock scheduler vs the lock-split runtime,
/// identical no-op batches). The hard gate is execution identity: every
/// batch's completion counter must equal the submission count exactly, and
/// `map_parts` must match the sequential reference at every width —
/// asserted unconditionally inside the arm. Timing is recorded always but
/// only *gated* when the host has ≥ 4 cores (the CI container is 1-core,
/// where contention — the thing the rewrite removes — cannot manifest).
fn bench_scheduler(smoke: bool) -> Vec<SchedulerRow> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let tasks = if smoke { 4096usize } else { 16384 };
    let samples = if smoke { 3 } else { 5 };
    let parts: Vec<usize> = (0..257).collect();
    let seq_ref: Vec<usize> = parts.iter().map(|&p| p * 31 + 7).collect();
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let rt = Runtime::new(workers);
        // Hard identity gates first: exact task accounting and map_parts
        // equality vs the sequential reference.
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        rt.scope(|s| {
            for _ in 0..tasks {
                let c = std::sync::Arc::clone(&counter);
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::SeqCst),
            tasks,
            "scheduler identity: lost/duplicated tasks at {workers} workers"
        );
        assert_eq!(
            rt.map_parts(&parts, |&p| p * 31 + 7),
            seq_ref,
            "scheduler identity: map_parts diverged at {workers} workers"
        );
        // Injection throughput: amortized per-task cost of a full scope of
        // no-op tasks (submit + dispatch + complete + scope join).
        let inject_ns = time_ns_per_op(tasks as u64, samples, || {
            let c = AtomicUsize::new(0);
            rt.scope(|s| {
                for _ in 0..tasks {
                    s.spawn(|| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            c.load(Ordering::Relaxed) as u64
        });
        // Steal latency proxy: one task per scope — the full inject →
        // steal/run → complete → wake round trip, unamortized.
        let steal_lat_ns = time_ns_per_op(1, samples * 4, || {
            let c = AtomicUsize::new(0);
            rt.scope(|s| {
                s.spawn(|| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            });
            c.load(Ordering::Relaxed) as u64
        });
        // Old-vs-new: identical no-op batches through the PR 5 replica.
        let old_pool = MutexPool::new(workers);
        let old_counter = std::sync::Arc::new(AtomicUsize::new(0));
        {
            let c = std::sync::Arc::clone(&old_counter);
            old_pool.run_batch(tasks, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(
            old_counter.load(Ordering::SeqCst),
            tasks,
            "mutex replica identity at {workers} workers"
        );
        let old_dispatch_ns = time_ns_per_op(tasks as u64, samples, || {
            let c = std::sync::Arc::new(AtomicUsize::new(0));
            let cc = std::sync::Arc::clone(&c);
            old_pool.run_batch(tasks, move || {
                cc.fetch_add(1, Ordering::Relaxed);
            });
            c.load(Ordering::Relaxed) as u64
        });
        let new_dispatch_ns = inject_ns;
        rows.push(SchedulerRow {
            workers,
            tasks,
            inject_ns,
            steal_lat_ns,
            old_dispatch_ns,
            new_dispatch_ns,
            dispatch_ratio: old_dispatch_ns / new_dispatch_ns,
        });
    }
    rows
}

struct ShardRow {
    shards: usize,
    n: usize,
    m: usize,
    build_flat_ns: f64,
    sweep_flat_ns: f64,
    sweep_sharded_ns: f64,
}

/// Benchmarks shard scaling on a `stress_cover_shards` workload: the flat
/// single-arena build, and the concatenated span sweeps of the zero-copy
/// `SetSystem::shards` views vs one flat `BatchedSweep`. Gains identity is
/// asserted unconditionally at every shard count — the correctness gate of
/// the `release-smoke` job — while wall-clock is recorded for the curious
/// (1–2-core CI machines make a speedup gate meaningless).
fn bench_shards(seed: u64, smoke: bool) -> Vec<ShardRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a4d);
    let max_shards = if smoke { 4 } else { 8 };
    let w = stress_cover_shards(&mut rng, max_shards);
    let sys = &w.system;
    let (n, m) = (sys.universe(), sys.len());
    let lists: Vec<Vec<u32>> = (0..m)
        .map(|i| sys.set(i).iter().map(|e| e as u32).collect())
        .collect();
    let residual = bernoulli_subset(&mut rng, n, 0.5);
    let mut sweep = BatchedSweep::new();
    let flat_gains = sweep.gains(sys.store(), &residual).to_vec();
    let flat_sum: u64 = flat_gains.iter().map(|&g| g as u64).sum();

    let samples = 5;
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        if shards > max_shards {
            break;
        }
        // Correctness gate: per-view sweep identity.
        let views = sys.shards(shards);
        let mut cat = Vec::new();
        for v in &views {
            cat.extend_from_slice(v.gains(&mut sweep, &residual));
        }
        assert_eq!(
            cat, flat_gains,
            "sharded sweep gains diverged at {shards} shards"
        );

        let build_flat_ns = time_ns_per_op(1, samples, || {
            let mut st = SetSystem::new(n);
            for l in &lists {
                st.push_sorted(l);
            }
            st.len() as u64
        });
        let sweep_sharded_ns = time_ns_per_op(m as u64, samples, || {
            let mut acc = 0u64;
            for v in &views {
                acc += v
                    .gains(&mut sweep, &residual)
                    .iter()
                    .map(|&g| g as u64)
                    .sum::<u64>();
            }
            assert_eq!(acc, flat_sum);
            acc
        });
        let sweep_flat_ns = time_ns_per_op(m as u64, samples, || {
            sweep
                .gains(sys.store(), &residual)
                .iter()
                .map(|&g| g as u64)
                .sum()
        });
        rows.push(ShardRow {
            shards,
            n,
            m,
            build_flat_ns,
            sweep_flat_ns,
            sweep_sharded_ns,
        });
    }
    rows
}

struct GuessGridRow {
    guess_workers: usize,
    n: usize,
    m: usize,
    grid_len: usize,
    run_ns: f64,
    speedup_vs_1: f64,
}

/// Benchmarks the thread-parallel o͂pt-guess grid: the full Algorithm 1
/// composition at 1/2/4/8 grid workers, asserting solution/pass/peak
/// identity with the sequential driver at every worker count (the
/// correctness gate) and recording wall-clock per worker count.
fn bench_guess_grid(seed: u64, smoke: bool) -> Vec<GuessGridRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e55);
    let (n, m, opt) = if smoke {
        (1024, 96, 8)
    } else {
        (4096, 256, 16)
    };
    let w = planted_cover(&mut rng, n, m, opt);
    let rt = Runtime::default();
    let run_with = |guess_workers: usize| {
        let mut r = StdRng::seed_from_u64(seed ^ 0xd21f);
        let algo = HarPeledAssadi::scaled(3, 0.5);
        algo.run_in(
            &rt,
            &ExecPolicy::sequential().guess_workers(guess_workers),
            &w.system,
            Arrival::Adversarial,
            &mut r,
        )
    };
    let base = run_with(1);
    assert!(base.feasible, "guess-grid workload must be coverable");
    let grid_len = streamcover_stream::GuessDriver::new(0.5)
        .guesses(n, m)
        .len();
    let samples = 5;
    let mut rows = Vec::new();
    let mut base_ns = 0.0f64;
    for guess_workers in [1usize, 2, 4, 8] {
        let run = run_with(guess_workers);
        assert_eq!(
            run.solution, base.solution,
            "guess grid picks diverged at {guess_workers} workers"
        );
        assert_eq!(run.passes, base.passes);
        assert_eq!(
            run.peak_bits, base.peak_bits,
            "guess grid peaks diverged at {guess_workers} workers"
        );
        let ns = time_ns_per_op(1, samples, || run_with(guess_workers).size() as u64);
        if guess_workers == 1 {
            base_ns = ns;
        }
        rows.push(GuessGridRow {
            guess_workers,
            n,
            m,
            grid_len,
            run_ns: ns,
            speedup_vs_1: base_ns / ns,
        });
    }
    rows
}

struct GreedyRow {
    n: usize,
    m: usize,
    opt: usize,
    lazy_ns: f64,
    eager_ns: f64,
}

impl GreedyRow {
    fn speedup(&self) -> f64 {
        self.eager_ns / self.lazy_ns
    }
}

/// Benchmarks lazy (CELF) vs eager greedy set cover on a planted instance.
fn bench_greedy(n: usize, m: usize, opt: usize, seed: u64) -> GreedyRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = planted_cover(&mut rng, n, m, opt);
    let target = BitSet::full(n);
    let lazy = greedy_cover_until(&w.system, usize::MAX, &target);
    let eager = greedy_cover_until_eager(&w.system, usize::MAX, &target);
    assert_eq!(lazy.ids, eager.ids, "lazy/eager divergence at n={n} m={m}");
    let samples = 5;
    GreedyRow {
        n,
        m,
        opt,
        lazy_ns: time_ns_per_op(1, samples, || {
            greedy_cover_until(&w.system, usize::MAX, &target).ids.len() as u64
        }),
        eager_ns: time_ns_per_op(1, samples, || {
            greedy_cover_until_eager(&w.system, usize::MAX, &target)
                .ids
                .len() as u64
        }),
    }
}

struct ServiceRow {
    threads: usize,
    n: usize,
    m: usize,
    distinct_targets: usize,
    queries: u64,
    mutations: u64,
    qps: f64,
    p50_ns: f64,
    p99_ns: f64,
    hit_rate: f64,
}

/// The `service` arm: sustained QPS and p50/p99 latency of a resident
/// `CoverService` under a Zipf-skewed query mix fired from 1 and 4 client
/// threads, with thread 0 committing periodic mutations. Every ~8th
/// response is sampled and — after the run — replayed sequentially: the
/// mutation log reconstructs each sampled epoch's system and the answer
/// must byte-match a fresh `greedy_cover_until` there (asserted
/// unconditionally, so `--smoke --check` is an epoch-identity gate). The
/// Zipf head makes repeat queries common, so the cache hit-rate must be
/// nonzero — `--check` enforces that.
fn bench_service(seed: u64, smoke: bool) -> Vec<ServiceRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e54);
    let (n, m, opt, distinct, ops) = if smoke {
        (1024, 1024, 16, 16, 200)
    } else {
        (4096, 4096, 32, 32, 800)
    };
    let w = planted_cover(&mut rng, n, m, opt);
    let mix = zipf_query_mix(&mut rng, n, distinct, 8, 64, 1.0);
    let mut rows = Vec::new();
    for threads in [1usize, 4] {
        let initial = w.system.clone();
        let svc = CoverService::with(
            w.system.clone(),
            Runtime::global(),
            ExecPolicy::sequential().workers(2),
        );
        let log: Mutex<Vec<(u64, Mutation)>> = Mutex::new(Vec::new());
        let started = Instant::now();
        type ClientOut = (Vec<u64>, Vec<(Vec<u32>, CoverAnswer)>);
        let results: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let svc = &svc;
                    let mix = &mix;
                    let log = &log;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xbeef + 31 * t as u64);
                        let mut lats = Vec::with_capacity(ops);
                        let mut samples = Vec::new();
                        for i in 0..ops {
                            // Thread 0 commits a mutation every quarter of
                            // its run: the service must keep serving
                            // fresh-identical answers across epochs.
                            if t == 0 && i > 0 && i % (ops / 4) == 0 {
                                if rng.gen_bool(0.5) {
                                    let size = 1 + rng.gen_range(0usize..32);
                                    let elems = random_subset_elems(&mut rng, n, size);
                                    let (epoch, _id) = svc.add_set(&elems);
                                    log.lock().unwrap().push((epoch, Mutation::Add { elems }));
                                } else {
                                    let id = rng.gen_range(0..m);
                                    let epoch = svc.remove_set(id);
                                    log.lock().unwrap().push((epoch, Mutation::Remove { id }));
                                }
                            }
                            let (_, target) = mix.draw(&mut rng);
                            let t0 = Instant::now();
                            let a = svc.cover_for_subset(target);
                            lats.push(t0.elapsed().as_nanos() as u64);
                            if i % 8 == 0 {
                                samples.push((target.to_vec(), a));
                            } else if i % 16 == 7 {
                                let k = 1 + rng.gen_range(0..opt);
                                let t1 = Instant::now();
                                black_box(svc.max_cover(k));
                                lats.push(t1.elapsed().as_nanos() as u64);
                            }
                        }
                        (lats, samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("service bench client panicked"))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();

        // Epoch-identity gate: replay the mutation log sequentially and
        // recompute every sampled answer fresh at its serving epoch.
        let mut log = log.into_inner().unwrap();
        log.sort_by_key(|&(epoch, _)| epoch);
        let mut samples: Vec<(Vec<u32>, CoverAnswer)> = results
            .iter()
            .flat_map(|(_, s)| s.iter().cloned())
            .collect();
        samples.sort_by_key(|(_, a)| a.epoch);
        let mut replay = initial;
        let mut applied = 0usize;
        for (target, a) in &samples {
            while replay.epoch() < a.epoch {
                match &log[applied].1 {
                    Mutation::Add { elems } => {
                        replay.add_set(elems);
                    }
                    Mutation::Remove { id } => replay.remove_set(*id),
                }
                applied += 1;
            }
            assert_eq!(
                replay.epoch(),
                a.epoch,
                "service served an epoch the mutation log cannot reach"
            );
            let tb = BitSet::from_iter(n, target.iter().map(|&e| e as usize));
            let fresh = greedy_cover_until(&replay, usize::MAX, &tb);
            assert_eq!(
                a.solution, fresh.ids,
                "service answer diverged from the fresh run at epoch {}",
                a.epoch
            );
            assert_eq!(a.covered, fresh.coverage());
            assert_eq!(a.feasible, fresh.coverage() == tb.len());
        }

        let stats = svc.stats();
        let mut lats: Vec<u64> = results.into_iter().flat_map(|(l, _)| l).collect();
        lats.sort_unstable();
        assert!(!lats.is_empty());
        rows.push(ServiceRow {
            threads,
            n,
            m,
            distinct_targets: distinct,
            queries: stats.queries,
            mutations: stats.mutations,
            qps: stats.queries as f64 / wall,
            p50_ns: lats[lats.len() / 2] as f64,
            p99_ns: lats[(lats.len() - 1) * 99 / 100] as f64,
            hit_rate: stats.cache_hits as f64 / stats.queries.max(1) as f64,
        });
    }
    rows
}

struct MutationRow {
    scale: &'static str,
    n: usize,
    inserts: usize,
    deletes: usize,
    apply_ns: f64,
    compact_ns: f64,
    tombstone_ratio: f64,
    reclaimed_bits: u64,
    window_w: usize,
    window_apply_ns: f64,
    snapshot_ns: f64,
    window_solve_ns: f64,
    service_rounds: usize,
    service_compactions: u64,
    service_min_live_ratio: f64,
}

/// The `mutation` arm: cost of the deletion-aware stack under a scripted
/// `turnstile_catalog` insert/delete mix. Timings: full turnstile replay
/// (ns/op), one arena compaction (clone cost subtracted), windowed-mode
/// ingest, `snapshot()` assembly, and snapshot + offline greedy (the
/// query-under-churn shape). Identity gates, asserted unconditionally so
/// `--smoke --check` gates them in CI: the turnstile replay equals the
/// catalog's own materialization; compaction leaves zero tombstone bits
/// and greedy answers commute with it modulo the `CompactionMap` remap;
/// the windowed snapshot equals the reference rebuild of the last `w`
/// arrivals; and a `CoverService` soak under `CompactionPolicy` holds
/// its live ratio at every step. `--check` additionally requires that
/// the mix produced garbage, that compaction reclaimed bits, and that
/// the service soak actually compacted.
fn bench_mutation(seed: u64, smoke: bool) -> Vec<MutationRow> {
    let scales: &[(&'static str, usize, usize, usize)] = if smoke {
        &[("small", 1024, 2400, 64)]
    } else {
        &[("small", 1024, 2400, 64), ("large", 4096, 9600, 256)]
    };
    let samples = if smoke { 3 } else { 5 };
    let mut rows = Vec::new();
    for &(scale, n, ops, w) in scales {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7u64.wrapping_mul(n as u64));
        let cat = turnstile_catalog(&mut rng, n, ops, 0.4, 0.5, 1.0);
        let replay = |cat: &streamcover_dist::TurnstileCatalog| -> TurnstileStream {
            let mut ts = TurnstileStream::new(n);
            for op in cat.ops() {
                match op {
                    CatalogOp::Insert { elems } => {
                        ts.apply(Update::Insert(elems.clone()));
                    }
                    CatalogOp::Delete { insert } => {
                        ts.apply(Update::Delete(*insert));
                    }
                }
            }
            ts
        };

        // Identity gate: the turnstile path reproduces the catalog's own
        // materialization, and the mix left real garbage behind.
        let ts = replay(&cat);
        assert_eq!(
            ts.system().expect("unbounded turnstile"),
            &cat.materialize(),
            "turnstile replay diverged from catalog materialization at n={n}"
        );
        let before = ts.snapshot();
        let before_bits = before.stored_bits();
        let tombstone_ratio = before.tombstone_bits() as f64 / before_bits.max(1) as f64;

        // Remap-identity gate: greedy commutes with compaction.
        let old_ids = greedy_set_cover(&before).ids;
        let mut compacted = before.clone();
        let map = compacted.compact();
        assert_eq!(
            compacted.tombstone_bits(),
            0,
            "compaction left tombstone bits at n={n}"
        );
        assert_eq!(
            map.remap_ids(&old_ids),
            greedy_set_cover(&compacted).ids,
            "greedy picks did not commute with compaction at n={n}"
        );
        let reclaimed_bits = before_bits - compacted.stored_bits();

        let apply_ns = time_ns_per_op(cat.ops().len() as u64, samples, || {
            replay(&cat).stored_bits()
        });
        let clone_ns = time_ns_per_op(1, samples, || before.clone().len() as u64);
        let compact_total_ns = time_ns_per_op(1, samples, || {
            let mut s = before.clone();
            s.compact().len_after() as u64
        });
        let compact_ns = (compact_total_ns - clone_ns).max(0.0);

        // Windowed mode: ingest the catalog's inserts through a sliding
        // window and gate the snapshot against the reference rebuild.
        let inserts: Vec<&Vec<u32>> = cat
            .ops()
            .iter()
            .filter_map(|op| match op {
                CatalogOp::Insert { elems } => Some(elems),
                CatalogOp::Delete { .. } => None,
            })
            .collect();
        let window_replay = || -> TurnstileStream {
            let mut win = TurnstileStream::windowed(n, w);
            for l in &inserts {
                win.apply(Update::Insert((*l).clone()));
            }
            win
        };
        let win = window_replay();
        let snap = win.snapshot();
        let live_from = inserts.len().saturating_sub(w);
        let mut reference = SetSystem::new(n);
        for (arrival, l) in inserts.iter().enumerate().skip(win.base_id()) {
            if arrival >= live_from {
                reference.add_set(l);
            } else {
                reference.add_set(&[]);
            }
        }
        assert_eq!(
            &snap, &reference,
            "windowed snapshot diverged from the reference rebuild at n={n} w={w}"
        );
        let window_apply_ns = time_ns_per_op(inserts.len() as u64, samples, || {
            window_replay().stored_bits()
        });
        let snapshot_ns = time_ns_per_op(1, samples, || win.snapshot().len() as u64);
        let window_solve_ns = time_ns_per_op(1, samples, || {
            greedy_set_cover(&win.snapshot()).ids.len() as u64
        });

        // Service soak: sustained churn under an opt-in CompactionPolicy
        // must hold the live-ratio bound at every step and actually fire.
        const THRESHOLD: f64 = 0.8;
        let rounds = if smoke { 60 } else { 120 };
        let mut sys0 = SetSystem::new(n);
        let mut live: Vec<SetId> = Vec::new();
        for _ in 0..16 {
            live.push(sys0.add_set(&random_subset_elems(&mut rng, n, 4)));
        }
        let svc = CoverService::with(sys0, Runtime::global(), ExecPolicy::sequential().workers(2))
            .with_compaction_policy(CompactionPolicy::at_live_ratio(THRESHOLD));
        let mut min_live_ratio = f64::INFINITY;
        for round in 0..rounds {
            let elems = random_subset_elems(&mut rng, n, 1 + round % 4);
            let (_, id) = svc.add_set(&elems);
            live.push(id);
            let epoch = svc.remove_set(live.remove(0));
            if let Some((at, map)) = svc.last_compaction() {
                if at == epoch {
                    live = map.remap_ids(&live);
                }
            }
            let ratio = svc.live_ratio();
            min_live_ratio = min_live_ratio.min(ratio);
            assert!(
                ratio >= THRESHOLD,
                "service soak live ratio {ratio:.3} fell below {THRESHOLD} at round {round}"
            );
        }
        let stats = svc.stats();

        rows.push(MutationRow {
            scale,
            n,
            inserts: cat.num_inserts(),
            deletes: cat.num_deletes(),
            apply_ns,
            compact_ns,
            tombstone_ratio,
            reclaimed_bits,
            window_w: w,
            window_apply_ns,
            snapshot_ns,
            window_solve_ns,
            service_rounds: rounds,
            service_compactions: stats.compactions,
            service_min_live_ratio: min_live_ratio,
        });
    }
    rows
}

struct DistRow {
    workload: &'static str,
    backend: &'static str,
    n: usize,
    m: usize,
    owners: usize,
    picks: usize,
    rounds: usize,
    protocol_bits: u64,
    setup_bits: u64,
    bytes_per_pick: u64,
    dist_ns: f64,
    sharded_ns: f64,
    /// The Lemma 3.4 communication floor (`> 0` only on the `D_SC` rows).
    lower_bound_bits: f64,
    /// `protocol_bits / lower_bound_bits` (0 when no bound applies).
    bits_ratio: f64,
}

/// The `dist` arm: the message-passing shard-owner executor against the
/// in-process sharded seeding path at matched owner counts, over both
/// thread fabrics. Solution identity vs the sequential CELF reference is
/// asserted unconditionally in-arm for every row; bytes-per-pick, rounds
/// and wall-clock are recorded. The `D_SC` rows split the hard instance
/// exactly Alice/Bob across two owners and record the measured protocol
/// bits against [`dsc_lower_bound_bits`] — `--check` gates that ratio ≥ 1.
fn bench_dist(seed: u64, smoke: bool) -> Vec<DistRow> {
    let owner_grid: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let backends = [
        (DistBackend::InProcess, "in_process"),
        (DistBackend::Socket, "socket"),
    ];
    let max_picks = if smoke { 16 } else { 64 };

    let mut rng = StdRng::seed_from_u64(seed ^ 0xD157);
    let mut workloads: Vec<(&'static str, SetSystem)> = Vec::new();
    {
        let (n, m, opt) = if smoke {
            (1024, 128, 8)
        } else {
            (4096, 512, 16)
        };
        workloads.push(("planted", planted_cover(&mut rng, n, m, opt).system));
    }
    {
        // The podcast catalogue at dataset scale (~10⁵ shows) outside
        // smoke mode; Zipf sizes make the BySetRange shards heavily
        // unbalanced — the stress case for the gather-all-reports round.
        let (shows, topics) = if smoke {
            (2_000, 256)
        } else {
            (100_000, 2_048)
        };
        workloads.push(("podcast", podcast_catalog(&mut rng, shows, topics, 1.0)));
    }

    let mut rows = Vec::new();
    for (name, sys) in &workloads {
        let target = BitSet::full(sys.universe());
        let reference = greedy_cover_until(sys, max_picks, &target);
        for &owners in owner_grid {
            let t0 = Instant::now();
            let sharded = greedy_cover_until_sharded(sys, owners, max_picks, &target);
            let sharded_ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(
                sharded, reference,
                "{name}: sharded seeding diverged at {owners} workers"
            );
            for (backend, backend_name) in backends {
                let t0 = Instant::now();
                let run = DistCover::new(owners, backend)
                    .cover(sys, max_picks, &target)
                    .expect("distributed run failed");
                let dist_ns = t0.elapsed().as_nanos() as f64;
                assert_eq!(
                    run.result, reference,
                    "{name}: distributed cover diverged ({owners} owners, {backend_name})"
                );
                rows.push(DistRow {
                    workload: name,
                    backend: backend_name,
                    n: sys.universe(),
                    m: sys.len(),
                    owners: run.owners,
                    picks: run.result.ids.len(),
                    rounds: run.rounds,
                    protocol_bits: run.total_bits(),
                    setup_bits: run.setup_bits,
                    bytes_per_pick: run.bytes_per_pick(),
                    dist_ns,
                    sharded_ns,
                    lower_bound_bits: 0.0,
                    bits_ratio: 0.0,
                });
            }
        }
    }

    // The lower-bound gate: a D_SC instance, Alice's sets owner 0 / Bob's
    // owner 1 under BySetRange, protocol bits vs the Disj_t floor.
    let p = if smoke {
        ScParams::explicit(1_024, 8, 32)
    } else {
        ScParams::explicit(16_384, 16, 64)
    };
    for theta in [true, false] {
        let inst = sample_dsc_with_theta(&mut rng, p, theta);
        let sys = inst.combined();
        let target = BitSet::full(p.n);
        let reference = greedy_cover_until(&sys, sys.len(), &target);
        let t0 = Instant::now();
        let sharded = greedy_cover_until_sharded(&sys, 2, sys.len(), &target);
        let sharded_ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(sharded, reference, "dsc: sharded seeding diverged");
        let t0 = Instant::now();
        let run = DistCover::new(2, DistBackend::InProcess)
            .cover(&sys, sys.len(), &target)
            .expect("distributed D_SC run failed");
        let dist_ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(
            run.result, reference,
            "dsc(theta={theta}): distributed cover diverged"
        );
        let bound = dsc_lower_bound_bits(p.t);
        rows.push(DistRow {
            workload: if theta { "dsc_theta1" } else { "dsc_theta0" },
            backend: "in_process",
            n: p.n,
            m: sys.len(),
            owners: run.owners,
            picks: run.result.ids.len(),
            rounds: run.rounds,
            protocol_bits: run.total_bits(),
            setup_bits: run.setup_bits,
            bytes_per_pick: run.bytes_per_pick(),
            dist_ns,
            sharded_ns,
            lower_bound_bits: bound,
            bits_ratio: run.total_bits() as f64 / bound,
        });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let grab = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let seed: u64 = grab("--seed").and_then(|s| s.parse().ok()).unwrap_or(2017);
    let out_path = grab("--out").unwrap_or_else(|| "BENCH_substrate.json".into());

    let kernel_scales: &[(&'static str, usize, usize)] = if smoke {
        &[("small", 1 << 14, 128)]
    } else {
        &[
            ("small", 1 << 14, 128),
            ("medium", 1 << 15, 128),
            ("large", 1 << 16, 128),
        ]
    };
    let greedy_scales: &[(usize, usize, usize)] = if smoke {
        &[(2048, 4096, 16)]
    } else {
        &[(2048, 1024, 16), (2048, 4096, 16), (4096, 8192, 16)]
    };
    let sweep_scales: &[(&'static str, usize, usize)] = if smoke {
        &[("small", 1 << 14, 1024)]
    } else {
        &[
            ("small", 1 << 14, 1024),
            ("medium", 1 << 15, 1024),
            ("large", 1 << 16, 1024),
        ]
    };

    eprintln!("substrate_bench: seed={seed} smoke={smoke}");
    let kernels: Vec<KernelRow> = kernel_scales
        .iter()
        .map(|&(name, n, m)| {
            let row = bench_kernels(name, n, m, seed);
            eprintln!(
                "  kernels/{name}: n={n} m={m} avg|S|={:.1} coverage {:.1}ns (sparse) vs {:.1}ns (dense) — {:.1}x effective, {:.1}x base-tier",
                row.avg_set_size,
                row.coverage_sparse_ns,
                row.coverage_dense_ns,
                row.coverage_speedup(),
                row.base_coverage_speedup()
            );
            row
        })
        .collect();
    let sweeps: Vec<SweepRow> = sweep_scales
        .iter()
        .map(|&(name, n, m)| {
            let row = bench_sweep(name, n, m, seed);
            eprintln!(
                "  sweep/{name}: n={n} m={m} avg|S|={:.1} per-set {:.1}ns (branchy {:.1}ns) vs batched {:.1}ns — {:.1}x, {:.1}x vs legacy",
                row.avg_set_size,
                row.per_set_ns,
                row.branchy_ns,
                row.batched_ns,
                row.speedup(),
                row.legacy_speedup()
            );
            row
        })
        .collect();
    let repr_scales: &[(&'static str, usize, usize)] = if smoke {
        &[("small", 1 << 20, 256)]
    } else {
        &[("small", 1 << 20, 256), ("large", 1 << 22, 512)]
    };
    let repr_rows: Vec<ReprRow> = repr_scales
        .iter()
        .map(|&(name, n, m)| {
            let row = bench_repr(name, n, m, seed, smoke);
            eprintln!(
                "  repr/{name}: n={n} m={m} inc={} — sparse {} KiB, dense {} KiB, chunked {} KiB ({:.3}x), ef {} KiB ({:.3}x), auto {} KiB ({:.3}x) (gains identical across all pairings)",
                row.incidences,
                row.bits[0] / 8192,
                row.bits[1] / 8192,
                row.bits[2] / 8192,
                row.ratio(2),
                row.bits[3] / 8192,
                row.ratio(3),
                row.auto_bits / 8192,
                row.auto_ratio()
            );
            for store in REPR_NAMES {
                let cells: Vec<String> = row
                    .pairings
                    .iter()
                    .filter(|p| p.store_repr == store)
                    .map(|p| format!("{} {:.0}ns", p.residual_repr, p.sweep_ns_per_set))
                    .collect();
                eprintln!("    sweep[{store} × residual]: {}", cells.join(", "));
            }
            row
        })
        .collect();
    let greedy: Vec<GreedyRow> = greedy_scales
        .iter()
        .map(|&(n, m, opt)| {
            let row = bench_greedy(n, m, opt, seed);
            eprintln!(
                "  greedy: n={n} m={m} lazy {:.0}ns vs eager {:.0}ns — {:.1}x",
                row.lazy_ns,
                row.eager_ns,
                row.speedup()
            );
            row
        })
        .collect();
    let threads = bench_threads(seed, smoke);
    for r in &threads {
        eprintln!(
            "  threads: n={} m={} workers={} run {:.2}ms — {:.2}x vs 1 worker (picks identical)",
            r.n,
            r.m,
            r.workers,
            r.run_ns / 1e6,
            r.speedup_vs_1
        );
    }
    let runtime_rows = bench_runtime(seed, smoke);
    for r in &runtime_rows {
        eprintln!(
            "  runtime: n={} m={} workers={} pooled {:.2}ms vs fresh {:.2}ms — {:.2}x (identity asserted)",
            r.n,
            r.m,
            r.workers,
            r.pooled_ns / 1e6,
            r.fresh_ns / 1e6,
            r.pooled_speedup
        );
    }
    let scheduler_rows = bench_scheduler(smoke);
    for r in &scheduler_rows {
        eprintln!(
            "  scheduler: workers={} tasks={} inject {:.0}ns/task, steal-lat {:.0}ns, old {:.0}ns vs new {:.0}ns — {:.2}x (identity asserted)",
            r.workers,
            r.tasks,
            r.inject_ns,
            r.steal_lat_ns,
            r.old_dispatch_ns,
            r.new_dispatch_ns,
            r.dispatch_ratio
        );
    }
    let shard_rows = bench_shards(seed, smoke);
    for r in &shard_rows {
        eprintln!(
            "  shards: n={} m={} shards={} build {:.2}ms sweep {:.0}ns/set (flat {:.0}ns/set) — gains identical",
            r.n,
            r.m,
            r.shards,
            r.build_flat_ns / 1e6,
            r.sweep_sharded_ns,
            r.sweep_flat_ns
        );
    }
    let guess_rows = bench_guess_grid(seed, smoke);
    for r in &guess_rows {
        eprintln!(
            "  guess-grid: n={} m={} grid={} workers={} run {:.2}ms — {:.2}x vs 1 worker (report identical)",
            r.n,
            r.m,
            r.grid_len,
            r.guess_workers,
            r.run_ns / 1e6,
            r.speedup_vs_1
        );
    }
    let mutation_rows = bench_mutation(seed, smoke);
    for r in &mutation_rows {
        eprintln!(
            "  mutation/{}: n={} ins={} del={} apply {:.0}ns/op, compact {:.2}ms (garbage {:.0}%, reclaimed {} bits), window w={} apply {:.0}ns/op snapshot {:.2}ms, soak {} rounds {} compactions min-live {:.2} (identity asserted)",
            r.scale,
            r.n,
            r.inserts,
            r.deletes,
            r.apply_ns,
            r.compact_ns / 1e6,
            r.tombstone_ratio * 100.0,
            r.reclaimed_bits,
            r.window_w,
            r.window_apply_ns,
            r.snapshot_ns / 1e6,
            r.service_rounds,
            r.service_compactions,
            r.service_min_live_ratio
        );
    }
    let dist_rows = bench_dist(seed, smoke);
    for r in &dist_rows {
        eprintln!(
            "  dist/{}/{}: n={} m={} owners={} picks={} rounds={} — {} bits on the wire ({} B/pick, setup {} bits), {:.2}ms vs sharded {:.2}ms{}",
            r.workload,
            r.backend,
            r.n,
            r.m,
            r.owners,
            r.picks,
            r.rounds,
            r.protocol_bits,
            r.bytes_per_pick,
            r.setup_bits,
            r.dist_ns / 1e6,
            r.sharded_ns / 1e6,
            if r.lower_bound_bits > 0.0 {
                format!(" ({:.0}x the Disj floor)", r.bits_ratio)
            } else {
                String::new()
            }
        );
    }
    let service_rows = bench_service(seed, smoke);
    for r in &service_rows {
        eprintln!(
            "  service: n={} m={} threads={} queries={} mutations={} — {:.0} qps, p50 {:.1}µs p99 {:.1}µs, hit-rate {:.2} (epoch identity asserted)",
            r.n,
            r.m,
            r.threads,
            r.queries,
            r.mutations,
            r.qps,
            r.p50_ns / 1e3,
            r.p99_ns / 1e3,
            r.hit_rate
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"streamcover/substrate-bench/v1\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, r) in kernels.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"scale\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"avg_set_size\": {:.2},", r.avg_set_size);
        let _ = writeln!(
            json,
            "      \"coverage_sparse_ns\": {:.2},",
            r.coverage_sparse_ns
        );
        let _ = writeln!(
            json,
            "      \"coverage_dense_ns\": {:.2},",
            r.coverage_dense_ns
        );
        let _ = writeln!(
            json,
            "      \"coverage_sparse_speedup\": {:.2},",
            r.coverage_speedup()
        );
        let _ = writeln!(
            json,
            "      \"coverage_sparse_base_ns\": {:.2},",
            r.coverage_sparse_base_ns
        );
        let _ = writeln!(
            json,
            "      \"coverage_dense_base_ns\": {:.2},",
            r.coverage_dense_base_ns
        );
        let _ = writeln!(
            json,
            "      \"coverage_base_speedup\": {:.2},",
            r.base_coverage_speedup()
        );
        let _ = writeln!(json, "      \"union_sparse_ns\": {:.2},", r.union_sparse_ns);
        let _ = writeln!(json, "      \"union_dense_ns\": {:.2},", r.union_dense_ns);
        let _ = writeln!(
            json,
            "      \"difference_sparse_ns\": {:.2},",
            r.difference_sparse_ns
        );
        let _ = writeln!(
            json,
            "      \"difference_dense_ns\": {:.2},",
            r.difference_dense_ns
        );
        let _ = writeln!(
            json,
            "      \"residual_gain_sparse_ns\": {:.2},",
            r.residual_gain_sparse_ns
        );
        let _ = writeln!(
            json,
            "      \"residual_gain_dense_ns\": {:.2}",
            r.residual_gain_dense_ns
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < kernels.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, r) in sweeps.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"scale\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"avg_set_size\": {:.2},", r.avg_set_size);
        let _ = writeln!(json, "      \"per_set_ns\": {:.2},", r.per_set_ns);
        let _ = writeln!(json, "      \"branchy_ns\": {:.2},", r.branchy_ns);
        let _ = writeln!(json, "      \"batched_ns\": {:.2},", r.batched_ns);
        let _ = writeln!(json, "      \"batched_speedup\": {:.2},", r.speedup());
        let _ = writeln!(json, "      \"legacy_speedup\": {:.2}", r.legacy_speedup());
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < sweeps.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"repr\": [");
    for (i, r) in repr_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"scale\": \"{}\",", r.scale);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"incidences\": {},", r.incidences);
        for (j, name) in REPR_NAMES.iter().enumerate() {
            let _ = writeln!(json, "      \"{name}_bits\": {},", r.bits[j]);
        }
        let _ = writeln!(json, "      \"auto_bits\": {},", r.auto_bits);
        let _ = writeln!(json, "      \"chunked_ratio\": {:.4},", r.ratio(2));
        let _ = writeln!(json, "      \"ef_ratio\": {:.4},", r.ratio(3));
        let _ = writeln!(json, "      \"auto_ratio\": {:.4},", r.auto_ratio());
        let _ = writeln!(json, "      \"pairings\": [");
        for (j, p) in r.pairings.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{ \"store\": \"{}\", \"residual\": \"{}\", \"sweep_ns_per_set\": {:.2} }}{}",
                p.store_repr,
                p.residual_repr,
                p.sweep_ns_per_set,
                if j + 1 < r.pairings.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(json, "      \"gains_identical\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < repr_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"threads\": [");
    for (i, r) in threads.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workers\": {},", r.workers);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"run_ns\": {:.0},", r.run_ns);
        let _ = writeln!(json, "      \"speedup_vs_1\": {:.2},", r.speedup_vs_1);
        let _ = writeln!(json, "      \"picks_identical\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < threads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"runtime\": [");
    for (i, r) in runtime_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workers\": {},", r.workers);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"pooled_ns\": {:.0},", r.pooled_ns);
        let _ = writeln!(json, "      \"fresh_ns\": {:.0},", r.fresh_ns);
        let _ = writeln!(json, "      \"pooled_speedup\": {:.2},", r.pooled_speedup);
        let _ = writeln!(json, "      \"identity\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < runtime_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"scheduler\": [");
    for (i, r) in scheduler_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workers\": {},", r.workers);
        let _ = writeln!(json, "      \"tasks\": {},", r.tasks);
        let _ = writeln!(json, "      \"inject_ns_per_task\": {:.2},", r.inject_ns);
        let _ = writeln!(json, "      \"steal_latency_ns\": {:.2},", r.steal_lat_ns);
        let _ = writeln!(
            json,
            "      \"old_dispatch_ns_per_task\": {:.2},",
            r.old_dispatch_ns
        );
        let _ = writeln!(
            json,
            "      \"new_dispatch_ns_per_task\": {:.2},",
            r.new_dispatch_ns
        );
        let _ = writeln!(json, "      \"dispatch_ratio\": {:.2},", r.dispatch_ratio);
        let _ = writeln!(json, "      \"identity\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < scheduler_rows.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"shards\": [");
    for (i, r) in shard_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"shards\": {},", r.shards);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"build_flat_ns\": {:.0},", r.build_flat_ns);
        let _ = writeln!(json, "      \"sweep_flat_ns\": {:.2},", r.sweep_flat_ns);
        let _ = writeln!(
            json,
            "      \"sweep_sharded_ns\": {:.2},",
            r.sweep_sharded_ns
        );
        let _ = writeln!(json, "      \"gains_identical\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < shard_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"guess_grid\": [");
    for (i, r) in guess_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"guess_workers\": {},", r.guess_workers);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"grid_len\": {},", r.grid_len);
        let _ = writeln!(json, "      \"run_ns\": {:.0},", r.run_ns);
        let _ = writeln!(json, "      \"speedup_vs_1\": {:.2},", r.speedup_vs_1);
        let _ = writeln!(json, "      \"report_identical\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < guess_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"service\": [");
    for (i, r) in service_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"threads\": {},", r.threads);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"distinct_targets\": {},", r.distinct_targets);
        let _ = writeln!(json, "      \"queries\": {},", r.queries);
        let _ = writeln!(json, "      \"mutations\": {},", r.mutations);
        let _ = writeln!(json, "      \"qps\": {:.0},", r.qps);
        let _ = writeln!(json, "      \"p50_ns\": {:.0},", r.p50_ns);
        let _ = writeln!(json, "      \"p99_ns\": {:.0},", r.p99_ns);
        let _ = writeln!(json, "      \"cache_hit_rate\": {:.4},", r.hit_rate);
        let _ = writeln!(json, "      \"epoch_identity\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < service_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"mutation\": [");
    for (i, r) in mutation_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"scale\": \"{}\",", r.scale);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"inserts\": {},", r.inserts);
        let _ = writeln!(json, "      \"deletes\": {},", r.deletes);
        let _ = writeln!(json, "      \"apply_ns_per_op\": {:.2},", r.apply_ns);
        let _ = writeln!(json, "      \"compact_ns\": {:.0},", r.compact_ns);
        let _ = writeln!(json, "      \"tombstone_ratio\": {:.4},", r.tombstone_ratio);
        let _ = writeln!(json, "      \"reclaimed_bits\": {},", r.reclaimed_bits);
        let _ = writeln!(json, "      \"window_w\": {},", r.window_w);
        let _ = writeln!(
            json,
            "      \"window_apply_ns_per_op\": {:.2},",
            r.window_apply_ns
        );
        let _ = writeln!(json, "      \"snapshot_ns\": {:.0},", r.snapshot_ns);
        let _ = writeln!(json, "      \"window_solve_ns\": {:.0},", r.window_solve_ns);
        let _ = writeln!(json, "      \"service_rounds\": {},", r.service_rounds);
        let _ = writeln!(
            json,
            "      \"service_compactions\": {},",
            r.service_compactions
        );
        let _ = writeln!(
            json,
            "      \"service_min_live_ratio\": {:.4},",
            r.service_min_live_ratio
        );
        let _ = writeln!(json, "      \"identity\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < mutation_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"dist\": [");
    for (i, r) in dist_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workload\": \"{}\",", r.workload);
        let _ = writeln!(json, "      \"backend\": \"{}\",", r.backend);
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"owners\": {},", r.owners);
        let _ = writeln!(json, "      \"picks\": {},", r.picks);
        let _ = writeln!(json, "      \"rounds\": {},", r.rounds);
        let _ = writeln!(json, "      \"protocol_bits\": {},", r.protocol_bits);
        let _ = writeln!(json, "      \"setup_bits\": {},", r.setup_bits);
        let _ = writeln!(json, "      \"bytes_per_pick\": {},", r.bytes_per_pick);
        let _ = writeln!(json, "      \"dist_ns\": {:.0},", r.dist_ns);
        let _ = writeln!(json, "      \"sharded_ns\": {:.0},", r.sharded_ns);
        let _ = writeln!(
            json,
            "      \"lower_bound_bits\": {:.2},",
            r.lower_bound_bits
        );
        let _ = writeln!(json, "      \"bits_ratio\": {:.4},", r.bits_ratio);
        let _ = writeln!(json, "      \"identity\": true");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < dist_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"greedy\": [");
    for (i, r) in greedy.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {},", r.n);
        let _ = writeln!(json, "      \"m\": {},", r.m);
        let _ = writeln!(json, "      \"planted_opt\": {},", r.opt);
        let _ = writeln!(json, "      \"lazy_ns\": {:.0},", r.lazy_ns);
        let _ = writeln!(json, "      \"eager_ns\": {:.0},", r.eager_ns);
        let _ = writeln!(json, "      \"lazy_speedup\": {:.2}", r.speedup());
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < greedy.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if check {
        let mut failed = Vec::new();
        for r in &kernels {
            // The representation claim is gated at the baseline tier: the
            // AVX-512 vpopcntdq dense kernel moved the hardware crossover,
            // so the effective-tier ratio is recorded but the SSE2-pinned
            // ratio is what must hold on every host.
            if r.base_coverage_speedup() < 2.0 {
                failed.push(format!(
                    "kernels/{}: base-tier sparse coverage speedup {:.2} < 2.0",
                    r.name,
                    r.base_coverage_speedup()
                ));
            }
        }
        for r in &sweeps {
            // Gated against the frozen branchy baseline (see bench_sweep);
            // batched-vs-current-per-set is recorded but not gated, the
            // two paths now sharing one kernel per tier.
            if r.legacy_speedup() < 2.0 {
                failed.push(format!(
                    "sweep/{}: batched speedup {:.2} < 2.0 vs the legacy branchy loop",
                    r.name,
                    r.legacy_speedup()
                ));
            }
        }
        for r in &repr_rows {
            // Pairing identity was asserted unconditionally inside the
            // arm; the checkable perf criterion is the measured
            // compression: on the runs-structured Zipf catalog the chunked
            // encoding must land at ≤ 0.6× the best flat encoding, and
            // Auto (the measured argmin) can never lose to a forcing.
            if r.ratio(2) > 0.6 {
                failed.push(format!(
                    "repr/{}: chunked ratio {:.3} > 0.6x best-of-sparse/dense",
                    r.scale,
                    r.ratio(2)
                ));
            }
            let best = r.bits.iter().copied().min().unwrap_or(0);
            if r.auto_bits > best {
                failed.push(format!(
                    "repr/{}: auto stored_bits {} exceeds best forcing {best}",
                    r.scale, r.auto_bits
                ));
            }
        }
        for r in &greedy {
            if r.m >= 4096 && r.speedup() <= 1.0 {
                failed.push(format!(
                    "greedy m={}: lazy speedup {:.2} ≤ 1.0",
                    r.m,
                    r.speedup()
                ));
            }
        }
        // Scheduler timing gates are enforced only on hosts with real
        // parallelism: on fewer than 4 cores the lock contention the
        // rewrite removes cannot manifest, so old-vs-new there measures
        // scheduling noise, not the scheduler. (Identity gates ran
        // unconditionally inside the arm.)
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        if cores >= 4 {
            for r in &scheduler_rows {
                if r.workers == 1 && r.dispatch_ratio < 0.9 {
                    failed.push(format!(
                        "scheduler workers=1: new dispatch {:.0}ns/task worse than old {:.0}ns/task (ratio {:.2} < 0.9)",
                        r.new_dispatch_ns, r.old_dispatch_ns, r.dispatch_ratio
                    ));
                }
                if r.workers >= 4 && r.dispatch_ratio <= 1.0 {
                    failed.push(format!(
                        "scheduler workers={}: new dispatch {:.0}ns/task not faster than old {:.0}ns/task",
                        r.workers, r.new_dispatch_ns, r.old_dispatch_ns
                    ));
                }
            }
        } else {
            eprintln!(
                "scheduler timing gates skipped: {cores} core(s) < 4 (identity gates were asserted in-arm)"
            );
        }
        for r in &dist_rows {
            // Solution identity vs the sequential reference was asserted
            // unconditionally inside the arm; the checkable criterion here
            // is the lower-bound sanity on the hard distribution: measured
            // protocol bits on D_SC must dominate the Disj_t floor.
            if r.lower_bound_bits > 0.0 && r.bits_ratio < 1.0 {
                failed.push(format!(
                    "dist/{}: measured {} bits under the Disj floor {:.0} (ratio {:.4})",
                    r.workload, r.protocol_bits, r.lower_bound_bits, r.bits_ratio
                ));
            }
        }
        for r in &service_rows {
            // Epoch identity is asserted unconditionally inside the arm;
            // the checkable criterion here is that the Zipf head actually
            // exercises the epoch cache.
            if r.hit_rate <= 0.0 {
                failed.push(format!(
                    "service threads={}: cache hit-rate {:.4} not > 0",
                    r.threads, r.hit_rate
                ));
            }
        }
        for r in &mutation_rows {
            // The identity gates (replay ≡ materialization, compaction
            // remap commutes, windowed snapshot ≡ reference rebuild, soak
            // live-ratio bound) were asserted unconditionally inside the
            // arm; here --check requires that the arm measured the real
            // thing: the mix produced garbage, compaction reclaimed it,
            // and the soak's policy actually fired.
            if r.tombstone_ratio <= 0.0 {
                failed.push(format!(
                    "mutation/{}: delete mix produced no tombstone garbage",
                    r.scale
                ));
            }
            if r.reclaimed_bits == 0 {
                failed.push(format!("mutation/{}: compaction reclaimed 0 bits", r.scale));
            }
            if r.service_compactions == 0 {
                failed.push(format!(
                    "mutation/{}: service soak never compacted",
                    r.scale
                ));
            }
        }
        if !failed.is_empty() {
            for f in &failed {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("all perf checks passed");
    }
}

//! Machine-readable checks of the paper's asymptotic substrate claims.
//! Four arms, each gating one claim that no test checks at this scale:
//!
//! * `kernels` — in the `D_SC` regime (`m` sets of average size `n^{1/3}`,
//!   α = 3, over universes `n = 2^14 … 2^16`), where a dense word-scan
//!   pays `n/64` word ops per pair while the sparse merge-walk pays
//!   `O(n^{1/3})`, sparse coverage is ≥ 2× dense. Both sides run at the
//!   effective kernel tier (recorded per row); the dense word-AND popcount
//!   is the same portable kernel at every tier, so on an AVX2 host the gate
//!   compares the SSE2 block merge against it. The union/difference/
//!   residual-gain kernels are recorded beside it.
//! * `repr` — on a runs-structured Zipf catalog the chunked encoding
//!   stores ≤ 0.6× the bits of the best flat (sparse/dense) encoding, and
//!   `Auto` is no worse than any forcing. Every store-repr × residual-repr
//!   sweep pairing must reproduce one gains vector (asserted in-arm).
//! * `greedy` — lazy (CELF) greedy picks exactly eager greedy's ids, and
//!   is faster at `m ≥ 4096`.
//! * `dist` — the message-passing shard-owner executor (`DistCover`) on
//!   planted, podcast-catalogue and `D_SC` workloads, at every owner count
//!   over both thread fabrics, returns the sequential CELF reference
//!   (asserted in-arm), and its measured protocol bits equal the cost
//!   predicted from the wire frame sizes. The `D_SC` rows record the
//!   ratio to the `Disj_t` communication floor as context.
//!
//! Wall-clock time of whole workloads, and its split by layer, is
//! perfbench's job (`perfbench/README.md`). This binary records a timing
//! only where a gate reads it, or as context beside a gated count.
//!
//! Usage: `substrate_bench [--smoke] [--check] [--seed N] [--out PATH]`
//!
//! * `--smoke` — smallest scale only (CI's release-mode job);
//! * `--check` — exit nonzero unless every gate above holds;
//! * `--out` — output path; default `BENCH_substrate.json`, or
//!   `target/BENCH_substrate.smoke.json` under `--smoke`, so a smoke run
//!   never overwrites the committed full-scale file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::hint::black_box;
use std::time::Instant;
use streamcover_comm::DistCover;
use streamcover_core::{
    bernoulli_elems, greedy_cover_until, greedy_cover_until_eager, greedy_cover_until_sharded,
    BatchedSweep, BitSet, KernelTier, ReprPolicy, SetRef, SetStore, SetSystem,
};
use streamcover_dist::{planted_cover, podcast_catalog, sample_dsc_with_theta, ScParams};
use streamcover_info::dsc_lower_bound_bits;
use streamcover_stream::DistBackend;

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

/// One JSON value of an output row.
enum Field {
    Int(u64),
    /// A float printed with the given number of decimals.
    Num(f64, usize),
    Str(&'static str),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Field::Int(v) => write!(f, "{v}"),
            Field::Num(v, decimals) => write!(f, "{v:.decimals$}"),
            Field::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

/// One JSON object of an arm's output, keys in output order.
type Row = Vec<(&'static str, Field)>;

/// Renders the output document: the header fields, then one array of rows
/// per arm.
fn render_json(seed: u64, smoke: bool, arms: &[(&str, Vec<Row>)]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"streamcover/substrate-bench/v2\",\n  \"seed\": {seed},\n  \"smoke\": {smoke}"
    );
    for (arm, rows) in arms {
        let objects: Vec<String> = rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = row
                    .iter()
                    .map(|(key, value)| format!("      \"{key}\": {value}"))
                    .collect();
                format!("    {{\n{}\n    }}", fields.join(",\n"))
            })
            .collect();
        out += &format!(",\n  \"{arm}\": [\n{}\n  ]", objects.join(",\n"));
    }
    out + "\n}\n"
}

struct KernelRow {
    name: &'static str,
    n: usize,
    m: usize,
    avg_set_size: f64,
    coverage_sparse_ns: f64,
    coverage_dense_ns: f64,
    union_sparse_ns: f64,
    union_dense_ns: f64,
    difference_sparse_ns: f64,
    difference_dense_ns: f64,
    residual_gain_sparse_ns: f64,
    residual_gain_dense_ns: f64,
}

impl KernelRow {
    /// The gated ratio — the *representation* claim: a sparse merge pays
    /// `O(n^{1/3})` per pair where a dense scan pays `n/64` words.
    fn coverage_speedup(&self) -> f64 {
        self.coverage_dense_ns / self.coverage_sparse_ns
    }

    fn json(&self) -> Row {
        let ns = |v: f64| Field::Num(v, 2);
        vec![
            ("scale", Field::Str(self.name)),
            ("n", Field::Int(self.n as u64)),
            ("m", Field::Int(self.m as u64)),
            ("avg_set_size", ns(self.avg_set_size)),
            ("tier", Field::Str(KernelTier::effective().name())),
            ("coverage_sparse_ns", ns(self.coverage_sparse_ns)),
            ("coverage_dense_ns", ns(self.coverage_dense_ns)),
            ("coverage_sparse_speedup", ns(self.coverage_speedup())),
            ("union_sparse_ns", ns(self.union_sparse_ns)),
            ("union_dense_ns", ns(self.union_dense_ns)),
            ("difference_sparse_ns", ns(self.difference_sparse_ns)),
            ("difference_dense_ns", ns(self.difference_dense_ns)),
            ("residual_gain_sparse_ns", ns(self.residual_gain_sparse_ns)),
            ("residual_gain_dense_ns", ns(self.residual_gain_dense_ns)),
        ]
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
        union_sparse_ns: time_ns_per_op(pairs, samples, || pairwise(&sparse, union)),
        union_dense_ns: time_ns_per_op(pairs, samples, || pairwise(&dense, union)),
        difference_sparse_ns: time_ns_per_op(pairs, samples, || pairwise(&sparse, diff)),
        difference_dense_ns: time_ns_per_op(pairs, samples, || pairwise(&dense, diff)),
        residual_gain_sparse_ns: time_ns_per_op(m as u64, samples, || gain_sweep(&sparse)),
        residual_gain_dense_ns: time_ns_per_op(m as u64, samples, || gain_sweep(&dense)),
    }
}

struct ReprRow {
    scale: &'static str,
    n: usize,
    m: usize,
    incidences: u64,
    /// Measured `stored_bits()` under each forcing: sparse, dense,
    /// chunked, Elias–Fano.
    bits: [u64; 4],
    /// Measured `stored_bits()` under `ReprPolicy::Auto`.
    auto_bits: u64,
}

impl ReprRow {
    /// The better of the two flat encodings.
    fn best_flat_bits(&self) -> u64 {
        self.bits[0].min(self.bits[1]).max(1)
    }

    fn ratio(&self, repr: usize) -> f64 {
        self.bits[repr] as f64 / self.best_flat_bits() as f64
    }

    fn auto_ratio(&self) -> f64 {
        self.auto_bits as f64 / self.best_flat_bits() as f64
    }

    fn json(&self) -> Row {
        vec![
            ("scale", Field::Str(self.scale)),
            ("n", Field::Int(self.n as u64)),
            ("m", Field::Int(self.m as u64)),
            ("incidences", Field::Int(self.incidences)),
            ("sparse_bits", Field::Int(self.bits[0])),
            ("dense_bits", Field::Int(self.bits[1])),
            ("chunked_bits", Field::Int(self.bits[2])),
            ("ef_bits", Field::Int(self.bits[3])),
            ("auto_bits", Field::Int(self.auto_bits)),
            ("chunked_ratio", Field::Num(self.ratio(2), 4)),
            ("ef_ratio", Field::Num(self.ratio(3), 4)),
            ("auto_ratio", Field::Num(self.auto_ratio(), 4)),
        ]
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

/// The `repr` arm: measured compression of the chunked / Elias–Fano
/// encodings against the best flat (sparse/dense) encoding on a
/// runs-structured Zipf catalog. Identity is hard-gated in-arm: every
/// store-repr × residual-repr sweep pairing (plus `Auto` and the columnar
/// dense walk) must reproduce the ForceSparse gains vector bit-for-bit.
/// `--check` additionally requires the chunked encoding to land at ≤ 0.6×
/// the best flat encoding, and `Auto` to be no worse than every forcing.
fn bench_repr(scale: &'static str, n: usize, m: usize, seed: u64) -> ReprRow {
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

    ReprRow {
        scale,
        n,
        m,
        incidences: stores[0].total_incidences() as u64,
        bits: std::array::from_fn(|i| stores[i].stored_bits()),
        auto_bits: auto.stored_bits(),
    }
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

    fn json(&self) -> Row {
        vec![
            ("n", Field::Int(self.n as u64)),
            ("m", Field::Int(self.m as u64)),
            ("planted_opt", Field::Int(self.opt as u64)),
            ("lazy_ns", Field::Num(self.lazy_ns, 0)),
            ("eager_ns", Field::Num(self.eager_ns, 0)),
            ("lazy_speedup", Field::Num(self.speedup(), 2)),
        ]
    }
}

/// Benchmarks lazy (CELF) vs eager greedy set cover on a planted instance,
/// asserting both pick the same ids.
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

struct DistRow {
    workload: &'static str,
    backend: &'static str,
    n: usize,
    m: usize,
    owners: usize,
    picks: usize,
    rounds: usize,
    protocol_bits: u64,
    /// The protocol cost predicted from the wire frame sizes
    /// ([`streamcover_comm::DistCoverRun::predicted_bits`]).
    predicted_bits: u64,
    setup_bits: u64,
    bytes_per_pick: u64,
    dist_ns: f64,
    sharded_ns: f64,
    /// The Lemma 3.4 communication floor (`> 0` only on the `D_SC` rows).
    lower_bound_bits: f64,
}

impl DistRow {
    /// `protocol_bits / lower_bound_bits` (0 when no bound applies).
    fn bits_ratio(&self) -> f64 {
        if self.lower_bound_bits > 0.0 {
            self.protocol_bits as f64 / self.lower_bound_bits
        } else {
            0.0
        }
    }

    fn json(&self) -> Row {
        vec![
            ("workload", Field::Str(self.workload)),
            ("backend", Field::Str(self.backend)),
            ("n", Field::Int(self.n as u64)),
            ("m", Field::Int(self.m as u64)),
            ("owners", Field::Int(self.owners as u64)),
            ("picks", Field::Int(self.picks as u64)),
            ("rounds", Field::Int(self.rounds as u64)),
            ("protocol_bits", Field::Int(self.protocol_bits)),
            ("predicted_bits", Field::Int(self.predicted_bits)),
            ("setup_bits", Field::Int(self.setup_bits)),
            ("bytes_per_pick", Field::Int(self.bytes_per_pick)),
            ("dist_ns", Field::Num(self.dist_ns, 0)),
            ("sharded_ns", Field::Num(self.sharded_ns, 0)),
            ("lower_bound_bits", Field::Num(self.lower_bound_bits, 2)),
            ("bits_ratio", Field::Num(self.bits_ratio(), 4)),
        ]
    }
}

/// The `dist` arm: the message-passing shard-owner executor against the
/// in-process sharded seeding path at matched owner counts, over both
/// thread fabrics. Solution identity vs the sequential CELF reference is
/// asserted unconditionally in-arm for every row; bytes-per-pick, rounds
/// and wall-clock are recorded. The `D_SC` rows split the hard instance
/// exactly Alice/Bob across two owners and record the measured protocol
/// bits against [`dsc_lower_bound_bits`] as context. `--check` gates every
/// row's measured bits to equal the frame-size prediction exactly.
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
                    predicted_bits: run.predicted_bits(),
                    setup_bits: run.setup_bits,
                    bytes_per_pick: run.bytes_per_pick(),
                    dist_ns,
                    sharded_ns,
                    lower_bound_bits: 0.0,
                });
            }
        }
    }

    // The communication floor as context: a D_SC instance, Alice's sets
    // owner 0 / Bob's owner 1 under BySetRange, protocol bits vs Disj_t.
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
        rows.push(DistRow {
            workload: if theta { "dsc_theta1" } else { "dsc_theta0" },
            backend: "in_process",
            n: p.n,
            m: sys.len(),
            owners: run.owners,
            picks: run.result.ids.len(),
            rounds: run.rounds,
            protocol_bits: run.total_bits(),
            predicted_bits: run.predicted_bits(),
            setup_bits: run.setup_bits,
            bytes_per_pick: run.bytes_per_pick(),
            dist_ns,
            sharded_ns,
            lower_bound_bits: dsc_lower_bound_bits(p.t),
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
    let default_out = if smoke {
        "target/BENCH_substrate.smoke.json"
    } else {
        "BENCH_substrate.json"
    };
    let out_path = grab("--out").unwrap_or_else(|| default_out.into());

    let kernel_scales: &[(&'static str, usize, usize)] = if smoke {
        &[("small", 1 << 14, 128)]
    } else {
        &[
            ("small", 1 << 14, 128),
            ("medium", 1 << 15, 128),
            ("large", 1 << 16, 128),
        ]
    };
    let repr_scales: &[(&'static str, usize, usize)] = if smoke {
        &[("small", 1 << 20, 256)]
    } else {
        &[("small", 1 << 20, 256), ("large", 1 << 22, 512)]
    };
    let greedy_scales: &[(usize, usize, usize)] = if smoke {
        &[(2048, 4096, 16)]
    } else {
        &[(2048, 1024, 16), (2048, 4096, 16), (4096, 8192, 16)]
    };

    eprintln!("substrate_bench: seed={seed} smoke={smoke}");
    let kernels: Vec<KernelRow> = kernel_scales
        .iter()
        .map(|&(name, n, m)| {
            let row = bench_kernels(name, n, m, seed);
            eprintln!(
                "  kernels/{name}: n={n} m={m} avg|S|={:.1} coverage {:.1}ns (sparse) vs {:.1}ns (dense) — {:.1}x at tier {}",
                row.avg_set_size,
                row.coverage_sparse_ns,
                row.coverage_dense_ns,
                row.coverage_speedup(),
                KernelTier::effective().name()
            );
            row
        })
        .collect();
    let repr_rows: Vec<ReprRow> = repr_scales
        .iter()
        .map(|&(name, n, m)| {
            let row = bench_repr(name, n, m, seed);
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
            row
        })
        .collect();
    let greedy: Vec<GreedyRow> = greedy_scales
        .iter()
        .map(|&(n, m, opt)| {
            let row = bench_greedy(n, m, opt, seed);
            eprintln!(
                "  greedy: n={n} m={m} lazy {:.0}ns vs eager {:.0}ns — {:.1}x (ids identical)",
                row.lazy_ns,
                row.eager_ns,
                row.speedup()
            );
            row
        })
        .collect();
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
                format!(" ({:.0}x the Disj floor)", r.bits_ratio())
            } else {
                String::new()
            }
        );
    }

    let json = render_json(
        seed,
        smoke,
        &[
            ("kernels", kernels.iter().map(KernelRow::json).collect()),
            ("repr", repr_rows.iter().map(ReprRow::json).collect()),
            ("greedy", greedy.iter().map(GreedyRow::json).collect()),
            ("dist", dist_rows.iter().map(DistRow::json).collect()),
        ],
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if check {
        let mut failed = Vec::new();
        for r in &kernels {
            if r.coverage_speedup() < 2.0 {
                failed.push(format!(
                    "kernels/{}: sparse coverage speedup {:.2} < 2.0 at tier {}",
                    r.name,
                    r.coverage_speedup(),
                    KernelTier::effective().name()
                ));
            }
        }
        for r in &repr_rows {
            // Pairing identity was asserted unconditionally inside the
            // arm; the checkable criterion is the measured compression:
            // on the runs-structured Zipf catalog the chunked encoding
            // must land at ≤ 0.6× the best flat encoding, and Auto (the
            // measured argmin) can never lose to a forcing.
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
        for r in &dist_rows {
            // Solution identity vs the sequential reference was asserted
            // unconditionally inside the arm; the checkable criterion here
            // is the exact protocol cost: measured bits must equal the
            // frame-size prediction (the D_SC floor ratio is context only).
            if r.protocol_bits != r.predicted_bits {
                failed.push(format!(
                    "dist/{}/{} owners={}: measured {} protocol bits, predicted {}",
                    r.workload, r.backend, r.owners, r.protocol_bits, r.predicted_bits
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

//! The four workloads: seeded set-up, one iteration of their jobs, and the
//! checks on every output.

use crate::trace::Tracer;
use crate::util::ms_since;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;
use streamcover_comm::cluster::decode_frame;
use streamcover_comm::{DistCover, Frame, Message, Transcript};
use streamcover_core::{
    greedy_cover_until, random_subset_elems, BitSet, CoverResult, SetId, SetSystem,
};
use streamcover_dist::{
    planted_cover, podcast_catalog, sample_dsc_with_theta, zipf_query_mix, ScParams, ZipfQueryMix,
};
use streamcover_stream::{
    Arrival, CoverAnswer, CoverRun, CoverService, DistBackend, ElementSampling, ExecPolicy,
    GuessDriver, HarPeledAssadi, MaxCoverStreamer, Mutation, Runtime, SetCoverStreamer,
    ThresholdGreedy,
};

/// Deterministic quantities of a run, by name.
pub type Pins = BTreeMap<String, u64>;

/// The `ε` of every Algorithm 1 and element-sampling run.
pub const EPS: f64 = 0.5;
/// Owners of every distributed cover.
pub const OWNERS: usize = 2;
/// Pick budget of every distributed cover.
pub const PICKS: usize = 64;
/// Closed-loop service clients.
const CLIENTS: usize = 2;
/// Client 0 commits one mutation per this many of its queries.
const MUTATE_EVERY: usize = 64;
/// Each client keeps one query in this many for the epoch-exact replay.
const SAMPLE_EVERY: usize = 32;
/// Queries per client in one service iteration.
const BATCH_PER_CLIENT: usize = 256;

/// Operations checked and operations that failed a check.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DscAlg1,
    PlantedStream,
    ServiceZipf,
    PodcastDist,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::DscAlg1,
        Kind::PlantedStream,
        Kind::ServiceZipf,
        Kind::PodcastDist,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DscAlg1 => "dsc_alg1",
            Kind::PlantedStream => "planted_stream",
            Kind::ServiceZipf => "service_zipf",
            Kind::PodcastDist => "podcast_dist",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A workload's inputs and the system, service or cluster inputs built from
/// them.
// One `State` lives per process, so the variants' size difference costs
// nothing.
#[allow(clippy::large_enum_variant)]
pub enum State {
    Dsc {
        /// Pairs of a θ=1 and a θ=0 instance, in that order.
        pairs: Vec<[SetSystem; 2]>,
    },
    Planted {
        systems: Vec<SetSystem>,
    },
    Service(Vec<ServiceLoad>),
    Podcast {
        sys: SetSystem,
        target: BitSet,
        reference: CoverResult,
    },
}

/// Independent instances per run; one iteration runs the jobs of one of
/// them. The work of one instance swings with the seed, and a run's figures
/// add up all of them, so runs at different seeds agree. `D_SC` swings the
/// most (one Algorithm 1 run on `ScParams::explicit(16_384, 64, 64)` takes
/// 1.5 to 3 s), so it uses many small instances.
const DSC_PAIRS: usize = 32;
const PLANTED_INSTANCES: usize = 4;
const SERVICE_INSTANCES: usize = 3;

impl State {
    /// Number of instances; iterations cycle through them.
    pub fn instances(&self) -> usize {
        match self {
            State::Dsc { pairs } => pairs.len(),
            State::Planted { systems } => systems.len(),
            State::Service(loads) => loads.len(),
            State::Podcast { .. } => 1,
        }
    }

    /// The system the per-layer probes run on: the first instance of the
    /// kind that dominates the workload's time.
    pub fn main_system(&self) -> &SetSystem {
        match self {
            State::Dsc { pairs } => &pairs[0][1],
            State::Planted { systems } => &systems[0],
            State::Podcast { sys, .. } => sys,
            State::Service(loads) => &loads[0].initial,
        }
    }
}

/// One iteration's request latencies and deterministic quantities.
pub struct Iteration {
    pub requests_ms: Vec<f64>,
    pub pins: Pins,
}

/// Generates the workload's inputs from `seed` and builds what its jobs
/// run on.
pub fn setup(kind: Kind, seed: u64, tr: &Tracer) -> State {
    match kind {
        Kind::DscAlg1 => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD5C0);
            let p = ScParams::explicit(4096, 16, 32);
            let _g = tr.span("dist.generate");
            let pairs = (0..DSC_PAIRS)
                .map(|_| {
                    [true, false].map(|theta| sample_dsc_with_theta(&mut rng, p, theta).combined())
                })
                .collect();
            State::Dsc { pairs }
        }
        Kind::PlantedStream => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x91A7);
            let _g = tr.span("dist.generate");
            State::Planted {
                systems: (0..PLANTED_INSTANCES)
                    .map(|_| planted_cover(&mut rng, 4096, 8192, 32).system)
                    .collect(),
            }
        }
        Kind::ServiceZipf => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5E54);
            let inputs: Vec<(SetSystem, ZipfQueryMix)> = {
                let _g = tr.span("dist.generate");
                (0..SERVICE_INSTANCES)
                    .map(|_| {
                        let sys = planted_cover(&mut rng, 4096, 4096, 32).system;
                        let mix = zipf_query_mix(&mut rng, sys.universe(), 256, 8, 64, 1.0);
                        (sys, mix)
                    })
                    .collect()
            };
            let _g = tr.span("stream.service.build");
            State::Service(
                inputs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (sys, mix))| ServiceLoad::new(sys, mix, seed.wrapping_add(i as u64)))
                    .collect(),
            )
        }
        Kind::PodcastDist => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD157);
            let sys = {
                let _g = tr.span("dist.generate");
                podcast_catalog(&mut rng, 100_000, 2048, 1.0)
            };
            let target = BitSet::full(sys.universe());
            let reference = {
                let _g = tr.span("core.greedy.reference");
                greedy_cover_until(&sys, PICKS, &target)
            };
            State::Podcast {
                sys,
                target,
                reference,
            }
        }
    }
}

/// Runs the jobs of instance `i` once, checking every output.
pub fn iterate(
    state: &mut State,
    i: usize,
    seed: u64,
    tr: &Tracer,
    checks: &mut Checks,
) -> Iteration {
    let mut requests_ms = Vec::new();
    let mut pins = Pins::new();
    let seed = seed.wrapping_add(i as u64);
    match state {
        State::Dsc { pairs } => {
            for (j, sys) in pairs[i].iter().enumerate() {
                for alpha in [2, 3] {
                    let t0 = Instant::now();
                    let run = run_alg1(tr, sys, alpha, seed ^ ((j as u64) << 32));
                    requests_ms.push(ms_since(t0));
                    check_alg1(checks, sys, alpha, &run, true);
                    add(&mut pins, "peak_bits", run.peak_bits);
                    add(&mut pins, "passes", run.passes as u64);
                    add(&mut pins, "cover_size", run.size() as u64);
                }
            }
        }
        State::Planted { systems } => {
            let sys = &systems[i];
            let t0 = Instant::now();
            let run = run_alg1(tr, sys, 2, seed);
            requests_ms.push(ms_since(t0));
            check_alg1(checks, sys, 2, &run, true);
            add(&mut pins, "peak_bits", run.peak_bits);
            add(&mut pins, "passes", run.passes as u64);
            add(&mut pins, "cover_size", run.size() as u64);

            let t0 = Instant::now();
            let run = run_threshold_greedy(tr, sys, seed);
            requests_ms.push(ms_since(t0));
            checks.check(run.feasible && sys.is_cover(&run.solution), || {
                "threshold greedy returned a non-cover".into()
            });
            add(&mut pins, "peak_bits", run.peak_bits);
            add(&mut pins, "passes", run.passes as u64);
            add(&mut pins, "cover_size", run.size() as u64);

            let t0 = Instant::now();
            let (chosen, coverage, passes, peak_bits) = run_element_sampling(tr, sys, 4, seed);
            requests_ms.push(ms_since(t0));
            checks.check(
                chosen.len() <= 4 && sys.coverage(&chosen).len() == coverage,
                || format!("element sampling returned {} sets for k=4", chosen.len()),
            );
            add(&mut pins, "peak_bits", peak_bits);
            add(&mut pins, "passes", passes as u64);
            add(&mut pins, "es_coverage", coverage as u64);

            let t0 = Instant::now();
            let full = BitSet::full(sys.universe());
            let greedy = {
                let _g = tr.span("core.greedy.cover");
                greedy_cover_until(sys, usize::MAX, &full)
            };
            requests_ms.push(ms_since(t0));
            checks.check(greedy.covered == full, || {
                "offline greedy left elements uncovered".into()
            });
            add(&mut pins, "cover_size", greedy.ids.len() as u64);
        }
        State::Service(loads) => {
            requests_ms = loads[i].batch(BATCH_PER_CLIENT, tr);
            pins = loads[i].setup_pins.clone();
        }
        State::Podcast {
            sys,
            target,
            reference,
        } => {
            for (backend, span) in [
                (DistBackend::InProcess, "comm.cluster.cover_in_process"),
                (DistBackend::Socket, "comm.cluster.cover_socket"),
            ] {
                let t0 = Instant::now();
                let run = {
                    let _g = tr.span(span);
                    DistCover::new(OWNERS, backend).cover(sys, PICKS, target)
                };
                requests_ms.push(ms_since(t0));
                match run {
                    Ok(run) => {
                        checks.check(run.result == *reference, || {
                            format!("{span}: distributed cover differs from greedy_cover_until")
                        });
                        add(&mut pins, "wire_bytes", run.total_bits() / 8);
                        add(&mut pins, "rounds", run.rounds as u64);
                        add(&mut pins, "cover_size", run.result.ids.len() as u64);
                    }
                    Err(e) => checks.check(false, || format!("{span}: {e}")),
                }
            }
        }
    }
    Iteration { requests_ms, pins }
}

fn add(pins: &mut Pins, key: &str, v: u64) {
    *pins.entry(key.to_string()).or_default() += v;
}

/// Adds every quantity of `other` into `total`.
pub fn add_pins(total: &mut Pins, other: &Pins) {
    for (key, &v) in other {
        add(total, key, v);
    }
}

/// Checks that need the whole run: the service's sampled answers.
pub fn finish(state: &State, checks: &mut Checks) {
    if let State::Service(loads) = state {
        for load in loads {
            load.replay(checks);
        }
    }
}

fn alg1_span(alpha: usize) -> &'static str {
    match alpha {
        2 => "stream.algo.alg1_a2",
        3 => "stream.algo.alg1_a3",
        _ => "stream.algo.alg1",
    }
}

/// Runs Algorithm 1 (`HarPeledAssadi::scaled(alpha, ε)`, sequential policy)
/// with a fixed rng seed. Traced, the run makes the calls `run_in` makes —
/// `GuessDriver::run` over `run_guess` — with a span and counts around each
/// guess.
pub fn run_alg1(tr: &Tracer, sys: &SetSystem, alpha: usize, seed: u64) -> CoverRun {
    let algo = HarPeledAssadi::scaled(alpha, EPS);
    let (rt, policy) = (Runtime::sequential(), ExecPolicy::sequential());
    let mut rng = StdRng::seed_from_u64(seed);
    let _g = tr.span(alg1_span(alpha));
    if !tr.on() {
        return algo.run_in(rt, &policy, sys, Arrival::Adversarial, &mut rng);
    }
    let mut slot = None;
    let rng = policy.select_rng(&mut rng, &mut slot);
    GuessDriver::new(EPS).run(
        algo.name(),
        rt,
        &policy,
        sys,
        Arrival::Adversarial,
        rng,
        |stream, meter, rng, k| {
            let _g = tr.span("stream.guessing.guess");
            let sol = algo.run_guess(rt, &policy, stream, meter, rng, k);
            tr.count("stream.guessing.guesses", 1);
            tr.count("stream.guessing.feasible_guesses", u64::from(sol.is_some()));
            sol
        },
    )
}

/// Algorithm 1 stays within 2α+1 passes and returns a cover exactly when
/// the instance has one.
pub fn check_alg1(
    checks: &mut Checks,
    sys: &SetSystem,
    alpha: usize,
    run: &CoverRun,
    coverable: bool,
) {
    let answer_ok = if coverable {
        run.feasible && sys.is_cover(&run.solution)
    } else {
        !run.feasible
    };
    checks.check(answer_ok && run.passes <= 2 * alpha + 1, || {
        format!(
            "alg1 α={alpha}: feasible={} passes={} (budget {})",
            run.feasible,
            run.passes,
            2 * alpha + 1
        )
    });
}

pub fn run_threshold_greedy(tr: &Tracer, sys: &SetSystem, seed: u64) -> CoverRun {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7467);
    let _g = tr.span("stream.algo.threshold_greedy");
    ThresholdGreedy.run_in(
        Runtime::sequential(),
        &ExecPolicy::sequential(),
        sys,
        Arrival::Adversarial,
        &mut rng,
    )
}

/// `ElementSampling::new(ε)` with budget `k`: `(chosen, coverage, passes,
/// peak bits)`.
pub fn run_element_sampling(
    tr: &Tracer,
    sys: &SetSystem,
    k: usize,
    seed: u64,
) -> (Vec<SetId>, usize, usize, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE5);
    let _g = tr.span("stream.maxcov.element_sampling");
    let run = ElementSampling::new(EPS).run_in(
        Runtime::sequential(),
        &ExecPolicy::sequential(),
        sys,
        k,
        Arrival::Adversarial,
        &mut rng,
    );
    (run.chosen, run.coverage, run.passes, run.peak_bits)
}

/// Protocol bits of a distributed cover's transcript by frame kind, read
/// from each message's frame header.
pub fn bits_by_frame_kind(transcript: &Transcript) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for msg in transcript.messages() {
        let kind = match msg {
            Message::Concrete { payload, .. } => match decode_frame(payload) {
                Ok(Frame::Join { .. }) => "join",
                Ok(Frame::Hello { .. }) => "hello",
                Ok(Frame::SetPayload(_)) => "set_payload",
                Ok(Frame::GainReport { .. }) => "gain_report",
                Ok(Frame::PickRequest { .. }) => "pick_request",
                Ok(Frame::Delta { .. }) => "delta",
                Ok(Frame::Advance { .. }) => "advance",
                Ok(Frame::Finish { .. }) => "finish",
                Ok(Frame::Fault { .. }) => "fault",
                Err(_) => "undecodable",
            },
            Message::Abstract { .. } => "abstract",
        };
        *out.entry(kind).or_default() += msg.bits();
    }
    out
}

/// What one closed-loop batch of service clients produced.
struct ClientOut {
    query_ms: Vec<f64>,
    mutation_ms: Vec<f64>,
    mutations: Vec<(u64, Mutation)>,
    samples: Vec<(Vec<u32>, CoverAnswer)>,
}

/// A resident `CoverService` under closed-loop Zipf load, with the mutation
/// log and sampled answers its replay check needs.
pub struct ServiceLoad {
    pub initial: SetSystem,
    pub svc: CoverService,
    mix: ZipfQueryMix,
    rngs: Vec<StdRng>,
    removed: HashSet<SetId>,
    log: Vec<(u64, Mutation)>,
    samples: Vec<(Vec<u32>, CoverAnswer)>,
    pub mutation_ms: Vec<f64>,
    /// Answers at epoch 0 to 16 fixed draws of the mix, before any load.
    pub setup_pins: Pins,
}

impl ServiceLoad {
    pub fn new(sys: SetSystem, mix: ZipfQueryMix, seed: u64) -> ServiceLoad {
        let svc = CoverService::with(
            sys.clone(),
            Runtime::global(),
            ExecPolicy::sequential().workers(2),
        );
        let mut draw_rng = StdRng::seed_from_u64(seed ^ 0x9A55);
        let mut cover_size = 0u64;
        let mut covered = 0u64;
        for _ in 0..16 {
            let (_, target) = mix.draw(&mut draw_rng);
            let a = svc.cover_for_subset(target);
            cover_size += a.solution.len() as u64;
            covered += a.covered as u64;
        }
        let setup_pins = Pins::from([
            ("cover_size".to_string(), cover_size),
            ("covered".to_string(), covered),
        ]);
        ServiceLoad {
            initial: sys,
            svc,
            mix,
            rngs: (0..CLIENTS as u64)
                .map(|c| StdRng::seed_from_u64(seed ^ (0xBEEF + 31 * c)))
                .collect(),
            removed: HashSet::new(),
            log: Vec::new(),
            samples: Vec::new(),
            mutation_ms: Vec::new(),
            setup_pins,
        }
    }

    /// One closed-loop batch: each client sends `per_client` queries, the
    /// next only after the previous answer; client 0 also commits an
    /// `add_set` or `remove_set` every `MUTATE_EVERY` queries. Returns the
    /// query latencies in milliseconds.
    pub fn batch(&mut self, per_client: usize, tr: &Tracer) -> Vec<f64> {
        let (svc, mix) = (&self.svc, &self.mix);
        let n = self.initial.universe();
        let removed = &mut self.removed;
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let mut removed = Some(removed);
            let handles: Vec<_> = self
                .rngs
                .iter_mut()
                .enumerate()
                .map(|(c, rng)| {
                    let removed = if c == 0 { removed.take() } else { None };
                    s.spawn(move || client(svc, mix, n, rng, removed, per_client, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("service client panicked"))
                .collect()
        });
        let mut query_ms = Vec::new();
        for out in outs {
            query_ms.extend(out.query_ms);
            self.mutation_ms.extend(out.mutation_ms);
            self.log.extend(out.mutations);
            self.samples.extend(out.samples);
        }
        query_ms
    }

    /// Replays the mutation log epoch by epoch and checks every sampled
    /// answer against a fresh `greedy_cover_until` at its serving epoch.
    pub fn replay(&self, checks: &mut Checks) {
        let mut log = self.log.clone();
        log.sort_by_key(|&(epoch, _)| epoch);
        let mut samples = self.samples.clone();
        samples.sort_by_key(|(_, a)| a.epoch);
        let mut replay = self.initial.clone();
        let mut applied = 0usize;
        for (target, a) in &samples {
            while replay.epoch() < a.epoch && applied < log.len() {
                match &log[applied].1 {
                    Mutation::Add { elems } => {
                        replay.add_set(elems);
                    }
                    Mutation::Remove { id } => replay.remove_set(*id),
                }
                applied += 1;
            }
            if replay.epoch() != a.epoch {
                checks.check(false, || {
                    format!(
                        "service served epoch {} the mutation log cannot reach",
                        a.epoch
                    )
                });
                continue;
            }
            let tb = BitSet::from_iter(replay.universe(), target.iter().map(|&e| e as usize));
            let fresh = greedy_cover_until(&replay, usize::MAX, &tb);
            checks.check(
                a.solution == fresh.ids
                    && a.covered == fresh.coverage()
                    && a.feasible == (fresh.coverage() == tb.len()),
                || {
                    format!(
                        "service answer differs from a fresh solve at epoch {}",
                        a.epoch
                    )
                },
            );
        }
    }
}

fn client(
    svc: &CoverService,
    mix: &ZipfQueryMix,
    n: usize,
    rng: &mut StdRng,
    mut removed: Option<&mut HashSet<SetId>>,
    queries: usize,
    tr: &Tracer,
) -> ClientOut {
    let mut out = ClientOut {
        query_ms: Vec::with_capacity(queries),
        mutation_ms: Vec::new(),
        mutations: Vec::new(),
        samples: Vec::new(),
    };
    for i in 0..queries {
        if let Some(removed) = removed.as_deref_mut() {
            if i % MUTATE_EVERY == MUTATE_EVERY - 1 {
                let t0 = Instant::now();
                let _g = tr.span("stream.service.mutation");
                let entry = if rng.gen_bool(0.5) {
                    let size = 1 + rng.gen_range(0usize..32);
                    let elems = random_subset_elems(rng, n, size);
                    let (epoch, _) = svc.add_set(&elems);
                    (epoch, Mutation::Add { elems })
                } else {
                    let id = loop {
                        let id = rng.gen_range(0..svc.num_sets());
                        if removed.insert(id) {
                            break id;
                        }
                    };
                    (svc.remove_set(id), Mutation::Remove { id })
                };
                out.mutations.push(entry);
                out.mutation_ms.push(ms_since(t0));
            }
        }
        let (_, target) = mix.draw(rng);
        let t0 = Instant::now();
        let answer = {
            let _g = tr.span("stream.service.query");
            svc.cover_for_subset(target)
        };
        out.query_ms.push(ms_since(t0));
        if i % SAMPLE_EVERY == 0 {
            out.samples.push((target.to_vec(), answer));
        }
    }
    out
}

//! The per-layer probes of a traced run. Each probe calls one layer's
//! public functions on the workload's own main system, inside a span named
//! after the layer's module, and derives that layer's metrics. Every probe
//! runs on every workload, so a metric always means the same call and only
//! the input changes.

use crate::trace::Tracer;
use crate::util::{median, ms_since, quantile};
use crate::workloads::{
    bits_by_frame_kind, check_alg1, run_alg1, run_element_sampling, run_threshold_greedy, Checks,
    Pins, ServiceLoad, EPS, OWNERS, PICKS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use streamcover_comm::cluster::wire::encode_frame;
use streamcover_comm::cluster::wire::{decode_set_payload, encode_set_body};
use streamcover_comm::cluster::{ChannelTransport, SocketTransport};
use streamcover_comm::{DistCover, Frame, OwnedSet, Transport};
use streamcover_core::{
    bernoulli_subset, budgeted_cover_of, greedy_cover_until, greedy_cover_until_sharded,
    BatchedSweep, BitSet, SetRepr, SetSystem,
};
use streamcover_dist::zipf_query_mix;
use streamcover_stream::{
    Accounting, Arrival, DistBackend, ExecPolicy, HarPeledAssadi, ParallelPass, Runtime, SetStream,
    SpaceMeter,
};

/// The exact oracle's node budget inside Algorithm 1.
const EXACT_NODE_BUDGET: u64 = 50_000;
/// Frame kinds the distributed protocol sends between threads.
const FRAME_KINDS: [&str; 5] = ["gain_report", "pick_request", "delta", "advance", "finish"];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-layer metrics, and the deterministic ones among them.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub det: Pins,
}

impl Layers {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A count that must repeat exactly at one seed.
    fn put_det(&mut self, name: &str, value: u64, unit: &'static str) {
        self.put(name, value as f64, unit);
        self.det.insert(name.to_string(), value);
    }
}

/// Runs `f` `reps` times, each inside a span `name`; returns the median
/// milliseconds per call and the last result.
fn spanned<T>(tr: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut durations = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let _g = tr.span(name);
        let t0 = Instant::now();
        last = Some(black_box(f()));
        durations.push(ms_since(t0));
    }
    (median(&durations), last.expect("reps ≥ 1"))
}

pub fn probe(sys: &SetSystem, seed: u64, tr: &Tracer, checks: &mut Checks) -> Layers {
    let mut out = Layers::default();
    let (n, m) = (sys.universe(), sys.len());
    let full = BitSet::full(n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E);

    // core.store: rebuild through push_sorted; the repr mix and bits.
    let lists: Vec<Vec<u32>> = (0..m)
        .map(|i| sys.set(i).iter().map(|e| e as u32).collect())
        .collect();
    let (build_ms, rebuilt) = spanned(tr, "core.store.push_sorted", 3, || {
        let mut s = SetSystem::new(n);
        for l in &lists {
            s.push_sorted(l);
        }
        s
    });
    checks.check(rebuilt.total_incidences() == sys.total_incidences(), || {
        "push_sorted rebuild lost elements".into()
    });
    out.put("core.store.push_ns", build_ms * 1e6 / m as f64, "ns");
    let mut reprs = [0u64; 4];
    for (_, s) in sys.iter() {
        reprs[match s.repr() {
            SetRepr::Sparse => 0,
            SetRepr::Dense => 1,
            SetRepr::Chunked => 2,
            SetRepr::EliasFano => 3,
        }] += 1;
    }
    for (name, count) in ["sparse", "dense", "chunked", "ef"].iter().zip(reprs) {
        out.put_det(&format!("core.store.repr_{name}"), count, "count");
    }
    out.put_det("core.store.stored_bits", sys.stored_bits(), "bits");

    // core.sweep: batched gains against a full and a half-covered residual.
    let half = bernoulli_subset(&mut rng, n, 0.5);
    let mut sweep = BatchedSweep::new();
    for (residual, span, name) in [
        (&full, "core.sweep.full", "core.sweep.full_ns_per_set"),
        (&half, "core.sweep.half", "core.sweep.half_ns_per_set"),
    ] {
        let (ms, _) = spanned(tr, span, 7, || {
            sweep.gains(sys.store(), residual).iter().sum::<usize>()
        });
        out.put(name, ms * 1e6 / m as f64, "ns");
    }

    // core.greedy / core.shard: a full cover, flat and over two shards.
    let (greedy_ms, greedy) = spanned(tr, "core.greedy.cover", 3, || {
        greedy_cover_until(sys, usize::MAX, &full)
    });
    out.put("core.greedy.cover_ms", greedy_ms, "ms");
    out.put_det("core.greedy.picks", greedy.ids.len() as u64, "count");
    // Not every catalogue covers its universe; the cover checks below
    // expect what greedy found.
    let coverable = greedy.covered == full;
    let (sharded_ms, sharded) = spanned(tr, "core.shard.sharded_cover", 3, || {
        greedy_cover_until_sharded(sys, OWNERS, usize::MAX, &full)
    });
    checks.check(sharded == greedy, || {
        "sharded greedy differs from flat greedy".into()
    });
    out.put("core.shard.sharded_cover_ms", sharded_ms, "ms");

    // core.exact: the oracle on projections sampled at Algorithm 1's
    // α=2 rate for the greedy cover size as the guess.
    let k = greedy.ids.len().max(1);
    let rate = HarPeledAssadi::scaled(2, EPS).sample_rate(n, m, k);
    let samples: Vec<BitSet> = (0..3)
        .map(|_| bernoulli_subset(&mut rng, n, rate))
        .collect();
    let mut exact_ms = Vec::new();
    let mut trips = 0u64;
    for u in &samples {
        let projected = {
            let _g = tr.span("core.store.project");
            let mut p = SetSystem::new(n);
            for (_, s) in sys.iter() {
                p.push_sorted(&s.intersection_elems(u));
            }
            p
        };
        let _g = tr.span("core.exact.solve");
        let t0 = Instant::now();
        let (ids, complete) = budgeted_cover_of(&projected, u, EXACT_NODE_BUDGET);
        exact_ms.push(ms_since(t0));
        trips += u64::from(!complete);
        if let Ok(ids) = ids {
            checks.check(u.is_subset_of(&projected.coverage(&ids)), || {
                "exact oracle returned a non-cover of the sample".into()
            });
        }
    }
    out.put("core.exact.solve_ms", median(&exact_ms), "ms");
    out.put_det("core.exact.budget_trips", trips, "count");

    // core.runtime: dispatch of two trivial parts onto the global pool.
    const CALLS: usize = 200;
    let parts = [1u64, 2];
    let (dispatch_ms, _) = spanned(tr, "core.runtime.map_parts", 15, || {
        (0..CALLS)
            .map(|_| Runtime::global().map_parts(&parts, |&x| x + 1).len())
            .sum::<usize>()
    });
    out.put(
        "core.runtime.dispatch_us",
        dispatch_ms * 1e3 / CALLS as f64,
        "us",
    );

    // stream.stream: one pass over the arrival order.
    let (pass_ms, _) = spanned(tr, "stream.stream.pass", 5, || {
        let mut stream = SetStream::new(sys, Arrival::Adversarial);
        stream.pass().map(|(_, s)| s.len()).sum::<usize>()
    });
    out.put(
        "stream.stream.pass_ns_per_set",
        pass_ms * 1e6 / m as f64,
        "ns",
    );

    // stream.parallel: Algorithm 1's pruning pass and its storing pass.
    let engine = ParallelPass::from_policy(Runtime::sequential(), &ExecPolicy::sequential());
    let threshold = ((n as f64) / (EPS * k as f64)).ceil().max(1.0) as usize;
    let (threshold_ms, _) = spanned(tr, "stream.parallel.threshold_pass", 3, || {
        let mut stream = SetStream::new(sys, Arrival::Adversarial);
        let mut residual = full.clone();
        let meter = SpaceMeter::new();
        engine.threshold_pass(&mut stream, &mut residual, threshold, &meter, |_, _| {})
    });
    out.put("stream.parallel.threshold_pass_ms", threshold_ms, "ms");
    let (store_ms, _) = spanned(tr, "stream.parallel.store_pass", 3, || {
        let mut stream = SetStream::new(sys, Arrival::Adversarial);
        let meter = SpaceMeter::new();
        engine
            .store_pass(
                &mut stream,
                &meter,
                Some((&samples[0], Accounting::ActualRepr)),
            )
            .2
    });
    out.put("stream.parallel.store_pass_ms", store_ms, "ms");

    // stream.algo / stream.guessing / stream.maxcov / stream.meter.
    for alpha in [2, 3] {
        let t0 = Instant::now();
        let run = run_alg1(tr, sys, alpha, seed);
        out.put(format!("stream.algo.alg1_a{alpha}_ms"), ms_since(t0), "ms");
        check_alg1(checks, sys, alpha, &run, coverable);
        out.put_det(
            &format!("stream.meter.peak_bits.alg1_a{alpha}"),
            run.peak_bits,
            "bits",
        );
    }
    let guesses = tr
        .summary()
        .remove("stream.guessing.guess")
        .unwrap_or_default();
    out.put_det(
        "stream.guessing.guesses",
        tr.counter("stream.guessing.guesses"),
        "count",
    );
    out.put_det(
        "stream.guessing.feasible_guesses",
        tr.counter("stream.guessing.feasible_guesses"),
        "count",
    );
    out.put(
        "stream.guessing.guess_ms_median",
        median(&guesses.durations_ms),
        "ms",
    );
    out.put(
        "stream.guessing.guess_ms_max",
        quantile(&guesses.durations_ms, 1.0),
        "ms",
    );
    let t0 = Instant::now();
    let run = run_threshold_greedy(tr, sys, seed);
    out.put("stream.algo.threshold_greedy_ms", ms_since(t0), "ms");
    checks.check(
        run.feasible == coverable && sys.is_cover(&run.solution) == coverable,
        || "threshold greedy feasibility disagrees with greedy".into(),
    );
    out.put_det(
        "stream.meter.peak_bits.threshold_greedy",
        run.peak_bits,
        "bits",
    );
    let t0 = Instant::now();
    let (chosen, _, _, peak_bits) = run_element_sampling(tr, sys, 2, seed);
    out.put("stream.maxcov.element_sampling_ms", ms_since(t0), "ms");
    checks.check(chosen.len() <= 2, || {
        "element sampling returned more than k sets".into()
    });
    out.put_det("stream.meter.peak_bits.element_sampling", peak_bits, "bits");

    probe_service(sys, seed, tr, checks, &mut out);
    probe_comm(sys, &greedy.ids, tr, checks, &mut out);
    out
}

/// stream.service: a fresh service over the main system under the
/// workload's closed-loop load shape, then one client whose calls are
/// classified hit or miss by the stats delta around each call.
fn probe_service(sys: &SetSystem, seed: u64, tr: &Tracer, checks: &mut Checks, out: &mut Layers) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E57);
    let mix = zipf_query_mix(&mut rng, sys.universe(), 256, 8, 64, 1.0);
    let mut load = {
        let _g = tr.span("stream.service.build");
        ServiceLoad::new(sys.clone(), mix.clone(), seed)
    };
    let before = load.svc.stats();
    for _ in 0..4 {
        load.batch(128, tr);
    }
    let after = load.svc.stats();
    let queries = (after.queries - before.queries).max(1) as f64;
    out.put(
        "stream.service.hit_rate",
        (after.cache_hits - before.cache_hits) as f64 / queries,
        "ratio",
    );
    out.put(
        "stream.service.coalesce_rate",
        (after.coalesced - before.coalesced) as f64 / queries,
        "ratio",
    );
    out.put(
        "stream.service.computed",
        (after.computed - before.computed) as f64,
        "count",
    );
    out.put(
        "stream.service.mutation_wait_p90_ms",
        quantile(&load.mutation_ms, 0.9),
        "ms",
    );
    load.replay(checks);

    let (mut hit_us, mut miss_ms) = (Vec::new(), Vec::new());
    for _ in 0..256 {
        let (_, target) = mix.draw(&mut rng);
        let s0 = load.svc.stats();
        let t0 = Instant::now();
        {
            let _g = tr.span("stream.service.query");
            black_box(load.svc.cover_for_subset(target));
        }
        let ms = ms_since(t0);
        let s1 = load.svc.stats();
        if s1.cache_hits > s0.cache_hits {
            hit_us.push(ms * 1e3);
        } else if s1.computed > s0.computed {
            miss_ms.push(ms);
        }
    }
    checks.check(!hit_us.is_empty() && !miss_ms.is_empty(), || {
        "single-client service probe saw no hit or no miss".into()
    });
    out.put("stream.service.hit_us", median_or_nan(&hit_us), "us");
    out.put("stream.service.miss_ms", median_or_nan(&miss_ms), "ms");
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// comm.wire, comm.transport and comm.cluster on the main system.
fn probe_comm(
    sys: &SetSystem,
    greedy_ids: &[usize],
    tr: &Tracer,
    checks: &mut Checks,
    out: &mut Layers,
) {
    // comm.wire: every set's self-describing body, encoded then decoded.
    let mut buf = Vec::new();
    let mut ends = Vec::with_capacity(sys.len());
    let (encode_ms, _) = spanned(tr, "comm.wire.encode_set_body", 3, || {
        buf.clear();
        ends.clear();
        for (_, s) in sys.iter() {
            encode_set_body(s, &mut buf);
            ends.push(buf.len());
        }
        buf.len()
    });
    let bytes = buf.len().max(1) as f64;
    out.put(
        "comm.wire.encode_ns_per_byte",
        encode_ms * 1e6 / bytes,
        "ns",
    );
    let bodies: Vec<&[u8]> = std::iter::once(0)
        .chain(ends.iter().copied())
        .zip(&ends)
        .map(|(lo, &hi)| &buf[lo..hi])
        .collect();
    let (decode_ms, decoded) = spanned(tr, "comm.wire.decode_set_payload", 3, || {
        bodies
            .iter()
            .map(|b| decode_set_payload(b))
            .collect::<Vec<_>>()
    });
    out.put(
        "comm.wire.decode_ns_per_byte",
        decode_ms * 1e6 / bytes,
        "ns",
    );
    let roundtrip = decoded
        .iter()
        .zip(sys.iter())
        .all(|(d, (_, s))| d.as_ref().is_ok_and(|d| *d == OwnedSet::from_ref(s)));
    checks.check(roundtrip, || {
        "set bodies did not round-trip the wire".into()
    });

    // comm.transport: ping-pong of a frame the size of the first pick's
    // delta.
    let elems: Vec<u32> = greedy_ids
        .first()
        .map(|&i| sys.set(i).iter().map(|e| e as u32).collect())
        .unwrap_or_default();
    let frame = encode_frame(&Frame::Delta {
        owner: 0,
        round: 0,
        elems,
    });
    let (a, b) = ChannelTransport::pair();
    let channel_us = rtt_us(tr, "comm.transport.channel_rtt", a, b, &frame, checks);
    out.put("comm.transport.channel_rtt_us", channel_us, "us");
    match SocketTransport::unix_pair() {
        Ok((a, b)) => {
            let socket_us = rtt_us(tr, "comm.transport.socket_rtt", a, b, &frame, checks);
            out.put("comm.transport.socket_rtt_us", socket_us, "us");
        }
        Err(e) => {
            checks.check(false, || format!("socket pair: {e}"));
            out.put("comm.transport.socket_rtt_us", f64::NAN, "us");
        }
    }

    // comm.cluster: the in-process distributed cover against sharded
    // greedy, and its protocol bits by frame kind.
    let full = BitSet::full(sys.universe());
    let reference = greedy_cover_until(sys, PICKS, &full);
    let (dist_ms, run) = spanned(tr, "comm.cluster.cover_in_process", 3, || {
        DistCover::new(OWNERS, DistBackend::InProcess).cover(sys, PICKS, &full)
    });
    let (sharded_ms, _) = spanned(tr, "core.shard.sharded_cover_picks", 3, || {
        greedy_cover_until_sharded(sys, OWNERS, PICKS, &full)
    });
    out.put(
        "comm.cluster.dist_over_sharded",
        dist_ms / sharded_ms,
        "ratio",
    );
    match run {
        Ok(run) => {
            checks.check(run.result == reference, || {
                "distributed cover differs from greedy_cover_until".into()
            });
            out.put_det("comm.cluster.rounds", run.rounds as u64, "count");
            out.put_det("comm.cluster.protocol_bits", run.total_bits(), "bits");
            let by_kind = bits_by_frame_kind(&run.transcript);
            checks.check(by_kind.keys().all(|k| FRAME_KINDS.contains(k)), || {
                format!("unexpected frame kinds in transcript: {by_kind:?}")
            });
            for kind in FRAME_KINDS {
                let bits = by_kind.get(kind).copied().unwrap_or(0);
                out.put_det(&format!("comm.cluster.bits.{kind}"), bits, "bits");
            }
        }
        Err(e) => checks.check(false, || format!("distributed cover failed: {e}")),
    }
}

/// Median round-trip microseconds of `frame` from `a` to an echo thread on
/// `b` and back.
fn rtt_us<T: Transport>(
    tr: &Tracer,
    span: &'static str,
    mut a: T,
    mut b: T,
    frame: &[u8],
    checks: &mut Checks,
) -> f64 {
    const TRIPS: usize = 200;
    let (ms, ok) = std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(f) = b.recv_bytes() {
                if b.send_bytes(&f).is_err() {
                    break;
                }
            }
        });
        let result = spanned(tr, span, 15, || {
            (0..TRIPS)
                .all(|_| a.send_bytes(frame).is_ok() && a.recv_bytes().is_ok_and(|f| f == frame))
        });
        // Closing our end stops the echo thread.
        drop(a);
        result
    });
    checks.check(ok, || format!("{span}: frame did not echo back intact"));
    ms * 1e3 / TRIPS as f64
}

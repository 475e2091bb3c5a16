//! End-to-end benchmark of the streamcover workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dsc_alg1|planted_stream|service_zipf|podcast_dist> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run sets up
//! the workload several times, then repeats its jobs for `--seconds` and
//! reports the end-to-end metrics. With `--trace 1` it alternates untraced
//! and traced iterations for the tracing overhead, then runs the per-layer
//! probes (`layers.rs`) on the workload's main system. Every output is
//! checked; the last stdout line is the result object, the line before it
//! the run's facts (host, seed, revision, deterministic quantities).

mod layers;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use streamcover_core::KernelTier;
use streamcover_stream::default_workers;
use trace::Tracer;
use util::{median, ms_since, quantile, Json};
use workloads::{Checks, Kind, Pins, State};

/// Set-ups per run, at least and at most, and the time after which no
/// further set-up starts; `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (5, 50);
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Measured cycles (an iteration on every instance) per run, at least.
const MIN_CYCLES: u64 = 3;
/// The seed whose deterministic quantities `pins.txt` records.
const PIN_SEED: u64 = 2017;
/// `workload key value` lines: the deterministic quantities at `PIN_SEED`.
const PINS: &str = include_str!("../pins.txt");

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn pinned(kind: Kind) -> Pins {
    PINS.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, k, v) = (f.next()?, f.next()?, f.next()?.parse().ok()?);
            (w == kind.name()).then(|| (k.to_string(), v))
        })
        .collect()
}

/// Compares `found` with the pinned values present for it; returns
/// `match`, `mismatch` or `unpinned` (another seed, or nothing pinned).
fn check_pins(kind: Kind, seed: u64, found: &Pins, checks: &mut Checks) -> &'static str {
    let pins = pinned(kind);
    if seed != PIN_SEED {
        return "unpinned";
    }
    let mut compared = false;
    let mut all_match = true;
    for (key, value) in found {
        if let Some(&want) = pins.get(key) {
            compared = true;
            let ok = want == *value;
            all_match &= ok;
            checks.check(ok, || format!("pinned {key}: expected {want}, got {value}"));
        }
    }
    match (compared, all_match) {
        (false, _) => "unpinned",
        (true, true) => "match",
        (true, false) => "mismatch",
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let kind = args.kind;
    let seed = args.seed;
    let budget = Duration::from_secs_f64(args.seconds);
    let untraced = Tracer::new(false);
    let mut checks = Checks::default();

    let setup_tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut state: Option<State> = None;
    let t_setup = Instant::now();
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && t_setup.elapsed() < SETUP_BUDGET)
    {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(workloads::setup(kind, seed, &setup_tracer));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");

    // Iterations cycle through the workload's instances. The first
    // iteration on an instance fixes the deterministic quantities every
    // later one must repeat.
    let count = state.instances();
    let mut reference: Vec<Option<Pins>> = vec![None; count];
    let mut same_pins = |i: usize, pins: Pins, checks: &mut Checks| match &reference[i] {
        None => reference[i] = Some(pins),
        Some(r) => checks.check(pins == *r, || {
            format!("deterministic quantities drifted: {pins:?} vs {r:?}")
        }),
    };
    // A cycle's time: the sum over instances of their median iteration.
    let cycle_s = |times: &[Vec<f64>]| times.iter().map(|t| median(t)).sum::<f64>();

    let mut facts: Vec<(String, Json)> = vec![
        ("workload".into(), Json::Str(kind.name().into())),
        ("seed".into(), Json::Int(seed)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "nproc".into(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "kernel_tier".into(),
            Json::Str(format!("{:?}", KernelTier::effective())),
        ),
        (
            "default_workers".into(),
            Json::Int(default_workers() as u64),
        ),
        ("git_rev".into(), Json::Str(util::git_rev())),
        ("instances".into(), Json::Int(count as u64)),
    ];
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();

    if !args.trace {
        let mut times = vec![Vec::new(); count];
        let mut requests_ms = Vec::new();
        let mut measured_s = 0.0;
        let mut cycles = 0;
        while measured_s < args.seconds || cycles < MIN_CYCLES {
            for (i, t) in times.iter_mut().enumerate() {
                let t0 = Instant::now();
                let it = workloads::iterate(&mut state, i, seed, &untraced, &mut checks);
                let dt = t0.elapsed().as_secs_f64();
                t.push(dt);
                measured_s += dt;
                requests_ms.extend(it.requests_ms);
                same_pins(i, it.pins, &mut checks);
            }
            cycles += 1;
        }
        workloads::finish(&state, &mut checks);
        let mut totals = Pins::new();
        for pins in reference.iter().flatten() {
            workloads::add_pins(&mut totals, pins);
        }
        let pin_status = check_pins(kind, seed, &totals, &mut checks);

        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        metrics.push(("solve_s".into(), cycle_s(&times), "s"));

        facts.extend([
            ("cycles".into(), Json::Int(cycles)),
            ("setups".into(), Json::Int(setup_s.len() as u64)),
            ("requests".into(), Json::Int(requests_ms.len() as u64)),
            (
                "qps".into(),
                Json::Num(requests_ms.len() as f64 / measured_s),
            ),
            ("request_p50_ms".into(), Json::Num(median(&requests_ms))),
            (
                "request_p99_ms".into(),
                Json::Num(quantile(&requests_ms, 0.99)),
            ),
            ("peak_rss_mib".into(), Json::Num(util::peak_rss_mib())),
        ]);
        if let State::Service(loads) = &state {
            let mutation_ms: Vec<f64> = loads.iter().flat_map(|l| l.mutation_ms.clone()).collect();
            let (hits, queries) = loads.iter().fold((0, 0), |(h, q), l| {
                let s = l.svc.stats();
                (h + s.cache_hits, q + s.queries)
            });
            facts.extend([
                ("mutations".into(), Json::Int(mutation_ms.len() as u64)),
                ("mutation_p50_ms".into(), Json::Num(median(&mutation_ms))),
                (
                    "hit_rate".into(),
                    Json::Num(hits as f64 / queries.max(1) as f64),
                ),
            ]);
        }
        facts.push(("deterministic".into(), Json::map(&totals)));
        facts.push(("pins".into(), Json::Str(pin_status.into())));
    } else {
        // Alternate untraced and traced iterations on each instance: the
        // ratio of their cycle times is the tracing overhead.
        let traced = Tracer::new(true);
        let (mut plain_s, mut traced_s) = (vec![Vec::new(); count], vec![Vec::new(); count]);
        let t_run = Instant::now();
        let mut cycles = 0;
        while t_run.elapsed() < budget || cycles < 2 {
            for i in 0..count {
                for (tracer, times) in [(&untraced, &mut plain_s), (&traced, &mut traced_s)] {
                    let t0 = Instant::now();
                    let it = workloads::iterate(&mut state, i, seed, tracer, &mut checks);
                    times[i].push(t0.elapsed().as_secs_f64());
                    same_pins(i, it.pins, &mut checks);
                }
            }
            cycles += 1;
        }
        workloads::finish(&state, &mut checks);
        let overhead_pct = (cycle_s(&traced_s) / cycle_s(&plain_s) - 1.0) * 100.0;

        let probes = Tracer::new(true);
        let t0 = Instant::now();
        let layers = layers::probe(state.main_system(), seed, &probes, &mut checks);
        let probe_ms = ms_since(t0);
        let pin_status = check_pins(kind, seed, &layers.det, &mut checks);

        let generate = setup_tracer
            .summary()
            .remove("dist.generate")
            .unwrap_or_default();
        metrics.push((
            "dist.generate_ms".into(),
            median(&generate.durations_ms),
            "ms",
        ));
        metrics.extend(
            layers
                .metrics
                .into_iter()
                .map(|m| (m.name, m.value, m.unit)),
        );
        metrics.push(("trace.overhead_pct".into(), overhead_pct, "%"));

        print_spans("workload jobs (traced iterations)", &traced);
        print_spans("per-layer probes", &probes);
        facts.extend([
            ("cycles".into(), Json::Int(cycles)),
            ("tracing_overhead_pct".into(), Json::Num(overhead_pct)),
            ("probe_ms".into(), Json::Num(probe_ms)),
            ("deterministic".into(), Json::map(&layers.det)),
            ("pins".into(), Json::Str(pin_status.into())),
        ]);
    }

    for note in &checks.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    for (name, value, unit) in &metrics {
        checks.check(value.is_finite(), || format!("metric {name} is not finite"));
        eprintln!("{name:>40} {value:>16.6} {unit}");
    }
    facts.push((
        "error_rate".into(),
        Json::Num(checks.failed as f64 / checks.attempted.max(1) as f64),
    ));
    println!("{}", Json::obj([("facts", Json::Obj(facts))]).render());
    let metrics = Json::obj(metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(checks.failed == 0)),
            ("attempted", Json::Int(checks.attempted.max(1))),
            ("failed", Json::Int(checks.failed)),
            ("metrics", metrics),
        ])
        .render()
    );
}

/// Prints each span name's count, total and self time to stderr.
fn print_spans(title: &str, tr: &Tracer) {
    eprintln!("-- spans: {title}");
    eprintln!(
        "{:>40} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    let summary: BTreeMap<_, _> = tr.summary();
    for (name, s) in summary {
        let total: f64 = s.durations_ms.iter().sum();
        eprintln!(
            "{name:>40} {:>7} {total:>12.3} {:>12.3}",
            s.durations_ms.len(),
            s.self_ms
        );
    }
}

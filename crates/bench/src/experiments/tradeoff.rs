//! Upper-bound experiments: E1 (Theorem 2 tradeoff), E8 (baseline
//! comparison), E9 (arrival-order robustness), E11 (Algorithm 1 ablation).

use crate::table::{fnum, Table};
use crate::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use streamcover_core::power_law_exponent;
use streamcover_dist::planted_cover;
use streamcover_stream::{
    Arrival, HarPeledAssadi, OnlinePrune, Pruning, SamplingRate, SetCoverStreamer, StoreAll,
    ThresholdGreedy,
};

/// E1 — Theorem 2: Algorithm 1's space/pass/approximation tradeoff across α.
///
/// Paper claim: `(α+ε)`-approximation, `2α+1` passes,
/// `Õ(m·n^{1/α}/ε² + n/ε)` bits. The table reports, per α: measured passes
/// (≤ 2α+1), measured peak bits, the ratio `peak / (m·n^{1/α})` (should stay
/// within polylog factors as α moves), and the solution-size ratio against
/// the planted optimum (≤ α+ε up to guess-grid slack). A second sub-table
/// fits the exponent `β` of `peak ∝ n^β` at fixed α and compares to `1/α`.
pub fn e1_tradeoff(scale: Scale, seed: u64) -> Table {
    // Regime: the sampling rate p = c·k·ln m·n^{1/α}/n must be < 1 for the
    // guesses around the true optimum, i.e. n^{1−1/α} ≳ c·opt·ln m — small
    // opt and m keep laptop n inside the regime; outside it p caps at 1
    // and every α stores the whole input, flattening the tradeoff.
    let (n, m, opt) = if scale.full {
        (16_384, 64, 4)
    } else {
        (4096, 32, 4)
    };
    let eps = 0.5;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = planted_cover(&mut rng, n, m, opt);

    let mut t = Table::new(
        format!("E1 — Theorem 2 tradeoff (n={n}, m={m}, planted opt={opt}, ε={eps})"),
        &[
            "alpha",
            "passes",
            "2a+1",
            "peak_bits",
            "peak/(m·n^{1/a})",
            "size",
            "ratio(≤a+e)",
        ],
    );
    let alphas = if scale.full {
        vec![1, 2, 3, 4, 5, 6]
    } else {
        vec![1, 2, 3, 4]
    };
    for &alpha in &alphas {
        let algo = HarPeledAssadi::scaled(alpha, eps);
        let run = algo.run(&w.system, Arrival::Adversarial, &mut rng);
        let budget = m as f64 * (n as f64).powf(1.0 / alpha as f64);
        t.row(vec![
            alpha.to_string(),
            run.passes.to_string(),
            (2 * alpha + 1).to_string(),
            run.peak_bits.to_string(),
            fnum(run.peak_bits as f64 / budget),
            run.size().to_string(),
            fnum(run.ratio(opt)),
        ]);
    }

    // Exponent fit at α = 2 over an n sweep. Theorem 2's space is
    // m·n^{1/α}/ε² + n/ε; the additive n-term (the dense U bitmap each
    // parallel guess keeps) is known exactly — G·n bits for G guesses — so
    // the fit runs on (peak − G·n), isolating the m·n^{1/α} term.
    let alpha = 2;
    let ns: Vec<usize> = if scale.full {
        vec![4096, 8192, 16_384, 32_768, 65_536]
    } else {
        vec![2048, 4096, 8192, 16_384]
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &nn in &ns {
        let w = planted_cover(&mut rng, nn, m, opt);
        let run = HarPeledAssadi::scaled(alpha, eps).run(&w.system, Arrival::Adversarial, &mut rng);
        let guesses = streamcover_stream::GuessDriver::new(eps)
            .guesses(nn, m)
            .len() as u64;
        let corrected = run.peak_bits.saturating_sub(guesses * nn as u64).max(1);
        xs.push(nn as f64);
        ys.push(corrected as f64);
    }
    let beta = power_law_exponent(&xs, &ys);
    t.note(format!(
        "exponent fit at α={alpha} on (peak − G·n): ∝ n^{{{beta:.3}}} vs theory n^{{1/α}} = \
         n^{{{:.3}}} (log factors push the fit slightly above)",
        1.0 / alpha as f64
    ));
    t.note("paper: Theorem 2 — (α+ε)-approx, 2α+1 passes, Õ(m·n^{1/α}/ε² + n/ε) bits");
    t
}

/// E8 — baseline comparison: Algorithm 1 vs threshold greedy vs store-all vs
/// the single-pass accept/prune heuristic, on the same planted workload.
pub fn e8_baselines(scale: Scale, seed: u64) -> Table {
    let (n, m, opt) = if scale.full {
        (2048, 128, 8)
    } else {
        (512, 48, 6)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let w = planted_cover(&mut rng, n, m, opt);
    let mut t = Table::new(
        format!("E8 — baselines (n={n}, m={m}, planted opt={opt})"),
        &[
            "algorithm",
            "passes",
            "peak_bits",
            "bits/mn",
            "size",
            "ratio",
            "feasible",
        ],
    );
    let algos: Vec<(&'static str, Box<dyn SetCoverStreamer>)> = vec![
        ("assadi-alg1(α=2)", Box::new(HarPeledAssadi::scaled(2, 0.5))),
        ("assadi-alg1(α=3)", Box::new(HarPeledAssadi::scaled(3, 0.5))),
        ("assadi-alg1(α=4)", Box::new(HarPeledAssadi::scaled(4, 0.5))),
        (
            "harpeled-orig(α=3)",
            Box::new(HarPeledAssadi {
                pruning: Pruning::PerRound,
                rate: SamplingRate::Coarse,
                ..HarPeledAssadi::scaled(3, 0.5)
            }),
        ),
        ("threshold-greedy", Box::new(ThresholdGreedy)),
        ("online-prune", Box::new(OnlinePrune)),
        ("store-all", Box::new(StoreAll::default())),
    ];
    let mn = (n * m) as f64;
    for (name, algo) in algos {
        let run = algo.run(&w.system, Arrival::Adversarial, &mut rng);
        t.row(vec![
            name.to_string(),
            run.passes.to_string(),
            run.peak_bits.to_string(),
            fnum(run.peak_bits as f64 / mn),
            run.size().to_string(),
            fnum(run.ratio(opt)),
            run.feasible.to_string(),
        ]);
    }
    t.note(
        "paper §1: Algorithm 1 beats the O(log n)-approx regime on quality and store-all on space",
    );
    t
}

/// E9 — Theorem 1 robustness: Algorithm 1's behaviour under adversarial,
/// random-arrival and per-pass-reshuffled orders is the same *shape* — the
/// lower bound holding for random arrival means random order cannot be
/// exploited for real savings.
pub fn e9_arrival_order(scale: Scale, seed: u64) -> Table {
    let (n, m, opt) = if scale.full {
        (2048, 128, 8)
    } else {
        (512, 48, 6)
    };
    let trials = if scale.full { 5 } else { 3 };
    let mut rng = StdRng::seed_from_u64(seed);
    let w = planted_cover(&mut rng, n, m, opt);
    let mut t = Table::new(
        format!("E9 — arrival-order robustness (n={n}, m={m}, α=3, {trials} trials)"),
        &[
            "arrival",
            "mean_passes",
            "mean_peak_bits",
            "mean_size",
            "all_feasible",
        ],
    );
    let algo = HarPeledAssadi::scaled(3, 0.5);
    type OrderMaker = Box<dyn Fn(u64) -> Arrival>;
    let orders: Vec<(&str, OrderMaker)> = vec![
        ("adversarial", Box::new(|_s| Arrival::Adversarial)),
        ("random", Box::new(|s| Arrival::Random { seed: s })),
        (
            "reshuffled",
            Box::new(|s| Arrival::ReshuffledEachPass { seed: s }),
        ),
    ];
    for (name, mk) in orders {
        let mut passes = 0.0;
        let mut peak = 0.0;
        let mut size = 0.0;
        let mut feas = true;
        for tr in 0..trials {
            let run = algo.run(&w.system, mk(seed ^ tr as u64), &mut rng);
            passes += run.passes as f64;
            peak += run.peak_bits as f64;
            size += run.size() as f64;
            feas &= run.feasible;
        }
        let k = trials as f64;
        t.row(vec![
            name.to_string(),
            fnum(passes / k),
            fnum(peak / k),
            fnum(size / k),
            feas.to_string(),
        ]);
    }
    t.note("paper: Theorem 1 holds even for random arrival ⇒ no order-dependent shortcut exists");
    t
}

/// E11 — ablation of Algorithm 1's two improvements over Har-Peled et al.:
/// one-shot pruning (vs per-round, vs none) and the fine `1/ρ` sampling rate
/// (vs the original `1/ρ²`).
pub fn e11_ablation(scale: Scale, seed: u64) -> Table {
    let (n, m, opt) = if scale.full {
        (4096, 128, 8)
    } else {
        (1024, 48, 6)
    };
    let alpha = 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = planted_cover(&mut rng, n, m, opt);
    let mut t = Table::new(
        format!("E11 — Algorithm 1 ablation (n={n}, m={m}, α={alpha}, ε=0.5)"),
        &["variant", "passes", "peak_bits", "size", "feasible"],
    );
    let paper = HarPeledAssadi::scaled(alpha, 0.5);
    let variants: Vec<(&str, HarPeledAssadi)> = vec![
        ("paper (one-shot + fine)", paper),
        (
            "per-round pruning",
            HarPeledAssadi {
                pruning: Pruning::PerRound,
                ..paper
            },
        ),
        (
            "no pruning",
            HarPeledAssadi {
                pruning: Pruning::None,
                ..paper
            },
        ),
        (
            "coarse 1/ρ² rate",
            HarPeledAssadi {
                rate: SamplingRate::Coarse,
                ..paper
            },
        ),
        (
            "harpeled original (both)",
            HarPeledAssadi {
                pruning: Pruning::PerRound,
                rate: SamplingRate::Coarse,
                ..paper
            },
        ),
    ];
    for (name, algo) in variants {
        let run = algo.run(&w.system, Arrival::Adversarial, &mut rng);
        t.row(vec![
            name.to_string(),
            run.passes.to_string(),
            run.peak_bits.to_string(),
            run.size().to_string(),
            run.feasible.to_string(),
        ]);
    }
    t.note(
        "paper §3.4: one-shot pruning + Lemma 3.12's rate is what turns n^{Θ(1/α)} into n^{1/α}",
    );
    t
}

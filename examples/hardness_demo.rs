//! The hard distribution `D_SC` up close: why α-approximating streaming set
//! cover forces you to locate one hidden index among m.
//!
//! Samples both branches of `D_SC`, shows the planted size-2 cover under
//! `θ = 1`, certifies `opt > 2α` under `θ = 0`, and demonstrates that no
//! individual set or pair looks special — the "signal" is a single planted
//! disjointness among m embedded Disj instances.
//!
//! ```sh
//! cargo run --release --example hardness_demo
//! ```

use rand::{rngs::StdRng, SeedableRng};
use streamcover::core::{decide_opt_at_most, Decision};
use streamcover::dist::{sample_dsc_with_theta, ScParams};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let alpha = 2usize;
    // Hardness regime: t ≥ 30 so set sizes concentrate (densities ≤ 3/4),
    // and n/t^α ≫ log m so pair residuals survive (here n/t^α = 16).
    let p = ScParams::explicit(16_384, 8, 32);
    println!(
        "D_SC with n={}, m={} (2m={} sets), t={}, target approximation α={alpha}\n",
        p.n,
        p.m,
        2 * p.m,
        p.t
    );

    // θ = 1: a planted size-2 cover at a hidden index.
    let inst = sample_dsc_with_theta(&mut rng, p, true);
    let i_star = inst.i_star.unwrap();
    println!("θ = 1 branch:");
    println!("  hidden index i* = {i_star}");
    for i in 0..p.m {
        let u = inst.alice.set(i).union_len(inst.bob.set(i));
        let tag = if i == i_star { "  ← covers [n]!" } else { "" };
        println!(
            "  pair {i}: |S_{i}| = {:>5}, |T_{i}| = {:>5}, |S∪T| = {:>5}{tag}",
            inst.alice.set(i).len(),
            inst.bob.set(i).len(),
            u,
        );
    }
    assert!(inst.pair_covers(i_star));
    println!("  ⇒ opt = 2 — but only by finding i* among m look-alike pairs\n");

    // θ = 0: every pair misses a block; no 2α sets cover.
    let inst0 = sample_dsc_with_theta(&mut rng, p, false);
    println!("θ = 0 branch:");
    let misses: Vec<usize> = (0..p.m)
        .map(|i| p.n - inst0.alice.set(i).union_len(inst0.bob.set(i)))
        .collect();
    println!(
        "  per-pair uncovered elements: {misses:?} (= n/t = {} each)",
        p.n / p.t
    );
    let verdict = decide_opt_at_most(&inst0.combined(), 2 * alpha, 100_000_000);
    match verdict {
        Decision::No => println!("  exact search certifies: opt > 2α = {} ✓", 2 * alpha),
        Decision::Yes => println!("  (rare sample with opt ≤ 2α — Lemma 3.2 is w.h.p.)"),
        Decision::Unknown => println!("  search budget exhausted (raise it for a certificate)"),
    }

    println!();
    println!("An α-approximate value estimate separates 2 from > 2α, i.e. decides θ.");
    println!("Theorem 1: doing that in p passes needs Ω̃(m·n^{{1/α}}/p) bits of memory,");
    println!("because the planted index hides one Disj instance among m (Lemma 3.4).");
}

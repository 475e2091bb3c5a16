//! The ROADMAP target the compressed representations unlock: a greedy
//! set cover over a **2^30-element universe** on a laptop-class memory
//! budget (≤ 4 GiB resident), with `stored_bits` reporting true encoded
//! size end to end.
//!
//! ```sh
//! cargo run --release --example universe_2_30
//! ```
//!
//! The catalog is run-structured — 64 backbone sets partitioning the
//! universe into contiguous 2^24-element slabs (the planted cover) plus
//! 96 distractor slabs nested inside them — and is fed through
//! `push_runs`, so no per-element list is ever materialized. At full
//! scale the demo runs under `Auto`, `ForceChunked` and `ForceEliasFano`
//! (a forced flat representation would need ~4 GiB for the sparse lists
//! and ~20 GiB for the bitmaps — exactly the regime the compressed
//! backends exist for) and asserts the greedy report is identical under
//! all three. The flat forcings join at a reduced 2^22 universe where
//! they fit, closing the identity matrix over every `ReprPolicy`; the
//! same matrix is property-tested on arbitrary systems in
//! `crates/core/tests/repr_equivalence.rs` and
//! `crates/dist/tests/compressed_accounting.rs`. A streaming pass
//! (`ThresholdGreedy` at 1 vs 4 workers per forcing) pins the standing
//! invariant: solver reports byte-identical to the sequential reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamcover::prelude::*;

/// One backbone slab per `2^slab_log` elements, each a single run, plus
/// `distractors` half-length runs nested at random inside random slabs —
/// greedy must pick exactly the backbone, in first-seen order.
fn slab_catalog(
    rng: &mut StdRng,
    n: usize,
    slab_log: u32,
    distractors: usize,
) -> Vec<Vec<(u32, u32)>> {
    let slab = 1u32 << slab_log;
    let backbones = (n >> slab_log) as u32;
    let mut catalog: Vec<Vec<(u32, u32)>> =
        (0..backbones).map(|b| vec![(b * slab, slab)]).collect();
    for _ in 0..distractors {
        let b = rng.gen_range(0..backbones as usize) as u32;
        let off = rng.gen_range(0..(slab / 2) as usize) as u32;
        catalog.push(vec![(b * slab + off, slab / 2)]);
    }
    catalog
}

fn build(n: usize, policy: ReprPolicy, catalog: &[Vec<(u32, u32)>]) -> SetSystem {
    let mut sys = SetSystem::with_policy(n, policy);
    for runs in catalog {
        sys.push_runs(runs);
    }
    sys
}

/// Peak resident set (VmHWM) in bytes — Linux only.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn main() {
    const FULL_N: usize = 1 << 30;
    const DEMO_N: usize = 1 << 22;
    const BUDGET: u64 = 4 << 30;

    // --- Full scale: 2^30 universe under the compressed policies. ---
    let mut rng = StdRng::seed_from_u64(30);
    let catalog = slab_catalog(&mut rng, FULL_N, 24, 96);
    let opt = FULL_N >> 24;
    println!(
        "universe 2^30: {} sets ({} backbone slabs + {} distractors)",
        catalog.len(),
        opt,
        catalog.len() - opt
    );

    let compressed = [
        ReprPolicy::Auto,
        ReprPolicy::ForceChunked,
        ReprPolicy::ForceEliasFano,
    ];
    let mut reference: Option<streamcover_core::CoverResult> = None;
    for policy in compressed {
        let sys = build(FULL_N, policy, &catalog);
        let bits = sys.stored_bits();
        let cover = greedy_set_cover(&sys);
        assert!(cover.is_feasible(), "{policy:?}: backbone must cover");
        assert_eq!(
            cover.size(),
            opt,
            "{policy:?}: greedy must pick the backbone"
        );
        println!(
            "  {:>15}: stored {:>9.3} MiB ({:>7.5}x of the n·m bitmap), cover {} sets",
            format!("{policy:?}"),
            bits as f64 / 8.0 / (1 << 20) as f64,
            bits as f64 / (FULL_N as u64 * catalog.len() as u64) as f64,
            cover.size()
        );
        match &reference {
            None => reference = Some(cover),
            Some(r) => {
                assert_eq!(r.ids, cover.ids, "{policy:?} changed the picks");
                assert_eq!(r.covered, cover.covered, "{policy:?} coverage");
            }
        }
    }

    if let Some(hwm) = vm_hwm_bytes() {
        println!(
            "  peak resident (VmHWM): {:.2} GiB (budget 4 GiB)",
            hwm as f64 / (1u64 << 30) as f64
        );
        assert!(
            hwm < BUDGET,
            "peak resident {hwm} B exceeds the 4 GiB budget"
        );
    } else {
        println!("  peak resident: /proc/self/status unavailable (non-Linux), budget unchecked");
    }

    // --- Reduced scale: every policy, same identity. ---
    let mut rng = StdRng::seed_from_u64(22);
    let catalog = slab_catalog(&mut rng, DEMO_N, 16, 96);
    let policies = [
        ReprPolicy::ForceSparse,
        ReprPolicy::ForceDense,
        ReprPolicy::ForceChunked,
        ReprPolicy::ForceEliasFano,
        ReprPolicy::Auto,
    ];
    let demo_ref = greedy_set_cover(&build(DEMO_N, policies[0], &catalog));
    for &policy in &policies[1..] {
        let cover = greedy_set_cover(&build(DEMO_N, policy, &catalog));
        assert_eq!(cover.ids, demo_ref.ids, "{policy:?} changed the picks");
        assert_eq!(cover.covered, demo_ref.covered, "{policy:?} coverage");
    }
    println!(
        "universe 2^22: greedy identical under all {} policies ({} sets picked)",
        policies.len(),
        demo_ref.size()
    );

    // --- Streaming invariant: sequential vs parallel per forcing. ---
    let rt = Runtime::default();
    let seq = ExecPolicy::sequential().seed(17);
    let par = ExecPolicy::sequential().workers(4).seed(17);
    for policy in policies {
        let sys = build(DEMO_N, policy, &catalog);
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let a = ThresholdGreedy.run_in(&rt, &seq, &sys, Arrival::Adversarial, &mut r1);
        let b = ThresholdGreedy.run_in(&rt, &par, &sys, Arrival::Adversarial, &mut r2);
        assert_eq!(a.solution, b.solution, "{policy:?}: picks diverged");
        assert_eq!(a.passes, b.passes, "{policy:?}: passes diverged");
        assert_eq!(a.peak_bits, b.peak_bits, "{policy:?}: peaks diverged");
        assert!(a.feasible, "{policy:?}: threshold greedy must cover");
    }
    println!("streaming: ThresholdGreedy 1-vs-4 workers identical under every forcing");
}

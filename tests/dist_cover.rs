//! The distributed executor's standing invariant: the cover computed by
//! message-passing shard owners is **byte-identical** to the sequential
//! CELF reference — at every owner count, over every transport fabric,
//! under every representation policy, on every workload family — and the
//! measured bits on the wire respect the information-theoretic floor.

use std::time::Duration;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use streamcover::comm::cluster::{encode_frame, Frame};
use streamcover::comm::transcript::{Message, Player};
use streamcover::core::greedy_cover_until_sharded;
use streamcover::dist::sample_dsc_with_theta;
use streamcover::prelude::*;

const POLICIES: [ReprPolicy; 5] = [
    ReprPolicy::Auto,
    ReprPolicy::ForceSparse,
    ReprPolicy::ForceDense,
    ReprPolicy::ForceChunked,
    ReprPolicy::ForceEliasFano,
];

/// Re-arenas `sys` under `policy` (same sets, different layouts).
fn with_policy(sys: &SetSystem, policy: ReprPolicy) -> SetSystem {
    let mut out = SetSystem::with_policy(sys.universe(), policy);
    for (_, s) in sys.iter() {
        out.push_ref(s);
    }
    out
}

/// One of the four workload families, sized for fast socket runs.
fn build_workload(kind: usize, rng: &mut StdRng) -> SetSystem {
    match kind {
        0 => planted_cover(rng, 192, 24, 4).system,
        1 => uniform_random(rng, 160, 20, 0.08, true),
        2 => blog_watch(rng, 96, 40),
        _ => podcast_catalog(rng, 48, 96, 1.0),
    }
}

/// The transcript a `DistCover` run must record, rebuilt without the
/// protocol: every round each shard reports the eager
/// `BatchedSweep::best` of its range against the sequential residual, and
/// the coordinator's frames follow from the global argmax.
fn expected_transcript(
    sys: &SetSystem,
    owners: usize,
    max_picks: usize,
    target: &BitSet,
) -> Vec<(Player, Vec<u8>)> {
    let shards = sys.shards(owners);
    let mut sweep = BatchedSweep::new();
    let mut uncovered = target.clone();
    let mut picks = 0usize;
    let mut out = Vec::new();
    for round in 0u32.. {
        // (gain, global id, owner); shards come in id order, so a strict
        // `>` keeps the smallest id among equal gains.
        let mut best: Option<(usize, usize, usize)> = None;
        for (o, shard) in shards.iter().enumerate() {
            shard.gains(&mut sweep, &uncovered);
            let (gain, id) = match sweep.best() {
                Some((local, gain)) => (gain, shard.ids().start + local),
                None => (0, usize::MAX),
            };
            let report = Frame::GainReport {
                owner: o as u16,
                round,
                gain: gain as u64,
                id: id as u64,
            };
            out.push((Player::Bob, encode_frame(&report)));
            if gain > 0 && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, id, o));
            }
        }
        let go = !uncovered.is_empty() && picks < max_picks;
        let Some((_, id, winner)) = best.filter(|_| go) else {
            for _ in &shards {
                out.push((Player::Alice, encode_frame(&Frame::Finish { round })));
            }
            break;
        };
        let pick = Frame::PickRequest {
            round,
            id: id as u64,
        };
        out.push((Player::Alice, encode_frame(&pick)));
        let elems: Vec<u32> = sys
            .set(id)
            .iter()
            .filter(|&e| uncovered.contains(e))
            .map(|e| e as u32)
            .collect();
        let delta = Frame::Delta {
            owner: winner as u16,
            round,
            elems: elems.clone(),
        };
        out.push((Player::Bob, encode_frame(&delta)));
        uncovered.difference_with_ref(sys.set(id));
        picks += 1;
        let cont = !uncovered.is_empty() && picks < max_picks;
        for o in 0..shards.len() {
            let advance = Frame::Advance {
                round,
                cont,
                elems: if o == winner {
                    Vec::new()
                } else {
                    elems.clone()
                },
            };
            out.push((Player::Alice, encode_frame(&advance)));
        }
        if !cont {
            break;
        }
    }
    out
}

/// A run's transcript as `(sender, exact frame bytes)`, checking that every
/// message is charged exactly its bytes.
fn recorded_transcript(run: &DistCoverRun) -> Vec<(Player, Vec<u8>)> {
    run.transcript
        .messages()
        .iter()
        .map(|m| match m {
            Message::Concrete {
                from,
                payload,
                bits,
            } => {
                assert_eq!(*bits, payload.len() as u64 * 8, "frame charged short");
                (*from, payload.clone())
            }
            Message::Abstract { .. } => panic!("abstract message in a cluster transcript"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // distributed ≡ sequential across 1/2/4/8 owners × both in-process
    // fabrics × all four workload families × every representation policy.
    #[test]
    fn distributed_equals_sequential(
        seed in 0u64..1_000,
        kind in 0usize..4,
        policy_idx in 0usize..POLICIES.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sys = with_policy(&build_workload(kind, &mut rng), POLICIES[policy_idx]);
        let target = BitSet::full(sys.universe());
        let reference = greedy_cover_until(&sys, sys.len(), &target);

        for owners in [1usize, 2, 4, 8] {
            for backend in [DistBackend::InProcess, DistBackend::Socket] {
                let run = DistCover::new(owners, backend)
                    .cover(&sys, sys.len(), &target)
                    .expect("distributed run failed");
                prop_assert_eq!(
                    &run.result, &reference,
                    "owners={} backend={:?} kind={} policy={:?}",
                    owners, backend, kind, POLICIES[policy_idx]
                );
                prop_assert!(run.total_bits() > 0);
            }
        }
    }

    // The whole transcript — every frame, byte for byte — equals the one
    // rebuilt from eager per-shard sweeps, across 1/2/4/8 owners × both
    // thread fabrics × every representation policy; its size equals the
    // frame-size prediction.
    #[test]
    fn distributed_transcript_is_byte_identical(
        seed in 0u64..1_000,
        kind in 0usize..4,
        max_picks in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = build_workload(kind, &mut rng);
        let target = BitSet::full(base.universe());
        for policy in POLICIES {
            let sys = with_policy(&base, policy);
            for owners in [1usize, 2, 4, 8] {
                let expected = expected_transcript(&sys, owners, max_picks, &target);
                for backend in [DistBackend::InProcess, DistBackend::Socket] {
                    let run = DistCover::new(owners, backend)
                        .cover(&sys, max_picks, &target)
                        .expect("distributed run failed");
                    prop_assert!(
                        recorded_transcript(&run) == expected,
                        "owners={} backend={:?} kind={} policy={:?}",
                        owners, backend, kind, policy
                    );
                    prop_assert_eq!(run.total_bits(), run.predicted_bits());
                }
            }
        }
    }

    // `max_picks` truncation behaves identically distributed vs
    // sequential (including the 0-pick edge).
    #[test]
    fn distributed_respects_max_picks(seed in 0u64..500, max_picks in 0usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = planted_cover(&mut rng, 128, 16, 4);
        let target = BitSet::full(128);
        let reference = greedy_cover_until(&w.system, max_picks, &target);
        let run = DistCover::new(4, DistBackend::InProcess)
            .cover(&w.system, max_picks, &target)
            .expect("distributed run failed");
        prop_assert_eq!(&run.result, &reference);
    }
}

/// The two catalogue shapes at their CI scale: a planted 1024/128/8
/// instance and the 2,000-show podcast catalogue, whose Zipf sizes make the
/// set-range shards heavily unbalanced (the stress case for the
/// gather-all-reports round). At 1 and 4 owners over both thread fabrics,
/// a 16-pick run returns the sequential CELF run, the in-process sharded
/// seeding agrees with it, and the measured protocol bits equal the
/// frame-size prediction.
#[test]
fn catalogue_runs_equal_celf_and_bill_their_predicted_bits() {
    let mut rng = StdRng::seed_from_u64(2017 ^ 0xD157);
    let workloads = [
        ("planted", planted_cover(&mut rng, 1024, 128, 8).system),
        ("podcast", podcast_catalog(&mut rng, 2_000, 256, 1.0)),
    ];
    let max_picks = 16;
    for (name, sys) in &workloads {
        let target = BitSet::full(sys.universe());
        let reference = greedy_cover_until(sys, max_picks, &target);
        for owners in [1usize, 4] {
            assert_eq!(
                greedy_cover_until_sharded(sys, owners, max_picks, &target),
                reference,
                "{name}: sharded seeding diverged at {owners} workers"
            );
            for backend in [DistBackend::InProcess, DistBackend::Socket] {
                let run = DistCover::new(owners, backend)
                    .cover(sys, max_picks, &target)
                    .expect("distributed run failed");
                assert_eq!(
                    run.result, reference,
                    "{name}: {owners} owners, {backend:?}"
                );
                assert_eq!(
                    run.total_bits(),
                    run.predicted_bits(),
                    "{name}: {owners} owners, {backend:?}"
                );
            }
        }
    }
}

/// The process fabric — real spawned `cluster_owner` processes over a
/// Unix-domain listener — produces the same bytes, and pays for shipping
/// the shards (`setup_bits`) separately from the protocol transcript.
#[test]
fn process_cluster_equals_sequential() {
    let bin = env!("CARGO_BIN_EXE_cluster_owner");
    let mut rng = StdRng::seed_from_u64(42);
    let w = planted_cover(&mut rng, 160, 24, 4);
    let target = BitSet::full(160);
    let reference = greedy_cover_until(&w.system, w.system.len(), &target);

    for owners in [1usize, 2, 4] {
        let run = ProcessCluster::new(bin, owners)
            .cover(&w.system, w.system.len(), &target)
            .expect("process cluster failed");
        assert_eq!(run.result, reference, "{owners} owners");
        assert_eq!(run.owners, owners);
        assert!(run.setup_bits > 0, "shards must travel over the wire");
        assert!(run.total_bits() > 0);
    }
}

/// Every repr policy survives the process fabric verbatim: compressed
/// shards ship as-is and still produce the reference cover.
#[test]
fn process_cluster_ships_every_repr() {
    let bin = env!("CARGO_BIN_EXE_cluster_owner");
    let mut rng = StdRng::seed_from_u64(9);
    let base = blog_watch(&mut rng, 96, 32);
    let target = BitSet::full(96);
    let reference = greedy_cover_until(&base, base.len(), &target);
    for policy in POLICIES {
        let sys = {
            let mut out = SetSystem::with_policy(96, policy);
            for (_, s) in base.iter() {
                out.push_ref(s);
            }
            out
        };
        let run = ProcessCluster::new(bin, 2)
            .cover(&sys, sys.len(), &target)
            .expect("process cluster failed");
        assert_eq!(run.result.ids, reference.ids, "{policy:?}");
        assert_eq!(run.result.covered, reference.covered, "{policy:?}");
    }
}

/// An owner process dying mid-round must surface as a clean error on the
/// coordinator — never a hang, never a wrong answer.
#[test]
fn owner_death_mid_round_is_a_clean_error() {
    let bin = env!("CARGO_BIN_EXE_cluster_owner");
    let mut rng = StdRng::seed_from_u64(5);
    let w = planted_cover(&mut rng, 128, 16, 4);
    let target = BitSet::full(128);

    let mut cluster = ProcessCluster::new(bin, 2);
    cluster.read_timeout = Duration::from_secs(10);
    let started = std::time::Instant::now();
    let err = cluster
        .cover_with(&w.system, w.system.len(), &target, |cmd, owner| {
            if owner == 1 {
                cmd.env("STREAMCOVER_OWNER_FAULT_ROUND", "1");
            }
        })
        .expect_err("a dead owner must fail the run");
    assert!(
        started.elapsed() < Duration::from_secs(9),
        "coordinator waited out the timeout instead of detecting the death: {err}"
    );
    match err {
        ClusterError::Closed | ClusterError::Io(_) | ClusterError::Fault { .. } => {}
        other => panic!("expected a connection-level error, got {other}"),
    }
}

/// The lower-bound gate on the hard distribution: a `D_SC` instance split
/// exactly Alice/Bob across two owners must measure exactly the cost
/// predicted from the wire frame sizes, at least `dsc_lower_bound_bits(t)`
/// on the transcript (Lemma 3.4's floor) — and still reproduce the
/// sequential cover bit for bit.
#[test]
fn dsc_measured_bits_dominate_info_lower_bound() {
    let mut rng = StdRng::seed_from_u64(7);
    let p = ScParams::explicit(1_024, 8, 32);
    for theta in [true, false] {
        let inst = sample_dsc_with_theta(&mut rng, p, theta);
        let sys = inst.combined(); // Alice's sets 0..m, Bob's m..2m
        let target = BitSet::full(p.n);
        let reference = greedy_cover_until(&sys, sys.len(), &target);
        assert_eq!(
            greedy_cover_until_sharded(&sys, 2, sys.len(), &target),
            reference,
            "theta={theta}: sharded seeding diverged"
        );
        // 2 owners under BySetRange: owner 0 = Alice, owner 1 = Bob.
        let run = DistCover::new(2, DistBackend::InProcess)
            .cover(&sys, sys.len(), &target)
            .expect("distributed run failed");
        assert_eq!(run.result, reference, "theta={theta}");
        assert_eq!(run.total_bits(), run.predicted_bits(), "theta={theta}");
        let measured = run.total_bits() as f64;
        let bound = dsc_lower_bound_bits(p.t);
        assert!(
            measured >= bound,
            "theta={theta}: measured {measured} bits below the Disj floor {bound}"
        );
    }
}

//! The owner/coordinator round protocol.
//!
//! Each owner holds one contiguous set-id range as a [`StoreShard`] view —
//! a zero-copy window of the coordinator's arena for thread owners, its
//! whole private arena for a process owner — plus its own copy of the
//! residual. A round is:
//!
//! 1. **report** — every owner sweeps its shard against its residual and
//!    sends its local CELF best (largest gain, smallest global id) as a
//!    `GainReport`; owners with no positive gain report `gain = 0`.
//! 2. **argmax** — the coordinator takes the global best over the reports
//!    with the sequential selection rule (largest gain, deterministic
//!    tie-break by smallest set id). No positive gain anywhere → `Finish`.
//! 3. **pick** — the coordinator asks the winning owner (`PickRequest`)
//!    for the pick's residual delta; the owner answers with
//!    `S_id ∩ residual` as a sorted element list (`Delta`) and subtracts
//!    it locally.
//! 4. **advance** — the coordinator applies the delta, then broadcasts
//!    `Advance` to every owner (delta elided for the winner, who already
//!    applied it) with a continue/stop flag.
//!
//! Because every owner evaluates true gains against the *same* residual the
//! sequential reference maintains, and the argmax applies the same rule as
//! [`streamcover_core::greedy_cover_until`], the pick sequence — and hence
//! the returned [`CoverResult`] — is byte-identical to the sequential run
//! at every owner count, transport, and representation policy. Per-round
//! bytes scale with the coverage change `|Δ|` (the `Delta` and its
//! rebroadcast), not with the universe size.

use super::transport::{ClusterError, Transport};
use super::wire::{encode_frame, Frame};
use crate::transcript::{Player, Transcript};
use std::cmp::Reverse;
use streamcover_core::{BatchedSweep, BitSet, CoverResult, StoreShard};

/// Sends `frame` on `link`, recording its exact bytes into `tr` as a
/// coordinator (Alice) message.
fn log_send(
    link: &mut dyn Transport,
    tr: &mut Transcript,
    frame: &Frame,
) -> Result<(), ClusterError> {
    let bytes = encode_frame(frame);
    link.send_bytes(&bytes)?;
    tr.send(Player::Alice, bytes, None);
    Ok(())
}

/// Receives one frame from `link`, recording its exact bytes into `tr` as
/// an owner (Bob) message.
fn log_recv(link: &mut dyn Transport, tr: &mut Transcript) -> Result<Frame, ClusterError> {
    let bytes = link.recv_bytes()?;
    let frame = super::wire::decode_frame(&bytes)?;
    tr.send(Player::Bob, bytes, None);
    Ok(frame)
}

/// Drives the coordinator side over one transport link per owner; every
/// frame in either direction is metered through `tr` (coordinator frames as
/// [`Player::Alice`], owner frames as [`Player::Bob`]), so
/// `tr.total_bits()` afterwards *is* the protocol's communication cost.
///
/// Returns the cover (byte-identical to
/// `greedy_cover_until(sys, max_picks, target)` on the unsharded system)
/// and the number of protocol rounds (report-gather cycles).
pub fn run_coordinator(
    links: &mut [Box<dyn Transport + '_>],
    universe: usize,
    target: &BitSet,
    max_picks: usize,
    tr: &mut Transcript,
) -> Result<(CoverResult, usize), ClusterError> {
    let mut uncovered = target.clone();
    let mut covered = BitSet::new(universe);
    let mut ids = Vec::new();
    let mut rounds = 0usize;

    loop {
        let round = rounds as u32;
        // 1–2: gather every owner's local best, keep the global argmax
        // under (gain desc, id asc) — identical to the sequential rule.
        let mut best: Option<(u64, u64, usize)> = None;
        for (o, link) in links.iter_mut().enumerate() {
            match log_recv(link.as_mut(), tr)? {
                Frame::GainReport { gain, id, .. } => {
                    if gain > 0
                        && best.is_none_or(|(bg, bid, _)| (gain, Reverse(id)) > (bg, Reverse(bid)))
                    {
                        best = Some((gain, id, o));
                    }
                }
                Frame::Fault { owner, message } => {
                    return Err(ClusterError::Fault { owner, message })
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected gain report from owner {o}, got {other:?}"
                    )))
                }
            }
        }
        rounds += 1;

        let stop_now = uncovered.is_empty() || ids.len() >= max_picks;
        let Some((_, id, winner)) = best.filter(|_| !stop_now) else {
            for link in links.iter_mut() {
                log_send(link.as_mut(), tr, &Frame::Finish { round })?;
            }
            break;
        };

        // 3: the winning owner computes and ships the residual delta.
        log_send(
            links[winner].as_mut(),
            tr,
            &Frame::PickRequest { round, id },
        )?;
        let delta = match log_recv(links[winner].as_mut(), tr)? {
            Frame::Delta { elems, .. } => elems,
            Frame::Fault { owner, message } => return Err(ClusterError::Fault { owner, message }),
            other => {
                return Err(ClusterError::Protocol(format!(
                    "expected delta from owner {winner}, got {other:?}"
                )))
            }
        };
        for &e in &delta {
            let e = e as usize;
            if e >= universe || !uncovered.remove(e) {
                return Err(ClusterError::Protocol(format!(
                    "delta element {e} not in the residual"
                )));
            }
            covered.insert(e);
        }
        ids.push(id as usize);

        // 4: rebroadcast the delta (elided for the winner) with the
        // continue/stop flag.
        let cont = !uncovered.is_empty() && ids.len() < max_picks;
        for (o, link) in links.iter_mut().enumerate() {
            let elems = if o == winner {
                Vec::new()
            } else {
                delta.clone()
            };
            log_send(link.as_mut(), tr, &Frame::Advance { round, cont, elems })?;
        }
        if !cont {
            break;
        }
    }
    Ok((CoverResult { ids, covered }, rounds))
}

/// Drives one owner over its coordinator link: `shard` is the owner's set
/// range, whose sets carry global ids `id_base..`, `target` the cover
/// target (the owner maintains its own residual copy).
///
/// `fault_at`, when set, aborts the owner *before* it sends the report of
/// that protocol round — the hook the fault-injection tests (and the
/// spawned owner binary's `STREAMCOVER_OWNER_FAULT_ROUND` knob) use to
/// simulate an owner dying mid-protocol.
pub fn run_owner<T: Transport + ?Sized>(
    link: &mut T,
    owner: u16,
    id_base: usize,
    shard: &StoreShard<'_>,
    target: &BitSet,
    fault_at: Option<u32>,
) -> Result<(), ClusterError> {
    let mut uncovered = target.clone();
    let mut sweep = BatchedSweep::new();
    let mut round: u32 = 0;
    loop {
        if fault_at == Some(round) {
            return Err(ClusterError::Protocol(format!(
                "owner {owner}: injected fault at round {round}"
            )));
        }
        shard.gains(&mut sweep, &uncovered);
        let report = match sweep.best() {
            Some((local, gain)) => Frame::GainReport {
                owner,
                round,
                gain: gain as u64,
                id: (id_base + local) as u64,
            },
            None => Frame::GainReport {
                owner,
                round,
                gain: 0,
                id: u64::MAX,
            },
        };
        link.send(&report)?;

        match link.recv()? {
            Frame::Finish { .. } => return Ok(()),
            Frame::Advance { cont, elems, .. } => {
                for &e in &elems {
                    uncovered.remove(e as usize);
                }
                if !cont {
                    return Ok(());
                }
            }
            Frame::PickRequest { id, .. } => {
                let local = (id as usize)
                    .checked_sub(id_base)
                    .filter(|&l| l < shard.len())
                    .ok_or_else(|| {
                        ClusterError::Protocol(format!("pick {id} outside owner {owner}'s shard"))
                    })?;
                let mut delta: Vec<u32> = Vec::new();
                for e in shard.get(local).iter() {
                    if uncovered.contains(e) {
                        delta.push(e as u32);
                    }
                }
                for &e in &delta {
                    uncovered.remove(e as usize);
                }
                link.send(&Frame::Delta {
                    owner,
                    round,
                    elems: delta,
                })?;
                match link.recv()? {
                    Frame::Finish { .. } => return Ok(()),
                    Frame::Advance { cont, elems, .. } => {
                        for &e in &elems {
                            uncovered.remove(e as usize);
                        }
                        if !cont {
                            return Ok(());
                        }
                    }
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "owner {owner}: expected advance after delta, got {other:?}"
                        )))
                    }
                }
            }
            other => {
                return Err(ClusterError::Protocol(format!(
                    "owner {owner}: unexpected frame {other:?}"
                )))
            }
        }
        round += 1;
    }
}

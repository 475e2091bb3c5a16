//! [`DistCover`]: the distributed shard-owner executor.
//!
//! The driver splits a flat [`SetSystem`] into `owners` contiguous set-id
//! ranges ([`SetSystem::shards`]), stands up one transport link per owner,
//! and runs the [`protocol`](super::protocol) with the coordinator on the
//! calling thread. Thread owners sweep zero-copy views of the one arena;
//! nothing is copied per run.
//! Three fabrics:
//!
//! * [`DistBackend::InProcess`] — owners are scoped threads joined by
//!   channel pairs; the deterministic fabric the identity proptests use.
//! * [`DistBackend::Socket`] — owners are scoped threads joined by
//!   Unix-domain socket pairs: the same protocol, but every frame crosses
//!   a real kernel byte stream.
//! * [`ProcessCluster`] — owners are *spawned processes* running the
//!   `cluster_owner` binary; shards travel over the wire too (metered
//!   separately as `setup_bits`, since in the two-party model input
//!   distribution is not protocol communication).
//!
//! Whatever the fabric, `run.result` is byte-identical to
//! `greedy_cover_until(sys, max_picks, target)` and `run.transcript` holds
//! the exact on-wire protocol bytes.

use super::protocol::{run_coordinator, run_owner};
use super::transport::{ChannelTransport, ClusterError, SocketTransport, Transport};
use super::wire::{self, Frame, OwnedSet};
use crate::transcript::Transcript;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Duration;
use streamcover_core::{BitSet, CoverResult, SetStore, SetSystem, StoreShard};
pub use streamcover_stream::DistBackend;

/// A finished distributed cover run.
#[derive(Debug)]
pub struct DistCoverRun {
    /// The cover — byte-identical to the sequential reference.
    pub result: CoverResult,
    /// Every protocol frame, bit-metered: `transcript.total_bits()` is the
    /// measured communication cost.
    pub transcript: Transcript,
    /// Protocol rounds (report-gather cycles; picks + the final empty
    /// round when the protocol ends by exhaustion rather than coverage).
    pub rounds: usize,
    /// Effective owner count after clamping to `[1, m]`.
    pub owners: usize,
    /// Bits spent distributing the shards themselves (process fabric
    /// only; zero when owners share the coordinator's address space).
    pub setup_bits: u64,
}

impl DistCoverRun {
    /// Total protocol bits on the wire (excluding shard distribution).
    pub fn total_bits(&self) -> u64 {
        self.transcript.total_bits()
    }

    /// Protocol bytes per pick (0 when nothing was picked).
    pub fn bytes_per_pick(&self) -> u64 {
        match self.result.ids.len() {
            0 => 0,
            picks => self.total_bits() / 8 / picks as u64,
        }
    }
}

/// The distributed shard-owner executor: configuration + entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistCover {
    /// Requested owner count (clamped to `[1, m]` per run).
    pub owners: usize,
    /// Message fabric between coordinator and owners.
    pub backend: DistBackend,
}

impl DistCover {
    /// An executor with `owners` owners over `backend`.
    pub fn new(owners: usize, backend: DistBackend) -> Self {
        DistCover {
            owners: owners.max(1),
            backend,
        }
    }

    /// Runs the distributed greedy cover of `target` with at most
    /// `max_picks` sets, owners as in-process threads over the configured
    /// fabric.
    ///
    /// # Panics
    /// Panics if `target.capacity() != sys.universe()`.
    pub fn cover(
        &self,
        sys: &SetSystem,
        max_picks: usize,
        target: &BitSet,
    ) -> Result<DistCoverRun, ClusterError> {
        assert_eq!(
            target.capacity(),
            sys.universe(),
            "target universe mismatch"
        );
        let universe = sys.universe();
        let shards = sys.shards(self.owners);
        let owners = shards.len();

        let mut coord_links: Vec<Box<dyn Transport + '_>> = Vec::with_capacity(owners);
        let mut owner_sides: Vec<Box<dyn Transport + '_>> = Vec::with_capacity(owners);
        for _ in 0..owners {
            match self.backend {
                DistBackend::InProcess => {
                    let (a, b) = ChannelTransport::pair();
                    coord_links.push(Box::new(a));
                    owner_sides.push(Box::new(b));
                }
                DistBackend::Socket => {
                    let (a, b) = SocketTransport::unix_pair().map_err(ClusterError::Io)?;
                    coord_links.push(Box::new(a));
                    owner_sides.push(Box::new(b));
                }
            }
        }

        let mut transcript = Transcript::new();
        let (coord, owner_errs) = std::thread::scope(|scope| {
            let handles: Vec<_> = owner_sides
                .into_iter()
                .zip(&shards)
                .enumerate()
                .map(|(o, (mut link, shard))| {
                    let target = &target;
                    scope.spawn(move || {
                        let base = shard.ids().start;
                        run_owner(link.as_mut(), o as u16, base, shard, target, None)
                    })
                })
                .collect();
            let coord = run_coordinator(
                &mut coord_links,
                universe,
                target,
                max_picks,
                &mut transcript,
            );
            // Dropping the coordinator links unblocks any owner still in
            // recv (its link reports Closed), so the joins below cannot
            // hang even on an error path.
            drop(coord_links);
            let owner_errs: Vec<ClusterError> = handles
                .into_iter()
                .filter_map(|h| h.join().expect("owner thread panicked").err())
                .collect();
            (coord, owner_errs)
        });

        let (result, rounds) = coord?;
        if let Some(e) = owner_errs.into_iter().next() {
            return Err(e);
        }
        Ok(DistCoverRun {
            result,
            transcript,
            rounds,
            owners,
            setup_bits: 0,
        })
    }
}

/// Kills and reaps the spawned owners on drop — no orphans on any error
/// path.
struct ChildReaper(Vec<Child>);

impl Drop for ChildReaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The process fabric: owners are spawned `cluster_owner` processes joined
/// over a Unix-domain listener, shards shipped as wire frames.
#[derive(Clone, Debug)]
pub struct ProcessCluster {
    /// Path of the owner binary (tests use
    /// `env!("CARGO_BIN_EXE_cluster_owner")`).
    pub owner_bin: PathBuf,
    /// Owner count (clamped to `[1, m]` per run).
    pub owners: usize,
    /// Read timeout on every coordinator-side socket: a wedged owner
    /// surfaces as an error instead of a hang.
    pub read_timeout: Duration,
}

impl ProcessCluster {
    /// A process cluster of `owners` owners running `owner_bin`.
    pub fn new(owner_bin: impl Into<PathBuf>, owners: usize) -> Self {
        ProcessCluster {
            owner_bin: owner_bin.into(),
            owners: owners.max(1),
            read_timeout: Duration::from_secs(30),
        }
    }

    /// [`cover_with`](Self::cover_with) without per-owner command tweaks.
    pub fn cover(
        &self,
        sys: &SetSystem,
        max_picks: usize,
        target: &BitSet,
    ) -> Result<DistCoverRun, ClusterError> {
        self.cover_with(sys, max_picks, target, |_, _| {})
    }

    /// Runs the distributed cover with owners as spawned processes.
    /// `configure` may adjust each owner's `Command` before spawn (the
    /// fault tests use it to set `STREAMCOVER_OWNER_FAULT_ROUND` on one
    /// owner).
    ///
    /// # Panics
    /// Panics if `target.capacity() != sys.universe()`.
    pub fn cover_with(
        &self,
        sys: &SetSystem,
        max_picks: usize,
        target: &BitSet,
        mut configure: impl FnMut(&mut Command, u16),
    ) -> Result<DistCoverRun, ClusterError> {
        assert_eq!(
            target.capacity(),
            sys.universe(),
            "target universe mismatch"
        );
        let universe = sys.universe();
        let shards = sys.shards(self.owners);
        let owners = shards.len();

        let sock_path = unique_socket_path();
        let listener = UnixListener::bind(&sock_path).map_err(ClusterError::Io)?;
        let _cleanup = PathCleanup(sock_path.clone());

        let mut reaper = ChildReaper(Vec::with_capacity(owners));
        for o in 0..owners {
            let mut cmd = Command::new(&self.owner_bin);
            cmd.arg(&sock_path).arg(o.to_string());
            configure(&mut cmd, o as u16);
            reaper.0.push(cmd.spawn().map_err(ClusterError::Io)?);
        }

        // Accept the owners; a Join frame identifies which owner each
        // connection belongs to (accept order is not deterministic). The
        // listener polls under a deadline so an owner that dies before
        // connecting surfaces as an error, never a hang.
        listener.set_nonblocking(true).map_err(ClusterError::Io)?;
        let deadline = std::time::Instant::now() + self.read_timeout;
        let mut slots: Vec<Option<SocketTransport<UnixStream>>> =
            (0..owners).map(|_| None).collect();
        for _ in 0..owners {
            let stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        for child in &mut reaper.0 {
                            if child.try_wait().map_err(ClusterError::Io)?.is_some() {
                                return Err(ClusterError::Closed);
                            }
                        }
                        if std::time::Instant::now() >= deadline {
                            return Err(ClusterError::Io(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "owners did not connect before the deadline",
                            )));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(ClusterError::Io(e)),
                }
            };
            stream.set_nonblocking(false).map_err(ClusterError::Io)?;
            let link = SocketTransport::new(stream);
            link.set_read_timeout(Some(self.read_timeout))
                .map_err(ClusterError::Io)?;
            let mut link = link;
            match link.recv()? {
                Frame::Join { owner } if (owner as usize) < owners => {
                    if slots[owner as usize].replace(link).is_some() {
                        return Err(ClusterError::Protocol(format!(
                            "owner {owner} joined twice"
                        )));
                    }
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected join, got {other:?}"
                    )))
                }
            }
        }

        // Ship each owner its shard: Hello (dims + target) then the sets,
        // representation verbatim. This is input distribution, not
        // protocol communication — metered as setup_bits, not transcript.
        let mut setup_bits = 0u64;
        let target_words = wire::bitset_words(target);
        let mut links: Vec<Box<dyn Transport + '_>> = Vec::with_capacity(owners);
        for (o, slot) in slots.into_iter().enumerate() {
            let mut link = slot.expect("all owners joined");
            let shard = &shards[o];
            let hello = Frame::Hello {
                owners: owners as u16,
                owner: o as u16,
                id_base: shard.ids().start as u64,
                nsets: shard.len() as u64,
                universe: universe as u64,
                target_words: target_words.clone(),
            };
            setup_bits += send_counted(&mut link, &hello)?;
            for i in 0..shard.len() {
                let frame = Frame::SetPayload(OwnedSet::from_ref(shard.get(i)));
                setup_bits += send_counted(&mut link, &frame)?;
            }
            links.push(Box::new(link));
        }

        let mut transcript = Transcript::new();
        let (result, rounds) =
            run_coordinator(&mut links, universe, target, max_picks, &mut transcript)?;
        drop(links);
        // Successful protocol: owners exit on their own; reap them
        // gracefully (the reaper's kill on an already-exited child is a
        // no-op error we ignore).
        Ok(DistCoverRun {
            result,
            transcript,
            rounds,
            owners,
            setup_bits,
        })
    }
}

/// The owner-process side of the process fabric: connect, join, receive
/// the shard, then run the round protocol. This is the whole body of the
/// `cluster_owner` binary, kept here so it is testable and reusable.
///
/// `fault_at` aborts the owner before the report of that round (see
/// [`run_owner`]).
pub fn run_owner_process(
    socket_path: &Path,
    owner: u16,
    fault_at: Option<u32>,
) -> Result<(), ClusterError> {
    let stream = UnixStream::connect(socket_path).map_err(ClusterError::Io)?;
    let mut link = SocketTransport::new(stream);
    link.send(&Frame::Join { owner })?;

    let (id_base, nsets, universe, target) = match link.recv()? {
        Frame::Hello {
            id_base,
            nsets,
            universe,
            target_words,
            ..
        } => (
            id_base as usize,
            nsets as usize,
            universe as usize,
            wire::bitset_from_words(universe as usize, &target_words),
        ),
        other => {
            return Err(ClusterError::Protocol(format!(
                "owner {owner}: expected hello, got {other:?}"
            )))
        }
    };

    let mut store = SetStore::with_policy(universe, streamcover_core::ReprPolicy::Auto);
    for _ in 0..nsets {
        match link.recv()? {
            Frame::SetPayload(set) => {
                set.push_into(&mut store);
            }
            other => {
                return Err(ClusterError::Protocol(format!(
                    "owner {owner}: expected set payload, got {other:?}"
                )))
            }
        }
    }

    let shard = StoreShard::new(&store, 0..store.len());
    run_owner(&mut link, owner, id_base, &shard, &target, fault_at)
}

fn send_counted(link: &mut impl Transport, frame: &Frame) -> Result<u64, ClusterError> {
    let bytes = wire::encode_frame(frame);
    link.send_bytes(&bytes)?;
    Ok(bytes.len() as u64 * 8)
}

/// Removes the listener's socket file on drop.
struct PathCleanup(PathBuf);

impl Drop for PathCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn unique_socket_path() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "streamcover-cluster-{}-{n}.sock",
        std::process::id()
    ))
}

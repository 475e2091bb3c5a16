//! Distributed shard-owner execution over the transcript seam.
//!
//! The paper's lower bounds come from embedding communication problems
//! into streams; this module makes that reduction the *actual* execution
//! path. A coordinator and `k` shard owners run greedy set cover as a
//! message-passing protocol — every frame is routed through a
//! [`Transcript`](crate::transcript::Transcript), so the measured
//! `total_bits()` of a distributed run sits directly against the
//! `streamcover-info` communication lower bounds (with two owners holding
//! the Alice/Bob halves of a `D_SC` instance, the run *is* a two-party
//! protocol in the model of Definition 1).
//!
//! * [`wire`] — the versioned frame format: `SetRef` payloads in all four
//!   representations (compressed reprs ship their payload ranges
//!   verbatim), residual deltas, CELF gain reports.
//! * [`transport`] — the [`Transport`] trait with in-process channel pairs
//!   and Unix-domain socket backends.
//! * [`protocol`] — the owner/coordinator round loop: local-best gain
//!   reports → coordinator argmax (deterministic tie-break by set id) →
//!   pick → residual-delta broadcast.
//! * [`driver`] — [`DistCover`] (thread owners over either fabric, each
//!   reading a zero-copy set-range view of the one flat arena) and
//!   [`ProcessCluster`] (spawned owner processes, shards shipped over the
//!   wire).
//!
//! The standing invariant: the distributed solution is **byte-identical**
//! to `greedy_cover_until` at every owner count, fabric, and
//! representation policy (gated by `tests/dist_cover.rs` and the
//! `substrate_bench` `dist` arm).

pub mod driver;
pub mod protocol;
pub mod transport;
pub mod wire;

pub use driver::{run_owner_process, DistCover, DistCoverRun, ProcessCluster};
pub use protocol::{run_coordinator, run_owner};
pub use transport::{ChannelTransport, ClusterError, SocketTransport, Transport};
pub use wire::{
    decode_frame, encode_frame, Frame, OwnedSet, WireError, FRAME_MAGIC, HEADER_LEN, WIRE_VERSION,
};

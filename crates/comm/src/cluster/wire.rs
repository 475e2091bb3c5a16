//! The cluster wire format: versioned frames, self-contained and
//! dependency-free.
//!
//! Every byte exchanged between the coordinator and a shard owner is one
//! [`Frame`]: a fixed 16-byte little-endian header (magic, version, kind,
//! sender owner, round, payload length) followed by a kind-specific
//! payload. Set payloads ship the arena representation **verbatim** — a
//! `Chunked` or `EliasFano` set crosses the wire as its raw container /
//! high–low words, no decode on either side — so the measured bytes are the
//! bytes the store actually holds, and [`SetStore::push_ref`] reconstructs
//! the identical representation on the far end.
//!
//! The format is deliberately minimal: fixed-width little-endian integers,
//! length-prefixed arrays, no varints, no padding. [`decode_frame`] is the
//! single entry point and validates magic, version, kind, and every
//! declared length against the buffer before slicing; a set body must also
//! hold exactly the layout its encoder writes ([`SetRef::validate`]).

use streamcover_core::store::CARD_UNKNOWN;
use streamcover_core::{BitSet, SetRef, SetStore};

/// Frame magic: `"SCLU"` in little-endian byte order.
pub const FRAME_MAGIC: u32 = 0x554C_4353;
/// Current wire version; bumped on any incompatible layout change.
pub const WIRE_VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 16;
/// The `owner` header value used by coordinator-sent frames.
pub const COORDINATOR: u16 = u16::MAX;

/// Encoded size of a `GainReport` frame.
pub(crate) const GAIN_REPORT_BYTES: usize = HEADER_LEN + 16;
/// Encoded size of a `PickRequest` frame.
pub(crate) const PICK_REQUEST_BYTES: usize = HEADER_LEN + 8;
/// Encoded size of a `Finish` frame.
pub(crate) const FINISH_BYTES: usize = HEADER_LEN;

/// Encoded size of a `Delta` frame carrying `elems` elements.
pub(crate) const fn delta_bytes(elems: usize) -> usize {
    HEADER_LEN + 4 + 4 * elems
}

/// Encoded size of an `Advance` frame carrying `elems` elements.
pub(crate) const fn advance_bytes(elems: usize) -> usize {
    HEADER_LEN + 5 + 4 * elems
}

/// Wire-level decode failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before a declared length.
    Truncated,
    /// Header magic mismatch.
    BadMagic(u32),
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A payload failed structural validation.
    BadPayload(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadPayload(why) => write!(f, "bad payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One protocol message, ready to encode or freshly decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Owner → coordinator (process fabric): "owner `owner` is connected".
    Join {
        /// The joining owner's index.
        owner: u16,
    },
    /// Coordinator → owner (process fabric): shard-transfer preamble.
    Hello {
        /// Total owner count.
        owners: u16,
        /// Receiving owner's index.
        owner: u16,
        /// Global id of the shard's first set.
        id_base: u64,
        /// Number of `SetPayload` frames that follow.
        nsets: u64,
        /// Universe size `n`.
        universe: u64,
        /// The cover target as dense words over `[n]`.
        target_words: Vec<u64>,
    },
    /// Coordinator → owner (process fabric): one shard set, representation
    /// verbatim.
    SetPayload(OwnedSet),
    /// Owner → coordinator: local CELF best under the current residual.
    /// `gain == 0` means no local set makes progress (`id` is ignored).
    GainReport {
        /// Sending owner.
        owner: u16,
        /// Protocol round.
        round: u32,
        /// Marginal gain of the owner's best set.
        gain: u64,
        /// Global id of that set (tie-break: smallest id at equal gain).
        id: u64,
    },
    /// Coordinator → winning owner: "your set `id` is picked; send its
    /// residual delta".
    PickRequest {
        /// Protocol round.
        round: u32,
        /// Picked global set id.
        id: u64,
    },
    /// Winning owner → coordinator: the elements the pick newly covers
    /// (`S_id ∩ residual`, sorted) — per-round bytes scale with coverage
    /// change, not universe size.
    Delta {
        /// Sending owner.
        owner: u16,
        /// Protocol round.
        round: u32,
        /// Newly covered elements, strictly increasing.
        elems: Vec<u32>,
    },
    /// Coordinator → every owner: apply `elems` to the local residual
    /// (empty for the winner, who already applied it) and either continue
    /// (`cont`) into the next report round or stop.
    Advance {
        /// Protocol round.
        round: u32,
        /// Whether another report round follows.
        cont: bool,
        /// Residual delta to subtract locally.
        elems: Vec<u32>,
    },
    /// Coordinator → every owner: no set makes progress anywhere; stop.
    Finish {
        /// Protocol round.
        round: u32,
    },
    /// Owner → coordinator: the owner hit an unrecoverable error.
    Fault {
        /// Sending owner.
        owner: u16,
        /// Human-readable cause.
        message: String,
    },
}

impl Frame {
    /// The header kind byte.
    fn kind(&self) -> u8 {
        match self {
            Frame::Join { .. } => 1,
            Frame::Hello { .. } => 2,
            Frame::SetPayload(_) => 3,
            Frame::GainReport { .. } => 4,
            Frame::PickRequest { .. } => 5,
            Frame::Delta { .. } => 6,
            Frame::Advance { .. } => 7,
            Frame::Finish { .. } => 8,
            Frame::Fault { .. } => 9,
        }
    }

    /// The header `owner` field (sender for owner frames, [`COORDINATOR`]
    /// otherwise).
    fn owner(&self) -> u16 {
        match self {
            Frame::Join { owner }
            | Frame::GainReport { owner, .. }
            | Frame::Delta { owner, .. }
            | Frame::Fault { owner, .. } => *owner,
            Frame::Hello { owner, .. } => *owner,
            _ => COORDINATOR,
        }
    }

    /// The header `round` field (0 for setup/fault frames).
    fn round(&self) -> u32 {
        match self {
            Frame::GainReport { round, .. }
            | Frame::PickRequest { round, .. }
            | Frame::Delta { round, .. }
            | Frame::Advance { round, .. }
            | Frame::Finish { round } => *round,
            _ => 0,
        }
    }
}

/// An owned set in one of the four arena representations, as decoded off
/// the wire. [`as_set_ref`](OwnedSet::as_set_ref) re-views it for
/// [`SetStore::push_ref`], which copies the verbatim ranges back into an
/// arena — the representation survives the roundtrip bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedSet {
    universe: usize,
    repr: OwnedRepr,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum OwnedRepr {
    Sparse {
        elems: Vec<u32>,
    },
    Dense {
        words: Vec<u64>,
        card: usize,
    },
    Chunked {
        meta: Vec<u32>,
        data32: Vec<u32>,
        data64: Vec<u64>,
        card: usize,
    },
    EliasFano {
        high: Vec<u64>,
        low: Vec<u64>,
        low_bits: u32,
        card: usize,
    },
}

impl OwnedSet {
    /// Copies a borrowed arena view into owned buffers (the encode-side
    /// staging step; no representation change).
    pub fn from_ref(s: SetRef<'_>) -> OwnedSet {
        let universe = s.universe();
        let repr = match s {
            SetRef::Sparse { elems, .. } => OwnedRepr::Sparse {
                elems: elems.to_vec(),
            },
            SetRef::Dense { words, card, .. } => OwnedRepr::Dense {
                words: words.to_vec(),
                card,
            },
            SetRef::Chunked {
                meta,
                data32,
                data64,
                card,
                ..
            } => OwnedRepr::Chunked {
                meta: meta.to_vec(),
                data32: data32.to_vec(),
                data64: data64.to_vec(),
                card,
            },
            SetRef::EliasFano {
                high,
                low,
                low_bits,
                card,
                ..
            } => OwnedRepr::EliasFano {
                high: high.to_vec(),
                low: low.to_vec(),
                low_bits,
                card,
            },
        };
        OwnedSet { universe, repr }
    }

    /// The universe size this set lives in.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// A borrowed arena view of the owned buffers.
    pub fn as_set_ref(&self) -> SetRef<'_> {
        match &self.repr {
            OwnedRepr::Sparse { elems } => SetRef::Sparse {
                elems,
                universe: self.universe,
            },
            OwnedRepr::Dense { words, card } => SetRef::Dense {
                words,
                universe: self.universe,
                card: *card,
            },
            OwnedRepr::Chunked {
                meta,
                data32,
                data64,
                card,
            } => SetRef::Chunked {
                meta,
                data32,
                data64,
                universe: self.universe,
                card: *card,
            },
            OwnedRepr::EliasFano {
                high,
                low,
                low_bits,
                card,
            } => SetRef::EliasFano {
                high,
                low,
                low_bits: *low_bits,
                universe: self.universe,
                card: *card,
            },
        }
    }

    /// Pushes this set into `store`, representation verbatim.
    pub fn push_into(&self, store: &mut SetStore) -> usize {
        store.push_ref(self.as_set_ref())
    }
}

// ---- primitive writers/readers ------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    for &v in vs {
        put_u32(out, v);
    }
}

fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    for &v in vs {
        put_u64(out, v);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        let bytes = self.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload("trailing bytes"))
        }
    }
}

// ---- set body ------------------------------------------------------------

const TAG_SPARSE: u8 = 0;
const TAG_DENSE: u8 = 1;
const TAG_CHUNKED: u8 = 2;
const TAG_ELIAS_FANO: u8 = 3;

/// Cardinality sentinel on the wire for lazily counted dense views.
const WIRE_CARD_UNKNOWN: u64 = u64::MAX;

/// Appends the self-describing set body (`tag`, `universe`, dims, verbatim
/// ranges) for any of the four representations.
pub fn encode_set_body(s: SetRef<'_>, out: &mut Vec<u8>) {
    put_u64(out, s.universe() as u64);
    match s {
        SetRef::Sparse { elems, .. } => {
            out.push(TAG_SPARSE);
            put_u32(out, elems.len() as u32);
            put_u32s(out, elems);
        }
        SetRef::Dense { words, card, .. } => {
            out.push(TAG_DENSE);
            let wire_card = if card == CARD_UNKNOWN {
                WIRE_CARD_UNKNOWN
            } else {
                card as u64
            };
            put_u64(out, wire_card);
            put_u32(out, words.len() as u32);
            put_u64s(out, words);
        }
        SetRef::Chunked {
            meta,
            data32,
            data64,
            card,
            ..
        } => {
            out.push(TAG_CHUNKED);
            put_u64(out, card as u64);
            put_u32(out, meta.len() as u32);
            put_u32(out, data32.len() as u32);
            put_u32(out, data64.len() as u32);
            put_u32s(out, meta);
            put_u32s(out, data32);
            put_u64s(out, data64);
        }
        SetRef::EliasFano {
            high,
            low,
            low_bits,
            card,
            ..
        } => {
            out.push(TAG_ELIAS_FANO);
            put_u64(out, card as u64);
            put_u32(out, low_bits);
            put_u32(out, high.len() as u32);
            put_u32(out, low.len() as u32);
            put_u64s(out, high);
            put_u64s(out, low);
        }
    }
}

/// Decodes a complete standalone set body produced by
/// [`encode_set_body`] (no trailing bytes allowed).
pub fn decode_set_payload(bytes: &[u8]) -> Result<OwnedSet, WireError> {
    let mut r = Reader::new(bytes);
    let set = decode_set_body(&mut r)?;
    r.done()?;
    Ok(set)
}

/// Decodes one set body and validates it against the arena invariants the
/// unchecked kernels rely on ([`SetRef::validate`]), so a crafted body of
/// any layout is a [`WireError::BadPayload`], never an out-of-bounds probe.
fn decode_set_body(r: &mut Reader<'_>) -> Result<OwnedSet, WireError> {
    let universe = r.u64()? as usize;
    let tag = r.u8()?;
    let repr = match tag {
        TAG_SPARSE => {
            let card = r.u32()? as usize;
            OwnedRepr::Sparse {
                elems: r.u32s(card)?,
            }
        }
        TAG_DENSE => {
            let wire_card = r.u64()?;
            let card = if wire_card == WIRE_CARD_UNKNOWN {
                CARD_UNKNOWN
            } else {
                usize::try_from(wire_card).map_err(|_| WireError::BadPayload("dense card"))?
            };
            let nwords = r.u32()? as usize;
            OwnedRepr::Dense {
                words: r.u64s(nwords)?,
                card,
            }
        }
        TAG_CHUNKED => {
            let card = r.u64()? as usize;
            let meta_len = r.u32()? as usize;
            let d32_len = r.u32()? as usize;
            let d64_len = r.u32()? as usize;
            OwnedRepr::Chunked {
                meta: r.u32s(meta_len)?,
                data32: r.u32s(d32_len)?,
                data64: r.u64s(d64_len)?,
                card,
            }
        }
        TAG_ELIAS_FANO => {
            let card = r.u64()? as usize;
            let low_bits = r.u32()?;
            let high_len = r.u32()? as usize;
            let low_len = r.u32()? as usize;
            OwnedRepr::EliasFano {
                high: r.u64s(high_len)?,
                low: r.u64s(low_len)?,
                low_bits,
                card,
            }
        }
        other => return Err(WireError::BadKind(other)),
    };
    let set = OwnedSet { universe, repr };
    set.as_set_ref().validate().map_err(WireError::BadPayload)?;
    Ok(set)
}

// ---- frame encode/decode -------------------------------------------------

/// Encodes a frame: 16-byte header + payload.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match f {
        Frame::Join { .. } | Frame::Finish { .. } => {}
        Frame::Hello {
            owners,
            id_base,
            nsets,
            universe,
            target_words,
            ..
        } => {
            put_u16(&mut payload, *owners);
            put_u64(&mut payload, *id_base);
            put_u64(&mut payload, *nsets);
            put_u64(&mut payload, *universe);
            put_u32(&mut payload, target_words.len() as u32);
            put_u64s(&mut payload, target_words);
        }
        Frame::SetPayload(s) => encode_set_body(s.as_set_ref(), &mut payload),
        Frame::GainReport { gain, id, .. } => {
            put_u64(&mut payload, *gain);
            put_u64(&mut payload, *id);
        }
        Frame::PickRequest { id, .. } => put_u64(&mut payload, *id),
        Frame::Delta { elems, .. } => {
            put_u32(&mut payload, elems.len() as u32);
            put_u32s(&mut payload, elems);
        }
        Frame::Advance { cont, elems, .. } => {
            payload.push(u8::from(*cont));
            put_u32(&mut payload, elems.len() as u32);
            put_u32s(&mut payload, elems);
        }
        Frame::Fault { message, .. } => payload.extend_from_slice(message.as_bytes()),
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u32(&mut out, FRAME_MAGIC);
    out.push(WIRE_VERSION);
    out.push(f.kind());
    put_u16(&mut out, f.owner());
    put_u32(&mut out, f.round());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Parses a header prefix and returns the total frame length
/// (`HEADER_LEN + payload_len`) — the framing hook stream transports use to
/// know how much to read.
pub fn frame_len(header: &[u8]) -> Result<usize, WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[4] != WIRE_VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let payload_len = u32::from_le_bytes(header[12..16].try_into().unwrap());
    Ok(HEADER_LEN + payload_len as usize)
}

/// Decodes one complete frame (header + payload, no trailing bytes).
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let total = frame_len(bytes)?;
    if bytes.len() != total {
        return Err(WireError::Truncated);
    }
    let kind = bytes[5];
    let owner = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    let round = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let mut r = Reader::new(&bytes[HEADER_LEN..]);
    let frame = match kind {
        1 => Frame::Join { owner },
        2 => {
            let owners = r.u16()?;
            let id_base = r.u64()?;
            let nsets = r.u64()?;
            let universe = r.u64()?;
            let nwords = r.u32()? as usize;
            Frame::Hello {
                owners,
                owner,
                id_base,
                nsets,
                universe,
                target_words: r.u64s(nwords)?,
            }
        }
        3 => Frame::SetPayload(decode_set_body(&mut r)?),
        4 => Frame::GainReport {
            owner,
            round,
            gain: r.u64()?,
            id: r.u64()?,
        },
        5 => Frame::PickRequest {
            round,
            id: r.u64()?,
        },
        6 => {
            let n = r.u32()? as usize;
            Frame::Delta {
                owner,
                round,
                elems: r.u32s(n)?,
            }
        }
        7 => {
            let cont = r.u8()? != 0;
            let n = r.u32()? as usize;
            Frame::Advance {
                round,
                cont,
                elems: r.u32s(n)?,
            }
        }
        8 => Frame::Finish { round },
        9 => Frame::Fault {
            owner,
            message: String::from_utf8_lossy(r.take(bytes.len() - HEADER_LEN)?).into_owned(),
        },
        other => return Err(WireError::BadKind(other)),
    };
    r.done()?;
    Ok(frame)
}

/// Encodes a sorted element delta as dense target words — the canonical
/// `Hello` target encoding.
pub fn bitset_words(target: &BitSet) -> Vec<u64> {
    target.words().to_vec()
}

/// Rebuilds a bitset over `[universe]` from its dense words.
///
/// # Panics
/// Panics if the word count does not match `⌈universe/64⌉`.
pub fn bitset_from_words(universe: usize, words: &[u64]) -> BitSet {
    BitSet::from_words(universe, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamcover_core::{BatchedSweep, ReprPolicy, SetRepr};

    fn store_with(policy: ReprPolicy, universe: usize, elems: &[u32]) -> SetStore {
        let mut st = SetStore::with_policy(universe, policy);
        st.push_sorted(elems);
        st
    }

    #[test]
    fn set_body_roundtrips_every_repr() {
        let elems: Vec<u32> = (0..4000u32)
            .filter(|e| e % 7 == 0 || e % 131 == 1)
            .collect();
        for policy in [
            ReprPolicy::ForceSparse,
            ReprPolicy::ForceDense,
            ReprPolicy::ForceChunked,
            ReprPolicy::ForceEliasFano,
        ] {
            let st = store_with(policy, 1 << 17, &elems);
            let original = st.get(0);
            let mut body = Vec::new();
            encode_set_body(original, &mut body);
            let owned = decode_set_body(&mut Reader::new(&body)).expect("decode");
            assert_eq!(owned.as_set_ref(), original, "{policy:?}");
            // And the representation survives re-insertion into an arena.
            let mut back = SetStore::with_policy(1 << 17, ReprPolicy::Auto);
            owned.push_into(&mut back);
            assert_eq!(back.get(0), original, "{policy:?} push_ref");
        }
    }

    /// A `SetPayload` frame carrying a hand-built (unvalidated) set view.
    fn set_frame(s: SetRef<'_>) -> Vec<u8> {
        encode_frame(&Frame::SetPayload(OwnedSet::from_ref(s)))
    }

    fn assert_bad_payload(bytes: &[u8]) {
        assert!(
            matches!(decode_frame(bytes), Err(WireError::BadPayload(_))),
            "{:?}",
            decode_frame(bytes)
        );
    }

    #[test]
    fn sparse_body_outside_the_universe_is_rejected() {
        // A one-set body over universe 64 whose first element is 1,000,000:
        // stored verbatim it would send the unchecked probe out of bounds.
        assert_bad_payload(&set_frame(SetRef::Sparse {
            elems: &[1_000_000, 5],
            universe: 64,
        }));
        assert_bad_payload(&set_frame(SetRef::Sparse {
            elems: &[3, 64],
            universe: 64,
        }));
    }

    #[test]
    fn unsorted_sparse_body_is_rejected() {
        for elems in [&[9u32, 3][..], &[3, 3], &[1, 7, 2]] {
            assert_bad_payload(&set_frame(SetRef::Sparse {
                elems,
                universe: 64,
            }));
        }
    }

    #[test]
    fn dense_body_with_bits_past_the_universe_is_rejected() {
        assert_bad_payload(&set_frame(SetRef::Dense {
            words: &[1, 1 << 2],
            universe: 66,
            card: CARD_UNKNOWN,
        }));
    }

    #[test]
    fn dense_body_with_a_wrong_card_is_rejected() {
        assert_bad_payload(&set_frame(SetRef::Dense {
            words: &[0b1011, 1],
            universe: 66,
            card: 3,
        }));
    }

    #[test]
    fn validated_bodies_still_roundtrip_in_every_layout() {
        // Ragged universes, the last element and bit, empty sets, and a
        // lazily counted dense view.
        for universe in [1usize, 64, 130] {
            let last = universe as u32 - 1;
            let mut ends = vec![0, last];
            ends.dedup();
            for elems in [vec![], ends, (0..=last).step_by(3).collect()] {
                for policy in [
                    ReprPolicy::ForceSparse,
                    ReprPolicy::ForceDense,
                    ReprPolicy::ForceChunked,
                    ReprPolicy::ForceEliasFano,
                ] {
                    let st = store_with(policy, universe, &elems);
                    let bytes = set_frame(st.get(0));
                    match decode_frame(&bytes) {
                        Ok(Frame::SetPayload(owned)) => {
                            assert_eq!(owned.as_set_ref(), st.get(0), "{policy:?} n={universe}")
                        }
                        other => panic!("{policy:?} n={universe}: {other:?}"),
                    }
                }
                let bits = BitSet::from_iter(universe, elems.iter().map(|&e| e as usize));
                let bytes = set_frame(bits.as_set_ref());
                assert!(
                    matches!(decode_frame(&bytes), Ok(Frame::SetPayload(o)) if o.as_set_ref() == bits)
                );
            }
        }
    }

    #[test]
    fn frame_roundtrips() {
        let st = store_with(ReprPolicy::ForceEliasFano, 512, &[1, 5, 100, 511]);
        let frames = vec![
            Frame::Join { owner: 3 },
            Frame::Hello {
                owners: 4,
                owner: 3,
                id_base: 96,
                nsets: 32,
                universe: 512,
                target_words: vec![u64::MAX, 0, 7, 1 << 63],
            },
            Frame::SetPayload(OwnedSet::from_ref(st.get(0))),
            Frame::GainReport {
                owner: 2,
                round: 9,
                gain: 77,
                id: 12345,
            },
            Frame::PickRequest {
                round: 9,
                id: 12345,
            },
            Frame::Delta {
                owner: 2,
                round: 9,
                elems: vec![4, 9, 400],
            },
            Frame::Advance {
                round: 9,
                cont: true,
                elems: vec![4, 9, 400],
            },
            Frame::Advance {
                round: 10,
                cont: false,
                elems: vec![],
            },
            Frame::Finish { round: 11 },
            Frame::Fault {
                owner: 1,
                message: "killed".into(),
            },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            assert_eq!(frame_len(&bytes).unwrap(), bytes.len());
            assert_eq!(decode_frame(&bytes).unwrap(), f, "roundtrip {f:?}");
        }
    }

    #[test]
    fn protocol_frame_sizes_match_encoding() {
        let report = Frame::GainReport {
            owner: 1,
            round: 2,
            gain: 3,
            id: 4,
        };
        assert_eq!(encode_frame(&report).len(), GAIN_REPORT_BYTES);
        let pick = Frame::PickRequest { round: 2, id: 4 };
        assert_eq!(encode_frame(&pick).len(), PICK_REQUEST_BYTES);
        assert_eq!(
            encode_frame(&Frame::Finish { round: 2 }).len(),
            FINISH_BYTES
        );
        for d in [0usize, 1, 7] {
            let elems: Vec<u32> = (0..d as u32).collect();
            let delta = Frame::Delta {
                owner: 1,
                round: 2,
                elems: elems.clone(),
            };
            assert_eq!(encode_frame(&delta).len(), delta_bytes(d));
            let advance = Frame::Advance {
                round: 2,
                cont: true,
                elems,
            };
            assert_eq!(encode_frame(&advance).len(), advance_bytes(d));
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = encode_frame(&Frame::Finish { round: 1 });
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(WireError::BadMagic(_))
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(WireError::BadVersion(99))
        ));
        let mut bad_kind = bytes.clone();
        bad_kind[5] = 200;
        assert!(matches!(
            decode_frame(&bad_kind),
            Err(WireError::BadKind(200))
        ));
        assert_eq!(
            decode_frame(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut truncated_payload = encode_frame(&Frame::Delta {
            owner: 0,
            round: 0,
            elems: vec![1, 2, 3],
        });
        truncated_payload.truncate(truncated_payload.len() - 4);
        // Header still declares 3 elements → length mismatch.
        assert_eq!(decode_frame(&truncated_payload), Err(WireError::Truncated));
    }

    #[test]
    fn chunked_body_with_a_local_past_the_universe_is_rejected() {
        // One array container holding local element 60000 over universe 64:
        // stored verbatim, the sweep kernels would probe past the residual.
        assert_bad_payload(&set_frame(SetRef::Chunked {
            meta: &[0, 0, 1, 0],
            data32: &[60_000],
            data64: &[],
            universe: 64,
            card: 1,
        }));
    }

    #[test]
    fn elias_fano_body_past_the_universe_is_rejected() {
        // One element whose unary bit sits at position 64: it decodes to
        // element 64 of a 64-element universe.
        assert_bad_payload(&set_frame(SetRef::EliasFano {
            high: &[0, 1],
            low: &[],
            low_bits: 0,
            universe: 64,
            card: 1,
        }));
    }

    /// A universe of three full chunks and a ragged 640-element fourth.
    const FLIP_UNIVERSE: usize = 3 * (1 << 16) + 640;

    /// Sets spanning several chunks: scattered arrays, long runs, and a
    /// dense ragged last chunk (a bitmap container when chunked).
    fn flip_sets() -> Vec<Vec<u32>> {
        let top = 3 << 16;
        let scattered = |step: u32, base: u32| (0..40).map(move |i| base + i * step);
        vec![
            scattered(1597, 0)
                .chain((1 << 16) + 100..(1 << 16) + 400)
                .chain((1 << 16) + 900..(1 << 16) + 1100)
                .chain((top..top + 640).filter(|e| e % 5 < 2))
                .collect(),
            scattered(1021, 7).chain(scattered(997, 2 << 16)).collect(),
            ((2 << 16) + 5..(2 << 16) + 700)
                .chain((top..top + 640).filter(|e| e % 3 != 0))
                .collect(),
        ]
    }

    /// The residuals a decoded set is swept against: full, and two thirds.
    fn flip_residuals(n: usize) -> [BitSet; 2] {
        [
            BitSet::full(n),
            BitSet::from_iter(n, (0..n).filter(|e| e % 3 != 1)),
        ]
    }

    /// Every single-bit flip of `body` either fails to decode or yields a
    /// set that every kernel reads consistently with its own elements.
    fn assert_flips_are_rejected_or_consistent(body: &[u8]) {
        let residuals = flip_residuals(FLIP_UNIVERSE);
        for bit in 0..body.len() * 8 {
            let mut flipped = body.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let Ok(owned) = decode_set_payload(&flipped) else {
                continue;
            };
            let set = owned.as_set_ref();
            let n = owned.universe();
            let elems: Vec<usize> = set.iter().collect();
            assert!(
                elems.windows(2).all(|w| w[0] < w[1]) && elems.last().is_none_or(|&e| e < n),
                "bit {bit}: decoded elements out of order or range"
            );
            assert_eq!(set.len(), elems.len(), "bit {bit}: card");
            if n > 1 << 22 {
                // A flipped high universe bit: too large for bitmaps here.
                continue;
            }
            let reference = BitSet::from_iter(n, elems.iter().copied());
            let mut store = SetStore::new(n);
            owned.push_into(&mut store);
            let flipped_universe;
            let residuals = if n == FLIP_UNIVERSE {
                &residuals
            } else {
                flipped_universe = flip_residuals(n);
                &flipped_universe
            };
            for residual in residuals {
                let expect = reference.intersection_len(residual);
                assert_eq!(
                    set.intersection_len(residual.as_set_ref()),
                    expect,
                    "bit {bit}: intersection_len"
                );
                assert_eq!(
                    BatchedSweep::new().gains(&store, residual),
                    &[expect],
                    "bit {bit}: sweep gain"
                );
            }
        }
    }

    #[test]
    fn chunked_body_bit_flips_are_rejected_or_consistent() {
        let mut tags = [false; 3];
        for elems in flip_sets() {
            let st = store_with(ReprPolicy::ForceChunked, FLIP_UNIVERSE, &elems);
            if let SetRef::Chunked { meta, .. } = st.get(0) {
                assert!(meta.len() >= 8, "multi-container set");
                for m in meta.chunks(4) {
                    tags[(m[1] & 0xff) as usize] = true;
                }
            }
            let mut body = Vec::new();
            encode_set_body(st.get(0), &mut body);
            assert_flips_are_rejected_or_consistent(&body);
        }
        assert_eq!(
            tags, [true; 3],
            "array, bitmap and run containers all flipped"
        );
    }

    #[test]
    fn elias_fano_body_bit_flips_are_rejected_or_consistent() {
        for elems in flip_sets() {
            let st = store_with(ReprPolicy::ForceEliasFano, FLIP_UNIVERSE, &elems);
            assert_eq!(st.get(0).repr(), SetRepr::EliasFano);
            let mut body = Vec::new();
            encode_set_body(st.get(0), &mut body);
            assert_flips_are_rejected_or_consistent(&body);
        }
    }

    #[test]
    fn bitset_words_roundtrip() {
        let b = BitSet::from_iter(130, [0, 63, 64, 128, 129]);
        let words = bitset_words(&b);
        assert_eq!(bitset_from_words(130, &words), b);
    }
}

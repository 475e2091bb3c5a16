//! Message fabrics the cluster protocol runs over.
//!
//! A [`Transport`] moves whole encoded frames between one coordinator
//! endpoint and one owner endpoint. Two backends:
//!
//! * [`ChannelTransport`] — in-process `mpsc` byte hand-offs. Deterministic
//!   and syscall-free, the fabric the identity proptests hammer. Frames are
//!   still fully encoded/decoded, so the byte counts it produces are
//!   identical to the socket fabric's.
//! * [`SocketTransport`] — length-framed frames over any `Read + Write`
//!   byte stream; [`unix_pair`](SocketTransport::unix_pair) builds a
//!   connected Unix-domain pair, and the same type wraps the accepted end
//!   of a listener when owners are spawned processes.
//!
//! Both directions fail *cleanly* on peer loss: a dropped channel or a
//! stream EOF surfaces as [`ClusterError::Closed`], never a hang (process
//! fabrics additionally arm a read timeout — see
//! [`SocketTransport::set_read_timeout`]).

use super::wire::{self, Frame, WireError, HEADER_LEN};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::Duration;

/// Errors of the distributed execution subsystem.
#[derive(Debug)]
pub enum ClusterError {
    /// The peer disconnected (dropped channel, stream EOF) — the clean
    /// shape of "an owner died mid-round".
    Closed,
    /// An I/O error on a stream fabric (including read timeouts).
    Io(std::io::Error),
    /// A frame failed to decode.
    Wire(WireError),
    /// The peer sent a well-formed frame the protocol state machine does
    /// not accept here.
    Protocol(String),
    /// An owner reported an internal failure.
    Fault {
        /// The failing owner.
        owner: u16,
        /// Its reported cause.
        message: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Closed => write!(f, "peer closed the transport"),
            ClusterError::Io(e) => write!(f, "transport i/o error: {e}"),
            ClusterError::Wire(e) => write!(f, "wire error: {e}"),
            ClusterError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ClusterError::Fault { owner, message } => {
                write!(f, "owner {owner} faulted: {message}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e)
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ClusterError::Closed
        } else {
            ClusterError::Io(e)
        }
    }
}

/// One endpoint of a coordinator↔owner frame pipe.
///
/// Implementations move opaque encoded frames; the provided [`send`]
/// (encode once) and [`recv`](Transport::recv) (decode once) wrappers are
/// what the protocol uses, while the byte-level methods let the
/// coordinator capture the exact on-wire bytes for transcript metering.
///
/// [`send`]: Transport::send
pub trait Transport: Send {
    /// Ships one already-encoded frame.
    fn send_bytes(&mut self, frame: &[u8]) -> Result<(), ClusterError>;

    /// Receives the next frame's exact bytes.
    fn recv_bytes(&mut self) -> Result<Vec<u8>, ClusterError>;

    /// Encodes and ships a frame.
    fn send(&mut self, frame: &Frame) -> Result<(), ClusterError> {
        self.send_bytes(&wire::encode_frame(frame))
    }

    /// Receives and decodes the next frame.
    fn recv(&mut self) -> Result<Frame, ClusterError> {
        Ok(wire::decode_frame(&self.recv_bytes()?)?)
    }
}

/// In-process fabric: each endpoint holds a sender to its peer and its own
/// receiver.
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// A connected endpoint pair.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (atx, brx) = mpsc::channel();
        let (btx, arx) = mpsc::channel();
        (
            ChannelTransport { tx: atx, rx: arx },
            ChannelTransport { tx: btx, rx: brx },
        )
    }
}

impl Transport for ChannelTransport {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<(), ClusterError> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| ClusterError::Closed)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, ClusterError> {
        self.rx.recv().map_err(|_| ClusterError::Closed)
    }
}

/// Payload bytes [`SocketTransport`] reserves before any arrive: frames up
/// to this size land without regrowing the buffer, and a lying header
/// cannot force a larger allocation.
const PREALLOC_LIMIT: usize = 1 << 20;

/// Length-framed frames over a byte stream (Unix-domain or TCP socket, or
/// anything else `Read + Write`). Framing is the wire header itself: read
/// [`HEADER_LEN`] bytes, parse the declared payload length, read the rest.
pub struct SocketTransport<S> {
    stream: S,
}

impl SocketTransport<UnixStream> {
    /// A connected Unix-domain socket pair (`socketpair(2)`), one endpoint
    /// per side.
    pub fn unix_pair() -> std::io::Result<(Self, Self)> {
        let (a, b) = UnixStream::pair()?;
        Ok((SocketTransport::new(a), SocketTransport::new(b)))
    }

    /// Arms a read timeout so a wedged (but not dead) peer cannot hang the
    /// protocol; expiry surfaces as [`ClusterError::Io`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

impl<S> SocketTransport<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Self {
        SocketTransport { stream }
    }
}

impl<S: Read + Write + Send> Transport for SocketTransport<S> {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<(), ClusterError> {
        self.stream.write_all(frame)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads the header, then the declared payload through
    /// [`Read::take`]: the buffer grows with the bytes that actually
    /// arrive, so a header declaring up to 4 GiB allocates at most 1 MiB
    /// up front. A stream that ends short of the declared length is
    /// [`ClusterError::Closed`].
    fn recv_bytes(&mut self) -> Result<Vec<u8>, ClusterError> {
        let mut buf = vec![0u8; HEADER_LEN];
        self.stream.read_exact(&mut buf)?;
        let payload = wire::frame_len(&buf)? - HEADER_LEN;
        buf.reserve(payload.min(PREALLOC_LIMIT));
        let got = (&mut self.stream)
            .take(payload as u64)
            .read_to_end(&mut buf)?;
        if got < payload {
            return Err(ClusterError::Closed);
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_roundtrips_frames() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&Frame::Finish { round: 3 }).unwrap();
        assert_eq!(b.recv().unwrap(), Frame::Finish { round: 3 });
        b.send(&Frame::Join { owner: 7 }).unwrap();
        assert_eq!(a.recv().unwrap(), Frame::Join { owner: 7 });
    }

    #[test]
    fn channel_peer_drop_is_closed_not_hang() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert!(matches!(
            a.send(&Frame::Finish { round: 0 }),
            Err(ClusterError::Closed)
        ));
        assert!(matches!(a.recv(), Err(ClusterError::Closed)));
    }

    #[test]
    fn unix_pair_roundtrips_frames() {
        let (mut a, mut b) = SocketTransport::unix_pair().unwrap();
        let f = Frame::Delta {
            owner: 1,
            round: 2,
            elems: vec![10, 20, 30],
        };
        a.send(&f).unwrap();
        assert_eq!(b.recv().unwrap(), f);
    }

    #[test]
    fn oversized_header_then_eof_is_a_prompt_error() {
        // A header declaring a ~4 GiB payload, then the peer hangs up: the
        // read must fail without first allocating the declared size.
        let mut header = wire::encode_frame(&Frame::Finish { round: 0 });
        header[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(&header).unwrap();
        b.write_all(&[0u8; 100]).unwrap();
        drop(b);
        let started = std::time::Instant::now();
        let got = SocketTransport::new(a).recv_bytes();
        assert!(matches!(got, Err(ClusterError::Closed)), "{got:?}");
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn unix_peer_drop_is_closed_not_hang() {
        let (mut a, b) = SocketTransport::unix_pair().unwrap();
        drop(b);
        assert!(matches!(a.recv(), Err(ClusterError::Closed)));
    }
}

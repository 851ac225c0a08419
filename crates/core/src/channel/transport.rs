//! Frame transports: the physical channel between verifier and prover.
//!
//! A [`Transport`] moves opaque length-delimited frames in both directions
//! and counts the bytes it moves. The protocol layer (`sip-wire`) decides
//! what the frames *mean*; this layer only guarantees that a frame arrives
//! whole or an error is reported. Two implementations:
//!
//! * [`InMemoryTransport`] — a pair of queues inside one process; this is
//!   the seed repository's original prover↔verifier wiring, now behind the
//!   trait.
//! * [`FramedTcpTransport`] — `u32`-little-endian length-prefixed frames
//!   over a `TcpStream`, the outsourced setting of Section 1 ("the data
//!   owner sends (key, value) pairs to the cloud to be stored").
//!
//! Both enforce a maximum frame length: a malicious peer controls the
//! length prefix, and a verifier with `O(log u)` words of protocol state
//! must not be made to allocate gigabytes.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Default cap on a single frame (16 MiB) — far above any honest proof in
/// this workspace, far below a memory-exhaustion attack.
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

/// Why a transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed the channel (or the socket reached EOF mid-frame).
    Closed,
    /// The peer announced a frame larger than the negotiated maximum.
    FrameTooLarge {
        /// Announced length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// No frame arrived within the configured timeout.
    TimedOut,
    /// An I/O error from the underlying socket.
    Io(String),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "channel closed by peer"),
            TransportError::FrameTooLarge { len, max } => {
                write!(f, "peer announced a {len}-byte frame, maximum is {max}")
            }
            TransportError::TimedOut => write!(f, "timed out waiting for a frame"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset => TransportError::Closed,
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => TransportError::TimedOut,
            _ => TransportError::Io(e.to_string()),
        }
    }
}

/// Byte and frame counters, symmetric in both directions.
///
/// TCP transports include the 4-byte length prefix in the byte counts (it
/// crosses the wire); the in-memory transport counts it too so that local
/// and remote runs report comparable numbers.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames sent by this endpoint.
    pub frames_sent: usize,
    /// Frames received by this endpoint.
    pub frames_received: usize,
    /// Bytes sent, including framing overhead.
    pub bytes_sent: usize,
    /// Bytes received, including framing overhead.
    pub bytes_received: usize,
}

/// A bidirectional, ordered, frame-preserving channel endpoint.
pub trait Transport: Send {
    /// Sends one frame.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Receives the next frame, blocking up to the configured timeout.
    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Traffic counters for this endpoint.
    fn stats(&self) -> TransportStats;
}

const FRAME_HEADER: usize = 4;

// ---------------------------------------------------------------------
// In-memory
// ---------------------------------------------------------------------

/// One endpoint of an in-process frame channel (see
/// [`InMemoryTransport::pair`]).
pub struct InMemoryTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    timeout: Option<Duration>,
    max_frame: usize,
    stats: TransportStats,
}

impl InMemoryTransport {
    /// A connected pair of endpoints: what one sends, the other receives.
    pub fn pair() -> (InMemoryTransport, InMemoryTransport) {
        let (tx_a, rx_b) = mpsc::channel();
        let (tx_b, rx_a) = mpsc::channel();
        let make = |tx, rx| InMemoryTransport {
            tx,
            rx,
            timeout: None,
            max_frame: DEFAULT_MAX_FRAME,
            stats: TransportStats::default(),
        };
        (make(tx_a, rx_a), make(tx_b, rx_b))
    }

    /// Sets the receive timeout (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }
}

impl Transport for InMemoryTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if frame.len() > self.max_frame {
            return Err(TransportError::FrameTooLarge {
                len: frame.len(),
                max: self.max_frame,
            });
        }
        self.tx
            .send(frame.to_vec())
            .map_err(|_| TransportError::Closed)?;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += FRAME_HEADER + frame.len();
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = match self.timeout {
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::TimedOut,
                RecvTimeoutError::Disconnected => TransportError::Closed,
            })?,
            None => self.rx.recv().map_err(|_| TransportError::Closed)?,
        };
        self.stats.frames_received += 1;
        self.stats.bytes_received += FRAME_HEADER + frame.len();
        Ok(frame)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Framed TCP
// ---------------------------------------------------------------------

/// Length-prefixed frames over a `TcpStream`.
///
/// Wire layout per frame: `len: u32 LE` followed by `len` payload bytes.
/// The stream runs with `TCP_NODELAY` (interactive protocols send many tiny
/// frames; Nagle would serialise the rounds on RTTs).
pub struct FramedTcpTransport {
    stream: TcpStream,
    max_frame: usize,
    stats: TransportStats,
    /// The outgoing packet (header + payload), kept between sends so a
    /// frame costs a copy, not an allocation; as large as the largest frame
    /// this side has sent.
    packet: Vec<u8>,
}

impl FramedTcpTransport {
    /// Wraps a connected stream with the default frame cap.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        Self::with_max_frame(stream, DEFAULT_MAX_FRAME)
    }

    /// Wraps a connected stream with an explicit frame cap.
    pub fn with_max_frame(stream: TcpStream, max_frame: usize) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(FramedTcpTransport {
            stream,
            max_frame,
            stats: TransportStats::default(),
            packet: Vec::new(),
        })
    }

    /// Sets the socket read timeout (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// The peer's address, for logging.
    pub fn peer_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.stream.peer_addr()
    }

    /// Reads exactly `buf.len()` bytes, mapping EOF/timeout to transport
    /// errors.
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TransportError> {
        self.stream.read_exact(buf)?;
        Ok(())
    }
}

impl Transport for FramedTcpTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if frame.len() > self.max_frame {
            return Err(TransportError::FrameTooLarge {
                len: frame.len(),
                max: self.max_frame,
            });
        }
        let len = (frame.len() as u32).to_le_bytes();
        // One write per frame keeps packets small and avoids interleaving
        // surprises if a transport is ever shared across threads.
        self.packet.clear();
        self.packet.extend_from_slice(&len);
        self.packet.extend_from_slice(frame);
        self.stream.write_all(&self.packet)?;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += self.packet.len();
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let mut header = [0u8; FRAME_HEADER];
        self.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as usize;
        if len > self.max_frame {
            return Err(TransportError::FrameTooLarge {
                len,
                max: self.max_frame,
            });
        }
        let mut frame = vec![0u8; len];
        self.read_exact(&mut frame)?;
        self.stats.frames_received += 1;
        self.stats.bytes_received += FRAME_HEADER + len;
        Ok(frame)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Injected latency
// ---------------------------------------------------------------------

/// A [`Transport`] wrapper that injects a deterministic artificial delay
/// before each received frame: a fixed `rtt` plus a jitter drawn from a
/// seeded xorshift64* sequence. The same `(rtt, jitter, seed)` always
/// produces the same delay sequence ([`LatencyTransport::delay_sequence`]),
/// so latency experiments (`sipbench`'s `sharded_wan` workload) and tests are
/// reproducible.
///
/// The delay is applied on the *receive* side — one sleep per frame models
/// one network traversal, so a request/response exchange over a wrapped
/// client transport costs one injected RTT per round, which is exactly the
/// quantity the per-round `wire_wait` spans decompose. The sleep is paid on
/// the receiving thread: a caller that drains `S` wrapped connections from
/// one thread pays `S` delays per round, and one that drains them on `S`
/// threads pays one.
pub struct LatencyTransport<T: Transport> {
    inner: T,
    rtt: Duration,
    jitter: Duration,
    state: u64,
}

impl<T: Transport> LatencyTransport<T> {
    /// Wraps `inner` with a fixed per-frame receive delay of `rtt` plus a
    /// deterministic jitter in `[0, jitter]` derived from `seed`.
    pub fn new(inner: T, rtt: Duration, jitter: Duration, seed: u64) -> Self {
        LatencyTransport {
            inner,
            rtt,
            jitter,
            // xorshift64* must not start at 0 (it would stay there).
            state: seed | 1,
        }
    }

    /// Wraps `inner` with a fixed per-frame receive delay and no jitter.
    pub fn fixed(inner: T, rtt: Duration) -> Self {
        Self::new(inner, rtt, Duration::ZERO, 1)
    }

    /// The wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn next_delay(&mut self) -> Duration {
        self.rtt + Self::jitter_step(&mut self.state, self.jitter)
    }

    fn jitter_step(state: &mut u64, jitter: Duration) -> Duration {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        if jitter.is_zero() {
            return Duration::ZERO;
        }
        let draw = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Saturating: a jitter of 2^64 µs or more draws the whole word.
        let bound = u64::try_from(jitter.as_micros()).unwrap_or(u64::MAX);
        Duration::from_micros(draw % bound.saturating_add(1))
    }

    /// The first `n` delays a transport built with these parameters will
    /// inject, without sleeping — what the determinism proptest checks.
    pub fn delay_sequence(rtt: Duration, jitter: Duration, seed: u64, n: usize) -> Vec<Duration> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| rtt + Self::jitter_step(&mut state, jitter))
            .collect()
    }
}

impl<T: Transport> Transport for LatencyTransport<T> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv_frame()?;
        let delay = self.next_delay();
        // Skip the syscall entirely at zero so an rtt=0 sweep point is an
        // honest baseline, not a pile of sleep(0) calls.
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        Ok(frame)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    #[test]
    fn in_memory_roundtrip_and_stats() {
        let (mut a, mut b) = InMemoryTransport::pair();
        a.send_frame(b"hello").unwrap();
        a.send_frame(b"").unwrap();
        assert_eq!(b.recv_frame().unwrap(), b"hello");
        assert_eq!(b.recv_frame().unwrap(), b"");
        assert_eq!(a.stats().frames_sent, 2);
        assert_eq!(a.stats().bytes_sent, 4 + 5 + 4);
        assert_eq!(b.stats().frames_received, 2);
        assert_eq!(b.stats().bytes_received, 4 + 5 + 4);
    }

    #[test]
    fn in_memory_closed_and_timeout() {
        let (a, mut b) = InMemoryTransport::pair();
        b.set_timeout(Some(Duration::from_millis(10)));
        assert_eq!(b.recv_frame().unwrap_err(), TransportError::TimedOut);
        drop(a);
        assert_eq!(b.recv_frame().unwrap_err(), TransportError::Closed);
    }

    fn tcp_pair() -> (FramedTcpTransport, FramedTcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || listener.accept().unwrap().0);
        let client = TcpStream::connect(addr).unwrap();
        let server = join.join().unwrap();
        (
            FramedTcpTransport::new(client).unwrap(),
            FramedTcpTransport::new(server).unwrap(),
        )
    }

    #[test]
    fn tcp_roundtrip_both_directions() {
        let (mut c, mut s) = tcp_pair();
        c.send_frame(&[1, 2, 3]).unwrap();
        assert_eq!(s.recv_frame().unwrap(), vec![1, 2, 3]);
        s.send_frame(&[9; 1000]).unwrap();
        assert_eq!(c.recv_frame().unwrap(), vec![9; 1000]);
        assert_eq!(c.stats().bytes_sent, 7);
        assert_eq!(c.stats().bytes_received, 1004);
        assert_eq!(s.stats().bytes_received, 7);
        assert_eq!(s.stats().bytes_sent, 1004);
        // The send buffer is reused: a short frame after a long one carries
        // nothing of it, and an empty frame is still a frame.
        s.send_frame(&[7, 8]).unwrap();
        s.send_frame(&[]).unwrap();
        assert_eq!(c.recv_frame().unwrap(), vec![7, 8]);
        assert_eq!(c.recv_frame().unwrap(), Vec::<u8>::new());
        assert_eq!(s.stats().frames_sent, 3);
        assert_eq!(s.stats().bytes_sent, 1004 + 6 + 4);
    }

    #[test]
    fn tcp_rejects_oversized_announcement() {
        let (mut c, mut s) = tcp_pair();
        let mut small =
            FramedTcpTransport::with_max_frame(c.stream.try_clone().unwrap(), 16).unwrap();
        // Announce a 1 GiB frame by hand.
        c.stream.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        drop(c);
        let err = s.recv_frame().unwrap_err();
        assert!(
            matches!(err, TransportError::FrameTooLarge { len, .. } if len == 1 << 30),
            "{err:?}"
        );
        // And sending over the cap fails locally before any bytes move —
        // or are staged: a frame at the cap still goes out whole afterwards.
        let err = small.send_frame(&[0u8; 17]).unwrap_err();
        assert_eq!(err, TransportError::FrameTooLarge { len: 17, max: 16 });
        assert_eq!(small.stats().bytes_sent, 0);
        small.send_frame(&[5u8; 16]).unwrap();
        assert_eq!(small.stats().bytes_sent, 20);
    }

    #[test]
    fn tcp_eof_is_closed() {
        let (c, mut s) = tcp_pair();
        drop(c);
        assert_eq!(s.recv_frame().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn tcp_timeout_fires() {
        let (_c, mut s) = tcp_pair();
        s.set_timeout(Some(Duration::from_millis(20))).unwrap();
        assert_eq!(s.recv_frame().unwrap_err(), TransportError::TimedOut);
    }

    #[test]
    fn latency_transport_delays_receives_and_passes_frames() {
        let (mut a, b) = InMemoryTransport::pair();
        let mut b = LatencyTransport::fixed(b, Duration::from_millis(15));
        a.send_frame(b"ping").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(b.recv_frame().unwrap(), b"ping");
        assert!(start.elapsed() >= Duration::from_millis(15));
        // Sends pass straight through; stats come from the inner transport.
        b.send_frame(b"pong").unwrap();
        assert_eq!(a.recv_frame().unwrap(), b"pong");
        assert_eq!(b.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_received, 1);
    }

    #[test]
    fn a_jitter_past_the_microsecond_word_saturates() {
        // From 2^64 − 1 µs on the bound used to wrap to zero: a panic on the
        // add in a debug build, a division by zero in a release one.
        type Latency = LatencyTransport<InMemoryTransport>;
        let word = Duration::from_micros(u64::MAX);
        for jitter in [Duration::MAX, word + Duration::from_micros(1), word] {
            let delays = Latency::delay_sequence(Duration::ZERO, jitter, 7, 64);
            assert_eq!(
                delays,
                Latency::delay_sequence(Duration::ZERO, jitter, 7, 64)
            );
            assert!(delays.iter().all(|&d| d < word));
            assert!(delays
                .iter()
                .any(|&d| d > Duration::from_micros(u64::MAX >> 8)));
        }
    }

    #[test]
    fn latency_delay_sequence_is_deterministic_and_matches_live() {
        let rtt = Duration::from_micros(100);
        let jitter = Duration::from_micros(50);
        let expected = LatencyTransport::<InMemoryTransport>::delay_sequence(rtt, jitter, 42, 8);
        let again = LatencyTransport::<InMemoryTransport>::delay_sequence(rtt, jitter, 42, 8);
        assert_eq!(expected, again);
        for d in &expected {
            assert!(*d >= rtt && *d <= rtt + jitter, "{d:?}");
        }
        // A live transport draws the same sequence.
        let (_a, b) = InMemoryTransport::pair();
        let mut live = LatencyTransport::new(b, rtt, jitter, 42);
        let drawn: Vec<Duration> = (0..8).map(|_| live.next_delay()).collect();
        assert_eq!(drawn, expected);
    }
}

//! The harness's view of the socket: a [`Transport`] wrapper that counts
//! bytes and frames, times every `send`/`recv`, and — in the traced pass —
//! opens a span per frame and keeps a bounded sample of raw frames for the
//! codec replay.
//!
//! It sits outside everything else (including an injected-latency wrapper),
//! so `recv` time is what the client actually spent blocked: prover
//! compute, kernel, and any injected delay together. Two `Instant::now`
//! calls per frame are its whole cost, which is why the untraced pass keeps
//! it too: it is the only byte counter that also sees a `ReplicaFleet`'s
//! connections, which expose no `TransportStats`.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sip_core::channel::{FramedTcpTransport, Transport, TransportError, TransportStats};

use crate::trace;

/// Every dial and every read gives up after this long, so a hung prover is
/// a failed operation rather than a hung benchmark.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Frames kept per direction for the codec replay.
const MAX_RECORDED_FRAMES: usize = 512;
/// Frames above this size are not kept once one such frame is held (bulk
/// ingest frames are all alike; one is enough to replay).
const LARGE_FRAME: usize = 4096;

/// Counters shared between a [`Tap`] and the harness. Relaxed everywhere:
/// they are statistics read after the traffic they count.
#[derive(Default)]
pub struct TapStats {
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
    recorded: Mutex<Recorded>,
}

/// Raw frames sampled in the traced pass.
#[derive(Default, Clone)]
pub struct Recorded {
    /// Frames this endpoint sent.
    pub sent: Vec<Vec<u8>>,
    /// Frames this endpoint received.
    pub received: Vec<Vec<u8>>,
}

impl Recorded {
    /// Both connections' samples together.
    pub fn merged(mut self, other: Recorded) -> Recorded {
        self.sent.extend(other.sent);
        self.received.extend(other.received);
        self
    }
}

/// A point-in-time copy of a [`TapStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TapSnapshot {
    /// Bytes written, 4-byte frame headers included.
    pub bytes_sent: u64,
    /// Bytes read, 4-byte frame headers included.
    pub bytes_recv: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Frames read.
    pub frames_recv: u64,
    /// Nanoseconds inside `send_frame`.
    pub send_ns: u64,
    /// Nanoseconds inside `recv_frame` (blocked on the peer).
    pub recv_ns: u64,
}

impl TapSnapshot {
    /// Traffic since `earlier`.
    pub fn since(&self, earlier: &TapSnapshot) -> TapSnapshot {
        TapSnapshot {
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_recv: self.bytes_recv - earlier.bytes_recv,
            frames_sent: self.frames_sent - earlier.frames_sent,
            frames_recv: self.frames_recv - earlier.frames_recv,
            send_ns: self.send_ns - earlier.send_ns,
            recv_ns: self.recv_ns - earlier.recv_ns,
        }
    }

    /// Bytes both ways.
    pub fn bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_recv
    }

    /// Frames both ways.
    pub fn frames(&self) -> u64 {
        self.frames_sent + self.frames_recv
    }
}

impl std::ops::Add for TapSnapshot {
    type Output = TapSnapshot;
    fn add(self, o: TapSnapshot) -> TapSnapshot {
        TapSnapshot {
            bytes_sent: self.bytes_sent + o.bytes_sent,
            bytes_recv: self.bytes_recv + o.bytes_recv,
            frames_sent: self.frames_sent + o.frames_sent,
            frames_recv: self.frames_recv + o.frames_recv,
            send_ns: self.send_ns + o.send_ns,
            recv_ns: self.recv_ns + o.recv_ns,
        }
    }
}

impl std::iter::Sum for TapSnapshot {
    fn sum<I: Iterator<Item = TapSnapshot>>(iter: I) -> TapSnapshot {
        iter.fold(TapSnapshot::default(), |acc, s| acc + s)
    }
}

impl TapStats {
    /// The counters of several connections now, added up.
    pub fn total(taps: &[Arc<TapStats>]) -> TapSnapshot {
        taps.iter().map(|t| t.snapshot()).sum()
    }

    /// The counters now.
    pub fn snapshot(&self) -> TapSnapshot {
        TapSnapshot {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            send_ns: self.send_ns.load(Ordering::Relaxed),
            recv_ns: self.recv_ns.load(Ordering::Relaxed),
        }
    }

    /// The frames sampled so far (empty outside the traced pass).
    pub fn recorded(&self) -> Recorded {
        self.recorded
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

fn keep(frames: &mut Vec<Vec<u8>>, frame: &[u8]) {
    if frames.len() >= MAX_RECORDED_FRAMES {
        return;
    }
    if frame.len() > LARGE_FRAME && frames.iter().any(|f| f.len() > LARGE_FRAME) {
        return;
    }
    frames.push(frame.to_vec());
}

/// The counting, timing transport wrapper.
pub struct Tap<T: Transport> {
    inner: T,
    stats: Arc<TapStats>,
}

impl<T: Transport> Tap<T> {
    /// Wraps `inner`; the returned handle reads the counters while the
    /// transport itself is owned by a client.
    pub fn new(inner: T) -> (Self, Arc<TapStats>) {
        let stats = Arc::new(TapStats::default());
        (
            Tap {
                inner,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let _span = trace::span("wire", "transport.send");
        let start = Instant::now();
        let out = self.inner.send_frame(frame);
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.send_ns.fetch_add(ns, Ordering::Relaxed);
        if out.is_ok() {
            self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_sent
                .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
            if trace::enabled() {
                let mut rec = self
                    .stats
                    .recorded
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                keep(&mut rec.sent, frame);
            }
        }
        out
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let _span = trace::span("wire", "transport.recv");
        let start = Instant::now();
        let out = self.inner.recv_frame();
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.recv_ns.fetch_add(ns, Ordering::Relaxed);
        if let Ok(frame) = &out {
            self.stats.frames_recv.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_recv
                .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
            if trace::enabled() {
                let mut rec = self
                    .stats
                    .recorded
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                keep(&mut rec.received, frame);
            }
        }
        out
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Dials `addr` with [`IO_TIMEOUT`] on the connect and on every read.
pub fn dial(addr: SocketAddr) -> Result<FramedTcpTransport, String> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
        .map_err(|e| format!("dialing {addr}: {e}"))?;
    let mut transport =
        FramedTcpTransport::new(stream).map_err(|e| format!("framing {addr}: {e}"))?;
    transport
        .set_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("read timeout on {addr}: {e}"))?;
    Ok(transport)
}

/// [`dial`] wrapped in a [`Tap`].
pub fn dial_tapped(addr: SocketAddr) -> Result<(Tap<FramedTcpTransport>, Arc<TapStats>), String> {
    Ok(Tap::new(dial(addr)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_core::channel::InMemoryTransport;

    #[test]
    fn tap_counts_what_the_inner_transport_counts() {
        let (a, mut b) = InMemoryTransport::pair();
        let (mut tap, stats) = Tap::new(a);
        let before = stats.snapshot();
        tap.send_frame(&[1, 2, 3]).unwrap();
        b.send_frame(&[9; 10]).unwrap();
        assert_eq!(tap.recv_frame().unwrap(), vec![9; 10]);
        let d = stats.snapshot().since(&before);
        assert_eq!((d.frames_sent, d.frames_recv), (1, 1));
        assert_eq!((d.bytes_sent, d.bytes_recv), (7, 14));
        assert_eq!(d.bytes(), 21);
        assert_eq!(d.frames(), 2);
        let inner = tap.stats();
        assert_eq!(inner.bytes_sent as u64, d.bytes_sent);
        assert_eq!(inner.bytes_received as u64, d.bytes_recv);
        // Nothing is sampled outside the traced pass.
        assert!(stats.recorded().sent.is_empty());
    }

    #[test]
    fn frame_sampling_is_bounded() {
        let mut frames = Vec::new();
        keep(&mut frames, &[0; LARGE_FRAME + 1]);
        keep(&mut frames, &[0; LARGE_FRAME + 1]);
        assert_eq!(frames.len(), 1, "one bulk frame is enough");
        for _ in 0..2 * MAX_RECORDED_FRAMES {
            keep(&mut frames, &[0; 8]);
        }
        assert_eq!(frames.len(), MAX_RECORDED_FRAMES);
    }
}

//! The tamper study of Section 5, upgraded to a real network: a full
//! KV-store session runs over TCP through a byte-flipping man-in-the-middle
//! proxy, and **every single-byte corruption of the prover's traffic must
//! yield a rejection — never a wrong accepted answer**.
//!
//! The honest run is executed first to learn exactly how many prover bytes
//! cross the wire (the protocol is deterministic given the verifier's
//! seed), then the same session is replayed once per byte position with
//! that byte's low bit flipped in flight. Corruption lands on everything
//! the prover sends: the handshake ack, frame length prefixes, message
//! tags, counts, indices, and field elements — each must be caught by the
//! decoder (non-canonical/truncated/bad tag), by a timeout, or by the
//! protocol algebra (root mismatch, round-sum mismatch, final check).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::channel::{FramedTcpTransport, Transport, TransportError, TransportStats};
use sip::core::sumcheck::f2::F2Verifier;
use sip::core::Rejection;
use sip::field::{Fp61, PrimeField};
use sip::kvstore::{Client, QueryBudget};
use sip::server::client::{RawClient, RemoteStore};
use sip::server::{spawn, ServerConfig};
use sip::streaming::workloads;
use sip::wire::{Msg, WireCodec};

const LOG_U: u32 = 4;
const PAIRS: [(u64, u64); 3] = [(3, 10), (7, 0), (12, 55)];
/// Read timeout for the tampered runs: flips that inflate a length prefix
/// make the client wait for bytes that never come; this bounds the wait.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(150);

/// Forwards `from` → `to`, XOR-ing bit 0 of the byte at absolute stream
/// position `flip` (if any), counting bytes through `counter`.
fn pump(mut from: TcpStream, mut to: TcpStream, flip: Option<usize>, counter: Arc<AtomicUsize>) {
    let mut buf = [0u8; 4096];
    let mut pos = 0usize;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if let Some(k) = flip {
            if (pos..pos + n).contains(&k) {
                buf[k - pos] ^= 0x01;
            }
        }
        pos += n;
        counter.fetch_add(n, Ordering::SeqCst);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Read);
    let _ = to.shutdown(Shutdown::Write);
}

/// A one-connection MITM proxy in front of `upstream`; returns the address
/// to dial and a counter of server→client bytes.
fn mitm(upstream: SocketAddr, flip: Option<usize>) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let counter = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&counter);
    thread::spawn(move || {
        let Ok((client_side, _)) = listener.accept() else {
            return;
        };
        let Ok(server_side) = TcpStream::connect(upstream) else {
            let _ = client_side.shutdown(Shutdown::Both);
            return;
        };
        // Forward each write at once: with Nagle on, every small frame the
        // proxy relays stalls on the peer's delayed ACK (~40 ms).
        let _ = client_side.set_nodelay(true);
        let _ = server_side.set_nodelay(true);
        let c2s = (
            client_side.try_clone().unwrap(),
            server_side.try_clone().unwrap(),
        );
        // Client→server traffic is forwarded untouched (the verifier is
        // honest); server→client traffic carries the flip.
        let up = thread::spawn(move || pump(c2s.0, c2s.1, None, Arc::new(AtomicUsize::new(0))));
        pump(server_side, client_side, flip, counted);
        let _ = up.join();
    });
    (addr, counter)
}

/// The scripted session: upload three pairs, then a verified `get` and a
/// verified `range_sum`. Returns the verified answers.
fn run_kv_session(proxy: SocketAddr) -> Result<(Option<u64>, u64), sip::core::Rejection> {
    let mut store: RemoteStore<Fp61, _> =
        RemoteStore::connect_with_timeout(proxy, LOG_U, CLIENT_TIMEOUT)?;
    // Fixed seed ⇒ identical digests and challenges in every run ⇒ the
    // honest byte stream is identical too.
    let mut rng = StdRng::seed_from_u64(2011);
    let mut client = Client::<Fp61>::new(LOG_U, QueryBudget::default(), &mut rng);
    for (k, v) in PAIRS {
        client.put(k, v, &mut store);
    }
    let got = client.get(3, &store)?.value;
    let sum = client.range_sum(0, (1 << LOG_U) - 1, &store)?.value;
    // No `bye()`: it solicits the prover's *advisory* Msg::Cost report,
    // which carries no proof material — the session's verified answers are
    // final before it. The tamper sweep covers proof-bearing bytes only,
    // so the session ends by dropping the socket, like a crashed client.
    Ok((got, sum))
}

/// The one-shot variant of the scripted session: the same uploads, then a
/// verified `self_join_size` answered as one [`sip::wire::Msg::Proof`]
/// frame instead of `log u` interactive rounds.
fn run_kv_session_oneshot(proxy: SocketAddr) -> Result<u64, sip::core::Rejection> {
    let mut store: RemoteStore<Fp61, _> =
        RemoteStore::connect_with_timeout(proxy, LOG_U, CLIENT_TIMEOUT)?;
    let mut rng = StdRng::seed_from_u64(2011);
    let mut client = Client::<Fp61>::new(LOG_U, QueryBudget::default(), &mut rng);
    for (k, v) in PAIRS {
        client.put(k, v, &mut store);
    }
    Ok(client.self_join_size_oneshot(&store)?.value)
}

/// The byte-flip sweep of [`every_single_byte_corruption_rejects`], aimed
/// at the one-shot path: every single-byte corruption of the prover's
/// traffic — which now includes whole `Msg::Proof` frames (claimed value,
/// round polynomials, transcript digest) — must yield a typed rejection,
/// never a wrong accepted answer and never a panic.
#[test]
fn every_single_byte_corruption_of_oneshot_proofs_rejects() {
    let server = spawn::<Fp61, _>(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let upstream = server.local_addr();

    let (proxy, counter) = mitm(upstream, None);
    let f2 = run_kv_session_oneshot(proxy).expect("honest run must accept");
    assert_eq!(f2, 10 * 10 + 55 * 55);
    thread::sleep(Duration::from_millis(100));
    let total = counter.load(Ordering::SeqCst);
    assert!(total > 100, "suspiciously little prover traffic: {total}");

    let mut accepted_forgeries = Vec::new();
    for k in 0..total {
        let (proxy, _) = mitm(upstream, Some(k));
        match run_kv_session_oneshot(proxy) {
            Err(_) => {}
            Ok(answers) => {
                accepted_forgeries.push((k, answers));
            }
        }
    }
    assert!(
        accepted_forgeries.is_empty(),
        "{} of {total} byte flips were accepted: {accepted_forgeries:?}",
        accepted_forgeries.len()
    );
    server.shutdown();
}

#[test]
fn every_single_byte_corruption_rejects() {
    let server = spawn::<Fp61, _>(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let upstream = server.local_addr();

    // Honest control run: must accept with the right answers, and tells us
    // how many prover bytes the session moves.
    let (proxy, counter) = mitm(upstream, None);
    let (got, sum) = run_kv_session(proxy).expect("honest run must accept");
    assert_eq!(got, Some(10));
    assert_eq!(sum, 10 + 55); // values 10, 0, 55
                              // Let the proxy drain before reading the counter.
    thread::sleep(Duration::from_millis(100));
    let total = counter.load(Ordering::SeqCst);
    assert!(total > 100, "suspiciously little prover traffic: {total}");

    let mut accepted_forgeries = Vec::new();
    for k in 0..total {
        let (proxy, _) = mitm(upstream, Some(k));
        match run_kv_session(proxy) {
            Err(_) => {}
            Ok(answers) => {
                // An accept is only a forgery if an answer is wrong; with a
                // one-bit flip in the prover's traffic even a right answer
                // would mean the flipped byte was never checked — count it.
                accepted_forgeries.push((k, answers));
            }
        }
    }
    assert!(
        accepted_forgeries.is_empty(),
        "{} of {total} byte flips were accepted: {accepted_forgeries:?}",
        accepted_forgeries.len()
    );
    server.shutdown();
}

/// A client-side transport that (when `forge` is set) adds one to the value
/// of every `ClaimedValue` frame it receives, and counts the `Challenge`
/// frames it sends — which, over TCP, are exactly the ones the server
/// receives.
struct ClaimForger<T> {
    inner: T,
    forge: bool,
    challenges: Arc<AtomicUsize>,
}

impl<T: Transport> Transport for ClaimForger<T> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if matches!(Msg::<Fp61>::from_bytes(frame), Ok(Msg::Challenge(_))) {
            self.challenges.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv_frame()?;
        Ok(match Msg::<Fp61>::from_bytes(&frame) {
            Ok(Msg::ClaimedValue(v)) if self.forge => Msg::ClaimedValue(v + Fp61::ONE).to_bytes(),
            _ => frame,
        })
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

fn forger(
    upstream: SocketAddr,
    forge: bool,
) -> (ClaimForger<FramedTcpTransport>, Arc<AtomicUsize>) {
    let mut tcp = FramedTcpTransport::new(TcpStream::connect(upstream).unwrap()).unwrap();
    tcp.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let challenges = Arc::new(AtomicUsize::new(0));
    let transport = ClaimForger {
        inner: tcp,
        forge,
        challenges: Arc::clone(&challenges),
    };
    (transport, challenges)
}

/// A claimed value that disagrees with the first round polynomial is
/// refused when the query opens, on the raw and the kv path alike: the
/// verifier answers `MalformedAnswer` and no challenge ever leaves. The
/// same conversation without the rewrite accepts, after `log u − 1`
/// challenges.
#[test]
fn a_false_claim_is_refused_before_any_challenge_leaves() {
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let stream = workloads::paper_f2(1 << LOG_U, 4);
    for forge in [false, true] {
        let (transport, challenges) = forger(server.local_addr(), forge);
        let mut client: RawClient<Fp61, _> = RawClient::from_transport(transport, LOG_U).unwrap();
        let mut verifier = F2Verifier::<Fp61>::new(LOG_U, &mut StdRng::seed_from_u64(8));
        verifier.update_all(&stream);
        client.send_stream(&stream);
        client.end_stream().unwrap();
        let got = client.verify_f2(verifier);
        if forge {
            assert!(
                matches!(got, Err(Rejection::MalformedAnswer { .. })),
                "{got:?}"
            );
            assert_eq!(challenges.load(Ordering::SeqCst), 0);
        } else {
            assert!(got.is_ok(), "{got:?}");
            assert_eq!(challenges.load(Ordering::SeqCst), LOG_U as usize - 1);
        }

        let (transport, challenges) = forger(server.local_addr(), forge);
        let mut store: RemoteStore<Fp61, _> =
            RemoteStore::from_transport(transport, LOG_U).unwrap();
        let mut kv =
            Client::<Fp61>::new(LOG_U, QueryBudget::default(), &mut StdRng::seed_from_u64(9));
        for (k, v) in PAIRS {
            kv.put(k, v, &mut store);
        }
        let got = kv.self_join_size(&store);
        if forge {
            assert!(
                matches!(got, Err(Rejection::MalformedAnswer { .. })),
                "{got:?}"
            );
            assert_eq!(challenges.load(Ordering::SeqCst), 0);
        } else {
            assert_eq!(got.unwrap().value, 10 * 10 + 55 * 55);
            assert_eq!(challenges.load(Ordering::SeqCst), LOG_U as usize - 1);
        }
    }
    server.shutdown();
}

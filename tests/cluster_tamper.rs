//! The tamper study for the sharded fleet: whatever one shard does wrong —
//! a lying store, or any single-byte corruption of one shard's TCP traffic
//! — the aggregating verifier must reject **and blame exactly that shard**,
//! never accept a wrong answer, and never indict an honest shard.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::cluster::spawn_local_fleet;
use sip::cluster::{ClusterClient, ClusterF2Verifier, ClusterRangeSumVerifier};
use sip::core::Rejection;
use sip::field::{Fp61, PrimeField};
use sip::kvstore::{
    boxed_fleet, Attack, CloudStore, KvServer, MaliciousStore, QueryBudget, ShardedClient,
};
use sip::server::ServerHandle;
use sip::streaming::{ShardPlan, Update};
use sip::wire::{Msg, WireCodec};

// ---------------------------------------------------------------------
// One malicious store in an otherwise honest fleet (in-process)
// ---------------------------------------------------------------------

const LOG_U: u32 = 6;
const SHARDS: u32 = 4;

fn fleet_pairs(plan: &ShardPlan) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    for s in 0..plan.shards() {
        let (lo, hi) = plan.range(s);
        pairs.push((lo + 1, 100 + s as u64));
        pairs.push((hi, 7));
    }
    pairs
}

/// Exactly one of S shards runs a [`MaliciousStore`]: every attack, every
/// possible guilty shard — the verifier rejects with that shard's id, and
/// the aggregate lie is checked on both aggregate forms (`self_join_size`,
/// then `range_sum`) in one session. Honest shards are never indicted.
#[test]
fn single_malicious_shard_is_always_blamed() {
    for guilty in 0..SHARDS {
        for attack in [
            Attack::CorruptValues,
            Attack::DropFirstEntry,
            Attack::SkewAggregates,
            Attack::UnderstateCounts,
            Attack::LieAboutPredecessor,
        ] {
            let mut rng = StdRng::seed_from_u64(guilty as u64 * 31 + 1);
            let mut client =
                ShardedClient::<Fp61>::new(LOG_U, SHARDS, QueryBudget::default(), &mut rng)
                    .unwrap();
            let mut servers: Vec<Box<dyn KvServer<Fp61>>> = (0..SHARDS)
                .map(|s| {
                    let store = CloudStore::<Fp61>::new(LOG_U);
                    if s == guilty {
                        Box::new(MaliciousStore::new(store, attack)) as Box<dyn KvServer<Fp61>>
                    } else {
                        Box::new(store) as Box<dyn KvServer<Fp61>>
                    }
                })
                .collect();
            let pairs = fleet_pairs(client.plan());
            for &(k, v) in &pairs {
                client.put(k, v, &mut servers).unwrap();
            }
            let u = 1u64 << LOG_U;
            let err = match attack {
                Attack::CorruptValues | Attack::DropFirstEntry => {
                    client.range(0, u - 1, &servers).unwrap_err()
                }
                // Both aggregate forms must indict the same shard.
                Attack::SkewAggregates => {
                    let err = client.self_join_size(&servers).unwrap_err();
                    assert_eq!(err.blamed_shard(), Some(guilty), "{err}");
                    client.range_sum(0, u - 1, &servers).unwrap_err()
                }
                Attack::UnderstateCounts => client.heavy_keys(90, &servers).unwrap_err(),
                Attack::LieAboutPredecessor => {
                    let (_, hi) = client.plan().range(guilty);
                    client.predecessor(hi, &servers).unwrap_err()
                }
            };
            assert_eq!(
                err.blamed_shard(),
                Some(guilty),
                "attack {attack:?} on shard {guilty}: {err}"
            );
        }
    }
}

/// The all-honest control: the fleet answers exactly like a single store,
/// and the aggregated books add up.
#[test]
fn all_honest_fleet_matches_single_store_and_totals_add_up() {
    let mut rng = StdRng::seed_from_u64(50);
    let mut sharded =
        ShardedClient::<Fp61>::new(LOG_U, SHARDS, QueryBudget::default(), &mut rng).unwrap();
    let mut fleet = boxed_fleet((0..SHARDS).map(|_| CloudStore::<Fp61>::new(LOG_U)));
    let mut rng = StdRng::seed_from_u64(51);
    let mut single =
        ShardedClient::<Fp61>::new(LOG_U, 1, QueryBudget::default(), &mut rng).unwrap();
    let mut one = boxed_fleet([CloudStore::<Fp61>::new(LOG_U)]);
    let pairs = fleet_pairs(sharded.plan());
    for &(k, v) in &pairs {
        sharded.put(k, v, &mut fleet).unwrap();
        single.put(k, v, &mut one).unwrap();
    }
    let u = 1u64 << LOG_U;
    let a = sharded.range_sum(0, u - 1, &fleet).unwrap();
    let b = single.range_sum(0, u - 1, &one).unwrap();
    assert_eq!(a.value, b.value);
    assert_eq!(
        a.report.total().total_words(),
        a.report
            .per_shard
            .iter()
            .map(|r| r.total_words())
            .sum::<usize>()
    );
    assert_eq!(
        sharded.heavy_keys(90, &fleet).unwrap().value,
        single.heavy_keys(90, &one).unwrap().value
    );
}

// ---------------------------------------------------------------------
// One corrupted wire in an otherwise honest TCP fleet (MITM)
// ---------------------------------------------------------------------

/// Read timeout for tampered runs: flips that inflate a length prefix make
/// the client wait for bytes that never come; this bounds the wait.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(150);

/// Forwards `from` → `to`, XOR-ing bit 0 of the byte at absolute stream
/// position `flip` (if any), keeping every forwarded byte in `seen`.
fn pump(mut from: TcpStream, mut to: TcpStream, flip: Option<usize>, seen: Arc<Mutex<Vec<u8>>>) {
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
        seen.lock().unwrap().extend_from_slice(&buf[..n]);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Read);
    let _ = to.shutdown(Shutdown::Write);
}

/// One proxied shard connection and the bytes it carried each way.
struct Mitm {
    /// The address to dial instead of the shard's.
    addr: SocketAddr,
    /// Prover→verifier bytes, as the verifier received them (flip applied).
    to_verifier: Arc<Mutex<Vec<u8>>>,
    /// Verifier→prover bytes.
    to_prover: Arc<Mutex<Vec<u8>>>,
    /// Ends once both directions are closed.
    done: thread::JoinHandle<()>,
}

impl Mitm {
    fn prover_bytes(&self) -> usize {
        self.to_verifier.lock().unwrap().len()
    }

    /// Waits, once the verifier has hung up, for the proxy to forward the
    /// rest of the traffic, and returns what the verifier sent and received.
    fn finish(self) -> (Vec<u8>, Vec<u8>) {
        // A proxy the verifier never dialled still waits in `accept`: dial
        // and hang up once so that it ends. One already dialled ignores this.
        drop(TcpStream::connect(self.addr));
        self.done.join().expect("proxy thread panicked");
        let take = |bytes: Arc<Mutex<Vec<u8>>>| std::mem::take(&mut *bytes.lock().unwrap());
        (take(self.to_prover), take(self.to_verifier))
    }
}

/// A one-connection MITM proxy in front of `upstream`. Only
/// prover→verifier traffic is corrupted — the verifier is honest.
fn mitm(upstream: SocketAddr, flip: Option<usize>) -> Mitm {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let to_verifier = Arc::new(Mutex::new(Vec::new()));
    let to_prover = Arc::new(Mutex::new(Vec::new()));
    let (down_seen, up_seen) = (Arc::clone(&to_verifier), Arc::clone(&to_prover));
    let done = thread::spawn(move || {
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
        let up = thread::spawn(move || pump(c2s.0, c2s.1, None, up_seen));
        pump(server_side, client_side, flip, down_seen);
        let _ = up.join();
    });
    Mitm {
        addr,
        to_verifier,
        to_prover,
        done,
    }
}

/// Splits one direction of a connection into its frames (4-byte
/// little-endian length, then payload); `None` if the bytes end mid-frame.
fn frames(mut bytes: &[u8]) -> Option<Vec<&[u8]>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let len = u32::from_le_bytes(bytes.get(..4)?.try_into().unwrap()) as usize;
        out.push(bytes.get(4..4 + len)?);
        bytes = &bytes[4 + len..];
    }
    Some(out)
}

const TAMPER_LOG_U: u32 = 4;
const TAMPER_SHARDS: u32 = 3;

fn spawn_fleet() -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    spawn_local_fleet::<Fp61>(TAMPER_SHARDS, TAMPER_LOG_U).expect("bind shard servers")
}

/// The scripted fleet session: a fixed stream, then verified F₂ and
/// RANGE-SUM. Returns the two verified values.
fn run_cluster_session(addrs: &[SocketAddr]) -> Result<(Fp61, Fp61), Rejection> {
    let plan = ShardPlan::new(TAMPER_LOG_U, TAMPER_SHARDS);
    let stream = [
        Update::new(1, 3),
        Update::new(6, 2),
        Update::new(7, 5),
        Update::new(11, 1),
        Update::new(14, 4),
    ];
    let mut client: ClusterClient<Fp61, _> =
        ClusterClient::connect_with_timeout(addrs, TAMPER_LOG_U, CLIENT_TIMEOUT)?;
    let mut rng = StdRng::seed_from_u64(99);
    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
    for &up in &stream {
        f2.update(up);
        rs.update(up);
        client.send_update(up);
    }
    client.end_stream()?;
    let f2_got = client.verify_f2(f2)?;
    let rs_got = client.verify_range_sum(rs, 2, 12)?;
    Ok((f2_got.value, rs_got.value))
}

/// The one-shot variant of the scripted fleet session: the same stream,
/// then F₂ and RANGE-SUM verified as one proof frame per shard. On a
/// rejection, the indictment must arrive with its evidence: the in-memory
/// flight-recorder dump naming the blamed shard.
fn run_cluster_session_oneshot(addrs: &[SocketAddr]) -> Result<(Fp61, Fp61), Rejection> {
    let plan = ShardPlan::new(TAMPER_LOG_U, TAMPER_SHARDS);
    let stream = [
        Update::new(1, 3),
        Update::new(6, 2),
        Update::new(7, 5),
        Update::new(11, 1),
        Update::new(14, 4),
    ];
    let mut client: ClusterClient<Fp61, _> =
        ClusterClient::connect_with_timeout(addrs, TAMPER_LOG_U, CLIENT_TIMEOUT)?;
    let mut rng = StdRng::seed_from_u64(99);
    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
    for &up in &stream {
        f2.update(up);
        rs.update(up);
        client.send_update(up);
    }
    client.end_stream()?;
    let check_dump = |client: &ClusterClient<Fp61, _>, rej: Rejection| -> Rejection {
        let dump = client
            .last_flight_dump()
            .expect("a blamed one-shot query must dump the flight recorder");
        assert!(dump.contains("\"reason\": \"blame\""), "{dump}");
        if let Some(s) = rej.blamed_shard() {
            assert!(
                dump.contains(&format!("\"blamed_shard\": \"{s}\"")),
                "dump does not name shard {s}: {dump}"
            );
        }
        rej
    };
    let f2_got = match client.verify_f2_oneshot(f2) {
        Ok(v) => v,
        Err(rej) => return Err(check_dump(&client, rej)),
    };
    let rs_got = match client.verify_range_sum_oneshot(rs, 2, 12) {
        Ok(v) => v,
        Err(rej) => return Err(check_dump(&client, rej)),
    };
    Ok((f2_got.value, rs_got.value))
}

/// The MITM sweep under one-shot: every single-byte corruption of the
/// guilty shard's prover→verifier traffic — which now carries whole proof
/// frames — is caught, blamed on that shard, and documented by a
/// flight-recorder dump; honest shards are never indicted.
#[test]
fn every_flipped_byte_on_one_shard_is_blamed_under_oneshot() {
    let (handles, addrs) = spawn_fleet();
    let guilty = 1usize;

    let honest = mitm(addrs[guilty], None);
    let mut dial = addrs.clone();
    dial[guilty] = honest.addr;
    let (f2_truth, rs_truth) = run_cluster_session_oneshot(&dial).expect("honest fleet accepted");
    assert_eq!(f2_truth, Fp61::from_u64(9 + 4 + 25 + 1 + 16));
    assert_eq!(rs_truth, Fp61::from_u64(2 + 5 + 1));
    let prover_bytes = honest.prover_bytes();
    assert!(prover_bytes > 0);

    for flip in 0..prover_bytes {
        let mut dial = addrs.clone();
        dial[guilty] = mitm(addrs[guilty], Some(flip)).addr;
        match run_cluster_session_oneshot(&dial) {
            Ok((f2, rs)) => {
                assert_eq!(
                    (f2, rs),
                    (f2_truth, rs_truth),
                    "flip {flip} forged an answer"
                );
            }
            Err(e) => {
                assert_eq!(
                    e.blamed_shard(),
                    Some(guilty as u32),
                    "flip {flip} blamed the wrong party: {e}"
                );
            }
        }
    }
    for h in handles {
        h.shutdown();
    }
}

/// Every single-byte corruption of one shard's prover→verifier TCP traffic
/// is caught and blamed on that shard; honest shards are never indicted.
#[test]
fn every_flipped_byte_on_one_shard_is_blamed_on_it() {
    let (handles, addrs) = spawn_fleet();
    let guilty = 1usize;

    // Honest control through the proxy: learn the traffic volume and the
    // true answers.
    let honest = mitm(addrs[guilty], None);
    let mut dial = addrs.clone();
    dial[guilty] = honest.addr;
    let (f2_truth, rs_truth) = run_cluster_session(&dial).expect("honest fleet accepted");
    assert_eq!(f2_truth, Fp61::from_u64(9 + 4 + 25 + 1 + 16));
    // [2, 12] covers indices 6, 7 and 11.
    assert_eq!(rs_truth, Fp61::from_u64(2 + 5 + 1));
    let prover_bytes = honest.prover_bytes();
    assert!(prover_bytes > 0);

    // Tampered runs: flip each prover→verifier byte of the guilty shard.
    for flip in 0..prover_bytes {
        let mut dial = addrs.clone();
        dial[guilty] = mitm(addrs[guilty], Some(flip)).addr;
        match run_cluster_session(&dial) {
            Ok((f2, rs)) => {
                // A flip may land on a byte whose corruption still decodes
                // to the honest transcript… it may not change any answer.
                assert_eq!(
                    (f2, rs),
                    (f2_truth, rs_truth),
                    "flip {flip} forged an answer"
                );
            }
            Err(e) => {
                assert_eq!(
                    e.blamed_shard(),
                    Some(guilty as u32),
                    "flip {flip} blamed the wrong party: {e}"
                );
            }
        }
    }
    for h in handles {
        h.shutdown();
    }
}

/// Whether the verifier condemned a connection: something it received after
/// the handshake acknowledgement is not a whole, decodable, non-error
/// message. A condemned connection takes no further frame, the verdict
/// included.
fn condemned(to_verifier: &[u8]) -> bool {
    let Some(frames) = frames(to_verifier) else {
        return true;
    };
    frames
        .iter()
        .skip(1)
        .any(|f| !matches!(Msg::<Fp61>::from_bytes(f), Ok(m) if !matches!(m, Msg::Error(_))))
}

type Session = fn(&[SocketAddr]) -> Result<(Fp61, Fp61), Rejection>;

/// Two corrupted shards at once: the same prover→verifier byte flipped on
/// shards 1 and 2, in interactive and in one-shot mode. The verifier drains
/// both faults concurrently, yet the blame must name shard 1, the
/// lowest-index fault, whatever order the drain threads finish in. Once a
/// query has gone out, every shard hears that verdict — all but one whose
/// connection the verifier condemned for an undecodable reply.
#[test]
fn concurrent_faults_are_blamed_on_the_lowest_shard() {
    let (handles, addrs) = spawn_fleet();
    let dial = |mitms: &[Mitm]| mitms.iter().map(|m| m.addr).collect::<Vec<_>>();
    for (mode, session) in [
        ("interactive", run_cluster_session as Session),
        ("one-shot", run_cluster_session_oneshot),
    ] {
        let honest: Vec<Mitm> = addrs.iter().map(|&a| mitm(a, None)).collect();
        let truth = session(&dial(&honest)).expect("honest fleet accepted");
        let prover_bytes = honest[1].prover_bytes();
        assert_eq!(prover_bytes, honest[2].prover_bytes(), "{mode}");
        for m in honest {
            assert!(!condemned(&m.finish().1), "{mode}");
        }

        for flip in 0..prover_bytes {
            let mitms: Vec<Mitm> = (0..addrs.len())
                .map(|s| mitm(addrs[s], (s > 0).then_some(flip)))
                .collect();
            let out = session(&dial(&mitms));
            // The session dropped its client, so every proxy drains and ends.
            let heard: Vec<(Vec<Msg<Fp61>>, bool)> = mitms
                .into_iter()
                .map(|m| {
                    let (to_prover, to_verifier) = m.finish();
                    let sent = frames(&to_prover)
                        .expect("the verifier writes whole frames")
                        .into_iter()
                        .filter_map(|f| Msg::<Fp61>::from_bytes(f).ok())
                        .collect();
                    (sent, condemned(&to_verifier))
                })
                .collect();
            let err = match out {
                Ok(got) => {
                    assert_eq!(got, truth, "{mode}: flip {flip} forged an answer");
                    continue;
                }
                Err(err) => err,
            };
            assert_eq!(
                err.blamed_shard(),
                Some(1),
                "{mode}: flip {flip} blamed the wrong party: {err}"
            );
            let queried = heard[0]
                .0
                .iter()
                .any(|m| matches!(m, Msg::Query(_) | Msg::QueryOneShot { .. }));
            if !queried {
                continue;
            }
            for (s, (sent, condemned)) in heard.iter().enumerate() {
                let verdict = sent
                    .iter()
                    .any(|m| matches!(m, Msg::Reject(r) if *r == err));
                assert!(
                    verdict || *condemned,
                    "{mode}: flip {flip}: shard {s} never heard the verdict {err}"
                );
            }
        }
    }
    for h in handles {
        h.shutdown();
    }
}

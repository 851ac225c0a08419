//! Deterministic chaos: every injected fault class, aimed at every shard,
//! against both an unreplicated and a replicated fleet, with one-shot and
//! with interactive queries.
//!
//! The acceptance bar for the fault-tolerance layer, as a matrix: for each
//! fault in {conn-refused, stall, cut-mid-frame, reset-after-N-bytes,
//! slow-drip, byte-flip} × each guilty shard × {unreplicated, replicated},
//! the run must end in **either** the verified correct answer **or** an
//! exact typed rejection naming the guilty shard — never a panic, never a
//! silently wrong value, and an honest replica is never indicted. With a
//! replica backing the afflicted prover, *no* fault class may cost the
//! answer: transient faults fail over to the sibling, and a corrupted
//! proof is caught by cross-examination, which indicts the liar and
//! serves the honest replica's verified value.
//!
//! Interactive queries move a shard to a sibling only while the query
//! opens: once a challenge has left, the digest is spent, and a fault
//! costs that one query (a `Blame` of the afflicted shard), never the next.
//!
//! Every fault here is scheduled by a [`FaultPlan`] whose decisions depend
//! only on the transport's own frame/byte counters, so each cell of the
//! matrix replays identically — the proptest at the bottom pins that
//! byte-determinism down.

use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::cluster::{ClusterClient, ClusterF2Verifier, ReplicaFleet, ReplicaHealth};
use sip::core::channel::{FaultPlan, FaultTransport, InMemoryTransport, Transport};
use sip::core::error::Rejection;
use sip::field::{Fp61, PrimeField};
use sip::server::session::run_session;
use sip::streaming::{workloads, FrequencyVector, ShardPlan, Update};

const LOG_U: u32 = 8;
const SHARDS: u32 = 2;
const REPLICAS: u32 = 2;

/// Which driver a matrix cell queries through.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Mode {
    OneShot,
    Interactive,
}

/// One F₂ query in `mode`.
fn verify<M>(
    fleet: &mut sip::cluster::Fleet<M, Fp61, FaultTransport<InMemoryTransport>>,
    f2: ClusterF2Verifier<Fp61>,
    mode: Mode,
) -> Result<sip::cluster::FleetVerified<Fp61>, Rejection> {
    match mode {
        Mode::OneShot => fleet.verify_f2_oneshot(f2),
        Mode::Interactive => fleet.verify_f2(f2),
    }
}

/// One representative of every fault class, with parameters placed where
/// the session's traffic will actually trip them. The one-shot client
/// receives exactly two frames — the hello ack (`frames_in` 0) and the
/// proof (`frames_in` 1) — so recv-side faults are armed at 1 to land on
/// the proof, and the byte reset is sized to fire mid-ingest.
fn fault_classes() -> Vec<FaultPlan> {
    vec![
        FaultPlan::conn_refused(),
        FaultPlan::stall_after(1),
        FaultPlan::cut_after(1),
        FaultPlan::reset_after_bytes(160),
        FaultPlan::slow_drip(Duration::from_micros(200)),
        // Flips a byte of the one-shot proof frame: decodes fine, fails
        // the algebra — the matrix's only *soundness* fault.
        FaultPlan::flip_byte(1, 5),
    ]
}

fn test_stream() -> (Vec<Update>, Fp61) {
    let stream = workloads::uniform(200, 1 << LOG_U, 23, 5);
    let fv = FrequencyVector::from_stream(1 << LOG_U, &stream);
    (stream, Fp61::from_u128(fv.self_join_size() as u128))
}

/// Spawns `slots` in-memory prover sessions, wrapping slot `i`'s
/// client-side transport in `faults[i]`. The server half tolerates a
/// handshake that never completes (a chaos client may die first).
fn faulted_transports(
    faults: &[FaultPlan],
) -> (
    Vec<FaultTransport<InMemoryTransport>>,
    Vec<thread::JoinHandle<()>>,
) {
    let mut transports = Vec::new();
    let mut servers = Vec::new();
    for plan in faults {
        let (mut a, b) = InMemoryTransport::pair();
        servers.push(thread::spawn(move || {
            let Ok(hello) = sip::wire::server_handshake::<Fp61, _>(&mut a) else {
                return;
            };
            let _ = run_session::<Fp61, _>(a, hello.mode, hello.log_u);
        }));
        transports.push(FaultTransport::new(b, plan.clone()));
    }
    (transports, servers)
}

/// Unreplicated fleet, fault on `guilty`: the query either verifies to the
/// exact ground truth or dies with a typed rejection blaming `guilty`.
fn run_unreplicated(guilty: u32, fault: &FaultPlan, mode: Mode) {
    let tag = format!(
        "unreplicated, {mode:?}, shard {guilty}, fault {}",
        fault.fault_class()
    );
    let (stream, truth) = test_stream();
    let plan = ShardPlan::new(LOG_U, SHARDS);
    let faults: Vec<FaultPlan> = (0..SHARDS)
        .map(|s| {
            if s == guilty {
                fault.clone()
            } else {
                FaultPlan::none()
            }
        })
        .collect();
    let (transports, servers) = faulted_transports(&faults);
    let mut rng = StdRng::seed_from_u64(guilty as u64 + 100);
    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    for &up in &stream {
        f2.update(up);
    }
    match ClusterClient::from_transports(transports, LOG_U) {
        Err(e) => assert_eq!(e.blamed_shard(), Some(guilty), "{tag}: {e}"),
        Ok(mut client) => {
            client.send_stream(&stream);
            match client.end_stream() {
                Err(e) => assert_eq!(e.blamed_shard(), Some(guilty), "{tag}: {e}"),
                Ok(()) => match verify(&mut client, f2, mode) {
                    Ok(got) => assert_eq!(got.value, truth, "{tag}"),
                    Err(e) => assert_eq!(e.blamed_shard(), Some(guilty), "{tag}: {e}"),
                },
            }
        }
    }
    for s in servers {
        let _ = s.join();
    }
}

/// Replicated fleet, fault on replica 1 of `guilty` — the replica that
/// per-query rotation samples *first*, so the fault sits on the serving
/// path. With a sibling covering, no fault class may cost a one-shot
/// answer: transient faults fail over, and the byte-flipped proof is
/// caught by cross-examination, which indicts the liar and serves the
/// honest replica's verified value. Interactively, every transient fault
/// here strikes while the query opens, before any challenge leaves, so the
/// sibling answers with the same digest; the flipped opening claim is a
/// lie, blamed on its shard. Honest replicas are never indicted.
fn run_replicated(guilty: u32, fault: &FaultPlan, mode: Mode) {
    let tag = format!(
        "replicated, {mode:?}, shard {guilty}, fault {}",
        fault.fault_class()
    );
    let (stream, truth) = test_stream();
    let plan = ShardPlan::new(LOG_U, SHARDS);
    let slots = (SHARDS * REPLICAS) as usize;
    let mut faults = vec![FaultPlan::none(); slots];
    let afflicted = 1u32;
    faults[(guilty * REPLICAS + afflicted) as usize] = fault.clone();
    let (transports, servers) = faulted_transports(&faults);
    let mut rng = StdRng::seed_from_u64(guilty as u64 + 200);
    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    for &up in &stream {
        f2.update(up);
    }
    let mut fleet = ReplicaFleet::from_transports(transports, LOG_U, REPLICAS)
        .unwrap_or_else(|e| panic!("{tag}: construction must survive: {e}"));
    fleet.send_stream(&stream);
    fleet.end_stream().unwrap_or_else(|e| {
        panic!("{tag}: ingest must survive on the sibling: {e}");
    });
    let lie = fault.fault_class() == "flip_byte";
    if mode == Mode::Interactive && lie {
        match fleet.verify_f2(f2) {
            Ok(got) => assert_eq!(got.value, truth, "{tag}"),
            Err(e) => assert_eq!(e.blamed_shard(), Some(guilty), "{tag}: {e}"),
        }
        assert!(fleet.indictments().is_empty(), "{tag}");
        // A replica whose reply was undecodable takes no `Bye`; dropping
        // the fleet closes its connection so its server ends.
        fleet.bye();
        drop(fleet);
        for s in servers {
            let _ = s.join();
        }
        return;
    }
    let got =
        verify(&mut fleet, f2, mode).unwrap_or_else(|e| panic!("{tag}: sibling must cover: {e}"));
    assert_eq!(got.value, truth, "{tag}");
    if lie {
        // The corrupted proof decodes fine but fails the algebra; the
        // sibling's verifying proof convicts the primary by divergence.
        assert!(
            matches!(
                fleet.health(guilty, afflicted),
                ReplicaHealth::Indicted(Rejection::ReplicaDivergence { .. })
            ),
            "{tag}: byte-flipping replica must be indicted, got {:?}",
            fleet.health(guilty, afflicted)
        );
        assert_eq!(fleet.indictments().len(), 1, "{tag}");
        assert_eq!(
            got.served_by[guilty as usize], 0,
            "{tag}: the honest sibling serves the answer"
        );
    }
    // Whatever happened, no honest replica hangs for it.
    for s in 0..SHARDS {
        for r in 0..REPLICAS {
            if (s, r) == (guilty, afflicted) {
                continue;
            }
            assert!(
                !matches!(fleet.health(s, r), ReplicaHealth::Indicted(_)),
                "{tag}: honest replica {s}/{r} indicted"
            );
        }
    }
    fleet.bye();
    for s in servers {
        let _ = s.join();
    }
}

#[test]
fn chaos_matrix_unreplicated() {
    for guilty in 0..SHARDS {
        for fault in fault_classes() {
            run_unreplicated(guilty, &fault, Mode::OneShot);
        }
    }
}

#[test]
fn chaos_matrix_replicated() {
    for guilty in 0..SHARDS {
        for fault in fault_classes() {
            run_replicated(guilty, &fault, Mode::OneShot);
        }
    }
}

/// The interactive column of the unreplicated matrix. The one-shot fault
/// parameters land on the query's opening claim here (the client's second
/// inbound frame).
#[test]
fn chaos_matrix_unreplicated_interactive() {
    for guilty in 0..SHARDS {
        for fault in fault_classes() {
            run_unreplicated(guilty, &fault, Mode::Interactive);
        }
    }
}

/// The interactive column of the replicated matrix.
#[test]
fn chaos_matrix_replicated_interactive() {
    for guilty in 0..SHARDS {
        for fault in fault_classes() {
            run_replicated(guilty, &fault, Mode::Interactive);
        }
    }
}

/// A transient fault after the first challenge left costs that one query.
/// Replica 1 of `guilty` — the one query 1 samples — is cut on its
/// round-2 polynomial (inbound frames: hello ack, claim, `g_1`, `g_2`),
/// after `r_1` went out. The digest is spent, so the query ends in a
/// `Blame` of the shard instead of replaying the conversation on the
/// sibling, and the sibling hears not one frame of it. The next query,
/// with a fresh digest, verifies on the sibling.
#[test]
fn fault_after_the_first_challenge_costs_one_query() {
    let (stream, truth) = test_stream();
    let plan = ShardPlan::new(LOG_U, SHARDS);
    for guilty in 0..SHARDS {
        let tag = format!("shard {guilty}");
        let mut faults = vec![FaultPlan::none(); (SHARDS * REPLICAS) as usize];
        faults[(guilty * REPLICAS + 1) as usize] = FaultPlan::cut_after(3);
        let (transports, servers) = faulted_transports(&faults);
        let mut rng = StdRng::seed_from_u64(300 + guilty as u64);
        let mut spent = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        let mut fresh = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        for &up in &stream {
            spent.update(up);
            fresh.update(up);
        }
        let mut fleet = ReplicaFleet::from_transports(transports, LOG_U, REPLICAS).unwrap();
        fleet.send_stream(&stream);
        fleet.end_stream().unwrap();
        let sibling = (guilty * REPLICAS) as usize;
        let before = fleet.stats()[sibling];
        let err = fleet.verify_f2(spent).unwrap_err();
        assert_eq!(err.blamed_shard(), Some(guilty), "{tag}: {err}");
        assert!(err.is_transient(), "{tag}: {err}");
        assert!(
            matches!(fleet.health(guilty, 1), ReplicaHealth::Faulted(_)),
            "{tag}"
        );
        assert_eq!(
            fleet.stats()[sibling],
            before,
            "{tag}: the sibling heard the spent digest's query"
        );
        let got = fleet.verify_f2(fresh).unwrap();
        assert_eq!(got.value, truth, "{tag}");
        assert_eq!(got.served_by[guilty as usize], 0, "{tag}");
        assert!(fleet.indictments().is_empty(), "{tag}");
        fleet.bye();
        for s in servers {
            let _ = s.join();
        }
    }
}

/// Seeded plans widen the matrix beyond the hand-placed parameters: every
/// seed names a complete fault interleaving, and whatever it does, the
/// outcome stays in the allowed set (correct answer or typed blame of the
/// afflicted shard — the seeded fault may also simply never fire).
#[test]
fn chaos_matrix_seeded_sweep() {
    for seed in 0..24u64 {
        let fault = FaultPlan::seeded(seed);
        let guilty = (seed % SHARDS as u64) as u32;
        run_unreplicated(guilty, &fault, Mode::OneShot);
    }
}

/// A SIGKILLed prover in miniature, in-memory: replica 0 of shard 0 dies
/// mid-conversation (cut on its proof frame). Query 1's rotation samples
/// replica 1 everywhere, so it sails through; query 2 rotates onto the
/// cut replica, discovers the dead socket mid-fetch, and fails over to
/// the sibling — both queries verify. (The real-process SIGKILL + durable
/// readmission version of this lives in `crates/server/tests/`.)
#[test]
fn killed_replica_fails_over_then_readmits() {
    let (stream, truth) = test_stream();
    let plan = ShardPlan::new(LOG_U, SHARDS);
    let slots = (SHARDS * REPLICAS) as usize;
    let mut faults = vec![FaultPlan::none(); slots];
    faults[0] = FaultPlan::cut_after(1);
    let (transports, servers) = faulted_transports(&faults);
    let mut rng = StdRng::seed_from_u64(77);
    let mut f2a = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    let mut f2b = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    for &up in &stream {
        f2a.update(up);
        f2b.update(up);
    }
    let mut fleet = ReplicaFleet::from_transports(transports, LOG_U, REPLICAS).unwrap();
    fleet.send_stream(&stream);
    fleet.end_stream().unwrap();
    let got = fleet.verify_f2_oneshot(f2a).unwrap();
    assert_eq!(got.value, truth);
    assert_eq!(got.served_by[0], 1, "query 1 samples the healthy replica");
    let got = fleet.verify_f2_oneshot(f2b).unwrap();
    assert_eq!(got.value, truth);
    assert_eq!(
        got.served_by[0], 1,
        "query 2 failed over off the cut replica"
    );
    assert!(matches!(fleet.health(0, 0), ReplicaHealth::Faulted(_)));
    fleet.bye();
    for s in servers {
        let _ = s.join();
    }
}

proptest! {
    /// FaultPlan byte-determinism: one seed names one complete client-visible
    /// interleaving. Two scripted conversations through transports driven by
    /// the same seeded plan see byte-identical frames, identical errors in
    /// the identical order, and an identical injection log.
    #[test]
    fn seeded_fault_plans_replay_byte_identically(seed in any::<u64>()) {
        let run = |seed: u64| -> Vec<String> {
            let plan = FaultPlan::seeded(seed);
            let (mut far, near) = InMemoryTransport::pair();
            // Pre-fill the inbound side so recv never blocks on the peer.
            for i in 0..8usize {
                far.send_frame(&vec![i as u8; 5 + i]).unwrap();
            }
            let mut ft = FaultTransport::new(near, plan);
            let mut log = Vec::new();
            for i in 0..8usize {
                log.push(format!("send:{:?}", ft.send_frame(&vec![0xAA; 7 + i])));
                match ft.recv_frame() {
                    Ok(bytes) => log.push(format!("recv-ok:{bytes:02x?}")),
                    Err(e) => log.push(format!("recv-err:{e:?}")),
                }
            }
            log.extend(ft.injected().iter().cloned());
            log
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

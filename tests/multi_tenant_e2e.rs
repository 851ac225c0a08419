//! Multi-tenant serving over real TCP: one ingest, many verifiers.
//!
//! The paper's economics — one heavily-resourced prover amortised over many
//! weak verifiers — require the server to ingest a dataset once and serve
//! every verifier session from the same frozen snapshot. These tests drive
//! that end to end: a data owner uploads and publishes; concurrent
//! verifier sessions attach with their own independent randomness; every
//! one must agree with ground truth (acceptance gate: 32 concurrent
//! sessions).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::sumcheck::f2::F2Verifier;
use sip::core::sumcheck::range_sum::RangeSumVerifier;
use sip::field::{Fp127, Fp61, PrimeField};
use sip::kvstore::{Client, QueryBudget};
use sip::server::client::{RawClient, RemoteStore};
use sip::server::{spawn, ServerConfig};
use sip::streaming::{workloads, FrequencyVector};

#[test]
fn thirty_two_concurrent_sessions_one_published_dataset() {
    let log_u = 10;
    let u = 1u64 << log_u;
    let stream = workloads::paper_f2(u, 42);
    let fv = FrequencyVector::from_stream(u, &stream);
    let f2_truth = Fp61::from_u128(fv.self_join_size() as u128);

    let server = spawn::<Fp61, _>(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // The data owner ingests once and publishes.
    let mut owner: RawClient<Fp61, _> = RawClient::connect(addr, log_u).unwrap();
    owner.send_stream(&stream);
    owner.publish("shared").unwrap();

    // 32 verifiers attach concurrently, each with its own secret point,
    // each running a different mix of queries.
    let handles: Vec<_> = (0..32u64)
        .map(|i| {
            let stream = stream.clone();
            std::thread::spawn(move || {
                let fv = FrequencyVector::from_stream(1 << log_u, &stream);
                let mut client: RawClient<Fp61, _> = RawClient::connect(addr, log_u).unwrap();
                client.attach("shared").unwrap();
                let mut rng = StdRng::seed_from_u64(1000 + i);
                if i % 2 == 0 {
                    let mut digest = F2Verifier::<Fp61>::new(log_u, &mut rng);
                    digest.update_all(&stream);
                    let got = client.verify_f2(digest).unwrap();
                    assert_eq!(
                        got.value,
                        Fp61::from_u128(fv.self_join_size() as u128),
                        "session {i}"
                    );
                } else {
                    let mut digest = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
                    digest.update_all(&stream);
                    let (q_l, q_r) = (i * 13 % (u / 2), u / 2 + i * 7 % (u / 2));
                    let got = client.verify_range_sum(digest, q_l, q_r).unwrap();
                    assert_eq!(
                        got.value,
                        Fp61::from_i64(fv.range_sum(q_l, q_r) as i64),
                        "session {i} range [{q_l}, {q_r}]"
                    );
                }
                client.bye().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The owner's session still queries the frozen snapshot too.
    let mut rng = StdRng::seed_from_u64(7);
    let mut digest = F2Verifier::<Fp61>::new(log_u, &mut rng);
    digest.update_all(&stream);
    let got = owner.verify_f2(digest).unwrap();
    assert_eq!(got.value, f2_truth);
    owner.bye().unwrap();
    server.shutdown();
}

#[test]
fn attached_verifier_rejects_a_wrong_dataset() {
    // A verifier whose digests observed stream A but who attaches to a
    // published dataset holding stream B must reject — multi-tenant
    // serving moves no trust to the registry.
    let log_u = 8;
    let stream_a = workloads::paper_f2(1 << log_u, 1);
    let mut stream_b = stream_a.clone();
    stream_b[5].delta += 1;

    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut owner: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    owner.send_stream(&stream_b);
    owner.publish("b").unwrap();

    let mut client: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    client.attach("b").unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut digest = F2Verifier::<Fp61>::new(log_u, &mut rng);
    digest.update_all(&stream_a);
    assert!(
        client.verify_f2(digest).is_err(),
        "digests for stream A must not accept dataset B"
    );
    owner.bye().unwrap();
    server.shutdown();
}

#[test]
fn kv_multi_tenant_observe_then_attach() {
    // The kv-store flavour: the owner puts (digests + upload) and
    // publishes; other verifiers observe the same put stream (digests
    // only), attach, and run the full verified query surface.
    let log_u = 8;
    let pairs: Vec<(u64, u64)> = vec![(3, 10), (17, 0), (40, 999), (41, 7), (200, 55)];

    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(1);
    let mut owner_client = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
    let mut owner_store: RemoteStore<Fp61, _> = RemoteStore::connect(addr, log_u).unwrap();
    for &(k, v) in &pairs {
        owner_client.put(k, v, &mut owner_store);
    }
    owner_store.publish("kv").unwrap();

    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            let pairs = pairs.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + i);
                let mut client = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
                for &(k, v) in &pairs {
                    client.observe(k, v);
                }
                let store: RemoteStore<Fp61, _> = RemoteStore::connect(addr, log_u).unwrap();
                store.attach("kv").unwrap();
                match i % 3 {
                    0 => {
                        assert_eq!(
                            client.self_join_size(&store).unwrap().value,
                            100 + 999 * 999 + 49 + 55 * 55
                        );
                    }
                    1 => {
                        assert_eq!(
                            client.range_sum(0, 255, &store).unwrap().value,
                            10 + 999 + 7 + 55
                        );
                    }
                    _ => {
                        assert_eq!(client.get(40, &store).unwrap().value, Some(999));
                        assert_eq!(client.predecessor(39, &store).unwrap().value, Some(17));
                        assert_eq!(
                            client.range(10, 100, &store).unwrap().value,
                            vec![(17, 0), (40, 999), (41, 7)]
                        );
                    }
                }
                store.bye().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    owner_store.bye().unwrap();
    server.shutdown();
}

#[test]
fn publish_attach_works_over_fp127() {
    // The high-soundness field takes the identical multi-tenant path.
    let log_u = 8;
    let stream = workloads::paper_f2(1 << log_u, 9);
    let truth = FrequencyVector::from_stream(1 << log_u, &stream).self_join_size();

    let server = spawn::<Fp127, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut owner: RawClient<Fp127, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    owner.send_stream(&stream);
    owner.publish("wide").unwrap();

    let mut client: RawClient<Fp127, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    client.attach("wide").unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let mut digest = F2Verifier::<Fp127>::new(log_u, &mut rng);
    digest.update_all(&stream);
    let got = client.verify_f2(digest).unwrap();
    assert_eq!(got.value, Fp127::from_u128(truth as u128));
    client.bye().unwrap();
    owner.bye().unwrap();
    server.shutdown();
}

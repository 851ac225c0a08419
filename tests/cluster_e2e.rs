//! Honest sharded-fleet sessions over real TCP: an S = 4 cluster must
//! answer F₂, RANGE-SUM, SUB-VECTOR and every kv-store query *identically*
//! to S = 1 on the same stream, with aggregated per-shard cost accounting.
//!
//! Each prover runs as its own pinned-shard TCP server (`sip-prover`'s
//! configuration path), so the test also covers server-side range
//! enforcement and fleet handshakes end to end.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::cluster::{
    boxed_kv_fleet, connect_kv_fleet, spawn_local_fleet, spawn_replica_fleet, ClusterClient,
    ClusterF2Verifier, ClusterRangeSumVerifier, ClusterReportVerifier, Fleet, ReplicaFleet,
};
use sip::core::channel::{ClusterCostReport, FramedTcpTransport, LatencyTransport, TransportStats};
use sip::field::{Fp127, Fp61, PrimeField};
use sip::kvstore::{QueryBudget, ShardedClient};

/// The equivalence test runs the whole query surface against one store,
/// which needs more digests than the default provisioning.
const BIG_BUDGET: QueryBudget = QueryBudget {
    reporting: 64,
    aggregate: 16,
    heavy: 4,
};
use sip::server::ServerHandle;
use sip::streaming::{workloads, FrequencyVector, ShardPlan};

/// Spawns a fleet of `shards` pinned single-shard TCP provers.
fn spawn_fleet(shards: u32, log_u: u32) -> (Vec<ServerHandle>, Vec<std::net::SocketAddr>) {
    spawn_local_fleet::<Fp61>(shards, log_u).expect("bind shard servers")
}

/// Runs F2 + RANGE-SUM + report over a fleet of size `shards`, returning
/// `(f2, range_sum, report_entries, per_shard_reports_total_words)`.
fn raw_cluster_run(
    shards: u32,
    log_u: u32,
    stream: &[sip::streaming::Update],
    seed: u64,
) -> (Fp61, Fp61, Vec<(u64, Fp61)>, Vec<usize>) {
    let plan = ShardPlan::new(log_u, shards);
    let (handles, addrs) = spawn_fleet(shards, log_u);
    let mut client: ClusterClient<Fp61, _> = ClusterClient::connect(&addrs, log_u).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
    let mut rep = ClusterReportVerifier::<Fp61>::new(plan, &mut rng);
    for &up in stream {
        f2.update(up);
        rs.update(up);
        rep.update(up);
        client.send_update(up);
    }
    client.end_stream().unwrap();

    let u = 1u64 << log_u;
    let f2_got = client.verify_f2(f2).unwrap();
    let rs_got = client.verify_range_sum(rs, u / 8, u / 2).unwrap();
    let rep_got = client.verify_report(rep, u / 8, u / 2).unwrap();

    // Aggregation sanity: totals are the sums of the per-shard books, and
    // every shard was billed for the lockstep rounds.
    for got in [&f2_got.report, &rs_got.report] {
        assert_eq!(got.shards(), shards as usize);
        let total = got.total();
        assert_eq!(
            total.p_to_v_words,
            got.per_shard.iter().map(|r| r.p_to_v_words).sum::<usize>()
        );
        for (s, r) in got.per_shard.iter().enumerate() {
            assert_eq!(r.rounds, log_u as usize, "shard {s} rounds");
            assert_eq!(r.p_to_v_words, 3 * log_u as usize + 1, "shard {s} words");
        }
    }

    // The provers' own advisory accounting roughly mirrors ours.
    let served = client.bye().unwrap();
    assert_eq!(served.len(), shards as usize);
    for (s, r) in served.iter().enumerate() {
        assert!(r.p_to_v_words > 0, "shard {s} served nothing");
    }
    for h in handles {
        h.shutdown();
    }
    (
        f2_got.value,
        rs_got.value,
        rep_got.value,
        f2_got
            .report
            .per_shard
            .iter()
            .map(|r| r.total_words())
            .collect(),
    )
}

#[test]
fn s4_cluster_answers_identically_to_s1_over_tcp() {
    let log_u = 9;
    let stream = workloads::uniform(600, 1 << log_u, 40, 42);
    let fv = FrequencyVector::from_stream(1 << log_u, &stream);
    let u = 1u64 << log_u;

    let (f2_1, rs_1, rep_1, words_1) = raw_cluster_run(1, log_u, &stream, 7);
    let (f2_4, rs_4, rep_4, words_4) = raw_cluster_run(4, log_u, &stream, 8);

    // Identical answers, both equal to ground truth.
    assert_eq!(f2_1, f2_4);
    assert_eq!(f2_4, Fp61::from_u128(fv.self_join_size() as u128));
    assert_eq!(rs_1, rs_4);
    assert_eq!(rs_4, Fp61::from_i64(fv.range_sum(u / 8, u / 2) as i64));
    assert_eq!(rep_1, rep_4);
    let expect: Vec<(u64, Fp61)> = fv
        .range_report(u / 8, u / 2)
        .into_iter()
        .map(|(i, f)| (i, Fp61::from_i64(f)))
        .collect();
    assert_eq!(rep_4, expect);

    // Scaling shape: each of the 4 shards pays what the single prover paid
    // (the lockstep protocol runs d rounds everywhere).
    assert_eq!(words_1.len(), 1);
    assert_eq!(words_4.len(), 4);
    for w in &words_4 {
        assert_eq!(*w, words_1[0]);
    }
}

#[test]
fn kv_fleet_over_tcp_matches_single_store() {
    let log_u = 8;
    let shards = 4u32;
    let pairs = [
        (3u64, 10u64),
        (17, 0),
        (40, 999),
        (77, 5),
        (130, 7),
        (200, 55),
        (255, 80),
    ];

    // S = 1 baseline over TCP.
    let (single_handles, single_addrs) = spawn_fleet(1, log_u);
    let single_stores = connect_kv_fleet::<Fp61, _>(&single_addrs, log_u).unwrap();
    let single_servers = boxed_kv_fleet(&single_stores);
    let mut rng = StdRng::seed_from_u64(1);
    let mut single = ShardedClient::<Fp61>::new(log_u, 1, BIG_BUDGET, &mut rng).unwrap();
    let mut single_servers = single_servers;
    for &(k, v) in &pairs {
        single.put(k, v, &mut single_servers).unwrap();
    }

    // S = 4 fleet over TCP.
    let (handles, addrs) = spawn_fleet(shards, log_u);
    let stores = connect_kv_fleet::<Fp61, _>(&addrs, log_u).unwrap();
    let mut servers = boxed_kv_fleet(&stores);
    let mut rng = StdRng::seed_from_u64(2);
    let mut client = ShardedClient::<Fp61>::new(log_u, shards, BIG_BUDGET, &mut rng).unwrap();
    for &(k, v) in &pairs {
        client.put(k, v, &mut servers).unwrap();
    }

    // Every query family answers identically across fleet sizes.
    for k in [3u64, 18, 40, 255] {
        assert_eq!(
            client.get(k, &servers).unwrap().value,
            single.get(k, &single_servers).unwrap().value,
            "get({k})"
        );
    }
    let range4 = client.range(10, 210, &servers).unwrap();
    let range1 = single.range(10, 210, &single_servers).unwrap();
    assert_eq!(range4.value, range1.value);
    assert_eq!(
        range4.value,
        vec![(17, 0), (40, 999), (77, 5), (130, 7), (200, 55)]
    );
    assert_eq!(
        range4.report.total().p_to_v_words,
        range4
            .report
            .per_shard
            .iter()
            .map(|r| r.p_to_v_words)
            .sum::<usize>(),
        "per-shard books must add up to the fleet total"
    );

    let sum4 = client.range_sum(0, 255, &servers).unwrap();
    let sum1 = single.range_sum(0, 255, &single_servers).unwrap();
    assert_eq!(sum4.value, sum1.value);
    assert_eq!(sum4.value, 10 + 999 + 5 + 7 + 55 + 80);

    assert_eq!(
        client.self_join_size(&servers).unwrap().value,
        single.self_join_size(&single_servers).unwrap().value
    );
    for q in [0u64, 39, 64, 128, 201, 255] {
        assert_eq!(
            client.predecessor(q, &servers).unwrap().value,
            single.predecessor(q, &single_servers).unwrap().value,
            "predecessor({q})"
        );
        assert_eq!(
            client.successor(q, &servers).unwrap().value,
            single.successor(q, &single_servers).unwrap().value,
            "successor({q})"
        );
    }
    assert_eq!(
        client.heavy_keys(56, &servers).unwrap().value,
        single.heavy_keys(56, &single_servers).unwrap().value
    );

    // Advisory prover-side accounting from every shard that served work.
    for store in &stores {
        let served = store.bye().unwrap();
        assert!(served.p_to_v_words > 0 || served.rounds > 0);
    }
    for h in handles {
        h.shutdown();
    }
    for store in &single_stores {
        store.bye().unwrap();
    }
    for h in single_handles {
        h.shutdown();
    }
}

/// The fleet happy path is field-generic; run it over the high-soundness
/// field too (the fleet handshake path was previously Fp61-only in e2e).
fn fleet_happy_path_generic<F: PrimeField>(shards: u32, seed: u64) {
    let log_u = 8;
    let u = 1u64 << log_u;
    let stream = workloads::uniform(300, u, 25, 17);
    let fv = FrequencyVector::from_stream(u, &stream);
    let plan = ShardPlan::new(log_u, shards);

    let (handles, addrs) = spawn_local_fleet::<F>(shards, log_u).expect("bind shard servers");
    let mut client: ClusterClient<F, _> = ClusterClient::connect(&addrs, log_u).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f2 = ClusterF2Verifier::<F>::new(plan, &mut rng);
    let mut rs = ClusterRangeSumVerifier::<F>::new(plan, &mut rng);
    for &up in &stream {
        f2.update(up);
        rs.update(up);
        client.send_update(up);
    }
    client.end_stream().unwrap();
    let f2_got = client.verify_f2(f2).unwrap();
    assert_eq!(f2_got.value, F::from_u128(fv.self_join_size() as u128));
    let rs_got = client.verify_range_sum(rs, u / 8, u / 2).unwrap();
    assert_eq!(rs_got.value, F::from_i64(fv.range_sum(u / 8, u / 2) as i64));
    client.bye().unwrap();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn s4_cluster_happy_path_over_fp127() {
    fleet_happy_path_generic::<Fp127>(4, 21);
}

#[test]
fn s2_cluster_happy_path_over_fp127() {
    fleet_happy_path_generic::<Fp127>(2, 22);
}

#[test]
fn fleet_wire_bytes_within_2x_of_cost_report() {
    // The ≤2× wire-overhead budget holds per shard in fleet mode too.
    let log_u = 10;
    let shards = 4u32;
    let plan = ShardPlan::new(log_u, shards);
    let stream = workloads::paper_f2(1 << log_u, 5);
    let (handles, addrs) = spawn_fleet(shards, log_u);
    let mut client: ClusterClient<Fp61, _> = ClusterClient::connect(&addrs, log_u).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    for &up in &stream {
        f2.update(up);
        client.send_update(up);
    }
    client.end_stream().unwrap();
    let before = client.stats();
    let verified = client.verify_f2(f2).unwrap();
    let after = client.stats();
    for s in 0..shards as usize {
        let wire = (after[s].bytes_sent - before[s].bytes_sent)
            + (after[s].bytes_received - before[s].bytes_received);
        let claimed = verified.report.per_shard[s].comm_bytes(61);
        assert!(
            wire <= 2 * claimed,
            "shard {s}: wire {wire} B > 2 × {claimed} B"
        );
        assert!(wire >= claimed, "shard {s}: framing cannot shrink data");
    }
    client.bye().unwrap();
    for h in handles {
        h.shutdown();
    }
}

/// A fleet receive waits for the slowest shard, not for every shard in
/// turn. Each of 4 shard connections delays every received frame by 20 ms,
/// and a query receives `log u + 1` frames per shard (the claim, then one
/// polynomial per round), so draining the shards together costs about
/// `(log u + 1) × RTT` = 140 ms and one after the other about 560 ms. The
/// delayed fleet must answer and book exactly what an undelayed one does,
/// in under twice the overlapped time.
#[test]
fn interactive_rounds_overlap_shard_waits() {
    const SHARDS: u32 = 4;
    const LOG_U: u32 = 6;
    const RTT: Duration = Duration::from_millis(20);
    let u = 1u64 << LOG_U;
    let stream = workloads::uniform(200, u, 20, 11);
    let plan = ShardPlan::new(LOG_U, SHARDS);
    let run = |rtt: Duration| {
        let (handles, addrs) = spawn_fleet(SHARDS, LOG_U);
        let transports = addrs
            .iter()
            .map(|addr| {
                let tcp = FramedTcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
                LatencyTransport::fixed(tcp, rtt)
            })
            .collect();
        let mut client: ClusterClient<Fp61, _> =
            ClusterClient::from_transports(transports, LOG_U).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
        for &up in &stream {
            f2.update(up);
            rs.update(up);
        }
        client.send_stream(&stream);
        client.end_stream().unwrap();
        let start = Instant::now();
        let f2_got = client.verify_f2(f2).unwrap();
        let f2_wall = start.elapsed();
        let start = Instant::now();
        let rs_got = client.verify_range_sum(rs, u / 8, u / 2).unwrap();
        let rs_wall = start.elapsed();
        client.bye().unwrap();
        for h in handles {
            h.shutdown();
        }
        ([f2_got, rs_got], [f2_wall, rs_wall])
    };
    let (undelayed, _) = run(Duration::ZERO);
    let (delayed, walls) = run(RTT);
    assert_eq!(delayed, undelayed);
    let frames = LOG_U + 1;
    for (query, wall) in ["F2", "RANGE-SUM"].into_iter().zip(walls) {
        assert!(
            wall >= RTT * frames,
            "{query}: {wall:?} cannot beat the delay"
        );
        assert!(
            wall < RTT * 2 * frames,
            "{query}: {wall:?} is not under 2 × (log u + 1) × RTT; the shard waits did not overlap"
        );
    }
}

/// One answer of [`four_queries`]: the value, the books, and every shard's
/// transport counters after it.
type Answer = (String, ClusterCostReport, Vec<TransportStats>);

/// Ingests `stream`, then asks interactive F₂, RANGE-SUM, one-shot F₂ and
/// a report, from digests drawn off one fixed seed.
fn four_queries<M>(
    fleet: &mut Fleet<M, Fp61, FramedTcpTransport>,
    stream: &[sip::streaming::Update],
) -> Vec<Answer> {
    let plan = *fleet.plan();
    let u = 1u64 << plan.log_u();
    let mut rng = StdRng::seed_from_u64(33);
    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
    let mut oneshot = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    let mut rep = ClusterReportVerifier::<Fp61>::new(plan, &mut rng);
    for &up in stream {
        f2.update(up);
        rs.update(up);
        oneshot.update(up);
        rep.update(up);
    }
    fleet.send_stream(stream);
    fleet.end_stream().unwrap();
    let mut answers = Vec::new();
    let got = fleet.verify_f2(f2).unwrap();
    answers.push((format!("{:?}", got.value), got.report, fleet.stats()));
    let got = fleet.verify_range_sum(rs, u / 8, u / 2).unwrap();
    answers.push((format!("{:?}", got.value), got.report, fleet.stats()));
    let got = fleet.verify_f2_oneshot(oneshot).unwrap();
    answers.push((format!("{:?}", got.value), got.report, fleet.stats()));
    let got = fleet.verify_report(rep, u / 8, u / 2).unwrap();
    answers.push((format!("{:?}", got.value), got.report, fleet.stats()));
    answers
}

/// At one replica a `ReplicaFleet` is the plain cluster: a 2-shard fleet
/// reached through the replica constructors answers interactive F₂,
/// RANGE-SUM, one-shot F₂ and the report with the value, the books and,
/// shard by shard, the frames and bytes that `ClusterClient` does.
#[test]
fn one_replica_fleet_matches_the_cluster_client() {
    const SHARDS: u32 = 2;
    let log_u = 8;
    let stream = workloads::uniform(300, 1 << log_u, 25, 31);

    let (handles, addrs) = spawn_fleet(SHARDS, log_u);
    let mut cluster: ClusterClient<Fp61, _> = ClusterClient::connect(&addrs, log_u).unwrap();
    let expect = four_queries(&mut cluster, &stream);
    cluster.bye().unwrap();
    for h in handles {
        h.shutdown();
    }

    let (handles, addrs) = spawn_replica_fleet::<Fp61>(SHARDS, 1, log_u).unwrap();
    let mut fleet: ReplicaFleet<Fp61, _> = ReplicaFleet::connect(&addrs, log_u, 1).unwrap();
    let got = four_queries(&mut fleet, &stream);
    fleet.bye();
    for h in handles {
        h.shutdown();
    }
    assert_eq!(got, expect);
}

//! Which start a served proof takes, read off the prover's own counters.
//!
//! Every sum-check query starts from the head of the vector it reads: a
//! published dataset's raw head is built at publish, every other head —
//! a private store's, a thawed checkpoint's, a kv store's encoded and
//! presence vectors' — at its vector's first query, and a write to a
//! private store drops them all. The head answers the first `k = 4` rounds
//! without a pass over the data, so at `log_u = 16` such a proof costs 12
//! engine passes over 8 190 blocks where a sweep costs 16 passes. A head
//! is built at a query only where it packs the vector, so a query over an
//! array too full to pack sweeps, every time, unless a publish built its
//! head. A publish keeps the heads the private store's queries built.
//! `sip_server_sumcheck_provers_total{query, start}` books which start a
//! query got, `sip_registry_f2_head_builds_total` how many heads were
//! built, and a publish that is refused builds none.
//!
//! The one pass a head-started proof does make — the `k`-variable bind —
//! reads the vector's packed nonzero cells where the vector is mostly zero
//! and its array otherwise; `sip_fold_binds_total{source}` books which, and
//! neither the passes and blocks counted nor the answers depend on it.
//!
//! The counters are process-global, so the tests of this file take turns.

use std::path::PathBuf;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::sumcheck::f2::F2Verifier;
use sip::core::sumcheck::range_sum::RangeSumVerifier;
use sip::core::FramedTcpTransport;
use sip::field::{Fp61, PrimeField};
use sip::kvstore::{Client, QueryBudget};
use sip::obs;
use sip::server::client::{RawClient, RemoteStore};
use sip::server::registry::{Dataset, DatasetData, DatasetRegistry};
use sip::server::{spawn, ServerConfig};
use sip::streaming::{workloads, FrequencyVector, Update};

static COUNTERS: Mutex<()> = Mutex::new(());

fn provers_built(query: &str, start: &str) -> u64 {
    let labels = [("query", query), ("start", start)];
    obs::counter_with("sip_server_sumcheck_provers_total", &labels).get()
}

/// `(sip_fold_messages_total, sip_fold_blocks_total)`.
fn engine_passes() -> (u64, u64) {
    (
        obs::counter("sip_fold_messages_total").get(),
        obs::counter("sip_fold_blocks_total").get(),
    )
}

fn head_builds() -> u64 {
    obs::counter("sip_registry_f2_head_builds_total").get()
}

/// What one query added: engine passes, blocks swept, and range-sum
/// provers built from the head and by sweep.
fn cost_of(query: impl FnOnce()) -> (u64, u64, u64, u64) {
    let (messages, blocks) = engine_passes();
    let (head, sweep) = (
        provers_built("range-sum", "head"),
        provers_built("range-sum", "sweep"),
    );
    query();
    (
        engine_passes().0 - messages,
        engine_passes().1 - blocks,
        provers_built("range-sum", "head") - head,
        provers_built("range-sum", "sweep") - sweep,
    )
}

#[test]
fn range_sum_on_a_published_raw_dataset_starts_from_its_head() {
    let _turn = COUNTERS.lock().unwrap_or_else(|p| p.into_inner());
    let log_u = 16u32;
    let u = 1u64 << log_u;
    let stream = workloads::with_deletions(20_000, u, 0.2, 5);
    let (q_l, q_r) = (u / 5 + 3, u / 5 * 4);
    let truth = Fp61::from_i64(FrequencyVector::from_stream(u, &stream).range_sum(q_l, q_r) as i64);
    let mut rng = StdRng::seed_from_u64(6);
    let mut digest = || {
        let mut v = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
        v.update_batch(&stream);
        v
    };
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sip-head-start-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    // The head-started F₂ figures: the pass that binds r_1..r_4 over 2^12
    // blocks of 16 cells, then the folds of 2^11, …, 2 pairs.
    let head_started = (12, 8_190, 1, 0);

    let server = spawn::<Fp61, _>("127.0.0.1:0", config.clone()).unwrap();
    let mut owner: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    owner.send_stream(&stream);
    owner.end_stream().unwrap();

    // The private store, before publish: its first query builds the head
    // (the store went dense on volume, but it is packed) and starts from it.
    let builds = head_builds();
    let v = digest();
    let private = cost_of(|| {
        assert_eq!(owner.verify_range_sum(v, q_l, q_r).unwrap().value, truth);
    });
    assert_eq!(private, head_started, "private store");
    assert_eq!(head_builds(), builds + 1, "private store");
    owner.save_state("mark").unwrap();

    // Published: interactive and one-shot both start from the head the
    // private store's query built, which the publish kept.
    owner.publish("shared").unwrap();
    assert_eq!(head_builds(), builds + 1, "the publish kept the head");
    let v = digest();
    let interactive = cost_of(|| {
        assert_eq!(owner.verify_range_sum(v, q_l, q_r).unwrap().value, truth);
    });
    assert_eq!(interactive, head_started, "published, interactive");
    let v = digest();
    let oneshot = cost_of(|| {
        let got = owner.verify_range_sum_oneshot(v, q_l, q_r).unwrap();
        assert_eq!(got.value, truth);
    });
    assert_eq!(oneshot, head_started, "published, one-shot");
    owner.bye().unwrap();

    // A checkpoint thaws into a private store, which builds its own head.
    let mut resumed: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    resumed.resume("mark").unwrap();
    let builds = head_builds();
    let v = digest();
    let thawed = cost_of(|| {
        assert_eq!(resumed.verify_range_sum(v, q_l, q_r).unwrap().value, truth);
    });
    assert_eq!(thawed, head_started, "thawed checkpoint");
    assert_eq!(head_builds(), builds + 1, "thawed checkpoint");
    resumed.bye().unwrap();

    // A published kv dataset: its range-sum is a range-sum over the encoded
    // vector and a range-count over the presence vector. The publish built
    // the raw vector's head; those two are built at the first query, each
    // a tree, and both proofs start from them.
    let mut kv_rng = StdRng::seed_from_u64(7);
    let mut kv = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut kv_rng);
    let mut store: RemoteStore<Fp61, _> = RemoteStore::connect(server.local_addr(), log_u).unwrap();
    for key in 0..50u64 {
        kv.put(key * 1_001 % u, key + 1, &mut store);
    }
    store.publish("kv").unwrap();
    let counts = (
        provers_built("range-count", "head"),
        provers_built("range-count", "sweep"),
    );
    let builds = head_builds();
    let published_kv = cost_of(|| {
        let got = kv.range_sum(0, u - 1, &store).unwrap();
        assert_eq!(got.value, (1..=50).sum::<u64>());
    });
    assert_eq!(published_kv, (24, 16_380, 1, 0), "published kv dataset");
    assert_eq!(provers_built("range-count", "head"), counts.0 + 1);
    assert_eq!(provers_built("range-count", "sweep"), counts.1);
    assert_eq!(head_builds(), builds + 2, "published kv dataset");
    store.bye().unwrap();
    server.shutdown();

    // Restart over the same directory: the reload rebuilt the head, and an
    // attached query starts from it again.
    let server = spawn::<Fp61, _>("127.0.0.1:0", config).unwrap();
    let mut tenant: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    tenant.attach("shared").unwrap();
    let v = digest();
    let attached = cost_of(|| {
        assert_eq!(tenant.verify_range_sum(v, q_l, q_r).unwrap().value, truth);
    });
    assert_eq!(attached, head_started, "attached after a restart");
    tenant.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(array, packed)` of `sip_fold_binds_total{source}`.
fn binds() -> (u64, u64) {
    let by = |source| obs::counter_with("sip_fold_binds_total", &[("source", source)]).get();
    (by("array"), by("packed"))
}

/// What one query added to `(messages, blocks)` and to the binds booked
/// `(array, packed)`.
type Cost = ((u64, u64), (u64, u64));

fn costed(query: impl FnOnce() -> Fp61) -> (Fp61, Cost) {
    let (passes, bound) = (engine_passes(), binds());
    let value = query();
    let passes = (engine_passes().0 - passes.0, engine_passes().1 - passes.1);
    (value, (passes, (binds().0 - bound.0, binds().1 - bound.1)))
}

/// The universe exponent [`ask`]'s digests are drawn over.
const LOG_U: u32 = 16;

/// F₂ and a range-sum over `stream`, each interactive and one-shot: the two
/// verified answers (interactive and sealed agreeing) and the four costs.
fn ask(
    client: &mut RawClient<Fp61, FramedTcpTransport>,
    stream: &[Update],
    (q_l, q_r): (u64, u64),
    rng: &mut StdRng,
) -> ((Fp61, Fp61), Vec<Cost>) {
    let [f2, f2_sealed] = [(); 2].map(|()| {
        let mut v = F2Verifier::<Fp61>::new(LOG_U, rng);
        v.update_batch(stream);
        v
    });
    let [range, range_sealed] = [(); 2].map(|()| {
        let mut v = RangeSumVerifier::<Fp61>::new(LOG_U, rng);
        v.update_batch(stream);
        v
    });
    let (self_join, a) = costed(|| client.verify_f2(f2).unwrap().value);
    let (sealed, b) = costed(|| client.verify_f2_oneshot(f2_sealed).unwrap().value);
    assert_eq!(self_join, sealed);
    let (range_sum, c) = costed(|| client.verify_range_sum(range, q_l, q_r).unwrap().value);
    let (sealed, d) = costed(|| {
        let got = client.verify_range_sum_oneshot(range_sealed, q_l, q_r);
        got.unwrap().value
    });
    assert_eq!(range_sum, sealed);
    ((self_join, range_sum), vec![a, b, c, d])
}

#[test]
fn a_head_started_proof_books_the_source_its_bind_read() {
    let _turn = COUNTERS.lock().unwrap_or_else(|p| p.into_inner());
    let log_u = LOG_U;
    let u = 1u64 << log_u;
    let q = (u / 5 + 3, u / 5 * 4);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sip-head-start-source-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(8);
    // A pass a round for a sweep; for a head-started proof the bind over 2^12
    // blocks of 16 cells and the folds after it, whichever source it reads.
    let (array, packed) = ((1, 0), (0, 1));
    let head_started = |source| vec![((12, 8_190), source); 4];

    let server = spawn::<Fp61, _>("127.0.0.1:0", config.clone()).unwrap();
    let zipf = workloads::zipf(1 << log_u, u, 1.1, 9);
    let paper = workloads::paper_f2(u, 9);
    for (id, stream, source) in [("zipf", &zipf, packed), ("paper", &paper, array)] {
        let fv = FrequencyVector::from_stream(u, stream);
        let sparse = fv.support_size() <= u / 4;
        assert_eq!(sparse, source == packed, "{id}: which side of the cap");
        let truth = (
            Fp61::from_u128(fv.self_join_size() as u128),
            Fp61::from_u128(fv.range_sum(q.0, q.1) as u128),
        );
        let mut owner = RawClient::<Fp61, _>::connect(server.local_addr(), log_u).unwrap();
        owner.send_stream(stream);
        owner.end_stream().unwrap();
        // The private store starts from its own head, built at the first
        // query, where the build packs the vector; every query over an
        // array too full to pack sweeps (a pass a round, no bind at all).
        let (private, costs) = ask(&mut owner, stream, q, &mut rng);
        assert_eq!(private, truth, "{id}: private store");
        if source == array {
            let swept = costs.iter().map(|&((passes, _), bound)| (passes, bound));
            assert!(
                swept.clone().all(|cost| cost == (16, (0, 0))),
                "{id}: private store {:?}",
                swept.collect::<Vec<_>>()
            );
        } else {
            assert_eq!(costs, head_started(source), "{id}: private store");
        }
        // Published: the same answers, and the source of the one bind booked
        // (the publish built the array's head).
        owner.publish(id).unwrap();
        let (answers, costs) = ask(&mut owner, stream, q, &mut rng);
        assert_eq!(answers, private, "{id}: published");
        assert_eq!(costs, head_started(source), "{id}: published");
        owner.bye().unwrap();
    }
    server.shutdown();

    // Restart over the same directory: the reload packed the vector again.
    let server = spawn::<Fp61, _>("127.0.0.1:0", config).unwrap();
    let mut tenant = RawClient::<Fp61, _>::connect(server.local_addr(), log_u).unwrap();
    tenant.attach("zipf").unwrap();
    let (_, costs) = ask(&mut tenant, &zipf, q, &mut rng);
    assert_eq!(costs, head_started(packed), "attached after a restart");
    tenant.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_private_store_builds_each_head_once_per_snapshot() {
    let _turn = COUNTERS.lock().unwrap_or_else(|p| p.into_inner());
    let u = 1u64 << LOG_U;
    // A head-started F₂ whose bind read the packed cells.
    let head_started = ((12, 8_190), (0, 1));
    let mut rng = StdRng::seed_from_u64(10);
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut f2 = |client: &mut RawClient<Fp61, _>, stream: &[Update]| {
        let mut v = F2Verifier::<Fp61>::new(LOG_U, &mut rng);
        v.update_batch(stream);
        costed(|| client.verify_f2(v).unwrap().value)
    };
    let self_join = |stream: &[Update]| {
        Fp61::from_u128(FrequencyVector::from_stream(u, stream).self_join_size() as u128)
    };

    // Query, ingest, query on a raw store (a tree: under u/8 updates). The
    // write drops the first snapshot's head, and the next query builds one
    // over the new data and answers it.
    let first = workloads::zipf(2_000, u, 1.1, 11);
    let both = [first.clone(), workloads::zipf(2_000, u, 1.1, 12)].concat();
    let mut owner = RawClient::<Fp61, _>::connect(server.local_addr(), LOG_U).unwrap();
    owner.send_stream(&first);
    let builds = head_builds();
    for _ in 0..2 {
        assert_eq!(f2(&mut owner, &first), (self_join(&first), head_started));
    }
    assert_eq!(head_builds(), builds + 1, "one head for the first snapshot");
    owner.send_stream(&both[first.len()..]);
    assert_eq!(f2(&mut owner, &both), (self_join(&both), head_started));
    assert_eq!(head_builds(), builds + 2, "the write dropped the head");
    owner.bye().unwrap();

    // A dense array too full to pack: every query sweeps and builds nothing.
    let paper = workloads::paper_f2(u, 13);
    let mut owner = RawClient::<Fp61, _>::connect(server.local_addr(), LOG_U).unwrap();
    owner.send_stream(&paper);
    let builds = head_builds();
    for _ in 0..3 {
        let (swept, ((passes, _), bound)) = f2(&mut owner, &paper);
        assert_eq!((swept, passes, bound), (self_join(&paper), 16, (0, 0)));
    }
    assert_eq!(head_builds(), builds, "an unpacked array builds no head");
    owner.bye().unwrap();

    // A private kv session: RANGE-SUM reads the encoded vector, RANGE-COUNT
    // the presence vector and F₂ the raw values; each builds its head once.
    let mut kv = Client::<Fp61>::new(LOG_U, QueryBudget::default(), &mut rng);
    let mut store: RemoteStore<Fp61, _> = RemoteStore::connect(server.local_addr(), LOG_U).unwrap();
    for key in 0..50u64 {
        kv.put(key * 1_001 % u, key + 1, &mut store);
    }
    let queries = ["range-sum", "range-count", "self-join"];
    let started = |start| queries.map(|query| provers_built(query, start));
    let (builds, heads, sweeps) = (head_builds(), started("head"), started("sweep"));
    for round in 1..=2u64 {
        let sum = kv.range_sum(0, u - 1, &store).unwrap().value;
        assert_eq!(sum, (1..=50).sum::<u64>());
        let squares = kv.self_join_size(&store).unwrap().value;
        assert_eq!(squares, (1..=50u64).map(|v| v * v).sum::<u64>());
        assert_eq!(started("head"), heads.map(|n| n + round), "round {round}");
    }
    assert_eq!(started("sweep"), sweeps);
    assert_eq!(head_builds(), builds + 3, "one head per vector");
    store.bye().unwrap();
    server.shutdown();
}

#[test]
fn a_refused_publish_builds_no_head() {
    let _turn = COUNTERS.lock().unwrap_or_else(|p| p.into_inner());
    let dataset = |id: &str| {
        let fv = FrequencyVector::from_stream(1 << 8, &workloads::paper_f2(1 << 8, 3));
        Dataset::<Fp61>::new(id.to_string(), 8, None, DatasetData::Raw(fv))
    };
    let builds = || obs::counter("sip_registry_f2_head_builds_total").get();
    let registry = DatasetRegistry::<Fp61>::new(1);
    let before = builds();
    registry.publish(dataset("a")).unwrap();
    assert_eq!(builds(), before + 1, "a publish builds the head");
    let duplicate = registry.publish(dataset("a")).unwrap_err();
    assert!(duplicate.contains("already published"), "{duplicate}");
    let overflow = registry.publish(dataset("b")).unwrap_err();
    assert!(overflow.contains("registry is full"), "{overflow}");
    assert_eq!(builds(), before + 1, "a refused publish sweeps nothing");
}

//! Honest end-to-end sessions over real TCP: the outsourced setting of
//! Section 1, with the prover behind a socket instead of a function call.
//!
//! Every protocol result must equal both the ground truth and what the
//! in-process run produces — outsourcing moves the prover, not the answer.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::sumcheck::f2::F2Verifier;
use sip::core::sumcheck::range_sum::RangeSumVerifier;
use sip::field::{Fp127, Fp61, PrimeField};
use sip::kvstore::{Client, CloudStore, QueryBudget};
use sip::server::client::{RawClient, RemoteStore};
use sip::server::{spawn, ServerConfig};
use sip::streaming::{workloads, FrequencyVector};

/// The F₂ happy path is field-generic: the handshake negotiates the field,
/// everything after is the same algebra at a different width.
fn f2_session_over_tcp_generic<F: PrimeField>(seed: u64) {
    let log_u = 10;
    let stream = workloads::paper_f2(1 << log_u, 42);
    let truth = FrequencyVector::from_stream(1 << log_u, &stream).self_join_size();

    let server = spawn::<F, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client: RawClient<F, _> = RawClient::connect(server.local_addr(), log_u).unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut verifier = F2Verifier::<F>::new(log_u, &mut rng);
    for &up in &stream {
        verifier.update(up);
        client.send_update(up);
    }
    client.end_stream().unwrap();

    let verified = client.verify_f2(verifier).expect("honest prover accepted");
    assert_eq!(verified.value, F::from_u128(truth as u128));
    // The cost shape survives the network: d rounds of degree-2 polys.
    let d = log_u as usize;
    assert_eq!(verified.report.rounds, d);
    assert_eq!(verified.report.p_to_v_words, 3 * d + 1); // + the claim
    let stats = client.stats();
    assert!(stats.bytes_received > 0 && stats.bytes_sent > 0);
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn f2_session_over_tcp() {
    f2_session_over_tcp_generic::<Fp61>(7);
}

#[test]
fn f2_session_over_tcp_fp127() {
    f2_session_over_tcp_generic::<Fp127>(7);
}

fn range_sum_session_over_tcp_generic<F: PrimeField>(seed: u64) {
    let log_u = 9;
    let u = 1u64 << log_u;
    let stream = workloads::distinct_key_values(120, u, 500, 9);
    let fv = FrequencyVector::from_stream(u, &stream);

    let server = spawn::<F, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client: RawClient<F, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut verifier = RangeSumVerifier::<F>::new(log_u, &mut rng);
    for &up in &stream {
        verifier.update(up);
        client.send_update(up);
    }
    client.end_stream().unwrap();
    let (q_l, q_r) = (u / 4, 3 * u / 4);
    let verified = client.verify_range_sum(verifier, q_l, q_r).unwrap();
    assert_eq!(verified.value, F::from_i64(fv.range_sum(q_l, q_r) as i64));
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn range_sum_session_over_tcp() {
    range_sum_session_over_tcp_generic::<Fp61>(8);
}

#[test]
fn range_sum_session_over_tcp_fp127() {
    range_sum_session_over_tcp_generic::<Fp127>(8);
}

#[test]
fn kv_store_session_over_tcp_matches_local() {
    let log_u = 8;
    let pairs = [(3u64, 10u64), (17, 0), (40, 999), (41, 7), (200, 55)];

    // Local run (the seed repository's in-process path) …
    let mut rng = StdRng::seed_from_u64(1);
    let mut local_client = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
    let mut local_store = CloudStore::<Fp61>::new(log_u);
    for &(k, v) in &pairs {
        local_client.put(k, v, &mut local_store);
    }

    // … and the same session against a prover behind TCP, same seed.
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut remote_client = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
    let mut remote_store: RemoteStore<Fp61, _> =
        RemoteStore::connect(server.local_addr(), log_u).unwrap();
    for &(k, v) in &pairs {
        remote_client.put(k, v, &mut remote_store);
    }

    let local_get = local_client.get(40, &local_store).unwrap();
    let remote_get = remote_client.get(40, &remote_store).unwrap();
    assert_eq!(remote_get.value, Some(999));
    assert_eq!(local_get.value, remote_get.value);
    assert_eq!(
        local_get.report, remote_get.report,
        "outsourcing must not change the protocol's cost accounting"
    );

    assert_eq!(
        remote_client.range(10, 100, &remote_store).unwrap().value,
        vec![(17, 0), (40, 999), (41, 7)]
    );
    let local_sum = local_client.range_sum(0, 255, &local_store).unwrap();
    let remote_sum = remote_client.range_sum(0, 255, &remote_store).unwrap();
    assert_eq!(remote_sum.value, 10 + 999 + 7 + 55);
    assert_eq!(local_sum.report, remote_sum.report);

    assert_eq!(
        remote_client.self_join_size(&remote_store).unwrap().value,
        100 + 999 * 999 + 49 + 55 * 55
    );
    assert_eq!(
        remote_client.predecessor(39, &remote_store).unwrap().value,
        Some(17)
    );
    assert_eq!(
        remote_client.heavy_keys(56, &remote_store).unwrap().value,
        vec![(40, 999), (200, 55)]
    );

    remote_store.bye().unwrap();
    server.shutdown();
}

/// The kv-store session happy path over the high-soundness field: the
/// field-mode handshake, puts, and the full query mix (previously
/// exercised end-to-end for Fp61 only).
#[test]
fn kv_store_session_over_tcp_fp127() {
    let log_u = 8;
    let pairs = [(3u64, 10u64), (17, 0), (40, 999), (200, 55)];

    let server = spawn::<Fp127, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let mut client = Client::<Fp127>::new(log_u, QueryBudget::default(), &mut rng);
    let mut store: RemoteStore<Fp127, _> =
        RemoteStore::connect(server.local_addr(), log_u).unwrap();
    for &(k, v) in &pairs {
        client.put(k, v, &mut store);
    }
    assert_eq!(client.get(40, &store).unwrap().value, Some(999));
    assert_eq!(client.get(41, &store).unwrap().value, None);
    assert_eq!(
        client.range(10, 100, &store).unwrap().value,
        vec![(17, 0), (40, 999)]
    );
    assert_eq!(
        client.range_sum(0, 255, &store).unwrap().value,
        10 + 999 + 55
    );
    assert_eq!(
        client.self_join_size(&store).unwrap().value,
        100 + 999 * 999 + 55 * 55
    );
    assert_eq!(client.predecessor(39, &store).unwrap().value, Some(17));
    assert_eq!(
        client.heavy_keys(56, &store).unwrap().value,
        vec![(40, 999), (200, 55)]
    );
    store.bye().unwrap();
    server.shutdown();
}

/// The remote store is a drop-in for the local one even when puts and
/// queries interleave — `CloudStore` has no phases, so the server must not
/// impose any.
#[test]
fn puts_and_queries_interleave_over_tcp() {
    let log_u = 8;
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut client = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
    let mut store: RemoteStore<Fp61, _> = RemoteStore::connect(server.local_addr(), log_u).unwrap();

    client.put(5, 100, &mut store);
    assert_eq!(client.get(5, &store).unwrap().value, Some(100));
    client.put(9, 7, &mut store); // put *after* a query
    assert_eq!(client.get(9, &store).unwrap().value, Some(7));
    client.put(11, 1, &mut store);
    assert_eq!(client.range_sum(0, 255, &store).unwrap().value, 108);

    store.bye().unwrap();
    server.shutdown();
}

/// Acceptance bound for the wire format: real bytes on the socket during
/// the interactive phase stay within 2× of the paper's word accounting
/// (`CostReport::comm_bytes`) — framing, tags and the explicit claim are
/// all the overhead there is.
#[test]
fn wire_bytes_within_2x_of_cost_report() {
    let log_u = 12;
    let stream = workloads::paper_f2(1 << log_u, 5);
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
    for &up in &stream {
        verifier.update(up);
        client.send_update(up);
    }
    client.end_stream().unwrap();

    let before = client.stats();
    let verified = client.verify_f2(verifier).unwrap();
    let after = client.stats();

    let wire_bytes =
        (after.bytes_sent - before.bytes_sent) + (after.bytes_received - before.bytes_received);
    let claimed_bytes = verified.report.comm_bytes(61);
    assert!(
        wire_bytes <= 2 * claimed_bytes,
        "wire {wire_bytes} B > 2 × {claimed_bytes} B (words: {})",
        verified.report.total_words()
    );
    // And the word accounting is not wildly conservative either.
    assert!(wire_bytes >= claimed_bytes, "framing cannot shrink data");
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn several_verifiers_share_one_server() {
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let log_u = 8;
                let stream = workloads::paper_f2(1 << log_u, 100 + i);
                let truth = FrequencyVector::from_stream(1 << log_u, &stream).self_join_size();
                let mut client: RawClient<Fp61, _> = RawClient::connect(addr, log_u).unwrap();
                let mut rng = StdRng::seed_from_u64(i);
                let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
                for &up in &stream {
                    verifier.update(up);
                    client.send_update(up);
                }
                client.end_stream().unwrap();
                let verified = client.verify_f2(verifier).unwrap();
                assert_eq!(verified.value, Fp61::from_u128(truth as u128));
                client.bye().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Books and bytes, pinned per path
// ---------------------------------------------------------------------

/// Serialises the tests below: one of them turns process-wide tracing on,
/// and a traced query sends one extra `TraceContext` frame, which would
/// move the exact byte counts the other pins.
fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(std::sync::Mutex::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// `(rounds, p_to_v_words, v_to_p_words)` of a report.
fn books(r: &sip::core::CostReport) -> (usize, usize, usize) {
    (r.rounds, r.p_to_v_words, r.v_to_p_words)
}

/// The traffic of one query: the client's counters after minus before, as
/// `(frames_sent, bytes_sent, frames_received, bytes_received)`.
fn traffic(
    before: sip::core::TransportStats,
    after: sip::core::TransportStats,
) -> (usize, usize, usize, usize) {
    (
        after.frames_sent - before.frames_sent,
        after.bytes_sent - before.bytes_sent,
        after.frames_received - before.frames_received,
        after.bytes_received - before.bytes_received,
    )
}

const PIN_LOG_U: u32 = 8;

/// Every verifier path books the same conversation the same way, and moves
/// exactly these bytes. Each raw protocol runs over a [`RawClient`] and
/// in-process (`run_*`) from the same digest seed; each kv query runs over
/// a [`RemoteStore`] and over a [`CloudStore`]. Two differences are
/// intended and pinned as such: a [`RawClient`] books the `ClaimedValue`
/// word of a sum-check and sends an `Accept`/`Reject` frame after every
/// query; the kv path does neither.
#[test]
fn every_path_books_and_sends_the_pinned_words_and_bytes() {
    use sip::core::heavy_hitters::{run_heavy_hitters, CountTreeHasher};
    use sip::core::subvector::{run_subvector, SubVectorVerifier};
    use sip::core::sumcheck::f2::run_f2;
    use sip::core::sumcheck::range_sum::run_range_sum;
    use sip::wire::{Msg, WireCodec};

    let _guard = trace_lock();
    let d = PIN_LOG_U as usize;
    let u = 1u64 << PIN_LOG_U;
    let seed = StdRng::seed_from_u64;
    // A frame on the socket is its payload plus a 4-byte length prefix.
    let accept_frame = 4 + Msg::<Fp61>::Accept.to_bytes().len();

    let stream = workloads::zipf(2_000, u, 1.2, 11);
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), PIN_LOG_U).unwrap();
    raw.send_stream(&stream);
    raw.end_stream().unwrap();

    // F₂: d rounds of degree-2 polynomials; the raw path adds the claim.
    let mut f2 = F2Verifier::<Fp61>::new(PIN_LOG_U, &mut seed(1));
    f2.update_all(&stream);
    let before = raw.stats();
    let wire = raw.verify_f2(f2).unwrap().report;
    let raw_f2_traffic = traffic(before, raw.stats());
    let local = run_f2::<Fp61, _>(PIN_LOG_U, &stream, &mut seed(1))
        .unwrap()
        .report;
    assert_eq!(books(&wire), (d, 3 * d + 1, d - 1));
    assert_eq!(books(&local), (d, 3 * d, d - 1));
    assert_eq!(raw_f2_traffic, (d + 1, 102, d + 1, 277));

    // RANGE-SUM: the query range is two words out.
    let (q_l, q_r) = (u / 4, 3 * u / 4);
    let mut rs = RangeSumVerifier::<Fp61>::new(PIN_LOG_U, &mut seed(2));
    rs.update_all(&stream);
    let before = raw.stats();
    let wire = raw.verify_range_sum(rs, q_l, q_r).unwrap().report;
    let raw_rs_traffic = traffic(before, raw.stats());
    let local = run_range_sum::<Fp61, _>(PIN_LOG_U, &stream, q_l, q_r, &mut seed(2))
        .unwrap()
        .report;
    assert_eq!(books(&wire), (d, 3 * d + 1, d + 1));
    assert_eq!(books(&local), (d, 3 * d, d + 1));
    assert_eq!(raw_rs_traffic, (d + 1, 118, d + 1, 277));

    // SUB-VECTOR: the answer, then one round per level below the root.
    let (q_l, q_r) = (17, 100);
    let mut sv = SubVectorVerifier::<Fp61>::new(PIN_LOG_U, &mut seed(3));
    sv.update_all(&stream);
    let before = raw.stats();
    let wire = raw.verify_report(sv, q_l, q_r).unwrap().report;
    let raw_sv_traffic = traffic(before, raw.stats());
    let local = run_subvector::<Fp61, _>(PIN_LOG_U, &stream, q_l, q_r, &mut seed(3))
        .unwrap()
        .report;
    assert_eq!(books(&wire), books(&local));
    assert_eq!(books(&wire), (d, 175, d + 1));
    assert_eq!(raw_sv_traffic, (d + 1, 200, d, 1458));

    // HEAVY HITTERS: one disclosure per level.
    let threshold = 100;
    let mut hh = CountTreeHasher::<Fp61>::random(PIN_LOG_U, &mut seed(4));
    hh.update_all(&stream);
    let before = raw.stats();
    let (_, wire) = raw.verify_heavy(hh, threshold).unwrap();
    let raw_hh_traffic = traffic(before, raw.stats());
    let local = run_heavy_hitters::<Fp61, _>(PIN_LOG_U, &stream, threshold, &mut seed(4))
        .unwrap()
        .report;
    assert_eq!(books(&wire), books(&local));
    assert_eq!(books(&wire), (d, 95, 15));
    assert_eq!(raw_hh_traffic, (d + 1, 194, d, 904));
    raw.bye().unwrap();

    // The kv store, remote and local, from one seed.
    let pairs: Vec<(u64, u64)> = (0..60u64).map(|i| ((i * 37) % u, i * i % 50)).collect();
    let mut remote_client = Client::<Fp61>::new(PIN_LOG_U, QueryBudget::default(), &mut seed(5));
    let mut remote: RemoteStore<Fp61, _> =
        RemoteStore::connect(server.local_addr(), PIN_LOG_U).unwrap();
    remote_client.put_batch(&pairs, &mut remote);
    remote.end_stream().unwrap();
    let mut local_client = Client::<Fp61>::new(PIN_LOG_U, QueryBudget::default(), &mut seed(5));
    let mut local = CloudStore::<Fp61>::new(PIN_LOG_U);
    local_client.put_batch(&pairs, &mut local);

    let before = remote.stats();
    let wire = remote_client.get(74, &remote).unwrap().report;
    let kv_get_traffic = traffic(before, remote.stats());
    let here = local_client.get(74, &local).unwrap().report;
    assert_eq!(books(&wire), books(&here));
    assert_eq!(books(&wire), (d, 9, d + 1));
    assert_eq!(kv_get_traffic, (d, 211, d, 130));

    let before = remote.stats();
    let wire = remote_client.range_sum(10, 200, &remote).unwrap().report;
    let kv_rs_traffic = traffic(before, remote.stats());
    let here = local_client.range_sum(10, 200, &local).unwrap().report;
    assert_eq!(books(&wire), books(&here));
    assert_eq!(books(&wire), (2 * d, 6 * d, 2 * d));
    assert_eq!(kv_rs_traffic, (2 * d, 226, 2 * d + 2, 554));

    let before = remote.stats();
    let wire = remote_client.self_join_size(&remote).unwrap().report;
    let kv_f2_traffic = traffic(before, remote.stats());
    let here = local_client.self_join_size(&local).unwrap().report;
    assert_eq!(books(&wire), books(&here));
    assert_eq!(books(&wire), (d, 3 * d, d - 1));
    assert_eq!(kv_f2_traffic, (d, 97, d + 1, 277));

    // The two intended differences, side by side: the same F₂ conversation
    // receives the same bytes on both paths, books one more word on the raw
    // path, and sends one more frame there — the verdict.
    assert_eq!(kv_f2_traffic.2, raw_f2_traffic.2);
    assert_eq!(kv_f2_traffic.3, raw_f2_traffic.3);
    assert_eq!(kv_f2_traffic.0 + 1, raw_f2_traffic.0);
    assert_eq!(kv_f2_traffic.1 + accept_frame, raw_f2_traffic.1);

    remote.bye().unwrap();
    server.shutdown();
}

/// A traced raw F₂ query records one `round` span per round, each a child
/// of the query's own `query` span.
#[test]
fn traced_raw_f2_query_records_one_round_span_per_round() {
    let _guard = trace_lock();
    let stream = workloads::paper_f2(1 << PIN_LOG_U, 3);
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client: RawClient<Fp61, _> =
        RawClient::connect(server.local_addr(), PIN_LOG_U).unwrap();
    let mut verifier = F2Verifier::<Fp61>::new(PIN_LOG_U, &mut StdRng::seed_from_u64(12));
    verifier.update_all(&stream);
    client.send_stream(&stream);
    client.end_stream().unwrap();

    sip::obs::trace::set_tracing(true);
    let outer_id = {
        let outer = sip::obs::trace::span("tcp_e2e", "traced_f2");
        let id = outer.context().map(|c| c.span_id);
        client.verify_f2(verifier).unwrap();
        id
    };
    sip::obs::trace::set_tracing(false);
    let outer_id = outer_id.expect("tracing is on, so the span is live");

    let spans = sip::obs::trace::snapshot_spans();
    let query = spans
        .iter()
        .find(|s| s.parent_span == outer_id && s.name == "query")
        .expect("the query span hangs under the test's span");
    let rounds = spans
        .iter()
        .filter(|s| s.parent_span == query.span_id && s.name == "round")
        .count();
    assert_eq!(rounds, PIN_LOG_U as usize);
    client.bye().unwrap();
    server.shutdown();
}

/// Every path books the words of the digests a query consumed: a kv
/// query, the raw query over the same vector, and the in-process run agree
/// on `verifier_space_words` (a kv range sum consumes two digests — the
/// `Σ(value+1)` and the range count — and books both).
#[test]
fn every_path_books_the_verifier_space_it_consumed() {
    use sip::core::heavy_hitters::{run_heavy_hitters, CountTreeHasher};
    use sip::core::subvector::{run_subvector, SubVectorVerifier};
    use sip::core::sumcheck::f2::run_f2;
    use sip::streaming::Update;

    let d = PIN_LOG_U as usize;
    let u = 1u64 << PIN_LOG_U;
    let seed = StdRng::seed_from_u64;
    let pairs: Vec<(u64, u64)> = (0..40u64).map(|i| ((i * 53) % u, 3 + i % 7)).collect();
    // The kv store proves over `value + 1`: the raw stream that vector is.
    let encoded: Vec<Update> = pairs
        .iter()
        .map(|&(k, v)| Update::new(k, v as i64 + 1))
        .collect();
    let raw_values: Vec<Update> = pairs
        .iter()
        .map(|&(k, v)| Update::new(k, v as i64))
        .collect();

    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut kv = Client::<Fp61>::new(PIN_LOG_U, QueryBudget::default(), &mut seed(1));
    let mut remote: RemoteStore<Fp61, _> =
        RemoteStore::connect(server.local_addr(), PIN_LOG_U).unwrap();
    kv.put_batch(&pairs, &mut remote);
    let mut local_kv = Client::<Fp61>::new(PIN_LOG_U, QueryBudget::default(), &mut seed(1));
    let mut local = CloudStore::<Fp61>::new(PIN_LOG_U);
    local_kv.put_batch(&pairs, &mut local);

    let space = |r: sip::core::CostReport| r.verifier_space_words;
    let raw_client = |stream: &[Update]| {
        let mut client: RawClient<Fp61, _> =
            RawClient::connect(server.local_addr(), PIN_LOG_U).unwrap();
        client.send_stream(stream);
        client.end_stream().unwrap();
        client
    };

    // F₂ over the raw values: the digest's D + 4 words on every path.
    let mut raw = raw_client(&raw_values);
    let mut f2 = F2Verifier::<Fp61>::new(PIN_LOG_U, &mut seed(2));
    f2.update_all(&raw_values);
    let wire = space(raw.verify_f2(f2.clone()).unwrap().report);
    let oneshot = space(raw.verify_f2_oneshot(f2).unwrap().report);
    let here = space(
        run_f2::<Fp61, _>(PIN_LOG_U, &raw_values, &mut seed(2))
            .unwrap()
            .report,
    );
    assert_eq!(wire, d + 4);
    assert_eq!((oneshot, here), (wire, wire));
    assert_eq!(space(kv.self_join_size(&remote).unwrap().report), wire);
    assert_eq!(space(local_kv.self_join_size(&local).unwrap().report), wire);
    assert_eq!(
        space(kv.self_join_size_oneshot(&remote).unwrap().report),
        wire
    );
    assert_eq!(
        space(local_kv.self_join_size_oneshot(&local).unwrap().report),
        wire
    );
    raw.bye().unwrap();

    // RANGE-SUM: one digest on the raw path, two on the kv path.
    let mut raw = raw_client(&encoded);
    let mut rs = RangeSumVerifier::<Fp61>::new(PIN_LOG_U, &mut seed(3));
    rs.update_all(&encoded);
    let wire = space(raw.verify_range_sum(rs, 10, 200).unwrap().report);
    assert_eq!(wire, d + 4);
    assert_eq!(
        space(kv.range_sum(10, 200, &remote).unwrap().report),
        2 * wire
    );
    assert_eq!(
        space(local_kv.range_sum(10, 200, &local).unwrap().report),
        2 * wire
    );

    // SUB-VECTOR: a `get` is a one-key report over the same vector.
    let key = pairs[5].0;
    let mut sv = SubVectorVerifier::<Fp61>::new(PIN_LOG_U, &mut seed(4));
    sv.update_all(&encoded);
    let wire = space(raw.verify_report(sv, key, key).unwrap().report);
    let here = space(
        run_subvector::<Fp61, _>(PIN_LOG_U, &encoded, key, key, &mut seed(4))
            .unwrap()
            .report,
    );
    assert_eq!(here, wire);
    assert_eq!(space(kv.get(key, &remote).unwrap().report), wire);
    assert_eq!(space(local_kv.get(key, &local).unwrap().report), wire);

    // HEAVY HITTERS: the streaming digest plus the session's skeleton.
    let threshold = 8;
    let mut hh = CountTreeHasher::<Fp61>::random(PIN_LOG_U, &mut seed(5));
    hh.update_all(&encoded);
    let (_, wire) = raw.verify_heavy(hh, threshold).unwrap();
    let wire = space(wire);
    let here = space(
        run_heavy_hitters::<Fp61, _>(PIN_LOG_U, &encoded, threshold, &mut seed(5))
            .unwrap()
            .report,
    );
    assert!(wire > 2 * d + 2, "the session's words ride on the digest's");
    assert_eq!(here, wire);
    assert_eq!(
        space(kv.heavy_keys(threshold, &remote).unwrap().report),
        wire
    );
    assert_eq!(
        space(local_kv.heavy_keys(threshold, &local).unwrap().report),
        wire
    );
    raw.bye().unwrap();
    remote.bye().unwrap();
    server.shutdown();
}

//! Observability end-to-end: a real TCP session leaves the metric and
//! event trail the ops surface promises.
//!
//! The metrics registry is process-global, and this binary's tests all
//! write to it — each test takes `OBS_LOCK` and asserts on *deltas*, never
//! absolute values, so they compose in any order. Other test binaries are
//! other processes and cannot interfere.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::error::Rejection;
use sip::core::sumcheck::f2::F2Verifier;
use sip::field::{Fp61, PrimeField};
use sip::obs;
use sip::server::client::RawClient;
use sip::server::{spawn, ServerConfig};
use sip::streaming::workloads;
use sip::wire::{Msg, Query};

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn msg_count(name: &str) -> u64 {
    obs::counter_with("sip_server_msg_total", &[("msg", name)]).get()
}

/// One full session (ingest → verified F₂ → publish → stats → reject →
/// bye) plus an attaching second session, asserting the counter and
/// histogram invariants the ISSUE promises.
#[test]
fn tcp_session_leaves_a_complete_metric_trail() {
    let _guard = obs_lock();
    let log_u = 4u32;
    let stream = workloads::paper_f2(1 << log_u, 42);

    // Baselines: everything below asserts deltas against these.
    let sent = [
        "ingest",
        "end-stream",
        "query",
        "challenge",
        "accept",
        "publish",
        "stats",
        "reject",
        "bye",
        "attach",
    ];
    let msgs_before: Vec<u64> = sent.iter().map(|n| msg_count(n)).collect();
    let frames_before = obs::counter("sip_server_frames_total").get();
    let rejections_before = obs::counter("sip_server_rejections_total").get();
    let updates_before = obs::counter("sip_server_ingest_updates_total").get();
    let decode_before = obs::histogram("sip_server_decode_us").count();
    let handle_before = obs::histogram("sip_server_handle_us").count();
    let publish_before = obs::counter("sip_registry_publish_total").get();
    let attach_before = obs::counter("sip_registry_attach_total").get();

    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
    for &up in &stream {
        verifier.update(up);
        client.send_update(up);
    }
    client.end_stream().unwrap();
    // verify_f2 sends Query + one Challenge per round + an Accept verdict.
    client.verify_f2(verifier).expect("honest prover accepted");
    client.publish("obs-ds").unwrap();

    // The wire-level stats request answers with the same snapshot document
    // the ops listener serves.
    let json = client.server_stats().unwrap();
    assert!(json.contains("sip_server_msg_total"), "{json}");
    assert!(json.contains("\"counters\""), "{json}");

    // A rejection verdict (however unfair) books exactly one rejection.
    client.verdict(&Err(Rejection::FinalCheckFailed));
    let served = client.bye().unwrap();
    assert!(served.total_words() > 0);
    // Bye exported this session's cost books as gauges (the second,
    // attach-only session below will overwrite them with its own — "last
    // session wins" is the documented gauge semantics).
    assert_eq!(
        obs::gauge("sip_server_last_cost_total_words").get(),
        served.total_words() as i64
    );

    // Second session attaches to the published snapshot.
    let second: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), log_u).unwrap();
    second.attach("obs-ds").unwrap();
    second.bye().unwrap();
    server.shutdown();

    for (name, before) in sent.iter().zip(msgs_before) {
        assert!(
            msg_count(name) > before,
            "msg counter for {name} did not move"
        );
    }
    let frames = obs::counter("sip_server_frames_total").get() - frames_before;
    // At least one frame per distinct message kind we sent.
    assert!(frames >= sent.len() as u64, "only {frames} frames counted");
    assert_eq!(
        obs::counter("sip_server_rejections_total").get() - rejections_before,
        1,
        "a rejection verdict must increment the rejection counter exactly once"
    );
    assert_eq!(
        obs::counter("sip_server_ingest_updates_total").get() - updates_before,
        stream.len() as u64
    );
    assert!(obs::histogram("sip_server_decode_us").count() > decode_before);
    assert!(obs::histogram("sip_server_handle_us").count() > handle_before);
    assert_eq!(
        obs::counter("sip_registry_publish_total").get() - publish_before,
        1
    );
    assert_eq!(
        obs::counter("sip_registry_attach_total").get() - attach_before,
        1
    );
    // The Prometheus rendering carries the labelled per-msg series.
    let prom = obs::registry().render_prometheus();
    assert!(
        prom.contains("sip_server_msg_total{msg=\"query\"}"),
        "{prom}"
    );
}

/// A shard that cannot be reached is blamed by id, as a counter and as a
/// structured Warn event carrying the guilty shard.
#[test]
fn blame_event_names_the_guilty_shard() {
    let _guard = obs_lock();
    let ring = Arc::new(obs::RingSink::new(64));
    obs::add_sink(ring.clone());

    let blames_before = obs::counter("sip_cluster_blame_total").get();

    // Shard 0 answers; shard 1's address was just released — nothing
    // listens there, so connecting to it fails fast and deterministically.
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let result = sip::cluster::ClusterClient::<Fp61, _>::connect_with_timeout(
        &[server.local_addr(), dead],
        4,
        Duration::from_millis(500),
    );
    server.shutdown();

    let err = result.err().expect("a dead shard must fail the connect");
    assert!(
        matches!(err, Rejection::Blame { shard_id: 1, .. }),
        "expected blame on shard 1, got {err:?}"
    );
    assert!(obs::counter("sip_cluster_blame_total").get() > blames_before);
    let events = ring.take();
    obs::clear_sinks();
    let blame = events
        .iter()
        .find(|e| e.message == "shard blamed")
        .unwrap_or_else(|| panic!("no blame event among {} events", events.len()));
    assert_eq!(blame.level, obs::Level::Warn);
    assert_eq!(blame.field("shard"), Some("1"));
}

/// An event emitted while a span is open carries the trace/span ids, so
/// `--log-json` lines join up with the `/trace` export; outside any span
/// (or with tracing off) the correlation fields are absent.
#[test]
fn events_inside_a_span_carry_trace_ids() {
    let _guard = obs_lock();
    let ring = Arc::new(obs::RingSink::new(8));
    obs::add_sink(ring.clone());
    obs::trace::set_tracing(true);
    {
        let span = obs::trace::span("test.obs", "evented");
        let ctx = span.context().expect("tracing is on");
        obs::event!(obs::Level::Info, "test.obs", "inside a span");
        let events = ring.take();
        let e = events
            .iter()
            .find(|e| e.message == "inside a span")
            .expect("event reached the sink");
        assert_eq!(
            e.field("trace_id"),
            Some(&*format!("{:016x}", ctx.trace_id))
        );
        assert_eq!(e.field("span_id"), Some(&*format!("{:016x}", ctx.span_id)));
    }
    obs::trace::set_tracing(false);
    obs::event!(obs::Level::Info, "test.obs", "outside any span");
    let events = ring.take();
    obs::clear_sinks();
    let e = events
        .iter()
        .find(|e| e.message == "outside any span")
        .expect("event reached the sink");
    assert_eq!(e.field("trace_id"), None);
}

/// Hammering one registry from N threads never loses a count: handles are
/// plain atomics, and the registry lookup itself is engineered to be safe
/// under contention. Runs on a private `Registry` (not the global one) so
/// the exact totals can be asserted.
fn hammer_registry(threads: u64, per_thread: u64) {
    let reg = Arc::new(obs::Registry::new());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let reg = Arc::clone(&reg);
            scope.spawn(move || {
                // Half resolve the handle once, half re-resolve per op —
                // both paths must agree.
                let counter = reg.counter("contended_total");
                let histogram = reg.histogram("contended_us");
                let gauge = reg.gauge("contended_level");
                for i in 0..per_thread {
                    if t % 2 == 0 {
                        counter.inc();
                        histogram.observe(i);
                        gauge.add(1);
                    } else {
                        reg.counter("contended_total").inc();
                        reg.histogram("contended_us").observe(i);
                        reg.gauge("contended_level").add(-1);
                    }
                }
            });
        }
    });
    assert_eq!(reg.counter("contended_total").get(), threads * per_thread);
    assert_eq!(reg.histogram("contended_us").count(), threads * per_thread);
    // Equal numbers of +1 and -1 threads cancel exactly (threads is even).
    assert_eq!(reg.gauge("contended_level").get(), 0);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    #[test]
    fn registry_is_exact_under_contention(
        thread_pairs in 1u64..5,
        per_thread in 1u64..2_000,
    ) {
        hammer_registry(2 * thread_pairs, per_thread);
    }
}

/// Satellite 6: arbitrary bytes thrown at `--metrics-addr` never panic the
/// listener and never block a concurrently serving session.
#[test]
fn hostile_bytes_to_metrics_addr_never_block_a_session() {
    use std::io::{Read, Write};
    let _guard = obs_lock();
    let server = spawn::<Fp61, _>(
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ops = server.ops_addr().expect("metrics listener configured");

    // A live verifier session, held open across the whole bombardment.
    let mut client: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), 4).unwrap();
    client.send_batch(&[sip::streaming::Update::new(1, 3)]);

    // Deterministic pseudo-random garbage: empty, tiny, binary, oversized,
    // and a half-request that goes silent (the read timeout reaps it).
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut blob = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    };
    let mut payloads: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"\r\n\r\n".to_vec(),
        b"GET".to_vec(),
        b"GET /metrics".to_vec(), // no terminator: times out, then answers
        vec![0xFF; 17],
        blob(1),
        blob(100),
        blob(4095),
        blob(3 * obs::ops::MAX_OPS_REQUEST_BYTES),
    ];
    payloads.push({
        let mut huge = b"GET /".to_vec();
        huge.extend(std::iter::repeat_n(
            b'A',
            2 * obs::ops::MAX_OPS_REQUEST_BYTES,
        ));
        huge
    });
    for payload in &payloads {
        let mut s = std::net::TcpStream::connect(ops).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The server may stop reading (bounded request) — a write error is
        // the bound working, not a failure.
        let _ = s.write_all(payload);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut reply = Vec::new();
        let _ = s.read_to_end(&mut reply);
        // Whatever came back (possibly nothing, on a reset), it is bounded
        // and the listener survives to the next iteration.
    }

    // The listener still answers a well-formed scrape …
    let mut s = std::net::TcpStream::connect(ops).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut scrape = String::new();
    s.read_to_string(&mut scrape).unwrap();
    assert!(scrape.starts_with("HTTP/1.0 200 OK"), "{scrape}");
    assert!(scrape.contains("sip_server_active_sessions"), "{scrape}");

    // … and the session it shares a process with was never blocked.
    let mut rng = StdRng::seed_from_u64(3);
    let mut verifier = F2Verifier::<Fp61>::new(4, &mut rng);
    verifier.update(sip::streaming::Update::new(1, 3));
    let verified = client.verify_f2(verifier).expect("session still serves");
    assert_eq!(verified.value, Fp61::from_u64(9));
    client.bye().unwrap();
    server.shutdown();
}

/// The ops listener serves a scrape *during* an active session showing the
/// live gauges — the acceptance criterion's live-scrape requirement.
#[test]
fn live_scrape_during_an_active_session_shows_gauges() {
    use std::io::{Read, Write};
    let _guard = obs_lock();
    let server = spawn::<Fp61, _>(
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ops = server.ops_addr().unwrap();
    let mut client: RawClient<Fp61, _> = RawClient::connect(server.local_addr(), 4).unwrap();
    client.send_batch(&[sip::streaming::Update::new(2, 5)]);
    // Force the batch onto the wire (and a served reply back) so the
    // session is provably attached before the scrape.
    client.tell_msg(&Msg::Query(Query::SelfJoin)).unwrap();
    let Msg::ClaimedValue(_) = client.recv_msg().unwrap() else {
        panic!("expected claim");
    };
    let Msg::RoundPoly(_) = client.recv_msg().unwrap() else {
        panic!("expected g1");
    };

    let mut s = std::net::TcpStream::connect(ops).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /stats HTTP/1.0\r\n\r\n").unwrap();
    let mut stats = String::new();
    s.read_to_string(&mut stats).unwrap();
    assert!(stats.contains("sip_server_active_sessions"), "{stats}");
    assert!(stats.contains("sip_server_msg_total"), "{stats}");
    // The gauge itself reads ≥ 1 while the session is open.
    assert!(obs::gauge("sip_server_active_sessions").get() >= 1);

    client.bye().unwrap();
    server.shutdown();
}

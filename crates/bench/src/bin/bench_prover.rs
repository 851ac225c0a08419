//! Prover-engine scaling: round-message throughput of the fold kernel,
//! and end-to-end query latency with 1 / 8 / 32 concurrent verifier
//! sessions attached to one published dataset — emitted as
//! machine-readable `BENCH_prover.json` (plus a human-readable CSV on
//! stdout).
//!
//! What is measured:
//!
//! * `round_messages` — for each `log_u`, the honest F₂ prover's
//!   construction and complete round-message schedule (every
//!   `message()` + `bind()` over all `d` rounds) on a dense `n = 2^log_u`
//!   stream, repeated until the timer is trustworthy; reported as messages/s and
//!   fold-pairs/s (the largest `log_u` row is the headline scaling
//!   number);
//! * `head` — for each `log_u`, on a Zipf and on a fully dense vector (the
//!   two differ about 2× in build cost), and on a tree of `kv_mixed`'s
//!   shape (20 480 distinct keys in `2^18`, 5/64 of the universe, values up
//!   to 1 000): the time to build the vector's `F2Head` (what a snapshot
//!   pays once, at publish or at its first query), the bytes it holds,
//!   and a complete head-started proof (what every query on the snapshot
//!   then pays), beside the sweep-path proof from the vector alone;
//! * `query_latency` — wall time per verified F₂ query when N concurrent
//!   verifier sessions attach to one published dataset on a real TCP
//!   server (ingest happens once; the N sessions share the frozen
//!   snapshot), reported as mean/max per-session latency.
//!
//! Usage: `cargo run --release -p sip-bench --bin bench_prover
//! [--max-log-u N] [--sessions-log-u N] [--out PATH]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_bench::{arg_string, arg_u32, csv_header, time_mean, time_once};
use sip_core::sumcheck::f2::{F2Head, F2Prover, F2Verifier};
use sip_core::sumcheck::RoundProver;
use sip_field::{Fp61, PrimeField};
use sip_server::client::RawClient;
use sip_server::{spawn, ServerConfig};
use sip_streaming::{workloads, FrequencyVector};

struct RoundPoint {
    log_u: u32,
    msgs_per_sec: f64,
    pairs_per_sec: f64,
    schedule_ms: f64,
}

/// One prover built and walked: d messages, d−1 binds.
fn schedule_time(build: impl FnOnce() -> F2Prover<Fp61>, log_u: u32) -> (Duration, u64) {
    let mut pairs = 0u64;
    // Construction is inside the clock: it is part of what a query costs,
    // and where a prover that copies its table pays for the copy.
    let start = Instant::now();
    let mut prover = build();
    for round in 0..log_u {
        pairs += 1u64 << (log_u - round - 1);
        std::hint::black_box(prover.message());
        if round + 1 < log_u {
            prover.bind(Fp61::from_u64(round as u64 + 3));
        }
    }
    (start.elapsed(), pairs)
}

fn measure_rounds(log_u: u32) -> RoundPoint {
    let n = 1usize << log_u;
    let stream = workloads::paper_f2(n as u64, 11);
    let fv = FrequencyVector::from_stream(1 << log_u, &stream);
    let sweep = || F2Prover::<Fp61>::new(&fv, log_u);
    // Warm up once (page in the table), then repeat to a stable total.
    let _ = schedule_time(sweep, log_u);
    let mut total = Duration::ZERO;
    let mut msgs = 0u64;
    let mut pairs = 0u64;
    while total < Duration::from_millis(300) {
        let (d, p) = schedule_time(sweep, log_u);
        total += d;
        msgs += log_u as u64;
        pairs += p;
    }
    let secs = total.as_secs_f64();
    RoundPoint {
        log_u,
        msgs_per_sec: msgs as f64 / secs,
        pairs_per_sec: pairs as f64 / secs,
        schedule_ms: secs * 1e3 / (msgs as f64 / log_u as f64),
    }
}

struct HeadPoint {
    log_u: u32,
    input: &'static str,
    build_ms: f64,
    head_bytes: usize,
    head_proof_ms: f64,
    sweep_proof_ms: f64,
}

/// Head build, head-started proof and sweep-path proof over one vector.
fn measure_head(log_u: u32, input: &'static str) -> HeadPoint {
    let u = 1u64 << log_u;
    let fv = match input {
        "zipf" => FrequencyVector::from_stream(u, &workloads::zipf(u as usize, u, 1.1, 11)),
        "tree" => {
            let mut tree = FrequencyVector::new_sparse(u);
            tree.apply_batch(&workloads::distinct_key_values(
                (u * 5 / 64) as usize,
                u,
                1_000,
                11,
            ));
            tree
        }
        _ => FrequencyVector::from_stream(u, &workloads::paper_f2(u, 11)),
    };
    let budget = Duration::from_millis(300);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let head = Arc::new(F2Head::<Fp61>::build(&fv, log_u));
    let headed = || F2Prover::from_head(Arc::clone(&head));
    let swept = || F2Prover::<Fp61>::new(&fv, log_u);
    HeadPoint {
        log_u,
        input,
        build_ms: ms(time_mean(budget, || F2Head::<Fp61>::build(&fv, log_u))),
        head_bytes: head.bytes(),
        head_proof_ms: ms(time_mean(budget, || schedule_time(headed, log_u))),
        sweep_proof_ms: ms(time_mean(budget, || schedule_time(swept, log_u))),
    }
}

struct LatencyPoint {
    sessions: usize,
    mean_ms: f64,
    max_ms: f64,
    total_ms: f64,
}

/// N concurrent verifier sessions attach to one published dataset and each
/// runs one verified F₂ query.
fn measure_sessions(log_u: u32, sessions: usize) -> LatencyPoint {
    let u = 1u64 << log_u;
    let stream = workloads::paper_f2(u, 23);
    let truth = FrequencyVector::from_stream(u, &stream).self_join_size();

    let server = spawn::<Fp61, _>(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: sessions + 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();
    let dataset = format!("bench-{log_u}-{sessions}");

    let mut owner: RawClient<Fp61, _> = RawClient::connect(addr, log_u).unwrap();
    owner.send_stream(&stream);
    owner.publish(&dataset).unwrap();

    let (latencies, total) = time_once(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|i| {
                    let stream = &stream;
                    let dataset = &dataset;
                    scope.spawn(move || {
                        let mut client: RawClient<Fp61, _> =
                            RawClient::connect(addr, log_u).unwrap();
                        client.attach(dataset).unwrap();
                        let mut rng = StdRng::seed_from_u64(500 + i as u64);
                        let mut digest = F2Verifier::<Fp61>::new(log_u, &mut rng);
                        digest.update_all(stream);
                        let (got, took) = time_once(|| client.verify_f2(digest).unwrap());
                        assert_eq!(got.value, Fp61::from_u128(truth as u128));
                        client.bye().ok();
                        took
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    });
    owner.bye().ok();
    server.shutdown();

    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    LatencyPoint {
        sessions,
        mean_ms: latencies.iter().map(ms).sum::<f64>() / latencies.len() as f64,
        max_ms: latencies.iter().map(ms).fold(0.0, f64::max),
        total_ms: total.as_secs_f64() * 1e3,
    }
}

fn main() {
    let max_log_u = arg_u32("--max-log-u", 18);
    let sessions_log_u = arg_u32("--sessions-log-u", 12);
    let out_path = arg_string("--out", "BENCH_prover.json");

    let log_us: Vec<u32> = [12u32, 16, 18, 20]
        .into_iter()
        .filter(|&l| l <= max_log_u)
        .collect();

    csv_header(&["log_u", "msgs_per_sec", "pairs_per_sec", "schedule_ms"]);
    let mut rounds = Vec::new();
    for &log_u in &log_us {
        let p = measure_rounds(log_u);
        println!(
            "{},{:.1},{:.0},{:.3}",
            p.log_u, p.msgs_per_sec, p.pairs_per_sec, p.schedule_ms
        );
        rounds.push(p);
    }

    csv_header(&[
        "log_u",
        "input",
        "head_build_ms",
        "head_bytes",
        "head_proof_ms",
        "sweep_proof_ms",
    ]);
    let mut heads = Vec::new();
    for &log_u in &log_us {
        for input in ["zipf", "dense", "tree"] {
            let p = measure_head(log_u, input);
            println!(
                "{},{},{:.3},{},{:.3},{:.3}",
                p.log_u, p.input, p.build_ms, p.head_bytes, p.head_proof_ms, p.sweep_proof_ms
            );
            heads.push(p);
        }
    }

    csv_header(&["sessions", "mean_ms", "max_ms", "total_ms"]);
    let mut latencies = Vec::new();
    for sessions in [1usize, 8, 32] {
        let p = measure_sessions(sessions_log_u, sessions);
        println!(
            "{},{:.2},{:.2},{:.2}",
            p.sessions, p.mean_ms, p.max_ms, p.total_ms
        );
        latencies.push(p);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"prover\",");
    let _ = writeln!(json, "  \"field\": \"Fp61\",");
    let _ = writeln!(json, "  \"sessions_log_u\": {sessions_log_u},");
    json.push_str("  \"round_messages\": [\n");
    for (i, p) in rounds.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"log_u\": {}, \"msgs_per_sec\": {:.1}, \
             \"pairs_per_sec\": {:.0}, \"schedule_ms\": {:.3}}}{}",
            p.log_u,
            p.msgs_per_sec,
            p.pairs_per_sec,
            p.schedule_ms,
            if i + 1 < rounds.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"head\": [\n");
    for (i, p) in heads.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"log_u\": {}, \"input\": \"{}\", \"head_build_ms\": {:.3}, \
             \"head_bytes\": {}, \"head_proof_ms\": {:.3}, \"sweep_proof_ms\": {:.3}}}{}",
            p.log_u,
            p.input,
            p.build_ms,
            p.head_bytes,
            p.head_proof_ms,
            p.sweep_proof_ms,
            if i + 1 < heads.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"query_latency\": [\n");
    for (i, p) in latencies.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"sessions\": {}, \"mean_ms\": {:.2}, \"max_ms\": {:.2}, \
             \"total_ms\": {:.2}}}{}",
            p.sessions,
            p.mean_ms,
            p.max_ms,
            p.total_ms,
            if i + 1 < latencies.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_prover.json");
    eprintln!("# wrote {out_path}");
}

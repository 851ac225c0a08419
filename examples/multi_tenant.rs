//! Multi-tenant serving: one ingest, eight concurrent verifiers.
//!
//! The paper's economics are one heavily-resourced prover amortised over
//! many weak verifiers. This example makes that concrete: a data owner
//! uploads a key-value dataset **once** and publishes it; eight verifier
//! sessions then attach concurrently — each with its own secret
//! randomness, each running a different verified query mix (F₂ self-join
//! size, range sums, kv point/range lookups) — and the server serves them
//! all from the same frozen snapshot. No re-ingest, no trust in the
//! registry: every verifier's digests observed the put stream themselves.
//!
//! Run with: `cargo run --release --example multi_tenant`

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::CostReport;
use sip::kvstore::{Client, QueryBudget};
use sip::server::client::RemoteStore;
use sip::server::{spawn, ServerConfig};
use sip::streaming::workloads;
use sip::DefaultField;

const DATASET: &str = "orders-2026-07";
const VERIFIERS: usize = 8;

fn main() {
    let log_u = 14;

    // ----- the cloud side: one prover service, a thread per session ---
    let server =
        spawn::<DefaultField, _>("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let addr = server.local_addr();
    println!("prover serving on {addr}");

    // ----- the data owner: ingest once, publish -----------------------
    let records = workloads::distinct_key_values(3_000, 1 << log_u, 10_000, 5);
    let puts: Vec<(u64, u64)> = records
        .iter()
        .map(|up| (up.index, up.delta as u64))
        .collect();

    let mut rng = StdRng::seed_from_u64(99);
    let mut owner = Client::<DefaultField>::new(log_u, QueryBudget::default(), &mut rng);
    let mut cloud: RemoteStore<DefaultField, _> =
        RemoteStore::connect(addr, log_u).expect("connect");
    let upload = Instant::now();
    owner.put_batch(&puts, &mut cloud);
    cloud.publish(DATASET).expect("publish");
    println!(
        "owner uploaded {} records once and published {DATASET:?} ({:.1} ms)\n",
        puts.len(),
        upload.elapsed().as_secs_f64() * 1e3
    );

    // ----- eight tenants: observe the stream, attach, verify ----------
    let started = Instant::now();
    let reports: Vec<(usize, &'static str, CostReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..VERIFIERS)
            .map(|i| {
                let puts = &puts;
                scope.spawn(move || {
                    // Independent randomness per verifier; digests built by
                    // observing the owner's put stream (no re-upload).
                    let mut rng = StdRng::seed_from_u64(1_000 + i as u64);
                    let mut tenant =
                        Client::<DefaultField>::new(log_u, QueryBudget::default(), &mut rng);
                    tenant.observe_batch(puts);
                    let store: RemoteStore<DefaultField, _> =
                        RemoteStore::connect(addr, log_u).expect("connect");
                    store.attach(DATASET).expect("attach");

                    let truth_sum: u64 = puts.iter().map(|&(_, v)| v).sum();
                    let (what, report) = match i % 3 {
                        0 => {
                            let got = tenant.self_join_size(&store).expect("verified F2");
                            let expect: u64 = puts.iter().map(|&(_, v)| v * v).sum();
                            assert_eq!(got.value, expect);
                            ("self-join size", got.report)
                        }
                        1 => {
                            let got = tenant
                                .range_sum(0, (1 << log_u) - 1, &store)
                                .expect("verified range sum");
                            assert_eq!(got.value, truth_sum);
                            ("range sum     ", got.report)
                        }
                        _ => {
                            let (k, v) = puts[37 * (i + 1) % puts.len()];
                            let got = tenant.get(k, &store).expect("verified get");
                            assert_eq!(got.value, Some(v));
                            ("kv get        ", got.report)
                        }
                    };
                    store.bye().ok();
                    (i, what, report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    println!(
        "{VERIFIERS} verifiers attached and verified concurrently in {:.1} ms:",
        started.elapsed().as_secs_f64() * 1e3
    );

    let mut aggregate = CostReport::default();
    let mut max_space = 0;
    for (i, what, report) in &reports {
        println!("  tenant {i}: {what}  [{report}]");
        aggregate.absorb(report);
        max_space = max_space.max(report.verifier_space_words);
    }
    // Concurrent tenants each hold their own digests, so the fleet-wide
    // space figure is the max, not `absorb`'s sum.
    aggregate.verifier_space_words = max_space;
    println!(
        "\naggregate: {} words over {} rounds across all tenants; \
         max verifier space {} words — one ingest served them all",
        aggregate.total_words(),
        aggregate.rounds,
        aggregate.verifier_space_words
    );

    cloud.bye().ok();
    server.shutdown();
}

//! `kv_mixed`: the verified key-value store, writes beside reads on one
//! session. Each epoch is a fresh `kvstore::Client` (a hundred-odd digest
//! copies) over a fresh `RemoteStore` session: one bulk `put_batch`, then
//! rounds of a small `put_batch` and one read (four `get`s per `range`
//! scan), then a few aggregates, interactive and one-shot.
//!
//! Why it exists: it is the other protocol family — `core`'s sub-vector
//! tree hash instead of sum-check — and the other ingest path: `lde` as a
//! hundred single-point digests looped per put instead of the packed
//! multi-point pass the stream workloads use.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::RngExt;
use sip_core::channel::{FaultPlan, FaultTransport};
use sip_field::Fp61;
use sip_kvstore::{Client, KvServer, QueryBudget};
use sip_server::client::RemoteStore;
use sip_streaming::{workloads, Update};

use super::{lap_rng, Lap, LapCtx, Op, Verified};
use crate::procs::{Prover, ProverSpec};
use crate::replay::ReplayInput;
use crate::trace;
use crate::transport::{dial, dial_tapped, Recorded};

/// Digest copies per epoch: 72 reporting, and 12 each of range-sum,
/// range-count and F₂ (108 in all; `heavy` is not exercised).
pub const BUDGET: QueryBudget = QueryBudget {
    reporting: 72,
    aggregate: 12,
    heavy: 0,
};
/// Width of a `range` scan.
const RANGE_WIDTH: u64 = 256;
/// Largest stored value.
const MAX_VALUE: i64 = 1000;

/// One epoch's inputs, generated before the clock.
struct Epoch {
    bulk: Vec<(u64, u64)>,
    rounds: Vec<Vec<(u64, u64)>>,
}

fn pairs(updates: &[Update]) -> Vec<(u64, u64)> {
    updates
        .iter()
        .map(|up| (up.index, up.delta as u64))
        .collect()
}

fn answer<V>(a: sip_kvstore::Answer<V>) -> Verified<V> {
    Verified {
        value: a.value,
        cost: Some((a.report.total_words(), a.report.rounds)),
    }
}

/// One lap: a fresh prover and `epochs` client sessions.
pub fn lap(ctx: &LapCtx) -> Result<Lap, String> {
    let log_u: u32 = ctx.size(18, 12);
    let epochs = ctx.size(4, 1);
    let bulk: usize = ctx.size(1 << 14, 1 << 9);
    let rounds: usize = ctx.size(64, 10);
    let per_round: usize = ctx.size(64, 16);
    let u = 1u64 << log_u;
    let mut lap = Lap::default();

    let setup = Instant::now();
    let prover = Prover::spawn(&ProverSpec::default())?;
    let mut rng = lap_rng(ctx, 5);
    lap.setup_s += setup.elapsed().as_secs_f64();
    let mut last_stream = Vec::new();
    let mut recorded = Recorded::default();

    for epoch in 0..epochs {
        // ---- set-up: inputs, digests, connection ----
        let setup = Instant::now();
        let stream = workloads::distinct_key_values(
            bulk + rounds * per_round,
            u,
            MAX_VALUE,
            ctx.seed.wrapping_add(epoch as u64),
        );
        let input = Epoch {
            bulk: pairs(&stream[..bulk]),
            rounds: stream[bulk..].chunks(per_round).map(pairs).collect(),
        };
        let mut client = {
            let _s = trace::span("kvstore", "client_new");
            Client::<Fp61>::new(log_u, BUDGET, &mut rng)
        };
        lap.verifier_space_words = lap.verifier_space_words.max(client.space_words() as u64);
        let (store, tap) = {
            let _s = trace::span("server", "connect");
            let (tap, stats) = dial_tapped(prover.addr)?;
            let _hs = trace::span("wire", "handshake");
            let store = RemoteStore::<Fp61, _>::from_transport(tap, log_u)
                .map_err(|e| format!("kv handshake: {e}"))?;
            (store, stats)
        };
        let mut server: Box<dyn KvServer<Fp61>> = Box::new(store.clone());
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        lap.setup_s += setup.elapsed().as_secs_f64();

        // ---- bulk load ----
        let cpu0 = prover.usage().cpu_s;
        let before = tap.snapshot();
        let phase = Instant::now();
        {
            let _root = trace::span("client", "ingest.session");
            let _s = trace::span("kvstore", "put_batch");
            client.put_batch(&input.bulk, server.as_mut());
        }
        let window = lap.phase("ingest", phase);
        model.extend(input.bulk.iter().copied());
        lap.ingest_session(bulk as u64, window, tap.snapshot().since(&before));
        lap.sample("kvstore.put_batch_puts_per_s", bulk as f64 / window);

        // ---- writes beside reads ----
        let before = tap.snapshot();
        let phase = Instant::now();
        for (i, batch) in input.rounds.iter().enumerate() {
            {
                let _s = trace::span("kvstore", "put_batch");
                client.put_batch(batch, server.as_mut());
            }
            model.extend(batch.iter().copied());
            if i % 5 == 4 {
                let l = rng.random_range(0..u - RANGE_WIDTH);
                let r = l + RANGE_WIDTH - 1;
                let expect: Vec<(u64, u64)> = model.range(l..=r).map(|(k, v)| (*k, *v)).collect();
                lap.query(Op::KvRange, &expect, || {
                    client.range(l, r, server.as_ref()).map(answer)
                });
            } else {
                // Mostly keys that exist; one read in eight probes a hole.
                let key = if i % 8 == 7 {
                    rng.random_range(0..u)
                } else {
                    batch[i % batch.len()].0
                };
                let expect = model.get(&key).copied();
                lap.query(Op::KvGet, &expect, || {
                    client.get(key, server.as_ref()).map(answer)
                });
            }
        }
        // ---- aggregates: range sums, then F₂ both ways ----
        for _ in 0..4 {
            let (l, r) = super::random_range(u, &mut rng);
            let expect: u64 = model.range(l..=r).map(|(_, v)| *v).sum();
            lap.query(Op::KvRangeSum, &expect, || {
                client.range_sum(l, r, server.as_ref()).map(answer)
            });
        }
        let self_join: u64 = model.values().map(|v| v * v).sum();
        for i in 0..12 {
            if i % 3 == 0 {
                lap.query(Op::KvSelfJoin, &self_join, || {
                    client.self_join_size(server.as_ref()).map(answer)
                });
            } else {
                lap.query(Op::KvSelfJoinOneshot, &self_join, || {
                    client.self_join_size_oneshot(server.as_ref()).map(answer)
                });
            }
        }
        lap.query_wall_s += lap.phase("query", phase);
        lap.query_wire = lap.query_wire + tap.snapshot().since(&before);
        let cpu1 = prover.usage().cpu_s;
        // /proc cannot split a mixed phase; book the epoch's prover CPU to
        // its queries (bulk apply is a few milliseconds of it).
        lap.query_cpu_s += cpu1 - cpu0;

        // ---- tamper probe, first epoch: publish, re-observe, attach ----
        if epoch == 0 {
            let dataset = "kv-probe";
            store
                .publish(dataset)
                .map_err(|e| format!("kv publish: {e}"))?;
            let all: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            let mut observer = Client::<Fp61>::new(
                log_u,
                QueryBudget {
                    reporting: 1,
                    aggregate: 0,
                    heavy: 0,
                },
                &mut rng,
            );
            observer.observe_batch(&all);
            // Frames received: handshake ack, attach ack, then the answer —
            // byte 15 sits inside the first entry's value.
            let faulty = FaultTransport::new(dial(prover.addr)?, FaultPlan::flip_byte(2, 15));
            let lying = RemoteStore::<Fp61, _>::from_transport(faulty, log_u)
                .map_err(|e| format!("probe handshake: {e}"))?;
            lying
                .attach(dataset)
                .map_err(|e| format!("probe attach: {e}"))?;
            let key = all[all.len() / 2].0;
            lap.tamper_probe(|| observer.get(key, &lying));
        }
        if ctx.traced && epoch + 1 == epochs {
            recorded = tap.recorded();
            last_stream = model
                .iter()
                .map(|(k, v)| Update::new(*k, *v as i64 + 1))
                .collect();
        }
        drop(server);
        store.bye().map_err(|e| format!("kv bye: {e}"))?;
        prover.settle();
    }
    lap.sample(
        "kvstore.digests_per_put",
        (BUDGET.reporting + 3 * BUDGET.aggregate + BUDGET.heavy) as f64,
    );
    lap.sample("kvstore.space_words", lap.verifier_space_words as f64);
    if ctx.traced {
        crate::layers::scrape_into(&mut lap, &prover);
        lap.replay = Some(ReplayInput {
            log_u,
            stream: last_stream,
            recorded,
            kv_budget: Some(BUDGET),
        });
    }
    lap.collect_usage(&[&prover]);
    Ok(lap)
}

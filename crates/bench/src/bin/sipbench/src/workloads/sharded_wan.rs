//! `sharded_wan`: latency-bound. Two provers, each pinned to half of a
//! `2^16` universe, driven through `ClusterClient` over connections that
//! delay every received frame by 1 ms.
//!
//! Why it exists: about 96 % of an interactive query here is
//! `rounds × shards × RTT` — the client waits for the shards one after the
//! other, every round — and compute is about 3 %. Round-trip and fan-out
//! changes show here and nowhere else; a fold speed-up must **not** move
//! it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sip_cluster::{ClusterClient, ClusterF2Verifier, ShardedLde};
use sip_core::channel::{FaultPlan, FaultTransport, FramedTcpTransport, LatencyTransport};
use sip_field::Fp61;
use sip_streaming::{workloads, ShardPlan};

use super::{
    cluster_query, cpu_now, lap_rng, plan_queries, provision_sharded, publish_step, sharded_space,
    Lap, LapCtx, Op, Truth, OWNER_DIGESTS,
};
use crate::procs::{Prover, ProverSpec};
use crate::replay::ReplayInput;
use crate::trace;
use crate::transport::{dial, Tap, TapSnapshot, TapStats};

const DATASET: &str = "wan";
const SHARDS: u32 = 2;
/// Injected delay per received frame.
const RTT: Duration = Duration::from_millis(1);

/// Per seventeen queries: 5 F₂ interactive, 10 F₂ one-shot, one range-sum
/// of each kind — one-shot is what a WAN deployment would favour.
const PATTERN: [Op; 17] = [
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Oneshot,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Oneshot,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Oneshot,
    Op::RangeSumInteractive,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Oneshot,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Oneshot,
    Op::RangeSumOneshot,
];

type WanTransport = Tap<LatencyTransport<FramedTcpTransport>>;

fn snapshot(taps: &[Arc<TapStats>]) -> Vec<TapSnapshot> {
    taps.iter().map(|t| t.snapshot()).collect()
}

fn total(snaps: &[TapSnapshot]) -> TapSnapshot {
    snaps.iter().copied().sum()
}

/// One lap: a fresh two-shard fleet, one owner ingest, the query mix.
pub fn lap(ctx: &LapCtx) -> Result<Lap, String> {
    let log_u: u32 = ctx.size(16, 12);
    let queries: usize = ctx.size(4, 1) * PATTERN.len();
    let u = 1u64 << log_u;
    let plan = ShardPlan::new(log_u, SHARDS);
    let mut lap = Lap::default();

    let setup = Instant::now();
    let stream = workloads::paper_f2(u, ctx.seed);
    let truth = Truth::of(u, &stream);
    let parts = plan.split(&stream);
    let provers: Vec<Prover> = (0..SHARDS)
        .map(|s| {
            Prover::spawn(&ProverSpec {
                shard: Some((s, SHARDS, 0, log_u)),
                ..ProverSpec::default()
            })
        })
        .collect::<Result<_, _>>()?;
    let prover_refs: Vec<&Prover> = provers.iter().collect();
    let mut rng = lap_rng(ctx, 3);
    let mut digests = provision_sharded(plan, &parts, queries, &mut rng);
    let planned = plan_queries(&PATTERN, queries, u, &truth, &mut rng);
    let mut taps = Vec::new();
    let mut transports: Vec<WanTransport> = Vec::new();
    {
        let _s = trace::span("server", "connect");
        for prover in &provers {
            let (tap, stats) = Tap::new(LatencyTransport::fixed(dial(prover.addr)?, RTT));
            transports.push(tap);
            taps.push(stats);
        }
    }
    let mut client: ClusterClient<Fp61, WanTransport> = {
        let _s = trace::span("wire", "handshake");
        ClusterClient::from_transports(transports, log_u)
            .map_err(|e| format!("fleet handshake: {e}"))?
    };
    lap.setup_s += setup.elapsed().as_secs_f64();

    // Owner ingest: sixteen shard-resolved digests, one routed upload.
    let cpu0 = cpu_now(&prover_refs);
    let before = snapshot(&taps);
    let phase = Instant::now();
    let mut owner_digests: Vec<ShardedLde<Fp61>> = {
        let _root = trace::span("client", "ingest.session");
        let owner = {
            let _s = trace::span("lde", "digest.update_batch");
            provision_sharded(plan, &parts, OWNER_DIGESTS, &mut rng)
        };
        {
            let _s = trace::span("cluster", "send_stream");
            client.send_stream(&stream);
        }
        {
            let _s = trace::span("server", "end_stream");
            client
                .end_stream()
                .map_err(|e| format!("end_stream: {e}"))?;
        }
        publish_step(&mut lap, || client.publish(DATASET))?;
        owner
    };
    let window = lap.phase("ingest", phase);
    let after = snapshot(&taps);
    lap.ingest_session(
        stream.len() as u64,
        window,
        total(&after).since(&total(&before)),
    );
    lap.ingest_cpu_s += cpu_now(&prover_refs) - cpu0;
    lap.verifier_space_words = sharded_space(digests.iter().chain(&owner_digests));

    // The query mix, with per-class frame counts for the injected-delay row
    // of the waterfall.
    let cpu0 = cpu_now(&prover_refs);
    let before = snapshot(&taps);
    let mut frames_by_op: std::collections::BTreeMap<Op, (u64, u64)> = Default::default();
    let phase = Instant::now();
    for q in planned {
        let digest = digests.pop().expect("one digest per planned query");
        let frames0 = TapStats::total(&taps).frames_recv;
        cluster_query(&mut lap, &mut client, q, digest);
        let entry = frames_by_op.entry(q.op).or_default();
        entry.0 += TapStats::total(&taps).frames_recv - frames0;
        entry.1 += 1;
    }
    lap.query_wall_s += lap.phase("query", phase);
    let after = snapshot(&taps);
    lap.query_wire = total(&after).since(&total(&before));
    lap.query_cpu_s += cpu_now(&prover_refs) - cpu0;

    let per_shard: Vec<TapSnapshot> = after.iter().zip(&before).map(|(a, b)| a.since(b)).collect();
    let n = lap.queries.max(1) as f64;
    let waits: Vec<f64> = per_shard.iter().map(|s| s.recv_ns as f64 / 1e6).collect();
    let mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
    lap.sample(
        "cluster.shard_wait_ms_per_query",
        waits.iter().sum::<f64>() / n,
    );
    lap.sample(
        "cluster.shard_skew",
        waits.iter().copied().fold(0.0, f64::max) / mean_wait,
    );
    lap.sample(
        "cluster.round_trips_per_query",
        per_shard[0].frames_recv as f64 / n,
    );
    // Interactive rounds wait for the shards one after the other, so every
    // received frame costs a full delay; the one-shot path drains its
    // proof frames on parallel threads, so the delays overlap.
    let rtt_ms = RTT.as_secs_f64() * 1e3;
    for (op, name, overlap) in [
        (Op::F2Interactive, "cluster.injected_rtt_ms_per_query", 1.0),
        (
            Op::F2Oneshot,
            "cluster.injected_rtt_ms_per_oneshot",
            f64::from(SHARDS),
        ),
    ] {
        if let Some(&(frames, count)) = frames_by_op.get(&op) {
            lap.sample(name, frames as f64 * rtt_ms / overlap / count as f64);
        }
    }

    client.bye().map_err(|e| format!("bye: {e}"))?;
    drop(client);
    provers.iter().for_each(Prover::settle);

    // Tamper probe: a second fleet session whose shard-1 connection flips a
    // bit of the proof frame (after the handshake and attach acks).
    let probe_digest = owner_digests.pop().expect("sixteen owner digests");
    let faulty: Vec<FaultTransport<FramedTcpTransport>> = vec![
        FaultTransport::new(dial(provers[0].addr)?, FaultPlan::none()),
        FaultTransport::new(dial(provers[1].addr)?, FaultPlan::flip_byte(2, 3)),
    ];
    let mut probe: ClusterClient<Fp61, _> = ClusterClient::from_transports(faulty, log_u)
        .map_err(|e| format!("probe handshake: {e}"))?;
    probe
        .attach(DATASET)
        .map_err(|e| format!("probe attach: {e}"))?;
    lap.tamper_probe(|| probe.verify_f2_oneshot(ClusterF2Verifier::from_lde(probe_digest)));
    drop(probe);

    if ctx.traced {
        crate::layers::scrape_into(&mut lap, &provers[0]);
        // Replay what one shard holds: shard 0's slice, at the full log_u.
        let mut parts = parts;
        lap.replay = Some(ReplayInput::stream(
            log_u,
            parts.swap_remove(0),
            taps[0].recorded(),
        ));
    }
    lap.collect_usage(&prover_refs);
    Ok(lap)
}

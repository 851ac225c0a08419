//! `replicated`: one logical shard on two replicas, driven through
//! `ReplicaFleet` at RTT 0. The owner's turnstile stream (20 % deletions)
//! goes to both replicas; one-shot queries rotate between them; replica 1
//! is `SIGKILL`ed half-way through and every later query must still verify.
//!
//! Why it exists: it uses the same `cluster`/`server` layers as
//! `sharded_wan`, differently — ingest fan-out ×R (write amplification),
//! deletions, rotation and failover. A gain for `ClusterClient` that costs
//! `ReplicaFleet` (or the reverse) shows as a split between the two rows.
//!
//! `ReplicaFleet` has no interactive path and its answers carry no
//! `CostReport`, so the interactive latency class and the word counts come
//! from a plain `ClusterClient` session on the surviving replica.

use std::time::Instant;

use sip_cluster::{
    ClusterClient, ClusterF2Verifier, ClusterRangeSumVerifier, ReplicaFleet, ShardedLde,
};
use sip_core::channel::{FaultPlan, FaultTransport, FramedTcpTransport};
use sip_field::Fp61;
use sip_lde::{LdeParams, MultiLdeEvaluator};
use sip_streaming::{workloads, ShardPlan};

use super::{
    cluster_query, cpu_now, lap_rng, plan_queries, provision_sharded, publish_step, sharded_space,
    Lap, LapCtx, Op, Truth, Verified, INGEST_CHUNK, OWNER_DIGESTS,
};
use crate::procs::{Prover, ProverSpec};
use crate::replay::ReplayInput;
use crate::stats;
use crate::trace;
use crate::transport::{dial, dial_tapped, Tap, TapStats};

const DATASET: &str = "replicated";
const REPLICAS: u32 = 2;

/// The fleet's mix: one-shot only (4 F₂ per range-sum).
const FLEET_PATTERN: [Op; 5] = [
    Op::F2Oneshot,
    Op::F2Oneshot,
    Op::RangeSumOneshot,
    Op::F2Oneshot,
    Op::F2Oneshot,
];

/// The costed session on the surviving replica: the interactive class,
/// plus a few of the one-shot kinds so `words_per_query` covers the mix.
const SURVIVOR_PATTERN: [Op; 8] = [
    Op::F2Interactive,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Interactive,
    Op::RangeSumInteractive,
    Op::F2Interactive,
    Op::F2Interactive,
    Op::RangeSumOneshot,
];

/// One lap: two fresh replicas, one owner ingest, rotate, kill, fail over.
pub fn lap(ctx: &LapCtx) -> Result<Lap, String> {
    let log_u: u32 = ctx.size(18, 12);
    let updates: usize = ctx.size(1 << 19, 1 << 13);
    let fleet_queries: usize = ctx.size(32, 2) * FLEET_PATTERN.len();
    let survivor_queries: usize = ctx.size(3, 1) * SURVIVOR_PATTERN.len();
    let kill_after = fleet_queries / 2;
    let u = 1u64 << log_u;
    let plan = ShardPlan::new(log_u, 1);
    let mut lap = Lap::default();

    let setup = Instant::now();
    let stream = workloads::with_deletions(updates, u, 0.2, ctx.seed);
    let truth = Truth::of(u, &stream);
    let provers: Vec<Prover> = (0..REPLICAS)
        .map(|r| {
            Prover::spawn(&ProverSpec {
                shard: Some((0, 1, r, log_u)),
                ..ProverSpec::default()
            })
        })
        .collect::<Result<_, _>>()?;
    let prover_refs: Vec<&Prover> = provers.iter().collect();
    let mut rng = lap_rng(ctx, 4);
    let parts = vec![stream];
    let mut digests = provision_sharded(plan, &parts, fleet_queries + survivor_queries, &mut rng);
    let stream = &parts[0];
    let fleet_plan = plan_queries(&FLEET_PATTERN, fleet_queries, u, &truth, &mut rng);
    let survivor_plan = plan_queries(&SURVIVOR_PATTERN, survivor_queries, u, &truth, &mut rng);
    let mut taps = Vec::new();
    let mut transports: Vec<Tap<FramedTcpTransport>> = Vec::new();
    {
        let _s = trace::span("server", "connect");
        for prover in &provers {
            let (tap, stats) = dial_tapped(prover.addr)?;
            transports.push(tap);
            taps.push(stats);
        }
    }
    let mut fleet: ReplicaFleet<Fp61, _> = {
        let _s = trace::span("wire", "handshake");
        ReplicaFleet::from_transports(transports, log_u, REPLICAS)
            .map_err(|e| format!("fleet handshake: {e}"))?
    };
    lap.setup_s += setup.elapsed().as_secs_f64();

    // Owner ingest: every chunk is digested once and uploaded twice.
    let cpu0 = cpu_now(&prover_refs);
    let before = TapStats::total(&taps);
    let phase = Instant::now();
    let mut owner_digests: Vec<ShardedLde<Fp61>> = {
        let _root = trace::span("client", "ingest.session");
        let mut multi = {
            let _s = trace::span("lde", "digest.table_build");
            MultiLdeEvaluator::<Fp61>::random(LdeParams::binary(log_u), OWNER_DIGESTS, &mut rng)
        };
        for chunk in stream.chunks(INGEST_CHUNK) {
            {
                let _s = trace::span("lde", "digest.update_batch");
                multi.update_batch(chunk);
            }
            let _s = trace::span("cluster", "send_stream");
            fleet.send_stream(chunk);
        }
        {
            let _s = trace::span("server", "end_stream");
            fleet.end_stream().map_err(|e| format!("end_stream: {e}"))?;
        }
        publish_step(&mut lap, || fleet.publish(DATASET))?;
        (0..multi.num_points())
            .map(|p| {
                ShardedLde::from_saved(
                    plan,
                    multi.point(p).to_vec(),
                    vec![multi.value(p)],
                    multi.updates(),
                )
            })
            .collect()
    };
    let window = lap.phase("ingest", phase);
    lap.ingest_session(
        stream.len() as u64,
        window,
        TapStats::total(&taps).since(&before),
    );
    lap.ingest_cpu_s += cpu_now(&prover_refs) - cpu0;
    lap.verifier_space_words = sharded_space(digests.iter().chain(&owner_digests));

    // Fleet queries; replica 1 dies after `kill_after` of them.
    let cpu0 = cpu_now(&prover_refs);
    let before = TapStats::total(&taps);
    let phase = Instant::now();
    let mut served = [0u64; REPLICAS as usize];
    let mut killed_cpu = 0.0;
    let mut failover_ms = Vec::new();
    for (i, q) in fleet_plan.into_iter().enumerate() {
        if i == kill_after {
            let usage = provers[1].usage();
            killed_cpu = usage.cpu_s;
            lap.provers.push(usage);
            provers[1].kill();
        }
        let digest = digests.pop().expect("one digest per planned query");
        let live_before = fleet.live_replicas(0);
        let mut served_by = 0;
        lap.query(q.op, &q.expect, || {
            let verified = match q.op {
                Op::F2Oneshot => fleet.verify_f2_oneshot(ClusterF2Verifier::from_lde(digest)),
                _ => fleet.verify_range_sum_oneshot(
                    ClusterRangeSumVerifier::from_lde(digest),
                    q.l,
                    q.r,
                ),
            }?;
            served_by = verified.served_by[0];
            Ok(Verified {
                value: verified.value,
                cost: None,
            })
        });
        if i < kill_after {
            served[served_by as usize] += 1;
        }
        if fleet.live_replicas(0) < live_before {
            lap.sample("cluster.failovers", 1.0);
            if let Some(ms) = lap.op_ms.get(&q.op).and_then(|v| v.last()) {
                failover_ms.push(*ms);
            }
        }
    }
    lap.query_wall_s += lap.phase("query", phase);
    lap.query_wire = TapStats::total(&taps).since(&before);
    // The dead replica's CPU stopped at the kill; count what it spent.
    lap.query_cpu_s += provers[0].usage().cpu_s + killed_cpu - cpu0;
    if fleet.live_replicas(0) != 1 {
        lap.attempted += 1;
        lap.failed += 1;
        lap.failures
            .push("the killed replica was never failed over".into());
    }
    let typical = stats::median(lap.op_ms.get(&Op::F2Oneshot).map_or(&[][..], |v| &v[..]));
    for ms in failover_ms {
        lap.sample("cluster.failover_penalty_ms", ms - typical);
    }
    let (lo, hi) = (served[0].min(served[1]), served[0].max(served[1]));
    lap.sample("cluster.replica_balance", lo as f64 / hi.max(1) as f64);
    let n = lap.queries.max(1) as f64;
    let waits: Vec<f64> = taps
        .iter()
        .map(|t| t.snapshot().recv_ns as f64 / 1e6)
        .collect();
    lap.sample(
        "cluster.shard_wait_ms_per_query",
        waits.iter().sum::<f64>() / n,
    );
    lap.sample(
        "cluster.round_trips_per_query",
        lap.query_wire.frames_recv as f64 / n,
    );
    fleet.bye();
    drop(fleet);
    provers[0].settle();

    // The costed, interactive-capable session on the survivor.
    let setup = Instant::now();
    let (tap, survivor_tap) = dial_tapped(provers[0].addr)?;
    let mut survivor: ClusterClient<Fp61, _> = ClusterClient::from_transports(vec![tap], log_u)
        .map_err(|e| format!("survivor handshake: {e}"))?;
    lap.setup_s += setup.elapsed().as_secs_f64();
    let cpu0 = provers[0].usage().cpu_s;
    let before = survivor_tap.snapshot();
    let phase = Instant::now();
    survivor
        .attach(DATASET)
        .map_err(|e| format!("survivor attach: {e}"))?;
    for q in survivor_plan {
        let digest = digests.pop().expect("one digest per planned query");
        cluster_query(&mut lap, &mut survivor, q, digest);
    }
    lap.query_wall_s += lap.phase("query", phase);
    lap.query_wire = lap.query_wire + survivor_tap.snapshot().since(&before);
    lap.query_cpu_s += provers[0].usage().cpu_s - cpu0;
    survivor.bye().map_err(|e| format!("survivor bye: {e}"))?;
    drop(survivor);
    provers[0].settle();

    // Tamper probe against the survivor: a bit of the proof frame flips.
    let probe_digest = owner_digests.pop().expect("sixteen owner digests");
    let faulty = FaultTransport::new(dial(provers[0].addr)?, FaultPlan::flip_byte(2, 3));
    let mut probe: ClusterClient<Fp61, _> = ClusterClient::from_transports(vec![faulty], log_u)
        .map_err(|e| format!("probe handshake: {e}"))?;
    probe
        .attach(DATASET)
        .map_err(|e| format!("probe attach: {e}"))?;
    lap.tamper_probe(|| probe.verify_f2_oneshot(ClusterF2Verifier::from_lde(probe_digest)));
    drop(probe);

    if ctx.traced {
        crate::layers::scrape_into(&mut lap, &provers[0]);
    }
    lap.collect_usage(&[&provers[0]]);
    if ctx.traced {
        let recorded = taps[0].recorded().merged(survivor_tap.recorded());
        let mut parts = parts;
        lap.replay = Some(ReplayInput::stream(log_u, parts.swap_remove(0), recorded));
    }
    Ok(lap)
}

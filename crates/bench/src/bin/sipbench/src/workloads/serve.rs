//! `serve`: read-heavy. One prover with `--data-dir`; an owner ingests a
//! stream once and publishes it, then a tenant session attaches and runs a
//! round-robin mix of F₂ and range-sum queries, interactive and one-shot,
//! at RTT 0. Every query's digest is provisioned before the clock starts
//! (and counted in `setup_s`). The lap ends with `SIGKILL` → restart on the
//! same directory → attach → verified queries.
//!
//! Why it exists: with `log_u = 20` the vectors are 8 MB, out of L2, and at
//! least 90 % of every 10–15 ms query is the `core` fold engine rebuilding
//! and folding the prover table; `lde`, bulk `wire`, `cluster` and
//! `kvstore` do nothing. This is the workload a proof cache, fold lanes or
//! a session-path change must move.

use std::time::Instant;

use sip_core::sumcheck::f2::F2Verifier;
use sip_streaming::workloads;

use super::{
    connect_raw, cpu_now, digest_space, lap_rng, owner_session, plan_queries, provision, raw_query,
    raw_tamper_probe, Lap, LapCtx, Op, Truth, MIXED_PATTERN,
};
use crate::procs::{Prover, ProverSpec, ScratchDir};
use crate::replay::ReplayInput;
use crate::trace;

const DATASET: &str = "serve";

/// Queries after the restart: F₂ both ways, alternating.
const RECOVERY_PATTERN: [Op; 2] = [Op::F2Interactive, Op::F2Oneshot];

/// One lap: ingest once, serve a tenant, crash, recover.
pub fn lap(ctx: &LapCtx) -> Result<Lap, String> {
    let log_u: u32 = ctx.size(20, 14);
    let updates: usize = ctx.size(1 << 20, 1 << 14);
    let queries: usize = ctx.size(200, 10);
    let recovery_queries: usize = ctx.size(8, 2);
    // The traced pass ends with a short two-tenant closed loop.
    let tenant_queries: usize = if ctx.traced { ctx.size(24, 4) } else { 0 };
    let u = 1u64 << log_u;
    let mut lap = Lap::default();

    let setup = Instant::now();
    let stream = workloads::zipf(updates, u, 1.1, ctx.seed);
    let truth = Truth::of(u, &stream);
    let dir = ScratchDir::new("serve")?;
    let spec = ProverSpec {
        data_dir: Some(dir.path().to_path_buf()),
        ..ProverSpec::default()
    };
    let prover = Prover::spawn(&spec)?;
    let mut rng = lap_rng(ctx, 2);
    let mut digests = provision(log_u, &stream, queries + 2 * tenant_queries, &mut rng);
    let plan = plan_queries(&MIXED_PATTERN, queries, u, &truth, &mut rng);
    let recovery_plan = plan_queries(&RECOVERY_PATTERN, recovery_queries, u, &truth, &mut rng);
    let (mut owner, owner_tap) = connect_raw(&prover, log_u)?;
    lap.setup_s += setup.elapsed().as_secs_f64();

    // Owner: ingest once, publish (persisted: the prover has a data dir).
    let cpu0 = cpu_now(&[&prover]);
    let phase = Instant::now();
    let mut owner_digests = owner_session(
        &mut lap, &mut owner, &owner_tap, log_u, &stream, DATASET, &mut rng,
    )?;
    lap.phase("ingest", phase);
    lap.ingest_cpu_s += cpu_now(&[&prover]) - cpu0;
    lap.verifier_space_words = digest_space(&digests) + digest_space(&owner_digests);
    owner.bye().map_err(|e| format!("owner bye: {e}"))?;
    drop(owner);
    prover.settle();
    if let Some(ms) = lap.layer.get("server.publish_ms").and_then(|v| v.last()) {
        let ms = *ms;
        lap.sample("durable.publish_persist_ms", ms);
    }
    lap.sample("durable.dataset_bytes_on_disk", dir.bytes_on_disk() as f64);

    // Tenant: attach, then the query mix.
    let setup = Instant::now();
    let (mut tenant, tenant_tap) = connect_raw(&prover, log_u)?;
    lap.setup_s += setup.elapsed().as_secs_f64();
    let phase = Instant::now();
    {
        let _s = trace::span("server", "attach");
        tenant.attach(DATASET).map_err(|e| format!("attach: {e}"))?;
    }
    let attach_s = lap.phase("attach", phase);
    lap.sample("server.attach_ms", attach_s * 1e3);

    let cpu0 = cpu_now(&[&prover]);
    let before = tenant_tap.snapshot();
    let phase = Instant::now();
    for q in plan {
        let digest = digests.pop().expect("one digest per planned query");
        raw_query(&mut lap, &mut tenant, q, digest);
    }
    lap.query_wall_s += lap.phase("query", phase);
    lap.query_wire = lap.query_wire + tenant_tap.snapshot().since(&before);
    lap.query_cpu_s += cpu_now(&[&prover]) - cpu0;

    let probe_digest = owner_digests.pop().expect("sixteen owner digests");
    raw_tamper_probe(&mut lap, &prover, log_u, DATASET, probe_digest)?;

    if tenant_queries > 0 {
        let second = connect_raw(&prover, log_u)?;
        let half = digests.split_off(digests.len() - tenant_queries);
        let qps = two_tenants(&mut lap, (tenant, digests), (second.0, half), &truth)?;
        lap.sample("server.qps_2tenants", qps);
    } else {
        tenant.bye().map_err(|e| format!("tenant bye: {e}"))?;
    }
    if ctx.traced {
        crate::layers::scrape_into(&mut lap, &prover);
    }

    // Crash and recover: no orderly shutdown, whatever the kill leaves on
    // disk is what the restarted prover serves.
    lap.collect_usage(&[&prover]);
    let phase = Instant::now();
    let restarted = {
        let _s = trace::span("durable", "recover");
        prover.kill();
        drop(prover);
        let restarted = Prover::spawn(&spec)?;
        let (mut client, tap) = connect_raw(&restarted, log_u)?;
        client
            .attach(DATASET)
            .map_err(|e| format!("attach after restart: {e}"))?;
        (restarted, client, tap)
    };
    let recover_s = lap.phase("recover", phase);
    lap.sample("durable.recover_ms", recover_s * 1e3);
    let (restarted, mut client, tap) = restarted;
    let before = tap.snapshot();
    let phase = Instant::now();
    for q in recovery_plan {
        let digest = owner_digests.pop().expect("owner digests cover recovery");
        raw_query(&mut lap, &mut client, q, digest);
    }
    lap.query_wall_s += lap.phase("query", phase);
    lap.query_wire = lap.query_wire + tap.snapshot().since(&before);
    client
        .bye()
        .map_err(|e| format!("bye after restart: {e}"))?;
    lap.collect_usage(&[&restarted]);
    if ctx.traced {
        let recorded = owner_tap.recorded().merged(tenant_tap.recorded());
        lap.replay = Some(ReplayInput::stream(log_u, stream, recorded));
    }
    Ok(lap)
}

/// Two attached sessions, each a closed loop of one-shot F₂ queries on its
/// own thread. Returns queries per second. Everything is pinned to one CPU
/// (`procs::pin_to_one_cpu`), so this is not a scaling figure: it is what
/// the prover's one worker thread delivers when it has to interleave two
/// sessions — about `queries_per_s` of one session, less the extra context
/// switches. Reported, never gated: two client threads time-slicing with a
/// prover is the noisiest number in the benchmark.
fn two_tenants(
    lap: &mut Lap,
    first: (
        super::TappedRaw,
        Vec<sip_lde::StreamingLdeEvaluator<sip_field::Fp61>>,
    ),
    second: (
        super::TappedRaw,
        Vec<sip_lde::StreamingLdeEvaluator<sip_field::Fp61>>,
    ),
    truth: &Truth,
) -> Result<f64, String> {
    let (mut second_client, second_digests) = second;
    second_client
        .attach(DATASET)
        .map_err(|e| format!("second tenant attach: {e}"))?;
    let expect = truth.f2;
    let total = first.1.len() + second_digests.len();
    let start = Instant::now();
    let outcomes: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        [first, (second_client, second_digests)]
            .map(|(mut client, digests)| {
                scope.spawn(move || {
                    let _root = trace::span("client", "tenant.loop");
                    let mut wrong = 0;
                    for digest in digests {
                        match client.verify_f2_oneshot(F2Verifier::from_evaluator(digest)) {
                            Ok(v) if v.value == expect => {}
                            _ => wrong += 1,
                        }
                    }
                    client.bye().map_err(|e| format!("tenant bye: {e}"))?;
                    Ok(wrong)
                })
            })
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|_| Err("tenant thread panicked".into()))
            })
            .into_iter()
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    lap.attempted += total as u64;
    for outcome in outcomes {
        lap.failed += outcome? as u64;
    }
    Ok(total as f64 / wall)
}

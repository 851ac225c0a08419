//! `ingest`: write-heavy. One prover; owner sessions that each stream a
//! large Zipf stream — sixteen digest copies updated and the bulk upload
//! sent per 4096-update chunk — publish it, and confirm it with a handful
//! of queries.
//!
//! Why it exists: the `lde` χ ingest and the bulk `wire`/`server` upload
//! path each take about half of a session's wall time, and the `core` fold
//! engine almost none. A change to digest ingest, the ingest frame codec or
//! the server's apply path must move `ingest_updates_per_s` here.

use std::time::Instant;

use sip_streaming::workloads;

use super::{
    connect_raw, cpu_now, digest_space, lap_rng, owner_session, plan_queries, raw_query,
    raw_tamper_probe, Lap, LapCtx, Op, Truth,
};
use crate::procs::{Prover, ProverSpec};
use crate::replay::ReplayInput;
use crate::transport::Recorded;

/// The confirming queries of one owner session: fifteen of its sixteen
/// digests (the sixteenth goes to the tamper probe).
const CONFIRM_PATTERN: [Op; 15] = [
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::RangeSumInteractive,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::RangeSumOneshot,
    Op::F2Interactive,
    Op::F2Oneshot,
    Op::RangeSumInteractive,
    Op::F2Interactive,
    Op::RangeSumOneshot,
];

/// One lap: a fresh prover and `sessions` owner sessions over one stream.
pub fn lap(ctx: &LapCtx) -> Result<Lap, String> {
    let log_u: u32 = ctx.size(20, 14);
    let updates: usize = ctx.size(1 << 22, 1 << 16);
    let sessions = ctx.size(3, 1);
    let u = 1u64 << log_u;
    let mut lap = Lap::default();

    let setup = Instant::now();
    let stream = workloads::zipf(updates, u, 1.1, ctx.seed);
    let truth = Truth::of(u, &stream);
    let prover = Prover::spawn(&ProverSpec::default())?;
    let mut rng = lap_rng(ctx, 1);
    lap.setup_s += setup.elapsed().as_secs_f64();

    let mut recorded = Recorded::default();
    for session in 0..sessions {
        let setup = Instant::now();
        let dataset = format!("ingest-{session}");
        let plan = plan_queries(&CONFIRM_PATTERN, CONFIRM_PATTERN.len(), u, &truth, &mut rng);
        let (mut client, tap) = connect_raw(&prover, log_u)?;
        lap.setup_s += setup.elapsed().as_secs_f64();

        let cpu0 = cpu_now(&[&prover]);
        let phase = Instant::now();
        let mut digests = owner_session(
            &mut lap,
            &mut client,
            &tap,
            log_u,
            &stream,
            &dataset,
            &mut rng,
        )?;
        lap.phase("ingest", phase);
        let cpu1 = cpu_now(&[&prover]);
        lap.verifier_space_words = lap.verifier_space_words.max(digest_space(&digests));

        let probe_digest = digests.pop().expect("sixteen owner digests");
        let before = tap.snapshot();
        let phase = Instant::now();
        for q in plan {
            let digest = digests.pop().expect("one digest per planned query");
            raw_query(&mut lap, &mut client, q, digest);
        }
        lap.query_wall_s += lap.phase("query", phase);
        lap.query_wire = lap.query_wire + tap.snapshot().since(&before);
        lap.ingest_cpu_s += cpu1 - cpu0;
        lap.query_cpu_s += cpu_now(&[&prover]) - cpu1;

        raw_tamper_probe(&mut lap, &prover, log_u, &dataset, probe_digest)?;
        if ctx.traced && session + 1 == sessions {
            recorded = tap.recorded();
        }
        client.bye().map_err(|e| format!("bye: {e}"))?;
        prover.settle();
    }
    if ctx.traced {
        crate::layers::scrape_into(&mut lap, &prover);
        lap.replay = Some(ReplayInput::stream(log_u, stream, recorded));
    }
    lap.collect_usage(&[&prover]);
    Ok(lap)
}

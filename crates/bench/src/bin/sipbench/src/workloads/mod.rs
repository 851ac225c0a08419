//! The five workloads and what they share: the lap loop, per-lap
//! bookkeeping, digest provisioning, and the correctness gate.
//!
//! A **lap** is one complete pass through a workload's scenario against
//! freshly spawned provers: set-up (untimed, reported as `setup_s`), then
//! the timed phases. Laps repeat — each with a fresh seed derived from
//! `--seed`, so every lap sees a different stream — until the timed phases
//! add up to `--seconds`. Every timing is computed per lap (a median, a
//! percentile, a rate) and the run reports the median of the better third of
//! the laps' figures, see [`quiet_third`]; set-up is repeated with every lap,
//! so `setup_s` is reduced the same way. Count metrics come from the first
//! [`FIXED_LAPS`] laps alone: how many laps fit in `--seconds` depends on the
//! machine, and counts must depend on `--seed` only.
//!
//! Load model: one client thread, closed loop — the next operation is
//! issued when the previous one has been verified — with at most two
//! prover processes and two data connections at a time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use sip_cluster::{ClusterClient, ClusterF2Verifier, ClusterRangeSumVerifier, ShardedLde};
use sip_core::channel::{FaultPlan, FaultTransport, FramedTcpTransport, Transport};
use sip_core::error::Rejection;
use sip_core::sumcheck::f2::F2Verifier;
use sip_core::sumcheck::range_sum::RangeSumVerifier;
use sip_field::{Fp61, PrimeField};
use sip_lde::{LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip_server::client::RawClient;
use sip_streaming::{FrequencyVector, ShardPlan, Update};

use crate::procs::{ProcUsage, Prover};
use crate::replay::ReplayInput;
use crate::report::Better;
use crate::transport::{dial, dial_tapped, Tap, TapSnapshot, TapStats};
use crate::{stats, trace};

pub mod ingest;
pub mod kv_mixed;
pub mod replicated;
pub mod serve;
pub mod sharded_wan;

/// Updates per `update_batch` + `send_batch` step of an owner session.
pub const INGEST_CHUNK: usize = 4096;
/// Digest copies an owner session keeps while streaming.
pub const OWNER_DIGESTS: usize = 16;
/// Evaluation points per provisioning pass over the stream.
pub const PROVISION_POINTS: usize = 64;
/// Laps every full-size run makes, however short `--seconds` is. The count
/// metrics are taken over exactly these, so the same `--seed` gives the same
/// inputs and the same counts on any machine; timings use every lap.
pub const FIXED_LAPS: usize = 3;

/// Which workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Write-heavy owner sessions.
    Ingest,
    /// Read-heavy tenant over a published dataset, with crash recovery.
    Serve,
    /// Two shards behind 1 ms of injected round-trip time.
    ShardedWan,
    /// One shard, two replicas, a replica killed mid-run.
    Replicated,
    /// Verified key-value store: puts beside reads.
    KvMixed,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 5] = [
        Kind::Ingest,
        Kind::Serve,
        Kind::ShardedWan,
        Kind::Replicated,
        Kind::KvMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Serve => "serve",
            Kind::ShardedWan => "sharded_wan",
            Kind::Replicated => "replicated",
            Kind::KvMixed => "kv_mixed",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The op classes whose latency the `interactive_*` and `oneshot_*`
    /// metrics report. One class each, never a mix: pooling F₂ with
    /// range-sum makes the median bimodal.
    pub fn latency_ops(self) -> (Op, Op) {
        match self {
            Kind::KvMixed => (Op::KvGet, Op::KvSelfJoinOneshot),
            _ => (Op::F2Interactive, Op::F2Oneshot),
        }
    }
}

/// One class of verified operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// F₂ (self-join size), `log u` round trips.
    F2Interactive,
    /// F₂ as one sealed proof, one round trip.
    F2Oneshot,
    /// Range-sum, interactive.
    RangeSumInteractive,
    /// Range-sum, one-shot.
    RangeSumOneshot,
    /// kv `get` (sub-vector protocol over one key).
    KvGet,
    /// kv `range` scan.
    KvRange,
    /// kv `range_sum` (two interactive sum-checks).
    KvRangeSum,
    /// kv `self_join_size`, interactive.
    KvSelfJoin,
    /// kv `self_join_size_oneshot`.
    KvSelfJoinOneshot,
    /// The per-lap tamper probe: must be *rejected*.
    TamperProbe,
}

impl Op {
    /// Root span name of the class in the trace.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::F2Interactive => "query.f2_interactive",
            Op::F2Oneshot => "query.f2_oneshot",
            Op::RangeSumInteractive => "query.range_sum_interactive",
            Op::RangeSumOneshot => "query.range_sum_oneshot",
            Op::KvGet => "query.kv_get",
            Op::KvRange => "query.kv_range",
            Op::KvRangeSum => "query.kv_range_sum",
            Op::KvSelfJoin => "query.kv_self_join",
            Op::KvSelfJoinOneshot => "query.kv_self_join_oneshot",
            Op::TamperProbe => "query.tamper_probe",
        }
    }
}

/// What one lap is asked to do.
#[derive(Copy, Clone, Debug)]
pub struct LapCtx {
    /// Seed for this lap's inputs (derived from `--seed` and the lap index).
    pub seed: u64,
    /// `--smoke`: every size at most 1/16 of the full workload.
    pub smoke: bool,
    /// The traced pass: collect scrapes, replay inputs and the extra probes
    /// that feed per-layer metrics.
    pub traced: bool,
}

impl LapCtx {
    /// `full`, or `smoke` under `--smoke`.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Everything measured in one lap.
#[derive(Default)]
pub struct Lap {
    /// Set-up wall time, seconds.
    pub setup_s: f64,
    /// Timed phases in order, `(name, seconds)`.
    pub phases: Vec<(&'static str, f64)>,
    /// Updates per second, one entry per ingest session.
    pub ingest_rates: Vec<f64>,
    /// Updates uploaded in timed ingest sessions.
    pub ingest_updates: u64,
    /// Socket traffic of the timed ingest sessions.
    pub ingest_wire: TapSnapshot,
    /// Latency per verified operation, milliseconds.
    pub op_ms: BTreeMap<Op, Vec<f64>>,
    /// Verified queries in the query phase.
    pub queries: u64,
    /// Query-phase wall time, seconds.
    pub query_wall_s: f64,
    /// Socket traffic of the query phase.
    pub query_wire: TapSnapshot,
    /// Σ `CostReport` words (both directions) and rounds, and how many
    /// queries reported them.
    pub words: u64,
    /// Σ `CostReport::rounds`.
    pub rounds: u64,
    /// Queries that carried a `CostReport`.
    pub costed_queries: u64,
    /// Σ `space_words()` of every digest alive at the lap's peak.
    pub verifier_space_words: u64,
    /// `/proc` usage of each prover process, read just before it ends.
    pub provers: Vec<ProcUsage>,
    /// Prover CPU seconds spent in the timed ingest sessions / query phase.
    pub ingest_cpu_s: f64,
    /// See `ingest_cpu_s`.
    pub query_cpu_s: f64,
    /// Operations attempted (queries, ingest sessions, probes).
    pub attempted: u64,
    /// Operations that errored, were refused, or disagreed with the truth.
    pub failed: u64,
    /// Human-readable description of the first few failures.
    pub failures: Vec<String>,
    /// Workload-specific per-layer samples (`name → samples`).
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// Inputs for the layer replay (traced pass only).
    pub replay: Option<ReplayInput>,
}

/// What a verified operation hands back for the books.
pub struct Verified<V> {
    /// The verified value.
    pub value: V,
    /// `CostReport` words both ways and rounds, where the client API
    /// returns a report.
    pub cost: Option<(usize, usize)>,
}

impl Lap {
    /// Closes a timed phase started at `since`.
    pub fn phase(&mut self, name: &'static str, since: Instant) -> f64 {
        let s = since.elapsed().as_secs_f64();
        self.phases.push((name, s));
        s
    }

    /// Σ timed phases: the lap's wall-clock number.
    pub fn wall_s(&self) -> f64 {
        self.phases.iter().map(|p| p.1).sum()
    }

    /// Adds a per-layer sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.layer.entry(name).or_default().push(value);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Books one ingest session: `updates` uploaded in `window_s` seconds.
    pub fn ingest_session(&mut self, updates: u64, window_s: f64, wire: TapSnapshot) {
        self.attempted += 1;
        self.ingest_updates += updates;
        self.ingest_rates.push(updates as f64 / window_s);
        self.ingest_wire = self.ingest_wire + wire;
    }

    /// Runs one verified operation under a root span, times it, and checks
    /// the verified value against ground truth. Any rejection, error or
    /// mismatch is a failed operation.
    pub fn query<V: PartialEq + std::fmt::Debug>(
        &mut self,
        op: Op,
        expect: &V,
        run: impl FnOnce() -> Result<Verified<V>, Rejection>,
    ) {
        self.attempted += 1;
        let span = trace::span("client", op.span_name());
        let start = Instant::now();
        let out = run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(span);
        match out {
            Ok(v) if &v.value == expect => {
                self.queries += 1;
                self.op_ms.entry(op).or_default().push(ms);
                if let Some((words, rounds)) = v.cost {
                    self.words += words as u64;
                    self.rounds += rounds as u64;
                    self.costed_queries += 1;
                }
            }
            Ok(v) => self.fail(format!(
                "{}: verified {:?}, ground truth {:?}",
                op.span_name(),
                v.value,
                expect
            )),
            Err(rej) => self.fail(format!("{}: rejected: {rej}", op.span_name())),
        }
    }

    /// Books the tamper probe: the operation ran over a byte-flipping
    /// transport, so anything but a rejection is a soundness failure.
    pub fn tamper_probe<V>(&mut self, run: impl FnOnce() -> Result<V, Rejection>) {
        self.attempted += 1;
        let _span = trace::span("client", Op::TamperProbe.span_name());
        if run().is_ok() {
            self.fail("tamper probe: a corrupted proof was accepted".into());
        }
    }

    /// Reads each prover's `/proc` usage into the lap. Call last, while the
    /// processes are still alive.
    pub fn collect_usage(&mut self, provers: &[&Prover]) {
        self.provers.extend(provers.iter().map(|p| p.usage()));
    }
}

/// Σ CPU seconds of `provers` now.
pub fn cpu_now(provers: &[&Prover]) -> f64 {
    provers.iter().map(|p| p.usage().cpu_s).sum()
}

// ---------------------------------------------------------------------
// Digests and ground truth
// ---------------------------------------------------------------------

/// A `[0, u)` prefix-sum table over a frequency vector, so range-sum ground
/// truth is O(1) per query and stays out of the timed phases.
pub struct Truth {
    /// `Σ a_i²`.
    pub f2: Fp61,
    prefix: Vec<i64>,
}

impl Truth {
    /// Materialises the stream and tabulates it.
    pub fn of(u: u64, stream: &[Update]) -> Truth {
        let fv = FrequencyVector::from_stream(u, stream);
        let mut prefix = Vec::with_capacity(u as usize + 1);
        let mut acc = 0i64;
        prefix.push(0);
        for i in 0..u {
            acc += fv.get(i);
            prefix.push(acc);
        }
        Truth {
            f2: fp_i128(fv.self_join_size()),
            prefix,
        }
    }

    /// `Σ_{i ∈ [l, r]} a_i`.
    pub fn range_sum(&self, l: u64, r: u64) -> Fp61 {
        Fp61::from_i64(self.prefix[r as usize + 1] - self.prefix[l as usize])
    }
}

/// Embeds a (possibly negative) 128-bit integer.
pub fn fp_i128(x: i128) -> Fp61 {
    if x >= 0 {
        Fp61::from_u128(x as u128)
    } else {
        -Fp61::from_u128(x.unsigned_abs())
    }
}

/// A uniformly random non-empty range of `[0, u)`.
pub fn random_range<R: Rng + ?Sized>(u: u64, rng: &mut R) -> (u64, u64) {
    let a = rng.random_range(0..u);
    let b = rng.random_range(0..u);
    (a.min(b), a.max(b))
}

fn random_points<R: Rng + ?Sized>(log_u: u32, k: usize, rng: &mut R) -> Vec<Vec<Fp61>> {
    (0..k)
        .map(|_| (0..log_u).map(|_| Fp61::random(rng)).collect())
        .collect()
}

/// Splits a multi-point evaluator into the single-point digests the
/// verifier types are built from.
pub fn unpack(multi: &MultiLdeEvaluator<Fp61>) -> Vec<StreamingLdeEvaluator<Fp61>> {
    (0..multi.num_points())
        .map(|p| {
            StreamingLdeEvaluator::from_saved(
                multi.params(),
                multi.point(p).to_vec(),
                multi.value(p),
                multi.updates(),
            )
        })
        .collect()
}

/// Provisions `count` independent digests of `stream` in multi-point
/// passes of [`PROVISION_POINTS`] points each.
pub fn provision<R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    count: usize,
    rng: &mut R,
) -> Vec<StreamingLdeEvaluator<Fp61>> {
    let _span = trace::span("lde", "digest.provision");
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let k = (count - out.len()).min(PROVISION_POINTS);
        let mut multi = MultiLdeEvaluator::<Fp61>::random(LdeParams::binary(log_u), k, rng);
        multi.update_batch(stream);
        out.extend(unpack(&multi));
    }
    out
}

/// Provisions `count` shard-resolved digests: each multi-point pass runs
/// once per shard over that shard's slice, at the same points.
pub fn provision_sharded<R: Rng + ?Sized>(
    plan: ShardPlan,
    parts: &[Vec<Update>],
    count: usize,
    rng: &mut R,
) -> Vec<ShardedLde<Fp61>> {
    let _span = trace::span("lde", "digest.provision");
    let params = LdeParams::binary(plan.log_u());
    let updates: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let k = (count - out.len()).min(PROVISION_POINTS);
        let points = random_points(plan.log_u(), k, rng);
        let per_shard: Vec<Vec<Fp61>> = parts
            .iter()
            .map(|part| {
                let mut multi = MultiLdeEvaluator::new(params, points.clone());
                multi.update_batch(part);
                multi.values()
            })
            .collect();
        for (p, point) in points.into_iter().enumerate() {
            let accs = per_shard.iter().map(|values| values[p]).collect();
            out.push(ShardedLde::from_saved(plan, point, accs, updates));
        }
    }
    out
}

/// Σ verifier space of `digests` in words — each digest as the
/// `F2Verifier` / `RangeSumVerifier` it becomes (point, accumulator, and
/// three words of round state).
pub fn digest_space(digests: &[StreamingLdeEvaluator<Fp61>]) -> u64 {
    digests.iter().map(|d| d.space_words() as u64 + 3).sum()
}

/// [`digest_space`] for shard-resolved digests — each as the
/// `ClusterF2Verifier` / `ClusterRangeSumVerifier` it becomes (three words
/// of round residuals per shard on top of the digest).
pub fn sharded_space<'a>(digests: impl IntoIterator<Item = &'a ShardedLde<Fp61>>) -> u64 {
    digests
        .into_iter()
        .map(|d| (d.space_words() + 3 * d.values().len()) as u64)
        .sum()
}

/// One planned sum-check query: what to ask and what the answer must be.
#[derive(Copy, Clone, Debug)]
pub struct Planned {
    /// The op class.
    pub op: Op,
    /// Range bounds (ignored by F₂).
    pub l: u64,
    /// See `l`.
    pub r: u64,
    /// Ground truth.
    pub expect: Fp61,
}

/// Lays out `count` queries cycling through `pattern`, with random ranges
/// and precomputed ground truth, so the timed loop only issues and checks.
pub fn plan_queries<R: Rng + ?Sized>(
    pattern: &[Op],
    count: usize,
    u: u64,
    truth: &Truth,
    rng: &mut R,
) -> Vec<Planned> {
    (0..count)
        .map(|i| {
            let op = pattern[i % pattern.len()];
            match op {
                Op::RangeSumInteractive | Op::RangeSumOneshot => {
                    let (l, r) = random_range(u, rng);
                    Planned {
                        op,
                        l,
                        r,
                        expect: truth.range_sum(l, r),
                    }
                }
                _ => Planned {
                    op,
                    l: 0,
                    r: 0,
                    expect: truth.f2,
                },
            }
        })
        .collect()
}

/// The round-robin mix of the stream workloads: 4 F₂ interactive, 4 F₂
/// one-shot, one range-sum of each kind per ten queries.
pub const MIXED_PATTERN: [Op; 10] = [
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
];

// ---------------------------------------------------------------------
// Single-prover raw sessions (ingest, serve)
// ---------------------------------------------------------------------

/// A `RawClient` over a tapped TCP connection.
pub type TappedRaw = RawClient<Fp61, Tap<FramedTcpTransport>>;

/// Dials and handshakes a raw-stream session (spans: `server/connect` ⊃
/// `wire/handshake`).
pub fn connect_raw(prover: &Prover, log_u: u32) -> Result<(TappedRaw, Arc<TapStats>), String> {
    let _span = trace::span("server", "connect");
    let (tap, stats) = dial_tapped(prover.addr)?;
    let _hs = trace::span("wire", "handshake");
    let client = RawClient::from_transport(tap, log_u).map_err(|e| format!("handshake: {e}"))?;
    Ok((client, stats))
}

/// Issues one planned query on a raw session, consuming one digest.
pub fn raw_query(
    lap: &mut Lap,
    client: &mut TappedRaw,
    q: Planned,
    digest: StreamingLdeEvaluator<Fp61>,
) {
    lap.query(q.op, &q.expect, || {
        let verified = match q.op {
            Op::F2Interactive => client.verify_f2(F2Verifier::from_evaluator(digest)),
            Op::F2Oneshot => client.verify_f2_oneshot(F2Verifier::from_evaluator(digest)),
            Op::RangeSumInteractive => {
                client.verify_range_sum(RangeSumVerifier::from_evaluator(digest), q.l, q.r)
            }
            Op::RangeSumOneshot => {
                client.verify_range_sum_oneshot(RangeSumVerifier::from_evaluator(digest), q.l, q.r)
            }
            other => unreachable!("{other:?} is not a raw-session query"),
        }?;
        Ok(Verified {
            value: verified.value,
            cost: Some((verified.report.total_words(), verified.report.rounds)),
        })
    });
}

/// One owner session: stream `stream` in [`INGEST_CHUNK`] steps — digest
/// update then upload — end the stream, wait until the prover has absorbed
/// it (the ingest window), and publish it as `dataset`. Books the session
/// on `lap` and returns the owner's digests.
pub fn owner_session<R: Rng + ?Sized>(
    lap: &mut Lap,
    client: &mut TappedRaw,
    tap: &TapStats,
    log_u: u32,
    stream: &[Update],
    dataset: &str,
    rng: &mut R,
) -> Result<Vec<StreamingLdeEvaluator<Fp61>>, String> {
    let _span = trace::span("client", "ingest.session");
    let before = tap.snapshot();
    let start = Instant::now();
    let mut multi = {
        let _s = trace::span("lde", "digest.table_build");
        MultiLdeEvaluator::<Fp61>::random(LdeParams::binary(log_u), OWNER_DIGESTS, rng)
    };
    for chunk in stream.chunks(INGEST_CHUNK) {
        {
            let _s = trace::span("lde", "digest.update_batch");
            multi.update_batch(chunk);
        }
        let _s = trace::span("server", "send_batch");
        client.send_batch(chunk);
    }
    {
        // EndStream is not acknowledged. Frames are handled in order, so the
        // reply to a stats request behind it proves the prover has absorbed
        // every update: that reply closes the ingest window.
        let _s = trace::span("server", "end_stream");
        client
            .end_stream()
            .and_then(|()| client.server_stats())
            .map_err(|e| format!("end_stream: {e}"))?;
    }
    let window = start.elapsed().as_secs_f64();
    lap.ingest_session(stream.len() as u64, window, tap.snapshot().since(&before));
    // Publishing is part of the session (and of `wall_s`) but not of the
    // ingest rate: with `--data-dir` it is mostly a disk write.
    publish_step(lap, || client.publish(dataset))?;
    Ok(unpack(&multi))
}

/// Publishes an ingested stream under a `server/publish` span and books how
/// long the acknowledgement took.
pub fn publish_step(
    lap: &mut Lap,
    publish: impl FnOnce() -> Result<(), Rejection>,
) -> Result<(), String> {
    let _span = trace::span("server", "publish");
    let start = Instant::now();
    publish().map_err(|e| format!("publish: {e}"))?;
    lap.sample("server.publish_ms", start.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// The tamper probe for single-prover workloads: a fresh connection whose
/// third received frame (handshake ack, attach ack, then the proof) has one
/// bit flipped inside the claimed value. The verifier must reject.
pub fn raw_tamper_probe(
    lap: &mut Lap,
    prover: &Prover,
    log_u: u32,
    dataset: &str,
    digest: StreamingLdeEvaluator<Fp61>,
) -> Result<(), String> {
    let faulty = FaultTransport::new(dial(prover.addr)?, FaultPlan::flip_byte(2, 3));
    let mut client: RawClient<Fp61, _> =
        RawClient::from_transport(faulty, log_u).map_err(|e| format!("probe handshake: {e}"))?;
    client
        .attach(dataset)
        .map_err(|e| format!("probe attach: {e}"))?;
    lap.tamper_probe(|| client.verify_f2_oneshot(F2Verifier::from_evaluator(digest)));
    Ok(())
}

// ---------------------------------------------------------------------
// Fleet sessions (sharded_wan, replicated)
// ---------------------------------------------------------------------

/// Issues one planned query through a `ClusterClient`, consuming one
/// shard-resolved digest.
pub fn cluster_query<T: Transport>(
    lap: &mut Lap,
    client: &mut ClusterClient<Fp61, T>,
    q: Planned,
    digest: ShardedLde<Fp61>,
) {
    lap.query(q.op, &q.expect, || {
        let verified = match q.op {
            Op::F2Interactive => client.verify_f2(ClusterF2Verifier::from_lde(digest)),
            Op::F2Oneshot => client.verify_f2_oneshot(ClusterF2Verifier::from_lde(digest)),
            Op::RangeSumInteractive => {
                client.verify_range_sum(ClusterRangeSumVerifier::from_lde(digest), q.l, q.r)
            }
            Op::RangeSumOneshot => {
                client.verify_range_sum_oneshot(ClusterRangeSumVerifier::from_lde(digest), q.l, q.r)
            }
            other => unreachable!("{other:?} is not a fleet query"),
        }?;
        let total = verified.report.total();
        Ok(Verified {
            value: verified.value,
            cost: Some((total.total_words(), total.rounds)),
        })
    });
}

// ---------------------------------------------------------------------
// The lap loop and aggregation
// ---------------------------------------------------------------------

/// What `run` is asked to do.
#[derive(Copy, Clone, Debug)]
pub struct RunOpts {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how much timed work to accumulate.
    pub seconds: f64,
    /// `--trace 1`: the traced pass.
    pub trace: bool,
    /// `--smoke`.
    pub smoke: bool,
}

/// One metric value with its sample count and in-run spread.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
    /// `IQR ÷ median` of those samples — for an end-to-end timing, of the
    /// per-lap figures of every lap, disturbed ones included, so it says how
    /// quiet the run was (0 for counts and single samples).
    pub rel_iqr: f64,
}

impl Measured {
    /// A value that is exact by construction (a count or a ratio of counts).
    pub fn exact(value: f64, samples: usize) -> Measured {
        Measured {
            value,
            samples,
            rel_iqr: 0.0,
        }
    }

    /// The median of `samples`, with their count and relative IQR.
    pub fn median_of(samples: &[f64]) -> Measured {
        Measured {
            value: stats::median(samples),
            samples: samples.len(),
            rel_iqr: stats::relative_iqr(samples),
        }
    }

    /// Percentile `p` of `samples`, with their count and relative IQR.
    pub fn percentile_of(samples: &[f64], p: f64) -> Measured {
        Measured {
            value: stats::percentile(samples, p),
            samples: samples.len(),
            rel_iqr: stats::relative_iqr(samples),
        }
    }
}

/// The outcome of one workload.
pub struct Outcome {
    /// Which workload.
    pub kind: Kind,
    /// Laps run (control lap of a traced pass included).
    pub laps: usize,
    /// Σ timed phases over all laps, seconds.
    pub measured_s: f64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, Measured>,
    /// Per-layer metrics by name (traced pass only).
    pub per_layer: BTreeMap<&'static str, Measured>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// The spans of the traced laps (empty in the untraced pass).
    pub spans: Vec<trace::Span>,
}

fn lap_seed(seed: u64, kind: Kind, lap: usize) -> u64 {
    // splitmix64 over (seed, workload, lap): distinct streams everywhere,
    // reproducible from `--seed` alone.
    let mut z = seed
        .wrapping_add((kind as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((lap as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_lap(kind: Kind, ctx: &LapCtx) -> Result<Lap, String> {
    match kind {
        Kind::Ingest => ingest::lap(ctx),
        Kind::Serve => serve::lap(ctx),
        Kind::ShardedWan => sharded_wan::lap(ctx),
        Kind::Replicated => replicated::lap(ctx),
        Kind::KvMixed => kv_mixed::lap(ctx),
    }
}

/// Runs laps of `kind` until their timed phases add up to `opts.seconds`
/// (at least [`FIXED_LAPS`], so `setup_s` is a median of several set-ups;
/// exactly one under `--smoke`), then aggregates.
///
/// The traced pass measures for half as long, spends the rest on the layer
/// replay, and runs its first lap with spans off as the control for
/// `obs.harness_trace_overhead_pct`.
pub fn run(kind: Kind, opts: &RunOpts) -> Result<Outcome, String> {
    let (budget, fixed) = match (opts.smoke, opts.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (opts.seconds / 2.0, FIXED_LAPS),
        (false, false) => (opts.seconds, FIXED_LAPS),
    };
    let mut laps: Vec<Lap> = Vec::new();
    let mut measured = 0.0;
    loop {
        let index = laps.len();
        let control = opts.trace && !opts.smoke && index == 0;
        trace::set_enabled(opts.trace && !control);
        let ctx = LapCtx {
            seed: lap_seed(opts.seed, kind, index),
            smoke: opts.smoke,
            traced: opts.trace,
        };
        let lap = run_lap(kind, &ctx);
        trace::set_enabled(false);
        let lap = lap.map_err(|e| format!("{} lap {index}: {e}", kind.name()))?;
        measured += lap.wall_s();
        laps.push(lap);
        // Stop where the total lands closest to the budget: another lap is
        // worth running only if at least half of it still fits.
        let mean_lap = measured / laps.len() as f64;
        if laps.len() >= fixed && measured + mean_lap / 2.0 >= budget {
            break;
        }
    }
    let spans = trace::take();
    let mut outcome = aggregate(kind, &laps, fixed, measured);
    if opts.trace {
        // The control lap carries no spans: it is one of the fixed laps but
        // not one of the traced ones.
        let (control, traced) = if opts.smoke {
            (None, &laps[..])
        } else {
            (Some(&laps[0]), &laps[1..])
        };
        let fixed = fixed - control.map_or(0, |_| 1);
        outcome.per_layer = crate::layers::per_layer(kind, control, traced, fixed, &spans);
    }
    outcome.spans = spans;
    Ok(outcome)
}

/// Every latency sample of `op` across `laps`.
pub fn pooled(laps: &[Lap], op: Op) -> Vec<f64> {
    laps.iter()
        .flat_map(|l| l.op_ms.get(&op).into_iter().flatten().copied())
        .collect()
}

/// The better third (rounded up) of one figure's per-lap values, sorted.
///
/// Why not all of them: the machines this runs on are a few vCPUs of a shared
/// host, and their speed comes in spells — a kv `get` reads 0.78 ms for ten
/// seconds, then 0.90 or 1.25 ms for the next ten, with the prover's own CPU
/// time up by the same share. A median over all laps reads whichever spell
/// held the majority of the run, so identical code spreads 15–30 % between
/// runs. Interference only ever slows a lap down, so the laps that read best
/// are the ones that measured the program; a third is few enough that a run
/// needs only six quiet seconds in eighteen. The laps are ranked per figure,
/// not once by wall time, because on `sharded_wan` nine tenths of the wall is
/// injected delay and says nothing about who else had the CPU. Work that a
/// change adds to every lap shows in the best laps too; a slowdown that hits
/// fewer than two laps in three does not, which is the price.
pub fn quiet_third(per_lap: &[f64], better: Better) -> Vec<f64> {
    let mut v = stats::sorted(per_lap);
    if better == Better::Higher {
        v.reverse();
    }
    v.truncate(per_lap.len().div_ceil(3));
    v
}

/// The median of the [`quiet_third`] of `per_lap`; `samples` is what the
/// per-lap figures were computed from in all.
fn quiet(per_lap: &[f64], better: Better, samples: usize) -> Measured {
    Measured {
        value: stats::median(&quiet_third(per_lap, better)),
        samples,
        rel_iqr: stats::relative_iqr(per_lap),
    }
}

/// Every timing is a per-lap figure reduced by [`quiet`]. `fixed` is how many
/// leading laps ran on inputs that depend on `--seed` alone; the count
/// metrics are ratios of totals over those.
fn aggregate(kind: Kind, laps: &[Lap], fixed: usize, measured_s: f64) -> Outcome {
    use Better::{Higher, Lower};
    let per_lap = |f: &dyn Fn(&Lap) -> f64| -> Vec<f64> { laps.iter().map(f).collect() };
    let sum = |f: &dyn Fn(&Lap) -> u64| -> u64 { laps.iter().map(f).sum() };
    let counted = &laps[..fixed];
    let count = |f: &dyn Fn(&Lap) -> u64| -> u64 { counted.iter().map(f).sum() };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let n = laps.len();
    let queries = count(&|l| l.queries);
    let costed = count(&|l| l.costed_queries);
    let updates = count(&|l| l.ingest_updates);

    let mut e2e: BTreeMap<&'static str, Measured> = BTreeMap::new();
    e2e.insert("setup_s", quiet(&per_lap(&|l| l.setup_s), Lower, n));
    e2e.insert("wall_s", quiet(&per_lap(&|l| l.wall_s()), Lower, n));
    e2e.insert(
        "ingest_updates_per_s",
        quiet(
            &per_lap(&|l| stats::median(&l.ingest_rates)),
            Higher,
            sum(&|l| l.ingest_rates.len() as u64) as usize,
        ),
    );
    let (interactive_op, oneshot_op) = kind.latency_ops();
    for (op, p50, p95) in [
        (interactive_op, "interactive_p50_ms", "interactive_p95_ms"),
        (oneshot_op, "oneshot_p50_ms", "oneshot_p95_ms"),
    ] {
        let of = |l: &Lap| l.op_ms.get(&op).cloned().unwrap_or_default();
        let ops = pooled(laps, op).len();
        e2e.insert(p50, quiet(&per_lap(&|l| stats::median(&of(l))), Lower, ops));
        e2e.insert(
            p95,
            quiet(&per_lap(&|l| stats::percentile(&of(l), 95.0)), Lower, ops),
        );
    }
    e2e.insert(
        "queries_per_s",
        quiet(&per_lap(&|l| l.queries as f64 / l.query_wall_s), Higher, n),
    );
    e2e.insert(
        "words_per_query",
        Measured::exact(ratio(count(&|l| l.words), costed), costed as usize),
    );
    e2e.insert(
        "wire_bytes_per_query",
        Measured::exact(
            ratio(count(&|l| l.query_wire.bytes()), queries),
            queries as usize,
        ),
    );
    e2e.insert(
        "wire_bytes_per_update",
        Measured::exact(
            ratio(count(&|l| l.ingest_wire.bytes_sent), updates),
            updates as usize,
        ),
    );
    e2e.insert(
        "verifier_space_words",
        Measured::exact(
            counted
                .iter()
                .map(|l| l.verifier_space_words)
                .max()
                .unwrap_or(0) as f64,
            counted.len(),
        ),
    );
    // The mean of the quiet third, not its median: /proc reports CPU time in
    // 10 ms ticks, and a median of tick-quantised laps would read identically
    // run after run.
    let cpu = per_lap(&|l| l.provers.iter().map(|p| p.cpu_s).sum());
    e2e.insert(
        "prover_cpu_s",
        Measured {
            value: stats::mean(&quiet_third(&cpu, Lower)),
            samples: n,
            rel_iqr: stats::relative_iqr(&cpu),
        },
    );
    // The plain median over every lap: memory is not slowed by a neighbour,
    // and since every session end waits for the prover to tear the session
    // down (`Prover::settle`) a lap's peak no longer depends on a race.
    let rss =
        per_lap(&|l| stats::max(&l.provers.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()));
    e2e.insert("prover_peak_rss_mb", Measured::median_of(&rss));

    Outcome {
        kind,
        laps: laps.len(),
        measured_s,
        end_to_end: e2e,
        per_layer: BTreeMap::new(),
        attempted: sum(&|l| l.attempted),
        failed: sum(&|l| l.failed),
        failures: laps
            .iter()
            .flat_map(|l| l.failures.clone())
            .take(8)
            .collect(),
        spans: Vec::new(),
    }
}

/// A lap-local RNG.
pub fn lap_rng(ctx: &LapCtx, salt: u64) -> StdRng {
    StdRng::seed_from_u64(ctx.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_seeds_differ_by_seed_workload_and_lap() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4 {
            for kind in Kind::ALL {
                for lap in 0..4 {
                    assert!(seen.insert(lap_seed(seed, kind, lap)));
                }
            }
        }
        assert_eq!(
            lap_seed(7, Kind::Serve, 2),
            lap_seed(7, Kind::Serve, 2),
            "same inputs, same stream"
        );
    }

    #[test]
    fn the_quiet_third_is_the_better_end_rounded_up() {
        // Seven laps, three of them in a slow spell: the reported figure is
        // the middle of the best three, whichever way is better.
        let ms = [9.4, 12.9, 9.6, 13.1, 9.5, 12.7, 9.9];
        assert_eq!(quiet_third(&ms, Better::Lower), [9.4, 9.5, 9.6]);
        assert_eq!(quiet(&ms, Better::Lower, 7).value, 9.5);
        assert_eq!(quiet_third(&ms, Better::Higher), [13.1, 12.9, 12.7]);
        assert_eq!(quiet_third(&[3.0], Better::Lower), [3.0]);
        assert_eq!(
            quiet_third(&[4.0, 2.0, 3.0, 1.0], Better::Higher),
            [4.0, 3.0]
        );
        assert!(quiet_third(&[], Better::Lower).is_empty());
    }

    #[test]
    fn truth_prefix_sums_match_the_frequency_vector() {
        let stream = sip_streaming::workloads::with_deletions(2000, 256, 0.2, 5);
        let fv = FrequencyVector::from_stream(256, &stream);
        let truth = Truth::of(256, &stream);
        assert_eq!(truth.f2, fp_i128(fv.self_join_size()));
        for (l, r) in [(0, 255), (3, 3), (17, 200), (255, 255)] {
            assert_eq!(truth.range_sum(l, r), fp_i128(fv.range_sum(l, r)));
        }
        assert_eq!(fp_i128(-5), -Fp61::from_u64(5));
    }

    #[test]
    fn provisioned_digests_equal_streamed_ones() {
        let log_u = 8;
        let stream = sip_streaming::workloads::zipf(3000, 1 << log_u, 1.1, 9);
        let mut rng = StdRng::seed_from_u64(1);
        // More than one pass, and a ragged last pass.
        let digests = provision(log_u, &stream, PROVISION_POINTS + 3, &mut rng);
        assert_eq!(digests.len(), PROVISION_POINTS + 3);
        for d in [&digests[0], &digests[PROVISION_POINTS + 2]] {
            let mut fresh = StreamingLdeEvaluator::new(d.params(), d.point().to_vec());
            fresh.update_batch(&stream);
            assert_eq!(fresh.value(), d.value());
            assert_eq!(d.updates(), stream.len() as u64);
        }

        let plan = ShardPlan::new(log_u, 2);
        let parts = plan.split(&stream);
        let sharded = provision_sharded(plan, &parts, 5, &mut rng);
        let mut reference =
            ShardedLde::from_saved(plan, sharded[4].point().to_vec(), vec![Fp61::ZERO; 2], 0);
        reference.update_batch(&stream);
        assert_eq!(reference.values(), sharded[4].values());
    }

    #[test]
    fn query_plans_follow_the_pattern_and_carry_truth() {
        let stream = sip_streaming::workloads::zipf(500, 64, 1.1, 3);
        let truth = Truth::of(64, &stream);
        let mut rng = StdRng::seed_from_u64(2);
        let plan = plan_queries(&MIXED_PATTERN, 20, 64, &truth, &mut rng);
        let f2 = plan.iter().filter(|q| q.op == Op::F2Interactive).count();
        let rs = plan.iter().filter(|q| q.op == Op::RangeSumOneshot).count();
        assert_eq!((f2, rs), (8, 2));
        for q in plan.iter().filter(|q| q.op == Op::RangeSumInteractive) {
            assert!(q.l <= q.r && q.r < 64);
            assert_eq!(q.expect, truth.range_sum(q.l, q.r));
        }
    }
}

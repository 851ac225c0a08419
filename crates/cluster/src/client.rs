//! The aggregating verifier's fleet driver: `S` sharded prover sessions,
//! broadcast randomness, per-shard blame.

use std::net::ToSocketAddrs;
use std::time::Duration;

use sip_core::channel::{
    ClusterCostReport, CostReport, FramedTcpTransport, RetryPolicy, Transport, TransportStats,
};
use sip_core::error::Rejection;
use sip_core::sumcheck::{AggregatingVerifier, OneShotProof};
use sip_core::transcript::{query_transcript, Transcript};
use sip_field::PrimeField;
use sip_kvstore::KvServer;
use sip_server::client::{RawClient, RemoteStore, DEFAULT_CLIENT_TIMEOUT};
use sip_server::{ServerConfig, ServerHandle};
use sip_streaming::{ShardPlan, Update};
use sip_wire::{Msg, Query, ShardSpec, WireError};

use crate::digest::{ClusterF2Verifier, ClusterRangeSumVerifier, ClusterReportVerifier};
use crate::router::ShardRouter;

/// A verified fleet-level result: the composed value plus per-shard cost
/// accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterVerified<T> {
    /// The verified value (aggregate or merged report).
    pub value: T,
    /// Per-shard and total words; see [`ClusterCostReport::total`].
    pub report: ClusterCostReport,
}

/// The single choke point every shard-attributable failure passes through:
/// count it and name the guilty shard in a structured event before the
/// [`Rejection::Blame`] propagates.
fn blame(s: usize, e: Rejection) -> Rejection {
    if sip_obs::enabled() {
        sip_obs::counter("sip_cluster_blame_total").inc();
    }
    sip_obs::event!(
        sip_obs::Level::Warn,
        "sip.cluster",
        "shard blamed",
        "shard" => s,
        "rejection" => e,
    );
    Rejection::blame(s as u32, e)
}

/// Runs `recv` on every shard at once — shard 0 on the calling thread,
/// shards 1..S on scoped threads (none at `S = 1`) — so a fleet receive
/// waits for the slowest shard, not for each in turn. Returns each shard's
/// result and blocking wait in µs, in shard order, whatever order the
/// threads finished in. One `shard_wait` span (the cluster-level wire-wait
/// leg) covers the overlapped wait; it stays on the calling thread because
/// worker threads cannot attach to the thread-local trace context.
fn fan_in<F: PrimeField, T: Transport, R: Send>(
    shards: &mut [RawClient<F, T>],
    recv: impl Fn(&mut RawClient<F, T>) -> R + Sync,
) -> Vec<(R, u64)> {
    let mut wspan = sip_obs::trace::span("sip.cluster", "shard_wait");
    wspan.field("shards", shards.len());
    let timed = &|shard: &mut RawClient<F, T>| {
        let timer = sip_obs::Timer::start();
        let out = recv(shard);
        (out, timer.elapsed_us())
    };
    let (first, rest) = shards
        .split_first_mut()
        .expect("every fleet constructor refuses an empty fleet");
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|shard| scope.spawn(move || timed(shard)))
            .collect();
        let mut out = vec![timed(first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("shard drain thread panicked")),
        );
        out
    })
}

fn unexpected(expected: &'static str, got: &'static str) -> Rejection {
    Rejection::MalformedAnswer {
        detail: format!("wire: {}", WireError::UnexpectedMessage { expected, got }),
    }
}

fn round_poly<F: PrimeField>(msg: Msg<F>) -> Result<Vec<F>, Rejection> {
    match msg {
        Msg::RoundPoly(p) => Ok(p),
        other => Err(unexpected("round-poly", other.name())),
    }
}

/// Drives the aggregate and reporting protocols against a fleet of `S`
/// sharded provers over raw update streams.
///
/// The caller owns the digests ([`ClusterF2Verifier`] &c. — they must
/// observe the same updates that are uploaded); this client owns the `S`
/// conversations: it routes the stream by the shared [`ShardPlan`], fans
/// queries out, broadcasts each revealed challenge to every shard
/// ([`Msg::BroadcastChallenge`]), and folds the per-shard transcripts
/// through the lockstep checker. Any shard-attributable failure — algebra
/// or wire — surfaces as [`Rejection::Blame`] with that shard's id.
pub struct ClusterClient<F: PrimeField, T: Transport> {
    router: ShardRouter,
    shards: Vec<RawClient<F, T>>,
    /// Rolling record of recent fleet frames, dumped when a query ends in
    /// [`Rejection::Blame`] so the indictment ships with its evidence.
    recorder: sip_obs::FlightRecorder,
    /// JSON of the most recent blame dump (see [`Self::last_flight_dump`]).
    last_dump: Option<String>,
}

/// Flight-recorder depth for the fleet driver: a lockstep round is `S`
/// sends plus `S` receives, so 256 entries hold the last dozen-plus rounds
/// of an `S = 8` fleet — enough context to see what led to a blame.
const FLIGHT_FRAMES: usize = 256;

impl<F: PrimeField> ClusterClient<F, FramedTcpTransport> {
    /// Connects to `addrs.len()` sharded provers (shard `s` at `addrs[s]`)
    /// over keys `[2^log_u]`.
    ///
    /// An invalid `(log_u, addrs.len())` shape (empty fleet, more shards
    /// than keys, …) is refused with [`Rejection::InvalidConfig`] — local
    /// misconfiguration gets a typed answer, never a panic, so fleet
    /// launchers can surface it like any other rejection.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A], log_u: u32) -> Result<Self, Rejection> {
        Self::connect_with_timeout(addrs, log_u, DEFAULT_CLIENT_TIMEOUT)
    }

    /// Like [`Self::connect`] with an explicit per-read timeout.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addrs: &[A],
        log_u: u32,
        timeout: Duration,
    ) -> Result<Self, Rejection> {
        Self::join(log_u, addrs.len(), |s| {
            RawClient::connect_with_timeout(&addrs[s], log_u, timeout)
        })
    }

    /// Like [`Self::connect`], but each shard dial runs under `policy`:
    /// transient I/O faults (refused, timed out, reset) are retried with
    /// decorrelated-jitter backoff before the shard is blamed. Soundness
    /// rejections are never retried.
    pub fn connect_with_policy<A: ToSocketAddrs + Clone>(
        addrs: &[A],
        log_u: u32,
        policy: &RetryPolicy,
    ) -> Result<Self, Rejection> {
        Self::join(log_u, addrs.len(), |s| {
            RawClient::connect_with_policy(addrs[s].clone(), log_u, policy)
        })
    }
}

/// Checks a fleet shape, turning an invalid one into the typed
/// [`Rejection::InvalidConfig`] every fleet constructor answers with.
pub(crate) fn validated_plan(log_u: u32, fleet: usize) -> Result<ShardPlan, Rejection> {
    ShardPlan::validate(log_u, fleet as u32).map_err(|detail| Rejection::InvalidConfig { detail })
}

impl<F: PrimeField, T: Transport> ClusterClient<F, T> {
    /// Builds a fleet over already-connected transports (shard `s` on
    /// `transports[s]`), performing the raw-stream handshake plus the
    /// [`Msg::ShardHello`] declaration on each. An invalid
    /// `(log_u, transports.len())` shape is refused with
    /// [`Rejection::InvalidConfig`] (see [`Self::connect`]).
    pub fn from_transports(transports: Vec<T>, log_u: u32) -> Result<Self, Rejection> {
        let fleet = transports.len();
        let mut transports = transports.into_iter();
        Self::join(log_u, fleet, |_| {
            RawClient::from_transport(transports.next().expect("one per shard"), log_u)
        })
    }

    /// The one fleet join behind every constructor: checks the shape,
    /// then dials shard `s` with `dial(s)` and declares its identity, in
    /// shard order. A shard that fails either step is blamed.
    fn join(
        log_u: u32,
        fleet: usize,
        mut dial: impl FnMut(usize) -> Result<RawClient<F, T>, Rejection>,
    ) -> Result<Self, Rejection> {
        let plan = validated_plan(log_u, fleet)?;
        let shards = (0..fleet)
            .map(|s| {
                let client = dial(s).map_err(|e| blame(s, e))?;
                client
                    .shard_hello(ShardSpec::new(s as u32, plan.shards()))
                    .map_err(|e| blame(s, e))?;
                Ok(client)
            })
            .collect::<Result<_, Rejection>>()?;
        Ok(ClusterClient {
            router: ShardRouter::new(plan),
            shards,
            recorder: sip_obs::FlightRecorder::new(FLIGHT_FRAMES),
            last_dump: None,
        })
    }

    /// The fleet partition.
    pub fn plan(&self) -> &ShardPlan {
        self.router.plan()
    }

    /// Number of shards `S`.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Uploads one update to its owning shard (buffered; remember to feed
    /// the digests too).
    pub fn send_update(&mut self, up: Update) {
        let s = self.router.route(up) as usize;
        self.shards[s].send_update(up);
    }

    /// Uploads a whole stream: partitioned per owning shard **once** by
    /// the shared [`ShardPlan`], then each shard connection takes a single
    /// buffered batch instead of one routing decision and buffer push per
    /// update.
    pub fn send_stream(&mut self, stream: &[Update]) {
        for (s, part) in self.router.split(stream).into_iter().enumerate() {
            if !part.is_empty() {
                self.shards[s].send_batch(&part);
            }
        }
    }

    /// Flushes buffered updates everywhere and marks the stream complete.
    pub fn end_stream(&mut self) -> Result<(), Rejection> {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.end_stream().map_err(|e| blame(s, e))?;
        }
        Ok(())
    }

    /// Publishes every shard's ingested slice server-wide under
    /// `dataset_id` — one frozen snapshot per shard server, all under the
    /// same name. A later fleet (same addresses, same plan) can
    /// [`Self::attach`] and query without re-ingesting; the lockstep
    /// aggregation semantics are unchanged.
    pub fn publish(&mut self, dataset_id: &str) -> Result<(), Rejection> {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.publish(dataset_id).map_err(|e| blame(s, e))?;
        }
        Ok(())
    }

    /// Attaches every shard session to its server's published snapshot of
    /// `dataset_id` (each shard server holds its own slice under that
    /// name).
    pub fn attach(&mut self, dataset_id: &str) -> Result<(), Rejection> {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.attach(dataset_id).map_err(|e| blame(s, e))?;
        }
        Ok(())
    }

    /// Ends every session politely, collecting each prover's own (advisory)
    /// cost accounting.
    pub fn bye(&mut self) -> Result<Vec<CostReport>, Rejection> {
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(s, shard)| shard.bye().map_err(|e| blame(s, e)))
            .collect()
    }

    /// Per-shard bytes/frames moved so far.
    pub fn stats(&self) -> Vec<TransportStats> {
        self.shards.iter().map(RawClient::stats).collect()
    }

    /// Runs one fleet-wide lockstep sum-check conversation.
    ///
    /// Opens `query` on every shard, collects the per-shard claims and
    /// round polynomials, feeds them through the per-prover residual
    /// checks, and broadcasts each revealed challenge (stamped with its
    /// round) to all shards. Sends fan out to the whole fleet before any
    /// reply is awaited, and every receive — the open and each round —
    /// drains all `S` replies at once ([`Self::receive_all`]), so a round
    /// costs the slowest shard's round trip, not the sum of `S`.
    /// `extra_v_words` charges query parameters (the range announcement)
    /// to every shard's books.
    fn drive_aggregate(
        &mut self,
        query: Query,
        extra_v_words: usize,
        mut agg: AggregatingVerifier<F>,
        streamed: &[F],
        space_words: usize,
    ) -> Result<ClusterVerified<F>, Rejection> {
        let n = self.shards.len();
        let mut qspan = sip_obs::trace::span("sip.cluster", "cluster_query");
        qspan.field("query", query.name());
        qspan.field("shards", n);
        // Announce the trace to every shard so each server session parents
        // its handle/decode spans under this query — one causal tree across
        // the whole fleet. Best-effort: a shard that cannot take the frame
        // will be blamed by the query proper moments later.
        if let Some(ctx) = sip_obs::trace::current_context() {
            self.recorder.bind_trace(ctx.trace_id);
            for shard in &mut self.shards {
                let _ = shard.tell_msg(&Msg::TraceContext {
                    trace_id: ctx.trace_id,
                    parent_span: ctx.span_id,
                });
            }
        }
        let mut report = ClusterCostReport::new(n);
        report.verifier_space_words = space_words;
        for r in &mut report.per_shard {
            r.v_to_p_words += extra_v_words;
        }
        let result = (|| {
            {
                let mut fspan = sip_obs::trace::span("sip.cluster", "fanout");
                fspan.field("what", "query");
                for (s, shard) in self.shards.iter_mut().enumerate() {
                    if sip_obs::enabled() {
                        self.recorder.record("out", format!("shard {s}: query"));
                    }
                    shard
                        .tell_msg(&Msg::Query(query))
                        .map_err(|e| blame(s, e))?;
                }
            }
            let ospan = sip_obs::trace::span("sip.cluster", "open");
            let mut polys = self.receive_all("claimed-value, round-poly", |shard| {
                let claimed = match shard.recv_msg()? {
                    Msg::ClaimedValue(v) => v,
                    other => return Err(unexpected("claimed-value", other.name())),
                };
                let poly = round_poly(shard.recv_msg()?)?;
                // The two opening messages must agree before any round runs
                // (length errors are left to the round checker, which
                // reports them with the proper round number). Together with
                // the round checks this pins the announced claim to the
                // proven value, so no post-finalize re-check is needed.
                if poly.len() >= 2 && poly[0] + poly[1] != claimed {
                    return Err(Rejection::MalformedAnswer {
                        detail: "claimed value disagrees with the first round polynomial".into(),
                    });
                }
                Ok(poly)
            })?;
            for r in &mut report.per_shard {
                r.p_to_v_words += 1;
            }
            drop(ospan);
            let mut round = 1u32;
            loop {
                let mut rspan = sip_obs::trace::span("sip.cluster", "round");
                rspan.field("round", round);
                for (s, poly) in polys.iter().enumerate() {
                    report.per_shard[s].rounds += 1;
                    report.per_shard[s].p_to_v_words += poly.len();
                }
                let step = {
                    let _v = sip_obs::trace::span("sip.cluster", "verifier_compute");
                    agg.receive_round(&polys)
                }?;
                match step {
                    Some(challenge) => {
                        {
                            let mut fspan = sip_obs::trace::span("sip.cluster", "fanout");
                            fspan.field("round", round);
                            for (s, shard) in self.shards.iter_mut().enumerate() {
                                report.per_shard[s].v_to_p_words += 1;
                                if sip_obs::enabled() {
                                    self.recorder
                                        .record("out", format!("shard {s}: broadcast-challenge"));
                                }
                                shard
                                    .tell_msg(&Msg::BroadcastChallenge { round, challenge })
                                    .map_err(|e| blame(s, e))?;
                            }
                        }
                        polys =
                            self.receive_all("round-poly", |shard| round_poly(shard.recv_msg()?))?;
                        round += 1;
                    }
                    None => break,
                }
            }
            let _v = sip_obs::trace::span("sip.cluster", "verifier_compute");
            agg.finalize(streamed)
        })();
        // Every shard learns the fleet-level verdict (including whom the
        // rejection blames — the guilty shard sees its own indictment).
        for shard in &mut self.shards {
            shard.verdict(&result);
        }
        if let Err(rej) = &result {
            self.dump_blame(rej);
        }
        let value = result?;
        Ok(ClusterVerified { value, report })
    }

    /// Runs one fleet-wide *one-shot* query: reveal the shared challenge
    /// prefix to every shard at once, collect one sealed proof frame per
    /// shard through the fan-in ([`Self::receive_all`]), then run every
    /// transcript replay and deferred round check locally — one round trip
    /// for the whole fleet query, whatever `log_u` is. Each shard's
    /// transcript binds its own identity, so a frame served by (or
    /// replayed from) the wrong shard dies on its digest comparison as
    /// [`Rejection::Blame`] naming that shard.
    #[allow(clippy::too_many_arguments)]
    fn drive_aggregate_oneshot(
        &mut self,
        query: Query,
        name: &str,
        params: &[u64],
        extra_v_words: usize,
        agg: AggregatingVerifier<F>,
        streamed: &[F],
        space_words: usize,
    ) -> Result<ClusterVerified<F>, Rejection> {
        let n = self.shards.len();
        let mut qspan = sip_obs::trace::span("sip.cluster", "cluster_query");
        qspan.field("query", query.name());
        qspan.field("shards", n);
        qspan.field("mode", "oneshot");
        if let Some(ctx) = sip_obs::trace::current_context() {
            self.recorder.bind_trace(ctx.trace_id);
            for shard in &mut self.shards {
                let _ = shard.tell_msg(&Msg::TraceContext {
                    trace_id: ctx.trace_id,
                    parent_span: ctx.span_id,
                });
            }
        }
        let challenges = agg.challenge_prefix().to_vec();
        let log_u = challenges.len() as u32 + 1;
        let mut report = ClusterCostReport::new(n);
        report.verifier_space_words = space_words;
        for r in &mut report.per_shard {
            r.rounds += 1;
            r.v_to_p_words += extra_v_words + challenges.len();
        }
        let result = (|| {
            let mut rtspan = sip_obs::trace::span("sip.cluster", "oneshot_roundtrip");
            rtspan.field("shards", n);
            {
                let mut fspan = sip_obs::trace::span("sip.cluster", "fanout");
                fspan.field("what", "query-oneshot");
                for (s, shard) in self.shards.iter_mut().enumerate() {
                    if sip_obs::enabled() {
                        self.recorder
                            .record("out", format!("shard {s}: query-oneshot"));
                    }
                    shard
                        .tell_msg(&Msg::QueryOneShot {
                            query,
                            challenges: challenges.clone(),
                        })
                        .map_err(|e| blame(s, e))?;
                }
            }
            let proofs = self.receive_all("proof", |shard| match shard.recv_msg()? {
                Msg::Proof {
                    claimed,
                    rounds,
                    digest,
                } => Ok(OneShotProof {
                    claimed,
                    rounds,
                    digest,
                }),
                other => Err(unexpected("proof", other.name())),
            })?;
            drop(rtspan);
            for (r, proof) in report.per_shard.iter_mut().zip(&proofs) {
                r.p_to_v_words += proof.words();
                if sip_obs::enabled() {
                    sip_obs::histogram("sip_cluster_oneshot_proof_words")
                        .observe(proof.words() as u64);
                }
            }
            let transcripts: Vec<Transcript> = (0..n)
                .map(|s| {
                    query_transcript::<F>(
                        name,
                        log_u,
                        Some((s as u32, n as u32)),
                        params,
                        &challenges,
                    )
                })
                .collect();
            let _v = sip_obs::trace::span("sip.cluster", "deferred_check");
            let timer = sip_obs::Timer::start();
            let out = agg.verify_oneshot(streamed, transcripts, &proofs);
            if sip_obs::enabled() {
                sip_obs::histogram("sip_cluster_oneshot_deferred_check_us")
                    .observe(timer.elapsed_us());
            }
            out
        })();
        for shard in &mut self.shards {
            shard.verdict(&result);
        }
        if let Err(rej) = &result {
            self.dump_blame(rej);
        }
        let value = result?;
        Ok(ClusterVerified { value, report })
    }

    /// One fleet receive: runs `recv` on every shard through [`fan_in`],
    /// books each shard's wait to its `sip_cluster_shard_wait_us` series
    /// (the lockstep rounds go at the pace of the slowest shard, and this is
    /// how you find it) and its reply to the flight recorder, in shard
    /// order. Returns the replies, or blames the lowest-index shard that
    /// failed — deterministic whatever order the threads finished in.
    fn receive_all<R: Send>(
        &mut self,
        what: &str,
        recv: impl Fn(&mut RawClient<F, T>) -> Result<R, Rejection> + Sync,
    ) -> Result<Vec<R>, Rejection> {
        let replies = fan_in(&mut self.shards, recv);
        if sip_obs::enabled() {
            for (s, (out, wait_us)) in replies.iter().enumerate() {
                let label = s.to_string();
                sip_obs::histogram_with("sip_cluster_shard_wait_us", &[("shard", &label)])
                    .observe(*wait_us);
                match out {
                    Ok(_) => self.recorder.record("in", format!("shard {s}: {what}")),
                    Err(e) => self.recorder.record("note", format!("shard {s}: {e}")),
                }
            }
        }
        replies
            .into_iter()
            .enumerate()
            .map(|(s, (out, _))| out.map_err(|e| blame(s, e)))
            .collect()
    }

    /// Freezes the flight recorder into a JSON dump after a query ended in
    /// rejection, naming the blamed shard in a `warn` event. The dump stays
    /// in memory ([`Self::last_flight_dump`]) — the verifier side has no
    /// `--data-dir`; servers write their own dumps on rejection.
    fn dump_blame(&mut self, rej: &Rejection) {
        if !sip_obs::enabled() {
            return;
        }
        let shard = rej
            .blamed_shard()
            .map_or_else(|| "-".to_string(), |s| s.to_string());
        let mut extra = vec![("rejection", rej.to_string())];
        if rej.blamed_shard().is_some() {
            extra.push(("blamed_shard", shard.clone()));
        }
        let json = self.recorder.dump_json("blame", &extra);
        sip_obs::event!(
            sip_obs::Level::Warn,
            "sip.cluster",
            "flight recorder dumped on blame",
            "blamed_shard" => shard,
            "rejection" => rej,
            "frames" => self.recorder.len(),
        );
        self.last_dump = Some(json);
    }

    /// The JSON flight-recorder dump from the most recent blamed query, if
    /// any — recent fleet frames plus the bound trace's spans, in the same
    /// shape the server writes to disk on rejection.
    pub fn last_flight_dump(&self) -> Option<&str> {
        self.last_dump.as_deref()
    }

    /// Refuses a digest drawn for a plan other than this fleet's.
    fn check_plan(&self, digest: &ShardPlan) -> Result<(), Rejection> {
        if digest == self.router.plan() {
            return Ok(());
        }
        Err(Rejection::InvalidConfig {
            detail: format!(
                "digest drawn for {digest:?}, but the fleet is {:?}",
                self.router.plan()
            ),
        })
    }

    /// Verified fleet-wide SELF-JOIN SIZE over everything uploaded so far.
    /// The digest must have observed exactly the uploaded stream.
    ///
    /// A digest drawn for another [`ShardPlan`] is refused with
    /// [`Rejection::InvalidConfig`] before any frame leaves — a mismatched
    /// universe or fleet size is a verifier-side configuration bug, not a
    /// prover to blame. The same holds for every `verify_*` below.
    pub fn verify_f2(
        &mut self,
        digest: ClusterF2Verifier<F>,
    ) -> Result<ClusterVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        let (agg, streamed) = digest.into_session();
        self.drive_aggregate(Query::SelfJoin, 0, agg, &streamed, space)
    }

    /// Verified fleet-wide RANGE-SUM over `[q_l, q_r]`.
    pub fn verify_range_sum(
        &mut self,
        digest: ClusterRangeSumVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<ClusterVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        let (agg, streamed) = digest.into_session(q_l, q_r);
        self.drive_aggregate(Query::RangeSum { l: q_l, r: q_r }, 2, agg, &streamed, space)
    }

    /// Verified fleet-wide SELF-JOIN SIZE in one round trip
    /// ([`Msg::QueryOneShot`] to every shard, one [`Msg::Proof`] back from
    /// each): same digests and same per-shard blame as [`Self::verify_f2`],
    /// with the whole post-stream conversation collapsed into a single
    /// parallel fan-out.
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_f2_oneshot(
        &mut self,
        digest: ClusterF2Verifier<F>,
    ) -> Result<ClusterVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        let (agg, streamed) = digest.into_session();
        self.drive_aggregate_oneshot(Query::SelfJoin, "self-join", &[], 0, agg, &streamed, space)
    }

    /// Verified fleet-wide RANGE-SUM over `[q_l, q_r]` in one round trip;
    /// see [`Self::verify_f2_oneshot`].
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_range_sum_oneshot(
        &mut self,
        digest: ClusterRangeSumVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<ClusterVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        let (agg, streamed) = digest.into_session(q_l, q_r);
        self.drive_aggregate_oneshot(
            Query::RangeSum { l: q_l, r: q_r },
            "range-sum",
            &[q_l, q_r],
            2,
            agg,
            &streamed,
            space,
        )
    }

    /// Verified fleet-wide SUB-VECTOR report over `[q_l, q_r]`: each
    /// overlapping shard proves its slice against its own hash tree;
    /// disjoint ascending slices concatenate in index order.
    pub fn verify_report(
        &mut self,
        mut digest: ClusterReportVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<ClusterVerified<Vec<(u64, F)>>, Rejection> {
        self.check_plan(digest.plan())?;
        let mut qspan = sip_obs::trace::span("sip.cluster", "cluster_query");
        qspan.field("query", "report");
        qspan.field("shards", self.shards.len());
        let mut report = ClusterCostReport::new(self.shards.len());
        let mut entries = Vec::new();
        for s in 0..self.shards.len() {
            let Some((l, r)) = self.router.clamp(s as u32, q_l, q_r) else {
                continue;
            };
            let verified = self.shards[s]
                .verify_report(digest.take(s), l, r)
                .map_err(|e| blame(s, e))?;
            report.absorb_shard(s, &verified.report);
            entries.extend(verified.entries);
        }
        Ok(ClusterVerified {
            value: entries,
            report,
        })
    }
}

/// Spawns `shards` pinned single-shard TCP prover servers on loopback —
/// each the equivalent of `sip-prover --listen 127.0.0.1:0 --shard s --of
/// shards --log-u log_u` — and returns their handles plus dial addresses
/// in shard order. The local half of a fleet deployment, shared by the
/// e2e/tamper suites, the bench and the demo; production fleets launch the
/// `sip-prover` binary instead.
pub fn spawn_local_fleet<F: PrimeField>(
    shards: u32,
    log_u: u32,
) -> std::io::Result<(Vec<ServerHandle>, Vec<std::net::SocketAddr>)> {
    let mut handles = Vec::with_capacity(shards as usize);
    for index in 0..shards {
        handles.push(sip_server::spawn::<F, _>(
            "127.0.0.1:0",
            ServerConfig {
                shard: Some(ShardSpec::new(index, shards)),
                require_log_u: Some(log_u),
                ..ServerConfig::default()
            },
        )?);
    }
    let addrs = handles.iter().map(ServerHandle::local_addr).collect();
    Ok((handles, addrs))
}

/// Connects a *key-value* fleet: one [`RemoteStore`] per shard, each
/// declared as its shard of the plan so the prover enforces its key range.
/// Box the result ([`sip_kvstore::boxed_fleet`]) for
/// [`sip_kvstore::ShardedClient`]; clones share connections, so keep the
/// originals for [`RemoteStore::bye`]/[`RemoteStore::stats`]. An invalid
/// `(log_u, addrs.len())` shape is refused with
/// [`Rejection::InvalidConfig`] (see [`ClusterClient::connect`]).
pub fn connect_kv_fleet<F: PrimeField, A: ToSocketAddrs>(
    addrs: &[A],
    log_u: u32,
) -> Result<Vec<RemoteStore<F, FramedTcpTransport>>, Rejection> {
    let plan = validated_plan(log_u, addrs.len())?;
    let mut stores = Vec::with_capacity(addrs.len());
    for (s, addr) in addrs.iter().enumerate() {
        let store: RemoteStore<F, _> =
            RemoteStore::connect(addr, log_u).map_err(|e| blame(s, e))?;
        store
            .shard_hello(ShardSpec::new(s as u32, plan.shards()))
            .map_err(|e| blame(s, e))?;
        stores.push(store);
    }
    Ok(stores)
}

/// Boxes a connected kv fleet for the [`sip_kvstore::ShardedClient`]
/// surface while keeping the originals usable (handles share connections).
pub fn boxed_kv_fleet<F: PrimeField>(
    stores: &[RemoteStore<F, FramedTcpTransport>],
) -> Vec<Box<dyn KvServer<F>>> {
    stores
        .iter()
        .map(|s| Box::new(s.clone()) as Box<dyn KvServer<F>>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_core::channel::InMemoryTransport;
    use sip_field::Fp61;
    use sip_server::session::run_session;
    use sip_streaming::{workloads, FrequencyVector};
    use std::thread;

    /// Spawns `shards` in-memory prover sessions and a cluster client over
    /// them.
    fn fleet(
        shards: u32,
        log_u: u32,
    ) -> (
        ClusterClient<Fp61, InMemoryTransport>,
        Vec<thread::JoinHandle<()>>,
    ) {
        let mut transports = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..shards {
            let (mut a, b) = InMemoryTransport::pair();
            servers.push(thread::spawn(move || {
                let hello = sip_wire::server_handshake::<Fp61, _>(&mut a).unwrap();
                let _ = run_session::<Fp61, _>(a, hello.mode, hello.log_u);
            }));
            transports.push(b);
        }
        let client = ClusterClient::from_transports(transports, log_u).unwrap();
        (client, servers)
    }

    #[test]
    fn fleet_f2_and_range_sum_match_ground_truth() {
        let log_u = 8;
        let stream = workloads::uniform(400, 1 << log_u, 30, 5);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        for shards in [1u32, 2, 4] {
            let plan = ShardPlan::new(log_u, shards);
            let mut rng = StdRng::seed_from_u64(shards as u64);
            let (mut client, servers) = fleet(shards, log_u);
            let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
            let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
            for &up in &stream {
                f2.update(up);
                rs.update(up);
                client.send_update(up);
            }
            client.end_stream().unwrap();
            let got = client.verify_f2(f2).unwrap();
            assert_eq!(
                got.value,
                Fp61::from_u128(fv.self_join_size() as u128),
                "S={shards}"
            );
            assert_eq!(got.report.shards(), shards as usize);
            let (q_l, q_r) = (40u64, 200u64);
            let got = client.verify_range_sum(rs, q_l, q_r).unwrap();
            assert_eq!(got.value, Fp61::from_i64(fv.range_sum(q_l, q_r) as i64));
            client.bye().unwrap();
            for s in servers {
                s.join().unwrap();
            }
        }
    }

    #[test]
    fn fleet_oneshot_queries_match_interactive_in_one_round() {
        let log_u = 8;
        let stream = workloads::uniform(400, 1 << log_u, 30, 5);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        for shards in [1u32, 2, 4] {
            let plan = ShardPlan::new(log_u, shards);
            let mut rng = StdRng::seed_from_u64(40 + shards as u64);
            let (mut client, servers) = fleet(shards, log_u);
            let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
            let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
            for &up in &stream {
                f2.update(up);
                rs.update(up);
                client.send_update(up);
            }
            client.end_stream().unwrap();
            let got = client.verify_f2_oneshot(f2).unwrap();
            assert_eq!(
                got.value,
                Fp61::from_u128(fv.self_join_size() as u128),
                "S={shards}"
            );
            for (s, per) in got.report.per_shard.iter().enumerate() {
                assert_eq!(per.rounds, 1, "S={shards} shard {s} must bill one round");
            }
            let (q_l, q_r) = (40u64, 200u64);
            let got = client.verify_range_sum_oneshot(rs, q_l, q_r).unwrap();
            assert_eq!(got.value, Fp61::from_i64(fv.range_sum(q_l, q_r) as i64));
            client.bye().unwrap();
            for s in servers {
                s.join().unwrap();
            }
        }
    }

    #[test]
    fn fleet_report_merges_shard_slices() {
        let log_u = 8;
        let u = 1u64 << log_u;
        let stream = workloads::distinct_key_values(80, u, 300, 7);
        let fv = FrequencyVector::from_stream(u, &stream);
        let shards = 4u32;
        let plan = ShardPlan::new(log_u, shards);
        let mut rng = StdRng::seed_from_u64(3);
        let (mut client, servers) = fleet(shards, log_u);
        let mut digest = ClusterReportVerifier::<Fp61>::new(plan, &mut rng);
        for &up in &stream {
            digest.update(up);
            client.send_update(up);
        }
        client.end_stream().unwrap();
        let (q_l, q_r) = (10u64, 230u64);
        let got = client.verify_report(digest, q_l, q_r).unwrap();
        let expect: Vec<(u64, Fp61)> = fv
            .range_report(q_l, q_r)
            .into_iter()
            .map(|(i, f)| (i, Fp61::from_i64(f)))
            .collect();
        assert_eq!(got.value, expect);
        client.bye().unwrap();
        for s in servers {
            s.join().unwrap();
        }
    }

    /// Drives one entry point with a digest drawn for another plan: the
    /// answer must be [`Rejection::InvalidConfig`], no frame may leave, and
    /// the fleet must still verify a query with the right digest.
    fn refuses_wrong_plan(
        call: impl Fn(&mut ClusterClient<Fp61, InMemoryTransport>, ShardPlan) -> Result<(), Rejection>,
    ) {
        let log_u = 6;
        let (mut client, servers) = fleet(2, log_u);
        client.end_stream().unwrap();
        for wrong in [ShardPlan::new(log_u, 4), ShardPlan::new(log_u + 1, 2)] {
            let before = client.stats();
            let err = call(&mut client, wrong).unwrap_err();
            assert!(
                matches!(err, Rejection::InvalidConfig { .. }),
                "{wrong:?}: {err}"
            );
            assert_eq!(client.stats(), before, "{wrong:?}: a frame left");
        }
        let plan = *client.plan();
        call(&mut client, plan).unwrap();
        client.bye().unwrap();
        for s in servers {
            s.join().unwrap();
        }
    }

    #[test]
    fn verify_f2_refuses_a_digest_for_another_plan() {
        refuses_wrong_plan(|client, plan| {
            let digest = ClusterF2Verifier::new(plan, &mut StdRng::seed_from_u64(1));
            client.verify_f2(digest).map(drop)
        });
    }

    #[test]
    fn verify_range_sum_refuses_a_digest_for_another_plan() {
        refuses_wrong_plan(|client, plan| {
            let digest = ClusterRangeSumVerifier::new(plan, &mut StdRng::seed_from_u64(2));
            client.verify_range_sum(digest, 3, 40).map(drop)
        });
    }

    #[test]
    fn verify_f2_oneshot_refuses_a_digest_for_another_plan() {
        refuses_wrong_plan(|client, plan| {
            let digest = ClusterF2Verifier::new(plan, &mut StdRng::seed_from_u64(3));
            client.verify_f2_oneshot(digest).map(drop)
        });
    }

    #[test]
    fn verify_range_sum_oneshot_refuses_a_digest_for_another_plan() {
        refuses_wrong_plan(|client, plan| {
            let digest = ClusterRangeSumVerifier::new(plan, &mut StdRng::seed_from_u64(4));
            client.verify_range_sum_oneshot(digest, 3, 40).map(drop)
        });
    }

    #[test]
    fn verify_report_refuses_a_digest_for_another_plan() {
        refuses_wrong_plan(|client, plan| {
            let digest = ClusterReportVerifier::new(plan, &mut StdRng::seed_from_u64(5));
            client.verify_report(digest, 3, 40).map(drop)
        });
    }

    #[test]
    fn misrouted_update_is_refused_by_the_shard() {
        // Bypass the router and push an update to the wrong shard: the
        // prover must refuse it (error frame → poisoned connection), so
        // two shards can never silently hold overlapping state.
        let log_u = 4;
        let plan = ShardPlan::new(log_u, 2);
        let mut rng = StdRng::seed_from_u64(8);
        let (mut client, servers) = fleet(2, log_u);
        let digest = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        // Shard 0 owns [0, 7]; hand it index 9 directly.
        client.shards[0].send_update(Update::new(9, 1));
        // The refusal surfaces at the next read from that connection —
        // either the flush itself or the first query message.
        let err = client
            .end_stream()
            .and_then(|()| client.verify_f2(digest).map(|_| ()))
            .unwrap_err();
        assert_eq!(err.blamed_shard(), Some(0), "{err}");
        drop(client);
        for s in servers {
            s.join().unwrap();
        }
    }
}

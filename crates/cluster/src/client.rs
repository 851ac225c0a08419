//! The fleet driver, [`Fleet`], and its two names: [`ClusterClient`] (one
//! prover per shard) and [`ReplicaFleet`] (`R` per shard). Only their
//! constructors differ; at `R = 1` both send the same frames.

use std::marker::PhantomData;
use std::net::ToSocketAddrs;
use std::time::Duration;

use sip_core::channel::{
    ClusterCostReport, CostReport, FramedTcpTransport, RetryPolicy, Transport, TransportStats,
};
use sip_core::error::Rejection;
use sip_core::sumcheck::{drive_fleet, AggregatingVerifier, FleetSession, OneShotProof};
use sip_core::transcript::query_transcript;
use sip_field::PrimeField;
use sip_kvstore::KvServer;
use sip_obs::trace::{SpanGuard, TraceContext};
use sip_server::client::{RawClient, RemoteStore, DEFAULT_CLIENT_TIMEOUT};
use sip_server::{ServerConfig, ServerHandle};
use sip_streaming::{ShardPlan, Update};
use sip_wire::{Msg, Query, ShardSpec, WireError};

use crate::digest::{ClusterF2Verifier, ClusterRangeSumVerifier, ClusterReportVerifier};
use crate::replica::{Member, ReplicaPlan};
use crate::router::ShardRouter;

/// A verified fleet answer: the composed value, per-shard cost accounting,
/// and the replica that served each shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetVerified<T> {
    /// The verified value (aggregate or merged report).
    pub value: T,
    /// Per-shard and total words; see [`ClusterCostReport::total`].
    pub report: ClusterCostReport,
    /// `served_by[s]` is the replica whose transcript verified for shard
    /// `s` (always 0 at `R = 1`).
    pub served_by: Vec<u32>,
}

/// A [`ClusterClient`] answer.
pub type ClusterVerified<T> = FleetVerified<T>;

/// A [`ReplicaFleet`] answer.
pub type ReplicaVerified<T> = FleetVerified<T>;

/// Constructor family of [`ClusterClient`]: one prover per shard.
pub enum Sharded {}

/// Constructor family of [`ReplicaFleet`]: `R` provers per shard.
pub enum Replicated {}

/// `S` shards × `R ≥ 1` replicas behind one aggregating verifier, over a
/// shard-major member table (`slot = shard·R + replica`, health per slot).
///
/// The caller owns the digests ([`ClusterF2Verifier`] &c. — they must
/// observe the same updates that are uploaded); the fleet owns the
/// conversations. It routes the stream to every live replica of the
/// owning shard, asks one replica per shard (by rotation) per query,
/// broadcasts each revealed challenge ([`Msg::BroadcastChallenge`]) and
/// runs the per-shard transcripts through [`drive_fleet`]. A
/// shard-attributable failure surfaces as [`Rejection::Blame`] naming it.
///
/// A transient fault fails the replica over. While a query opens, no
/// challenge has left, so the shard moves to a sibling with the same
/// digest; once one has, the digest is spent and the query ends in
/// `Blame(s, Io)`. A one-shot query re-asks a sibling after any failure
/// and indicts a replica whose proof failed where a sibling's verified
/// ([`Rejection::ReplicaDivergence`]). Either way, a replica whose
/// connection a wire fault condemned leaves rotation when the query ends.
pub struct Fleet<M, F: PrimeField, T: Transport> {
    pub(crate) rplan: ReplicaPlan,
    router: ShardRouter,
    /// Slot-ordered members (`rplan.slot(shard, replica)`).
    pub(crate) members: Vec<Member<F, T>>,
    /// Dial/readmit retry policy.
    pub(crate) policy: RetryPolicy,
    /// Per-query rotation so replica sampling spreads load.
    rotation: u64,
    /// Rolling record of recent fleet frames, dumped when a query ends in
    /// [`Rejection::Blame`] so the indictment ships with its evidence.
    pub(crate) recorder: sip_obs::FlightRecorder,
    /// JSON of the most recent dump (see [`Self::last_flight_dump`]).
    last_dump: Option<String>,
    _family: PhantomData<M>,
}

/// Drives the aggregate and reporting protocols against `S` sharded
/// provers, one per shard.
pub type ClusterClient<F, T> = Fleet<Sharded, F, T>;

/// Drives the same protocols against `S` shards of `R` replicas each, with
/// failover and readmission.
pub type ReplicaFleet<F, T> = Fleet<Replicated, F, T>;

/// Flight-recorder depth: a lockstep round is `S` sends plus `S` receives,
/// so 256 entries hold the last dozen-plus rounds of an `S = 8` fleet —
/// enough context to see what led to a blame.
const FLIGHT_FRAMES: usize = 256;

/// The single choke point every shard-attributable failure passes through:
/// count it and name the guilty shard in a structured event before the
/// [`Rejection::Blame`] propagates.
pub(crate) fn blame(s: u32, e: Rejection) -> Rejection {
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
    Rejection::blame(s, e)
}

/// Runs `work` on every item at once — the first on the calling thread,
/// the rest on scoped threads (none for one item) — so the fleet waits
/// for its slowest member, not for each in turn. Returns each result and
/// its blocking wait in µs, in item order, whatever order the threads
/// finished in.
fn fan_in<I: Send, R: Send>(items: Vec<I>, work: impl Fn(I) -> R + Sync) -> Vec<(R, u64)> {
    let timed = &|item: I| {
        let timer = sip_obs::Timer::start();
        let out = work(item);
        (out, timer.elapsed_us())
    };
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || timed(item))).collect();
        let mut out = vec![timed(first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        out
    })
}

/// What `query` announces beyond its name — the range of a RANGE-SUM —
/// which its one-shot transcript binds.
fn params(query: Query) -> Vec<u64> {
    match query {
        Query::RangeSum { l, r } => vec![l, r],
        _ => Vec::new(),
    }
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

/// A query's opening reply: the claimed value and the first round
/// polynomial, which must agree before any round runs (length errors are
/// left to the round checker). With the round checks this pins the claim
/// to the proven value.
fn open_reply<F: PrimeField, T: Transport>(
    client: &mut RawClient<F, T>,
) -> Result<Vec<F>, Rejection> {
    let claimed = match client.recv_msg()? {
        Msg::ClaimedValue(v) => v,
        other => return Err(unexpected("claimed-value", other.name())),
    };
    let poly = round_poly(client.recv_msg()?)?;
    if poly.len() >= 2 && poly[0] + poly[1] != claimed {
        return Err(Rejection::MalformedAnswer {
            detail: "claimed value disagrees with the first round polynomial".into(),
        });
    }
    Ok(poly)
}

fn oneshot_reply<F: PrimeField, T: Transport>(
    client: &mut RawClient<F, T>,
) -> Result<OneShotProof<F>, Rejection> {
    match client.recv_msg()? {
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
    }
}

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
        let rplan = ReplicaPlan::validate(log_u, addrs.len() as u32, 1)?;
        let dialled = addrs
            .iter()
            .map(|addr| RawClient::connect_with_timeout(addr, log_u, timeout));
        Self::join(rplan, RetryPolicy::standard(), dialled)
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
        let rplan = ReplicaPlan::validate(log_u, addrs.len() as u32, 1)?;
        Self::dial_all(rplan, addrs, policy)
    }
}

impl<F: PrimeField, T: Transport> ClusterClient<F, T> {
    /// Builds a fleet over already-connected transports (shard `s` on
    /// `transports[s]`), performing the raw-stream handshake plus the
    /// [`Msg::ShardHello`] declaration on each. An invalid
    /// `(log_u, transports.len())` shape is refused with
    /// [`Rejection::InvalidConfig`] (see [`Self::connect`]).
    pub fn from_transports(transports: Vec<T>, log_u: u32) -> Result<Self, Rejection> {
        let rplan = ReplicaPlan::validate(log_u, transports.len() as u32, 1)?;
        Self::over(rplan, transports)
    }

    /// Ends every session politely, collecting each prover's own (advisory)
    /// cost accounting.
    pub fn bye(&mut self) -> Result<Vec<CostReport>, Rejection> {
        let byes = self
            .members
            .iter()
            .map(|m| m.client.as_ref().map(RawClient::bye));
        (0..)
            .zip(byes)
            .map(|(s, bye)| bye.ok_or_else(|| self.no_live(s))?.map_err(|e| blame(s, e)))
            .collect()
    }
}

impl<M, F: PrimeField, T: Transport> Fleet<M, F, T> {
    /// The one fleet join behind every constructor: takes one dialled
    /// session per slot of `rplan`, in slot order, and declares each one's
    /// `(shard, replica)` identity. A slot lost to a transient fault joins
    /// as [`crate::ReplicaHealth::Faulted`]; a soundness failure, or a
    /// shard left with no live replica, is blamed on its shard.
    pub(crate) fn join(
        rplan: ReplicaPlan,
        policy: RetryPolicy,
        dialled: impl IntoIterator<Item = Result<RawClient<F, T>, Rejection>>,
    ) -> Result<Self, Rejection> {
        let mut members = Vec::with_capacity(rplan.slots());
        for (slot, joined) in (0..rplan.slots()).zip(dialled) {
            let (s, r) = rplan.slot_coords(slot);
            let joined = joined.and_then(|client| {
                client.shard_hello(ShardSpec::with_replica(s, rplan.shards(), r))?;
                Ok(client)
            });
            members.push(Member::join(s, r, joined)?);
        }
        let fleet = Fleet {
            router: ShardRouter::new(*rplan.plan()),
            rplan,
            members,
            policy,
            rotation: 0,
            recorder: sip_obs::FlightRecorder::new(FLIGHT_FRAMES),
            last_dump: None,
            _family: PhantomData,
        };
        for s in 0..rplan.shards() {
            fleet.require_live(s)?;
        }
        Ok(fleet)
    }

    /// [`Self::join`] over already-connected transports, in slot order.
    pub(crate) fn over(rplan: ReplicaPlan, transports: Vec<T>) -> Result<Self, Rejection> {
        let log_u = rplan.plan().log_u();
        let dialled = transports
            .into_iter()
            .map(|transport| RawClient::from_transport(transport, log_u));
        Self::join(rplan, RetryPolicy::standard(), dialled)
    }

    /// The shard partition.
    pub fn plan(&self) -> &ShardPlan {
        self.rplan.plan()
    }

    /// Number of shards `S`.
    pub fn shards(&self) -> usize {
        self.rplan.shards() as usize
    }

    /// Bytes/frames moved so far, per prover slot (shard-major; a slot out
    /// of service reads zero).
    pub fn stats(&self) -> Vec<TransportStats> {
        self.members
            .iter()
            .map(|m| m.client.as_ref().map(RawClient::stats).unwrap_or_default())
            .collect()
    }

    /// The JSON flight-recorder dump from the most recent blamed query or
    /// indictment, if any — recent fleet frames plus the bound trace's
    /// spans, in the same shape the server writes to disk on rejection.
    pub fn last_flight_dump(&self) -> Option<&str> {
        self.last_dump.as_deref()
    }

    /// Uploads one update to every live replica of its owning shard
    /// (buffered; remember to feed the digests too).
    pub fn send_update(&mut self, up: Update) {
        let s = self.router.route(up);
        for client in self.replicas_of(s) {
            client.send_update(up);
        }
    }

    /// Uploads a whole stream: partitioned per owning shard **once** by
    /// the shared [`ShardPlan`], then each live replica of that shard takes
    /// a single buffered batch — replication is at ingest, so any replica
    /// can later serve the proof.
    pub fn send_stream(&mut self, stream: &[Update]) {
        for (s, part) in self.router.split(stream).into_iter().enumerate() {
            if !part.is_empty() {
                for client in self.replicas_of(s as u32) {
                    client.send_batch(&part);
                }
            }
        }
    }

    fn replicas_of(&mut self, s: u32) -> impl Iterator<Item = &mut RawClient<F, T>> {
        let r = self.rplan.replicas() as usize;
        let first = s as usize * r;
        self.members[first..first + r]
            .iter_mut()
            .filter_map(|m| m.client.as_mut())
    }

    /// Flushes buffered updates everywhere and marks the stream complete.
    /// A replica lost to an I/O fault here is failed over (the shard
    /// survives on its siblings); a shard losing its *last* replica, or
    /// any soundness refusal, is an error.
    pub fn end_stream(&mut self) -> Result<(), Rejection> {
        self.on_every_live(|client| client.end_stream())
    }

    /// Publishes every live replica's ingested slice server-wide under
    /// `dataset_id` — one frozen snapshot per prover, all under the same
    /// name. A later fleet (same addresses, same plan) can
    /// [`Self::attach`] and query without re-ingesting.
    pub fn publish(&mut self, dataset_id: &str) -> Result<(), Rejection> {
        self.on_every_live(|client| client.publish(dataset_id))
    }

    /// Attaches every live session to its server's published snapshot of
    /// `dataset_id` (each shard server holds its own slice under that
    /// name).
    pub fn attach(&mut self, dataset_id: &str) -> Result<(), Rejection> {
        self.on_every_live(|client| client.attach(dataset_id))
    }

    /// Asks every live replica to persist its state as the durable
    /// checkpoint `dataset_id` — the snapshot a replacement replica later
    /// thaws via [`Fleet::readmit`]'s catch-up path.
    pub fn save_state(&mut self, dataset_id: &str) -> Result<(), Rejection> {
        self.on_every_live(|client| client.save_state(dataset_id).map(drop))
    }

    /// Live slots' clients among `slots`, with their slot, in slot order.
    fn clients(&mut self, slots: &[usize]) -> Vec<(usize, &mut RawClient<F, T>)> {
        self.members
            .iter_mut()
            .enumerate()
            .filter(|(slot, _)| slots.contains(slot))
            .filter_map(|(slot, m)| Some((slot, m.client.as_mut()?)))
            .collect()
    }

    /// Runs `op` on every live member at once through [`fan_in`]. Shard by
    /// shard, a transient fault fails the replica over; anything else, or
    /// a shard left with no live replica, is blamed — on the lowest such
    /// shard.
    fn on_every_live(
        &mut self,
        op: impl Fn(&RawClient<F, T>) -> Result<(), Rejection> + Sync,
    ) -> Result<(), Rejection> {
        let slots: Vec<usize> = (0..self.members.len()).collect();
        let replies = fan_in(self.clients(&slots), |(slot, client)| (slot, op(client)));
        let mut replies = replies.into_iter().map(|(reply, _)| reply).peekable();
        for s in 0..self.rplan.shards() {
            while let Some((slot, out)) =
                replies.next_if(|(slot, _)| self.rplan.slot_coords(*slot).0 == s)
            {
                if let Err(e) = out {
                    if !e.is_transient() {
                        return Err(blame(s, e));
                    }
                    self.fail_over(slot, e);
                }
            }
            self.require_live(s)?;
        }
        Ok(())
    }

    /// Refuses a digest drawn for a plan other than this fleet's — a
    /// mismatched universe or fleet size is a verifier-side configuration
    /// bug, not a prover to blame.
    fn check_plan(&self, digest: &ShardPlan) -> Result<(), Rejection> {
        if digest == self.plan() {
            return Ok(());
        }
        Err(Rejection::InvalidConfig {
            detail: format!(
                "digest drawn for {digest:?}, but the fleet is {:?}",
                self.plan()
            ),
        })
    }

    /// Live replicas of every shard in this query's rotation order: the
    /// first serves, the rest stand by.
    fn candidates(&mut self) -> Vec<std::vec::IntoIter<u32>> {
        self.rotation = self.rotation.wrapping_add(1);
        let rcount = self.rplan.replicas();
        let start = (self.rotation % u64::from(rcount)) as u32;
        (0..self.rplan.shards())
            .map(|s| {
                (0..rcount)
                    .map(|i| (start + i) % rcount)
                    .filter(|&r| self.members[self.rplan.slot(s, r)].client.is_some())
                    .collect::<Vec<_>>()
                    .into_iter()
            })
            .collect()
    }

    /// Opens a fleet query: its `cluster_query` span, the trace context
    /// every asked replica is told (so its server spans join the query's
    /// trace), and books carrying the digest's space and the query's
    /// parameters (the range announcement) per shard.
    fn begin(
        &mut self,
        query: Query,
        space_words: usize,
    ) -> (SpanGuard, Option<TraceContext>, ClusterCostReport) {
        let n = self.shards();
        let mut qspan = sip_obs::trace::span("sip.cluster", "cluster_query");
        qspan.field("query", query.name());
        qspan.field("shards", n);
        let trace = sip_obs::trace::current_context();
        if let Some(ctx) = &trace {
            self.recorder.bind_trace(ctx.trace_id);
        }
        let mut report = ClusterCostReport::new(n);
        report.verifier_space_words = space_words;
        let announced = params(query).len();
        for r in &mut report.per_shard {
            r.v_to_p_words += announced;
        }
        (qspan, trace, report)
    }

    /// Sends `msg` to every slot in `slots`. A failed send poisons that
    /// connection, and the next receive from it reports the fault, so the
    /// error is not returned here.
    fn tell_all(&mut self, slots: &[usize], msg: &Msg<F>) {
        for &slot in slots {
            let (s, r) = self.rplan.slot_coords(slot);
            if sip_obs::enabled() {
                self.recorder
                    .record("out", format!("shard {s} replica {r}: {}", msg.name()));
            }
            if let Some(client) = self.members[slot].client.as_mut() {
                let _ = client.tell_msg(msg);
            }
        }
    }

    /// Asks one live replica of every shard at once — the trace context,
    /// then `msg` — and hands each reply (`what`, read by `recv`) to
    /// `settle`, in shard order. A transient fault fails the replica over;
    /// that shard, and one whose reply `settle` gives up on
    /// (`Ok(Some(cause))`), is asked again of its next live replica in this
    /// query's rotation order. One with none left is blamed with its first
    /// soundness cause, else its last fault. Every replica asked is noted
    /// in `queried`, so it hears the verdict.
    #[allow(clippy::too_many_arguments)]
    fn ask<R: Send>(
        &mut self,
        msg: &Msg<F>,
        trace: Option<TraceContext>,
        queried: &mut Vec<usize>,
        what: &str,
        recv: impl Fn(&mut RawClient<F, T>) -> Result<R, Rejection> + Sync,
        mut settle: impl FnMut(
            &mut Self,
            usize,
            Result<R, Rejection>,
        ) -> Result<Option<Rejection>, Rejection>,
    ) -> Result<(), Rejection> {
        let mut candidates = self.candidates();
        let mut causes: Vec<Vec<Rejection>> = vec![Vec::new(); self.shards()];
        let mut open: Vec<u32> = (0..self.rplan.shards()).collect();
        while !open.is_empty() {
            let mut batch = Vec::with_capacity(open.len());
            for s in open.drain(..) {
                let r = candidates[s as usize]
                    .next()
                    .ok_or_else(|| self.no_live(s))?;
                batch.push(self.rplan.slot(s, r));
            }
            {
                let mut fspan = sip_obs::trace::span("sip.cluster", "fanout");
                fspan.field("what", msg.name());
                if let Some(ctx) = trace {
                    let context = Msg::TraceContext {
                        trace_id: ctx.trace_id,
                        parent_span: ctx.span_id,
                    };
                    self.tell_all(&batch, &context);
                }
                self.tell_all(&batch, msg);
            }
            queried.extend_from_slice(&batch);
            for (slot, out) in self.receive(&batch, what, &recv) {
                let settled = match out {
                    Err(e) if e.is_transient() => {
                        self.fail_over(slot, e.clone());
                        Some(e)
                    }
                    out => settle(self, slot, out)?,
                };
                let Some(cause) = settled else {
                    continue;
                };
                let s = self.rplan.slot_coords(slot).0;
                let causes = &mut causes[s as usize];
                causes.push(cause);
                if candidates[s as usize].len() == 0 {
                    let lie = causes.iter().position(|c| !c.is_transient());
                    return Err(blame(
                        s,
                        causes.swap_remove(lie.unwrap_or(causes.len() - 1)),
                    ));
                }
                open.push(s);
            }
        }
        Ok(())
    }

    /// One fleet receive: runs `recv` on every slot in `slots` through
    /// [`fan_in`] under one `shard_wait` span (the cluster-level wire-wait
    /// leg; it stays on the calling thread, whose trace context worker
    /// threads do not inherit), then books each wait to
    /// its shard's `sip_cluster_shard_wait_us` series — the lockstep rounds
    /// go at the pace of the slowest shard, and this is how you find it —
    /// and each reply to the flight recorder, in slot order.
    fn receive<R: Send>(
        &mut self,
        slots: &[usize],
        what: &str,
        recv: impl Fn(&mut RawClient<F, T>) -> Result<R, Rejection> + Sync,
    ) -> Vec<(usize, Result<R, Rejection>)> {
        let replies = {
            let mut wspan = sip_obs::trace::span("sip.cluster", "shard_wait");
            wspan.field("shards", slots.len());
            fan_in(self.clients(slots), |(slot, client)| (slot, recv(client)))
        };
        replies
            .into_iter()
            .map(|((slot, out), wait_us)| {
                if sip_obs::enabled() {
                    let (s, r) = self.rplan.slot_coords(slot);
                    let label = s.to_string();
                    sip_obs::histogram_with("sip_cluster_shard_wait_us", &[("shard", &label)])
                        .observe(wait_us);
                    match &out {
                        Ok(_) => self
                            .recorder
                            .record("in", format!("shard {s} replica {r}: {what}")),
                        Err(e) => self
                            .recorder
                            .record("note", format!("shard {s} replica {r}: {e}")),
                    }
                }
                (slot, out)
            })
            .collect()
    }

    /// Blames slot `slot`'s shard for `e`, failing the replica over first
    /// if the fault is transient.
    fn fault(&mut self, slot: usize, e: Rejection) -> Rejection {
        if e.is_transient() {
            self.fail_over(slot, e.clone());
        }
        blame(self.rplan.slot_coords(slot).0, e)
    }

    /// Ends a query: every replica asked hears the fleet-level verdict
    /// (including whom a rejection blames — the guilty shard sees its own
    /// indictment), one whose connection a wire fault condemned (an
    /// undecodable reply, an error frame) leaves rotation as
    /// [`ReplicaHealth::Faulted`](crate::ReplicaHealth::Faulted) — its
    /// every later frame would fail at once — and a rejection dumps the
    /// flight recorder.
    fn close(
        &mut self,
        queried: &[usize],
        report: ClusterCostReport,
        result: Result<(F, Vec<u32>), Rejection>,
    ) -> Result<FleetVerified<F>, Rejection> {
        let verdict = result.clone().map(|(value, _)| value);
        let mut condemned = Vec::new();
        for (slot, client) in self.clients(queried) {
            client.verdict(&verdict);
            condemned.extend(client.fault().map(|cause| (slot, cause)));
        }
        for (slot, cause) in condemned {
            self.fail_over(slot, cause);
        }
        if let Err(rej) = &result {
            self.dump("blame", rej);
        }
        let (value, served_by) = result?;
        Ok(FleetVerified {
            value,
            report,
            served_by,
        })
    }

    /// Runs one fleet-wide lockstep sum-check conversation.
    ///
    /// Opens `query` on one replica per shard ([`Self::ask`]): the sends
    /// fan out before any reply is awaited, and every receive — the open
    /// and each round — drains all shards at once ([`Self::receive`]), so
    /// a round costs the slowest shard's round trip, not the sum of `S`. A
    /// replica that faults transiently while the query opens is replaced by
    /// a sibling: no challenge has left, so the digest is still fresh. The
    /// rounds then run through [`drive_fleet`], where a fault is final.
    fn query(
        &mut self,
        query: Query,
        (mut agg, streamed): (AggregatingVerifier<F>, Vec<F>),
        space_words: usize,
    ) -> Result<FleetVerified<F>, Rejection> {
        let (_qspan, trace, mut report) = self.begin(query, space_words);
        let mut queried = Vec::new();
        let result = (|| {
            let mut opened: Vec<Option<(usize, Vec<F>)>> = vec![None; self.shards()];
            {
                let _ospan = sip_obs::trace::span("sip.cluster", "open");
                let reply = "claimed-value, round-poly";
                self.ask(
                    &Msg::Query(query),
                    trace,
                    &mut queried,
                    reply,
                    open_reply,
                    |fleet, slot, out| {
                        let s = fleet.rplan.slot_coords(slot).0;
                        opened[s as usize] = Some((slot, out.map_err(|e| blame(s, e))?));
                        Ok(None)
                    },
                )?;
            }
            for r in &mut report.per_shard {
                r.p_to_v_words += 1;
            }
            let (slots, polys): (Vec<usize>, Vec<Vec<F>>) = opened.into_iter().flatten().unzip();
            let served_by = slots
                .iter()
                .map(|&slot| self.rplan.slot_coords(slot).1)
                .collect();
            let mut session = Lockstep {
                fleet: &mut *self,
                slots,
                opened: Some(polys),
                round: 1,
            };
            let value = drive_fleet(&mut session, &mut agg, &streamed, &mut report)?;
            Ok((value, served_by))
        })();
        self.close(&queried, report, result)
    }

    /// Runs one fleet-wide *one-shot* query: reveal the shared challenge
    /// prefix to one replica per shard at once, collect one sealed proof
    /// frame per shard through the fan-in, then run every transcript replay
    /// and deferred round check locally — one round trip for the whole
    /// fleet query, whatever `log_u` is. Each shard's transcript binds its
    /// own identity, so a frame served by (or replayed from) the wrong
    /// shard dies on its digest comparison, blamed on that shard.
    ///
    /// A shard whose proof did not verify is asked again of a sibling
    /// ([`Self::ask`]): a transient fault fails the replica over, a failed
    /// proof makes it a suspect, indicted once a sibling's proof verifies.
    fn query_oneshot(
        &mut self,
        query: Query,
        (agg, streamed): (AggregatingVerifier<F>, Vec<F>),
        space_words: usize,
    ) -> Result<FleetVerified<F>, Rejection> {
        let (mut qspan, trace, mut report) = self.begin(query, space_words);
        qspan.field("mode", "oneshot");
        let n = self.shards();
        let challenges = agg.challenge_prefix().to_vec();
        let log_u = challenges.len() as u32 + 1;
        for r in &mut report.per_shard {
            r.rounds += 1;
            r.v_to_p_words += challenges.len();
        }
        let mut queried = Vec::new();
        let result = (|| {
            let mut value = F::ZERO;
            let mut served_by = vec![0; n];
            // Replicas whose proof failed — indicted the moment a sibling's
            // proof verifies.
            let mut suspects: Vec<Vec<(u32, Rejection)>> = vec![Vec::new(); n];
            let msg = Msg::QueryOneShot {
                query,
                challenges: challenges.clone(),
            };
            let mut rtspan = sip_obs::trace::span("sip.cluster", "oneshot_roundtrip");
            rtspan.field("shards", n);
            self.ask(
                &msg,
                trace,
                &mut queried,
                "proof",
                oneshot_reply,
                |fleet, slot, out| {
                    let (s, r) = fleet.rplan.slot_coords(slot);
                    let i = s as usize;
                    let checked = out.and_then(|proof| {
                        let words = proof.words();
                        if sip_obs::enabled() {
                            sip_obs::histogram("sip_cluster_oneshot_proof_words")
                                .observe(words as u64);
                        }
                        let transcript = query_transcript::<F>(
                            query.name(),
                            log_u,
                            Some((s, n as u32)),
                            &params(query),
                            &challenges,
                        );
                        let _v = sip_obs::trace::span("sip.cluster", "deferred_check");
                        let timer = sip_obs::Timer::start();
                        let out = agg.verify_oneshot_shard(i, streamed[i], transcript, &proof);
                        if sip_obs::enabled() {
                            sip_obs::histogram("sip_cluster_oneshot_deferred_check_us")
                                .observe(timer.elapsed_us());
                        }
                        out.map(|v| (v, words))
                    });
                    match checked {
                        Ok((v, words)) => {
                            value += v;
                            served_by[i] = r;
                            report.per_shard[i].p_to_v_words += words;
                            for (guilty, cause) in std::mem::take(&mut suspects[i]) {
                                fleet.indict(s, guilty, r, cause);
                            }
                            Ok(None)
                        }
                        Err(e) => {
                            // A wrong answer, decodable or not, is prover
                            // misbehaviour, not weather: a suspect.
                            suspects[i].push((r, e.clone()));
                            Ok(Some(e))
                        }
                    }
                },
            )?;
            Ok((value, served_by))
        })();
        self.close(&queried, report, result)
    }

    /// Freezes the flight recorder into a JSON dump (`reason`: `blame` or
    /// `indictment`) naming the blamed shard in a `warn` event. The dump
    /// stays in memory ([`Self::last_flight_dump`]) — the verifier side has
    /// no `--data-dir`; servers write their own dumps on rejection.
    pub(crate) fn dump(&mut self, reason: &str, rej: &Rejection) {
        if !sip_obs::enabled() {
            return;
        }
        let shard = rej.blamed_shard().map(|s| s.to_string());
        let mut extra = vec![("rejection", rej.to_string())];
        extra.extend(shard.clone().map(|s| ("blamed_shard", s)));
        let json = self.recorder.dump_json(reason, &extra);
        sip_obs::event!(
            sip_obs::Level::Warn,
            "sip.cluster",
            format!("flight recorder dumped on {reason}"),
            "blamed_shard" => shard.as_deref().unwrap_or("-"),
            "rejection" => rej,
            "frames" => self.recorder.len(),
        );
        self.last_dump = Some(json);
    }

    /// Verified fleet-wide SELF-JOIN SIZE over everything uploaded so far.
    /// The digest must have observed exactly the uploaded stream.
    ///
    /// A digest drawn for another [`ShardPlan`] is refused with
    /// [`Rejection::InvalidConfig`] before any frame leaves. The same holds
    /// for every `verify_*` below.
    pub fn verify_f2(
        &mut self,
        digest: ClusterF2Verifier<F>,
    ) -> Result<FleetVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        self.query(Query::SelfJoin, digest.into_session(), space)
    }

    /// Verified fleet-wide RANGE-SUM over `[q_l, q_r]`.
    pub fn verify_range_sum(
        &mut self,
        digest: ClusterRangeSumVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<FleetVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        let query = Query::RangeSum { l: q_l, r: q_r };
        self.query(query, digest.into_session(q_l, q_r), space)
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
    ) -> Result<FleetVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        self.query_oneshot(Query::SelfJoin, digest.into_session(), space)
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
    ) -> Result<FleetVerified<F>, Rejection> {
        self.check_plan(digest.plan())?;
        let space = digest.space_words();
        let query = Query::RangeSum { l: q_l, r: q_r };
        self.query_oneshot(query, digest.into_session(q_l, q_r), space)
    }

    /// Verified fleet-wide SUB-VECTOR report over `[q_l, q_r]`: each
    /// overlapping shard proves its slice against its own hash tree, all
    /// at once through the fan-in; disjoint ascending slices concatenate in
    /// index order. A failure is blamed on the lowest failing shard (a
    /// transient one fails its replica over).
    pub fn verify_report(
        &mut self,
        mut digest: ClusterReportVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<FleetVerified<Vec<(u64, F)>>, Rejection> {
        self.check_plan(digest.plan())?;
        let (_qspan, trace, mut report) = self.begin(Query::Report { l: q_l, r: q_r }, 0);
        let mut served_by = Vec::new();
        let mut jobs = Vec::new();
        for (s, mut order) in (0..).zip(self.candidates()) {
            let r = order.next().ok_or_else(|| self.no_live(s))?;
            served_by.push(r);
            if let Some((l, hi)) = self.router.clamp(s, q_l, q_r) {
                jobs.push((self.rplan.slot(s, r), l, hi, digest.take(s as usize)));
            }
        }
        let slots: Vec<usize> = jobs.iter().map(|job| job.0).collect();
        let work = self.clients(&slots).into_iter().zip(jobs).collect();
        let replies = fan_in(work, |((slot, client), (_, l, hi, tree))| {
            // Each shard's session announces the query's trace, from
            // whichever thread runs it.
            let _span = sip_obs::trace::span_under(trace, "sip.cluster", "report_shard");
            (slot, client.verify_report(tree, l, hi))
        });
        let mut entries = Vec::new();
        for ((slot, out), _) in replies {
            let verified = out.map_err(|e| self.fault(slot, e))?;
            report.absorb_shard(self.rplan.slot_coords(slot).0 as usize, &verified.report);
            entries.extend(verified.entries);
        }
        Ok(FleetVerified {
            value: entries,
            report,
            served_by,
        })
    }
}

/// The remote adapter of [`drive_fleet`]: the picked replica of every
/// shard, opened, with its first polynomial held for round 1.
struct Lockstep<'f, M, F: PrimeField, T: Transport> {
    fleet: &'f mut Fleet<M, F, T>,
    /// The serving slot of every shard, in shard order.
    slots: Vec<usize>,
    opened: Option<Vec<Vec<F>>>,
    /// The round the next broadcast challenge closes.
    round: u32,
}

impl<M, F: PrimeField, T: Transport> FleetSession<F> for Lockstep<'_, M, F, T> {
    fn messages(&mut self) -> Result<Vec<Vec<F>>, Rejection> {
        if let Some(polys) = self.opened.take() {
            return Ok(polys);
        }
        let replies = self.fleet.receive(&self.slots, "round-poly", |client| {
            round_poly(client.recv_msg()?)
        });
        replies
            .into_iter()
            .map(|(slot, out)| out.map_err(|e| self.fleet.fault(slot, e)))
            .collect()
    }

    fn broadcast(&mut self, challenge: F) -> Result<(), Rejection> {
        let mut fspan = sip_obs::trace::span("sip.cluster", "fanout");
        fspan.field("round", self.round);
        let msg = Msg::BroadcastChallenge {
            round: self.round,
            challenge,
        };
        self.fleet.tell_all(&self.slots, &msg);
        self.round += 1;
        Ok(())
    }
}

/// Spawns `shards` pinned single-shard TCP prover servers on loopback —
/// each the equivalent of `sip-prover --listen 127.0.0.1:0 --shard s --of
/// shards --log-u log_u` — and returns their handles plus dial addresses
/// in shard order: [`spawn_replica_fleet`] at one replica.
pub fn spawn_local_fleet<F: PrimeField>(
    shards: u32,
    log_u: u32,
) -> std::io::Result<(Vec<ServerHandle>, Vec<std::net::SocketAddr>)> {
    spawn_replica_fleet::<F>(shards, 1, log_u)
}

/// Spawns `shards × replicas` pinned prover servers on loopback in
/// shard-major slot order — replica `r` of shard `s` at
/// `addrs[s·replicas + r]`, each the equivalent of `sip-prover --listen
/// 127.0.0.1:0 --shard s --of shards --replica r --log-u log_u`. The local
/// half of a fleet deployment, shared by the e2e, tamper and chaos suites,
/// the bench and the demo; production fleets launch the `sip-prover`
/// binary instead.
pub fn spawn_replica_fleet<F: PrimeField>(
    shards: u32,
    replicas: u32,
    log_u: u32,
) -> std::io::Result<(Vec<ServerHandle>, Vec<std::net::SocketAddr>)> {
    let mut handles = Vec::with_capacity((shards * replicas) as usize);
    for s in 0..shards {
        for r in 0..replicas {
            handles.push(sip_server::spawn::<F, _>(
                "127.0.0.1:0",
                ServerConfig {
                    shard: Some(ShardSpec::with_replica(s, shards, r)),
                    require_log_u: Some(log_u),
                    ..ServerConfig::default()
                },
            )?);
        }
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
    let rplan = ReplicaPlan::validate(log_u, addrs.len() as u32, 1)?;
    let mut stores = Vec::with_capacity(addrs.len());
    for (s, addr) in (0..).zip(addrs) {
        let store: RemoteStore<F, _> =
            RemoteStore::connect(addr, log_u).map_err(|e| blame(s, e))?;
        store
            .shard_hello(ShardSpec::new(s, rplan.shards()))
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
        client.members[0]
            .client
            .as_mut()
            .unwrap()
            .send_update(Update::new(9, 1));
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

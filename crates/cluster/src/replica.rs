//! Replicated shards: `R` provers per logical shard, verified failover.
//!
//! A fleet of single provers ([`ClusterClient`](crate::ClusterClient))
//! loses availability with every machine: one dead socket and the query —
//! or the whole ingest — fails. This module trades hardware for uptime
//! *without trading away soundness*: each logical shard is backed by `R`
//! replica provers fed the identical sub-stream, queries sample one
//! replica per shard (rotating, so load spreads), and an I/O fault fails
//! over to a sibling. Because the one-shot transcript binds the shard's
//! `(index, count)` identity but **not** the replica, honest replicas of a
//! shard are interchangeable at query time: any of them can produce the
//! proof the verifier's digest expects.
//!
//! That same property turns replication into a lie detector. When a
//! replica's proof fails the deferred checks, the fleet *cross-examines*
//! its siblings with the same one-shot query. If a sibling's proof
//! verifies, exactly one of the two lied — and the algebra already named
//! it: the failing replica is indicted with
//! [`Rejection::ReplicaDivergence`] (shard, `[guilty, honest]`, and the
//! underlying cause), the honest replica's verified answer is served, and
//! the liar is quarantined. An honest replica can never be indicted: its
//! proof verifies against the verifier's own streamed digest, whatever any
//! sibling claims.
//!
//! Failure classification is the whole game (see
//! [`Rejection::is_transient`]): refused/cut/stalled sockets are *retried
//! or failed over*, soundness rejections are *final* — a fleet must never
//! spin on a lie, and never give up on a loose cable.

use std::net::ToSocketAddrs;

use sip_core::channel::{FramedTcpTransport, RetryPolicy, Transport};
use sip_core::error::{IoFault, Rejection};
use sip_core::sumcheck::{AggregatingVerifier, OneShotProof};
use sip_core::transcript::query_transcript;
use sip_field::PrimeField;
use sip_server::client::RawClient;
use sip_server::{ServerConfig, ServerHandle};
use sip_streaming::{ShardPlan, Update};
use sip_wire::{Msg, Query, ShardSpec, WireError};

use crate::digest::{ClusterF2Verifier, ClusterRangeSumVerifier};
use crate::router::ShardRouter;

/// Upper bound on replicas per shard. Replication is for fault tolerance,
/// not fan-out — past a handful of copies the marginal availability is
/// nil and the ingest amplification is not.
pub const MAX_REPLICAS: u32 = 8;

/// Flight-recorder depth for the replica driver (same sizing rationale as
/// the plain fleet driver: enough frames to see what led to an
/// indictment).
const FLIGHT_FRAMES: usize = 256;

/// A [`ShardPlan`] with a replication factor: `shards × replicas` prover
/// slots, laid out shard-major (`slot = shard·R + replica`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReplicaPlan {
    plan: ShardPlan,
    replicas: u32,
}

impl ReplicaPlan {
    /// Checks a `(log_u, shards, replicas)` shape, answering invalid ones
    /// with [`Rejection::InvalidConfig`].
    pub fn validate(log_u: u32, shards: u32, replicas: u32) -> Result<Self, Rejection> {
        let plan = ShardPlan::validate(log_u, shards)
            .map_err(|detail| Rejection::InvalidConfig { detail })?;
        if replicas == 0 {
            return Err(Rejection::InvalidConfig {
                detail: "a replica set needs at least one replica per shard".to_string(),
            });
        }
        if replicas > MAX_REPLICAS {
            return Err(Rejection::InvalidConfig {
                detail: format!("replication factor {replicas} exceeds {MAX_REPLICAS}"),
            });
        }
        Ok(ReplicaPlan { plan, replicas })
    }

    /// [`Self::validate`] for a flat slot list: `slots` provers must split
    /// evenly into shards of `replicas` copies each.
    pub fn for_slots(log_u: u32, slots: usize, replicas: u32) -> Result<Self, Rejection> {
        if replicas == 0 || slots == 0 || !slots.is_multiple_of(replicas as usize) {
            return Err(Rejection::InvalidConfig {
                detail: format!(
                    "{slots} prover slots do not split into shards of {replicas} replicas"
                ),
            });
        }
        Self::validate(log_u, (slots / replicas as usize) as u32, replicas)
    }

    /// The underlying shard partition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of logical shards `S`.
    pub fn shards(&self) -> u32 {
        self.plan.shards()
    }

    /// Replicas per shard `R`.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Total prover slots `S·R`.
    pub fn slots(&self) -> usize {
        (self.shards() * self.replicas) as usize
    }

    /// Flat slot index of `(shard, replica)` — shard-major.
    pub fn slot(&self, shard: u32, replica: u32) -> usize {
        debug_assert!(shard < self.shards() && replica < self.replicas);
        (shard * self.replicas + replica) as usize
    }

    /// Inverse of [`Self::slot`]: the `(shard, replica)` coordinates of a
    /// flat slot index.
    pub fn slot_coords(&self, slot: usize) -> (u32, u32) {
        debug_assert!(slot < self.slots());
        let slot = slot as u32;
        (slot / self.replicas, slot % self.replicas)
    }

    /// Pairs each slot's `(shard, replica)` coordinates with the matching
    /// entry of a shard-major address list — the scrape-target inventory
    /// a fleet observer (`sip-fleetobs --targets`) wants. `addrs` must
    /// have exactly [`Self::slots`] entries.
    pub fn fleet_targets<'a>(&self, addrs: &'a [String]) -> Vec<(u32, u32, &'a str)> {
        assert_eq!(
            addrs.len(),
            self.slots(),
            "one ops address per prover slot (shard-major)"
        );
        addrs
            .iter()
            .enumerate()
            .map(|(slot, addr)| {
                let (shard, replica) = self.slot_coords(slot);
                (shard, replica, addr.as_str())
            })
            .collect()
    }
}

/// One replica's standing with the fleet.
#[derive(Clone, Debug)]
pub enum ReplicaHealth {
    /// Connected and serving.
    Live,
    /// Lost to an I/O fault (the retained rejection). Eligible for
    /// [`ReplicaFleet::readmit`] once its prover is back.
    Faulted(Rejection),
    /// Caught serving a proof that diverged from a verified sibling — the
    /// retained [`Rejection::ReplicaDivergence`] names the evidence. Never
    /// readmitted automatically.
    Indicted(Rejection),
}

impl ReplicaHealth {
    fn is_live(&self) -> bool {
        matches!(self, ReplicaHealth::Live)
    }
}

struct Member<F: PrimeField, T: Transport> {
    client: Option<RawClient<F, T>>,
    health: ReplicaHealth,
}

/// A verified replica-fleet answer, with the replica that served each
/// shard (so callers and tests can see failover happen).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaVerified<T> {
    /// The verified value.
    pub value: T,
    /// `served_by[s]` is the replica whose proof verified for shard `s`.
    pub served_by: Vec<u32>,
}

/// The replica-aware fleet driver: `S` logical shards × `R` replicas,
/// one-shot queries with per-query replica sampling, failover on I/O
/// fault, and cross-examination on divergence.
///
/// Queries use the one-shot path exclusively: a sealed
/// [`OneShotProof`] per shard is exactly the unit that can be fetched
/// from *any* replica and re-fetched from a sibling when one proof fails
/// — an interactive lockstep conversation cannot change horses
/// mid-sum-check.
pub struct ReplicaFleet<F: PrimeField, T: Transport> {
    rplan: ReplicaPlan,
    router: ShardRouter,
    /// Slot-ordered members (`rplan.slot(shard, replica)`).
    members: Vec<Member<F, T>>,
    /// Dial/readmit retry policy.
    policy: RetryPolicy,
    /// Per-query rotation so replica sampling spreads load.
    rotation: u64,
    recorder: sip_obs::FlightRecorder,
    last_dump: Option<String>,
}

impl<F: PrimeField> ReplicaFleet<F, FramedTcpTransport> {
    /// Connects to `addrs.len() = S·R` provers in shard-major slot order
    /// (`addrs[s·R + r]` is replica `r` of shard `s`), retrying transient
    /// dial faults under [`RetryPolicy::standard`]. A slot that stays
    /// unreachable joins as [`ReplicaHealth::Faulted`]; construction fails
    /// only if some shard has *no* live replica, or the shape is invalid
    /// ([`Rejection::InvalidConfig`]).
    pub fn connect<A: ToSocketAddrs + Clone>(
        addrs: &[A],
        log_u: u32,
        replicas: u32,
    ) -> Result<Self, Rejection> {
        Self::connect_with_policy(addrs, log_u, replicas, &RetryPolicy::standard())
    }

    /// [`Self::connect`] with an explicit retry policy (also retained for
    /// later [`Self::readmit`] dials).
    pub fn connect_with_policy<A: ToSocketAddrs + Clone>(
        addrs: &[A],
        log_u: u32,
        replicas: u32,
        policy: &RetryPolicy,
    ) -> Result<Self, Rejection> {
        let rplan = ReplicaPlan::for_slots(log_u, addrs.len(), replicas)?;
        let mut members = Vec::with_capacity(addrs.len());
        for (slot, addr) in addrs.iter().enumerate() {
            let s = slot as u32 / replicas;
            let r = slot as u32 % replicas;
            let spec = ShardSpec::with_replica(s, rplan.shards(), r);
            let joined = dial(addr.clone(), log_u, policy, s).and_then(|client| {
                client.shard_hello(spec)?;
                Ok(client)
            });
            members.push(Member::join(s, r, joined)?);
        }
        Self::assemble(rplan, members, *policy)
    }

    /// Reconnects a [`ReplicaHealth::Faulted`] replica at `addr` under the
    /// fleet's retry policy and returns it to service. If `dataset_id` is
    /// given, the replica first thaws that durable checkpoint
    /// ([`RawClient::resume`]) — the `sip-durable`-powered catch-up path: a
    /// replacement prover pointed at the shard's snapshot rejoins with the
    /// ingested state its siblings hold. Without a checkpoint, readmission
    /// is only sound before any ingest. Indicted replicas are refused.
    pub fn readmit<A: ToSocketAddrs + Clone>(
        &mut self,
        shard: u32,
        replica: u32,
        addr: A,
        dataset_id: Option<&str>,
    ) -> Result<(), Rejection> {
        self.check_readmittable(shard, replica)?;
        let log_u = self.rplan.plan().log_u();
        let policy = self.policy;
        let client = dial(addr, log_u, &policy, shard).map_err(|e| self.blame_shard(shard, e))?;
        self.install(shard, replica, client, dataset_id)
    }
}

/// One policy-governed dial: transient faults back off and retry, with
/// every retry counted to `sip_cluster_retries_total{shard,cause}`.
fn dial<F: PrimeField, A: ToSocketAddrs + Clone>(
    addr: A,
    log_u: u32,
    policy: &RetryPolicy,
    shard: u32,
) -> Result<RawClient<F, FramedTcpTransport>, Rejection> {
    let deadline = policy.op_deadline;
    let label = shard.to_string();
    policy.run_observed(
        &mut |_| RawClient::connect_with_timeout(addr.clone(), log_u, deadline),
        |_, cause, _| {
            if sip_obs::enabled() {
                let why = cause.io_fault().map_or("other", IoFault::label);
                sip_obs::counter_with(
                    "sip_cluster_retries_total",
                    &[("shard", &label), ("cause", why)],
                )
                .inc();
            }
        },
    )
}

impl<F: PrimeField, T: Transport> ReplicaFleet<F, T> {
    /// Builds a replica fleet over already-connected transports in
    /// shard-major slot order (`transports[s·R + r]`), performing the
    /// handshake plus the replica-qualified [`Msg::ShardHello`] on each. A
    /// slot whose handshake dies on an I/O fault joins as
    /// [`ReplicaHealth::Faulted`]; a soundness failure, an invalid shape,
    /// or a shard with no live replica fails construction.
    pub fn from_transports(
        transports: Vec<T>,
        log_u: u32,
        replicas: u32,
    ) -> Result<Self, Rejection> {
        let rplan = ReplicaPlan::for_slots(log_u, transports.len(), replicas)?;
        let mut members = Vec::with_capacity(rplan.slots());
        for (slot, transport) in transports.into_iter().enumerate() {
            let s = slot as u32 / replicas;
            let r = slot as u32 % replicas;
            let spec = ShardSpec::with_replica(s, rplan.shards(), r);
            let joined = RawClient::from_transport(transport, log_u).and_then(|client| {
                client.shard_hello(spec)?;
                Ok(client)
            });
            members.push(Member::join(s, r, joined)?);
        }
        Self::assemble(rplan, members, RetryPolicy::standard())
    }

    fn assemble(
        rplan: ReplicaPlan,
        members: Vec<Member<F, T>>,
        policy: RetryPolicy,
    ) -> Result<Self, Rejection> {
        let fleet = ReplicaFleet {
            router: ShardRouter::new(*rplan.plan()),
            rplan,
            members,
            policy,
            rotation: 0,
            recorder: sip_obs::FlightRecorder::new(FLIGHT_FRAMES),
            last_dump: None,
        };
        for s in 0..fleet.rplan.shards() {
            fleet.require_live(s)?;
        }
        Ok(fleet)
    }

    /// The replicated partition.
    pub fn replica_plan(&self) -> &ReplicaPlan {
        &self.rplan
    }

    /// The underlying shard partition.
    pub fn plan(&self) -> &ShardPlan {
        self.rplan.plan()
    }

    /// A replica's current standing.
    pub fn health(&self, shard: u32, replica: u32) -> &ReplicaHealth {
        &self.members[self.rplan.slot(shard, replica)].health
    }

    /// Live replicas currently backing `shard`.
    pub fn live_replicas(&self, shard: u32) -> u32 {
        (0..self.rplan.replicas())
            .filter(|&r| self.members[self.rplan.slot(shard, r)].health.is_live())
            .count() as u32
    }

    /// Every [`Rejection::ReplicaDivergence`] indictment on record.
    pub fn indictments(&self) -> Vec<&Rejection> {
        self.members
            .iter()
            .filter_map(|m| match &m.health {
                ReplicaHealth::Indicted(rej) => Some(rej),
                _ => None,
            })
            .collect()
    }

    /// The JSON flight-recorder dump from the most recent indictment or
    /// fleet-level rejection, if any.
    pub fn last_flight_dump(&self) -> Option<&str> {
        self.last_dump.as_deref()
    }

    /// Uploads one update to every live replica of its owning shard
    /// (buffered; remember to feed the digests too).
    pub fn send_update(&mut self, up: Update) {
        let s = self.router.route(up);
        for r in 0..self.rplan.replicas() {
            if let Some(client) = self.members[self.rplan.slot(s, r)].client.as_mut() {
                client.send_update(up);
            }
        }
    }

    /// Uploads a whole stream: partitioned once by the shared plan, then
    /// each shard's batch goes to *every* live replica of that shard —
    /// replication is at ingest, so any replica can later serve the proof.
    pub fn send_stream(&mut self, stream: &[Update]) {
        for (s, part) in self.router.split(stream).into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            for r in 0..self.rplan.replicas() {
                if let Some(client) = self.members[self.rplan.slot(s as u32, r)].client.as_mut() {
                    client.send_batch(&part);
                }
            }
        }
    }

    /// Flushes buffered updates everywhere and marks the stream complete.
    /// A replica lost to an I/O fault here is failed over (the shard
    /// survives on its siblings); a shard losing its *last* replica, or
    /// any soundness refusal, is an error.
    pub fn end_stream(&mut self) -> Result<(), Rejection> {
        self.for_each_live(|client| client.end_stream().map(|_| ()))
    }

    /// Publishes every live replica's ingested slice under `dataset_id`
    /// (one snapshot per prover, all under the same name), with the same
    /// failover semantics as [`Self::end_stream`].
    pub fn publish(&mut self, dataset_id: &str) -> Result<(), Rejection> {
        self.for_each_live(|client| client.publish(dataset_id).map(|_| ()))
    }

    /// Asks every live replica to persist its state as the durable
    /// checkpoint `dataset_id` — the snapshot a replacement replica later
    /// thaws via [`Self::readmit`]'s catch-up path.
    pub fn save_state(&mut self, dataset_id: &str) -> Result<(), Rejection> {
        self.for_each_live(|client| client.save_state(dataset_id).map(|_| ()))
    }

    /// Ends every live session politely (best effort).
    pub fn bye(&mut self) {
        for m in &mut self.members {
            if let Some(client) = m.client.as_mut() {
                let _ = client.bye();
            }
        }
    }

    /// Like [`ReplicaFleet::readmit`] over an already-connected transport
    /// (in-process fleets and tests).
    pub fn readmit_transport(
        &mut self,
        shard: u32,
        replica: u32,
        transport: T,
        dataset_id: Option<&str>,
    ) -> Result<(), Rejection> {
        self.check_readmittable(shard, replica)?;
        let log_u = self.rplan.plan().log_u();
        let client =
            RawClient::from_transport(transport, log_u).map_err(|e| self.blame_shard(shard, e))?;
        self.install(shard, replica, client, dataset_id)
    }

    fn check_readmittable(&self, shard: u32, replica: u32) -> Result<(), Rejection> {
        if shard >= self.rplan.shards() || replica >= self.rplan.replicas() {
            return Err(Rejection::InvalidConfig {
                detail: format!(
                    "replica {replica} of shard {shard} is outside the {}x{} fleet",
                    self.rplan.shards(),
                    self.rplan.replicas()
                ),
            });
        }
        match &self.members[self.rplan.slot(shard, replica)].health {
            ReplicaHealth::Indicted(_) => Err(Rejection::InvalidConfig {
                detail: format!(
                    "replica {replica} of shard {shard} was indicted for divergence; \
                     it is not readmittable"
                ),
            }),
            _ => Ok(()),
        }
    }

    fn install(
        &mut self,
        shard: u32,
        replica: u32,
        client: RawClient<F, T>,
        dataset_id: Option<&str>,
    ) -> Result<(), Rejection> {
        let spec = ShardSpec::with_replica(shard, self.rplan.shards(), replica);
        client
            .shard_hello(spec)
            .and_then(|()| match dataset_id {
                Some(id) => client.resume(id).map(|_| ()),
                None => Ok(()),
            })
            .map_err(|e| self.blame_shard(shard, e))?;
        sip_obs::event!(
            sip_obs::Level::Info,
            "sip.cluster",
            "replica readmitted",
            "shard" => shard,
            "replica" => replica,
            "caught_up_from" => dataset_id.unwrap_or("-"),
        );
        self.recorder.record(
            "note",
            format!("shard {shard} replica {replica}: readmitted"),
        );
        let slot = self.rplan.slot(shard, replica);
        self.members[slot].client = Some(client);
        self.members[slot].health = ReplicaHealth::Live;
        Ok(())
    }

    /// Verified replicated SELF-JOIN SIZE in one round trip per shard,
    /// with failover and cross-examination. The digest must have observed
    /// exactly the uploaded stream and been drawn for this fleet's
    /// [`ShardPlan`] (else [`Rejection::InvalidConfig`]).
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_f2_oneshot(
        &mut self,
        digest: ClusterF2Verifier<F>,
    ) -> Result<ReplicaVerified<F>, Rejection> {
        self.check_digest_plan(digest.plan())?;
        let (agg, streamed) = digest.into_session();
        self.query_oneshot(Query::SelfJoin, "self-join", &[], agg, &streamed)
    }

    /// Verified replicated RANGE-SUM over `[q_l, q_r]`; see
    /// [`Self::verify_f2_oneshot`].
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_range_sum_oneshot(
        &mut self,
        digest: ClusterRangeSumVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<ReplicaVerified<F>, Rejection> {
        self.check_digest_plan(digest.plan())?;
        let (agg, streamed) = digest.into_session(q_l, q_r);
        self.query_oneshot(
            Query::RangeSum { l: q_l, r: q_r },
            "range-sum",
            &[q_l, q_r],
            agg,
            &streamed,
        )
    }

    fn check_digest_plan(&self, plan: &ShardPlan) -> Result<(), Rejection> {
        if plan == self.rplan.plan() {
            Ok(())
        } else {
            Err(Rejection::InvalidConfig {
                detail: "digest plan disagrees with the replica fleet".to_string(),
            })
        }
    }

    fn query_oneshot(
        &mut self,
        query: Query,
        name: &str,
        params: &[u64],
        agg: AggregatingVerifier<F>,
        streamed: &[F],
    ) -> Result<ReplicaVerified<F>, Rejection> {
        let n = self.rplan.shards();
        if agg.shards() != n as usize {
            return Err(Rejection::InvalidConfig {
                detail: "digest fleet size disagrees with the replica fleet".to_string(),
            });
        }
        let mut qspan = sip_obs::trace::span("sip.cluster", "replica_query");
        qspan.field("query", query.name());
        qspan.field("shards", n);
        qspan.field("replicas", self.rplan.replicas());
        if let Some(ctx) = sip_obs::trace::current_context() {
            self.recorder.bind_trace(ctx.trace_id);
        }
        let challenges = agg.challenge_prefix().to_vec();
        let log_u = challenges.len() as u32 + 1;
        self.rotation = self.rotation.wrapping_add(1);
        let mut served_by = Vec::with_capacity(n as usize);
        let mut queried: Vec<(u32, u32)> = Vec::new();
        let result = (|| {
            let mut value = F::ZERO;
            for s in 0..n {
                let (v, r) = self.query_shard(
                    s,
                    query,
                    name,
                    params,
                    &agg,
                    streamed[s as usize],
                    &challenges,
                    log_u,
                    &mut queried,
                )?;
                value += v;
                served_by.push(r);
            }
            Ok(value)
        })();
        // Every replica that saw the query learns the fleet-level verdict
        // (the indicted replica has already been disconnected).
        for (s, r) in queried {
            if let Some(client) = self.members[self.rplan.slot(s, r)].client.as_mut() {
                client.verdict(&result);
            }
        }
        if let Err(rej) = &result {
            self.dump("blame", rej);
        }
        result.map(|value| ReplicaVerified { value, served_by })
    }

    /// Serves shard `s`: try live replicas in rotation order; fail over on
    /// I/O faults, verify each fetched proof immediately, and
    /// cross-examine siblings when a proof fails the algebra. Returns the
    /// shard's verified contribution and the replica that served it.
    #[allow(clippy::too_many_arguments)]
    fn query_shard(
        &mut self,
        s: u32,
        query: Query,
        name: &str,
        params: &[u64],
        agg: &AggregatingVerifier<F>,
        streamed: F,
        challenges: &[F],
        log_u: u32,
        queried: &mut Vec<(u32, u32)>,
    ) -> Result<(F, u32), Rejection> {
        // Replicas whose proof failed verification, with the stripped
        // cause — indicted the moment a sibling's proof verifies.
        let mut suspects: Vec<(u32, Rejection)> = Vec::new();
        let mut last_fault: Option<Rejection> = None;
        for r in self.candidate_order(s) {
            queried.push((s, r));
            let proof = match self.fetch_proof(s, r, query, challenges) {
                Ok(proof) => proof,
                Err(e) if e.is_transient() => {
                    self.fail_over(s, r, e.clone());
                    last_fault = Some(e);
                    continue;
                }
                Err(e) => {
                    // A decodable-but-wrong answer is prover misbehaviour,
                    // not weather: treat it like a failed proof and let the
                    // cross-examination decide.
                    suspects.push((r, e));
                    continue;
                }
            };
            let transcript = query_transcript::<F>(
                name,
                log_u,
                Some((s, self.rplan.shards())),
                params,
                challenges,
            );
            match agg.verify_oneshot_shard(s as usize, streamed, transcript, &proof) {
                Ok(v) => {
                    for (guilty, cause) in std::mem::take(&mut suspects) {
                        self.indict(s, guilty, r, cause);
                    }
                    return Ok((v, r));
                }
                Err(e) => {
                    // verify_oneshot_shard wraps its cause in Blame(s);
                    // keep the naked cause for the divergence record.
                    let cause = match e {
                        Rejection::Blame { cause, .. } => *cause,
                        other => other,
                    };
                    suspects.push((r, cause));
                }
            }
        }
        // No replica produced a verifying proof. With suspects this is a
        // shard-level lie (every copy failed the algebra — indicting one
        // replica over another would be guesswork); otherwise the shard is
        // simply down.
        let cause = suspects
            .into_iter()
            .next()
            .map(|(_, c)| c)
            .or(last_fault)
            .unwrap_or_else(|| {
                Rejection::io(
                    IoFault::Other,
                    format!("shard {s}: no live replicas to query"),
                )
            });
        Err(self.blame_shard(s, cause))
    }

    /// Live replicas of `s` in this query's rotation order.
    fn candidate_order(&self, s: u32) -> Vec<u32> {
        let rcount = self.rplan.replicas();
        let start = (self.rotation % rcount as u64) as u32;
        (0..rcount)
            .map(|i| (start + i) % rcount)
            .filter(|&r| self.members[self.rplan.slot(s, r)].health.is_live())
            .collect()
    }

    /// One one-shot query round trip against replica `r` of shard `s`.
    fn fetch_proof(
        &mut self,
        s: u32,
        r: u32,
        query: Query,
        challenges: &[F],
    ) -> Result<OneShotProof<F>, Rejection> {
        if sip_obs::enabled() {
            self.recorder
                .record("out", format!("shard {s} replica {r}: query-oneshot"));
        }
        let slot = self.rplan.slot(s, r);
        let client = self.members[slot]
            .client
            .as_mut()
            .expect("candidate replicas are live");
        client.tell_msg(&Msg::QueryOneShot {
            query,
            challenges: challenges.to_vec(),
        })?;
        let timer = sip_obs::Timer::start();
        let out = client.recv_msg();
        if sip_obs::enabled() {
            let label = s.to_string();
            sip_obs::histogram_with("sip_cluster_shard_wait_us", &[("shard", &label)])
                .observe(timer.elapsed_us());
            match &out {
                Ok(msg) => self
                    .recorder
                    .record("in", format!("shard {s} replica {r}: {}", msg.name())),
                Err(_) => self
                    .recorder
                    .record("note", format!("shard {s} replica {r}: recv failed")),
            }
        }
        match out? {
            Msg::Proof {
                claimed,
                rounds,
                digest,
            } => Ok(OneShotProof {
                claimed,
                rounds,
                digest,
            }),
            other => Err(Rejection::MalformedAnswer {
                detail: format!(
                    "wire: {}",
                    WireError::UnexpectedMessage {
                        expected: "proof",
                        got: other.name(),
                    }
                ),
            }),
        }
    }

    /// Takes replica `r` of shard `s` out of service after an I/O fault.
    fn fail_over(&mut self, s: u32, r: u32, cause: Rejection) {
        if sip_obs::enabled() {
            let label = s.to_string();
            sip_obs::counter_with("sip_cluster_failovers_total", &[("shard", &label)]).inc();
        }
        sip_obs::event!(
            sip_obs::Level::Warn,
            "sip.cluster",
            "replica faulted; failing over",
            "shard" => s,
            "replica" => r,
            "cause" => cause,
        );
        self.recorder
            .record("note", format!("shard {s} replica {r}: faulted"));
        let slot = self.rplan.slot(s, r);
        self.members[slot].client = None;
        self.members[slot].health = ReplicaHealth::Faulted(cause);
    }

    /// Quarantines `guilty` after `honest`'s proof verified where its own
    /// failed, recording the typed divergence and dumping the flight
    /// recorder — an indictment always ships with its evidence.
    fn indict(&mut self, s: u32, guilty: u32, honest: u32, cause: Rejection) {
        let rej = Rejection::ReplicaDivergence {
            shard: s,
            replicas: vec![guilty, honest],
            cause: Box::new(cause),
        };
        if sip_obs::enabled() {
            sip_obs::counter("sip_cluster_indictments_total").inc();
        }
        sip_obs::event!(
            sip_obs::Level::Warn,
            "sip.cluster",
            "replica indicted for divergence",
            "shard" => s,
            "guilty_replica" => guilty,
            "honest_replica" => honest,
            "rejection" => rej,
        );
        self.dump("indictment", &rej);
        let slot = self.rplan.slot(s, guilty);
        self.members[slot].client = None;
        self.members[slot].health = ReplicaHealth::Indicted(rej);
    }

    fn blame_shard(&mut self, s: u32, cause: Rejection) -> Rejection {
        if sip_obs::enabled() {
            sip_obs::counter("sip_cluster_blame_total").inc();
        }
        sip_obs::event!(
            sip_obs::Level::Warn,
            "sip.cluster",
            "shard blamed",
            "shard" => s,
            "rejection" => cause,
        );
        Rejection::blame(s, cause)
    }

    fn dump(&mut self, reason: &str, rej: &Rejection) {
        if !sip_obs::enabled() {
            return;
        }
        let json = self
            .recorder
            .dump_json(reason, &[("rejection", rej.to_string())]);
        self.last_dump = Some(json);
    }

    /// Runs `op` on every live member; transient faults fail the replica
    /// over, anything else (or a shard losing its last replica) errors.
    fn for_each_live(
        &mut self,
        mut op: impl FnMut(&mut RawClient<F, T>) -> Result<(), Rejection>,
    ) -> Result<(), Rejection> {
        for s in 0..self.rplan.shards() {
            for r in 0..self.rplan.replicas() {
                let slot = self.rplan.slot(s, r);
                let Some(client) = self.members[slot].client.as_mut() else {
                    continue;
                };
                match op(client) {
                    Ok(()) => {}
                    Err(e) if e.is_transient() => self.fail_over(s, r, e),
                    Err(e) => return Err(self.blame_shard(s, e)),
                }
            }
            self.require_live(s)?;
        }
        Ok(())
    }

    /// Errors (with the retained fault as cause) if `shard` has no live
    /// replica left.
    fn require_live(&self, shard: u32) -> Result<(), Rejection> {
        if self.live_replicas(shard) > 0 {
            return Ok(());
        }
        let cause = (0..self.rplan.replicas())
            .find_map(|r| match &self.members[self.rplan.slot(shard, r)].health {
                ReplicaHealth::Faulted(e) | ReplicaHealth::Indicted(e) => Some(e.clone()),
                ReplicaHealth::Live => None,
            })
            .unwrap_or_else(|| {
                Rejection::io(IoFault::Other, format!("shard {shard}: no replicas"))
            });
        Err(Rejection::blame(shard, cause))
    }
}

impl<F: PrimeField, T: Transport> Member<F, T> {
    /// Folds a join attempt into a member: live on success, faulted on a
    /// transient error (the fleet can serve without it), fatal otherwise.
    fn join(s: u32, r: u32, joined: Result<RawClient<F, T>, Rejection>) -> Result<Self, Rejection> {
        match joined {
            Ok(client) => Ok(Member {
                client: Some(client),
                health: ReplicaHealth::Live,
            }),
            Err(e) if e.is_transient() => {
                sip_obs::event!(
                    sip_obs::Level::Warn,
                    "sip.cluster",
                    "replica unreachable at fleet join",
                    "shard" => s,
                    "replica" => r,
                    "cause" => e,
                );
                Ok(Member {
                    client: None,
                    health: ReplicaHealth::Faulted(e),
                })
            }
            Err(e) => Err(Rejection::blame(s, e)),
        }
    }
}

/// Spawns `shards × replicas` pinned prover servers on loopback in
/// shard-major slot order — replica `r` of shard `s` at
/// `addrs[s·replicas + r]`, each the equivalent of `sip-prover --listen
/// 127.0.0.1:0 --shard s --of shards --replica r --log-u log_u`. The local
/// half of a replicated deployment, shared by the chaos suite, bench and
/// demo.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn slot_coords_inverts_slot_and_enumerates_fleet_targets() {
        let plan = ReplicaPlan::validate(8, 3, 2).unwrap();
        for shard in 0..plan.shards() {
            for replica in 0..plan.replicas() {
                let slot = plan.slot(shard, replica);
                assert_eq!(plan.slot_coords(slot), (shard, replica));
            }
        }
        let addrs: Vec<String> = (0..plan.slots()).map(|i| format!("h:{i}")).collect();
        let targets = plan.fleet_targets(&addrs);
        assert_eq!(targets.len(), 6);
        // Shard-major: slot 3 is shard 1, replica 1.
        assert_eq!(targets[3], (1, 1, "h:3"));
        assert_eq!(targets[0], (0, 0, "h:0"));
        assert_eq!(targets[5], (2, 1, "h:5"));
    }
    use rand::SeedableRng;
    use sip_core::channel::{FaultPlan, FaultTransport, InMemoryTransport};
    use sip_field::Fp61;
    use sip_server::session::run_session;
    use sip_streaming::{workloads, FrequencyVector};
    use std::thread;

    /// Spawns an `S×R` in-memory replica fleet; `faults[slot]` wraps that
    /// slot's client-side transport in a chaos plan.
    fn replica_fleet(
        shards: u32,
        replicas: u32,
        log_u: u32,
        faults: &[FaultPlan],
    ) -> (
        ReplicaFleet<Fp61, FaultTransport<InMemoryTransport>>,
        Vec<thread::JoinHandle<()>>,
    ) {
        let slots = (shards * replicas) as usize;
        assert_eq!(faults.len(), slots);
        let mut transports = Vec::new();
        let mut servers = Vec::new();
        for plan in faults {
            let (mut a, b) = InMemoryTransport::pair();
            servers.push(thread::spawn(move || {
                // A chaos-afflicted client may never complete the
                // handshake; the server half just gives up.
                let Ok(hello) = sip_wire::server_handshake::<Fp61, _>(&mut a) else {
                    return;
                };
                let _ = run_session::<Fp61, _>(a, hello.mode, hello.log_u);
            }));
            transports.push(FaultTransport::new(b, plan.clone()));
        }
        let fleet = ReplicaFleet::from_transports(transports, log_u, replicas).unwrap();
        (fleet, servers)
    }

    #[test]
    fn replica_plan_shapes_are_validated_not_panicked() {
        assert!(ReplicaPlan::validate(8, 4, 2).is_ok());
        for bad in [
            ReplicaPlan::validate(8, 4, 0),
            ReplicaPlan::validate(8, 4, MAX_REPLICAS + 1),
            ReplicaPlan::validate(0, 4, 2),
            ReplicaPlan::validate(2, 100, 2),
            ReplicaPlan::for_slots(8, 7, 2),
            ReplicaPlan::for_slots(8, 0, 2),
        ] {
            assert!(
                matches!(bad, Err(Rejection::InvalidConfig { .. })),
                "{bad:?}"
            );
        }
        let plan = ReplicaPlan::for_slots(8, 6, 3).unwrap();
        assert_eq!((plan.shards(), plan.replicas(), plan.slots()), (2, 3, 6));
        assert_eq!(plan.slot(1, 2), 5);
    }

    #[test]
    fn replicated_fleet_answers_and_rotates_replicas() {
        let log_u = 8;
        let (shards, replicas) = (2u32, 2u32);
        let stream = workloads::uniform(300, 1 << log_u, 17, 4);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let plan = ShardPlan::new(log_u, shards);
        let mut rng = StdRng::seed_from_u64(7);
        let faults = vec![FaultPlan::none(); (shards * replicas) as usize];
        let (mut fleet, servers) = replica_fleet(shards, replicas, log_u, &faults);
        let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
        for &up in &stream {
            f2.update(up);
            rs.update(up);
        }
        fleet.send_stream(&stream);
        fleet.end_stream().unwrap();
        let got = fleet.verify_f2_oneshot(f2).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.self_join_size() as u128));
        let first = got.served_by.clone();
        let got = fleet.verify_range_sum_oneshot(rs, 30, 200).unwrap();
        assert_eq!(got.value, Fp61::from_i64(fv.range_sum(30, 200) as i64));
        // Per-query sampling rotated to the other replica.
        assert_ne!(first, got.served_by, "rotation must spread load");
        fleet.bye();
        for s in servers {
            let _ = s.join();
        }
    }

    #[test]
    fn faulted_replica_fails_over_and_honest_answer_survives() {
        let log_u = 8;
        let (shards, replicas) = (2u32, 2u32);
        let stream = workloads::uniform(250, 1 << log_u, 11, 9);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let plan = ShardPlan::new(log_u, shards);
        let mut rng = StdRng::seed_from_u64(9);
        // Replica 1 of shard 1 — the replica the first query's rotation
        // samples — dies on its proof frame (the client's second inbound
        // frame after the hello ack, hence cut at frames_in = 1).
        let mut faults = vec![FaultPlan::none(); 4];
        faults[3] = FaultPlan::cut_after(1);
        let (mut fleet, servers) = replica_fleet(shards, replicas, log_u, &faults);
        let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        for &up in &stream {
            f2.update(up);
        }
        fleet.send_stream(&stream);
        fleet.end_stream().unwrap();
        let got = fleet.verify_f2_oneshot(f2).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.self_join_size() as u128));
        assert_eq!(got.served_by[1], 0, "shard 1 failed over to replica 0");
        assert!(
            matches!(fleet.health(1, 1), ReplicaHealth::Faulted(_)),
            "the cut replica is out of service"
        );
        assert_eq!(fleet.live_replicas(1), 1);
        fleet.bye();
        for s in servers {
            let _ = s.join();
        }
    }

    #[test]
    fn dead_on_arrival_replica_joins_faulted_and_fleet_serves() {
        let log_u = 8;
        let (shards, replicas) = (2u32, 2u32);
        let stream = workloads::uniform(200, 1 << log_u, 13, 2);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let plan = ShardPlan::new(log_u, shards);
        let mut rng = StdRng::seed_from_u64(11);
        let mut faults = vec![FaultPlan::none(); 4];
        faults[1] = FaultPlan::conn_refused();
        let (mut fleet, servers) = replica_fleet(shards, replicas, log_u, &faults);
        assert!(matches!(fleet.health(0, 1), ReplicaHealth::Faulted(_)));
        assert_eq!(fleet.live_replicas(0), 1);
        let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        for &up in &stream {
            f2.update(up);
        }
        fleet.send_stream(&stream);
        fleet.end_stream().unwrap();
        let got = fleet.verify_f2_oneshot(f2).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.self_join_size() as u128));
        fleet.bye();
        for s in servers {
            let _ = s.join();
        }
    }

    #[test]
    fn whole_shard_down_is_a_typed_blame_not_a_panic() {
        let log_u = 8;
        let (shards, replicas) = (2u32, 2u32);
        let mut faults = vec![FaultPlan::none(); 4];
        faults[2] = FaultPlan::conn_refused();
        faults[3] = FaultPlan::conn_refused();
        let slots = (shards * replicas) as usize;
        let mut transports = Vec::new();
        let mut servers = Vec::new();
        for plan in &faults[..slots] {
            let (mut a, b) = InMemoryTransport::pair();
            servers.push(thread::spawn(move || {
                let Ok(hello) = sip_wire::server_handshake::<Fp61, _>(&mut a) else {
                    return;
                };
                let _ = run_session::<Fp61, _>(a, hello.mode, hello.log_u);
            }));
            transports.push(FaultTransport::new(b, plan.clone()));
        }
        let err = ReplicaFleet::<Fp61, _>::from_transports(transports, log_u, replicas)
            .err()
            .expect("shard 1 has no live replica");
        assert_eq!(err.blamed_shard(), Some(1), "{err}");
        assert!(err.is_transient(), "{err}");
        for s in servers {
            let _ = s.join();
        }
    }
}

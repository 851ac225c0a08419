//! Replicated shards: the slot layout ([`ReplicaPlan`]), each slot's
//! standing ([`ReplicaHealth`]) and the moves between them — failover on
//! an I/O fault, indictment on divergence, readmission of a repaired
//! prover.
//!
//! Each logical shard is backed by `R` replica provers fed the identical
//! sub-stream. A shard's transcript binds its `(index, count)` identity but
//! **not** the replica, so any honest replica answers the digest the
//! verifier drew, and [`Fleet`] samples one per shard per query. Failure
//! classification is the whole game (see [`Rejection::is_transient`]):
//! refused/cut/stalled sockets are failed over, soundness rejections are
//! final — a fleet must never spin on a lie, and never give up on a loose
//! cable. An honest replica can never be indicted: its proof verifies
//! against the verifier's own streamed digest, whatever a sibling claims.

use std::net::ToSocketAddrs;

use sip_core::channel::{FramedTcpTransport, RetryPolicy, Transport};
use sip_core::error::{IoFault, Rejection};
use sip_field::PrimeField;
use sip_server::client::RawClient;
use sip_streaming::ShardPlan;
use sip_wire::ShardSpec;

use crate::client::{blame, Fleet, ReplicaFleet};

/// Upper bound on replicas per shard. Replication is for fault tolerance,
/// not fan-out — past a handful of copies the marginal availability is
/// nil and the ingest amplification is not.
pub const MAX_REPLICAS: u32 = 8;

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
    /// [`Fleet::readmit`] once its prover is back.
    Faulted(Rejection),
    /// Caught serving a proof that diverged from a verified sibling — the
    /// retained [`Rejection::ReplicaDivergence`] names the evidence. Never
    /// readmitted automatically.
    Indicted(Rejection),
}

/// One prover slot: its session while live, and its standing.
pub(crate) struct Member<F: PrimeField, T: Transport> {
    pub(crate) client: Option<RawClient<F, T>>,
    pub(crate) health: ReplicaHealth,
}

impl<F: PrimeField, T: Transport> Member<F, T> {
    /// Folds a join attempt into a member: live on success, faulted on a
    /// transient error (the fleet can serve without it), fatal otherwise.
    pub(crate) fn join(
        s: u32,
        r: u32,
        joined: Result<RawClient<F, T>, Rejection>,
    ) -> Result<Self, Rejection> {
        let (client, health) = match joined {
            Ok(client) => (Some(client), ReplicaHealth::Live),
            Err(e) if e.is_transient() => {
                sip_obs::event!(
                    sip_obs::Level::Warn,
                    "sip.cluster",
                    "replica unreachable at fleet join",
                    "shard" => s,
                    "replica" => r,
                    "cause" => e,
                );
                (None, ReplicaHealth::Faulted(e))
            }
            Err(e) => return Err(blame(s, e)),
        };
        Ok(Member { client, health })
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
    /// later [`Fleet::readmit`] dials).
    pub fn connect_with_policy<A: ToSocketAddrs + Clone>(
        addrs: &[A],
        log_u: u32,
        replicas: u32,
        policy: &RetryPolicy,
    ) -> Result<Self, Rejection> {
        let rplan = ReplicaPlan::for_slots(log_u, addrs.len(), replicas)?;
        Self::dial_all(rplan, addrs, policy)
    }
}

impl<F: PrimeField, T: Transport> ReplicaFleet<F, T> {
    /// Builds a replica fleet over already-connected transports in
    /// shard-major slot order (`transports[s·R + r]`), performing the
    /// handshake plus the replica-qualified [`sip_wire::Msg::ShardHello`]
    /// on each. A slot whose handshake dies on an I/O fault joins as
    /// [`ReplicaHealth::Faulted`]; a soundness failure, an invalid shape,
    /// or a shard with no live replica fails construction.
    pub fn from_transports(
        transports: Vec<T>,
        log_u: u32,
        replicas: u32,
    ) -> Result<Self, Rejection> {
        let rplan = ReplicaPlan::for_slots(log_u, transports.len(), replicas)?;
        Self::over(rplan, transports)
    }

    /// Ends every live session politely (best effort).
    pub fn bye(&mut self) {
        for client in self.members.iter().filter_map(|m| m.client.as_ref()) {
            let _ = client.bye();
        }
    }
}

impl<M, F: PrimeField> Fleet<M, F, FramedTcpTransport> {
    /// Dials every slot of `rplan` at `addrs[slot]` under `policy`.
    pub(crate) fn dial_all<A: ToSocketAddrs + Clone>(
        rplan: ReplicaPlan,
        addrs: &[A],
        policy: &RetryPolicy,
    ) -> Result<Self, Rejection> {
        let log_u = rplan.plan().log_u();
        let dialled = (0..)
            .zip(addrs)
            .map(|(slot, addr)| dial(addr.clone(), log_u, policy, rplan.slot_coords(slot).0));
        Self::join(rplan, *policy, dialled)
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
        let (shards, replicas) = (self.rplan.shards(), self.rplan.replicas());
        if shard >= shards || replica >= replicas {
            return Err(Rejection::InvalidConfig {
                detail: format!(
                    "replica {replica} of shard {shard} is outside the {shards}x{replicas} fleet"
                ),
            });
        }
        if let ReplicaHealth::Indicted(_) = self.health(shard, replica) {
            return Err(Rejection::InvalidConfig {
                detail: format!(
                    "replica {replica} of shard {shard} was indicted for divergence; \
                     it is not readmittable"
                ),
            });
        }
        let spec = ShardSpec::with_replica(shard, shards, replica);
        let client = dial(addr, self.rplan.plan().log_u(), &self.policy, shard)
            .and_then(|client| {
                client.shard_hello(spec)?;
                if let Some(id) = dataset_id {
                    client.resume(id)?;
                }
                Ok(client)
            })
            .map_err(|e| blame(shard, e))?;
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
}

impl<M, F: PrimeField, T: Transport> Fleet<M, F, T> {
    /// A replica's current standing.
    pub fn health(&self, shard: u32, replica: u32) -> &ReplicaHealth {
        &self.members[self.rplan.slot(shard, replica)].health
    }

    /// Live replicas currently backing `shard`.
    pub fn live_replicas(&self, shard: u32) -> u32 {
        (0..self.rplan.replicas())
            .filter(|&r| matches!(self.health(shard, r), ReplicaHealth::Live))
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

    /// Takes slot `slot` out of service after a fault that broke its
    /// connection.
    pub(crate) fn fail_over(&mut self, slot: usize, cause: Rejection) {
        let (s, r) = self.rplan.slot_coords(slot);
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
        self.members[slot].client = None;
        self.members[slot].health = ReplicaHealth::Faulted(cause);
    }

    /// Quarantines `guilty` after `honest`'s proof verified where its own
    /// failed, recording the typed divergence and dumping the flight
    /// recorder — an indictment always ships with its evidence.
    pub(crate) fn indict(&mut self, s: u32, guilty: u32, honest: u32, cause: Rejection) {
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

    /// Errors (with the retained fault as cause) if `shard` has no live
    /// replica left.
    pub(crate) fn require_live(&self, shard: u32) -> Result<(), Rejection> {
        if self.live_replicas(shard) > 0 {
            return Ok(());
        }
        Err(self.no_live(shard))
    }

    /// The blame for a shard with no live replica: the first retained
    /// fault or indictment is the cause.
    pub(crate) fn no_live(&self, shard: u32) -> Rejection {
        let cause = (0..self.rplan.replicas())
            .find_map(|r| match self.health(shard, r) {
                ReplicaHealth::Faulted(e) | ReplicaHealth::Indicted(e) => Some(e.clone()),
                ReplicaHealth::Live => None,
            })
            .unwrap_or_else(|| {
                Rejection::io(IoFault::Other, format!("shard {shard}: no live replicas"))
            });
        blame(shard, cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterF2Verifier, ClusterRangeSumVerifier};
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

    /// The interactive drivers are the plain cluster's: F₂, RANGE-SUM and
    /// SUB-VECTOR verify on a 2×2 fleet, one replica per shard serving
    /// each query in rotation.
    #[test]
    fn replicated_fleet_answers_interactively() {
        let log_u = 8;
        let (shards, replicas) = (2u32, 2u32);
        let stream = workloads::distinct_key_values(80, 1 << log_u, 300, 6);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let plan = ShardPlan::new(log_u, shards);
        let mut rng = StdRng::seed_from_u64(5);
        let faults = vec![FaultPlan::none(); (shards * replicas) as usize];
        let (mut fleet, servers) = replica_fleet(shards, replicas, log_u, &faults);
        let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
        let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
        let mut rep = crate::ClusterReportVerifier::<Fp61>::new(plan, &mut rng);
        for &up in &stream {
            f2.update(up);
            rs.update(up);
            rep.update(up);
        }
        fleet.send_stream(&stream);
        fleet.end_stream().unwrap();
        let got = fleet.verify_f2(f2).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.self_join_size() as u128));
        assert_eq!(got.served_by, vec![1, 1]);
        let got = fleet.verify_range_sum(rs, 30, 200).unwrap();
        assert_eq!(got.value, Fp61::from_i64(fv.range_sum(30, 200) as i64));
        assert_eq!(got.served_by, vec![0, 0]);
        let got = fleet.verify_report(rep, 10, 230).unwrap();
        let expect: Vec<(u64, Fp61)> = fv
            .range_report(10, 230)
            .into_iter()
            .map(|(i, f)| (i, Fp61::from_i64(f)))
            .collect();
        assert_eq!(got.value, expect);
        fleet.bye();
        for s in servers {
            let _ = s.join();
        }
    }

    /// A replica whose reply the verifier could not decode has a condemned
    /// connection: it leaves rotation as `Faulted` (so `readmit` can bring
    /// it back) and costs one query, not every other one.
    #[test]
    fn condemned_replica_leaves_rotation() {
        let log_u = 6;
        let stream = workloads::uniform(120, 1 << log_u, 9, 3);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let expect = Fp61::from_u128(fv.self_join_size() as u128);
        let plan = ShardPlan::new(log_u, 1);
        let mut rng = StdRng::seed_from_u64(12);
        let faults = [FaultPlan::none(), FaultPlan::flip_byte(1, 0)];
        let (mut fleet, servers) = replica_fleet(1, 2, log_u, &faults);
        let mut digests: Vec<_> = (0..4)
            .map(|_| ClusterF2Verifier::<Fp61>::new(plan, &mut rng))
            .collect();
        for digest in &mut digests {
            digest.update_all(&stream);
        }
        fleet.send_stream(&stream);
        fleet.end_stream().unwrap();
        let mut failed = 0;
        for digest in digests {
            match fleet.verify_f2(digest) {
                Ok(got) => assert_eq!(got.value, expect),
                Err(_) => failed += 1,
            }
        }
        assert!(failed <= 1, "{failed} of 4 queries failed");
        assert!(
            matches!(fleet.health(0, 1), ReplicaHealth::Faulted(_)),
            "{:?}",
            fleet.health(0, 1)
        );
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

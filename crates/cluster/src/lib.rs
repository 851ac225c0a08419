//! `sip-cluster`: horizontal scale-out of the prover — a sharded,
//! optionally replicated fleet behind one aggregating verifier, with
//! per-shard blame.
//!
//! The paper's two verifier tools are linear in the data — the streamed LDE
//! value `f_a(r)` (Theorem 1) and every sum-check round polynomial are sums
//! over the input — so a stream partitioned by index range
//! (`a = a_0 + … + a_{S−1}`, disjoint supports) is verified by combining
//! `S` per-shard transcripts driven in lockstep over **one shared secret
//! point**:
//!
//! * [`ShardRouter`] — partitions the update stream across the fleet by the
//!   deterministic [`ShardPlan`] split;
//! * [`ShardedLde`] — the verifier's digest: one accumulator per shard, all
//!   at the same secret `r`, at `S + log u` words
//!   ([`ClusterF2Verifier`] / [`ClusterRangeSumVerifier`] wrap it per
//!   query; [`ClusterReportVerifier`] keeps one hash tree per shard);
//! * [`Fleet`] — the one fleet driver: `S` shards of `R ≥ 1` replicas
//!   ([`ReplicaPlan`]). Each query picks one live replica per shard, fans
//!   out, **broadcasts** every challenge (`Msg::BroadcastChallenge`) and
//!   answers with the verified sum of the per-shard claims (F₂, RANGE-SUM
//!   by sum-check linearity; SUB-VECTOR by one tree per shard). Its two
//!   names, [`ClusterClient`] (`R = 1`) and [`ReplicaFleet`], differ only
//!   in their constructors. Kv-store queries go through
//!   [`sip_kvstore::ShardedClient`] over a [`connect_kv_fleet`].
//!
//! Soundness is unchanged — each shard's transcript faces the full
//! single-prover checks (`sip_core::sumcheck::aggregate` keeps per-prover
//! residuals) — and failures are *attributable*: a lying or flaky shard is
//! rejected with [`Rejection::Blame`] naming its shard id, so operators
//! evict one machine, not the fleet. Honest `S`-shard runs answer exactly
//! like `S = 1` on the same stream, with [`ClusterCostReport`] showing
//! per-shard and total words.
//!
//! [`Rejection::Blame`]: sip_core::error::Rejection
//! [`ClusterCostReport`]: sip_core::channel::ClusterCostReport
//! [`ShardPlan`]: sip_streaming::ShardPlan

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod digest;
pub mod persist;
pub mod replica;
pub mod router;

pub use client::{
    boxed_kv_fleet, connect_kv_fleet, spawn_local_fleet, spawn_replica_fleet, ClusterClient,
    ClusterVerified, Fleet, FleetVerified, ReplicaFleet, ReplicaVerified, Replicated, Sharded,
};
pub use digest::{
    ClusterDigest, ClusterF2Verifier, ClusterRangeSumVerifier, ClusterReportVerifier, ShardedLde,
};
pub use replica::{ReplicaHealth, ReplicaPlan, MAX_REPLICAS};
pub use router::ShardRouter;

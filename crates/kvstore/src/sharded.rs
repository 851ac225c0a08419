//! A verified key–value client over a *fleet* of stores, one per shard.
//!
//! [`ShardedClient`] implements the [`Client`] query surface
//! — `put`, `get`, `range`, `range_sum`, `self_join_size`, `predecessor`,
//! `successor`, `heavy_keys` — against `S` independent [`KvServer`]s, each
//! holding one contiguous key range of the
//! [`ShardPlan`] split. Every per-shard answer is
//! verified by that shard's own digests (fresh randomness per shard, same
//! budget discipline as the single-store client), and cross-shard results
//! compose by disjointness of the key ranges: a range scan concatenates,
//! aggregates add, neighbour queries walk shard by shard.
//!
//! A failed check names the guilty shard ([`Rejection::Blame`]): the other
//! `S − 1` stores' answers remain trustworthy, and an operator evicts one
//! machine rather than condemning the fleet.

use rand::Rng;
use sip_core::channel::ClusterCostReport;
use sip_core::error::Rejection;
use sip_field::PrimeField;
use sip_streaming::ShardPlan;

use crate::{Answer, Client, KvServer, QueryBudget};

/// A verified fleet-level query result: the composed value plus per-shard
/// cost accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedAnswer<T> {
    /// The verified value, composed across shards.
    pub value: T,
    /// Who paid what: one report per shard, totals via
    /// [`ClusterCostReport::total`].
    pub report: ClusterCostReport,
}

/// The data owner talking to a fleet of `S` key–value stores.
///
/// Holds one full [`Client`] (digest set) per shard — `S × O(log u)` words.
/// Queries consume budget only in the shards they touch.
pub struct ShardedClient<F: PrimeField> {
    plan: ShardPlan,
    clients: Vec<Client<F>>,
}

impl<F: PrimeField> ShardedClient<F> {
    /// Provisions per-shard digests for a fleet of `shards` stores over
    /// keys `[2^log_u]`. An invalid `(log_u, shards)` shape (empty fleet,
    /// more shards than keys, …) is refused with
    /// [`Rejection::InvalidConfig`] rather than a panic, so launchers can
    /// surface misconfiguration like any other rejection.
    pub fn new<R: Rng + ?Sized>(
        log_u: u32,
        shards: u32,
        budget: QueryBudget,
        rng: &mut R,
    ) -> Result<Self, Rejection> {
        let plan = ShardPlan::validate(log_u, shards)
            .map_err(|detail| Rejection::InvalidConfig { detail })?;
        Ok(ShardedClient {
            plan,
            clients: (0..shards)
                .map(|_| Client::new(log_u, budget, rng))
                .collect(),
        })
    }

    /// The fleet's index-range partition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Borrowed views of every shard's client (checkpoint state).
    pub fn shard_clients(&self) -> &[Client<F>] {
        &self.clients
    }

    /// Rebuilds a sharded client from checkpointed per-shard clients.
    ///
    /// # Panics
    /// Panics if the client count disagrees with the plan's shard count.
    pub fn from_shard_clients(plan: ShardPlan, clients: Vec<Client<F>>) -> Self {
        assert_eq!(
            clients.len() as u32,
            plan.shards(),
            "one client per shard of the plan"
        );
        ShardedClient { plan, clients }
    }

    /// Client memory in words across every shard's remaining digests.
    pub fn space_words(&self) -> usize {
        self.clients.iter().map(Client::space_words).sum()
    }

    fn check_fleet(&self, servers: &[Box<dyn KvServer<F>>]) -> Result<(), Rejection> {
        if servers.len() == self.clients.len() {
            Ok(())
        } else {
            Err(Rejection::InvalidConfig {
                detail: format!(
                    "fleet of {} servers disagrees with the {}-shard plan",
                    servers.len(),
                    self.clients.len()
                ),
            })
        }
    }

    /// Uploads `(key, value)` to the owning shard, updating that shard's
    /// digests. A wrong-sized fleet is refused with
    /// [`Rejection::InvalidConfig`].
    ///
    /// # Panics
    /// Panics if the key is out of range.
    pub fn put(
        &mut self,
        key: u64,
        value: u64,
        servers: &mut [Box<dyn KvServer<F>>],
    ) -> Result<(), Rejection> {
        self.check_fleet(servers)?;
        let s = self.plan.shard_of(key) as usize;
        self.clients[s].put(key, value, servers[s].as_mut());
        Ok(())
    }

    /// Uploads a whole batch of `(key, value)` pairs: the batch is split
    /// per owning shard **once**, then each shard's client and server take
    /// one batched ingest call instead of one call per pair. Digest values
    /// are bit-identical to repeated [`Self::put`]. A wrong-sized fleet is
    /// refused with [`Rejection::InvalidConfig`].
    ///
    /// # Panics
    /// Panics if any key is out of range.
    pub fn put_batch(
        &mut self,
        pairs: &[(u64, u64)],
        servers: &mut [Box<dyn KvServer<F>>],
    ) -> Result<(), Rejection> {
        self.check_fleet(servers)?;
        let mut per_shard: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.clients.len()];
        for &(key, value) in pairs {
            per_shard[self.plan.shard_of(key) as usize].push((key, value));
        }
        for (s, shard_pairs) in per_shard.into_iter().enumerate() {
            if !shard_pairs.is_empty() {
                self.clients[s].put_batch(&shard_pairs, servers[s].as_mut());
            }
        }
        Ok(())
    }

    fn blame<T>(s: usize, r: Result<Answer<T>, Rejection>) -> Result<Answer<T>, Rejection> {
        r.map_err(|e| Rejection::blame(s as u32, e))
    }

    /// Verified `get`: routed to the single shard owning `key`.
    pub fn get(
        &mut self,
        key: u64,
        servers: &[Box<dyn KvServer<F>>],
    ) -> Result<ShardedAnswer<Option<u64>>, Rejection> {
        self.check_fleet(servers)?;
        let s = self.plan.shard_of(key) as usize;
        let mut report = ClusterCostReport::new(self.clients.len());
        let got = Self::blame(s, self.clients[s].get(key, servers[s].as_ref()))?;
        report.absorb_shard(s, &got.report);
        Ok(ShardedAnswer {
            value: got.value,
            report,
        })
    }

    /// Verified range scan over `[q_l, q_r]`: each overlapping shard proves
    /// its slice; disjoint ascending ranges concatenate in key order.
    pub fn range(
        &mut self,
        q_l: u64,
        q_r: u64,
        servers: &[Box<dyn KvServer<F>>],
    ) -> Result<ShardedAnswer<Vec<(u64, u64)>>, Rejection> {
        self.check_fleet(servers)?;
        let mut report = ClusterCostReport::new(self.clients.len());
        let mut value = Vec::new();
        for (s, client) in self.clients.iter_mut().enumerate() {
            let Some((l, r)) = self.plan.clamp(s as u32, q_l, q_r) else {
                continue;
            };
            let got = Self::blame(s, client.range(l, r, servers[s].as_ref()))?;
            report.absorb_shard(s, &got.report);
            value.extend(got.value);
        }
        Ok(ShardedAnswer { value, report })
    }

    /// Verified sum of values under keys in `[q_l, q_r]`: per-shard
    /// verified sums over the clamped sub-ranges, added up.
    pub fn range_sum(
        &mut self,
        q_l: u64,
        q_r: u64,
        servers: &[Box<dyn KvServer<F>>],
    ) -> Result<ShardedAnswer<u64>, Rejection> {
        self.check_fleet(servers)?;
        let mut report = ClusterCostReport::new(self.clients.len());
        let mut value = 0u64;
        for (s, client) in self.clients.iter_mut().enumerate() {
            let Some((l, r)) = self.plan.clamp(s as u32, q_l, q_r) else {
                continue;
            };
            let got = Self::blame(s, client.range_sum(l, r, servers[s].as_ref()))?;
            report.absorb_shard(s, &got.report);
            value += got.value;
        }
        Ok(ShardedAnswer { value, report })
    }

    /// Verified `Σ value²` over the whole fleet (disjoint supports add).
    pub fn self_join_size(
        &mut self,
        servers: &[Box<dyn KvServer<F>>],
    ) -> Result<ShardedAnswer<u64>, Rejection> {
        self.check_fleet(servers)?;
        let mut report = ClusterCostReport::new(self.clients.len());
        let mut value = 0u64;
        for (s, client) in self.clients.iter_mut().enumerate() {
            let got = Self::blame(s, client.self_join_size(servers[s].as_ref()))?;
            report.absorb_shard(s, &got.report);
            value += got.value;
        }
        Ok(ShardedAnswer { value, report })
    }

    /// Verified predecessor (previous present key ≤ `q`): asks the owning
    /// shard, then walks down the fleet through verified-empty shards.
    pub fn predecessor(
        &mut self,
        q: u64,
        servers: &[Box<dyn KvServer<F>>],
    ) -> Result<ShardedAnswer<Option<u64>>, Rejection> {
        self.check_fleet(servers)?;
        let mut report = ClusterCostReport::new(self.clients.len());
        let mut s = self.plan.shard_of(q) as usize;
        let mut probe = q;
        loop {
            let got = Self::blame(s, self.clients[s].predecessor(probe, servers[s].as_ref()))?;
            report.absorb_shard(s, &got.report);
            if got.value.is_some() || s == 0 {
                return Ok(ShardedAnswer {
                    value: got.value,
                    report,
                });
            }
            // Shard s verifiably holds nothing ≤ probe; the next candidate
            // is the top of the previous shard's range.
            s -= 1;
            probe = self.plan.range(s as u32).1;
        }
    }

    /// Verified successor (next present key ≥ `q`): mirror of
    /// [`Self::predecessor`], walking up the fleet.
    pub fn successor(
        &mut self,
        q: u64,
        servers: &[Box<dyn KvServer<F>>],
    ) -> Result<ShardedAnswer<Option<u64>>, Rejection> {
        self.check_fleet(servers)?;
        let mut report = ClusterCostReport::new(self.clients.len());
        let last = self.clients.len() - 1;
        let mut s = self.plan.shard_of(q) as usize;
        let mut probe = q;
        loop {
            let got = Self::blame(s, self.clients[s].successor(probe, servers[s].as_ref()))?;
            report.absorb_shard(s, &got.report);
            if got.value.is_some() || s == last {
                return Ok(ShardedAnswer {
                    value: got.value,
                    report,
                });
            }
            s += 1;
            probe = self.plan.range(s as u32).0;
        }
    }

    /// Verified heavy keys at absolute `threshold` (≥ 2, counting the `+1`
    /// encoding): heaviness is per key, so the fleet answer is the
    /// concatenation of per-shard answers, already in key order.
    pub fn heavy_keys(
        &mut self,
        threshold: u64,
        servers: &[Box<dyn KvServer<F>>],
    ) -> Result<ShardedAnswer<Vec<(u64, u64)>>, Rejection> {
        self.check_fleet(servers)?;
        let mut report = ClusterCostReport::new(self.clients.len());
        let mut value = Vec::new();
        for (s, client) in self.clients.iter_mut().enumerate() {
            let got = Self::blame(s, client.heavy_keys(threshold, servers[s].as_ref()))?;
            report.absorb_shard(s, &got.report);
            value.extend(got.value);
        }
        Ok(ShardedAnswer { value, report })
    }
}

/// Boxes a fleet of homogeneous stores for the [`ShardedClient`] surface.
pub fn boxed_fleet<F: PrimeField, S: KvServer<F> + 'static>(
    stores: impl IntoIterator<Item = S>,
) -> Vec<Box<dyn KvServer<F>>> {
    stores
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn KvServer<F>>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attack, CloudStore, MaliciousStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;

    const LOG_U: u32 = 8;
    const SHARDS: u32 = 4;
    /// Roomy budget: the equivalence test runs the whole query surface
    /// against one store, which costs more digests than the default
    /// provisioning.
    const BIG_BUDGET: QueryBudget = QueryBudget {
        reporting: 64,
        aggregate: 32,
        heavy: 8,
    };

    /// Two keys per shard, values chosen so each shard has one heavy key.
    fn fleet_pairs(plan: &ShardPlan) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        for s in 0..plan.shards() {
            let (lo, hi) = plan.range(s);
            pairs.push((lo + 1, 100 + s as u64));
            pairs.push((hi, 7));
        }
        pairs
    }

    type Fleet = Vec<Box<dyn KvServer<Fp61>>>;

    fn honest_fleet() -> Fleet {
        boxed_fleet((0..SHARDS).map(|_| CloudStore::<Fp61>::new(LOG_U)))
    }

    fn loaded(seed: u64) -> (ShardedClient<Fp61>, Fleet, Vec<(u64, u64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut client = ShardedClient::<Fp61>::new(LOG_U, SHARDS, BIG_BUDGET, &mut rng).unwrap();
        let mut servers = honest_fleet();
        let pairs = fleet_pairs(client.plan());
        for &(k, v) in &pairs {
            client.put(k, v, &mut servers).unwrap();
        }
        (client, servers, pairs)
    }

    #[test]
    fn sharded_fleet_matches_single_store() {
        // The same workload against S = 4 and S = 1 must answer identically.
        let (mut sharded, sharded_servers, pairs) = loaded(1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut single = Client::<Fp61>::new(LOG_U, BIG_BUDGET, &mut rng);
        let mut store = CloudStore::<Fp61>::new(LOG_U);
        for &(k, v) in &pairs {
            single.put(k, v, &mut store);
        }

        for &(k, _) in &pairs {
            assert_eq!(
                sharded.get(k, &sharded_servers).unwrap().value,
                single.get(k, &store).unwrap().value,
                "get({k})"
            );
        }
        assert_eq!(sharded.get(0, &sharded_servers).unwrap().value, None);

        let u = 1u64 << LOG_U;
        for (l, r) in [(0, u - 1), (10, 200), (60, 70)] {
            assert_eq!(
                sharded.range(l, r, &sharded_servers).unwrap().value,
                single.range(l, r, &store).unwrap().value,
                "range [{l}, {r}]"
            );
            assert_eq!(
                sharded.range_sum(l, r, &sharded_servers).unwrap().value,
                single.range_sum(l, r, &store).unwrap().value,
                "range_sum [{l}, {r}]"
            );
        }
        assert_eq!(
            sharded.self_join_size(&sharded_servers).unwrap().value,
            single.self_join_size(&store).unwrap().value
        );
        for q in [0u64, 5, 64, 65, 130, u - 1] {
            assert_eq!(
                sharded.predecessor(q, &sharded_servers).unwrap().value,
                single.predecessor(q, &store).unwrap().value,
                "predecessor({q})"
            );
            assert_eq!(
                sharded.successor(q, &sharded_servers).unwrap().value,
                single.successor(q, &store).unwrap().value,
                "successor({q})"
            );
        }
        assert_eq!(
            sharded.heavy_keys(90, &sharded_servers).unwrap().value,
            single.heavy_keys(90, &store).unwrap().value
        );
    }

    #[test]
    fn cross_shard_queries_account_per_shard() {
        let (mut client, servers, _) = loaded(3);
        let u = 1u64 << LOG_U;
        let got = client.range_sum(0, u - 1, &servers).unwrap();
        // Every shard contributed and was billed.
        for (s, r) in got.report.per_shard.iter().enumerate() {
            assert!(r.p_to_v_words > 0, "shard {s} unbilled");
        }
        let total = got.report.total();
        assert_eq!(
            total.p_to_v_words,
            got.report
                .per_shard
                .iter()
                .map(|r| r.p_to_v_words)
                .sum::<usize>()
        );
        // A routed get bills exactly one shard.
        let got = client.get(1, &servers).unwrap();
        let billed = got
            .report
            .per_shard
            .iter()
            .filter(|r| r.p_to_v_words > 0 || r.rounds > 0)
            .count();
        assert_eq!(billed, 1);
    }

    #[test]
    fn every_attack_blames_the_guilty_shard() {
        for guilty in 0..SHARDS {
            for attack in [
                Attack::CorruptValues,
                Attack::DropFirstEntry,
                Attack::SkewAggregates,
                Attack::UnderstateCounts,
                Attack::LieAboutPredecessor,
            ] {
                let mut rng = StdRng::seed_from_u64(100 + guilty as u64);
                let mut client =
                    ShardedClient::<Fp61>::new(LOG_U, SHARDS, QueryBudget::default(), &mut rng)
                        .unwrap();
                let mut servers: Vec<Box<dyn KvServer<Fp61>>> = (0..SHARDS)
                    .map(|s| {
                        let store = CloudStore::<Fp61>::new(LOG_U);
                        if s == guilty {
                            Box::new(MaliciousStore::new(store, attack)) as Box<dyn KvServer<Fp61>>
                        } else {
                            Box::new(store) as Box<dyn KvServer<Fp61>>
                        }
                    })
                    .collect();
                let pairs = fleet_pairs(client.plan());
                for &(k, v) in &pairs {
                    client.put(k, v, &mut servers).unwrap();
                }
                let u = 1u64 << LOG_U;
                let err = match attack {
                    Attack::CorruptValues | Attack::DropFirstEntry => {
                        client.range(0, u - 1, &servers).unwrap_err()
                    }
                    Attack::SkewAggregates => client.range_sum(0, u - 1, &servers).unwrap_err(),
                    Attack::UnderstateCounts => client.heavy_keys(90, &servers).unwrap_err(),
                    Attack::LieAboutPredecessor => {
                        // Probe inside the guilty shard, above both its keys.
                        let (_, hi) = client.plan().range(guilty);
                        client.predecessor(hi, &servers).unwrap_err()
                    }
                };
                assert_eq!(
                    err.blamed_shard(),
                    Some(guilty),
                    "attack {attack:?} on shard {guilty}: {err}"
                );
            }
        }
    }

    #[test]
    fn honest_shards_stay_usable_after_a_blamed_one() {
        // One store lies about aggregates; reporting queries on other
        // shards still verify.
        let mut rng = StdRng::seed_from_u64(9);
        let mut client =
            ShardedClient::<Fp61>::new(LOG_U, SHARDS, QueryBudget::default(), &mut rng).unwrap();
        let mut servers: Vec<Box<dyn KvServer<Fp61>>> = (0..SHARDS)
            .map(|s| {
                let store = CloudStore::<Fp61>::new(LOG_U);
                if s == 2 {
                    Box::new(MaliciousStore::new(store, Attack::SkewAggregates))
                        as Box<dyn KvServer<Fp61>>
                } else {
                    Box::new(store) as Box<dyn KvServer<Fp61>>
                }
            })
            .collect();
        let pairs = fleet_pairs(client.plan());
        for &(k, v) in &pairs {
            client.put(k, v, &mut servers).unwrap();
        }
        let err = client.self_join_size(&servers).unwrap_err();
        assert_eq!(err.blamed_shard(), Some(2));
        // Shard 0's data remains verifiable.
        assert_eq!(
            client.get(pairs[0].0, &servers).unwrap().value,
            Some(pairs[0].1)
        );
    }

    #[test]
    fn wrong_fleet_shapes_are_refused_with_typed_config_errors() {
        let mut rng = StdRng::seed_from_u64(11);
        // More shards than keys: refused at provisioning.
        let err = ShardedClient::<Fp61>::new(2, 100, QueryBudget::default(), &mut rng)
            .err()
            .expect("100 shards over 4 keys");
        assert!(matches!(err, Rejection::InvalidConfig { .. }), "{err}");
        // A server fleet that disagrees with the plan: refused per call.
        let mut client =
            ShardedClient::<Fp61>::new(LOG_U, SHARDS, QueryBudget::default(), &mut rng).unwrap();
        let mut servers = boxed_fleet((0..2).map(|_| CloudStore::<Fp61>::new(LOG_U)));
        let err = client.put(1, 2, &mut servers).unwrap_err();
        assert!(matches!(err, Rejection::InvalidConfig { .. }), "{err}");
        let err = client.self_join_size(&servers).unwrap_err();
        assert!(matches!(err, Rejection::InvalidConfig { .. }), "{err}");
    }
}

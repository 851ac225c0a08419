//! The aggregating verifier's streaming digests, shard-resolved.
//!
//! The single-prover verifier keeps `f_a(r)` in one accumulator; the
//! cluster verifier keeps `f_{a_s}(r)` — one accumulator **per shard**, all
//! at the *same* secret point `r` — because the per-shard final checks
//! (`g_d⁽ˢ⁾(r_d) = f_{a_s}(r)²` for F₂, `f_{a_s}(r)·f_b(r)` for RANGE-SUM)
//! are what make a failure attributable to one prover. The point's weight
//! tables (a one-point `WeightBank`, built at the first own weight
//! evaluation) are shared, so per-update work is one weight lookup
//! regardless of `S`, and space is `log u + S` words instead of
//! `log u + 1`.
//!
//! As everywhere else, one digest = one query: randomness reuse across
//! queries is unsound (paper §7, "Multiple Queries").

use std::marker::PhantomData;

use rand::Rng;
use sip_core::sumcheck::AggregatingVerifier;
pub use sip_core::sumcheck::{RangeSum, SelfJoin};
use sip_field::PrimeField;
use sip_lde::{range_indicator_lde, LdeParams, StreamingLdeEvaluator};
use sip_streaming::{ShardPlan, Update};

use crate::router::ShardRouter;
use sip_core::subvector::SubVectorVerifier;

/// Streaming evaluation of every shard's LDE `f_{a_s}(r)` at one shared
/// secret point (Theorem 1, shard-resolved).
#[derive(Clone, Debug)]
pub struct ShardedLde<F: PrimeField> {
    router: ShardRouter,
    /// Shared point and its one-point weight bank; its own accumulator
    /// stays unused (each update lands in exactly one shard accumulator
    /// instead).
    probe: StreamingLdeEvaluator<F>,
    accs: Vec<F>,
    /// Stream updates absorbed so far (checkpoint metadata).
    updates: u64,
}

impl<F: PrimeField> ShardedLde<F> {
    /// Draws the shared secret point for a fleet under `plan`.
    pub fn random<R: Rng + ?Sized>(plan: ShardPlan, rng: &mut R) -> Self {
        ShardedLde {
            router: ShardRouter::new(plan),
            probe: StreamingLdeEvaluator::random(LdeParams::binary(plan.log_u()), rng),
            accs: vec![F::ZERO; plan.shards() as usize],
            updates: 0,
        }
    }

    /// Rebuilds a sharded digest from checkpointed state: the plan, the
    /// shared point, one accumulator per shard, and the update counter.
    /// The weight tables are derived from `(plan, point)` at first use,
    /// exactly as on first construction.
    ///
    /// # Panics
    /// Panics if the point does not have `log_u` coordinates or the
    /// accumulator count differs from the plan's shard count.
    pub fn from_saved(plan: ShardPlan, point: Vec<F>, accs: Vec<F>, updates: u64) -> Self {
        assert_eq!(
            accs.len() as u32,
            plan.shards(),
            "one accumulator per shard of the plan"
        );
        ShardedLde {
            router: ShardRouter::new(plan),
            probe: StreamingLdeEvaluator::new(LdeParams::binary(plan.log_u()), point),
            accs,
            updates,
        }
    }

    /// Number of stream updates absorbed so far (checkpoint metadata).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The fleet partition.
    pub fn plan(&self) -> &ShardPlan {
        self.router.plan()
    }

    /// The shared secret point `r`.
    pub fn point(&self) -> &[F] {
        self.probe.point()
    }

    /// Per-shard values `f_{a_s}(r)`, indexed by shard.
    pub fn values(&self) -> &[F] {
        &self.accs
    }

    /// The whole-stream value `f_a(r) = Σ_s f_{a_s}(r)` (linearity).
    pub fn combined(&self) -> F {
        self.accs.iter().fold(F::ZERO, |acc, &v| acc + v)
    }

    /// Processes one stream update into its owning shard's accumulator.
    pub fn update(&mut self, up: Update) {
        let s = self.router.route(up) as usize;
        self.accs[s] += F::from_i64(up.delta) * self.probe.weight(up.index);
        self.updates += 1;
    }

    /// Processes a whole stream.
    pub fn update_all(&mut self, stream: &[Update]) {
        self.update_batch(stream);
    }

    /// Processes a whole batch: one delayed-reduction accumulator per
    /// shard, flushed once at the end. Per-shard values are bit-identical
    /// to per-update [`Self::update`] (exact field arithmetic).
    pub fn update_batch(&mut self, batch: &[Update]) {
        let mut accs: Vec<F::DotAcc> = vec![F::DotAcc::default(); self.accs.len()];
        for &up in batch {
            let s = self.router.route(up) as usize;
            F::acc_add_prod(
                &mut accs[s],
                F::from_i64(up.delta),
                self.probe.weight(up.index),
            );
        }
        for (acc, partial) in self.accs.iter_mut().zip(accs) {
            *acc += F::acc_finish(partial);
        }
        self.updates += batch.len() as u64;
    }

    /// Digest space in words: the point plus one accumulator per shard.
    pub fn space_words(&self) -> usize {
        self.probe.point().len() + self.accs.len()
    }
}

/// Streaming verifier digest for one fleet-wide sum-check query of family
/// `Q`: the shard-resolved LDE at one secret point. Its two names are
/// [`ClusterF2Verifier`] and [`ClusterRangeSumVerifier`]; they differ only
/// in the final values [`ClusterDigest::into_session`] derives. `Q` is the
/// single-point verifiers' query marker ([`SelfJoin`], [`RangeSum`]).
#[derive(Clone, Debug)]
pub struct ClusterDigest<Q, F: PrimeField> {
    lde: ShardedLde<F>,
    _query: PhantomData<Q>,
}

/// Streaming verifier digest for a fleet-wide SELF-JOIN SIZE (F₂) query.
pub type ClusterF2Verifier<F> = ClusterDigest<SelfJoin, F>;

/// Streaming verifier digest for a fleet-wide RANGE-SUM query; the range
/// arrives at query time.
pub type ClusterRangeSumVerifier<F> = ClusterDigest<RangeSum, F>;

impl<Q, F: PrimeField> ClusterDigest<Q, F> {
    /// Draws the shared secret point and prepares to observe the stream.
    pub fn new<R: Rng + ?Sized>(plan: ShardPlan, rng: &mut R) -> Self {
        Self::from_lde(ShardedLde::random(plan, rng))
    }

    /// The fleet partition this digest was drawn for.
    pub fn plan(&self) -> &ShardPlan {
        self.lde.plan()
    }

    /// The underlying sharded digest (checkpoint state).
    pub fn lde(&self) -> &ShardedLde<F> {
        &self.lde
    }

    /// Rebuilds the verifier around a restored sharded digest.
    pub fn from_lde(lde: ShardedLde<F>) -> Self {
        ClusterDigest {
            lde,
            _query: PhantomData,
        }
    }

    /// Processes one stream update.
    pub fn update(&mut self, up: Update) {
        self.lde.update(up);
    }

    /// Processes a whole stream.
    pub fn update_all(&mut self, stream: &[Update]) {
        self.lde.update_all(stream);
    }

    /// Processes a whole batch (delayed-reduction per-shard accumulators;
    /// bit-identical to per-update [`Self::update`]).
    pub fn update_batch(&mut self, batch: &[Update]) {
        self.lde.update_batch(batch);
    }

    /// Verifier space in words (digest plus per-shard round residuals).
    pub fn space_words(&self) -> usize {
        self.lde.space_words() + 3 * self.lde.accs.len()
    }

    /// The lockstep round checker over this digest's point, and the
    /// per-shard final values `f_{a_s}(r)·factor`.
    fn session(self, factor: impl Fn(F) -> F) -> (AggregatingVerifier<F>, Vec<F>) {
        let expected: Vec<F> = self.lde.values().iter().map(|&v| v * factor(v)).collect();
        (
            AggregatingVerifier::new(self.lde.point().to_vec(), 2, expected.len()),
            expected,
        )
    }
}

impl<F: PrimeField> ClusterF2Verifier<F> {
    /// Ends streaming: the lockstep round checker plus the per-shard final
    /// values `f_{a_s}(r)²`.
    pub fn into_session(self) -> (AggregatingVerifier<F>, Vec<F>) {
        self.session(|v| v)
    }
}

impl<F: PrimeField> ClusterRangeSumVerifier<F> {
    /// Ends streaming and fixes the query range: per-shard final values
    /// `f_{a_s}(r)·f_b(r)` with the indicator LDE computed locally once.
    ///
    /// # Panics
    /// Panics if the range is empty or outside the universe.
    pub fn into_session(self, q_l: u64, q_r: u64) -> (AggregatingVerifier<F>, Vec<F>) {
        let fb = range_indicator_lde(q_l, q_r, self.lde.point());
        self.session(|_| fb)
    }
}

/// Streaming verifier digest for fleet-wide SUB-VECTOR reporting: one hash
/// tree per shard (independent keys — each shard's sub-range is verified
/// against its own streamed root, so a bad subtree names its shard).
pub struct ClusterReportVerifier<F: PrimeField> {
    router: ShardRouter,
    verifiers: Vec<Option<SubVectorVerifier<F>>>,
}

impl<F: PrimeField> ClusterReportVerifier<F> {
    /// Draws per-shard level keys and prepares to observe the stream.
    pub fn new<R: Rng + ?Sized>(plan: ShardPlan, rng: &mut R) -> Self {
        ClusterReportVerifier {
            router: ShardRouter::new(plan),
            verifiers: (0..plan.shards())
                .map(|_| Some(SubVectorVerifier::new(plan.log_u(), rng)))
                .collect(),
        }
    }

    /// The fleet partition.
    pub fn plan(&self) -> &ShardPlan {
        self.router.plan()
    }

    /// Processes one stream update into its owning shard's tree.
    pub fn update(&mut self, up: Update) {
        let s = self.router.route(up) as usize;
        self.verifiers[s]
            .as_mut()
            .expect("digest already consumed")
            .update(up);
    }

    /// Processes a whole stream.
    pub fn update_all(&mut self, stream: &[Update]) {
        self.update_batch(stream);
    }

    /// Processes a whole batch: the stream is split per owning shard once,
    /// then each shard's tree takes one delayed-reduction batch. Roots are
    /// bit-identical to per-update [`Self::update`].
    pub fn update_batch(&mut self, batch: &[Update]) {
        for (s, part) in self.router.split(batch).into_iter().enumerate() {
            if !part.is_empty() {
                self.verifiers[s]
                    .as_mut()
                    .expect("digest already consumed")
                    .update_batch(&part);
            }
        }
    }

    /// Verifier space in words across every shard tree.
    pub fn space_words(&self) -> usize {
        self.verifiers
            .iter()
            .flatten()
            .map(SubVectorVerifier::space_words)
            .sum()
    }

    /// Takes shard `s`'s tree digest (used once, at query time).
    pub(crate) fn take(&mut self, s: usize) -> SubVectorVerifier<F> {
        self.verifiers[s].take().expect("digest already consumed")
    }

    /// Borrowed views of the per-shard tree digests (checkpoint state;
    /// `None` marks a copy already consumed by a query).
    pub fn shard_verifiers(&self) -> &[Option<SubVectorVerifier<F>>] {
        &self.verifiers
    }

    /// Rebuilds the fleet digest from checkpointed per-shard trees.
    ///
    /// # Panics
    /// Panics if the verifier count disagrees with the plan's shard count.
    pub fn from_shard_verifiers(
        plan: ShardPlan,
        verifiers: Vec<Option<SubVectorVerifier<F>>>,
    ) -> Self {
        assert_eq!(
            verifiers.len() as u32,
            plan.shards(),
            "one tree digest slot per shard of the plan"
        );
        ClusterReportVerifier {
            router: ShardRouter::new(plan),
            verifiers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn sharded_lde_sums_to_the_monolithic_value() {
        let log_u = 8;
        let plan = ShardPlan::new(log_u, 4);
        let stream = workloads::uniform(500, 1 << log_u, 40, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sharded = ShardedLde::<Fp61>::random(plan, &mut rng);
        sharded.update_all(&stream);
        // A single evaluator at the same point sees the sum.
        let mut single =
            StreamingLdeEvaluator::<Fp61>::new(LdeParams::binary(log_u), sharded.point().to_vec());
        single.update_all(&stream);
        assert_eq!(sharded.combined(), single.value());
        // And each accumulator sees exactly its shard's sub-stream.
        for (s, part) in sharded.router.split(&stream).iter().enumerate() {
            let mut e = StreamingLdeEvaluator::<Fp61>::new(
                LdeParams::binary(log_u),
                sharded.point().to_vec(),
            );
            e.update_all(part);
            assert_eq!(sharded.values()[s], e.value(), "shard {s}");
        }
        assert_eq!(sharded.space_words(), log_u as usize + 4);
    }
}

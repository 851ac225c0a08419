//! The sum-check generalised to a fleet of `S` provers (sharded
//! delegation).
//!
//! Every sum-check target in this workspace is *linear in the data*: for a
//! stream partitioned by index range into `a = a_0 + … + a_{S−1}` with
//! disjoint supports,
//!
//! ```text
//! F₂(a)   = Σ_s F₂(a_s)          Fₖ(a)  = Σ_s Fₖ(a_s)
//! a·b     = Σ_s a_s·b_s          Σ_{[l,r]} a = Σ_s Σ_{[l,r]} a_s
//! ```
//!
//! so the verifier runs `S` sum-checks *in lockstep over one shared secret
//! point `r`*: every shard receives the same per-round randomness
//! (broadcast once), and the claimed aggregate is the sum of the per-shard
//! round-1 claims. Verifying the per-shard transcripts individually is
//! exactly as strong as verifying their sum (linearity of every check) —
//! and strictly more useful, because a failure is *attributable*: the
//! verifier keeps per-prover residual state (`S` claims instead of one) and
//! rejects with [`Rejection::Blame`] naming the guilty shard, at `S − 1`
//! extra words of space.
//!
//! The single-prover protocol is the `S = 1` special case and produces an
//! identical transcript — [`AggregatingVerifier`] wraps unchanged
//! [`SumCheckVerifierCore`]s sharing one evaluation point.

use sip_field::PrimeField;

use crate::channel::{ClusterCostReport, CostReport};
use crate::error::Rejection;
use crate::transcript::Transcript;

use super::oneshot::{prove_oneshot, OneShotProof};
use super::{RoundProver, SumCheckVerifierCore};

/// Round-by-round verifier state for `S` lockstep sum-checks over a shared
/// secret point.
///
/// Space: `S` cores of 3 words each plus the shared point — the paper's
/// `O(log u)` plus `O(S)` residuals.
#[derive(Clone, Debug)]
pub struct AggregatingVerifier<F: PrimeField> {
    cores: Vec<SumCheckVerifierCore<F>>,
}

impl<F: PrimeField> AggregatingVerifier<F> {
    /// Creates the state for `shards` provers answering over the shared
    /// secret `point` with per-round degree bound `degree`.
    ///
    /// # Panics
    /// Panics if `shards` is zero (a fleet needs at least one prover) or if
    /// the point/degree are invalid (see [`SumCheckVerifierCore::new`]).
    pub fn new(point: Vec<F>, degree: usize, shards: usize) -> Self {
        assert!(shards >= 1, "a fleet needs at least one prover");
        AggregatingVerifier {
            cores: vec![SumCheckVerifierCore::new(point, degree); shards],
        }
    }

    /// Number of provers `S`.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// Number of rounds `d` (identical for every shard).
    pub fn rounds(&self) -> usize {
        self.cores[0].rounds()
    }

    /// Processes round `j`: one polynomial per shard, in shard order.
    ///
    /// Each message is checked against *its own shard's* previous claim —
    /// per-prover residual checks, so an inconsistency names its shard.
    /// Returns the shared challenge to broadcast, or `None` after the last
    /// round (`r_d` stays secret).
    ///
    /// # Panics
    /// Panics if `polys.len() != self.shards()` or all rounds are done.
    pub fn receive_round(&mut self, polys: &[Vec<F>]) -> Result<Option<F>, Rejection> {
        assert_eq!(polys.len(), self.cores.len(), "one polynomial per shard");
        let mut challenge = None;
        for (s, (core, poly)) in self.cores.iter_mut().zip(polys).enumerate() {
            // All cores share the point, so every shard yields the same
            // challenge; keep the last (= any) one.
            challenge = core
                .receive(poly)
                .map_err(|e| Rejection::blame(s as u32, e))?;
        }
        Ok(challenge)
    }

    /// Final test: shard `s`'s last polynomial must match the verifier's
    /// own streamed evaluation for that shard's sub-vector (`streamed[s]`,
    /// e.g. `f_{a_s}(r)²` for F₂). On success returns the now *verified*
    /// aggregate `Σ_s output_s`.
    ///
    /// # Panics
    /// Panics if `streamed.len() != self.shards()` or rounds remain.
    pub fn finalize(&self, streamed: &[F]) -> Result<F, Rejection> {
        assert_eq!(
            streamed.len(),
            self.cores.len(),
            "one streamed value per shard"
        );
        let mut sum = F::ZERO;
        for (s, (core, &expected)) in self.cores.iter().zip(streamed).enumerate() {
            sum += core
                .finalize(expected)
                .map_err(|e| Rejection::blame(s as u32, e))?;
        }
        Ok(sum)
    }

    /// Words of aggregating-verifier working memory: per-shard residuals
    /// plus the shared point, counted once (each core's copy is derived
    /// data, not independent state).
    pub fn space_words(&self) -> usize {
        self.cores.len() * self.cores[0].space_words() + self.rounds()
    }

    /// The revealed challenge prefix `r_1, …, r_{d−1}` — shared by every
    /// shard, since all cores run over the same secret point.
    pub fn challenge_prefix(&self) -> &[F] {
        self.cores[0].challenge_prefix()
    }

    /// Verifies a single shard's one-shot proof in isolation, returning
    /// that shard's verified contribution or the bare cause (the caller
    /// blames the shard, or one of its replicas). This is the replica
    /// cross-examination primitive: honest replicas of a shard hold the
    /// same sub-vector and the same transcript context (shard identity
    /// binds `(index, count)`, *not* the replica), so each replica's proof
    /// can be checked independently against the same streamed digest — and
    /// when two replicas disagree, exactly one of them fails here.
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_oneshot_shard(
        &self,
        shard: usize,
        streamed: F,
        transcript: Transcript,
        proof: &OneShotProof<F>,
    ) -> Result<F, Rejection> {
        self.cores[shard].verify_oneshot(streamed, transcript, proof)
    }
}

/// The `S` provers of one sharded sum-check query as the verifier sees
/// them: every shard's round message out, one broadcast challenge in. The
/// fleet's [`super::SumCheckSession`] — `S` in-process provers
/// ([`drive_sumcheck_sharded`]) or `S` remote sessions (`sip-cluster`). A
/// failure names its shard ([`Rejection::Blame`]).
pub trait FleetSession<F: PrimeField> {
    /// Every shard's current round polynomial, in shard order.
    fn messages(&mut self) -> Result<Vec<Vec<F>>, Rejection>;
    /// Broadcasts the revealed challenge to every shard.
    fn broadcast(&mut self, challenge: F) -> Result<(), Rejection>;
}

/// The lockstep sum-check conversation: per round, every shard's message
/// through its own residual check, then the one shared challenge out to
/// all; finally each shard against its own streamed value.
///
/// The only place a fleet query's rounds and words are booked: per shard,
/// one round and the message's words per round, and one word per
/// broadcast challenge (it crosses each connection once). The caller books
/// the query's own words. On acceptance returns the verified aggregate.
pub fn drive_fleet<F: PrimeField, S: FleetSession<F> + ?Sized>(
    session: &mut S,
    verifier: &mut AggregatingVerifier<F>,
    streamed: &[F],
    report: &mut ClusterCostReport,
) -> Result<F, Rejection> {
    assert_eq!(report.shards(), verifier.shards(), "one report per shard");
    for round in 1..=verifier.rounds() {
        let mut rspan = sip_obs::trace::span("sip.cluster", "round");
        rspan.field("round", round);
        let polys = session.messages()?;
        for (r, poly) in report.per_shard.iter_mut().zip(&polys) {
            r.rounds += 1;
            r.p_to_v_words += poly.len();
        }
        let step = {
            let _v = sip_obs::trace::span("sip.cluster", "verifier_compute");
            verifier.receive_round(&polys)
        }?;
        if let Some(challenge) = step {
            for r in &mut report.per_shard {
                r.v_to_p_words += 1;
            }
            session.broadcast(challenge)?;
        }
    }
    let _v = sip_obs::trace::span("sip.cluster", "verifier_compute");
    verifier.finalize(streamed)
}

/// A hook mutating one shard's messages in flight; arguments are
/// `(shard, round, message)` with `round` 1-based.
pub type ShardAdversary<'a, F> = &'a mut dyn FnMut(usize, usize, &mut Vec<F>);

/// `S` in-process provers as one fleet session, their messages passing
/// through an optional [`ShardAdversary`] on the way to the verifier.
struct Provers<'a, 'p, 'v, F> {
    provers: &'a mut [&'p mut dyn RoundProver<F>],
    round: usize,
    adversary: Option<ShardAdversary<'v, F>>,
}

impl<F: PrimeField> FleetSession<F> for Provers<'_, '_, '_, F> {
    fn messages(&mut self) -> Result<Vec<Vec<F>>, Rejection> {
        self.round += 1;
        let mut polys: Vec<Vec<F>> = self.provers.iter_mut().map(|p| p.message()).collect();
        if let Some(adversary) = self.adversary.as_mut() {
            for (s, msg) in polys.iter_mut().enumerate() {
                adversary(s, self.round, msg);
            }
        }
        Ok(polys)
    }
    fn broadcast(&mut self, challenge: F) -> Result<(), Rejection> {
        self.provers.iter_mut().for_each(|p| p.bind(challenge));
        Ok(())
    }
}

/// Runs [`drive_fleet`] against `S` in-process provers; an optional
/// [`ShardAdversary`] corrupts their messages in flight (the honest run
/// passes `None`). On acceptance returns the verified aggregate.
pub fn drive_sumcheck_sharded<F: PrimeField>(
    provers: &mut [&mut dyn RoundProver<F>],
    verifier: &mut AggregatingVerifier<F>,
    streamed: &[F],
    report: &mut ClusterCostReport,
    adversary: Option<ShardAdversary<'_, F>>,
) -> Result<F, Rejection> {
    assert_eq!(provers.len(), verifier.shards(), "one prover per shard");
    for p in provers.iter() {
        assert_eq!(p.rounds(), verifier.rounds(), "shards disagree on d");
    }
    let mut session = Provers {
        provers,
        round: 0,
        adversary,
    };
    drive_fleet(&mut session, verifier, streamed, report)
}

/// The one-shot counterpart of [`drive_sumcheck_sharded`]: every shard
/// walks all `d` rounds locally over the shared challenge prefix and seals
/// its own proof frame — no lockstep, no broadcast, one frame per shard.
///
/// `transcripts` are the per-shard contexts (same prefix, per-shard shard
/// identity); `report` accrues per-shard communication as a single round
/// (query + prefix out, proof back).
///
/// # Soundness
/// The one-shot mode is unsound (`sumcheck::oneshot` module docs): no verifier
/// should rely on a proof produced this way.
pub fn prove_oneshot_sharded<F: PrimeField>(
    provers: &mut [&mut dyn RoundProver<F>],
    transcripts: Vec<Transcript>,
    challenges: &[F],
    report: &mut ClusterCostReport,
) -> Result<Vec<OneShotProof<F>>, Rejection> {
    assert_eq!(provers.len(), transcripts.len(), "one transcript per shard");
    assert_eq!(report.shards(), provers.len(), "one report per shard");
    let mut proofs = Vec::with_capacity(provers.len());
    for (s, (prover, transcript)) in provers.iter_mut().zip(transcripts).enumerate() {
        assert_eq!(
            prover.rounds(),
            challenges.len() + 1,
            "shards disagree on d"
        );
        let proof = prove_oneshot(
            &mut super::ProverWalk(&mut **prover),
            transcript,
            challenges,
            2,
        )
        .map_err(|e| Rejection::blame(s as u32, e))?;
        report.absorb_shard(
            s,
            &CostReport {
                rounds: 1,
                p_to_v_words: proof.words(),
                v_to_p_words: challenges.len(),
                ..CostReport::default()
            },
        );
        proofs.push(proof);
    }
    Ok(proofs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sumcheck::drive_sumcheck;
    use crate::sumcheck::f2::F2Prover;
    use crate::sumcheck::inner_product::InnerProductProver;
    use crate::sumcheck::moments::MomentProver;
    use crate::sumcheck::range_sum::RangeSumProver;
    use sip_field::Fp61;
    use sip_lde::range_indicator_lde;
    use sip_streaming::{workloads, FrequencyVector, ShardPlan, Update};

    const LOG_U: u32 = 8;

    /// Per-shard frequency vectors plus per-shard LDE accumulators at the
    /// shared point of `seed_core` — the digest a ShardRouter maintains.
    fn shard_fixture(
        shards: u32,
        stream: &[Update],
        point: &[Fp61],
    ) -> (ShardPlan, Vec<FrequencyVector>, Vec<Fp61>) {
        let plan = ShardPlan::new(LOG_U, shards);
        let parts = plan.split(stream);
        let fvs: Vec<FrequencyVector> = parts
            .iter()
            .map(|p| FrequencyVector::from_stream(1 << LOG_U, p))
            .collect();
        let ldes: Vec<Fp61> = parts
            .iter()
            .map(|p| {
                let mut e = sip_lde::StreamingLdeEvaluator::new(
                    sip_lde::LdeParams::binary(LOG_U),
                    point.to_vec(),
                );
                e.update_all(p);
                e.value()
            })
            .collect();
        (plan, fvs, ldes)
    }

    #[test]
    fn sharded_f2_equals_monolithic() {
        let stream = workloads::paper_f2(1 << LOG_U, 3);
        let truth = FrequencyVector::from_stream(1 << LOG_U, &stream).self_join_size();
        for shards in [1u32, 2, 3, 4, 8] {
            let point: Vec<Fp61> = (0..LOG_U as u64)
                .map(|i| Fp61::from_u64(1000 + 37 * i + shards as u64))
                .collect();
            let (_, fvs, ldes) = shard_fixture(shards, &stream, &point);
            let mut provers: Vec<F2Prover<Fp61>> =
                fvs.iter().map(|fv| F2Prover::new(fv, LOG_U)).collect();
            let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
                .iter_mut()
                .map(|p| p as &mut dyn RoundProver<Fp61>)
                .collect();
            let mut agg = AggregatingVerifier::new(point, 2, shards as usize);
            let expected: Vec<Fp61> = ldes.iter().map(|&v| v * v).collect();
            let mut report = ClusterCostReport::new(shards as usize);
            let got =
                drive_sumcheck_sharded(&mut dyns, &mut agg, &expected, &mut report, None).unwrap();
            assert_eq!(got, Fp61::from_u128(truth as u128), "S={shards}");
            // Per-shard accounting: every shard paid the full d rounds.
            for r in &report.per_shard {
                assert_eq!(r.rounds, LOG_U as usize);
                assert_eq!(r.p_to_v_words, 3 * LOG_U as usize);
                assert_eq!(r.v_to_p_words, LOG_U as usize - 1);
            }
            assert_eq!(
                report.total().p_to_v_words,
                shards as usize * 3 * LOG_U as usize
            );
        }
    }

    #[test]
    fn single_shard_matches_drive_sumcheck_transcript() {
        // S = 1 through the aggregate path must equal the classic path:
        // same value, same per-round messages, same costs.
        let stream = workloads::uniform(300, 1 << LOG_U, 20, 5);
        let fv = FrequencyVector::from_stream(1 << LOG_U, &stream);
        let point: Vec<Fp61> = (0..LOG_U as u64).map(|i| Fp61::from_u64(5 + i)).collect();
        let lde = {
            let mut e = sip_lde::StreamingLdeEvaluator::new(
                sip_lde::LdeParams::binary(LOG_U),
                point.clone(),
            );
            e.update_all(&stream);
            e.value()
        };

        let mut classic_prover = F2Prover::<Fp61>::new(&fv, LOG_U);
        let mut classic_core = SumCheckVerifierCore::new(point.clone(), 2);
        let mut classic_report = CostReport::default();
        let classic = drive_sumcheck(
            &mut classic_prover,
            &mut classic_core,
            lde * lde,
            &mut classic_report,
            None,
        )
        .unwrap();

        let mut prover = F2Prover::<Fp61>::new(&fv, LOG_U);
        let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = vec![&mut prover];
        let mut agg = AggregatingVerifier::new(point, 2, 1);
        let mut report = ClusterCostReport::new(1);
        let sharded =
            drive_sumcheck_sharded(&mut dyns, &mut agg, &[lde * lde], &mut report, None).unwrap();
        assert_eq!(classic, sharded);
        assert_eq!(classic_report.rounds, report.per_shard[0].rounds);
        assert_eq!(
            classic_report.p_to_v_words,
            report.per_shard[0].p_to_v_words
        );
        assert_eq!(
            classic_report.v_to_p_words,
            report.per_shard[0].v_to_p_words
        );
    }

    #[test]
    fn sharded_range_sum_and_moments_and_inner_product() {
        let stream = workloads::distinct_key_values(150, 1 << LOG_U, 500, 7);
        let fv = FrequencyVector::from_stream(1 << LOG_U, &stream);
        let shards = 4u32;
        let point: Vec<Fp61> = (0..LOG_U as u64).map(|i| Fp61::from_u64(77 + i)).collect();
        let (_, fvs, ldes) = shard_fixture(shards, &stream, &point);

        // RANGE-SUM over [q_l, q_r]: per-shard final check f_{a_s}(r)·f_b(r).
        let (q_l, q_r) = (30u64, 200u64);
        let fb = range_indicator_lde(q_l, q_r, &point);
        let mut provers: Vec<RangeSumProver<Fp61>> = fvs
            .iter()
            .map(|fv| RangeSumProver::new(fv, LOG_U, q_l, q_r))
            .collect();
        let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
            .iter_mut()
            .map(|p| p as &mut dyn RoundProver<Fp61>)
            .collect();
        let mut agg = AggregatingVerifier::new(point.clone(), 2, shards as usize);
        let expected: Vec<Fp61> = ldes.iter().map(|&v| v * fb).collect();
        let mut report = ClusterCostReport::new(shards as usize);
        let got =
            drive_sumcheck_sharded(&mut dyns, &mut agg, &expected, &mut report, None).unwrap();
        assert_eq!(got, Fp61::from_i64(fv.range_sum(q_l, q_r) as i64));

        // F₃: per-shard final check f_{a_s}(r)³, degree-3 messages.
        let mut provers: Vec<MomentProver<Fp61>> = fvs
            .iter()
            .map(|fv| MomentProver::new(3, fv, LOG_U))
            .collect();
        let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
            .iter_mut()
            .map(|p| p as &mut dyn RoundProver<Fp61>)
            .collect();
        let mut agg = AggregatingVerifier::new(point.clone(), 3, shards as usize);
        let expected: Vec<Fp61> = ldes.iter().map(|&v| v * v * v).collect();
        let mut report = ClusterCostReport::new(shards as usize);
        let got =
            drive_sumcheck_sharded(&mut dyns, &mut agg, &expected, &mut report, None).unwrap();
        assert_eq!(got, Fp61::from_u128(fv.frequency_moment(3) as u128));

        // INNER PRODUCT a·b with both streams sharded by the same plan.
        let stream_b = workloads::uniform(200, 1 << LOG_U, 9, 8);
        let fv_b = FrequencyVector::from_stream(1 << LOG_U, &stream_b);
        let plan = ShardPlan::new(LOG_U, shards);
        let parts_b = plan.split(&stream_b);
        let fvs_b: Vec<FrequencyVector> = parts_b
            .iter()
            .map(|p| FrequencyVector::from_stream(1 << LOG_U, p))
            .collect();
        let ldes_b: Vec<Fp61> = parts_b
            .iter()
            .map(|p| {
                let mut e = sip_lde::StreamingLdeEvaluator::new(
                    sip_lde::LdeParams::binary(LOG_U),
                    point.clone(),
                );
                e.update_all(p);
                e.value()
            })
            .collect();
        let mut provers: Vec<InnerProductProver<Fp61>> = fvs
            .iter()
            .zip(&fvs_b)
            .map(|(a, b)| InnerProductProver::new(a, b, LOG_U))
            .collect();
        let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
            .iter_mut()
            .map(|p| p as &mut dyn RoundProver<Fp61>)
            .collect();
        let mut agg = AggregatingVerifier::new(point, 2, shards as usize);
        let expected: Vec<Fp61> = ldes.iter().zip(&ldes_b).map(|(&a, &b)| a * b).collect();
        let mut report = ClusterCostReport::new(shards as usize);
        let got =
            drive_sumcheck_sharded(&mut dyns, &mut agg, &expected, &mut report, None).unwrap();
        assert_eq!(got, Fp61::from_i64(fv.inner_product(&fv_b) as i64));
    }

    #[test]
    fn corrupted_shard_is_blamed_every_round_and_slot() {
        let stream = workloads::paper_f2(1 << 6, 11);
        let shards = 3u32;
        let point: Vec<Fp61> = (0..6u64).map(|i| Fp61::from_u64(400 + i)).collect();
        let plan = ShardPlan::new(6, shards);
        let parts = plan.split(&stream);
        for guilty in 0..shards as usize {
            for round in 1..=6usize {
                for slot in 0..3usize {
                    let fvs: Vec<FrequencyVector> = parts
                        .iter()
                        .map(|p| FrequencyVector::from_stream(1 << 6, p))
                        .collect();
                    let mut provers: Vec<F2Prover<Fp61>> =
                        fvs.iter().map(|fv| F2Prover::new(fv, 6)).collect();
                    let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
                        .iter_mut()
                        .map(|p| p as &mut dyn RoundProver<Fp61>)
                        .collect();
                    let expected: Vec<Fp61> = parts
                        .iter()
                        .map(|p| {
                            let mut e = sip_lde::StreamingLdeEvaluator::new(
                                sip_lde::LdeParams::binary(6),
                                point.clone(),
                            );
                            e.update_all(p);
                            e.value() * e.value()
                        })
                        .collect();
                    let mut agg = AggregatingVerifier::new(point.clone(), 2, shards as usize);
                    let mut report = ClusterCostReport::new(shards as usize);
                    let mut adv = |s: usize, rd: usize, msg: &mut Vec<Fp61>| {
                        if s == guilty && rd == round {
                            msg[slot] += Fp61::ONE;
                        }
                    };
                    let err = drive_sumcheck_sharded(
                        &mut dyns,
                        &mut agg,
                        &expected,
                        &mut report,
                        Some(&mut adv),
                    )
                    .unwrap_err();
                    assert_eq!(
                        err.blamed_shard(),
                        Some(guilty as u32),
                        "guilty={guilty} round={round} slot={slot}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_lying_about_its_subvector_is_blamed() {
        // Shard 1 proves honestly — over data it does not have.
        let stream = workloads::uniform(200, 1 << LOG_U, 15, 9);
        let shards = 4u32;
        let point: Vec<Fp61> = (0..LOG_U as u64).map(|i| Fp61::from_u64(900 + i)).collect();
        let (plan, fvs, ldes) = shard_fixture(shards, &stream, &point);
        let mut wrong = fvs;
        let (lo, _) = plan.range(1);
        wrong[1].apply(Update::new(lo, 1)); // one phantom insertion
        let mut provers: Vec<F2Prover<Fp61>> =
            wrong.iter().map(|fv| F2Prover::new(fv, LOG_U)).collect();
        let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
            .iter_mut()
            .map(|p| p as &mut dyn RoundProver<Fp61>)
            .collect();
        let mut agg = AggregatingVerifier::new(point, 2, shards as usize);
        let expected: Vec<Fp61> = ldes.iter().map(|&v| v * v).collect();
        let mut report = ClusterCostReport::new(shards as usize);
        let err =
            drive_sumcheck_sharded(&mut dyns, &mut agg, &expected, &mut report, None).unwrap_err();
        assert_eq!(err.blamed_shard(), Some(1), "{err}");
    }

    #[test]
    fn space_accounting_is_point_plus_residuals() {
        let point: Vec<Fp61> = (0..10u64).map(Fp61::from_u64).collect();
        let agg = AggregatingVerifier::new(point, 2, 4);
        assert_eq!(agg.space_words(), 4 * 3 + 10);
    }

    /// Every shard's proof checked on its own, summed: the verified
    /// aggregate, or the lowest failing shard's rejection.
    fn verify_all(
        agg: &AggregatingVerifier<Fp61>,
        expected: &[Fp61],
        transcripts: Vec<Transcript>,
        proofs: &[OneShotProof<Fp61>],
    ) -> Result<Fp61, Rejection> {
        let mut sum = Fp61::ZERO;
        for (s, t) in transcripts.into_iter().enumerate() {
            sum += agg
                .verify_oneshot_shard(s, expected[s], t, &proofs[s])
                .map_err(|e| Rejection::blame(s as u32, e))?;
        }
        Ok(sum)
    }

    fn shard_transcripts(shards: u32, log_u: u32, prefix: &[Fp61]) -> Vec<Transcript> {
        (0..shards)
            .map(|s| {
                crate::transcript::query_transcript::<Fp61>(
                    "self-join",
                    log_u,
                    Some((s, shards)),
                    &[],
                    prefix,
                )
            })
            .collect()
    }

    #[test]
    fn oneshot_sharded_equals_interactive_and_bills_one_round() {
        let stream = workloads::paper_f2(1 << LOG_U, 3);
        let truth = FrequencyVector::from_stream(1 << LOG_U, &stream).self_join_size();
        for shards in [1u32, 3, 4] {
            let point: Vec<Fp61> = (0..LOG_U as u64)
                .map(|i| Fp61::from_u64(2000 + 13 * i + shards as u64))
                .collect();
            let (_, fvs, ldes) = shard_fixture(shards, &stream, &point);
            let mut provers: Vec<F2Prover<Fp61>> =
                fvs.iter().map(|fv| F2Prover::new(fv, LOG_U)).collect();
            let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
                .iter_mut()
                .map(|p| p as &mut dyn RoundProver<Fp61>)
                .collect();
            let agg = AggregatingVerifier::new(point, 2, shards as usize);
            let prefix = agg.challenge_prefix().to_vec();
            let mut report = ClusterCostReport::new(shards as usize);
            let proofs = prove_oneshot_sharded(
                &mut dyns,
                shard_transcripts(shards, LOG_U, &prefix),
                &prefix,
                &mut report,
            )
            .unwrap();
            let expected: Vec<Fp61> = ldes.iter().map(|&v| v * v).collect();
            let got = verify_all(
                &agg,
                &expected,
                shard_transcripts(shards, LOG_U, &prefix),
                &proofs,
            )
            .unwrap();
            assert_eq!(got, Fp61::from_u128(truth as u128), "S={shards}");
            for r in &report.per_shard {
                assert_eq!(r.rounds, 1, "one-shot is one round trip per shard");
            }
            // Per-shard verification (the replica cross-examination
            // primitive) accepts each proof independently and sums to the
            // same verified aggregate.
            let ts = shard_transcripts(shards, LOG_U, &prefix);
            let mut per_shard_sum = Fp61::ZERO;
            for (s, t) in ts.into_iter().enumerate() {
                per_shard_sum += agg
                    .verify_oneshot_shard(s, expected[s], t, &proofs[s])
                    .unwrap();
            }
            assert_eq!(per_shard_sum, got);
        }
    }

    #[test]
    fn oneshot_corrupted_shard_is_blamed() {
        let stream = workloads::paper_f2(1 << 6, 11);
        let shards = 3u32;
        let point: Vec<Fp61> = (0..6u64).map(|i| Fp61::from_u64(500 + i)).collect();
        let plan = ShardPlan::new(6, shards);
        let parts = plan.split(&stream);
        let expected: Vec<Fp61> = parts
            .iter()
            .map(|p| {
                let mut e = sip_lde::StreamingLdeEvaluator::new(
                    sip_lde::LdeParams::binary(6),
                    point.clone(),
                );
                e.update_all(p);
                e.value() * e.value()
            })
            .collect();
        for guilty in 0..shards as usize {
            let fvs: Vec<FrequencyVector> = parts
                .iter()
                .map(|p| FrequencyVector::from_stream(1 << 6, p))
                .collect();
            let mut provers: Vec<F2Prover<Fp61>> =
                fvs.iter().map(|fv| F2Prover::new(fv, 6)).collect();
            let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
                .iter_mut()
                .map(|p| p as &mut dyn RoundProver<Fp61>)
                .collect();
            let agg = AggregatingVerifier::new(point.clone(), 2, shards as usize);
            let prefix = agg.challenge_prefix().to_vec();
            let mut report = ClusterCostReport::new(shards as usize);
            let mut proofs = prove_oneshot_sharded(
                &mut dyns,
                shard_transcripts(shards, 6, &prefix),
                &prefix,
                &mut report,
            )
            .unwrap();
            // Wire-style corruption of one shard's sealed frame.
            proofs[guilty].rounds[2][1] += Fp61::ONE;
            let err = verify_all(
                &agg,
                &expected,
                shard_transcripts(shards, 6, &prefix),
                &proofs,
            )
            .unwrap_err();
            assert_eq!(err.blamed_shard(), Some(guilty as u32), "{err}");
            assert!(matches!(
                err,
                Rejection::Blame { ref cause, .. } if **cause == Rejection::TranscriptMismatch
            ));
        }
        // A shard lying about its data seals a *consistent* digest; the
        // deferred algebra still blames it.
        let mut wrong: Vec<FrequencyVector> = parts
            .iter()
            .map(|p| FrequencyVector::from_stream(1 << 6, p))
            .collect();
        let (lo, _) = plan.range(1);
        wrong[1].apply(Update::new(lo, 1));
        let mut provers: Vec<F2Prover<Fp61>> =
            wrong.iter().map(|fv| F2Prover::new(fv, 6)).collect();
        let mut dyns: Vec<&mut dyn RoundProver<Fp61>> = provers
            .iter_mut()
            .map(|p| p as &mut dyn RoundProver<Fp61>)
            .collect();
        let agg = AggregatingVerifier::new(point, 2, shards as usize);
        let prefix = agg.challenge_prefix().to_vec();
        let mut report = ClusterCostReport::new(shards as usize);
        let proofs = prove_oneshot_sharded(
            &mut dyns,
            shard_transcripts(shards, 6, &prefix),
            &prefix,
            &mut report,
        )
        .unwrap();
        let err = verify_all(
            &agg,
            &expected,
            shard_transcripts(shards, 6, &prefix),
            &proofs,
        )
        .unwrap_err();
        assert_eq!(err.blamed_shard(), Some(1), "{err}");
        assert_ne!(
            err,
            Rejection::blame(1, Rejection::TranscriptMismatch),
            "a lying shard fails algebra, not the digest"
        );
    }
}

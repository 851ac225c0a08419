//! Multiple queries and parallel repetition (Section 7).
//!
//! Two remedies the paper gives for running more than one query:
//!
//! * **Round-by-round batching** — "it is safe to run multiple queries in
//!   parallel round-by-round using the same randomly chosen values, and
//!   obtain the same guarantees for each query. This can be thought of as
//!   a 'direct sum' result." [`run_batch_range_sum`] verifies any number
//!   of RANGE-SUM queries against *one* streamed digest: the verifier
//!   keeps a single `(r, f_a(r))` pair, the prover folds the data vector
//!   once for all queries, and each round broadcasts one shared challenge.
//! * **Parallel repetition** — "we can reduce probability of error to p by
//!   repeating the protocol O(log 1/p) times in parallel".
//!   [`run_f2_repeated`] runs `c` independent F₂ copies (independent
//!   digests, shared stream pass) and accepts only a unanimous, consistent
//!   verdict, squaring/cubing/… the soundness error.

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::{range_indicator_lde, LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::engine::FusedRounds;
use crate::error::Rejection;
use crate::sumcheck::f2::{F2Prover, F2Verifier};
use crate::sumcheck::moments::VerifiedAggregate;
use crate::sumcheck::range_sum::{IndicatorLevel, RangeSumCombine};
use crate::sumcheck::{drive_sumcheck, RoundProver, SumCheckVerifierCore};

/// A batch of verified range sums plus the shared cost accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedBatch<F: PrimeField> {
    /// One verified sum per queried range, in query order.
    pub values: Vec<F>,
    /// Combined cost: note `v_to_p_words` carries *one* challenge per
    /// round regardless of the number of queries (the direct-sum saving).
    pub report: CostReport,
}

/// Verifies `ranges.len()` RANGE-SUM queries in parallel, round by round,
/// over a single streamed digest.
///
/// Soundness per query is unchanged (the per-query checks are the same;
/// the challenges are still uniform and unknown in advance); the verifier
/// stores one digest instead of one per query.
pub fn run_batch_range_sum<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    ranges: &[(u64, u64)],
    rng: &mut R,
) -> Result<VerifiedBatch<F>, Rejection> {
    assert!(!ranges.is_empty(), "empty batch");
    let u = 1u64 << log_u;
    for &(l, r) in ranges {
        assert!(l <= r && r < u, "bad range [{l}, {r}]");
    }
    let d = log_u as usize;

    // --- Shared streaming digest. ---------------------------------------
    let mut lde = StreamingLdeEvaluator::<F>::random(LdeParams::binary(log_u), rng);
    lde.update_batch(stream);

    // --- Prover: one shared fold of `a`, one indicator level per query. --
    let fv = FrequencyVector::from_stream(u, stream);
    let mut a = FusedRounds::<F>::new(&fv, log_u);
    let mut challenges: Vec<F> = Vec::new();
    let levels_after = |challenges: &[F]| -> Vec<IndicatorLevel<F>> {
        ranges
            .iter()
            .map(|&(q_l, q_r)| IndicatorLevel::new(q_l, q_r, challenges))
            .collect()
    };
    let mut levels = levels_after(&challenges);

    // --- Verifier: one round checker per query over the shared point. ----
    let mut cores = vec![SumCheckVerifierCore::from_lde(&lde, 2); ranges.len()];
    let mut report = CostReport {
        v_to_p_words: 2 * ranges.len(), // the query ranges
        verifier_space_words: lde.space_words() + cores.len() * cores[0].space_words(),
        ..CostReport::default()
    };

    for _ in 0..d {
        report.rounds += 1;
        // One message per query this round, all from the same sweep of `a`.
        let msgs = a.message(&RangeSumCombine { ranges: &levels });
        let mut challenge = None;
        for (core, msg) in cores.iter_mut().zip(msgs.chunks_exact(3)) {
            report.p_to_v_words += msg.len();
            challenge = core.receive(msg)?;
        }
        // One shared challenge for all queries.
        if let Some(r_j) = challenge {
            report.v_to_p_words += 1;
            challenges.push(r_j);
            levels = levels_after(&challenges);
            a.bind(r_j, &RangeSumCombine { ranges: &levels });
        }
    }

    // --- Final checks: g_d(r_d) = f_a(r)·f_b_i(r) per query. -------------
    let fa_r = lde.value();
    let values = cores
        .iter()
        .zip(ranges)
        .map(|(core, &(q_l, q_r))| core.finalize(fa_r * range_indicator_lde(q_l, q_r, lde.point())))
        .collect::<Result<_, _>>()?;
    Ok(VerifiedBatch { values, report })
}

/// Runs `copies` independent F₂ protocols over the same stream in one
/// pass, accepting only if every copy accepts *and* all verified values
/// agree. Failure probability drops from `ε` to `ε^copies`.
pub fn run_f2_repeated<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    copies: usize,
    rng: &mut R,
) -> Result<VerifiedAggregate<F>, Rejection> {
    assert!(copies >= 1);
    // One streaming pass updates all digests (MultiLdeEvaluator mirrors
    // how a deployment would fuse them; here each copy owns a verifier).
    let mut verifiers: Vec<F2Verifier<F>> =
        (0..copies).map(|_| F2Verifier::new(log_u, rng)).collect();
    for v in &mut verifiers {
        v.update_batch(stream);
    }
    let fv = FrequencyVector::from_stream(1 << log_u, stream);

    let mut agreed: Option<F> = None;
    let mut total = CostReport::default();
    for verifier in verifiers {
        total.verifier_space_words += verifier.space_words();
        let mut prover = F2Prover::new(&fv, log_u);
        let (mut core, expected) = verifier.into_session();
        let mut report = CostReport::default();
        let value = drive_sumcheck(&mut prover, &mut core, expected, &mut report, None)?;
        total.rounds += report.rounds;
        total.p_to_v_words += report.p_to_v_words;
        total.v_to_p_words += report.v_to_p_words;
        match agreed {
            None => agreed = Some(value),
            Some(prev) if prev == value => {}
            Some(_) => {
                return Err(Rejection::StructuralCheckFailed {
                    detail: "parallel repetitions disagree on the answer".to_string(),
                })
            }
        }
        let _ = prover.degree();
    }
    Ok(VerifiedAggregate {
        value: agreed.expect("copies >= 1"),
        report: total,
    })
}

/// The `MultiLdeEvaluator` route to repetition: evaluates one digest at
/// `copies` points in a single object (used by deployments that want the
/// fused stream pass). Returns the per-copy digests `(point, value)`.
pub fn fused_digests<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    copies: usize,
    rng: &mut R,
) -> Vec<(Vec<F>, F)> {
    let mut multi = MultiLdeEvaluator::<F>::random(LdeParams::binary(log_u), copies, rng);
    multi.update_batch(stream);
    (0..multi.num_points())
        .map(|p| (multi.point(p).to_vec(), multi.value(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn batch_matches_individual_range_sums() {
        let mut rng = StdRng::seed_from_u64(1);
        let log_u = 9;
        let stream = workloads::distinct_key_values(300, 1 << log_u, 100, 2);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let ranges = [(0u64, 511u64), (10, 20), (100, 400), (256, 256)];
        let got = run_batch_range_sum::<Fp61, _>(log_u, &stream, &ranges, &mut rng).unwrap();
        for (qi, &(l, r)) in ranges.iter().enumerate() {
            assert_eq!(
                got.values[qi],
                Fp61::from_u128(fv.range_sum(l, r) as u128),
                "range [{l},{r}]"
            );
        }
    }

    #[test]
    fn batch_shares_challenges() {
        // v_to_p = 2 words per range (the queries) + d−1 shared challenges,
        // NOT k·(d−1).
        let mut rng = StdRng::seed_from_u64(2);
        let log_u = 8;
        let stream = workloads::uniform(200, 1 << log_u, 9, 3);
        let ranges = [(0u64, 100u64), (5, 9), (50, 250), (0, 255), (7, 7)];
        let got = run_batch_range_sum::<Fp61, _>(log_u, &stream, &ranges, &mut rng).unwrap();
        let d = log_u as usize;
        assert_eq!(got.report.v_to_p_words, 2 * ranges.len() + d - 1);
        assert_eq!(got.report.p_to_v_words, 3 * d * ranges.len());
        assert_eq!(got.report.rounds, d);
    }

    #[test]
    fn repetition_matches_single_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let log_u = 8;
        let stream = workloads::paper_f2(1 << log_u, 4);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let got = run_f2_repeated::<Fp61, _>(log_u, &stream, 3, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.self_join_size() as u128));
        assert_eq!(got.report.rounds, 3 * log_u as usize);
    }

    #[test]
    fn fused_digests_match_individual_evaluators() {
        let mut rng = StdRng::seed_from_u64(4);
        let log_u = 7;
        let stream = workloads::uniform(100, 1 << log_u, 5, 5);
        let digests = fused_digests::<Fp61, _>(log_u, &stream, 4, &mut rng);
        assert_eq!(digests.len(), 4);
        for (point, value) in digests {
            let mut single = StreamingLdeEvaluator::<Fp61>::new(LdeParams::binary(log_u), point);
            single.update_all(&stream);
            assert_eq!(single.value(), value);
        }
    }

    #[test]
    fn single_copy_repetition_equals_plain_f2() {
        let mut rng = StdRng::seed_from_u64(5);
        let log_u = 7;
        let stream = workloads::uniform(150, 1 << log_u, 9, 6);
        let rep = run_f2_repeated::<Fp61, _>(log_u, &stream, 1, &mut rng).unwrap();
        let plain = crate::sumcheck::f2::run_f2::<Fp61, _>(log_u, &stream, &mut rng).unwrap();
        assert_eq!(rep.value, plain.value);
    }
}

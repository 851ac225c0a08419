//! Frequency moments `F_k = Σ_i a_iᵏ` for any `k ≥ 1` (Section 3.2).
//!
//! "We can simply replace f²_a with fᵏ_a … The communication cost increases
//! to O(k·log u), since each g_j now has degree O(k) … However, the
//! verifier's space bound remains at O(log u) words."
//!
//! The round polynomial is `g_j(c) = Σ_m (fold_a(c, m))ᵏ` of degree `k`;
//! messages carry `k + 1` evaluations.

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::{LdeParams, StreamingLdeEvaluator};
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::engine::{Combine, FusedRounds};
use crate::error::Rejection;

use super::{drive_sumcheck, Adversary, LdeDigest, Moment, RoundProver, SumCheckVerifierCore};

/// Streaming verifier state for `F_k` over `[2^log_u]`: the [`LdeDigest`]
/// of a [`Moment`] query.
pub type MomentVerifier<F> = LdeDigest<Moment, F>;

impl<F: PrimeField> MomentVerifier<F> {
    /// Draws the secret point and prepares to stream; `k ≥ 1`.
    pub fn new<R: Rng + ?Sized>(k: u32, log_u: u32, rng: &mut R) -> Self {
        Self::drawn(Moment::new(k), LdeParams::binary(log_u), rng)
    }

    /// The moment order `k`.
    pub fn k(&self) -> u32 {
        self.query().k()
    }

    /// Rebuilds the verifier around a restored digest (checkpoint resume).
    ///
    /// # Panics
    /// Panics if `k == 0` or the evaluator is not binary.
    pub fn from_parts(k: u32, lde: StreamingLdeEvaluator<F>) -> Self {
        Self::with_query(Moment::new(k), lde)
    }

    /// Ends the streaming phase: returns the session state and the value
    /// the final round must match, `f_a(r)ᵏ`.
    pub fn into_session(self) -> (SumCheckVerifierCore<F>, F) {
        let fa_r_km1 = self.evaluator().value().pow(self.k() as u128 - 1);
        self.session(fa_r_km1)
    }
}

/// The `F_k` per-pair rule: the interpolant `lo + c·(hi − lo)` walks an
/// arithmetic progression in `c`; each stop is raised to the `k`-th power.
pub struct MomentCombine {
    /// Moment order `k ≥ 1` (message degree).
    pub k: u32,
}

impl<F: PrimeField> Combine<F> for MomentCombine {
    fn slots(&self) -> usize {
        self.k as usize + 1
    }

    #[inline]
    fn accumulate(&self, _m: u64, a: &[F], _b: &[F], acc: &mut [F::DotAcc]) {
        let (lo, hi) = (a[0], a[1]);
        let diff = hi - lo;
        let mut val = lo;
        // valᵏ = valᵏ⁻¹·val feeds the fused product accumulator.
        let km1 = (self.k - 1) as u128;
        F::acc_add_prod(&mut acc[0], val.pow(km1), val);
        for slot in acc.iter_mut().skip(1) {
            val += diff;
            F::acc_add_prod(slot, val.pow(km1), val);
        }
    }
}

/// Honest prover for `F_k`: folds the table of Appendix B.1 and raises the
/// pairwise linear interpolants to the `k`-th power.
#[derive(Clone, Debug)]
pub struct MomentProver<F: PrimeField> {
    k: u32,
    fused: FusedRounds<F>,
}

impl<F: PrimeField> MomentProver<F> {
    /// Builds the prover state from the materialised frequency vector.
    pub fn new(k: u32, fv: &FrequencyVector, log_u: u32) -> Self {
        assert!(k >= 1);
        MomentProver {
            k,
            fused: FusedRounds::new(fv, log_u),
        }
    }
}

impl<F: PrimeField> RoundProver<F> for MomentProver<F> {
    fn degree(&self) -> usize {
        self.k as usize
    }

    fn rounds(&self) -> usize {
        self.fused.table().bits() as usize
    }

    fn message(&mut self) -> Vec<F> {
        self.fused.message(&MomentCombine { k: self.k })
    }

    fn bind(&mut self, r: F) {
        self.fused.bind(r, &MomentCombine { k: self.k });
    }
}

/// Outcome of a verified aggregation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedAggregate<F: PrimeField> {
    /// The verified answer, as a field element (exact whenever the true
    /// answer is below the field modulus).
    pub value: F,
    /// Cost accounting for the run.
    pub report: CostReport,
}

/// Runs the complete honest `F_k` protocol over `stream`.
pub fn run_moment<F: PrimeField, R: Rng + ?Sized>(
    k: u32,
    log_u: u32,
    stream: &[Update],
    rng: &mut R,
) -> Result<VerifiedAggregate<F>, Rejection> {
    run_moment_with_adversary(k, log_u, stream, rng, None)
}

/// Like [`run_moment`] but with a message-corruption hook (tamper testing).
pub fn run_moment_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    k: u32,
    log_u: u32,
    stream: &[Update],
    rng: &mut R,
    adversary: Option<Adversary<'_, F>>,
) -> Result<VerifiedAggregate<F>, Rejection> {
    let mut verifier = MomentVerifier::<F>::new(k, log_u, rng);
    verifier.update_all(stream);
    let space = verifier.space_words();

    let fv = FrequencyVector::from_stream(1 << log_u, stream);
    let mut prover = MomentProver::new(k, &fv, log_u);

    let (mut core, expected) = verifier.into_session();
    let mut report = CostReport {
        verifier_space_words: space,
        ..CostReport::default()
    };
    let value = drive_sumcheck(&mut prover, &mut core, expected, &mut report, adversary)?;
    Ok(VerifiedAggregate { value, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::{Fp127, Fp61};
    use sip_streaming::workloads;

    #[test]
    fn completeness_small_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let log_u = 8;
        let stream = workloads::uniform(300, 1 << log_u, 20, 42);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        for k in 1..=5u32 {
            let got = run_moment::<Fp61, _>(k, log_u, &stream, &mut rng).unwrap();
            assert_eq!(
                got.value,
                Fp61::from_u128(fv.frequency_moment(k) as u128),
                "k={k}"
            );
            // (s, t) accounting: d rounds, (k+1) words down per round,
            // d − 1 challenges up.
            assert_eq!(got.report.rounds, log_u as usize);
            assert_eq!(got.report.p_to_v_words, (k as usize + 1) * log_u as usize);
            assert_eq!(got.report.v_to_p_words, log_u as usize - 1);
        }
    }

    #[test]
    fn f1_equals_total() {
        let mut rng = StdRng::seed_from_u64(2);
        let stream = workloads::uniform(100, 1 << 6, 9, 3);
        let fv = FrequencyVector::from_stream(1 << 6, &stream);
        let got = run_moment::<Fp61, _>(1, 6, &stream, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.total() as u128));
    }

    #[test]
    fn works_with_deletions() {
        let mut rng = StdRng::seed_from_u64(3);
        let stream = workloads::with_deletions(500, 1 << 7, 0.3, 4);
        let fv = FrequencyVector::from_stream(1 << 7, &stream);
        let got = run_moment::<Fp61, _>(3, 7, &stream, &mut rng).unwrap();
        assert_eq!(
            got.value,
            Fp61::from_i64(0) + {
                // F3 with nonnegative counts here
                Fp61::from_u128(fv.frequency_moment(3) as u128)
            }
        );
    }

    #[test]
    fn works_over_fp127() {
        let mut rng = StdRng::seed_from_u64(4);
        let stream = workloads::paper_f2(1 << 6, 5);
        let fv = FrequencyVector::from_stream(1 << 6, &stream);
        let got = run_moment::<Fp127, _>(4, 6, &stream, &mut rng).unwrap();
        assert_eq!(got.value, Fp127::from_u128(fv.frequency_moment(4) as u128));
    }

    #[test]
    fn tampered_message_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let stream = workloads::uniform(200, 1 << 8, 10, 6);
        for bad_round in [1usize, 4, 8] {
            let mut adv = |round: usize, msg: &mut Vec<Fp61>| {
                if round == bad_round {
                    msg[0] += Fp61::ONE;
                }
            };
            let err = run_moment_with_adversary::<Fp61, _>(2, 8, &stream, &mut rng, Some(&mut adv))
                .unwrap_err();
            match err {
                // Corrupting evaluation slot 0 perturbs the grid sum, so the
                // round's own consistency check trips — except in round 1,
                // where there is no previous claim and the lie surfaces one
                // round later.
                Rejection::RoundSumMismatch { round } => {
                    assert_eq!(round, if bad_round == 1 { 2 } else { bad_round });
                }
                other => panic!("unexpected rejection {other:?}"),
            }
        }
    }

    #[test]
    fn consistent_tampering_of_round1_changes_output_but_fails_later() {
        // An adversary shifting g_1 by a constant polynomial changes the
        // claimed output; the protocol must still reject eventually.
        let mut rng = StdRng::seed_from_u64(6);
        let stream = workloads::uniform(200, 1 << 8, 10, 7);
        let mut adv = |round: usize, msg: &mut Vec<Fp61>| {
            if round == 1 {
                for e in msg.iter_mut() {
                    *e += Fp61::from_u64(17);
                }
            }
        };
        let err = run_moment_with_adversary::<Fp61, _>(2, 8, &stream, &mut rng, Some(&mut adv))
            .unwrap_err();
        assert!(matches!(
            err,
            Rejection::RoundSumMismatch { .. } | Rejection::FinalCheckFailed
        ));
    }
}

//! SELF-JOIN SIZE / `F₂` (Section 3.1) — the paper's flagship protocol.
//!
//! A `(log u, log u)`-protocol: the verifier streams `f_a(r)` (Theorem 1),
//! then over `d = log₂ u` rounds receives degree-2 polynomials
//!
//! ```text
//! g_j(x_j) = Σ_{x_{j+1..d} ∈ [2]^{d−j}} f_a²(r_1, …, r_{j−1}, x_j, …, x_d)
//! ```
//!
//! and accepts iff every consecutive pair is consistent and
//! `g_d(r_d) = f_a(r)²`. This module is the `k = 2` specialisation of
//! [`super::moments`] with a squared-fold prover fast path — the code the
//! Figure 2 benchmarks exercise.

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::{LdeParams, StreamingLdeEvaluator, WeightBank};
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::digest_bank::BankedDigest;
use crate::engine::{Combine, FusedRounds, ProverPool};
use crate::error::Rejection;

use super::moments::VerifiedAggregate;
use super::{drive_sumcheck, Adversary, RoundProver, SumCheckVerifierCore};

/// Streaming verifier for SELF-JOIN SIZE over `[2^log_u]`.
///
/// Space: `log u + 1` words of protocol state; time per update `O(log u)`.
#[derive(Clone, Debug)]
pub struct F2Verifier<F: PrimeField> {
    lde: StreamingLdeEvaluator<F>,
}

impl<F: PrimeField> F2Verifier<F> {
    /// Draws the secret point `r` and prepares to observe the stream.
    pub fn new<R: Rng + ?Sized>(log_u: u32, rng: &mut R) -> Self {
        F2Verifier {
            lde: StreamingLdeEvaluator::random(LdeParams::binary(log_u), rng),
        }
    }

    /// The streaming digest (the verifier's entire protocol state) — what a
    /// checkpoint must capture.
    pub fn evaluator(&self) -> &StreamingLdeEvaluator<F> {
        &self.lde
    }

    /// Rebuilds the verifier around a restored digest (checkpoint resume).
    ///
    /// # Panics
    /// Panics if the evaluator is not over the binary parameterisation
    /// this protocol runs on.
    pub fn from_evaluator(lde: StreamingLdeEvaluator<F>) -> Self {
        assert_eq!(lde.params().base(), 2, "F2 runs over the binary LDE");
        F2Verifier { lde }
    }

    /// Processes one stream update.
    pub fn update(&mut self, up: Update) {
        self.lde.update(up);
    }

    /// Processes a whole stream.
    pub fn update_all(&mut self, stream: &[Update]) {
        self.lde.update_all(stream);
    }

    /// Processes a whole batch through the delayed-reduction ingest path;
    /// the digest value is bit-identical to per-update [`Self::update`].
    pub fn update_batch(&mut self, batch: &[Update]) {
        self.lde.update_batch(batch);
    }

    /// Verifier space in words.
    pub fn space_words(&self) -> usize {
        self.lde.space_words() + 3
    }

    /// Ends streaming; returns the round-checking core and the final-check
    /// value `f_a(r)²`.
    pub fn into_session(self) -> (SumCheckVerifierCore<F>, F) {
        let fa_r = self.lde.value();
        (
            SumCheckVerifierCore::new(self.lde.point().to_vec(), 2),
            fa_r * fa_r,
        )
    }
}

impl<F: PrimeField> BankedDigest<F> for F2Verifier<F> {
    fn push_weights(&self, bank: &mut WeightBank<F>) {
        bank.push_lde_point(self.lde.point());
    }
    fn absorb(&mut self, partial: F, n_updates: u64) {
        self.lde.absorb(partial, n_updates);
    }
}

/// The F₂ per-pair rule: `g_j(c) = Σ_m (lo + c·(hi − lo))²` at
/// `c = 0, 1, 2`.
pub struct F2Combine;

impl<F: PrimeField> Combine<F> for F2Combine {
    fn slots(&self) -> usize {
        3
    }

    #[inline(always)]
    fn accumulate(&self, _m: u64, a: &[F], _b: &[F], acc: &mut [F::DotAcc]) {
        let (lo, hi) = (a[0], a[1]);
        F::acc_add_prod(&mut acc[0], lo, lo);
        F::acc_add_prod(&mut acc[1], hi, hi);
        let v2 = hi + (hi - lo);
        F::acc_add_prod(&mut acc[2], v2, v2);
    }
}

/// Honest `F₂` prover (Appendix B.1 fold with squared combine).
#[derive(Clone, Debug)]
pub struct F2Prover<F: PrimeField> {
    fused: FusedRounds<F>,
}

impl<F: PrimeField> F2Prover<F> {
    /// Builds prover state from the materialised frequency vector (serial
    /// engine). `O(1)`: the vector is snapshotted, not copied.
    pub fn new(fv: &FrequencyVector, log_u: u32) -> Self {
        Self::with_pool(fv, log_u, ProverPool::SERIAL)
    }

    /// Like [`Self::new`] with an explicit round-message scheduling pool.
    pub fn with_pool(fv: &FrequencyVector, log_u: u32, pool: ProverPool) -> Self {
        F2Prover {
            fused: FusedRounds::new(fv, log_u, pool),
        }
    }

    /// Starts the prover with `g_1` already known. F₂'s first message is a
    /// function of the data alone, so whoever holds an immutable vector can
    /// compute it once ([`RoundProver::message`] of a fresh prover) and
    /// hand it to every later prover over the same vector.
    pub fn with_first_message(mut self, g1: Vec<F>) -> Self {
        self.fused = self.fused.with_first_message(g1);
        self
    }
}

impl<F: PrimeField> RoundProver<F> for F2Prover<F> {
    fn degree(&self) -> usize {
        2
    }

    fn rounds(&self) -> usize {
        self.fused.table().bits() as usize
    }

    fn message(&mut self) -> Vec<F> {
        self.fused.message(&F2Combine)
    }

    fn bind(&mut self, r: F) {
        self.fused.bind(r, &F2Combine);
    }
}

/// Runs the complete honest SELF-JOIN SIZE protocol.
pub fn run_f2<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    rng: &mut R,
) -> Result<VerifiedAggregate<F>, Rejection> {
    run_f2_with_adversary(log_u, stream, rng, None)
}

/// Like [`run_f2`] with a message-corruption hook.
pub fn run_f2_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    rng: &mut R,
    adversary: Option<Adversary<'_, F>>,
) -> Result<VerifiedAggregate<F>, Rejection> {
    let mut verifier = F2Verifier::<F>::new(log_u, rng);
    verifier.update_all(stream);
    let space = verifier.space_words();

    let fv = FrequencyVector::from_stream(1 << log_u, stream);
    let mut prover = F2Prover::new(&fv, log_u);

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
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn completeness_paper_workload() {
        let mut rng = StdRng::seed_from_u64(1);
        for log_u in [4u32, 8, 10] {
            let stream = workloads::paper_f2(1 << log_u, log_u as u64);
            let fv = FrequencyVector::from_stream(1 << log_u, &stream);
            let got = run_f2::<Fp61, _>(log_u, &stream, &mut rng).unwrap();
            assert_eq!(
                got.value,
                Fp61::from_u128(fv.self_join_size() as u128),
                "log_u={log_u}"
            );
        }
    }

    #[test]
    fn matches_general_moment_protocol() {
        let mut rng = StdRng::seed_from_u64(2);
        let stream = workloads::uniform(500, 1 << 9, 30, 11);
        let f2 = run_f2::<Fp61, _>(9, &stream, &mut rng).unwrap();
        let fk = super::super::moments::run_moment::<Fp61, _>(2, 9, &stream, &mut rng).unwrap();
        assert_eq!(f2.value, fk.value);
        // F2 fast path also saves communication: same shape as k = 2.
        assert_eq!(f2.report.p_to_v_words, fk.report.p_to_v_words);
    }

    #[test]
    fn cost_shape_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(3);
        for log_u in [6u32, 10, 14] {
            let stream = workloads::uniform(100, 1 << log_u, 5, 13);
            let got = run_f2::<Fp61, _>(log_u, &stream, &mut rng).unwrap();
            let d = log_u as usize;
            assert_eq!(got.report.rounds, d);
            assert_eq!(got.report.p_to_v_words, 3 * d);
            assert_eq!(got.report.v_to_p_words, d - 1);
            assert_eq!(got.report.verifier_space_words, d + 1 + 3);
        }
    }

    #[test]
    fn empty_stream_gives_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let got = run_f2::<Fp61, _>(6, &[], &mut rng).unwrap();
        assert_eq!(got.value, Fp61::ZERO);
    }

    #[test]
    fn singleton_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let stream = [Update::new(37, 5)];
        let got = run_f2::<Fp61, _>(6, &stream, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(25));
    }

    #[test]
    fn negative_frequencies_square_correctly() {
        // a = [−3, 2]: F2 = 9 + 4 = 13 over the field.
        let mut rng = StdRng::seed_from_u64(6);
        let stream = [Update::new(0, -3), Update::new(1, 2)];
        let got = run_f2::<Fp61, _>(1, &stream, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(13));
    }

    #[test]
    fn every_round_corruption_is_caught() {
        // Exhaustive single-position corruption across all rounds and all
        // three evaluation slots: the "we also tried modifying the prover's
        // messages … in all cases the protocols caught the error" study.
        let stream = workloads::paper_f2(1 << 6, 77);
        for round in 1..=6usize {
            for slot in 0..3usize {
                let mut rng = StdRng::seed_from_u64(1000 + (round * 3 + slot) as u64);
                let mut adv = |rd: usize, msg: &mut Vec<Fp61>| {
                    if rd == round {
                        msg[slot] += Fp61::from_u64(1);
                    }
                };
                let res = run_f2_with_adversary::<Fp61, _>(6, &stream, &mut rng, Some(&mut adv));
                assert!(res.is_err(), "round={round} slot={slot} accepted!");
            }
        }
    }

    #[test]
    fn prover_for_wrong_stream_is_rejected() {
        // Prover computes an honest proof — for slightly different data.
        let mut rng = StdRng::seed_from_u64(7);
        let log_u = 8;
        let stream = workloads::paper_f2(1 << log_u, 21);
        let mut wrong = stream.clone();
        wrong[17].delta += 1;

        let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
        verifier.update_all(&stream);
        let fv = FrequencyVector::from_stream(1 << log_u, &wrong);
        let mut prover = F2Prover::new(&fv, log_u);
        let (mut core, expected) = verifier.into_session();
        let mut report = CostReport::default();
        let res = drive_sumcheck(&mut prover, &mut core, expected, &mut report, None);
        assert!(matches!(res, Err(Rejection::FinalCheckFailed)));
    }
}

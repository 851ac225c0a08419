//! SELF-JOIN SIZE over a general base `ℓ` — footnote 1's trade-off.
//!
//! The paper parameterises the sum-check by `(ℓ, d)` with `u = ℓ^d`:
//! verifier space `O(d + ℓ)`, communication `O(d·ℓ)` over `d` rounds.
//! `ℓ = 2` is "probably the most economical tradeoff"; footnote 1 notes
//! that e.g. `ℓ = logᵉ u` trades a bit more communication for a bit less
//! space, and the one-round baseline of \[6\] is the extreme `d = 2,
//! ℓ = √u`. This module implements the whole family for F₂ so the
//! `ell_tradeoff` bench can sweep it.
//!
//! Messages carry `2(ℓ−1)+1` evaluations; the verifier checks
//! `Σ_{x∈[ℓ]} g_j(x) = g_{j−1}(r_{j−1})` and finally
//! `g_d(r_d) = f_a(r)²` — the one [`SumCheckVerifierCore`](crate::sumcheck::SumCheckVerifierCore) every protocol
//! runs, at the base the digest's parameters fix.

use rand::Rng;
use sip_field::lagrange::chi_all;
use sip_field::PrimeField;
use sip_lde::LdeParams;
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::engine::{fold_message, Combine, FoldSource};
use crate::error::Rejection;
use crate::sumcheck::moments::VerifiedAggregate;
use crate::sumcheck::oneshot::OneShotProof;
use crate::sumcheck::{drive_sumcheck, LdeDigest, RoundProver, SelfJoin};
use crate::transcript::{query_transcript, Transcript};

/// Streaming verifier for F₂ over `[ℓ^d]`: the [`LdeDigest`] of a
/// [`SelfJoin`] query at any base. Its rounds run through the one
/// [`SumCheckVerifierCore`](crate::sumcheck::SumCheckVerifierCore), which reads `ℓ` off the digest.
pub type GeneralF2Verifier<F> = LdeDigest<SelfJoin<true>, F>;

impl<F: PrimeField> GeneralF2Verifier<F> {
    /// Draws the secret point over `[ℓ^d]`.
    pub fn new<R: Rng + ?Sized>(params: LdeParams, rng: &mut R) -> Self {
        Self::drawn(SelfJoin, params, rng)
    }

    /// Runs the verification conversation ([`drive_sumcheck`]) against an
    /// honest prover.
    pub fn verify(
        self,
        prover: &mut GeneralF2Prover<F>,
    ) -> Result<VerifiedAggregate<F>, Rejection> {
        let mut report = CostReport {
            verifier_space_words: self.space_words(),
            ..CostReport::default()
        };
        let (mut core, expected) = self.into_session();
        let value = drive_sumcheck(prover, &mut core, expected, &mut report, None)?;
        Ok(VerifiedAggregate { value, report })
    }

    /// The revealed challenge prefix of a one-shot run: every coordinate
    /// of the secret point except the last.
    pub fn challenge_prefix(&self) -> &[F] {
        let point = self.evaluator().point();
        &point[..point.len() - 1]
    }

    /// The canonical transcript context for a one-shot general-`ℓ` run:
    /// protocol `"general-f2"` with the base as a parameter and the digit
    /// dimension `d` in the `log_u` slot.
    pub fn oneshot_transcript(&self) -> Transcript {
        let params = self.evaluator().params();
        query_transcript::<F>(
            "general-f2",
            params.dimension(),
            None,
            &[params.base()],
            self.challenge_prefix(),
        )
    }

    /// One-shot counterpart of [`Self::verify`]: the core's deferred
    /// transcript check ([`SumCheckVerifierCore::verify_oneshot`](crate::sumcheck::SumCheckVerifierCore::verify_oneshot)) at grid
    /// width `ℓ`. `transcript` must match [`Self::oneshot_transcript`] (the
    /// prover seals the same context).
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_oneshot(
        self,
        transcript: Transcript,
        proof: &OneShotProof<F>,
    ) -> Result<VerifiedAggregate<F>, Rejection> {
        let report = CostReport {
            rounds: 1,
            p_to_v_words: proof.words(),
            v_to_p_words: self.challenge_prefix().len(),
            verifier_space_words: self.space_words(),
        };
        let (core, expected) = self.into_session();
        let value = core.verify_oneshot(expected, transcript, proof)?;
        Ok(VerifiedAggregate { value, report })
    }
}

/// The general-`ℓ` per-block rule: each width-`ℓ` block is interpolated at
/// every evaluation point by a χ-weighted dot product, then squared —
/// `g_j(c) = Σ_m (Σ_k χ_k(c)·A[ℓm+k])²`.
pub struct GeneralEllCombine<'a, F> {
    /// `χ_k(c)` for every evaluation point `c ∈ {0, …, 2(ℓ−1)}`, `k ∈ [ℓ]`.
    chi_at_points: &'a [Vec<F>],
}

impl<F: PrimeField> Combine<F> for GeneralEllCombine<'_, F> {
    fn slots(&self) -> usize {
        self.chi_at_points.len()
    }

    #[inline]
    fn accumulate(&self, _m: u64, block: &[F], _b: &[F], acc: &mut [F::DotAcc]) {
        for (slot, chis) in acc.iter_mut().zip(self.chi_at_points) {
            let v = F::dot(block, chis);
            F::acc_add_prod(slot, v, v);
        }
    }
}

/// Honest F₂ prover over base `ℓ`: folds `ℓ` children per step.
#[derive(Clone, Debug)]
pub struct GeneralF2Prover<F: PrimeField> {
    params: LdeParams,
    /// Dense fold table, length `ℓ^{d−j}`.
    table: Vec<F>,
    /// `χ_k(c)` for every evaluation point `c ∈ {0, …, 2(ℓ−1)}`, `k ∈ [ℓ]`.
    chi_at_points: Vec<Vec<F>>,
}

impl<F: PrimeField> GeneralF2Prover<F> {
    /// Builds the prover from the materialised frequency vector.
    pub fn new(fv: &FrequencyVector, params: LdeParams) -> Self {
        assert!(fv.universe() <= params.universe());
        let mut table = vec![F::ZERO; params.universe() as usize];
        for (i, f) in fv.nonzero() {
            table[i as usize] = F::from_i64(f);
        }
        let ell = params.base();
        let degree = 2 * (ell as usize - 1);
        let chi_at_points = (0..=degree as u64)
            .map(|c| chi_all(ell, F::from_u64(c)))
            .collect();
        GeneralF2Prover {
            params,
            table,
            chi_at_points,
        }
    }

    /// The round polynomial: `g_j(c) = Σ_m (Σ_k χ_k(c)·A[ℓm+k])²` at
    /// `c = 0, …, 2(ℓ−1)`.
    pub fn message(&self) -> Vec<F> {
        fold_message(
            FoldSource::Blocks {
                table: &self.table,
                width: self.params.base() as usize,
            },
            &GeneralEllCombine {
                chi_at_points: &self.chi_at_points,
            },
        )
    }

    /// Binds the lowest digit to challenge `r`.
    pub fn bind(&mut self, r: F) {
        let ell = self.params.base() as usize;
        let chis = chi_all(self.params.base(), r);
        let next: Vec<F> = self
            .table
            .chunks_exact(ell)
            .map(|block| F::dot(block, &chis))
            .collect();
        self.table = next;
    }
}

impl<F: PrimeField> RoundProver<F> for GeneralF2Prover<F> {
    fn degree(&self) -> usize {
        2 * (self.params.base() as usize - 1)
    }
    fn rounds(&self) -> usize {
        self.params.dimension() as usize
    }
    fn message(&mut self) -> Vec<F> {
        GeneralF2Prover::message(self)
    }
    fn bind(&mut self, r: F) {
        GeneralF2Prover::bind(self, r);
    }
}

/// Runs the complete honest general-`ℓ` F₂ protocol.
pub fn run_general_f2<F: PrimeField, R: Rng + ?Sized>(
    params: LdeParams,
    stream: &[Update],
    rng: &mut R,
) -> Result<VerifiedAggregate<F>, Rejection> {
    let mut verifier = GeneralF2Verifier::<F>::new(params, rng);
    verifier.update_all(stream);
    let fv = FrequencyVector::from_stream(params.universe(), stream);
    let mut prover = GeneralF2Prover::new(&fv, params);
    verifier.verify(&mut prover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn agrees_with_binary_f2_across_bases() {
        let mut rng = StdRng::seed_from_u64(1);
        let stream = workloads::paper_f2(1 << 12, 2);
        let fv = FrequencyVector::from_stream(1 << 12, &stream);
        let expect = Fp61::from_u128(fv.self_join_size() as u128);
        for &(ell, d) in &[(2u64, 12u32), (4, 6), (8, 4), (16, 3), (64, 2)] {
            let params = LdeParams::new(ell, d);
            let got = run_general_f2::<Fp61, _>(params, &stream, &mut rng).unwrap();
            assert_eq!(got.value, expect, "ell={ell}");
            // Cost shape: d rounds of 2ℓ−1 words.
            assert_eq!(got.report.rounds, d as usize);
            assert_eq!(got.report.p_to_v_words, d as usize * (2 * ell as usize - 1));
        }
    }

    #[test]
    fn ell2_matches_specialised_module() {
        let mut rng = StdRng::seed_from_u64(2);
        let stream = workloads::uniform(300, 1 << 8, 20, 3);
        let gen = run_general_f2::<Fp61, _>(LdeParams::binary(8), &stream, &mut rng).unwrap();
        let spec = crate::sumcheck::f2::run_f2::<Fp61, _>(8, &stream, &mut rng).unwrap();
        assert_eq!(gen.value, spec.value);
        assert_eq!(gen.report, spec.report);
    }

    #[test]
    fn nonbinary_base_with_padding() {
        // Universe 3^5 = 243 covers a stream over [200].
        let mut rng = StdRng::seed_from_u64(3);
        let params = LdeParams::new(3, 5);
        let stream = workloads::uniform(150, 200, 9, 4);
        let fv = FrequencyVector::from_stream(243, &stream);
        let got = run_general_f2::<Fp61, _>(params, &stream, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.self_join_size() as u128));
    }

    #[test]
    fn oneshot_agrees_with_interactive_across_bases() {
        use crate::sumcheck::{prove_oneshot, ProverWalk};
        let mut rng = StdRng::seed_from_u64(5);
        let stream = workloads::paper_f2(1 << 10, 8);
        let fv_truth = FrequencyVector::from_stream(1 << 10, &stream);
        let expect = Fp61::from_u128(fv_truth.self_join_size() as u128);
        for &(ell, d) in &[(2u64, 10u32), (4, 5), (32, 2)] {
            let params = LdeParams::new(ell, d);
            let mut verifier = GeneralF2Verifier::<Fp61>::new(params, &mut rng);
            verifier.update_all(&stream);
            let fv = FrequencyVector::from_stream(params.universe(), &stream);
            let mut prover = GeneralF2Prover::new(&fv, params);
            let prefix = verifier.challenge_prefix().to_vec();
            let proof = prove_oneshot(
                &mut ProverWalk(&mut prover),
                verifier.oneshot_transcript(),
                &prefix,
                ell as usize,
            )
            .unwrap();
            let t = verifier.oneshot_transcript();
            let got = verifier.verify_oneshot(t, &proof).unwrap();
            assert_eq!(got.value, expect, "ell={ell}");
            assert_eq!(got.report.rounds, 1, "one frame, ell={ell}");
        }
    }

    #[test]
    fn oneshot_dishonest_prover_rejected() {
        use crate::sumcheck::{prove_oneshot, ProverWalk};
        let mut rng = StdRng::seed_from_u64(6);
        let params = LdeParams::new(4, 4);
        let stream = workloads::uniform(100, 200, 5, 7);
        let mut verifier = GeneralF2Verifier::<Fp61>::new(params, &mut rng);
        verifier.update_all(&stream);
        let mut wrong = stream.clone();
        wrong[0].delta += 1;
        let fv = FrequencyVector::from_stream(params.universe(), &wrong);
        let mut prover = GeneralF2Prover::new(&fv, params);
        let prefix = verifier.challenge_prefix().to_vec();
        let proof = prove_oneshot(
            &mut ProverWalk(&mut prover),
            verifier.oneshot_transcript(),
            &prefix,
            4,
        )
        .unwrap();
        let t = verifier.oneshot_transcript();
        let err = verifier.verify_oneshot(t, &proof).unwrap_err();
        // A consistently-sealed walk over wrong data dies on the algebra,
        // not the digest.
        assert_ne!(err, Rejection::TranscriptMismatch, "{err}");
    }

    /// Each lie is named exactly where the one core catches it, at bases
    /// the binary protocols never run.
    #[test]
    fn dishonest_round_rejected() {
        use crate::sumcheck::{drive_sumcheck, Adversary};
        let mut rng = StdRng::seed_from_u64(4);
        for &(ell, d) in &[(3u64, 4u32), (4, 4), (16, 3)] {
            let params = LdeParams::new(ell, d);
            let stream = workloads::uniform(100, params.universe(), 5, 5);
            let fv = FrequencyVector::from_stream(params.universe(), &stream);
            let mut wrong = stream.clone();
            wrong[0].delta += 1;
            let wrong = FrequencyVector::from_stream(params.universe(), &wrong);
            let mut against = |fv: &FrequencyVector, adversary: Option<Adversary<'_, Fp61>>| {
                let mut verifier = GeneralF2Verifier::<Fp61>::new(params, &mut rng);
                verifier.update_all(&stream);
                let (mut core, expected) = verifier.into_session();
                let mut prover = GeneralF2Prover::new(fv, params);
                let mut report = CostReport::default();
                drive_sumcheck(&mut prover, &mut core, expected, &mut report, adversary)
            };
            // A prover over other data passes every round sum.
            let other = against(&wrong, None);
            assert_eq!(other, Err(Rejection::FinalCheckFailed), "ell={ell}");
            let mut run = |adversary: Adversary<'_, Fp61>| against(&fv, Some(adversary));
            let (last, degree) = (d as usize, 2 * (ell as usize - 1));
            let short = run(&mut |round, msg| {
                if round == 2 {
                    msg.pop();
                }
            });
            let expected = degree + 1;
            let got = degree;
            assert_eq!(
                short,
                Err(Rejection::WrongMessageLength {
                    round: 2,
                    expected,
                    got
                }),
                "ell={ell}"
            );
            for j in 2..=last {
                // A grid evaluation moved: round j no longer sums to
                // g_{j−1}(r_{j−1}).
                let moved = run(&mut |round, msg| {
                    if round == j {
                        msg[0] += Fp61::ONE;
                    }
                });
                let round = j;
                assert_eq!(
                    moved,
                    Err(Rejection::RoundSumMismatch { round }),
                    "ell={ell}"
                );
            }
            // The last polynomial moved off the grid: every round sum holds,
            // g_d(r_d) does not.
            let off_grid = run(&mut |round, msg| {
                if round == last {
                    msg[degree] += Fp61::ONE;
                }
            });
            assert_eq!(off_grid, Err(Rejection::FinalCheckFailed), "ell={ell}");
        }
    }
}

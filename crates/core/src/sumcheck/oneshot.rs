//! One-shot (non-interactive) sum-check: the whole post-stream proof in a
//! single frame.
//!
//! # Soundness — there is none
//!
//! Interaction exists so that `g_j` is fixed before `r_j` is known. This
//! mode reveals `r_1, …, r_{d−1}` up front, so a prover can claim `F + Δ`,
//! send `g_1' = g_1 + Δ·(X − r_1)/(1 − 2r_1)` and be honest from round 2:
//! every residual below is zero and `F + Δ` is returned as verified, with
//! probability 1 (`tests/adaptive_prover.rs`, the `#[ignore]`d case). The
//! digest and the batched checks protect the frame, not the order, and any
//! one-message protocol for F₂ needs proof × space `h·v = Ω(u)` — so the
//! mode is being removed (ROADMAP item 1). Do not rely on its verdicts.
//!
//! # Mechanics
//!
//! The verifier sends `r_1, …, r_{d−1}` with the query; the prover walks
//! all `d` rounds locally and ships one [`OneShotProof`]: the claimed
//! output, every round polynomial, and a transcript digest binding the
//! proof to the exact query context (see [`crate::transcript`]).
//!
//! Verification defers the per-round algebra: after replaying the
//! transcript and checking the echoed digest byte-for-byte, the verifier
//! forms every round residual and tests one random linear combination of
//! them (weights squeezed from the transcript *after* the digest, so they
//! commit to the whole proof) — the deferred-check pattern of
//! non-interactive sum-check verifiers. On failure the residuals are
//! scanned in round order so the typed rejection is *identical* to what
//! the interactive path would have produced.

use sip_field::lagrange::eval_from_grid_evals;
use sip_field::PrimeField;

use crate::error::Rejection;
use crate::transcript::Transcript;

use super::SumCheckSession;

/// A complete one-shot sum-check proof: one frame from prover to verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneShotProof<F> {
    /// The claimed query output `Σ_{x∈[ℓ]} g_1(x)`.
    pub claimed: F,
    /// Every round polynomial `g_1, …, g_d`, each as `degree + 1`
    /// evaluations at `0, …, degree`.
    pub rounds: Vec<Vec<F>>,
    /// The prover's transcript digest over the query context and the proof
    /// body; the verifier recomputes and compares byte-for-byte.
    pub digest: [u8; 32],
}

impl<F> OneShotProof<F> {
    /// Total proof size in field words (claimed value + every round
    /// polynomial + the digest at `digest_words::<F>()`).
    pub fn words(&self) -> usize
    where
        F: PrimeField,
    {
        1 + self.rounds.iter().map(Vec::len).sum::<usize>() + crate::transcript::digest_words::<F>()
    }
}

/// Prover side: walks all `challenges.len() + 1` rounds locally — message,
/// bind the revealed challenge, repeat — then seals the transcript.
///
/// `transcript` must come from [`crate::transcript::query_transcript`]
/// with the *same* challenge prefix; `ell` is the grid width (2 for the
/// binary protocols). The walk is the only prover-side work: no waiting on
/// the verifier between rounds.
///
/// # Soundness
/// The one-shot mode is unsound (`sumcheck::oneshot` module docs): no verifier
/// should rely on a proof produced this way.
pub fn prove_oneshot<F: PrimeField, W: SumCheckSession<F> + ?Sized>(
    walk: &mut W,
    mut transcript: Transcript,
    challenges: &[F],
    ell: usize,
) -> Result<OneShotProof<F>, Rejection> {
    assert!(ell >= 2, "grid width must be at least 2");
    let rounds = challenges.len() + 1;
    let mut polys = Vec::with_capacity(rounds);
    for &r in challenges {
        polys.push(walk.message()?);
        walk.bind(r)?;
    }
    // Final round: the last coordinate is the verifier's secret, no bind.
    polys.push(walk.message()?);
    let claimed = polys[0].iter().take(ell).fold(F::ZERO, |a, &b| a + b);
    absorb_proof_body(&mut transcript, claimed, &polys);
    let digest = transcript.digest();
    Ok(OneShotProof {
        claimed,
        rounds: polys,
        digest,
    })
}

/// The canonical proof-body absorption order (shared by prover and
/// verifier): claimed value first, then each round polynomial in order.
fn absorb_proof_body<F: PrimeField>(t: &mut Transcript, claimed: F, rounds: &[Vec<F>]) {
    t.absorb_field("claimed", claimed);
    for g in rounds {
        t.absorb_fields("round-poly", g);
    }
}

/// Verifier side, parameterised by grid width `ell` (2 for the binary
/// protocols, `ℓ` for the general-ℓ parameterisation).
///
/// Check order, chosen so every failure mode maps to the *same* typed
/// rejection the interactive driver produces:
///
/// 1. **Structure** — round count must be `point.len()`, every polynomial
///    must carry `degree + 1` evaluations ([`Rejection::WrongMessageLength`]
///    names the first bad round).
/// 2. **Transcript** — replay the hash chain over the proof body and
///    compare the echoed digest byte-for-byte
///    ([`Rejection::TranscriptMismatch`]): any transported corruption dies
///    here before the verifier runs any field algebra.
/// 3. **Deferred batch** — form the `d + 1` round residuals (claimed vs
///    `Σ g_1`, each round-sum consistency, the final check against
///    `streamed`) and test one random linear combination with weights
///    squeezed from the transcript after the digest. On failure, scan the
///    residuals in round order and name the first nonzero one exactly as
///    rounds would have failed interactively.
///
/// On acceptance returns the now-verified claimed output.
///
/// # Soundness
/// None: a prover that uses the revealed prefix has a false answer accepted
/// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
pub fn verify_oneshot_grid<F: PrimeField>(
    point: &[F],
    degree: usize,
    ell: usize,
    streamed: F,
    mut transcript: Transcript,
    proof: &OneShotProof<F>,
) -> Result<F, Rejection> {
    let d = point.len();
    if proof.rounds.len() != d {
        return Err(Rejection::MalformedAnswer {
            detail: format!(
                "one-shot proof carries {} round polynomials, the query needs {d}",
                proof.rounds.len()
            ),
        });
    }
    for (j, g) in proof.rounds.iter().enumerate() {
        if g.len() != degree + 1 {
            return Err(Rejection::WrongMessageLength {
                round: j + 1,
                expected: degree + 1,
                got: g.len(),
            });
        }
    }

    absorb_proof_body(&mut transcript, proof.claimed, &proof.rounds);
    if transcript.digest() != proof.digest {
        return Err(Rejection::TranscriptMismatch);
    }

    // Residuals: [0] claimed vs Σ g_1; [j] round-sum consistency of round
    // j+1; [d] the final check against the streamed LDE value.
    let mut residuals = Vec::with_capacity(d + 1);
    let mut claim = proof.claimed;
    for (j, g) in proof.rounds.iter().enumerate() {
        let grid_sum = g.iter().take(ell).fold(F::ZERO, |a, &b| a + b);
        residuals.push(grid_sum - claim);
        claim = eval_from_grid_evals(g, point[j]);
    }
    residuals.push(claim - streamed);

    let mut batched = F::ZERO;
    for &res in &residuals {
        batched += transcript.challenge::<F>() * res;
    }
    if batched != F::ZERO {
        // Diagnose: the first nonzero residual in round order is exactly
        // where the interactive verifier would have stopped.
        for (j, &res) in residuals.iter().enumerate() {
            if !res.is_zero() {
                return Err(if j == 0 {
                    Rejection::MalformedAnswer {
                        detail: "claimed value disagrees with the first round polynomial"
                            .to_string(),
                    }
                } else if j < d {
                    Rejection::RoundSumMismatch { round: j + 1 }
                } else {
                    Rejection::FinalCheckFailed
                });
            }
        }
        unreachable!("a nonzero linear combination has a nonzero term");
    }
    Ok(proof.claimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcript::query_transcript;
    use sip_field::Fp61;

    fn f(x: u64) -> Fp61 {
        Fp61::from_u64(x)
    }

    /// A degree-1, hand-computable honest walk over fixed polynomials.
    struct FixedWalk {
        polys: Vec<Vec<Fp61>>,
        next: usize,
    }

    impl SumCheckSession<Fp61> for FixedWalk {
        fn message(&mut self) -> Result<Vec<Fp61>, Rejection> {
            self.next += 1;
            Ok(self.polys[self.next - 1].clone())
        }
        fn bind(&mut self, _r: Fp61) -> Result<(), Rejection> {
            Ok(())
        }
    }

    fn fixture() -> (Vec<Fp61>, OneShotProof<Fp61>, Fp61) {
        // d = 2, degree 1: g1 = (4, 6) → output 10, g1(r1=10) = 24;
        // g2 = (11, 13) sums to 24 ✓, g2(r2=3) = 17 = streamed.
        let point = vec![f(10), f(3)];
        let mut walk = FixedWalk {
            polys: vec![vec![f(4), f(6)], vec![f(11), f(13)]],
            next: 0,
        };
        let t = query_transcript::<Fp61>("test", 2, None, &[], &point[..1]);
        let proof = prove_oneshot(&mut walk, t, &point[..1], 2).unwrap();
        (point, proof, f(17))
    }

    fn verify(
        point: &[Fp61],
        proof: &OneShotProof<Fp61>,
        streamed: Fp61,
    ) -> Result<Fp61, Rejection> {
        let t = query_transcript::<Fp61>("test", 2, None, &[], &point[..1]);
        verify_oneshot_grid(point, 1, 2, streamed, t, proof)
    }

    #[test]
    fn honest_proof_accepts() {
        let (point, proof, streamed) = fixture();
        assert_eq!(verify(&point, &proof, streamed).unwrap(), f(10));
        assert_eq!(proof.claimed, f(10));
        assert_eq!(proof.words(), 1 + 4 + 4);
    }

    #[test]
    fn tampered_body_is_a_transcript_mismatch() {
        let (point, proof, streamed) = fixture();
        let mut bad = proof.clone();
        bad.rounds[1][0] += Fp61::ONE;
        assert!(matches!(
            verify(&point, &bad, streamed),
            Err(Rejection::TranscriptMismatch)
        ));
        let mut bad = proof.clone();
        bad.claimed += Fp61::ONE;
        assert!(matches!(
            verify(&point, &bad, streamed),
            Err(Rejection::TranscriptMismatch)
        ));
        let mut bad = proof;
        bad.digest[7] ^= 1;
        assert!(matches!(
            verify(&point, &bad, streamed),
            Err(Rejection::TranscriptMismatch)
        ));
    }

    /// Re-seals a tampered proof with a consistent digest — the model of a
    /// *lying prover* (vs a corrupted wire): the algebra must catch it.
    fn reseal(point: &[Fp61], mut proof: OneShotProof<Fp61>) -> OneShotProof<Fp61> {
        let mut t = query_transcript::<Fp61>("test", 2, None, &[], &point[..1]);
        absorb_proof_body(&mut t, proof.claimed, &proof.rounds);
        proof.digest = t.digest();
        proof
    }

    #[test]
    fn lying_prover_fails_the_exact_interactive_check() {
        let (point, proof, streamed) = fixture();
        // Claimed value inconsistent with g1.
        let mut bad = proof.clone();
        bad.claimed += Fp61::ONE;
        let bad = reseal(&point, bad);
        assert!(matches!(
            verify(&point, &bad, streamed),
            Err(Rejection::MalformedAnswer { .. })
        ));
        // Round 2 polynomial breaks round-sum consistency.
        let mut bad = proof.clone();
        bad.rounds[1][0] += Fp61::ONE;
        // Keep g2(r2) unchanged impossible for degree 1 — both residuals
        // move; round-sum (the earlier check) must be named.
        let bad = reseal(&point, bad);
        assert!(matches!(
            verify(&point, &bad, streamed),
            Err(Rejection::RoundSumMismatch { round: 2 })
        ));
        // Honest proof against a wrong streamed value: final check.
        assert!(matches!(
            verify(&point, &proof, streamed + Fp61::ONE),
            Err(Rejection::FinalCheckFailed)
        ));
    }

    #[test]
    fn structural_errors_name_the_round() {
        let (point, proof, streamed) = fixture();
        let mut bad = proof.clone();
        bad.rounds[1].push(f(0));
        assert!(matches!(
            verify(&point, &bad, streamed),
            Err(Rejection::WrongMessageLength {
                round: 2,
                expected: 2,
                got: 3
            })
        ));
        let mut bad = proof;
        bad.rounds.pop();
        assert!(matches!(
            verify(&point, &bad, streamed),
            Err(Rejection::MalformedAnswer { .. })
        ));
    }

    #[test]
    fn wrong_context_is_a_transcript_mismatch() {
        // Same proof bytes replayed under a different query context.
        let (point, proof, streamed) = fixture();
        let t = query_transcript::<Fp61>("other-proto", 2, None, &[], &point[..1]);
        assert!(matches!(
            verify_oneshot_grid(&point, 1, 2, streamed, t, &proof),
            Err(Rejection::TranscriptMismatch)
        ));
        let t = query_transcript::<Fp61>("test", 2, Some((0, 4)), &[], &point[..1]);
        assert!(matches!(
            verify_oneshot_grid(&point, 1, 2, streamed, t, &proof),
            Err(Rejection::TranscriptMismatch)
        ));
    }
}

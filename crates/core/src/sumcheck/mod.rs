//! The multi-round sum-check machinery of Section 3.
//!
//! All the aggregation protocols (SELF-JOIN SIZE, frequency moments,
//! INNER PRODUCT, RANGE-SUM) share the same skeleton over `u = ℓ^d` — the
//! multilinear `ℓ = 2`, `d = log₂ u` everywhere but footnote 1's
//! trade-off ([`general_ell`]):
//!
//! 1. Before the stream, `V` draws a secret random point
//!    `r = (r_1, …, r_d) ∈ Z_p^d` and, while observing the stream, evaluates
//!    the LDE(s) `f(r)` incrementally (Theorem 1).
//! 2. After the stream, `P` sends a univariate polynomial `g_1` claimed to
//!    equal the sum of the target polynomial over all but the first
//!    variable. `V` learns the claimed answer `Σ_{x₁∈[ℓ]} g_1(x₁)`.
//! 3. In round `j > 1`, `V` reveals `r_{j−1}`; `P` answers with `g_j`; `V`
//!    checks the *round-sum consistency* `Σ_{x∈[ℓ]} g_j(x) = g_{j−1}(r_{j−1})`.
//! 4. After round `d`, `V` checks `g_d(r_d)` against its own streamed
//!    evaluation — `f_a(r)²` for F₂, `f_a(r)·f_b(r)` for inner product, etc.
//!    `r_d` is never revealed.
//!
//! [`SumCheckVerifierCore`] implements steps 2–4 once, at every base; the
//! single-point verifiers are one digest body, [`LdeDigest`], named per
//! query by an [`LdeQuery`] marker;
//! [`RoundProver`] is the honest-prover interface (each protocol supplies
//! its own message rule over the shared [`crate::fold::FoldVector`]);
//! [`SumCheckSession`] is the prover as the verifier sees it — in process
//! ([`ProverWalk`]), behind a kv store, or across a wire — and
//! [`drive_session`] is the one conversation over it, the only place its
//! rounds and words are booked. [`drive_sumcheck`] runs it in process and
//! hosts the failure-injection hook used by the tamper suite. A fleet of
//! `S` provers over one shared point has the same pair: [`FleetSession`]
//! and [`drive_fleet`], the one lockstep loop ([`aggregate`]).

pub mod aggregate;
pub mod digest;
pub mod f2;
pub mod general_ell;
pub mod inner_product;
pub mod moments;
pub mod oneshot;
pub mod range_sum;

pub use aggregate::{
    drive_fleet, drive_sumcheck_sharded, AggregatingVerifier, FleetSession, ShardAdversary,
};
pub use digest::{LdeDigest, LdeQuery, Moment, RangeSum, SelfJoin};
pub use oneshot::{prove_oneshot, OneShotProof};

use sip_field::lagrange::eval_from_grid_evals;
use sip_field::PrimeField;
use sip_lde::StreamingLdeEvaluator;

use crate::channel::CostReport;
use crate::error::Rejection;

/// The verifier's round-by-round state for a `d`-round sum-check over
/// `[ℓ]^d` with per-round degree bound `degree`: the one round check of
/// every protocol, at every base.
#[derive(Clone, Debug)]
pub struct SumCheckVerifierCore<F: PrimeField> {
    point: Vec<F>,
    /// The grid width `ℓ`: a round's sum runs over `g_j(0), …, g_j(ℓ − 1)`.
    ell: usize,
    degree: usize,
    round: usize,
    output: F,
    claim: F,
}

/// Words of round state a sum-check verifier keeps over base `ell`: the
/// claim, the output and the round counter, plus the `2(ℓ − 2)`
/// evaluations by which a base-`ℓ` message outgrows the binary one's
/// three, held while it is interpolated at the challenge (the paper's
/// `O(d + ℓ)`). Three at `ℓ = 2`.
pub fn round_state_words(ell: u64) -> usize {
    3 + 2 * (ell as usize - 2)
}

impl<F: PrimeField> SumCheckVerifierCore<F> {
    /// Creates the state over the binary grid (`ℓ = 2`) from the verifier's
    /// pre-drawn secret point and the per-round degree bound. Messages must
    /// carry exactly `degree + 1` evaluations (at `0, …, degree`).
    pub fn new(point: Vec<F>, degree: usize) -> Self {
        Self::over(2, point, degree)
    }

    /// Creates the state for a streamed digest: its secret point, and the
    /// grid width `ℓ` its [`sip_lde::LdeParams`] fix.
    pub fn from_lde(lde: &StreamingLdeEvaluator<F>, degree: usize) -> Self {
        Self::over(lde.params().base() as usize, lde.point().to_vec(), degree)
    }

    fn over(ell: usize, point: Vec<F>, degree: usize) -> Self {
        assert!(!point.is_empty());
        assert!(degree >= 1, "round polynomials must have positive degree");
        assert!(degree + 1 >= ell, "a message must cover the grid [ℓ]");
        SumCheckVerifierCore {
            point,
            ell,
            degree,
            round: 0,
            output: F::ZERO,
            claim: F::ZERO,
        }
    }

    /// Number of rounds `d`.
    pub fn rounds(&self) -> usize {
        self.point.len()
    }

    /// Rounds processed so far.
    pub fn rounds_done(&self) -> usize {
        self.round
    }

    /// The answer claimed by the prover's first message
    /// (`Σ_{x₁∈[ℓ]} g_1(x₁)`); meaningful only after round 1 and *trusted*
    /// only after [`Self::finalize`] accepts.
    pub fn claimed_output(&self) -> F {
        self.output
    }

    /// Processes the round-`j` polynomial, sent as `degree + 1` evaluations
    /// at `0, …, degree`.
    ///
    /// Returns the challenge to forward to the prover, or `None` after the
    /// last round (`r_d` stays secret).
    pub fn receive(&mut self, evals: &[F]) -> Result<Option<F>, Rejection> {
        assert!(
            self.round < self.point.len(),
            "all rounds already processed"
        );
        let round = self.round + 1;
        if evals.len() != self.degree + 1 {
            return Err(Rejection::WrongMessageLength {
                round,
                expected: self.degree + 1,
                got: evals.len(),
            });
        }
        let grid_sum: F = evals[..self.ell].iter().copied().sum(); // Σ_{x∈[ℓ]} g_j(x)
        if self.round == 0 {
            self.output = grid_sum;
        } else if grid_sum != self.claim {
            return Err(Rejection::RoundSumMismatch { round });
        }
        self.claim = eval_from_grid_evals(evals, self.point[self.round]);
        self.round += 1;
        Ok(if self.round < self.point.len() {
            Some(self.point[self.round - 1])
        } else {
            None
        })
    }

    /// Final test: after all `d` rounds, `g_d(r_d)` must equal the
    /// verifier's independently streamed value. On success returns the now
    /// *verified* output.
    pub fn finalize(&self, streamed: F) -> Result<F, Rejection> {
        assert_eq!(
            self.round,
            self.point.len(),
            "finalize called before all rounds were processed"
        );
        if self.claim != streamed {
            return Err(Rejection::FinalCheckFailed);
        }
        Ok(self.output)
    }

    /// Words of working memory attributable to this session
    /// ([`round_state_words`] at this core's `ℓ`).
    pub fn space_words(&self) -> usize {
        round_state_words(self.ell as u64)
    }

    /// The revealed challenge prefix `r_1, …, r_{d−1}` of a one-shot run:
    /// every coordinate of the secret point except the last, which the
    /// final check keeps secret.
    pub fn challenge_prefix(&self) -> &[F] {
        &self.point[..self.point.len() - 1]
    }

    /// Verifies a complete [`oneshot::OneShotProof`] against this core's
    /// secret point: transcript replay, digest comparison, then the
    /// deferred batched round checks (see [`oneshot::verify_oneshot_grid`]).
    /// `transcript` must be the same
    /// [`crate::transcript::query_transcript`] context the prover sealed.
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_oneshot(
        &self,
        streamed: F,
        transcript: crate::transcript::Transcript,
        proof: &oneshot::OneShotProof<F>,
    ) -> Result<F, Rejection> {
        oneshot::verify_oneshot_grid(
            &self.point,
            self.degree,
            self.ell,
            streamed,
            transcript,
            proof,
        )
    }
}

/// An honest sum-check prover: produces the round polynomial, then binds
/// the revealed challenge.
pub trait RoundProver<F: PrimeField> {
    /// Per-round degree bound (messages carry `degree() + 1` evaluations).
    fn degree(&self) -> usize;
    /// Total number of rounds `d`.
    fn rounds(&self) -> usize;
    /// The polynomial for the current round, as evaluations at
    /// `0, …, degree()`.
    fn message(&mut self) -> Vec<F>;
    /// Binds the current variable to the revealed challenge `r_j`.
    fn bind(&mut self, r: F);
}

/// Lets a borrowed prover stand where an owned one is expected.
impl<F: PrimeField, P: RoundProver<F> + ?Sized> RoundProver<F> for &mut P {
    fn degree(&self) -> usize {
        (**self).degree()
    }
    fn rounds(&self) -> usize {
        (**self).rounds()
    }
    fn message(&mut self) -> Vec<F> {
        (**self).message()
    }
    fn bind(&mut self, r: F) {
        (**self).bind(r)
    }
}

/// The prover of one sum-check query as the verifier sees it: round
/// messages out, challenges in. Every method is fallible, so a remote
/// session surfaces transport and decode failures as [`Rejection`]s and a
/// lying network is treated exactly like a lying prover.
pub trait SumCheckSession<F: PrimeField> {
    /// The current round's polynomial.
    fn message(&mut self) -> Result<Vec<F>, Rejection>;
    /// Binds the current variable to the revealed challenge.
    fn bind(&mut self, r: F) -> Result<(), Rejection>;
}

/// The session of an honest in-process [`RoundProver`], owned or borrowed
/// (`ProverWalk(&mut prover)`). It never fails.
pub struct ProverWalk<P>(pub P);

impl<F: PrimeField, P: RoundProver<F>> SumCheckSession<F> for ProverWalk<P> {
    fn message(&mut self) -> Result<Vec<F>, Rejection> {
        Ok(self.0.message())
    }
    fn bind(&mut self, r: F) -> Result<(), Rejection> {
        self.0.bind(r);
        Ok(())
    }
}

/// A hook mutating prover messages in flight; `round` is 1-based.
pub type Adversary<'a, F> = &'a mut dyn FnMut(usize, &mut Vec<F>);

/// A session whose messages pass through an [`Adversary`] on their way to
/// the verifier.
struct Tampered<'a, S, F> {
    inner: S,
    round: usize,
    adversary: Adversary<'a, F>,
}

impl<F: PrimeField, S: SumCheckSession<F>> SumCheckSession<F> for Tampered<'_, S, F> {
    fn message(&mut self) -> Result<Vec<F>, Rejection> {
        let mut msg = self.inner.message()?;
        self.round += 1;
        (self.adversary)(self.round, &mut msg);
        Ok(msg)
    }
    fn bind(&mut self, r: F) -> Result<(), Rejection> {
        self.inner.bind(r)
    }
}

/// The sum-check conversation: each round's message through the verifier
/// core, its challenge back, then the final check against `streamed`.
///
/// Books one round and the message's words per round and one word per
/// revealed challenge into `report`; the caller books the query's own
/// words. On acceptance returns the verified output.
pub fn drive_session<F: PrimeField, S: SumCheckSession<F> + ?Sized>(
    session: &mut S,
    core: &mut SumCheckVerifierCore<F>,
    streamed: F,
    report: &mut CostReport,
) -> Result<F, Rejection> {
    for round in 1..=core.rounds() {
        let mut rspan = sip_obs::trace::span("sip.verifier", "round");
        rspan.field("round", round);
        let msg = session.message()?;
        report.rounds += 1;
        report.p_to_v_words += msg.len();
        let step = {
            let _v = sip_obs::trace::span("sip.verifier", "verifier_compute");
            core.receive(&msg)
        }?;
        if let Some(challenge) = step {
            report.v_to_p_words += 1;
            session.bind(challenge)?;
        }
    }
    let _v = sip_obs::trace::span("sip.verifier", "verifier_compute");
    core.finalize(streamed)
}

/// Runs [`drive_session`] against an honest in-process prover; an optional
/// [`Adversary`] corrupts its messages in flight (the honest run passes
/// `None`).
pub fn drive_sumcheck<F: PrimeField>(
    prover: &mut dyn RoundProver<F>,
    core: &mut SumCheckVerifierCore<F>,
    streamed: F,
    report: &mut CostReport,
    adversary: Option<Adversary<'_, F>>,
) -> Result<F, Rejection> {
    assert_eq!(
        prover.rounds(),
        core.rounds(),
        "prover/verifier disagree on d"
    );
    match adversary {
        None => drive_session(&mut ProverWalk(prover), core, streamed, report),
        Some(adversary) => {
            let mut tampered = Tampered {
                inner: ProverWalk(prover),
                round: 0,
                adversary,
            };
            drive_session(&mut tampered, core, streamed, report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_field::Fp61;

    fn f(x: u64) -> Fp61 {
        Fp61::from_u64(x)
    }

    #[test]
    fn rejects_wrong_length() {
        let mut core = SumCheckVerifierCore::new(vec![f(5), f(9)], 2);
        let err = core.receive(&[f(1), f(2)]).unwrap_err();
        assert!(matches!(
            err,
            Rejection::WrongMessageLength {
                round: 1,
                expected: 3,
                got: 2
            }
        ));
    }

    #[test]
    fn first_round_sets_output_later_rounds_check() {
        // d = 2, degree 1 polynomials for simplicity of hand computation.
        let r1 = f(10);
        let mut core = SumCheckVerifierCore::new(vec![r1, f(3)], 1);
        // g1 evals (0,1) = (4, 6): output = 10, claim = g1(10) = 4 + 10·2 = 24.
        let ch = core.receive(&[f(4), f(6)]).unwrap();
        assert_eq!(ch, Some(r1));
        assert_eq!(core.claimed_output(), f(10));
        // round 2 must sum to 24.
        let err = core.clone().receive(&[f(1), f(2)]).unwrap_err();
        assert!(matches!(err, Rejection::RoundSumMismatch { round: 2 }));
        // consistent message: evals (11, 13): sum 24 ✓; claim = 11 + 3·2 = 17.
        let ch = core.receive(&[f(11), f(13)]).unwrap();
        assert_eq!(ch, None, "r_d must stay secret");
        assert_eq!(core.finalize(f(17)).unwrap(), f(10));
        assert!(matches!(
            core.finalize(f(18)),
            Err(Rejection::FinalCheckFailed)
        ));
    }

    #[test]
    #[should_panic(expected = "finalize called before")]
    fn premature_finalize_panics() {
        let core = SumCheckVerifierCore::<Fp61>::new(vec![f(1), f(2)], 2);
        let _ = core.finalize(f(0));
    }
}

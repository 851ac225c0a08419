//! INNER PRODUCT / join size `a·b = Σ_i a_i·b_i` (Section 3.2).
//!
//! "The above protocol for F₂ can be adapted to verify the inner product:
//! … we now have two LDEs f_a and f_b … The prover now provides polynomials
//! that are claimed to be sums of f_a·f_b." The verifier evaluates *both*
//! LDEs at the *same* secret point `r` while the two streams arrive
//! (interleaved or one after the other — linearity makes order irrelevant),
//! and the final check becomes `g_d(r_d) = f_a(r)·f_b(r)`.

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::{LdeParams, StreamingLdeEvaluator};
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::engine::{fold_message, Combine, FoldSource};
use crate::error::Rejection;
use crate::fold::FoldVector;

use super::moments::VerifiedAggregate;
use super::{drive_sumcheck, Adversary, RoundProver, SumCheckVerifierCore};

/// Streaming verifier for the inner product of two streams.
#[derive(Clone, Debug)]
pub struct InnerProductVerifier<F: PrimeField> {
    lde_a: StreamingLdeEvaluator<F>,
    lde_b: StreamingLdeEvaluator<F>,
}

impl<F: PrimeField> InnerProductVerifier<F> {
    /// Draws one secret point `r`, evaluated against both streams.
    pub fn new<R: Rng + ?Sized>(log_u: u32, rng: &mut R) -> Self {
        let lde_a = StreamingLdeEvaluator::random(LdeParams::binary(log_u), rng);
        let lde_b = StreamingLdeEvaluator::new(LdeParams::binary(log_u), lde_a.point().to_vec());
        InnerProductVerifier { lde_a, lde_b }
    }

    /// The stream-`A` digest (checkpoint state).
    pub fn evaluator_a(&self) -> &StreamingLdeEvaluator<F> {
        &self.lde_a
    }

    /// The stream-`B` digest (checkpoint state; same point as `A`).
    pub fn evaluator_b(&self) -> &StreamingLdeEvaluator<F> {
        &self.lde_b
    }

    /// Rebuilds the verifier around two restored digests (checkpoint
    /// resume).
    ///
    /// # Panics
    /// Panics unless both evaluators are binary and share one point.
    pub fn from_evaluators(
        lde_a: StreamingLdeEvaluator<F>,
        lde_b: StreamingLdeEvaluator<F>,
    ) -> Self {
        assert_eq!(lde_a.params().base(), 2, "INNER PRODUCT is binary");
        assert_eq!(
            lde_a.params(),
            lde_b.params(),
            "digests must agree on (ℓ, d)"
        );
        assert_eq!(lde_a.point(), lde_b.point(), "digests must share the point");
        InnerProductVerifier { lde_a, lde_b }
    }

    /// Processes an update to stream `A`.
    pub fn update_a(&mut self, up: Update) {
        self.lde_a.update(up);
    }

    /// Processes an update to stream `B`.
    pub fn update_b(&mut self, up: Update) {
        self.lde_b.update(up);
    }

    /// Processes a whole batch of stream-`A` updates (delayed-reduction
    /// path, bit-identical to per-update [`Self::update_a`]).
    pub fn update_a_batch(&mut self, batch: &[Update]) {
        self.lde_a.update_batch(batch);
    }

    /// Processes a whole batch of stream-`B` updates.
    pub fn update_b_batch(&mut self, batch: &[Update]) {
        self.lde_b.update_batch(batch);
    }

    /// Verifier space in words: the shared point plus two accumulators.
    pub fn space_words(&self) -> usize {
        self.lde_a.point().len() + 2 + 3
    }

    /// Ends streaming; final check value is `f_a(r)·f_b(r)`.
    pub fn into_session(self) -> (SumCheckVerifierCore<F>, F) {
        let expected = self.lde_a.value() * self.lde_b.value();
        (SumCheckVerifierCore::from_lde(&self.lde_a, 2), expected)
    }
}

/// The inner-product per-pair rule:
/// `g_j(c) = Σ_m (a_lo + c·Δa)(b_lo + c·Δb)` at `c = 0, 1, 2`.
pub struct InnerProductCombine;

impl<F: PrimeField> Combine<F> for InnerProductCombine {
    fn slots(&self) -> usize {
        3
    }

    #[inline]
    fn accumulate(&self, _m: u64, a: &[F], b: &[F], acc: &mut [F::DotAcc]) {
        let (alo, ahi) = (a[0], a[1]);
        let (blo, bhi) = (b[0], b[1]);
        F::acc_add_prod(&mut acc[0], alo, blo);
        F::acc_add_prod(&mut acc[1], ahi, bhi);
        let a2 = ahi + (ahi - alo);
        let b2 = bhi + (bhi - blo);
        F::acc_add_prod(&mut acc[2], a2, b2);
    }
}

/// Honest inner-product prover: folds both vectors in lockstep.
#[derive(Clone, Debug)]
pub struct InnerProductProver<F: PrimeField> {
    a: FoldVector<F>,
    b: FoldVector<F>,
}

impl<F: PrimeField> InnerProductProver<F> {
    /// Builds prover state from both materialised vectors.
    pub fn new(a: &FrequencyVector, b: &FrequencyVector, log_u: u32) -> Self {
        InnerProductProver {
            a: FoldVector::from_frequency(a, log_u),
            b: FoldVector::from_frequency(b, log_u),
        }
    }
}

impl<F: PrimeField> RoundProver<F> for InnerProductProver<F> {
    fn degree(&self) -> usize {
        2
    }

    fn rounds(&self) -> usize {
        self.a.bits() as usize
    }

    fn message(&mut self) -> Vec<F> {
        fold_message(
            FoldSource::UnionPairs(&self.a, &self.b),
            &InnerProductCombine,
        )
    }

    fn bind(&mut self, r: F) {
        self.a.bind(r);
        self.b.bind(r);
    }
}

/// Runs the complete honest INNER PRODUCT protocol over two streams.
pub fn run_inner_product<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream_a: &[Update],
    stream_b: &[Update],
    rng: &mut R,
) -> Result<VerifiedAggregate<F>, Rejection> {
    run_inner_product_with_adversary(log_u, stream_a, stream_b, rng, None)
}

/// Like [`run_inner_product`] with a message-corruption hook.
pub fn run_inner_product_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream_a: &[Update],
    stream_b: &[Update],
    rng: &mut R,
    adversary: Option<Adversary<'_, F>>,
) -> Result<VerifiedAggregate<F>, Rejection> {
    let mut verifier = InnerProductVerifier::<F>::new(log_u, rng);
    for &up in stream_a {
        verifier.update_a(up);
    }
    for &up in stream_b {
        verifier.update_b(up);
    }
    let space = verifier.space_words();

    let fa = FrequencyVector::from_stream(1 << log_u, stream_a);
    let fb = FrequencyVector::from_stream(1 << log_u, stream_b);
    let mut prover = InnerProductProver::new(&fa, &fb, log_u);

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
    fn completeness_random_streams() {
        let mut rng = StdRng::seed_from_u64(1);
        let log_u = 9;
        let sa = workloads::uniform(400, 1 << log_u, 15, 2);
        let sb = workloads::uniform(300, 1 << log_u, 15, 3);
        let fa = FrequencyVector::from_stream(1 << log_u, &sa);
        let fb = FrequencyVector::from_stream(1 << log_u, &sb);
        let got = run_inner_product::<Fp61, _>(log_u, &sa, &sb, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fa.inner_product(&fb) as u128));
    }

    #[test]
    fn self_inner_product_is_f2() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = workloads::paper_f2(1 << 7, 4);
        let ip = run_inner_product::<Fp61, _>(7, &s, &s, &mut rng).unwrap();
        let f2 = super::super::f2::run_f2::<Fp61, _>(7, &s, &mut rng).unwrap();
        assert_eq!(ip.value, f2.value);
    }

    #[test]
    fn disjoint_supports_give_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let sa = vec![Update::new(1, 5), Update::new(3, 2)];
        let sb = vec![Update::new(0, 7), Update::new(2, 9)];
        let got = run_inner_product::<Fp61, _>(4, &sa, &sb, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::ZERO);
    }

    #[test]
    fn identity_f2_sum_decomposition() {
        // F2(a + b) = F2(a) + F2(b) + 2·a·b — the paper's alternative route
        // to the inner product. Check the protocols agree with the algebra.
        let mut rng = StdRng::seed_from_u64(4);
        let log_u = 8;
        let sa = workloads::uniform(200, 1 << log_u, 10, 5);
        let sb = workloads::uniform(250, 1 << log_u, 10, 6);
        let mut sab = sa.clone();
        sab.extend_from_slice(&sb);
        let f2a = super::super::f2::run_f2::<Fp61, _>(log_u, &sa, &mut rng)
            .unwrap()
            .value;
        let f2b = super::super::f2::run_f2::<Fp61, _>(log_u, &sb, &mut rng)
            .unwrap()
            .value;
        let f2ab = super::super::f2::run_f2::<Fp61, _>(log_u, &sab, &mut rng)
            .unwrap()
            .value;
        let ip = run_inner_product::<Fp61, _>(log_u, &sa, &sb, &mut rng)
            .unwrap()
            .value;
        assert_eq!(f2ab, f2a + f2b + ip + ip);
    }

    #[test]
    fn tampering_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let sa = workloads::uniform(100, 1 << 6, 5, 7);
        let sb = workloads::uniform(100, 1 << 6, 5, 8);
        let mut adv = |round: usize, msg: &mut Vec<Fp61>| {
            if round == 3 {
                msg[1] = msg[1] + msg[1]; // double one evaluation
            }
        };
        let res =
            run_inner_product_with_adversary::<Fp61, _>(6, &sa, &sb, &mut rng, Some(&mut adv));
        assert!(res.is_err());
    }
}

//! One-shot ⟺ interactive equivalence, property-tested across every
//! protocol family and both fields.
//!
//! The one-shot path ([`prove_oneshot`] + deferred transcript-checked
//! verification) must be *observationally identical* to the interactive
//! sum-check it replaces: an honest proof accepts with the same verified
//! value the interactive conversation would produce, and a lying prover —
//! modelled as an arbitrary perturbation of one round polynomial, resealed
//! under a consistent digest — is rejected with the *same typed error* the
//! interactive verifier would have named. For the four binary families
//! (self-join F₂, range-sum, frequency moments, inner product) both paths
//! are driven off one [`SumCheckVerifierCore`], so the comparison is exact
//! `Result` equality; the general-ℓ family checks honest agreement and
//! one-shot soundness against its own interactive `verify`.
//!
//! A final exhaustive sweep flips every byte of an encoded [`Msg::Proof`]
//! frame (both the low and the high bit) and demands a typed rejection —
//! from the decoder or from the transcript check — never a panic and never
//! an accept.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::sumcheck::f2::{F2Prover, F2Verifier};
use sip::core::sumcheck::general_ell::{GeneralF2Prover, GeneralF2Verifier};
use sip::core::sumcheck::inner_product::{InnerProductProver, InnerProductVerifier};
use sip::core::sumcheck::moments::{MomentProver, MomentVerifier};
use sip::core::sumcheck::range_sum::{RangeSumProver, RangeSumVerifier};
use sip::core::sumcheck::{
    prove_oneshot, OneShotProof, ProverWalk, RoundProver, SumCheckSession, SumCheckVerifierCore,
};
use sip::core::transcript::query_transcript;
use sip::core::Rejection;
use sip::field::{Fp127, Fp61, PrimeField};
use sip::lde::LdeParams;
use sip::streaming::{FrequencyVector, Update};
use sip::wire::{Msg, WireCodec};

const LOG_U: u32 = 6;

fn to_stream(pairs: &[(u64, i64)], u: u64) -> Vec<Update> {
    pairs
        .iter()
        .map(|&(i, d)| Update::new(i % u, d % 500))
        .collect()
}

/// A lie: bump `round` (1-based, wrapped) at evaluation `slot` (wrapped)
/// by `delta`; the proof is then resealed so only the algebra can object.
/// `None` is the honest run.
type Tamper = Option<(usize, usize, u64)>;

/// Builds the tamper from sampled raw parts; `round = 0` means honest.
fn tamper_of(round: usize, slot: usize, delta: u64) -> Tamper {
    (round > 0).then_some((round, slot, delta))
}

/// Replays fixed round polynomials — the shape of a prover that computed a
/// (possibly doctored) proof offline and seals a *consistent* digest over
/// it, so rejection must come from the deferred algebra, not the hash.
struct Replay<F> {
    polys: Vec<Vec<F>>,
    next: usize,
}

impl<F: PrimeField> SumCheckSession<F> for Replay<F> {
    fn message(&mut self) -> Result<Vec<F>, Rejection> {
        self.next += 1;
        Ok(self.polys[self.next - 1].clone())
    }
    fn bind(&mut self, _r: F) -> Result<(), Rejection> {
        Ok(())
    }
}

/// Runs the same (possibly tampered) round polynomials through both
/// verification paths of one [`SumCheckVerifierCore`] and returns
/// `(one_shot, interactive)` — equivalence is `Result` equality.
fn both_paths<F: PrimeField>(
    name: &str,
    log_u: u32,
    params: &[u64],
    core: &SumCheckVerifierCore<F>,
    expected: F,
    prover: &mut dyn RoundProver<F>,
    tamper: Tamper,
) -> (Result<F, Rejection>, Result<F, Rejection>) {
    let prefix = core.challenge_prefix().to_vec();
    let seal = || query_transcript::<F>(name, log_u, None, params, &prefix);
    let honest = prove_oneshot(&mut ProverWalk(prover), seal(), &prefix, 2).unwrap();
    let proof = match tamper {
        None => honest,
        Some((round, slot, delta)) => {
            let mut polys = honest.rounds;
            let j = (round - 1) % polys.len();
            let s = slot % polys[j].len();
            polys[j][s] += F::from_u64(delta);
            prove_oneshot(&mut Replay { polys, next: 0 }, seal(), &prefix, 2).unwrap()
        }
    };
    let one_shot = core.verify_oneshot(expected, seal(), &proof);
    let interactive = (|| {
        let mut c = core.clone();
        for g in &proof.rounds {
            c.receive(g)?;
        }
        c.finalize(expected)
    })();
    (one_shot, interactive)
}

/// Asserts the equivalence contract: identical results always; accept on
/// honest runs, a typed rejection on tampered ones.
fn assert_equivalent<F: PrimeField>(
    one_shot: Result<F, Rejection>,
    interactive: Result<F, Rejection>,
    tamper: Tamper,
) {
    assert_eq!(one_shot, interactive, "paths diverged (tamper {tamper:?})");
    if tamper.is_none() {
        assert!(one_shot.is_ok(), "honest proof rejected: {one_shot:?}");
    } else {
        assert!(one_shot.is_err(), "tampered proof accepted: {one_shot:?}");
    }
}

/// The whole family × field matrix, instantiated per field below.
macro_rules! equivalence_suite {
    ($modname:ident, $F:ty) => {
        mod $modname {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(16))]

                #[test]
                fn self_join_f2(
                    pairs in prop::collection::vec((any::<u64>(), any::<i64>()), 0..60),
                    seed in any::<u64>(),
                    tround in 0usize..9, slot in 0usize..8, delta in 1u64..1000,
                ) {
                    let tamper = tamper_of(tround, slot, delta);
                    let u = 1u64 << LOG_U;
                    let stream = to_stream(&pairs, u);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut v = F2Verifier::<$F>::new(LOG_U, &mut rng);
                    v.update_all(&stream);
                    let (core, expected) = v.into_session();
                    let fv = FrequencyVector::from_stream(u, &stream);
                    let mut p = F2Prover::new(&fv, LOG_U);
                    let (one, inter) =
                        both_paths("self-join", LOG_U, &[], &core, expected, &mut p, tamper);
                    assert_equivalent(one, inter, tamper);
                }

                #[test]
                fn range_sum(
                    pairs in prop::collection::vec((any::<u64>(), 1i64..200), 0..60),
                    a in any::<u64>(),
                    b in any::<u64>(),
                    seed in any::<u64>(),
                    tround in 0usize..9, slot in 0usize..8, delta in 1u64..1000,
                ) {
                    let tamper = tamper_of(tround, slot, delta);
                    let u = 1u64 << LOG_U;
                    let stream = to_stream(&pairs, u);
                    let (q_l, q_r) = {
                        let (x, y) = (a % u, b % u);
                        (x.min(y), x.max(y))
                    };
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut v = RangeSumVerifier::<$F>::new(LOG_U, &mut rng);
                    v.update_all(&stream);
                    let (core, expected) = v.into_session(q_l, q_r);
                    let fv = FrequencyVector::from_stream(u, &stream);
                    let mut p = RangeSumProver::new(&fv, LOG_U, q_l, q_r);
                    let (one, inter) = both_paths(
                        "range-sum", LOG_U, &[q_l, q_r], &core, expected, &mut p, tamper,
                    );
                    assert_equivalent(one, inter, tamper);
                }

                #[test]
                fn third_moment(
                    pairs in prop::collection::vec((any::<u64>(), 1i64..100), 0..60),
                    seed in any::<u64>(),
                    tround in 0usize..9, slot in 0usize..8, delta in 1u64..1000,
                ) {
                    let tamper = tamper_of(tround, slot, delta);
                    let u = 1u64 << LOG_U;
                    let stream = to_stream(&pairs, u);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut v = MomentVerifier::<$F>::new(3, LOG_U, &mut rng);
                    v.update_all(&stream);
                    let (core, expected) = v.into_session();
                    let fv = FrequencyVector::from_stream(u, &stream);
                    let mut p = MomentProver::new(3, &fv, LOG_U);
                    let (one, inter) =
                        both_paths("moment", LOG_U, &[3], &core, expected, &mut p, tamper);
                    assert_equivalent(one, inter, tamper);
                }

                #[test]
                fn inner_product(
                    pairs_a in prop::collection::vec((any::<u64>(), 1i64..100), 0..50),
                    pairs_b in prop::collection::vec((any::<u64>(), 1i64..100), 0..50),
                    seed in any::<u64>(),
                    tround in 0usize..9, slot in 0usize..8, delta in 1u64..1000,
                ) {
                    let tamper = tamper_of(tround, slot, delta);
                    let u = 1u64 << LOG_U;
                    let (sa, sb) = (to_stream(&pairs_a, u), to_stream(&pairs_b, u));
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut v = InnerProductVerifier::<$F>::new(LOG_U, &mut rng);
                    v.update_a_batch(&sa);
                    v.update_b_batch(&sb);
                    let (core, expected) = v.into_session();
                    let fa = FrequencyVector::from_stream(u, &sa);
                    let fb = FrequencyVector::from_stream(u, &sb);
                    let mut p = InnerProductProver::new(&fa, &fb, LOG_U);
                    let (one, inter) =
                        both_paths("inner-product", LOG_U, &[], &core, expected, &mut p, tamper);
                    assert_equivalent(one, inter, tamper);
                }

                /// General-ℓ drives its own verifier type (grid width ℓ, no
                /// shared core), so the interactive reference is its real
                /// `verify` over a twin verifier drawn from the same coins:
                /// honest runs must agree, tampered proofs must die in the
                /// deferred algebra.
                #[test]
                fn general_ell(
                    pairs in prop::collection::vec((any::<u64>(), 1i64..100), 0..60),
                    seed in any::<u64>(),
                    tround in 0usize..9, slot in 0usize..12, delta in 1u64..1000,
                ) {
                    let tamper = tamper_of(tround, slot, delta);
                    let params = LdeParams::new(4, 3); // u = 4³ = 64
                    let stream = to_stream(&pairs, params.universe());
                    let fv = FrequencyVector::from_stream(params.universe(), &stream);

                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut v = GeneralF2Verifier::<$F>::new(params, &mut rng);
                    v.update_all(&stream);
                    let prefix = v.challenge_prefix().to_vec();
                    let mut p = GeneralF2Prover::new(&fv, params);
                    let ell = params.base() as usize;
                    let honest = prove_oneshot(
                        &mut ProverWalk(&mut p),
                        v.oneshot_transcript(),
                        &prefix,
                        ell,
                    )
                    .unwrap();
                    let proof = match tamper {
                        None => honest,
                        Some((round, slot, delta)) => {
                            let mut polys = honest.rounds;
                            let j = (round - 1) % polys.len();
                            let s = slot % polys[j].len();
                            polys[j][s] += <$F>::from_u64(delta);
                            prove_oneshot(
                                &mut Replay { polys, next: 0 },
                                v.oneshot_transcript(),
                                &prefix,
                                ell,
                            )
                            .unwrap()
                        }
                    };
                    let seal = v.oneshot_transcript();
                    let one = v.verify_oneshot(seal, &proof);

                    let mut rng = StdRng::seed_from_u64(seed); // same coins ⇒ same point
                    let mut twin = GeneralF2Verifier::<$F>::new(params, &mut rng);
                    twin.update_all(&stream);
                    let mut honest_p = GeneralF2Prover::new(&fv, params);
                    let inter = twin.verify(&mut honest_p).expect("honest interactive accepts");

                    match (tamper, one) {
                        (None, Ok(agg)) => prop_assert_eq!(agg.value, inter.value),
                        (None, Err(rej)) => panic!("honest one-shot rejected: {rej}"),
                        (Some(_), Err(_)) => {}
                        (Some(t), Ok(_)) => panic!("tamper {t:?} accepted"),
                    }
                }
            }
        }
    };
}

equivalence_suite!(fp61, Fp61);
equivalence_suite!(fp127, Fp127);

/// Every single-byte corruption of an encoded `Msg::Proof` frame must be
/// rejected — by the decoder (bad tag, non-canonical field element,
/// truncation/surplus) or by the transcript digest check — and must never
/// panic. Both the low and the high bit of every byte are tried.
#[test]
fn every_single_byte_flip_of_a_proof_frame_rejects() {
    let log_u = 5;
    let u = 1u64 << log_u;
    let stream: Vec<Update> = (0..u).map(|i| Update::new(i, (i % 7) as i64)).collect();
    let mut rng = StdRng::seed_from_u64(2011);
    let mut v = F2Verifier::<Fp61>::new(log_u, &mut rng);
    v.update_all(&stream);
    let (core, expected) = v.into_session();
    let fv = FrequencyVector::from_stream(u, &stream);
    let mut p = F2Prover::new(&fv, log_u);
    let prefix = core.challenge_prefix().to_vec();
    let seal = || query_transcript::<Fp61>("self-join", log_u, None, &[], &prefix);
    let proof = prove_oneshot(&mut ProverWalk(&mut p), seal(), &prefix, 2).unwrap();
    core.verify_oneshot(expected, seal(), &proof)
        .expect("honest proof accepts");

    let bytes = Msg::Proof {
        claimed: proof.claimed,
        rounds: proof.rounds,
        digest: proof.digest,
    }
    .to_bytes();
    assert!(bytes.len() > 64, "suspiciously small proof frame");

    let mut accepted = Vec::new();
    for k in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[k] ^= mask;
            match Msg::<Fp61>::from_bytes(&bad) {
                // Decoder rejection: typed WireError, no panic.
                Err(_) => {}
                Ok(Msg::Proof {
                    claimed,
                    rounds,
                    digest,
                }) => {
                    let forged = OneShotProof {
                        claimed,
                        rounds,
                        digest,
                    };
                    if core.verify_oneshot(expected, seal(), &forged).is_ok() {
                        accepted.push((k, mask));
                    }
                }
                // A flipped tag that lands on another valid message is the
                // session layer's `unexpected message` rejection.
                Ok(other) => assert_ne!(other.name(), "proof"),
            }
        }
    }
    assert!(
        accepted.is_empty(),
        "{} byte flips of the proof frame were accepted: {accepted:?}",
        accepted.len()
    );
}

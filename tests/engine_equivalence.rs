//! Property tests of the prover engine: the fold kernel and the naive
//! references must agree on random streams — for every `Combine` (F₂,
//! moments, inner-product, range-sum).
//!
//! **Reference equality**: every protocol run is accepted by its verifier
//! (which checks each round message against the previous one and the last
//! against its own streamed digest) with the ground truth computed from the
//! dense vector, and a full multilinear bind of the fold table equals
//! [`sip_lde::reference::naive_multilinear_eval`]. Round-by-round transcript
//! equality against a two-pass reference prover is
//! `tests/fused_equivalence.rs`. (The `parallel_equals_serial` test names
//! date from when the kernel also had a chunked schedule to compare.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::fold::FoldVector;
use sip::core::sumcheck::f2::run_f2_with_adversary;
use sip::core::sumcheck::inner_product::run_inner_product_with_adversary;
use sip::core::sumcheck::moments::run_moment_with_adversary;
use sip::core::sumcheck::range_sum::run_range_sum_with_adversary;
use sip::field::{Fp61, PrimeField};
use sip::lde::reference::naive_multilinear_eval;
use sip::streaming::{FrequencyVector, Update};

/// Builds a stream from raw `(index, delta)` pairs, clamped into `[2^bits]`
/// with nonzero deltas.
fn stream_of(raw: &[(u64, i64)], bits: u32) -> Vec<Update> {
    raw.iter()
        .map(|&(i, d)| Update::new(i % (1 << bits), if d == 0 { 1 } else { d % 1000 }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// F₂: the full protocol accepts, one message a round, with the
    /// ground-truth value.
    #[test]
    fn f2_parallel_equals_serial_equals_reference(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..120),
        bits in 4u32..11,
    ) {
        let stream = stream_of(&raw, bits);
        let fv = FrequencyVector::from_stream(1 << bits, &stream);
        let truth = Fp61::from_u128(fv.self_join_size() as u128);

        // The full protocol (capture hook mutating nothing) accepts with the
        // ground-truth value.
        let mut captured: Vec<Vec<Fp61>> = Vec::new();
        let mut adv = |_round: usize, msg: &mut Vec<Fp61>| captured.push(msg.clone());
        let mut rng = StdRng::seed_from_u64(bits as u64);
        let got =
            run_f2_with_adversary::<Fp61, _>(bits, &stream, &mut rng, Some(&mut adv)).unwrap();
        prop_assert_eq!(got.value, truth);
        prop_assert_eq!(captured.len(), bits as usize);
    }

    /// Moments k ∈ {1, …, 4}: verified value matches ground truth.
    #[test]
    fn moments_parallel_equals_serial(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..80),
        bits in 4u32..9,
        k in 1u32..5,
    ) {
        let stream = stream_of(&raw, bits);
        let fv = FrequencyVector::from_stream(1 << bits, &stream);
        let mut rng = StdRng::seed_from_u64(k as u64);
        let got = run_moment_with_adversary::<Fp61, _>(k, bits, &stream, &mut rng, None).unwrap();
        // Moments of possibly-negative frequencies live in the field.
        let expect: Fp61 = fv
            .nonzero()
            .map(|(_, f)| Fp61::from_i64(f).pow(k as u128))
            .fold(Fp61::ZERO, |a, b| a + b);
        prop_assert_eq!(got.value, expect);
    }

    /// Inner product over the union walk: ground truth.
    #[test]
    fn inner_product_parallel_equals_serial(
        raw_a in prop::collection::vec((any::<u64>(), any::<i64>()), 1..80),
        raw_b in prop::collection::vec((any::<u64>(), any::<i64>()), 1..80),
        bits in 4u32..9,
    ) {
        let sa = stream_of(&raw_a, bits);
        let sb = stream_of(&raw_b, bits);
        let fa = FrequencyVector::from_stream(1 << bits, &sa);
        let fb = FrequencyVector::from_stream(1 << bits, &sb);
        let mut rng = StdRng::seed_from_u64(1);
        let got = run_inner_product_with_adversary::<Fp61, _>(bits, &sa, &sb, &mut rng, None).unwrap();
        let expect: Fp61 = fa
            .nonzero()
            .map(|(i, f)| Fp61::from_i64(f) * Fp61::from_i64(fb.get(i)))
            .fold(Fp61::ZERO, |a, b| a + b);
        prop_assert_eq!(got.value, expect);
    }

    /// Range-sum with the lazy indicator: ground truth.
    #[test]
    fn range_sum_parallel_equals_serial(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..80),
        bits in 4u32..9,
        ends in (any::<u64>(), any::<u64>()),
    ) {
        let stream = stream_of(&raw, bits);
        let fv = FrequencyVector::from_stream(1 << bits, &stream);
        let u = 1u64 << bits;
        let (a, b) = (ends.0 % u, ends.1 % u);
        let (q_l, q_r) = (a.min(b), a.max(b));
        let mut rng = StdRng::seed_from_u64(2);
        let got = run_range_sum_with_adversary::<Fp61, _>(
            bits, &stream, q_l, q_r, &mut rng, None).unwrap();
        prop_assert_eq!(got.value, Fp61::from_i64(fv.range_sum(q_l, q_r) as i64));
    }

    /// The fold table itself agrees with the naive multilinear reference
    /// after a full bind, from sparse or dense starting representations.
    #[test]
    fn fold_bind_matches_lde_reference(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..60),
        bits in 4u32..12,
        seed in any::<u64>(),
    ) {
        let stream = stream_of(&raw, bits);
        let fv = FrequencyVector::from_stream(1 << bits, &stream);
        let values: Vec<Fp61> = (0..1u64 << bits).map(|i| Fp61::from_i64(fv.get(i))).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let point: Vec<Fp61> = (0..bits).map(|_| Fp61::random(&mut rng)).collect();
        let mut fold = FoldVector::<Fp61>::from_frequency(&fv, bits);
        for &r in &point {
            fold.bind(r);
        }
        prop_assert_eq!(fold.scalar(), naive_multilinear_eval(&values, &point));
    }
}

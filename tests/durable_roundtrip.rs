//! Resume-equivalence property: for every digest type,
//! `ingest prefix → snapshot → restore → ingest suffix → query` is
//! indistinguishable from uninterrupted ingest — bit-identical digest
//! state, bit-identical protocol transcripts, identical accepted results
//! and `CostReport`s — across `ℓ ∈ {2, 3, 16}` and both fields.
//!
//! This is the property that makes checkpoints *free* in the paper's
//! model: the verifier's digests are linear in the stream, so state at
//! update `n` fully determines every later state, and serialising it
//! canonically (with derived tables rebuilt, never dumped) cannot perturb
//! anything.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::heavy_hitters::CountTreeHasher;
use sip::core::subvector::{HashKind, StreamingRootHasher, SubVectorVerifier};
use sip::core::sumcheck::f2::{F2Prover, F2Verifier};
use sip::core::sumcheck::general_ell::{GeneralF2Prover, GeneralF2Verifier};
use sip::core::sumcheck::inner_product::{InnerProductProver, InnerProductVerifier};
use sip::core::sumcheck::moments::{MomentProver, MomentVerifier};
use sip::core::sumcheck::range_sum::{RangeSumProver, RangeSumVerifier};
use sip::core::sumcheck::{drive_sumcheck, RoundProver};
use sip::core::CostReport;
use sip::durable::{snapshot_from_bytes, snapshot_to_bytes, Persist};
use sip::field::{Fp127, Fp61, PrimeField};
use sip::lde::{LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip::streaming::{FrequencyVector, Update};

/// The `(ℓ, d)` shapes the acceptance criterion names, with small-universe
/// dimensions so protocol runs stay cheap.
const SHAPES: [(u64, u32); 3] = [(2, 8), (3, 5), (16, 2)];

fn stream_of(raw: &[(u64, i64)], u: u64) -> Vec<Update> {
    raw.iter()
        .map(|&(i, d)| Update::new(i % u, if d == 0 { 1 } else { d % 1000 }))
        .collect()
}

/// Snapshot → bytes → restore, asserting the canonical encoding is stable
/// under the round-trip (decode ∘ encode = id on the byte level too).
fn through_snapshot<T: Persist>(value: &T) -> T {
    let bytes = snapshot_to_bytes(value);
    let back: T = snapshot_from_bytes(&bytes).expect("own snapshot restores");
    assert_eq!(
        snapshot_to_bytes(&back),
        bytes,
        "restored state re-encodes identically"
    );
    back
}

/// Runs one sum-check to completion, capturing the full prover transcript.
fn run_captured<F: PrimeField>(
    prover: &mut dyn RoundProver<F>,
    verifier_core: &mut sip::core::sumcheck::SumCheckVerifierCore<F>,
    expected: F,
) -> (Result<F, sip::core::Rejection>, Vec<Vec<F>>, CostReport) {
    let mut transcript: Vec<Vec<F>> = Vec::new();
    let mut report = CostReport::default();
    let result = {
        let mut recorder = |_round: usize, msg: &mut Vec<F>| transcript.push(msg.clone());
        drive_sumcheck(
            prover,
            verifier_core,
            expected,
            &mut report,
            Some(&mut recorder),
        )
    };
    (result, transcript, report)
}

/// The core schema shared by every sum-check digest check: compare the
/// interrupted and uninterrupted protocol runs end-to-end.
macro_rules! assert_same_protocol_run {
    ($resumed:expr, $straight:expr, $fv:expr, $mk_prover:expr, $into_session:expr) => {{
        let (mut core_a, expected_a) = $into_session($resumed);
        let (mut core_b, expected_b) = $into_session($straight);
        assert_eq!(expected_a, expected_b, "final-check values diverged");
        let mut prover_a = $mk_prover($fv);
        let mut prover_b = $mk_prover($fv);
        let (res_a, tr_a, rep_a) = run_captured(&mut prover_a, &mut core_a, expected_a);
        let (res_b, tr_b, rep_b) = run_captured(&mut prover_b, &mut core_b, expected_b);
        assert_eq!(tr_a, tr_b, "transcripts diverged");
        assert_eq!(rep_a, rep_b, "cost reports diverged");
        let (a, b) = (
            res_a.expect("resumed run accepted"),
            res_b.expect("straight run accepted"),
        );
        assert_eq!(a, b, "verified outputs diverged");
    }};
}

fn lde_resume_equivalence<F: PrimeField>(raw: &[(u64, i64)], cut: usize, seed: u64) {
    for &(ell, d) in &SHAPES {
        let params = LdeParams::new(ell, d);
        let u = params.universe();
        let stream = stream_of(raw, u);
        let cut = cut % (stream.len() + 1);
        let mut rng = StdRng::seed_from_u64(seed);

        // Single-point evaluator.
        let mut straight = StreamingLdeEvaluator::<F>::random(params, &mut rng);
        let mut interrupted = StreamingLdeEvaluator::new(params, straight.point().to_vec());
        straight.update_batch(&stream);
        interrupted.update_batch(&stream[..cut]);
        let mut resumed = through_snapshot(&interrupted);
        resumed.update_batch(&stream[cut..]);
        assert_eq!(resumed.value(), straight.value(), "ℓ={ell}");
        assert_eq!(resumed.updates(), straight.updates());

        // Multi-point evaluator (3 points).
        let mut multi = MultiLdeEvaluator::<F>::random(params, 3, &mut rng);
        let points: Vec<Vec<F>> = (0..3).map(|p| multi.point(p).to_vec()).collect();
        multi.update_batch(&stream);
        let mut interrupted = MultiLdeEvaluator::<F>::new(params, points);
        interrupted.update_batch(&stream[..cut]);
        let mut resumed = through_snapshot(&interrupted);
        resumed.update_batch(&stream[cut..]);
        assert_eq!(resumed.values(), multi.values(), "ℓ={ell} multi");

        // General-ℓ F2 with a full verification conversation.
        let mut straight = GeneralF2Verifier::<F>::new(params, &mut rng);
        let mut interrupted = GeneralF2Verifier::from_evaluator(StreamingLdeEvaluator::new(
            params,
            straight.evaluator().point().to_vec(),
        ));
        straight.update_all(&stream);
        interrupted.update_all(&stream[..cut]);
        let mut resumed = through_snapshot(&interrupted);
        resumed.update_all(&stream[cut..]);
        let fv = FrequencyVector::from_stream(u, &stream);
        let got_a = resumed
            .verify(&mut GeneralF2Prover::new(&fv, params))
            .unwrap();
        let got_b = straight
            .verify(&mut GeneralF2Prover::new(&fv, params))
            .unwrap();
        assert_eq!(got_a, got_b, "ℓ={ell} general-ℓ run diverged");
    }
}

fn sumcheck_resume_equivalence<F: PrimeField>(raw: &[(u64, i64)], cut: usize, seed: u64) {
    let log_u = 8;
    let u = 1u64 << log_u;
    let stream = stream_of(raw, u);
    let cut = cut % (stream.len() + 1);
    let fv = FrequencyVector::from_stream(u, &stream);
    let mut rng = StdRng::seed_from_u64(seed);

    // F2.
    let mut straight = F2Verifier::<F>::new(log_u, &mut rng);
    let mut interrupted = F2Verifier::from_evaluator(StreamingLdeEvaluator::new(
        LdeParams::binary(log_u),
        straight.evaluator().point().to_vec(),
    ));
    straight.update_all(&stream);
    interrupted.update_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.update_batch(&stream[cut..]);
    assert_same_protocol_run!(
        resumed,
        straight,
        &fv,
        |fv| F2Prover::<F>::new(fv, log_u),
        |v: F2Verifier<F>| v.into_session()
    );

    // RANGE-SUM over a data-dependent range.
    let (q_l, q_r) = (u / 8, u / 2);
    let mut straight = RangeSumVerifier::<F>::new(log_u, &mut rng);
    let mut interrupted = RangeSumVerifier::from_evaluator(StreamingLdeEvaluator::new(
        LdeParams::binary(log_u),
        straight.evaluator().point().to_vec(),
    ));
    straight.update_all(&stream);
    interrupted.update_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.update_batch(&stream[cut..]);
    assert_same_protocol_run!(
        resumed,
        straight,
        &fv,
        |fv| RangeSumProver::<F>::new(fv, log_u, q_l, q_r),
        |v: RangeSumVerifier<F>| v.into_session(q_l, q_r)
    );

    // F3 (degree-3 rounds).
    let mut straight = MomentVerifier::<F>::new(3, log_u, &mut rng);
    let mut interrupted = MomentVerifier::from_parts(
        3,
        StreamingLdeEvaluator::new(
            LdeParams::binary(log_u),
            straight.evaluator().point().to_vec(),
        ),
    );
    straight.update_all(&stream);
    interrupted.update_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.update_batch(&stream[cut..]);
    assert_same_protocol_run!(
        resumed,
        straight,
        &fv,
        |fv| MomentProver::<F>::new(3, fv, log_u),
        |v: MomentVerifier<F>| v.into_session()
    );

    // INNER PRODUCT (stream B is the reversed stream).
    let stream_b: Vec<Update> = stream.iter().rev().copied().collect();
    let fv_b = FrequencyVector::from_stream(u, &stream_b);
    let mut straight = InnerProductVerifier::<F>::new(log_u, &mut rng);
    let point = straight.evaluator_a().point().to_vec();
    let mut interrupted = InnerProductVerifier::from_evaluators(
        StreamingLdeEvaluator::new(LdeParams::binary(log_u), point.clone()),
        StreamingLdeEvaluator::new(LdeParams::binary(log_u), point),
    );
    straight.update_a_batch(&stream);
    straight.update_b_batch(&stream_b);
    interrupted.update_a_batch(&stream[..cut]);
    interrupted.update_b_batch(&stream_b[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.update_a_batch(&stream[cut..]);
    resumed.update_b_batch(&stream_b[cut..]);
    assert_same_protocol_run!(
        resumed,
        straight,
        &fv,
        |fv: &FrequencyVector| InnerProductProver::<F>::new(fv, &fv_b, log_u),
        |v: InnerProductVerifier<F>| v.into_session()
    );
}

fn tree_resume_equivalence<F: PrimeField>(raw: &[(u64, i64)], cut: usize, seed: u64) {
    let log_u = 8;
    let u = 1u64 << log_u;
    let stream = stream_of(raw, u);
    let cut = cut % (stream.len() + 1);
    let mut rng = StdRng::seed_from_u64(seed);

    for kind in [HashKind::Affine, HashKind::Multilinear] {
        let mut straight = StreamingRootHasher::<F>::random(log_u, kind, &mut rng);
        let mut interrupted = StreamingRootHasher::new(straight.keys().to_vec(), kind);
        straight.update_all(&stream);
        interrupted.update_batch(&stream[..cut]);
        let mut resumed = through_snapshot(&interrupted);
        resumed.update_batch(&stream[cut..]);
        assert_eq!(resumed.root(), straight.root(), "{kind:?}");
        assert_eq!(resumed.updates(), straight.updates());
    }

    // SubVectorVerifier wraps the affine hasher.
    let mut straight = SubVectorVerifier::<F>::new(log_u, &mut rng);
    let mut interrupted = SubVectorVerifier::from_hasher(StreamingRootHasher::new(
        straight.hasher().keys().to_vec(),
        straight.hasher().kind(),
    ));
    straight.update_all(&stream);
    interrupted.update_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.update_batch(&stream[cut..]);
    assert_eq!(resumed.hasher().root(), straight.hasher().root());

    // CountTreeHasher needs non-negative running counts: use insertions.
    let inserts: Vec<Update> = stream
        .iter()
        .map(|up| Update::new(up.index, up.delta.unsigned_abs() as i64))
        .collect();
    let mut straight = CountTreeHasher::<F>::random(log_u, &mut rng);
    let mut interrupted = CountTreeHasher::from_saved(
        straight.keys().to_vec(),
        straight.skeys().to_vec(),
        F::ZERO,
        0,
    );
    straight.update_all(&inserts);
    interrupted.update_batch(&inserts[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.update_batch(&inserts[cut..]);
    assert_eq!(resumed.root(), straight.root());
    assert_eq!(resumed.total(), straight.total());

    // FrequencyVector (prover-side), dense and sparse.
    let mut straight = FrequencyVector::new(u);
    let mut interrupted = FrequencyVector::new(u);
    straight.apply_batch(&stream);
    interrupted.apply_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.apply_batch(&stream[cut..]);
    assert_eq!(
        resumed.nonzero().collect::<Vec<_>>(),
        straight.nonzero().collect::<Vec<_>>()
    );
    assert_eq!(resumed.is_dense(), straight.is_dense());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lde_digests_resume_identically(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..120),
        cut in any::<usize>(),
        seed in any::<u64>(),
    ) {
        lde_resume_equivalence::<Fp61>(&raw, cut, seed);
        lde_resume_equivalence::<Fp127>(&raw, cut, seed);
    }

    #[test]
    fn sumcheck_digests_resume_identically(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..120),
        cut in any::<usize>(),
        seed in any::<u64>(),
    ) {
        sumcheck_resume_equivalence::<Fp61>(&raw, cut, seed);
        sumcheck_resume_equivalence::<Fp127>(&raw, cut, seed);
    }

    #[test]
    fn tree_digests_resume_identically(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..120),
        cut in any::<usize>(),
        seed in any::<u64>(),
    ) {
        tree_resume_equivalence::<Fp61>(&raw, cut, seed);
        tree_resume_equivalence::<Fp127>(&raw, cut, seed);
    }
}

/// The kv-store client: checkpoint after a prefix of puts, restore, finish
/// the puts, and run the full query families — answers and reports must
/// match an uninterrupted client with the same randomness.
#[test]
fn kv_client_resume_equivalence() {
    use sip::kvstore::{Client, CloudStore, QueryBudget};
    for seed in [3u64, 17, 99] {
        let log_u = 8;
        let pairs: Vec<(u64, u64)> = (0..40u64).map(|i| (i * 6 + 1, i * i + 1)).collect();
        let cut = pairs.len() / 2;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut straight = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut interrupted = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);

        let mut server_a = CloudStore::<Fp61>::new(log_u);
        let mut server_b = CloudStore::<Fp61>::new(log_u);
        straight.put_batch(&pairs, &mut server_a);
        interrupted.put_batch(&pairs[..cut], &mut server_b);
        let mut resumed: Client<Fp61> = through_snapshot(&interrupted);
        resumed.put_batch(&pairs[cut..], &mut server_b);

        for (k, _) in pairs.iter().take(3) {
            let a = straight.get(*k, &server_a).unwrap();
            let b = resumed.get(*k, &server_b).unwrap();
            assert_eq!(a.value, b.value);
            assert_eq!(a.report, b.report, "get report diverged");
        }
        let a = straight.range_sum(0, 255, &server_a).unwrap();
        let b = resumed.range_sum(0, 255, &server_b).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.report, b.report);
        let a = straight.self_join_size(&server_a).unwrap();
        let b = resumed.self_join_size(&server_b).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.report, b.report);
        let a = straight.heavy_keys(100, &server_a).unwrap();
        let b = resumed.heavy_keys(100, &server_b).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.report, b.report);
        assert_eq!(straight.remaining_budget(), resumed.remaining_budget());
    }
}

/// The sharded kv client and the cluster verifier books resume
/// identically too (the books are what an aggregating verifier would
/// checkpoint between a fleet's stream and its queries).
#[test]
fn sharded_and_cluster_books_resume_equivalence() {
    use sip::cluster::{ClusterF2Verifier, ClusterRangeSumVerifier, ShardedLde};
    use sip::streaming::ShardPlan;

    let plan = ShardPlan::new(8, 4);
    let stream = sip::streaming::workloads::with_deletions(400, 1 << 8, 0.25, 11);
    let cut = stream.len() / 3;

    let mut rng = StdRng::seed_from_u64(21);
    let mut straight = ShardedLde::<Fp61>::random(plan, &mut rng);
    let mut interrupted =
        ShardedLde::<Fp61>::from_saved(plan, straight.point().to_vec(), vec![Fp61::ZERO; 4], 0);
    straight.update_batch(&stream);
    interrupted.update_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&interrupted);
    resumed.update_batch(&stream[cut..]);
    assert_eq!(resumed.values(), straight.values());
    assert_eq!(resumed.combined(), straight.combined());

    let mut f2 = ClusterF2Verifier::<Fp61>::new(plan, &mut rng);
    f2.update_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&f2);
    resumed.update_batch(&stream[cut..]);
    f2.update_batch(&stream[cut..]);
    let (_, expected_resumed) = resumed.into_session();
    let (_, expected_straight) = f2.into_session();
    assert_eq!(expected_resumed, expected_straight);

    let mut rs = ClusterRangeSumVerifier::<Fp61>::new(plan, &mut rng);
    rs.update_batch(&stream[..cut]);
    let mut resumed = through_snapshot(&rs);
    resumed.update_batch(&stream[cut..]);
    rs.update_batch(&stream[cut..]);
    let (_, expected_resumed) = resumed.into_session(10, 200);
    let (_, expected_straight) = rs.into_session(10, 200);
    assert_eq!(expected_resumed, expected_straight);
}

/// Theorem 1 on disk: a digest's snapshot grows by a fixed number of bytes
/// per unit of `log u` — while the data it summarises grows as `2^{log u}` —
/// and stays under 1 KB.
fn snapshot_bytes_are_linear_in_log_u<F: PrimeField>() {
    let sizes = |log_u: u32| -> [usize; 4] {
        let u = 1u64 << log_u;
        let stream = sip::streaming::workloads::with_deletions(1 << 10, u, 0.1, 7);
        let inserts: Vec<Update> = stream
            .iter()
            .map(|up| Update::new(up.index, up.delta.unsigned_abs() as i64))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut f2 = F2Verifier::<F>::new(log_u, &mut rng);
        f2.update_batch(&stream);
        let mut range_sum = RangeSumVerifier::<F>::new(log_u, &mut rng);
        range_sum.update_batch(&stream);
        let mut subvector = SubVectorVerifier::<F>::new(log_u, &mut rng);
        subvector.update_batch(&stream);
        let mut count_tree = CountTreeHasher::<F>::random(log_u, &mut rng);
        count_tree.update_batch(&inserts);
        [
            snapshot_to_bytes(&f2).len(),
            snapshot_to_bytes(&range_sum).len(),
            snapshot_to_bytes(&subvector).len(),
            snapshot_to_bytes(&count_tree).len(),
        ]
    };
    let (at12, at16, at18) = (sizes(12), sizes(16), sizes(18));
    for (k, digest) in ["f2", "range_sum", "subvector", "count_tree"]
        .iter()
        .enumerate()
    {
        let (a, b, c) = (at12[k], at16[k], at18[k]);
        assert!(b > a, "{digest}: {a} B at log u = 12, {b} B at 16");
        assert_eq!(
            (b - a) * 2,
            (c - b) * 4,
            "{digest}: {a}, {b}, {c} B at log u = 12, 16, 18"
        );
        assert!(c < 1024, "{digest}: {c} B at log u = 18");
    }
}

#[test]
fn digest_snapshots_grow_linearly_in_log_u() {
    snapshot_bytes_are_linear_in_log_u::<Fp61>();
    snapshot_bytes_are_linear_in_log_u::<Fp127>();
}

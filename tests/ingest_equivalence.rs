//! Property tests of the verifier ingest engine: the batched multi-point
//! evaluator, the per-update evaluators, and the naive `sip-lde` reference
//! must agree on random streams — across power-of-two and general bases
//! and several point counts — and `FrequencyVector::apply_batch` must be
//! indistinguishable from repeated `apply`, including across the sparse →
//! dense promotion boundary. A vector promoted on volume at any point —
//! what a server session does once its peer has sent `u/8` updates, pinned
//! here over TCP by the promotion counter — must be indistinguishable from a
//! never-promoted tree, down to the prover transcripts. One level down, the
//! grouped bank kernel (blocks counting-sorted by last super-digit, one
//! reduction and one
//! product per bucket) must equal a per-update reference kept here —
//! `Σ_t δ_t · Π_j row_j[digit_j(i_t)]`, one weight and one multiply-add per
//! update — on every bucket shape, universe shape and field. A single-point
//! digest reads the same packed tables one index at a time
//! (`WeightBank::weight`): that weight must be the definition's, and every
//! single-point ingest path — the LDE evaluator, `ShardedLde` per shard, the
//! Section 4.1 root under both combine rules — the naive digest. One level up, a
//! kv `Client` fed through its packed digest banks must checkpoint to the
//! same bytes as one whose digests were fed one `update` at a time.
//!
//! Agreement here is **bit-identical digest values**, which is what makes
//! batching invisible to every protocol above: the digests
//! feed final checks verbatim, so equal digests ⇒ equal transcripts and
//! equal CostReports.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::cluster::ShardedLde;
use sip::core::heavy_hitters::CountTreeHasher;
use sip::core::subvector::{HashKind, StreamingRootHasher, SubVectorVerifier};
use sip::core::sumcheck::f2::{F2Prover, F2Verifier};
use sip::core::sumcheck::range_sum::{RangeSumProver, RangeSumVerifier};
use sip::core::sumcheck::RoundProver;
use sip::durable::snapshot_to_bytes;
use sip::field::lagrange::chi_all;
use sip::field::{Fp127, Fp61, PrimeField};
use sip::kvstore::{Client, CloudStore, QueryBudget};
use sip::lde::reference::{naive_lde_eval, weight_divmod};
use sip::lde::{
    BlockStage, LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator, WeightBank, STAGE_BLOCK,
};
use sip::obs;
use sip::server::client::RawClient;
use sip::server::{spawn, ServerConfig};
use sip::streaming::{workloads, FrequencyVector, ShardPlan, Update};

/// The `(ℓ, d)` shapes under test: the paper's binary sweet spot, two
/// larger power-of-two bases, and two general bases (one needing the
/// reciprocal fix-up). Universes stay ≤ 4096 so the naive reference is
/// affordable.
const SHAPES: [(u64, u32); 5] = [(2, 10), (4, 5), (16, 3), (3, 6), (10, 3)];

/// Builds a stream from raw `(index, delta)` pairs, clamped into the
/// universe with nonzero deltas.
fn stream_of(raw: &[(u64, i64)], u: u64) -> Vec<Update> {
    raw.iter()
        .map(|&(i, d)| Update::new(i % u, if d == 0 { 1 } else { d % 1000 }))
        .collect()
}

/// Deterministic evaluation points: grid-adjacent and "random-looking"
/// field elements, `k` points of `d` coordinates each.
fn points(k: usize, d: u32, seed: u64) -> Vec<Vec<Fp61>> {
    (0..k as u64)
        .map(|p| {
            (0..d as u64)
                .map(|j| {
                    Fp61::from_u64(
                        (seed ^ (p + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                            .wrapping_add(j.wrapping_mul(0x2545_f491_4f6c_dd1d)),
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched ≡ per-update ≡ naive reference, for every base shape ×
    /// point count.
    #[test]
    fn batched_ingest_equals_per_update_equals_reference(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..200),
        seed in any::<u64>(),
    ) {
        for &(ell, d) in &SHAPES {
            let params = LdeParams::new(ell, d);
            let u = params.universe();
            let stream = stream_of(&raw, u);
            let mut freqs = vec![0i64; u as usize];
            for up in &stream {
                freqs[up.index as usize] += up.delta;
            }
            for k in [1usize, 4, 16] {
                let pts = points(k, d, seed);
                let mut per_update = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
                let mut batched = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
                for &up in &stream {
                    per_update.update(up);
                }
                batched.update_batch(&stream);
                prop_assert_eq!(batched.values(), per_update.values(),
                    "batch vs per-update: ell={} k={}", ell, k);
                // Against the definition, and against the single-point
                // evaluator (batched and per-update paths).
                for (p, point) in pts.iter().enumerate() {
                    let expect = naive_lde_eval(&freqs, params, point);
                    prop_assert_eq!(batched.value(p), expect,
                        "reference: ell={} k={} p={}", ell, k, p);
                    let mut single = StreamingLdeEvaluator::<Fp61>::new(params, point.clone());
                    single.update_batch(&stream);
                    prop_assert_eq!(single.value(), expect);
                }
            }
        }
    }

    /// Grouped ≡ per-update for every point, over any binary universe up
    /// to three packed groups, any point count and any batch — half of
    /// whose indices are drawn from a small range, so buckets of every size
    /// form beside lone updates.
    #[test]
    fn grouped_kernel_equals_per_update_weights(
        log_u in 1u32..=24,
        k in 1usize..=5,
        raw in prop::collection::vec((any::<u64>(), any::<i64>(), any::<bool>()), 0..300),
        seed in any::<u64>(),
    ) {
        let params = LdeParams::binary(log_u);
        let u = params.universe();
        let stream: Vec<Update> = raw
            .iter()
            .map(|&(i, delta, near)| Update::new(if near { i % u.min(37) } else { i % u }, delta))
            .collect();
        let pts = points(k, log_u, seed);
        let mut multi = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
        multi.update_batch(&stream);
        for (p, r) in pts.iter().enumerate() {
            prop_assert_eq!(
                multi.value(p),
                per_update_sum(params, &chi_rows(params, r), &stream),
                "log_u={} k={} p={}", log_u, k, p
            );
        }
    }

    /// A bank's per-index weight is the definition's `Π_j χ_{v_j}(r_j)`
    /// (digits by hardware div/mod), at one point and as a single-point
    /// evaluator reads it: every binary depth from 1 to 40 (one to four
    /// packed groups), general and power-of-two bases, and ℓ = 1031 > 1024,
    /// where every group holds one digit.
    #[test]
    fn bank_weight_equals_divmod(
        indices in prop::collection::vec(any::<u64>(), 1..50),
        seed in any::<u64>(),
    ) {
        let shapes = (1..=40u32)
            .map(|d| (2u64, d))
            .chain([(3, 7), (3, 40), (4, 6), (4, 31), (16, 3), (16, 15)])
            .chain([(1031, 1), (1031, 3), (1031, 6)]);
        for (ell, d) in shapes {
            let params = LdeParams::new(ell, d);
            let u = params.universe();
            let point = points(1, d, seed).pop().unwrap();
            let bank = WeightBank::lde_point(params, &point);
            let eval = StreamingLdeEvaluator::<Fp61>::new(params, point.clone());
            for i in indices.iter().map(|&i| i % u).chain([0, u - 1]) {
                let expect = weight_divmod(params, &point, i);
                prop_assert_eq!(bank.weight(0, i), expect, "ell={} d={} i={}", ell, d, i);
                prop_assert_eq!(eval.weight(i), expect, "ell={} d={} i={}", ell, d, i);
            }
        }
    }

    /// A single-point evaluator's `update`, `update_all`, `update_batch`
    /// and `remove` each equal the per-update reference, and a clone taken
    /// before its first ingest (no tables yet) reads what a clone taken
    /// after reads.
    #[test]
    fn single_point_paths_equal_the_per_update_reference(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..200),
        seed in any::<u64>(),
    ) {
        for &(ell, d) in &SHAPES {
            let params = LdeParams::new(ell, d);
            let stream = stream_of(&raw, params.universe());
            let point = points(1, d, seed).pop().unwrap();
            let rows = chi_rows(params, &point);
            let expect = per_update_sum(params, &rows, &stream);
            let fresh = StreamingLdeEvaluator::<Fp61>::new(params, point);
            let before = fresh.clone();
            let mut one = fresh.clone();
            for &up in &stream {
                one.update(up);
            }
            let mut all = fresh.clone();
            all.update_all(&stream);
            let mut batch = fresh;
            batch.update_batch(&stream);
            for (path, value) in [("update", one.value()), ("update_all", all.value()),
                                  ("update_batch", batch.value())] {
                prop_assert_eq!(value, expect, "{} ell={} d={}", path, ell, d);
            }
            // Removing the first half of the updates is the reference over
            // their negations.
            let half = &stream[..stream.len() / 2];
            let negated: Vec<Update> =
                half.iter().map(|up| Update::new(up.index, -up.delta)).collect();
            let mut removed = batch.clone();
            for up in half {
                removed.remove(up.index, Fp61::from_i64(up.delta));
            }
            prop_assert_eq!(
                removed.value(),
                expect + per_update_sum(params, &rows, &negated),
                "remove ell={} d={}", ell, d
            );
            let (mut before, mut after) = (before, batch.clone());
            before.update_batch(&stream);
            before.update_batch(&stream);
            after.update_batch(&stream);
            prop_assert_eq!(before.value(), after.value(), "clones ell={} d={}", ell, d);
            prop_assert_eq!(before.space_words_with_tables(), after.space_words_with_tables());
        }
    }

    /// The two other single-point digests read the same bank: a
    /// `ShardedLde` equals the definition per shard, and a
    /// `SubVectorVerifier`'s root equals the explicit hash tree of
    /// Section 4.1 under both combine rules.
    #[test]
    fn sharded_lde_and_tree_roots_equal_the_naive_digests(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..200),
        log_u in 1u32..=12,
        shards in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let params = LdeParams::binary(log_u);
        let u = params.universe();
        let stream = stream_of(&raw, u);
        let shards = shards.min(u as u32);
        let plan = ShardPlan::new(log_u, shards);
        let point = points(1, log_u, seed).pop().unwrap();
        let zeros = vec![Fp61::ZERO; shards as usize];
        let mut batched = ShardedLde::from_saved(plan, point.clone(), zeros, 0);
        let mut one_by_one = batched.clone();
        batched.update_all(&stream);
        for &up in &stream {
            one_by_one.update(up);
        }
        for (s, part) in plan.split(&stream).iter().enumerate() {
            let mut freqs = vec![0i64; u as usize];
            for up in part {
                freqs[up.index as usize] += up.delta;
            }
            let expect = naive_lde_eval(&freqs, params, &point);
            prop_assert_eq!(batched.values()[s], expect, "shard {} of {}", s, shards);
            prop_assert_eq!(one_by_one.values()[s], expect, "shard {} of {}", s, shards);
        }
        let fv = FrequencyVector::from_stream(u, &stream);
        for kind in [HashKind::Affine, HashKind::Multilinear] {
            let hasher = StreamingRootHasher::new(point.clone(), kind);
            let mut batched = SubVectorVerifier::from_hasher(hasher.clone());
            let mut one_by_one = SubVectorVerifier::from_hasher(hasher);
            batched.update_batch(&stream);
            for &up in &stream {
                one_by_one.update(up);
            }
            let expect = explicit_root(&fv, &point, kind);
            prop_assert_eq!(batched.hasher().root(), expect, "{:?}", kind);
            prop_assert_eq!(one_by_one.hasher().root(), expect, "{:?}", kind);
        }
    }

    /// `apply_batch` ≡ repeated `apply` for dense-from-birth,
    /// sparse-forever, and sparse-that-promotes vectors, split at an
    /// arbitrary point into two batches.
    #[test]
    fn frequency_vector_batch_equals_repeated_apply(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..300),
        split in any::<usize>(),
    ) {
        // u = 64 keeps the promotion threshold (u/8 = 8 distinct keys)
        // well inside the generated support range, so cases land on both
        // sides of the boundary; the huge-u vector can never promote.
        for u in [64u64, 1 << 23] {
            let stream = stream_of(&raw, u);
            let split = split % (stream.len() + 1);
            let makes: &[fn(u64) -> FrequencyVector] =
                if u <= 1 << 22 {
                    &[FrequencyVector::new, FrequencyVector::new_sparse]
                } else {
                    &[FrequencyVector::new_sparse]
                };
            for make in makes {
                let mut one_by_one = make(u);
                for &up in &stream {
                    one_by_one.apply(up);
                }
                let mut batched = make(u);
                batched.apply_batch(&stream[..split]);
                batched.apply_batch(&stream[split..]);
                prop_assert_eq!(
                    batched.nonzero().collect::<Vec<_>>(),
                    one_by_one.nonzero().collect::<Vec<_>>()
                );
                prop_assert_eq!(batched.support_size(), one_by_one.support_size());
                prop_assert_eq!(batched.total(), one_by_one.total());
                prop_assert_eq!(batched.self_join_size(), one_by_one.self_join_size());
                prop_assert_eq!(batched.predecessor(u / 2), one_by_one.predecessor(u / 2));
                prop_assert_eq!(batched.successor(u / 2), one_by_one.successor(u / 2));
            }
        }
    }
}

/// A batch of several stage blocks (the proptest streams above stay inside
/// one) equals the same updates applied one at a time. (The name dates from
/// when a large batch also took a chunked path.)
#[test]
fn large_batch_parallel_path_is_exact() {
    for &(ell, d) in &[(2u64, 16u32), (3, 9)] {
        let params = LdeParams::new(ell, d);
        let u = params.universe();
        let stream: Vec<Update> = (0..20_000u64)
            .map(|i| {
                Update::new(
                    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % u,
                    (i % 13) as i64 - 6,
                )
            })
            .filter(|up| up.delta != 0)
            .collect();
        let pts = points(8, d, 7);
        let mut batched = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
        batched.update_batch(&stream);
        let mut per_update = MultiLdeEvaluator::<Fp61>::new(params, pts);
        for &up in &stream {
            per_update.update(up);
        }
        assert_eq!(batched.values(), per_update.values(), "ell={ell}");
    }
}

/// Promotion boundary, pinned exactly: one update below the threshold
/// stays sparse, the threshold promotes, and a batch straddling the
/// boundary ends in the same state as per-update application.
#[test]
fn promotion_boundary_cases() {
    let u = 64u64; // threshold: 8 distinct keys
    for cross_with_batch in [false, true] {
        let below: Vec<Update> = (0..7).map(|i| Update::new(i * 8, 1)).collect();
        let crossing = [Update::new(60, 5), Update::new(61, 5)];
        let mut fv = FrequencyVector::new_sparse(u);
        fv.apply_batch(&below);
        let mut twin = FrequencyVector::new_sparse(u);
        for &up in &below {
            twin.apply(up);
        }
        if cross_with_batch {
            fv.apply_batch(&crossing);
        } else {
            for &up in &crossing {
                fv.apply(up);
            }
        }
        for &up in &crossing {
            twin.apply(up);
        }
        assert_eq!(
            fv.nonzero().collect::<Vec<_>>(),
            twin.nonzero().collect::<Vec<_>>()
        );
        assert_eq!(fv.support_size(), 9);
        // Deletions after promotion still agree.
        let deletions = [Update::new(60, -5), Update::new(0, -1)];
        fv.apply_batch(&deletions);
        for &up in &deletions {
            twin.apply(up);
        }
        assert_eq!(
            fv.nonzero().collect::<Vec<_>>(),
            twin.nonzero().collect::<Vec<_>>()
        );
    }
}

/// The messages an honest prover sends against `challenges`.
fn transcript(mut prover: impl RoundProver<Fp61>, challenges: &[Fp61]) -> Vec<Vec<Fp61>> {
    let mut messages = vec![prover.message()];
    for &r in &challenges[..prover.rounds() - 1] {
        prover.bind(r);
        messages.push(prover.message());
    }
    messages
}

/// Everything a query can see of a vector: every cell, the nonzero entries,
/// F₂, one range-sum, and the F₂ and RANGE-SUM prover transcripts.
type Observed = (
    Vec<i64>,
    Vec<(u64, i64)>,
    i128,
    i128,
    Vec<Vec<Fp61>>,
    Vec<Vec<Fp61>>,
);

fn observe(fv: &FrequencyVector, log_u: u32, (l, r): (u64, u64), at: &[Fp61]) -> Observed {
    (
        (0..fv.universe()).map(|i| fv.get(i)).collect(),
        fv.nonzero().collect(),
        fv.self_join_size(),
        fv.range_sum(l, r),
        transcript(F2Prover::<Fp61>::new(fv, log_u), at),
        transcript(RangeSumProver::<Fp61>::new(fv, log_u, l, r), at),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A tree promoted on volume at an arbitrary point of an arbitrary
    /// stream — as if its peer had sent `u/8` updates — then fed the rest,
    /// equals a never-promoted tree of the same entries and a vector dense
    /// from birth, to every query and prover.
    #[test]
    fn promotion_on_volume_is_invisible(
        log_u in 3u32..=10,
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 0..300),
        split in any::<usize>(),
        ends in (any::<u64>(), any::<u64>()),
        seed in any::<u64>(),
    ) {
        let u = 1u64 << log_u;
        let stream = stream_of(&raw, u);
        let split = split % (stream.len() + 1);
        let mut promoted = FrequencyVector::new_sparse(u);
        promoted.apply_batch(&stream[..split]);
        promoted.promote_if_received(promoted.promote_threshold());
        prop_assert!(promoted.is_dense());
        promoted.apply_batch(&stream[split..]);
        let dense = FrequencyVector::from_stream(u, &stream);
        let tree = FrequencyVector::from_sparse_entries(u, dense.nonzero());
        prop_assert!(!tree.is_dense());
        let (l, r) = (ends.0 % u, ends.1 % u);
        let range = (l.min(r), l.max(r));
        let at = points(1, log_u, seed).pop().unwrap();
        let reference = observe(&tree, log_u, range, &at);
        prop_assert_eq!(observe(&promoted, log_u, range, &at), reference.clone(), "promoted");
        prop_assert_eq!(observe(&dense, log_u, range, &at), reference, "dense from birth");
    }
}

/// Over TCP, a raw session's store goes dense on the frame that brings its
/// peer's updates to `u/8` — `sip_server_store_promotions_total` moves by
/// exactly one, there — and the verified F₂ and RANGE-SUM answers are the
/// ground truth. The only test in this binary that serves sessions, so the
/// process-global counter moves for it alone.
#[test]
fn a_raw_session_promotes_once_on_the_frame_that_reaches_u_over_8() {
    let log_u = 16u32;
    let u = 1u64 << log_u;
    let stream = workloads::zipf(1 << 16, u, 1.1, 3);
    let fv = FrequencyVector::from_stream(u, &stream);
    let head = FrequencyVector::from_stream(u, &stream[..(u / 8) as usize]);
    assert!(head.support_size() < u / 8, "the support rule would wait");
    let (l, r) = (u / 5 + 3, u / 5 * 4);
    let truth = (
        Fp61::from_u128(fv.self_join_size() as u128),
        Fp61::from_u128(fv.range_sum(l, r) as u128),
    );
    let mut rng = StdRng::seed_from_u64(4);
    let mut f2 = F2Verifier::<Fp61>::new(log_u, &mut rng);
    let mut range = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
    f2.update_batch(&stream);
    range.update_batch(&stream);

    let promotions = || obs::counter("sip_server_store_promotions_total").get();
    let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = RawClient::<Fp61, _>::connect(server.local_addr(), log_u).unwrap();
    let before = promotions();
    for (i, frame) in stream.chunks(4096).enumerate() {
        client.send_batch(frame);
        // The reply leaves after the session has handled the frame.
        client.server_stats().unwrap();
        let sent = (i as u64 + 1) * 4096;
        assert_eq!(
            promotions() - before,
            u64::from(sent >= u / 8),
            "after {sent} updates"
        );
    }
    assert_eq!(client.verify_f2(f2).unwrap().value, truth.0);
    assert_eq!(client.verify_range_sum(range, l, r).unwrap().value, truth.1);
    client.bye().unwrap();
    server.shutdown();
}

/// One point's per-digit rows: `rows[j][v]` is the factor digit value `v`
/// contributes at position `j`.
type Rows<F> = Vec<Vec<F>>;

/// The rows of the LDE point `r`: `χ_v(r_j)`.
fn chi_rows<F: PrimeField>(params: LdeParams, r: &[F]) -> Rows<F> {
    r.iter().map(|&rj| chi_all(params.base(), rj)).collect()
}

/// Section 4.1's tree built bottom-up level by level, `v = w_0·v_L +
/// w_1·v_R` with `(w_0, w_1)` the combine rule's weights for the level key.
fn explicit_root(fv: &FrequencyVector, keys: &[Fp61], kind: HashKind) -> Fp61 {
    let mut level: Vec<Fp61> = (0..fv.universe())
        .map(|i| Fp61::from_i64(fv.get(i)))
        .collect();
    for &key in keys {
        let (w0, w1) = kind.weights(key);
        level = level
            .chunks_exact(2)
            .map(|c| w0 * c[0] + w1 * c[1])
            .collect();
    }
    level[0]
}

/// The per-update reference: `Σ_t δ_t · Π_j rows[j][digit_j(i_t)]`, one
/// weight chain and one reduced multiply-add per update. Lives here only.
fn per_update_sum<F: PrimeField>(params: LdeParams, rows: &Rows<F>, stream: &[Update]) -> F {
    stream
        .iter()
        .map(|up| {
            let weight: F = params
                .digits_of(up.index)
                .zip(rows)
                .map(|(v, row)| row[v as usize])
                .product();
            F::from_i64(up.delta) * weight
        })
        .sum()
}

/// A bank swept block by block through one reused stage — what
/// `MultiLdeEvaluator`, `DigestBank` and the kv client each do around the
/// kernel.
struct Grouped<F: PrimeField> {
    bank: WeightBank<F>,
    stage: BlockStage,
    deltas: Vec<F>,
}

impl<F: PrimeField> Grouped<F> {
    fn over(bank: WeightBank<F>) -> Self {
        Grouped {
            stage: BlockStage::new(bank.params()),
            bank,
            deltas: Vec::new(),
        }
    }

    fn of_rows(params: LdeParams, points: &[Rows<F>]) -> Self {
        let mut bank = WeightBank::with_capacity(params, points.len());
        for rows in points {
            bank.push_point(|j, row| row.copy_from_slice(&rows[j]));
        }
        Self::over(bank)
    }

    fn sums(&mut self, stream: &[Update]) -> Vec<F> {
        let mut sums = vec![F::ZERO; self.bank.num_points()];
        for block in stream.chunks(STAGE_BLOCK) {
            self.stage.stage(block.iter().map(|up| up.index));
            self.stage
                .column(&mut self.deltas, |t| F::from_i64(block[t].delta));
            self.bank.sweep(&self.stage, &self.deltas, &mut sums);
        }
        sums
    }
}

/// A deterministic "random-looking" word.
fn mix(x: u64) -> u64 {
    (x ^ 0x5851_f42d_4c95_7f2d).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7
}

/// The universes the kernel distinguishes: one packed group (`log_u` 1, 6,
/// 10 — a bucket is an index), two (11 with a remainder group, 18, 20) and
/// three (21, 24), and general bases, whose super-digits come from the
/// reciprocal path (`ℓ` = 3 and 10, two groups each).
const KERNEL_SHAPES: [(u64, u32); 10] = [
    (2, 1),
    (2, 6),
    (2, 10),
    (2, 11),
    (2, 18),
    (2, 20),
    (2, 21),
    (2, 24),
    (3, 7),
    (10, 4),
];

/// Grouped ≡ per-update over the bucket shapes the kernel branches on, all
/// through one stage per universe so each block also tests that the last
/// one was cleared.
#[test]
fn grouped_kernel_equals_per_update_weights_on_the_edge_grid() {
    for &(ell, d) in &KERNEL_SHAPES {
        let params = LdeParams::new(ell, d);
        let u = params.universe();
        let mut rng = StdRng::seed_from_u64(300 + ell + d as u64);
        // An LDE point; a point whose first row is all `p − 1` and the rest
        // ones, so every first-group table entry is `p − 1`; arbitrary rows.
        let r: Vec<Fp61> = (0..d).map(|_| Fp61::random(&mut rng)).collect();
        let mut largest = vec![vec![Fp61::ONE; ell as usize]; d as usize];
        largest[0].fill(-Fp61::ONE);
        let arbitrary = (0..d as u64)
            .map(|j| (0..ell).map(|v| Fp61::from_u64(mix(j * ell + v))).collect())
            .collect();
        let points = [chi_rows(params, &r), largest, arbitrary];
        let mut grouped = Grouped::of_rows(params, &points);

        // `low`: a few small indices — over two or more groups they share
        // the last super-digit, so `n` of them are one bucket of `n`.
        let low = |n: usize, delta: i64| -> Vec<Update> {
            (0..n as u64)
                .map(|t| Update::new(t % u.min(4), delta))
                .collect()
        };
        // `spread`: evenly spaced indices, each alone under its last
        // super-digit.
        let lone = u.min(16);
        let spread: Vec<Update> = (0..lone)
            .map(|t| Update::new(t * (u / lone), t as i64 - 7))
            .collect();
        let scattered = |n: usize| -> Vec<Update> {
            (0..n as u64)
                .map(|t| Update::new(mix(t) % u, (mix(t + 99) % 2001) as i64 - 1000))
                .collect()
        };
        let mut cases: Vec<(String, Vec<Update>)> = vec![
            ("empty".into(), vec![]),
            ("one update".into(), vec![Update::new(u - 1, -3)]),
            ("one bucket".into(), low(200, 5)),
            ("one index".into(), vec![Update::new(u / 2, 9); 77]),
            ("lone updates".into(), spread.clone()),
            (
                "a bucket among lone updates".into(),
                [low(3, 2), spread].concat(),
            ),
            (
                "cancelling duplicates".into(),
                [5, -5, i64::MIN, i64::MAX, 1]
                    .map(|delta| Update::new(u - 1, delta))
                    .to_vec(),
            ),
        ];
        // The lazy-reduction boundary: `Fp61` reduces every 32 products, and
        // 65 of `(p − 1)·(p − 4)` (the embedding of `i64::MIN`) overflow a
        // 128-bit sum.
        for n in [31usize, 32, 33, 64, 65] {
            for delta in [i64::MIN, i64::MAX] {
                cases.push((format!("bucket of {n}, delta {delta}"), low(n, delta)));
            }
        }
        for n in [STAGE_BLOCK - 1, STAGE_BLOCK, STAGE_BLOCK + 1] {
            cases.push((format!("{n} scattered"), scattered(n)));
        }
        for (name, stream) in &cases {
            let sums = grouped.sums(stream);
            for (p, rows) in points.iter().enumerate() {
                assert_eq!(
                    sums[p],
                    per_update_sum(params, rows, stream),
                    "ell={ell} d={d} {name} p={p}"
                );
            }
            if name == "cancelling duplicates" {
                assert_eq!(sums, [Fp61::ZERO; 3]);
            }
        }
    }
}

/// The evaluator over the kernel, for a field with delayed reduction and
/// one that reduces eagerly: in one batch, split across calls, and through
/// a clone (its own scratch) — all the per-update sums.
fn evaluator_equals_per_update_reference<F: PrimeField>() {
    for &(ell, d) in &[(2u64, 10u32), (2, 18), (2, 21), (3, 7)] {
        let params = LdeParams::new(ell, d);
        let u = params.universe();
        let mut rng = StdRng::seed_from_u64(500 + ell + d as u64);
        let points: Vec<Vec<F>> = (0..3)
            .map(|_| (0..d).map(|_| F::random(&mut rng)).collect())
            .collect();
        // Three blocks and a bit: zipf-like (a few hot indices between
        // scattered ones), with the extreme deltas mixed in.
        let stream: Vec<Update> = (0..3 * STAGE_BLOCK as u64 + 5)
            .map(|t| {
                let index = if t % 3 == 0 {
                    mix(t) % u.min(50)
                } else {
                    mix(t) % u
                };
                let delta = match t % 97 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => (mix(t + 7) % 41) as i64 - 20,
                };
                Update::new(index, delta)
            })
            .collect();
        let expect: Vec<F> = points
            .iter()
            .map(|r| per_update_sum(params, &chi_rows(params, r), &stream))
            .collect();
        let fresh = || MultiLdeEvaluator::<F>::new(params, points.clone());
        let mut serial = fresh();
        serial.update_batch(&stream);
        assert_eq!(serial.values(), expect, "ell={ell} d={d} serial");
        let mut split = fresh();
        split.update_batch(&stream[..STAGE_BLOCK + 1]);
        let mut twin = split.clone();
        split.update_batch(&stream[STAGE_BLOCK + 1..]);
        for &up in &stream[STAGE_BLOCK + 1..] {
            twin.update(up);
        }
        assert_eq!(split.values(), expect, "ell={ell} d={d} split");
        assert_eq!(
            twin.values(),
            expect,
            "ell={ell} d={d} clone, single updates"
        );
        assert_eq!(twin.updates(), stream.len() as u64);
    }
}

#[test]
fn evaluator_equals_per_update_reference_fp61() {
    evaluator_equals_per_update_reference::<Fp61>();
}

#[test]
fn evaluator_equals_per_update_reference_fp127() {
    evaluator_equals_per_update_reference::<Fp127>();
}

/// The kv client's digests as plain vectors, fed one `update` per digest
/// per put — what `Client::observe` did before the digests shared a packed
/// bank, and the definition the bank must reproduce bit for bit.
struct PerDigestReference {
    log_u: u32,
    reporting: Vec<SubVectorVerifier<Fp61>>,
    range_sums: Vec<RangeSumVerifier<Fp61>>,
    range_counts: Vec<RangeSumVerifier<Fp61>>,
    f2s: Vec<F2Verifier<Fp61>>,
    heavies: Vec<CountTreeHasher<Fp61>>,
    puts: u64,
}

impl PerDigestReference {
    /// The same digests (same keys, same order) `client` holds.
    fn twin_of(client: &Client<Fp61>) -> Self {
        let (reporting, range_sums, range_counts, f2s, heavies) = client.digests();
        PerDigestReference {
            log_u: client.log_u(),
            reporting: reporting.to_vec(),
            range_sums: range_sums.to_vec(),
            range_counts: range_counts.to_vec(),
            f2s: f2s.to_vec(),
            heavies: heavies.to_vec(),
            puts: client.puts(),
        }
    }

    fn put(&mut self, key: u64, value: u64) {
        let up = Update::new(key, value as i64 + 1);
        for d in &mut self.reporting {
            d.update(up);
        }
        for d in &mut self.range_sums {
            d.update(up);
        }
        for d in &mut self.range_counts {
            d.update(Update::new(key, 1));
        }
        for d in &mut self.f2s {
            d.update(Update::new(key, value as i64));
        }
        for d in &mut self.heavies {
            d.update(up);
        }
        self.puts += 1;
    }

    fn snapshot(&self) -> Vec<u8> {
        snapshot_to_bytes(&Client::from_digests(
            self.log_u,
            self.reporting.clone(),
            self.range_sums.clone(),
            self.range_counts.clone(),
            self.f2s.clone(),
            self.heavies.clone(),
            self.puts,
        ))
    }
}

/// Bank-fed ≡ per-digest-fed, as checkpoint bytes: for universes of one
/// packed group (`log_u` 1, 6), an exact group boundary (10) and a
/// remainder group (11, 18); budgets with an empty family; batch lengths
/// of kv's 64-put rounds and around `STAGE_BLOCK`; batches interleaved with
/// single puts and with queries that consume a digest of every family.
#[test]
fn kv_client_bank_is_bit_identical_to_per_digest_updates() {
    let budgets = [
        QueryBudget {
            reporting: 5,
            aggregate: 3,
            heavy: 2,
        },
        QueryBudget {
            reporting: 0,
            aggregate: 2,
            heavy: 0,
        },
        QueryBudget {
            reporting: 3,
            aggregate: 0,
            heavy: 1,
        },
    ];
    for log_u in [1u32, 6, 10, 11, 18] {
        let u = 1u64 << log_u;
        for (b, &budget) in budgets.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(900 + 10 * log_u as u64 + b as u64);
            let mut client = Client::<Fp61>::new(log_u, budget, &mut rng);
            let mut reference = PerDigestReference::twin_of(&client);
            let mut server = CloudStore::<Fp61>::new(log_u);
            assert_eq!(snapshot_to_bytes(&client), reference.snapshot());
            let mut next = 0u64;
            let mut fresh = |n: usize| -> Vec<(u64, u64)> {
                (0..n)
                    .map(|_| {
                        next += 1;
                        let key = next.wrapping_mul(0x9e37_79b9_7f4a_7c15) % u;
                        (key, next % 997)
                    })
                    .collect()
            };
            let lens = [
                0,
                1,
                64,
                STAGE_BLOCK - 1,
                STAGE_BLOCK,
                STAGE_BLOCK + 1,
                1000,
            ];
            for (round, len) in lens.into_iter().enumerate() {
                let batch = fresh(len);
                // Uploading and observing batches alternate; both go
                // through the one digest pass.
                if round % 2 == 0 {
                    client.put_batch(&batch, &mut server);
                } else {
                    client.observe_batch(&batch);
                    for &(k, v) in &batch {
                        sip::kvstore::KvServer::ingest(&mut server, Update::new(k, v as i64 + 1));
                    }
                }
                let (k, v) = fresh(1)[0];
                client.put(k, v, &mut server);
                let (k2, v2) = fresh(1)[0];
                client.observe(k2, v2);
                sip::kvstore::KvServer::ingest(&mut server, Update::new(k2, v2 as i64 + 1));
                for &(k, v) in batch.iter().chain(&[(k, v), (k2, v2)]) {
                    reference.put(k, v);
                }
                assert_eq!(
                    snapshot_to_bytes(&client),
                    reference.snapshot(),
                    "log_u={log_u} budget={b} after a {len}-put batch"
                );
                // Consume one digest of each family that has any left; the
                // honest store must verify against digests the bank built,
                // and the bank must drop exactly the consumed points.
                if round == 2 || round == 4 {
                    if client.remaining_budget().0 > 0 {
                        client.get(k, &server).expect("honest get");
                        reference.reporting.pop();
                    }
                    // (Aggregates keep their last copy so the closing
                    // rounds still sweep a non-empty aggregate bank.)
                    if client.remaining_budget().1 > 1 {
                        client.range_sum(0, u - 1, &server).expect("honest sum");
                        reference.range_sums.pop();
                        reference.range_counts.pop();
                        client.self_join_size(&server).expect("honest F2");
                        reference.f2s.pop();
                    }
                    if client.remaining_budget().2 > 0 {
                        client.heavy_keys(500, &server).expect("honest heavy");
                        reference.heavies.pop();
                    }
                    assert_eq!(
                        snapshot_to_bytes(&client),
                        reference.snapshot(),
                        "log_u={log_u} budget={b} after queries"
                    );
                }
            }
            assert_eq!(client.puts(), reference.puts);
        }
    }
}

/// The paper's Section 4 remark at the bank level: with the
/// `(1 − r_j, r_j)` combine the hash-tree root *is* the LDE, so a bank of
/// `HashKind::Multilinear` hashers and a `MultiLdeEvaluator` at the same
/// keys must agree on every stream — one kernel, two row shapes.
#[test]
fn multilinear_hash_bank_equals_multi_lde_evaluator() {
    for log_u in [6u32, 11, 18] {
        let params = LdeParams::binary(log_u);
        let u = params.universe();
        let mut rng = StdRng::seed_from_u64(77 + log_u as u64);
        let hashers: Vec<StreamingRootHasher<Fp61>> = (0..5)
            .map(|_| StreamingRootHasher::random(log_u, HashKind::Multilinear, &mut rng))
            .collect();
        let mut bank = WeightBank::<Fp61>::with_capacity(params, hashers.len());
        for h in &hashers {
            h.push_weights(&mut bank);
        }
        let mut multi = MultiLdeEvaluator::<Fp61>::new(
            params,
            hashers.iter().map(|h| h.keys().to_vec()).collect(),
        );
        let stream: Vec<Update> = (0..700u64)
            .map(|i| {
                Update::new(
                    i.wrapping_mul(0x2545_f491_4f6c_dd1d) % u,
                    (i % 19) as i64 - 9,
                )
            })
            .collect();
        multi.update_batch(&stream);
        let sums = Grouped::over(bank).sums(&stream);
        for (p, (mut hasher, banked)) in hashers.into_iter().zip(sums).enumerate() {
            assert_eq!(banked, multi.value(p), "log_u={log_u} p={p}");
            // …and both equal the hasher's own per-update loop.
            hasher.update_all(&stream);
            assert_eq!(hasher.root(), banked, "log_u={log_u} p={p}");
        }
    }
}

//! Property tests of the verifier ingest engine: the batched multi-point
//! evaluator (serial and chunked-parallel at every thread count), the
//! per-update evaluators, and the naive `sip-lde` reference must agree on
//! random streams — across power-of-two and general bases and several
//! point counts — and `FrequencyVector::apply_batch` must be
//! indistinguishable from repeated `apply`, including across the sparse →
//! dense promotion boundary. One level up, a kv `Client` fed through its
//! packed digest banks must checkpoint to the same bytes as one whose
//! digests were fed one `update` at a time.
//!
//! Agreement here is **bit-identical digest values**, which is what makes
//! batching and scheduling invisible to every protocol above: the digests
//! feed final checks verbatim, so equal digests ⇒ equal transcripts and
//! equal CostReports.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::engine::ProverPool;
use sip::core::heavy_hitters::CountTreeHasher;
use sip::core::subvector::{HashKind, StreamingRootHasher, SubVectorVerifier};
use sip::core::sumcheck::f2::F2Verifier;
use sip::core::sumcheck::range_sum::RangeSumVerifier;
use sip::durable::snapshot_to_bytes;
use sip::field::{Fp61, PrimeField};
use sip::kvstore::{Client, CloudStore, QueryBudget};
use sip::lde::reference::naive_lde_eval;
use sip::lde::{
    LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator, TileStage, WeightBank, BATCH_TILE,
};
use sip::streaming::{FrequencyVector, Update};

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

    /// Batched ≡ chunked-parallel ≡ per-update ≡ naive reference, for
    /// every base shape × point count.
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
                for threads in [1usize, 2, 4] {
                    let mut par = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
                    par.update_batch_threads(&stream, threads);
                    prop_assert_eq!(par.values(), per_update.values(),
                        "threads={} ell={} k={}", threads, ell, k);
                    let mut pooled = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
                    ProverPool::new(threads).ingest_batch(&mut pooled, &stream);
                    prop_assert_eq!(pooled.values(), per_update.values(),
                        "pool threads={} ell={} k={}", threads, ell, k);
                }
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

    /// The division-free digit plan computes exactly the weights the
    /// historical div/mod path computed, for every base shape.
    #[test]
    fn weight_plan_equals_divmod(
        indices in prop::collection::vec(any::<u64>(), 1..50),
        seed in any::<u64>(),
    ) {
        for &(ell, d) in &SHAPES {
            let params = LdeParams::new(ell, d);
            let point = points(1, d, seed).pop().unwrap();
            let eval = StreamingLdeEvaluator::<Fp61>::new(params, point);
            for &i in &indices {
                let i = i % params.universe();
                prop_assert_eq!(eval.weight(i), eval.weight_divmod(i), "ell={} i={}", ell, i);
            }
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

/// A batch large enough to cross `MIN_PARALLEL_BATCH` actually exercises
/// the threaded chunk path (the proptest streams above stay small and
/// degrade to the serial path by design).
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
        let mut serial = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
        serial.update_batch(&stream);
        for threads in [2usize, 4, 8] {
            let mut par = MultiLdeEvaluator::<Fp61>::new(params, pts.clone());
            par.update_batch_threads(&stream, threads);
            assert_eq!(par.values(), serial.values(), "ell={ell} threads={threads}");
        }
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
/// around `BATCH_TILE`; batches interleaved with single puts and with
/// queries that consume a digest of every family.
#[test]
fn kv_client_bank_is_bit_identical_to_per_digest_updates() {
    assert_eq!(BATCH_TILE, 256, "the batch lengths below straddle the tile");
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
            for (round, len) in [0usize, 1, 63, 255, 256, 257, 1000].into_iter().enumerate() {
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
        let mut accs = vec![<Fp61 as PrimeField>::DotAcc::default(); hashers.len()];
        let mut stage = TileStage::new(params);
        for tile in stream.chunks(BATCH_TILE) {
            stage.stage(tile.iter().map(|up| up.index));
            let deltas: Vec<Fp61> = tile.iter().map(|up| Fp61::from_i64(up.delta)).collect();
            bank.sweep(&stage, &deltas, &mut accs);
        }
        for (p, (mut hasher, acc)) in hashers.into_iter().zip(accs).enumerate() {
            let banked = Fp61::acc_finish(acc);
            assert_eq!(banked, multi.value(p), "log_u={log_u} p={p}");
            // …and both equal the hasher's own per-update loop.
            hasher.update_all(&stream);
            assert_eq!(hasher.root(), banked, "log_u={log_u} p={p}");
        }
    }
}

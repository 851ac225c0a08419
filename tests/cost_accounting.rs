//! The paper's `(s, t)` cost table, asserted end-to-end: every protocol's
//! measured verifier space and communication must stay within its claimed
//! asymptotic envelope (with explicit constants).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::batch::run_batch_range_sum;
use sip::core::frequency_fn::run_f0;
use sip::core::heavy_hitters::run_heavy_hitters;
use sip::core::one_round::run_one_round_f2;
use sip::core::reporting::run_predecessor;
use sip::core::subvector::run_subvector;
use sip::core::sumcheck::f2::run_f2;
use sip::core::sumcheck::general_ell::run_general_f2;
use sip::core::sumcheck::moments::run_moment;
use sip::core::sumcheck::range_sum::run_range_sum;
use sip::field::Fp61;
use sip::lde::LdeParams;
use sip::streaming::workloads;

const LOG_U: u32 = 12;
const D: usize = LOG_U as usize;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// (log u, log u): the Theorem 4 headline — and footnote 1's `(ℓ, d)`
/// family through the same round check: `d` rounds of `2ℓ − 1` words at
/// `d + 2ℓ` words of space, which is the binary protocol's `d + 4` at
/// `ℓ = 2`.
#[test]
fn f2_is_logarithmic() {
    let stream = workloads::paper_f2(1 << LOG_U, 1);
    let binary = run_f2::<Fp61, _>(LOG_U, &stream, &mut rng(1))
        .unwrap()
        .report;
    let general = |ell: u64, d: u32| {
        run_general_f2::<Fp61, _>(LdeParams::new(ell, d), &stream, &mut rng(1))
            .unwrap()
            .report
    };
    let runs = [
        (2, D, binary),
        (2, D, general(2, 12)),
        (4, 6, general(4, 6)),
        (16, 3, general(16, 3)),
    ];
    for (ell, d, r) in runs {
        assert_eq!(r.rounds, d, "ℓ = {ell}");
        assert_eq!(r.p_to_v_words, (2 * ell - 1) * d, "ℓ = {ell}");
        assert_eq!(r.v_to_p_words, d - 1, "ℓ = {ell}");
        assert_eq!(r.verifier_space_words, d + 2 * ell, "ℓ = {ell}");
    }
}

/// (log u, k·log u) for moments.
#[test]
fn moments_scale_linearly_in_k() {
    let stream = workloads::uniform(500, 1 << LOG_U, 10, 2);
    for k in [2u32, 4, 7] {
        let r = run_moment::<Fp61, _>(k, LOG_U, &stream, &mut rng(2))
            .unwrap()
            .report;
        assert_eq!(r.p_to_v_words, (k as usize + 1) * D, "k={k}");
        assert_eq!(r.verifier_space_words, D + 4);
    }
}

/// (√u, √u) for the one-round baseline.
#[test]
fn one_round_is_sqrt() {
    let stream = workloads::paper_f2(1 << LOG_U, 3);
    let r = run_one_round_f2::<Fp61, _>(LOG_U, &stream, &mut rng(3))
        .unwrap()
        .report;
    let ell = 1usize << (LOG_U / 2);
    assert_eq!(r.rounds, 1);
    assert_eq!(r.p_to_v_words, 2 * ell - 1);
    assert_eq!(r.verifier_space_words, 2 * ell + 1);
}

/// (log u, log u + k) for SUB-VECTOR; the +k is exactly the answer.
#[test]
fn subvector_is_log_plus_answer() {
    let stream = workloads::distinct_keys(500, 1 << LOG_U, 4);
    let got = run_subvector::<Fp61, _>(LOG_U, &stream, 100, 1100, &mut rng(4)).unwrap();
    let k = got.entries.len();
    assert!(got.report.p_to_v_words <= 2 * (k + 2) + 2 * D);
    assert!(got.report.v_to_p_words <= D + 2);
    assert!(got.report.verifier_space_words <= 3 * D + 10);
}

/// PREDECESSOR inherits (log u, log u): no bulk answer.
#[test]
fn predecessor_is_logarithmic() {
    let stream = workloads::distinct_keys(200, 1 << LOG_U, 5);
    let got = run_predecessor::<Fp61, _>(LOG_U, &stream, 3000, &mut rng(5)).unwrap();
    assert!(got.report.total_words() <= 4 * D + 10);
}

/// RANGE-SUM is (log u, log u) regardless of range width.
#[test]
fn range_sum_independent_of_range_width() {
    let stream = workloads::distinct_key_values(800, 1 << LOG_U, 100, 6);
    let narrow = run_range_sum::<Fp61, _>(LOG_U, &stream, 7, 8, &mut rng(6))
        .unwrap()
        .report;
    let wide = run_range_sum::<Fp61, _>(LOG_U, &stream, 0, (1 << LOG_U) - 1, &mut rng(7))
        .unwrap()
        .report;
    assert_eq!(narrow.p_to_v_words, wide.p_to_v_words);
    assert_eq!(narrow.total_words(), wide.total_words());
}

/// Heavy hitters proof is O(1/φ · log u).
#[test]
fn heavy_hitters_proof_bounded() {
    let stream = workloads::zipf(100_000, 1 << LOG_U, 1.2, 8);
    let n: u64 = stream.iter().map(|u| u.delta as u64).sum();
    for inv_phi in [10u64, 100] {
        let r = run_heavy_hitters::<Fp61, _>(LOG_U, &stream, n / inv_phi, &mut rng(8))
            .unwrap()
            .report;
        assert!(
            r.p_to_v_words <= 6 * inv_phi as usize * D,
            "1/φ={inv_phi}: {} words",
            r.p_to_v_words
        );
        assert_eq!(r.rounds, D);
    }
}

/// Theorem 6: F0 communication is T·log u for the sum-check part and the
/// protocol keeps log u rounds per pass.
#[test]
fn f0_costs_match_theorem6() {
    let stream = workloads::zipf(20_000, 1 << LOG_U, 1.3, 9);
    let t = 64u64;
    let whole = run_f0::<Fp61, _>(LOG_U, &stream, t, &mut rng(10)).unwrap();
    let hh = run_heavy_hitters::<Fp61, _>(LOG_U, &stream, t, &mut rng(11))
        .unwrap()
        .report;
    assert_eq!(
        whole.report.p_to_v_words - hh.p_to_v_words,
        t as usize * D,
        "sum-check part must be exactly T·log u words"
    );
}

/// §7 batching: k queries share one digest and one challenge stream.
#[test]
fn batching_shares_verifier_work() {
    let stream = workloads::distinct_key_values(500, 1 << LOG_U, 50, 12);
    let ranges = [(0u64, 99u64), (500, 700), (1000, 4000)];
    let batch = run_batch_range_sum::<Fp61, _>(LOG_U, &stream, &ranges, &mut rng(13))
        .unwrap()
        .report;
    // Challenges: d−1 shared, not per query.
    assert_eq!(batch.v_to_p_words, 2 * ranges.len() + D - 1);
    // Verifier space: one digest + 3 session words per query.
    assert_eq!(batch.verifier_space_words, D + 1 + 3 * ranges.len());
}

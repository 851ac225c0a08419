//! The reporting queries of Section 4.2 (and the k-largest query of
//! Section 6.1), reduced to SUB-VECTOR.
//!
//! * RANGE QUERY — the sub-vector itself (each stream element interpreted
//!   as `δ = 1`);
//! * INDEX — `q_L = q_R = q`;
//! * DICTIONARY — values are stored incremented by one so that `0` decodes
//!   to "not found";
//! * PREDECESSOR / SUCCESSOR — the prover claims the neighbour `q′`, and the
//!   verifier checks the claimed *gap* is genuinely empty by querying the
//!   sub-vector between `q′` and `q` (`k ≤ 1`, so `O(log u)` words);
//! * K-LARGEST — the prover claims the location `j` of the `k`-th largest
//!   key; the verified sub-vector `[j, u−1]` must contain exactly `k`
//!   present keys, the smallest of them at `j`.
//!
//! Every verifier-side decision works only on *verified* sub-vector output:
//! a prover lying about a claim either contradicts the verified entries
//! (caught structurally) or must lie inside the sub-vector protocol itself
//! (caught by the root check, w.h.p.).

use rand::Rng;
use sip_field::PrimeField;
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::error::Rejection;
use crate::subvector::{run_subvector, run_subvector_with_adversary, SubVectorAnswer, Verified};

/// A verified scalar query outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedValue<T> {
    /// The verified answer.
    pub value: T,
    /// Cost accounting.
    pub report: CostReport,
}

/// RANGE QUERY: all elements of the stream within `[q_l, q_r]`, verified.
///
/// Identical to [`run_subvector`]; re-exported under the query's name for
/// discoverability.
pub fn run_range_query<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q_l: u64,
    q_r: u64,
    rng: &mut R,
) -> Result<Verified<F>, Rejection> {
    run_subvector(log_u, stream, q_l, q_r, rng)
}

/// INDEX: the value `a_q`, verified. A special case of RANGE QUERY with
/// `q_L = q_R = q`.
pub fn run_index<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q: u64,
    rng: &mut R,
) -> Result<VerifiedValue<F>, Rejection> {
    let got = run_subvector::<F, R>(log_u, stream, q, q, rng)?;
    let value = got.entries.first().map(|&(_, v)| v).unwrap_or(F::ZERO);
    Ok(VerifiedValue {
        value,
        report: got.report,
    })
}

/// Encodes DICTIONARY key–value pairs as stream updates: each value is
/// stored incremented by one so a retrieved `0` means "not found".
pub fn dictionary_stream(pairs: &[(u64, u64)]) -> Vec<Update> {
    pairs
        .iter()
        .map(|&(k, v)| Update::new(k, v as i64 + 1))
        .collect()
}

/// DICTIONARY: the value associated with `key`, or `None` for "not found",
/// verified. The stream must be built by [`dictionary_stream`] (distinct
/// keys, `+1` encoding).
pub fn run_dictionary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    key: u64,
    rng: &mut R,
) -> Result<VerifiedValue<Option<u64>>, Rejection> {
    let got = run_index::<F, R>(log_u, stream, key, rng)?;
    let raw = got.value.to_u128();
    let value = if raw == 0 {
        None
    } else {
        Some((raw - 1) as u64)
    };
    Ok(VerifiedValue {
        value,
        report: got.report,
    })
}

/// Which neighbour of a query key a PREDECESSOR / SUCCESSOR claim names.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Neighbour {
    /// The largest present key `≤ q`.
    Predecessor,
    /// The smallest present key `≥ q`.
    Successor,
}

impl Neighbour {
    /// The gap between `claim` and `q` in a universe of `u` keys — `[p, q]`
    /// or `[0, q]` for a predecessor, `[q, s]` or `[q, u − 1]` for a
    /// successor — whose verified sub-vector must hold exactly the claimed
    /// key, or nothing for `None`. A claim on the wrong side of `q` is
    /// refused.
    pub fn gap(self, q: u64, claim: Option<u64>, u: u64) -> Result<(u64, u64), Rejection> {
        match (self, claim) {
            (Neighbour::Predecessor, Some(p)) if p <= q => Ok((p, q)),
            (Neighbour::Predecessor, None) => Ok((0, q)),
            (Neighbour::Successor, Some(s)) if s >= q && s < u => Ok((q, s)),
            (Neighbour::Successor, None) => Ok((q, u - 1)),
            (_, Some(k)) => Err(Rejection::StructuralCheckFailed {
                detail: format!("claimed {self:?} {k} lies on the wrong side of query {q}"),
            }),
        }
    }

    /// Checks the gap's verified entries: exactly the claimed key, or
    /// nothing when the claim is `None`.
    pub fn check<F>(self, claim: Option<u64>, verified: &[(u64, F)]) -> Result<(), Rejection> {
        let holds = match claim {
            Some(k) => verified.len() == 1 && verified[0].0 == k,
            None => verified.is_empty(),
        };
        if holds {
            return Ok(());
        }
        Err(Rejection::StructuralCheckFailed {
            detail: format!(
                "{self:?} claim {claim:?}: the verified gap holds {} entries",
                verified.len()
            ),
        })
    }
}

/// The neighbour query: the verified sub-vector over the gap the claim
/// leaves, checked to hold exactly the claim.
fn run_neighbour<F: PrimeField, R: Rng + ?Sized>(
    side: Neighbour,
    log_u: u32,
    stream: &[Update],
    q: u64,
    claim: Option<u64>,
    rng: &mut R,
) -> Result<VerifiedValue<Option<u64>>, Rejection> {
    let (lo, hi) = side.gap(q, claim, 1 << log_u)?;
    let got = run_subvector::<F, R>(log_u, stream, lo, hi, rng)?;
    side.check(claim, &got.entries)?;
    Ok(VerifiedValue {
        value: claim,
        report: got.report,
    })
}

/// PREDECESSOR: the largest present key `p ≤ q`, verified. Communication
/// `O(log u)` — the verified gap contains no entries.
pub fn run_predecessor<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q: u64,
    rng: &mut R,
) -> Result<VerifiedValue<Option<u64>>, Rejection> {
    let fv = FrequencyVector::from_stream(1 << log_u, stream);
    let claim = fv.predecessor(q);
    run_predecessor_with_claim::<F, R>(log_u, stream, q, claim, rng)
}

/// PREDECESSOR with an explicit (possibly dishonest) prover claim — the
/// entry point for the failure-injection suite.
pub fn run_predecessor_with_claim<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q: u64,
    claim: Option<u64>,
    rng: &mut R,
) -> Result<VerifiedValue<Option<u64>>, Rejection> {
    run_neighbour::<F, R>(Neighbour::Predecessor, log_u, stream, q, claim, rng)
}

/// SUCCESSOR: the smallest present key `s ≥ q`, verified (symmetric to
/// PREDECESSOR).
pub fn run_successor<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q: u64,
    rng: &mut R,
) -> Result<VerifiedValue<Option<u64>>, Rejection> {
    let claim = FrequencyVector::from_stream(1 << log_u, stream).successor(q);
    run_neighbour::<F, R>(Neighbour::Successor, log_u, stream, q, claim, rng)
}

/// K-LARGEST (Section 6.1): the `k`-th largest present key, verified by a
/// range query on `[j, u−1]` containing exactly `k` present keys.
pub fn run_kth_largest<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    k: u64,
    rng: &mut R,
) -> Result<VerifiedValue<Option<u64>>, Rejection> {
    assert!(k >= 1, "k is 1-indexed");
    let u = 1u64 << log_u;
    let fv = FrequencyVector::from_stream(u, stream);
    let claim = fv.kth_largest(k);
    let (lo, hi) = match claim {
        Some(j) => (j, u - 1),
        // Claiming fewer than k keys exist: the whole key space must hold
        // fewer than k entries.
        None => (0, u - 1),
    };
    let got = run_subvector::<F, R>(log_u, stream, lo, hi, rng)?;
    match claim {
        Some(j) => {
            if got.entries.len() != k as usize || got.entries.first().map(|e| e.0) != Some(j) {
                return Err(Rejection::StructuralCheckFailed {
                    detail: format!(
                        "range [{j}, {}] should contain exactly {k} keys, the smallest at {j}; \
                         got {}",
                        u - 1,
                        got.entries.len()
                    ),
                });
            }
        }
        None => {
            if got.entries.len() >= k as usize {
                return Err(Rejection::StructuralCheckFailed {
                    detail: "claimed fewer than k keys, but k or more verified".to_string(),
                });
            }
        }
    }
    Ok(VerifiedValue {
        value: claim,
        report: got.report,
    })
}

/// Corruption hook re-exported so callers can tamper RANGE QUERY answers.
pub type AnswerTamper<'a, F> = &'a mut dyn FnMut(&mut SubVectorAnswer<F>);

/// RANGE QUERY with an answer-corruption hook.
pub fn run_range_query_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q_l: u64,
    q_r: u64,
    rng: &mut R,
    tamper: AnswerTamper<'_, F>,
) -> Result<Verified<F>, Rejection> {
    run_subvector_with_adversary(log_u, stream, q_l, q_r, rng, Some(tamper), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn index_present_and_absent() {
        let mut rng = StdRng::seed_from_u64(1);
        let stream = [Update::new(5, 42), Update::new(9, 7)];
        let got = run_index::<Fp61, _>(6, &stream, 5, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(42));
        let got = run_index::<Fp61, _>(6, &stream, 6, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::ZERO);
    }

    #[test]
    fn dictionary_distinguishes_zero_from_missing() {
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = [(3u64, 0u64), (8, 100), (12, 5)];
        let stream = dictionary_stream(&pairs);
        let got = run_dictionary::<Fp61, _>(5, &stream, 3, &mut rng).unwrap();
        assert_eq!(got.value, Some(0), "value 0 must be retrievable");
        let got = run_dictionary::<Fp61, _>(5, &stream, 8, &mut rng).unwrap();
        assert_eq!(got.value, Some(100));
        let got = run_dictionary::<Fp61, _>(5, &stream, 4, &mut rng).unwrap();
        assert_eq!(got.value, None, "absent key must read as not-found");
    }

    #[test]
    fn predecessor_random_streams() {
        let mut rng = StdRng::seed_from_u64(3);
        let log_u = 9;
        let u = 1u64 << log_u;
        let stream = workloads::distinct_keys(60, u, 4);
        let fv = FrequencyVector::from_stream(u, &stream);
        for _ in 0..20 {
            let q = rng.random_range(0..u);
            let got = run_predecessor::<Fp61, _>(log_u, &stream, q, &mut rng).unwrap();
            assert_eq!(got.value, fv.predecessor(q), "q={q}");
            // PREDECESSOR is (log u, log u): no bulk entries cross the wire.
            assert!(got.report.total_words() <= 4 * log_u as usize + 8);
        }
    }

    #[test]
    fn successor_random_streams() {
        let mut rng = StdRng::seed_from_u64(4);
        let log_u = 9;
        let u = 1u64 << log_u;
        let stream = workloads::distinct_keys(60, u, 5);
        let fv = FrequencyVector::from_stream(u, &stream);
        for _ in 0..20 {
            let q = rng.random_range(0..u);
            let got = run_successor::<Fp61, _>(log_u, &stream, q, &mut rng).unwrap();
            assert_eq!(got.value, fv.successor(q), "q={q}");
        }
    }

    #[test]
    fn predecessor_on_empty_prefix() {
        let mut rng = StdRng::seed_from_u64(5);
        let stream = [Update::insert(30)];
        let got = run_predecessor::<Fp61, _>(6, &stream, 20, &mut rng).unwrap();
        assert_eq!(got.value, None);
    }

    #[test]
    fn lying_predecessor_claims_are_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let stream = [Update::insert(0), Update::insert(10), Update::insert(20)];
        // True predecessor of 15 is 10.
        // Lie 1: claim 0 (skipping 10) — the gap [0, 15] contains 10.
        let res = run_predecessor_with_claim::<Fp61, _>(6, &stream, 15, Some(0), &mut rng);
        assert!(matches!(res, Err(Rejection::StructuralCheckFailed { .. })));
        // Lie 2: claim 12 (absent key) — [12, 15] contains nothing at 12.
        let res = run_predecessor_with_claim::<Fp61, _>(6, &stream, 15, Some(12), &mut rng);
        assert!(matches!(res, Err(Rejection::StructuralCheckFailed { .. })));
        // Lie 3: claim none — [0, 15] is not empty.
        let res = run_predecessor_with_claim::<Fp61, _>(6, &stream, 15, None, &mut rng);
        assert!(matches!(res, Err(Rejection::StructuralCheckFailed { .. })));
        // Lie 4: claim beyond the query.
        let res = run_predecessor_with_claim::<Fp61, _>(6, &stream, 15, Some(20), &mut rng);
        assert!(matches!(res, Err(Rejection::StructuralCheckFailed { .. })));
    }

    #[test]
    fn kth_largest_matches_ground_truth() {
        let mut rng = StdRng::seed_from_u64(7);
        let log_u = 8;
        let u = 1u64 << log_u;
        let stream = workloads::distinct_keys(30, u, 8);
        let fv = FrequencyVector::from_stream(u, &stream);
        for k in 1..=32u64 {
            let got = run_kth_largest::<Fp61, _>(log_u, &stream, k, &mut rng).unwrap();
            assert_eq!(got.value, fv.kth_largest(k), "k={k}");
        }
    }

    #[test]
    fn range_query_equals_subvector() {
        let mut rng = StdRng::seed_from_u64(8);
        let stream = workloads::distinct_keys(40, 1 << 8, 9);
        let a = run_range_query::<Fp61, _>(8, &stream, 10, 200, &mut rng).unwrap();
        let fv = FrequencyVector::from_stream(1 << 8, &stream);
        assert_eq!(
            a.entries.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            fv.range_report(10, 200)
                .iter()
                .map(|&(i, _)| i)
                .collect::<Vec<_>>()
        );
    }
}

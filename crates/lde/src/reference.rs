//! Naive reference implementations for differential testing.
//!
//! These evaluate LDEs directly from the definition
//! `f_a(x) = Σ_v a_v χ_v(x)` in `O(u·d)` time and `O(u)` space — far too
//! slow for real use but unambiguous, which makes them the oracle the fast
//! streaming implementations are validated against throughout the
//! workspace's test suites.

use sip_field::lagrange::{chi, chi_all};
use sip_field::PrimeField;

use crate::params::LdeParams;

/// Evaluates `f_a(x)` directly from the definition.
///
/// `freqs` is the dense frequency vector `a` (length `u = ℓ^d`); `x` has one
/// coordinate per digit.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn naive_lde_eval<F: PrimeField>(freqs: &[i64], params: LdeParams, x: &[F]) -> F {
    assert_eq!(freqs.len() as u64, params.universe(), "|a| must equal ℓ^d");
    assert_eq!(x.len(), params.dimension() as usize);
    let tables: Vec<Vec<F>> = x.iter().map(|&xj| chi_all(params.base(), xj)).collect();
    let mut acc = F::ZERO;
    for (i, &f) in freqs.iter().enumerate() {
        if f == 0 {
            continue;
        }
        let mut w = F::from_i64(f);
        for (j, digit) in params.digits_of(i as u64).enumerate() {
            w *= tables[j][digit as usize];
        }
        acc += w;
    }
    acc
}

/// `χ_{v(i)}(r)` from the definition: base-`ℓ` digits of `i` by hardware
/// `div`/`mod`, one [`chi`] per digit — the oracle the packed,
/// division-free [`crate::WeightBank::weight`] is compared with.
///
/// # Panics
/// Panics if `r` does not have one coordinate per digit.
pub fn weight_divmod<F: PrimeField>(params: LdeParams, r: &[F], i: u64) -> F {
    assert_eq!(r.len(), params.dimension() as usize);
    params
        .digits_of(i)
        .zip(r)
        .fold(F::ONE, |w, (digit, &rj)| w * chi(digit, params.base(), rj))
}

/// Evaluates the multilinear extension of `values` (length `2^k`) at `x`
/// (length `k`), via the standard fold: repeatedly interpolate the lowest
/// variable. `O(2^k)` time, used as the oracle for GKR tests.
pub fn naive_multilinear_eval<F: PrimeField>(values: &[F], x: &[F]) -> F {
    assert_eq!(values.len(), 1usize << x.len(), "|values| must be 2^|x|");
    let mut layer = values.to_vec();
    for &xj in x {
        let half = layer.len() / 2;
        let mut next = Vec::with_capacity(half);
        for m in 0..half {
            let lo = layer[2 * m];
            let hi = layer[2 * m + 1];
            next.push(lo + xj * (hi - lo));
        }
        layer = next;
    }
    debug_assert_eq!(layer.len(), 1);
    layer[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;

    #[test]
    fn naive_lde_on_grid_is_identity() {
        let params = LdeParams::new(3, 2);
        let freqs: Vec<i64> = (0..9).map(|i| i * i - 4).collect();
        for i in 0..9u64 {
            let x: Vec<Fp61> = params.digits_of(i).map(Fp61::from_u64).collect();
            assert_eq!(
                naive_lde_eval(&freqs, params, &x),
                Fp61::from_i64(freqs[i as usize])
            );
        }
    }

    #[test]
    fn multilinear_matches_lde_for_binary_base() {
        let params = LdeParams::binary(4);
        let freqs: Vec<i64> = (0..16).map(|i| 3 * i - 7).collect();
        let values: Vec<Fp61> = freqs.iter().map(|&f| Fp61::from_i64(f)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let x: Vec<Fp61> = (0..4).map(|_| Fp61::random(&mut rng)).collect();
            assert_eq!(
                naive_multilinear_eval(&values, &x),
                naive_lde_eval(&freqs, params, &x)
            );
        }
    }

    #[test]
    fn multilinear_on_hypercube_is_identity() {
        let values: Vec<Fp61> = (0..8u64).map(Fp61::from_u64).collect();
        for i in 0..8u64 {
            let x: Vec<Fp61> = (0..3).map(|j| Fp61::from_u64((i >> j) & 1)).collect();
            assert_eq!(naive_multilinear_eval(&values, &x), Fp61::from_u64(i));
        }
    }
}

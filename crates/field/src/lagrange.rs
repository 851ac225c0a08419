//! Lagrange basis polynomials over the integer grid `[ℓ] = {0, …, ℓ−1}`.
//!
//! Equation (2) of the paper defines, for `k ∈ [ℓ]`, the basis polynomial
//!
//! ```text
//!            (x−0)⋯(x−(k−1))·(x−(k+1))⋯(x−(ℓ−1))
//! χ_k(x) =  ─────────────────────────────────────
//!            (k−0)⋯(k−(k−1))·(k−(k+1))⋯(k−(ℓ−1))
//! ```
//!
//! with `χ_k(j) = [j == k]` for `j ∈ [ℓ]`. The LDE of an input vector is the
//! tensor product of these along the `d` base-`ℓ` digits of the index.
//!
//! Two access patterns matter:
//!
//! * evaluate *one* `χ_k(x)` — [`chi`], `O(ℓ)`;
//! * evaluate *all* `χ_k(x)` at a common point `x` — [`chi_all`], `O(ℓ)`
//!   total via prefix/suffix products and a single batched inversion;
//!   [`ChiRows`] hoists the inversion (it depends on `ℓ` alone) out of the
//!   per-coordinate work. The streaming LDE evaluators precompute these
//!   tables once per stream.
//!
//! [`eval_from_grid_evals`] evaluates the unique degree `< m` interpolant of
//! values on `{0, …, m−1}` at an arbitrary point — exactly what the verifier
//! does with each sum-check message (sent in evaluation form) and with the
//! low-degree substitute `h̃` of Section 6.2.

use crate::traits::{batch_inverse, PrimeField};

/// Evaluates the single Lagrange basis polynomial `χ_k` over `[ℓ]` at `x`.
///
/// `O(ℓ)` field operations plus one inversion.
///
/// # Panics
/// Panics if `k >= ell` or `ell == 0`.
pub fn chi<F: PrimeField>(k: u64, ell: u64, x: F) -> F {
    assert!(ell > 0 && k < ell, "basis index {k} out of range [0,{ell})");
    let mut num = F::ONE;
    let mut den = F::ONE;
    let kf = F::from_u64(k);
    for j in 0..ell {
        if j == k {
            continue;
        }
        let jf = F::from_u64(j);
        num *= x - jf;
        den *= kf - jf;
    }
    num * den
        .inverse()
        .expect("grid points are distinct, denominator nonzero")
}

/// The part of [`chi_all`] that depends on `ℓ` alone: the inverted
/// denominators `1 / (k!·(ℓ−1−k)!·(−1)^{ℓ−1−k})`.
///
/// A digest evaluates the basis at `d` coordinates per point and a client
/// provisions a hundred points, all over the same `ℓ`; building this once
/// turns each further row into `~3ℓ` multiplications with no inversion and
/// no allocation.
#[derive(Clone, Debug)]
pub struct ChiRows<F> {
    ell: usize,
    /// Empty for `ℓ ≤ 2`, whose rows have the closed forms `(1)` and
    /// `(1−x, x)`.
    inv_denoms: Vec<F>,
}

impl<F: PrimeField> ChiRows<F> {
    /// Prepares rows over `[ℓ]`: `O(ℓ)` multiplications and one inversion
    /// (none for `ℓ ≤ 2`).
    ///
    /// # Panics
    /// Panics if `ell == 0`.
    pub fn new(ell: u64) -> Self {
        assert!(ell > 0, "ell must be positive");
        let l = ell as usize;
        if l <= 2 {
            return ChiRows {
                ell: l,
                inv_denoms: Vec::new(),
            };
        }
        let mut factorial = vec![F::ONE; l];
        for k in 1..l {
            factorial[k] = factorial[k - 1] * F::from_u64(k as u64);
        }
        // Denominator for χ_k is k! · (ℓ−1−k)! · (−1)^{ℓ−1−k}.
        let mut inv_denoms: Vec<F> = (0..l)
            .map(|k| {
                let d = factorial[k] * factorial[l - 1 - k];
                if (l - 1 - k) % 2 == 1 {
                    -d
                } else {
                    d
                }
            })
            .collect();
        batch_inverse(&mut inv_denoms);
        ChiRows { ell: l, inv_denoms }
    }

    /// The grid size `ℓ`.
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// Writes `χ_0(x), …, χ_{ℓ−1}(x)` into `row`.
    ///
    /// # Panics
    /// Panics if `row.len() != ℓ`.
    pub fn fill(&self, x: F, row: &mut [F]) {
        let l = self.ell;
        assert_eq!(row.len(), l, "a χ row has ℓ = {l} entries");
        match l {
            1 => row[0] = F::ONE,
            2 => (row[0], row[1]) = chi_pair(x),
            _ => {
                // row[k] = Π_{j<k} (x−j), then a running Π_{j>k} (x−j) from
                // the right.
                row[0] = F::ONE;
                for k in 1..l {
                    row[k] = row[k - 1] * (x - F::from_u64((k - 1) as u64));
                }
                let mut suffix = F::ONE;
                for k in (0..l).rev() {
                    row[k] = row[k] * suffix * self.inv_denoms[k];
                    suffix *= x - F::from_u64(k as u64);
                }
            }
        }
    }
}

/// Evaluates *all* `ℓ` basis polynomials over `[ℓ]` at `x`, in `O(ℓ)` time.
///
/// Returns `vec![χ_0(x), …, χ_{ℓ−1}(x)]`. Callers that evaluate many points
/// over one `ℓ` build a [`ChiRows`] once instead.
///
/// # Panics
/// Panics if `ell == 0`.
pub fn chi_all<F: PrimeField>(ell: u64, x: F) -> Vec<F> {
    let rows = ChiRows::new(ell);
    let mut row = vec![F::ZERO; rows.ell()];
    rows.fill(x, &mut row);
    row
}

/// Evaluates, at `x`, the unique polynomial of degree `< evals.len()` that
/// takes value `evals[j]` at point `j` for `j = 0, …, evals.len()−1`.
///
/// This is how verifiers consume round polynomials: the prover sends
/// `deg+1` evaluations on the grid, and the verifier evaluates at its secret
/// random point in `O(deg)` time.
///
/// # Panics
/// Panics if `evals` is empty.
pub fn eval_from_grid_evals<F: PrimeField>(evals: &[F], x: F) -> F {
    assert!(!evals.is_empty(), "cannot interpolate zero points");
    // Fast path: x is itself a grid point (common in tests).
    let xv = x.to_u128();
    if xv < evals.len() as u128 {
        return evals[xv as usize];
    }
    let basis = chi_all(evals.len() as u64, x);
    evals
        .iter()
        .zip(basis)
        .map(|(&e, b)| e * b)
        .fold(F::ZERO, |a, b| a + b)
}

/// The multilinear (`ℓ = 2`) basis pair `(χ_0(x), χ_1(x)) = (1−x, x)`.
#[inline]
pub fn chi_pair<F: PrimeField>(x: F) -> (F, F) {
    (F::ONE - x, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fp61;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn chi_is_indicator_on_grid() {
        for ell in 1..=8u64 {
            for k in 0..ell {
                for j in 0..ell {
                    let v = chi::<Fp61>(k, ell, Fp61::from_u64(j));
                    let expect = if j == k { Fp61::ONE } else { Fp61::ZERO };
                    assert_eq!(v, expect, "ell={ell} k={k} j={j}");
                }
            }
        }
    }

    #[test]
    fn chi_all_matches_chi() {
        let mut rng = StdRng::seed_from_u64(1);
        for ell in 1..=16u64 {
            let x = Fp61::random(&mut rng);
            let all = chi_all::<Fp61>(ell, x);
            for k in 0..ell {
                assert_eq!(all[k as usize], chi(k, ell, x), "ell={ell} k={k}");
            }
        }
    }

    #[test]
    fn chi_rows_match_chi_all_and_chi() {
        let mut rng = StdRng::seed_from_u64(7);
        for ell in [1u64, 2, 3, 10, 16] {
            let rows = ChiRows::<Fp61>::new(ell);
            assert_eq!(rows.ell(), ell as usize);
            // One builder, many points: nothing carries over between rows.
            let mut row = vec![Fp61::ZERO; ell as usize];
            for _ in 0..4 {
                let x = Fp61::random(&mut rng);
                rows.fill(x, &mut row);
                assert_eq!(row, chi_all(ell, x), "ell={ell}");
                for k in 0..ell {
                    assert_eq!(row[k as usize], chi(k, ell, x), "ell={ell} k={k}");
                }
            }
        }
    }

    #[test]
    fn chi_all_sums_to_one() {
        // Partition of unity: Σ_k χ_k(x) = 1 for any x (interpolates the
        // constant-1 function). The range-sum digit DP relies on this.
        let mut rng = StdRng::seed_from_u64(2);
        for ell in 1..=12u64 {
            let x = Fp61::random(&mut rng);
            let sum: Fp61 = chi_all::<Fp61>(ell, x).into_iter().sum();
            assert_eq!(sum, Fp61::ONE, "ell={ell}");
        }
    }

    #[test]
    fn chi_pair_matches_general() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Fp61::random(&mut rng);
        let (c0, c1) = chi_pair(x);
        assert_eq!(c0, chi(0, 2, x));
        assert_eq!(c1, chi(1, 2, x));
    }

    #[test]
    fn eval_from_grid_recovers_polynomial() {
        // Take g(x) = 3x^3 + x + 7, tabulate on {0..3}, evaluate at random x.
        let g = |x: Fp61| Fp61::from_u64(3) * x * x * x + x + Fp61::from_u64(7);
        let evals: Vec<Fp61> = (0..4).map(|j| g(Fp61::from_u64(j))).collect();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let x = Fp61::random(&mut rng);
            assert_eq!(eval_from_grid_evals(&evals, x), g(x));
        }
        // Grid fast path.
        for j in 0..4u64 {
            assert_eq!(
                eval_from_grid_evals(&evals, Fp61::from_u64(j)),
                evals[j as usize]
            );
        }
    }

    #[test]
    fn eval_single_point_is_constant() {
        let evals = vec![Fp61::from_u64(99)];
        let mut rng = StdRng::seed_from_u64(5);
        let x = Fp61::random(&mut rng);
        assert_eq!(eval_from_grid_evals(&evals, x), Fp61::from_u64(99));
    }

    #[test]
    fn random_degree_interpolation_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        for deg in 0..10usize {
            // random coefficients
            let coeffs: Vec<Fp61> = (0..=deg).map(|_| Fp61::random(&mut rng)).collect();
            let eval = |x: Fp61| coeffs.iter().rev().fold(Fp61::ZERO, |acc, &c| acc * x + c);
            let evals: Vec<Fp61> = (0..=deg as u64).map(|j| eval(Fp61::from_u64(j))).collect();
            let x = Fp61::from_u64(rng.random_range(1000..2000));
            assert_eq!(eval_from_grid_evals(&evals, x), eval(x), "deg={deg}");
        }
    }
}

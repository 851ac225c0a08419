//! Property-based tests of the field axioms for both Mersenne fields.

use proptest::prelude::*;

use crate::lagrange::{chi_all, eval_from_grid_evals};
use crate::traits::PrimeField;
use crate::{Fp127, Fp61, Polynomial};

macro_rules! field_axioms {
    ($name:ident, $field:ty, $gen:expr) => {
        mod $name {
            use super::*;

            proptest! {
                #[test]
                fn add_commutative(a in $gen, b in $gen) {
                    let (a, b) = (<$field>::from_u128(a), <$field>::from_u128(b));
                    prop_assert_eq!(a + b, b + a);
                }

                #[test]
                fn add_associative(a in $gen, b in $gen, c in $gen) {
                    let (a, b, c) = (<$field>::from_u128(a), <$field>::from_u128(b), <$field>::from_u128(c));
                    prop_assert_eq!((a + b) + c, a + (b + c));
                }

                #[test]
                fn mul_commutative(a in $gen, b in $gen) {
                    let (a, b) = (<$field>::from_u128(a), <$field>::from_u128(b));
                    prop_assert_eq!(a * b, b * a);
                }

                #[test]
                fn mul_associative(a in $gen, b in $gen, c in $gen) {
                    let (a, b, c) = (<$field>::from_u128(a), <$field>::from_u128(b), <$field>::from_u128(c));
                    prop_assert_eq!((a * b) * c, a * (b * c));
                }

                #[test]
                fn distributive(a in $gen, b in $gen, c in $gen) {
                    let (a, b, c) = (<$field>::from_u128(a), <$field>::from_u128(b), <$field>::from_u128(c));
                    prop_assert_eq!(a * (b + c), a * b + a * c);
                }

                #[test]
                fn sub_is_add_neg(a in $gen, b in $gen) {
                    let (a, b) = (<$field>::from_u128(a), <$field>::from_u128(b));
                    prop_assert_eq!(a - b, a + (-b));
                }

                #[test]
                fn inverse_is_inverse(a in $gen) {
                    let a = <$field>::from_u128(a);
                    if !a.is_zero() {
                        prop_assert_eq!(a * a.inverse().unwrap(), <$field>::ONE);
                    }
                }

                #[test]
                fn embedding_is_hom(a in any::<u64>(), b in any::<u64>()) {
                    // from_u128(a·b) == from_u64(a)·from_u64(b)
                    let lhs = <$field>::from_u128((a as u128) * (b as u128));
                    let rhs = <$field>::from_u64(a) * <$field>::from_u64(b);
                    prop_assert_eq!(lhs, rhs);
                    let lhs = <$field>::from_u128(a as u128 + b as u128);
                    let rhs = <$field>::from_u64(a) + <$field>::from_u64(b);
                    prop_assert_eq!(lhs, rhs);
                }

                #[test]
                fn square_matches_mul(a in $gen) {
                    let a = <$field>::from_u128(a);
                    prop_assert_eq!(a.square(), a * a);
                }

                #[test]
                fn dot_matches_pairwise(
                    a in prop::collection::vec(any::<u128>(), 0..100),
                    b in prop::collection::vec(any::<u128>(), 0..100),
                ) {
                    let n = a.len().min(b.len());
                    let a: Vec<$field> = a[..n].iter().map(|&x| <$field>::from_u128(x)).collect();
                    let b: Vec<$field> = b[..n].iter().map(|&x| <$field>::from_u128(x)).collect();
                    let naive: $field = a.iter().zip(&b).map(|(&x, &y)| x * y)
                        .fold(<$field>::ZERO, |s, p| s + p);
                    prop_assert_eq!(<$field>::dot(&a, &b), naive);
                }
            }
        }
    };
}

field_axioms!(fp61_axioms, Fp61, any::<u128>());
field_axioms!(fp127_axioms, Fp127, any::<u128>());

proptest! {
    /// Interpolation through (j, e_j) then evaluation agrees with direct
    /// grid-evaluation form for arbitrary evaluation points.
    #[test]
    fn grid_eval_matches_interpolation(
        evals in prop::collection::vec(any::<u64>(), 1..10),
        x in any::<u64>(),
    ) {
        let evals: Vec<Fp61> = evals.into_iter().map(Fp61::from_u64).collect();
        let points: Vec<(Fp61, Fp61)> = evals
            .iter()
            .enumerate()
            .map(|(j, &y)| (Fp61::from_u64(j as u64), y))
            .collect();
        let p = Polynomial::interpolate(&points);
        let x = Fp61::from_u64(x);
        prop_assert_eq!(p.evaluate(x), eval_from_grid_evals(&evals, x));
    }

    /// χ basis evaluated anywhere still sums to 1 (partition of unity).
    #[test]
    fn chi_partition_of_unity(ell in 1u64..20, x in any::<u64>()) {
        let x = Fp61::from_u64(x);
        let sum: Fp61 = chi_all::<Fp61>(ell, x).into_iter().sum();
        prop_assert_eq!(sum, Fp61::ONE);
    }

    /// Polynomial ring laws on random small polynomials.
    #[test]
    fn poly_ring_laws(
        a in prop::collection::vec(any::<u64>(), 0..6),
        b in prop::collection::vec(any::<u64>(), 0..6),
        c in prop::collection::vec(any::<u64>(), 0..6),
        x in any::<u64>(),
    ) {
        let f = |v: Vec<u64>| Polynomial::new(v.into_iter().map(Fp61::from_u64).collect());
        let (a, b, c) = (f(a), f(b), f(c));
        let x = Fp61::from_u64(x);
        // evaluation is a ring homomorphism
        prop_assert_eq!((a.clone() + b.clone()).evaluate(x), a.evaluate(x) + b.evaluate(x));
        prop_assert_eq!((a.clone() * b.clone()).evaluate(x), a.evaluate(x) * b.evaluate(x));
        prop_assert_eq!((a.clone() - b.clone()).evaluate(x), a.evaluate(x) - b.evaluate(x));
        // distributivity in the ring
        let lhs = a.clone() * (b.clone() + c.clone());
        let rhs = a.clone() * b + a * c;
        prop_assert_eq!(lhs, rhs);
    }
}

//! The [`PrimeField`] trait: the interface every protocol in this workspace
//! is generic over.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

/// A prime field `Z_p` with `p` fitting in 128 bits.
///
/// Implementations must be `Copy` value types with canonical internal
/// representation (two elements compare equal iff they are the same residue).
/// All arithmetic is total; division by zero is the only panicking operation
/// (via [`PrimeField::inverse`] returning `None` and callers unwrapping).
pub trait PrimeField:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The field modulus, as a `u128`.
    const MODULUS: u128;
    /// Number of bits of the modulus (used for cost accounting: one "word" in
    /// the paper's `(s, t)` accounting is one field element).
    const BITS: u32;

    /// Embeds an unsigned 64-bit integer (reduced mod `p`).
    fn from_u64(x: u64) -> Self;

    /// Embeds an unsigned 128-bit integer (reduced mod `p`).
    fn from_u128(x: u128) -> Self;

    /// Embeds a signed integer (negative values map to `p − |x| mod p`).
    fn from_i64(x: i64) -> Self {
        if x >= 0 {
            Self::from_u64(x as u64)
        } else {
            -Self::from_u64(x.unsigned_abs())
        }
    }

    /// Canonical residue in `[0, p)`.
    fn to_u128(self) -> u128;

    /// `self^exp` by square-and-multiply.
    fn pow(self, mut exp: u128) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse, or `None` for zero.
    ///
    /// Default implementation uses Fermat's little theorem
    /// (`x^{p−2} = x^{−1}`); implementations may override with EGCD.
    fn inverse(self) -> Option<Self> {
        if self == Self::ZERO {
            None
        } else {
            Some(self.pow(Self::MODULUS - 2))
        }
    }

    /// `self * self`, occasionally cheaper than `mul`.
    fn square(self) -> Self {
        self * self
    }

    /// `self == ZERO`.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Doubles the value.
    fn double(self) -> Self {
        self + self
    }

    /// The delayed-reduction accumulator for sums of products — the state
    /// behind [`PrimeField::dot`] and the prover engine's combine kernels.
    ///
    /// Implementations with reduction headroom (e.g. `Fp61`, whose products
    /// occupy 122 of 128 accumulator bits) batch many raw products per
    /// modular reduction; implementations without it reduce eagerly. Either
    /// way the finished value is the canonical residue of `Σ xᵢ·yᵢ`, so
    /// swapping accumulation strategies never changes a transcript.
    type DotAcc: Copy + Default + Send;

    /// Adds the product `x·y` to a delayed-reduction accumulator.
    fn acc_add_prod(acc: &mut Self::DotAcc, x: Self, y: Self);

    /// Collapses a delayed-reduction accumulator to its canonical residue.
    fn acc_finish(acc: Self::DotAcc) -> Self;

    /// Sum of products `Σ aᵢ·bᵢ` over two equal-length slices, using the
    /// delayed-reduction accumulator.
    ///
    /// # Panics
    /// Panics if the slices disagree in length.
    fn dot(a: &[Self], b: &[Self]) -> Self {
        assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
        let mut acc = Self::DotAcc::default();
        for (&x, &y) in a.iter().zip(b) {
            Self::acc_add_prod(&mut acc, x, y);
        }
        Self::acc_finish(acc)
    }

    /// Sum of products `Σ wᵢ·xᵢ` of field weights with signed integers
    /// (`xᵢ` embedded as [`PrimeField::from_i64`]), over the shorter of the
    /// two slices — the prover's dot of challenge weights with raw
    /// frequencies. Implementations whose accumulator has headroom override
    /// it to reduce once per batch without counting terms.
    fn dot_i64(w: &[Self], x: &[i64]) -> Self {
        let mut acc = Self::DotAcc::default();
        for (&w, &x) in w.iter().zip(x) {
            Self::acc_add_prod(&mut acc, w, Self::from_i64(x));
        }
        Self::acc_finish(acc)
    }

    /// [`PrimeField::dot_i64`] with the weights looked up: `Σ_t w[at[t]]·x[t]`
    /// over the shorter of `at` and `x` — the prover's dot of challenge
    /// weights with the nonzero cells of one packed block, each cell stored
    /// as its offset in the block and its frequency.
    ///
    /// # Panics
    /// Panics if an offset lies outside `w`.
    fn dot_i64_at(w: &[Self], at: &[u16], x: &[i64]) -> Self {
        let mut acc = Self::DotAcc::default();
        for (&s, &x) in at.iter().zip(x) {
            Self::acc_add_prod(&mut acc, w[s as usize], Self::from_i64(x));
        }
        Self::acc_finish(acc)
    }

    /// Gathered sum of products `Σ_t x[t]·table[at[t]]` over the shorter of
    /// `x` and `at` — the inner sum of the verifier's grouped ingest kernel
    /// (deltas against looked-up weights). Implementations whose accumulator
    /// has headroom override it to reduce once per batch without counting
    /// terms, as for [`PrimeField::dot_i64`].
    ///
    /// # Panics
    /// Panics if an offset lies outside `table`.
    fn dot_gather(x: &[Self], table: &[Self], at: &[u32]) -> Self {
        let mut acc = Self::DotAcc::default();
        for (&x, &s) in x.iter().zip(at) {
            Self::acc_add_prod(&mut acc, x, table[s as usize]);
        }
        Self::acc_finish(acc)
    }

    /// The three moments `(Σ a₂ₘ², Σ a₂ₘ₊₁², Σ a₂ₘ·a₂ₘ₊₁)` of the pairs
    /// `(a₂ₘ, a₂ₘ₊₁)` of an even-length table — what the prover's `F₂`
    /// round message over a dense fold table is a function of.
    /// Implementations whose accumulator has headroom override it to reduce
    /// once per batch without counting terms, as for [`PrimeField::dot_i64`].
    ///
    /// # Panics
    /// Panics if the table's length is odd.
    fn pair_moments(table: &[Self]) -> (Self, Self, Self) {
        assert!(
            table.len().is_multiple_of(2),
            "pair moments of an odd-length table"
        );
        let mut acc = [Self::DotAcc::default(); 3];
        for pair in table.chunks_exact(2) {
            let (lo, hi) = (pair[0], pair[1]);
            Self::acc_add_prod(&mut acc[0], lo, lo);
            Self::acc_add_prod(&mut acc[1], hi, hi);
            Self::acc_add_prod(&mut acc[2], lo, hi);
        }
        let [a, b, c] = acc.map(Self::acc_finish);
        (a, b, c)
    }

    /// A uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// A uniformly random *nonzero* field element (rejection sampling; the
    /// zero probability is ~2^-61 so the loop is effectively one iteration).
    fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Self::random(rng);
            if !x.is_zero() {
                return x;
            }
        }
    }
}

/// Batch inversion via Montgomery's trick: inverts `n` elements with one
/// field inversion and `3(n−1)` multiplications.
///
/// Zero entries are left as zero (matching the convention that `0⁻¹` is
/// unused by callers; the nonzero entries are still inverted correctly).
pub fn batch_inverse<F: PrimeField>(values: &mut [F]) {
    // Prefix products of the nonzero entries.
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = F::ONE;
    for &v in values.iter() {
        prefix.push(acc);
        if !v.is_zero() {
            acc *= v;
        }
    }
    let mut inv = match acc.inverse() {
        Some(i) => i,
        None => return, // acc is ONE only if all entries were zero
    };
    for (v, pre) in values.iter_mut().zip(prefix).rev() {
        if v.is_zero() {
            continue;
        }
        let this = *v;
        *v = inv * pre;
        inv *= this;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fp61;

    #[test]
    fn batch_inverse_matches_individual() {
        let mut vals: Vec<Fp61> = (1u64..20).map(Fp61::from_u64).collect();
        let expect: Vec<Fp61> = vals.iter().map(|v| v.inverse().unwrap()).collect();
        batch_inverse(&mut vals);
        assert_eq!(vals, expect);
    }

    #[test]
    fn batch_inverse_skips_zeros() {
        let mut vals = vec![Fp61::from_u64(3), Fp61::ZERO, Fp61::from_u64(7), Fp61::ZERO];
        batch_inverse(&mut vals);
        assert_eq!(vals[0], Fp61::from_u64(3).inverse().unwrap());
        assert_eq!(vals[1], Fp61::ZERO);
        assert_eq!(vals[2], Fp61::from_u64(7).inverse().unwrap());
        assert_eq!(vals[3], Fp61::ZERO);
    }

    #[test]
    fn batch_inverse_all_zero() {
        let mut vals = vec![Fp61::ZERO; 4];
        batch_inverse(&mut vals);
        assert!(vals.iter().all(|v| v.is_zero()));
    }

    #[test]
    fn from_i64_negative() {
        assert_eq!(Fp61::from_i64(-1) + Fp61::ONE, Fp61::ZERO);
        assert_eq!(Fp61::from_i64(-5) + Fp61::from_i64(5), Fp61::ZERO);
        assert_eq!(
            Fp61::from_i64(i64::MIN) + Fp61::from_u64(1 << 63),
            Fp61::ZERO
        );
    }

    #[test]
    fn pow_edge_cases() {
        let x = Fp61::from_u64(12345);
        assert_eq!(x.pow(0), Fp61::ONE);
        assert_eq!(x.pow(1), x);
        assert_eq!(x.pow(2), x * x);
        // Fermat: x^{p-1} = 1.
        assert_eq!(x.pow(Fp61::MODULUS - 1), Fp61::ONE);
    }
}

//! `Fp127`: the Mersenne field `Z_p` with `p = 2^127 − 1`.
//!
//! The paper notes the fooling probability "could be reduced further to, e.g.
//! 4·127/(2^127−1) < 10^−35, at the cost of using 128 bit arithmetic". This
//! module provides exactly that field. Residues live in a `u128`;
//! multiplication computes the 256-bit product in 64-bit limbs and reduces
//! with `2^127 ≡ 1 (mod p)`.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::traits::PrimeField;

/// The modulus `2^127 − 1` (a Mersenne prime).
pub const P127: u128 = (1u128 << 127) - 1;

/// An element of `Z_{2^127−1}` in canonical form.
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fp127(u128);

/// Full 256-bit product of two `u128`s, as `(hi, lo)`.
#[inline]
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    let a0 = a as u64 as u128;
    let a1 = a >> 64;
    let b0 = b as u64 as u128;
    let b1 = b >> 64;
    let ll = a0 * b0;
    let lh = a0 * b1;
    let hl = a1 * b0;
    let hh = a1 * b1;
    let (mid, mid_carry) = lh.overflowing_add(hl);
    let (lo, lo_carry) = ll.overflowing_add(mid << 64);
    let hi = hh + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
    (hi, lo)
}

impl Fp127 {
    /// Creates an element from a canonical value; debug-asserts canonicity.
    #[inline]
    pub const fn new(x: u128) -> Self {
        debug_assert!(x < P127);
        Fp127(x)
    }

    /// Canonical residue in `[0, p)`.
    #[inline]
    pub const fn value(self) -> u128 {
        self.0
    }

    /// Reduces an arbitrary `u128`.
    #[inline]
    pub const fn reduce128(x: u128) -> Self {
        let folded = (x & P127) + (x >> 127);
        let r = if folded >= P127 {
            folded - P127
        } else {
            folded
        };
        Fp127(r)
    }

    /// Reduces a 256-bit value `hi·2^128 + lo` using `2^128 ≡ 2 (mod p)`.
    #[inline]
    fn reduce256(hi: u128, lo: u128) -> Self {
        // hi < 2^126 for products of canonical elements, so hi << 1 fits.
        debug_assert!(hi < (1u128 << 127));
        let (s, carry) = lo.overflowing_add(hi << 1);
        // s + carry·2^128 ≡ (s & p) + (s >> 127) + 2·carry (mod p)
        let mut t = (s & P127) + (s >> 127) + ((carry as u128) << 1);
        if t >= P127 {
            t -= P127;
        }
        Fp127(t)
    }
}

impl PrimeField for Fp127 {
    const ZERO: Self = Fp127(0);
    const ONE: Self = Fp127(1);
    const MODULUS: u128 = P127;
    const BITS: u32 = 127;

    // Products already fill 254 of the 256 accumulator bits, so there is no
    // headroom to defer reductions across terms; instead each step fuses the
    // running sum into the product's 256-bit reduction (one reduce256 per
    // term, no separate canonical add).
    type DotAcc = Fp127;

    #[inline]
    fn acc_add_prod(acc: &mut Fp127, x: Self, y: Self) {
        let (hi, lo) = mul_wide(x.0, y.0);
        let (lo2, carry) = lo.overflowing_add(acc.0);
        // hi < 2^126 and acc < 2^127, so hi + carry < 2^127: reduce256's
        // precondition holds.
        *acc = Self::reduce256(hi + carry as u128, lo2);
    }

    #[inline]
    fn acc_finish(acc: Fp127) -> Self {
        acc
    }

    #[inline]
    fn from_u64(x: u64) -> Self {
        Fp127(x as u128)
    }

    #[inline]
    fn from_u128(x: u128) -> Self {
        Self::reduce128(x)
    }

    #[inline]
    fn to_u128(self) -> u128 {
        self.0
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let hi = (rng.next_u64() >> 1) as u128; // 63 bits
            let lo = rng.next_u64() as u128;
            let x = (hi << 64) | lo; // 127 random bits
            if x < P127 {
                return Fp127(x);
            }
        }
    }
}

impl Add for Fp127 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut s = self.0 + rhs.0; // both < 2^127, no overflow
        if s >= P127 {
            s -= P127;
        }
        Fp127(s)
    }
}

impl Sub for Fp127 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Fp127(if borrow { d.wrapping_add(P127) } else { d })
    }
}

impl Mul for Fp127 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let (hi, lo) = mul_wide(self.0, rhs.0);
        Self::reduce256(hi, lo)
    }
}

impl Neg for Fp127 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Fp127(P127 - self.0)
        }
    }
}

impl AddAssign for Fp127 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp127 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp127 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Fp127 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}
impl Product for Fp127 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl fmt::Debug for Fp127 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp127({})", self.0)
    }
}
impl fmt::Display for Fp127 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp127 {
    fn from(x: u64) -> Self {
        Self::from_u64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Schoolbook modmul via repeated doubling, for cross-checking.
    fn naive_modmul(mut a: u128, mut b: u128) -> u128 {
        let mut acc: u128 = 0;
        a %= P127;
        while b > 0 {
            if b & 1 == 1 {
                // acc = (acc + a) mod p without overflow: both < p < 2^127.
                acc += a;
                if acc >= P127 {
                    acc -= P127;
                }
            }
            a += a;
            if a >= P127 {
                a -= P127;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn mul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a = Fp127::random(&mut rng);
            let b = Fp127::random(&mut rng);
            assert_eq!((a * b).value(), naive_modmul(a.value(), b.value()));
        }
    }

    #[test]
    fn mul_boundaries() {
        let m = Fp127::new(P127 - 1); // -1
        assert_eq!(m * m, Fp127::ONE);
        assert_eq!(m * Fp127::ZERO, Fp127::ZERO);
        let big = Fp127::new(P127 - 1);
        assert_eq!((big * Fp127::ONE).value(), P127 - 1);
        // 2^126 squared = 2^252 = 2^(127*1 + 125) ≡ 2^125.
        let x = Fp127::new(1u128 << 126);
        assert_eq!((x * x).value(), 1u128 << 125);
    }

    #[test]
    fn reduce128_boundaries() {
        assert_eq!(Fp127::reduce128(P127).value(), 0);
        assert_eq!(Fp127::reduce128(P127 + 5).value(), 5);
        assert_eq!(Fp127::reduce128(u128::MAX).value(), u128::MAX % P127);
    }

    #[test]
    fn dot_extremes() {
        // Fused accumulation at the modulus boundary: (−1)² terms.
        let m = Fp127::new(P127 - 1);
        let a = vec![m; 257];
        assert_eq!(Fp127::dot(&a, &a), Fp127::from_u64(257));
        // Largest-hi products: 2^126 · 2^126 twice.
        let x = Fp127::new(1u128 << 126);
        let expect = Fp127::new(1u128 << 125) + Fp127::new(1u128 << 125);
        assert_eq!(Fp127::dot(&[x, x], &[x, x]), expect);
    }

    #[test]
    fn field_roundtrips() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..200 {
            let a = Fp127::random(&mut rng);
            let b = Fp127::random(&mut rng);
            assert_eq!(a + b - b, a);
            assert_eq!(a + (-a), Fp127::ZERO);
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fp127::ONE);
            }
        }
    }

    #[test]
    fn fermat() {
        let x = Fp127::from_u64(987654321);
        assert_eq!(x.pow(P127 - 1), Fp127::ONE);
    }
}

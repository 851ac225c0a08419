//! `Fp61`: the Mersenne field `Z_p` with `p = 2^61 − 1`.
//!
//! This is the field the paper's experiments use ("computations were made
//! over the field of size p = 2^61 − 1, giving a probability of
//! 4·61/p ≈ 10^−16 of the verifier being fooled"). Residues live in a `u64`
//! in canonical form `[0, p)`; multiplication widens to `u128` and reduces
//! with the Mersenne identity `2^61 ≡ 1 (mod p)`:
//! `x ≡ (x mod 2^61) + (x >> 61)`.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::traits::PrimeField;

/// The modulus `2^61 − 1` (a Mersenne prime).
pub const P61: u64 = (1u64 << 61) - 1;

/// An element of `Z_{2^61−1}` in canonical form.
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fp61(u64);

impl Fp61 {
    /// Creates an element from a canonical value; debug-asserts canonicity.
    #[inline]
    pub const fn new(x: u64) -> Self {
        debug_assert!(x < P61);
        Fp61(x)
    }

    /// Canonical residue in `[0, p)`.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Reduces an arbitrary `u64` (which may exceed `p`).
    #[inline]
    pub const fn reduce64(x: u64) -> Self {
        // x < 2^64 = 8·2^61, so one folding step leaves x < 2^61 + 7,
        // and a second conditional subtraction finishes.
        let folded = (x & P61) + (x >> 61);
        let r = if folded >= P61 { folded - P61 } else { folded };
        Fp61(r)
    }

    /// Reduces a `u128` product.
    #[inline]
    pub const fn reduce128(x: u128) -> Self {
        // Split into low 61 bits and high 67 bits. Since 2^61 ≡ 1,
        // x ≡ lo + hi. hi < 2^67 so recurse once on the 64-bit sum parts.
        let lo = (x as u64) & P61;
        let hi = x >> 61;
        let hi_lo = (hi as u64) & P61;
        let hi_hi = (hi >> 61) as u64; // < 2^6
        let mut s = lo + hi_lo + hi_hi;
        if s >= P61 {
            s -= P61;
        }
        if s >= P61 {
            s -= P61;
        }
        Fp61(s)
    }
}

/// Delayed-reduction accumulator for `Σ xᵢ·yᵢ` over [`Fp61`].
///
/// Each raw product of canonical residues is below `2^122`, so a `u128`
/// holds a batch of 32 of them before any reduction is needed; the
/// accumulator folds the pending sum into `done` once per batch instead of
/// reducing per product — the "delayed-reduction sum-of-products" trick the
/// prover engine's combine kernels lean on.
#[derive(Copy, Clone, Debug, Default)]
pub struct Fp61DotAcc {
    /// Reduced partial sum.
    done: Fp61,
    /// Raw (unreduced) pending products, `< FP61_ACC_BATCH · 2^122`.
    pending: u128,
    /// Number of products in `pending`.
    terms: u32,
}

/// Products per deferred reduction: `32 · 2^122 = 2^127` fits a `u128`
/// with a bit to spare.
const FP61_ACC_BATCH: u32 = 32;

/// One batch of [`PrimeField::dot_i64`]: `Σ wᵢ·xᵢ` over at most
/// [`FP61_ACC_BATCH`] terms, reduced once. Where every `xᵢ` lies in
/// `[0, 2^61)` — their OR has its top three bits clear — nothing needs
/// reducing before the product: each is below `2^122` like any product of
/// residues, so the batch fits the accumulator with the integers as they
/// are. Or-ing, not `all`: no early exit, so no branch per integer.
#[inline(always)]
fn batch_i64(w: impl Iterator<Item = Fp61>, x: &[i64]) -> Fp61 {
    let mut pending = 0u128;
    if x.iter().fold(0, |any, &x| any | x) >> 61 == 0 {
        for (w, &x) in w.zip(x) {
            pending += (w.0 as u128) * (x as u64 as u128);
        }
    } else {
        for (w, &x) in w.zip(x) {
            pending += (w.0 as u128) * (Fp61::from_i64(x).0 as u128);
        }
    }
    Fp61::reduce128(pending)
}

impl PrimeField for Fp61 {
    const ZERO: Self = Fp61(0);
    const ONE: Self = Fp61(1);
    const MODULUS: u128 = P61 as u128;
    const BITS: u32 = 61;

    type DotAcc = Fp61DotAcc;

    #[inline]
    fn acc_add_prod(acc: &mut Fp61DotAcc, x: Self, y: Self) {
        acc.pending += (x.0 as u128) * (y.0 as u128);
        acc.terms += 1;
        if acc.terms == FP61_ACC_BATCH {
            acc.done += Fp61::reduce128(acc.pending);
            acc.pending = 0;
            acc.terms = 0;
        }
    }

    #[inline]
    fn acc_finish(acc: Fp61DotAcc) -> Self {
        acc.done + Fp61::reduce128(acc.pending)
    }

    // `always`: the caller runs this once per 16-cell block, and with two
    // loop bodies a plain `#[inline]` is declined — a call a block.
    #[inline(always)]
    fn dot_i64(w: &[Self], x: &[i64]) -> Self {
        // A whole batch per reduction and no term counter: the batch length
        // is the loop bound, so the inner loop is multiply-and-add only.
        let batch = FP61_ACC_BATCH as usize;
        let mut done = Fp61::ZERO;
        for (w, x) in w.chunks(batch).zip(x.chunks(batch)) {
            done += batch_i64(w.iter().copied(), x);
        }
        done
    }

    #[inline(always)]
    fn dot_i64_at(w: &[Self], at: &[u16], x: &[i64]) -> Self {
        // The same counted batches as `dot_i64`.
        let batch = FP61_ACC_BATCH as usize;
        let mut done = Fp61::ZERO;
        for (at, x) in at.chunks(batch).zip(x.chunks(batch)) {
            done += batch_i64(at.iter().map(|&s| w[s as usize]), x);
        }
        done
    }

    #[inline]
    fn dot_gather(x: &[Self], table: &[Self], at: &[u32]) -> Self {
        // The same counted batches as `dot_i64`.
        let batch = FP61_ACC_BATCH as usize;
        let mut done = Fp61::ZERO;
        for (x, at) in x.chunks(batch).zip(at.chunks(batch)) {
            let mut pending = 0u128;
            for (&x, &s) in x.iter().zip(at) {
                pending += (x.0 as u128) * (table[s as usize].0 as u128);
            }
            done += Fp61::reduce128(pending);
        }
        done
    }

    fn pair_moments(table: &[Self]) -> (Self, Self, Self) {
        assert!(
            table.len().is_multiple_of(2),
            "pair moments of an odd-length table"
        );
        // Batches of `FP61_ACC_BATCH` pairs, one reduction of each moment a
        // batch and no term counter: the batch is the loop bound.
        let (batches, rest) = table.as_chunks::<{ 2 * FP61_ACC_BATCH as usize }>();
        let batch = |pairs: &[Fp61]| {
            let (mut a, mut b, mut c) = (0u128, 0u128, 0u128);
            for pair in pairs.as_chunks::<2>().0 {
                let (lo, hi) = (pair[0].0 as u128, pair[1].0 as u128);
                a += lo * lo;
                b += hi * hi;
                c += lo * hi;
            }
            [a, b, c].map(Fp61::reduce128)
        };
        let mut sums = batch(rest);
        for pairs in batches {
            for (sum, part) in sums.iter_mut().zip(batch(pairs)) {
                *sum += part;
            }
        }
        let [a, b, c] = sums;
        (a, b, c)
    }

    #[inline]
    fn from_u64(x: u64) -> Self {
        Self::reduce64(x)
    }

    #[inline]
    fn from_u128(x: u128) -> Self {
        Self::reduce128(x)
    }

    #[inline]
    fn to_u128(self) -> u128 {
        self.0 as u128
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling from 61 bits keeps the distribution exactly
        // uniform (acceptance probability 1 − 2^−61).
        loop {
            let x = rng.next_u64() >> 3; // 61 random bits
            if x < P61 {
                return Fp61(x);
            }
        }
    }
}

impl Add for Fp61 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut s = self.0 + rhs.0; // < 2^62, no overflow
        if s >= P61 {
            s -= P61;
        }
        Fp61(s)
    }
}

impl Sub for Fp61 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Fp61(if borrow { d.wrapping_add(P61) } else { d })
    }
}

impl Mul for Fp61 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::reduce128((self.0 as u128) * (rhs.0 as u128))
    }
}

impl Neg for Fp61 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Fp61(P61 - self.0)
        }
    }
}

impl AddAssign for Fp61 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp61 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp61 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Fp61 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}
impl Product for Fp61 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl fmt::Debug for Fp61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp61({})", self.0)
    }
}
impl fmt::Display for Fp61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp61 {
    fn from(x: u64) -> Self {
        Self::from_u64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reduce64_boundaries() {
        assert_eq!(Fp61::reduce64(0).value(), 0);
        assert_eq!(Fp61::reduce64(P61).value(), 0);
        assert_eq!(Fp61::reduce64(P61 - 1).value(), P61 - 1);
        assert_eq!(Fp61::reduce64(P61 + 1).value(), 1);
        assert_eq!(Fp61::reduce64(u64::MAX).value(), (u64::MAX % P61));
    }

    #[test]
    fn reduce128_boundaries() {
        let naive = |x: u128| (x % (P61 as u128)) as u64;
        for &x in &[
            0u128,
            1,
            P61 as u128,
            (P61 as u128) * (P61 as u128),
            u128::MAX,
            (P61 as u128 - 1) * (P61 as u128 - 1),
            1u128 << 122,
        ] {
            assert_eq!(Fp61::reduce128(x).value(), naive(x), "x = {x}");
        }
    }

    #[test]
    fn mul_max_operands() {
        let m = Fp61::new(P61 - 1); // == -1
        assert_eq!(m * m, Fp61::ONE);
        assert_eq!(m * Fp61::ZERO, Fp61::ZERO);
    }

    #[test]
    fn dot_delayed_reduction_extremes() {
        // 1000 products of (p−1)² cross many deferred-reduction batches
        // with the largest possible pending terms; each is (−1)² = 1.
        let m = Fp61::new(P61 - 1);
        let a = vec![m; 1000];
        assert_eq!(Fp61::dot(&a, &a), Fp61::from_u64(1000));
        // Odd leftover terms below one batch reduce correctly too.
        assert_eq!(Fp61::dot(&a[..7], &a[..7]), Fp61::from_u64(7));
        assert_eq!(Fp61::dot(&[], &[]), Fp61::ZERO);
    }

    #[test]
    fn dot_i64_matches_the_generic_accumulator() {
        // Across batch boundaries, with the largest weights and the extreme
        // integers, and over the shorter of two unequal slices.
        let mut rng = StdRng::seed_from_u64(9);
        let mut w: Vec<Fp61> = (0..100).map(|_| Fp61::random(&mut rng)).collect();
        let mut x: Vec<i64> = (0..100).map(|_| rng.next_u64() as i64).collect();
        w[..40].fill(Fp61::new(P61 - 1));
        x[..20].fill(i64::MIN);
        x[20..40].fill(i64::MAX);
        x[50] = 0;
        for len in [0usize, 1, 31, 32, 33, 64, 65, 100] {
            let mut acc = Fp61DotAcc::default();
            for (&w, &x) in w.iter().zip(&x[..len]) {
                Fp61::acc_add_prod(&mut acc, w, Fp61::from_i64(x));
            }
            let expect = Fp61::acc_finish(acc);
            assert_eq!(Fp61::dot_i64(&w, &x[..len]), expect, "len={len}");
            assert_eq!(Fp61::dot_i64(&w[..len], &x), expect, "len={len}");
        }
    }

    #[test]
    fn dot_i64_takes_small_integers_unreduced_and_only_those() {
        // Every length across a batch boundary, on both sides of the test
        // that lets a batch skip `from_i64`: all in [0, 2^61) (the largest
        // included, which is ≡ 0 unreduced), and one integer outside it —
        // negative, at 2^61, at either extreme — at every position. The
        // gathered form reads the same weights through a permutation.
        let mut rng = StdRng::seed_from_u64(10);
        let mut w: Vec<Fp61> = (0..40).map(|_| Fp61::random(&mut rng)).collect();
        w[..8].fill(Fp61::new(P61 - 1));
        let mut small: Vec<i64> = (0..40).map(|_| (rng.next_u64() >> 3) as i64).collect();
        small[3] = (1 << 61) - 1;
        small[5] = 0;
        let at: Vec<u16> = (0..40).map(|t| (t * 7 % 40) as u16).collect();
        let generic = |w: &mut dyn Iterator<Item = Fp61>, x: &[i64]| {
            let mut acc = Fp61DotAcc::default();
            for (w, &x) in w.zip(x) {
                Fp61::acc_add_prod(&mut acc, w, Fp61::from_i64(x));
            }
            Fp61::acc_finish(acc)
        };
        for len in 0..=40usize {
            let mut batches = vec![small[..len].to_vec()];
            for outside in [-1, 1 << 61, i64::MIN, i64::MAX] {
                for pos in 0..len {
                    let mut x = small[..len].to_vec();
                    x[pos] = outside;
                    batches.push(x);
                }
            }
            for x in batches {
                let expect = generic(&mut w.iter().copied(), &x);
                assert_eq!(Fp61::dot_i64(&w, &x), expect, "len={len} {x:?}");
                let gathered = generic(&mut at.iter().map(|&s| w[s as usize]), &x);
                assert_eq!(Fp61::dot_i64_at(&w, &at, &x), gathered, "len={len} {x:?}");
                assert_eq!(Fp61::dot_i64_at(&w, &at[..len], &small), {
                    generic(&mut at.iter().map(|&s| w[s as usize]), &small[..len])
                });
            }
        }
    }

    #[test]
    fn dot_gather_matches_the_generic_accumulator() {
        // Across batch boundaries, with the largest table entries and
        // deltas, repeated offsets, and over the shorter of two unequal
        // slices.
        let mut rng = StdRng::seed_from_u64(11);
        let mut table: Vec<Fp61> = (0..50).map(|_| Fp61::random(&mut rng)).collect();
        table[..10].fill(Fp61::new(P61 - 1));
        let mut x: Vec<Fp61> = (0..100).map(|_| Fp61::random(&mut rng)).collect();
        x[..70].fill(Fp61::from_i64(i64::MIN));
        let at: Vec<u32> = (0..100u32)
            .map(|t| if t < 70 { t % 10 } else { t % 50 })
            .collect();
        for len in [0usize, 1, 31, 32, 33, 64, 65, 100] {
            let mut acc = Fp61DotAcc::default();
            for (&x, &s) in x.iter().zip(&at[..len]) {
                Fp61::acc_add_prod(&mut acc, x, table[s as usize]);
            }
            let expect = Fp61::acc_finish(acc);
            assert_eq!(
                Fp61::dot_gather(&x, &table, &at[..len]),
                expect,
                "len={len}"
            );
            assert_eq!(
                Fp61::dot_gather(&x[..len], &table, &at),
                expect,
                "len={len}"
            );
        }
    }

    /// `Σ lo², Σ hi², Σ lo·hi` over `table`'s pairs, one counted
    /// accumulator each.
    fn generic_moments<F: PrimeField>(table: &[F]) -> (F, F, F) {
        let mut acc = [F::DotAcc::default(); 3];
        for pair in table.chunks_exact(2) {
            let (lo, hi) = (pair[0], pair[1]);
            F::acc_add_prod(&mut acc[0], lo, lo);
            F::acc_add_prod(&mut acc[1], hi, hi);
            F::acc_add_prod(&mut acc[2], lo, hi);
        }
        let [a, b, c] = acc.map(F::acc_finish);
        (a, b, c)
    }

    /// [`PrimeField::pair_moments`] against the counted accumulators and
    /// against sums of plain products: one table of random residues whose
    /// first 40 entries are `p − 1`, and one of `p − 1` alone, where every
    /// product is 1, cut to lengths below, at, past and across two 32-pair
    /// batches.
    fn assert_pair_moments<F: PrimeField>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let top = -F::ONE;
        let mut mixed: Vec<F> = (0..130).map(|_| F::random(&mut rng)).collect();
        mixed[..40].fill(top);
        let all_top = [top; 130];
        for len in [0usize, 2, 62, 64, 66, 130] {
            for table in [&mixed[..len], &all_top[..len]] {
                let expect = generic_moments(table);
                assert_eq!(F::pair_moments(table), expect, "len={len}");
                let pairs = table.chunks_exact(2);
                let plain = pairs.fold((F::ZERO, F::ZERO, F::ZERO), |(a, b, c), p| {
                    (a + p[0] * p[0], b + p[1] * p[1], c + p[0] * p[1])
                });
                assert_eq!(expect, plain, "len={len}");
            }
            let n = F::from_u64(len as u64 / 2);
            assert_eq!(F::pair_moments(&all_top[..len]), (n, n, n), "len={len}");
        }
    }

    #[test]
    fn pair_moments_match_the_generic_accumulator() {
        // Fp61's batched override, and Fp127's default.
        assert_pair_moments::<Fp61>(12);
        assert_pair_moments::<crate::Fp127>(13);
    }

    #[test]
    #[should_panic(expected = "odd-length")]
    fn pair_moments_refuse_an_odd_length_table() {
        Fp61::pair_moments(&[Fp61::ONE; 3]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let a = Fp61::random(&mut rng);
            let b = Fp61::random(&mut rng);
            assert_eq!(a + b - b, a);
            assert_eq!(a - b + b, a);
            assert_eq!(-(-a), a);
            assert_eq!(a + (-a), Fp61::ZERO);
        }
    }

    #[test]
    fn inverse_random() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let a = Fp61::random_nonzero(&mut rng);
            assert_eq!(a * a.inverse().unwrap(), Fp61::ONE);
        }
        assert_eq!(Fp61::ZERO.inverse(), None);
    }

    #[test]
    fn distributivity_spot() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let a = Fp61::random(&mut rng);
            let b = Fp61::random(&mut rng);
            let c = Fp61::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!((a + b) * c, a * c + b * c);
        }
    }

    #[test]
    fn random_is_canonical() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..10_000 {
            assert!(Fp61::random(&mut rng).value() < P61);
        }
    }

    #[test]
    fn display_and_from() {
        let x: Fp61 = 42u64.into();
        assert_eq!(format!("{x}"), "42");
        assert_eq!(format!("{x:?}"), "Fp61(42)");
    }
}

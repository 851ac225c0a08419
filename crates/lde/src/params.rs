//! The `(ℓ, d)` parameterisation of the universe `[u] ≅ [ℓ]^d`.

/// Parameters of a low-degree extension: base `ℓ ≥ 2` and dimension `d ≥ 1`
/// with `u = ℓ^d` (the paper assumes `u` is a power of `ℓ` "for ease of
/// presentation"; inputs over smaller universes are padded with zeros).
///
/// The paper's sweet spot is `ℓ = 2, d = log₂ u` (Section 3.1: "probably the
/// most economical tradeoff"); the one-round baseline of \[6\] corresponds to
/// `d = 2, ℓ = √u`; footnote 1 describes the general trade-off which the
/// `ell_tradeoff` bench explores.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct LdeParams {
    ell: u64,
    d: u32,
}

impl LdeParams {
    /// Creates parameters for universe `ℓ^d`.
    ///
    /// # Panics
    /// Panics if `ell < 2`, `d == 0`, or `ℓ^d` overflows `u64`.
    pub fn new(ell: u64, d: u32) -> Self {
        assert!(ell >= 2, "base must be at least 2");
        assert!(d >= 1, "dimension must be at least 1");
        Self::try_new(ell, d).expect("universe ℓ^d must fit in u64")
    }

    /// Fallible [`Self::new`] for untrusted inputs (checkpoint decoding):
    /// returns `None` instead of panicking when `ell < 2`, `d == 0`, or
    /// `ℓ^d` overflows `u64`.
    pub fn try_new(ell: u64, d: u32) -> Option<Self> {
        if ell < 2 || d == 0 {
            return None;
        }
        let mut u: u64 = 1;
        for _ in 0..d {
            u = u.checked_mul(ell)?;
        }
        Some(LdeParams { ell, d })
    }

    /// The paper's default: `ℓ = 2`, `d = log₂ u` for `u = 2^log_u`.
    pub fn binary(log_u: u32) -> Self {
        Self::new(2, log_u)
    }

    /// The one-round baseline shape of \[6\]: `d = 2`, `ℓ = 2^⌈log_u/2⌉`
    /// (so the universe is at least `2^log_u`).
    pub fn one_round(log_u: u32) -> Self {
        Self::new(1u64 << log_u.div_ceil(2), 2)
    }

    /// Smallest binary parameterisation covering universe size `u`
    /// (`d = ⌈log₂ u⌉`, minimum 1).
    pub fn binary_for_universe(u: u64) -> Self {
        assert!(u >= 1);
        let d = if u <= 2 {
            1
        } else {
            64 - (u - 1).leading_zeros()
        };
        Self::binary(d)
    }

    /// The base `ℓ`.
    pub fn base(&self) -> u64 {
        self.ell
    }

    /// The dimension `d` (number of variables of the LDE).
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// The universe size `u = ℓ^d`.
    pub fn universe(&self) -> u64 {
        self.ell.pow(self.d)
    }

    /// The base-`ℓ` digits of `i`, least significant first, exactly `d`
    /// digits.
    pub fn digits_of(&self, i: u64) -> impl Iterator<Item = u64> + '_ {
        debug_assert!(i < self.universe());
        let ell = self.ell;
        let mut rem = i;
        (0..self.d).map(move |_| {
            let digit = rem % ell;
            rem /= ell;
            digit
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_and_digits() {
        let p = LdeParams::new(3, 4);
        assert_eq!(p.universe(), 81);
        let digits: Vec<u64> = p.digits_of(47).collect(); // 47 = 2 + 3·(0 + 3·(2 + 3·1))
        assert_eq!(digits, vec![2, 0, 2, 1]);
    }

    #[test]
    fn binary_roundtrip() {
        let p = LdeParams::binary(10);
        assert_eq!(p.universe(), 1024);
        for i in [0u64, 1, 511, 1023] {
            let digits: Vec<u64> = p.digits_of(i).collect();
            // Digits are the bits, LSB first.
            for (j, &b) in digits.iter().enumerate() {
                assert_eq!(b, (i >> j) & 1);
            }
        }
    }

    #[test]
    fn one_round_shape() {
        let p = LdeParams::one_round(20);
        assert_eq!(p.dimension(), 2);
        assert_eq!(p.base(), 1 << 10);
        assert_eq!(p.universe(), 1 << 20);
        // Odd log_u rounds the base up.
        let p = LdeParams::one_round(21);
        assert_eq!(p.base(), 1 << 11);
        assert!(p.universe() >= 1 << 21);
    }

    #[test]
    fn binary_for_universe_covers() {
        assert_eq!(LdeParams::binary_for_universe(1).universe(), 2);
        assert_eq!(LdeParams::binary_for_universe(2).universe(), 2);
        assert_eq!(LdeParams::binary_for_universe(3).universe(), 4);
        assert_eq!(LdeParams::binary_for_universe(1024).universe(), 1024);
        assert_eq!(LdeParams::binary_for_universe(1025).universe(), 2048);
    }

    #[test]
    #[should_panic(expected = "fit in u64")]
    fn overflow_panics() {
        LdeParams::new(2, 64);
    }
}

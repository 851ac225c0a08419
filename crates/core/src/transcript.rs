//! Domain-separated transcript hashing for one-shot proofs.
//!
//! The post-stream sum-check is public-coin once the verifier's secret
//! evaluation point is fixed, so a one-shot run replaces the interactive
//! challenge exchange with a *transcript*: both sides absorb the same
//! canonical byte sequence (protocol id, field id, parameters, the revealed
//! challenge prefix, the claimed output, every round polynomial) into a
//! sponge and the verifier checks the prover's echoed digest byte-for-byte
//! before running any algebra. Random-linear-combination weights for the
//! deferred round checks are squeezed from the same sponge *after* the
//! digest, so they depend on the entire proof.
//!
//! ## The permutation
//!
//! The sponge runs a vendored, zero-dependency 384-bit Gimli-style
//! permutation (12×u32 state, 24 rounds, SP-box + swap + round constant)
//! with a 16-byte rate. This is a wire-compatibility surface, not a
//! tunable: the exact byte behaviour is pinned by golden vectors in
//! `tests/fixtures/` and any change is a protocol version bump.
//!
//! ## Domain separation
//!
//! Every absorbed item is framed as `len(label) ‖ label ‖ len(data) ‖ data`
//! (little-endian `u64` lengths), so distinct label sequences can never
//! collide by re-chunking, and the whole transcript is opened with a
//! domain string naming the protocol generation (`"sip-oneshot-v1"`).
//! [`query_transcript`] is the *single* canonical context builder — every
//! caller (in-process kv-store, remote session, cluster shard) seeds its
//! transcript through it, so a digest computed server-side always matches
//! the client-side replay.

use sip_field::PrimeField;

/// Sponge rate in bytes (the remaining 32 bytes of state are capacity).
const RATE: usize = 16;

/// The 384-bit Gimli-style permutation: 24 rounds of SP-box over four
/// 96-bit columns, with the standard small/big swaps and round constant.
fn permute(state: &mut [u32; 12]) {
    for round in (1..=24u32).rev() {
        for col in 0..4 {
            let x = state[col].rotate_left(24);
            let y = state[4 + col].rotate_left(9);
            let z = state[8 + col];
            state[8 + col] = x ^ (z << 1) ^ ((y & z) << 2);
            state[4 + col] = y ^ x ^ ((x | z) << 1);
            state[col] = z ^ y ^ ((x & y) << 3);
        }
        if round % 4 == 0 {
            state.swap(0, 1);
            state.swap(2, 3);
            state[0] ^= 0x9e37_7900 | round;
        } else if round % 4 == 2 {
            state.swap(0, 2);
            state.swap(1, 3);
        }
    }
}

/// A domain-separated absorb/squeeze transcript over the vendored sponge.
///
/// Usage is two-phase: absorb everything (labelled, length-prefixed), then
/// squeeze — first the 32-byte [`Self::digest`], then any number of
/// [`Self::challenge`] field elements. Absorbing after squeezing has begun
/// is a logic error and panics.
#[derive(Clone, Debug)]
pub struct Transcript {
    state: [u32; 12],
    /// Byte position within the current rate block.
    pos: usize,
    /// Set once squeezing starts; absorb is forbidden afterwards.
    squeezing: bool,
}

impl Transcript {
    /// Opens a transcript under a domain string naming the protocol
    /// generation (everything absorbed is separated from every other
    /// domain's transcripts).
    pub fn new(domain: &str) -> Self {
        let mut t = Transcript {
            state: [0u32; 12],
            pos: 0,
            squeezing: false,
        };
        t.absorb("domain", domain.as_bytes());
        t
    }

    fn absorb_byte(&mut self, b: u8) {
        self.state[self.pos / 4] ^= u32::from(b) << (8 * (self.pos % 4));
        self.pos += 1;
        if self.pos == RATE {
            permute(&mut self.state);
            self.pos = 0;
        }
    }

    /// XORs `bytes` into the rate, permuting at every rate boundary: a
    /// little-endian word at a time wherever the position is word-aligned
    /// (a word of the state *is* its four bytes, low byte first), single
    /// bytes only for the ragged ends.
    fn absorb_raw(&mut self, bytes: &[u8]) {
        assert!(!self.squeezing, "absorb after squeeze on a transcript");
        let ragged = bytes.len().min((4 - self.pos % 4) % 4);
        let (head, rest) = bytes.split_at(ragged);
        for &b in head {
            self.absorb_byte(b);
        }
        let mut words = rest.chunks_exact(4);
        for word in &mut words {
            let word = word.try_into().expect("chunks_exact(4) yields four bytes");
            self.state[self.pos / 4] ^= u32::from_le_bytes(word);
            self.pos += 4;
            if self.pos == RATE {
                permute(&mut self.state);
                self.pos = 0;
            }
        }
        for &b in words.remainder() {
            self.absorb_byte(b);
        }
    }

    /// Absorbs one labelled item: `len(label) ‖ label ‖ len(data) ‖ data`,
    /// lengths as little-endian `u64` — re-chunking cannot collide.
    pub fn absorb(&mut self, label: &str, data: &[u8]) {
        self.absorb_raw(&(label.len() as u64).to_le_bytes());
        self.absorb_raw(label.as_bytes());
        self.absorb_raw(&(data.len() as u64).to_le_bytes());
        self.absorb_raw(data);
    }

    /// Absorbs a labelled `u64`.
    pub fn absorb_u64(&mut self, label: &str, x: u64) {
        self.absorb(label, &x.to_le_bytes());
    }

    /// Absorbs a labelled field element as its canonical 16-byte
    /// little-endian residue (field-width independent, so one transcript
    /// definition covers `Fp61` and `Fp127`).
    pub fn absorb_field<F: PrimeField>(&mut self, label: &str, x: F) {
        self.absorb(label, &x.to_u128().to_le_bytes());
    }

    /// Absorbs a labelled sequence of field elements (the count is part of
    /// the framing, so `[a, b] ‖ [c]` cannot collide with `[a] ‖ [b, c]`).
    pub fn absorb_fields<F: PrimeField>(&mut self, label: &str, xs: &[F]) {
        self.absorb_u64(label, xs.len() as u64);
        for &x in xs {
            self.absorb_field(label, x);
        }
    }

    fn start_squeeze(&mut self) {
        if !self.squeezing {
            // Pad-then-permute: domain-close the absorb phase.
            self.state[self.pos / 4] ^= 0x1Fu32 << (8 * (self.pos % 4));
            self.state[(RATE - 1) / 4] ^= 0x80u32 << (8 * ((RATE - 1) % 4));
            permute(&mut self.state);
            self.pos = 0;
            self.squeezing = true;
        }
    }

    fn squeeze_byte(&mut self) -> u8 {
        if self.pos == RATE {
            permute(&mut self.state);
            self.pos = 0;
        }
        let b = (self.state[self.pos / 4] >> (8 * (self.pos % 4))) as u8;
        self.pos += 1;
        b
    }

    fn squeeze(&mut self, out: &mut [u8]) {
        self.start_squeeze();
        for b in out {
            *b = self.squeeze_byte();
        }
    }

    /// Squeezes the 32-byte transcript digest. Further squeezes (challenge
    /// weights) continue the same output stream, so they commit to
    /// everything absorbed.
    pub fn digest(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.squeeze(&mut out);
        out
    }

    /// Squeezes a canonical field challenge: 16 output bytes reduced
    /// `mod p`. The reduction bias is ≤ `p/2^128` (< 2⁻⁶⁷ for `Fp61`),
    /// far below the sum-check's own soundness error.
    pub fn challenge<F: PrimeField>(&mut self) -> F {
        let mut out = [0u8; 16];
        self.squeeze(&mut out);
        let x = u128::from_le_bytes(out) % F::MODULUS;
        F::from_u128(x)
    }
}

/// Words a 32-byte transcript digest occupies under `F`'s word size (cost
/// accounting for [`crate::CostReport`]).
pub fn digest_words<F: PrimeField>() -> usize {
    32usize.div_ceil((F::BITS as usize).div_ceil(8))
}

/// The **single canonical** transcript context for a one-shot sum-check
/// query — every prover and verifier, local or remote, seeds through this
/// function so their digests can only agree when they agree on all of:
///
/// * `protocol` — the stable query name (`"self-join"`, `"range-sum"`, …),
/// * the field (its id byte *and* modulus),
/// * `log_u` — the universe exponent (= round count `d`),
/// * `shard` — `(index, count)` for a fleet member, `None` standalone,
/// * `params` — query parameters in a protocol-fixed order (e.g. `[l, r]`
///   for range queries, `[k]` for moments, empty for self-join),
/// * `challenges` — the revealed challenge prefix `r_1, …, r_{d−1}` (the
///   last coordinate `r_d` stays the verifier's secret).
///
/// The caller then absorbs the proof body (claimed value, round
/// polynomials) before squeezing the digest.
pub fn query_transcript<F: PrimeField>(
    protocol: &str,
    log_u: u32,
    shard: Option<(u32, u32)>,
    params: &[u64],
    challenges: &[F],
) -> Transcript {
    let mut t = Transcript::new("sip-oneshot-v1");
    t.absorb("protocol", protocol.as_bytes());
    t.absorb("field-id", &[field_id_byte::<F>()]);
    t.absorb("modulus", &F::MODULUS.to_le_bytes());
    t.absorb_u64("log-u", u64::from(log_u));
    // `count = 0` is unambiguous for "unsharded": a real fleet has ≥ 1.
    let (index, count) = shard.unwrap_or((0, 0));
    t.absorb_u64("shard-index", u64::from(index));
    t.absorb_u64("shard-count", u64::from(count));
    t.absorb_u64("params", params.len() as u64);
    for &p in params {
        t.absorb_u64("param", p);
    }
    t.absorb_fields("challenge-prefix", challenges);
    t
}

/// The field's wire id byte (mirrors `sip-wire`'s `FieldId::to_byte`,
/// which is defined by the modulus width; duplicated here because the
/// transcript must not depend on the wire crate).
fn field_id_byte<F: PrimeField>() -> u8 {
    if F::BITS <= 61 {
        61
    } else {
        127
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_field::{Fp127, Fp61};

    #[test]
    fn determinism_and_stream_continuity() {
        let mk = || {
            let mut t = Transcript::new("test");
            t.absorb("a", b"hello");
            t.absorb_u64("n", 42);
            t
        };
        let (mut t1, mut t2) = (mk(), mk());
        assert_eq!(t1.digest(), t2.digest());
        // Challenges continue the same deterministic stream.
        assert_eq!(t1.challenge::<Fp61>(), t2.challenge::<Fp61>());
        assert_eq!(t1.challenge::<Fp61>(), t2.challenge::<Fp61>());
    }

    #[test]
    fn word_wise_absorb_equals_the_byte_at_a_time_sponge() {
        // From every position in the rate block, for every length that ends
        // before, on and past word and rate boundaries: the state, the
        // position and everything squeezed afterwards equal those of the
        // one-byte-at-a-time sponge the golden vectors were pinned under.
        let bytes: Vec<u8> = (0..56u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for start in 0..RATE {
            for len in 0..40 {
                let (prefix, data) = (&bytes[..start], &bytes[start..start + len]);
                let mut by_byte = Transcript::new("absorb");
                for &b in prefix.iter().chain(data) {
                    by_byte.absorb_byte(b);
                }
                let mut by_word = Transcript::new("absorb");
                for &b in prefix {
                    by_word.absorb_byte(b);
                }
                by_word.absorb_raw(data);
                let what = format!("start={start} len={len}");
                assert_eq!(by_word.state, by_byte.state, "{what}");
                assert_eq!(by_word.pos, by_byte.pos, "{what}");
                assert_eq!(by_word.digest(), by_byte.digest(), "{what}");
            }
        }
    }

    #[test]
    fn labels_and_framing_separate_domains() {
        let digest = |domain: &str, label: &str, data: &[u8]| {
            let mut t = Transcript::new(domain);
            t.absorb(label, data);
            t.digest()
        };
        let base = digest("d", "l", b"ab");
        assert_ne!(base, digest("e", "l", b"ab"), "domain must matter");
        assert_ne!(base, digest("d", "m", b"ab"), "label must matter");
        assert_ne!(base, digest("d", "l", b"ac"), "data must matter");
        // Re-chunking across items cannot collide.
        let mut t1 = Transcript::new("d");
        t1.absorb("l", b"a");
        t1.absorb("l", b"b");
        let mut t2 = Transcript::new("d");
        t2.absorb("l", b"ab");
        assert_ne!(t1.digest(), t2.digest());
    }

    #[test]
    fn challenges_are_canonical_and_spread() {
        let mut t = Transcript::new("spread");
        t.absorb("seed", b"x");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let c: Fp61 = t.challenge();
            assert!(c.to_u128() < Fp61::MODULUS);
            seen.insert(c.to_u128());
        }
        assert_eq!(seen.len(), 64, "64 squeezes should not collide");
        let mut t = Transcript::new("spread");
        t.absorb("seed", b"x");
        let c: Fp127 = t.challenge();
        assert!(c.to_u128() < Fp127::MODULUS);
    }

    #[test]
    fn query_transcript_binds_every_context_field() {
        fn d(
            proto: &str,
            log_u: u32,
            shard: Option<(u32, u32)>,
            params: &[u64],
            ch: &[Fp61],
        ) -> [u8; 32] {
            query_transcript::<Fp61>(proto, log_u, shard, params, ch).digest()
        }
        let ch = [Fp61::from_u64(7), Fp61::from_u64(8)];
        let base = d("range-sum", 3, None, &[1, 9], &ch);
        assert_ne!(base, d("range-count", 3, None, &[1, 9], &ch));
        assert_ne!(base, d("range-sum", 4, None, &[1, 9], &ch));
        assert_ne!(base, d("range-sum", 3, Some((0, 2)), &[1, 9], &ch));
        assert_ne!(base, d("range-sum", 3, Some((1, 2)), &[1, 9], &ch));
        assert_ne!(base, d("range-sum", 3, None, &[1, 8], &ch));
        assert_ne!(base, d("range-sum", 3, None, &[1], &ch));
        assert_ne!(base, d("range-sum", 3, None, &[1, 9], &ch[..1]));
        // The same context over a different field separates too.
        let ch127 = [Fp127::from_u64(7), Fp127::from_u64(8)];
        let other = query_transcript::<Fp127>("range-sum", 3, None, &[1, 9], &ch127).digest();
        assert_ne!(base, other);
    }

    #[test]
    #[should_panic(expected = "absorb after squeeze")]
    fn absorb_after_squeeze_panics() {
        let mut t = Transcript::new("late");
        let _ = t.digest();
        t.absorb("too", b"late");
    }

    #[test]
    fn digest_words_by_field() {
        assert_eq!(digest_words::<Fp61>(), 4); // 32 bytes / 8-byte words
        assert_eq!(digest_words::<Fp127>(), 2); // 32 bytes / 16-byte words
    }
}

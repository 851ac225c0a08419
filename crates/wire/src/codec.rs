//! The primitive codec: little-endian integers, canonical field elements,
//! sequences, strings — and [`WireCodec`] impls for the shared protocol
//! data types ([`Update`], [`CostReport`], [`Rejection`], the sub-vector and
//! heavy-hitter message bodies).

use sip_core::error::{IoFault, Rejection};
use sip_core::heavy_hitters::{DisclosedNode, LevelDisclosure};
use sip_core::subvector::{RoundReply, RoundRequest, SubVectorAnswer};
use sip_core::CostReport;
use sip_field::PrimeField;
use sip_streaming::Update;

use crate::error::WireError;

/// Number of bytes one element of `F` occupies on the wire.
pub fn field_width<F: PrimeField>() -> usize {
    (F::BITS as usize).div_ceil(8)
}

/// A cursor over a received frame.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless the frame was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// `u16` little-endian.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `i64` little-endian two's complement.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `u128` little-endian.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// A canonical field element; rejects residues `≥ p`.
    pub fn field<F: PrimeField>(&mut self) -> Result<F, WireError> {
        let bytes = self.take(field_width::<F>())?;
        let mut wide = [0u8; 16];
        wide[..bytes.len()].copy_from_slice(bytes);
        let x = u128::from_le_bytes(wide);
        if x >= F::MODULUS {
            return Err(WireError::NonCanonicalField);
        }
        Ok(F::from_u128(x))
    }

    /// Exactly `n` raw bytes (fixed-width payloads such as digests).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// A `u32` count, validated against the bytes actually present so a
    /// forged count cannot trigger a huge allocation.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let need = n.saturating_mul(min_item_bytes.max(1));
        if need > self.remaining() {
            return Err(WireError::CountTooLarge {
                count: n,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    /// A bool encoded as `0`/`1` (other bytes rejected).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }

    /// `Option<T>` via a presence byte.
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.bool()? {
            Ok(Some(read(self)?))
        } else {
            Ok(None)
        }
    }

    /// A counted sequence of fixed-width items. [`Self::count`] has proved
    /// all `n·N` bytes present, so they are taken as one slice and the items
    /// decode without a bounds check or an error path each — same bytes,
    /// same errors and same allocation bound as [`Self::seq`].
    pub fn seq_fixed<const N: usize, T>(
        &mut self,
        mut read: impl FnMut(&[u8; N]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(N)?;
        let bytes = self.take(n * N)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|item| read(item.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    /// A counted sequence.
    pub fn seq<T>(
        &mut self,
        min_item_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_item_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }
}

/// The frame builder (thin wrapper over `Vec<u8>` with symmetric methods).
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty frame.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The finished frame.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn u8(&mut self, x: u8) -> &mut Self {
        self.buf.push(x);
        self
    }

    /// `u16` little-endian.
    pub fn u16(&mut self, x: u16) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// `u32` little-endian.
    pub fn u32(&mut self, x: u32) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// `u64` little-endian.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// `i64` little-endian two's complement.
    pub fn i64(&mut self, x: i64) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// `u128` little-endian.
    pub fn u128(&mut self, x: u128) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// A canonical field element in `⌈BITS/8⌉` bytes.
    pub fn field<F: PrimeField>(&mut self, x: F) -> &mut Self {
        let bytes = x.to_u128().to_le_bytes();
        self.buf.extend_from_slice(&bytes[..field_width::<F>()]);
        self
    }

    /// Raw bytes, no length prefix (fixed-width payloads such as digests).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// A sequence count.
    pub fn count(&mut self, n: usize) -> &mut Self {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// A bool as `0`/`1`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.u8(b as u8)
    }

    /// `Option<T>` via a presence byte.
    pub fn option<T: Copy>(&mut self, x: Option<T>, write: impl FnOnce(&mut Self, T)) -> &mut Self {
        match x {
            Some(v) => {
                self.bool(true);
                write(self, v);
            }
            None => {
                self.bool(false);
            }
        }
        self
    }
}

/// Types with a self-contained wire encoding.
///
/// Field-element-bearing types are generic over `F`, so the same structure
/// serialises as 8-byte words over `Fp61` and 16-byte words over `Fp127`.
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` as a standalone byte string.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a standalone byte string, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// An [`Update`] from its 16 wire bytes: index, then delta, little-endian.
pub(crate) fn update_from_wire(bytes: &[u8; 16]) -> Update {
    let (index, delta) = bytes.split_at(8);
    Update {
        index: u64::from_le_bytes(index.try_into().expect("8 of 16 bytes")),
        delta: i64::from_le_bytes(delta.try_into().expect("8 of 16 bytes")),
    }
}

impl WireCodec for Update {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.index).i64(self.delta);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take(16)?.try_into().expect("take(16) yields 16 bytes");
        Ok(update_from_wire(bytes))
    }
}

impl WireCodec for CostReport {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.rounds as u64)
            .u64(self.p_to_v_words as u64)
            .u64(self.v_to_p_words as u64)
            .u64(self.verifier_space_words as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CostReport {
            rounds: r.u64()? as usize,
            p_to_v_words: r.u64()? as usize,
            v_to_p_words: r.u64()? as usize,
            verifier_space_words: r.u64()? as usize,
        })
    }
}

/// Known sub-protocol names, so [`Rejection::SubProtocol`] (which carries a
/// `&'static str`) survives a decode round-trip without leaking
/// attacker-controlled strings.
const KNOWN_SUBPROTOCOLS: &[&str] = &[
    "heavy-hitters",
    "range-count",
    "range-sum",
    "sub-vector",
    "self-join",
    "f2",
    "index",
    "remote",
];

fn intern_subprotocol(name: &str) -> &'static str {
    KNOWN_SUBPROTOCOLS
        .iter()
        .find(|&&k| k == name)
        .copied()
        .unwrap_or("unknown-subprotocol")
}

/// Maximum nesting of [`Rejection::SubProtocol`] a decoder accepts. Honest
/// rejections nest once or twice; without a bound, a hostile peer could
/// stack-overflow the decoder (an abort, not a catchable panic) with a few
/// hundred kilobytes of nested tag-7 frames.
const MAX_REJECTION_DEPTH: usize = 8;

fn decode_rejection(r: &mut Reader<'_>, depth: usize) -> Result<Rejection, WireError> {
    Ok(match r.u8()? {
        0 => Rejection::WrongMessageLength {
            round: r.u64()? as usize,
            expected: r.u64()? as usize,
            got: r.u64()? as usize,
        },
        1 => Rejection::RoundSumMismatch {
            round: r.u64()? as usize,
        },
        2 => Rejection::FinalCheckFailed,
        3 => Rejection::RootMismatch,
        4 => Rejection::MalformedAnswer {
            detail: r.string()?,
        },
        5 => Rejection::AnswerTooLarge {
            limit: r.u64()? as usize,
            got: r.u64()? as usize,
        },
        6 => Rejection::StructuralCheckFailed {
            detail: r.string()?,
        },
        7 => {
            if depth == 0 {
                return Err(WireError::BadTag {
                    context: "rejection (sub-protocol nesting too deep)",
                    tag: 7,
                });
            }
            let name = intern_subprotocol(&r.string()?);
            let cause = decode_rejection(r, depth - 1)?;
            Rejection::SubProtocol {
                name,
                cause: Box::new(cause),
            }
        }
        8 => {
            if depth == 0 {
                return Err(WireError::BadTag {
                    context: "rejection (blame nesting too deep)",
                    tag: 8,
                });
            }
            Rejection::Blame {
                shard_id: r.u32()?,
                cause: Box::new(decode_rejection(r, depth - 1)?),
            }
        }
        9 => Rejection::TranscriptMismatch,
        10 => Rejection::Io {
            fault: match r.u8()? {
                0 => IoFault::Refused,
                1 => IoFault::TimedOut,
                2 => IoFault::Closed,
                3 => IoFault::Other,
                tag => {
                    return Err(WireError::BadTag {
                        context: "io fault",
                        tag,
                    })
                }
            },
            detail: r.string()?,
        },
        11 => {
            if depth == 0 {
                return Err(WireError::BadTag {
                    context: "rejection (divergence nesting too deep)",
                    tag: 11,
                });
            }
            let shard = r.u32()?;
            let n = r.count(4)?;
            let replicas = (0..n).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
            Rejection::ReplicaDivergence {
                shard,
                replicas,
                cause: Box::new(decode_rejection(r, depth - 1)?),
            }
        }
        12 => Rejection::InvalidConfig {
            detail: r.string()?,
        },
        tag => {
            return Err(WireError::BadTag {
                context: "rejection",
                tag,
            })
        }
    })
}

impl WireCodec for Rejection {
    fn encode(&self, w: &mut Writer) {
        match self {
            Rejection::WrongMessageLength {
                round,
                expected,
                got,
            } => {
                w.u8(0)
                    .u64(*round as u64)
                    .u64(*expected as u64)
                    .u64(*got as u64);
            }
            Rejection::RoundSumMismatch { round } => {
                w.u8(1).u64(*round as u64);
            }
            Rejection::FinalCheckFailed => {
                w.u8(2);
            }
            Rejection::RootMismatch => {
                w.u8(3);
            }
            Rejection::MalformedAnswer { detail } => {
                w.u8(4).string(detail);
            }
            Rejection::AnswerTooLarge { limit, got } => {
                w.u8(5).u64(*limit as u64).u64(*got as u64);
            }
            Rejection::StructuralCheckFailed { detail } => {
                w.u8(6).string(detail);
            }
            Rejection::SubProtocol { name, cause } => {
                w.u8(7).string(name);
                cause.encode(w);
            }
            Rejection::Blame { shard_id, cause } => {
                w.u8(8).u32(*shard_id);
                cause.encode(w);
            }
            Rejection::TranscriptMismatch => {
                w.u8(9);
            }
            Rejection::Io { fault, detail } => {
                let tag = match fault {
                    IoFault::Refused => 0u8,
                    IoFault::TimedOut => 1,
                    IoFault::Closed => 2,
                    IoFault::Other => 3,
                };
                w.u8(10).u8(tag).string(detail);
            }
            Rejection::ReplicaDivergence {
                shard,
                replicas,
                cause,
            } => {
                w.u8(11).u32(*shard).count(replicas.len());
                for rep in replicas {
                    w.u32(*rep);
                }
                cause.encode(w);
            }
            Rejection::InvalidConfig { detail } => {
                w.u8(12).string(detail);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_rejection(r, MAX_REJECTION_DEPTH)
    }
}

impl<F: PrimeField> WireCodec for SubVectorAnswer<F> {
    fn encode(&self, w: &mut Writer) {
        w.count(self.entries.len());
        for &(i, v) in &self.entries {
            w.u64(i).field(v);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let entries = r.seq(8 + field_width::<F>(), |r| Ok((r.u64()?, r.field::<F>()?)))?;
        Ok(SubVectorAnswer { entries })
    }
}

impl<F: PrimeField> WireCodec for RoundRequest<F> {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.level).field(self.challenge);
        w.option(self.left, |w, v| {
            w.u64(v);
        });
        w.option(self.right, |w, v| {
            w.u64(v);
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoundRequest {
            level: r.u32()?,
            challenge: r.field()?,
            left: r.option(|r| r.u64())?,
            right: r.option(|r| r.u64())?,
        })
    }
}

impl<F: PrimeField> WireCodec for RoundReply<F> {
    fn encode(&self, w: &mut Writer) {
        w.option(self.left, |w, v| {
            w.field(v);
        });
        w.option(self.right, |w, v| {
            w.field(v);
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoundReply {
            left: r.option(|r| r.field())?,
            right: r.option(|r| r.field())?,
        })
    }
}

impl<F: PrimeField> WireCodec for DisclosedNode<F> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.index).u64(self.count);
        w.option(self.hash, |w, v| {
            w.field(v);
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DisclosedNode {
            index: r.u64()?,
            count: r.u64()?,
            hash: r.option(|r| r.field())?,
        })
    }
}

impl<F: PrimeField> WireCodec for LevelDisclosure<F> {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.level);
        w.count(self.nodes.len());
        for node in &self.nodes {
            node.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LevelDisclosure {
            level: r.u32()?,
            nodes: r.seq(8 + 8 + 1, DisclosedNode::decode)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_field::{Fp127, Fp61};

    #[test]
    fn integer_roundtrip_and_endianness() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(0x1234)
            .u32(0xDEAD_BEEF)
            .u64(42)
            .i64(-42)
            .u128(1 << 100);
        let bytes = w.into_bytes();
        assert_eq!(bytes[1..3], [0x34, 0x12], "little-endian");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        r.finish().unwrap();
    }

    #[test]
    fn field_widths() {
        assert_eq!(field_width::<Fp61>(), 8);
        assert_eq!(field_width::<Fp127>(), 16);
        let mut w = Writer::new();
        w.field(Fp61::from_u64(5)).field(Fp127::from_u64(6));
        assert_eq!(w.into_bytes().len(), 24);
    }

    #[test]
    fn non_canonical_field_rejected() {
        use sip_field::fp61::P61;
        for bad in [P61, P61 + 1, u64::MAX] {
            let bytes = bad.to_le_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(
                r.field::<Fp61>().unwrap_err(),
                WireError::NonCanonicalField,
                "{bad}"
            );
        }
        // Largest canonical residue decodes fine.
        let bytes = (P61 - 1).to_le_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.field::<Fp61>().unwrap(), -Fp61::ONE);
    }

    #[test]
    fn truncation_reported() {
        let mut w = Writer::new();
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(
            r.u64().unwrap_err(),
            WireError::Truncated { needed: 8, have: 5 }
        );
    }

    #[test]
    fn trailing_bytes_reported() {
        let bytes = [0u8; 3];
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            WireError::TrailingBytes { extra: 2 }
        );
    }

    #[test]
    fn forged_count_cannot_allocate() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // count says 4 billion entries …
        w.u64(1); // … frame holds one
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.seq(16, |r| r.u64()).unwrap_err();
        assert!(matches!(err, WireError::CountTooLarge { .. }), "{err:?}");
    }

    #[test]
    fn seq_fixed_agrees_with_seq_on_good_short_and_forged_frames() {
        let ups = [
            Update::new(0, 1),
            Update::new(u64::MAX, i64::MIN),
            Update::new(7, -1),
        ];
        let mut w = Writer::new();
        w.count(ups.len());
        for up in &ups {
            up.encode(&mut w);
        }
        let mut frame = w.into_bytes();
        frame.push(0xEE); // a trailing byte both must leave unread
        let decode = |bytes: &[u8]| {
            let (mut a, mut b) = (Reader::new(bytes), Reader::new(bytes));
            let fixed = a.seq_fixed(update_from_wire);
            let looped = b.seq(16, Update::decode);
            assert_eq!(fixed, looped);
            assert_eq!(a.remaining(), b.remaining());
            fixed
        };
        assert_eq!(decode(&frame).unwrap(), ups);
        // Every truncation, and a count forged past the frame's end.
        for cut in 0..frame.len() - 1 {
            assert!(decode(&frame[..cut]).is_err(), "cut={cut}");
        }
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&frame).unwrap_err(),
            WireError::CountTooLarge { .. }
        ));
    }

    #[test]
    fn bool_strictness() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            r.bool().unwrap_err(),
            WireError::BadTag {
                context: "bool",
                tag: 2
            }
        ));
    }

    #[test]
    fn rejection_roundtrip_including_nested() {
        let cases = vec![
            Rejection::WrongMessageLength {
                round: 3,
                expected: 3,
                got: 9,
            },
            Rejection::RoundSumMismatch { round: 1 },
            Rejection::FinalCheckFailed,
            Rejection::RootMismatch,
            Rejection::MalformedAnswer {
                detail: "entry 7 out of order".into(),
            },
            Rejection::AnswerTooLarge { limit: 10, got: 11 },
            Rejection::StructuralCheckFailed {
                detail: "count 5 != children 2 + 2".into(),
            },
            Rejection::in_subprotocol("heavy-hitters", Rejection::RootMismatch),
            Rejection::blame(2, Rejection::FinalCheckFailed),
            Rejection::blame(
                0,
                Rejection::in_subprotocol("range-sum", Rejection::RootMismatch),
            ),
            Rejection::TranscriptMismatch,
            Rejection::blame(1, Rejection::TranscriptMismatch),
            Rejection::io(IoFault::Refused, "connection refused"),
            Rejection::io(IoFault::TimedOut, "read timed out"),
            Rejection::io(IoFault::Closed, ""),
            Rejection::io(IoFault::Other, "interrupted"),
            Rejection::blame(3, Rejection::io(IoFault::Closed, "reset by peer")),
            Rejection::ReplicaDivergence {
                shard: 2,
                replicas: vec![1, 0],
                cause: Box::new(Rejection::TranscriptMismatch),
            },
            Rejection::ReplicaDivergence {
                shard: 0,
                replicas: vec![],
                cause: Box::new(Rejection::FinalCheckFailed),
            },
            Rejection::InvalidConfig {
                detail: "5 shards do not divide a 2^4 universe".into(),
            },
        ];
        for rej in cases {
            let bytes = rej.to_bytes();
            assert_eq!(Rejection::from_bytes(&bytes).unwrap(), rej);
        }
    }

    #[test]
    fn hostile_divergence_nesting_is_bounded() {
        // ReplicaDivergence shares the nesting budget with SubProtocol and
        // Blame: towers of tag-11 frames are refused, not recursed into.
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.push(11u8); // ReplicaDivergence tag
            bytes.extend_from_slice(&0u32.to_le_bytes()); // shard
            bytes.extend_from_slice(&0u32.to_le_bytes()); // empty replica list
        }
        bytes.push(3); // innermost: RootMismatch
        let err = Rejection::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, WireError::BadTag { tag: 11, .. }), "{err:?}");
    }

    #[test]
    fn hostile_blame_nesting_is_bounded() {
        // Blame shares the SubProtocol nesting budget: deep towers of tag-8
        // frames must be refused, not recursed into.
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.push(8u8); // Blame tag
            bytes.extend_from_slice(&0u32.to_le_bytes()); // shard id
        }
        bytes.push(3); // innermost: RootMismatch
        let err = Rejection::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, WireError::BadTag { tag: 8, .. }), "{err:?}");
    }

    #[test]
    fn hostile_rejection_nesting_is_bounded() {
        // 100k nested SubProtocol tags with empty names: without the depth
        // bound this overflows the decoder's stack (process abort).
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.push(7u8); // SubProtocol tag
            bytes.extend_from_slice(&0u32.to_le_bytes()); // empty name
        }
        bytes.push(3); // innermost: RootMismatch
        let err = Rejection::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, WireError::BadTag { tag: 7, .. }), "{err:?}");
        // Honest nesting depths still decode.
        let mut nested = Rejection::RootMismatch;
        for _ in 0..4 {
            nested = Rejection::in_subprotocol("heavy-hitters", nested);
        }
        assert_eq!(Rejection::from_bytes(&nested.to_bytes()).unwrap(), nested);
    }

    #[test]
    fn unknown_subprotocol_name_is_interned_safely() {
        let rej = Rejection::SubProtocol {
            name: "remote",
            cause: Box::new(Rejection::FinalCheckFailed),
        };
        let mut bytes = rej.to_bytes();
        // Overwrite the name "remote" with an attacker-chosen string of the
        // same length.
        let pos = bytes.len() - "remote".len() - 1;
        bytes[pos..pos + 6].copy_from_slice(b"eeeeee");
        let back = Rejection::from_bytes(&bytes).unwrap();
        assert!(matches!(
            back,
            Rejection::SubProtocol {
                name: "unknown-subprotocol",
                ..
            }
        ));
    }
}

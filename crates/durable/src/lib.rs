//! `sip-durable`: checkpoint/restore for the verifier's polylog state.
//!
//! The whole point of the paper is that the verifier retains only
//! `O(d·ℓ + d)` words while the prover holds the data — which makes
//! verifier checkpoints nearly free. This crate is the canonical,
//! versioned serialisation of that state: every streaming digest in the
//! workspace ([`sip_lde::StreamingLdeEvaluator`] and
//! [`sip_lde::MultiLdeEvaluator`], the five sum-check verifiers, the
//! hash-tree hashers, [`sip_streaming::FrequencyVector`], the kv-store
//! [`sip_kvstore::Client`] and [`sip_kvstore::ShardedClient`], and the
//! cluster verifier books) implements [`Persist`], and a snapshot taken
//! mid-stream restores to state that is **field-for-field identical** to
//! never having stopped — same digests, same transcripts, same
//! `CostReport`s.
//!
//! ## Envelope
//!
//! Every snapshot is one self-describing byte string:
//!
//! ```text
//! magic "SIPD" ‖ u16 version ‖ u16 kind ‖ u8 field-id ‖ u64 update-count
//!             ‖ u32 payload-len ‖ payload ‖ u64 fnv1a64-checksum
//! ```
//!
//! * integers little-endian, field elements canonical `⌈BITS/8⌉`-byte LE
//!   residues (the [`sip_wire`] primitive codecs, reject-on-non-canonical);
//! * `kind` names the persisted type — restoring the wrong type is a typed
//!   error, never a misparse;
//! * `field-id` is the [`sip_wire::FieldId`] byte (0 for field-independent
//!   types such as [`sip_streaming::FrequencyVector`]);
//! * `update-count` records how many stream updates the digest had
//!   absorbed — surfaced by [`peek_meta`] without decoding the payload,
//!   and cross-checked against the restored state;
//! * the checksum covers every preceding byte, and is verified **before**
//!   payload decoding: a corrupted snapshot is refused, never restored
//!   wrong. (FNV-1a's byte step is invertible, so any *single*-byte
//!   corruption is detected with certainty; random multi-byte corruption
//!   escapes with probability `2^-64`.)
//!
//! Derived state — the packed weight tables, one-point or many — is
//! **never** serialised: snapshots carry parameters and protocol state
//! only, and reconstruction recomputes the tables exactly as first
//! construction did. This keeps snapshots at the paper's polylog verifier
//! footprint (a `log u = 18` F₂ digest is ~180 bytes) and makes the
//! restored hot path bit-identical by construction.
//!
//! ## Atomicity
//!
//! [`save_snapshot`] writes to a temporary sibling, fsyncs, then renames
//! over the destination — a crash mid-write leaves either the old
//! snapshot or the new one, never a torn file. [`load_snapshot`] treats
//! whatever it finds as untrusted input (see [`SnapshotError`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod persist;

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::Path;

use sip_wire::codec::Writer;
use sip_wire::Reader;

pub use error::SnapshotError;

/// The magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SIPD";

/// Version of the snapshot format this crate writes and reads. Bump on any
/// change to the envelope or to a payload encoding.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Largest snapshot [`load_snapshot`] will read into memory. Verifier
/// digests are a few hundred bytes; server dataset snapshots can reach
/// tens of megabytes; nothing legitimate approaches this cap.
pub const MAX_SNAPSHOT_BYTES: u64 = 1 << 30;

/// The field-id byte of field-independent snapshots.
pub const FIELD_INDEPENDENT: u8 = 0;

/// Stable type tags for every persisted type (the envelope `kind`).
///
/// Values are part of the on-disk format: never renumber, only append.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum SnapshotKind {
    /// [`sip_lde::StreamingLdeEvaluator`]
    StreamingLde = 1,
    /// [`sip_lde::MultiLdeEvaluator`]
    MultiLde = 2,
    /// [`sip_core::sumcheck::f2::F2Verifier`]
    F2Verifier = 3,
    /// [`sip_core::sumcheck::range_sum::RangeSumVerifier`]
    RangeSumVerifier = 4,
    /// [`sip_core::sumcheck::moments::MomentVerifier`]
    MomentVerifier = 5,
    /// [`sip_core::sumcheck::general_ell::GeneralF2Verifier`]
    GeneralF2Verifier = 6,
    /// [`sip_core::sumcheck::inner_product::InnerProductVerifier`]
    InnerProductVerifier = 7,
    /// [`sip_core::subvector::StreamingRootHasher`]
    RootHasher = 8,
    /// [`sip_core::subvector::SubVectorVerifier`]
    SubVectorVerifier = 9,
    /// [`sip_core::heavy_hitters::CountTreeHasher`]
    CountTreeHasher = 10,
    /// [`sip_streaming::FrequencyVector`]
    FrequencyVector = 11,
    /// [`sip_kvstore::Client`]
    KvClient = 12,
    /// [`sip_kvstore::ShardedClient`]
    ShardedKvClient = 13,
    /// `sip_cluster::ShardedLde` (impl lives in `sip-cluster`)
    ShardedLde = 14,
    /// `sip_cluster::ClusterF2Verifier` (impl lives in `sip-cluster`)
    ClusterF2Verifier = 15,
    /// `sip_cluster::ClusterRangeSumVerifier` (impl lives in `sip-cluster`)
    ClusterRangeSumVerifier = 16,
    /// `sip_cluster::ClusterReportVerifier` (impl lives in `sip-cluster`)
    ClusterReportVerifier = 17,
    /// A server-published dataset (`sip-server`).
    Dataset = 18,
    /// The server data-dir manifest (`sip-server`).
    Manifest = 19,
    /// [`sip_kvstore::CloudStore`] (the prover-side kv dataset trio).
    CloudStore = 20,
}

/// A type with a canonical, versioned snapshot encoding.
///
/// `encode_state`/`decode_state` cover the *payload* only; the envelope
/// (magic, version, kind, field id, update count, checksum) is handled by
/// [`snapshot_to_bytes`]/[`snapshot_from_bytes`]. Payload encodings
/// compose: aggregate types (the kv client, the sharded books) nest their
/// members' payloads without per-member envelopes.
pub trait Persist: Sized {
    /// The envelope type tag.
    const KIND: SnapshotKind;

    /// The envelope field-id byte ([`FIELD_INDEPENDENT`] when the state
    /// holds no field elements).
    fn field_id() -> u8;

    /// Stream updates this state has absorbed (envelope metadata,
    /// cross-checked on restore).
    fn update_count(&self) -> u64;

    /// Appends the payload encoding of `self`.
    fn encode_state(&self, w: &mut Writer);

    /// Decodes one payload, validating every semantic invariant — a
    /// hostile payload must produce an error, never a panic and never
    /// silently-wrong state.
    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

/// 64-bit FNV-1a over `bytes`. One multiply and one xor per byte; the final
/// digest is an invertible function of any single byte given the rest, so
/// a lone flipped byte always changes it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Envelope metadata, readable without decoding (or trusting) the payload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Snapshot format version.
    pub version: u16,
    /// The persisted type's tag (raw — may be a kind this build ignores).
    pub kind: u16,
    /// Field id byte (0 = field-independent).
    pub field_id: u8,
    /// Stream updates the state had absorbed at checkpoint time.
    pub update_count: u64,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Envelope header length: magic + version + kind + field + count + len.
const HEADER_LEN: usize = 4 + 2 + 2 + 1 + 8 + 4;
/// Trailing checksum length.
const CHECKSUM_LEN: usize = 8;

/// Encodes `value` as one standalone snapshot byte string.
///
/// # Panics
/// Panics if the payload exceeds `u32::MAX` bytes (the envelope length
/// field would wrap into an unloadable file). [`save_snapshot`] refuses
/// far earlier, at [`MAX_SNAPSHOT_BYTES`], so durable paths never reach
/// this; it guards direct in-memory users.
pub fn snapshot_to_bytes<T: Persist>(value: &T) -> Vec<u8> {
    let mut payload = Writer::new();
    value.encode_state(&mut payload);
    let payload = payload.into_bytes();
    assert!(
        payload.len() <= u32::MAX as usize,
        "snapshot payload of {} bytes overflows the u32 length field",
        payload.len()
    );

    let mut w = Writer::new();
    for b in SNAPSHOT_MAGIC {
        w.u8(b);
    }
    w.u16(SNAPSHOT_VERSION)
        .u16(T::KIND as u16)
        .u8(T::field_id())
        .u64(value.update_count())
        .u32(payload.len() as u32);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&payload);
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Parses and validates the envelope, returning its metadata and the
/// payload slice. Order of checks: magic, version (skew is named before
/// any layout-dependent diagnostics), structural length, checksum.
fn open_envelope(bytes: &[u8]) -> Result<(SnapshotMeta, &[u8]), SnapshotError> {
    if bytes.len() as u64 > MAX_SNAPSHOT_BYTES {
        return Err(SnapshotError::TooLarge {
            bytes: bytes.len() as u64,
            limit: MAX_SNAPSHOT_BYTES,
        });
    }
    let mut r = Reader::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8()?;
    }
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != SNAPSHOT_VERSION {
        // A future version may lay the rest of the envelope out
        // differently; the skew is the one diagnostic that must survive.
        return Err(SnapshotError::UnsupportedVersion {
            ours: SNAPSHOT_VERSION,
            theirs: version,
        });
    }
    let kind = r.u16()?;
    let field_id = r.u8()?;
    let update_count = r.u64()?;
    let payload_len = r.u32()? as usize;
    let declared = HEADER_LEN + payload_len + CHECKSUM_LEN;
    if bytes.len() != declared {
        return Err(SnapshotError::LengthMismatch {
            declared,
            actual: bytes.len(),
        });
    }
    let body = &bytes[..HEADER_LEN + payload_len];
    // The length check above guarantees exactly CHECKSUM_LEN trailing
    // bytes; decode them without any panic path all the same.
    let mut trailer = [0u8; CHECKSUM_LEN];
    trailer.copy_from_slice(&bytes[HEADER_LEN + payload_len..]);
    if fnv1a64(body) != u64::from_le_bytes(trailer) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok((
        SnapshotMeta {
            version,
            kind,
            field_id,
            update_count,
            payload_len,
        },
        &bytes[HEADER_LEN..HEADER_LEN + payload_len],
    ))
}

/// Reads envelope metadata without decoding the payload (the checksum is
/// still verified — metadata of a corrupt snapshot is not metadata).
pub fn peek_meta(bytes: &[u8]) -> Result<SnapshotMeta, SnapshotError> {
    open_envelope(bytes).map(|(meta, _)| meta)
}

/// Decodes one standalone snapshot byte string back into a `T`.
pub fn snapshot_from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, SnapshotError> {
    let (meta, payload) = open_envelope(bytes)?;
    if meta.kind != T::KIND as u16 {
        return Err(SnapshotError::WrongKind {
            expected: T::KIND as u16,
            found: meta.kind,
        });
    }
    if meta.field_id != T::field_id() {
        return Err(SnapshotError::FieldMismatch {
            expected: T::field_id(),
            found: meta.field_id,
        });
    }
    let mut r = Reader::new(payload);
    let value = T::decode_state(&mut r)?;
    r.finish()?;
    if value.update_count() != meta.update_count {
        return Err(error::invalid(format!(
            "envelope claims {} updates, restored state has {}",
            meta.update_count,
            value.update_count()
        )));
    }
    Ok(value)
}

fn io_err(path: &Path, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: Some(path.display().to_string()),
        detail: e.to_string(),
    }
}

/// Writes `value`'s snapshot to `path` atomically: temp sibling → fsync →
/// rename. A crash leaves either the previous file or the new one intact.
pub fn save_snapshot<T: Persist>(path: &Path, value: &T) -> Result<(), SnapshotError> {
    save_snapshot_bytes(path, &snapshot_to_bytes(value))
}

/// The write-temp-then-rename step, reusable for pre-encoded snapshots
/// (the server persists a dataset once and reuses the bytes for its
/// manifest bookkeeping).
///
/// Refuses snapshots larger than [`MAX_SNAPSHOT_BYTES`] — the loader
/// refuses them too, and acknowledging durability for a file that can
/// never be restored would be a lie.
pub fn save_snapshot_bytes(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    if bytes.len() as u64 > MAX_SNAPSHOT_BYTES {
        return Err(SnapshotError::TooLarge {
            bytes: bytes.len() as u64,
            limit: MAX_SNAPSHOT_BYTES,
        });
    }
    let timer = sip_obs::enabled().then(sip_obs::Timer::start);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension("tmp-sipd");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    // Make the rename itself durable (best effort — some filesystems
    // refuse to fsync a directory handle; the rename is still atomic).
    if let Some(dir) = dir {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    if let Some(timer) = timer {
        sip_obs::counter("sip_durable_saves_total").inc();
        sip_obs::histogram("sip_durable_snapshot_bytes").observe(bytes.len() as u64);
        sip_obs::histogram("sip_durable_save_us").observe(timer.elapsed_us());
    }
    Ok(())
}

/// Reads and decodes one snapshot file. Everything on disk is untrusted:
/// oversized, truncated, corrupted, or wrong-typed files come back as
/// typed [`SnapshotError`]s.
pub fn load_snapshot<T: Persist>(path: &Path) -> Result<T, SnapshotError> {
    snapshot_from_bytes(&load_snapshot_bytes(path)?)
}

/// Reads one snapshot file's raw bytes, enforcing [`MAX_SNAPSHOT_BYTES`]
/// *before* allocating.
pub fn load_snapshot_bytes(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    let timer = sip_obs::enabled().then(sip_obs::Timer::start);
    let f = fs::File::open(path).map_err(|e| io_err(path, e))?;
    let len = f.metadata().map_err(|e| io_err(path, e))?.len();
    if len > MAX_SNAPSHOT_BYTES {
        return Err(SnapshotError::TooLarge {
            bytes: len,
            limit: MAX_SNAPSHOT_BYTES,
        });
    }
    let mut bytes = Vec::with_capacity(len as usize);
    f.take(MAX_SNAPSHOT_BYTES + 1)
        .read_to_end(&mut bytes)
        .map_err(|e| io_err(path, e))?;
    if let Some(timer) = timer {
        sip_obs::counter("sip_durable_loads_total").inc();
        sip_obs::histogram("sip_durable_load_us").observe(timer.elapsed_us());
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny self-contained Persist impl for envelope-level tests.
    #[derive(Debug, PartialEq, Eq)]
    struct Blob {
        data: Vec<u8>,
        count: u64,
    }

    impl Persist for Blob {
        // Reuse an arbitrary kind; envelope tests never cross types.
        const KIND: SnapshotKind = SnapshotKind::FrequencyVector;
        fn field_id() -> u8 {
            FIELD_INDEPENDENT
        }
        fn update_count(&self) -> u64 {
            self.count
        }
        fn encode_state(&self, w: &mut Writer) {
            w.count(self.data.len());
            for &b in &self.data {
                w.u8(b);
            }
            w.u64(self.count);
        }
        fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            let data = r.seq(1, |r| r.u8())?;
            let count = r.u64()?;
            Ok(Blob { data, count })
        }
    }

    fn blob() -> Blob {
        Blob {
            data: vec![1, 2, 3, 250],
            count: 4,
        }
    }

    #[test]
    fn roundtrip_and_meta() {
        let bytes = snapshot_to_bytes(&blob());
        assert_eq!(snapshot_from_bytes::<Blob>(&bytes).unwrap(), blob());
        let meta = peek_meta(&bytes).unwrap();
        assert_eq!(meta.version, SNAPSHOT_VERSION);
        assert_eq!(meta.kind, Blob::KIND as u16);
        assert_eq!(meta.field_id, FIELD_INDEPENDENT);
        assert_eq!(meta.update_count, 4);
    }

    #[test]
    fn every_single_byte_corruption_is_refused() {
        let bytes = snapshot_to_bytes(&blob());
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                let err = snapshot_from_bytes::<Blob>(&bad);
                assert!(err.is_err(), "byte {i} flip {flip:#x} decoded");
            }
        }
    }

    #[test]
    fn truncation_and_extension_refused() {
        let bytes = snapshot_to_bytes(&blob());
        for cut in 0..bytes.len() {
            assert!(
                snapshot_from_bytes::<Blob>(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            snapshot_from_bytes::<Blob>(&long).unwrap_err(),
            SnapshotError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn version_skew_named_before_length_errors() {
        // A "future" snapshot: version bumped and the frame longer than our
        // layout expects — the diagnostic must be the version, not length.
        let mut bytes = snapshot_to_bytes(&blob());
        bytes[4] = (SNAPSHOT_VERSION + 1) as u8;
        bytes.extend_from_slice(&[0xAA; 10]);
        assert_eq!(
            snapshot_from_bytes::<Blob>(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                ours: SNAPSHOT_VERSION,
                theirs: SNAPSHOT_VERSION + 1
            }
        );
    }

    #[test]
    fn save_is_atomic_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("sipd-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.sipd");
        save_snapshot(&path, &blob()).unwrap();
        assert_eq!(load_snapshot::<Blob>(&path).unwrap(), blob());
        // Overwrite goes through the same temp+rename path.
        let other = Blob {
            data: vec![9],
            count: 1,
        };
        save_snapshot(&path, &other).unwrap();
        assert_eq!(load_snapshot::<Blob>(&path).unwrap(), other);
        // No temp litter.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_single_byte_sensitivity() {
        let a = fnv1a64(b"hello world");
        for i in 0..11 {
            let mut m = b"hello world".to_vec();
            m[i] ^= 1;
            assert_ne!(fnv1a64(&m), a, "byte {i}");
        }
    }
}

//! On-disk layout of a prover's data directory.
//!
//! ```text
//! <data-dir>/
//!   manifest.sipd          id → file map (atomic rewrite on every change)
//!   ds-<fnv64(id)>.sipd    one published dataset, frozen
//!   ck-<fnv64(id)>.sipd    one named checkpoint, overwritten as it advances
//! ```
//!
//! Dataset ids are peer-chosen strings; file names are the FNV-1a hash of
//! the id, so hostile ids (path separators, `..`, 200-byte names) never
//! reach the filesystem. The manifest is the source of truth for what the
//! directory holds — stray files are ignored, and a manifest entry whose
//! file is corrupt is skipped (and reported) at load, never a crash.
//!
//! Every write is write-temp-then-rename ([`sip_durable::save_snapshot`]):
//! a kill at any instant leaves each file either old or new, whole.

use std::path::{Path, PathBuf};

use sip_durable::error::SnapshotError;
use sip_durable::{fnv1a64, Persist, SnapshotKind, FIELD_INDEPENDENT};
use sip_field::PrimeField;
use sip_kvstore::CloudStore;
use sip_streaming::FrequencyVector;
use sip_wire::codec::Writer;
use sip_wire::{Reader, ShardSpec};

use crate::registry::{Dataset, DatasetData, MAX_DATASET_ID_LEN};

/// The manifest's fixed file name inside a data directory.
pub const MANIFEST_FILE: &str = "manifest.sipd";

/// Whether a durable entry is a frozen published dataset or a live named
/// checkpoint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DurableKind {
    /// Published via `Msg::Publish`: immutable, attachable.
    Published,
    /// Saved via `Msg::SaveState`: resumable, overwritten as it advances.
    Checkpoint,
}

/// One manifest row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Published or checkpoint.
    pub kind: DurableKind,
    /// The peer-chosen dataset id.
    pub id: String,
    /// The snapshot's file name within the data directory.
    pub file: String,
    /// Field id byte of the snapshot the row points at. Dataset snapshots
    /// hold integer vectors only and are field-independent, so today this
    /// is always 0; the column exists so future field-typed durable kinds
    /// can be enumerated without a manifest format bump.
    pub field_id: u8,
}

/// The data directory's id → file map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// All durable entries, in no particular order.
    pub entries: Vec<ManifestEntry>,
}

impl Persist for Manifest {
    const KIND: SnapshotKind = SnapshotKind::Manifest;

    fn field_id() -> u8 {
        FIELD_INDEPENDENT
    }

    fn update_count(&self) -> u64 {
        self.entries.len() as u64
    }

    fn encode_state(&self, w: &mut Writer) {
        w.count(self.entries.len());
        for e in &self.entries {
            w.u8(match e.kind {
                DurableKind::Published => 0,
                DurableKind::Checkpoint => 1,
            });
            w.string(&e.id).string(&e.file).u8(e.field_id);
        }
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq(8, |r| {
            let kind = match r.u8()? {
                0 => DurableKind::Published,
                1 => DurableKind::Checkpoint,
                tag => {
                    return Err(sip_wire::WireError::BadTag {
                        context: "manifest entry kind",
                        tag,
                    })
                }
            };
            Ok(ManifestEntry {
                kind,
                id: r.string()?,
                file: r.string()?,
                field_id: r.u8()?,
            })
        })?;
        for e in &n {
            if e.id.is_empty() || e.id.len() > MAX_DATASET_ID_LEN {
                return Err(SnapshotError::Invalid(format!(
                    "manifest id of {} bytes outside (0, {MAX_DATASET_ID_LEN}]",
                    e.id.len()
                )));
            }
            if !is_safe_file_name(&e.file) {
                return Err(SnapshotError::Invalid(format!(
                    "manifest file name {:?} is not a plain snapshot name",
                    e.file
                )));
            }
        }
        Ok(Manifest { entries: n })
    }
}

/// A manifest file name must be exactly what [`snapshot_file_name`]
/// produces — `ds-`/`ck-`, 16 hex digits, an optional `-N` collision
/// suffix (the registry disambiguates FNV-colliding ids), `.sipd`.
/// Anything else (separators, dot-dot, absolute paths) is a forged
/// manifest trying to read outside the data directory.
fn is_safe_file_name(name: &str) -> bool {
    let ok_prefix = name.starts_with("ds-") || name.starts_with("ck-");
    if !ok_prefix || !name.ends_with(".sipd") || name.len() < 3 + 16 + 5 {
        return false;
    }
    let middle = &name[3..name.len() - 5];
    let (hash, suffix) = middle.split_at(16.min(middle.len()));
    hash.len() == 16
        && hash.bytes().all(|b| b.is_ascii_hexdigit())
        && (suffix.is_empty()
            || (suffix.len() >= 2
                && suffix.starts_with('-')
                && suffix[1..].bytes().all(|b| b.is_ascii_digit())))
}

/// The file name a dataset id persists under.
pub fn snapshot_file_name(kind: DurableKind, id: &str) -> String {
    let prefix = match kind {
        DurableKind::Published => "ds",
        DurableKind::Checkpoint => "ck",
    };
    format!("{prefix}-{:016x}.sipd", fnv1a64(id.as_bytes()))
}

/// The file name a flight-recorder dump is written under. The tag is a
/// peer-chosen string (a dataset id, or a session label), so exactly like
/// [`snapshot_file_name`] it is FNV-hashed and never reaches the
/// filesystem verbatim — a hostile `../../etc/cron.d` id hashes to 16 hex
/// digits like any other. `seq` keeps successive dumps distinct.
pub fn trace_dump_file_name(tag: &str, seq: u64) -> String {
    format!("fr-{:016x}-{seq}.trace.json", fnv1a64(tag.as_bytes()))
}

/// Absolute path of the manifest inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

// ---------------------------------------------------------------------
// Dataset snapshot
// ---------------------------------------------------------------------

impl<F: PrimeField> Persist for Dataset<F> {
    const KIND: SnapshotKind = SnapshotKind::Dataset;

    fn field_id() -> u8 {
        // Dataset payloads hold only integer vectors; a restarted server
        // may serve them over either field.
        FIELD_INDEPENDENT
    }

    fn update_count(&self) -> u64 {
        match &self.data {
            DatasetData::Raw(fv) => fv.support_size(),
            DatasetData::Kv(s) => s.encoded_vector().support_size(),
        }
    }

    fn encode_state(&self, w: &mut Writer) {
        w.string(&self.id).u32(self.log_u);
        match self.shard {
            Some(spec) => {
                w.bool(true).u32(spec.index).u32(spec.count);
            }
            None => {
                w.bool(false);
            }
        }
        match &self.data {
            DatasetData::Raw(fv) => {
                w.u8(0);
                fv.encode_state(w);
            }
            DatasetData::Kv(s) => {
                w.u8(1);
                s.encode_state(w);
            }
        }
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let id = r.string()?;
        if id.is_empty() || id.len() > MAX_DATASET_ID_LEN {
            return Err(SnapshotError::Invalid(format!(
                "dataset id of {} bytes outside (0, {MAX_DATASET_ID_LEN}]",
                id.len()
            )));
        }
        let log_u = r.u32()?;
        if !(1..=crate::session::MAX_LOG_U).contains(&log_u) {
            return Err(SnapshotError::Invalid(format!(
                "dataset log_u {log_u} outside [1, {}]",
                crate::session::MAX_LOG_U
            )));
        }
        let shard = if r.bool()? {
            // Disk format predates replication and describes data, not
            // copies: no replica id is stored, and thawed specs carry
            // replica 0.
            let spec = ShardSpec::new(r.u32()?, r.u32()?);
            sip_streaming::ShardPlan::validate(log_u, spec.count)
                .map_err(SnapshotError::Invalid)?;
            if spec.index >= spec.count {
                return Err(SnapshotError::Invalid(format!(
                    "dataset shard {}/{} is out of range",
                    spec.index, spec.count
                )));
            }
            Some(spec)
        } else {
            None
        };
        let u = 1u64 << log_u;
        let data = match r.u8()? {
            0 => {
                let fv = FrequencyVector::decode_state(r)?;
                if fv.universe() != u {
                    return Err(SnapshotError::Invalid(format!(
                        "dataset vector universe {} disagrees with log_u {log_u}",
                        fv.universe()
                    )));
                }
                DatasetData::Raw(fv)
            }
            1 => {
                let store = CloudStore::<F>::decode_state(r)?;
                if store.log_u() != log_u {
                    return Err(SnapshotError::Invalid(format!(
                        "dataset store log_u {} disagrees with envelope log_u {log_u}",
                        store.log_u()
                    )));
                }
                DatasetData::Kv(store)
            }
            tag => {
                return Err(SnapshotError::Invalid(format!(
                    "unknown dataset mode tag {tag}"
                )))
            }
        };
        Ok(Dataset::new(id, log_u, shard, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_durable::{snapshot_from_bytes, snapshot_to_bytes};
    use sip_field::Fp61;
    use sip_streaming::Update;

    fn raw_dataset(id: &str) -> Dataset<Fp61> {
        let mut fv = FrequencyVector::new_sparse(1 << 8);
        fv.apply(Update::new(3, 5));
        fv.apply(Update::new(200, -1));
        Dataset::new(
            id.to_string(),
            8,
            Some(ShardSpec::new(1, 2)),
            DatasetData::Raw(fv),
        )
    }

    #[test]
    fn dataset_roundtrip_raw_and_kv() {
        let ds = raw_dataset("α-42");
        let back: Dataset<Fp61> = snapshot_from_bytes(&snapshot_to_bytes(&ds)).unwrap();
        assert_eq!(back.id, ds.id);
        assert_eq!(back.log_u, 8);
        assert_eq!(back.shard, ds.shard);
        let (DatasetData::Raw(a), DatasetData::Raw(b)) = (&back.data, &ds.data) else {
            panic!("mode changed");
        };
        assert_eq!(
            a.nonzero().collect::<Vec<_>>(),
            b.nonzero().collect::<Vec<_>>()
        );

        let mut store = CloudStore::<Fp61>::new_sparse(6);
        use sip_kvstore::KvServer;
        store.ingest(Update::new(9, 42 + 1));
        let ds = Dataset::new("kv".into(), 6, None, DatasetData::Kv(store));
        let back: Dataset<Fp61> = snapshot_from_bytes(&snapshot_to_bytes(&ds)).unwrap();
        let DatasetData::Kv(s) = &back.data else {
            panic!("mode changed")
        };
        assert_eq!(s.unverified_get(9), Some(42));
        assert_eq!(back.mode(), sip_wire::SessionMode::KvStore);
    }

    #[test]
    fn manifest_roundtrip_and_forged_file_names_refused() {
        let m = Manifest {
            entries: vec![
                ManifestEntry {
                    kind: DurableKind::Published,
                    id: "a".into(),
                    file: snapshot_file_name(DurableKind::Published, "a"),
                    field_id: 61,
                },
                ManifestEntry {
                    kind: DurableKind::Checkpoint,
                    id: "b/../c".into(),
                    file: snapshot_file_name(DurableKind::Checkpoint, "b/../c"),
                    field_id: 0,
                },
            ],
        };
        let back: Manifest = snapshot_from_bytes(&snapshot_to_bytes(&m)).unwrap();
        assert_eq!(back, m);

        // A forged manifest pointing outside the directory must be refused.
        for bad in [
            "../../etc/passwd",
            "/abs.sipd",
            "ds-zz.sipd",
            "ck-0123.sipd",
        ] {
            let forged = Manifest {
                entries: vec![ManifestEntry {
                    kind: DurableKind::Published,
                    id: "x".into(),
                    file: bad.into(),
                    field_id: 0,
                }],
            };
            let bytes = snapshot_to_bytes(&forged);
            assert!(
                snapshot_from_bytes::<Manifest>(&bytes).is_err(),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn file_names_are_filesystem_safe_for_hostile_ids() {
        for id in ["../../../etc/passwd", "a/b", "x".repeat(200).as_str()] {
            let name = snapshot_file_name(DurableKind::Published, id);
            assert!(is_safe_file_name(&name), "{name}");
            assert!(!name.contains('/') && !name.contains(".."));
        }
    }

    #[test]
    fn trace_dump_file_name_is_hashed_and_pinned() {
        // Pinned: FNV-1a 64 of "abc" — a format change here silently
        // orphans operators' existing dump-collection tooling.
        assert_eq!(
            trace_dump_file_name("abc", 3),
            "fr-e71fa2190541574b-3.trace.json"
        );
        for tag in ["../../../etc/cron.d/x", "a/b\\c", "né\u{202e}moj"] {
            let name = trace_dump_file_name(tag, 0);
            assert!(
                name.starts_with("fr-") && name.ends_with(".trace.json"),
                "{name}"
            );
            assert!(!name.contains('/') && !name.contains('\\') && !name.contains(".."));
            assert!(name.is_ascii(), "{name}");
        }
    }
}

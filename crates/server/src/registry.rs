//! The server-wide dataset registry: ingest once, serve many verifiers.
//!
//! The paper's economics are one heavily-resourced prover amortised over
//! many weak verifiers — but a prover that re-ingests the stream per
//! connection amortises nothing. A [`DatasetRegistry`] lets one session
//! freeze its ingested store into an immutable [`Dataset`] snapshot
//! (`Msg::Publish`), after which any number of concurrent sessions serve
//! queries from the same `Arc` (`Msg::Attach`) — no copies, no re-ingest,
//! no cross-session locks on the query path.
//!
//! ## Snapshot semantics
//!
//! Publishing freezes the data: the publishing session keeps querying the
//! snapshot but can no longer ingest, so every attached verifier sees one
//! immutable vector forever. Query-time prover state (fold tables, a
//! reporting query's copy of the cells) is built per query from the shared
//! snapshot, exactly as it was
//! from a session-private store — same transcripts, different ownership.
//!
//! Because the vectors never change, the part of a proof that depends on
//! the data alone — the Gram matrices behind SELF-JOIN SIZE's first `k`
//! round messages, the checkpointed residue-class prefix sums behind
//! RANGE-SUM's, and where the vector is mostly zero its nonzero cells packed
//! for the one pass both make ([`F2Head`], one pass for all) — is built at
//! most once per vector and kept beside the dataset (`HeadCache`). The
//! raw vector's head, which every F₂ query and every RANGE-SUM on a raw
//! dataset starts from, is built when the data freezes: inside
//! [`DatasetRegistry::publish`], before the publisher is acked (unless the
//! publishing session's own queries built it), and again when a published
//! dataset is reloaded from the data directory. A kv dataset's RANGE-SUM
//! and RANGE-COUNT heads (its encoded and presence vectors) are built at
//! their first query where the build packs the vector; over a fuller array
//! those queries sweep. That is all a dataset caches:
//! derived from its vectors, never invalidated, never persisted and never
//! sent (`sip_registry_f2_head_bytes`). Nothing that depends on a query or
//! a challenge may live there. A checkpoint is overwritten as its stream
//! advances and is never queried, so it carries no head.
//!
//! ## Trust
//!
//! The registry moves no trust: a verifier accepts only answers consistent
//! with its own streamed digests, so a server that swaps, corrupts, or
//! cross-wires datasets produces rejections, not wrong answers.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};

use sip_core::sumcheck::f2::F2Head;
use sip_durable::{load_snapshot, save_snapshot, SnapshotError};
use sip_field::PrimeField;
use sip_kvstore::CloudStore;
use sip_streaming::FrequencyVector;
use sip_wire::{SessionMode, ShardSpec};

use crate::heads::{HeadCache, QueryVector};
use crate::persist::{manifest_path, snapshot_file_name, DurableKind, Manifest, ManifestEntry};

/// Longest accepted dataset id, in bytes. Ids are peer-chosen; the cap
/// keeps registry keys (and error messages echoing them) small.
pub const MAX_DATASET_ID_LEN: usize = 200;

/// The data of a store, by the session mode that ingested it: a published
/// dataset's frozen vectors, a checkpoint's, or a session's private ones.
#[derive(Clone)]
pub enum DatasetData<F: PrimeField> {
    /// A raw update stream (frequency-vector semantics).
    Raw(FrequencyVector),
    /// A key-value store (encoded/presence/raw derived vectors).
    Kv(CloudStore<F>),
}

impl<F: PrimeField> DatasetData<F> {
    /// The vector `which` names; a raw stream's one vector answers to each.
    pub(crate) fn vector(&self, which: QueryVector) -> &FrequencyVector {
        match (self, which) {
            (DatasetData::Raw(fv), _) => fv,
            (DatasetData::Kv(store), QueryVector::Raw) => store.raw_vector(),
            (DatasetData::Kv(store), QueryVector::Encoded) => store.encoded_vector(),
            (DatasetData::Kv(store), QueryVector::Presence) => store.presence_vector(),
        }
    }
}

/// One published, immutable dataset snapshot.
pub struct Dataset<F: PrimeField> {
    /// Registry name.
    pub id: String,
    /// Universe exponent; attaching sessions must have handshaken the same
    /// value.
    pub log_u: u32,
    /// The shard identity the publishing session served, if any: an
    /// attached session inherits it (the snapshot only covers that shard's
    /// index range).
    pub shard: Option<ShardSpec>,
    /// The frozen vectors.
    pub data: DatasetData<F>,
    /// The heads every SELF-JOIN SIZE, RANGE-SUM and RANGE-COUNT proof over
    /// [`Self::data`] starts from: the raw vector's built at publish, the
    /// others at their first query; none on a checkpoint, which is never
    /// queried. A published private store brings the heads its queries
    /// built.
    pub(crate) heads: HeadCache<F>,
}

impl<F: PrimeField> Dataset<F> {
    /// A dataset named `id` over `[2^log_u]` holding `data`, without an F₂
    /// head — what a checkpoint is, and what [`DatasetRegistry::publish`]
    /// takes (the registry builds the head of what it publishes).
    pub fn new(id: String, log_u: u32, shard: Option<ShardSpec>, data: DatasetData<F>) -> Self {
        Dataset {
            id,
            log_u,
            shard,
            data,
            heads: HeadCache::default(),
        }
    }

    /// This dataset with the head of its raw vector built — one pass, on
    /// the calling thread, unless a query already built it. The registry calls it where data freezes for
    /// queries: publish and published reload.
    fn with_f2_head(self) -> Self {
        self.heads.build(&self.data, QueryVector::Raw, self.log_u);
        self
    }

    /// The head of the raw vector (F₂, and a raw dataset's RANGE-SUM), if
    /// this dataset was published.
    pub fn f2_head(&self) -> Option<&F2Head<F>> {
        self.heads.built(QueryVector::Raw)
    }

    /// The session mode this dataset serves; attaching sessions must have
    /// handshaken the same mode.
    pub fn mode(&self) -> SessionMode {
        match self.data {
            DatasetData::Raw(_) => SessionMode::RawStream,
            DatasetData::Kv(_) => SessionMode::KvStore,
        }
    }
}

impl<F: PrimeField> core::fmt::Debug for Dataset<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Dataset")
            .field("id", &self.id)
            .field("log_u", &self.log_u)
            .field("shard", &self.shard)
            .field("mode", &self.mode())
            .finish_non_exhaustive()
    }
}

/// Registry of published datasets, shared by every session of one server.
///
/// Reads (attach, query) take a shared lock only long enough to clone an
/// `Arc`; the query hot path never touches the registry again.
pub struct DatasetRegistry<F: PrimeField> {
    datasets: RwLock<HashMap<String, Arc<Dataset<F>>>>,
    /// Durable named checkpoints (`Msg::SaveState` / `Msg::Resume`):
    /// resumable session state, overwritten as it advances — unlike
    /// published datasets, which are frozen forever.
    checkpoints: RwLock<HashMap<String, Arc<Dataset<F>>>>,
    max_datasets: usize,
    /// When set, every publish and checkpoint is persisted here and the
    /// directory is reloaded on construction.
    data_dir: Option<PathBuf>,
    /// Serialises all disk traffic (snapshot writes + manifest rewrites);
    /// always taken *before* any map lock.
    disk: Mutex<()>,
    /// The durable file name assigned to each `(kind, id)`. Ids hash to a
    /// *base* name (FNV-1a is not collision resistant and ids are
    /// peer-chosen), so the registry disambiguates: a second id whose
    /// hash collides with an already-assigned file gets a `-1`, `-2`, …
    /// suffix instead of silently overwriting acknowledged-durable data.
    files: RwLock<HashMap<(u8, String), String>>,
    /// Manifest rows whose snapshots could not be registered at startup
    /// (corrupt file, cap excess, id mismatch). Their rows — and their
    /// file-name reservations — are preserved across manifest rewrites,
    /// so acknowledged-durable data stays findable for operator repair or
    /// a bigger-cap restart instead of being silently orphaned. A row is
    /// superseded once its `(kind, id)` is published/saved again.
    orphans: Vec<ManifestEntry>,
    /// What could not be restored at startup (corrupt or truncated files,
    /// manifest rows whose snapshot disagrees) — skipped, never a crash.
    load_errors: Vec<String>,
}

fn kind_byte(kind: DurableKind) -> u8 {
    match kind {
        DurableKind::Published => 0,
        DurableKind::Checkpoint => 1,
    }
}

impl<F: PrimeField> DatasetRegistry<F> {
    /// An empty registry holding at most `max_datasets` snapshots
    /// (publishes beyond the cap are refused — published data outlives the
    /// publishing session, so an uncapped registry would let one peer pin
    /// unbounded memory).
    pub fn new(max_datasets: usize) -> Self {
        DatasetRegistry {
            datasets: RwLock::new(HashMap::new()),
            checkpoints: RwLock::new(HashMap::new()),
            max_datasets,
            data_dir: None,
            disk: Mutex::new(()),
            files: RwLock::new(HashMap::new()),
            orphans: Vec::new(),
            load_errors: Vec::new(),
        }
    }

    /// A registry backed by `dir`: the directory is created if missing,
    /// its manifest (if any) is loaded, and every restorable snapshot is
    /// registered — `Publish` → crash → restart → `Attach` works, and
    /// saved checkpoints `Resume`. Corrupt or truncated snapshot files are
    /// skipped and reported via [`Self::load_errors`]; only a directory
    /// that cannot be created or listed is a hard error.
    pub fn with_data_dir(max_datasets: usize, dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create data dir {}: {e}", dir.display()))?;
        let mut reg = Self::new(max_datasets);
        let manifest = match std::fs::metadata(manifest_path(&dir)) {
            Ok(_) => match load_snapshot::<Manifest>(&manifest_path(&dir)) {
                Ok(m) => m,
                Err(e) => {
                    // A corrupt manifest loses the enumeration, not the
                    // server: start empty, report, and let the next write
                    // replace it.
                    reg.load_errors.push(format!("manifest unreadable: {e}"));
                    Manifest::default()
                }
            },
            Err(_) => Manifest::default(),
        };
        for entry in &manifest.entries {
            // Every manifest row reserves its file name, registered or
            // not: a later publish of a colliding id must never be handed
            // a skipped entry's file.
            reg.files.write().unwrap_or_else(|p| p.into_inner()).insert(
                (kind_byte(entry.kind), entry.id.clone()),
                entry.file.clone(),
            );
            let path = dir.join(&entry.file);
            let skip_reason = match load_snapshot::<Dataset<F>>(&path) {
                Ok(ds) if ds.id == entry.id => {
                    let map = match entry.kind {
                        DurableKind::Published => &reg.datasets,
                        DurableKind::Checkpoint => &reg.checkpoints,
                    };
                    let mut map = map.write().unwrap_or_else(|p| p.into_inner());
                    // The restart may run with a smaller cap than the
                    // process that wrote the manifest; the cap is a memory
                    // bound and holds across reloads too.
                    if map.len() >= max_datasets {
                        Some(format!(
                            "{}: {:?} skipped — registry cap {max_datasets} reached",
                            entry.file, entry.id
                        ))
                    } else {
                        let ds = match entry.kind {
                            DurableKind::Published => ds.with_f2_head(),
                            DurableKind::Checkpoint => ds,
                        };
                        map.insert(ds.id.clone(), Arc::new(ds));
                        None
                    }
                }
                Ok(ds) => Some(format!(
                    "{}: snapshot holds {:?}, manifest says {:?} — skipped",
                    entry.file, ds.id, entry.id
                )),
                Err(e) => Some(format!("{}: {e} — skipped", entry.file)),
            };
            if let Some(reason) = skip_reason {
                // Keep the row: the data was acknowledged durable once,
                // and a manifest rewrite must not orphan it.
                reg.orphans.push(entry.clone());
                reg.load_errors.push(reason);
            }
        }
        reg.data_dir = Some(dir);
        Ok(reg)
    }

    /// Whether this registry persists to disk.
    pub fn is_durable(&self) -> bool {
        self.data_dir.is_some()
    }

    /// Writes one flight-recorder post-mortem into the data directory and
    /// returns its path (`Ok(None)` on a memory-only registry). `tag` is
    /// peer-chosen (typically a dataset id), so the file name goes through
    /// the same hashing as snapshots ([`crate::persist::trace_dump_file_name`]) —
    /// hostile ids never touch the filesystem. Dumps are diagnostics, not
    /// durable state: they are not manifest-tracked and never reloaded.
    pub fn dump_flight_record(&self, tag: &str, json: &str) -> Result<Option<PathBuf>, String> {
        static DUMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let Some(dir) = &self.data_dir else {
            return Ok(None);
        };
        let _disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
        let seq = DUMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(crate::persist::trace_dump_file_name(tag, seq));
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write flight record {}: {e}", path.display()))?;
        Ok(Some(path))
    }

    /// What could not be restored at startup (empty on a clean start).
    pub fn load_errors(&self) -> &[String] {
        &self.load_errors
    }

    /// Rewrites the manifest from the current maps, an optional `extra`
    /// row not yet inserted into a map (publish writes the manifest
    /// *before* the dataset becomes attachable), and the orphan rows
    /// preserved from load. Caller holds `disk`.
    fn rewrite_manifest(
        &self,
        dir: &std::path::Path,
        extra: Option<(DurableKind, &str)>,
    ) -> Result<(), SnapshotError> {
        let files = self.files.read().unwrap_or_else(|p| p.into_inner());
        let mut entries: Vec<ManifestEntry> = Vec::new();
        let mut seen: std::collections::HashSet<(u8, String)> = std::collections::HashSet::new();
        let push = |entries: &mut Vec<ManifestEntry>,
                    seen: &mut std::collections::HashSet<(u8, String)>,
                    kind: DurableKind,
                    id: &str|
         -> Result<(), SnapshotError> {
            if !seen.insert((kind_byte(kind), id.to_string())) {
                return Ok(());
            }
            // Every registered id has an assignment (made at load or at
            // persist time); a miss is an internal invariant violation and
            // must be loud — the hash-derived fallback could alias another
            // id's file.
            let file = files
                .get(&(kind_byte(kind), id.to_string()))
                .cloned()
                .ok_or_else(|| {
                    SnapshotError::Invalid(format!("no durable file assigned to {id:?}"))
                })?;
            entries.push(ManifestEntry {
                kind,
                id: id.to_string(),
                file,
                field_id: 0,
            });
            Ok(())
        };
        for (kind, map) in [
            (DurableKind::Published, &self.datasets),
            (DurableKind::Checkpoint, &self.checkpoints),
        ] {
            let map = map.read().unwrap_or_else(|p| p.into_inner());
            for id in map.keys() {
                push(&mut entries, &mut seen, kind, id)?;
            }
        }
        if let Some((kind, id)) = extra {
            push(&mut entries, &mut seen, kind, id)?;
        }
        for row in &self.orphans {
            // Superseded once the id is durable again; retained otherwise.
            if seen.insert((kind_byte(row.kind), row.id.clone())) {
                entries.push(row.clone());
            }
        }
        entries.sort_by(|a, b| (a.id.as_str(), a.kind as u8).cmp(&(b.id.as_str(), b.kind as u8)));
        save_snapshot(&manifest_path(dir), &Manifest { entries })
    }

    /// The durable file name for `(kind, id)`: the existing assignment if
    /// any, else the hash-derived base name, suffix-disambiguated past any
    /// file already assigned to a *different* id (FNV collisions must not
    /// overwrite acknowledged-durable data). Returns `(name, newly
    /// assigned)`. Caller holds `disk`.
    fn assign_file(&self, kind: DurableKind, id: &str) -> (String, bool) {
        let mut files = self.files.write().unwrap_or_else(|p| p.into_inner());
        let key = (kind_byte(kind), id.to_string());
        if let Some(existing) = files.get(&key) {
            return (existing.clone(), false);
        }
        let base = snapshot_file_name(kind, id);
        let mut candidate = base.clone();
        let mut n = 0u32;
        while files.values().any(|f| *f == candidate) {
            n += 1;
            let stem = base.trim_end_matches(".sipd");
            candidate = format!("{stem}-{n}.sipd");
        }
        files.insert(key, candidate.clone());
        (candidate, true)
    }

    /// Persists one dataset snapshot plus (when the id is new) the
    /// refreshed manifest — an overwrite of an existing checkpoint leaves
    /// the manifest byte-identical, so the extra write + fsync is skipped.
    /// Runs **before** the dataset is inserted into a map, so a persist
    /// failure is never observable as a transiently-registered dataset.
    /// Caller holds `disk`.
    fn persist_to_disk(&self, kind: DurableKind, dataset: &Dataset<F>) -> Result<(), String> {
        let Some(dir) = &self.data_dir else {
            return Ok(());
        };
        let (file, newly_assigned) = self.assign_file(kind, &dataset.id);
        let unassign = |reg: &Self| {
            if newly_assigned {
                reg.files
                    .write()
                    .unwrap_or_else(|p| p.into_inner())
                    .remove(&(kind_byte(kind), dataset.id.clone()));
            }
        };
        if let Err(e) = save_snapshot(&dir.join(&file), dataset) {
            unassign(self);
            return Err(format!("persisting {:?}: {e}", dataset.id));
        }
        if newly_assigned {
            if let Err(e) = self.rewrite_manifest(dir, Some((kind, &dataset.id))) {
                unassign(self);
                return Err(format!("rewriting manifest: {e}"));
            }
        }
        Ok(())
    }

    /// Publishes a frozen dataset under its id. Refuses duplicates and
    /// registry overflow (atomically — two racing publishers of one id see
    /// one success). On a durable registry the snapshot and manifest hit
    /// disk **before** the dataset becomes attachable, so no session can
    /// observe a publish whose persistence then fails.
    pub fn publish(&self, dataset: Dataset<F>) -> Result<Arc<Dataset<F>>, String> {
        // A publish that is going to be refused must not pay for a pass
        // over the vector first; the check that decides is the one under
        // the disk lock.
        self.check_publishable(&dataset.id)?;
        // The data is frozen from here on: build what every F₂ and
        // RANGE-SUM query over it shares, before the disk lock (other
        // publishers need not wait for it) and before the caller can ack.
        let dataset = dataset.with_f2_head();
        let _disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
        self.check_publishable(&dataset.id)?;
        let arc = Arc::new(dataset);
        self.persist_to_disk(DurableKind::Published, &arc)?;
        self.datasets
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(arc.id.clone(), Arc::clone(&arc));
        if sip_obs::enabled() {
            sip_obs::counter("sip_registry_publish_total").inc();
        }
        Ok(arc)
    }

    /// Whether `id` could be published right now: not a duplicate, and
    /// the registry not full.
    fn check_publishable(&self, id: &str) -> Result<(), String> {
        let map = self.datasets.read().unwrap_or_else(|p| p.into_inner());
        if map.contains_key(id) {
            return Err(format!("dataset {id:?} is already published"));
        }
        if map.len() >= self.max_datasets {
            return Err(format!(
                "dataset registry is full ({} datasets)",
                self.max_datasets
            ));
        }
        Ok(())
    }

    /// Saves (or advances) a durable named checkpoint. Checkpoints do not
    /// count against `max_datasets` published snapshots but share the same
    /// cap on their own map; re-saving an existing id overwrites it.
    /// Refused on a memory-only registry — a checkpoint that does not
    /// survive a restart is a lie.
    pub fn save_checkpoint(&self, dataset: Dataset<F>) -> Result<(), String> {
        if self.data_dir.is_none() {
            return Err("this server has no data directory (start with --data-dir)".to_string());
        }
        let _disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
        {
            let map = self.checkpoints.read().unwrap_or_else(|p| p.into_inner());
            if !map.contains_key(&dataset.id) && map.len() >= self.max_datasets {
                return Err(format!(
                    "checkpoint store is full ({} checkpoints)",
                    self.max_datasets
                ));
            }
        }
        let arc = Arc::new(dataset);
        // Disk first: a checkpoint that failed to persist leaves the
        // previous checkpoint (memory and disk) intact — the peer learns
        // durability was not achieved, and `Resume` never sees state that
        // would vanish on restart.
        self.persist_to_disk(DurableKind::Checkpoint, &arc)?;
        self.checkpoints
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(arc.id.clone(), Arc::clone(&arc));
        if sip_obs::enabled() {
            sip_obs::counter("sip_registry_checkpoint_total").inc();
        }
        Ok(())
    }

    /// The checkpoint saved under `id`, if any.
    pub fn checkpoint(&self, id: &str) -> Option<Arc<Dataset<F>>> {
        self.checkpoints
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(id)
            .cloned()
    }

    /// Every durable id (published datasets and checkpoints), sorted —
    /// the enumeration a `Msg::StateAck` carries.
    pub fn durable_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .datasets
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .keys()
            .chain(
                self.checkpoints
                    .read()
                    .unwrap_or_else(|p| p.into_inner())
                    .keys(),
            )
            .cloned()
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The snapshot published under `id`, if any.
    pub fn get(&self, id: &str) -> Option<Arc<Dataset<F>>> {
        self.datasets
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(id)
            .cloned()
    }

    /// Number of published datasets.
    pub fn len(&self) -> usize {
        self.datasets
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_field::Fp61;
    use sip_streaming::{FrequencyVector, Update};

    fn raw_dataset(id: &str) -> Dataset<Fp61> {
        let mut fv = FrequencyVector::new_sparse(1 << 8);
        fv.apply(Update::new(3, 5));
        Dataset::new(id.to_string(), 8, None, DatasetData::Raw(fv))
    }

    #[test]
    fn publish_get_roundtrip() {
        let reg = DatasetRegistry::<Fp61>::new(4);
        assert!(reg.is_empty());
        reg.publish(raw_dataset("a")).unwrap();
        let got = reg.get("a").unwrap();
        assert_eq!(got.log_u, 8);
        assert_eq!(got.mode(), SessionMode::RawStream);
        assert!(reg.get("b").is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn duplicate_id_refused() {
        let reg = DatasetRegistry::<Fp61>::new(4);
        reg.publish(raw_dataset("a")).unwrap();
        let err = reg.publish(raw_dataset("a")).unwrap_err();
        assert!(err.contains("already published"), "{err}");
    }

    #[test]
    fn capacity_enforced() {
        let reg = DatasetRegistry::<Fp61>::new(2);
        reg.publish(raw_dataset("a")).unwrap();
        reg.publish(raw_dataset("b")).unwrap();
        let err = reg.publish(raw_dataset("c")).unwrap_err();
        assert!(err.contains("full"), "{err}");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sip-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_publish_survives_reload() {
        let dir = temp_dir("publish");
        {
            let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
            reg.publish(raw_dataset("a")).unwrap();
            reg.publish(raw_dataset("b")).unwrap();
        }
        // A fresh registry (fresh process, morally) sees both datasets.
        let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
        assert!(reg.load_errors().is_empty(), "{:?}", reg.load_errors());
        assert_eq!(reg.len(), 2);
        let got = reg.get("a").unwrap();
        assert_eq!(got.log_u, 8);
        if let DatasetData::Raw(fv) = &got.data {
            assert_eq!(fv.get(3), 5);
        } else {
            panic!("mode changed across reload");
        }
        assert_eq!(reg.durable_ids(), vec!["a".to_string(), "b".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_overwrite_and_reload() {
        let dir = temp_dir("checkpoint");
        {
            let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
            reg.save_checkpoint(raw_dataset("ck")).unwrap();
            // Advancing the checkpoint overwrites it.
            let mut advanced = raw_dataset("ck");
            if let DatasetData::Raw(fv) = &mut advanced.data {
                fv.apply(Update::new(7, 9));
            }
            reg.save_checkpoint(advanced).unwrap();
        }
        let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
        let ck = reg.checkpoint("ck").unwrap();
        let DatasetData::Raw(fv) = &ck.data else {
            panic!("mode changed")
        };
        assert_eq!(fv.get(7), 9, "reload must see the advanced checkpoint");
        assert!(reg.get("ck").is_none(), "checkpoints are not published");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn colliding_file_names_are_disambiguated() {
        let dir = temp_dir("collide");
        let reg = DatasetRegistry::<Fp61>::with_data_dir(8, dir.clone()).unwrap();
        // Pretend a different id already claimed "y"'s base file name — as
        // an offline-computable FNV collision of a peer-chosen id would.
        let base = crate::persist::snapshot_file_name(crate::persist::DurableKind::Published, "y");
        reg.files
            .write()
            .unwrap()
            .insert((0, "x".to_string()), base.clone());
        let (name, newly) = reg.assign_file(crate::persist::DurableKind::Published, "y");
        assert!(newly);
        assert_ne!(name, base, "collision must not share a file");
        assert!(name.ends_with("-1.sipd"), "{name}");
        // The assignment is sticky.
        let (again, newly) = reg.assign_file(crate::persist::DurableKind::Published, "y");
        assert_eq!(again, name);
        assert!(!newly);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_respects_a_smaller_cap() {
        let dir = temp_dir("cap");
        {
            let reg = DatasetRegistry::<Fp61>::with_data_dir(8, dir.clone()).unwrap();
            for id in ["a", "b", "c"] {
                reg.publish(raw_dataset(id)).unwrap();
            }
        }
        let reg = DatasetRegistry::<Fp61>::with_data_dir(2, dir.clone()).unwrap();
        assert_eq!(reg.len(), 2, "cap must bound the reload");
        assert_eq!(reg.load_errors().len(), 1);
        assert!(
            reg.load_errors()[0].contains("cap"),
            "{:?}",
            reg.load_errors()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_overwrite_skips_the_manifest_rewrite() {
        let dir = temp_dir("manifest-skip");
        let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
        reg.save_checkpoint(raw_dataset("ck")).unwrap();
        let mpath = crate::persist::manifest_path(&dir);
        let before = std::fs::metadata(&mpath).unwrap().modified().unwrap();
        let bytes_before = std::fs::read(&mpath).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        reg.save_checkpoint(raw_dataset("ck")).unwrap();
        // Identical manifest contents — and (advance permitting on this
        // filesystem's timestamp granularity) not rewritten at all.
        assert_eq!(std::fs::read(&mpath).unwrap(), bytes_before);
        assert_eq!(
            std::fs::metadata(&mpath).unwrap().modified().unwrap(),
            before
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_only_registry_refuses_checkpoints() {
        let reg = DatasetRegistry::<Fp61>::new(4);
        let err = reg.save_checkpoint(raw_dataset("ck")).unwrap_err();
        assert!(err.contains("data directory"), "{err}");
    }

    #[test]
    fn corrupt_snapshot_files_are_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        {
            let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
            reg.publish(raw_dataset("good")).unwrap();
            reg.publish(raw_dataset("bad")).unwrap();
        }
        // Corrupt one dataset file (flip a payload byte).
        let bad_file = dir.join(crate::persist::snapshot_file_name(
            crate::persist::DurableKind::Published,
            "bad",
        ));
        let mut bytes = std::fs::read(&bad_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&bad_file, &bytes).unwrap();

        let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
        assert!(reg.get("good").is_some(), "good dataset must survive");
        assert!(reg.get("bad").is_none(), "corrupt dataset must be skipped");
        assert_eq!(reg.load_errors().len(), 1);
        assert!(
            reg.load_errors()[0].contains("checksum") || reg.load_errors()[0].contains("skipped"),
            "{:?}",
            reg.load_errors()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skipped_rows_survive_manifest_rewrites_and_repair() {
        let dir = temp_dir("orphan");
        {
            let reg = DatasetRegistry::<Fp61>::with_data_dir(8, dir.clone()).unwrap();
            reg.publish(raw_dataset("good")).unwrap();
            reg.publish(raw_dataset("bad")).unwrap();
        }
        // Corrupt "bad"'s snapshot, remembering the healthy bytes.
        let bad_file = dir.join(crate::persist::snapshot_file_name(
            crate::persist::DurableKind::Published,
            "bad",
        ));
        let healthy = std::fs::read(&bad_file).unwrap();
        let mut corrupt = healthy.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        std::fs::write(&bad_file, &corrupt).unwrap();

        // Reload skips "bad" but must keep its manifest row through a
        // rewrite triggered by new durable activity.
        {
            let reg = DatasetRegistry::<Fp61>::with_data_dir(8, dir.clone()).unwrap();
            assert!(reg.get("bad").is_none());
            reg.publish(raw_dataset("new")).unwrap();
        }
        // Operator repairs the file; the next restart finds "bad" again
        // because its row was never dropped.
        std::fs::write(&bad_file, &healthy).unwrap();
        let reg = DatasetRegistry::<Fp61>::with_data_dir(8, dir.clone()).unwrap();
        assert!(reg.load_errors().is_empty(), "{:?}", reg.load_errors());
        assert!(reg.get("bad").is_some(), "repaired dataset must reload");
        assert!(reg.get("good").is_some());
        assert!(reg.get("new").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_manifest_is_reported_not_fatal() {
        let dir = temp_dir("manifest");
        {
            let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
            reg.publish(raw_dataset("a")).unwrap();
        }
        let mpath = crate::persist::manifest_path(&dir);
        let bytes = std::fs::read(&mpath).unwrap();
        std::fs::write(&mpath, &bytes[..bytes.len() / 2]).unwrap();
        let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
        assert_eq!(reg.len(), 0, "nothing restorable without a manifest");
        assert!(!reg.load_errors().is_empty());
        // The next publish rewrites a healthy manifest.
        reg.publish(raw_dataset("b")).unwrap();
        let reg = DatasetRegistry::<Fp61>::with_data_dir(4, dir.clone()).unwrap();
        assert!(reg.get("b").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_publishers_of_one_id_race_cleanly() {
        let reg = std::sync::Arc::new(DatasetRegistry::<Fp61>::new(64));
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let reg = std::sync::Arc::clone(&reg);
                    s.spawn(move || reg.publish(raw_dataset("contested")).is_ok())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(outcomes.iter().filter(|&&ok| ok).count(), 1);
        assert_eq!(reg.len(), 1);
    }
}

//! [`Persist`] implementations for every verifier-side digest type.
//!
//! Payload encodings carry **parameters and protocol state only** — secret
//! points, accumulators, keys, counters. Derived state (packed weight
//! tables) is reconstructed from the parameters — on restore, or at a
//! single-point digest's first weight evaluation — exactly as first
//! construction builds it, so a restored digest is field-for-field
//! identical to one that never stopped.
//!
//! Decoding treats every payload as hostile: lengths are validated against
//! bytes actually present before allocating ([`Reader::count`]), field
//! elements reject non-canonical residues, and semantic invariants
//! (dimensions, key ranges, canonical sparse form) decode to
//! [`SnapshotError::Invalid`] — never a panic, never silently-wrong state.

use sip_core::heavy_hitters::CountTreeHasher;
use sip_core::subvector::{HashKind, StreamingRootHasher, SubVectorVerifier};
use sip_core::sumcheck::f2::F2Verifier;
use sip_core::sumcheck::inner_product::InnerProductVerifier;
use sip_core::sumcheck::range_sum::RangeSumVerifier;
use sip_core::sumcheck::{LdeDigest, LdeQuery, Moment, RangeSum, SelfJoin};
use sip_field::PrimeField;
use sip_kvstore::{Client, ShardedClient};
use sip_lde::{LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip_streaming::frequency::DENSE_LIMIT;
use sip_streaming::{FrequencyVector, ShardPlan};
use sip_wire::codec::{field_width, Writer};
use sip_wire::{FieldId, Reader};

use crate::error::{invalid, SnapshotError};
use crate::{Persist, SnapshotKind, FIELD_INDEPENDENT};

// ---------------------------------------------------------------------
// Shared payload pieces
// ---------------------------------------------------------------------

/// Encodes `(ℓ, d)`.
pub fn encode_params(params: LdeParams, w: &mut Writer) {
    w.u64(params.base()).u32(params.dimension());
}

/// Largest one-point χ-table footprint ([`sip_lde::packed_table_words`]
/// field elements) a decoded parameterisation may imply. A restored
/// digest *rebuilds* its weight tables from `(ℓ, d)` at its first weight
/// evaluation, so without this cap a ~40-byte forged snapshot claiming
/// `ℓ = 2^40` would pass the structural checks and then demand a
/// terabyte-scale allocation. The cap (4M words = 32 MB at Fp61)
/// comfortably covers every real shape — the paper's sweet spot `ℓ = 2`
/// packs into at most 64 groups of ≤ 1024 entries, and the one-round
/// baseline's `ℓ = √u` at the server's `log u ≤ 40` limit needs `2·2^20`
/// words.
pub const MAX_CHI_TABLE_WORDS: u64 = 1 << 22;

/// Largest total derived-state rebuild (packed tables + points +
/// accumulators, in field words) a decoded [`MultiLdeEvaluator`] — or the
/// packed tables a decoded kv [`Client`] — may imply. Parallel repetition
/// uses tens of points and a kv budget a few hundred digests; 16M words
/// (128 MB at Fp61) is far beyond any legitimate configuration while
/// keeping a forged snapshot's memory amplification bounded.
pub const MAX_MULTI_TABLE_WORDS: u64 = 1 << 24;

/// Decodes and validates `(ℓ, d)` — overflowing or degenerate shapes, and
/// shapes whose derived tables would exceed [`MAX_CHI_TABLE_WORDS`], are
/// refused before any allocation sized by them.
pub fn decode_params(r: &mut Reader<'_>) -> Result<LdeParams, SnapshotError> {
    let ell = r.u64()?;
    let d = r.u32()?;
    let params = LdeParams::try_new(ell, d).ok_or_else(|| {
        invalid(format!(
            "LDE parameters ℓ = {ell}, d = {d} are not a universe"
        ))
    })?;
    let words = sip_lde::packed_table_words(params) as u64;
    if words > MAX_CHI_TABLE_WORDS {
        return Err(invalid(format!(
            "LDE parameters ℓ = {ell}, d = {d} imply a {words}-word χ table (cap {MAX_CHI_TABLE_WORDS})"
        )));
    }
    Ok(params)
}

/// Decodes exactly `n` field elements (the count is structural — implied
/// by already-validated parameters — so no length prefix is stored).
pub fn decode_point<F: PrimeField>(r: &mut Reader<'_>, n: usize) -> Result<Vec<F>, SnapshotError> {
    // `n` derives from validated params (d ≤ 63, shards ≤ 2^32); still
    // bound it by the bytes present so a forged dimension cannot reserve
    // memory.
    if n.saturating_mul(field_width::<F>()) > r.remaining() {
        return Err(invalid(format!(
            "{n} field elements exceed the {} payload bytes present",
            r.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.field::<F>()?);
    }
    Ok(out)
}

/// The streaming-evaluator payload, reused verbatim by the wrapping
/// verifiers: params ‖ point ‖ accumulator ‖ update counter.
fn encode_lde<F: PrimeField>(e: &StreamingLdeEvaluator<F>, w: &mut Writer) {
    encode_params(e.params(), w);
    for &c in e.point() {
        w.field(c);
    }
    w.field(e.value()).u64(e.updates());
}

fn decode_lde<F: PrimeField>(
    r: &mut Reader<'_>,
) -> Result<StreamingLdeEvaluator<F>, SnapshotError> {
    let params = decode_params(r)?;
    let point = decode_point::<F>(r, params.dimension() as usize)?;
    let acc = r.field::<F>()?;
    let updates = r.u64()?;
    Ok(StreamingLdeEvaluator::from_saved(
        params, point, acc, updates,
    ))
}

/// Like [`decode_lde`], additionally requiring the binary base the
/// sum-check verifiers run on.
fn decode_binary_lde<F: PrimeField>(
    r: &mut Reader<'_>,
    protocol: &str,
) -> Result<StreamingLdeEvaluator<F>, SnapshotError> {
    let lde = decode_lde::<F>(r)?;
    if lde.params().base() != 2 {
        return Err(invalid(format!(
            "{protocol} digest must be binary, snapshot has ℓ = {}",
            lde.params().base()
        )));
    }
    Ok(lde)
}

fn field_id_of<F: PrimeField>() -> u8 {
    FieldId::of::<F>().to_byte()
}

// ---------------------------------------------------------------------
// LDE evaluators
// ---------------------------------------------------------------------

impl<F: PrimeField> Persist for StreamingLdeEvaluator<F> {
    const KIND: SnapshotKind = SnapshotKind::StreamingLde;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.updates()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_lde(self, w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        decode_lde(r)
    }
}

impl<F: PrimeField> Persist for MultiLdeEvaluator<F> {
    const KIND: SnapshotKind = SnapshotKind::MultiLde;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.updates()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_params(self.params(), w);
        w.count(self.num_points());
        for p in 0..self.num_points() {
            for &c in self.point(p) {
                w.field(c);
            }
        }
        for v in self.values() {
            w.field(v);
        }
        w.u64(self.updates());
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let params = decode_params(r)?;
        let d = params.dimension() as usize;
        // Each point costs d coordinates plus one accumulator.
        let k = r.count((d + 1).saturating_mul(field_width::<F>()))?;
        // Rebuilding k points also rebuilds k packed group tables — a
        // ~100× amplification of the payload bytes. Bound the total
        // derived-state rebuild like decode_params bounds the χ table, so
        // a re-checksummed forged point count cannot demand gigabytes.
        let per_point = (sip_lde::packed_table_words(params) + d + 1) as u64;
        let total = (k as u64).saturating_mul(per_point);
        if total > MAX_MULTI_TABLE_WORDS {
            return Err(invalid(format!(
                "{k} points × {per_point} derived words = {total} exceeds the \
                 {MAX_MULTI_TABLE_WORDS}-word rebuild cap"
            )));
        }
        let mut points = Vec::with_capacity(k);
        for _ in 0..k {
            points.push(decode_point::<F>(r, d)?);
        }
        let accs = decode_point::<F>(r, k)?;
        let updates = r.u64()?;
        Ok(MultiLdeEvaluator::from_saved(params, points, accs, updates))
    }
}

// ---------------------------------------------------------------------
// Sum-check verifiers
// ---------------------------------------------------------------------

/// What a single-point digest's snapshot records beside its LDE: its
/// envelope kind, and the query's own parameters (only `F_k`'s order `k`
/// has any).
pub trait QuerySnapshot: LdeQuery {
    /// The envelope type tag of the digest answering this query.
    const KIND: SnapshotKind;

    /// Appends the query's parameters, written before the LDE.
    fn encode(&self, _w: &mut Writer) {}

    /// Reads them back.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

impl QuerySnapshot for SelfJoin {
    const KIND: SnapshotKind = SnapshotKind::F2Verifier;
    fn decode(_: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(SelfJoin)
    }
}

impl QuerySnapshot for SelfJoin<true> {
    const KIND: SnapshotKind = SnapshotKind::GeneralF2Verifier;
    fn decode(_: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(SelfJoin)
    }
}

impl QuerySnapshot for RangeSum {
    const KIND: SnapshotKind = SnapshotKind::RangeSumVerifier;
    fn decode(_: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RangeSum)
    }
}

impl QuerySnapshot for Moment {
    const KIND: SnapshotKind = SnapshotKind::MomentVerifier;
    fn encode(&self, w: &mut Writer) {
        w.u32(self.k());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u32()? {
            0 => Err(invalid("moment order k must be at least 1")),
            k => Ok(Moment::new(k)),
        }
    }
}

/// The single-point sum-check verifiers — F₂, RANGE-SUM, `F_k` and
/// general-`ℓ` F₂: query parameters ‖ LDE. Only the general-`ℓ` query
/// accepts a base other than 2.
impl<Q: QuerySnapshot, F: PrimeField> Persist for LdeDigest<Q, F> {
    const KIND: SnapshotKind = Q::KIND;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.evaluator().updates()
    }

    fn encode_state(&self, w: &mut Writer) {
        self.query().encode(w);
        encode_lde(self.evaluator(), w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let query = Q::decode(r)?;
        let lde = if Q::ANY_BASE {
            decode_lde::<F>(r)?
        } else {
            decode_binary_lde::<F>(r, Q::NAME)?
        };
        Ok(LdeDigest::with_query(query, lde))
    }
}

impl<F: PrimeField> Persist for InnerProductVerifier<F> {
    const KIND: SnapshotKind = SnapshotKind::InnerProductVerifier;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.evaluator_a().updates() + self.evaluator_b().updates()
    }

    fn encode_state(&self, w: &mut Writer) {
        // One point serves both digests; store it once.
        let a = self.evaluator_a();
        encode_params(a.params(), w);
        for &c in a.point() {
            w.field(c);
        }
        w.field(a.value()).u64(a.updates());
        let b = self.evaluator_b();
        w.field(b.value()).u64(b.updates());
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let params = decode_params(r)?;
        if params.base() != 2 {
            return Err(invalid("INNER PRODUCT digests must be binary"));
        }
        let point = decode_point::<F>(r, params.dimension() as usize)?;
        let acc_a = r.field::<F>()?;
        let updates_a = r.u64()?;
        let acc_b = r.field::<F>()?;
        let updates_b = r.u64()?;
        let lde_a = StreamingLdeEvaluator::from_saved(params, point.clone(), acc_a, updates_a);
        let lde_b = StreamingLdeEvaluator::from_saved(params, point, acc_b, updates_b);
        Ok(InnerProductVerifier::from_evaluators(lde_a, lde_b))
    }
}

// ---------------------------------------------------------------------
// Hash trees
// ---------------------------------------------------------------------

fn encode_hash_kind(kind: HashKind, w: &mut Writer) {
    w.u8(match kind {
        HashKind::Affine => 0,
        HashKind::Multilinear => 1,
    });
}

fn decode_hash_kind(r: &mut Reader<'_>) -> Result<HashKind, SnapshotError> {
    match r.u8()? {
        0 => Ok(HashKind::Affine),
        1 => Ok(HashKind::Multilinear),
        tag => Err(invalid(format!("unknown hash kind {tag}"))),
    }
}

fn decode_depth(r: &mut Reader<'_>) -> Result<usize, SnapshotError> {
    let depth = r.u32()? as usize;
    if !(1..=63).contains(&depth) {
        return Err(invalid(format!("tree depth {depth} outside [1, 63]")));
    }
    Ok(depth)
}

/// Encodes a root hasher's payload: combine rule, depth, level keys,
/// running root, update counter. Public for the `sip-cluster` book impls.
pub fn encode_root_hasher<F: PrimeField>(h: &StreamingRootHasher<F>, w: &mut Writer) {
    encode_hash_kind(h.kind(), w);
    w.u32(h.depth());
    for &k in h.keys() {
        w.field(k);
    }
    w.field(h.root()).u64(h.updates());
}

/// Decodes and validates one root-hasher payload (inverse of
/// [`encode_root_hasher`]).
pub fn decode_root_hasher<F: PrimeField>(
    r: &mut Reader<'_>,
) -> Result<StreamingRootHasher<F>, SnapshotError> {
    let kind = decode_hash_kind(r)?;
    let depth = decode_depth(r)?;
    let keys = decode_point::<F>(r, depth)?;
    let root = r.field::<F>()?;
    let updates = r.u64()?;
    Ok(StreamingRootHasher::from_saved(keys, kind, root, updates))
}

impl<F: PrimeField> Persist for StreamingRootHasher<F> {
    const KIND: SnapshotKind = SnapshotKind::RootHasher;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.updates()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_root_hasher(self, w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        decode_root_hasher(r)
    }
}

impl<F: PrimeField> Persist for SubVectorVerifier<F> {
    const KIND: SnapshotKind = SnapshotKind::SubVectorVerifier;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.hasher().updates()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_root_hasher(self.hasher(), w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(SubVectorVerifier::from_hasher(decode_root_hasher(r)?))
    }
}

fn encode_count_tree<F: PrimeField>(h: &CountTreeHasher<F>, w: &mut Writer) {
    w.u32(h.depth());
    for &k in h.keys() {
        w.field(k);
    }
    for &s in h.skeys() {
        w.field(s);
    }
    w.field(h.root()).u64(h.total());
}

fn decode_count_tree<F: PrimeField>(
    r: &mut Reader<'_>,
) -> Result<CountTreeHasher<F>, SnapshotError> {
    let depth = decode_depth(r)?;
    let keys = decode_point::<F>(r, depth)?;
    let skeys = decode_point::<F>(r, depth)?;
    let root = r.field::<F>()?;
    let n = r.u64()?;
    Ok(CountTreeHasher::from_saved(keys, skeys, root, n))
}

impl<F: PrimeField> Persist for CountTreeHasher<F> {
    const KIND: SnapshotKind = SnapshotKind::CountTreeHasher;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.total()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_count_tree(self, w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        decode_count_tree(r)
    }
}

// ---------------------------------------------------------------------
// Frequency vectors (prover-side dataset state)
// ---------------------------------------------------------------------

fn encode_frequency(fv: &FrequencyVector, w: &mut Writer) {
    w.u64(fv.universe());
    match fv.dense_values() {
        Some(values) => {
            w.u8(0).count(values.len());
            for &v in values {
                w.i64(v);
            }
        }
        None => {
            w.u8(1).count(fv.support_size() as usize);
            for (i, f) in fv.nonzero() {
                w.u64(i).i64(f);
            }
        }
    }
}

fn decode_frequency(r: &mut Reader<'_>) -> Result<FrequencyVector, SnapshotError> {
    let u = r.u64()?;
    if u == 0 {
        return Err(invalid("frequency vector universe must be nonzero"));
    }
    match r.u8()? {
        0 => {
            if u > DENSE_LIMIT {
                return Err(invalid(format!(
                    "dense representation over {u} keys exceeds the {DENSE_LIMIT} dense limit"
                )));
            }
            let n = r.count(8)?;
            if n as u64 != u {
                return Err(invalid(format!(
                    "dense array of {n} entries does not cover universe {u}"
                )));
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.i64()?);
            }
            Ok(FrequencyVector::from_dense(u, values))
        }
        1 => {
            let n = r.count(16)?;
            let mut entries = Vec::with_capacity(n);
            let mut last: Option<u64> = None;
            for _ in 0..n {
                let i = r.u64()?;
                let f = r.i64()?;
                if i >= u {
                    return Err(invalid(format!("sparse index {i} outside universe {u}")));
                }
                if last.is_some_and(|p| p >= i) {
                    return Err(invalid("sparse entries must be strictly increasing"));
                }
                if f == 0 {
                    return Err(invalid("sparse entries must be nonzero"));
                }
                last = Some(i);
                entries.push((i, f));
            }
            Ok(FrequencyVector::from_sparse_entries(u, entries))
        }
        tag => Err(invalid(format!("unknown frequency representation {tag}"))),
    }
}

impl Persist for FrequencyVector {
    const KIND: SnapshotKind = SnapshotKind::FrequencyVector;

    fn field_id() -> u8 {
        FIELD_INDEPENDENT
    }

    fn update_count(&self) -> u64 {
        self.support_size()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_frequency(self, w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        decode_frequency(r)
    }
}

impl<F: PrimeField> Persist for sip_kvstore::CloudStore<F> {
    const KIND: SnapshotKind = SnapshotKind::CloudStore;

    fn field_id() -> u8 {
        // The three vectors hold no field elements; the store is persisted
        // field-independently so a server restart may even change fields
        // (verifier digests, not prover data, pin the field).
        FIELD_INDEPENDENT
    }

    fn update_count(&self) -> u64 {
        self.encoded_vector().support_size()
    }

    fn encode_state(&self, w: &mut Writer) {
        w.u32(self.log_u());
        encode_frequency(self.encoded_vector(), w);
        encode_frequency(self.presence_vector(), w);
        encode_frequency(self.raw_vector(), w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let log_u = decode_log_u(r)?;
        let u = 1u64 << log_u;
        let encoded = decode_frequency(r)?;
        let presence = decode_frequency(r)?;
        let raw = decode_frequency(r)?;
        for (fv, name) in [
            (&encoded, "encoded"),
            (&presence, "presence"),
            (&raw, "raw"),
        ] {
            if fv.universe() != u {
                return Err(invalid(format!(
                    "{name} vector universe {} disagrees with log_u {log_u}",
                    fv.universe()
                )));
            }
        }
        Ok(sip_kvstore::CloudStore::from_vectors(
            log_u, encoded, presence, raw,
        ))
    }
}

// ---------------------------------------------------------------------
// Key-value clients
// ---------------------------------------------------------------------

/// Decodes a `log_u`, refusing values outside `[1, 63]`.
pub fn decode_log_u(r: &mut Reader<'_>) -> Result<u32, SnapshotError> {
    let log_u = r.u32()?;
    if !(1..=63).contains(&log_u) {
        return Err(invalid(format!("log_u {log_u} outside [1, 63]")));
    }
    Ok(log_u)
}

/// Decodes a counted vector of nested digest payloads, validating each
/// element's depth/dimension against the client's `log_u`.
fn decode_digest_vec<T>(
    r: &mut Reader<'_>,
    decode: impl Fn(&mut Reader<'_>) -> Result<T, SnapshotError>,
    depth_of: impl Fn(&T) -> u32,
    log_u: u32,
    family: &str,
) -> Result<Vec<T>, SnapshotError> {
    // A digest payload is at least a handful of bytes; 8 bounds the forged
    // count without ever rejecting a legitimate one.
    let n = r.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let d = decode(r)?;
        if depth_of(&d) != log_u {
            return Err(invalid(format!(
                "{family} digest depth {} disagrees with client log_u {log_u}",
                depth_of(&d)
            )));
        }
        out.push(d);
    }
    Ok(out)
}

fn encode_kv_client<F: PrimeField>(c: &Client<F>, w: &mut Writer) {
    w.u32(c.log_u());
    let (reporting, range_sums, range_counts, f2s, heavies) = c.digests();
    w.count(reporting.len());
    for d in reporting {
        encode_root_hasher(d.hasher(), w);
    }
    w.count(range_sums.len());
    for d in range_sums {
        encode_lde(d.evaluator(), w);
    }
    w.count(range_counts.len());
    for d in range_counts {
        encode_lde(d.evaluator(), w);
    }
    w.count(f2s.len());
    for d in f2s {
        encode_lde(d.evaluator(), w);
    }
    w.count(heavies.len());
    for d in heavies {
        encode_count_tree(d, w);
    }
    w.u64(c.puts());
}

fn decode_kv_client<F: PrimeField>(r: &mut Reader<'_>) -> Result<Client<F>, SnapshotError> {
    let log_u = decode_log_u(r)?;
    let reporting = decode_digest_vec(
        r,
        |r| decode_root_hasher::<F>(r).map(SubVectorVerifier::from_hasher),
        |d| d.hasher().depth(),
        log_u,
        "reporting",
    )?;
    let binary_digest = |r: &mut Reader<'_>| decode_binary_lde::<F>(r, "kv aggregate");
    let range_sums = decode_digest_vec(
        r,
        |r| binary_digest(r).map(RangeSumVerifier::from_evaluator),
        |d| d.evaluator().params().dimension(),
        log_u,
        "range-sum",
    )?;
    let range_counts = decode_digest_vec(
        r,
        |r| binary_digest(r).map(RangeSumVerifier::from_evaluator),
        |d| d.evaluator().params().dimension(),
        log_u,
        "range-count",
    )?;
    let f2s = decode_digest_vec(
        r,
        |r| binary_digest(r).map(F2Verifier::from_evaluator),
        |d| d.evaluator().params().dimension(),
        log_u,
        "f2",
    )?;
    let heavies = decode_digest_vec(r, decode_count_tree::<F>, |d| d.depth(), log_u, "heavy")?;
    let puts = r.u64()?;
    // `Client::from_digests` rebuilds one packed weight table per
    // reporting and aggregate digest — ~50× the digest's payload bytes at
    // log_u = 18. Same cap, same reason as the multi-point decoder above.
    let banked = (reporting.len() + range_sums.len() + range_counts.len() + f2s.len()) as u64;
    let per_digest = sip_lde::packed_table_words(LdeParams::binary(log_u)) as u64;
    let total = banked.saturating_mul(per_digest);
    if total > MAX_MULTI_TABLE_WORDS {
        return Err(invalid(format!(
            "{banked} kv digests × {per_digest} derived words = {total} exceeds the \
             {MAX_MULTI_TABLE_WORDS}-word rebuild cap"
        )));
    }
    Ok(Client::from_digests(
        log_u,
        reporting,
        range_sums,
        range_counts,
        f2s,
        heavies,
        puts,
    ))
}

impl<F: PrimeField> Persist for Client<F> {
    const KIND: SnapshotKind = SnapshotKind::KvClient;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.puts()
    }

    fn encode_state(&self, w: &mut Writer) {
        encode_kv_client(self, w);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        decode_kv_client(r)
    }
}

/// Decodes and validates a `(log_u, shards)` fleet plan.
pub fn decode_plan(r: &mut Reader<'_>) -> Result<ShardPlan, SnapshotError> {
    let log_u = decode_log_u(r)?;
    let shards = r.u32()?;
    ShardPlan::validate(log_u, shards).map_err(invalid)
}

impl<F: PrimeField> Persist for ShardedClient<F> {
    const KIND: SnapshotKind = SnapshotKind::ShardedKvClient;

    fn field_id() -> u8 {
        field_id_of::<F>()
    }

    fn update_count(&self) -> u64 {
        self.shard_clients().iter().map(|c| c.puts()).sum()
    }

    fn encode_state(&self, w: &mut Writer) {
        let plan = self.plan();
        w.u32(plan.log_u()).u32(plan.shards());
        for c in self.shard_clients() {
            encode_kv_client(c, w);
        }
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let plan = decode_plan(r)?;
        let mut clients = Vec::with_capacity(plan.shards() as usize);
        for _ in 0..plan.shards() {
            let c = decode_kv_client::<F>(r)?;
            if c.log_u() != plan.log_u() {
                return Err(invalid(format!(
                    "shard client log_u {} disagrees with plan log_u {}",
                    c.log_u(),
                    plan.log_u()
                )));
            }
            clients.push(c);
        }
        Ok(ShardedClient::from_shard_clients(plan, clients))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{snapshot_from_bytes, snapshot_to_bytes};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::{Fp127, Fp61};
    use sip_streaming::{workloads, Update};

    fn stream(u: u64) -> Vec<Update> {
        workloads::with_deletions(300, u, 0.2, 7)
    }

    /// Wraps a hand-built payload in a correctly-checksummed Fp61 envelope
    /// (update count 0) — what a forger who can fix the checksum submits.
    fn fp61_envelope(kind: SnapshotKind, payload: Vec<u8>) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&crate::SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&crate::SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(kind as u16).to_le_bytes());
        bytes.push(61);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let sum = crate::fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn streaming_lde_roundtrips_bit_identically() {
        for &(ell, d) in &[(2u64, 10u32), (3, 5), (16, 3)] {
            let params = LdeParams::new(ell, d);
            let mut rng = StdRng::seed_from_u64(1);
            let mut e = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
            e.update_batch(&stream(params.universe()));
            let bytes = snapshot_to_bytes(&e);
            let back: StreamingLdeEvaluator<Fp61> = snapshot_from_bytes(&bytes).unwrap();
            assert_eq!(back.params(), e.params());
            assert_eq!(back.point(), e.point());
            assert_eq!(back.value(), e.value());
            assert_eq!(back.updates(), e.updates());
            // The derived weight tables are rebuilt: weights agree everywhere.
            for i in [0u64, 1, params.universe() - 1] {
                assert_eq!(back.weight(i), e.weight(i));
            }
        }
    }

    #[test]
    fn multi_lde_roundtrips() {
        let params = LdeParams::new(2, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = MultiLdeEvaluator::<Fp127>::random(params, 4, &mut rng);
        e.update_batch(&stream(params.universe()));
        let back: MultiLdeEvaluator<Fp127> = snapshot_from_bytes(&snapshot_to_bytes(&e)).unwrap();
        assert_eq!(back.values(), e.values());
        assert_eq!(back.updates(), e.updates());
        for p in 0..4 {
            assert_eq!(back.point(p), e.point(p));
        }
    }

    #[test]
    fn wrong_kind_and_wrong_field_are_typed_errors() {
        let params = LdeParams::new(2, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let e = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
        let bytes = snapshot_to_bytes(&e);
        assert!(matches!(
            snapshot_from_bytes::<MultiLdeEvaluator<Fp61>>(&bytes).unwrap_err(),
            SnapshotError::WrongKind { .. }
        ));
        assert!(matches!(
            snapshot_from_bytes::<StreamingLdeEvaluator<Fp127>>(&bytes).unwrap_err(),
            SnapshotError::FieldMismatch {
                expected: 127,
                found: 61
            }
        ));
    }

    #[test]
    fn forged_giant_chi_table_params_are_refused_cheaply() {
        // A re-checksummed forgery claiming ℓ = 2^40, d = 1 is structurally
        // valid (2^40 fits u64) but reconstructing its χ table would be a
        // terabyte-scale allocation; the decoder must refuse on the
        // parameter check, before any allocation.
        let mut w = Writer::new();
        w.u64(1u64 << 40).u32(1); // params
        w.field(Fp61::from_u64(3)); // point (d = 1)
        w.field(Fp61::from_u64(0)); // acc
        w.u64(0); // updates
        let bytes = fp61_envelope(SnapshotKind::StreamingLde, w.into_bytes());
        let err = snapshot_from_bytes::<StreamingLdeEvaluator<Fp61>>(&bytes).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Invalid(d) if d.contains("χ table")),
            "{err:?}"
        );
    }

    #[test]
    fn forged_multi_point_count_is_refused_before_table_rebuild() {
        // A small, correctly-checksummed multi-point snapshot whose k and
        // payload are honest but whose derived-table rebuild would exceed
        // the cap: the decoder must refuse before building any table.
        // (d = 20 binary ⇒ 2·2^10-word tables per point; 16k points ⇒
        // ~33M words > MAX_MULTI_TABLE_WORDS.)
        let params = LdeParams::binary(20);
        let per_point = sip_lde::packed_table_words(params) as u64 + 21;
        let k = (MAX_MULTI_TABLE_WORDS / per_point + 1) as usize;
        let mut w = Writer::new();
        w.u64(2).u32(20).count(k);
        for _ in 0..k {
            for j in 0..20u64 {
                w.field(Fp61::from_u64(j + 1));
            }
        }
        for _ in 0..k {
            w.field(Fp61::from_u64(0));
        }
        w.u64(0);
        let bytes = fp61_envelope(SnapshotKind::MultiLde, w.into_bytes());
        let err = snapshot_from_bytes::<MultiLdeEvaluator<Fp61>>(&bytes).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Invalid(d) if d.contains("rebuild cap")),
            "{err:?}"
        );
    }

    #[test]
    fn forged_kv_digest_count_is_refused_before_table_rebuild() {
        // A correctly-checksummed kv-client snapshot whose digests are all
        // well-formed but whose count would rebuild more packed-table words
        // than the cap: refused before `Client::from_digests` builds any.
        // (log_u = 20 ⇒ 2·2^10-word tables per digest; ~8k reporting
        // digests ⇒ > MAX_MULTI_TABLE_WORDS from a ~1.5 MB file.)
        let log_u = 20u32;
        let forged = |k: usize| {
            let mut w = Writer::new();
            w.u32(log_u).count(k);
            for _ in 0..k {
                w.u8(0).u32(log_u); // affine, depth
                for j in 0..log_u as u64 {
                    w.field(Fp61::from_u64(j + 1));
                }
                w.field(Fp61::from_u64(0)).u64(0); // root, updates
            }
            // No range-sum, range-count, F₂ or heavy digests; zero puts.
            w.count(0).count(0).count(0).count(0).u64(0);
            fp61_envelope(SnapshotKind::KvClient, w.into_bytes())
        };
        let per_digest = sip_lde::packed_table_words(LdeParams::binary(log_u)) as u64;
        let over = (MAX_MULTI_TABLE_WORDS / per_digest + 1) as usize;
        let err = snapshot_from_bytes::<Client<Fp61>>(&forged(over))
            .err()
            .expect("an over-cap digest count must be refused");
        assert!(
            matches!(&err, SnapshotError::Invalid(d) if d.contains("rebuild cap")),
            "{err:?}"
        );
        // The same payload shape under the cap restores: it is the count
        // that was refused.
        let small = snapshot_from_bytes::<Client<Fp61>>(&forged(3)).unwrap();
        assert_eq!(small.remaining_budget(), (3, 0, 0));
    }

    #[test]
    fn frequency_vector_preserves_representation() {
        let dense = FrequencyVector::from_stream(64, &stream(64));
        assert!(dense.is_dense());
        let back: FrequencyVector = snapshot_from_bytes(&snapshot_to_bytes(&dense)).unwrap();
        assert!(back.is_dense());
        assert_eq!(
            back.nonzero().collect::<Vec<_>>(),
            dense.nonzero().collect::<Vec<_>>()
        );

        let mut sparse = FrequencyVector::new_sparse(1 << 40);
        sparse.apply(Update::new(77, -3));
        sparse.apply(Update::new(1 << 35, 9));
        let back: FrequencyVector = snapshot_from_bytes(&snapshot_to_bytes(&sparse)).unwrap();
        assert!(!back.is_dense());
        assert_eq!(
            back.nonzero().collect::<Vec<_>>(),
            sparse.nonzero().collect::<Vec<_>>()
        );
    }

    #[test]
    fn non_canonical_sparse_forms_are_refused() {
        // Hand-built payloads: out-of-order, out-of-universe, zero entry.
        fn forged(u: u64, entries: &[(u64, i64)]) -> Vec<u8> {
            let mut w = Writer::new();
            w.u64(u).u8(1).count(entries.len());
            for &(i, f) in entries {
                w.u64(i).i64(f);
            }
            let fv = FrequencyVector::new_sparse(1); // envelope donor
            let mut bytes = snapshot_to_bytes(&fv);
            // Rebuild envelope around the forged payload.
            let payload = w.into_bytes();
            bytes.truncate(4 + 2 + 2 + 1 + 8); // up to update-count
            let mut out = bytes;
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
            let sum = crate::fnv1a64(&out);
            out.extend_from_slice(&sum.to_le_bytes());
            out
        }
        for (entries, what) in [
            (vec![(5u64, 1i64), (3, 1)], "out of order"),
            (vec![(3, 1), (3, 1)], "duplicate"),
            (vec![(200, 1)], "out of universe"),
            (vec![(3, 0)], "zero entry"),
        ] {
            let bytes = forged(100, &entries);
            let err = snapshot_from_bytes::<FrequencyVector>(&bytes);
            assert!(err.is_err(), "{what} decoded: {err:?}");
        }
    }

    #[test]
    fn kv_client_roundtrips_and_continues() {
        use sip_kvstore::{CloudStore, QueryBudget};
        let mut rng = StdRng::seed_from_u64(4);
        let mut client = Client::<Fp61>::new(8, QueryBudget::default(), &mut rng);
        let mut server = CloudStore::<Fp61>::new(8);
        client.put(3, 10, &mut server);
        client.put(200, 55, &mut server);
        let bytes = snapshot_to_bytes(&client);
        let mut back: Client<Fp61> = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back.puts(), 2);
        assert_eq!(back.remaining_budget(), client.remaining_budget());
        // The restored client keeps verifying against the same server.
        back.put(40, 999, &mut server);
        assert_eq!(back.get(3, &server).unwrap().value, Some(10));
        assert_eq!(back.get(40, &server).unwrap().value, Some(999));
        assert_eq!(
            back.range_sum(0, 255, &server).unwrap().value,
            10 + 55 + 999
        );
    }
}

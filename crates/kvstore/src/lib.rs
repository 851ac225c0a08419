//! A verified outsourced key–value store — the paper's motivating example.
//!
//! "Consider the motivating example of a cloud computing service which
//! implements a key-value store. … The data owner sends (key, value) pairs
//! to the cloud to be stored … the data owner never actually stores all the
//! data at the same time (this is delegated to the cloud), but does see
//! each piece as it is uploaded."
//!
//! * [`CloudStore`] — the untrusted server: holds all the data, answers
//!   queries *with proofs* (it plays the prover of every protocol).
//! * [`Client`] — the data owner: uploads puts while maintaining a handful
//!   of `O(log u)`-word digests, then issues verified queries:
//!   `get`, `range`, `predecessor`/`successor` (next/previous key),
//!   `range_sum`, `heavy_keys`, and `distinct_keys` — exactly the
//!   operations Section 1's key-value scenario lists.
//! * [`MaliciousStore`] — a tampering wrapper used by the failure-injection
//!   tests and the `dishonest_prover` example.
//!
//! ## Multiple queries
//!
//! Reusing verifier randomness across queries is unsound (Section 7,
//! "Multiple Queries": "re-running the protocols for a new query with the
//! same choices of random numbers does not provide the same security
//! guarantees"). Following the paper's remedy, the client keeps a *budget*
//! of independent digest copies — each query consumes one — at `O(log u)`
//! words apiece.
//!
//! ## Value encoding
//!
//! Values are stored as `value + 1` (the paper's DICTIONARY trick) so a
//! verified zero decodes to "not found". `range_sum` composes two verified
//! aggregates — `Σ(value+1)` and the range *count* — to recover the true
//! sum, and `self_join_size` runs over a third, raw-value vector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sharded;

pub use sharded::{boxed_fleet, ShardedAnswer, ShardedClient};

pub use sip_core::heavy_hitters::HeavySession;
pub use sip_core::subvector::ReportingSession;
pub use sip_core::sumcheck::SumCheckSession;

use rand::Rng;
use sip_core::digest_bank::{block_stage, BlockStage, DigestBank, STAGE_BLOCK};
use sip_core::error::Rejection;
use sip_core::heavy_hitters::{drive_heavy_hitters, CountTreeHasher, HhProver, LevelDisclosure};
use sip_core::reporting::Neighbour;
use sip_core::subvector::{
    drive_subvector, RoundReply, RoundRequest, SubVectorAnswer, SubVectorProver, SubVectorVerifier,
};
use sip_core::sumcheck::f2::{F2Prover, F2Verifier};
use sip_core::sumcheck::range_sum::{RangeSumProver, RangeSumVerifier};
use sip_core::sumcheck::{drive_session, prove_oneshot, OneShotProof, ProverWalk};
use sip_core::transcript::query_transcript;
use sip_core::CostReport;
use sip_field::PrimeField;
use sip_streaming::{CellOverflow, FrequencyVector, Update};

/// How many independent digest copies the client provisions per query
/// family (each query consumes one copy).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QueryBudget {
    /// Reporting queries: `get`, `range`, `predecessor`, `successor`.
    pub reporting: usize,
    /// Aggregates: `range_sum` (each consumes **two**: sum + count) and
    /// `self_join_size`.
    pub aggregate: usize,
    /// `heavy_keys` queries.
    pub heavy: usize,
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget {
            reporting: 16,
            aggregate: 8,
            heavy: 4,
        }
    }
}

/// What a key-value server must provide. [`CloudStore`] is the honest
/// implementation; [`MaliciousStore`] decorates it with lies, and
/// `sip-server`'s remote store speaks the same trait over a socket.
pub trait KvServer<F: PrimeField> {
    /// Ingests one uploaded pair (already encoded as a stream update).
    fn ingest(&mut self, up: Update);

    /// Ingests a whole batch of uploaded pairs. The default loops
    /// [`Self::ingest`]; implementations with a cheaper bulk path
    /// ([`CloudStore`]'s batched vectors, `sip-server`'s buffered wire
    /// frames) override it. Behaviour is identical either way.
    fn ingest_batch(&mut self, ups: &[Update]) {
        for &up in ups {
            self.ingest(up);
        }
    }
    /// Starts a reporting query over the `value+1` vector.
    fn reporting(&self) -> Box<dyn ReportingSession<F> + '_>;
    /// Starts a range-sum query over the `value+1` vector.
    fn range_sum(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_>;
    /// Starts a range-count query (presence vector).
    fn range_count(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_>;
    /// Starts a self-join-size query over the raw value vector.
    fn self_join(&self) -> Box<dyn SumCheckSession<F> + '_>;
    /// Answers a self-join-size query as one sealed [`OneShotProof`]: the
    /// server walks every sum-check round locally over the revealed
    /// challenge prefix (`log_u = challenges.len() + 1`) instead of
    /// waiting on per-round challenges.
    ///
    /// The default drives [`Self::self_join`] through the honest walk, so
    /// decorated sessions (a [`MaliciousStore`]'s lies, a remote store's
    /// transport) flow through unchanged; `sip-server`'s remote store
    /// overrides this to ship the whole exchange as one wire round trip.
    fn self_join_oneshot(&self, challenges: &[F]) -> Result<OneShotProof<F>, Rejection> {
        let log_u = challenges.len() as u32 + 1;
        let t = query_transcript::<F>("self-join", log_u, None, &[], challenges);
        prove_oneshot(&mut *self.self_join(), t, challenges, 2)
    }
    /// Starts a heavy-keys query over the `value+1` vector.
    fn heavy(&self, threshold: u64) -> Box<dyn HeavySession<F> + '_>;
    /// The claimed predecessor of `q` (a *claim*, verified by the client).
    fn claim_predecessor(&self, q: u64) -> Result<Option<u64>, Rejection>;
    /// The claimed successor of `q`.
    fn claim_successor(&self, q: u64) -> Result<Option<u64>, Rejection>;
}

// ---------------------------------------------------------------------
// Honest server
// ---------------------------------------------------------------------

/// The honest cloud store: materialises everything, proves everything.
#[derive(Clone)]
pub struct CloudStore<F: PrimeField> {
    log_u: u32,
    /// `value + 1` per key (0 = absent).
    encoded: FrequencyVector,
    /// 1 per present key.
    presence: FrequencyVector,
    /// raw value per key.
    raw: FrequencyVector,
    _marker: core::marker::PhantomData<F>,
}

impl<F: PrimeField> CloudStore<F> {
    /// An empty store over keys `[2^log_u]`.
    pub fn new(log_u: u32) -> Self {
        let u = 1u64 << log_u;
        CloudStore {
            log_u,
            encoded: FrequencyVector::new(u),
            presence: FrequencyVector::new(u),
            raw: FrequencyVector::new(u),
            _marker: core::marker::PhantomData,
        }
    }

    /// An empty store with sparse vectors regardless of universe size:
    /// memory proportional to the keys actually stored, not to `2^log_u`.
    /// This is what a server should use when `log_u` is chosen by an
    /// untrusted client — three dense vectors at `log_u = 22` cost ~100 MB
    /// before a single put arrives.
    pub fn new_sparse(log_u: u32) -> Self {
        let u = 1u64 << log_u;
        CloudStore {
            log_u,
            encoded: FrequencyVector::new_sparse(u),
            presence: FrequencyVector::new_sparse(u),
            raw: FrequencyVector::new_sparse(u),
            _marker: core::marker::PhantomData,
        }
    }

    /// Rebuilds a store from its three persisted vectors (server dataset
    /// reload). The derived-vector invariants are the caller's problem:
    /// the trio is persisted together and restored together, and a server
    /// that lies about them only produces verifier rejections.
    ///
    /// # Panics
    /// Panics if any vector's universe is not `2^log_u`.
    pub fn from_vectors(
        log_u: u32,
        encoded: FrequencyVector,
        presence: FrequencyVector,
        raw: FrequencyVector,
    ) -> Self {
        let u = 1u64 << log_u;
        assert_eq!(encoded.universe(), u, "encoded vector universe mismatch");
        assert_eq!(presence.universe(), u, "presence vector universe mismatch");
        assert_eq!(raw.universe(), u, "raw vector universe mismatch");
        CloudStore {
            log_u,
            encoded,
            presence,
            raw,
            _marker: core::marker::PhantomData,
        }
    }

    /// Direct (unverified) lookup — what a trusting client would use.
    pub fn unverified_get(&self, key: u64) -> Option<u64> {
        let e = self.encoded.get(key);
        (e != 0).then(|| (e - 1) as u64)
    }

    /// Universe size exponent.
    pub fn log_u(&self) -> u32 {
        self.log_u
    }

    /// The `value + 1` vector (0 = absent) — what reporting, range-sum and
    /// heavy-keys queries prove over. Exposed so out-of-process servers
    /// (`sip-server`) can build the same provers this crate uses.
    pub fn encoded_vector(&self) -> &FrequencyVector {
        &self.encoded
    }

    /// The 0/1 presence vector (range-count queries).
    pub fn presence_vector(&self) -> &FrequencyVector {
        &self.presence
    }

    /// The raw value vector (self-join-size queries).
    pub fn raw_vector(&self) -> &FrequencyVector {
        &self.raw
    }

    /// [`KvServer::ingest_batch`], or nothing at all if a put would carry a
    /// cell past the `i64` range. Puts carry `δ = value + 1 ≥ 1`, so a
    /// cell's presence count and raw value stay between 0 and its
    /// `value + 1` sum: that vector overflows first, and is the one checked.
    ///
    /// # Errors
    /// [`CellOverflow`] names the cell; the store is then as it was.
    pub fn try_ingest_batch(&mut self, ups: &[Update]) -> Result<(), CellOverflow> {
        self.encoded.try_apply_batch(ups)?;
        let presence: Vec<Update> = ups.iter().map(|up| Update::new(up.index, 1)).collect();
        self.presence.apply_batch(&presence);
        let raw: Vec<Update> = ups
            .iter()
            .map(|up| Update::new(up.index, up.delta - 1))
            .collect();
        self.raw.apply_batch(&raw);
        Ok(())
    }
}

impl<F: PrimeField> KvServer<F> for CloudStore<F> {
    fn ingest(&mut self, up: Update) {
        self.encoded.apply(up);
        self.presence.apply(Update::new(up.index, 1));
        self.raw.apply(Update::new(up.index, up.delta - 1));
    }

    fn ingest_batch(&mut self, ups: &[Update]) {
        if let Err(e) = self.try_ingest_batch(ups) {
            panic!("{e}");
        }
    }

    fn reporting(&self) -> Box<dyn ReportingSession<F> + '_> {
        Box::new(SubVectorProver::new(&self.encoded, self.log_u))
    }

    fn range_sum(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(ProverWalk(RangeSumProver::new(
            &self.encoded,
            self.log_u,
            q_l,
            q_r,
        )))
    }

    fn range_count(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(ProverWalk(RangeSumProver::new(
            &self.presence,
            self.log_u,
            q_l,
            q_r,
        )))
    }

    fn self_join(&self) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(ProverWalk(F2Prover::new(&self.raw, self.log_u)))
    }

    fn heavy(&self, threshold: u64) -> Box<dyn HeavySession<F> + '_> {
        Box::new(HhProver::new(&self.encoded, self.log_u, threshold))
    }

    fn claim_predecessor(&self, q: u64) -> Result<Option<u64>, Rejection> {
        Ok(self.encoded.predecessor(q))
    }

    fn claim_successor(&self, q: u64) -> Result<Option<u64>, Rejection> {
        Ok(self.encoded.successor(q))
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A verified query result with its protocol cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer<T> {
    /// The verified value.
    pub value: T,
    /// Cost accounting for the query's protocol run.
    pub report: CostReport,
}

/// The data owner: uploads data, keeps digests, issues verified queries.
///
/// Every put must reach every remaining digest. The reporting, range-sum,
/// range-count and self-join digests all weigh a key by a product over its
/// bits, so each family sits in a [`DigestBank`]: the digests stay the
/// source of truth (what [`Self::digests`], checkpoints and
/// [`Self::space_words`] see) and the packed tables derived from their keys
/// let one decomposition of each key serve all of them. The heavy-keys
/// count-tree hash is a *sum* of such products, one per level, and keeps
/// its own per-digest loop.
pub struct Client<F: PrimeField> {
    log_u: u32,
    reporting: DigestBank<F, SubVectorVerifier<F>>,
    range_sums: DigestBank<F, RangeSumVerifier<F>>,
    range_counts: DigestBank<F, RangeSumVerifier<F>>,
    f2s: DigestBank<F, F2Verifier<F>>,
    heavies: Vec<CountTreeHasher<F>>,
    /// Scratch: the block of keys currently being swept, and its delta
    /// columns in staged order — `value+1`, `value`, and as many ones as
    /// the longest block so far.
    stage: BlockStage,
    plus_one: Vec<F>,
    raw: Vec<F>,
    ones: Vec<F>,
    puts: u64,
}

impl<F: PrimeField> Client<F> {
    /// Provisions digests for `budget` queries over keys `[2^log_u]`.
    pub fn new<R: Rng + ?Sized>(log_u: u32, budget: QueryBudget, rng: &mut R) -> Self {
        let reporting = (0..budget.reporting)
            .map(|_| SubVectorVerifier::new(log_u, rng))
            .collect();
        let range_sums = (0..budget.aggregate)
            .map(|_| RangeSumVerifier::new(log_u, rng))
            .collect();
        let range_counts = (0..budget.aggregate)
            .map(|_| RangeSumVerifier::new(log_u, rng))
            .collect();
        let f2s = (0..budget.aggregate)
            .map(|_| F2Verifier::new(log_u, rng))
            .collect();
        let heavies = (0..budget.heavy)
            .map(|_| CountTreeHasher::random(log_u, rng))
            .collect();
        Self::from_digests(log_u, reporting, range_sums, range_counts, f2s, heavies, 0)
    }

    /// Uploads `(key, value)` to the server while updating every digest.
    ///
    /// Each key may be put at most once (the paper's DICTIONARY model);
    /// overwriting would require a verified read-modify-write.
    ///
    /// # Panics
    /// Panics if the key is out of range.
    pub fn put(&mut self, key: u64, value: u64, server: &mut dyn KvServer<F>) {
        let encoded = self.observe_batch_impl(&[(key, value)]);
        server.ingest(encoded[0]);
    }

    /// Updates every digest for `(key, value)` **without** uploading it.
    ///
    /// This is the attach-side half of multi-tenant serving: the data
    /// owner `put`s once (digests + upload), publishes the dataset, and
    /// every other verifier `observe`s the same put stream to build its
    /// own independent digests before attaching to the published snapshot
    /// — the server already holds the data, so re-uploading it would only
    /// duplicate state. Soundness is per-verifier randomness, so observed
    /// digests verify exactly like uploaded ones.
    ///
    /// # Panics
    /// Panics if the key is out of range.
    pub fn observe(&mut self, key: u64, value: u64) {
        self.observe_batch_impl(&[(key, value)]);
    }

    /// Uploads a whole batch of `(key, value)` pairs, updating every digest
    /// through the batched ingest path (digest values are bit-identical to
    /// repeated [`Self::put`]).
    ///
    /// # Panics
    /// Panics if any key is out of range — before any digest or the server
    /// has seen any of the batch.
    pub fn put_batch(&mut self, pairs: &[(u64, u64)], server: &mut dyn KvServer<F>) {
        let encoded = self.observe_batch_impl(pairs);
        server.ingest_batch(&encoded);
    }

    /// Updates every digest for a whole batch of `(key, value)` pairs
    /// **without** uploading them (the attach-side half of
    /// [`Self::observe`], batched).
    ///
    /// # Panics
    /// Panics if any key is out of range — before any digest has seen any
    /// of the batch.
    pub fn observe_batch(&mut self, pairs: &[(u64, u64)]) {
        self.observe_batch_impl(pairs);
    }

    /// The one digest pass behind every put and observe; returns the
    /// encoded `value+1` update batch for the callers that upload it.
    ///
    /// The three derived streams — `value+1` (reporting, range-sum), `1`
    /// (range-count) and `value` (self-join) — share their keys, so each
    /// block of keys is staged once and the streams differ only in the
    /// delta column handed to each family's sweep.
    fn observe_batch_impl(&mut self, pairs: &[(u64, u64)]) -> Vec<Update> {
        let u = 1u64 << self.log_u;
        for &(key, _) in pairs {
            assert!(key < u, "key out of range");
        }
        let encoded: Vec<Update> = pairs
            .iter()
            .map(|&(k, v)| Update::new(k, v as i64 + 1))
            .collect();
        for (block, enc) in pairs.chunks(STAGE_BLOCK).zip(encoded.chunks(STAGE_BLOCK)) {
            self.stage.stage(block.iter().map(|&(k, _)| k));
            self.stage
                .column(&mut self.plus_one, |t| F::from_i64(enc[t].delta));
            self.stage
                .column(&mut self.raw, |t| F::from_i64(block[t].1 as i64));
            if self.ones.len() < block.len() {
                self.ones.resize(block.len(), F::ONE);
            }
            self.reporting.sweep(&self.stage, &self.plus_one);
            self.range_sums.sweep(&self.stage, &self.plus_one);
            self.range_counts
                .sweep(&self.stage, &self.ones[..block.len()]);
            self.f2s.sweep(&self.stage, &self.raw);
        }
        self.reporting.flush();
        self.range_sums.flush();
        self.range_counts.flush();
        self.f2s.flush();
        for d in &mut self.heavies {
            d.update_batch(&encoded);
        }
        self.puts += pairs.len() as u64;
        encoded
    }

    /// The universe exponent this client was provisioned for.
    pub fn log_u(&self) -> u32 {
        self.log_u
    }

    /// Number of puts observed so far (checkpoint metadata).
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Borrowed views of every remaining digest copy, grouped by family —
    /// what a client checkpoint must capture: `(reporting, range-sum,
    /// range-count, f2, heavy)`.
    #[allow(clippy::type_complexity)]
    pub fn digests(
        &self,
    ) -> (
        &[SubVectorVerifier<F>],
        &[RangeSumVerifier<F>],
        &[RangeSumVerifier<F>],
        &[F2Verifier<F>],
        &[CountTreeHasher<F>],
    ) {
        (
            self.reporting.digests(),
            self.range_sums.digests(),
            self.range_counts.digests(),
            self.f2s.digests(),
            &self.heavies,
        )
    }

    /// Rebuilds a client from checkpointed digests (checkpoint resume).
    /// The remaining budget is simply the lengths of the restored digest
    /// vectors — consumed copies are consumed forever, across restarts.
    /// The packed tables are derived from the digests' keys here, never
    /// restored.
    ///
    /// # Panics
    /// Panics if a reporting or aggregate digest is not over `[2^log_u]`.
    pub fn from_digests(
        log_u: u32,
        reporting: Vec<SubVectorVerifier<F>>,
        range_sums: Vec<RangeSumVerifier<F>>,
        range_counts: Vec<RangeSumVerifier<F>>,
        f2s: Vec<F2Verifier<F>>,
        heavies: Vec<CountTreeHasher<F>>,
        puts: u64,
    ) -> Self {
        Client {
            log_u,
            reporting: DigestBank::new(log_u, reporting),
            range_sums: DigestBank::new(log_u, range_sums),
            range_counts: DigestBank::new(log_u, range_counts),
            f2s: DigestBank::new(log_u, f2s),
            heavies,
            stage: block_stage(log_u),
            plus_one: Vec::new(),
            raw: Vec::new(),
            ones: Vec::new(),
            puts,
        }
    }

    /// Remaining query budget `(reporting, aggregate, heavy)`.
    pub fn remaining_budget(&self) -> (usize, usize, usize) {
        (
            self.reporting.len(),
            self.range_sums.len().min(self.f2s.len()),
            self.heavies.len(),
        )
    }

    /// Client memory in words across all remaining digests: the protocol
    /// state the paper's `v` counts — `log u` keys and one running value
    /// per digest (twice that for a heavy-keys digest).
    pub fn space_words(&self) -> usize {
        let d = self.log_u as usize + 1;
        self.reporting.len() * d
            + (self.range_sums.len() + self.range_counts.len() + self.f2s.len()) * d
            + self.heavies.len() * (2 * d)
    }

    /// [`Self::space_words`] plus the lookup tables derived from the keys:
    /// each family's packed bank. (A banked digest builds no tables of its
    /// own.) The tables buy ingest speed, can be rebuilt from the keys at
    /// any time, and are never checkpointed.
    pub fn space_words_with_tables(&self) -> usize {
        self.space_words()
            + self.reporting.table_words()
            + self.range_sums.table_words()
            + self.range_counts.table_words()
            + self.f2s.table_words()
    }

    fn take_reporting(&mut self) -> SubVectorVerifier<F> {
        self.reporting
            .pop()
            .expect("reporting query budget exhausted; provision a larger QueryBudget")
    }

    /// A range sum's two digests (`Σ(value+1)` and the range count) and its
    /// report, opened with the query range and the digests' words booked.
    fn take_range_digests(&mut self) -> (RangeSumVerifier<F>, RangeSumVerifier<F>, CostReport) {
        let sum = self.range_sums.pop().expect("aggregate budget exhausted");
        let count = self.range_counts.pop().expect("aggregate budget exhausted");
        let report = CostReport {
            v_to_p_words: 2,
            verifier_space_words: sum.space_words() + count.space_words(),
            ..CostReport::default()
        };
        (sum, count, report)
    }

    /// A self-join digest and its report, the digest's words booked.
    fn take_f2_digest(&mut self) -> (F2Verifier<F>, CostReport) {
        let digest = self.f2s.pop().expect("aggregate budget exhausted");
        let report = CostReport {
            verifier_space_words: digest.space_words(),
            ..CostReport::default()
        };
        (digest, report)
    }

    /// Verified sub-vector query: the raw engine behind `get`/`range`/….
    fn verified_range_raw(
        &mut self,
        q_l: u64,
        q_r: u64,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<Vec<(u64, F)>>, Rejection> {
        let got = drive_subvector(self.take_reporting(), q_l, q_r, &mut *server.reporting())?;
        Ok(Answer {
            value: got.entries,
            report: got.report,
        })
    }

    /// Verified `get`: the value stored under `key`, or `None`.
    pub fn get(
        &mut self,
        key: u64,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<Option<u64>>, Rejection> {
        let got = self.verified_range_raw(key, key, server)?;
        let value = got.value.first().map(|&(_, v)| (v.to_u128() - 1) as u64);
        Ok(Answer {
            value,
            report: got.report,
        })
    }

    /// Verified range scan: all `(key, value)` pairs with key in
    /// `[q_l, q_r]`.
    pub fn range(
        &mut self,
        q_l: u64,
        q_r: u64,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<Vec<(u64, u64)>>, Rejection> {
        let got = self.verified_range_raw(q_l, q_r, server)?;
        let value = got
            .value
            .iter()
            .map(|&(k, v)| (k, (v.to_u128() - 1) as u64))
            .collect();
        Ok(Answer {
            value,
            report: got.report,
        })
    }

    /// Verified predecessor (the previous present key ≤ `q`).
    pub fn predecessor(
        &mut self,
        q: u64,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<Option<u64>>, Rejection> {
        let claim = server.claim_predecessor(q)?;
        self.neighbour(Neighbour::Predecessor, q, claim, server)
    }

    /// Verified successor (the next present key ≥ `q`).
    pub fn successor(
        &mut self,
        q: u64,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<Option<u64>>, Rejection> {
        let claim = server.claim_successor(q)?;
        self.neighbour(Neighbour::Successor, q, claim, server)
    }

    /// Verifies a neighbour claim over the gap it leaves (see
    /// [`Neighbour::gap`]).
    fn neighbour(
        &mut self,
        side: Neighbour,
        q: u64,
        claim: Option<u64>,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<Option<u64>>, Rejection> {
        let (lo, hi) = side.gap(q, claim, 1 << self.log_u)?;
        let got = self.verified_range_raw(lo, hi, server)?;
        side.check(claim, &got.value)?;
        Ok(Answer {
            value: claim,
            report: got.report,
        })
    }

    /// Verified sum of the values stored under keys in `[q_l, q_r]`.
    ///
    /// Composes two aggregates: `Σ(value+1)` minus the verified count of
    /// present keys.
    pub fn range_sum(
        &mut self,
        q_l: u64,
        q_r: u64,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<u64>, Rejection> {
        let (sum_digest, count_digest, mut report) = self.take_range_digests();
        let (mut core, expected) = sum_digest.into_session(q_l, q_r);
        let encoded_sum = drive_session(
            &mut *server.range_sum(q_l, q_r),
            &mut core,
            expected,
            &mut report,
        )?;
        let (mut core, expected) = count_digest.into_session(q_l, q_r);
        let count = drive_session(
            &mut *server.range_count(q_l, q_r),
            &mut core,
            expected,
            &mut report,
        )?;
        let value = (encoded_sum - count).to_u128() as u64;
        Ok(Answer { value, report })
    }

    /// Verified self-join size `Σ value_k²` over all stored values.
    pub fn self_join_size(&mut self, server: &dyn KvServer<F>) -> Result<Answer<u64>, Rejection> {
        let (digest, mut report) = self.take_f2_digest();
        let (mut core, expected) = digest.into_session();
        let value = drive_session(&mut *server.self_join(), &mut core, expected, &mut report)?;
        Ok(Answer {
            value: value.to_u128() as u64,
            report,
        })
    }

    /// One-shot verified self-join size: one proof frame instead of
    /// `log u` round trips; same digest consumption as
    /// [`Self::self_join_size`].
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn self_join_size_oneshot(
        &mut self,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<u64>, Rejection> {
        let (digest, mut report) = self.take_f2_digest();
        let (core, expected) = digest.into_session();
        let prefix = core.challenge_prefix().to_vec();
        let proof = server.self_join_oneshot(&prefix)?;
        report.rounds += 1;
        report.v_to_p_words += prefix.len();
        report.p_to_v_words += proof.words();
        let t = query_transcript::<F>("self-join", self.log_u, None, &[], &prefix);
        let value = core.verify_oneshot(expected, t, &proof)?;
        Ok(Answer {
            value: value.to_u128() as u64,
            report,
        })
    }

    /// Verified heavy keys: every key whose stored value (plus one) is at
    /// least `threshold`. Returns `(key, value)` pairs.
    pub fn heavy_keys(
        &mut self,
        threshold: u64,
        server: &dyn KvServer<F>,
    ) -> Result<Answer<Vec<(u64, u64)>>, Rejection> {
        assert!(threshold >= 2, "threshold counts the +1 encoding");
        let digest = self.heavies.pop().expect("heavy budget exhausted");
        let got = drive_heavy_hitters(digest, threshold, || server.heavy(threshold))?;
        let value = got.items.into_iter().map(|(k, enc)| (k, enc - 1)).collect();
        Ok(Answer {
            value,
            report: got.report,
        })
    }
}

// ---------------------------------------------------------------------
// Malicious server
// ---------------------------------------------------------------------

/// Which lie the malicious store tells.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Attack {
    /// Reports a different value for every key in reporting answers.
    CorruptValues,
    /// Omits the first entry of every reporting answer.
    DropFirstEntry,
    /// Adds 1 to the first evaluation of every sum-check message.
    SkewAggregates,
    /// Understates every disclosed heavy-hitter count by 1.
    UnderstateCounts,
    /// Claims the predecessor is one key too early (skipping one).
    LieAboutPredecessor,
}

/// A server that executes the honest protocol but applies one [`Attack`].
pub struct MaliciousStore<F: PrimeField> {
    inner: CloudStore<F>,
    attack: Attack,
}

impl<F: PrimeField> MaliciousStore<F> {
    /// Wraps an honest store with an attack.
    pub fn new(inner: CloudStore<F>, attack: Attack) -> Self {
        MaliciousStore { inner, attack }
    }
}

struct LyingReporting<'a, F: PrimeField> {
    inner: Box<dyn ReportingSession<F> + 'a>,
    attack: Attack,
}

impl<F: PrimeField> ReportingSession<F> for LyingReporting<'_, F> {
    fn answer(&mut self, q_l: u64, q_r: u64) -> Result<SubVectorAnswer<F>, Rejection> {
        let mut ans = self.inner.answer(q_l, q_r)?;
        match self.attack {
            Attack::CorruptValues => {
                for e in &mut ans.entries {
                    e.1 += F::ONE;
                }
            }
            Attack::DropFirstEntry if !ans.entries.is_empty() => {
                ans.entries.remove(0);
            }
            _ => {}
        }
        Ok(ans)
    }
    fn round(&mut self, req: &RoundRequest<F>) -> Result<RoundReply<F>, Rejection> {
        self.inner.round(req)
    }
}

struct LyingSumCheck<'a, F: PrimeField> {
    inner: Box<dyn SumCheckSession<F> + 'a>,
    attack: Attack,
}

impl<F: PrimeField> SumCheckSession<F> for LyingSumCheck<'_, F> {
    fn message(&mut self) -> Result<Vec<F>, Rejection> {
        let mut msg = self.inner.message()?;
        if self.attack == Attack::SkewAggregates {
            msg[0] += F::ONE;
        }
        Ok(msg)
    }
    fn bind(&mut self, r: F) -> Result<(), Rejection> {
        self.inner.bind(r)
    }
}

struct LyingHeavy<'a, F: PrimeField> {
    inner: Box<dyn HeavySession<F> + 'a>,
    attack: Attack,
}

impl<F: PrimeField> HeavySession<F> for LyingHeavy<'_, F> {
    fn disclose(&mut self) -> Result<LevelDisclosure<F>, Rejection> {
        let mut disc = self.inner.disclose()?;
        if self.attack == Attack::UnderstateCounts && disc.level == 0 {
            for n in &mut disc.nodes {
                if n.count > 1 {
                    n.count -= 1;
                }
            }
        }
        Ok(disc)
    }
    fn keys(&mut self, level: u32, r: F, s: F) -> Result<(), Rejection> {
        self.inner.keys(level, r, s)
    }
}

impl<F: PrimeField> KvServer<F> for MaliciousStore<F> {
    fn ingest(&mut self, up: Update) {
        self.inner.ingest(up);
    }
    fn ingest_batch(&mut self, ups: &[Update]) {
        self.inner.ingest_batch(ups);
    }
    fn reporting(&self) -> Box<dyn ReportingSession<F> + '_> {
        Box::new(LyingReporting {
            inner: self.inner.reporting(),
            attack: self.attack,
        })
    }
    fn range_sum(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(LyingSumCheck {
            inner: self.inner.range_sum(q_l, q_r),
            attack: self.attack,
        })
    }
    fn range_count(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(LyingSumCheck {
            inner: self.inner.range_count(q_l, q_r),
            attack: self.attack,
        })
    }
    fn self_join(&self) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(LyingSumCheck {
            inner: self.inner.self_join(),
            attack: self.attack,
        })
    }
    fn heavy(&self, threshold: u64) -> Box<dyn HeavySession<F> + '_> {
        Box::new(LyingHeavy {
            inner: self.inner.heavy(threshold),
            attack: self.attack,
        })
    }
    fn claim_predecessor(&self, q: u64) -> Result<Option<u64>, Rejection> {
        let honest = self.inner.claim_predecessor(q)?;
        if self.attack == Attack::LieAboutPredecessor {
            Ok(honest
                .and_then(|p| p.checked_sub(1))
                .map(|p| self.inner.claim_predecessor(p))
                .transpose()?
                .flatten())
        } else {
            Ok(honest)
        }
    }
    fn claim_successor(&self, q: u64) -> Result<Option<u64>, Rejection> {
        self.inner.claim_successor(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sip_field::Fp61;

    type C = Client<Fp61>;

    fn setup(pairs: &[(u64, u64)], log_u: u32, seed: u64) -> (C, CloudStore<Fp61>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut client = C::new(log_u, QueryBudget::default(), &mut rng);
        let mut server = CloudStore::new(log_u);
        for &(k, v) in pairs {
            client.put(k, v, &mut server);
        }
        (client, server)
    }

    #[test]
    fn end_to_end_mixed_queries() {
        let pairs = [(3u64, 10u64), (17, 0), (40, 999), (41, 7), (200, 55)];
        let (mut client, server) = setup(&pairs, 8, 1);

        assert_eq!(client.get(3, &server).unwrap().value, Some(10));
        assert_eq!(client.get(17, &server).unwrap().value, Some(0));
        assert_eq!(client.get(18, &server).unwrap().value, None);

        let range = client.range(10, 100, &server).unwrap().value;
        assert_eq!(range, vec![(17, 0), (40, 999), (41, 7)]);

        assert_eq!(client.predecessor(39, &server).unwrap().value, Some(17));
        assert_eq!(client.successor(42, &server).unwrap().value, Some(200));
        assert_eq!(client.predecessor(2, &server).unwrap().value, None);

        assert_eq!(
            client.range_sum(0, 255, &server).unwrap().value,
            10 + 999 + 7 + 55
        );
        assert_eq!(
            client.self_join_size(&server).unwrap().value,
            100 + 999 * 999 + 49 + 55 * 55
        );

        let heavy = client.heavy_keys(56, &server).unwrap().value;
        assert_eq!(heavy, vec![(40, 999), (200, 55)]);
    }

    #[test]
    fn random_workload_against_ground_truth() {
        let mut rng = StdRng::seed_from_u64(2);
        let log_u = 10;
        let pairs: Vec<(u64, u64)> = {
            let stream = sip_streaming::workloads::distinct_key_values(200, 1 << log_u, 1000, 3);
            stream.iter().map(|u| (u.index, u.delta as u64)).collect()
        };
        let (mut client, server) = setup(&pairs, log_u, 4);
        let truth: std::collections::BTreeMap<u64, u64> = pairs.iter().copied().collect();
        for _ in 0..6 {
            let k = rng.random_range(0..(1u64 << log_u));
            assert_eq!(
                client.get(k, &server).unwrap().value,
                truth.get(&k).copied()
            );
        }
        let (lo, hi) = (100u64, 500u64);
        let expect: Vec<(u64, u64)> = truth.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(client.range(lo, hi, &server).unwrap().value, expect);
        let sum: u64 = truth.range(lo..=hi).map(|(_, &v)| v).sum();
        assert_eq!(client.range_sum(lo, hi, &server).unwrap().value, sum);
    }

    #[test]
    fn budget_is_consumed() {
        let (mut client, server) = setup(&[(1, 2)], 6, 5);
        let before = client.remaining_budget();
        client.get(1, &server).unwrap();
        let after = client.remaining_budget();
        assert_eq!(after.0, before.0 - 1);
    }

    #[test]
    #[should_panic(expected = "budget exhausted")]
    fn exhausted_budget_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut client = C::new(
            6,
            QueryBudget {
                reporting: 1,
                aggregate: 1,
                heavy: 1,
            },
            &mut rng,
        );
        let mut server = CloudStore::new(6);
        client.put(1, 2, &mut server);
        client.get(1, &server).unwrap();
        client.get(1, &server).unwrap(); // budget gone
    }

    #[test]
    fn every_attack_is_caught() {
        for attack in [
            Attack::CorruptValues,
            Attack::DropFirstEntry,
            Attack::SkewAggregates,
            Attack::UnderstateCounts,
            Attack::LieAboutPredecessor,
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut client = C::new(8, QueryBudget::default(), &mut rng);
            let mut server = MaliciousStore::new(CloudStore::new(8), attack);
            // Loaded through the packed banks: soundness rides the same
            // ingest path the benchmark does.
            client.put_batch(&[(3, 10), (17, 5), (40, 999), (200, 55)], &mut server);
            let caught = match attack {
                Attack::CorruptValues | Attack::DropFirstEntry => {
                    client.range(0, 255, &server).is_err()
                }
                Attack::SkewAggregates => client.range_sum(0, 255, &server).is_err(),
                Attack::UnderstateCounts => client.heavy_keys(56, &server).is_err(),
                Attack::LieAboutPredecessor => client.predecessor(100, &server).is_err(),
            };
            assert!(caught, "{attack:?} went undetected");
        }
    }

    #[test]
    fn out_of_universe_key_panics_before_any_digest_or_the_server_moves() {
        // Release builds included: the pre-pass is an `assert!`. The bad
        // key sits after a full block of good ones, so a check made block
        // by block would already have swept those puts into every bank.
        let mut rng = StdRng::seed_from_u64(31);
        let mut client = C::new(13, QueryBudget::default(), &mut rng);
        let mut server = CloudStore::new(13);
        let mut batch: Vec<(u64, u64)> =
            (0..STAGE_BLOCK as u64 + 300).map(|k| (k, k + 1)).collect();
        batch.push((1 << 13, 7));
        let before = client.digests().0[0].hasher().root();
        for upload in [true, false] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if upload {
                    client.put_batch(&batch, &mut server);
                } else {
                    client.observe_batch(&batch);
                }
            }));
            let message = *outcome.unwrap_err().downcast::<&str>().unwrap();
            assert_eq!(message, "key out of range");
            let (reporting, range_sums, range_counts, f2s, heavies) = client.digests();
            assert!(reporting.iter().all(|d| d.hasher().updates() == 0));
            assert!(range_sums
                .iter()
                .chain(range_counts)
                .all(|d| d.evaluator().updates() == 0));
            assert!(f2s.iter().all(|d| d.evaluator().updates() == 0));
            assert!(heavies.iter().all(|d| d.total() == 0));
            assert_eq!(reporting[0].hasher().root(), before);
            assert_eq!(client.puts(), 0);
            assert_eq!(server.encoded_vector().support_size(), 0);
        }
        // The client is still usable: nothing was left half-swept.
        client.put_batch(&batch[..300], &mut server);
        assert_eq!(client.get(5, &server).unwrap().value, Some(6));
    }

    #[test]
    fn tables_are_derived_state_beside_the_protocol_words() {
        let mut rng = StdRng::seed_from_u64(32);
        let budget = QueryBudget {
            reporting: 72,
            aggregate: 12,
            heavy: 0,
        };
        let mut client = C::new(18, budget, &mut rng);
        // What the paper's `v` counts: (log u + 1) words per digest.
        assert_eq!(client.space_words(), 108 * 19);
        // 2^9 + 2^9 packed words per banked digest; a banked digest builds
        // no tables of its own.
        let tables = 108 * 1024;
        assert_eq!(client.space_words_with_tables(), 108 * 19 + tables);
        // A consumed digest gives its tables back.
        let mut server = CloudStore::new(18);
        client.put(1, 2, &mut server);
        client.get(1, &server).unwrap();
        assert_eq!(client.space_words(), 107 * 19);
        assert_eq!(client.space_words_with_tables(), 107 * 19 + tables - 1024);
    }

    #[test]
    fn oneshot_aggregates_match_interactive_and_bill_one_round() {
        let pairs = [(3u64, 10u64), (17, 0), (40, 999), (41, 7), (200, 55)];
        let (mut client, server) = setup(&pairs, 8, 21);
        let f2 = client.self_join_size_oneshot(&server).unwrap();
        assert_eq!(f2.value, 100 + 999 * 999 + 49 + 55 * 55);
        assert_eq!(f2.report.rounds, 1, "one frame");
        // Proof stays within 2× of the interactive transcript bytes.
        let (mut other, server2) = setup(&pairs, 8, 22);
        let interactive = other.self_join_size(&server2).unwrap();
        assert_eq!(interactive.value, f2.value);
        assert!(
            f2.report.p_to_v_words <= 2 * interactive.report.p_to_v_words,
            "one-shot {} words vs interactive {}",
            f2.report.p_to_v_words,
            interactive.report.p_to_v_words
        );
    }

    #[test]
    fn oneshot_catches_a_lying_store_with_the_interactive_error() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut client = C::new(8, QueryBudget::default(), &mut rng);
        let mut server = MaliciousStore::new(CloudStore::new(8), Attack::SkewAggregates);
        client.put_batch(&[(3, 10), (17, 5), (40, 999)], &mut server);
        // The lie happens *before* the transcript is sealed, so the digest
        // is consistent and the deferred algebra names the actual failure —
        // the same typed error the interactive path produces (round 2 is
        // the first whose sum disagrees with the previous skewed claim).
        let err = client.self_join_size_oneshot(&server).unwrap_err();
        assert_eq!(err, Rejection::RoundSumMismatch { round: 2 }, "{err}");
    }

    #[test]
    fn honest_store_unverified_get_matches_verified() {
        let (mut client, server) = setup(&[(9, 42), (10, 0)], 6, 8);
        assert_eq!(server.unverified_get(9), Some(42));
        assert_eq!(client.get(9, &server).unwrap().value, Some(42));
        assert_eq!(server.unverified_get(11), None);
    }
}

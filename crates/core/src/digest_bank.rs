//! Many digests of one family behind one packed weight kernel.
//!
//! A verifier that provisions a budget of queries (Section 7, "Multiple
//! Queries": fresh randomness per query) carries one `O(log u)`-word digest
//! per future query, and every stream update must reach all of them. Fed
//! one digest at a time that is `d` multiplications and one index
//! decomposition per (update × digest). A [`DigestBank`] keeps the digests
//! as the source of truth — keys, running values, update counts, exactly
//! what a checkpoint captures — and holds beside them the
//! [`sip_lde::WeightBank`] *derived* from their keys, so a staged block of
//! updates is decomposed and bucket-sorted once and swept over every
//! digest's packed tables.
//!
//! What can be banked is any digest `Σ_i a_i·w(i)` whose weight is a
//! *product* over the digits of `i`: the LDE digests of the sum-check
//! verifiers and the Section 4.1 root hash (equation (8)). The heavy-hitters
//! count-tree hash is a sum of such products — one per tree level — and
//! stays on its own update loop.

use sip_field::PrimeField;
use sip_lde::{LdeParams, WeightBank};

pub use sip_lde::{BlockStage, STAGE_BLOCK};

/// An empty block stage for keys in `[2^log_u]` — the universe every
/// [`DigestBank::new`]`(log_u, …)` is over.
pub fn block_stage(log_u: u32) -> BlockStage {
    BlockStage::new(LdeParams::binary(log_u))
}

/// A streaming digest over `[2^d]` whose per-index weight is a product over
/// the bits of the index: [`crate::subvector::SubVectorVerifier`],
/// [`crate::sumcheck::range_sum::RangeSumVerifier`] and
/// [`crate::sumcheck::f2::F2Verifier`].
pub trait BankedDigest<F: PrimeField> {
    /// Appends this digest's per-bit rows to `bank` as one point.
    ///
    /// # Panics
    /// Panics if the digest's depth is not the bank's dimension.
    fn push_weights(&self, bank: &mut WeightBank<F>);

    /// Adds `partial = Σ δ·w(i)` over `n_updates` stream updates whose
    /// weights the bank evaluated; bit-identical to feeding those updates
    /// through the digest's own `update`.
    fn absorb(&mut self, partial: F, n_updates: u64);
}

/// A stack of digests of one kind plus the packed tables derived from them.
///
/// Digests are consumed from the back ([`Self::pop`]) — one per query — and
/// the bank is truncated in step, so the two never disagree. Ingest is
/// [`Self::sweep`] once per staged block, then one [`Self::flush`].
#[derive(Clone, Debug)]
pub struct DigestBank<F: PrimeField, V> {
    digests: Vec<V>,
    bank: WeightBank<F>,
    /// Swept-but-unflushed partial sums, one per digest.
    pending: Vec<F>,
    pending_updates: u64,
}

impl<F: PrimeField, V: BankedDigest<F>> DigestBank<F, V> {
    /// Wraps `digests` over the universe `[2^log_u]`, building their packed
    /// tables.
    ///
    /// # Panics
    /// Panics if a digest's depth is not `log_u`.
    pub fn new(log_u: u32, digests: Vec<V>) -> Self {
        let mut bank = WeightBank::with_capacity(LdeParams::binary(log_u), digests.len());
        for d in &digests {
            d.push_weights(&mut bank);
        }
        DigestBank {
            pending: vec![F::ZERO; digests.len()],
            digests,
            bank,
            pending_updates: 0,
        }
    }

    /// The digests — the protocol state a checkpoint captures.
    pub fn digests(&self) -> &[V] {
        &self.digests
    }

    /// Number of digests left.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether every digest has been consumed.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Words of derived packed-table state held for the remaining digests.
    pub fn table_words(&self) -> usize {
        self.bank.table_words()
    }

    /// Takes the last digest for a query, dropping its tables in `O(1)`.
    ///
    /// # Panics
    /// Panics if a sweep has not been flushed.
    pub fn pop(&mut self) -> Option<V> {
        assert_eq!(self.pending_updates, 0, "flush before consuming a digest");
        let digest = self.digests.pop()?;
        self.pending.pop();
        self.bank.truncate(self.digests.len());
        Some(digest)
    }

    /// Accumulates one staged block, `deltas` being the changes its indices
    /// carry in this family's vector, as a column in staged order
    /// ([`BlockStage::column`]).
    pub fn sweep(&mut self, stage: &BlockStage, deltas: &[F]) {
        self.bank.sweep(stage, deltas, &mut self.pending);
        self.pending_updates += stage.len() as u64;
    }

    /// Adds everything swept since the last flush into the digests: one
    /// [`BankedDigest::absorb`] per digest.
    pub fn flush(&mut self) {
        if self.pending_updates == 0 {
            return;
        }
        for (digest, partial) in self.digests.iter_mut().zip(&mut self.pending) {
            digest.absorb(std::mem::take(partial), self.pending_updates);
        }
        self.pending_updates = 0;
    }
}

//! The one digest body behind the single-point sum-check verifiers.
//!
//! SELF-JOIN SIZE, RANGE-SUM, the moments `F_k` and footnote 1's F₂ over a
//! general base all stream the same thing: `f_a(r)` at one secret point
//! (Theorem 1). They differ only in the query asked of it once the stream
//! ends — which degree its round polynomials have, which value the final
//! check compares against, and whether a base `ℓ > 2` is legal. An
//! [`LdeQuery`] marker says that; [`LdeDigest`] is everything else, once.
//! [`crate::sumcheck::f2::F2Verifier`], [`crate::sumcheck::range_sum::RangeSumVerifier`],
//! [`crate::sumcheck::moments::MomentVerifier`] and
//! [`crate::sumcheck::general_ell::GeneralF2Verifier`] are its four names.

use std::fmt::Debug;

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::{LdeParams, StreamingLdeEvaluator, WeightBank};
use sip_streaming::Update;

use crate::digest_bank::BankedDigest;

use super::{round_state_words, SumCheckVerifierCore};

/// The query a single-point digest answers after the stream.
pub trait LdeQuery: Clone + Debug {
    /// The protocol's name, as a refused base names it.
    const NAME: &'static str;

    /// Whether the digest may run over a base `ℓ > 2`.
    const ANY_BASE: bool;

    /// The degree bound of the query's round polynomials over base `ell`.
    fn degree(&self, ell: u64) -> usize {
        2 * (ell as usize - 1)
    }
}

/// SELF-JOIN SIZE (F₂): the binary protocol of Section 3.1, or — with
/// `ANY_BASE` — footnote 1's trade-off over any base `ℓ`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfJoin<const ANY_BASE: bool = false>;

impl<const B: bool> LdeQuery for SelfJoin<B> {
    const NAME: &'static str = "F2";
    const ANY_BASE: bool = B;
}

/// RANGE-SUM (Section 3.2); the range arrives at query time.
#[derive(Clone, Copy, Debug, Default)]
pub struct RangeSum;

impl LdeQuery for RangeSum {
    const NAME: &'static str = "RANGE-SUM";
    const ANY_BASE: bool = false;
}

/// The frequency moment `F_k`, `k ≥ 1` (Section 3.2).
#[derive(Clone, Copy, Debug)]
pub struct Moment {
    k: u32,
}

impl Moment {
    /// The moment of order `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "moment order must be at least 1");
        Moment { k }
    }

    /// The moment order `k`.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl LdeQuery for Moment {
    const NAME: &'static str = "F_k";
    const ANY_BASE: bool = false;

    fn degree(&self, ell: u64) -> usize {
        self.k as usize * (ell as usize - 1)
    }
}

/// Streaming verifier digest for one query of family `Q`: the LDE `f_a(r)`
/// at one secret point. Space: the point and the running value, plus the
/// round state of the sum-check it ends in.
#[derive(Clone, Debug)]
pub struct LdeDigest<Q, F: PrimeField> {
    query: Q,
    lde: StreamingLdeEvaluator<F>,
}

impl<Q: LdeQuery, F: PrimeField> LdeDigest<Q, F> {
    /// Wraps a digest — drawn fresh or restored from a checkpoint — for
    /// `query`.
    ///
    /// # Panics
    /// Panics if the evaluator is not binary and the query runs over the
    /// binary LDE only.
    pub fn with_query(query: Q, lde: StreamingLdeEvaluator<F>) -> Self {
        assert!(
            Q::ANY_BASE || lde.params().base() == 2,
            "{} runs over the binary LDE",
            Q::NAME
        );
        LdeDigest { query, lde }
    }

    /// Draws the secret point over `params` and prepares to observe the
    /// stream.
    pub(super) fn drawn<R: Rng + ?Sized>(query: Q, params: LdeParams, rng: &mut R) -> Self {
        Self::with_query(query, StreamingLdeEvaluator::random(params, rng))
    }

    /// The query this digest answers.
    pub fn query(&self) -> &Q {
        &self.query
    }

    /// The streaming digest (the verifier's entire protocol state) — what a
    /// checkpoint must capture.
    pub fn evaluator(&self) -> &StreamingLdeEvaluator<F> {
        &self.lde
    }

    /// Processes one stream update (one packed-table weight lookup).
    pub fn update(&mut self, up: Update) {
        self.lde.update(up);
    }

    /// Processes a whole stream.
    pub fn update_all(&mut self, stream: &[Update]) {
        self.lde.update_all(stream);
    }

    /// Processes a whole batch through the delayed-reduction ingest path;
    /// the digest value is bit-identical to per-update [`Self::update`].
    pub fn update_batch(&mut self, batch: &[Update]) {
        self.lde.update_batch(batch);
    }

    /// Verifier space in words: the point, the running value, and the
    /// sum-check's [`round_state_words`] at this digest's base.
    pub fn space_words(&self) -> usize {
        self.lde.space_words() + round_state_words(self.lde.params().base())
    }

    /// Ends streaming: the round checker over this digest's point and
    /// base, and the final-check value `f_a(r)·factor`.
    pub(super) fn session(self, factor: F) -> (SumCheckVerifierCore<F>, F) {
        let degree = self.query.degree(self.lde.params().base());
        let core = SumCheckVerifierCore::from_lde(&self.lde, degree);
        (core, self.lde.value() * factor)
    }
}

impl<Q: LdeQuery + Default, F: PrimeField> LdeDigest<Q, F> {
    /// Rebuilds the verifier around a restored digest (checkpoint resume).
    ///
    /// # Panics
    /// Panics if the evaluator is not binary and the query runs over the
    /// binary LDE only.
    pub fn from_evaluator(lde: StreamingLdeEvaluator<F>) -> Self {
        Self::with_query(Q::default(), lde)
    }
}

impl<const B: bool, F: PrimeField> LdeDigest<SelfJoin<B>, F> {
    /// Ends streaming; returns the round-checking core and the final-check
    /// value `f_a(r)²`.
    pub fn into_session(self) -> (SumCheckVerifierCore<F>, F) {
        let fa_r = self.lde.value();
        self.session(fa_r)
    }
}

impl<Q: LdeQuery, F: PrimeField> BankedDigest<F> for LdeDigest<Q, F> {
    fn push_weights(&self, bank: &mut WeightBank<F>) {
        bank.push_lde_point(self.lde.point());
    }
    fn absorb(&mut self, partial: F, n_updates: u64) {
        self.lde.absorb(partial, n_updates);
    }
}

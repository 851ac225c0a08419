//! Streaming evaluation of low-degree extensions (Theorem 1).
//!
//! Section 2 of Cormode–Thaler–Yi rearranges the input vector
//! `a ∈ [u]^u` into a `d`-dimensional array over `[ℓ]^d` (with `u = ℓ^d`)
//! and defines its *low-degree extension* — the unique polynomial
//! `f_a : Z_p^d → Z_p` of degree `< ℓ` in each variable with
//! `f_a(v) = a_v` on the grid:
//!
//! ```text
//! f_a(x) = Σ_{v ∈ [ℓ]^d}  a_v · χ_v(x),     χ_v(x) = Π_j χ_{v_j}(x_j).
//! ```
//!
//! The paper's key observation (Theorem 1) is that for a *fixed* point `r`,
//! `f_a(r)` is a linear function of `a`, so a verifier can maintain it over
//! a stream of updates `(i, δ)` via `f_a(r) ← f_a(r) + δ·χ_{v(i)}(r)` using
//! only `O(d)` words of space and `O(ℓ·d)` time per update. Here every such
//! weight — and every other product weight `Π_j row_j[digit_j(i)]` in the
//! workspace — is read from one layout, the packed tables of a
//! [`WeightBank`]: `c` digit positions fused into one `ℓ^c`-entry table, so
//! a weight costs `⌈d/c⌉` lookups.
//!
//! This crate provides:
//!
//! * [`LdeParams`] — the `(ℓ, d)` parameterisation and digit arithmetic;
//! * [`bank`] — the one product-weight kernel: [`WeightBank`] (packed
//!   tables for any number of points, a per-index
//!   [`WeightBank::weight`], and the bucket-grouped, delayed-reduction
//!   [`WeightBank::sweep`] over a staged [`BlockStage`]), generic over the
//!   per-digit row so the Section 4.1 hash tree shares it with the LDE;
//! * [`StreamingLdeEvaluator`] — the Theorem 1 evaluator: its point and
//!   running value, and a one-point bank built at its first own weight
//!   evaluation;
//! * [`MultiLdeEvaluator`] — several points at once (parallel repetition,
//!   simultaneous queries — the "Multiple Queries" remark of Section 7):
//!   points and accumulators over one [`WeightBank`], with a batched
//!   [`MultiLdeEvaluator::update_batch`] ingest entry point;
//! * [`interval`] — the `O(log² u)` evaluation of the LDE of a 0/1 interval
//!   indicator via canonical-interval decomposition (Section 3.2,
//!   RANGE-SUM), shared by the range-sum verifier *and* prover;
//! * [`reference`][mod@reference] — naive `O(u·ℓ·d)` evaluation for differential testing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod interval;
pub mod params;
pub mod reference;

use std::sync::OnceLock;

use rand::Rng;
use sip_field::PrimeField;
use sip_streaming::Update;

pub use bank::{packed_table_words, BlockStage, WeightBank, STAGE_BLOCK};
pub use interval::range_indicator_lde;
pub use params::LdeParams;

/// Streaming evaluator of `f_a(r)` for one fixed point `r ∈ Z_p^d`
/// (Theorem 1).
///
/// Space: `d + 1` field elements of protocol state (`r` and the running
/// value). Its own weights come from a one-point [`WeightBank`], built from
/// `r` at the first weight this evaluator evaluates — [`Self::update`] and
/// its batch forms, [`Self::weight`], [`Self::remove`] — and then shared by
/// every later one: `⌈d/c⌉` table lookups per update. An evaluator fed only
/// through [`Self::absorb`], by a bank holding its point beside others,
/// never builds one.
#[derive(Clone, Debug)]
pub struct StreamingLdeEvaluator<F: PrimeField> {
    params: LdeParams,
    r: Vec<F>,
    /// Derived from `(params, r)` on first use, never restored from a
    /// snapshot.
    bank: OnceLock<WeightBank<F>>,
    acc: F,
    /// Stream updates absorbed so far (checkpoint metadata, not protocol
    /// state — resume integrity checks compare it across restarts).
    updates: u64,
}

impl<F: PrimeField> StreamingLdeEvaluator<F> {
    /// Creates an evaluator at the point `r` (one coordinate per digit).
    ///
    /// # Panics
    /// Panics if `r.len() != params.dimension()`.
    pub fn new(params: LdeParams, r: Vec<F>) -> Self {
        assert_eq!(
            r.len(),
            params.dimension() as usize,
            "evaluation point must have d = {} coordinates",
            params.dimension()
        );
        StreamingLdeEvaluator {
            params,
            r,
            bank: OnceLock::new(),
            acc: F::ZERO,
            updates: 0,
        }
    }

    /// Rebuilds an evaluator from checkpointed protocol state: the point
    /// `r`, the running accumulator, and the update counter. The weight
    /// tables are *derived* state — rebuilt from `(params, r)` at first
    /// use, never restored from a snapshot — so a resumed evaluator is
    /// field-for-field identical to one that never stopped.
    ///
    /// # Panics
    /// Panics if `r.len() != params.dimension()`.
    pub fn from_saved(params: LdeParams, r: Vec<F>, acc: F, updates: u64) -> Self {
        let mut eval = Self::new(params, r);
        eval.acc = acc;
        eval.updates = updates;
        eval
    }

    /// Creates an evaluator at a uniformly random secret point.
    pub fn random<R: Rng + ?Sized>(params: LdeParams, rng: &mut R) -> Self {
        let r = (0..params.dimension()).map(|_| F::random(rng)).collect();
        Self::new(params, r)
    }

    /// The parameterisation.
    pub fn params(&self) -> LdeParams {
        self.params
    }

    /// The evaluation point `r`.
    pub fn point(&self) -> &[F] {
        &self.r
    }

    /// The one-point bank, built on first use. (`new` checked that `r` has
    /// `d` coordinates, which is all `lde_point` asserts.)
    fn bank(&self) -> &WeightBank<F> {
        self.bank
            .get_or_init(|| WeightBank::lde_point(self.params, &self.r))
    }

    /// `χ_{v(i)}(r)`: the weight index `i` carries at this point.
    ///
    /// # Panics
    /// Panics if `i` lies outside the universe `ℓ^d`.
    #[inline]
    pub fn weight(&self, i: u64) -> F {
        self.bank().weight(0, i)
    }

    /// Processes one stream update: `f_a(r) += δ·χ_{v(i)}(r)`.
    ///
    /// # Panics
    /// Panics if the index lies outside the universe `ℓ^d`.
    pub fn update(&mut self, up: Update) {
        self.update_batch(std::slice::from_ref(&up));
    }

    /// Processes a whole stream: [`Self::update_batch`].
    pub fn update_all(&mut self, stream: &[Update]) {
        self.update_batch(stream);
    }

    /// Processes a whole batch through one delayed-reduction accumulator
    /// ([`WeightBank::weighted_sum`]): one modular reduction per
    /// accumulator flush instead of one per update. The resulting value is
    /// bit-identical to per-update [`Self::update`] (exact field
    /// arithmetic, any grouping).
    ///
    /// # Panics
    /// Panics if an index lies outside the universe `ℓ^d`.
    pub fn update_batch(&mut self, batch: &[Update]) {
        self.acc += self.bank().weighted_sum(0, batch);
        self.updates += batch.len() as u64;
    }

    /// Adds `partial = Σ δ·χ_{v(i)}(r)` over `n_updates` stream updates
    /// whose weights were evaluated elsewhere — by a [`WeightBank`] holding
    /// this point beside many others. The result is bit-identical to
    /// feeding those updates through [`Self::update`].
    pub fn absorb(&mut self, partial: F, n_updates: u64) {
        self.acc += partial;
        self.updates += n_updates;
    }

    /// Number of stream updates absorbed so far (checkpoint metadata;
    /// [`Self::remove`] is a query-time correction, not a stream update,
    /// and does not count).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Subtracts `c·χ_{v(i)}(r)` — used by the Section 6.2 protocol when the
    /// verifier "removes" a reported heavy hitter from the LDE.
    ///
    /// # Panics
    /// Panics if `i` lies outside the universe `ℓ^d`.
    pub fn remove(&mut self, i: u64, c: F) {
        self.acc -= c * self.weight(i);
    }

    /// The current value `f_a(r)`.
    pub fn value(&self) -> F {
        self.acc
    }

    /// Verifier space in field elements: `r` plus the accumulator.
    ///
    /// The weight tables are derived from `r` and could be recomputed per
    /// update at `O(ℓ·d)` cost; the paper counts space as `d + 1` words,
    /// which is what this reports. Use [`Self::space_words_with_tables`]
    /// for the table-cached footprint.
    pub fn space_words(&self) -> usize {
        self.r.len() + 1
    }

    /// Space including the weight tables: `d + 1` words before the first
    /// weight evaluation builds them, `d + 1 +`
    /// [`packed_table_words`]`(params)` after.
    pub fn space_words_with_tables(&self) -> usize {
        self.space_words() + self.bank.get().map_or(0, WeightBank::table_words)
    }
}

/// Streaming evaluation of `f_a` at several points simultaneously.
///
/// Used for parallel repetition (driving soundness error down) and for the
/// "run multiple queries as independent copies" remark in Section 7.
///
/// The evaluator owns the protocol state — the points, one accumulator per
/// point and the update counter — over one [`WeightBank`] holding the
/// points' packed χ tables. Both ingest paths ([`Self::update`],
/// [`Self::update_batch`]) stage blocks of decomposed, bucket-sorted
/// super-digits once and sweep the bank over them, so per-update cost is
/// one division-free decomposition (shared)
/// plus `⌈d/c⌉` lookups per point, with one modular reduction and one
/// modular product per bucket. Values remain bit-identical to the naive
/// per-point evaluation (exact field arithmetic, reassociated).
#[derive(Clone, Debug)]
pub struct MultiLdeEvaluator<F: PrimeField> {
    bank: WeightBank<F>,
    /// Point `p`'s coordinates at `[p·d, (p+1)·d)`.
    points: Vec<F>,
    accs: Vec<F>,
    /// Stream updates absorbed so far (checkpoint metadata).
    updates: u64,
    scratch: IngestScratch<F>,
}

/// What one batch walk needs besides the bank: the staged block, its delta
/// column and the per-point partial sums. Kept with its owner so a batch
/// allocates nothing; a clone has its own.
#[derive(Clone, Debug)]
struct IngestScratch<F: PrimeField> {
    stage: BlockStage,
    deltas: Vec<F>,
    partial: Vec<F>,
}

impl<F: PrimeField> IngestScratch<F> {
    fn new(params: LdeParams) -> Self {
        IngestScratch {
            stage: BlockStage::new(params),
            deltas: Vec::new(),
            partial: Vec::new(),
        }
    }

    /// The per-point partial sums `Σ δ·χ_{v(i)}(r_p)` of one batch — what
    /// [`MultiLdeEvaluator::update_batch`] adds into the accumulators.
    fn batch_partial(&mut self, bank: &WeightBank<F>, chunk: &[Update]) -> &[F] {
        self.partial.clear();
        self.partial.resize(bank.num_points(), F::ZERO);
        for block in chunk.chunks(STAGE_BLOCK) {
            self.stage.stage(block.iter().map(|up| up.index));
            self.stage
                .column(&mut self.deltas, |t| F::from_i64(block[t].delta));
            bank.sweep(&self.stage, &self.deltas, &mut self.partial);
        }
        &self.partial
    }
}

impl<F: PrimeField> MultiLdeEvaluator<F> {
    /// Evaluators at `points.len()` fixed points.
    ///
    /// # Panics
    /// Panics if any point does not have `d` coordinates.
    pub fn new(params: LdeParams, points: Vec<Vec<F>>) -> Self {
        let d = params.dimension() as usize;
        let mut bank = WeightBank::with_capacity(params, points.len());
        let mut flat_points = Vec::with_capacity(points.len() * d);
        for r in &points {
            bank.push_lde_point(r);
            flat_points.extend_from_slice(r);
        }
        MultiLdeEvaluator {
            bank,
            points: flat_points,
            accs: vec![F::ZERO; points.len()],
            updates: 0,
            scratch: IngestScratch::new(params),
        }
    }

    /// Rebuilds a multi-point evaluator from checkpointed protocol state:
    /// the points, one accumulator per point, and the update counter. The
    /// packed group tables are *derived* state — recomputed from
    /// `(params, points)`, never restored from a snapshot — so a resumed
    /// evaluator is field-for-field identical to one that never stopped.
    ///
    /// # Panics
    /// Panics if any point does not have `d` coordinates or the
    /// accumulator count differs from the point count.
    pub fn from_saved(params: LdeParams, points: Vec<Vec<F>>, accs: Vec<F>, updates: u64) -> Self {
        assert_eq!(points.len(), accs.len(), "one accumulator per point");
        let mut eval = Self::new(params, points);
        eval.accs = accs;
        eval.updates = updates;
        eval
    }

    /// `copies` evaluators at independent random points.
    pub fn random<R: Rng + ?Sized>(params: LdeParams, copies: usize, rng: &mut R) -> Self {
        let d = params.dimension();
        let points = (0..copies)
            .map(|_| (0..d).map(|_| F::random(rng)).collect())
            .collect();
        Self::new(params, points)
    }

    /// The parameterisation.
    pub fn params(&self) -> LdeParams {
        self.bank.params()
    }

    /// Number of evaluation points.
    pub fn num_points(&self) -> usize {
        self.accs.len()
    }

    /// The coordinates of point `p`.
    pub fn point(&self, p: usize) -> &[F] {
        let d = self.params().dimension() as usize;
        &self.points[p * d..(p + 1) * d]
    }

    /// Applies one update to every point: a one-element
    /// [`Self::update_batch`].
    pub fn update(&mut self, up: Update) {
        self.update_batch(std::slice::from_ref(&up));
    }

    /// Number of stream updates absorbed so far (checkpoint metadata).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Applies a whole batch to every point: digit decomposition and bucket
    /// grouping are shared across points, table lookups are point-major
    /// over staged blocks, and modular reductions are delayed per bucket.
    /// Values are bit-identical to the naive per-point evaluation (exact
    /// field arithmetic, any grouping).
    ///
    /// # Panics
    /// Panics if an update's index lies outside the universe.
    pub fn update_batch(&mut self, batch: &[Update]) {
        if batch.is_empty() {
            return;
        }
        let partial = self.scratch.batch_partial(&self.bank, batch);
        for (acc, &v) in self.accs.iter_mut().zip(partial) {
            *acc += v;
        }
        self.updates += batch.len() as u64;
    }

    /// Values at all points.
    pub fn values(&self) -> Vec<F> {
        self.accs.clone()
    }

    /// The value at point `p`.
    pub fn value(&self, p: usize) -> F {
        self.accs[p]
    }

    /// Space in words across all points, packed tables included:
    /// `k·(stride + d + 1)` where `stride` is
    /// [`packed_table_words`]`(params)`, the packed table footprint per
    /// point.
    pub fn space_words_with_tables(&self) -> usize {
        self.points.len() + self.bank.table_words() + self.accs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;
    use sip_streaming::FrequencyVector;

    fn updates(freqs: &[i64]) -> Vec<Update> {
        freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f != 0)
            .map(|(i, &f)| Update::new(i as u64, f))
            .collect()
    }

    #[test]
    fn lde_agrees_with_vector_on_grid() {
        // f_a(v) must equal a_v on every grid point, for several (ℓ, d).
        for &(ell, d) in &[(2u64, 4u32), (4, 3), (8, 2), (3, 3)] {
            let params = LdeParams::new(ell, d);
            let u = params.universe();
            let freqs: Vec<i64> = (0..u).map(|i| ((i * 7 + 3) % 11) as i64 - 5).collect();
            let ups = updates(&freqs);
            for trial in 0..10 {
                let i = (trial * 13 + 5) % u;
                let point: Vec<Fp61> = params.digits_of(i).map(Fp61::from_u64).collect();
                let mut eval = StreamingLdeEvaluator::new(params, point);
                eval.update_all(&ups);
                assert_eq!(
                    eval.value(),
                    Fp61::from_i64(freqs[i as usize]),
                    "ell={ell} d={d} i={i}"
                );
            }
        }
    }

    #[test]
    fn streaming_matches_reference_at_random_points() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(ell, d) in &[(2u64, 5u32), (4, 3), (5, 2)] {
            let params = LdeParams::new(ell, d);
            let u = params.universe();
            let freqs: Vec<i64> = (0..u).map(|i| (i as i64 * 3 - 40) % 17).collect();
            let ups = updates(&freqs);
            for _ in 0..5 {
                let mut eval = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
                eval.update_all(&ups);
                let expect = reference::naive_lde_eval(&freqs, params, eval.point());
                assert_eq!(eval.value(), expect, "ell={ell} d={d}");
            }
        }
    }

    #[test]
    fn linearity_under_deletions() {
        // Inserting then deleting must return the evaluator to its prior value.
        let params = LdeParams::new(2, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let mut eval = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
        eval.update(Update::new(17, 5));
        let snapshot = eval.value();
        eval.update(Update::new(40, 9));
        eval.update(Update::new(40, -9));
        assert_eq!(eval.value(), snapshot);
    }

    #[test]
    fn remove_matches_negative_update() {
        let params = LdeParams::new(2, 6);
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
        let mut b = a.clone();
        a.update(Update::new(11, -3));
        b.remove(11, Fp61::from_u64(3));
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn update_order_is_irrelevant() {
        let params = LdeParams::new(2, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let stream = sip_streaming::workloads::uniform(200, params.universe(), 10, 9);
        let mut fwd = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
        let mut rev = StreamingLdeEvaluator::new(params, fwd.point().to_vec());
        fwd.update_all(&stream);
        let mut reversed = stream.clone();
        reversed.reverse();
        rev.update_all(&reversed);
        assert_eq!(fwd.value(), rev.value());
    }

    #[test]
    fn aggregated_updates_equal_unit_updates() {
        // (i, 3) must equal three (i, 1) updates: linearity.
        let params = LdeParams::new(2, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut agg = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
        let mut unit = StreamingLdeEvaluator::new(params, agg.point().to_vec());
        agg.update(Update::new(21, 3));
        for _ in 0..3 {
            unit.update(Update::new(21, 1));
        }
        assert_eq!(agg.value(), unit.value());
    }

    #[test]
    fn multi_evaluator_matches_singles() {
        let params = LdeParams::new(2, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let stream = sip_streaming::workloads::uniform(500, params.universe(), 100, 11);
        let mut multi = MultiLdeEvaluator::<Fp61>::random(params, 3, &mut rng);
        let singles: Vec<_> = (0..multi.num_points())
            .map(|p| StreamingLdeEvaluator::new(params, multi.point(p).to_vec()))
            .collect();
        for &up in &stream {
            multi.update(up);
        }
        for (mut single, &expect) in singles.into_iter().zip(multi.values().iter()) {
            single.update_all(&stream);
            assert_eq!(single.value(), expect);
        }
    }

    #[test]
    fn batched_updates_match_per_update_paths() {
        // The batch and the per-update path must produce bit-identical
        // values, for power-of-two and general bases and several point
        // counts.
        for &(ell, d) in &[(2u64, 10u32), (16, 3), (3, 6)] {
            let params = LdeParams::new(ell, d);
            let stream = sip_streaming::workloads::with_deletions(5000, params.universe(), 0.2, 21);
            for copies in [1usize, 4, 16] {
                let mut rng = StdRng::seed_from_u64(40 + copies as u64);
                let mut per_update = MultiLdeEvaluator::<Fp61>::random(params, copies, &mut rng);
                let points: Vec<Vec<Fp61>> =
                    (0..copies).map(|p| per_update.point(p).to_vec()).collect();
                let mut batched = MultiLdeEvaluator::<Fp61>::new(params, points.clone());
                let mut single = StreamingLdeEvaluator::new(params, points[0].clone());
                for &up in &stream {
                    per_update.update(up);
                }
                batched.update_batch(&stream);
                single.update_batch(&stream);
                assert_eq!(
                    batched.values(),
                    per_update.values(),
                    "ell={ell} k={copies}"
                );
                assert_eq!(batched.value(0), single.value(), "ell={ell}");
            }
        }
    }

    #[test]
    fn weight_plan_matches_divmod_baseline() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(ell, d) in &[(2u64, 12u32), (4, 6), (16, 3), (3, 7), (10, 4)] {
            let params = LdeParams::new(ell, d);
            let eval = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
            let u = params.universe();
            for t in 0..100u64 {
                let i = (t.wrapping_mul(0x2545_f491_4f6c_dd1d)) % u;
                assert_eq!(
                    eval.weight(i),
                    reference::weight_divmod(params, eval.point(), i),
                    "ell={ell} i={i}"
                );
            }
        }
    }

    #[test]
    fn space_accounting() {
        // d + 1 protocol words; the one-point bank's packed tables join the
        // footprint once the first weight evaluation builds them, for
        // power-of-two and general bases alike. A clone taken before then
        // builds its own.
        for &(ell, d) in &[(2u64, 20u32), (16, 5), (3, 9), (10, 4)] {
            let params = LdeParams::new(ell, d);
            let mut rng = StdRng::seed_from_u64(8);
            let mut eval = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
            let fresh = eval.clone();
            assert_eq!(eval.space_words(), d as usize + 1);
            assert_eq!(eval.space_words_with_tables(), d as usize + 1);
            eval.update(Update::new(1, 1));
            assert_eq!(
                eval.space_words_with_tables(),
                d as usize + 1 + packed_table_words(params),
                "ell={ell} d={d}"
            );
            assert_eq!(fresh.space_words_with_tables(), d as usize + 1);
            assert_eq!(fresh.weight(1), eval.value());
        }
        // Multi-point: k copies of points + accumulators + packed tables
        // (ℓ = 2, d = 20 packs into two 2^10-entry groups per point).
        let params = LdeParams::new(2, 20);
        let mut rng = StdRng::seed_from_u64(9);
        let multi = MultiLdeEvaluator::<Fp61>::random(params, 4, &mut rng);
        assert_eq!(multi.space_words_with_tables(), 4 * (2 * 1024 + 20 + 1));
    }

    #[test]
    fn frequency_vector_consistency() {
        // Evaluating at a grid point recovers exactly FrequencyVector::get.
        let params = LdeParams::new(2, 10);
        let stream = sip_streaming::workloads::with_deletions(3000, params.universe(), 0.3, 12);
        let fv = FrequencyVector::from_stream(params.universe(), &stream);
        for i in [0u64, 5, 99, 1023] {
            let point: Vec<Fp61> = params.digits_of(i).map(Fp61::from_u64).collect();
            let mut eval = StreamingLdeEvaluator::new(params, point);
            eval.update_all(&stream);
            assert_eq!(eval.value(), Fp61::from_i64(fv.get(i)));
        }
    }
}

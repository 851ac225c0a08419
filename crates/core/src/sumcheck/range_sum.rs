//! RANGE-SUM (Section 3.2): the sum of all values whose keys fall in
//! `[q_L, q_R]`.
//!
//! A special case of INNER PRODUCT against the 0/1 indicator `b` of the
//! query range — with two twists that make it interesting:
//!
//! * the verifier never materialises `b`: it evaluates `f_b(r)` directly by
//!   the canonical-interval telescoping of
//!   [`sip_lde::range_indicator_lde`] (the paper's `O(log² u)` step; our
//!   single-pass variant is `O(log u)`);
//! * the honest prover never materialises `b` either: the indicator's
//!   fold table has a closed form per round ([`IndicatorLevel`]) — 0 on
//!   blocks outside the range, exactly 1 on blocks inside it, and a real
//!   [`sip_lde::interval::block_range_weight`] on the at most two blocks
//!   holding an endpoint — so the prover touches only blocks where `a`'s
//!   fold is nonzero and pays field multiplications only at the boundary;
//! * over a frozen vector that has a head ([`F2Head`]) it does not touch the
//!   data at all before round `k + 1`: where the indicator folds to exactly
//!   1 a message needs only *sums* of `a`, which the head checkpointed when
//!   the data froze ([`RangeSumProver::from_head`]).
//!
//! The query arrives *after* the stream — this is the whole point: "in most
//! applications, the user forms queries in response to other information
//! that is only known after the data has arrived".

use std::sync::Arc;

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::interval::block_range_weight;
use sip_lde::{range_indicator_lde, LdeParams};
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::engine::{Combine, FusedRounds};
use crate::error::Rejection;
use crate::fold::FoldVector;

use super::f2::{extend_chi, F2Head};
use super::moments::VerifiedAggregate;
use super::{drive_sumcheck, Adversary, LdeDigest, RangeSum, RoundProver, SumCheckVerifierCore};

/// Streaming verifier for RANGE-SUM: the [`LdeDigest`] of a [`RangeSum`]
/// query, whose range is supplied at query time.
pub type RangeSumVerifier<F> = LdeDigest<RangeSum, F>;

impl<F: PrimeField> RangeSumVerifier<F> {
    /// Draws the secret point and prepares to stream.
    pub fn new<R: Rng + ?Sized>(log_u: u32, rng: &mut R) -> Self {
        Self::drawn(RangeSum, LdeParams::binary(log_u), rng)
    }

    /// Ends streaming and fixes the query range `[q_l, q_r]`. The final
    /// check value is `f_a(r)·f_b(r)` with `f_b(r)` computed locally in
    /// `O(log u)` time.
    ///
    /// # Panics
    /// Panics if the range is empty or exceeds the universe.
    pub fn into_session(self, q_l: u64, q_r: u64) -> (SumCheckVerifierCore<F>, F) {
        let fb_r = range_indicator_lde(q_l, q_r, self.evaluator().point());
        self.session(fb_r)
    }
}

/// The query indicator's fold table after `j` challenges, in closed form.
///
/// Entry `i` of that table is the weight of the part of `[q_L, q_R]` that
/// falls in block `[i·2^j, (i+1)·2^j)`: `Σ_w Π_{k<j} χ_{w_k}(r_k)` over the
/// block's members in range. A block outside the range sums nothing: 0. A
/// block inside it sums over all of `[2]^j`, and because
/// `χ_0(r) + χ_1(r) = 1` that product of sums is **exactly 1** in the
/// field, whatever the challenges. Only the blocks holding `q_L` and `q_R`
/// — at most two per level — carry a weight that has to be computed
/// ([`block_range_weight`], `O(j)` multiplications each).
#[derive(Clone, Copy, Debug)]
pub struct IndicatorLevel<F> {
    /// The block holding `q_L`, and its weight.
    first: u64,
    first_weight: F,
    /// The block holding `q_R`, and its weight (`first`'s when they are
    /// one block).
    last: u64,
    last_weight: F,
}

impl<F: PrimeField> IndicatorLevel<F> {
    /// The level reached after binding `challenges` (`r_1, …, r_j`).
    pub fn new(q_l: u64, q_r: u64, challenges: &[F]) -> Self {
        let j = challenges.len();
        let (first, last) = (q_l >> j, q_r >> j);
        IndicatorLevel {
            first,
            first_weight: block_range_weight(q_l, q_r, challenges, j, first),
            last,
            last_weight: block_range_weight(q_l, q_r, challenges, j, last),
        }
    }

    /// Entry `i` of the indicator's fold table.
    #[inline]
    fn weight(&self, i: u64) -> F {
        if i < self.first || i > self.last {
            F::ZERO
        } else if i == self.first {
            self.first_weight
        } else if i == self.last {
            self.last_weight
        } else {
            F::ONE
        }
    }

    /// Pair `m`'s contribution to `g(0), g(1), g(2)` of `Σ a·b`.
    #[inline(always)]
    fn accumulate(&self, m: u64, alo: F, ahi: F, acc: &mut [F::DotAcc]) {
        let (lo, hi) = (2 * m, 2 * m + 1);
        if hi < self.first || lo > self.last {
            return;
        }
        let a2 = ahi + (ahi - alo);
        if self.first < lo && hi < self.last {
            // Both children interior: the products are by the constant 1,
            // which leaves three additions.
            F::acc_add_prod(&mut acc[0], alo, F::ONE);
            F::acc_add_prod(&mut acc[1], ahi, F::ONE);
            F::acc_add_prod(&mut acc[2], a2, F::ONE);
            return;
        }
        let (blo, bhi) = (self.weight(lo), self.weight(hi));
        F::acc_add_prod(&mut acc[0], alo, blo);
        F::acc_add_prod(&mut acc[1], ahi, bhi);
        F::acc_add_prod(&mut acc[2], a2, bhi + (bhi - blo));
    }
}

/// The RANGE-SUM per-pair rule for one or more ranges over the same data:
/// three slots per range, the partner children read off each range's
/// [`IndicatorLevel`] — the indicator is never materialised on any thread.
pub struct RangeSumCombine<'a, F> {
    /// One level per queried range, all after the same challenges.
    pub ranges: &'a [IndicatorLevel<F>],
}

impl<'a, F> RangeSumCombine<'a, F> {
    /// The rule for a single range.
    pub fn one(level: &'a IndicatorLevel<F>) -> Self {
        RangeSumCombine {
            ranges: std::slice::from_ref(level),
        }
    }
}

impl<F: PrimeField> Combine<F> for RangeSumCombine<'_, F> {
    fn slots(&self) -> usize {
        3 * self.ranges.len()
    }

    #[inline(always)]
    fn accumulate(&self, m: u64, a: &[F], _b: &[F], acc: &mut [F::DotAcc]) {
        for (range, acc) in self.ranges.iter().zip(acc.chunks_exact_mut(3)) {
            range.accumulate(m, a[0], a[1], acc);
        }
    }

    fn live(&self, blocks: u64) -> (u64, u64) {
        let lo = self.ranges.iter().map(|r| r.first / 2).min();
        let hi = self.ranges.iter().map(|r| r.last / 2 + 1).max();
        (lo.unwrap_or(0), hi.unwrap_or(0).min(blocks))
    }
}

/// Honest RANGE-SUM prover over the closed-form indicator fold.
#[derive(Clone, Debug)]
pub struct RangeSumProver<F: PrimeField> {
    stage: Stage<F>,
    q_l: u64,
    q_r: u64,
    /// Challenges received so far (`r_1, …, r_j`), which are exactly the
    /// keys the indicator fold needs.
    challenges: Vec<F>,
    /// The indicator's table after those challenges.
    level: IndicatorLevel<F>,
    rounds: usize,
}

/// Where a [`RangeSumProver`]'s messages come from.
#[derive(Clone, Debug)]
enum Stage<F: PrimeField> {
    /// Rounds `1..=k` of a head-started prover: the vector as the indicator
    /// sees it that early — at most three blocks of `2^k` cells, folded
    /// here; the data is not touched.
    Head {
        head: Arc<F2Head<F>>,
        /// `(b, entries)`: block `b` of `2^k` cells as its own little fold
        /// table, which stands for this round's entries
        /// `[b·len, (b + 1)·len)` of the whole one, `len` halving with
        /// every challenge. The blocks holding `q_L` and `q_R` as they are,
        /// and between them — under the index of the first — the sum of
        /// every block strictly between.
        blocks: Vec<(u64, FoldVector<F>)>,
    },
    /// A fold table, swept once a round.
    Table(FusedRounds<F>),
}

impl<F: PrimeField> RangeSumProver<F> {
    /// Builds the prover for range `[q_l, q_r]` over `[2^log_u]`.
    pub fn new(fv: &FrequencyVector, log_u: u32, q_l: u64, q_r: u64) -> Self {
        assert!(q_l <= q_r && q_r < (1u64 << log_u), "bad range");
        Self::starting(Stage::Table(FusedRounds::new(fv, log_u)), log_u, q_l, q_r)
    }

    /// Starts from the head of a frozen vector: rounds `1..=k` are answered
    /// without touching the data, and binding `r_k` makes the one pass that
    /// builds the fold table at `u/2^k` entries (with round `k+1`'s message,
    /// [`FusedRounds::bound`]). Every message equals the one [`Self::new`]
    /// over the same vector sends.
    ///
    /// Through round `k` a pair of table entries never straddles a block of
    /// `2^k` cells, and on every such block strictly between the two that
    /// hold `q_L` and `q_R` the indicator's fold is exactly 1
    /// ([`IndicatorLevel`]): those blocks contribute `Σ lo`, `Σ hi` and
    /// `Σ (2·hi − lo)` of their folded entries, and the fold is linear, so
    /// their sum (from the head's prefix sums) folded once stands for all of
    /// them. The two endpoint blocks are copied and folded as they are.
    pub fn from_head(head: Arc<F2Head<F>>, q_l: u64, q_r: u64) -> Self {
        let (k, log_u) = (head.rounds(), head.log_u());
        assert!(q_l <= q_r && q_r < (1u64 << log_u), "bad range");
        let (first, last) = (q_l >> k, q_r >> k);
        let summed = |lo, hi| FoldVector::from_values(head.block_sums(lo, hi));
        let mut blocks = vec![(first, summed(first, first + 1))];
        if first + 1 < last {
            blocks.push((first + 1, summed(first + 1, last)));
        }
        if first < last {
            blocks.push((last, summed(last, last + 1)));
        }
        Self::starting(Stage::Head { head, blocks }, log_u, q_l, q_r)
    }

    fn starting(stage: Stage<F>, log_u: u32, q_l: u64, q_r: u64) -> Self {
        RangeSumProver {
            stage,
            q_l,
            q_r,
            challenges: Vec::new(),
            level: IndicatorLevel::new(q_l, q_r, &[]),
            rounds: log_u as usize,
        }
    }
}

impl<F: PrimeField> RoundProver<F> for RangeSumProver<F> {
    fn degree(&self) -> usize {
        2
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn message(&mut self) -> Vec<F> {
        match &mut self.stage {
            Stage::Head { blocks, .. } => {
                let mut acc = vec![F::DotAcc::default(); 3];
                for (b, entries) in blocks.iter() {
                    let first_pair = b * entries.pairs();
                    entries.for_each_pair(|m, lo, hi| {
                        self.level.accumulate(first_pair + m, lo, hi, &mut acc);
                    });
                }
                acc.into_iter().map(F::acc_finish).collect()
            }
            Stage::Table(fused) => fused.message(&RangeSumCombine::one(&self.level)),
        }
    }

    fn bind(&mut self, r: F) {
        self.challenges.push(r);
        self.level = IndicatorLevel::new(self.q_l, self.q_r, &self.challenges);
        let next = RangeSumCombine::one(&self.level);
        match &mut self.stage {
            Stage::Head { head, blocks } => {
                if self.challenges.len() == head.rounds() {
                    let mut chi = vec![F::ONE];
                    for &r in &self.challenges {
                        extend_chi(&mut chi, r);
                    }
                    let fused = FusedRounds::bound(head.bind_source(), head.log_u(), &chi, &next);
                    self.stage = Stage::Table(fused);
                    return;
                }
                for (_, entries) in blocks {
                    entries.bind(r);
                }
            }
            Stage::Table(fused) => fused.bind(r, &next),
        }
    }
}

/// Runs the complete honest RANGE-SUM protocol.
pub fn run_range_sum<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q_l: u64,
    q_r: u64,
    rng: &mut R,
) -> Result<VerifiedAggregate<F>, Rejection> {
    run_range_sum_with_adversary(log_u, stream, q_l, q_r, rng, None)
}

/// Like [`run_range_sum`] with a message-corruption hook.
pub fn run_range_sum_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q_l: u64,
    q_r: u64,
    rng: &mut R,
    adversary: Option<Adversary<'_, F>>,
) -> Result<VerifiedAggregate<F>, Rejection> {
    let mut verifier = RangeSumVerifier::<F>::new(log_u, rng);
    verifier.update_all(stream);
    let space = verifier.space_words();

    let fv = FrequencyVector::from_stream(1 << log_u, stream);
    let mut prover = RangeSumProver::new(&fv, log_u, q_l, q_r);

    let (mut core, expected) = verifier.into_session(q_l, q_r);
    let mut report = CostReport {
        verifier_space_words: space,
        // V announces the query range: 2 words.
        v_to_p_words: 2,
        ..CostReport::default()
    };
    let value = drive_sumcheck(&mut prover, &mut core, expected, &mut report, adversary)?;
    Ok(VerifiedAggregate { value, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn completeness_kv_workload() {
        // The DICTIONARY-style input: distinct keys with values.
        let mut rng = StdRng::seed_from_u64(1);
        let log_u = 10;
        let stream = workloads::distinct_key_values(300, 1 << log_u, 1000, 2);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        for &(q_l, q_r) in &[(0u64, 1023u64), (100, 200), (512, 512), (0, 0)] {
            let got = run_range_sum::<Fp61, _>(log_u, &stream, q_l, q_r, &mut rng).unwrap();
            assert_eq!(
                got.value,
                Fp61::from_u128(fv.range_sum(q_l, q_r) as u128),
                "range [{q_l}, {q_r}]"
            );
        }
    }

    #[test]
    fn random_ranges_match_ground_truth() {
        let mut rng = StdRng::seed_from_u64(2);
        let log_u = 9;
        let u = 1u64 << log_u;
        let stream = workloads::uniform(500, u, 50, 3);
        let fv = FrequencyVector::from_stream(u, &stream);
        for _ in 0..20 {
            let a = rng.random_range(0..u);
            let b = rng.random_range(0..u);
            let (q_l, q_r) = (a.min(b), a.max(b));
            let got = run_range_sum::<Fp61, _>(log_u, &stream, q_l, q_r, &mut rng).unwrap();
            assert_eq!(got.value, Fp61::from_u128(fv.range_sum(q_l, q_r) as u128));
        }
    }

    #[test]
    fn full_range_equals_f1() {
        let mut rng = StdRng::seed_from_u64(3);
        let stream = workloads::uniform(200, 1 << 8, 20, 4);
        let fv = FrequencyVector::from_stream(1 << 8, &stream);
        let got = run_range_sum::<Fp61, _>(8, &stream, 0, 255, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.total() as u128));
    }

    #[test]
    fn empty_intersection_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let stream = vec![Update::new(10, 5), Update::new(20, 7)];
        let got = run_range_sum::<Fp61, _>(6, &stream, 30, 40, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::ZERO);
    }

    #[test]
    fn cost_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let log_u = 12;
        let stream = workloads::uniform(100, 1 << log_u, 5, 6);
        let got = run_range_sum::<Fp61, _>(log_u, &stream, 17, 3000, &mut rng).unwrap();
        let d = log_u as usize;
        assert_eq!(got.report.p_to_v_words, 3 * d);
        assert_eq!(got.report.v_to_p_words, 2 + d - 1); // query + challenges
    }

    #[test]
    fn tampering_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let stream = workloads::uniform(100, 1 << 8, 9, 7);
        for round in [1usize, 5, 8] {
            let mut adv = |rd: usize, msg: &mut Vec<Fp61>| {
                if rd == round {
                    msg[2] += Fp61::from_u64(3);
                }
            };
            let res = run_range_sum_with_adversary::<Fp61, _>(
                8,
                &stream,
                50,
                150,
                &mut rng,
                Some(&mut adv),
            );
            assert!(res.is_err(), "round {round} accepted");
        }
    }

    #[test]
    fn prover_lying_about_range_rejected() {
        // Prover built for a *different* range than the verifier asked.
        let mut rng = StdRng::seed_from_u64(7);
        let log_u = 8;
        let stream = workloads::uniform(200, 1 << log_u, 9, 8);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        if fv.range_sum(0, 99) == fv.range_sum(0, 120) {
            // astronomically unlikely with this seed; guard anyway
            return;
        }
        let mut verifier = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
        verifier.update_all(&stream);
        let mut prover = RangeSumProver::new(&fv, log_u, 0, 120);
        let (mut core, expected) = verifier.into_session(0, 99);
        let mut report = CostReport::default();
        let res = drive_sumcheck(&mut prover, &mut core, expected, &mut report, None);
        assert!(res.is_err());
    }
}

//! The prover engine: one generic fold/combine kernel behind every
//! multi-round prover.
//!
//! CMT's follow-up ("Practical Verified Computation with Streaming
//! Interactive Proofs") observes that the honest prover's entire cost of
//! practicality is the per-round pass over the fold table — the same
//! `Σ_m combine(A[2m], A[2m+1])` loop, repeated with a different per-pair
//! rule by every protocol. This module extracts that loop once:
//!
//! * [`Combine`] is the per-pair (or per-block) rule — squared interpolant
//!   for F₂, `k`-th powers for moments, lockstep products for INNER
//!   PRODUCT, indicator products for RANGE-SUM, χ-weighted blocks for
//!   general `ℓ` — and, for F₂ alone, a closed form of the message over a
//!   whole dense table ([`Combine::dense_message`]: three pair moments);
//! * [`FoldSource`] names what a message-only walk covers — one fold
//!   table's pairs, the union walk of two lockstep tables, or fixed-width
//!   dense blocks;
//! * [`fold_message`] runs that walk and [`bind_message`] runs the
//!   **fused** pass — bind `r_j` and produce round `j+1`'s message in one
//!   sweep;
//! * [`FusedRounds`] is the schedule every single-table prover follows:
//!   round 1 is the only message-only walk, every later message falls out
//!   of the bind before it — and a prover that already holds `k`
//!   challenges enters it `k` rounds in ([`bind_many_message`]).
//!
//! ## One serial pass, and why fusion cannot change a transcript
//!
//! Every pass runs on the calling thread. A server is parallel one level
//! up — a thread per connection — so a query's sweep competes with other
//! tenants' sessions for cores, not with idle ones; a walk chunked over
//! scoped worker threads measured slower than this loop on the hardware
//! we have (EXPERIMENTS.md, "Why the engines are serial").
//!
//! Accumulation is exact field arithmetic — associative and commutative
//! with no rounding — so a message summed over the entries a fold has just
//! written equals the one a second pass would read back (and a walk split
//! into chunks would recombine to exactly the same total, should one ever
//! be reintroduced). A closed form over the finished table, where a rule has
//! one, sums the same pairs exactly too. Fusion changes wall-clock, never a
//! round polynomial: soundness and cost accounting are untouched by
//! construction, and `tests/engine_equivalence.rs` and
//! `tests/fused_equivalence.rs` check the transcripts against naive
//! references anyway.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use sip_field::PrimeField;
use sip_streaming::FrequencyVector;

use crate::fold::{BindSource, FoldVector};

/// Pre-resolved metric handles for the engine hot paths. Resolution walks a
/// map under a mutex, so it happens once per process; afterwards every
/// counted call is a handful of relaxed atomic adds. Timers are sampled
/// 1-in-[`sip_obs::timer_sample`] calls (16; `0` = off) — `Instant::now`
/// is the only non-trivial cost here and a fold call already amortises it
/// over thousands of blocks.
struct EngineMetrics {
    fold_messages: sip_obs::Counter,
    fold_blocks: sip_obs::Counter,
    fold_message_us: sip_obs::Histogram,
    binds_array: sip_obs::Counter,
    binds_packed: sip_obs::Counter,
    sample: AtomicU64,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        fold_messages: sip_obs::counter("sip_fold_messages_total"),
        fold_blocks: sip_obs::counter("sip_fold_blocks_total"),
        fold_message_us: sip_obs::histogram("sip_fold_message_us"),
        binds_array: sip_obs::counter_with("sip_fold_binds_total", &[("source", "array")]),
        binds_packed: sip_obs::counter_with("sip_fold_binds_total", &[("source", "packed")]),
        sample: AtomicU64::new(0),
    })
}

impl EngineMetrics {
    fn sampled(&self) -> bool {
        let rate = sip_obs::timer_sample();
        rate != 0
            && self
                .sample
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(rate)
    }
}

/// A per-pair combine rule: how one block's children contribute to the
/// round polynomial's evaluation slots.
///
/// Implementations accumulate into delayed-reduction accumulators
/// ([`PrimeField::DotAcc`]) so the hot loop performs one modular reduction
/// per batch of products where the field's representation allows. A rule
/// whose message over a whole dense table has a closed form says so
/// ([`Self::dense_message`]); a sweep that writes such a table then writes
/// only the table and reads it back once, instead of calling
/// [`Self::accumulate`] on every pair as it writes it.
pub trait Combine<F: PrimeField> {
    /// Number of evaluation slots the round message carries
    /// (`degree + 1`).
    fn slots(&self) -> usize;

    /// Folds block `m`'s contribution into `acc` (`slots()` entries).
    ///
    /// `a` holds the primary table's children for the block (two for pair
    /// walks, the block width for [`FoldSource::Blocks`]); `b` holds the
    /// partner table's children on union walks and is empty otherwise.
    fn accumulate(&self, m: u64, a: &[F], b: &[F], acc: &mut [F::DotAcc]);

    /// The half-open range of block indices, out of `blocks`, outside which
    /// this rule contributes nothing whatever the children are; a
    /// message-only walk does not visit the rest. Every block by default.
    fn live(&self, blocks: u64) -> (u64, u64) {
        (0, blocks)
    }

    /// The message over every pair `(A[2m], A[2m+1])` of a dense table in
    /// one call over the finished table, for a rule whose message is a
    /// function of the table alone with a closed form (F₂'s: three pair
    /// moments, [`PrimeField::pair_moments`]). `None`, the default, for
    /// every other rule.
    ///
    /// A sweep that writes a dense table asks first. For `Some` it writes
    /// only the table and then makes the one call; for `None` it hands each
    /// pair it writes with a nonzero child to [`Self::accumulate`] in the
    /// same pass. Both sum the same pairs exactly, so which one a rule takes
    /// never changes a message.
    fn dense_message(&self) -> Option<DenseMessage<F>> {
        None
    }
}

/// A round message from a whole dense fold table ([`Combine::dense_message`]).
pub type DenseMessage<F> = fn(&[F]) -> Vec<F>;

/// `slots` fresh delayed-reduction accumulators.
pub(crate) fn accs_for<F: PrimeField>(slots: usize) -> Vec<F::DotAcc> {
    vec![F::DotAcc::default(); slots]
}

/// The finished sums of [`accs_for`]'s accumulators.
pub(crate) fn finish<F: PrimeField>(acc: Vec<F::DotAcc>) -> Vec<F> {
    acc.into_iter().map(F::acc_finish).collect()
}

/// What the kernel walks: the block structure behind one round message.
#[derive(Clone, Copy)]
pub enum FoldSource<'a, F: PrimeField> {
    /// The `(A[2m], A[2m+1])` pairs of one fold table, skipping all-zero
    /// pairs.
    Pairs(&'a FoldVector<F>),
    /// The union pair walk of two lockstep fold tables (INNER PRODUCT).
    UnionPairs(&'a FoldVector<F>, &'a FoldVector<F>),
    /// Fixed-width blocks of a dense table (the general-`ℓ` provers; the
    /// table length must be a multiple of the width).
    Blocks {
        /// The dense fold table.
        table: &'a [F],
        /// Children per block (`ℓ`).
        width: usize,
    },
}

impl<F: PrimeField> FoldSource<'_, F> {
    /// Number of blocks in the walk.
    pub fn blocks(&self) -> u64 {
        match self {
            FoldSource::Pairs(v) => v.pairs(),
            FoldSource::UnionPairs(a, _) => a.pairs(),
            FoldSource::Blocks { table, width } => {
                debug_assert!(*width >= 1 && table.len() % width == 0);
                (table.len() / width) as u64
            }
        }
    }

    /// Walks blocks `[lo, hi)` in increasing order.
    fn walk(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, &[F], &[F])) {
        match self {
            FoldSource::Pairs(v) => v.for_each_pair_in(lo, hi, |m, plo, phi| {
                f(m, &[plo, phi], &[]);
            }),
            FoldSource::UnionPairs(a, b) => {
                FoldVector::for_each_pair_union_in(a, b, lo, hi, |m, alo, ahi, blo, bhi| {
                    f(m, &[alo, ahi], &[blo, bhi]);
                })
            }
            FoldSource::Blocks { table, width } => {
                for m in lo..hi {
                    let start = m as usize * width;
                    f(m, &table[start..start + width], &[]);
                }
            }
        }
    }
}

/// Produces one round message without folding: walks `source` once,
/// feeding every block in [`Combine::live`] through `combine`, and returns
/// the `combine.slots()` evaluation sums. This is round 1 of a single-table
/// prover and every round of the lockstep and block provers.
pub fn fold_message<F: PrimeField, C: Combine<F> + ?Sized>(
    source: FoldSource<'_, F>,
    combine: &C,
) -> Vec<F> {
    let (lo, hi) = combine.live(source.blocks());
    observed(hi - lo, || {
        let mut acc = accs_for::<F>(combine.slots());
        source.walk(lo, hi, |m, a, b| combine.accumulate(m, a, b, &mut acc));
        finish::<F>(acc)
    })
}

/// The fused pass: binds `table`'s lowest variable to `r` and returns the
/// **next** round's message, summed by `combine` over the entries the fold
/// has just written — one sweep instead of a fold followed by a message
/// walk (`FoldVector::fold_fused`).
pub fn bind_message<F: PrimeField, C: Combine<F> + ?Sized>(
    table: &mut FoldVector<F>,
    r: F,
    combine: &C,
) -> Vec<F> {
    observed(table.pairs(), || table.fold_fused(r, combine))
}

/// The fused pass `k` rounds deep: binds the `k` lowest variables of a frozen
/// vector over `[2^bits]` at once — `weights[y] = χ_y(r_1, …, r_k)`, `2^k` of
/// them — and returns the table `A_{k+1}` with round `k+1`'s message, summed
/// by `combine` over the entries the sweep has just written
/// (`FoldVector::from_frequency_bound`). `source` is what the sweep reads:
/// the vector's array, or its packed nonzero cells. Either way it is one
/// pass that produces one message over the same logical table, so it counts
/// as one `sip_fold_messages_total` with `blocks` = the table's `2^{bits−k}`
/// blocks of `2^k` cells, and as one `sip_fold_binds_total` under the source
/// it read.
pub fn bind_many_message<F: PrimeField, C: Combine<F> + ?Sized>(
    source: BindSource<'_>,
    bits: u32,
    weights: &[F],
    combine: &C,
) -> (FoldVector<F>, Vec<F>) {
    let blocks = (1u64 << bits) / weights.len() as u64;
    if sip_obs::enabled() {
        let metrics = engine_metrics();
        match source {
            BindSource::Array(_) => metrics.binds_array.inc(),
            BindSource::Packed(_) => metrics.binds_packed.inc(),
        }
    }
    observed(blocks, || {
        FoldVector::from_frequency_bound(source, bits, weights, combine)
    })
}

/// Runs one pass that produces a round message under the engine's
/// instrumentation: one more in `sip_fold_messages_total`, `blocks` more
/// (the pairs or blocks the pass sweeps) in `sip_fold_blocks_total`, one
/// `sip.core.engine/fold_message` span, and a sampled
/// `sip_fold_message_us` observation.
fn observed<R>(blocks: u64, pass: impl FnOnce() -> R) -> R {
    if !sip_obs::enabled() {
        return pass();
    }
    let metrics = engine_metrics();
    metrics.fold_messages.inc();
    metrics.fold_blocks.add(blocks);
    let mut tspan = sip_obs::trace::span("sip.core.engine", "fold_message");
    tspan.field("blocks", blocks);
    let timer = metrics.sampled().then(sip_obs::Timer::start);
    let out = pass();
    if let Some(timer) = timer {
        metrics.fold_message_us.observe(timer.elapsed_us());
    }
    out
}

/// The round schedule of a prover over one fold table: round 1's message is
/// a walk over the shared snapshot, and binding `r_j` produces round
/// `j+1`'s message in the same sweep that folds the table
/// ([`bind_message`]). Each protocol supplies its [`Combine`]. A round is
/// one sweep that folds the table and feeds the rule every pair it writes —
/// or, for F₂ over a dense table, a fold that feeds nothing and then one
/// read of the half-size table it wrote for the three pair moments, which
/// costs less than handing out the pairs (EXPERIMENTS.md, "F₂ messages from
/// three moments").
#[derive(Clone, Debug)]
pub struct FusedRounds<F: PrimeField> {
    table: FoldVector<F>,
    /// The current round's message, once a bind produced it.
    ready: Option<Vec<F>>,
}

impl<F: PrimeField> FusedRounds<F> {
    /// Starts from `A_1 = a`: an `O(1)` snapshot of `fv`
    /// ([`FoldVector::from_frequency`]).
    pub fn new(fv: &FrequencyVector, log_u: u32) -> Self {
        FusedRounds {
            table: FoldVector::from_frequency(fv, log_u),
            ready: None,
        }
    }

    /// Enters the schedule `k` rounds in, for a prover that answered rounds
    /// `1..=k` without a table: one pass over `source` binds `r_1, …, r_k`
    /// (as the `2^k` weights `χ_y(r_1, …, r_k)`) and leaves round `k+1`'s
    /// message ready ([`bind_many_message`]); `next` is that round's rule.
    pub fn bound<C: Combine<F> + ?Sized>(
        source: BindSource<'_>,
        log_u: u32,
        weights: &[F],
        next: &C,
    ) -> Self {
        let (table, message) = bind_many_message(source, log_u, weights, next);
        FusedRounds {
            table,
            ready: Some(message),
        }
    }

    /// The fold table.
    pub fn table(&self) -> &FoldVector<F> {
        &self.table
    }

    /// The current round's message; `combine` is the current round's rule.
    pub fn message<C: Combine<F> + ?Sized>(&mut self, combine: &C) -> Vec<F> {
        self.ready
            .get_or_insert_with(|| fold_message(FoldSource::Pairs(&self.table), combine))
            .clone()
    }

    /// Binds the current variable to `r`; `next` is the **next** round's
    /// rule.
    pub fn bind<C: Combine<F> + ?Sized>(&mut self, r: F, next: &C) {
        self.ready = Some(bind_message(&mut self.table, r, next));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_field::{Fp61, PrimeField};
    use sip_streaming::{workloads, FrequencyVector};

    /// Degree-2 squared-interpolant rule (the F₂ message), used here to
    /// exercise the kernel directly.
    struct Square;

    impl Combine<Fp61> for Square {
        fn slots(&self) -> usize {
            3
        }

        fn accumulate(
            &self,
            _m: u64,
            a: &[Fp61],
            _b: &[Fp61],
            acc: &mut [<Fp61 as PrimeField>::DotAcc],
        ) {
            let (lo, hi) = (a[0], a[1]);
            Fp61::acc_add_prod(&mut acc[0], lo, lo);
            Fp61::acc_add_prod(&mut acc[1], hi, hi);
            let v2 = hi + (hi - lo);
            Fp61::acc_add_prod(&mut acc[2], v2, v2);
        }
    }

    fn fold_of(n: usize, bits: u32, seed: u64) -> FoldVector<Fp61> {
        let stream = workloads::uniform(n, 1 << bits, 50, seed);
        FoldVector::from_frequency(&FrequencyVector::from_stream(1 << bits, &stream), bits)
    }

    #[test]
    fn fused_bind_matches_bind_then_message() {
        // From a dense, a small and a sparse snapshot, two levels deep (the
        // second sweep reads the field-form table the first one wrote): the
        // fused pass returns the message a second walk over the folded table
        // would, and leaves the same table behind.
        let sparse = {
            let mut fv = FrequencyVector::new_sparse(1 << 16);
            fv.apply_batch(&workloads::uniform(60, 1 << 16, 50, 7));
            FoldVector::<Fp61>::from_frequency(&fv, 16)
        };
        for start in [fold_of(40_000, 15, 7), fold_of(100, 10, 7), sparse] {
            let mut two_pass = start.clone();
            let mut fused = start;
            for r in [Fp61::from_u64(0xfeed_beef), Fp61::from_u64(77)] {
                two_pass.bind(r);
                let expect = fold_message(FoldSource::Pairs(&two_pass), &Square);
                assert_eq!(bind_message(&mut fused, r, &Square), expect);
                let mut left = Vec::new();
                fused.for_each_pair(|m, lo, hi| left.push((m, lo, hi)));
                let mut right = Vec::new();
                two_pass.for_each_pair(|m, lo, hi| right.push((m, lo, hi)));
                assert_eq!(left, right);
            }
        }
    }

    #[test]
    fn fully_folded_table_yields_zero_blocks() {
        let mut fold = FoldVector::from_values(vec![Fp61::ONE, Fp61::from_u64(2)]);
        fold.bind(Fp61::from_u64(5));
        assert_eq!(fold.pairs(), 0);
        let msg = fold_message(FoldSource::Pairs(&fold), &Square);
        assert_eq!(msg, vec![Fp61::ZERO; 3]);
    }
}

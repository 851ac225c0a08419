//! The prover engine: one generic fold/combine kernel behind every
//! multi-round prover, with an opt-in data-parallel scheduler.
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
//!   general `ℓ`;
//! * [`FoldSource`] names what a message-only walk covers — one fold
//!   table's pairs, the union walk of two lockstep tables, or fixed-width
//!   dense blocks;
//! * [`ProverPool::fold_message`] runs that walk and
//!   [`ProverPool::bind_message`] runs the **fused** pass — bind `r_j` and
//!   produce round `j+1`'s message in one sweep — either serially
//!   (`threads = 1`, the default) or split into contiguous chunks executed
//!   under [`std::thread::scope`];
//! * [`FusedRounds`] is the schedule every single-table prover follows:
//!   round 1 is the only message-only walk, every later message falls out
//!   of the bind before it — and a prover that already holds `k`
//!   challenges enters it `k` rounds in ([`ProverPool::bind_many_message`]).
//!
//! ## Why scheduling cannot change a transcript
//!
//! Accumulation is exact field arithmetic — associative and commutative
//! with no rounding — and chunk boundaries ([`chunk_range`]) are
//! deterministic, so the chunk partial sums recombine to exactly the serial
//! total at **any** thread count, and a message summed over the entries a
//! fold has just written equals the one a second pass would read back.
//! Parallelism and fusion change wall-clock, never a round polynomial:
//! soundness and cost accounting are untouched by construction, and
//! `tests/engine_equivalence.rs` and `tests/fused_equivalence.rs` check the
//! transcripts pairwise anyway.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use sip_field::PrimeField;
use sip_lde::MultiLdeEvaluator;
use sip_streaming::{FrequencyVector, Update};

use crate::fold::{chunk_range, FoldRule, FoldVector};

/// Pre-resolved metric handles for the engine hot paths. Resolution walks a
/// map under a mutex, so it happens once per process; afterwards every
/// counted call is a handful of relaxed atomic adds. Timers are sampled
/// 1-in-[`sip_obs::timer_sample`] calls (default 16, configurable via
/// `ServerConfig::obs_sample`, `0` = off) — `Instant::now` is the only
/// non-trivial cost here and a fold/batch call already amortises it over
/// thousands of blocks.
struct EngineMetrics {
    fold_messages: sip_obs::Counter,
    fold_blocks: sip_obs::Counter,
    fold_message_us: sip_obs::Histogram,
    ingest_updates: sip_obs::Counter,
    ingest_batch_us: sip_obs::Histogram,
    sample: AtomicU64,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        fold_messages: sip_obs::counter("sip_fold_messages_total"),
        fold_blocks: sip_obs::counter("sip_fold_blocks_total"),
        fold_message_us: sip_obs::histogram("sip_fold_message_us"),
        ingest_updates: sip_obs::counter("sip_ingest_updates_total"),
        ingest_batch_us: sip_obs::histogram("sip_ingest_batch_us"),
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

/// Below this many blocks a parallel walk is all spawn overhead; the kernel
/// silently degrades to the serial path. (The tail rounds of every fold
/// drop under this threshold, which is exactly when threads stop paying.)
const MIN_PARALLEL_BLOCKS: u64 = 1 << 12;

/// A per-pair combine rule: how one block's children contribute to the
/// round polynomial's evaluation slots.
///
/// Implementations accumulate into delayed-reduction accumulators
/// ([`PrimeField::DotAcc`]) so the hot loop performs one modular reduction
/// per batch of products where the field's representation allows.
pub trait Combine<F: PrimeField>: Sync {
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

/// The prover's scheduling knob: how many worker threads a round-message
/// pass may use. `threads = 1` (the default) is the serial path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProverPool {
    /// Worker threads per [`ProverPool::fold_message`] call (≥ 1).
    pub threads: usize,
}

impl Default for ProverPool {
    fn default() -> Self {
        ProverPool::SERIAL
    }
}

impl ProverPool {
    /// The serial engine: exactly the historical single-threaded loops.
    pub const SERIAL: ProverPool = ProverPool { threads: 1 };

    /// A pool of `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a prover needs at least one thread");
        ProverPool { threads }
    }

    /// A pool sized to the machine:
    /// [`std::thread::available_parallelism`], falling back to serial when
    /// the count is unavailable. This is what `threads = 0` resolves to in
    /// server configuration.
    pub fn auto() -> Self {
        ProverPool {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Resolves a configured thread count: `0` means auto-detect
    /// ([`Self::auto`]), anything else is taken literally.
    pub fn from_config(threads: usize) -> Self {
        if threads == 0 {
            Self::auto()
        } else {
            Self::new(threads)
        }
    }

    /// Runs a verifier-side multi-point ingest batch on this pool:
    /// [`MultiLdeEvaluator::update_batch_threads`] with the pool's thread
    /// count. Chunk partials recombine exactly, so the evaluator values
    /// are identical at any thread count — same discipline as
    /// [`Self::fold_message`].
    pub fn ingest_batch<F: PrimeField>(&self, eval: &mut MultiLdeEvaluator<F>, batch: &[Update]) {
        if !sip_obs::enabled() {
            eval.update_batch_threads(batch, self.threads);
            return;
        }
        let metrics = engine_metrics();
        // One span per call, not per update: coarse enough to stay inside
        // the bench_obs overhead gate even with tracing on.
        let mut tspan = sip_obs::trace::span("sip.core.engine", "ingest_batch");
        tspan.field("updates", batch.len());
        let timer = metrics.sampled().then(sip_obs::Timer::start);
        eval.update_batch_threads(batch, self.threads);
        metrics.ingest_updates.add(batch.len() as u64);
        if let Some(timer) = timer {
            metrics.ingest_batch_us.observe(timer.elapsed_us());
        }
    }

    /// Chunks a pass over `blocks` blocks is split into: the pool's threads
    /// once the pass is large enough to pay for them, else one.
    fn chunks_for(&self, blocks: u64) -> usize {
        if blocks >= MIN_PARALLEL_BLOCKS {
            self.threads.max(1).min(blocks as usize)
        } else {
            1
        }
    }

    /// Produces one round message without folding: walks `source` once,
    /// feeding every block in [`Combine::live`] through `combine`, and
    /// returns the `combine.slots()` evaluation sums. This is round 1 of a
    /// single-table prover and every round of the lockstep and block
    /// provers.
    ///
    /// With `threads > 1` and a large enough walk, the block range is
    /// split into contiguous chunks executed under [`std::thread::scope`];
    /// chunk partials recombine in chunk order. Exact field arithmetic
    /// makes the result identical to the serial walk at any thread count.
    pub fn fold_message<F: PrimeField, C: Combine<F> + ?Sized>(
        &self,
        source: FoldSource<'_, F>,
        combine: &C,
    ) -> Vec<F> {
        let (lo, hi) = combine.live(source.blocks());
        let blocks = hi - lo;
        observed(blocks, || {
            let mut partials = partials_for::<F>(combine.slots(), self.chunks_for(blocks));
            let chunks = partials.len();
            let walk = |c: usize, acc: &mut Vec<F::DotAcc>| {
                let (c_lo, c_hi) = chunk_range(blocks, c, chunks);
                source.walk(lo + c_lo, lo + c_hi, |m, a, b| {
                    combine.accumulate(m, a, b, acc)
                });
            };
            if let [acc] = partials.as_mut_slice() {
                walk(0, acc);
            } else {
                let walk = &walk;
                std::thread::scope(|scope| {
                    for (c, acc) in partials.iter_mut().enumerate() {
                        scope.spawn(move || walk(c, acc));
                    }
                });
            }
            recombine::<F>(partials)
        })
    }

    /// The fused pass: binds `table`'s lowest variable to `r` and returns
    /// the **next** round's message, summed by `combine` over the entries
    /// the fold has just written — one sweep instead of a fold followed by
    /// a message walk (`FoldVector::fold_fused`). Chunking, and why it
    /// cannot change the result, are as for [`Self::fold_message`].
    pub fn bind_message<F: PrimeField, C: Combine<F> + ?Sized>(
        &self,
        table: &mut FoldVector<F>,
        r: F,
        combine: &C,
    ) -> Vec<F> {
        let swept = table.pairs();
        observed(swept, || {
            let mut partials = partials_for::<F>(combine.slots(), self.chunks_for(swept / 2));
            table.fold_fused(FoldRule::Bind(r), combine, &mut partials);
            recombine::<F>(partials)
        })
    }

    /// The fused pass `k` rounds deep: binds the `k` lowest variables of
    /// `fv` over `[2^bits]` at once — `weights[y] = χ_y(r_1, …, r_k)`, `2^k`
    /// of them — and returns the table `A_{k+1}` with round `k+1`'s
    /// message, summed by `combine` over the entries the sweep has just
    /// written (`FoldVector::from_frequency_bound`). It is one pass over a
    /// table that produces one message, so it counts as one
    /// `sip_fold_messages_total` with `blocks` = the `2^{bits−k}` blocks of
    /// `2^k` cells it sweeps. Chunking, and why it cannot change the
    /// result, are as for [`Self::fold_message`].
    pub fn bind_many_message<F: PrimeField, C: Combine<F> + ?Sized>(
        &self,
        fv: &FrequencyVector,
        bits: u32,
        weights: &[F],
        combine: &C,
    ) -> (FoldVector<F>, Vec<F>) {
        let cells = 1u64 << bits;
        let blocks = cells / weights.len() as u64;
        observed(blocks, || {
            // As much work a chunk as in `bind_message` (a pair there is two
            // cells here), and never more chunks than pairs to hand out.
            let chunks = self.chunks_for(cells / 4).min((blocks / 2).max(1) as usize);
            let mut partials = partials_for::<F>(combine.slots(), chunks);
            let table = FoldVector::from_frequency_bound(fv, bits, weights, combine, &mut partials);
            (table, recombine::<F>(partials))
        })
    }
}

fn partials_for<F: PrimeField>(slots: usize, chunks: usize) -> Vec<Vec<F::DotAcc>> {
    vec![vec![F::DotAcc::default(); slots]; chunks]
}

/// Sums the chunk partials in chunk order.
fn recombine<F: PrimeField>(partials: Vec<Vec<F::DotAcc>>) -> Vec<F> {
    let mut chunks = partials.into_iter();
    let first = chunks.next().expect("a pass has at least one chunk");
    let mut out: Vec<F> = first.into_iter().map(F::acc_finish).collect();
    for partial in chunks {
        for (slot, acc) in out.iter_mut().zip(partial) {
            *slot += F::acc_finish(acc);
        }
    }
    out
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
/// ([`ProverPool::bind_message`]). Each protocol supplies its [`Combine`];
/// none of them sweeps the table twice in a round.
#[derive(Clone, Debug)]
pub struct FusedRounds<F: PrimeField> {
    table: FoldVector<F>,
    pool: ProverPool,
    /// The current round's message, once a bind produced it.
    ready: Option<Vec<F>>,
}

impl<F: PrimeField> FusedRounds<F> {
    /// Starts from `A_1 = a`: an `O(1)` snapshot of `fv`
    /// ([`FoldVector::from_frequency`]).
    pub fn new(fv: &FrequencyVector, log_u: u32, pool: ProverPool) -> Self {
        FusedRounds {
            table: FoldVector::from_frequency(fv, log_u),
            pool,
            ready: None,
        }
    }

    /// Enters the schedule `k` rounds in, for a prover that answered rounds
    /// `1..=k` without a table: one pass binds `r_1, …, r_k` (as the `2^k`
    /// weights `χ_y(r_1, …, r_k)`) and leaves round `k+1`'s message ready
    /// ([`ProverPool::bind_many_message`]); `next` is that round's rule.
    pub fn bound<C: Combine<F> + ?Sized>(
        fv: &FrequencyVector,
        log_u: u32,
        pool: ProverPool,
        weights: &[F],
        next: &C,
    ) -> Self {
        let (table, message) = pool.bind_many_message(fv, log_u, weights, next);
        FusedRounds {
            table,
            pool,
            ready: Some(message),
        }
    }

    /// The fold table.
    pub fn table(&self) -> &FoldVector<F> {
        &self.table
    }

    /// The current round's message; `combine` is the current round's rule.
    pub fn message<C: Combine<F> + ?Sized>(&mut self, combine: &C) -> Vec<F> {
        let (table, pool) = (&self.table, self.pool);
        self.ready
            .get_or_insert_with(|| pool.fold_message(FoldSource::Pairs(table), combine))
            .clone()
    }

    /// Binds the current variable to `r`; `next` is the **next** round's
    /// rule.
    pub fn bind<C: Combine<F> + ?Sized>(&mut self, r: F, next: &C) {
        self.ready = Some(self.pool.bind_message(&mut self.table, r, next));
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
    fn parallel_matches_serial_on_pairs() {
        // Dense (large n) and sparse (small n) tables, above and below the
        // parallel threshold.
        for (n, bits) in [(40_000usize, 14u32), (60, 16), (100, 10)] {
            let fold = fold_of(n, bits, 7);
            let serial = ProverPool::SERIAL.fold_message(FoldSource::Pairs(&fold), &Square);
            for threads in [2usize, 3, 4, 8] {
                let par = ProverPool::new(threads).fold_message(FoldSource::Pairs(&fold), &Square);
                assert_eq!(par, serial, "n={n} bits={bits} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_bind_matches_bind_then_message_at_every_thread_count() {
        // Above and below the parallel threshold, from a dense and from a
        // sparse snapshot, two levels deep (the second sweep reads the
        // field-form table the first one wrote): the fused pass returns the
        // message a second walk over the folded table would, and leaves the
        // same table behind.
        let sparse = {
            let mut fv = FrequencyVector::new_sparse(1 << 16);
            fv.apply_batch(&workloads::uniform(60, 1 << 16, 50, 7));
            FoldVector::<Fp61>::from_frequency(&fv, 16)
        };
        for start in [fold_of(40_000, 15, 7), fold_of(100, 10, 7), sparse] {
            let mut two_pass = start.clone();
            let mut fused: Vec<_> = [1usize, 2, 3, 4, 8]
                .into_iter()
                .map(|threads| (ProverPool::new(threads), start.clone()))
                .collect();
            for r in [Fp61::from_u64(0xfeed_beef), Fp61::from_u64(77)] {
                two_pass.bind(r);
                let expect = ProverPool::SERIAL.fold_message(FoldSource::Pairs(&two_pass), &Square);
                for (pool, table) in fused.iter_mut() {
                    let got = pool.bind_message(table, r, &Square);
                    assert_eq!(got, expect, "threads={}", pool.threads);
                    let mut left = Vec::new();
                    table.for_each_pair(|m, lo, hi| left.push((m, lo, hi)));
                    let mut right = Vec::new();
                    two_pass.for_each_pair(|m, lo, hi| right.push((m, lo, hi)));
                    assert_eq!(left, right, "threads={}", pool.threads);
                }
            }
        }
    }

    #[test]
    fn chunked_walk_covers_every_pair_once() {
        let fold = fold_of(500, 12, 9);
        let mut all = Vec::new();
        fold.for_each_pair(|m, lo, hi| all.push((m, lo, hi)));
        for chunks in [1usize, 2, 3, 7, 16] {
            let mut seen = Vec::new();
            let mut last_chunk = 0usize;
            fold.for_each_pair_chunks(chunks, |c, m, lo, hi| {
                assert!(c >= last_chunk, "chunks must arrive in order");
                last_chunk = c;
                seen.push((m, lo, hi));
            });
            assert_eq!(seen, all, "chunks={chunks}");
        }
    }

    #[test]
    fn thread_config_resolution() {
        // 0 = auto-detect: at least one thread, matching the machine.
        let auto = ProverPool::from_config(0);
        assert!(auto.threads >= 1);
        assert_eq!(auto, ProverPool::auto());
        // Nonzero is taken literally.
        assert_eq!(ProverPool::from_config(3).threads, 3);
    }

    #[test]
    fn more_threads_than_blocks_is_fine() {
        let fold = fold_of(10, 4, 3);
        let serial = ProverPool::SERIAL.fold_message(FoldSource::Pairs(&fold), &Square);
        let par = ProverPool::new(64).fold_message(FoldSource::Pairs(&fold), &Square);
        assert_eq!(par, serial);
    }

    #[test]
    fn fully_folded_table_yields_zero_blocks() {
        let mut fold = FoldVector::from_values(vec![Fp61::ONE, Fp61::from_u64(2)]);
        fold.bind(Fp61::from_u64(5));
        assert_eq!(fold.pairs(), 0);
        let msg = ProverPool::SERIAL.fold_message(FoldSource::Pairs(&fold), &Square);
        assert_eq!(msg, vec![Fp61::ZERO; 3]);
    }
}

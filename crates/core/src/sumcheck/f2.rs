//! SELF-JOIN SIZE / `F₂` (Section 3.1) — the paper's flagship protocol.
//!
//! A `(log u, log u)`-protocol: the verifier streams `f_a(r)` (Theorem 1),
//! then over `d = log₂ u` rounds receives degree-2 polynomials
//!
//! ```text
//! g_j(x_j) = Σ_{x_{j+1..d} ∈ [2]^{d−j}} f_a²(r_1, …, r_{j−1}, x_j, …, x_d)
//! ```
//!
//! and accepts iff every consecutive pair is consistent and
//! `g_d(r_d) = f_a(r)²`. This module is the `k = 2` specialisation of
//! [`super::moments`] with a squared-fold prover fast path — the code the
//! Figure 2 benchmarks exercise.
//!
//! Over a frozen vector the prover starts from an [`F2Head`]: the first
//! rounds out of Gram matrices built once, and then a single pass over the
//! data — which, where the data is mostly zero, reads its nonzero cells
//! packed block by block and nothing else, so the proof's time follows the
//! support `n` and not the universe `u` (Appendix B.1's
//! `O(min(u, n log(u/n)))`) although the vector is an array.

use std::sync::Arc;

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::LdeParams;
use sip_streaming::{Entries, FrequencyVector, Update};

use crate::channel::CostReport;
use crate::engine::{Combine, DenseMessage, FusedRounds};
use crate::error::Rejection;
use crate::fold::{BindSource, BlockCounts, PackFill, PackedBlocks};

use super::moments::VerifiedAggregate;
use super::{drive_sumcheck, Adversary, LdeDigest, RoundProver, SelfJoin};

/// Streaming verifier for SELF-JOIN SIZE over `[2^log_u]`: the
/// [`LdeDigest`] of a binary [`SelfJoin`] query.
///
/// Space: `log u + 1` words of digest plus 3 of round state; time per
/// update `O(log u)`.
pub type F2Verifier<F> = LdeDigest<SelfJoin, F>;

impl<F: PrimeField> F2Verifier<F> {
    /// Draws the secret point `r` and prepares to observe the stream.
    pub fn new<R: Rng + ?Sized>(log_u: u32, rng: &mut R) -> Self {
        Self::drawn(SelfJoin, LdeParams::binary(log_u), rng)
    }
}

/// The F₂ per-pair rule: `g_j(c) = Σ_m (lo + c·(hi − lo))²` at
/// `c = 0, 1, 2`.
///
/// Over a dense table the message is three moments of its pairs
/// ([`PrimeField::pair_moments`]): with `A = Σ lo²`, `B = Σ hi²` and
/// `C = Σ lo·hi`, `g(0) = A`, `g(1) = B` and `g(2) = Σ (2·hi − lo)² =
/// A − 4C + 4B` — exact field arithmetic, so the same words as the per-pair
/// sum.
pub struct F2Combine;

impl<F: PrimeField> Combine<F> for F2Combine {
    fn slots(&self) -> usize {
        3
    }

    #[inline(always)]
    fn accumulate(&self, _m: u64, a: &[F], _b: &[F], acc: &mut [F::DotAcc]) {
        let (lo, hi) = (a[0], a[1]);
        F::acc_add_prod(&mut acc[0], lo, lo);
        F::acc_add_prod(&mut acc[1], hi, hi);
        let v2 = hi + (hi - lo);
        F::acc_add_prod(&mut acc[2], v2, v2);
    }

    fn dense_message(&self) -> Option<DenseMessage<F>> {
        Some(|table| {
            let (a, b, c) = F::pair_moments(table);
            let four = F::from_u64(4);
            vec![a, b, a - four * c + four * b]
        })
    }
}

/// How many leading rounds an [`F2Head`] answers. A head-started proof
/// costs one product a cell whatever `k` is, plus the fused rounds over
/// `u/2^k` entries; the head's build costs up to `(2^k + 1)/2` integer
/// products a nonzero cell — it doubles with `k` on dense data — and is
/// paid inside `publish`. Measured (EXPERIMENTS.md, "Choosing k"): `k = 5`
/// answers 5–7 % faster end to end than `k = 4`, and its build is the
/// first to take more than a tenth of a replicated or sharded ingest
/// window; `k = 3` leaves a table twice as large for a build that is
/// hardly cheaper. It also bounds every `k`-variable bind, whose kernels are
/// fixed-length, one per block width and cell count up to `2^HEAD_ROUNDS`.
pub(crate) const HEAD_ROUNDS: u32 = 4;

/// A prefix-sum checkpoint is kept every this many blocks of `2^k` cells
/// the build visits: every 64th block of an array (`u/64` sums, 1/32 of the
/// vector's bytes at `k = 4`), every 64th occupied block of a tree. A full
/// prefix table would double the memory of a frozen vector; a lookup that
/// scans at most 63 blocks past a checkpoint costs under a microsecond.
const CHECKPOINT_BLOCKS: u32 = 64;

/// An array is packed ([`PackedBlocks`]) when at most one cell in this many
/// is nonzero. At the cap the pack is 13/32 of the array's bytes (at 14 %
/// nonzero a quarter, and its bind takes 0.44× the array's time); at twice
/// the cap (36 % nonzero) its bind takes two thirds of the array's time for
/// more than half another copy of the data (EXPERIMENTS.md, "A
/// constant-length dot per block"). A tree is packed whatever its density.
const PACK_DIVISOR: u64 = 4;

/// The query-independent head of every `F₂` and every RANGE-SUM proof over
/// one frozen vector — the part of their first `k = min(4, log u)` round
/// messages that depends on the data alone, built in one pass.
///
/// **`F₂`.** With the lowest variable bound first, round `j`'s message is
///
/// ```text
/// g_j(c) = Σ_m ( Σ_{y<2^j} χ_y(r_1, …, r_{j−1}, c) · a[m·2^j + y] )²  =  wᵀ G_j w
/// ```
///
/// where `w = χ(r_1, …, r_{j−1}, c)` is `2^j` words of the verifier's
/// challenges and the Gram matrix `G_j[y, y'] = Σ_m a[m·2^j + y] · a[m·2^j + y']`
/// depends on the data alone. The head holds `G_1, …, G_k`: every `G_j` is
/// the sum of the diagonal `2^j × 2^j` blocks of `G_k`, so one pass over the
/// vector builds them all (`4 + 16 + … + 4^k` words).
///
/// **RANGE-SUM.** Through round `k` the query's indicator folds to exactly 1
/// on every block of `2^k` cells strictly between the two that hold its
/// endpoints, so those blocks enter each message only through their sum,
/// residue class by residue class: `Σ_{lo ≤ b < hi} a[b·2^k + z]` for each
/// `z < 2^k`. The head keeps those sums as prefix sums over the blocks
/// before each checkpoint — one every 64 blocks — so any aligned interval
/// costs two lookups and a short scan.
///
/// **Round `k + 1`, both.** Binding `r_k` is the one pass either proof makes
/// over the data ([`FusedRounds::bound`]), and it need not read zeros: where
/// the vector is mostly zero — a tree, or an array with at most a quarter of
/// its cells nonzero — the head keeps the nonzero cells packed block by block
/// ([`PackedBlocks`], written in the same pass, which holds exactly that list
/// for each block, laid out by how many cells a block holds) and the bind
/// reads the pack in place of the vector.
/// This is where the prover's `O(min(u, n log(u/n)))` becomes time in the
/// support `n` for a frozen array.
///
/// Nothing in it depends on a query, a challenge or a verifier.
#[derive(Clone, Debug)]
pub struct F2Head<F: PrimeField> {
    /// The vector the head was built from (an `O(1)` shared snapshot).
    fv: FrequencyVector,
    log_u: u32,
    /// `grams[j − 1]` is `G_j`, `2^j × 2^j`, row-major.
    grams: Vec<Vec<F>>,
    prefixes: ResiduePrefixSums,
    /// The nonzero cells by block of `2^k`; `None` only over an array too
    /// full to be worth packing, which the bind then reads itself.
    pack: Option<PackedBlocks>,
}

impl<F: PrimeField> F2Head<F> {
    /// Builds the head of `fv` over `[2^log_u]` in one pass over its
    /// entries; blocks of `2^k` cells that are all zero cost nothing. The
    /// blocks are first counted by how many nonzero cells each holds (a pass
    /// over an array, a walk over a tree's keys), to decide — before
    /// anything is allocated — whether that pass packs an array, and to lay
    /// the pack out by count and size it exactly.
    ///
    /// # Panics
    /// Panics if `log_u` is zero or the vector's universe exceeds
    /// `2^log_u`.
    pub fn build(fv: &FrequencyVector, log_u: u32) -> Self {
        let k = HEAD_ROUNDS.min(log_u);
        Self::with_rounds(fv, log_u, k, packed_counts(fv, k))
    }

    /// [`Self::build`] where it packs `fv`'s nonzero cells — a tree always,
    /// an array at most a quarter nonzero — and `None`, after the one count,
    /// over a fuller array.
    ///
    /// # Panics
    /// As [`Self::build`].
    pub fn build_if_packed(fv: &FrequencyVector, log_u: u32) -> Option<Self> {
        let k = HEAD_ROUNDS.min(log_u);
        let counts = packed_counts(fv, k)?;
        Some(Self::with_rounds(fv, log_u, k, Some(counts)))
    }

    /// The head over `k` rounds, packing `fv` iff `packed` holds its
    /// blocks' counts (`packed_counts`).
    fn with_rounds(fv: &FrequencyVector, log_u: u32, k: u32, packed: Option<BlockCounts>) -> Self {
        // A server session's `log_u` passed the handshake's `[1, MAX_LOG_U]`.
        assert!((1..=63).contains(&log_u), "log_u must be in [1, 63]");
        // Its stores are built over exactly `2^log_u`, and a reloaded
        // snapshot's universe is checked against its `log_u`.
        assert!(
            fv.universe() <= 1u64 << log_u,
            "universe larger than 2^log_u"
        );
        // `k = min(HEAD_ROUNDS, log_u)` with `log_u ≥ 1`, checked above.
        assert!((1..=log_u).contains(&k));
        let mut fill = packed.map(|counts| PackedBlocks::fill(&counts));
        let (finest, prefixes) = gram_and_prefixes::<F>(fv, k, fill.as_mut());
        let pack = fill.map(PackFill::finish);
        let mut grams = vec![finest];
        for j in (1..k).rev() {
            let finer = grams.last().expect("starts with G_k");
            grams.push(diagonal_blocks_sum(finer, 1 << j));
        }
        grams.reverse();
        F2Head {
            fv: fv.clone(),
            log_u,
            grams,
            prefixes,
            pack,
        }
    }

    /// The number of rounds `k` the head answers.
    pub fn rounds(&self) -> usize {
        self.grams.len()
    }

    /// The universe exponent the head was built over.
    pub(super) fn log_u(&self) -> u32 {
        self.log_u
    }

    /// The vector's nonzero cells packed by block, where the build packed
    /// them: over a tree, and over an array at most a quarter nonzero.
    pub fn pack(&self) -> Option<&PackedBlocks> {
        self.pack.as_ref()
    }

    /// What the `k`-variable bind of a proof started here reads: the pack,
    /// or the array of a vector that has none.
    pub(super) fn bind_source(&self) -> BindSource<'_> {
        match &self.pack {
            Some(pack) => BindSource::Packed(pack),
            None => BindSource::Array(self.fv.dense_values().expect("a tree is always packed")),
        }
    }

    /// Bytes the head holds beside the vector: matrices, checkpoints, pack.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.grams.iter().map(Vec::len).sum::<usize>() * size_of::<F>()
            + self.prefixes.at.len() * size_of::<u64>()
            + self.prefixes.sums.len() * size_of::<i128>()
            + self.pack.as_ref().map_or(0, PackedBlocks::bytes)
    }

    /// `Σ_{lo ≤ b < hi} a[b·2^k + z]` for every `z < 2^k`: blocks
    /// `[lo, hi)` of `2^k` cells summed into one, exactly, without a pass
    /// over them.
    pub(super) fn block_sums(&self, lo: u64, hi: u64) -> Vec<F> {
        let sums = self.prefixes.between(&self.fv, lo, hi);
        sums.into_iter().map(from_i128).collect()
    }

    /// Round `j`'s message `[g_j(0), g_j(1), g_j(2)]` from the `2^{j−1}`
    /// weights `chi = χ(r_1, …, r_{j−1})`: with `G_j` cut into quadrants by
    /// variable `j` (the top bit of its index), `w(c) = ((1−c)·chi, c·chi)`
    /// gives `g_j(0) = chiᵀ G_lo,lo chi`, `g_j(1) = chiᵀ G_hi,hi chi` and
    /// `g_j(2) = g_j(0) − 4·chiᵀ G_lo,hi chi + 4·g_j(1)`.
    fn message(&self, chi: &[F]) -> Vec<F> {
        let w = chi.len();
        let gram = &self.grams[w.trailing_zeros() as usize];
        let form = |rows: usize, cols: usize| {
            let mut acc = F::DotAcc::default();
            for (y, &c) in chi.iter().enumerate() {
                let row = &gram[(rows + y) * 2 * w + cols..][..w];
                F::acc_add_prod(&mut acc, c, F::dot(chi, row));
            }
            F::acc_finish(acc)
        };
        let (lo_lo, lo_hi, hi_hi) = (form(0, 0), form(0, w), form(w, w));
        let four = F::from_u64(4);
        vec![lo_lo, hi_hi, lo_lo - four * lo_hi + four * hi_hi]
    }
}

/// The counts of `fv`'s blocks of `2^k` cells by their nonzero cells, where
/// [`F2Head::build`] packs it: a tree's, or an array's at most a quarter of
/// whose cells are nonzero.
fn packed_counts(fv: &FrequencyVector, k: u32) -> Option<BlockCounts> {
    let counts = BlockCounts::of(fv, k);
    (!fv.is_dense() || counts.cells() <= fv.universe() / PACK_DIVISOR).then_some(counts)
}

/// Residue-class prefix sums of one frozen vector, checkpointed: for the
/// blocks `at[c]` the build stopped at, `Σ_{b < at[c]} a[b·2^k + z]` for
/// every `z < 2^k`. The sums are integers kept exactly: `|a| ≤ 2^63` over at
/// most `2^59` blocks stays inside `i128`.
#[derive(Clone, Debug)]
struct ResiduePrefixSums {
    k: u32,
    /// The checkpointed blocks, increasing from `at[0] = 0`. Between two of
    /// them lie at most [`CHECKPOINT_BLOCKS`] blocks that store anything.
    at: Vec<u64>,
    /// Checkpoint `c`'s `2^k` sums at `sums[c·2^k..]`.
    sums: Vec<i128>,
}

impl ResiduePrefixSums {
    /// `Σ_{lo ≤ b < hi} a[b·2^k + z]` for every `z < 2^k`: the difference of
    /// the two nearest checkpoints, corrected by a scan of `fv` (the vector
    /// the sums were built from) from each checkpoint to its end of the
    /// interval — or one scan of the interval where it sits between two
    /// checkpoints.
    fn between(&self, fv: &FrequencyVector, lo: u64, hi: u64) -> Vec<i128> {
        debug_assert!(lo <= hi);
        let width = 1usize << self.k;
        let mut out = vec![0i128; width];
        let checkpoint = |block: u64| self.at.partition_point(|&at| at <= block) - 1;
        let (from, to) = (checkpoint(lo), checkpoint(hi));
        let mut scan = |blocks: std::ops::Range<u64>, sign: i128| {
            for_each_cell(fv, self.k, blocks, |z, a| out[z] += sign * a as i128);
        };
        if from == to {
            scan(lo..hi, 1);
            return out;
        }
        scan(self.at[to]..hi, 1);
        scan(self.at[from]..lo, -1);
        let (to, from) = (&self.sums[to * width..], &self.sums[from * width..]);
        for ((out, to), from) in out.iter_mut().zip(to).zip(from) {
            *out += to - from;
        }
        out
    }
}

/// Visits the stored cells `(z, a[b·2^k + z])` of blocks `b ∈ blocks` of
/// `fv`; cells past the end of the vector are not there.
fn for_each_cell(
    fv: &FrequencyVector,
    k: u32,
    blocks: std::ops::Range<u64>,
    mut f: impl FnMut(usize, i64),
) {
    let mask = (1usize << k) - 1;
    match fv.entries() {
        Entries::Dense(cells) => {
            let cell = |block: u64| (block << k).min(cells.len() as u64) as usize;
            let (start, end) = (cell(blocks.start), cell(blocks.end));
            for (i, &a) in cells[start..end].iter().enumerate() {
                f(i & mask, a);
            }
        }
        Entries::Sparse(map) => {
            for (&i, &a) in map.range(blocks.start << k..blocks.end << k) {
                f(i as usize & mask, a);
            }
        }
    }
}

/// The one pass over `fv` behind an [`F2Head`]: `G_k`
/// (`G[y, y'] = Σ_m a[m·2^k + y] · a[m·2^k + y']`, row-major), the
/// checkpointed residue-class prefix sums and — into `pack`, where the caller
/// made one — every nonempty block's nonzero cells. `G_k`'s sums are
/// integers; they are accumulated exactly in `i128` and only spill into the
/// field in the (never yet seen) case one would overflow.
fn gram_and_prefixes<F: PrimeField>(
    fv: &FrequencyVector,
    k: u32,
    mut pack: Option<&mut PackFill>,
) -> (Vec<F>, ResiduePrefixSums) {
    let width = 1usize << k;
    let mut exact = vec![0i128; width * width];
    let mut spilled = vec![F::ZERO; width * width];
    let mut prefixes = ResiduePrefixSums {
        k,
        at: vec![0],
        sums: vec![0; width],
    };
    // The residue sums over every block visited so far, and how many were
    // visited since the last checkpoint.
    let mut running = vec![0i128; width];
    let mut since_checkpoint = 0;
    // Block `m`'s nonzero cells `(y, a)`, in increasing `y`: only the upper
    // triangle is summed. Blocks arrive in increasing `m`, and a block that
    // never arrives is all zero.
    let mut add_block = |m: u64, nonzero: &[(usize, i64)]| {
        if since_checkpoint == CHECKPOINT_BLOCKS {
            prefixes.at.push(m);
            prefixes.sums.extend_from_slice(&running);
            since_checkpoint = 0;
        }
        since_checkpoint += 1;
        if let Some(pack) = &mut pack {
            pack.push_block(m, nonzero);
        }
        for (at, &(y, a)) in nonzero.iter().enumerate() {
            running[y] += a as i128;
            let row = y * width;
            for &(z, b) in &nonzero[at..] {
                let product = a as i128 * b as i128;
                let cell = &mut exact[row + z];
                *cell = match cell.checked_add(product) {
                    Some(sum) => sum,
                    None => {
                        spilled[row + z] += from_i128::<F>(*cell);
                        product
                    }
                };
            }
        }
    };
    let mut nonzero = vec![(0, 0); width];
    match fv.entries() {
        Entries::Dense(cells) => {
            for (run, m) in cells.chunks(width).zip(0u64..) {
                // Gathered without a branch per cell: at middling densities
                // it would be mispredicted every other time.
                let mut n = 0;
                for (y, &a) in run.iter().enumerate() {
                    nonzero[n] = (y, a);
                    n += usize::from(a != 0);
                }
                add_block(m, &nonzero[..n]);
            }
        }
        Entries::Sparse(map) => {
            // Only blocks that hold something are visited: nothing is
            // flushed before the first entry, or for an empty map.
            let (mut m, mut n) = (0, 0);
            for (&i, &a) in map {
                if i >> k != m && n > 0 {
                    add_block(m, &nonzero[..n]);
                    n = 0;
                }
                m = i >> k;
                nonzero[n] = ((i & (width as u64 - 1)) as usize, a);
                n += 1;
            }
            if n > 0 {
                add_block(m, &nonzero[..n]);
            }
        }
    }
    let mut gram: Vec<F> = exact
        .into_iter()
        .zip(spilled)
        .map(|(sum, spilled)| spilled + from_i128::<F>(sum))
        .collect();
    for y in 0..width {
        for z in 0..y {
            gram[y * width + z] = gram[z * width + y];
        }
    }
    (gram, prefixes)
}

fn from_i128<F: PrimeField>(x: i128) -> F {
    let magnitude = F::from_u128(x.unsigned_abs());
    if x < 0 {
        -magnitude
    } else {
        magnitude
    }
}

/// `G_j` (`width = 2^j`) from `G_{j+1}`: the sum of its two diagonal
/// `width × width` blocks — a block of `2^{j+1}` cells is two blocks of
/// `2^j`, and the products within each are exactly those two quadrants.
fn diagonal_blocks_sum<F: PrimeField>(finer: &[F], width: usize) -> Vec<F> {
    debug_assert_eq!(finer.len(), 4 * width * width);
    let quadrant = |at: usize| {
        finer[at * 2 * width + at..]
            .chunks(2 * width)
            .take(width)
            .flat_map(move |row| &row[..width])
    };
    quadrant(0)
        .zip(quadrant(width))
        .map(|(&lo, &hi)| lo + hi)
        .collect()
}

/// Extends `chi = χ(r_1, …, r_{j−1})` (variable `t` on bit `t − 1`) by
/// `r = r_j`. Variable `j` goes on the next bit up: `χ_y(.., r)` is
/// `χ_y(..)·(1 − r)` below it and `χ_y(..)·r` above.
pub(super) fn extend_chi<F: PrimeField>(chi: &mut Vec<F>, r: F) {
    let hi: Vec<F> = chi.iter().map(|&c| c * r).collect();
    for (c, &h) in chi.iter_mut().zip(&hi) {
        *c -= h;
    }
    chi.extend(hi);
}

/// Honest `F₂` prover (Appendix B.1 fold with squared combine).
#[derive(Clone, Debug)]
pub struct F2Prover<F: PrimeField> {
    rounds: usize,
    stage: Stage<F>,
}

/// Where an [`F2Prover`]'s messages come from.
#[derive(Clone, Debug)]
enum Stage<F: PrimeField> {
    /// Rounds `1..=k` of a head-started prover: quadratic forms in the
    /// head's matrices; a challenge is only recorded.
    Head {
        head: Arc<F2Head<F>>,
        /// `χ(r_1, …, r_{j−1})` in round `j`, variable `t` on bit `t − 1`.
        chi: Vec<F>,
    },
    /// A fold table, swept once a round.
    Table(FusedRounds<F>),
}

impl<F: PrimeField> F2Prover<F> {
    /// Builds prover state from the materialised frequency vector.
    /// `O(1)`: the vector is snapshotted, not copied.
    pub fn new(fv: &FrequencyVector, log_u: u32) -> Self {
        F2Prover {
            rounds: log_u as usize,
            stage: Stage::Table(FusedRounds::new(fv, log_u)),
        }
    }

    /// Starts from the head of a frozen vector: rounds `1..=k` are answered
    /// from its matrices without touching the data, and binding `r_k` makes
    /// the one pass that builds the fold table at `u/2^k` entries (with
    /// round `k+1`'s message, [`FusedRounds::bound`]). Every message equals
    /// the one [`Self::new`] over the same vector sends.
    pub fn from_head(head: Arc<F2Head<F>>) -> Self {
        F2Prover {
            rounds: head.log_u as usize,
            stage: Stage::Head {
                head,
                chi: vec![F::ONE],
            },
        }
    }
}

impl<F: PrimeField> RoundProver<F> for F2Prover<F> {
    fn degree(&self) -> usize {
        2
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn message(&mut self) -> Vec<F> {
        match &mut self.stage {
            Stage::Head { head, chi, .. } => head.message(chi),
            Stage::Table(fused) => fused.message(&F2Combine),
        }
    }

    fn bind(&mut self, r: F) {
        match &mut self.stage {
            Stage::Head { head, chi } => {
                extend_chi(chi, r);
                if chi.len() == 1 << head.rounds() {
                    let fused = FusedRounds::bound(head.bind_source(), head.log_u, chi, &F2Combine);
                    self.stage = Stage::Table(fused);
                }
            }
            Stage::Table(fused) => fused.bind(r, &F2Combine),
        }
    }
}

/// Runs the complete honest SELF-JOIN SIZE protocol.
pub fn run_f2<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    rng: &mut R,
) -> Result<VerifiedAggregate<F>, Rejection> {
    run_f2_with_adversary(log_u, stream, rng, None)
}

/// Like [`run_f2`] with a message-corruption hook.
pub fn run_f2_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    rng: &mut R,
    adversary: Option<Adversary<'_, F>>,
) -> Result<VerifiedAggregate<F>, Rejection> {
    let mut verifier = F2Verifier::<F>::new(log_u, rng);
    verifier.update_all(stream);
    let space = verifier.space_words();

    let fv = FrequencyVector::from_stream(1 << log_u, stream);
    let mut prover = F2Prover::new(&fv, log_u);

    let (mut core, expected) = verifier.into_session();
    let mut report = CostReport {
        verifier_space_words: space,
        ..CostReport::default()
    };
    let value = drive_sumcheck(&mut prover, &mut core, expected, &mut report, adversary)?;
    Ok(VerifiedAggregate { value, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn completeness_paper_workload() {
        let mut rng = StdRng::seed_from_u64(1);
        for log_u in [4u32, 8, 10] {
            let stream = workloads::paper_f2(1 << log_u, log_u as u64);
            let fv = FrequencyVector::from_stream(1 << log_u, &stream);
            let got = run_f2::<Fp61, _>(log_u, &stream, &mut rng).unwrap();
            assert_eq!(
                got.value,
                Fp61::from_u128(fv.self_join_size() as u128),
                "log_u={log_u}"
            );
        }
    }

    #[test]
    fn matches_general_moment_protocol() {
        let mut rng = StdRng::seed_from_u64(2);
        let stream = workloads::uniform(500, 1 << 9, 30, 11);
        let f2 = run_f2::<Fp61, _>(9, &stream, &mut rng).unwrap();
        let fk = super::super::moments::run_moment::<Fp61, _>(2, 9, &stream, &mut rng).unwrap();
        assert_eq!(f2.value, fk.value);
        // F2 fast path also saves communication: same shape as k = 2.
        assert_eq!(f2.report.p_to_v_words, fk.report.p_to_v_words);
    }

    #[test]
    fn cost_shape_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(3);
        for log_u in [6u32, 10, 14] {
            let stream = workloads::uniform(100, 1 << log_u, 5, 13);
            let got = run_f2::<Fp61, _>(log_u, &stream, &mut rng).unwrap();
            let d = log_u as usize;
            assert_eq!(got.report.rounds, d);
            assert_eq!(got.report.p_to_v_words, 3 * d);
            assert_eq!(got.report.v_to_p_words, d - 1);
            assert_eq!(got.report.verifier_space_words, d + 1 + 3);
        }
    }

    #[test]
    fn empty_stream_gives_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let got = run_f2::<Fp61, _>(6, &[], &mut rng).unwrap();
        assert_eq!(got.value, Fp61::ZERO);
    }

    #[test]
    fn singleton_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let stream = [Update::new(37, 5)];
        let got = run_f2::<Fp61, _>(6, &stream, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(25));
    }

    #[test]
    fn negative_frequencies_square_correctly() {
        // a = [−3, 2]: F2 = 9 + 4 = 13 over the field.
        let mut rng = StdRng::seed_from_u64(6);
        let stream = [Update::new(0, -3), Update::new(1, 2)];
        let got = run_f2::<Fp61, _>(1, &stream, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(13));
    }

    /// Dense, tree, a universe that ends inside a block, and an array sparse
    /// enough to be packed.
    fn head_inputs() -> Vec<(FrequencyVector, u32)> {
        let mut tree = FrequencyVector::new_sparse(1 << 14);
        tree.apply_batch(&workloads::with_deletions(400, 1 << 14, 0.3, 41));
        assert!(!tree.is_dense());
        vec![
            (
                FrequencyVector::from_stream(
                    1 << 12,
                    &workloads::with_deletions(500, 1 << 12, 0.3, 47),
                ),
                12,
            ),
            (
                FrequencyVector::from_stream(
                    1 << 9,
                    &workloads::with_deletions(2000, 1 << 9, 0.3, 42),
                ),
                9,
            ),
            (tree, 14),
            (
                FrequencyVector::from_stream(500, &workloads::uniform(300, 500, 40, 43)),
                9,
            ),
        ]
    }

    #[test]
    fn coarser_gram_matrices_fall_out_of_the_finest() {
        // G_j summed out of G_k's diagonal blocks is G_j built directly, is
        // the definition Σ_m a[m·2^j + y]·a[m·2^j + y'], and is symmetric.
        // Built one round past HEAD_ROUNDS, so without a pack.
        for (fv, log_u) in head_inputs() {
            let head = F2Head::<Fp61>::with_rounds(&fv, log_u, 5, None);
            assert_eq!(head.rounds(), 5);
            for j in 1..=5u32 {
                let direct = F2Head::<Fp61>::with_rounds(&fv, log_u, j, None);
                assert_eq!(
                    head.grams[j as usize - 1],
                    direct.grams[j as usize - 1],
                    "j={j}"
                );
                let width = 1u64 << j;
                let gram = &head.grams[j as usize - 1];
                for y in 0..width {
                    for z in 0..width {
                        let expect: i128 = (0..fv.universe().div_ceil(width))
                            .map(|m| {
                                let at = |i: u64| if i < fv.universe() { fv.get(i) } else { 0 };
                                at(m * width + y) as i128 * at(m * width + z) as i128
                            })
                            .sum();
                        let got = gram[(y * width + z) as usize];
                        assert_eq!(got, from_i128::<Fp61>(expect), "j={j} ({y},{z})");
                        assert_eq!(got, gram[(z * width + y) as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn block_sums_equal_the_definition() {
        // Σ_{lo ≤ b < hi} a[b·2^k + z] from the checkpoints equals the sum
        // cell by cell, for intervals inside one checkpoint span, ending on
        // checkpoints and across several — from an array (a checkpoint every
        // 64 blocks) and from trees (every 64 occupied blocks).
        let mut inputs = head_inputs();
        inputs.push((
            FrequencyVector::from_stream(
                1 << 13,
                &workloads::with_deletions(9000, 1 << 13, 0.3, 45),
            ),
            13,
        ));
        let mut tree = FrequencyVector::new_sparse(1 << 20);
        tree.apply_batch(&workloads::uniform(3000, 1 << 20, 40, 46));
        assert!(!tree.is_dense());
        inputs.push((tree, 20));
        for (fv, log_u) in inputs {
            let head = F2Head::<Fp61>::build(&fv, log_u);
            let blocks = 1u64 << (log_u - 4);
            if log_u >= 13 {
                assert!(head.prefixes.at.len() > 2, "log_u={log_u}: one span");
            }
            let ends = [0, 1, 2, 63, 64, 65, 127, 128, 129, 300, blocks / 2, blocks];
            for &lo in &ends {
                for &hi in ends.iter().filter(|&&hi| lo <= hi && hi <= blocks) {
                    let at = |i: u64| if i < fv.universe() { fv.get(i) } else { 0 };
                    let expect: Vec<Fp61> = (0..16)
                        .map(|z| from_i128((lo..hi).map(|b| at(b * 16 + z) as i128).sum()))
                        .collect();
                    assert_eq!(
                        head.block_sums(lo, hi),
                        expect,
                        "log_u={log_u} [{lo}, {hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn a_vector_is_packed_when_it_is_a_tree_or_mostly_zero() {
        // Decided from the vector alone: an array up to a quarter nonzero
        // and no further, a tree whatever it holds; the pack is every nonzero
        // cell at 10 bytes and every nonempty block at 12, and a header of
        // 2^k + 1 words.
        let u = 1u64 << 10;
        let with_support = |n: u64| (0..n).map(|i| (i * 3 % u, 1 + i as i64));
        for (support, packed) in [(0, true), (1, true), (u / 4, true), (u / 4 + 1, false)] {
            let array = FrequencyVector::from_stream(
                u,
                &with_support(support)
                    .map(|(i, a)| Update::new(i, a))
                    .collect::<Vec<_>>(),
            );
            assert!(array.is_dense());
            let head = F2Head::<Fp61>::build(&array, 10);
            assert_eq!(head.pack().is_some(), packed, "support {support}");
            let source = head.bind_source();
            assert_eq!(matches!(source, BindSource::Packed(_)), packed);
            let tree = FrequencyVector::from_sparse_entries(u, with_support(support));
            let head = F2Head::<Fp61>::build(&tree, 10);
            let pack = head.pack().expect("a tree is always packed");
            let blocks = (0..u / 16).filter(|b| (16 * b..16 * b + 16).any(|i| tree.get(i) != 0));
            assert_eq!(pack.size(), (blocks.count(), support as usize));
            let header = 8 * (16 + 1);
            assert_eq!(
                pack.bytes(),
                10 * pack.size().1 + 12 * pack.size().0 + header
            );
            assert!(head.bytes() > pack.bytes());
        }
    }

    #[test]
    fn a_tree_is_visited_at_its_occupied_blocks_only() {
        // One cell in every tenth block from block 5 on: no block is booked
        // before the first entry, so the second checkpoint sits at the 65th
        // occupied block, not the 64th, and the pack holds no empty block.
        let occupied = |n: u64| 5 + 10 * n;
        let cells = (0..200).map(|n| (16 * occupied(n) + n % 16, n as i64 - 300));
        let tree = FrequencyVector::from_sparse_entries(1 << 16, cells);
        let head = F2Head::<Fp61>::build(&tree, 16);
        assert_eq!(
            head.prefixes.at,
            [0, occupied(64), occupied(128), occupied(192)]
        );
        let pack = head.pack().expect("a tree is always packed");
        assert_eq!(pack.size(), (200, 200));
    }

    #[test]
    fn nothing_at_all_packs_to_nothing_and_proves_zero() {
        let mut rng = StdRng::seed_from_u64(48);
        for fv in [
            FrequencyVector::new(1 << 9),
            FrequencyVector::new_sparse(1 << 9),
        ] {
            let head = Arc::new(F2Head::<Fp61>::build(&fv, 9));
            let pack = head.pack().expect("an all-zero vector is packed");
            // Nothing but the header: where each of the 16 counts starts.
            assert_eq!((pack.size(), pack.bytes()), ((0, 0), 8 * (16 + 1)));
            assert_eq!(head.prefixes.at, [0]);
            let mut f2 = F2Prover::from_head(Arc::clone(&head));
            let mut range = super::super::range_sum::RangeSumProver::from_head(head, 3, 400);
            for round in 1..=9 {
                assert_eq!(f2.message(), vec![Fp61::ZERO; 3], "round {round}");
                assert_eq!(range.message(), vec![Fp61::ZERO; 3], "round {round}");
                if round < 9 {
                    let r = Fp61::random(&mut rng);
                    f2.bind(r);
                    range.bind(r);
                }
            }
        }
    }

    #[test]
    fn head_messages_equal_the_sweeps() {
        // Round 1 from G_1 alone is the first message of a walk over the
        // vector, and so is every later head round under the same challenges.
        let mut rng = StdRng::seed_from_u64(44);
        for (fv, log_u) in head_inputs() {
            let head = Arc::new(F2Head::<Fp61>::build(&fv, log_u));
            let g1 = &head.grams[0];
            let first = F2Prover::<Fp61>::new(&fv, log_u).message();
            let four = Fp61::from_u64(4);
            assert_eq!(
                first,
                vec![g1[0], g1[3], g1[0] - four * g1[1] + four * g1[3]],
                "wᵀ G_1 w at c = 0, 1, 2"
            );
            let mut swept = F2Prover::<Fp61>::new(&fv, log_u);
            let mut headed = F2Prover::from_head(Arc::clone(&head));
            for round in 1..=log_u {
                assert_eq!(headed.message(), swept.message(), "round {round}");
                if round < log_u {
                    let r = Fp61::random(&mut rng);
                    swept.bind(r);
                    headed.bind(r);
                }
            }
        }
    }

    #[test]
    fn every_round_corruption_is_caught() {
        // Exhaustive single-position corruption across all rounds and all
        // three evaluation slots: the "we also tried modifying the prover's
        // messages … in all cases the protocols caught the error" study.
        let stream = workloads::paper_f2(1 << 6, 77);
        for round in 1..=6usize {
            for slot in 0..3usize {
                let mut rng = StdRng::seed_from_u64(1000 + (round * 3 + slot) as u64);
                let mut adv = |rd: usize, msg: &mut Vec<Fp61>| {
                    if rd == round {
                        msg[slot] += Fp61::from_u64(1);
                    }
                };
                let res = run_f2_with_adversary::<Fp61, _>(6, &stream, &mut rng, Some(&mut adv));
                assert!(res.is_err(), "round={round} slot={slot} accepted!");
            }
        }
    }

    #[test]
    fn prover_for_wrong_stream_is_rejected() {
        // Prover computes an honest proof — for slightly different data.
        let mut rng = StdRng::seed_from_u64(7);
        let log_u = 8;
        let stream = workloads::paper_f2(1 << log_u, 21);
        let mut wrong = stream.clone();
        wrong[17].delta += 1;

        let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
        verifier.update_all(&stream);
        let fv = FrequencyVector::from_stream(1 << log_u, &wrong);
        let mut prover = F2Prover::new(&fv, log_u);
        let (mut core, expected) = verifier.into_session();
        let mut report = CostReport::default();
        let res = drive_sumcheck(&mut prover, &mut core, expected, &mut report, None);
        assert!(matches!(res, Err(Rejection::FinalCheckFailed)));
    }
}

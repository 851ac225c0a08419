//! The prover's fold engine (Appendix B.1).
//!
//! The honest prover's work in every multi-round protocol is dominated by
//! maintaining the table
//!
//! ```text
//! A_j[v_j … v_d] = Σ_{v_1 … v_{j−1} ∈ [2]^{j−1}}  a_v · Π_{k<j} χ_{v_k}(r_k)
//! ```
//!
//! which halves in size every round via
//! `A_{j+1}[m] = χ_0(r_j)·A_j[2m] + χ_1(r_j)·A_j[2m+1]`. (The SUB-VECTOR
//! hash tree of Section 4 has the same shape with weights `(1, r_j)`, but
//! its prover needs only the requested siblings, not the whole level, so it
//! keeps no fold table: [`crate::subvector::SubVectorProver`].)
//!
//! [`FoldVector`] starts as a shared snapshot of the frequency vector —
//! `A_1 = a` is read in place, nothing is copied — and the field-form table
//! first exists after one fold, at half size. From there it is kept
//! *sparse* (sorted `(index, value)` runs) while the support is small and
//! densifies once folding has made the table comparable to its support —
//! this is what realises the paper's `O(min(u, n log(u/n)))` prover time.
//!
//! `FoldVector::fold_fused` is the one sweep a round costs, and it returns
//! the next round's message. It folds the table and either hands every pair
//! of the table it has just written to the rule, in the same pass, or —
//! for a rule with a closed form over a dense table
//! ([`Combine::dense_message`], F₂'s three pair moments) — writes only the
//! table and sums the message in one call over it.
//! `FoldVector::from_frequency_bound` is the same sweep for a prover that
//! already holds `k` challenges: it binds the `k` lowest variables at once,
//! so the field-form table first exists at `u/2^k` entries. It reads a
//! frozen vector through a [`BindSource`]: the array, one dot per block of
//! `2^k` cells — or, where the vector is mostly zero, its [`PackedBlocks`],
//! one short dot per *nonempty* block, which is the `n`-side of
//! `O(min(u, n log(u/n)))` for a vector that is stored as an array of `u`.
//! Either way each dot's length is fixed at compile time.

use sip_field::PrimeField;
use sip_streaming::{Entries, FrequencyVector};

use crate::engine::{accs_for, finish, Combine};
use crate::sumcheck::f2::HEAD_ROUNDS;

/// Size (in entries) below which a fold table is always stored densely.
const ALWAYS_DENSE: u64 = 1 << 12;

/// One pair bound at challenge `r`, weights `(1−r, r)`, with one
/// multiplication: `lo + r·(hi − lo)`.
#[inline(always)]
fn bind_pair<F: PrimeField>(r: F, lo: F, hi: F) -> F {
    lo + r * (hi - lo)
}

/// Groups a sorted run of nonzero `(index, value)` entries into the pairs
/// `(m, A[2m], A[2m+1])` they occupy, an absent sibling reading as zero.
struct PairUp<F, I> {
    entries: I,
    /// An entry read while looking for a sibling that was not there.
    ahead: Option<(u64, F)>,
}

fn pair_up<F, I: Iterator<Item = (u64, F)>>(entries: I) -> PairUp<F, I> {
    PairUp {
        entries,
        ahead: None,
    }
}

impl<F: PrimeField, I: Iterator<Item = (u64, F)>> Iterator for PairUp<F, I> {
    type Item = (u64, F, F);

    #[inline]
    fn next(&mut self) -> Option<(u64, F, F)> {
        let (i, v) = self.ahead.take().or_else(|| self.entries.next())?;
        if i & 1 == 1 {
            return Some((i >> 1, F::ZERO, v));
        }
        match self.entries.next() {
            Some((j, hi)) if j == i + 1 => Some((i >> 1, v, hi)),
            other => {
                self.ahead = other;
                Some((i >> 1, v, F::ZERO))
            }
        }
    }
}

/// The pairs of a dense run with pair index in `[m_lo, m_hi)` and a nonzero
/// child. Cells are `T` (`i64` frequencies of the shared snapshot, `F` of a
/// folded table), compared against `zero` raw and converted only when kept;
/// cells past the end of `cells` read as zero.
fn dense_pairs<'a, T: Copy + PartialEq + 'a, F: PrimeField>(
    cells: &'a [T],
    m_lo: u64,
    m_hi: u64,
    zero: T,
    to_field: impl Fn(T) -> F + 'a,
) -> impl Iterator<Item = (u64, F, F)> + 'a {
    let end = cells.len().min(2 * m_hi as usize);
    let start = end.min(2 * m_lo as usize);
    let whole = cells[start..end].chunks_exact(2);
    // A run of odd length ends in a pair whose high cell is past the end.
    let cut = whole.remainder().first().map(|&lo| (lo, zero));
    whole
        .map(|pair| (pair[0], pair[1]))
        .chain(cut)
        .zip(m_lo..)
        .filter(move |&((lo, hi), _)| lo != zero || hi != zero)
        .map(move |((lo, hi), m)| (m, to_field(lo), to_field(hi)))
}

/// The part of a sorted sparse run with index in `[lo, hi)`.
fn sparse_run<F>(entries: &[(u64, F)], lo: u64, hi: u64) -> &[(u64, F)] {
    let start = entries.partition_point(|&(i, _)| i < lo);
    let end = entries.partition_point(|&(i, _)| i < hi);
    &entries[start..end]
}

/// Merge join of two pair walks: every `m` either side has, the other
/// side's children reading as zero where it has none.
fn merge_pairs<F: PrimeField>(
    a: impl Iterator<Item = (u64, F, F)>,
    b: impl Iterator<Item = (u64, F, F)>,
    mut f: impl FnMut(u64, F, F, F, F),
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let m = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x.0.min(y.0),
            (Some(x), None) | (None, Some(x)) => x.0,
            (None, None) => return,
        };
        let zero = (m, F::ZERO, F::ZERO);
        let (_, alo, ahi) = a.next_if(|p| p.0 == m).unwrap_or(zero);
        let (_, blo, bhi) = b.next_if(|p| p.0 == m).unwrap_or(zero);
        f(m, alo, ahi, blo, bhi);
    }
}

/// The most cells a block of a `k`-variable bind holds: one fixed-length
/// kernel per count up to it ([`with_const!`]).
const MAX_BLOCK: usize = 1 << HEAD_ROUNDS;

/// Runs `$body` with the const `$C` equal to `$n`, one of the listed
/// values: one monomorphised copy of `$body` per value, so a kernel it calls
/// with `$C` has a trip count fixed at compile time.
macro_rules! with_const {
    ($n:expr, [$($c:literal),+], |$C:ident| $body:expr) => {
        match $n {
            $($c => {
                const $C: usize = $c;
                $body
            })+
            n => unreachable!("no kernel for {n}: blocks hold 1..=2^HEAD_ROUNDS cells"),
        }
    };
}
/// Runs `$sweep` — which writes a dense table and returns it, feeding each
/// pair it writes with a nonzero child through the rule `$rule` into the
/// accumulators `$acc` — and evaluates to the table and the message over
/// its pairs: `$combine`'s closed form over the finished table where it has
/// one ([`Combine::dense_message`]; the sweep is then given [`NoCombine`]),
/// else summed pair by pair in the same pass.
macro_rules! dense_sweep {
    ($combine:expr, |$rule:ident, $acc:ident| $sweep:expr) => {
        match $combine.dense_message() {
            Some(message) => {
                let ($rule, $acc) = (&NoCombine, &mut []);
                let table = $sweep;
                let message = message(&table);
                (table, message)
            }
            None => {
                let mut acc = accs_for::<F>($combine.slots());
                let ($rule, $acc) = ($combine, &mut acc[..]);
                let table = $sweep;
                (table, finish::<F>(acc))
            }
        }
    };
}

// The two `with_const!` lists, in `bind_dense` and `PackedBlocks::dots`, stop at 16.
const _: () = assert!(MAX_BLOCK == 16, "one kernel per block width and cell count");

/// How many blocks of `2^k` cells of a vector hold each number of nonzero
/// cells — what a [`PackedBlocks`] is laid out by, counted before it is
/// filled so that it is allocated once, at its exact size.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockCounts {
    k: u32,
    /// `by_count[c]` blocks hold `c` nonzero cells (`by_count[0]` unused).
    by_count: [u64; MAX_BLOCK + 1],
}

impl BlockCounts {
    /// Counts `fv`'s blocks of `2^k` cells by their nonzero cells: one pass
    /// over an array, one walk over a tree's keys.
    ///
    /// # Panics
    /// Panics if `k > HEAD_ROUNDS`.
    pub(crate) fn of(fv: &FrequencyVector, k: u32) -> Self {
        // Its one caller, `F2Head`, counts blocks of `k = min(HEAD_ROUNDS, log_u)`.
        assert!(k <= HEAD_ROUNDS, "blocks of 2^HEAD_ROUNDS at most");
        let mut by_count = [0u64; MAX_BLOCK + 1];
        match fv.entries() {
            Entries::Dense(cells) => {
                for block in cells.chunks(1 << k) {
                    by_count[block.iter().filter(|&&a| a != 0).count()] += 1;
                }
            }
            Entries::Sparse(map) => {
                // A block is counted once a later key or the end closes it;
                // the count booked before the first key is `by_count[0]`.
                let (mut m, mut n) = (u64::MAX, 0);
                for &i in map.keys() {
                    if i >> k != m {
                        by_count[n] += 1;
                        (m, n) = (i >> k, 0);
                    }
                    n += 1;
                }
                by_count[n] += 1;
            }
        }
        BlockCounts { k, by_count }
    }

    /// The nonzero cells counted.
    pub(crate) fn cells(&self) -> u64 {
        (1..=1 << self.k).map(|c| c as u64 * self.by_count[c]).sum()
    }
}

/// The nonzero cells of a frozen vector, packed block by block of `2^k`
/// cells: what a `k`-variable bind reads in place of the vector when most of
/// the vector is zero. A block with nothing in it is not stored, so a sweep
/// costs one product a nonzero cell and a few words a nonempty block —
/// 10 bytes a cell and 12 a block, plus a header of `2^k + 1` words, against
/// the array's 8 bytes a cell of universe and a tree's ≈ 50 a cell.
///
/// The cells are laid out by *count class*: first every block that holds
/// one nonzero cell, then every block that holds two, and so on up to
/// `2^k`, each class in increasing block index. The bind runs one kernel
/// per class whose loop over a block has a trip count fixed at compile time
/// (`bind_packed`); walked in block order, a loop of 1–16 trips
/// mispredicts its exit about once a block.
#[derive(Clone, Debug)]
pub struct PackedBlocks {
    /// Cells per block, as an exponent.
    k: u32,
    /// The blocks that hold a nonzero cell, in increasing index …
    blocks: Vec<u64>,
    /// … and each one's *slot*: its place in the order of the cells below,
    /// class after class.
    slots: Vec<u32>,
    /// The slots of the blocks that hold `c` cells are
    /// `classes[c − 1]..classes[c]`, for `c` in `1..=2^k`.
    classes: Vec<usize>,
    /// Every nonzero cell, slot after slot and in increasing index within
    /// one: its offset in its block …
    offsets: Vec<u16>,
    /// … and its frequency.
    values: Vec<i64>,
}

/// A [`PackedBlocks`] being filled in increasing block index, each block's
/// cells written straight to where its class puts them.
pub(crate) struct PackFill {
    pack: PackedBlocks,
    /// For each count `c`, the slot and the first cell of the next block
    /// that holds `c` cells.
    next: [(u32, usize); MAX_BLOCK + 1],
}

impl PackedBlocks {
    /// An empty pack of blocks of `2^k` cells, sized for exactly the
    /// blocks `counts` counted, to be filled with those blocks.
    ///
    /// # Panics
    /// Panics if a slot does not fit 32 bits.
    pub(crate) fn fill(counts: &BlockCounts) -> PackFill {
        let k = counts.k;
        let mut classes = Vec::with_capacity((1 << k) + 1);
        let mut next = [(0, 0); MAX_BLOCK + 1];
        let (mut slot, mut cell) = (0, 0);
        classes.push(0);
        let by_count = counts.by_count[1..=1 << k].iter().map(|&n| n as usize);
        for ((c, next), blocks) in (1..).zip(&mut next[1..]).zip(by_count) {
            *next = (u32::try_from(slot).expect("slots fit 32 bits"), cell);
            slot += blocks;
            cell += c * blocks;
            classes.push(slot);
        }
        u32::try_from(slot).expect("slots fit 32 bits");
        let pack = PackedBlocks {
            k,
            blocks: Vec::with_capacity(slot),
            slots: Vec::with_capacity(slot),
            classes,
            offsets: vec![0; cell],
            values: vec![0; cell],
        };
        PackFill { pack, next }
    }

    /// Bytes of heap the pack occupies.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.blocks.capacity() * size_of::<u64>()
            + self.slots.capacity() * size_of::<u32>()
            + self.classes.capacity() * size_of::<usize>()
            + self.offsets.capacity() * size_of::<u16>()
            + self.values.capacity() * size_of::<i64>()
    }
}

impl PackFill {
    /// Appends block `m`: its nonzero cells `(offset, frequency)` in
    /// increasing offset. Blocks arrive in increasing `m`, and one with no
    /// such cell is not stored.
    pub(crate) fn push_block(&mut self, m: u64, nonzero: &[(usize, i64)]) {
        let c = nonzero.len();
        if c == 0 {
            return;
        }
        let pack = &mut self.pack;
        debug_assert!(pack.blocks.last().is_none_or(|&last| last < m));
        let (slot, cell) = &mut self.next[c];
        pack.blocks.push(m);
        pack.slots.push(*slot);
        let at = pack.offsets[*cell..][..c].iter_mut();
        for ((at, x), &(y, a)) in at.zip(&mut pack.values[*cell..][..c]).zip(nonzero) {
            debug_assert!(y < 1 << pack.k && a != 0);
            (*at, *x) = (y as u16, a);
        }
        *slot += 1;
        *cell += c;
    }

    /// The filled pack.
    ///
    /// # Panics
    /// Panics if the blocks pushed are not the blocks counted.
    pub(crate) fn finish(self) -> PackedBlocks {
        let mut ends = self.pack.classes.iter().skip(1).zip(&self.next[1..]);
        assert!(ends.all(|(&end, n)| n.0 as usize == end), "not as counted");
        self.pack
    }
}

/// What a `k`-variable bind (`FoldVector::from_frequency_bound`, reached
/// through [`crate::engine::bind_many_message`]) reads a frozen vector from.
#[derive(Clone, Copy, Debug)]
pub enum BindSource<'a> {
    /// Every cell `a_0, a_1, …` in order; cells past the end read as zero.
    Array(&'a [i64]),
    /// The nonzero cells alone, packed by block of `2^k`.
    Packed(&'a PackedBlocks),
}

/// A power-of-two-length vector being folded one variable at a time.
///
/// Indices are interpreted in binary with the *lowest* bit the next variable
/// to fold (the paper's `v_j` ordering: least-significant digit first).
#[derive(Clone, Debug)]
pub struct FoldVector<F: PrimeField> {
    /// Number of unbound variables; the logical length is `2^bits`.
    bits: u32,
    repr: FoldRepr<F>,
}

#[derive(Clone, Debug)]
enum FoldRepr<F> {
    /// `A_1 = a`, read in place from a shared snapshot of the frequency
    /// vector; indices past its universe read as zero.
    Source(FrequencyVector),
    Dense(Vec<F>),
    /// Sorted by index, all values nonzero.
    Sparse(Vec<(u64, F)>),
}

/// Runs `$body` with `$pairs` bound to the walk over `$table`'s pairs in
/// `[$lo, $hi)` with a nonzero child, in increasing pair index — one
/// statically dispatched iterator per representation.
macro_rules! with_pairs {
    ($table:expr, $lo:expr, $hi:expr, |$pairs:ident| $body:expr) => {
        match &$table.repr {
            FoldRepr::Dense(v) => {
                let $pairs = dense_pairs(v, $lo, $hi, F::ZERO, |x| x);
                $body
            }
            FoldRepr::Sparse(s) => {
                let $pairs = pair_up(sparse_run(s, 2 * $lo, 2 * $hi).iter().copied());
                $body
            }
            FoldRepr::Source(fv) => match fv.entries() {
                Entries::Dense(v) => {
                    let $pairs = dense_pairs(v, $lo, $hi, 0, F::from_i64);
                    $body
                }
                Entries::Sparse(map) => {
                    let run = map.range(2 * $lo..2 * $hi);
                    let $pairs = pair_up(run.map(|(&i, &f)| (i, F::from_i64(f))));
                    $body
                }
            },
        }
    };
}

impl<F: PrimeField> FoldVector<F> {
    /// The initial table `A_1 = a` over `[2^bits]`: an `O(1)` shared
    /// snapshot of `fv` (see [`FrequencyVector`]'s `Clone`), read in place
    /// until the first fold writes the half-size field-form table.
    ///
    /// # Panics
    /// Panics if the vector's universe exceeds `2^bits`.
    pub fn from_frequency(fv: &FrequencyVector, bits: u32) -> Self {
        assert!(bits <= 63);
        assert!(fv.universe() <= 1u64 << bits, "universe larger than 2^bits");
        FoldVector {
            bits,
            repr: FoldRepr::Source(fv.clone()),
        }
    }

    /// The table `k` folds in, built in one sweep over `source` — a frozen
    /// vector `a` over `[2^bits]` as its array, or as its packed nonzero
    /// cells: with `weights[y] = χ_y(r_1, …, r_k)` (`2^k` of them, variable
    /// `t` on bit `t − 1` of `y`),
    ///
    /// ```text
    /// A_{k+1}[m] = Σ_{y < 2^k} weights[y] · a[m·2^k + y]
    /// ```
    ///
    /// is what `k` successive [`Self::bind`]s of [`Self::from_frequency`]
    /// over the same vector leave — one delayed-reduction dot per entry, read
    /// straight from the source, so no table larger than `2^{bits−k}` entries
    /// ever exists. Blocks that are all zero are skipped by an array and
    /// absent from a pack; an array yields a dense table, a pack a dense
    /// table or a sorted run under the same densify rule as a fold.
    ///
    /// Returned with the table is round `k+1`'s message, `combine` summed
    /// over every pair `(m, A_{k+1}[2m], A_{k+1}[2m+1])` with a nonzero
    /// child: in the same sweep, or by the rule's closed form once a dense
    /// table is written ([`Combine::dense_message`]).
    ///
    /// # Panics
    /// Panics if `weights.len()` is not a power of two `2^k` with
    /// `k ≤ bits` and `k ≤ HEAD_ROUNDS`, if the source holds a cell at or
    /// past `2^bits`, or if a pack's blocks are not `2^k` cells wide.
    pub(crate) fn from_frequency_bound<C: Combine<F> + ?Sized>(
        source: BindSource<'_>,
        bits: u32,
        weights: &[F],
        combine: &C,
    ) -> (Self, Vec<F>) {
        assert!(bits <= 63);
        assert!(
            weights.len().is_power_of_two(),
            "one weight per assignment of the bound variables"
        );
        let k = weights.len().trailing_zeros();
        assert!(k <= bits, "more variables bound than the table has");
        // Its callers, the head-started provers, bind `k = min(HEAD_ROUNDS, log_u)`.
        assert!(
            k <= HEAD_ROUNDS,
            "at most HEAD_ROUNDS variables bound at once"
        );
        let len = 1usize << (bits - k);
        match source {
            BindSource::Array(cells) => {
                assert!(
                    cells.len() as u64 <= 1u64 << bits,
                    "array longer than 2^bits"
                );
            }
            BindSource::Packed(pack) => {
                assert_eq!(pack.k, k, "packed for a different number of variables");
                let fits = pack.blocks.last().is_none_or(|&m| m < len as u64);
                assert!(fits, "packed cell past 2^bits");
            }
        }
        let (repr, message) = if bits == k {
            // One entry is left and it has no sibling: no pair to sum over.
            let (repr, _) = bound_repr(source, weights, len, &NoCombine);
            (repr, vec![F::ZERO; combine.slots()])
        } else {
            bound_repr(source, weights, len, combine)
        };
        let table = FoldVector {
            bits: bits - k,
            repr,
        };
        (table, message)
    }

    /// Builds a dense table from explicit values (`values.len()` must be a
    /// power of two).
    pub fn from_values(values: Vec<F>) -> Self {
        assert!(
            values.len().is_power_of_two(),
            "length must be a power of two"
        );
        let bits = values.len().trailing_zeros();
        FoldVector {
            bits,
            repr: FoldRepr::Dense(values),
        }
    }

    /// Number of unbound variables.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The value at `index` (zero where absent).
    pub fn get(&self, index: u64) -> F {
        debug_assert!(index < (1u64 << self.bits));
        match &self.repr {
            FoldRepr::Source(fv) if index < fv.universe() => F::from_i64(fv.get(index)),
            FoldRepr::Source(_) => F::ZERO,
            FoldRepr::Dense(v) => v[index as usize],
            FoldRepr::Sparse(s) => match s.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => s[pos].1,
                Err(_) => F::ZERO,
            },
        }
    }

    /// The fully folded scalar (only valid once `bits == 0`).
    ///
    /// # Panics
    /// Panics if variables remain.
    pub fn scalar(&self) -> F {
        assert_eq!(
            self.bits, 0,
            "fold incomplete: {} variables left",
            self.bits
        );
        self.get(0)
    }

    /// Number of explicitly stored entries (table footprint; for the
    /// unfolded snapshot, the shared vector's).
    pub fn stored_len(&self) -> usize {
        match &self.repr {
            FoldRepr::Source(fv) => match fv.entries() {
                Entries::Dense(v) => v.len(),
                Entries::Sparse(map) => map.len(),
            },
            FoldRepr::Dense(v) => v.len(),
            FoldRepr::Sparse(s) => s.len(),
        }
    }

    /// Whether the table is currently sparse.
    pub fn is_sparse(&self) -> bool {
        match &self.repr {
            FoldRepr::Source(fv) => !fv.is_dense(),
            FoldRepr::Dense(_) => false,
            FoldRepr::Sparse(_) => true,
        }
    }

    /// Number of pair slots `2^{bits−1}` (zero once fully folded).
    pub fn pairs(&self) -> u64 {
        if self.bits == 0 {
            0
        } else {
            1u64 << (self.bits - 1)
        }
    }

    /// Visits every index pair `(m, lo, hi) = (m, A[2m], A[2m+1])` with at
    /// least one nonzero component, in increasing `m`.
    pub fn for_each_pair(&self, f: impl FnMut(u64, F, F)) {
        self.for_each_pair_in(0, self.pairs(), f);
    }

    /// Like [`Self::for_each_pair`], restricted to pair indices in
    /// `[m_lo, m_hi)` — what a rule with a narrow [`Combine::live`] range
    /// walks.
    pub fn for_each_pair_in(&self, m_lo: u64, m_hi: u64, mut f: impl FnMut(u64, F, F)) {
        debug_assert!(m_lo <= m_hi && m_hi <= self.pairs());
        with_pairs!(self, m_lo, m_hi, |pairs| pairs
            .for_each(|(m, lo, hi)| f(m, lo, hi)));
    }

    /// Visits every `m` where *either* table has a nonzero child:
    /// `(m, a_lo, a_hi, b_lo, b_hi)`. Both tables must have the same number
    /// of unbound variables.
    pub fn for_each_pair_union(
        a: &FoldVector<F>,
        b: &FoldVector<F>,
        f: impl FnMut(u64, F, F, F, F),
    ) {
        Self::for_each_pair_union_in(a, b, 0, a.pairs(), f);
    }

    /// Like [`Self::for_each_pair_union`], restricted to pair indices in
    /// `[m_lo, m_hi)`: a streaming merge join of the two pair walks — no
    /// intermediate materialisation, and a sparse side is advanced by a
    /// cursor whatever the other side's representation.
    pub fn for_each_pair_union_in(
        a: &FoldVector<F>,
        b: &FoldVector<F>,
        m_lo: u64,
        m_hi: u64,
        mut f: impl FnMut(u64, F, F, F, F),
    ) {
        assert_eq!(a.bits, b.bits, "fold tables out of sync");
        if let (FoldRepr::Dense(va), FoldRepr::Dense(vb)) = (&a.repr, &b.repr) {
            // Two field-form tables — every round but the first of a dense
            // inner product — need no join: the slots line up.
            let (lo, hi) = (2 * m_lo as usize, 2 * m_hi as usize);
            let pairs = va[lo..hi].chunks_exact(2).zip(vb[lo..hi].chunks_exact(2));
            for ((pa, pb), m) in pairs.zip(m_lo..) {
                if !(pa[0].is_zero() && pa[1].is_zero() && pb[0].is_zero() && pb[1].is_zero()) {
                    f(m, pa[0], pa[1], pb[0], pb[1]);
                }
            }
            return;
        }
        // Any other pairing goes through one merge join over type-erased
        // walks, not one copy of the join per pair of representations.
        type Pairs<'p, F> = &'p mut dyn Iterator<Item = (u64, F, F)>;
        with_pairs!(a, m_lo, m_hi, |pa| {
            let mut pa = pa;
            let pa: Pairs<'_, F> = &mut pa;
            with_pairs!(b, m_lo, m_hi, |pb| {
                let mut pb = pb;
                let pb: Pairs<'_, F> = &mut pb;
                merge_pairs(pa, pb, &mut f)
            })
        });
    }

    /// All nonzero entries with index in `[lo, hi]`, in index order.
    pub fn nonzero_in_range(&self, lo: u64, hi: u64) -> Vec<(u64, F)> {
        debug_assert!(lo <= hi && hi < (1u64 << self.bits));
        match &self.repr {
            FoldRepr::Source(fv) => fv
                .range_report(lo, hi)
                .into_iter()
                .map(|(i, f)| (i, F::from_i64(f)))
                .collect(),
            FoldRepr::Dense(v) => (lo..=hi)
                .filter_map(|i| {
                    let val = v[i as usize];
                    (!val.is_zero()).then_some((i, val))
                })
                .collect(),
            FoldRepr::Sparse(s) => sparse_run(s, lo, hi + 1).to_vec(),
        }
    }

    /// Binds the lowest variable to challenge `r` using the multilinear
    /// basis, weights `(1−r, r)`: `A'[m] = A[2m] + r·(A[2m+1] − A[2m])`.
    ///
    /// # Panics
    /// Panics if no variables remain.
    pub fn bind(&mut self, r: F) {
        self.fold_fused(r, &NoCombine);
    }

    /// Binds the lowest variable to challenge `r` and returns the next
    /// round's message: `combine` summed over every pair
    /// `(k, A'[2k], A'[2k+1])` of the **folded** table `A'` with a nonzero
    /// child — fed pair by pair in the same sweep, or, where `A'` is dense and
    /// the rule has a closed form ([`Combine::dense_message`]), in one call
    /// once the sweep has written it. A field-form table is folded in place;
    /// the shared snapshot is folded once, out of place, into the half-size
    /// table.
    ///
    /// # Panics
    /// Panics if no variables remain.
    pub(crate) fn fold_fused<C: Combine<F> + ?Sized>(&mut self, r: F, combine: &C) -> Vec<F> {
        assert!(self.bits >= 1, "nothing left to fold");
        if self.bits == 1 {
            // One entry is left and it has no sibling: no pair to sum over.
            let last = bind_pair(r, self.get(0), self.get(1));
            self.bits = 0;
            match &mut self.repr {
                FoldRepr::Dense(v) => {
                    v[0] = last;
                    v.truncate(1);
                }
                repr => *repr = FoldRepr::Dense(vec![last]),
            }
            return vec![F::ZERO; combine.slots()];
        }
        self.bits -= 1;
        let half = 1usize << self.bits;
        let (repr, message) = match std::mem::replace(&mut self.repr, FoldRepr::Dense(Vec::new())) {
            FoldRepr::Dense(mut v) => {
                let message = match combine.dense_message() {
                    Some(message) => {
                        bind_in_place(&mut v, r);
                        message(&v)
                    }
                    None => {
                        let mut acc = accs_for::<F>(combine.slots());
                        fold_dense_in_place(&mut v, r, combine, &mut acc);
                        finish::<F>(acc)
                    }
                };
                (FoldRepr::Dense(v), message)
            }
            FoldRepr::Sparse(mut s) => {
                let mut acc = accs_for::<F>(combine.slots());
                let mut run = InPlace {
                    run: &mut s,
                    read: 0,
                    written: 0,
                };
                fold_sparse_run(&mut run, r, combine, &mut acc);
                let folded = run.written;
                s.truncate(folded);
                (settle(s, half), finish::<F>(acc))
            }
            FoldRepr::Source(fv) => match fv.entries() {
                Entries::Dense(v) => {
                    let (table, message) =
                        dense_sweep!(combine, |rule, acc| fold_dense(v, half, r, rule, acc));
                    (FoldRepr::Dense(table), message)
                }
                Entries::Sparse(map) => {
                    let mut acc = accs_for::<F>(combine.slots());
                    let mut run = Streamed {
                        entries: map.iter().map(|(&i, &f)| (i, F::from_i64(f))),
                        // A fold never grows a run; sized once, the output is
                        // not moved.
                        folded: Vec::with_capacity(map.len()),
                    };
                    fold_sparse_run(&mut run, r, combine, &mut acc);
                    (settle(run.folded, half), finish::<F>(acc))
                }
            },
        };
        self.repr = repr;
        message
    }
}

/// The rule of a fold nobody takes a message from.
struct NoCombine;

impl<F: PrimeField> Combine<F> for NoCombine {
    fn slots(&self) -> usize {
        0
    }

    #[inline(always)]
    fn accumulate(&self, _m: u64, _a: &[F], _b: &[F], _acc: &mut [F::DotAcc]) {}
}

/// Whether a table of `len` slots with `entries` nonzero ones is stored
/// densely: it is small, or no longer meaningfully sparse.
fn stored_densely(entries: usize, len: usize) -> bool {
    len as u64 <= ALWAYS_DENSE || (entries as u64).saturating_mul(4) >= len as u64
}

/// Stores a table of `len` slots from its sorted nonzero `entries`.
fn settle<F: PrimeField>(entries: Vec<(u64, F)>, len: usize) -> FoldRepr<F> {
    if stored_densely(entries.len(), len) {
        let mut dense = vec![F::ZERO; len];
        for (i, v) in entries {
            dense[i as usize] = v;
        }
        FoldRepr::Dense(dense)
    } else {
        FoldRepr::Sparse(entries)
    }
}

/// The message over every pair of a dense `table` with a nonzero child:
/// `combine`'s closed form where it has one, else a walk of the pairs.
fn dense_message_of<F: PrimeField, C: Combine<F> + ?Sized>(combine: &C, table: &[F]) -> Vec<F> {
    if let Some(message) = combine.dense_message() {
        return message(table);
    }
    let mut acc = accs_for::<F>(combine.slots());
    let pairs = (table.len() / 2) as u64;
    for (m, lo, hi) in dense_pairs(table, 0, pairs, F::ZERO, |x| x) {
        combine.accumulate(m, &[lo, hi], &[], &mut acc);
    }
    finish::<F>(acc)
}

/// Pairs up the nonzero entries of a table as a sweep writes them, in
/// increasing index, and hands every pair `(k, A'[2k], A'[2k+1])` — a
/// sibling never written reading as zero — to `combine` once an entry of a
/// later pair (or the end of the sweep) shows it is complete.
struct PairFeed<'a, F: PrimeField, C: ?Sized> {
    combine: &'a C,
    acc: &'a mut [F::DotAcc],
    /// The pair being assembled; `k == NO_PAIR` before the first entry.
    k: u64,
    n0: F,
    n1: F,
}

/// No pair index: entries sit below `2^63`, so pairs sit below `2^62`.
const NO_PAIR: u64 = u64::MAX;

impl<'a, F: PrimeField, C: Combine<F> + ?Sized> PairFeed<'a, F, C> {
    fn new(combine: &'a C, acc: &'a mut [F::DotAcc]) -> Self {
        PairFeed {
            combine,
            acc,
            k: NO_PAIR,
            n0: F::ZERO,
            n1: F::ZERO,
        }
    }

    #[inline(always)]
    fn push(&mut self, i: u64, v: F) {
        if i >> 1 == self.k {
            self.n1 = v;
            return;
        }
        self.flush();
        (self.k, self.n0, self.n1) = if i & 1 == 0 {
            (i >> 1, v, F::ZERO)
        } else {
            (i >> 1, F::ZERO, v)
        };
    }

    #[inline(always)]
    fn flush(&mut self) {
        if self.k != NO_PAIR {
            self.combine
                .accumulate(self.k, &[self.n0, self.n1], &[], self.acc);
        }
    }

    /// Ends the sweep: the last pair is complete.
    fn finish(mut self) {
        self.flush();
    }
}

/// The `len`-entry table [`FoldVector::from_frequency_bound`] builds, from
/// either source, and the message over its pairs.
fn bound_repr<F: PrimeField, C: Combine<F> + ?Sized>(
    source: BindSource<'_>,
    weights: &[F],
    len: usize,
    combine: &C,
) -> (FoldRepr<F>, Vec<F>) {
    match source {
        BindSource::Array(cells) => {
            let (table, message) = dense_sweep!(combine, |rule, acc| bind_dense(
                cells, weights, len, rule, acc
            ));
            (FoldRepr::Dense(table), message)
        }
        BindSource::Packed(pack) => {
            let mut acc = accs_for::<F>(combine.slots());
            let repr = bind_packed(pack, weights, len, combine, &mut acc);
            let message = match &repr {
                FoldRepr::Dense(table) => dense_message_of(combine, table),
                _ => finish::<F>(acc),
            };
            (repr, message)
        }
    }
}

/// The `k`-variable bind of a dense snapshot: entry `m` of the `len`-entry
/// table is the dot of `weights` with cells `[m·2^k, (m+1)·2^k)`, cells past
/// the end of `cells` reading as zero — one kernel per width `2^k`
/// ([`bind_blocks`]). Every pair of the table with a nonzero child is fed
/// through `combine` into `acc`, in increasing index.
fn bind_dense<F: PrimeField, C: Combine<F> + ?Sized>(
    cells: &[i64],
    weights: &[F],
    len: usize,
    combine: &C,
    acc: &mut [F::DotAcc],
) -> Vec<F> {
    with_const!(weights.len(), [1, 2, 4, 8, 16], |W| bind_blocks::<F, C, W>(
        cells, weights, len, combine, acc
    ))
}

/// [`bind_dense`] at width `W = 2^k`, two blocks — one pair of the table — at
/// a time: one dot of fixed length per whole block that holds anything, and
/// the last block or two, where the snapshot ends inside a pair, bound on
/// their own.
fn bind_blocks<F: PrimeField, C: Combine<F> + ?Sized, const W: usize>(
    cells: &[i64],
    weights: &[F],
    len: usize,
    combine: &C,
    acc: &mut [F::DotAcc],
) -> Vec<F> {
    let mut bound = vec![F::ZERO; len];
    let weights = &weights[..W];
    let dot = |block: &[i64]| {
        // Or-ing the cells, not `all`: no early exit, so no branch per
        // cell for sparse data to mispredict.
        if block.iter().fold(0, |any, &a| any | a) == 0 {
            F::ZERO
        } else {
            F::dot_i64(weights, block)
        }
    };
    let (blocks, _) = cells.as_chunks::<W>();
    let whole = blocks.len() / 2;
    let pairs = blocks.chunks_exact(2).zip(bound.chunks_exact_mut(2));
    for ((two, out), m) in pairs.zip(0u64..) {
        let (n0, n1) = (dot(&two[0]), dot(&two[1]));
        (out[0], out[1]) = (n0, n1);
        if !(n0.is_zero() && n1.is_zero()) {
            combine.accumulate(m, &[n0, n1], &[], acc);
        }
    }
    let rest = &cells[2 * W * whole..];
    if !rest.is_empty() {
        // Inside the table: `cells` is at most `len` blocks long, and a
        // table of one entry has no pair to hand out.
        for (out, block) in bound[2 * whole..].iter_mut().zip(rest.chunks(W)) {
            *out = dot(block);
        }
        if let Some(&[n0, n1]) = bound.get(2 * whole..2 * whole + 2) {
            if !(n0.is_zero() && n1.is_zero()) {
                combine.accumulate(whole as u64, &[n0, n1], &[], acc);
            }
        }
    }
    bound
}

/// The `k`-variable bind of a pack: one dot per block that holds anything —
/// the work is in the nonzero cells, not the universe. The dots are taken
/// class by class (`PackedBlocks::dots`) and written out in increasing block
/// index through the blocks' slots. How the `len`-entry table is stored is
/// settled before the sweep, so that every entry is written once, where it
/// stays: by the rule of a fold ([`stored_densely`]) on the pack's nonempty
/// blocks, which is how many entries the table has unless a block's cells
/// cancel under the weights. A dense table is the caller's to sum a message
/// over; a sorted run feeds every pair it holds through `combine` into `acc`
/// as it is written.
fn bind_packed<F: PrimeField, C: Combine<F> + ?Sized>(
    pack: &PackedBlocks,
    weights: &[F],
    len: usize,
    combine: &C,
    acc: &mut [F::DotAcc],
) -> FoldRepr<F> {
    let dots = pack.dots(weights);
    let bound = pack
        .blocks
        .iter()
        .zip(&pack.slots)
        .map(|(&m, &slot)| (m, dots[slot as usize]));
    if stored_densely(pack.blocks.len(), len) {
        // Every dot straight to its entry, one that cancels exactly too.
        let mut dense = vec![F::ZERO; len];
        for (m, v) in bound {
            dense[m as usize] = v;
        }
        FoldRepr::Dense(dense)
    } else {
        // A bind never grows a run; sized once, the output is not moved.
        let mut run = Vec::with_capacity(pack.blocks.len());
        let mut feed = PairFeed::new(combine, acc);
        // Blocks that cancel exactly are dropped, not stored as zero.
        for (m, v) in bound.filter(|(_, v)| !v.is_zero()) {
            run.push((m, v));
            feed.push(m, v);
        }
        feed.finish();
        FoldRepr::Sparse(run)
    }
}

impl PackedBlocks {
    /// Every block's dot with `weights`, in slot order: class by class, one
    /// kernel of fixed length per cell count ([`dots_of`]). Generic over the
    /// field alone, so there is one copy of the sixteen kernels per field,
    /// not one per rule a bind feeds.
    fn dots<F: PrimeField>(&self, weights: &[F]) -> Vec<F> {
        let mut dots = Vec::with_capacity(self.blocks.len());
        let mut cells = 0;
        for c in 1..self.classes.len() {
            let end = cells + c * (self.classes[c] - self.classes[c - 1]);
            let (at, x) = (&self.offsets[cells..end], &self.values[cells..end]);
            with_const!(
                c,
                [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
                |N| dots_of::<F, N>(weights, at, x, &mut dots)
            );
            cells = end;
        }
        dots
    }
}

/// The dot with `weights` of every block of one count class of a pack —
/// runs of `C` cells, offsets `at` and frequencies `x` — appended to `dots`.
#[inline(always)]
fn dots_of<F: PrimeField, const C: usize>(weights: &[F], at: &[u16], x: &[i64], dots: &mut Vec<F>) {
    let (at, x) = (at.as_chunks::<C>().0, x.as_chunks::<C>().0);
    dots.extend(
        at.iter()
            .zip(x)
            .map(|(at, x)| F::dot_i64_at(weights, at, x)),
    );
}

/// Folds one quad of raw cells `A[4k..4k+4]` into `(A'[2k], A'[2k+1])`, or
/// `None` when all four are zero — the one data-dependent branch a quad
/// costs.
#[inline(always)]
fn fold_quad<T: Copy + PartialEq, F: PrimeField>(
    quad: [T; 4],
    zero: T,
    to_field: impl Fn(T) -> F,
    r: F,
) -> Option<(F, F)> {
    let [a, b, c, d] = quad;
    // `&`, not `&&`: one compare-and-branch per quad, and no array compare
    // (which would round-trip the cells through memory).
    if (a == zero) & (b == zero) & (c == zero) & (d == zero) {
        return None;
    }
    Some((
        bind_pair(r, to_field(a), to_field(b)),
        bind_pair(r, to_field(c), to_field(d)),
    ))
}

/// The dense sweep over a field-form table, in place: entry `2k` is written after entries
/// `4k..4k+4` were read and is never read again.
fn fold_dense_in_place<F: PrimeField, C: Combine<F> + ?Sized>(
    v: &mut Vec<F>,
    r: F,
    combine: &C,
    acc: &mut [F::DotAcc],
) {
    let half = v.len() / 2;
    for k in 0..half / 2 {
        let quad = [v[4 * k], v[4 * k + 1], v[4 * k + 2], v[4 * k + 3]];
        let (n0, n1) = fold_quad(quad, F::ZERO, |x| x, r).unwrap_or((F::ZERO, F::ZERO));
        (v[2 * k], v[2 * k + 1]) = (n0, n1);
        if !n0.is_zero() || !n1.is_zero() {
            combine.accumulate(k as u64, &[n0, n1], &[], acc);
        }
    }
    v.truncate(half);
}

/// [`fold_dense_in_place`] for a rule that is fed nothing: every pair is
/// bound, with no branch on the data.
fn bind_in_place<F: PrimeField>(v: &mut Vec<F>, r: F) {
    let half = v.len() / 2;
    for k in 0..half {
        v[k] = bind_pair(r, v[2 * k], v[2 * k + 1]);
    }
    v.truncate(half);
}

/// The dense sweep over the shared snapshot's `cells` (at most `2·half` of
/// them, missing cells reading as zero) into a fresh `half`-entry table.
fn fold_dense<F: PrimeField, C: Combine<F> + ?Sized>(
    cells: &[i64],
    half: usize,
    r: F,
    combine: &C,
    acc: &mut [F::DotAcc],
) -> Vec<F> {
    let mut folded = vec![F::ZERO; half];
    for (out, k) in folded.chunks_exact_mut(2).zip(0u64..) {
        let at = 4 * k as usize;
        let quad = match cells.get(at..at + 4) {
            Some(quad) => [quad[0], quad[1], quad[2], quad[3]],
            // Partly or wholly past the end of a snapshot whose universe
            // is smaller than the table.
            None => std::array::from_fn(|i| cells.get(at + i).copied().unwrap_or(0)),
        };
        let Some((n0, n1)) = fold_quad(quad, 0, F::from_i64, r) else {
            continue;
        };
        if !n0.is_zero() || !n1.is_zero() {
            (out[0], out[1]) = (n0, n1);
            combine.accumulate(k, &[n0, n1], &[], acc);
        }
    }
    folded
}

/// What the sparse kernel reads and writes: a sorted run of nonzero
/// `(index, value)` entries in, the folded run out.
trait SparseRun<F> {
    /// The next entry of the table being folded.
    fn next(&mut self) -> Option<(u64, F)>;
    /// Appends an entry of the folded table.
    fn emit(&mut self, entry: (u64, F));
}

/// A sorted run folded in place: every entry is written after it — and at
/// least one more — was read, so the write position never passes the read
/// position.
struct InPlace<'a, F> {
    run: &'a mut Vec<(u64, F)>,
    read: usize,
    written: usize,
}

impl<F: PrimeField> SparseRun<F> for InPlace<'_, F> {
    #[inline(always)]
    fn next(&mut self) -> Option<(u64, F)> {
        let entry = self.run.get(self.read).copied();
        self.read += 1;
        entry
    }

    #[inline(always)]
    fn emit(&mut self, entry: (u64, F)) {
        self.run[self.written] = entry;
        self.written += 1;
    }
}

/// A run read from elsewhere — the shared snapshot's tree — folded into a
/// fresh vector.
struct Streamed<I, F> {
    entries: I,
    folded: Vec<(u64, F)>,
}

impl<F: PrimeField, I: Iterator<Item = (u64, F)>> SparseRun<F> for Streamed<I, F> {
    #[inline(always)]
    fn next(&mut self) -> Option<(u64, F)> {
        self.entries.next()
    }

    #[inline(always)]
    fn emit(&mut self, entry: (u64, F)) {
        self.folded.push(entry);
    }
}

/// The sparse sweep over one run: folds every pair of entries and feeds
/// every pair of the folded entries through `combine`.
fn fold_sparse_run<F: PrimeField, C: Combine<F> + ?Sized>(
    run: &mut impl SparseRun<F>,
    r: F,
    combine: &C,
    acc: &mut [F::DotAcc],
) {
    // Entries come in index order, so a pair `(m, lo, hi)` of the table
    // being folded is complete when an entry of a later pair shows up (the
    // folded table's pairs are `folded`'s to assemble). `NONE` marks "no
    // pair yet", and stands in for an entry past every index once the run
    // has ended, to flush its last pair.
    const NONE: u64 = u64::MAX;
    let (mut m, mut lo, mut hi) = (NONE, F::ZERO, F::ZERO);
    let mut folded = PairFeed::new(combine, acc);
    loop {
        let (i, v) = run.next().unwrap_or((NONE, F::ZERO));
        if i >> 1 == m {
            hi = v;
            continue;
        }
        let (done, done_lo, done_hi) = (m, lo, hi);
        (m, lo, hi) = if i & 1 == 0 {
            (i >> 1, v, F::ZERO)
        } else {
            (i >> 1, F::ZERO, v)
        };
        if done != NONE {
            let n = bind_pair(r, done_lo, done_hi);
            // Entries that cancel exactly are dropped, not stored as zero.
            if !n.is_zero() {
                run.emit((done, n));
                folded.push(done, n);
            }
        }
        if i == NONE {
            break;
        }
    }
    folded.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sumcheck::f2::F2Combine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::{Fp127, Fp61, PrimeField};
    use sip_lde::reference::naive_multilinear_eval;
    use sip_streaming::{workloads, FrequencyVector, Update};
    use std::cell::RefCell;

    impl PackedBlocks {
        /// `(nonempty blocks, nonzero cells)` held.
        pub(crate) fn size(&self) -> (usize, usize) {
            (self.blocks.len(), self.values.len())
        }
    }

    fn field_vec(fv: &FrequencyVector) -> Vec<Fp61> {
        (0..fv.universe())
            .map(|i| Fp61::from_i64(fv.get(i)))
            .collect()
    }

    /// A vector that stays in the sparse representation (`from_stream`
    /// starts dense for every universe these tests use).
    fn sparse_fv(u: u64, stream: &[Update]) -> FrequencyVector {
        let mut fv = FrequencyVector::new_sparse(u);
        fv.apply_batch(stream);
        assert!(
            !fv.is_dense(),
            "support must stay under the promotion threshold"
        );
        fv
    }

    #[test]
    fn full_bind_equals_multilinear_eval() {
        // Binding all variables at (r_1, …, r_d) must produce f̃_a(r): the
        // multilinear extension evaluated at r.
        let mut rng = StdRng::seed_from_u64(1);
        let bits = 8u32;
        let stream = workloads::uniform(100, 1 << bits, 50, 7);
        let fv = FrequencyVector::from_stream(1 << bits, &stream);
        let values = field_vec(&fv);
        let mut fold = FoldVector::from_frequency(&fv, bits);
        let r: Vec<Fp61> = (0..bits).map(|_| Fp61::random(&mut rng)).collect();
        for &rj in &r {
            fold.bind(rj);
        }
        assert_eq!(fold.scalar(), naive_multilinear_eval(&values, &r));
    }

    #[test]
    fn sparse_and_dense_agree_through_folds() {
        let mut rng = StdRng::seed_from_u64(2);
        let bits = 16u32; // large enough that sparse is chosen
        let stream = workloads::uniform(40, 1 << bits, 9, 8);
        let fv = sparse_fv(1 << bits, &stream);
        let mut sparse = FoldVector::from_frequency(&fv, bits);
        assert!(sparse.is_sparse(), "setup should start sparse");
        let mut dense = FoldVector::from_values(field_vec(&fv));
        for _ in 0..bits {
            let r = Fp61::random(&mut rng);
            // Compare pair walks before folding.
            let mut sp = Vec::new();
            sparse.for_each_pair(|m, lo, hi| sp.push((m, lo, hi)));
            let mut dp = Vec::new();
            dense.for_each_pair(|m, lo, hi| dp.push((m, lo, hi)));
            assert_eq!(sp, dp);
            sparse.bind(r);
            dense.bind(r);
        }
        assert_eq!(sparse.scalar(), dense.scalar());
    }

    #[test]
    fn tree_fold_computes_affine_hash() {
        // The SUB-VECTOR prover's level-j sibling hashes are equation (8)
        // over each sibling's cells: t = Σ_i a_i Π_{t ≤ j} r_t^{bit_{t−1}(i)}.
        // Every node of every level of a 2^11 tree (wider than one
        // 256-cell block), asked one round at a time, against the sum.
        use crate::subvector::{RoundRequest, SubVectorProver};
        let mut rng = StdRng::seed_from_u64(3);
        let bits = 11u32;
        let stream = workloads::with_deletions(600, 1 << bits, 0.2, 9);
        let fv = FrequencyVector::from_stream(1 << bits, &stream);
        let keys: Vec<Fp61> = (0..bits).map(|_| Fp61::random(&mut rng)).collect();
        let hash = |level: u32, m: u64| {
            let mut expect = Fp61::ZERO;
            for (i, f) in fv.nonzero().filter(|&(i, _)| i >> level == m) {
                let mut w = Fp61::from_i64(f);
                for (j, &k) in keys[..level as usize].iter().enumerate() {
                    if (i >> j) & 1 == 1 {
                        w *= k;
                    }
                }
                expect += w;
            }
            expect
        };
        for m in 0..1u64 << (bits - 1) {
            let mut prover = SubVectorProver::<Fp61>::new(&fv, bits);
            for level in 1..bits {
                let node = m >> (level - 1);
                let req = RoundRequest {
                    level,
                    challenge: keys[level as usize - 1],
                    left: Some(node),
                    right: (node + 1 < 1 << (bits - level)).then_some(node + 1),
                };
                let reply = prover.process_round(&req);
                assert_eq!(
                    reply.left,
                    Some(hash(level, node)),
                    "level {level} node {node}"
                );
                assert_eq!(reply.right, req.right.map(|n| hash(level, n)));
            }
        }
    }

    #[test]
    fn pair_union_covers_both_supports() {
        let a = sparse_fv(
            1 << 16,
            &[Update::new(2, 1), Update::new(5, 2), Update::new(40_000, 3)],
        );
        let b = sparse_fv(
            1 << 16,
            &[Update::new(3, 7), Update::new(5, 1), Update::new(60_001, 4)],
        );
        let fa = FoldVector::<Fp61>::from_frequency(&a, 16);
        let fb = FoldVector::<Fp61>::from_frequency(&b, 16);
        assert!(fa.is_sparse() && fb.is_sparse());
        let mut seen = Vec::new();
        FoldVector::for_each_pair_union(&fa, &fb, |m, alo, ahi, blo, bhi| {
            seen.push((m, alo, ahi, blo, bhi));
        });
        let one = Fp61::from_u64(1);
        let two = Fp61::from_u64(2);
        let three = Fp61::from_u64(3);
        let four = Fp61::from_u64(4);
        let seven = Fp61::from_u64(7);
        let z = Fp61::ZERO;
        assert_eq!(
            seen,
            vec![
                (1, one, z, z, seven), // a_2 | b_3
                (2, z, two, z, one),   // a_5 | b_5
                (20_000, three, z, z, z),
                (30_000, z, z, z, four), // b at 60_001 (odd)
            ]
        );
    }

    #[test]
    fn pair_union_mixed_representations() {
        // One dense, one sparse: same results as both dense — from the
        // shared snapshots (i64 array against tree) and again one fold in
        // (field table against sorted run).
        let mut rng = StdRng::seed_from_u64(4);
        let bits = 14u32; // one fold in, 2^13 entries: still above ALWAYS_DENSE
        let sa = workloads::uniform(5000, 1 << bits, 5, 10); // dense support
        let sb = workloads::uniform(20, 1 << bits, 5, 11); // sparse support
        let a = FrequencyVector::from_stream(1 << bits, &sa);
        let b = sparse_fv(1 << bits, &sb);
        let mut fa = FoldVector::<Fp61>::from_frequency(&a, bits);
        let mut fb = FoldVector::<Fp61>::from_frequency(&b, bits);
        let mut da = FoldVector::from_values(field_vec(&a));
        let mut db = FoldVector::from_values(field_vec(&b));
        for level in 0..2 {
            assert!(!fa.is_sparse() && fb.is_sparse(), "level {level}");
            let r = Fp61::random(&mut rng);
            let mut got = Vec::new();
            FoldVector::for_each_pair_union(&fa, &fb, |m, alo, ahi, blo, bhi| {
                got.push((m, (alo + r * ahi) * (blo + r * bhi)));
            });
            let mut expect = Vec::new();
            FoldVector::for_each_pair_union(&da, &db, |m, alo, ahi, blo, bhi| {
                expect.push((m, (alo + r * ahi) * (blo + r * bhi)));
            });
            assert_eq!(got, expect, "level {level}");
            // And the operands swapped: the sparse side leads the join.
            let mut swapped = Vec::new();
            FoldVector::for_each_pair_union(&fb, &fa, |m, blo, bhi, alo, ahi| {
                swapped.push((m, (alo + r * ahi) * (blo + r * bhi)));
            });
            assert_eq!(swapped, expect, "level {level} swapped");
            for table in [&mut fa, &mut fb, &mut da, &mut db] {
                table.bind(r);
            }
        }
    }

    /// Every pair of `table` with a nonzero child.
    fn pairs_of(table: &FoldVector<Fp61>) -> Vec<(u64, Fp61, Fp61)> {
        let mut out = Vec::new();
        table.for_each_pair(|m, lo, hi| out.push((m, lo, hi)));
        out
    }

    /// A rule that sums nothing and writes down every pair it is shown.
    struct Record(RefCell<Vec<(u64, Fp61, Fp61)>>);

    impl Combine<Fp61> for Record {
        fn slots(&self) -> usize {
            0
        }

        fn accumulate(
            &self,
            m: u64,
            a: &[Fp61],
            _b: &[Fp61],
            _acc: &mut [<Fp61 as PrimeField>::DotAcc],
        ) {
            self.0.borrow_mut().push((m, a[0], a[1]));
        }
    }

    #[test]
    fn fused_fold_visits_exactly_the_folded_tables_pairs() {
        // From every representation: the table after the
        // fused sweep equals the plain fold of a dense reference, and the
        // pairs the sweep hands out are the pairs a second pass over that
        // table would find, each exactly once and in order.
        let bits = 14u32; // half = 2^13 > ALWAYS_DENSE: sparse tables stay sparse
        let dense_stream = workloads::with_deletions(30_000, 1 << bits, 0.3, 21);
        let sparse_stream = workloads::with_deletions(300, 1 << bits, 0.3, 22);
        let starts = [
            FrequencyVector::from_stream(1 << bits, &dense_stream),
            sparse_fv(1 << bits, &sparse_stream),
            // A universe that is not a multiple of four: the snapshot is
            // shorter than the table and its last quad is partial.
            FrequencyVector::from_stream((1 << bits) - 5, &sparse_stream[..200]),
        ];
        let r = Fp61::from_u64(0x5eed_1234_5678);
        for fv in &starts {
            let mut reference = field_vec(fv);
            reference.resize(1 << bits, Fp61::ZERO);
            // Two levels: the first sweep reads the snapshot, the second
            // the field-form table the first one wrote.
            let mut table = FoldVector::<Fp61>::from_frequency(fv, bits);
            for level in 0..2 {
                reference = reference
                    .chunks_exact(2)
                    .map(|c| c[0] + r * (c[1] - c[0]))
                    .collect();
                let expect = pairs_of(&FoldVector::from_values(reference.clone()));
                let seen = Record(RefCell::new(Vec::new()));
                table.fold_fused(r, &seen);
                let what = format!("dense={} level={level}", fv.is_dense());
                assert_eq!(seen.0.into_inner(), expect, "{what}");
                assert_eq!(pairs_of(&table), expect, "{what}");
            }
        }
    }

    /// `χ_y(r_1, …, r_k)` for every `y < 2^k`, variable `t` on bit `t − 1`.
    fn chi_weights<F: PrimeField>(r: &[F]) -> Vec<F> {
        (0..1usize << r.len())
            .map(|y| {
                r.iter().enumerate().fold(F::ONE, |w, (t, &rt)| {
                    w * if (y >> t) & 1 == 1 { rt } else { F::ONE - rt }
                })
            })
            .collect()
    }

    /// `fv`'s nonzero cells packed by block of `2^k`, as a head's build
    /// counts and appends them.
    fn pack_of(fv: &FrequencyVector, k: u32) -> PackedBlocks {
        let support = fv.support_size() as usize;
        let counts = BlockCounts::of(fv, k);
        assert_eq!(counts.cells(), support as u64);
        let mut fill = PackedBlocks::fill(&counts);
        let cells: Vec<(u64, i64)> = fv.nonzero().collect();
        for block in cells.chunk_by(|a, b| a.0 >> k == b.0 >> k) {
            let nonzero: Vec<(usize, i64)> = block
                .iter()
                .map(|&(i, a)| ((i & ((1 << k) - 1)) as usize, a))
                .collect();
            fill.push_block(block[0].0 >> k, &nonzero);
        }
        let pack = fill.finish();
        let (blocks, cells) = pack.size();
        let header = 8 * ((1 << k) + 1);
        assert_eq!(
            (cells, pack.bytes()),
            (support, 10 * cells + 12 * blocks + header)
        );
        pack
    }

    /// A tree over `[2^bits]` with blocks of 16 cells of every count
    /// `1..=16`, each count in several blocks far apart, so that no class
    /// of the pack is a run of neighbouring blocks.
    fn every_count(bits: u32) -> FrequencyVector {
        let blocks = 1u64 << (bits - 4);
        let cells = (0..48u64).flat_map(|n| {
            let count = n % 16 + 1;
            // An odd multiplier scatters the 48 blocks over the universe.
            let block = (n * 0x9e37_79b1 + 5) % blocks;
            (0..count).map(move |y| {
                (
                    16 * block + (y * 7 + n) % 16,
                    ((n * 16 + y) as i64 - 400) | 1,
                )
            })
        });
        let fv = FrequencyVector::from_sparse_entries(1 << bits, cells);
        assert!(!fv.is_dense());
        fv
    }

    #[test]
    fn binding_k_variables_at_once_equals_k_single_binds() {
        // From an array, from a tree's pack whose bound table stays a sorted
        // run, from one whose bound table crosses the densify rule, from a
        // universe that ends inside a block (read as an array and as its
        // pack), from a tree with blocks of every cell count, and from
        // tables of 2^3 and 2^4 entries: the table, its representation and
        // the pairs handed out all equal those of k fused single binds, at
        // every k a bind takes (up to HEAD_ROUNDS, and up to the whole
        // table).
        let bits = 15u32;
        let u = 1u64 << bits;
        let starts = [
            FrequencyVector::from_stream(u, &workloads::with_deletions(40_000, u, 0.3, 31)),
            sparse_fv(u, &workloads::with_deletions(300, u, 0.3, 32)),
            sparse_fv(u, &workloads::with_deletions(3_000, u, 0.3, 33)),
            FrequencyVector::from_stream(u - 21, &workloads::uniform(5_000, u - 21, 9, 34)),
            every_count(bits),
            FrequencyVector::from_stream(8, &[Update::new(1, 3), Update::new(6, -2)]),
            FrequencyVector::from_stream(16, &workloads::with_deletions(20, 16, 0.3, 37)),
        ];
        let mut rng = StdRng::seed_from_u64(35);
        let r: Vec<Fp61> = (0..bits).map(|_| Fp61::random(&mut rng)).collect();
        for fv in &starts {
            let bits = fv.universe().next_power_of_two().trailing_zeros();
            let mut stepwise = FoldVector::<Fp61>::from_frequency(fv, bits);
            for k in 1..=bits.min(HEAD_ROUNDS) as usize {
                let seen_stepwise = Record(RefCell::new(Vec::new()));
                stepwise.fold_fused(r[k - 1], &seen_stepwise);
                let what = format!("dense={} bits={bits} k={k}", fv.is_dense());
                let seen = Record(RefCell::new(Vec::new()));
                let weights = chi_weights(&r[..k]);
                let pack = pack_of(fv, k as u32);
                let source = match fv.dense_values() {
                    Some(cells) => BindSource::Array(cells),
                    None => BindSource::Packed(&pack),
                };
                let (bound, _) = FoldVector::from_frequency_bound(source, bits, &weights, &seen);
                assert_eq!(bound.bits(), bits - k as u32, "{what}");
                assert_eq!(pairs_of(&bound), pairs_of(&stepwise), "{what}");
                assert_eq!(bound.is_sparse(), stepwise.is_sparse(), "{what}");
                if bound.bits() == 0 {
                    assert_eq!(bound.scalar(), stepwise.scalar(), "{what}");
                }
                let seen_stepwise = seen_stepwise.0.into_inner();
                assert_eq!(seen.0.into_inner(), seen_stepwise, "{what}");
                // An array's pack binds to the same entries and hands out the
                // same pairs; how its table is stored is the pack's to settle.
                let seen = Record(RefCell::new(Vec::new()));
                let packed = BindSource::Packed(&pack);
                let (bound, _) = FoldVector::from_frequency_bound(packed, bits, &weights, &seen);
                assert_eq!(pairs_of(&bound), pairs_of(&stepwise), "{what} packed");
                if bound.bits() == 0 {
                    assert_eq!(bound.scalar(), stepwise.scalar(), "{what} packed");
                }
                assert_eq!(seen.0.into_inner(), seen_stepwise, "{what} packed");
            }
        }
    }

    /// F₂'s rule without its closed form: every sweep feeds it the pairs it
    /// writes, one by one.
    struct PerPairF2;

    impl<F: PrimeField> Combine<F> for PerPairF2 {
        fn slots(&self) -> usize {
            3
        }

        fn accumulate(&self, m: u64, a: &[F], b: &[F], acc: &mut [F::DotAcc]) {
            Combine::<F>::accumulate(&F2Combine, m, a, b, acc);
        }
    }

    /// F₂'s closed form against the per-pair sum: over tables by hand, and
    /// through every sweep that writes a dense table — a `k`-variable bind
    /// from an array and from a pack, the first fold of an array snapshot,
    /// and every fold of a field-form table after them.
    fn assert_f2_dense_message_is_the_per_pair_sum<F: PrimeField>() {
        let closed = Combine::<F>::dense_message(&F2Combine).expect("F₂ has a closed form");
        let (z, x, top) = (F::ZERO, F::from_u64(7), -F::ONE);
        let tables = [
            vec![],
            vec![z; 8],
            // Lone children on either side, a whole pair, all-zero pairs.
            vec![x, z, z, x, z, z, top, top],
            vec![top; 130],
        ];
        for table in tables {
            let mut acc = accs_for::<F>(3);
            for (pair, m) in table.chunks_exact(2).zip(0u64..) {
                if !(pair[0].is_zero() && pair[1].is_zero()) {
                    PerPairF2.accumulate(m, pair, &[], &mut acc);
                }
            }
            assert_eq!(closed(&table), finish::<F>(acc), "{table:?}");
        }
        // Over [2^10], bound at r_1 = 1/2, whose weights are equal on the two
        // cells of every pair: block 3's cells cancel beside an empty block 2
        // (an all-zero pair of the table a pack still holds a block for),
        // blocks 4 and 7 stand alone in their pairs (a lone low child, a lone
        // high one), blocks 10–13 are six sevenths full, block 20 holds the
        // extremes.
        let bits = 10u32;
        let mut cells = vec![(48, 1), (49, -1), (69, 9), (114, -4), (127, 3)];
        cells.extend(
            (160..224)
                .map(|i| (i, i as i64 % 7 - 3))
                .filter(|c| c.1 != 0),
        );
        cells.extend([(320, i64::MAX), (321, i64::MIN), (335, -1)]);
        let stream: Vec<Update> = cells.iter().map(|&(i, a)| Update::new(i, a)).collect();
        let array = FrequencyVector::from_stream(1 << bits, &stream);
        let tree = FrequencyVector::from_sparse_entries(1 << bits, cells.iter().copied());
        assert!(array.is_dense() && !tree.is_dense());
        let mut rng = StdRng::seed_from_u64(41);
        let half = F::from_u64(2).inverse().expect("2 is invertible");
        let r: Vec<F> = std::iter::once(half)
            .chain((1..bits).map(|_| F::random(&mut rng)))
            .collect();
        let weights = chi_weights(&r[..4]);
        let rest_agree = |mut closed: FoldVector<F>, mut per_pair: FoldVector<F>, r: &[F]| {
            for &rj in r {
                let what = format!("{} variables left", closed.bits());
                assert!(!closed.is_sparse(), "{what}");
                assert_eq!(
                    closed.fold_fused(rj, &F2Combine),
                    per_pair.fold_fused(rj, &PerPairF2),
                    "{what}"
                );
            }
            assert_eq!(closed.scalar(), per_pair.scalar());
        };
        let pack = pack_of(&tree, 4);
        let cells = array.dense_values().expect("an array");
        for source in [BindSource::Packed(&pack), BindSource::Array(cells)] {
            let (closed, by_closed) =
                FoldVector::from_frequency_bound(source, bits, &weights, &F2Combine);
            let (per_pair, by_pairs) =
                FoldVector::from_frequency_bound(source, bits, &weights, &PerPairF2);
            assert_eq!(by_closed, by_pairs, "{source:?}");
            assert_eq!(
                (closed.get(2), closed.get(3), closed.get(5)),
                (z, z, z),
                "{source:?}"
            );
            assert!(
                !closed.get(4).is_zero() && !closed.get(7).is_zero(),
                "{source:?}"
            );
            rest_agree(closed, per_pair, &r[4..]);
        }
        let mut closed = FoldVector::<F>::from_frequency(&array, bits);
        let mut per_pair = FoldVector::<F>::from_frequency(&array, bits);
        assert_eq!(
            closed.fold_fused(r[0], &F2Combine),
            per_pair.fold_fused(r[0], &PerPairF2)
        );
        rest_agree(closed, per_pair, &r[1..]);
    }

    #[test]
    fn f2_dense_message_equals_the_per_pair_sum() {
        assert_f2_dense_message_is_the_per_pair_sum::<Fp61>();
        assert_f2_dense_message_is_the_per_pair_sum::<Fp127>();
    }

    #[test]
    fn a_pack_lays_its_blocks_out_by_count() {
        // Every count 1..=16 in three blocks far apart: the classes sit one
        // after another in increasing count, each in increasing block index,
        // and each block's slot finds its own cells.
        let tree = every_count(12);
        let pack = pack_of(&tree, 4);
        assert_eq!(pack.classes, (0..=16).map(|c| 3 * c).collect::<Vec<_>>());
        let mut cells = 0;
        for c in 1..=16 {
            let class = pack.classes[c - 1]..pack.classes[c];
            let mut in_class: Vec<(u32, u64)> = pack
                .slots
                .iter()
                .zip(&pack.blocks)
                .filter(|(s, _)| class.contains(&(**s as usize)))
                .map(|(&s, &m)| (s, m))
                .collect();
            in_class.sort();
            assert!(in_class.windows(2).all(|w| w[0].1 < w[1].1), "count {c}");
            for (s, m) in in_class {
                let at = cells + c * (s as usize - class.start);
                let held: Vec<(u64, i64)> = (at..at + c)
                    .map(|i| (16 * m + pack.offsets[i] as u64, pack.values[i]))
                    .collect();
                let expect: Vec<(u64, i64)> =
                    tree.nonzero().filter(|&(i, _)| i >> 4 == m).collect();
                assert_eq!(held, expect, "count {c} block {m}");
            }
            cells += c * class.len();
        }
        assert_eq!(cells, pack.values.len());
    }

    #[test]
    fn a_pack_indexes_blocks_as_widely_as_the_table() {
        // Over [2^40] a block index does not fit 32 bits: cells across the
        // whole universe, some sharing a block and some a pair of blocks,
        // bind to what four single binds of the tree leave.
        let bits = 40u32;
        let u = 1u64 << bits;
        let at = [
            0,
            7,
            16,
            33,
            u / 2 - 1,
            u / 2,
            u / 2 + 17,
            u - 31,
            u - 16,
            u - 1,
        ];
        let tree = FrequencyVector::from_sparse_entries(
            u,
            at.iter().zip(1i64..).map(|(&i, a)| (i, a * a - 20)),
        );
        let mut rng = StdRng::seed_from_u64(36);
        let r: Vec<Fp61> = (0..4).map(|_| Fp61::random(&mut rng)).collect();
        let mut stepwise = FoldVector::<Fp61>::from_frequency(&tree, bits);
        let seen_stepwise = Record(RefCell::new(Vec::new()));
        for (k, &rk) in r.iter().enumerate() {
            let last = Record(RefCell::new(Vec::new()));
            stepwise.fold_fused(rk, &last);
            if k == 3 {
                seen_stepwise.0.replace(last.0.into_inner());
            }
        }
        let pack = pack_of(&tree, 4);
        let seen = Record(RefCell::new(Vec::new()));
        let source = BindSource::Packed(&pack);
        let (bound, _) = FoldVector::from_frequency_bound(source, bits, &chi_weights(&r), &seen);
        assert!(bound.is_sparse() && stepwise.is_sparse());
        assert_eq!(pairs_of(&bound), pairs_of(&stepwise));
        assert_eq!(pairs_of(&bound).last().map(|p| p.0), Some((u >> 5) - 1));
        assert_eq!(seen.0.into_inner(), seen_stepwise.0.into_inner());
    }

    #[test]
    fn snapshot_is_shared_until_the_first_fold() {
        // Building a table copies nothing, and data arriving afterwards
        // lands in the live vector, not in the table.
        let mut fv = FrequencyVector::from_stream(16, &[Update::new(3, 5)]);
        let mut table = FoldVector::<Fp61>::from_frequency(&fv, 4);
        assert_eq!(table.stored_len(), 16);
        fv.apply(Update::new(3, 1));
        fv.apply(Update::new(9, 2));
        assert_eq!(table.get(3), Fp61::from_u64(5));
        assert_eq!(table.get(9), Fp61::ZERO);
        table.bind(Fp61::from_u64(2));
        assert_eq!(
            table.stored_len(),
            8,
            "the field-form table starts at half size"
        );
        assert_eq!(table.get(1), Fp61::from_u64(10)); // 0 + 2·(5 − 0)
    }

    #[test]
    fn sparse_densifies_as_it_shrinks() {
        let stream = workloads::uniform(64, 1 << 20, 3, 12);
        let fv = sparse_fv(1 << 20, &stream);
        let mut fold = FoldVector::<Fp61>::from_frequency(&fv, 20);
        assert!(fold.is_sparse());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            fold.bind(Fp61::random(&mut rng));
        }
        assert_eq!(fold.bits(), 0);
        assert!(!fold.is_sparse(), "must densify by the end");
    }

    #[test]
    fn zero_cancellation_in_sparse_fold() {
        // Entries that cancel exactly must be dropped, not stored as zero.
        let fv = sparse_fv(1 << 16, &[Update::new(8, 1), Update::new(9, -1)]);
        let mut fold = FoldVector::<Fp61>::from_frequency(&fv, 16);
        // Bound at r = 1/2: a[8] + (a[9] − a[8])/2 = 1 − 1 = 0.
        fold.bind(Fp61::from_u64(2).inverse().unwrap());
        assert_eq!(fold.get(4), Fp61::ZERO);
        assert!(fold.stored_len() <= 1); // nothing (or a densified table)
    }

    #[test]
    #[should_panic(expected = "nothing left to fold")]
    fn over_folding_panics() {
        let mut fold = FoldVector::from_values(vec![Fp61::ONE, Fp61::ZERO]);
        fold.bind(Fp61::ONE);
        fold.bind(Fp61::ONE);
    }
}

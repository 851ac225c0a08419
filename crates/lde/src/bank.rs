//! The packed multi-point product-weight kernel.
//!
//! Every linear digest in this workspace is `Σ_i a_i · w(i)` with a
//! *product* weight over the base-`ℓ` digits of the index,
//!
//! ```text
//! w(i) = Π_{j<d} row_j[digit_j(i)],
//! ```
//!
//! and only the per-digit row differs between protocols: `χ_k(r_j)` for the
//! LDE of Theorem 1, `(1, r_j)` or `(1−r_j, r_j)` for the Section 4.1 hash
//! tree (equation (8)). A [`WeightBank`] holds the rows of many points in
//! packed form — `c` digit positions fused into one `ℓ^c`-entry product
//! table — and [`WeightBank::sweep`] adds one staged block of updates into
//! every point's sum. [`BlockStage`] is the half of the work that does not
//! depend on the point: the super-digit decomposition of a block's indices
//! and their grouping by last super-digit, done once and shared by every
//! point of every bank swept over it.
//!
//! The grouping is what makes the sweep cheap. With `G` groups a weight is
//! `T_last[h] · Π_{g<G−1} T_g[s_g]`, so a block's contribution factors as
//!
//! ```text
//! Σ_t δ_t · w(i_t) = Σ_h T_last[h] · ( Σ_{t : h_t = h} δ_t · Π_{g<G−1} T_g[s_{g,t}] ):
//! ```
//!
//! the inner sum is accumulated without reduction, and the reduction and
//! the modular product by `T_last[h]` are owed once per nonempty *bucket*
//! `h`, not once per update. Which updates share a bucket depends on the
//! indices alone, so one counting sort per block serves every point.
//!
//! Exactness: a packed weight is `Π_g table_g[s_g]` where each table entry
//! is itself the product of that group's per-digit row values — the same
//! multiset of factors as the unpacked product, reassociated. Field
//! multiplication is exact and associative, so packed and unpacked weights
//! are the **same field element**; factoring `T_last[h]` out of a bucket is
//! distributivity, equally exact. Every digest value stays bit-identical to
//! the per-update path.

use sip_field::lagrange::ChiRows;
use sip_field::PrimeField;

use sip_streaming::Update;

use crate::params::LdeParams;

/// How many updates one staged block holds. Larger blocks put more updates
/// in a bucket (fewer reductions and products per update); 4096 keeps a
/// block's scratch (≈ 0.1 MB at two groups) in L2 beside the points' tables.
pub const STAGE_BLOCK: usize = 4096;

/// Largest packed group table, in entries. Groups of `c` digits are fused
/// into one super-digit with a precomputed `ℓ^c`-entry product table, so a
/// weight evaluation costs `⌈d/c⌉` lookups instead of `d`. 1024 entries
/// (8 KiB per group at 64-bit residues) keeps a realistic point count
/// resident in L2 while cutting the binary-base multiplication count 10×.
const MAX_GROUP_TABLE: usize = 1024;

/// How `d` digit positions are fused into groups.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct PackedLayout {
    /// Digits fused per full group (the last group takes the remainder).
    digits_per_group: u32,
    /// Number of groups: the fewest that keep every table within
    /// [`MAX_GROUP_TABLE`].
    groups: usize,
    /// Entries of a full group's table, `ℓ^c`; group `g`'s table starts at
    /// `g · group_size` within one point's block.
    group_size: usize,
    /// Total table entries per point.
    stride: usize,
    /// Super-digit extraction for full groups.
    kind: PackedKind,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum PackedKind {
    /// `ℓ^c` is a power of two: super-digits are bit fields.
    Pow2 { shift: u32, mask: u64 },
    /// General `ℓ`: quotients by `ℓ^c` via a `⌊2⁶⁴/ℓ^c⌋` reciprocal with a
    /// single branchless fix-up ([`recip_divmod`]).
    General { divisor: u64, recip: u64 },
}

/// The reciprocal `⌊2⁶⁴/divisor⌋` for [`recip_divmod`].
fn reciprocal(divisor: u64) -> u64 {
    ((u128::from(u64::MAX) + 1) / u128::from(divisor)) as u64
}

/// Divides by `divisor` without a hardware division: returns
/// `(i / divisor, i % divisor)` given `recip = ⌊2⁶⁴/divisor⌋`.
#[inline]
fn recip_divmod(divisor: u64, recip: u64, i: u64) -> (u64, u64) {
    // With recip = ⌊2⁶⁴/m⌋ = (2⁶⁴ − e)/m (0 ≤ e < m):
    // q = ⌊i·recip/2⁶⁴⌋ = ⌊(i − i·e/2⁶⁴)/m⌋ and i·e/2⁶⁴ < m, so q
    // underestimates ⌊i/m⌋ by at most 1 — one branchless fix-up.
    let q = ((u128::from(i) * u128::from(recip)) >> 64) as u64;
    let r = i - q * divisor;
    let fix = u64::from(r >= divisor);
    (q + fix, r - fix * divisor)
}

impl PackedLayout {
    fn new(params: LdeParams) -> Self {
        let ell = params.base();
        let d = params.dimension();
        // Largest c with ℓ^c ≤ MAX_GROUP_TABLE (at least 1) fixes the group
        // count; the digits are then spread evenly over that many groups,
        // which costs the same lookups from smaller tables (d = 18 binary:
        // 2^9 + 2^9 entries, not 2^10 + 2^8).
        let mut c = 1u32;
        let mut size = ell;
        while c < d && (size as u128 * ell as u128) <= MAX_GROUP_TABLE as u128 {
            size *= ell;
            c += 1;
        }
        let groups = d.div_ceil(c);
        let c = d.div_ceil(groups);
        let divisor = ell.pow(c);
        let last_digits = d - c * (groups - 1);
        let group_size = divisor as usize;
        let kind = if divisor.is_power_of_two() {
            PackedKind::Pow2 {
                shift: divisor.trailing_zeros(),
                mask: divisor - 1,
            }
        } else {
            PackedKind::General {
                divisor,
                recip: reciprocal(divisor),
            }
        };
        PackedLayout {
            digits_per_group: c,
            groups: groups as usize,
            group_size,
            stride: group_size * (groups as usize - 1) + (ell as usize).pow(last_digits),
            kind,
        }
    }

    /// [`Self::new`] for table offsets stored as `u32`: panics at `2^32`
    /// words a point, a shape snapshot decoders refuse first (`sip-durable`'s
    /// `MAX_CHI_TABLE_WORDS` bounds [`packed_table_words`]).
    fn addressable(params: LdeParams) -> Self {
        let layout = Self::new(params);
        assert!(
            u32::try_from(layout.stride).is_ok(),
            "packed tables of {} words per point",
            layout.stride
        );
        layout
    }

    /// Table offset of the last group's first entry within a point's block.
    fn last_base(&self) -> usize {
        self.group_size * (self.groups - 1)
    }

    /// Writes the super-digits of `i` into `out`, as ready-to-use table
    /// offsets (group table offset already added).
    #[inline]
    fn super_digits_into(&self, i: u64, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.groups);
        let mut rem = i;
        let mut offset = 0u32;
        let (last, full) = out.split_last_mut().expect("at least one group");
        match self.kind {
            PackedKind::Pow2 { shift, mask } => {
                for slot in full {
                    *slot = offset + (rem & mask) as u32;
                    rem >>= shift;
                    offset += self.group_size as u32;
                }
            }
            PackedKind::General { divisor, recip } => {
                for slot in full {
                    let (q, r) = recip_divmod(divisor, recip, rem);
                    *slot = offset + r as u32;
                    rem = q;
                    offset += self.group_size as u32;
                }
            }
        }
        *last = offset + rem as u32;
    }

    /// `Π_g table[s_g]` over the super-digits `s_g` of `i` (as
    /// [`Self::super_digits_into`] writes them), each entry multiplied in
    /// as its digit is extracted — no row of offsets is written.
    #[inline]
    fn product_of_digits<F: PrimeField>(&self, table: &[F], i: u64) -> F {
        let full = self.groups - 1;
        let size = self.group_size;
        match self.kind {
            PackedKind::Pow2 { shift, mask } => {
                // The last super-digit is the bits above the full groups',
                // so the product can start from its entry.
                let mut w = table[self.last_base() + (i >> (shift * full as u32)) as usize];
                let mut rem = i;
                for g in 0..full {
                    w *= table[g * size + (rem & mask) as usize];
                    rem >>= shift;
                }
                w
            }
            PackedKind::General { divisor, recip } => {
                let (mut rem, mut w) = (i, None);
                for g in 0..full {
                    let (q, r) = recip_divmod(divisor, recip, rem);
                    let t = table[g * size + r as usize];
                    w = Some(w.map_or(t, |w: F| w * t));
                    rem = q;
                }
                let t = table[full * size + rem as usize];
                w.map_or(t, |w| w * t)
            }
        }
    }
}

/// The packed-table words **one** [`WeightBank`] point costs for `params`
/// — the derived state a restore must rebuild. Exposed so snapshot decoders
/// (`sip-durable`) can bound reconstruction cost before allocating anything
/// a forged point count would size.
pub fn packed_table_words(params: LdeParams) -> usize {
    PackedLayout::new(params).stride
}

/// Two or more updates of a staged block that share a last super-digit.
#[derive(Copy, Clone, Debug)]
struct Bucket {
    /// Table offset of the last-group entry every update of the bucket
    /// carries.
    last: u32,
    /// One past the bucket's final update in staged order; it starts where
    /// the previous bucket ends.
    end: u32,
}

/// One staged block: up to [`STAGE_BLOCK`] indices decomposed into
/// super-digits and counting-sorted by the last one, as table offsets every
/// bank over the same parameterisation can walk.
///
/// Staged order is the buckets — the updates sharing a last super-digit
/// with another — one after the other, then the updates that share theirs
/// with none. Whatever travels with an index (its delta in each digest
/// family) must be laid out in that order: [`Self::column`] builds such a
/// column from the arrival positions.
#[derive(Clone, Debug)]
pub struct BlockStage {
    params: LdeParams,
    layout: PackedLayout,
    /// Arrival order: the `G` offsets of each update — what the counting
    /// sort scatters.
    arrival: Vec<u32>,
    /// Per last super-digit: a count, then a write cursor. Nonzero only for
    /// the digits in `touched`, which is how the next `stage` clears it
    /// without reaching the counters a small block never used.
    cursor: Vec<u32>,
    /// The last super-digits the block uses, in order of first arrival.
    touched: Vec<u32>,
    /// The buckets, in staged order.
    buckets: Vec<Bucket>,
    /// Staged position → arrival position.
    order: Vec<u32>,
    /// Staged order: the first `G − 1` offsets of every update (the sweep
    /// reads the bucketed ones).
    rest: Vec<u32>,
    /// The lone updates in staged order: all `G` offsets of each.
    lone: Vec<u32>,
}

impl BlockStage {
    /// An empty stage for indices over `params`.
    ///
    /// # Panics
    /// Panics if one point's packed tables would exceed `2^32` words.
    pub fn new(params: LdeParams) -> Self {
        let layout = PackedLayout::addressable(params);
        BlockStage {
            params,
            layout,
            arrival: Vec::new(),
            cursor: vec![0; layout.stride - layout.last_base()],
            touched: Vec::new(),
            buckets: Vec::new(),
            order: Vec::new(),
            rest: Vec::new(),
            lone: Vec::new(),
        }
    }

    /// Number of indices currently staged.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Replaces the staged block with the decomposition of `indices`.
    ///
    /// # Panics
    /// Panics if more than [`STAGE_BLOCK`] indices are given, or an index
    /// lies outside the universe — the stage is then left empty.
    pub fn stage(&mut self, indices: impl ExactSizeIterator<Item = u64>) {
        let n = indices.len();
        assert!(n <= STAGE_BLOCK, "a block holds {STAGE_BLOCK} updates");
        let layout = self.layout;
        let groups = layout.groups;
        let per = groups - 1;
        let last_base = layout.last_base() as u32;
        let cursor = &mut self.cursor[..];
        for &h in &self.touched {
            cursor[h as usize] = 0;
        }
        self.order.clear();
        self.buckets.clear();
        self.lone.clear();

        // Decompose, and count per last super-digit. The loops over updates
        // are kept free of data-dependent branches: a digit's first arrival
        // is appended by writing one slot past the list's end and moving
        // the end only then. (A panic leaves `touched` a superset of the
        // digits counted, which is all the clearing above needs.)
        let universe = self.params.universe();
        self.arrival.clear();
        self.arrival.resize(n * groups, 0);
        self.touched.clear();
        self.touched.resize(n + 1, 0);
        let touched = &mut self.touched[..];
        let mut distinct = 0usize;
        for (i, row) in indices.zip(self.arrival.chunks_exact_mut(groups)) {
            assert!(i < universe, "index {i} outside universe {universe}");
            layout.super_digits_into(i, row);
            let h = row[per] - last_base;
            let count = &mut cursor[h as usize];
            touched[distinct] = h;
            distinct += usize::from(*count == 0);
            *count += 1;
        }
        self.touched.truncate(distinct);

        // Counts become first staged positions: buckets from the front,
        // lone updates from the back.
        let (mut front, mut back) = (0u32, n as u32);
        for &h in &self.touched {
            let cursor = &mut cursor[h as usize];
            if *cursor == 1 {
                back -= 1;
                *cursor = back;
            } else {
                let start = front;
                front += *cursor;
                *cursor = start;
                self.buckets.push(Bucket {
                    last: last_base + h,
                    end: front,
                });
            }
        }
        debug_assert_eq!(front, back);

        // Scatter into staged order.
        self.order.resize(n, 0);
        self.rest.clear();
        self.rest.resize(n * per, 0);
        let (order, rest) = (&mut self.order[..], &mut self.rest[..]);
        for (t, row) in self.arrival.chunks_exact(groups).enumerate() {
            let cursor = &mut cursor[(row[per] - last_base) as usize];
            let at = *cursor as usize;
            *cursor += 1;
            order[at] = t as u32;
            // (Element by element, here and below: a `copy_from_slice` of so
            // few words is a `memcpy` call each.)
            for (slot, &s) in rest[at * per..(at + 1) * per].iter_mut().zip(row) {
                *slot = s;
            }
        }
        let lone_order = &order[front as usize..];
        self.lone.resize(lone_order.len() * groups, 0);
        for (row, &t) in self.lone.chunks_exact_mut(groups).zip(lone_order) {
            let from = &self.arrival[t as usize * groups..][..groups];
            for (slot, &s) in row.iter_mut().zip(from) {
                *slot = s;
            }
        }
    }

    /// How many of the staged updates sit in buckets; the rest are lone.
    fn bucketed(&self) -> usize {
        self.buckets.last().map_or(0, |b| b.end as usize)
    }

    /// Fills `out` with one value per staged update, in staged order:
    /// `value_of(t)` is what the `t`-th index handed to [`Self::stage`]
    /// carries.
    pub fn column<T>(&self, out: &mut Vec<T>, mut value_of: impl FnMut(usize) -> T) {
        out.clear();
        out.extend(self.order.iter().map(|&t| value_of(t as usize)));
    }
}

/// Packed product-weight tables for a growable list of points, generic over
/// the per-digit row.
///
/// The bank is *derived* state: it is a function of `(params, rows)` alone,
/// holds no accumulator, and is never serialised — owners keep the points
/// and running values (the `d + 1` protocol words per digest) and rebuild
/// the bank from them.
#[derive(Clone, Debug)]
pub struct WeightBank<F: PrimeField> {
    params: LdeParams,
    /// `ℓ^d`, kept for the per-index bound check.
    universe: u64,
    layout: PackedLayout,
    /// The `ℓ`-only half of the χ rows, inverted once per bank.
    chi: ChiRows<F>,
    /// Scratch for one per-digit row.
    row: Vec<F>,
    /// Point `p`'s packed group tables at `[p·stride, (p+1)·stride)`.
    tables: Vec<F>,
}

impl<F: PrimeField> WeightBank<F> {
    /// An empty bank over `params`, with room for `points` points.
    ///
    /// # Panics
    /// Panics if one point's tables would reach `2^32` words.
    pub fn with_capacity(params: LdeParams, points: usize) -> Self {
        let layout = PackedLayout::addressable(params);
        WeightBank {
            params,
            universe: params.universe(),
            layout,
            chi: ChiRows::new(params.base()),
            row: vec![F::ZERO; params.base() as usize],
            tables: Vec::with_capacity(points * layout.stride),
        }
    }

    /// A bank holding the one LDE point `r` — what a single-point digest
    /// builds at its first own weight evaluation.
    ///
    /// # Panics
    /// Panics if `r.len() != d`.
    pub fn lde_point(params: LdeParams, r: &[F]) -> Self {
        let mut bank = Self::with_capacity(params, 1);
        bank.push_lde_point(r);
        bank
    }

    /// The parameterisation.
    pub fn params(&self) -> LdeParams {
        self.params
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.tables.len() / self.layout.stride
    }

    /// `w_p(i)`, the weight index `i` carries at point `p`: the super-digits
    /// of `i` and one table lookup per packed group, `⌈d/c⌉` in all. The
    /// same field element the digit-by-digit product gives (see the module
    /// doc).
    ///
    /// # Panics
    /// Panics if `i` lies outside the universe or `p` is not a point.
    #[inline]
    pub fn weight(&self, p: usize, i: u64) -> F {
        // Past `ℓ^d` the last super-digit would read another table. No peer
        // picks `i`: `ShardPlan::shard_of` and the kv `put` check it first,
        // and §6.2 removes only verified heavy hitters.
        assert!(
            i < self.universe,
            "index {i} outside universe {}",
            self.universe
        );
        let stride = self.layout.stride;
        let table = &self.tables[p * stride..(p + 1) * stride];
        self.layout.product_of_digits(table, i)
    }

    /// `Σ_t δ_t · w_p(i_t)` over `batch`, one [`Self::weight`] per update
    /// and one modular reduction per accumulator flush — bit-identical to
    /// summing the reduced products one by one (exact field arithmetic).
    ///
    /// # Panics
    /// Panics as [`Self::weight`] does.
    pub fn weighted_sum(&self, p: usize, batch: &[Update]) -> F {
        let mut acc = F::DotAcc::default();
        for up in batch {
            F::acc_add_prod(&mut acc, F::from_i64(up.delta), self.weight(p, up.index));
        }
        F::acc_finish(acc)
    }

    /// Table words held across all points.
    pub fn table_words(&self) -> usize {
        self.tables.len()
    }

    /// Appends a point whose weight is `Π_j row_j[digit_j(i)]`: `row_of(j,
    /// row)` writes the `ℓ` values of digit position `j` into `row`.
    ///
    /// Each group's table is the outer product of its digits' rows (entry
    /// `s = Σ_t v_t·ℓ^t` holds `Π_t row_{j0+t}[v_t]`), grown in place one
    /// digit at a time: one multiplication per entry written, none where
    /// the row value is `1` or the row is a binary one summing to `1`.
    pub fn push_point(&mut self, row_of: impl FnMut(usize, &mut [F])) {
        Self::grow(
            self.params,
            self.layout,
            &mut self.row,
            &mut self.tables,
            row_of,
        );
    }

    /// Appends the LDE point `r`: digit position `j` carries the row
    /// `χ_k(r_j)` (Theorem 1).
    ///
    /// # Panics
    /// Panics if `r.len() != d`.
    pub fn push_lde_point(&mut self, r: &[F]) {
        let d = self.params.dimension() as usize;
        assert_eq!(r.len(), d, "evaluation point must have d = {d} coordinates");
        let chi = &self.chi;
        Self::grow(
            self.params,
            self.layout,
            &mut self.row,
            &mut self.tables,
            |j, row| chi.fill(r[j], row),
        );
    }

    /// Appends one point's block to `tables`, group by group.
    fn grow(
        params: LdeParams,
        layout: PackedLayout,
        row: &mut [F],
        tables: &mut Vec<F>,
        mut row_of: impl FnMut(usize, &mut [F]),
    ) {
        let l = params.base() as usize;
        let d = params.dimension() as usize;
        let base = tables.len();
        tables.resize(base + layout.stride, F::ZERO);
        let mut block = &mut tables[base..];
        let mut j = 0usize;
        while j < d {
            let digits = (layout.digits_per_group as usize).min(d - j);
            let (table, rest) = block.split_at_mut(l.pow(digits as u32));
            block = rest;
            table[0] = F::ONE;
            let mut filled = 1usize;
            for _ in 0..digits {
                row_of(j, row);
                j += 1;
                let (lo, hi) = table.split_at_mut(filled);
                for (&cv, chunk) in row[1..].iter().zip(hi.chunks_exact_mut(filled)) {
                    for (out, &tm) in chunk.iter_mut().zip(lo.iter()) {
                        *out = tm * cv;
                    }
                }
                let c0 = row[0];
                if l == 2 && c0 + row[1] == F::ONE {
                    // A binary row that sums to one (every χ row does):
                    // tm·(1−x) = tm − tm·x, a subtraction per entry.
                    for (tm, &up) in lo.iter_mut().zip(hi.iter()) {
                        *tm -= up;
                    }
                } else if c0 != F::ONE {
                    for tm in lo {
                        *tm *= c0;
                    }
                }
                filled *= l;
            }
        }
    }

    /// Drops every point after the first `points` — `O(1)`, which is what
    /// lets an owner that consumes digests from the back keep its bank in
    /// step.
    pub fn truncate(&mut self, points: usize) {
        self.tables.truncate(points * self.layout.stride);
    }

    /// Adds the staged block into every point's sum:
    /// `sums[p] += Σ_t deltas[t] · w_p(index_t)`, `deltas` being a column in
    /// staged order ([`BlockStage::column`]).
    ///
    /// Per point and per bucket `h` the updates' first `G − 1` table entries
    /// are multiplied out and accumulated against their deltas without
    /// reduction (over a one-group universe that inner sum is `Σ δ_t`), and
    /// the bucket pays one reduction and one delayed-reduction multiply-add
    /// by `T_last[h]`. A lone update has nothing to share and takes the
    /// plain product of its `G` entries.
    ///
    /// # Panics
    /// Panics if the stage was built for another parameterisation, or the
    /// delta or sum counts disagree with the block or the bank.
    pub fn sweep(&self, stage: &BlockStage, deltas: &[F], sums: &mut [F]) {
        assert_eq!(stage.params, self.params, "block staged for another shape");
        assert_eq!(deltas.len(), stage.len(), "one delta per staged index");
        assert_eq!(sums.len(), self.num_points(), "one sum per point");
        let groups = self.layout.groups;
        let per = groups - 1;
        let (bucketed, lone) = deltas.split_at(stage.bucketed());
        for (table, sum) in self.tables.chunks_exact(self.layout.stride).zip(sums) {
            let mut acc = F::DotAcc::default();
            let mut start = 0usize;
            for b in &stage.buckets {
                let end = b.end as usize;
                let deltas = &bucketed[start..end];
                let rest = &stage.rest[start * per..end * per];
                let inner = match per {
                    0 => deltas.iter().copied().sum(),
                    1 => F::dot_gather(deltas, table, rest),
                    _ => {
                        let mut inner = F::DotAcc::default();
                        for (&delta, slots) in deltas.iter().zip(rest.chunks_exact(per)) {
                            F::acc_add_prod(&mut inner, delta, product(table, slots));
                        }
                        F::acc_finish(inner)
                    }
                };
                F::acc_add_prod(&mut acc, inner, table[b.last as usize]);
                start = end;
            }
            for (&delta, slots) in lone.iter().zip(stage.lone.chunks_exact(groups)) {
                F::acc_add_prod(&mut acc, delta, product(table, slots));
            }
            *sum += F::acc_finish(acc);
        }
    }
}

/// `Π_s table[s]` over a nonempty row of offsets.
#[inline]
fn product<F: PrimeField>(table: &[F], slots: &[u32]) -> F {
    let mut w = table[slots[0] as usize];
    for &s in &slots[1..] {
        w *= table[s as usize];
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_field::Fp61;

    #[test]
    fn layout_spreads_digits_evenly_over_the_fewest_groups() {
        // (ℓ, d) → (groups, words per point).
        for &(ell, d, groups, words) in &[
            (2u64, 1u32, 1usize, 2usize),
            (2, 10, 1, 1024),
            (2, 11, 2, 64 + 32),
            (2, 18, 2, 512 + 512),
            (2, 20, 2, 1024 + 1024),
            (2, 22, 3, 256 + 256 + 64),
            (3, 7, 2, 81 + 27),
            (16, 3, 2, 256 + 16),
            (1000, 3, 3, 3000),
        ] {
            let layout = PackedLayout::new(LdeParams::new(ell, d));
            assert_eq!(layout.groups, groups, "ell={ell} d={d}");
            assert_eq!(layout.stride, words, "ell={ell} d={d}");
            assert!(layout.group_size <= MAX_GROUP_TABLE.max(ell as usize));
        }
    }

    #[test]
    fn packed_weight_is_the_digit_product() {
        // Rows with a recognisable value per (position, digit): the packed
        // weight must be the plain product over the digits, for one group,
        // an exact group boundary and a remainder group, in both
        // super-digit modes.
        for &(ell, d) in &[(2u64, 6u32), (2, 10), (2, 11), (4, 7), (3, 7), (10, 4)] {
            let params = LdeParams::new(ell, d);
            let value = |j: usize, k: usize| Fp61::from_u64((j * 131 + k * 7 + 2) as u64);
            let mut bank = WeightBank::<Fp61>::with_capacity(params, 2);
            // A first point of ones, so the second sits at a nonzero offset.
            bank.push_point(|_, row| row.fill(Fp61::ONE));
            bank.push_point(|j, row| {
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot = value(j, k);
                }
            });
            assert_eq!(bank.num_points(), 2);
            assert_eq!(bank.table_words(), 2 * packed_table_words(params));
            let u = params.universe();
            let indices: Vec<u64> = (0..200u64)
                .map(|t| match t {
                    0 => 0,
                    1 => u - 1,
                    t => t.wrapping_mul(0x9e37_79b9_7f4a_7c15) % u,
                })
                .collect();
            let mut stage = BlockStage::new(params);
            stage.stage(indices.iter().copied());
            assert_eq!(stage.len(), indices.len());
            for (t, &i) in indices.iter().enumerate() {
                // One-hot deltas read a single weight back out.
                let mut deltas = Vec::new();
                stage.column(&mut deltas, |at| Fp61::from_u64((at == t) as u64));
                let mut sums = [Fp61::ZERO; 2];
                bank.sweep(&stage, &deltas, &mut sums);
                let expect = params
                    .digits_of(i)
                    .enumerate()
                    .map(|(j, k)| value(j, k as usize))
                    .fold(Fp61::ONE, |a, b| a * b);
                assert_eq!(sums[1], expect, "ell={ell} d={d} i={i}");
                assert_eq!(sums[0], Fp61::ONE);
            }
            bank.truncate(1);
            assert_eq!(bank.num_points(), 1);
        }
    }

    #[test]
    fn staged_order_is_buckets_then_lone_updates() {
        // One stage across blocks of very different shape: each must come
        // out as a permutation of its arrivals, buckets first (two or more
        // updates each, all of one last super-digit, no digit twice), then
        // updates whose last super-digit nothing else in the block has.
        let params = LdeParams::binary(12); // 2^6 + 2^6
        let mut stage = BlockStage::new(params);
        let blocks: [Vec<u64>; 6] = [
            (0..STAGE_BLOCK as u64)
                .map(|t| t.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52)
                .collect(),
            vec![],
            vec![4095],
            (0..64).map(|t| t * 64 + t).collect(), // every update lone
            vec![7; 40],                           // one bucket, one index
            vec![70, 3, 64 + 3, 4000, 65, 2 * 64 + 3, 4001, 9],
        ];
        for indices in &blocks {
            stage.stage(indices.iter().copied());
            assert_eq!(stage.len(), indices.len());
            let mut seen = vec![false; indices.len()];
            for &t in &stage.order {
                assert!(!std::mem::replace(&mut seen[t as usize], true));
            }
            let last_of = |at: usize| indices[stage.order[at] as usize] >> 6;
            let mut digits = std::collections::BTreeSet::new();
            let mut start = 0usize;
            for b in &stage.buckets {
                let end = b.end as usize;
                assert!(end - start >= 2);
                assert!(digits.insert(last_of(start)));
                for at in start..end {
                    assert_eq!(last_of(at), last_of(start));
                    assert_eq!(u64::from(b.last), 64 + last_of(at));
                    let low = indices[stage.order[at] as usize] & 63;
                    assert_eq!(u64::from(stage.rest[at]), low);
                }
                start = end;
            }
            assert_eq!(start, stage.bucketed());
            for (at, row) in (start..indices.len()).zip(stage.lone.chunks_exact(2)) {
                assert!(digits.insert(last_of(at)));
                let i = indices[stage.order[at] as usize];
                assert_eq!(row, [(i & 63) as u32, 64 + (i >> 6) as u32]);
            }
            assert_eq!(stage.lone.len(), 2 * (indices.len() - start));
        }
        // The final block: last super-digits 1, 0, 1, 62, 1, 2, 62, 0.
        assert_eq!((stage.buckets.len(), stage.lone.len() / 2), (3, 1));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn staging_refuses_an_out_of_universe_index() {
        BlockStage::new(LdeParams::binary(6)).stage([64u64].into_iter());
    }

    #[test]
    #[should_panic(expected = "another shape")]
    fn sweeping_refuses_a_tile_staged_for_another_shape() {
        let bank = WeightBank::<Fp61>::with_capacity(LdeParams::binary(6), 0);
        let stage = BlockStage::new(LdeParams::binary(7));
        bank.sweep(&stage, &[], &mut []);
    }
}

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
//! table — and [`WeightBank::sweep`] adds one staged tile of updates into
//! every point's accumulator. [`TileStage`] is the half of the work that
//! does not depend on the point: the super-digit decomposition of a tile's
//! indices, done once and shared by every point of every bank swept over
//! it.
//!
//! Exactness: a packed weight is `Π_g table_g[s_g]` where each table entry
//! is itself the product of that group's per-digit row values — the same
//! multiset of factors as the unpacked product, reassociated. Field
//! multiplication is exact and associative, so packed and unpacked weights
//! are the **same field element**, and every digest value stays
//! bit-identical to the per-update path.

use sip_field::lagrange::ChiRows;
use sip_field::PrimeField;

use crate::params::{self, DigitPlan, LdeParams};

/// How many updates one tile holds: super-digits for a tile are staged
/// once, then every point's accumulator walks the staged tile — the
/// decomposition is paid once per update instead of once per
/// (update × point).
pub const BATCH_TILE: usize = 256;

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
    /// single branchless fix-up (same bound as [`DigitPlan`]).
    General { divisor: u64, recip: u64 },
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
                recip: DigitPlan::reciprocal(divisor),
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

    /// Writes the super-digits of `i` into `out`, as ready-to-use table
    /// offsets (group table offset already added).
    #[inline]
    fn super_digits_into(&self, i: u64, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.groups);
        let mut rem = i;
        let mut offset = 0usize;
        let (last, full) = out.split_last_mut().expect("at least one group");
        match self.kind {
            PackedKind::Pow2 { shift, mask } => {
                for slot in full {
                    *slot = offset + (rem & mask) as usize;
                    rem >>= shift;
                    offset += self.group_size;
                }
            }
            PackedKind::General { divisor, recip } => {
                for slot in full {
                    let (q, r) = params::recip_divmod(divisor, recip, rem);
                    *slot = offset + r as usize;
                    rem = q;
                    offset += self.group_size;
                }
            }
        }
        *last = offset + rem as usize;
    }
}

/// The packed-table words **one** [`WeightBank`] point costs for `params`
/// — the derived state a restore must rebuild. Exposed so snapshot decoders
/// (`sip-durable`) can bound reconstruction cost before allocating anything
/// a forged point count would size.
pub fn packed_table_words(params: LdeParams) -> usize {
    PackedLayout::new(params).stride
}

/// One staged tile: the super-digits of up to [`BATCH_TILE`] indices, as
/// table offsets every bank over the same parameterisation can walk.
#[derive(Clone, Debug)]
pub struct TileStage {
    params: LdeParams,
    layout: PackedLayout,
    /// Update `t`'s offsets at `[t·groups, (t+1)·groups)`.
    digits: Vec<usize>,
}

impl TileStage {
    /// An empty stage for indices over `params`.
    pub fn new(params: LdeParams) -> Self {
        TileStage {
            params,
            layout: PackedLayout::new(params),
            digits: Vec::new(),
        }
    }

    /// Number of indices currently staged.
    pub fn len(&self) -> usize {
        self.digits.len() / self.layout.groups
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Replaces the staged tile with the decomposition of `indices`.
    ///
    /// # Panics
    /// Panics if an index lies outside the universe or more than
    /// [`BATCH_TILE`] indices are given.
    pub fn stage(&mut self, indices: impl ExactSizeIterator<Item = u64>) {
        let groups = self.layout.groups;
        assert!(
            indices.len() <= BATCH_TILE,
            "a tile holds {BATCH_TILE} updates"
        );
        self.digits.clear();
        self.digits.resize(indices.len() * groups, 0);
        let universe = self.params.universe();
        for (i, slots) in indices.zip(self.digits.chunks_exact_mut(groups)) {
            assert!(i < universe, "index {i} outside universe {universe}");
            self.layout.super_digits_into(i, slots);
        }
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
    pub fn with_capacity(params: LdeParams, points: usize) -> Self {
        let layout = PackedLayout::new(params);
        WeightBank {
            params,
            layout,
            chi: ChiRows::new(params.base()),
            row: vec![F::ZERO; params.base() as usize],
            tables: Vec::with_capacity(points * layout.stride),
        }
    }

    /// The parameterisation.
    pub fn params(&self) -> LdeParams {
        self.params
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.tables.len() / self.layout.stride
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

    /// Adds the staged tile into every point's accumulator:
    /// `accs[p] += Σ_t deltas[t] · w_p(index_t)`, one lookup per group and
    /// one delayed-reduction multiply-add per (update × point).
    ///
    /// # Panics
    /// Panics if the stage was built for another parameterisation, or the
    /// delta or accumulator counts disagree with the tile or the bank.
    pub fn sweep(&self, stage: &TileStage, deltas: &[F], accs: &mut [F::DotAcc]) {
        assert_eq!(stage.params, self.params, "tile staged for another shape");
        assert_eq!(deltas.len(), stage.len(), "one delta per staged index");
        assert_eq!(accs.len(), self.num_points(), "one accumulator per point");
        let groups = self.layout.groups;
        for (table, acc) in self
            .tables
            .chunks_exact(self.layout.stride)
            .zip(accs.iter_mut())
        {
            for (slots, &delta) in stage.digits.chunks_exact(groups).zip(deltas) {
                let mut w = table[slots[0]];
                for &s in &slots[1..] {
                    w *= table[s];
                }
                F::acc_add_prod(acc, delta, w);
            }
        }
    }
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
            let mut stage = TileStage::new(params);
            stage.stage(indices.iter().copied());
            assert_eq!(stage.len(), indices.len());
            for (t, &i) in indices.iter().enumerate() {
                // One-hot deltas read a single weight back out.
                let mut deltas = vec![Fp61::ZERO; indices.len()];
                deltas[t] = Fp61::ONE;
                let mut accs = vec![<Fp61 as PrimeField>::DotAcc::default(); 2];
                bank.sweep(&stage, &deltas, &mut accs);
                let expect = params
                    .digits_of(i)
                    .enumerate()
                    .map(|(j, k)| value(j, k as usize))
                    .fold(Fp61::ONE, |a, b| a * b);
                assert_eq!(Fp61::acc_finish(accs[1]), expect, "ell={ell} d={d} i={i}");
                assert_eq!(Fp61::acc_finish(accs[0]), Fp61::ONE);
            }
            bank.truncate(1);
            assert_eq!(bank.num_points(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn staging_refuses_an_out_of_universe_index() {
        TileStage::new(LdeParams::binary(6)).stage([64u64].into_iter());
    }

    #[test]
    #[should_panic(expected = "another shape")]
    fn sweeping_refuses_a_tile_staged_for_another_shape() {
        let bank = WeightBank::<Fp61>::with_capacity(LdeParams::binary(6), 0);
        let stage = TileStage::new(LdeParams::binary(7));
        bank.sweep(&stage, &[], &mut []);
    }
}

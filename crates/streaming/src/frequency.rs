//! Materialised frequency vectors: the honest prover's state and the test
//! suite's ground-truth oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::update::Update;

/// Threshold (in universe size) below which [`FrequencyVector::new`] picks a
/// dense representation. Public so checkpoint decoders can refuse a dense
/// snapshot claiming a universe this implementation would never hold
/// densely.
pub const DENSE_LIMIT: u64 = 1 << 22;

/// A sparse vector promotes itself to dense once its support reaches
/// `u / PROMOTE_DIVISOR` (for `u ≤ DENSE_LIMIT`): at that density the
/// `BTreeMap` already holds more bytes than the dense array would, and
/// every further update is a tree walk instead of an indexed add. Memory
/// stays `O(min(u, PROMOTE_DIVISOR · support))`, so a peer-chosen `log_u`
/// still cannot reserve memory it never filled. A caller that counts the
/// updates it fed the vector — a bound on the support from above — may
/// promote at the same ratio of that count
/// ([`FrequencyVector::promote_if_received`]).
const PROMOTE_DIVISOR: u64 = 8;

/// The frequency vector `a ∈ Z^u` defined by a stream of updates.
///
/// Dense (a `Vec<i64>`) for small universes, sparse (a `BTreeMap`) for large
/// ones; all queries behave identically. This is what the paper's prover
/// keeps ("the prover has to retain the input vector a, which can be done
/// efficiently in space O(min(u, n))").
///
/// [`Clone`] is `O(1)`: clones share the representation and the first
/// [`Self::apply`]/[`Self::apply_batch`] on a shared vector copies it
/// (copy-on-write). A clone is therefore a cheap immutable *snapshot* —
/// what a prover takes at query start so later ingest cannot move the data
/// under an in-flight proof.
#[derive(Clone, Debug)]
pub struct FrequencyVector {
    u: u64,
    repr: Arc<Repr>,
}

#[derive(Clone, Debug)]
enum Repr {
    Dense(Vec<i64>),
    Sparse(BTreeMap<u64, i64>),
}

/// A batch refused by [`FrequencyVector::try_apply_batch`]: one of its
/// updates would have carried a cell past the `i64` range, so none of them
/// was applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellOverflow {
    /// The cell that would have overflowed.
    pub index: u64,
}

impl std::fmt::Display for CellOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the batch would overflow the frequency of cell {}; nothing was applied",
            self.index
        )
    }
}

impl std::error::Error for CellOverflow {}

/// A borrowed view of a [`FrequencyVector`]'s representation.
#[derive(Clone, Copy, Debug)]
pub enum Entries<'a> {
    /// Every frequency `a_0, …, a_{u−1}`.
    Dense(&'a [i64]),
    /// The nonzero frequencies by index.
    Sparse(&'a BTreeMap<u64, i64>),
}

impl FrequencyVector {
    /// An all-zero vector over universe `[u]`; dense below a size threshold.
    pub fn new(u: u64) -> Self {
        if u <= DENSE_LIMIT {
            Self::from_repr(u, Repr::Dense(vec![0; u as usize]))
        } else {
            Self::new_sparse(u)
        }
    }

    /// Starts with a sparse representation regardless of universe size, so
    /// an untrusted peer's `u` reserves no memory up front. If the support
    /// later grows past the promotion threshold (and `u` is small enough
    /// for a dense array), the vector promotes itself — memory then tracks
    /// data actually ingested, never the declared universe.
    pub fn new_sparse(u: u64) -> Self {
        Self::from_repr(u, Repr::Sparse(BTreeMap::new()))
    }

    fn from_repr(u: u64, repr: Repr) -> Self {
        FrequencyVector {
            u,
            repr: Arc::new(repr),
        }
    }

    /// Builds the vector from a stream.
    pub fn from_stream(u: u64, stream: &[Update]) -> Self {
        let mut fv = Self::new(u);
        fv.apply_batch(stream);
        fv
    }

    /// Whether the current representation is the dense array (checkpoint
    /// metadata: snapshots record the representation so a restored vector
    /// behaves — promotes, allocates — exactly like the original).
    pub fn is_dense(&self) -> bool {
        matches!(*self.repr, Repr::Dense(_))
    }

    /// The dense backing array, when the representation is dense.
    pub fn dense_values(&self) -> Option<&[i64]> {
        match &*self.repr {
            Repr::Dense(v) => Some(v),
            Repr::Sparse(_) => None,
        }
    }

    /// The representation itself, so a prover can walk the snapshot in
    /// place — dense array or sorted nonzero entries — instead of copying
    /// it into field form first.
    pub fn entries(&self) -> Entries<'_> {
        match &*self.repr {
            Repr::Dense(v) => Entries::Dense(v),
            Repr::Sparse(m) => Entries::Sparse(m),
        }
    }

    /// Rebuilds a *dense* vector from checkpointed state.
    ///
    /// # Panics
    /// Panics if `values.len() != u`.
    pub fn from_dense(u: u64, values: Vec<i64>) -> Self {
        assert_eq!(values.len() as u64, u, "dense array must cover [0, u)");
        Self::from_repr(u, Repr::Dense(values))
    }

    /// Rebuilds a *sparse* vector from checkpointed nonzero entries,
    /// verbatim — no promotion check runs, so the restored representation
    /// matches the snapshot exactly.
    ///
    /// # Panics
    /// Panics if an index is outside `[0, u)` (callers decoding untrusted
    /// snapshots must validate first).
    pub fn from_sparse_entries(u: u64, entries: impl IntoIterator<Item = (u64, i64)>) -> Self {
        let mut m = BTreeMap::new();
        for (i, f) in entries {
            assert!(i < u, "index {i} out of universe [0,{u})");
            if f != 0 {
                m.insert(i, f);
            }
        }
        Self::from_repr(u, Repr::Sparse(m))
    }

    /// The universe size `u`.
    pub fn universe(&self) -> u64 {
        self.u
    }

    /// Applies one update `a_i ← a_i + δ`: the one-update case of
    /// [`Self::try_apply_batch`], one checked add.
    ///
    /// # Panics
    /// Panics if `up.index >= u`, or with [`CellOverflow`]'s message if the
    /// update would carry its cell past the `i64` range; the vector is then
    /// as it was.
    pub fn apply(&mut self, up: Update) {
        assert!(
            up.index < self.u,
            "index {} out of universe [0,{})",
            up.index,
            self.u
        );
        let overflow = || -> ! { panic!("{}", CellOverflow { index: up.index }) };
        match Arc::make_mut(&mut self.repr) {
            Repr::Dense(v) => {
                let cell = &mut v[up.index as usize];
                *cell = cell.checked_add(up.delta).unwrap_or_else(|| overflow());
            }
            Repr::Sparse(m) => {
                // A cell that is not there is zero, and zero plus any `δ`
                // fits: an overflow leaves no entry behind.
                let e = m.entry(up.index).or_insert(0);
                *e = e.checked_add(up.delta).unwrap_or_else(|| overflow());
                if *e == 0 {
                    m.remove(&up.index);
                }
            }
        }
        self.maybe_promote();
    }

    /// Applies a whole batch `a_i ← a_i + δ` in one pass:
    /// [`Self::try_apply_batch`].
    ///
    /// # Panics
    /// Panics if any `up.index >= u`, or if the batch would carry a cell
    /// past the `i64` range.
    pub fn apply_batch(&mut self, batch: &[Update]) {
        if let Err(e) = self.try_apply_batch(batch) {
            panic!("{e}");
        }
    }

    /// Applies a whole batch `a_i ← a_i + δ` in one pass, or none of it if
    /// some update, applied in batch order, would carry its cell past the
    /// `i64` range.
    ///
    /// Dense vectors take the straight indexed adds. Sparse vectors sort a
    /// copy of the batch by index (arrival order kept within one index) and
    /// merge each distinct index into the tree once — a batch that hammers
    /// a few hot keys pays one tree walk per *distinct* key instead of one
    /// per update. Either way every update costs one checked add; an
    /// overflow undoes the updates already applied, newest first. The
    /// dense-promotion heuristic is re-checked once per batch instead of
    /// per update. All queries see exactly the state that repeated
    /// [`Self::apply`] would produce.
    ///
    /// # Errors
    /// [`CellOverflow`] names the first cell that would overflow; the
    /// vector is then as it was.
    ///
    /// # Panics
    /// Panics if any `up.index >= u`.
    pub fn try_apply_batch(&mut self, batch: &[Update]) -> Result<(), CellOverflow> {
        if batch.is_empty() {
            return Ok(());
        }
        for up in batch {
            assert!(
                up.index < self.u,
                "index {} out of universe [0,{})",
                up.index,
                self.u
            );
        }
        match Arc::make_mut(&mut self.repr) {
            Repr::Dense(v) => {
                for (n, up) in batch.iter().enumerate() {
                    let cell = &mut v[up.index as usize];
                    let Some(sum) = cell.checked_add(up.delta) else {
                        // Each step reverses an add that fitted.
                        for up in batch[..n].iter().rev() {
                            v[up.index as usize] -= up.delta;
                        }
                        return Err(CellOverflow { index: up.index });
                    };
                    *cell = sum;
                }
            }
            Repr::Sparse(m) => {
                let mut sorted: Vec<(u64, i64)> =
                    batch.iter().map(|up| (up.index, up.delta)).collect();
                // Stable: one index's deltas apply in arrival order, as the
                // dense adds do.
                sorted.sort_by_key(|&(i, _)| i);
                let mut done = 0;
                for run in sorted.chunk_by(|a, b| a.0 == b.0) {
                    let i = run[0].0;
                    let e = m.entry(i).or_insert(0);
                    let sum = run.iter().try_fold(*e, |x, &(_, d)| x.checked_add(d));
                    match sum {
                        Some(0) => {
                            m.remove(&i);
                        }
                        Some(x) => *e = x,
                        None => {
                            if *e == 0 {
                                m.remove(&i);
                            }
                            for run in sorted[..done].chunk_by(|a, b| a.0 == b.0) {
                                let e = m.entry(run[0].0).or_insert(0);
                                for &(_, d) in run.iter().rev() {
                                    *e -= d;
                                }
                                if *e == 0 {
                                    m.remove(&run[0].0);
                                }
                            }
                            return Err(CellOverflow { index: i });
                        }
                    }
                    done += run.len();
                }
            }
        }
        self.maybe_promote();
        Ok(())
    }

    /// Switches a sparse vector whose support has outgrown the tree to the
    /// dense representation (see [`PROMOTE_DIVISOR`]).
    fn maybe_promote(&mut self) {
        if let Repr::Sparse(m) = &*self.repr {
            self.promote_if_received(m.len() as u64);
        }
    }

    /// The count at which a sparse vector goes dense: `⌈u / 8⌉`.
    pub fn promote_threshold(&self) -> u64 {
        self.u.div_ceil(PROMOTE_DIVISOR)
    }

    /// Switches a sparse vector to the dense array once `received` — the
    /// updates a caller has fed it, whatever its support — reaches
    /// [`Self::promote_threshold`]; the vector's own rule passes its
    /// support. A no-op when the vector is already dense or `u` exceeds
    /// [`DENSE_LIMIT`]. Queries behave identically in both representations,
    /// so this is invisible outside of speed and memory shape; a snapshot
    /// cloned earlier keeps the tree it shared.
    pub fn promote_if_received(&mut self, received: u64) {
        let Repr::Sparse(m) = &*self.repr else { return };
        if self.u > DENSE_LIMIT || received < self.promote_threshold() {
            return;
        }
        let mut v = vec![0i64; self.u as usize];
        for (&i, &f) in m.iter() {
            v[i as usize] = f;
        }
        self.repr = Arc::new(Repr::Dense(v));
    }

    /// The frequency `a_i` (zero if never touched).
    pub fn get(&self, i: u64) -> i64 {
        assert!(i < self.u, "index {} out of universe [0,{})", i, self.u);
        match &*self.repr {
            Repr::Dense(v) => v[i as usize],
            Repr::Sparse(m) => m.get(&i).copied().unwrap_or(0),
        }
    }

    /// Iterates `(index, frequency)` over nonzero entries in index order.
    pub fn nonzero(&self) -> Box<dyn Iterator<Item = (u64, i64)> + '_> {
        match &*self.repr {
            Repr::Dense(v) => Box::new(
                v.iter()
                    .enumerate()
                    .filter(|(_, &f)| f != 0)
                    .map(|(i, &f)| (i as u64, f)),
            ),
            Repr::Sparse(m) => Box::new(m.iter().map(|(&i, &f)| (i, f))),
        }
    }

    /// Number of nonzero entries (`F0` when all deltas are insertions).
    pub fn support_size(&self) -> u64 {
        match &*self.repr {
            Repr::Dense(v) => v.iter().filter(|&&f| f != 0).count() as u64,
            Repr::Sparse(m) => m.len() as u64,
        }
    }

    // ---- Ground-truth query evaluation (used by tests and benches) ----

    /// `Σ_i a_i` — the total stream weight `n` (when all δ = 1 this is the
    /// stream length).
    pub fn total(&self) -> i128 {
        self.nonzero().map(|(_, f)| f as i128).sum()
    }

    /// SELF-JOIN SIZE / second frequency moment `F2 = Σ_i a_i²`.
    pub fn self_join_size(&self) -> i128 {
        self.nonzero().map(|(_, f)| (f as i128) * (f as i128)).sum()
    }

    /// The `k`-th frequency moment `F_k = Σ_i a_iᵏ`.
    ///
    /// # Panics
    /// Panics on `i128` overflow (keep test frequencies modest).
    pub fn frequency_moment(&self, k: u32) -> i128 {
        self.nonzero()
            .map(|(_, f)| (f as i128).checked_pow(k).expect("moment overflow"))
            .fold(0i128, |a, b| a.checked_add(b).expect("moment overflow"))
    }

    /// INNER PRODUCT / join size `a · b = Σ_i a_i b_i`.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn inner_product(&self, other: &FrequencyVector) -> i128 {
        assert_eq!(self.u, other.u, "inner product over mismatched universes");
        // Iterate the sparser side.
        let (small, big) = if self.support_size() <= other.support_size() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .nonzero()
            .map(|(i, f)| (f as i128) * (big.get(i) as i128))
            .sum()
    }

    /// RANGE QUERY: all nonzero entries with index in `[q_l, q_r]`.
    pub fn range_report(&self, q_l: u64, q_r: u64) -> Vec<(u64, i64)> {
        match &*self.repr {
            Repr::Dense(v) => {
                let hi = (q_r.min(self.u - 1) + 1) as usize;
                let lo = (q_l as usize).min(hi);
                v[lo..hi]
                    .iter()
                    .enumerate()
                    .filter(|(_, &f)| f != 0)
                    .map(|(off, &f)| (lo as u64 + off as u64, f))
                    .collect()
            }
            Repr::Sparse(m) => m.range(q_l..=q_r).map(|(&i, &f)| (i, f)).collect(),
        }
    }

    /// RANGE-SUM: `Σ_{q_l ≤ i ≤ q_r} a_i`.
    pub fn range_sum(&self, q_l: u64, q_r: u64) -> i128 {
        self.range_report(q_l, q_r)
            .into_iter()
            .map(|(_, f)| f as i128)
            .sum()
    }

    /// PREDECESSOR: the largest present key `p ≤ q` (`None` if none).
    pub fn predecessor(&self, q: u64) -> Option<u64> {
        match &*self.repr {
            Repr::Dense(v) => (0..=q.min(self.u - 1)).rev().find(|&i| v[i as usize] != 0),
            Repr::Sparse(m) => m.range(..=q).next_back().map(|(&i, _)| i),
        }
    }

    /// SUCCESSOR: the smallest present key `s ≥ q` (`None` if none).
    pub fn successor(&self, q: u64) -> Option<u64> {
        match &*self.repr {
            Repr::Dense(v) => (q..self.u).find(|&i| v[i as usize] != 0),
            Repr::Sparse(m) => m.range(q..).next().map(|(&i, _)| i),
        }
    }

    /// Items with frequency at least `threshold` (the φ-heavy hitters for
    /// `threshold = ⌈φ·n⌉`), in index order.
    pub fn heavy_hitters(&self, threshold: i64) -> Vec<(u64, i64)> {
        assert!(threshold > 0, "heavy hitter threshold must be positive");
        self.nonzero().filter(|&(_, f)| f >= threshold).collect()
    }

    /// `F0`: the number of distinct present items.
    pub fn f0(&self) -> u64 {
        self.support_size()
    }

    /// `F_max`: the largest frequency (zero for an empty vector).
    pub fn fmax(&self) -> i64 {
        self.nonzero().map(|(_, f)| f).max().unwrap_or(0)
    }

    /// Inverse-distribution point query: `#{i : a_i = k}` for `k ≠ 0`.
    pub fn inverse_distribution(&self, k: i64) -> u64 {
        assert!(
            k != 0,
            "inverse distribution of 0 is u - F0; query nonzero k"
        );
        self.nonzero().filter(|&(_, f)| f == k).count() as u64
    }

    /// The `k`-th largest present key (1-indexed): the largest present key
    /// `p` such that at least `k − 1` larger keys are also present.
    pub fn kth_largest(&self, k: u64) -> Option<u64> {
        assert!(k >= 1);
        let mut seen = 0;
        match &*self.repr {
            Repr::Dense(v) => {
                for i in (0..self.u).rev() {
                    if v[i as usize] != 0 {
                        seen += 1;
                        if seen == k {
                            return Some(i);
                        }
                    }
                }
                None
            }
            Repr::Sparse(m) => {
                for (&i, _) in m.iter().rev() {
                    seen += 1;
                    if seen == k {
                        return Some(i);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FrequencyVector {
        // a = [2, 3, 8, 1, 7, 6, 4, 3] — the paper's Figure 1 vector.
        let stream: Vec<Update> = [2i64, 3, 8, 1, 7, 6, 4, 3]
            .iter()
            .enumerate()
            .map(|(i, &f)| Update::new(i as u64, f))
            .collect();
        FrequencyVector::from_stream(8, &stream)
    }

    #[test]
    fn figure1_vector_queries() {
        let a = sample();
        assert_eq!(a.total(), 34);
        assert_eq!(a.self_join_size(), 4 + 9 + 64 + 1 + 49 + 36 + 16 + 9);
        assert_eq!(a.frequency_moment(1), 34);
        assert_eq!(
            a.frequency_moment(3),
            8 + 27 + 512 + 1 + 343 + 216 + 64 + 27
        );
        assert_eq!(a.range_sum(1, 5), 3 + 8 + 1 + 7 + 6);
        assert_eq!(a.f0(), 8);
        assert_eq!(a.fmax(), 8);
    }

    #[test]
    fn dense_and_sparse_agree() {
        let stream = vec![
            Update::new(3, 5),
            Update::new(100, -2),
            Update::new(3, -5),
            Update::new(7, 1),
        ];
        let mut dense = FrequencyVector::new(128);
        let mut sparse = FrequencyVector::new_sparse(128);
        for &u in &stream {
            dense.apply(u);
            sparse.apply(u);
        }
        assert_eq!(dense.get(3), 0);
        assert_eq!(sparse.get(3), 0);
        assert_eq!(dense.get(100), -2);
        assert_eq!(sparse.get(100), -2);
        assert_eq!(
            dense.nonzero().collect::<Vec<_>>(),
            sparse.nonzero().collect::<Vec<_>>()
        );
        assert_eq!(dense.support_size(), 2);
        assert_eq!(dense.predecessor(50), sparse.predecessor(50));
        assert_eq!(dense.successor(8), sparse.successor(8));
        assert_eq!(dense.range_report(0, 127), sparse.range_report(0, 127));
    }

    #[test]
    fn predecessor_successor_edges() {
        let a = FrequencyVector::from_stream(
            16,
            &[Update::insert(0), Update::insert(5), Update::insert(12)],
        );
        assert_eq!(a.predecessor(4), Some(0));
        assert_eq!(a.predecessor(5), Some(5));
        assert_eq!(a.predecessor(15), Some(12));
        assert_eq!(a.successor(6), Some(12));
        assert_eq!(a.successor(13), None);
        assert_eq!(a.successor(0), Some(0));
        let empty = FrequencyVector::new(16);
        assert_eq!(empty.predecessor(15), None);
        assert_eq!(empty.successor(0), None);
    }

    #[test]
    fn heavy_hitters_and_inverse() {
        let a = sample();
        assert_eq!(a.heavy_hitters(7), vec![(2, 8), (4, 7)]);
        assert_eq!(a.inverse_distribution(3), 2); // indices 1 and 7
        assert_eq!(a.inverse_distribution(9), 0);
    }

    #[test]
    fn kth_largest_key() {
        let a = FrequencyVector::from_stream(
            32,
            &[Update::insert(3), Update::insert(9), Update::insert(20)],
        );
        assert_eq!(a.kth_largest(1), Some(20));
        assert_eq!(a.kth_largest(2), Some(9));
        assert_eq!(a.kth_largest(3), Some(3));
        assert_eq!(a.kth_largest(4), None);
    }

    #[test]
    fn inner_product_matches_manual() {
        let a = FrequencyVector::from_stream(8, &[Update::new(1, 2), Update::new(3, 4)]);
        let b = FrequencyVector::from_stream(8, &[Update::new(1, 5), Update::new(2, 9)]);
        assert_eq!(a.inner_product(&b), 10);
        assert_eq!(b.inner_product(&a), 10);
    }

    #[test]
    fn range_report_bounds_clamped() {
        let a = sample();
        // qR beyond the universe is clamped.
        assert_eq!(a.range_report(6, 1000).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_panics() {
        let mut a = FrequencyVector::new(4);
        a.apply(Update::insert(4));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_batch_panics() {
        let mut a = FrequencyVector::new(4);
        a.apply_batch(&[Update::insert(1), Update::insert(4)]);
    }

    #[test]
    fn apply_batch_matches_repeated_apply() {
        // Duplicates, deletions, and self-cancelling pairs, dense + sparse.
        let batch = vec![
            Update::new(3, 5),
            Update::new(3, -5),
            Update::new(100, -2),
            Update::new(7, 1),
            Update::new(7, 4),
            Update::new(100, 2),
            Update::new(9, -3),
        ];
        for make in [FrequencyVector::new, FrequencyVector::new_sparse] {
            let mut one_by_one = make(128);
            for &up in &batch {
                one_by_one.apply(up);
            }
            let mut batched = make(128);
            batched.apply_batch(&batch);
            assert_eq!(
                batched.nonzero().collect::<Vec<_>>(),
                one_by_one.nonzero().collect::<Vec<_>>()
            );
            assert_eq!(batched.support_size(), one_by_one.support_size());
            assert_eq!(batched.get(3), 0);
            assert_eq!(batched.get(100), 0);
        }
    }

    #[test]
    fn a_batch_that_would_overflow_a_cell_applies_nothing() {
        // The prefix before the overflowing update — a new cell, a cell
        // cancelled to zero, a cell raised — must be undone in both
        // representations, and the frame's copy of a shared vector must
        // leave the snapshot alone.
        let start = [Update::new(50, i64::MAX - 1), Update::new(9, 4)];
        let batch = [
            Update::new(40, 7),
            Update::new(9, -4),
            Update::new(50, 1),
            Update::new(3, -1),
            Update::new(50, 1),
            Update::new(61, 2),
        ];
        for make in [FrequencyVector::new, FrequencyVector::new_sparse] {
            let mut fv = make(64);
            fv.apply_batch(&start);
            let before: Vec<_> = fv.nonzero().collect();
            let snapshot = fv.clone();
            assert_eq!(fv.try_apply_batch(&batch), Err(CellOverflow { index: 50 }));
            assert_eq!(fv.nonzero().collect::<Vec<_>>(), before);
            assert_eq!(snapshot.nonzero().collect::<Vec<_>>(), before);
            // Without the last overflowing step the same batch applies.
            fv.try_apply_batch(&batch[..4]).unwrap();
            assert_eq!(
                fv.nonzero().collect::<Vec<_>>(),
                vec![(3, -1), (40, 7), (50, i64::MAX)]
            );
        }
    }

    #[test]
    fn a_single_update_that_would_overflow_a_cell_applies_nothing() {
        // One update is a batch of one: it panics with the batch's message
        // and leaves the cell, and every other cell, as they were.
        for make in [FrequencyVector::new, FrequencyVector::new_sparse] {
            let mut fv = make(64);
            fv.apply_batch(&[Update::new(50, i64::MAX - 1), Update::new(9, -4)]);
            fv.apply(Update::new(50, 1));
            let before: Vec<_> = fv.nonzero().collect();
            for (index, delta) in [(50, 1), (9, i64::MIN)] {
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fv.apply(Update::new(index, delta))
                }));
                let message = refused.expect_err("the add overflows");
                let message = message.downcast_ref::<String>().map(String::as_str);
                assert_eq!(message, Some(CellOverflow { index }.to_string().as_str()));
                assert_eq!(fv.nonzero().collect::<Vec<_>>(), before);
            }
            fv.apply(Update::new(50, -3));
            assert_eq!(fv.get(50), i64::MAX - 3);
        }
    }

    #[test]
    fn clone_is_a_shared_snapshot_until_written() {
        for make in [FrequencyVector::new, FrequencyVector::new_sparse] {
            let mut live = make(64);
            live.apply_batch(&[Update::new(3, 5), Update::new(40, -2)]);
            let snapshot = live.clone();
            assert!(Arc::ptr_eq(&live.repr, &snapshot.repr), "clone must share");
            // An empty batch writes nothing, so it must not copy either.
            live.apply_batch(&[]);
            assert!(Arc::ptr_eq(&live.repr, &snapshot.repr));
            live.apply(Update::new(3, 1));
            live.apply_batch(&[Update::new(9, 7)]);
            assert!(!Arc::ptr_eq(&live.repr, &snapshot.repr));
            assert_eq!(
                snapshot.nonzero().collect::<Vec<_>>(),
                vec![(3, 5), (40, -2)],
                "the snapshot must not see later writes"
            );
            assert_eq!(
                live.nonzero().collect::<Vec<_>>(),
                vec![(3, 6), (9, 7), (40, -2)]
            );
            // Once the snapshot is gone the vector is unique again: writes
            // go in place (same allocation before and after).
            drop(snapshot);
            let before = Arc::as_ptr(&live.repr);
            live.apply(Update::new(9, 1));
            assert_eq!(Arc::as_ptr(&live.repr), before);
        }
    }

    #[test]
    fn sparse_promotes_to_dense_at_the_boundary() {
        // u = 64: promotion at support ≥ 64/8 = 8. One below stays sparse;
        // crossing promotes; queries agree throughout.
        let u = 64u64;
        let mut fv = FrequencyVector::new_sparse(u);
        let below: Vec<Update> = (0..7).map(|i| Update::new(i * 9, 2)).collect();
        fv.apply_batch(&below);
        assert!(matches!(*fv.repr, Repr::Sparse(_)), "support 7 < 8");
        fv.apply(Update::new(63, 1));
        assert!(matches!(*fv.repr, Repr::Dense(_)), "support 8 promotes");
        // Behaviour identical to a never-promoted sparse twin.
        let mut twin = FrequencyVector::new_sparse(1 << 23); // too big to promote
        for i in 0..7u64 {
            twin.apply(Update::new(i * 9, 2));
        }
        twin.apply(Update::new(63, 1));
        assert_eq!(
            fv.nonzero().collect::<Vec<_>>(),
            twin.nonzero().collect::<Vec<_>>()
        );
        assert_eq!(fv.get(63), 1);
        assert_eq!(fv.range_sum(0, 63), twin.range_sum(0, 63));
        // A huge universe never promotes regardless of support.
        assert!(matches!(*twin.repr, Repr::Sparse(_)));
    }

    #[test]
    fn promotes_on_volume_received_at_any_support_and_leaves_snapshots_alone() {
        let mut fv = FrequencyVector::new_sparse(64);
        assert_eq!(fv.promote_threshold(), 8);
        fv.apply_batch(&[Update::new(5, 3), Update::new(40, -2)]);
        let snapshot = fv.clone();
        fv.promote_if_received(7);
        assert!(!fv.is_dense(), "7 received: still the tree");
        fv.promote_if_received(8);
        assert!(fv.is_dense(), "support 2 of 64, 8 received");
        assert!(!snapshot.is_dense(), "the snapshot keeps its tree");
        assert_eq!(
            fv.nonzero().collect::<Vec<_>>(),
            snapshot.nonzero().collect::<Vec<_>>()
        );
        let before = fv.dense_values().map(<[i64]>::as_ptr);
        fv.promote_if_received(u64::MAX);
        assert_eq!(
            fv.dense_values().map(<[i64]>::as_ptr),
            before,
            "dense: no-op"
        );
        let mut wide = FrequencyVector::new_sparse(DENSE_LIMIT + 1);
        wide.promote_if_received(u64::MAX);
        assert!(!wide.is_dense(), "above DENSE_LIMIT: no-op");
    }
}

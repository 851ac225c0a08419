//! The linear hash tree of Section 4.1.
//!
//! `V` conceptually builds a binary tree over the vector `a`; the `i`-th
//! leaf holds `a_i` and an internal node at level `j` holds
//!
//! ```text
//! v = v_L + r_j · v_R                      (equation (7), "affine")
//! ```
//!
//! for a per-level random key `r_j`. Because every node is a *linear*
//! function of the leaves, the root is
//!
//! ```text
//! t = Σ_i a_i · Π_{j=1..d} r_j^{bit_j(i)}  (equation (8))
//! ```
//!
//! and `V` can maintain it over the stream in `O(log u)` space and
//! `O(log u)` time per update — without ever materialising the tree. The
//! weight is a product over the bits of `i`, so it is read from a
//! one-point [`WeightBank`] (`⌈log u / c⌉` lookups), built from the keys at
//! the hasher's first own weight evaluation.
//!
//! The paper remarks that replacing the combine by
//! `(1 − r_j)·v_L + r_j·v_R` makes the root *equal to the LDE* `f_a(r)`,
//! connecting Sections 3 and 4; [`HashKind::Multilinear`] implements that
//! variant (and a test in `sip-lde` consistency suite asserts the
//! equivalence).

use std::sync::OnceLock;

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::{LdeParams, WeightBank};
use sip_streaming::Update;

/// Which per-level combine the tree uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum HashKind {
    /// `v = v_L + r_j·v_R` — the paper's equation (7).
    #[default]
    Affine,
    /// `v = (1−r_j)·v_L + r_j·v_R` — makes the root equal `f_a(r)`.
    Multilinear,
}

impl HashKind {
    /// The `(w0, w1)` fold weights for key `r`.
    #[inline]
    pub fn weights<F: PrimeField>(self, r: F) -> (F, F) {
        match self {
            HashKind::Affine => (F::ONE, r),
            HashKind::Multilinear => (F::ONE - r, r),
        }
    }
}

/// Streaming computation of the root hash `t` (verifier side).
#[derive(Clone, Debug)]
pub struct StreamingRootHasher<F: PrimeField> {
    /// `keys[j−1] = r_j`: the key combining level `j−1` children into a
    /// level-`j` node.
    keys: Vec<F>,
    kind: HashKind,
    /// Derived from the keys on first use, never restored from a snapshot;
    /// a hasher fed only through [`Self::absorb`] never builds it.
    bank: OnceLock<WeightBank<F>>,
    root: F,
    /// Stream updates absorbed so far (checkpoint metadata).
    updates: u64,
}

impl<F: PrimeField> StreamingRootHasher<F> {
    /// Creates the hasher with explicit keys (`keys.len() = log₂ u`).
    pub fn new(keys: Vec<F>, kind: HashKind) -> Self {
        assert!(!keys.is_empty() && keys.len() <= 63);
        StreamingRootHasher {
            keys,
            kind,
            bank: OnceLock::new(),
            root: F::ZERO,
            updates: 0,
        }
    }

    /// Creates the hasher with fresh random keys over `[2^log_u]`.
    pub fn random<R: Rng + ?Sized>(log_u: u32, kind: HashKind, rng: &mut R) -> Self {
        let keys = (0..log_u).map(|_| F::random(rng)).collect();
        Self::new(keys, kind)
    }

    /// Rebuilds a hasher from checkpointed state: the level keys, the
    /// combine rule, the running root, and the update counter. A resumed
    /// hasher is field-for-field identical to one that never stopped.
    ///
    /// # Panics
    /// Panics if `keys` is empty or longer than 63.
    pub fn from_saved(keys: Vec<F>, kind: HashKind, root: F, updates: u64) -> Self {
        let mut hasher = Self::new(keys, kind);
        hasher.root = root;
        hasher.updates = updates;
        hasher
    }

    /// Tree depth `d = log₂ u`.
    pub fn depth(&self) -> u32 {
        self.keys.len() as u32
    }

    /// The level keys (secret until revealed round by round).
    pub fn keys(&self) -> &[F] {
        &self.keys
    }

    /// The combine rule in use.
    pub fn kind(&self) -> HashKind {
        self.kind
    }

    /// The one-point bank over `[2^depth]`, built on first use.
    fn bank(&self) -> &WeightBank<F> {
        self.bank.get_or_init(|| {
            let mut bank = WeightBank::with_capacity(LdeParams::binary(self.depth()), 1);
            self.push_weights(&mut bank);
            bank
        })
    }

    /// The weight leaf `i` carries in the root: `Π_j w_{bit_j(i)}(r_j)`.
    ///
    /// # Panics
    /// Panics if `i` lies outside `[2^depth]`.
    pub fn leaf_weight(&self, i: u64) -> F {
        self.bank().weight(0, i)
    }

    /// Processes one stream update: `t += δ·leaf_weight(i)`.
    pub fn update(&mut self, up: Update) {
        self.update_batch(std::slice::from_ref(&up));
    }

    /// Number of stream updates absorbed so far (checkpoint metadata).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Processes a whole stream: [`Self::update_batch`].
    pub fn update_all(&mut self, stream: &[Update]) {
        self.update_batch(stream);
    }

    /// Processes a whole batch through one delayed-reduction accumulator
    /// (`t += Σ δ·leaf_weight(i)` with one reduction per accumulator
    /// flush); bit-identical to per-update [`Self::update`].
    pub fn update_batch(&mut self, batch: &[Update]) {
        self.root += self.bank().weighted_sum(0, batch);
        self.updates += batch.len() as u64;
    }

    /// Appends this hasher's leaf weights to a packed bank as one point:
    /// level `j` carries the row `(w_0(r_j), w_1(r_j))` of
    /// [`HashKind::weights`], so the bank's product weight is
    /// [`Self::leaf_weight`] — equation (8) has the same product shape as
    /// an LDE basis function.
    ///
    /// # Panics
    /// Panics if the bank is not over the binary universe `[2^depth]`.
    pub fn push_weights(&self, bank: &mut WeightBank<F>) {
        assert_eq!(
            (bank.params().base(), bank.params().dimension()),
            (2, self.depth()),
            "the hash tree is binary of depth {}",
            self.depth()
        );
        bank.push_point(|j, row| (row[0], row[1]) = self.kind.weights(self.keys[j]));
    }

    /// Adds `partial = Σ δ·leaf_weight(i)` over `n_updates` stream updates
    /// whose weights a [`WeightBank`] evaluated; bit-identical to feeding
    /// those updates through [`Self::update`].
    pub fn absorb(&mut self, partial: F, n_updates: u64) {
        self.root += partial;
        self.updates += n_updates;
    }

    /// The current root hash `t`.
    pub fn root(&self) -> F {
        self.root
    }

    /// Verifier space in words: the keys plus the root.
    pub fn space_words(&self) -> usize {
        self.keys.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::{Fp61, PrimeField};
    use sip_lde::{LdeParams, StreamingLdeEvaluator};
    use sip_streaming::{workloads, FrequencyVector};

    /// Builds the tree explicitly bottom-up and returns the root.
    fn explicit_root(fv: &FrequencyVector, keys: &[Fp61], kind: HashKind) -> Fp61 {
        let mut level: Vec<Fp61> = (0..fv.universe())
            .map(|i| Fp61::from_i64(fv.get(i)))
            .collect();
        for &key in keys {
            let (w0, w1) = kind.weights(key);
            level = level
                .chunks_exact(2)
                .map(|c| w0 * c[0] + w1 * c[1])
                .collect();
        }
        assert_eq!(level.len(), 1);
        level[0]
    }

    #[test]
    fn figure1_example() {
        // Figure 1: a = [2,3,8,1,7,6,4,3] with r = [1,1,1] gives root 34.
        let fv = FrequencyVector::from_stream(
            8,
            &[2i64, 3, 8, 1, 7, 6, 4, 3]
                .iter()
                .enumerate()
                .map(|(i, &v)| Update::new(i as u64, v))
                .collect::<Vec<_>>(),
        );
        let keys = vec![Fp61::ONE; 3];
        let mut hasher = StreamingRootHasher::new(keys.clone(), HashKind::Affine);
        for (i, f) in fv.nonzero() {
            hasher.update(Update::new(i, f));
        }
        assert_eq!(hasher.root(), Fp61::from_u64(34));
        assert_eq!(
            explicit_root(&fv, &keys, HashKind::Affine),
            Fp61::from_u64(34)
        );
    }

    #[test]
    fn streaming_matches_explicit_tree() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [HashKind::Affine, HashKind::Multilinear] {
            let log_u = 8;
            let stream = workloads::uniform(300, 1 << log_u, 20, 5);
            let fv = FrequencyVector::from_stream(1 << log_u, &stream);
            let mut hasher = StreamingRootHasher::<Fp61>::random(log_u, kind, &mut rng);
            hasher.update_all(&stream);
            assert_eq!(
                hasher.root(),
                explicit_root(&fv, hasher.keys(), kind),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn multilinear_root_equals_lde() {
        // The paper's closing remark of Appendix B.2: with the modified
        // hash, t = f_a(r).
        let mut rng = StdRng::seed_from_u64(2);
        let log_u = 10;
        let stream = workloads::uniform(500, 1 << log_u, 100, 6);
        let mut hasher =
            StreamingRootHasher::<Fp61>::random(log_u, HashKind::Multilinear, &mut rng);
        hasher.update_all(&stream);
        let mut lde = StreamingLdeEvaluator::new(LdeParams::binary(log_u), hasher.keys().to_vec());
        lde.update_all(&stream);
        assert_eq!(hasher.root(), lde.value());
    }

    #[test]
    fn root_is_linear_in_updates() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut h = StreamingRootHasher::<Fp61>::random(6, HashKind::Affine, &mut rng);
        h.update(Update::new(5, 3));
        let snapshot = h.root();
        h.update(Update::new(9, 4));
        h.update(Update::new(9, -4));
        assert_eq!(h.root(), snapshot);
    }

    #[test]
    fn space_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(4);
        let h = StreamingRootHasher::<Fp61>::random(20, HashKind::Affine, &mut rng);
        assert_eq!(h.space_words(), 21);
    }
}

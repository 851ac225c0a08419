//! The HEAVY HITTERS protocol (Section 6.1).
//!
//! The φ-heavy hitters are the items with frequency at least `φ·n`. The
//! verifier must be convinced both that every claimed heavy item has its
//! claimed frequency **and that none were omitted**. The paper augments the
//! SUB-VECTOR hash tree: every internal node `v` gains a third child `c_v`
//! holding the *subtree count* (the sum of frequencies of all leaves below
//! `v`), and the level hash becomes
//!
//! ```text
//! h(v) = h(v_L) + r_j·h(v_R) + s_j·c_v
//! ```
//!
//! with independent random keys `r_j, s_j` per level. The root remains a
//! linear function of the leaves, so `V` still streams it in `O(log u)`
//! space and `O(log u)` time per update.
//!
//! The prover then discloses, level by level from the leaves up, the
//! *skeleton*: every child of every heavy node — the heavy children get
//! expanded recursively while the light children act as **witnesses** that
//! no heavy leaf hides below them. `V` recomputes every heavy node's hash
//! from its children, takes witness hashes on faith, and compares the root
//! against its streamed value: any lie — a wrong count, a forged witness, a
//! hidden heavy item — flips the root with probability `1 − O(log u / p)`.
//!
//! Since the subtree counts at each level sum to `n`, at most `2/φ` nodes
//! per level are disclosed: an `O(1/φ·log u)` proof.
//!
//! This protocol assumes *non-negative frequencies* (the strict turnstile
//! model): a zero count then certifies an all-zero subtree, letting the
//! prover omit zero children.

use std::collections::BTreeMap;

use rand::Rng;
use sip_field::PrimeField;
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::error::Rejection;

/// Streaming root computation for the count-augmented tree (verifier side).
#[derive(Clone, Debug)]
pub struct CountTreeHasher<F: PrimeField> {
    /// `keys[j−1] = r_j`.
    keys: Vec<F>,
    /// `skeys[j−1] = s_j` (count keys).
    skeys: Vec<F>,
    root: F,
    n: u64,
}

impl<F: PrimeField> CountTreeHasher<F> {
    /// Fresh random keys over `[2^log_u]`.
    pub fn random<R: Rng + ?Sized>(log_u: u32, rng: &mut R) -> Self {
        assert!((1..=63).contains(&log_u));
        CountTreeHasher {
            keys: (0..log_u).map(|_| F::random(rng)).collect(),
            skeys: (0..log_u).map(|_| F::random(rng)).collect(),
            root: F::ZERO,
            n: 0,
        }
    }

    /// Tree depth `d`.
    pub fn depth(&self) -> u32 {
        self.keys.len() as u32
    }

    /// The hash keys `r_j` (checkpoint state; secret until revealed).
    pub fn keys(&self) -> &[F] {
        &self.keys
    }

    /// The count keys `s_j` (checkpoint state; secret until revealed).
    pub fn skeys(&self) -> &[F] {
        &self.skeys
    }

    /// Rebuilds a hasher from checkpointed state: both key vectors, the
    /// running root, and the running total `n`. A resumed hasher is
    /// field-for-field identical to one that never stopped.
    ///
    /// # Panics
    /// Panics if the key vectors are empty, longer than 63, or of unequal
    /// length.
    pub fn from_saved(keys: Vec<F>, skeys: Vec<F>, root: F, n: u64) -> Self {
        assert!((1..=63).contains(&keys.len()));
        assert_eq!(keys.len(), skeys.len(), "one count key per hash key");
        CountTreeHasher {
            keys,
            skeys,
            root,
            n,
        }
    }

    /// Processes one update in `O(log u)` time.
    ///
    /// The update contributes `δ` to the leaf (path weight
    /// `Π_j r_j^{bit_j}`) and `δ` to every ancestor's count child
    /// (weight `s_j · Π_{k>j} r_k^{bit_k}`).
    ///
    /// # Panics
    /// Panics on negative `δ` driving the running total negative is *not*
    /// detected here (protocol precondition); panics if the index is out of
    /// the universe.
    pub fn update(&mut self, up: Update) {
        let d = self.keys.len();
        assert!(up.index < (1u64 << d), "index outside universe");
        let delta = F::from_i64(up.delta);
        // Walk levels from the root down, maintaining the multiplier of the
        // level-j ancestor's hash inside the root.
        let mut mult = F::ONE;
        let mut acc = F::ZERO;
        for j in (0..d).rev() {
            acc += self.skeys[j] * mult;
            if (up.index >> j) & 1 == 1 {
                mult *= self.keys[j];
            }
        }
        self.root += delta * (mult + acc);
        self.n = (self.n as i64 + up.delta) as u64;
    }

    /// Processes a whole stream.
    pub fn update_all(&mut self, stream: &[Update]) {
        for &up in stream {
            self.update(up);
        }
    }

    /// Processes a whole batch through one delayed-reduction accumulator;
    /// the root and total are bit-identical to per-update [`Self::update`].
    ///
    /// # Panics
    /// Panics if any index is outside the universe.
    pub fn update_batch(&mut self, batch: &[Update]) {
        let d = self.keys.len();
        let mut accum = F::DotAcc::default();
        let mut n = self.n as i64;
        for &up in batch {
            assert!(up.index < (1u64 << d), "index outside universe");
            let mut mult = F::ONE;
            let mut acc = F::ZERO;
            for j in (0..d).rev() {
                acc += self.skeys[j] * mult;
                if (up.index >> j) & 1 == 1 {
                    mult *= self.keys[j];
                }
            }
            F::acc_add_prod(&mut accum, F::from_i64(up.delta), mult + acc);
            n += up.delta;
        }
        self.root += F::acc_finish(accum);
        self.n = n as u64;
    }

    /// The streamed root hash `t`.
    pub fn root(&self) -> F {
        self.root
    }

    /// Total weight `n = Σ_i a_i`.
    pub fn total(&self) -> u64 {
        self.n
    }

    /// Verifier streaming space in words.
    pub fn space_words(&self) -> usize {
        2 * self.keys.len() + 2
    }
}

/// One disclosed skeleton node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisclosedNode<F> {
    /// Node index within its level.
    pub index: u64,
    /// Claimed subtree count.
    pub count: u64,
    /// Claimed hash — present exactly for *light* internal nodes
    /// (witnesses); heavy nodes are recomputed by `V`, leaves hash to their
    /// count.
    pub hash: Option<F>,
}

/// The prover's message for one level: the children of that level's heavy
/// parents, index-sorted, zero-count children omitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelDisclosure<F> {
    /// Which tree level these nodes live at (0 = leaves).
    pub level: u32,
    /// The disclosed nodes.
    pub nodes: Vec<DisclosedNode<F>>,
}

impl<F> LevelDisclosure<F> {
    /// Communication words this disclosure costs: index and count per node,
    /// plus the optional witness hash. This is *the* accounting formula —
    /// every cost report (local, remote client, remote server) uses it.
    pub fn words(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| 2 + n.hash.is_some() as usize)
            .sum()
    }
}

/// What the verifier does after ingesting a level.
#[derive(Clone, Debug)]
pub enum HhStep<F> {
    /// Reveal these keys to the prover and await the next level.
    RevealKeys {
        /// The level whose disclosure should come next.
        level: u32,
        /// `r_level` — the hash key.
        r: F,
        /// `s_level` — the count key.
        s: F,
    },
    /// Verification finished; the complete verified heavy-hitter set.
    Accept(Vec<(u64, u64)>),
}

/// The verifier's interactive heavy-hitters session.
#[derive(Clone, Debug)]
pub struct HhSession<F: PrimeField> {
    keys: Vec<F>,
    skeys: Vec<F>,
    streamed_root: F,
    n: u64,
    threshold: u64,
    d: u32,
    /// Verified (index → (count, hash)) of the previously ingested level.
    prev: BTreeMap<u64, (u64, F)>,
    next_level: u32,
    /// The heavy leaves seen in the level-0 disclosure.
    answer: Vec<(u64, u64)>,
    max_level_width: usize,
}

impl<F: PrimeField> CountTreeHasher<F> {
    /// Ends the streaming phase; `threshold` is the absolute heavy cutoff
    /// (`⌈φ·n⌉` for a fraction φ).
    ///
    /// # Panics
    /// Panics if `threshold == 0`.
    pub fn into_session(self, threshold: u64) -> HhSession<F> {
        assert!(threshold >= 1, "threshold must be positive");
        let d = self.depth();
        HhSession {
            keys: self.keys,
            skeys: self.skeys,
            streamed_root: self.root,
            n: self.n,
            threshold,
            d,
            prev: BTreeMap::new(),
            next_level: 0,
            answer: Vec::new(),
            max_level_width: 0,
        }
    }
}

impl<F: PrimeField> HhSession<F> {
    /// If no item can possibly be heavy (`n < threshold`), accept the empty
    /// set without interaction.
    pub fn trivially_empty(&self) -> bool {
        self.n < self.threshold
    }

    /// Session space in words (the answer set plus one level of skeleton).
    pub fn space_words(&self) -> usize {
        2 * self.keys.len() + 2 + 3 * self.max_level_width + 2 * self.answer.len()
    }

    /// Ingests the disclosure for the next level (starting at level 0).
    pub fn receive_level(&mut self, disc: &LevelDisclosure<F>) -> Result<HhStep<F>, Rejection> {
        assert!(
            !self.trivially_empty(),
            "no interaction needed: n < threshold"
        );
        let level = self.next_level;
        assert!(level < self.d, "all levels already processed");
        if disc.level != level {
            return Err(Rejection::MalformedAnswer {
                detail: format!("expected level {level}, got {}", disc.level),
            });
        }
        let mut cur: BTreeMap<u64, (u64, F)> = BTreeMap::new();
        let width = 1u64 << (self.d - level);
        let mut last_index: Option<u64> = None;
        for node in &disc.nodes {
            if node.index >= width || last_index.is_some_and(|p| p >= node.index) {
                return Err(Rejection::MalformedAnswer {
                    detail: format!("level {level}: node {} out of order/range", node.index),
                });
            }
            last_index = Some(node.index);
            if node.count == 0 {
                return Err(Rejection::MalformedAnswer {
                    detail: "zero-count nodes must be omitted".to_string(),
                });
            }
            let heavy = node.count >= self.threshold;
            let hash = if level == 0 {
                // A leaf's hash is its value (= its count).
                if node.hash.is_some() {
                    return Err(Rejection::MalformedAnswer {
                        detail: "leaves carry no explicit hash".to_string(),
                    });
                }
                F::from_u64(node.count)
            } else if heavy {
                if node.hash.is_some() {
                    return Err(Rejection::MalformedAnswer {
                        detail: "heavy nodes are recomputed, not claimed".to_string(),
                    });
                }
                let (cl, hl) = self
                    .prev
                    .get(&(2 * node.index))
                    .copied()
                    .unwrap_or((0, F::ZERO));
                let (cr, hr) = self
                    .prev
                    .get(&(2 * node.index + 1))
                    .copied()
                    .unwrap_or((0, F::ZERO));
                if cl + cr != node.count {
                    return Err(Rejection::StructuralCheckFailed {
                        detail: format!(
                            "level {level} node {}: count {} != children {} + {}",
                            node.index, node.count, cl, cr
                        ),
                    });
                }
                hl + self.keys[level as usize - 1] * hr
                    + self.skeys[level as usize - 1] * F::from_u64(node.count)
            } else {
                // Light witness: hash taken on faith, bound by the root.
                node.hash.ok_or_else(|| Rejection::MalformedAnswer {
                    detail: "light witness must carry its hash".to_string(),
                })?
            };
            if level == 0 && heavy {
                self.answer.push((node.index, node.count));
            }
            cur.insert(node.index, (node.count, hash));
        }
        // Completeness: every previously disclosed node hangs under a
        // disclosed *heavy* parent.
        for &i in self.prev.keys() {
            match cur.get(&(i >> 1)) {
                Some(&(c, _)) if c >= self.threshold => {}
                _ => {
                    return Err(Rejection::StructuralCheckFailed {
                        detail: format!("level {level}: parent of node {i} missing or light"),
                    })
                }
            }
        }
        self.max_level_width = self.max_level_width.max(cur.len());
        self.prev = cur;
        self.next_level += 1;
        if self.next_level == self.d {
            return self.finish();
        }
        Ok(HhStep::RevealKeys {
            level: self.next_level,
            r: self.keys[self.next_level as usize - 1],
            s: self.skeys[self.next_level as usize - 1],
        })
    }

    /// Final root reconstruction and comparison.
    fn finish(&mut self) -> Result<HhStep<F>, Rejection> {
        let (cl, hl) = self.prev.get(&0).copied().unwrap_or((0, F::ZERO));
        let (cr, hr) = self.prev.get(&1).copied().unwrap_or((0, F::ZERO));
        if cl + cr != self.n {
            return Err(Rejection::StructuralCheckFailed {
                detail: format!("root count {} != streamed total {}", cl + cr, self.n),
            });
        }
        let d = self.d as usize;
        let root = hl + self.keys[d - 1] * hr + self.skeys[d - 1] * F::from_u64(self.n);
        if root != self.streamed_root {
            return Err(Rejection::RootMismatch);
        }
        Ok(HhStep::Accept(std::mem::take(&mut self.answer)))
    }
}

/// The honest heavy-hitters prover.
#[derive(Clone, Debug)]
pub struct HhProver<F: PrimeField> {
    /// Sparse subtree counts per level (level 0 = leaves), key-independent.
    counts: Vec<Vec<(u64, u64)>>,
    /// Sparse hashes of the current level (advances as keys arrive).
    hashes: Vec<(u64, F)>,
    level: u32,
    threshold: u64,
}

impl<F: PrimeField> HhProver<F> {
    /// Builds the count tree from the materialised frequencies.
    ///
    /// # Panics
    /// Panics if any frequency is negative (strict turnstile only).
    pub fn new(fv: &FrequencyVector, log_u: u32, threshold: u64) -> Self {
        assert!(threshold >= 1);
        let mut level0: Vec<(u64, u64)> = Vec::new();
        for (i, f) in fv.nonzero() {
            assert!(f >= 0, "heavy hitters require non-negative frequencies");
            level0.push((i, f as u64));
        }
        let mut counts = vec![level0];
        for _ in 0..log_u {
            let prev = counts.last().expect("nonempty");
            let mut next: Vec<(u64, u64)> = Vec::new();
            for &(i, c) in prev {
                match next.last_mut() {
                    Some(&mut (pi, ref mut pc)) if pi == i >> 1 => *pc += c,
                    _ => next.push((i >> 1, c)),
                }
            }
            counts.push(next);
        }
        let hashes = counts[0]
            .iter()
            .map(|&(i, c)| (i, F::from_u64(c)))
            .collect();
        HhProver {
            counts,
            hashes,
            level: 0,
            threshold,
        }
    }

    fn count_at(&self, level: u32, index: u64) -> u64 {
        let lvl = &self.counts[level as usize];
        match lvl.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => lvl[pos].1,
            Err(_) => 0,
        }
    }

    fn hash_at(&self, index: u64) -> F {
        match self.hashes.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.hashes[pos].1,
            Err(_) => F::ZERO,
        }
    }

    /// The disclosure for the current level: all nonzero children of heavy
    /// parents (for level `d−1`, the children of the root).
    pub fn disclose(&self) -> LevelDisclosure<F> {
        let level = self.level;
        let nodes = self.counts[level as usize]
            .iter()
            .filter(|&&(i, _)| {
                let parent_count = self.count_at(level + 1, i >> 1);
                parent_count >= self.threshold
            })
            .map(|&(i, c)| DisclosedNode {
                index: i,
                count: c,
                hash: (level > 0 && c < self.threshold).then(|| self.hash_at(i)),
            })
            .collect();
        LevelDisclosure { level, nodes }
    }

    /// Processes the verifier's key reveal: advances the hash tree one
    /// level.
    pub fn receive_keys(&mut self, level: u32, r: F, s: F) {
        assert_eq!(level, self.level + 1, "keys out of order");
        let next_counts = &self.counts[level as usize];
        let mut next_hashes: Vec<(u64, F)> = Vec::with_capacity(next_counts.len());
        for &(i, c) in next_counts {
            let h = self.hash_at(2 * i) + r * self.hash_at(2 * i + 1) + s * F::from_u64(c);
            next_hashes.push((i, h));
        }
        self.hashes = next_hashes;
        self.level = level;
    }
}

/// The prover of one heavy-hitters query as the verifier sees it. Every
/// method is fallible, so a remote session surfaces transport and decode
/// failures as [`Rejection`]s; the in-process [`HhProver`] never fails.
pub trait HeavySession<F: PrimeField> {
    /// The next level disclosure.
    fn disclose(&mut self) -> Result<LevelDisclosure<F>, Rejection>;
    /// Receive the revealed level keys.
    fn keys(&mut self, level: u32, r: F, s: F) -> Result<(), Rejection>;
}

impl<F: PrimeField> HeavySession<F> for HhProver<F> {
    fn disclose(&mut self) -> Result<LevelDisclosure<F>, Rejection> {
        Ok(HhProver::disclose(self))
    }
    fn keys(&mut self, level: u32, r: F, s: F) -> Result<(), Rejection> {
        self.receive_keys(level, r, s);
        Ok(())
    }
}

/// A verified heavy-hitters answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedHeavyHitters {
    /// `(item, frequency)` for every item with frequency ≥ threshold.
    pub items: Vec<(u64, u64)>,
    /// Cost accounting.
    pub report: CostReport,
}

/// The HEAVY HITTERS conversation at absolute `threshold` with the digest
/// `hasher`: the threshold out, then one level disclosure back per level
/// and the level's keys out, until the leaves. The only place its rounds
/// and words are booked.
///
/// `open` starts the prover's side. It is never called when no item can be
/// heavy (`n < threshold`): that query is accepted empty without
/// interaction.
pub fn drive_heavy_hitters<'a, F: PrimeField>(
    hasher: CountTreeHasher<F>,
    threshold: u64,
    open: impl FnOnce() -> Box<dyn HeavySession<F> + 'a>,
) -> Result<VerifiedHeavyHitters, Rejection> {
    let streaming_space = hasher.space_words();
    let mut session = hasher.into_session(threshold);
    let mut report = CostReport {
        v_to_p_words: 1, // the threshold
        verifier_space_words: streaming_space,
        ..CostReport::default()
    };
    if session.trivially_empty() {
        return Ok(VerifiedHeavyHitters {
            items: Vec::new(),
            report,
        });
    }
    let mut prover = open();
    loop {
        let disc = prover.disclose()?;
        report.rounds += 1;
        report.p_to_v_words += disc.words();
        match session.receive_level(&disc)? {
            HhStep::RevealKeys { level, r, s } => {
                report.v_to_p_words += 2;
                prover.keys(level, r, s)?;
            }
            HhStep::Accept(items) => {
                report.verifier_space_words = streaming_space + session.space_words();
                return Ok(VerifiedHeavyHitters { items, report });
            }
        }
    }
}

/// Runs the complete honest HEAVY HITTERS protocol with absolute threshold
/// `threshold` (use `⌈φ·n⌉` for the paper's φ-heavy hitters).
pub fn run_heavy_hitters<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    threshold: u64,
    rng: &mut R,
) -> Result<VerifiedHeavyHitters, Rejection> {
    run_heavy_hitters_with_adversary::<F, R>(log_u, stream, threshold, rng, None)
}

/// Disclosure corruption hook (`level`, mutable disclosure).
pub type HhAdversary<'a, F> = &'a mut dyn FnMut(u32, &mut LevelDisclosure<F>);

/// An in-process prover whose disclosures pass through an optional
/// [`HhAdversary`] on their way to the verifier.
struct Tampered<'a, F: PrimeField> {
    prover: HhProver<F>,
    adversary: Option<HhAdversary<'a, F>>,
}

impl<F: PrimeField> HeavySession<F> for Tampered<'_, F> {
    fn disclose(&mut self) -> Result<LevelDisclosure<F>, Rejection> {
        let mut disc = self.prover.disclose();
        if let Some(adv) = self.adversary.as_mut() {
            adv(disc.level, &mut disc);
        }
        Ok(disc)
    }
    fn keys(&mut self, level: u32, r: F, s: F) -> Result<(), Rejection> {
        self.prover.receive_keys(level, r, s);
        Ok(())
    }
}

/// Like [`run_heavy_hitters`] with a disclosure-corruption hook.
pub fn run_heavy_hitters_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    threshold: u64,
    rng: &mut R,
    adversary: Option<HhAdversary<'_, F>>,
) -> Result<VerifiedHeavyHitters, Rejection> {
    let mut hasher = CountTreeHasher::<F>::random(log_u, rng);
    hasher.update_all(stream);
    drive_heavy_hitters(hasher, threshold, || {
        let fv = FrequencyVector::from_stream(1 << log_u, stream);
        Box::new(Tampered {
            prover: HhProver::new(&fv, log_u, threshold),
            adversary,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;
    use sip_streaming::workloads;

    fn truth(stream: &[Update], u: u64, threshold: u64) -> Vec<(u64, u64)> {
        FrequencyVector::from_stream(u, stream)
            .heavy_hitters(threshold as i64)
            .into_iter()
            .map(|(i, f)| (i, f as u64))
            .collect()
    }

    #[test]
    fn completeness_skewed_stream() {
        let mut rng = StdRng::seed_from_u64(1);
        let log_u = 10;
        let u = 1u64 << log_u;
        let stream = workloads::zipf(20_000, u, 1.2, 2);
        let n: i64 = stream.iter().map(|up| up.delta).sum();
        for phi_inv in [10u64, 50, 200] {
            let threshold = (n as u64 / phi_inv).max(1);
            let got = run_heavy_hitters::<Fp61, _>(log_u, &stream, threshold, &mut rng).unwrap();
            assert_eq!(got.items, truth(&stream, u, threshold), "1/φ = {phi_inv}");
        }
    }

    #[test]
    fn uniform_stream_with_no_heavy_items() {
        let mut rng = StdRng::seed_from_u64(2);
        let log_u = 8;
        let stream = workloads::uniform(500, 1 << log_u, 3, 3);
        let got = run_heavy_hitters::<Fp61, _>(log_u, &stream, 1_000_000, &mut rng).unwrap();
        assert!(got.items.is_empty());
    }

    #[test]
    fn threshold_one_reports_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let log_u = 6;
        let stream = workloads::distinct_keys(20, 1 << log_u, 4);
        let got = run_heavy_hitters::<Fp61, _>(log_u, &stream, 1, &mut rng).unwrap();
        assert_eq!(got.items.len(), 20);
    }

    #[test]
    fn single_dominant_item() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut stream = vec![Update::new(42, 1000)];
        stream.extend(workloads::distinct_keys(50, 1 << 8, 5));
        let got = run_heavy_hitters::<Fp61, _>(8, &stream, 500, &mut rng).unwrap();
        assert_eq!(
            got.items,
            vec![(42, if got.items[0].1 == 1001 { 1001 } else { 1000 })]
        );
    }

    #[test]
    fn communication_scales_with_one_over_phi() {
        let mut rng = StdRng::seed_from_u64(5);
        let log_u = 12;
        let stream = workloads::zipf(50_000, 1 << log_u, 1.1, 6);
        let n: u64 = stream.iter().map(|up| up.delta as u64).sum();
        let coarse = run_heavy_hitters::<Fp61, _>(log_u, &stream, n / 5, &mut rng).unwrap();
        let fine = run_heavy_hitters::<Fp61, _>(log_u, &stream, n / 500, &mut rng).unwrap();
        assert!(coarse.report.p_to_v_words < fine.report.p_to_v_words);
        // Proof stays within the O(1/φ · log u) envelope (constant ≤ 6).
        assert!(
            fine.report.p_to_v_words <= 6 * 500 * log_u as usize,
            "proof too large: {}",
            fine.report.p_to_v_words
        );
    }

    #[test]
    fn omitted_heavy_hitter_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let log_u = 8;
        let stream = workloads::zipf(5_000, 1 << log_u, 1.3, 7);
        let threshold = 100;
        let hh = truth(&stream, 1 << log_u, threshold);
        assert!(!hh.is_empty(), "need at least one heavy item");
        let victim = hh[0].0;
        // Drop the victim (and by necessity lie somewhere): remove it from
        // the level-0 disclosure.
        let mut adv = |level: u32, disc: &mut LevelDisclosure<Fp61>| {
            if level == 0 {
                disc.nodes.retain(|n| n.index != victim);
            }
        };
        let res = run_heavy_hitters_with_adversary::<Fp61, _>(
            log_u,
            &stream,
            threshold,
            &mut rng,
            Some(&mut adv),
        );
        assert!(res.is_err());
    }

    #[test]
    fn understated_count_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let log_u = 8;
        let stream = workloads::zipf(5_000, 1 << log_u, 1.3, 8);
        let threshold = 100;
        let mut adv = |level: u32, disc: &mut LevelDisclosure<Fp61>| {
            if level == 0 {
                if let Some(n) = disc.nodes.iter_mut().find(|n| n.count >= 100) {
                    n.count = 99; // pretend the heavy item is light
                }
            }
        };
        let res = run_heavy_hitters_with_adversary::<Fp61, _>(
            log_u,
            &stream,
            threshold,
            &mut rng,
            Some(&mut adv),
        );
        assert!(res.is_err());
    }

    #[test]
    fn forged_witness_hash_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let log_u = 8;
        let stream = workloads::zipf(5_000, 1 << log_u, 1.3, 9);
        for bad_level in 1..=4u32 {
            let mut adv = |level: u32, disc: &mut LevelDisclosure<Fp61>| {
                if level == bad_level {
                    if let Some(n) = disc.nodes.iter_mut().find(|n| n.hash.is_some()) {
                        *n.hash.as_mut().unwrap() += Fp61::ONE;
                    }
                }
            };
            let res = run_heavy_hitters_with_adversary::<Fp61, _>(
                log_u,
                &stream,
                100,
                &mut rng,
                Some(&mut adv),
            );
            // Levels without witnesses leave the disclosure untouched.
            if let Err(e) = res {
                assert!(
                    matches!(
                        e,
                        Rejection::RootMismatch | Rejection::StructuralCheckFailed { .. }
                    ),
                    "level={bad_level}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn trivially_empty_when_threshold_exceeds_n() {
        let mut rng = StdRng::seed_from_u64(9);
        let stream = [Update::new(3, 5)];
        let got = run_heavy_hitters::<Fp61, _>(6, &stream, 10, &mut rng).unwrap();
        assert!(got.items.is_empty());
        assert_eq!(got.report.rounds, 0, "no interaction needed");
    }
}

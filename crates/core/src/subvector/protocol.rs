//! The interactive SUB-VECTOR verification protocol (Section 4.1).
//!
//! After both parties observed the stream, the conversation is:
//!
//! 1. `V → P`: the query range `[q_L, q_R]`.
//! 2. `P → V`: the claimed nonzero entries of the *extended* range
//!    (`q_L` rounded down to even, `q_R` rounded up to odd — the paper's
//!    boundary-sibling rule).
//! 3. Rounds `j = 1 … log u − 1`: `V` reveals the level key `r_j` and asks
//!    for the (at most two) level-`j` sibling hashes its reconstruction
//!    frontier is missing; `P`, who can now build level `j` of the tree,
//!    replies.
//! 4. `V` compares the reconstructed root `t′` with the root `t` it
//!    computed over the stream, accepting iff they agree.
//!
//! The verifier's frontier is maintained as the *aligned decomposition* of
//! the currently covered interval — at most two nodes per level, so
//! `O(log u)` words — exactly the space-saving observation in the paper's
//! cost analysis ("the verifier can keep track of only O(log u) hash values
//! of internal nodes").
//!
//! The prover never builds the tree. It copies the store's nonzero cells
//! once, at construction, as a sorted `(index, value)` run, and holds no
//! snapshot of the store after that, so a write that arrives mid-query
//! writes the store in place. A requested sibling's hash is equation (8)
//! over that sibling's slice of the run, and one query's siblings
//! partition the complement of its range: each cell is read once per
//! query, not once per level.

use rand::Rng;
use sip_field::PrimeField;
use sip_lde::WeightBank;
use sip_streaming::{Entries, FrequencyVector, Update};

use crate::channel::CostReport;
use crate::digest_bank::BankedDigest;
use crate::error::Rejection;

use super::tree::{HashKind, StreamingRootHasher};

/// Message 2: the claimed answer over the extended range, nonzero entries
/// only, in increasing index order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubVectorAnswer<F> {
    /// `(index, claimed value)` pairs; indices strictly increasing, values
    /// nonzero, all within the extended range.
    pub entries: Vec<(u64, F)>,
}

/// A per-round request from `V`: the revealed key plus the sibling hashes
/// the frontier needs at this level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRequest<F> {
    /// Tree level whose siblings are requested (1-based).
    pub level: u32,
    /// The revealed key `r_level`.
    pub challenge: F,
    /// Index (at `level`) of a needed left-edge sibling.
    pub left: Option<u64>,
    /// Index (at `level`) of a needed right-edge sibling.
    pub right: Option<u64>,
}

/// The prover's reply: hashes for exactly the requested siblings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundReply<F> {
    /// Hash of the requested left sibling.
    pub left: Option<F>,
    /// Hash of the requested right sibling.
    pub right: Option<F>,
}

/// What the verifier does next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step<F> {
    /// Send this request to the prover and await a [`RoundReply`].
    Request(RoundRequest<F>),
    /// Reconstruction finished and the root matched: the answer is genuine.
    Accept,
}

/// A node of the verifier's reconstruction frontier.
#[derive(Copy, Clone, Debug)]
struct Node<F> {
    level: u32,
    index: u64,
    hash: F,
}

/// The extended range: include the level-0 sibling of each endpoint when it
/// falls outside the query.
fn extend(q_l: u64, q_r: u64) -> (u64, u64) {
    (q_l & !1, q_r | 1)
}

/// Streaming verifier state for SUB-VECTOR (and all reporting queries).
#[derive(Clone, Debug)]
pub struct SubVectorVerifier<F: PrimeField> {
    hasher: StreamingRootHasher<F>,
}

impl<F: PrimeField> SubVectorVerifier<F> {
    /// Draws the level keys and prepares to stream over `[2^log_u]`.
    pub fn new<R: Rng + ?Sized>(log_u: u32, rng: &mut R) -> Self {
        SubVectorVerifier {
            hasher: StreamingRootHasher::random(log_u, HashKind::Affine, rng),
        }
    }

    /// The streaming root hasher (the verifier's entire protocol state) —
    /// what a checkpoint must capture.
    pub fn hasher(&self) -> &StreamingRootHasher<F> {
        &self.hasher
    }

    /// Rebuilds the verifier around a restored hasher (checkpoint resume).
    pub fn from_hasher(hasher: StreamingRootHasher<F>) -> Self {
        SubVectorVerifier { hasher }
    }

    /// Processes one stream update.
    pub fn update(&mut self, up: Update) {
        self.hasher.update(up);
    }

    /// Processes a whole stream.
    pub fn update_all(&mut self, stream: &[Update]) {
        self.hasher.update_all(stream);
    }

    /// Processes a whole batch (delayed-reduction root accumulation;
    /// bit-identical to per-update [`Self::update`]).
    pub fn update_batch(&mut self, batch: &[Update]) {
        self.hasher.update_batch(batch);
    }

    /// Streaming-phase space in words.
    pub fn space_words(&self) -> usize {
        self.hasher.space_words()
    }

    /// Fixes the query and starts the verification session.
    ///
    /// # Panics
    /// Panics if the range is empty or outside the universe.
    pub fn into_session(self, q_l: u64, q_r: u64) -> SubVectorSession<F> {
        let d = self.hasher.depth();
        assert!(q_l <= q_r && q_r < (1u64 << d), "bad range");
        let (e_l, e_r) = extend(q_l, q_r);
        SubVectorSession {
            keys: self.hasher.keys().to_vec(),
            kind: self.hasher.kind(),
            streamed_root: self.hasher.root(),
            d,
            q_l,
            q_r,
            e_l,
            e_r,
            frontier: Vec::new(),
            next_level: 1,
            answered: false,
            max_frontier: 0,
        }
    }
}

impl<F: PrimeField> BankedDigest<F> for SubVectorVerifier<F> {
    fn push_weights(&self, bank: &mut WeightBank<F>) {
        self.hasher.push_weights(bank);
    }
    fn absorb(&mut self, partial: F, n_updates: u64) {
        self.hasher.absorb(partial, n_updates);
    }
}

/// The verifier's interactive session.
#[derive(Clone, Debug)]
pub struct SubVectorSession<F: PrimeField> {
    keys: Vec<F>,
    kind: HashKind,
    streamed_root: F,
    d: u32,
    q_l: u64,
    q_r: u64,
    e_l: u64,
    e_r: u64,
    frontier: Vec<Node<F>>,
    next_level: u32,
    answered: bool,
    max_frontier: usize,
}

impl<F: PrimeField> SubVectorSession<F> {
    /// The extended range `[e_L, e_R]` the answer must cover.
    pub fn extended_range(&self) -> (u64, u64) {
        (self.e_l, self.e_r)
    }

    /// High-water mark of the frontier (for space accounting).
    pub fn max_frontier(&self) -> usize {
        self.max_frontier
    }

    /// Session space in words: keys, root, and two words per frontier node.
    pub fn space_words(&self) -> usize {
        self.keys.len() + 1 + 2 * self.max_frontier.max(self.frontier.len()) + 4
    }

    fn push_and_merge(&mut self, node: Node<F>) {
        self.frontier.push(node);
        while self.frontier.len() >= 2 {
            let b = self.frontier[self.frontier.len() - 1];
            let a = self.frontier[self.frontier.len() - 2];
            if a.level == b.level && a.index.is_multiple_of(2) && b.index == a.index + 1 {
                let key = self.keys[a.level as usize];
                let (w0, w1) = self.kind.weights(key);
                let merged = Node {
                    level: a.level + 1,
                    index: a.index >> 1,
                    hash: w0 * a.hash + w1 * b.hash,
                };
                self.frontier.truncate(self.frontier.len() - 2);
                self.frontier.push(merged);
            } else {
                break;
            }
        }
        self.max_frontier = self.max_frontier.max(self.frontier.len());
    }

    /// Pushes maximal aligned all-zero blocks covering `[from, to]`.
    fn push_zeros(&mut self, from: u64, to: u64) {
        let mut cur = from;
        while cur <= to {
            let align = if cur == 0 { 63 } else { cur.trailing_zeros() };
            let span = 63 - (to - cur + 1).leading_zeros(); // ⌊log₂(len)⌋
            let level = align.min(span).min(self.d);
            self.push_and_merge(Node {
                level,
                index: cur >> level,
                hash: F::ZERO,
            });
            cur += 1u64 << level;
        }
    }

    /// Processes the prover's claimed answer (message 2). `limit` bounds the
    /// number of entries `V` is willing to accept (the paper's remark about
    /// first verifying `k` with a RANGE-COUNT query); `None` allows the
    /// whole extended range.
    pub fn receive_answer(
        &mut self,
        answer: &SubVectorAnswer<F>,
        limit: Option<usize>,
    ) -> Result<Step<F>, Rejection> {
        assert!(!self.answered, "answer already received");
        self.answered = true;
        let budget = limit.unwrap_or((self.e_r - self.e_l + 1) as usize);
        if answer.entries.len() > budget {
            return Err(Rejection::AnswerTooLarge {
                limit: budget,
                got: answer.entries.len(),
            });
        }
        let mut next_expected = self.e_l;
        for &(i, v) in &answer.entries {
            if i < next_expected || i > self.e_r {
                return Err(Rejection::MalformedAnswer {
                    detail: format!(
                        "entry {i} out of order or outside extended range [{}, {}]",
                        self.e_l, self.e_r
                    ),
                });
            }
            if v.is_zero() {
                return Err(Rejection::MalformedAnswer {
                    detail: format!("entry {i} claims a zero value; zeros are implicit"),
                });
            }
            if i > next_expected {
                self.push_zeros(next_expected, i - 1);
            }
            self.push_and_merge(Node {
                level: 0,
                index: i,
                hash: v,
            });
            next_expected = i + 1;
        }
        if next_expected <= self.e_r {
            self.push_zeros(next_expected, self.e_r);
        }
        self.advance()
    }

    /// Processes the prover's sibling reply for the most recent request.
    pub fn receive_reply(
        &mut self,
        expected: &RoundRequest<F>,
        reply: &RoundReply<F>,
    ) -> Result<Step<F>, Rejection> {
        if expected.left.is_some() != reply.left.is_some()
            || expected.right.is_some() != reply.right.is_some()
        {
            return Err(Rejection::MalformedAnswer {
                detail: "sibling reply does not match request".to_string(),
            });
        }
        let level = expected.level;
        if let (Some(idx), Some(hash)) = (expected.left, reply.left) {
            let mut with_left = vec![Node {
                level,
                index: idx,
                hash,
            }];
            with_left.append(&mut self.frontier);
            self.frontier = Vec::new();
            for node in with_left {
                self.push_and_merge(node);
            }
        }
        if let (Some(idx), Some(hash)) = (expected.right, reply.right) {
            self.push_and_merge(Node {
                level,
                index: idx,
                hash,
            });
        }
        self.next_level = level + 1;
        self.advance()
    }

    /// Either produce the next request or finish with the root comparison.
    fn advance(&mut self) -> Result<Step<F>, Rejection> {
        if self.frontier.len() == 1 && self.frontier[0].level == self.d {
            return if self.frontier[0].hash == self.streamed_root {
                Ok(Step::Accept)
            } else {
                Err(Rejection::RootMismatch)
            };
        }
        let level = self.next_level;
        debug_assert!(
            level < self.d,
            "reconstruction stalled below the root: frontier {:?}",
            self.frontier.len()
        );
        let first = self.frontier.first().expect("frontier nonempty");
        let last = self.frontier.last().expect("frontier nonempty");
        let left =
            (!first.index.is_multiple_of(2) && first.level == level).then(|| first.index - 1);
        let right = (last.index.is_multiple_of(2) && last.level == level).then(|| last.index + 1);
        // The key r_level is revealed this round regardless — the prover
        // needs it for all higher-level hashes.
        Ok(Step::Request(RoundRequest {
            level,
            challenge: self.keys[(level - 1) as usize],
            left,
            right,
        }))
    }

    /// Filters the (now verified) answer down to the queried range.
    pub fn queried_entries(&self, answer: &SubVectorAnswer<F>) -> Vec<(u64, F)> {
        answer
            .entries
            .iter()
            .copied()
            .filter(|&(i, _)| i >= self.q_l && i <= self.q_r)
            .collect()
    }
}

/// Cells per block of a sibling's sweep, as an exponent: a sibling's hash
/// is one dot per occupied block against a `2^BLOCK_BITS`-entry table of
/// low-level weights, times the block's one product of higher keys.
const BLOCK_BITS: u32 = 8;

/// The honest SUB-VECTOR prover: the store's nonzero cells, and the keys
/// revealed so far.
#[derive(Clone, Debug)]
pub struct SubVectorProver<F: PrimeField> {
    /// The nonzero cells at construction, in increasing index.
    cells: Vec<(u64, F)>,
    /// `keys[t] = r_{t+1}`, revealed round by round.
    keys: Vec<F>,
    /// `low[y] = Π_{t : bit t of y} r_{t+1}` over the lowest
    /// `min(level, BLOCK_BITS)` bits: the weight of offset `y` in a block.
    low: Vec<F>,
}

impl<F: PrimeField> SubVectorProver<F> {
    /// Builds the prover from the materialised frequency vector, copying
    /// its nonzero cells: the prover keeps no snapshot of `fv`.
    pub fn new(fv: &FrequencyVector, log_u: u32) -> Self {
        assert!(log_u <= 63);
        assert!(
            fv.universe() <= 1u64 << log_u,
            "universe larger than 2^log_u"
        );
        let cells = match fv.entries() {
            Entries::Dense(v) => (0u64..)
                .zip(v)
                .filter(|&(_, &a)| a != 0)
                .map(|(i, &a)| (i, F::from_i64(a)))
                .collect(),
            Entries::Sparse(map) => map.iter().map(|(&i, &a)| (i, F::from_i64(a))).collect(),
        };
        SubVectorProver {
            cells,
            keys: Vec::new(),
            low: vec![F::ONE],
        }
    }

    /// The cells with index in `[lo, hi)`.
    fn run(&self, lo: u64, hi: u64) -> &[(u64, F)] {
        let start = self.cells.partition_point(|&(i, _)| i < lo);
        let end = self.cells.partition_point(|&(i, _)| i < hi);
        &self.cells[start..end]
    }

    /// Message 2: the nonzero entries over the extended range.
    ///
    /// # Panics
    /// Panics if rounds already started.
    pub fn answer(&self, q_l: u64, q_r: u64) -> SubVectorAnswer<F> {
        assert!(self.keys.is_empty(), "answer must precede the rounds");
        let (e_l, e_r) = extend(q_l, q_r);
        SubVectorAnswer {
            entries: self.run(e_l, e_r + 1).to_vec(),
        }
    }

    /// Processes a round request: takes the revealed key and returns the
    /// requested sibling hashes.
    pub fn process_round(&mut self, req: &RoundRequest<F>) -> RoundReply<F> {
        assert_eq!(
            req.level as usize,
            self.keys.len() + 1,
            "round out of order"
        );
        self.keys.push(req.challenge);
        if req.level <= BLOCK_BITS {
            let r = req.challenge;
            for y in 0..self.low.len() {
                let w = self.low[y] * r;
                self.low.push(w);
            }
        }
        RoundReply {
            left: req.left.map(|m| self.sibling(m)),
            right: req.right.map(|m| self.sibling(m)),
        }
    }

    /// The hash of node `m` at the current level `j`: equation (8) over its
    /// cells `[m·2^j, (m+1)·2^j)`, block by block.
    fn sibling(&self, m: u64) -> F {
        let j = self.keys.len() as u32;
        let b = j.min(BLOCK_BITS);
        let mask = (1u64 << b) - 1;
        let high = &self.keys[b as usize..];
        let mut hash = F::ZERO;
        let cells = self.run(m << j, (m + 1) << j);
        for block in cells.chunk_by(|x, y| x.0 >> b == y.0 >> b) {
            let mut acc = F::DotAcc::default();
            for &(i, a) in block {
                F::acc_add_prod(&mut acc, a, self.low[(i & mask) as usize]);
            }
            // Bits `b..j` of the block's cells pick their higher keys.
            let mut bits = (block[0].0 >> b) & ((1u64 << high.len()) - 1);
            let mut w = F::acc_finish(acc);
            while bits != 0 {
                w *= high[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
            hash += w;
        }
        hash
    }
}

/// The prover of one reporting query as the verifier sees it. Every
/// method is fallible, so a remote session surfaces transport and decode
/// failures as [`Rejection`]s; the in-process [`SubVectorProver`] never
/// fails.
pub trait ReportingSession<F: PrimeField> {
    /// The claimed sub-vector answer.
    fn answer(&mut self, q_l: u64, q_r: u64) -> Result<SubVectorAnswer<F>, Rejection>;
    /// One protocol round.
    fn round(&mut self, req: &RoundRequest<F>) -> Result<RoundReply<F>, Rejection>;
}

impl<F: PrimeField> ReportingSession<F> for SubVectorProver<F> {
    fn answer(&mut self, q_l: u64, q_r: u64) -> Result<SubVectorAnswer<F>, Rejection> {
        Ok(SubVectorProver::answer(self, q_l, q_r))
    }
    fn round(&mut self, req: &RoundRequest<F>) -> Result<RoundReply<F>, Rejection> {
        Ok(self.process_round(req))
    }
}

/// A verified sub-vector answer plus cost accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified<F: PrimeField> {
    /// The verified `(index, value)` pairs within `[q_L, q_R]`.
    pub entries: Vec<(u64, F)>,
    /// Cost accounting for the run.
    pub report: CostReport,
}

/// The SUB-VECTOR conversation over `[q_l, q_r]` with the digest
/// `verifier`: the range out, the claimed answer back, then one sibling
/// round per level until the root is rebuilt. The only place its rounds
/// and words are booked.
pub fn drive_subvector<F: PrimeField, P: ReportingSession<F> + ?Sized>(
    verifier: SubVectorVerifier<F>,
    q_l: u64,
    q_r: u64,
    prover: &mut P,
) -> Result<Verified<F>, Rejection> {
    let mut session = verifier.into_session(q_l, q_r);
    let mut report = CostReport {
        v_to_p_words: 2, // the query range
        ..CostReport::default()
    };
    let answer = prover.answer(q_l, q_r)?;
    report.rounds += 1;
    report.p_to_v_words += 2 * answer.entries.len();
    let mut step = session.receive_answer(&answer, None)?;
    while let Step::Request(req) = step {
        report.rounds += 1;
        report.v_to_p_words += 1; // the revealed key (requests are implied)
        let reply = prover.round(&req)?;
        report.p_to_v_words += reply.left.is_some() as usize + reply.right.is_some() as usize;
        step = session.receive_reply(&req, &reply)?;
    }
    report.verifier_space_words = session.space_words();
    Ok(Verified {
        entries: session.queried_entries(&answer),
        report,
    })
}

/// Runs the complete honest SUB-VECTOR protocol.
pub fn run_subvector<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q_l: u64,
    q_r: u64,
    rng: &mut R,
) -> Result<Verified<F>, Rejection> {
    run_subvector_with_adversary(log_u, stream, q_l, q_r, rng, None, None)
}

/// Corruption hook for the initial answer message.
pub type AnswerAdversary<'a, F> = &'a mut dyn FnMut(&mut SubVectorAnswer<F>);
/// Corruption hook for per-round sibling replies (`level`, reply).
pub type ReplyAdversary<'a, F> = &'a mut dyn FnMut(u32, &mut RoundReply<F>);

/// An in-process prover whose messages pass through optional corruption
/// hooks on their way to the verifier.
struct Tampered<'a, 'b, F: PrimeField> {
    prover: SubVectorProver<F>,
    tamper_answer: Option<AnswerAdversary<'a, F>>,
    tamper_reply: Option<ReplyAdversary<'b, F>>,
}

impl<F: PrimeField> ReportingSession<F> for Tampered<'_, '_, F> {
    fn answer(&mut self, q_l: u64, q_r: u64) -> Result<SubVectorAnswer<F>, Rejection> {
        let mut answer = self.prover.answer(q_l, q_r);
        if let Some(t) = self.tamper_answer.as_mut() {
            t(&mut answer);
        }
        Ok(answer)
    }
    fn round(&mut self, req: &RoundRequest<F>) -> Result<RoundReply<F>, Rejection> {
        let mut reply = self.prover.process_round(req);
        if let Some(t) = self.tamper_reply.as_mut() {
            t(req.level, &mut reply);
        }
        Ok(reply)
    }
}

/// Like [`run_subvector`] with hooks corrupting the answer and/or the
/// per-round sibling replies.
#[allow(clippy::too_many_arguments)]
pub fn run_subvector_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    q_l: u64,
    q_r: u64,
    rng: &mut R,
    tamper_answer: Option<AnswerAdversary<'_, F>>,
    tamper_reply: Option<ReplyAdversary<'_, F>>,
) -> Result<Verified<F>, Rejection> {
    let mut verifier = SubVectorVerifier::<F>::new(log_u, rng);
    verifier.update_all(stream);
    let fv = FrequencyVector::from_stream(1 << log_u, stream);
    let mut prover = Tampered {
        prover: SubVectorProver::new(&fv, log_u),
        tamper_answer,
        tamper_reply,
    };
    drive_subvector(verifier, q_l, q_r, &mut prover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sip_field::Fp61;
    use sip_streaming::workloads;

    fn expected_entries(fv: &FrequencyVector, q_l: u64, q_r: u64) -> Vec<(u64, Fp61)> {
        fv.range_report(q_l, q_r)
            .into_iter()
            .map(|(i, f)| (i, Fp61::from_i64(f)))
            .collect()
    }

    #[test]
    fn completeness_various_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let log_u = 9;
        let u = 1u64 << log_u;
        let stream = workloads::uniform(200, u, 50, 2);
        let fv = FrequencyVector::from_stream(u, &stream);
        for &(q_l, q_r) in &[
            (0u64, u - 1),
            (0, 0),
            (u - 1, u - 1),
            (1, 1),
            (17, 300),
            (100, 101),
            (255, 256),
        ] {
            let got = run_subvector::<Fp61, _>(log_u, &stream, q_l, q_r, &mut rng).unwrap();
            assert_eq!(
                got.entries,
                expected_entries(&fv, q_l, q_r),
                "[{q_l},{q_r}]"
            );
        }
    }

    #[test]
    fn random_ranges() {
        let mut rng = StdRng::seed_from_u64(2);
        let log_u = 10;
        let u = 1u64 << log_u;
        let stream = workloads::with_deletions(2000, u, 0.3, 3);
        let fv = FrequencyVector::from_stream(u, &stream);
        for _ in 0..25 {
            let a = rng.random_range(0..u);
            let b = rng.random_range(0..u);
            let (q_l, q_r) = (a.min(b), a.max(b));
            let got = run_subvector::<Fp61, _>(log_u, &stream, q_l, q_r, &mut rng).unwrap();
            assert_eq!(got.entries, expected_entries(&fv, q_l, q_r));
        }
    }

    #[test]
    fn empty_vector_and_empty_answer() {
        let mut rng = StdRng::seed_from_u64(3);
        let got = run_subvector::<Fp61, _>(8, &[], 10, 200, &mut rng).unwrap();
        assert!(got.entries.is_empty());
    }

    #[test]
    fn tiny_universe() {
        let mut rng = StdRng::seed_from_u64(4);
        let stream = [Update::new(0, 7), Update::new(1, 9)];
        let got = run_subvector::<Fp61, _>(1, &stream, 0, 0, &mut rng).unwrap();
        assert_eq!(got.entries, vec![(0, Fp61::from_u64(7))]);
    }

    #[test]
    fn space_and_communication_are_logarithmic_plus_k() {
        let mut rng = StdRng::seed_from_u64(5);
        let log_u = 14;
        let u = 1u64 << log_u;
        let stream = workloads::distinct_key_values(4000, u, 500, 6);
        // range of length 1000, the paper's Figure 3 setting
        let got = run_subvector::<Fp61, _>(log_u, &stream, 5000, 5999, &mut rng).unwrap();
        let k = got.entries.len();
        let d = log_u as usize;
        // communication: answer (≤ 2(k+2) words) + ≤ 2 siblings/round + keys
        assert!(got.report.p_to_v_words <= 2 * (k + 2) + 2 * d);
        assert!(got.report.v_to_p_words <= d + 2);
        // verifier space: keys + root + O(log u) frontier
        assert!(
            got.report.verifier_space_words <= 3 * d + 10,
            "space {} too large",
            got.report.verifier_space_words
        );
    }

    #[test]
    fn tampered_answer_value_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let stream = workloads::uniform(300, 1 << 8, 20, 7);
        let mut tamper = |ans: &mut SubVectorAnswer<Fp61>| {
            if let Some(e) = ans.entries.first_mut() {
                e.1 += Fp61::ONE;
            }
        };
        let res = run_subvector_with_adversary::<Fp61, _>(
            8,
            &stream,
            10,
            100,
            &mut rng,
            Some(&mut tamper),
            None,
        );
        assert!(matches!(res, Err(Rejection::RootMismatch)));
    }

    #[test]
    fn omitted_entry_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let stream = workloads::uniform(300, 1 << 8, 20, 8);
        let fv = FrequencyVector::from_stream(1 << 8, &stream);
        // pick a range that certainly contains an entry
        let (i0, _) = fv.nonzero().next().unwrap();
        let q_l = i0.saturating_sub(5);
        let q_r = (i0 + 5).min((1 << 8) - 1);
        let mut tamper = |ans: &mut SubVectorAnswer<Fp61>| {
            ans.entries.retain(|&(i, _)| i != i0);
        };
        let res = run_subvector_with_adversary::<Fp61, _>(
            8,
            &stream,
            q_l,
            q_r,
            &mut rng,
            Some(&mut tamper),
            None,
        );
        assert!(matches!(res, Err(Rejection::RootMismatch)));
    }

    #[test]
    fn injected_phantom_entry_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let stream = [Update::new(40, 5)];
        let mut tamper = |ans: &mut SubVectorAnswer<Fp61>| {
            ans.entries.push((41, Fp61::from_u64(3)));
            ans.entries.sort_by_key(|e| e.0);
        };
        let res = run_subvector_with_adversary::<Fp61, _>(
            8,
            &stream,
            30,
            50,
            &mut rng,
            Some(&mut tamper),
            None,
        );
        assert!(matches!(res, Err(Rejection::RootMismatch)));
    }

    #[test]
    fn tampered_sibling_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let stream = workloads::uniform(300, 1 << 8, 20, 10);
        for bad_level in 1..=7u32 {
            let mut tamper = |level: u32, reply: &mut RoundReply<Fp61>| {
                if level == bad_level {
                    if let Some(h) = reply.left.as_mut() {
                        *h += Fp61::ONE;
                    } else if let Some(h) = reply.right.as_mut() {
                        *h += Fp61::ONE;
                    }
                }
            };
            let res = run_subvector_with_adversary::<Fp61, _>(
                8,
                &stream,
                100,
                120,
                &mut rng,
                None,
                Some(&mut tamper),
            );
            // levels without requests pass the tamper hook a no-op; only
            // assert rejection when a sibling actually existed to corrupt
            if let Err(e) = res {
                assert!(matches!(e, Rejection::RootMismatch), "level={bad_level}");
            }
        }
    }

    #[test]
    fn unsorted_answer_rejected_without_interaction() {
        let mut rng = StdRng::seed_from_u64(10);
        let stream = workloads::uniform(100, 1 << 6, 5, 11);
        let mut tamper = |ans: &mut SubVectorAnswer<Fp61>| {
            ans.entries.reverse();
        };
        let res = run_subvector_with_adversary::<Fp61, _>(
            6,
            &stream,
            0,
            63,
            &mut rng,
            Some(&mut tamper),
            None,
        );
        if let Err(e) = res {
            assert!(matches!(e, Rejection::MalformedAnswer { .. }));
        } else {
            // a single-entry answer reversed is unchanged; fine
        }
    }

    #[test]
    fn oversized_answer_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut verifier = SubVectorVerifier::<Fp61>::new(6, &mut rng);
        let stream = workloads::uniform(100, 1 << 6, 5, 12);
        verifier.update_all(&stream);
        let mut session = verifier.into_session(4, 9);
        let answer = SubVectorAnswer {
            entries: (4..=9).map(|i| (i, Fp61::ONE)).collect(),
        };
        let res = session.receive_answer(&answer, Some(3));
        assert!(matches!(
            res,
            Err(Rejection::AnswerTooLarge { limit: 3, got: 6 })
        ));
    }

    #[test]
    fn full_range_needs_no_sibling_requests() {
        // Querying [0, u−1] lets V merge straight to the root: the protocol
        // should accept without any sibling hashes crossing the wire.
        let mut rng = StdRng::seed_from_u64(12);
        let log_u = 6;
        let stream = workloads::uniform(100, 1 << log_u, 5, 13);
        let got = run_subvector::<Fp61, _>(log_u, &stream, 0, (1 << log_u) - 1, &mut rng).unwrap();
        // p_to_v beyond the answer itself is zero
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        assert_eq!(got.report.p_to_v_words, 2 * fv.support_size() as usize);
    }
}

//! The fused fold-and-sum prover against a plain two-pass reference.
//!
//! The engine produces round `j+1`'s message in the sweep that binds `r_j`
//! (`engine::bind_message`), reads round 1 straight from the shared
//! frequency vector, and knows the range-sum indicator's fold table in
//! closed form. None of that may move a single word of a transcript, so
//! this file keeps the schedule it replaced — copy the vector into field
//! form, walk the table for the message, walk it again to fold with two
//! multiplications a pair, call `block_range_weight` for every indicator
//! entry — as a [`RoundProver`] in test code ([`TwoPass`]) and compares
//! **every round message**, interactively and sealed by `prove_oneshot`,
//! for F₂ (from the vector, and from its `F2Head`: the first `k` messages
//! out of Gram matrices, the table built `k` rounds in), moments and
//! range-sum (from the vector, and from the same head: the first `k`
//! messages out of the two endpoint blocks and the checkpointed sum of the
//! blocks between them):
//!
//! * a proptest over `log_u` 1..=12, dense and sparse vectors (including
//!   the support at which a sparse vector promotes itself), negative
//!   frequencies and deletions;
//! * fixed cases at `log_u` 13..=16, where the tables are large enough for
//!   a sparse table to stay sparse for several rounds before it densifies
//!   (that test's name dates from when passes this size were also chunked
//!   over threads);
//! * the head-started prover where its schedule changes shape — `log_u`
//!   below, at and just above `k`, an all-zero vector, a shard's half-empty
//!   slice, frequencies whose products overflow `i128` — and over `Fp127`;
//! * the head-started range-sum likewise: every range of every universe up
//!   to `2^7`, and by name the ranges whose endpoints share a block, sit in
//!   adjacent blocks, are block-aligned, or put the blocks between them on
//!   either side of a prefix-sum checkpoint;
//! * the packed bind's count classes: a tree with blocks of every cell
//!   count, scattered, two of them binding to zero at `r = 1/2`; the one
//!   block of a pack at `log_u` 1–3 at every count; an unpacked array whose
//!   universe ends inside a block, with the integer extremes — each over
//!   `Fp61` and `Fp127`;
//! * a kv store's RANGE-SUM over its `value + 1` vector and RANGE-COUNT
//!   over its presence vector, head-started against the sweep, on a tree,
//!   a promoted array the head packs and one too full to pack;
//! * a RANGE-SUM boundary matrix — every range of every universe up to
//!   `2^5`, and the named corner cases at `2^10` — through the complete
//!   protocol against `FrequencyVector::range_sum`;
//! * the SUB-VECTOR prover, which keeps no fold table: every sibling hash it
//!   sends equals the root the verifier's own [`StreamingRootHasher`]
//!   computes over that sibling's cells, on trees, promoted arrays, empty
//!   and one-cell vectors, `log_u` 1..=14, ranges touching either end of
//!   the universe and the full range.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::core::subvector::{
    HashKind, RoundRequest, Step, StreamingRootHasher, SubVectorProver, SubVectorVerifier,
};
use sip::core::sumcheck::f2::{F2Head, F2Prover};
use sip::core::sumcheck::moments::MomentProver;
use sip::core::sumcheck::range_sum::{run_range_sum, RangeSumProver};
use sip::core::sumcheck::{prove_oneshot, ProverWalk, RoundProver};
use sip::core::transcript::query_transcript;
use sip::field::{Fp127, Fp61, PrimeField};
use sip::kvstore::{CloudStore, KvServer};
use sip::lde::interval::block_range_weight;
use sip::streaming::{workloads, FrequencyVector, Update};

/// Which protocol a [`TwoPass`] reference speaks.
#[derive(Clone, Copy, Debug)]
enum Rule {
    F2,
    Moment(u32),
    RangeSum(u64, u64),
}

/// The two-pass prover the engine replaced: a dense field-form copy of the
/// vector, one walk per message, a second walk per bind.
struct TwoPass<F: PrimeField = Fp61> {
    table: Vec<F>,
    rule: Rule,
    challenges: Vec<F>,
    rounds: usize,
}

impl<F: PrimeField> TwoPass<F> {
    fn new(fv: &FrequencyVector, log_u: u32, rule: Rule) -> Self {
        let mut table = vec![F::ZERO; 1 << log_u];
        for (i, a) in fv.nonzero() {
            table[i as usize] = F::from_i64(a);
        }
        TwoPass {
            table,
            rule,
            challenges: Vec::new(),
            rounds: log_u as usize,
        }
    }
}

impl<F: PrimeField> RoundProver<F> for TwoPass<F> {
    fn degree(&self) -> usize {
        match self.rule {
            Rule::Moment(k) => k as usize,
            Rule::F2 | Rule::RangeSum(..) => 2,
        }
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn message(&mut self) -> Vec<F> {
        let mut out = vec![F::ZERO; self.degree() + 1];
        let j = self.challenges.len();
        for (m, pair) in self.table.chunks_exact(2).enumerate() {
            let (lo, hi) = (pair[0], pair[1]);
            // The interpolant lo + c·(hi − lo) at c = 0, 1, 2, …
            let at = |c: usize| lo + F::from_u64(c as u64) * (hi - lo);
            match self.rule {
                Rule::F2 => {
                    for (c, slot) in out.iter_mut().enumerate() {
                        *slot += at(c) * at(c);
                    }
                }
                Rule::Moment(k) => {
                    for (c, slot) in out.iter_mut().enumerate() {
                        *slot += at(c).pow(k as u128);
                    }
                }
                Rule::RangeSum(q_l, q_r) => {
                    let weight =
                        |i: u64| -> F { block_range_weight(q_l, q_r, &self.challenges, j, i) };
                    let (blo, bhi) = (weight(2 * m as u64), weight(2 * m as u64 + 1));
                    for (c, slot) in out.iter_mut().enumerate() {
                        *slot += at(c) * (blo + F::from_u64(c as u64) * (bhi - blo));
                    }
                }
            }
        }
        out
    }

    fn bind(&mut self, r: F) {
        self.table = self
            .table
            .chunks_exact(2)
            .map(|pair| (F::ONE - r) * pair[0] + r * pair[1])
            .collect();
        self.challenges.push(r);
    }
}

/// Every round message of `prover` under a fixed challenge schedule.
fn transcript<F: PrimeField>(prover: &mut dyn RoundProver<F>, challenges: &[F]) -> Vec<Vec<F>> {
    let mut out = Vec::new();
    for &r in challenges {
        out.push(prover.message());
        prover.bind(r);
    }
    out.push(prover.message());
    out
}

fn challenges_for<F: PrimeField>(log_u: u32, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..log_u).map(|_| F::random(&mut rng)).collect()
}

/// Compares one fused prover with its reference: round by round, and as a
/// sealed one-shot proof (claimed value, every polynomial, digest).
fn assert_same_proof<F: PrimeField, R: RoundProver<F>>(
    what: &str,
    log_u: u32,
    challenges: &[F],
    fused: impl Fn() -> Box<dyn RoundProver<F>>,
    reference: impl Fn() -> R,
) {
    let expect = transcript(&mut reference(), challenges);
    assert_eq!(transcript(&mut *fused(), challenges), expect, "{what}");

    let seal = |prover: &mut dyn RoundProver<F>| {
        let t = query_transcript::<F>("fused-equivalence", log_u, None, &[], challenges);
        prove_oneshot(&mut ProverWalk(prover), t, challenges, 2).expect("honest walks cannot fail")
    };
    assert_eq!(
        seal(&mut *fused()),
        seal(&mut reference()),
        "{what} one-shot"
    );
}

/// The head-started F₂ prover over `fv` against the reference.
fn assert_head_started<F: PrimeField>(what: &str, fv: &FrequencyVector, log_u: u32, seed: u64) {
    assert_head_started_under(what, fv, log_u, &[], &challenges_for::<F>(log_u, seed));
}

/// The head-started RANGE-SUM prover of every range in `ranges` over `fv`
/// against the reference.
fn assert_head_started_range_sum<F: PrimeField>(
    what: &str,
    fv: &FrequencyVector,
    log_u: u32,
    ranges: &[(u64, u64)],
    seed: u64,
) {
    let head = Arc::new(F2Head::<F>::build(fv, log_u));
    let challenges = challenges_for::<F>(log_u, seed);
    assert_range_sums_from(what, &head, fv, log_u, ranges, &challenges);
}

fn assert_range_sums_from<F: PrimeField>(
    what: &str,
    head: &Arc<F2Head<F>>,
    fv: &FrequencyVector,
    log_u: u32,
    ranges: &[(u64, u64)],
    challenges: &[F],
) {
    for &(l, r) in ranges {
        assert_same_proof(
            &format!("{what} log_u={log_u} range-sum [{l}, {r}] from the head"),
            log_u,
            challenges,
            || Box::new(RangeSumProver::from_head(Arc::clone(head), l, r)),
            || TwoPass::new(fv, log_u, Rule::RangeSum(l, r)),
        );
    }
}

/// Both head-started provers over `fv` — F₂, and RANGE-SUM on every range in
/// `ranges` — from one head, under the given challenges.
fn assert_head_started_under<F: PrimeField>(
    what: &str,
    fv: &FrequencyVector,
    log_u: u32,
    ranges: &[(u64, u64)],
    challenges: &[F],
) {
    let head = Arc::new(F2Head::<F>::build(fv, log_u));
    assert_eq!(head.rounds(), log_u.min(4) as usize, "{what}");
    assert_same_proof(
        &format!("{what} log_u={log_u} F2 from the head"),
        log_u,
        challenges,
        || Box::new(F2Prover::from_head(Arc::clone(&head))),
        || TwoPass::new(fv, log_u, Rule::F2),
    );
    assert_range_sums_from(what, &head, fv, log_u, ranges, challenges);
}

/// F₂, two moment orders and a range-sum over `fv`.
fn assert_all_protocols(what: &str, fv: &FrequencyVector, log_u: u32, q: (u64, u64), seed: u64) {
    let challenges = challenges_for::<Fp61>(log_u, seed);
    // Starting from the vector's head — the first rounds from its Gram
    // matrices, the table built `k` rounds in — must change nothing.
    assert_head_started::<Fp61>(what, fv, log_u, seed);
    assert_head_started_range_sum::<Fp61>(what, fv, log_u, &[q], seed);
    let what = format!("{what} log_u={log_u}");
    assert_same_proof(
        &format!("{what} F2"),
        log_u,
        &challenges,
        || Box::new(F2Prover::<Fp61>::new(fv, log_u)),
        || TwoPass::new(fv, log_u, Rule::F2),
    );
    for k in [1u32, 3] {
        assert_same_proof(
            &format!("{what} F{k}"),
            log_u,
            &challenges,
            || Box::new(MomentProver::<Fp61>::new(k, fv, log_u)),
            || TwoPass::new(fv, log_u, Rule::Moment(k)),
        );
    }
    assert_same_proof(
        &format!("{what} range-sum [{}, {}]", q.0, q.1),
        log_u,
        &challenges,
        || Box::new(RangeSumProver::<Fp61>::new(fv, log_u, q.0, q.1)),
        || TwoPass::new(fv, log_u, Rule::RangeSum(q.0, q.1)),
    );
}

/// A stream over `[2^log_u]` from raw draws: signed deltas, and every third
/// update followed by its own deletion so cancelled entries occur.
fn stream_of(raw: &[(u64, i64)], log_u: u32) -> Vec<Update> {
    let u = 1u64 << log_u;
    let mut stream = Vec::new();
    for (n, &(i, d)) in raw.iter().enumerate() {
        let up = Update::new(i % u, if d % 1000 == 0 { -7 } else { d % 1000 });
        stream.push(up);
        if n % 3 == 2 {
            stream.push(Update::new(up.index, -up.delta));
        }
    }
    stream
}

fn ordered(a: u64, b: u64, u: u64) -> (u64, u64) {
    ((a % u).min(b % u), (a % u).max(b % u))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_transcripts_equal_the_two_pass_reference(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 0..160),
        log_u in 1u32..=12,
        sparse in any::<bool>(),
        ends in (any::<u64>(), any::<u64>()),
        seed in any::<u64>(),
    ) {
        let u = 1u64 << log_u;
        let stream = stream_of(&raw, log_u);
        // Dense from the start, or a tree that promotes itself once its
        // support reaches u/8 — which small universes cross, large ones
        // do not, and some land on exactly.
        let mut fv = if sparse { FrequencyVector::new_sparse(u) } else { FrequencyVector::new(u) };
        fv.apply_batch(&stream);
        assert_all_protocols(
            if sparse { "sparse-start" } else { "dense" },
            &fv,
            log_u,
            ordered(ends.0, ends.1, u),
            seed,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A kv store's RANGE-SUM runs over its `value + 1` vector and its
    /// RANGE-COUNT over its presence vector; a server starts both from those
    /// vectors' heads. `keys` distinct puts over `[2^log_u]`, up to 3/8 of
    /// it, make a tree (under `u/8`), a promoted array the head packs (up to
    /// `u/4`) or one too full to pack, each about a third of the time.
    #[test]
    fn head_started_kv_range_queries_equal_the_sweep(
        log_u in 3u32..=10,
        fill in 0u64..=24,
        values in prop::collection::vec(0u64..1000, 64..65),
        ends in (any::<u64>(), any::<u64>()),
        seed in any::<u64>(),
    ) {
        let u = 1u64 << log_u;
        let keys = u * fill / 64;
        // An odd multiplier permutes `[u]`: the first `keys` images are distinct.
        let puts: Vec<Update> = (0..keys)
            .map(|n| Update::new(n * 2_654_435_761 % u, values[n as usize % 64] as i64 + 1))
            .collect();
        let mut store = CloudStore::<Fp61>::new_sparse(log_u);
        store.ingest_batch(&puts);
        let (l, r) = ordered(ends.0, ends.1, u);
        let challenges = challenges_for::<Fp61>(log_u, seed);
        for (query, fv) in [
            ("range-sum", store.encoded_vector()),
            ("range-count", store.presence_vector()),
        ] {
            let head = Arc::new(F2Head::<Fp61>::build(fv, log_u));
            let packed = head.pack().is_some();
            let shape = match (fv.is_dense(), packed) {
                (false, _) => "tree",
                (true, true) => "promoted array",
                (true, false) => "unpacked array",
            };
            prop_assert_eq!(fv.is_dense(), 8 * keys >= u);
            prop_assert_eq!(packed, 4 * keys <= u);
            assert_same_proof(
                &format!("{query} over a {shape} of {keys} keys, log_u={log_u}, [{l}, {r}]"),
                log_u,
                &challenges,
                || Box::new(RangeSumProver::from_head(Arc::clone(&head), l, r)),
                || RangeSumProver::<Fp61>::new(fv, log_u, l, r),
            );
        }
    }
}

/// Level `level`'s node `m` as the verifier defines it: the root of a
/// depth-`level` hasher under the first `level` keys, fed node `m`'s cells
/// re-based to 0.
fn node_hash(fv: &FrequencyVector, keys: &[Fp61], level: u32, m: u64) -> Fp61 {
    let mut hasher = StreamingRootHasher::new(keys[..level as usize].to_vec(), HashKind::Affine);
    let base = m << level;
    for (i, a) in fv.range_report(base, base + (1 << level) - 1) {
        hasher.update(Update::new(i - base, a));
    }
    hasher.root()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SUB-VECTOR prover through the whole protocol: each sibling it is
    /// asked for is the node [`node_hash`] defines, and the verifier
    /// accepts the range as `FrequencyVector::range_report` has it.
    /// `cells` picks an empty vector, a one-cell one or the whole stream;
    /// `edge` the drawn range, one from 0, one to `u − 1`, or all of `[u]`.
    #[test]
    fn subvector_siblings_equal_the_hashers_root_of_their_cells(
        raw in prop::collection::vec((any::<u64>(), any::<i64>()), 1..160),
        cells in 0usize..4,
        log_u in 1u32..=14,
        sparse in any::<bool>(),
        ends in (any::<u64>(), any::<u64>()),
        edge in 0u8..4,
        seed in any::<u64>(),
    ) {
        let u = 1u64 << log_u;
        let stream = match cells {
            0 => Vec::new(),
            1 => stream_of(&raw[..1], log_u),
            _ => stream_of(&raw, log_u),
        };
        let mut fv = if sparse { FrequencyVector::new_sparse(u) } else { FrequencyVector::new(u) };
        fv.apply_batch(&stream);
        let (l, r) = ordered(ends.0, ends.1, u);
        let (l, r) = match edge {
            0 => (l, r),
            1 => (0, r),
            2 => (l, u - 1),
            _ => (0, u - 1),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut verifier = SubVectorVerifier::<Fp61>::new(log_u, &mut rng);
        verifier.update_all(&stream);
        let keys = verifier.hasher().keys().to_vec();
        let mut session = verifier.into_session(l, r);
        let mut prover = SubVectorProver::<Fp61>::new(&fv, log_u);
        let answer = prover.answer(l, r);
        let mut step = session.receive_answer(&answer, None).expect("honest answer");
        while let Step::Request(req) = step {
            let reply = prover.process_round(&req);
            let RoundRequest { level, left, right, .. } = req;
            let what = format!("level {level} of {log_u}, [{l}, {r}], dense={}", fv.is_dense());
            prop_assert_eq!(reply.left, left.map(|m| node_hash(&fv, &keys, level, m)), "{}", what);
            prop_assert_eq!(reply.right, right.map(|m| node_hash(&fv, &keys, level, m)), "{}", what);
            step = session.receive_reply(&req, &reply).expect("honest reply");
        }
        let expect: Vec<(u64, Fp61)> = fv
            .range_report(l, r)
            .into_iter()
            .map(|(i, a)| (i, Fp61::from_i64(a)))
            .collect();
        prop_assert_eq!(session.queried_entries(&answer), expect);
    }
}

#[test]
fn fused_transcripts_equal_the_reference_where_passes_are_chunked() {
    // A sparse table of these sizes folds sparsely for a few rounds, then
    // densifies (at 4·entries ≥ length), which the supports below put at
    // different rounds.
    for (log_u, support, seed) in [
        (13u32, 700usize, 1u64),
        (14, 40, 2),
        (14, 2047, 3),
        (16, 5000, 4),
    ] {
        let u = 1u64 << log_u;
        let stream = workloads::with_deletions(support, u, 0.2, seed);
        let mut sparse = FrequencyVector::new_sparse(u);
        sparse.apply_batch(&stream);
        assert!(
            !sparse.is_dense(),
            "support {support} must stay a tree at log_u {log_u}"
        );
        assert_all_protocols("sparse", &sparse, log_u, (u / 4 + 1, u / 4 * 3), seed);
    }
    // The benchmark's own shape: a dense array, one seventh occupied.
    let log_u = 14u32;
    let stream = workloads::zipf(1 << log_u, 1 << log_u, 1.1, 5);
    let mut fv = FrequencyVector::new_sparse(1 << log_u);
    fv.apply_batch(&stream);
    assert!(fv.is_dense());
    assert_all_protocols("zipf", &fv, log_u, (3, (1 << log_u) - 2), 5);
    // And a universe that is not a power of two: the snapshot is shorter
    // than the table it stands for.
    let fv = FrequencyVector::from_stream(
        (1 << 13) - 3,
        &workloads::uniform(900, (1 << 13) - 3, 40, 6),
    );
    assert_all_protocols("short universe", &fv, 13, (100, (1 << 13) - 4), 6);
}

#[test]
fn head_started_f2_equals_the_reference_at_the_edges() {
    // Around k = 4: at log_u ≤ k the whole proof comes from the matrices
    // and no table is ever built; at k + 1 the table has two entries.
    for log_u in 1u32..=7 {
        let u = 1u64 << log_u;
        let stream = workloads::with_deletions(3 * u as usize, u, 0.3, log_u as u64);
        let dense = FrequencyVector::from_stream(u, &stream);
        assert_head_started::<Fp61>("edge dense", &dense, log_u, 11);
        let mut tree = FrequencyVector::new_sparse(u);
        tree.apply(Update::new(u - 1, -3));
        assert!(!tree.is_dense() || u <= 8);
        assert_head_started::<Fp61>("edge tree", &tree, log_u, 12);
    }
    for log_u in [6u32, 10, 14] {
        let u = 1u64 << log_u;
        // Nothing at all: every message is zero, from either source.
        assert_head_started::<Fp61>("all-zero dense", &FrequencyVector::new(u), log_u, 13);
        assert_head_started::<Fp61>("all-zero tree", &FrequencyVector::new_sparse(u), log_u, 14);
        // A shard's slice: nonzero on one half of the index range only.
        for (name, lo) in [("low half", 0), ("high half", u / 2)] {
            let slice: Vec<Update> = workloads::with_deletions(2 * u as usize, u / 2, 0.2, 15)
                .into_iter()
                .map(|up| Update::new(up.index + lo, up.delta))
                .collect();
            assert_head_started::<Fp61>(name, &FrequencyVector::from_stream(u, &slice), log_u, 16);
        }
    }
    // Frequencies at the integer extremes: their products overflow the
    // head's exact sums, which must spill into the field, not wrap.
    let log_u = 7u32;
    let mut extreme = FrequencyVector::new(1 << log_u);
    for i in 0..1u64 << log_u {
        extreme.apply(Update::new(i, if i % 3 == 0 { i64::MIN } else { i64::MAX }));
    }
    assert_head_started::<Fp61>("extreme", &extreme, log_u, 17);
}

#[test]
fn head_started_f2_equals_the_reference_over_fp127() {
    // A field whose accumulator reduces eagerly and whose dot over raw
    // frequencies is the trait's default: dense, tree, short universe.
    let log_u = 9u32;
    let u = 1u64 << log_u;
    let stream = workloads::with_deletions(700, u, 0.3, 21);
    let dense = FrequencyVector::from_stream(u, &stream);
    let mut tree = FrequencyVector::new_sparse(1 << 14);
    tree.apply_batch(&workloads::with_deletions(300, 1 << 14, 0.3, 22));
    assert!(!tree.is_dense());
    let short = FrequencyVector::from_stream(u - 37, &workloads::uniform(400, u - 37, 9, 23));
    assert_head_started::<Fp127>("fp127 dense", &dense, log_u, 24);
    assert_head_started::<Fp127>("fp127 tree", &tree, 14, 25);
    assert_head_started::<Fp127>("fp127 short universe", &short, log_u, 26);
    // Arrays the head packs: one whose bound table is dense from the start
    // (summed by F₂'s closed form), and one whose bound table is a sorted
    // run (summed pair by pair until a fold densifies it).
    for (log_u, n, seed) in [(12u32, 300usize, 27u64), (18, 400, 28)] {
        let u = 1u64 << log_u;
        let packed = FrequencyVector::from_stream(u, &workloads::with_deletions(n, u, 0.3, seed));
        assert!(packed.is_dense());
        assert!(F2Head::<Fp127>::build(&packed, log_u).pack().is_some());
        assert_head_started::<Fp127>("fp127 packed array", &packed, log_u, seed);
    }
}

#[test]
fn head_started_range_sum_equals_the_reference_at_the_edges() {
    // Around k = 4: at log_u ≤ k the one block is the whole vector and no
    // table is ever built; at k + 1 the table has two entries. Every range,
    // so every placement of the endpoints within and across blocks.
    for log_u in 1u32..=7 {
        let u = 1u64 << log_u;
        let every: Vec<(u64, u64)> = (0..u).flat_map(|l| (l..u).map(move |r| (l, r))).collect();
        let stream = workloads::with_deletions(3 * u as usize, u, 0.3, log_u as u64);
        let dense = FrequencyVector::from_stream(u, &stream);
        assert_head_started_range_sum::<Fp61>("edge dense", &dense, log_u, &every, 31);
        let mut tree = FrequencyVector::new_sparse(u);
        tree.apply_batch(&[Update::new(u - 1, -3), Update::new(u / 3, 8)]);
        assert!(!tree.is_dense() || u <= 16);
        assert_head_started_range_sum::<Fp61>("edge tree", &tree, log_u, &every, 32);
    }
    // By name where blocks are many: m counts blocks of 16 cells, and a
    // prefix-sum checkpoint sits at every 64th block an array holds (the
    // 2^10 array has the one at block 0 only; a tree has them where its
    // occupied blocks are).
    let named = |u: u64| {
        let (blocks, h) = (u / 16, u / 2);
        let mut ranges = vec![
            (0, u - 1),
            (0, 0),
            (u - 1, u - 1),
            (h + 5, h + 5),
            // Both endpoints in one block; in adjacent blocks (no block
            // between them); one block between them.
            (16 * 7 + 3, 16 * 7 + 9),
            (16 * 7, 16 * 7 + 15),
            (16 * 7 + 5, 16 * 8 + 4),
            (16 * 7 + 15, 16 * 8),
            (16 * 7 + 5, 16 * 9 + 4),
            // Block-aligned l and r.
            (16 * 3, 16 * 40 + 15),
            (0, 16 * 40 + 15),
            (16 * 3, u - 1),
            // A shard's half of the universe, and ranges straddling it.
            (0, h - 1),
            (h, u - 1),
            (h - 1, h),
            (h - 17, h + 16),
        ];
        // The blocks between the endpoints: fewer than one checkpoint span
        // inside one, fewer but across a checkpoint, exactly one span from
        // checkpoint to checkpoint, one span off the checkpoints, several
        // spans.
        for (first, last) in [(2, 40), (50, 80), (63, 128), (70, 135), (5, blocks - 3)] {
            if last < blocks {
                ranges.push((16 * first + 9, 16 * last + 2));
            }
        }
        ranges
    };
    for (log_u, seed) in [(10u32, 33u64), (14, 34)] {
        let u = 1u64 << log_u;
        let stream = workloads::with_deletions(3 * u as usize, u, 0.3, seed);
        let dense = FrequencyVector::from_stream(u, &stream);
        assert_head_started_range_sum::<Fp61>("named dense", &dense, log_u, &named(u), seed);
        // A tree: its checkpoints fall every 64 occupied blocks.
        let mut tree = FrequencyVector::new_sparse(u);
        tree.apply_batch(&workloads::with_deletions(
            u as usize / 16,
            u,
            0.2,
            seed + 2,
        ));
        assert!(!tree.is_dense());
        assert_head_started_range_sum::<Fp61>("named tree", &tree, log_u, &named(u), seed);
    }
    let log_u = 10u32;
    let u = 1u64 << log_u;
    // Nothing at all: every message is zero, from either source.
    assert_head_started_range_sum::<Fp61>(
        "all-zero dense",
        &FrequencyVector::new(u),
        log_u,
        &named(u),
        35,
    );
    assert_head_started_range_sum::<Fp61>(
        "all-zero tree",
        &FrequencyVector::new_sparse(u),
        log_u,
        &named(u),
        36,
    );
    // A shard's slice: nonzero on one half of the index range only.
    for (name, lo) in [("low half", 0), ("high half", u / 2)] {
        let slice: Vec<Update> = workloads::with_deletions(2 * u as usize, u / 2, 0.2, 37)
            .into_iter()
            .map(|up| Update::new(up.index + lo, up.delta))
            .collect();
        let fv = FrequencyVector::from_stream(u, &slice);
        assert_head_started_range_sum::<Fp61>(name, &fv, log_u, &named(u), 38);
    }
    // Frequencies at the integer extremes: a residue class's prefix sum is
    // past `i64` after two cells, and must not wrap.
    let mut extreme = FrequencyVector::new(u);
    for i in 0..u {
        extreme.apply(Update::new(i, if i % 3 == 0 { i64::MIN } else { i64::MAX }));
    }
    assert_head_started_range_sum::<Fp61>("extreme", &extreme, log_u, &named(u), 39);
    // A field whose accumulator reduces eagerly: dense, tree, and a universe
    // that ends inside a block.
    let stream = workloads::with_deletions(3 * u as usize, u, 0.3, 40);
    let dense = FrequencyVector::from_stream(u, &stream);
    assert_head_started_range_sum::<Fp127>("fp127 dense", &dense, log_u, &named(u), 41);
    let mut tree = FrequencyVector::new_sparse(u);
    tree.apply_batch(&stream[..60]);
    assert!(!tree.is_dense());
    assert_head_started_range_sum::<Fp127>("fp127 tree", &tree, log_u, &named(u), 42);
    let short = FrequencyVector::from_stream(u - 37, &workloads::uniform(400, u - 37, 9, 43));
    assert_head_started_range_sum::<Fp127>("fp127 short universe", &short, log_u, &named(u), 44);
}

/// A dense array over `[2^log_u]` with exactly `support` nonzero cells,
/// scattered, of both signs.
fn array_with_support(log_u: u32, support: u64) -> FrequencyVector {
    let u = 1u64 << log_u;
    let mut fv = FrequencyVector::new(u);
    // An odd multiplier permutes `[u]`: the first `support` images are distinct.
    let cells = (0..support).map(|n| Update::new(n * 2_654_435_761 % u, (n as i64 % 19 - 9) | 1));
    fv.apply_batch(&cells.collect::<Vec<_>>());
    assert!(fv.is_dense());
    assert_eq!(fv.support_size(), support);
    fv
}

#[test]
fn packed_bind_equals_the_reference() {
    // The k-variable bind reads a head's packed nonzero cells where the vector
    // is a tree or an array at most a quarter nonzero, and the array
    // otherwise. Whatever it reads, both head-started proofs are the
    // reference's, round by round and sealed.
    let packed = |fv: &FrequencyVector, log_u| F2Head::<Fp61>::build(fv, log_u).pack().is_some();

    // An array on either side of the cap.
    let log_u = 12u32;
    let u = 1u64 << log_u;
    let (at_cap, past_cap) = (
        array_with_support(log_u, u / 4),
        array_with_support(log_u, u / 4 + 1),
    );
    assert!(packed(&at_cap, log_u) && !packed(&past_cap, log_u));
    assert_all_protocols("array at the cap", &at_cap, log_u, (5, u - 7), 51);
    assert_all_protocols("array past the cap", &past_cap, log_u, (5, u - 7), 52);

    // A tree is packed whatever its density: one over a universe too large
    // ever to promote, more than a quarter full.
    let log_u = 23u32;
    let u = 1u64 << log_u;
    let cells = (0..u)
        .filter(|i| i % 7 < 2)
        .map(|i| (i, ((i % 23) as i64 - 11) | 1));
    let tree = FrequencyVector::from_sparse_entries(u, cells);
    assert!(!tree.is_dense() && tree.support_size() > u / 4 && packed(&tree, log_u));
    let challenges = challenges_for::<Fp61>(log_u, 53);
    assert_head_started_under(
        "full tree",
        &tree,
        log_u,
        &[(u / 7, u / 7 * 5 + 3)],
        &challenges,
    );
    drop(tree);

    // Where the bound table has 2^13 entries — too many to be dense whatever
    // they hold — a few hundred occupied blocks leave it a sorted run and a
    // few thousand make it dense, from a tree and from an array alike.
    let log_u = 17u32;
    let u = 1u64 << log_u;
    for (support, seed) in [(900usize, 54u64), (6_000, 55)] {
        let stream = workloads::with_deletions(support, u, 0.2, seed);
        let mut tree = FrequencyVector::new_sparse(u);
        tree.apply_batch(&stream);
        let array = FrequencyVector::from_stream(u, &stream);
        assert!(!tree.is_dense() && packed(&tree, log_u) && packed(&array, log_u));
        let q = (u / 4 + 1, u / 4 * 3);
        assert_all_protocols(
            &format!("packed tree, {support} cells"),
            &tree,
            log_u,
            q,
            seed,
        );
        assert_all_protocols(
            &format!("packed array, {support} cells"),
            &array,
            log_u,
            q,
            seed,
        );
    }

    // A universe that ends inside a block, its last cell occupied.
    let u = (1u64 << 13) - 3;
    let mut short = FrequencyVector::from_stream(u, &workloads::uniform(700, u, 40, 56));
    short.apply(Update::new(u - 1, -4));
    assert!(packed(&short, 13));
    assert_all_protocols("packed short universe", &short, 13, (100, u - 1), 56);

    // Around k = 4: at log_u ≤ k one entry is left and no pair is summed.
    for log_u in 1u32..=6 {
        let u = 1u64 << log_u;
        let every: Vec<(u64, u64)> = (0..u).flat_map(|l| (l..u).map(move |r| (l, r))).collect();
        let mut sparse = FrequencyVector::new(u);
        sparse.apply_batch(
            &[Update::new(u - 1, 6), Update::new(u / 2, -6)][..(u as usize / 4).clamp(1, 2)],
        );
        assert!(packed(&sparse, log_u) || log_u == 1);
        let challenges = challenges_for::<Fp61>(log_u, 57);
        assert_head_started_under("edge packed array", &sparse, log_u, &every, &challenges);
    }

    // Blocks whose cells cancel under the weights: with r_1 = 1/2 an even
    // cell and its odd neighbour weigh the same, so `a, −a` binds to zero —
    // in some blocks, and then in all of them.
    let log_u = 10u32;
    let u = 1u64 << log_u;
    let half = Fp61::from_u64(2).inverse().expect("2 is a unit");
    let mut challenges = challenges_for::<Fp61>(log_u, 58);
    challenges[0] = half;
    let cancelling = |blocks: &[u64]| -> Vec<Update> {
        blocks
            .iter()
            .flat_map(|b| [Update::new(16 * b + 6, 35), Update::new(16 * b + 7, -35)])
            .collect()
    };
    let mut some = FrequencyVector::from_stream(u, &workloads::uniform(100, u, 9, 59));
    for b in [3, 4, 40, 63] {
        (16 * b..16 * b + 16).for_each(|i| some.apply(Update::new(i, -some.get(i))));
    }
    some.apply_batch(&cancelling(&[3, 4, 40, 63]));
    let all = FrequencyVector::from_stream(u, &cancelling(&[0, 1, 17, 18, 30, 63]));
    let mut tree = FrequencyVector::new_sparse(u);
    tree.apply_batch(&cancelling(&[2, 9, 41]));
    for (what, fv) in [
        ("some cancel", &some),
        ("all cancel", &all),
        ("tree cancels", &tree),
    ] {
        assert!(packed(fv, log_u));
        assert_head_started_under(
            what,
            fv,
            log_u,
            &[(0, u - 1), (16 * 3 + 7, 16 * 40 + 6)],
            &challenges,
        );
    }

    // Cells at the integer extremes beside small ones, in one block and apart.
    let mut extreme = FrequencyVector::new(u);
    extreme.apply_batch(&[
        Update::new(5, i64::MAX),
        Update::new(6, 1),
        Update::new(7, i64::MIN),
        Update::new(100, i64::MIN),
        Update::new(205, i64::MAX),
        Update::new(206, i64::MAX),
        Update::new(u - 1, 1 << 61),
    ]);
    assert!(packed(&extreme, log_u));
    assert_all_protocols("packed extremes", &extreme, log_u, (6, 205), 60);

    // A field whose dot over packed cells is the trait's default.
    let challenges = challenges_for::<Fp127>(log_u, 61);
    let ranges = [
        (0, u - 1),
        (16 * 7 + 5, 16 * 9 + 4),
        (u / 2 - 17, u / 2 + 16),
    ];
    let array = array_with_support(log_u, u / 4);
    assert!(F2Head::<Fp127>::build(&array, log_u).pack().is_some());
    assert_head_started_under("fp127 packed array", &array, log_u, &ranges, &challenges);
    assert_head_started_under(
        "fp127 packed extremes",
        &extreme,
        log_u,
        &ranges,
        &challenges,
    );

    // The bind takes a pack's blocks class by class — all blocks of one
    // cell, then of two, … — and hands them out in block order. A tree with
    // blocks of every count 1..=16, three of each, scattered so that no
    // class is a run of neighbouring blocks; two of them, a 16-cell block
    // summing to zero and a 2-cell block `a, −a`, bind to zero under
    // r_1..r_4 = 1/2, where every weight is 1/16.
    let log_u = 12u32;
    let u = 1u64 << log_u;
    let mut cells: Vec<(u64, i64)> = (0..48u64)
        .filter(|&n| n != 2 * 16 + 15 && n != 16 + 1)
        .flat_map(|n| {
            let count = n % 16 + 1;
            let block = (n * 0x9e37_79b1 + 5) % (u / 16);
            (0..count).map(move |y| {
                (
                    16 * block + (y * 7 + n) % 16,
                    ((n * 16 + y) as i64 - 400) | 1,
                )
            })
        })
        .collect();
    cells.extend((0..16).map(|y| {
        (
            16 * 7 + y,
            if y < 8 { 1 + y as i64 } else { -(y as i64 - 7) },
        )
    }));
    cells.extend([(16 * 200 + 3, 99), (16 * 200 + 12, -99)]);
    let every_count = FrequencyVector::from_sparse_entries(u, cells);
    // No two blocks landed on one index: 3 × (1 + … + 16) cells.
    assert_eq!(every_count.support_size(), 3 * 136);
    let ranges = [(0, u - 1), (16 * 7 + 3, 16 * 200 + 12), (u / 3, u / 3 * 2)];
    assert_in_both_fields("every count", &every_count, log_u, &ranges, 62, &[]);
    assert_in_both_fields(
        "every count at 1/2",
        &every_count,
        log_u,
        &ranges,
        63,
        &[0, 1, 2, 3],
    );

    // Where k = log_u < 4 a pack has one block and its classes stop at
    // 2^k: that block holding every count it can, from a tree.
    for log_u in 1u32..=3 {
        let u = 1u64 << log_u;
        let every: Vec<(u64, u64)> = (0..u).flat_map(|l| (l..u).map(move |r| (l, r))).collect();
        for count in 1..=u {
            let cells = (0..count).map(|n| ((n * 3 + 1) % u, 5 - 2 * n as i64));
            let tree = FrequencyVector::from_sparse_entries(u, cells);
            let what = format!("one block of {count} cells");
            assert_in_both_fields(&what, &tree, log_u, &every, 64, &[]);
        }
    }

    // An array too full to pack whose universe ends inside a block: every
    // whole block through the fixed-width kernel, the short tail on its
    // own, the integer extremes in both.
    let log_u = 10u32;
    let u = (1u64 << log_u) - 5;
    let mut values: Vec<i64> = (0..u as i64).map(|i| (i % 13 - 6) * (i % 3)).collect();
    for (i, a) in [
        (3, i64::MIN),
        (4, i64::MAX),
        (5, 1 << 61),
        (500, i64::MAX),
        (u - 3, i64::MIN),
        (u - 2, 1 << 61),
        (u - 1, i64::MAX),
    ] {
        values[i as usize] = a;
    }
    let short = FrequencyVector::from_dense(u, values);
    assert!(!packed(&short, log_u));
    let ranges = [(0, u - 1), (4, u - 2), (u - 12, u - 1)];
    assert_in_both_fields("unpacked short array", &short, log_u, &ranges, 65, &[]);
}

/// Both head-started proofs over `fv` against the reference, in `Fp61` and
/// in `Fp127`, with the challenges at the positions in `halves` set to 1/2.
fn assert_in_both_fields(
    what: &str,
    fv: &FrequencyVector,
    log_u: u32,
    ranges: &[(u64, u64)],
    seed: u64,
    halves: &[usize],
) {
    fn challenges<F: PrimeField>(log_u: u32, seed: u64, halves: &[usize]) -> Vec<F> {
        let half = F::from_u64(2).inverse().expect("2 is a unit");
        let mut challenges = challenges_for::<F>(log_u, seed);
        halves.iter().for_each(|&j| challenges[j] = half);
        challenges
    }
    let fp61 = challenges::<Fp61>(log_u, seed, halves);
    assert_head_started_under(&format!("{what} Fp61"), fv, log_u, ranges, &fp61);
    let fp127 = challenges::<Fp127>(log_u, seed, halves);
    assert_head_started_under(&format!("{what} Fp127"), fv, log_u, ranges, &fp127);
}

/// The complete protocol — streaming verifier and all — on `[l, r]`.
fn assert_range_sum(fv: &FrequencyVector, stream: &[Update], log_u: u32, l: u64, r: u64) {
    let mut rng = StdRng::seed_from_u64(l * 131 + r);
    let got = run_range_sum::<Fp61, _>(log_u, stream, l, r, &mut rng)
        .unwrap_or_else(|rej| panic!("log_u={log_u} [{l}, {r}] rejected: {rej}"));
    assert_eq!(
        got.value,
        Fp61::from_i64(fv.range_sum(l, r) as i64),
        "log_u={log_u} [{l}, {r}]"
    );
}

#[test]
fn range_sum_boundary_matrix() {
    // Every range of every small universe: l = r, the whole universe, odd
    // and even endpoints, ranges inside one pair, ranges straddling u/2.
    for log_u in 1u32..=5 {
        let u = 1u64 << log_u;
        let stream = workloads::with_deletions(3 * u as usize, u, 0.3, log_u as u64);
        let fv = FrequencyVector::from_stream(u, &stream);
        for l in 0..u {
            for r in l..u {
                assert_range_sum(&fv, &stream, log_u, l, r);
            }
        }
    }
    // The same corners by name where blocks are many levels deep.
    let log_u = 10u32;
    let u = 1u64 << log_u;
    let stream = workloads::with_deletions(4000, u, 0.3, 77);
    let fv = FrequencyVector::from_stream(u, &stream);
    let h = u / 2;
    for (l, r) in [
        (0, 0),
        (1, 1),
        (h - 1, h - 1),
        (h, h),
        (u - 1, u - 1),
        (0, u - 1),
        (1, u - 2),
        (0, 1),
        (2, 3),
        (u - 2, u - 1),
        (3, 4),
        (h - 1, h),
        (h - 3, h + 2),
        (h - 2, h + 1),
        (1, h),
        (h, u - 2),
        (6, 9),
        (7, 10),
        (6, 10),
        (7, 9),
        (0, h - 1),
        (h, u - 1),
    ] {
        assert_range_sum(&fv, &stream, log_u, l, r);
    }
}

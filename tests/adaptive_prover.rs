//! A prover that uses what it has been told.
//!
//! Every other tamper test in the tree mutates an honest proof; none plays
//! a strategy. [`Forger`] does: it holds a false claim `F + Δ`, is shown
//! each challenge exactly when `bind` reveals it, and answers every round
//! with a polynomial consistent with its standing claim —
//! `g_j' = g_j + δ_j·c_j` with `c_j(0) + c_j(1) = 1`, so every round-sum
//! check passes and only the verifier's secret coordinates stand between
//! it and acceptance. It wins exactly when some `c_j(r_j) = 0`, so it
//! puts `c_j`'s root on `r_j` whenever it already knows `r_j` — which the
//! interactive protocol never allows (`g_j` is fixed before `r_j` is
//! revealed) and the one-shot mode always does (ROADMAP item 1).
//!
//! F₂ and RANGE-SUM, Fp61, `log u = 10`, 10⁴ seeds each through
//! [`drive_sumcheck`] and through [`drive_sumcheck_sharded`] with the
//! shards colluding (each is shown what the others were sent): 0 accepted.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip::cluster::{ClusterF2Verifier, ClusterRangeSumVerifier};
use sip::core::channel::{ClusterCostReport, CostReport};
use sip::core::sumcheck::f2::{F2Prover, F2Verifier};
use sip::core::sumcheck::range_sum::{RangeSumProver, RangeSumVerifier};
use sip::core::sumcheck::{
    drive_sumcheck, drive_sumcheck_sharded, prove_oneshot, AggregatingVerifier, ProverWalk,
    RoundProver, SumCheckVerifierCore,
};
use sip::core::transcript::query_transcript;
use sip::core::Rejection;
use sip::field::{Fp61, PrimeField};
use sip::streaming::{workloads, FrequencyVector, ShardPlan, Update};

const LOG_U: u32 = 10;
const U: u64 = 1 << LOG_U;
const SEEDS: u64 = 10_000;
const SHARDS: u32 = 2;
type Prover = Box<dyn RoundProver<Fp61>>;

/// F₂ (`None`) or RANGE-SUM over `[l, r]`.
type Query = Option<(u64, u64)>;
const QUERIES: [Query; 2] = [None, Some((100, 700))];

/// What the prover side has been shown so far: `told[j]` is `r_{j+1}`.
/// Colluding provers share one.
type Told<F> = Rc<RefCell<Vec<F>>>;

/// An honest prover's messages shifted to defend a claim that is off by
/// `Δ`. With `Δ = 0` it is honest, and still tells its colluders every
/// challenge it is sent.
struct Forger<F: PrimeField> {
    honest: Box<dyn RoundProver<F>>,
    /// `δ_j`: standing claim minus honest claim entering the current round.
    offset: F,
    /// This round's `c_j(X) = (X − root)·scale`, `scale = 1/(1 − 2·root)`.
    root: F,
    scale: F,
    /// The round about to be answered, 0-based.
    round: usize,
    told: Told<F>,
    rng: StdRng,
}

impl<F: PrimeField> Forger<F> {
    fn new(honest: Box<dyn RoundProver<F>>, delta: F, told: Told<F>, seed: u64) -> Self {
        Forger {
            honest,
            offset: delta,
            root: F::ZERO,
            scale: F::ONE,
            round: 0,
            told,
            // Not the verifier's coins: it draws its point from `seed`.
            rng: StdRng::seed_from_u64(!seed),
        }
    }

    fn c(&self, x: F) -> F {
        (x - self.root) * self.scale
    }
}

impl<F: PrimeField> RoundProver<F> for Forger<F> {
    fn degree(&self) -> usize {
        self.honest.degree()
    }

    fn rounds(&self) -> usize {
        self.honest.rounds()
    }

    fn message(&mut self) -> Vec<F> {
        let mut g = self.honest.message();
        // The root: this round's challenge if it has leaked; failing that
        // the latest challenge seen (a verifier that reused a coordinate
        // would lose to it); failing that a guess.
        let told = self.told.borrow();
        self.root = match told.get(self.round).or(told.last()) {
            Some(&r) => r,
            None => F::random(&mut self.rng),
        };
        drop(told);
        self.scale = loop {
            match (F::ONE - self.root - self.root).inverse() {
                Some(scale) => break scale,
                None => self.root += F::ONE,
            }
        };
        for (x, gx) in g.iter_mut().enumerate() {
            *gx += self.offset * self.c(F::from_u64(x as u64));
        }
        g
    }

    fn bind(&mut self, r: F) {
        self.offset *= self.c(r);
        self.honest.bind(r);
        let mut told = self.told.borrow_mut();
        if told.len() == self.round {
            told.push(r);
        }
        self.round += 1;
    }
}

fn stream() -> Vec<Update> {
    workloads::uniform(256, U, 50, 7)
}

/// One single-prover instance: the verifier's session, the value its final
/// check expects, the true answer, the honest prover, and the transcript
/// context a one-shot run of the same query seals.
struct Case {
    core: SumCheckVerifierCore<Fp61>,
    expected: Fp61,
    truth: Fp61,
    honest: Prover,
    protocol: &'static str,
    params: Vec<u64>,
}

fn case(query: Query, stream: &[Update], fv: &FrequencyVector, seed: u64) -> Case {
    let rng = &mut StdRng::seed_from_u64(seed);
    match query {
        None => {
            let mut v = F2Verifier::<Fp61>::new(LOG_U, rng);
            v.update_batch(stream);
            let (core, expected) = v.into_session();
            Case {
                core,
                expected,
                truth: Fp61::from_u128(fv.self_join_size() as u128),
                honest: Box::new(F2Prover::new(fv, LOG_U)),
                protocol: "self-join",
                params: vec![],
            }
        }
        Some((l, r)) => {
            let mut v = RangeSumVerifier::<Fp61>::new(LOG_U, rng);
            v.update_batch(stream);
            let (core, expected) = v.into_session(l, r);
            Case {
                core,
                expected,
                truth: Fp61::from_i64(fv.range_sum(l, r) as i64),
                honest: Box::new(RangeSumProver::new(fv, LOG_U, l, r)),
                protocol: "range-sum",
                params: vec![l, r],
            }
        }
    }
}

fn delta(seed: u64) -> Fp61 {
    Fp61::random_nonzero(&mut StdRng::seed_from_u64(seed ^ 0xde17a))
}

#[test]
fn interactive_sumcheck_accepts_no_adaptive_forgery() {
    let stream = stream();
    let fv = FrequencyVector::from_stream(U, &stream);
    for query in QUERIES {
        for seed in 0..SEEDS {
            let Case {
                mut core,
                expected,
                honest,
                protocol,
                ..
            } = case(query, &stream, &fv, seed);
            let mut forger = Forger::new(honest, delta(seed), Told::default(), seed);
            let got = drive_sumcheck(
                &mut forger,
                &mut core,
                expected,
                &mut CostReport::default(),
                None,
            );
            // Every round sum was consistent: only the secret point objects.
            assert_eq!(
                got,
                Err(Rejection::FinalCheckFailed),
                "{protocol} seed {seed}"
            );
        }
    }
}

/// One fleet instance: the aggregating verifier's session, the values
/// its per-shard final checks expect, and the honest per-shard provers.
fn fleet(
    query: Query,
    plan: ShardPlan,
    stream: &[Update],
    fvs: &[FrequencyVector],
    seed: u64,
) -> (AggregatingVerifier<Fp61>, Vec<Fp61>, Vec<Prover>) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let (agg, expected) = match query {
        None => {
            let mut v = ClusterF2Verifier::<Fp61>::new(plan, rng);
            v.update_batch(stream);
            v.into_session()
        }
        Some((l, r)) => {
            let mut v = ClusterRangeSumVerifier::<Fp61>::new(plan, rng);
            v.update_batch(stream);
            v.into_session(l, r)
        }
    };
    let honest = fvs
        .iter()
        .map(|fv| match query {
            None => Box::new(F2Prover::new(fv, LOG_U)) as Prover,
            Some((l, r)) => Box::new(RangeSumProver::new(fv, LOG_U, l, r)),
        })
        .collect();
    (agg, expected, honest)
}

#[test]
fn sharded_sumcheck_accepts_no_forgery_from_colluding_shards() {
    let stream = stream();
    let plan = ShardPlan::new(LOG_U, SHARDS);
    let fvs: Vec<FrequencyVector> = plan
        .split(&stream)
        .iter()
        .map(|part| FrequencyVector::from_stream(U, part))
        .collect();
    for query in QUERIES {
        for seed in 0..SEEDS {
            let (mut agg, expected, honest) = fleet(query, plan, &stream, &fvs, seed);
            // One shard lies; the others are honest in what they send and
            // pass on every challenge they receive.
            let liar = (seed % u64::from(SHARDS)) as usize;
            let told = Told::default();
            let mut forgers: Vec<Forger<Fp61>> = honest
                .into_iter()
                .enumerate()
                .map(|(s, p)| {
                    let delta = if s == liar { delta(seed) } else { Fp61::ZERO };
                    Forger::new(p, delta, told.clone(), seed)
                })
                .collect();
            let mut provers: Vec<&mut dyn RoundProver<Fp61>> = forgers
                .iter_mut()
                .map(|f| f as &mut dyn RoundProver<Fp61>)
                .collect();
            let got = drive_sumcheck_sharded(
                &mut provers,
                &mut agg,
                &expected,
                &mut ClusterCostReport::new(SHARDS as usize),
                None,
            );
            assert_eq!(
                got,
                Err(Rejection::blame(liar as u32, Rejection::FinalCheckFailed)),
                "{query:?} seed {seed}"
            );
        }
    }
}

/// The experiment has power: the same forger, told `r_1` before it sends
/// `g_1`, is accepted by the interactive verifier with the forged value.
#[test]
fn the_forger_wins_when_a_challenge_leaks() {
    let stream = stream();
    let fv = FrequencyVector::from_stream(U, &stream);
    for query in QUERIES {
        for seed in 0..20 {
            let Case {
                mut core,
                expected,
                truth,
                honest,
                protocol,
                ..
            } = case(query, &stream, &fv, seed);
            let leak = Rc::new(RefCell::new(vec![core.challenge_prefix()[0]]));
            let mut forger = Forger::new(honest, delta(seed), leak, seed);
            let got = drive_sumcheck(
                &mut forger,
                &mut core,
                expected,
                &mut CostReport::default(),
                None,
            );
            assert_eq!(got, Ok(truth + delta(seed)), "{protocol} seed {seed}");
        }
    }
}

/// The one-shot query hands the prover `r_1, …, r_{d−1}` before it sends
/// anything, so the forger roots `c_1` at `r_1` and is honest from round 2
/// (`c(X) = (X − r_1)/(1 − 2r_1)`, the re-anchor note's attack).
#[test]
#[ignore = "one-shot accepts this forgery: ROADMAP item 1"]
fn one_shot_accepts_no_forgery_from_a_prover_told_the_prefix() {
    let stream = stream();
    let fv = FrequencyVector::from_stream(U, &stream);
    let mut accepted = 0;
    for query in QUERIES {
        for seed in 0..SEEDS {
            let Case {
                core,
                expected,
                honest,
                protocol,
                params,
                ..
            } = case(query, &stream, &fv, seed);
            let prefix = core.challenge_prefix().to_vec();
            let seal = || query_transcript::<Fp61>(protocol, LOG_U, None, &params, &prefix);
            let told = Rc::new(RefCell::new(prefix.clone()));
            let mut forger = Forger::new(honest, delta(seed), told, seed);
            let proof = prove_oneshot(&mut ProverWalk(&mut forger), seal(), &prefix, 2).unwrap();
            accepted += usize::from(core.verify_oneshot(expected, seal(), &proof).is_ok());
        }
    }
    assert_eq!(accepted, 0, "of {} forged one-shot proofs", 2 * SEEDS);
}

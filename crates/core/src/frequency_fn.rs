//! Frequency-based functions `F(a) = Σ_{i∈[u]} h(a_i)` (Section 6.2,
//! Theorem 6): `F₀`, `F_max`, and inverse-distribution queries.
//!
//! The naive extension of the Section 3 protocol to an arbitrary
//! `h : N → N` costs `deg(h)·log u` communication, which is useless when
//! `h` must distinguish all frequencies up to `n`. The paper's fix:
//!
//! 1. Run the HEAVY HITTERS protocol with threshold `T` to learn — and
//!    verify — every item with frequency `≥ T`. Their contribution
//!    `F′ = Σ_{i∈H} h(a_i)` is computed exactly.
//! 2. "Remove" the heavy items from the LDE: the verifier subtracts
//!    `a_i·χ_i(r)` from its streamed `f_a(r)` per reported item, yielding
//!    `f̃_a(r)` — the LDE of the *residual* vector whose entries all lie in
//!    `[0, T−1]`.
//! 3. Run the sum-check against `h̃ ∘ f̃_a`, where `h̃` is the unique
//!    polynomial of degree `≤ D = T−1` agreeing with `h` on `{0, …, D}`.
//!    Round polynomials have degree `D`, so communication is
//!    `O(D·log u)` — `O(√u·log u)` at the paper's `T = φ·n ≈ √u`.
//! 4. `F(a) = (sum-check total) + F′ − |H|·h(0)`.
//!
//! Costs (Theorem 6): `log u` rounds, `(log u + 1/φ, √u·log u)` words.
//! Note on prover time: the paper states `O(u^{3/2})`; evaluating `h̃` at a
//! general field point costs `O(D)`, making this implementation's honest
//! prover `O(D²·u)` — the protocol's *verifier-side* costs, which are what
//! Theorem 6 claims and what our benches measure, are unaffected. See
//! `DESIGN.md` § "Substitutions".

use rand::Rng;
use sip_field::lagrange::eval_from_grid_evals;
use sip_field::PrimeField;
use sip_lde::{LdeParams, StreamingLdeEvaluator};
use sip_streaming::{FrequencyVector, Update};

use crate::channel::CostReport;
use crate::engine::{Combine, FusedRounds};
use crate::error::Rejection;
use crate::heavy_hitters::{run_heavy_hitters_with_adversary, HhAdversary, VerifiedHeavyHitters};
use crate::sumcheck::{drive_sumcheck, Adversary, RoundProver, SumCheckVerifierCore};

/// Honest prover for the residual sum-check: folds the heavy-removed vector
/// and evaluates `h̃` along each pair's arithmetic progression.
#[derive(Clone, Debug)]
pub struct FrequencyFnProver<F: PrimeField> {
    fused: FusedRounds<F>,
    /// `h(0), …, h(D)` as field elements: the evaluation table of `h̃`.
    h_evals: Vec<F>,
}

impl<F: PrimeField> FrequencyFnProver<F> {
    /// Builds the prover from the residual frequency vector (heavy items
    /// already removed) and the `h` table on `{0, …, D}`.
    ///
    /// # Panics
    /// Panics if a residual frequency falls outside `[0, D]`.
    pub fn new(residual: &FrequencyVector, log_u: u32, h_evals: Vec<F>) -> Self {
        assert!(h_evals.len() >= 2, "h̃ needs degree at least 1");
        let d = h_evals.len() as i64 - 1;
        for (_, f) in residual.nonzero() {
            assert!(
                (0..=d).contains(&f),
                "residual frequency {f} outside [0, {d}]"
            );
        }
        FrequencyFnProver {
            fused: FusedRounds::new(residual, log_u),
            h_evals,
        }
    }
}

/// The per-pair rule of the residual sum-check: `h̃` along the pair's
/// arithmetic progression, **less `h(0)`** — the engine visits only pairs
/// with a nonzero child, and the all-zero pairs it skips contribute
/// `h̃(0) = h(0)` at every evaluation point, so the prover adds
/// `pairs·h(0)` back per slot and each visited pair owes the difference.
struct HTildeCombine<'a, F> {
    /// `h(0), …, h(D)`: the evaluation table of `h̃`.
    h_evals: &'a [F],
}

impl<F: PrimeField> Combine<F> for HTildeCombine<'_, F> {
    fn slots(&self) -> usize {
        self.h_evals.len()
    }

    fn accumulate(&self, _m: u64, a: &[F], _b: &[F], acc: &mut [F::DotAcc]) {
        let (lo, hi) = (a[0], a[1]);
        let diff = hi - lo;
        let mut val = lo;
        for slot in acc.iter_mut() {
            // `O(D)` per evaluation; a table lookup on the grid.
            let h = eval_from_grid_evals(self.h_evals, val);
            F::acc_add_prod(slot, h - self.h_evals[0], F::ONE);
            val += diff;
        }
    }
}

impl<F: PrimeField> RoundProver<F> for FrequencyFnProver<F> {
    fn degree(&self) -> usize {
        self.h_evals.len() - 1
    }

    fn rounds(&self) -> usize {
        self.fused.table().bits() as usize
    }

    fn message(&mut self) -> Vec<F> {
        let mut msg = self.fused.message(&HTildeCombine {
            h_evals: &self.h_evals,
        });
        let all_pairs = F::from_u64(self.fused.table().pairs()) * self.h_evals[0];
        for slot in msg.iter_mut() {
            *slot += all_pairs;
        }
        msg
    }

    fn bind(&mut self, r: F) {
        self.fused.bind(
            r,
            &HTildeCombine {
                h_evals: &self.h_evals,
            },
        );
    }
}

/// Result of a verified frequency-based function evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedFrequencyFn<F: PrimeField> {
    /// The verified `F(a) = Σ_i h(a_i)` as a field element.
    pub value: F,
    /// The verified heavy hitters discovered along the way.
    pub heavy: Vec<(u64, u64)>,
    /// Combined cost of the heavy-hitters sub-protocol and the sum-check.
    pub report: CostReport,
}

/// Runs the complete §6.2 protocol for `F(a) = Σ_i h(a_i)`.
///
/// `threshold` is the heavy cutoff `T ≥ 2` (the paper's `φ·n ≈ √u`); `h`
/// must be defined for all frequencies that occur. The stream must be
/// strict-turnstile (non-negative frequencies).
pub fn run_frequency_fn<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    h: &dyn Fn(u64) -> u64,
    threshold: u64,
    rng: &mut R,
) -> Result<VerifiedFrequencyFn<F>, Rejection> {
    run_frequency_fn_with_adversary(log_u, stream, h, threshold, rng, None, None)
}

/// Like [`run_frequency_fn`] with corruption hooks for both sub-protocols.
pub fn run_frequency_fn_with_adversary<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    h: &dyn Fn(u64) -> u64,
    threshold: u64,
    rng: &mut R,
    hh_adversary: Option<HhAdversary<'_, F>>,
    sc_adversary: Option<Adversary<'_, F>>,
) -> Result<VerifiedFrequencyFn<F>, Rejection> {
    assert!(threshold >= 2, "threshold must be at least 2 (D = T−1 ≥ 1)");
    let u = 1u64 << log_u;

    // --- Streaming phase: LDE at a pre-drawn secret point. -------------
    let mut lde = StreamingLdeEvaluator::<F>::random(LdeParams::binary(log_u), rng);
    lde.update_all(stream);
    let streaming_space = lde.space_words();

    // --- Step 1: verified heavy hitters. -------------------------------
    let VerifiedHeavyHitters {
        items: heavy,
        report: hh_report,
    } = run_heavy_hitters_with_adversary::<F, R>(log_u, stream, threshold, rng, hh_adversary)
        .map_err(|e| Rejection::in_subprotocol("heavy-hitters", e))?;

    // --- Steps 2: remove the heavy items from the LDE; tally F'. -------
    let mut f_prime = F::ZERO;
    for &(i, c) in &heavy {
        lde.remove(i, F::from_u64(c));
        f_prime += F::from_u64(h(c));
    }
    let f_tilde_r = lde.value();

    // --- Step 3: sum-check against h̃ ∘ f̃_a. ---------------------------
    let cap = threshold - 1;
    let h_evals: Vec<F> = (0..=cap).map(|x| F::from_u64(h(x))).collect();
    let expected_final = eval_from_grid_evals(&h_evals, f_tilde_r);

    let mut residual = FrequencyVector::from_stream(u, stream);
    for &(i, c) in &heavy {
        residual.apply(Update::new(i, -(c as i64)));
    }
    let mut prover = FrequencyFnProver::new(&residual, log_u, h_evals);
    let mut core = SumCheckVerifierCore::from_lde(&lde, cap as usize);
    let mut report = CostReport {
        verifier_space_words: streaming_space + cap as usize + 3,
        ..CostReport::default()
    };
    let sum = drive_sumcheck(
        &mut prover,
        &mut core,
        expected_final,
        &mut report,
        sc_adversary,
    )
    .map_err(|e| Rejection::in_subprotocol("residual-sum-check", e))?;

    // --- Step 4: combine. ----------------------------------------------
    let h0 = F::from_u64(h(0));
    let value = sum + f_prime - F::from_u64(heavy.len() as u64) * h0;
    report.absorb(&hh_report);
    Ok(VerifiedFrequencyFn {
        value,
        heavy,
        report,
    })
}

/// `F₀` — the number of distinct items (Corollary 2): `h(0) = 0`,
/// `h(x) = 1` otherwise.
pub fn run_f0<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    threshold: u64,
    rng: &mut R,
) -> Result<VerifiedFrequencyFn<F>, Rejection> {
    run_frequency_fn(log_u, stream, &|x| u64::from(x > 0), threshold, rng)
}

/// Inverse-distribution point query (Corollary 2): the number of items
/// occurring exactly `k` times (`k ≥ 1`).
pub fn run_inverse_distribution<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    k: u64,
    threshold: u64,
    rng: &mut R,
) -> Result<VerifiedFrequencyFn<F>, Rejection> {
    assert!(k >= 1);
    run_frequency_fn(log_u, stream, &|x| u64::from(x == k), threshold, rng)
}

/// `F_max` — the largest frequency (Corollary 2).
///
/// The prover claims a lower bound `lb` by exhibiting an item of that
/// frequency, verified with the INDEX protocol; the frequency-based
/// protocol with `h(x) = [x > lb]` then certifies that *no* item exceeds
/// it.
pub fn run_fmax<F: PrimeField, R: Rng + ?Sized>(
    log_u: u32,
    stream: &[Update],
    threshold: u64,
    rng: &mut R,
) -> Result<VerifiedFrequencyFn<F>, Rejection> {
    let u = 1u64 << log_u;
    let fv = FrequencyVector::from_stream(u, stream);
    // Honest prover's claim: the argmax and its frequency.
    let (witness, lb) = fv
        .nonzero()
        .max_by_key(|&(_, f)| f)
        .map(|(i, f)| (i, f as u64))
        .unwrap_or((0, 0));
    // Verify the lower bound via INDEX.
    let index = crate::reporting::run_index::<F, R>(log_u, stream, witness, rng)
        .map_err(|e| Rejection::in_subprotocol("fmax-index", e))?;
    if index.value != F::from_u64(lb) {
        return Err(Rejection::StructuralCheckFailed {
            detail: "claimed F_max witness has a different frequency".to_string(),
        });
    }
    // Verify the upper bound: Σ [a_i > lb] must be zero.
    let mut got = run_frequency_fn::<F, R>(log_u, stream, &|x| u64::from(x > lb), threshold, rng)?;
    if got.value != F::ZERO {
        return Err(Rejection::StructuralCheckFailed {
            detail: "some item exceeds the claimed F_max".to_string(),
        });
    }
    got.value = F::from_u64(lb);
    got.report.absorb(&index.report);
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_field::Fp61;
    use sip_streaming::workloads;

    #[test]
    fn f0_matches_ground_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let log_u = 8;
        let stream = workloads::zipf(3_000, 1 << log_u, 1.2, 2);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        for threshold in [4u64, 16, 64] {
            let got = run_f0::<Fp61, _>(log_u, &stream, threshold, &mut rng).unwrap();
            assert_eq!(got.value, Fp61::from_u64(fv.f0()), "T={threshold}");
        }
    }

    #[test]
    fn f0_on_sparse_distinct_stream() {
        let mut rng = StdRng::seed_from_u64(2);
        let stream = workloads::distinct_keys(37, 1 << 9, 3);
        let got = run_f0::<Fp61, _>(9, &stream, 8, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(37));
    }

    #[test]
    fn inverse_distribution_point_queries() {
        let mut rng = StdRng::seed_from_u64(3);
        let log_u = 8;
        let stream = workloads::zipf(2_000, 1 << log_u, 1.1, 4);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        for k in [1u64, 2, 3, 7] {
            let got = run_inverse_distribution::<Fp61, _>(log_u, &stream, k, 16, &mut rng).unwrap();
            assert_eq!(
                got.value,
                Fp61::from_u64(fv.inverse_distribution(k as i64)),
                "k={k}"
            );
        }
    }

    #[test]
    fn fmax_matches_ground_truth() {
        let mut rng = StdRng::seed_from_u64(4);
        let log_u = 8;
        let stream = workloads::zipf(2_000, 1 << log_u, 1.3, 5);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let got = run_fmax::<Fp61, _>(log_u, &stream, 32, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(fv.fmax() as u64));
    }

    #[test]
    fn general_h_sum_of_cubes_capped() {
        // h(x) = x³ for x < T: compare against direct computation. Use a
        // stream whose frequencies all stay below T so h̃ is exact.
        let mut rng = StdRng::seed_from_u64(5);
        let log_u = 7;
        let stream = workloads::uniform(300, 1 << log_u, 1, 6);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let t = 64u64;
        assert!(fv.fmax() < t as i64);
        let got = run_frequency_fn::<Fp61, _>(log_u, &stream, &|x| x * x * x, t, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.frequency_moment(3) as u128));
    }

    #[test]
    fn nonzero_h0_counts_empty_slots() {
        // h(x) = 1 for all x: F(a) = u exactly (every slot contributes).
        let mut rng = StdRng::seed_from_u64(6);
        let log_u = 6;
        let stream = workloads::uniform(50, 1 << log_u, 3, 7);
        let got = run_frequency_fn::<Fp61, _>(log_u, &stream, &|_| 1, 8, &mut rng).unwrap();
        assert_eq!(got.value, Fp61::from_u64(1 << log_u));
    }

    #[test]
    fn heavy_items_reported_and_used() {
        let mut rng = StdRng::seed_from_u64(7);
        let log_u = 7;
        let mut stream = vec![Update::new(5, 500), Update::new(90, 300)];
        stream.extend(workloads::distinct_keys(40, 1 << log_u, 8));
        let got = run_f0::<Fp61, _>(log_u, &stream, 100, &mut rng).unwrap();
        let heavy_items: Vec<u64> = got.heavy.iter().map(|&(i, _)| i).collect();
        assert!(heavy_items.contains(&5) && heavy_items.contains(&90));
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        assert_eq!(got.value, Fp61::from_u64(fv.f0()));
    }

    #[test]
    fn tampered_sumcheck_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let stream = workloads::zipf(1_000, 1 << 7, 1.2, 9);
        let mut adv = |round: usize, msg: &mut Vec<Fp61>| {
            if round == 2 {
                msg[0] += Fp61::ONE;
            }
        };
        let res = run_frequency_fn_with_adversary::<Fp61, _>(
            7,
            &stream,
            &|x| u64::from(x > 0),
            16,
            &mut rng,
            None,
            Some(&mut adv),
        );
        assert!(matches!(
            res,
            Err(Rejection::SubProtocol {
                name: "residual-sum-check",
                ..
            })
        ));
    }

    #[test]
    fn tampered_heavy_hitters_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let stream = workloads::zipf(5_000, 1 << 7, 1.4, 10);
        let mut adv = |level: u32, disc: &mut crate::heavy_hitters::LevelDisclosure<Fp61>| {
            if level == 0 {
                if let Some(n) = disc.nodes.first_mut() {
                    n.count += 1;
                }
            }
        };
        let res = run_frequency_fn_with_adversary::<Fp61, _>(
            7,
            &stream,
            &|x| u64::from(x > 0),
            32,
            &mut rng,
            Some(&mut adv),
            None,
        );
        assert!(matches!(
            res,
            Err(Rejection::SubProtocol {
                name: "heavy-hitters",
                ..
            })
        ));
    }

    #[test]
    fn communication_scales_with_threshold() {
        // Theorem 6: the sum-check part costs exactly T·log u words
        // (T evaluations per round over log u rounds). Isolate it from the
        // heavy-hitters part by running that sub-protocol standalone.
        let mut rng = StdRng::seed_from_u64(10);
        let log_u = 8;
        let stream = workloads::zipf(2_000, 1 << log_u, 1.2, 11);
        for threshold in [4u64, 64] {
            let whole = run_f0::<Fp61, _>(log_u, &stream, threshold, &mut rng).unwrap();
            let hh_only = crate::heavy_hitters::run_heavy_hitters::<Fp61, _>(
                log_u, &stream, threshold, &mut rng,
            )
            .unwrap();
            let sumcheck_words = whole.report.p_to_v_words - hh_only.report.p_to_v_words;
            assert_eq!(
                sumcheck_words,
                threshold as usize * log_u as usize,
                "T={threshold}"
            );
        }
    }
}

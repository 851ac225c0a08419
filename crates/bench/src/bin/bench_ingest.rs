//! Verifier ingest throughput: the rate at which streamed digests absorb
//! updates — the ceiling on how much traffic the system can front, since
//! the verifier must stream past the data exactly once. Emitted as
//! machine-readable `BENCH_ingest.json` (plus human-readable CSV on
//! stdout).
//!
//! What is measured (updates/second, higher is better):
//!
//! * `single_point` — one `StreamingLdeEvaluator`: the historical
//!   per-update path with div/mod digit extraction
//!   (`weight_divmod`, the pre-ingest-engine baseline), the per-update
//!   path over the `DigitPlan`, and the batched delayed-reduction path;
//! * `multi_point` — a `MultiLdeEvaluator` at `k ∈ {1, 4, 16, 64}`
//!   points: the pre-PR baseline (`k` independent per-update evaluators,
//!   div/mod digits, eager reductions) against `update_batch`; the
//!   `k ≥ 8` speedup column is the ingest engine's headline number;
//! * `frequency_vector` — the honest prover's `apply` vs `apply_batch`
//!   rate, dense and sparse representations.
//!
//! Bases cover the paper's binary sweet spot (`ℓ = 2`), a larger
//! power-of-two (`ℓ = 16`, shift/mask plan), and a general base (`ℓ = 3`,
//! reciprocal plan). Batching never changes a digest value, only
//! wall-clock.
//!
//! Usage: `cargo run --release -p sip-bench --bin bench_ingest
//! [--stream-exp N] [--out PATH]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_bench::{arg_string, arg_u32, csv_header};
use sip_field::{Fp61, PrimeField};
use sip_lde::{LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip_streaming::{workloads, FrequencyVector, Update};

/// The `(ℓ, d)` shapes under measurement, sized to comparable universes.
fn shapes() -> Vec<LdeParams> {
    vec![
        LdeParams::new(2, 18),
        LdeParams::new(16, 5),
        LdeParams::new(3, 11),
    ]
}

/// Repeats `pass` (one full walk over `n` updates) until the total time is
/// trustworthy; returns updates/second.
fn rate(n: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up: page in tables
    let mut total = Duration::ZERO;
    let mut updates = 0u64;
    while total < Duration::from_millis(200) {
        let start = Instant::now();
        pass();
        total += start.elapsed();
        updates += n as u64;
    }
    updates as f64 / total.as_secs_f64()
}

struct SinglePoint {
    base: u64,
    d: u32,
    divmod_ups: f64,
    plan_ups: f64,
    batched_ups: f64,
}

fn measure_single(params: LdeParams, stream: &[Update]) -> SinglePoint {
    let mut rng = StdRng::seed_from_u64(params.base());
    let eval = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
    let n = stream.len();
    // Pre-PR baseline: per-update, div/mod digits, eager reduction.
    let divmod_ups = rate(n, || {
        let mut acc = Fp61::ZERO;
        for up in stream {
            acc += Fp61::from_i64(up.delta) * eval.weight_divmod(up.index);
        }
        std::hint::black_box(acc);
    });
    let plan_ups = rate(n, || {
        let mut e = eval.clone();
        e.update_all(stream);
        std::hint::black_box(e.value());
    });
    let batched_ups = rate(n, || {
        let mut e = eval.clone();
        e.update_batch(stream);
        std::hint::black_box(e.value());
    });
    SinglePoint {
        base: params.base(),
        d: params.dimension(),
        divmod_ups,
        plan_ups,
        batched_ups,
    }
}

struct MultiPoint {
    base: u64,
    k: usize,
    baseline_ups: f64,
    batched_ups: f64,
    speedup: f64,
}

fn measure_multi(params: LdeParams, stream: &[Update], k: usize) -> MultiPoint {
    let mut rng = StdRng::seed_from_u64(41 + k as u64);
    let multi = MultiLdeEvaluator::<Fp61>::random(params, k, &mut rng);
    let singles: Vec<StreamingLdeEvaluator<Fp61>> = (0..k)
        .map(|p| StreamingLdeEvaluator::new(params, multi.point(p).to_vec()))
        .collect();
    let n = stream.len();
    // Pre-PR path: k independent evaluators, each re-deriving the digits
    // by div/mod and reducing eagerly per update.
    let baseline_ups = rate(n, || {
        let mut accs = vec![Fp61::ZERO; k];
        for up in stream {
            let delta = Fp61::from_i64(up.delta);
            for (e, acc) in singles.iter().zip(accs.iter_mut()) {
                *acc += delta * e.weight_divmod(up.index);
            }
        }
        std::hint::black_box(accs);
    });
    let batched_ups = rate(n, || {
        let mut e = multi.clone();
        e.update_batch(stream);
        std::hint::black_box(e.values());
    });
    MultiPoint {
        base: params.base(),
        k,
        baseline_ups,
        batched_ups,
        speedup: batched_ups / baseline_ups,
    }
}

struct FvPoint {
    repr: &'static str,
    per_update_ups: f64,
    batched_ups: f64,
}

fn measure_fv(u: u64, stream: &[Update], repr: &'static str) -> FvPoint {
    let make = move || {
        if repr == "dense" {
            FrequencyVector::new(u)
        } else {
            FrequencyVector::new_sparse(u.max(1 << 23)) // stays sparse
        }
    };
    let n = stream.len();
    let per_update_ups = rate(n, || {
        let mut fv = make();
        for &up in stream {
            fv.apply(up);
        }
        std::hint::black_box(fv.support_size());
    });
    let batched_ups = rate(n, || {
        let mut fv = make();
        fv.apply_batch(stream);
        std::hint::black_box(fv.support_size());
    });
    FvPoint {
        repr,
        per_update_ups,
        batched_ups,
    }
}

fn main() {
    let stream_exp = arg_u32("--stream-exp", 17); // 2^17 = 131072 updates
    let out_path = arg_string("--out", "BENCH_ingest.json");
    let n = 1usize << stream_exp;

    let mut singles = Vec::new();
    let mut multis = Vec::new();
    println!("# single-point ingest (updates/sec)");
    csv_header(&["base", "d", "divmod_ups", "plan_ups", "batched_ups"]);
    for params in shapes() {
        let stream = workloads::with_deletions(n, params.universe(), 0.2, 7);
        let p = measure_single(params, &stream);
        println!(
            "{},{},{:.0},{:.0},{:.0}",
            p.base, p.d, p.divmod_ups, p.plan_ups, p.batched_ups
        );
        singles.push(p);

        for k in [1usize, 4, 16, 64] {
            // Scale the walked stream down with k so each measurement
            // stays in budget; rates are per-update either way.
            let piece = &stream[..(n / k.max(1)).max(1 << 12).min(stream.len())];
            multis.push(measure_multi(params, piece, k));
        }
    }
    println!("\n# multi-point ingest (updates/sec)");
    csv_header(&["base", "k", "baseline_ups", "batched_ups", "speedup"]);
    for p in &multis {
        println!(
            "{},{},{:.0},{:.0},{:.2}",
            p.base, p.k, p.baseline_ups, p.batched_ups, p.speedup
        );
    }

    println!("\n# frequency-vector ingest (updates/sec)");
    csv_header(&["repr", "per_update_ups", "batched_ups"]);
    let u = 1u64 << 18;
    let fv_stream = workloads::uniform(n, u, 100, 9);
    let mut fvs = Vec::new();
    for repr in ["dense", "sparse"] {
        let p = measure_fv(u, &fv_stream, repr);
        println!("{},{:.0},{:.0}", p.repr, p.per_update_ups, p.batched_ups);
        fvs.push(p);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"ingest\",");
    let _ = writeln!(json, "  \"field\": \"Fp61\",");
    let _ = writeln!(json, "  \"stream_updates\": {n},");
    json.push_str("  \"single_point\": [\n");
    for (i, p) in singles.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"base\": {}, \"d\": {}, \"divmod_ups\": {:.0}, \"plan_ups\": {:.0}, \
             \"batched_ups\": {:.0}}}{}",
            p.base,
            p.d,
            p.divmod_ups,
            p.plan_ups,
            p.batched_ups,
            if i + 1 < singles.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"multi_point\": [\n");
    for (i, p) in multis.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"base\": {}, \"k\": {}, \"baseline_ups\": {:.0}, \
             \"batched_ups\": {:.0}, \"speedup\": {:.2}}}{}",
            p.base,
            p.k,
            p.baseline_ups,
            p.batched_ups,
            p.speedup,
            if i + 1 < multis.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"frequency_vector\": [\n");
    for (i, p) in fvs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"repr\": \"{}\", \"per_update_ups\": {:.0}, \"batched_ups\": {:.0}}}{}",
            p.repr,
            p.per_update_ups,
            p.batched_ups,
            if i + 1 < fvs.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_ingest.json");
    eprintln!("# wrote {out_path}");
}

//! Footnote 1 ablation: the space ↔ communication trade-off of the
//! `(ℓ, d)` parameterisation for F₂.
//!
//! `ℓ = 2` minimises communication; larger ℓ shortens the conversation
//! (fewer rounds) at the price of longer messages and more verifier space,
//! degenerating into the one-round `ℓ = √u` baseline. The paper calls
//! `ℓ = 2` "probably the most economical tradeoff" — this sweep shows why.
//!
//! Run: `cargo run --release -p sip-bench --bin fig_ell_tradeoff [--log-u 16]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_bench::{arg_u32, csv_header, time_once};
use sip_core::sumcheck::general_ell::run_general_f2;
use sip_field::Fp61;
use sip_lde::LdeParams;
use sip_streaming::workloads;

const WORD: usize = 8;

fn main() {
    let log_u = arg_u32("--log-u", 16);
    let u = 1u64 << log_u;
    let stream = workloads::paper_f2(u, 3);
    println!("# Footnote 1: (ℓ, d) sweep for F2 at u = 2^{log_u}");
    csv_header(&[
        "ell",
        "d",
        "rounds",
        "comm_bytes",
        "space_bytes",
        "wall_secs",
    ]);
    let mut rng = StdRng::seed_from_u64(4);
    // `log u / 2` is the one-round end; at `log u = 8` it is already 4.
    let mut log_ells = vec![1u32, 2, 4, log_u / 2];
    log_ells.dedup();
    for log_ell in log_ells {
        let ell = 1u64 << log_ell;
        let d = log_u / log_ell;
        if ell.pow(d) < u {
            continue; // parameterisation doesn't cover the universe
        }
        let params = LdeParams::new(ell, d);
        let (res, t) = time_once(|| run_general_f2::<Fp61, _>(params, &stream, &mut rng));
        let res = res.expect("honest prover accepted");
        println!(
            "{ell},{d},{},{},{},{:.4}",
            res.report.rounds,
            res.report.total_words() * WORD,
            res.report.verifier_space_words * WORD,
            t.as_secs_f64()
        );
    }
    println!("# communication minimised at ℓ = 2; space grows with ℓ (O(d + ℓ))");
}

//! Layer replay: the traced pass's last lap hands over its stream and the
//! frames it saw on the wire, and each layer's public functions are run on
//! them in-process, alone, with nothing else on the machine to wait for.
//!
//! This is how time the client only ever observes as "blocked in `recv`" is
//! attributed: the prover-side work (`streaming` apply, `core` prover build
//! and fold rounds, one-shot sealing) and the codec work (`wire` encode and
//! decode of the very frames recorded) are re-executed here, and whatever
//! of the observed wait they do not explain is `server.session_residual_ms`
//! — sockets, scheduling, session bookkeeping.
//!
//! Every figure is the median of at least [`MIN_REPS`] repetitions (fewer
//! only when a single repetition is so slow that [`REP_BUDGET`] runs out).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_core::subvector::{Step, SubVectorProver, SubVectorVerifier};
use sip_core::sumcheck::f2::{F2Prover, F2Verifier};
use sip_core::sumcheck::range_sum::RangeSumProver;
use sip_core::sumcheck::{prove_oneshot, ProverWalk, RoundProver};
use sip_core::transcript::query_transcript;
use sip_durable::{snapshot_from_bytes, snapshot_to_bytes};
use sip_field::{Fp61, PrimeField};
use sip_kvstore::{Client, QueryBudget};
use sip_lde::{LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip_streaming::{FrequencyVector, ShardPlan, Update};
use sip_wire::{Msg, WireCodec};

use crate::transport::Recorded;
use crate::workloads::{Measured, INGEST_CHUNK, OWNER_DIGESTS, PROVISION_POINTS};

/// Repetitions behind every replayed figure.
pub const MIN_REPS: usize = 30;
/// Wall-clock cap per figure; only a repetition slower than
/// `REP_BUDGET / MIN_REPS` ever hits it.
const REP_BUDGET: Duration = Duration::from_millis(600);
/// Updates fed to the throughput replays (a prefix of the lap's stream).
const THROUGHPUT_SAMPLE: usize = 1 << 16;

/// What a lap hands to the replay.
pub struct ReplayInput {
    /// Universe exponent of the lap.
    pub log_u: u32,
    /// The lap's whole stream (for kv: the encoded `value + 1` updates).
    pub stream: Vec<Update>,
    /// Frames sampled off the lap's main connection.
    pub recorded: Recorded,
    /// Whether the lap drove the kv store (adds the sub-vector replay).
    pub kv_budget: Option<QueryBudget>,
}

impl ReplayInput {
    /// Replay input of a raw-stream lap.
    pub fn stream(log_u: u32, stream: Vec<Update>, recorded: Recorded) -> Self {
        ReplayInput {
            log_u,
            stream,
            recorded,
            kv_budget: None,
        }
    }
}

/// Runs `f` — which times the part it cares about and returns that — until
/// [`MIN_REPS`] samples exist, or five do and [`REP_BUDGET`] is spent.
/// Returns the samples in seconds.
fn reps(mut f: impl FnMut() -> Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(MIN_REPS);
    while samples.len() < MIN_REPS && (samples.len() < 5 || start.elapsed() < REP_BUDGET) {
        samples.push(f().as_secs_f64());
    }
    samples
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// Median seconds per repetition, scaled by `scale` (e.g. `1e3` for ms).
fn per_rep(samples: &[f64], scale: f64) -> Measured {
    Measured::median_of(&samples.iter().map(|s| s * scale).collect::<Vec<_>>())
}

/// `items` per median repetition, divided by `unit` (1 for `1/s`, 1e6 for
/// `M/s`).
fn rate(samples: &[f64], items: f64, unit: f64) -> Measured {
    Measured::median_of(&samples.iter().map(|s| items / s / unit).collect::<Vec<_>>())
}

/// The server's ingest path, reproduced: a sparse vector fed chunk by chunk.
fn server_side_vector(log_u: u32, stream: &[Update]) -> FrequencyVector {
    let mut fv = FrequencyVector::new_sparse(1u64 << log_u);
    for chunk in stream.chunks(INGEST_CHUNK) {
        fv.apply_batch(chunk);
    }
    fv
}

fn walk(prover: &mut dyn RoundProver<Fp61>, challenges: &[Fp61]) {
    for &r in challenges {
        black_box(prover.message());
        prover.bind(r);
    }
    black_box(prover.message());
}

/// Replays every layer over `input`; returns metric name → figure.
pub fn run(input: &ReplayInput) -> BTreeMap<&'static str, Measured> {
    let mut out = BTreeMap::new();
    let log_u = input.log_u;
    let u = 1u64 << log_u;
    let params = LdeParams::binary(log_u);
    let mut rng = StdRng::seed_from_u64(0x51b_bec4);
    let sample = &input.stream[..input.stream.len().min(THROUGHPUT_SAMPLE)];
    let n = sample.len() as f64;

    // ---- field ----
    let xs: Vec<Fp61> = (0..1 << 16).map(|_| Fp61::random(&mut rng)).collect();
    let ys: Vec<Fp61> = (0..1 << 16).map(|_| Fp61::random(&mut rng)).collect();
    let dot = reps(|| {
        timed(|| {
            let mut acc = <Fp61 as PrimeField>::DotAcc::default();
            for (&x, &y) in xs.iter().zip(&ys) {
                Fp61::acc_add_prod(&mut acc, x, y);
            }
            Fp61::acc_finish(acc)
        })
    });
    out.insert("field.dot_melems_per_s", rate(&dot, xs.len() as f64, 1e6));
    let chain = reps(|| {
        timed(|| {
            // A dependent chain: latency of one reduced multiply-add.
            let mut x = xs[0];
            for &y in &ys {
                x = x * y + y;
            }
            x
        })
    });
    out.insert("field.mul_add_ns", per_rep(&chain, 1e9 / ys.len() as f64));

    // ---- lde ----
    for (name, k) in [
        ("lde.multi_k16_updates_per_s", OWNER_DIGESTS),
        ("lde.multi_k64_digest_updates_per_s", PROVISION_POINTS),
    ] {
        let samples = reps(|| {
            let mut multi = MultiLdeEvaluator::<Fp61>::random(params, k, &mut rng);
            timed(|| {
                for chunk in sample.chunks(INGEST_CHUNK) {
                    multi.update_batch(chunk);
                }
                multi.value(0)
            })
        });
        out.insert(name, rate(&samples, n, 1.0));
    }
    let single = reps(|| {
        let mut lde = StreamingLdeEvaluator::<Fp61>::random(params, &mut rng);
        timed(|| {
            lde.update_batch(sample);
            lde.value()
        })
    });
    out.insert("lde.single_updates_per_s", rate(&single, n, 1.0));
    let table = reps(|| {
        timed(|| MultiLdeEvaluator::<Fp61>::random(params, OWNER_DIGESTS, &mut rng).num_points())
    });
    out.insert("lde.table_build_us", per_rep(&table, 1e6));

    // ---- streaming ----
    let apply = reps(|| timed(|| server_side_vector(log_u, sample).support_size()));
    out.insert("streaming.apply_batch_updates_per_s", rate(&apply, n, 1.0));
    if log_u >= 1 {
        let plan = ShardPlan::new(log_u, 2);
        let split = reps(|| timed(|| plan.split(sample).len()));
        out.insert("streaming.split_updates_per_s", rate(&split, n, 1.0));
    }

    // ---- core: the prover the server builds for every query ----
    let fv = server_side_vector(log_u, &input.stream);
    let challenges: Vec<Fp61> = (1..log_u).map(|_| Fp61::random(&mut rng)).collect();
    let build = reps(|| timed(|| F2Prover::<Fp61>::new(&fv, log_u).rounds()));
    out.insert("core.f2_prover_build_ms", per_rep(&build, 1e3));
    let template = F2Prover::<Fp61>::new(&fv, log_u);
    let rounds = reps(|| {
        let mut prover = template.clone();
        timed(|| walk(&mut prover, &challenges))
    });
    out.insert("core.f2_prover_rounds_ms", per_rep(&rounds, 1e3));
    // Round j folds 2^(log_u − j) pairs: 2^log_u − 1 in all.
    out.insert("core.fold_mpairs_per_s", rate(&rounds, (u - 1) as f64, 1e6));
    let (q_l, q_r) = (u / 4, u / 4 * 3);
    let range = reps(|| {
        timed(|| {
            let mut prover = RangeSumProver::<Fp61>::new(&fv, log_u, q_l, q_r);
            walk(&mut prover, &challenges);
        })
    });
    out.insert("core.range_sum_prover_ms", per_rep(&range, 1e3));
    let transcript = || query_transcript::<Fp61>("self-join", log_u, None, &[], &challenges);
    let seal = reps(|| {
        timed(|| {
            let mut prover = F2Prover::<Fp61>::new(&fv, log_u);
            prove_oneshot(&mut ProverWalk(&mut prover), transcript(), &challenges, 2)
                .expect("an honest walk cannot fail")
                .words()
        })
    });
    out.insert("core.oneshot_prove_ms", per_rep(&seal, 1e3));

    // ---- core: the verifier's side of the same query ----
    // A digest at a point whose prefix is `challenges`, so the sealed proof
    // and the interactive transcript both verify against it.
    let mut point = challenges.clone();
    point.push(Fp61::random(&mut rng));
    let mut digest = StreamingLdeEvaluator::<Fp61>::new(params, point);
    digest.update_batch(&input.stream);
    let verifier = F2Verifier::from_evaluator(digest);
    let proof = {
        let mut prover = template.clone();
        prove_oneshot(&mut ProverWalk(&mut prover), transcript(), &challenges, 2)
            .expect("an honest walk cannot fail")
    };
    let verify = reps(|| {
        let (core, expected) = verifier.clone().into_session();
        let t = transcript();
        timed(|| {
            core.verify_oneshot(expected, t, &proof)
                .expect("the replayed proof verifies")
        })
    });
    out.insert("core.oneshot_verify_us", per_rep(&verify, 1e6));
    let hash = reps(|| {
        timed(|| {
            let mut t = transcript();
            t.absorb_field("claimed", proof.claimed);
            for g in &proof.rounds {
                t.absorb_fields("round-poly", g);
            }
            t.digest()
        })
    });
    out.insert("core.transcript_us", per_rep(&hash, 1e6));
    let interactive = reps(|| {
        let (mut core, expected) = verifier.clone().into_session();
        timed(|| {
            for g in &proof.rounds {
                core.receive(g).expect("the replayed rounds verify");
            }
            core.finalize(expected)
                .expect("the replayed claim verifies")
        })
    });
    out.insert("core.verifier_rounds_us", per_rep(&interactive, 1e6));

    // ---- core + kvstore: the sub-vector protocol behind kv reads ----
    if let Some(budget) = input.kv_budget {
        let key = input.stream[input.stream.len() / 2].index;
        let mut prover_s = Vec::new();
        let mut verifier_s = Vec::new();
        let base = SubVectorVerifier::<Fp61>::new(log_u, &mut rng);
        let mut loaded = base.clone();
        loaded.update_batch(&input.stream);
        for _ in 0..MIN_REPS {
            let (mut p, mut v) = (Duration::ZERO, Duration::ZERO);
            let mut session = loaded.clone().into_session(key, key);
            // The server builds a fresh prover (one table fold-down) per query.
            let t = Instant::now();
            let mut prover = SubVectorProver::<Fp61>::new(&fv, log_u);
            let answer = prover.answer(key, key);
            p += t.elapsed();
            let t = Instant::now();
            let mut step = session
                .receive_answer(&answer, None)
                .expect("honest answer");
            v += t.elapsed();
            while let Step::Request(req) = step {
                let t = Instant::now();
                let reply = prover.process_round(&req);
                p += t.elapsed();
                let t = Instant::now();
                step = session.receive_reply(&req, &reply).expect("honest reply");
                v += t.elapsed();
            }
            prover_s.push(p.as_secs_f64());
            verifier_s.push(v.as_secs_f64());
        }
        out.insert("core.subvector_prover_ms", per_rep(&prover_s, 1e3));
        out.insert("core.subvector_verify_us", per_rep(&verifier_s, 1e6));

        let pairs: Vec<(u64, u64)> = sample
            .iter()
            .take(1 << 12)
            .map(|up| (up.index, (up.delta - 1) as u64))
            .collect();
        let observe = reps(|| {
            let mut client = Client::<Fp61>::new(log_u, budget, &mut rng);
            timed(|| {
                client.observe_batch(&pairs);
                client.puts()
            })
        });
        out.insert(
            "kvstore.observe_batch_puts_per_s",
            rate(&observe, pairs.len() as f64, 1.0),
        );
    }

    // ---- wire: the very frames the lap exchanged ----
    codec(&input.recorded, &mut out);

    // ---- durable: an owner's sixteen digests as a checkpoint ----
    let mut owner = MultiLdeEvaluator::<Fp61>::random(params, OWNER_DIGESTS, &mut rng);
    owner.update_batch(sample);
    let bytes = snapshot_to_bytes(&owner);
    out.insert(
        "durable.digest_snapshot_bytes",
        Measured::exact(bytes.len() as f64, 1),
    );
    let encode = reps(|| timed(|| snapshot_to_bytes(&owner).len()));
    out.insert("durable.digest_encode_us", per_rep(&encode, 1e6));
    let restore = reps(|| {
        timed(|| {
            snapshot_from_bytes::<MultiLdeEvaluator<Fp61>>(&bytes)
                .expect("own snapshot restores")
                .num_points()
        })
    });
    out.insert("durable.digest_restore_us", per_rep(&restore, 1e6));
    out
}

/// Decodes and re-encodes the recorded frames, grouped by message kind.
fn codec(recorded: &Recorded, out: &mut BTreeMap<&'static str, Measured>) {
    let decode_all = |frames: &[Vec<u8>]| -> Vec<(Vec<u8>, Msg<Fp61>)> {
        frames
            .iter()
            .filter_map(|f| Msg::<Fp61>::from_bytes(f).ok().map(|m| (f.clone(), m)))
            .collect()
    };
    let sent = decode_all(&recorded.sent);
    let received = decode_all(&recorded.received);
    let of_kind = |set: &[(Vec<u8>, Msg<Fp61>)], kind: &str| -> Vec<(Vec<u8>, Msg<Fp61>)> {
        set.iter()
            .filter(|(_, m)| m.name() == kind)
            .take(64)
            .cloned()
            .collect()
    };
    let decode_ns = |set: &[(Vec<u8>, Msg<Fp61>)]| -> Vec<f64> {
        reps(|| {
            timed(|| {
                for (frame, _) in set {
                    black_box(Msg::<Fp61>::from_bytes(frame).is_ok());
                }
            })
        })
    };
    let encode_ns = |set: &[(Vec<u8>, Msg<Fp61>)]| -> Vec<f64> {
        reps(|| {
            timed(|| {
                for (_, msg) in set {
                    black_box(msg.to_bytes().len());
                }
            })
        })
    };

    // Bulk ingest: client encodes, server decodes.
    let ingest = of_kind(&sent, "ingest");
    let updates: usize = ingest
        .iter()
        .map(|(_, m)| match m {
            Msg::Ingest(ups) => ups.len(),
            _ => 0,
        })
        .sum();
    if updates > 0 {
        let per_update = 1e9 / updates as f64;
        out.insert(
            "wire.encode_ingest_ns_per_update",
            per_rep(&encode_ns(&ingest), per_update),
        );
        out.insert(
            "wire.decode_ingest_ns_per_update",
            per_rep(&decode_ns(&ingest), per_update),
        );
    }
    // One interactive round on the wire: a challenge out, a polynomial back.
    // Sharded sessions broadcast the challenge; the kv store's sub-vector
    // rounds are a request out and a pair of sibling hashes back.
    let mut challenge = of_kind(&sent, "challenge");
    challenge.extend(of_kind(&sent, "broadcast-challenge"));
    challenge.extend(of_kind(&sent, "subvector-round"));
    let mut poly = of_kind(&received, "round-poly");
    poly.extend(of_kind(&received, "subvector-reply"));
    if !challenge.is_empty() && !poly.is_empty() {
        let per = |samples: Vec<f64>, n: usize| per_rep(&samples, 1e9 / n as f64);
        let enc_c = per(encode_ns(&challenge), challenge.len());
        let enc_p = per(encode_ns(&poly), poly.len());
        let dec_c = per(decode_ns(&challenge), challenge.len());
        let dec_p = per(decode_ns(&poly), poly.len());
        let sum = |a: Measured, b: Measured| Measured {
            value: a.value + b.value,
            samples: a.samples.min(b.samples),
            rel_iqr: a.rel_iqr.max(b.rel_iqr),
        };
        out.insert("wire.encode_round_ns", sum(enc_c, enc_p));
        out.insert("wire.decode_round_ns", sum(dec_c, dec_p));
    }
    let proofs = of_kind(&received, "proof");
    if !proofs.is_empty() {
        out.insert(
            "wire.decode_proof_ns",
            per_rep(&decode_ns(&proofs), 1e9 / proofs.len() as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_covers_every_layer_on_a_small_stream() {
        let log_u = 8;
        let stream = sip_streaming::workloads::distinct_key_values(64, 1 << log_u, 50, 3)
            .into_iter()
            .map(|up| Update::new(up.index, up.delta + 1))
            .collect::<Vec<_>>();
        let ingest = Msg::<Fp61>::Ingest(stream.clone()).to_bytes();
        let recorded = Recorded {
            sent: vec![ingest, Msg::<Fp61>::Challenge(Fp61::from_u64(9)).to_bytes()],
            received: vec![
                Msg::<Fp61>::RoundPoly(vec![Fp61::ONE; 3]).to_bytes(),
                vec![0xFF, 0xFF], // undecodable frames are skipped, not fatal
            ],
        };
        let input = ReplayInput {
            log_u,
            stream,
            recorded,
            kv_budget: Some(QueryBudget {
                reporting: 2,
                aggregate: 1,
                heavy: 0,
            }),
        };
        let out = run(&input);
        for name in [
            "field.dot_melems_per_s",
            "lde.multi_k16_updates_per_s",
            "streaming.apply_batch_updates_per_s",
            "core.f2_prover_build_ms",
            "core.oneshot_verify_us",
            "core.subvector_prover_ms",
            "kvstore.observe_batch_puts_per_s",
            "wire.encode_ingest_ns_per_update",
            "wire.decode_round_ns",
            "durable.digest_restore_us",
        ] {
            let m = out.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(m.value > 0.0, "{name} = {}", m.value);
            assert!(m.samples >= 1);
        }
        assert!(
            !out.contains_key("wire.decode_proof_ns"),
            "no proof recorded"
        );
        for name in out.keys() {
            assert!(
                crate::report::PER_LAYER.iter().any(|d| d.name == *name),
                "{name} is not in the catalogue"
            );
        }
    }
}

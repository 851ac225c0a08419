//! Observability overhead: the fold hot path, measured with the metrics
//! layer enabled and disabled. The ISSUE's budget is a
//! ≤ 2% throughput cost — `--check-overhead 2.0` turns that budget into
//! an exit code so CI can gate on it. Emitted as machine-readable
//! `BENCH_obs.json` (plus human-readable CSV on stdout).
//!
//! What is measured:
//!
//! * `fold` — a full `F2Prover` round-message schedule (round 1 through
//!   [`sip_core::engine::fold_message`], every later message out of the
//!   fused [`sip_core::engine::bind_message`] pass), messages/second;
//! * `fold+trace` — the same path with span tracing live as well (the
//!   `--trace` deployment), against the same fully-dark baseline, so the
//!   gate also covers the tracing-enabled hot path;
//! * `ingest+scrape` — a `MultiLdeEvaluator` absorbing batches (the
//!   verifier's multi-point digest ingest, which carries no
//!   instrumentation of its own) while a live `sip-fleetobs` scrape loop
//!   polls this process's own ops port on an aggressive 100 ms interval,
//!   against the same path with no scraper: what being *watched* costs a
//!   busy process (metrics stay on in both modes);
//! * `snapshot` — how long one `/metrics` (Prometheus text) and one
//!   `/stats` (JSON) rendering of the live registry takes, microseconds.
//!
//! Method: many short (~100 ms) trials alternate enabled/disabled and
//! each mode keeps its *best* rate — timing noise on a shared box is
//! one-sided (disturbances only slow a window down), so best-vs-best
//! cancels it. Overhead is `(off − on) / off`, clamped at zero (the
//! sampled timers sit off the hot loop, so sub-noise differences
//! routinely land slightly negative). A path over the `--check-overhead`
//! budget is re-measured once with doubled trials, and the re-measured
//! figure is what the JSON records and the exit code judges — one number.
//!
//! Usage: `cargo run --release -p sip-bench --bin bench_obs
//! [--stream-exp N] [--trials T] [--out PATH] [--check-overhead PCT]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_bench::{arg_string, arg_u32, csv_header};
use sip_core::sumcheck::f2::F2Prover;
use sip_core::sumcheck::RoundProver;
use sip_field::{Fp61, PrimeField};
use sip_lde::{LdeParams, MultiLdeEvaluator};
use sip_streaming::{workloads, FrequencyVector};

/// Repeats `pass` (one walk over `n` items) until the total is
/// trustworthy; returns items/second.
fn rate(n: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up: page in tables
    let mut total = Duration::ZERO;
    let mut items = 0u64;
    while total < Duration::from_millis(100) {
        let start = Instant::now();
        pass();
        total += start.elapsed();
        items += n as u64;
    }
    items as f64 / total.as_secs_f64()
}

struct Overhead {
    path: &'static str,
    /// Best items/second with the metrics layer live.
    enabled: f64,
    /// Best items/second with `sip_obs::set_enabled(false)`.
    disabled: f64,
    overhead_pct: f64,
}

/// Alternates enabled/disabled trials of `pass`, keeping each mode's best.
/// With `trace`, the enabled mode also runs with span tracing live — the
/// worst-case instrumentation cost (metrics *and* span records on the hot
/// path) against the same fully-dark baseline.
fn measure(
    path: &'static str,
    trials: u32,
    n: usize,
    trace: bool,
    mut pass: impl FnMut(),
) -> Overhead {
    let mut best = [0f64; 2]; // [disabled, enabled]
    for trial in 0..trials.max(1) * 2 {
        let on = trial % 2 == 1;
        sip_obs::set_enabled(on);
        sip_obs::trace::set_tracing(on && trace);
        let r = rate(n, &mut pass);
        if trace {
            // Drain the span buffers between trials so a long run measures
            // steady-state recording, not an ever-fuller buffer.
            sip_obs::trace::take_spans();
        }
        let slot = &mut best[on as usize];
        *slot = slot.max(r);
    }
    sip_obs::set_enabled(true);
    sip_obs::trace::set_tracing(false);
    let [disabled, enabled] = best;
    Overhead {
        path,
        enabled,
        disabled,
        overhead_pct: (100.0 * (disabled - enabled) / disabled).max(0.0),
    }
}

fn measure_fold(path: &'static str, trials: u32, log_u: u32, trace: bool) -> Overhead {
    let stream = workloads::paper_f2(1 << log_u, 11);
    let fv = FrequencyVector::from_stream(1 << log_u, &stream);
    measure(path, trials, log_u as usize, trace, || {
        let mut prover = F2Prover::<Fp61>::new(&fv, log_u);
        for round in 0..log_u {
            std::hint::black_box(prover.message());
            if round + 1 < log_u {
                prover.bind(Fp61::from_u64(round as u64 + 3));
            }
        }
    })
}

/// A multi-point ingest pass (one `update_batch` per wire frame's worth
/// of updates), measured while a real fleet scraper polls this process's
/// own ops port every 100 ms (attempts, timeouts and all) versus
/// unwatched. Metrics stay enabled in both modes — the delta is
/// purely what *being scraped* costs the serving hot path. The registry
/// render and both HTTP round trips happen on ops/scraper threads, so on
/// any multi-core box this should be deep inside the noise floor.
fn measure_scrape(trials: u32, stream_exp: u32) -> Overhead {
    use sip_fleetobs::{FleetConfig, FleetScraper, Target};

    let params = LdeParams::new(2, 18);
    let n = 1usize << stream_exp;
    let stream = workloads::with_deletions(n, params.universe(), 0.2, 7);
    let mut rng = StdRng::seed_from_u64(23);
    let multi = MultiLdeEvaluator::<Fp61>::random(params, 4, &mut rng);
    let mut pass = || {
        let mut e = multi.clone();
        for batch in stream.chunks(4096) {
            e.update_batch(batch);
        }
        std::hint::black_box(e.values());
    };

    sip_obs::set_enabled(true);
    let ops = sip_obs::serve_ops("127.0.0.1:0").expect("bind ops listener");
    let target = Target {
        shard: 0,
        replica: 0,
        addr: ops.local_addr().to_string(),
    };
    let mut best = [0f64; 2]; // [unwatched, watched]
    for trial in 0..trials.max(1) * 2 {
        let watched = trial % 2 == 1;
        let loop_handle = watched.then(|| {
            let config = FleetConfig {
                interval: Duration::from_millis(100),
                ..FleetConfig::default()
            };
            FleetScraper::new(config, vec![target.clone()]).start()
        });
        let r = rate(n, &mut pass);
        if let Some(h) = loop_handle {
            h.shutdown();
        }
        let slot = &mut best[watched as usize];
        *slot = slot.max(r);
    }
    ops.shutdown();
    let [disabled, enabled] = best;
    Overhead {
        path: "ingest+scrape",
        enabled,
        disabled,
        overhead_pct: (100.0 * (disabled - enabled) / disabled).max(0.0),
    }
}

struct SnapshotPoint {
    prometheus_us: f64,
    json_us: f64,
}

/// One rendering of the (now well-populated) global registry — the cost a
/// scrape imposes on the ops thread, never on a serving session.
fn measure_snapshot() -> SnapshotPoint {
    let reg = sip_obs::registry();
    let us = |f: &mut dyn FnMut() -> String| {
        let mut total = Duration::ZERO;
        let mut count = 0u64;
        while total < Duration::from_millis(50) {
            let start = Instant::now();
            std::hint::black_box(f());
            total += start.elapsed();
            count += 1;
        }
        total.as_secs_f64() * 1e6 / count as f64
    };
    SnapshotPoint {
        prometheus_us: us(&mut || reg.render_prometheus()),
        json_us: us(&mut || reg.snapshot_json()),
    }
}

fn main() {
    let stream_exp = arg_u32("--stream-exp", 16); // 2^16 = 65536 updates
    let log_u = arg_u32("--log-u", 16);
    let trials = arg_u32("--trials", 8);
    let out_path = arg_string("--out", "BENCH_obs.json");
    let check: Option<f64> = {
        let s = arg_string("--check-overhead", "");
        if s.is_empty() {
            None
        } else {
            Some(s.parse().expect("--check-overhead takes a percentage"))
        }
    };

    let mut points = [
        measure_fold("fold", trials, log_u, false),
        measure_fold("fold+trace", trials, log_u, true),
        measure_scrape(trials, stream_exp),
    ];
    // One disturbed window can fake an overhead on a shared box: a path
    // over the budget is measured once more with doubled trials, and that
    // second figure is the one printed, recorded and gated on — the JSON
    // never holds a number the gate did not judge.
    if let Some(budget) = check {
        for p in points.iter_mut().filter(|p| p.overhead_pct > budget) {
            eprintln!(
                "# {} overhead {:.2}% over budget — re-measuring with {} trials",
                p.path,
                p.overhead_pct,
                trials * 2
            );
            *p = match p.path {
                "ingest+scrape" => measure_scrape(trials * 2, stream_exp),
                "fold" => measure_fold("fold", trials * 2, log_u, false),
                _ => measure_fold("fold+trace", trials * 2, log_u, true),
            };
        }
    }

    println!("# instrumentation overhead (best-of-{trials} per mode)");
    csv_header(&["path", "enabled_rate", "disabled_rate", "overhead_pct"]);
    for p in &points {
        println!(
            "{},{:.0},{:.0},{:.2}",
            p.path, p.enabled, p.disabled, p.overhead_pct
        );
    }

    let snap = measure_snapshot();
    println!("\n# registry snapshot latency (µs per rendering)");
    csv_header(&["prometheus_us", "json_us"]);
    println!("{:.1},{:.1}", snap.prometheus_us, snap.json_us);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"obs\",");
    let _ = writeln!(json, "  \"field\": \"Fp61\",");
    let _ = writeln!(
        json,
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"trials_per_mode\": {trials},");
    json.push_str("  \"overhead\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"path\": \"{}\", \"enabled_rate\": {:.0}, \"disabled_rate\": {:.0}, \
             \"overhead_pct\": {:.2}}}{}",
            p.path,
            p.enabled,
            p.disabled,
            p.overhead_pct,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"snapshot\": {{\"prometheus_us\": {:.1}, \"json_us\": {:.1}}}",
        snap.prometheus_us, snap.json_us
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    eprintln!("# wrote {out_path}");

    if let Some(budget) = check {
        let worst = points
            .iter()
            .max_by(|a, b| a.overhead_pct.total_cmp(&b.overhead_pct))
            .expect("at least one path measured");
        if worst.overhead_pct > budget {
            eprintln!(
                "# FAIL: {} overhead {:.2}% exceeds the {budget}% budget",
                worst.path, worst.overhead_pct
            );
            std::process::exit(1);
        }
        eprintln!(
            "# OK: worst overhead {:.2}% ({}) within the {budget}% budget",
            worst.overhead_pct, worst.path
        );
    }
}

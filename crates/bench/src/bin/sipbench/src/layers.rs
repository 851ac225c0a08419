//! Per-layer metrics of the traced pass, and the waterfall that ties them
//! to what the client observed.
//!
//! Sources, in the order they are merged: samples the laps took themselves
//! (phase timings, `/proc` deltas, one `/metrics` scrape per lap), the
//! harness's spans (self time per layer boundary), the [`Tap`] counters
//! (frames, bytes, blocked time), and the layer replay. A layer that
//! carried no traffic in the workload reports 0.
//!
//! [`Tap`]: crate::transport::Tap

use std::collections::BTreeMap;
use std::time::Instant;

use sip_fleetobs::scrape::{http_get, parse_prometheus, sum_by_name};

use crate::procs::Prover;
use crate::replay;
use crate::report::PER_LAYER;
use crate::stats;
use crate::trace::{self, OpClass, Span};
use crate::transport::IO_TIMEOUT;
use crate::workloads::{pooled, Kind, Lap, Measured, Op};

/// One scrape of a prover's `/metrics`: how long it took, how big it was,
/// and the server's own per-frame handle/decode times. Best effort — a
/// failed scrape leaves the samples out rather than failing the lap.
pub fn scrape_into(lap: &mut Lap, prover: &Prover) {
    let _span = trace::span("obs", "scrape");
    let start = Instant::now();
    let Ok(body) = http_get(&prover.ops_addr, "/metrics", IO_TIMEOUT) else {
        return;
    };
    lap.sample("obs.scrape_ms", start.elapsed().as_secs_f64() * 1e3);
    lap.sample("obs.exposition_bytes", body.len() as f64);
    let Ok(samples) = parse_prometheus(&body) else {
        return;
    };
    for (metric, base) in [
        ("server.handle_us_per_frame", "sip_server_handle_us"),
        ("server.decode_us_per_frame", "sip_server_decode_us"),
    ] {
        let count = sum_by_name(&samples, &format!("{base}_count"));
        if count > 0.0 {
            lap.sample(
                metric,
                sum_by_name(&samples, &format!("{base}_sum")) / count,
            );
        }
    }
}

fn is_query(class: &str) -> bool {
    class.starts_with("query.") && class != Op::TamperProbe.span_name()
}

fn durations_ms(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur_us() / 1e3)
        .collect()
}

/// Σ self time of `key` over the query classes, per query, microseconds.
fn query_self_us(classes: &BTreeMap<&'static str, OpClass>, key: Option<&str>) -> Measured {
    let mut total = 0.0;
    let mut count = 0u64;
    for (class, c) in classes.iter().filter(|(class, _)| is_query(class)) {
        count += c.count;
        // `None` asks for the root span's own self time.
        let own = format!("client/{class}");
        total += c.self_us.get(key.unwrap_or(&own)).copied().unwrap_or(0.0);
    }
    if count == 0 {
        Measured::exact(0.0, 0)
    } else {
        Measured::exact(total / count as f64, count as usize)
    }
}

/// Computes every per-layer metric of the catalogue. The first `fixed` of
/// `laps` ran on inputs that depend on `--seed` alone; frame, byte and round
/// counts are taken over those, so they repeat exactly for a seed.
pub fn per_layer(
    kind: Kind,
    control: Option<&Lap>,
    laps: &[Lap],
    fixed: usize,
    spans: &[Span],
) -> BTreeMap<&'static str, Measured> {
    let mut out: BTreeMap<&'static str, Measured> = PER_LAYER
        .iter()
        .map(|d| (d.name, Measured::exact(0.0, 0)))
        .collect();
    let mut set = |name: &'static str, m: Measured| {
        assert!(
            out.insert(name, m).is_some(),
            "{name} is not in the catalogue"
        );
    };
    let sum = |f: &dyn Fn(&Lap) -> f64| -> f64 { laps.iter().map(f).sum() };
    // (An empty f64 sum is -0.0; keep it from printing as "-0".)
    let ratio = |num: f64, den: f64| {
        if den == 0.0 || num == 0.0 {
            0.0
        } else {
            num / den
        }
    };

    // 1. What the laps sampled themselves.
    let mut sampled: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for lap in laps {
        for (name, samples) in &lap.layer {
            sampled.entry(name).or_default().extend(samples);
        }
    }
    for (name, samples) in &sampled {
        set(name, Measured::median_of(samples));
    }

    // 2. Counters: counts over the fixed laps, CPU shares over all.
    let count = |f: &dyn Fn(&Lap) -> f64| -> f64 { laps[..fixed].iter().map(f).sum() };
    let queries = count(&|l| l.queries as f64);
    let costed = count(&|l| l.costed_queries as f64);
    let updates = count(&|l| l.ingest_updates as f64);
    let query_bytes = count(&|l| l.query_wire.bytes() as f64);
    let query_frames = count(&|l| l.query_wire.frames() as f64);
    let words_per_query = ratio(count(&|l| l.words as f64), costed);
    set(
        "core.rounds_per_query",
        Measured::exact(ratio(count(&|l| l.rounds as f64), costed), costed as usize),
    );
    set(
        "wire.frames_per_query",
        Measured::exact(ratio(query_frames, queries), queries as usize),
    );
    set(
        "wire.bytes_per_frame",
        Measured::exact(ratio(query_bytes, query_frames), query_frames as usize),
    );
    set(
        "wire.overhead_ratio",
        Measured::exact(
            ratio(ratio(query_bytes, queries), 8.0 * words_per_query),
            queries as usize,
        ),
    );
    set(
        "cluster.ingest_amplification",
        Measured::exact(
            ratio(count(&|l| l.ingest_wire.bytes_sent as f64), 16.0 * updates),
            updates as usize,
        ),
    );
    let queries = sum(&|l| l.queries as f64);
    let updates = sum(&|l| l.ingest_updates as f64);
    set(
        "server.prover_cpu_ms_per_query",
        Measured::exact(
            ratio(sum(&|l| l.query_cpu_s) * 1e3, queries),
            queries as usize,
        ),
    );
    set(
        "server.prover_cpu_ns_per_update",
        Measured::exact(
            ratio(sum(&|l| l.ingest_cpu_s) * 1e9, updates),
            updates as usize,
        ),
    );
    let (interactive_op, oneshot_op) = kind.latency_ops();
    let interactive = pooled(laps, interactive_op);
    let oneshot = pooled(laps, oneshot_op);
    set(
        "server.interactive_p99_ms",
        Measured::percentile_of(&interactive, 99.0),
    );
    set(
        "server.oneshot_p99_ms",
        Measured::percentile_of(&oneshot, 99.0),
    );
    if kind == Kind::KvMixed {
        set(
            "kvstore.get_ms",
            Measured::median_of(&pooled(laps, Op::KvGet)),
        );
        set(
            "kvstore.range_ms",
            Measured::median_of(&pooled(laps, Op::KvRange)),
        );
        set(
            "kvstore.range_sum_ms",
            Measured::median_of(&pooled(laps, Op::KvRangeSum)),
        );
    }
    if let Some(control) = control {
        let base = stats::median(&pooled(std::slice::from_ref(control), interactive_op));
        if base > 0.0 {
            let traced = stats::median(&interactive);
            set(
                "obs.harness_trace_overhead_pct",
                Measured::exact((traced - base) / base * 100.0, interactive.len()),
            );
        }
    }

    // 3. Spans.
    let classes = trace::op_classes(spans);
    set(
        "server.recv_wait_ms_per_query",
        scale(query_self_us(&classes, Some("wire/transport.recv")), 1e-3),
    );
    set(
        "server.send_us_per_query",
        query_self_us(&classes, Some("wire/transport.send")),
    );
    let client_self = query_self_us(&classes, None);
    set("server.client_self_us_per_query", client_self);
    if matches!(kind, Kind::ShardedWan | Kind::Replicated) {
        set("cluster.client_self_us_per_query", client_self);
    }
    set(
        "server.connect_ms",
        Measured::median_of(&durations_ms(spans, "server", "connect")),
    );
    set(
        "wire.handshake_ms",
        Measured::median_of(&durations_ms(spans, "wire", "handshake")),
    );
    set(
        "kvstore.client_new_ms",
        Measured::median_of(&durations_ms(spans, "kvstore", "client_new")),
    );
    let sessions = durations_ms(spans, "server", "publish").len() as f64;
    let tail_ms: f64 = durations_ms(spans, "server", "end_stream")
        .iter()
        .chain(&durations_ms(spans, "server", "publish"))
        .sum();
    set(
        "server.end_stream_wait_ms",
        Measured::exact(ratio(tail_ms, sessions), sessions as usize),
    );
    let send_batch_ms: f64 = durations_ms(spans, "server", "send_batch").iter().sum();
    set(
        "server.send_batch_ns_per_update",
        Measured::exact(ratio(send_batch_ms * 1e6, updates), updates as usize),
    );
    if let Some(ingest) = classes.get("ingest.session") {
        let self_of = |key: &str| ingest.self_us.get(key).copied().unwrap_or(0.0);
        let busy = self_of("lde/digest.update_batch")
            + self_of("lde/digest.provision")
            + self_of("lde/digest.table_build")
            + self_of("kvstore/put_batch");
        set(
            "lde.busy_share",
            Measured::exact(ratio(busy, ingest.total_us), ingest.count as usize),
        );
        set(
            "cluster.route_ns_per_update",
            Measured::exact(
                ratio(self_of("cluster/send_stream") * 1e3, updates),
                updates as usize,
            ),
        );
    }

    // 4. Layer replay over the last traced lap's stream and frames.
    let mut replayed = BTreeMap::new();
    if let Some(input) = laps.iter().rev().find_map(|l| l.replay.as_ref()) {
        replayed = replay::run(input);
        for (name, m) in &replayed {
            set(name, *m);
        }
    }

    // 5. What the replay does not explain of the time inside the socket.
    if let (Some(class), false) = (classes.get(interactive_op.span_name()), replayed.is_empty()) {
        let injected = sampled
            .get(injected_key(false))
            .map_or(0.0, |v| stats::median(v));
        let explained = explained_ms(kind, false, &replayed, injected, frames_per_op(class));
        set(
            "server.session_residual_ms",
            Measured::exact(
                transport_ms(class) - explained.total(),
                class.count as usize,
            ),
        );
    }
    out
}

/// Mean time per operation inside the transport — `send` and `recv`
/// together, because on one CPU the prover often starts the moment the
/// request is written and so computes while the client is still "sending".
fn transport_ms(class: &OpClass) -> f64 {
    let us: f64 = ["wire/transport.send", "wire/transport.recv"]
        .iter()
        .filter_map(|k| class.self_us.get(*k))
        .sum();
    us / class.count.max(1) as f64 / 1e3
}

/// Frames received per operation (= protocol rounds on one connection).
fn frames_per_op(class: &OpClass) -> f64 {
    class.calls.get("wire/transport.recv").copied().unwrap_or(0) as f64 / class.count.max(1) as f64
}

fn scale(m: Measured, by: f64) -> Measured {
    Measured {
        value: m.value * by,
        ..m
    }
}

/// The part of one query's blocked time the harness can account for.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Explained {
    /// Injected round-trip delay (`sharded_wan` only), ms.
    pub injected_ms: f64,
    /// Replayed prover work (`core`), ms.
    pub prover_ms: f64,
    /// Replayed codec work (`wire`), both ends, ms.
    pub codec_ms: f64,
}

impl Explained {
    /// Σ rows.
    pub fn total(&self) -> f64 {
        self.injected_ms + self.prover_ms + self.codec_ms
    }
}

/// Attributes the primary op class's socket time from replayed figures;
/// `injected_ms` is the delay the harness itself added per operation.
pub fn explained_ms(
    kind: Kind,
    oneshot: bool,
    replayed: &BTreeMap<&'static str, Measured>,
    injected_ms: f64,
    rounds: f64,
) -> Explained {
    let value = |name: &str| replayed.get(name).map_or(0.0, |m| m.value);
    let prover_ms = match (kind, oneshot) {
        (Kind::KvMixed, false) => value("core.subvector_prover_ms"),
        (_, false) => value("core.f2_prover_build_ms") + value("core.f2_prover_rounds_ms"),
        (_, true) => value("core.oneshot_prove_ms"),
    };
    let codec_ms = if oneshot {
        value("wire.decode_proof_ns") * 1e-6
    } else {
        rounds * (value("wire.encode_round_ns") + value("wire.decode_round_ns")) * 1e-6
    };
    Explained {
        injected_ms,
        prover_ms,
        codec_ms,
    }
}

/// Name of the per-lap sample holding the injected delay of a latency class.
fn injected_key(oneshot: bool) -> &'static str {
    if oneshot {
        "cluster.injected_rtt_ms_per_oneshot"
    } else {
        "cluster.injected_rtt_ms_per_query"
    }
}

/// Prints, per traced op class, where the client-observed time went. The
/// measured rows (self times) sum to the class's span exactly; for the two
/// primary latency classes the blocked row is further split by the replay,
/// with `session residual` as the remainder.
pub fn print_waterfall(kind: Kind, spans: &[Span], per_layer: &BTreeMap<&'static str, Measured>) {
    let classes = trace::op_classes(spans);
    let (interactive_op, oneshot_op) = kind.latency_ops();
    for (name, class) in classes.iter().filter(|(n, _)| is_query(n)) {
        if class.count == 0 {
            continue;
        }
        let n = class.count as f64;
        let total_ms = class.total_us / n / 1e3;
        println!(
            "-- waterfall {name}: n={}, {total_ms:.3} ms per op",
            class.count
        );
        let mut rows: Vec<(&String, &f64)> = class.self_us.iter().collect();
        rows.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut sum_ms = 0.0;
        for (key, us) in rows {
            let ms = us / n / 1e3;
            sum_ms += ms;
            println!(
                "   {:<34} {:>10.3} ms {:>5.1}%  ({:.1} calls/op)",
                key,
                ms,
                100.0 * ms / total_ms,
                class.calls[key] as f64 / n
            );
        }
        println!("   {:<34} {:>10.3} ms (rows sum)", "=", sum_ms);
        let oneshot = *name == oneshot_op.span_name();
        if !(oneshot || *name == interactive_op.span_name()) {
            continue;
        }
        let socket_ms = transport_ms(class);
        let injected = per_layer
            .get(injected_key(oneshot))
            .map_or(0.0, |m| m.value);
        let explained = explained_ms(kind, oneshot, per_layer, injected, frames_per_op(class));
        println!("   of wire/transport.send + recv ({socket_ms:.3} ms):");
        for (label, ms) in [
            ("injected RTT", explained.injected_ms),
            ("replayed core prover", explained.prover_ms),
            ("replayed wire codec", explained.codec_ms),
            ("session residual", socket_ms - explained.total()),
        ] {
            println!(
                "     {:<32} {:>10.3} ms {:>5.1}%",
                label,
                ms,
                100.0 * ms / total_ms
            );
        }
    }
}

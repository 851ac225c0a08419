//! The metric catalogue, and every way a result leaves the process: the
//! printed table, the last-line JSON object the benchmark driver reads, and
//! the result file `sipbench diff` compares.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds below; a unit test holds the two together.
//! `layer_targets.json` beside `src/` says which end-to-end metric, on which
//! workload, each per-layer metric should move; another test holds it to
//! the catalogue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::procs;
use crate::workloads::{Measured, Outcome, RunOpts};

/// Which way is better.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`, as `BENCHMARK.json` spells them.
    #[cfg(test)]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric of the catalogue.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only; 0 for layers).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
///
/// Timed metrics and peak memory carry the largest bound the driver allows.
/// With every figure taken from the better third of a run's laps
/// (`workloads::quiet_third`) they repeat to 1–6 % between runs (p95s 2–10 %)
/// whether or not the machine is busy, but the recording machine is a shared
/// two-vCPU VM, a bound is meant to sit at three times the spread, and a
/// neighbour that holds the CPU for a whole run is still read as the
/// program. The four count metrics are exact for a given input; their 1 %
/// absorbs only the variation of inputs between seeds (how many keys a kv
/// range holds, how many frames a failover costs — at most 0.24 % over ten
/// seeds), and `diff` holds them to equality between runs of one seed.
pub const END_TO_END: [MetricDef; 14] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("ingest_updates_per_s", "1/s", Higher, 0.25),
    e2e("interactive_p50_ms", "ms", Lower, 0.25),
    e2e("interactive_p95_ms", "ms", Lower, 0.25),
    e2e("oneshot_p50_ms", "ms", Lower, 0.25),
    e2e("oneshot_p95_ms", "ms", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("words_per_query", "words", Lower, 0.01),
    e2e("wire_bytes_per_query", "B", Lower, 0.01),
    e2e("wire_bytes_per_update", "B", Lower, 0.01),
    e2e("verifier_space_words", "words", Lower, 0.01),
    e2e("prover_cpu_s", "s", Lower, 0.25),
    e2e("prover_peak_rss_mb", "MB", Lower, 0.25),
];

/// The end-to-end metrics that are counts, not timings: exact for a given
/// input, so `diff` holds them to equality between runs of one seed.
pub const COUNT_METRICS: [&str; 4] = [
    "words_per_query",
    "wire_bytes_per_query",
    "wire_bytes_per_update",
    "verifier_space_words",
];

/// What single layers do (layer = crate name). A layer that carries no
/// traffic in a workload reports 0 there.
pub const PER_LAYER: [MetricDef; 73] = [
    layer("field.dot_melems_per_s", "M/s", Higher),
    layer("field.mul_add_ns", "ns", Lower),
    layer("lde.multi_k16_updates_per_s", "1/s", Higher),
    layer("lde.multi_k64_digest_updates_per_s", "1/s", Higher),
    layer("lde.single_updates_per_s", "1/s", Higher),
    layer("lde.table_build_us", "us", Lower),
    layer("lde.busy_share", "ratio", Lower),
    layer("streaming.apply_batch_updates_per_s", "1/s", Higher),
    layer("streaming.split_updates_per_s", "1/s", Higher),
    layer("core.f2_prover_build_ms", "ms", Lower),
    layer("core.f2_prover_rounds_ms", "ms", Lower),
    layer("core.fold_mpairs_per_s", "M/s", Higher),
    layer("core.range_sum_prover_ms", "ms", Lower),
    layer("core.oneshot_prove_ms", "ms", Lower),
    layer("core.oneshot_verify_us", "us", Lower),
    layer("core.transcript_us", "us", Lower),
    layer("core.verifier_rounds_us", "us", Lower),
    layer("core.subvector_prover_ms", "ms", Lower),
    layer("core.subvector_verify_us", "us", Lower),
    layer("core.rounds_per_query", "count", Lower),
    layer("wire.encode_ingest_ns_per_update", "ns", Lower),
    layer("wire.decode_ingest_ns_per_update", "ns", Lower),
    layer("wire.encode_round_ns", "ns", Lower),
    layer("wire.decode_round_ns", "ns", Lower),
    layer("wire.decode_proof_ns", "ns", Lower),
    layer("wire.frames_per_query", "count", Lower),
    layer("wire.bytes_per_frame", "B", Lower),
    layer("wire.overhead_ratio", "ratio", Lower),
    layer("wire.handshake_ms", "ms", Lower),
    layer("server.recv_wait_ms_per_query", "ms", Lower),
    layer("server.send_us_per_query", "us", Lower),
    layer("server.client_self_us_per_query", "us", Lower),
    layer("server.session_residual_ms", "ms", Lower),
    layer("server.end_stream_wait_ms", "ms", Lower),
    layer("server.send_batch_ns_per_update", "ns", Lower),
    layer("server.connect_ms", "ms", Lower),
    layer("server.publish_ms", "ms", Lower),
    layer("server.attach_ms", "ms", Lower),
    layer("server.handle_us_per_frame", "us", Lower),
    layer("server.decode_us_per_frame", "us", Lower),
    layer("server.prover_cpu_ms_per_query", "ms", Lower),
    layer("server.prover_cpu_ns_per_update", "ns", Lower),
    layer("server.interactive_p99_ms", "ms", Lower),
    layer("server.oneshot_p99_ms", "ms", Lower),
    layer("server.qps_2tenants", "1/s", Higher),
    layer("cluster.shard_wait_ms_per_query", "ms", Lower),
    layer("cluster.shard_skew", "ratio", Lower),
    layer("cluster.client_self_us_per_query", "us", Lower),
    layer("cluster.round_trips_per_query", "count", Lower),
    layer("cluster.injected_rtt_ms_per_query", "ms", Lower),
    layer("cluster.injected_rtt_ms_per_oneshot", "ms", Lower),
    layer("cluster.route_ns_per_update", "ns", Lower),
    layer("cluster.ingest_amplification", "ratio", Lower),
    layer("cluster.failovers", "count", Lower),
    layer("cluster.failover_penalty_ms", "ms", Lower),
    layer("cluster.replica_balance", "ratio", Higher),
    layer("kvstore.put_batch_puts_per_s", "1/s", Higher),
    layer("kvstore.observe_batch_puts_per_s", "1/s", Higher),
    layer("kvstore.client_new_ms", "ms", Lower),
    layer("kvstore.digests_per_put", "count", Lower),
    layer("kvstore.get_ms", "ms", Lower),
    layer("kvstore.range_ms", "ms", Lower),
    layer("kvstore.range_sum_ms", "ms", Lower),
    layer("kvstore.space_words", "words", Lower),
    layer("durable.digest_snapshot_bytes", "B", Lower),
    layer("durable.digest_encode_us", "us", Lower),
    layer("durable.digest_restore_us", "us", Lower),
    layer("durable.publish_persist_ms", "ms", Lower),
    layer("durable.recover_ms", "ms", Lower),
    layer("durable.dataset_bytes_on_disk", "B", Lower),
    layer("obs.scrape_ms", "ms", Lower),
    layer("obs.exposition_bytes", "B", Lower),
    layer("obs.harness_trace_overhead_pct", "%", Lower),
];

/// What a per-layer metric is predicted to do: the end-to-end metrics it
/// should move and the ones it must leave alone, each as `metric@workload`
/// (`all` = every workload).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Target {
    /// A gain here should show there.
    pub moves: Vec<String>,
    /// Predicted no change: a gain here that shows there is suspect.
    pub holds: Vec<String>,
}

/// The layer → end-to-end map later changes are judged against, from
/// `layer_targets.json` beside the sources. It is a file of its own because
/// `BENCHMARK.json` admits only name, unit and direction per layer metric.
pub fn layer_targets() -> BTreeMap<String, Target> {
    let doc = sip_fleetobs::Json::parse(include_str!("../layer_targets.json"))
        .expect("layer_targets.json is checked by the unit tests");
    let list = |item: &sip_fleetobs::Json, key: &str| -> Vec<String> {
        item.get(key)
            .and_then(sip_fleetobs::Json::as_arr)
            .into_iter()
            .flatten()
            .filter_map(|t| t.as_str().map(str::to_string))
            .collect()
    };
    doc.as_obj()
        .into_iter()
        .flatten()
        .map(|(name, item)| {
            let target = Target {
                moves: list(item, "moves"),
                holds: list(item, "holds"),
            };
            (name.clone(), target)
        })
        .collect()
}

/// Looks an end-to-end metric up by name.
#[cfg(test)]
pub fn end_to_end_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// Prints one workload's metrics: name, value, unit, sample count, in-run
/// spread — end-to-end in the untraced pass, per-layer in the traced one.
pub fn print_outcome(outcome: &Outcome, traced: bool) {
    println!(
        "== {} — {} laps, {:.2} s measured, {} ops attempted, {} failed",
        outcome.kind.name(),
        outcome.laps,
        outcome.measured_s,
        outcome.attempted,
        outcome.failed
    );
    for failure in &outcome.failures {
        println!("   FAILED: {failure}");
    }
    let (defs, values): (&[MetricDef], _) = if traced {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let targets = if traced {
        layer_targets()
    } else {
        BTreeMap::new()
    };
    for def in defs {
        if let Some(m) = values.get(def.name) {
            let moves = targets
                .get(def.name)
                .filter(|t| !t.moves.is_empty())
                .map_or(String::new(), |t| format!("  -> {}", t.moves.join(" ")));
            println!(
                "   {:<38} {:>16.4} {:<6} n={:<7} spread={:.1}%{moves}",
                def.name,
                m.value,
                def.unit,
                m.samples,
                m.rel_iqr * 100.0
            );
        }
    }
}

fn metrics_json(defs: &[MetricDef], values: &BTreeMap<&'static str, Measured>) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for def in defs {
        let Some(m) = values.get(def.name) else {
            continue;
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_number(m.value),
            def.unit
        );
    }
    out.push('}');
    out
}

/// A finite `f64` with all its digits; non-finite values (which only a
/// harness bug can produce) become 0 so the line stays valid JSON.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        metrics_json(&PER_LAYER, &outcome.per_layer)
    } else {
        metrics_json(&END_TO_END, &outcome.end_to_end)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics
    )
}

/// The git revision of the working directory, if it is a git checkout.
/// Reads `.git/HEAD` directly: the driver's checkout is not a repository
/// and has no `git` to ask.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// The result file: run conditions, then per workload every metric with its
/// sample count and in-run relative IQR (what `diff` needs to tell
/// "regressed" from "too noisy to say").
pub fn result_json(opts: &RunOpts, load_at_start: [f64; 3], outcomes: &[Outcome]) -> String {
    let nproc = procs::cpus();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"sipbench\",");
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(out, "  \"seconds\": {},", json_number(opts.seconds));
    let _ = writeln!(out, "  \"traced\": {},", opts.trace);
    let _ = writeln!(out, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"cpu_placement_pinned\": {},", procs::pinned());
    let _ = writeln!(
        out,
        "  \"load_average_at_start\": [{}, {}, {}],",
        load_at_start[0], load_at_start[1], load_at_start[2]
    );
    let _ = writeln!(out, "  \"git_revision\": \"{}\",", git_revision());
    out.push_str("  \"workloads\": {\n");
    for (i, outcome) in outcomes.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", outcome.kind.name());
        let _ = writeln!(out, "      \"laps\": {},", outcome.laps);
        let _ = writeln!(
            out,
            "      \"measured_s\": {},",
            json_number(outcome.measured_s)
        );
        let _ = writeln!(out, "      \"attempted\": {},", outcome.attempted);
        let _ = writeln!(out, "      \"failed\": {},", outcome.failed);
        out.push_str("      \"metrics\": {\n");
        // End-to-end metrics are only ever taken from the untraced pass: a
        // traced result file carries the per-layer metrics alone.
        let all: Vec<(&MetricDef, &Measured)> = END_TO_END
            .iter()
            .filter(|_| !opts.trace)
            .filter_map(|d| outcome.end_to_end.get(d.name).map(|m| (d, m)))
            .chain(
                PER_LAYER
                    .iter()
                    .filter_map(|d| outcome.per_layer.get(d.name).map(|m| (d, m))),
            )
            .collect();
        for (j, (def, m)) in all.iter().enumerate() {
            let _ = write!(
                out,
                "        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \
                 \"rel_iqr\": {}}}",
                def.name,
                json_number(m.value),
                def.unit,
                m.samples,
                json_number(m.rel_iqr)
            );
            out.push_str(if j + 1 < all.len() { ",\n" } else { "\n" });
        }
        out.push_str("      }\n");
        out.push_str(if i + 1 < outcomes.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

/// Checks the catalogue against `BENCHMARK.json`'s text: same workloads,
/// same end-to-end metrics with the same unit, direction and bound, same
/// per-layer metrics. Returns every disagreement found.
#[cfg(test)]
pub fn check_against_benchmark_json(text: &str) -> Vec<String> {
    use sip_fleetobs::Json;
    let mut problems = Vec::new();
    let Some(doc) = Json::parse(text) else {
        return vec!["BENCHMARK.json does not parse".to_string()];
    };
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let workloads: Vec<String> = crate::workloads::Kind::ALL
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    if names("workloads") != workloads {
        problems.push(format!(
            "workloads: file has {:?}, code has {workloads:?}",
            names("workloads")
        ));
    }
    for (key, defs, bounded) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", &PER_LAYER[..], false),
    ] {
        let listed = names(key);
        let coded: Vec<String> = defs.iter().map(|d| d.name.to_string()).collect();
        if listed != coded {
            problems.push(format!("{key}: file has {listed:?}, code has {coded:?}"));
            continue;
        }
        for (def, item) in defs
            .iter()
            .zip(doc.get(key).and_then(Json::as_arr).unwrap_or(&[]))
        {
            let unit = item.get("unit").and_then(Json::as_str);
            let better = item
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            if unit != Some(def.unit) || better != Some(def.better) {
                problems.push(format!("{}: unit or direction differs", def.name));
            }
            let bound = item.get("bound").and_then(Json::as_f64);
            if bounded && bound != Some(def.bound) {
                problems.push(format!(
                    "{}: bound {bound:?} in file, {} in code",
                    def.name, def.bound
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;
    use sip_fleetobs::Json;

    fn sample_outcome() -> Outcome {
        let mut end_to_end = BTreeMap::new();
        for (i, def) in END_TO_END.iter().enumerate() {
            end_to_end.insert(
                def.name,
                Measured {
                    value: 1.5 + i as f64,
                    samples: 10 + i,
                    rel_iqr: 0.01 * i as f64,
                },
            );
        }
        let mut per_layer = BTreeMap::new();
        per_layer.insert(PER_LAYER[0].name, Measured::exact(123.456, 30));
        Outcome {
            kind: Kind::Serve,
            laps: 4,
            measured_s: 9.75,
            end_to_end,
            per_layer,
            attempted: 800,
            failed: 0,
            failures: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!((0.0..=0.25).contains(&def.bound));
        }
        for kind in Kind::ALL {
            assert!(seen.insert(kind.name()));
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        let setup = end_to_end_def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound, largest,
            "set-up time carries the largest bound"
        );
    }

    #[test]
    fn result_file_round_trips_through_the_fleetobs_parser() {
        let opts = RunOpts {
            seed: 7,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let text = result_json(&opts, [0.5, 0.25, 0.125], &[sample_outcome()]);
        let doc = Json::parse(&text).expect("result file is valid JSON");
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(7));
        assert!(doc.get("nproc").and_then(Json::as_u64).is_some());
        assert!(doc.get("git_revision").and_then(Json::as_str).is_some());
        let load = doc
            .get("load_average_at_start")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(load[0].as_f64(), Some(0.5));
        let serve = doc.path(&["workloads", "serve"]).unwrap();
        assert_eq!(serve.get("laps").and_then(Json::as_u64), Some(4));
        let wall = serve.path(&["metrics", "wall_s"]).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(wall.get("samples").and_then(Json::as_u64), Some(11));
        assert_eq!(wall.get("rel_iqr").and_then(Json::as_f64), Some(0.01));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        let layer = serve
            .path(&["metrics", PER_LAYER[0].name, "value"])
            .unwrap();
        assert_eq!(layer.as_f64(), Some(123.456));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let outcome = sample_outcome();
        let doc = Json::parse(&driver_line(&outcome, false)).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Json::as_str),
            Some("s")
        );
        let traced = Json::parse(&driver_line(&outcome, true)).unwrap();
        assert_eq!(
            traced.get("metrics").and_then(Json::as_obj).unwrap().len(),
            1
        );
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn every_layer_metric_has_resolvable_targets() {
        let targets = layer_targets();
        let coded: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        let listed: Vec<&str> = targets.keys().map(String::as_str).collect();
        let mut sorted = coded.clone();
        sorted.sort_unstable();
        assert_eq!(listed, sorted, "layer_targets.json lists the catalogue");
        for (name, target) in &targets {
            for t in target.moves.iter().chain(&target.holds) {
                let (metric, workload) = t
                    .split_once('@')
                    .unwrap_or_else(|| panic!("{name}: {t} is not metric@workload"));
                assert!(end_to_end_def(metric).is_some(), "{name}: {metric}?");
                assert!(
                    workload == "all" || Kind::parse(workload).is_some(),
                    "{name}: {workload}?"
                );
            }
            assert!(target.moves.iter().all(|t| !target.holds.contains(t)));
        }
        // The prediction ISSUE 11 spells out: a fold speed-up shows on
        // `serve` and must not show behind injected latency.
        let fold = &targets["core.fold_mpairs_per_s"];
        assert!(fold.moves.contains(&"interactive_p50_ms@serve".to_string()));
        assert_eq!(fold.holds, ["interactive_p50_ms@sharded_wan"]);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let problems = check_against_benchmark_json(text);
        assert!(problems.is_empty(), "{problems:#?}");
        let doc = Json::parse(text).unwrap();
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap()[0].as_str(),
            Some("crates/bench/src/bin/sipbench")
        );
        // A drifted copy is caught, not silently accepted.
        let drifted = text.replacen("\"wall_s\"", "\"wall_seconds\"", 1);
        assert!(!check_against_benchmark_json(&drifted).is_empty());
    }
}

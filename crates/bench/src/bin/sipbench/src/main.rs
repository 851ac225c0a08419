//! `sipbench`: the repository's end-to-end benchmark. It starts real
//! `sip-prover` child processes, drives five workloads against them over
//! loopback TCP from one closed-loop client thread, checks every answer
//! against ground truth, and prints every metric by name.
//!
//! ```text
//! sipbench [run] --workload <name|all> [--seed N] [--seconds S]
//!                [--trace [0|1]] [--smoke] [--out DIR]
//! sipbench diff A.json B.json
//! ```
//!
//! * `--trace 0` (default) is the untraced pass: the end-to-end metrics.
//! * `--trace 1` is the traced pass: harness-side spans, one `/metrics`
//!   scrape per lap, and the layer replay give the per-layer metrics and a
//!   waterfall per op class. End-to-end metrics are never taken from it.
//! * `--smoke` runs every workload once at ≤ 1/16 size (a few seconds in
//!   all) with the same metric names and the same checks.
//! * `--out DIR` writes `DIR/result.json` (and `DIR/trace-<workload>.json`
//!   in the traced pass); `diff` compares two such files.
//!
//! The last line of standard output is one JSON object per the benchmark
//! driver's contract: `correct`, `attempted`, `failed`, `metrics`. The exit
//! code is non-zero when any operation failed.
//!
//! See `README.md` beside this file for the metric glossary, the layer →
//! end-to-end map, and how to read the waterfall.

#![forbid(unsafe_code)]

mod diff;
mod layers;
mod procs;
mod replay;
mod report;
mod stats;
mod trace;
mod transport;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Kind, RunOpts};

/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Cli {
    kinds: Vec<Kind>,
    opts: RunOpts,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: sipbench [run] --workload <{}|all> [--seed N] [--seconds S] \
         [--trace [0|1]] [--smoke] [--out DIR]\n       sipbench diff A.json B.json",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut kinds = Vec::new();
    let mut opts = RunOpts {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if name == "all" {
                    kinds = Kind::ALL.to_vec();
                } else {
                    kinds.push(
                        Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {v}"))?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver; bare `--trace` by hand.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if kinds.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Cli { kinds, opts, out })
}

fn run(cli: &Cli) -> Result<bool, String> {
    // Fail before any work if the program under test is not there.
    procs::prover_binary()?;
    procs::pin_to_one_cpu();
    let load = procs::load_average().unwrap_or([0.0; 3]);
    let mut outcomes = Vec::new();
    for &kind in &cli.kinds {
        let outcome = workloads::run(kind, &cli.opts)?;
        report::print_outcome(&outcome, cli.opts.trace);
        if cli.opts.trace {
            layers::print_waterfall(kind, &outcome.spans, &outcome.per_layer);
        }
        outcomes.push(outcome);
    }
    if let Some(dir) = &cli.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let write = |name: String, body: String| {
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(
            "result.json".into(),
            report::result_json(&cli.opts, load, &outcomes),
        )?;
        for outcome in outcomes.iter().filter(|o| !o.spans.is_empty()) {
            write(
                format!("trace-{}.json", outcome.kind.name()),
                trace::to_json(&outcome.spans),
            )?;
        }
    }
    // One contract line per workload; the driver runs one workload at a
    // time and reads the last line.
    for outcome in &outcomes {
        println!("{}", report::driver_line(outcome, cli.opts.trace));
    }
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

fn main() -> ExitCode {
    procs::install_panic_hook();
    // The client libraries log every blame and failover at `warn`; the
    // harness provokes both on purpose (tamper probes, the killed replica)
    // and reports them as metrics instead.
    sip_obs::set_min_level(sip_obs::Level::Error);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("diff") => match &args[1..] {
            [a, b] => diff::run(a, b).map(|regressed| regressed == 0),
            _ => Err(usage()),
        },
        Some("run") => parse_run(&args[1..]).and_then(|cli| run(&cli)),
        Some("--help" | "-h") | None => Err(usage()),
        Some(_) => parse_run(&args).and_then(|cli| run(&cli)),
    };
    procs::cleanup_all();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("sipbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_run(&args("--workload serve --seed 42 --seconds 10 --trace 0")).unwrap();
        assert_eq!(cli.kinds, [Kind::Serve]);
        assert_eq!(cli.opts.seed, 42);
        assert_eq!(cli.opts.seconds, 10.0);
        assert!(!cli.opts.trace && !cli.opts.smoke && cli.out.is_none());
        let cli = parse_run(&args("--workload kv_mixed --seed 1 --seconds 3 --trace 1")).unwrap();
        assert!(cli.opts.trace);
    }

    #[test]
    fn the_hand_written_forms_parse() {
        let cli = parse_run(&args("--workload all --trace --smoke --out results")).unwrap();
        assert_eq!(cli.kinds, Kind::ALL);
        assert!(cli.opts.trace && cli.opts.smoke);
        assert_eq!(cli.out, Some(PathBuf::from("results")));
        assert_eq!(cli.opts.seconds, DEFAULT_SECONDS);
        // `--trace` followed by another flag is the bare form.
        let cli = parse_run(&args("--trace --workload ingest")).unwrap();
        assert!(cli.opts.trace);
        assert_eq!(cli.kinds, [Kind::Ingest]);
    }

    /// The whole benchmark at smoke size, both passes: every workload and
    /// every metric `BENCHMARK.json` names is emitted, and nothing fails.
    /// Needs the `sip-prover` binary in the same target directory, which
    /// `run.sh test` builds first; without it the test fails with the
    /// command to run rather than passing on nothing.
    #[test]
    fn smoke_pass_emits_every_catalogued_metric() {
        if let Err(why) = procs::prover_binary() {
            panic!("{why}");
        }
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let listed = sip_fleetobs::Json::parse(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            listed
                .get(key)
                .and_then(sip_fleetobs::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(sip_fleetobs::Json::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        for workload in names("workloads") {
            let kind = Kind::parse(&workload).expect("BENCHMARK.json names a real workload");
            for trace in [false, true] {
                let opts = RunOpts {
                    seed: 5,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let outcome = workloads::run(kind, &opts).expect("the smoke lap runs");
                assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
                assert!(outcome.attempted > 10);
                let (key, emitted) = if trace {
                    ("per_layer", &outcome.per_layer)
                } else {
                    ("end_to_end", &outcome.end_to_end)
                };
                for name in names(key) {
                    let m = emitted
                        .get(name.as_str())
                        .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
                    assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
                }
                assert_eq!(emitted.len(), names(key).len());
                let line = sip_fleetobs::Json::parse(&report::driver_line(&outcome, trace))
                    .expect("the driver line is JSON");
                assert_eq!(line.get("correct"), Some(&sip_fleetobs::Json::Bool(true)));
            }
        }
        procs::cleanup_all();
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_run(&args("--seed 1")).is_err(), "no workload");
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload serve --seconds 0")).is_err());
        assert!(parse_run(&args("--workload serve --seconds nan")).is_err());
        assert!(parse_run(&args("--workload serve --seed")).is_err());
        assert!(parse_run(&args("--workload serve --frobnicate")).is_err());
    }
}

//! `sipbench diff A.json B.json`: judges result file B against baseline A,
//! per (workload, end-to-end metric), with the bounds of the catalogue.
//!
//! The four count metrics depend on the inputs alone, and the inputs on
//! `--seed` alone. When both files were run with the same seed they are held
//! to **exact** agreement (`wire_bytes_per_query`@`replicated` to 1 %: how
//! many frames a failover costs depends on where the kill lands in a
//! retry). The catalogue's small bounds on them apply only between
//! different seeds, where the inputs themselves differ.
//!
//! Verdicts:
//! * `ok` — B's value is no worse than A's by more than the bound;
//! * `regressed` — it is worse by more than the bound, and the in-run
//!   spread of both files is within the bound, so the difference is not
//!   noise;
//! * `unresolved` — worse by more than the bound, but at least one side's
//!   in-run spread (relative IQR of its per-lap figures, every lap counted)
//!   is wider than the bound: the run was too disturbed to tell.
//!
//! Only `regressed` makes the exit code non-zero.

use sip_fleetobs::Json;

use crate::report::{Better, MetricDef, COUNT_METRICS, END_TO_END};
use crate::workloads::Kind;

/// The judgement on one (workload, metric) pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Worse by more than the bound, but the run is too noisy to say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's figure.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// `IQR ÷ median` of the trial-level samples behind it.
    pub rel_iqr: f64,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when `b`
/// is better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The bound that applies to `def` on `kind`: the catalogue's, except that
/// a count metric measured twice on the same inputs must not move at all.
pub fn bound_for(def: &MetricDef, kind: Kind, same_inputs: bool) -> f64 {
    if !(same_inputs && COUNT_METRICS.contains(&def.name)) {
        def.bound
    } else if kind == Kind::Replicated && def.name == "wire_bytes_per_query" {
        0.01
    } else {
        0.0
    }
}

/// Applies `bound` to the pair.
pub fn judge(def: &MetricDef, bound: f64, a: Side, b: Side) -> Verdict {
    // A hair of slack so a bound of exactly x% admits a worsening of
    // exactly x% despite binary floating point.
    if worsening(def, a.value, b.value) <= bound + 1e-12 {
        Verdict::Ok
    } else if a.rel_iqr.max(b.rel_iqr) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = doc.path(&["workloads", workload, "metrics", metric])?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        rel_iqr: m.get("rel_iqr").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Compares two result files; prints one line per pair and returns the
/// number of regressions (or an error for unreadable input).
pub fn run(path_a: &str, path_b: &str) -> Result<usize, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).ok_or_else(|| format!("{path}: not valid JSON"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        println!(
            "{label}: seed {}, nproc {}, load {:?}, revision {}",
            doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            doc.get("nproc").and_then(Json::as_u64).unwrap_or(0),
            doc.get("load_average_at_start")
                .and_then(Json::as_arr)
                .map(|l| l.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
                .unwrap_or_default(),
            doc.get("git_revision")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
        );
    }
    // Same seed and same sizes: same inputs.
    let same_inputs = ["seed", "smoke"].iter().all(|key| a.get(key) == b.get(key));
    let (mut regressed, mut unresolved, mut compared) = (0, 0, 0);
    for kind in Kind::ALL {
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(&a, kind.name(), def.name),
                side(&b, kind.name(), def.name),
            ) else {
                continue;
            };
            compared += 1;
            let bound = bound_for(def, kind, same_inputs);
            let verdict = judge(def, bound, sa, sb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<12} {:<24} {:>14.4} -> {:>14.4} {:<6} {:>+7.2}% (bound {:.1}%, spread {:.1}%/{:.1}%)  {}",
                kind.name(),
                def.name,
                sa.value,
                sb.value,
                def.unit,
                worsening(def, sa.value, sb.value) * 100.0,
                bound * 100.0,
                sa.rel_iqr * 100.0,
                sb.rel_iqr * 100.0,
                verdict.label()
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    println!("{compared} compared: {regressed} regressed, {unresolved} unresolved");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::end_to_end_def;

    fn s(value: f64, rel_iqr: f64) -> Side {
        Side { value, rel_iqr }
    }

    /// Judged at a 10 % bound, whatever the catalogue says today.
    fn judged(def: &MetricDef, a: Side, b: Side) -> Verdict {
        judge(def, 0.10, a, b)
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let wall = end_to_end_def("wall_s").unwrap(); // lower is better
        let qps = end_to_end_def("queries_per_s").unwrap(); // higher is better
        assert_eq!(judged(wall, s(10.0, 0.01), s(10.9, 0.01)), Verdict::Ok);
        assert_eq!(
            judged(wall, s(10.0, 0.01), s(11.2, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(judged(wall, s(10.0, 0.01), s(5.0, 0.01)), Verdict::Ok);
        assert_eq!(judged(qps, s(100.0, 0.01), s(91.0, 0.01)), Verdict::Ok);
        assert_eq!(
            judged(qps, s(100.0, 0.01), s(85.0, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(judged(qps, s(100.0, 0.01), s(300.0, 0.01)), Verdict::Ok);
        assert!((worsening(qps, 100.0, 85.0) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_run_is_unresolved_not_regressed() {
        let wall = end_to_end_def("wall_s").unwrap();
        assert_eq!(
            judged(wall, s(10.0, 0.01), s(12.0, 0.30)),
            Verdict::Unresolved
        );
        assert_eq!(
            judged(wall, s(10.0, 0.30), s(12.0, 0.01)),
            Verdict::Unresolved
        );
        // Noise never turns a pass into anything else.
        assert_eq!(judged(wall, s(10.0, 0.30), s(10.1, 0.30)), Verdict::Ok);
    }

    #[test]
    fn count_metrics_are_exact_on_the_same_inputs() {
        let words = end_to_end_def("words_per_query").unwrap();
        let bytes = end_to_end_def("wire_bytes_per_query").unwrap();
        let wall = end_to_end_def("wall_s").unwrap();
        // Same seed: one word more in the paper's `h` is a regression.
        let exact = bound_for(words, Kind::Serve, true);
        assert_eq!(exact, 0.0);
        assert_eq!(judge(words, exact, s(80.0, 0.0), s(80.0, 0.0)), Verdict::Ok);
        assert_eq!(
            judge(words, exact, s(80.0, 0.0), s(81.0, 0.0)),
            Verdict::Regressed
        );
        assert_eq!(judge(words, exact, s(80.0, 0.0), s(79.0, 0.0)), Verdict::Ok);
        // The one allowance, and timings are never held to exactness.
        assert_eq!(bound_for(bytes, Kind::Replicated, true), 0.01);
        assert_eq!(bound_for(bytes, Kind::Serve, true), 0.0);
        assert_eq!(bound_for(wall, Kind::Serve, true), wall.bound);
        // Different seeds, different inputs: the catalogue's bound.
        assert_eq!(bound_for(words, Kind::Serve, false), words.bound);
        assert_eq!(worsening(words, 0.0, 0.0), 0.0);
        assert!(worsening(words, 0.0, 1.0).is_infinite());
    }
}

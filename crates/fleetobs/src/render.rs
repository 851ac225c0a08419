//! The `sip-top` dashboard model and its plain-ANSI renderer.
//!
//! Both of `sip-top`'s modes feed the same [`DashModel`]: `--targets`
//! builds it from the in-process [`FleetState`](crate::FleetState) (via its own
//! `health_json`), `--fleet` builds it from a scraped `/fleet/health`
//! document. One model, one renderer — what the dashboard shows is
//! exactly what the HTTP surface serves, so the e2e tests assert on
//! either interchangeably.

use crate::json::Json;

/// One replica row.
#[derive(Clone, Debug, PartialEq)]
pub struct DashRow {
    /// Shard index.
    pub shard: u32,
    /// Replica index.
    pub replica: u32,
    /// Ops address.
    pub prover: String,
    /// Health label (`up`/`degraded`/`stale`/`down`).
    pub state: String,
    /// Microseconds since the last complete scrape, if ever.
    pub staleness_us: Option<u64>,
    /// Frames per second.
    pub qps: f64,
    /// Median per-frame handling latency (µs).
    pub p50_us: f64,
    /// Tail per-frame handling latency (µs).
    pub p99_us: f64,
    /// Total frames served.
    pub frames: u64,
    /// The error behind a non-up state.
    pub last_error: Option<String>,
}

/// One shard's quorum line.
#[derive(Clone, Debug, PartialEq)]
pub struct DashShard {
    /// Shard index.
    pub shard: u32,
    /// Quorum label (`full`/`degraded`/`unavailable`).
    pub state: String,
}

/// One SLO line.
#[derive(Clone, Debug, PartialEq)]
pub struct DashSlo {
    /// Objective name.
    pub name: String,
    /// Whether the burn alert is firing.
    pub firing: bool,
    /// Long-window burn.
    pub burn_long: f64,
    /// Short-window burn.
    pub burn_short: f64,
    /// The firing threshold.
    pub threshold: f64,
}

/// Fleet rollup counters for the footer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DashRollup {
    /// Σ frames served.
    pub frames: u64,
    /// Σ soundness rejections.
    pub rejections: u64,
    /// Σ replica-divergence indictments.
    pub indictments: u64,
    /// Σ per-shard blame verdicts.
    pub blame: u64,
    /// Σ transient-fault redials.
    pub retries: u64,
    /// Σ replica failovers.
    pub failovers: u64,
}

/// Everything one frame of the dashboard needs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DashModel {
    /// Replica rows, shard-major.
    pub rows: Vec<DashRow>,
    /// Shard quorum states, ascending.
    pub shards: Vec<DashShard>,
    /// Declared SLOs with live burn.
    pub slos: Vec<DashSlo>,
    /// Fleet counter rollup.
    pub rollup: DashRollup,
    /// Completed scrape rounds.
    pub rounds: u64,
    /// Scrape interval (ms), for the header.
    pub interval_ms: u64,
}

impl DashModel {
    /// Builds the model from a `/fleet/health` document. Missing or
    /// malformed members degrade to defaults — a dashboard pointed at a
    /// hostile aggregator shows blanks, it does not crash.
    pub fn from_health_json(doc: &Json) -> DashModel {
        let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
        let mut model = DashModel {
            rounds: doc.get("rounds").and_then(Json::as_u64).unwrap_or(0),
            interval_ms: doc.get("interval_ms").and_then(Json::as_u64).unwrap_or(0),
            ..DashModel::default()
        };
        for shard in doc
            .get("shards")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
        {
            let shard_idx = shard.get("shard").and_then(Json::as_u64).unwrap_or(0) as u32;
            model.shards.push(DashShard {
                shard: shard_idx,
                state: shard
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            });
            for r in shard
                .get("replicas")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
            {
                model.rows.push(DashRow {
                    shard: shard_idx,
                    replica: r.get("replica").and_then(Json::as_u64).unwrap_or(0) as u32,
                    prover: r
                        .get("prover")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    state: r
                        .get("state")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    staleness_us: r.get("staleness_us").and_then(Json::as_u64),
                    qps: num(r.get("qps")),
                    p50_us: num(r.get("p50_us")),
                    p99_us: num(r.get("p99_us")),
                    frames: r.get("frames").and_then(Json::as_u64).unwrap_or(0),
                    last_error: r
                        .get("last_error")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                });
            }
        }
        if let Some(r) = doc.get("rollup") {
            let field = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
            model.rollup = DashRollup {
                frames: field("frames"),
                rejections: field("rejections"),
                indictments: field("indictments"),
                blame: field("blame"),
                retries: field("retries"),
                failovers: field("failovers"),
            };
        }
        for s in doc.get("slos").and_then(Json::as_arr).unwrap_or(&[]).iter() {
            model.slos.push(DashSlo {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                firing: s.get("firing") == Some(&Json::Bool(true)),
                burn_long: num(s.get("burn_long")),
                burn_short: num(s.get("burn_short")),
                threshold: num(s.get("threshold")),
            });
        }
        model
    }

    /// Renders one frame. With `color`, health states get ANSI colors
    /// (green/yellow/red); without, the same text plain — the layout is
    /// identical either way, so tests assert on the no-color output.
    pub fn render(&self, color: bool) -> String {
        let paint = |text: &str, code: &str| {
            if color {
                format!("\x1b[{code}m{text}\x1b[0m")
            } else {
                text.to_string()
            }
        };
        let state_cell = |state: &str| {
            let code = match state {
                "up" | "full" => "32", // green
                "degraded" => "33",    // yellow
                _ => "31",             // red: stale/down/unavailable
            };
            paint(&format!("{state:<11}"), code)
        };
        let mut out = String::with_capacity(2048);
        out.push_str(&paint("sip-top — fleet health", "1"));
        out.push_str(&format!(
            "  (round {}, every {} ms)\n\n",
            self.rounds, self.interval_ms
        ));
        out.push_str(
            "  SHARD/REP  PROVER                 STATE        QPS      P50_US    P99_US    FRAMES     AGE\n",
        );
        for row in &self.rows {
            let age = match row.staleness_us {
                Some(us) if us < 1_000_000 => format!("{}ms", us / 1_000),
                Some(us) => format!("{:.1}s", us as f64 / 1e6),
                None => "never".into(),
            };
            out.push_str(&format!(
                "  {:<9}  {:<21}  {}  {:>7.1}  {:>8.0}  {:>8.0}  {:>8}  {:>6}\n",
                format!("{}/{}", row.shard, row.replica),
                truncate(&row.prover, 21),
                state_cell(&row.state),
                row.qps,
                row.p50_us,
                row.p99_us,
                row.frames,
                age,
            ));
            if let Some(err) = &row.last_error {
                out.push_str(&format!(
                    "             {}\n",
                    paint(&format!("└ {}", truncate(err, 80)), "2")
                ));
            }
        }
        out.push_str("\n  shards: ");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str("   ");
            }
            out.push_str(&format!("#{} {}", s.shard, state_cell(&s.state)));
        }
        out.push('\n');
        if !self.slos.is_empty() {
            out.push_str("\n  SLO                    BURN(long/short)   STATUS\n");
            for slo in &self.slos {
                let status = if slo.firing {
                    paint("FIRING", "1;31")
                } else {
                    paint("ok", "32")
                };
                out.push_str(&format!(
                    "  {:<21}  {:>7.1} / {:<7.1}  {} (fires at {:.0}x)\n",
                    truncate(&slo.name, 21),
                    slo.burn_long,
                    slo.burn_short,
                    status,
                    slo.threshold,
                ));
            }
        }
        let r = &self.rollup;
        out.push_str(&format!(
            "\n  fleet: {} frames, {} rejections, {} indictments, {} blame, {} retries, {} failovers\n",
            r.frames, r.rejections, r.indictments, r.blame, r.retries, r.failovers,
        ));
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{gauge_turn, FleetConfig, FleetState, ScrapeResult, Target};
    use crate::health::ScrapeOutcome;
    use crate::scrape::{parse_prometheus, ScrapeError};

    fn sample_state() -> FleetState {
        let _turn = gauge_turn();
        let targets = vec![
            Target {
                shard: 0,
                replica: 0,
                addr: "127.0.0.1:9000".into(),
            },
            Target {
                shard: 0,
                replica: 1,
                addr: "127.0.0.1:9001".into(),
            },
            Target {
                shard: 1,
                replica: 0,
                addr: "127.0.0.1:9010".into(),
            },
            Target {
                shard: 1,
                replica: 1,
                addr: "127.0.0.1:9011".into(),
            },
        ];
        let mut state = FleetState::new(FleetConfig::default(), targets);
        let metrics = "sip_server_frames_total 120\n\
                       sip_server_handle_us_bucket{le=\"64\"} 50\n\
                       sip_server_handle_us_bucket{le=\"+Inf\"} 60\n\
                       sip_server_handle_us_count 60\n\
                       sip_server_handle_us_sum 4000\n";
        for round in 0..2u64 {
            let now = (round + 1) * 1_000_000;
            for i in 0..3 {
                state.ingest(
                    i,
                    ScrapeResult {
                        outcome: ScrapeOutcome::Full,
                        samples: Some(parse_prometheus(metrics).unwrap()),
                        stats: None,
                    },
                    300,
                    now,
                );
            }
            state.ingest(
                3,
                ScrapeResult {
                    outcome: ScrapeOutcome::Failed(ScrapeError::Unreachable {
                        detail: "connection refused".into(),
                    }),
                    samples: None,
                    stats: None,
                },
                300,
                now,
            );
            state.finish_round(now);
        }
        state
    }

    #[test]
    fn model_round_trips_through_health_json() {
        let state = sample_state();
        let doc = Json::parse(&state.health_json(2_500_000)).unwrap();
        let model = DashModel::from_health_json(&doc);
        assert_eq!(model.rows.len(), 4);
        assert_eq!(model.shards.len(), 2);
        assert_eq!(model.rounds, 2);
        let down = model
            .rows
            .iter()
            .find(|r| r.replica == 1 && r.shard == 1)
            .unwrap();
        assert_eq!(down.state, "down");
        assert!(down.last_error.as_deref().unwrap().contains("refused"));
        assert_eq!(model.shards[1].state, "degraded");
        assert_eq!(model.shards[0].state, "full");
        assert!(model.slos.iter().any(|s| s.name == "availability"));
    }

    #[test]
    fn render_shows_every_slot_and_slo() {
        let state = sample_state();
        let doc = Json::parse(&state.health_json(2_500_000)).unwrap();
        let model = DashModel::from_health_json(&doc);
        let plain = model.render(false);
        for slot in ["0/0", "0/1", "1/0", "1/1"] {
            assert!(plain.contains(slot), "{plain}");
        }
        assert!(plain.contains("down"), "{plain}");
        assert!(plain.contains("availability"), "{plain}");
        assert!(plain.contains("fleet: 360 frames"), "{plain}");
        assert!(!plain.contains('\x1b'), "no ANSI without color: {plain}");
        let colored = model.render(true);
        assert!(colored.contains("\x1b[31m"), "down is red: {colored}");
        assert!(colored.contains("\x1b[32m"), "up is green: {colored}");
    }

    #[test]
    fn hostile_health_documents_render_blank_not_panic() {
        for doc in [
            "{}",
            "[]",
            "17",
            "{\"shards\": 3}",
            "{\"shards\": [{}], \"slos\": [7]}",
        ] {
            let parsed = Json::parse(doc).unwrap();
            let model = DashModel::from_health_json(&parsed);
            let _ = model.render(false);
            let _ = model.render(true);
        }
    }
}

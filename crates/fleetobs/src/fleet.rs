//! The fleet aggregator: scrape every prover's ops port, merge the
//! per-prover series into fleet series keyed `{shard, replica, prover}`,
//! drive the health state machine, and feed the SLO trackers.
//!
//! Scrapes run under the same [`RetryPolicy`] discipline as the fleet
//! verifier's dials (PR 9): dial and deadline faults redial with
//! decorrelated jitter, garbage does not. IO never happens under the
//! state lock — a stalled target can delay one round, never wedge the
//! ops surface reading the state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sip_core::channel::RetryPolicy;
use sip_obs::metrics::json_escape;
use sip_obs::{counter_with, event, gauge, gauge_with, histogram, quantile_from_buckets, Level};

use crate::health::{HealthPolicy, ReplicaHealth, ReplicaState, ScrapeOutcome, ShardState};
use crate::json::Json;
use crate::scrape::{
    histogram_buckets, http_get, parse_prometheus, sum_by_name, Sample, ScrapeError,
};
use crate::slo::{availability_sample, SloKind, SloSpec, SloTracker};

/// One scrape target: a replica slot plus the address of its ops port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Target {
    /// Shard index the prover serves.
    pub shard: u32,
    /// Replica index within the shard.
    pub replica: u32,
    /// `host:port` of the prover's ops listener.
    pub addr: String,
}

impl Target {
    /// Parses the CLI form `SHARD/REPLICA@HOST:PORT` (e.g. `1/0@10.0.0.7:9100`).
    pub fn parse(spec: &str) -> Result<Target, String> {
        let err = || format!("bad target {spec:?}: want SHARD/REPLICA@HOST:PORT");
        let (slot, addr) = spec.split_once('@').ok_or_else(err)?;
        let (shard, replica) = slot.split_once('/').ok_or_else(err)?;
        if addr.is_empty() {
            return Err(err());
        }
        Ok(Target {
            shard: shard.trim().parse().map_err(|_| err())?,
            replica: replica.trim().parse().map_err(|_| err())?,
            addr: addr.to_string(),
        })
    }

    /// Parses a comma- or whitespace-separated list of target specs.
    pub fn parse_list(list: &str) -> Result<Vec<Target>, String> {
        let targets: Vec<Target> = list
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty())
            .map(Target::parse)
            .collect::<Result<_, _>>()?;
        if targets.is_empty() {
            return Err("no targets given".into());
        }
        Ok(targets)
    }
}

/// Aggregator configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Nominal scrape interval (jittered ±10 % per round).
    pub interval: Duration,
    /// Health state-machine thresholds.
    pub policy: HealthPolicy,
    /// Redial policy per target per round; the per-attempt deadline is
    /// also the connect/read timeout of each HTTP fetch.
    pub retry: RetryPolicy,
    /// Declared objectives.
    pub slos: Vec<SloSpec>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            interval: Duration::from_secs(1),
            policy: HealthPolicy::default(),
            // Two quick attempts per round: a refused dial fails fast and
            // the round budget stays well under the interval even when
            // half the fleet is stalled.
            retry: RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(25),
                cap: Duration::from_millis(250),
                op_deadline: Duration::from_millis(500),
                seed: 0xf1ee7,
            },
            slos: SloSpec::defaults(),
        }
    }
}

/// What one round produced for one target.
#[derive(Clone, Debug)]
pub struct ScrapeResult {
    /// The health-model outcome.
    pub outcome: ScrapeOutcome,
    /// Parsed `/metrics` samples, when the exposition parsed.
    pub samples: Option<Vec<Sample>>,
    /// Parsed `/stats` JSON, when it round-tripped.
    pub stats: Option<Json>,
}

/// Fetches and parses one target's ops surface: `/metrics` under the
/// retry policy (its result decides the outcome), then `/stats`
/// best-effort (its failure only demotes Full to Partial).
pub fn scrape_target(addr: &str, retry: &RetryPolicy) -> ScrapeResult {
    let timeout = retry.op_deadline;
    // RetryPolicy speaks Rejection; carry the typed ScrapeError out of
    // the attempt loop by side channel so the health model keeps the
    // richer classification.
    let mut last_err: Option<ScrapeError> = None;
    let fetched = retry.run(|_attempt| {
        http_get(addr, "/metrics", timeout).map_err(|e| {
            let rejection = e.rejection();
            last_err = Some(e);
            rejection
        })
    });
    let text = match fetched {
        Ok(t) => t,
        Err(_) => {
            let err = last_err.unwrap_or(ScrapeError::Stalled {
                detail: format!("{addr}: retry loop ended without an error"),
            });
            return ScrapeResult {
                outcome: ScrapeOutcome::Failed(err),
                samples: None,
                stats: None,
            };
        }
    };
    let samples = match parse_prometheus(&text) {
        Ok(s) => s,
        Err(e) => {
            return ScrapeResult {
                outcome: ScrapeOutcome::Failed(e),
                samples: None,
                stats: None,
            }
        }
    };
    // Metrics landed; /stats is enrichment. One attempt, no retries.
    let (stats, outcome) = match http_get(addr, "/stats", timeout) {
        Ok(body) => match Json::parse(&body) {
            Some(json) => (Some(json), ScrapeOutcome::Full),
            None => (
                None,
                ScrapeOutcome::Partial(ScrapeError::Garbage {
                    detail: format!("{addr}: /stats is not JSON"),
                }),
            ),
        },
        Err(e) => (None, ScrapeOutcome::Partial(e)),
    };
    ScrapeResult {
        outcome,
        samples: Some(samples),
        stats,
    }
}

/// Rolling per-target state.
#[derive(Clone, Debug)]
pub struct TargetStatus {
    /// The slot and address being scraped.
    pub target: Target,
    /// Health state machine.
    pub health: ReplicaHealth,
    /// Last parsed `/metrics` samples (kept through failures until the
    /// data goes Stale — a Degraded replica still shows its last truth).
    pub samples: Vec<Sample>,
    /// Frames per second, from the `sip_server_frames_total` delta
    /// between the last two successful scrapes.
    pub qps: f64,
    prev_frames: Option<(u64, f64)>,
}

impl TargetStatus {
    fn new(target: Target) -> Self {
        TargetStatus {
            target,
            health: ReplicaHealth::default(),
            samples: Vec::new(),
            qps: 0.0,
            prev_frames: None,
        }
    }

    /// `(p50, p99)` of this replica's per-frame handling latency, from
    /// its scraped `sip_server_handle_us` buckets.
    pub fn latency_quantiles(&self) -> Option<(f64, f64)> {
        let (buckets, _, _) = histogram_buckets(&self.samples, "sip_server_handle_us")?;
        Some((
            quantile_from_buckets(&buckets, 0.50),
            quantile_from_buckets(&buckets, 0.99),
        ))
    }

    /// Total wire frames this replica has served, per its last scrape.
    pub fn frames(&self) -> f64 {
        sum_by_name(&self.samples, "sip_server_frames_total")
    }
}

/// Fleet-wide counter rollup: protocol outcomes summed across every
/// target's last scrape (provers carry the `sip_server_*` series; a
/// scraped verifier contributes the `sip_cluster_*` fault-attribution
/// counters from PR 8/9).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Rollup {
    /// Σ `sip_server_frames_total`.
    pub frames: f64,
    /// Σ `sip_server_rejections_total`.
    pub rejections: f64,
    /// Σ `sip_cluster_indictments_total`.
    pub indictments: f64,
    /// Σ `sip_cluster_blame_total`.
    pub blame: f64,
    /// Σ `sip_cluster_retries_total`.
    pub retries: f64,
    /// Σ `sip_cluster_failovers_total`.
    pub failovers: f64,
}

/// The aggregator's full mutable state: targets, health, SLO trackers.
#[derive(Debug)]
pub struct FleetState {
    /// The configuration the state was built with.
    pub config: FleetConfig,
    targets: Vec<TargetStatus>,
    trackers: Vec<SloTracker>,
    rounds: u64,
    // Cumulative availability replica-rounds, fed to the availability SLO.
    avail_bad: f64,
    avail_total: f64,
}

impl FleetState {
    /// A fresh state for `targets` (all replicas start Stale: unobserved).
    pub fn new(config: FleetConfig, targets: Vec<Target>) -> Self {
        let trackers = config.slos.iter().cloned().map(SloTracker::new).collect();
        FleetState {
            config,
            targets: targets.into_iter().map(TargetStatus::new).collect(),
            trackers,
            rounds: 0,
            avail_bad: 0.0,
            avail_total: 0.0,
        }
    }

    /// Per-target rolling state, in construction order.
    pub fn targets(&self) -> &[TargetStatus] {
        &self.targets
    }

    /// Completed scrape rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds one target's scrape result into its health and series.
    /// `elapsed_us` is the wall-clock of the scrape itself.
    pub fn ingest(&mut self, index: usize, result: ScrapeResult, elapsed_us: u64, now_us: u64) {
        let policy = self.config.policy;
        let Some(t) = self.targets.get_mut(index) else {
            return;
        };
        let before = t.health.state();
        let after = t.health.on_scrape(&result.outcome, now_us, &policy);
        let outcome_label = match &result.outcome {
            ScrapeOutcome::Full => "full",
            ScrapeOutcome::Partial(_) => "partial",
            ScrapeOutcome::Failed(e) => e.label(),
        };
        counter_with("sip_fleet_scrapes_total", &[("outcome", outcome_label)]).inc();
        histogram("sip_fleet_scrape_us").observe(elapsed_us);
        if let Some(mut samples) = result.samples {
            // ±Inf/NaN sample values are Prometheus-legal but poison here:
            // they would ride into qps, saturate the rollup casts, and
            // render as bare `inf` tokens in both JSON documents and the
            // merged exposition. Finite-only past this point.
            samples.retain(|s| s.value.is_finite());
            let frames = sum_by_name(&samples, "sip_server_frames_total");
            if let Some((prev_us, prev_frames)) = t.prev_frames {
                let dt = now_us.saturating_sub(prev_us) as f64 / 1e6;
                if dt > 0.0 {
                    let qps = ((frames - prev_frames) / dt).max(0.0);
                    t.qps = if qps.is_finite() { qps } else { 0.0 };
                }
            }
            t.prev_frames = Some((now_us, frames));
            t.samples = samples;
        } else if after == ReplicaState::Stale || after == ReplicaState::Down {
            // The cached series no longer describes the present.
            t.samples.clear();
            t.qps = 0.0;
            t.prev_frames = None;
        }
        if before != after {
            let level = match after {
                ReplicaState::Up => Level::Info,
                ReplicaState::Degraded | ReplicaState::Stale => Level::Warn,
                ReplicaState::Down => Level::Error,
            };
            event!(
                level,
                "sip.fleetobs.health",
                "replica state changed",
                "shard" => t.target.shard,
                "replica" => t.target.replica,
                "prover" => t.target.addr,
                "from" => before.label(),
                "to" => after.label(),
                "error" => t.health.last_error().map(|e| e.to_string()).unwrap_or_default(),
            );
        }
    }

    /// Closes one round: publishes the fleet gauges and feeds the SLO
    /// trackers from the merged series.
    pub fn finish_round(&mut self, now_us: u64) {
        self.rounds += 1;
        gauge("sip_fleet_targets").set(self.targets.len() as i64);
        let up = self
            .targets
            .iter()
            .filter(|t| t.health.state() == ReplicaState::Up)
            .count();
        gauge("sip_fleet_up_replicas").set(up as i64);
        for t in &self.targets {
            let shard = t.target.shard.to_string();
            let replica = t.target.replica.to_string();
            let labels: &[(&str, &str)] = &[
                ("shard", &shard),
                ("replica", &replica),
                ("prover", &t.target.addr),
            ];
            gauge_with("sip_fleet_replica_health", labels).set(t.health.state().gauge());
            gauge_with("sip_fleet_replica_staleness_us", labels).set(
                t.health
                    .staleness_us(now_us)
                    .map_or(i64::MAX, |v| v.min(i64::MAX as u64) as i64),
            );
        }
        for (shard, state) in self.shard_states() {
            let shard = shard.to_string();
            gauge_with("sip_fleet_shard_health", &[("shard", &shard)]).set(state.gauge());
        }
        // Availability accumulates replica-rounds; the other SLO kinds
        // read cumulative counters straight off the merged series.
        let (bad, total) = availability_sample(self.targets.iter().map(|t| t.health.state()));
        self.avail_bad += bad;
        self.avail_total += total;
        let inputs: Vec<(f64, f64)> = self
            .trackers
            .iter()
            .map(|tracker| match &tracker.spec.kind {
                SloKind::Availability => (self.avail_bad, self.avail_total),
                SloKind::Ratio { bad, total } => {
                    (self.sum_across_targets(bad), self.sum_across_targets(total))
                }
                SloKind::LatencyAbove { histogram, max_us } => {
                    let mut bad = 0u64;
                    let mut total = 0u64;
                    for t in &self.targets {
                        if let Some((buckets, count, _)) = histogram_buckets(&t.samples, histogram)
                        {
                            total += count;
                            for (i, &n) in buckets.iter().enumerate() {
                                let lower = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                                if lower >= *max_us {
                                    bad += n;
                                }
                            }
                        }
                    }
                    (bad as f64, total as f64)
                }
            })
            .collect();
        for (tracker, (bad, total)) in self.trackers.iter_mut().zip(inputs) {
            tracker.observe(now_us, bad, total);
        }
    }

    fn sum_across_targets(&self, name: &str) -> f64 {
        self.targets
            .iter()
            .map(|t| sum_by_name(&t.samples, name))
            .sum()
    }

    /// Shard indices (ascending) with their quorum states.
    pub fn shard_states(&self) -> Vec<(u32, ShardState)> {
        let mut shards: Vec<u32> = self.targets.iter().map(|t| t.target.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
            .into_iter()
            .map(|s| {
                (
                    s,
                    ShardState::from_replicas(
                        self.targets
                            .iter()
                            .filter(|t| t.target.shard == s)
                            .map(|t| t.health.state()),
                    ),
                )
            })
            .collect()
    }

    /// The fleet-wide counter rollup.
    pub fn rollup(&self) -> Rollup {
        Rollup {
            frames: self.sum_across_targets("sip_server_frames_total"),
            rejections: self.sum_across_targets("sip_server_rejections_total"),
            indictments: self.sum_across_targets("sip_cluster_indictments_total"),
            blame: self.sum_across_targets("sip_cluster_blame_total"),
            retries: self.sum_across_targets("sip_cluster_retries_total"),
            failovers: self.sum_across_targets("sip_cluster_failovers_total"),
        }
    }

    /// `/fleet/metrics`: the aggregator's own registry (which carries the
    /// `sip_fleet_*` series) followed by every target's last scraped
    /// samples re-labelled with `{shard, replica, prover}` — the merged
    /// fleet exposition a single Prometheus scrape can collect.
    pub fn render_fleet_metrics(&self) -> String {
        let mut out = sip_obs::registry().render_prometheus();
        out.push_str("# Merged per-prover series (last scrape, relabelled by slot):\n");
        for t in &self.targets {
            if t.samples.is_empty() {
                continue;
            }
            for s in &t.samples {
                out.push_str(&s.name);
                out.push('{');
                out.push_str(&format!(
                    "shard=\"{}\",replica=\"{}\",prover=\"{}\"",
                    t.target.shard, t.target.replica, t.target.addr
                ));
                for (k, v) in &s.labels {
                    // The slot labels win a collision: the re-labelled
                    // series must stay keyed by slot.
                    if k != "shard" && k != "replica" && k != "prover" {
                        out.push_str(&format!(
                            ",{k}=\"{}\"",
                            v.replace('\\', "\\\\").replace('"', "\\\"")
                        ));
                    }
                }
                out.push_str(&format!("}} {}\n", prom_value(s.value)));
            }
        }
        out
    }

    /// `/fleet/health`: the whole model as one JSON document — shards,
    /// replicas, rollup, SLO status. This is also exactly what `sip-top`
    /// renders, in both its modes.
    pub fn health_json(&self, now_us: u64) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\n  \"rounds\": {},\n  \"interval_ms\": {},\n  \"shards\": [",
            self.rounds,
            self.config.interval.as_millis()
        ));
        let shard_states = self.shard_states();
        for (i, (shard, state)) in shard_states.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"shard\": {shard}, \"state\": \"{}\", \"replicas\": [",
                state.label()
            ));
            let mut first = true;
            for t in self.targets.iter().filter(|t| t.target.shard == *shard) {
                if !first {
                    out.push(',');
                }
                first = false;
                let (p50, p99) = t.latency_quantiles().unwrap_or((0.0, 0.0));
                let staleness = t
                    .health
                    .staleness_us(now_us)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".into());
                let last_error = match t.health.last_error() {
                    Some(e) => format!("\"{}\"", json_escape(&e.to_string())),
                    None => "null".into(),
                };
                out.push_str(&format!(
                    "\n      {{\"replica\": {}, \"prover\": \"{}\", \"state\": \"{}\", \
                     \"staleness_us\": {staleness}, \"qps\": {:.1}, \"p50_us\": {:.1}, \
                     \"p99_us\": {:.1}, \"frames\": {}, \"last_error\": {last_error}}}",
                    t.target.replica,
                    json_escape(&t.target.addr),
                    t.health.state().label(),
                    finite(t.qps),
                    finite(p50),
                    finite(p99),
                    finite(t.frames()) as u64,
                ));
            }
            out.push_str("\n    ]}");
        }
        let r = self.rollup();
        out.push_str(&format!(
            "\n  ],\n  \"rollup\": {{\"frames\": {}, \"rejections\": {}, \"indictments\": {}, \
             \"blame\": {}, \"retries\": {}, \"failovers\": {}}},\n  \"slos\": [",
            finite(r.frames) as u64,
            finite(r.rejections) as u64,
            finite(r.indictments) as u64,
            finite(r.blame) as u64,
            finite(r.retries) as u64,
            finite(r.failovers) as u64,
        ));
        for (i, tr) in self.trackers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = tr.status(now_us);
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"firing\": {}, \"burn_long\": {:.2}, \
                 \"burn_short\": {:.2}, \"threshold\": {:.1}, \"budget\": {}}}",
                json_escape(&tr.spec.name),
                s.firing,
                finite(s.burn_long).min(1e12),
                finite(s.burn_short).min(1e12),
                tr.spec.burn_threshold,
                tr.spec.budget,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// `/fleet/slo`: just the SLO block.
    pub fn slo_json(&self, now_us: u64) -> String {
        let mut out = String::from("{\n  \"slos\": [");
        for (i, tr) in self.trackers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = tr.status(now_us);
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"firing\": {}, \"burn_long\": {:.2}, \
                 \"burn_short\": {:.2}, \"threshold\": {:.1}, \"budget\": {}}}",
                json_escape(&tr.spec.name),
                s.firing,
                finite(s.burn_long).min(1e12),
                finite(s.burn_short).min(1e12),
                tr.spec.burn_threshold,
                tr.spec.budget,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A sample value in Prometheus exposition form: `{}` Display would print
/// `inf`, which neither Prometheus nor our own strict parser accepts.
/// Stored samples are finite (non-finite values are dropped at ingest),
/// so the non-finite arms are defence in depth.
fn prom_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v.is_nan() {
        "NaN".into()
    } else {
        format!("{v}")
    }
}

/// Clamps to a finite value for JSON embedding: `{:.1}` renders ±Inf/NaN
/// as bare `inf`/`NaN` tokens, which are not JSON, and one such token
/// breaks every consumer of the whole document.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// A handle on the scrape loop thread; stop it with
/// [`FleetLoopHandle::shutdown`].
pub struct FleetLoopHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl FleetLoopHandle {
    /// Signals the loop and joins it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The live scraper: shared state plus a monotonic epoch, cloneable into
/// the loop thread and the ops routes.
#[derive(Clone)]
pub struct FleetScraper {
    state: Arc<Mutex<FleetState>>,
    epoch: Instant,
}

impl FleetScraper {
    /// Builds the scraper (nothing is polled until [`Self::scrape_once`]
    /// or [`Self::start`]).
    pub fn new(config: FleetConfig, targets: Vec<Target>) -> Self {
        FleetScraper {
            state: Arc::new(Mutex::new(FleetState::new(config, targets))),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since this scraper was built — the `now_us` injected
    /// into the health model and SLO windows.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Locks the state (poison-safe: a panicked writer cannot wedge the
    /// ops surface, the lock recovers to the last consistent view).
    pub fn state(&self) -> MutexGuard<'_, FleetState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One full round: scrape every target concurrently (no lock held
    /// during IO), then fold the results in and close the round.
    pub fn scrape_once(&self) {
        let (targets, retry): (Vec<(usize, String)>, RetryPolicy) = {
            let state = self.state();
            (
                state
                    .targets
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i, t.target.addr.clone()))
                    .collect(),
                state.config.retry,
            )
        };
        // One thread per target per round: the round's wall-clock is the
        // slowest target, not the sum — a stalled replica cannot starve
        // the others' freshness. Fleet sizes are tens, not thousands.
        let results: Vec<(usize, ScrapeResult, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = targets
                .iter()
                .map(|(i, addr)| {
                    let retry = retry.with_seed(retry.seed ^ (*i as u64).wrapping_mul(0x9E37));
                    let start = Instant::now();
                    scope.spawn(move || {
                        let result = scrape_target(addr, &retry);
                        (*i, result, start.elapsed().as_micros() as u64)
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(&targets)
                .map(|(h, (i, _))| {
                    // A panicked scrape thread must not vanish: without an
                    // outcome the slot's health would freeze at its last
                    // state. Treat the panic as garbage-class so the state
                    // machine degrades and the round still counts it.
                    h.join().unwrap_or_else(|_| {
                        (
                            *i,
                            ScrapeResult {
                                outcome: ScrapeOutcome::Failed(ScrapeError::Garbage {
                                    detail: "scrape thread panicked".into(),
                                }),
                                samples: None,
                                stats: None,
                            },
                            0,
                        )
                    })
                })
                .collect()
        });
        let now = self.now_us();
        let mut state = self.state();
        for (i, result, elapsed_us) in results {
            state.ingest(i, result, elapsed_us, now);
        }
        state.finish_round(now);
    }

    /// Spawns the scrape loop: one round per interval, jittered ±10 % so
    /// a fleet of aggregators does not scrape in lockstep.
    pub fn start(&self) -> FleetLoopHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let scraper = self.clone();
        let thread = std::thread::Builder::new()
            .name("sip-fleet-scrape".into())
            .spawn(move || {
                let interval = scraper.state().config.interval;
                let mut jitter_state = 0x5ca1ab1eu64;
                while !loop_stop.load(Ordering::SeqCst) {
                    let round_start = Instant::now();
                    scraper.scrape_once();
                    // xorshift64*-jittered sleep in [0.9, 1.1]·interval,
                    // minus the time the round itself took.
                    let mut x = jitter_state;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    jitter_state = x;
                    let base_us = interval.as_micros() as u64;
                    let draw = x.wrapping_mul(0x2545_F491_4F6C_DD1D) % (base_us / 5 + 1);
                    let delta = draw as i64 - (base_us / 10) as i64; // ± 10 %
                    let period = Duration::from_micros(base_us.saturating_add_signed(delta));
                    let sleep = period.saturating_sub(round_start.elapsed());
                    // Sleep in short slices so shutdown stays prompt.
                    let deadline = Instant::now() + sleep;
                    while Instant::now() < deadline && !loop_stop.load(Ordering::SeqCst) {
                        std::thread::sleep(
                            Duration::from_millis(20)
                                .min(deadline.saturating_duration_since(Instant::now())),
                        );
                    }
                }
            })
            .expect("spawn scrape loop");
        FleetLoopHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// [`FleetState::finish_round`] sets process-global gauges, so the unit tests
/// that close rounds take turns, and one of them can read back what it set.
#[cfg(test)]
pub(crate) fn gauge_turn() -> MutexGuard<'static, ()> {
    static GAUGES: Mutex<()> = Mutex::new(());
    GAUGES.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::ScrapeOutcome;

    fn target(shard: u32, replica: u32) -> Target {
        Target {
            shard,
            replica,
            addr: format!("127.0.0.1:{}", 9000 + shard * 10 + replica),
        }
    }

    fn full_result(frames: f64) -> ScrapeResult {
        let text = format!(
            "sip_server_frames_total {frames}\n\
             sip_server_handle_us_bucket{{le=\"128\"}} 90\n\
             sip_server_handle_us_bucket{{le=\"+Inf\"}} 100\n\
             sip_server_handle_us_count 100\n\
             sip_server_handle_us_sum 20000\n"
        );
        ScrapeResult {
            outcome: ScrapeOutcome::Full,
            samples: Some(parse_prometheus(&text).unwrap()),
            stats: None,
        }
    }

    fn failed(err: ScrapeError) -> ScrapeResult {
        ScrapeResult {
            outcome: ScrapeOutcome::Failed(err),
            samples: None,
            stats: None,
        }
    }

    #[test]
    fn target_spec_parsing() {
        let t = Target::parse("1/0@10.0.0.7:9100").unwrap();
        assert_eq!(
            (t.shard, t.replica, t.addr.as_str()),
            (1, 0, "10.0.0.7:9100")
        );
        let list = Target::parse_list("0/0@a:1, 0/1@b:2 1/0@c:3").unwrap();
        assert_eq!(list.len(), 3);
        for bad in ["", "1@a:1", "1/0", "x/y@a:1", "1/0@"] {
            assert!(Target::parse(bad).is_err(), "{bad:?}");
        }
        assert!(Target::parse_list(" , ").is_err());
    }

    #[test]
    fn qps_comes_from_frame_deltas() {
        let _turn = gauge_turn();
        let mut state = FleetState::new(FleetConfig::default(), vec![target(0, 0)]);
        state.ingest(0, full_result(100.0), 500, 1_000_000);
        state.finish_round(1_000_000);
        assert_eq!(state.targets()[0].qps, 0.0); // one sample: no delta yet
        state.ingest(0, full_result(350.0), 500, 2_000_000);
        state.finish_round(2_000_000);
        let qps = state.targets()[0].qps;
        assert!((qps - 250.0).abs() < 1.0, "{qps}");
        // Counter reset (restart) clamps to zero, never negative.
        state.ingest(0, full_result(10.0), 500, 3_000_000);
        assert_eq!(state.targets()[0].qps, 0.0);
    }

    #[test]
    fn kill_flips_down_within_one_round_and_fires_availability() {
        let _turn = gauge_turn();
        let targets = vec![target(0, 0), target(0, 1), target(1, 0), target(1, 1)];
        let mut state = FleetState::new(FleetConfig::default(), targets);
        // Three healthy rounds.
        for round in 0..3u64 {
            let now = (round + 1) * 1_000_000;
            for i in 0..4 {
                state.ingest(i, full_result(100.0 * (round + 1) as f64), 400, now);
            }
            state.finish_round(now);
        }
        assert!(state
            .shard_states()
            .iter()
            .all(|(_, s)| *s == ShardState::Full));
        // Replica 0/1 dies: unreachable on the next round.
        let now = 4_000_000;
        state.ingest(0, full_result(500.0), 400, now);
        state.ingest(
            1,
            failed(ScrapeError::Unreachable {
                detail: "refused".into(),
            }),
            400,
            now,
        );
        state.ingest(2, full_result(500.0), 400, now);
        state.ingest(3, full_result(500.0), 400, now);
        state.finish_round(now);
        assert_eq!(state.targets()[1].health.state(), ReplicaState::Down);
        assert_eq!(state.shard_states()[0].1, ShardState::Degraded);
        assert_eq!(state.shard_states()[1].1, ShardState::Full);
        // The availability SLO fires on the very round that saw the death:
        // 1 bad in 16 replica-rounds ≫ 10× the 0.1 % budget.
        let health = state.health_json(now);
        assert!(
            health.contains("\"name\": \"availability\", \"firing\": true"),
            "{health}"
        );
    }

    #[test]
    fn health_json_is_parseable_and_complete() {
        let _turn = gauge_turn();
        let mut state = FleetState::new(
            FleetConfig::default(),
            vec![target(0, 0), target(0, 1), target(1, 0)],
        );
        state.ingest(0, full_result(100.0), 400, 1_000_000);
        state.ingest(
            1,
            failed(ScrapeError::Garbage {
                detail: "weird \"quotes\"".into(),
            }),
            400,
            1_000_000,
        );
        state.finish_round(1_000_000);
        let doc = Json::parse(&state.health_json(1_500_000)).expect("health_json parses");
        let shards = doc.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 2);
        let s0 = shards[0].get("replicas").and_then(Json::as_arr).unwrap();
        assert_eq!(s0.len(), 2);
        assert_eq!(s0[0].get("state").and_then(Json::as_str), Some("up"));
        // Replica 0/1 garbage before any full scrape: stale, error quoted.
        assert_eq!(s0[1].get("state").and_then(Json::as_str), Some("stale"));
        assert!(s0[1]
            .get("last_error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("weird"));
        assert!(doc.path(&["rollup", "frames"]).is_some());
        assert!(!doc.get("slos").and_then(Json::as_arr).unwrap().is_empty());
        // slo_json is valid JSON too.
        assert!(Json::parse(&state.slo_json(1_500_000)).is_some());
    }

    #[test]
    fn non_finite_samples_cannot_poison_json_or_the_merged_exposition() {
        let _turn = gauge_turn();
        let mut state = FleetState::new(FleetConfig::default(), vec![target(0, 0)]);
        let hostile = "sip_server_frames_total +Inf\n\
                       evil_gauge NaN\n\
                       worse_gauge -Inf\n\
                       fine_total 3\n";
        let scrape = || ScrapeResult {
            outcome: ScrapeOutcome::Full,
            samples: Some(parse_prometheus(hostile).unwrap()),
            stats: None,
        };
        state.ingest(0, scrape(), 400, 1_000_000);
        state.finish_round(1_000_000);
        state.ingest(0, scrape(), 400, 2_000_000);
        state.finish_round(2_000_000);
        // The +Inf frame counter cannot drive qps to infinity…
        assert!(state.targets()[0].qps.is_finite());
        // …`/fleet/health` stays valid JSON…
        let health = state.health_json(2_500_000);
        assert!(Json::parse(&health).is_some(), "{health}");
        // …and the merged exposition stays parseable: the non-finite
        // samples are dropped, the finite one survives.
        let merged = state.render_fleet_metrics();
        assert!(parse_prometheus(&merged).is_ok(), "{merged}");
        assert!(merged.contains("fine_total"), "{merged}");
        assert!(!merged.contains("evil_gauge"), "{merged}");
    }

    #[test]
    fn prom_value_renders_exposition_form() {
        assert_eq!(prom_value(1.5), "1.5");
        assert_eq!(prom_value(f64::INFINITY), "+Inf");
        assert_eq!(prom_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(prom_value(f64::NAN), "NaN");
    }

    #[test]
    fn fleet_metrics_relabels_by_slot() {
        let _turn = gauge_turn();
        let mut state = FleetState::new(FleetConfig::default(), vec![target(2, 1)]);
        state.ingest(0, full_result(42.0), 400, 1_000_000);
        state.finish_round(1_000_000);
        let text = state.render_fleet_metrics();
        assert!(
            text.contains(
                "sip_server_frames_total{shard=\"2\",replica=\"1\",prover=\"127.0.0.1:9021\"} 42"
            ),
            "{text}"
        );
        // The aggregator's own fleet gauges are in the same document.
        assert!(text.contains("sip_fleet_targets 1"), "{text}");
        // And parseable by our own strict parser (modulo comments).
        assert!(parse_prometheus(&text).is_ok());
    }

    #[test]
    fn rollup_sums_cluster_counters_from_any_target() {
        let _turn = gauge_turn();
        let mut state = FleetState::new(FleetConfig::default(), vec![target(0, 0)]);
        let text = "sip_server_frames_total 7\n\
                    sip_server_rejections_total 1\n\
                    sip_cluster_blame_total{shard=\"0\"} 2\n\
                    sip_cluster_blame_total{shard=\"1\"} 3\n\
                    sip_cluster_indictments_total 1\n\
                    sip_cluster_retries_total{cause=\"timed_out\"} 4\n\
                    sip_cluster_failovers_total 5\n";
        state.ingest(
            0,
            ScrapeResult {
                outcome: ScrapeOutcome::Full,
                samples: Some(parse_prometheus(text).unwrap()),
                stats: None,
            },
            300,
            1_000_000,
        );
        state.finish_round(1_000_000);
        let r = state.rollup();
        assert_eq!(r.frames, 7.0);
        assert_eq!(r.rejections, 1.0);
        assert_eq!(r.blame, 5.0);
        assert_eq!(r.indictments, 1.0);
        assert_eq!(r.retries, 4.0);
        assert_eq!(r.failovers, 5.0);
    }
}

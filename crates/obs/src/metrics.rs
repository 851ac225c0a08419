//! The metrics half of the crate: lock-cheap atomic instruments in a
//! process-global [`Registry`], rendered as a Prometheus-style text dump or
//! a JSON snapshot.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared
//! atomics: resolving one takes a short mutex-guarded name lookup, after
//! which every operation is a single relaxed atomic instruction. Hot paths
//! resolve their handles once (e.g. in a `OnceLock`) and then pay only the
//! atomics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets: powers of two `2^0 .. 2^22` plus a final
/// overflow bucket (rendered as `+Inf`). Values are unit-agnostic `u64`s —
/// the convention in this workspace is microseconds for latencies and raw
/// counts for sizes.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current level of something: sessions, datasets, bytes).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// RAII increment: bumps a gauge on construction and undoes it on drop —
/// the level can never leak, whatever path unwinds the scope.
pub struct GaugeGuard(Gauge);

impl GaugeGuard {
    /// Increments `gauge` and returns the guard that will decrement it.
    pub fn new(gauge: Gauge) -> Self {
        gauge.add(1);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram over power-of-two bounds: bucket `i` covers
/// `(2^(i-1), 2^i]`, the last bucket overflows to `+Inf`.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the elapsed time of `timer` in microseconds.
    pub fn observe_timer(&self, timer: Timer) {
        self.observe(timer.elapsed_us());
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// A snapshot of the per-bucket counts (bucket `i` covers
    /// `(2^(i-1), 2^i]`, the last bucket overflows to `+Inf`).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the observed
    /// distribution from the log₂ buckets — see [`quantile_from_buckets`]
    /// for the estimator and its error bound.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.bucket_counts(), q)
    }
}

/// Estimates the `q`-quantile of a log₂-bucketed histogram by linear
/// interpolation inside the bucket holding the target rank.
///
/// Bucket `i` covers `(2^(i-1), 2^i]` (bucket 0 is `[0, 1]`), so the
/// estimate is exact at bucket boundaries and off by at most the bucket's
/// width inside — a relative error bounded by 2×, which is plenty for
/// dashboards and SLO gates over µs latencies. The overflow bucket has no
/// upper bound; ranks landing there answer its lower bound (a conservative
/// *under*-estimate, so an SLO on the result never fires spuriously).
/// Shorter-than-standard slices are accepted (a scraped exposition may be
/// truncated); an empty or all-zero histogram answers `0.0`.
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the target observation, 1-based: ceil(q * total), at least 1.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if cumulative + n >= rank {
            // Clamp the exponent so a hostile, overlong bucket list cannot
            // overflow the shift; everything at or past the overflow
            // bucket answers its lower bound.
            let i = i.min(HISTOGRAM_BUCKETS - 1);
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            if i == HISTOGRAM_BUCKETS - 1 {
                // Overflow bucket: no upper bound to interpolate toward.
                return lo;
            }
            let hi = (1u64 << i) as f64;
            let into = (rank - cumulative) as f64 / n as f64;
            return lo + into * (hi - lo);
        }
        cumulative += n;
    }
    // Unreachable with a consistent slice (total > 0 means some bucket
    // crosses the rank), but a hostile scrape target is not consistent.
    0.0
}

/// A started wall-clock measurement (a thin [`Instant`]), consumed by
/// [`Histogram::observe_timer`].
pub struct Timer(Instant);

impl Timer {
    /// Starts the clock.
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Microseconds since [`Timer::start`], saturating.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// The name-to-instrument map. One process-global instance lives behind
/// [`registry`]; tests may build private ones.
///
/// Keys are full metric identities including labels, e.g.
/// `sip_server_msg_total{msg="ingest"}`. Base names should already be
/// Prometheus-safe (`[a-z0-9_]`).
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds the full metric key `name{k="v",...}` for a labelled instrument.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(
            key,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    key.push('}');
    key
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.counters);
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Resolves the labelled counter `name{labels}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&metric_key(name, labels))
    }

    /// Resolves (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.gauges);
        map.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Resolves the labelled gauge `name{labels}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge(&metric_key(name, labels))
    }

    /// Resolves (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.histograms);
        map.entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCore::new())))
            .clone()
    }

    /// Resolves the labelled histogram `name{labels}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram(&metric_key(name, labels))
    }

    /// Renders every instrument in Prometheus text exposition format
    /// (counters, gauges, and cumulative-`le` histograms), sorted by name.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = lock(&self.counters).clone();
        let mut last_base = String::new();
        for (key, c) in &counters {
            type_line(&mut out, key, "counter", &mut last_base);
            let _ = writeln!(out, "{key} {}", c.get());
        }
        let gauges = lock(&self.gauges).clone();
        last_base.clear();
        for (key, g) in &gauges {
            type_line(&mut out, key, "gauge", &mut last_base);
            let _ = writeln!(out, "{key} {}", g.get());
        }
        let histograms = lock(&self.histograms).clone();
        last_base.clear();
        for (key, h) in &histograms {
            let (base, labels) = split_key(key);
            type_line(&mut out, key, "histogram", &mut last_base);
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            for (i, n) in counts.iter().enumerate() {
                cumulative += n;
                let le = if i + 1 == HISTOGRAM_BUCKETS {
                    "+Inf".to_string()
                } else {
                    (1u64 << i).to_string()
                };
                let sep = if labels.is_empty() { "" } else { "," };
                let _ = writeln!(
                    out,
                    "{base}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
                );
            }
            let lbl = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            let _ = writeln!(out, "{base}_sum{lbl} {}", h.sum());
            let _ = writeln!(out, "{base}_count{lbl} {}", h.count());
        }
        out
    }

    /// Renders every instrument as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// deterministic (sorted) key order.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters = lock(&self.counters).clone();
        for (i, (key, c)) in counters.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\n    \"{}\": {}", json_escape(key), c.get());
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let gauges = lock(&self.gauges).clone();
        for (i, (key, g)) in gauges.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\n    \"{}\": {}", json_escape(key), g.get());
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let histograms = lock(&self.histograms).clone();
        for (i, (key, h)) in histograms.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let counts = h.bucket_counts();
            let _ = write!(
                out,
                "{comma}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \
                 \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"buckets\": [",
                json_escape(key),
                h.count(),
                h.sum(),
                quantile_from_buckets(&counts, 0.50),
                quantile_from_buckets(&counts, 0.90),
                quantile_from_buckets(&counts, 0.99),
            );
            for (j, n) in counts.iter().enumerate() {
                let comma = if j > 0 { ", " } else { "" };
                let _ = write!(out, "{comma}{n}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Every metric name this workspace exports, with its `# HELP` text.
///
/// This table is the **stability contract** for the scrape surface:
/// `tests/metrics_golden.rs` (workspace root) asserts every name
/// registered during a full serving session appears here, and the pinned
/// unit test below asserts this list itself never changes silently — so
/// renaming or dropping a metric is a conscious, reviewed choice, not a
/// side effect of a refactor. Keep it sorted by name.
pub const METRIC_HELP: &[(&str, &str)] = &[
    (
        "sip_client_oneshot_deferred_check_us",
        "Client-side latency of the RLC-batched deferred round checks on a one-shot proof",
    ),
    (
        "sip_client_oneshot_proof_words",
        "Field words in each received one-shot proof body",
    ),
    (
        "sip_client_oneshot_queries_total",
        "One-shot queries driven by this client process",
    ),
    (
        "sip_cluster_blame_total",
        "Per-shard soundness indictments (Rejection::Blame) booked by the fleet verifier",
    ),
    (
        "sip_cluster_failovers_total",
        "Replica failovers after an I/O fault on the sampled replica",
    ),
    (
        "sip_cluster_indictments_total",
        "Replica-divergence indictments (cross-examined liar caught)",
    ),
    (
        "sip_cluster_oneshot_deferred_check_us",
        "Fleet-side latency of deferred checks across per-shard one-shot proofs",
    ),
    (
        "sip_cluster_oneshot_proof_words",
        "Field words in per-shard one-shot proof bodies",
    ),
    (
        "sip_cluster_retries_total",
        "Transient-fault redials by the fleet driver, labelled by shard and cause",
    ),
    (
        "sip_cluster_shard_wait_us",
        "Wall-clock the aggregating verifier spent waiting on each shard",
    ),
    ("sip_durable_load_us", "Snapshot decode+restore latency"),
    ("sip_durable_loads_total", "Snapshots restored from disk"),
    ("sip_durable_save_us", "Snapshot encode+fsync latency"),
    ("sip_durable_saves_total", "Snapshots persisted to disk"),
    (
        "sip_durable_snapshot_bytes",
        "Size of each persisted snapshot",
    ),
    (
        "sip_fleet_replica_health",
        "Scraped replica health (3=up 2=degraded 1=stale 0=down), labelled shard/replica/prover",
    ),
    (
        "sip_fleet_replica_staleness_us",
        "Age of each replica's last successful scrape",
    ),
    (
        "sip_fleet_scrape_us",
        "Latency of one full scrape of one target",
    ),
    (
        "sip_fleet_scrapes_total",
        "Scrape attempts by the fleet aggregator, labelled by outcome",
    ),
    (
        "sip_fleet_shard_health",
        "Per-shard quorum health (2=full 1=degraded 0=unavailable)",
    ),
    (
        "sip_fleet_slo_burn",
        "Current short-window burn rate of each SLO (milli-burns: 1000 = budget-rate burn)",
    ),
    (
        "sip_fleet_slo_firing",
        "Whether each declared SLO's multi-window burn-rate alert is firing (0/1)",
    ),
    (
        "sip_fleet_targets",
        "Scrape targets the fleet aggregator is polling",
    ),
    ("sip_fleet_up_replicas", "Replicas currently scraping as Up"),
    (
        "sip_fold_binds_total",
        "k-variable binds run by head-started provers (one per proof past round k), labelled by the source read: the frozen vector's array, or its packed nonzero cells",
    ),
    (
        "sip_fold_blocks_total",
        "Pairs or blocks swept by the prover engine's round passes",
    ),
    (
        "sip_fold_message_us",
        "Latency of one pass producing a round message: round 1's walk, a later round's fused fold-and-sum, or a head-started prover's k-variable bind (sampled)",
    ),
    (
        "sip_fold_messages_total",
        "Round messages produced by the prover engine (one pass each)",
    ),
    (
        "sip_registry_attach_total",
        "Sessions attached to a published dataset",
    ),
    (
        "sip_registry_checkpoint_total",
        "Named checkpoints saved via Msg::SaveState",
    ),
    (
        "sip_registry_f2_head_build_us",
        "Latency of building one vector's head (the Gram matrices behind F2's first round messages and the prefix sums behind RANGE-SUM's, one pass), at publish, at reload or at a snapshot's first query",
    ),
    (
        "sip_registry_f2_head_builds_total",
        "Vector heads built (one serves F2, RANGE-SUM and RANGE-COUNT over its vector): one per publish, one per published dataset reloaded at startup, and one per vector queried on each snapshot of a private store or of a kv dataset's range vectors",
    ),
    (
        "sip_registry_f2_head_bytes",
        "Bytes one head holds beside its vector (Gram matrices, prefix-sum checkpoints, packed nonzero cells), observed per build",
    ),
    (
        "sip_registry_load_errors",
        "Snapshots skipped while reloading the data dir at startup",
    ),
    (
        "sip_registry_publish_total",
        "Datasets published into the server registry",
    ),
    (
        "sip_registry_restore_total",
        "Checkpoints thawed via Msg::Resume",
    ),
    (
        "sip_server_active_sessions",
        "Sessions currently being served",
    ),
    (
        "sip_server_attached_sessions",
        "Sessions currently attached to a published dataset",
    ),
    ("sip_server_decode_us", "Wire-frame decode latency"),
    (
        "sip_server_frames_total",
        "Wire frames received across all sessions",
    ),
    ("sip_server_handle_us", "Per-frame handling latency"),
    (
        "sip_server_ingest_updates_total",
        "Stream updates ingested by server sessions",
    ),
    (
        "sip_server_last_cost_p_to_v_words",
        "Prover-to-verifier words of the last completed session's CostReport",
    ),
    (
        "sip_server_last_cost_rounds",
        "Interaction rounds of the last completed session's CostReport",
    ),
    (
        "sip_server_last_cost_total_words",
        "Total words of the last completed session's CostReport",
    ),
    (
        "sip_server_last_cost_v_to_p_words",
        "Verifier-to-prover words of the last completed session's CostReport",
    ),
    (
        "sip_server_last_cost_verifier_space_words",
        "Verifier space words of the last completed session's CostReport",
    ),
    (
        "sip_server_msg_total",
        "Frames received, labelled by message kind",
    ),
    (
        "sip_server_protocol_errors_total",
        "Frames refused as protocol errors",
    ),
    (
        "sip_server_rejections_total",
        "Soundness rejections served to verifiers",
    ),
    (
        "sip_server_store_promotions_total",
        "Private raw stores switched from the sparse tree to the dense array: once the peer has sent u/8 updates, or once u/8 keys are nonzero",
    ),
    (
        "sip_server_sumcheck_provers_total",
        "Sum-check provers built, labelled by query and by start: head (the first rounds from the vector's head, no pass over the data) or sweep (a query over an array too full to pack, where no publish built its head)",
    ),
    (
        "sip_server_wire_faults_total",
        "Connections dropped on wire faults",
    ),
];

/// The `# HELP` text for a base metric name, when it is part of the
/// workspace's pinned scrape surface ([`METRIC_HELP`]).
pub fn help_for(base: &str) -> Option<&'static str> {
    METRIC_HELP
        .binary_search_by(|(name, _)| name.cmp(&base))
        .ok()
        .map(|i| METRIC_HELP[i].1)
}

/// Splits a full key into `(base_name, label_body)` — the label body is the
/// text between the braces, empty when unlabelled.
fn split_key(key: &str) -> (&str, &str) {
    match key.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (key, ""),
    }
}

/// Emits one `# HELP` (when the name is in [`METRIC_HELP`]) and one
/// `# TYPE` header per base name (keys are sorted, so equal bases are
/// adjacent).
fn type_line(out: &mut String, key: &str, kind: &str, last_base: &mut String) {
    let (base, _) = split_key(key);
    if base != last_base {
        if let Some(help) = help_for(base) {
            let _ = writeln!(out, "# HELP {base} {help}");
        }
        let _ = writeln!(out, "# TYPE {base} {kind}");
        last_base.clear();
        last_base.push_str(base);
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every instrumented crate reports into.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// [`Registry::counter`] on the global registry.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// [`Registry::counter_with`] on the global registry.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    registry().counter_with(name, labels)
}

/// [`Registry::gauge`] on the global registry.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// [`Registry::gauge_with`] on the global registry.
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Gauge {
    registry().gauge_with(name, labels)
}

/// [`Registry::histogram`] on the global registry.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// [`Registry::histogram_with`] on the global registry.
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> Histogram {
    registry().histogram_with(name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("t_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("t_total").get(), 5);
        let g = reg.gauge("t_level");
        g.set(7);
        g.add(-3);
        assert_eq!(reg.gauge("t_level").get(), 4);
    }

    #[test]
    fn gauge_guard_restores_on_drop() {
        let reg = Registry::new();
        let g = reg.gauge("t_sessions");
        {
            let _a = GaugeGuard::new(g.clone());
            let _b = GaugeGuard::new(g.clone());
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let reg = Registry::new();
        let h = reg.histogram("t_us");
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2); // 0 and 1
        assert_eq!(counts[1], 1); // 2
        assert_eq!(counts[2], 2); // 3, 4
        assert_eq!(counts[10], 1); // 1000 ≤ 1024
        assert_eq!(counts[HISTOGRAM_BUCKETS - 1], 1); // overflow
    }

    #[test]
    fn labels_build_distinct_instruments() {
        let reg = Registry::new();
        reg.counter_with("t_msg_total", &[("msg", "ingest")]).inc();
        reg.counter_with("t_msg_total", &[("msg", "bye")]).add(2);
        assert_eq!(
            reg.counter_with("t_msg_total", &[("msg", "ingest")]).get(),
            1
        );
        assert_eq!(reg.counter_with("t_msg_total", &[("msg", "bye")]).get(), 2);
    }

    #[test]
    fn prometheus_render_shape() {
        let reg = Registry::new();
        reg.counter_with("t_msg_total", &[("msg", "ingest")]).add(3);
        reg.counter_with("t_msg_total", &[("msg", "bye")]).inc();
        reg.gauge("t_active").set(2);
        reg.histogram_with("t_us", &[("shard", "0")]).observe(5);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE t_msg_total counter"));
        assert_eq!(text.matches("# TYPE t_msg_total counter").count(), 1);
        assert!(text.contains("t_msg_total{msg=\"ingest\"} 3"));
        assert!(text.contains("t_msg_total{msg=\"bye\"} 1"));
        assert!(text.contains("# TYPE t_active gauge"));
        assert!(text.contains("t_active 2"));
        assert!(text.contains("# TYPE t_us histogram"));
        assert!(text.contains("t_us_bucket{shard=\"0\",le=\"8\"} 1"));
        assert!(text.contains("t_us_bucket{shard=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("t_us_sum{shard=\"0\"} 5"));
        assert!(text.contains("t_us_count{shard=\"0\"} 1"));
    }

    #[test]
    fn quantiles_on_pinned_distributions() {
        // Uniform 1..=1024 fills each log₂ bucket to its width, so the
        // interpolated estimate is *exact* at every rank that lands on a
        // boundary-aligned fraction.
        let reg = Registry::new();
        let h = reg.histogram("t_q");
        for v in 1..=1024u64 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.50), 512.0);
        assert_eq!(h.quantile(0.99), 1014.0);
        assert_eq!(h.quantile(1.0), 1024.0);
        assert_eq!(h.quantile(0.0), 1.0); // rank clamps to the 1st obs

        // A point mass at 100 lands in (64, 128]; the estimate stays
        // inside the bucket (≤2× relative error by construction).
        let p = reg.histogram("t_point");
        for _ in 0..1000 {
            p.observe(100);
        }
        assert_eq!(p.quantile(0.5), 96.0);
        assert!(p.quantile(0.99) > 64.0 && p.quantile(0.99) <= 128.0);

        // Bimodal 90×1 + 10×1000: the p50 sits in the first bucket, the
        // p99 in 1000's bucket.
        let b = reg.histogram("t_bimodal");
        for _ in 0..90 {
            b.observe(1);
        }
        for _ in 0..10 {
            b.observe(1000);
        }
        assert!(b.quantile(0.5) <= 1.0);
        let p99 = b.quantile(0.99);
        assert!((972.8 - p99).abs() < 1e-9, "{p99}");

        // Overflow bucket answers its lower bound; empty answers 0.
        let o = reg.histogram("t_overflow");
        o.observe(u64::MAX);
        assert_eq!(o.quantile(0.99), (1u64 << 22) as f64);
        assert_eq!(reg.histogram("t_empty").quantile(0.5), 0.0);

        // Hostile bucket lists: overlong and truncated slices stay finite.
        let long = vec![1u64; 4096];
        assert!(quantile_from_buckets(&long, 0.99).is_finite());
        assert!(quantile_from_buckets(&[0, 3], 0.5) <= 2.0);
    }

    #[test]
    fn help_table_is_sorted_unique_and_resolvable() {
        for pair in METRIC_HELP.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "METRIC_HELP must stay sorted and duplicate-free: {} vs {}",
                pair[0].0,
                pair[1].0
            );
        }
        for (name, help) in METRIC_HELP {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not a Prometheus-safe base name"
            );
            assert!(!help.is_empty() && !help.contains('\n'));
            assert_eq!(help_for(name), Some(*help));
        }
        assert_eq!(help_for("sip_not_a_metric"), None);
    }

    #[test]
    fn prometheus_render_emits_help_for_pinned_names() {
        let reg = Registry::new();
        reg.counter("sip_server_frames_total").add(2);
        reg.counter("t_unpinned_total").inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("# HELP sip_server_frames_total Wire frames received"),
            "{text}"
        );
        assert!(text.contains("# TYPE sip_server_frames_total counter"));
        // Unpinned names still render, just without HELP.
        assert!(!text.contains("# HELP t_unpinned_total"));
        assert!(text.contains("t_unpinned_total 1"));
    }

    #[test]
    fn json_snapshot_carries_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("t_h");
        for v in 1..=1024u64 {
            h.observe(v);
        }
        let json = reg.snapshot_json();
        assert!(json.contains("\"p50\": 512.0"), "{json}");
        assert!(json.contains("\"p90\": "), "{json}");
        assert!(json.contains("\"p99\": 1014.0"), "{json}");
    }

    #[test]
    fn json_snapshot_is_escaped_and_deterministic() {
        let reg = Registry::new();
        reg.counter_with("t_total", &[("msg", "a\"b")]).inc();
        reg.gauge("t_g").set(-4);
        reg.histogram("t_h").observe(3);
        let a = reg.snapshot_json();
        let b = reg.snapshot_json();
        assert_eq!(a, b);
        assert!(a.contains("t_total{msg=\\\"a\\\\\\\"b\\\"}"), "{a}");
        assert!(a.contains("\"t_g\": -4"));
        assert!(a.contains("\"count\": 1, \"sum\": 3"));
    }
}

//! `sip-obs`: observability for the prover fleet — metrics, structured
//! events, and a read-only ops surface — with **zero dependencies** (the
//! build container is offline; everything here is `std`).
//!
//! The paper's thesis is that verification is cheap enough to *meter*:
//! `CostReport`-style accounting treats per-query cost as a first-class
//! output. This crate extends that discipline to the running
//! system, under a strict overhead budget (< 2 % on the fold hot path,
//! enforced by `bench_obs` in CI):
//!
//! * **Metrics** ([`metrics`]): atomic counters, gauges, and fixed-bucket
//!   histograms in a process-global [`Registry`]. A handle is an `Arc`'d
//!   atomic — resolve once, then every operation is one relaxed atomic
//!   instruction. Rendered as a Prometheus text dump
//!   ([`Registry::render_prometheus`]) or a JSON snapshot
//!   ([`Registry::snapshot_json`]).
//! * **Events** ([`mod@event`]): levelled `key=value` records dispatched to
//!   pluggable sinks — stderr lines ([`StderrSink`]), JSONL files
//!   ([`JsonlSink`], the server's `--log-json`), or an in-memory ring for
//!   tests ([`RingSink`]). With no sink installed, `Warn`+ falls back to
//!   stderr. [`span!`] scopes time themselves and emit on drop.
//! * **Ops surface** ([`ops`]): `serve_ops` binds a bounded, timeout-read,
//!   panic-free HTTP responder exposing `/metrics` and `/stats`
//!   (`sip-prover --metrics-addr`).
//!
//! The global [`enabled`] switch (default on) gates every event and every
//! guarded hot-path site; `bench_obs` measures instrumented vs.
//! uninstrumented throughput by flipping it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod ops;
pub mod recorder;
pub mod trace;

pub use event::{
    add_sink, clear_sinks, emit, event_would_log, set_min_level, Event, JsonlSink, Level, RingSink,
    Sink, Span, StderrSink,
};
pub use metrics::{
    counter, counter_with, gauge, gauge_with, histogram, histogram_with, metric_key, registry,
    Counter, Gauge, GaugeGuard, Histogram, Registry, Timer, HISTOGRAM_BUCKETS,
};
pub use metrics::{help_for, quantile_from_buckets, METRIC_HELP};
pub use ops::{advertised_ops_addr, serve_ops, serve_ops_with, OpsHandle, OpsResponse, OpsRoutes};
pub use recorder::{FlightEntry, FlightRecorder};
pub use trace::{SpanGuard, SpanRecord, TraceContext};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Hot-path timer sampling rate: the engine's per-call latency timers run
/// on roughly 1 in `timer_sample()` calls. Counters stay exact at any
/// setting — only the latency histograms are sampled.
static TIMER_SAMPLE: AtomicU64 = AtomicU64::new(16);

/// The current hot-path timer sampling rate (16 unless
/// [`set_timer_sample`] was called). `0` means the sampled timers are off
/// entirely.
pub fn timer_sample() -> u64 {
    TIMER_SAMPLE.load(Ordering::Relaxed)
}

/// Sets the hot-path timer sampling rate for this process. Not an
/// operator knob: provers run at the constant 16, which keeps the
/// clock-read cost unmeasurable; `sip-top` passes `0` to turn its own
/// process's timers off.
pub fn set_timer_sample(rate: u64) {
    TIMER_SAMPLE.store(rate, Ordering::Relaxed);
}

/// The `/stats` and `Msg::StatsReply` body: the metrics registry snapshot
/// ([`Registry::snapshot_json`]) with a `"tracing"` status block
/// ([`trace::status_json`]) and an `"ops"` block (the actually-bound
/// metrics port, so a scraper that learned of this prover in-protocol can
/// enumerate its ops surface without racing on a fixed port) spliced in
/// as two more top-level keys.
pub fn stats_json() -> String {
    let mut out = registry().snapshot_json();
    // snapshot_json always ends with the object's closing brace; reopen
    // it to append the tracing block so the document stays one object.
    let tail = out.rfind('}').expect("snapshot is a JSON object");
    out.truncate(tail);
    let ops = match ops::advertised_ops_addr() {
        Some(addr) => format!("{{\"metrics_addr\": \"{addr}\"}}"),
        None => "{\"metrics_addr\": null}".to_string(),
    };
    out.push_str(&format!(
        ",\n  \"ops\": {ops},\n  \"tracing\": {}\n}}\n",
        trace::status_json()
    ));
    out
}

/// Whether instrumentation is live. One relaxed load — hot paths check
/// this and skip their metric updates entirely when it is off.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off process-wide (benchmark baselines).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Emits one structured event:
/// `event!(Level::Warn, "sip.server", "snapshot skipped", "file" => name)`.
///
/// Field keys are `&'static str`, values anything `ToString`. Nothing is
/// formatted unless the level currently passes [`event_would_log`].
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $msg:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::event_would_log($level) {
            $crate::emit(
                $level,
                $target,
                &::std::string::ToString::to_string(&$msg),
                ::std::vec![$(($k, ::std::string::ToString::to_string(&$v))),*],
            );
        }
    };
}

/// Opens a timing scope that emits a `Debug` event with `elapsed_us` when
/// dropped: `let _span = span!("sip.server", "handle_frame", "msg" => name);`
#[macro_export]
macro_rules! span {
    ($target:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        $crate::Span::new($target, $name)$(.field($k, &$v))*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_switch_gates_events() {
        // Uses only would-log (no global sink state) to stay independent
        // of concurrently running tests.
        set_enabled(true);
        assert!(event_would_log(Level::Error));
        set_enabled(false);
        assert!(!event_would_log(Level::Error));
        set_enabled(true);
    }

    #[test]
    fn stats_json_is_one_object_with_tracing_block() {
        counter("sip_obs_stats_test_counter").inc();
        let json = stats_json();
        let trimmed = json.trim();
        assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{json}");
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"tracing\": {"), "{json}");
        assert!(json.contains("\"spans_recorded\""), "{json}");
        assert!(json.contains("\"ops\": {\"metrics_addr\": "), "{json}");
        // The splice reopens the outer object: braces must still balance.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn timer_sample_knob_round_trips() {
        let prev = timer_sample();
        set_timer_sample(0);
        assert_eq!(timer_sample(), 0);
        set_timer_sample(4);
        assert_eq!(timer_sample(), 4);
        set_timer_sample(prev);
    }

    #[test]
    fn macros_compile_and_run() {
        let n = 3u32;
        event!(Level::Debug, "sip.obs", "macro smoke", "n" => n, "s" => "x");
        let _span = span!("sip.obs", "macro_span", "n" => n);
    }
}

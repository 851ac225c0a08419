//! Harness-side span tracing: one span per layer boundary the harness
//! crosses, kept in memory and written out when the workload ends.
//!
//! The program under test is not instrumented here — every span is opened
//! by benchmark code around a public call (`query`, `ingest`, `publish`, …)
//! or inside the [`crate::transport::Tap`] transport wrapper
//! (`transport.send` / `transport.recv`). A span's **self time** is its
//! duration minus the part of that interval its children cover, so a
//! `query` span's self time is exactly the client-side compute that was
//! neither socket write nor blocked read.
//!
//! Tracing is process-global and off by default; with it off [`span`]
//! costs one relaxed atomic load.
//!
//! Why this is not `sip_obs::trace`, which has the same guard, collector and
//! switch: that tracer is the program's own instrumentation, and turning it
//! on changes the program being measured. With `set_tracing(true)` every
//! client library call opens its own spans (`sip.client`/`sip.cluster`
//! `query`, `round`, `wire_wait`, …) and — because a span is then open —
//! sends a `Msg::TraceContext` frame to every shard ahead of every query
//! (`RawClient::announce_trace`, `ClusterClient`, `ReplicaFleet`). The
//! traced pass would count one more frame (two `u64`s and a header) per
//! query per shard than the untraced pass whose traffic it is meant to explain
//! (`wire.frames_per_query`, `wire.bytes_per_frame`,
//! `cluster.round_trips_per_query`), and ISSUE 11 keeps in-program spans
//! for a later change. Filtering records by target afterwards removes
//! neither the frame nor the work. Two smaller mismatches: its timestamps
//! are whole microseconds (a `transport.send` is 2–10 µs), and its
//! per-thread buffers drop spans beyond 16 384 (a `serve` lap records
//! several thousand on the client thread, a run several laps). What is new here beyond the collector is
//! [`self_times`], [`op_classes`] and [`adopt_orphans`].

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the run, allocation order.
    pub id: u64,
    /// The span open on this thread when this one was opened (0 = root).
    pub parent: u64,
    /// Spans of one operation (one query, one ingest session) share this.
    pub op_id: u64,
    /// Crate name of the layer the call enters.
    pub layer: &'static str,
    /// What the call is (`query.f2_interactive`, `transport.recv`, …).
    pub name: &'static str,
    /// Microseconds since tracing was enabled.
    pub start_us: f64,
    /// Microseconds since tracing was enabled.
    pub end_us: f64,
}

impl Span {
    /// `end − start` in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

// Relaxed is enough: the flag and counters publish no other data — spans
// themselves travel through the mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) }; // (span id, op id)
}

/// Turns span collection on or off (and fixes the time origin on first
/// use).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// An open span; closing (dropping) it records it.
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    /// `CURRENT` as it was before this span opened: `(span id, op id)`.
    prev: (u64, u64),
    layer: &'static str,
    name: &'static str,
    start_us: f64,
}

/// Opens a span under whatever span is open on this thread. A root span
/// starts a new operation; children inherit the operation id.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(Cell::get);
    let op_id = if prev.0 == 0 { id } else { prev.1 };
    CURRENT.with(|c| c.set((id, op_id)));
    Guard {
        open: Some(Open {
            id,
            prev,
            layer,
            name,
            start_us: now_us(),
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_us = now_us();
        CURRENT.with(|c| c.set(open.prev));
        // A poisoned collector only means some other thread panicked while
        // pushing; the vector itself is still a valid vector of spans.
        let mut spans = SPANS.lock().unwrap_or_else(|p| p.into_inner());
        spans.push(Span {
            id: open.id,
            parent: open.prev.0,
            op_id: if open.prev.0 == 0 {
                open.id
            } else {
                open.prev.1
            },
            layer: open.layer,
            name: open.name,
            start_us: open.start_us,
            end_us,
        });
    }
}

/// Removes and returns every span recorded so far, with helper-thread
/// spans re-parented (see [`adopt_orphans`]).
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|p| p.into_inner()));
    adopt_orphans(&mut spans);
    spans
}

/// Re-parents root spans of layer `wire` that lie wholly inside another
/// root span onto that span. The client libraries read a fleet's proofs on
/// short-lived helper threads, where the thread-local parent is empty; the
/// client loop is closed (one operation open at a time), so containment in
/// time identifies the operation a frame belonged to.
pub fn adopt_orphans(spans: &mut [Span]) {
    let mut hosts: Vec<(f64, f64, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.layer != "wire")
        .map(|s| (s.start_us, s.end_us, s.id, s.op_id))
        .collect();
    hosts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    for s in spans
        .iter_mut()
        .filter(|s| s.parent == 0 && s.layer == "wire")
    {
        // The last host starting at or before the orphan; hosts on one
        // thread never overlap, so it is the only candidate.
        let at = hosts.partition_point(|h| h.0 <= s.start_us);
        if let Some(&(_, end, id, op_id)) = at.checked_sub(1).and_then(|i| hosts.get(i)) {
            if s.end_us <= end {
                s.parent = id;
                s.op_id = op_id;
            }
        }
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the parent, so an overlapping or overrunning child
/// is never counted twice or beyond its parent).
///
/// Where siblings overlap — frames read on parallel helper threads — the
/// shared stretch is credited to the sibling that started first and taken
/// off the later one's self time, so the self times of an operation's spans
/// always add up to the operation's duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us, s.id));
        }
    }
    let mut selfs: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.dur_us())).collect();
    for s in spans {
        let Some(kids) = children.get_mut(&s.id) else {
            continue;
        };
        kids.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut cursor = s.start_us;
        for &(lo, hi, kid) in kids.iter() {
            let credit = (hi.min(s.end_us) - lo.max(cursor)).max(0.0);
            cursor = cursor.max(hi.min(s.end_us));
            *selfs.get_mut(&s.id).expect("every span is listed") -= credit;
            // What of the child's own interval was already covered (or lies
            // outside the parent) is not the child's to claim.
            *selfs.get_mut(&kid).expect("every span is listed") -= (hi - lo) - credit;
        }
    }
    for v in selfs.values_mut() {
        *v = v.max(0.0);
    }
    selfs
}

/// Per root-span name: how many operations ran, their total duration, and
/// the self time summed per `(layer, name)` over the whole subtree — the
/// measured half of the waterfall.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpClass {
    /// Operations (root spans) of this class.
    pub count: u64,
    /// Σ root-span duration, microseconds.
    pub total_us: f64,
    /// Σ self time by `layer/name`, microseconds. Sums to `total_us`.
    pub self_us: BTreeMap<String, f64>,
    /// Σ occurrences by `layer/name` (frames for transport spans).
    pub calls: BTreeMap<String, u64>,
}

/// Groups spans by the name of their operation's root span.
pub fn op_classes(spans: &[Span]) -> BTreeMap<&'static str, OpClass> {
    let selfs = self_times(spans);
    let roots: BTreeMap<u64, &'static str> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.op_id, s.name))
        .collect();
    let mut out: BTreeMap<&'static str, OpClass> = BTreeMap::new();
    for s in spans {
        let Some(&class) = roots.get(&s.op_id) else {
            continue;
        };
        let entry = out.entry(class).or_default();
        if s.parent == 0 {
            entry.count += 1;
            entry.total_us += s.dur_us();
        }
        let key = format!("{}/{}", s.layer, s.name);
        *entry.self_us.entry(key.clone()).or_default() += selfs[&s.id];
        *entry.calls.entry(key).or_default() += 1;
    }
    out
}

/// The spans as a JSON array (the `trace-<workload>.json` body).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"op_id\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id, s.parent, s.op_id, s.layer, s.name, s.start_us, s.end_us
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Serialises the tests that switch the process-global collector on.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, op_id: u64, name: &'static str, lo: f64, hi: f64) -> Span {
        Span {
            id,
            parent,
            op_id,
            layer: "t",
            name,
            start_us: lo,
            end_us: hi,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > a [10,40] > b [20,30]; root > c [50,70]
        let spans = vec![
            sp(1, 0, 1, "root", 0.0, 100.0),
            sp(2, 1, 1, "a", 10.0, 40.0),
            sp(3, 2, 1, "b", 20.0, 30.0),
            sp(4, 1, 1, "c", 50.0, 70.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50.0); // 100 − 30 − 20; b is a's child, not root's
        assert_eq!(selfs[&2], 20.0);
        assert_eq!(selfs[&3], 10.0);
        assert_eq!(selfs[&4], 20.0);
        let total: f64 = selfs.values().sum();
        assert_eq!(total, 100.0, "self times partition the root span");
    }

    #[test]
    fn self_time_unions_overlapping_and_clips_overrunning_children() {
        // Children [10,60] and [40,80] overlap (two threads under one
        // parent); a third overruns the parent's end.
        let spans = vec![
            sp(1, 0, 1, "root", 0.0, 100.0),
            sp(2, 1, 1, "x", 10.0, 60.0),
            sp(3, 1, 1, "y", 40.0, 80.0),
            sp(4, 1, 1, "z", 90.0, 130.0),
        ];
        let selfs = self_times(&spans);
        // Covered: [10,80] ∪ [90,100] = 80 → self 20.
        assert_eq!(selfs[&1], 20.0);
        // x keeps its 50; y is credited only [60,80]; z only [90,100].
        assert_eq!((selfs[&2], selfs[&3], selfs[&4]), (50.0, 20.0, 10.0));
        assert_eq!(selfs.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn helper_thread_frames_are_adopted_by_the_enclosing_operation() {
        let mut spans = vec![
            sp(1, 0, 1, "query", 0.0, 100.0),
            // Two proofs read in parallel on helper threads, overlapping.
            Span {
                layer: "wire",
                ..sp(2, 0, 2, "transport.recv", 10.0, 60.0)
            },
            Span {
                layer: "wire",
                ..sp(3, 0, 3, "transport.recv", 20.0, 80.0)
            },
            // A frame outside any operation stays a root.
            Span {
                layer: "wire",
                ..sp(4, 0, 4, "transport.recv", 150.0, 160.0)
            },
            sp(5, 0, 5, "query", 200.0, 300.0),
        ];
        adopt_orphans(&mut spans);
        assert_eq!((spans[1].parent, spans[1].op_id), (1, 1));
        assert_eq!((spans[2].parent, spans[2].op_id), (1, 1));
        assert_eq!(spans[3].parent, 0);
        // Overlapping children are unioned: [10, 80] covered, 30 left.
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30.0);
        assert_eq!(selfs[&2] + selfs[&3], 70.0);
        let classes = op_classes(&spans);
        assert_eq!(classes["query"].calls["wire/transport.recv"], 2);
    }

    #[test]
    fn op_classes_sum_to_the_root_duration() {
        let spans = vec![
            sp(1, 0, 1, "query", 0.0, 100.0),
            sp(2, 1, 1, "recv", 10.0, 90.0),
            sp(3, 0, 3, "query", 200.0, 260.0),
            sp(4, 3, 3, "recv", 210.0, 220.0),
            sp(5, 0, 5, "ingest", 300.0, 310.0),
        ];
        let classes = op_classes(&spans);
        let q = &classes["query"];
        assert_eq!(q.count, 2);
        assert_eq!(q.total_us, 160.0);
        assert_eq!(q.self_us.values().sum::<f64>(), 160.0);
        assert_eq!(q.self_us["t/recv"], 90.0);
        assert_eq!(q.calls["t/recv"], 2);
        assert_eq!(classes["ingest"].count, 1);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        {
            let _root = span("t", "outer");
            let _kid = span("t", "inner");
        }
        set_enabled(false);
        let _ignored = span("t", "off");
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op_id, outer.op_id);
        assert!(inner.start_us >= outer.start_us && inner.end_us <= outer.end_us);
        assert!(!spans.iter().any(|s| s.name == "off"));
        let parsed = sip_fleetobs::Json::parse(&to_json(&spans)).expect("trace JSON parses");
        assert_eq!(parsed.as_arr().unwrap().len(), spans.len());
    }
}

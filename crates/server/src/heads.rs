//! The heads of a store's query vectors, built at most once per snapshot.
//!
//! An [`F2Head`] answers the first `k` rounds of every SELF-JOIN SIZE and
//! RANGE-SUM proof over one vector without a pass over it, and its bind
//! reads only the nonzero cells where the vector is mostly zero. It is
//! derived state: a function of the vector alone, never persisted, never
//! sent, at most 7/16 of an array's bytes and about half a tree's
//! (26 bytes a nonzero cell against the tree's ≈ 50), and dropped on the
//! next write. A [`HeadCache`] holds one per vector a sum-check reads —
//! a raw stream has one, a kv store three — in two places:
//!
//! * a published [`Dataset`](crate::registry::Dataset), whose data never changes:
//!   the raw head is built at publish (and on reload), the others at their
//!   first query;
//! * a session-private store, whose `Msg::Ingest` clears the cache
//!   *before* it writes — a head holds an `O(1)` snapshot of its vector, and
//!   a write under a live snapshot copies the whole vector.
//!
//! A head is built at its vector's first query when the build packs the
//! vector (a tree, or an array at most a quarter nonzero): then the build
//! and the head-started proof together cost less than the sweep they
//! replace. Over a fuller array one build costs more than a sweep, and no
//! measured workload queries one snapshot of such a private array often
//! enough to pay it back, so those queries sweep (a published array's raw
//! head is built at publish regardless).

use std::sync::{Arc, OnceLock};

use sip_core::sumcheck::f2::F2Head;
use sip_field::PrimeField;
use sip_streaming::FrequencyVector;

use crate::registry::DatasetData;

/// A vector an aggregate query reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum QueryVector {
    /// A raw stream's one vector (F₂ and RANGE-SUM), or a kv store's raw
    /// values (F₂).
    Raw,
    /// A kv store's `value + 1` vector (RANGE-SUM).
    Encoded,
    /// A kv store's presence vector (RANGE-COUNT).
    Presence,
}

/// The lazily built heads of one snapshot's query vectors, one slot per
/// [`QueryVector`].
#[derive(Default)]
pub(crate) struct HeadCache<F: PrimeField> {
    slots: [OnceLock<Arc<F2Head<F>>>; 3],
}

impl<F: PrimeField> HeadCache<F> {
    /// The head a query over `which` of `data` starts from: the cached one,
    /// or one built now where the build packs the vector; `None` — the
    /// query sweeps — over an array too full to pack. Two first queries
    /// that race may both build; the first one stored is kept.
    pub(crate) fn head(
        &self,
        data: &DatasetData<F>,
        which: QueryVector,
        log_u: u32,
    ) -> Option<Arc<F2Head<F>>> {
        let slot = &self.slots[which as usize];
        if let Some(head) = slot.get() {
            return Some(Arc::clone(head));
        }
        let head = build_head(data.vector(which), log_u, F2Head::build_if_packed)?;
        Some(Arc::clone(slot.get_or_init(|| Arc::new(head))))
    }

    /// The head of `which`, built now if no query built it yet, whatever
    /// the vector (what publish and published reload do for the raw head).
    pub(crate) fn build(
        &self,
        data: &DatasetData<F>,
        which: QueryVector,
        log_u: u32,
    ) -> &Arc<F2Head<F>> {
        self.slots[which as usize].get_or_init(|| {
            let build = |fv: &_, log_u| Some(F2Head::build(fv, log_u));
            Arc::new(build_head(data.vector(which), log_u, build).expect("always builds"))
        })
    }

    /// The head of `which`, if one is built.
    pub(crate) fn built(&self, which: QueryVector) -> Option<&F2Head<F>> {
        self.slots[which as usize].get().map(|head| &**head)
    }

    /// Drops every head, and with it every snapshot a head holds — what a
    /// write must do first.
    pub(crate) fn clear(&mut self) {
        *self = Self::default();
    }
}

/// The one head builder: `build` over `fv`, booked as one build, its time
/// and its bytes where it built one.
fn build_head<F: PrimeField>(
    fv: &FrequencyVector,
    log_u: u32,
    build: impl FnOnce(&FrequencyVector, u32) -> Option<F2Head<F>>,
) -> Option<F2Head<F>> {
    let mut span = sip_obs::trace::span("sip.server.registry", "f2_head");
    span.field("log_u", log_u);
    let timer = sip_obs::enabled().then(sip_obs::Timer::start);
    let head = build(fv, log_u);
    span.field("built", head.is_some());
    let head = head?;
    if let Some(timer) = timer {
        sip_obs::counter("sip_registry_f2_head_builds_total").inc();
        sip_obs::histogram("sip_registry_f2_head_build_us").observe(timer.elapsed_us());
        sip_obs::histogram("sip_registry_f2_head_bytes").observe(head.bytes() as u64);
    }
    Some(head)
}

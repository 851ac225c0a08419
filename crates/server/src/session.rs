//! The per-connection protocol state machine (prover side).
//!
//! One session = one verifier connection = one data stream plus any number
//! of sequential queries over it. The machine is message-driven: every
//! incoming frame either advances the active query, opens a new one, or is
//! answered with an [`Msg::Error`] — **never a panic**: the peer is
//! untrusted by construction, and a prover that can be crashed is a prover
//! that can be censored.
//!
//! ```text
//! (Ingest | Query → rounds → verdict)* ──Bye/close──▶ done
//! ```
//!
//! Updates and queries may interleave freely — the in-process
//! [`CloudStore`] has no phases and this server is a drop-in for it.
//!
//! The provers driven here are exactly the in-process ones
//! ([`F2Prover`], [`RangeSumProver`], [`SubVectorProver`], [`HhProver`],
//! via [`CloudStore`]'s vectors) — outsourcing changes where the prover
//! runs, not what it computes.

use std::sync::{Arc, OnceLock};

use sip_core::channel::Transport;
use sip_core::heavy_hitters::HhProver;
use sip_core::subvector::{RoundRequest, SubVectorProver};
use sip_core::sumcheck::f2::F2Prover;
use sip_core::sumcheck::range_sum::RangeSumProver;
use sip_core::sumcheck::{prove_oneshot, ProverWalk, RoundProver};
use sip_core::transcript::query_transcript;
use sip_core::CostReport;
use sip_field::PrimeField;
use sip_kvstore::CloudStore;
use sip_streaming::{CellOverflow, FrequencyVector, ShardPlan, Update};
use sip_wire::{Msg, MsgChannel, Query, SessionMode, ShardSpec, WireCodec, WireError};

use crate::heads::{HeadCache, QueryVector};
use crate::registry::{Dataset, DatasetData, DatasetRegistry, MAX_DATASET_ID_LEN};

/// Upper bound on `log_u` a session may request (a 2^40 dense universe is
/// already far beyond what the dense provers should materialise).
pub const MAX_LOG_U: u32 = 40;

/// Pre-resolved handles for the session's fixed metrics; per-`Msg`-variant
/// counters go through the registry's labelled lookup instead (one frame =
/// at least one syscall, so a map lookup there is noise).
struct SessionMetrics {
    frames: sip_obs::Counter,
    decode_us: sip_obs::Histogram,
    handle_us: sip_obs::Histogram,
    ingest_updates: sip_obs::Counter,
    store_promotions: sip_obs::Counter,
    rejections: sip_obs::Counter,
    protocol_errors: sip_obs::Counter,
    wire_faults: sip_obs::Counter,
    attached: sip_obs::Gauge,
}

fn session_metrics() -> &'static SessionMetrics {
    static METRICS: OnceLock<SessionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SessionMetrics {
        frames: sip_obs::counter("sip_server_frames_total"),
        decode_us: sip_obs::histogram("sip_server_decode_us"),
        handle_us: sip_obs::histogram("sip_server_handle_us"),
        ingest_updates: sip_obs::counter("sip_server_ingest_updates_total"),
        store_promotions: sip_obs::counter("sip_server_store_promotions_total"),
        rejections: sip_obs::counter("sip_server_rejections_total"),
        protocol_errors: sip_obs::counter("sip_server_protocol_errors_total"),
        wire_faults: sip_obs::counter("sip_server_wire_faults_total"),
        attached: sip_obs::gauge("sip_server_attached_sessions"),
    })
}

/// An honest sum-check prover of any aggregate query, as a session holds it.
type SumCheckProver<F> = Box<dyn RoundProver<F> + Send>;

/// The currently open query, if any.
enum Active<F: PrimeField> {
    Idle,
    /// A sum-check query mid-rounds.
    SumCheck {
        prover: SumCheckProver<F>,
        /// Round polynomials already sent.
        sent: usize,
        /// Total rounds `d`.
        rounds: usize,
    },
    /// A sub-vector reporting query mid-rounds.
    SubVector {
        prover: SubVectorProver<F>,
        /// The level the next round request must carry.
        next_level: u32,
    },
    /// A heavy-hitters query mid-disclosure.
    Heavy {
        prover: HhProver<F>,
        /// The level the next key reveal must carry.
        next_level: u32,
    },
}

/// What the data of this session is.
enum Store<F: PrimeField> {
    /// Session-private data — a raw update stream (frequency-vector
    /// semantics) or key-value puts (`δ = value + 1` encoding, three derived
    /// vectors) — and the heads of its vectors built since its last write.
    Private(DatasetData<F>, HeadCache<F>),
    /// A frozen published snapshot shared with other sessions — queries
    /// read it (and its heads) through the `Arc`; ingest is refused.
    Shared(Arc<Dataset<F>>),
}

/// Everything a session inherits from its server beyond the handshake:
/// shard pin and the shared dataset registry.
pub struct SessionContext<F: PrimeField> {
    /// Deploy-time shard identity (`sip-prover --shard i --of n`).
    pub shard: Option<ShardSpec>,
    /// The server-wide registry behind `Msg::Publish` / `Msg::Attach`.
    pub registry: Arc<DatasetRegistry<F>>,
}

impl<F: PrimeField> Default for SessionContext<F> {
    /// A standalone context: no shard pin, private single-session
    /// registry.
    fn default() -> Self {
        SessionContext {
            shard: None,
            registry: Arc::new(DatasetRegistry::new(crate::DEFAULT_MAX_DATASETS)),
        }
    }
}

/// Why the session ended (for logs/tests; the protocol outcome lives with
/// the verifier).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// The peer said [`Msg::Bye`] or closed the connection.
    PeerDone,
    /// We sent the peer a protocol error and gave up on the connection.
    ProtocolError(String),
    /// The transport failed mid-session.
    TransportFailed(WireError),
}

/// Runs one accepted connection to completion. `mode` and `log_u` come from
/// the already-completed handshake.
pub fn run_session<F: PrimeField, T: Transport>(
    transport: T,
    mode: SessionMode,
    log_u: u32,
) -> SessionEnd {
    run_session_ctx::<F, T>(transport, mode, log_u, SessionContext::default())
}

/// The full-context entry point: shard pin and the shared dataset
/// registry come from the server (`crate::spawn` passes one
/// registry to every session so published datasets are visible
/// server-wide). A pinned session (`sip-prover --shard i --of n`) serves
/// only that shard's index range from the first byte, and a client
/// [`Msg::ShardHello`] must agree with the pin.
pub fn run_session_ctx<F: PrimeField, T: Transport>(
    transport: T,
    mode: SessionMode,
    log_u: u32,
    ctx: SessionContext<F>,
) -> SessionEnd {
    let mut session = ServerSession::<F, T>::new(transport, mode, log_u, ctx.registry);
    if let Some(spec) = ctx.shard {
        if let Err(detail) = session.adopt_shard(spec, true) {
            return session.fail(detail);
        }
    }
    session.run()
}

struct ServerSession<F: PrimeField, T: Transport> {
    chan: MsgChannel<T>,
    log_u: u32,
    /// The handshaken session mode (also implied by `store` until an
    /// attach; kept explicitly so attach can check compatibility).
    mode: SessionMode,
    store: Store<F>,
    active: Active<F>,
    registry: Arc<DatasetRegistry<F>>,
    /// The sub-range of the universe this session serves (shard mode), as
    /// an inclusive `[lo, hi]`; `None` = the whole universe.
    shard: Option<(ShardSpec, u64, u64)>,
    /// Whether the shard identity came from server configuration (pinned)
    /// rather than from the client — a pinned identity cannot be changed
    /// by a [`Msg::ShardHello`], only confirmed.
    shard_pinned: bool,
    /// Set once any update was ingested; a shard declaration after that
    /// could retroactively orphan data, so it is refused.
    ingested: bool,
    /// Updates this connection's peer has sent into the private store — the
    /// volume behind a raw store's promotion to the dense array. A thawed
    /// checkpoint counts from zero (resume must precede any ingest).
    received: u64,
    /// Cumulative word accounting of everything served on this connection,
    /// reported back as [`Msg::Cost`] when the verifier says goodbye. The
    /// verifier keeps its own books; this is the prover's advisory copy.
    served: CostReport,
    /// Holds the attached-sessions gauge up while this session serves a
    /// shared (published) dataset; dropping the session decrements it.
    attached_guard: Option<sip_obs::GaugeGuard>,
    /// The verifier's trace context, once a [`Msg::TraceContext`] arrived:
    /// every subsequent decode/handle span joins that trace, so a sharded
    /// query exports as one tree across processes.
    remote_trace: Option<sip_obs::TraceContext>,
    /// Ring of recent frames, dumped as a post-mortem when the verifier
    /// rejects (see [`Self::dump_flight_record`]).
    recorder: sip_obs::FlightRecorder,
}

/// Frames the per-session flight recorder retains — enough to cover a
/// whole `log_u ≈ 40` query plus the ingest tail that preceded it.
const FLIGHT_FRAMES: usize = 128;

impl<F: PrimeField, T: Transport> ServerSession<F, T> {
    fn new(transport: T, mode: SessionMode, log_u: u32, registry: Arc<DatasetRegistry<F>>) -> Self {
        // Sparse storage in both modes: `log_u` is peer-chosen, and dense
        // vectors would let one idle handshake reserve `O(2^log_u)` memory.
        // A raw store goes dense once the peer has sent `u/8` updates
        // (`FrequencyVector::promote_if_received`, after each `Msg::Ingest`):
        // at 16 wire bytes an update that is
        // ≥ 2u bytes received for an 8u-byte array — memory ≤ 4 × bytes
        // received, and never above `DENSE_LIMIT` cells. kv stores keep
        // their vectors' own support rule.
        let data = match mode {
            SessionMode::RawStream => DatasetData::Raw(FrequencyVector::new_sparse(1u64 << log_u)),
            SessionMode::KvStore => DatasetData::Kv(CloudStore::new_sparse(log_u)),
        };
        ServerSession {
            chan: MsgChannel::new(transport),
            log_u,
            mode,
            store: Store::Private(data, HeadCache::default()),
            active: Active::Idle,
            registry,
            shard: None,
            shard_pinned: false,
            ingested: false,
            received: 0,
            served: CostReport::default(),
            attached_guard: None,
            remote_trace: None,
            recorder: sip_obs::FlightRecorder::new(FLIGHT_FRAMES),
        }
    }

    /// Marks this session as serving a shared dataset on the
    /// `sip_server_attached_sessions` gauge (idempotent per session).
    fn mark_attached(&mut self) {
        if self.attached_guard.is_none() {
            self.attached_guard =
                Some(sip_obs::GaugeGuard::new(session_metrics().attached.clone()));
        }
    }

    /// The session's data, session-private or shared, and its heads.
    fn data(&self) -> (&DatasetData<F>, &HeadCache<F>) {
        match &self.store {
            Store::Private(data, heads) => (data, heads),
            Store::Shared(ds) => (&ds.data, &ds.heads),
        }
    }

    /// Validates and installs a shard identity (from config or from a
    /// [`Msg::ShardHello`]).
    fn adopt_shard(&mut self, spec: ShardSpec, pinned: bool) -> Result<(), String> {
        let plan = ShardPlan::validate(self.log_u, spec.count)?;
        if spec.index >= spec.count {
            return Err(format!(
                "shard index {} outside fleet of {}",
                spec.index, spec.count
            ));
        }
        if let Some((existing, _, _)) = self.shard {
            if existing != spec {
                return Err(if self.shard_pinned {
                    format!(
                        "this prover is pinned to shard {}/{} replica {}, \
                         not {}/{} replica {}",
                        existing.index,
                        existing.count,
                        existing.replica,
                        spec.index,
                        spec.count,
                        spec.replica
                    )
                } else {
                    "shard identity already declared".to_string()
                });
            }
            return Ok(());
        }
        if self.ingested {
            return Err("shard declaration must precede any ingest".to_string());
        }
        let (lo, hi) = plan.range(spec.index);
        self.shard = Some((spec, lo, hi));
        self.shard_pinned = pinned;
        Ok(())
    }

    fn run(&mut self) -> SessionEnd {
        loop {
            let msg = match self.recv_instrumented() {
                Ok(msg) => msg,
                Err(WireError::Transport(_)) => return SessionEnd::PeerDone,
                Err(e) => {
                    if sip_obs::enabled() {
                        session_metrics().wire_faults.inc();
                    }
                    return self.fail(format!("undecodable frame: {e}"));
                }
            };
            let outcome = if sip_obs::enabled() {
                sip_obs::counter_with("sip_server_msg_total", &[("msg", msg.name())]).inc();
                if matches!(msg, Msg::Reject(_)) {
                    session_metrics().rejections.inc();
                }
                self.recorder.record("in", msg.name());
                // The handle span is the query's prover-compute leg; under
                // an adopted remote context it lands in the verifier's
                // trace as a child of the announced span.
                let mut tspan =
                    sip_obs::trace::span_under(self.remote_trace, "sip.server.session", "handle");
                tspan.field("msg", msg.name());
                let timer = sip_obs::Timer::start();
                let outcome = self.handle(msg);
                session_metrics().handle_us.observe(timer.elapsed_us());
                outcome
            } else {
                self.handle(msg)
            };
            match outcome {
                Ok(true) => continue,
                Ok(false) => return SessionEnd::PeerDone,
                Err(Flow::Protocol(detail)) => return self.fail(detail),
                Err(Flow::Wire(e)) => {
                    if sip_obs::enabled() {
                        session_metrics().wire_faults.inc();
                    }
                    return SessionEnd::TransportFailed(e);
                }
            }
        }
    }

    /// One `chan.recv`, split so the blocking wait for a frame is *not*
    /// charged to decode time: the frame-counter bump and decode timer
    /// start only once the transport has handed over bytes.
    fn recv_instrumented(&mut self) -> Result<Msg<F>, WireError> {
        if !sip_obs::enabled() {
            return self.chan.recv::<F>();
        }
        let frame = self.chan.transport_mut().recv_frame()?;
        let metrics = session_metrics();
        metrics.frames.inc();
        let mut tspan =
            sip_obs::trace::span_under(self.remote_trace, "sip.server.session", "decode");
        tspan.field("bytes", frame.len());
        let timer = sip_obs::Timer::start();
        let msg = Msg::from_bytes(&frame);
        metrics.decode_us.observe(timer.elapsed_us());
        msg
    }

    /// Sends a final error frame (best effort) and reports the end state.
    fn fail(&mut self, detail: String) -> SessionEnd {
        if sip_obs::enabled() {
            session_metrics().protocol_errors.inc();
        }
        sip_obs::event!(
            sip_obs::Level::Warn,
            "sip.server.session",
            "session ended with a protocol error",
            "detail" => detail,
        );
        let _ = self.chan.send(&Msg::<F>::Error(detail.clone()));
        SessionEnd::ProtocolError(detail)
    }

    /// The rejection post-mortem: emits the flight recorder (recent frames
    /// plus any adopted trace's spans) as a Warn event, and — when the
    /// registry is durable — writes it to the data directory under a
    /// hashed file name (peer-chosen ids never reach the filesystem; see
    /// [`crate::persist::trace_dump_file_name`]).
    fn dump_flight_record(&mut self, rej: &sip_core::Rejection) {
        if !sip_obs::enabled() {
            return;
        }
        let mut extra = vec![("rejection", rej.to_string())];
        if let Some(shard) = rej.blamed_shard() {
            extra.push(("blamed_shard", shard.to_string()));
        }
        let json = self.recorder.dump_json("session query rejected", &extra);
        // Tag the dump with what the session serves: the shared dataset id
        // when attached (hashed before it becomes a file name), a generic
        // label otherwise.
        let tag = match &self.store {
            Store::Shared(ds) => ds.id.as_str(),
            _ => "session",
        };
        let dump = match self.registry.dump_flight_record(tag, &json) {
            Ok(Some(path)) => {
                let shown = path.display().to_string();
                sip_obs::trace::set_last_dump(&shown);
                shown
            }
            Ok(None) => "(memory only)".to_string(),
            Err(detail) => format!("(write failed: {detail})"),
        };
        sip_obs::event!(
            sip_obs::Level::Warn,
            "sip.server.session",
            "flight recorder dumped on rejection",
            "rejection" => rej,
            "frames" => self.recorder.len(),
            "dump" => dump,
        );
    }

    fn send(&mut self, msg: &Msg<F>) -> Result<(), Flow> {
        if sip_obs::enabled() {
            self.recorder.record("out", msg.name());
        }
        self.chan.send(msg).map_err(Flow::Wire)
    }

    /// Handles one message; `Ok(false)` ends the session cleanly.
    fn handle(&mut self, msg: Msg<F>) -> Result<bool, Flow> {
        match msg {
            Msg::Ingest(ups) => {
                // Updates are welcome at any point between queries — the
                // in-process `CloudStore` has no phases, and this server
                // must be a drop-in for it. (Mid-query they are fine too:
                // an active sum-check prover holds a copy-on-write snapshot
                // of the vector taken at query start, so this write goes to
                // a fresh copy the prover never sees; a sub-vector prover
                // copied its cells at query start and holds no snapshot;
                // and the verifier's digests live client-side.)
                self.check_ingest(&ups)?;
                // One whole wire frame = one batched ingest call: the
                // sorted-merge / delayed-reduction bulk paths replace the
                // per-update loops, with identical resulting state.
                let Store::Private(data, heads) = &mut self.store else {
                    // `check_ingest` refused any update into a frozen dataset.
                    return Ok(true);
                };
                // Drop the heads first: each holds a snapshot of its vector,
                // and a write under a live snapshot copies the whole vector.
                heads.clear();
                // A frame that would overflow a cell is refused whole.
                let overflow = |e: CellOverflow| protocol(e.to_string());
                match data {
                    DatasetData::Raw(fv) => {
                        let was_dense = fv.is_dense();
                        fv.try_apply_batch(&ups).map_err(overflow)?;
                        // Promote on volume received, not on support: a
                        // Zipf stream reaches `u/8` distinct keys long after
                        // `u/8` updates, and every update in between is a
                        // tree walk instead of an indexed add.
                        self.received += ups.len() as u64;
                        fv.promote_if_received(self.received);
                        if !was_dense && fv.is_dense() && sip_obs::enabled() {
                            session_metrics().store_promotions.inc();
                        }
                    }
                    DatasetData::Kv(store) => store.try_ingest_batch(&ups).map_err(overflow)?,
                }
                self.ingested |= !ups.is_empty();
                if sip_obs::enabled() {
                    session_metrics().ingest_updates.add(ups.len() as u64);
                }
                Ok(true)
            }
            Msg::Publish { dataset_id } => {
                self.publish(dataset_id)?;
                Ok(true)
            }
            Msg::Attach { dataset_id } => {
                self.attach(dataset_id)?;
                Ok(true)
            }
            Msg::SaveState { dataset_id } => {
                self.save_state(dataset_id)?;
                Ok(true)
            }
            Msg::Resume { dataset_id } => {
                self.resume(dataset_id)?;
                Ok(true)
            }
            Msg::EndStream => {
                // Advisory: kept on the wire so a client can mark the
                // paper's stream/query phase boundary, but the store keeps
                // accepting updates (see `Msg::Ingest` above).
                Ok(true)
            }
            Msg::Query(q) => {
                self.active = Active::Idle;
                self.start_query(q)?;
                Ok(true)
            }
            Msg::QueryOneShot { query, challenges } => {
                self.active = Active::Idle;
                self.answer_oneshot(query, challenges)?;
                Ok(true)
            }
            Msg::Challenge(x) => self.answer_challenge(x, None),
            Msg::BroadcastChallenge { round, challenge } => {
                // An aggregating verifier stamps the round so a shard that
                // dropped or duplicated a frame fails loudly instead of
                // binding the wrong variable.
                self.answer_challenge(challenge, Some(round))
            }
            Msg::ShardHello(spec) => {
                self.adopt_shard(spec, false).map_err(protocol)?;
                Ok(true)
            }
            Msg::SubVectorRound(req) => {
                let Active::SubVector { prover, next_level } = &mut self.active else {
                    return Err(protocol("round request without an open reporting query"));
                };
                if req.level != *next_level || req.level >= self.log_u {
                    return Err(protocol(format!(
                        "round request for level {}, expected {}",
                        req.level, next_level
                    )));
                }
                // Sibling indices are peer-controlled; at level j valid
                // node indices are < 2^(log_u − j). Unchecked, they would
                // name nodes past the universe.
                let width = 1u64 << (self.log_u - req.level);
                if req.left.is_some_and(|i| i >= width) || req.right.is_some_and(|i| i >= width) {
                    return Err(protocol(format!(
                        "sibling index outside level-{} width {width}",
                        req.level
                    )));
                }
                let reply = prover.process_round(&RoundRequest {
                    level: req.level,
                    challenge: req.challenge,
                    left: req.left,
                    right: req.right,
                });
                *next_level += 1;
                self.served.rounds += 1;
                self.served.v_to_p_words += 1;
                self.served.p_to_v_words +=
                    reply.left.is_some() as usize + reply.right.is_some() as usize;
                self.send(&Msg::SubVectorReply(reply))?;
                Ok(true)
            }
            Msg::HhKeys { level, r, s } => {
                let Active::Heavy { prover, next_level } = &mut self.active else {
                    return Err(protocol("key reveal without an open heavy-hitters query"));
                };
                if level != *next_level || level >= self.log_u {
                    return Err(protocol(format!(
                        "key reveal for level {level}, expected {next_level}"
                    )));
                }
                prover.receive_keys(level, r, s);
                *next_level += 1;
                let disc = prover.disclose();
                self.served.rounds += 1;
                self.served.v_to_p_words += 2;
                self.served.p_to_v_words += disc.words();
                let disc = Msg::HhDisclosure(disc);
                self.send(&disc)?;
                Ok(true)
            }
            Msg::Accept => {
                // The verifier's verdict on the query we just served ends
                // the query.
                self.active = Active::Idle;
                Ok(true)
            }
            Msg::Reject(rej) => {
                // A rejection also ends the query — it means *we* were
                // tampered with in flight, or the verifier is confused;
                // either way the session can serve the next query. But it
                // is also the moment worth a post-mortem: dump the flight
                // recorder so the indictment arrives with its evidence.
                self.active = Active::Idle;
                self.dump_flight_record(&rej);
                Ok(true)
            }
            Msg::TraceContext {
                trace_id,
                parent_span,
            } => {
                // Ops, not protocol: adopt the verifier's causal context so
                // this session's spans and any flight-recorder dump join
                // its trace. No reply — the frame is advisory telemetry.
                self.remote_trace = Some(sip_obs::TraceContext {
                    trace_id,
                    span_id: parent_span,
                });
                self.recorder.bind_trace(trace_id);
                Ok(true)
            }
            Msg::Stats => {
                // Ops telemetry over the session's own wire: the same JSON
                // document the `--metrics-addr` listener serves at /stats
                // (metrics registry + tracing status), advisory and
                // unverified like `Msg::Cost`.
                let json = sip_obs::stats_json();
                self.send(&Msg::StatsReply { json })?;
                Ok(true)
            }
            Msg::Bye => {
                // Export the session's cost books before saying goodbye, so
                // a scrape after any session shows what the last one cost.
                if sip_obs::enabled() {
                    for (name, value) in self.served.to_metrics() {
                        sip_obs::gauge(name).set(value as i64);
                    }
                }
                sip_obs::event!(
                    sip_obs::Level::Info,
                    "sip.server.session",
                    "session closed",
                    "rounds" => self.served.rounds,
                    "total_words" => self.served.total_words(),
                );
                // Best effort: the report is advisory and the peer may hang
                // up without reading it — that is still a clean goodbye.
                let _ = self.chan.send(&Msg::<F>::Cost(self.served));
                Ok(false)
            }
            other => Err(protocol(format!(
                "{} is a prover-to-verifier message",
                other.name()
            ))),
        }
    }

    /// Validates a whole `Msg::Ingest` frame in one pass before any store is
    /// touched, so a refused frame applies nothing: no update into a frozen
    /// dataset, every index inside the universe and — on a shard — inside
    /// its range, every kv put's encoded value `δ ≥ 1`.
    fn check_ingest(&self, ups: &[Update]) -> Result<(), Flow> {
        if let (Store::Shared(ds), false) = (&self.store, ups.is_empty()) {
            return Err(protocol(format!(
                "dataset {:?} is frozen: published snapshots accept no updates",
                ds.id
            )));
        }
        let u = 1u64 << self.log_u;
        let kv = self.mode == SessionMode::KvStore;
        for up in ups {
            if up.index >= u {
                return Err(protocol(format!(
                    "update index {} outside universe [0, {u})",
                    up.index
                )));
            }
            // A shard refuses data it does not own: a router bug (or a
            // hostile feeder) must fail loudly, not let two shards silently
            // hold overlapping state the aggregating verifier would
            // double-count.
            if let Some((spec, lo, hi)) = self.shard {
                if up.index < lo || up.index > hi {
                    return Err(protocol(format!(
                        "update index {} outside shard {}/{} range [{lo}, {hi}]",
                        up.index, spec.index, spec.count
                    )));
                }
            }
            if kv && up.delta < 1 {
                return Err(protocol(format!(
                    "kv put with non-positive encoded value {}",
                    up.delta
                )));
            }
        }
        Ok(())
    }

    /// Binds a revealed sum-check challenge and answers with the next round
    /// polynomial. `expected_round`, when present (broadcast form), must
    /// equal the number of polynomials already sent.
    fn answer_challenge(&mut self, x: F, expected_round: Option<u32>) -> Result<bool, Flow> {
        let Active::SumCheck {
            prover,
            sent,
            rounds,
        } = &mut self.active
        else {
            return Err(protocol("challenge without an open sum-check query"));
        };
        if let Some(round) = expected_round {
            if round as usize != *sent {
                return Err(protocol(format!(
                    "broadcast challenge for round {round}, session is at round {sent}"
                )));
            }
        }
        if *sent >= *rounds {
            return Err(protocol("challenge after the final round"));
        }
        prover.bind(x);
        let evals = prover.message();
        *sent += 1;
        self.served.rounds += 1;
        self.served.v_to_p_words += 1;
        self.served.p_to_v_words += evals.len();
        let poly = Msg::RoundPoly(evals);
        self.send(&poly)?;
        Ok(true)
    }

    /// Freezes this session's ingested data into the server-wide registry
    /// under `dataset_id` and acks; the session keeps serving queries over
    /// the now-shared snapshot.
    fn publish(&mut self, dataset_id: String) -> Result<(), Flow> {
        check_dataset_id(&dataset_id)?;
        // Freeze by moving the store out; on any refusal below the session
        // dies with a protocol error, so the moved data needs no restoring.
        let placeholder = DatasetData::Raw(FrequencyVector::new_sparse(1));
        let placeholder = Store::Private(placeholder, HeadCache::default());
        let (data, heads) = match std::mem::replace(&mut self.store, placeholder) {
            Store::Private(data, heads) => (data, heads),
            Store::Shared(ds) => {
                return Err(protocol(format!(
                    "session already serves published dataset {:?}",
                    ds.id
                )));
            }
        };
        let shard = self.shard.map(|(spec, _, _)| spec);
        let mut dataset = Dataset::new(dataset_id.clone(), self.log_u, shard, data);
        dataset.heads = heads;
        let arc = self.registry.publish(dataset).map_err(protocol)?;
        self.store = Store::Shared(arc);
        self.mark_attached();
        self.send(&Msg::DatasetAck { dataset_id })?;
        Ok(())
    }

    /// Points this session at the published snapshot `dataset_id` and
    /// acks; mode, `log_u`, and shard identity must agree (a session with
    /// no declared shard inherits the dataset's).
    fn attach(&mut self, dataset_id: String) -> Result<(), Flow> {
        self.attach_checked(dataset_id.clone())?;
        self.send(&Msg::DatasetAck { dataset_id })?;
        Ok(())
    }

    /// The attach state change without the ack (shared with resume, which
    /// answers `StateAck` instead).
    fn attach_checked(&mut self, dataset_id: String) -> Result<(), Flow> {
        check_dataset_id(&dataset_id)?;
        if self.ingested {
            // Replacing the store would silently orphan session-local data.
            return Err(protocol("attach must precede any ingest".to_string()));
        }
        let Some(ds) = self.registry.get(&dataset_id) else {
            return Err(protocol(format!("no published dataset {dataset_id:?}")));
        };
        // Shard identity: any declared identity (deploy pin *or* a client
        // ShardHello) must match the snapshot's, or an attached fleet could
        // serve another shard's slice and fail later as opaque sum-check
        // blame on an honest shard. An undeclared session inherits it.
        self.check_dataset_compat(&ds, &dataset_id)?;
        self.store = Store::Shared(ds);
        self.mark_attached();
        if sip_obs::enabled() {
            sip_obs::counter("sip_registry_attach_total").inc();
        }
        // Attached data counts as ingested: a later shard re-declaration
        // could orphan it, so the same guard applies.
        self.ingested = true;
        Ok(())
    }

    /// Persists this session's current (session-private) data as a durable
    /// named checkpoint and acks with the full durable enumeration. The
    /// session keeps ingesting — checkpoints are progress marks, not
    /// freezes — and re-saving an id overwrites its checkpoint.
    fn save_state(&mut self, dataset_id: String) -> Result<(), Flow> {
        check_dataset_id(&dataset_id)?;
        let data = match &self.store {
            Store::Private(data, _) => data.clone(),
            Store::Shared(ds) => {
                return Err(protocol(format!(
                    "session serves published dataset {:?}, which is already durable",
                    ds.id
                )));
            }
        };
        let shard = self.shard.map(|(spec, _, _)| spec);
        let dataset = Dataset::new(dataset_id, self.log_u, shard, data);
        self.registry.save_checkpoint(dataset).map_err(protocol)?;
        self.send(&Msg::StateAck {
            dataset_ids: self.registry.durable_ids(),
        })
    }

    /// Installs durable state saved under `dataset_id` as this session's
    /// data: a named checkpoint thaws into a session-private store (ingest
    /// continues where it stopped), a published dataset attaches frozen.
    /// Same compatibility discipline as attach: must precede ingest; mode,
    /// `log_u`, and shard identity must agree.
    fn resume(&mut self, dataset_id: String) -> Result<(), Flow> {
        check_dataset_id(&dataset_id)?;
        if self.ingested {
            return Err(protocol("resume must precede any ingest".to_string()));
        }
        let Some(ds) = self.registry.checkpoint(&dataset_id) else {
            // Not a checkpoint: a published dataset resumes as a frozen
            // attach (the one other thing "durable state under this id"
            // can mean), with the attach checks applied verbatim.
            if self.registry.get(&dataset_id).is_some() {
                self.attach_checked(dataset_id.clone())?;
                return self.send(&Msg::StateAck {
                    dataset_ids: vec![dataset_id],
                });
            }
            return Err(protocol(format!(
                "no durable state saved under {dataset_id:?}"
            )));
        };
        self.check_dataset_compat(&ds, &dataset_id)?;
        if sip_obs::enabled() {
            sip_obs::counter("sip_registry_restore_total").inc();
        }
        // Thaw: the session gets its own mutable copy, so two sessions
        // resuming one checkpoint diverge independently (each can
        // re-checkpoint under its own id).
        self.store = Store::Private(ds.data.clone(), HeadCache::default());
        self.ingested = true;
        self.send(&Msg::StateAck {
            dataset_ids: vec![dataset_id],
        })
    }

    /// The mode / `log_u` / shard agreement checks shared by attach and
    /// resume.
    fn check_dataset_compat(&mut self, ds: &Dataset<F>, dataset_id: &str) -> Result<(), Flow> {
        if ds.mode() != self.mode {
            return Err(protocol(format!(
                "dataset {dataset_id:?} is a {} dataset, session handshook {}",
                mode_name(ds.mode()),
                mode_name(self.mode)
            )));
        }
        if ds.log_u != self.log_u {
            return Err(protocol(format!(
                "dataset {dataset_id:?} covers [2^{}], session handshook log_u = {}",
                ds.log_u, self.log_u
            )));
        }
        // Datasets describe a slice of data, not a copy of it: replicas of
        // one shard share the shard's datasets, so only the slice is
        // compared and a replica-r session may thaw a replica-0 snapshot.
        match (self.shard.map(|(spec, _, _)| spec), ds.shard) {
            (Some(mine), Some(published)) if mine.same_slice(&published) => {}
            (None, None) => {}
            (None, Some(published)) => {
                self.adopt_shard(published, false).map_err(protocol)?;
            }
            _ => {
                return Err(protocol(format!(
                    "dataset {dataset_id:?} was saved under a different shard identity"
                )));
            }
        }
        Ok(())
    }

    /// Builds the honest prover of an aggregate (sum-check) query, with the
    /// name and parameters its one-shot transcript binds; the reporting
    /// queries, which are conversations of another shape, are refused. The
    /// one place a sum-check prover is built, so the interactive and
    /// one-shot paths cannot drift: both snapshot the data the same way
    /// (`O(1)`, copy-on-write — a later ingest leaves the prover's view
    /// alone), and both start from the head of the query's vector
    /// ([`HeadCache::head`]) — a published dataset's or a private store's,
    /// built at its first query since the last write where the build packs
    /// the vector. Only a query over an array too full to pack, with no
    /// head built at publish, sweeps. Which start a proof took is booked
    /// here.
    fn sumcheck_prover(
        &self,
        q: &Query,
    ) -> Result<(SumCheckProver<F>, &'static str, Vec<u64>), Flow> {
        let log_u = self.log_u;
        let (data, heads) = self.data();
        let kv = matches!(data, DatasetData::Kv(_));
        let (name, range, which) = match *q {
            Query::SelfJoin => ("self-join", None, QueryVector::Raw),
            Query::RangeSum { l, r } if kv => ("range-sum", Some((l, r)), QueryVector::Encoded),
            Query::RangeSum { l, r } => ("range-sum", Some((l, r)), QueryVector::Raw),
            Query::RangeCount { l, r } if kv => {
                ("range-count", Some((l, r)), QueryVector::Presence)
            }
            Query::RangeCount { .. } => {
                return Err(protocol("range-count requires a kv-store session"));
            }
            ref other => {
                return Err(protocol(format!("{} has no one-shot form", other.name())));
            }
        };
        if let Some((l, r)) = range {
            self.check_range(l, r)?;
        }
        let head = heads.head(data, which, log_u);
        if sip_obs::enabled() {
            let start = if head.is_some() { "head" } else { "sweep" };
            let labels = [("query", name), ("start", start)];
            sip_obs::counter_with("sip_server_sumcheck_provers_total", &labels).inc();
        }
        let vector = data.vector(which);
        let prover: SumCheckProver<F> = match (head, range) {
            (Some(head), None) => Box::new(F2Prover::from_head(head)),
            (Some(head), Some((l, r))) => Box::new(RangeSumProver::from_head(head, l, r)),
            (None, None) => Box::new(F2Prover::new(vector, log_u)),
            (None, Some((l, r))) => Box::new(RangeSumProver::new(vector, log_u, l, r)),
        };
        let params = range.map_or(Vec::new(), |(l, r)| vec![l, r]);
        Ok((prover, name, params))
    }

    /// A query range must be non-empty and inside the universe.
    fn check_range(&self, l: u64, r: u64) -> Result<(), Flow> {
        let u = 1u64 << self.log_u;
        if l <= r && r < u {
            Ok(())
        } else {
            Err(protocol(format!("bad range [{l}, {r}] over [0, {u})")))
        }
    }

    fn start_query(&mut self, q: Query) -> Result<(), Flow> {
        let u = 1u64 << self.log_u;
        let log_u = self.log_u;
        let (data, _) = self.data();
        match (q, data) {
            (q @ (Query::SelfJoin | Query::RangeSum { .. } | Query::RangeCount { .. }), _) => {
                let (prover, _, _) = self.sumcheck_prover(&q)?;
                self.begin_sumcheck(prover)
            }
            (Query::Report { l, r }, data) => {
                self.check_range(l, r)?;
                let prover = SubVectorProver::new(data.vector(QueryVector::Encoded), log_u);
                let answer = prover.answer(l, r);
                self.served.rounds += 1;
                self.served.v_to_p_words += 2;
                self.served.p_to_v_words += 2 * answer.entries.len();
                self.active = Active::SubVector {
                    prover,
                    next_level: 1,
                };
                self.send(&Msg::SubVectorAnswer(answer))
            }
            (Query::Heavy { threshold }, data) => {
                if threshold == 0 {
                    return Err(protocol("heavy-hitter threshold must be positive"));
                }
                let fv = data.vector(QueryVector::Encoded);
                // The count tree needs the strict turnstile model; check
                // instead of letting HhProver::new assert.
                if fv.nonzero().any(|(_, f)| f < 0) {
                    return Err(protocol(
                        "heavy hitters need non-negative frequencies".to_string(),
                    ));
                }
                let prover = HhProver::new(fv, log_u, threshold);
                let disc = prover.disclose();
                self.served.rounds += 1;
                self.served.v_to_p_words += 1;
                self.served.p_to_v_words += disc.words();
                self.active = Active::Heavy {
                    prover,
                    next_level: 1,
                };
                self.send(&Msg::HhDisclosure(disc))
            }
            (Query::Predecessor { q }, DatasetData::Kv(s)) => {
                if q >= u {
                    return Err(protocol(format!("probe {q} outside universe")));
                }
                let claim = s.encoded_vector().predecessor(q);
                self.served.v_to_p_words += 1;
                self.served.p_to_v_words += 1;
                self.send(&Msg::KeyClaim(claim))
            }
            (Query::Successor { q }, DatasetData::Kv(s)) => {
                if q >= u {
                    return Err(protocol(format!("probe {q} outside universe")));
                }
                let claim = s.encoded_vector().successor(q);
                self.served.v_to_p_words += 1;
                self.served.p_to_v_words += 1;
                self.send(&Msg::KeyClaim(claim))
            }
            (Query::Predecessor { .. } | Query::Successor { .. }, DatasetData::Raw(_)) => {
                Err(protocol("neighbour queries require a kv-store session"))
            }
        }
    }

    /// Serves a whole sum-check in one frame: builds the same prover
    /// [`Self::start_query`] would, walks every round against the revealed
    /// challenge prefix, and answers with a sealed [`Msg::Proof`]. Only the
    /// aggregate queries have a one-shot form — the reporting and
    /// heavy-hitters conversations are data-dependent on both sides.
    fn answer_oneshot(&mut self, q: Query, challenges: Vec<F>) -> Result<(), Flow> {
        if challenges.len() + 1 != self.log_u as usize {
            return Err(protocol(format!(
                "one-shot prefix of {} challenges, log_u = {} needs {}",
                challenges.len(),
                self.log_u,
                self.log_u.saturating_sub(1)
            )));
        }
        let log_u = self.log_u;
        // The transcript binds this session's *declared* shard identity; a
        // verifier that believes it is talking to a different shard fails
        // the digest comparison instead of accepting a mislabelled proof.
        let shard = self.shard.map(|(spec, _, _)| (spec.index, spec.count));
        let (mut prover, name, params) = self.sumcheck_prover(&q)?;
        let transcript = query_transcript::<F>(name, log_u, shard, &params, &challenges);
        let proof = prove_oneshot(&mut ProverWalk(&mut *prover), transcript, &challenges, 2)
            .map_err(|rej| protocol(format!("one-shot walk failed: {rej}")))?;
        self.served.rounds += 1;
        self.served.v_to_p_words += challenges.len() + params.len();
        self.served.p_to_v_words += proof.words();
        self.send(&Msg::Proof {
            claimed: proof.claimed,
            rounds: proof.rounds,
            digest: proof.digest,
        })
    }

    /// Opens a sum-check query: announce the claimed value, send `g_1`.
    fn begin_sumcheck(&mut self, mut prover: SumCheckProver<F>) -> Result<(), Flow> {
        let rounds = prover.rounds();
        let g1 = prover.message();
        // The claimed answer is what g_1 sums to — announced explicitly so
        // the conversation starts with the claim, as in the paper.
        let claimed = g1.iter().take(2).fold(F::ZERO, |a, &b| a + b);
        self.served.rounds += 1;
        self.served.p_to_v_words += 1 + g1.len();
        self.active = Active::SumCheck {
            prover,
            sent: 1,
            rounds,
        };
        self.send(&Msg::ClaimedValue(claimed))?;
        self.send(&Msg::RoundPoly(g1))
    }
}

/// Internal control flow for message handling.
enum Flow {
    /// Peer misbehaved at the protocol level; answer with `Error`.
    Protocol(String),
    /// The transport died; nothing more to say.
    Wire(WireError),
}

fn protocol(detail: impl Into<String>) -> Flow {
    Flow::Protocol(detail.into())
}

/// Dataset ids are peer-chosen registry keys: non-empty, bounded length.
fn check_dataset_id(id: &str) -> Result<(), Flow> {
    if id.is_empty() {
        return Err(protocol("dataset id must not be empty"));
    }
    if id.len() > MAX_DATASET_ID_LEN {
        return Err(protocol(format!(
            "dataset id of {} bytes exceeds the {MAX_DATASET_ID_LEN}-byte cap",
            id.len()
        )));
    }
    Ok(())
}

fn mode_name(mode: SessionMode) -> &'static str {
    match mode {
        SessionMode::RawStream => "raw-stream",
        SessionMode::KvStore => "kv-store",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_core::channel::InMemoryTransport;
    use sip_field::Fp61;
    use std::thread;

    fn with_session<R: Send + 'static>(
        mode: SessionMode,
        log_u: u32,
        client: impl FnOnce(MsgChannel<InMemoryTransport>) -> R + Send + 'static,
    ) -> (SessionEnd, R) {
        let (a, b) = InMemoryTransport::pair();
        let server = thread::spawn(move || run_session::<Fp61, _>(a, mode, log_u));
        let out = client(MsgChannel::new(b));
        (server.join().unwrap(), out)
    }

    #[test]
    fn bye_ends_cleanly() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Bye).unwrap();
        });
        assert_eq!(end, SessionEnd::PeerDone);
    }

    #[test]
    fn disconnect_ends_cleanly() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, drop);
        assert_eq!(end, SessionEnd::PeerDone);
    }

    #[test]
    fn out_of_universe_update_is_error_not_panic() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(16, 1)]))
                .unwrap();
            let reply = chan.recv::<Fp61>().unwrap();
            assert!(matches!(reply, Msg::Error(_)), "{reply:?}");
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn challenge_without_query_is_error() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::Challenge(Fp61::from_u64(3))).unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn prover_message_from_client_is_error() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::RoundPoly(vec![Fp61::ONE])).unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn heavy_on_negative_frequencies_is_error() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(3, -2)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::Query(Query::Heavy { threshold: 1 }))
                .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    fn with_sharded_session<R: Send + 'static>(
        pinned: Option<ShardSpec>,
        log_u: u32,
        client: impl FnOnce(MsgChannel<InMemoryTransport>) -> R + Send + 'static,
    ) -> (SessionEnd, R) {
        let (a, b) = InMemoryTransport::pair();
        let server = thread::spawn(move || {
            let ctx = SessionContext {
                shard: pinned,
                ..SessionContext::default()
            };
            run_session_ctx::<Fp61, _>(a, SessionMode::RawStream, log_u, ctx)
        });
        let out = client(MsgChannel::new(b));
        (server.join().unwrap(), out)
    }

    #[test]
    fn shard_refuses_updates_outside_its_range() {
        // Shard 1 of 2 over [0, 16) owns [8, 15].
        let (end, ()) = with_sharded_session(None, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::ShardHello(ShardSpec::new(1, 2)))
                .unwrap();
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(9, 1)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(3, 1)]))
                .unwrap();
            let reply = chan.recv::<Fp61>().unwrap();
            assert!(matches!(reply, Msg::Error(_)), "{reply:?}");
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn shard_hello_after_ingest_is_refused() {
        let (end, ()) = with_sharded_session(None, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(3, 1)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::ShardHello(ShardSpec::new(0, 2)))
                .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn pinned_shard_rejects_mismatched_hello_and_accepts_match() {
        let pin = ShardSpec::new(0, 2);
        let (end, ()) = with_sharded_session(Some(pin), 4, move |mut chan| {
            // Confirming the pin is fine …
            chan.send(&Msg::<Fp61>::ShardHello(pin)).unwrap();
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(3, 1)]))
                .unwrap();
            // … claiming a different identity is not.
            chan.send(&Msg::<Fp61>::ShardHello(ShardSpec::new(1, 2)))
                .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn invalid_shard_spec_is_refused() {
        for spec in [
            ShardSpec::new(2, 2),
            ShardSpec::new(0, 0),
            // More shards than the 2^4 universe has keys.
            ShardSpec::new(0, 1 << 5),
        ] {
            let (end, ()) = with_sharded_session(None, 4, move |mut chan| {
                chan.send(&Msg::<Fp61>::ShardHello(spec)).unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
            });
            assert!(matches!(end, SessionEnd::ProtocolError(_)), "{spec:?}");
        }
    }

    #[test]
    fn broadcast_challenge_checks_the_round_stamp() {
        let (end, ()) = with_session(SessionMode::RawStream, 2, |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(1, 3)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::Query(Query::SelfJoin)).unwrap();
            let Msg::ClaimedValue(_) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected claim")
            };
            let Msg::RoundPoly(_) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected g1")
            };
            // The session has sent one polynomial; a broadcast challenge
            // stamped for round 2 is out of step.
            chan.send(&Msg::BroadcastChallenge {
                round: 2,
                challenge: Fp61::from_u64(5),
            })
            .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn broadcast_challenge_with_correct_stamp_advances() {
        let (end, ()) = with_session(SessionMode::RawStream, 2, |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(1, 3)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::Query(Query::SelfJoin)).unwrap();
            let Msg::ClaimedValue(_) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected claim")
            };
            let Msg::RoundPoly(_) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected g1")
            };
            chan.send(&Msg::BroadcastChallenge {
                round: 1,
                challenge: Fp61::from_u64(5),
            })
            .unwrap();
            let Msg::RoundPoly(g2) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected g2")
            };
            assert_eq!(g2.len(), 3);
            chan.send(&Msg::<Fp61>::Bye).unwrap();
        });
        assert_eq!(end, SessionEnd::PeerDone);
    }

    /// Two sequential sessions over one shared registry (what `spawn`
    /// gives every connection of a server).
    fn with_registry_sessions<R: Send + 'static>(
        registry: Arc<DatasetRegistry<Fp61>>,
        modes: (SessionMode, SessionMode),
        log_us: (u32, u32),
        first: impl FnOnce(MsgChannel<InMemoryTransport>) -> R + Send + 'static,
        second: impl FnOnce(MsgChannel<InMemoryTransport>) -> R + Send + 'static,
    ) -> (SessionEnd, SessionEnd) {
        let (a1, b1) = InMemoryTransport::pair();
        let reg1 = Arc::clone(&registry);
        let s1 = thread::spawn(move || {
            run_session_ctx::<Fp61, _>(
                a1,
                modes.0,
                log_us.0,
                SessionContext {
                    registry: reg1,
                    ..SessionContext::default()
                },
            )
        });
        let c1 = thread::spawn(move || first(MsgChannel::new(b1)));
        let end1 = s1.join().unwrap();
        c1.join().unwrap();

        let (a2, b2) = InMemoryTransport::pair();
        let s2 = thread::spawn(move || {
            run_session_ctx::<Fp61, _>(
                a2,
                modes.1,
                log_us.1,
                SessionContext {
                    registry,
                    ..SessionContext::default()
                },
            )
        });
        let c2 = thread::spawn(move || second(MsgChannel::new(b2)));
        let end2 = s2.join().unwrap();
        c2.join().unwrap();
        (end1, end2)
    }

    #[test]
    fn publish_then_attach_serves_the_same_data() {
        let registry = Arc::new(DatasetRegistry::<Fp61>::new(8));
        let (end1, end2) = with_registry_sessions(
            registry,
            (SessionMode::RawStream, SessionMode::RawStream),
            (4, 4),
            |mut chan| {
                // a = [0, 3, 0, 2, …]: F2 = 13.
                chan.send(&Msg::<Fp61>::Ingest(vec![
                    Update::new(1, 3),
                    Update::new(3, 2),
                ]))
                .unwrap();
                chan.send(&Msg::<Fp61>::Publish {
                    dataset_id: "d".into(),
                })
                .unwrap();
                let Msg::DatasetAck { dataset_id } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected ack")
                };
                assert_eq!(dataset_id, "d");
                // The publisher still queries the frozen snapshot.
                chan.send(&Msg::<Fp61>::Query(Query::SelfJoin)).unwrap();
                let Msg::ClaimedValue(claimed) = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected claim")
                };
                assert_eq!(claimed, Fp61::from_u64(13));
                let Msg::RoundPoly(_) = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected g1")
                };
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            },
            |mut chan| {
                // A fresh session attaches without ingesting anything.
                chan.send(&Msg::<Fp61>::Attach {
                    dataset_id: "d".into(),
                })
                .unwrap();
                let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected ack")
                };
                chan.send(&Msg::<Fp61>::Query(Query::SelfJoin)).unwrap();
                let Msg::ClaimedValue(claimed) = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected claim")
                };
                assert_eq!(claimed, Fp61::from_u64(13));
                let Msg::RoundPoly(_) = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected g1")
                };
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            },
        );
        assert_eq!(end1, SessionEnd::PeerDone);
        assert_eq!(end2, SessionEnd::PeerDone);
    }

    #[test]
    fn ingest_after_publish_is_refused() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(1, 1)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::Publish {
                dataset_id: "frozen".into(),
            })
            .unwrap();
            let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                panic!("expected ack")
            };
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(2, 1)]))
                .unwrap();
            let reply = chan.recv::<Fp61>().unwrap();
            assert!(matches!(reply, Msg::Error(_)), "{reply:?}");
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn attach_to_unknown_dataset_is_error() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Attach {
                dataset_id: "nope".into(),
            })
            .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn attach_mode_and_log_u_must_match() {
        // Published as raw log_u = 4; a kv session and a log_u = 5 session
        // are both turned away.
        for (mode, log_u) in [(SessionMode::KvStore, 4u32), (SessionMode::RawStream, 5)] {
            let registry = Arc::new(DatasetRegistry::<Fp61>::new(8));
            let (end1, end2) = with_registry_sessions(
                registry,
                (SessionMode::RawStream, mode),
                (4, log_u),
                |mut chan| {
                    chan.send(&Msg::<Fp61>::Publish {
                        dataset_id: "d".into(),
                    })
                    .unwrap();
                    let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                        panic!("expected ack")
                    };
                    chan.send(&Msg::<Fp61>::Bye).unwrap();
                },
                |mut chan| {
                    chan.send(&Msg::<Fp61>::Attach {
                        dataset_id: "d".into(),
                    })
                    .unwrap();
                    assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
                },
            );
            assert_eq!(end1, SessionEnd::PeerDone);
            assert!(matches!(end2, SessionEnd::ProtocolError(_)));
        }
    }

    #[test]
    fn attach_after_session_local_ingest_is_refused() {
        // Attaching would silently orphan session-local data; refuse.
        let registry = Arc::new(DatasetRegistry::<Fp61>::new(8));
        let (end1, end2) = with_registry_sessions(
            registry,
            (SessionMode::RawStream, SessionMode::RawStream),
            (4, 4),
            |mut chan| {
                chan.send(&Msg::<Fp61>::Publish {
                    dataset_id: "d".into(),
                })
                .unwrap();
                let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected ack")
                };
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            },
            |mut chan| {
                chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(2, 1)]))
                    .unwrap();
                chan.send(&Msg::<Fp61>::Attach {
                    dataset_id: "d".into(),
                })
                .unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
            },
        );
        assert_eq!(end1, SessionEnd::PeerDone);
        assert!(matches!(end2, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn attach_checks_shard_identity_and_inherits_it() {
        // Published by a ShardHello-declared shard-0 session; a session
        // claiming shard 1 must be refused (even though nothing is
        // deploy-pinned), and an undeclared session inherits shard 0 — a
        // later conflicting ShardHello is refused.
        let registry = Arc::new(DatasetRegistry::<Fp61>::new(8));
        let (end1, end2) = with_registry_sessions(
            Arc::clone(&registry),
            (SessionMode::RawStream, SessionMode::RawStream),
            (4, 4),
            |mut chan| {
                chan.send(&Msg::<Fp61>::ShardHello(ShardSpec::new(0, 2)))
                    .unwrap();
                chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(3, 1)]))
                    .unwrap();
                chan.send(&Msg::<Fp61>::Publish {
                    dataset_id: "slice".into(),
                })
                .unwrap();
                let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected ack")
                };
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            },
            |mut chan| {
                // Wrong declared identity: refused.
                chan.send(&Msg::<Fp61>::ShardHello(ShardSpec::new(1, 2)))
                    .unwrap();
                chan.send(&Msg::<Fp61>::Attach {
                    dataset_id: "slice".into(),
                })
                .unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
            },
        );
        assert_eq!(end1, SessionEnd::PeerDone);
        assert!(matches!(end2, SessionEnd::ProtocolError(_)));

        // Undeclared session: attach succeeds and inherits shard 0, so a
        // later conflicting ShardHello is refused as already-declared.
        let (a, b) = InMemoryTransport::pair();
        let server = thread::spawn(move || {
            run_session_ctx::<Fp61, _>(
                a,
                SessionMode::RawStream,
                4,
                SessionContext {
                    registry,
                    ..SessionContext::default()
                },
            )
        });
        let client = thread::spawn(move || {
            let mut chan = MsgChannel::new(b);
            chan.send(&Msg::<Fp61>::Attach {
                dataset_id: "slice".into(),
            })
            .unwrap();
            let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                panic!("expected ack")
            };
            chan.send(&Msg::<Fp61>::ShardHello(ShardSpec::new(1, 2)))
                .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(
            server.join().unwrap(),
            SessionEnd::ProtocolError(_)
        ));
        client.join().unwrap();
    }

    #[test]
    fn duplicate_publish_is_refused() {
        let registry = Arc::new(DatasetRegistry::<Fp61>::new(8));
        let (end1, end2) = with_registry_sessions(
            registry,
            (SessionMode::RawStream, SessionMode::RawStream),
            (4, 4),
            |mut chan| {
                chan.send(&Msg::<Fp61>::Publish {
                    dataset_id: "d".into(),
                })
                .unwrap();
                let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected ack")
                };
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            },
            |mut chan| {
                chan.send(&Msg::<Fp61>::Publish {
                    dataset_id: "d".into(),
                })
                .unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
            },
        );
        assert_eq!(end1, SessionEnd::PeerDone);
        assert!(matches!(end2, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn hostile_dataset_ids_are_refused() {
        for id in [String::new(), "x".repeat(MAX_DATASET_ID_LEN + 1)] {
            let (end, ()) = with_session(SessionMode::RawStream, 4, move |mut chan| {
                chan.send(&Msg::<Fp61>::Publish { dataset_id: id }).unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
            });
            assert!(matches!(end, SessionEnd::ProtocolError(_)));
        }
    }

    fn durable_registry(tag: &str) -> (Arc<DatasetRegistry<Fp61>>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("sip-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (
            Arc::new(DatasetRegistry::with_data_dir(8, dir.clone()).unwrap()),
            dir,
        )
    }

    fn run_with_registry(
        registry: Arc<DatasetRegistry<Fp61>>,
        mode: SessionMode,
        log_u: u32,
        client: impl FnOnce(MsgChannel<InMemoryTransport>) + Send + 'static,
    ) -> SessionEnd {
        let (a, b) = InMemoryTransport::pair();
        let server = thread::spawn(move || {
            run_session_ctx::<Fp61, _>(
                a,
                mode,
                log_u,
                SessionContext {
                    registry,
                    ..SessionContext::default()
                },
            )
        });
        let c = thread::spawn(move || client(MsgChannel::new(b)));
        let end = server.join().unwrap();
        c.join().unwrap();
        end
    }

    #[test]
    fn save_state_then_resume_continues_the_stream() {
        let (registry, dir) = durable_registry("resume");
        // Session 1: ingest half, checkpoint, die (simulated crash: the
        // connection just ends).
        let end = run_with_registry(
            Arc::clone(&registry),
            SessionMode::RawStream,
            4,
            |mut chan| {
                chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(1, 3)]))
                    .unwrap();
                chan.send(&Msg::<Fp61>::SaveState {
                    dataset_id: "half".into(),
                })
                .unwrap();
                let Msg::StateAck { dataset_ids } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected state ack")
                };
                assert_eq!(dataset_ids, vec!["half".to_string()]);
            },
        );
        assert_eq!(end, SessionEnd::PeerDone);

        // "Restart": a fresh registry reloaded from the same directory.
        let registry = Arc::new(DatasetRegistry::with_data_dir(8, dir.clone()).unwrap());
        // Session 2: resume, finish the stream, query — F2 must cover both
        // halves: a = [0, 3, 0, 2] ⇒ F2 = 13.
        let end = run_with_registry(registry, SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Resume {
                dataset_id: "half".into(),
            })
            .unwrap();
            let Msg::StateAck { dataset_ids } = chan.recv::<Fp61>().unwrap() else {
                panic!("expected state ack")
            };
            assert_eq!(dataset_ids, vec!["half".to_string()]);
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(3, 2)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::Query(Query::SelfJoin)).unwrap();
            let Msg::ClaimedValue(claimed) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected claim")
            };
            assert_eq!(claimed, Fp61::from_u64(13));
            let Msg::RoundPoly(_) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected g1")
            };
            chan.send(&Msg::<Fp61>::Bye).unwrap();
        });
        assert_eq!(end, SessionEnd::PeerDone);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_of_published_dataset_attaches_frozen() {
        let (registry, dir) = durable_registry("resume-pub");
        run_with_registry(
            Arc::clone(&registry),
            SessionMode::RawStream,
            4,
            |mut chan| {
                chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(2, 5)]))
                    .unwrap();
                chan.send(&Msg::<Fp61>::Publish {
                    dataset_id: "pub".into(),
                })
                .unwrap();
                let Msg::DatasetAck { .. } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected ack")
                };
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            },
        );
        let end = run_with_registry(registry, SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Resume {
                dataset_id: "pub".into(),
            })
            .unwrap();
            let Msg::StateAck { .. } = chan.recv::<Fp61>().unwrap() else {
                panic!("expected state ack")
            };
            // Published data stays frozen even through Resume.
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(3, 1)]))
                .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_state_without_data_dir_is_refused() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::SaveState {
                dataset_id: "x".into(),
            })
            .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn resume_of_unknown_state_and_after_ingest_refused() {
        let (registry, dir) = durable_registry("resume-bad");
        let end = run_with_registry(
            Arc::clone(&registry),
            SessionMode::RawStream,
            4,
            |mut chan| {
                chan.send(&Msg::<Fp61>::Resume {
                    dataset_id: "nope".into(),
                })
                .unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
            },
        );
        assert!(matches!(end, SessionEnd::ProtocolError(_)));

        let end = run_with_registry(registry, SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(1, 1)]))
                .unwrap();
            chan.send(&Msg::<Fp61>::Resume {
                dataset_id: "whatever".into(),
            })
            .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kv_checkpoint_resumes_with_store_semantics() {
        let (registry, dir) = durable_registry("resume-kv");
        run_with_registry(
            Arc::clone(&registry),
            SessionMode::KvStore,
            4,
            |mut chan| {
                // One kv put (value 6 encoded as 7), then checkpoint.
                chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(2, 7)]))
                    .unwrap();
                chan.send(&Msg::<Fp61>::SaveState {
                    dataset_id: "kv".into(),
                })
                .unwrap();
                let Msg::StateAck { .. } = chan.recv::<Fp61>().unwrap() else {
                    panic!("expected state ack")
                };
            },
        );
        let registry = Arc::new(DatasetRegistry::with_data_dir(8, dir.clone()).unwrap());
        // A raw session must not resume a kv checkpoint.
        let end = run_with_registry(
            Arc::clone(&registry),
            SessionMode::RawStream,
            4,
            |mut chan| {
                chan.send(&Msg::<Fp61>::Resume {
                    dataset_id: "kv".into(),
                })
                .unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
            },
        );
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
        // A kv session resumes and keeps putting.
        let end = run_with_registry(registry, SessionMode::KvStore, 4, |mut chan| {
            chan.send(&Msg::<Fp61>::Resume {
                dataset_id: "kv".into(),
            })
            .unwrap();
            let Msg::StateAck { .. } = chan.recv::<Fp61>().unwrap() else {
                panic!("expected state ack")
            };
            chan.send(&Msg::<Fp61>::Ingest(vec![Update::new(5, 3)]))
                .unwrap();
            // Range-count over the presence vector sees both keys.
            chan.send(&Msg::<Fp61>::Query(Query::RangeCount { l: 0, r: 15 }))
                .unwrap();
            let Msg::ClaimedValue(claimed) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected claim")
            };
            assert_eq!(claimed, Fp61::from_u64(2));
            let Msg::RoundPoly(_) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected g1")
            };
            chan.send(&Msg::<Fp61>::Bye).unwrap();
        });
        assert_eq!(end, SessionEnd::PeerDone);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oneshot_query_answers_with_a_verifying_proof() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sip_core::sumcheck::f2::F2Verifier;
        use sip_core::sumcheck::OneShotProof;

        let log_u = 4u32;
        let stream = vec![Update::new(1, 3), Update::new(3, 2), Update::new(9, 5)];
        let mut rng = StdRng::seed_from_u64(21);
        let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
        for &up in &stream {
            verifier.update(up);
        }
        let (core, expected) = verifier.into_session();
        let prefix = core.challenge_prefix().to_vec();
        let (end, ()) = with_session(SessionMode::RawStream, log_u, move |mut chan| {
            chan.send(&Msg::<Fp61>::Ingest(stream)).unwrap();
            chan.send(&Msg::QueryOneShot {
                query: Query::SelfJoin,
                challenges: prefix.clone(),
            })
            .unwrap();
            let Msg::Proof {
                claimed,
                rounds,
                digest,
            } = chan.recv::<Fp61>().unwrap()
            else {
                panic!("expected proof")
            };
            let proof = OneShotProof {
                claimed,
                rounds,
                digest,
            };
            let t = query_transcript::<Fp61>("self-join", log_u, None, &[], &prefix);
            let value = core.verify_oneshot(expected, t, &proof).unwrap();
            assert_eq!(value, Fp61::from_u64(9 + 4 + 25));
            chan.send(&Msg::<Fp61>::Bye).unwrap();
        });
        assert_eq!(end, SessionEnd::PeerDone);
    }

    #[test]
    fn oneshot_with_wrong_prefix_length_is_error() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::QueryOneShot {
                query: Query::SelfJoin,
                challenges: vec![Fp61::ONE],
            })
            .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn oneshot_of_a_reporting_query_is_error() {
        let (end, ()) = with_session(SessionMode::RawStream, 4, |mut chan| {
            chan.send(&Msg::QueryOneShot {
                query: Query::Heavy { threshold: 1 },
                challenges: vec![Fp61::ONE; 3],
            })
            .unwrap();
            assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        });
        assert!(matches!(end, SessionEnd::ProtocolError(_)));
    }

    #[test]
    fn f2_query_answers_with_claim_then_polys() {
        let (end, ()) = with_session(SessionMode::RawStream, 2, |mut chan| {
            // a = [0, 3, 0, 2]: F2 = 13.
            chan.send(&Msg::<Fp61>::Ingest(vec![
                Update::new(1, 3),
                Update::new(3, 2),
            ]))
            .unwrap();
            chan.send(&Msg::<Fp61>::Query(Query::SelfJoin)).unwrap();
            let Msg::ClaimedValue(claimed) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected claim")
            };
            assert_eq!(claimed, Fp61::from_u64(13));
            let Msg::RoundPoly(g1) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected g1")
            };
            assert_eq!(g1.len(), 3);
            assert_eq!(g1[0] + g1[1], claimed);
            chan.send(&Msg::<Fp61>::Bye).unwrap();
        });
        assert_eq!(end, SessionEnd::PeerDone);
    }

    /// Drives one interactive F₂ query as the verifier holding `digest`;
    /// `before_first_challenge` runs after `g_1` arrived and before any
    /// challenge is revealed.
    fn verify_f2_over(
        chan: &mut MsgChannel<InMemoryTransport>,
        digest: sip_core::sumcheck::f2::F2Verifier<Fp61>,
        before_first_challenge: impl FnOnce(&mut MsgChannel<InMemoryTransport>),
    ) -> Result<Fp61, sip_core::Rejection> {
        let (mut core, expected) = digest.into_session();
        chan.send(&Msg::<Fp61>::Query(Query::SelfJoin)).unwrap();
        let Msg::ClaimedValue(_) = chan.recv::<Fp61>().unwrap() else {
            panic!("expected claim")
        };
        let mut before = Some(before_first_challenge);
        loop {
            let Msg::RoundPoly(g) = chan.recv::<Fp61>().unwrap() else {
                panic!("expected a round polynomial")
            };
            if let Some(hook) = before.take() {
                hook(chan);
            }
            match core.receive(&g)? {
                Some(r) => chan.send(&Msg::Challenge(r)).unwrap(),
                None => return core.finalize(expected),
            }
        }
    }

    fn f2_digest(
        seed: u64,
        log_u: u32,
        stream: &[Update],
    ) -> sip_core::sumcheck::f2::F2Verifier<Fp61> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut v = sip_core::sumcheck::f2::F2Verifier::new(log_u, &mut rng);
        v.update_all(stream);
        v
    }

    #[test]
    fn ingest_between_query_and_first_challenge_leaves_the_proof_on_the_old_data() {
        // The prover snapshots the vector at query start (copy-on-write, no
        // copy): updates arriving while the proof is in flight go to a fresh
        // copy. The in-flight proof must verify against the PRE-ingest
        // digest, the next query against the post-ingest one — in both
        // representations of the session's vector.
        for log_u in [3u32, 10] {
            let u = 1u64 << log_u;
            // log_u = 3 promotes the session vector to dense at once;
            // log_u = 10 keeps it a sparse tree.
            let before: Vec<Update> = (0..5)
                .map(|i| Update::new(i * 3 % u, i as i64 - 7))
                .collect();
            let late: Vec<Update> = (0..4)
                .map(|i| Update::new((i * 5 + 1) % u, 9 + i as i64))
                .collect();
            let all: Vec<Update> = before.iter().chain(&late).copied().collect();
            let truth = |s: &[Update]| {
                Fp61::from_u128(FrequencyVector::from_stream(u, s).self_join_size() as u128)
            };
            let (old, new) = (truth(&before), truth(&all));
            assert_ne!(old, new);
            let (end, ()) = with_session(SessionMode::RawStream, log_u, move |mut chan| {
                chan.send(&Msg::<Fp61>::Ingest(before.clone())).unwrap();
                let in_flight = verify_f2_over(&mut chan, f2_digest(1, log_u, &before), |chan| {
                    chan.send(&Msg::<Fp61>::Ingest(late.clone())).unwrap();
                });
                assert_eq!(in_flight, Ok(old), "log_u={log_u}");
                let next = verify_f2_over(&mut chan, f2_digest(2, log_u, &all), |_| {});
                assert_eq!(next, Ok(new), "log_u={log_u}");
                // And a digest of the old data no longer matches.
                let stale = verify_f2_over(&mut chan, f2_digest(3, log_u, &before), |_| {});
                assert!(stale.is_err(), "log_u={log_u}");
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            });
            assert_eq!(end, SessionEnd::PeerDone);
        }
    }

    #[test]
    fn a_published_dataset_has_its_f2_head_before_any_query_and_after_a_reload() {
        // The head is built where data freezes for queries — by the publish
        // itself, and again by a restarted server (a fresh registry over the
        // same directory) — never by a query, and never for a checkpoint,
        // which is overwritten as its stream advances. Two verifiers with
        // digests at different points then attach and verify, interactively
        // and one-shot, from that one head.
        let log_u = 8u32;
        let stream: Vec<Update> = (0..60u64)
            .map(|i| Update::new(i * 37 % 256, (i % 7) as i64 - 2))
            .collect();
        let truth = Fp61::from_u128(
            FrequencyVector::from_stream(1 << log_u, &stream).self_join_size() as u128,
        );
        let (registry, dir) = durable_registry("f2-head");
        let publish = {
            let (stream, registry) = (stream.clone(), Arc::clone(&registry));
            move |mut chan: MsgChannel<InMemoryTransport>| {
                chan.send(&Msg::<Fp61>::Ingest(stream.clone())).unwrap();
                chan.send(&Msg::<Fp61>::SaveState {
                    dataset_id: "mark".into(),
                })
                .unwrap();
                assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::StateAck { .. }));
                chan.send(&Msg::<Fp61>::Publish {
                    dataset_id: "shared".into(),
                })
                .unwrap();
                assert!(matches!(
                    chan.recv::<Fp61>().unwrap(),
                    Msg::DatasetAck { .. }
                ));
                // Acked, and nobody has asked anything yet.
                let shared = registry.get("shared").expect("published");
                assert!(shared.f2_head().is_some(), "publish builds the head");
                let mark = registry.checkpoint("mark").expect("saved");
                assert!(mark.f2_head().is_none(), "a checkpoint has none");
                let got = verify_f2_over(&mut chan, f2_digest(10, log_u, &stream), |_| {});
                assert_eq!(got, Ok(truth));
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            }
        };
        let attach = |seed: u64| {
            let stream = stream.clone();
            move |mut chan: MsgChannel<InMemoryTransport>| {
                chan.send(&Msg::<Fp61>::Attach {
                    dataset_id: "shared".into(),
                })
                .unwrap();
                assert!(matches!(
                    chan.recv::<Fp61>().unwrap(),
                    Msg::DatasetAck { .. }
                ));
                // Interactive and one-shot both start from the head.
                let got = verify_f2_over(&mut chan, f2_digest(seed, log_u, &stream), |_| {});
                assert_eq!(got, Ok(truth));
                let digest = f2_digest(seed + 1, log_u, &stream);
                let (core, expected) = digest.into_session();
                let challenges = core.challenge_prefix().to_vec();
                chan.send(&Msg::<Fp61>::QueryOneShot {
                    query: Query::SelfJoin,
                    challenges: challenges.clone(),
                })
                .unwrap();
                let Msg::Proof {
                    claimed,
                    rounds,
                    digest,
                } = chan.recv::<Fp61>().unwrap()
                else {
                    panic!("expected a sealed proof")
                };
                let proof = sip_core::sumcheck::OneShotProof {
                    claimed,
                    rounds,
                    digest,
                };
                let t = query_transcript::<Fp61>("self-join", log_u, None, &[], &challenges);
                assert_eq!(core.verify_oneshot(expected, t, &proof), Ok(truth));
                chan.send(&Msg::<Fp61>::Bye).unwrap();
            }
        };
        let ends = with_registry_sessions(
            Arc::clone(&registry),
            (SessionMode::RawStream, SessionMode::RawStream),
            (log_u, log_u),
            publish,
            attach(20),
        );
        assert_eq!(ends, (SessionEnd::PeerDone, SessionEnd::PeerDone));
        drop(registry);

        // Restart: same directory, new process state. Nothing of the head
        // was persisted; the reload rebuilt it, for the published dataset
        // only.
        let registry = Arc::new(DatasetRegistry::<Fp61>::with_data_dir(8, dir.clone()).unwrap());
        assert!(registry.load_errors().is_empty());
        let reloaded = registry.get("shared").expect("reloaded from disk");
        assert!(reloaded.f2_head().is_some(), "a reload builds the head");
        let mark = registry.checkpoint("mark").expect("reloaded from disk");
        assert!(mark.f2_head().is_none());
        drop((reloaded, mark));
        let ends = with_registry_sessions(
            Arc::clone(&registry),
            (SessionMode::RawStream, SessionMode::RawStream),
            (log_u, log_u),
            attach(30),
            attach(40),
        );
        assert_eq!(ends, (SessionEnd::PeerDone, SessionEnd::PeerDone));
        let _ = std::fs::remove_dir_all(dir);
    }

    type Bare = ServerSession<Fp61, InMemoryTransport>;

    /// A session driven frame by frame on this thread, so a test can look at
    /// its store between frames; the returned peer end keeps the transport
    /// open.
    fn bare_session(
        mode: SessionMode,
        log_u: u32,
        registry: Arc<DatasetRegistry<Fp61>>,
    ) -> (Bare, InMemoryTransport) {
        let (a, b) = InMemoryTransport::pair();
        (ServerSession::new(a, mode, log_u, registry), b)
    }

    /// Hands the session one accepted `Msg::Ingest` frame of `n` updates,
    /// all `+1` on key 0, and returns the frame's wire bytes.
    fn ingest_on_key_zero(session: &mut Bare, n: u64) -> u64 {
        let frame = Msg::<Fp61>::Ingest(vec![Update::new(0, 1); n as usize]);
        let bytes = frame.to_bytes().len() as u64;
        assert!(matches!(session.handle(frame), Ok(true)));
        bytes
    }

    fn raw_store(session: &Bare) -> &FrequencyVector {
        match &session.store {
            Store::Private(DatasetData::Raw(fv), _) => fv,
            _ => panic!("not a private raw store"),
        }
    }

    /// The largest universe a vector holds densely: a 32 MB table.
    const WIDEST_DENSE_LOG_U: u32 = 22;

    #[test]
    fn store_promotes_on_volume_within_four_times_the_wire_bytes() {
        // Every update lands on key 0, so the support stays 1 and only the
        // session's volume rule can promote.
        let log_u = WIDEST_DENSE_LOG_U;
        let u = 1u64 << log_u;
        let registry = Arc::new(DatasetRegistry::new(1));
        let (mut session, _peer) = bare_session(SessionMode::RawStream, log_u, registry);
        let threshold = raw_store(&session).promote_threshold();
        assert_eq!(threshold, u / 8);
        assert!(
            !raw_store(&session).is_dense(),
            "an idle handshake reserves nothing"
        );
        let mut wire = ingest_on_key_zero(&mut session, threshold - 1);
        assert!(
            !raw_store(&session).is_dense(),
            "u/8 − 1 updates: still the tree"
        );
        wire += ingest_on_key_zero(&mut session, 1);
        assert!(raw_store(&session).is_dense(), "the u/8-th update promotes");
        assert!(
            8 * u <= 4 * wire,
            "an {}-byte table for {wire} wire bytes",
            8 * u
        );
        let entries = raw_store(&session).nonzero().collect::<Vec<_>>();
        assert_eq!(entries, [(0, threshold as i64)]);
    }

    /// The heads a session's private store holds.
    fn private_heads(session: &Bare) -> &HeadCache<Fp61> {
        match &session.store {
            Store::Private(_, heads) => heads,
            Store::Shared(_) => panic!("not a private store"),
        }
    }

    /// Serves one F₂ prover over the session's data, and drops it.
    fn ask_self_join(session: &Bare) {
        let Ok((prover, _, _)) = session.sumcheck_prover(&Query::SelfJoin) else {
            panic!("an F₂ query is always served")
        };
        drop(prover);
    }

    #[test]
    fn store_head_holds_at_most_half_an_array_and_twice_a_trees_wire_bytes() {
        // The worst case for a head: every block of 16 cells occupied, so
        // the pack keeps 12 bytes of block beside 10 of cell. A tree of one
        // cell a block (under u/8 updates: no promotion) keeps 26 bytes a
        // cell — about half the tree's own ≈ 50 — against the 16-odd wire
        // bytes each cell's update arrived in. An array at the pack cap (a
        // quarter nonzero, four cells a block) keeps 13/32 of its bytes in
        // the pack and 1/32 in prefix-sum checkpoints.
        let log_u = 16u32;
        let u = 1u64 << log_u;
        for (what, cells) in [("tree", u / 16), ("array", u / 4)] {
            let registry = Arc::new(DatasetRegistry::new(1));
            let (mut session, _peer) = bare_session(SessionMode::RawStream, log_u, registry);
            let stride = u / cells;
            let frame =
                Msg::<Fp61>::Ingest((0..cells).map(|i| Update::new(i * stride, 1)).collect());
            let wire = frame.to_bytes().len();
            assert!(matches!(session.handle(frame), Ok(true)));
            assert_eq!(raw_store(&session).is_dense(), what == "array", "{what}");
            ask_self_join(&session);
            let head = private_heads(&session).built(QueryVector::Raw);
            let bytes = head
                .expect("a packed vector builds at its first query")
                .bytes();
            if what == "tree" {
                assert!(
                    bytes <= 2 * wire,
                    "{what}: {bytes} B of head for {wire} wire bytes"
                );
            } else {
                let array = 8 * u as usize;
                assert!(
                    2 * bytes <= array,
                    "{what}: {bytes} B of head for {array} B"
                );
            }
        }
    }

    #[test]
    fn an_ingest_after_a_cached_head_writes_the_store_in_place() {
        // The head holds an `O(1)` snapshot of the store. The ingest must
        // drop it before writing, or the write copies the whole vector.
        let log_u = 12u32;
        let u = 1u64 << log_u;
        let registry = Arc::new(DatasetRegistry::new(1));
        let (mut session, _peer) = bare_session(SessionMode::RawStream, log_u, registry);
        let frame = (0..u / 8).map(|i| Update::new(i * 8, 1)).collect();
        assert!(matches!(session.handle(Msg::Ingest(frame)), Ok(true)));
        let cells = raw_store(&session)
            .dense_values()
            .expect("promoted")
            .as_ptr();
        ask_self_join(&session);
        assert!(private_heads(&session).built(QueryVector::Raw).is_some());
        ingest_on_key_zero(&mut session, 1);
        assert!(private_heads(&session).built(QueryVector::Raw).is_none());
        let after = raw_store(&session).dense_values().expect("still dense");
        assert_eq!(after.as_ptr(), cells, "the write copied the store");
        assert_eq!(after[0], 2);
    }

    #[test]
    fn a_kv_write_after_a_reporting_query_writes_the_store_in_place() {
        // The sub-vector prover copies the store's cells when the query
        // opens and holds no snapshot, so the next put — the prover still
        // open in the session — finds the tree unshared.
        let log_u = 12u32;
        let registry = Arc::new(DatasetRegistry::new(1));
        let (mut session, _peer) = bare_session(SessionMode::KvStore, log_u, registry);
        let encoded_tree = |session: &Bare| {
            let Store::Private(DatasetData::Kv(s), _) = &session.store else {
                panic!("not a kv store")
            };
            match s.encoded_vector().entries() {
                sip_streaming::Entries::Sparse(map) => std::ptr::from_ref(map),
                sip_streaming::Entries::Dense(_) => panic!("under u/8 puts: a tree"),
            }
        };
        let puts = (0..64).map(|i| Update::new(i * 16, i as i64 + 1)).collect();
        assert!(matches!(session.handle(Msg::Ingest(puts)), Ok(true)));
        let tree = encoded_tree(&session);
        let report = Msg::Query(Query::Report { l: 100, r: 300 });
        assert!(matches!(session.handle(report), Ok(true)));
        assert!(matches!(session.active, Active::SubVector { .. }));
        ingest_on_key_zero(&mut session, 1);
        assert_eq!(encoded_tree(&session), tree, "the write copied the store");
    }

    #[test]
    fn store_refuses_a_frame_that_would_overflow_a_cell_whole() {
        for mode in [SessionMode::RawStream, SessionMode::KvStore] {
            let registry = Arc::new(DatasetRegistry::new(1));
            let (mut session, _peer) = bare_session(mode, 4, registry);
            let frame = || Msg::<Fp61>::Ingest(vec![Update::new(3, i64::MAX)]);
            assert!(matches!(session.handle(frame()), Ok(true)), "{mode:?}");
            let refused = session.handle(frame());
            assert!(matches!(refused, Err(Flow::Protocol(_))), "{mode:?}");
            let (data, _) = session.data();
            let cell = data.vector(QueryVector::Encoded).get(3);
            assert_eq!(
                cell,
                i64::MAX,
                "{mode:?}: the refused frame applied nothing"
            );
            assert_eq!(session.received, u64::from(mode == SessionMode::RawStream));
        }
    }

    #[test]
    fn store_of_a_kv_session_never_promotes_on_volume() {
        let log_u = WIDEST_DENSE_LOG_U;
        let registry = Arc::new(DatasetRegistry::new(1));
        let (mut session, _peer) = bare_session(SessionMode::KvStore, log_u, registry);
        ingest_on_key_zero(&mut session, (1u64 << log_u) / 8);
        let Store::Private(DatasetData::Kv(s), _) = &session.store else {
            panic!("not a kv store")
        };
        assert_eq!(s.raw_vector().promote_threshold(), (1u64 << log_u) / 8);
        for fv in [s.encoded_vector(), s.presence_vector(), s.raw_vector()] {
            assert!(!fv.is_dense(), "kv vectors keep their own support rule");
        }
    }

    #[test]
    fn store_of_a_resumed_checkpoint_counts_from_zero() {
        let log_u = WIDEST_DENSE_LOG_U;
        let (registry, dir) = durable_registry("promote-resume");
        let (mut first, _peer) = bare_session(SessionMode::RawStream, log_u, Arc::clone(&registry));
        let threshold = raw_store(&first).promote_threshold();
        ingest_on_key_zero(&mut first, threshold / 2);
        let save = Msg::SaveState {
            dataset_id: "half".into(),
        };
        assert!(matches!(first.handle(save), Ok(true)));
        assert!(!raw_store(&first).is_dense());
        let (mut resumed, _peer) = bare_session(SessionMode::RawStream, log_u, registry);
        let resume = Msg::Resume {
            dataset_id: "half".into(),
        };
        assert!(matches!(resumed.handle(resume), Ok(true)));
        ingest_on_key_zero(&mut resumed, threshold - 1);
        assert!(
            !raw_store(&resumed).is_dense(),
            "the checkpoint's own updates are not counted again"
        );
        ingest_on_key_zero(&mut resumed, 1);
        assert!(raw_store(&resumed).is_dense());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_is_untouched_by_a_frame_whose_last_update_is_bad() {
        // Over [0, 16) the good updates alone would promote a raw store.
        let good = [Update::new(9, 3), Update::new(10, 5), Update::new(11, 1)];
        let cases = [
            (
                "raw, outside the universe",
                SessionMode::RawStream,
                None,
                16,
            ),
            ("raw, outside the shard", SessionMode::RawStream, Some(1), 3),
            ("kv, encoded value 0", SessionMode::KvStore, None, 12),
        ];
        for (name, mode, shard, index) in cases {
            let registry = Arc::new(DatasetRegistry::new(1));
            let (mut session, _peer) = bare_session(mode, 4, registry);
            if let Some(i) = shard {
                session.adopt_shard(ShardSpec::new(i, 2), false).unwrap();
            }
            let delta = if mode == SessionMode::KvStore { 0 } else { 1 };
            let frame = [&good[..], &[Update::new(index, delta)]].concat();
            let refused = session.handle(Msg::Ingest(frame));
            assert!(matches!(refused, Err(Flow::Protocol(_))), "{name}");
            let (data, _) = session.data();
            let support: u64 = [
                QueryVector::Raw,
                QueryVector::Encoded,
                QueryVector::Presence,
            ]
            .map(|which| data.vector(which).support_size())
            .iter()
            .sum();
            let state = (support, session.ingested, session.received);
            assert_eq!(state, (0, false, 0), "{name}: nothing applied");
        }
    }
}

//! The verifier side of the wire: a [`RemoteStore`] that implements
//! [`KvServer`] over a socket (so [`sip_kvstore::Client`] runs unchanged
//! against a remote prover), and a [`RawClient`] driving the aggregate and
//! reporting protocols over a raw update stream — two names of one
//! [`Connection`]. Both reach the prover through the same session
//! adapters, and `sip-core`'s drivers run every conversation.
//!
//! ## Failure philosophy
//!
//! Everything the network does wrong — truncated frames, non-canonical
//! field encodings, out-of-order messages, timeouts, closed sockets — is
//! mapped to a [`Rejection`]: the remote prover (and every router between
//! us) is simply part of the untrusted prover, and a verifier faced with a
//! misbehaving prover outputs `⊥`. No wire fault is ever an accepted
//! answer, and none is a panic.

use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sip_core::channel::{FramedTcpTransport, RetryPolicy, Transport, TransportStats};
use sip_core::error::{IoFault, Rejection};
use sip_core::heavy_hitters::{
    drive_heavy_hitters, CountTreeHasher, HeavySession, LevelDisclosure,
};
use sip_core::subvector::{
    drive_subvector, ReportingSession, RoundReply, RoundRequest, SubVectorAnswer,
    SubVectorVerifier, Verified,
};
use sip_core::sumcheck::f2::F2Verifier;
use sip_core::sumcheck::moments::VerifiedAggregate;
use sip_core::sumcheck::range_sum::RangeSumVerifier;
use sip_core::sumcheck::{drive_session, OneShotProof, SumCheckSession, SumCheckVerifierCore};
use sip_core::transcript::query_transcript;
use sip_core::CostReport;
use sip_field::PrimeField;
use sip_kvstore::KvServer;
use sip_streaming::Update;
use sip_wire::{
    client_handshake, Hello, Msg, MsgChannel, Query, SessionMode, ShardSpec, WireError,
};

/// How many buffered puts trigger an ingest frame.
const INGEST_BATCH: usize = 512;

/// Largest `Msg::Ingest` batch one frame may carry. Updates are 16 wire
/// bytes each, so 60 000 updates keep every ingest frame under 1 MiB —
/// far below the default 16 MiB cap
/// ([`sip_core::channel::DEFAULT_MAX_FRAME`]) and comfortably inside any
/// deliberately lowered `ServerConfig::max_frame` (the cap is not
/// negotiated, so the client stays conservative) — while framing overhead
/// (5 bytes per frame) stays negligible. A bigger batch is split into
/// several frames, never rejected at the cap.
const MAX_INGEST_PER_FRAME: usize = 60_000;

/// Default socket read timeout for clients: a prover that stalls the
/// conversation is treated as refusing to answer (= rejection), not waited
/// on forever.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn wire_reject(e: WireError) -> Rejection {
    match e {
        // Channel faults: the bytes never arrived, so the proof is not
        // implicated — typed as transient I/O, eligible for retry and
        // failover. A FrameTooLarge announcement is the exception: those
        // bytes *did* arrive and were hostile, so it stays a soundness
        // fault below.
        WireError::Transport(te) => {
            use sip_core::channel::TransportError;
            let fault = match &te {
                TransportError::Closed => IoFault::Closed,
                TransportError::TimedOut => IoFault::TimedOut,
                TransportError::Io(detail) if detail.contains("refused") => IoFault::Refused,
                TransportError::Io(_) => IoFault::Other,
                TransportError::FrameTooLarge { .. } => {
                    return Rejection::MalformedAnswer {
                        detail: format!("wire: {te}"),
                    }
                }
            };
            Rejection::io(fault, format!("wire: {te}"))
        }
        e => Rejection::MalformedAnswer {
            detail: format!("wire: {e}"),
        },
    }
}

fn server_reject(detail: String) -> Rejection {
    Rejection::MalformedAnswer {
        detail: format!("server refused: {detail}"),
    }
}

fn unexpected(expected: &'static str, got: &'static str) -> Rejection {
    wire_reject(WireError::UnexpectedMessage { expected, got })
}

/// The connection state shared by a store and its open query sessions.
struct Conn<F: PrimeField, T: Transport> {
    chan: MsgChannel<T>,
    pending: Vec<Update>,
    /// A fault recorded during buffered ingest, surfaced at the next query.
    fault: Option<Rejection>,
    /// The shard identity declared on this connection, remembered so
    /// one-shot transcripts bind the same identity the server seals.
    shard: Option<ShardSpec>,
    _marker: PhantomData<F>,
}

impl<F: PrimeField, T: Transport> Conn<F, T> {
    fn flush(&mut self) -> Result<(), Rejection> {
        self.check_fault()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        if batch.len() <= MAX_INGEST_PER_FRAME {
            return self.send_traced(&Msg::<F>::Ingest(batch));
        }
        // Auto-chunk: a batch that would blow the frame cap goes out as
        // several frames (the server applies updates incrementally, so the
        // split is invisible to the protocol).
        for chunk in batch.chunks(MAX_INGEST_PER_FRAME) {
            self.send_traced(&Msg::<F>::Ingest(chunk.to_vec()))?;
        }
        Ok(())
    }

    /// One frame out under a `wire_send` span — the *encode* leg of the
    /// per-round decomposition (serialisation + socket write, with no
    /// waiting on the peer).
    fn send_traced(&mut self, msg: &Msg<F>) -> Result<(), Rejection> {
        let mut tspan = sip_obs::trace::span("sip.client", "wire_send");
        tspan.field("msg", msg.name());
        self.chan.send(msg).map_err(|e| self.poison(wire_reject(e)))
    }

    /// Records a wire-level fault and returns it: once the byte stream with
    /// the server is broken (timeout mid-frame, undecodable reply, server
    /// error frame), later frames could be misattributed to the wrong
    /// query, so the whole connection is condemned. Protocol-algebra
    /// rejections do *not* pass through here — the connection stays usable
    /// after a query whose proof merely failed.
    fn poison(&mut self, rejection: Rejection) -> Rejection {
        self.fault = Some(rejection.clone());
        rejection
    }

    fn check_fault(&self) -> Result<(), Rejection> {
        match &self.fault {
            Some(fault) => Err(fault.clone()),
            None => Ok(()),
        }
    }

    fn ingest(&mut self, up: Update) {
        if self.fault.is_some() {
            return;
        }
        self.pending.push(up);
        if self.pending.len() >= INGEST_BATCH {
            let _ = self.flush();
        }
    }

    /// Buffers a whole batch, flushing frame-sized pieces as they fill so
    /// peak buffering stays bounded by one wire frame however large the
    /// batch (the server sees the same update sequence either way).
    fn ingest_batch(&mut self, ups: &[Update]) {
        if self.fault.is_some() {
            return;
        }
        for chunk in ups.chunks(MAX_INGEST_PER_FRAME) {
            self.pending.extend_from_slice(chunk);
            if self.pending.len() >= INGEST_BATCH {
                let _ = self.flush();
            }
        }
    }

    fn recv(&mut self) -> Result<Msg<F>, Rejection> {
        self.check_fault()?;
        // The wire_wait span is the *network* leg of the decomposition: it
        // covers the blocking wait for the peer's frame (including any
        // injected LatencyTransport delay), and nothing else.
        let mut tspan = sip_obs::trace::span("sip.client", "wire_wait");
        match self.chan.recv::<F>() {
            // The server abandons the connection after an error frame.
            Ok(Msg::Error(detail)) => Err(self.poison(server_reject(detail))),
            Ok(msg) => {
                tspan.field("msg", msg.name());
                Ok(msg)
            }
            Err(e) => Err(self.poison(wire_reject(e))),
        }
    }

    /// Flush + send + receive one reply.
    fn request(&mut self, msg: &Msg<F>) -> Result<Msg<F>, Rejection> {
        self.flush()?;
        self.send_traced(msg)?;
        self.recv()
    }

    /// Flush + send, no reply expected. Oversized `Msg::Ingest` batches are
    /// routed through the auto-chunking flush instead of hitting the frame
    /// cap.
    fn tell(&mut self, msg: &Msg<F>) -> Result<(), Rejection> {
        if let Msg::Ingest(ups) = msg {
            if ups.len() > MAX_INGEST_PER_FRAME {
                self.check_fault()?;
                self.pending.extend_from_slice(ups);
                return self.flush();
            }
        }
        self.flush()?;
        self.send_traced(msg)
    }

    /// Publish/attach conversation: one message, expect the echoing ack.
    fn dataset_request(&mut self, msg: &Msg<F>, dataset_id: &str) -> Result<(), Rejection> {
        match self.request(msg)? {
            Msg::DatasetAck { dataset_id: echoed } if echoed == dataset_id => Ok(()),
            Msg::DatasetAck { dataset_id: other } => Err(Rejection::MalformedAnswer {
                detail: format!("dataset ack names {other:?}, expected {dataset_id:?}"),
            }),
            other => Err(unexpected("dataset-ack", other.name())),
        }
    }

    /// SaveState/Resume conversation: one message, expect a `StateAck`
    /// whose enumeration contains the named id.
    fn state_request(&mut self, msg: &Msg<F>, dataset_id: &str) -> Result<Vec<String>, Rejection> {
        match self.request(msg)? {
            Msg::StateAck { dataset_ids } if dataset_ids.iter().any(|id| id == dataset_id) => {
                Ok(dataset_ids)
            }
            Msg::StateAck { dataset_ids } => Err(Rejection::MalformedAnswer {
                detail: format!("state ack {dataset_ids:?} does not name {dataset_id:?}"),
            }),
            other => Err(unexpected("state-ack", other.name())),
        }
    }
}

type SharedConn<F, T> = Arc<Mutex<Conn<F, T>>>;

fn with_conn<F: PrimeField, T: Transport, R>(
    conn: &SharedConn<F, T>,
    f: impl FnOnce(&mut Conn<F, T>) -> R,
) -> R {
    let mut guard = conn.lock().unwrap_or_else(|p| p.into_inner());
    f(&mut guard)
}

// ---------------------------------------------------------------------
// Connection: one body for both session modes
// ---------------------------------------------------------------------

/// The session mode a [`Connection`] handshakes in — the one thing that
/// tells a [`RawClient`] from a [`RemoteStore`].
pub trait Mode {
    /// What the handshake announces.
    const MODE: SessionMode;
}

/// Raw-stream mode: a [`RawClient`].
pub enum Raw {}

impl Mode for Raw {
    const MODE: SessionMode = SessionMode::RawStream;
}

/// Kv-store mode: a [`RemoteStore`].
pub enum Kv {}

impl Mode for Kv {
    const MODE: SessionMode = SessionMode::KvStore;
}

/// One verifier connection to a remote prover, in session mode `M`. Its
/// two names are [`RawClient`] and [`RemoteStore`]; everything both modes
/// do with the connection — dial, handshake, stream markers, shard
/// identity, datasets, durable state, goodbye, counters — is written here
/// once.
pub struct Connection<M, F: PrimeField, T: Transport> {
    conn: SharedConn<F, T>,
    _mode: PhantomData<M>,
}

/// Drives the Section 3/4/6 protocols against a remote prover over a raw
/// update stream. The caller owns the verifier digests (they must observe
/// the same updates that are uploaded); this client owns the conversation.
pub type RawClient<F, T> = Connection<Raw, F, T>;

/// A [`KvServer`] whose storage and provers live on the other side of a
/// transport. Hand it to [`sip_kvstore::Client`] exactly like a
/// [`sip_kvstore::CloudStore`].
pub type RemoteStore<F, T> = Connection<Kv, F, T>;

/// Clones share the underlying connection (and its fault state): a boxed
/// handle can serve queries while the original still collects
/// [`RemoteStore::bye`]/[`RemoteStore::stats`] at session end.
impl<F: PrimeField, T: Transport> Clone for RemoteStore<F, T> {
    fn clone(&self) -> Self {
        Connection {
            conn: Arc::clone(&self.conn),
            _mode: PhantomData,
        }
    }
}

/// Opens a framed, timeout-guarded TCP transport to a prover.
fn tcp_transport<A: ToSocketAddrs>(
    addr: A,
    timeout: Duration,
) -> Result<FramedTcpTransport, Rejection> {
    // A failed dial is a channel fault (typed, transient, retryable) — the
    // peer said nothing, so nothing it said can be condemned.
    let stream = TcpStream::connect(addr).map_err(|e| Rejection::from_io_error(&e))?;
    let mut transport = FramedTcpTransport::new(stream)
        .map_err(|e| server_reject(format!("socket setup failed: {e}")))?;
    transport
        .set_timeout(Some(timeout))
        .map_err(|e| server_reject(format!("socket setup failed: {e}")))?;
    Ok(transport)
}

impl<M: Mode, F: PrimeField> Connection<M, F, FramedTcpTransport> {
    /// Connects to a [`crate::spawn`]ed server and performs this mode's
    /// handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, log_u: u32) -> Result<Self, Rejection> {
        Self::connect_with_timeout(addr, log_u, DEFAULT_CLIENT_TIMEOUT)
    }

    /// Like [`Self::connect`] with an explicit read timeout: a prover that
    /// stalls longer than this refuses to answer, which is a rejection.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        log_u: u32,
        timeout: Duration,
    ) -> Result<Self, Rejection> {
        Self::from_transport(tcp_transport(addr, timeout)?, log_u)
    }

    /// Like [`Self::connect`] under a [`RetryPolicy`]: transient dial and
    /// handshake faults are retried with decorrelated-jitter backoff (the
    /// policy's `op_deadline` is the per-attempt read timeout); soundness
    /// faults fail immediately (see [`Rejection::is_transient`]).
    pub fn connect_with_policy<A: ToSocketAddrs + Clone>(
        addr: A,
        log_u: u32,
        policy: &RetryPolicy,
    ) -> Result<Self, Rejection> {
        policy.run(|_| Self::connect_with_timeout(addr.clone(), log_u, policy.op_deadline))
    }
}

impl<M: Mode, F: PrimeField, T: Transport> Connection<M, F, T> {
    /// Performs this mode's handshake over an already-connected transport.
    pub fn from_transport(mut transport: T, log_u: u32) -> Result<Self, Rejection> {
        client_handshake(&mut transport, Hello::new::<F>(M::MODE, log_u)).map_err(wire_reject)?;
        Ok(Connection {
            conn: Arc::new(Mutex::new(Conn {
                chan: MsgChannel::new(transport),
                pending: Vec::new(),
                fault: None,
                shard: None,
                _marker: PhantomData,
            })),
            _mode: PhantomData,
        })
    }

    fn with<R>(&self, f: impl FnOnce(&mut Conn<F, T>) -> R) -> R {
        with_conn(&self.conn, f)
    }

    /// Pushes any buffered updates and marks the stream complete.
    pub fn end_stream(&self) -> Result<(), Rejection> {
        self.with(|c| c.tell(&Msg::EndStream))
    }

    /// Declares this connection to be shard `spec.index` of a fleet of
    /// `spec.count` — must precede any upload.
    pub fn shard_hello(&self, spec: ShardSpec) -> Result<(), Rejection> {
        self.with(|c| {
            c.shard = Some(spec);
            c.tell(&Msg::ShardHello(spec))
        })
    }

    /// Freezes everything uploaded on this session and publishes it
    /// server-wide under `dataset_id`: later sessions [`Self::attach`] to
    /// it and query the same snapshot without re-uploading. This session
    /// keeps querying it too; further uploads are refused by the server.
    pub fn publish(&self, dataset_id: &str) -> Result<(), Rejection> {
        let msg = Msg::Publish {
            dataset_id: dataset_id.to_string(),
        };
        self.with(|c| c.dataset_request(&msg, dataset_id))
    }

    /// Serves this session's queries from the published dataset
    /// `dataset_id` (same server, same mode, same `log_u`) instead of
    /// session-local uploads. The caller still needs digests that observed
    /// the dataset's stream — attach changes where the *prover's* data
    /// lives, never what the verifier trusts.
    pub fn attach(&self, dataset_id: &str) -> Result<(), Rejection> {
        let msg = Msg::Attach {
            dataset_id: dataset_id.to_string(),
        };
        self.with(|c| c.dataset_request(&msg, dataset_id))
    }

    /// Asks the server to persist everything uploaded on this session as a
    /// durable named checkpoint (v4). Returns the server's full durable
    /// enumeration. The session keeps uploading afterwards — checkpoints
    /// are progress marks, not freezes.
    pub fn save_state(&self, dataset_id: &str) -> Result<Vec<String>, Rejection> {
        let msg = Msg::SaveState {
            dataset_id: dataset_id.to_string(),
        };
        self.with(|c| c.state_request(&msg, dataset_id))
    }

    /// Resumes durable state saved under `dataset_id` (v4): a checkpoint
    /// thaws into this session's private store (uploads continue where
    /// they stopped), a published dataset attaches frozen. Must precede
    /// any upload.
    pub fn resume(&self, dataset_id: &str) -> Result<Vec<String>, Rejection> {
        let msg = Msg::Resume {
            dataset_id: dataset_id.to_string(),
        };
        self.with(|c| c.state_request(&msg, dataset_id))
    }

    /// Ends the session politely, collecting the prover's own (advisory)
    /// cost accounting for everything it served on this connection.
    pub fn bye(&self) -> Result<CostReport, Rejection> {
        match self.with(|c| c.request(&Msg::Bye))? {
            Msg::Cost(report) => Ok(report),
            other => Err(unexpected("cost", other.name())),
        }
    }

    /// Bytes/frames moved over this connection so far.
    pub fn stats(&self) -> TransportStats {
        self.with(|c| c.chan.stats())
    }

    /// The wire fault that condemned this connection, if one has: every
    /// later frame fails with it, so a fleet takes the connection out of
    /// rotation.
    pub fn fault(&self) -> Option<Rejection> {
        self.with(|c| c.fault.clone())
    }

    /// One [`Msg::QueryOneShot`] request: the whole sum-check in a single
    /// round trip. Nothing returned here is trusted — the caller replays
    /// the transcript and checks the digest before any algebra.
    fn request_oneshot(
        &self,
        query: Query,
        challenges: &[F],
    ) -> Result<OneShotProof<F>, Rejection> {
        let mut rspan = sip_obs::trace::span("sip.client", "oneshot_roundtrip");
        rspan.field("challenges", challenges.len());
        let msg = Msg::QueryOneShot {
            query,
            challenges: challenges.to_vec(),
        };
        match self.with(|c| c.request(&msg))? {
            Msg::Proof {
                claimed,
                rounds,
                digest,
            } => Ok(OneShotProof {
                claimed,
                rounds,
                digest,
            }),
            other => Err(unexpected("proof", other.name())),
        }
    }
}

// ---------------------------------------------------------------------
// Prover sessions over the connection
// ---------------------------------------------------------------------

struct RemoteReporting<F: PrimeField, T: Transport> {
    conn: SharedConn<F, T>,
}

impl<F: PrimeField, T: Transport> ReportingSession<F> for RemoteReporting<F, T> {
    fn answer(&mut self, q_l: u64, q_r: u64) -> Result<SubVectorAnswer<F>, Rejection> {
        match with_conn(&self.conn, |c| {
            c.request(&Msg::Query(Query::Report { l: q_l, r: q_r }))
        })? {
            Msg::SubVectorAnswer(ans) => Ok(ans),
            other => Err(unexpected("subvector-answer", other.name())),
        }
    }

    fn round(&mut self, req: &RoundRequest<F>) -> Result<RoundReply<F>, Rejection> {
        match with_conn(&self.conn, |c| c.request(&Msg::SubVectorRound(req.clone())))? {
            Msg::SubVectorReply(reply) => Ok(reply),
            other => Err(unexpected("subvector-reply", other.name())),
        }
    }
}

struct RemoteSumCheck<F: PrimeField, T: Transport> {
    conn: SharedConn<F, T>,
    query: Query,
    started: bool,
    stashed: Option<Vec<F>>,
}

impl<F: PrimeField, T: Transport> RemoteSumCheck<F, T> {
    fn new(conn: &SharedConn<F, T>, query: Query) -> Self {
        RemoteSumCheck {
            conn: Arc::clone(conn),
            query,
            started: false,
            stashed: None,
        }
    }

    fn open(&mut self) -> Result<Vec<F>, Rejection> {
        let claimed = match with_conn(&self.conn, |c| c.request(&Msg::Query(self.query)))? {
            Msg::ClaimedValue(v) => v,
            other => return Err(unexpected("claimed-value", other.name())),
        };
        let poly = match with_conn(&self.conn, |c| c.recv())? {
            Msg::RoundPoly(p) => p,
            other => return Err(unexpected("round-poly", other.name())),
        };
        // The announced claim must be what g₁ sums to; otherwise the two
        // messages contradict each other before any round runs, and no
        // challenge leaves. (Length errors are left to the sum-check core,
        // which reports them with the proper round number.) The round
        // checks then tie g₁(0)+g₁(1) to the proven value.
        if poly.len() >= 2 && poly[0] + poly[1] != claimed {
            return Err(Rejection::MalformedAnswer {
                detail: "claimed value disagrees with the first round polynomial".into(),
            });
        }
        self.started = true;
        Ok(poly)
    }
}

impl<F: PrimeField, T: Transport> SumCheckSession<F> for RemoteSumCheck<F, T> {
    fn message(&mut self) -> Result<Vec<F>, Rejection> {
        if !self.started {
            return self.open();
        }
        self.stashed
            .take()
            .ok_or_else(|| Rejection::MalformedAnswer {
                detail: "round polynomial requested before a challenge was bound".into(),
            })
    }

    fn bind(&mut self, r: F) -> Result<(), Rejection> {
        match with_conn(&self.conn, |c| c.request(&Msg::Challenge(r)))? {
            Msg::RoundPoly(p) => {
                self.stashed = Some(p);
                Ok(())
            }
            other => Err(unexpected("round-poly", other.name())),
        }
    }
}

struct RemoteHeavy<F: PrimeField, T: Transport> {
    conn: SharedConn<F, T>,
    threshold: u64,
    started: bool,
    stashed: Option<LevelDisclosure<F>>,
}

impl<F: PrimeField, T: Transport> RemoteHeavy<F, T> {
    fn new(conn: &SharedConn<F, T>, threshold: u64) -> Self {
        RemoteHeavy {
            conn: Arc::clone(conn),
            threshold,
            started: false,
            stashed: None,
        }
    }
}

impl<F: PrimeField, T: Transport> HeavySession<F> for RemoteHeavy<F, T> {
    fn disclose(&mut self) -> Result<LevelDisclosure<F>, Rejection> {
        if !self.started {
            self.started = true;
            return match with_conn(&self.conn, |c| {
                c.request(&Msg::Query(Query::Heavy {
                    threshold: self.threshold,
                }))
            })? {
                Msg::HhDisclosure(disc) => Ok(disc),
                other => Err(unexpected("hh-disclosure", other.name())),
            };
        }
        self.stashed
            .take()
            .ok_or_else(|| Rejection::MalformedAnswer {
                detail: "disclosure requested before keys were revealed".into(),
            })
    }

    fn keys(&mut self, level: u32, r: F, s: F) -> Result<(), Rejection> {
        match with_conn(&self.conn, |c| c.request(&Msg::HhKeys { level, r, s }))? {
            Msg::HhDisclosure(disc) => {
                self.stashed = Some(disc);
                Ok(())
            }
            other => Err(unexpected("hh-disclosure", other.name())),
        }
    }
}

// ---------------------------------------------------------------------
// RemoteStore: KvServer over a transport
// ---------------------------------------------------------------------

impl<F: PrimeField, T: Transport + 'static> KvServer<F> for RemoteStore<F, T> {
    fn ingest(&mut self, up: Update) {
        self.with(|c| c.ingest(up));
    }

    fn ingest_batch(&mut self, ups: &[Update]) {
        self.with(|c| c.ingest_batch(ups));
    }

    fn reporting(&self) -> Box<dyn ReportingSession<F> + '_> {
        Box::new(RemoteReporting {
            conn: Arc::clone(&self.conn),
        })
    }

    fn range_sum(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(RemoteSumCheck::new(
            &self.conn,
            Query::RangeSum { l: q_l, r: q_r },
        ))
    }

    fn range_count(&self, q_l: u64, q_r: u64) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(RemoteSumCheck::new(
            &self.conn,
            Query::RangeCount { l: q_l, r: q_r },
        ))
    }

    fn self_join(&self) -> Box<dyn SumCheckSession<F> + '_> {
        Box::new(RemoteSumCheck::new(&self.conn, Query::SelfJoin))
    }

    // The one-shot override ships the query over the wire instead of
    // walking a local session round by round. The server seals its
    // *declared* shard identity into the transcript, and the verifying
    // client binds the identity it believes (none, for a kv store) — a
    // mismatch fails the digest comparison rather than being trusted.
    fn self_join_oneshot(&self, challenges: &[F]) -> Result<OneShotProof<F>, Rejection> {
        self.request_oneshot(Query::SelfJoin, challenges)
    }

    fn heavy(&self, threshold: u64) -> Box<dyn HeavySession<F> + '_> {
        Box::new(RemoteHeavy::new(&self.conn, threshold))
    }

    fn claim_predecessor(&self, q: u64) -> Result<Option<u64>, Rejection> {
        match self.with(|c| c.request(&Msg::Query(Query::Predecessor { q })))? {
            Msg::KeyClaim(claim) => Ok(claim),
            other => Err(unexpected("key-claim", other.name())),
        }
    }

    fn claim_successor(&self, q: u64) -> Result<Option<u64>, Rejection> {
        match self.with(|c| c.request(&Msg::Query(Query::Successor { q })))? {
            Msg::KeyClaim(claim) => Ok(claim),
            other => Err(unexpected("key-claim", other.name())),
        }
    }
}

// ---------------------------------------------------------------------
// RawClient: aggregate/reporting protocols over a raw stream
// ---------------------------------------------------------------------

impl<F: PrimeField, T: Transport> RawClient<F, T> {
    /// Uploads one update (buffered; remember to feed your digests too).
    pub fn send_update(&mut self, up: Update) {
        self.with(|c| c.ingest(up));
    }

    /// Uploads a whole batch in one buffered extend.
    pub fn send_batch(&mut self, batch: &[Update]) {
        self.with(|c| c.ingest_batch(batch));
    }

    /// Uploads a whole stream in one buffered extend (frames are cut by
    /// the auto-chunking flush, never one update at a time).
    pub fn send_stream(&mut self, stream: &[Update]) {
        self.with(|c| c.ingest_batch(stream));
    }

    /// Asks the server for its live metrics snapshot ([`Msg::Stats`]): the
    /// same JSON document its `--metrics-addr` listener serves at `/stats`.
    /// Advisory operator telemetry — nothing in it is verified.
    pub fn server_stats(&mut self) -> Result<String, Rejection> {
        match self.with(|c| c.request(&Msg::Stats))? {
            Msg::StatsReply { json } => Ok(json),
            other => Err(unexpected("stats-reply", other.name())),
        }
    }

    /// Building block for multi-connection drivers (`sip-cluster`): flush
    /// buffered updates, send one message, await one reply. Wire faults
    /// poison the connection exactly as for the built-in drivers.
    pub fn request_msg(&mut self, msg: &Msg<F>) -> Result<Msg<F>, Rejection> {
        self.with(|c| c.request(msg))
    }

    /// Building block: receive the next message (when a request yields more
    /// than one reply frame, e.g. claim + first round polynomial).
    pub fn recv_msg(&mut self) -> Result<Msg<F>, Rejection> {
        self.with(|c| c.recv())
    }

    /// Building block: flush buffered updates and send one message with no
    /// reply expected.
    pub fn tell_msg(&mut self, msg: &Msg<F>) -> Result<(), Rejection> {
        self.with(|c| c.tell(msg))
    }

    /// Reports the query verdict to the server (best effort). Public so an
    /// aggregating verifier can close out every shard's query with the
    /// fleet-level outcome.
    pub fn verdict(&mut self, result: &Result<F, Rejection>) {
        self.tell_verdict(result.as_ref().err());
    }

    fn tell_verdict(&self, rejection: Option<&Rejection>) {
        let msg = match rejection {
            None => Msg::Accept,
            Some(rej) => Msg::Reject(rej.clone()),
        };
        let _ = self.with(|c| c.tell(&msg));
    }

    /// Tells the server this session's current trace context
    /// ([`Msg::TraceContext`]) so its spans join the query's trace. No-op
    /// unless tracing is on and a span is open; a send failure poisons the
    /// connection and surfaces at the next protocol frame, so the error is
    /// deliberately dropped here.
    fn announce_trace(&self) {
        if let Some(ctx) = sip_obs::trace::current_context() {
            let _ = self.with(|c| {
                c.tell(&Msg::TraceContext {
                    trace_id: ctx.trace_id,
                    parent_span: ctx.span_id,
                })
            });
        }
    }

    /// One query conversation under a `span` named for `query`: announce
    /// the trace context, `drive` the protocol, tell the server the
    /// verdict.
    fn converse<R>(
        &mut self,
        span: &'static str,
        query: &'static str,
        drive: impl FnOnce(&Self) -> Result<R, Rejection>,
    ) -> Result<R, Rejection> {
        let mut qspan = sip_obs::trace::span("sip.client", span);
        qspan.field("query", query);
        self.announce_trace();
        let result = drive(self);
        self.tell_verdict(result.as_ref().err());
        result
    }

    /// Runs one remote sum-check conversation against `core`/`expected`.
    /// The report books the `ClaimedValue` frame's word on top of the
    /// rounds: over the wire the claim is a message of its own.
    fn drive_sumcheck(
        &mut self,
        query: Query,
        mut core: SumCheckVerifierCore<F>,
        expected: F,
        report: &mut CostReport,
    ) -> Result<F, Rejection> {
        report.p_to_v_words += 1;
        self.converse("query", query.name(), |client| {
            let mut session = RemoteSumCheck::new(&client.conn, query);
            drive_session(&mut session, &mut core, expected, report)
        })
    }

    /// Runs one *one-shot* sum-check conversation: reveal the challenge
    /// prefix, receive the whole proof in a single frame, replay the
    /// transcript and run the deferred checks locally. One round trip per
    /// query, whatever `log_u` is.
    fn drive_oneshot(
        &mut self,
        query: Query,
        name: &str,
        params: &[u64],
        core: SumCheckVerifierCore<F>,
        expected: F,
        report: &mut CostReport,
    ) -> Result<F, Rejection> {
        self.converse("oneshot_query", query.name(), |client| {
            let shard = client.with(|c| c.shard).map(|s| (s.index, s.count));
            let challenges = core.challenge_prefix().to_vec();
            report.rounds += 1;
            report.v_to_p_words += challenges.len();
            let proof = client.request_oneshot(query, &challenges)?;
            report.p_to_v_words += proof.words();
            let transcript =
                query_transcript::<F>(name, core.rounds() as u32, shard, params, &challenges);
            let _v = sip_obs::trace::span("sip.client", "deferred_check");
            let timer = sip_obs::Timer::start();
            let value = core.verify_oneshot(expected, transcript, &proof);
            if sip_obs::enabled() {
                sip_obs::counter("sip_client_oneshot_queries_total").inc();
                sip_obs::histogram("sip_client_oneshot_proof_words").observe(proof.words() as u64);
                sip_obs::histogram("sip_client_oneshot_deferred_check_us")
                    .observe(timer.elapsed_us());
            }
            value
        })
    }

    /// Verified SELF-JOIN SIZE in one round trip ([`Msg::QueryOneShot`]):
    /// same digests and same typed rejections as [`Self::verify_f2`], but
    /// the whole post-stream conversation is a single frame each way.
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_f2_oneshot(
        &mut self,
        verifier: F2Verifier<F>,
    ) -> Result<VerifiedAggregate<F>, Rejection> {
        let mut report = CostReport {
            verifier_space_words: verifier.space_words(),
            ..CostReport::default()
        };
        let (core, expected) = verifier.into_session();
        let value = self.drive_oneshot(
            Query::SelfJoin,
            "self-join",
            &[],
            core,
            expected,
            &mut report,
        )?;
        Ok(VerifiedAggregate { value, report })
    }

    /// Verified RANGE-SUM over `[q_l, q_r]` in one round trip; see
    /// [`Self::verify_f2_oneshot`].
    ///
    /// # Soundness
    /// None: a prover that uses the revealed prefix has a false answer accepted
    /// (see `sip-core`'s `sumcheck::oneshot`). Do not rely on the verdict.
    pub fn verify_range_sum_oneshot(
        &mut self,
        verifier: RangeSumVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<VerifiedAggregate<F>, Rejection> {
        let mut report = CostReport {
            verifier_space_words: verifier.space_words(),
            v_to_p_words: 2,
            ..CostReport::default()
        };
        let (core, expected) = verifier.into_session(q_l, q_r);
        let value = self.drive_oneshot(
            Query::RangeSum { l: q_l, r: q_r },
            "range-sum",
            &[q_l, q_r],
            core,
            expected,
            &mut report,
        )?;
        Ok(VerifiedAggregate { value, report })
    }

    /// Verified SELF-JOIN SIZE over everything uploaded so far. The digest
    /// must have observed exactly the uploaded stream.
    pub fn verify_f2(
        &mut self,
        verifier: F2Verifier<F>,
    ) -> Result<VerifiedAggregate<F>, Rejection> {
        let mut report = CostReport {
            verifier_space_words: verifier.space_words(),
            ..CostReport::default()
        };
        let (core, expected) = verifier.into_session();
        let value = self.drive_sumcheck(Query::SelfJoin, core, expected, &mut report)?;
        Ok(VerifiedAggregate { value, report })
    }

    /// Verified RANGE-SUM over `[q_l, q_r]`.
    pub fn verify_range_sum(
        &mut self,
        verifier: RangeSumVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<VerifiedAggregate<F>, Rejection> {
        let mut report = CostReport {
            verifier_space_words: verifier.space_words(),
            v_to_p_words: 2,
            ..CostReport::default()
        };
        let (core, expected) = verifier.into_session(q_l, q_r);
        let value = self.drive_sumcheck(
            Query::RangeSum { l: q_l, r: q_r },
            core,
            expected,
            &mut report,
        )?;
        Ok(VerifiedAggregate { value, report })
    }

    /// Verified SUB-VECTOR report over `[q_l, q_r]`.
    pub fn verify_report(
        &mut self,
        verifier: SubVectorVerifier<F>,
        q_l: u64,
        q_r: u64,
    ) -> Result<Verified<F>, Rejection> {
        self.converse("query", "report", |client| {
            let mut session = RemoteReporting {
                conn: Arc::clone(&client.conn),
            };
            drive_subvector(verifier, q_l, q_r, &mut session)
        })
    }

    /// Verified HEAVY HITTERS at absolute `threshold`.
    pub fn verify_heavy(
        &mut self,
        hasher: CountTreeHasher<F>,
        threshold: u64,
    ) -> Result<(Vec<(u64, u64)>, CostReport), Rejection> {
        // A query no item can answer (n < threshold) is accepted without
        // a frame, so the trace context and the verdict go out only once
        // the conversation opens.
        let mut qspan = sip_obs::trace::span("sip.client", "query");
        qspan.field("query", "heavy");
        let mut opened = false;
        let result = drive_heavy_hitters(hasher, threshold, || {
            opened = true;
            self.announce_trace();
            Box::new(RemoteHeavy::new(&self.conn, threshold))
        });
        if opened {
            self.tell_verdict(result.as_ref().err());
        }
        let got = result?;
        Ok((got.items, got.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::run_session;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sip_core::channel::InMemoryTransport;
    use sip_field::Fp61;
    use sip_streaming::{workloads, FrequencyVector};
    use std::thread;

    fn serve(mut transport: InMemoryTransport) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            let hello = sip_wire::server_handshake::<Fp61, _>(&mut transport).unwrap();
            let _ = run_session::<Fp61, _>(transport, hello.mode, hello.log_u);
        })
    }

    fn raw_pair(log_u: u32) -> (RawClient<Fp61, InMemoryTransport>, thread::JoinHandle<()>) {
        let (a, b) = InMemoryTransport::pair();
        let server = serve(a);
        (RawClient::from_transport(b, log_u).unwrap(), server)
    }

    #[test]
    fn f2_over_in_memory_transport() {
        let log_u = 8;
        let stream = workloads::paper_f2(1 << log_u, 7);
        let truth = FrequencyVector::from_stream(1 << log_u, &stream).self_join_size();
        let mut rng = StdRng::seed_from_u64(1);

        let (mut client, server) = raw_pair(log_u);
        let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
        for &up in &stream {
            verifier.update(up);
            client.send_update(up);
        }
        client.end_stream().unwrap();
        let got = client.verify_f2(verifier).unwrap();
        assert_eq!(got.value, Fp61::from_u128(truth as u128));
        assert_eq!(got.report.rounds, log_u as usize);
        client.bye().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn oneshot_f2_and_range_sum_match_interactive() {
        let log_u = 8;
        let u = 1u64 << log_u;
        let stream = workloads::paper_f2(u, 7);
        let fv = FrequencyVector::from_stream(u, &stream);
        let mut rng = StdRng::seed_from_u64(31);

        let (mut client, server) = raw_pair(log_u);
        let mut f2 = F2Verifier::<Fp61>::new(log_u, &mut rng);
        let mut rs = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
        for &up in &stream {
            f2.update(up);
            rs.update(up);
            client.send_update(up);
        }
        client.end_stream().unwrap();

        let got = client.verify_f2_oneshot(f2).unwrap();
        assert_eq!(got.value, Fp61::from_u128(fv.self_join_size() as u128));
        assert_eq!(got.report.rounds, 1, "one-shot must bill one round trip");
        assert!(
            got.report.p_to_v_words > log_u as usize,
            "the whole proof rides the one frame"
        );

        let (q_l, q_r) = (10, 200);
        let sum = client.verify_range_sum_oneshot(rs, q_l, q_r).unwrap();
        assert_eq!(sum.value, Fp61::from_i64(fv.range_sum(q_l, q_r) as i64));
        assert_eq!(sum.report.rounds, 1);
        client.bye().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn remote_kv_store_serves_oneshot_aggregates() {
        use sip_kvstore::{Client, QueryBudget};
        let log_u = 8;
        let (a, b) = InMemoryTransport::pair();
        let server = serve(a);
        let mut store: RemoteStore<Fp61, _> = RemoteStore::from_transport(b, log_u).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut client = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
        let pairs = [(3u64, 10u64), (17, 0), (40, 999), (200, 55)];
        for (k, v) in pairs {
            client.put(k, v, &mut store);
        }
        let sj = client.self_join_size_oneshot(&store).unwrap();
        assert_eq!(sj.value, 100 + 999 * 999 + 55 * 55);
        assert_eq!(sj.report.rounds, 1);
        // The kv client has no range one-shot entry point; the server still
        // answers both forms, over the `value + 1` and presence vectors.
        let mut verified = |query: Query, name: &str, encode: &dyn Fn(u64) -> i64| {
            let mut digest = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
            for (k, v) in pairs {
                digest.update(Update::new(k, encode(v)));
            }
            let (core, expected) = digest.into_session(0, 255);
            let prefix = core.challenge_prefix().to_vec();
            let proof = store.request_oneshot(query, &prefix).unwrap();
            let t = query_transcript::<Fp61>(name, log_u, None, &[0, 255], &prefix);
            core.verify_oneshot(expected, t, &proof).unwrap()
        };
        let sum = verified(Query::RangeSum { l: 0, r: 255 }, "range-sum", &|v| {
            v as i64 + 1
        });
        assert_eq!(sum, Fp61::from_u64(11 + 1 + 1000 + 56));
        let count = verified(Query::RangeCount { l: 0, r: 255 }, "range-count", &|_| 1);
        assert_eq!(count, Fp61::from_u64(4));
        store.bye().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn report_and_range_sum_over_in_memory_transport() {
        let log_u = 8;
        let u = 1u64 << log_u;
        let stream = workloads::distinct_key_values(60, u, 100, 3);
        let fv = FrequencyVector::from_stream(u, &stream);
        let mut rng = StdRng::seed_from_u64(2);

        let (mut client, server) = raw_pair(log_u);
        let mut sub = SubVectorVerifier::<Fp61>::new(log_u, &mut rng);
        let mut rs = RangeSumVerifier::<Fp61>::new(log_u, &mut rng);
        for &up in &stream {
            sub.update(up);
            rs.update(up);
            client.send_update(up);
        }
        client.end_stream().unwrap();

        let (q_l, q_r) = (10, 200);
        let report = client.verify_report(sub, q_l, q_r).unwrap();
        let expect: Vec<(u64, Fp61)> = fv
            .range_report(q_l, q_r)
            .into_iter()
            .map(|(i, f)| (i, Fp61::from_i64(f)))
            .collect();
        assert_eq!(report.entries, expect);
        let sum = client.verify_range_sum(rs, q_l, q_r).unwrap();
        assert_eq!(sum.value, Fp61::from_i64(fv.range_sum(q_l, q_r) as i64));
        client.bye().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn heavy_over_in_memory_transport() {
        let log_u = 8;
        let stream = workloads::zipf(5_000, 1 << log_u, 1.3, 5);
        let fv = FrequencyVector::from_stream(1 << log_u, &stream);
        let mut rng = StdRng::seed_from_u64(4);
        let threshold = 100u64;
        let truth: Vec<(u64, u64)> = fv
            .heavy_hitters(threshold as i64)
            .into_iter()
            .map(|(i, f)| (i, f as u64))
            .collect();

        let (mut client, server) = raw_pair(log_u);
        let mut hasher = CountTreeHasher::<Fp61>::random(log_u, &mut rng);
        for &up in &stream {
            hasher.update(up);
            client.send_update(up);
        }
        client.end_stream().unwrap();
        let (items, report) = client.verify_heavy(hasher, threshold).unwrap();
        assert_eq!(items, truth);
        assert!(report.rounds > 0);
        client.bye().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn oversized_ingest_batch_is_auto_chunked() {
        // One Msg::Ingest of 1.1M updates encodes to ~17.6 MB — over the
        // 16 MiB frame cap. The client must split it below the cap instead
        // of failing locally; the server sees the same stream either way.
        let log_u = 10;
        let u = 1u64 << log_u;
        let n: usize = 1_100_000;
        assert!(n * 16 > sip_core::channel::DEFAULT_MAX_FRAME);
        let updates: Vec<Update> = (0..n)
            .map(|i| Update::new(i as u64 % u, (i % 5) as i64 + 1))
            .collect();

        let (mut client, server) = raw_pair(log_u);
        let mut rng = StdRng::seed_from_u64(9);
        let mut verifier = F2Verifier::<Fp61>::new(log_u, &mut rng);
        for &up in &updates {
            verifier.update(up);
        }
        client.tell_msg(&Msg::Ingest(updates.clone())).unwrap();
        let frames_out = client.stats().frames_sent;
        assert!(
            frames_out >= 3,
            "expected the batch split across frames, saw {frames_out}"
        );

        let truth = FrequencyVector::from_stream(u, &updates).self_join_size();
        let got = client.verify_f2(verifier).unwrap();
        assert_eq!(got.value, Fp61::from_u128(truth as u128));
        client.bye().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn publish_attach_over_in_memory_transport() {
        // Publisher and attacher share one registry through a common
        // session context, as under one spawned server.
        use crate::registry::DatasetRegistry;
        use crate::session::{run_session_ctx, SessionContext};
        use std::sync::Arc;

        let log_u = 8;
        let stream = workloads::paper_f2(1 << log_u, 3);
        let truth = FrequencyVector::from_stream(1 << log_u, &stream).self_join_size();
        let registry = Arc::new(DatasetRegistry::<Fp61>::new(4));

        let serve_shared = |transport: InMemoryTransport, registry: Arc<DatasetRegistry<Fp61>>| {
            thread::spawn(move || {
                let mut transport = transport;
                let hello = sip_wire::server_handshake::<Fp61, _>(&mut transport).unwrap();
                let _ = run_session_ctx::<Fp61, _>(
                    transport,
                    hello.mode,
                    hello.log_u,
                    SessionContext {
                        registry,
                        ..SessionContext::default()
                    },
                );
            })
        };

        // Owner ingests and publishes.
        let (a, b) = InMemoryTransport::pair();
        let s1 = serve_shared(a, Arc::clone(&registry));
        let mut owner: RawClient<Fp61, _> = RawClient::from_transport(b, log_u).unwrap();
        owner.send_stream(&stream);
        owner.publish("shared").unwrap();
        owner.bye().unwrap();
        s1.join().unwrap();

        // A verifier attaches and proves F2 without re-uploading.
        let (a, b) = InMemoryTransport::pair();
        let s2 = serve_shared(a, registry);
        let mut verifier_client: RawClient<Fp61, _> = RawClient::from_transport(b, log_u).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut digest = F2Verifier::<Fp61>::new(log_u, &mut rng);
        digest.update_all(&stream);
        verifier_client.attach("shared").unwrap();
        let got = verifier_client.verify_f2(digest).unwrap();
        assert_eq!(got.value, Fp61::from_u128(truth as u128));
        verifier_client.bye().unwrap();
        s2.join().unwrap();
    }

    #[test]
    fn kv_store_over_in_memory_transport() {
        use sip_kvstore::{Client, QueryBudget};
        let log_u = 8;
        let (a, b) = InMemoryTransport::pair();
        let server = serve(a);
        let mut store: RemoteStore<Fp61, _> = RemoteStore::from_transport(b, log_u).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut client = Client::<Fp61>::new(log_u, QueryBudget::default(), &mut rng);
        for (k, v) in [(3u64, 10u64), (17, 0), (40, 999), (200, 55)] {
            client.put(k, v, &mut store);
        }
        assert_eq!(client.get(3, &store).unwrap().value, Some(10));
        assert_eq!(client.get(18, &store).unwrap().value, None);
        assert_eq!(
            client.range(10, 100, &store).unwrap().value,
            vec![(17, 0), (40, 999)]
        );
        assert_eq!(
            client.range_sum(0, 255, &store).unwrap().value,
            10 + 999 + 55
        );
        assert_eq!(
            client.self_join_size(&store).unwrap().value,
            100 + 999 * 999 + 55 * 55
        );
        assert_eq!(client.predecessor(39, &store).unwrap().value, Some(17));
        assert_eq!(
            client.heavy_keys(56, &store).unwrap().value,
            vec![(40, 999), (200, 55)]
        );
        let served = store.bye().unwrap();
        assert!(
            served.p_to_v_words > 0 && served.rounds > 0,
            "server-side accounting empty: {served:?}"
        );
        server.join().unwrap();
    }
}

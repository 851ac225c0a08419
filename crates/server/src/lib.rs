//! `sip-server`: the prover as a multi-threaded TCP service, plus the
//! remote verifier client.
//!
//! The paper's outsourcing story made concrete: a server accepts verifier
//! connections, gives each its own [`session`] state machine (stream ingest
//! → queries → interactive rounds) on its own thread, and drives the
//! *unchanged* in-process provers behind the wire. On the other side,
//! [`client::RemoteStore`] implements [`sip_kvstore::KvServer`] over a
//! socket — so [`sip_kvstore::Client`] runs the same verified queries
//! against a prover on another machine, byte-for-byte the same algebra as
//! in-process, and [`client`]'s raw-stream drivers do the same for the
//! aggregate protocols.
//!
//! Soundness does not move an inch: the network is part of the adversary.
//! Whatever a router, proxy, or the server itself does to the traffic, the
//! verifier accepts only answers consistent with its streamed digests
//! (tamper suite: `tests/wire_tamper.rs` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod heads;
pub mod persist;
pub mod registry;
pub mod session;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sip_core::channel::FramedTcpTransport;
use sip_field::PrimeField;
use sip_wire::{server_handshake, Msg, MsgChannel, ShardSpec};

use registry::DatasetRegistry;
use session::{run_session_ctx, SessionContext, MAX_LOG_U};

/// Default cap on the number of published datasets one server holds.
pub const DEFAULT_MAX_DATASETS: usize = 1024;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further connections are turned away.
    pub max_sessions: usize,
    /// Per-read socket timeout for sessions (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Maximum accepted frame length.
    pub max_frame: usize,
    /// Deploy this prover as one pinned shard of a fleet (`sip-prover
    /// --shard i --of n`): every session serves only that shard's index
    /// range, and a client [`sip_wire::Msg::ShardHello`] must agree.
    pub shard: Option<ShardSpec>,
    /// Refuse sessions whose handshake `log_u` differs from this value
    /// (fleet deployments must agree on the universe, or the shard ranges
    /// would not line up across provers).
    pub require_log_u: Option<u32>,
    /// Cap on published datasets held in the server-wide registry
    /// (published snapshots outlive their publishing sessions).
    pub max_datasets: usize,
    /// Persist published datasets and named checkpoints here (`sip-prover
    /// --data-dir`), and reload them on startup: `Publish` → crash →
    /// restart → `Attach` works, and `Msg::SaveState` checkpoints
    /// `Msg::Resume`. `None` = memory-only (state dies with the process).
    pub data_dir: Option<PathBuf>,
    /// Bind a read-only ops listener here (`sip-prover --metrics-addr`):
    /// `/metrics` is Prometheus text, `/stats` a JSON snapshot. The
    /// listener runs on its own thread, never touches a session, and is
    /// bounded against hostile input (see [`sip_obs::ops`]).
    pub metrics_addr: Option<String>,
    /// Treat any snapshot that fails to reload from `data_dir` as a
    /// startup error (`sip-prover --strict-load`) instead of skipping it
    /// with a warning event.
    pub strict_load: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            // A verifier that goes silent for this long has abandoned its
            // session; reclaim the thread.
            read_timeout: Some(Duration::from_secs(30)),
            max_frame: sip_core::channel::DEFAULT_MAX_FRAME,
            shard: None,
            require_log_u: None,
            max_datasets: DEFAULT_MAX_DATASETS,
            data_dir: None,
            metrics_addr: None,
            strict_load: false,
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
    ops: Option<sip_obs::OpsHandle>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops listener's bound address, when one was configured.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(|h| h.local_addr())
    }

    /// Number of sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Blocks until the accept loop exits — which it only does after a
    /// [`Self::shutdown`] from elsewhere, so this parks the main thread of
    /// a standalone prover (`sip-prover`) for the life of the process.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting, unblocks the accept loop, and joins it. Running
    /// sessions finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(ops) = self.ops.take() {
            ops.shutdown();
        }
    }
}

/// Binds `addr` and serves sessions over field `F` until shut down.
///
/// Each accepted connection is handshaken (version + field + mode), then
/// runs its [`session`] on a dedicated thread. Handshake rejects and the
/// session-cap check happen before any protocol state is allocated.
pub fn spawn<F: PrimeField, A: ToSocketAddrs>(
    addr: A,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    // One registry per server: what any session publishes, every later
    // session (on any thread) can attach to. With a data directory it is
    // reloaded from disk, so published datasets and checkpoints survive a
    // crash of the previous process.
    let registry: Arc<DatasetRegistry<F>> = match &config.data_dir {
        Some(dir) => {
            let reg = DatasetRegistry::with_data_dir(config.max_datasets, dir.clone())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            // Each skipped snapshot is one structured warning (with no sink
            // installed these still land on stderr) plus a gauge, so a
            // scrape shows a lossy restart long after the log scrolled by.
            for warning in reg.load_errors() {
                sip_obs::event!(
                    sip_obs::Level::Warn,
                    "sip.server.registry",
                    "data-dir load skipped a snapshot",
                    "reason" => warning,
                );
            }
            sip_obs::gauge("sip_registry_load_errors").set(reg.load_errors().len() as i64);
            if config.strict_load && !reg.load_errors().is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "--strict-load: {} snapshot(s) failed to reload from {}",
                        reg.load_errors().len(),
                        dir.display()
                    ),
                ));
            }
            Arc::new(reg)
        }
        None => Arc::new(DatasetRegistry::new(config.max_datasets)),
    };
    let ops = match &config.metrics_addr {
        Some(addr) => Some(sip_obs::serve_ops(addr.as_str())?),
        None => None,
    };

    let accept_stop = Arc::clone(&stop);
    let accept_active = Arc::clone(&active);
    let accept_thread = thread::Builder::new()
        .name("sip-accept".into())
        .spawn(move || {
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                if accept_active.load(Ordering::SeqCst) >= config.max_sessions {
                    // Over capacity: close immediately; the client sees a
                    // transport error, not a hang.
                    drop(stream);
                    continue;
                }
                let config = config.clone();
                let registry = Arc::clone(&registry);
                let counter = Arc::clone(&accept_active);
                counter.fetch_add(1, Ordering::SeqCst);
                let spawned = thread::Builder::new()
                    .name("sip-session".into())
                    .spawn(move || {
                        let _guard = SessionGuard::new(counter);
                        serve_connection::<F>(stream, &config, registry);
                    });
                if spawned.is_err() {
                    accept_active.fetch_sub(1, Ordering::SeqCst);
                }
            }
        })?;

    Ok(ServerHandle {
        addr,
        stop,
        active,
        accept_thread: Some(accept_thread),
        ops,
    })
}

/// Decrements the capacity counter when a session thread exits, and keeps
/// the `sip_server_active_sessions` gauge in lockstep with it.
struct SessionGuard {
    counter: Arc<AtomicUsize>,
    _gauge: sip_obs::GaugeGuard,
}

impl SessionGuard {
    fn new(counter: Arc<AtomicUsize>) -> Self {
        SessionGuard {
            counter,
            _gauge: sip_obs::GaugeGuard::new(sip_obs::gauge("sip_server_active_sessions")),
        }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

fn serve_connection<F: PrimeField>(
    stream: TcpStream,
    config: &ServerConfig,
    registry: Arc<DatasetRegistry<F>>,
) {
    let Ok(mut transport) = FramedTcpTransport::with_max_frame(stream, config.max_frame) else {
        return;
    };
    if transport.set_timeout(config.read_timeout).is_err() {
        return;
    }
    let hello = match server_handshake::<F, _>(&mut transport) {
        Ok(hello) => hello,
        Err(e) => {
            // Tell the peer why before hanging up (best effort; the frame
            // may not parse on ancient clients, which is fine).
            let mut chan = MsgChannel::new(transport);
            let _ = chan.send(&Msg::<F>::Error(e.to_string()));
            return;
        }
    };
    if hello.log_u == 0 || hello.log_u > MAX_LOG_U {
        let mut chan = MsgChannel::new(transport);
        let _ = chan.send(&Msg::<F>::Error(format!(
            "log_u must be in [1, {MAX_LOG_U}], got {}",
            hello.log_u
        )));
        return;
    }
    if let Some(required) = config.require_log_u {
        if hello.log_u != required {
            let mut chan = MsgChannel::new(transport);
            let _ = chan.send(&Msg::<F>::Error(format!(
                "this prover serves log_u = {required}, session asked for {}",
                hello.log_u
            )));
            return;
        }
    }
    let _ = run_session_ctx::<F, _>(
        transport,
        hello.mode,
        hello.log_u,
        SessionContext {
            shard: config.shard,
            registry,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_field::Fp61;
    use sip_wire::{client_handshake, Hello, SessionMode, WireError, PROTOCOL_VERSION};

    fn connect(addr: SocketAddr) -> FramedTcpTransport {
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = FramedTcpTransport::new(stream).unwrap();
        t.set_timeout(Some(Duration::from_secs(2))).unwrap();
        t
    }

    #[test]
    fn spawn_handshake_shutdown() {
        let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut t = connect(server.local_addr());
        let ack = client_handshake(&mut t, Hello::new::<Fp61>(SessionMode::RawStream, 8)).unwrap();
        assert_eq!(ack.version, PROTOCOL_VERSION);
        let mut chan = MsgChannel::new(t);
        chan.send(&Msg::<Fp61>::Bye).unwrap();
        server.shutdown();
    }

    #[test]
    fn field_mismatch_refused_with_error() {
        let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut t = connect(server.local_addr());
        let err = client_handshake(
            &mut t,
            Hello::new::<sip_field::Fp127>(SessionMode::RawStream, 8),
        );
        // The server answers with an Error frame (which fails to parse as a
        // HelloAck) or closes; either way the client sees an error.
        assert!(err.is_err(), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn oversized_log_u_refused() {
        let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut t = connect(server.local_addr());
        client_handshake(&mut t, Hello::new::<Fp61>(SessionMode::RawStream, 63)).unwrap();
        let mut chan = MsgChannel::new(t);
        assert!(matches!(chan.recv::<Fp61>().unwrap(), Msg::Error(_)));
        server.shutdown();
    }

    #[test]
    fn session_cap_turns_connections_away() {
        let server = spawn::<Fp61, _>(
            "127.0.0.1:0",
            ServerConfig {
                max_sessions: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut first = connect(server.local_addr());
        client_handshake(&mut first, Hello::new::<Fp61>(SessionMode::RawStream, 8)).unwrap();
        // Give the server a moment to hand off the first session.
        std::thread::sleep(Duration::from_millis(50));
        let mut second = connect(server.local_addr());
        let res = client_handshake(&mut second, Hello::new::<Fp61>(SessionMode::RawStream, 8));
        assert!(
            matches!(res, Err(WireError::Transport(_))),
            "expected refusal, got {res:?}"
        );
        server.shutdown();
    }

    #[test]
    fn concurrent_sessions_are_isolated() {
        let server = spawn::<Fp61, _>("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                thread::spawn(move || {
                    let mut t = connect(addr);
                    client_handshake(&mut t, Hello::new::<Fp61>(SessionMode::RawStream, 4))
                        .unwrap();
                    let mut chan = MsgChannel::new(t);
                    // Each session streams a different singleton and asks
                    // for F2: the claims must not bleed across sessions.
                    chan.send(&Msg::<Fp61>::Ingest(vec![sip_streaming::Update::new(
                        i % 16,
                        (i + 1) as i64,
                    )]))
                    .unwrap();
                    chan.send(&Msg::<Fp61>::Query(sip_wire::Query::SelfJoin))
                        .unwrap();
                    let Msg::ClaimedValue(claim) = chan.recv::<Fp61>().unwrap() else {
                        panic!("expected claim");
                    };
                    assert_eq!(claim, Fp61::from_u64((i + 1) * (i + 1)));
                    chan.send(&Msg::<Fp61>::Bye).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }
}

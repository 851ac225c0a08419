//! The read-only ops listener: a minimal HTTP/1.0 responder serving the
//! global registry as `/metrics` (Prometheus text) and `/stats` (JSON).
//!
//! Hostile-input discipline matches the rest of the stack: requests are
//! read under a timeout into a bounded buffer, anything unparseable gets a
//! `400` and a closed connection, and nothing here can panic or touch a
//! serving session — the listener runs on its own thread and only ever
//! *reads* the metrics atomics.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::registry;

/// One routed answer: `(status line, content type, body)`.
pub type OpsResponse = (&'static str, &'static str, String);

/// Extra GET routes layered over the built-in ones. Consulted first for
/// every request path; answering `None` falls through to the defaults
/// (`/metrics`, `/stats`, `/trace`, `/`), so an extension listener (e.g.
/// the fleet aggregator's `/fleet/*`) still serves its own process
/// registry. Must never panic and never block — it runs on the listener
/// thread under the same IO bounds as everything else here.
pub type OpsRoutes = Arc<dyn Fn(&str) -> Option<OpsResponse> + Send + Sync>;

static ADVERTISED: OnceLock<Mutex<Option<SocketAddr>>> = OnceLock::new();

fn advertised_slot() -> &'static Mutex<Option<SocketAddr>> {
    ADVERTISED.get_or_init(|| Mutex::new(None))
}

/// The bound address of this process's most recently started ops
/// listener — the *actual* port, so `--metrics-addr 127.0.0.1:0` is
/// discoverable by scrapers through `/stats` and `Msg::StatsReply`
/// instead of racing on a fixed port.
///
/// This is a single process-wide slot with **last-wins** semantics: every
/// [`serve_ops`]/[`serve_ops_with`] call overwrites it. A prover process
/// runs exactly one ops listener, so last-wins is also only-wins there;
/// anything hosting several listeners in one process (tests, the fleet
/// aggregator colocated with a prover) must take the per-listener address
/// from [`OpsHandle::local_addr`] instead of this global.
pub fn advertised_ops_addr() -> Option<SocketAddr> {
    *advertised_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cap on one ops request (method + path + headers). Anything longer is
/// answered `400` from what was read.
pub const MAX_OPS_REQUEST_BYTES: usize = 4096;

/// Per-socket read/write timeout: a client that stalls is cut off, it
/// cannot hold the listener hostage for longer than this.
pub const OPS_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// A running ops listener; stop it with [`OpsHandle::shutdown`].
pub struct OpsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl OpsHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the listener thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves the global registry until shut down.
///
/// The bound address (useful with port 0) is advertised process-wide
/// ([`advertised_ops_addr`], spliced into `/stats`) and logged as an
/// `Info` event, so nothing ever needs to race on a fixed port.
pub fn serve_ops<A: ToSocketAddrs>(addr: A) -> std::io::Result<OpsHandle> {
    serve_ops_with(addr, Arc::new(|_| None))
}

/// [`serve_ops`] with extra routes consulted before the built-in ones —
/// how the fleet aggregator mounts `/fleet/*` next to its own `/metrics`.
pub fn serve_ops_with<A: ToSocketAddrs>(addr: A, routes: OpsRoutes) -> std::io::Result<OpsHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    *advertised_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(addr);
    crate::event!(
        crate::Level::Info,
        "sip.obs.ops",
        "ops listener bound",
        "addr" => addr,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("sip-obs-ops".into())
        .spawn(move || {
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                // Handled inline: every request is bounded in bytes and
                // time, so one connection delays the next scrape by at
                // most the IO timeout — and never touches a session.
                handle_request(stream, &routes);
            }
        })?;
    Ok(OpsHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Reads one bounded request and answers it. All errors end the
/// connection silently — there is nobody trustworthy to report them to.
fn handle_request(mut stream: TcpStream, routes: &OpsRoutes) {
    let _ = stream.set_read_timeout(Some(OPS_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(OPS_IO_TIMEOUT));
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_OPS_REQUEST_BYTES {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break, // timeout or reset: respond to what we have
        }
    }
    let (status, content_type, body) = route(&buf, routes);
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Maps raw request bytes to `(status line, content type, body)`.
fn route(request: &[u8], routes: &OpsRoutes) -> OpsResponse {
    // Only the request line matters; headers are read solely to drain the
    // socket politely. Parse defensively: the bytes are untrusted.
    let mut first_line = request.split(|&b| b == b'\n').next().unwrap_or(&[]);
    if let Some(stripped) = first_line.strip_suffix(b"\r") {
        first_line = stripped;
    }
    let Ok(line) = std::str::from_utf8(first_line) else {
        return ("400 Bad Request", "text/plain", "bad request\n".into());
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return ("400 Bad Request", "text/plain", "bad request\n".into());
    };
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served here\n".into(),
        );
    }
    // Ignore any query string: scrapers sometimes append cache busters.
    let path = path.split('?').next().unwrap_or(path);
    if let Some(answer) = routes(path) {
        return answer;
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            registry().render_prometheus(),
        ),
        "/stats" | "/stats.json" => ("200 OK", "application/json", crate::stats_json()),
        "/trace" | "/trace.json" => (
            "200 OK",
            "application/json",
            crate::trace::export_chrome_json(),
        ),
        "/" => (
            "200 OK",
            "text/plain",
            "sip ops endpoints: /metrics (Prometheus text), /stats (JSON), \
             /trace (Chrome trace-event JSON)\n"
                .into(),
        ),
        _ => ("404 Not Found", "text/plain", "unknown path\n".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every listener advertises its address process-wide, so the tests
    /// that start one take turns.
    static LISTENING: Mutex<()> = Mutex::new(());

    fn turn() -> std::sync::MutexGuard<'static, ()> {
        LISTENING.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn get(addr: SocketAddr, request: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Ignore write errors: the server may legitimately stop reading an
        // oversized request and hang up mid-write.
        let _ = s.write_all(request);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_metrics_and_stats() {
        let _turn = turn();
        crate::counter("t_ops_total").add(9);
        let handle = serve_ops("127.0.0.1:0").unwrap();
        let addr = handle.local_addr();
        let metrics = get(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
        assert!(metrics.contains("t_ops_total 9"), "{metrics}");
        let stats = get(addr, b"GET /stats HTTP/1.0\r\n\r\n");
        assert!(stats.contains("\"counters\""), "{stats}");
        assert!(stats.contains("\"tracing\""), "{stats}");
        let trace = get(addr, b"GET /trace HTTP/1.0\r\n\r\n");
        assert!(trace.starts_with("HTTP/1.0 200 OK"), "{trace}");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(get(addr, b"GET /nope HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 404"));
        assert!(get(addr, b"POST /metrics HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 405"));
        handle.shutdown();
    }

    #[test]
    fn custom_routes_layer_over_defaults_and_addr_is_advertised() {
        let _turn = turn();
        let handle = serve_ops_with(
            "127.0.0.1:0",
            Arc::new(|path| match path {
                "/fleet/health" => Some(("200 OK", "application/json", "{\"ok\":true}".into())),
                _ => None,
            }),
        )
        .unwrap();
        let addr = handle.local_addr();
        assert_eq!(advertised_ops_addr(), Some(addr));
        let fleet = get(addr, b"GET /fleet/health HTTP/1.0\r\n\r\n");
        assert!(fleet.contains("{\"ok\":true}"), "{fleet}");
        // Defaults still answer beneath the custom routes.
        assert!(get(addr, b"GET /metrics HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 200"));
        assert!(get(addr, b"GET /fleet/nope HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 404"));
        handle.shutdown();
    }

    #[test]
    fn garbage_requests_get_a_bounded_answer() {
        let _turn = turn();
        let handle = serve_ops("127.0.0.1:0").unwrap();
        let addr = handle.local_addr();
        // Non-UTF-8 garbage, an empty request, and an oversized one.
        assert!(get(addr, &[0xFF, 0xFE, 0x00, 0x41]).starts_with("HTTP/1.0 400"));
        assert!(get(addr, b"").starts_with("HTTP/1.0 400"));
        let huge = vec![b'A'; 3 * MAX_OPS_REQUEST_BYTES];
        let _ = get(addr, &huge); // bounded read; the reply may be lost to a reset
                                  // The listener is still alive afterwards.
        assert!(get(addr, b"GET / HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 200"));
        handle.shutdown();
    }
}

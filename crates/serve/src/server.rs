//! The TCP front-end: accept loop, protocol sniffing, routing,
//! admission control, and graceful drain.
//!
//! One listener serves both protocols. The first four bytes of a
//! connection decide: `LBNB` ([`crate::wire::MAGIC`]) selects binary
//! framing, anything else is treated as HTTP/1.1. Each accepted
//! connection gets its own thread (bounded by
//! [`ServerOptions::max_connections`]); the accept loop itself never
//! performs model work, so it cannot be blocked by a saturated runtime
//! — saturation turns into *immediate* `429`/`SHED` responses from the
//! connection threads via [`Runtime::try_submit`](lbnn_core::Runtime).
//!
//! ## HTTP surface
//!
//! ```text
//! GET  /healthz                      liveness probe
//! GET  /models                       one line per model
//! GET  /metrics                      scrape-friendly counters
//! GET  /v1/models/{name[@version]}   single model info
//! POST /v1/models/{name[@version]}/infer   body "0101…" → "10…"
//! POST /admin/shutdown               begin graceful drain (if enabled)
//! POST /admin/patch/{name[@version]} body = `.lbnnp` delta → hot-swap (if enabled)
//! ```
//!
//! ## Graceful drain
//!
//! [`ServerHandle::shutdown`] (or `POST /admin/shutdown`, or a unix
//! signal in the binary) flips one flag. The accept loop stops taking
//! connections; connection threads notice within one socket-timeout
//! tick, finish the request in hand, and close; then the registry is
//! drained. Every request that was accepted gets its response; nothing
//! is dropped. A peer that has stopped reading cannot hold the drain up:
//! its connection thread gives up after the 2 s write timeout and closes.
//! Nor can a peer that has stopped sending hold a connection slot: a
//! connection that receives no byte for 30 s is closed.
//!
//! ## Sockets
//!
//! Every accepted stream runs with `TCP_NODELAY`, and every response —
//! binary frame or HTTP — is built whole in a per-connection buffer and
//! reaches the socket as one `write`. Either alone keeps a
//! request/response client off the Nagle/delayed-ACK interaction, where
//! the second of two small writes is held ~40 ms until the peer
//! acknowledges the first; together they also make each response one
//! segment.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lbnn_core::RuntimeStats;

use crate::http::{self, ParseError, ReadOutcome, Request, WireLimits};
use crate::metrics::{render_metrics, render_models, ServerMetrics};
use crate::registry::{InferOutcome, ModelRegistry};
use crate::wire::{self, FrameOutcome, InferResponse, Status};
use crate::ServeError;

/// Socket read timeout: how quickly an idle connection thread notices
/// the shutdown flag. Short enough for a snappy drain, long enough to
/// stay off the scheduler.
const READ_TICK: Duration = Duration::from_millis(50);

/// How long a connection may receive no byte at all before its thread
/// closes it. Without a limit, `max_connections` peers that connect and
/// send nothing would hold every connection slot, and the server would
/// refuse every later client. Checked once per [`READ_TICK`].
#[cfg(not(test))]
const IDLE_LIMIT: Duration = Duration::from_secs(30);
#[cfg(test)]
const IDLE_LIMIT: Duration = Duration::from_millis(300);

/// The idle clock of one connection: since when its read loop has seen
/// no byte arrive, judged at each read-timeout tick.
#[derive(Default)]
struct IdleClock {
    /// When the quiet began, and how many bytes were buffered then.
    quiet: Option<(Instant, usize)>,
}

impl IdleClock {
    /// A request was read whole: the peer is not idle.
    fn heard(&mut self) {
        self.quiet = None;
    }

    /// A read timed out with `held` bytes buffered. True once no byte
    /// has arrived for [`IDLE_LIMIT`]; bytes that arrived since the last
    /// tick (the buffer changed) restart the clock.
    fn expired(&mut self, held: usize) -> bool {
        match self.quiet {
            Some((since, seen)) if seen == held => since.elapsed() >= IDLE_LIMIT,
            _ => {
                self.quiet = Some((Instant::now(), held));
                false
            }
        }
    }
}

/// Socket write timeout: how long a peer may take no bytes at all before
/// its connection thread stops waiting on it and closes. Responses are
/// a few bytes to a few KiB, so only a peer that has stopped reading
/// ever fills both socket buffers and gets here.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept-loop poll interval while the listener is non-blocking.
const ACCEPT_TICK: Duration = Duration::from_millis(2);

/// Configuration of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Maximum simultaneously open connections; further accepts are
    /// dropped (and counted) until one closes.
    pub max_connections: usize,
    /// Per-connection byte ceilings for the HTTP parser.
    pub limits: WireLimits,
    /// Whether `POST /admin/shutdown` is routed (tests and supervised
    /// deployments; the binary also wires unix signals).
    pub enable_admin: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 256,
            limits: WireLimits::default(),
            enable_admin: true,
        }
    }
}

/// Shared shutdown switch for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Begin graceful drain: stop accepting, finish everything accepted.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// Final per-model accounting, reported once the server has drained.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// `name@version`.
    pub id: String,
    /// Requests answered with output bits.
    pub ok: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests rejected before submission.
    pub bad_request: u64,
    /// Requests that failed inside the engine.
    pub failed: u64,
    /// Final runtime statistics (latency percentiles included).
    pub stats: RuntimeStats,
}

/// What the server did over its lifetime, returned by [`Server::serve`]
/// after a graceful drain completes.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// HTTP connections accepted.
    pub http_connections: u64,
    /// Binary-protocol connections accepted.
    pub binary_connections: u64,
    /// Connections dropped at the connection cap.
    pub connections_refused: u64,
    /// HTTP requests answered.
    pub http_requests: u64,
    /// Binary frames answered.
    pub binary_requests: u64,
    /// Protocol-level parse failures.
    pub protocol_errors: u64,
    /// Per-model final accounting.
    pub models: Vec<ModelReport>,
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "connections: {} http, {} binary, {} refused; requests: {} http, {} binary, {} protocol errors",
            self.http_connections,
            self.binary_connections,
            self.connections_refused,
            self.http_requests,
            self.binary_requests,
            self.protocol_errors,
        )?;
        for m in &self.models {
            writeln!(
                f,
                "  {}: ok={} shed={} bad={} failed={} p50={:.0}us p95={:.0}us p99={:.0}us",
                m.id,
                m.ok,
                m.shed,
                m.bad_request,
                m.failed,
                m.stats.queue.p50_us,
                m.stats.queue.p95_us,
                m.stats.queue.p99_us,
            )?;
        }
        Ok(())
    }
}

/// A bound listener plus everything connection threads share.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    options: ServerOptions,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    registry: Arc<ModelRegistry>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    active: AtomicUsize,
    limits: WireLimits,
    enable_admin: bool,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) over `registry`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: ModelRegistry,
        options: ServerOptions,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io {
            target: "bind".into(),
            reason: e.to_string(),
        })?;
        let local_addr = listener.local_addr().map_err(|e| ServeError::Io {
            target: "local_addr".into(),
            reason: e.to_string(),
        })?;
        Ok(Server {
            listener,
            local_addr,
            registry: Arc::new(registry),
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(ServerMetrics::default()),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A shutdown switch usable from any thread (or a signal watcher).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Run until shutdown is requested, then drain and report.
    ///
    /// Blocks the calling thread for the server's whole life. All model
    /// work happens on connection threads and runtime workers.
    pub fn serve(self) -> Result<ServeReport, ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io {
                target: "set_nonblocking".into(),
                reason: e.to_string(),
            })?;
        let shared = Arc::new(Shared {
            registry: Arc::clone(&self.registry),
            metrics: Arc::clone(&self.metrics),
            shutdown: Arc::clone(&self.shutdown),
            active: AtomicUsize::new(0),
            limits: self.options.limits,
            enable_admin: self.options.enable_admin,
        });
        while !self.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if shared.active.load(Ordering::Acquire) >= self.options.max_connections {
                        shared
                            .metrics
                            .connections_refused
                            .fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    shared.active.fetch_add(1, Ordering::AcqRel);
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                        shared.active.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(ServeError::Io {
                        target: "accept".into(),
                        reason: e.to_string(),
                    });
                }
            }
        }
        // Drain: no new connections. Wait out the connection threads
        // (each finishes the request in hand), then wait the registry
        // fully idle.
        while shared.active.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.registry.drain_all();
        let models = self
            .registry
            .entries()
            .iter()
            .map(|entry| {
                let (ok, shed, bad_request, failed) = entry.metrics.snapshot();
                ModelReport {
                    id: entry.id(),
                    ok,
                    shed,
                    bad_request,
                    failed,
                    stats: entry.stats(),
                }
            })
            .collect();
        Ok(ServeReport {
            http_connections: self.metrics.http_connections.load(Ordering::Relaxed),
            binary_connections: self.metrics.binary_connections.load(Ordering::Relaxed),
            connections_refused: self.metrics.connections_refused.load(Ordering::Relaxed),
            http_requests: self.metrics.http_requests.load(Ordering::Relaxed),
            binary_requests: self.metrics.binary_requests.load(Ordering::Relaxed),
            protocol_errors: self.metrics.protocol_errors.load(Ordering::Relaxed),
            models,
        })
    }
}

/// Sniff the protocol and run the matching per-connection loop.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    // Accumulate 4 bytes to sniff; HTTP methods never start with "LBNB".
    let mut chunk = [0u8; 4096];
    let mut idle = IdleClock::default();
    loop {
        if buf.len() >= 4 {
            break;
        }
        use std::io::Read;
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) || idle.expired(buf.len()) {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    if buf[..4] == wire::MAGIC {
        shared
            .metrics
            .binary_connections
            .fetch_add(1, Ordering::Relaxed);
        buf.drain(..4);
        serve_binary(stream, buf, shared);
    } else {
        shared
            .metrics
            .http_connections
            .fetch_add(1, Ordering::Relaxed);
        serve_http(stream, buf, shared);
    }
}

/// Per-connection loop for the binary protocol.
fn serve_binary(mut stream: TcpStream, mut buf: Vec<u8>, shared: &Shared) {
    // One response frame at a time, built whole and reused.
    let mut out = Vec::new();
    let mut idle = IdleClock::default();
    loop {
        match wire::read_frame(&mut stream, &mut buf) {
            FrameOutcome::Ready(payload) => {
                idle.heard();
                shared
                    .metrics
                    .binary_requests
                    .fetch_add(1, Ordering::Relaxed);
                let resp = match wire::decode_request(&payload) {
                    Ok(req) => match shared.registry.resolve(&req.model) {
                        Some(entry) => match entry.infer(&req.bits) {
                            InferOutcome::Ok(bits) => InferResponse {
                                status: Status::Ok,
                                bits,
                                message: String::new(),
                            },
                            InferOutcome::Shed => InferResponse {
                                status: Status::Shed,
                                bits: Vec::new(),
                                message: String::new(),
                            },
                            InferOutcome::BadArity(msg) => InferResponse {
                                status: Status::BadRequest,
                                bits: Vec::new(),
                                message: msg,
                            },
                            InferOutcome::Failed(msg) => InferResponse {
                                status: Status::Error,
                                bits: Vec::new(),
                                message: msg,
                            },
                        },
                        None => InferResponse {
                            status: Status::NotFound,
                            bits: Vec::new(),
                            message: format!("no model `{}` in the registry", req.model),
                        },
                    },
                    Err(msg) => {
                        shared
                            .metrics
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        InferResponse {
                            status: Status::BadRequest,
                            bits: Vec::new(),
                            message: msg,
                        }
                    }
                };
                wire::encode_response_into(&resp, &mut out);
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
            FrameOutcome::NeedMore => {
                // Drain hangs up only between frames, never mid-frame: a
                // request already on the wire still gets its response. A
                // peer that stalls mid-frame is idle all the same.
                if (shared.shutdown.load(Ordering::Acquire) && buf.is_empty())
                    || idle.expired(buf.len())
                {
                    return;
                }
            }
            FrameOutcome::Closed => return,
            FrameOutcome::Bad(_) => {
                shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let resp = InferResponse {
                    status: Status::BadRequest,
                    bits: Vec::new(),
                    message: "framing violation".into(),
                };
                wire::encode_response_into(&resp, &mut out);
                let _ = stream.write_all(&out);
                return;
            }
            FrameOutcome::Io(_) => return,
        }
    }
}

/// Per-connection loop for HTTP.
fn serve_http(mut stream: TcpStream, mut buf: Vec<u8>, shared: &Shared) {
    // One response (head + body) at a time, built whole and reused.
    let mut out = Vec::new();
    let mut idle = IdleClock::default();
    loop {
        match http::read_request(&mut stream, &mut buf, &shared.limits) {
            ReadOutcome::Ready(req) => {
                idle.heard();
                shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                let draining = shared.shutdown.load(Ordering::Acquire);
                let keep_alive = req.keep_alive && !draining;
                let (status, body) = route(&req, shared);
                http::encode_response_into(status, &body, keep_alive, &mut out);
                if stream.write_all(&out).is_err() {
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
            ReadOutcome::NeedMore => {
                if (shared.shutdown.load(Ordering::Acquire) && buf.is_empty())
                    || idle.expired(buf.len())
                {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Bad(e) => {
                shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                if e != ParseError::ConnectionClosed {
                    http::encode_response_into(e.status(), &format!("{e}\n"), false, &mut out);
                    let _ = stream.write_all(&out);
                }
                return;
            }
            ReadOutcome::Io(_) => return,
        }
    }
}

/// Map one parsed HTTP request to `(status, body)`.
fn route(req: &Request, shared: &Shared) -> (u16, String) {
    let registry = &shared.registry;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "ok\n".into()),
        ("GET", "/models") => {
            let rows: Vec<_> = registry
                .entries()
                .iter()
                .map(|e| {
                    (
                        e.id(),
                        e.num_inputs,
                        e.num_outputs,
                        e.backend.clone(),
                        &e.metrics,
                        e.stats(),
                    )
                })
                .collect();
            (200, render_models(&rows))
        }
        ("GET", "/metrics") => {
            let rows: Vec<_> = registry
                .entries()
                .iter()
                .map(|e| (e.id(), &e.metrics, e.stats()))
                .collect();
            (200, render_metrics(&shared.metrics, &rows))
        }
        ("POST", "/admin/shutdown") if shared.enable_admin => {
            shared.shutdown.store(true, Ordering::Release);
            (200, "draining\n".into())
        }
        (method, path) => {
            if let Some(spec) = path.strip_prefix("/admin/patch/") {
                if !shared.enable_admin {
                    return (404, "not found\n".into());
                }
                if method != "POST" {
                    return (405, "use POST\n".into());
                }
                return patch_http(spec, &req.body, shared);
            }
            if let Some(rest) = path.strip_prefix("/v1/models/") {
                if let Some(spec) = rest.strip_suffix("/infer") {
                    return match method {
                        "POST" => infer_http(spec, &req.body, shared),
                        _ => (405, "use POST\n".into()),
                    };
                }
                if method != "GET" {
                    return (405, "use GET\n".into());
                }
                return match registry.resolve(rest) {
                    Some(e) => (
                        200,
                        format!(
                            "{} inputs={} outputs={} backend={}\n",
                            e.id(),
                            e.num_inputs,
                            e.num_outputs,
                            e.backend
                        ),
                    ),
                    None => (404, format!("no model `{rest}` in the registry\n")),
                };
            }
            (404, "not found\n".into())
        }
    }
}

/// `POST /admin/patch/{spec}`: raw `.lbnnp` delta body in, hot-swap the
/// named model onto the patched compile. Status codes make the failure
/// class machine-readable: `404` unknown model, `409` the delta binds to
/// a different base artifact, `400` anything malformed.
fn patch_http(spec: &str, body: &[u8], shared: &Shared) -> (u16, String) {
    use lbnn_core::{ArtifactError, CoreError};
    match shared.registry.apply_patch(spec, body) {
        Ok(version) => (200, format!("{spec} now serving version {version}\n")),
        Err(ServeError::ModelNotFound { spec }) => {
            (404, format!("no model `{spec}` in the registry\n"))
        }
        Err(ServeError::Core(CoreError::Artifact(e @ ArtifactError::BaseMismatch { .. }))) => {
            (409, format!("{e}\n"))
        }
        Err(e) => (400, format!("{e}\n")),
    }
}

/// `POST /v1/models/{spec}/infer`: ASCII bit-string body in, bit-string out.
fn infer_http(spec: &str, body: &[u8], shared: &Shared) -> (u16, String) {
    let Some(entry) = shared.registry.resolve(spec) else {
        return (404, format!("no model `{spec}` in the registry\n"));
    };
    let text = match std::str::from_utf8(body) {
        Ok(t) => t.trim(),
        Err(_) => {
            entry.metrics.bad_request.fetch_add(1, Ordering::Relaxed);
            return (400, "body must be an ASCII string of '0'/'1'\n".into());
        }
    };
    let mut bits = Vec::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '0' => bits.push(false),
            '1' => bits.push(true),
            _ => {
                entry.metrics.bad_request.fetch_add(1, Ordering::Relaxed);
                return (400, format!("invalid character {c:?} in bit string\n"));
            }
        }
    }
    match entry.infer(&bits) {
        InferOutcome::Ok(out) => {
            let mut s: String = out.iter().map(|&b| if b { '1' } else { '0' }).collect();
            s.push('\n');
            (200, s)
        }
        InferOutcome::Shed => (429, "SHED\n".into()),
        InferOutcome::BadArity(msg) => (400, format!("{msg}\n")),
        InferOutcome::Failed(msg) => (500, format!("{msg}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_core::{Flow, LpuConfig, RuntimeOptions};
    use lbnn_netlist::random::RandomDag;
    use std::io::{Read, Write};

    fn tiny_registry() -> ModelRegistry {
        let netlist = RandomDag::strict(12, 4, 8).generate(11);
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        let mut registry = ModelRegistry::new();
        registry
            .insert_model("t", "1", flow.into(), RuntimeOptions::default())
            .unwrap();
        registry
    }

    fn start(
        registry: ModelRegistry,
    ) -> (
        SocketAddr,
        ServerHandle,
        std::thread::JoinHandle<ServeReport>,
    ) {
        let server = Server::bind("127.0.0.1:0", registry, ServerOptions::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve().unwrap());
        (addr, handle, join)
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_health_models_metrics_and_drains() {
        let (addr, handle, join) = start(tiny_registry());
        assert!(http_get(addr, "/healthz").contains("ok"));
        let models = http_get(addr, "/models");
        assert!(models.contains("t@1 inputs="), "got: {models}");
        assert!(http_get(addr, "/metrics").contains("lbnn_model_requests_total"));
        assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"));
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.http_connections, 4);
        assert_eq!(report.models.len(), 1);
    }

    fn http_post(addr: SocketAddr, path: &str, body: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .unwrap();
        stream.write_all(body).unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        String::from_utf8_lossy(&out).into_owned()
    }

    /// `POST /admin/patch/{model}` with a `.lbnnp` body hot-swaps the
    /// served compile: responses flip to the patched oracle, the
    /// version counters surface in `/metrics`, and the error statuses
    /// are per failure class (404 / 409 / 400).
    #[test]
    fn admin_patch_hot_swaps_over_http() {
        use lbnn_netlist::PatchSet;
        let netlist = RandomDag::strict(12, 4, 8).generate(19);
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        // Negate every output gate: the swap is observable on any input.
        let patches: PatchSet = flow
            .netlist
            .outputs()
            .iter()
            .map(|o| o.node)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter_map(|id| flow.netlist.node(id).op().negated().map(|neg| (id, neg)))
            .collect();
        assert!(!patches.is_empty());
        let delta = flow.make_delta(&patches).unwrap();
        let patched = flow.apply_patches(&patches).unwrap();
        let width = flow.program.num_inputs;
        let bits: Vec<bool> = (0..width).map(|i| i % 2 == 1).collect();
        let body: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
        let base_want: String = flow
            .netlist
            .eval_bools(&bits)
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        let patched_want: String = patched
            .netlist
            .eval_bools(&bits)
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        assert_ne!(base_want, patched_want);

        let mut registry = ModelRegistry::new();
        registry
            .insert_model("p", "1", flow.into(), RuntimeOptions::default())
            .unwrap();
        let (addr, handle, join) = start(registry);

        let resp = http_post(addr, "/v1/models/p/infer", body.as_bytes());
        assert!(resp.contains(&base_want), "got: {resp}");

        // Failure classes first: unknown model, corrupt delta.
        assert!(http_post(addr, "/admin/patch/ghost", &delta).starts_with("HTTP/1.1 404"));
        assert!(http_post(addr, "/admin/patch/p", b"junk").starts_with("HTTP/1.1 400"));

        let resp = http_post(addr, "/admin/patch/p", &delta);
        assert!(resp.starts_with("HTTP/1.1 200"), "got: {resp}");
        assert!(resp.contains("serving version 1"), "got: {resp}");

        let resp = http_post(addr, "/v1/models/p/infer", body.as_bytes());
        assert!(resp.contains(&patched_want), "got: {resp}");

        // Replaying the same delta now mismatches the (patched) base.
        assert!(http_post(addr, "/admin/patch/p", &delta).starts_with("HTTP/1.1 409"));

        let metrics = http_get(addr, "/metrics");
        assert!(
            metrics.contains("lbnn_model_serving_version{model=\"p@1\"} 1"),
            "got: {metrics}"
        );
        assert!(
            metrics.contains("lbnn_model_swaps_total{model=\"p@1\"} 1"),
            "got: {metrics}"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    /// A peer that connects and sends nothing is closed after
    /// [`IDLE_LIMIT`], so it cannot hold the only connection slot.
    #[test]
    fn an_idle_connection_gives_up_its_slot() {
        let options = ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", tiny_registry(), options).unwrap();
        let (addr, handle) = (server.local_addr(), server.handle());
        let join = std::thread::spawn(move || server.serve().unwrap());
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(IDLE_LIMIT * 10)).unwrap();
        // The server hangs up on the silent peer: end of stream, not a
        // read timeout.
        assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0);
        // Its thread gives the slot back just after closing the socket.
        std::thread::sleep(READ_TICK * 2);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(IDLE_LIMIT * 10)).unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out:?}");
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.connections_refused, 0);
    }

    #[test]
    fn admin_shutdown_ends_serve() {
        let (addr, _handle, join) = start(tiny_registry());
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /admin/shutdown HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.contains("draining"));
        let report = join.join().unwrap();
        assert_eq!(report.http_requests, 1);
    }
}

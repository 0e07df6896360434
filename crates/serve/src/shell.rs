//! The HTTP/1.1 serve shell that both roles run on.
//!
//! ```text
//! acceptor ──conn──▶ worker pool (N threads, keep-alive) ──Request──▶ role route table
//!                                                        ◀──Reply───
//! ```
//!
//! A role — the primary in [`crate::server`], a read replica in
//! [`crate::replica`] — plugs in through [`Routes`]: its route table, its
//! metrics, and its [`Shutdown`] flag. The shell owns everything else:
//!
//! - **Accept** blocks in `TcpListener::accept`; nothing polls. Stopping
//!   sets the flag and then wakes the acceptor with one connection to the
//!   shell's own address. The acceptor drops that connection (and any
//!   other that arrives once the flag is set), exits, and so closes the
//!   listener and the worker channel. Accept errors back off for
//!   [`ACCEPT_BACKOFF`] instead of spinning.
//! - **Workers** park in a blocking `recv` on the shared connection
//!   channel and return once it disconnects and is drained.
//! - **Connections** get `TCP_NODELAY` and the role's read timeout (also
//!   used as the write timeout), and serve keep-alive requests until the
//!   client closes, a read times out, or the role drains. A malformed
//!   request is answered `400`, an oversized body `413`, and both close.
//! - **Telemetry**: each request counts `http_requests`, runs its route
//!   under the `request` span, and counts its response's status class.
//!
//! Both roles answer `GET /v1/facts/{name}` and
//! `GET /v1/sources/{name}/trust` from their published view through the
//! one implementation in [`read_routes`].

use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use corroborate_core::truth::Label;
use corroborate_obs::{Counter, Json, Observer, RecordingObserver, Span};

use crate::epoch::{Published, VerdictView};
use crate::http::{read_request, write_response_headers, HttpError, Request};
use crate::metrics::ServeMetrics;
use crate::ServeError;

/// Pause after a failed `accept` (e.g. out of file descriptors) before
/// trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long [`Shell::stop`] waits for its wake connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// `Content-Type` of every JSON route.
const CONTENT_TYPE_JSON: &str = "application/json";
/// `Content-Type` of the Prometheus text exposition endpoint.
const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4";
/// `Content-Type` of shipped WAL bytes (segments, tail frames, snapshot).
const CONTENT_TYPE_BINARY: &str = "application/octet-stream";

/// A role's drain flag. The admin route or the role's handle sets it; the
/// shell's acceptor and keep-alive logic and the role's own loops read it.
#[derive(Debug, Default)]
pub(crate) struct Shutdown {
    requested: AtomicBool,
}

impl Shutdown {
    /// Flags the role as draining.
    pub(crate) fn request(&self) {
        self.requested.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested.
    pub(crate) fn requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }
}

/// A fully formed HTTP reply: status, content type, body bytes, and any
/// extra headers (e.g. `Retry-After` on 429).
pub(crate) struct Reply {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    extra: Vec<(&'static str, String)>,
}

impl Reply {
    fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self { status, content_type, body, extra: Vec::new() }
    }

    /// A JSON document.
    pub(crate) fn json(status: u16, body: &Json) -> Self {
        Self::new(status, CONTENT_TYPE_JSON, body.to_json().into_bytes())
    }

    /// `{"error": message}`.
    pub(crate) fn error(status: u16, message: &str) -> Self {
        let mut obj = Json::object();
        obj.insert("error", message);
        Self::json(status, &obj)
    }

    /// A Prometheus text exposition.
    pub(crate) fn prometheus(text: String) -> Self {
        Self::new(200, CONTENT_TYPE_PROM, text.into_bytes())
    }

    /// Raw shipped WAL bytes.
    pub(crate) fn binary(body: Vec<u8>) -> Self {
        Self::new(200, CONTENT_TYPE_BINARY, body)
    }

    /// Adds one extra response header.
    pub(crate) fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra.push((name, value));
        self
    }
}

/// What a role plugs into the shell.
pub(crate) trait Routes: Send + Sync + 'static {
    /// Answers one parsed request.
    fn route(&self, request: &Request) -> Reply;
    /// Where request counters and the `request` span are recorded.
    fn metrics(&self) -> &ServeMetrics;
    /// The role's drain flag.
    fn shutdown(&self) -> &Shutdown;
}

/// Per-role shell tuning.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShellConfig {
    /// Worker threads (at least one runs).
    pub(crate) workers: usize,
    /// Socket read and write timeout of each accepted connection.
    pub(crate) read_timeout: Duration,
    /// Request body cap; larger bodies are answered `413`.
    pub(crate) max_body_bytes: usize,
    /// Thread-name prefix (`{name}-acceptor`, `{name}-worker-{i}`).
    pub(crate) name: &'static str,
}

/// A running shell: the acceptor and the worker pool. Dropping it stops it
/// (see [`Shell::stop`]).
pub(crate) struct Shell {
    addr: SocketAddr,
    routes: Arc<dyn Routes>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Shell {
    /// Serves `routes` on `listener`.
    ///
    /// # Errors
    /// The listener's address cannot be read, or a thread cannot spawn.
    pub(crate) fn start(
        listener: TcpListener,
        routes: Arc<dyn Routes>,
        config: ShellConfig,
    ) -> Result<Self, ServeError> {
        let addr = listener.local_addr()?;
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let conn_rx = Arc::clone(&conn_rx);
                let routes = Arc::clone(&routes);
                thread::Builder::new()
                    .name(format!("{}-worker-{i}", config.name))
                    .spawn(move || worker_loop(&conn_rx, routes.as_ref(), config.max_body_bytes))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let acceptor = {
            let routes = Arc::clone(&routes);
            thread::Builder::new().name(format!("{}-acceptor", config.name)).spawn(move || {
                accept_loop(&listener, &conn_tx, routes.as_ref(), config.read_timeout);
            })?
        };
        Ok(Self { addr, routes, acceptor: Some(acceptor), workers })
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops serving: sets the role's shutdown flag, wakes the blocking
    /// accept with a connection to the shell's own address, then joins the
    /// acceptor and every worker (each finishes the connection it holds).
    /// Idempotent. If the wake fails while the acceptor may still be
    /// blocked, the threads are left detached rather than joined forever.
    pub(crate) fn stop(&mut self) {
        self.routes.shutdown().request();
        let Some(acceptor) = self.acceptor.take() else { return };
        let woke = match TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT) {
            Ok(_) => true,
            // Refused: the acceptor already returned and closed the listener.
            Err(e) => e.kind() == ErrorKind::ConnectionRefused || acceptor.is_finished(),
        };
        if !woke {
            return;
        }
        let _ = acceptor.join();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Shell {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where the wake connection goes: the bound address, with a wildcard IP
/// replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(
    listener: &TcpListener,
    conn_tx: &Sender<TcpStream>,
    routes: &dyn Routes,
    read_timeout: Duration,
) {
    loop {
        let accepted = listener.accept();
        if routes.shutdown().requested() {
            // The stop wake, or a client racing it: never handed to a
            // worker. Returning drops the listener and the channel.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if stream.set_read_timeout(Some(read_timeout)).is_err()
                    || stream.set_write_timeout(Some(read_timeout)).is_err()
                {
                    continue;
                }
                // Responses are single buffered writes; Nagle only adds
                // delayed-ACK stalls to keep-alive request/response turns.
                let _ = stream.set_nodelay(true);
                if conn_tx.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn worker_loop(conn_rx: &Mutex<Receiver<TcpStream>>, routes: &dyn Routes, max_body: usize) {
    loop {
        let stream = {
            // A worker that panicked while holding the lock poisons it for
            // every sibling; the receiver itself is still sound, so keep
            // serving instead of cascading the panic across the pool.
            let guard = conn_rx.lock().unwrap_or_else(PoisonError::into_inner);
            match guard.recv() {
                Ok(stream) => stream,
                Err(_) => return, // acceptor gone and channel drained
            }
        };
        handle_connection(stream, routes, max_body);
    }
}

fn handle_connection(stream: TcpStream, routes: &dyn Routes, max_body: usize) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let obs = routes.metrics().observer();
    loop {
        let (reply, keep_alive) = match read_request(&mut reader, max_body) {
            Ok(request) => {
                obs.add(Counter::HttpRequests, 1);
                let reply =
                    obs.traced(Span::Request, request.body.len() as u64, || routes.route(&request));
                (reply, request.keep_alive && !routes.shutdown().requested())
            }
            Err(HttpError::BadRequest(message)) => (Reply::error(400, &message), false),
            Err(HttpError::PayloadTooLarge { limit }) => {
                (Reply::error(413, &format!("body exceeds {limit} bytes")), false)
            }
            // A clean close or a read timeout ends the keep-alive session.
            Err(HttpError::Closed | HttpError::Io(_)) => return,
        };
        if respond(obs, &mut writer, &reply, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn respond(
    obs: &RecordingObserver,
    writer: &mut impl Write,
    reply: &Reply,
    keep_alive: bool,
) -> std::io::Result<()> {
    let class = match reply.status {
        200..=299 => Some(Counter::HttpResponses2xx),
        400..=499 => Some(Counter::HttpResponses4xx),
        500..=599 => Some(Counter::HttpResponses5xx),
        _ => None,
    };
    if let Some(class) = class {
        obs.add(class, 1);
    }
    let extra: Vec<(&str, &str)> = reply.extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
    write_response_headers(
        writer,
        reply.status,
        reply.content_type,
        &extra,
        &reply.body,
        keep_alive,
    )
}

/// The end of every role's route table: `GET /v1/facts/{name}` and
/// `GET /v1/sources/{name}/trust` against the role's published view,
/// `404` for any other `GET` or `POST`, and `405` for other methods.
pub(crate) fn read_routes(view: &Published<VerdictView>, request: &Request) -> Reply {
    let path = request.path.as_str();
    match request.method.as_str() {
        "GET" => {
            if let Some(name) = path.strip_prefix("/v1/facts/") {
                return fact_reply(&view.get(), name);
            }
            let source = path.strip_prefix("/v1/sources/").and_then(|r| r.strip_suffix("/trust"));
            match source {
                Some(name) => source_trust_reply(&view.get(), name),
                None => Reply::error(404, &format!("no route for {path}")),
            }
        }
        "POST" => Reply::error(404, &format!("no route for {path}")),
        method => Reply::error(405, &format!("method {method} not allowed")),
    }
}

/// The `/v1/facts/{name}` document.
fn fact_reply(view: &VerdictView, name: &str) -> Reply {
    let Some(fact) = view.fact_by_name(name) else {
        return Reply::error(404, &format!("unknown fact {name:?}"));
    };
    let p = view.probability(fact);
    let mut obj = Json::object();
    obj.insert("fact", name);
    obj.insert("probability", p);
    obj.insert("verdict", Label::from_probability(p).as_bool());
    obj.insert("epoch", view.epoch());
    obj.insert("stale", view.is_stale(fact));
    let delta = view.delta();
    let votes: Vec<Json> = delta
        .votes(fact)
        .iter()
        .map(|sv| {
            let mut v = Json::object();
            v.insert("source", delta.source_name(sv.source));
            v.insert("vote", sv.vote.symbol().to_string());
            v.insert("trust", view.trust().trust(sv.source));
            v
        })
        .collect();
    obj.insert("votes", Json::Arr(votes));
    Reply::json(200, &obj)
}

/// The `/v1/sources/{name}/trust` document.
fn source_trust_reply(view: &VerdictView, name: &str) -> Reply {
    let Some(source) = view.source_by_name(name) else {
        return Reply::error(404, &format!("unknown source {name:?}"));
    };
    let mut obj = Json::object();
    obj.insert("source", name);
    obj.insert("trust", view.trust().trust(source));
    obj.insert("epoch", view.epoch());
    obj.insert("stale_facts", view.stale_count());
    Reply::json(200, &obj)
}

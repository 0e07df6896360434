//! The online corroboration server: the primary role.
//!
//! Thread layout:
//!
//! ```text
//! serve shell (acceptor + N workers, keep-alive HTTP; see shell.rs)
//!                        │ POST /v1/votes → IngestQueue::try_push (429 when full)
//!                        ▼
//!                    epoch thread: drain → WAL append → apply → run_epoch
//!                        │
//!                        ▼
//!                    Published<VerdictView>  ◀── GET routes read lock-free-ish
//! ```
//!
//! Reads never touch the engine: every GET resolves against the immutable
//! [`VerdictView`] published by the last epoch (an `Arc` swap). Writes are
//! accepted into a bounded queue and journalled to the WAL *before* they
//! mutate engine state, so a crash between accept and epoch is recoverable.
//!
//! Graceful shutdown (admin endpoint or [`ServerHandle::shutdown`]):
//! replicas' parked `GET /wal/tail` long polls are woken and answer at
//! once, the shell stops accepting (its blocking accept is woken by a
//! connection to its own address), in-flight connections finish their
//! current request, the queue closes, and the epoch thread runs one final
//! **full** drain epoch before exiting — the published view then equals a
//! one-shot batch run over everything ever accepted.

use std::borrow::Cow;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corroborate_core::truth::Label;
use corroborate_core::vote::Vote;
use corroborate_obs::{Counter, Json, JsonReader, Observer, ParseError, Span, TraceSnapshot};

use crate::cluster::{ClusterState, PrimaryStatus, ReplicaStatus};
use crate::delta::Mutation;
use crate::epoch::{EpochConfig, EpochEngine, EpochMode, EpochStats, Published, VerdictView};
use crate::http::{query_param, Request};
use crate::metrics::{saturating_nanos, ReplGauges, ServeMetrics};
use crate::queue::IngestQueue;
use crate::shell::{read_routes, Reply, Routes, Shell, ShellConfig, Shutdown};
use crate::ship::{ShipLog, TailResponse};
use crate::wal::{Wal, WalConfig};
use crate::walfs::StdFs;
use crate::ServeError;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Ingest queue capacity in mutations (backpressure bound).
    pub queue_capacity: usize,
    /// Hard cap on request bodies, bytes.
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// How long the epoch thread waits for more mutations before ticking.
    pub epoch_linger: Duration,
    /// Most mutations folded into one epoch.
    pub epoch_max_batch: usize,
    /// Evaluation configuration.
    pub epoch: EpochConfig,
    /// Durability directory; `None` runs in-memory only.
    pub data_dir: Option<PathBuf>,
    /// WAL tuning (ignored without `data_dir`).
    pub wal: WalConfig,
    /// Trace ring capacity in events (rounded up to a power of two);
    /// `0` disables hierarchical tracing entirely.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 4096,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            epoch_linger: Duration::from_millis(20),
            epoch_max_batch: 4096,
            epoch: EpochConfig::default(),
            data_dir: None,
            wal: WalConfig::default(),
            trace_capacity: 0,
        }
    }
}

/// Seconds a shed (429) client should wait before retrying — roughly the
/// time a couple of epoch batches need to drain the queue.
const RETRY_AFTER_SECS: &str = "1";
/// Bytes of recent group-commit frames retained for replica tail fetches.
const SHIP_TAIL_BUFFER_BYTES: u64 = 4 << 20;
/// Most framed bytes a single `GET /wal/tail` response carries.
const TAIL_FETCH_MAX_BYTES: u64 = 1 << 20;

struct Shared {
    queue: IngestQueue,
    view: Published<VerdictView>,
    metrics: ServeMetrics,
    epoch_counter: AtomicU64,
    shutdown: Shutdown,
    /// Replication feed; disabled (empty) until a durable WAL attaches.
    ship: Arc<ShipLog>,
    /// Replica heartbeat registry behind `GET /cluster`.
    cluster: Arc<ClusterState>,
}

impl Routes for Shared {
    fn route(&self, request: &Request) -> Reply {
        route(self, request)
    }

    fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    fn shutdown(&self) -> &Shutdown {
        &self.shutdown
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) stops the HTTP shell but leaves the epoch
/// thread undrained.
pub struct ServerHandle {
    shared: Arc<Shared>,
    shell: Shell,
    epoch_thread: Option<JoinHandle<Result<(), ServeError>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shell.addr()
    }

    /// The currently published verdict view.
    pub fn view(&self) -> Arc<VerdictView> {
        self.shared.view.get()
    }

    /// The telemetry document `/metrics.json` serves.
    pub fn metrics_json(&self) -> Json {
        metrics_doc(&self.shared)
    }

    /// The Prometheus text document `/metrics` serves.
    pub fn metrics_prometheus(&self) -> String {
        metrics_text(&self.shared)
    }

    /// The membership document `/cluster` serves.
    pub fn cluster_json(&self) -> Json {
        cluster_doc(&self.shared)
    }

    /// Whether the server was booted with a trace ring.
    pub fn trace_enabled(&self) -> bool {
        self.shared.metrics.observer().trace().is_some()
    }

    /// Snapshot of the trace ring (empty when tracing is off). Export with
    /// [`corroborate_obs::chrome_trace_json`].
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.shared.metrics.observer().trace_snapshot()
    }

    /// Whether shutdown has been requested (e.g. via the admin endpoint).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.requested()
    }

    /// Requests and completes a graceful drain: stop accepting, finish
    /// in-flight requests, close the queue, run the final full epoch.
    ///
    /// # Errors
    /// Propagates an epoch-thread failure (the drain itself).
    pub fn shutdown(mut self) -> Result<Arc<VerdictView>, ServeError> {
        self.drain()?;
        Ok(self.shared.view.get())
    }

    /// [`Self::shutdown`] that also returns the trace snapshot taken
    /// *after* the final drain epoch, so the exported trace includes the
    /// closing full re-score. The snapshot is empty when tracing is off.
    ///
    /// # Errors
    /// Propagates an epoch-thread failure (the drain itself).
    pub fn shutdown_with_trace(mut self) -> Result<(Arc<VerdictView>, TraceSnapshot), ServeError> {
        self.drain()?;
        let snapshot = self.shared.metrics.observer().trace_snapshot();
        Ok((self.shared.view.get(), snapshot))
    }

    fn drain(&mut self) -> Result<(), ServeError> {
        // Flag the drain and wake parked tail fetches before the shell
        // joins its workers: a woken fetch then answers and closes.
        self.shared.shutdown.request();
        self.shared.ship.drain();
        self.shell.stop();
        // Workers are done: no more producers. Close and drain.
        self.shared.queue.close();
        if let Some(t) = self.epoch_thread.take() {
            match t.join() {
                Ok(result) => result?,
                Err(_) => {
                    return Err(ServeError::InvalidMutation {
                        message: "epoch thread panicked".into(),
                    })
                }
            }
        }
        Ok(())
    }
}

/// Boots the server: recovers WAL state (when configured), runs the first
/// epoch synchronously so the initial view reflects recovered data, then
/// starts the HTTP shell and the epoch thread.
///
/// # Errors
/// Bind failures, WAL recovery failures, engine-configuration failures.
pub fn start(config: ServerConfig) -> Result<ServerHandle, ServeError> {
    let metrics = ServeMetrics::with_trace(config.trace_capacity);

    // The ship log's clock is its own monotone epoch: frame-durability
    // stamps, lag computation, and heartbeat ages all read the same base.
    let ship = Arc::new({
        let t0 = Instant::now();
        ShipLog::with_clock(SHIP_TAIL_BUFFER_BYTES, Box::new(move || saturating_nanos(t0)))
    });

    let (mut engine, wal) = match &config.data_dir {
        Some(dir) => {
            // The open seeds the ship log from the segment bytes it
            // replays, so the active segment is read once.
            let (wal, recovery) = Wal::open_from(
                dir,
                config.wal,
                Arc::new(StdFs),
                metrics.observer(),
                None,
                Some(Arc::clone(&ship)),
            )?;
            metrics.observer().add(Counter::WalReplayed, recovery.replayed);
            metrics.observer().add(Counter::SegmentsReplayed, recovery.segments);
            (EpochEngine::from_recovered(recovery.dataset, config.epoch)?, Some(wal))
        }
        None => (EpochEngine::new(config.epoch)?, None),
    };

    // Publish a meaningful initial view: recovered data gets its full
    // epoch before the first request can observe anything.
    let initial = if engine.delta().n_facts() > 0 {
        let (view, stats) = engine.run_epoch(EpochMode::Full)?;
        record_epoch_counters(&metrics, &stats);
        view
    } else {
        Arc::new(VerdictView::empty(&config.epoch)?)
    };

    let shared = Arc::new(Shared {
        queue: IngestQueue::new(config.queue_capacity),
        view: Published::new(VerdictView::empty(&config.epoch)?),
        metrics,
        epoch_counter: AtomicU64::new(initial.epoch()),
        shutdown: Shutdown::default(),
        ship,
        cluster: Arc::new(ClusterState::new()),
    });
    shared.view.publish(initial);
    shared.metrics.note_epoch_published();

    let shell = Shell::start(
        TcpListener::bind(&config.addr)?,
        Arc::clone(&shared) as Arc<dyn Routes>,
        ShellConfig {
            workers: config.workers,
            read_timeout: config.read_timeout,
            max_body_bytes: config.max_body_bytes,
            name: "serve",
        },
    )?;

    let epoch_thread = {
        let shared = Arc::clone(&shared);
        let linger = config.epoch_linger;
        let max_batch = config.epoch_max_batch;
        std::thread::Builder::new()
            .name("serve-epoch".into())
            .spawn(move || epoch_loop(engine, wal, &shared, linger, max_batch))
            .map_err(ServeError::Io)?
    };

    Ok(ServerHandle { shared, shell, epoch_thread: Some(epoch_thread) })
}

/// Pushes point-in-time replication readings into the metrics gauges. The
/// gauges stay absent from both renderings until replication is enabled
/// (i.e. the primary has a durable WAL feeding the ship log).
fn refresh_repl_gauges(shared: &Shared) {
    if !shared.ship.enabled() {
        return;
    }
    shared.metrics.set_repl_gauges(ReplGauges {
        replica_lag_seconds: shared.cluster.max_lag_seconds(&shared.ship),
        replicas_connected: shared.cluster.replica_count(),
        repl_durable_seq: shared.ship.durable_seq(),
    });
}

fn metrics_doc(shared: &Shared) -> Json {
    refresh_repl_gauges(shared);
    shared.metrics.to_json(shared.epoch_counter.load(Ordering::Acquire), shared.queue.len())
}

fn metrics_text(shared: &Shared) -> String {
    refresh_repl_gauges(shared);
    shared.metrics.to_prometheus(shared.epoch_counter.load(Ordering::Acquire), shared.queue.len())
}

fn cluster_doc(shared: &Shared) -> Json {
    let view = shared.view.get();
    let primary = PrimaryStatus {
        epoch: shared.epoch_counter.load(Ordering::Acquire),
        fingerprint: view.fingerprint(),
        queue_depth: shared.queue.len() as u64,
        shed_rate_per_sec: shared.metrics.shed_rate_per_sec(),
        epoch_lag_seconds: shared.metrics.epoch_lag_seconds(),
    };
    shared.cluster.to_json(&shared.ship, &primary)
}

/// The primary's route table.
fn route(shared: &Shared, request: &Request) -> Reply {
    if request.path.starts_with("/wal/") {
        return route_wal(shared, request);
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/votes") => post_votes(shared, &request.body),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => Reply::prometheus(metrics_text(shared)),
        ("GET", "/metrics.json") => Reply::json(200, &metrics_doc(shared)),
        ("GET", "/cluster") => Reply::json(200, &cluster_doc(shared)),
        ("POST", "/cluster/heartbeat") => post_heartbeat(shared, &request.body),
        ("POST", "/v1/admin/shutdown") => {
            shared.shutdown.request();
            shared.ship.drain();
            let mut obj = Json::object();
            obj.insert("draining", true);
            Reply::json(202, &obj)
        }
        _ => read_routes(&shared.view, request),
    }
}

/// WAL shipping routes (binary bodies).
fn route_wal(shared: &Shared, request: &Request) -> Reply {
    if !shared.ship.enabled() {
        return Reply::error(404, "replication requires a durable primary (start with data_dir)");
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/wal/segments") => match query_param(&request.query, "id") {
            Some(raw) => {
                let Ok(id) = raw.parse::<u64>() else {
                    return Reply::error(400, "segment id must be a u64");
                };
                let obs = shared.metrics.observer();
                match obs.traced(Span::SegmentShip, id, || shared.ship.read_segment(id)) {
                    Some(bytes) => {
                        obs.add(Counter::ReplSegmentsShipped, 1);
                        obs.add(Counter::ReplBytesShipped, bytes.len() as u64);
                        Reply::binary(bytes)
                    }
                    None => Reply::error(
                        404,
                        &format!("segment {id} is not sealed here (unknown or compacted)"),
                    ),
                }
            }
            None => Reply::json(200, &shared.ship.index_json()),
        },
        ("GET", "/wal/tail") => {
            let Some(from_seq) =
                query_param(&request.query, "from_seq").and_then(|v| v.parse::<u64>().ok())
            else {
                return Reply::error(400, "tail requires ?from_seq=<u64>");
            };
            // A long poll: park until the frame at `from_seq` lands (the
            // wait is clamped to `TAIL_WAIT_CAP`); no `wait_ms`, no wait.
            let wait_ms = match query_param(&request.query, "wait_ms").map(|v| v.parse::<u64>()) {
                None => 0,
                Some(Ok(ms)) => ms,
                Some(Err(_)) => return Reply::error(400, "wait_ms must be a u64"),
            };
            shared.ship.wait_for_frame(from_seq, Duration::from_millis(wait_ms));
            let obs = shared.metrics.observer();
            let tail = obs.traced(Span::TailShip, from_seq, || {
                shared.ship.tail_since(from_seq, TAIL_FETCH_MAX_BYTES)
            });
            match tail {
                TailResponse::Frames { bytes, frames, .. } => {
                    obs.add(Counter::ReplFramesShipped, frames);
                    obs.add(Counter::ReplBytesShipped, bytes.len() as u64);
                    Reply::binary(bytes)
                }
                // Caught up: an empty body, distinguishable from Behind.
                TailResponse::AtHead => Reply::binary(Vec::new()),
                TailResponse::Behind { floor_seq } => {
                    let mut obj = Json::object();
                    obj.insert("error", "requested seq is outside the tail window");
                    obj.insert("tail_floor_seq", floor_seq);
                    obj.insert("snapshot_seq", shared.ship.snapshot_seq());
                    obj.insert("next_seq", shared.ship.next_seq());
                    Reply::json(410, &obj)
                }
            }
        }
        ("GET", "/wal/snapshot") => match shared.ship.read_snapshot() {
            Some(bytes) => Reply::binary(bytes),
            None => Reply::error(404, "no snapshot on disk yet"),
        },
        (_, path) => Reply::error(404, &format!("no route for {path}")),
    }
}

fn post_heartbeat(shared: &Shared, body: &[u8]) -> Reply {
    let Ok(text) = std::str::from_utf8(body) else {
        return Reply::error(400, "body is not UTF-8");
    };
    let Ok(root) = Json::parse(text) else {
        return Reply::error(400, "invalid JSON");
    };
    match ReplicaStatus::from_json(&root, shared.ship.now_nanos()) {
        Some(status) => {
            shared.metrics.observer().add(Counter::ReplHeartbeats, 1);
            shared.cluster.heartbeat(status);
            let mut obj = Json::object();
            obj.insert("ok", true);
            obj.insert("durable_seq", shared.ship.durable_seq());
            Reply::json(200, &obj)
        }
        None => Reply::error(400, "heartbeat requires id, addr, applied_seq, epoch, fingerprint"),
    }
}

/// A section's or an entry's value, or the first schema error in it.
type Checked<T> = Result<T, &'static str>;

/// Parses the ingest body in one pass, straight into mutations:
/// `{"sources": ["s", ...], "facts": [{"name": "f", "label": true|false|null}, ...],
///   "votes": [{"source": "s", "fact": "f", "vote": "T"|"F"}, ...]}`.
/// All three sections are optional, and the grammar is:
/// - sections apply sources, then facts, then votes, whatever their
///   order in the body;
/// - of duplicate keys, in the body or in an entry, the first wins;
/// - unknown keys are skipped, but their values must be valid JSON;
/// - a syntax error anywhere is reported before any schema error;
/// - schema errors are reported in section order: the first error in
///   the earliest section that has one.
///
/// A body that is not an object holds no mutations. Names borrow from
/// the body until the mutation takes its own copy.
fn parse_ingest(body: &[u8]) -> Result<Vec<Mutation>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let sections = read_sections(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut mutations = Vec::new();
    for section in sections.into_iter().flatten() {
        let section = section.map_err(str::to_string)?;
        if mutations.is_empty() {
            mutations = section;
        } else {
            mutations.extend(section);
        }
    }
    Ok(mutations)
}

/// Reads the whole body: the sources, facts and votes sections, in
/// that order, each `None` when the body has no such key.
fn read_sections(text: &str) -> Result<[Option<Checked<Vec<Mutation>>>; 3], ParseError> {
    let mut sections = [None, None, None];
    let mut r = JsonReader::new(text);
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        r.finish()?;
        return Ok(sections);
    }
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        let slot = ["sources", "facts", "votes"].iter().position(|s| *s == key);
        let Some(i) = slot.filter(|&i| sections[i].is_none()) else {
            r.skip_value()?;
            continue;
        };
        sections[i] = Some(match i {
            0 => {
                section(&mut r, "\"sources\" must be an array", |r| Ok(source_mutation(field(r)?)))?
            }
            1 => section(&mut r, "\"facts\" must be an array", |r| {
                Ok(fact_mutation(entry(r, ["name", "label"])?))
            })?,
            _ => section(&mut r, "\"votes\" must be an array", |r| {
                Ok(vote_mutation(entry(r, ["source", "fact", "vote"])?))
            })?,
        });
    }
    r.finish()?;
    Ok(sections)
}

/// Reads one section: an array whose entries `read` turns into
/// mutations. After its first schema error the rest of the section is
/// only checked for syntax.
fn section<'a>(
    r: &mut JsonReader<'a>,
    not_array: &'static str,
    mut read: impl FnMut(&mut JsonReader<'a>) -> Result<Checked<Mutation>, ParseError>,
) -> Result<Checked<Vec<Mutation>>, ParseError> {
    if r.peek() != Some(b'[') {
        r.skip_value()?;
        return Ok(Err(not_array));
    }
    r.begin_array()?;
    let mut out = Ok(Vec::new());
    while r.next_item()? {
        match &mut out {
            Ok(mutations) => match read(r)? {
                Ok(m) => mutations.push(m),
                Err(e) => out = Err(e),
            },
            Err(_) => r.skip_value()?,
        }
    }
    Ok(out)
}

/// One value, as far as the ingest grammar looks at it.
enum Field<'a> {
    Absent,
    Str(Cow<'a, str>),
    Null,
    Bool(bool),
    Other,
}

fn field<'a>(r: &mut JsonReader<'a>) -> Result<Field<'a>, ParseError> {
    Ok(match r.peek() {
        Some(b'"') => Field::Str(r.string()?),
        Some(b'n' | b't' | b'f') => match r.value()? {
            Json::Bool(b) => Field::Bool(b),
            _ => Field::Null,
        },
        _ => {
            r.skip_value()?;
            Field::Other
        }
    })
}

/// Reads one entry object: the first value of each of `keys`, every
/// other member skipped. An entry that is not an object has none.
fn entry<'a, const N: usize>(
    r: &mut JsonReader<'a>,
    keys: [&str; N],
) -> Result<[Field<'a>; N], ParseError> {
    let mut fields = std::array::from_fn(|_| Field::Absent);
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        return Ok(fields);
    }
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match keys.iter().position(|k| *k == key) {
            Some(i) if matches!(fields[i], Field::Absent) => fields[i] = field(r)?,
            _ => r.skip_value()?,
        }
    }
    Ok(fields)
}

fn source_mutation(name: Field<'_>) -> Checked<Mutation> {
    let Field::Str(name) = name else { return Err("\"sources\" entries must be strings") };
    if name.is_empty() {
        return Err("empty source name");
    }
    Ok(Mutation::AddSource { name: name.into_owned() })
}

fn fact_mutation([name, label]: [Field<'_>; 2]) -> Checked<Mutation> {
    let Field::Str(name) = name else { return Err("\"facts\" entries need a \"name\" string") };
    if name.is_empty() {
        return Err("empty fact name");
    }
    let label = match label {
        Field::Absent | Field::Null => None,
        Field::Bool(b) => Some(Label::from_bool(b)),
        _ => return Err("fact \"label\" must be true, false, or null"),
    };
    Ok(Mutation::AddFact { name: name.into_owned(), label })
}

fn vote_mutation([source, fact, vote]: [Field<'_>; 3]) -> Checked<Mutation> {
    let Field::Str(source) = source else {
        return Err("\"votes\" entries need a \"source\" string");
    };
    let Field::Str(fact) = fact else { return Err("\"votes\" entries need a \"fact\" string") };
    if source.is_empty() || fact.is_empty() {
        return Err("empty source or fact name in vote");
    }
    let vote = match vote {
        Field::Str(v) if v == "T" => Vote::True,
        Field::Str(v) if v == "F" => Vote::False,
        _ => return Err("vote must be \"T\" or \"F\""),
    };
    Ok(Mutation::Cast { source: source.into_owned(), fact: fact.into_owned(), vote })
}

fn post_votes(shared: &Shared, body: &[u8]) -> Reply {
    let mutations = match parse_ingest(body) {
        Ok(m) => m,
        Err(message) => return Reply::error(400, &message),
    };
    if mutations.is_empty() {
        return Reply::error(400, "no mutations in request");
    }
    let n = mutations.len();
    match shared.queue.try_push(mutations) {
        Ok(()) => {
            let obs = shared.metrics.observer();
            obs.add(Counter::IngestBatches, 1);
            obs.add(Counter::IngestMutations, n as u64);
            shared.metrics.observe_batch(n);
            shared.metrics.observe_queue_depth(shared.queue.len());
            let mut obj = Json::object();
            obj.insert("accepted", n);
            obj.insert("epoch", shared.epoch_counter.load(Ordering::Acquire));
            Reply::json(202, &obj)
        }
        Err(ServeError::QueueFull { capacity }) => {
            shared.metrics.observer().add(Counter::IngestRejected, 1);
            shared.metrics.note_shed();
            // An honest backoff signal for shed writes.
            Reply::error(429, &format!("ingest queue full (capacity {capacity}), retry later"))
                .with_header("Retry-After", RETRY_AFTER_SECS.to_string())
        }
        Err(_) => Reply::error(503, "service is draining"),
    }
}

fn healthz(shared: &Shared) -> Reply {
    let mut obj = Json::object();
    obj.insert("status", if shared.shutdown.requested() { "draining" } else { "ok" });
    obj.insert("epoch", shared.epoch_counter.load(Ordering::Acquire));
    obj.insert("queue_depth", shared.queue.len());
    Reply::json(200, &obj)
}

fn record_epoch_counters(metrics: &ServeMetrics, stats: &EpochStats) {
    let obs = metrics.observer();
    obs.add(Counter::Epochs, 1);
    obs.add(if stats.full { Counter::EpochsFull } else { Counter::EpochsIncremental }, 1);
    obs.add(Counter::GroupsInvalidated, stats.groups_invalidated as u64);
    obs.add(Counter::FactsRescored, stats.facts_rescored as u64);
}

fn epoch_loop(
    mut engine: EpochEngine,
    mut wal: Option<Wal>,
    shared: &Shared,
    linger: Duration,
    max_batch: usize,
) -> Result<(), ServeError> {
    loop {
        let obs = shared.metrics.observer();
        let batch = obs.traced(Span::QueueDrain, shared.queue.len() as u64, || {
            shared.queue.drain_batch(max_batch, linger)
        });
        let closed = batch.is_none();
        let batch = batch.unwrap_or_default();
        // One epoch span per batch with work: the WAL append/fsync and
        // re-score spans below are its children in the trace tree.
        let working = !batch.is_empty() || closed;
        let epoch_start = Instant::now();
        if working {
            obs.span_begin(Span::Epoch, batch.len() as u64);
        }
        let result = epoch_step(&mut engine, wal.as_mut(), shared, &batch, closed);
        if working {
            obs.span(Span::Epoch, saturating_nanos(epoch_start));
            obs.span_end(Span::Epoch, batch.len() as u64);
        }
        result?;
        if closed {
            // Final durability point: fold everything into the snapshot.
            if let Some(wal) = wal.as_mut() {
                wal.compact(engine.delta())?;
                shared.metrics.observer().add(Counter::SnapshotsWritten, 1);
            }
            return Ok(());
        }
    }
}

/// One iteration of the epoch loop body: journal and apply the batch,
/// re-score and publish when there is pending work (or on the final drain),
/// then drive background WAL compaction.
fn epoch_step(
    engine: &mut EpochEngine,
    mut wal: Option<&mut Wal>,
    shared: &Shared,
    batch: &[Mutation],
    closed: bool,
) -> Result<(), ServeError> {
    let obs = shared.metrics.observer();
    if !batch.is_empty() {
        if let Some(wal) = wal.as_deref_mut() {
            // Group commit: the whole linger batch becomes one framed WAL
            // record with one CRC and, when fsync is on, one fsync that
            // returns before the append does: the frame is durable and
            // shipped before the epoch below publishes it.
            let receipt = obs.traced(Span::WalBatch, batch.len() as u64, || {
                wal.append_batch_observed(batch, obs)
            })?;
            obs.add(Counter::WalAppends, receipt.count);
            obs.add(Counter::WalBatches, 1);
            if receipt.sealed {
                obs.add(Counter::WalSeals, 1);
            }
            shared.metrics.note_wal_batch_bytes(receipt.bytes);
            if let Some(nanos) = receipt.fsync_nanos {
                shared.metrics.note_fsync(nanos);
            }
        }
        for mutation in batch {
            // An invalid mutation is a client bug that slipped validation;
            // drop it rather than poisoning the stream.
            let _ = engine.apply(mutation);
        }
    }
    if engine.pending() > 0 || closed {
        let mode = if closed { EpochMode::Full } else { EpochMode::Auto };
        let pending = engine.pending() as u64;
        let (view, stats) = obs.traced(Span::Rescore, pending, || engine.run_epoch(mode))?;
        record_epoch_counters(&shared.metrics, &stats);
        let epoch = view.epoch();
        obs.traced(Span::ViewPublish, epoch, || {
            shared.epoch_counter.store(epoch, Ordering::Release);
            shared.view.publish(view);
        });
        shared.metrics.note_epoch_published();
    }
    // Every tick, idle ones too: a background snapshot that finishes after
    // the last write must land (advance `snapshot_seq`, prune the segments
    // it covers), without waiting for the next write.
    if let Some(wal) = wal {
        if wal.maybe_compact(engine.delta())? {
            obs.add(Counter::SnapshotsWritten, 1);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `parse_ingest` as it was before the one-pass reader: the whole body
    /// as a `Json` tree, then the sections copied out of it. The reference
    /// the reader must match, error text for error text.
    fn parse_ingest_dom(body: &[u8]) -> Result<Vec<Mutation>, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let root = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let mut mutations = Vec::new();
        if let Some(sources) = root.get("sources") {
            let sources = sources.as_array().ok_or("\"sources\" must be an array")?;
            for s in sources {
                let name = s.as_str().ok_or("\"sources\" entries must be strings")?;
                if name.is_empty() {
                    return Err("empty source name".into());
                }
                mutations.push(Mutation::AddSource { name: name.to_string() });
            }
        }
        if let Some(facts) = root.get("facts") {
            let facts = facts.as_array().ok_or("\"facts\" must be an array")?;
            for f in facts {
                let name = f
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("\"facts\" entries need a \"name\" string")?;
                if name.is_empty() {
                    return Err("empty fact name".into());
                }
                let label = match f.get("label") {
                    None | Some(Json::Null) => None,
                    Some(Json::Bool(b)) => Some(Label::from_bool(*b)),
                    Some(_) => return Err("fact \"label\" must be true, false, or null".into()),
                };
                mutations.push(Mutation::AddFact { name: name.to_string(), label });
            }
        }
        if let Some(votes) = root.get("votes") {
            let votes = votes.as_array().ok_or("\"votes\" must be an array")?;
            for v in votes {
                let source = v
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("\"votes\" entries need a \"source\" string")?;
                let fact = v
                    .get("fact")
                    .and_then(Json::as_str)
                    .ok_or("\"votes\" entries need a \"fact\" string")?;
                if source.is_empty() || fact.is_empty() {
                    return Err("empty source or fact name in vote".into());
                }
                let vote = match v.get("vote").and_then(Json::as_str) {
                    Some("T") => Vote::True,
                    Some("F") => Vote::False,
                    _ => return Err("vote must be \"T\" or \"F\"".into()),
                };
                mutations.push(Mutation::Cast {
                    source: source.to_string(),
                    fact: fact.to_string(),
                    vote,
                });
            }
        }
        Ok(mutations)
    }

    /// An entry member: its key, and what writes its value.
    type Member = (&'static str, fn(&mut Gen));

    /// Body text built piece by piece from one seed.
    struct Gen {
        rng: StdRng,
        out: String,
    }

    impl Gen {
        fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
            items[self.rng.gen_range(0..items.len())]
        }

        /// `p` as a probability.
        fn odds(&mut self, p: f64) -> bool {
            self.rng.gen_bool(p)
        }

        fn ws(&mut self) {
            if self.odds(0.2) {
                let ws = self.pick(&[" ", "\n  ", "\t", "\r\n"]);
                self.out.push_str(ws);
            }
        }

        /// A name literal: plain, raw UTF-8, or escaped (quotes,
        /// backslashes, BMP `\u`, a surrogate pair); now and then empty.
        fn name(&mut self, prefix: &str) {
            let body = self.pick(&[
                "a",
                "b",
                "caf\\u00e9",
                "café",
                "\\ud83d\\ude00",
                "\\uD83D\\uDE00 x",
                "say \\\"hi\\\"",
                "back\\\\slash",
                "tab\\t",
                "\\u0041",
                "",
            ]);
            self.out.push('"');
            if !body.is_empty() || self.odds(0.5) {
                self.out.push_str(prefix);
            }
            self.out.push_str(body);
            self.out.push('"');
        }

        /// Any JSON value, nested up to `depth` levels, for unknown keys
        /// and wrongly typed fields.
        fn junk_value(&mut self, depth: u32) {
            match self.rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
                0 => {
                    let lit = self.pick(&["null", "true", "false"]);
                    self.out.push_str(lit);
                }
                1 => {
                    let n = self.pick(&["0", "-1.5e3", "42", "99999999999999999999"]);
                    self.out.push_str(n);
                }
                2 | 3 => self.name("j"),
                4 => self.out.push_str("\"T\""),
                5 => {
                    self.out.push('[');
                    for i in 0..self.rng.gen_range(0..3) {
                        if i > 0 {
                            self.out.push(',');
                        }
                        self.ws();
                        self.junk_value(depth - 1);
                    }
                    self.out.push(']');
                }
                _ => {
                    self.out.push('{');
                    for i in 0..self.rng.gen_range(0..3) {
                        if i > 0 {
                            self.out.push(',');
                        }
                        let key = self.pick(&["\"x\"", "\"name\"", "\"votes\"", "\"k\\u0031\""]);
                        self.out.push_str(key);
                        self.out.push(':');
                        self.ws();
                        self.junk_value(depth - 1);
                    }
                    self.out.push('}');
                }
            }
        }

        /// An entry object with `fields` (key, writer) in random order,
        /// some repeated with another value (the first must win), some
        /// dropped, with unknown members mixed in.
        fn object(&mut self, fields: &[Member]) {
            let mut members: Vec<usize> = (0..fields.len()).collect();
            if self.odds(0.05) {
                members.remove(self.rng.gen_range(0..members.len()));
            }
            if self.odds(0.15) {
                members.push(self.rng.gen_range(0..fields.len()));
            }
            if self.odds(0.15) {
                members.push(usize::MAX);
            }
            for i in (1..members.len()).rev() {
                members.swap(i, self.rng.gen_range(0..=i));
            }
            self.out.push('{');
            for (n, &m) in members.iter().enumerate() {
                if n > 0 {
                    self.out.push(',');
                }
                self.ws();
                if m == usize::MAX {
                    self.out.push_str("\"extra\":");
                    self.junk_value(2);
                } else {
                    let (key, write) = fields[m];
                    self.out.push('"');
                    self.out.push_str(key);
                    self.out.push_str("\":");
                    self.ws();
                    if self.odds(0.04) {
                        self.junk_value(1);
                    } else {
                        write(self);
                    }
                }
                self.ws();
            }
            self.out.push('}');
        }

        fn array(&mut self, entry: fn(&mut Gen)) {
            if self.odds(0.04) {
                self.junk_value(1);
                return;
            }
            self.out.push('[');
            for i in 0..self.rng.gen_range(0..4) {
                if i > 0 {
                    self.out.push(',');
                }
                self.ws();
                if self.odds(0.03) {
                    self.junk_value(1);
                } else {
                    entry(self);
                }
            }
            self.out.push(']');
        }

        fn sources(&mut self) {
            self.array(|g| g.name("s"));
        }

        fn facts(&mut self) {
            self.array(|g| {
                g.object(&[
                    ("name", |g| g.name("f")),
                    ("label", |g| {
                        let label = g.pick(&["true", "false", "null"]);
                        g.out.push_str(label);
                    }),
                ]);
            });
        }

        fn votes(&mut self) {
            self.array(|g| {
                g.object(&[
                    ("source", |g| g.name("s")),
                    ("fact", |g| g.name("f")),
                    ("vote", |g| {
                        let vote = g.pick(&["\"T\"", "\"F\"", "\"T\"", "\"F\"", "\"X\""]);
                        g.out.push_str(vote);
                    }),
                ]);
            });
        }

        /// A whole body: the sections in random order, some repeated
        /// (the first must win), unknown keys holding nested values, and
        /// now and then a root that is not an object.
        fn body(seed: u64) -> String {
            let mut g = Gen { rng: StdRng::seed_from_u64(seed), out: String::new() };
            g.ws();
            if g.odds(0.03) {
                g.junk_value(2);
                return g.out;
            }
            let mut keys: Vec<usize> = (0..3).filter(|_| g.odds(0.8)).collect();
            for _ in 0..g.rng.gen_range(0..3) {
                keys.push(g.rng.gen_range(0..5));
            }
            for i in (1..keys.len()).rev() {
                keys.swap(i, g.rng.gen_range(0..=i));
            }
            g.out.push('{');
            for (n, &k) in keys.iter().enumerate() {
                if n > 0 {
                    g.out.push(',');
                }
                g.ws();
                let key = ["sources", "facts", "votes", "other", "sour\\u0063es"][k];
                g.out.push('"');
                g.out.push_str(key);
                g.out.push_str("\":");
                g.ws();
                match k {
                    0 | 4 => g.sources(),
                    1 => g.facts(),
                    2 => g.votes(),
                    _ => g.junk_value(3),
                }
                g.ws();
            }
            g.out.push('}');
            g.ws();
            g.out
        }
    }

    /// `body`, then variants of it: truncated, a byte replaced, junk
    /// inserted, each at a random byte.
    fn bodies(seed: u64) -> Vec<Vec<u8>> {
        let body = Gen::body(seed).into_bytes();
        let mut rng = StdRng::seed_from_u64(!seed);
        let mut out = vec![body.clone()];
        for _ in 0..4 {
            let at = rng.gen_range(0..=body.len());
            let mut b = body.clone();
            match rng.gen_range(0..3) {
                0 => b.truncate(at),
                1 if at < b.len() => b[at] = b"\"\\{}[],:0tn \x01\xc3X"[rng.gen_range(0..15)],
                _ => {
                    let junk = [&b"x"[..], b",", b"}", b"]", b"\"", b"{\"k\":", b"[1,", b"\\u"];
                    b.splice(at..at, junk[rng.gen_range(0..junk.len())].iter().copied());
                }
            }
            out.push(b);
        }
        out
    }

    fn assert_same(body: &[u8]) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            parse_ingest(body),
            parse_ingest_dom(body),
            "body {:?}",
            String::from_utf8_lossy(body)
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn ingest_parse_matches_the_dom_oracle(seed in any::<u64>()) {
            for body in bodies(seed) {
                assert_same(&body)?;
            }
        }
    }

    #[test]
    fn ingest_parse_matches_the_dom_oracle_on_hand_picked_bodies() {
        for body in [
            "",
            "[]",
            "5",
            "{}",
            r#"{"votes":[],"sources":["a"],"facts":[{"name":"f"}]}"#,
            r#"{"votes":[{"source":"a","fact":"f","vote":"T"}],"sources":["b"]}"#,
            r#"{"sources":["a"],"sources":5}"#,
            r#"{"sources":5,"sources":["a"]}"#,
            r#"{"facts":[{"name":1,"name":"f"}]}"#,
            r#"{"facts":[{"name":"f","name":1,"label":true,"label":2}]}"#,
            r#"{"votes":[{"source":"a"}],"sources":[""]}"#,
            r#"{"sources":[""],"votes":[{"source":"a"}], "x": [1,}"#,
            r#"{"votes":[{"source":"","fact":"f","vote":"X"}]}"#,
            r#"{"votes":[{"vote":"F","fact":"f😀","source":"sé"}]}"#,
            r#"{"sources":["a"]}"#,
            r#"{"facts":[{"name":"f","label":nul}]}"#,
            r#"{"other":[[[{"deep":[1,{"k":null}]}]]],"sources":["a"]}"#,
        ] {
            assert_same(body.as_bytes()).unwrap();
        }
        assert_same(b"{\"sources\":[\"\xff\"]}").unwrap();
    }

    #[test]
    fn ingest_skips_deeply_nested_unknown_values_without_recursing() {
        let depth = 200_000;
        let body = format!(r#"{{"x":{}{},"sources":["a"]}}"#, "[".repeat(depth), "]".repeat(depth));
        let mutations = parse_ingest(body.as_bytes()).unwrap();
        assert_eq!(mutations, vec![Mutation::AddSource { name: "a".into() }]);
    }
}

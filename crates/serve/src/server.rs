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
//! Graceful shutdown (admin endpoint or [`ServerHandle::shutdown`]): the
//! shell stops accepting (its blocking accept is woken by a connection to
//! its own address), in-flight connections finish their current request,
//! the queue closes, and the epoch thread runs one final **full** drain
//! epoch before exiting — the published view then equals a one-shot batch
//! run over everything ever accepted.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corroborate_core::truth::Label;
use corroborate_core::vote::Vote;
use corroborate_obs::{Counter, Json, Observer, Span, TraceSnapshot};

use crate::cluster::{ClusterState, PrimaryStatus, ReplicaStatus};
use crate::delta::Mutation;
use crate::epoch::{EpochConfig, EpochEngine, EpochMode, EpochStats, Published, VerdictView};
use crate::http::{query_param, Request};
use crate::metrics::{ReplGauges, ServeMetrics};
use crate::queue::IngestQueue;
use crate::shell::{read_routes, Reply, Routes, Shell, ShellConfig, Shutdown};
use crate::ship::{ShipLog, TailResponse};
use crate::wal::{Wal, WalConfig};
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

/// Elapsed nanoseconds since `start`, saturating at `u64::MAX`.
fn saturating_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

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
            let (mut wal, recovery) = Wal::open_observed(dir, config.wal, metrics.observer())?;
            metrics.observer().add(Counter::WalReplayed, recovery.replayed);
            metrics.observer().add(Counter::SegmentsReplayed, recovery.segments);
            wal.attach_shipper(Arc::clone(&ship))?;
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

/// Parses the ingest body:
/// `{"sources": ["s", ...], "facts": [{"name": "f", "label": true|false|null}, ...],
///   "votes": [{"source": "s", "fact": "f", "vote": "T"|"F"}, ...]}`.
/// All three sections are optional; order of application is sources,
/// facts, votes.
fn parse_ingest(body: &[u8]) -> Result<Vec<Mutation>, String> {
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
                wal.compact_observed(engine.delta(), obs)?;
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
            // record with one CRC and one (pipelined) fsync.
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
    // Every tick, idle ones too: the last write's pipelined fsync must be
    // confirmed (so its frame ships to replicas), and a background snapshot
    // that finishes after the last write must land (advance `snapshot_seq`,
    // prune the segments it covers), without waiting for the next write.
    if let Some(wal) = wal {
        if let Some(nanos) = wal.poll_fsync_observed(obs)? {
            shared.metrics.note_fsync(nanos);
        }
        if wal.maybe_compact(engine.delta())? {
            obs.add(Counter::SnapshotsWritten, 1);
        }
    }
    Ok(())
}

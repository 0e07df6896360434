//! Read replicas: follow a primary's shipped WAL over HTTP and serve
//! read-only [`VerdictView`]s.
//!
//! A replica is three cooperating pieces:
//!
//! - [`ReplicaCore`] — the pure replication state machine. It re-journals
//!   every shipped batch through its own local [`Wal`] (the replica's log
//!   is write-ahead too, and lands on the exact batch boundaries the
//!   primary shipped), applies the mutations to an [`EpochEngine`], and
//!   runs the *same* epoch schedule as the primary's drain loop: one
//!   scheduling decision per shipped batch, rescore only when work is
//!   pending. Identical inputs through identical schedules is what makes
//!   the published fingerprints bit-identical to the primary's at every
//!   acked batch boundary.
//! - the fetch thread — a small HTTP client that tails
//!   `GET /wal/tail?from_seq=` on the primary, falls back to sealed
//!   segments (`GET /wal/segments`) when it is behind the live window,
//!   and resyncs from `GET /wal/snapshot` when it is behind the
//!   compaction floor (or finds itself on a different history). Once it
//!   has reached the primary's head it long-polls (`wait_ms`): the
//!   primary answers when the next frame lands or after at most
//!   [`TAIL_WAIT_CAP`], so an idle replica costs one parked request per
//!   cap rather than a poll every few milliseconds. It reports progress
//!   via `POST /cluster/heartbeat` at most once per
//!   [`HEARTBEAT_INTERVAL_NANOS`], timed on [`ServeMetrics::now_nanos`].
//! - the serve shell — the HTTP/1.1 shell (`shell.rs`) the primary runs
//!   too, here with a read-only route table (`/v1/facts/*`, `/v1/sources/*/trust`,
//!   `/healthz`, `/replica`, `/metrics`, `/metrics.json`); writes are
//!   answered `405` and pointed at the primary.
//!
//! Torn shipped data is handled by the same scanner recovery uses
//! ([`crate::wal::scan_frames`]): a truncated or corrupted stream decodes
//! to its valid prefix and the replica simply stops there — it can refuse
//! and refetch, but it can never journal (and therefore never serve) a
//! torn batch. A fetched snapshot must decode as one whole CRC-valid frame
//! in canonical order before the replica replaces its local history with
//! it; that one decode also gives the state the replica recovers into.
//!
//! This module sits inside the determinism and checked-arithmetic audit
//! scopes: no hash-ordered containers, no direct wall-clock reads (time
//! comes from [`ServeMetrics::now_nanos`], the observer layer's clock),
//! and all sequence/byte arithmetic spells out its overflow policy.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use corroborate_obs::{Counter, Json, Observer, Span};

use crate::cluster::ReplicaStatus;
use crate::delta::{DeltaDataset, Mutation};
use crate::epoch::{EpochConfig, EpochEngine, EpochMode, Published, VerdictView};
use crate::error::ServeError;
use crate::http::{read_response, write_request, Request};
use crate::metrics::ServeMetrics;
use crate::shell::{read_routes, Reply, Routes, Shell, ShellConfig, Shutdown};
use crate::ship::{ShipSegment, TAIL_WAIT_CAP};
use crate::wal::{replace_with_snapshot, scan_frames, ShippedBatch, Wal, WalConfig};
use crate::walfs::{FaultFs, StdFs, WalFs};

/// Least time between two heartbeats to the primary (125 ms), busy or
/// idle. `/cluster` therefore shows a replica's progress at most one
/// interval plus one [`TAIL_WAIT_CAP`] after it applied it.
pub const HEARTBEAT_INTERVAL_NANOS: u64 = 125_000_000;

/// Read timeout on accepted serve-shell connections; bounds how long a
/// worker can be parked on an idle keep-alive socket during drain.
const SHELL_READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Request body cap of the serve shell. No replica route reads a body;
/// the cap only bounds what a misdirected write may send before its `405`.
const SHELL_MAX_BODY_BYTES: usize = 1 << 20;

/// Configuration for [`start`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Address the replica serves reads on (`127.0.0.1:0` picks a port).
    pub addr: String,
    /// The primary's `host:port`.
    pub primary: String,
    /// Stable identifier reported in heartbeats and on `/replica`.
    pub id: String,
    /// Local WAL directory; `None` journals into an in-memory
    /// [`FaultFs`] (tests, ephemeral replicas).
    pub data_dir: Option<PathBuf>,
    /// Serve-shell worker threads.
    pub workers: usize,
    /// Back-off after a failed fetch, before the next try. A caught-up
    /// replica does not sleep between polls: it long-polls the primary.
    pub poll_interval: Duration,
    /// Socket read/write timeout for requests to the primary. A long poll
    /// asks the primary to wait at most half of it (and never more than
    /// [`TAIL_WAIT_CAP`]).
    pub request_timeout: Duration,
    /// Response body cap for fetches from the primary (must comfortably
    /// exceed the primary's segment size).
    pub max_fetch_bytes: usize,
    /// Local WAL tuning.
    pub wal: WalConfig,
    /// Epoch scheduling — must match the primary's for bit-identical
    /// intermediate fingerprints.
    pub epoch: EpochConfig,
    /// Trace ring capacity (0 disables tracing).
    pub trace_capacity: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            primary: String::new(),
            id: "replica-1".to_string(),
            data_dir: None,
            workers: 2,
            poll_interval: Duration::from_millis(5),
            request_timeout: Duration::from_secs(5),
            max_fetch_bytes: 64 << 20,
            wal: WalConfig::default(),
            epoch: EpochConfig::default(),
            trace_capacity: 0,
        }
    }
}

/// What one [`ReplicaCore::apply_shipped`] call did.
#[derive(Debug, Default)]
pub struct ShipApplied {
    /// Whole batches journalled and applied.
    pub batches: u64,
    /// Mutations inside those batches.
    pub mutations: u64,
    /// Batches skipped because the replica had already applied them
    /// (overlapping segment fetches).
    pub skipped: u64,
    /// Epochs published while applying.
    pub epochs: u64,
    /// Why the shipped bytes stopped decoding early, if they did. The
    /// valid prefix before the tear is applied; the tear itself never is.
    pub torn: Option<String>,
    /// The view published by the last epoch run, if any ran.
    pub view: Option<Arc<VerdictView>>,
}

/// The replication state machine: local write-ahead journal, epoch engine,
/// and the highest contiguously applied sequence number.
///
/// `ReplicaCore` is transport-agnostic — the HTTP fetch thread, the chaos
/// tests, and the property suite all drive it with raw shipped bytes.
#[derive(Debug)]
pub struct ReplicaCore {
    wal: Wal,
    engine: EpochEngine,
    applied_seq: u64,
}

impl ReplicaCore {
    /// Recovers replica state from its local WAL directory (snapshot plus
    /// surviving batches — exactly the primary's recovery path) and
    /// publishes an initial full view, mirroring the primary's startup.
    ///
    /// # Errors
    /// I/O failures or local log corruption.
    pub fn recover<O: Observer>(
        dir: &Path,
        fs: Arc<dyn WalFs>,
        wal_config: WalConfig,
        epoch_config: EpochConfig,
        obs: &O,
    ) -> Result<(Self, Arc<VerdictView>), ServeError> {
        Self::recover_from(dir, fs, wal_config, epoch_config, obs, None)
    }

    /// [`Self::recover`], given the snapshot a resync has just installed
    /// in `dir` as its decoded seq and state (see [`Wal::open_from`]).
    fn recover_from<O: Observer>(
        dir: &Path,
        fs: Arc<dyn WalFs>,
        wal_config: WalConfig,
        epoch_config: EpochConfig,
        obs: &O,
        installed: Option<(u64, DeltaDataset)>,
    ) -> Result<(Self, Arc<VerdictView>), ServeError> {
        let (wal, recovery) = Wal::open_from(dir, wal_config, fs, obs, installed, None)?;
        let applied_seq = recovery.next_seq.saturating_sub(1);
        let mut engine = EpochEngine::from_recovered(recovery.dataset, epoch_config)?;
        let (view, _) = engine.run_epoch(EpochMode::Full)?;
        Ok((Self { wal, engine, applied_seq }, view))
    }

    /// Highest WAL sequence journalled and applied.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Epochs the local engine has published.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Journals and applies a shipped byte stream (concatenated CRC'd
    /// batch frames — a tail response or a sealed segment), running the
    /// primary's epoch schedule after each batch: rescore and publish
    /// only when the batch left work pending.
    ///
    /// Batches at or below [`Self::applied_seq`] are skipped (segment
    /// fetches overlap the already-applied prefix); the first new batch
    /// must start exactly at `applied_seq + 1` — a gap means this stream
    /// belongs to a different history and the caller must resync. The new
    /// batches before any gap are journalled first, all at once (one
    /// write and one fsync per local segment they land in, each batch
    /// still its own frame), and only then applied.
    ///
    /// # Errors
    /// [`ServeError::WalCorrupt`] on a sequence gap (after applying the
    /// batches before it), or when the local journal does not resume at
    /// `applied_seq + 1` (an earlier append failed part-way; nothing is
    /// written); I/O or journal failures from the local WAL.
    pub fn apply_shipped<O: Observer>(
        &mut self,
        bytes: &[u8],
        obs: &O,
    ) -> Result<ShipApplied, ServeError> {
        let scan = scan_frames(bytes);
        let mut applied = ShipApplied { torn: scan.torn, ..ShipApplied::default() };
        let mut fresh: Vec<&ShippedBatch> = Vec::new();
        let mut gap = None;
        let mut expected = self.applied_seq.saturating_add(1);
        for batch in &scan.batches {
            if batch.last_seq() < expected {
                applied.skipped = applied.skipped.saturating_add(1);
                continue;
            }
            if batch.first_seq != expected {
                gap = Some(ServeError::WalCorrupt {
                    message: format!(
                        "shipped stream gap: batch starts at seq {} but the replica \
                         expects {expected}",
                        batch.first_seq
                    ),
                });
                break;
            }
            fresh.push(batch);
            expected = batch.last_seq().saturating_add(1);
        }

        // Journal first (write-ahead), then apply. The journal must resume
        // where the engine stands: the fresh batches run on from there
        // without a gap, so each lands on its shipped boundary and the
        // replica's own recovery reproduces the primary's batch
        // partitioning. A journal ahead of the engine (a group whose append
        // failed after some of its frames were written) refuses the stream
        // before writing anything, and the caller resyncs.
        if let Some(first) = fresh.first() {
            if self.wal.next_seq() != first.first_seq {
                return Err(ServeError::WalCorrupt {
                    message: format!(
                        "replica journal desync: the local journal resumes at seq {} but \
                         the shipped stream at {}",
                        self.wal.next_seq(),
                        first.first_seq
                    ),
                });
            }
        }
        let mutations: Vec<&[Mutation]> = fresh.iter().map(|b| b.mutations.as_slice()).collect();
        self.wal.append_batches_observed(&mutations, obs)?;
        for batch in fresh {
            for mutation in &batch.mutations {
                // Mirrors the primary's drain loop: a mutation that slips
                // validation is dropped, not fatal.
                let _ = self.engine.apply(mutation);
            }
            self.applied_seq = batch.last_seq();
            applied.batches = applied.batches.saturating_add(1);
            applied.mutations = applied.mutations.saturating_add(batch.mutations.len() as u64);
            if self.engine.pending() > 0 {
                let (view, _) = self.engine.run_epoch(EpochMode::Auto)?;
                applied.epochs = applied.epochs.saturating_add(1);
                applied.view = Some(view);
            }
        }
        match gap {
            Some(gap) => Err(gap),
            None => Ok(applied),
        }
    }

    /// Runs one epoch explicitly (the drain path uses `Full`, mirroring
    /// the primary's shutdown drain).
    ///
    /// # Errors
    /// Engine evaluation failures.
    pub fn publish_epoch(&mut self, mode: EpochMode) -> Result<Arc<VerdictView>, ServeError> {
        let (view, _) = self.engine.run_epoch(mode)?;
        Ok(view)
    }

    /// Synchronously flushes the local journal.
    ///
    /// # Errors
    /// Propagated fsync failures.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        self.wal.flush().map(|_| ())
    }

    /// Snapshot-compacts the local journal when due.
    ///
    /// # Errors
    /// Propagated I/O failures.
    pub fn maybe_compact(&mut self) -> Result<bool, ServeError> {
        self.wal.maybe_compact(self.engine.delta())
    }
}

/// Minimal keep-alive HTTP/1.1 client for the primary: one connection,
/// reconnect on any error.
struct PrimaryClient {
    addr: String,
    timeout: Duration,
    max_body: usize,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    /// Where the open connection is registered, so that
    /// [`ReplicaHandle::shutdown`] can cut it.
    shared: Arc<ReplicaShared>,
}

/// A fetched response, decoupled from the transport error type.
struct Fetched {
    status: u16,
    body: Vec<u8>,
}

impl PrimaryClient {
    fn new(addr: String, timeout: Duration, max_body: usize, shared: Arc<ReplicaShared>) -> Self {
        Self { addr, timeout, max_body, conn: None, shared }
    }

    /// Drops the cached connection; the next request reconnects.
    fn reset(&mut self) {
        self.conn = None;
        self.shared.update_progress(|p| p.fetch_conn = None);
    }

    /// Opens and registers a connection unless one is cached.
    fn connect(&mut self) -> Result<(), String> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_read_timeout(Some(self.timeout)).map_err(|e| format!("timeout: {e}"))?;
        stream.set_write_timeout(Some(self.timeout)).map_err(|e| format!("timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let registered = Arc::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        self.shared.update_progress(|p| p.fetch_conn = Some(registered));
        self.conn = Some((reader, stream));
        Ok(())
    }

    /// One request/response over the cached connection (reconnecting
    /// first if needed); any transport error tears the connection down.
    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Fetched, String> {
        self.connect()?;
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.reset();
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Fetched, String> {
        let Some((reader, writer)) = self.conn.as_mut() else {
            return Err("not connected".to_string());
        };
        write_request(writer, method, path, body, true)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let response =
            read_response(reader, self.max_body).map_err(|e| format!("{method} {path}: {e}"))?;
        Ok(Fetched { status: response.status, body: response.body })
    }
}

/// Mutable progress snapshot shared between the fetch thread and the
/// serve shell. Epoch and fingerprint come from the published view.
#[derive(Debug, Clone, Default)]
struct Progress {
    applied_seq: u64,
    /// Reached the primary's head since start or the last resync (see
    /// [`ReplicaHandle::caught_up`]).
    caught_up: bool,
    resyncs: u64,
    last_error: Option<String>,
    /// The fetch thread's open connection to the primary, kept under this
    /// lock so [`ReplicaHandle::shutdown`] can cut a parked long poll.
    fetch_conn: Option<Arc<TcpStream>>,
}

/// State shared by the fetch thread and the serve-shell workers.
struct ReplicaShared {
    id: String,
    primary: String,
    view: Published<VerdictView>,
    metrics: ServeMetrics,
    progress: Mutex<Progress>,
    shutdown: Shutdown,
}

impl Routes for ReplicaShared {
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

impl ReplicaShared {
    fn progress(&self) -> Progress {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn update_progress(&self, f: impl FnOnce(&mut Progress)) {
        let mut guard = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard);
    }

    fn caught_up(&self) -> bool {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner).caught_up
    }
}

/// The fetch thread: owns the [`ReplicaCore`] and the primary connection.
struct Fetcher {
    core: ReplicaCore,
    client: PrimaryClient,
    shared: Arc<ReplicaShared>,
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    wal_config: WalConfig,
    epoch_config: EpochConfig,
    poll_interval: Duration,
    /// `wait_ms` of a long poll: [`TAIL_WAIT_CAP`], or half the request
    /// timeout if that is shorter.
    tail_wait_ms: u128,
    serve_addr: String,
    /// `now_nanos` reading at or after which the next heartbeat is due.
    next_heartbeat_nanos: u64,
}

impl Fetcher {
    fn run(mut self) {
        while !self.shared.shutdown.requested() {
            match self.step() {
                Ok(()) => {
                    let now = self.shared.metrics.now_nanos();
                    if now >= self.next_heartbeat_nanos {
                        self.next_heartbeat_nanos = now.saturating_add(HEARTBEAT_INTERVAL_NANOS);
                        self.send_heartbeat();
                    }
                }
                // The handle cut the connection to stop a long poll.
                Err(_) if self.shared.shutdown.requested() => {}
                Err(message) => {
                    self.record_error(message);
                    self.client.reset();
                    thread::sleep(self.poll_interval);
                }
            }
        }
        self.finish();
    }

    /// One poll: tail from the next needed seq; fall back to segment
    /// catch-up on `410 Gone`. Once the replica has reached the head, the
    /// poll parks at the primary until the next frame lands; the first
    /// poll after start or a resync answers at once, so reaching the head
    /// is never delayed by a wait.
    fn step(&mut self) -> Result<(), String> {
        let from = self.core.applied_seq().saturating_add(1);
        let path = if self.shared.caught_up() {
            // Register the connection before the last look at the flag: a
            // shutdown requested earlier is seen here, a later one cuts
            // the connection the poll parks on.
            self.client.connect()?;
            if self.shared.shutdown.requested() {
                return Ok(());
            }
            format!("/wal/tail?from_seq={from}&wait_ms={}", self.tail_wait_ms)
        } else {
            format!("/wal/tail?from_seq={from}")
        };
        let response = self.client.request("GET", &path, &[])?;
        match response.status {
            200 if response.body.is_empty() => {
                self.mark_caught_up();
                Ok(())
            }
            200 => self.apply_bytes(&response.body),
            410 => self.catch_up(),
            404 => Err("primary has no replication feed (started without data_dir)".to_string()),
            status => Err(format!("GET /wal/tail: unexpected status {status}")),
        }
    }

    /// Journals, applies, and publishes one shipped byte stream. A
    /// sequence gap (stream from a different history) triggers a full
    /// snapshot resync instead of failing.
    fn apply_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        let obs = self.shared.metrics.observer();
        let start = self.shared.metrics.now_nanos();
        obs.span_begin(Span::ReplicaApply, bytes.len() as u64);
        let outcome = self.core.apply_shipped(bytes, obs);
        obs.span(Span::ReplicaApply, self.shared.metrics.now_nanos().saturating_sub(start));
        let applied = match outcome {
            Ok(applied) => {
                obs.span_end(Span::ReplicaApply, applied.batches);
                applied
            }
            Err(ServeError::WalCorrupt { message }) => {
                obs.span_end(Span::ReplicaApply, 0);
                self.record_error(format!("shipped stream rejected: {message}"));
                return self.full_resync();
            }
            Err(e) => {
                obs.span_end(Span::ReplicaApply, 0);
                return Err(format!("apply failed: {e}"));
            }
        };
        obs.add(Counter::ReplBatchesApplied, applied.batches);
        obs.add(Counter::ReplMutationsApplied, applied.mutations);
        if let Some(torn) = &applied.torn {
            // The valid prefix is applied; the torn suffix is refetched
            // on the next poll over a fresh connection.
            self.record_error(format!("torn shipped bytes (prefix applied): {torn}"));
            self.client.reset();
        }
        if let Some(view) = &applied.view {
            self.publish(Arc::clone(view));
        } else if applied.batches > 0 {
            // Batches applied but no epoch ran (nothing pending — e.g.
            // pure source registrations); progress still advanced.
            let applied_seq = self.core.applied_seq();
            self.shared.update_progress(|p| p.applied_seq = applied_seq);
        }
        if applied.batches > 0 {
            let _ = self.core.maybe_compact();
        }
        Ok(())
    }

    /// The replica is behind the primary's live tail window: walk the
    /// sealed-segment index forward from `applied_seq`, or resync from
    /// the snapshot when even the segments no longer reach back far
    /// enough (or the histories have diverged).
    fn catch_up(&mut self) -> Result<(), String> {
        let response = self.client.request("GET", "/wal/segments", &[])?;
        if response.status != 200 {
            return Err(format!("GET /wal/segments: unexpected status {}", response.status));
        }
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| "segment index: not UTF-8".to_string())?;
        let root = Json::parse(text).map_err(|e| format!("segment index: {e}"))?;
        let field = |key: &str| -> Result<u64, String> {
            root.get(key)
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("segment index: missing {key}"))
        };
        let next_seq = field("next_seq")?;
        let tail_floor_seq = field("tail_floor_seq")?;
        if next_seq <= self.core.applied_seq() {
            // The replica claims seqs the primary has never durably
            // written: it followed a different (pre-crash) history.
            self.record_error("replica is ahead of the primary's history".to_string());
            return self.full_resync();
        }
        let mut segments: Vec<ShipSegment> = root
            .get("segments")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(ShipSegment::from_json)
            .collect();
        segments.sort_unstable_by_key(|s| (s.first_seq, s.last_seq, s.id));
        let from = self.core.applied_seq().saturating_add(1);
        let available_from = segments.first().map_or(tail_floor_seq, |s| s.first_seq);
        if from < available_from {
            // Everything between the replica and the oldest shipped
            // segment lives only in the primary's snapshot now.
            return self.full_resync();
        }
        for ShipSegment { id, first_seq, last_seq, .. } in segments {
            if self.shared.shutdown.requested() {
                return Ok(());
            }
            let from = self.core.applied_seq().saturating_add(1);
            if last_seq < from {
                continue;
            }
            if first_seq > from {
                // A hole between sealed segments: compaction raced us;
                // restart catch-up from the fresh index next poll.
                return Ok(());
            }
            let fetched = self.client.request("GET", &format!("/wal/segments?id={id}"), &[])?;
            match fetched.status {
                200 => self.apply_bytes(&fetched.body)?,
                // Compacted between index and fetch; re-read the index.
                404 => return Ok(()),
                status => {
                    return Err(format!("GET /wal/segments?id={id}: unexpected status {status}"))
                }
            }
        }
        Ok(())
    }

    /// Abandons local history: replace the WAL directory with the
    /// primary's snapshot (or with nothing, if it has none yet) and
    /// recover from scratch. The snapshot is decoded once: a snapshot that
    /// fails its decode, CRC or order check is refused before anything
    /// local is touched, and the decoded state seeds the recovery.
    fn full_resync(&mut self) -> Result<(), String> {
        let fetched = self.client.request("GET", "/wal/snapshot", &[])?;
        let snapshot =
            (fetched.status == 200 && !fetched.body.is_empty()).then_some(fetched.body.as_slice());
        let installed = replace_with_snapshot(self.fs.as_ref(), &self.dir, snapshot)
            .map_err(|e| format!("resync: {e}"))?;
        let obs = self.shared.metrics.observer();
        let (core, view) = ReplicaCore::recover_from(
            &self.dir,
            Arc::clone(&self.fs),
            self.wal_config,
            self.epoch_config,
            obs,
            installed,
        )
        .map_err(|e| format!("resync recovery: {e}"))?;
        self.core = core;
        self.shared.update_progress(|p| {
            p.resyncs = p.resyncs.saturating_add(1);
            p.caught_up = false;
        });
        self.publish(view);
        Ok(())
    }

    /// Publishes `view`, then records the progress it covers: a reader
    /// that sees `applied_seq` reach N also sees a view covering N.
    fn publish(&self, view: Arc<VerdictView>) {
        self.shared.view.publish(view);
        self.shared.metrics.note_epoch_published();
        let applied_seq = self.core.applied_seq();
        self.shared.update_progress(|p| {
            p.applied_seq = applied_seq;
            p.last_error = None;
        });
    }

    fn mark_caught_up(&self) {
        let applied_seq = self.core.applied_seq();
        self.shared.update_progress(|p| {
            p.applied_seq = applied_seq;
            p.caught_up = true;
        });
    }

    fn record_error(&self, message: String) {
        self.shared.update_progress(|p| p.last_error = Some(message));
    }

    /// Best-effort progress report to the primary's control plane. This
    /// is where a replica's view pays for its fingerprint: at most once
    /// per view, and only for views a heartbeat (or `/replica`) reads.
    fn send_heartbeat(&mut self) {
        let view = self.shared.view.get();
        let status = ReplicaStatus {
            id: self.shared.id.clone(),
            addr: self.serve_addr.clone(),
            applied_seq: self.shared.progress().applied_seq,
            epoch: view.epoch(),
            fingerprint: view.fingerprint(),
            heard_nanos: 0,
        };
        let body = status.to_heartbeat_json().to_json();
        if self.client.request("POST", "/cluster/heartbeat", body.as_bytes()).is_ok() {
            self.shared.metrics.observer().add(Counter::ReplHeartbeats, 1);
        }
    }

    /// Drain: mirror the primary's shutdown drain with one final full
    /// epoch, then flush the local journal.
    fn finish(mut self) {
        if let Ok(view) = self.core.publish_epoch(EpochMode::Full) {
            self.publish(view);
        }
        let _ = self.core.flush();
        self.send_heartbeat();
        self.client.reset();
    }
}

/// Handle to a running replica: the bound address, the live view, and
/// shutdown.
///
/// Dropping the handle without [`shutdown`](Self::shutdown) stops the
/// serve shell (releasing its listener and joining its workers) and tells
/// the fetch thread to exit after its current step.
pub struct ReplicaHandle {
    shared: Arc<ReplicaShared>,
    fetcher: Option<thread::JoinHandle<()>>,
    shell: Shell,
}

impl ReplicaHandle {
    /// The bound serve address.
    pub fn addr(&self) -> SocketAddr {
        self.shell.addr()
    }

    /// The currently published view.
    pub fn view(&self) -> Arc<VerdictView> {
        self.shared.view.get()
    }

    /// Highest WAL sequence journalled and applied.
    pub fn applied_seq(&self) -> u64 {
        self.shared.progress().applied_seq
    }

    /// Whether the replica has reached the primary's head since it
    /// started or since its last snapshot resync. A tail poll that finds
    /// nothing new sets it; only a resync clears it. It does not fall back
    /// when the primary takes new writes: [`Self::applied_seq`] tells how
    /// far the replica has got. While it is set, tail polls long-poll.
    pub fn caught_up(&self) -> bool {
        self.shared.caught_up()
    }

    /// Snapshot resyncs performed since start.
    pub fn resyncs(&self) -> u64 {
        self.shared.progress().resyncs
    }

    /// The most recent fetch/apply error, if the replica is degraded.
    pub fn last_error(&self) -> Option<String> {
        self.shared.progress().last_error
    }

    /// The `/replica` status document.
    pub fn status_json(&self) -> Json {
        status_doc(&self.shared)
    }

    /// Drains the replica: one final full epoch, journal flush, worker
    /// join. Returns the final published view. The fetch thread stops
    /// after its current step; a long poll parked at the primary is cut
    /// short by shutting its connection down.
    ///
    /// # Errors
    /// Currently infallible; the signature reserves room for surfacing
    /// drain failures.
    pub fn shutdown(mut self) -> Result<Arc<VerdictView>, ServeError> {
        self.shared.shutdown.request();
        let conn =
            self.shared.progress.lock().unwrap_or_else(PoisonError::into_inner).fetch_conn.take();
        if let Some(conn) = conn {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.fetcher.take() {
            let _ = handle.join();
        }
        self.shell.stop();
        Ok(self.shared.view.get())
    }
}

impl std::fmt::Debug for ReplicaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHandle").field("addr", &self.addr()).finish_non_exhaustive()
    }
}

/// Starts a replica: recover local state, spawn the fetch thread against
/// `config.primary`, and serve read-only routes on `config.addr`.
///
/// # Errors
/// Local recovery failures or socket bind errors. (An unreachable primary
/// is *not* a start error — the fetch thread keeps retrying and reports
/// through `/replica`.)
pub fn start(config: ReplicaConfig) -> Result<ReplicaHandle, ServeError> {
    let metrics = ServeMetrics::with_trace(config.trace_capacity);
    let (fs, dir): (Arc<dyn WalFs>, PathBuf) = match &config.data_dir {
        Some(dir) => (Arc::new(StdFs), dir.clone()),
        None => (Arc::new(FaultFs::new()), PathBuf::from("/replica")),
    };
    let (core, view) =
        ReplicaCore::recover(&dir, Arc::clone(&fs), config.wal, config.epoch, metrics.observer())?;
    let listener = TcpListener::bind(&config.addr)?;

    let shared = Arc::new(ReplicaShared {
        id: config.id.clone(),
        primary: config.primary.clone(),
        view: Published::new(VerdictView::empty(&config.epoch)?),
        metrics,
        progress: Mutex::new(Progress { applied_seq: core.applied_seq(), ..Progress::default() }),
        shutdown: Shutdown::default(),
    });
    shared.view.publish(view);

    let shell = Shell::start(
        listener,
        Arc::clone(&shared) as Arc<dyn Routes>,
        ShellConfig {
            workers: config.workers,
            read_timeout: SHELL_READ_TIMEOUT,
            max_body_bytes: SHELL_MAX_BODY_BYTES,
            name: "replica",
        },
    )?;

    let fetcher = Fetcher {
        core,
        client: PrimaryClient::new(
            config.primary,
            config.request_timeout,
            config.max_fetch_bytes,
            Arc::clone(&shared),
        ),
        shared: Arc::clone(&shared),
        fs,
        dir,
        wal_config: config.wal,
        epoch_config: config.epoch,
        poll_interval: config.poll_interval,
        tail_wait_ms: TAIL_WAIT_CAP.min(config.request_timeout / 2).as_millis(),
        serve_addr: shell.addr().to_string(),
        next_heartbeat_nanos: 0,
    };
    let fetch_handle =
        thread::Builder::new().name("replica-fetch".to_string()).spawn(move || fetcher.run())?;

    Ok(ReplicaHandle { shared, fetcher: Some(fetch_handle), shell })
}

/// The replica's read-only route table; writes are pointed back at the
/// primary.
fn route(shared: &ReplicaShared, request: &Request) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let progress = shared.progress();
            let mut doc = Json::object();
            doc.insert("status", if shared.shutdown.requested() { "draining" } else { "ok" });
            doc.insert("role", "replica");
            doc.insert("applied_seq", progress.applied_seq);
            doc.insert("epoch", shared.view.get().epoch());
            doc.insert("caught_up", progress.caught_up);
            Reply::json(200, &doc)
        }
        ("GET", "/replica") => Reply::json(200, &status_doc(shared)),
        ("GET", "/metrics.json") => {
            Reply::json(200, &shared.metrics.to_json(shared.view.get().epoch(), 0))
        }
        ("GET", "/metrics") => {
            Reply::prometheus(shared.metrics.to_prometheus(shared.view.get().epoch(), 0))
        }
        ("POST", "/v1/votes") => {
            Reply::error(405, &format!("replica is read-only; write to {}", shared.primary))
        }
        ("POST", "/v1/admin/shutdown") => {
            shared.shutdown.request();
            let mut doc = Json::object();
            doc.insert("draining", true);
            Reply::json(202, &doc)
        }
        _ => read_routes(&shared.view, request),
    }
}

/// Renders the `/replica` status document. Progress is read before the
/// view, so the view covers at least `applied_seq`.
fn status_doc(shared: &ReplicaShared) -> Json {
    let progress = shared.progress();
    let view = shared.view.get();
    let mut doc = Json::object();
    doc.insert("report", "corroborate_replica");
    doc.insert("schema_version", 1u64);
    doc.insert("id", shared.id.as_str());
    doc.insert("primary", shared.primary.as_str());
    doc.insert("applied_seq", progress.applied_seq);
    doc.insert("epoch", view.epoch());
    doc.insert("fingerprint", format!("{:016x}", view.fingerprint()));
    doc.insert("caught_up", progress.caught_up);
    doc.insert("resyncs", progress.resyncs);
    match progress.last_error {
        Some(message) => doc.insert("last_error", message),
        None => doc.insert("last_error", Json::Null),
    };
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Mutation;
    use crate::ship::ShipLog;
    use corroborate_core::prelude::Vote;
    use corroborate_obs::NOOP;

    fn seed_mutations(n: usize) -> Vec<Mutation> {
        let mut out = vec![
            Mutation::AddSource { name: "s1".into() },
            Mutation::AddSource { name: "s2".into() },
            Mutation::AddFact { name: "f1".into(), label: None },
        ];
        for i in 0..n {
            out.push(Mutation::Cast {
                source: if i % 2 == 0 { "s1".into() } else { "s2".into() },
                fact: "f1".into(),
                vote: if i % 3 == 0 { Vote::False } else { Vote::True },
            });
        }
        out
    }

    /// A primary-side WAL with an attached shipper, for generating real
    /// shipped bytes.
    fn primary_with_ship(batches: &[Vec<Mutation>]) -> (Wal, Arc<ShipLog>, Arc<FaultFs>) {
        let fs = Arc::new(FaultFs::new());
        let (mut wal, _) = Wal::open_with(
            Path::new("/primary"),
            WalConfig::default(),
            Arc::<FaultFs>::clone(&fs) as Arc<dyn WalFs>,
            &NOOP,
        )
        .unwrap();
        let ship = Arc::new(ShipLog::new(1 << 20));
        wal.attach_shipper(Arc::clone(&ship)).unwrap();
        for batch in batches {
            wal.append_batch_observed(batch, &NOOP).unwrap();
        }
        (wal, ship, fs)
    }

    fn tail_bytes(ship: &ShipLog, from: u64) -> Vec<u8> {
        match ship.tail_since(from, u64::MAX) {
            crate::ship::TailResponse::Frames { bytes, .. } => bytes,
            other => panic!("expected frames from seq {from}, got {other:?}"),
        }
    }

    #[test]
    fn replica_core_applies_shipped_tail_and_matches_fingerprints() {
        let muts = seed_mutations(6);
        let batches: Vec<Vec<Mutation>> = muts.chunks(3).map(|c| c.to_vec()).collect();
        let (_wal, ship, _fs) = primary_with_ship(&batches);

        let fs: Arc<dyn WalFs> = Arc::new(FaultFs::new());
        let (mut core, _) = ReplicaCore::recover(
            Path::new("/r"),
            Arc::clone(&fs),
            WalConfig::default(),
            EpochConfig::default(),
            &NOOP,
        )
        .unwrap();
        let bytes = tail_bytes(&ship, 1);
        let applied = core.apply_shipped(&bytes, &NOOP).unwrap();
        assert_eq!(applied.batches, batches.len() as u64);
        assert_eq!(applied.mutations, muts.len() as u64);
        assert_eq!(core.applied_seq(), muts.len() as u64);
        assert!(applied.torn.is_none());

        // Reference: the same mutations through a fresh engine.
        let mut reference = EpochEngine::new(EpochConfig::default()).unwrap();
        for m in &muts {
            reference.apply(m).unwrap();
        }
        let (want, _) = reference.run_epoch(EpochMode::Auto).unwrap();
        let got = applied.view.expect("an epoch should have published");
        assert_eq!(got.fingerprint(), want.fingerprint());
    }

    #[test]
    fn a_caught_up_stream_is_journalled_with_one_fsync() {
        let muts = seed_mutations(45);
        let batches: Vec<Vec<Mutation>> = muts.chunks(3).map(|c| c.to_vec()).collect();
        let (_wal, ship, primary_fs) = primary_with_ship(&batches);
        let fs = Arc::new(FaultFs::new());
        let dir = Path::new("/r");
        let (mut core, _) = ReplicaCore::recover(
            dir,
            Arc::<FaultFs>::clone(&fs) as Arc<dyn WalFs>,
            WalConfig { fsync: true, ..WalConfig::default() },
            EpochConfig::default(),
            &NOOP,
        )
        .unwrap();
        let segment = crate::wal::seg_path(dir, 1);
        let synced_before = fs.syncs(&segment);

        let applied = core.apply_shipped(&tail_bytes(&ship, 1), &NOOP).unwrap();
        assert_eq!(applied.batches, batches.len() as u64);
        assert_eq!(fs.syncs(&segment) - synced_before, 1, "one fsync for the whole stream");
        // Each batch is still its own frame: the journal holds the
        // primary's bytes.
        let primary_segment = crate::wal::seg_path(Path::new("/primary"), 1);
        assert_eq!(fs.dump(&segment), primary_fs.dump(&primary_segment));
        // And each batch still gets its own scheduling decision.
        let mut reference = EpochEngine::new(EpochConfig::default()).unwrap();
        let mut epochs = 0;
        for batch in &batches {
            for m in batch {
                reference.apply(m).unwrap();
            }
            if reference.pending() > 0 {
                reference.run_epoch(EpochMode::Auto).unwrap();
                epochs += 1;
            }
        }
        assert_eq!(applied.epochs, epochs);
        let (want, _) = reference.run_epoch(EpochMode::Full).unwrap();
        let got = core.publish_epoch(EpochMode::Full).unwrap();
        assert_eq!(got.fingerprint(), want.fingerprint());
    }

    #[test]
    fn a_stream_whose_append_failed_in_its_second_segment_is_refused_unwritten() {
        let muts = seed_mutations(45);
        let total = muts.len() as u64;
        let batches: Vec<Vec<Mutation>> = muts.chunks(3).map(|c| c.to_vec()).collect();
        let (_wal, ship, primary_fs) = primary_with_ship(&batches);
        let stream = tail_bytes(&ship, 1);
        let shipped = primary_fs.len(&crate::wal::seg_path(Path::new("/primary"), 1)).unwrap();
        let dir = Path::new("/r");
        let config = WalConfig {
            fsync: true,
            segment_bytes: 2 * shipped as u64 / 3,
            ..WalConfig::default()
        };
        let boot = |fs: &Arc<FaultFs>| {
            let fs = Arc::<FaultFs>::clone(fs) as Arc<dyn WalFs>;
            ReplicaCore::recover(dir, fs, config, EpochConfig::default(), &NOOP).unwrap().0
        };
        let (seg1, seg2) = (crate::wal::seg_path(dir, 1), crate::wal::seg_path(dir, 2));
        let manifest = dir.join(crate::wal::MANIFEST_FILE);

        // A clean run: the stream fills segment 1, seals it and ends in
        // segment 2.
        let clean = Arc::new(FaultFs::new());
        let mut core = boot(&clean);
        core.apply_shipped(&stream, &NOOP).unwrap();
        assert!(clean.len(&seg2).is_some() && clean.len(&crate::wal::seg_path(dir, 3)).is_none());
        let sealed_bytes = (clean.len(&seg1).unwrap() + clean.len(&manifest).unwrap()) as u64;
        let mut reference = EpochEngine::new(EpochConfig::default()).unwrap();
        for m in &muts {
            reference.apply(m).unwrap();
        }
        let (want, _) = reference.run_epoch(EpochMode::Full).unwrap();

        // The write to segment 2 tears, or its fsync (the group's third:
        // segment 1's, the manifest's at the seal, then segment 2's) fails
        // with the frames left in place.
        for torn in [true, false] {
            let fs = Arc::new(FaultFs::new());
            let mut core = boot(&fs);
            if torn {
                fs.set_crash_after_write_bytes(sealed_bytes + 5);
            } else {
                fs.fail_fsync(3, false);
            }
            assert!(core.apply_shipped(&stream, &NOOP).is_err());
            assert_eq!(core.applied_seq(), 0, "nothing reached the engine");
            fs.reset_faults();

            // The journal is now ahead of the engine. The retry is refused
            // before it writes: journalling the batches again would number
            // them past the primary's.
            let journalled = (fs.dump(&seg1), fs.dump(&seg2));
            let retry = core.apply_shipped(&stream, &NOOP);
            assert!(matches!(retry, Err(ServeError::WalCorrupt { .. })), "torn {torn}: {retry:?}");
            assert_eq!((fs.dump(&seg1), fs.dump(&seg2)), journalled, "torn {torn}: a write");

            // A restart recovers batches under the primary's numbers only,
            // and tails on from there to the primary's state.
            drop(core);
            let mut core = boot(&fs);
            let resumed = core.applied_seq();
            assert!(resumed > 0 && resumed <= total, "torn {torn}: resumed at {resumed}");
            if resumed < total {
                core.apply_shipped(&tail_bytes(&ship, resumed + 1), &NOOP).unwrap();
            }
            assert_eq!(core.applied_seq(), total);
            let got = core.publish_epoch(EpochMode::Full).unwrap();
            assert_eq!(got.fingerprint(), want.fingerprint(), "torn {torn}");
        }
    }

    #[test]
    fn duplicate_batches_are_skipped_and_gaps_are_rejected() {
        let muts = seed_mutations(4);
        let batches: Vec<Vec<Mutation>> = muts.chunks(2).map(|c| c.to_vec()).collect();
        let (_wal, ship, _fs) = primary_with_ship(&batches);
        let fs: Arc<dyn WalFs> = Arc::new(FaultFs::new());
        let (mut core, _) = ReplicaCore::recover(
            Path::new("/r"),
            Arc::clone(&fs),
            WalConfig::default(),
            EpochConfig::default(),
            &NOOP,
        )
        .unwrap();
        let all = tail_bytes(&ship, 1);
        core.apply_shipped(&all, &NOOP).unwrap();
        // Replay of the same stream: everything skips.
        let again = core.apply_shipped(&all, &NOOP).unwrap();
        assert_eq!(again.batches, 0);
        assert_eq!(again.skipped as usize, batches.len());

        // A gap (stream starting past applied+1) must be refused.
        let (_w2, ship2, _f2) = primary_with_ship(&[
            seed_mutations(0),
            vec![Mutation::AddFact { name: "f9".into(), label: None }],
        ]);
        let late = tail_bytes(&ship2, 4);
        let (mut fresh, _) = ReplicaCore::recover(
            Path::new("/r2"),
            Arc::new(FaultFs::new()),
            WalConfig::default(),
            EpochConfig::default(),
            &NOOP,
        )
        .unwrap();
        let err = fresh.apply_shipped(&late, &NOOP).unwrap_err();
        assert!(matches!(err, ServeError::WalCorrupt { .. }));
    }

    #[test]
    fn torn_shipped_bytes_apply_only_the_valid_prefix() {
        let muts = seed_mutations(4);
        let batches: Vec<Vec<Mutation>> = muts.chunks(2).map(|c| c.to_vec()).collect();
        let (_wal, ship, _fs) = primary_with_ship(&batches);
        let mut bytes = tail_bytes(&ship, 1);
        let cut = bytes.len() - 5;
        bytes.truncate(cut);

        let (mut core, _) = ReplicaCore::recover(
            Path::new("/r"),
            Arc::new(FaultFs::new()),
            WalConfig::default(),
            EpochConfig::default(),
            &NOOP,
        )
        .unwrap();
        let applied = core.apply_shipped(&bytes, &NOOP).unwrap();
        assert!(applied.torn.is_some(), "truncation must be reported");
        assert!(applied.batches < batches.len() as u64);
        // The applied prefix is a clean batch boundary.
        assert!(core.applied_seq() < muts.len() as u64);
    }
}

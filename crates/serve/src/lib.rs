//! **corroborate-serve** — the online corroboration service.
//!
//! Turns the batch IncEstimate engine into a long-running service:
//!
//! - [`delta`] — [`DeltaDataset`], a streaming, name-keyed accumulator of
//!   vote/source/fact mutations with incremental signature maintenance and
//!   dirty tracking; materialises batch-identical [`Dataset`] snapshots.
//! - `cow` (private) — the chunked copy-on-write column and hash-sharded
//!   copy-on-write name map that make a [`DeltaDataset`] clone cheap.
//! - [`wal`] — group-commit, segmented write-ahead log: one framed,
//!   CRC'd record and one fsync per linger batch, done before the append
//!   returns; bounded `wal.NNNNNN.seg` segments with a CRC'd manifest,
//!   in-order replay, and background snapshot compaction. A snapshot is
//!   one frame of the same codec, so recovery, shipping, and replica
//!   resync share one decoder and one CRC.
//! - [`walfs`] — the pluggable [`WalFs`]/[`WalFile`] I/O layer: real
//!   `std::fs` ([`StdFs`]) plus the deterministic fault-injecting
//!   [`FaultFs`] that the crash-recovery matrix drives.
//! - [`epoch`] — the [`EpochEngine`]: batches deltas into epochs,
//!   re-scores only invalidated signature groups under the cached trust
//!   snapshot, escalates to a full IncEstimate recompute past a
//!   configurable invalidated-fraction threshold, and atomically publishes
//!   immutable [`VerdictView`]s, each a copy-on-write clone of the state
//!   it evaluated.
//! - [`queue`] — the bounded ingest queue backing HTTP 429 backpressure.
//! - [`http`] — the zero-dependency HTTP/1.1 subset (request/response
//!   parsing and writing) over `std::io` streams.
//! - `shell` (private) — the one HTTP shell over `std::net` that both
//!   roles run: a blocking acceptor woken by a self-connect at shutdown,
//!   a fixed worker pool, keep-alive, request telemetry, and the shared
//!   `/v1` read routes.
//! - [`server`] — the primary role: ingest, `/healthz`, `/metrics`,
//!   WAL shipping, `/cluster`, and graceful drain shutdown.
//! - [`metrics`] — serve-layer counters/spans/gauges in the shared
//!   `corroborate-obs` registry.
//! - [`ship`] — the primary-side replication feed: a [`ShipLog`] of
//!   durable group-commit frames and sealed segments, served over
//!   `GET /wal/segments` and `GET /wal/tail?from_seq=`.
//! - [`replica`] — read replicas: fetch shipped frames, re-journal them
//!   through a local [`Wal`], and publish read-only [`VerdictView`]s
//!   bit-identical to the primary's at every acked sequence.
//! - [`cluster`] — the control plane: replica heartbeats, per-replica
//!   catch-up and lag, rendered on `GET /cluster`.
//!
//! See `docs/SERVICE.md` for the API, the WAL format, and epoch/staleness
//! semantics.
//!
//! [`Dataset`]: corroborate_core::dataset::Dataset
//! [`DeltaDataset`]: delta::DeltaDataset
//! [`EpochEngine`]: epoch::EpochEngine
//! [`VerdictView`]: epoch::VerdictView

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cluster;
mod cow;
pub mod delta;
pub mod epoch;
mod error;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod replica;
pub mod server;
mod shell;
pub mod ship;
pub mod wal;
pub mod walfs;

pub use cluster::{ClusterState, PrimaryStatus, ReplicaStatus};
pub use delta::{ApplyOutcome, DeltaDataset, Mutation};
pub use epoch::{
    evaluate_batch, EpochConfig, EpochEngine, EpochMode, EpochStats, Published, VerdictView,
};
pub use error::ServeError;
pub use metrics::{ReplGauges, ServeMetrics};
pub use queue::IngestQueue;
pub use replica::{ReplicaConfig, ReplicaCore, ReplicaHandle, ShipApplied};
pub use server::{start, ServerConfig, ServerHandle};
pub use ship::{ShipLog, ShipSegment, TailResponse};
pub use wal::{BatchReceipt, FrameScan, Recovery, ShippedBatch, Wal, WalConfig};
pub use walfs::{FaultFs, StdFs, WalFile, WalFs};

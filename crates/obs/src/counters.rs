//! Atomic counter registry.
//!
//! Counters are a closed enum rather than string keys: emission sites on the
//! hot path index a fixed array of relaxed atomics, so incrementing a counter
//! is one `fetch_add` with no hashing or locking, and the catalog documented
//! in `docs/OBSERVABILITY.md` is enforced by the compiler.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Every counter the instrumented engines emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Selection rounds executed (IncEstimate round loop / session steps).
    Rounds,
    /// Fixpoint iterations executed (2-Estimates / 3-Estimates / Cosine).
    Iterations,
    /// Facts whose probability was (re)evaluated after a selection.
    FactsEvaluated,
    /// ΔH candidates killed by the linear prescreen (tier 1).
    PrescreenKilled,
    /// ΔH candidates killed by the walk bound before exact scoring (tier 2).
    WalkBoundKilled,
    /// ΔH candidates abandoned mid-way through exact scoring (tier 3).
    EarlyAbandonKilled,
    /// ΔH candidates scored exactly to completion.
    ExactScored,
    /// Dirty-group cache refreshes performed by `refresh_trust_and_cache`.
    CacheRefreshes,
    /// Group entries recomputed during cache refreshes.
    GroupsRecomputed,
    /// Postings dropped from the source→group index by compaction.
    PostingsCompacted,
    /// HTTP requests accepted by the corroboration service.
    HttpRequests,
    /// HTTP responses with a 2xx status.
    HttpResponses2xx,
    /// HTTP responses with a 4xx status.
    HttpResponses4xx,
    /// HTTP responses with a 5xx status.
    HttpResponses5xx,
    /// Ingest batches accepted into the bounded queue.
    IngestBatches,
    /// Individual mutations accepted into the bounded queue.
    IngestMutations,
    /// Ingest batches rejected because the queue was full (HTTP 429).
    IngestRejected,
    /// Re-evaluation epochs completed (full + incremental).
    Epochs,
    /// Epochs that ran a full recompute of the whole dataset.
    EpochsFull,
    /// Epochs that re-scored only invalidated groups incrementally.
    EpochsIncremental,
    /// Signature groups invalidated by ingested mutations, summed over
    /// epochs.
    GroupsInvalidated,
    /// Facts re-scored by incremental epochs.
    FactsRescored,
    /// Records appended to the write-ahead log.
    WalAppends,
    /// Group-commit batches framed and written to the write-ahead log.
    WalBatches,
    /// Segments sealed (rolled) by the write-ahead log.
    WalSeals,
    /// Records replayed from the write-ahead log during recovery.
    WalReplayed,
    /// Segments decoded during write-ahead log replay.
    SegmentsReplayed,
    /// Snapshot compactions written by the write-ahead log.
    SnapshotsWritten,
    /// Whole sealed WAL segments served to replicas over HTTP.
    ReplSegmentsShipped,
    /// Live group-commit frames served to replicas from the tail buffer.
    ReplFramesShipped,
    /// Framed WAL bytes served to replicas (segments + tail frames).
    ReplBytesShipped,
    /// Shipped batch frames a replica decoded, journalled, and applied.
    ReplBatchesApplied,
    /// Individual mutations a replica applied from shipped frames.
    ReplMutationsApplied,
    /// Replica heartbeats accepted by the primary's control plane.
    ReplHeartbeats,
    /// Trace events lost to ring-buffer wrap-around (bounded-loss tracing).
    TraceDropped,
}

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; 35] = [
        Counter::Rounds,
        Counter::Iterations,
        Counter::FactsEvaluated,
        Counter::PrescreenKilled,
        Counter::WalkBoundKilled,
        Counter::EarlyAbandonKilled,
        Counter::ExactScored,
        Counter::CacheRefreshes,
        Counter::GroupsRecomputed,
        Counter::PostingsCompacted,
        Counter::HttpRequests,
        Counter::HttpResponses2xx,
        Counter::HttpResponses4xx,
        Counter::HttpResponses5xx,
        Counter::IngestBatches,
        Counter::IngestMutations,
        Counter::IngestRejected,
        Counter::Epochs,
        Counter::EpochsFull,
        Counter::EpochsIncremental,
        Counter::GroupsInvalidated,
        Counter::FactsRescored,
        Counter::WalAppends,
        Counter::WalBatches,
        Counter::WalSeals,
        Counter::WalReplayed,
        Counter::SegmentsReplayed,
        Counter::SnapshotsWritten,
        Counter::ReplSegmentsShipped,
        Counter::ReplFramesShipped,
        Counter::ReplBytesShipped,
        Counter::ReplBatchesApplied,
        Counter::ReplMutationsApplied,
        Counter::ReplHeartbeats,
        Counter::TraceDropped,
    ];

    /// Stable snake_case key used in JSON reports.
    pub fn key(self) -> &'static str {
        match self {
            Counter::Rounds => "rounds",
            Counter::Iterations => "iterations",
            Counter::FactsEvaluated => "facts_evaluated",
            Counter::PrescreenKilled => "prescreen_killed",
            Counter::WalkBoundKilled => "walk_bound_killed",
            Counter::EarlyAbandonKilled => "early_abandon_killed",
            Counter::ExactScored => "exact_scored",
            Counter::CacheRefreshes => "cache_refreshes",
            Counter::GroupsRecomputed => "groups_recomputed",
            Counter::PostingsCompacted => "postings_compacted",
            Counter::HttpRequests => "http_requests",
            Counter::HttpResponses2xx => "http_responses_2xx",
            Counter::HttpResponses4xx => "http_responses_4xx",
            Counter::HttpResponses5xx => "http_responses_5xx",
            Counter::IngestBatches => "ingest_batches",
            Counter::IngestMutations => "ingest_mutations",
            Counter::IngestRejected => "ingest_rejected",
            Counter::Epochs => "epochs",
            Counter::EpochsFull => "epochs_full",
            Counter::EpochsIncremental => "epochs_incremental",
            Counter::GroupsInvalidated => "groups_invalidated",
            Counter::FactsRescored => "facts_rescored",
            Counter::WalAppends => "wal_appends",
            Counter::WalBatches => "wal_batches",
            Counter::WalSeals => "wal_seals",
            Counter::WalReplayed => "wal_replayed",
            Counter::SegmentsReplayed => "segments_replayed",
            Counter::SnapshotsWritten => "snapshots_written",
            Counter::ReplSegmentsShipped => "repl_segments_shipped",
            Counter::ReplFramesShipped => "repl_frames_shipped",
            Counter::ReplBytesShipped => "repl_bytes_shipped",
            Counter::ReplBatchesApplied => "repl_batches_applied",
            Counter::ReplMutationsApplied => "repl_mutations_applied",
            Counter::ReplHeartbeats => "repl_heartbeats",
            Counter::TraceDropped => "trace_dropped",
        }
    }
}

/// A monotone high-water-mark gauge: `observe` keeps the maximum of every
/// reported value. Used by the serve layer for queue-depth and batch-size
/// high-water marks, where a counter's sum is meaningless but the peak is
/// the operational signal.
#[derive(Debug, Default)]
pub struct MaxGauge {
    value: AtomicU64,
}

impl MaxGauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `value` into the high-water mark.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// The largest value observed so far (0 when never observed).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-size registry of relaxed atomic counters, indexed by [`Counter`].
#[derive(Debug)]
pub struct CounterRegistry {
    slots: [AtomicU64; Counter::ALL.len()],
}

// `[AtomicU64; N]: Default` is only derived up to 32 elements; the catalog
// outgrew that, so spell it out.
impl Default for CounterRegistry {
    fn default() -> Self {
        Self { slots: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl CounterRegistry {
    /// A registry with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.slots[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.slots[counter as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of every counter, in [`Counter::ALL`] order.
    pub fn snapshot(&self) -> Vec<(Counter, u64)> {
        Counter::ALL.iter().map(|&c| (c, self.get(c))).collect()
    }

    /// JSON object `{key: value}` of every counter.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for (counter, value) in self.snapshot() {
            obj.insert(counter.key(), value);
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let reg = CounterRegistry::new();
        reg.add(Counter::PrescreenKilled, 5);
        reg.add(Counter::PrescreenKilled, 2);
        reg.add(Counter::ExactScored, 1);
        assert_eq!(reg.get(Counter::PrescreenKilled), 7);
        assert_eq!(reg.get(Counter::ExactScored), 1);
        assert_eq!(reg.get(Counter::WalkBoundKilled), 0);
    }

    #[test]
    fn keys_are_unique_and_cover_all() {
        let keys: std::collections::HashSet<_> = Counter::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), Counter::ALL.len());
    }

    #[test]
    fn json_snapshot_has_every_key() {
        let reg = CounterRegistry::new();
        reg.add(Counter::Rounds, 3);
        let json = reg.to_json();
        for counter in Counter::ALL {
            assert!(json.get(counter.key()).is_some(), "missing {}", counter.key());
        }
        assert_eq!(json.get("rounds").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn max_gauge_keeps_the_peak() {
        let g = MaxGauge::new();
        assert_eq!(g.get(), 0);
        g.observe(5);
        g.observe(3);
        g.observe(9);
        g.observe(7);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn counters_are_thread_safe() {
        let reg = CounterRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        reg.add(Counter::FactsEvaluated, 1);
                    }
                });
            }
        });
        assert_eq!(reg.get(Counter::FactsEvaluated), 4000);
    }
}

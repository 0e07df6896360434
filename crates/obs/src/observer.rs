//! The observer trait, the no-op default, and the recording implementation.
//!
//! Engines are generic over `O: Observer` (static dispatch) and consult
//! `O::ENABLED` before building any record, so the [`NoopObserver`] path
//! monomorphises to straight-line code: empty inline methods behind an
//! `if false` the optimiser deletes. [`RecordingObserver`] keeps everything —
//! counters, span latencies, and per-round / per-iteration records — for a
//! [`RunReport`](crate::RunReport).

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use crate::counters::{Counter, CounterRegistry};
use crate::histogram::LatencyHistogram;
use crate::json::Json;
use crate::report::{IterationRecord, RoundRecord, SelectionRecord};
use crate::trace::{TraceBuffer, TraceKind, TraceSnapshot};

/// Timed region of engine work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Span {
    /// One strategy `select` call.
    Select,
    /// One post-selection probability evaluation sweep.
    Evaluate,
    /// One dirty-cache refresh (`refresh_trust_and_cache`).
    CacheRefresh,
    /// One fold of the per-block selection winners into the global ΔH
    /// argmax.
    ShardMerge,
    /// One fixpoint iteration of a convergence-loop corroborator.
    Iteration,
    /// One HTTP request handled end-to-end by the corroboration service.
    Request,
    /// One re-evaluation epoch (delta application through view publication).
    Epoch,
    /// One record appended (and optionally synced) to the write-ahead log.
    WalAppend,
    /// One group-commit batch framed, written, fsynced (when configured),
    /// and shipped.
    WalBatch,
    /// One `fsync` of the write-ahead log file (durability flush).
    WalFsync,
    /// One segment seal: fsync, manifest rewrite, roll to a fresh segment.
    WalSeal,
    /// One full write-ahead log replay during service recovery.
    WalReplay,
    /// One segment decoded during write-ahead log replay.
    SegmentReplay,
    /// One engine re-score pass inside an epoch (incremental or full).
    Rescore,
    /// One atomic publication of a refreshed verdict view.
    ViewPublish,
    /// One drain of the bounded ingest queue into an epoch batch.
    QueueDrain,
    /// One sealed WAL segment served to a replica over HTTP.
    SegmentShip,
    /// One tail request answered from the primary's live frame buffer.
    TailShip,
    /// One shipped frame batch decoded, journalled, and applied by a replica.
    ReplicaApply,
}

impl Span {
    /// All spans, in report order.
    pub const ALL: [Span; 19] = [
        Span::Select,
        Span::Evaluate,
        Span::CacheRefresh,
        Span::ShardMerge,
        Span::Iteration,
        Span::Request,
        Span::Epoch,
        Span::WalAppend,
        Span::WalBatch,
        Span::WalFsync,
        Span::WalSeal,
        Span::WalReplay,
        Span::SegmentReplay,
        Span::Rescore,
        Span::ViewPublish,
        Span::QueueDrain,
        Span::SegmentShip,
        Span::TailShip,
        Span::ReplicaApply,
    ];

    /// Stable snake_case key used in JSON reports.
    pub fn key(self) -> &'static str {
        match self {
            Span::Select => "select",
            Span::Evaluate => "evaluate",
            Span::CacheRefresh => "cache_refresh",
            Span::ShardMerge => "shard_merge",
            Span::Iteration => "iteration",
            Span::Request => "request",
            Span::Epoch => "epoch",
            Span::WalAppend => "wal_append",
            Span::WalBatch => "wal_batch",
            Span::WalFsync => "wal_fsync",
            Span::WalSeal => "wal_seal",
            Span::WalReplay => "wal_replay",
            Span::SegmentReplay => "segment_replay",
            Span::Rescore => "rescore",
            Span::ViewPublish => "view_publish",
            Span::QueueDrain => "queue_drain",
            Span::SegmentShip => "segment_ship",
            Span::TailShip => "tail_ship",
            Span::ReplicaApply => "replica_apply",
        }
    }
}

/// Receiver for engine telemetry.
///
/// All methods have empty defaults; implementations override what they care
/// about. `ENABLED` lets emission sites skip building records entirely —
/// callers must treat `ENABLED == false` as "do not spend a cycle on
/// telemetry", so expensive record construction belongs behind
/// `if O::ENABLED { ... }`.
pub trait Observer: Sync {
    /// Whether emission sites should build and send records at all.
    const ENABLED: bool;

    /// Adds `delta` to a counter.
    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// Records a span duration in nanoseconds.
    #[inline]
    fn span(&self, span: Span, nanos: u64) {
        let _ = (span, nanos);
    }

    /// A strategy finished one selection.
    #[inline]
    fn selection(&self, record: &SelectionRecord) {
        let _ = record;
    }

    /// The engine finished one selection round.
    #[inline]
    fn round(&self, record: &RoundRecord) {
        let _ = record;
    }

    /// A convergence loop finished one fixpoint iteration.
    #[inline]
    fn iteration(&self, record: &IterationRecord) {
        let _ = record;
    }

    /// A hierarchical span opened (trace begin marker).
    #[inline]
    fn span_begin(&self, span: Span, payload: u64) {
        let _ = (span, payload);
    }

    /// A hierarchical span closed (trace end marker).
    #[inline]
    fn span_end(&self, span: Span, payload: u64) {
        let _ = (span, payload);
    }

    /// A point-in-time trace marker under the currently open span.
    #[inline]
    fn event(&self, span: Span, payload: u64) {
        let _ = (span, payload);
    }

    /// Times `f` under `span` when enabled; calls it directly otherwise.
    #[inline]
    fn timed<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        if Self::ENABLED {
            let start = Instant::now();
            let out = f();
            self.span(span, saturating_nanos(start));
            out
        } else {
            f()
        }
    }

    /// Like [`Observer::timed`], but also emits begin/end trace events with
    /// `payload` around `f`, so implementations with a trace buffer capture
    /// the parent/child decomposition of the work.
    #[inline]
    fn traced<R>(&self, span: Span, payload: u64, f: impl FnOnce() -> R) -> R {
        if Self::ENABLED {
            self.span_begin(span, payload);
            let start = Instant::now();
            let out = f();
            self.span(span, saturating_nanos(start));
            self.span_end(span, payload);
            out
        } else {
            f()
        }
    }
}

#[inline]
fn saturating_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The default observer: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;
}

/// A shared no-op instance for call sites that need a `&'static` observer.
pub static NOOP: NoopObserver = NoopObserver;

/// Retains every record for post-run reporting.
///
/// Counters and histograms are lock-free; record vectors take a mutex, which
/// is fine because rounds/iterations are emitted from the (serial) driver
/// loop, never from the parallel scoring inner loop.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    counters: CounterRegistry,
    spans: [LatencyHistogram; Span::ALL.len()],
    rounds: Mutex<Vec<RoundRecord>>,
    iterations: Mutex<Vec<IterationRecord>>,
    pending_selection: Mutex<Option<SelectionRecord>>,
    trace: Option<TraceBuffer>,
}

impl RecordingObserver {
    /// An empty recorder without a trace ring (counters and histograms only).
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that additionally retains the most recent `capacity`
    /// hierarchical trace events (see [`TraceBuffer`]); overwritten events
    /// are counted under [`Counter::TraceDropped`].
    pub fn with_trace(capacity: usize) -> Self {
        RecordingObserver { trace: Some(TraceBuffer::with_capacity(capacity)), ..Self::default() }
    }

    /// The trace ring, when this recorder was built with [`Self::with_trace`].
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Snapshot of the retained trace events (empty without a trace ring).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.trace.as_ref().map(TraceBuffer::snapshot).unwrap_or_default()
    }

    /// The counter registry.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// The histogram for `span`.
    pub fn span_histogram(&self, span: Span) -> &LatencyHistogram {
        &self.spans[span as usize]
    }

    /// Snapshot of the retained round records.
    pub fn rounds(&self) -> Vec<RoundRecord> {
        self.rounds.lock().unwrap().clone()
    }

    /// Snapshot of the retained iteration records.
    pub fn iterations(&self) -> Vec<IterationRecord> {
        self.iterations.lock().unwrap().clone()
    }

    /// Telemetry as a JSON object with `counters`, `spans`, `rounds`, and
    /// `iterations` sections — the standard observer section of a
    /// [`crate::report::RunReport`].
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("counters", self.counters.to_json());
        let mut spans = Json::object();
        for span in Span::ALL {
            let h = self.span_histogram(span);
            if h.count() > 0 {
                spans.insert(span.key(), h.to_json());
            }
        }
        obj.insert("spans", spans);
        obj.insert(
            "rounds",
            Json::Arr(self.rounds.lock().unwrap().iter().map(RoundRecord::to_json).collect()),
        );
        obj.insert(
            "iterations",
            Json::Arr(
                self.iterations.lock().unwrap().iter().map(IterationRecord::to_json).collect(),
            ),
        );
        obj
    }
}

impl Observer for RecordingObserver {
    const ENABLED: bool = true;

    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        self.counters.add(counter, delta);
    }

    #[inline]
    fn span(&self, span: Span, nanos: u64) {
        self.spans[span as usize].record(nanos);
    }

    #[inline]
    fn span_begin(&self, span: Span, payload: u64) {
        if let Some(trace) = &self.trace {
            if trace.push(TraceKind::Begin, span, payload) {
                self.counters.add(Counter::TraceDropped, 1);
            }
        }
    }

    #[inline]
    fn span_end(&self, span: Span, payload: u64) {
        if let Some(trace) = &self.trace {
            if trace.push(TraceKind::End, span, payload) {
                self.counters.add(Counter::TraceDropped, 1);
            }
        }
    }

    #[inline]
    fn event(&self, span: Span, payload: u64) {
        if let Some(trace) = &self.trace {
            if trace.push(TraceKind::Instant, span, payload) {
                self.counters.add(Counter::TraceDropped, 1);
            }
        }
    }

    fn selection(&self, record: &SelectionRecord) {
        // Selections arrive from inside `select`; the engine emits the
        // enclosing RoundRecord afterwards, so park the selection until then.
        *self.pending_selection.lock().unwrap() = Some(record.clone());
    }

    fn round(&self, record: &RoundRecord) {
        let mut record = record.clone();
        if record.selection.is_none() {
            record.selection = self.pending_selection.lock().unwrap().take();
        }
        self.rounds.lock().unwrap().push(record);
    }

    fn iteration(&self, record: &IterationRecord) {
        self.iterations.lock().unwrap().push(*record);
    }
}

/// Per-call pruning-tier tally for one scored partition.
///
/// `scores_pruned` classifies every candidate into exactly one tier. The
/// engine scores on one thread, so the tiers are plain cells.
#[derive(Debug, Default)]
pub struct TierTally {
    /// Candidates killed by the linear prescreen.
    pub prescreen: Cell<u64>,
    /// Candidates killed by the walk bound.
    pub walk_bound: Cell<u64>,
    /// Candidates abandoned mid-exact-scoring.
    pub early_abandon: Cell<u64>,
    /// Candidates scored exactly to completion.
    pub exact: Cell<u64>,
}

impl TierTally {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current values as `(prescreen, walk_bound, early_abandon, exact)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (self.prescreen.get(), self.walk_bound.get(), self.early_abandon.get(), self.exact.get())
    }

    /// Sum over all tiers — equals the candidate count when conservation
    /// holds.
    pub fn total(&self) -> u64 {
        let (a, b, c, d) = self.snapshot();
        a + b + c + d
    }

    /// Flushes the tally into an observer's global counters.
    pub fn flush_to<O: Observer>(&self, obs: &O) {
        let (prescreen, walk, early, exact) = self.snapshot();
        obs.add(Counter::PrescreenKilled, prescreen);
        obs.add(Counter::WalkBoundKilled, walk);
        obs.add(Counter::EarlyAbandonKilled, early);
        obs.add(Counter::ExactScored, exact);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `ENABLED` states are part of the zero-overhead contract.
    const _: () = assert!(!NoopObserver::ENABLED);
    const _: () = assert!(RecordingObserver::ENABLED);

    #[test]
    fn noop_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopObserver>(), 0);
        // Safe to call every method; nothing observable happens.
        NOOP.add(Counter::Rounds, 1);
        NOOP.span(Span::Select, 1);
        assert_eq!(NOOP.timed(Span::Select, || 41 + 1), 42);
    }

    #[test]
    fn recorder_counts_spans_and_counters() {
        let obs = RecordingObserver::new();
        obs.add(Counter::Rounds, 2);
        obs.add(Counter::CacheRefreshes, 1);
        obs.span(Span::Evaluate, 500);
        let v = obs.timed(Span::Select, || 7);
        assert_eq!(v, 7);
        assert_eq!(obs.counters().get(Counter::Rounds), 2);
        assert_eq!(obs.span_histogram(Span::Evaluate).count(), 1);
        assert_eq!(obs.span_histogram(Span::Select).count(), 1);
    }

    #[test]
    fn pending_selection_attaches_to_next_round() {
        let obs = RecordingObserver::new();
        let selection = SelectionRecord {
            positive_group: Some(1),
            negative_group: Some(2),
            projected_dh_pos: Some(0.5),
            projected_dh_neg: Some(0.25),
            candidates: 6,
            prescreen_killed: 1,
            walk_bound_killed: 2,
            early_abandon_killed: 0,
            exact_scored: 3,
        };
        obs.selection(&selection);
        obs.round(&RoundRecord {
            round: 0,
            evaluated: 2,
            remaining: 10,
            entropy_before: 4.0,
            entropy_after: 3.0,
            selection: None,
        });
        // A later round without a selection stays bare.
        obs.round(&RoundRecord {
            round: 1,
            evaluated: 1,
            remaining: 9,
            entropy_before: 3.0,
            entropy_after: 2.5,
            selection: None,
        });
        let rounds = obs.rounds();
        assert_eq!(rounds[0].selection.as_ref(), Some(&selection));
        assert_eq!(rounds[1].selection, None);
    }

    #[test]
    fn tally_conserves_and_flushes() {
        let tally = TierTally::new();
        tally.prescreen.set(3);
        tally.walk_bound.set(2);
        tally.early_abandon.set(1);
        tally.exact.set(4);
        assert_eq!(tally.total(), 10);
        let obs = RecordingObserver::new();
        tally.flush_to(&obs);
        assert_eq!(obs.counters().get(Counter::PrescreenKilled), 3);
        assert_eq!(obs.counters().get(Counter::ExactScored), 4);
    }

    #[test]
    fn traced_records_histogram_and_trace_tree() {
        let obs = RecordingObserver::with_trace(64);
        let v = obs.traced(Span::Epoch, 41, || {
            obs.traced(Span::WalAppend, 1, || ());
            obs.event(Span::ViewPublish, 9);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(obs.span_histogram(Span::Epoch).count(), 1);
        assert_eq!(obs.span_histogram(Span::WalAppend).count(), 1);
        let snap = obs.trace_snapshot();
        assert_eq!(snap.events.len(), 5);
        let epoch_begin = &snap.events[0];
        assert_eq!(epoch_begin.kind, TraceKind::Begin);
        assert_eq!(epoch_begin.span, Span::Epoch);
        assert_eq!(epoch_begin.payload, 41);
        // Children nest under the epoch span.
        assert_eq!(snap.events[1].parent, epoch_begin.id);
        assert_eq!(snap.events[3].parent, epoch_begin.id);
        assert_eq!(snap.events[3].kind, TraceKind::Instant);
        assert_eq!(obs.counters().get(Counter::TraceDropped), 0);
    }

    #[test]
    fn untraced_recorder_has_empty_snapshot() {
        let obs = RecordingObserver::new();
        obs.traced(Span::Select, 0, || ());
        assert!(obs.trace().is_none());
        assert_eq!(obs.trace_snapshot().events.len(), 0);
        assert_eq!(obs.span_histogram(Span::Select).count(), 1);
    }

    #[test]
    fn trace_overflow_bumps_dropped_counter() {
        let obs = RecordingObserver::with_trace(8);
        for i in 0..20u64 {
            obs.event(Span::Request, i);
        }
        assert_eq!(obs.counters().get(Counter::TraceDropped), 12);
        assert_eq!(obs.trace_snapshot().overwritten, 12);
    }

    #[test]
    fn to_json_has_all_sections() {
        let obs = RecordingObserver::new();
        obs.add(Counter::Iterations, 1);
        obs.span(Span::Iteration, 10);
        obs.iteration(&IterationRecord { iteration: 0, residual: 0.5 });
        let j = obs.to_json();
        assert!(j.get("counters").unwrap().get("iterations").is_some());
        assert!(j.get("spans").unwrap().get("iteration").is_some());
        assert_eq!(j.get("iterations").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(j.get("rounds").unwrap().as_array().unwrap().len(), 0);
    }
}

//! Primary-side WAL shipping state: what a replica may fetch, and when it
//! became durable.
//!
//! The [`ShipLog`] mirrors the [`crate::wal::Wal`]'s externally visible
//! state behind a mutex so HTTP workers can serve replication reads while
//! the epoch thread owns the log itself. It tracks three things:
//!
//! - the **sealed segment index** (`GET /wal/segments`) — immutable CRC'd
//!   files a replica fetches wholesale to catch up;
//! - a bounded **tail buffer** of recent group-commit frames
//!   (`GET /wal/tail?from_seq=`) — the live stream, retained byte-for-byte
//!   as written so replicas replay the primary's exact framing;
//! - per-frame **durability timestamps**, the basis of the
//!   `replica_lag_seconds` gauge (lag = age of the oldest durable frame a
//!   replica has not yet applied, measured on the ship clock).
//!
//! Frames enter the log only once durable on the primary (after their
//! pipelined fsync completes, or immediately when fsync is off): a replica
//! can never observe state a primary crash would roll back, so after a
//! primary restart every replica is a prefix — never ahead.
//!
//! This module is inside the determinism and checked-arithmetic audit
//! scopes: no wall clocks (timestamps come from an injected clock
//! closure), no hash maps, and saturating/checked arithmetic throughout.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use corroborate_obs::Json;

use crate::wal::{seg_path, snapshot_path};
use crate::walfs::WalFs;

/// Nanosecond clock injected by the host (the serve layer passes its
/// metrics clock); defaults to a constant zero for tests that only check
/// sequence bookkeeping.
pub type ShipClock = Box<dyn Fn() -> u64 + Send + Sync>;

/// One sealed segment a replica may fetch, as listed in the ship index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipSegment {
    /// Segment file id (`wal.{id:06}.seg`).
    pub id: u64,
    /// Sequence of the first mutation in the segment.
    pub first_seq: u64,
    /// Sequence of the last mutation in the segment.
    pub last_seq: u64,
    /// Decodable byte length (the CRC-valid prefix).
    pub bytes: u64,
}

/// One durable group-commit frame retained in the tail buffer.
#[derive(Debug, Clone)]
struct ShipFrame {
    first_seq: u64,
    last_seq: u64,
    bytes: Vec<u8>,
    /// Ship-clock nanoseconds at which the frame became durable.
    nanos: u64,
}

#[derive(Default)]
struct ShipInner {
    /// Becomes true once a [`crate::wal::Wal`] bootstraps the log.
    enabled: bool,
    snapshot_seq: u64,
    /// Sequence the next durable frame will start at.
    next_seq: u64,
    frames: VecDeque<ShipFrame>,
    buffered_bytes: u64,
    sealed: Vec<ShipSegment>,
    dir: Option<PathBuf>,
    fs: Option<Arc<dyn WalFs>>,
}

/// Answer to a tail fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailResponse {
    /// Concatenated whole frames starting exactly at the requested seq.
    Frames {
        /// Raw framed bytes, byte-identical to the primary's WAL stream.
        bytes: Vec<u8>,
        /// Number of frames included.
        frames: u64,
        /// Sequence of the last mutation included.
        last_seq: u64,
    },
    /// The requested seq is no longer (or not yet coherently) in the
    /// retained window; the replica must catch up from sealed segments or
    /// the snapshot.
    Behind {
        /// First sequence still served by the tail buffer.
        floor_seq: u64,
    },
    /// The replica is fully caught up; nothing new to ship.
    AtHead,
}

/// Shareable, mutex-guarded shipping state (see the module docs).
pub struct ShipLog {
    cap_bytes: u64,
    clock: ShipClock,
    inner: Mutex<ShipInner>,
}

impl std::fmt::Debug for ShipLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipLog").field("cap_bytes", &self.cap_bytes).finish_non_exhaustive()
    }
}

impl ShipLog {
    /// An empty ship log with a constant-zero clock (tests, replicas).
    pub fn new(cap_bytes: u64) -> Self {
        Self::with_clock(cap_bytes, Box::new(|| 0))
    }

    /// An empty ship log retaining at most `cap_bytes` of tail frames,
    /// stamping durability with `clock` (monotone nanoseconds).
    pub fn with_clock(cap_bytes: u64, clock: ShipClock) -> Self {
        Self { cap_bytes, clock, inner: Mutex::new(ShipInner::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShipInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current reading of the injected ship clock, in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        (self.clock)()
    }

    /// Whether a WAL has bootstrapped this log (replication is live).
    pub fn enabled(&self) -> bool {
        self.lock().enabled
    }

    /// Sequence the next durable frame will start at.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Highest durable sequence (0 before the first frame).
    pub fn durable_seq(&self) -> u64 {
        self.lock().next_seq.saturating_sub(1)
    }

    /// Highest sequence folded into the on-disk snapshot.
    pub fn snapshot_seq(&self) -> u64 {
        self.lock().snapshot_seq
    }

    /// First sequence still served by the tail buffer (equals
    /// [`Self::next_seq`] when the buffer is empty).
    pub fn floor_seq(&self) -> u64 {
        let inner = self.lock();
        inner.frames.front().map_or(inner.next_seq, |f| f.first_seq)
    }

    /// Bytes currently retained in the tail buffer.
    pub fn buffered_bytes(&self) -> u64 {
        self.lock().buffered_bytes
    }

    // -- mutators, driven by the owning Wal ---------------------------------

    /// Seeds the log from a freshly recovered WAL: sealed segment metadata,
    /// the decoded frames of the active segment (all durable — they
    /// survived recovery), and the segment directory for serving reads.
    pub(crate) fn bootstrap(
        &self,
        fs: Arc<dyn WalFs>,
        dir: PathBuf,
        snapshot_seq: u64,
        next_seq: u64,
        sealed: Vec<ShipSegment>,
        active_frames: Vec<(u64, u64, Vec<u8>)>,
    ) {
        let now = self.now_nanos();
        let mut inner = self.lock();
        inner.enabled = true;
        inner.snapshot_seq = snapshot_seq;
        inner.next_seq = next_seq;
        inner.sealed = sealed;
        inner.dir = Some(dir);
        inner.fs = Some(fs);
        inner.frames.clear();
        inner.buffered_bytes = 0;
        for (first_seq, last_seq, bytes) in active_frames {
            inner.buffered_bytes = inner.buffered_bytes.saturating_add(bytes.len() as u64);
            inner.frames.push_back(ShipFrame { first_seq, last_seq, bytes, nanos: now });
        }
        Self::evict(&mut inner, self.cap_bytes);
    }

    /// Records one frame that just became durable, stamping it with the
    /// ship clock.
    pub(crate) fn frame_durable(&self, first_seq: u64, last_seq: u64, bytes: &[u8]) {
        let nanos = self.now_nanos();
        let mut inner = self.lock();
        inner.buffered_bytes = inner.buffered_bytes.saturating_add(bytes.len() as u64);
        inner.frames.push_back(ShipFrame { first_seq, last_seq, bytes: bytes.to_vec(), nanos });
        inner.next_seq = last_seq.saturating_add(1);
        Self::evict(&mut inner, self.cap_bytes);
    }

    /// Records a seal: the given segment is now immutable and fetchable.
    pub(crate) fn segment_sealed(&self, segment: ShipSegment) {
        self.lock().sealed.push(segment);
    }

    /// Records a landed snapshot compaction: `removed` segment ids are gone
    /// from disk and the snapshot now covers `snapshot_seq`. Tail frames
    /// fully covered by the snapshot are evicted too, so the retained feed
    /// is always exactly snapshot + sealed segments + live tail: a replica
    /// behind the snapshot takes the (cheaper) snapshot path instead of
    /// replaying pruned history, and compaction bounds tail-buffer memory.
    pub(crate) fn compacted(&self, snapshot_seq: u64, removed: &[u64]) {
        let mut inner = self.lock();
        inner.snapshot_seq = snapshot_seq;
        inner.sealed.retain(|s| !removed.contains(&s.id));
        while inner.frames.front().is_some_and(|f| f.last_seq <= snapshot_seq) {
            if let Some(front) = inner.frames.pop_front() {
                inner.buffered_bytes =
                    inner.buffered_bytes.saturating_sub(front.bytes.len() as u64);
            }
        }
    }

    fn evict(inner: &mut ShipInner, cap_bytes: u64) {
        while inner.buffered_bytes > cap_bytes && inner.frames.len() > 1 {
            if let Some(front) = inner.frames.pop_front() {
                inner.buffered_bytes =
                    inner.buffered_bytes.saturating_sub(front.bytes.len() as u64);
            }
        }
    }

    // -- read side, served over HTTP ----------------------------------------

    /// The `GET /wal/segments` index document.
    pub fn index_json(&self) -> Json {
        let inner = self.lock();
        let mut root = Json::object();
        root.insert("report", "corroborate_wal_ship_index");
        root.insert("schema_version", 1u64);
        root.insert("enabled", inner.enabled);
        root.insert("snapshot_seq", inner.snapshot_seq);
        root.insert("next_seq", inner.next_seq);
        root.insert("tail_floor_seq", inner.frames.front().map_or(inner.next_seq, |f| f.first_seq));
        let segments: Vec<Json> = inner
            .sealed
            .iter()
            .map(|s| {
                let mut e = Json::object();
                e.insert("segment", s.id);
                e.insert("first_seq", s.first_seq);
                e.insert("last_seq", s.last_seq);
                e.insert("bytes", s.bytes);
                e
            })
            .collect();
        root.insert("segments", Json::Arr(segments));
        root
    }

    /// Raw bytes of sealed segment `id` (the CRC-valid prefix only), or
    /// `None` when the segment is not in the sealed index (never sealed,
    /// or already compacted away).
    pub fn read_segment(&self, id: u64) -> Option<Vec<u8>> {
        let (dir, fs, valid) = {
            let inner = self.lock();
            let meta = inner.sealed.iter().find(|s| s.id == id)?;
            (inner.dir.clone()?, Arc::clone(inner.fs.as_ref()?), meta.bytes)
        };
        let mut bytes = fs.read(&seg_path(&dir, id)).ok()?;
        bytes.truncate(usize::try_from(valid).unwrap_or(usize::MAX));
        Some(bytes)
    }

    /// Raw bytes of the on-disk snapshot, if one exists.
    pub fn read_snapshot(&self) -> Option<Vec<u8>> {
        let (dir, fs) = {
            let inner = self.lock();
            (inner.dir.clone()?, Arc::clone(inner.fs.as_ref()?))
        };
        fs.read(&snapshot_path(&dir)).ok()
    }

    /// Serves a tail fetch: whole durable frames starting exactly at
    /// `from_seq`, up to roughly `max_bytes` (at least one frame).
    pub fn tail_since(&self, from_seq: u64, max_bytes: u64) -> TailResponse {
        let inner = self.lock();
        if from_seq >= inner.next_seq {
            if from_seq == inner.next_seq {
                return TailResponse::AtHead;
            }
            // The replica is ahead of this primary's durable history — it
            // replicated a different (pre-wipe) log. Force a resync.
            return TailResponse::Behind {
                floor_seq: inner.frames.front().map_or(inner.next_seq, |f| f.first_seq),
            };
        }
        let floor_seq = inner.frames.front().map_or(inner.next_seq, |f| f.first_seq);
        let Some(start) = inner.frames.iter().position(|f| f.first_seq == from_seq) else {
            return TailResponse::Behind { floor_seq };
        };
        let mut bytes = Vec::new();
        let mut frames = 0u64;
        let mut last_seq = from_seq;
        for frame in inner.frames.iter().skip(start) {
            if frames > 0
                && (bytes.len() as u64).saturating_add(frame.bytes.len() as u64) > max_bytes
            {
                break;
            }
            bytes.extend_from_slice(&frame.bytes);
            frames = frames.saturating_add(1);
            last_seq = frame.last_seq;
        }
        TailResponse::Frames { bytes, frames, last_seq }
    }

    /// Replication lag for a replica that has applied up to `applied_seq`:
    /// the age (ship-clock seconds) of the oldest retained durable frame it
    /// has not applied, `0.0` when fully caught up. Frames evicted from
    /// the tail window no longer contribute, so this is a lower bound for
    /// replicas far enough behind to need segment catch-up.
    pub fn lag_seconds(&self, applied_seq: u64) -> f64 {
        let now = self.now_nanos();
        let inner = self.lock();
        inner
            .frames
            .iter()
            .find(|f| f.last_seq > applied_seq)
            .map_or(0.0, |f| now.saturating_sub(f.nanos) as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(first: u64, last: u64, len: usize) -> (u64, u64, Vec<u8>) {
        (first, last, vec![0xAB; len])
    }

    fn seeded() -> ShipLog {
        let ship = ShipLog::new(1 << 20);
        let fs: Arc<dyn WalFs> = Arc::new(crate::walfs::FaultFs::new());
        ship.bootstrap(fs, PathBuf::from("/wal"), 0, 1, Vec::new(), Vec::new());
        ship
    }

    #[test]
    fn tail_serves_exact_boundaries_and_reports_behind() {
        let ship = seeded();
        ship.frame_durable(1, 3, &[1, 2, 3]);
        ship.frame_durable(4, 4, &[4]);
        assert_eq!(ship.durable_seq(), 4);
        match ship.tail_since(1, u64::MAX) {
            TailResponse::Frames { bytes, frames, last_seq } => {
                assert_eq!(bytes, vec![1, 2, 3, 4]);
                assert_eq!(frames, 2);
                assert_eq!(last_seq, 4);
            }
            other => panic!("expected frames, got {other:?}"),
        }
        match ship.tail_since(4, u64::MAX) {
            TailResponse::Frames { bytes, .. } => assert_eq!(bytes, vec![4]),
            other => panic!("expected frames, got {other:?}"),
        }
        assert_eq!(ship.tail_since(5, u64::MAX), TailResponse::AtHead);
        // Mid-batch seq is not a boundary: forces the catch-up path.
        assert!(matches!(ship.tail_since(2, u64::MAX), TailResponse::Behind { .. }));
        // Ahead of the head: also a resync signal.
        assert!(matches!(ship.tail_since(9, u64::MAX), TailResponse::Behind { .. }));
    }

    #[test]
    fn eviction_keeps_the_newest_frames_and_moves_the_floor() {
        let ship = ShipLog::new(8);
        let fs: Arc<dyn WalFs> = Arc::new(crate::walfs::FaultFs::new());
        ship.bootstrap(fs, PathBuf::from("/wal"), 0, 1, Vec::new(), Vec::new());
        ship.frame_durable(1, 1, &[0; 6]);
        ship.frame_durable(2, 2, &[0; 6]);
        ship.frame_durable(3, 3, &[0; 6]);
        assert_eq!(ship.floor_seq(), 3, "older frames evicted past the byte cap");
        assert!(matches!(ship.tail_since(1, u64::MAX), TailResponse::Behind { floor_seq: 3 }));
    }

    #[test]
    fn bootstrap_replays_active_frames_into_the_window() {
        let ship = ShipLog::new(1 << 20);
        let fs: Arc<dyn WalFs> = Arc::new(crate::walfs::FaultFs::new());
        ship.bootstrap(
            fs,
            PathBuf::from("/wal"),
            2,
            6,
            vec![ShipSegment { id: 1, first_seq: 1, last_seq: 2, bytes: 64 }],
            vec![frame(3, 5, 10)],
        );
        assert!(ship.enabled());
        assert_eq!(ship.snapshot_seq(), 2);
        assert_eq!(ship.floor_seq(), 3);
        assert_eq!(ship.next_seq(), 6);
        let index = ship.index_json();
        assert_eq!(index.get("tail_floor_seq").unwrap().as_i64(), Some(3));
        assert_eq!(index.get("segments").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn lag_is_zero_when_caught_up_and_ages_otherwise() {
        let t = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let tc = std::sync::Arc::clone(&t);
        let ship = ShipLog::with_clock(
            1 << 20,
            Box::new(move || tc.load(std::sync::atomic::Ordering::Relaxed)),
        );
        let fs: Arc<dyn WalFs> = Arc::new(crate::walfs::FaultFs::new());
        ship.bootstrap(fs, PathBuf::from("/wal"), 0, 1, Vec::new(), Vec::new());
        t.store(1_000_000_000, std::sync::atomic::Ordering::Relaxed);
        ship.frame_durable(1, 2, &[0; 4]);
        t.store(3_000_000_000, std::sync::atomic::Ordering::Relaxed);
        assert!((ship.lag_seconds(0) - 2.0).abs() < 1e-9);
        assert!((ship.lag_seconds(1) - 2.0).abs() < 1e-9);
        assert_eq!(ship.lag_seconds(2), 0.0);
    }

    #[test]
    fn compaction_drops_covered_segments_from_the_index() {
        let ship = seeded();
        ship.segment_sealed(ShipSegment { id: 1, first_seq: 1, last_seq: 4, bytes: 100 });
        ship.segment_sealed(ShipSegment { id: 2, first_seq: 5, last_seq: 9, bytes: 120 });
        ship.compacted(4, &[1]);
        assert_eq!(ship.snapshot_seq(), 4);
        let index = ship.index_json();
        let segments = index.get("segments").unwrap().as_array().unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].get("segment").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn compaction_evicts_tail_frames_the_snapshot_covers() {
        let ship = seeded();
        ship.frame_durable(1, 3, &[1, 2, 3]);
        ship.frame_durable(4, 6, &[4, 5, 6]);
        ship.frame_durable(7, 9, &[7, 8, 9]);
        ship.compacted(6, &[]);
        assert_eq!(ship.floor_seq(), 7, "covered frames leave the tail window");
        assert!(matches!(ship.tail_since(1, u64::MAX), TailResponse::Behind { floor_seq: 7 }));
        match ship.tail_since(7, u64::MAX) {
            TailResponse::Frames { bytes, .. } => assert_eq!(bytes, vec![7, 8, 9]),
            other => panic!("expected frames, got {other:?}"),
        }
    }
}

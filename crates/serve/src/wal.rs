//! Durability: a group-commit, segmented write-ahead log.
//!
//! Every accepted [`Mutation`] is journalled *before* it is applied to the
//! in-memory [`DeltaDataset`]. Mutations queued during one linger window
//! are framed into a **single batch record** with one batch-level CRC and
//! (when configured) one fsync — group commit. The frame layout is binary,
//! little-endian:
//!
//! ```text
//! magic "CWB1" (4B) | count u32 | first_seq u64 | payload_len u32 | crc u64
//! payload: count × mutation
//! mutation: op u8 (0=source, 1=fact, 2=cast) + length-prefixed UTF-8
//!           strings + a label/vote byte
//! ```
//!
//! `crc` is FNV-1a over `count ‖ first_seq ‖ payload_len ‖ payload`, so a
//! torn batch (crash mid-header, mid-payload, or mid-CRC) is detected as a
//! unit and dropped during replay. The log rolls into bounded **segments**
//! (`wal.000001.seg`, …) described by a small CRC'd manifest; only the
//! highest-numbered segment may carry a torn tail — corruption in a sealed
//! segment is a hard error (data loss, not a crash artefact).
//!
//! One walker reads batch frames: it yields each whole, CRC-checked batch
//! with its byte range, and when it stops it reports the valid length and
//! why it stopped. Replay reads the segments in order on the calling
//! thread, one at a time, and applies each batch as the walker yields it,
//! so recovery is bit-identical to the append stream and holds one
//! segment's bytes in memory, not the journal's. Replicas
//! ([`scan_frames`]) and [`Wal::attach_shipper`] read frames through the
//! same walker.
//!
//! With [`WalConfig::fsync`] set, [`Wal::append_batch`] fsyncs the frame
//! it wrote on the calling thread before it returns: an `Ok` means the
//! batch is durable. A failed fsync fails the append that wrote the frame.
//!
//! When [`WalConfig::compact_after_records`] records accumulate, the
//! active segment is sealed and a copy-on-write clone of the dataset
//! state is handed to a background thread, which encodes and writes the
//! snapshot **concurrently with ingest** (tmp-file rename). The drain's
//! [`Wal::compact`] seals the same way but writes its snapshot on the
//! calling thread. Both land through one step: delete the sealed segments
//! the snapshot covers, rewrite the manifest, tell the shipper.
//!
//! A **snapshot** (`snapshot.cwb`) is written in the log's own codec: one
//! CWB1 frame holding the state's canonical mutation stream (every
//! source, then every fact with its label, then each fact's votes by
//! ascending fact and source id), with the covered sequence in the
//! header's `first_seq` field. Segments and snapshots share one frame
//! reader (magic, header, CRC) and one set of field readers and writers;
//! only the payload's consumer differs. A segment's batch yields
//! mutations; a snapshot is encoded straight from the state's columns and
//! decoded straight into them, with its canonical order checked as it is
//! read. So recovery, `GET /wal/snapshot` shipping and a replica's resync
//! share one decoder and one CRC. Unlike a segment's torn tail, a
//! snapshot is all or nothing: a CRC mismatch, a truncated frame, bytes
//! after it, or a payload out of canonical order (a repeated or empty
//! name, a vote naming an unregistered name, votes out of order) are
//! [`ServeError::WalCorrupt`]. Recovery loads the snapshot, then replays
//! any batch records with `seq` greater than the snapshot's —
//! replay-then-snapshot stays idempotent. The manifest records the
//! snapshot's sequence too, and recovery refuses a directory whose
//! snapshot is missing or covers less than that.
//!
//! All I/O goes through the [`WalFs`] trait, so the crash-recovery matrix
//! drives the exact same code over the deterministic fault-injecting
//! [`crate::walfs::FaultFs`].
//!
//! With a [`ShipLog`] attached (handed to the open by a primary boot, or
//! by [`Wal::attach_shipper`]) the log also feeds replication:
//! [`Wal::append_batch`] hands each frame to the shipper once it is
//! **durable** — right after the write when fsync is off, right after its
//! fsync otherwise — so a replica can never observe state a primary crash
//! would roll back. Seals and compactions keep the shipper's segment index
//! in step with the disk.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use corroborate_core::ids::{FactId, SourceId};
use corroborate_core::truth::Label;
use corroborate_core::vote::{SourceVote, Vote};
use corroborate_obs::{Json, Observer, Span, NOOP};

use crate::delta::{DeltaDataset, Mutation};
use crate::fnv::Fnv;
use crate::metrics::saturating_nanos;
use crate::ship::{ShipLog, ShipSegment};
use crate::walfs::{StdFs, WalFile, WalFs};
use crate::ServeError;

/// Tuning for the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Snapshot-compact once this many records accumulate in the log.
    pub compact_after_records: u64,
    /// Fsync each batch frame before its append returns, and fsync seals,
    /// manifests and snapshots. Durable but slower; most tests leave it
    /// off.
    pub fsync: bool,
    /// Roll to a fresh segment once the active one reaches this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self { compact_after_records: 10_000, fsync: false, segment_bytes: 8 << 20 }
    }
}

const SNAPSHOT_FILE: &str = "snapshot.cwb";
const SNAPSHOT_TMP: &str = "snapshot.cwb.tmp";
pub(crate) const MANIFEST_FILE: &str = "wal.manifest.json";
const MANIFEST_TMP: &str = "wal.manifest.json.tmp";

/// Batch frame magic: "Corroborate Wal Batch v1".
const MAGIC: [u8; 4] = *b"CWB1";
/// Frame header length: magic + count + first_seq + payload_len + crc.
const HEADER_LEN: usize = 28;
/// Byte offset of `payload_len` in the header.
const OFF_LEN: usize = 16;
/// Byte offset of `crc` in the header.
const OFF_CRC: usize = 20;

fn batch_crc(count: u32, first_seq: u64, payload_len: u32, payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.eat(&count.to_le_bytes());
    h.eat(&first_seq.to_le_bytes());
    h.eat(&payload_len.to_le_bytes());
    h.eat(payload);
    h.finish()
}

fn seg_name(id: u64) -> String {
    format!("wal.{id:06}.seg")
}

pub(crate) fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(seg_name(id))
}

pub(crate) fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

fn parse_seg_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?.strip_suffix(".seg")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Frames and their fields

const OP_SOURCE: u8 = 0;
const OP_FACT: u8 = 1;
const OP_CAST: u8 = 2;

/// Byte offset of `count` in the header.
const OFF_COUNT: usize = 4;
/// Byte offset of `first_seq` in the header.
const OFF_SEQ: usize = 8;

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), ServeError> {
    let len = u32::try_from(s.len()).map_err(|_| ServeError::InvalidMutation {
        message: "name exceeds u32::MAX bytes".into(),
    })?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_label(buf: &mut Vec<u8>, label: Option<Label>) {
    buf.push(match label {
        None => 0,
        Some(l) if l.as_bool() => 1,
        Some(_) => 2,
    });
}

fn put_vote(buf: &mut Vec<u8>, vote: Vote) {
    buf.push(match vote {
        Vote::True => 1,
        Vote::False => 0,
    });
}

fn encode_mutation(buf: &mut Vec<u8>, m: &Mutation) -> Result<(), ServeError> {
    match m {
        Mutation::AddSource { name } => {
            buf.push(OP_SOURCE);
            put_str(buf, name)?;
        }
        Mutation::AddFact { name, label } => {
            buf.push(OP_FACT);
            put_str(buf, name)?;
            put_label(buf, *label);
        }
        Mutation::Cast { source, fact, vote } => {
            buf.push(OP_CAST);
            put_str(buf, source)?;
            put_str(buf, fact)?;
            put_vote(buf, *vote);
        }
    }
    Ok(())
}

/// Bounds-checked reader over a byte slice; every decode failure is a
/// `String` reason so callers can distinguish torn tails from hard errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn take_u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn take_u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A length-prefixed name, borrowed from the bytes.
    fn take_str(&mut self) -> Result<&'a str, String> {
        let len = self.take_u32().ok_or("truncated string length")?;
        let bytes = self.take(len as usize).ok_or("truncated string bytes")?;
        std::str::from_utf8(bytes).map_err(|_| "string is not UTF-8".to_string())
    }

    fn take_label(&mut self) -> Result<Option<Label>, String> {
        match self.take_u8().ok_or("truncated label byte")? {
            0 => Ok(None),
            1 => Ok(Some(Label::from_bool(true))),
            2 => Ok(Some(Label::from_bool(false))),
            other => Err(format!("unknown label byte {other}")),
        }
    }

    fn take_vote(&mut self) -> Result<Vote, String> {
        match self.take_u8().ok_or("truncated vote byte")? {
            1 => Ok(Vote::True),
            0 => Ok(Vote::False),
            other => Err(format!("unknown vote byte {other}")),
        }
    }

    /// Fails unless every byte was read.
    fn finish(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in batch payload".into())
        }
    }
}

fn decode_mutation(cur: &mut Cursor<'_>) -> Result<Mutation, String> {
    match cur.take_u8().ok_or("truncated op byte")? {
        OP_SOURCE => Ok(Mutation::AddSource { name: cur.take_str()?.to_owned() }),
        OP_FACT => {
            let name = cur.take_str()?.to_owned();
            Ok(Mutation::AddFact { name, label: cur.take_label()? })
        }
        OP_CAST => {
            let source = cur.take_str()?.to_owned();
            let fact = cur.take_str()?.to_owned();
            Ok(Mutation::Cast { source, fact, vote: cur.take_vote()? })
        }
        other => Err(format!("unknown op byte {other}")),
    }
}

/// Appends one frame for `first_seq` to `buf`: `payload` appends the
/// records and returns how many it wrote, and the count, payload length
/// and CRC are patched in after it.
fn write_frame(
    buf: &mut Vec<u8>,
    first_seq: u64,
    payload: impl FnOnce(&mut Vec<u8>) -> Result<usize, ServeError>,
) -> Result<(), ServeError> {
    let start = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[0u8; 4]); // count, patched below
    buf.extend_from_slice(&first_seq.to_le_bytes());
    buf.extend_from_slice(&[0u8; 12]); // payload_len + crc, patched below
    let count = u32::try_from(payload(buf)?).map_err(|_| ServeError::InvalidMutation {
        message: "frame exceeds u32::MAX records".into(),
    })?;
    let frame = &mut buf[start..];
    let payload_len =
        frame.len().checked_sub(HEADER_LEN).and_then(|n| u32::try_from(n).ok()).ok_or(
            ServeError::InvalidMutation { message: "frame payload exceeds u32::MAX bytes".into() },
        )?;
    frame[OFF_COUNT..OFF_SEQ].copy_from_slice(&count.to_le_bytes());
    frame[OFF_LEN..OFF_CRC].copy_from_slice(&payload_len.to_le_bytes());
    let crc = batch_crc(count, first_seq, payload_len, &frame[HEADER_LEN..]);
    frame[OFF_CRC..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Appends `batch` to `buf` as one framed record.
fn encode_batch(buf: &mut Vec<u8>, first_seq: u64, batch: &[Mutation]) -> Result<(), ServeError> {
    write_frame(buf, first_seq, |buf| {
        for m in batch {
            encode_mutation(buf, m)?;
        }
        Ok(batch.len())
    })
}

/// One frame's header fields and its CRC-checked payload.
struct Frame<'a> {
    count: u32,
    first_seq: u64,
    payload: &'a [u8],
}

/// Reads one whole frame at the cursor: magic, header, payload and CRC.
/// Segments and snapshots share this reader; only the payload's
/// consumer differs (a batch's mutations, or a snapshot's state).
fn read_frame<'a>(cur: &mut Cursor<'a>) -> Result<Frame<'a>, String> {
    let magic = cur.take(4).ok_or("truncated frame magic")?;
    if magic != MAGIC {
        return Err("bad frame magic".into());
    }
    let count = cur.take_u32().ok_or("truncated frame count")?;
    let first_seq = cur.take_u64().ok_or("truncated frame first_seq")?;
    let payload_len = cur.take_u32().ok_or("truncated frame payload_len")?;
    let crc = cur.take_u64().ok_or("truncated frame crc")?;
    let payload = cur.take(payload_len as usize).ok_or("truncated frame payload")?;
    if batch_crc(count, first_seq, payload_len, payload) != crc {
        return Err("batch crc mismatch".into());
    }
    Ok(Frame { count, first_seq, payload })
}

/// One decoded batch frame, from a segment or from shipped WAL bytes.
#[derive(Debug, Clone)]
pub struct ShippedBatch {
    /// Sequence number of the batch's first mutation.
    pub first_seq: u64,
    /// The decoded mutations, in append order.
    pub mutations: Vec<Mutation>,
}

impl ShippedBatch {
    /// Sequence number of the batch's last mutation.
    pub fn last_seq(&self) -> u64 {
        self.first_seq.saturating_add((self.mutations.len() as u64).saturating_sub(1))
    }
}

/// The one reader of batch frames. It walks concatenated CRC'd batch
/// frames (a segment, a tail response, a shipped segment) and yields each
/// whole batch in order, CRC-checked and with every mutation decoded,
/// beside the frame's byte range. It stops at the first frame that is
/// torn, corrupt or empty: `valid_len` is then the byte length of the
/// frames it yielded, and `torn` says why it stopped before the end.
struct Frames<'a> {
    cur: Cursor<'a>,
    /// Byte length of the whole frames yielded so far.
    valid_len: usize,
    /// Why the walk stopped before the end of the bytes, once it has.
    torn: Option<String>,
}

impl<'a> Frames<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { cur: Cursor::new(bytes), valid_len: 0, torn: None }
    }

    /// Reads the frame at the cursor and decodes its batch.
    fn batch(&mut self) -> Result<ShippedBatch, String> {
        let frame = read_frame(&mut self.cur)?;
        let mut pc = Cursor::new(frame.payload);
        // Every mutation takes at least one payload byte: a forged count
        // cannot reserve more than the frame actually carries.
        let mut mutations = Vec::with_capacity((frame.count as usize).min(frame.payload.len()));
        for _ in 0..frame.count {
            mutations.push(decode_mutation(&mut pc)?);
        }
        pc.finish()?;
        // Only a snapshot frame may be empty; the log never writes one.
        if mutations.is_empty() {
            return Err("empty batch frame".into());
        }
        Ok(ShippedBatch { first_seq: frame.first_seq, mutations })
    }
}

impl Iterator for Frames<'_> {
    type Item = (ShippedBatch, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.cur.pos;
        if self.torn.is_some() || start >= self.cur.buf.len() {
            return None;
        }
        match self.batch() {
            Ok(batch) => {
                self.valid_len = self.cur.pos;
                Some((batch, start..self.cur.pos))
            }
            Err(reason) => {
                self.torn = Some(format!("offset {start}: {reason}"));
                None
            }
        }
    }
}

/// Result of scanning shipped WAL bytes (tail frames or a whole segment).
#[derive(Debug, Clone, Default)]
pub struct FrameScan {
    /// Whole decodable batches, in stream order.
    pub batches: Vec<ShippedBatch>,
    /// Byte length of the decodable prefix.
    pub valid_len: u64,
    /// Why decoding stopped before the end of the bytes, if it did.
    pub torn: Option<String>,
}

/// Decodes a shipped byte stream (concatenated CRC'd batch frames) down to
/// its valid prefix: the frame walker recovery replays segments with,
/// collected, so replicas apply shipped segments and tail responses
/// through the same reader.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut frames = Frames::new(bytes);
    let batches = frames.by_ref().map(|(batch, _)| batch).collect();
    FrameScan { batches, valid_len: frames.valid_len as u64, torn: frames.torn }
}

// ---------------------------------------------------------------------------
// Segments and the manifest

/// Advisory manifest contents; recovery treats the directory scan as
/// authoritative and uses this only to demand that the snapshot covers
/// `snapshot_seq` and that listed-but-missing segments are fully covered
/// by the snapshot.
struct ManifestInfo {
    snapshot_seq: u64,
    sealed: Vec<ShipSegment>,
}

/// Canonical manifest JSON (without the `crc` key) — both the writer and
/// the verifier serialize through here, so the digest can't drift.
fn manifest_body(active: u64, snapshot_seq: u64, sealed: &[ShipSegment]) -> Json {
    let mut root = Json::object();
    root.insert("report", "corroborate_wal_manifest");
    root.insert("schema_version", 1u64);
    root.insert("active", active);
    root.insert("snapshot_seq", snapshot_seq);
    root.insert("sealed", Json::Arr(sealed.iter().map(|s| s.to_json()).collect()));
    root
}

fn read_manifest(fs: &dyn WalFs, dir: &Path) -> Option<ManifestInfo> {
    let bytes = fs.read(&dir.join(MANIFEST_FILE)).ok()?;
    let text = String::from_utf8(bytes).ok()?;
    let root = Json::parse(&text).ok()?;
    let field =
        |key: &str| root.get(key).and_then(Json::as_i64).and_then(|v| u64::try_from(v).ok());
    let active = field("active")?;
    let snapshot_seq = field("snapshot_seq")?;
    let sealed: Vec<ShipSegment> = root
        .get("sealed")?
        .as_array()?
        .iter()
        .map(ShipSegment::from_json)
        .collect::<Option<_>>()?;
    let stored = root.get("crc").and_then(Json::as_str)?;
    let expected = format!(
        "{:016x}",
        Fnv::of(manifest_body(active, snapshot_seq, &sealed).to_json().as_bytes())
    );
    if stored != expected {
        return None;
    }
    Some(ManifestInfo { snapshot_seq, sealed })
}

// ---------------------------------------------------------------------------
// The WAL itself

/// Receipt for one group-commit append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReceipt {
    /// Sequence number of the batch's first mutation.
    pub first_seq: u64,
    /// Mutations in the batch.
    pub count: u64,
    /// Framed bytes written (header + payload).
    pub bytes: u64,
    /// Latency of this batch's own fsync; `None` when fsync is off.
    pub fsync_nanos: Option<u64>,
    /// Whether this append rolled the log into a fresh segment.
    pub sealed: bool,
}

impl BatchReceipt {
    /// Sequence number of the batch's last mutation (`first_seq - 1` for
    /// an empty batch, saturating at 0).
    fn last_seq(&self) -> u64 {
        self.first_seq.saturating_add(self.count).saturating_sub(1)
    }
}

/// Recovered state: the rebuilt dataset and the log position to resume at.
#[derive(Debug)]
pub struct Recovery {
    /// The rebuilt stream state.
    pub dataset: DeltaDataset,
    /// Sequence number the next appended record will take.
    pub next_seq: u64,
    /// Records replayed from the log (not counting the snapshot).
    pub replayed: u64,
    /// Whether a torn tail record was detected and dropped.
    pub dropped_torn_tail: bool,
    /// Segment files decoded during replay.
    pub segments: u64,
}

/// Recovery's replay state, carried from one segment to the next.
struct Replay {
    dataset: DeltaDataset,
    snapshot_seq: u64,
    /// The last sequence applied or skipped; `None` before the first batch.
    cursor: Option<u64>,
    /// Records applied (those past the snapshot).
    replayed: u64,
}

/// What replaying one segment found.
#[derive(Default)]
struct ReplayedSegment {
    /// First and last sequence of its whole batches; `None` if it has none.
    seqs: Option<(u64, u64)>,
    /// Byte length of its whole batches.
    valid_len: u64,
    /// Whether a torn tail follows them.
    torn: bool,
    /// Whole batches replayed, for the `segment_replay` span.
    batches: u64,
    /// Each batch's first seq, last seq and frame bytes, when asked for.
    frames: Vec<(u64, u64, Vec<u8>)>,
}

impl Replay {
    /// Replays segment `id`: applies each whole batch of `bytes` as the
    /// walker yields it and, with `keep_frames`, copies its frame for the
    /// ship log.
    ///
    /// # Errors
    /// A torn `sealed` segment (reported before any error in its batches,
    /// as when a segment was checked whole before any was applied), a
    /// sequence gap, or a record that does not apply.
    fn segment(
        &mut self,
        id: u64,
        bytes: &[u8],
        sealed: bool,
        keep_frames: bool,
    ) -> Result<ReplayedSegment, ServeError> {
        let mut frames = Frames::new(bytes);
        let mut out = ReplayedSegment::default();
        let applied = frames.by_ref().try_for_each(|(batch, range)| {
            let last = self.batch(id, &batch)?;
            out.seqs = Some((out.seqs.map_or(batch.first_seq, |(first, _)| first), last));
            out.batches = out.batches.saturating_add(1);
            if keep_frames {
                out.frames.push((batch.first_seq, last, bytes[range].to_vec()));
            }
            Ok::<_, ServeError>(())
        });
        if sealed {
            // Damage anywhere in a sealed segment outranks an error in its
            // batches, so walk on past a batch that failed (a no-op when
            // the walk ran to the end).
            frames.by_ref().for_each(drop);
            if let Some(reason) = &frames.torn {
                return Err(ServeError::WalCorrupt {
                    message: format!("sealed segment {id}: {reason}"),
                });
            }
        }
        applied?;
        out.valid_len = frames.valid_len as u64;
        out.torn = frames.torn.is_some();
        Ok(out)
    }

    /// Checks that `batch` (of segment `id`) follows the last batch
    /// replayed, applies its records past the snapshot, and returns its
    /// last seq.
    fn batch(&mut self, id: u64, batch: &ShippedBatch) -> Result<u64, ServeError> {
        let corrupt =
            |reason: String| ServeError::WalCorrupt { message: format!("segment {id}: {reason}") };
        let first = batch.first_seq;
        let count = batch.mutations.len() as u64;
        let last = first
            .checked_add(count)
            .and_then(|v| v.checked_sub(1))
            .ok_or_else(|| corrupt("batch seq out of range".into()))?;
        match self.cursor {
            None if first > self.snapshot_seq.saturating_add(1) => {
                return Err(corrupt(format!(
                    "sequence gap after snapshot ({first} > {})",
                    self.snapshot_seq.saturating_add(1)
                )));
            }
            Some(prev) if Some(first) != prev.checked_add(1) => {
                return Err(corrupt(format!(
                    "sequence gap ({first} != {})",
                    prev.saturating_add(1)
                )));
            }
            _ => {}
        }
        for (j, m) in batch.mutations.iter().enumerate() {
            if first.saturating_add(j as u64) > self.snapshot_seq {
                self.dataset.apply(m)?;
                self.replayed = self.replayed.saturating_add(1);
            }
        }
        self.cursor = Some(last);
        Ok(last)
    }
}

/// In-flight background snapshot compaction.
#[derive(Debug)]
struct CompactionTask {
    handle: JoinHandle<Result<(), ServeError>>,
    /// Sequence the snapshot being written covers.
    snapshot_seq: u64,
    /// Sealed segment ids the snapshot makes redundant.
    covered: Vec<u64>,
}

/// An open write-ahead log rooted at a directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    fs: Arc<dyn WalFs>,
    config: WalConfig,
    active: Box<dyn WalFile>,
    active_id: u64,
    active_bytes: u64,
    /// Whether the active segment holds bytes written since its last
    /// successful sync; seal and flush sync it only then.
    active_unsynced: bool,
    active_first_seq: Option<u64>,
    active_last_seq: u64,
    sealed: Vec<ShipSegment>,
    next_seq: u64,
    records_since_snapshot: u64,
    /// Highest sequence folded into the on-disk snapshot.
    snapshot_seq: u64,
    /// Frame encoding buffer, reused across appends.
    buf: Vec<u8>,
    compaction: Option<CompactionTask>,
    /// Replication feed, when attached (see [`Wal::attach_shipper`]).
    shipper: Option<Arc<ShipLog>>,
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Some(task) = self.compaction.take() {
            let _ = task.handle.join();
        }
    }
}

impl Wal {
    /// Opens (creating if needed) the log in `dir` on the real filesystem
    /// and recovers the state: snapshot first, then surviving log batches.
    ///
    /// # Errors
    /// I/O failures, snapshot corruption, or non-tail log corruption.
    pub fn open(dir: &Path, config: WalConfig) -> Result<(Self, Recovery), ServeError> {
        Self::open_with(dir, config, Arc::new(StdFs), &NOOP)
    }

    /// [`Self::open`] over an arbitrary [`WalFs`] (the fault-injection
    /// suite passes [`crate::walfs::FaultFs`]) and with telemetry: the
    /// whole recovery runs under a [`Span::WalReplay`] span (end payload:
    /// replayed record count), with one [`Span::SegmentReplay`] child per
    /// segment covering its read, decode and apply (end payload: batches
    /// replayed).
    ///
    /// # Errors
    /// I/O failures, snapshot corruption, or non-tail log corruption.
    pub fn open_with<O: Observer>(
        dir: &Path,
        config: WalConfig,
        fs: Arc<dyn WalFs>,
        obs: &O,
    ) -> Result<(Self, Recovery), ServeError> {
        Self::open_from(dir, config, fs, obs, None, None)
    }

    /// [`Self::open_with`], given the snapshot a caller has just
    /// installed in `dir` (see [`replace_with_snapshot`]) as its decoded
    /// seq and state, so recovery does not read the file back, and the
    /// [`ShipLog`] to feed, if any. The ship log is seeded as
    /// [`Self::attach_shipper`] seeds it, from the active segment's frames
    /// the replay has already read and checked.
    ///
    /// # Errors
    /// I/O failures, snapshot corruption, or non-tail log corruption.
    pub(crate) fn open_from<O: Observer>(
        dir: &Path,
        config: WalConfig,
        fs: Arc<dyn WalFs>,
        obs: &O,
        installed: Option<(u64, DeltaDataset)>,
        shipper: Option<Arc<ShipLog>>,
    ) -> Result<(Self, Recovery), ServeError> {
        if !O::ENABLED {
            return Self::open_inner(dir, config, fs, obs, installed, shipper);
        }
        obs.span_begin(Span::WalReplay, 0);
        let start = Instant::now();
        let result = Self::open_inner(dir, config, fs, obs, installed, shipper);
        obs.span(Span::WalReplay, saturating_nanos(start));
        let replayed = result.as_ref().map_or(0, |(_, recovery)| recovery.replayed);
        obs.span_end(Span::WalReplay, replayed);
        result
    }

    fn open_inner<O: Observer>(
        dir: &Path,
        config: WalConfig,
        fs: Arc<dyn WalFs>,
        obs: &O,
        installed: Option<(u64, DeltaDataset)>,
        shipper: Option<Arc<ShipLog>>,
    ) -> Result<(Self, Recovery), ServeError> {
        fs.create_dir_all(dir)?;
        let snapshot_path = snapshot_path(dir);
        let have_snapshot = installed.is_some() || fs.exists(&snapshot_path);
        // The snapshot's state is the epoch baseline: nothing in it is dirty.
        let (snapshot_seq, dataset) = match installed {
            Some(snapshot) => snapshot,
            None if have_snapshot => decode_snapshot(&fs.read(&snapshot_path)?)?,
            None => (0, DeltaDataset::new()),
        };
        // The snapshot's seq comes straight off disk: a corrupt u64::MAX
        // must surface as corruption, not wrap to 0.
        let mut next_seq = snapshot_seq.checked_add(1).ok_or_else(|| ServeError::WalCorrupt {
            message: "snapshot: seq out of range".into(),
        })?;

        // Directory scan is authoritative; the manifest only adds the
        // missing-sealed-segment check below.
        let mut seg_ids: Vec<u64> =
            fs.list(dir)?.iter().filter_map(|name| parse_seg_name(name)).collect();
        seg_ids.sort_unstable();
        if let Some(manifest) = read_manifest(fs.as_ref(), dir) {
            // A snapshot only ever lands before the manifest that records
            // it, so a valid manifest naming a newer one means the
            // snapshot was lost, not that a crash interrupted compaction.
            if manifest.snapshot_seq > snapshot_seq {
                let found = if have_snapshot {
                    format!("the snapshot covers only seq {snapshot_seq}")
                } else {
                    "the snapshot is missing".to_string()
                };
                return Err(ServeError::WalCorrupt {
                    message: format!(
                        "manifest records a snapshot at seq {} but {found}",
                        manifest.snapshot_seq
                    ),
                });
            }
            for meta in &manifest.sealed {
                if !seg_ids.contains(&meta.id) && meta.last_seq > snapshot_seq {
                    return Err(ServeError::WalCorrupt {
                        message: format!(
                            "manifest lists segment {} (seqs {}..={}) missing from disk and \
                             not covered by the snapshot (seq {snapshot_seq})",
                            meta.id, meta.first_seq, meta.last_seq
                        ),
                    });
                }
            }
        }

        // One segment at a time: each batch is applied as the walker
        // yields it, so a boot holds one segment's bytes, not the journal.
        let mut replay = Replay { dataset, snapshot_seq, cursor: None, replayed: 0 };
        let mut dropped_torn_tail = false;
        let mut sealed = Vec::new();
        let mut active_frames = Vec::new();
        let (mut active_id, mut active_bytes, mut active_seqs) = (1, 0, None);
        for (i, &id) in seg_ids.iter().enumerate() {
            let is_active = i.saturating_add(1) == seg_ids.len();
            if O::ENABLED {
                obs.span_begin(Span::SegmentReplay, id);
            }
            let start = Instant::now();
            let segment = fs.read(&seg_path(dir, id)).map_err(ServeError::from).and_then(|bytes| {
                replay.segment(id, &bytes, !is_active, is_active && shipper.is_some())
            });
            if O::ENABLED {
                obs.span(Span::SegmentReplay, saturating_nanos(start));
                obs.span_end(Span::SegmentReplay, segment.as_ref().map_or(0, |s| s.batches));
            }
            let segment = segment?;
            if is_active {
                dropped_torn_tail = segment.torn;
                (active_id, active_bytes, active_seqs) = (id, segment.valid_len, segment.seqs);
                active_frames = segment.frames;
            } else if let Some((first_seq, last_seq)) = segment.seqs {
                sealed.push(ShipSegment { id, first_seq, last_seq, bytes: segment.valid_len });
            }
        }
        let Replay { dataset, cursor, replayed, .. } = replay;
        if let Some(last) = cursor {
            let after = last.checked_add(1).ok_or_else(|| ServeError::WalCorrupt {
                message: "log: seq out of range".into(),
            })?;
            next_seq = next_seq.max(after);
        }
        let active_path = seg_path(dir, active_id);
        if seg_ids.is_empty() {
            let _ = fs.create(&active_path)?;
        } else if dropped_torn_tail {
            fs.set_len(&active_path, active_bytes)?;
        }

        let active = fs.open_append(&active_path)?;
        let mut wal = Self {
            dir: dir.to_path_buf(),
            fs,
            config,
            active,
            active_id,
            active_bytes,
            // Recovered bytes may never have been synced.
            active_unsynced: active_bytes > 0,
            active_first_seq: active_seqs.map(|(first, _)| first),
            active_last_seq: active_seqs.map_or(0, |(_, last)| last),
            sealed,
            next_seq,
            records_since_snapshot: replayed,
            snapshot_seq,
            buf: Vec::new(),
            compaction: None,
            shipper: None,
        };
        if let Some(shipper) = shipper {
            wal.ship_from(shipper, active_frames);
        }
        let segments = seg_ids.len() as u64;
        let recovery = Recovery { dataset, next_seq, replayed, dropped_torn_tail, segments };
        Ok((wal, recovery))
    }

    /// Appends one mutation (a batch of one), returning its sequence
    /// number. The caller is responsible for compaction via
    /// [`Self::maybe_compact`].
    ///
    /// # Errors
    /// I/O failures.
    pub fn append(&mut self, mutation: &Mutation) -> Result<u64, ServeError> {
        self.append_batch(std::slice::from_ref(mutation)).map(|r| r.first_seq)
    }

    /// Group commit: frames the whole batch as one record with one CRC,
    /// writes it in a single `write_all`, fsyncs it when
    /// [`WalConfig::fsync`] is set, and only then hands it to the attached
    /// [`ShipLog`]. So with fsync on, an `Ok` means the batch is durable
    /// and shipped. An empty batch is a no-op.
    ///
    /// # Errors
    /// I/O failures, this batch's own fsync failure included (its frame
    /// is then not shipped).
    pub fn append_batch(&mut self, batch: &[Mutation]) -> Result<BatchReceipt, ServeError> {
        self.append_batch_observed(batch, &NOOP)
    }

    /// [`Self::append_batch`] with telemetry: the frame write runs under
    /// [`Span::WalAppend`] and its fsync under [`Span::WalFsync`] (payload
    /// of both: the first sequence), a segment roll under
    /// [`Span::WalSeal`].
    ///
    /// # Errors
    /// I/O failures (see [`Self::append_batch`]).
    pub fn append_batch_observed<O: Observer>(
        &mut self,
        batch: &[Mutation],
        obs: &O,
    ) -> Result<BatchReceipt, ServeError> {
        Ok(self.append_batches_observed(&[batch], obs)?[0])
    }

    /// Group commit of several batches, one frame each: the bytes, the
    /// sequence numbers and the segment rolls are those of one
    /// [`Self::append_batch`] per batch in order, but the frames that land
    /// in one segment go out in one write and, when [`WalConfig::fsync`]
    /// is set, one fsync, before any of them is shipped. Returns one
    /// receipt per batch; each carries the latency of the fsync that made
    /// its frame durable. Empty batches write nothing.
    ///
    /// # Errors
    /// As [`Self::append_batch`]. The frames of segments sealed before the
    /// failure stay written, synced and shipped.
    pub fn append_batches_observed<O: Observer>(
        &mut self,
        batches: &[&[Mutation]],
        obs: &O,
    ) -> Result<Vec<BatchReceipt>, ServeError> {
        let exhausted = || ServeError::WalCorrupt { message: "sequence counter exhausted".into() };
        let mut receipts = Vec::with_capacity(batches.len());
        // `buf` holds the frames not yet written, whose receipts start at
        // `unwritten`.
        self.buf.clear();
        let mut unwritten = 0;
        let mut first_seq = self.next_seq;
        for batch in batches {
            if batch.is_empty() {
                receipts.push(BatchReceipt {
                    first_seq,
                    count: 0,
                    bytes: 0,
                    fsync_nanos: None,
                    sealed: false,
                });
                continue;
            }
            let start = self.buf.len();
            encode_batch(&mut self.buf, first_seq, batch)?;
            let frame_len = self.buf.len().saturating_sub(start) as u64;
            let before = self.active_bytes.saturating_add(start as u64);
            let sealed = before > 0 && before.saturating_add(frame_len) > self.config.segment_bytes;
            if sealed {
                // Land the frames before this one, then roll where one
                // append per batch would.
                self.write_frames(start, &mut receipts[unwritten..], obs)?;
                self.seal_observed(obs)?;
                unwritten = receipts.len();
            }
            let count = batch.len() as u64;
            let last = first_seq.checked_add(count.saturating_sub(1)).ok_or_else(exhausted)?;
            receipts.push(BatchReceipt {
                first_seq,
                count,
                bytes: frame_len,
                fsync_nanos: None,
                sealed,
            });
            first_seq = last.checked_add(1).ok_or_else(exhausted)?;
        }
        self.write_frames(self.buf.len(), &mut receipts[unwritten..], obs)?;
        Ok(receipts)
    }

    /// Writes the first `len` bytes of `buf`, the frames of `receipts`'
    /// non-empty batches, in one write to the active segment; fsyncs them
    /// once when configured, recording the latency in each receipt; ships
    /// them; and drops them from `buf`.
    fn write_frames<O: Observer>(
        &mut self,
        len: usize,
        receipts: &mut [BatchReceipt],
        obs: &O,
    ) -> Result<(), ServeError> {
        let Some(first) = receipts.iter().find(|r| r.count > 0).map(|r| r.first_seq) else {
            return Ok(());
        };
        self.active_unsynced = true;
        obs.traced(Span::WalAppend, first, || self.active.write_all(&self.buf[..len]))?;
        self.active_bytes = self.active_bytes.saturating_add(len as u64);
        for r in receipts.iter().filter(|r| r.count > 0) {
            self.active_first_seq.get_or_insert(r.first_seq);
            self.active_last_seq = r.last_seq();
            self.next_seq = r.last_seq().saturating_add(1);
            self.records_since_snapshot = self.records_since_snapshot.saturating_add(r.count);
        }
        if self.config.fsync {
            let nanos = self.sync_active(obs, first)?;
            for r in receipts.iter_mut().filter(|r| r.count > 0) {
                r.fsync_nanos = Some(nanos);
            }
        }
        if let Some(ship) = &self.shipper {
            let mut at = 0usize;
            for r in receipts.iter().filter(|r| r.count > 0) {
                let end = at.saturating_add(r.bytes as usize);
                ship.frame_durable(r.first_seq, r.last_seq(), &self.buf[at..end]);
                at = end;
            }
        }
        self.buf.drain(..len);
        Ok(())
    }

    /// Fsyncs the active segment under a [`Span::WalFsync`] span with
    /// payload `seq`, returning the latency.
    fn sync_active<O: Observer>(&mut self, obs: &O, seq: u64) -> Result<u64, ServeError> {
        if O::ENABLED {
            obs.span_begin(Span::WalFsync, seq);
        }
        let start = Instant::now();
        let synced = self.active.sync_data();
        let nanos = saturating_nanos(start);
        if O::ENABLED {
            obs.span(Span::WalFsync, nanos);
            obs.span_end(Span::WalFsync, seq);
        }
        synced?;
        self.active_unsynced = false;
        Ok(nanos)
    }

    /// Syncs the active segment when fsync is configured and it holds
    /// bytes no successful sync has covered, returning the latency; `None`
    /// when no sync was needed. Every frame an `Ok` append wrote is
    /// already durable, so this syncs only what a failed append or a
    /// recovered segment left unsynced: an explicit barrier for callers
    /// that want one.
    ///
    /// # Errors
    /// I/O failures.
    pub fn flush(&mut self) -> Result<Option<u64>, ServeError> {
        if !self.config.fsync || !self.active_unsynced {
            return Ok(None);
        }
        let seq = self.next_seq.saturating_sub(1);
        self.sync_active(&NOOP, seq).map(Some)
    }

    /// Seals the active segment (fsync barrier, manifest rewrite) and
    /// rolls to a fresh one. No-op when the active segment is empty.
    fn seal_observed<O: Observer>(&mut self, obs: &O) -> Result<(), ServeError> {
        if self.active_bytes == 0 {
            return Ok(());
        }
        obs.traced(Span::WalSeal, self.active_id, || self.seal_inner())
    }

    fn seal_inner(&mut self) -> Result<(), ServeError> {
        if self.config.fsync && self.active_unsynced {
            self.active.sync_data()?;
        }
        let segment = ShipSegment {
            id: self.active_id,
            first_seq: self.active_first_seq.unwrap_or(self.next_seq),
            last_seq: self.active_last_seq,
            bytes: self.active_bytes,
        };
        self.sealed.push(segment);
        if let Some(ship) = &self.shipper {
            ship.segment_sealed(segment);
        }
        let next_id = self.active_id.checked_add(1).ok_or_else(|| ServeError::WalCorrupt {
            message: "segment id space exhausted".into(),
        })?;
        self.active = self.fs.create(&seg_path(&self.dir, next_id))?;
        self.active_id = next_id;
        self.active_bytes = 0;
        self.active_unsynced = false;
        self.active_first_seq = None;
        self.active_last_seq = 0;
        self.write_manifest()?;
        Ok(())
    }

    /// Rewrites the CRC'd manifest via tmp + rename.
    fn write_manifest(&self) -> Result<(), ServeError> {
        let mut root = manifest_body(self.active_id, self.snapshot_seq, &self.sealed);
        let crc = Fnv::of(root.to_json().as_bytes());
        root.insert("crc", format!("{crc:016x}"));
        let tmp = self.dir.join(MANIFEST_TMP);
        let mut f = self.fs.create(&tmp)?;
        f.write_all(root.to_json().as_bytes())?;
        if self.config.fsync {
            f.sync_data()?;
        }
        drop(f);
        self.fs.rename(&tmp, &self.dir.join(MANIFEST_FILE))?;
        Ok(())
    }

    /// Number of records appended or replayed since the last snapshot.
    pub fn records_since_snapshot(&self) -> u64 {
        self.records_since_snapshot
    }

    /// Segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len().saturating_add(1)
    }

    /// Whether a background compaction is currently running.
    pub fn compaction_in_flight(&self) -> bool {
        self.compaction.is_some()
    }

    /// Drives background compaction: collects a finished snapshot (deleting
    /// the sealed segments it covers) and starts a new one when the record
    /// count crossed the configured threshold. Snapshots are written on a
    /// background thread so ingest keeps appending concurrently. Returns
    /// whether a snapshot *landed* (use to count `snapshots_written`).
    ///
    /// # Errors
    /// I/O failures from a finished snapshot or the seal that starts one.
    pub fn maybe_compact(&mut self, dataset: &DeltaDataset) -> Result<bool, ServeError> {
        let landed = self.poll_compaction(false)?;
        if self.compaction.is_none()
            && self.records_since_snapshot >= self.config.compact_after_records
        {
            self.start_compaction(dataset)?;
        }
        Ok(landed)
    }

    /// Collects the in-flight background snapshot. `block` waits for it;
    /// otherwise only a finished task is collected.
    fn poll_compaction(&mut self, block: bool) -> Result<bool, ServeError> {
        let finished = match &self.compaction {
            Some(task) => block || task.handle.is_finished(),
            None => false,
        };
        if !finished {
            return Ok(false);
        }
        let Some(task) = self.compaction.take() else { return Ok(false) };
        match task.handle.join() {
            Ok(result) => result?,
            Err(_) => {
                return Err(ServeError::Io(io::Error::other("wal compaction thread panicked")))
            }
        }
        self.land_snapshot(task.snapshot_seq, &task.covered)?;
        Ok(true)
    }

    /// Seals the active segment, so that a snapshot of the state now
    /// covers exactly the sealed segments, and returns that snapshot's
    /// seq and the sealed segment ids. The fresh active segment keeps
    /// appending while the snapshot is written.
    fn seal_for_snapshot(&mut self) -> Result<(u64, Vec<u64>), ServeError> {
        self.seal_observed(&NOOP)?;
        let snapshot_seq = self.next_seq.saturating_sub(1);
        Ok((snapshot_seq, self.sealed.iter().map(|m| m.id).collect()))
    }

    /// Lands a snapshot on disk that covers `snapshot_seq` and the sealed
    /// segments `covered`: deletes them, rewrites the manifest and tells
    /// the shipper. Background and drain compactions both end here.
    fn land_snapshot(&mut self, snapshot_seq: u64, covered: &[u64]) -> Result<(), ServeError> {
        self.snapshot_seq = snapshot_seq;
        self.sealed.retain(|m| !covered.contains(&m.id));
        for id in covered {
            self.fs.remove_file(&seg_path(&self.dir, *id))?;
        }
        self.records_since_snapshot =
            self.next_seq.saturating_sub(1).saturating_sub(self.snapshot_seq);
        self.write_manifest()?;
        if let Some(ship) = &self.shipper {
            ship.compacted(self.snapshot_seq, covered);
        }
        Ok(())
    }

    /// Seals the active segment and spawns the background snapshot writer,
    /// which encodes and writes a copy-on-write clone of `dataset`: the
    /// calling thread pays O(facts / chunk + shards) for the clone, and
    /// later mutations of `dataset` never reach the snapshot.
    fn start_compaction(&mut self, dataset: &DeltaDataset) -> Result<(), ServeError> {
        let (snapshot_seq, covered) = self.seal_for_snapshot()?;
        let state = dataset.clone();
        let fs = Arc::clone(&self.fs);
        let dir = self.dir.clone();
        let fsync = self.config.fsync;
        let handle = std::thread::Builder::new().name("wal-compact".into()).spawn(move || {
            let snapshot = encode_snapshot(&state, snapshot_seq)?;
            // Release the clone's chunks before the write and its fsync.
            drop(state);
            write_snapshot(fs.as_ref(), &dir, &snapshot, fsync)
        })?;
        self.compaction = Some(CompactionTask { handle, snapshot_seq, covered });
        Ok(())
    }

    /// Synchronous compaction for the drain path: waits for any in-flight
    /// background snapshot, seals the active segment, writes a fresh
    /// snapshot of `dataset` (which must reflect every appended record) on
    /// the calling thread, and lands it as a background compaction lands,
    /// which deletes every sealed segment.
    ///
    /// # Errors
    /// I/O failures. On error the previous snapshot (if any) is preserved.
    pub fn compact(&mut self, dataset: &DeltaDataset) -> Result<(), ServeError> {
        // A concurrent snapshot may land first; ours below is fresher.
        let _ = self.poll_compaction(true)?;
        let (snapshot_seq, covered) = self.seal_for_snapshot()?;
        let snapshot = encode_snapshot(dataset, snapshot_seq)?;
        write_snapshot(self.fs.as_ref(), &self.dir, &snapshot, self.config.fsync)?;
        self.land_snapshot(snapshot_seq, &covered)
    }

    /// Sequence number the next appended record will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest sequence folded into the on-disk snapshot.
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Attaches a [`ShipLog`] and seeds it from the on-disk state:
    /// sealed segment metadata, the frames of the active segment (all
    /// durable — they survived recovery), and the snapshot floor.
    /// Subsequent appends, seals, and compactions keep the log current;
    /// with fsync configured an append ships its frame only after the
    /// frame's fsync succeeds, so replicas never observe state a primary
    /// crash would roll back. This reads the active segment back from disk
    /// through the frame walker; a primary boot instead hands its ship log
    /// to the open, which seeds it from the frames it replayed.
    ///
    /// # Errors
    /// I/O failures re-reading the active segment.
    pub fn attach_shipper(&mut self, shipper: Arc<ShipLog>) -> Result<(), ServeError> {
        let mut frames = Vec::new();
        if self.active_bytes > 0 {
            let bytes = self.fs.read(&seg_path(&self.dir, self.active_id))?;
            let valid = usize::try_from(self.active_bytes).unwrap_or(bytes.len()).min(bytes.len());
            frames = Frames::new(&bytes[..valid])
                .map(|(batch, range)| (batch.first_seq, batch.last_seq(), bytes[range].to_vec()))
                .collect();
        }
        self.ship_from(shipper, frames);
        Ok(())
    }

    /// Seeds `shipper` with the log's position, its sealed segments and
    /// `active_frames` (first seq, last seq, frame bytes), and attaches it.
    fn ship_from(&mut self, shipper: Arc<ShipLog>, active_frames: Vec<(u64, u64, Vec<u8>)>) {
        shipper.bootstrap(
            Arc::clone(&self.fs),
            self.dir.clone(),
            self.snapshot_seq,
            self.next_seq,
            self.sealed.clone(),
            active_frames,
        );
        self.shipper = Some(shipper);
    }
}

/// Encodes `dataset`'s state as a snapshot covering `seq`, straight from
/// its columns: one frame with `seq` in the header's `first_seq` field,
/// holding every source, then every fact with its label, then each
/// fact's votes as casts in ascending source order.
fn encode_snapshot(dataset: &DeltaDataset, seq: u64) -> Result<Vec<u8>, ServeError> {
    let mut buf = Vec::new();
    write_frame(&mut buf, seq, |buf| {
        let sources: Vec<&str> = dataset.source_names().collect();
        for name in &sources {
            buf.push(OP_SOURCE);
            put_str(buf, name)?;
        }
        for (name, label, _) in dataset.facts() {
            buf.push(OP_FACT);
            put_str(buf, name)?;
            put_label(buf, label);
        }
        let mut casts = 0usize;
        for (name, _, votes) in dataset.facts() {
            for sv in votes {
                buf.push(OP_CAST);
                put_str(buf, sources[sv.source.index()])?;
                put_str(buf, name)?;
                put_vote(buf, sv.vote);
            }
            casts = casts.saturating_add(votes.len());
        }
        Ok(sources.len().saturating_add(dataset.n_facts()).saturating_add(casts))
    })?;
    Ok(buf)
}

/// Decodes snapshot bytes into the covered sequence and the state, built
/// straight into its columns with nothing dirty.
///
/// # Errors
/// [`ServeError::WalCorrupt`] unless `bytes` is exactly one whole frame
/// with a matching CRC (a snapshot has no valid prefix to fall back to)
/// whose payload is in the canonical order [`encode_snapshot`] writes.
fn decode_snapshot(bytes: &[u8]) -> Result<(u64, DeltaDataset), ServeError> {
    let corrupt =
        |reason: String| ServeError::WalCorrupt { message: format!("snapshot: {reason}") };
    let mut cur = Cursor::new(bytes);
    let frame = read_frame(&mut cur).map_err(corrupt)?;
    if cur.pos != bytes.len() {
        let extra = bytes.len().saturating_sub(cur.pos);
        return Err(corrupt(format!("{extra} trailing bytes after the frame")));
    }
    let state = decode_state(&frame).map_err(corrupt)?;
    Ok((frame.first_seq, state))
}

/// What a snapshot record of kind `op` is called in an error.
fn record_kind(op: u8) -> &'static str {
    match op {
        OP_SOURCE => "source",
        OP_FACT => "fact",
        _ => "vote",
    }
}

/// Builds the state a snapshot frame holds. Each name is registered by
/// one insert, which also detects a repeat; each vote is appended to its
/// fact's row in the fact's chunk as it is read, its fact found by name
/// comparison when it is the last voted fact or the one after it.
/// Anything out of the canonical order is refused: a source after a fact
/// or vote, a fact after a vote, votes not grouped by ascending fact id,
/// or sources not strictly ascending inside a fact.
fn decode_state(frame: &Frame<'_>) -> Result<DeltaDataset, String> {
    let mut state = DeltaDataset::new();
    let mut cur = Cursor::new(frame.payload);
    let mut last_op = OP_SOURCE;
    // The last vote read: its fact, the fact's name, and its source.
    let mut voted: Option<(FactId, &str, SourceId)> = None;
    for _ in 0..frame.count {
        let op = cur.take_u8().ok_or("truncated op byte")?;
        if op > OP_CAST {
            return Err(format!("unknown op byte {op}"));
        }
        if op < last_op {
            return Err(format!("a {} after a {}", record_kind(op), record_kind(last_op)));
        }
        last_op = op;
        match op {
            OP_SOURCE => {
                let name = cur.take_str()?;
                if name.is_empty() {
                    return Err("empty source name".into());
                }
                if !state.push_source(name) {
                    return Err(format!("repeated source name {name:?}"));
                }
            }
            OP_FACT => {
                let name = cur.take_str()?;
                let label = cur.take_label()?;
                if name.is_empty() {
                    return Err("empty fact name".into());
                }
                if !state.push_fact(name, label) {
                    return Err(format!("repeated fact name {name:?}"));
                }
            }
            _ => {
                let source = cur.take_str()?;
                let fact = cur.take_str()?;
                let vote = cur.take_vote()?;
                let s = state
                    .source_id(source)
                    .ok_or_else(|| format!("a vote names unregistered source {source:?}"))?;
                let f = match voted {
                    Some((f, name, prev)) if name == fact => {
                        if prev >= s {
                            return Err(format!("votes on fact {fact:?} out of source order"));
                        }
                        f
                    }
                    // Votes come grouped by ascending fact, so the next
                    // voted fact is nearly always the one after the last:
                    // comparing its name spares a hash lookup.
                    _ => match voted.map_or(0, |(prev, ..)| prev.index().saturating_add(1)) {
                        next if next < state.n_facts()
                            && state.fact_name(FactId::new(next)) == fact =>
                        {
                            FactId::new(next)
                        }
                        _ => {
                            let f = state.fact_id(fact).ok_or_else(|| {
                                format!("a vote names unregistered fact {fact:?}")
                            })?;
                            if voted.is_some_and(|(prev, ..)| prev >= f) {
                                return Err(format!("votes on fact {fact:?} out of fact order"));
                            }
                            f
                        }
                    },
                };
                state.push_votes(f, &[SourceVote { source: s, vote }]);
                voted = Some((f, fact, s));
            }
        }
    }
    cur.finish()?;
    Ok(state)
}

/// Writes snapshot bytes to `dir` atomically: temp file, optional sync,
/// rename. A crash part-way leaves the previous snapshot in place.
fn write_snapshot(fs: &dyn WalFs, dir: &Path, bytes: &[u8], fsync: bool) -> Result<(), ServeError> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut f = fs.create(&tmp)?;
    f.write_all(bytes)?;
    if fsync {
        f.sync_data()?;
    }
    drop(f);
    fs.rename(&tmp, &snapshot_path(dir))?;
    Ok(())
}

/// Replaces a log directory's whole history with `snapshot` (or with
/// nothing) — a replica's full resync — and returns the installed
/// snapshot's seq and state for [`Wal::open_from`]. The snapshot is
/// decoded first, so a corrupt, truncated or non-canonical one returns an
/// error and leaves the directory as it was. The manifest is deleted
/// before any other file, so a crash part-way never leaves a manifest
/// that names a snapshot which is gone. The installed snapshot is always
/// synced.
///
/// # Errors
/// [`ServeError::WalCorrupt`] for a bad snapshot; filesystem failures.
pub(crate) fn replace_with_snapshot(
    fs: &dyn WalFs,
    dir: &Path,
    snapshot: Option<&[u8]>,
) -> Result<Option<(u64, DeltaDataset)>, ServeError> {
    let installed = snapshot.map(decode_snapshot).transpose()?;
    fs.create_dir_all(dir)?;
    let mut names = fs.list(dir)?;
    names.sort_by_key(|name| name != MANIFEST_FILE);
    for name in names {
        fs.remove_file(&dir.join(name))?;
    }
    if let Some(bytes) = snapshot {
        write_snapshot(fs, dir, bytes, true)?;
    }
    Ok(installed)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::walfs::FaultFs;

    use super::*;

    fn cast(source: &str, fact: &str, vote: Vote) -> Mutation {
        Mutation::Cast { source: source.into(), fact: fact.into(), vote }
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("corroborate-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stream() -> Vec<Mutation> {
        vec![
            Mutation::AddSource { name: "silent".into() },
            cast("a", "f1", Vote::True),
            cast("b", "f1", Vote::False),
            Mutation::AddFact { name: "f2".into(), label: Some(Label::True) },
            cast("a", "f2", Vote::True),
        ]
    }

    #[test]
    fn batch_append_replay_rebuilds_the_state() {
        let dir = tempdir("replay");
        let stream = stream();
        let mut live = DeltaDataset::new();
        {
            let (mut wal, rec) = Wal::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(rec.next_seq, 1);
            let receipt = wal.append_batch(&stream).unwrap();
            assert_eq!(receipt.first_seq, 1);
            assert_eq!(receipt.count, 5);
            assert!(!receipt.sealed);
            for m in &stream {
                live.apply(m).unwrap();
            }
        }
        let (_, rec) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.replayed, 5);
        assert_eq!(rec.segments, 1);
        assert!(!rec.dropped_torn_tail);
        assert_eq!(rec.dataset.materialize().unwrap().votes(), live.materialize().unwrap().votes());
        assert_eq!(rec.next_seq, 6);
    }

    #[test]
    fn single_appends_interleave_with_batches() {
        let dir = tempdir("mixed");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(wal.append(&cast("a", "f1", Vote::True)).unwrap(), 1);
            let r = wal
                .append_batch(&[cast("b", "f1", Vote::False), cast("c", "f1", Vote::True)])
                .unwrap();
            assert_eq!(r.first_seq, 2);
            assert_eq!(wal.append(&cast("d", "f1", Vote::True)).unwrap(), 4);
        }
        let (_, rec) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.replayed, 4);
        assert_eq!(rec.next_seq, 5);
    }

    #[test]
    fn torn_tail_is_dropped_and_replay_resumes() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        {
            let (mut wal, _) =
                Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
            wal.append(&cast("a", "f1", Vote::True)).unwrap();
            // Crash 10 bytes into the second frame's write.
            fs.set_crash_after_write_bytes(10);
            assert!(wal.append(&cast("b", "f1", Vote::False)).is_err());
        }
        fs.reset_faults();
        let (mut wal, rec) =
            Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
        assert!(rec.dropped_torn_tail);
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.dataset.n_votes(), 1);
        // The torn record's sequence number is reused by the next append.
        assert_eq!(wal.append(&cast("c", "f1", Vote::True)).unwrap(), 2);
        drop(wal);
        let (_, rec) = Wal::open_with(&dir, WalConfig::default(), Arc::new(fs), &NOOP).unwrap();
        assert_eq!(rec.replayed, 2);
        assert!(!rec.dropped_torn_tail);
    }

    #[test]
    fn a_tail_frame_whose_crc_fails_is_never_applied() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let segment = {
            let (mut wal, _) =
                Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
            wal.append_batch(&[cast("a", "f1", Vote::True)]).unwrap();
            wal.append_batch(&[cast("b", "f2", Vote::False), cast("a", "f3", Vote::True)]).unwrap();
            seg_path(&dir, wal.active_id)
        };
        // "f2" -> "g2" inside the last frame, which keeps its old CRC.
        let at = fs.dump(&segment).unwrap().windows(2).rposition(|w| w == b"f2").unwrap();
        fs.corrupt(&segment, at).unwrap();

        let scan = scan_frames(&fs.dump(&segment).unwrap());
        assert_eq!(scan.batches.len(), 1);
        assert!(scan.torn.as_deref().unwrap().ends_with("batch crc mismatch"), "{scan:?}");
        let (_, rec) =
            Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
        assert!(rec.dropped_torn_tail);
        assert_eq!((rec.replayed, rec.next_seq), (1, 2));
        for name in ["f2", "g2", "f3"] {
            assert!(rec.dataset.fact_id(name).is_none(), "{name} was applied");
        }
        assert_eq!(fs.len(&segment), usize::try_from(scan.valid_len).ok());
    }

    #[test]
    fn sealed_segment_corruption_is_a_hard_error() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        // Tiny segments: every append rolls the log.
        let config = WalConfig { segment_bytes: 16, ..WalConfig::default() };
        {
            let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
            wal.append(&cast("a", "f1", Vote::True)).unwrap();
            wal.append(&cast("b", "f1", Vote::False)).unwrap();
            wal.append(&cast("c", "f1", Vote::True)).unwrap();
            assert!(wal.segment_count() > 1, "segments must have rolled");
        }
        // Bit-flip the first sealed segment: replay must refuse.
        fs.corrupt(&dir.join(seg_name(1)), 30).unwrap();
        let err = Wal::open_with(&dir, config, Arc::new(fs), &NOOP).unwrap_err();
        assert!(matches!(err, ServeError::WalCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("sealed segment"), "{err}");
    }

    #[test]
    fn a_missing_middle_segment_is_a_sequence_gap() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        // Tiny segments: every append rolls the log, three records each.
        let config = WalConfig { segment_bytes: 16, ..WalConfig::default() };
        {
            let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
            for i in 0..4 {
                let f = format!("f{i}");
                let batch = [cast("a", &f, Vote::True), cast("b", &f, Vote::False), add_fact(&f)];
                wal.append_batch(&batch).unwrap();
            }
            assert_eq!(wal.segment_count(), 4);
        }
        // With the manifest gone nothing lists the deleted segment, so only
        // replay's sequence check across segments can see the hole.
        fs.remove_file(&seg_path(&dir, 2)).unwrap();
        fs.remove_file(&dir.join(MANIFEST_FILE)).unwrap();
        let message = reopen_err(&fs, &dir);
        assert!(message.contains("segment 3: sequence gap (7 != 4)"), "{message}");
    }

    #[test]
    fn segments_roll_at_the_configured_size_and_replay_in_order() {
        let dir = tempdir("roll");
        let config = WalConfig { segment_bytes: 64, ..WalConfig::default() };
        let mutations: Vec<Mutation> =
            (0..40).map(|i| cast(&format!("s{i}"), &format!("f{}", i % 7), Vote::True)).collect();
        let mut live = DeltaDataset::new();
        {
            let (mut wal, _) = Wal::open(&dir, config).unwrap();
            let mut sealed = 0;
            for chunk in mutations.chunks(3) {
                let receipt = wal.append_batch(chunk).unwrap();
                if receipt.sealed {
                    sealed += 1;
                }
            }
            assert!(sealed > 2, "tiny segments must roll repeatedly (sealed {sealed})");
            for m in &mutations {
                live.apply(m).unwrap();
            }
        }
        let (_, rec) = Wal::open(&dir, config).unwrap();
        assert!(rec.segments > 3, "replay saw {} segments", rec.segments);
        assert_eq!(rec.replayed, 40);
        assert_eq!(rec.dataset.materialize().unwrap().votes(), live.materialize().unwrap().votes());
    }

    #[test]
    fn manifest_corruption_falls_back_to_the_directory_scan() {
        let dir = tempdir("manifest");
        let config = WalConfig { segment_bytes: 64, ..WalConfig::default() };
        {
            let (mut wal, _) = Wal::open(&dir, config).unwrap();
            for i in 0..20 {
                wal.append(&cast(&format!("s{i}"), "f", Vote::True)).unwrap();
            }
        }
        std::fs::write(dir.join(MANIFEST_FILE), b"{ definitely not a manifest").unwrap();
        let (_, rec) = Wal::open(&dir, config).unwrap();
        assert_eq!(rec.replayed, 20, "scan-based recovery ignores the bad manifest");
    }

    #[test]
    fn the_manifest_text_keeps_its_key_order() {
        // The CRC covers this text, so manifests already on disk verify
        // only while the writer emits exactly these bytes.
        let sealed = [ShipSegment { id: 1, first_seq: 1, last_seq: 4, bytes: 90 }];
        assert_eq!(
            manifest_body(2, 0, &sealed).to_json(),
            r#"{"report":"corroborate_wal_manifest","schema_version":1,"active":2,"snapshot_seq":0,"sealed":[{"segment":1,"first_seq":1,"last_seq":4,"bytes":90}]}"#
        );
    }

    #[test]
    fn background_compaction_then_replay_is_equivalent() {
        let dir = tempdir("compact");
        let config =
            WalConfig { compact_after_records: 3, segment_bytes: 1 << 20, ..WalConfig::default() };
        let mut live = DeltaDataset::new();
        {
            let (mut wal, _) = Wal::open(&dir, config).unwrap();
            let mutations = [
                cast("a", "f1", Vote::True),
                cast("b", "f1", Vote::False),
                cast("a", "f2", Vote::True),
                cast("c", "f3", Vote::True),
                cast("b", "f3", Vote::True),
            ];
            let mut landed = false;
            for m in &mutations {
                wal.append(m).unwrap();
                live.apply(m).unwrap();
                landed |= wal.maybe_compact(&live).unwrap();
            }
            // The background snapshot may still be in flight: poll it home.
            for _ in 0..200 {
                if landed {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
                landed |= wal.maybe_compact(&live).unwrap();
            }
            assert!(landed, "background compaction never landed");
            assert!(wal.records_since_snapshot() < 5);
        }
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let (_, rec) = Wal::open(&dir, config).unwrap();
        assert_eq!(rec.next_seq, 6);
        assert_eq!(rec.dataset.materialize().unwrap().votes(), live.materialize().unwrap().votes());
    }

    #[test]
    fn sync_compact_restarts_the_log() {
        let dir = tempdir("synccompact");
        let config = WalConfig { segment_bytes: 64, ..WalConfig::default() };
        let mut live = DeltaDataset::new();
        {
            let (mut wal, _) = Wal::open(&dir, config).unwrap();
            for i in 0..10 {
                let m = cast(&format!("s{i}"), "f", Vote::True);
                wal.append(&m).unwrap();
                live.apply(&m).unwrap();
            }
            wal.compact(&live).unwrap();
            assert_eq!(wal.records_since_snapshot(), 0);
            assert_eq!(wal.segment_count(), 1);
        }
        let (_, rec) = Wal::open(&dir, config).unwrap();
        assert_eq!(rec.replayed, 0, "everything lives in the snapshot");
        assert_eq!(rec.next_seq, 11);
        assert_eq!(rec.dataset.materialize().unwrap().votes(), live.materialize().unwrap().votes());
    }

    #[test]
    fn snapshot_with_stale_log_records_skips_by_seq() {
        // Crash window: snapshot written but segments not yet deleted —
        // records with seq <= snapshot seq must be skipped on replay.
        let dir = tempdir("staleskip");
        let mut live = DeltaDataset::new();
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            for m in [cast("a", "f1", Vote::True), cast("b", "f1", Vote::False)] {
                wal.append(&m).unwrap();
                live.apply(&m).unwrap();
            }
            let snapshot = encode_snapshot(&live, 2).unwrap();
            std::fs::write(snapshot_path(&dir), snapshot).unwrap();
        }
        let (_, rec) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.replayed, 0, "stale records skipped");
        assert_eq!(rec.dataset.n_votes(), 2);
        assert_eq!(rec.next_seq, 3);
    }

    #[test]
    fn observed_open_and_append_emit_wal_spans() {
        use corroborate_obs::{RecordingObserver, TraceKind};

        let dir = tempdir("observed");
        let obs = RecordingObserver::with_trace(256);
        let config = WalConfig { fsync: true, ..WalConfig::default() };
        {
            let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(StdFs), &obs).unwrap();
            let receipt = wal.append_batch_observed(&[cast("a", "f1", Vote::True)], &obs).unwrap();
            assert_eq!(receipt.first_seq, 1);
        }
        let (_, rec) = Wal::open_with(&dir, config, Arc::new(StdFs), &obs).unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(obs.span_histogram(Span::WalReplay).count(), 2);
        assert_eq!(obs.span_histogram(Span::WalAppend).count(), 1);
        assert_eq!(obs.span_histogram(Span::WalFsync).count(), 1, "the append's own fsync");
        assert!(obs.span_histogram(Span::SegmentReplay).count() >= 1);
        let snap = obs.trace_snapshot();
        let replay_ends: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.span == Span::WalReplay && e.kind == TraceKind::End)
            .map(|e| e.payload)
            .collect();
        // First open replays nothing, the second replays the one record.
        assert_eq!(replay_ends, vec![0, 1]);
    }

    #[test]
    fn gnarly_names_survive_the_binary_encoding() {
        let m = cast("Menu,\"Pages\"\n", "ünïcødé 寿司 \\ fact", Vote::True);
        // Once from a log segment, once from a snapshot.
        for compacted in [false, true] {
            let dir = tempdir(&format!("names-{compacted}"));
            {
                let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
                wal.append(&m).unwrap();
                if compacted {
                    let mut live = DeltaDataset::new();
                    live.apply(&m).unwrap();
                    wal.compact(&live).unwrap();
                }
            }
            let (_, rec) = Wal::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(rec.replayed, u64::from(!compacted));
            assert!(rec.dataset.source_id("Menu,\"Pages\"\n").is_some());
            assert!(rec.dataset.fact_id("ünïcødé 寿司 \\ fact").is_some());
        }
    }

    /// A FaultFs log in `/wal` holding `stream()`, drained into a snapshot.
    fn drained_to_snapshot() -> (FaultFs, PathBuf) {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let (mut wal, _) =
            Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
        let mut live = DeltaDataset::new();
        for m in stream() {
            wal.append(&m).unwrap();
            live.apply(&m).unwrap();
        }
        wal.compact(&live).unwrap();
        (fs, dir)
    }

    fn reopen_err(fs: &FaultFs, dir: &Path) -> String {
        let err = Wal::open_with(dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP)
            .expect_err("recovery must refuse");
        assert!(matches!(err, ServeError::WalCorrupt { .. }), "{err}");
        err.to_string()
    }

    #[test]
    fn a_changed_byte_inside_a_snapshot_is_corruption() {
        let (fs, dir) = drained_to_snapshot();
        let path = snapshot_path(&dir);
        let bytes = fs.dump(&path).unwrap();
        let at = bytes.windows(2).position(|w| w == b"f1").expect("fact name in the payload");
        fs.corrupt(&path, at).unwrap(); // "f1" -> "g1"
        assert!(reopen_err(&fs, &dir).contains("crc mismatch"));
        // A flipped header bit is caught too.
        let (fs, dir) = drained_to_snapshot();
        fs.corrupt(&snapshot_path(&dir), 5).unwrap();
        reopen_err(&fs, &dir);
    }

    #[test]
    fn a_truncated_or_padded_snapshot_is_corruption_not_a_prefix() {
        let (fs, dir) = drained_to_snapshot();
        let path = snapshot_path(&dir);
        let len = fs.len(&path).unwrap();
        for cut in [len - 1, HEADER_LEN + 1, HEADER_LEN - 1, 3, 0] {
            let (fs, dir) = drained_to_snapshot();
            fs.truncate_raw(&snapshot_path(&dir), cut);
            reopen_err(&fs, &dir);
        }
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(&[0]).unwrap();
        drop(f);
        assert!(reopen_err(&fs, &dir).contains("trailing bytes"));
    }

    #[test]
    fn an_empty_state_at_seq_zero_drains_and_reopens() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let fs_arc = || Arc::new(fs.clone()) as Arc<dyn WalFs>;
        {
            let (mut wal, _) = Wal::open_with(&dir, WalConfig::default(), fs_arc(), &NOOP).unwrap();
            wal.compact(&DeltaDataset::new()).unwrap();
        }
        assert!(fs.exists(&snapshot_path(&dir)));
        let (_, rec) = Wal::open_with(&dir, WalConfig::default(), fs_arc(), &NOOP).unwrap();
        assert_eq!(rec.next_seq, 1);
        assert_eq!(rec.dataset.n_facts(), 0);
        assert_eq!(rec.dataset.n_sources(), 0);
    }

    #[test]
    fn recovery_refuses_a_snapshot_older_than_the_manifest_records() {
        // Missing: a valid manifest records snapshot seq 5, no snapshot.
        let (fs, dir) = drained_to_snapshot();
        fs.remove_file(&snapshot_path(&dir)).unwrap();
        let message = reopen_err(&fs, &dir);
        assert!(message.contains("snapshot at seq 5") && message.contains("missing"), "{message}");

        // Older: the snapshot on disk covers seq 1, the manifest seq 2.
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let (mut wal, _) =
            Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
        let mut live = DeltaDataset::new();
        let mut first = None;
        for m in [cast("a", "f1", Vote::True), cast("b", "f1", Vote::False)] {
            wal.append(&m).unwrap();
            live.apply(&m).unwrap();
            wal.compact(&live).unwrap();
            first = first.or_else(|| fs.dump(&snapshot_path(&dir)));
        }
        drop(wal);
        let mut f = fs.create(&snapshot_path(&dir)).unwrap();
        f.write_all(&first.unwrap()).unwrap();
        drop(f);
        assert!(reopen_err(&fs, &dir).contains("covers only seq 1"));
    }

    #[test]
    fn replace_with_snapshot_checks_the_bytes_before_touching_the_directory() {
        let (source, source_dir) = drained_to_snapshot();
        let good = source.dump(&snapshot_path(&source_dir)).unwrap();
        let fs = FaultFs::new();
        let dir = PathBuf::from("/replica");
        {
            // An older snapshot of another history, and a log after it.
            let (mut wal, _) =
                Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
            let mut live = DeltaDataset::new();
            let m = cast("x", "y", Vote::True);
            wal.append(&m).unwrap();
            live.apply(&m).unwrap();
            wal.compact(&live).unwrap();
            wal.append(&cast("x", "z", Vote::False)).unwrap();
        }
        let before: Vec<(String, Option<Vec<u8>>)> = fs
            .list(&dir)
            .unwrap()
            .into_iter()
            .map(|n| (n.clone(), fs.dump(&dir.join(n))))
            .collect();

        let mut flipped = good.clone();
        flipped[HEADER_LEN + 3] ^= 0x01;
        // A valid CRC around a payload out of canonical order.
        let reordered = snapshot_frame(&[add_fact("f1"), add_source("a")]);
        for bad in [&flipped[..], &good[..good.len() - 1], &reordered[..]] {
            let err = replace_with_snapshot(&fs, &dir, Some(bad)).unwrap_err();
            assert!(matches!(err, ServeError::WalCorrupt { .. }), "{err}");
            let after: Vec<(String, Option<Vec<u8>>)> = fs
                .list(&dir)
                .unwrap()
                .into_iter()
                .map(|n| (n.clone(), fs.dump(&dir.join(n))))
                .collect();
            assert_eq!(after, before, "a refused snapshot must leave the directory alone");
        }

        // The state it returns is the fetched snapshot's, and so is the
        // state a restart reads back from the installed file.
        let (seq, state) = replace_with_snapshot(&fs, &dir, Some(&good)).unwrap().unwrap();
        assert_eq!(fs.list(&dir).unwrap(), vec![SNAPSHOT_FILE.to_string()]);
        let mut want = DeltaDataset::new();
        want.apply_all(&stream()).unwrap();
        assert_same_state(&state, &want);
        let (_, rec) =
            Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
        assert_eq!((seq, rec.next_seq), (5, 6));
        assert_same_state(&rec.dataset, &want);

        // No snapshot: the directory empties and no state comes back.
        assert!(replace_with_snapshot(&fs, &dir, None).unwrap().is_none());
        assert!(fs.list(&dir).unwrap().is_empty());
    }

    fn add_source(name: &str) -> Mutation {
        Mutation::AddSource { name: name.into() }
    }

    fn add_fact(name: &str) -> Mutation {
        Mutation::AddFact { name: name.into(), label: None }
    }

    /// A snapshot frame at seq 9 around `mutations`, CRC and all.
    fn snapshot_frame(mutations: &[Mutation]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_batch(&mut buf, 9, mutations).unwrap();
        buf
    }

    /// A snapshot frame at seq 9 around `count` records of raw payload.
    fn raw_frame(count: usize, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, |buf| {
            buf.extend_from_slice(payload);
            Ok(count)
        })
        .unwrap();
        buf
    }

    /// [`snapshot_frame`] with its last payload byte replaced by `byte`.
    fn with_last_byte(mutations: &[Mutation], byte: u8) -> Vec<u8> {
        let mut payload = snapshot_frame(mutations).split_off(HEADER_LEN);
        *payload.last_mut().unwrap() = byte;
        raw_frame(mutations.len(), &payload)
    }

    /// Asserts that `got` is `want`'s state: names and ids both ways,
    /// labels, signatures, vote count, an equal materialization, and
    /// nothing dirty in `got`.
    fn assert_same_state(got: &DeltaDataset, want: &DeltaDataset) {
        use corroborate_core::ids::SourceId;
        assert_eq!((got.n_sources(), got.n_facts()), (want.n_sources(), want.n_facts()));
        assert_eq!(got.n_votes(), want.n_votes());
        for s in (0..want.n_sources()).map(SourceId::new) {
            assert_eq!(got.source_name(s), want.source_name(s));
            assert_eq!(got.source_id(want.source_name(s)), Some(s));
        }
        for f in (0..want.n_facts()).map(FactId::new) {
            assert_eq!(got.fact_name(f), want.fact_name(f));
            assert_eq!(got.fact_id(want.fact_name(f)), Some(f));
            assert_eq!(got.label(f), want.label(f));
            assert_eq!(got.votes(f), want.votes(f));
        }
        assert_eq!(got.dirty_count(), 0);
        let (got, want) = (got.materialize().unwrap(), want.materialize().unwrap());
        assert_eq!(got.votes(), want.votes());
        assert_eq!(got.ground_truth(), want.ground_truth());
    }

    #[test]
    fn a_snapshot_out_of_canonical_order_is_corruption_despite_its_crc() {
        let t = Vote::True;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("repeated source name", snapshot_frame(&[add_source("a"), add_source("a")])),
            (
                "repeated fact name",
                snapshot_frame(&[add_source("a"), add_fact("f"), add_fact("f")]),
            ),
            ("empty source name", snapshot_frame(&[add_source("")])),
            ("empty fact name", snapshot_frame(&[add_fact("")])),
            ("a source after a fact", snapshot_frame(&[add_fact("f"), add_source("a")])),
            (
                "a source after a vote",
                snapshot_frame(&[
                    add_source("a"),
                    add_fact("f"),
                    cast("a", "f", t),
                    add_source("b"),
                ]),
            ),
            (
                "a fact after a vote",
                snapshot_frame(&[add_source("a"), add_fact("f"), cast("a", "f", t), add_fact("g")]),
            ),
            (
                "unregistered source",
                snapshot_frame(&[add_source("a"), add_fact("f"), cast("b", "f", t)]),
            ),
            (
                "unregistered fact",
                snapshot_frame(&[add_source("a"), add_fact("f"), cast("a", "g", t)]),
            ),
            (
                "out of fact order",
                snapshot_frame(&[
                    add_source("a"),
                    add_fact("f"),
                    add_fact("g"),
                    cast("a", "g", t),
                    cast("a", "f", t),
                ]),
            ),
            (
                "out of fact order",
                snapshot_frame(&[
                    add_source("a"),
                    add_source("b"),
                    add_fact("f"),
                    add_fact("g"),
                    cast("a", "f", t),
                    cast("a", "g", t),
                    cast("b", "f", t),
                ]),
            ),
            (
                "out of source order",
                snapshot_frame(&[
                    add_source("a"),
                    add_source("b"),
                    add_fact("f"),
                    cast("b", "f", t),
                    cast("a", "f", t),
                ]),
            ),
            (
                "out of source order",
                snapshot_frame(&[
                    add_source("a"),
                    add_fact("f"),
                    cast("a", "f", t),
                    cast("a", "f", Vote::False),
                ]),
            ),
            ("unknown op byte", raw_frame(1, &[OP_CAST + 1])),
            ("unknown label byte", with_last_byte(&[add_fact("f")], 3)),
            (
                "unknown vote byte",
                with_last_byte(&[add_source("a"), add_fact("f"), cast("a", "f", t)], 2),
            ),
        ];
        for (reason, bytes) in cases {
            let err = decode_snapshot(&bytes).expect_err(reason);
            let message = err.to_string();
            assert!(matches!(err, ServeError::WalCorrupt { .. }), "{reason}: {message}");
            assert!(
                message.contains("snapshot: ") && message.contains(reason),
                "{reason}: {message}"
            );
        }
        // The canonical order of the same records decodes.
        let canonical = snapshot_frame(&[
            add_source("a"),
            add_source("b"),
            add_fact("f"),
            add_fact("g"),
            cast("a", "f", t),
            cast("b", "f", t),
            cast("a", "g", t),
        ]);
        let (_, state) = decode_snapshot(&canonical).unwrap();
        assert_eq!(state.n_votes(), 3);
    }

    #[test]
    fn mutations_after_maybe_compact_never_reach_the_snapshot() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let config = WalConfig { compact_after_records: 600, ..WalConfig::default() };
        let open = || Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
        // 300 facts (three column chunks) voted on by four sources.
        let journalled: Vec<Mutation> = (0..600)
            .map(|i| {
                let vote = if i % 3 == 0 { Vote::False } else { Vote::True };
                cast(&format!("s{}", i % 4), &format!("f{}", i / 2), vote)
            })
            .collect();
        let (mut wal, _) = open();
        let mut live = DeltaDataset::new();
        for chunk in journalled.chunks(100) {
            wal.append_batch(chunk).unwrap();
            live.apply_all(chunk).unwrap();
            assert!(!wal.maybe_compact(&live).unwrap());
        }
        assert!(wal.compaction_in_flight(), "the 600th record starts a compaction");
        let mut at_seal = DeltaDataset::new();
        at_seal.apply_all(&journalled).unwrap();

        // Never journalled: vote flips in chunks the snapshot's clone
        // shares, a label on an old fact, new votes, facts and sources.
        for m in [
            cast("s0", "f0", Vote::True),
            cast("s1", "f150", Vote::False),
            cast("s2", "f299", Vote::True),
            cast("s3", "f1", Vote::True),
            cast("late", "f200", Vote::False),
            cast("s0", "fresh", Vote::True),
            Mutation::AddSource { name: "voteless".into() },
            Mutation::AddFact { name: "f7".into(), label: Some(Label::True) },
        ] {
            live.apply(&m).unwrap();
        }
        let mut landed = false;
        for _ in 0..1000 {
            landed = wal.maybe_compact(&live).unwrap();
            if landed {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(landed, "background compaction never landed");
        assert!(!wal.compaction_in_flight());
        drop(wal);

        let (_, rec) = open();
        assert_eq!((rec.replayed, rec.next_seq), (0, 601));
        assert_same_state(&rec.dataset, &at_seal);
        assert_eq!(live.n_facts(), at_seal.n_facts() + 1, "the live state moved on");
    }

    #[test]
    fn attached_shipper_tracks_appends_seals_and_compaction() {
        let dir = tempdir("ship");
        let config = WalConfig { segment_bytes: 64, ..WalConfig::default() };
        let (mut wal, _) = Wal::open(&dir, config).unwrap();
        let ship = Arc::new(ShipLog::new(1 << 20));
        wal.attach_shipper(Arc::clone(&ship)).unwrap();
        let mut live = DeltaDataset::new();
        for i in 0..10 {
            let m = cast(&format!("s{i}"), "f", Vote::True);
            wal.append(&m).unwrap();
            live.apply(&m).unwrap();
        }
        assert_eq!(ship.durable_seq(), 10);
        let index = ship.index_json();
        let segments = index.get("segments").unwrap().as_array().unwrap();
        assert!(!segments.is_empty(), "tiny segments must have sealed");
        // A sealed segment serves its exact on-disk bytes and decodes clean.
        let id = u64::try_from(segments[0].get("segment").unwrap().as_i64().unwrap()).unwrap();
        let scan = scan_frames(&ship.read_segment(id).unwrap());
        assert!(scan.torn.is_none());
        assert!(!scan.batches.is_empty());
        // Sync compaction folds everything into the snapshot and empties
        // the shipped segment index.
        wal.compact(&live).unwrap();
        assert_eq!(ship.snapshot_seq(), 10);
        assert!(ship.index_json().get("segments").unwrap().as_array().unwrap().is_empty());
        assert!(ship.read_snapshot().is_some());
    }

    #[test]
    fn with_fsync_frames_ship_only_after_confirmation() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let config = WalConfig { fsync: true, ..WalConfig::default() };
        let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
        let ship = Arc::new(ShipLog::new(1 << 20));
        wal.attach_shipper(Arc::clone(&ship)).unwrap();
        let first = wal.append_batch(&[cast("a", "f1", Vote::True)]).unwrap();
        assert!(first.fsync_nanos.is_some(), "the append carries its own fsync");
        assert_eq!(ship.durable_seq(), 1, "an Ok append has shipped its frame");
        let second =
            wal.append_batch(&[cast("b", "f1", Vote::False), cast("c", "f2", Vote::True)]).unwrap();
        assert!(second.fsync_nanos.is_some());
        assert_eq!(ship.durable_seq(), 3);

        // The next fsync fails and drops the unsynced suffix: the append
        // that wrote the frame returns the error, and the frame never ships.
        fs.fail_fsync(1, true);
        let err = wal.append_batch(&[cast("d", "f1", Vote::True)]).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert_eq!(ship.durable_seq(), 3, "a frame whose fsync failed must not ship");
        drop(wal);
        fs.reset_faults();
        let (_, rec) = Wal::open_with(&dir, config, Arc::new(fs), &NOOP).unwrap();
        assert_eq!(rec.replayed, 3, "every Ok append survives");
    }

    #[test]
    fn attach_after_recovery_bootstraps_the_active_tail() {
        let dir = tempdir("shipboot");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append_batch(&stream()).unwrap();
        }
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        let ship = Arc::new(ShipLog::new(1 << 20));
        wal.attach_shipper(Arc::clone(&ship)).unwrap();
        assert_eq!(ship.durable_seq(), 5);
        match ship.tail_since(1, u64::MAX) {
            crate::ship::TailResponse::Frames { bytes, frames, last_seq } => {
                assert_eq!(frames, 1);
                assert_eq!(last_seq, 5);
                let scan = scan_frames(&bytes);
                assert_eq!(scan.batches.len(), 1);
                assert_eq!(scan.batches[0].mutations, stream());
            }
            other => panic!("expected frames, got {other:?}"),
        }
    }

    #[test]
    fn a_primary_boot_reads_the_active_segment_once() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let config = WalConfig { segment_bytes: 256, ..WalConfig::default() };
        let (active, segments) = {
            let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
            for i in 0..12 {
                let (s, f) = (format!("s{i}"), format!("f{i}"));
                wal.append_batch(&[cast(&s, "f", Vote::True), cast("t", &f, Vote::False)]).unwrap();
            }
            assert!(wal.sealed.len() >= 2 && wal.active_bytes > 0);
            let segments: Vec<PathBuf> = (1..=wal.active_id).map(|id| seg_path(&dir, id)).collect();
            (seg_path(&dir, wal.active_id), segments)
        };
        // A torn tail: the boot must ship only the frames it kept.
        fs.truncate_raw(&active, fs.len(&active).unwrap() - 3);

        let reads = fs.reads(&active);
        let reads_of_each = || segments.iter().map(|path| fs.reads(path)).collect::<Vec<_>>();
        let before = reads_of_each();
        let booted = Arc::new(ShipLog::new(1 << 20));
        let fs_arc: Arc<dyn WalFs> = Arc::new(fs.clone());
        let (wal, rec) =
            Wal::open_from(&dir, config, fs_arc, &NOOP, None, Some(Arc::clone(&booted))).unwrap();
        assert!(rec.dropped_torn_tail);
        assert_eq!(rec.segments, segments.len() as u64);
        let once: Vec<u64> = before.iter().map(|n| n + 1).collect();
        assert_eq!(reads_of_each(), once, "a primary boot reads every segment once");
        drop(wal);

        // The seeded log is the one a shipper attached after the open
        // builds by reading the segment back.
        let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
        let attached = Arc::new(ShipLog::new(1 << 20));
        wal.attach_shipper(Arc::clone(&attached)).unwrap();
        assert_eq!(fs.reads(&active), reads + 3, "an attach after the open reads it back");
        assert_eq!(booted.index_json(), attached.index_json());
        assert_eq!(booted.durable_seq(), attached.durable_seq());
        assert_eq!(booted.floor_seq(), attached.floor_seq());
        assert_eq!(booted.buffered_bytes(), attached.buffered_bytes());
        assert!(booted.buffered_bytes() > 0);
        let floor = booted.floor_seq();
        assert_eq!(booted.tail_since(floor, u64::MAX), attached.tail_since(floor, u64::MAX));
    }

    #[test]
    fn fsync_failure_on_seal_surfaces_as_an_error() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let config = WalConfig { fsync: true, segment_bytes: 16, ..WalConfig::default() };
        let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
        wal.append(&cast("a", "f1", Vote::True)).unwrap();
        wal.flush().unwrap();
        // Fail the seal-time fsync, dropping unsynced bytes.
        fs.fail_fsync(1, true);
        let err = wal.append(&cast("b", "f1", Vote::False)).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        drop(wal);
        // Reboot: the synced prefix survives.
        fs.reset_faults();
        let (_, rec) = Wal::open_with(&dir, config, Arc::new(fs), &NOOP).unwrap();
        assert_eq!(rec.replayed, 1);
    }

    #[test]
    fn grouped_appends_write_the_bytes_and_seals_of_one_append_per_batch() {
        let mut batches: Vec<Vec<Mutation>> = (0..10)
            .map(|i| {
                (0..=i % 3).map(|j| cast(&format!("s{j}"), &format!("f{i}"), Vote::True)).collect()
            })
            .collect();
        batches.insert(4, Vec::new());
        let mut buf = Vec::new();
        encode_batch(&mut buf, 1, &batches[2]).unwrap();
        let config =
            WalConfig { fsync: true, segment_bytes: 3 * buf.len() as u64, ..WalConfig::default() };
        let dir = PathBuf::from("/wal");
        let (singles_fs, grouped_fs) = (FaultFs::new(), FaultFs::new());
        let (mut singles, _) =
            Wal::open_with(&dir, config, Arc::new(singles_fs.clone()), &NOOP).unwrap();
        let (mut grouped, _) =
            Wal::open_with(&dir, config, Arc::new(grouped_fs.clone()), &NOOP).unwrap();

        let one_by_one: Vec<BatchReceipt> =
            batches.iter().map(|b| singles.append_batch(b).unwrap()).collect();
        let refs: Vec<&[Mutation]> = batches.iter().map(Vec::as_slice).collect();
        let at_once = grouped.append_batches_observed(&refs, &NOOP).unwrap();

        let shape = |r: &BatchReceipt| (r.first_seq, r.count, r.bytes, r.sealed);
        assert!(one_by_one.iter().map(shape).eq(at_once.iter().map(shape)));
        assert!(at_once.iter().all(|r| r.fsync_nanos.is_some() == (r.count > 0)));
        let segments = singles.segment_count();
        assert!(segments >= 3, "the batches span several segments");
        assert_eq!(grouped.segment_count(), segments);
        assert_eq!(grouped.next_seq(), singles.next_seq());
        let manifest = dir.join(MANIFEST_FILE);
        assert_eq!(grouped_fs.dump(&manifest), singles_fs.dump(&manifest));
        for id in 1..=segments as u64 {
            let path = seg_path(&dir, id);
            assert_eq!(grouped_fs.dump(&path), singles_fs.dump(&path), "segment {id}");
            let frames = Frames::new(&singles_fs.dump(&path).unwrap()).count() as u64;
            assert_eq!(singles_fs.syncs(&path), frames, "one sync per append");
            assert_eq!(grouped_fs.syncs(&path), u64::from(frames > 0), "one sync per segment");
        }
        // Both logs replay to the same state.
        drop((singles, grouped));
        let (_, a) = Wal::open_with(&dir, config, Arc::new(singles_fs), &NOOP).unwrap();
        let (_, b) = Wal::open_with(&dir, config, Arc::new(grouped_fs), &NOOP).unwrap();
        assert_eq!((a.replayed, a.next_seq), (b.replayed, b.next_seq));
        assert_eq!(
            b.dataset.materialize().unwrap().votes(),
            a.dataset.materialize().unwrap().votes()
        );
    }

    #[test]
    fn seal_and_flush_sync_a_segment_only_when_it_holds_unsynced_bytes() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        // Equal-sized frames, three to a segment: the fourth append rolls.
        let frame = |i: usize| vec![cast("a", &format!("f{i}"), Vote::True)];
        let mut buf = Vec::new();
        encode_batch(&mut buf, 1, &frame(0)).unwrap();
        let segment_bytes = 3 * buf.len() as u64;
        let config = WalConfig { fsync: true, segment_bytes, ..WalConfig::default() };
        let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
        let segment_syncs = || (1..=2).map(|id| fs.syncs(&seg_path(&dir, id))).sum::<u64>();

        let n = 5;
        for i in 0..n {
            wal.append_batch(&frame(i)).unwrap();
        }
        let flushed = wal.flush().unwrap();
        assert_eq!(wal.segment_count(), 2, "one roll");
        assert_eq!(segment_syncs(), n as u64, "one sync per append, none at seal or flush");
        assert_eq!(flushed, None);

        // A failed append fsync leaves its bytes unsynced: flush retries.
        fs.fail_fsync(1, false);
        assert!(wal.append_batch(&frame(n)).is_err());
        assert!(wal.flush().unwrap().is_some());
        assert_eq!(segment_syncs(), n as u64 + 2);
        assert_eq!(wal.flush().unwrap(), None);
    }
}

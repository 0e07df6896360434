//! Hierarchical event tracing over a lock-free seqlock ring buffer.
//!
//! A [`TraceBuffer`] retains the most recent `capacity` [`TraceEvent`]s —
//! begin/end/instant markers carrying a monotonic timestamp, the [`Span`]
//! kind, a span id, the parent span id, a thread index, and a caller-chosen
//! `u64` payload (epoch seq, segment id, batch size, …). Writers never
//! block and never allocate: one `fetch_add` claims a ticket, a per-slot
//! sequence word guards the five data words, and wrap-around simply
//! overwrites the oldest events (counted as dropped). Readers take a
//! point-in-time [`TraceSnapshot`] that skips torn slots instead of waiting.
//!
//! The per-slot protocol is a seqlock built only from atomics (the crate
//! denies `unsafe_code`): a writer claims ticket `t`, raises the slot's
//! sequence to the odd value `2t+1` with `fetch_max`, publishes the data
//! words, then raises it to the even value `2t+2`. `fetch_max` (rather than
//! a plain store) means a stalled writer holding an *older* ticket can never
//! regress the sequence after wrap-around, so a torn mix of two writers'
//! words never validates. A reader accepts a slot only when it reads `2t+2`
//! both before and after the data words (with an acquire fence in between).
//!
//! Span nesting (parent ids) is tracked per thread and per buffer in a
//! thread-local stack, so traces from worker pools come out as well-formed
//! per-thread trees. [`chrome_trace_json`] renders a snapshot in the Chrome
//! trace-event format loadable in `chrome://tracing` or Perfetto.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Json;
use crate::observer::Span;

/// What a [`TraceEvent`] marks: the start of a span, its end, or a point
/// event with no duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum TraceKind {
    /// A span opened (Chrome phase `B`).
    Begin,
    /// A span closed (Chrome phase `E`).
    End,
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
}

impl TraceKind {
    /// All kinds, in declaration order.
    pub const ALL: [TraceKind; 3] = [TraceKind::Begin, TraceKind::End, TraceKind::Instant];

    /// Stable snake_case key used in JSON reports.
    pub fn key(self) -> &'static str {
        match self {
            TraceKind::Begin => "begin",
            TraceKind::End => "end",
            TraceKind::Instant => "instant",
        }
    }

    /// The Chrome trace-event `ph` phase letter.
    pub fn ph(self) -> &'static str {
        match self {
            TraceKind::Begin => "B",
            TraceKind::End => "E",
            TraceKind::Instant => "i",
        }
    }

    fn from_index(i: u64) -> Option<TraceKind> {
        TraceKind::ALL.get(usize::try_from(i).ok()?).copied()
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the buffer was created (monotonic).
    pub ts_nanos: u64,
    /// Begin / end / instant.
    pub kind: TraceKind,
    /// The span catalog entry this event belongs to.
    pub span: Span,
    /// Span id: fresh per begin, matched by the paired end; 0 for instants.
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 at the root).
    pub parent: u64,
    /// Dense per-process thread index (first tracing thread is 1).
    pub thread: u64,
    /// Caller-chosen payload (epoch seq, segment id, batch size, …).
    pub payload: u64,
}

/// A point-in-time copy of a [`TraceBuffer`]'s retained events.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Decoded events in ticket (claim) order — per-thread timestamps are
    /// non-decreasing because each thread claims tickets in program order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around before this snapshot.
    pub overwritten: u64,
    /// Slots skipped because a writer was mid-publish at snapshot time.
    pub torn: u64,
}

impl TraceSnapshot {
    /// Total events this snapshot could not represent.
    pub fn dropped(&self) -> u64 {
        self.overwritten.saturating_add(self.torn)
    }
}

const WORDS: usize = 5;

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    const fn new() -> Self {
        Slot { seq: AtomicU64::new(0), words: [const { AtomicU64::new(0) }; WORDS] }
    }
}

// Span ids packed into 48 bits of a word; plenty for any run (2^48 spans).
const THREAD_BITS: u64 = 48;
const THREAD_MASK: u64 = (1 << THREAD_BITS) - 1;

static THREAD_IDS: AtomicU64 = AtomicU64::new(1);
static BUFFER_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_INDEX: Cell<u64> = const { Cell::new(0) };
    // (buffer id, span id) pairs — one stack shared by all buffers on this
    // thread; entries are filtered by buffer id so concurrent buffers (tests)
    // cannot corrupt each other's nesting.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|cell| {
        let mut idx = cell.get();
        if idx == 0 {
            idx = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
            cell.set(idx);
        }
        idx
    })
}

/// Lock-free fixed-capacity ring buffer of [`TraceEvent`]s.
///
/// Capacity is rounded up to a power of two. Writers are wait-free (one
/// `fetch_add` plus a handful of atomic stores); when the ring is full the
/// oldest events are overwritten and counted as dropped. See the module docs
/// for the seqlock protocol.
#[derive(Debug)]
pub struct TraceBuffer {
    id: u64,
    epoch: Instant,
    mask: u64,
    head: AtomicU64,
    next_span_id: AtomicU64,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").field("seq", &self.seq.load(Ordering::Acquire)).finish()
    }
}

impl TraceBuffer {
    /// A buffer retaining the most recent `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, Slot::new);
        TraceBuffer {
            id: BUFFER_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            mask: (cap as u64).wrapping_sub(1),
            head: AtomicU64::new(0),
            next_span_id: AtomicU64::new(1),
            slots,
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (not bounded by capacity). Acquire pairs
    /// with the publishing writer so a count observed here never runs
    /// ahead of the slots a subsequent `snapshot` can validate.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records one event. Allocates span ids and maintains the per-thread
    /// parent stack according to `kind`: [`TraceKind::Begin`] opens a new
    /// span under the current top, [`TraceKind::End`] closes the innermost
    /// open span of this buffer, [`TraceKind::Instant`] attaches to the
    /// current top without opening anything.
    ///
    /// Returns `true` when the write overwrote an older event (ring full) —
    /// callers surface that as a `trace_dropped` counter bump.
    pub fn push(&self, kind: TraceKind, span: Span, payload: u64) -> bool {
        let (id, parent) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            match kind {
                TraceKind::Begin => {
                    let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
                    let parent = top_for(&stack, self.id);
                    stack.push((self.id, id));
                    (id, parent)
                }
                TraceKind::End => {
                    let id = pop_for(&mut stack, self.id);
                    (id, top_for(&stack, self.id))
                }
                TraceKind::Instant => (0, top_for(&stack, self.id)),
            }
        });
        let event = TraceEvent {
            ts_nanos: saturating_nanos(self.epoch),
            kind,
            span,
            id,
            parent,
            thread: thread_index(),
            payload,
        };
        self.write(&event)
    }

    fn write(&self, event: &TraceEvent) -> bool {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let odd = ticket.wrapping_mul(2).wrapping_add(1);
        // `fetch_max` (not a store): a stalled writer with an older ticket
        // can never lower the sequence below a newer writer's claim.
        slot.seq.fetch_max(odd, Ordering::Relaxed);
        // The release fence orders the claim before the data words: a reader
        // that sees any of these stores (and fences with acquire) must also
        // see the odd sequence, so half-published slots never validate.
        fence(Ordering::Release);
        slot.words[0].store(event.ts_nanos, Ordering::Relaxed);
        slot.words[1].store(pack_meta(event.kind, event.span, event.thread), Ordering::Relaxed);
        slot.words[2].store(event.id, Ordering::Relaxed);
        slot.words[3].store(event.parent, Ordering::Relaxed);
        slot.words[4].store(event.payload, Ordering::Relaxed);
        slot.seq.fetch_max(odd.wrapping_add(1), Ordering::Release);
        ticket >= self.slots.len() as u64
    }

    /// Point-in-time copy of the retained events plus drop accounting.
    pub fn snapshot(&self) -> TraceSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut snap = TraceSnapshot {
            events: Vec::with_capacity((head.saturating_sub(start)) as usize),
            overwritten: start,
            torn: 0,
        };
        for ticket in start..head {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let want = ticket.wrapping_mul(2).wrapping_add(2);
            if slot.seq.load(Ordering::Acquire) != want {
                snap.torn = snap.torn.saturating_add(1);
                continue;
            }
            let words: [u64; WORDS] =
                std::array::from_fn(|w| slot.words[w].load(Ordering::Relaxed));
            // Pairs with the writer's release fence: if any word above came
            // from a later writer, that writer's odd sequence is now visible.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != want {
                snap.torn = snap.torn.saturating_add(1);
                continue;
            }
            if let Some(event) = decode(&words) {
                snap.events.push(event);
            } else {
                snap.torn = snap.torn.saturating_add(1);
            }
        }
        snap
    }
}

fn top_for(stack: &[(u64, u64)], buffer: u64) -> u64 {
    stack.iter().rev().find(|(b, _)| *b == buffer).map_or(0, |&(_, id)| id)
}

fn pop_for(stack: &mut Vec<(u64, u64)>, buffer: u64) -> u64 {
    match stack.iter().rposition(|(b, _)| *b == buffer) {
        Some(i) => stack.remove(i).1,
        None => 0,
    }
}

fn pack_meta(kind: TraceKind, span: Span, thread: u64) -> u64 {
    ((kind as u64) << 56) | ((span as u64) << THREAD_BITS) | (thread & THREAD_MASK)
}

fn decode(words: &[u64; WORDS]) -> Option<TraceEvent> {
    let kind = TraceKind::from_index(words[1] >> 56)?;
    let span = *Span::ALL.get(usize::try_from((words[1] >> THREAD_BITS) & 0xff).ok()?)?;
    Some(TraceEvent {
        ts_nanos: words[0],
        kind,
        span,
        id: words[2],
        parent: words[3],
        thread: words[1] & THREAD_MASK,
        payload: words[4],
    })
}

fn saturating_nanos(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Renders a snapshot as a Chrome trace-event document — load the written
/// file in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Span keys become event names, timestamps are microseconds with
/// nanosecond fractions, and the span/parent ids and payload ride along in
/// `args` so the hierarchy survives tools that ignore stack nesting.
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> Json {
    let mut events = Vec::with_capacity(snapshot.events.len());
    for event in &snapshot.events {
        let mut obj = Json::object();
        obj.insert("name", event.span.key());
        obj.insert("cat", "corroborate");
        obj.insert("ph", event.kind.ph());
        obj.insert("ts", event.ts_nanos as f64 / 1000.0);
        obj.insert("pid", 1u64);
        obj.insert("tid", event.thread);
        if event.kind == TraceKind::Instant {
            obj.insert("s", "t");
        }
        let mut args = Json::object();
        args.insert("id", event.id);
        args.insert("parent", event.parent);
        args.insert("payload", event.payload);
        obj.insert("args", args);
        events.push(obj);
    }
    let mut doc = Json::object();
    doc.insert("traceEvents", Json::Arr(events));
    doc.insert("displayTimeUnit", "ns");
    let mut meta = Json::object();
    meta.insert("overwritten", snapshot.overwritten);
    meta.insert("torn", snapshot.torn);
    doc.insert("otherData", meta);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_all(buf: &TraceBuffer, n: u64) {
        for i in 0..n {
            buf.push(TraceKind::Begin, Span::Select, i);
            buf.push(TraceKind::End, Span::Select, i);
        }
    }

    #[test]
    fn kinds_catalog_is_consistent() {
        let keys: std::collections::HashSet<_> = TraceKind::ALL.iter().map(|k| k.key()).collect();
        assert_eq!(keys.len(), TraceKind::ALL.len());
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::from_index(kind as u64), Some(kind));
            assert!(["B", "E", "i"].contains(&kind.ph()));
        }
    }

    #[test]
    fn begin_end_round_trip_with_parents() {
        let buf = TraceBuffer::with_capacity(64);
        buf.push(TraceKind::Begin, Span::Epoch, 7);
        buf.push(TraceKind::Begin, Span::WalAppend, 1);
        buf.push(TraceKind::Instant, Span::WalAppend, 99);
        buf.push(TraceKind::End, Span::WalAppend, 1);
        buf.push(TraceKind::End, Span::Epoch, 7);
        let snap = buf.snapshot();
        assert_eq!(snap.dropped(), 0);
        let e = &snap.events;
        assert_eq!(e.len(), 5);
        assert_eq!(e[0].kind, TraceKind::Begin);
        assert_eq!(e[0].span, Span::Epoch);
        assert_eq!(e[0].parent, 0);
        // The inner span's parent is the outer span's id.
        assert_eq!(e[1].parent, e[0].id);
        // The instant attaches to the innermost open span.
        assert_eq!(e[2].parent, e[1].id);
        assert_eq!(e[2].id, 0);
        // Ends carry the id they close and the parent they return to.
        assert_eq!(e[3].id, e[1].id);
        assert_eq!(e[3].parent, e[0].id);
        assert_eq!(e[4].id, e[0].id);
        assert_eq!(e[4].parent, 0);
        // Same thread throughout; timestamps never go backwards.
        assert!(e.windows(2).all(|w| w[0].thread == w[1].thread));
        assert!(e.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        assert_eq!(e[0].payload, 7);
    }

    #[test]
    fn wrap_around_counts_overwrites() {
        let buf = TraceBuffer::with_capacity(8);
        assert_eq!(buf.capacity(), 8);
        push_all(&buf, 10); // 20 events into 8 slots
        let snap = buf.snapshot();
        assert_eq!(snap.events.len(), 8);
        assert_eq!(snap.overwritten, 12);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.dropped(), 12);
        assert_eq!(buf.pushed(), 20);
    }

    #[test]
    fn push_reports_overwrites_for_counting() {
        let buf = TraceBuffer::with_capacity(8);
        let mut dropped = 0u64;
        for i in 0..12u64 {
            if buf.push(TraceKind::Instant, Span::Select, i) {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 4);
    }

    #[test]
    fn concurrent_buffers_do_not_cross_nest() {
        let a = TraceBuffer::with_capacity(16);
        let b = TraceBuffer::with_capacity(16);
        a.push(TraceKind::Begin, Span::Epoch, 0);
        b.push(TraceKind::Begin, Span::Request, 0);
        a.push(TraceKind::Instant, Span::Select, 0);
        b.push(TraceKind::End, Span::Request, 0);
        a.push(TraceKind::End, Span::Epoch, 0);
        let sa = a.snapshot();
        let sb = b.snapshot();
        // a's instant nests under a's epoch, not b's request.
        assert_eq!(sa.events[1].parent, sa.events[0].id);
        assert_eq!(sb.events[1].id, sb.events[0].id);
        assert_eq!(sa.events[2].parent, 0);
    }

    #[test]
    fn chrome_export_shape() {
        let buf = TraceBuffer::with_capacity(16);
        buf.push(TraceKind::Begin, Span::Epoch, 3);
        buf.push(TraceKind::End, Span::Epoch, 3);
        let doc = chrome_trace_json(&buf.snapshot());
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("epoch"));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("E"));
        assert!(events[0].get("ts").is_some());
        assert_eq!(events[0].get("args").unwrap().get("payload").unwrap().as_i64(), Some(3));
        // Round-trips through the strict parser.
        let text = doc.to_json_pretty();
        assert!(Json::parse(&text).is_ok());
    }

    /// Multi-threaded writers against a deliberately tiny ring: every slot a
    /// reader accepts must decode to a coherent event one writer actually
    /// produced (payload echoes the writer's thread tag), and total loss is
    /// bounded by `pushed - capacity` overwrites plus counted torn slots.
    #[test]
    fn concurrent_writers_never_tear_events() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2000;
        let buf = TraceBuffer::with_capacity(64);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let buf = &buf;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        // Payload encodes (writer, i) so tearing is visible.
                        buf.push(TraceKind::Instant, Span::Select, w * 1_000_000 + i);
                    }
                });
            }
            for _ in 0..2 {
                let buf = &buf;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let snap = buf.snapshot();
                        for e in &snap.events {
                            assert_eq!(e.span, Span::Select);
                            assert_eq!(e.kind, TraceKind::Instant);
                            let writer = e.payload / 1_000_000;
                            let seqno = e.payload % 1_000_000;
                            assert!(writer < WRITERS, "torn payload {}", e.payload);
                            assert!(seqno < PER_WRITER, "torn payload {}", e.payload);
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(buf.pushed(), WRITERS * PER_WRITER);
        let snap = buf.snapshot();
        assert_eq!(snap.torn, 0, "quiescent snapshot saw torn slots");
        assert_eq!(snap.events.len(), buf.capacity());
        assert_eq!(snap.overwritten, WRITERS * PER_WRITER - buf.capacity() as u64);
    }
}

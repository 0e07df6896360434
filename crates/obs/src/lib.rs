//! `corroborate-obs`: zero-dependency telemetry for the corroborate engines.
//!
//! The crate provides four pieces, all std-only:
//!
//! - [`Observer`] — the trait engines are generic over. The default
//!   [`NoopObserver`] has `ENABLED = false` and empty inline methods, so an
//!   uninstrumented run monomorphises to the exact pre-telemetry code.
//! - [`CounterRegistry`] / [`Counter`] — a fixed catalog of relaxed atomic
//!   counters (pruning tiers, cache refreshes, rounds, iterations).
//! - [`LatencyHistogram`] — log2-bucketed concurrent histograms for span
//!   timings ([`Span`]), with exact count/sum/min/max and bucket-resolution
//!   quantiles.
//! - [`RunReport`] and the record types ([`RoundRecord`],
//!   [`SelectionRecord`], [`IterationRecord`]) — the JSON document bench
//!   binaries emit behind `--report`, built on a hand-rolled [`Json`] tree
//!   with both a writer and a strict parser (used by CI to validate emitted
//!   reports). The parser is [`JsonReader`], a pull reader that the serve
//!   layer also drives directly to read ingest bodies without a tree.
//! - [`TraceBuffer`] / [`TraceEvent`] — a lock-free seqlock ring of
//!   hierarchical begin/end/instant events behind the observer's
//!   `span_begin`/`span_end`/`event` hooks, exported as Chrome trace JSON
//!   ([`chrome_trace_json`]) for `chrome://tracing` / Perfetto.
//! - [`SlidingWindow`] and the [`prom`] writer — windowed derived gauges
//!   (rates, recent quantiles) and the Prometheus text exposition the serve
//!   layer returns from `GET /metrics`.
//!
//! See `docs/OBSERVABILITY.md` for the event model and report schema.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod counters;
pub mod histogram;
pub mod json;
pub mod observer;
pub mod prom;
pub mod report;
pub mod trace;
pub mod window;

pub use counters::{Counter, CounterRegistry, MaxGauge};
pub use histogram::{HistogramSummary, LatencyHistogram};
pub use json::{Json, JsonReader, ParseError};
pub use observer::{NoopObserver, Observer, RecordingObserver, Span, TierTally, NOOP};
pub use report::{IterationRecord, RoundRecord, RunReport, SelectionRecord};
pub use trace::{chrome_trace_json, TraceBuffer, TraceEvent, TraceKind, TraceSnapshot};
pub use window::SlidingWindow;

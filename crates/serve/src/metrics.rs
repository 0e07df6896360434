//! Service telemetry: the obs registry plus serve-specific gauges, and the
//! `/metrics` documents (JSON and Prometheus text exposition).
//!
//! Everything funnels through one shared [`RecordingObserver`] — the same
//! counter/span catalog the batch engines use (see `docs/OBSERVABILITY.md`),
//! extended with the serve-layer counters (`http_*`, `ingest_*`, `epoch*`,
//! `wal_*`), two [`MaxGauge`] high-water marks, and sliding-window derived
//! gauges (epoch lag, shed rate, WAL fsync latency p99). The JSON document
//! carries the `report` / `schema_version` header keys so the existing
//! `report_check` validator can gate it in CI; the Prometheus document is
//! rendered from the exact same state via [`corroborate_obs::prom`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use corroborate_obs::prom::{self, PromWriter};
use corroborate_obs::{Json, MaxGauge, RecordingObserver, SlidingWindow, Span};

/// Point-in-time replication readings, pushed by the serving layer just
/// before each metrics render (see `server::refresh_repl_gauges`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplGauges {
    /// Worst replication lag across known replicas, in seconds.
    pub replica_lag_seconds: f64,
    /// Replicas that have heartbeated the control plane.
    pub replicas_connected: u64,
    /// Highest durable (shippable) WAL sequence on the primary.
    pub repl_durable_seq: u64,
}

/// Shared telemetry state for one server instance.
#[derive(Debug)]
pub struct ServeMetrics {
    observer: RecordingObserver,
    /// Peak pending mutations observed in the ingest queue.
    queue_peak: MaxGauge,
    /// Largest single accepted ingest batch.
    batch_peak: MaxGauge,
    /// Largest group-commit WAL frame written, in bytes.
    wal_batch_bytes_peak: MaxGauge,
    /// Process-start reference for the sliding windows and epoch lag.
    clock: Instant,
    /// Timestamp (nanos on [`Self::clock`]) of the last published view.
    last_epoch_nanos: AtomicU64,
    /// Sliding window of shed (429-rejected) ingest requests.
    shed_window: SlidingWindow,
    /// Sliding window of WAL fsync latencies in nanoseconds.
    fsync_window: SlidingWindow,
    /// Replication gauges; `None` until replication is enabled.
    repl: Mutex<Option<ReplGauges>>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self {
            observer: RecordingObserver::new(),
            queue_peak: MaxGauge::default(),
            batch_peak: MaxGauge::default(),
            wal_batch_bytes_peak: MaxGauge::default(),
            clock: Instant::now(),
            last_epoch_nanos: AtomicU64::new(0),
            shed_window: SlidingWindow::standard(),
            fsync_window: SlidingWindow::standard(),
            repl: Mutex::new(None),
        }
    }
}

/// Elapsed nanoseconds since `start`, saturating at `u64::MAX`.
pub(crate) fn saturating_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Converts a nanosecond reading to seconds for gauge rendering.
fn nanos_to_secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

impl ServeMetrics {
    /// Zeroed metrics with the clock started now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroed metrics whose observer also records a trace ring of
    /// `capacity` events (rounded up to a power of two). `capacity == 0`
    /// leaves tracing off.
    pub fn with_trace(capacity: usize) -> Self {
        if capacity == 0 {
            return Self::default();
        }
        Self { observer: RecordingObserver::with_trace(capacity), ..Self::default() }
    }

    /// The underlying observer (counters + span histograms + trace ring).
    pub fn observer(&self) -> &RecordingObserver {
        &self.observer
    }

    /// Nanoseconds since the metrics clock started — the timestamp domain
    /// the sliding windows and epoch lag use.
    pub fn now_nanos(&self) -> u64 {
        saturating_nanos(self.clock)
    }

    /// Records the current queue depth.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_peak.observe(depth as u64);
    }

    /// Records an accepted batch size.
    pub fn observe_batch(&self, size: usize) {
        self.batch_peak.observe(size as u64);
    }

    /// Marks a view as published now — resets the epoch-lag gauge.
    pub fn note_epoch_published(&self) {
        self.last_epoch_nanos.store(self.now_nanos(), Ordering::Release);
    }

    /// Records one shed (queue-full-rejected) ingest request.
    pub fn note_shed(&self) {
        self.shed_window.record(self.now_nanos(), 1);
    }

    /// Records one WAL fsync latency in nanoseconds.
    pub fn note_fsync(&self, nanos: u64) {
        self.fsync_window.record(self.now_nanos(), nanos);
    }

    /// Records the framed byte size of one group-commit WAL batch.
    pub fn note_wal_batch_bytes(&self, bytes: u64) {
        self.wal_batch_bytes_peak.observe(bytes);
    }

    /// Publishes fresh replication gauges; once set they appear in both
    /// metrics renderings (`replica_lag_seconds`, `replicas_connected`,
    /// `repl_durable_seq`).
    pub fn set_repl_gauges(&self, gauges: ReplGauges) {
        *self.repl.lock().unwrap_or_else(PoisonError::into_inner) = Some(gauges);
    }

    /// Peak queue depth seen so far.
    pub fn queue_peak(&self) -> u64 {
        self.queue_peak.get()
    }

    /// Sheds (429-rejected ingest requests) per second over the sliding
    /// window.
    pub fn shed_rate_per_sec(&self) -> f64 {
        self.shed_window.rate_per_sec(self.now_nanos())
    }

    /// Seconds since the last published view (process uptime before the
    /// first publish).
    pub fn epoch_lag_seconds(&self) -> f64 {
        let last = self.last_epoch_nanos.load(Ordering::Acquire);
        nanos_to_secs(self.now_nanos().saturating_sub(last))
    }

    /// The gauge sub-document: point-in-time readings plus the
    /// sliding-window derived gauges. Both renderings (JSON and Prometheus)
    /// iterate this one object, so the two surfaces cannot drift.
    fn gauges_json(&self, queue_depth: usize) -> Json {
        let now = self.now_nanos();
        let mut gauges = Json::object();
        gauges.insert("ingest_queue_depth", queue_depth);
        gauges.insert("ingest_queue_peak", self.queue_peak.get());
        gauges.insert("ingest_batch_peak", self.batch_peak.get());
        gauges.insert("wal_batch_bytes_peak", self.wal_batch_bytes_peak.get());
        gauges.insert("epoch_lag_seconds", self.epoch_lag_seconds());
        gauges.insert("shed_rate_per_sec", self.shed_window.rate_per_sec(now));
        gauges.insert(
            "wal_fsync_p99_seconds",
            nanos_to_secs(self.fsync_window.quantile(now, 0.99).unwrap_or(0)),
        );
        if let Some(repl) = *self.repl.lock().unwrap_or_else(PoisonError::into_inner) {
            gauges.insert("replica_lag_seconds", repl.replica_lag_seconds);
            gauges.insert("replicas_connected", repl.replicas_connected);
            gauges.insert("repl_durable_seq", repl.repl_durable_seq);
        }
        gauges
    }

    /// Renders the `/metrics.json` document.
    ///
    /// `epoch` and `queue_depth` are point-in-time readings supplied by the
    /// server; everything else comes from the registry.
    pub fn to_json(&self, epoch: u64, queue_depth: usize) -> Json {
        let mut root = Json::object();
        root.insert("report", "corroborate_serve_metrics");
        root.insert("schema_version", 1u64);
        root.insert("epoch", epoch);
        root.insert("counters", self.observer.counters().to_json());
        let mut spans = Json::object();
        for span in Span::ALL {
            let h = self.observer.span_histogram(span);
            if h.count() > 0 {
                spans.insert(span.key(), h.to_json());
            }
        }
        root.insert("spans", spans);
        root.insert("gauges", self.gauges_json(queue_depth));
        root
    }

    /// Renders the `/metrics` document in Prometheus text exposition
    /// format 0.0.4: the complete counter and span catalog (zero-valued
    /// families included) plus the epoch gauge and every serve gauge.
    pub fn to_prometheus(&self, epoch: u64, queue_depth: usize) -> String {
        let mut w = PromWriter::new();
        prom::write_observer(&mut w, &self.observer);
        w.gauge(&prom::gauge_name("epoch"), "Latest published corroboration epoch.", epoch as f64);
        if let Json::Obj(entries) = self.gauges_json(queue_depth) {
            for (key, value) in &entries {
                w.gauge(
                    &prom::gauge_name(key),
                    "Point-in-time serve gauge (see docs/OBSERVABILITY.md).",
                    value.as_f64().unwrap_or(0.0),
                );
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use corroborate_obs::{Counter, Observer};

    use super::*;

    #[test]
    fn metrics_document_passes_report_check_rules() {
        let m = ServeMetrics::new();
        m.observer().add(Counter::HttpRequests, 3);
        m.observer().span(Span::Request, 1_000);
        m.observe_queue_depth(7);
        m.observe_queue_depth(2);
        m.observe_batch(4);
        let doc = m.to_json(5, 2);
        // The header keys report_check always requires.
        assert!(doc.get("report").is_some());
        assert!(doc.get("schema_version").is_some());
        assert_eq!(doc.get("epoch").unwrap().as_i64(), Some(5));
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("http_requests").unwrap().as_i64(), Some(3));
        assert!(doc.get("spans").unwrap().get("request").is_some());
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("ingest_queue_peak").unwrap().as_i64(), Some(7));
        assert_eq!(gauges.get("ingest_queue_depth").unwrap().as_i64(), Some(2));
        // The derived gauges are always present, even before any samples.
        for key in ["epoch_lag_seconds", "shed_rate_per_sec", "wal_fsync_p99_seconds"] {
            assert!(gauges.get(key).and_then(Json::as_f64).is_some(), "missing {key}");
        }
        // The rendered text survives the strict parser.
        let text = doc.to_json();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn prometheus_document_carries_the_full_catalog_and_gauges() {
        let m = ServeMetrics::new();
        m.observer().add(Counter::HttpRequests, 2);
        m.observer().span(Span::Epoch, 1_000);
        m.note_fsync(2_000_000);
        m.note_shed();
        let text = m.to_prometheus(7, 3);
        for counter in Counter::ALL {
            assert!(
                text.contains(&prom::counter_name(counter.key())),
                "missing counter {counter:?}"
            );
        }
        for span in Span::ALL {
            assert!(text.contains(&prom::span_name(span.key())), "missing span {span:?}");
        }
        assert!(text.contains("corroborate_http_requests_total 2"));
        assert!(text.contains("corroborate_epoch 7"));
        assert!(text.contains("corroborate_ingest_queue_depth 3"));
        assert!(text.contains("# TYPE corroborate_epoch_lag_seconds gauge"));
        assert!(text.contains("# TYPE corroborate_shed_rate_per_sec gauge"));
        // p99 of a single 2ms fsync is that sample, converted to seconds.
        assert!(text.contains("corroborate_wal_fsync_p99_seconds 0.002"));
    }

    #[test]
    fn window_gauges_move_with_recorded_samples() {
        let m = ServeMetrics::new();
        assert_eq!(m.queue_peak(), 0);
        m.note_epoch_published();
        assert!(m.epoch_lag_seconds() < 60.0, "lag resets on publish");
        m.note_fsync(1_000);
        m.note_fsync(3_000);
        m.note_wal_batch_bytes(96);
        m.note_wal_batch_bytes(40);
        let doc = m.to_json(1, 0);
        let gauges = doc.get("gauges").unwrap();
        let p99 = gauges.get("wal_fsync_p99_seconds").and_then(Json::as_f64).unwrap();
        assert!(p99 >= 3e-6 - 1e-12, "p99 picks the slow fsync: {p99}");
        assert_eq!(gauges.get("wal_batch_bytes_peak").unwrap().as_i64(), Some(96));
    }

    #[test]
    fn repl_gauges_appear_in_both_renderings_once_set() {
        let m = ServeMetrics::new();
        let doc = m.to_json(0, 0);
        assert!(doc.get("gauges").unwrap().get("replica_lag_seconds").is_none());
        m.set_repl_gauges(ReplGauges {
            replica_lag_seconds: 0.5,
            replicas_connected: 2,
            repl_durable_seq: 42,
        });
        let doc = m.to_json(0, 0);
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("replica_lag_seconds").and_then(Json::as_f64), Some(0.5));
        assert_eq!(gauges.get("replicas_connected").unwrap().as_i64(), Some(2));
        assert_eq!(gauges.get("repl_durable_seq").unwrap().as_i64(), Some(42));
        let text = m.to_prometheus(0, 0);
        assert!(text.contains("corroborate_replica_lag_seconds 0.5"));
        assert!(text.contains("corroborate_repl_durable_seq 42"));
    }

    #[test]
    fn trace_capacity_zero_disables_the_ring() {
        assert!(ServeMetrics::with_trace(0).observer().trace().is_none());
        let traced = ServeMetrics::with_trace(64);
        assert!(traced.observer().trace().is_some());
    }
}

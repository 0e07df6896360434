//! Machinery shared by the two serve-tier workloads: the pinned server
//! configuration, run facts, probe polling, the correctness reference,
//! and the traced replay of a workload's write stream through the serve
//! layers' public functions.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use corroborate_algorithms::inc::{resolve_threads, DEFAULT_SHARDS};
use corroborate_obs::{Json, NOOP};
use corroborate_serve::http::{read_request, write_request};
use corroborate_serve::replica::ReplicaConfig;
use corroborate_serve::{
    evaluate_batch, DeltaDataset, EpochConfig, EpochEngine, EpochMode, IngestQueue, Mutation,
    Published, ReplicaCore, ServeError, ServerConfig, ServerHandle, ShipLog, StdFs, TailResponse,
    VerdictView, Wal, WalConfig,
};

use crate::client::{Client, Tally, SHED_BACKOFF};
use crate::probe::{Probe, ProbeWatch, Seen};
use crate::report::Report;
use crate::trace::Tracer;

/// Socket timeout of the generator's connections.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// A probe not visible this long after its `202` counts as failed.
pub const PROBE_DEADLINE: Duration = Duration::from_secs(10);
/// Spacing of repeated polls of a probe that is still 404.
pub const POLL_EVERY: Duration = Duration::from_millis(1);
/// No probe poll starts this close to the next scheduled request (a
/// probe read takes about a third of this).
pub const POLL_GUARD: Duration = Duration::from_micros(300);
/// Idle time before a timed drain, so a background snapshot the traffic
/// started has finished: `drain_s` times the final epoch and compaction,
/// not a race with that snapshot.
pub const SETTLE: Duration = Duration::from_millis(100);
/// Upper bound on waiting for a replica to catch up.
pub const CATCH_UP_DEADLINE: Duration = Duration::from_secs(60);

/// The WAL configuration every serve run uses: shipped defaults with
/// fsync pinned on, so flush policy is the same on both sides of every
/// comparison.
pub fn wal_config() -> WalConfig {
    WalConfig { fsync: true, ..WalConfig::default() }
}

/// `ServerConfig::default()` with only `data_dir` set and fsync pinned.
pub fn primary_config(dir: &Path) -> ServerConfig {
    ServerConfig { data_dir: Some(dir.to_path_buf()), wal: wal_config(), ..ServerConfig::default() }
}

/// `ReplicaConfig::default()` following `primary`, with `data_dir` set
/// and fsync pinned.
pub fn replica_config(primary: SocketAddr, dir: &Path) -> ReplicaConfig {
    ReplicaConfig {
        primary: primary.to_string(),
        data_dir: Some(dir.to_path_buf()),
        wal: wal_config(),
        ..ReplicaConfig::default()
    }
}

/// Records the machine and configuration facts of a serve run.
pub fn serve_facts(report: &mut Report) {
    let server = ServerConfig::default();
    report.fact("nproc", resolve_threads(0));
    report.fact("fsync", wal_config().fsync);
    report.fact("default_shards", DEFAULT_SHARDS);
    report.fact("engine_threads", resolve_threads(0));
    report.fact("primary_workers", server.workers);
    report.fact("replica_workers", ReplicaConfig::default().workers);
    report.fact("epoch_linger_ms", server.epoch_linger.as_secs_f64() * 1e3);
    report.fact("epoch_max_batch", server.epoch_max_batch);
    report.fact("queue_capacity", server.queue_capacity);
    report.fact("full_recompute_threshold", server.epoch.full_recompute_threshold);
}

/// Copies every file of `from` into a fresh directory `to`.
///
/// # Errors
/// Filesystem failures.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Polls `cond` every millisecond until it holds or `deadline` passes.
pub fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while !cond() {
        if Instant::now() > end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A counter from a `/metrics.json` document.
pub fn counter(doc: &Json, key: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_i64)
        .and_then(|v| u64::try_from(v).ok())
        .unwrap_or(0)
}

/// The primary's highest shipped (durable) WAL sequence.
pub fn durable_seq(primary: &ServerHandle) -> Option<u64> {
    let doc = primary.cluster_json();
    doc.get("primary")?.get("durable_seq")?.as_i64().and_then(|v| u64::try_from(v).ok())
}

/// The fingerprint a drained server over `streams` (applied in order)
/// must publish: a one-shot batch evaluation of the same mutations.
///
/// # Errors
/// Evaluation failures.
pub fn reference_fingerprint<'a>(
    streams: impl IntoIterator<Item = &'a [Mutation]>,
) -> Result<u64, String> {
    let mut delta = DeltaDataset::new();
    for stream in streams {
        for m in stream {
            // The server drops invalid mutations too; none are generated.
            let _ = delta.apply(m);
        }
    }
    let dataset = delta.materialize().map_err(|e| format!("reference: {e}"))?;
    let view =
        evaluate_batch(dataset, &EpochConfig::default()).map_err(|e| format!("reference: {e}"))?;
    Ok(view.fingerprint())
}

/// Polls one probe; counts the poll as an operation.
pub fn poll_probe(
    client: &mut Client,
    watch: &mut ProbeWatch,
    probe: &Probe,
    tally: &mut Tally,
) -> Seen {
    let status =
        client.request("GET", &format!("/v1/facts/{}", probe.fact), b"").ok().map(|r| r.status);
    let seen = watch.observe(probe, status, Instant::now());
    tally.note(seen != Seen::Failed);
    seen
}

/// Uses the time until `until` to poll pending probes, leaving
/// [`POLL_GUARD`] free before the next scheduled request.
pub fn poll_while_idle(
    client: &mut Client,
    watch: &mut ProbeWatch,
    tally: &mut Tally,
    until: Instant,
) {
    loop {
        let now = Instant::now();
        if now + POLL_GUARD >= until {
            return;
        }
        let seen = match watch.pending() {
            Some(probe) => poll_probe(client, watch, &probe, tally),
            None => Seen::Pending,
        };
        if !matches!(seen, Seen::Visible(_)) {
            let left = until.saturating_duration_since(Instant::now() + POLL_GUARD);
            std::thread::sleep(POLL_EVERY.min(left));
        }
    }
}

/// Polls until every probe is seen (or `more_coming` stays true past the
/// deadline).
pub fn poll_until_drained(
    client: &mut Client,
    watch: &mut ProbeWatch,
    tally: &mut Tally,
    more_coming: impl Fn() -> bool,
) {
    let end = Instant::now() + PROBE_DEADLINE;
    while (more_coming() || watch.outstanding() > 0) && Instant::now() < end {
        match watch.pending() {
            Some(probe) if poll_probe(client, watch, &probe, tally) != Seen::Pending => {}
            _ => std::thread::sleep(POLL_EVERY),
        }
    }
}

/// Times `http::read_request` on the exact bytes the client sends for
/// one request, as an `http.parse` span.
///
/// # Errors
/// A request the server's parser refuses.
pub fn replay_parse(
    tracer: &mut Tracer,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(), String> {
    let mut bytes = Vec::new();
    write_request(&mut bytes, method, path, body, true)
        .map_err(|e| format!("request bytes: {e}"))?;
    tracer
        .span("http.parse", 1, |_| read_request(&mut bytes.as_slice(), 1 << 20))
        .map(drop)
        .map_err(|e| format!("parse replay: {e:?}"))
}

fn serve_err(context: &str) -> impl Fn(ServeError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Times `Wal::open` on a copy of `dir` (the copy is not timed), `reps`
/// times; returns the durations and the last opened log.
///
/// # Errors
/// Copy or recovery failures.
pub fn time_wal_open(
    dir: &Path,
    scratch: &Path,
    reps: usize,
) -> Result<(Vec<f64>, Wal, corroborate_serve::Recovery), String> {
    let mut times = Vec::new();
    let mut last = None;
    for r in 0..reps.max(1) {
        let copy = scratch.join(format!("open-{r}"));
        copy_dir(dir, &copy)?;
        let start = Instant::now();
        let opened = Wal::open(&copy, wal_config()).map_err(serve_err("replay open"))?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(opened);
    }
    let (wal, recovery) = last.expect("at least one open");
    Ok((times, wal, recovery))
}

/// How the replay's producer pushes batches into the queue.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// At a fixed rate (batches per second), as the open-loop writer does.
    Open(f64),
    /// As fast as the queue accepts, backing off on a full queue.
    Closed,
}

/// Inputs of one traced replay.
pub struct ReplayInput<'a> {
    /// Opened log to journal into.
    pub wal: Wal,
    /// State the log recovered.
    pub recovered: DeltaDataset,
    /// Write batches, in send order.
    pub batches: Vec<&'a [Mutation]>,
    /// Producer pacing.
    pub pace: Pace,
    /// Directory holding a copy of the log's starting state for a
    /// following replica, if the workload has one.
    pub replica_dir: Option<PathBuf>,
    /// Fact names to look up in the final view.
    pub lookups: &'a [String],
}

/// What a replay measured beyond its spans.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Queue wait of each pushed batch (push → the drain that took its
    /// last mutation), ms.
    pub queue_wait_ms: Vec<f64>,
    /// Mutations per non-empty drain.
    pub drained: Vec<f64>,
    /// Full-queue rejections met by the producer.
    pub sheds: u64,
    /// Push attempts.
    pub pushes: u64,
    /// Facts re-scored per epoch.
    pub rescored: Vec<f64>,
    /// Epochs that materialised the dataset (new names, or full).
    pub materializations: u64,
    /// Mutation counts at which a materialising epoch ran.
    pub materialize_marks: Vec<usize>,
    /// Framed WAL bytes written.
    pub wal_bytes: u64,
    /// Snapshot compactions that landed.
    pub compactions: u64,
}

/// Matches pushes to drains in FIFO order: each pushed batch waited from
/// its push until the drain that took its last mutation.
pub fn queue_waits(pushes: &[(Instant, usize)], drains: &[(Instant, usize)]) -> Vec<Duration> {
    let mut out = Vec::with_capacity(pushes.len());
    let (mut pushed, mut drained) = (0usize, 0usize);
    let mut d = drains.iter();
    let mut current: Option<Instant> = None;
    for &(at, len) in pushes {
        pushed += len;
        while drained < pushed {
            match d.next() {
                Some(&(when, n)) => {
                    drained += n;
                    current = Some(when);
                }
                None => return out,
            }
        }
        if let Some(when) = current {
            out.push(when.saturating_duration_since(at));
        }
    }
    out
}

/// Replays a workload's writes through the serve layers in-process, with
/// the server's own queue, linger and epoch schedule: a producer thread
/// pushes the batches into an [`IngestQueue`], and a consumer thread runs
/// the epoch loop — drain, WAL append and flush, delta apply, epoch,
/// publish, compaction — with a span around each public call. A
/// following replica, if any, tails the ship log after every epoch.
/// Returns the measurements and every span, both threads merged.
///
/// # Errors
/// Any serve-layer failure.
pub fn replay(input: ReplayInput<'_>, origin: Instant) -> Result<(Replayed, Tracer), String> {
    let config = ServerConfig::default();
    let queue = IngestQueue::new(config.queue_capacity);
    let mut wal = input.wal;
    let ship = Arc::new(ShipLog::new(4 << 20));
    wal.attach_shipper(Arc::clone(&ship)).map_err(serve_err("attach shipper"))?;
    let mut follower = match &input.replica_dir {
        Some(dir) => {
            let (core, _) =
                ReplicaCore::recover(dir, Arc::new(StdFs), wal_config(), config.epoch, &NOOP)
                    .map_err(serve_err("replica recover"))?;
            Some(core)
        }
        None => None,
    };
    let mut engine = EpochEngine::from_recovered(input.recovered.clone(), config.epoch)
        .map_err(serve_err("engine"))?;
    let published = Published::new(VerdictView::empty(&config.epoch).map_err(serve_err("view"))?);
    let mut out = Replayed::default();

    let mut consumer_trace = Tracer::new(origin);
    if engine.delta().n_facts() > 0 {
        let start = Instant::now();
        let (view, _) = engine.run_epoch(EpochMode::Full).map_err(serve_err("boot epoch"))?;
        consumer_trace.record("epoch.full", start, Instant::now(), 1);
        published.publish(view);
    }

    let (producer_trace, pushes, drains) = std::thread::scope(|scope| -> Result<_, String> {
        let queue = &queue;
        let batches = &input.batches;
        let pace = input.pace;
        let producer = scope.spawn(move || {
            let mut trace = Tracer::new(origin);
            let mut pushes = Vec::with_capacity(batches.len());
            let (mut sheds, mut attempts) = (0u64, 0u64);
            let schedule = match pace {
                Pace::Open(rate) => Some(crate::client::OpenLoop::new(Instant::now(), rate)),
                Pace::Closed => None,
            };
            for (i, batch) in batches.iter().enumerate() {
                if let Some(schedule) = &schedule {
                    schedule.wait_for(i as u64);
                }
                loop {
                    let owned = batch.to_vec();
                    attempts += 1;
                    let start = Instant::now();
                    let pushed = queue.try_push(owned);
                    let end = Instant::now();
                    trace.record("queue.push", start, end, 1);
                    match pushed {
                        Ok(()) => {
                            pushes.push((end, batch.len()));
                            break;
                        }
                        Err(ServeError::QueueFull { .. }) => {
                            sheds += 1;
                            std::thread::sleep(SHED_BACKOFF);
                        }
                        Err(e) => {
                            queue.close();
                            return Err(format!("replay push: {e}"));
                        }
                    }
                }
            }
            queue.close();
            Ok((trace, pushes, sheds, attempts))
        });

        let mut drains: Vec<(Instant, usize)> = Vec::new();
        let mut applied = 0usize;
        let mut names = (engine.delta().n_facts(), engine.delta().n_sources());
        let t = &mut consumer_trace;
        let consumed = (|| -> Result<(), String> {
            while let Some(batch) = queue.drain_batch(config.epoch_max_batch, config.epoch_linger) {
                if batch.is_empty() {
                    continue;
                }
                drains.push((Instant::now(), batch.len()));
                t.span("epoch.step", batch.len() as u64, |t| -> Result<(), String> {
                    let receipt = t
                        .span("wal.append", 1, |_| wal.append_batch(&batch))
                        .map_err(serve_err("append"))?;
                    out.wal_bytes += receipt.bytes;
                    t.span("wal.fsync_wait", 1, |_| wal.flush()).map_err(serve_err("flush"))?;
                    t.span("delta.apply", batch.len() as u64, |_| {
                        for m in &batch {
                            let _ = engine.apply(m);
                        }
                    });
                    applied += batch.len();
                    if engine.pending() == 0 {
                        return Ok(());
                    }
                    let now_names = (engine.delta().n_facts(), engine.delta().n_sources());
                    let start = Instant::now();
                    let (view, stats) =
                        engine.run_epoch(EpochMode::Auto).map_err(serve_err("epoch"))?;
                    // An incremental epoch that registered new names
                    // materialises and re-indexes the dataset; one that did
                    // not republishes the cached one.
                    let materialized = stats.full || now_names != names;
                    let name = match (stats.full, materialized) {
                        (true, _) => "epoch.full",
                        (false, true) => "epoch.materializing",
                        (false, false) => "epoch.incremental",
                    };
                    t.record(name, start, Instant::now(), 1);
                    out.rescored.push(stats.facts_rescored as f64);
                    if materialized {
                        out.materializations += 1;
                        out.materialize_marks.push(applied);
                    }
                    names = now_names;
                    t.span("epoch.publish", 1, |_| published.publish(view));
                    let in_flight = wal.compaction_in_flight();
                    let start = Instant::now();
                    let landed = wal.maybe_compact(engine.delta()).map_err(serve_err("compact"))?;
                    if landed || (!in_flight && wal.compaction_in_flight()) {
                        t.record("wal.compact", start, Instant::now(), 1);
                    }
                    out.compactions += u64::from(landed);
                    Ok(())
                })?;
                if let Some(core) = follower.as_mut() {
                    let from = core.applied_seq() + 1;
                    let tail = t.span("ship.tail", 1, |_| ship.tail_since(from, 1 << 20));
                    if let TailResponse::Frames { bytes, .. } = tail {
                        t.span("replica.apply", 1, |_| core.apply_shipped(&bytes, &NOOP))
                            .map_err(serve_err("replica apply"))?;
                    }
                }
            }
            Ok(())
        })();
        if consumed.is_err() {
            queue.close();
        }
        let (trace, pushes, sheds, attempts) =
            producer.join().map_err(|_| "replay producer panicked".to_string())??;
        consumed?;
        out.sheds = sheds;
        out.pushes = attempts;
        Ok((trace, pushes, drains))
    })?;

    // The drain epoch and its closing compaction, as shutdown runs them.
    let start = Instant::now();
    let (view, _) = engine.run_epoch(EpochMode::Full).map_err(serve_err("drain epoch"))?;
    consumer_trace.record("epoch.full", start, Instant::now(), 1);
    published.publish(view);
    let start = Instant::now();
    wal.compact(engine.delta()).map_err(serve_err("drain compact"))?;
    consumer_trace.record("wal.compact", start, Instant::now(), 1);
    out.compactions += 1;

    for name in input.lookups {
        traced_lookup(&mut consumer_trace, &published, name);
    }

    out.queue_wait_ms =
        queue_waits(&pushes, &drains).into_iter().map(|d| d.as_secs_f64() * 1e3).collect();
    out.drained = drains.iter().map(|&(_, n)| n as f64).collect();
    consumer_trace.absorb(producer_trace);
    Ok((out, consumer_trace))
}

/// Looks `name` up the way a fact read does — the published view, the
/// fact, its probability and the trust of its voters — as a
/// `view.lookup` span.
pub fn traced_lookup(tracer: &mut Tracer, published: &Published<VerdictView>, name: &str) {
    tracer.span("view.lookup", 1, |_| {
        let view = published.get();
        if let Some(fact) = view.fact_by_name(name) {
            let p = view.probability(fact);
            let trust: f64 = view
                .dataset()
                .votes()
                .votes_on(fact)
                .iter()
                .map(|sv| view.trust().trust(sv.source))
                .sum();
            black_box((p, trust));
        }
    });
}

/// Times `DeltaDataset::materialize` at (at most `limit`, evenly spread)
/// of the replay's materialising epochs, re-applying the same stream to a
/// copy of the starting state off the replay's clock.
pub fn time_materializations(
    base: &DeltaDataset,
    stream: &[&[Mutation]],
    marks: &[usize],
    limit: usize,
) -> Result<Vec<f64>, String> {
    let step = marks.len().div_ceil(limit.max(1)).max(1);
    let mut delta = base.clone();
    let mut all = stream.iter().flat_map(|b| b.iter());
    let mut applied = 0usize;
    let mut times = Vec::new();
    for &mark in marks.iter().step_by(step) {
        for m in all.by_ref().take(mark - applied) {
            let _ = delta.apply(m);
        }
        applied = mark;
        let start = Instant::now();
        black_box(delta.materialize().map_err(|e| format!("materialize: {e}"))?);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_waits_match_pushes_to_the_drain_that_took_their_last_mutation() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        // Pushes of 3, 2, 4 mutations; drains of 4 then 5.
        let pushes = [(ms(0), 3), (ms(1), 2), (ms(2), 4)];
        let drains = [(ms(10), 4), (ms(30), 5)];
        let waits: Vec<u128> =
            queue_waits(&pushes, &drains).iter().map(|d| d.as_millis()).collect();
        assert_eq!(waits, vec![10, 29, 28]);
        // An undrained tail is not reported.
        assert_eq!(queue_waits(&pushes, &drains[..1]).len(), 1);
    }
}

//! `read_heavy`: steady-state serving. A restarted primary recovers a
//! journalled world (snapshot plus log segments) and one replica follows
//! it. Thread R reads facts from the replica in an open loop; thread W
//! posts small vote-churn batches to the primary in an open loop, every
//! [`PROBE_EVERY`]-th one carrying a never-seen probe fact whose
//! visibility W checks on the primary and R on the replica.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use corroborate_serve::http::write_response_headers;
use corroborate_serve::replica::{self, ReplicaConfig, ReplicaHandle};
use corroborate_serve::{DeltaDataset, Mutation, ServerConfig, ServerHandle, Wal};

use crate::client::{
    generator_lateness, post_until_accepted, read_ok, Client, OpenLoop, Tally, SHED_BACKOFF,
};
use crate::gen::{self, WriteBatch};
use crate::probe::{ProbeFeed, ProbeWatch};
use crate::report::{check_connection_budget, peak_rss_mb, process_cpu_s, Report};
use crate::serve::{self, Pace, ReplayInput, CATCH_UP_DEADLINE, CLIENT_TIMEOUT};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{engine, Args};

/// Candidate facts in the journalled world.
const WORLD_FACTS: usize = 30_000;
/// Mutations per WAL batch while journalling the world.
const JOURNAL_BATCH: usize = 512;
/// Open-loop read rate on the replica (well below saturation).
const READS_PER_SEC: f64 = 1000.0;
/// Open-loop write rate on the primary, in batches per second.
const WRITES_PER_SEC: f64 = 100.0;
/// Churn votes per write batch.
const VOTES_PER_WRITE: usize = 10;
/// Every this many writes carries a probe.
const PROBE_EVERY: usize = 8;
/// Boots of primary plus replica per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Generator lateness (p99) past which a run is invalid.
pub const LATE_P99_BOUND_MS: f64 = 25.0;
/// Response bodies the traced run keeps for the respond replay.
const CAPTURED_BODIES: usize = 4096;

/// One writer thread's record.
#[derive(Default)]
struct WriterOut {
    latency_us: Vec<f64>,
    lateness_ms: Vec<f64>,
    acked: Vec<usize>,
    barriers: u64,
    tally: Tally,
    visible_ms: Vec<f64>,
}

/// One reader thread's record.
#[derive(Default)]
struct ReaderOut {
    latency_us: Vec<f64>,
    ttfb_us: Vec<f64>,
    lateness_ms: Vec<f64>,
    bodies: Vec<Vec<u8>>,
    tally: Tally,
    visible_ms: Vec<f64>,
}

struct Traffic<'a> {
    batches: &'a [WriteBatch],
    barrier: &'a WriteBatch,
    /// Mutations journalled before traffic (the prepared world).
    journalled: usize,
    names: &'a [String],
    start: Instant,
    end: Instant,
    capture: bool,
}

fn writer(
    primary: SocketAddr,
    t: &Traffic<'_>,
    feed: &ProbeFeed,
    done: &AtomicBool,
) -> Result<WriterOut, String> {
    let mut client = Client::connect(primary, CLIENT_TIMEOUT)?;
    let mut watch = ProbeWatch::new(Arc::clone(feed), serve::PROBE_DEADLINE);
    let schedule = OpenLoop::new(t.start, WRITES_PER_SEC);
    let mut out = WriterOut::default();
    let mut previous = t.start;
    for (i, batch) in t.batches.iter().enumerate() {
        let due = schedule.due(i as u64);
        if due >= t.end {
            break;
        }
        serve::poll_while_idle(&mut client, &mut watch, &mut out.tally, due);
        schedule.wait_for(i as u64);
        let sent = Instant::now();
        out.lateness_ms.push(generator_lateness(due, previous, sent).as_secs_f64() * 1e3);
        let ok = post_until_accepted(&mut out.tally, SHED_BACKOFF, || {
            client.request("POST", "/v1/votes", batch.body.as_bytes())
        });
        let acked = Instant::now();
        previous = acked;
        if ok {
            out.latency_us.push((acked - due).as_secs_f64() * 1e6);
            out.acked.push(i);
            if let Some(fact) = &batch.probe {
                feed.lock()
                    .expect("probe feed lock poisoned")
                    .push(crate::probe::Probe { fact: fact.clone(), acked });
            }
        }
    }
    // With fsync on, the primary ships a WAL frame only once a later
    // append confirms its fsync, and the queue may fold the last batches
    // into one frame: no-op registrations follow until `/cluster` shows
    // every acknowledged batch shipped.
    let target =
        t.journalled + out.acked.iter().map(|&i| t.batches[i].mutations.len()).sum::<usize>();
    let give_up = Instant::now() + CATCH_UP_DEADLINE;
    while shipped_seq(&mut client)? < target as u64 {
        if Instant::now() > give_up {
            return Err(format!("the primary never shipped up to seq {target}"));
        }
        let ok = post_until_accepted(&mut out.tally, SHED_BACKOFF, || {
            client.request("POST", "/v1/votes", t.barrier.body.as_bytes())
        });
        out.barriers += u64::from(ok);
        std::thread::sleep(ServerConfig::default().epoch_linger);
    }
    done.store(true, Ordering::Release);
    serve::poll_until_drained(&mut client, &mut watch, &mut out.tally, || false);
    out.visible_ms = watch.visible.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    out.tally.failed += watch.outstanding() as u64;
    Ok(out)
}

/// The primary's highest shipped sequence, from `GET /cluster`.
fn shipped_seq(client: &mut Client) -> Result<u64, String> {
    let reply = client.request("GET", "/cluster", b"")?;
    let doc = std::str::from_utf8(&reply.body)
        .ok()
        .and_then(|text| corroborate_obs::Json::parse(text).ok())
        .ok_or("GET /cluster: not JSON")?;
    doc.get("primary")
        .and_then(|p| p.get("durable_seq"))
        .and_then(corroborate_obs::Json::as_i64)
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| "GET /cluster: no durable_seq".to_string())
}

fn reader(
    replica: SocketAddr,
    t: &Traffic<'_>,
    feed: &ProbeFeed,
    writer_done: &AtomicBool,
) -> Result<ReaderOut, String> {
    let mut client = Client::connect(replica, CLIENT_TIMEOUT)?;
    let mut watch = ProbeWatch::new(Arc::clone(feed), serve::PROBE_DEADLINE);
    let schedule = OpenLoop::new(t.start, READS_PER_SEC);
    let mut out = ReaderOut::default();
    let mut previous = t.start;
    for i in 0u64.. {
        let due = schedule.due(i);
        if due >= t.end {
            break;
        }
        serve::poll_while_idle(&mut client, &mut watch, &mut out.tally, due);
        schedule.wait_for(i);
        let name = &t.names[i as usize % t.names.len()];
        let sent = Instant::now();
        out.lateness_ms.push(generator_lateness(due, previous, sent).as_secs_f64() * 1e3);
        let reply = client.request("GET", &format!("/v1/facts/{name}"), b"");
        let done = Instant::now();
        previous = done;
        let ok = match reply {
            Ok(reply) if read_ok(reply.status, false) => {
                out.latency_us.push((done - due).as_secs_f64() * 1e6);
                out.ttfb_us.push((reply.first_byte - reply.sent).as_secs_f64() * 1e6);
                if t.capture && out.bodies.len() < CAPTURED_BODIES {
                    out.bodies.push(reply.body);
                }
                true
            }
            _ => false,
        };
        out.tally.note(ok);
    }
    serve::poll_until_drained(&mut client, &mut watch, &mut out.tally, || {
        !writer_done.load(Ordering::Acquire)
    });
    out.visible_ms = watch.visible.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    out.tally.failed += watch.outstanding() as u64;
    Ok(out)
}

/// Journals `mutations` into `dir` the way a running primary would have:
/// batched appends with background compaction, so the directory holds a
/// snapshot plus the log segments written after it.
fn journal(dir: &Path, mutations: &[Mutation]) -> Result<(), String> {
    let (mut wal, _) = Wal::open(dir, serve::wal_config()).map_err(|e| format!("journal: {e}"))?;
    let mut delta = DeltaDataset::new();
    for chunk in mutations.chunks(JOURNAL_BATCH) {
        wal.append_batch(chunk).map_err(|e| format!("journal: {e}"))?;
        delta.apply_all(chunk).map_err(|e| format!("journal: {e}"))?;
        wal.maybe_compact(&delta).map_err(|e| format!("journal: {e}"))?;
    }
    while wal.compaction_in_flight() {
        std::thread::sleep(Duration::from_millis(1));
        wal.maybe_compact(&delta).map_err(|e| format!("journal: {e}"))?;
    }
    wal.flush().map_err(|e| format!("journal: {e}"))?;
    Ok(())
}

struct Booted {
    primary: ServerHandle,
    replica: ReplicaHandle,
    setup_s: f64,
    catchup_s: f64,
}

fn boot(prep: &Path, work: &Path, rep: usize) -> Result<Booted, String> {
    let primary_dir = work.join(format!("primary-{rep}"));
    let replica_dir = work.join(format!("replica-{rep}"));
    serve::copy_dir(prep, &primary_dir)?;
    let start = Instant::now();
    let primary = corroborate_serve::start(serve::primary_config(&primary_dir))
        .map_err(|e| format!("start primary: {e}"))?;
    let booted = Instant::now();
    let replica = replica::start(serve::replica_config(primary.addr(), &replica_dir))
        .map_err(|e| format!("start replica: {e}"))?;
    if !serve::wait_until(CATCH_UP_DEADLINE, || replica.caught_up()) {
        return Err(format!("replica never caught up: {:?}", replica.last_error()));
    }
    let done = Instant::now();
    Ok(Booted {
        primary,
        replica,
        setup_s: (done - start).as_secs_f64(),
        catchup_s: (done - booted).as_secs_f64(),
    })
}

/// Runs the workload.
///
/// # Errors
/// A failed correctness gate, an invalid run, or any serve failure.
pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    serve::serve_facts(&mut report);
    report.fact("seed", args.seed);
    report.fact("generator_threads", 2u64);
    report.fact("connections_primary", 1u64);
    report.fact("connections_replica", 1u64);
    report.fact("read_rate_per_s", READS_PER_SEC);
    report.fact("write_rate_per_s", WRITES_PER_SEC);
    report.fact("votes_per_write", VOTES_PER_WRITE);
    report.fact("probe_every", PROBE_EVERY);

    // Connection budget: W's connection plus the replica's fetch
    // connection on the primary; R's connection on the replica.
    check_connection_budget("primary", 2, ServerConfig::default().workers)?;
    check_connection_budget("replica", 1, ReplicaConfig::default().workers)?;

    // Inputs, before any clock starts.
    let world = gen::world(WORLD_FACTS, gen::WORLD_SEED, args.seed)?;
    let base = DeltaDataset::mutations_of(&world);
    let n_writes = (WRITES_PER_SEC * args.seconds as f64) as usize + 1;
    let batches = gen::churn_batches(&world, args.seed, n_writes, VOTES_PER_WRITE, PROBE_EVERY);
    let first_source = world.source_name(world.sources().next().ok_or("world has no sources")?);
    let barrier_muts = vec![Mutation::AddSource { name: first_source.to_string() }];
    let barrier =
        WriteBatch { body: gen::ingest_body(&barrier_muts), mutations: barrier_muts, probe: None };
    let names =
        gen::read_names(&world, args.seed, (READS_PER_SEC * args.seconds as f64) as usize + 1);
    let prep = work.join("prep");
    journal(&prep, &base)?;
    let entries: Vec<String> = std::fs::read_dir(&prep)
        .map_err(|e| format!("prep: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect();
    report.fact("world_facts", world.n_facts());
    report.fact("journal_snapshot", entries.iter().any(|n| n == "snapshot.json"));
    report.fact("journal_segments", entries.iter().filter(|n| n.ends_with(".seg")).count());

    // Set-up: the first boot serves the traffic; more boots of the same
    // directory follow it (see below) for the set-up and drain medians.
    let booted = boot(&prep, work, 0)?;
    let (mut setups, mut catchups) = (vec![booted.setup_s], vec![booted.catchup_s]);
    let Booted { primary, replica, .. } = booted;
    let counters_before = primary.metrics_json();

    // Traffic.
    let start = Instant::now() + Duration::from_millis(20);
    let traffic = Traffic {
        batches: &batches,
        barrier: &barrier,
        journalled: base.len(),
        names: &names,
        start,
        end: start + Duration::from_secs(args.seconds),
        capture: args.trace,
    };
    let feed: ProbeFeed = Arc::new(Mutex::new(Vec::new()));
    let done = AtomicBool::new(false);
    let cpu_start = process_cpu_s().ok_or("no process CPU time")?;
    let (w, r) = std::thread::scope(|scope| {
        let w = scope.spawn(|| writer(primary.addr(), &traffic, &feed, &done));
        let r = scope.spawn(|| reader(replica.addr(), &traffic, &feed, &done));
        let w = w.join().map_err(|_| "writer panicked".to_string()).and_then(|x| x);
        let r = r.join().map_err(|_| "reader panicked".to_string()).and_then(|x| x);
        (w, r)
    });
    let (w, r) = (w?, r?);
    let traffic_s = (Instant::now() - start).as_secs_f64();
    // The whole process, servers and generator together: the kernel
    // charges loopback TCP work to the sending or the receiving thread as
    // timing falls, so the servers' share alone moves with the host's load
    // while the sum holds.
    let cpu_s = process_cpu_s().ok_or("no process CPU time")? - cpu_start;

    // Every acknowledged batch must be journalled and shipped (the queue
    // may still hold the last ones), and the replica must have applied it
    // all, before both drain and the gates compare them.
    let journalled =
        base.len() + w.acked.iter().map(|&i| batches[i].mutations.len()).sum::<usize>();
    let target = journalled as u64;
    if !serve::wait_until(CATCH_UP_DEADLINE, || {
        serve::durable_seq(&primary).is_some_and(|d| d >= target)
    }) {
        return Err(format!("primary never shipped up to seq {target}"));
    }
    if !serve::wait_until(CATCH_UP_DEADLINE, || replica.applied_seq() >= target) {
        return Err(format!("replica stuck at {} of {target}", replica.applied_seq()));
    }
    let counters_after = primary.metrics_json();
    std::thread::sleep(serve::SETTLE);
    let drain_start = Instant::now();
    let primary_view = primary.shutdown().map_err(|e| format!("drain: {e}"))?;
    let mut drains = vec![drain_start.elapsed().as_secs_f64()];
    let replica_view = replica.shutdown().map_err(|e| format!("replica drain: {e}"))?;
    // Read before the extra boots below, whose transient allocations
    // would otherwise set the peak.
    let peak_rss = peak_rss_mb().ok_or("no VmHWM")?;
    let mut streams: Vec<&[Mutation]> = vec![&base];
    streams.extend(w.acked.iter().map(|&i| batches[i].mutations.as_slice()));
    streams.extend((0..w.barriers).map(|_| barrier.mutations.as_slice()));
    let expected = serve::reference_fingerprint(streams.iter().copied())?;
    let (pf, rf) = (primary_view.fingerprint(), replica_view.fingerprint());
    if pf != rf || pf != expected {
        return Err(format!(
            "gate: primary {pf:016x}, replica {rf:016x}, batch evaluation {expected:016x} differ"
        ));
    }
    report.say(format!("gate primary == replica == evaluate_batch: {pf:016x} ok"));

    let lateness: Vec<f64> = w.lateness_ms.iter().chain(&r.lateness_ms).copied().collect();
    let late_p99 = percentile(&lateness, 0.99).ok_or("too few requests to judge lateness")?;
    report.say(format!(
        "generator lateness p50 {:.3} ms, p99 {late_p99:.3} ms (bound {LATE_P99_BOUND_MS} ms)",
        median(&lateness).unwrap_or(0.0)
    ));
    if late_p99 > LATE_P99_BOUND_MS {
        return Err(format!("invalid run: the generator ran {late_p99:.2} ms late at p99"));
    }

    for rep in 1..SETUP_REPS {
        let booted = boot(&prep, work, rep)?;
        setups.push(booted.setup_s);
        catchups.push(booted.catchup_s);
        std::thread::sleep(serve::SETTLE);
        let start = Instant::now();
        booted.primary.shutdown().map_err(|e| format!("drain: {e}"))?;
        drains.push(start.elapsed().as_secs_f64());
        booted.replica.shutdown().map_err(|e| format!("replica drain: {e}"))?;
    }

    let tally = w.tally.merge(r.tally);
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.fact("traffic_s", traffic_s);
    report.fact("writes_acked", w.acked.len());
    report.fact("reads", r.latency_us.len());
    report.fact("sheds", tally.sheds);
    report.fact("cpu_s", cpu_s);

    if !args.trace {
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s", setups.len());
        // Per scheduled read or write. Probe polls are left out of the
        // count (their number follows how fast probes show up), not out of
        // the CPU time.
        let ops = r.latency_us.len() + w.latency_us.len();
        report.metric("cpu_us_per_op", cpu_s * 1e6 / ops.max(1) as f64, "us", ops);
        report.quantile("read_p50_us", &r.latency_us, 0.5, "us")?;
        report.quantile("read_p99_us", &r.latency_us, 0.99, "us")?;
        report.quantile("write_p50_us", &w.latency_us, 0.5, "us")?;
        report.quantile("write_p99_us", &w.latency_us, 0.99, "us")?;
        report.quantile("visible_p50_ms", &w.visible_ms, 0.5, "ms")?;
        report.quantile("visible_p90_ms", &w.visible_ms, 0.9, "ms")?;
        report.quantile("replica_visible_p50_ms", &r.visible_ms, 0.5, "ms")?;
        report.quantile("replica_visible_p90_ms", &r.visible_ms, 0.9, "ms")?;
        report.metric("drain_s", median(&drains).unwrap_or(0.0), "s", drains.len());
        report.metric("peak_rss_mb", peak_rss, "MB", 1);
        return Ok(report);
    }

    // Traced run: the per-layer replay of the same inputs.
    let origin = Instant::now();
    let acked: Vec<&[Mutation]> =
        w.acked.iter().map(|&i| batches[i].mutations.as_slice()).collect();
    let replay_batches = acked[..acked.len().min((WRITES_PER_SEC * 5.0) as usize)].to_vec();
    let (open_times, wal, recovery) = serve::time_wal_open(&prep, &work.join("replay"), 3)?;
    let replica_copy = work.join("replay-replica");
    serve::copy_dir(&prep, &replica_copy)?;
    let dataset = recovery.dataset.materialize().map_err(|e| format!("materialize: {e}"))?;
    let lookups = &names[..names.len().min(20_000)];
    let (replayed, mut tracer) = serve::replay(
        ReplayInput {
            wal,
            recovered: recovery.dataset,
            batches: replay_batches,
            pace: Pace::Open(WRITES_PER_SEC),
            replica_dir: Some(replica_copy),
            lookups,
        },
        origin,
    )?;
    for name in lookups {
        serve::replay_parse(&mut tracer, "GET", &format!("/v1/facts/{name}"), b"")?;
    }
    // The response writer, on the bodies the reader actually received.
    let mut out = Vec::with_capacity(1 << 16);
    for body in &r.bodies {
        out.clear();
        tracer
            .span("http.respond", 1, |_| {
                write_response_headers(&mut out, 200, "application/json", &[], body, true)
            })
            .map_err(|e| format!("respond replay: {e}"))?;
    }

    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let layer = |t: &Tracer, name: &str| med(&t.self_ns_per_unit(name));
    report.metric("http.read_ttfb_us", med(&r.ttfb_us), "us", r.ttfb_us.len());
    let parse_ns = layer(&tracer, "http.parse");
    let respond_ns = layer(&tracer, "http.respond");
    let lookup_ns = layer(&tracer, "view.lookup");
    report.metric("http.parse_ns", parse_ns, "ns", tracer.count("http.parse"));
    report.metric("http.respond_ns", respond_ns, "ns", tracer.count("http.respond"));
    report.metric("view.lookup_ns", lookup_ns, "ns", tracer.count("view.lookup"));
    let incremental_us = layer(&tracer, "epoch.incremental") / 1e3;
    report.metric("epoch.incremental_us", incremental_us, "us", tracer.count("epoch.incremental"));
    let materializing_ms = layer(&tracer, "epoch.materializing") / 1e6;
    report.metric(
        "epoch.materializing_ms",
        materializing_ms,
        "ms",
        tracer.count("epoch.materializing"),
    );
    report.metric(
        "epoch.full_ms",
        layer(&tracer, "epoch.full") / 1e6,
        "ms",
        tracer.count("epoch.full"),
    );
    report.metric(
        "epoch.facts_rescored",
        med(&replayed.rescored),
        "count",
        replayed.rescored.len(),
    );
    let publish_ns = layer(&tracer, "epoch.publish");
    report.metric("epoch.publish_ns", publish_ns, "ns", tracer.count("epoch.publish"));
    let queue_ms = med(&replayed.queue_wait_ms);
    report.metric("queue.wait_ms", queue_ms, "ms", replayed.queue_wait_ms.len());
    let append_us = layer(&tracer, "wal.append") / 1e3;
    let fsync_us = layer(&tracer, "wal.fsync_wait") / 1e3;
    report.metric("wal.append_us", append_us, "us", tracer.count("wal.append"));
    report.metric("wal.fsync_wait_us", fsync_us, "us", tracer.count("wal.fsync_wait"));
    report.metric("wal.replay_s", med(&open_times), "s", open_times.len());
    report.metric(
        "ship.tail_us",
        layer(&tracer, "ship.tail") / 1e3,
        "us",
        tracer.count("ship.tail"),
    );
    report.metric(
        "replica.apply_us",
        layer(&tracer, "replica.apply") / 1e3,
        "us",
        tracer.count("replica.apply"),
    );
    report.metric("replica.catchup_s", med(&catchups), "s", catchups.len());
    let votes: usize = w.acked.iter().map(|&i| batches[i].mutations.len()).sum();
    let shipped = serve::counter(&counters_after, "repl_bytes_shipped")
        .saturating_sub(serve::counter(&counters_before, "repl_bytes_shipped"));
    report.metric("replica.bytes_per_vote", shipped as f64 / votes.max(1) as f64, "B/vote", votes);
    // The engine on the recovered world, as the boot epoch runs it.
    engine::traced_sessions(&mut tracer, &dataset, Duration::ZERO, &|_| Ok(()), &mut report)?;
    report.metric("gen.late_p99_ms", late_p99, "ms", lateness.len());
    let apply_ns = layer(&tracer, "delta.apply");
    let batch_muts = med(&replayed.drained);

    // Residuals: end-to-end medians against the per-layer medians on
    // their blocking paths.
    let read_e2e = med(&r.latency_us);
    let read_layers = (parse_ns + lookup_ns + respond_ns) / 1e3;
    report.metric("unattributed.read_us", read_e2e - read_layers, "us", r.latency_us.len());
    report.say(format!(
        "residual read: end-to-end p50 {read_e2e:.1} us = layers {read_layers:.1} us \
         (parse {parse_ns:.0} ns + lookup {lookup_ns:.0} ns + respond {respond_ns:.0} ns) \
         + unattributed {:.1} us",
        read_e2e - read_layers
    ));
    let visible_e2e = med(&w.visible_ms);
    // A probe registers a new fact, so its epoch is a materialising one.
    let visible_layers = queue_ms
        + (append_us + fsync_us) / 1e3
        + materializing_ms
        + (apply_ns * batch_muts + publish_ns + lookup_ns) / 1e6;
    report.metric(
        "unattributed.visible_ms",
        visible_e2e - visible_layers,
        "ms",
        w.visible_ms.len(),
    );
    report.say(format!(
        "residual visible: end-to-end p50 {visible_e2e:.2} ms = layers {visible_layers:.2} ms \
         (queue {queue_ms:.2} ms + wal {:.3} ms + apply {:.3} ms + epoch {:.3} ms + publish/lookup) \
         + unattributed {:.2} ms",
        (append_us + fsync_us) / 1e3,
        apply_ns * batch_muts / 1e6,
        materializing_ms,
        visible_e2e - visible_layers
    ));
    crate::write_spans("read_heavy", args, &tracer)?;
    Ok(report)
}

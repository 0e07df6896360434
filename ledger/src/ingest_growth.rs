//! `ingest_growth`: bulk growth into an empty durable primary with no
//! replica. Thread W streams a growing world in a closed loop, one
//! fixed-size body at a time; every body adds new sources and facts, and
//! its last new fact is the probe that thread R polls for on the primary.
//!
//! The run repeats *cycles* — fresh primary on an empty directory, the
//! same seeded body sequence, drain — for `--seconds`, so every cycle
//! grows the same world and drain and throughput are medians over cycles
//! of equal work.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use corroborate_serve::{evaluate_batch, EpochConfig, Mutation, ServerConfig, Wal};

use crate::client::{post_until_accepted, read_ok, Client, Tally, SHED_BACKOFF};
use crate::gen::{self, WriteBatch};
use crate::probe::{Probe, ProbeFeed, ProbeWatch, Seen};
use crate::report::{check_connection_budget, peak_rss_mb, process_cpu_s, Report};
use crate::serve::{self, Pace, ReplayInput, CLIENT_TIMEOUT, POLL_EVERY};
use crate::stats::{median, ratio};
use crate::{engine, Args};

/// Candidate facts per body's sub-world.
const BODY_FACTS: usize = 60;
/// Bodies per cycle.
const BODIES: usize = 300;
/// Extra start/shutdown pairs on empty directories for `setup_s`.
const SETUP_EXTRA: usize = 4;

#[derive(Default)]
struct CycleOut {
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    visible_ms: Vec<f64>,
    tally: Tally,
    votes: u64,
    traffic_s: f64,
    /// CPU time of the whole process over the cycle, generator included
    /// (see `read_heavy`), s.
    cpu_s: f64,
}

fn is_vote(m: &Mutation) -> bool {
    matches!(m, Mutation::Cast { .. })
}

fn writer(
    primary: SocketAddr,
    bodies: &[WriteBatch],
    feed: &ProbeFeed,
    out: &mut CycleOut,
) -> Result<(), String> {
    let mut client = Client::connect(primary, CLIENT_TIMEOUT)?;
    let start = Instant::now();
    for body in bodies {
        let sent = Instant::now();
        let ok = post_until_accepted(&mut out.tally, SHED_BACKOFF, || {
            client.request("POST", "/v1/votes", body.body.as_bytes())
        });
        let acked = Instant::now();
        if !ok {
            return Err("a growth body was refused".to_string());
        }
        out.write_us.push((acked - sent).as_secs_f64() * 1e6);
        out.votes += body.mutations.iter().filter(|m| is_vote(m)).count() as u64;
        if let Some(fact) = &body.probe {
            feed.lock()
                .expect("probe feed lock poisoned")
                .push(Probe { fact: fact.clone(), acked });
        }
    }
    out.traffic_s = start.elapsed().as_secs_f64();
    Ok(())
}

/// Closed-loop probe polling, one read per [`POLL_EVERY`] while the
/// oldest probe is still 404: every poll is a timed read.
fn reader(
    primary: SocketAddr,
    feed: &ProbeFeed,
    writer_done: &AtomicBool,
) -> Result<(Vec<f64>, ProbeWatch, Tally), String> {
    let mut client = Client::connect(primary, CLIENT_TIMEOUT)?;
    let mut watch = ProbeWatch::new(Arc::clone(feed), serve::PROBE_DEADLINE);
    let mut tally = Tally::default();
    let mut read_us = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        let Some(probe) = watch.pending() else {
            if writer_done.load(Ordering::Acquire) && watch.outstanding() == 0 {
                break;
            }
            std::thread::sleep(POLL_EVERY / 4);
            continue;
        };
        if Instant::now() > give_up {
            return Err("probe polling ran past its deadline".to_string());
        }
        let sent = Instant::now();
        let reply = client.request("GET", &format!("/v1/facts/{}", probe.fact), b"");
        let done = Instant::now();
        let status = reply.as_ref().ok().map(|r| r.status);
        if status.is_some_and(|s| read_ok(s, true)) {
            read_us.push((done - sent).as_secs_f64() * 1e6);
        }
        let seen = watch.observe(&probe, status, done);
        tally.note(seen != Seen::Failed);
        if seen == Seen::Pending {
            std::thread::sleep(POLL_EVERY);
        }
    }
    Ok((read_us, watch, tally))
}

/// One cycle: boot on an empty directory, stream every body, drain, and
/// gate the result. Returns the cycle's record, its set-up and drain
/// times, and the primary's counters before the drain.
fn cycle(
    dir: &Path,
    bodies: &[WriteBatch],
    expected: u64,
) -> Result<(CycleOut, f64, f64, corroborate_obs::Json), String> {
    let cpu_start = process_cpu_s().ok_or("no process CPU time")?;
    let start = Instant::now();
    let primary =
        corroborate_serve::start(serve::primary_config(dir)).map_err(|e| format!("start: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    let feed: ProbeFeed = Arc::new(Mutex::new(Vec::new()));
    let done = AtomicBool::new(false);
    let mut out = CycleOut::default();
    let (w, r) = std::thread::scope(|scope| {
        let r = scope.spawn(|| reader(primary.addr(), &feed, &done));
        let w = writer(primary.addr(), bodies, &feed, &mut out);
        done.store(true, Ordering::Release);
        (w, r.join().map_err(|_| "reader panicked".to_string()).and_then(|x| x))
    });
    w?;
    let (read_us, watch, tally) = r?;
    out.read_us = read_us;
    out.visible_ms = watch.visible.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    out.tally = out.tally.merge(tally);
    out.tally.failed += watch.outstanding() as u64;
    let counters = primary.metrics_json();
    std::thread::sleep(serve::SETTLE);
    let drain_start = Instant::now();
    let view = primary.shutdown().map_err(|e| format!("drain: {e}"))?;
    let drain_s = drain_start.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s().ok_or("no process CPU time")? - cpu_start;
    if view.fingerprint() != expected {
        return Err(format!(
            "gate: drained {:016x} differs from evaluate_batch {expected:016x}",
            view.fingerprint()
        ));
    }
    Ok((out, setup_s, drain_s, counters))
}

/// Untimed gate: the drained directory recovers to the expected state.
fn check_reopen(dir: &Path, expected: u64) -> Result<(), String> {
    let (_, recovery) = Wal::open(dir, serve::wal_config()).map_err(|e| format!("reopen: {e}"))?;
    let dataset = recovery.dataset.materialize().map_err(|e| format!("reopen: {e}"))?;
    let reopened =
        evaluate_batch(dataset, &EpochConfig::default()).map_err(|e| format!("reopen: {e}"))?;
    if reopened.fingerprint() != expected {
        return Err(format!(
            "gate: reopened directory gives {:016x}, expected {expected:016x}",
            reopened.fingerprint()
        ));
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
/// A failed correctness gate or any serve failure.
pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    serve::serve_facts(&mut report);
    report.fact("seed", args.seed);
    report.fact("generator_threads", 2u64);
    report.fact("connections_primary", 2u64);
    report.fact("body_facts", BODY_FACTS);
    report.fact("bodies_per_cycle", BODIES);
    report.fact("loop", "closed");
    check_connection_budget("primary", 2, ServerConfig::default().workers)?;

    let bodies = (0..BODIES)
        .map(|i| gen::growth_batch(args.seed, i, BODY_FACTS))
        .collect::<Result<Vec<_>, _>>()?;
    let stream: Vec<&[Mutation]> = bodies.iter().map(|b| b.mutations.as_slice()).collect();
    let expected = serve::reference_fingerprint(stream.iter().copied())?;
    report.fact("mutations_per_cycle", stream.iter().map(|s| s.len()).sum::<usize>());

    let mut setups = Vec::new();
    for i in 0..SETUP_EXTRA {
        let start = Instant::now();
        let primary =
            corroborate_serve::start(serve::primary_config(&work.join(format!("empty-{i}"))))
                .map_err(|e| format!("start: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        primary.shutdown().map_err(|e| format!("drain: {e}"))?;
    }

    let mut all = CycleOut::default();
    let (mut rates, mut drains) = (Vec::new(), Vec::new());
    let (mut counters, mut peak_rss) = (None, None);
    let (mut traffic, mut cpu_s) = (0.0, 0.0);
    let mut cycles = 0usize;
    let mut dir = work.join("cycle-0");
    let clock = Instant::now();
    while cycles == 0 || clock.elapsed().as_secs_f64() < args.seconds as f64 {
        dir = work.join(format!("cycle-{cycles}"));
        let (out, setup_s, drain_s, c) = cycle(&dir, &bodies, expected)?;
        setups.push(setup_s);
        drains.push(drain_s);
        rates.push(out.votes as f64 / out.traffic_s);
        traffic += out.traffic_s;
        cpu_s += out.cpu_s;
        all.votes += out.votes;
        all.write_us.extend(out.write_us);
        all.read_us.extend(out.read_us);
        all.visible_ms.extend(out.visible_ms);
        all.tally = all.tally.merge(out.tally);
        if cycles == 0 {
            // Later cycles regrow the same world in a heap the earlier ones
            // left fragmented; the peak after the first is the workload's.
            peak_rss = peak_rss_mb();
            counters = Some(c);
        }
        cycles += 1;
    }
    check_reopen(&dir, expected)?;
    report.say(format!(
        "gate drained == evaluate_batch == reopened: {expected:016x} ok ({cycles} cycles)"
    ));
    report.attempted = all.tally.attempted;
    report.failed = all.tally.failed;
    report.fact("cycles", cycles);
    report.fact("traffic_s", traffic);
    report.fact("sheds", all.tally.sheds);
    report.fact("cpu_s", cpu_s);

    if !args.trace {
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s", setups.len());
        // Per acknowledged vote, boot and drain of every cycle included.
        let per_op = cpu_s * 1e6 / all.votes.max(1) as f64;
        report.metric("cpu_us_per_op", per_op, "us", all.votes as usize);
        report.quantile("read_p50_us", &all.read_us, 0.5, "us")?;
        report.quantile("read_p99_us", &all.read_us, 0.99, "us")?;
        report.quantile("write_p50_us", &all.write_us, 0.5, "us")?;
        report.quantile("write_p99_us", &all.write_us, 0.99, "us")?;
        report.quantile("visible_p50_ms", &all.visible_ms, 0.5, "ms")?;
        report.quantile("visible_p90_ms", &all.visible_ms, 0.9, "ms")?;
        report.metric("votes_per_s", median(&rates).unwrap_or(0.0), "1/s", rates.len());
        report.metric("drain_s", median(&drains).unwrap_or(0.0), "s", drains.len());
        report.metric("peak_rss_mb", peak_rss.ok_or("no VmHWM")?, "MB", 1);
        return Ok(report);
    }

    // Traced run: replay the first cycle's bodies through the layers.
    let origin = Instant::now();
    let counters = counters.expect("at least one cycle");
    let probes: Vec<String> = bodies.iter().filter_map(|b| b.probe.clone()).collect();
    let (wal, recovery) = Wal::open(&work.join("replay"), serve::wal_config())
        .map_err(|e| format!("replay open: {e}"))?;
    let base = recovery.dataset.clone();
    let (replayed, mut tracer) = serve::replay(
        ReplayInput {
            wal,
            recovered: recovery.dataset,
            batches: stream.clone(),
            pace: Pace::Closed,
            replica_dir: None,
            lookups: &probes,
        },
        origin,
    )?;
    for body in &bodies {
        serve::replay_parse(&mut tracer, "POST", "/v1/votes", body.body.as_bytes())?;
    }
    let materialize_ms =
        serve::time_materializations(&base, &stream, &replayed.materialize_marks, 40)?;
    // The engine on the grown world, as the drain epoch runs it.
    let mut grown = base.clone();
    for m in stream.iter().flat_map(|b| b.iter()) {
        let _ = grown.apply(m);
    }
    let grown = grown.materialize().map_err(|e| format!("materialize: {e}"))?;
    engine::traced_sessions(&mut tracer, &grown, Duration::ZERO, &|_| Ok(()), &mut report)?;

    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let layer = |name: &str| med(&tracer.self_ns_per_unit(name));
    let parse_ns = layer("http.parse");
    report.metric("http.parse_ns", parse_ns, "ns", tracer.count("http.parse"));
    let lookup_ns = layer("view.lookup");
    report.metric("view.lookup_ns", lookup_ns, "ns", tracer.count("view.lookup"));
    let publish_ns = layer("epoch.publish");
    report.metric("epoch.publish_ns", publish_ns, "ns", tracer.count("epoch.publish"));
    report.metric(
        "epoch.materializing_ms",
        layer("epoch.materializing") / 1e6,
        "ms",
        tracer.count("epoch.materializing"),
    );
    report.metric("epoch.full_ms", layer("epoch.full") / 1e6, "ms", tracer.count("epoch.full"));
    let epochs = serve::counter(&counters, "epochs") as f64;
    let full = serve::counter(&counters, "epochs_full") as f64;
    report.metric("epoch.full_frac", ratio(full, epochs).unwrap_or(0.0), "ratio", epochs as usize);
    report.metric("queue.push_ns", layer("queue.push"), "ns", tracer.count("queue.push"));
    let queue_ms = med(&replayed.queue_wait_ms);
    report.metric("queue.wait_ms", queue_ms, "ms", replayed.queue_wait_ms.len());
    let batch_muts = med(&replayed.drained);
    report.metric("queue.batch_mutations", batch_muts, "count", replayed.drained.len());
    let batches = serve::counter(&counters, "ingest_batches") as f64;
    let shed = serve::counter(&counters, "ingest_rejected") as f64;
    report.metric(
        "queue.shed_frac",
        ratio(shed, batches + shed).unwrap_or(0.0),
        "ratio",
        (batches + shed) as usize,
    );
    let append_us = layer("wal.append") / 1e3;
    let fsync_us = layer("wal.fsync_wait") / 1e3;
    report.metric("wal.append_us", append_us, "us", tracer.count("wal.append"));
    report.metric("wal.fsync_wait_us", fsync_us, "us", tracer.count("wal.fsync_wait"));
    let votes: usize = stream.iter().map(|s| s.iter().filter(|m| is_vote(m)).count()).sum();
    report.metric(
        "wal.bytes_per_vote",
        replayed.wal_bytes as f64 / votes.max(1) as f64,
        "B/vote",
        votes,
    );
    report.metric("wal.compact_ms", layer("wal.compact") / 1e6, "ms", tracer.count("wal.compact"));
    report.metric("wal.compactions", replayed.compactions as f64, "count", 1);
    let apply_ns = layer("delta.apply");
    report.metric("delta.apply_ns", apply_ns, "ns", tracer.count("delta.apply"));
    report.metric("delta.materialize_ms", med(&materialize_ms), "ms", materialize_ms.len());
    report.metric("delta.materializations", replayed.materializations as f64, "count", 1);

    let read_e2e = med(&all.read_us);
    let read_layers = (parse_ns + lookup_ns) / 1e3;
    report.metric("unattributed.read_us", read_e2e - read_layers, "us", all.read_us.len());
    report.say(format!(
        "residual read: end-to-end p50 {read_e2e:.1} us = layers {read_layers:.1} us \
         (parse {parse_ns:.0} ns + lookup {lookup_ns:.0} ns) + unattributed {:.1} us",
        read_e2e - read_layers
    ));
    // Every growth epoch registers new names: it materialises or runs full.
    let epoch_ms = med(&[
        tracer.self_ns_per_unit("epoch.materializing"),
        tracer.self_ns_per_unit("epoch.full"),
    ]
    .concat())
        / 1e6;
    let visible_e2e = med(&all.visible_ms);
    let visible_layers = queue_ms
        + (append_us + fsync_us) / 1e3
        + epoch_ms
        + (apply_ns * batch_muts + publish_ns + lookup_ns) / 1e6;
    report.metric(
        "unattributed.visible_ms",
        visible_e2e - visible_layers,
        "ms",
        all.visible_ms.len(),
    );
    report.say(format!(
        "residual visible: end-to-end p50 {visible_e2e:.2} ms = layers {visible_layers:.2} ms \
         (queue {queue_ms:.2} ms + wal {:.3} ms + apply {:.3} ms + epoch {epoch_ms:.3} ms + publish/lookup) \
         + unattributed {:.2} ms",
        (append_us + fsync_us) / 1e3,
        apply_ns * batch_muts / 1e6,
        visible_e2e - visible_layers
    ));
    report.say(format!(
        "replay: {} pushes, {} full-queue rejections",
        replayed.pushes, replayed.sheds
    ));
    crate::write_spans("ingest_growth", args, &tracer)?;
    Ok(report)
}

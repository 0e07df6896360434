//! `batch_1m`: the paper's batch job at a million facts. A seeded world is
//! written to CSV before the clock starts; the run loads it (`setup_s`)
//! and corroborates it with the default engine configuration, as
//! `corroborate run --algorithm inc-heu` does, for `--seconds`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use corroborate_algorithms::inc::{
    resolve_threads, IncEstHeu, IncEstimateConfig, IncEstimateSession, ShardConfig, DEFAULT_SHARDS,
};
use corroborate_core::io::{dataset_from_csv, truth_to_csv, votes_to_csv};
use corroborate_core::prelude::*;
use corroborate_serve::{evaluate_batch, EpochConfig, Published, VerdictView};

use crate::report::{peak_rss_mb, process_cpu_s, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{engine, serve, Args};

/// Candidate facts in the world.
const FACTS: usize = 1_000_000;
/// CSV loads per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// One-shot batch evaluations of a traced run.
const FULL_EPOCHS: usize = 3;
/// Fact names a traced run looks up in the published view.
const LOOKUPS: usize = 20_000;

fn corroborate(
    dataset: &Dataset,
    config: IncEstimateConfig,
) -> Result<CorroborationResult, String> {
    IncEstimateSession::new(dataset, IncEstHeu::default(), config)
        .and_then(|s| s.finish())
        .map_err(|e| format!("corroborate: {e}"))
}

/// Bit-identity of probabilities, trust and round count.
fn same_bits(a: &CorroborationResult, b: &CorroborationResult, n_sources: usize) -> bool {
    a.rounds() == b.rounds()
        && a.probabilities().len() == b.probabilities().len()
        && a.probabilities().iter().zip(b.probabilities()).all(|(x, y)| x.to_bits() == y.to_bits())
        && (0..n_sources).all(|s| {
            let s = SourceId::new(s);
            a.trust().trust(s).to_bits() == b.trust().trust(s).to_bits()
        })
}

/// Runs the workload.
///
/// # Errors
/// A failed correctness gate or an engine failure.
pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    report.fact("nproc", resolve_threads(0));
    report.fact("default_shards", DEFAULT_SHARDS);
    report.fact("engine_threads", resolve_threads(0));
    report.fact("seed", args.seed);
    report.fact("facts", FACTS);

    // Inputs, before any clock starts.
    let (votes_path, truth_path) = (work.join("votes.csv"), work.join("truth.csv"));
    let names = {
        let world = crate::gen::world(FACTS, crate::gen::WORLD_SEED, args.seed)?;
        std::fs::write(&votes_path, votes_to_csv(&world)).map_err(|e| format!("write csv: {e}"))?;
        let truth = truth_to_csv(&world).map_err(|e| format!("truth csv: {e}"))?;
        std::fs::write(&truth_path, truth).map_err(|e| format!("write csv: {e}"))?;
        crate::gen::read_names(&world, args.seed, LOOKUPS)
    };
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("read csv: {e}"));
    let (votes, truth) = (read(&votes_path)?, read(&truth_path)?);

    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let start = Instant::now();
        let dataset = dataset_from_csv(&votes, Some(&truth)).map_err(|e| format!("load: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        loaded = Some(dataset);
    }
    drop((votes, truth));
    let dataset = loaded.expect("at least one load");
    report.fact("world_facts", dataset.n_facts());

    // Untimed oracle: the strictly sequential engine.
    let sequential = corroborate(
        &dataset,
        IncEstimateConfig { shard: ShardConfig::sequential(), ..IncEstimateConfig::default() },
    )?;
    let oracle_accuracy =
        sequential.confusion(&dataset).map_err(|e| format!("accuracy: {e}"))?.accuracy();
    report.fact("accuracy", oracle_accuracy);
    report.fact("rounds", sequential.rounds());
    let check = |result: &CorroborationResult| -> Result<(), String> {
        let accuracy = result.confusion(&dataset).map_err(|e| format!("accuracy: {e}"))?.accuracy();
        if !same_bits(result, &sequential, dataset.n_sources()) || accuracy != oracle_accuracy {
            return Err("gate: default engine differs from the sequential engine".to_string());
        }
        Ok(())
    };

    if args.trace {
        traced(args, &dataset, &names, &mut report, &check)?;
    } else {
        let (mut times, mut cpu_s) = (Vec::new(), Vec::new());
        let clock = Instant::now();
        while times.is_empty() || clock.elapsed().as_secs() < args.seconds {
            let cpu_start = process_cpu_s().ok_or("no process CPU time")?;
            let start = Instant::now();
            let result = corroborate(&dataset, IncEstimateConfig::default())?;
            times.push(start.elapsed().as_secs_f64());
            cpu_s.push(process_cpu_s().ok_or("no process CPU time")? - cpu_start);
            check(&result)?;
        }
        report.attempted = times.len() as u64;
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        report.say(format!(
            "corroborate runs: min {:.4} s, median {:.4} s, max {:.4} s",
            sorted[0],
            median(&sorted).unwrap_or(0.0),
            sorted[sorted.len() - 1]
        ));
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s", setups.len());
        // Per candidate fact corroborated: the median run's CPU time.
        let per_fact = median(&cpu_s).unwrap_or(0.0) * 1e6 / dataset.n_facts().max(1) as f64;
        report.metric("cpu_us_per_op", per_fact, "us", cpu_s.len());
        // Printed but left out of the result: repetitions of the identical
        // job spread from the floor to 1.7 times it within one run on a
        // shared 2-CPU machine, and the median moves by a fifth or more
        // between runs.
        report.metric("corroborate_s", median(&sorted).unwrap_or(0.0), "s", times.len());
        report.metric("peak_rss_mb", peak_rss_mb().ok_or("no VmHWM")?, "MB", 1);
    }
    report.say(format!(
        "gate default engine == sequential engine (bits, accuracy {oracle_accuracy:.4}) ok"
    ));
    Ok(report)
}

/// The traced replay: the same corroboration through the session API
/// (see [`crate::engine`]), then the batch result published the way the
/// serve tier publishes a full epoch's view — a one-shot
/// `evaluate_batch`, `Published::publish` — and looked up by name.
fn traced(
    args: &Args,
    dataset: &Dataset,
    names: &[String],
    report: &mut Report,
    check: &dyn Fn(&CorroborationResult) -> Result<(), String>,
) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now());
    let budget = Duration::from_secs(args.seconds);
    report.attempted = engine::traced_sessions(&mut tracer, dataset, budget, check, report)?;
    let config = EpochConfig::default();
    let published = Published::new(VerdictView::empty(&config).map_err(|e| format!("view: {e}"))?);
    for _ in 0..FULL_EPOCHS {
        let copy = dataset.clone();
        let view = tracer
            .span("epoch.full", 1, |_| evaluate_batch(copy, &config))
            .map_err(|e| format!("evaluate_batch: {e}"))?;
        tracer.span("epoch.publish", 1, |_| published.publish(Arc::new(view)));
    }
    for name in names {
        serve::traced_lookup(&mut tracer, &published, name);
    }
    let med = |name: &str| median(&tracer.self_ns_per_unit(name)).unwrap_or(0.0);
    report.metric("epoch.full_ms", med("epoch.full") / 1e6, "ms", tracer.count("epoch.full"));
    report.metric("epoch.publish_ns", med("epoch.publish"), "ns", tracer.count("epoch.publish"));
    report.metric("view.lookup_ns", med("view.lookup"), "ns", tracer.count("view.lookup"));
    crate::write_spans("batch_1m", args, &tracer)
}

//! The engine layer of a traced run: `IncEstHeu` sessions over a
//! workload's dataset through the session API, one span per build and
//! per round, with a recording observer for the engine's own counters.
//! Every workload runs it — the batch job on its million facts, the serve
//! workloads on the world their full epochs corroborate.

use std::time::{Duration, Instant};

use corroborate_algorithms::inc::{IncEstHeu, IncEstimateConfig, IncEstimateSession};
use corroborate_core::prelude::*;
use corroborate_obs::{Counter, RecordingObserver};

use crate::report::Report;
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;

/// Round samples collected at least, so `engine.round_p99_us` has ten
/// samples beyond it.
const MIN_ROUNDS: usize = 1_010;
/// Sessions run at least.
const MIN_SESSIONS: u64 = 3;

/// Runs sessions until at least [`MIN_SESSIONS`] ran, [`MIN_ROUNDS`]
/// rounds were timed and `budget` has passed; checks every result with
/// `check` and records the `engine.*` metrics. Returns the session count.
///
/// # Errors
/// An engine failure, a failed check, or too few rounds for a p99.
pub fn traced_sessions(
    tracer: &mut Tracer,
    dataset: &Dataset,
    budget: Duration,
    check: &dyn Fn(&CorroborationResult) -> Result<(), String>,
    report: &mut Report,
) -> Result<u64, String> {
    let (mut rounds, mut exact, mut candidates, mut refreshes) = (Vec::new(), 0.0, 0.0, Vec::new());
    let clock = Instant::now();
    let (mut sessions, mut timed_rounds) = (0u64, 0usize);
    while sessions < MIN_SESSIONS || timed_rounds < MIN_ROUNDS || clock.elapsed() < budget {
        let obs = RecordingObserver::new();
        let result = tracer.span("engine.session", 1, |t| -> Result<_, String> {
            let mut session = t
                .span("engine.build", 1, |_| {
                    IncEstimateSession::with_observer(
                        dataset,
                        IncEstHeu::default(),
                        IncEstimateConfig::default(),
                        &obs,
                    )
                })
                .map_err(|e| format!("engine: {e}"))?;
            while t.span("engine.round", 1, |_| session.step()).is_some() {}
            session.finish().map_err(|e| format!("engine: {e}"))
        })?;
        check(&result)?;
        let c = obs.counters();
        rounds.push(result.rounds() as f64);
        timed_rounds += result.rounds().max(1);
        exact += c.get(Counter::ExactScored) as f64;
        candidates += (c.get(Counter::PrescreenKilled)
            + c.get(Counter::WalkBoundKilled)
            + c.get(Counter::EarlyAbandonKilled)
            + c.get(Counter::ExactScored)) as f64;
        refreshes.push(c.get(Counter::CacheRefreshes) as f64);
        sessions += 1;
    }
    let ms = |ns: Vec<f64>| ns.into_iter().map(|v| v / 1e6).collect::<Vec<_>>();
    let build = ms(tracer.self_ns_per_unit("engine.build"));
    let round_us: Vec<f64> =
        tracer.self_ns_per_unit("engine.round").into_iter().map(|v| v / 1e3).collect();
    report.metric("engine.build_ms", median(&build).unwrap_or(0.0), "ms", build.len());
    report.quantile("engine.round_p50_us", &round_us, 0.5, "us")?;
    report.quantile("engine.round_p99_us", &round_us, 0.99, "us")?;
    report.metric("engine.rounds", median(&rounds).unwrap_or(0.0), "count", rounds.len());
    report.metric(
        "engine.exact_frac",
        ratio(exact, candidates).unwrap_or(0.0),
        "ratio",
        candidates as usize,
    );
    report.metric(
        "engine.cache_refreshes",
        median(&refreshes).unwrap_or(0.0),
        "count",
        refreshes.len(),
    );
    let session = median(&ms(tracer.self_ns_per_unit("engine.session"))).unwrap_or(0.0);
    report.say(format!(
        "engine: {sessions} sessions over {} facts; session self time {session:.2} ms outside \
         build and rounds; round p99/p50 {:.1}",
        dataset.n_facts(),
        percentile(&round_us, 0.99).unwrap_or(0.0) / percentile(&round_us, 0.5).unwrap_or(1.0)
    ));
    Ok(sessions)
}

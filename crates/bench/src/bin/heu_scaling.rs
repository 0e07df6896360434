//! Scaling bench for the IncEstHeu entropy engine: times all three
//! [`DeltaHMode`]s at 1k/4k/16k synthetic facts, plus a naive-vs-indexed
//! comparison that reproduces the pre-index full-scan scorer through the
//! public [`SelectionStrategy`] API, plus an observer-overhead check that
//! pins the cost of the telemetry hooks. Results are written as JSON to
//! `BENCH_incheu.json` at the repository root.
//!
//! Flags:
//!
//! - `--report <path>` — dump a `RunReport` (per-round ΔH trajectory,
//!   pruning-tier counters, cache telemetry, latency histograms) captured
//!   with a [`RecordingObserver`];
//! - `--quick` — 1k facts only, skip the naive comparison and the overhead
//!   check, and do *not* overwrite `BENCH_incheu.json` (the CI smoke mode);
//! - `--trace <path>` — give the instrumented runs a trace ring and write
//!   the `Full`-mode run's Chrome trace-event JSON to `<path>` (load in
//!   Perfetto, validate with `trace_check`). Requires the `obs` feature to
//!   record anything; without it the export is an empty `traceEvents`
//!   array.
//!
//! Run with `--release`; the JSON is the evidence artifact behind the
//! complexity claims in `docs/PERFORMANCE.md`.

use std::time::Instant;

use corroborate_algorithms::inc::{
    resolve_threads, DeltaHMode, IncEstHeu, IncEstimate, IncState, SelectionStrategy,
};
use corroborate_algorithms::obs::{
    chrome_trace_json, Json, Observer, RecordingObserver, TraceSnapshot,
};
use corroborate_bench::Reporter;
use corroborate_core::entropy::binary_entropy;
use corroborate_core::groups::FactGroup;
use corroborate_core::ids::{FactId, SourceId};
use corroborate_core::prelude::*;
use corroborate_core::vote::{SourceVote, Vote};
use corroborate_datagen::synthetic::{generate, SyntheticConfig};

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];
const MODES: [DeltaHMode; 3] = [DeltaHMode::SelfTerm, DeltaHMode::Equation9, DeltaHMode::Full];

/// Pre-PR 4k-fact wall-clock baselines (seconds) measured on this image
/// before the observer hooks landed — the reference for the noop-overhead
/// assertion. Regenerate by checking out the commit before the telemetry
/// layer and running this bin.
const PRE_PR_4K_S: [(DeltaHMode, f64); 3] = [
    (DeltaHMode::SelfTerm, 0.003912),
    (DeltaHMode::Equation9, 0.057091),
    (DeltaHMode::Full, 0.067012),
];

fn mode_name(mode: DeltaHMode) -> &'static str {
    match mode {
        DeltaHMode::SelfTerm => "SelfTerm",
        DeltaHMode::Equation9 => "Equation9",
        DeltaHMode::Full => "Full",
    }
}

/// The pre-index IncEstHeu scorer, rebuilt on the public state API: clone
/// the remaining groups every round, recompute every probability from the
/// snapshot, and compute Equation 9 spillover by scanning all groups with a
/// linear overlay lookup — O(G²·|sig|²) per round, the complexity the
/// inverted index removed.
#[derive(Debug, Clone, Copy)]
struct NaiveHeu {
    mode: DeltaHMode,
}

struct LinearOverlay<'a, O: Observer> {
    state: &'a IncState<'a, O>,
    affected: Vec<(SourceId, f64)>,
}

impl<O: Observer> LinearOverlay<'_, O> {
    fn trust(&self, source: SourceId) -> f64 {
        self.affected
            .iter()
            .find(|(s, _)| *s == source)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| self.state.trust().trust(source))
    }

    fn probability(&self, signature: &[SourceVote], prior: f64) -> f64 {
        if signature.is_empty() {
            return prior;
        }
        let sum: f64 = signature
            .iter()
            .map(|sv| match sv.vote {
                Vote::True => self.trust(sv.source),
                Vote::False => 1.0 - self.trust(sv.source),
            })
            .sum();
        sum / signature.len() as f64
    }
}

fn naive_spillover<O: Observer>(
    state: &IncState<'_, O>,
    groups: &[FactGroup],
    probs: &[f64],
    candidate_idx: usize,
) -> f64 {
    let candidate = &groups[candidate_idx];
    let p = probs[candidate_idx];
    let outcome = p >= 0.5;
    let size = candidate.facts.len() as u32;
    let affected: Vec<_> = candidate
        .signature
        .iter()
        .map(|sv| {
            let agrees = sv.vote.is_affirmative() == outcome;
            let extra_matches = if agrees { size } else { 0 };
            (sv.source, state.projected_trust(sv.source, extra_matches, size))
        })
        .collect();
    let overlay = LinearOverlay { state, affected };

    let prior = state.config().voteless_prior;
    let mut dh = 0.0;
    for (gi, other) in groups.iter().enumerate() {
        if gi == candidate_idx {
            continue;
        }
        let touched =
            other.signature.iter().any(|sv| overlay.affected.iter().any(|(s, _)| *s == sv.source));
        if !touched {
            continue;
        }
        let p_new = overlay.probability(&other.signature, prior);
        dh += other.facts.len() as f64 * (binary_entropy(p_new) - binary_entropy(probs[gi]));
    }
    dh
}

impl SelectionStrategy for NaiveHeu {
    fn name(&self) -> &str {
        "NaiveHeu"
    }

    fn select<O: Observer>(&self, state: &IncState<'_, O>) -> Vec<FactId> {
        let groups: Vec<FactGroup> = state.remaining_groups().cloned().collect();
        let probs: Vec<f64> =
            groups.iter().map(|g| state.signature_probability(&g.signature)).collect();

        let mut positive = Vec::new();
        let mut negative = Vec::new();
        for (i, &p) in probs.iter().enumerate() {
            if p > 0.5 {
                positive.push(i);
            } else if p < 0.5 {
                negative.push(i);
            }
        }
        if positive.is_empty() || negative.is_empty() {
            return Vec::new();
        }

        let score = |i: usize| -> f64 {
            match self.mode {
                DeltaHMode::SelfTerm => -binary_entropy(probs[i]),
                DeltaHMode::Equation9 => naive_spillover(state, &groups, &probs, i),
                DeltaHMode::Full => {
                    naive_spillover(state, &groups, &probs, i)
                        - groups[i].facts.len() as f64 * binary_entropy(probs[i])
                }
            }
        };
        let best = |part: &[usize]| -> usize {
            let mut best_i = part[0];
            let mut best_score = f64::NEG_INFINITY;
            for &i in part {
                let s = score(i);
                let better = s > best_score
                    || (s == best_score
                        && (groups[i].signature.len() > groups[best_i].signature.len()
                            || (groups[i].signature.len() == groups[best_i].signature.len()
                                && groups[i].facts.len() > groups[best_i].facts.len())));
                if better {
                    best_score = s;
                    best_i = i;
                }
            }
            best_i
        };
        let fg_pos = &groups[best(&positive)];
        let fg_neg = &groups[best(&negative)];
        let n = fg_pos.facts.len().min(fg_neg.facts.len());
        let mut selection = Vec::with_capacity(2 * n);
        selection.extend_from_slice(&fg_pos.facts[..n]);
        selection.extend_from_slice(&fg_neg.facts[..n]);
        selection
    }
}

fn world(n_facts: usize) -> Dataset {
    let cfg = SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts, eta: 0.02, seed: 42 };
    generate(&cfg).expect("synthetic generation succeeds").dataset
}

fn time_run<S: SelectionStrategy>(strategy: S, ds: &Dataset) -> (f64, usize, f64) {
    let start = Instant::now();
    let result = IncEstimate::new(strategy).corroborate(ds).expect("corroboration succeeds");
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(result.probabilities().len());
    let accuracy = result.confusion(ds).expect("ground truth present").accuracy();
    (elapsed, result.rounds(), accuracy)
}

/// Best wall-clock of `reps` runs — the overhead check's noise reducer.
fn best_of<S: SelectionStrategy + Copy>(strategy: S, ds: &Dataset, reps: usize) -> f64 {
    (0..reps).map(|_| time_run(strategy, ds).0).fold(f64::INFINITY, f64::min)
}

/// One instrumented run: corroborate under a [`RecordingObserver`] (with a
/// trace ring when `trace_capacity > 0`) and return (elapsed seconds, the
/// observer's JSON snapshot, the trace snapshot).
fn traced_run(mode: DeltaHMode, ds: &Dataset, trace_capacity: usize) -> (f64, Json, TraceSnapshot) {
    let recorder = if trace_capacity > 0 {
        RecordingObserver::with_trace(trace_capacity)
    } else {
        RecordingObserver::new()
    };
    let start = Instant::now();
    let result = IncEstimate::new(IncEstHeu::with_mode(mode))
        .corroborate_observed(ds, &recorder)
        .expect("corroboration succeeds");
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(result.probabilities().len());
    (elapsed, recorder.to_json(), recorder.trace_snapshot())
}

fn main() {
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("heu_scaling: --trace requires a path");
                    std::process::exit(2);
                }));
            }
            // Consumed by `Reporter::from_env`; skip the value here.
            "--report" => {
                args.next();
            }
            other => {
                eprintln!(
                    "heu_scaling: unknown flag {other} (expected --quick, --report <path>, \
                     --trace <path>)"
                );
                std::process::exit(2);
            }
        }
    }
    let threads = resolve_threads(0);
    let mut rep = Reporter::from_env("heu_scaling");
    rep.say(format!(
        "IncEstHeu scaling bench (threads: {threads}, obs feature: {}, quick: {quick})",
        cfg!(feature = "obs")
    ));
    rep.blank();

    let mut config = Json::object();
    config.insert("n_accurate", 8i64);
    config.insert("n_inaccurate", 2i64);
    config.insert("eta", 0.02);
    config.insert("seed", 42i64);
    // The host's parallelism, a machine fact (the engine runs on one
    // thread); the golden manifest ignores `config.threads`.
    config.insert("threads", threads as i64);
    rep.raw("config", config.clone());

    // --- scaling sweep ------------------------------------------------
    let sizes: &[usize] = if quick { &SIZES[..1] } else { &SIZES };
    let mut scaling = Vec::new();
    for &n in sizes {
        let ds = world(n);
        let n_groups = corroborate_core::groups::group_by_signature(
            ds.votes(),
            &ds.facts().collect::<Vec<_>>(),
        )
        .len();
        for mode in MODES {
            let (secs, rounds, accuracy) = time_run(IncEstHeu::with_mode(mode), &ds);
            rep.say(format!(
                "{:>9} n={n:<6} groups={n_groups:<5} {secs:>9.4}s  rounds={rounds:<5} A={accuracy:.3}",
                mode_name(mode)
            ));
            let mut row = Json::object();
            row.insert("mode", mode_name(mode));
            row.insert("n_facts", n);
            row.insert("n_groups", n_groups);
            row.insert("indexed_s", secs);
            row.insert("rounds", rounds);
            row.insert("accuracy", accuracy);
            scaling.push(row);
        }
    }
    let scaling = Json::Arr(scaling);
    rep.raw("scaling", scaling.clone());

    // --- instrumented traces ------------------------------------------
    // One RecordingObserver run per mode at the trace size: the report's
    // per-round ΔH trajectory, pruning-tier counters, cache telemetry, and
    // span latency histograms.
    let trace_n = if quick { 1_000 } else { 4_000 };
    let ds = world(trace_n);
    rep.blank();
    rep.say(format!("instrumented traces at {trace_n} facts:"));
    let trace_capacity = if trace_path.is_some() { 1 << 20 } else { 0 };
    let mut recording_s = Vec::new();
    let mut last_snapshot = None;
    for mode in MODES {
        let (secs, trace, snapshot) = traced_run(mode, &ds, trace_capacity);
        let rounds = trace.get("rounds").and_then(Json::as_array).map_or(0, <[Json]>::len);
        rep.say(format!(
            "{:>9}  {secs:>9.4}s  recorded rounds={rounds} (obs feature {})",
            mode_name(mode),
            if cfg!(feature = "obs") { "on" } else { "off — trace empty by design" }
        ));
        rep.raw(format!("trace_{}", mode_name(mode)).as_str(), trace);
        recording_s.push((mode, secs));
        last_snapshot = Some(snapshot);
    }
    if let (Some(path), Some(snapshot)) = (&trace_path, &last_snapshot) {
        let doc = chrome_trace_json(snapshot);
        std::fs::write(path, doc.to_json_pretty()).expect("write trace");
        rep.say(format!(
            "wrote {} trace events ({} overwritten) to {path}",
            snapshot.events.len(),
            snapshot.overwritten
        ));
    }

    if quick {
        rep.say("--quick: skipping naive comparison, overhead check, and BENCH_incheu.json");
        rep.finish();
        return;
    }

    // --- naive-vs-indexed comparison at 4k facts ----------------------
    // The pre-index scorer replicated above versus the shipped engine,
    // identical selections.
    rep.blank();
    rep.say("naive full-scan comparison at 4k facts:");
    let mut comparisons = Vec::new();
    for &mode in &MODES {
        let (naive_s, naive_rounds, naive_a) = time_run(NaiveHeu { mode }, &ds);
        let (indexed_s, indexed_rounds, indexed_a) = time_run(IncEstHeu::with_mode(mode), &ds);
        assert_eq!(naive_rounds, indexed_rounds, "{mode:?}: round counts diverge");
        assert!((naive_a - indexed_a).abs() < 1e-12, "{mode:?}: accuracy diverges");
        let speedup = naive_s / indexed_s;
        rep.say(format!(
            "{:>9}  naive {naive_s:>9.4}s  indexed {indexed_s:>9.4}s  speedup {speedup:>7.1}x",
            mode_name(mode)
        ));
        let mut row = Json::object();
        row.insert("mode", mode_name(mode));
        row.insert("n_facts", 4000i64);
        row.insert("naive_s", naive_s);
        row.insert("indexed_s", indexed_s);
        row.insert("speedup", speedup);
        comparisons.push(row);
    }
    let comparisons = Json::Arr(comparisons);
    rep.raw("naive_comparison_4k", comparisons.clone());

    // --- observer overhead at 4k facts --------------------------------
    // The default corroborate path is instrumented-but-disabled (NoopObserver
    // behind `O::ENABLED` guards); it must cost the same as the pre-PR
    // uninstrumented engine. The bound is deliberately loose — 2.5x plus a
    // 50ms absolute floor — so only a structural regression (hooks that
    // survive constant folding) trips it, not scheduler noise.
    rep.blank();
    rep.say("noop-observer overhead vs pre-PR baselines at 4k facts (best of 3):");
    let mut overhead_rows = Vec::new();
    for (mode, pre_pr_s) in PRE_PR_4K_S {
        let noop_s = best_of(IncEstHeu::with_mode(mode), &ds, 3);
        let ratio = noop_s / pre_pr_s;
        let rec_s = recording_s.iter().find(|(m, _)| *m == mode).map_or(f64::NAN, |(_, s)| *s);
        rep.say(format!(
            "{:>9}  pre-PR {pre_pr_s:>9.4}s  noop {noop_s:>9.4}s  ratio {ratio:>5.2}x  recording {rec_s:>9.4}s",
            mode_name(mode)
        ));
        assert!(
            noop_s <= pre_pr_s * 2.5 + 0.05,
            "{mode:?}: disabled-observer run {noop_s:.4}s exceeds the {pre_pr_s:.4}s pre-PR \
             baseline by more than the noise bound — telemetry hooks are leaking into the \
             disabled path"
        );
        let mut row = Json::object();
        row.insert("mode", mode_name(mode));
        row.insert("pre_pr_s", pre_pr_s);
        row.insert("noop_s", noop_s);
        row.insert("noop_vs_pre_pr", ratio);
        row.insert("recording_s", rec_s);
        row.insert("recording_vs_noop", rec_s / noop_s);
        overhead_rows.push(row);
    }
    let mut overhead = Json::object();
    overhead.insert("n_facts", 4000i64);
    overhead.insert("obs_feature", cfg!(feature = "obs"));
    overhead.insert("modes", Json::Arr(overhead_rows));
    rep.raw("observer_overhead", overhead.clone());

    // --- BENCH_incheu.json --------------------------------------------
    let mut bench = Json::object();
    bench.insert("bench", "heu_scaling");
    bench.insert("config", config);
    bench.insert("scaling", scaling);
    bench.insert("naive_comparison_4k", comparisons);
    bench.insert("observer_overhead", overhead);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incheu.json");
    std::fs::write(path, bench.to_json_pretty() + "\n").expect("write BENCH_incheu.json");
    rep.blank();
    rep.say(format!("wrote {path}"));
    rep.finish();
}

//! The IncEstHeu engine's recorded run: all three [`DeltaHMode`]s on the
//! 1k-fact synthetic world, with the group count, round count and accuracy
//! of each, plus one [`RecordingObserver`] trace per mode (per-round ΔH
//! trajectory, pruning-tier counters, cache telemetry, span latency
//! histograms). Its `--report` output is the `heu_scaling_quick` golden
//! (`tests/golden/`); wall-clock timing lives in the performance ledger
//! (`ledger/`).
//!
//! Flags:
//!
//! - `--report <path>` — dump the rows and traces as a `RunReport`;
//! - `--trace <path>` — give the instrumented runs a trace ring and write
//!   the `Full`-mode run's Chrome trace-event JSON to `<path>` (load in
//!   Perfetto, validate with `trace_check`). Requires the `obs` feature to
//!   record anything; without it the export is an empty `traceEvents`
//!   array.

use corroborate_algorithms::inc::{DeltaHMode, IncEstHeu, IncEstimate};
use corroborate_algorithms::obs::{chrome_trace_json, Json, RecordingObserver};
use corroborate_bench::Reporter;
use corroborate_datagen::synthetic::{generate, SyntheticConfig};

const N_FACTS: usize = 1_000;
const MODES: [DeltaHMode; 3] = [DeltaHMode::SelfTerm, DeltaHMode::Equation9, DeltaHMode::Full];

fn mode_name(mode: DeltaHMode) -> &'static str {
    match mode {
        DeltaHMode::SelfTerm => "SelfTerm",
        DeltaHMode::Equation9 => "Equation9",
        DeltaHMode::Full => "Full",
    }
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
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
                    "heu_scaling: unknown flag {other} (expected --report <path>, --trace <path>)"
                );
                std::process::exit(2);
            }
        }
    }
    let mut rep = Reporter::from_env("heu_scaling");
    rep.say(format!("IncEstHeu recorded run (obs feature: {})", cfg!(feature = "obs")));

    let cfg =
        SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts: N_FACTS, eta: 0.02, seed: 42 };
    let mut config = Json::object();
    config.insert("n_accurate", cfg.n_accurate);
    config.insert("n_inaccurate", cfg.n_inaccurate);
    config.insert("eta", cfg.eta);
    config.insert("seed", cfg.seed);
    rep.raw("config", config);

    let ds = generate(&cfg).expect("synthetic generation succeeds").dataset;
    let n_groups =
        corroborate_core::groups::group_by_signature(ds.votes(), &ds.facts().collect::<Vec<_>>())
            .len();

    // One run per mode under a RecordingObserver, which leaves the result
    // bit-identical: the row's rounds and accuracy, plus the report's
    // per-round ΔH trajectory, pruning-tier counters, cache telemetry, and
    // span latency histograms.
    let mut scaling = Vec::new();
    let mut traces = Vec::new();
    let mut last_snapshot = None;
    for mode in MODES {
        let recorder = if trace_path.is_some() {
            RecordingObserver::with_trace(1 << 20)
        } else {
            RecordingObserver::new()
        };
        let result = IncEstimate::new(IncEstHeu::with_mode(mode))
            .corroborate_observed(&ds, &recorder)
            .expect("corroboration succeeds");
        let rounds = result.rounds();
        let accuracy = result.confusion(&ds).expect("ground truth present").accuracy();
        rep.say(format!(
            "{:>9} n={N_FACTS:<6} groups={n_groups:<5} rounds={rounds:<5} A={accuracy:.3}",
            mode_name(mode)
        ));
        let mut row = Json::object();
        row.insert("mode", mode_name(mode));
        row.insert("n_facts", N_FACTS);
        row.insert("n_groups", n_groups);
        row.insert("rounds", rounds);
        row.insert("accuracy", accuracy);
        scaling.push(row);
        traces.push((mode, recorder.to_json()));
        last_snapshot = Some(recorder.trace_snapshot());
    }
    rep.raw("scaling", Json::Arr(scaling));
    for (mode, trace) in traces {
        rep.raw(format!("trace_{}", mode_name(mode)).as_str(), trace);
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
    rep.finish();
}

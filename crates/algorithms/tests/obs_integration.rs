//! Integration tests for the telemetry layer: counter conservation across
//! the pruning tiers, agreement between observer records and engine
//! results, iteration records from the convergence-loop baselines, and a
//! disabled observer that no emission site may reach.
//!
//! The whole file is gated on the `obs` feature — with emission compiled
//! out a `RecordingObserver` legitimately records nothing.

#![cfg(feature = "obs")]

use corroborate_algorithms::galland::{Cosine, ThreeEstimates, TwoEstimates};
use corroborate_algorithms::inc::{DeltaHMode, IncEstHeu, IncEstimate};
use corroborate_algorithms::obs::{
    Counter, IterationRecord, Observer, RecordingObserver, RoundRecord, SelectionRecord, Span,
};
use corroborate_core::prelude::*;
use corroborate_datagen::motivating::motivating_example;
use corroborate_datagen::synthetic::{generate, SyntheticConfig};

const MODES: [DeltaHMode; 3] = [DeltaHMode::SelfTerm, DeltaHMode::Equation9, DeltaHMode::Full];

fn synthetic_world() -> Dataset {
    let cfg = SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts: 400, eta: 0.05, seed: 7 };
    generate(&cfg).expect("synthetic generation succeeds").dataset
}

/// Every candidate a selection round considered is classified into exactly
/// one pruning tier: prescreen-killed, walk-bound-killed, early-abandoned,
/// or exact-scored. The per-round sums must conserve, in all three ΔH
/// modes (SelfTerm scores everything exactly; the pruned modes split).
#[test]
fn tier_counters_conserve_per_round_in_all_modes() {
    let ds = synthetic_world();
    for mode in MODES {
        let rec = RecordingObserver::new();
        IncEstimate::new(IncEstHeu::with_mode(mode))
            .corroborate_observed(&ds, &rec)
            .expect("corroboration succeeds");
        let rounds = rec.rounds();
        let mut selections = 0usize;
        for round in &rounds {
            let Some(sel) = &round.selection else { continue };
            selections += 1;
            let classified = sel.prescreen_killed
                + sel.walk_bound_killed
                + sel.early_abandon_killed
                + sel.exact_scored;
            assert_eq!(
                classified, sel.candidates,
                "{mode:?} round {}: {} classified of {} candidates",
                round.round, classified, sel.candidates
            );
        }
        assert!(selections > 0, "{mode:?}: no selection records emitted");
        // The global counters are the per-round tallies, summed.
        let total: u64 = rounds
            .iter()
            .filter_map(|r| r.selection.as_ref())
            .map(|s| {
                s.prescreen_killed + s.walk_bound_killed + s.early_abandon_killed + s.exact_scored
            })
            .sum();
        let counters = rec.counters();
        let global = counters.get(Counter::PrescreenKilled)
            + counters.get(Counter::WalkBoundKilled)
            + counters.get(Counter::EarlyAbandonKilled)
            + counters.get(Counter::ExactScored);
        assert_eq!(total, global, "{mode:?}: global tier counters diverge from round records");
    }
}

/// Round records agree with the engine's own accounting: one record per
/// round, counters matching, evaluated sums matching, and the entropy
/// trajectory stitching together (round i's `entropy_after` is round
/// i+1's `entropy_before` — nothing moves between rounds).
#[test]
fn round_records_match_engine_result() {
    let ds = synthetic_world();
    let rec = RecordingObserver::new();
    let result = IncEstimate::new(IncEstHeu::with_mode(DeltaHMode::Equation9))
        .corroborate_observed(&ds, &rec)
        .expect("corroboration succeeds");
    let rounds = rec.rounds();
    assert_eq!(rounds.len(), result.rounds());
    assert_eq!(rec.counters().get(Counter::Rounds), result.rounds() as u64);
    let evaluated: usize = rounds.iter().map(|r| r.evaluated).sum();
    assert_eq!(evaluated, ds.n_facts());
    assert_eq!(rec.counters().get(Counter::FactsEvaluated), ds.n_facts() as u64);
    for (i, round) in rounds.iter().enumerate() {
        assert_eq!(round.round, i);
        assert!(round.entropy_before.is_finite() && round.entropy_after.is_finite());
    }
    for pair in rounds.windows(2) {
        assert_eq!(
            pair[0].entropy_after.to_bits(),
            pair[1].entropy_before.to_bits(),
            "entropy trajectory must stitch between rounds {} and {}",
            pair[0].round,
            pair[1].round
        );
    }
    // The last round retires the final groups; nothing remains.
    assert_eq!(rounds.last().expect("at least one round").remaining, 0);
}

/// The cache telemetry moves: incremental refreshes, group recomputations,
/// and postings compaction all fire on a non-trivial run, and the engine
/// spans record wall-clock for every round.
#[test]
fn cache_and_span_telemetry_is_populated() {
    let ds = synthetic_world();
    let rec = RecordingObserver::new();
    let result = IncEstimate::new(IncEstHeu::default())
        .corroborate_observed(&ds, &rec)
        .expect("corroboration succeeds");
    let counters = rec.counters();
    assert!(counters.get(Counter::CacheRefreshes) > 0, "no incremental cache refreshes recorded");
    assert!(counters.get(Counter::GroupsRecomputed) > 0, "no group recomputations recorded");
    assert!(counters.get(Counter::PostingsCompacted) > 0, "no postings compaction recorded");
    assert_eq!(rec.span_histogram(Span::Select).count(), result.rounds() as u64);
    assert_eq!(rec.span_histogram(Span::Evaluate).count(), result.rounds() as u64);
    assert!(rec.span_histogram(Span::CacheRefresh).count() > 0);
    assert_eq!(rec.span_histogram(Span::Iteration).count(), 0, "inc engine has no fixpoint span");
}

/// The convergence-loop baselines emit one IterationRecord per fixpoint
/// iteration, numbered sequentially, with finite residuals, matching the
/// result's round count and the Iterations counter.
#[test]
fn galland_loops_emit_iteration_records() {
    fn check(name: &str, rec: &RecordingObserver, rounds: usize) {
        let iterations = rec.iterations();
        assert_eq!(iterations.len(), rounds, "{name}: one record per iteration");
        assert_eq!(rec.counters().get(Counter::Iterations), rounds as u64, "{name}");
        for (i, it) in iterations.iter().enumerate() {
            assert_eq!(it.iteration, i, "{name}: iterations numbered sequentially");
            assert!(it.residual.is_finite(), "{name}: residual must be finite");
        }
        assert_eq!(rec.span_histogram(Span::Iteration).count(), rounds as u64, "{name}");
        assert_eq!(rec.rounds().len(), 0, "{name}: convergence loops emit no RoundRecords");
    }

    let ds = motivating_example();
    let rec = RecordingObserver::new();
    let rounds = TwoEstimates::default().corroborate_observed(&ds, &rec).unwrap().rounds();
    check("TwoEstimates", &rec, rounds);
    let rec = RecordingObserver::new();
    let rounds = ThreeEstimates::default().corroborate_observed(&ds, &rec).unwrap().rounds();
    check("ThreeEstimates", &rec, rounds);
    let rec = RecordingObserver::new();
    let rounds = Cosine::default().corroborate_observed(&ds, &rec).unwrap().rounds();
    check("Cosine", &rec, rounds);
}

/// Attaching an observer must not change the computation: bit-identical
/// probabilities, trust, decisions, and round counts against the plain
/// `corroborate` (noop observer) path.
#[test]
fn recording_observer_is_computation_transparent() {
    let ds = synthetic_world();
    for mode in MODES {
        let alg = IncEstimate::new(IncEstHeu::with_mode(mode));
        let plain = alg.corroborate(&ds).expect("plain run");
        let rec = RecordingObserver::new();
        let observed = alg.corroborate_observed(&ds, &rec).expect("observed run");
        assert_eq!(plain.rounds(), observed.rounds(), "{mode:?}");
        for (a, b) in plain.probabilities().iter().zip(observed.probabilities()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}: probabilities diverge");
        }
        for (a, b) in plain.trust().values().iter().zip(observed.trust().values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}: trust diverges");
        }
        assert_eq!(plain.decisions().labels(), observed.decisions().labels(), "{mode:?}");
    }
}

/// An observer that reports itself disabled and panics in every hook.
struct Tripwire;

impl Observer for Tripwire {
    const ENABLED: bool = false;

    fn add(&self, counter: Counter, _: u64) {
        panic!("disabled observer reached: add({counter:?})");
    }
    fn span(&self, span: Span, _: u64) {
        panic!("disabled observer reached: span({span:?})");
    }
    fn selection(&self, _: &SelectionRecord) {
        panic!("disabled observer reached: selection");
    }
    fn round(&self, _: &RoundRecord) {
        panic!("disabled observer reached: round");
    }
    fn iteration(&self, _: &IterationRecord) {
        panic!("disabled observer reached: iteration");
    }
    fn span_begin(&self, span: Span, _: u64) {
        panic!("disabled observer reached: span_begin({span:?})");
    }
    fn span_end(&self, span: Span, _: u64) {
        panic!("disabled observer reached: span_end({span:?})");
    }
    fn event(&self, span: Span, _: u64) {
        panic!("disabled observer reached: event({span:?})");
    }
    fn timed<R>(&self, span: Span, _: impl FnOnce() -> R) -> R {
        panic!("disabled observer reached: timed({span:?})");
    }
    fn traced<R>(&self, span: Span, _: u64, _: impl FnOnce() -> R) -> R {
        panic!("disabled observer reached: traced({span:?})");
    }
}

/// The default corroborate path runs a disabled observer, and every
/// emission site must skip it before building a record: a site that
/// loses its `O::ENABLED` guard trips a panic here. Runs the inc engine
/// in all three ΔH modes and the three convergence loops to completion.
#[test]
fn a_disabled_observer_is_never_called() {
    let ds = synthetic_world();
    for mode in MODES {
        IncEstimate::new(IncEstHeu::with_mode(mode))
            .corroborate_observed(&ds, &Tripwire)
            .expect("corroboration succeeds");
    }
    TwoEstimates::default().corroborate_observed(&ds, &Tripwire).expect("2-Estimates");
    ThreeEstimates::default().corroborate_observed(&ds, &Tripwire).expect("3-Estimates");
    Cosine::default().corroborate_observed(&ds, &Tripwire).expect("Cosine");
}

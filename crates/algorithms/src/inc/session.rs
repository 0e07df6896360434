//! Interactive IncEstimate sessions: run the incremental corroboration
//! round by round, inspect the evolving trust between rounds, and
//! optionally *seed* facts whose labels are known out-of-band
//! (semi-supervised corroboration — e.g. the listings an analyst already
//! checked in person, exactly the paper's golden-set collection process
//! turned into an input instead of an evaluation artefact).
//!
//! The session records the trust trajectory as a change log: each round
//! (and each seed) appends only the sources the state's trust refresh
//! re-derived, so recording costs what the round changed, not one full
//! snapshot per time point.

use corroborate_core::prelude::*;
use corroborate_obs::{Counter, NoopObserver, Observer, RoundRecord, Span, NOOP};

use super::{traced, IncEstimateConfig, IncState, SelectionStrategy, OBS_EMIT};

/// What one [`IncEstimateSession::step`] did.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// 1-based index of the completed time point.
    pub round: usize,
    /// Facts evaluated this round, with their fixed probabilities.
    pub evaluated: Vec<(FactId, f64)>,
    /// Trust snapshot `σ_{i+1}(S)` after folding the round in.
    pub trust: TrustSnapshot,
}

/// A stepping IncEstimate run. Create with [`IncEstimateSession::new`],
/// optionally [`seed`](Self::seed) known facts, then either call
/// [`step`](Self::step) until it returns `None` or let
/// [`finish`](Self::finish) drain the remaining rounds.
#[derive(Debug)]
pub struct IncEstimateSession<'a, S, O: Observer = NoopObserver> {
    state: IncState<'a, O>,
    strategy: S,
    trajectory: TrustTrajectory,
    rounds: usize,
}

impl<'a, S: SelectionStrategy> IncEstimateSession<'a, S> {
    /// Opens a session over `dataset` with the no-op observer.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn new(
        dataset: &'a Dataset,
        strategy: S,
        config: IncEstimateConfig,
    ) -> Result<Self, CoreError> {
        Self::with_observer(dataset, strategy, config, &NOOP)
    }
}

impl<'a, S: SelectionStrategy, O: Observer> IncEstimateSession<'a, S, O> {
    /// Opens a session over `dataset` with telemetry streaming into `obs`:
    /// per-round records, selection pruning-tier counters, cache telemetry,
    /// and span timings. Selections and probabilities are bit-identical
    /// whatever observer is attached.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn with_observer(
        dataset: &'a Dataset,
        strategy: S,
        config: IncEstimateConfig,
        obs: &'a O,
    ) -> Result<Self, CoreError> {
        let state = IncState::with_observer(dataset, config, obs, strategy.reads_block_winners())?;
        let mut trajectory = TrustTrajectory::new();
        trajectory.push(state.trust().clone());
        Ok(Self { state, strategy, trajectory, rounds: 0 })
    }

    /// Read access to the evolving state (trust, remaining facts, …).
    pub fn state(&self) -> &IncState<'a, O> {
        &self.state
    }

    /// Completed time points so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Marks `fact` as already evaluated with a known `label`
    /// (probability 1 or 0), folding it into the per-source counters and
    /// the trust snapshot — before or between rounds.
    ///
    /// # Errors
    /// - [`CoreError::IdOutOfRange`] for a fact outside the dataset;
    /// - [`CoreError::InvalidConfig`] when the fact was already evaluated.
    pub fn seed(&mut self, fact: FactId, label: Label) -> Result<(), CoreError> {
        if fact.index() >= self.state.dataset().n_facts() {
            return Err(CoreError::IdOutOfRange {
                kind: "fact",
                index: fact.index(),
                len: self.state.dataset().n_facts(),
            });
        }
        if !self.state.is_remaining(fact) {
            return Err(CoreError::InvalidConfig {
                message: format!("fact {fact} was already evaluated"),
            });
        }
        self.state.seed(fact, label);
        // Seeding amends the latest time point rather than adding one: it
        // is knowledge injected *at* t_i, not a round.
        self.trajectory.amend_last(rederived_trust(&self.state));
        Ok(())
    }

    /// Runs one time point. Returns `None` when every fact is evaluated.
    pub fn step(&mut self) -> Option<StepReport> {
        let evaluated = self.advance()?;
        let evaluated = evaluated.into_iter().map(|f| (f, self.state.probability(f))).collect();
        Some(StepReport { round: self.rounds, evaluated, trust: self.state.trust().clone() })
    }

    /// Runs one time point and returns the facts it evaluated, or `None`
    /// when every fact is evaluated.
    fn advance(&mut self) -> Option<Vec<FactId>> {
        if self.state.remaining_count() == 0 {
            return None;
        }
        let obs = self.state.observer();
        let entropy_before =
            if O::ENABLED && OBS_EMIT { self.state.remaining_entropy() } else { 0.0 };
        let mut selection =
            traced(obs, Span::Select, self.rounds as u64, || self.strategy.select(&self.state));
        selection.retain(|&f| self.state.is_remaining(f));
        selection.sort_unstable();
        selection.dedup();
        if selection.is_empty() {
            selection = self.state.remaining_facts();
        }
        self.state.evaluate(&selection);
        self.rounds += 1;
        self.trajectory.push_changes(rederived_trust(&self.state));
        if O::ENABLED && OBS_EMIT {
            obs.add(Counter::Rounds, 1);
            obs.round(&RoundRecord {
                round: self.rounds - 1,
                evaluated: selection.len(),
                remaining: self.state.remaining_count(),
                entropy_before,
                entropy_after: self.state.remaining_entropy(),
                // The observer pairs this with the strategy's pending
                // SelectionRecord, if one was emitted during select.
                selection: None,
            });
        }
        Some(selection)
    }

    /// Drains the remaining rounds and assembles the final result.
    ///
    /// # Errors
    /// Propagates result-assembly errors (never expected for in-range
    /// probabilities).
    pub fn finish(mut self) -> Result<CorroborationResult, CoreError> {
        while self.advance().is_some() {}
        let trust = self.state.trust().clone();
        CorroborationResult::new(
            self.state.into_probabilities(),
            trust,
            Some(self.trajectory),
            self.rounds,
        )
    }
}

/// The sources the state's last trust refresh re-derived, with their
/// values.
fn rederived_trust<'s, O: Observer>(
    state: &'s IncState<'_, O>,
) -> impl Iterator<Item = (SourceId, f64)> + 's {
    let trust = state.trust();
    state.rederived().iter().map(move |&s| (s, trust.trust(s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inc::{IncEstHeu, IncEstimate, IncEstimateConfig};
    use corroborate_core::corroborator::Corroborator;
    use corroborate_datagen::motivating::motivating_example;

    fn fid(i: usize) -> FactId {
        FactId::new(i)
    }

    #[test]
    fn stepping_matches_the_one_shot_run() {
        let ds = motivating_example();
        let mut session =
            IncEstimateSession::new(&ds, IncEstHeu::default(), IncEstimateConfig::default())
                .unwrap();
        let mut steps = 0;
        while session.step().is_some() {
            steps += 1;
        }
        assert_eq!(session.rounds(), steps);
        let stepped = {
            let session =
                IncEstimateSession::new(&ds, IncEstHeu::default(), IncEstimateConfig::default())
                    .unwrap();
            session.finish().unwrap()
        };
        let oneshot = IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap();
        assert_eq!(stepped.probabilities(), oneshot.probabilities());
        assert_eq!(stepped.rounds(), oneshot.rounds());
        assert_eq!(stepped.trust().values(), oneshot.trust().values());
    }

    #[test]
    fn step_reports_expose_round_contents() {
        let ds = motivating_example();
        let mut session =
            IncEstimateSession::new(&ds, IncEstHeu::default(), IncEstimateConfig::default())
                .unwrap();
        let report = session.step().expect("at least one round");
        assert_eq!(report.round, 1);
        assert!(!report.evaluated.is_empty());
        for &(f, p) in &report.evaluated {
            assert!(!session.state().is_remaining(f));
            assert!((0.0..=1.0).contains(&p));
        }
        assert_eq!(report.trust.n_sources(), ds.n_sources());
    }

    #[test]
    fn seeding_injects_knowledge_into_trust() {
        let ds = motivating_example();
        let cfg = IncEstimateConfig { prior_strength: 0.0, ..Default::default() };
        let mut session = IncEstimateSession::new(&ds, IncEstHeu::default(), cfg).unwrap();
        // Tell the session the analyst checked r5 (false) and r2 (true).
        session.seed(fid(4), Label::False).unwrap();
        session.seed(fid(1), Label::True).unwrap();
        // s4 voted T on r5 (wrong) and T on r2 (right) → trust 0.5; s1
        // voted T on both → 0.5 as well.
        let trust = session.state().trust();
        assert!((trust.trust(SourceId::new(3)) - 0.5).abs() < 1e-12);
        assert!((trust.trust(SourceId::new(0)) - 0.5).abs() < 1e-12);
        let r = session.finish().unwrap();
        // Seeded facts keep their injected labels in the result.
        assert!(!r.decisions().label(fid(4)).as_bool());
        assert!(r.decisions().label(fid(1)).as_bool());
    }

    #[test]
    fn seeding_the_golden_falses_uncovers_more() {
        // Semi-supervised: seeding the known-false r12 and r6 lets the
        // heuristic discredit s4 before round 1.
        let ds = motivating_example();
        let mut session =
            IncEstimateSession::new(&ds, IncEstHeu::default(), IncEstimateConfig::default())
                .unwrap();
        session.seed(fid(11), Label::False).unwrap();
        session.seed(fid(5), Label::False).unwrap();
        let seeded = session.finish().unwrap();
        let unseeded = IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap();
        let seeded_acc = seeded.confusion(&ds).unwrap().accuracy();
        let unseeded_acc = unseeded.confusion(&ds).unwrap().accuracy();
        assert!(
            seeded_acc >= unseeded_acc,
            "seeding must not hurt: {seeded_acc} vs {unseeded_acc}"
        );
    }

    #[test]
    fn seed_validation() {
        let ds = motivating_example();
        let mut session =
            IncEstimateSession::new(&ds, IncEstHeu::default(), IncEstimateConfig::default())
                .unwrap();
        assert!(session.seed(fid(99), Label::True).is_err());
        session.seed(fid(0), Label::True).unwrap();
        assert!(session.seed(fid(0), Label::True).is_err(), "double seed rejected");
    }

    #[test]
    fn trajectory_counts_rounds_not_seeds() {
        let ds = motivating_example();
        let mut session =
            IncEstimateSession::new(&ds, IncEstHeu::default(), IncEstimateConfig::default())
                .unwrap();
        session.seed(fid(11), Label::False).unwrap();
        let r = session.finish().unwrap();
        assert_eq!(r.trajectory().unwrap().len(), r.rounds() + 1);
    }
}

//! Multi-answer corroboration (the paper's §6.2.6 Hubdub experiment).
//!
//! A Hubdub-style dataset groups facts into *questions* with several
//! mutually-exclusive candidate answers; a user voting `T` for one
//! candidate is implicitly voting `F` for the siblings it stays silent on.
//! [`MultiAnswer`] adapts any binary [`Corroborator`] to this setting:
//!
//! 1. optionally *expand* implicit negatives into explicit `F` votes;
//! 2. run the inner corroborator on the (expanded) dataset;
//! 3. optionally re-decide each question by *argmax*: exactly the
//!    highest-probability candidate is declared true.
//!
//! The error metric the paper reports for this experiment (`#errors =
//! FP + FN` over candidate facts) is [`ConfusionMatrix::errors`].

use corroborate_core::prelude::*;
use corroborate_core::questions::QuestionStructure;

/// How per-question decisions are derived from candidate probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionPolicy {
    /// Keep the inner corroborator's independent 0.5-threshold decisions.
    Threshold,
    /// Declare exactly one candidate per question true: the one with the
    /// highest probability (ties broken toward the lowest fact id).
    /// This matches settled single-answer questions. Default.
    #[default]
    Argmax,
}

/// Configuration for [`MultiAnswer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiAnswerConfig {
    /// Expand implicit negatives: a source voting `T` on a candidate casts
    /// synthetic `F` votes on the question's other candidates (unless it
    /// voted on them explicitly). Galland et al. use this expansion for
    /// their Hubdub experiments; enabled by default.
    pub expand_implicit_negatives: bool,
    /// Decision policy after corroboration.
    pub decision: DecisionPolicy,
}

impl Default for MultiAnswerConfig {
    fn default() -> Self {
        Self { expand_implicit_negatives: true, decision: DecisionPolicy::Argmax }
    }
}

/// Adapter running a binary corroborator over a multi-answer dataset.
#[derive(Debug, Clone)]
pub struct MultiAnswer<C> {
    inner: C,
    config: MultiAnswerConfig,
    name: String,
}

impl<C: Corroborator> MultiAnswer<C> {
    /// Wraps `inner` with the default configuration.
    pub fn new(inner: C) -> Self {
        Self::with_config(inner, MultiAnswerConfig::default())
    }

    /// Wraps `inner` with an explicit configuration.
    pub fn with_config(inner: C, config: MultiAnswerConfig) -> Self {
        let name = format!("MultiAnswer({})", inner.name());
        Self { inner, config, name }
    }

    /// The wrapped corroborator.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

/// Builds the expanded dataset with implicit `F` votes materialised.
///
/// Exposed for tests and for callers that want to inspect the expansion.
pub fn expand_implicit_negatives(dataset: &Dataset) -> Result<Dataset, CoreError> {
    let questions = dataset.require_questions()?;
    let mut b = DatasetBuilder::new();
    for s in dataset.sources() {
        b.add_source(dataset.source_name(s));
    }
    let truth = dataset.ground_truth();
    for f in dataset.facts() {
        match truth.map(|t| t.label(f)) {
            Some(l) => b.add_fact_with_truth(dataset.fact_name(f), l),
            None => b.add_fact(dataset.fact_name(f)),
        };
    }
    b.set_question_assignments(dataset.facts().map(|f| questions.question_of(f)).collect());
    // Explicit votes first (they win over synthetic negatives).
    for f in dataset.facts() {
        for sv in dataset.votes().votes_on(f) {
            b.cast(sv.source, f, sv.vote)?;
        }
    }
    // Synthetic negatives: for each explicit T vote, F votes on the
    // sibling candidates the source did not vote on.
    for f in dataset.facts() {
        for sv in dataset.votes().votes_on(f) {
            if !sv.vote.is_affirmative() {
                continue;
            }
            for sib in questions.siblings(f) {
                if dataset.votes().vote(sv.source, sib).is_none() {
                    b.cast(sv.source, sib, Vote::False)?;
                }
            }
        }
    }
    b.build()
}

/// Applies the argmax policy: per question, probabilities are replaced so
/// the (unique) winner is ≥ 0.5 and all others < 0.5, preserving the
/// winner's original probability for reporting.
fn argmax_probabilities(questions: &QuestionStructure, probs: &mut [f64]) {
    for q in questions.questions() {
        let candidates = questions.candidates(q);
        let mut winner = candidates[0];
        for &c in candidates {
            if probs[c.index()] > probs[winner.index()] {
                winner = c;
            }
        }
        for &c in candidates {
            if c == winner {
                probs[c.index()] = probs[c.index()].max(0.5);
            } else {
                probs[c.index()] = probs[c.index()].min(0.5 - 1e-9);
            }
        }
    }
}

impl<C: Corroborator> Corroborator for MultiAnswer<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn corroborate(&self, dataset: &Dataset) -> Result<CorroborationResult, CoreError> {
        let questions = dataset.require_questions()?.clone();
        let result = if self.config.expand_implicit_negatives {
            let expanded = expand_implicit_negatives(dataset)?;
            self.inner.corroborate(&expanded)?
        } else {
            self.inner.corroborate(dataset)?
        };
        let mut probs = result.probabilities().to_vec();
        if self.config.decision == DecisionPolicy::Argmax {
            argmax_probabilities(&questions, &mut probs);
        }
        CorroborationResult::new(
            probs,
            result.trust().clone(),
            result.trajectory().cloned(),
            result.rounds(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Voting;
    use crate::galland::TwoEstimates;

    /// Two questions: q0 with 3 candidates (answer = c1), q1 with 2
    /// (answer = c0). Three users.
    fn quiz() -> Dataset {
        let mut b = DatasetBuilder::new();
        let u: Vec<SourceId> = (0..3).map(|i| b.add_source(format!("u{i}"))).collect();
        // q0 candidates: facts 0,1,2 — truth: fact 1.
        let q0: Vec<FactId> = [false, true, false]
            .iter()
            .enumerate()
            .map(|(i, &t)| b.add_fact_with_truth(format!("q0c{i}"), Label::from_bool(t)))
            .collect();
        // q1 candidates: facts 3,4 — truth: fact 3.
        let q1: Vec<FactId> = [true, false]
            .iter()
            .enumerate()
            .map(|(i, &t)| b.add_fact_with_truth(format!("q1c{i}"), Label::from_bool(t)))
            .collect();
        b.set_question_assignments(vec![
            QuestionId::new(0),
            QuestionId::new(0),
            QuestionId::new(0),
            QuestionId::new(1),
            QuestionId::new(1),
        ]);
        // u0 and u1 answer q0 correctly; u2 picks the wrong candidate.
        b.cast(u[0], q0[1], Vote::True).unwrap();
        b.cast(u[1], q0[1], Vote::True).unwrap();
        b.cast(u[2], q0[2], Vote::True).unwrap();
        // q1: u0 right, u2 wrong.
        b.cast(u[0], q1[0], Vote::True).unwrap();
        b.cast(u[2], q1[1], Vote::True).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn expansion_adds_sibling_negatives_only() {
        let ds = quiz();
        let ex = expand_implicit_negatives(&ds).unwrap();
        // u0 voted T on q0c1 → F on q0c0 and q0c2; T on q1c0 → F on q1c1.
        let u0 = SourceId::new(0);
        assert_eq!(ex.votes().vote(u0, FactId::new(0)), Some(Vote::False));
        assert_eq!(ex.votes().vote(u0, FactId::new(1)), Some(Vote::True));
        assert_eq!(ex.votes().vote(u0, FactId::new(2)), Some(Vote::False));
        assert_eq!(ex.votes().vote(u0, FactId::new(4)), Some(Vote::False));
        // u1 never touched q1 → stays silent there.
        let u1 = SourceId::new(1);
        assert_eq!(ex.votes().vote(u1, FactId::new(3)), None);
        assert_eq!(ex.votes().vote(u1, FactId::new(4)), None);
        // Ground truth and question structure survive the expansion.
        assert_eq!(ex.ground_truth().unwrap().n_true(), 2);
        assert_eq!(ex.questions().unwrap().n_questions(), 2);
    }

    #[test]
    fn argmax_declares_exactly_one_candidate_per_question() {
        let ds = quiz();
        let r = MultiAnswer::new(TwoEstimates::default()).corroborate(&ds).unwrap();
        let q = ds.questions().unwrap();
        for question in q.questions() {
            let winners = q
                .candidates(question)
                .iter()
                .filter(|&&c| r.decisions().label(c).as_bool())
                .count();
            assert_eq!(winners, 1, "{question}");
        }
    }

    #[test]
    fn majority_answer_wins_with_voting_inner() {
        let ds = quiz();
        let r = MultiAnswer::new(Voting).corroborate(&ds).unwrap();
        // q0: two votes for c1, one for c2 → c1.
        assert!(r.decisions().label(FactId::new(1)).as_bool());
        assert!(!r.decisions().label(FactId::new(2)).as_bool());
        let m = r.confusion(&ds).unwrap();
        // q0 perfect; q1 is a 1-1 tie — whichever way it goes, at most 2
        // errors (one FP + one FN).
        assert!(m.errors() <= 2);
    }

    #[test]
    fn corroboration_breaks_the_q1_tie_with_user_quality() {
        // u0 proved reliable on q0, u2 did not; 2-Estimates on the expanded
        // dataset must break q1 toward u0's answer.
        let ds = quiz();
        let r = MultiAnswer::new(TwoEstimates::default()).corroborate(&ds).unwrap();
        assert!(r.decisions().label(FactId::new(3)).as_bool(), "u0's answer wins");
        assert!(!r.decisions().label(FactId::new(4)).as_bool());
        assert_eq!(r.confusion(&ds).unwrap().errors(), 0);
    }

    #[test]
    fn requires_question_structure() {
        let mut b = DatasetBuilder::new();
        b.add_source("s");
        b.add_fact("f");
        let ds = b.build().unwrap();
        let e = MultiAnswer::new(Voting).corroborate(&ds);
        assert!(matches!(e, Err(CoreError::MissingComponent { .. })));
    }

    #[test]
    fn threshold_policy_keeps_inner_decisions() {
        let ds = quiz();
        let cfg = MultiAnswerConfig {
            expand_implicit_negatives: false,
            decision: DecisionPolicy::Threshold,
        };
        let r = MultiAnswer::with_config(Voting, cfg).corroborate(&ds).unwrap();
        let plain = Voting.corroborate(&ds).unwrap();
        assert_eq!(r.decisions().labels(), plain.decisions().labels());
    }
}

//! TruthFinder (Yin, Han & Yu, KDD 2007 / TKDE 2008) — the pioneering
//! truth-discovery algorithm from the paper's related work (§7), included
//! as an additional single-trust-score baseline for the `extras` bin.
//!
//! Sources carry a trustworthiness `t(s)`; the *trust score* of a source is
//! `τ(s) = −ln(1 − t(s))`, and the confidence of a fact is a logistic
//! squashing of the summed trust scores of its supporters (minus its
//! deniers):
//!
//! ```text
//! σ*(f) = Σ_{s: T vote} τ(s) − Σ_{s: F vote} τ(s)
//! σ(f)  = 1 / (1 + e^{−γ·σ*(f)})
//! t(s)  = mean over s's votes of (vote == T ? σ(f) : 1 − σ(f))
//! ```
//!
//! `γ` is the damping factor (0.3 in the original paper).

use corroborate_core::prelude::*;

use crate::convergence::IterationControl;

/// Configuration for [`TruthFinder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthFinderConfig {
    /// Initial trustworthiness of every source (0.9 in the original paper).
    pub initial_trust: f64,
    /// Damping factor γ of the logistic squashing.
    pub gamma: f64,
    /// Probability reported for voteless facts.
    pub voteless_prior: f64,
    /// Iteration cap and convergence tolerance.
    pub iteration: IterationControl,
}

impl Default for TruthFinderConfig {
    fn default() -> Self {
        Self {
            initial_trust: 0.9,
            gamma: 0.3,
            voteless_prior: 0.5,
            iteration: IterationControl::default(),
        }
    }
}

/// TruthFinder corroborator. See the module-level documentation.
#[derive(Debug, Clone, Default)]
pub struct TruthFinder {
    config: TruthFinderConfig,
}

impl TruthFinder {
    /// Creates the algorithm with an explicit configuration.
    pub fn new(config: TruthFinderConfig) -> Self {
        Self { config }
    }
}

/// Caps trust away from 1.0 so `−ln(1 − t)` stays finite.
const TRUST_CAP: f64 = 1.0 - 1e-9;

impl Corroborator for TruthFinder {
    fn name(&self) -> &str {
        "TruthFinder"
    }

    fn corroborate(&self, dataset: &Dataset) -> Result<CorroborationResult, CoreError> {
        let cfg = &self.config;
        corroborate_core::error::check_probability("initial trust", cfg.initial_trust)?;
        corroborate_core::error::check_probability("voteless prior", cfg.voteless_prior)?;
        if !(cfg.gamma > 0.0 && cfg.gamma.is_finite()) {
            return Err(CoreError::InvalidConfig {
                message: format!("gamma must be positive, got {}", cfg.gamma),
            });
        }
        cfg.iteration.validate()?;

        let mut trust = vec![cfg.initial_trust; dataset.n_sources()];
        let mut probs = vec![cfg.voteless_prior; dataset.n_facts()];
        let mut rounds = 0;

        for _ in 0..cfg.iteration.max_iterations {
            rounds += 1;
            for f in dataset.facts() {
                let votes = dataset.votes().votes_on(f);
                if votes.is_empty() {
                    continue;
                }
                let score: f64 = votes
                    .iter()
                    .map(|sv| {
                        let tau = -(1.0 - trust[sv.source.index()].min(TRUST_CAP)).ln();
                        if sv.vote.is_affirmative() {
                            tau
                        } else {
                            -tau
                        }
                    })
                    .sum();
                probs[f.index()] = 1.0 / (1.0 + (-cfg.gamma * score).exp());
            }
            let previous = trust.clone();
            for s in dataset.sources() {
                let votes = dataset.votes().votes_by(s);
                if votes.is_empty() {
                    continue;
                }
                let sum: f64 = votes
                    .iter()
                    .map(|fv| match fv.vote {
                        Vote::True => probs[fv.fact.index()],
                        Vote::False => 1.0 - probs[fv.fact.index()],
                    })
                    .sum();
                trust[s.index()] = sum / votes.len() as f64;
            }
            let residual =
                trust.iter().zip(&previous).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            if cfg.iteration.converged(residual) {
                break;
            }
        }

        CorroborationResult::new(probs, TrustSnapshot::from_values(trust)?, None, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corroborate_datagen::motivating::motivating_example;

    #[test]
    fn supported_facts_get_high_confidence() {
        let ds = motivating_example();
        let r = TruthFinder::default().corroborate(&ds).unwrap();
        // T-only facts with two+ supporters must be confidently true.
        assert!(r.probability(FactId::new(1)) > 0.6); // r2: 4 supporters
                                                      // r12 (2 F vs 1 T) must score lowest.
        let min = r.probabilities().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((r.probability(FactId::new(11)) - min).abs() < 1e-9);
    }

    #[test]
    fn affirmative_only_regime_also_defeats_truthfinder() {
        // Like the other single-trust-score methods, TruthFinder believes
        // everything in the T-only regime — that's why it's a baseline.
        let ds = motivating_example();
        let r = TruthFinder::default().corroborate(&ds).unwrap();
        for f in ds.facts() {
            if ds.votes().is_affirmative_only(f) {
                assert!(r.decisions().label(f).as_bool(), "{}", ds.fact_name(f));
            }
        }
    }

    #[test]
    fn gamma_must_be_positive() {
        let cfg = TruthFinderConfig { gamma: 0.0, ..Default::default() };
        assert!(TruthFinder::new(cfg).corroborate(&motivating_example()).is_err());
    }

    #[test]
    fn trust_never_explodes_despite_log_transform() {
        let ds = motivating_example();
        let r = TruthFinder::default().corroborate(&ds).unwrap();
        for s in ds.sources() {
            let t = r.trust().trust(s);
            assert!((0.0..=1.0).contains(&t));
        }
    }
}

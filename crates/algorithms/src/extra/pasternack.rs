//! The Pasternack & Roth (COLING 2010) fan of algorithms — **AvgLog**,
//! **Invest** and **PooledInvest** — cited in the paper's related work
//! (§7) and implemented here as additional single-trust-score baselines
//! for the `extras` bin.
//!
//! The framework views each vote as a *claim*: a `T` vote claims "`f` is
//! true", an `F` vote claims "`f` is false"; the two claims about a fact
//! form a mutual-exclusion set. Sources earn trust from the belief their
//! claims accumulate; beliefs are recomputed from trust. The three
//! variants differ in the belief/trust coupling:
//!
//! - **AvgLog** — `T(s) = log(|C_s|) · avg B(c)`: rewards prolific sources
//!   logarithmically instead of linearly.
//! - **Invest** — each source spreads its trust evenly over its claims;
//!   a claim's belief is `G(Σ investments)` with `G(x) = x^g`, and sources
//!   are repaid proportionally to their share of the investment.
//! - **PooledInvest** — Invest, but beliefs are linearly rescaled within
//!   each mutual-exclusion set so a set's total belief equals its total
//!   investment (stops `x^g` from exploding).
//!
//! The reported probability of a fact is `B(true claim) / (B(true) +
//! B(false))`, with the configured prior for voteless facts.

use corroborate_core::prelude::*;

use crate::convergence::IterationControl;

/// Which Pasternack & Roth variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PasternackVariant {
    /// `Sums` — Kleinberg's hubs-and-authorities coupling (the simplest
    /// baseline in the Pasternack & Roth framework): belief = sum of the
    /// claimants' trust, trust = sum of the claims' belief.
    Sums,
    /// The `AvgLog` coupling.
    AvgLog,
    /// The `Invest` coupling.
    Invest,
    /// The `PooledInvest` coupling.
    PooledInvest,
}

impl PasternackVariant {
    fn name(self) -> &'static str {
        match self {
            PasternackVariant::Sums => "Sums",
            PasternackVariant::AvgLog => "AvgLog",
            PasternackVariant::Invest => "Invest",
            PasternackVariant::PooledInvest => "PooledInvest",
        }
    }
}

/// Configuration for [`Pasternack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PasternackConfig {
    /// Initial trust for every source.
    pub initial_trust: f64,
    /// Growth exponent `g` of `G(x) = x^g` (1.2 in the original paper);
    /// ignored by `AvgLog`.
    pub growth: f64,
    /// Probability reported for voteless facts.
    pub voteless_prior: f64,
    /// Iteration cap and convergence tolerance.
    pub iteration: IterationControl,
}

impl Default for PasternackConfig {
    fn default() -> Self {
        Self {
            initial_trust: 0.9,
            growth: 1.2,
            voteless_prior: 0.5,
            iteration: IterationControl { max_iterations: 20, tolerance: 1e-6 },
        }
    }
}

/// A Pasternack & Roth corroborator. See the module-level documentation.
#[derive(Debug, Clone)]
pub struct Pasternack {
    variant: PasternackVariant,
    config: PasternackConfig,
}

impl Pasternack {
    /// Creates the chosen variant with the default configuration.
    pub fn new(variant: PasternackVariant) -> Self {
        Self { variant, config: PasternackConfig::default() }
    }

    /// Creates the chosen variant with an explicit configuration.
    pub fn with_config(variant: PasternackVariant, config: PasternackConfig) -> Self {
        Self { variant, config }
    }

    /// The variant being run.
    pub fn variant(&self) -> PasternackVariant {
        self.variant
    }
}

impl Corroborator for Pasternack {
    fn name(&self) -> &str {
        self.variant.name()
    }

    fn corroborate(&self, dataset: &Dataset) -> Result<CorroborationResult, CoreError> {
        let cfg = &self.config;
        corroborate_core::error::check_probability("initial trust", cfg.initial_trust)?;
        corroborate_core::error::check_probability("voteless prior", cfg.voteless_prior)?;
        if !(cfg.growth >= 1.0 && cfg.growth.is_finite()) {
            return Err(CoreError::InvalidConfig {
                message: format!("growth exponent must be ≥ 1, got {}", cfg.growth),
            });
        }
        cfg.iteration.validate()?;

        let n_facts = dataset.n_facts();
        let mut trust = vec![cfg.initial_trust; dataset.n_sources()];
        // Belief in the claim "f is true" / "f is false": indexed [fact][polarity]
        // with polarity 1 = true.
        let mut belief = vec![[0.0f64; 2]; n_facts];
        let mut rounds = 0;

        for _ in 0..cfg.iteration.max_iterations {
            rounds += 1;
            // --- Belief step ------------------------------------------------
            let mut investment = vec![[0.0f64; 2]; n_facts];
            for s in dataset.sources() {
                let votes = dataset.votes().votes_by(s);
                if votes.is_empty() {
                    continue;
                }
                let share = trust[s.index()] / votes.len() as f64;
                for fv in votes {
                    let pol = usize::from(fv.vote.is_affirmative());
                    investment[fv.fact.index()][pol] += match self.variant {
                        // Sums/AvgLog beliefs are plain trust sums.
                        PasternackVariant::Sums | PasternackVariant::AvgLog => trust[s.index()],
                        _ => share,
                    };
                }
            }
            for f in 0..n_facts {
                for pol in 0..2 {
                    belief[f][pol] = match self.variant {
                        PasternackVariant::Sums | PasternackVariant::AvgLog => investment[f][pol],
                        PasternackVariant::Invest | PasternackVariant::PooledInvest => {
                            investment[f][pol].powf(cfg.growth)
                        }
                    };
                }
                if self.variant == PasternackVariant::PooledInvest {
                    let g_total = belief[f][0] + belief[f][1];
                    let i_total = investment[f][0] + investment[f][1];
                    if g_total > 1e-300 {
                        for b in belief[f].iter_mut() {
                            *b = *b / g_total * i_total;
                        }
                    }
                }
            }
            // --- Trust step -------------------------------------------------
            let previous = trust.clone();
            for s in dataset.sources() {
                let votes = dataset.votes().votes_by(s);
                if votes.is_empty() {
                    continue;
                }
                let mut acc = 0.0;
                for fv in votes {
                    let fi = fv.fact.index();
                    let pol = usize::from(fv.vote.is_affirmative());
                    acc += match self.variant {
                        // Sums: plain belief sum (hubs-and-authorities).
                        PasternackVariant::Sums => belief[fi][pol],
                        PasternackVariant::AvgLog => {
                            // Average belief, scaled by log(1 + |C_s|).
                            belief[fi][pol] / votes.len() as f64
                        }
                        PasternackVariant::Invest | PasternackVariant::PooledInvest => {
                            // Repayment proportional to investment share.
                            let inv = investment[fi][pol];
                            if inv > 1e-300 {
                                belief[fi][pol] * (previous[s.index()] / votes.len() as f64) / inv
                            } else {
                                0.0
                            }
                        }
                    };
                }
                trust[s.index()] = match self.variant {
                    PasternackVariant::AvgLog => acc * (1.0 + votes.len() as f64).ln(),
                    _ => acc,
                };
            }
            // Rescale trust onto [0, 1] so the fixed point is well-defined
            // (the original normalises by the maximum each iteration).
            let max = trust.iter().cloned().fold(0.0f64, f64::max);
            if max > 1e-300 {
                for t in &mut trust {
                    *t /= max;
                }
            }
            let residual =
                trust.iter().zip(&previous).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            if cfg.iteration.converged(residual) {
                break;
            }
        }

        let probs: Vec<f64> = (0..n_facts)
            .map(|f| {
                let total = belief[f][0] + belief[f][1];
                if total > 1e-300 {
                    belief[f][1] / total
                } else {
                    cfg.voteless_prior
                }
            })
            .collect();
        CorroborationResult::new(probs, TrustSnapshot::from_values(trust)?, None, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corroborate_datagen::motivating::motivating_example;

    const ALL: [PasternackVariant; 4] = [
        PasternackVariant::Sums,
        PasternackVariant::AvgLog,
        PasternackVariant::Invest,
        PasternackVariant::PooledInvest,
    ];

    #[test]
    fn names_match_variants() {
        for v in ALL {
            assert_eq!(Pasternack::new(v).name(), v.name());
        }
    }

    #[test]
    fn unanimously_supported_facts_are_true_under_all_variants() {
        let ds = motivating_example();
        for v in ALL {
            let r = Pasternack::new(v).corroborate(&ds).unwrap();
            for f in ds.facts() {
                if ds.votes().is_affirmative_only(f) {
                    assert!(r.decisions().label(f).as_bool(), "{:?}: {}", v, ds.fact_name(f));
                }
            }
        }
    }

    #[test]
    fn majority_denial_defeats_single_supporter() {
        let mut b = DatasetBuilder::new();
        let sources: Vec<_> = (0..4).map(|i| b.add_source(format!("s{i}"))).collect();
        let f = b.add_fact("contested");
        b.cast(sources[0], f, Vote::True).unwrap();
        for &s in &sources[1..] {
            b.cast(s, f, Vote::False).unwrap();
        }
        // Anchor facts so trust is meaningful.
        for i in 0..5 {
            let g = b.add_fact(format!("anchor{i}"));
            for &s in &sources {
                b.cast(s, g, Vote::True).unwrap();
            }
        }
        let ds = b.build().unwrap();
        for v in ALL {
            let r = Pasternack::new(v).corroborate(&ds).unwrap();
            assert!(!r.decisions().label(f).as_bool(), "{v:?}");
        }
    }

    #[test]
    fn probabilities_and_trust_stay_in_unit_interval() {
        let ds = motivating_example();
        for v in ALL {
            let r = Pasternack::new(v).corroborate(&ds).unwrap();
            for &p in r.probabilities() {
                assert!((0.0..=1.0).contains(&p), "{v:?}: p = {p}");
            }
            for s in ds.sources() {
                assert!((0.0..=1.0).contains(&r.trust().trust(s)), "{v:?}");
            }
        }
    }

    #[test]
    fn growth_exponent_validation() {
        let cfg = PasternackConfig { growth: 0.5, ..Default::default() };
        assert!(Pasternack::with_config(PasternackVariant::Invest, cfg)
            .corroborate(&motivating_example())
            .is_err());
    }

    #[test]
    fn voteless_fact_takes_prior() {
        let mut b = DatasetBuilder::new();
        b.add_source("s");
        b.add_fact("silent");
        let ds = b.build().unwrap();
        for v in ALL {
            let r = Pasternack::new(v).corroborate(&ds).unwrap();
            assert!((r.probabilities()[0] - 0.5).abs() < 1e-12, "{v:?}");
        }
    }
}

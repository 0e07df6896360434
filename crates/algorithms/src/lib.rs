//! # corroborate-algorithms
//!
//! Every truth-discovery algorithm of the `corroborate` workspace — the
//! reproduction of *“Corroborating Facts from Affirmative Statements”*
//! (Wu & Marian, EDBT 2014).
//!
//! ## The paper's contribution
//!
//! - [`inc`] — **IncEstimate** (Algorithm 1) with the entropy-driven
//!   [`inc::IncEstHeu`] strategy (Algorithm 2), the greedy
//!   [`inc::IncEstPS`] foil, and scripted schedules
//!   ([`inc::FixedSchedule`]) reproducing the §2.3 walkthrough.
//!
//! ## Baselines the paper evaluates against (§6.1.1)
//!
//! - [`baseline`] — `Voting` and `Counting`;
//! - [`galland`] — `2-Estimates`, `3-Estimates` and `Cosine`
//!   (Galland et al., WSDM 2010);
//! - [`bayes`] — `BayesEstimate`, the Latent Truth Model (Zhao et al.,
//!   PVLDB 2012) with the paper's exact priors.
//!
//! ## Extras for ablations (related work, §7)
//!
//! - [`extra`] — `TruthFinder`, `AvgLog`, `Invest`, `PooledInvest`.
//!
//! ## Multi-answer adaptation (§6.2.6)
//!
//! - [`multi_answer`] — runs any of the above over Hubdub-style
//!   question/candidate datasets with implicit-negative expansion and
//!   argmax decisions.
//!
//! Every algorithm implements
//! [`Corroborator`] and is
//! deterministic given its configuration (randomised algorithms take an
//! explicit seed).
//!
//! ```
//! use corroborate_core::prelude::*;
//! use corroborate_algorithms::inc::{IncEstimate, IncEstHeu};
//! use corroborate_algorithms::galland::TwoEstimates;
//!
//! let mut b = DatasetBuilder::new();
//! let s1 = b.add_source("blogA");
//! let s2 = b.add_source("blogB");
//! let f = b.add_fact("product launches in May");
//! b.cast(s1, f, Vote::True).unwrap();
//! b.cast(s2, f, Vote::True).unwrap();
//! let ds = b.build().unwrap();
//!
//! let inc = IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap();
//! let two = TwoEstimates::default().corroborate(&ds).unwrap();
//! assert!(inc.probability(f) >= 0.5 && two.probability(f) >= 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod baseline;
pub mod bayes;
pub mod bayes_diagnostics;
pub mod convergence;
pub mod extra;
pub mod galland;
pub mod inc;
pub mod multi_answer;

pub use corroborate_core::corroborator::{CorroborationResult, Corroborator};
/// Re-export of the telemetry layer: attach a
/// [`RecordingObserver`](obs::RecordingObserver) via the `*_observed`
/// entry points ([`inc::IncEstimate::corroborate_observed`],
/// [`inc::IncEstimateSession::with_observer`], and the galland
/// `corroborate_observed` methods) to capture counters, span latencies, and
/// per-round / per-iteration records. See `docs/OBSERVABILITY.md`.
pub use corroborate_obs as obs;

/// True when the `obs` feature compiled the telemetry emission sites in.
/// Every site is guarded by `O::ENABLED && OBS_EMIT`, so with the feature
/// off the hooks constant-fold away even for enabled observers — the
/// `tracing` max-level pattern.
pub(crate) const OBS_EMIT: bool = cfg!(feature = "obs");

/// Times `f` under `span` when both the observer and the `obs` feature are
/// enabled; otherwise calls it directly with zero overhead. Also emits
/// hierarchical begin/end trace events carrying `payload` (round index,
/// fact count, re-derived sources, …) so trace-enabled observers capture the
/// parent/child decomposition of the work.
#[inline]
pub(crate) fn traced<O: obs::Observer, R>(
    observer: &O,
    span: obs::Span,
    payload: u64,
    f: impl FnOnce() -> R,
) -> R {
    if O::ENABLED && OBS_EMIT {
        observer.traced(span, payload, f)
    } else {
        f()
    }
}

/// The full roster of corroborators the benchmark harness compares, boxed
/// behind the common trait. The `seed` parameterises the randomised
/// `BayesEstimate` sampler.
pub fn standard_roster(seed: u64) -> Vec<Box<dyn Corroborator>> {
    vec![
        Box::new(baseline::Voting),
        Box::new(baseline::Counting),
        Box::new(bayes::BayesEstimate::new(bayes::BayesEstimateConfig::paper_priors(seed))),
        Box::new(galland::TwoEstimates::default()),
        Box::new(inc::IncEstimate::new(inc::IncEstPS)),
        Box::new(inc::IncEstimate::new(inc::IncEstHeu::default())),
    ]
}

/// Every corroborator in the workspace behind the common trait: the
/// [`standard_roster`] plus the remaining Galland estimators and the
/// related-work [`extra`] methods. This is the roster the conformance
/// testkit's differential oracle drives; engine names are unique.
pub fn extended_roster(seed: u64) -> Vec<Box<dyn Corroborator>> {
    let mut roster = standard_roster(seed);
    roster.push(Box::new(galland::ThreeEstimates::default()));
    roster.push(Box::new(galland::Cosine::default()));
    roster.push(Box::new(extra::TruthFinder::default()));
    roster.push(Box::new(extra::AccuVote::default()));
    for variant in [
        extra::PasternackVariant::Sums,
        extra::PasternackVariant::AvgLog,
        extra::PasternackVariant::Invest,
        extra::PasternackVariant::PooledInvest,
    ] {
        roster.push(Box::new(extra::Pasternack::new(variant)));
    }
    roster
}

//! Additional truth-discovery baselines from the paper's related work
//! (§7), compared in the `extras` bin: [`TruthFinder`] (Yin et al.),
//! the Pasternack & Roth family ([`Pasternack`]: `Sums`, `AvgLog`,
//! `Invest`, `PooledInvest`), and the dependence-aware [`AccuVote`]
//! (Dong et al.).

mod accu;
mod pasternack;
mod truthfinder;

pub use accu::{AccuVote, AccuVoteConfig};
pub use pasternack::{Pasternack, PasternackConfig, PasternackVariant};
pub use truthfinder::{TruthFinder, TruthFinderConfig};

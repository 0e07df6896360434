//! # corroborate-core
//!
//! Core data model and measurement toolkit for the `corroborate` workspace —
//! a from-scratch reproduction of *“Corroborating Facts from Affirmative
//! Statements”* (Wu & Marian, EDBT 2014).
//!
//! The paper studies *truth discovery* in the regime where almost every fact
//! receives only affirmative (`T`) votes, so there is no conflict for
//! classical corroboration algorithms to learn from. This crate provides the
//! vocabulary everything else builds on:
//!
//! - [`ids`] — typed [`SourceId`](ids::SourceId) / [`FactId`](ids::FactId) /
//!   [`QuestionId`](ids::QuestionId) identifiers;
//! - [`vote`] — votes and the sparse, doubly-indexed [`VoteMatrix`](vote::VoteMatrix);
//! - [`dataset`] — [`Dataset`](dataset::Dataset) instances with optional
//!   ground truth and multi-answer question structure;
//! - [`truth`] — labels and assignments, with the paper's 0.5 decision rule;
//! - [`trust`] — single-snapshot and multi-value
//!   ([`TrustTrajectory`](trust::TrustTrajectory)) trust scores;
//! - [`entropy`] — binary/collective entropy (paper Equation 3);
//! - [`scoring`] — the `Corrob` rule (Equation 5);
//! - [`groups`] — fact groups keyed by vote signature (§5.1);
//! - [`index`] — the source→group inverted index behind IncEstimate's
//!   incremental scoring engine;
//! - [`metrics`] / [`stats`] — precision/recall/accuracy/F1, trust-score
//!   MSE (Equation 10), Hubdub error counts, and McNemar significance;
//! - [`corroborator`] — the [`Corroborator`](corroborator::Corroborator)
//!   trait implemented by every algorithm in `corroborate-algorithms`.
//!
//! ## Example
//!
//! ```
//! use corroborate_core::prelude::*;
//!
//! let mut b = DatasetBuilder::new();
//! let yelp = b.add_source("Yelp");
//! let ypages = b.add_source("Yellowpages");
//! let r1 = b.add_fact_with_truth("Danny's Grand Sea Palace", Label::False);
//! b.cast(yelp, r1, Vote::True).unwrap();
//! b.cast(ypages, r1, Vote::True).unwrap();
//! let ds = b.build().unwrap();
//!
//! // Two affirmative statements — and yet the fact is false: the paper's
//! // Example 1. Under uniform trust the Corrob score cannot see that.
//! let trust = TrustSnapshot::uniform(ds.n_sources(), 0.9).unwrap();
//! let p = corroborate_core::scoring::corrob_probability(
//!     ds.votes().votes_on(r1), &trust).unwrap();
//! assert!(p >= 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod corroborator;
pub mod dataset;
pub mod entropy;
pub mod error;
pub mod groups;
pub mod ids;
pub mod index;
pub mod io;
pub mod metrics;
pub mod questions;
pub mod scoring;
pub mod stats;
pub mod trust;
pub mod truth;
pub mod vote;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::corroborator::{CorroborationResult, Corroborator};
    pub use crate::dataset::{Dataset, DatasetBuilder};
    pub use crate::error::CoreError;
    pub use crate::ids::{FactId, QuestionId, SourceId};
    pub use crate::metrics::{ConfusionMatrix, QualitySummary};
    pub use crate::trust::{TrustSnapshot, TrustTrajectory};
    pub use crate::truth::{Label, TruthAssignment};
    pub use crate::vote::{Vote, VoteMatrix, VoteMatrixBuilder};
}

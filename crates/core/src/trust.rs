//! Trust scores: single-value snapshots and multi-value trajectories.
//!
//! The paper's key idea (§4) is that a source should not carry one global
//! trust score: IncEstimate maintains an *incrementally calculated* trust
//! score — a sequence of per-source values `σ_0(s), σ_1(s), …` where
//! `σ_i(s)` reflects the source's accuracy over the facts evaluated before
//! time point `t_i`. [`TrustSnapshot`] is one column of that sequence;
//! [`TrustTrajectory`] is the whole matrix (what Figure 2 plots), stored as
//! the `t_0` column plus the entries each later time point changed.

use crate::error::{check_probability, CoreError};
use crate::ids::SourceId;

/// Per-source trust values at one time point (or the single global trust of
/// a one-shot algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct TrustSnapshot {
    values: Vec<f64>,
}

impl TrustSnapshot {
    /// Uniform snapshot with every source at `value` (the paper's default
    /// initial trust is 0.9).
    ///
    /// # Errors
    /// [`CoreError::InvalidProbability`] if `value ∉ [0, 1]`.
    pub fn uniform(n_sources: usize, value: f64) -> Result<Self, CoreError> {
        check_probability("trust score", value)?;
        Ok(Self { values: vec![value; n_sources] })
    }

    /// Snapshot from explicit per-source values.
    ///
    /// # Errors
    /// [`CoreError::InvalidProbability`] on any value outside `[0, 1]`.
    pub fn from_values(values: Vec<f64>) -> Result<Self, CoreError> {
        for &v in &values {
            check_probability("trust score", v)?;
        }
        Ok(Self { values })
    }

    /// Number of sources covered.
    pub fn n_sources(&self) -> usize {
        self.values.len()
    }

    /// Trust of `source`.
    #[inline]
    pub fn trust(&self, source: SourceId) -> f64 {
        self.values[source.index()]
    }

    /// Mutable access used by algorithms updating scores in place.
    #[inline]
    pub fn set(&mut self, source: SourceId, value: f64) {
        debug_assert!((0.0..=1.0).contains(&value), "trust {value} out of [0,1] for {source}");
        self.values[source.index()] = value.clamp(0.0, 1.0);
    }

    /// Slice view, indexed by source id.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A *positive source* has trust in `(0.5, 1]` (§3.1): more correct
    /// votes than incorrect ones.
    pub fn is_positive(&self, source: SourceId) -> bool {
        self.trust(source) > 0.5
    }

    /// A *negative source* has trust in `[0, 0.5)`.
    pub fn is_negative(&self, source: SourceId) -> bool {
        self.trust(source) < 0.5
    }

    /// Largest absolute difference to another snapshot — the convergence
    /// residual used by iterative algorithms.
    ///
    /// # Panics
    /// Panics (debug assertion) if the snapshots cover different numbers of
    /// sources; they always come from the same dataset.
    pub fn max_abs_diff(&self, other: &TrustSnapshot) -> f64 {
        debug_assert_eq!(self.values.len(), other.values.len());
        self.values.iter().zip(&other.values).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// The full multi-value trust history of an IncEstimate run: one
/// [`TrustSnapshot`] per time point, starting with the initial snapshot at
/// `t_0`.
///
/// Stored as a change log: the `t_0` snapshot, the snapshot at the last
/// time point, and per later time point the `(source, value)` pairs that
/// differ from the time point before. A round moves the trust of the few
/// sources whose votes it evaluated, so the log grows with what each round
/// changed rather than with `rounds × sources`. [`at`](Self::at) and
/// [`iter`](Self::iter) rebuild owned snapshots by replaying the log.
#[derive(Debug, Clone)]
pub struct TrustTrajectory {
    /// Snapshot at `t_0` (empty while nothing is recorded).
    initial: TrustSnapshot,
    /// Snapshot at the last recorded time point.
    current: TrustSnapshot,
    /// Changed `(source, value)` pairs of every time point after `t_0`,
    /// concatenated in time order.
    changes: Vec<(SourceId, f64)>,
    /// `ends[t]` is the end of time point `t`'s run in `changes` (its start
    /// is `ends[t - 1]`; `t_0`'s run is empty). One entry per time point.
    ends: Vec<usize>,
}

impl Default for TrustTrajectory {
    fn default() -> Self {
        let empty = TrustSnapshot { values: Vec::new() };
        Self { initial: empty.clone(), current: empty, changes: Vec::new(), ends: Vec::new() }
    }
}

impl TrustTrajectory {
    /// Empty trajectory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the snapshot used at the next time point.
    ///
    /// # Panics
    /// If `snapshot` covers a different number of sources than the
    /// snapshots already recorded.
    pub fn push(&mut self, snapshot: TrustSnapshot) {
        if self.ends.is_empty() {
            self.initial = snapshot.clone();
            self.current = snapshot;
            self.ends.push(0);
            return;
        }
        assert_eq!(
            snapshot.n_sources(),
            self.current.n_sources(),
            "trajectory snapshots must cover the same sources"
        );
        let changed = snapshot.values.iter().enumerate().map(|(i, &v)| (SourceId::new(i), v));
        self.push_changes(changed);
    }

    /// Appends a time point whose snapshot is the last one with `changes`
    /// applied — O(|changes|), the way an incremental engine records a
    /// round. Pairs whose value equals the current one are not logged.
    ///
    /// # Panics
    /// If the trajectory is empty (there is no snapshot to change).
    pub fn push_changes(&mut self, changes: impl IntoIterator<Item = (SourceId, f64)>) {
        assert!(!self.ends.is_empty(), "push_changes needs a t_0 snapshot");
        self.apply(changes);
        self.ends.push(self.changes.len());
    }

    /// Applies `changes` to the last time point in place instead of adding
    /// one (knowledge injected *at* `t_i`, such as a seeded label). On a
    /// trajectory holding only `t_0`, the `t_0` snapshot itself changes.
    ///
    /// # Panics
    /// If the trajectory is empty.
    pub fn amend_last(&mut self, changes: impl IntoIterator<Item = (SourceId, f64)>) {
        assert!(!self.ends.is_empty(), "amend_last needs a recorded time point");
        if self.ends.len() == 1 {
            for (s, v) in changes {
                self.initial.set(s, v);
                self.current.set(s, v);
            }
            return;
        }
        self.apply(changes);
        *self.ends.last_mut().expect("non-empty") = self.changes.len();
    }

    /// Sets each changed value on the current snapshot and logs it.
    fn apply(&mut self, changes: impl IntoIterator<Item = (SourceId, f64)>) {
        for (s, v) in changes {
            if self.current.trust(s).to_bits() != v.to_bits() {
                self.current.set(s, v);
                self.changes.push((s, self.current.trust(s)));
            }
        }
    }

    /// Number of recorded time points.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Snapshot at time point `t` (0-based), rebuilt from the log.
    pub fn at(&self, t: usize) -> Option<TrustSnapshot> {
        if t + 1 == self.len() {
            return Some(self.current.clone());
        }
        let end = *self.ends.get(t)?;
        let mut snapshot = self.initial.clone();
        for &(s, v) in &self.changes[..end] {
            snapshot.set(s, v);
        }
        Some(snapshot)
    }

    /// The last snapshot — the trust scores "at the end of the last time
    /// point, which reflects trustworthiness over the entire dataset"
    /// (§6.2.3, used for the paper's Table 5 MSE).
    pub fn last(&self) -> Option<&TrustSnapshot> {
        (!self.is_empty()).then_some(&self.current)
    }

    /// The trust series of one source across all time points — one line of
    /// the paper's Figure 2.
    pub fn series(&self, source: SourceId) -> Vec<f64> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut value = self.initial.trust(source);
        let mut start = 0;
        self.ends
            .iter()
            .map(|&end| {
                for &(s, v) in &self.changes[start..end] {
                    if s == source {
                        value = v;
                    }
                }
                start = end;
                value
            })
            .collect()
    }

    /// Snapshots in time order, each rebuilt from the log (one replay
    /// step per time point).
    pub fn iter(&self) -> impl Iterator<Item = TrustSnapshot> + '_ {
        let mut snapshot = self.initial.clone();
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            for &(s, v) in &self.changes[start..end] {
                snapshot.set(s, v);
            }
            start = end;
            snapshot.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> SourceId {
        SourceId::new(i)
    }

    #[test]
    fn uniform_snapshot() {
        let s = TrustSnapshot::uniform(3, 0.9).unwrap();
        assert_eq!(s.n_sources(), 3);
        assert_eq!(s.trust(sid(2)), 0.9);
        assert!(TrustSnapshot::uniform(1, 1.2).is_err());
    }

    #[test]
    fn from_values_validates() {
        assert!(TrustSnapshot::from_values(vec![0.0, 1.0, 0.5]).is_ok());
        assert!(TrustSnapshot::from_values(vec![0.5, -0.1]).is_err());
        assert!(TrustSnapshot::from_values(vec![f64::NAN]).is_err());
    }

    #[test]
    fn positive_negative_classification_matches_section_3_1() {
        let s = TrustSnapshot::from_values(vec![0.9, 0.5, 0.1]).unwrap();
        assert!(s.is_positive(sid(0)));
        assert!(!s.is_positive(sid(1)) && !s.is_negative(sid(1)));
        assert!(s.is_negative(sid(2)));
    }

    #[test]
    fn set_clamps_in_release_mode() {
        let mut s = TrustSnapshot::uniform(1, 0.5).unwrap();
        s.set(sid(0), 0.75);
        assert_eq!(s.trust(sid(0)), 0.75);
    }

    #[test]
    fn residual_is_max_abs_componentwise_diff() {
        let a = TrustSnapshot::from_values(vec![0.2, 0.9]).unwrap();
        let b = TrustSnapshot::from_values(vec![0.25, 0.6]).unwrap();
        assert!((a.max_abs_diff(&b) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn trajectory_records_series_per_source() {
        let mut tr = TrustTrajectory::new();
        tr.push(TrustSnapshot::from_values(vec![0.9, 0.9]).unwrap());
        tr.push(TrustSnapshot::from_values(vec![1.0, 0.0]).unwrap());
        tr.push(TrustSnapshot::from_values(vec![0.67, 0.7]).unwrap());
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.series(sid(1)), vec![0.9, 0.0, 0.7]);
        assert_eq!(tr.last().unwrap().trust(sid(0)), 0.67);
        assert_eq!(tr.at(1).unwrap().trust(sid(0)), 1.0);
        assert!(tr.at(3).is_none());
    }

    #[test]
    fn change_log_replays_every_time_point() {
        let snap = |v: &[f64]| TrustSnapshot::from_values(v.to_vec()).unwrap();
        let mut tr = TrustTrajectory::new();
        assert!(tr.is_empty() && tr.last().is_none() && tr.at(0).is_none());
        assert!(tr.series(sid(0)).is_empty() && tr.iter().next().is_none());
        tr.push(snap(&[0.9, 0.9, 0.9]));
        // Seeding at t0 rewrites t0 itself.
        tr.amend_last([(sid(2), 0.4)]);
        tr.push_changes([(sid(0), 1.0), (sid(1), 0.9)]); // s1 unchanged: not logged
        tr.push_changes([]);
        tr.push_changes([(sid(1), 0.2)]);
        // Seeding between rounds amends the last time point in place; a
        // source changed twice keeps its later value.
        tr.amend_last([(sid(0), 0.5), (sid(1), 0.3)]);
        tr.push(snap(&[0.5, 0.3, 0.6]));
        let expected =
            [[0.9, 0.9, 0.4], [1.0, 0.9, 0.4], [1.0, 0.9, 0.4], [0.5, 0.3, 0.4], [0.5, 0.3, 0.6]];
        assert_eq!(tr.len(), expected.len());
        assert_eq!(tr.changes.len(), 1 + 1 + 2 + 1, "only changed pairs are logged");
        for (t, want) in expected.iter().enumerate() {
            assert_eq!(tr.at(t).unwrap().values(), want, "at({t})");
        }
        assert!(tr.at(expected.len()).is_none());
        let replayed: Vec<Vec<f64>> = tr.iter().map(|s| s.values().to_vec()).collect();
        assert_eq!(replayed, expected.map(|r| r.to_vec()));
        for s in 0..3 {
            let want: Vec<f64> = expected.iter().map(|r| r[s]).collect();
            assert_eq!(tr.series(sid(s)), want, "series(s{s})");
        }
        assert_eq!(tr.last().unwrap().values(), &expected[4]);
    }
}

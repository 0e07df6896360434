//! Votes and the sparse vote matrix.
//!
//! A *vote* is a source's statement about a fact: affirmative (`T`),
//! disagreeing (`F`), or absent (`-`, the source says nothing). The paper's
//! central regime is one where almost every fact receives only `T` votes.
//!
//! [`VoteMatrix`] stores the votes sparsely in both orientations —
//! fact→votes and source→votes — because corroboration algorithms alternate
//! between "score each fact from its sources" and "score each source from
//! its facts".

use crate::error::CoreError;
use crate::ids::{FactId, SourceId};

/// A single source's statement about a single fact.
///
/// The paper's Equation (1): `T` if the source agrees, `F` if it disagrees.
/// Absent votes are represented by *absence from the matrix*, not by a
/// variant, so iteration never visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vote {
    /// Affirmative statement: the source supports the fact being true.
    True,
    /// Disagreeing statement: the source claims the fact is false.
    False,
}

impl Vote {
    /// Returns the vote supporting the opposite polarity.
    #[inline]
    pub fn negated(self) -> Self {
        match self {
            Vote::True => Vote::False,
            Vote::False => Vote::True,
        }
    }

    /// `true` for an affirmative (`T`) vote.
    #[inline]
    pub fn is_affirmative(self) -> bool {
        matches!(self, Vote::True)
    }

    /// The polarity as a boolean (`T` → `true`).
    #[inline]
    pub fn as_bool(self) -> bool {
        self.is_affirmative()
    }

    /// Builds a vote from a boolean polarity.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Vote::True
        } else {
            Vote::False
        }
    }

    /// One-character representation used by debug dumps (`T` / `F`).
    #[inline]
    pub fn symbol(self) -> char {
        match self {
            Vote::True => 'T',
            Vote::False => 'F',
        }
    }
}

/// A `(source, vote)` posting attached to a fact.
///
/// Ordered by `(source, vote)` — the canonical signature order, which makes
/// signature slices directly comparable without rebuilding key tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceVote {
    /// The source casting the vote.
    pub source: SourceId,
    /// The vote cast.
    pub vote: Vote,
}

/// A `(fact, vote)` posting attached to a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactVote {
    /// The fact voted on.
    pub fact: FactId,
    /// The vote cast.
    pub vote: Vote,
}

/// Sparse matrix of votes, indexed both by fact and by source.
///
/// Construct with [`VoteMatrixBuilder`]; the built matrix is immutable,
/// which lets algorithms share it freely (`&VoteMatrix`) without locking.
///
/// Invariants (enforced by the builder):
/// - postings within a fact are sorted by source id and deduplicated;
/// - postings within a source are sorted by fact id;
/// - both orientations describe the same set of votes.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteMatrix {
    n_sources: usize,
    n_facts: usize,
    by_fact: Vec<Vec<SourceVote>>,
    by_source: Vec<Vec<FactVote>>,
    n_votes: usize,
}

impl VoteMatrix {
    /// Number of sources (rows of the conceptual dense matrix).
    #[inline]
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// Number of facts (columns of the conceptual dense matrix).
    #[inline]
    pub fn n_facts(&self) -> usize {
        self.n_facts
    }

    /// Total number of non-absent votes.
    #[inline]
    pub fn n_votes(&self) -> usize {
        self.n_votes
    }

    /// The votes cast on `fact`, sorted by source id.
    #[inline]
    pub fn votes_on(&self, fact: FactId) -> &[SourceVote] {
        &self.by_fact[fact.index()]
    }

    /// The votes cast by `source`, sorted by fact id.
    #[inline]
    pub fn votes_by(&self, source: SourceId) -> &[FactVote] {
        &self.by_source[source.index()]
    }

    /// The vote of `source` on `fact`, or `None` if the source is silent.
    pub fn vote(&self, source: SourceId, fact: FactId) -> Option<Vote> {
        let postings = &self.by_fact[fact.index()];
        postings.binary_search_by_key(&source, |sv| sv.source).ok().map(|i| postings[i].vote)
    }

    /// Iterator over all fact ids.
    pub fn facts(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.n_facts).map(FactId::new)
    }

    /// Iterator over all source ids.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        (0..self.n_sources).map(SourceId::new)
    }

    /// `true` if `fact` received only affirmative votes (and at least one).
    ///
    /// Facts in the paper's set `F*` satisfy this predicate.
    pub fn is_affirmative_only(&self, fact: FactId) -> bool {
        let votes = self.votes_on(fact);
        !votes.is_empty() && votes.iter().all(|sv| sv.vote.is_affirmative())
    }

    /// Number of facts in `F*` (affirmative-only facts).
    pub fn affirmative_only_count(&self) -> usize {
        self.facts().filter(|&f| self.is_affirmative_only(f)).count()
    }

    /// Counts `(n_true, n_false)` votes on `fact`.
    pub fn tally(&self, fact: FactId) -> (usize, usize) {
        let mut t = 0;
        let mut f = 0;
        for sv in self.votes_on(fact) {
            match sv.vote {
                Vote::True => t += 1,
                Vote::False => f += 1,
            }
        }
        (t, f)
    }

    /// Fraction of a source's votes that are affirmative; `None` when the
    /// source casts no votes.
    pub fn affirmative_rate(&self, source: SourceId) -> Option<f64> {
        let votes = self.votes_by(source);
        if votes.is_empty() {
            return None;
        }
        let t = votes.iter().filter(|fv| fv.vote.is_affirmative()).count();
        Some(t as f64 / votes.len() as f64)
    }

    /// The canonical *signature* of a fact: its `(source, vote)` postings.
    ///
    /// Two facts with equal signatures receive votes from exactly the same
    /// sources with the same polarities; the IncEstimate algorithms group
    /// facts by this signature.
    pub fn signature(&self, fact: FactId) -> &[SourceVote] {
        self.votes_on(fact)
    }
}

/// Builder for [`VoteMatrix`].
///
/// ```
/// use corroborate_core::vote::{VoteMatrixBuilder, Vote};
/// use corroborate_core::ids::{SourceId, FactId};
///
/// let mut b = VoteMatrixBuilder::new(2, 3);
/// b.cast(SourceId::new(0), FactId::new(1), Vote::True).unwrap();
/// b.cast(SourceId::new(1), FactId::new(1), Vote::False).unwrap();
/// let m = b.build();
/// assert_eq!(m.n_votes(), 2);
/// assert_eq!(m.tally(FactId::new(1)), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct VoteMatrixBuilder {
    n_sources: usize,
    by_fact: Vec<Vec<SourceVote>>,
}

impl VoteMatrixBuilder {
    /// Creates an empty builder for `n_sources × n_facts`.
    pub fn new(n_sources: usize, n_facts: usize) -> Self {
        Self { n_sources, by_fact: vec![Vec::new(); n_facts] }
    }

    /// Widens the matrix by one source.
    pub(crate) fn add_source(&mut self) {
        self.n_sources += 1;
    }

    /// Widens the matrix by one fact with no votes yet.
    pub(crate) fn add_fact(&mut self) {
        self.by_fact.push(Vec::new());
    }

    /// Records a vote. Casting twice for the same `(source, fact)` pair
    /// replaces the earlier vote (last writer wins), mirroring a crawler
    /// that re-observes a listing.
    ///
    /// # Errors
    /// Returns [`CoreError::IdOutOfRange`] if either id is outside the
    /// dimensions given at construction.
    pub fn cast(&mut self, source: SourceId, fact: FactId, vote: Vote) -> Result<(), CoreError> {
        if source.index() >= self.n_sources {
            return Err(CoreError::IdOutOfRange {
                kind: "source",
                index: source.index(),
                len: self.n_sources,
            });
        }
        if fact.index() >= self.by_fact.len() {
            return Err(CoreError::IdOutOfRange {
                kind: "fact",
                index: fact.index(),
                len: self.by_fact.len(),
            });
        }
        let postings = &mut self.by_fact[fact.index()];
        if let Some(existing) = postings.iter_mut().find(|sv| sv.source == source) {
            existing.vote = vote;
        } else {
            postings.push(SourceVote { source, vote });
        }
        Ok(())
    }

    /// Number of votes currently recorded.
    pub fn n_votes(&self) -> usize {
        self.by_fact.iter().map(Vec::len).sum()
    }

    /// Finalises the matrix, establishing both orientations and the sorted
    /// postings invariant.
    pub fn build(self) -> VoteMatrix {
        let mut by_fact = self.by_fact;
        let mut by_source: Vec<Vec<FactVote>> = vec![Vec::new(); self.n_sources];
        let mut n_votes = 0;
        for (fi, postings) in by_fact.iter_mut().enumerate() {
            postings.sort_by_key(|sv| sv.source);
            n_votes += postings.len();
            for sv in postings.iter() {
                by_source[sv.source.index()]
                    .push(FactVote { fact: FactId::new(fi), vote: sv.vote });
            }
        }
        // by_source postings are already sorted by fact because we visited
        // facts in increasing order.
        VoteMatrix {
            n_sources: self.n_sources,
            n_facts: by_fact.len(),
            by_fact,
            by_source,
            n_votes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> SourceId {
        SourceId::new(i)
    }
    fn fid(i: usize) -> FactId {
        FactId::new(i)
    }

    #[test]
    fn vote_negation_and_bool_roundtrip() {
        assert_eq!(Vote::True.negated(), Vote::False);
        assert_eq!(Vote::False.negated(), Vote::True);
        assert_eq!(Vote::from_bool(Vote::True.as_bool()), Vote::True);
        assert_eq!(Vote::from_bool(Vote::False.as_bool()), Vote::False);
        assert_eq!(Vote::True.symbol(), 'T');
        assert_eq!(Vote::False.symbol(), 'F');
    }

    #[test]
    fn builder_rejects_out_of_range_ids() {
        let mut b = VoteMatrixBuilder::new(1, 1);
        assert!(b.cast(sid(1), fid(0), Vote::True).is_err());
        assert!(b.cast(sid(0), fid(1), Vote::True).is_err());
        assert!(b.cast(sid(0), fid(0), Vote::True).is_ok());
    }

    #[test]
    fn last_vote_wins_on_recast() {
        let mut b = VoteMatrixBuilder::new(1, 1);
        b.cast(sid(0), fid(0), Vote::True).unwrap();
        b.cast(sid(0), fid(0), Vote::False).unwrap();
        let m = b.build();
        assert_eq!(m.n_votes(), 1);
        assert_eq!(m.vote(sid(0), fid(0)), Some(Vote::False));
    }

    #[test]
    fn both_orientations_agree() {
        let mut b = VoteMatrixBuilder::new(3, 4);
        b.cast(sid(2), fid(0), Vote::True).unwrap();
        b.cast(sid(0), fid(0), Vote::False).unwrap();
        b.cast(sid(1), fid(3), Vote::True).unwrap();
        let m = b.build();
        // by-fact postings sorted by source.
        assert_eq!(
            m.votes_on(fid(0)),
            &[
                SourceVote { source: sid(0), vote: Vote::False },
                SourceVote { source: sid(2), vote: Vote::True },
            ]
        );
        // by-source orientation contains the same votes.
        assert_eq!(m.votes_by(sid(2)), &[FactVote { fact: fid(0), vote: Vote::True }]);
        assert_eq!(m.vote(sid(1), fid(3)), Some(Vote::True));
        assert_eq!(m.vote(sid(1), fid(0)), None);
    }

    #[test]
    fn affirmative_only_classification() {
        let mut b = VoteMatrixBuilder::new(2, 3);
        b.cast(sid(0), fid(0), Vote::True).unwrap();
        b.cast(sid(1), fid(0), Vote::True).unwrap();
        b.cast(sid(0), fid(1), Vote::True).unwrap();
        b.cast(sid(1), fid(1), Vote::False).unwrap();
        // fid(2) has no votes.
        let m = b.build();
        assert!(m.is_affirmative_only(fid(0)));
        assert!(!m.is_affirmative_only(fid(1)));
        assert!(!m.is_affirmative_only(fid(2)));
        assert_eq!(m.affirmative_only_count(), 1);
    }

    #[test]
    fn tally_counts_polarities() {
        let mut b = VoteMatrixBuilder::new(3, 1);
        b.cast(sid(0), fid(0), Vote::True).unwrap();
        b.cast(sid(1), fid(0), Vote::False).unwrap();
        b.cast(sid(2), fid(0), Vote::False).unwrap();
        let m = b.build();
        assert_eq!(m.tally(fid(0)), (1, 2));
    }

    #[test]
    fn affirmative_rate_handles_silent_sources() {
        let mut b = VoteMatrixBuilder::new(2, 2);
        b.cast(sid(0), fid(0), Vote::True).unwrap();
        b.cast(sid(0), fid(1), Vote::False).unwrap();
        let m = b.build();
        assert_eq!(m.affirmative_rate(sid(0)), Some(0.5));
        assert_eq!(m.affirmative_rate(sid(1)), None);
    }
}

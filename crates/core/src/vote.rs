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
/// Each orientation is one postings array in compressed-sparse-row form:
/// row `i` (a fact, or a source) is `postings[ends[i - 1]..ends[i]]`, from
/// 0 for the first row. A million-fact world is then four allocations, not
/// one per fact and one per source.
///
/// Invariants (enforced by the builder):
/// - postings within a fact are sorted by source id and deduplicated;
/// - postings within a source are sorted by fact id;
/// - both orientations describe the same set of votes.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteMatrix {
    fact_ends: Vec<usize>,
    by_fact: Vec<SourceVote>,
    source_ends: Vec<usize>,
    by_source: Vec<FactVote>,
}

/// Row `i` of a CSR orientation with per-row end offsets `ends`.
#[inline]
fn row<'a, T>(ends: &[usize], postings: &'a [T], i: usize) -> &'a [T] {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    &postings[start..ends[i]]
}

impl VoteMatrix {
    /// Number of sources (rows of the conceptual dense matrix).
    #[inline]
    pub fn n_sources(&self) -> usize {
        self.source_ends.len()
    }

    /// Number of facts (columns of the conceptual dense matrix).
    #[inline]
    pub fn n_facts(&self) -> usize {
        self.fact_ends.len()
    }

    /// Total number of non-absent votes.
    #[inline]
    pub fn n_votes(&self) -> usize {
        self.by_fact.len()
    }

    /// The votes cast on `fact`, sorted by source id.
    #[inline]
    pub fn votes_on(&self, fact: FactId) -> &[SourceVote] {
        row(&self.fact_ends, &self.by_fact, fact.index())
    }

    /// The votes cast by `source`, sorted by fact id.
    #[inline]
    pub fn votes_by(&self, source: SourceId) -> &[FactVote] {
        row(&self.source_ends, &self.by_source, source.index())
    }

    /// The vote of `source` on `fact`, or `None` if the source is silent.
    pub fn vote(&self, source: SourceId, fact: FactId) -> Option<Vote> {
        let postings = self.votes_on(fact);
        postings.binary_search_by_key(&source, |sv| sv.source).ok().map(|i| postings[i].vote)
    }

    /// Iterator over all fact ids.
    pub fn facts(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.n_facts()).map(FactId::new)
    }

    /// Iterator over all source ids.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        (0..self.n_sources()).map(SourceId::new)
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
/// Casts are appended to a flat list in arrival order; [`Self::build`]
/// sorts them into both orientations at once.
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
    n_facts: usize,
    /// Casts in arrival order: the `sealed` lists first, then `casts`, the
    /// one new casts go to. An appended builder's list joins whole.
    sealed: Vec<Vec<(FactId, SourceVote)>>,
    casts: Vec<(FactId, SourceVote)>,
}

impl VoteMatrixBuilder {
    /// Creates an empty builder for `n_sources × n_facts`.
    pub fn new(n_sources: usize, n_facts: usize) -> Self {
        Self { n_sources, n_facts, sealed: Vec::new(), casts: Vec::new() }
    }

    /// Widens the matrix by one source.
    pub(crate) fn add_source(&mut self) {
        self.n_sources += 1;
    }

    /// Widens the matrix by one fact with no votes yet.
    pub(crate) fn add_fact(&mut self) {
        self.n_facts += 1;
    }

    /// Records a vote. Casting twice for the same `(source, fact)` pair
    /// replaces the earlier vote (last writer wins), mirroring a crawler
    /// that re-observes a listing.
    ///
    /// The builder holds one 12-byte entry per cast, recasts included,
    /// until [`Self::build`] resolves them.
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
        if fact.index() >= self.n_facts {
            return Err(CoreError::IdOutOfRange {
                kind: "fact",
                index: fact.index(),
                len: self.n_facts,
            });
        }
        self.casts.push((fact, SourceVote { source, vote }));
        Ok(())
    }

    /// Reserves room for `additional` more casts.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.casts.reserve_exact(additional);
    }

    /// Every cast list, in arrival order.
    fn lists_mut(&mut self) -> impl Iterator<Item = &mut Vec<(FactId, SourceVote)>> {
        self.sealed.iter_mut().chain([&mut self.casts])
    }

    /// Appends the casts of `tail` after this builder's, renaming in place
    /// its source `s` to `sources[s]` and its fact `f` to `first + f`, and
    /// widens the matrix to `first + tail`'s facts. The tail's lists join
    /// whole, without a copy. The sources must be registered here already.
    pub(crate) fn append(
        &mut self,
        mut tail: VoteMatrixBuilder,
        sources: &[SourceId],
        first: usize,
    ) {
        for (fact, sv) in tail.lists_mut().flatten() {
            *fact = FactId::new(first + fact.index());
            sv.source = sources[sv.source.index()];
        }
        self.sealed.push(std::mem::replace(&mut self.casts, tail.casts));
        self.sealed.extend(tail.sealed);
        self.n_facts = first + tail.n_facts;
    }

    /// Renames the fact of every cast through `ids` (old id → new id) and
    /// narrows the matrix to `n_facts`. Casts keep their arrival order, so
    /// last writer still wins at [`Self::build`].
    pub(crate) fn remap_facts(&mut self, ids: &[u32], n_facts: usize) {
        for (fact, _) in self.lists_mut().flatten() {
            *fact = FactId::new(ids[fact.index()] as usize);
        }
        self.n_facts = n_facts;
    }

    /// Finalises the matrix, establishing both orientations and the sorted
    /// postings invariant:
    /// 1. a stable counting sort by fact, so each fact's casts keep their
    ///    arrival order;
    /// 2. each fact's row sorted by source, keeping the last cast per
    ///    source (last writer wins);
    /// 3. a counting sort of the rows by source, which visits facts in
    ///    increasing order, so each source's postings come out sorted.
    pub fn build(self) -> VoteMatrix {
        let lists = || self.sealed.iter().chain([&self.casts]);
        let mut fact_ends =
            counting_starts(self.n_facts, lists().flatten().map(|(f, _)| f.index()));
        let n_casts = lists().map(Vec::len).sum();
        let mut by_fact = vec![SourceVote { source: SourceId::new(0), vote: Vote::True }; n_casts];
        for (fact, sv) in self.sealed.into_iter().chain([self.casts]).flatten() {
            let slot = &mut fact_ends[fact.index()];
            by_fact[*slot] = sv;
            *slot += 1;
        }

        // Rows shrink as recasts collapse, so compact them leftwards in
        // place: the write cursor never passes the read cursor.
        let (mut start, mut kept) = (0, 0);
        for end in &mut fact_ends {
            by_fact[start..*end].sort_by_key(|sv| sv.source);
            let row_start = kept;
            for read in start..*end {
                let sv = by_fact[read];
                if kept > row_start && by_fact[kept - 1].source == sv.source {
                    by_fact[kept - 1] = sv;
                } else {
                    by_fact[kept] = sv;
                    kept += 1;
                }
            }
            start = *end;
            *end = kept;
        }
        by_fact.truncate(kept);

        let mut source_ends =
            counting_starts(self.n_sources, by_fact.iter().map(|sv| sv.source.index()));
        let mut by_source =
            vec![FactVote { fact: FactId::new(0), vote: Vote::True }; by_fact.len()];
        let mut start = 0;
        for (fi, &end) in fact_ends.iter().enumerate() {
            for sv in &by_fact[start..end] {
                let slot = &mut source_ends[sv.source.index()];
                by_source[*slot] = FactVote { fact: FactId::new(fi), vote: sv.vote };
                *slot += 1;
            }
            start = end;
        }
        VoteMatrix { fact_ends, by_fact, source_ends, by_source }
    }
}

/// The first slot of each of `n_rows` rows, for a counting sort of entries
/// whose rows are `rows`. Placing an entry advances its row's slot, so once
/// every entry is placed each slot holds its row's end.
pub(crate) fn counting_starts(n_rows: usize, rows: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut starts = vec![0usize; n_rows];
    for r in rows {
        starts[r] += 1;
    }
    let mut total = 0;
    for slot in &mut starts {
        let count = *slot;
        *slot = total;
        total += count;
    }
    starts
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

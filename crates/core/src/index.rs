//! Source→group inverted index over fact groups.
//!
//! The IncEstimate hot path repeatedly asks "which fact groups does source
//! `s` vote on?" — the spillover term of Equation 9 only changes the Corrob
//! probability of groups sharing a source with the evaluated group, and a
//! trust update only dirties the probabilities of groups the re-scored
//! sources vote on. Scanning every remaining group per query makes both
//! operations O(G·|sig|²); this index answers them in O(deg(s)).
//!
//! Postings are built once from the canonical group list; groups keep their
//! index for the lifetime of a run (they drain to empty rather than being
//! removed), so a posting's group id stays valid. When groups drain, owners
//! call [`SourceGroupIndex::remove_groups`] to drop their postings: a
//! group's signature names exactly the sources holding one, so compaction
//! costs the degrees of those sources, not a pass over every posting.
//! Callers still defensively skip groups with no remaining members.

use crate::groups::FactGroup;
use crate::ids::SourceId;
use crate::vote::Vote;

/// One posting: a group a source votes on, with the vote's polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPosting {
    /// Index of the group in the canonical group list.
    pub group: usize,
    /// The polarity the source asserts for every fact of that group.
    pub vote: Vote,
}

/// Inverted index from sources to the fact groups they vote on.
///
/// Built from a canonical [`FactGroup`] list; postings per source are sorted
/// ascending by group index (construction visits groups in order).
#[derive(Debug, Clone, Default)]
pub struct SourceGroupIndex {
    postings: Vec<Vec<GroupPosting>>,
}

impl SourceGroupIndex {
    /// Builds the index over `groups` for a universe of `n_sources` sources.
    ///
    /// Signatures reference only sources below `n_sources`; out-of-range
    /// sources would indicate a corrupted dataset and panic via indexing.
    pub fn build(groups: &[FactGroup], n_sources: usize) -> Self {
        let mut postings = vec![Vec::new(); n_sources];
        for (gi, group) in groups.iter().enumerate() {
            for sv in &group.signature {
                postings[sv.source.index()].push(GroupPosting { group: gi, vote: sv.vote });
            }
        }
        Self { postings }
    }

    /// The groups `source` votes on, ascending by group index.
    #[inline]
    pub fn groups_of(&self, source: SourceId) -> &[GroupPosting] {
        &self.postings[source.index()]
    }

    /// Number of groups `source` votes on (the source's index degree).
    #[inline]
    pub fn degree(&self, source: SourceId) -> usize {
        self.postings[source.index()].len()
    }

    /// Number of sources covered.
    #[inline]
    pub fn n_sources(&self) -> usize {
        self.postings.len()
    }

    /// Total number of postings (`Σ_s deg(s)` = Σ_g |sig(g)|).
    pub fn n_postings(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// Drops the postings of the drained groups `dead` (indices into the
    /// `groups` list the index was built from), preserving the per-source
    /// sort order, and returns the number of postings removed.
    ///
    /// Each dead group's signature names the sources holding its postings,
    /// so only those lists are visited, each in one merge pass —
    /// O(Σ|sig| log Σ|sig| + Σ deg) over the affected sources. Groups drain
    /// monotonically over an IncEstimate run, so compacting each round's
    /// drained groups keeps posting walks proportional to the *live*
    /// degree. Dead groups contribute nothing to spillover or dirty
    /// tracking, so removal never changes results. The removal count feeds
    /// compaction telemetry.
    pub fn remove_groups(&mut self, groups: &[FactGroup], dead: &[usize]) -> usize {
        let mut pairs: Vec<(usize, usize)> = dead
            .iter()
            .flat_map(|&gi| groups[gi].signature.iter().map(move |sv| (sv.source.index(), gi)))
            .collect();
        pairs.sort_unstable();
        let mut removed = 0;
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let posts = &mut self.postings[run[0].0];
            let before = posts.len();
            let mut k = 0;
            posts.retain(|p| {
                while k < run.len() && run[k].1 < p.group {
                    k += 1;
                }
                !(k < run.len() && run[k].1 == p.group)
            });
            removed += before - posts.len();
        }
        removed
    }

    /// Collects the distinct groups touched by any of `sources`, sorted
    /// ascending — the candidate set the spillover sum iterates.
    pub fn touched_groups(&self, sources: impl IntoIterator<Item = SourceId>) -> Vec<usize> {
        let mut touched: Vec<usize> =
            sources.into_iter().flat_map(|s| self.groups_of(s).iter().map(|p| p.group)).collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::group_by_signature;
    use crate::ids::FactId;
    use crate::vote::VoteMatrixBuilder;

    fn sid(i: usize) -> SourceId {
        SourceId::new(i)
    }
    fn fid(i: usize) -> FactId {
        FactId::new(i)
    }

    fn sample_groups() -> Vec<FactGroup> {
        // f0,f1: {s0 T, s1 T}; f2: {s0 T, s1 F}; f3: no votes; f4: {s1 T}.
        let mut b = VoteMatrixBuilder::new(3, 5);
        b.cast(sid(0), fid(0), Vote::True).unwrap();
        b.cast(sid(1), fid(0), Vote::True).unwrap();
        b.cast(sid(0), fid(1), Vote::True).unwrap();
        b.cast(sid(1), fid(1), Vote::True).unwrap();
        b.cast(sid(0), fid(2), Vote::True).unwrap();
        b.cast(sid(1), fid(2), Vote::False).unwrap();
        b.cast(sid(1), fid(4), Vote::True).unwrap();
        let m = b.build();
        let facts: Vec<FactId> = m.facts().collect();
        group_by_signature(&m, &facts)
    }

    #[test]
    fn postings_cover_every_signature_entry() {
        let groups = sample_groups();
        let index = SourceGroupIndex::build(&groups, 3);
        assert_eq!(index.n_sources(), 3);
        let total_sig: usize = groups.iter().map(|g| g.signature.len()).sum();
        assert_eq!(index.n_postings(), total_sig);
        // Every posting round-trips to a signature entry with the same vote.
        for s in 0..3 {
            for p in index.groups_of(sid(s)) {
                let sv = groups[p.group]
                    .signature
                    .iter()
                    .find(|sv| sv.source == sid(s))
                    .expect("posting matches a signature entry");
                assert_eq!(sv.vote, p.vote);
            }
        }
    }

    #[test]
    fn postings_are_sorted_and_degrees_match() {
        let groups = sample_groups();
        let index = SourceGroupIndex::build(&groups, 3);
        for s in 0..3 {
            let posts = index.groups_of(sid(s));
            assert!(posts.windows(2).all(|w| w[0].group < w[1].group));
            assert_eq!(index.degree(sid(s)), posts.len());
        }
        // s2 casts no votes.
        assert_eq!(index.degree(sid(2)), 0);
    }

    #[test]
    fn touched_groups_unions_sorted_dedup() {
        let groups = sample_groups();
        let index = SourceGroupIndex::build(&groups, 3);
        let touched = index.touched_groups([sid(0), sid(1)]);
        // Exactly the groups with a non-empty signature.
        let expected: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.signature.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(touched, expected);
        assert!(index.touched_groups([sid(2)]).is_empty());
    }

    #[test]
    fn remove_groups_drops_exactly_the_dead_postings_in_order() {
        let groups = sample_groups();
        let mut index = SourceGroupIndex::build(&groups, 3);
        // Drop the {s0 T, s1 T} group (first posting of both sources) and
        // the {s1 T} group (s1's last posting).
        let first = index.groups_of(sid(0))[0].group;
        let last = index.groups_of(sid(1)).last().unwrap().group;
        let before = index.n_postings();
        let removed = index.remove_groups(&groups, &[first, last]);
        assert_eq!(removed, 3);
        assert_eq!(index.n_postings(), before - 3);
        for s in 0..3 {
            let posts = index.groups_of(sid(s));
            assert!(posts.iter().all(|p| p.group != first && p.group != last));
            assert!(posts.windows(2).all(|w| w[0].group < w[1].group));
        }
        let rebuilt: Vec<usize> = index.touched_groups([sid(0), sid(1)]);
        let expected: Vec<usize> = (0..groups.len())
            .filter(|&g| g != first && g != last && !groups[g].signature.is_empty())
            .collect();
        assert_eq!(rebuilt, expected);
        assert_eq!(index.remove_groups(&groups, &[]), 0);
    }

    #[test]
    fn empty_universe_is_fine() {
        let index = SourceGroupIndex::build(&[], 0);
        assert_eq!(index.n_postings(), 0);
        assert_eq!(index.n_sources(), 0);
    }
}

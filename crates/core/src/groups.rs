//! Fact groups: facts sharing an identical vote signature.
//!
//! "We first group unevaluated facts based on the sources of the votes.
//! Facts in the same group receive votes from the same set of sources"
//! (§5.1). The group is the unit IncEstimate's selection strategies rank and
//! evaluate; two facts with equal signatures necessarily receive the same
//! Corrob probability under any trust snapshot.

use std::collections::HashMap;

use crate::ids::FactId;
use crate::vote::{SourceVote, VoteMatrix};

/// A group of facts with an identical `(source, vote)` signature.
#[derive(Debug, Clone, PartialEq)]
pub struct FactGroup {
    /// The shared signature, sorted by source id (canonical form).
    pub signature: Vec<SourceVote>,
    /// Members, sorted by fact id.
    pub facts: Vec<FactId>,
}

impl FactGroup {
    /// Number of member facts (the paper's `size(FG)`).
    pub fn size(&self) -> usize {
        self.facts.len()
    }
}

/// Groups `facts` by vote signature.
///
/// Output is deterministic: groups are sorted by canonical signature
/// (lexicographically by `(source, vote)`), members by fact id. Facts with
/// empty signatures (no votes) form their own group, placed first.
pub fn group_by_signature(matrix: &VoteMatrix, facts: &[FactId]) -> Vec<FactGroup> {
    // Grown from empty: worlds have far fewer signatures than facts (1,570
    // for 755k facts), and a table sized for every fact is a sparse one
    // that each lookup misses cache in.
    let mut map: HashMap<&[SourceVote], Vec<FactId>> = HashMap::new();
    for &f in facts {
        map.entry(matrix.signature(f)).or_default().push(f);
    }
    let mut groups: Vec<FactGroup> = map
        .into_iter()
        .map(|(sig, mut members)| {
            members.sort_unstable();
            FactGroup { signature: sig.to_vec(), facts: members }
        })
        .collect();
    // `SourceVote: Ord` by (source, vote) — signatures compare directly,
    // with no per-comparison key-tuple rebuild.
    groups.sort_unstable_by(|a, b| a.signature.cmp(&b.signature));
    groups
}

/// Upper bound on the number of distinct non-trivial signatures for
/// `n_sources` sources: `3^|S| − 2^|S| − 1` (§5.3 — each source votes
/// T/F/−, excluding signatures with at most one vote... the paper excludes
/// "fact groups with only one vote or no vote"; we expose the raw bound and
/// let callers subtract what their setting excludes).
///
/// Saturates at `usize::MAX` for large `n_sources`.
pub fn max_fact_groups(n_sources: u32) -> usize {
    let Some(three) = 3usize.checked_pow(n_sources) else {
        return usize::MAX;
    };
    let two = 2usize.checked_pow(n_sources).expect("2^n < 3^n which fit");
    three - two - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SourceId;
    use crate::vote::{Vote, VoteMatrixBuilder};

    fn sid(i: usize) -> SourceId {
        SourceId::new(i)
    }
    fn fid(i: usize) -> FactId {
        FactId::new(i)
    }

    fn matrix() -> VoteMatrix {
        // f0: s0 T, s1 T      f1: s0 T, s1 T  (same group)
        // f2: s0 T, s1 F      f3: (no votes)  f4: s1 T
        let mut b = VoteMatrixBuilder::new(2, 5);
        b.cast(sid(0), fid(0), Vote::True).unwrap();
        b.cast(sid(1), fid(0), Vote::True).unwrap();
        b.cast(sid(0), fid(1), Vote::True).unwrap();
        b.cast(sid(1), fid(1), Vote::True).unwrap();
        b.cast(sid(0), fid(2), Vote::True).unwrap();
        b.cast(sid(1), fid(2), Vote::False).unwrap();
        b.cast(sid(1), fid(4), Vote::True).unwrap();
        b.build()
    }

    #[test]
    fn groups_by_exact_signature() {
        let m = matrix();
        let all: Vec<FactId> = m.facts().collect();
        let groups = group_by_signature(&m, &all);
        assert_eq!(groups.len(), 4);
        // First group: empty signature (f3).
        assert!(groups[0].signature.is_empty());
        assert_eq!(groups[0].facts, vec![fid(3)]);
        // Same-signature facts share a group.
        let tt = groups.iter().find(|g| g.facts.contains(&fid(0))).unwrap();
        assert_eq!(tt.facts, vec![fid(0), fid(1)]);
        assert_eq!(tt.size(), 2);
        // Polarity matters: f2 (T,F) is not grouped with f0 (T,T).
        assert!(!tt.facts.contains(&fid(2)));
    }

    #[test]
    fn grouping_respects_the_requested_subset() {
        let m = matrix();
        let groups = group_by_signature(&m, &[fid(1), fid(2)]);
        assert_eq!(groups.len(), 2);
        let total: usize = groups.iter().map(FactGroup::size).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn deterministic_ordering() {
        let m = matrix();
        let all: Vec<FactId> = m.facts().collect();
        let a = group_by_signature(&m, &all);
        let b = group_by_signature(&m, &all);
        assert_eq!(a, b);
    }

    #[test]
    fn group_count_bound() {
        assert_eq!(max_fact_groups(2), 9 - 4 - 1);
        assert_eq!(max_fact_groups(5), 243 - 32 - 1);
        // Saturation, not overflow.
        assert_eq!(max_fact_groups(64), usize::MAX);
    }
}

//! Model test for `VoteMatrixBuilder`: whatever order votes are cast in,
//! recasts and out-of-order facts included, the built matrix is the one a
//! last-writer-wins map of `(fact, source) → vote` describes, in both
//! orientations.

use std::collections::BTreeMap;

use corroborate_core::prelude::*;
use corroborate_core::vote::{FactVote, SourceVote};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Builds an `n_sources × n_facts` matrix from `casts` (`(source, fact,
/// affirmative)`, in cast order) and compares it with the model.
fn check(
    n_sources: usize,
    n_facts: usize,
    casts: &[(usize, usize, bool)],
) -> Result<(), TestCaseError> {
    let mut b = VoteMatrixBuilder::new(n_sources, n_facts);
    let mut model: BTreeMap<(FactId, SourceId), Vote> = BTreeMap::new();
    for &(s, f, v) in casts {
        let (s, f, v) = (SourceId::new(s), FactId::new(f), Vote::from_bool(v));
        b.cast(s, f, v).map_err(|e| TestCaseError::fail(e.to_string()))?;
        model.insert((f, s), v);
    }
    let m = b.build();

    prop_assert_eq!(m.n_sources(), n_sources);
    prop_assert_eq!(m.n_facts(), n_facts);
    prop_assert_eq!(m.n_votes(), model.len());
    for f in m.facts() {
        let expected: Vec<SourceVote> = model
            .range((f, SourceId::new(0))..=(f, SourceId::new(n_sources)))
            .map(|(&(_, source), &vote)| SourceVote { source, vote })
            .collect();
        prop_assert_eq!(m.votes_on(f), &expected[..], "votes on {}", f);
        let t = expected.iter().filter(|sv| sv.vote.is_affirmative()).count();
        prop_assert_eq!(m.tally(f), (t, expected.len() - t), "tally of {}", f);
        for s in m.sources() {
            prop_assert_eq!(m.vote(s, f), model.get(&(f, s)).copied(), "vote of {} on {}", s, f);
        }
    }
    for s in m.sources() {
        let expected: Vec<FactVote> = model
            .iter()
            .filter(|(&(_, source), _)| source == s)
            .map(|(&(fact, _), &vote)| FactVote { fact, vote })
            .collect();
        prop_assert_eq!(m.votes_by(s), &expected[..], "votes by {}", s);
    }

    // Equality means "same votes": the model's votes cast once each, in
    // key order, build an equal matrix.
    let mut once = VoteMatrixBuilder::new(n_sources, n_facts);
    for (&(f, s), &v) in &model {
        once.cast(s, f, v).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
    prop_assert_eq!(&m, &once.build());
    prop_assert_eq!(&m.clone(), &m);
    Ok(())
}

#[test]
fn recasts_out_of_order_facts_and_empty_rows() {
    // Source 0 recasts fact 2 across other casts, fact 0 is cast after
    // fact 3, fact 1 gets no votes and source 2 stays silent.
    let casts = [
        (0, 2, true),
        (1, 3, true),
        (1, 2, false),
        (0, 0, true),
        (0, 2, false),
        (1, 0, true),
        (3, 3, false),
        (1, 3, false),
    ];
    check(4, 4, &casts).unwrap();
}

proptest! {
    #[test]
    fn built_matrix_matches_a_last_writer_wins_model(
        (n_sources, n_facts, casts) in (1usize..=6, 1usize..=10).prop_flat_map(|(ns, nf)| {
            (Just(ns), Just(nf), vec((0..ns, 0..nf, any::<bool>()), 0..=48))
        })
    ) {
        check(n_sources, n_facts, &casts)?;
    }
}

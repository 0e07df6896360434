//! Property test for the copy-on-write views: for random streams that
//! register sources and facts mid-stream, re-add names and re-cast votes
//! across chunk and shard boundaries, cut into random `Auto` epochs,
//! every published [`VerdictView`] must agree with a batch
//! materialisation of the same stream prefix — name lookups, vote lists,
//! the stale count, the fingerprint, and the lazily built dataset — both
//! when it is published and at the end of the stream, with every view
//! still held while later epochs write the engine's shared chunks.

use corroborate_core::prelude::*;
use corroborate_serve::{DeltaDataset, EpochConfig, EpochEngine, EpochMode, Mutation, VerdictView};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Sources and facts the streams draw names from: more facts than one
/// copy-on-write chunk holds, so epochs touch several chunks.
const SOURCES: usize = 12;
const FACTS: usize = 300;

fn mutation((kind, source, fact, flag): (u8, usize, usize, u8)) -> Mutation {
    match kind {
        0 => Mutation::AddSource { name: format!("s{source}") },
        1 => Mutation::AddFact {
            name: format!("f{fact}"),
            label: [None, Some(Label::True), Some(Label::False)][usize::from(flag % 3)],
        },
        _ => Mutation::Cast {
            source: format!("s{source}"),
            fact: format!("f{fact}"),
            vote: Vote::from_bool(flag % 2 == 0),
        },
    }
}

/// The stream `ops` draw, with every `recast_every`-th cast cast again,
/// flipped, a few mutations later: re-casts then land on rows that
/// earlier views share, in every chunk the stream has reached.
fn stream(ops: Vec<(u8, usize, usize, u8)>, recast_every: usize) -> Vec<Mutation> {
    let mut out: Vec<Mutation> = Vec::with_capacity(ops.len() * 2);
    let mut later: Vec<(usize, Mutation)> = Vec::new();
    for (i, op) in ops.into_iter().enumerate() {
        let m = mutation(op);
        if let Mutation::Cast { source, fact, vote } = &m {
            if i % recast_every == 0 {
                let flipped = Mutation::Cast {
                    source: source.clone(),
                    fact: fact.clone(),
                    vote: vote.negated(),
                };
                later.push((i + 1 + i % 17, flipped));
            }
        }
        out.push(m);
        let (due, rest): (Vec<_>, Vec<_>) = later.into_iter().partition(|(at, _)| *at <= i);
        out.extend(due.into_iter().map(|(_, m)| m));
        later = rest;
    }
    out.extend(later.into_iter().map(|(_, m)| m));
    out
}

/// [`VerdictView::fingerprint`] recomputed from a batch dataset and the
/// view's trust, probabilities and round count.
fn reference_fingerprint(dataset: &Dataset, view: &VerdictView) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&(dataset.n_sources() as u64).to_le_bytes());
    for s in dataset.sources() {
        eat(dataset.source_name(s).as_bytes());
        eat(&[0]);
        eat(&view.trust().trust(s).to_bits().to_le_bytes());
    }
    eat(&(dataset.n_facts() as u64).to_le_bytes());
    for f in dataset.facts() {
        eat(dataset.fact_name(f).as_bytes());
        eat(&[0]);
        eat(&view.probability(f).to_bits().to_le_bytes());
    }
    eat(&(view.rounds() as u64).to_le_bytes());
    hash
}

/// Every check against `expected`, the materialised stream prefix.
fn check_view(view: &VerdictView, expected: &Dataset) -> Result<(), TestCaseError> {
    let delta = view.delta();
    prop_assert_eq!(delta.n_sources(), expected.n_sources());
    prop_assert_eq!(delta.n_facts(), expected.n_facts());
    for s in expected.sources() {
        prop_assert_eq!(view.source_by_name(expected.source_name(s)), Some(s));
    }
    for f in expected.facts() {
        prop_assert_eq!(view.fact_by_name(expected.fact_name(f)), Some(f));
        prop_assert_eq!(delta.votes(f), expected.votes().votes_on(f), "vote list of {}", f.index());
    }
    prop_assert!(view.fact_by_name("never-registered").is_none());
    prop_assert!(view.source_by_name("never-registered").is_none());
    let stale = expected.facts().filter(|&f| view.is_stale(f)).count();
    prop_assert_eq!(view.stale_count(), stale);
    prop_assert_eq!(view.fingerprint(), reference_fingerprint(expected, view));

    let dataset = view.dataset();
    prop_assert!(dataset.votes() == expected.votes(), "materialised votes differ");
    prop_assert!(dataset.ground_truth() == expected.ground_truth(), "labels differ");
    prop_assert!(expected.sources().all(|s| dataset.source_name(s) == expected.source_name(s)));
    prop_assert!(expected.facts().all(|f| dataset.fact_name(f) == expected.fact_name(f)));
    Ok(())
}

proptest! {
    #[test]
    fn every_epoch_view_matches_the_materialised_prefix(
        ops in vec((0u8..8, 0usize..SOURCES, 0usize..FACTS, any::<u8>()), 1..700),
        cuts in vec(1usize..90, 1..40),
        threshold in 0usize..3,
        recast_every in 1usize..6,
    ) {
        let stream = stream(ops, recast_every);
        let config = EpochConfig {
            full_recompute_threshold: [0.25, 0.6, 2.0][threshold],
            ..EpochConfig::default()
        };
        let mut engine = EpochEngine::new(config).unwrap();
        let mut prefix = DeltaDataset::new();
        let mut held = Vec::new();
        let mut at = 0;
        for cut in cuts.iter().cycle() {
            if at >= stream.len() {
                break;
            }
            let end = (at + cut).min(stream.len());
            for m in &stream[at..end] {
                engine.apply(m).unwrap();
                prefix.apply(m).unwrap();
            }
            at = end;
            let (view, _) = engine.run_epoch(EpochMode::Auto).unwrap();
            let expected = prefix.materialize().unwrap();
            check_view(&view, &expected)?;
            held.push((view, expected));
        }
        for (view, expected) in &held {
            check_view(view, expected)?;
        }
    }
}

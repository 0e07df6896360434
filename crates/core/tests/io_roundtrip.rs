//! Round-trip tests for the CSV interchange: parse→serialize must be a
//! fixpoint, and serialize→parse must preserve the dataset up to id
//! renumbering (names are the stable keys, not ids).

use std::collections::{BTreeMap, BTreeSet};

use corroborate_core::io::{
    dataset_from_csv, dataset_from_csv_full, sources_to_csv, truth_to_csv, votes_to_csv,
};
use corroborate_core::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// Name-keyed view of a dataset: vote triples, truth labels, and the
/// source/fact name sets. Two datasets with equal views describe the same
/// corroboration problem no matter how ids are numbered.
#[derive(Debug, PartialEq, Eq)]
struct SemanticView {
    votes: BTreeSet<(String, String, char)>,
    truth: BTreeMap<String, bool>,
    sources: BTreeSet<String>,
    facts: BTreeSet<String>,
}

fn view(ds: &Dataset) -> SemanticView {
    let mut votes = BTreeSet::new();
    for f in ds.facts() {
        for sv in ds.votes().votes_on(f) {
            votes.insert((
                ds.source_name(sv.source).to_string(),
                ds.fact_name(f).to_string(),
                sv.vote.symbol(),
            ));
        }
    }
    let truth = match ds.ground_truth() {
        Some(t) => t.iter().map(|(f, l)| (ds.fact_name(f).to_string(), l.as_bool())).collect(),
        None => BTreeMap::new(),
    };
    SemanticView {
        votes,
        truth,
        sources: ds.sources().map(|s| ds.source_name(s).to_string()).collect(),
        facts: ds.facts().map(|f| ds.fact_name(f).to_string()).collect(),
    }
}

/// serialize→parse→serialize through all three files (votes, truth, and
/// the sources roster); asserts the fixpoint and semantic equality,
/// returning the reparsed dataset for further checks.
fn roundtrip(ds: &Dataset) -> Dataset {
    let votes = votes_to_csv(ds);
    let truth = ds.ground_truth().map(|_| truth_to_csv(ds).unwrap());
    let roster = sources_to_csv(ds);
    let back =
        dataset_from_csv_full(&votes, truth.as_deref(), Some(&roster)).expect("reparse own output");
    assert_eq!(view(ds), view(&back), "semantic content changed across the round trip");
    // With the roster, ids survive too: the roster fixes source numbering
    // and facts reparse in first-appearance order.
    assert_eq!(sources_to_csv(&back), roster, "source roster changed across the round trip");
    // A reparsed dataset serialises to byte-identical CSV: with the roster
    // pinning source numbering, the text form is a fixpoint immediately.
    assert_eq!(
        votes_to_csv(&back),
        votes_to_csv(&dataset_from_csv_full(&votes_to_csv(&back), None, Some(&roster)).unwrap())
    );
    back
}

#[test]
fn gnarly_names_survive_quoting() {
    let mut b = DatasetBuilder::new();
    let s0 = b.add_source("Menu,Pages");
    let s1 = b.add_source("Quote\"In\"Name");
    let s2 = b.add_source("plain");
    let f0 = b.add_fact_with_truth("Danny's \"Grand\" Sea, Palace", Label::True);
    let f1 = b.add_fact_with_truth(",,leading commas", Label::False);
    let f2 = b.add_fact_with_truth("ünïcødé 寿司", Label::True);
    b.cast(s0, f0, Vote::True).unwrap();
    b.cast(s1, f0, Vote::False).unwrap();
    b.cast(s1, f1, Vote::True).unwrap();
    b.cast(s2, f2, Vote::False).unwrap();
    let ds = b.build().unwrap();
    let back = roundtrip(&ds);
    assert_eq!(back.n_sources(), 3);
    assert_eq!(back.n_facts(), 3);
}

#[test]
fn voteless_truth_only_facts_survive_via_the_truth_file() {
    let mut b = DatasetBuilder::new();
    let s = b.add_source("lister");
    let voted = b.add_fact_with_truth("voted", Label::True);
    b.add_fact_with_truth("silent-true", Label::True);
    b.add_fact_with_truth("silent-false", Label::False);
    b.cast(s, voted, Vote::True).unwrap();
    let ds = b.build().unwrap();
    let back = roundtrip(&ds);
    assert_eq!(back.n_facts(), 3);
    let silent = back.facts().find(|&f| back.fact_name(f) == "silent-false").unwrap();
    assert!(back.votes().votes_on(silent).is_empty());
    assert!(!back.ground_truth().unwrap().label(silent).as_bool());
}

#[test]
fn sparse_votes_and_single_sided_facts_round_trip() {
    // One fact with only T votes, one with only F, one contested, and a
    // source that votes exactly once — the shapes a crawl actually has.
    let mut b = DatasetBuilder::new();
    let a = b.add_source("a");
    let c = b.add_source("c");
    let lone = b.add_source("lone");
    let t_only = b.add_fact_with_truth("t-only", Label::True);
    let f_only = b.add_fact_with_truth("f-only", Label::False);
    let contested = b.add_fact_with_truth("contested", Label::True);
    b.cast(a, t_only, Vote::True).unwrap();
    b.cast(c, t_only, Vote::True).unwrap();
    b.cast(a, f_only, Vote::False).unwrap();
    b.cast(a, contested, Vote::True).unwrap();
    b.cast(c, contested, Vote::False).unwrap();
    b.cast(lone, contested, Vote::True).unwrap();
    let ds = b.build().unwrap();
    let back = roundtrip(&ds);
    let f = back.facts().find(|&f| back.fact_name(f) == "contested").unwrap();
    assert_eq!(back.votes().tally(f), (2, 1));
}

#[test]
fn datasets_without_truth_round_trip_votes_alone() {
    let mut b = DatasetBuilder::new();
    let s = b.add_source("s");
    let f = b.add_fact("unlabelled");
    b.cast(s, f, Vote::False).unwrap();
    let ds = b.build().unwrap();
    assert!(truth_to_csv(&ds).is_err());
    let back = dataset_from_csv(&votes_to_csv(&ds), None).unwrap();
    assert_eq!(view(&ds), view(&back));
    assert!(back.ground_truth().is_none());
}

/// Names built from the characters the CSV dialect must escape — commas,
/// quotes, edge whitespace (the reader trims lines), a leading `#` (the
/// comment marker) — mixed with ordinary ones, the empty name included.
/// Only newlines are left out: the reader is line-based.
fn arb_name() -> impl Strategy<Value = String> {
    vec(0usize..12, 0..=6).prop_map(|picks| {
        let alphabet = ["x", "y", "z9", ",", "\"", "'", " ", "é", "#", "\t", "\r", "\u{a0}"];
        picks.into_iter().map(|p| alphabet[p]).collect()
    })
}

/// `names` without repeats, in order: id-keyed builders allow duplicate
/// names but the name-keyed CSV form cannot represent them.
fn distinct(names: Vec<String>) -> Vec<String> {
    let mut seen = BTreeSet::new();
    names.into_iter().filter(|n| seen.insert(n.clone())).collect()
}

/// 24 cases, or `PROPTEST_CASES` when set, as CI's boosted core step
/// sets it (an explicit `with_cases` would otherwise win over it).
fn round_trip_config() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(24);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(round_trip_config())]

    #[test]
    fn random_datasets_round_trip_semantically(
        source_names in vec(arb_name(), 1..=4),
        fact_names in vec(arb_name(), 1..=6),
        votes in vec((any::<u16>(), any::<u16>(), any::<bool>()), 1..=20),
        labels in vec(any::<bool>(), 6),
    ) {
        let mut b = DatasetBuilder::new();
        let sources: Vec<SourceId> =
            distinct(source_names).into_iter().map(|n| b.add_source(n)).collect();
        let facts: Vec<FactId> = distinct(fact_names)
            .into_iter()
            .zip(&labels)
            .map(|(n, &l)| b.add_fact_with_truth(n, Label::from_bool(l)))
            .collect();
        let mut cast = BTreeSet::new();
        for (s, f, v) in votes {
            let s = sources[s as usize % sources.len()];
            let f = facts[f as usize % facts.len()];
            if cast.insert((s, f)) {
                b.cast(s, f, if v { Vote::True } else { Vote::False }).unwrap();
            }
        }
        // Sources left voteless by the draw stay voteless: the roster
        // sidecar makes them representable (this used to require patching
        // every silent source with a synthetic vote).
        let ds = b.build().unwrap();
        roundtrip(&ds);
    }
}

#[test]
fn voteless_sources_survive_via_the_roster() {
    let mut b = DatasetBuilder::new();
    let active = b.add_source("active");
    b.add_source("registered-but-silent");
    b.add_source("another,quiet \"one\"");
    let f = b.add_fact_with_truth("f0", Label::True);
    b.cast(active, f, Vote::True).unwrap();
    let ds = b.build().unwrap();
    let back = roundtrip(&ds);
    assert_eq!(back.n_sources(), 3);
    let silent = back.sources().find(|&s| back.source_name(s) == "registered-but-silent").unwrap();
    assert!(back.votes().votes_by(silent).is_empty());
    // Without the roster the same dataset loses its silent sources.
    let narrow = dataset_from_csv(&votes_to_csv(&ds), Some(&truth_to_csv(&ds).unwrap())).unwrap();
    assert_eq!(narrow.n_sources(), 1);
}

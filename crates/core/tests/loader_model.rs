//! Model test for the CSV loader: random votes and truth files, written as
//! text in orders `votes_to_csv` and `truth_to_csv` never produce, load to
//! the dataset a plain reference derives from the same rows.
//!
//! Fact names come from a small alphabet, so a fact's votes are often
//! split across non-adjacent lines (the loader's merge) and truth rows
//! often miss the loader's cursor (its lookup). Names are quoted at random
//! (`"f1"` and `f1` name one fact), and headers, comments, blank lines and
//! padding appear mid-file. Truth rows follow vote order in stretches,
//! interleaved with out-of-order rows, repeats and names that never got a
//! vote.

use std::collections::BTreeMap;

use corroborate_core::io::dataset_from_csv;
use corroborate_core::prelude::*;
use corroborate_core::vote::{FactVote, SourceVote};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Fact names: the first [`VOTED`] appear in votes, the rest only in truth.
/// They include every kind of name the dialect must quote.
const FACTS: [&str; 14] =
    ["f1", "f2", "a", "b", "x y", "z,z", "q\"t", " pad", "#h", "", "é", "fact", "never", "nope"];
const VOTED: usize = 12;
const SOURCES: [&str; 5] = ["A", "B", "C", "s,1", " S"];

/// `name` as a CSV field: quoted when the dialect needs it, or when
/// `force` asks for it.
fn field(name: &str, force: bool) -> String {
    let needs = name.is_empty()
        || name.contains([',', '"'])
        || name.starts_with(char::is_whitespace)
        || name.ends_with(char::is_whitespace)
        || name.starts_with('#');
    if needs || force {
        format!("\"{}\"", name.replace('"', "\"\""))
    } else {
        name.to_string()
    }
}

/// Before a line, `decor` may put a header, a comment or a blank line; it
/// also picks quoting and padding.
fn decorate(out: &mut String, decor: u8, header: &str, eol: &str) {
    match decor {
        0 => out.push_str(header),
        1 => out.push_str("# mid-file comment"),
        2 => {}
        _ => return,
    }
    out.push_str(eol);
}

/// One vote line: source, fact, affirmative, decoration.
type VoteLine = (usize, usize, bool, u8);
/// One truth row: what to name (see [`truth_rows`]), a pick, the label,
/// decoration.
type TruthLine = (u8, usize, bool, u8);

/// The truth rows' names. Op 0–2 names the next fact in first-appearance
/// order (a cursor hit when rows follow vote order), op 3 any name of the
/// alphabet, op 4 repeats an earlier row, op 5 the fact before the next one
/// (a duplicate of the last in-order row). With `cover`, each voted fact
/// that no row names gets one, inserted at a position the picks choose, so
/// the dataset carries ground truth and labels can be compared.
fn truth_rows(plan: &[TruthLine], voted: &[&str], cover: bool) -> Vec<(String, bool, u8)> {
    let mut rows: Vec<(String, bool, u8)> = Vec::new();
    let mut next = 0;
    for &(op, pick, label, decor) in plan {
        let name = match op {
            0..=2 if next < voted.len() => {
                next += 1;
                voted[next - 1].to_string()
            }
            4 if !rows.is_empty() => rows[pick % rows.len()].0.clone(),
            5 if next > 0 => voted[next - 1].to_string(),
            _ => FACTS[pick % FACTS.len()].to_string(),
        };
        rows.push((name, label, decor));
    }
    if cover {
        for (i, name) in voted.iter().enumerate() {
            if !rows.iter().any(|(n, ..)| n == name) {
                let at = plan.get(i).map_or(0, |&(_, pick, ..)| pick % (rows.len() + 1));
                rows.insert(at, (name.to_string(), i % 2 == 0, 3));
            }
        }
    }
    rows
}

/// The dataset the loader must build, derived without the loader's
/// machinery: ids by first appearance, last writer wins, the last truth
/// row wins, and truth-only facts follow in name order.
struct Reference {
    sources: Vec<&'static str>,
    facts: Vec<String>,
    votes: BTreeMap<(usize, usize), bool>,
    labels: Vec<Option<bool>>,
}

fn reference(votes: &[VoteLine], truth: &[(String, bool, u8)]) -> Reference {
    let mut sources: Vec<&'static str> = Vec::new();
    let mut facts: Vec<String> = Vec::new();
    let mut cast = BTreeMap::new();
    for &(s, f, v, _) in votes {
        let (s, f) = (SOURCES[s], FACTS[f]);
        if !sources.contains(&s) {
            sources.push(s);
        }
        if !facts.iter().any(|n| n == f) {
            facts.push(f.to_string());
        }
        let s = sources.iter().position(|&n| n == s).unwrap();
        let f = facts.iter().position(|n| n == f).unwrap();
        cast.insert((f, s), v);
    }
    let last_label: BTreeMap<&str, bool> = truth.iter().map(|(n, l, _)| (n.as_str(), *l)).collect();
    let mut labels: Vec<Option<bool>> =
        facts.iter().map(|n| last_label.get(n.as_str()).copied()).collect();
    for (name, &label) in &last_label {
        if !facts.iter().any(|n| n == name) {
            facts.push(name.to_string());
            labels.push(Some(label));
        }
    }
    Reference { sources, facts, votes: cast, labels }
}

fn check(
    votes: &[VoteLine],
    plan: &[TruthLine],
    cover: bool,
    crlf: bool,
) -> Result<(), TestCaseError> {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut votes_csv = String::new();
    for &(s, f, v, decor) in votes {
        decorate(&mut votes_csv, decor, "source,fact,vote", eol);
        let pad = if decor == 4 { "  " } else { "" };
        let vote = ["T", "F", "t", "f"][usize::from(!v) + 2 * usize::from(decor % 2 == 1)];
        votes_csv.push_str(&format!(
            "{pad}{},{},{vote}{pad}{eol}",
            field(SOURCES[s], decor == 5),
            field(FACTS[f], decor >= 6),
        ));
    }
    let mut voted: Vec<&str> = Vec::new();
    for &(_, f, ..) in votes {
        if !voted.contains(&FACTS[f]) {
            voted.push(FACTS[f]);
        }
    }
    let rows = truth_rows(plan, &voted, cover);
    let mut truth_csv = String::new();
    for (name, label, decor) in &rows {
        decorate(&mut truth_csv, *decor, "fact,label", eol);
        let spelling = match (label, decor % 3) {
            (true, 0) => "true",
            (true, 1) => "T",
            (true, _) => "1",
            (false, 0) => "FALSE",
            (false, 1) => "f",
            (false, _) => "0",
        };
        truth_csv.push_str(&format!("{},{spelling}{eol}", field(name, *decor >= 6)));
    }

    let ds = dataset_from_csv(&votes_csv, Some(&truth_csv)).map_err(|e| {
        TestCaseError::fail(format!("{e}\nvotes:\n{votes_csv}\ntruth:\n{truth_csv}"))
    })?;
    let want = reference(votes, &rows);
    let context = format!("votes:\n{votes_csv}\ntruth:\n{truth_csv}");

    let sources: Vec<&str> = ds.sources().map(|s| ds.source_name(s)).collect();
    prop_assert_eq!(&sources, &want.sources, "sources by id\n{}", context);
    let facts: Vec<&str> = ds.facts().map(|f| ds.fact_name(f)).collect();
    prop_assert_eq!(&facts, &want.facts, "facts by id\n{}", context);
    let labels: Option<Vec<bool>> = want.labels.iter().copied().collect();
    let got = ds.ground_truth().map(|t| t.iter().map(|(_, l)| l.as_bool()).collect::<Vec<_>>());
    prop_assert_eq!(&got, &labels.filter(|l| !l.is_empty()), "labels by id\n{}", context);
    for f in ds.facts() {
        let on: Vec<SourceVote> = want
            .votes
            .range((f.index(), 0)..(f.index() + 1, 0))
            .map(|(&(_, s), &v)| SourceVote { source: SourceId::new(s), vote: Vote::from_bool(v) })
            .collect();
        prop_assert_eq!(ds.votes().votes_on(f), &on[..], "votes on {}\n{}", f, context);
    }
    for s in ds.sources() {
        let by: Vec<FactVote> = want
            .votes
            .iter()
            .filter(|(&(_, source), _)| source == s.index())
            .map(|(&(f, _), &v)| FactVote { fact: FactId::new(f), vote: Vote::from_bool(v) })
            .collect();
        prop_assert_eq!(ds.votes().votes_by(s), &by[..], "votes by {}\n{}", s, context);
    }
    Ok(())
}

#[test]
fn a_miss_before_a_later_hit_loses_to_it() {
    // Truth names f2 before the cursor reaches it, then again in vote
    // order: the later, in-order row wins. Then f1 is named out of order
    // after its in-order row, and that later row wins.
    let votes = [(0, 0, true, 9), (1, 1, true, 9), (0, 0, false, 9)];
    let plan = [(3, 1, false, 9), (0, 0, true, 9), (0, 0, true, 9), (3, 0, false, 9)];
    check(&votes, &plan, false, false).unwrap();
}

proptest! {
    #[test]
    fn random_file_sets_load_like_the_reference(
        votes in vec((0..SOURCES.len(), 0..VOTED, any::<bool>(), 0u8..10), 0..=30),
        plan in vec((0u8..6, 0usize..64, any::<bool>(), 0u8..10), 0..=24),
        cover in 0u8..5,
        crlf in any::<bool>(),
    ) {
        check(&votes, &plan, cover != 0, crlf)?;
    }
}

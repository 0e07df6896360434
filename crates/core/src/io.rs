//! Plain-text dataset interchange: a minimal CSV dialect for votes and
//! ground truth, so corroboration problems can be round-tripped to disk
//! and fed in from external crawls without pulling in a serialisation
//! framework.
//!
//! ## Votes file
//!
//! One vote per line, `source,fact,vote` with `vote ∈ {T, F}`; a header
//! line `source,fact,vote` is optional. Sources and facts are registered
//! in order of first appearance. Lines are trimmed, and blank lines and
//! `#` comments are skipped. A field is double-quoted, with `""`
//! escaping, when it contains a comma, a quote or a newline, when it
//! starts or ends with whitespace (which trimming would strip), when it
//! starts with `#` (which would read as a comment), or when it is empty
//! (an empty roster line is skipped). Names containing a newline are still
//! not representable: the reader splits lines before it parses quotes.
//!
//! ```text
//! # NYC crawl, Feb 2012
//! source,fact,vote
//! YellowPages,"Danny's Grand Sea Palace",T
//! MenuPages,"Danny's Grand Sea Palace",F
//! ```
//!
//! ## Truth file
//!
//! `fact,label` with `label ∈ {true, false}` (case-insensitive); facts not
//! present in the votes file are added as voteless facts.
//!
//! ## Sources roster (sidecar)
//!
//! The votes file can only mention sources that cast at least one vote, so
//! a dataset containing *voteless* sources (registered crawl feeds that
//! contributed nothing yet — common in streaming ingestion) does not
//! survive a votes-only round trip. The optional roster sidecar closes the
//! gap: one source name per line (header line `source` optional), with the
//! same quoting rules as the other files. Roster sources are registered
//! first, in roster order, so a [`sources_to_csv`] → [`dataset_from_csv_full`]
//! round trip preserves source ids exactly. Sources that appear in the
//! votes file but not in the roster are appended in order of first
//! appearance, as before.
//!
//! (Voteless *and* unlabelled facts remain unrepresentable — they carry no
//! information any corroborator can use.)

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::CoreError;
use crate::ids::{FactId, SourceId};
use crate::truth::Label;
use crate::vote::Vote;

/// Escapes a CSV field: quotes it when it contains a comma, quote or
/// newline, or when the reader's trimming, comment skipping or blank-line
/// skipping would otherwise change it.
fn escape(field: &str) -> String {
    if field.is_empty()
        || field.contains([',', '"', '\n'])
        || field.starts_with(char::is_whitespace)
        || field.ends_with(char::is_whitespace)
        || field.starts_with('#')
    {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// The error for line `line_no` of a `file` (`votes`, `truth` or `roster`).
fn line_error(file: &str, line_no: usize, what: impl Display) -> CoreError {
    CoreError::InvalidConfig { message: format!("{file} line {line_no}: {what}") }
}

/// The data lines of a CSV file, trimmed and paired with their 1-based
/// line numbers; blank lines and `#` comments are skipped.
fn records(csv: &str) -> impl Iterator<Item = (usize, &str)> {
    csv.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
}

/// Splits one line of a `file` into `fields` and checks that there are
/// `expected` of them. A line without quotes splits into slices of itself;
/// a line with quotes is unescaped (double-quoted fields, `""` escapes)
/// into owned fields.
///
/// # Errors
/// [`CoreError::InvalidConfig`] on an unterminated quote or a wrong field
/// count.
fn split_line<'a>(
    line: &'a str,
    file: &str,
    line_no: usize,
    expected: usize,
    fields: &mut Vec<Cow<'a, str>>,
) -> Result<(), CoreError> {
    fields.clear();
    if line.contains('"') {
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if in_quotes => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '"' if field.is_empty() => in_quotes = true,
                ',' if !in_quotes => fields.push(Cow::Owned(std::mem::take(&mut field))),
                c => field.push(c),
            }
        }
        if in_quotes {
            return Err(line_error(file, line_no, "unterminated quoted field"));
        }
        fields.push(Cow::Owned(field));
    } else {
        fields.extend(line.split(',').map(Cow::Borrowed));
    }
    if fields.len() != expected {
        let plural = if expected == 1 { "" } else { "s" };
        let got = fields.len();
        return Err(line_error(
            file,
            line_no,
            format!("expected {expected} field{plural}, got {got}"),
        ));
    }
    Ok(())
}

/// Serialises a dataset's votes to the CSV dialect (with header).
pub fn votes_to_csv(dataset: &Dataset) -> String {
    let mut out = String::from("source,fact,vote\n");
    for f in dataset.facts() {
        for sv in dataset.votes().votes_on(f) {
            out.push_str(&escape(dataset.source_name(sv.source)));
            out.push(',');
            out.push_str(&escape(dataset.fact_name(f)));
            out.push(',');
            out.push(sv.vote.symbol());
            out.push('\n');
        }
    }
    out
}

/// Serialises a dataset's ground truth (if any) to the truth CSV.
///
/// # Errors
/// [`CoreError::MissingComponent`] when the dataset carries no truth.
pub fn truth_to_csv(dataset: &Dataset) -> Result<String, CoreError> {
    let truth = dataset.require_ground_truth()?;
    let mut out = String::from("fact,label\n");
    for (f, label) in truth.iter() {
        out.push_str(&escape(dataset.fact_name(f)));
        out.push(',');
        out.push_str(if label.as_bool() { "true" } else { "false" });
        out.push('\n');
    }
    Ok(out)
}

/// Serialises the full source roster (one name per line, with header) —
/// the sidecar that lets voteless sources survive a round trip.
pub fn sources_to_csv(dataset: &Dataset) -> String {
    let mut out = String::from("source\n");
    for s in dataset.sources() {
        out.push_str(&escape(dataset.source_name(s)));
        out.push('\n');
    }
    out
}

/// Parses a votes CSV (and optional truth CSV) into a dataset.
///
/// Equivalent to [`dataset_from_csv_full`] without a sources roster: only
/// sources that cast at least one vote are registered.
///
/// # Errors
/// - [`CoreError::InvalidConfig`] on malformed lines, unknown vote
///   symbols, or labels in the truth file that are neither `true` nor
///   `false`.
pub fn dataset_from_csv(votes_csv: &str, truth_csv: Option<&str>) -> Result<Dataset, CoreError> {
    dataset_from_csv_full(votes_csv, truth_csv, None)
}

/// Parses a votes CSV, optional truth CSV, and optional sources-roster
/// sidecar (see the module docs) into a dataset.
///
/// Roster sources are registered first, in roster order; duplicate roster
/// entries are rejected. Sources appearing only in the votes file are
/// appended in order of first appearance.
///
/// # Errors
/// - [`CoreError::InvalidConfig`] on malformed lines, unknown vote
///   symbols, bad truth labels, or duplicate roster entries.
pub fn dataset_from_csv_full(
    votes_csv: &str,
    truth_csv: Option<&str>,
    sources_csv: Option<&str>,
) -> Result<Dataset, CoreError> {
    // Names are keyed by slices of the input (owned only on lines with
    // quotes) and copied once, appended to the builder's name arenas. The
    // files are read roster, truth, votes: a bad set of files reports the
    // first error in that order.
    let mut b = DatasetBuilder::new();
    let mut fields = Vec::new();
    let mut sources: HashMap<Cow<'_, str>, SourceId> = HashMap::new();
    for (line_no, line) in records(sources_csv.unwrap_or("")) {
        split_line(line, "roster", line_no, 1, &mut fields)?;
        if fields[0] == "source" {
            // Header row (wherever comments put it).
            continue;
        }
        match sources.entry(std::mem::take(&mut fields[0])) {
            Entry::Occupied(e) => {
                return Err(line_error(
                    "roster",
                    line_no,
                    format!("duplicate source {:?}", e.key()),
                ))
            }
            Entry::Vacant(e) => {
                let s = b.add_source(e.key().as_ref());
                e.insert(s);
            }
        }
    }

    let mut truth: Vec<(Cow<'_, str>, Label)> = Vec::new();
    for (line_no, line) in records(truth_csv.unwrap_or("")) {
        split_line(line, "truth", line_no, 2, &mut fields)?;
        if fields[0] == "fact" && fields[1] == "label" {
            // Header row (wherever comments put it).
            continue;
        }
        let is_any =
            |spellings: [&str; 3]| spellings.iter().any(|s| fields[1].eq_ignore_ascii_case(s));
        let label = if is_any(["true", "t", "1"]) {
            Label::True
        } else if is_any(["false", "f", "0"]) {
            Label::False
        } else {
            let other = fields[1].to_ascii_lowercase();
            return Err(line_error("truth", line_no, format!("unknown label {other:?}")));
        };
        truth.push((std::mem::take(&mut fields[0]), label));
    }

    let mut facts: HashMap<Cow<'_, str>, FactId> = HashMap::with_capacity(truth.len());
    for (line_no, line) in records(votes_csv) {
        split_line(line, "votes", line_no, 3, &mut fields)?;
        if fields[0] == "source" && fields[1] == "fact" && fields[2] == "vote" {
            // Header row (wherever comments put it).
            continue;
        }
        let vote = match fields[2].as_ref() {
            "T" | "t" => Vote::True,
            "F" | "f" => Vote::False,
            other => {
                let other = other.to_ascii_uppercase();
                return Err(line_error("votes", line_no, format!("unknown vote {other:?}")));
            }
        };
        let s = *sources
            .entry(std::mem::take(&mut fields[0]))
            .or_insert_with_key(|name| b.add_source(name.as_ref()));
        let f = *facts
            .entry(std::mem::take(&mut fields[1]))
            .or_insert_with_key(|name| b.add_fact(name.as_ref()));
        b.cast(s, f, vote)?;
    }

    // Labels attach after the votes pass, last row winning. Rows that name
    // no voted fact become voteless facts, added in name order so parsing
    // is deterministic.
    let mut truth_only = BTreeMap::new();
    for (name, label) in truth {
        match facts.get(&name) {
            Some(&f) => b.set_label(f, label),
            None => {
                truth_only.insert(name, label);
            }
        }
    }
    for (name, label) in truth_only {
        b.add_fact_with_truth(name, label);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        let yp = b.add_source("YellowPages");
        let mp = b.add_source("Menu,Pages"); // comma forces quoting
        let f0 = b.add_fact_with_truth("Danny's \"Grand\" Palace", Label::False);
        let f1 = b.add_fact_with_truth("M Bar", Label::True);
        b.cast(yp, f0, Vote::True).unwrap();
        b.cast(mp, f0, Vote::False).unwrap();
        b.cast(mp, f1, Vote::True).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn votes_round_trip_through_csv() {
        let ds = sample();
        let votes = votes_to_csv(&ds);
        let truth = truth_to_csv(&ds).unwrap();
        let back = dataset_from_csv(&votes, Some(&truth)).unwrap();
        assert_eq!(back.n_sources(), 2);
        assert_eq!(back.n_facts(), 2);
        assert_eq!(back.votes().n_votes(), 3);
        // Names and votes survive quoting.
        let danny = back.facts().find(|&f| back.fact_name(f).contains("Grand")).unwrap();
        assert_eq!(back.votes().tally(danny), (1, 1));
        assert!(!back.ground_truth().unwrap().label(danny).as_bool());
    }

    #[test]
    fn header_and_comments_are_skipped() {
        let csv = "# a comment\nsource,fact,vote\nA,f1,T\n\nB,f1,F\n";
        let ds = dataset_from_csv(csv, None).unwrap();
        assert_eq!(ds.n_sources(), 2);
        assert_eq!(ds.n_facts(), 1);
        assert_eq!(ds.votes().tally(FactId::new(0)), (1, 1));
    }

    #[test]
    fn truth_only_facts_become_voteless() {
        let ds = dataset_from_csv("A,f1,T\n", Some("fact,label\nf1,true\nf2,false\n")).unwrap();
        assert_eq!(ds.n_facts(), 2);
        let f2 = ds.facts().find(|&f| ds.fact_name(f) == "f2").unwrap();
        assert!(ds.votes().votes_on(f2).is_empty());
        assert!(!ds.ground_truth().unwrap().label(f2).as_bool());
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        let e = dataset_from_csv("A,f1\n", None).unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        let e = dataset_from_csv("A,f1,X\n", None).unwrap_err();
        assert!(e.to_string().contains("unknown vote"), "{e}");
        let e = dataset_from_csv("\"A,f1,T\n", None).unwrap_err();
        assert!(e.to_string().contains("votes line 1: unterminated"), "{e}");
        let e = dataset_from_csv("A,f1,T\n", Some("fact,label\n\"f1,true\n")).unwrap_err();
        assert!(e.to_string().contains("truth line 2: unterminated"), "{e}");
        let e = dataset_from_csv("A,f1,T\n", Some("f1,maybe\n")).unwrap_err();
        assert!(e.to_string().contains("unknown label"), "{e}");
    }

    #[test]
    fn vote_case_is_insensitive() {
        let ds = dataset_from_csv("A,f1,t\nB,f1,f\n", None).unwrap();
        assert_eq!(ds.votes().tally(FactId::new(0)), (1, 1));
    }

    #[test]
    fn quoted_fields_with_escaped_quotes() {
        let csv = "\"Source \"\"X\"\"\",\"fact, with comma\",T\n";
        let ds = dataset_from_csv(csv, None).unwrap();
        assert_eq!(ds.source_name(SourceId::new(0)), "Source \"X\"");
        assert_eq!(ds.fact_name(FactId::new(0)), "fact, with comma");
    }

    #[test]
    fn roster_round_trips_voteless_sources() {
        let mut b = DatasetBuilder::new();
        let active = b.add_source("active");
        b.add_source("silent,comma"); // voteless, needs quoting
        b.add_source("silent-b");
        let f = b.add_fact_with_truth("f1", Label::True);
        b.cast(active, f, Vote::True).unwrap();
        let ds = b.build().unwrap();

        // Votes-only parse drops the silent sources...
        let narrow = dataset_from_csv(&votes_to_csv(&ds), None).unwrap();
        assert_eq!(narrow.n_sources(), 1);

        // ...the roster sidecar preserves them, ids and all.
        let roster = sources_to_csv(&ds);
        let back = dataset_from_csv_full(&votes_to_csv(&ds), None, Some(&roster)).unwrap();
        assert_eq!(back.n_sources(), 3);
        for s in ds.sources() {
            assert_eq!(back.source_name(s), ds.source_name(s));
        }
        assert!(back.votes().votes_by(SourceId::new(1)).is_empty());
        // The sidecar itself is a fixpoint.
        assert_eq!(sources_to_csv(&back), roster);
    }

    #[test]
    fn roster_header_and_comments_are_skipped() {
        let roster = "# registered feeds\nsource\nA\n\nB\n";
        let ds = dataset_from_csv_full("A,f1,T\n", None, Some(roster)).unwrap();
        assert_eq!(ds.n_sources(), 2);
        assert_eq!(ds.source_name(SourceId::new(0)), "A");
        assert_eq!(ds.source_name(SourceId::new(1)), "B");
    }

    #[test]
    fn votes_only_sources_append_after_the_roster() {
        let ds = dataset_from_csv_full("C,f1,T\nA,f1,F\n", None, Some("source\nA\nB\n")).unwrap();
        assert_eq!(ds.n_sources(), 3);
        assert_eq!(ds.source_name(SourceId::new(0)), "A");
        assert_eq!(ds.source_name(SourceId::new(1)), "B");
        assert_eq!(ds.source_name(SourceId::new(2)), "C");
        assert_eq!(ds.votes().tally(FactId::new(0)), (1, 1));
    }

    #[test]
    fn malformed_rosters_are_rejected() {
        let e = dataset_from_csv_full("", None, Some("A\nA\n")).unwrap_err();
        assert!(e.to_string().contains("duplicate source"), "{e}");
        let e = dataset_from_csv_full("", None, Some("A,B\n")).unwrap_err();
        assert!(e.to_string().contains("expected 1 field"), "{e}");
        let e = dataset_from_csv_full("", None, Some("\"A\n")).unwrap_err();
        assert!(e.to_string().contains("roster line 1: unterminated"), "{e}");
    }

    #[test]
    fn loader_contract_is_pinned() {
        // CRLF throughout; a header mid-file, comments, blank lines and
        // padded lines in every file; "f1" and f1 name one fact.
        let roster = "# feeds\r\nsource\r\nZed\r\n\"Alpha\"\r\n";
        let votes = "# crawl, Feb 2012\r\n\
                     B,f2,T\r\n\
                     \r\n\
                     A,\"f1\",F\r\n\
                     source,fact,vote\r\n\
                     \x20 Alpha,f1,t \r\n\
                     B,f3,f\r\n\
                     A,f1,T\r\n\
                     C,\"f4\",T\r\n\
                     B,f2,F\r\n\
                     # end\r\n";
        let truth = "fact,label\r\n\
                     f4,TRUE\r\n\
                     # labels\r\n\
                     f1,true\r\n\
                     \"f2\",t\r\n\
                     \r\n\
                     f3,F\r\n\
                     zz,TRUE\r\n\
                     f1,0\r\n\
                     aa,1\r\n\
                     fact,label\r\n\
                     zz,f\r\n";
        let ds = dataset_from_csv_full(votes, Some(truth), Some(roster)).unwrap();

        // Roster sources first, then the rest by first appearance.
        let sources: Vec<&str> = ds.sources().map(|s| ds.source_name(s)).collect();
        assert_eq!(sources, ["Zed", "Alpha", "B", "A", "C"]);
        // Voted facts by first appearance, then truth-only facts by name.
        let facts: Vec<&str> = ds.facts().map(|f| ds.fact_name(f)).collect();
        assert_eq!(facts, ["f2", "f1", "f3", "f4", "aa", "zz"]);
        // Duplicate truth rows: the last one wins.
        let labels: Vec<bool> =
            ds.ground_truth().unwrap().iter().map(|(_, l)| l.as_bool()).collect();
        assert_eq!(labels, [true, false, false, true, true, false]);
        // Recasts on non-adjacent lines: the last one wins.
        let (s, f) = (SourceId::new, FactId::new);
        let mut expected = crate::vote::VoteMatrixBuilder::new(5, 6);
        for (source, fact, vote) in [
            (2, 0, Vote::False),
            (3, 1, Vote::True),
            (1, 1, Vote::True),
            (2, 2, Vote::False),
            (4, 3, Vote::True),
        ] {
            expected.cast(s(source), f(fact), vote).unwrap();
        }
        assert_eq!(ds.votes(), &expected.build());

        // Errors: exact text and the physical line number. A bad set of
        // files reports the first failing file in roster, truth, votes order.
        for (votes, truth, roster, message) in [
            ("A,f1\n", None, None, "votes line 1: expected 3 fields, got 2"),
            ("# c\n\nA,f1,T\nA,f1\n", None, None, "votes line 4: expected 3 fields, got 2"),
            ("A,f1,X\n", None, None, "votes line 1: unknown vote \"X\""),
            ("A,f1,yes\n", None, None, "votes line 1: unknown vote \"YES\""),
            ("A,f1,T\n", Some("f1,maybe\n"), None, "truth line 1: unknown label \"maybe\""),
            ("A,f1,T\n", Some("f1,MayBe\n"), None, "truth line 1: unknown label \"maybe\""),
            ("", Some("a,b,c\n"), None, "truth line 1: expected 2 fields, got 3"),
            ("", None, Some("A\nA\n"), "roster line 2: duplicate source \"A\""),
            ("", None, Some("A,B\n"), "roster line 1: expected 1 field, got 2"),
            (
                "A,f1,X\n",
                Some("f1,maybe\n"),
                Some("A\nA\n"),
                "roster line 2: duplicate source \"A\"",
            ),
            ("A,f1,X\n", Some("f1,maybe\n"), None, "truth line 1: unknown label \"maybe\""),
        ] {
            let e = dataset_from_csv_full(votes, truth, roster).unwrap_err();
            assert_eq!(e.to_string(), format!("invalid configuration: {message}"));
        }
        let err = |votes: &str, roster: Option<&str>| {
            dataset_from_csv_full(votes, None, roster).unwrap_err().to_string()
        };
        assert!(err("\"A,f1,T\n", None).ends_with("line 1: unterminated quoted field"));
        assert!(err("", Some("\"A\n")).ends_with("line 1: unterminated quoted field"));
    }

    #[test]
    fn truth_export_requires_ground_truth() {
        let mut b = DatasetBuilder::new();
        b.add_source("s");
        b.add_fact("unlabelled");
        let ds = b.build().unwrap();
        assert!(truth_to_csv(&ds).is_err());
    }
}

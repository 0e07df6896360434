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
//!
//! ## Interning fact names
//!
//! The loader keeps no map keyed by fact name: a million random probes into
//! one would each miss cache. The votes pass registers one provisional fact
//! per run of lines that name the same fact, and records the name's 64-bit
//! hash. The hash is SipHash under [`RandomState`] keys, so crafted names
//! cannot crowd one partition. A radix pass then counting-sorts the hashes
//! by their top bits into partitions of about two thousand entries. Within
//! each partition, a small open-addressing table finds every name's first
//! run. Names are compared only behind equal hashes, so a collision never
//! merges two names. A name that starts several runs merges into its first,
//! which keeps ids in first-appearance order and casts in arrival order.
//! Truth rows attach by a cursor that walks the facts in id order, as
//! [`truth_to_csv`] writes them, and the rows it misses go through one
//! partitioned lookup.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::hash::BuildHasher;

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::CoreError;
use crate::ids::{FactId, SourceId};
use crate::truth::Label;
use crate::vote::{counting_starts, Vote};

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
    // Names are slices of the input (owned only on lines with quotes) and
    // are copied once, appended to the builder's name arenas. The files are
    // read roster, truth, votes: a bad set of files reports the first error
    // in that order.
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

    // Facts are interned without a map keyed by name. A vote line that
    // names the fact of the data line before it reuses that fact; any
    // other line registers a provisional fact and records its name's hash.
    // `RandomState` keys the hash, so crafted names cannot aim at one
    // partition of the merge and lookups below.
    let hasher = RandomState::new();
    let mut hashes: Vec<u64> = Vec::with_capacity(truth.len());
    let mut last = None;
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
        let f = match last {
            Some(f) if b.fact_name(f) == fields[1] => f,
            _ => {
                hashes.push(hasher.hash_one(fields[1].as_ref()));
                let f = b.add_fact(fields[1].as_ref());
                last = Some(f);
                f
            }
        };
        b.cast(s, f, vote)?;
    }
    // The merge and the label lookup index fact runs and truth rows by u32.
    if hashes.len().max(truth.len()) >= EMPTY as usize {
        let message = format!("more than {} fact runs or truth rows", EMPTY - 1);
        return Err(CoreError::InvalidConfig { message });
    }

    // A name that starts more than one run merges into its first run's
    // fact. Files whose vote lines group each fact's votes together, as
    // `votes_to_csv` writes them, have no repeats.
    let first = first_occurrences(&hashes, |i, j| {
        b.fact_name(FactId::new(i)) == b.fact_name(FactId::new(j))
    });
    if first.iter().enumerate().any(|(i, &f)| f as usize != i) {
        let mut is_first = first.iter().enumerate().map(|(i, &f)| f as usize == i);
        hashes.retain(|_| is_first.next() == Some(true));
        hashes.shrink_to_fit();
        b.merge_duplicate_facts(first);
    }

    attach_labels(&mut b, truth, hashes, &hasher);
    b.build()
}

/// Labels the voted facts of `b` from the `truth` rows, last row winning;
/// `hashes` are the voted facts' name hashes under `hasher`.
///
/// A cursor walks the voted facts in id order, the order `truth_to_csv`
/// writes them: a row that names the cursor's fact labels it and moves the
/// cursor on. The rows it misses are looked up together afterwards, each
/// with the cursor at its row, so a miss never overrides a later row's
/// hit. Rows that name no voted fact become voteless facts, added in name
/// order so parsing is deterministic. `truth` and `hashes` are taken by
/// value so that they are freed before the dataset is built.
fn attach_labels(
    b: &mut DatasetBuilder,
    mut truth: Vec<(Cow<'_, str>, Label)>,
    hashes: Vec<u64>,
    hasher: &RandomState,
) {
    let n_voted = b.n_facts();
    let mut next = 0;
    let mut misses = Vec::new();
    for (row, (name, label)) in truth.iter().enumerate() {
        if next < n_voted && b.fact_name(FactId::new(next)) == name {
            b.set_label(FactId::new(next), *label);
            next += 1;
        } else {
            misses.push((row, next));
        }
    }
    let miss_hashes: Vec<u64> =
        misses.iter().map(|&(row, _)| hasher.hash_one(truth[row].0.as_ref())).collect();
    let found =
        find_all(&hashes, &miss_hashes, |f, m| b.fact_name(FactId::new(f)) == truth[misses[m].0].0);
    let mut truth_only = BTreeMap::new();
    for (&(row, cursor), found) in misses.iter().zip(found) {
        let label = truth[row].1;
        match found.map(|f| f as usize) {
            Some(f) if (cursor..next).contains(&f) => {} // a later row hit it
            Some(f) => b.set_label(FactId::new(f), label),
            None => {
                truth_only.insert(std::mem::take(&mut truth[row].0), label);
            }
        }
    }
    for (name, label) in truth_only {
        b.add_fact_with_truth(name, label);
    }
}

/// Partitions hold about this many entries, so that one partition's
/// hashes and its [`Table`] stay in cache.
const PARTITION_ENTRIES: usize = 2048;

/// The number of top hash bits that split `n` entries into partitions of
/// about [`PARTITION_ENTRIES`] (9 bits, 512 partitions, at 755k).
fn partition_bits(n: usize) -> u32 {
    n.div_ceil(PARTITION_ENTRIES).next_power_of_two().trailing_zeros()
}

/// Entries grouped by the top `bits` of their hash, by a counting sort.
/// Partition `p` is `hashes[ends[p - 1]..ends[p]]`, from 0 for the first,
/// with the entries' indices alongside in `items`, ascending within each
/// partition.
struct Partitions {
    ends: Vec<usize>,
    hashes: Vec<u64>,
    items: Vec<u32>,
}

impl Partitions {
    /// Partitions the indices of `hashes` (fewer than `u32::MAX`).
    fn new(hashes: &[u64], bits: u32) -> Self {
        assert!(hashes.len() < EMPTY as usize, "partition entries fit a u32 slot");
        let part = |h: u64| if bits == 0 { 0 } else { (h >> (64 - bits)) as usize };
        let mut ends = counting_starts(1 << bits, hashes.iter().map(|&h| part(h)));
        let mut sorted = vec![0; hashes.len()];
        let mut items = vec![0; hashes.len()];
        for (i, &h) in hashes.iter().enumerate() {
            let slot = &mut ends[part(h)];
            sorted[*slot] = h;
            items[*slot] = i as u32;
            *slot += 1;
        }
        Self { ends, hashes: sorted, items }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Partition `p`: its entries' hashes and indices.
    fn get(&self, p: usize) -> (&[u64], &[u32]) {
        let start = if p == 0 { 0 } else { self.ends[p - 1] };
        (&self.hashes[start..self.ends[p]], &self.items[start..self.ends[p]])
    }
}

/// Marks an empty [`Table`] slot.
const EMPTY: u32 = u32::MAX;

/// An open-addressing table over one partition. A slot holds the index of
/// an entry within the partition, or [`EMPTY`]. The table is at most half
/// full and probed linearly from the hash's low bits (its top bits chose
/// the partition).
#[derive(Default)]
struct Table {
    slots: Vec<u32>,
}

impl Table {
    /// Empties the table and sizes it for `len` entries.
    fn reset(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize((2 * len).next_power_of_two(), EMPTY);
    }

    /// The slot of the first entry whose hash equals `hash` and which
    /// `same` accepts, else the empty slot that ends the probe. `hashes`
    /// are the partition's; `same` sees only entries with an equal hash.
    fn probe(&self, hashes: &[u64], hash: u64, mut same: impl FnMut(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let e = self.slots[slot];
            if e == EMPTY || (hashes[e as usize] == hash && same(e as usize)) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// For each key, the index of the first key equal to it: its own index
/// unless an earlier key is equal. Keys are given by their `hashes`;
/// `same(i, j)` compares keys `i` and `j` and is asked only about keys
/// whose hashes are equal, so keys whose hashes collide stay apart unless
/// `same` says otherwise.
fn first_occurrences(hashes: &[u64], mut same: impl FnMut(usize, usize) -> bool) -> Vec<u32> {
    let parts = Partitions::new(hashes, partition_bits(hashes.len()));
    let mut first = vec![0; hashes.len()];
    let mut table = Table::default();
    for p in 0..parts.len() {
        let (hashes, items) = parts.get(p);
        table.reset(hashes.len());
        // Indices ascend within a partition: the first of equal keys to
        // reach the table is the earliest.
        for (k, (&hash, &item)) in hashes.iter().zip(items).enumerate() {
            let slot = table.probe(hashes, hash, |e| same(items[e] as usize, item as usize));
            first[item as usize] = match table.slots[slot] {
                EMPTY => {
                    table.slots[slot] = k as u32;
                    item
                }
                e => items[e as usize],
            };
        }
    }
    first
}

/// For each query, the index of the key equal to it, if any. Keys and
/// queries are given by their hashes and partitioned alike; the keys must
/// be distinct. `same(key, query)` is asked only when the two hashes are
/// equal.
fn find_all(
    keys: &[u64],
    queries: &[u64],
    mut same: impl FnMut(usize, usize) -> bool,
) -> Vec<Option<u32>> {
    if queries.is_empty() {
        return Vec::new();
    }
    let bits = partition_bits(keys.len());
    let (keys, queries) = (Partitions::new(keys, bits), Partitions::new(queries, bits));
    let mut found = vec![None; queries.items.len()];
    let mut table = Table::default();
    for p in 0..keys.len() {
        let (query_hashes, query_items) = queries.get(p);
        if query_items.is_empty() {
            continue;
        }
        let (key_hashes, key_items) = keys.get(p);
        table.reset(key_hashes.len());
        for (k, &hash) in key_hashes.iter().enumerate() {
            // Keys are distinct: each takes the first empty slot.
            let slot = table.probe(key_hashes, hash, |_| false);
            table.slots[slot] = k as u32;
        }
        for (&hash, &q) in query_hashes.iter().zip(query_items) {
            let slot = table.probe(key_hashes, hash, |e| same(key_items[e] as usize, q as usize));
            let e = table.slots[slot];
            if e != EMPTY {
                found[q as usize] = Some(key_items[e as usize]);
            }
        }
    }
    found
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
    fn partitioned_dedup_and_lookup_compare_names_behind_equal_hashes() {
        // One injected hash for every name: only the names tell them apart.
        let names = ["a", "b", "a", "c", "b", "a"];
        let same = |i: usize, j: usize| names[i] == names[j];
        assert_eq!(first_occurrences(&[7; 6], same), [0, 1, 0, 3, 1, 0]);
        // Equal names merge into the first, whatever their count.
        assert_eq!(first_occurrences(&[7; 5], |_, _| true), [0; 5]);
        assert_eq!(first_occurrences(&[], |_, _| true), [] as [u32; 0]);

        let (keys, queries) = (["a", "b", "c"], ["b", "d", "a", "c"]);
        let found = find_all(&[1; 3], &[1; 4], |k, q| keys[k] == queries[q]);
        assert_eq!(found, [Some(1), None, Some(0), Some(2)]);
        assert_eq!(find_all(&[1; 3], &[], |_, _| true), []);
        assert_eq!(find_all(&[], &[1], |_, _| true), [None]);
    }

    #[test]
    fn partitioned_dedup_and_lookup_span_many_partitions() {
        // 6,000 keys over 4 partitions, every one of them used; key i
        // names i % 2,000, and equal names hash alike.
        let name = |i: usize| i % 2_000;
        let hash = |n: usize| (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (n as u64);
        let hashes: Vec<u64> = (0..6_000).map(|i| hash(name(i))).collect();
        let bits = partition_bits(hashes.len());
        assert_eq!(bits, 2);
        let parts = Partitions::new(&hashes, bits);
        assert!((0..parts.len()).all(|p| !parts.get(p).0.is_empty()));
        let first = first_occurrences(&hashes, |i, j| name(i) == name(j));
        assert!(first.iter().enumerate().all(|(i, &f)| f as usize == name(i)));

        let keys: Vec<u64> = (0..2_000).map(hash).collect();
        let queries: Vec<u64> = (0..3_000).rev().map(hash).collect();
        let found = find_all(&keys, &queries, |k, q| k == 2_999 - q);
        for (q, found) in found.into_iter().enumerate() {
            let n = 2_999 - q;
            assert_eq!(found, (n < 2_000).then_some(n as u32), "query {q}");
        }
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

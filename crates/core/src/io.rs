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
//!
//! ## Two parts on two threads
//!
//! The votes text is cut in two just past a `\n`, so that the head is
//! about as long as the tail and the truth file together. The calling
//! thread reads the head; one scoped thread reads the truth file and then
//! the tail, each part into a builder, a source map and a hash list of its
//! own. A cut just past a `\n` never splits a record: the reader splits
//! lines before it reads quotes, so no field spans a `\n`, and a `\n` byte
//! is never part of a multi-byte character. The tail numbers its lines
//! from the head's line count, so its errors name the same line.
//!
//! The join on the calling thread then builds what one pass would have.
//! The tail's new sources follow the head's in the tail's order of first
//! appearance. If the tail's first fact has the head's last fact's name,
//! one run of lines was cut in two, and it stays one fact with one hash.
//! The tail's facts follow the head's, and its casts follow the head's in
//! arrival order, so the last writer still wins. Errors are reported in
//! the order roster, truth, head, tail: a bad set of files names the line
//! one pass would stop at. The load always makes two parts, whatever the
//! files' size.

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

/// Escapes a name as a field of this module's CSV dialect: quotes it when
/// it contains a comma, quote or newline, or when the reader's trimming,
/// comment skipping or blank-line skipping would otherwise change it.
///
/// ```
/// use corroborate_core::io::escape_field;
///
/// assert_eq!(escape_field("plain"), "plain");
/// assert_eq!(escape_field("a,b"), "\"a,b\"");
/// assert_eq!(escape_field(" pad"), "\" pad\"");
/// assert_eq!(escape_field("#h"), "\"#h\"");
/// ```
pub fn escape_field(field: &str) -> String {
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
/// `expected` of them. One pass over the bytes borrows a slice of the line
/// at each comma. At the first quote, the line is unescaped from its start
/// instead (double-quoted fields, `""` escapes) into owned fields.
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
    let mut start = 0;
    for (i, &byte) in line.as_bytes().iter().enumerate() {
        match byte {
            b',' => {
                fields.push(Cow::Borrowed(&line[start..i]));
                start = i + 1;
            }
            b'"' => return unquote_line(line, file, line_no, expected, fields),
            _ => {}
        }
    }
    fields.push(Cow::Borrowed(&line[start..]));
    check_field_count(file, line_no, expected, fields.len())
}

/// [`split_line`] for a line with quotes: unescapes every field into an
/// owned one.
fn unquote_line(
    line: &str,
    file: &str,
    line_no: usize,
    expected: usize,
    fields: &mut Vec<Cow<'_, str>>,
) -> Result<(), CoreError> {
    fields.clear();
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
    check_field_count(file, line_no, expected, fields.len())
}

/// The error for a line of a `file` split into `got` fields, if `expected`
/// differs.
fn check_field_count(
    file: &str,
    line_no: usize,
    expected: usize,
    got: usize,
) -> Result<(), CoreError> {
    if got != expected {
        let plural = if expected == 1 { "" } else { "s" };
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
            out.push_str(&escape_field(dataset.source_name(sv.source)));
            out.push(',');
            out.push_str(&escape_field(dataset.fact_name(f)));
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
        out.push_str(&escape_field(dataset.fact_name(f)));
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
        out.push_str(&escape_field(dataset.source_name(s)));
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
    let truth_csv = truth_csv.unwrap_or("");
    let cut = cut_point(votes_csv, truth_csv.len());
    load(votes_csv, truth_csv, sources_csv.unwrap_or(""), cut)
}

/// Where [`dataset_from_csv_full`] cuts a votes text in two: just past the
/// first `\n` at or after the byte that would make the head as long as the
/// tail and `truth_len` bytes of truth text together, or at the text's end
/// when no `\n` follows that byte. The offset is found in the bytes, and no
/// multi-byte character holds a `\n` byte, so the cut is a character
/// boundary.
fn cut_point(votes: &str, truth_len: usize) -> usize {
    let target = (votes.len() + truth_len) / 2;
    let rest = votes.as_bytes().get(target..).unwrap_or_default();
    rest.iter().position(|&c| c == b'\n').map_or(votes.len(), |i| target + i + 1)
}

/// The number of `\n` bytes in `text`. Counting in one-byte lanes, 255
/// bytes at a time so that a lane cannot overflow, lets the compiler
/// vectorize the loop; a `usize` count per byte ran about five times
/// slower.
fn count_newlines(text: &str) -> usize {
    let lanes = |chunk: &[u8]| chunk.iter().map(|&c| u8::from(c == b'\n')).sum::<u8>();
    text.as_bytes().chunks(255).map(|chunk| usize::from(lanes(chunk))).sum()
}

/// [`dataset_from_csv_full`] with the votes text cut at byte `cut`: 0, the
/// text's length, or just past a `\n`. The calling thread reads the roster
/// and the head; one scoped thread reads the truth text and then the tail.
fn load<'a>(
    votes: &'a str,
    truth: &'a str,
    roster: &'a str,
    cut: usize,
) -> Result<Dataset, CoreError> {
    let (head_text, tail_text) = votes.split_at(cut);
    let (head_lines, tail_lines, truth_lines) =
        (count_newlines(head_text), count_newlines(tail_text), count_newlines(truth));
    // The cast lists and the truth rows are sized from line counts here, on
    // the calling thread, so that none of them grows on the other thread.
    // Once an earlier load has freed its large buffers, the allocator
    // serves later ones from heap memory that stays resident and grows
    // them by copying; grown there, they raised the peak of every load
    // after the first by about 10 MB at a million facts.
    let mut head = Part::new(head_lines + 1);
    head.read_roster(roster)?;
    let tail = Part::new(tail_lines + 1);
    let rows = TruthRows::new(truth, truth_lines + 1);

    // `RandomState` keys the name hashes, so crafted names cannot aim at
    // one partition of the merge and lookups below. Both parts hash alike.
    let hasher = RandomState::new();
    let other = |mut rows: TruthRows<'a>, mut tail: Part<'a>| {
        let rows = rows.read_rows().map(|()| rows);
        let tail = tail.read_votes(tail_text, head_lines, &hasher).map(|()| tail);
        (rows, tail)
    };
    let (head_read, (rows, tail)) = std::thread::scope(|scope| {
        let spawned = std::thread::Builder::new().spawn_scoped(scope, move || other(rows, tail));
        let head_read = head.read_votes(head_text, 0, &hasher);
        let other_read = match spawned {
            Ok(thread) => thread.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(_) => other(TruthRows::new(truth, truth_lines + 1), Part::new(tail_lines + 1)),
        };
        (head_read, other_read)
    });
    // The first error in the order one pass would meet it.
    let rows = rows?;
    head_read?;
    head.join(tail?);
    let (mut b, mut hashes) = (head.b, head.hashes);
    // The merge and the label lookup index fact runs and truth rows by u32.
    if hashes.len().max(rows.len()) >= EMPTY as usize {
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

    attach_labels(&mut b, rows, hashes, &hasher);
    b.build()
}

/// One part of a votes file, read into a builder of its own, with the
/// sources it registered by name and the name hash of each fact it
/// registered. Names are slices of the input (owned only on lines with
/// quotes) and are copied once, into the builder's name arenas.
struct Part<'a> {
    b: DatasetBuilder,
    sources: HashMap<Cow<'a, str>, SourceId>,
    hashes: Vec<u64>,
}

impl<'a> Part<'a> {
    /// An empty part with room for `casts` casts.
    fn new(casts: usize) -> Self {
        let mut b = DatasetBuilder::new();
        b.reserve_casts(casts);
        Self { b, sources: HashMap::new(), hashes: Vec::new() }
    }

    /// Registers the sources of a roster text, in its order.
    fn read_roster(&mut self, roster: &'a str) -> Result<(), CoreError> {
        let mut fields = Vec::new();
        for (line_no, line) in records(roster) {
            split_line(line, "roster", line_no, 1, &mut fields)?;
            if fields[0] == "source" {
                // Header row (wherever comments put it).
                continue;
            }
            match self.sources.entry(std::mem::take(&mut fields[0])) {
                Entry::Occupied(e) => {
                    return Err(line_error(
                        "roster",
                        line_no,
                        format!("duplicate source {:?}", e.key()),
                    ))
                }
                Entry::Vacant(e) => {
                    let s = self.b.add_source(e.key().as_ref());
                    e.insert(s);
                }
            }
        }
        Ok(())
    }

    /// Reads the vote lines of `text`, which follows `lines_before` lines of
    /// the votes file.
    ///
    /// Facts are interned without a map keyed by name. A line that names
    /// the fact of the data line before it reuses that fact; any other line
    /// registers a provisional fact and records its name's hash.
    fn read_votes(
        &mut self,
        text: &'a str,
        lines_before: usize,
        hasher: &RandomState,
    ) -> Result<(), CoreError> {
        let mut fields = Vec::new();
        let mut last = None;
        for (line_no, line) in records(text) {
            let line_no = lines_before + line_no;
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
            let s = *self
                .sources
                .entry(std::mem::take(&mut fields[0]))
                .or_insert_with_key(|name| self.b.add_source(name.as_ref()));
            let f = match last {
                Some(f) if self.b.fact_name(f) == fields[1] => f,
                _ => {
                    self.hashes.push(hasher.hash_one(fields[1].as_ref()));
                    let f = self.b.add_fact(fields[1].as_ref());
                    last = Some(f);
                    f
                }
            };
            self.b.cast(s, f, vote)?;
        }
        Ok(())
    }

    /// Appends `tail`, the part that read the rest of the votes file, so
    /// that this part holds what it would have read from both. The tail's
    /// new sources follow this part's in the tail's order of first
    /// appearance. If the tail's first fact has this part's last fact's
    /// name, one run of lines was cut in two: it stays one fact, and the
    /// tail's hash of it is dropped. Names the parts share otherwise are
    /// left to the merge.
    fn join(&mut self, tail: Part<'_>) {
        let sources: Vec<SourceId> = (0..tail.b.n_sources())
            .map(|s| {
                let name = tail.b.source_name(SourceId::new(s));
                match self.sources.get(name) {
                    Some(&id) => id,
                    None => self.b.add_source(name),
                }
            })
            .collect();
        let n = self.b.n_facts();
        let joined = n > 0
            && tail.b.n_facts() > 0
            && self.b.fact_name(FactId::new(n - 1)) == tail.b.fact_name(FactId::new(0));
        // Exact room rather than doubled capacity, here and in the name
        // arena: after a first load, doubled buffers missed the heap's free
        // space and raised the peak of later loads by about 4 MB at a
        // million facts.
        self.hashes.reserve_exact(tail.hashes.len());
        self.hashes.extend_from_slice(&tail.hashes[usize::from(joined)..]);
        self.b.append(tail.b, &sources, joined);
    }
}

/// The rows of a truth file, nine bytes each: the byte range of a name and
/// its label. A range below the text's length addresses the text; one past
/// it addresses `unquoted`, which holds the names unescaped from quotes, as
/// if it followed the text.
struct TruthRows<'a> {
    text: &'a str,
    unquoted: String,
    names: Vec<[u32; 2]>,
    labels: Vec<Label>,
}

impl<'a> TruthRows<'a> {
    /// No rows yet of `text`, with room for `rows` of them.
    fn new(text: &'a str, rows: usize) -> Self {
        let (names, labels) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        Self { text, unquoted: String::new(), names, labels }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    /// The name on `row`.
    fn name(&self, row: usize) -> &str {
        let [start, end] = self.names[row].map(|offset| offset as usize);
        match start.checked_sub(self.text.len()) {
            Some(start) => &self.unquoted[start..end - self.text.len()],
            None => &self.text[start..end],
        }
    }

    /// Reads the rows of the text.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on a malformed line, an unknown label,
    /// or names that reach past byte `u32::MAX` of the text and the
    /// unquoted names together.
    fn read_rows(&mut self) -> Result<(), CoreError> {
        let text = self.text;
        let mut fields = Vec::new();
        for (line_no, line) in records(text) {
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
            // A borrowed name is a slice of `text`.
            let start = match &fields[0] {
                Cow::Borrowed(name) => name.as_ptr().addr() - text.as_ptr().addr(),
                Cow::Owned(name) => {
                    self.unquoted.push_str(name);
                    text.len() + self.unquoted.len() - name.len()
                }
            };
            let Ok(end) = u32::try_from(start + fields[0].len()) else {
                let message = format!("more than {} bytes of truth names", u32::MAX);
                return Err(CoreError::InvalidConfig { message });
            };
            self.names.push([start as u32, end]);
            self.labels.push(label);
        }
        Ok(())
    }
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
    truth: TruthRows<'_>,
    hashes: Vec<u64>,
    hasher: &RandomState,
) {
    let n_voted = b.n_facts();
    let mut next = 0;
    let mut misses = Vec::new();
    for (row, &label) in truth.labels.iter().enumerate() {
        if next < n_voted && b.fact_name(FactId::new(next)) == truth.name(row) {
            b.set_label(FactId::new(next), label);
            next += 1;
        } else {
            misses.push((row, next));
        }
    }
    let miss_hashes: Vec<u64> =
        misses.iter().map(|&(row, _)| hasher.hash_one(truth.name(row))).collect();
    let found = find_all(&hashes, &miss_hashes, |f, m| {
        b.fact_name(FactId::new(f)) == truth.name(misses[m].0)
    });
    let mut truth_only = BTreeMap::new();
    for (&(row, cursor), found) in misses.iter().zip(found) {
        let label = truth.labels[row];
        match found.map(|f| f as usize) {
            Some(f) if (cursor..next).contains(&f) => {} // a later row hit it
            Some(f) => b.set_label(FactId::new(f), label),
            None => {
                truth_only.insert(truth.name(row), label);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    // The files of `loader_contract_is_pinned`: CRLF throughout; a header
    // mid-file, comments, blank lines and padded lines in every file; "f1"
    // and f1 name one fact.
    const CONTRACT_ROSTER: &str = "# feeds\r\nsource\r\nZed\r\n\"Alpha\"\r\n";
    const CONTRACT_VOTES: &str = "# crawl, Feb 2012\r\n\
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
    const CONTRACT_TRUTH: &str = "fact,label\r\n\
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

    /// The bad file sets of `loader_contract_is_pinned` (votes, truth,
    /// roster) and the error each gives.
    const CONTRACT_ERRORS: [(&str, Option<&str>, Option<&str>, &str); 11] = [
        ("A,f1\n", None, None, "votes line 1: expected 3 fields, got 2"),
        ("# c\n\nA,f1,T\nA,f1\n", None, None, "votes line 4: expected 3 fields, got 2"),
        ("A,f1,X\n", None, None, "votes line 1: unknown vote \"X\""),
        ("A,f1,yes\n", None, None, "votes line 1: unknown vote \"YES\""),
        ("A,f1,T\n", Some("f1,maybe\n"), None, "truth line 1: unknown label \"maybe\""),
        ("A,f1,T\n", Some("f1,MayBe\n"), None, "truth line 1: unknown label \"maybe\""),
        ("", Some("a,b,c\n"), None, "truth line 1: expected 2 fields, got 3"),
        ("", None, Some("A\nA\n"), "roster line 2: duplicate source \"A\""),
        ("", None, Some("A,B\n"), "roster line 1: expected 1 field, got 2"),
        ("A,f1,X\n", Some("f1,maybe\n"), Some("A\nA\n"), "roster line 2: duplicate source \"A\""),
        ("A,f1,X\n", Some("f1,maybe\n"), None, "truth line 1: unknown label \"maybe\""),
    ];

    #[test]
    fn loader_contract_is_pinned() {
        let (roster, votes, truth) = (CONTRACT_ROSTER, CONTRACT_VOTES, CONTRACT_TRUTH);
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
        for (votes, truth, roster, message) in CONTRACT_ERRORS {
            let e = dataset_from_csv_full(votes, truth, roster).unwrap_err();
            assert_eq!(e.to_string(), format!("invalid configuration: {message}"));
        }
        let err = |votes: &str, roster: Option<&str>| {
            dataset_from_csv_full(votes, None, roster).unwrap_err().to_string()
        };
        assert!(err("\"A,f1,T\n", None).ends_with("line 1: unterminated quoted field"));
        assert!(err("", Some("\"A\n")).ends_with("line 1: unterminated quoted field"));
    }

    /// What a load gives, as text: the dataset's `Debug` form or the error.
    fn outcome(loaded: Result<Dataset, CoreError>) -> String {
        match loaded {
            Ok(ds) => format!("{ds:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Loads the files with the votes text cut at every line boundary and
    /// checks that each cut gives what one part gives.
    fn assert_every_cut_loads_alike(votes: &str, truth: &str, roster: &str) {
        let one_part = outcome(load(votes, truth, roster, votes.len()));
        let newlines = votes.bytes().enumerate().filter(|&(_, c)| c == b'\n');
        for cut in std::iter::once(0).chain(newlines.map(|(i, _)| i + 1)) {
            let got = outcome(load(votes, truth, roster, cut));
            assert_eq!(
                got, one_part,
                "cut at byte {cut}\nvotes:\n{votes}\ntruth:\n{truth}\nroster:\n{roster}"
            );
        }
    }

    #[test]
    fn every_cut_of_the_contract_files_loads_like_one_part() {
        assert_every_cut_loads_alike(CONTRACT_VOTES, CONTRACT_TRUTH, CONTRACT_ROSTER);
        assert_every_cut_loads_alike(CONTRACT_VOTES, "", "");
        for (votes, truth, roster, _) in CONTRACT_ERRORS {
            assert_every_cut_loads_alike(votes, truth.unwrap_or(""), roster.unwrap_or(""));
        }
        // Errors in the head, the tail and both, with a mid-file header
        // and a source first seen after every cut.
        let votes = "A,f1,T\nsource,fact,vote\nB,f1,X\nA,f2,T\n\"C,f2,T\nD,f2,F\n";
        assert_every_cut_loads_alike(votes, CONTRACT_TRUTH, "");
        assert_every_cut_loads_alike("A,f1,T\r\nA,f2,F\r\nB,f1,T\r\nE,f1", "", "B\n");
    }

    /// `name` as a field: quoted where the dialect needs it, and at random
    /// elsewhere.
    fn field(rng: &mut StdRng, name: &str) -> String {
        if escape_field(name) != name || rng.gen_bool(0.25) {
            format!("\"{}\"", name.replace('"', "\"\""))
        } else {
            name.to_string()
        }
    }

    /// A small random votes, truth and roster text. Lines are CRLF in half
    /// the sets and may be padded; headers, comments and blank lines fall
    /// mid-file; names are quoted where they must be and at random
    /// elsewhere. Half the vote lines keep the fact of the line before, so
    /// runs are often cut in two. In one set in three, one line in eight
    /// is bad: an unterminated quote, an extra field, or a bad vote or
    /// label.
    fn random_files(rng: &mut StdRng) -> [String; 3] {
        const SOURCES: [&str; 5] = ["A", "B", "s,1", " S", "C"];
        const FACTS: [&str; 9] = ["f1", "f2", "x y", "z,z", "q\"t", " pad", "#h", "", "é"];
        let eol = ["\n", "\r\n"][rng.gen_range(0..2)];
        let bad = rng.gen_bool(1.0 / 3.0);
        let (mut fact, roster_start) = (0, rng.gen_range(0..SOURCES.len()));
        let mut files = [String::new(), String::new(), String::new()];
        for (file, out) in files.iter_mut().enumerate() {
            for line in 0..rng.gen_range(0..[24, 12, 4][file]) {
                let header = ["source,fact,vote", "fact,label", "source"][file];
                if let Some(decor) =
                    [header, "# a comment, \"quoted\"", ""].get(rng.gen_range(0..12))
                {
                    out.push_str(decor);
                    out.push_str(eol);
                    continue;
                }
                if rng.gen_bool(0.5) {
                    fact = rng.gen_range(0..FACTS.len());
                }
                let mut text = match file {
                    0 => {
                        let source = SOURCES[rng.gen_range(0..SOURCES.len())];
                        let source = field(rng, source);
                        let vote = ["T", "F", "t", "f"][rng.gen_range(0..4)];
                        format!("{source},{},{vote}", field(rng, FACTS[fact]))
                    }
                    1 => {
                        let label = ["true", "F", "1", "0"][rng.gen_range(0..4)];
                        format!("{},{label}", field(rng, FACTS[fact]))
                    }
                    // Roster names are distinct: a duplicate would fail
                    // before any part is read.
                    _ => field(rng, SOURCES[(roster_start + line) % SOURCES.len()]),
                };
                if bad && rng.gen_bool(0.125) {
                    text = match rng.gen_range(0..3) {
                        0 => format!("\"{text}"),
                        1 => format!("x,{text}"),
                        _ => format!("{text}X"),
                    };
                }
                let pad = ["", "  "][rng.gen_range(0..2)];
                out.push_str(&format!("{pad}{text}{pad}{eol}"));
            }
        }
        if rng.gen_bool(0.25) {
            // No newline at the end of the votes text.
            files[0].truncate(files[0].trim_end().len());
        }
        files
    }

    #[test]
    #[cfg_attr(miri, ignore = "thousands of loads; Miri sweeps the contract files")]
    fn every_cut_of_random_file_sets_loads_like_one_part() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..400 {
            let [votes, truth, roster] = random_files(&mut rng);
            assert_every_cut_loads_alike(&votes, &truth, &roster);
        }
    }

    #[test]
    fn a_run_cut_in_two_stays_one_fact_before_the_merge() {
        // f1's run spans the cut; C is first seen in the tail.
        let (head_text, tail_text) = ("A,f1,T\n", "C,f1,F\nB,f1,T\nA,f2,T\n");
        let hasher = RandomState::new();
        let mut head = Part::new(2);
        head.read_roster("B\n").unwrap();
        head.read_votes(head_text, 0, &hasher).unwrap();
        let mut tail = Part::new(4);
        tail.read_votes(tail_text, 1, &hasher).unwrap();
        assert_eq!((head.b.n_facts(), tail.b.n_facts()), (1, 2));
        head.join(tail);
        // One fact and one hash per run, as one pass gives, so the merge
        // has no repeat to find.
        assert_eq!((head.b.n_facts(), head.hashes.len()), (2, 2));
        assert_eq!(first_occurrences(&head.hashes, |i, j| i == j), [0, 1]);
        let ds = head.b.build().unwrap();
        let sources: Vec<&str> = ds.sources().map(|s| ds.source_name(s)).collect();
        assert_eq!(sources, ["B", "A", "C"]);
        assert_eq!(ds.votes().votes_on(FactId::new(0)).len(), 3);
        assert_eq!(ds.votes().vote(SourceId::new(2), FactId::new(0)), Some(Vote::False));
        assert_eq!(ds.votes().vote(SourceId::new(1), FactId::new(1)), Some(Vote::True));
    }

    #[test]
    fn newlines_are_counted_across_lane_chunks() {
        assert_eq!(count_newlines(""), 0);
        assert_eq!(count_newlines("a\r\nb\nc"), 2);
        // Runs of newlines longer than a chunk, and multi-byte characters.
        let text = "\n".repeat(1_000) + &"é,\n".repeat(300);
        assert_eq!(count_newlines(&text), 1_300);
    }

    #[test]
    fn the_cut_falls_just_past_a_newline() {
        // Empty input, and no newline at or after the target: one part.
        assert_eq!(cut_point("", 0), 0);
        assert_eq!(cut_point("", 9), 0);
        assert_eq!(cut_point("A,f1,T", 0), 6);
        // The target, (13 + 0) / 2 = 6, is the `\n` itself.
        assert_eq!(cut_point("A,f1,T\nB,f2,F", 0), 7);
        // Otherwise the cut is past the next `\n`.
        assert_eq!(cut_point("A,f1,T\nB,f2,F\nC,f3,T\n", 0), 14);
        // The truth text moves the target; a long one leaves every line
        // to the head.
        assert_eq!(cut_point("A,f1,T\nB,f2,F\nC,f3,T\n", 10), 21);
        assert_eq!(cut_point("A,f1,T\nB,f2,F\n", 100), 14);
        // CRLF: a target on the `\r` or on the `\n` cuts past the `\n`.
        let crlf = "A,f1,T\r\nB,f2,F\r\nC,f3,T\r\n";
        assert_eq!(crlf.as_bytes()[14..16], *b"\r\n");
        assert_eq!(cut_point(crlf, 0), 16);
        assert_eq!(cut_point(crlf, 4), 16);
        assert_eq!(cut_point(crlf, 6), 16);
        // A name of three-byte characters straddles the target: the cut
        // is past the line's `\n`, a character boundary.
        let votes = "A,寿司寿司寿司,T\nB,f2,T\n";
        assert!(!votes.is_char_boundary(votes.len() / 2));
        let cut = cut_point(votes, 0);
        assert_eq!(&votes[..cut], "A,寿司寿司寿司,T\n");
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

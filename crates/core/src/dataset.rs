//! Datasets: named sources + facts + the vote matrix, with optional ground
//! truth and optional multi-answer question structure.

use crate::error::CoreError;
use crate::ids::{FactId, SourceId};
use crate::questions::QuestionStructure;
use crate::truth::{Label, TruthAssignment};
use crate::vote::{SourceVote, Vote, VoteMatrix, VoteMatrixBuilder};

/// Names packed end to end in one string: name `i` is
/// `text[ends[i - 1]..ends[i]]`, from 0 for the first. A million names are
/// two allocations, not a million.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    ends: Vec<usize>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends `name` and returns its index.
    fn push(&mut self, name: &str) -> usize {
        self.text.push_str(name);
        self.ends.push(self.text.len());
        self.ends.len() - 1
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Appends the names of `other` from index `skip` on, in order,
    /// reserving exactly the room they take.
    fn extend_from(&mut self, other: &Names, skip: usize) {
        let start = if skip == 0 { 0 } else { other.ends[skip - 1] };
        let base = self.text.len();
        self.text.reserve_exact(other.text.len() - start);
        self.ends.reserve_exact(other.ends.len() - skip);
        self.text.push_str(&other.text[start..]);
        self.ends.extend(other.ends[skip..].iter().map(|&end| base + end - start));
    }

    /// Keeps the names at the indices `keep` accepts, in order, compacting
    /// the arena in place and releasing what it no longer needs.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut text = std::mem::take(&mut self.text).into_bytes();
        let (mut start, mut write, mut kept) = (0, 0, 0);
        for i in 0..self.ends.len() {
            let end = self.ends[i];
            if keep(i) {
                text.copy_within(start..end, write);
                write += end - start;
                self.ends[kept] = write;
                kept += 1;
            }
            start = end;
        }
        text.truncate(write);
        text.shrink_to_fit();
        self.ends.truncate(kept);
        self.ends.shrink_to_fit();
        self.text = String::from_utf8(text).expect("whole names keep the text valid UTF-8");
    }
}

/// A corroboration problem instance.
///
/// A dataset owns:
/// - the source names (indexable by [`SourceId`]), in one arena;
/// - the fact names (indexable by [`FactId`]), in another;
/// - the immutable [`VoteMatrix`];
/// - optionally, the ground-truth [`TruthAssignment`] (used for evaluation
///   only — algorithms never read it);
/// - optionally, a [`QuestionStructure`] grouping facts into
///   mutually-exclusive answers.
///
/// Construct with [`DatasetBuilder`].
#[derive(Debug, Clone)]
pub struct Dataset {
    source_names: Names,
    fact_names: Names,
    votes: VoteMatrix,
    ground_truth: Option<TruthAssignment>,
    questions: Option<QuestionStructure>,
}

impl Dataset {
    /// A dataset from names, labels and vote rows already in canonical
    /// form: `sources` in id order, `facts` in id order with their labels,
    /// and each fact's votes as [`VoteMatrix::from_fact_rows`] takes them.
    /// Ground truth attaches only when every fact is labelled, as with
    /// [`DatasetBuilder::build`].
    ///
    /// # Errors
    /// [`CoreError::LengthMismatch`] unless there is one row per fact, and
    /// whatever [`VoteMatrix::from_fact_rows`] refuses.
    pub fn from_fact_rows<'a>(
        sources: impl IntoIterator<Item = &'a str>,
        facts: impl IntoIterator<Item = (&'a str, Option<Label>)>,
        fact_ends: Vec<usize>,
        by_fact: Vec<SourceVote>,
    ) -> Result<Dataset, CoreError> {
        let mut source_names = Names::default();
        for name in sources {
            source_names.push(name);
        }
        let mut fact_names = Names::default();
        let mut truth = Vec::with_capacity(fact_ends.len());
        for (name, label) in facts {
            fact_names.push(name);
            truth.push(label);
        }
        if truth.len() != fact_ends.len() {
            return Err(CoreError::LengthMismatch {
                what: "fact vote rows",
                expected: truth.len(),
                actual: fact_ends.len(),
            });
        }
        Ok(Dataset {
            votes: VoteMatrix::from_fact_rows(source_names.len(), fact_ends, by_fact)?,
            source_names,
            fact_names,
            ground_truth: full_truth(&truth),
            questions: None,
        })
    }

    /// Number of sources.
    #[inline]
    pub fn n_sources(&self) -> usize {
        self.source_names.len()
    }

    /// Number of facts.
    #[inline]
    pub fn n_facts(&self) -> usize {
        self.fact_names.len()
    }

    /// The vote matrix.
    #[inline]
    pub fn votes(&self) -> &VoteMatrix {
        &self.votes
    }

    /// Name of `source`.
    pub fn source_name(&self, source: SourceId) -> &str {
        self.source_names.get(source.index())
    }

    /// Name of `fact`.
    pub fn fact_name(&self, fact: FactId) -> &str {
        self.fact_names.get(fact.index())
    }

    /// Ground truth, if attached.
    pub fn ground_truth(&self) -> Option<&TruthAssignment> {
        self.ground_truth.as_ref()
    }

    /// Ground truth, or an error naming the missing component.
    pub fn require_ground_truth(&self) -> Result<&TruthAssignment, CoreError> {
        self.ground_truth.as_ref().ok_or(CoreError::MissingComponent { what: "ground truth" })
    }

    /// Question structure, if attached.
    pub fn questions(&self) -> Option<&QuestionStructure> {
        self.questions.as_ref()
    }

    /// Question structure, or an error naming the missing component.
    pub fn require_questions(&self) -> Result<&QuestionStructure, CoreError> {
        self.questions.as_ref().ok_or(CoreError::MissingComponent { what: "question structure" })
    }

    /// Iterator over all source ids.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        (0..self.n_sources()).map(SourceId::new)
    }

    /// Iterator over all fact ids.
    pub fn facts(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.n_facts()).map(FactId::new)
    }

    /// The *empirical accuracy* of `source` against the ground truth: the
    /// fraction of its votes whose polarity matches the true label.
    /// Returns `None` when the source casts no votes.
    ///
    /// This is the `t(s_i)` of the paper's Equation (10); Table 3 reports it
    /// per source over the golden set.
    pub fn source_accuracy(&self, source: SourceId) -> Result<Option<f64>, CoreError> {
        let truth = self.require_ground_truth()?;
        let votes = self.votes.votes_by(source);
        if votes.is_empty() {
            return Ok(None);
        }
        let correct =
            votes.iter().filter(|fv| fv.vote.as_bool() == truth.label(fv.fact).as_bool()).count();
        Ok(Some(correct as f64 / votes.len() as f64))
    }

    /// Empirical accuracy of every source (see [`Self::source_accuracy`]);
    /// silent sources get `None`.
    pub fn source_accuracies(&self) -> Result<Vec<Option<f64>>, CoreError> {
        self.sources().map(|s| self.source_accuracy(s)).collect()
    }

    /// Coverage of `source`: fraction of all facts it votes on.
    pub fn source_coverage(&self, source: SourceId) -> f64 {
        if self.n_facts() == 0 {
            return 0.0;
        }
        self.votes.votes_by(source).len() as f64 / self.n_facts() as f64
    }

    /// Jaccard overlap of two sources' vote supports:
    /// `|facts(a) ∩ facts(b)| / |facts(a) ∪ facts(b)|`.
    ///
    /// This is the "source overlap" of the paper's Table 3. Returns 0 when
    /// both sources are silent (by convention `J(∅, ∅) = 0`, except
    /// `J(s, s) = 1` for a voting source).
    pub fn source_overlap(&self, a: SourceId, b: SourceId) -> f64 {
        let va = self.votes.votes_by(a);
        let vb = self.votes.votes_by(b);
        if va.is_empty() && vb.is_empty() {
            return if a == b { 1.0 } else { 0.0 };
        }
        // Both posting lists are sorted by fact id: merge-count.
        let mut i = 0;
        let mut j = 0;
        let mut inter = 0usize;
        while i < va.len() && j < vb.len() {
            match va[i].fact.cmp(&vb[j].fact) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = va.len() + vb.len() - inter;
        inter as f64 / union as f64
    }

    /// Restricts the dataset to `facts` (in the given order), remapping fact
    /// ids to `0..facts.len()`. Sources are kept as-is. Ground truth and
    /// question structure (if any) are projected; questions that lose all
    /// facts are dropped and the remaining ones re-densified.
    ///
    /// Used to evaluate algorithms on a golden subset, exactly as the paper
    /// evaluates on its 601-listing golden set.
    pub fn project_facts(&self, facts: &[FactId]) -> Result<Dataset, CoreError> {
        for &f in facts {
            if f.index() >= self.n_facts() {
                return Err(CoreError::IdOutOfRange {
                    kind: "fact",
                    index: f.index(),
                    len: self.n_facts(),
                });
            }
        }
        let mut b = DatasetBuilder::new();
        for s in self.sources() {
            b.add_source(self.source_name(s));
        }
        let truth = self.ground_truth.as_ref();
        for &f in facts {
            let label = truth.map(|t| t.label(f));
            b.add_fact_full(self.fact_name(f), label);
        }
        for (new_idx, &f) in facts.iter().enumerate() {
            for sv in self.votes.votes_on(f) {
                b.cast(sv.source, FactId::new(new_idx), sv.vote)?;
            }
        }
        // Project question structure: keep relative grouping via old ids.
        if let Some(q) = &self.questions {
            let mut remap: Vec<Option<usize>> = vec![None; q.n_questions()];
            let mut next = 0usize;
            let mut assignments = Vec::with_capacity(facts.len());
            for &f in facts {
                let old_q = q.question_of(f).index();
                let new_q = *remap[old_q].get_or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                });
                assignments.push(crate::ids::QuestionId::new(new_q));
            }
            b.set_question_assignments(assignments);
        }
        b.build()
    }

    /// Merges two datasets (e.g. two crawls of the same domain), matching
    /// sources and facts **by name**: the union of both source sets and
    /// both fact sets, with all votes replayed — `other`'s vote wins when
    /// both datasets have the same source voting on the same fact (the
    /// newer crawl overrides the older, matching the builder's
    /// last-writer-wins semantics).
    ///
    /// Ground truth is kept only when every fact of the result has a label
    /// and overlapping facts agree. Question structures are not merged.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] when the two datasets carry
    /// contradicting ground-truth labels for the same fact name.
    pub fn merge(&self, other: &Dataset) -> Result<Dataset, CoreError> {
        use std::collections::HashMap;
        let mut b = DatasetBuilder::new();
        let mut source_ids: HashMap<&str, SourceId> = HashMap::new();
        let mut fact_ids: HashMap<&str, FactId> = HashMap::new();

        for ds in [self, other] {
            for s in ds.sources() {
                let name = ds.source_name(s);
                if !source_ids.contains_key(name) {
                    source_ids.insert(name, b.add_source(name));
                }
            }
        }
        for ds in [self, other] {
            let truth = ds.ground_truth();
            for f in ds.facts() {
                let name = ds.fact_name(f);
                let label = truth.map(|t| t.label(f));
                match fact_ids.get(name) {
                    None => {
                        let id = b.add_fact_full(name, label);
                        fact_ids.insert(name, id);
                    }
                    Some(&id) => {
                        if let (Some(new), Some(old)) = (label, b.truth[id.index()]) {
                            if new != old {
                                return Err(CoreError::InvalidConfig {
                                    message: format!(
                                        "merge conflict: fact {name:?} labelled {old:?} and {new:?}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        for ds in [self, other] {
            for f in ds.facts() {
                let fid = fact_ids[ds.fact_name(f)];
                for sv in ds.votes().votes_on(f) {
                    let sid = source_ids[ds.source_name(sv.source)];
                    b.cast(sid, fid, sv.vote)?;
                }
            }
        }
        b.build()
    }

    /// Renders the dataset as the paper's Table 1 style grid (`T`/`F`/`-`),
    /// one row per fact. Intended for debugging small instances.
    pub fn to_grid_string(&self) -> String {
        let mut out = String::new();
        for f in self.facts() {
            out.push_str(self.fact_name(f));
            out.push(':');
            for s in self.sources() {
                out.push(' ');
                out.push(match self.votes.vote(s, f) {
                    Some(v) => v.symbol(),
                    None => '-',
                });
            }
            if let Some(t) = &self.ground_truth {
                out.push_str(if t.label(f).as_bool() { "  (true)" } else { "  (false)" });
            }
            out.push('\n');
        }
        out
    }
}

/// Incremental builder for [`Dataset`].
///
/// ```
/// use corroborate_core::prelude::*;
///
/// let mut b = DatasetBuilder::new();
/// let yelp = b.add_source("Yelp");
/// let f = b.add_fact_with_truth("r1", Label::True);
/// b.cast(yelp, f, Vote::True).unwrap();
/// let ds = b.build().unwrap();
/// assert_eq!(ds.n_sources(), 1);
/// assert_eq!(ds.n_facts(), 1);
/// ```
#[derive(Debug)]
pub struct DatasetBuilder {
    source_names: Names,
    fact_names: Names,
    truth: Vec<Option<Label>>,
    /// Every cast so far, widened as sources and facts are registered;
    /// sorted into both orientations at build time.
    votes: VoteMatrixBuilder,
    question_assignments: Option<Vec<crate::ids::QuestionId>>,
}

impl Default for DatasetBuilder {
    fn default() -> Self {
        Self {
            source_names: Names::default(),
            fact_names: Names::default(),
            truth: Vec::new(),
            votes: VoteMatrixBuilder::new(0, 0),
            question_assignments: None,
        }
    }
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source and returns its id. The name is copied into
    /// the builder's name arena.
    pub fn add_source(&mut self, name: impl AsRef<str>) -> SourceId {
        let id = SourceId::new(self.source_names.push(name.as_ref()));
        self.votes.add_source();
        id
    }

    /// Registers a fact with unknown ground truth and returns its id.
    pub fn add_fact(&mut self, name: impl AsRef<str>) -> FactId {
        self.add_fact_full(name.as_ref(), None)
    }

    /// Registers a fact with known ground truth and returns its id.
    pub fn add_fact_with_truth(&mut self, name: impl AsRef<str>, label: Label) -> FactId {
        self.add_fact_full(name.as_ref(), Some(label))
    }

    fn add_fact_full(&mut self, name: &str, label: Option<Label>) -> FactId {
        let id = FactId::new(self.fact_names.push(name));
        self.truth.push(label);
        self.votes.add_fact();
        id
    }

    /// Sets (or replaces) the ground-truth label of a registered fact.
    pub(crate) fn set_label(&mut self, fact: FactId, label: Label) {
        self.truth[fact.index()] = Some(label);
    }

    /// Name of a registered fact.
    pub(crate) fn fact_name(&self, fact: FactId) -> &str {
        self.fact_names.get(fact.index())
    }

    /// Name of a registered source.
    pub(crate) fn source_name(&self, source: SourceId) -> &str {
        self.source_names.get(source.index())
    }

    /// Reserves room for `additional` more casts.
    pub(crate) fn reserve_casts(&mut self, additional: usize) {
        self.votes.reserve(additional);
    }

    /// Appends the facts and casts of `tail`, a builder that read a later
    /// part of the same input. The tail's source `s` is `sources[s]` here;
    /// its sources' names are not copied. With `joined`, the tail's first
    /// fact is this builder's last (one run of lines cut in two): it keeps
    /// this builder's name and label. The other facts follow in the tail's
    /// order, and the tail's casts follow this builder's, so the last
    /// writer still wins at [`Self::build`].
    pub(crate) fn append(&mut self, tail: DatasetBuilder, sources: &[SourceId], joined: bool) {
        let skip = usize::from(joined);
        let first = self.n_facts() - skip;
        self.fact_names.extend_from(&tail.fact_names, skip);
        self.truth.extend(tail.truth.into_iter().skip(skip));
        self.votes.append(tail.votes, sources, first);
    }

    /// Merges facts registered more than once under one name. `first[i]`
    /// is the id of the first fact registered with fact `i`'s name, so
    /// `first[i] <= i`. Facts are renumbered in first-occurrence order, the
    /// name arena and the labels keep each first occurrence, and every
    /// cast is renamed to its merged fact in arrival order, so the last
    /// writer still wins at [`Self::build`].
    pub(crate) fn merge_duplicate_facts(&mut self, mut first: Vec<u32>) {
        assert_eq!(first.len(), self.n_facts(), "one first occurrence per fact");
        self.fact_names.retain(|i| first[i] as usize == i);
        let mut is_first = first.iter().enumerate().map(|(i, &f)| f as usize == i);
        self.truth.retain(|_| is_first.next() == Some(true));
        self.truth.shrink_to_fit();
        // In place, each entry becomes its fact's new id: a repeat's first
        // occurrence is earlier, so its new id is already written.
        let mut kept = 0;
        for i in 0..first.len() {
            let f = first[i] as usize;
            assert!(f <= i, "a first occurrence precedes its repeats");
            first[i] = if f == i {
                kept += 1;
                kept - 1
            } else {
                first[f]
            };
        }
        self.votes.remap_facts(&first, kept as usize);
    }

    /// Records a vote. Casting twice for the same `(source, fact)` pair
    /// replaces the earlier vote (last writer wins).
    ///
    /// # Errors
    /// [`CoreError::IdOutOfRange`] if either id was not returned by this
    /// builder.
    pub fn cast(&mut self, source: SourceId, fact: FactId, vote: Vote) -> Result<(), CoreError> {
        self.votes.cast(source, fact, vote)
    }

    /// Attaches a per-fact question assignment (for multi-answer datasets).
    /// The vector must be parallel to the facts added so far at build time.
    pub fn set_question_assignments(&mut self, assignments: Vec<crate::ids::QuestionId>) {
        self.question_assignments = Some(assignments);
    }

    /// Number of facts registered so far.
    pub fn n_facts(&self) -> usize {
        self.fact_names.len()
    }

    /// Number of sources registered so far.
    pub fn n_sources(&self) -> usize {
        self.source_names.len()
    }

    /// Finalises the dataset.
    ///
    /// Ground truth is attached only if *every* fact has a label (partial
    /// labelling is expressed by projecting to the labelled subset instead,
    /// see [`Dataset::project_facts`]).
    ///
    /// # Errors
    /// - [`CoreError::LengthMismatch`] if question assignments don't cover
    ///   every fact exactly;
    /// - [`CoreError::InvalidConfig`] if their question ids are not dense.
    pub fn build(self) -> Result<Dataset, CoreError> {
        let ground_truth = full_truth(&self.truth);
        let questions = match self.question_assignments {
            Some(a) => {
                if a.len() != self.fact_names.len() {
                    return Err(CoreError::LengthMismatch {
                        what: "question assignments",
                        expected: self.fact_names.len(),
                        actual: a.len(),
                    });
                }
                Some(QuestionStructure::from_assignments(a)?)
            }
            None => None,
        };
        Ok(Dataset {
            source_names: self.source_names,
            fact_names: self.fact_names,
            votes: self.votes.build(),
            ground_truth,
            questions,
        })
    }
}

/// The ground truth `labels` make when every fact has one and there is at
/// least one fact; `None` otherwise. The labels are collected at their
/// exact length, in one allocation.
fn full_truth(labels: &[Option<Label>]) -> Option<TruthAssignment> {
    if labels.is_empty() || !labels.iter().all(Option::is_some) {
        return None;
    }
    Some(TruthAssignment::new(labels.iter().map(|l| l.unwrap()).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::QuestionId;

    fn small() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_source("a");
        let s1 = b.add_source("b");
        let f0 = b.add_fact_with_truth("f0", Label::True);
        let f1 = b.add_fact_with_truth("f1", Label::False);
        let f2 = b.add_fact_with_truth("f2", Label::True);
        b.cast(s0, f0, Vote::True).unwrap();
        b.cast(s0, f1, Vote::True).unwrap();
        b.cast(s1, f0, Vote::True).unwrap();
        b.cast(s1, f2, Vote::True).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_dataset() {
        let ds = small();
        assert_eq!(ds.n_sources(), 2);
        assert_eq!(ds.n_facts(), 3);
        assert_eq!(ds.votes().n_votes(), 4);
        assert_eq!(ds.source_name(SourceId::new(1)), "b");
        assert_eq!(ds.fact_name(FactId::new(2)), "f2");
    }

    #[test]
    fn accuracy_counts_matching_polarity() {
        let ds = small();
        // s0 voted T on f0 (true → correct) and T on f1 (false → wrong).
        assert_eq!(ds.source_accuracy(SourceId::new(0)).unwrap(), Some(0.5));
        // s1 voted T on f0 and f2, both true.
        assert_eq!(ds.source_accuracy(SourceId::new(1)).unwrap(), Some(1.0));
    }

    #[test]
    fn coverage_and_overlap() {
        let ds = small();
        let a = SourceId::new(0);
        let b = SourceId::new(1);
        assert!((ds.source_coverage(a) - 2.0 / 3.0).abs() < 1e-12);
        // supports: {f0, f1} and {f0, f2}; intersection 1, union 3.
        assert!((ds.source_overlap(a, b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ds.source_overlap(a, a), 1.0);
    }

    #[test]
    fn missing_truth_yields_error() {
        let mut b = DatasetBuilder::new();
        b.add_source("s");
        b.add_fact("unlabelled");
        let ds = b.build().unwrap();
        assert!(ds.ground_truth().is_none());
        assert!(matches!(ds.require_ground_truth(), Err(CoreError::MissingComponent { .. })));
    }

    #[test]
    fn project_facts_remaps_ids_truth_and_votes() {
        let ds = small();
        let sub = ds.project_facts(&[FactId::new(2), FactId::new(0)]).unwrap();
        assert_eq!(sub.n_facts(), 2);
        assert_eq!(sub.fact_name(FactId::new(0)), "f2");
        // f2 had a single T vote from s1.
        assert_eq!(sub.votes().votes_on(FactId::new(0)).len(), 1);
        assert_eq!(sub.ground_truth().unwrap().label(FactId::new(1)), Label::True);
    }

    #[test]
    fn project_facts_rejects_bad_ids() {
        let ds = small();
        assert!(ds.project_facts(&[FactId::new(9)]).is_err());
    }

    #[test]
    fn question_assignments_roundtrip_through_projection() {
        let mut b = DatasetBuilder::new();
        let s = b.add_source("s");
        for i in 0..4 {
            b.add_fact_with_truth(format!("f{i}"), Label::True);
        }
        b.cast(s, FactId::new(0), Vote::True).unwrap();
        b.set_question_assignments(vec![
            QuestionId::new(0),
            QuestionId::new(0),
            QuestionId::new(1),
            QuestionId::new(1),
        ]);
        let ds = b.build().unwrap();
        assert_eq!(ds.questions().unwrap().n_questions(), 2);
        // Project away question 0 entirely: remaining structure re-densifies.
        let sub = ds.project_facts(&[FactId::new(2), FactId::new(3)]).unwrap();
        let q = sub.questions().unwrap();
        assert_eq!(q.n_questions(), 1);
        assert_eq!(q.candidates(QuestionId::new(0)).len(), 2);
    }

    #[test]
    fn question_assignment_length_mismatch_is_rejected() {
        let mut b = DatasetBuilder::new();
        b.add_source("s");
        b.add_fact("f0");
        b.add_fact("f1");
        b.set_question_assignments(vec![QuestionId::new(0)]);
        assert!(matches!(b.build(), Err(CoreError::LengthMismatch { .. })));
    }

    #[test]
    fn merge_unions_by_name_with_newer_votes_winning() {
        let mut b1 = DatasetBuilder::new();
        let a = b1.add_source("A");
        let f1 = b1.add_fact_with_truth("danny", Label::False);
        let f2 = b1.add_fact_with_truth("mbar", Label::True);
        b1.cast(a, f1, Vote::True).unwrap();
        b1.cast(a, f2, Vote::True).unwrap();
        let old = b1.build().unwrap();

        let mut b2 = DatasetBuilder::new();
        let a2 = b2.add_source("A");
        let c = b2.add_source("C");
        let f1b = b2.add_fact_with_truth("danny", Label::False);
        let f3 = b2.add_fact_with_truth("newplace", Label::True);
        // The newer crawl flags danny CLOSED.
        b2.cast(a2, f1b, Vote::False).unwrap();
        b2.cast(c, f3, Vote::True).unwrap();
        let new = b2.build().unwrap();

        let merged = old.merge(&new).unwrap();
        assert_eq!(merged.n_sources(), 2);
        assert_eq!(merged.n_facts(), 3);
        let danny = merged.facts().find(|&f| merged.fact_name(f) == "danny").unwrap();
        let a_id = merged.sources().find(|&s| merged.source_name(s) == "A").unwrap();
        assert_eq!(merged.votes().vote(a_id, danny), Some(Vote::False));
        assert_eq!(merged.ground_truth().unwrap().n_true(), 2);
    }

    #[test]
    fn merge_rejects_contradicting_truth() {
        let mut b1 = DatasetBuilder::new();
        b1.add_source("A");
        b1.add_fact_with_truth("x", Label::True);
        let d1 = b1.build().unwrap();
        let mut b2 = DatasetBuilder::new();
        b2.add_source("A");
        b2.add_fact_with_truth("x", Label::False);
        let d2 = b2.build().unwrap();
        assert!(matches!(d1.merge(&d2), Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn merge_without_full_truth_drops_ground_truth() {
        let mut b1 = DatasetBuilder::new();
        b1.add_source("A");
        b1.add_fact_with_truth("x", Label::True);
        let d1 = b1.build().unwrap();
        let mut b2 = DatasetBuilder::new();
        b2.add_source("A");
        b2.add_fact("y"); // unlabelled
        let d2 = b2.build().unwrap();
        let merged = d1.merge(&d2).unwrap();
        assert!(merged.ground_truth().is_none());
    }

    #[test]
    fn fact_rows_rebuild_the_builders_dataset() {
        let ds = small();
        let rows = |labels: &mut dyn FnMut(FactId) -> Option<Label>| {
            let mut ends = Vec::new();
            let mut by_fact = Vec::new();
            for f in ds.facts() {
                by_fact.extend_from_slice(ds.votes().votes_on(f));
                ends.push(by_fact.len());
            }
            let facts: Vec<(&str, Option<Label>)> =
                ds.facts().map(|f| (ds.fact_name(f), labels(f))).collect();
            Dataset::from_fact_rows(ds.sources().map(|s| ds.source_name(s)), facts, ends, by_fact)
        };
        let truth = ds.ground_truth().unwrap();
        let back = rows(&mut |f| Some(truth.label(f))).unwrap();
        assert_eq!(back.votes(), ds.votes());
        assert_eq!(back.ground_truth(), ds.ground_truth());
        assert!(ds.sources().all(|s| back.source_name(s) == ds.source_name(s)));
        assert!(ds.facts().all(|f| back.fact_name(f) == ds.fact_name(f)));
        // One unlabelled fact drops the ground truth, as in the builder.
        let partial = rows(&mut |f| (f.index() != 1).then(|| truth.label(f))).unwrap();
        assert!(partial.ground_truth().is_none());

        let sv = SourceVote { source: SourceId::new(0), vote: Vote::True };
        let one_row_short =
            Dataset::from_fact_rows(["a"], [("f0", None), ("f1", None)], vec![1], vec![sv]);
        assert!(matches!(one_row_short, Err(CoreError::LengthMismatch { .. })));
    }

    #[test]
    fn grid_string_renders_votes() {
        let ds = small();
        let grid = ds.to_grid_string();
        assert!(grid.contains("f0: T T  (true)"));
        assert!(grid.contains("f2: - T  (true)"));
    }
}

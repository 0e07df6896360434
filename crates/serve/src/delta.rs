//! Streaming dataset mutations.
//!
//! [`DeltaDataset`] is the mutable, name-keyed twin of the immutable
//! [`Dataset`]: it accepts incremental [`Mutation`]s (register a source,
//! register a fact, cast or override a vote), maintains per-fact vote
//! signatures incrementally, and tracks which facts — and therefore which
//! signature groups — were invalidated since the last epoch. Materialising
//! a [`Dataset`] snapshot is a pure function of the accumulated state, so
//! any interleaving of the same mutations produces a bit-identical
//! snapshot (the property the streamed-vs-batch differential gate
//! certifies).
//!
//! The state is flat and copy-on-write by chunk (see `cow.rs`). Sources
//! and facts are kept 128 to a chunk. A source chunk is one name arena. A
//! fact chunk is a name arena, a label column, and one postings array of
//! [`SourceVote`]s with an end offset per fact, the layout
//! [`VoteMatrix`] keeps for a whole
//! dataset. The two name → id maps hold ids only and compare names against
//! the arenas. So registering a name allocates nothing of its own, and a
//! clone or a drop touches O(chunks + shards) allocations, not O(facts).
//! A mutation after a clone copies at most one chunk or shard per column
//! or map. That is what lets every epoch publish the state it evaluated as
//! a clone instead of a materialised [`Dataset`]. It also lets votes move
//! in bulk: the snapshot decoder appends each vote to its fact's row in
//! place, [`Dataset`] conversion builds each chunk whole, and
//! [`DeltaDataset::materialize`] copies the rows a chunk at a time.
//!
//! Ids are append-only: a source or fact, once registered, keeps its id for
//! the lifetime of the stream, which is what lets epoch evaluation carry
//! per-fact verdicts forward across snapshots.

use std::collections::BTreeSet;
use std::ops::Range;

use corroborate_core::prelude::*;
use corroborate_core::vote::SourceVote;

use crate::cow::{CowChunks, IdMap, CHUNK};
use crate::ServeError;

/// A chunk-local offset: a chunk's names and votes stay below 2^32 bytes
/// and entries, as ids stay below 2^32.
fn offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "a chunk holds fewer than 2^32 name bytes or votes");
    len as u32
}

/// Names end to end in one string: name `i` is `text[ends[i - 1]..ends[i]]`,
/// from 0 for the first.
#[derive(Debug, Clone, Default)]
struct Arena {
    text: String,
    ends: Vec<u32>,
}

impl Arena {
    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(offset(self.text.len()));
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.ends.len()).map(|i| self.get(i))
    }
}

/// Up to 128 facts: their names, labels and votes.
#[derive(Debug, Clone, Default)]
struct FactChunk {
    names: Arena,
    labels: Vec<Option<Label>>,
    /// Every fact's votes end to end, each fact's sorted by source: fact
    /// `i`'s are `votes[vote_ends[i - 1]..vote_ends[i]]`, from 0 for the
    /// first. Facts at or past `vote_ends.len()` have none, so a fact
    /// registers without touching this column.
    votes: Vec<SourceVote>,
    vote_ends: Vec<u32>,
}

impl FactChunk {
    /// Where fact `i`'s votes sit in `votes`.
    fn row(&self, i: usize) -> Range<usize> {
        let end = |i: usize| self.vote_ends.get(i).map_or(self.votes.len(), |&e| e as usize);
        (if i == 0 { 0 } else { end(i - 1) })..end(i)
    }

    /// Inserts `vote` into fact `i`'s row at `at`, an index into `votes`
    /// inside or at the end of the row.
    fn insert(&mut self, i: usize, at: usize, vote: SourceVote) {
        if self.vote_ends.len() <= i {
            self.vote_ends.resize(i + 1, offset(self.votes.len()));
        }
        self.votes.insert(at, vote);
        for end in &mut self.vote_ends[i..] {
            *end += 1;
        }
    }
}

/// One streaming mutation, name-keyed so producers never deal in ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Registers a source (no-op when the name already exists).
    AddSource {
        /// Source name.
        name: String,
    },
    /// Registers a fact, optionally with a ground-truth label (used by
    /// replayed evaluation corpora; production streams leave it `None`).
    /// Re-adding an existing fact only updates a previously-unset label.
    AddFact {
        /// Fact name.
        name: String,
        /// Optional ground-truth label.
        label: Option<Label>,
    },
    /// Casts (or overrides — last writer wins) a vote. Unknown source or
    /// fact names are auto-registered, mirroring the CSV parser.
    Cast {
        /// Voting source name.
        source: String,
        /// Fact name voted on.
        fact: String,
        /// The vote.
        vote: Vote,
    },
}

/// What applying one mutation changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyOutcome {
    /// A new source was registered.
    pub new_source: bool,
    /// A new fact was registered.
    pub new_fact: bool,
    /// A fact's vote signature changed (new vote, flipped vote, or new
    /// fact) — the fact's group must be re-evaluated.
    pub signature_changed: bool,
}

/// The mutable accumulation of a corroboration stream.
#[derive(Debug, Default, Clone)]
pub struct DeltaDataset {
    source_ids: IdMap,
    sources: CowChunks<Arena>,
    fact_ids: IdMap,
    facts: CowChunks<FactChunk>,
    /// Facts whose signature changed since the last [`Self::take_dirty`],
    /// in the order they were first dirtied.
    dirty: Vec<usize>,
    /// One bit per fact id up to the highest dirty one: whether the fact
    /// is in `dirty`. Emptied by [`Self::take_dirty`].
    dirty_bits: Vec<u64>,
    n_votes: usize,
}

impl DeltaDataset {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// The clean stream state of a batch [`Dataset`]: the same names,
    /// labels and votes under the same ids, nothing dirty. Each fact chunk
    /// is filled whole before it joins the state; the fact names are
    /// registered after the last chunk, in one pass over the dataset's.
    pub(crate) fn from_dataset(dataset: &Dataset) -> Self {
        let mut out = Self::new();
        for s in dataset.sources() {
            out.push_source(dataset.source_name(s));
        }
        let truth = dataset.ground_truth();
        let name_of = |id: usize| dataset.fact_name(FactId::new(id));
        let n_facts = dataset.n_facts();
        for start in (0..n_facts).step_by(CHUNK) {
            let mut chunk = FactChunk::default();
            for f in (start..n_facts.min(start + CHUNK)).map(FactId::new) {
                chunk.names.push(name_of(f.index()));
                chunk.labels.push(truth.map(|t| t.label(f)));
                chunk.votes.extend_from_slice(dataset.votes().votes_on(f));
                chunk.vote_ends.push(offset(chunk.votes.len()));
            }
            out.n_votes += chunk.votes.len();
            let records = chunk.labels.len();
            out.facts.push_chunk(chunk, records);
        }
        for f in 0..n_facts {
            out.fact_ids.insert(name_of(f), f, name_of);
        }
        out
    }

    /// Registers `name` under the next source id, returning whether the
    /// name was new. A repeat leaves the state unusable (two ids then carry
    /// the name): a caller that sees `false` must drop it.
    pub(crate) fn push_source(&mut self, name: &str) -> bool {
        let sources = &self.sources;
        let repeat = self.source_ids.insert(name, sources.len(), |id| source_name(sources, id));
        self.sources.push().push(name);
        repeat.is_none()
    }

    /// Registers `name` under the next fact id with `label` and no votes,
    /// marking nothing dirty. Returns whether the name was new, as
    /// [`Self::push_source`] does.
    pub(crate) fn push_fact(&mut self, name: &str, label: Option<Label>) -> bool {
        let facts = &self.facts;
        let repeat = self.fact_ids.insert(name, facts.len(), |id| fact_name(facts, id));
        let chunk = self.facts.push();
        chunk.names.push(name);
        chunk.labels.push(label);
        repeat.is_none()
    }

    /// Appends `votes` to `fact`'s, marking nothing dirty. The votes must
    /// be sorted by source and follow any the fact has, and no later fact
    /// may have votes yet: the order a batch [`Dataset`] and a snapshot
    /// list them in.
    pub(crate) fn push_votes(&mut self, fact: FactId, votes: &[SourceVote]) {
        let (chunk, i) = self.facts.get_mut(fact.index());
        debug_assert!(chunk.vote_ends.len() <= i + 1, "a later fact has votes");
        chunk.vote_ends.resize(i + 1, offset(chunk.votes.len()));
        chunk.votes.extend_from_slice(votes);
        chunk.vote_ends[i] = offset(chunk.votes.len());
        self.n_votes += votes.len();
    }

    /// Source names in id order.
    pub(crate) fn source_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.sources.chunks().flat_map(Arena::iter)
    }

    /// Facts in id order: name, label and votes.
    pub(crate) fn facts(&self) -> impl Iterator<Item = (&str, Option<Label>, &[SourceVote])> + '_ {
        self.facts.chunks().flat_map(|chunk| {
            (0..chunk.labels.len())
                .map(move |i| (chunk.names.get(i), chunk.labels[i], &chunk.votes[chunk.row(i)]))
        })
    }

    /// Number of registered sources.
    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of registered facts.
    pub fn n_facts(&self) -> usize {
        self.facts.len()
    }

    /// Number of live votes (overridden votes count once).
    pub fn n_votes(&self) -> usize {
        self.n_votes
    }

    /// Id of `name`, if registered.
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.source_ids.get(name, |id| source_name(&self.sources, id)).map(SourceId::new)
    }

    /// Id of `name`, if registered.
    pub fn fact_id(&self, name: &str) -> Option<FactId> {
        self.fact_ids.get(name, |id| fact_name(&self.facts, id)).map(FactId::new)
    }

    /// Name of fact `id` (panics when out of range).
    pub fn fact_name(&self, id: FactId) -> &str {
        fact_name(&self.facts, id.index())
    }

    /// Name of source `id` (panics when out of range).
    pub fn source_name(&self, id: SourceId) -> &str {
        source_name(&self.sources, id.index())
    }

    /// Ground-truth label of fact `id`, when one was supplied.
    pub fn label(&self, id: FactId) -> Option<Label> {
        let (chunk, i) = self.facts.get(id.index());
        chunk.labels[i]
    }

    /// The current votes on `fact`, sorted by source id: the row
    /// [`VoteMatrix::votes_on`]
    /// gives for it once materialised.
    pub fn votes(&self, fact: FactId) -> &[SourceVote] {
        let (chunk, i) = self.facts.get(fact.index());
        &chunk.votes[chunk.row(i)]
    }

    /// The current signature of `fact` as `(source index, vote)` pairs
    /// sorted by source id: [`Self::votes`], copied out.
    #[cfg(test)]
    pub(crate) fn signature(&self, fact: FactId) -> Vec<(usize, Vote)> {
        self.votes(fact).iter().map(|sv| (sv.source.index(), sv.vote)).collect()
    }

    /// Facts dirtied since the last [`Self::take_dirty`], unordered.
    pub fn dirty_facts(&self) -> impl Iterator<Item = FactId> + '_ {
        self.dirty.iter().map(|&i| FactId::new(i))
    }

    /// Number of facts dirtied since the last [`Self::take_dirty`].
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of *distinct invalidated signature groups* among the dirty
    /// facts: facts sharing a (current) signature re-evaluate as one group,
    /// so this is the unit the epoch scheduler reasons in.
    pub fn dirty_group_count(&self) -> usize {
        let seen: BTreeSet<&[SourceVote]> =
            self.dirty.iter().map(|&f| self.votes(FactId::new(f))).collect();
        seen.len()
    }

    /// Drains the dirty set, returning the invalidated facts sorted by id.
    pub fn take_dirty(&mut self) -> Vec<FactId> {
        self.dirty_bits.clear();
        let mut out: Vec<FactId> = self.dirty.drain(..).map(FactId::new).collect();
        out.sort_unstable();
        out
    }

    fn mark_dirty(&mut self, fact: usize) {
        let (word, bit) = (fact / 64, 1u64 << (fact % 64));
        if word >= self.dirty_bits.len() {
            self.dirty_bits.resize(word + 1, 0);
        }
        if self.dirty_bits[word] & bit == 0 {
            self.dirty_bits[word] |= bit;
            self.dirty.push(fact);
        }
    }

    fn register_source(&mut self, name: &str) -> (usize, bool) {
        if let Some(id) = self.source_id(name) {
            return (id.index(), false);
        }
        let id = self.n_sources();
        self.push_source(name);
        (id, true)
    }

    fn register_fact(&mut self, name: &str, label: Option<Label>) -> (usize, bool) {
        if let Some(id) = self.fact_id(name) {
            if label.is_some() && self.label(id).is_none() {
                let (chunk, i) = self.facts.get_mut(id.index());
                chunk.labels[i] = label;
            }
            return (id.index(), false);
        }
        let id = self.n_facts();
        self.push_fact(name, label);
        self.mark_dirty(id);
        (id, true)
    }

    /// Applies one mutation, updating signatures and dirty tracking.
    ///
    /// # Errors
    /// [`ServeError::InvalidMutation`] on an empty source or fact name —
    /// the only malformed shape the name-keyed model can express.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<ApplyOutcome, ServeError> {
        let mut outcome = ApplyOutcome::default();
        match mutation {
            Mutation::AddSource { name } => {
                if name.is_empty() {
                    return Err(ServeError::InvalidMutation {
                        message: "empty source name".into(),
                    });
                }
                outcome.new_source = self.register_source(name).1;
            }
            Mutation::AddFact { name, label } => {
                if name.is_empty() {
                    return Err(ServeError::InvalidMutation { message: "empty fact name".into() });
                }
                let (_, fresh) = self.register_fact(name, *label);
                outcome.new_fact = fresh;
                outcome.signature_changed = fresh;
            }
            Mutation::Cast { source, fact, vote } => {
                if source.is_empty() || fact.is_empty() {
                    return Err(ServeError::InvalidMutation {
                        message: "empty source or fact name in vote".into(),
                    });
                }
                let (s, new_source) = self.register_source(source);
                let (f, new_fact) = self.register_fact(fact, None);
                outcome.new_source = new_source;
                outcome.new_fact = new_fact;
                let cast = SourceVote { source: SourceId::new(s), vote: *vote };
                let (chunk, i) = self.facts.get(f);
                let row = chunk.row(i);
                match chunk.votes[row.clone()].binary_search_by_key(&cast.source, |sv| sv.source) {
                    Ok(pos) => {
                        if chunk.votes[row.start + pos].vote != *vote {
                            let (chunk, _) = self.facts.get_mut(f);
                            chunk.votes[row.start + pos].vote = *vote;
                            outcome.signature_changed = true;
                        }
                    }
                    Err(pos) => {
                        self.facts.get_mut(f).0.insert(i, row.start + pos, cast);
                        self.n_votes += 1;
                        outcome.signature_changed = true;
                    }
                }
                if outcome.signature_changed {
                    self.mark_dirty(f);
                }
            }
        }
        Ok(outcome)
    }

    /// Applies a batch, returning how many mutations changed a signature.
    ///
    /// # Errors
    /// Fails on the first invalid mutation; earlier ones stay applied
    /// (mirroring WAL replay, which is a prefix semantics).
    pub fn apply_all(&mut self, mutations: &[Mutation]) -> Result<usize, ServeError> {
        let mut changed = 0;
        for m in mutations {
            if self.apply(m)?.signature_changed {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Materialises the immutable snapshot of the current state.
    ///
    /// This is a pure function of the accumulated state: sources and facts
    /// in registration order, votes per fact in ascending source order —
    /// identical to building the same data through [`DatasetBuilder`] in
    /// one batch. Ground truth attaches only when every fact is labelled,
    /// exactly like the builder. The rows are already sorted and free of
    /// repeats, so they are copied a chunk at a time and only the
    /// by-source orientation is built
    /// ([`Dataset::from_fact_rows`]).
    ///
    /// # Errors
    /// Propagates [`Dataset::from_fact_rows`] errors (never expected: the
    /// rows are kept in the form it checks for).
    pub fn materialize(&self) -> Result<Dataset, ServeError> {
        let mut fact_ends = Vec::with_capacity(self.n_facts());
        let mut by_fact = Vec::with_capacity(self.n_votes);
        for chunk in self.facts.chunks() {
            let base = by_fact.len();
            by_fact.extend_from_slice(&chunk.votes);
            fact_ends.extend(chunk.vote_ends.iter().map(|&end| base + end as usize));
            fact_ends.resize(
                fact_ends.len() + chunk.labels.len() - chunk.vote_ends.len(),
                by_fact.len(),
            );
        }
        let facts = self
            .facts
            .chunks()
            .flat_map(|chunk| chunk.names.iter().zip(chunk.labels.iter().copied()));
        Ok(Dataset::from_fact_rows(self.source_names(), facts, fact_ends, by_fact)?)
    }

    /// Converts a batch [`Dataset`] into the mutation stream that rebuilds
    /// it: roster sources first, then facts in id order, then votes per
    /// fact in ascending source order. Useful for seeding a service from a
    /// file and for differential tests.
    pub fn mutations_of(dataset: &Dataset) -> Vec<Mutation> {
        let mut out =
            Vec::with_capacity(dataset.n_sources() + dataset.n_facts() + dataset.votes().n_votes());
        for s in dataset.sources() {
            out.push(Mutation::AddSource { name: dataset.source_name(s).to_string() });
        }
        let truth = dataset.ground_truth();
        for f in dataset.facts() {
            out.push(Mutation::AddFact {
                name: dataset.fact_name(f).to_string(),
                label: truth.map(|t| t.label(f)),
            });
        }
        for f in dataset.facts() {
            for sv in dataset.votes().votes_on(f) {
                out.push(Mutation::Cast {
                    source: dataset.source_name(sv.source).to_string(),
                    fact: dataset.fact_name(f).to_string(),
                    vote: sv.vote,
                });
            }
        }
        out
    }
}

/// Name of source `id` in `sources`.
fn source_name(sources: &CowChunks<Arena>, id: usize) -> &str {
    let (chunk, i) = sources.get(id);
    chunk.get(i)
}

/// Name of fact `id` in `facts`.
fn fact_name(facts: &CowChunks<FactChunk>, id: usize) -> &str {
    let (chunk, i) = facts.get(id);
    chunk.names.get(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cast(source: &str, fact: &str, vote: Vote) -> Mutation {
        Mutation::Cast { source: source.into(), fact: fact.into(), vote }
    }

    #[test]
    fn votes_register_names_and_maintain_signatures() {
        let mut d = DeltaDataset::new();
        let o = d.apply(&cast("s1", "f1", Vote::True)).unwrap();
        assert!(o.new_source && o.new_fact && o.signature_changed);
        d.apply(&cast("s0", "f1", Vote::False)).unwrap();
        // Signature sorted by source id (registration order), not name.
        let f = d.fact_id("f1").unwrap();
        let sv = |s: usize, vote: Vote| SourceVote { source: SourceId::new(s), vote };
        assert_eq!(d.votes(f), &[sv(0, Vote::True), sv(1, Vote::False)]);
        assert_eq!(d.n_votes(), 2);
    }

    #[test]
    fn last_writer_wins_and_unchanged_votes_stay_clean() {
        let mut d = DeltaDataset::new();
        d.apply(&cast("s", "f", Vote::True)).unwrap();
        d.take_dirty();
        // Same vote again: no signature change, no dirty fact.
        let o = d.apply(&cast("s", "f", Vote::True)).unwrap();
        assert!(!o.signature_changed);
        assert_eq!(d.dirty_count(), 0);
        // Flip: signature changes, fact dirties, vote count stays 1.
        let o = d.apply(&cast("s", "f", Vote::False)).unwrap();
        assert!(o.signature_changed);
        assert_eq!(d.dirty_count(), 1);
        assert_eq!(d.n_votes(), 1);
    }

    #[test]
    fn dirty_groups_deduplicate_shared_signatures() {
        let mut d = DeltaDataset::new();
        d.apply(&cast("s", "f1", Vote::True)).unwrap();
        d.apply(&cast("s", "f2", Vote::True)).unwrap();
        d.apply(&cast("s", "f3", Vote::False)).unwrap();
        assert_eq!(d.dirty_count(), 3);
        // f1 and f2 share a signature; f3 differs.
        assert_eq!(d.dirty_group_count(), 2);
        let drained = d.take_dirty();
        assert_eq!(drained.len(), 3);
        assert_eq!(d.dirty_count(), 0);
    }

    #[test]
    fn materialize_matches_batch_builder() {
        let mut d = DeltaDataset::new();
        d.apply(&Mutation::AddSource { name: "silent".into() }).unwrap();
        d.apply(&Mutation::AddFact { name: "f1".into(), label: Some(Label::True) }).unwrap();
        d.apply(&cast("a", "f1", Vote::True)).unwrap();
        d.apply(&cast("b", "f2", Vote::False)).unwrap();
        d.apply(&Mutation::AddFact { name: "f2".into(), label: Some(Label::False) }).unwrap();
        let ds = d.materialize().unwrap();
        assert_eq!(ds.n_sources(), 3); // silent + a + b
        assert_eq!(ds.n_facts(), 2);
        assert_eq!(ds.votes().n_votes(), 2);
        // Labels arrived for every fact → truth attached.
        assert!(ds.ground_truth().is_some());

        let mut b = DatasetBuilder::new();
        b.add_source("silent");
        let a = b.add_source("a");
        let bb = b.add_source("b");
        let f1 = b.add_fact_with_truth("f1", Label::True);
        let f2 = b.add_fact_with_truth("f2", Label::False);
        b.cast(a, f1, Vote::True).unwrap();
        b.cast(bb, f2, Vote::False).unwrap();
        let batch = b.build().unwrap();
        assert_eq!(ds.votes(), batch.votes());
    }

    #[test]
    fn mutation_order_does_not_change_the_snapshot() {
        let stream = vec![
            cast("a", "f1", Vote::True),
            cast("b", "f1", Vote::False),
            cast("a", "f2", Vote::True),
            Mutation::AddSource { name: "c".into() },
            cast("c", "f2", Vote::False),
            cast("b", "f1", Vote::True), // override
        ];
        let mut all = DeltaDataset::new();
        all.apply_all(&stream).unwrap();
        let mut chunked = DeltaDataset::new();
        for chunk in stream.chunks(2) {
            chunked.apply_all(chunk).unwrap();
            chunked.take_dirty();
        }
        let a = all.materialize().unwrap();
        let b = chunked.materialize().unwrap();
        assert_eq!(a.votes(), b.votes());
        assert_eq!(
            a.sources().map(|s| a.source_name(s).to_string()).collect::<Vec<_>>(),
            b.sources().map(|s| b.source_name(s).to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn roundtrip_through_mutations_of() {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_source("a");
        b.add_source("voteless");
        let f0 = b.add_fact_with_truth("f0", Label::True);
        let f1 = b.add_fact_with_truth("f1", Label::False);
        b.cast(s0, f0, Vote::True).unwrap();
        b.cast(s0, f1, Vote::False).unwrap();
        let ds = b.build().unwrap();
        let mut d = DeltaDataset::new();
        d.apply_all(&DeltaDataset::mutations_of(&ds)).unwrap();
        let back = d.materialize().unwrap();
        assert_eq!(back.n_sources(), 2);
        assert_eq!(back.votes(), ds.votes());
        assert_eq!(back.ground_truth(), ds.ground_truth());
    }

    #[test]
    fn empty_names_are_rejected() {
        let mut d = DeltaDataset::new();
        assert!(d.apply(&Mutation::AddSource { name: String::new() }).is_err());
        assert!(d.apply(&cast("", "f", Vote::True)).is_err());
        assert!(d.apply(&cast("s", "", Vote::True)).is_err());
    }
}

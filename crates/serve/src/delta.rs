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
//! The state is copy-on-write: names, labels and signatures live in
//! chunked columns and the two name maps in hash-sharded maps (see
//! `cow.rs`), so `clone()` costs O(facts / chunk + shards) and a mutation
//! after a clone copies at most one chunk or shard per column or map. That
//! is what lets every epoch publish the state it evaluated as a clone
//! instead of a materialised [`Dataset`].
//!
//! Ids are append-only: a source or fact, once registered, keeps its id for
//! the lifetime of the stream, which is what lets epoch evaluation carry
//! per-fact verdicts forward across snapshots.

use std::collections::BTreeSet;
use std::sync::Arc;

use corroborate_core::prelude::*;

use crate::cow::{CowMap, CowVec};
use crate::ServeError;

/// A fact's vote signature: `(source, vote)` sorted by source id.
type Signature = Arc<[(usize, Vote)]>;

/// The one empty signature every newly registered fact starts with,
/// shared so a registration allocates nothing for it.
#[derive(Debug, Clone)]
struct EmptySignature(Signature);

impl Default for EmptySignature {
    fn default() -> Self {
        Self(Arc::from([]))
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
    source_ids: CowMap,
    source_names: CowVec<Arc<str>>,
    fact_ids: CowMap,
    fact_names: CowVec<Arc<str>>,
    truth: CowVec<Option<Label>>,
    /// Per-fact signature: `(source, vote)` sorted by source id — exactly
    /// the shape `VoteMatrix::signature` exposes after a batch build.
    signatures: CowVec<Signature>,
    /// Facts whose signature changed since the last [`Self::take_dirty`],
    /// in the order they were first dirtied.
    dirty: Vec<usize>,
    /// One bit per fact id up to the highest dirty one: whether the fact
    /// is in `dirty`. Emptied by [`Self::take_dirty`].
    dirty_bits: Vec<u64>,
    n_votes: usize,
    empty_signature: EmptySignature,
}

impl DeltaDataset {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// The clean stream state of a batch [`Dataset`]: the same names,
    /// labels and votes under the same ids, nothing dirty.
    pub(crate) fn from_dataset(dataset: &Dataset) -> Self {
        let mut out = Self::new();
        for s in dataset.sources() {
            out.push_source(dataset.source_name(s));
        }
        let truth = dataset.ground_truth();
        for f in dataset.facts() {
            out.push_fact(dataset.fact_name(f), truth.map(|t| t.label(f)));
            let votes = dataset.votes().votes_on(f);
            out.set_votes(f, votes.iter().map(|sv| (sv.source.index(), sv.vote)).collect());
        }
        out
    }

    /// Registers `name` under the next source id, returning whether the
    /// name was new. A repeat leaves the state unusable (the name then
    /// maps to the new id): a caller that sees `false` must drop it.
    pub(crate) fn push_source(&mut self, name: &str) -> bool {
        let name: Arc<str> = Arc::from(name);
        let repeat = self.source_ids.insert(Arc::clone(&name), self.source_names.len());
        self.source_names.push(name);
        repeat.is_none()
    }

    /// Registers `name` under the next fact id with `label` and no votes,
    /// marking nothing dirty. Returns whether the name was new, as
    /// [`Self::push_source`] does.
    pub(crate) fn push_fact(&mut self, name: &str, label: Option<Label>) -> bool {
        let name: Arc<str> = Arc::from(name);
        let repeat = self.fact_ids.insert(Arc::clone(&name), self.fact_names.len());
        self.fact_names.push(name);
        self.truth.push(label);
        self.signatures.push(Arc::clone(&self.empty_signature.0));
        repeat.is_none()
    }

    /// Gives `fact`, which has no votes yet, its `votes`: sorted by
    /// source id, each source registered. Marks nothing dirty.
    pub(crate) fn set_votes(&mut self, fact: FactId, votes: Signature) {
        self.n_votes += votes.len();
        *self.signatures.get_mut(fact.index()) = votes;
    }

    /// Source names in id order.
    pub(crate) fn source_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.source_names.iter().map(|name| &**name)
    }

    /// Facts in id order: name, label and signature.
    pub(crate) fn facts(
        &self,
    ) -> impl Iterator<Item = (&str, Option<Label>, &[(usize, Vote)])> + '_ {
        self.fact_names
            .iter()
            .zip(self.truth.iter())
            .zip(self.signatures.iter())
            .map(|((name, label), votes)| (&**name, *label, &**votes))
    }

    /// Number of registered sources.
    pub fn n_sources(&self) -> usize {
        self.source_names.len()
    }

    /// Number of registered facts.
    pub fn n_facts(&self) -> usize {
        self.fact_names.len()
    }

    /// Number of live votes (overridden votes count once).
    pub fn n_votes(&self) -> usize {
        self.n_votes
    }

    /// Id of `name`, if registered.
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.source_ids.get(name).map(SourceId::new)
    }

    /// Id of `name`, if registered.
    pub fn fact_id(&self, name: &str) -> Option<FactId> {
        self.fact_ids.get(name).map(FactId::new)
    }

    /// Name of fact `id` (panics when out of range).
    pub fn fact_name(&self, id: FactId) -> &str {
        &self.fact_names[id.index()]
    }

    /// Name of source `id` (panics when out of range).
    pub fn source_name(&self, id: SourceId) -> &str {
        &self.source_names[id.index()]
    }

    /// Ground-truth label of fact `id`, when one was supplied.
    pub fn label(&self, id: FactId) -> Option<Label> {
        self.truth[id.index()]
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
        let seen: BTreeSet<&[(usize, Vote)]> =
            self.dirty.iter().map(|&f| &*self.signatures[f]).collect();
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
        if let Some(id) = self.source_ids.get(name) {
            return (id, false);
        }
        let id = self.source_names.len();
        self.push_source(name);
        (id, true)
    }

    fn register_fact(&mut self, name: &str, label: Option<Label>) -> (usize, bool) {
        if let Some(id) = self.fact_ids.get(name) {
            if label.is_some() && self.truth[id].is_none() {
                *self.truth.get_mut(id) = label;
            }
            return (id, false);
        }
        let id = self.fact_names.len();
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
                let sig = &self.signatures[f];
                match sig.binary_search_by_key(&s, |&(src, _)| src) {
                    Ok(pos) => {
                        if sig[pos].1 != *vote {
                            Arc::make_mut(self.signatures.get_mut(f))[pos].1 = *vote;
                            outcome.signature_changed = true;
                        }
                    }
                    Err(pos) => {
                        let grown: Signature = sig[..pos]
                            .iter()
                            .copied()
                            .chain(std::iter::once((s, *vote)))
                            .chain(sig[pos..].iter().copied())
                            .collect();
                        *self.signatures.get_mut(f) = grown;
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
    /// exactly like the builder.
    ///
    /// # Errors
    /// Propagates builder errors (never expected: ids are constructed in
    /// range by this type).
    pub fn materialize(&self) -> Result<Dataset, ServeError> {
        let mut b = DatasetBuilder::new();
        for name in self.source_names.iter() {
            b.add_source(&**name);
        }
        let fact_ids: Vec<FactId> = self
            .fact_names
            .iter()
            .zip(self.truth.iter())
            .map(|(name, label)| match label {
                Some(l) => b.add_fact_with_truth(&**name, *l),
                None => b.add_fact(&**name),
            })
            .collect();
        for (f, sig) in self.signatures.iter().enumerate() {
            for &(s, vote) in sig.iter() {
                b.cast(SourceId::new(s), fact_ids[f], vote)?;
            }
        }
        Ok(b.build()?)
    }

    /// The current signature of `fact`, sorted by source id.
    pub fn signature(&self, fact: FactId) -> &[(usize, Vote)] {
        &self.signatures[fact.index()]
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
        assert_eq!(d.signature(f), &[(0, Vote::True), (1, Vote::False)]);
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

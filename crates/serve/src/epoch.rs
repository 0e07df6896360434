//! Epoch-based re-evaluation over a mutation stream.
//!
//! The service never re-runs the full IncEstimate engine per vote.
//! Instead the [`EpochEngine`] batches accepted mutations into *epochs*
//! and, at each epoch boundary, picks one of two evaluation modes:
//!
//! - **Incremental** — re-score only the *invalidated* facts (those whose
//!   vote signature changed since the last epoch) with the Corrob rule
//!   under the trust snapshot cached from the last full recompute. The
//!   verdicts are exact Corrob scores but the trust snapshot is *stale* —
//!   it has not absorbed the new evidence. Facts scored this way are
//!   flagged [`VerdictView::is_stale`]. Dirty facts sharing one signature
//!   group are scored once and the result scattered to every member. The
//!   epoch costs O(dirty facts + touched chunks) whether or not it
//!   registered new facts or sources: it publishes a copy-on-write clone
//!   of the engine's state and never materialises a [`Dataset`].
//! - **Full** — materialise the accumulated [`DeltaDataset`] and re-run
//!   the complete multi-round IncEstimate evaluation (IncEstHeu
//!   strategy). Exact but O(dataset); refreshes the cached trust snapshot
//!   and clears every staleness flag.
//!
//! [`EpochMode::Auto`] picks full when the invalidated-fact fraction
//! crosses [`EpochConfig::full_recompute_threshold`] (trust staleness
//! grows with the fraction of the dataset that changed), incremental
//! otherwise. The first epoch after boot or WAL recovery is always full —
//! there is no trusted snapshot to lean on yet.
//!
//! Each epoch publishes an immutable [`VerdictView`] through
//! [`Published`]: readers grab an `Arc` under a read lock held only for
//! the pointer clone, so queries never wait on evaluation. A view holds
//! the stream state its epoch evaluated, so its name lookups and vote
//! lists are exact at every epoch — they never lag the probabilities.
//! [`VerdictView::dataset`] materialises a batch [`Dataset`] on first use;
//! full epochs and [`evaluate_batch`] hand over the one they evaluated. A
//! drained engine (final full epoch, empty queue) produces a view
//! bit-identical to a one-shot batch run over the same data — the property
//! the differential test suite certifies via [`VerdictView::fingerprint`].

use std::collections::BTreeMap;
use std::iter::repeat_n;
use std::sync::{Arc, OnceLock, RwLock};

use corroborate_algorithms::inc::{IncEstHeu, IncEstimateConfig, IncEstimateSession};
use corroborate_core::prelude::*;
use corroborate_core::scoring::corrob_probability_or;
use corroborate_core::vote::SourceVote;

use crate::cow::CowVec;
use crate::delta::{ApplyOutcome, DeltaDataset, Mutation};
use crate::ServeError;

/// Epoch scheduling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochConfig {
    /// IncEstimate engine configuration used by full recomputes (its
    /// `voteless_prior` also prices unvoted facts in incremental epochs).
    pub engine: IncEstimateConfig,
    /// [`EpochMode::Auto`] switches to a full recompute when
    /// `invalidated facts / total facts` reaches this fraction.
    /// `0.0` makes every epoch full; `> 1.0` never escalates.
    pub full_recompute_threshold: f64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        Self { engine: IncEstimateConfig::default(), full_recompute_threshold: 0.25 }
    }
}

/// How one epoch evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// Incremental unless the invalidated fraction crosses the threshold.
    Auto,
    /// Force a complete IncEstimate re-run.
    Full,
}

/// What one epoch did, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// The epoch number just published.
    pub epoch: u64,
    /// Whether it was a full recompute.
    pub full: bool,
    /// Facts re-scored this epoch.
    pub facts_rescored: usize,
    /// Distinct invalidated signature groups entering the epoch.
    pub groups_invalidated: usize,
    /// IncEstimate rounds run (0 for incremental epochs).
    pub rounds: usize,
}

/// An immutable, atomically-published verdict snapshot.
#[derive(Debug)]
pub struct VerdictView {
    epoch: u64,
    full: bool,
    /// The stream state this epoch evaluated: a copy-on-write clone of
    /// the engine's, sharing every chunk and shard the engine has not
    /// written since.
    delta: DeltaDataset,
    /// `delta` materialised on first use; full epochs and
    /// [`evaluate_batch`] fill it with the dataset they evaluated.
    dataset: OnceLock<Arc<Dataset>>,
    probabilities: CowVec<f64>,
    /// Per-fact: scored incrementally since the last full recompute.
    stale: CowVec<bool>,
    /// Facts whose `stale` flag is set.
    stale_count: usize,
    trust: TrustSnapshot,
    rounds: usize,
    /// [`Self::fingerprint`], computed on first use. The serve paths that
    /// read it (`/replica`, `/cluster`, heartbeats) are rare next to
    /// publishes, so most views never pay for the O(n) digest.
    fingerprint: OnceLock<u64>,
    /// What [`Self::dataset`] serves should materialising `delta` ever
    /// fail — the builder cannot refuse the in-range ids a delta holds,
    /// and a read path must not panic.
    empty: Arc<Dataset>,
}

impl VerdictView {
    /// An empty view (epoch 0, before any data).
    pub fn empty(config: &EpochConfig) -> Result<Self, ServeError> {
        let empty = Arc::new(DeltaDataset::new().materialize()?);
        Ok(Self {
            epoch: 0,
            full: true,
            delta: DeltaDataset::new(),
            dataset: OnceLock::from(Arc::clone(&empty)),
            probabilities: CowVec::default(),
            stale: CowVec::default(),
            stale_count: 0,
            trust: TrustSnapshot::uniform(0, config.engine.initial_trust)
                .map_err(ServeError::Core)?,
            rounds: 0,
            fingerprint: OnceLock::new(),
            empty,
        })
    }

    /// The epoch that published this view.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the publishing epoch was a full recompute.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// The stream state the verdicts were computed over: names, labels
    /// and every fact's current votes ([`DeltaDataset::signature`]).
    pub fn delta(&self) -> &DeltaDataset {
        &self.delta
    }

    /// The verdicts' state as a batch [`Dataset`]. Materialised on the
    /// first call (O(dataset)) and kept; a full epoch's view comes with
    /// the dataset it evaluated already in place.
    pub fn dataset(&self) -> &Arc<Dataset> {
        self.dataset.get_or_init(|| {
            self.delta.materialize().map_or_else(|_| Arc::clone(&self.empty), Arc::new)
        })
    }

    /// IncEstimate rounds of the last full recompute.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Per-fact probabilities in fact-id order.
    pub fn probabilities(&self) -> impl Iterator<Item = f64> + '_ {
        self.probabilities.iter().copied()
    }

    /// Probability of `fact`.
    pub fn probability(&self, fact: FactId) -> f64 {
        self.probabilities[fact.index()]
    }

    /// Whether `fact` was scored under a stale trust snapshot (an
    /// incremental epoch since the last full recompute).
    pub fn is_stale(&self, fact: FactId) -> bool {
        self.stale[fact.index()]
    }

    /// Facts currently carrying the stale flag.
    pub fn stale_count(&self) -> usize {
        self.stale_count
    }

    /// The trust snapshot verdicts were priced under.
    pub fn trust(&self) -> &TrustSnapshot {
        &self.trust
    }

    /// Looks a fact up by name.
    pub fn fact_by_name(&self, name: &str) -> Option<FactId> {
        self.delta.fact_id(name)
    }

    /// Looks a source up by name.
    pub fn source_by_name(&self, name: &str) -> Option<SourceId> {
        self.delta.source_id(name)
    }

    /// FNV-1a digest of the evaluated state: source names and trust bits,
    /// fact names and probability bits, and the round count. Excludes the
    /// epoch counter and staleness flags, so a drained stream and a
    /// one-shot batch over the same data — however the mutations were
    /// chunked — digest identically. The streamed-vs-batch differential
    /// gate is an equality test on this value. Computed once per view, on
    /// the first call.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.digest())
    }

    /// The O(n) computation behind [`Self::fingerprint`].
    fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&(self.delta.n_sources() as u64).to_le_bytes());
        for s in (0..self.delta.n_sources()).map(SourceId::new) {
            eat(self.delta.source_name(s).as_bytes());
            eat(&[0]);
            eat(&self.trust.trust(s).to_bits().to_le_bytes());
        }
        eat(&(self.delta.n_facts() as u64).to_le_bytes());
        for (f, p) in (0..self.delta.n_facts()).map(FactId::new).zip(self.probabilities()) {
            eat(self.delta.fact_name(f).as_bytes());
            eat(&[0]);
            eat(&p.to_bits().to_le_bytes());
        }
        eat(&(self.rounds as u64).to_le_bytes());
        hash
    }
}

/// Swap-published shared state: writers replace the `Arc`, readers clone
/// it — the lock is held only for the pointer operation, never during
/// evaluation or rendering.
#[derive(Debug)]
pub struct Published<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> Published<T> {
    /// Publishes an initial value.
    pub fn new(value: T) -> Self {
        Self { slot: RwLock::new(Arc::new(value)) }
    }

    /// The current value (cheap: one read-lock + `Arc` clone).
    ///
    /// Recovers from lock poisoning: the slot only ever holds a fully
    /// constructed `Arc<T>` (swapped in one assignment), so a panicked
    /// writer cannot leave a torn value behind.
    pub fn get(&self) -> Arc<T> {
        Arc::clone(&self.slot.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Atomically replaces the value. The replaced `Arc` is dropped after
    /// the write lock is released: freeing the last reference to a large
    /// value must not stall every reader's [`Self::get`].
    pub fn publish(&self, value: Arc<T>) {
        let replaced = std::mem::replace(
            &mut *self.slot.write().unwrap_or_else(std::sync::PoisonError::into_inner),
            value,
        );
        drop(replaced);
    }
}

/// The single-writer evaluation engine behind the service.
#[derive(Debug)]
pub struct EpochEngine {
    delta: DeltaDataset,
    config: EpochConfig,
    epoch: u64,
    /// Trust snapshot cached from the last full recompute; prices
    /// incremental epochs. Sources registered since extend at
    /// `initial_trust`.
    trust: TrustSnapshot,
    /// Per-fact probabilities carried across epochs (ids are append-only).
    probs: CowVec<f64>,
    stale: CowVec<bool>,
    /// Facts whose `stale` flag is set.
    stale_count: usize,
    rounds: usize,
    /// Set until the first full recompute (boot, or WAL recovery — cached
    /// trust is not persisted, so nothing incremental can be trusted yet).
    needs_full: bool,
    /// Every view's [`VerdictView::dataset`] fallback, built once.
    empty: Arc<Dataset>,
}

impl EpochEngine {
    /// An engine over an empty stream.
    pub fn new(config: EpochConfig) -> Result<Self, ServeError> {
        Self::from_recovered(DeltaDataset::new(), config)
    }

    /// An engine over a recovered stream (e.g. WAL replay). The first
    /// epoch is forced full: the trust snapshot is not persisted.
    pub fn from_recovered(delta: DeltaDataset, config: EpochConfig) -> Result<Self, ServeError> {
        let n_sources = delta.n_sources();
        let n_facts = delta.n_facts();
        let trust = TrustSnapshot::uniform(n_sources, config.engine.initial_trust)
            .map_err(ServeError::Core)?;
        Ok(Self {
            delta,
            config,
            epoch: 0,
            trust,
            probs: repeat_n(config.engine.voteless_prior, n_facts).collect(),
            stale: repeat_n(true, n_facts).collect(),
            stale_count: n_facts,
            rounds: 0,
            needs_full: true,
            empty: Arc::new(DeltaDataset::new().materialize()?),
        })
    }

    /// The accumulated stream state.
    pub fn delta(&self) -> &DeltaDataset {
        &self.delta
    }

    /// The active configuration.
    pub fn config(&self) -> &EpochConfig {
        &self.config
    }

    /// Epochs published so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Facts invalidated since the last epoch.
    pub fn pending(&self) -> usize {
        self.delta.dirty_count()
    }

    /// Applies one mutation to the stream state (callers WAL-append
    /// first — the log is *write-ahead*).
    ///
    /// # Errors
    /// [`ServeError::InvalidMutation`] from the delta layer.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<ApplyOutcome, ServeError> {
        self.delta.apply(mutation)
    }

    /// Runs one epoch and returns the freshly published view. Call with
    /// [`EpochMode::Auto`] from the scheduler; [`EpochMode::Full`] is the
    /// drain / escape hatch.
    ///
    /// # Errors
    /// Materialisation or engine-configuration failures.
    pub fn run_epoch(
        &mut self,
        mode: EpochMode,
    ) -> Result<(Arc<VerdictView>, EpochStats), ServeError> {
        let groups_invalidated = self.delta.dirty_group_count();
        let n_facts = self.delta.n_facts();
        let invalidated_fraction =
            if n_facts == 0 { 0.0 } else { self.delta.dirty_count() as f64 / n_facts as f64 };
        let full = match mode {
            EpochMode::Full => true,
            EpochMode::Auto => {
                self.needs_full || invalidated_fraction >= self.config.full_recompute_threshold
            }
        };

        let dirty = self.delta.take_dirty();
        // Grow the carried columns for facts registered this epoch; they
        // start stale.
        let grown = n_facts - self.probs.len();
        self.probs.extend(repeat_n(self.config.engine.voteless_prior, grown));
        self.stale.extend(repeat_n(true, grown));
        self.stale_count += grown;
        if self.delta.n_sources() > self.trust.n_sources() {
            let mut grown =
                TrustSnapshot::uniform(self.delta.n_sources(), self.config.engine.initial_trust)
                    .map_err(ServeError::Core)?;
            for i in 0..self.trust.n_sources() {
                grown.set(SourceId::new(i), self.trust.trust(SourceId::new(i)));
            }
            self.trust = grown;
        }

        let mut dataset = OnceLock::new();
        let facts_rescored;
        if full {
            let materialized = Arc::new(self.delta.materialize()?);
            let result =
                IncEstimateSession::new(&materialized, IncEstHeu::default(), self.config.engine)
                    .map_err(ServeError::Core)?
                    .finish()
                    .map_err(ServeError::Core)?;
            facts_rescored = n_facts;
            self.probs = result.probabilities().iter().copied().collect();
            self.trust = result.trust().clone();
            self.rounds = result.rounds();
            self.stale = repeat_n(false, n_facts).collect();
            self.stale_count = 0;
            self.needs_full = false;
            dataset = OnceLock::from(materialized);
        } else {
            // Exact Corrob scores under the cached (stale) trust snapshot.
            // A score is a pure function of the signature, so facts sharing
            // one (common under bursty workloads where one source dirties a
            // whole co-vote group) are scored once, when first seen, and
            // the score is scattered to every member: the published bits
            // match the undeduplicated per-fact loop.
            facts_rescored = dirty.len();
            let prior = self.config.engine.voteless_prior;
            let mut seen: BTreeMap<&[(usize, Vote)], usize> = BTreeMap::new();
            let mut sig_score: Vec<f64> = Vec::new();
            let mut signature: Vec<SourceVote> = Vec::new();
            for &f in &dirty {
                let raw = self.delta.signature(f);
                let next = sig_score.len();
                let k = *seen.entry(raw).or_insert(next);
                if k == next {
                    signature.clear();
                    signature.extend(
                        raw.iter().map(|&(s, vote)| SourceVote { source: SourceId::new(s), vote }),
                    );
                    sig_score.push(corrob_probability_or(&signature, &self.trust, prior));
                }
                *self.probs.get_mut(f.index()) = sig_score[k];
                if !self.stale[f.index()] {
                    *self.stale.get_mut(f.index()) = true;
                    self.stale_count += 1;
                }
            }
        }

        self.epoch += 1;
        let view = Arc::new(VerdictView {
            epoch: self.epoch,
            full,
            delta: self.delta.clone(),
            dataset,
            probabilities: self.probs.clone(),
            stale: self.stale.clone(),
            stale_count: self.stale_count,
            trust: self.trust.clone(),
            rounds: self.rounds,
            fingerprint: OnceLock::new(),
            empty: Arc::clone(&self.empty),
        });
        let stats = EpochStats {
            epoch: self.epoch,
            full,
            facts_rescored,
            groups_invalidated,
            rounds: if full { self.rounds } else { 0 },
        };
        Ok((view, stats))
    }

    /// The drain epoch: a forced full recompute, restoring exact batch
    /// equivalence regardless of how the stream was chunked.
    ///
    /// # Errors
    /// Same as [`Self::run_epoch`].
    pub fn drain(&mut self) -> Result<(Arc<VerdictView>, EpochStats), ServeError> {
        self.run_epoch(EpochMode::Full)
    }
}

/// One-shot batch evaluation of a [`Dataset`], producing the view a
/// drained stream over the same data must match bit-for-bit.
///
/// # Errors
/// Engine-configuration failures.
pub fn evaluate_batch(dataset: Dataset, config: &EpochConfig) -> Result<VerdictView, ServeError> {
    let dataset = Arc::new(dataset);
    // Built before the engine runs, so the view's long-lived allocations
    // sit below the engine's short-lived ones and freeing those can return
    // memory to the OS.
    let delta = DeltaDataset::from_dataset(&dataset);
    let result = IncEstimateSession::new(&dataset, IncEstHeu::default(), config.engine)
        .map_err(ServeError::Core)?
        .finish()
        .map_err(ServeError::Core)?;
    Ok(VerdictView {
        epoch: 1,
        full: true,
        delta,
        stale: repeat_n(false, dataset.n_facts()).collect(),
        stale_count: 0,
        probabilities: result.probabilities().iter().copied().collect(),
        trust: result.trust().clone(),
        rounds: result.rounds(),
        dataset: OnceLock::from(dataset),
        fingerprint: OnceLock::new(),
        empty: Arc::new(DeltaDataset::new().materialize()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cast(source: &str, fact: &str, vote: Vote) -> Mutation {
        Mutation::Cast { source: source.into(), fact: fact.into(), vote }
    }

    fn seed_mutations() -> Vec<Mutation> {
        vec![
            cast("s1", "f1", Vote::True),
            cast("s2", "f1", Vote::True),
            cast("s3", "f1", Vote::False),
            cast("s1", "f2", Vote::True),
            cast("s2", "f2", Vote::False),
            cast("s3", "f3", Vote::True),
        ]
    }

    #[test]
    fn first_epoch_is_always_full() {
        let mut e = EpochEngine::new(EpochConfig::default()).unwrap();
        for m in seed_mutations() {
            e.apply(&m).unwrap();
        }
        let (view, stats) = e.run_epoch(EpochMode::Auto).unwrap();
        assert!(stats.full);
        assert_eq!(view.epoch(), 1);
        assert!(view.is_full());
        assert_eq!(view.stale_count(), 0);
        assert!(view.rounds() >= 1);
    }

    #[test]
    fn small_deltas_stay_incremental_and_flag_staleness() {
        let config = EpochConfig { full_recompute_threshold: 0.5, ..Default::default() };
        let mut e = EpochEngine::new(config).unwrap();
        for m in seed_mutations() {
            e.apply(&m).unwrap();
        }
        e.run_epoch(EpochMode::Auto).unwrap();
        // One new vote on one of three facts: fraction 1/3 < 0.5.
        e.apply(&cast("s4", "f3", Vote::False)).unwrap();
        let (view, stats) = e.run_epoch(EpochMode::Auto).unwrap();
        assert!(!stats.full);
        assert_eq!(stats.facts_rescored, 1);
        assert_eq!(stats.rounds, 0);
        let f3 = view.fact_by_name("f3").unwrap();
        assert!(view.is_stale(f3));
        assert_eq!(view.stale_count(), 1);
        // The untouched facts keep their full-recompute verdicts.
        let f1 = view.fact_by_name("f1").unwrap();
        assert!(!view.is_stale(f1));
        // The new source is visible at the default trust.
        let s4 = view.source_by_name("s4").unwrap();
        assert_eq!(view.trust().trust(s4), config.engine.initial_trust);
    }

    #[test]
    fn threshold_escalates_to_full() {
        let config = EpochConfig { full_recompute_threshold: 0.5, ..Default::default() };
        let mut e = EpochEngine::new(config).unwrap();
        for m in seed_mutations() {
            e.apply(&m).unwrap();
        }
        e.run_epoch(EpochMode::Auto).unwrap();
        // Touch two of three facts: fraction 2/3 >= 0.5 → full.
        e.apply(&cast("s4", "f1", Vote::False)).unwrap();
        e.apply(&cast("s4", "f2", Vote::False)).unwrap();
        let (view, stats) = e.run_epoch(EpochMode::Auto).unwrap();
        assert!(stats.full);
        assert_eq!(view.stale_count(), 0);
    }

    #[test]
    fn drained_stream_matches_one_shot_batch() {
        let config = EpochConfig::default();
        let mutations = seed_mutations();

        let mut streamed = EpochEngine::new(config).unwrap();
        for chunk in mutations.chunks(2) {
            for m in chunk {
                streamed.apply(m).unwrap();
            }
            streamed.run_epoch(EpochMode::Auto).unwrap();
        }
        let (view, _) = streamed.drain().unwrap();

        let mut batch_delta = DeltaDataset::new();
        batch_delta.apply_all(&mutations).unwrap();
        let batch = evaluate_batch(batch_delta.materialize().unwrap(), &config).unwrap();

        assert_eq!(view.fingerprint(), batch.fingerprint());
        assert!(view.probabilities().eq(batch.probabilities()));
        assert_eq!(view.trust().values(), batch.trust().values());
    }

    #[test]
    fn recovery_forces_a_full_first_epoch_even_when_clean() {
        let mut delta = DeltaDataset::new();
        for m in seed_mutations() {
            delta.apply(&m).unwrap();
        }
        delta.take_dirty(); // snapshot recovery leaves nothing dirty
        let mut e = EpochEngine::from_recovered(delta, EpochConfig::default()).unwrap();
        assert_eq!(e.pending(), 0);
        let (view, stats) = e.run_epoch(EpochMode::Auto).unwrap();
        assert!(stats.full, "recovered state must not trust a missing snapshot");
        assert_eq!(view.probabilities().count(), 3);
    }

    #[test]
    fn published_swaps_atomically() {
        let p = Published::new(41u64);
        assert_eq!(*p.get(), 41);
        let held = p.get();
        p.publish(Arc::new(42));
        assert_eq!(*p.get(), 42);
        // Readers holding the old Arc keep a consistent snapshot.
        assert_eq!(*held, 41);
    }

    #[test]
    fn publish_drops_the_replaced_value_outside_the_lock() {
        use std::sync::mpsc::{sync_channel, SyncSender};
        use std::sync::Barrier;
        use std::time::Duration;

        /// Announces its drop, then blocks in it until released.
        struct SlowDrop(Option<(SyncSender<()>, Arc<Barrier>)>);
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                if let Some((entered, release)) = self.0.take() {
                    let _ = entered.send(());
                    release.wait();
                }
            }
        }

        let (entered_tx, entered_rx) = sync_channel(1);
        let release = Arc::new(Barrier::new(2));
        let published =
            Arc::new(Published::new(SlowDrop(Some((entered_tx, Arc::clone(&release))))));
        let publisher = {
            let published = Arc::clone(&published);
            std::thread::spawn(move || published.publish(Arc::new(SlowDrop(None))))
        };
        entered_rx.recv_timeout(Duration::from_secs(10)).expect("publish drops the old value");
        // The replaced value's drop is blocked inside `publish` now.
        let (read_tx, read_rx) = sync_channel(1);
        let reader = {
            let published = Arc::clone(&published);
            std::thread::spawn(move || {
                drop(published.get());
                let _ = read_tx.send(());
            })
        };
        let read = read_rx.recv_timeout(Duration::from_secs(5));
        release.wait();
        publisher.join().unwrap();
        reader.join().unwrap();
        assert!(read.is_ok(), "get() waited for the replaced value to drop");
    }

    #[test]
    fn a_captured_view_is_unchanged_by_later_epochs() {
        let config = EpochConfig { full_recompute_threshold: 2.0, ..Default::default() };
        let mut e = EpochEngine::new(config).unwrap();
        for f in 0..600 {
            e.apply(&cast(&format!("s{}", f % 7), &format!("f{f}"), Vote::True)).unwrap();
        }
        e.run_epoch(EpochMode::Auto).unwrap();
        e.apply(&cast("s1", "f3", Vote::False)).unwrap();
        let (captured, _) = e.run_epoch(EpochMode::Auto).unwrap();
        let snapshot = |view: &VerdictView| {
            let lookups: Vec<Option<FactId>> =
                (0..700).map(|f| view.fact_by_name(&format!("f{f}"))).collect();
            let votes: Vec<Vec<(usize, Vote)>> = (0..view.delta().n_facts())
                .map(|f| view.delta().signature(FactId::new(f)).to_vec())
                .collect();
            (view.digest(), lookups, votes, view.stale_count())
        };
        let before = snapshot(&captured);

        // Vote flips on neighbouring ids (the captured facts' own chunks),
        // new sources and a hundred new facts (landing in the name maps'
        // shards), across several incremental epochs.
        for round in 0..4 {
            for f in (0..600).step_by(5) {
                let vote = if round % 2 == 0 { Vote::False } else { Vote::True };
                e.apply(&cast(&format!("s{}", (f + round) % 9), &format!("f{f}"), vote)).unwrap();
            }
            for f in 600 + 25 * round..600 + 25 * (round + 1) {
                e.apply(&cast(&format!("new-s{round}"), &format!("f{f}"), Vote::True)).unwrap();
            }
            let (view, stats) = e.run_epoch(EpochMode::Auto).unwrap();
            assert!(!stats.full);
            assert_ne!(view.fingerprint(), before.0);
        }
        assert_eq!(snapshot(&captured), before);
        assert_eq!(captured.delta().n_facts(), 600);
        assert!(captured.source_by_name("new-s0").is_none());
    }

    #[test]
    fn a_memoized_fingerprint_equals_a_fresh_digest() {
        let config = EpochConfig { full_recompute_threshold: 2.0, ..Default::default() };
        let mut e = EpochEngine::new(config).unwrap();
        for m in seed_mutations() {
            e.apply(&m).unwrap();
        }
        let (first, _) = e.run_epoch(EpochMode::Auto).unwrap();
        let memo = first.fingerprint();
        // An incremental epoch writes the engine's shared columns; the
        // first view's memo must still describe the first view's data.
        e.apply(&cast("s4", "f3", Vote::False)).unwrap();
        let (second, stats) = e.run_epoch(EpochMode::Auto).unwrap();
        assert!(!stats.full);
        assert_eq!(first.fingerprint(), memo);
        assert_eq!(first.digest(), memo);
        assert_eq!(second.fingerprint(), second.digest());
        assert_ne!(second.fingerprint(), memo);
    }

    #[test]
    fn empty_view_serves_zero_state() {
        let view = VerdictView::empty(&EpochConfig::default()).unwrap();
        assert_eq!(view.epoch(), 0);
        assert!(view.fact_by_name("nope").is_none());
        assert_eq!(view.probabilities().count(), 0);
    }

    /// A small-delta epoch is O(delta), not O(dataset), whether or not it
    /// registers a name: on an 8k-fact world every `Auto` epoch after the
    /// first full one stays incremental, runs no rounds, re-scores only
    /// facts its delta names, and never materialises the view's dataset.
    /// The shapes are 1, 16 and 256 random casts on known names, and one
    /// new fact carrying one cast (the shape of a probe write).
    #[test]
    fn small_delta_epochs_stay_incremental_at_scale() {
        use corroborate_datagen::synthetic::{generate, SyntheticConfig};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeSet;

        let cfg =
            SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts: 8_000, eta: 0.02, seed: 42 };
        let world = generate(&cfg).unwrap().dataset;
        let mut e = EpochEngine::new(EpochConfig::default()).unwrap();
        for m in DeltaDataset::mutations_of(&world) {
            e.apply(&m).unwrap();
        }
        let (_, stats) = e.run_epoch(EpochMode::Auto).unwrap();
        assert!(stats.full);

        let mut rng = StdRng::seed_from_u64(7);
        for (casts, new_fact) in [(1, false), (16, false), (256, false), (1, true)] {
            let d = e.delta();
            let mut delta: Vec<Mutation> = (0..casts)
                .map(|_| {
                    let source = d.source_name(SourceId::new(rng.gen_range(0..d.n_sources())));
                    let fact = d.fact_name(FactId::new(rng.gen_range(0..d.n_facts())));
                    cast(source, fact, if rng.gen_bool(0.8) { Vote::True } else { Vote::False })
                })
                .collect();
            if new_fact {
                let name = format!("new-fact-{}", d.n_facts());
                if let Some(Mutation::Cast { fact, .. }) = delta.last_mut() {
                    fact.clone_from(&name);
                }
                delta.insert(0, Mutation::AddFact { name, label: None });
            }
            let named: BTreeSet<&str> = delta
                .iter()
                .map(|m| match m {
                    Mutation::Cast { fact, .. } | Mutation::AddFact { name: fact, .. } => {
                        fact.as_str()
                    }
                    Mutation::AddSource { .. } => unreachable!("the delta registers no source"),
                })
                .collect();

            for m in &delta {
                e.apply(m).unwrap();
            }
            let (view, stats) = e.run_epoch(EpochMode::Auto).unwrap();
            let shape = format!("{casts} casts, new fact: {new_fact}");
            assert!(!stats.full, "{shape}: escalated to a full epoch");
            assert_eq!(stats.rounds, 0, "{shape}: an incremental epoch runs no rounds");
            assert!(
                stats.facts_rescored <= named.len(),
                "{shape}: re-scored {} facts for a delta naming {}",
                stats.facts_rescored,
                named.len()
            );
            assert!(view.dataset.get().is_none(), "{shape}: the epoch materialised the dataset");
        }
    }
}

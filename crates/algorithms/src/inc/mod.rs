//! **IncEstimate** — the paper's contribution (Algorithm 1): incremental
//! corroboration with a *multi-value trust score* per source.
//!
//! Instead of deriving one global trust score and applying it to every
//! fact, IncEstimate evaluates facts in rounds (*time points*). At time
//! `t_i` a selection strategy picks a subset of the unevaluated facts;
//! those facts are scored with the Corrob rule (Equation 5) under the
//! *current* trust snapshot `σ_i(S)`, and the snapshot is then updated from
//! the outcomes: a source's trust value at `t_{i+1}` is the fraction of its
//! votes on evaluated facts that agree with the (rounded) evaluation
//! results — which reproduces the §2.3 walkthrough exactly.
//!
//! The fact-selection strategy is pluggable via [`SelectionStrategy`]:
//!
//! - [`IncEstHeu`] — the paper's entropy heuristic
//!   (Algorithm 2): rank fact groups by the projected change in the
//!   collective entropy of the remaining facts and evaluate a balanced
//!   pair of the best positive and best negative groups (see
//!   [`DeltaHMode`] for the supported readings of Equation 9);
//! - [`IncEstPS`] — the naive comparison strategy
//!   (§6.1.1): always evaluate the highest-probability group;
//! - [`FixedSchedule`] — a scripted round schedule, used to reproduce the
//!   §2.3 walkthrough (Table 2's "Our strategy" row) and for testing.
//!
//! ## Per-round cost
//!
//! A round's bookkeeping costs what the round changed, not the size of the
//! world. Evaluating facts counts their votes once per touched group (a
//! group's facts share its signature and outcome), and evaluating or
//! seeding marks the sources whose counters moved and the selection blocks
//! whose groups shrank. The refresh that follows drops the postings of the
//! groups that drained, re-derives the trust of the marked sources only
//! (the first refresh visits every source), recomputes the cached
//! probabilities of the groups posted on by sources whose trust changed,
//! and — for a strategy that reads them — rescans only the blocks holding
//! a recomputed, shrunk or drained group (see the `cache` module). The
//! session records the trust trajectory as a change log of the re-derived
//! sources. Every shortcut is exact: results are bit-identical to
//! re-deriving everything each round.
//!
//! Every round runs on the calling thread: a round selects from the trust
//! snapshot the previous round produced, so rounds cannot overlap, and one
//! round's cache refresh is too small to split across threads.

mod cache;
mod heuristic;
#[cfg(test)]
mod naive_ref;
mod prob_select;
mod session;

pub use heuristic::{DeltaHMode, IncEstHeu};
pub use prob_select::IncEstPS;
pub use session::{IncEstimateSession, StepReport};

use corroborate_core::groups::{group_by_signature, FactGroup};
use corroborate_core::index::SourceGroupIndex;
use corroborate_core::prelude::*;
use corroborate_core::scoring::corrob_probability_or;
use corroborate_obs::{Counter, NoopObserver, Observer, Span, NOOP};

use crate::{traced, OBS_EMIT};

/// Configuration shared by every IncEstimate strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncEstimateConfig {
    /// Default trust for every source at `t_0`, and the value a source
    /// keeps while none of its votes have been evaluated (the paper uses
    /// 0.9 and observes any default above 0.5 yields the same result).
    pub initial_trust: f64,
    /// Probability assigned to facts with no votes at all.
    pub voteless_prior: f64,
    /// Bayesian smoothing of the trust update: the update behaves as if
    /// each source came with `prior_strength` pseudo-votes agreeing at
    /// `initial_trust`, i.e. `σ(s) = (matches + k·σ₀) / (total + k)`.
    ///
    /// A small positive value (default 0.1) keeps trust estimates off the
    /// exact `1.0` / `0.5` boundaries. This matters: with the raw match
    /// fraction, early rounds saturate every credited source at exactly
    /// 1.0, which parks every mixed `{T, F}` signature at a Corrob score
    /// of exactly 0.5 — permanent limbo under §5.1's strict partition —
    /// and the incremental cascade never starts. With smoothing, the
    /// trust trajectories dip gradually, exactly as the paper's
    /// Figure 2(b) shows. Set to 0 for the raw §2.3-walkthrough
    /// arithmetic.
    pub prior_strength: f64,
    /// Kept only so the benchmark harness under `ledger/` still builds; it
    /// has a single value and changes nothing.
    pub shard: ShardConfig,
}

/// Kept only because the benchmark harness under `ledger/` names it: a
/// field-less type whose one value is both [`ShardConfig::sequential`] and
/// the default. The engine is unpartitioned and single-threaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardConfig;

impl ShardConfig {
    /// The only value.
    pub fn sequential() -> Self {
        Self
    }
}

/// Kept only because the benchmark harness under `ledger/` prints it as a
/// run fact: the engine has one partition.
pub const DEFAULT_SHARDS: usize = 1;

/// Kept only because the benchmark harness under `ledger/` prints it as a
/// run fact: `0` reports the host's parallelism (`available_parallelism`,
/// 1 when unknown); any other value is returned as is. The engine reads
/// neither.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

impl Default for IncEstimateConfig {
    fn default() -> Self {
        Self { initial_trust: 0.9, voteless_prior: 0.9, prior_strength: 0.1, shard: ShardConfig }
    }
}

impl IncEstimateConfig {
    fn validate(&self) -> Result<(), CoreError> {
        corroborate_core::error::check_probability("initial trust", self.initial_trust)?;
        corroborate_core::error::check_probability("voteless prior", self.voteless_prior)?;
        if !(self.prior_strength >= 0.0 && self.prior_strength.is_finite()) {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "prior_strength must be finite and non-negative, got {}",
                    self.prior_strength
                ),
            });
        }
        Ok(())
    }
}

/// The evolving state of an IncEstimate run, exposed read-only to
/// [`SelectionStrategy`] implementations.
///
/// Generic over the attached [`Observer`] (static dispatch): with the
/// default [`NoopObserver`] every telemetry hook monomorphises to nothing,
/// so uninstrumented runs compile to the pre-telemetry code exactly.
#[derive(Debug)]
pub struct IncState<'a, O: Observer = NoopObserver> {
    /// Telemetry sink; `&NOOP` unless built via
    /// [`IncEstimateSession::with_observer`].
    obs: &'a O,
    dataset: &'a Dataset,
    config: IncEstimateConfig,
    /// `true` while the fact is still unevaluated.
    remaining_mask: Vec<bool>,
    remaining_count: usize,
    /// Current trust snapshot σ_i(S).
    trust: TrustSnapshot,
    /// Per-source counters over evaluated facts: votes agreeing with the
    /// rounded evaluation result / total votes evaluated.
    matches: Vec<u32>,
    totals: Vec<u32>,
    /// Sources whose counters moved since the last refresh (every source
    /// before the first one), with their membership flags: only these
    /// have a trust value to re-derive.
    moved: Vec<SourceId>,
    moved_flags: Vec<bool>,
    /// Sources the last refresh re-derived.
    rederived: Vec<SourceId>,
    /// Evaluated probability per fact (config prior until evaluated).
    probs: Vec<f64>,
    /// Signature groups in canonical order, maintained incrementally:
    /// evaluating a fact removes it from its group (groups drain to empty
    /// rather than being removed, so group indices stay stable), and
    /// strategies iterate the live ones via
    /// [`remaining_groups`](Self::remaining_groups) without any per-round
    /// re-grouping or cloning.
    groups: Vec<FactGroup>,
    /// Group index of each fact.
    group_of: Vec<usize>,
    /// Source→group inverted index over `groups`. A group's postings are
    /// removed in the round it drains, so every list holds exactly the
    /// source's live groups.
    index: SourceGroupIndex,
    /// Per-group caches (Corrob probability, entropy, dirty tracking): a
    /// round only recomputes the groups voted on by sources whose trust
    /// value actually moved — O(votes of changed sources) instead of
    /// O(total votes). Also keeps the per-block polarity winners the
    /// self-term selection folds, when the strategy reads them.
    caches: cache::GroupCaches,
}

impl<'a> IncState<'a> {
    /// State with the no-op observer. Defined only on the
    /// `IncState<'a, NoopObserver>` instantiation so `IncState::new` in the
    /// tests keeps inferring the default observer (the engine itself goes
    /// through [`Self::with_observer`]).
    #[cfg(test)]
    fn new(dataset: &'a Dataset, config: IncEstimateConfig) -> Result<Self, CoreError> {
        Self::with_observer(dataset, config, &NOOP, true)
    }
}

impl<'a, O: Observer> IncState<'a, O> {
    /// State over `dataset`; `keep_block_winners` keeps the self-term
    /// selection's per-block winners current after every refresh (see
    /// [`SelectionStrategy::reads_block_winners`]).
    fn with_observer(
        dataset: &'a Dataset,
        config: IncEstimateConfig,
        obs: &'a O,
        keep_block_winners: bool,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let all_facts: Vec<FactId> = dataset.facts().collect();
        let groups = group_by_signature(dataset.votes(), &all_facts);
        let mut group_of = vec![0usize; dataset.n_facts()];
        for (gi, g) in groups.iter().enumerate() {
            for &f in &g.facts {
                group_of[f.index()] = gi;
            }
        }
        let index = SourceGroupIndex::build(&groups, dataset.n_sources());
        let trust = TrustSnapshot::uniform(dataset.n_sources(), config.initial_trust)?;
        let caches =
            cache::GroupCaches::build(&groups, &trust, config.voteless_prior, keep_block_winners);
        Ok(Self {
            obs,
            dataset,
            config,
            remaining_mask: vec![true; dataset.n_facts()],
            remaining_count: dataset.n_facts(),
            trust,
            matches: vec![0; dataset.n_sources()],
            totals: vec![0; dataset.n_sources()],
            // The first refresh re-derives every source: the uniform σ₀
            // need not equal the smoothed `(0 + k·σ₀)/(0 + k)` bit for bit.
            moved: dataset.sources().collect(),
            moved_flags: vec![true; dataset.n_sources()],
            rederived: Vec::new(),
            probs: vec![config.voteless_prior; dataset.n_facts()],
            groups,
            group_of,
            index,
            caches,
        })
    }

    /// Detaches `fact` from its signature group (fact becomes evaluated)
    /// and returns the group index.
    fn remove_from_group(&mut self, fact: FactId) -> usize {
        let gi = self.group_of[fact.index()];
        let group = &mut self.groups[gi];
        if let Ok(pos) = group.facts.binary_search(&fact) {
            group.facts.remove(pos);
        }
        self.caches.mark_shrunk(gi);
        gi
    }

    /// Folds `n` evaluated votes of `source`, all agreeing or all not, into
    /// its counters and marks the source for re-derivation.
    fn count_votes(&mut self, source: SourceId, n: u32, agrees: bool) {
        let s = source.index();
        self.totals[s] += n;
        if agrees {
            self.matches[s] += n;
        }
        if !self.moved_flags[s] {
            self.moved_flags[s] = true;
            self.moved.push(source);
        }
    }

    /// Total signature-group count including drained groups — see
    /// [`groups`](Self::groups).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The dataset under corroboration.
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The attached telemetry observer.
    pub fn observer(&self) -> &'a O {
        self.obs
    }

    /// Collective entropy of the unevaluated population:
    /// `Σ_g |FG_g| · H(p_g)` over live groups, from the entropy cache.
    ///
    /// O(groups) — intended for telemetry (the per-round ΔH trajectory),
    /// not for hot-path scoring; emission sites only compute it when the
    /// observer is enabled.
    pub fn remaining_entropy(&self) -> f64 {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.facts.is_empty())
            .map(|(gi, g)| g.facts.len() as f64 * self.caches.entropy(gi))
            .sum()
    }

    /// The active configuration.
    pub fn config(&self) -> &IncEstimateConfig {
        &self.config
    }

    /// The current trust snapshot `σ_i(S)`.
    pub fn trust(&self) -> &TrustSnapshot {
        &self.trust
    }

    /// Number of facts not yet evaluated.
    pub fn remaining_count(&self) -> usize {
        self.remaining_count
    }

    /// `true` while `fact` has not been evaluated.
    pub fn is_remaining(&self, fact: FactId) -> bool {
        self.remaining_mask[fact.index()]
    }

    /// The unevaluated facts, ascending by id.
    pub fn remaining_facts(&self) -> Vec<FactId> {
        self.remaining_mask
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| FactId::new(i))
            .collect()
    }

    /// The unevaluated facts grouped by vote signature (§5.1), in
    /// deterministic canonical order (equal to
    /// [`group_by_signature`] over [`remaining_facts`](Self::remaining_facts)
    /// — maintained incrementally, see the struct docs).
    ///
    /// This is a borrowed view: no per-round clone of the group list.
    pub fn remaining_groups(&self) -> impl Iterator<Item = &FactGroup> + '_ {
        self.groups.iter().filter(|g| !g.facts.is_empty())
    }

    /// All signature groups in canonical order, *including* drained ones
    /// (empty `facts`) — indices into this slice are stable for the whole
    /// run and key the probability cache and the inverted index.
    pub fn groups(&self) -> &[FactGroup] {
        &self.groups
    }

    /// Cached Corrob probability of group `group` (an index into
    /// [`groups`](Self::groups)) under the current trust snapshot.
    ///
    /// For live groups this is bit-identical to recomputing
    /// [`signature_probability`](Self::signature_probability) on the
    /// group's signature: the cache is refreshed with the same kernel
    /// whenever a voting source's trust value changes. Groups that drained
    /// to empty are compacted out of the index and may retain a stale
    /// value.
    pub fn group_probability(&self, group: usize) -> f64 {
        self.caches.probability(group)
    }

    /// Cached binary entropy of [`group_probability`](Self::group_probability)
    /// — bit-identical to calling
    /// [`binary_entropy`](corroborate_core::entropy::binary_entropy) on it,
    /// refreshed in the same dirty pass as the probability cache.
    pub fn group_entropy(&self, group: usize) -> f64 {
        self.caches.entropy(group)
    }

    /// Best positive and best negative live group under the self-term ΔH
    /// order, and the number of groups in either part — the per-block
    /// winners folded in canonical order (see [`cache`]). Private to
    /// `inc`, used by the heuristic strategy.
    fn polarity_winners(&self) -> (Option<cache::GroupPick>, Option<cache::GroupPick>, u64) {
        self.caches.polarity_winners(&self.groups)
    }

    /// Number of selection blocks the self-term winners fold over.
    fn n_blocks(&self) -> usize {
        self.caches.n_blocks()
    }

    /// The source→group inverted index over [`groups`](Self::groups).
    pub fn source_index(&self) -> &SourceGroupIndex {
        &self.index
    }

    /// Group index of `fact` in [`groups`](Self::groups).
    pub fn group_of(&self, fact: FactId) -> usize {
        self.group_of[fact.index()]
    }

    /// Corrob probability of a vote signature under the current trust.
    pub fn signature_probability(&self, signature: &[corroborate_core::vote::SourceVote]) -> f64 {
        corrob_probability_or(signature, &self.trust, self.config.voteless_prior)
    }

    /// Corrob probability of a single fact under the current trust.
    pub fn fact_probability(&self, fact: FactId) -> f64 {
        self.signature_probability(self.dataset.votes().votes_on(fact))
    }

    /// Projected trust of `source` if `extra_total` additional evaluated
    /// votes were recorded for it, `extra_matches` of them agreeing.
    ///
    /// Applies the configured smoothing
    /// `(matches + k·σ₀) / (total + k)`; a source with no evaluated votes
    /// therefore keeps the default trust — the §2.3 walkthrough's `'-'`
    /// entries.
    pub fn projected_trust(&self, source: SourceId, extra_matches: u32, extra_total: u32) -> f64 {
        let total = f64::from(self.totals[source.index()] + extra_total);
        let matches = f64::from(self.matches[source.index()] + extra_matches);
        let k = self.config.prior_strength;
        if total + k == 0.0 {
            return self.config.initial_trust;
        }
        (matches + k * self.config.initial_trust) / (total + k)
    }

    /// The probability recorded for `fact` (the configured prior while it
    /// is still unevaluated).
    pub fn probability(&self, fact: FactId) -> f64 {
        self.probs[fact.index()]
    }

    /// Consumes the state, yielding the per-fact probabilities.
    pub(crate) fn into_probabilities(self) -> Vec<f64> {
        self.probs
    }

    /// The sources the last trust refresh re-derived — every source whose
    /// value can differ from the snapshot before it.
    pub(crate) fn rederived(&self) -> &[SourceId] {
        &self.rederived
    }

    /// Marks `fact` as evaluated with an externally-known `label`
    /// (probability 1/0), updating counters and trust — the
    /// semi-supervised seeding primitive used by
    /// [`IncEstimateSession::seed`].
    pub(crate) fn seed(&mut self, fact: FactId, label: Label) {
        debug_assert!(self.remaining_mask[fact.index()]);
        self.probs[fact.index()] = if label.as_bool() { 1.0 } else { 0.0 };
        self.remaining_mask[fact.index()] = false;
        self.remaining_count -= 1;
        let gi = self.remove_from_group(fact);
        for sv in self.dataset.votes().votes_on(fact) {
            self.count_votes(sv.source, 1, sv.vote.as_bool() == label.as_bool());
        }
        let drained: &[usize] = if self.groups[gi].facts.is_empty() { &[gi] } else { &[] };
        self.refresh_trust_and_cache(drained);
    }

    /// Re-derives the trust of the sources whose counters moved, then
    /// refreshes the group-probability cache for exactly the groups voted
    /// on by sources whose trust value changed (dirty tracking over the
    /// inverted index).
    ///
    /// First compacts the groups that drained this round (`drained`) out of
    /// the posting lists, so spillover walks and dirty marking stay
    /// proportional to the live degree of each source. Dead groups
    /// contribute nothing to either, so compaction never changes results.
    /// A source whose counters did not move keeps the value the last
    /// refresh derived from them, so skipping it is exact too.
    fn refresh_trust_and_cache(&mut self, drained: &[usize]) {
        let obs = self.obs;
        traced(obs, Span::CacheRefresh, self.moved.len() as u64, || {
            let compacted = self.index.remove_groups(&self.groups, drained);
            std::mem::swap(&mut self.moved, &mut self.rederived);
            self.moved.clear();
            for k in 0..self.rederived.len() {
                let s = self.rederived[k];
                self.moved_flags[s.index()] = false;
                let updated = self.projected_trust(s, 0, 0);
                if updated.to_bits() != self.trust.trust(s).to_bits() {
                    for posting in self.index.groups_of(s) {
                        self.caches.mark_dirty(posting.group);
                    }
                }
                self.trust.set(s, updated);
            }
            let recomputed =
                self.caches.refresh(&self.groups, &self.trust, self.config.voteless_prior);
            if O::ENABLED && OBS_EMIT {
                obs.add(Counter::PostingsCompacted, compacted as u64);
                if recomputed > 0 {
                    obs.add(Counter::CacheRefreshes, 1);
                    obs.add(Counter::GroupsRecomputed, recomputed as u64);
                }
            }
        });
    }

    /// Evaluates `facts` at the current time point: fixes their
    /// probabilities under `σ_i(S)`, folds the rounded outcomes into the
    /// per-source counters, and recomputes the trust snapshot `σ_{i+1}(S)`.
    pub(crate) fn evaluate(&mut self, facts: &[FactId]) {
        let obs = self.obs;
        traced(obs, Span::Evaluate, facts.len() as u64, || {
            let mut detach: Vec<(usize, FactId)> = Vec::with_capacity(facts.len());
            for &f in facts {
                debug_assert!(self.remaining_mask[f.index()], "fact evaluated twice: {f}");
                // The cached group probability is valid throughout the loop:
                // evaluation fixes probabilities under σ_i, and the snapshot
                // only advances in refresh_trust_and_cache below.
                let gi = self.group_of[f.index()];
                self.probs[f.index()] = self.caches.probability(gi);
                self.remaining_mask[f.index()] = false;
                self.remaining_count -= 1;
                detach.push((gi, f));
            }
            // Batched per group: one retain pass per touched group instead
            // of one O(|FG|) Vec::remove per fact — the final mass round
            // over a large group would otherwise drain it quadratically.
            // A group's facts share its signature (their votes) and its
            // cached probability (their outcome), so each signature source's
            // counters move by the run length at once.
            detach.sort_unstable();
            let mut drained = Vec::new();
            for run in detach.chunk_by(|a, b| a.0 == b.0) {
                let gi = run[0].0;
                let outcome = Label::from_probability(self.caches.probability(gi));
                let n = run.len() as u32;
                for k in 0..self.groups[gi].signature.len() {
                    let sv = self.groups[gi].signature[k];
                    self.count_votes(sv.source, n, sv.vote.as_bool() == outcome.as_bool());
                }
                let members = &mut self.groups[gi].facts;
                remove_batch_from_group(members, run);
                if members.is_empty() {
                    drained.push(gi);
                }
                self.caches.mark_shrunk(gi);
            }
            self.refresh_trust_and_cache(&drained);
        });
        if O::ENABLED && OBS_EMIT {
            obs.add(Counter::FactsEvaluated, facts.len() as u64);
        }
    }
}

/// Removes every fact of `dead` (sorted `(group, fact)` runs for a single
/// group) from the sorted member list in one merge pass — O(|FG| + batch)
/// instead of O(|FG| · batch).
fn remove_batch_from_group(members: &mut Vec<FactId>, dead: &[(usize, FactId)]) {
    let mut di = 0;
    members.retain(|&f| {
        while di < dead.len() && dead[di].1 < f {
            di += 1;
        }
        !(di < dead.len() && dead[di].1 == f)
    });
}

/// A fact-selection strategy for IncEstimate (the paper's
/// `Select_Facts(F̄, σ(S))`).
///
/// `select` is generic over the state's [`Observer`] (static dispatch —
/// this trait is never used as a trait object); strategies may emit
/// telemetry through [`IncState::observer`], and must produce bit-identical
/// selections whatever observer is attached.
pub trait SelectionStrategy {
    /// Strategy name used in result tables (e.g. `"IncEstHeu"`).
    fn name(&self) -> &str;

    /// Picks the facts to evaluate at the current time point. Every
    /// returned id must still be unevaluated; returning an empty vector
    /// makes the engine evaluate all remaining facts in one final round.
    fn select<O: Observer>(&self, state: &IncState<'_, O>) -> Vec<FactId>;

    /// Whether `select` reads the per-block winners the engine can keep
    /// for the self-term selection (only [`IncEstHeu`] in its self-term
    /// mode does). The engine rescans stale blocks after each refresh
    /// only for a strategy that returns `true`. The default is always
    /// correct: winners that were not kept are scanned when read.
    fn reads_block_winners(&self) -> bool {
        false
    }
}

impl<S: SelectionStrategy + ?Sized> SelectionStrategy for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn select<O: Observer>(&self, state: &IncState<'_, O>) -> Vec<FactId> {
        (**self).select(state)
    }

    fn reads_block_winners(&self) -> bool {
        (**self).reads_block_winners()
    }
}

/// The IncEstimate engine (Algorithm 1), generic over the selection
/// strategy.
#[derive(Debug, Clone)]
pub struct IncEstimate<S> {
    strategy: S,
    config: IncEstimateConfig,
}

impl<S: SelectionStrategy> IncEstimate<S> {
    /// Engine with the default configuration.
    pub fn new(strategy: S) -> Self {
        Self { strategy, config: IncEstimateConfig::default() }
    }

    /// Engine with an explicit configuration.
    pub fn with_config(strategy: S, config: IncEstimateConfig) -> Self {
        Self { strategy, config }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// [`Corroborator::corroborate`] with telemetry: the run streams
    /// per-round records, pruning-tier counters, and span timings into
    /// `obs`. With [`NoopObserver`] this is exactly `corroborate`.
    ///
    /// # Errors
    /// Propagates configuration validation and result-assembly errors.
    pub fn corroborate_observed<O: Observer>(
        &self,
        dataset: &Dataset,
        obs: &O,
    ) -> Result<CorroborationResult, CoreError> {
        IncEstimateSession::with_observer(dataset, &self.strategy, self.config, obs)?.finish()
    }
}

impl<S: SelectionStrategy> Corroborator for IncEstimate<S> {
    fn name(&self) -> &str {
        self.strategy.name()
    }

    fn corroborate(&self, dataset: &Dataset) -> Result<CorroborationResult, CoreError> {
        self.corroborate_observed(dataset, &NOOP)
    }
}

/// A scripted selection strategy: round `i` evaluates the `i`-th listed
/// set (facts already evaluated are skipped); once the script is exhausted
/// all remaining facts are evaluated in one final round.
///
/// Reproduces hand-designed schedules such as the §2.3 walkthrough.
#[derive(Debug, Clone)]
pub struct FixedSchedule {
    name: String,
    rounds: Vec<Vec<FactId>>,
    cursor: std::cell::Cell<usize>,
}

impl FixedSchedule {
    /// Creates a schedule with the given per-round fact sets.
    pub fn new(name: impl Into<String>, rounds: Vec<Vec<FactId>>) -> Self {
        Self { name: name.into(), rounds, cursor: std::cell::Cell::new(0) }
    }
}

impl SelectionStrategy for FixedSchedule {
    fn name(&self) -> &str {
        &self.name
    }

    fn select<O: Observer>(&self, _state: &IncState<'_, O>) -> Vec<FactId> {
        let i = self.cursor.get();
        self.cursor.set(i + 1);
        self.rounds.get(i).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corroborate_datagen::motivating::motivating_example;

    fn fid(i: usize) -> FactId {
        FactId::new(i)
    }
    fn sid(i: usize) -> SourceId {
        SourceId::new(i)
    }

    /// The §2.3 walkthrough, verbatim: round 1 = {r9, r12}, round 2 =
    /// {r5, r6}, round 3 = the rest. Table 1 ids are 0-based (r1 = f0).
    #[test]
    fn section_2_3_walkthrough_reproduces_exactly() {
        let ds = motivating_example();
        let schedule =
            FixedSchedule::new("Walkthrough", vec![vec![fid(8), fid(11)], vec![fid(4), fid(5)]]);
        // The walkthrough's arithmetic uses the raw match fraction.
        let cfg = IncEstimateConfig { prior_strength: 0.0, ..Default::default() };
        let r = IncEstimate::with_config(schedule, cfg).corroborate(&ds).unwrap();

        // Round-1 outcomes: r9 true, r12 false.
        assert!(r.decisions().label(fid(8)).as_bool());
        assert!(!r.decisions().label(fid(11)).as_bool());
        // Round-2 outcomes: both false.
        assert!(!r.decisions().label(fid(4)).as_bool());
        assert!(!r.decisions().label(fid(5)).as_bool());
        // Round 3: everything else true.
        for i in [0, 1, 2, 3, 6, 7, 9, 10] {
            assert!(r.decisions().label(fid(i)).as_bool(), "r{}", i + 1);
        }

        // Trust trajectory: t0 = defaults, t1 = {-,1,1,0,1},
        // t2 = {0,1,1,0,1}, t3 = {0.67,1,1,0.7,1}.
        let traj = r.trajectory().unwrap();
        assert_eq!(traj.len(), 4);
        let t1 = traj.at(1).unwrap();
        assert_eq!(t1.trust(sid(0)), 0.9); // '-' → keeps default
        assert_eq!(t1.trust(sid(1)), 1.0);
        assert_eq!(t1.trust(sid(2)), 1.0);
        assert_eq!(t1.trust(sid(3)), 0.0);
        assert_eq!(t1.trust(sid(4)), 1.0);
        let t2 = traj.at(2).unwrap();
        assert_eq!(t2.trust(sid(0)), 0.0);
        assert_eq!(t2.trust(sid(3)), 0.0);
        let t3 = traj.at(3).unwrap();
        assert!((t3.trust(sid(0)) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t3.trust(sid(1)), 1.0);
        assert_eq!(t3.trust(sid(2)), 1.0);
        assert!((t3.trust(sid(3)) - 0.7).abs() < 1e-12);
        assert_eq!(t3.trust(sid(4)), 1.0);

        // Table 2, "Our strategy" row: P = 0.78, R = 1, A = 0.83.
        let m = r.confusion(&ds).unwrap();
        assert!((m.precision() - 7.0 / 9.0).abs() < 1e-9);
        assert_eq!(m.recall(), 1.0);
        assert!((m.accuracy() - 10.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn round_2_probabilities_match_walkthrough() {
        // "Note that although we have T votes from s4 for both restaurants,
        // since it has a trust score of 0 from the first round, the
        // corroboration assigns a low score for both restaurants."
        let ds = motivating_example();
        let schedule = FixedSchedule::new("W", vec![vec![fid(8), fid(11)], vec![fid(4), fid(5)]]);
        let cfg = IncEstimateConfig { prior_strength: 0.0, ..Default::default() };
        let r = IncEstimate::with_config(schedule, cfg).corroborate(&ds).unwrap();
        // r5 = (σ(s1)=0.9 default + σ(s4)=0) / 2 = 0.45.
        assert!((r.probability(fid(4)) - 0.45).abs() < 1e-12);
        // r6 = ((1 − σ(s3)=1) + σ(s4)=0) / 2 = 0.
        assert!((r.probability(fid(5)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_evaluates_everything_in_one_round() {
        let ds = motivating_example();
        let r = IncEstimate::new(FixedSchedule::new("OneShot", vec![])).corroborate(&ds).unwrap();
        assert_eq!(r.rounds(), 1);
        // All facts scored under the uniform default trust: every T-only
        // fact gets 0.9; r12 gets (0.1+0.1+0.9)/3; r6 gets 0.5 → true.
        assert!((r.probability(fid(0)) - 0.9).abs() < 1e-12);
        assert!(!r.decisions().label(fid(11)).as_bool());
    }

    #[test]
    fn schedule_skips_already_evaluated_facts() {
        let ds = motivating_example();
        let schedule = FixedSchedule::new("Dup", vec![vec![fid(0), fid(1)], vec![fid(1), fid(2)]]);
        let r = IncEstimate::new(schedule).corroborate(&ds).unwrap();
        // Must terminate and evaluate every fact exactly once.
        assert_eq!(r.probabilities().len(), 12);
        assert_eq!(r.rounds(), 3);
    }

    #[test]
    fn trajectory_starts_with_uniform_default() {
        let ds = motivating_example();
        let r =
            IncEstimate::new(FixedSchedule::new("X", vec![vec![fid(0)]])).corroborate(&ds).unwrap();
        let t0 = r.trajectory().unwrap().at(0).unwrap();
        for s in ds.sources() {
            assert_eq!(t0.trust(s), 0.9);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let ds = motivating_example();
        let cfg = IncEstimateConfig { initial_trust: -0.2, ..Default::default() };
        let e = IncEstimate::with_config(FixedSchedule::new("X", vec![]), cfg).corroborate(&ds);
        assert!(e.is_err());
        let cfg = IncEstimateConfig { prior_strength: -1.0, ..Default::default() };
        let e = IncEstimate::with_config(FixedSchedule::new("X", vec![]), cfg).corroborate(&ds);
        assert!(e.is_err());
    }

    #[test]
    fn smoothing_keeps_trust_off_the_boundaries() {
        // With the default prior strength, a source with one agreeing
        // evaluated vote sits just below 1.0 and one with one
        // disagreeing vote just above 0.0 — never exactly saturated.
        let ds = motivating_example();
        let state = IncState::new(&ds, IncEstimateConfig::default()).unwrap();
        let up = state.projected_trust(sid(0), 1, 1);
        let down = state.projected_trust(sid(0), 0, 1);
        assert!(up < 1.0 && up > 0.95, "up = {up}");
        assert!(down > 0.0 && down < 0.1, "down = {down}");
        // No evaluated votes → exactly the default.
        assert_eq!(state.projected_trust(sid(0), 0, 0), 0.9);
    }

    #[test]
    fn cached_groups_match_recomputed_grouping_mid_run() {
        use corroborate_core::groups::group_by_signature;
        let ds = motivating_example();
        let mut state = IncState::new(&ds, IncEstimateConfig::default()).unwrap();
        // Evaluate an arbitrary mix, including whole and partial groups.
        state.evaluate(&[fid(0), fid(6), fid(11)]);
        let cached: Vec<_> = state.remaining_groups().cloned().collect();
        let recomputed = group_by_signature(ds.votes(), &state.remaining_facts());
        assert_eq!(cached, recomputed);
        state.evaluate(&[fid(7)]);
        assert_eq!(
            state.remaining_groups().cloned().collect::<Vec<_>>(),
            group_by_signature(ds.votes(), &state.remaining_facts())
        );
    }

    #[test]
    fn group_probability_cache_tracks_trust_updates() {
        let ds = motivating_example();
        let mut state = IncState::new(&ds, IncEstimateConfig::default()).unwrap();
        let check = |state: &IncState<'_>| {
            // Drained groups are compacted out of the index and may keep a
            // stale cache entry; the contract covers live groups only.
            for (gi, g) in state.groups().iter().enumerate().filter(|(_, g)| !g.facts.is_empty()) {
                let fresh = state.signature_probability(&g.signature);
                assert_eq!(
                    state.group_probability(gi).to_bits(),
                    fresh.to_bits(),
                    "group {gi} cache drifted: {} vs {}",
                    state.group_probability(gi),
                    fresh
                );
            }
        };
        check(&state);
        state.evaluate(&[fid(8), fid(11)]);
        check(&state);
        state.evaluate(&[fid(4), fid(5)]);
        check(&state);
        state.seed(fid(0), Label::True);
        check(&state);
    }

    #[test]
    fn inverted_index_covers_every_group_signature() {
        let ds = motivating_example();
        let state = IncState::new(&ds, IncEstimateConfig::default()).unwrap();
        let index = state.source_index();
        let total: usize = state.groups().iter().map(|g| g.signature.len()).sum();
        assert_eq!(index.n_postings(), total);
        for (gi, g) in state.groups().iter().enumerate() {
            for sv in &g.signature {
                assert!(
                    index.groups_of(sv.source).iter().any(|p| p.group == gi),
                    "posting missing for source {} group {gi}",
                    sv.source
                );
            }
        }
    }

    #[test]
    fn state_projected_trust_uses_default_until_first_vote() {
        let ds = motivating_example();
        let cfg = IncEstimateConfig { prior_strength: 0.0, ..Default::default() };
        let state = IncState::new(&ds, cfg).unwrap();
        assert_eq!(state.projected_trust(sid(0), 0, 0), 0.9);
        assert_eq!(state.projected_trust(sid(0), 1, 2), 0.5);
        assert_eq!(state.remaining_count(), 12);
        assert_eq!(state.remaining_groups().count(), 10); // r7=r8, r4=r10 merge
    }

    #[test]
    fn resolve_threads_honours_explicit_requests() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
        assert!(resolve_threads(0) >= 1);
    }
}

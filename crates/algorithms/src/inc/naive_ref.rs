//! Naive pre-index reference for the IncEstHeu scoring path, compiled only
//! for tests.
//!
//! This replicates, decision for decision, the O(G²·|sig|²)-per-round
//! implementation the inverted-index engine replaced: clone the remaining
//! groups each round, recompute every group probability from the trust
//! snapshot, and scan *all* groups for the Equation 9 spillover with a
//! linear overlay lookup. The equivalence suite below drives both
//! implementations over randomized datasets and asserts identical
//! probabilities, scores, and selections — any divergence in the fast path
//! is a bug, not a tolerance question.
//!
//! A second suite checks the engine's incremental bookkeeping at a scale
//! where it matters: worlds of several disjoint sub-worlds with hundreds of
//! groups (many selection blocks, rounds that touch a few of them), seeded
//! before and between rounds. Every round it compares each source's trust
//! with a fresh derivation from the counters, each posting list with the
//! source's live groups, and the selection with the naive full scan; at the
//! end it replays the recorded trust trajectory against snapshots taken
//! after every step.

use corroborate_core::entropy::binary_entropy;
use corroborate_core::groups::FactGroup;
use corroborate_core::ids::{FactId, SourceId};
use corroborate_core::vote::{SourceVote, Vote};

use super::{DeltaHMode, IncState};

/// Trust overlay with the original linear `affected` lookup.
struct LinearOverlay<'a> {
    state: &'a IncState<'a>,
    affected: Vec<(SourceId, f64)>,
}

impl LinearOverlay<'_> {
    fn trust(&self, source: SourceId) -> f64 {
        self.affected
            .iter()
            .find(|(s, _)| *s == source)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| self.state.trust().trust(source))
    }

    fn probability(&self, signature: &[SourceVote], prior: f64) -> f64 {
        if signature.is_empty() {
            return prior;
        }
        let sum: f64 = signature
            .iter()
            .map(|sv| match sv.vote {
                Vote::True => self.trust(sv.source),
                Vote::False => 1.0 - self.trust(sv.source),
            })
            .sum();
        sum / signature.len() as f64
    }
}

/// The remaining groups, cloned — the per-round allocation the borrowed
/// view replaced.
pub(super) fn remaining_groups(state: &IncState<'_>) -> Vec<FactGroup> {
    state.remaining_groups().cloned().collect()
}

/// Every remaining group's probability, recomputed from the snapshot.
pub(super) fn probabilities(state: &IncState<'_>, groups: &[FactGroup]) -> Vec<f64> {
    groups.iter().map(|g| state.signature_probability(&g.signature)).collect()
}

/// Equation 9 spillover by full scan over the remaining group list.
pub(super) fn spillover(
    state: &IncState<'_>,
    groups: &[FactGroup],
    probs: &[f64],
    candidate_idx: usize,
) -> f64 {
    let candidate = &groups[candidate_idx];
    let p = probs[candidate_idx];
    let outcome = p >= 0.5;
    let size = candidate.facts.len() as u32;

    let affected: Vec<_> = candidate
        .signature
        .iter()
        .map(|sv| {
            let agrees = sv.vote.is_affirmative() == outcome;
            let extra_matches = if agrees { size } else { 0 };
            (sv.source, state.projected_trust(sv.source, extra_matches, size))
        })
        .collect();
    // Membership flags for the touched test: every group is still scanned,
    // but an untouched group costs |sig| lookups rather than |sig|·|affected|
    // comparisons, which keeps the reference affordable on the bookkeeping
    // suite's hundreds-of-groups worlds.
    let mut is_affected = vec![false; state.dataset().n_sources()];
    for (s, _) in &affected {
        is_affected[s.index()] = true;
    }
    let overlay = LinearOverlay { state, affected };

    let prior = state.config().voteless_prior;
    let mut dh = 0.0;
    for (gi, other) in groups.iter().enumerate() {
        if gi == candidate_idx {
            continue;
        }
        let touched = other.signature.iter().any(|sv| is_affected[sv.source.index()]);
        if !touched {
            continue;
        }
        let p_new = overlay.probability(&other.signature, prior);
        dh += other.facts.len() as f64 * (binary_entropy(p_new) - binary_entropy(probs[gi]));
    }
    dh
}

/// The pre-index `IncEstHeu::select`, tie-breaks and all.
pub(super) fn select(state: &IncState<'_>, mode: DeltaHMode) -> Vec<FactId> {
    let groups = remaining_groups(state);
    let probs = probabilities(state, &groups);

    let mut positive = Vec::new();
    let mut negative = Vec::new();
    for (i, &p) in probs.iter().enumerate() {
        if p > 0.5 {
            positive.push(i);
        } else if p < 0.5 {
            negative.push(i);
        }
    }
    if positive.is_empty() || negative.is_empty() {
        return Vec::new();
    }

    let score = |i: usize| -> f64 {
        match mode {
            DeltaHMode::SelfTerm => -binary_entropy(probs[i]),
            DeltaHMode::Equation9 => spillover(state, &groups, &probs, i),
            DeltaHMode::Full => {
                spillover(state, &groups, &probs, i)
                    - groups[i].facts.len() as f64 * binary_entropy(probs[i])
            }
        }
    };
    let best = |part: &[usize]| -> usize {
        let mut best_i = part[0];
        let mut best_score = f64::NEG_INFINITY;
        for &i in part {
            let s = score(i);
            let better = s > best_score
                || (s == best_score
                    && (groups[i].signature.len() > groups[best_i].signature.len()
                        || (groups[i].signature.len() == groups[best_i].signature.len()
                            && groups[i].facts.len() > groups[best_i].facts.len())));
            if better {
                best_score = s;
                best_i = i;
            }
        }
        best_i
    };
    let fg_pos = &groups[best(&positive)];
    let fg_neg = &groups[best(&negative)];

    let n = fg_pos.facts.len().min(fg_neg.facts.len());
    let mut selection = Vec::with_capacity(2 * n);
    selection.extend_from_slice(&fg_pos.facts[..n]);
    selection.extend_from_slice(&fg_neg.facts[..n]);
    selection
}

#[cfg(test)]
mod tests {
    use super::super::{
        heuristic, IncEstHeu, IncEstimate, IncEstimateConfig, IncEstimateSession, SelectionStrategy,
    };
    use super::*;
    use corroborate_core::groups::group_by_signature;
    use corroborate_core::index::GroupPosting;
    use corroborate_core::prelude::*;
    use corroborate_datagen::motivating::motivating_example;
    use corroborate_obs::RecordingObserver;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MODES: [DeltaHMode; 3] = [DeltaHMode::SelfTerm, DeltaHMode::Equation9, DeltaHMode::Full];

    /// Drives a full run round by round, asserting at every time point that
    /// the indexed/cached engine and this naive reference agree exactly.
    fn assert_equivalent_run(ds: &Dataset, mode: DeltaHMode) {
        let mut state = IncState::new(ds, IncEstimateConfig::default()).unwrap();
        let strategy = IncEstHeu::with_mode(mode);
        let mut rounds = 0usize;
        while state.remaining_count() > 0 {
            rounds += 1;
            assert!(rounds <= ds.n_facts() + 1, "{mode:?}: runaway round count");

            let naive_groups = remaining_groups(&state);
            let naive_probs = probabilities(&state, &naive_groups);

            // Cached per-group probabilities are bit-identical to scratch
            // recomputation (1e-12 is the contract; the cache meets it
            // exactly because it reuses the same kernel).
            let live: Vec<usize> = state
                .groups()
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.facts.is_empty())
                .map(|(gi, _)| gi)
                .collect();
            assert_eq!(live.len(), naive_groups.len());
            for (&gi, &p) in live.iter().zip(&naive_probs) {
                assert!(
                    (state.group_probability(gi) - p).abs() <= 1e-12,
                    "{mode:?}: cache {} vs naive {p} for group {gi}",
                    state.group_probability(gi)
                );
                assert_eq!(state.group_probability(gi).to_bits(), p.to_bits());
            }

            // Spillover scores agree for every live candidate.
            for (k, &gi) in live.iter().enumerate() {
                let naive = spillover(&state, &naive_groups, &naive_probs, k);
                let fast = heuristic::spillover(&state, gi);
                assert!(
                    (naive - fast).abs() <= 1e-12,
                    "{mode:?}: spillover {naive} vs {fast} for group {gi}"
                );
            }

            // Identical selections, including tie-breaks.
            let naive_sel = select(&state, mode);
            let fast_sel = strategy.select(&state);
            assert_eq!(naive_sel, fast_sel, "{mode:?}: selections diverge");

            let round = if fast_sel.is_empty() { state.remaining_facts() } else { fast_sel };
            state.evaluate(&round);
        }
    }

    /// A recording observer must be computation-transparent: the observed
    /// run's probabilities, trust, decisions, and round count are
    /// bit-identical to the plain (noop-observer) run — selections included,
    /// since any divergent selection changes the trust trajectory.
    fn assert_observer_transparent(ds: &Dataset, mode: DeltaHMode) {
        let alg = IncEstimate::new(IncEstHeu::with_mode(mode));
        let plain = alg.corroborate(ds).unwrap();
        let rec = RecordingObserver::new();
        let observed = alg.corroborate_observed(ds, &rec).unwrap();
        assert_eq!(plain.rounds(), observed.rounds(), "{mode:?}: round counts diverge");
        for (a, b) in plain.probabilities().iter().zip(observed.probabilities()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}: probabilities diverge");
        }
        for (a, b) in plain.trust().values().iter().zip(observed.trust().values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}: trust diverges");
        }
        assert_eq!(plain.decisions().labels(), observed.decisions().labels(), "{mode:?}");
        if cfg!(feature = "obs") {
            assert_eq!(rec.rounds().len(), plain.rounds(), "{mode:?}: one record per round");
        } else {
            assert_eq!(rec.rounds().len(), 0, "{mode:?}: emission compiled out");
        }
    }

    /// Builds a dataset from a flat source×fact vote grid
    /// (0 = no vote, 1 = T, 2 = F).
    fn grid_dataset(n_sources: usize, n_facts: usize, cells: &[u8]) -> Dataset {
        let mut b = DatasetBuilder::new();
        let sources: Vec<SourceId> =
            (0..n_sources).map(|i| b.add_source(format!("s{i}"))).collect();
        let facts: Vec<FactId> = (0..n_facts).map(|i| b.add_fact(format!("f{i}"))).collect();
        for (k, &c) in cells.iter().enumerate() {
            let s = sources[k / n_facts];
            let f = facts[k % n_facts];
            match c {
                1 => b.cast(s, f, Vote::True).unwrap(),
                2 => b.cast(s, f, Vote::False).unwrap(),
                _ => {}
            }
        }
        b.build().unwrap()
    }

    fn dataset_strategy() -> impl Strategy<Value = Dataset> {
        (2usize..6, 3usize..24).prop_flat_map(|(n_sources, n_facts)| {
            proptest::collection::vec(0u8..3, n_sources * n_facts)
                .prop_map(move |cells| grid_dataset(n_sources, n_facts, &cells))
        })
    }

    /// One planned seed, applied before round `round` (0 = before the
    /// first).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct PlannedSeed {
        round: usize,
        target: SeedTarget,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum SeedTarget {
        /// Remaining fact `pick mod remaining`, with an arbitrary label.
        Any { pick: usize, label: bool },
        /// A fact of the group the strategy would select next, with the
        /// label its current probability gives — shrinks a selection
        /// winner, often without moving any trust value.
        Winner,
    }

    /// A world of disjoint sub-worlds plus a seeding plan.
    struct MultiWorld {
        dataset: Dataset,
        seeds: Vec<PlannedSeed>,
    }

    /// Builds disjoint sub-worlds of 3–6 sources and at most 60 signature
    /// groups each until the world holds 150–600 groups (so at least three;
    /// distinct signatures per sub-world, 1–4 facts per group, so balanced
    /// rounds both shrink and drain groups), and a plan of seeds before and
    /// between rounds. A round moves only one sub-world's sources, so it
    /// touches a few of the world's selection blocks.
    fn multi_world(seed: u64) -> MultiWorld {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = rng.gen_range(150usize..=600);
        let mut b = DatasetBuilder::new();
        let mut n_facts = 0usize;
        let mut n_groups = 0usize;
        let mut w = 0usize;
        while n_groups < target {
            let n = rng.gen_range(3usize..=6);
            let n_codes = 3usize.pow(n as u32);
            let share = rng.gen_range(20usize..=60).min(n_codes - 1).min(target - n_groups);
            n_groups += share;
            let sources: Vec<SourceId> =
                (0..n).map(|i| b.add_source(format!("w{w}s{i}"))).collect();
            w += 1;
            // Distinct non-empty signature codes in base 3 (0 = no vote,
            // 1 = T, 2 = F), in random order over the sub-world's facts.
            let mut codes = std::collections::BTreeSet::new();
            while codes.len() < share {
                codes.insert(rng.gen_range(1..n_codes));
            }
            let mut codes: Vec<usize> = codes.into_iter().collect();
            for i in (1..codes.len()).rev() {
                codes.swap(i, rng.gen_range(0..=i));
            }
            for code in codes {
                for _ in 0..rng.gen_range(1usize..=4) {
                    let f = b.add_fact(format!("f{n_facts}"));
                    n_facts += 1;
                    let mut c = code;
                    for &s in &sources {
                        match c % 3 {
                            1 => b.cast(s, f, Vote::True).unwrap(),
                            2 => b.cast(s, f, Vote::False).unwrap(),
                            _ => {}
                        }
                        c /= 3;
                    }
                }
            }
        }
        let mut seeds: Vec<PlannedSeed> = (0..rng.gen_range(6usize..=16))
            .map(|k| {
                let round = if k < 2 { 0 } else { rng.gen_range(0usize..60) };
                let target = if rng.gen_bool(0.5) {
                    SeedTarget::Winner
                } else {
                    SeedTarget::Any {
                        pick: rng.gen_range(0usize..1 << 20),
                        label: rng.gen_bool(0.5),
                    }
                };
                PlannedSeed { round, target }
            })
            .collect();
        seeds.sort_unstable();
        MultiWorld { dataset: b.build().unwrap(), seeds }
    }

    /// `default` cases, or `PROPTEST_CASES` when set (CI boosts it in
    /// release); an explicit `with_cases` would otherwise win over it.
    fn cases_or_env(default: u32) -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default);
        ProptestConfig::with_cases(cases)
    }

    /// The incremental bookkeeping against from-scratch derivations, at one
    /// point between rounds: the per-source counters against a recount of
    /// every evaluated fact's votes, each source's trust against
    /// `projected_trust(s, 0, 0)`, the cached probabilities, the posting
    /// lists and the selection. `refreshed` is false until the first trust
    /// refresh (before it, trust is the uniform σ₀, which need not equal
    /// the smoothed derivation bit for bit).
    fn assert_bookkeeping(state: &IncState<'_>, mode: DeltaHMode, refreshed: bool) {
        let ds = state.dataset();
        let mut matches = vec![0u32; ds.n_sources()];
        let mut totals = vec![0u32; ds.n_sources()];
        for f in ds.facts().filter(|&f| !state.is_remaining(f)) {
            let outcome = Label::from_probability(state.probability(f));
            for sv in ds.votes().votes_on(f) {
                totals[sv.source.index()] += 1;
                matches[sv.source.index()] += u32::from(sv.vote.as_bool() == outcome.as_bool());
            }
        }
        assert_eq!((&state.matches, &state.totals), (&matches, &totals), "{mode:?}: counters");
        if refreshed {
            for s in ds.sources() {
                assert_eq!(
                    state.trust().trust(s).to_bits(),
                    state.projected_trust(s, 0, 0).to_bits(),
                    "{mode:?}: trust of {s} not re-derived"
                );
            }
        }
        let mut live: Vec<Vec<GroupPosting>> = vec![Vec::new(); ds.n_sources()];
        for (gi, g) in state.groups().iter().enumerate().filter(|(_, g)| !g.facts.is_empty()) {
            for sv in &g.signature {
                live[sv.source.index()].push(GroupPosting { group: gi, vote: sv.vote });
            }
            assert_eq!(
                state.group_probability(gi).to_bits(),
                state.signature_probability(&g.signature).to_bits(),
                "{mode:?}: cached probability of group {gi} is stale"
            );
        }
        for s in ds.sources() {
            assert_eq!(
                state.source_index().groups_of(s),
                &live[s.index()][..],
                "{mode:?}: postings of {s} are not its live groups"
            );
        }
        assert_eq!(
            IncEstHeu::with_mode(mode).select(state),
            select(state, mode),
            "{mode:?}: selection differs from the naive full scan"
        );
        if mode != DeltaHMode::SelfTerm {
            // This session keeps no block winners: a self-term read scans
            // every block.
            assert_eq!(
                IncEstHeu::default().select(state),
                select(state, DeltaHMode::SelfTerm),
                "{mode:?}: unkept block winners differ from the naive full scan"
            );
        }
    }

    /// Drives a seeded session round by round under [`assert_bookkeeping`],
    /// then checks the recorded trajectory against the trust snapshots
    /// taken after every seed and step.
    fn assert_bookkeeping_run(seed: u64, mode: DeltaHMode) {
        let world = multi_world(seed);
        let config = bookkeeping_config_for(seed, mode);
        let mut session =
            IncEstimateSession::new(&world.dataset, IncEstHeu::with_mode(mode), config).unwrap();
        let mut expected = vec![session.state().trust().clone()];
        let mut refreshed = false;
        let mut seeds = world.seeds.iter().peekable();
        for round in 0.. {
            while let Some(planned) = seeds.next_if(|s| s.round == round) {
                let state = session.state();
                let (fact, label) = match planned.target {
                    SeedTarget::Any { pick, label } => {
                        let remaining = state.remaining_facts();
                        if remaining.is_empty() {
                            continue;
                        }
                        (remaining[pick % remaining.len()], Label::from_bool(label))
                    }
                    SeedTarget::Winner => {
                        let Some(&fact) = IncEstHeu::with_mode(mode).select(state).first() else {
                            continue;
                        };
                        let p = state.group_probability(state.group_of(fact));
                        (fact, Label::from_probability(p))
                    }
                };
                session.seed(fact, label).unwrap();
                *expected.last_mut().unwrap() = session.state().trust().clone();
                refreshed = true;
            }
            assert_bookkeeping(session.state(), mode, refreshed);
            let Some(report) = session.step() else { break };
            refreshed = true;
            assert_eq!(report.round, round + 1);
            expected.push(session.state().trust().clone());
        }
        let rounds = session.rounds();
        let result = session.finish().unwrap();
        assert_eq!(result.rounds(), rounds);
        let trajectory = result.trajectory().unwrap();
        let bits =
            |snap: &TrustSnapshot| snap.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(trajectory.len(), expected.len(), "{mode:?}: one time point per round");
        for (t, want) in expected.iter().enumerate() {
            assert_eq!(bits(&trajectory.at(t).unwrap()), bits(want), "{mode:?}: at({t})");
        }
        assert!(trajectory.iter().map(|snap| bits(&snap)).eq(expected.iter().map(bits)));
        assert_eq!(bits(trajectory.last().unwrap()), bits(expected.last().unwrap()));
        for s in world.dataset.sources() {
            let series: Vec<u64> = trajectory.series(s).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expected.iter().map(|snap| snap.trust(s).to_bits()).collect();
            assert_eq!(series, want, "{mode:?}: series of {s}");
        }
    }

    /// Cycles through the configurations a run is checked under: the
    /// default; one whose smoothed no-vote trust `(0 + k·σ₀)/(0 + k)`
    /// differs from σ₀ in the last bit, so a first refresh that skipped
    /// untouched sources shows; and, for the self-term mode, the raw match
    /// fraction (`k = 0`), where a source that keeps agreeing stays at
    /// exactly 1.0 — its groups shrink without any trust change, so only
    /// the shrink itself can mark their blocks, and exact score ties leave
    /// group size to decide. The spillover modes skip `k = 0`: their
    /// indexed sums match the naive overlay only to within ulps, and the
    /// raw fraction's exact ties let an ulp flip a tie-break.
    fn bookkeeping_config_for(seed: u64, mode: DeltaHMode) -> IncEstimateConfig {
        let n_configs = if mode == DeltaHMode::SelfTerm { 3 } else { 2 };
        match seed % n_configs {
            0 => IncEstimateConfig::default(),
            1 => {
                IncEstimateConfig { initial_trust: 0.9, prior_strength: 0.3, ..Default::default() }
            }
            _ => IncEstimateConfig { prior_strength: 0.0, ..Default::default() },
        }
    }

    #[test]
    fn multi_worlds_have_the_intended_shape() {
        for seed in 0..8 {
            let world = multi_world(seed);
            let facts: Vec<FactId> = world.dataset.facts().collect();
            let groups = group_by_signature(world.dataset.votes(), &facts);
            assert!((150..=600).contains(&groups.len()), "{} groups", groups.len());
            assert!(world.seeds.iter().filter(|s| s.round == 0).count() >= 2);
        }
        let config = bookkeeping_config_for(1, DeltaHMode::Full);
        let sigma0 = config.initial_trust;
        let k = config.prior_strength;
        assert_ne!(((0.0 + k * sigma0) / (0.0 + k)).to_bits(), sigma0.to_bits());
    }

    #[test]
    fn motivating_example_scores_are_bit_identical() {
        let ds = motivating_example();
        for mode in MODES {
            assert_equivalent_run(&ds, mode);
        }
    }

    #[test]
    fn naive_select_matches_pinned_equation9_first_round() {
        // The Equation9 pinned outcome test hand-traces round 1 = {r5, r12};
        // the naive reference must reproduce the same first selection.
        let ds = motivating_example();
        let state = IncState::new(&ds, IncEstimateConfig::default()).unwrap();
        let sel = select(&state, DeltaHMode::Equation9);
        assert_eq!(sel, vec![FactId::new(4), FactId::new(11)]);
    }

    proptest! {
        #![proptest_config(cases_or_env(24))]

        #[test]
        fn equivalence_self_term(ds in dataset_strategy()) {
            assert_equivalent_run(&ds, DeltaHMode::SelfTerm);
        }

        #[test]
        fn equivalence_equation9(ds in dataset_strategy()) {
            assert_equivalent_run(&ds, DeltaHMode::Equation9);
        }

        #[test]
        fn equivalence_full(ds in dataset_strategy()) {
            assert_equivalent_run(&ds, DeltaHMode::Full);
        }

        #[test]
        fn observer_transparency(ds in dataset_strategy()) {
            for mode in MODES {
                assert_observer_transparent(&ds, mode);
            }
        }
    }

    proptest! {
        // A few cases by default, so that a debug test run stays quick.
        #![proptest_config(cases_or_env(3))]

        #[test]
        fn bookkeeping_self_term(seed in any::<u64>()) {
            assert_bookkeeping_run(seed, DeltaHMode::SelfTerm);
        }

        #[test]
        fn bookkeeping_equation9(seed in any::<u64>()) {
            assert_bookkeeping_run(seed, DeltaHMode::Equation9);
        }

        #[test]
        fn bookkeeping_full(seed in any::<u64>()) {
            assert_bookkeeping_run(seed, DeltaHMode::Full);
        }
    }
}

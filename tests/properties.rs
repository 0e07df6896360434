//! Property-based tests (proptest): invariants every corroborator must
//! satisfy on arbitrary vote matrices, plus data-structure round trips.

use corroborate::algorithms::baseline::{Counting, Voting};
use corroborate::algorithms::extra::{AccuVote, Pasternack, PasternackVariant, TruthFinder};
use corroborate::algorithms::galland::{Cosine, ThreeEstimates, TwoEstimates};
use corroborate::core::entropy::binary_entropy;
use corroborate::core::groups::group_by_signature;
use corroborate::core::scoring::corrob_probability;
use corroborate::prelude::*;
use proptest::prelude::*;

/// Strategy: a random dataset with 1–6 sources, 1–25 facts and arbitrary
/// sparse votes.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..=6, 1usize..=25).prop_flat_map(|(n_sources, n_facts)| {
        // Each (source, fact) cell: 0 = absent, 1 = T, 2 = F.
        proptest::collection::vec(0u8..3, n_sources * n_facts).prop_map(move |cells| {
            let mut b = DatasetBuilder::new();
            let sources: Vec<SourceId> =
                (0..n_sources).map(|i| b.add_source(format!("s{i}"))).collect();
            let facts: Vec<FactId> = (0..n_facts).map(|i| b.add_fact(format!("f{i}"))).collect();
            for (idx, &cell) in cells.iter().enumerate() {
                let s = sources[idx / n_facts];
                let f = facts[idx % n_facts];
                match cell {
                    1 => b.cast(s, f, Vote::True).unwrap(),
                    2 => b.cast(s, f, Vote::False).unwrap(),
                    _ => {}
                }
            }
            b.build().unwrap()
        })
    })
}

fn all_corroborators() -> Vec<Box<dyn Corroborator>> {
    vec![
        Box::new(Voting),
        Box::new(Counting),
        Box::new(TwoEstimates::default()),
        Box::new(ThreeEstimates::default()),
        Box::new(Cosine::default()),
        Box::new(TruthFinder::default()),
        Box::new(AccuVote::default()),
        Box::new(Pasternack::new(PasternackVariant::Sums)),
        Box::new(Pasternack::new(PasternackVariant::AvgLog)),
        Box::new(Pasternack::new(PasternackVariant::Invest)),
        Box::new(Pasternack::new(PasternackVariant::PooledInvest)),
        Box::new(IncEstimate::new(IncEstHeu::default())),
        Box::new(IncEstimate::new(IncEstPS)),
    ]
}

/// 48 cases, or `PROPTEST_CASES` when set, as CI's boosted step sets it
/// (an explicit `with_cases` would otherwise win over it).
fn invariants_config() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(48);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(invariants_config())]

    /// Every algorithm returns probabilities and trust in [0, 1], covers
    /// every fact, and is deterministic.
    #[test]
    fn corroborators_satisfy_basic_invariants(ds in arb_dataset()) {
        for alg in all_corroborators() {
            let r1 = alg.corroborate(&ds).expect("corroboration succeeds");
            prop_assert_eq!(r1.probabilities().len(), ds.n_facts());
            for &p in r1.probabilities() {
                prop_assert!((0.0..=1.0).contains(&p), "{}: p = {}", alg.name(), p);
            }
            for s in ds.sources() {
                let t = r1.trust().trust(s);
                prop_assert!((0.0..=1.0).contains(&t), "{}: trust = {}", alg.name(), t);
            }
            let r2 = alg.corroborate(&ds).expect("second run succeeds");
            prop_assert_eq!(r1.probabilities(), r2.probabilities(), "{}", alg.name());
        }
    }

    /// A unanimously-affirmed fact is never ranked below a unanimously
    /// denied one by the iterative methods.
    #[test]
    fn unanimous_polarity_orders_probabilities(n_extra in 1usize..10) {
        let mut b = DatasetBuilder::new();
        let sources: Vec<SourceId> = (0..3).map(|i| b.add_source(format!("s{i}"))).collect();
        let yes = b.add_fact("yes");
        let no = b.add_fact("no");
        for &s in &sources {
            b.cast(s, yes, Vote::True).unwrap();
            b.cast(s, no, Vote::False).unwrap();
        }
        for i in 0..n_extra {
            let f = b.add_fact(format!("extra{i}"));
            b.cast(sources[i % 3], f, Vote::True).unwrap();
        }
        let ds = b.build().unwrap();
        for alg in all_corroborators() {
            let r = alg.corroborate(&ds).unwrap();
            prop_assert!(
                r.probability(yes) >= r.probability(no),
                "{}: p(yes)={} < p(no)={}",
                alg.name(), r.probability(yes), r.probability(no)
            );
        }
    }

    /// Fact groups partition the requested facts, and members share their
    /// group's signature exactly.
    #[test]
    fn fact_groups_partition_and_share_signatures(ds in arb_dataset()) {
        let facts: Vec<FactId> = ds.facts().collect();
        let groups = group_by_signature(ds.votes(), &facts);
        let total: usize = groups.iter().map(|g| g.facts.len()).sum();
        prop_assert_eq!(total, facts.len());
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for &f in &g.facts {
                prop_assert!(seen.insert(f), "fact {} in two groups", f);
                prop_assert_eq!(ds.votes().signature(f), g.signature.as_slice());
            }
        }
    }

    /// The Corrob score is monotone in trust for affirmative-only
    /// signatures: raising every source's trust never lowers it.
    #[test]
    fn corrob_is_monotone_in_trust(
        trusts in proptest::collection::vec(0.0f64..=1.0, 1..6),
        bump in 0.0f64..=0.3,
    ) {
        let n = trusts.len();
        let votes: Vec<corroborate::core::vote::SourceVote> = (0..n)
            .map(|i| corroborate::core::vote::SourceVote {
                source: SourceId::new(i),
                vote: Vote::True,
            })
            .collect();
        let low = TrustSnapshot::from_values(trusts.clone()).unwrap();
        let high = TrustSnapshot::from_values(
            trusts.iter().map(|t| (t + bump).min(1.0)).collect(),
        )
        .unwrap();
        let p_low = corrob_probability(&votes, &low).unwrap();
        let p_high = corrob_probability(&votes, &high).unwrap();
        prop_assert!(p_high >= p_low - 1e-12);
    }

    /// Binary entropy stays in [0, 1] and is symmetric.
    #[test]
    fn entropy_bounds_and_symmetry(p in 0.0f64..=1.0) {
        let h = binary_entropy(p);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&h));
        prop_assert!((h - binary_entropy(1.0 - p)).abs() < 1e-9);
    }

    /// Dataset projection preserves per-fact votes and truth.
    #[test]
    fn projection_is_faithful(ds in arb_dataset(), pick in proptest::collection::vec(any::<proptest::sample::Index>(), 1..8)) {
        let facts: Vec<FactId> = ds.facts().collect();
        let chosen: Vec<FactId> = pick.iter().map(|i| facts[i.index(facts.len())]).collect();
        let sub = ds.project_facts(&chosen).unwrap();
        prop_assert_eq!(sub.n_facts(), chosen.len());
        for (new_idx, &old) in chosen.iter().enumerate() {
            let new_f = FactId::new(new_idx);
            prop_assert_eq!(sub.votes().votes_on(new_f), ds.votes().votes_on(old));
            prop_assert_eq!(sub.fact_name(new_f), ds.fact_name(old));
        }
    }

    /// Any dataset round-trips through the CSV interchange format.
    #[test]
    fn csv_round_trip_is_lossless(ds in arb_dataset()) {
        use corroborate::core::io::{dataset_from_csv, votes_to_csv};
        let csv = votes_to_csv(&ds);
        let back = dataset_from_csv(&csv, None).unwrap();
        // Voteless facts don't appear in the votes file; compare the voted
        // sub-structure: every vote must survive with its polarity.
        let mut original: Vec<(String, String, Vote)> = Vec::new();
        for f in ds.facts() {
            for sv in ds.votes().votes_on(f) {
                original.push((
                    ds.source_name(sv.source).to_string(),
                    ds.fact_name(f).to_string(),
                    sv.vote,
                ));
            }
        }
        let mut recovered: Vec<(String, String, Vote)> = Vec::new();
        for f in back.facts() {
            for sv in back.votes().votes_on(f) {
                recovered.push((
                    back.source_name(sv.source).to_string(),
                    back.fact_name(f).to_string(),
                    sv.vote,
                ));
            }
        }
        original.sort();
        recovered.sort();
        prop_assert_eq!(original, recovered);
    }

    /// Merging a dataset with an empty one preserves its voted structure.
    #[test]
    fn merge_with_empty_is_identity_on_votes(ds in arb_dataset()) {
        let empty = DatasetBuilder::new().build().unwrap();
        let merged = ds.merge(&empty).unwrap();
        prop_assert_eq!(merged.n_sources(), ds.n_sources());
        prop_assert_eq!(merged.n_facts(), ds.n_facts());
        prop_assert_eq!(merged.votes().n_votes(), ds.votes().n_votes());
        // Self-merge is idempotent on the vote structure too (same votes,
        // last-writer-wins resolves to the same polarity).
        let doubled = ds.merge(&ds).unwrap();
        prop_assert_eq!(doubled.votes().n_votes(), ds.votes().n_votes());
    }

    /// IncEstimate evaluates every fact exactly once regardless of the
    /// strategy's behaviour, and the trajectory length matches rounds+1.
    #[test]
    fn inc_estimate_total_coverage(ds in arb_dataset()) {
        for strategy in ["heu", "ps"] {
            let r = match strategy {
                "heu" => IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap(),
                _ => {
                    let boxed: Box<dyn Corroborator> = Box::new(IncEstimate::new(IncEstPS));
                    boxed.corroborate(&ds).unwrap()
                }
            };
            prop_assert_eq!(r.probabilities().len(), ds.n_facts());
            let traj = r.trajectory().unwrap();
            prop_assert_eq!(traj.len(), r.rounds() + 1);
        }
    }
}

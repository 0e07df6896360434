//! The differential oracle: every engine in the workspace, on every
//! planted archetype, against the invariants the paper (and plain
//! probability theory) mandates.

use corroborate_testkit::oracle::{
    accuracy, check_engine_invariants, fingerprint, oracle_report, outcome, run_all,
};
use corroborate_testkit::registry::{full_roster, roster_names, MIN_ENGINES};
use corroborate_testkit::sim::{self, standard_archetypes};

const SEED: u64 = 42;

#[test]
fn every_engine_satisfies_invariants_on_every_archetype() {
    let archetypes = standard_archetypes(SEED);
    assert!(archetypes.len() >= 4, "need at least 4 planted archetypes");
    let roster = full_roster(SEED);
    assert!(roster.len() >= MIN_ENGINES);
    for (name, config) in &archetypes {
        let world = sim::generate(config);
        for o in run_all(&roster, &world.dataset) {
            check_engine_invariants(&o, &world.dataset)
                .unwrap_or_else(|e| panic!("archetype {name}: {e}"));
        }
    }
}

#[test]
fn every_engine_is_deterministic_per_seed() {
    // Two independently constructed rosters on two independently generated
    // worlds: bit-identical outcomes, engine by engine (this covers the
    // seeded BayesEstimate sampler too).
    let world_a = sim::generate(&sim::affirmative_heavy(SEED));
    let world_b = sim::generate(&sim::affirmative_heavy(SEED));
    let a = run_all(&full_roster(SEED), &world_a.dataset);
    let b = run_all(&full_roster(SEED), &world_b.dataset);
    for (oa, ob) in a.iter().zip(&b) {
        assert_eq!(oa.name, ob.name);
        assert_eq!(
            fingerprint(oa),
            fingerprint(ob),
            "{} is not bit-identical across identically seeded runs",
            oa.name
        );
    }
}

#[test]
fn oracle_report_is_bit_identical_across_runs() {
    // The acceptance gate: same seed ⇒ byte-for-byte identical report.
    let first = oracle_report(SEED).to_json_pretty();
    let second = oracle_report(SEED).to_json_pretty();
    assert_eq!(first, second);
    // And the seed matters: a different seed gives a different report.
    assert_ne!(first, oracle_report(SEED + 1).to_json_pretty());
}

#[test]
fn incestheu_dominates_on_affirmative_heavy_data() {
    // The paper's central claim (§6, Tables 4/5): on affirmative-heavy
    // data the entropy-driven heuristic beats 2-Estimates (and the greedy
    // IncEstPS foil, and Voting).
    let world = sim::generate(&sim::affirmative_heavy(SEED));
    let outcomes = run_all(&full_roster(SEED), &world.dataset);
    let heu = accuracy(outcome(&outcomes, "IncEstHeu"));
    for baseline in ["TwoEstimate", "IncEstPS", "Voting", "Counting", "BayesEstimate"] {
        let base = accuracy(outcome(&outcomes, baseline));
        assert!(
            heu >= base,
            "IncEstHeu accuracy {heu:.3} fell below {baseline} accuracy {base:.3} \
             on affirmative-heavy data"
        );
    }
}

#[test]
fn voting_equals_counting_under_full_coverage() {
    // With every source voting on every fact, "majority of voters" and
    // "majority of all sources" are the same rule — decisions must match
    // exactly.
    let world = sim::generate(&sim::full_coverage(SEED));
    let outcomes = run_all(&full_roster(SEED), &world.dataset);
    let voting = outcome(&outcomes, "Voting");
    let counting = outcome(&outcomes, "Counting");
    assert_eq!(voting.decisions, counting.decisions);
}

#[test]
fn counting_penalises_abstention_under_partial_coverage() {
    // Counting scores non-voters as implicit F, so under partial coverage
    // it must diverge from Voting somewhere — if the two ever collapse
    // into one engine, the differential roster has lost a baseline.
    let world = sim::generate(&sim::mixed_evidence(SEED));
    let outcomes = run_all(&full_roster(SEED), &world.dataset);
    assert_ne!(outcome(&outcomes, "Voting").decisions, outcome(&outcomes, "Counting").decisions);
}

#[test]
fn trust_aware_engines_expose_the_liars() {
    // On the adversarial archetype the iterative engines must assign the
    // two systematically wrong sources (indices 5, 6) less trust than any
    // honest source, and beat trust-blind Voting on accuracy.
    let world = sim::generate(&sim::adversarial_minority(SEED));
    let outcomes = run_all(&full_roster(SEED), &world.dataset);
    let voting_acc = accuracy(outcome(&outcomes, "Voting"));
    for engine in ["TwoEstimate", "Cosine", "IncEstHeu", "AccuVote"] {
        let o = outcome(&outcomes, engine);
        let min_honest = o.trust[..5].iter().cloned().fold(f64::INFINITY, f64::min);
        let max_liar = o.trust[5..].iter().cloned().fold(0.0, f64::max);
        assert!(
            max_liar < min_honest,
            "{engine}: liar trust {max_liar:.3} not below honest trust {min_honest:.3}"
        );
        assert!(
            accuracy(o) > voting_acc,
            "{engine} accuracy {:.3} should beat Voting {voting_acc:.3} here",
            accuracy(o)
        );
    }
}

#[test]
fn copycats_earn_their_parents_company() {
    // Duplicated feeds carry no independent signal; no engine may crash on
    // them, and every engine's accuracy must stay above the all-true base
    // rate minus noise — the archetype exists to catch pathological
    // reactions to identical vote signatures.
    let world = sim::generate(&sim::copycat_ring(SEED));
    let base_rate = {
        let truth = world.dataset.ground_truth().unwrap();
        truth.n_true() as f64 / truth.len() as f64
    };
    for o in run_all(&full_roster(SEED), &world.dataset) {
        let acc = accuracy(&o);
        assert!(
            acc >= base_rate.max(1.0 - base_rate) - 0.15,
            "{}: accuracy {acc:.3} collapsed on the copycat ring (base {base_rate:.3})",
            o.name
        );
    }
}

#[test]
fn sparse_coverage_exercises_voteless_facts_without_failures() {
    let world = sim::generate(&sim::sparse_coverage(SEED));
    let voteless =
        world.dataset.facts().filter(|&f| world.dataset.votes().votes_on(f).is_empty()).count();
    assert!(voteless > 0, "archetype must retain voteless facts");
    let roster = full_roster(SEED);
    for o in run_all(&roster, &world.dataset) {
        check_engine_invariants(&o, &world.dataset).unwrap();
    }
}

#[test]
fn report_covers_the_full_roster_and_archetypes() {
    let report = oracle_report(SEED);
    let engines = report.get("engines").unwrap().as_array().unwrap();
    assert!(engines.len() >= MIN_ENGINES);
    let archetypes = report.get("archetypes").unwrap();
    for (name, _) in standard_archetypes(SEED) {
        let section =
            archetypes.get(name).unwrap_or_else(|| panic!("archetype {name} missing from report"));
        let per_engine = section.get("engines").unwrap();
        for engine in roster_names(SEED) {
            let entry = per_engine
                .get(&engine)
                .unwrap_or_else(|| panic!("{name}: engine {engine} missing"));
            assert!(entry.get("accuracy").is_some());
            assert!(entry.get("fingerprint").is_some());
        }
    }
}

#[test]
fn different_engines_disagree_somewhere() {
    // A sanity check on the oracle itself: if all 14 engines produced
    // identical fingerprints the differential comparison would be vacuous.
    let world = sim::generate(&sim::affirmative_heavy(SEED));
    let outcomes = run_all(&full_roster(SEED), &world.dataset);
    let prints: std::collections::BTreeSet<u64> = outcomes.iter().map(fingerprint).collect();
    assert!(prints.len() > 1);
}

/// The 100k-fact synthetic world the engine's fingerprint is pinned on:
/// over a thousand signature groups and about a thousand rounds.
fn world_100k() -> corroborate_core::dataset::Dataset {
    use corroborate_datagen::synthetic::{generate, SyntheticConfig};
    let cfg =
        SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts: 100_000, eta: 0.02, seed: 42 };
    generate(&cfg).expect("synthetic generation succeeds").dataset
}

/// The default `IncEstHeu` engine's fingerprint on `dataset`, as hex.
fn heu_fingerprint(dataset: &corroborate_core::dataset::Dataset) -> String {
    use corroborate_algorithms::inc::{IncEstHeu, IncEstimate};
    use corroborate_testkit::oracle::run_engine;
    let outcome = run_engine(&IncEstimate::new(IncEstHeu::default()), dataset);
    format!("{:016x}", fingerprint(&outcome))
}

#[test]
fn engine_fingerprint_is_pinned_at_100k_facts() {
    // The engine produced this fingerprint when it still had a shard
    // partition, sequential and sharded alike
    // (`git show 7d4bc19:BENCH_shard.json`).
    assert_eq!(heu_fingerprint(&world_100k()), "3182f0d72ee1aebd");
}

#[test]
fn csv_loaded_world_keeps_the_pinned_fingerprint() {
    // The same world written out as votes, truth and source roster and
    // loaded back keeps every id, so the engine's result is unchanged. The
    // roster matters: without it sources renumber by first appearance.
    use corroborate_core::io::{dataset_from_csv_full, sources_to_csv, truth_to_csv, votes_to_csv};
    let world = world_100k();
    let truth = truth_to_csv(&world).expect("the synthetic world is labelled");
    let loaded =
        dataset_from_csv_full(&votes_to_csv(&world), Some(&truth), Some(&sources_to_csv(&world)))
            .expect("the loader reads its own output");
    assert_eq!(heu_fingerprint(&loaded), "3182f0d72ee1aebd");
}

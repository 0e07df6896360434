//! Reproduction assertions: the paper's headline quantitative claims,
//! pinned at test scale so a regression in any crate is caught by
//! `cargo test --workspace`. The full-size numbers are regenerated by the
//! `corroborate-bench` binaries (see EXPERIMENTS.md).

use corroborate::algorithms::baseline::{Counting, Voting};
use corroborate::algorithms::bayes::{BayesEstimate, BayesEstimateConfig};
use corroborate::algorithms::galland::{ThreeEstimates, TwoEstimates};
use corroborate::algorithms::inc::FixedSchedule;
use corroborate::algorithms::inc::IncEstimateConfig;
use corroborate::algorithms::multi_answer::{DecisionPolicy, MultiAnswer, MultiAnswerConfig};
use corroborate::core::metrics::confusion_on_subset;
use corroborate::datagen::hubdub::{generate as gen_hubdub, HubdubConfig};
use corroborate::datagen::motivating::motivating_example;
use corroborate::datagen::restaurant::RestaurantWorld;
use corroborate::datagen::restaurant::{generate as gen_restaurant, RestaurantConfig};
use corroborate::datagen::synthetic::{generate as gen_synthetic, SyntheticConfig};
use corroborate::prelude::*;
use std::sync::OnceLock;

/// The full-scale restaurant world, built once and shared: the
/// incremental cascade is a large-data phenomenon (it needs the full
/// ~650 F-voted listings; at 1/10 scale the negative groups run out
/// before any source crosses 0.5).
fn full_world() -> &'static RestaurantWorld {
    static WORLD: OnceLock<RestaurantWorld> = OnceLock::new();
    WORLD.get_or_init(|| gen_restaurant(&RestaurantConfig::default()).expect("generation"))
}

/// Table 2, all three rows, exactly.
#[test]
fn table_2_reproduces_exactly() {
    let ds = motivating_example();

    let two = TwoEstimates::default().corroborate(&ds).unwrap();
    let m = two.confusion(&ds).unwrap();
    assert!((m.precision() - 0.64).abs() < 0.005);
    assert_eq!(m.recall(), 1.0);
    assert!((m.accuracy() - 0.67).abs() < 0.005);

    let bayes = BayesEstimate::new(BayesEstimateConfig::paper_priors(42)).corroborate(&ds).unwrap();
    let m = bayes.confusion(&ds).unwrap();
    assert!((m.precision() - 0.58).abs() < 0.005);
    assert_eq!(m.recall(), 1.0);
    assert!((m.accuracy() - 0.58).abs() < 0.005);

    let walkthrough = FixedSchedule::new(
        "ours",
        vec![vec![FactId::new(8), FactId::new(11)], vec![FactId::new(4), FactId::new(5)]],
    );
    let cfg = IncEstimateConfig { prior_strength: 0.0, ..Default::default() };
    let ours = IncEstimate::with_config(walkthrough, cfg).corroborate(&ds).unwrap();
    let m = ours.confusion(&ds).unwrap();
    assert!((m.precision() - 0.78).abs() < 0.005);
    assert_eq!(m.recall(), 1.0);
    assert!((m.accuracy() - 0.83).abs() < 0.005);
}

/// Table 4's ordering at full scale: IncEstHeu beats every corroboration
/// baseline on golden-set accuracy; the baselines with recall 1 collapse
/// to the golden prevalence.
#[test]
fn table_4_ordering_holds() {
    let world = full_world();
    let ds = &world.dataset;
    let truth = ds.ground_truth().unwrap();

    let acc = |alg: &dyn Corroborator| -> f64 {
        let r = alg.corroborate(ds).unwrap();
        confusion_on_subset(r.decisions(), truth, &world.golden).unwrap().accuracy()
    };
    let heu = acc(&IncEstimate::new(IncEstHeu::default()));
    let voting = acc(&Voting);
    let two = acc(&TwoEstimates::default());
    let ps = acc(&IncEstimate::new(IncEstPS));

    assert!(heu > voting, "heu {heu:.3} vs voting {voting:.3}");
    assert!(heu > two, "heu {heu:.3} vs two {two:.3}");
    assert!(heu > ps, "heu {heu:.3} vs ps {ps:.3}");
    // TwoEstimate ≈ Voting (both believe almost everything).
    assert!((two - voting).abs() < 0.08);
}

/// Figure 2's qualitative claims: IncEstPS saturates trust at 1.0 while
/// T-only facts remain; IncEstHeu drives at least one noisy directory
/// below 0.5.
#[test]
fn figure_2_trajectories_have_the_papers_shape() {
    let world = full_world();

    let ps = IncEstimate::new(IncEstPS).corroborate(&world.dataset).unwrap();
    let traj = ps.trajectory().unwrap();
    let early = traj.at(traj.len() / 4).unwrap();
    for s in world.dataset.sources() {
        assert!(
            early.trust(s) >= 0.89,
            "IncEstPS trust must stay saturated early: {} = {}",
            world.dataset.source_name(s),
            early.trust(s)
        );
    }

    let heu = IncEstimate::new(IncEstHeu::default()).corroborate(&world.dataset).unwrap();
    let dipped = heu
        .trajectory()
        .unwrap()
        .iter()
        .any(|snap| snap.trust(SourceId::new(0)) < 0.5 || snap.trust(SourceId::new(4)) < 0.5);
    assert!(dipped, "YellowPages or CitySearch must become a negative source");
}

/// Figure 3(b)'s endpoints: with no inaccurate sources IncEstHeu is
/// near-perfect; with all sources inaccurate every method collapses to
/// the same level.
#[test]
fn figure_3b_endpoints() {
    let clean = gen_synthetic(&SyntheticConfig {
        n_accurate: 6,
        n_inaccurate: 0,
        n_facts: 4_000,
        eta: 0.02,
        seed: 5,
    })
    .unwrap();
    let heu = IncEstimate::new(IncEstHeu::default())
        .corroborate(&clean.dataset)
        .unwrap()
        .confusion(&clean.dataset)
        .unwrap()
        .accuracy();
    assert!(heu > 0.95, "clean world accuracy {heu}");

    let hopeless = gen_synthetic(&SyntheticConfig {
        n_accurate: 0,
        n_inaccurate: 6,
        n_facts: 4_000,
        eta: 0.02,
        seed: 5,
    })
    .unwrap();
    let heu = IncEstimate::new(IncEstHeu::default())
        .corroborate(&hopeless.dataset)
        .unwrap()
        .confusion(&hopeless.dataset)
        .unwrap()
        .accuracy();
    let voting = Voting
        .corroborate(&hopeless.dataset)
        .unwrap()
        .confusion(&hopeless.dataset)
        .unwrap()
        .accuracy();
    assert!(
        (heu - voting).abs() < 0.02,
        "without accurate sources IncEstHeu ({heu:.3}) must fall to Voting's level ({voting:.3})"
    );
}

/// Figure 3(a)'s trend: more accurate sources → higher IncEstHeu accuracy,
/// while TwoEstimate stays flat.
#[test]
fn figure_3a_trend() {
    let acc_at = |n_accurate: usize| -> (f64, f64) {
        let world = gen_synthetic(&SyntheticConfig {
            n_accurate,
            n_inaccurate: 2,
            n_facts: 4_000,
            eta: 0.02,
            seed: 5,
        })
        .unwrap();
        let heu = IncEstimate::new(IncEstHeu::default())
            .corroborate(&world.dataset)
            .unwrap()
            .confusion(&world.dataset)
            .unwrap()
            .accuracy();
        let two = TwoEstimates::default()
            .corroborate(&world.dataset)
            .unwrap()
            .confusion(&world.dataset)
            .unwrap()
            .accuracy();
        (heu, two)
    };
    let (heu_small, _) = acc_at(2);
    let (heu_large, two_large) = acc_at(8);
    assert!(
        heu_large > heu_small + 0.1,
        "accuracy must grow with accurate sources: {heu_small:.3} → {heu_large:.3}"
    );
    assert!(heu_large > two_large + 0.15, "IncEstHeu must dominate TwoEstimate");
}

/// §6.2.1's pre-study: an SVM on review metadata stays below 0.7
/// accuracy — the result that motivated building corroboration at all —
/// while the same SVM on vote features and IncEstHeu both clear it.
#[test]
fn review_metadata_classifier_is_less_than_satisfactory() {
    use corroborate::datagen::reviews::{generate_reviews, ReviewConfig};
    use corroborate::ml::features::signed_labels;
    use corroborate::ml::kfold::cross_validate;
    use corroborate::ml::svm::LinearSvm;

    let world = full_world();
    let ds = &world.dataset;
    let truth = ds.ground_truth().unwrap();
    let reviews = generate_reviews(ds, &ReviewConfig::default()).unwrap();
    let labels = signed_labels(truth, &world.golden);
    let x: Vec<Vec<f64>> = world.golden.iter().map(|&f| reviews[f.index()].features()).collect();
    let preds = cross_validate::<LinearSvm>(&x, &labels, 10, 42).unwrap();
    let correct = preds.iter().zip(&labels).filter(|(p, l)| (**p > 0.0) == (**l > 0.0)).count();
    let accuracy = correct as f64 / labels.len() as f64;
    assert!(accuracy < 0.7, "review-metadata SVM accuracy {accuracy:.3}");
    assert!(accuracy > 0.5, "the signal must still beat chance: {accuracy:.3}");
}

/// Table 7's magnitudes: every method lands in the paper's error
/// ballpark (250–360 of 830), Counting is the worst, and IncEstHeu stays
/// within 15% of TwoEstimate.
#[test]
fn table_7_error_magnitudes() {
    let world = gen_hubdub(&HubdubConfig::default()).unwrap();
    let cfg =
        MultiAnswerConfig { expand_implicit_negatives: true, decision: DecisionPolicy::Threshold };
    let errors = |alg: Box<dyn Corroborator>| -> usize {
        alg.corroborate(&world.dataset).unwrap().confusion(&world.dataset).unwrap().errors()
    };
    let voting = errors(Box::new(MultiAnswer::with_config(Voting, cfg)));
    let counting = errors(Box::new(MultiAnswer::with_config(Counting, cfg)));
    let two = errors(Box::new(MultiAnswer::with_config(TwoEstimates::default(), cfg)));
    let three = errors(Box::new(MultiAnswer::with_config(ThreeEstimates::default(), cfg)));
    let heu =
        errors(Box::new(MultiAnswer::with_config(IncEstimate::new(IncEstHeu::default()), cfg)));

    for (name, e) in [("voting", voting), ("two", two), ("three", three), ("heu", heu)] {
        assert!((250..=360).contains(&e), "{name}: {e} errors out of ballpark");
    }
    assert!(counting >= voting, "counting ({counting}) is the weakest method");
    let ratio = heu as f64 / two as f64;
    assert!(
        (0.8..=1.15).contains(&ratio),
        "IncEstHeu ({heu}) must stay within 15% of TwoEstimate ({two})"
    );
}

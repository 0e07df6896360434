//! Reproduces **Table 6**: wall-clock cost of every method over the full
//! restaurant dataset (the paper reports seconds on a 2012-era quad-core;
//! shapes, not absolute numbers, are the reproduction target — Voting and
//! Counting cheapest, TwoEstimate close behind, BayesEstimate the most
//! expensive by far, IncEstimate paying a small multi-round premium).

use std::time::Instant;

use corroborate_bench::{corroboration_roster, Reporter, TextTable};
use corroborate_datagen::restaurant::{generate, RestaurantConfig};
use corroborate_ml::eval::evaluate_on_golden;
use corroborate_ml::logistic::LogisticRegression;
use corroborate_ml::svm::LinearSvm;

const PAPER: &[(&str, &str)] = &[
    ("Voting", "0.60"),
    ("Counting", "0.61"),
    ("BayesEstimate", "7.38"),
    ("TwoEstimate", "0.69"),
    ("ML-SVM (SMO)", "0.99"),
    ("ML-Logistic", "0.91"),
    ("IncEstPS", "1.13"),
    ("IncEstHeu", "1.15"),
];

fn paper_cost(name: &str) -> &'static str {
    PAPER.iter().find(|(n, _)| *n == name).map(|(_, c)| *c).unwrap_or("—")
}

fn main() {
    let mut rep = Reporter::from_env("table6");
    let world = generate(&RestaurantConfig::default()).expect("generation succeeds");
    let ds = &world.dataset;
    rep.say(format!(
        "timing over {} listings / {} votes (paper: 36,916 listings, Java on a 2012 quad-core)",
        ds.n_facts(),
        ds.votes().n_votes()
    ));
    rep.blank();

    let mut table = TextTable::new(vec!["method", "time (s)", "paper time (s)"]);
    for alg in corroboration_roster(42) {
        let start = Instant::now();
        let result = alg.corroborate(ds).expect("corroboration succeeds");
        let elapsed = start.elapsed().as_secs_f64();
        // Touch the result so the work cannot be optimised away.
        std::hint::black_box(result.probabilities().len());
        table.row(vec![
            alg.name().to_string(),
            format!("{elapsed:.3}"),
            paper_cost(alg.name()).to_string(),
        ]);
    }

    // ML baselines (10-fold CV over the golden set, like the paper).
    let start = Instant::now();
    let svm = evaluate_on_golden::<LinearSvm>(ds, &world.golden, 10, 42).expect("svm CV");
    let svm_time = start.elapsed().as_secs_f64();
    std::hint::black_box(svm.confusion.total());
    table.row(vec![
        "ML-SVM (SMO)".to_string(),
        format!("{svm_time:.3}"),
        paper_cost("ML-SVM (SMO)").to_string(),
    ]);
    let start = Instant::now();
    let logit =
        evaluate_on_golden::<LogisticRegression>(ds, &world.golden, 10, 42).expect("logit CV");
    let logit_time = start.elapsed().as_secs_f64();
    std::hint::black_box(logit.confusion.total());
    table.row(vec![
        "ML-Logistic".to_string(),
        format!("{logit_time:.3}"),
        paper_cost("ML-Logistic").to_string(),
    ]);

    rep.table("table6", "Table 6 — time cost of the algorithms", &table);
    rep.say("note: run with --release; debug-profile timings are not comparable.");
    rep.finish();
}

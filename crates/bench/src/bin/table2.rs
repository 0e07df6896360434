//! Reproduces **Table 2**: the three strategies on the §2 motivating
//! example (5 sources, 12 restaurants).
//!
//! "Our strategy" in the paper is the hand-scripted 3-round walkthrough of
//! §2.3 (rounds {r9, r12} → {r5, r6} → rest); we reproduce it exactly with
//! a [`FixedSchedule`], and additionally report what the fully-automatic
//! strategies do on the same instance.

use corroborate_algorithms::bayes::{BayesEstimate, BayesEstimateConfig};
use corroborate_algorithms::galland::TwoEstimates;
use corroborate_algorithms::inc::{
    FixedSchedule, IncEstHeu, IncEstPS, IncEstimate, IncEstimateConfig,
};
use corroborate_bench::{f2, Reporter, TextTable};
use corroborate_core::prelude::*;
use corroborate_datagen::motivating::motivating_example;

fn main() {
    let mut rep = Reporter::from_env("table2");
    let ds = motivating_example();
    let mut table =
        TextTable::new(vec!["method", "precision", "recall", "accuracy", "paper P/R/A"]);

    let mut push = |name: &str, r: &CorroborationResult, paper: &str| {
        let m = r.confusion(&ds).expect("ground truth present");
        table.row(vec![
            name.to_string(),
            f2(m.precision()),
            f2(m.recall()),
            f2(m.accuracy()),
            paper.to_string(),
        ]);
    };

    let two = TwoEstimates::default().corroborate(&ds).unwrap();
    push("TwoEstimate", &two, "0.64 / 1.00 / 0.67");

    let bayes = BayesEstimate::new(BayesEstimateConfig::paper_priors(42)).corroborate(&ds).unwrap();
    push("BayesEstimate", &bayes, "0.58 / 1.00 / 0.58");

    // The §2.3 walkthrough: Table 1 rows are 0-based (r9 = f8, r12 = f11).
    let schedule = FixedSchedule::new(
        "Our strategy (§2.3 walkthrough)",
        vec![vec![FactId::new(8), FactId::new(11)], vec![FactId::new(4), FactId::new(5)]],
    );
    let raw = IncEstimateConfig { prior_strength: 0.0, ..Default::default() };
    let ours = IncEstimate::with_config(schedule, raw).corroborate(&ds).unwrap();
    push("Our strategy (walkthrough)", &ours, "0.78 / 1.00 / 0.83");

    // The automatic strategies, for context (not in the paper's Table 2).
    let heu = IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap();
    push("IncEstHeu (automatic)", &heu, "—");
    let ps = IncEstimate::new(IncEstPS).corroborate(&ds).unwrap();
    push("IncEstPS (automatic)", &ps, "—");

    rep.table("table2", "Table 2 — strategies on the motivating example", &table);

    // The walkthrough's trust-score checkpoints (§2.3 / Figure 1).
    let traj = ours.trajectory().expect("incremental run");
    rep.say("walkthrough trust checkpoints (paper: {-,1,1,0,1} → {0,1,1,0,1} → {0.67,1,1,0.7,1}):");
    for t in 1..traj.len() {
        let snap = traj.at(t).unwrap();
        let values: Vec<String> = snap.values().iter().map(|v| f2(*v)).collect();
        rep.say(format!("  t{t}: [{}]", values.join(", ")));
    }
    rep.finish();
}

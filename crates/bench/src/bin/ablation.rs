//! Quality ablations for the design choices DESIGN.md §6a calls out:
//! what each knob does to *accuracy*. Runs on the §6.3.1 synthetic world
//! (8 accurate + 2 inaccurate) and the restaurant golden set; the
//! `ablation` golden pins every cell.
//!
//! ```sh
//! cargo run --release -p corroborate-bench --bin ablation
//! ```

use corroborate_algorithms::galland::{Normalization, TwoEstimates, TwoEstimatesConfig};
use corroborate_algorithms::inc::{DeltaHMode, IncEstHeu, IncEstimate, IncEstimateConfig};
use corroborate_bench::{f3, Reporter, TextTable};
use corroborate_core::metrics::confusion_on_subset;
use corroborate_core::prelude::*;
use corroborate_datagen::restaurant::{generate as gen_restaurant, RestaurantConfig};
use corroborate_datagen::synthetic::{generate as gen_synthetic, SyntheticConfig};

fn main() {
    let mut rep = Reporter::from_env("ablation");
    let synthetic = gen_synthetic(&SyntheticConfig::default()).expect("generation");
    let restaurant = gen_restaurant(&RestaurantConfig::default()).expect("generation");
    let golden_truth = restaurant.dataset.ground_truth().expect("labelled");

    let eval = |alg: &dyn Corroborator| -> (f64, f64) {
        let syn = alg
            .corroborate(&synthetic.dataset)
            .expect("synthetic run")
            .confusion(&synthetic.dataset)
            .expect("labelled")
            .accuracy();
        let result = alg.corroborate(&restaurant.dataset).expect("restaurant run");
        let rest = confusion_on_subset(result.decisions(), golden_truth, &restaurant.golden)
            .expect("golden subset")
            .accuracy();
        (syn, rest)
    };

    // --- ΔH mode -----------------------------------------------------
    let mut t = TextTable::new(vec!["ΔH mode", "synthetic acc", "golden acc"]);
    for (label, mode) in [
        ("self-term (default)", DeltaHMode::SelfTerm),
        ("equation 9 (literal)", DeltaHMode::Equation9),
        ("full objective", DeltaHMode::Full),
    ] {
        let (s, r) = eval(&IncEstimate::new(IncEstHeu::with_mode(mode)));
        t.row(vec![label.to_string(), f3(s), f3(r)]);
    }
    rep.table("delta_h_mode", "Ablation 1 — IncEstHeu ΔH ranking mode (DESIGN.md §6a.1)", &t);

    // --- trust smoothing ----------------------------------------------
    let mut t = TextTable::new(vec!["prior strength", "synthetic acc", "golden acc"]);
    for k in [0.0, 0.01, 0.1, 1.0, 10.0] {
        let cfg = IncEstimateConfig { prior_strength: k, ..Default::default() };
        let (s, r) = eval(&IncEstimate::with_config(IncEstHeu::default(), cfg));
        t.row(vec![format!("{k}"), f3(s), f3(r)]);
    }
    rep.table(
        "prior_strength",
        "Ablation 2 — trust-update smoothing (DESIGN.md §6a.3; default 0.1)",
        &t,
    );

    // --- initial trust ------------------------------------------------
    let mut t = TextTable::new(vec!["initial trust", "synthetic acc", "golden acc"]);
    for t0 in [0.6, 0.7, 0.8, 0.9, 0.99] {
        let cfg = IncEstimateConfig { initial_trust: t0, voteless_prior: t0, ..Default::default() };
        let (s, r) = eval(&IncEstimate::with_config(IncEstHeu::default(), cfg));
        t.row(vec![format!("{t0}"), f3(s), f3(r)]);
    }
    rep.table(
        "initial_trust",
        "Ablation 3 — initial trust (§6.1.1: \"all default values above 0.5 generate the same corroboration result\")",
        &t,
    );

    // --- 2-Estimates normalisation -------------------------------------
    let mut t = TextTable::new(vec!["normalisation", "synthetic acc", "golden acc"]);
    for (label, norm) in [
        ("rounding (paper)", Normalization::Rounding),
        ("linear rescale", Normalization::LinearRescale),
        ("none", Normalization::None),
    ] {
        let cfg = TwoEstimatesConfig { normalization: norm, ..Default::default() };
        let (s, r) = eval(&TwoEstimates::new(cfg));
        t.row(vec![label.to_string(), f3(s), f3(r)]);
    }
    rep.table("normalization", "Ablation 4 — 2-Estimates normalisation scheme (§2.1)", &t);
    rep.finish();
}

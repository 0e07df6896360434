//! Reproduces **Table 3**: source coverage, pairwise overlap and golden
//! accuracy of the six restaurant sources — printed as *paper target vs
//! simulated value* so the calibration of the restaurant world is
//! auditable.

use corroborate_bench::{f2, Reporter, TextTable};
use corroborate_core::prelude::*;
use corroborate_datagen::restaurant::{
    generate, RestaurantConfig, SOURCE_NAMES, TARGET_ACCURACY, TARGET_COVERAGE, TARGET_F_VOTES,
};

fn main() {
    let mut rep = Reporter::from_env("table3");
    let world = generate(&RestaurantConfig::default()).expect("generation succeeds");
    let ds = &world.dataset;
    rep.say(format!(
        "restaurant world: {} listings, {} votes, {} listings with F votes",
        ds.n_facts(),
        ds.votes().n_votes(),
        ds.facts().filter(|&f| !ds.votes().is_affirmative_only(f)).count()
    ));
    rep.blank();

    // Coverage row.
    let mut cov = TextTable::new(vec!["source", "coverage (paper)", "coverage (simulated)"]);
    for (i, name) in SOURCE_NAMES.iter().enumerate() {
        cov.row(vec![
            name.to_string(),
            f2(TARGET_COVERAGE[i]),
            f2(ds.source_coverage(SourceId::new(i))),
        ]);
    }
    rep.table("coverage", "Table 3a — source coverage", &cov);

    // Overlap matrix.
    let mut header: Vec<String> = vec!["overlap".into()];
    header.extend(SOURCE_NAMES.iter().map(|s| s.to_string()));
    let mut overlap = TextTable::new(header);
    for (i, name) in SOURCE_NAMES.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for j in 0..SOURCE_NAMES.len() {
            row.push(f2(ds.source_overlap(SourceId::new(i), SourceId::new(j))));
        }
        overlap.row(row);
    }
    rep.table(
        "overlap",
        "Table 3b — source overlap (Jaccard; paper reports e.g. YP–CS 0.43, YP–FS 0.22, OT–* ≤ 0.09)",
        &overlap,
    );

    // Accuracy row (over the golden set, as the paper measures it).
    let golden_acc = world.realised_golden_accuracy().expect("ground truth");
    let mut acc = TextTable::new(vec![
        "source",
        "accuracy (paper)",
        "golden (simulated)",
        "full data (simulated)",
    ]);
    let full_acc = world.realised_accuracy().expect("ground truth");
    for (i, name) in SOURCE_NAMES.iter().enumerate() {
        acc.row(vec![name.to_string(), f2(TARGET_ACCURACY[i]), f2(golden_acc[i]), f2(full_acc[i])]);
    }
    rep.table("accuracy", "Table 3c — source accuracy", &acc);

    // F-vote counts (§6.2.1: Foursquare 10, Menupages 256, Yelp 425).
    let mut f_counts = vec![0usize; SOURCE_NAMES.len()];
    for f in ds.facts() {
        for sv in ds.votes().votes_on(f) {
            if sv.vote == Vote::False {
                f_counts[sv.source.index()] += 1;
            }
        }
    }
    let mut fv = TextTable::new(vec!["source", "F votes (paper)", "F votes (simulated)"]);
    for (i, name) in SOURCE_NAMES.iter().enumerate() {
        fv.row(vec![name.to_string(), TARGET_F_VOTES[i].to_string(), f_counts[i].to_string()]);
    }
    rep.table("f_votes", "§6.2.1 — F-vote counts", &fv);
    rep.finish();
}

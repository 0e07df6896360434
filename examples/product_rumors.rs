//! Product-rumor triage — the paper's other motivating domain (§1:
//! "technology blogs usually provide claims regarding major product
//! releases, each of which could be viewed as facts with only supportive
//! statements").
//!
//! A fleet of tech blogs repeats launch rumors. Rumors are never denied —
//! a blog either reports one or stays silent — except for the rare
//! official debunk. The example shows how IncEstimate uses the few
//! debunked rumors to expose the echo-chamber blogs and then discount the
//! rumors only they carry.
//!
//! ```sh
//! cargo run --example product_rumors
//! ```

use corroborate::algorithms::galland::TwoEstimates;
use corroborate::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = DatasetBuilder::new();

    // Two careful outlets that verify before publishing, three
    // echo-chamber blogs that repeat anything.
    let careful: Vec<SourceId> =
        ["TechWire", "LaunchDesk"].iter().map(|n| b.add_source(*n)).collect();
    let echo: Vec<SourceId> =
        ["RumorHub", "LeakCentral", "GadgetBuzz"].iter().map(|n| b.add_source(*n)).collect();

    let mut truth = Vec::new();
    let mut rumors = Vec::new();

    // 30 real launches: careful outlets usually confirm; echo blogs
    // repeat a third of them (they chase exclusives, not confirmations).
    for i in 0..30 {
        let f = b.add_fact(format!("launch{i}"));
        let mut any = false;
        for &s in &careful {
            if rng.gen_bool(0.85) {
                b.cast(s, f, Vote::True).unwrap();
                any = true;
            }
        }
        for &s in &echo {
            if rng.gen_bool(0.35) {
                b.cast(s, f, Vote::True).unwrap();
                any = true;
            }
        }
        if !any {
            b.cast(careful[0], f, Vote::True).unwrap();
        }
        truth.push(true);
        rumors.push(f);
    }
    // 20 fabricated rumors: only the echo chamber carries them; the
    // careful outlets debunk a handful after checking with the vendor.
    for i in 0..20 {
        let f = b.add_fact(format!("rumor{i}"));
        let mut any = false;
        for &s in &echo {
            if rng.gen_bool(0.7) {
                b.cast(s, f, Vote::True).unwrap();
                any = true;
            }
        }
        if !any {
            b.cast(echo[0], f, Vote::True).unwrap();
        }
        if i < 6 {
            // The rare explicit debunks, confirmed by both careful desks.
            for &s in &careful {
                b.cast(s, f, Vote::False).unwrap();
            }
        }
        truth.push(false);
        rumors.push(f);
    }

    // Attach ground truth for scoring (the algorithms never see it).
    let mut b2 = DatasetBuilder::new();
    let tmp = b.build().expect("valid dataset");
    for s in tmp.sources() {
        b2.add_source(tmp.source_name(s));
    }
    for (i, f) in tmp.facts().enumerate() {
        b2.add_fact_with_truth(tmp.fact_name(f), Label::from_bool(truth[i]));
        for sv in tmp.votes().votes_on(f) {
            b2.cast(sv.source, f, sv.vote).unwrap();
        }
    }
    let ds = b2.build().expect("valid dataset");

    println!(
        "{} claims from {} outlets; {} are fabrications, only 4 ever debunked\n",
        ds.n_facts(),
        ds.n_sources(),
        truth.iter().filter(|t| !**t).count()
    );

    for alg in
        [&TwoEstimates::default() as &dyn Corroborator, &IncEstimate::new(IncEstHeu::default())]
    {
        let r = alg.corroborate(&ds).expect("corroboration");
        let m = r.confusion(&ds).expect("ground truth attached");
        println!(
            "{:<12} precision {:.2}  recall {:.2}  accuracy {:.2}  (fabrications caught: {}/20)",
            alg.name(),
            m.precision(),
            m.recall(),
            m.accuracy(),
            m.tn,
        );
        let trust: Vec<String> = ds
            .sources()
            .map(|s| format!("{}={:.2}", ds.source_name(s), r.trust().trust(s)))
            .collect();
        println!("  outlet trust: {}\n", trust.join("  "));
    }
}

//! Reproduces **Table 7**: number of errors (FP + FN over the 830
//! candidate facts) on the Hubdub-like multi-answer dataset.
//!
//! Every method runs through the [`MultiAnswer`] adapter with implicit
//! negatives expanded and per-fact threshold decisions — the setup whose
//! error magnitudes match the paper's reported range. Note the paper's
//! own baseline numbers are *quoted from Galland et al.* (a different
//! implementation on the original snapshot); only IncEstHeu was run by
//! the paper's authors.

use corroborate_algorithms::baseline::{Counting, Voting};
use corroborate_algorithms::galland::{Cosine, ThreeEstimates, TwoEstimates};
use corroborate_algorithms::inc::{IncEstHeu, IncEstPS, IncEstimate};
use corroborate_algorithms::multi_answer::{DecisionPolicy, MultiAnswer, MultiAnswerConfig};
use corroborate_bench::{Reporter, TextTable};
use corroborate_core::prelude::*;
use corroborate_datagen::hubdub::{generate, HubdubConfig};

fn main() {
    let mut rep = Reporter::from_env("table7");
    let world = generate(&HubdubConfig::default()).expect("generation succeeds");
    let ds = &world.dataset;
    rep.say(format!(
        "hubdub-like dataset: {} questions, {} candidate facts, {} users, {} bets",
        ds.questions().unwrap().n_questions(),
        ds.n_facts(),
        ds.n_sources(),
        ds.votes().n_votes()
    ));
    rep.blank();

    let cfg =
        MultiAnswerConfig { expand_implicit_negatives: true, decision: DecisionPolicy::Threshold };
    let algs: Vec<(Box<dyn Corroborator>, &str)> = vec![
        (Box::new(MultiAnswer::with_config(Voting, cfg)), "292"),
        (Box::new(MultiAnswer::with_config(Counting, cfg)), "327"),
        (Box::new(MultiAnswer::with_config(TwoEstimates::default(), cfg)), "269"),
        (Box::new(MultiAnswer::with_config(ThreeEstimates::default(), cfg)), "270"),
        (Box::new(MultiAnswer::with_config(Cosine::default(), cfg)), "—"),
        (Box::new(MultiAnswer::with_config(IncEstimate::new(IncEstPS), cfg)), "—"),
        (Box::new(MultiAnswer::with_config(IncEstimate::new(IncEstHeu::default()), cfg)), "262"),
    ];

    let mut table = TextTable::new(vec!["method", "errors", "paper errors"]);
    for (alg, paper) in algs {
        let result = alg.corroborate(ds).expect("corroboration succeeds");
        let errors = result.confusion(ds).expect("labelled").errors();
        table.row(vec![alg.name().to_string(), errors.to_string(), paper.to_string()]);
    }
    rep.table("table7", "Table 7 — errors on the Hubdub-like dataset (830 facts)", &table);
    rep.finish();
}

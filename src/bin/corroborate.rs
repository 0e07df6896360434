//! `corroborate` — command-line truth discovery.
//!
//! ```text
//! corroborate run      --votes votes.csv [--truth truth.csv] [--algorithm inc-heu] [--trust] [--trajectory]
//! corroborate stats    --votes votes.csv [--truth truth.csv]
//! corroborate generate --kind synthetic|restaurant|hubdub|motivating [--seed N] [--facts N]
//!                      --out-votes votes.csv [--out-truth truth.csv]
//! corroborate algorithms
//! ```
//!
//! Votes/truth files use the CSV dialect of `corroborate_core::io`
//! (`source,fact,vote` with `T`/`F`; `fact,label` with `true`/`false`).

use std::collections::HashMap;
use std::process::ExitCode;

use corroborate::algorithms::baseline::{Counting, Voting};
use corroborate::algorithms::bayes::{BayesEstimate, BayesEstimateConfig};
use corroborate::algorithms::extra::{AccuVote, Pasternack, PasternackVariant, TruthFinder};
use corroborate::algorithms::galland::{Cosine, ThreeEstimates, TwoEstimates};
use corroborate::core::io::{dataset_from_csv, escape_field, truth_to_csv, votes_to_csv};
use corroborate::prelude::*;

const ALGORITHMS: &[(&str, &str)] = &[
    ("voting", "majority of cast votes (baseline)"),
    ("counting", "majority of all sources (baseline)"),
    ("two-estimates", "Galland et al. 2-Estimates"),
    ("three-estimates", "Galland et al. 3-Estimates"),
    ("cosine", "Galland et al. Cosine"),
    ("bayes", "BayesEstimate / Latent Truth Model (Gibbs)"),
    ("truthfinder", "Yin et al. TruthFinder"),
    ("accuvote", "Dong et al. dependence-aware AccuVote"),
    ("sums", "Kleinberg hubs-and-authorities (Sums)"),
    ("avglog", "Pasternack & Roth AvgLog"),
    ("invest", "Pasternack & Roth Invest"),
    ("pooledinvest", "Pasternack & Roth PooledInvest"),
    ("inc-ps", "IncEstimate with greedy selection (IncEstPS)"),
    ("inc-heu", "IncEstimate with entropy heuristic (IncEstHeu, default)"),
];

fn make_algorithm(name: &str, seed: u64) -> Option<Box<dyn Corroborator>> {
    Some(match name {
        "voting" => Box::new(Voting),
        "counting" => Box::new(Counting),
        "two-estimates" => Box::new(TwoEstimates::default()),
        "three-estimates" => Box::new(ThreeEstimates::default()),
        "cosine" => Box::new(Cosine::default()),
        "bayes" => Box::new(BayesEstimate::new(BayesEstimateConfig::paper_priors(seed))),
        "truthfinder" => Box::new(TruthFinder::default()),
        "accuvote" => Box::new(AccuVote::default()),
        "sums" => Box::new(Pasternack::new(PasternackVariant::Sums)),
        "avglog" => Box::new(Pasternack::new(PasternackVariant::AvgLog)),
        "invest" => Box::new(Pasternack::new(PasternackVariant::Invest)),
        "pooledinvest" => Box::new(Pasternack::new(PasternackVariant::PooledInvest)),
        "inc-ps" => Box::new(IncEstimate::new(IncEstPS)),
        "inc-heu" => Box::new(IncEstimate::new(IncEstHeu::default())),
        _ => return None,
    })
}

/// Minimal `--flag value` / `--switch` parser.
struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(name.to_string(), it.next().unwrap().clone());
                }
                _ => switches.push(name.to_string()),
            }
        }
        Ok(Self { values, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let votes_path = args.get("votes").ok_or("missing --votes FILE")?;
    let votes = std::fs::read_to_string(votes_path)
        .map_err(|e| format!("cannot read {votes_path}: {e}"))?;
    let truth = match args.get("truth") {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?)
        }
        None => None,
    };
    dataset_from_csv(&votes, truth.as_deref()).map_err(|e| e.to_string())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    let name = args.get("algorithm").unwrap_or("inc-heu");
    let seed: u64 = args
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed {s:?}")))
        .transpose()?
        .unwrap_or(42);
    let alg = make_algorithm(name, seed)
        .ok_or_else(|| format!("unknown algorithm {name:?}; see `corroborate algorithms`"))?;
    let result = alg.corroborate(&ds).map_err(|e| e.to_string())?;

    println!("fact,probability,decision");
    for f in ds.facts() {
        println!(
            "{},{:.4},{}",
            escape_field(ds.fact_name(f)),
            result.probability(f),
            result.decisions().label(f).as_bool()
        );
    }
    if args.has("trust") {
        eprintln!("\nsource trust ({}):", alg.name());
        for s in ds.sources() {
            eprintln!("  {},{:.4}", escape_field(ds.source_name(s)), result.trust().trust(s));
        }
    }
    if args.has("trajectory") {
        match result.trajectory() {
            Some(traj) => {
                eprintln!("\ntrust trajectory ({} time points):", traj.len());
                for (t, snap) in traj.iter().enumerate() {
                    let row: Vec<String> =
                        snap.values().iter().map(|v| format!("{v:.3}")).collect();
                    eprintln!("  t{t}: {}", row.join(","));
                }
            }
            None => eprintln!("\n(algorithm {} records no trajectory)", alg.name()),
        }
    }
    if ds.ground_truth().is_some() {
        let m = result.confusion(&ds).map_err(|e| e.to_string())?;
        eprintln!(
            "\nvs ground truth: precision {:.3}, recall {:.3}, accuracy {:.3}, F1 {:.3} ({} errors)",
            m.precision(),
            m.recall(),
            m.accuracy(),
            m.f1(),
            m.errors()
        );
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    println!("sources: {}", ds.n_sources());
    println!("facts:   {}", ds.n_facts());
    println!("votes:   {}", ds.votes().n_votes());
    println!(
        "affirmative-only facts: {} ({:.1}%)",
        ds.votes().affirmative_only_count(),
        100.0 * ds.votes().affirmative_only_count() as f64 / ds.n_facts().max(1) as f64
    );
    println!("\nper-source coverage / affirmative rate:");
    for s in ds.sources() {
        let rate =
            ds.votes().affirmative_rate(s).map(|r| format!("{r:.3}")).unwrap_or_else(|| "-".into());
        println!(
            "  {:<24} coverage {:.3}  T-rate {}",
            ds.source_name(s),
            ds.source_coverage(s),
            rate
        );
    }
    if ds.ground_truth().is_some() {
        println!("\nper-source accuracy vs ground truth:");
        let acc = ds.source_accuracies().map_err(|e| e.to_string())?;
        for s in ds.sources() {
            let a = acc[s.index()].map(|a| format!("{a:.3}")).unwrap_or_else(|| "-".into());
            println!("  {:<24} {}", ds.source_name(s), a);
        }
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let kind = args.get("kind").ok_or("missing --kind synthetic|restaurant|hubdub|motivating")?;
    let seed: u64 = args
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed {s:?}")))
        .transpose()?
        .unwrap_or(42);
    let ds = match kind {
        "motivating" => corroborate::datagen::motivating::motivating_example(),
        "synthetic" => {
            let mut cfg =
                corroborate::datagen::synthetic::SyntheticConfig { seed, ..Default::default() };
            if let Some(n) = args.get("facts") {
                cfg.n_facts = n.parse().map_err(|_| format!("bad --facts {n:?}"))?;
            }
            corroborate::datagen::synthetic::generate(&cfg).map_err(|e| e.to_string())?.dataset
        }
        "restaurant" => {
            let mut cfg =
                corroborate::datagen::restaurant::RestaurantConfig { seed, ..Default::default() };
            if let Some(n) = args.get("facts") {
                cfg.n_listings = n.parse().map_err(|_| format!("bad --facts {n:?}"))?;
                cfg.golden_size = cfg.golden_size.min(cfg.n_listings);
            }
            corroborate::datagen::restaurant::generate(&cfg).map_err(|e| e.to_string())?.dataset
        }
        "hubdub" => {
            let cfg = corroborate::datagen::hubdub::HubdubConfig { seed, ..Default::default() };
            corroborate::datagen::hubdub::generate(&cfg).map_err(|e| e.to_string())?.dataset
        }
        other => return Err(format!("unknown --kind {other:?}")),
    };

    let out_votes = args.get("out-votes").ok_or("missing --out-votes FILE")?;
    std::fs::write(out_votes, votes_to_csv(&ds)).map_err(|e| e.to_string())?;
    eprintln!("wrote {} votes to {out_votes}", ds.votes().n_votes());
    if let Some(out_truth) = args.get("out-truth") {
        std::fs::write(out_truth, truth_to_csv(&ds).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        eprintln!("wrote truth for {} facts to {out_truth}", ds.n_facts());
    }
    Ok(())
}

fn usage() -> &'static str {
    "usage:\n  \
     corroborate run      --votes FILE [--truth FILE] [--algorithm NAME] [--seed N] [--trust] [--trajectory]\n  \
     corroborate stats    --votes FILE [--truth FILE]\n  \
     corroborate generate --kind synthetic|restaurant|hubdub|motivating [--seed N] [--facts N] --out-votes FILE [--out-truth FILE]\n  \
     corroborate algorithms"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if command == "algorithms" {
        for (name, desc) in ALGORITHMS {
            println!("{name:<16} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "run" => cmd_run(&args),
        "stats" => cmd_stats(&args),
        "generate" => cmd_generate(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_values_and_switches() {
        let a = Args::parse(&argv(&["--votes", "v.csv", "--trust", "--seed", "7"])).unwrap();
        assert_eq!(a.get("votes"), Some("v.csv"));
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.has("trust"));
        assert!(!a.has("trajectory"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn args_reject_positionals() {
        assert!(Args::parse(&argv(&["stray"])).is_err());
        assert!(Args::parse(&argv(&["--ok", "v", "stray"])).is_err());
    }

    #[test]
    fn trailing_switch_is_a_switch() {
        let a = Args::parse(&argv(&["--votes", "v.csv", "--trajectory"])).unwrap();
        assert!(a.has("trajectory"));
    }

    #[test]
    fn every_advertised_algorithm_is_constructible() {
        for (name, _) in ALGORITHMS {
            assert!(make_algorithm(name, 1).is_some(), "{name}");
        }
        assert!(make_algorithm("nope", 1).is_none());
    }

    #[test]
    fn csv_escaping_quotes_commas() {
        // `run` prints names in the loader's dialect.
        assert_eq!(escape_field("plain"), "plain");
        assert_eq!(escape_field("a,b"), "\"a,b\"");
        assert_eq!(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        // Names that trimming, comment skipping or blank-line skipping
        // would change are quoted too.
        assert_eq!(escape_field(" pad"), "\" pad\"");
        assert_eq!(escape_field("pad "), "\"pad \"");
        assert_eq!(escape_field("#h"), "\"#h\"");
        assert_eq!(escape_field(""), "\"\"");
        assert_eq!(escape_field("a#b c"), "a#b c");
    }
}

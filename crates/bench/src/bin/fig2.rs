//! Reproduces **Figure 2**: the multi-value trust score of each source at
//! every time point of an IncEstimate run on the restaurant dataset —
//! (a) under IncEstPS, (b) under IncEstHeu.
//!
//! Prints the series as CSV (`time,source,...`) so they can be plotted
//! directly; pass `--summary` to print only a compact checkpoint table.
//!
//! Shape expectations from the paper: under IncEstPS every trust value
//! stays saturated near 1 until the `T`-only facts run out; under
//! IncEstHeu the trust of Yellowpages and Citysearch dips below 0.5 over
//! the first dozens of time points while the high-precision sources stay
//! high.

use corroborate_algorithms::inc::{IncEstHeu, IncEstPS, IncEstimate};
use corroborate_bench::{f2, Reporter, TextTable};
use corroborate_core::prelude::*;
use corroborate_datagen::restaurant::{generate, RestaurantConfig, SOURCE_NAMES};
use corroborate_obs::Json;

/// The compact checkpoint table used for the `--summary` view and for the
/// `--report` artifact in both modes.
fn checkpoint_table(trajectory: &TrustTrajectory) -> TextTable {
    let mut header: Vec<String> = vec!["time".into()];
    header.extend(SOURCE_NAMES.iter().map(|s| s.to_string()));
    let mut table = TextTable::new(header);
    let len = trajectory.len();
    let mut checkpoints: Vec<usize> =
        [0, 1, 2, 5, 10, 20, 50, 100, len / 2, len - 1].into_iter().filter(|&t| t < len).collect();
    checkpoints.sort_unstable();
    checkpoints.dedup();
    for t in checkpoints {
        let snap = trajectory.at(t).unwrap();
        let mut row = vec![format!("t{t}")];
        row.extend(snap.values().iter().map(|&v| f2(v)));
        table.row(row);
    }
    table
}

fn print_series(rep: &mut Reporter, name: &str, trajectory: &TrustTrajectory, summary: bool) {
    let table = checkpoint_table(trajectory);
    let title = format!("# Figure 2 ({name}): trust score per time point");
    if summary {
        rep.table(&format!("checkpoints_{name}"), &title, &table);
    } else {
        rep.say(&title);
        println!("time,{}", SOURCE_NAMES.join(","));
        for (t, snap) in trajectory.iter().enumerate() {
            let values: Vec<String> = snap.values().iter().map(|&v| format!("{v:.4}")).collect();
            println!("{t},{}", values.join(","));
        }
        println!();
        rep.raw(&format!("checkpoints_{name}"), table.to_json());
    }
}

fn main() {
    let summary = std::env::args().any(|a| a == "--summary");
    let mut rep = Reporter::from_env("fig2");
    let world = generate(&RestaurantConfig::default()).expect("generation succeeds");

    let ps = IncEstimate::new(IncEstPS).corroborate(&world.dataset).expect("IncEstPS run");
    print_series(&mut rep, "IncEstPS", ps.trajectory().expect("incremental"), summary);

    let heu =
        IncEstimate::new(IncEstHeu::default()).corroborate(&world.dataset).expect("IncEstHeu run");
    print_series(&mut rep, "IncEstHeu", heu.trajectory().expect("incremental"), summary);

    // The paper's qualitative claim for (b): YP and CS become negative
    // sources at some time point. Each one's lowest trust (and its first
    // time point) shows how near a source that never crosses comes.
    let traj = heu.trajectory().unwrap();
    let mut crossings = Json::object();
    let mut minima = Json::object();
    for (idx, name) in [(0usize, "YellowPages"), (4usize, "CitySearch")] {
        let series: Vec<f64> = traj.iter().map(|snap| snap.trust(SourceId::new(idx))).collect();
        let crossing = series.iter().position(|&trust| trust < 0.5);
        match crossing {
            Some(t) => rep.say(format!("# {name} drops below 0.5 at t{t} (paper: after t12)")),
            None => rep.say(format!("# {name} never drops below 0.5")),
        }
        crossings.insert(name, crossing);
        let (t, lowest) =
            series.into_iter().enumerate().min_by(|a, b| a.1.total_cmp(&b.1)).expect("t0 exists");
        let mut minimum = Json::object();
        minimum.insert("t", t);
        minimum.insert("trust", lowest);
        minima.insert(name, minimum);
    }
    rep.raw("trust_crossings", crossings);
    rep.raw("trust_minima", minima);
    rep.finish();
}

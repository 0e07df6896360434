//! Shard scaling bench for the partitioned IncEstimate engine core: sweeps
//! shard counts {1, `DEFAULT_SHARDS`} × thread counts {1, 2} over large
//! planted worlds, certifies that shard count never changes a result bit
//! (testkit fingerprints at 1/2/4/8 shards against the strictly sequential
//! engine), and writes the evidence to `BENCH_shard.json` at the repository
//! root.
//!
//! Every cell runs [`TRIALS`] times ([`QUICK_TRIALS`] with `--quick`),
//! alternating: each trial visits every cell once, in reverse order on odd
//! trials, so drift on the machine lands on all cells alike. A trial
//! repeats the corroboration until it has run for at least [`MIN_TRIAL_S`]
//! and reports per-run figures, which keeps the process CPU time — read
//! from `/proc/self/stat` in 10 ms ticks — well above its resolution.
//! Each cell reports the median, min and max of wall seconds and of
//! process CPU seconds.
//!
//! Flags:
//!
//! - `--quick` — one small world, fewer and shorter trials, and no
//!   `BENCH_shard.json` overwrite (the CI smoke mode);
//! - `--threads <n>` — sweep this thread count instead of {1, 2}
//!   (repeatable; the CI smoke job pins 2 and 4);
//! - `--report <path>` — dump the run as a `RunReport`.
//!
//! Run with `--release`. Wall-clock speedups are hardware-dependent — the
//! `config.threads_available` field records how many CPUs the sweep
//! actually had, and the determinism columns are meaningful regardless.

use std::time::Instant;

use corroborate_algorithms::inc::{
    resolve_threads, IncEstHeu, IncEstimate, IncEstimateConfig, ShardConfig, DEFAULT_SHARDS,
};
use corroborate_bench::Reporter;
use corroborate_core::prelude::*;
use corroborate_datagen::synthetic::{generate, SyntheticConfig};
use corroborate_obs::Json;
use corroborate_testkit::oracle::{fingerprint, run_engine};

/// Fact counts of the full sweep (the paper-scale scale-out target).
const SIZES: [usize; 3] = [100_000, 400_000, 1_000_000];
/// Fact count of the `--quick` smoke sweep.
const QUICK_SIZE: usize = 20_000;
/// Thread counts swept unless `--threads` pins others.
const THREADS: [usize; 2] = [1, 2];
/// Shard counts swept: the unpartitioned engine and the default partition.
const SHARDS: [usize; 2] = [1, DEFAULT_SHARDS];
/// Shard counts the fingerprint gate compares against the sequential engine.
const FINGERPRINT_SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Trials per cell of the full sweep.
const TRIALS: usize = 5;
/// Trials per cell in `--quick` mode.
const QUICK_TRIALS: usize = 3;
/// Minimum length of one trial; shorter runs are repeated within it.
const MIN_TRIAL_S: f64 = 0.5;
/// Minimum trial length in `--quick` mode.
const QUICK_MIN_TRIAL_S: f64 = 0.1;
/// Kernel clock ticks per second of the `/proc/<pid>/stat` times
/// (`USER_HZ`, fixed at 100 in the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

fn world(n_facts: usize) -> Dataset {
    let cfg = SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts, eta: 0.02, seed: 42 };
    generate(&cfg).expect("synthetic generation succeeds").dataset
}

fn engine(shards: usize, threads: usize) -> IncEstimate<IncEstHeu> {
    IncEstimate::with_config(
        IncEstHeu::default(),
        IncEstimateConfig { shard: ShardConfig { shards, threads }, ..Default::default() },
    )
}

/// User plus system CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in `USER_HZ` ticks).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let fields: Vec<&str> =
        stat[stat.rfind(')').expect("stat has a comm field") + 1..].split_whitespace().collect();
    let ticks = |field: usize| -> f64 {
        fields[field - 3].parse::<u64>().expect("numeric CPU time field") as f64
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// One trial: `reps` back-to-back runs. Returns per-run wall and CPU
/// seconds and the round count.
fn trial(ds: &Dataset, shards: usize, threads: usize, reps: usize) -> (f64, f64, usize) {
    let engine = engine(shards, threads);
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    let mut rounds = 0;
    for _ in 0..reps {
        let result = engine.corroborate(ds).expect("corroboration succeeds");
        rounds = result.rounds();
        std::hint::black_box(result.probabilities().len());
    }
    let wall = start.elapsed().as_secs_f64() / reps as f64;
    let cpu = (process_cpu_s() - cpu_start) / reps as f64;
    (wall, cpu, rounds)
}

/// `(median, min, max)` of `xs`.
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 { v[n / 2] } else { 0.5 * (v[n / 2 - 1] + v[n / 2]) };
    (median, v[0], v[n - 1])
}

fn spread_json(xs: &[f64]) -> Json {
    let (median, min, max) = spread(xs);
    let mut o = Json::object();
    o.insert("median", median);
    o.insert("min", min);
    o.insert("max", max);
    o
}

/// Parses every value of a repeatable `flag <n>`.
fn flag_values(args: &[String], flag: &str) -> Vec<usize> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .map(|(i, _)| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n > 0)
                .unwrap_or_else(|| panic!("{flag} requires a positive integer"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let pinned = flag_values(&args, "--threads");
    let trials = if quick { QUICK_TRIALS } else { TRIALS };
    let min_trial_s = if quick { QUICK_MIN_TRIAL_S } else { MIN_TRIAL_S };

    let threads_available = resolve_threads(0);
    let mut sweep: Vec<usize> = if pinned.is_empty() { THREADS.to_vec() } else { pinned };
    sweep.sort_unstable();
    sweep.dedup();
    let cells: Vec<(usize, usize)> =
        SHARDS.iter().flat_map(|&s| sweep.iter().map(move |&t| (s, t))).collect();

    let mut rep = Reporter::from_env("shard_scaling");
    rep.say(format!(
        "sharded engine scaling bench (shards: {SHARDS:?}, threads: {sweep:?}, \
         threads available: {threads_available}, trials: {trials}, quick: {quick})"
    ));
    rep.blank();

    let sizes: Vec<usize> = if quick { vec![QUICK_SIZE] } else { SIZES.to_vec() };
    let mut config = Json::object();
    config.insert("sizes", Json::Arr(sizes.iter().map(|&n| Json::Int(n as i64)).collect()));
    config.insert("n_accurate", 8i64);
    config.insert("n_inaccurate", 2i64);
    config.insert("eta", 0.02);
    config.insert("seed", 42i64);
    config.insert("shards", Json::Arr(SHARDS.iter().map(|&s| Json::Int(s as i64)).collect()));
    config.insert("default_shards", DEFAULT_SHARDS as i64);
    config.insert("threads", Json::Arr(sweep.iter().map(|&t| Json::Int(t as i64)).collect()));
    config.insert("threads_available", threads_available as i64);
    config.insert("trials", trials);
    config.insert("min_trial_s", min_trial_s);
    config.insert("cpu_clock", "/proc/self/stat utime+stime");
    rep.raw("config", config.clone());

    // --- shard × thread sweep ------------------------------------------
    let mut scaling = Vec::new();
    for &n in &sizes {
        let ds = world(n);
        let n_groups = corroborate_core::groups::group_by_signature(
            ds.votes(),
            &ds.facts().collect::<Vec<_>>(),
        )
        .len();
        // Calibrate the repetitions per trial on one warm-up run.
        let (warm_s, _, _) = trial(&ds, SHARDS[0], sweep[0], 1);
        let reps = ((min_trial_s / warm_s).ceil() as usize).max(1);
        let mut walls = vec![Vec::new(); cells.len()];
        let mut cpus = vec![Vec::new(); cells.len()];
        let mut rounds = vec![0usize; cells.len()];
        for t in 0..trials {
            let order: Vec<usize> = if t % 2 == 0 {
                (0..cells.len()).collect()
            } else {
                (0..cells.len()).rev().collect()
            };
            for c in order {
                let (shards, threads) = cells[c];
                let (wall, cpu, r) = trial(&ds, shards, threads, reps);
                walls[c].push(wall);
                cpus[c].push(cpu);
                rounds[c] = r;
            }
        }
        let median_wall = |c: usize| spread(&walls[c]).0;
        for (c, &(shards, threads)) in cells.iter().enumerate() {
            let base = cells
                .iter()
                .position(|&(s, t)| s == shards && t == sweep[0])
                .expect("every shard count has a min-threads cell");
            let (wall, wall_min, wall_max) = spread(&walls[c]);
            let (cpu, cpu_min, cpu_max) = spread(&cpus[c]);
            let speedup = median_wall(base) / wall;
            rep.say(format!(
                "n={n:<8} groups={n_groups:<6} shards={shards:<3} threads={threads:<3} \
                 wall {wall:.4}s [{wall_min:.4}, {wall_max:.4}]  \
                 cpu {cpu:.4}s [{cpu_min:.4}, {cpu_max:.4}]  rounds={:<6} speedup={speedup:.2}x",
                rounds[c]
            ));
            let mut row = Json::object();
            row.insert("n_facts", n);
            row.insert("n_groups", n_groups);
            row.insert("shards", shards);
            row.insert("threads", threads);
            row.insert("trials", trials);
            row.insert("runs_per_trial", reps);
            row.insert("seconds", wall);
            row.insert("wall_s", spread_json(&walls[c]));
            row.insert("cpu_s", spread_json(&cpus[c]));
            row.insert("rounds", rounds[c]);
            row.insert("speedup_vs_min_threads", speedup);
            scaling.push(row);
        }
        rep.blank();
    }
    let scaling = Json::Arr(scaling);
    rep.raw("scaling", scaling.clone());

    // --- shard-count determinism gate ---------------------------------
    // Fingerprints (testkit oracle FNV over probability/trust bits and
    // round count) must be identical at every shard count; the sweep runs
    // on the smallest configured world so the gate stays cheap.
    let gate_n = sizes[0];
    let ds = world(gate_n);
    let sequential = run_engine(&engine(1, 1), &ds);
    let expected = fingerprint(&sequential);
    let mut prints = Vec::new();
    for &shards in &FINGERPRINT_SHARDS {
        let sharded = run_engine(&engine(shards, 2), &ds);
        let fp = fingerprint(&sharded);
        assert_eq!(
            expected, fp,
            "{shards} shards diverged from the sequential engine on n={gate_n}"
        );
        rep.say(format!("n={gate_n:<8} shards={shards:<3} fingerprint={fp:016x}  sequential ok"));
        let mut row = Json::object();
        row.insert("n_facts", gate_n);
        row.insert("shards", shards);
        row.insert("fingerprint", format!("{fp:016x}"));
        row.insert("matches_sequential", true);
        prints.push(row);
    }
    let prints = Json::Arr(prints);
    rep.raw("fingerprints", prints.clone());

    // --- BENCH_shard.json ---------------------------------------------
    if !quick {
        let mut bench = Json::object();
        bench.insert("bench", "shard_scaling");
        bench.insert("config", config);
        bench.insert("scaling", scaling);
        bench.insert("fingerprints", prints);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
        std::fs::write(path, bench.to_json_pretty() + "\n").expect("write BENCH_shard.json");
        rep.blank();
        rep.say(format!("wrote {path}"));
    }
    rep.finish();
}

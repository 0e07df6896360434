//! `corroborate-ledger` — the repository's benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload <read_heavy|ingest_growth|batch_1m|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, measures for `--seconds`,
//! checks the program's outputs against an independent oracle, and prints
//! its run facts and every metric with its unit; the last line is a JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics of
//! a traced replay of the same inputs. A failed correctness gate prints
//! no result and exits non-zero. `--workload all` runs every workload in
//! a child process of its own.
//!
//! Scratch data lives under `.ledger/` in the working directory and is
//! removed at exit; traced runs keep their spans in `.ledger/spans/`.

mod batch_1m;
mod client;
mod engine;
mod gen;
mod ingest_growth;
mod layers;
mod probe;
mod read_heavy;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use corroborate_obs::Json;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["read_heavy", "ingest_growth", "batch_1m"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Root of the benchmark's scratch space, relative to the working
/// directory.
const LEDGER_DIR: &str = ".ledger";

/// A per-process scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(LEDGER_DIR).join(format!("work-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a traced run's spans to `.ledger/spans/<workload>-seed<n>.json`.
///
/// # Errors
/// Filesystem failures.
pub fn write_spans(workload: &str, args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    let dir = Path::new(LEDGER_DIR).join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{}.json", args.seed));
    let mut doc = Json::object();
    doc.insert("workload", workload);
    doc.insert("seed", args.seed);
    doc.insert("fields", "name, start_ns, end_ns, parent, units");
    doc.insert("spans", tracer.to_json());
    std::fs::write(&path, doc.to_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans {} ({} spans)", path.display(), tracer.spans().len());
    Ok(())
}

fn run_one(args: &Args) -> Result<report::Report, String> {
    let work = WorkDir::create(&args.workload)?;
    let before = report::cpu_ticks();
    let mut report = match args.workload.as_str() {
        "read_heavy" => read_heavy::run(args, &work.0),
        "ingest_growth" => ingest_growth::run(args, &work.0),
        "batch_1m" => batch_1m::run(args, &work.0),
        other => Err(format!("unknown workload {other}")),
    }?;
    // Time the hypervisor ran other guests on this machine's CPUs: on a
    // shared host it moves every timing, so each result records it.
    if let (Some((s0, t0)), Some((s1, t1))) = (before, report::cpu_ticks()) {
        report.fact(
            "cpu_steal_frac",
            s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64,
        );
    }
    Ok(report)
}

/// Runs every workload in a child process (so each has its own peak RSS)
/// and waits for each.
fn run_all(raw: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("ledger: cannot locate the running executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), workload.to_string()]);
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("ledger: {workload} failed ({status})");
                ok = false;
            }
            Err(e) => {
                eprintln!("ledger: {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ledger: {message}");
            eprintln!("usage: --workload <read_heavy|ingest_growth|batch_1m|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    match run_one(&args).and_then(|report| report.print(&args.workload, args.trace)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: FAILED {}: {message}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn command_line_takes_workload_seed_seconds_and_trace() {
        let args = parse_args(&strings(&[
            "--workload",
            "batch_1m",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("batch_1m", 7, 3, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--seconds", "0"])).is_err());
    }
}

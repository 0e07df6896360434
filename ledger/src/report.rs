//! What a run prints: the run facts, one line per metric with its unit and
//! sample count, the residual lines, and — last — the one-line JSON
//! result.

use corroborate_obs::Json;

use crate::stats::percentile;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Observations the value summarises.
    pub samples: usize,
}

/// The end-to-end metrics of an untraced run's JSON result, as
/// `BENCHMARK.json` lists them. Every workload reports each of them; the
/// other end-to-end figures are printed but left out, because on a
/// shared 2-vCPU host their run-to-run spread is wider than any bound a
/// regression gate could use: open-loop serve latency at low load pays a
/// vCPU wake-up on nearly every request, which hypervisor steal stretches
/// up to tenfold, and a full engine run swings with the memory traffic of
/// neighbouring guests. CPU time per operation does not count the time
/// the hypervisor gave to other guests.
pub const END_TO_END: &[&str] = &["setup_s", "cpu_us_per_op", "peak_rss_mb"];

/// The per-layer metrics of a traced run's JSON result, as
/// `BENCHMARK.json` lists them: the layers every workload runs (the
/// engine, the full epoch that wraps it, the published view). A traced
/// run prints the layers only some workloads run as well.
pub const PER_LAYER: &[&str] = &[
    "engine.build_ms",
    "engine.round_p50_us",
    "engine.round_p99_us",
    "engine.rounds",
    "engine.exact_frac",
    "engine.cache_refreshes",
    "epoch.full_ms",
    "epoch.publish_ns",
    "view.lookup_ns",
];

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Run facts (machine, configuration, rates, seed).
    pub facts: Vec<(String, Json)>,
    /// Every metric the run measured; the JSON result holds the ones
    /// [`END_TO_END`] or [`PER_LAYER`] names.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (residuals, gates).
    pub lines: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that finally failed.
    pub failed: u64,
}

impl Report {
    /// Records a run fact.
    pub fn fact(&mut self, key: &str, value: impl Into<Json>) {
        self.facts.push((key.to_string(), value.into()));
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// Records the `q`-quantile of `samples` (already in `unit`) as `name`.
    ///
    /// # Errors
    /// Too few samples to support the percentile (see
    /// [`crate::stats::MIN_TAIL_SAMPLES`]).
    pub fn quantile(
        &mut self,
        name: &str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = supported(name, samples, q)?;
        self.metric(name, value, unit, samples.len());
        Ok(())
    }

    /// Adds a human-readable line.
    pub fn say(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Prints the report; the last line is the JSON result, which holds
    /// exactly the [`PER_LAYER`] metrics of a traced run or the
    /// [`END_TO_END`] metrics of an untraced one.
    ///
    /// # Errors
    /// A metric of the result that the run did not measure, one that is
    /// not finite, or an end-to-end one that is not positive; nothing is
    /// printed then.
    pub fn print(&self, workload: &str, traced: bool) -> Result<(), String> {
        let result = if traced { PER_LAYER } else { END_TO_END };
        let json = self.result_json(result, !traced)?;
        let mut facts = Json::object();
        for (k, v) in &self.facts {
            facts.insert(k.as_str(), v.clone());
        }
        println!("ledger: workload {workload}");
        println!("facts {}", facts.to_json());
        for line in &self.lines {
            println!("{line}");
        }
        for m in &self.metrics {
            let mut note =
                crate::layers::annotate(&m.name).map(|n| format!("  {n}")).unwrap_or_default();
            if !result.contains(&m.name.as_str()) {
                note.push_str("  (printed, not in the result)");
            }
            println!("metric {:<26} {:>14.4} {:<6} n={}{note}", m.name, m.value, m.unit, m.samples);
        }
        let failed_frac =
            if self.attempted > 0 { self.failed as f64 / self.attempted as f64 } else { 0.0 };
        println!(
            "metric {:<26} {:>14.6} {:<6} n={}",
            "failed_frac", failed_frac, "ratio", self.attempted
        );
        println!("{}", json.to_json());
        Ok(())
    }

    fn result_json(&self, result: &[&str], positive: bool) -> Result<Json, String> {
        let mut metrics = Json::object();
        for &name in result {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("the run measured no {name}"))?;
            if !m.value.is_finite() || (positive && m.value <= 0.0) {
                return Err(format!("{name} measured {}", m.value));
            }
            let mut v = Json::object();
            v.insert("value", m.value);
            v.insert("unit", m.unit);
            metrics.insert(name, v);
        }
        let mut root = Json::object();
        root.insert("correct", true);
        root.insert("attempted", self.attempted.max(1));
        root.insert("failed", self.failed);
        root.insert("metrics", metrics);
        Ok(root)
    }
}

fn supported(name: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    percentile(samples, q)
        .ok_or_else(|| format!("{name}: {} samples cannot support the {q} quantile", samples.len()))
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used over all its threads, ended ones
/// included, in seconds. The kernel counts it in nanoseconds of time on a
/// CPU, leaving out the hypervisor's steal.
pub fn process_cpu_s() -> Option<f64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Refuses a load shape whose keep-alive connections to a server would
/// occupy all of its workers. Both shells serve one connection per worker
/// for the connection's whole life, so the connection past the last
/// worker waits for a `read_timeout` to free one and the benchmark would
/// measure those stalls instead of the program.
///
/// # Errors
/// A message naming the server and both counts.
pub fn check_connection_budget(
    server: &str,
    connections: usize,
    workers: usize,
) -> Result<(), String> {
    if connections >= workers {
        return Err(format!(
            "connection budget: {connections} keep-alive connections to the {server} would \
             reach its {workers} workers"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_budget_leaves_a_worker_free() {
        assert!(check_connection_budget("primary", 2, 4).is_ok());
        assert!(check_connection_budget("replica", 1, 2).is_ok());
        assert!(check_connection_budget("replica", 2, 2).is_err());
        assert!(check_connection_budget("primary", 4, 4).is_err());
    }

    #[test]
    fn quantile_refuses_thin_tails_and_the_result_keeps_its_keys() {
        let mut r = Report::default();
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(r.quantile("x_p90", &samples, 0.9, "ms"), Ok(()));
        assert!(r.quantile("x_p99", &samples, 0.99, "ms").is_err());
        r.attempted = 7;
        assert!(r.result_json(&["x_p90", "x_p50"], true).is_err());
        let json = r.result_json(&["x_p90"], true).unwrap();
        let keys: Vec<&str> = match &json {
            Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(r.metrics[0].value, 90.0);
        r.metric("zero", 0.0, "s", 1);
        assert!(r.result_json(&["zero"], true).is_err());
        assert!(r.result_json(&["zero"], false).is_ok());
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let p0 = process_cpu_s().unwrap();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s().unwrap() > p0);
    }
}

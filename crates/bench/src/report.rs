//! The shared reporting helper behind every bench binary.
//!
//! [`Reporter`] replaces the scattered `println!`/`eprintln!` lines: bins
//! narrate through it, and everything narrated is *also* accumulated into a
//! [`RunReport`]. When the binary was invoked with `--report <path>` the
//! report is serialized to that path as JSON on [`Reporter::finish`];
//! without the flag the narration still reaches stdout and the report is
//! simply dropped. See `docs/OBSERVABILITY.md` for the schema.

use std::path::PathBuf;

use corroborate_obs::{Json, RecordingObserver, RunReport};

use crate::TextTable;

/// Collects a bench binary's human-readable narration and machine-readable
/// results; writes the latter as a [`RunReport`] when `--report <path>` was
/// given on the command line.
#[derive(Debug)]
pub struct Reporter {
    report: RunReport,
    path: Option<PathBuf>,
    notes: Vec<Json>,
    metrics: Vec<(String, Json)>,
}

impl Reporter {
    /// Creates a reporter writing to `path` (if any) on [`finish`](Self::finish).
    pub fn new(name: &str, path: Option<PathBuf>) -> Self {
        Self { report: RunReport::new(name), path, notes: Vec::new(), metrics: Vec::new() }
    }

    /// Creates a reporter for the bench `name`, taking the output path from
    /// a `--report <path>` pair in the process arguments.
    ///
    /// # Panics
    /// Panics when `--report` is passed without a following path — an
    /// immediate, visible misuse rather than a silently dropped report.
    pub fn from_env(name: &str) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let path = args.iter().position(|a| a == "--report").map(|i| {
            PathBuf::from(
                args.get(i + 1).unwrap_or_else(|| panic!("--report requires a path argument")),
            )
        });
        Self::new(name, path)
    }

    /// Prints a narration line and records it under the report's `notes`.
    pub fn say(&mut self, text: impl AsRef<str>) {
        let text = text.as_ref();
        println!("{text}");
        self.notes.push(Json::from(text));
    }

    /// Prints a blank separator line (not recorded).
    pub fn blank(&self) {
        println!();
    }

    /// Prints `title` and the rendered table, and records the table's rows
    /// under `key`.
    pub fn table(&mut self, key: &str, title: &str, table: &TextTable) {
        println!("{title}");
        println!("{}", table.render());
        self.notes.push(Json::from(title));
        self.report.insert(key, table.to_json());
    }

    /// Records a scalar result under the report's `metrics` object and
    /// prints it as `key = value`.
    pub fn metric(&mut self, key: &str, value: impl Into<Json>) {
        let value = value.into();
        println!("{key} = {}", value.to_json());
        self.metrics.push((key.to_string(), value));
    }

    /// Records an arbitrary JSON value under `key` without printing.
    pub fn raw(&mut self, key: &str, value: impl Into<Json>) {
        self.report.insert(key, value.into());
    }

    /// Snapshots a [`RecordingObserver`] (counters, span histograms, round
    /// and iteration records) under `key`.
    pub fn attach_observer(&mut self, key: &str, observer: &RecordingObserver) {
        self.report.insert(key, observer.to_json());
    }

    /// Finalizes the report: folds in the accumulated notes and metrics and,
    /// when `--report <path>` was given, writes the JSON file.
    ///
    /// # Panics
    /// Panics when the report file cannot be written.
    pub fn finish(mut self) {
        if !self.metrics.is_empty() {
            let mut obj = Json::object();
            for (k, v) in std::mem::take(&mut self.metrics) {
                obj.insert(k, v);
            }
            self.report.insert("metrics", obj);
        }
        if !self.notes.is_empty() {
            self.report.insert("notes", Json::Arr(std::mem::take(&mut self.notes)));
        }
        if let Some(path) = &self.path {
            self.report.write_to(path).expect("write --report file");
            println!("wrote report to {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_and_metrics_land_in_the_report() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        let mut rep = Reporter::new("unit", None);
        rep.table("rows", "title", &t);
        rep.metric("speedup", 2.5);
        rep.say("done");
        let rows = rep.report.get("rows").expect("table recorded");
        assert_eq!(rows.to_json(), r#"[{"a":"1","b":"2"}]"#);
    }

    #[test]
    fn finish_writes_the_json_file() {
        let path = std::env::temp_dir().join("corroborate-bench-reporter-test.json");
        let mut rep = Reporter::new("unit", Some(path.clone()));
        rep.metric("answer", 42i64);
        rep.finish();
        let text = std::fs::read_to_string(&path).expect("report written");
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("report").and_then(Json::as_str), Some("unit"));
        assert_eq!(parsed.get("metrics").and_then(|m| m.get("answer")), Some(&Json::Int(42)));
        let _ = std::fs::remove_file(&path);
    }
}

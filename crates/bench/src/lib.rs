//! # corroborate-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation section (§6). One binary per experiment:
//!
//! | binary  | experiment |
//! |---------|------------|
//! | `table2` | §2 motivating example (Table 2) |
//! | `table3` | restaurant-world source statistics (Table 3) |
//! | `table4` | corroboration quality on the golden set (Table 4) |
//! | `table5` | trust scores + MSE (Table 5) |
//! | `table6` | wall-clock cost of each method (Table 6) |
//! | `table7` | Hubdub error counts (Table 7) |
//! | `fig2`   | multi-value trust trajectories (Figure 2) |
//! | `fig3`   | synthetic accuracy sweeps (Figure 3 a–c) |
//! | `reviews` | §6.2.1 pre-study: review-metadata classifier |
//! | `ablation` | accuracy of the DESIGN.md §6a knobs |
//! | `seeding` | semi-supervised IncEstHeu (beyond the paper) |
//! | `extras` | every method in the workspace (beyond the paper) |
//! | `heu_scaling` | the IncEstHeu engine's recorded run, all ΔH modes |
//!
//! Every binary prints the paper's reported numbers next to the measured
//! ones through one [`Reporter`], and `--report <path>` writes the same
//! results as JSON; `tests/golden/` pins each binary's report. Two more
//! binaries check artifacts rather than produce them: `report_check`
//! (run reports, Prometheus scrapes, the telemetry catalog) and
//! `trace_check` (Chrome trace exports). Wall-clock performance is the
//! ledger's (`ledger/`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod report;

use std::fmt::Write as _;

use corroborate_core::prelude::*;
use corroborate_obs::Json;

pub use report::Reporter;

/// A fixed-width text table accumulated row by row, printed to stdout.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}", w = w);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Converts the table to a JSON array of objects, one per row, keyed by
    /// the column headers — the machine-readable form [`Reporter::table`]
    /// stores in run reports.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    let mut obj = Json::object();
                    for (h, cell) in self.header.iter().zip(row) {
                        obj.insert(h.clone(), cell.as_str());
                    }
                    obj
                })
                .collect(),
        )
    }
}

/// Formats a float with two decimals (the paper's table precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// The corroboration-method roster of Table 4/6 (the ML baselines are
/// driven separately because they train on the golden set). Delegates to
/// [`corroborate_algorithms::standard_roster`] so the bench tables and the
/// testkit's differential oracle drive the same engine configurations.
pub fn corroboration_roster(seed: u64) -> Vec<Box<dyn Corroborator>> {
    corroborate_algorithms::standard_roster(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(vec!["method", "accuracy"]);
        t.row(vec!["Voting", "0.66"]);
        t.row(vec!["IncEstHeu", "0.83"]);
        let s = t.render();
        assert!(s.starts_with("method     accuracy\n"), "{s}");
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = TextTable::new(vec!["only"]);
        t.row(vec!["a", "b"]);
    }

    #[test]
    fn roster_has_the_table_4_methods() {
        let roster = corroboration_roster(1);
        let names: Vec<&str> = roster.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["Voting", "Counting", "BayesEstimate", "TwoEstimate", "IncEstPS", "IncEstHeu"]
        );
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(0.666), "0.67");
        assert_eq!(f3(0.6666), "0.667");
    }
}

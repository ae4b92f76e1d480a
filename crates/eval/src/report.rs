//! Experiment output: aligned console tables plus TSV files under
//! `results/`, so every figure harness prints the series the paper plots
//! *and* leaves a machine-readable record for EXPERIMENTS.md.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-aligned table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, "{cell:<w$}  ");
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders as TSV (header + rows).
    pub fn to_tsv(&self) -> String {
        let mut out = self.header.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout and writes a TSV next to the workspace's
    /// `results/` directory. Returns the written path.
    pub fn emit(&self, results_dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        println!("{}", self.render());
        fs::create_dir_all(results_dir)?;
        let path = results_dir.join(format!("{name}.tsv"));
        fs::write(&path, self.to_tsv())?;
        Ok(path)
    }
}

/// Human-friendly byte formatting (MiB with two decimals).
pub fn fmt_bytes(b: usize) -> String {
    format!("{:.2} MiB", b as f64 / (1024.0 * 1024.0))
}

/// Human-friendly large-count formatting (k/M/B suffixes).
pub fn fmt_count(c: u64) -> String {
    let c = c as f64;
    if c >= 1e9 {
        format!("{:.2}B", c / 1e9)
    } else if c >= 1e6 {
        format!("{:.2}M", c / 1e6)
    } else if c >= 1e3 {
        format!("{:.1}k", c / 1e3)
    } else {
        format!("{c:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["method", "recall"]);
        t.row(vec!["HNSW", "0.99"]);
        t.row(vec!["SPTAG-BKT", "0.97"]);
        let s = t.render();
        assert!(s.contains("HNSW"));
        assert!(s.contains("SPTAG-BKT"));
        assert!(s.lines().count() >= 4);
        let tsv = t.to_tsv();
        assert_eq!(tsv.lines().next().unwrap(), "method\trecall");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn emit_writes_tsv() {
        let dir = std::env::temp_dir().join("gass_report_test");
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1"]);
        let path = t.emit(&dir, "unit").unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "x\n1\n");
    }

    #[test]
    fn format_helpers() {
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1500), "1.5k");
        assert_eq!(fmt_count(2_500_000), "2.50M");
        assert_eq!(fmt_count(3_000_000_000), "3.00B");
        assert!(fmt_bytes(1024 * 1024).starts_with("1.00"));
    }
}

//! Plain-text tables (one per paper figure) with JSON export.
//!
//! The export is a [`Json`] value written by the crate's one JSON writer
//! ([`crate::json`]); the committed `results/*.json` tables are its output
//! with the trailing newline dropped.

use crate::json::{round2, Json};
use std::fmt;

/// A rendered experiment result: the rows/series a paper figure reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id, e.g. `"fig10"`.
    pub id: String,
    /// Human title quoting what the paper showed.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper-reported values, deviations, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Serializes to pretty JSON (2-space indent, one element per line, no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_with_runtime(None)
    }

    /// Like [`Table::to_json`], optionally recording the figure's measured
    /// wall time as a trailing `"runtime_secs"` key (used by `repro --json`),
    /// rounded to the writer's two decimals so the file reparses to itself.
    /// Wall time lives only in the export, never in the `Table` itself, so
    /// table equality (the serial-vs-parallel determinism guarantee) stays
    /// timing-independent.
    pub fn to_json_with_runtime(&self, runtime_secs: Option<f64>) -> String {
        let mut doc = Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("headers", Json::strs(&self.headers)),
            ("rows", Json::Arr(self.rows.iter().map(|r| Json::strs(r)).collect())),
            ("notes", Json::strs(&self.notes)),
        ]);
        if let Some(secs) = runtime_secs {
            doc.set("runtime_secs", Json::Num(round2(secs)));
        }
        let mut out = doc.to_pretty();
        out.pop(); // the tables are committed without a trailing newline
        out
    }

    /// Looks up a cell as `f64` (for tests over rendered output).
    pub fn cell_f64(&self, row: usize, col: usize) -> Option<f64> {
        self.rows.get(row)?.get(col)?.trim_end_matches(['%', 'x']).trim().parse().ok()
    }
}

/// Formats a ratio as a percentage cell.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a speedup cell.
pub fn speedup(x: f64) -> String {
    format!("{x:.3}x")
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    write!(f, "  {cell:<w$}", w = widths[i])?;
                } else {
                    write!(f, "  {cell:>w$}", w = widths[i])?;
                }
            }
            writeln!(f)
        };
        render(&self.headers, f)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            render(row, f)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("fig0", "demo", &["app", "speedup"]);
        t.row(vec!["cassandra".into(), speedup(1.25)]);
        t.note("paper: something");
        t
    }

    #[test]
    fn renders_all_parts() {
        let s = sample().to_string();
        assert!(s.contains("fig0"));
        assert!(s.contains("cassandra"));
        assert!(s.contains("1.250x"));
        assert!(s.contains("note: paper"));
    }

    #[test]
    fn json_roundtrips_fields() {
        let j = sample().to_json();
        assert!(j.contains("\"id\": \"fig0\""));
        assert!(j.contains("1.250x"));
    }

    #[test]
    fn cell_parsing() {
        let t = sample();
        assert_eq!(t.cell_f64(0, 1), Some(1.25));
        assert_eq!(t.cell_f64(5, 0), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = sample();
        t.row(vec!["too-short".into()]);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.505), "50.5%");
    }

    #[test]
    fn json_layout_matches_serde_pretty() {
        let j = sample().to_json();
        let expected = "{\n  \"id\": \"fig0\",\n  \"title\": \"demo\",\n  \"headers\": [\n    \"app\",\n    \"speedup\"\n  ],\n  \"rows\": [\n    [\n      \"cassandra\",\n      \"1.250x\"\n    ]\n  ],\n  \"notes\": [\n    \"paper: something\"\n  ]\n}";
        assert_eq!(j, expected);
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut t = Table::new("x", "quote \" backslash \\ newline \n", &["h"]);
        t.row(vec!["tab\there".into()]);
        let j = t.to_json();
        assert!(j.contains("quote \\\" backslash \\\\ newline \\n"));
        assert!(j.contains("tab\\there"));
    }

    #[test]
    fn json_runtime_is_export_only() {
        let t = sample();
        let j = t.to_json_with_runtime(Some(1.5));
        assert!(j.ends_with("\"runtime_secs\": 1.50\n}"));
        // The runtime never feeds back into the table (determinism).
        assert_eq!(t.to_json(), sample().to_json());
    }

    #[test]
    fn empty_arrays_render_inline() {
        let t = Table::new("e", "empty", &["h"]);
        let j = t.to_json();
        assert!(j.contains("\"rows\": [],"));
        assert!(j.contains("\"notes\": []"));
    }
}

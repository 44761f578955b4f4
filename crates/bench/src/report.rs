//! Experiment report types and rendering: every experiment produces an
//! [`ExperimentReport`] (tables of rows + notes) that renders as aligned
//! text for the terminal or serializes to JSON for downstream plotting.

use moe_json::{FromJson, ToJson};
use std::fmt::Write as _;

/// One table of results (one per panel of a figure, typically).
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Table {
    pub name: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != column count {} in table '{}'",
            cells.len(),
            self.columns.len(),
            self.name
        );
        self.rows.push(cells);
        self
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.name);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "| {} |", header.join(" | "));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Render as CSV (comma-separated, quoted when needed).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// A complete experiment result.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ExperimentReport {
    /// Experiment id ("table1", "fig5", ...).
    pub id: String,
    /// Paper reference ("Figure 5: ...").
    pub title: String,
    pub tables: Vec<Table>,
    /// Free-form observations, including paper-vs-measured commentary.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Render the whole report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# [{}] {}", self.id, self.title);
        for t in &self.tables {
            let _ = writeln!(out, "\n{}", t.render());
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "\nNotes:");
            for n in &self.notes {
                let _ = writeln!(out, "  - {n}");
            }
        }
        out
    }
}

/// Format a float with engineering-friendly precision.
pub fn num(v: f64) -> String {
    // Bit-pattern test for exact +/-0.0 (no-float-eq: a tolerance would
    // misprint small-but-real values as "0").
    if v.to_bits() & !(1u64 << 63) == 0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format seconds as adaptive ms/s.
pub fn secs(v: f64) -> String {
    if v < 1.0 {
        format!("{:.1} ms", v * 1e3)
    } else {
        format!("{v:.2} s")
    }
}

/// Render an `Option<f64>` throughput cell, with OOM for missing points
/// (the gaps in Figures 7-9).
pub fn tput_cell(v: Option<f64>) -> String {
    match v {
        Some(t) => num(t),
        None => "OOM".to_string(),
    }
}

/// Pivot a `(batch, x, Option<tok/s>)` sweep into a table titled
/// `title`: one row per batch, one column per `x` (headed by `x_label`),
/// both ascending, with OOM for missing points.
pub fn batch_grid_table(
    title: String,
    grid: &[(usize, usize, Option<f64>)],
    x_label: impl Fn(usize) -> String,
) -> Table {
    let mut xs: Vec<usize> = grid.iter().map(|g| g.1).collect();
    xs.sort_unstable();
    xs.dedup();
    let mut batches: Vec<usize> = grid.iter().map(|g| g.0).collect();
    batches.sort_unstable();
    batches.dedup();

    let mut cols = vec!["Batch".to_string()];
    cols.extend(xs.iter().map(|&x| x_label(x)));
    let mut t = Table::new(title, &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for &b in &batches {
        let mut row = vec![b.to_string()];
        for &x in &xs {
            row.push(tput_cell(
                grid.iter().find(|g| g.0 == b && g.1 == x).and_then(|g| g.2),
            ));
        }
        t.row(row);
    }
    t
}

/// `yes`/`no` cell for a boolean column.
pub fn yes_no(v: bool) -> String {
    if v { "yes" } else { "no" }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["model", "tok/s"]);
        t.row(vec!["Mixtral-8x7B".into(), "123".into()]);
        t.row(vec!["OLMoE".into(), "45678".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("| Mixtral-8x7B |"));
        // Alignment: both data rows have equal length.
        let lines: Vec<&str> = r.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new("demo", &["name", "v"]);
        t.row(vec!["a,b".into(), "1".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\",1"));
    }

    #[test]
    fn report_roundtrips_json() {
        let mut r = ExperimentReport::new("fig5", "Figure 5");
        let mut t = Table::new("panel", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        r.table(t);
        r.note("demo note");
        let json = moe_json::to_string(&r);
        let back: ExperimentReport = moe_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn num_formatting() {
        assert_eq!(num(12345.6), "12346");
        assert_eq!(num(12.345), "12.35");
        assert_eq!(num(0.01234), "0.0123");
        assert_eq!(num(0.0), "0");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(0.0123), "12.3 ms");
        assert_eq!(secs(2.5), "2.50 s");
    }

    #[test]
    fn oom_cell() {
        assert_eq!(tput_cell(None), "OOM");
        assert_eq!(tput_cell(Some(1234.5)), "1234");
    }
}

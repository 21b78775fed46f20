//! Minimal table formatting (markdown / CSV / aligned text).
//!
//! The experiment binaries print paper tables to stdout and persist them as
//! CSV without pulling in serialization dependencies.

use std::fmt::Write as _;

/// Column alignment for text rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default).
    #[default]
    Left,
    /// Right-aligned, the usual choice for numbers.
    Right,
}

/// A simple rectangular table with a header row.
///
/// # Example
///
/// ```
/// use pf_metrics::Table;
///
/// let mut t = Table::new(["scheduler", "goodput"]);
/// t.row(["past-future", "812.4"]);
/// assert!(t.to_markdown().contains("| past-future | 812.4 |"));
/// assert_eq!(t.to_csv(), "scheduler,goodput\npast-future,812.4\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; header.len()];
        Table {
            header,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Sets per-column alignment (text rendering only).
    ///
    /// # Panics
    ///
    /// Panics if the number of alignments differs from the number of columns.
    pub fn with_aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.header.len(), "alignment arity mismatch");
        self.aligns = aligns.to_vec();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the header arity.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes, or newlines).
    pub fn to_csv(&self) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
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

    /// Renders as aligned plain text for terminal output.
    pub fn to_text(&self) -> String {
        let n = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..n {
                let cell = &cells[i];
                match self.aligns[i] {
                    Align::Left => {
                        let _ = write!(line, "{:<width$}", cell, width = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(line, "{:>width$}", cell, width = widths[i]);
                    }
                }
                if i + 1 != n {
                    line.push_str("  ");
                }
            }
            line
        };
        let mut out = render_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["name", "value"]).with_aligns(&[Align::Left, Align::Right]);
        t.row(["alpha", "1"]);
        t.row(["beta", "22"]);
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| name | value |\n|---|---|\n"));
        assert!(md.contains("| alpha | 1 |"));
    }

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn text_alignment() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name   value");
        assert_eq!(lines[2], "alpha      1");
        assert_eq!(lines[3], "beta      22");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}

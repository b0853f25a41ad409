//! Aligned plain-text table rendering.
//!
//! The experiment binaries print the same rows the paper's tables report;
//! this module keeps that output readable without pulling in a TUI crate.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the row is padded or truncated to the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }

    /// Renders as an aligned plain-text table.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!(" {:<width$} ", c, width = w))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Method", "Lat.(ms)", "Acc.(%)"]);
        t.row(&["CoCa".into(), "23.05".into(), "75.73".into()]);
        t.row(&["Edge-Only".into(), "29.94".into(), "78.12".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("CoCa"));
        // Alignment: every data line has the same length.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let lens: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row(&["1".into()]);
        assert_eq!(t.len(), 1);
        let s = t.render();
        assert!(!s.contains("==")); // no title line
        assert!(s.lines().count() >= 3);
    }
}

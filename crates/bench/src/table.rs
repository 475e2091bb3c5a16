//! Plain-text result tables — the output format of every experiment, echoed
//! by the `tables` binary.

use std::fmt;

/// A rendered experiment result.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id + description, e.g. `"E1 — Theorem 2 tradeoff"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified by the experiment).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper reference, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in {}",
            self.title
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &sep)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a float compactly for table cells.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let a = x.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{x:.2e}")
    } else if a >= 100.0 {
        format!("{x:.0}")
    } else if a >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E0 — demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("## E0 — demo"));
        assert!(s.contains("| a | long-header |"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1234567.0), "1.23e6");
        assert_eq!(fnum(123.4), "123");
        assert_eq!(fnum(1.5), "1.50");
        assert_eq!(fnum(0.25), "0.2500");
        assert_eq!(fnum(0.0001), "1.00e-4");
    }
}

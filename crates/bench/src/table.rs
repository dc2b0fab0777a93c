//! Plain-text table output for `reproduce`.

/// A simple fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for c in 0..cols {
                if c > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[c];
                out.push_str(cell);
                for _ in cell.len()..widths[c] {
                    out.push(' ');
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a modeled value next to its paper reference:
/// `"0.56 (paper 0.53, +5%)"`.
pub fn fmt_cell(model: f64, paper: f64) -> String {
    let dev = 100.0 * (model - paper) / paper;
    format!("{model:.2} (paper {paper:.2}, {dev:+.0}%)")
}

/// Prints a banner introducing one artefact and its provenance caveat.
pub fn print_banner(title: &str, note: &str) {
    println!();
    println!("=== {title} ===");
    println!("{note}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["x", "1.0"]).row(["longer-name", "2.25"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("longer-name  2.25"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(fmt_cell(0.56, 0.53), "0.56 (paper 0.53, +6%)");
        assert_eq!(fmt_cell(0.50, 0.50), "0.50 (paper 0.50, +0%)");
    }
}

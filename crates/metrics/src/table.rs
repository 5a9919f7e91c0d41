//! Plain-text table rendering for experiment output.

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:>w$}", w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["app", "time"]);
        t.row(vec!["pagerank", "12.5"]);
        t.row(vec!["als", "3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("app"));
        assert!(lines[2].contains("pagerank"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn empty_header_does_not_panic() {
        let t = TextTable::new(Vec::<String>::new());
        assert!(t.render().contains('\n'));
    }
}

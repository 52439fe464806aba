//! The value an experiment returns: a named table that renders as aligned
//! text and as CSV. Printing and saving are the `figures` binary's job.

use std::path::{Path, PathBuf};

/// Directory experiment CSVs are written to: `experiments/` under
/// `CARGO_TARGET_DIR`, else under the workspace's own `target/` whatever
/// the caller's working directory.
pub fn experiments_dir() -> PathBuf {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            workspace
                .expect("crates/bench sits two below the root")
                .join("target")
        })
        .join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// A table of printed cells; `name` is its CSV file stem.
pub struct Table {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: AsRef<str>>(
        name: impl Into<String>,
        title: impl Into<String>,
        headers: &[S],
    ) -> Table {
        Table {
            name: name.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must have as many cells as there are headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Index of the column headed `header`.
    pub fn col(&self, header: &str) -> usize {
        self.headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("{} has no column {header}", self.name))
    }

    /// The title line and the rows under right-aligned column headers.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            padded.join("  ")
        };
        let header = line(&self.headers);
        let mut out = format!(
            "\n== {} ==\n{header}\n{}\n",
            self.title,
            "-".repeat(header.len())
        );
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Header line plus one line per row; a cell holding a comma or a quote
    /// is quoted (RFC 4180), so "344.6 (128 MB), best" stays one column.
    pub fn to_csv(&self) -> String {
        let quote = |cell: &String| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.clone()
            }
        };
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&cells.iter().map(quote).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write `<name>.csv` under the experiments directory, after an optional
    /// `# envelope` first line (wall-clock tables carry their run envelope;
    /// modeled ones depend on neither host nor time and carry none).
    pub fn save_csv(&self, envelope: Option<&str>) -> std::io::Result<PathBuf> {
        let path = experiments_dir().join(format!("{}.csv", self.name));
        let head = envelope.map(|e| format!("# {e}\n")).unwrap_or_default();
        std::fs::write(&path, head + &self.to_csv())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("unittest_demo", "demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["30".into(), "4, \"x\"".into()]);
        assert_eq!(t.rows().len(), 2);
        assert_eq!(
            t.render(),
            "\n== demo ==\n a       b\n----------\n 1       2\n30  4, \"x\"\n"
        );
        let path = t.save_csv(Some("commit=abc")).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "# commit=abc\na,b\n1,2\n30,\"4, \"\"x\"\"\"\n");
        assert_eq!(t.to_csv(), "a,b\n1,2\n30,\"4, \"\"x\"\"\"\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic]
    fn wrong_row_width_panics() {
        let mut t = Table::new("demo", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}

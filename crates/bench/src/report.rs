//! Aligned text tables and CSV output for the experiment binaries.

use std::io::Write;
use std::path::PathBuf;

/// Directory experiment CSVs are written to.
pub fn experiments_dir() -> PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target"))
        .join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// A simple table that prints aligned and saves as CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must have as many cells as there are headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Print with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        println!("{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    /// Write `name.csv` under the experiments directory.
    pub fn save_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = experiments_dir().join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Guard from [`bench_metrics`]: while alive, metrics record into a fresh
/// registry; on [`MetricsSection::finish`] (or drop) the collected snapshot
/// is printed as an appendix to the experiment's tables and optionally
/// saved as JSON next to the CSVs.
pub struct MetricsSection {
    registry: std::sync::Arc<bat_obs::Registry>,
    title: String,
    json_name: Option<String>,
    _on: bat_obs::EnabledGuard,
    _scope: bat_obs::ScopeGuard,
    finished: bool,
}

/// Start collecting observability metrics for a benchmark section. Enables
/// recording and scopes it to a registry owned by the guard, so repeated
/// sections don't bleed into each other.
pub fn bench_metrics(title: impl Into<String>, json_name: Option<&str>) -> MetricsSection {
    let registry = std::sync::Arc::new(bat_obs::Registry::new());
    MetricsSection {
        _on: bat_obs::enable(),
        _scope: bat_obs::scope(registry.clone()),
        registry,
        title: title.into(),
        json_name: json_name.map(str::to_string),
        finished: false,
    }
}

impl MetricsSection {
    /// Snapshot of everything recorded so far.
    pub fn snapshot(&self) -> bat_obs::Snapshot {
        self.registry.snapshot()
    }

    /// Print the collected metrics (and save JSON if configured), consuming
    /// the section.
    pub fn finish(mut self) {
        self.finished = true;
        let snap = self.registry.snapshot();
        if snap.is_empty() {
            return;
        }
        println!("\n== {} — observability ==", self.title);
        print!("{}", snap.to_table());
        if let Some(name) = &self.json_name {
            let path = experiments_dir().join(format!("{name}.metrics.json"));
            if std::fs::write(&path, snap.to_json()).is_ok() {
                println!("saved {}", path.display());
            }
        }
    }
}

impl Drop for MetricsSection {
    fn drop(&mut self) {
        if !self.finished {
            let snap = self.registry.snapshot();
            if !snap.is_empty() {
                println!("\n== {} — observability ==", self.title);
                print!("{}", snap.to_table());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["30".into(), "4".into()]);
        assert_eq!(t.len(), 2);
        t.print();
        let path = t.save_csv("unittest_demo").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n30,4\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic]
    fn wrong_row_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}

//! Aligned-text tables with optional CSV export.

use std::io::Write;

/// A simple experiment results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
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

    /// Renders the aligned table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    fn slug(&self) -> String {
        self.title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect()
    }

    /// Prints the table to stdout and, when `DRW_CSV_DIR` /
    /// `DRW_JSON_DIR` are set, also writes `<dir>/<slug>.csv` /
    /// `<dir>/<slug>.json`.
    pub fn emit(&self) {
        print!("{}", self.render());
        println!();
        if let Ok(dir) = std::env::var("DRW_CSV_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{}.csv", self.slug()));
            if let Err(e) = self.write_csv(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        if let Ok(dir) = std::env::var("DRW_JSON_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{}.json", self.slug()));
            if let Err(e) = self.write_json(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }

    /// Writes the table as CSV.
    ///
    /// # Errors
    ///
    /// I/O errors from file creation or writing.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }

    /// The table as a machine-readable JSON value:
    /// `{"title": .., "headers": [..], "rows": [[..]]}`. Cells that
    /// parse as numbers are emitted as numbers.
    pub fn to_json_value(&self) -> serde::Value {
        let cell = |c: &String| {
            if let Ok(u) = c.parse::<u64>() {
                serde::Value::UInt(u)
            } else if let Ok(x) = c.parse::<f64>() {
                serde::Value::Float(x)
            } else {
                serde::Value::Str(c.clone())
            }
        };
        serde::Value::Object(vec![
            ("title".to_string(), serde::Value::Str(self.title.clone())),
            (
                "headers".to_string(),
                serde::Value::Array(
                    self.headers
                        .iter()
                        .map(|h| serde::Value::Str(h.clone()))
                        .collect(),
                ),
            ),
            (
                "rows".to_string(),
                serde::Value::Array(
                    self.rows
                        .iter()
                        .map(|row| serde::Value::Array(row.iter().map(cell).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the table as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// I/O errors from file creation or writing.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(&self.to_json_value())
            .expect("table JSON rendering is infallible");
        std::fs::write(path, json + "\n")
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row(&["1".into(), "10".into()]);
        t.row(&["100".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("  1"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new("csv test", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("drw_table_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn wrong_arity_panics() {
        Table::new("t", &["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
    }
}

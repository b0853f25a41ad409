//! Output conventions for experiment binaries.

use coca_metrics::{ExperimentRecord, Table};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Directory where experiment records land (workspace-relative).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Writes `contents` to `<dir>/<file>`, creating `dir` if needed, and
/// returns the path. The error names the path and the `io::Error`.
fn write_in(dir: &Path, file: &str, contents: &str) -> Result<PathBuf, String> {
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => Ok(path),
        Err(e) => Err(format!("cannot write {}: {e}", path.display())),
    }
}

/// [`write_in`], ending the process with status 1 when the write fails: a
/// producer that cannot write its output must not exit 0 and leave the
/// stale committed file looking regenerated.
pub(crate) fn save_or_exit(dir: &Path, file: &str, contents: &str) -> PathBuf {
    write_in(dir, file, contents).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(1);
    })
}

/// Saves a record as `results/<id>.json` and prints the path; a failed
/// write ends the process with status 1.
pub fn save_record(record: &ExperimentRecord) {
    let file = format!("{}.json", record.id);
    let path = save_or_exit(&results_dir(), &file, &record.to_json());
    println!("\n[record saved to {}]", path.display());
}

/// Renders a record's rows as one console table titled `<id> — <title>`:
/// columns in first-seen key order, a cell a row lacks blank, `null` as
/// `-`, strings bare, and numbers as the record writes them (floats in
/// their shortest round-trip form), so the console shows what the record
/// holds.
pub fn rows_table(record: &ExperimentRecord) -> String {
    let mut columns: Vec<&str> = Vec::new();
    for row in &record.rows {
        for (key, _) in row.iter() {
            if !columns.contains(&key.as_str()) {
                columns.push(key);
            }
        }
    }
    let mut table = Table::new(format!("{} — {}", record.id, record.title), &columns);
    for row in &record.rows {
        let cells: Vec<String> = columns
            .iter()
            .map(|c| row.get(c).map_or_else(String::new, cell))
            .collect();
        table.row(&cells);
    }
    table.render()
}

fn cell(value: &Value) -> String {
    match value {
        Value::Null => "-".into(),
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn rows_table_keeps_first_seen_columns_and_blank_missing_cells() {
        let mut r = ExperimentRecord::new("fig8", "ACA vs LRU/FIFO/RAND");
        r.push_row(&[("method", json!("LRU")), ("latency_ms", json!(31.256))]);
        r.push_row(&[
            ("method", json!("ACA")),
            ("latency_ms", json!(28.0)),
            ("budget_bytes", json!(4096)),
            ("acc", json!(null)),
            ("theta", json!(0.0271)),
        ]);
        let text = rows_table(&r);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "== fig8 — ACA vs LRU/FIFO/RAND ==");
        let cells =
            |line: &str| -> Vec<String> { line.split('|').map(|c| c.trim().to_string()).collect() };
        assert_eq!(
            cells(lines[1]),
            ["method", "latency_ms", "budget_bytes", "acc", "theta"]
        );
        assert_eq!(cells(lines[3]), ["LRU", "31.256", "", "", ""]);
        assert_eq!(cells(lines[4]), ["ACA", "28.0", "4096", "-", "0.0271"]);
    }

    #[test]
    fn a_failed_write_names_the_path_and_the_error() {
        // The target directory is a regular file, so neither creating it
        // nor writing into it can succeed.
        let blocker = std::env::temp_dir().join(format!("coca-write-in-{}", std::process::id()));
        std::fs::write(&blocker, "").unwrap();
        let err = write_in(&blocker, "fig1a.json", "{}").expect_err("the write must fail");
        std::fs::remove_file(&blocker).unwrap();
        let path = blocker.join("fig1a.json");
        assert!(
            err.starts_with(&format!("cannot write {}: ", path.display())),
            "{err}"
        );
    }

    #[test]
    fn results_dir_is_repo_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(!d.to_string_lossy().contains("crates"));
    }
}

//! Output conventions for experiment binaries.

use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use serde_json::{Number, Value};
use std::path::PathBuf;

/// Directory where experiment records land (workspace-relative).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Saves a record into the standard results directory and prints the path.
pub fn save_record(record: &ExperimentRecord) {
    match record.save(results_dir()) {
        Ok(path) => println!("\n[record saved to {}]", path.display()),
        Err(e) => eprintln!("warning: could not save record: {e}"),
    }
}

/// Renders a record's rows as one console table titled `<id> — <title>`:
/// columns in first-seen key order, a cell a row lacks blank, `null` as
/// `-`, floats to 2 places (3 below 1, so sweep values such as Θ = 0.027
/// and 0.031 stay apart), strings bare.
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
        Value::Number(Number::F(f)) => fmt_f(*f, if f.abs() < 1.0 { 3 } else { 2 }),
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
        assert_eq!(cells(lines[3]), ["LRU", "31.26", "", "", ""]);
        assert_eq!(cells(lines[4]), ["ACA", "28.00", "4096", "-", "0.027"]);
    }

    #[test]
    fn results_dir_is_repo_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(!d.to_string_lossy().contains("crates"));
    }
}

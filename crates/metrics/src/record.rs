//! Serializable experiment records.
//!
//! Every experiment binary writes a JSON record alongside its printed table
//! so its numbers are machine-readable and reruns can be diffed.

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};

/// A machine-readable record of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `"fig7"` or `"table2"`.
    pub id: String,
    /// Human-readable one-liner.
    pub title: String,
    /// Free-form parameter map (model, dataset, seeds, thresholds …).
    pub params: Map<String, Value>,
    /// Result rows; each row is a flat map of column → value.
    pub rows: Vec<Map<String, Value>>,
}

impl ExperimentRecord {
    /// A new empty record.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            params: Map::new(),
            rows: Vec::new(),
        }
    }

    /// Sets one parameter.
    pub fn param(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.params.insert(key.to_string(), value.into());
        self
    }

    /// Appends one result row from `(column, value)` pairs.
    pub fn push_row(&mut self, cells: &[(&str, Value)]) -> &mut Self {
        let mut row = Map::new();
        for (k, v) in cells {
            row.insert(k.to_string(), v.clone());
        }
        self.rows.push(row);
        self
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ExperimentRecord is always serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn round_trips_through_json() {
        let mut r = ExperimentRecord::new("tab1", "hot-spot class sweep");
        r.param("model", "resnet101").param("seed", 42);
        r.push_row(&[
            ("classes", json!(50)),
            ("lat_ms", json!(30.53)),
            ("acc", json!(80.08)),
        ]);
        let text = r.to_json();
        let back: ExperimentRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.id, "tab1");
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0]["classes"], json!(50));
        assert_eq!(back.params["seed"], json!(42));
    }
}

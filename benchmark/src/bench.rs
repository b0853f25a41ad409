//! `BENCHMARK.json`, the one place the benchmark's contract is written
//! down: workload names, every metric's unit and direction, and the bound
//! by which an end-to-end metric may worsen. The runner takes names and
//! units from it and `compare` takes the bounds, so neither can drift
//! from what the file promises.

use std::path::Path;

use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the baseline median; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Bench {
    /// Length of a measured window in seconds, the one every committed
    /// number was taken at.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn str_of<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v[key]
        .as_str()
        .ok_or_else(|| format!("BENCHMARK.json: missing string '{key}' in {v}"))
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    root[key]
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: '{key}' is not a list"))?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: str_of(m, "name")?.to_string(),
                unit: str_of(m, "unit")?.to_string(),
                better: match str_of(m, "better")? {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("BENCHMARK.json: better = '{other}'")),
                },
                bound: m
                    .as_object()
                    .and_then(|o| o.get("bound"))
                    .and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Bench {
    pub fn parse(text: &str) -> Result<Self, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = root["workloads"]
            .as_array()
            .ok_or("BENCHMARK.json: 'workloads' is not a list")?
            .iter()
            .map(|w| str_of(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        let run_seconds = root["run_seconds"]
            .as_f64()
            .filter(|s| *s >= 1.0)
            .ok_or("BENCHMARK.json: 'run_seconds' is not a number of seconds")?;
        Ok(Self {
            run_seconds,
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// The metrics one pass must print: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn expected(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_parses_and_names_the_five_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let bench = Bench::load(&path).unwrap();
        assert_eq!(
            bench.workloads,
            [
                "daemon_bulk",
                "daemon_small",
                "server_inproc",
                "durable_ingest",
                "engine_sim"
            ]
        );
        assert!(bench.run_seconds >= 10.0, "windows never go below 10 s");
        let setup = bench
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(bench
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(bench.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<_> = bench
            .end_to_end
            .iter()
            .chain(&bench.per_layer)
            .map(|m| &m.name)
            .collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }
}

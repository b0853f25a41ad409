//! One pass of one workload as it is printed and stored: held to the
//! contract in `BENCHMARK.json` (the right metric set, the declared
//! units), printed as `workload metric value unit` lines plus the result
//! line, and kept in the results files `compare` reads.

use std::path::Path;

use serde_json::{Map, Value};

use crate::bench::Bench;
use crate::ctx::{Ctx, Outcome};
use crate::stats::median;

/// One metric as stored: the value with its declared unit, the sample
/// count behind a timing, and — where the value is the best of a run's
/// slices — every slice's value, so the noise inside the run stays visible.
#[derive(Debug, Clone, PartialEq)]
pub struct Stored {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: Option<usize>,
    pub slices: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    pub metrics: Vec<Stored>,
}

impl Record {
    /// Lines a pass up against the contract. An untraced pass must have
    /// measured every end-to-end metric; a traced pass prints every
    /// per-layer metric, and one whose layer this workload never calls
    /// reads 0. A reading the contract does not name is a bug here.
    pub fn new(
        bench: &Bench,
        ctx: &Ctx,
        workload: &str,
        traced: bool,
        out: Outcome,
    ) -> Result<Self, String> {
        let expected = bench.expected(traced);
        if let Some(stray) = out
            .readings
            .iter()
            .find(|r| !expected.iter().any(|m| m.name == r.name))
        {
            return Err(format!(
                "{workload}: reading '{}' is not a {} metric of BENCHMARK.json",
                stray.name,
                if traced { "per-layer" } else { "end-to-end" }
            ));
        }
        let metrics = expected
            .iter()
            .map(|m| {
                let reading = out.readings.iter().find(|r| r.name == m.name);
                match reading {
                    Some(r) if r.value.is_finite() => Ok(Stored {
                        name: m.name.clone(),
                        value: r.value,
                        unit: m.unit.clone(),
                        n: r.n,
                        slices: r.slices.clone(),
                    }),
                    Some(r) => Err(format!("{workload}: {} measured {}", m.name, r.value)),
                    None if traced => Ok(Stored {
                        name: m.name.clone(),
                        value: 0.0,
                        unit: m.unit.clone(),
                        n: None,
                        slices: Vec::new(),
                    }),
                    None => Err(format!("{workload}: {} was not measured", m.name)),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workload: workload.to_string(),
            seed: ctx.seed,
            traced,
            seconds: ctx.seconds,
            smoke: ctx.smoke,
            attempted: out.attempted.max(1),
            failed: out.failed,
            gate_failures: out.gate_failures,
            metrics,
        })
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }

    /// `workload metric value unit [n=samples] [median_slice=… slices=…]`,
    /// one line per metric: beside a best-of-slices value stands the
    /// window's median slice. A traced pass lists only the layers this
    /// workload reached (the result line still carries every metric).
    pub fn print_lines(&self) {
        for m in self
            .metrics
            .iter()
            .filter(|m| !self.traced || m.value != 0.0)
        {
            let n = m.n.map(|n| format!(" n={n}")).unwrap_or_default();
            let window = median(&m.slices)
                .map(|mid| format!(" median_slice={mid:?} slices={}", m.slices.len()))
                .unwrap_or_default();
            println!(
                "{} {} {:?} {}{n}{window}",
                self.workload, m.name, m.value, m.unit
            );
        }
        for g in &self.gate_failures {
            println!("{} GATE FAILED: {g}", self.workload);
        }
    }

    /// Metrics as a JSON object: `value` and `unit`, plus the sample count
    /// and per-slice values when `full`.
    fn metrics_json(&self, full: bool) -> Value {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let mut v = Map::new();
            v.insert("value".into(), m.value.into());
            v.insert("unit".into(), m.unit.as_str().into());
            if let (true, Some(n)) = (full, m.n) {
                v.insert("n".into(), n.into());
            }
            if full && !m.slices.is_empty() {
                let slices = m.slices.iter().map(|&x| x.into()).collect();
                v.insert("slices".into(), Value::Array(slices));
            }
            metrics.insert(m.name.clone(), Value::Object(v));
        }
        Value::Object(metrics)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut root = Map::new();
        root.insert("correct".into(), self.correct().into());
        root.insert("attempted".into(), self.attempted.into());
        root.insert("failed".into(), self.failed.into());
        root.insert("metrics".into(), self.metrics_json(false));
        serde_json::to_string(&Value::Object(root)).expect("values serialize")
    }

    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        root.insert("workload".into(), self.workload.as_str().into());
        root.insert("seed".into(), self.seed.into());
        root.insert("trace".into(), self.traced.into());
        root.insert("seconds".into(), self.seconds.into());
        root.insert("smoke".into(), self.smoke.into());
        root.insert("correct".into(), self.correct().into());
        root.insert("attempted".into(), self.attempted.into());
        root.insert("failed".into(), self.failed.into());
        root.insert(
            "gate_failures".into(),
            Value::Array(
                self.gate_failures
                    .iter()
                    .map(|g| g.as_str().into())
                    .collect(),
            ),
        );
        root.insert("metrics".into(), self.metrics_json(true));
        Value::Object(root)
    }

    fn from_json(v: &Value) -> Option<Self> {
        let metrics = v["metrics"]
            .as_object()?
            .iter()
            .map(|(name, m)| {
                Some(Stored {
                    name: name.clone(),
                    value: m["value"].as_f64()?,
                    unit: m["unit"].as_str()?.to_string(),
                    n: m.as_object()?
                        .get("n")
                        .and_then(Value::as_u64)
                        .map(|n| n as usize),
                    slices: match m.as_object()?.get("slices") {
                        Some(xs) => xs
                            .as_array()?
                            .iter()
                            .map(Value::as_f64)
                            .collect::<Option<_>>()?,
                        None => Vec::new(),
                    },
                })
            })
            .collect::<Option<_>>()?;
        Some(Self {
            workload: v["workload"].as_str()?.to_string(),
            seed: v["seed"].as_u64()?,
            traced: v["trace"].as_bool()?,
            seconds: v["seconds"].as_f64()?,
            smoke: v["smoke"].as_bool()?,
            attempted: v["attempted"].as_u64()?,
            failed: v["failed"].as_u64()?,
            gate_failures: v["gate_failures"]
                .as_array()?
                .iter()
                .map(|g| g.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            metrics,
        })
    }
}

/// Reads a results file (`{"runs": [...]}`).
pub fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    root["runs"]
        .as_array()
        .ok_or_else(|| format!("{}: no 'runs' list", path.display()))?
        .iter()
        .map(|r| Record::from_json(r).ok_or_else(|| format!("{}: malformed run", path.display())))
        .collect()
}

/// Writes a results file holding `records`.
pub fn store(path: &Path, records: &[Record]) -> Result<(), String> {
    let mut host = Map::new();
    host.insert(
        "available_parallelism".into(),
        std::thread::available_parallelism()
            .map_or(0, usize::from)
            .into(),
    );
    let mut root = Map::new();
    root.insert("host".into(), Value::Object(host));
    root.insert(
        "runs".into(),
        Value::Array(records.iter().map(Record::to_json).collect()),
    );
    let text = serde_json::to_string_pretty(&Value::Object(root)).expect("values serialize");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{Better, MetricDef};
    use std::path::PathBuf;

    fn def(name: &str, unit: &str, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: unit.into(),
            better: Better::Lower,
            bound,
        }
    }

    fn fixture() -> (Bench, Ctx) {
        let bench = Bench {
            run_seconds: 15.0,
            workloads: vec!["w".into()],
            end_to_end: vec![
                def("setup_s", "s", Some(0.25)),
                def("p50_ms", "ms", Some(0.1)),
            ],
            per_layer: vec![def("a.x_us", "us", None), def("b.y", "count", None)],
        };
        let ctx = Ctx {
            cocad: PathBuf::new(),
            out: PathBuf::new(),
            seed: 9,
            seconds: 1.0,
            smoke: true,
            clk_tck: 100,
        };
        (bench, ctx)
    }

    #[test]
    fn an_untraced_pass_must_measure_every_end_to_end_metric() {
        let (bench, ctx) = fixture();
        let mut out = Outcome::default();
        out.put_n("setup_s", 0.5, 3);
        assert!(Record::new(&bench, &ctx, "w", false, out).is_err());
        let mut out = Outcome::default();
        out.put_n("setup_s", 0.5, 3);
        out.put_best("p50_ms", Better::Lower, vec![1.5, 1.25, 2.0], 40);
        out.attempted = 10;
        let rec = Record::new(&bench, &ctx, "w", false, out).unwrap();
        assert_eq!(
            rec.result_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        // Stored form keeps the sample count and survives a round trip.
        assert_eq!(Record::from_json(&rec.to_json()), Some(rec));
    }

    #[test]
    fn a_traced_pass_prints_zero_for_layers_the_workload_never_calls() {
        let (bench, ctx) = fixture();
        let mut out = Outcome::default();
        out.put("a.x_us", 3.5);
        out.gate(false, || "digest differs".into());
        let rec = Record::new(&bench, &ctx, "w", true, out).unwrap();
        assert_eq!(rec.metrics[1].value, 0.0);
        assert_eq!(rec.metrics[1].unit, "count");
        assert!(!rec.correct());
        assert_eq!(rec.attempted, 1, "attempted is at least 1");
        // An end-to-end name in a traced pass is a bug, not a metric.
        let mut out = Outcome::default();
        out.put("setup_s", 1.0);
        assert!(Record::new(&bench, &ctx, "w", true, out).is_err());
    }
}

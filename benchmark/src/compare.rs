//! `benchmark compare A.json B.json`: is B worse than A by more than the
//! benchmark allows? One row per (workload, end-to-end metric): both
//! medians, the change against the bound from `BENCHMARK.json`, the
//! run-to-run spread, and — not judged — both sides' whole-window figure
//! (the median slice), where a change that slows only some seconds shows.
//! Per-layer metrics of traced runs follow, for reading, with no verdict.

use std::collections::BTreeMap;

use crate::bench::{Bench, Better, MetricDef};
use crate::report::Record;
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the baseline median by more than the bound.
    Regression,
    /// Not a regression, but the runs of a side spread wider than the
    /// bound, so "no change" cannot be claimed either.
    Unresolved,
    /// Spread wider than the bound, yet every run of B beats every run of A.
    Better,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
        }
    }
}

/// One metric judged from both sides' values.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    pub a: f64,
    pub b: f64,
    /// Signed share of A's median by which B is worse (negative = better).
    pub worse_by: f64,
    /// The wider of the two sides' inter-quartile spreads, as a share of
    /// the median; `None` with fewer than two runs on both sides.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub judged: Judged,
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<Judged> {
    let (ma, mb) = (median(a)?, median(b)?);
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = match (iqr_share(a), iqr_share(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match def.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if spread.is_some_and(|s| s > bound) {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else {
        Verdict::Ok
    };
    Some(Judged {
        a: ma,
        b: mb,
        worse_by,
        spread,
        verdict,
    })
}

type Values<'a> = BTreeMap<(&'a str, &'a str), Vec<f64>>;

fn collect(runs: &[Record], traced: bool) -> Values<'_> {
    let mut out: Values = BTreeMap::new();
    for r in runs.iter().filter(|r| r.traced == traced) {
        for m in &r.metrics {
            out.entry((&r.workload, &m.name)).or_default().push(m.value);
        }
    }
    out
}

/// Each untraced run's median slice, for the metrics that have slices.
fn collect_window(runs: &[Record]) -> Values<'_> {
    let mut out: Values = BTreeMap::new();
    for r in runs.iter().filter(|r| !r.traced) {
        for m in &r.metrics {
            if let Some(mid) = median(&m.slices) {
                out.entry((&r.workload, &m.name)).or_default().push(mid);
            }
        }
    }
    out
}

/// Window lengths (and smoke sizing) among the runs: values taken over
/// different windows are different statistics and do not compare.
fn windows<'a>(runs: impl Iterator<Item = &'a Record>) -> Vec<(f64, bool)> {
    let mut out: Vec<(f64, bool)> = runs.map(|r| (r.seconds, r.smoke)).collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("window lengths are never NaN"));
    out.dedup();
    out
}

fn failed_share(runs: &[Record], workload: &str) -> f64 {
    let (failed, attempted) = runs
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0u64, 0u64), |(f, a), r| (f + r.failed, a + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// Every (workload, end-to-end metric) pair both files measured, in the
/// contract's order.
pub fn rows(bench: &Bench, a: &[Record], b: &[Record]) -> Vec<Row> {
    let (va, vb) = (collect(a, false), collect(b, false));
    let mut out = Vec::new();
    for w in &bench.workloads {
        for def in &bench.end_to_end {
            let key = (w.as_str(), def.name.as_str());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                continue;
            };
            if let Some(judged) = judge(def, xa, xb) {
                out.push(Row {
                    workload: w.clone(),
                    metric: def.name.clone(),
                    judged,
                });
            }
        }
    }
    out
}

/// Prints the comparison; `true` means B may not replace A: a regression,
/// a higher failed share, or a run whose outputs were wrong.
pub fn run(bench: &Bench, a: &[Record], b: &[Record]) -> bool {
    let pct = |x: f64| format!("{:+.2}%", x * 100.0);
    let lengths = windows(a.iter().chain(b));
    if lengths.len() > 1 {
        println!(
            "not comparable: the runs were measured over different windows \
             (seconds, smoke): {lengths:?}"
        );
        return true;
    }
    println!(
        "{:<15} {:<22} {:>12} {:>12} {:>9} {:>7} {:>8}  {:<10} {:>12} {:>12}",
        "workload",
        "metric",
        "A median",
        "B median",
        "worse by",
        "bound",
        "spread",
        "verdict",
        "A window",
        "B window"
    );
    let rows = rows(bench, a, b);
    let (wa, wb) = (collect_window(a), collect_window(b));
    for r in &rows {
        let def = bench.end_to_end.iter().find(|m| m.name == r.metric);
        let window = |side: &Values| {
            side.get(&(r.workload.as_str(), r.metric.as_str()))
                .and_then(|xs| median(xs))
                .map_or("-".into(), |x| format!("{x:.4}"))
        };
        println!(
            "{:<15} {:<22} {:>12.4} {:>12.4} {:>9} {:>7} {:>8}  {:<10} {:>12} {:>12}",
            r.workload,
            r.metric,
            r.judged.a,
            r.judged.b,
            pct(r.judged.worse_by),
            def.and_then(|d| d.bound)
                .map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            r.judged
                .spread
                .map_or("-".into(), |s| format!("{:.2}%", s * 100.0)),
            r.judged.verdict.label(),
            window(&wa),
            window(&wb)
        );
    }
    let mut bad = rows.iter().any(|r| r.judged.verdict == Verdict::Regression);
    for w in &bench.workloads {
        let (fa, fb) = (failed_share(a, w), failed_share(b, w));
        if fb > fa {
            println!("{w}: failed share rose from {fa} to {fb}  REGRESSION");
            bad = true;
        }
    }
    for r in a.iter().chain(b).filter(|r| !r.correct()) {
        println!(
            "{} (seed {}): outputs were not correct: {:?}",
            r.workload, r.seed, r.gate_failures
        );
        bad = true;
    }

    let (la, lb) = (collect(a, true), collect(b, true));
    if !la.is_empty() && !lb.is_empty() {
        println!("\nper-layer metrics (traced runs; no bound, no verdict)");
        for w in &bench.workloads {
            for def in &bench.per_layer {
                let key = (w.as_str(), def.name.as_str());
                let (Some(xa), Some(xb)) = (la.get(&key), lb.get(&key)) else {
                    continue;
                };
                let (Some(ma), Some(mb)) = (median(xa), median(xb)) else {
                    continue;
                };
                if ma == 0.0 && mb == 0.0 {
                    continue;
                }
                let change = if ma == 0.0 {
                    f64::NAN
                } else {
                    (mb - ma) / ma.abs()
                };
                println!(
                    "{:<15} {:<40} {:>14.4} {:>14.4} {:>9} {}",
                    w,
                    def.name,
                    ma,
                    mb,
                    pct(change),
                    def.unit
                );
            }
        }
    }
    println!(
        "\n{} pairs compared: {} regression(s), {} unresolved",
        rows.len(),
        rows.iter()
            .filter(|r| r.judged.verdict == Verdict::Regression)
            .count(),
        rows.iter()
            .filter(|r| r.judged.verdict == Verdict::Unresolved)
            .count()
    );
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(bound),
        }
    }

    fn verdict(d: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
        judge(d, a, b).unwrap().verdict
    }

    #[test]
    fn direction_and_bound_decide_a_regression() {
        let lower = def(Better::Lower, 0.10);
        assert_eq!(
            verdict(&lower, &[10.0, 10.1, 9.9], &[10.5, 10.6, 10.4]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&lower, &[10.0, 10.1, 9.9], &[11.5, 11.6, 11.4]),
            Verdict::Regression
        );
        let higher = def(Better::Higher, 0.10);
        assert_eq!(
            verdict(&higher, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&higher, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Ok
        );
        let worse_by = judge(&higher, &[100.0], &[90.0]).unwrap().worse_by;
        assert!((worse_by - 0.10).abs() < 1e-12, "a 10% drop is 10% worse");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let d = def(Better::Lower, 0.05);
        let noisy = [10.0, 12.0, 8.0, 11.0, 9.0];
        assert_eq!(verdict(&d, &noisy, &noisy), Verdict::Unresolved);
        assert_eq!(
            verdict(&d, &noisy, &[5.0, 7.0, 4.0, 6.0, 5.5]),
            Verdict::Better
        );
        // One run on each side: no spread to judge by.
        assert_eq!(verdict(&d, &[10.0], &[10.2]), Verdict::Ok);
    }

    #[test]
    fn runs_over_different_windows_do_not_compare() {
        let run = |seconds: f64, smoke: bool| Record {
            workload: "w".into(),
            seed: 1,
            traced: false,
            seconds,
            smoke,
            attempted: 1,
            failed: 0,
            gate_failures: Vec::new(),
            metrics: Vec::new(),
        };
        let bench = Bench {
            run_seconds: 15.0,
            workloads: vec!["w".into()],
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        let (full, smoke) = (run(15.0, false), run(1.0, true));
        assert_eq!(windows([&full, &full].into_iter()).len(), 1);
        let full = std::slice::from_ref(&full);
        assert!(!super::run(&bench, full, full));
        assert!(super::run(&bench, full, &[smoke]));
    }
}

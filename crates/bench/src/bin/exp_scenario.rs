//! The dynamic-scenario runner: loads a JSON [`ScenarioSpec`] and runs
//! **all six methods** (Edge-Only, LearnedCache, FoggyCache, SMTM,
//! Replacement-LRU, CoCa) over it through the shared harness, reporting
//! overall and windowed (per-interval) metrics. The committed specs under
//! `results/specs/` are the only source of the dynamics worlds: churn,
//! drift and hetero regenerate their records from them.
//!
//! ```sh
//! cargo run --release -p coca-bench --bin exp_scenario -- results/specs/churn.json
//! # or sweep every spec in a directory (parallel, rendered in name order):
//! cargo run --release -p coca-bench --bin exp_scenario -- results/specs
//! ```
//!
//! Passing a **directory** runs every `*.json` spec in it through
//! [`parallel_sweep`] — each spec is an isolated, scenario-seeded job, so
//! the sweep is bit-identical to running the specs one by one — and then
//! renders the per-spec tables sequentially in filename order.
//!
//! Each record is saved as `results/<stem>.json` with record id `<stem>`.
//! See the README's "Dynamic scenarios" section for the JSON format.

use coca_bench::harness::parallel_sweep;
use coca_bench::scenario_exp::{compute_spec_reports, render_spec_experiment};
use coca_core::spec::ScenarioSpec;

/// Loads and parses one spec file, exiting with a diagnostic on failure.
fn load_spec(path: &str) -> ScenarioSpec {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("exp_scenario: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match ScenarioSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("exp_scenario: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn stem_of(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "spec".into())
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: exp_scenario <spec.json | spec-directory>");
            eprintln!("  (the curated specs are committed under results/specs/)");
            std::process::exit(2);
        }
    };

    // Resolve the argument to the spec files it names.
    let files: Vec<String> = if std::path::Path::new(&path).is_dir() {
        let mut found: Vec<String> = match std::fs::read_dir(&path) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .map(|p| p.to_string_lossy().into_owned())
                .collect(),
            Err(e) => {
                eprintln!("exp_scenario: cannot read directory {path}: {e}");
                std::process::exit(1);
            }
        };
        found.sort();
        if found.is_empty() {
            eprintln!("exp_scenario: no *.json specs in {path}");
            std::process::exit(1);
        }
        found
    } else {
        vec![path]
    };

    let jobs: Vec<(String, ScenarioSpec)> =
        files.iter().map(|f| (stem_of(f), load_spec(f))).collect();
    if jobs.len() > 1 {
        println!("sweeping {} specs in parallel...", jobs.len());
    }

    // Compute in parallel (each job is an isolated scenario-seeded run),
    // render sequentially so the per-spec tables never interleave.
    let results = parallel_sweep(jobs, |(stem, spec)| {
        let reports = compute_spec_reports(&spec);
        (stem, spec, reports)
    });
    for (stem, spec, reports) in &results {
        render_spec_experiment(stem, &format!("Dynamic scenario — {stem}"), spec, reports);
    }
}

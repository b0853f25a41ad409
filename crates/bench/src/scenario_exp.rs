//! Dynamic-scenario records: all six methods over one [`ScenarioSpec`],
//! overall and windowed rows. The committed spec under `results/specs/` is
//! the one source of each dynamics world (the `churn`, `drift` and `hetero`
//! entries of [`crate::paper::EXPERIMENTS`]); `exp` also replays any spec
//! file or directory given as a path. [`save_spec`] writes the spec a fill
//! builds in code (the multi-edge flash crowd) so it replays the same way.

use std::path::{Path, PathBuf};

use coca_core::engine::EngineReport;
use coca_core::spec::ScenarioSpec;
use coca_core::CocaConfig;
use coca_metrics::ExperimentRecord;
use serde_json::json;

use crate::harness::{parallel_sweep, run_all_methods_spec};
use crate::output::{results_dir, save_or_exit};

/// The contract every spec record asserts: see [`compute_spec_reports`].
pub const SPEC_EXPECTED: &str = "all six methods consume one frame stream (identical frame digest)";

/// The title of the record a spec named `stem` writes.
pub(crate) fn spec_title(stem: &str) -> String {
    format!("Dynamic scenario — {stem}")
}

/// Writes the spec's canonical JSON to `results/specs/<name>.json` so the
/// record replays from it, and prints the path. A failed write ends the
/// process (see [`crate::output::save_record`]).
pub(crate) fn save_spec(name: &str, spec: &ScenarioSpec) {
    let dir = results_dir().join("specs");
    let path = save_or_exit(&dir, &format!("{name}.json"), &spec.to_json());
    println!("[spec saved to {}]", path.display());
}

/// Loads and parses one spec file.
fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    ScenarioSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The spec files `path` names: itself, or every `*.json` in it (sorted by
/// name) when it is a directory.
fn spec_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let entries = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read directory {}: {e}", path.display()))?;
    let mut found: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    found.sort();
    if found.is_empty() {
        return Err(format!("no *.json specs in {}", path.display()));
    }
    Ok(found)
}

/// Runs all six methods over `spec` (CoCa with its model's defaults) and
/// asserts the cross-method digest invariant.
fn compute_spec_reports(spec: &ScenarioSpec) -> Vec<EngineReport> {
    let reports = run_all_methods_spec(spec, CocaConfig::for_model(spec.scenario.model));
    let digest = reports[0].frame_digest;
    for r in &reports {
        assert_eq!(
            r.frame_digest, digest,
            "{} consumed a different frame stream — fairness violated",
            r.method
        );
    }
    reports
}

/// Fills `record` with the spec, the shared frame digest, one overall row
/// per method and the raw windowed series of each.
fn fill_spec_record(record: &mut ExperimentRecord, spec: &ScenarioSpec, reports: &[EngineReport]) {
    record
        .param("spec", serde_json::to_value(spec).unwrap())
        .param(
            "frame_digest",
            json!(format!("{:016x}", reports[0].frame_digest)),
        );
    for r in reports {
        record.push_row(&[
            ("method", json!(r.method)),
            ("frames", json!(r.frames)),
            ("latency_ms", json!(r.mean_latency_ms)),
            ("accuracy_pct", json!(r.accuracy_pct)),
            ("hit_ratio", json!(r.hit_ratio)),
        ]);
    }
    let window_ms = spec.metrics_window_ms;
    for r in reports {
        for (i, w) in r.windowed.windows().iter().enumerate() {
            record.push_row(&[
                ("method", json!(r.method)),
                ("window", json!(i)),
                ("window_start_ms", json!(i as f64 * window_ms)),
                ("frames", json!(w.frames)),
                ("hit_ratio", json!(w.hit_ratio())),
                ("latency_ms", json!(w.mean_latency_ms())),
                ("accuracy_pct", json!(w.accuracy_pct())),
            ]);
        }
    }
}

/// The fill of the dynamics entries: replays `results/specs/<record.id>.json`.
pub(crate) fn committed_spec(record: &mut ExperimentRecord) {
    let path = results_dir()
        .join("specs")
        .join(format!("{}.json", record.id));
    let spec = load_spec(&path).unwrap_or_else(|err| panic!("{err}"));
    let reports = compute_spec_reports(&spec);
    fill_spec_record(record, &spec, &reports);
}

/// One record per spec file `path` names (a spec, or a directory of them),
/// id `<stem>`. Every spec loads before any runs; the runs fan out over
/// [`parallel_sweep`] (each is an isolated, scenario-seeded job, so the
/// sweep is bit-identical to running the specs one by one) and the records
/// come back in file-name order.
pub fn spec_records(path: &Path) -> Result<Vec<ExperimentRecord>, String> {
    let jobs = spec_files(path)?
        .iter()
        .map(|f| {
            let stem = f.file_stem().unwrap_or_default().to_string_lossy();
            load_spec(f).map(|spec| (stem.into_owned(), spec))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(parallel_sweep(jobs, |(stem, spec)| {
        let reports = compute_spec_reports(&spec);
        let mut record = ExperimentRecord::new(&stem, spec_title(&stem));
        fill_spec_record(&mut record, &spec, &reports);
        record
    }))
}

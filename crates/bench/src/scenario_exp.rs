//! The dynamic-scenario runner behind `exp_scenario`: run all six methods
//! over one [`ScenarioSpec`], print overall + windowed tables and save the
//! experiment record. The committed spec under `results/specs/` is the one
//! source of each dynamics world; [`save_spec`] writes the spec a binary
//! builds in code (`exp_multiedge`'s flash crowd) so it replays the same way.

use coca_core::engine::EngineReport;
use coca_core::spec::{ScenarioEvent, ScenarioSpec};
use coca_core::CocaConfig;
use coca_metrics::table::fmt_f;
use coca_metrics::windowed::WindowStats;
use coca_metrics::{ExperimentRecord, Table};
use serde_json::json;

use crate::harness::run_all_methods_spec;
use crate::output::{results_dir, save_record};

/// Writes the spec's canonical JSON to `results/specs/<name>.json` so the
/// experiment is replayable via `exp_scenario`. Prints the path.
pub fn save_spec(name: &str, spec: &ScenarioSpec) {
    let dir = results_dir().join("specs");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, spec.to_json()) {
        Ok(()) => println!("[spec saved to {}]", path.display()),
        Err(e) => eprintln!("warning: could not save spec: {e}"),
    }
}

/// One-line description of the timeline's composition.
fn timeline_summary(spec: &ScenarioSpec) -> String {
    let (mut joins, mut leaves, mut shifts, mut links, mut speeds, mut migrations) =
        (0, 0, 0, 0, 0, 0);
    for ev in &spec.timeline {
        match ev {
            ScenarioEvent::Join(_) => joins += 1,
            ScenarioEvent::Leave(_) => leaves += 1,
            ScenarioEvent::PopularityShift(_) => shifts += 1,
            ScenarioEvent::LinkChange(_) => links += 1,
            ScenarioEvent::DeviceSpeed(_) => speeds += 1,
            ScenarioEvent::Migrate(_) => migrations += 1,
        }
    }
    let speeds = if speeds > 0 {
        format!(", {speeds} device speeds")
    } else {
        String::new()
    };
    let migrations = if migrations > 0 {
        format!(", {migrations} migrations")
    } else {
        String::new()
    };
    let cells = spec
        .topology
        .as_ref()
        .map(|t| format!(", {} cells", t.num_cells()))
        .unwrap_or_default();
    format!(
        "{} base clients + {joins} joins, {leaves} leaves, {shifts} popularity shifts, \
         {links} link changes{speeds}{migrations}{cells} ({} rounds x {} frames)",
        spec.scenario.num_clients, spec.rounds, spec.frames_per_round
    )
}

/// Merges `windows` into contiguous groups of `stride` buckets (summing
/// counts) so wide runs still print as one table row. Every method's row
/// must use the same stride so columns share a time axis.
fn group_windows(windows: &[WindowStats], stride: usize) -> Vec<WindowStats> {
    windows
        .chunks(stride.max(1))
        .map(|chunk| {
            let mut acc = WindowStats::default();
            for w in chunk {
                acc.frames += w.frames;
                acc.correct += w.correct;
                acc.hits += w.hits;
                acc.latency_sum_ms += w.latency_sum_ms;
            }
            acc
        })
        .collect()
}

/// Runs all six methods over `spec` (CoCa with its model's defaults) and
/// asserts the cross-method digest invariant, printing nothing. Directory
/// sweeps fan these out over `parallel_sweep` and render sequentially so
/// per-spec tables never interleave.
pub fn compute_spec_reports(spec: &ScenarioSpec) -> Vec<EngineReport> {
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

/// Prints the overall comparison and the windowed hit-ratio / latency
/// series of `reports`, and saves an [`ExperimentRecord`] named `name`.
pub fn render_spec_experiment(
    name: &str,
    title: &str,
    spec: &ScenarioSpec,
    reports: &[EngineReport],
) {
    println!("{title}");
    println!("{}", timeline_summary(spec));
    let digest = reports[0].frame_digest;

    let mut record = ExperimentRecord::new(name, title);
    record
        .param("spec", serde_json::to_value(spec).unwrap())
        .param("frame_digest", json!(format!("{digest:016x}")));

    let mut overall = Table::new(
        format!("{name} — overall (all six methods, one shared ScenarioSpec)"),
        &[
            "Method",
            "Frames",
            "Mean lat. (ms)",
            "p95 (ms)",
            "Accuracy (%)",
            "Hit ratio",
        ],
    );
    for r in reports {
        overall.row(&[
            r.method.clone(),
            r.frames.to_string(),
            fmt_f(r.mean_latency_ms, 2),
            fmt_f(r.latency.p95_ms().unwrap_or(0.0), 2),
            fmt_f(r.accuracy_pct, 2),
            fmt_f(r.hit_ratio, 3),
        ]);
        record.push_row(&[
            ("method", json!(r.method)),
            ("frames", json!(r.frames)),
            ("latency_ms", json!(r.mean_latency_ms)),
            ("accuracy_pct", json!(r.accuracy_pct)),
            ("hit_ratio", json!(r.hit_ratio)),
        ]);
    }
    print!("{}", overall.render());

    // Windowed series: one grouped-window table per metric, methods as
    // rows. Grouping keeps long runs readable; the record stores the raw
    // (ungrouped) series.
    const MAX_COLS: usize = 10;
    let window_ms = spec.metrics_window_ms;
    let longest = reports.iter().map(|r| r.windowed.len()).max().unwrap_or(0);
    let stride = longest.div_ceil(MAX_COLS).max(1);
    let cols = longest.div_ceil(stride);
    let span_s = window_ms * stride as f64 / 1000.0;
    let headers: Vec<String> = std::iter::once("Method".to_string())
        .chain((0..cols).map(|i| format!("{:.0}s", i as f64 * span_s)))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut hit_table = Table::new(
        format!("{name} — windowed hit ratio (window start, {span_s:.0} s buckets)"),
        &headers_ref,
    );
    let mut lat_table = Table::new(format!("{name} — windowed mean latency (ms)"), &headers_ref);
    for r in reports {
        let grouped = group_windows(r.windowed.windows(), stride);
        let mut hit_row = vec![r.method.clone()];
        let mut lat_row = vec![r.method.clone()];
        for g in &grouped {
            hit_row.push(if g.frames == 0 {
                "-".into()
            } else {
                fmt_f(g.hit_ratio(), 3)
            });
            lat_row.push(if g.frames == 0 {
                "-".into()
            } else {
                fmt_f(g.mean_latency_ms(), 2)
            });
        }
        hit_row.resize(cols + 1, "-".into());
        lat_row.resize(cols + 1, "-".into());
        hit_table.row(&hit_row);
        lat_table.row(&lat_row);
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
    print!("{}", hit_table.render());
    print!("{}", lat_table.render());
    println!("frame digest {digest:016x} — identical for all six methods.");
    save_record(&record);
}

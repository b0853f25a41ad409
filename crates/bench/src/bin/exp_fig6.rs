//! Fig. 6: impact of the collection thresholds Γ and Δ.
//!
//! ResNet101 on UCF101-100. For each threshold the engine reports the
//! absorption ratio (samples collected / eligible samples) and the
//! accuracy of the absorbed samples, for both collection rules.
//!
//! Threshold grids are rescaled to this reproduction's D-score / margin
//! distributions; the paper's qualitative claim —
//! absorption falls and absorbed-sample accuracy rises with stricter
//! thresholds — is what this experiment checks.

use coca_bench::harness::run_coca;
use coca_bench::output::save_record;
use coca_core::driver::DriveConfig;
use coca_core::engine::ScenarioConfig;
use coca_core::CocaConfig;
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use serde_json::json;

fn main() {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(100));
    sc.seed = 11_008;
    sc.num_clients = 4;
    let run = DriveConfig::new(5, 300);
    let mut record = ExperimentRecord::new("fig6", "collection thresholds Γ and Δ");
    record.param("dataset", "ucf101-100").param("clients", 4);

    let mut out = Table::new(
        "Fig. 6(a) — rule-1 threshold Γ (reinforcement)",
        &["Γ", "Absorption (%)", "Absorbed acc. (%)"],
    );
    for gamma in [0.005f32, 0.010, 0.015, 0.020, 0.030, 0.045, 0.065] {
        let mut coca = CocaConfig::for_model(ModelId::ResNet101);
        coca.gamma_collect = gamma;
        let report = run_coca(&sc, coca, &run);
        let ratio = report.absorb.reinforce_ratio() * 100.0;
        let acc = report.absorb.reinforce_accuracy().map(|a| a * 100.0);
        out.row(&[
            format!("{gamma:.3}"),
            fmt_f(ratio, 2),
            acc.map(|a| fmt_f(a, 2)).unwrap_or_else(|| "-".into()),
        ]);
        record.push_row(&[
            ("rule", json!("reinforce")),
            ("threshold", json!(gamma)),
            ("absorption_pct", json!(ratio)),
            ("absorbed_accuracy_pct", json!(acc)),
        ]);
    }
    print!("{}", out.render());

    let mut out = Table::new(
        "Fig. 6(b) — rule-2 threshold Δ (expansion)",
        &["Δ", "Absorption (%)", "Absorbed acc. (%)"],
    );
    for delta in [0.05f32, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35] {
        let mut coca = CocaConfig::for_model(ModelId::ResNet101);
        coca.delta_collect = delta;
        let report = run_coca(&sc, coca, &run);
        let ratio = report.absorb.expand_ratio() * 100.0;
        let acc = report.absorb.expand_accuracy().map(|a| a * 100.0);
        out.row(&[
            format!("{delta:.2}"),
            fmt_f(ratio, 2),
            acc.map(|a| fmt_f(a, 2)).unwrap_or_else(|| "-".into()),
        ]);
        record.push_row(&[
            ("rule", json!("expand")),
            ("threshold", json!(delta)),
            ("absorption_pct", json!(ratio)),
            ("absorbed_accuracy_pct", json!(acc)),
        ]);
    }
    print!("{}", out.render());
    println!("(paper: absorption ratio falls and absorbed accuracy rises as thresholds grow)");
    save_record(&record);
}

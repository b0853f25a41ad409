//! Fig. 5: impact of the hit threshold Θ.
//!
//! Sweeps Θ for VGG16_BN and ResNet101 on UCF101-100 and reports cache hit
//! ratio, hit accuracy, overall accuracy and mean latency. The paper's Θ
//! grids are used verbatim — the reproduction's D-score scale was
//! calibrated so those operating points are meaningful.

use coca_bench::harness::run_coca;
use coca_bench::output::save_record;
use coca_core::driver::DriveConfig;
use coca_core::engine::ScenarioConfig;
use coca_core::CocaConfig;
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, HitRecorder, Table};
use coca_model::ModelId;
use serde_json::json;

fn sweep(model: ModelId, thetas: &[f32], seed: u64, record: &mut ExperimentRecord) {
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(100));
    sc.seed = seed;
    sc.num_clients = 4;
    let run = DriveConfig::new(5, 300);
    let mut out = Table::new(
        format!("Fig. 5 — {} on UCF101-100: threshold Θ sweep", model.name()),
        &[
            "Θ",
            "Hit ratio (%)",
            "Hit acc. (%)",
            "Total acc. (%)",
            "Lat. (ms)",
        ],
    );
    for &theta in thetas {
        let coca = CocaConfig::for_model(model).with_theta(theta);
        let report = run_coca(&sc, coca, &run);
        let mut hits = HitRecorder::new(0);
        for s in &report.per_client {
            hits.merge(&s.hits);
        }
        let hit_acc = hits.hit_accuracy().map(|a| a * 100.0).unwrap_or(0.0);
        out.row(&[
            format!("{theta:.3}"),
            fmt_f(report.hit_ratio * 100.0, 1),
            fmt_f(hit_acc, 1),
            fmt_f(report.accuracy_pct, 2),
            fmt_f(report.mean_latency_ms, 2),
        ]);
        record.push_row(&[
            ("model", json!(model.name())),
            ("theta", json!(theta)),
            ("hit_ratio_pct", json!(report.hit_ratio * 100.0)),
            ("hit_accuracy_pct", json!(hit_acc)),
            ("accuracy_pct", json!(report.accuracy_pct)),
            ("latency_ms", json!(report.mean_latency_ms)),
        ]);
    }
    print!("{}", out.render());
}

fn main() {
    let mut record = ExperimentRecord::new("fig5", "threshold Θ sweep");
    record.param("dataset", "ucf101-100").param("clients", 4);
    sweep(
        ModelId::Vgg16Bn,
        &[0.027, 0.031, 0.035, 0.039, 0.043],
        11_006,
        &mut record,
    );
    sweep(
        ModelId::ResNet101,
        &[0.008, 0.010, 0.012, 0.014, 0.016],
        11_007,
        &mut record,
    );
    println!("(paper: raising Θ lowers the hit ratio and raises hit/total accuracy and latency)");
    save_record(&record);
}

//! Fig. 10(a): impact of the update cycle F.
//!
//! VGG16_BN on long-tail UCF101-100, F ∈ {150 … 900}. Total frames per
//! client are held constant so rows differ only in update cadence.

use coca_bench::harness::{parallel_sweep, run_coca};
use coca_bench::output::save_record;
use coca_core::driver::DriveConfig;
use coca_core::engine::ScenarioConfig;
use coca_core::CocaConfig;
use coca_data::distribution::long_tail_weights;
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use serde_json::json;

fn main() {
    let model = ModelId::Vgg16Bn;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(100));
    sc.seed = 11_020;
    sc.num_clients = 6;
    sc.global_popularity = long_tail_weights(100, 90.0);

    const TOTAL_FRAMES: usize = 1800;
    let mut out = Table::new(
        "Fig. 10(a) — VGG16_BN: update cycle F vs latency/accuracy",
        &["F", "Lat. (ms)", "Acc. (%)", "Resp. lat. (ms)"],
    );
    let mut record = ExperimentRecord::new("fig10a", "update cycle F sweep");
    record
        .param("model", model.name())
        .param("dataset", "ucf101-100 long-tail");

    // Each F value is an independent scenario run: fan across cores.
    let sweep = parallel_sweep(vec![150usize, 300, 450, 600, 750, 900], |f| {
        let coca = CocaConfig::for_model(model).with_round_frames(f);
        let run = DriveConfig::new((TOTAL_FRAMES / f).max(2), f);
        (f, run_coca(&sc, coca, &run))
    });
    for (f, r) in sweep {
        out.row(&[
            f.to_string(),
            fmt_f(r.mean_latency_ms, 2),
            fmt_f(r.accuracy_pct, 2),
            fmt_f(r.response_latency.mean_ms(), 2),
        ]);
        record.push_row(&[
            ("update_cycle", json!(f)),
            ("latency_ms", json!(r.mean_latency_ms)),
            ("accuracy_pct", json!(r.accuracy_pct)),
            ("response_latency_ms", json!(r.response_latency.mean_ms())),
        ]);
    }
    print!("{}", out.render());
    println!(
        "(paper: latency falls then stabilizes for F ≥ 300; accuracy declines slightly as \
         cache freshness drops)"
    );
    save_record(&record);
}

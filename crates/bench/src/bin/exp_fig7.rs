//! Fig. 7: latency under different non-IID levels.
//!
//! ResNet101 on UCF101-100 and AST on ESC-50, all five methods, non-IID
//! levels p ∈ {0, 1, 2, 10} (p = 1/ε; 0 = IID).

use coca_bench::harness::run_all_methods;
use coca_bench::output::save_record;
use coca_core::driver::DriveConfig;
use coca_core::engine::ScenarioConfig;
use coca_core::CocaConfig;
use coca_data::partition::NonIidLevel;
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use serde_json::json;

fn sweep(model: ModelId, dataset: DatasetSpec, seed: u64, record: &mut ExperimentRecord) {
    let levels = [0.0f64, 1.0, 2.0, 10.0];
    let run = DriveConfig::new(5, 300);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (li, &p) in levels.iter().enumerate() {
        let mut sc = ScenarioConfig::new(model, dataset.clone());
        sc.seed = seed;
        sc.num_clients = 6;
        sc.non_iid = NonIidLevel(p);
        let reports = run_all_methods(&sc, CocaConfig::for_model(model), &run);
        for (mi, r) in reports.iter().enumerate() {
            if li == 0 {
                names.push(r.method.clone());
                rows.push(vec![r.method.clone()]);
            }
            rows[mi].push(fmt_f(r.mean_latency_ms, 2));
            record.push_row(&[
                ("model", json!(model.name())),
                ("dataset", json!(dataset.name)),
                ("non_iid_p", json!(p)),
                ("method", json!(r.method)),
                ("latency_ms", json!(r.mean_latency_ms)),
                ("accuracy_pct", json!(r.accuracy_pct)),
            ]);
        }
    }
    let mut out = Table::new(
        format!(
            "Fig. 7 — {} on {}: latency (ms) vs non-IID level p",
            model.name(),
            dataset.name
        ),
        &["Method", "p=0 (IID)", "p=1", "p=2", "p=10"],
    );
    for row in rows {
        out.row(&row);
    }
    print!("{}", out.render());
}

fn main() {
    let mut record = ExperimentRecord::new("fig7", "latency vs non-IID level");
    record.param("clients", 6);
    sweep(
        ModelId::ResNet101,
        DatasetSpec::ucf101().subset(100),
        11_012,
        &mut record,
    );
    sweep(ModelId::AstBase, DatasetSpec::esc50(), 11_013, &mut record);
    println!(
        "(paper: cache methods speed up as p grows — locality strengthens — and CoCa stays \
         lowest at every level)"
    );
    save_record(&record);
}

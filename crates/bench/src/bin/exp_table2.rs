//! Table II: latency under SLO accuracy-loss constraints.
//!
//! VGG16_BN and ResNet152 on UCF101-100; all five methods under the < 3 %
//! and < 5 % accuracy-loss configurations (the paper's per-SLO Θ values).

use coca_bench::harness::{run_all_methods, standard_run};
use coca_bench::output::save_record;
use coca_core::engine::ScenarioConfig;
use coca_core::CocaConfig;
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use serde_json::json;

fn main() {
    let run = standard_run();
    let mut record = ExperimentRecord::new("table2", "latency under SLO constraints");
    record.param("dataset", "ucf101-100").param("clients", 6);

    for model in [ModelId::Vgg16Bn, ModelId::ResNet152] {
        let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(100));
        sc.seed = 11_010 + model.name().len() as u64;
        sc.num_clients = 6;

        let slo3 = run_all_methods(&sc, CocaConfig::for_model(model), &run);
        let slo5 = run_all_methods(&sc, CocaConfig::for_model_slo5(model), &run);

        let mut out = Table::new(
            format!("Table II — {} on UCF101-100", model.name()),
            &[
                "Method",
                "<3% Lat.(ms)",
                "<3% Acc.(%)",
                "<5% Lat.(ms)",
                "<5% Acc.(%)",
            ],
        );
        for (a, b) in slo3.iter().zip(&slo5) {
            out.row(&[
                a.method.clone(),
                fmt_f(a.mean_latency_ms, 2),
                fmt_f(a.accuracy_pct, 2),
                fmt_f(b.mean_latency_ms, 2),
                fmt_f(b.accuracy_pct, 2),
            ]);
            record.push_row(&[
                ("model", json!(model.name())),
                ("method", json!(a.method)),
                ("slo3_latency_ms", json!(a.mean_latency_ms)),
                ("slo3_accuracy_pct", json!(a.accuracy_pct)),
                ("slo5_latency_ms", json!(b.mean_latency_ms)),
                ("slo5_accuracy_pct", json!(b.accuracy_pct)),
            ]);
        }
        print!("{}", out.render());
        let edge = slo3[0].mean_latency_ms;
        let coca = slo3[4].mean_latency_ms;
        println!(
            "CoCa latency reduction vs Edge-Only (<3% SLO): {:.1}%\n",
            (1.0 - coca / edge) * 100.0
        );
    }
    println!("(paper: CoCa lowest latency in every column; reductions 23.0%—45.2%)");
    save_record(&record);
}

//! Table III: uniform vs. long-tail class distributions.
//!
//! ResNet101 on ImageNet-100: a uniform group and a long-tail group
//! (imbalance ratio ρ = 90, top 20 % of classes ≈ 60 % of samples), all
//! five methods.

use coca_bench::harness::{run_all_methods, standard_run};
use coca_bench::output::save_record;
use coca_core::engine::ScenarioConfig;
use coca_core::CocaConfig;
use coca_data::distribution::{long_tail_weights, uniform_weights};
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use serde_json::json;

fn main() {
    let dataset = DatasetSpec::imagenet100();
    let run = standard_run();
    let model = ModelId::ResNet101;
    let mut record = ExperimentRecord::new("table3", "uniform vs long-tail groups");
    record
        .param("model", model.name())
        .param("dataset", "imagenet-100")
        .param("rho", 90.0);

    let mut run_group = |name: &str, popularity: Vec<f64>, seed: u64| {
        let mut sc = ScenarioConfig::new(model, dataset.clone());
        sc.seed = seed;
        sc.num_clients = 6;
        sc.global_popularity = popularity;
        let reports = run_all_methods(&sc, CocaConfig::for_model(model), &run);
        for r in &reports {
            record.push_row(&[
                ("group", json!(name)),
                ("method", json!(r.method)),
                ("latency_ms", json!(r.mean_latency_ms)),
                ("accuracy_pct", json!(r.accuracy_pct)),
            ]);
        }
        reports
    };

    let uniform = run_group("uniform", uniform_weights(100), 11_014);
    let longtail = run_group("long-tail", long_tail_weights(100, 90.0), 11_014);

    let mut out = Table::new(
        "Table III — ResNet101 / ImageNet-100: uniform vs long-tail",
        &[
            "Method",
            "Unif Lat.(ms)",
            "Unif Acc.(%)",
            "LT Lat.(ms)",
            "LT Acc.(%)",
        ],
    );
    for (u, l) in uniform.iter().zip(&longtail) {
        out.row(&[
            u.method.clone(),
            fmt_f(u.mean_latency_ms, 2),
            fmt_f(u.accuracy_pct, 2),
            fmt_f(l.mean_latency_ms, 2),
            fmt_f(l.accuracy_pct, 2),
        ]);
    }
    print!("{}", out.render());
    let (cu, cl) = (uniform[4].mean_latency_ms, longtail[4].mean_latency_ms);
    println!(
        "CoCa long-tail vs uniform: {:.2}% lower latency (paper: 4.01% lower)\n\
         (paper: CoCa lowest in both groups; semantic methods gain on the long tail)",
        (1.0 - cl / cu) * 100.0
    );
    save_record(&record);
}

//! Fig. 10(b): cache-request response latency vs. number of clients.
//!
//! Four models, client counts 60 → 160. Response latency = request sent →
//! personalized cache installed (link transfers + server FIFO queueing).

use coca_bench::harness::{parallel_sweep, run_coca};
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
    let client_counts = [60usize, 100, 140, 160];
    let run = DriveConfig::new(2, 120);
    let mut record = ExperimentRecord::new("fig10b", "response latency vs client count");

    let mut out = Table::new(
        "Fig. 10(b) — mean cache-response latency (ms) vs #clients",
        &["Model", "60", "100", "140", "160"],
    );
    for model in [
        ModelId::Vgg16Bn,
        ModelId::ResNet50,
        ModelId::ResNet101,
        ModelId::AstBase,
    ] {
        let dataset = if model == ModelId::AstBase {
            DatasetSpec::esc50()
        } else {
            DatasetSpec::ucf101().subset(100)
        };
        let mut row = vec![model.name().to_string()];
        // One run per client count, fanned across cores.
        let sweep = parallel_sweep(client_counts.to_vec(), |n| {
            let mut sc = ScenarioConfig::new(model, dataset.clone());
            sc.seed = 11_022;
            sc.num_clients = n;
            (n, run_coca(&sc, CocaConfig::for_model(model), &run))
        });
        for (n, r) in sweep {
            row.push(fmt_f(r.response_latency.mean_ms(), 2));
            record.push_row(&[
                ("model", json!(model.name())),
                ("clients", json!(n)),
                ("response_latency_ms", json!(r.response_latency.mean_ms())),
                ("p99_ms", json!(r.response_latency.p99_ms())),
            ]);
        }
        out.row(&row);
    }
    print!("{}", out.render());
    println!(
        "(paper: modest growth with client count — e.g. ResNet101 56.70 ms @60 → 60.93 ms \
         @160 — thanks to small exchanged caches)"
    );
    save_record(&record);
}

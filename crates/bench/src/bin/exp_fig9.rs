//! Fig. 9: ablation of CoCa's two components.
//!
//! UCF101-50 across VGG16_BN / ResNet50 / ResNet101 / ResNet152, four
//! arms: Normal (neither), GCU only, DCA only, DCA+GCU.

use coca_bench::harness::{run_coca, standard_run};
use coca_bench::output::save_record;
use coca_core::engine::{Scenario, ScenarioConfig};
use coca_core::CocaConfig;
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use serde_json::json;

fn main() {
    let run = standard_run();
    let arms: [(&str, bool, bool); 4] = [
        ("Normal", false, false),
        ("GCU", false, true),
        ("DCA", true, false),
        ("DCA+GCU", true, true),
    ];
    let mut record = ExperimentRecord::new("fig9", "DCA/GCU ablation");
    record.param("dataset", "ucf101-50").param("clients", 6);

    let mut lat_table = Table::new(
        "Fig. 9(a) — ablation: latency (ms)",
        &["Model", "Normal", "GCU", "DCA", "DCA+GCU"],
    );
    let mut acc_table = Table::new(
        "Fig. 9(b) — ablation: accuracy (%)",
        &["Model", "Normal", "GCU", "DCA", "DCA+GCU"],
    );

    for model in [
        ModelId::Vgg16Bn,
        ModelId::ResNet50,
        ModelId::ResNet101,
        ModelId::ResNet152,
    ] {
        let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(50));
        sc.seed = 11_018;
        sc.num_clients = 6;
        sc.drift_mag = 0.35;
        let mut lat_row = vec![model.name().to_string()];
        let mut acc_row = vec![model.name().to_string()];
        // Budget pressure: DCA's regime is "cannot cache every class at
        // useful layers" (the paper's full-width entries guarantee it; our
        // scaled entries need a tighter budget to reach the same regime).
        let budget = {
            let probe = Scenario::build(sc.clone());
            probe.rt.arch().full_cache_bytes(probe.rt.num_classes()) / 24
        };
        for (name, dca, gcu) in arms {
            let mut coca = CocaConfig::for_model(model).with_budget(budget);
            coca.enable_dca = dca;
            coca.enable_gcu = gcu;
            let r = run_coca(&sc, coca, &run);
            lat_row.push(fmt_f(r.mean_latency_ms, 2));
            acc_row.push(fmt_f(r.accuracy_pct, 2));
            record.push_row(&[
                ("model", json!(model.name())),
                ("arm", json!(name)),
                ("latency_ms", json!(r.mean_latency_ms)),
                ("accuracy_pct", json!(r.accuracy_pct)),
                ("hit_ratio", json!(r.hit_ratio)),
            ]);
        }
        lat_table.row(&lat_row);
        acc_table.row(&acc_row);
    }
    print!("{}", lat_table.render());
    print!("{}", acc_table.render());
    println!(
        "(paper: DCA dominates latency reduction, GCU dominates accuracy retention, \
         DCA+GCU best overall)"
    );
    save_record(&record);
}

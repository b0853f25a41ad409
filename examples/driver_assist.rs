//! Driver assistance: a long-tail workload under a latency SLO.
//!
//! The paper's motivating application: driving scenes are heavily
//! long-tailed (normal traffic dominates; rare events form the tail), and
//! the SLO demands a 30 % latency reduction at < 3 % accuracy loss. The
//! example builds a ρ = 90 long-tail over 100 classes, runs Edge-Only,
//! SMTM and CoCa, and checks the SLO.
//!
//! ```sh
//! cargo run --release --example driver_assist
//! ```

use coca::baselines::{run_edge_only, SmtmDriver};
use coca::core::driver::{drive, DriveConfig};
use coca::prelude::*;

fn main() {
    let mut sc = ScenarioConfig::new(ModelId::ResNet152, DatasetSpec::ucf101().subset(100));
    sc.num_clients = 8;
    sc.seed = 31;
    sc.global_popularity = long_tail_weights(100, 90.0);

    let rounds = 6usize;
    let frames = 300usize;
    let coca_cfg = CocaConfig::for_model(ModelId::ResNet152);

    let scenario = Scenario::build(sc.clone());
    let edge = run_edge_only(&scenario, rounds, frames);

    let scenario = Scenario::build(sc.clone());
    let mut driver = SmtmDriver::new(&scenario, &coca_cfg);
    let smtm = drive(&scenario, &mut driver, &DriveConfig::new(rounds, frames));

    let mut engine_cfg = EngineConfig::new(coca_cfg);
    engine_cfg.rounds = rounds;
    let coca = Engine::new(Scenario::build(sc), engine_cfg).run();

    let mut table = Table::new(
        "Driver assistance — ResNet152, long-tail (rho = 90) UCF101-100, 8 vehicles",
        &[
            "Method",
            "Mean lat. (ms)",
            "Reduction (%)",
            "Accuracy (%)",
            "Acc. loss (pts)",
        ],
    );
    let base_lat = edge.mean_latency_ms;
    let base_acc = edge.accuracy_pct;
    for r in [&edge, &smtm, &coca] {
        let (lat, acc) = (r.mean_latency_ms, r.accuracy_pct);
        table.row(&[
            r.method.clone(),
            format!("{lat:.2}"),
            format!("{:.1}", (1.0 - lat / base_lat) * 100.0),
            format!("{acc:.2}"),
            format!("{:.2}", base_acc - acc),
        ]);
    }
    print!("{}", table.render());

    let reduction = (1.0 - coca.mean_latency_ms / base_lat) * 100.0;
    let loss = base_acc - coca.accuracy_pct;
    println!(
        "\nSLO check (≥30% latency reduction, <3 pts accuracy loss): {}",
        if reduction >= 30.0 && loss < 3.0 {
            "PASS"
        } else {
            "MISS — tune theta / budget for this deployment"
        }
    );
}

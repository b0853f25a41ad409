//! Quickstart: run CoCa on a small multi-camera deployment and compare it
//! against plain Edge-Only inference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use coca::baselines::run_edge_only;
use coca::prelude::*;

fn main() {
    // Scenario: 6 cameras running ResNet101 on a 50-class video task with
    // moderate non-IID drift between camera contexts.
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(50));
    sc.num_clients = 6;
    sc.seed = 7;

    // Reference: every frame pays full model compute.
    let scenario = Scenario::build(sc.clone());
    let edge = run_edge_only(&scenario, 6, 300);

    // CoCa: the paper's configuration with Θ tuned for this deployment's
    // accuracy SLO (see the `exp fig5` sweep — stricter Θ trades a little
    // latency for hit accuracy).
    let coca = CocaConfig::for_model(ModelId::ResNet101).with_theta(0.016);
    let mut engine_cfg = EngineConfig::new(coca);
    engine_cfg.rounds = 6;
    let mut engine = Engine::new(Scenario::build(sc), engine_cfg);
    let report = engine.run();

    let mut table = Table::new(
        "CoCa quickstart — ResNet101 / UCF101-50, 6 clients",
        &[
            "Method",
            "Mean lat. (ms)",
            "p95 lat. (ms)",
            "Accuracy (%)",
            "Hit ratio",
        ],
    );
    table.row(&[
        "Edge-Only".into(),
        format!("{:.2}", edge.mean_latency_ms),
        format!("{:.2}", edge.latency.p95_ms().unwrap_or(0.0)),
        format!("{:.2}", edge.accuracy_pct),
        "-".into(),
    ]);
    table.row(&[
        "CoCa".into(),
        format!("{:.2}", report.mean_latency_ms),
        format!("{:.2}", report.latency.p95_ms().unwrap_or(0.0)),
        format!("{:.2}", report.accuracy_pct),
        format!("{:.3}", report.hit_ratio),
    ]);
    print!("{}", table.render());
    println!(
        "\nCoCa reduced mean inference latency by {:.1}% with {:.2} accuracy points of loss.",
        (1.0 - report.mean_latency_ms / edge.mean_latency_ms) * 100.0,
        edge.accuracy_pct - report.accuracy_pct,
    );
    println!(
        "Cache-request response latency: mean {:.1} ms over {} requests.",
        report.response_latency.mean_ms(),
        report.response_latency.count()
    );
}

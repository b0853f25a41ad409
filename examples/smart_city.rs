//! Smart-city surveillance: strongly non-IID cameras that benefit from
//! collaboration.
//!
//! Ten intersection cameras watch overlapping traffic, but each sees its
//! own mix of classes (non-IID, p = 10) through its own optics (context
//! drift, largely shared across the deployment). The example contrasts
//! CoCa with and without global cache updates — the collaboration is what
//! absorbs the shared drift.
//!
//! ```sh
//! cargo run --release --example smart_city
//! ```

use coca::prelude::*;

fn run(gcu: bool, sc: &ScenarioConfig) -> EngineReport {
    let mut coca = CocaConfig::for_model(ModelId::ResNet101);
    coca.enable_gcu = gcu;
    let mut engine_cfg = EngineConfig::new(coca);
    engine_cfg.rounds = 8;
    Engine::new(Scenario::build(sc.clone()), engine_cfg).run()
}

fn main() {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(100));
    sc.num_clients = 10;
    sc.seed = 2026;
    sc.non_iid = NonIidLevel(10.0); // highly heterogeneous per-camera content
    sc.drift_mag = 0.45; // pronounced context shift vs the pretrained model
    sc.drift_shared_frac = 0.8; // same city, similar conditions

    let solo = run(false, &sc);
    let collab = run(true, &sc);

    let mut table = Table::new(
        "Smart city — 10 non-IID cameras (p = 10), ResNet101 / UCF101-100",
        &[
            "Setting",
            "Mean lat. (ms)",
            "Accuracy (%)",
            "Hit ratio",
            "Hit acc. (%)",
        ],
    );
    for (name, r) in [
        ("No global updates", &solo),
        ("Collaborative (CoCa)", &collab),
    ] {
        let mut hits = coca::metrics::HitRecorder::new(0);
        for s in &r.per_client {
            hits.merge(&s.hits);
        }
        table.row(&[
            name.into(),
            format!("{:.2}", r.mean_latency_ms),
            format!("{:.2}", r.accuracy_pct),
            format!("{:.3}", r.hit_ratio),
            format!(
                "{:.1}",
                hits.hit_accuracy().map(|a| a * 100.0).unwrap_or(0.0)
            ),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nGlobal updates change accuracy by {:+.2} points and hit accuracy by {:+.1} points \
         (direction depends on drift strength and round count — see `exp fig9`).",
        collab.accuracy_pct - solo.accuracy_pct,
        {
            let acc = |r: &EngineReport| {
                let mut h = coca::metrics::HitRecorder::new(0);
                for s in &r.per_client {
                    h.merge(&s.hits);
                }
                h.hit_accuracy().map(|a| a * 100.0).unwrap_or(0.0)
            };
            acc(&collab) - acc(&solo)
        }
    );
}

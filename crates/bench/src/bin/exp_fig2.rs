//! Fig. 2: effect of global updates on cached semantic centers.
//!
//! 10 clients, ResNet101 on UCF101-20, layer 18 of 34. The paper shows a
//! t-SNE scatter; we substitute quantitative cluster metrics plus a 2-D
//! PCA projection: after global updates, cached centers
//! must sit closer to the clients' true (drifted) sample centers.

use coca_bench::output::save_record;
use coca_core::engine::{Engine, EngineConfig, Scenario, ScenarioConfig};
use coca_core::server::seed_global_table;
use coca_core::CocaConfig;
use coca_data::DatasetSpec;
use coca_math::cluster::{center_separation, silhouette_cosine};
use coca_math::pca::Pca;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::{ClientFeatureView, ModelId};
use serde_json::json;

const LAYER: usize = 18;
const CLASSES: usize = 20;
const SAMPLE_CLASSES: usize = 4; // the paper plots four classes

fn main() {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(CLASSES));
    sc.seed = 11_005;
    sc.num_clients = 10;
    sc.drift_mag = 0.45; // pronounced context drift, as in multi-camera sites

    // Initial cache (before global updates).
    let scenario = Scenario::build(sc.clone());
    let before = seed_global_table(&scenario.rt, scenario.seeds());

    // Run CoCa with global updates and take the evolved table.
    let coca = CocaConfig::for_model(ModelId::ResNet101);
    let mut engine_cfg = EngineConfig::new(coca);
    engine_cfg.rounds = 8;
    let mut engine = Engine::new(Scenario::build(sc.clone()), engine_cfg);
    let _ = engine.run();

    // Test samples: equal per-class draws from one client (paper §III.3).
    let scenario = Scenario::build(sc);
    let rt = &scenario.rt;
    let client = scenario.profiles[0].clone();
    let mut view = ClientFeatureView::new();
    let mut samples: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut stream = scenario.stream(0);
    let mut counts = [0usize; CLASSES];
    let per_class = 30usize;
    while counts.iter().take(SAMPLE_CLASSES).any(|&c| c < per_class) {
        let f = stream.next_frame();
        if f.class < SAMPLE_CLASSES && counts[f.class] < per_class {
            counts[f.class] += 1;
            samples.push((f.class, rt.semantic_vector(&f, &client, LAYER, &mut view)));
        }
    }

    let centers = |table: &coca_core::GlobalCacheTable| -> Vec<Vec<f32>> {
        (0..SAMPLE_CLASSES)
            .map(|c| table.get(c, LAYER).expect("seeded entry").to_vec())
            .collect()
    };
    let before_centers = centers(&before);
    let after_centers = centers(engine.server().global());

    let sep_before = center_separation(&samples, &before_centers).expect("defined");
    let sep_after = center_separation(&samples, &after_centers).expect("defined");
    let silhouette = silhouette_cosine(&samples).expect("multi-class");

    let mut out = Table::new(
        "Fig. 2 — cached centers vs client samples (layer 18, 4 classes)",
        &["Setting", "intra cos", "inter cos", "gap"],
    );
    out.row(&[
        "Previous (no global updates)".into(),
        fmt_f(sep_before.intra, 4),
        fmt_f(sep_before.inter, 4),
        fmt_f(sep_before.gap, 4),
    ]);
    out.row(&[
        "After (with global updates)".into(),
        fmt_f(sep_after.intra, 4),
        fmt_f(sep_after.inter, 4),
        fmt_f(sep_after.gap, 4),
    ]);
    print!("{}", out.render());
    println!("sample silhouette (cosine): {silhouette:.3}");
    println!(
        "(paper: after global updates the cached centers align with the class sample centers \
         — here: intra-class cosine rises {:.4} → {:.4})",
        sep_before.intra, sep_after.intra
    );

    // 2-D PCA projection data for plotting (the t-SNE substitute).
    let refs: Vec<&[f32]> = samples.iter().map(|(_, v)| v.as_slice()).collect();
    let pca = Pca::fit(&refs, 2, 40);
    let mut record = ExperimentRecord::new("fig2", "cluster alignment with global updates");
    record
        .param("layer", LAYER)
        .param("classes_plotted", SAMPLE_CLASSES)
        .param("intra_before", sep_before.intra)
        .param("intra_after", sep_after.intra)
        .param("gap_before", sep_before.gap)
        .param("gap_after", sep_after.gap)
        .param("silhouette", silhouette);
    for (class, v) in &samples {
        let p = pca.project(v);
        record.push_row(&[
            ("kind", json!("sample")),
            ("class", json!(class)),
            ("x", json!(p[0])),
            ("y", json!(p[1])),
        ]);
    }
    for (c, (b, a)) in before_centers.iter().zip(&after_centers).enumerate() {
        let pb = pca.project(b);
        let pa = pca.project(a);
        record.push_row(&[
            ("kind", json!("center_before")),
            ("class", json!(c)),
            ("x", json!(pb[0])),
            ("y", json!(pb[1])),
        ]);
        record.push_row(&[
            ("kind", json!("center_after")),
            ("class", json!(c)),
            ("x", json!(pa[0])),
            ("y", json!(pa[1])),
        ]);
    }
    save_record(&record);
}

//! Centroid-quality experiment: re-derive hot-spot centers from collected
//! samples with deterministic spherical k-means (`coca_math::cluster::
//! kmeans_unit`) and compare their class separation against the
//! shared-dataset seeded centers (a Fig. 2-style quantitative check).
//!
//! Setup: samples are drawn from one client's drifted stream at a mid
//! cache layer — exactly the vectors the collection rules would absorb.
//! The seeded global table's centers come from clean shared-dataset
//! samples, so they miss the client's context drift; k-means over the
//! client's own samples recovers drift-aligned centers. We report
//! `center_separation` (mean intra-class vs nearest-other-class cosine)
//! before/after, plus the sample silhouette.
//!
//! Writes `results/centroids.json`.

use coca_bench::output::save_record;
use coca_core::engine::{Scenario, ScenarioConfig};
use coca_core::server::seed_global_table;
use coca_data::DatasetSpec;
use coca_math::cluster::{center_separation, kmeans_unit, silhouette_cosine};
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::{ClientFeatureView, ModelId};
use serde_json::json;

const LAYER: usize = 18;
const CLASSES: usize = 20;
const PER_CLASS: usize = 30;
const KMEANS_ITERS: usize = 60;

fn main() {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(CLASSES));
    sc.seed = 14_001;
    sc.num_clients = 4;
    sc.drift_mag = 0.45; // pronounced context drift, as in multi-camera sites

    let scenario = Scenario::build(sc);
    let rt = &scenario.rt;
    let seeded = seed_global_table(rt, scenario.seeds());

    // Collected samples: per-class draws from client 0's drifted stream.
    let client = scenario.profiles[0].clone();
    let mut view = ClientFeatureView::new();
    let mut stream = scenario.stream(0);
    let mut samples: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut counts = [0usize; CLASSES];
    while counts.iter().any(|&c| c < PER_CLASS) {
        let f = stream.next_frame();
        if counts[f.class] < PER_CLASS {
            counts[f.class] += 1;
            samples.push((f.class, rt.semantic_vector(&f, &client, LAYER, &mut view)));
        }
    }

    // Before: the shared-dataset seeded centers at this layer.
    let seeded_centers: Vec<Vec<f32>> = (0..CLASSES)
        .map(|c| seeded.get(c, LAYER).expect("seeded entry").to_vec())
        .collect();

    // After: spherical k-means over the collected samples, one cluster
    // per class; each cluster is assigned to the majority class of its
    // members (unmatched classes keep their seeded center so the
    // comparison stays per-class complete).
    let vectors: Vec<Vec<f32>> = samples.iter().map(|(_, v)| v.clone()).collect();
    let km = kmeans_unit(&vectors, CLASSES, KMEANS_ITERS);
    let mut votes = vec![vec![0usize; CLASSES]; km.centers.rows()];
    for ((class, _), &cluster) in samples.iter().zip(&km.assignment) {
        votes[cluster][*class] += 1;
    }
    let mut derived = seeded_centers.clone();
    let mut matched = 0usize;
    for (cluster, tally) in votes.iter().enumerate() {
        let (class, &n) = tally
            .iter()
            .enumerate()
            .max_by_key(|&(c, &n)| (n, std::cmp::Reverse(c)))
            .expect("non-empty tally");
        if n > 0 {
            derived[class] = km.centers.row(cluster).to_vec();
            matched += 1;
        }
    }

    let sep_seeded = center_separation(&samples, &seeded_centers).expect("defined");
    let sep_derived = center_separation(&samples, &derived).expect("defined");
    let silhouette = silhouette_cosine(&samples).expect("multi-class");

    let mut out = Table::new(
        "exp_centroids — seeded vs k-means re-derived hot-spot centers (layer 18)",
        &["Centers", "intra cos", "inter cos", "gap"],
    );
    out.row(&[
        "Seeded (shared dataset)".into(),
        fmt_f(sep_seeded.intra, 4),
        fmt_f(sep_seeded.inter, 4),
        fmt_f(sep_seeded.gap, 4),
    ]);
    out.row(&[
        "k-means (collected samples)".into(),
        fmt_f(sep_derived.intra, 4),
        fmt_f(sep_derived.inter, 4),
        fmt_f(sep_derived.gap, 4),
    ]);
    print!("{}", out.render());
    println!(
        "k-means: {} iterations, {matched}/{CLASSES} clusters matched to classes; \
         sample silhouette {silhouette:.3}",
        km.iterations
    );
    println!(
        "(re-derived centers align with the drifted samples: intra-class cosine rises \
         {:.4} -> {:.4} — the collected samples carry the client's context drift the \
         shared-dataset seeds cannot see. The inter column rises too: every drifted \
         sample shares the client's context direction, which k-means centers absorb — \
         the same common-mode shift `exp_paper fig2` shows for GCU-evolved centers.)",
        sep_seeded.intra, sep_derived.intra
    );
    assert!(
        sep_derived.intra > sep_seeded.intra,
        "re-derived centers must align with the drifted samples better \
         ({} vs {})",
        sep_derived.intra,
        sep_seeded.intra
    );

    let mut record = ExperimentRecord::new(
        "centroids",
        "hot-spot center re-derivation via deterministic spherical k-means",
    );
    record
        .param("layer", LAYER)
        .param("classes", CLASSES)
        .param("samples_per_class", PER_CLASS)
        .param("kmeans_iterations", km.iterations)
        .param("clusters_matched", matched)
        .param("silhouette", silhouette);
    for (name, sep) in [("seeded", &sep_seeded), ("kmeans", &sep_derived)] {
        record.push_row(&[
            ("centers", json!(name)),
            ("intra", json!(sep.intra)),
            ("inter", json!(sep.inter)),
            ("gap", json!(sep.gap)),
        ]);
    }
    save_record(&record);
}

//! The registry of every committed record, run by the `exp` binary: the
//! paper's 13 experiments (Figs. 1a/1b, 2, 5–9, 10a/10b; Tables I–III),
//! the systems records ([`crate::systems`]: fleet, daemon, centroids,
//! quant, recovery, multiedge) and the dynamics records replayed from
//! their committed specs ([`crate::scenario_exp`]: churn, drift, hetero).
//!
//! Each [`Experiment`] names the record it writes (`results/<id>.json`),
//! the result it should show, and the function that fills the record's
//! params and rows. `fleet` and `daemon` measure wall-clock time on the
//! host that runs them. Every other experiment is a pure function of the
//! seeds written here (or of its committed spec), so a rerun regenerates
//! its record byte for byte.

use std::path::{Path, PathBuf};

use crate::harness::{parallel_sweep, run_all_methods, run_coca, Method};
use crate::scenario_exp::{committed_spec, SPEC_EXPECTED};
use crate::systems;
use coca_baselines::replacement::{
    fixed_high_benefit_layers, ReplacementDriver, ReplacementPolicy,
};
use coca_core::driver::{drive, DriveConfig};
use coca_core::engine::{Engine, EngineConfig, Scenario, ScenarioConfig};
use coca_core::server::{profile_hit_ratios, seed_global_table};
use coca_core::{infer_with_cache, CocaConfig, GlobalCacheTable, LocalCache, LookupScratch};
use coca_data::distribution::{long_tail_weights, uniform_weights};
use coca_data::partition::NonIidLevel;
use coca_data::DatasetSpec;
use coca_math::cluster::{center_separation, silhouette_cosine};
use coca_math::pca::Pca;
use coca_metrics::{ExperimentRecord, HitRecorder};
use coca_model::{ClientFeatureView, ModelId};
use serde_json::json;

/// One committed record: its id, title, expected result and how to fill it.
pub struct Experiment {
    /// Record id; the experiment writes `results/<id>.json`.
    pub id: &'static str,
    /// The record's title.
    pub title: &'static str,
    /// What the record should show: the paper's result for a paper
    /// experiment, the contract its fill asserts for the others.
    pub expected: &'static str,
    fill: fn(&mut ExperimentRecord),
}

impl Experiment {
    /// Runs the experiment and returns its record.
    pub fn run(&self) -> ExperimentRecord {
        let mut record = ExperimentRecord::new(self.id, self.title);
        (self.fill)(&mut record);
        record
    }
}

/// The 22 records, in the order `exp` runs them. `fleet` comes first: its
/// `peak_rss_mb` is the process's high-water mark, which reads the sweep's
/// own peak only before any other experiment has run.
pub const EXPERIMENTS: [Experiment; 22] = [
    Experiment {
        id: "fleet",
        title: "per-round server merge + allocation wall-clock vs fleet size",
        expected: "per-event engine cost at 100k members within 2x of the 128-member cost, \
                   peak RSS under 4 096 MB",
        fill: systems::fleet,
    },
    Experiment {
        id: "daemon",
        title: "cocad serve path over loopback TCP: closed-loop per-request latency \
                quantiles and throughput; wall-clock rows are host-dependent, digests are \
                deterministic",
        expected: "every op sent is served exactly once, and a sequential pass over the wire \
                   lands the in-process reference digest",
        fill: systems::daemon,
    },
    Experiment {
        id: "fig1a",
        title: "latency/accuracy vs cache size",
        expected: "latency minimum near 10% of the full cache, accuracy stable within 2 points",
        fill: fig1a,
    },
    Experiment {
        id: "fig1b",
        title: "per-layer hit ratio and accuracy",
        expected: "hit mass at shallow AND deep layers, lower hit accuracy at the extremes",
        fill: fig1b,
    },
    Experiment {
        id: "fig2",
        title: "cluster alignment with global updates",
        expected: "after global updates the cached centers align with the class sample centers",
        fill: fig2,
    },
    Experiment {
        id: "fig5",
        title: "threshold Θ sweep",
        expected: "raising Θ lowers the hit ratio and raises hit/total accuracy and latency",
        fill: fig5,
    },
    Experiment {
        id: "fig6",
        title: "collection thresholds Γ and Δ",
        expected: "absorption ratio falls and absorbed accuracy rises as thresholds grow",
        fill: fig6,
    },
    Experiment {
        id: "fig7",
        title: "latency vs non-IID level",
        expected: "cache methods speed up as p grows — locality strengthens — and CoCa stays \
                   lowest at every level",
        fill: fig7,
    },
    Experiment {
        id: "fig8",
        title: "ACA vs LRU/FIFO/RAND",
        expected: "all methods improve with size; ACA clearly lowest beyond ~30 entries",
        fill: fig8,
    },
    Experiment {
        id: "fig9",
        title: "DCA/GCU ablation",
        expected: "DCA dominates latency reduction, GCU dominates accuracy retention, DCA+GCU \
                   best overall",
        fill: fig9,
    },
    Experiment {
        id: "fig10a",
        title: "update cycle F sweep",
        expected: "latency falls then stabilizes for F ≥ 300; accuracy declines slightly as \
                   cache freshness drops",
        fill: fig10a,
    },
    Experiment {
        id: "fig10b",
        title: "response latency vs client count",
        expected: "modest growth with client count — e.g. ResNet101 56.70 ms @60 → 60.93 ms \
                   @160 — thanks to small exchanged caches",
        fill: fig10b,
    },
    Experiment {
        id: "table1",
        title: "hot-spot class sweep",
        expected: "small hot sets crush accuracy, ~50 classes reaches the no-cache accuracy, \
                   latency keeps growing with more classes",
        fill: table1,
    },
    Experiment {
        id: "table2",
        title: "latency under SLO constraints",
        expected: "CoCa lowest latency in every column; reductions 23.0%—45.2%",
        fill: table2,
    },
    Experiment {
        id: "table3",
        title: "uniform vs long-tail groups",
        expected: "CoCa lowest in both groups, 4.01% lower latency on the long tail than \
                   uniform; semantic methods gain on the long tail",
        fill: table3,
    },
    Experiment {
        id: "centroids",
        title: "hot-spot center re-derivation via deterministic spherical k-means",
        expected: "k-means centers over the drifted samples raise the intra-class \
                   cosine above the seeded centers'",
        fill: systems::centroids,
    },
    Experiment {
        id: "quant",
        title: "precision sweep — f32/f16/i8 wire frames and global-table storage",
        expected: "i8 upload frames at least 2x smaller than f32",
        fill: systems::quant,
    },
    Experiment {
        id: "recovery",
        title: "durability — crash-point sweep, standalone recovery, persistence footprint",
        expected: "a crash at every WAL event boundary, under every fault kind, \
                   resumes to the uninterrupted run's digest, records and snapshot bytes; \
                   standalone recovery is snapshot-byte identical",
        fill: systems::recovery,
    },
    Experiment {
        id: "multiedge",
        title: "multi-edge topology — peer-synced server cells, migration, cell failure",
        expected: "peer sync conserves Φ (no echo) in every synced run, and one \
                   cell matches no topology digest for digest",
        fill: systems::multiedge,
    },
    Experiment {
        id: "churn",
        title: "Dynamic scenario — churn",
        expected: SPEC_EXPECTED,
        fill: committed_spec,
    },
    Experiment {
        id: "drift",
        title: "Dynamic scenario — drift",
        expected: SPEC_EXPECTED,
        fill: committed_spec,
    },
    Experiment {
        id: "hetero",
        title: "Dynamic scenario — hetero",
        expected: SPEC_EXPECTED,
        fill: committed_spec,
    },
];

/// What one `exp` argument names.
pub enum Target {
    /// A registry entry.
    Experiment(&'static Experiment),
    /// A spec file or a directory of specs: one record per spec, id
    /// `<stem>`.
    Specs(PathBuf),
}

/// The targets `args` names, in the order given; every registry entry, in
/// registry order, when `args` is empty. A word is an experiment id, else
/// an existing `.json` file or directory is a spec source; anything else
/// is an error that lists the ids.
pub fn select(args: &[String]) -> Result<Vec<Target>, String> {
    if args.is_empty() {
        return Ok(EXPERIMENTS.iter().map(Target::Experiment).collect());
    }
    args.iter()
        .map(|arg| {
            if let Some(e) = EXPERIMENTS.iter().find(|e| e.id == arg) {
                return Ok(Target::Experiment(e));
            }
            let path = Path::new(arg);
            if path.is_dir() || (path.is_file() && path.extension().is_some_and(|x| x == "json")) {
                return Ok(Target::Specs(path.to_path_buf()));
            }
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            Err(format!(
                "`{arg}` is neither an experiment id nor a spec file or directory; ids: {}",
                ids.join(" ")
            ))
        })
        .collect()
}

/// The length of the comparison tables and the ablation (6 rounds × 300
/// frames): enough rounds for the collaborative machinery to reach steady
/// state while keeping sweeps fast.
fn standard_run() -> DriveConfig {
    DriveConfig::new(6, 300)
}

/// A one-client ResNet101 world at `seed` and its seeded global table:
/// the setting of the fixed-cache experiments (Figs. 1a/1b, Table I).
fn one_client_world(dataset: DatasetSpec, seed: u64) -> (Scenario, GlobalCacheTable) {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, dataset);
    sc.seed = seed;
    sc.num_clients = 1;
    let scenario = Scenario::build(sc);
    let table = seed_global_table(&scenario.rt, scenario.seeds());
    (scenario, table)
}

/// What replaying client 0's stream against a fixed cache measured.
struct Replay {
    latency_ms: f64,
    accuracy_pct: f64,
    hits: HitRecorder,
}

/// Replays the first `frames` frames of client 0's stream against `cache`
/// (no updates, no allocation): mean latency, accuracy and per-layer hits.
fn replay(scenario: &Scenario, cache: &LocalCache, frames: usize) -> Replay {
    let rt = &scenario.rt;
    let cfg = CocaConfig::for_model(scenario.config().model);
    let client = &scenario.profiles[0];
    let mut stream = scenario.stream(0);
    let mut view = ClientFeatureView::new();
    let mut scratch = LookupScratch::new();
    let mut hits = HitRecorder::new(rt.num_cache_points());
    let mut lat = 0.0;
    let mut correct = 0u64;
    for _ in 0..frames {
        let f = stream.next_frame();
        let r = infer_with_cache(rt, client, &f, cache, &cfg, &mut view, &mut scratch);
        lat += r.latency.as_millis_f64();
        correct += r.correct as u64;
        match r.hit_point {
            Some(p) => hits.record_hit(p, r.correct),
            None => hits.record_miss(r.correct),
        }
    }
    Replay {
        latency_ms: lat / frames as f64,
        accuracy_pct: correct as f64 / frames as f64 * 100.0,
        hits,
    }
}

/// The `count` preset layers of best hit benefit per byte, from the hit
/// profile of `table` (the fixed layer set of Table I and Fig. 8).
fn high_benefit_layers(scenario: &Scenario, table: &GlobalCacheTable, count: usize) -> Vec<usize> {
    let rt = &scenario.rt;
    let cfg = CocaConfig::for_model(scenario.config().model);
    let profile = profile_hit_ratios(rt, &cfg, table, scenario.seeds());
    let saved: Vec<f64> = (0..rt.num_cache_points())
        .map(|j| rt.saved_if_hit_at(j).as_millis_f64())
        .collect();
    let bytes: Vec<usize> = (0..rt.num_cache_points())
        .map(|j| rt.entry_bytes(j))
        .collect();
    fixed_high_benefit_layers(&profile, &saved, &bytes, count)
}

/// Fig. 1(a): inference latency and accuracy vs. cache size.
///
/// ResNet101 on UCF101-50, all 50 classes cached (to isolate the cache-size
/// effect from entry selection, as in the paper), cache size controlled by
/// activating evenly spaced subsets of the 34 preset layers. 100 % = all
/// layers (≈ the paper's 3.2 MB anchor).
///
/// The accuracy column is constant (72.82 %) by construction, not by
/// measurement: every hit in this replay returns the class the full model
/// (`ModelRuntime::classify`) gives the same frame. Checked frame by frame
/// at every nonzero cache size (3 916 – 4 999 hits of 5 000 frames, 0 hit-right /
/// full-wrong, 0 hit-wrong / full-right) and in Fig. 1(b)'s world (8 000
/// hits, 0 either way). The feature synthesis makes it so: a run's
/// confuser is drawn once (`FeatureUniverse::run_confusion`) and its class
/// lean is layer-independent, so a layer whose scores pass Θ ranks the
/// head's class first, and a hit only shortens a frame the head would
/// classify the same. "Accuracy stable within 2 points" cannot fail here.
fn fig1a(record: &mut ExperimentRecord) {
    let frames = 5000usize;
    let (scenario, table) = one_client_world(DatasetSpec::ucf101().subset(50), 11_001);
    let points = scenario.rt.num_cache_points();
    let all_classes: Vec<usize> = (0..50).collect();
    record
        .param("model", "resnet101")
        .param("dataset", "ucf101-50")
        .param("frames", frames)
        .param("full_cache_bytes", scenario.rt.arch().full_cache_bytes(50));
    for pct in [0usize, 3, 6, 10, 20, 40, 70, 100] {
        let count = (pct * points).div_ceil(100);
        let layers: Vec<usize> = (0..count).map(|i| (i * points) / count).collect();
        let cache = table.extract(&layers, &all_classes);
        let r = replay(&scenario, &cache, frames);
        record.push_row(&[
            ("cache_pct", json!(pct)),
            ("layers", json!(count)),
            ("bytes", json!(cache.total_bytes())),
            ("latency_ms", json!(r.latency_ms)),
            ("accuracy_pct", json!(r.accuracy_pct)),
        ]);
    }
}

/// Fig. 1(b): per-cache-layer hit ratio and hit accuracy.
///
/// ResNet101 on UCF101-50, all 34 preset layers active, all 50 classes
/// cached (shared-dataset-seeded entries).
fn fig1b(record: &mut ExperimentRecord) {
    let frames = 8000usize;
    let (scenario, table) = one_client_world(DatasetSpec::ucf101().subset(50), 11_002);
    let layers: Vec<usize> = (0..scenario.rt.num_cache_points()).collect();
    let classes: Vec<usize> = (0..50).collect();
    let hits = replay(&scenario, &table.extract(&layers, &classes), frames).hits;
    record
        .param("model", "resnet101")
        .param("dataset", "ucf101-50")
        .param("frames", frames);
    for j in layers {
        record.push_row(&[
            ("layer", json!(j)),
            ("hit_ratio_pct", json!(hits.layer_hit_ratio(j) * 100.0)),
            (
                "hit_accuracy_pct",
                json!(hits.layer_hit_accuracy(j).map(|a| a * 100.0)),
            ),
        ]);
    }
}

/// Fig. 2: effect of global updates on cached semantic centers.
///
/// 10 clients, ResNet101 on UCF101-20, layer 18 of 34. The paper shows a
/// t-SNE scatter; the record holds quantitative cluster metrics (params)
/// plus a 2-D PCA projection (rows): after global updates, cached centers
/// must sit closer to the clients' true (drifted) sample centers.
fn fig2(record: &mut ExperimentRecord) {
    const LAYER: usize = 18;
    const CLASSES: usize = 20;
    const SAMPLE_CLASSES: usize = 4; // the paper plots four classes
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(CLASSES));
    sc.seed = 11_005;
    sc.num_clients = 10;
    sc.drift_mag = 0.45; // pronounced context drift, as in multi-camera sites

    // Initial cache (before global updates).
    let scenario = Scenario::build(sc.clone());
    let before = seed_global_table(&scenario.rt, scenario.seeds());

    // Run CoCa with global updates and take the evolved table.
    let mut engine_cfg = EngineConfig::new(CocaConfig::for_model(ModelId::ResNet101));
    engine_cfg.rounds = 8;
    let mut engine = Engine::new(Scenario::build(sc), engine_cfg);
    let _ = engine.run();

    // Test samples: equal per-class draws from one client (paper §III.3).
    let rt = &scenario.rt;
    let client = &scenario.profiles[0];
    let mut view = ClientFeatureView::new();
    let mut samples: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut stream = scenario.stream(0);
    let mut counts = [0usize; CLASSES];
    let per_class = 30usize;
    while counts.iter().take(SAMPLE_CLASSES).any(|&c| c < per_class) {
        let f = stream.next_frame();
        if f.class < SAMPLE_CLASSES && counts[f.class] < per_class {
            counts[f.class] += 1;
            samples.push((f.class, rt.semantic_vector(&f, client, LAYER, &mut view)));
        }
    }

    let centers = |table: &GlobalCacheTable| -> Vec<Vec<f32>> {
        (0..SAMPLE_CLASSES)
            .map(|c| table.get(c, LAYER).expect("seeded entry").to_vec())
            .collect()
    };
    let before_centers = centers(&before);
    let after_centers = centers(engine.server().global());
    let sep_before = center_separation(&samples, &before_centers).expect("defined");
    let sep_after = center_separation(&samples, &after_centers).expect("defined");
    let silhouette = silhouette_cosine(&samples).expect("multi-class");

    // 2-D PCA projection data for plotting (the t-SNE substitute).
    let refs: Vec<&[f32]> = samples.iter().map(|(_, v)| v.as_slice()).collect();
    let pca = Pca::fit(&refs, 2, 40);
    record
        .param("layer", LAYER)
        .param("classes_plotted", SAMPLE_CLASSES)
        .param("intra_before", sep_before.intra)
        .param("intra_after", sep_after.intra)
        .param("gap_before", sep_before.gap)
        .param("gap_after", sep_after.gap)
        .param("silhouette", silhouette);
    let mut point = |kind: &str, class: usize, v: &[f32]| {
        let p = pca.project(v);
        record.push_row(&[
            ("kind", json!(kind)),
            ("class", json!(class)),
            ("x", json!(p[0])),
            ("y", json!(p[1])),
        ]);
    };
    for (class, v) in &samples {
        point("sample", *class, v);
    }
    for (c, (b, a)) in before_centers.iter().zip(&after_centers).enumerate() {
        point("center_before", c, b);
        point("center_after", c, a);
    }
}

/// Fig. 5: impact of the hit threshold Θ.
///
/// Sweeps Θ for VGG16_BN and ResNet101 on UCF101-100 and reports cache hit
/// ratio, hit accuracy, overall accuracy and mean latency. The paper's Θ
/// grids are used verbatim — the reproduction's D-score scale was
/// calibrated so those operating points are meaningful.
fn fig5(record: &mut ExperimentRecord) {
    record.param("dataset", "ucf101-100").param("clients", 4);
    let vgg = [0.027, 0.031, 0.035, 0.039, 0.043];
    let resnet = [0.008, 0.010, 0.012, 0.014, 0.016];
    for (model, thetas, seed) in [
        (ModelId::Vgg16Bn, vgg, 11_006),
        (ModelId::ResNet101, resnet, 11_007),
    ] {
        let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(100));
        sc.seed = seed;
        sc.num_clients = 4;
        let run = DriveConfig::new(5, 300);
        for theta in thetas {
            let coca = CocaConfig::for_model(model).with_theta(theta);
            let report = run_coca(&sc, coca, &run);
            let mut hits = HitRecorder::new(0);
            for s in &report.per_client {
                hits.merge(&s.hits);
            }
            let hit_acc = hits.hit_accuracy().map(|a| a * 100.0).unwrap_or(0.0);
            record.push_row(&[
                ("model", json!(model.name())),
                ("theta", json!(theta)),
                ("hit_ratio_pct", json!(report.hit_ratio * 100.0)),
                ("hit_accuracy_pct", json!(hit_acc)),
                ("accuracy_pct", json!(report.accuracy_pct)),
                ("latency_ms", json!(report.mean_latency_ms)),
            ]);
        }
    }
}

/// Fig. 6: impact of the collection thresholds Γ and Δ.
///
/// ResNet101 on UCF101-100. For each threshold the engine reports the
/// absorption ratio (samples collected / eligible samples) and the
/// accuracy of the absorbed samples, for both collection rules.
///
/// Threshold grids are rescaled to this reproduction's D-score / margin
/// distributions; the paper's qualitative claim —
/// absorption falls and absorbed-sample accuracy rises with stricter
/// thresholds — is what this experiment checks.
fn fig6(record: &mut ExperimentRecord) {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(100));
    sc.seed = 11_008;
    sc.num_clients = 4;
    let run = DriveConfig::new(5, 300);
    record.param("dataset", "ucf101-100").param("clients", 4);
    for gamma in [0.005f32, 0.010, 0.015, 0.020, 0.030, 0.045, 0.065] {
        let mut coca = CocaConfig::for_model(ModelId::ResNet101);
        coca.gamma_collect = gamma;
        let report = run_coca(&sc, coca, &run);
        let ratio = report.absorb.reinforce_ratio() * 100.0;
        let acc = report.absorb.reinforce_accuracy().map(|a| a * 100.0);
        record.push_row(&[
            ("rule", json!("reinforce")),
            ("threshold", json!(gamma)),
            ("absorption_pct", json!(ratio)),
            ("absorbed_accuracy_pct", json!(acc)),
        ]);
    }
    for delta in [0.05f32, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35] {
        let mut coca = CocaConfig::for_model(ModelId::ResNet101);
        coca.delta_collect = delta;
        let report = run_coca(&sc, coca, &run);
        let ratio = report.absorb.expand_ratio() * 100.0;
        let acc = report.absorb.expand_accuracy().map(|a| a * 100.0);
        record.push_row(&[
            ("rule", json!("expand")),
            ("threshold", json!(delta)),
            ("absorption_pct", json!(ratio)),
            ("absorbed_accuracy_pct", json!(acc)),
        ]);
    }
}

/// Fig. 7: latency under different non-IID levels.
///
/// ResNet101 on UCF101-100 and AST on ESC-50, all five methods, non-IID
/// levels p ∈ {0, 1, 2, 10} (p = 1/ε; 0 = IID).
fn fig7(record: &mut ExperimentRecord) {
    record.param("clients", 6);
    let sweeps = [
        (
            ModelId::ResNet101,
            DatasetSpec::ucf101().subset(100),
            11_012,
        ),
        (ModelId::AstBase, DatasetSpec::esc50(), 11_013),
    ];
    let run = DriveConfig::new(5, 300);
    for (model, dataset, seed) in sweeps {
        for p in [0.0f64, 1.0, 2.0, 10.0] {
            let mut sc = ScenarioConfig::new(model, dataset.clone());
            sc.seed = seed;
            sc.num_clients = 6;
            sc.non_iid = NonIidLevel(p);
            let reports = run_all_methods(&sc, CocaConfig::for_model(model), &run, &Method::PAPER);
            for r in &reports {
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
    }
}

/// Fig. 8: ACA vs classical cache-replacement policies.
///
/// Long-tail (ρ = 90) UCF101-100 on ResNet101. LRU/FIFO/RAND manage class
/// entries on a fixed set of four high-benefit layers with `cache_size`
/// entries per layer; ACA runs with the same total memory budget. An
/// ACA-without-deflation series covers the `CocaConfig::aca_deflation`
/// ablation. The paper compares under a 3 % accuracy-loss constraint: a
/// replacement baseline below the Edge-Only accuracy band violates it
/// (fast wrong exits), ACA holds it.
fn fig8(record: &mut ExperimentRecord) {
    const NUM_LAYERS: usize = 4;
    /// One series of the figure.
    #[derive(Clone, Copy)]
    enum Arm {
        Replace(ReplacementPolicy),
        Aca { deflation: bool },
    }
    const ARMS: [Arm; 5] = [
        Arm::Replace(ReplacementPolicy::Fifo),
        Arm::Replace(ReplacementPolicy::Lru),
        Arm::Replace(ReplacementPolicy::Rand),
        Arm::Aca { deflation: true },
        Arm::Aca { deflation: false },
    ];
    let model = ModelId::ResNet101;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(100));
    sc.seed = 11_016;
    sc.num_clients = 4;
    sc.global_popularity = long_tail_weights(100, 90.0);
    let run = DriveConfig::new(5, 300);

    // The fixed layer set (for byte-budget parity with ACA).
    let probe = Scenario::build(sc.clone());
    let table = seed_global_table(&probe.rt, probe.seeds());
    let layers = high_benefit_layers(&probe, &table, NUM_LAYERS);
    let bytes_per_entry_set: usize = layers.iter().map(|&j| probe.rt.entry_bytes(j)).sum();
    record
        .param("model", model.name())
        .param("dataset", "ucf101-100 long-tail rho=90")
        .param("fixed_layers", json!(layers));

    // The full (size × arm) grid fans across cores; every job rebuilds its
    // scenario deterministically, so the sweep is order-stable.
    let jobs: Vec<(Arm, usize)> = [10usize, 30, 50, 70, 90]
        .iter()
        .flat_map(|&size| ARMS.map(|arm| (arm, size)))
        .collect();
    let results = parallel_sweep(jobs, |(arm, size)| match arm {
        Arm::Replace(policy) => {
            let s = Scenario::build(sc.clone());
            let mut driver = ReplacementDriver::new(&s, policy, size, NUM_LAYERS);
            (size, drive(&s, &mut driver, &run), None)
        }
        Arm::Aca { deflation } => {
            // ACA with the same total memory; the two arms relabel the
            // engine's "CoCa" row.
            let budget = bytes_per_entry_set * size;
            let mut coca = CocaConfig::for_model(model).with_budget(budget);
            coca.aca_deflation = deflation;
            let mut r = run_coca(&sc, coca, &run);
            r.method = if deflation { "ACA" } else { "ACA-no-deflation" }.into();
            (size, r, Some(budget))
        }
    });
    for (size, r, budget) in results {
        let mut cells = vec![
            ("method", json!(r.method)),
            ("cache_size", json!(size)),
            ("latency_ms", json!(r.mean_latency_ms)),
            ("accuracy_pct", json!(r.accuracy_pct)),
        ];
        // The memory-parity datum of the ACA arms: the byte budget
        // equivalent to `size` entries on the fixed layer set.
        if let Some(budget) = budget {
            cells.push(("budget_bytes", json!(budget)));
        }
        record.push_row(&cells);
    }
}

/// Fig. 9: ablation of CoCa's two components.
///
/// UCF101-50 across VGG16_BN / ResNet50 / ResNet101 / ResNet152, four
/// arms: Normal (neither), GCU only, DCA only, DCA+GCU.
fn fig9(record: &mut ExperimentRecord) {
    let arms: [(&str, bool, bool); 4] = [
        ("Normal", false, false),
        ("GCU", false, true),
        ("DCA", true, false),
        ("DCA+GCU", true, true),
    ];
    record.param("dataset", "ucf101-50").param("clients", 6);
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
            let r = run_coca(&sc, coca, &standard_run());
            record.push_row(&[
                ("model", json!(model.name())),
                ("arm", json!(name)),
                ("latency_ms", json!(r.mean_latency_ms)),
                ("accuracy_pct", json!(r.accuracy_pct)),
                ("hit_ratio", json!(r.hit_ratio)),
            ]);
        }
    }
}

/// Fig. 10(a): impact of the update cycle F.
///
/// VGG16_BN on long-tail UCF101-100, F ∈ {150 … 900}. Total frames per
/// client are held constant so rows differ only in update cadence.
fn fig10a(record: &mut ExperimentRecord) {
    const TOTAL_FRAMES: usize = 1800;
    let model = ModelId::Vgg16Bn;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(100));
    sc.seed = 11_020;
    sc.num_clients = 6;
    sc.global_popularity = long_tail_weights(100, 90.0);
    record
        .param("model", model.name())
        .param("dataset", "ucf101-100 long-tail");

    // Each F value is an independent scenario run: fan across cores.
    let sweep = parallel_sweep(vec![150usize, 300, 450, 600, 750, 900], |f| {
        let coca = CocaConfig::for_model(model).with_round_frames(f);
        let run = DriveConfig::new((TOTAL_FRAMES / f).max(2), f);
        (f, run_coca(&sc, coca, &run))
    });
    for (f, r) in sweep {
        record.push_row(&[
            ("update_cycle", json!(f)),
            ("latency_ms", json!(r.mean_latency_ms)),
            ("accuracy_pct", json!(r.accuracy_pct)),
            ("response_latency_ms", json!(r.response_latency.mean_ms())),
        ]);
    }
}

/// Fig. 10(b): cache-request response latency vs. number of clients.
///
/// Four models, client counts 60 → 160. Response latency = request sent →
/// personalized cache installed (link transfers + server FIFO queueing).
fn fig10b(record: &mut ExperimentRecord) {
    let run = DriveConfig::new(2, 120);
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
        // One run per client count, fanned across cores.
        let sweep = parallel_sweep(vec![60usize, 100, 140, 160], |n| {
            let mut sc = ScenarioConfig::new(model, dataset.clone());
            sc.seed = 11_022;
            sc.num_clients = n;
            (n, run_coca(&sc, CocaConfig::for_model(model), &run))
        });
        for (n, r) in sweep {
            record.push_row(&[
                ("model", json!(model.name())),
                ("clients", json!(n)),
                ("response_latency_ms", json!(r.response_latency.mean_ms())),
                ("p99_ms", json!(r.response_latency.p99_ms())),
            ]);
        }
    }
}

/// Table I: latency and accuracy vs. number of hot-spot classes.
///
/// ResNet101 on 100-class subsets of UCF101 and ImageNet-100, a fixed
/// high-benefit layer set, and the hot-spot class count swept over the
/// paper's grid {0, 10, 30, 50, 70, 90} (0 = no cache). Hot classes are
/// the most popular ones under the stream's class distribution.
fn table1(record: &mut ExperimentRecord) {
    const HOT: [usize; 6] = [0, 10, 30, 50, 70, 90];
    let sweep = |dataset: DatasetSpec, seed: u64| -> Vec<Replay> {
        let (scenario, table) = one_client_world(dataset, seed);
        let layers = high_benefit_layers(&scenario, &table, 5);
        HOT.iter()
            .map(|&k| {
                let classes: Vec<usize> = (0..k.min(scenario.rt.num_classes())).collect();
                replay(&scenario, &table.extract(&layers, &classes), 4000)
            })
            .collect()
    };
    let ucf = sweep(DatasetSpec::ucf101().subset(100), 11_003);
    let imagenet = sweep(DatasetSpec::imagenet100(), 11_004);
    record.param("model", "resnet101");
    for ((k, u), i) in HOT.iter().zip(&ucf).zip(&imagenet) {
        record.push_row(&[
            ("hot_classes", json!(k)),
            ("ucf_latency_ms", json!(u.latency_ms)),
            ("ucf_accuracy_pct", json!(u.accuracy_pct)),
            ("imagenet_latency_ms", json!(i.latency_ms)),
            ("imagenet_accuracy_pct", json!(i.accuracy_pct)),
        ]);
    }
}

/// Table II: latency under SLO accuracy-loss constraints.
///
/// VGG16_BN and ResNet152 on UCF101-100; all five methods under the < 3 %
/// and < 5 % accuracy-loss configurations (the paper's per-SLO Θ values).
/// Edge-Only and FoggyCache read no Θ, so their < 3 % runs are their < 5 %
/// runs: only the tuned methods run twice.
fn table2(record: &mut ExperimentRecord) {
    const TUNED: [Method; 3] = [Method::LearnedCache, Method::Smtm, Method::Coca];
    let run = standard_run();
    record.param("dataset", "ucf101-100").param("clients", 6);
    for model in [ModelId::Vgg16Bn, ModelId::ResNet152] {
        let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(100));
        sc.seed = 11_010 + model.name().len() as u64;
        sc.num_clients = 6;
        let slo3 = run_all_methods(&sc, CocaConfig::for_model(model), &run, &Method::PAPER);
        let slo5 = run_all_methods(&sc, CocaConfig::for_model_slo5(model), &run, &TUNED);
        let mut tuned = slo5.iter();
        for (method, a) in Method::PAPER.iter().zip(&slo3) {
            let b = if TUNED.contains(method) {
                tuned.next().expect("one <5% report per tuned method")
            } else {
                a
            };
            record.push_row(&[
                ("model", json!(model.name())),
                ("method", json!(a.method)),
                ("slo3_latency_ms", json!(a.mean_latency_ms)),
                ("slo3_accuracy_pct", json!(a.accuracy_pct)),
                ("slo5_latency_ms", json!(b.mean_latency_ms)),
                ("slo5_accuracy_pct", json!(b.accuracy_pct)),
            ]);
        }
    }
}

/// Table III: uniform vs. long-tail class distributions.
///
/// ResNet101 on ImageNet-100: a uniform group and a long-tail group
/// (imbalance ratio ρ = 90, top 20 % of classes ≈ 60 % of samples), all
/// five methods.
fn table3(record: &mut ExperimentRecord) {
    let model = ModelId::ResNet101;
    record
        .param("model", model.name())
        .param("dataset", "imagenet-100")
        .param("rho", 90.0);
    let groups = [
        ("uniform", uniform_weights(100)),
        ("long-tail", long_tail_weights(100, 90.0)),
    ];
    for (group, popularity) in groups {
        let mut sc = ScenarioConfig::new(model, DatasetSpec::imagenet100());
        sc.seed = 11_014;
        sc.num_clients = 6;
        sc.global_popularity = popularity;
        let reports = run_all_methods(
            &sc,
            CocaConfig::for_model(model),
            &standard_run(),
            &Method::PAPER,
        );
        for r in &reports {
            record.push_row(&[
                ("group", json!(group)),
                ("method", json!(r.method)),
                ("latency_ms", json!(r.mean_latency_ms)),
                ("accuracy_pct", json!(r.accuracy_pct)),
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::results_dir;
    use crate::scenario_exp::spec_title;
    use std::collections::HashSet;

    fn ids(targets: &[Target]) -> Vec<&str> {
        targets
            .iter()
            .map(|t| match t {
                Target::Experiment(e) => e.id,
                Target::Specs(path) => path.to_str().unwrap(),
            })
            .collect()
    }

    #[test]
    fn ids_are_unique_and_each_names_its_committed_record() {
        let ids: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        for e in &EXPERIMENTS {
            let path = results_dir().join(format!("{}.json", e.id));
            let record: ExperimentRecord = std::fs::read_to_string(&path)
                .map_err(|err| err.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|err| err.to_string()))
                .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            assert_eq!(record.id, e.id, "{}", path.display());
            assert_eq!(record.title, e.title, "{}", path.display());
            // A dynamics entry and the path form of its spec write one record.
            if e.expected == SPEC_EXPECTED {
                assert_eq!(e.title, spec_title(e.id));
            }
        }
    }

    /// Every record under `results/` is a registry id or the output of a
    /// spec under `results/specs/` (`exp results/specs` writes
    /// `results/<stem>.json` for each); an orphan fails.
    #[test]
    fn every_committed_paper_record_has_a_producer() {
        let specs = results_dir().join("specs");
        let mut orphans = Vec::new();
        for entry in std::fs::read_dir(results_dir()).expect("results/ exists") {
            let name = entry.expect("readable entry").file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            if !EXPERIMENTS.iter().any(|e| e.id == stem) && !specs.join(&*name).is_file() {
                orphans.push(name.into_owned());
            }
        }
        assert!(
            orphans.is_empty(),
            "records without a producer: {orphans:?}"
        );
    }

    #[test]
    fn select_keeps_order_and_rejects_unknown_ids() {
        let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids(&select(&[]).unwrap()), registry);
        // The fleet sweep reads the process's peak RSS, so it runs first.
        assert_eq!(registry[..2], ["fleet", "daemon"]);

        let specs = results_dir().join("specs");
        let churn_spec = specs.join("churn.json");
        let args = [
            "table2".to_string(),
            "daemon".to_string(),
            churn_spec.to_str().unwrap().to_string(),
            "churn".to_string(),
            specs.to_str().unwrap().to_string(),
            "fleet".to_string(),
            "fig9".to_string(),
        ];
        let picked = select(&args).unwrap();
        assert_eq!(
            ids(&picked),
            args.iter().map(String::as_str).collect::<Vec<_>>()
        );
        assert!(matches!(picked[2], Target::Specs(_)));
        assert!(matches!(picked[3], Target::Experiment(_)));
        assert!(matches!(picked[4], Target::Specs(_)));

        // A flag, an unknown id, a missing spec, a file that is not JSON.
        for word in [
            "--seed-offset".to_string(),
            "nope".to_string(),
            specs.join("nope.json").to_str().unwrap().to_string(),
            results_dir()
                .join("README.md")
                .to_str()
                .unwrap()
                .to_string(),
        ] {
            let bad = ["fig9".to_string(), word.clone()];
            let err = select(&bad).err().expect("an unknown word is an error");
            assert!(err.contains(&word), "{err}");
            for id in &registry {
                assert!(err.contains(id), "{err} does not name {id}");
            }
        }
    }
}

//! Calibration probe: prints the raw signals the feature geometry is tuned
//! against (full-model accuracy per model, margin distributions, per-layer
//! hit/accuracy curves, engine end-to-end numbers) so the constants in
//! `coca-model` can be validated against the paper's anchors.
//!
//! Not an experiment reproduction — a diagnostic. The calibrated outcomes
//! are the committed records mapped in `results/README.md`.

use coca_core::engine::{Engine, EngineConfig, Scenario, ScenarioConfig};
use coca_core::{infer_with_cache, CocaConfig, LookupScratch};
use coca_data::DatasetSpec;
use coca_model::{ClientFeatureView, ClientProfile, ModelId, ModelRuntime};
use coca_sim::SeedTree;

fn model_accuracy(id: ModelId, classes: usize, drift: f32) -> (f64, f64, f64) {
    let dataset = DatasetSpec::ucf101().subset(classes);
    let seeds = SeedTree::new(1001);
    let rt = ModelRuntime::new(id, &dataset, &seeds);
    let client = ClientProfile::new(0, drift, 0.7, &seeds);
    let mut view = ClientFeatureView::new();
    let mut stream = Scenario::build({
        let mut c = ScenarioConfig::new(id, dataset.clone());
        c.seed = 1001;
        c
    });
    let mut gen = stream.stream(0);
    let _ = &mut stream;
    let mut correct = 0u64;
    let mut margins_correct = Vec::new();
    let mut margins_wrong = Vec::new();
    let n = 4000;
    for _ in 0..n {
        let f = gen.next_frame();
        let p = rt.classify(&f, &client, &mut view);
        if p.correct {
            correct += 1;
            margins_correct.push(p.margin as f64);
        } else {
            margins_wrong.push(p.margin as f64);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (
        correct as f64 / n as f64 * 100.0,
        mean(&margins_correct),
        mean(&margins_wrong),
    )
}

fn per_layer_curves() {
    let dataset = DatasetSpec::ucf101().subset(50);
    let seeds = SeedTree::new(1002);
    let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
    let client = ClientProfile::new(0, 0.0, 0.7, &seeds);
    let cfg = CocaConfig::for_model(ModelId::ResNet101);
    let mut view = ClientFeatureView::new();
    let mut scratch = LookupScratch::new();
    // All layers active, all classes cached with shared-dataset-seeded
    // entries (the configuration a real deployment starts from).
    let server = coca_core::CocaServer::new(&rt, cfg, &seeds);
    let cache = server.full_cache();
    let mut cfgs = ScenarioConfig::new(ModelId::ResNet101, dataset);
    cfgs.seed = 1002;
    let scenario = Scenario::build(cfgs);
    let mut gen = scenario.stream(0);
    let l = rt.num_cache_points();
    let mut hits = vec![0u64; l];
    let mut hit_correct = vec![0u64; l];
    let mut misses = 0u64;
    let mut lat = 0.0;
    let mut cached_correct = 0u64;
    let mut model_correct = 0u64;
    let n = 3000;
    for _ in 0..n {
        let f = gen.next_frame();
        let r = infer_with_cache(&rt, &client, &f, &cache, &cfg, &mut view, &mut scratch);
        lat += r.latency.as_millis_f64();
        if r.correct {
            cached_correct += 1;
        }
        if rt.classify(&f, &client, &mut view).correct {
            model_correct += 1;
        }
        match r.hit_point {
            Some(p) => {
                hits[p] += 1;
                if r.correct {
                    hit_correct[p] += 1;
                }
            }
            None => misses += 1,
        }
    }
    println!(
        "\n== ResNet101/UCF101-50, all 34 layers, 50 classes, theta={} ==",
        cfg.theta
    );
    println!(
        "mean latency {:.2} ms (edge-only {:.2}), miss ratio {:.3}",
        lat / n as f64,
        rt.full_compute().as_millis_f64(),
        misses as f64 / n as f64
    );
    println!(
        "cached accuracy {:.2}%  edge-only accuracy {:.2}%  loss {:.2} points",
        cached_correct as f64 / n as f64 * 100.0,
        model_correct as f64 / n as f64 * 100.0,
        (model_correct as f64 - cached_correct as f64) / n as f64 * 100.0
    );
    println!("{:>5} {:>8} {:>8}", "layer", "hit%", "acc%");
    for j in 0..l {
        if hits[j] > 0 {
            println!(
                "{:>5} {:>8.2} {:>8.1}",
                j,
                hits[j] as f64 / n as f64 * 100.0,
                hit_correct[j] as f64 / hits[j] as f64 * 100.0
            );
        }
    }
}

fn engine_probe_full(label: &str, drift: f32, gcu: bool, budget: usize) {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(50));
    sc.num_clients = 6;
    sc.seed = 1003;
    sc.drift_mag = drift;
    let scenario = Scenario::build(sc);
    let full = scenario.rt.full_compute().as_millis_f64();
    let mut coca = CocaConfig::for_model(ModelId::ResNet101);
    coca.enable_gcu = gcu;
    coca.cache_budget_bytes = budget;
    let mut engine = Engine::new(scenario, {
        let mut e = EngineConfig::new(coca);
        e.rounds = 8;
        e
    });
    let r = engine.run();
    println!("\n== Engine [{label}] ==");
    println!(
        "mean latency {:.2} ms (edge {:.2})  acc {:.2}%  hit ratio {:.3}",
        r.mean_latency_ms, full, r.accuracy_pct, r.hit_ratio
    );
    let mut agg = coca_metrics::HitRecorder::new(0);
    for s in &r.per_client {
        agg.merge(&s.hits);
    }
    print!("per-layer (layer:hit%/acc%):");
    for j in 0..agg.num_layers() {
        let ratio = agg.layer_hit_ratio(j);
        if ratio > 0.005 {
            print!(
                " {}:{:.1}/{:.0}",
                j,
                ratio * 100.0,
                agg.layer_hit_accuracy(j).unwrap_or(0.0) * 100.0
            );
        }
    }
    println!();
}

fn engine_probe(label: &str, drift: f32, gcu: bool) {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(50));
    sc.num_clients = 6;
    sc.seed = 1003;
    sc.drift_mag = drift;
    let scenario = Scenario::build(sc);
    let full = scenario.rt.full_compute().as_millis_f64();
    let mut coca = CocaConfig::for_model(ModelId::ResNet101);
    coca.enable_gcu = gcu;
    let mut engine = Engine::new(scenario, {
        let mut e = EngineConfig::new(coca);
        e.rounds = 8;
        e
    });
    let r = engine.run();
    println!("\n== Engine [{label}]: ResNet101/UCF101-50, 6 clients, 8 rounds ==");
    println!(
        "frames {}  mean latency {:.2} ms (edge {:.2})  acc {:.2}%  hit ratio {:.3}",
        r.frames, r.mean_latency_ms, full, r.accuracy_pct, r.hit_ratio
    );
    println!(
        "response latency mean {:.2} ms  absorb: reinforce {:.3} ({}), expand {:.3} ({})",
        r.response_latency.mean_ms(),
        r.absorb.reinforce_ratio(),
        r.absorb.reinforced,
        r.absorb.expand_ratio(),
        r.absorb.expanded,
    );
    let mut hit_acc_sum = 0.0;
    let mut hit_cnt = 0u64;
    for s in &r.per_client {
        if let Some(a) = s.hits.hit_accuracy() {
            hit_acc_sum += a * s.hits.total() as f64;
            hit_cnt += s.hits.total();
        }
    }
    if hit_cnt > 0 {
        println!(
            "hit accuracy (weighted) {:.2}%",
            hit_acc_sum / hit_cnt as f64 * 100.0
        );
    }
    // Aggregate per-layer hit accuracy bands across clients.
    let mut agg = coca_metrics::HitRecorder::new(0);
    for s in &r.per_client {
        agg.merge(&s.hits);
    }
    print!("per-layer (layer:hit%/acc%):");
    for j in 0..agg.num_layers() {
        let ratio = agg.layer_hit_ratio(j);
        if ratio > 0.005 {
            print!(
                " {}:{:.1}/{:.0}",
                j,
                ratio * 100.0,
                agg.layer_hit_accuracy(j).unwrap_or(0.0) * 100.0
            );
        }
    }
    println!();
}

fn aca_probe() {
    let dataset = DatasetSpec::ucf101().subset(50);
    let seeds = SeedTree::new(1003);
    let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds.child("universe"));
    let cfg = CocaConfig::for_model(ModelId::ResNet101);
    let mut server = coca_core::CocaServer::new(&rt, cfg, &seeds);
    println!("\n== ACA probe ==");
    let prof = server.base_hit_profile().to_vec();
    print!("base R (cumulative):");
    for (j, r) in prof.iter().enumerate().step_by(3) {
        print!(" {j}:{r:.2}");
    }
    println!();
    let req = coca_core::proto::CacheRequest {
        client_id: 0,
        round: 0,
        timestamps: vec![0; 50],
        hit_ratio: prof,
        budget_bytes: cfg.cache_budget_bytes as u64,
    };
    let (alloc, _) = server.handle_request(&req);
    println!(
        "allocated layers {:?} classes/layer {:?} bytes {}",
        alloc.cache.activated_points(),
        alloc
            .cache
            .layers()
            .iter()
            .map(|l| l.len())
            .collect::<Vec<_>>(),
        alloc.cache.total_bytes()
    );
    // Seeded-entry fidelity: cosine between seeded global entries and the
    // exact class centers, per layer band.
    for layer in [0usize, 5, 15, 25, 33] {
        let mut sum = 0.0;
        for c in 0..50 {
            sum += coca_math::cosine(
                &server.global().get(c, layer).unwrap(),
                rt.universe().global_center(layer, c),
            ) as f64;
        }
        print!(" seed-fidelity[{layer}]={:.4}", sum / 50.0);
    }
    println!();
}

fn main() {
    aca_probe();
    println!("== Full-model accuracy (4000 frames, UCF101 subsets) ==");
    println!(
        "{:>12} {:>8} {:>12} {:>12}",
        "model", "acc%", "margin(ok)", "margin(err)"
    );
    for (id, classes) in [
        (ModelId::Vgg16Bn, 100),
        (ModelId::ResNet50, 50),
        (ModelId::ResNet101, 50),
        (ModelId::ResNet101, 100),
        (ModelId::ResNet152, 100),
        (ModelId::AstBase, 50),
    ] {
        let (acc, mc, mw) = model_accuracy(id, classes, 0.25);
        println!(
            "{:>12} {:>8.2} {:>12.3} {:>12.3} (I={classes})",
            format!("{:?}", id),
            acc,
            mc,
            mw
        );
    }
    per_layer_curves();
    engine_probe_full("full-budget drift=0 no-gcu", 0.0, false, 16 << 20);
    engine_probe("drift=0, no-gcu", 0.0, false);
    engine_probe("drift=0, gcu", 0.0, true);
    engine_probe("drift=0.25, no-gcu", 0.25, false);
    engine_probe("drift=0.25, gcu", 0.25, true);
}

//! Precision sweep: f32 vs f16 vs i8 wire/table representation.
//!
//! Runs the identical scenario under each `CocaConfig::precision` and
//! measures what quantization buys and what it costs:
//!
//! * **bytes** — per-round upload (`UpdateUpload::wire_bytes`) and
//!   allocation (`CacheAllocation::wire_bytes`) frame sizes from a direct
//!   client/server protocol loop, plus the server table footprint
//!   (`GlobalCacheTable::store_bytes`);
//! * **quality** — end-to-end hit ratio / accuracy / latency from a full
//!   engine run, plus the raw codec fidelity (mean cosine of the seeded
//!   global table's entries after `convert_precision` against f32).
//!
//! The i8 row is gated: its upload frames must come in at least 2× under
//! the f32 frames (the wire-reduction contract in `BENCH`/README).
//! Writes `results/quant.json`.

use coca_bench::output::save_record;
use coca_core::engine::{Engine, EngineConfig, Scenario, ScenarioConfig};
use coca_core::server::seed_global_table;
use coca_core::spec::ScenarioSpec;
use coca_core::{CocaClient, CocaConfig, CocaServer, LookupScratch, MergeMode};
use coca_data::DatasetSpec;
use coca_math::{cosine, Precision};
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use coca_net::WireSize;
use serde_json::json;

const CLIENTS: usize = 4;
const ROUNDS: usize = 4;
const FRAMES: usize = 200;

/// Byte totals from one direct protocol loop at the given precision.
struct WireCosts {
    upload_bytes: usize,
    alloc_bytes: usize,
    table_bytes: usize,
}

fn measure_wire(sc: &ScenarioConfig, cfg: CocaConfig) -> WireCosts {
    let scenario = Scenario::build(sc.clone());
    let rt = &scenario.rt;
    let mut server = CocaServer::new(
        rt,
        cfg.with_merge_mode(MergeMode::PerUpload),
        scenario.seeds(),
    );
    let mut clients: Vec<CocaClient> = (0..CLIENTS)
        .map(|k| {
            CocaClient::new(
                k as u64,
                cfg,
                rt,
                scenario.profiles[k].clone(),
                server.base_hit_profile().to_vec(),
            )
        })
        .collect();
    let mut streams: Vec<_> = (0..CLIENTS).map(|k| scenario.stream(k)).collect();
    let mut scratch = LookupScratch::new();
    let mut costs = WireCosts {
        upload_bytes: 0,
        alloc_bytes: 0,
        table_bytes: 0,
    };
    for _ in 0..ROUNDS {
        for (k, client) in clients.iter_mut().enumerate() {
            let req = client.cache_request();
            let (alloc, _) = server.handle_request(&req);
            costs.alloc_bytes += alloc.wire_bytes();
            client.install_cache(alloc.cache);
            for _ in 0..FRAMES {
                let frame = streams[k].next_frame();
                client.process_frame(rt, &frame, &mut scratch);
            }
            let upload = client.end_round();
            costs.upload_bytes += upload.wire_bytes();
            server.handle_upload(upload);
        }
    }
    costs.table_bytes = server.global().store_bytes();
    costs
}

/// Mean cosine of the seeded global table's entries after a round trip
/// through the codec — the raw fidelity of the representation, before any
/// protocol dynamics.
fn seed_codec_cosine(sc: &ScenarioConfig, precision: Precision) -> f64 {
    let scenario = Scenario::build(sc.clone());
    let reference = seed_global_table(&scenario.rt, scenario.seeds());
    let mut quantized = seed_global_table(&scenario.rt, scenario.seeds());
    quantized.convert_precision(precision);
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for c in 0..scenario.rt.num_classes() {
        for l in 0..scenario.rt.num_cache_points() {
            if let (Some(a), Some(b)) = (reference.get(c, l), quantized.get(c, l)) {
                sum += cosine(&a, &b) as f64;
                n += 1;
            }
        }
    }
    sum / n.max(1) as f64
}

fn main() {
    let model = ModelId::ResNet101;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(50));
    sc.num_clients = CLIENTS;
    sc.seed = 17_001;

    // The default budget (0) is "auto" for the engine; the direct wire
    // loop needs Π explicit — 1/8 of the full cache, the Fig. 1(a)
    // sweet spot.
    let budget = {
        let probe = Scenario::build(sc.clone());
        probe.rt.arch().full_cache_bytes(probe.rt.num_classes()) / 8
    };
    let base_cfg = CocaConfig::for_model(model)
        .with_round_frames(FRAMES)
        .with_budget(budget);

    let mut record = ExperimentRecord::new(
        "quant",
        "precision sweep — f32/f16/i8 wire frames and global-table storage",
    );
    record
        .param("model", model.name())
        .param("dataset", "ucf101-50")
        .param("clients", CLIENTS as u64)
        .param("rounds", ROUNDS as u64)
        .param("frames_per_round", FRAMES as u64)
        .param("seed", sc.seed);

    let mut out = Table::new(
        "Precision sweep — wire frames, table storage, end-to-end quality",
        &[
            "Precision",
            "Upload (KiB)",
            "Alloc (KiB)",
            "Table (KiB)",
            "Wire red.",
            "Hit ratio",
            "Acc.(%)",
            "Lat.(ms)",
            "Codec cos",
        ],
    );

    let mut f32_upload = 0usize;
    let mut f32_table = 0usize;
    let mut i8_wire_reduction = 0.0f64;
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let cfg = base_cfg.with_precision(precision);
        let costs = measure_wire(&sc, cfg);
        let fidelity = seed_codec_cosine(&sc, precision);

        // End-to-end quality under the engine (virtual-time pricing,
        // identical frame schedule across precisions).
        let spec = ScenarioSpec::new(sc.clone(), ROUNDS, FRAMES);
        let (scenario, plan) = spec.materialize();
        let mut engine = Engine::new(scenario, EngineConfig::new(cfg));
        let report = engine.run_plan(&plan);

        if precision == Precision::F32 {
            f32_upload = costs.upload_bytes;
            f32_table = costs.table_bytes;
        }
        let wire_reduction = f32_upload as f64 / costs.upload_bytes.max(1) as f64;
        let store_reduction = f32_table as f64 / costs.table_bytes.max(1) as f64;
        if precision == Precision::I8 {
            i8_wire_reduction = wire_reduction;
        }

        out.row(&[
            precision.label().to_string(),
            fmt_f(costs.upload_bytes as f64 / 1024.0, 1),
            fmt_f(costs.alloc_bytes as f64 / 1024.0, 1),
            fmt_f(costs.table_bytes as f64 / 1024.0, 1),
            format!("{wire_reduction:.2}x"),
            fmt_f(report.hit_ratio, 4),
            fmt_f(report.accuracy_pct, 2),
            fmt_f(report.mean_latency_ms, 2),
            fmt_f(fidelity, 5),
        ]);
        record.push_row(&[
            ("precision", json!(precision.label())),
            ("upload_wire_bytes", json!(costs.upload_bytes)),
            ("alloc_wire_bytes", json!(costs.alloc_bytes)),
            ("table_store_bytes", json!(costs.table_bytes)),
            ("upload_reduction_vs_f32", json!(wire_reduction)),
            ("table_reduction_vs_f32", json!(store_reduction)),
            ("hit_ratio", json!(report.hit_ratio)),
            ("accuracy_pct", json!(report.accuracy_pct)),
            ("mean_latency_ms", json!(report.mean_latency_ms)),
            ("seed_codec_cosine", json!(fidelity)),
        ]);
    }
    print!("{}", out.render());
    println!(
        "i8 upload frames {:.2}x smaller than f32 (contract: >=2x)",
        i8_wire_reduction
    );
    assert!(
        i8_wire_reduction >= 2.0,
        "i8 upload wire reduction {i8_wire_reduction:.2}x fell below the 2x contract"
    );
    save_record(&record);
}

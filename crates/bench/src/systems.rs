//! The systems records of [`crate::paper::EXPERIMENTS`]: centroid
//! re-derivation, the precision sweep, durability and the multi-edge
//! topology. Each fill writes one deterministic record and asserts the
//! contract its registry entry names.

use coca_core::collect::UpdateTable;
use coca_core::engine::{Engine, EngineConfig, EngineReport, Scenario, ScenarioConfig};
use coca_core::persist::{CrashFault, CrashPlan, Durability, MemStorage, SnapshotSource, WAL_CUR};
use coca_core::proto::UpdateUpload;
use coca_core::server::seed_global_table;
use coca_core::spec::{PopularityShift, ScenarioSpec, SyncMode, TopologySpec};
use coca_core::{CocaClient, CocaConfig, CocaServer, LookupScratch};
use coca_data::DatasetSpec;
use coca_math::cluster::{center_separation, kmeans_unit, silhouette_cosine};
use coca_math::{cosine, Precision};
use coca_metrics::{ExperimentRecord, LatencyRecorder, RunSummary, WindowedSummary};
use coca_model::{ClientFeatureView, ModelId};
use coca_net::{LinkModel, WireSize};
use coca_sim::SimDuration;
use serde_json::json;

use crate::scenario_exp::save_spec;

/// Centroid quality: re-derive hot-spot centers from collected samples with
/// deterministic spherical k-means (`coca_math::cluster::kmeans_unit`) and
/// compare their class separation against the shared-dataset seeded
/// centers (a Fig. 2-style quantitative check).
///
/// Samples are drawn from one client's drifted stream at a mid cache
/// layer — exactly the vectors the collection rules would absorb. The
/// seeded centers come from clean shared-dataset samples, so they miss the
/// client's context drift; k-means over the client's own samples recovers
/// drift-aligned centers, so the intra-class cosine must rise. The inter
/// column rises too: every drifted sample shares the client's context
/// direction, which k-means centers absorb — the same common-mode shift
/// `fig2` shows for GCU-evolved centers.
pub(crate) fn centroids(record: &mut ExperimentRecord) {
    const LAYER: usize = 18;
    const CLASSES: usize = 20;
    const PER_CLASS: usize = 30;
    const KMEANS_ITERS: usize = 60;
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
    assert!(
        sep_derived.intra > sep_seeded.intra,
        "re-derived centers must align with the drifted samples better \
         ({} vs {})",
        sep_derived.intra,
        sep_seeded.intra
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
}

/// Clients, rounds and frames per round of the precision sweep.
const QUANT_CLIENTS: usize = 4;
const QUANT_ROUNDS: usize = 4;
const QUANT_FRAMES: usize = 200;

/// Byte totals from one direct protocol loop at one precision.
struct WireCosts {
    upload_bytes: usize,
    alloc_bytes: usize,
    table_bytes: usize,
}

fn measure_wire(sc: &ScenarioConfig, cfg: CocaConfig) -> WireCosts {
    let scenario = Scenario::build(sc.clone());
    let rt = &scenario.rt;
    let mut server = CocaServer::new(rt, cfg, scenario.seeds());
    let mut clients: Vec<CocaClient> = (0..QUANT_CLIENTS)
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
    let mut streams: Vec<_> = (0..QUANT_CLIENTS).map(|k| scenario.stream(k)).collect();
    let mut scratch = LookupScratch::new();
    let mut costs = WireCosts {
        upload_bytes: 0,
        alloc_bytes: 0,
        table_bytes: 0,
    };
    for _ in 0..QUANT_ROUNDS {
        for (k, client) in clients.iter_mut().enumerate() {
            let req = client.cache_request();
            let (alloc, _) = server.handle_request(&req);
            costs.alloc_bytes += alloc.wire_bytes();
            client.install_cache(alloc.cache);
            for _ in 0..QUANT_FRAMES {
                let frame = streams[k].next_frame();
                client.process_frame(rt, &frame, &mut scratch);
            }
            let upload = client.end_round();
            costs.upload_bytes += upload.wire_bytes();
            server.handle_upload(upload);
        }
    }
    // The last round's uploads are still queued: merge them before
    // reading the table.
    server.flush_pending();
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

/// Precision sweep: f32 vs f16 vs i8 wire/table representation.
///
/// Runs the identical scenario under each `CocaConfig::precision` and
/// records what quantization buys and what it costs:
///
/// * **bytes** — per-round upload (`UpdateUpload::wire_bytes`) and
///   allocation (`CacheAllocation::wire_bytes`) frame sizes from a direct
///   client/server protocol loop, plus the server table footprint
///   (`GlobalCacheTable::store_bytes`);
/// * **quality** — end-to-end hit ratio / accuracy / latency from a full
///   engine run, plus the raw codec fidelity (mean cosine of the seeded
///   global table's entries after `convert_precision` against f32).
///
/// The i8 row is gated: its upload frames must come in at least 2× under
/// the f32 frames (the wire-reduction contract).
pub(crate) fn quant(record: &mut ExperimentRecord) {
    let model = ModelId::ResNet101;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(50));
    sc.num_clients = QUANT_CLIENTS;
    sc.seed = 17_001;

    // The default budget (0) is "auto" for the engine; the direct wire
    // loop needs Π explicit — 1/8 of the full cache, the Fig. 1(a)
    // sweet spot.
    let budget = {
        let probe = Scenario::build(sc.clone());
        probe.rt.arch().full_cache_bytes(probe.rt.num_classes()) / 8
    };
    let base_cfg = CocaConfig::for_model(model)
        .with_round_frames(QUANT_FRAMES)
        .with_budget(budget);

    record
        .param("model", model.name())
        .param("dataset", "ucf101-50")
        .param("clients", QUANT_CLIENTS as u64)
        .param("rounds", QUANT_ROUNDS as u64)
        .param("frames_per_round", QUANT_FRAMES as u64)
        .param("seed", sc.seed);

    let mut f32_upload = 0usize;
    let mut f32_table = 0usize;
    let mut i8_wire_reduction = 0.0f64;
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let cfg = base_cfg.with_precision(precision);
        let costs = measure_wire(&sc, cfg);
        let fidelity = seed_codec_cosine(&sc, precision);

        // End-to-end quality under the engine (virtual-time pricing,
        // identical frame schedule across precisions).
        let spec = ScenarioSpec::new(sc.clone(), QUANT_ROUNDS, QUANT_FRAMES);
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
    assert!(
        i8_wire_reduction >= 2.0,
        "i8 upload wire reduction {i8_wire_reduction:.2}x fell below the 2x contract"
    );
}

/// Clients, rounds, frames per round and WAL rotation of the durability run.
const RECOVERY_CLIENTS: usize = 3;
const RECOVERY_ROUNDS: usize = 2;
const RECOVERY_FRAMES: usize = 40;
const ROTATE_EVERY: usize = 3;

/// The same dynamics mix the recovery proptests sweep: a join, a leave,
/// a whole-fleet popularity rotation and a link change.
fn recovery_spec() -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = RECOVERY_CLIENTS;
    sc.seed = 23_001;
    ScenarioSpec::new(sc, RECOVERY_ROUNDS, RECOVERY_FRAMES)
        .join(11_000.0, 1)
        .leave(1, 1)
        .popularity_shift(None, 25, PopularityShift::Rotate(3))
        .link_change(
            Some(0),
            5_500.0,
            LinkModel {
                one_way_delay: SimDuration::from_millis(9),
                bandwidth_bps: 20.0e6,
            },
        )
}

fn recovery_config(spec: &ScenarioSpec, precision: Precision) -> CocaConfig {
    CocaConfig::for_model(ModelId::ResNet101)
        .with_round_frames(spec.frames_per_round)
        .with_precision(precision)
}

/// The run's record series followed by the server's snapshot bytes —
/// table, client registry and pending queue — compared with `==`.
type Probe = (
    LatencyRecorder,
    LatencyRecorder,
    WindowedSummary,
    Vec<RunSummary>,
    Vec<u8>,
);

fn probe(engine: &Engine, report: &EngineReport) -> Probe {
    (
        report.latency.clone(),
        report.response_latency.clone(),
        report.windowed.clone(),
        report.per_client.clone(),
        engine.server().snapshot().to_bytes(),
    )
}

/// Hands the finished run's server one more upload from `client_id`,
/// snapped onto the config's precision grid. The run end drained the
/// queue, so uploads that arrive after it stay queued: the state a server
/// holds between a round's last upload and the next request.
fn upload_after_the_last_request(engine: &mut Engine, precision: Precision, client_id: u64) {
    let rt = &engine.scenario().rt;
    let (layer, class) = (10, 3);
    let mut v = vec![0.0f32; rt.feature_dim(layer)];
    v[client_id as usize + 1] = 1.0;
    let mut table = UpdateTable::new();
    table.absorb(class, layer, &v, 0.0);
    table.quantize_in_place(precision);
    let mut frequency = vec![0u64; rt.num_classes()];
    frequency[class] = 5 + client_id;
    engine.server_mut().handle_upload(UpdateUpload {
        client_id,
        round: RECOVERY_ROUNDS as u64,
        table,
        frequency,
        precision,
    });
}

fn run_durable(
    spec: &ScenarioSpec,
    cfg: CocaConfig,
    crash: Option<CrashPlan>,
) -> (EngineReport, Probe, Engine) {
    let (scenario, plan) = spec.materialize();
    let mut engine = Engine::new(scenario, EngineConfig::new(cfg));
    let mut d = Durability::new(Box::new(MemStorage::new()), ROTATE_EVERY);
    if let Some(plan) = crash {
        d = d.with_crash_plan(plan);
    }
    engine.server_mut().attach_durability(d);
    let report = engine.run_plan(&plan);
    for client_id in 0..2 {
        upload_after_the_last_request(&mut engine, cfg.precision, client_id);
    }
    assert!(engine.server().pending_uploads() > 0);
    let records = probe(&engine, &report);
    (report, records, engine)
}

fn source_label(s: SnapshotSource) -> &'static str {
    match s {
        SnapshotSource::Current => "current",
        SnapshotSource::Previous => "previous",
        SnapshotSource::Genesis => "genesis",
    }
}

/// Durability: the crash-point sweep and the persistence footprint of the
/// snapshot + WAL subsystem (`coca_core::persist`).
///
/// * **crash sweep** — one fixed churn/drift timeline run with a WAL
///   rotating every 3 records, then two uploads that arrive after the
///   run's last request and stay queued; a crash is then injected at
///   *every* WAL event boundary under each fault kind (clean kill, torn
///   final record, corrupted current snapshot) and the resumed run's
///   `frame_digest`, record series and server snapshot bytes (pending
///   queue included) must equal the uninterrupted run's.
/// * **standalone recovery** — [`CocaServer::recover`] from the finished
///   run's storage: which snapshot generation seeded the replay, how many
///   WAL records were replayed and how many torn bytes were truncated,
///   plus snapshot-byte identity with the live server, whose pending queue
///   is non-empty.
/// * **footprint** — snapshot and WAL sizes under f32/f16/i8 table
///   precision for the same timeline.
pub(crate) fn recovery(record: &mut ExperimentRecord) {
    let spec = recovery_spec();
    record
        .param("model", ModelId::ResNet101.name())
        .param("dataset", "ucf101-10")
        .param("clients", RECOVERY_CLIENTS as u64)
        .param("rounds", RECOVERY_ROUNDS as u64)
        .param("frames_per_round", RECOVERY_FRAMES as u64)
        .param("seed", spec.scenario.seed)
        .param("wal_rotate_records", ROTATE_EVERY as u64);

    // -- baseline: uninterrupted durable run (f32) --------------------
    let cfg = recovery_config(&spec, Precision::F32);
    let mut baseline = run_durable(&spec, cfg, None);
    let live_bytes = baseline.2.server().snapshot().to_bytes();
    let d = baseline.2.server_mut().detach_durability().unwrap();
    let total_events = d.events_logged();

    // -- standalone recovery from the finished run's storage ----------
    let scenario = baseline.2.scenario();
    let effective = baseline.2.server().snapshot().config;
    let (recovered, info) =
        CocaServer::recover(&scenario.rt, effective, scenario.seeds(), d).unwrap();
    assert!(recovered.pending_uploads() > 0);
    let recovered_identical = recovered.snapshot().to_bytes() == live_bytes;
    assert!(
        recovered_identical,
        "standalone recovery diverged from the live server"
    );

    // -- crash sweep: every event boundary x every fault kind ---------
    for (label, fault) in [
        ("clean", CrashFault::Clean),
        ("torn_final_record", CrashFault::Torn { keep: 13 }),
        ("snapshot_corrupt", CrashFault::SnapCorrupt { byte: 97 }),
    ] {
        let mut digest_equal = 0u64;
        let mut records_equal = 0u64;
        for at_event in 0..total_events {
            let plan = CrashPlan { at_event, fault };
            let mut crashed = run_durable(&spec, cfg, Some(plan));
            if crashed.0.frame_digest == baseline.0.frame_digest {
                digest_equal += 1;
            }
            if crashed.1 == baseline.1 {
                records_equal += 1;
            }
            let d = crashed.2.server_mut().detach_durability().unwrap();
            assert!(!d.crash_pending(), "crash {plan:?} never fired");
        }
        assert_eq!(
            (digest_equal, records_equal),
            (total_events, total_events),
            "fault {label}: a crash point broke digest/record equality"
        );
        record.push_row(&[
            ("kind", json!("crash_sweep")),
            ("fault", json!(label)),
            ("boundaries", json!(total_events)),
            ("digest_equal", json!(digest_equal)),
            ("records_equal", json!(records_equal)),
        ]);
    }
    record.push_row(&[
        ("kind", json!("standalone_recovery")),
        ("source", json!(source_label(info.source))),
        ("replayed", json!(info.replayed)),
        ("truncated_bytes", json!(info.truncated_bytes)),
        ("snapshot_identical", json!(recovered_identical)),
        ("events_logged", json!(total_events)),
    ]);

    // -- footprint: snapshot + WAL bytes per table precision ----------
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let cfg = recovery_config(&spec, precision);
        let mut run = run_durable(&spec, cfg, None);
        let snap_bytes = run.2.server().snapshot().to_bytes().len();
        let d = run.2.server_mut().detach_durability().unwrap();
        let events = d.events_logged();
        let store = d.into_storage();
        let wal_bytes = store.load(WAL_CUR).map_or(0, |b| b.len());
        record.push_row(&[
            ("kind", json!("footprint")),
            ("precision", json!(precision.label())),
            ("snapshot_bytes", json!(snap_bytes)),
            ("wal_tail_bytes", json!(wal_bytes)),
            ("events_logged", json!(events)),
        ]);
    }
}

/// Clients, classes, seed, rounds and frames per round of the multi-edge runs.
const EDGE_CLIENTS: usize = 6;
const EDGE_CLASSES: usize = 30;
const EDGE_SEED: u64 = 23_001;
const EDGE_ROUNDS: usize = 4;
const EDGE_FRAMES: usize = 150;
/// Peer-sync periods of the sweep (ms).
const PERIODS: [f64; 3] = [250.0, 1000.0, 4000.0];

fn edge_spec() -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(
        ModelId::ResNet101,
        DatasetSpec::ucf101().subset(EDGE_CLASSES),
    );
    sc.num_clients = EDGE_CLIENTS;
    sc.seed = EDGE_SEED;
    ScenarioSpec::new(sc, EDGE_ROUNDS, EDGE_FRAMES)
}

/// One spec's run on as many server cells as its topology names: the
/// report plus the per-cell digests and Φ-staleness.
struct CellRun {
    report: EngineReport,
    digests: Vec<u64>,
    staleness: f64,
    phi_conserved: bool,
}

fn run_cells(spec: &ScenarioSpec, coca: CocaConfig) -> CellRun {
    let (scenario, plan) = spec.materialize();
    let mut engine = Engine::with_cells(scenario, EngineConfig::new(coca), plan.topology.cells);
    let report = engine.run_plan(&plan);
    let digests: Vec<u64> = engine
        .servers()
        .iter()
        .map(|s| s.global().digest())
        .collect();
    let (staleness, phi_conserved) = phi_staleness(engine.servers());
    CellRun {
        report,
        digests,
        staleness,
        phi_conserved,
    }
}

/// Φ-staleness and conservation over the fleet's provenance counts.
///
/// Each origin's authoritative mass is its own cell's self-attributed
/// row (local uploads merge at the home cell synchronously, so the
/// origin cell is never stale about itself). Staleness is the mean,
/// over cells, of the fraction of the fleet-wide mass that cell has not
/// yet absorbed. Conservation holds when no cell attributes *more* mass
/// to an origin than the origin recorded — the no-echo invariant of the
/// cursor-based deltas.
fn phi_staleness(servers: &[CocaServer]) -> (f64, bool) {
    let own: Vec<u64> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.merge_provenance()
                .get(&(i as u32))
                .map_or(0, |row| row.iter().sum())
        })
        .collect();
    let fleet_total: u64 = own.iter().sum();
    if fleet_total == 0 {
        return (0.0, true);
    }
    let mut conserved = true;
    let mut missing_frac_sum = 0.0f64;
    for s in servers {
        let mut have = 0u64;
        for (origin, authoritative) in own.iter().enumerate() {
            let got = s
                .merge_provenance()
                .get(&(origin as u32))
                .map_or(0, |row| row.iter().sum::<u64>());
            if got > *authoritative {
                conserved = false;
            }
            have += got.min(*authoritative);
        }
        missing_frac_sum += 1.0 - have as f64 / fleet_total as f64;
    }
    (missing_frac_sum / servers.len() as f64, conserved)
}

/// Multi-edge topology: collaborating server cells with priced peer sync
/// and client migration, in four sections.
///
/// 1. **Sync-period sweep** — 3 cells under both sync modes across a
///    range of periods, against the single-cell oracle (everything merges
///    at one server instantly): hit ratio, accuracy, latency and
///    **staleness**, the mean fraction of fleet-wide Φ mass a cell is
///    missing at run end (0 at the oracle; grows with the period).
/// 2. **Flash crowd** — half the fleet migrates onto one cell mid-run; the
///    windowed hit ratio shows the handover transient. Its spec is written
///    to `results/specs/multiedge_flash.json`.
/// 3. **Cell failure** — a cell's clients re-home to cell 0 via `Migrate`
///    (the cell drains its queue, its members re-allocate at their new
///    home).
/// 4. **Determinism** — an explicit one-cell topology against the same
///    spec with no topology block.
///
/// Asserts Φ conservation (no echo) across the synced runs and the
/// one-cell ≡ no-topology digest match: both are exact in virtual time.
pub(crate) fn multiedge(record: &mut ExperimentRecord) {
    record
        .param("model", "resnet101")
        .param("dataset", format!("ucf101-{EDGE_CLASSES}"))
        .param("clients", EDGE_CLIENTS as u64)
        .param("rounds", EDGE_ROUNDS as u64)
        .param("frames_per_round", EDGE_FRAMES as u64)
        .param("seed", EDGE_SEED);

    // -- 1. sync-period sweep ------------------------------------------------
    let coca = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(EDGE_FRAMES);
    let oracle = run_cells(
        &edge_spec().topology(TopologySpec::uniform(1, EDGE_CLIENTS)),
        coca,
    );
    record.push_row(&[
        ("section", json!("sweep")),
        ("mode", json!("oracle")),
        ("cells", json!(1)),
        ("sync_period_ms", serde_json::Value::Null),
        ("hit_ratio", json!(oracle.report.hit_ratio)),
        ("accuracy_pct", json!(oracle.report.accuracy_pct)),
        ("mean_latency_ms", json!(oracle.report.mean_latency_ms)),
        ("phi_staleness", json!(oracle.staleness)),
    ]);
    for (mode, label) in [
        (SyncMode::Gossip, "gossip"),
        (SyncMode::HubAndSpoke, "hub_and_spoke"),
    ] {
        for period in PERIODS {
            let spec = edge_spec()
                .topology(TopologySpec::uniform(3, EDGE_CLIENTS).with_sync(period, mode));
            let run = run_cells(&spec, coca);
            assert!(
                run.phi_conserved,
                "peer-sync echoed Φ mass back to an origin ({label}, {period} ms)"
            );
            record.push_row(&[
                ("section", json!("sweep")),
                ("mode", json!(label)),
                ("cells", json!(3)),
                ("sync_period_ms", json!(period)),
                ("hit_ratio", json!(run.report.hit_ratio)),
                ("accuracy_pct", json!(run.report.accuracy_pct)),
                ("mean_latency_ms", json!(run.report.mean_latency_ms)),
                ("phi_staleness", json!(run.staleness)),
                ("phi_conserved", json!(run.phi_conserved)),
            ]);
        }
    }

    // -- 2. flash crowd ------------------------------------------------------
    // Cell 0's residents (round-robin: clients 0, 2, 4) pile onto cell 1
    // midway — a flash crowd at one edge.
    let two_cells = || {
        edge_spec()
            .topology(TopologySpec::uniform(2, EDGE_CLIENTS).with_sync(1000.0, SyncMode::Gossip))
    };
    let mid = EDGE_ROUNDS / 2;
    let mut flash_spec = two_cells();
    for k in [0usize, 2, 4] {
        flash_spec = flash_spec.migrate(k, mid, 1);
    }
    save_spec("multiedge_flash", &flash_spec);
    let flash = run_cells(&flash_spec, coca);
    let window_ms = flash_spec.metrics_window_ms;
    for (i, w) in flash.report.windowed.windows().iter().enumerate() {
        record.push_row(&[
            ("section", json!("flash_crowd")),
            ("window", json!(i)),
            ("window_start_ms", json!(i as f64 * window_ms)),
            ("frames", json!(w.frames)),
            ("hit_ratio", json!(w.hit_ratio())),
            ("latency_ms", json!(w.mean_latency_ms())),
        ]);
    }
    record.push_row(&[
        ("section", json!("flash_crowd")),
        ("overall_hit_ratio", json!(flash.report.hit_ratio)),
        ("overall_latency_ms", json!(flash.report.mean_latency_ms)),
        ("phi_staleness", json!(flash.staleness)),
    ]);

    // -- 3. cell failure -----------------------------------------------------
    // Cell 1 "fails" mid-run: its residents (clients 1, 3, 5) re-home to
    // cell 0 via Migrate — the old cell drains its in-flight uploads at
    // the handover, the migrants re-allocate from cell 0's merged view.
    let mut fail_spec = two_cells();
    for k in [1usize, 3, 5] {
        fail_spec = fail_spec.migrate(k, mid, 0);
    }
    let fail = run_cells(&fail_spec, coca);
    record.push_row(&[
        ("section", json!("cell_failure")),
        ("rehome_round", json!(mid)),
        ("hit_ratio", json!(fail.report.hit_ratio)),
        ("mean_latency_ms", json!(fail.report.mean_latency_ms)),
        (
            "survivor_digest",
            json!(format!("{:016x}", fail.digests[0])),
        ),
    ]);

    // -- 4. determinism ------------------------------------------------------
    // An explicit one-cell topology (the sweep's oracle run) against the
    // same spec with no topology block: same floats, same digests. The
    // table digest is the one the pre-topology engine committed — the
    // proof its event sequence survives in the one engine there is.
    let key = |run: &CellRun| (run.report.frame_digest, run.digests[0]);
    let no_topology = key(&run_cells(&edge_spec(), coca));
    let onecell_match = no_topology == key(&oracle);
    record.push_row(&[
        ("section", json!("determinism")),
        ("one_cell_matches_no_topology", json!(onecell_match)),
        (
            "one_cell_table_digest",
            json!(format!("{:016x}", no_topology.1)),
        ),
    ]);
    assert!(
        onecell_match,
        "one-cell topology diverged from the no-topology path"
    );
}

//! Durability experiment: **crash-point sweep and persistence footprint**.
//!
//! Exercises the snapshot + WAL subsystem (`coca_core::persist`) the way
//! the recovery proptests do, but as a committed, regenerable record:
//!
//! * **crash sweep** — one fixed churn/drift timeline run with a WAL
//!   rotating every 3 records, then two uploads that arrive after the
//!   run's last request and stay queued; a crash is then injected at
//!   *every* WAL event boundary under each fault kind (clean kill, torn
//!   final record, corrupted current snapshot) and the resumed run's
//!   `frame_digest`, record series and server snapshot bytes (pending
//!   queue included) are checked against the uninterrupted run. The
//!   record row counts boundaries swept and digest-equal outcomes (they
//!   must match).
//! * **standalone recovery** — [`CocaServer::recover`] from the finished
//!   run's storage, reporting which snapshot generation seeded the
//!   replay, how many WAL records were replayed and how many torn bytes
//!   were truncated, plus snapshot-byte identity with the live server,
//!   whose pending queue is non-empty.
//! * **footprint** — snapshot and WAL sizes under f32/f16/i8 table
//!   precision for the same timeline.
//!
//! Everything is virtual-time deterministic — no wall-clock timings — so
//! `results/recovery.json` regenerates byte-identically.

use coca_bench::output::save_record;
use coca_core::collect::UpdateTable;
use coca_core::engine::{Engine, EngineConfig, EngineReport, ScenarioConfig};
use coca_core::persist::{CrashFault, CrashPlan, Durability, MemStorage, SnapshotSource, WAL_CUR};
use coca_core::proto::UpdateUpload;
use coca_core::spec::{PopularityShift, ScenarioSpec};
use coca_core::{CocaConfig, CocaServer};
use coca_data::DatasetSpec;
use coca_math::Precision;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, LatencyRecorder, RunSummary, Table, WindowedSummary};
use coca_model::ModelId;
use coca_net::LinkModel;
use coca_sim::SimDuration;
use serde_json::json;

const CLIENTS: usize = 3;
const ROUNDS: usize = 2;
const FRAMES: usize = 40;
const ROTATE_EVERY: usize = 3;

/// The same dynamics mix the recovery proptests sweep: a join, a leave,
/// a whole-fleet popularity rotation and a link change.
fn spec() -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = CLIENTS;
    sc.seed = 23_001;
    ScenarioSpec::new(sc, ROUNDS, FRAMES)
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

fn coca_config(spec: &ScenarioSpec, precision: Precision) -> CocaConfig {
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
        round: ROUNDS as u64,
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

fn main() {
    let spec = spec();
    let mut record = ExperimentRecord::new(
        "recovery",
        "durability — crash-point sweep, standalone recovery, persistence footprint",
    );
    record
        .param("model", ModelId::ResNet101.name())
        .param("dataset", "ucf101-10")
        .param("clients", CLIENTS as u64)
        .param("rounds", ROUNDS as u64)
        .param("frames_per_round", FRAMES as u64)
        .param("seed", spec.scenario.seed)
        .param("wal_rotate_records", ROTATE_EVERY as u64);

    // -- baseline: uninterrupted durable run (f32) --------------------
    let cfg = coca_config(&spec, Precision::F32);
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
    let mut sweep = Table::new(
        "Crash sweep — every WAL event boundary, per fault kind",
        &["Fault", "Boundaries", "Digest-equal", "Records-equal"],
    );
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
        sweep.row(&[
            label.to_string(),
            total_events.to_string(),
            digest_equal.to_string(),
            records_equal.to_string(),
        ]);
        record.push_row(&[
            ("kind", json!("crash_sweep")),
            ("fault", json!(label)),
            ("boundaries", json!(total_events)),
            ("digest_equal", json!(digest_equal)),
            ("records_equal", json!(records_equal)),
        ]);
    }
    print!("{}", sweep.render());
    println!(
        "standalone recovery: source={} replayed={} truncated_bytes={} identical={}",
        source_label(info.source),
        info.replayed,
        info.truncated_bytes,
        recovered_identical
    );
    record.push_row(&[
        ("kind", json!("standalone_recovery")),
        ("source", json!(source_label(info.source))),
        ("replayed", json!(info.replayed)),
        ("truncated_bytes", json!(info.truncated_bytes)),
        ("snapshot_identical", json!(recovered_identical)),
        ("events_logged", json!(total_events)),
    ]);

    // -- footprint: snapshot + WAL bytes per table precision ----------
    let mut foot = Table::new(
        "Persistence footprint — snapshot and WAL bytes per precision",
        &["Precision", "Snapshot (KiB)", "WAL tail (KiB)", "Events"],
    );
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let cfg = coca_config(&spec, precision);
        let mut run = run_durable(&spec, cfg, None);
        let snap_bytes = run.2.server().snapshot().to_bytes().len();
        let d = run.2.server_mut().detach_durability().unwrap();
        let events = d.events_logged();
        let store = d.into_storage();
        let wal_bytes = store.load(WAL_CUR).map_or(0, |b| b.len());
        foot.row(&[
            precision.label().to_string(),
            fmt_f(snap_bytes as f64 / 1024.0, 1),
            fmt_f(wal_bytes as f64 / 1024.0, 1),
            events.to_string(),
        ]);
        record.push_row(&[
            ("kind", json!("footprint")),
            ("precision", json!(precision.label())),
            ("snapshot_bytes", json!(snap_bytes)),
            ("wal_tail_bytes", json!(wal_bytes)),
            ("events_logged", json!(events)),
        ]);
    }
    print!("{}", foot.render());
    save_record(&record);
}

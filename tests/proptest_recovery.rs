//! Durability property tests: **crash anywhere, recover byte-identically**.
//!
//! The persistence layer's contract (`coca::core::persist`) is that a
//! server killed at *any* WAL event boundary — cleanly, mid-append (torn
//! final record) or with a corrupted current snapshot — recovers to the
//! exact state the uninterrupted run would have reached, and the resumed
//! run regenerates the same `frame_digest` and record bytes. These tests
//! pin that contract at engine scale:
//!
//! * a full CoCa run with durability attached is observationally
//!   transparent — byte-identical records vs the same run without it,
//!   across randomized churn/drift/link timelines and WAL segment sizes;
//! * a standalone [`CocaServer::recover`] from the run's storage rebuilds
//!   a byte-identical server snapshot;
//! * randomized crash plans (event index × fault × rotation period) leave
//!   the finished run indistinguishable from the uninterrupted one;
//! * a deterministic sweep covers **every** event boundary of one
//!   timeline under all three fault kinds, including uploads that arrive
//!   after the last request and so are still queued when the crash hits.

use coca::core::collect::UpdateTable;
use coca::core::persist::{CrashFault, CrashPlan, Durability, MemStorage};
use coca::core::proto::UpdateUpload;
use coca::core::spec::PopularityShift;
use coca::core::CocaServer;
use coca::math::Precision;
use coca::metrics::{LatencyRecorder, RunSummary, WindowedSummary};
use coca::net::{LinkModel, Wire};
use coca::prelude::*;
use proptest::prelude::*;

const BASE_CLIENTS: usize = 3;
const ROUNDS: usize = 2;
const FRAMES: usize = 40;

/// The same dynamics mix the committed churn/drift records exercise:
/// one join, one leave, a popularity rotation and a link change.
fn random_spec(seed: u64, join_at: f64, leave_after: usize, shift_at: u64) -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = BASE_CLIENTS;
    sc.seed = seed;
    ScenarioSpec::new(sc, ROUNDS, FRAMES)
        .join(join_at, 1)
        .leave(1, leave_after)
        .popularity_shift(None, shift_at, PopularityShift::Rotate(3))
        .link_change(
            Some(0),
            join_at / 2.0,
            LinkModel {
                one_way_delay: SimDuration::from_millis(9),
                bandwidth_bps: 20.0e6,
            },
        )
}

fn coca_config(spec: &ScenarioSpec) -> CocaConfig {
    CocaConfig::for_model(ModelId::ResNet101).with_round_frames(spec.frames_per_round)
}

/// Every record series of the run, then the post-run global table's
/// `Wire` bytes — the identity probe the engine tests compare with `==`.
type Probe = (
    LatencyRecorder,
    LatencyRecorder,
    WindowedSummary,
    Vec<RunSummary>,
    Vec<u8>,
);

fn probe(engine: &Engine, report: &EngineReport) -> Probe {
    let mut table = Vec::new();
    engine.server().global().encode(&mut table);
    (
        report.latency.clone(),
        report.response_latency.clone(),
        report.windowed.clone(),
        report.per_client.clone(),
        table,
    )
}

/// Runs CoCa over `spec`; `durability` attaches a WAL with the given
/// rotation period and optional crash plan. Returns the report, the
/// identity probe and the finished engine for state inspection.
fn run_coca(
    spec: &ScenarioSpec,
    cfg: CocaConfig,
    durability: Option<(usize, Option<CrashPlan>)>,
) -> (EngineReport, Probe, Engine) {
    let (scenario, plan) = spec.materialize();
    let mut engine = Engine::new(scenario, EngineConfig::new(cfg));
    if let Some((rotate_every, crash)) = durability {
        let mut d = Durability::new(Box::new(MemStorage::new()), rotate_every);
        if let Some(plan) = crash {
            d = d.with_crash_plan(plan);
        }
        engine.server_mut().attach_durability(d);
    }
    let report = engine.run_plan(&plan);
    let records = probe(&engine, &report);
    (report, records, engine)
}

fn assert_runs_identical(
    a: &(EngineReport, Probe, Engine),
    b: &(EngineReport, Probe, Engine),
    label: &str,
) {
    assert_eq!(a.0.frame_digest, b.0.frame_digest, "{label}: digest");
    assert_eq!(a.0.frames, b.0.frames, "{label}: frames");
    assert_eq!(
        a.0.mean_latency_ms.to_bits(),
        b.0.mean_latency_ms.to_bits(),
        "{label}: mean latency"
    );
    assert_eq!(a.0.end_time, b.0.end_time, "{label}: end time");
    assert!(a.1 == b.1, "{label}: record series");
}

proptest! {
    /// Durability is observationally transparent: the logged run's
    /// records are byte-identical to the unlogged run's, at any WAL
    /// rotation period — and a standalone recovery from the run's
    /// storage rebuilds the same server snapshot, byte for byte.
    #[test]
    fn durable_runs_match_plain_runs_and_recover(
        seed in 0u64..200,
        join_at in 1_000.0f64..40_000.0,
        leave_after in 1usize..ROUNDS,
        rotate_every in 1usize..16,
    ) {
        let spec = random_spec(seed, join_at, leave_after, 25);
        let cfg = coca_config(&spec);
        let plain = run_coca(&spec, cfg, None);
        let mut durable = run_coca(&spec, cfg, Some((rotate_every, None)));
        assert_runs_identical(&plain, &durable, "durable vs plain");

        let live_bytes = durable.2.server().snapshot().to_bytes();
        let d = durable.2.server_mut().detach_durability().unwrap();
        let scenario = durable.2.scenario();
        // The engine resolves the auto cache budget before constructing
        // the server; the snapshot's embedded config is the resolved one.
        let effective = durable.2.server().snapshot().config;
        let (recovered, _info) =
            CocaServer::recover(&scenario.rt, effective, scenario.seeds(), d).unwrap();
        // Standalone recovery must rebuild the live server's state.
        prop_assert_eq!(recovered.snapshot().to_bytes(), live_bytes);
    }

    /// A crash injected at a random WAL event boundary — clean, torn
    /// final record, or corrupted current snapshot — recovers in place
    /// and the finished run is byte-identical to the uninterrupted one.
    #[test]
    fn crashes_anywhere_leave_records_byte_identical(
        seed in 200u64..400,
        join_at in 1_000.0f64..40_000.0,
        rotate_every in 1usize..8,
        at_pick in 0u64..10_000,
        fault_pick in 0u8..3,
    ) {
        let spec = random_spec(seed, join_at, 1, 25);
        let cfg = coca_config(&spec);
        let mut baseline = run_coca(&spec, cfg, Some((rotate_every, None)));
        let total = baseline
            .2
            .server_mut()
            .detach_durability()
            .unwrap()
            .events_logged();
        prop_assume!(total > 0);

        let fault = match fault_pick {
            0 => CrashFault::Clean,
            1 => CrashFault::Torn { keep: 7 + at_pick as usize % 40 },
            _ => CrashFault::SnapCorrupt { byte: at_pick as usize },
        };
        let plan = CrashPlan { at_event: at_pick % total, fault };
        let mut crashed = run_coca(&spec, cfg, Some((rotate_every, Some(plan))));
        assert_runs_identical(
            &baseline,
            &crashed,
            &format!("crash {plan:?} of {total} events"),
        );
        let d = crashed.2.server_mut().detach_durability().unwrap();
        prop_assert!(!d.crash_pending(), "the injected crash never fired");
    }
}

/// Hands the finished run's server one more upload from `client_id`. The
/// run end drained the queue, so uploads that arrive after it stay queued:
/// the state a server holds between a round's last upload and the next
/// request.
fn upload_after_the_last_request(engine: &mut Engine, client_id: u64) {
    let rt = &engine.scenario().rt;
    let (layer, class) = (10, 3);
    let mut v = vec![0.0f32; rt.feature_dim(layer)];
    v[client_id as usize + 1] = 1.0;
    let mut table = UpdateTable::new();
    table.absorb(class, layer, &v, 0.0);
    let mut frequency = vec![0u64; rt.num_classes()];
    frequency[class] = 5 + client_id;
    engine.server_mut().handle_upload(UpdateUpload {
        client_id,
        round: ROUNDS as u64,
        table,
        frequency,
        precision: Precision::F32,
    });
}

/// The acceptance sweep: **every** WAL event boundary of one fixed
/// timeline, under all three fault kinds, recovers to a byte-identical
/// finished run — including the torn-final-record and
/// corrupted-snapshot-fallback paths, and the two uploads queued after the
/// run's last request, whose crash boundaries recover a non-empty queue.
#[test]
fn every_event_boundary_recovers_byte_identically() {
    let spec = random_spec(7, 11_000.0, 1, 25);
    let cfg = coca_config(&spec);
    let run = |crash: Option<CrashPlan>| {
        let mut run = run_coca(&spec, cfg, Some((3, crash)));
        for client_id in 0..2 {
            upload_after_the_last_request(&mut run.2, client_id);
        }
        run
    };
    let mut baseline = run(None);
    assert_eq!(baseline.2.server().pending_uploads(), 2);
    let want = baseline.2.server().snapshot().to_bytes();
    let total = baseline
        .2
        .server_mut()
        .detach_durability()
        .unwrap()
        .events_logged();
    assert!(total > 10, "timeline too small to be a meaningful sweep");

    for at_event in 0..total {
        for fault in [
            CrashFault::Clean,
            CrashFault::Torn { keep: 13 },
            CrashFault::SnapCorrupt { byte: 97 },
        ] {
            let plan = CrashPlan { at_event, fault };
            let mut crashed = run(Some(plan));
            assert_runs_identical(
                &baseline,
                &crashed,
                &format!("crash {plan:?} of {total} events"),
            );
            assert!(crashed.2.server().pending_uploads() > 0);
            assert_eq!(
                crashed.2.server().snapshot().to_bytes(),
                want,
                "crash {plan:?}: server state, pending queue included"
            );
            let d = crashed.2.server_mut().detach_durability().unwrap();
            assert!(!d.crash_pending(), "crash {plan:?} never fired");
        }
    }
}

//! Property tests pinning the **multi-edge topology** paths of the one
//! [`Engine`]:
//!
//! * a spec with an explicit **one-cell topology** regenerates
//!   **byte-identical** records (frame digest, every latency/windowed/
//!   per-client series, the post-run global table) vs the same spec with
//!   no topology block — across randomized churn/drift/link timelines,
//!   the committed dynamics records' shape;
//! * a **peer-synced multi-cell** run (gossip or hub-and-spoke, with a
//!   mid-run migration) is a pure function of
//!   its spec: a repeat run has the same frame digest, the same records
//!   and the same per-cell global tables.
//!
//! Both one-cell runs take the same driver; what the first property pins
//! is the spec → plan compilation: a one-cell topology's per-cell link
//! table is `None`, so transfers fall back to the per-client link
//! schedules — the exact float sequence of a topology-less plan.

use coca::core::spec::PopularityShift;
use coca::core::{SyncMode, TopologySpec};
use coca::metrics::{LatencyRecorder, RunSummary, WindowedSummary};
use coca::net::{LinkModel, Wire};
use coca::prelude::*;
use proptest::prelude::*;

const BASE_CLIENTS: usize = 4;
const ROUNDS: usize = 2;
const FRAMES: usize = 40;

/// Randomized churn + drift + link dynamics, the same event mix as the
/// committed churn/drift records.
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

fn engine_cfg(spec: &ScenarioSpec) -> EngineConfig {
    let coca = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(spec.frames_per_round);
    EngineConfig::new(coca)
}

/// Every record series of a run, compared with `==`.
type Records = (
    LatencyRecorder,
    LatencyRecorder,
    WindowedSummary,
    Vec<RunSummary>,
);

/// Canonical probe of a run: the report scalars, every record series,
/// and each cell's global table as `Wire` bytes.
type Probe = (u64, u64, u64, u64, u64, Records, Vec<Vec<u8>>);

fn probe(report: &EngineReport, globals: Vec<Vec<u8>>) -> Probe {
    (
        report.frame_digest,
        report.frames,
        report.mean_latency_ms.to_bits(),
        report.accuracy_pct.to_bits(),
        report.hit_ratio.to_bits(),
        (
            report.latency.clone(),
            report.response_latency.clone(),
            report.windowed.clone(),
            report.per_client.clone(),
        ),
        globals,
    )
}

fn run_cells(spec: &ScenarioSpec) -> Probe {
    let (scenario, plan) = spec.materialize();
    let cfg = engine_cfg(spec);
    let mut engine = Engine::with_cells(scenario, cfg, plan.topology.cells);
    let report = engine.run_plan(&plan);
    let globals = engine
        .servers()
        .iter()
        .map(|s| {
            let mut bytes = Vec::new();
            s.global().encode(&mut bytes);
            bytes
        })
        .collect();
    probe(&report, globals)
}

proptest! {
    /// One-cell topology ≡ no topology block, byte for byte, under
    /// randomized churn/drift/link dynamics.
    #[test]
    fn one_cell_topology_is_byte_identical_to_no_topology(
        seed in 0u64..250,
        join_at in 1_000.0f64..30_000.0,
        leave_after in 1usize..ROUNDS,
        shift_at in 10u64..60,
    ) {
        let spec = random_spec(seed, join_at, leave_after, shift_at);
        let no_topology = run_cells(&spec);
        let one_cell = run_cells(&spec.clone().topology(TopologySpec::uniform(1, BASE_CLIENTS)));
        prop_assert_eq!(no_topology, one_cell);
    }

    /// Peer-synced multi-cell runs (both sync modes, with a mid-run
    /// migration) regenerate byte for byte:
    /// every sync export and absorb drains its cell's queue at the same
    /// point of the event order on every run.
    #[test]
    fn peer_sync_is_deterministic(
        seed in 250u64..400,
        join_at in 1_000.0f64..30_000.0,
        period in 200.0f64..3_000.0,
        hub in any::<bool>(),
    ) {
        let mode = if hub { SyncMode::HubAndSpoke } else { SyncMode::Gossip };
        let spec = random_spec(seed, join_at, 1, 25)
            .topology(TopologySpec::uniform(2, BASE_CLIENTS).with_sync(period, mode))
            .migrate(0, 1, 1);
        let baseline = run_cells(&spec);
        let again = run_cells(&spec);
        prop_assert_eq!(&baseline, &again);
    }
}

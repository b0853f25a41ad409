//! Property tests pinning the **multi-edge topology** paths of the one
//! [`Engine`]:
//!
//! * a spec with an explicit **one-cell topology** regenerates
//!   **byte-identical** records (frame digest, every latency/windowed/
//!   per-client series, the post-run global table) vs the same spec with
//!   no topology block — across randomized churn/drift/link timelines,
//!   the committed dynamics records' shape;
//! * a **peer-synced multi-cell** run (gossip or hub-and-spoke, with a
//!   mid-run migration and layer-sharded parallel merges on, under
//!   either merge mode) is bit-identical at 1, 2 and N rayon workers:
//!   same frame digest, same per-cell global tables.
//!
//! Both one-cell runs take the same driver; what the first property pins
//! is the spec → plan compilation: a one-cell topology's per-cell link
//! table is `None`, so transfers fall back to the per-client link
//! schedules — the exact float sequence of a topology-less plan.

use coca::core::spec::PopularityShift;
use coca::core::{SyncMode, TopologySpec};
use coca::net::LinkModel;
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

fn engine_cfg(spec: &ScenarioSpec, parallel: bool, merge_mode: MergeMode) -> EngineConfig {
    let coca = CocaConfig::for_model(ModelId::ResNet101)
        .with_round_frames(spec.frames_per_round)
        .with_parallel_merge(parallel)
        .with_merge_mode(merge_mode);
    EngineConfig::new(coca)
}

/// Canonical probe of a run: the report scalars plus a serialized
/// rendering of every record series and each cell's global table.
fn probe(report: &EngineReport, globals: &[String]) -> (u64, u64, u64, u64, u64, String) {
    (
        report.frame_digest,
        report.frames,
        report.mean_latency_ms.to_bits(),
        report.accuracy_pct.to_bits(),
        report.hit_ratio.to_bits(),
        format!(
            "{}|{}|{}|{}|{}",
            serde_json::to_string(&report.latency).unwrap(),
            serde_json::to_string(&report.response_latency).unwrap(),
            serde_json::to_string(&report.windowed).unwrap(),
            serde_json::to_string(&report.per_client).unwrap(),
            globals.join("|"),
        ),
    )
}

fn run_cells(
    spec: &ScenarioSpec,
    parallel: bool,
    merge_mode: MergeMode,
) -> (u64, u64, u64, u64, u64, String) {
    let (scenario, plan) = spec.materialize();
    let cfg = engine_cfg(spec, parallel, merge_mode);
    let mut engine = Engine::with_cells(scenario, cfg, plan.topology.cells);
    let report = engine.run_plan(&plan);
    let globals: Vec<String> = engine
        .servers()
        .iter()
        .map(|s| serde_json::to_string(s.global()).unwrap())
        .collect();
    probe(&report, &globals)
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
        let no_topology = run_cells(&spec, false, MergeMode::PerUpload);
        let one_cell = run_cells(
            &spec.clone().topology(TopologySpec::uniform(1, BASE_CLIENTS)),
            false,
            MergeMode::PerUpload,
        );
        prop_assert_eq!(no_topology, one_cell);
    }

    /// Peer-synced multi-cell runs (both sync modes, with a mid-run
    /// migration and sharded merges on) are bit-identical at any rayon
    /// width — under queue-and-flush the client batches shard too, under
    /// per-upload only the peer deltas do.
    #[test]
    fn peer_sync_is_deterministic_at_any_rayon_width(
        seed in 250u64..400,
        join_at in 1_000.0f64..30_000.0,
        period in 200.0f64..3_000.0,
        hub in any::<bool>(),
        queued in any::<bool>(),
    ) {
        let merge_mode = if queued { MergeMode::QueueAndFlush } else { MergeMode::PerUpload };
        let mode = if hub { SyncMode::HubAndSpoke } else { SyncMode::Gossip };
        let spec = random_spec(seed, join_at, 1, 25)
            .topology(TopologySpec::uniform(2, BASE_CLIENTS).with_sync(period, mode))
            .migrate(0, 1, 1);
        let baseline = run_cells(&spec, true, merge_mode);
        for width in [1usize, 2, rayon::current_num_threads().max(3)] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("shim pool build is infallible");
            let run = pool.install(|| run_cells(&spec, true, merge_mode));
            prop_assert_eq!(&baseline, &run);
        }
    }
}

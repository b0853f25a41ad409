//! Property tests for `FlushPolicy::RoundAligned`, the fleet-scale upload
//! batching mode (PR 6):
//!
//! * **Table-level pin**: a round-aligned server draining a watermark-full
//!   queue lands exactly on its table with the same uploads merged one at
//!   a time (`GlobalCacheTable::merge_update`) in arrival order, bit for
//!   bit, on randomized uploads.
//! * **Engine-level determinism**: a round-aligned run is a pure function
//!   of the spec — identical records run to run. (Round-aligned is a
//!   *relaxed observation* mode: centroids lag an every-boundary drain by
//!   at most one round, so it is deterministic but intentionally NOT
//!   byte-identical to `FlushPolicy::EveryBoundary`; that contract belongs
//!   to `proptest_merge_modes.rs`.)

use coca::core::collect::UpdateTable;
use coca::core::global::MergeScratch;
use coca::core::proto::UpdateUpload;
use coca::core::spec::PopularityShift;
use coca::net::{LinkModel, Wire};
use coca::prelude::*;
use proptest::prelude::*;
use rand::Rng;

const BASE_CLIENTS: usize = 3;
const ROUNDS: usize = 2;
const FRAMES: usize = 40;

/// The same churn/drift/link mix `proptest_merge_modes.rs` uses, so the
/// round-aligned engine sees joins (watermark up), leaves (watermark
/// down + boundary flush) and mid-run drift.
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

/// Runs CoCa under the given flush policy and returns the report plus the
/// canonical serialized record series and post-run table.
fn run_coca(spec: &ScenarioSpec, policy: FlushPolicy) -> (EngineReport, Vec<u8>) {
    let (scenario, plan) = spec.materialize();
    let coca = CocaConfig::for_model(ModelId::ResNet101)
        .with_round_frames(spec.frames_per_round)
        .with_flush_policy(policy);
    let mut engine = Engine::new(scenario, EngineConfig::new(coca));
    let report = engine.run_plan(&plan);
    let mut records = format!(
        "{}|{}|{}|{}|",
        serde_json::to_string(&report.latency).unwrap(),
        serde_json::to_string(&report.response_latency).unwrap(),
        serde_json::to_string(&report.windowed).unwrap(),
        serde_json::to_string(&report.per_client).unwrap(),
    )
    .into_bytes();
    engine.server().global().encode(&mut records);
    (report, records)
}

fn assert_reports_identical(a: &(EngineReport, Vec<u8>), b: &(EngineReport, Vec<u8>), label: &str) {
    assert_eq!(a.0.frame_digest, b.0.frame_digest, "{label}: digest");
    assert_eq!(a.0.frames, b.0.frames, "{label}: frames");
    assert_eq!(
        a.0.mean_latency_ms.to_bits(),
        b.0.mean_latency_ms.to_bits(),
        "{label}: mean latency"
    );
    assert_eq!(a.0.end_time, b.0.end_time, "{label}: end time");
    assert_eq!(a.1, b.1, "{label}: serialized record series");
}

/// A randomized upload: a few absorbed vectors plus a φ histogram.
fn random_upload(rt: &ModelRuntime, rng: &mut impl Rng, client_id: u64) -> UpdateUpload {
    let mut table = UpdateTable::new();
    for _ in 0..rng.gen_range(1..5) {
        let class = rng.gen_range(0..rt.num_classes());
        let layer = rng.gen_range(0..rt.num_cache_points());
        let dim = rt.feature_dim(layer);
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        table.absorb(class, layer, &v, 0.9);
    }
    let frequency: Vec<u64> = (0..rt.num_classes())
        .map(|_| rng.gen_range(0..40))
        .collect();
    UpdateUpload {
        client_id,
        round: 0,
        table,
        frequency,
        precision: coca::math::Precision::F32,
    }
}

proptest! {
    /// Draining a watermark-full queue reproduces the arrival-order
    /// sequential merge bit for bit.
    #[test]
    fn watermark_drain_matches_arrival_order_merge(
        seed in 0u64..500,
        fleet in 1usize..8,
    ) {
        let dataset = DatasetSpec::ucf101().subset(12);
        let seeds = SeedTree::new(seed);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101)
            .with_flush_policy(FlushPolicy::RoundAligned);
        let mut aligned = CocaServer::new(&rt, cfg, &seeds);
        aligned.set_flush_watermark(fleet);
        // The reference arm merges one upload at a time, never through
        // the queue under test.
        let mut reference = aligned.global().clone();

        let mut rng = seeds.rng_for("uploads");
        let ups: Vec<UpdateUpload> = (0..fleet)
            .map(|k| random_upload(&rt, &mut rng, k as u64))
            .collect();
        for (i, up) in ups.iter().enumerate() {
            aligned.handle_upload(up.clone());
            if i + 1 < fleet {
                prop_assert_eq!(aligned.pending_uploads(), i + 1);
            }
        }
        // The fleet-th upload hit the watermark and drained the queue.
        prop_assert_eq!(aligned.pending_uploads(), 0);
        let mut scratch = MergeScratch::new();
        for up in ups {
            reference.merge_update(&up.table, &up.frequency, cfg.gamma_global, &mut scratch);
        }
        prop_assert_eq!(aligned.global().frequency(), reference.frequency());
        for c in 0..rt.num_classes() {
            for l in 0..rt.num_cache_points() {
                match (aligned.global().get(c, l), reference.get(c, l)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        for (x, y) in a.iter().zip(b.iter()) {
                            prop_assert!(
                                x.to_bits() == y.to_bits(),
                                "cell ({},{}) differs", c, l
                            );
                        }
                    }
                    _ => prop_assert!(false, "occupancy differs at ({},{})", c, l),
                }
            }
        }
    }

    /// A round-aligned engine run is deterministic: identical records on
    /// a repeat run, across randomized churn/drift/link dynamics.
    #[test]
    fn round_aligned_runs_are_deterministic(
        seed in 500u64..650,
        join_at in 1_000.0f64..40_000.0,
        leave_after in 1usize..ROUNDS,
        shift_at in 10u64..60,
    ) {
        let spec = random_spec(seed, join_at, leave_after, shift_at);
        let first = run_coca(&spec, FlushPolicy::RoundAligned);
        let again = run_coca(&spec, FlushPolicy::RoundAligned);
        assert_reports_identical(&first, &again, "round-aligned repeat run");
    }
}

/// A round-aligned run is a pure function of its spec: an exact repeat
/// regenerates every record series byte for byte.
#[test]
fn round_aligned_repeat_runs_are_byte_identical() {
    let spec = random_spec(902, 12_000.0, 1, 20);
    let first = run_coca(&spec, FlushPolicy::RoundAligned);
    let again = run_coca(&spec, FlushPolicy::RoundAligned);
    assert_reports_identical(&first, &again, "round-aligned repeat run");
}

/// Round-aligned runs finish with an empty queue (the run-end boundary
/// flushes the tail) and still produce a fully populated report.
#[test]
fn round_aligned_flushes_the_tail_at_run_end() {
    let spec = random_spec(901, 20_000.0, 1, 30);
    let (scenario, plan) = spec.materialize();
    let coca = CocaConfig::for_model(ModelId::ResNet101)
        .with_round_frames(spec.frames_per_round)
        .with_flush_policy(FlushPolicy::RoundAligned);
    let mut engine = Engine::new(scenario, EngineConfig::new(coca));
    let report = engine.run_plan(&plan);
    assert_eq!(engine.server().pending_uploads(), 0, "tail must flush");
    assert_eq!(report.frames, plan.total_frames());
    assert!(report.mean_latency_ms > 0.0);
}

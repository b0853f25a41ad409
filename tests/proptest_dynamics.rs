//! Property-based tests over the dynamic-scenario machinery: randomized
//! timelines must preserve the cross-method fairness digest, never
//! deadlock the server FIFO, and survive a JSON round trip bit-for-bit.

use coca::baselines::{EdgeOnlyDriver, FoggyCacheConfig, FoggyCacheDriver};
use coca::core::driver::drive_plan;
use coca::core::spec::PopularityShift;
use coca::core::{DrivePlan, ScenarioSpec};
use coca::net::LinkModel;
use coca::prelude::*;
use proptest::prelude::*;

const BASE_CLIENTS: usize = 2;
const ROUNDS: usize = 2;
const FRAMES: usize = 40;

fn base_scenario(seed: u64) -> ScenarioConfig {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = BASE_CLIENTS;
    sc.seed = seed;
    sc
}

/// A randomized timeline touching every event kind.
#[allow(clippy::too_many_arguments)]
fn random_spec(
    seed: u64,
    join_at: f64,
    join_rounds: usize,
    leave_client: usize,
    leave_after: usize,
    shift_at: u64,
    rot: usize,
    link_at: f64,
    delay_ms: u64,
) -> ScenarioSpec {
    ScenarioSpec::new(base_scenario(seed), ROUNDS, FRAMES)
        .join(join_at, join_rounds)
        .leave(leave_client, leave_after)
        .popularity_shift(None, shift_at, PopularityShift::Rotate(rot))
        .popularity_shift(Some(0), shift_at / 2, PopularityShift::Permute(seed))
        .link_change(
            Some(leave_client),
            link_at,
            LinkModel {
                one_way_delay: SimDuration::from_millis(delay_ms),
                bandwidth_bps: 5.0e6,
            },
        )
}

fn expected_frames(plan: &DrivePlan) -> u64 {
    plan.total_frames()
}

proptest! {
    /// The frame digest is byte-identical across methods under any
    /// dynamics timeline, and every method consumes exactly the planned
    /// frame count.
    #[test]
    fn digest_is_method_invariant_under_random_dynamics(
        seed in 0u64..500,
        join_at in 0.0f64..40_000.0,
        join_rounds in 1usize..3,
        leave_client in 0usize..BASE_CLIENTS,
        leave_after in 1usize..3,
        shift_at in 0u64..120,
        rot in 1usize..9,
        link_at in 0.0f64..30_000.0,
        delay_ms in 1u64..40,
    ) {
        let spec = random_spec(
            seed, join_at, join_rounds, leave_client, leave_after,
            shift_at, rot, link_at, delay_ms,
        );
        prop_assert!(spec.validate().is_ok());

        let (s1, p1) = spec.materialize();
        let edge = drive_plan(&s1, &mut EdgeOnlyDriver::new(&s1), &p1);
        let (s2, p2) = spec.materialize();
        let foggy = drive_plan(&s2, &mut FoggyCacheDriver::new(&s2, FoggyCacheConfig::default()), &p2);
        let (s3, p3) = spec.materialize();
        let mut coca_cfg = CocaConfig::for_model(ModelId::ResNet101);
        coca_cfg.round_frames = FRAMES;
        let mut engine = Engine::new(s3, EngineConfig::new(coca_cfg));
        let coca = engine.run_plan(&p3);

        prop_assert_ne!(edge.frame_digest, 0);
        prop_assert_eq!(edge.frame_digest, foggy.frame_digest);
        prop_assert_eq!(edge.frame_digest, coca.frame_digest);
        let expect = expected_frames(&p1);
        prop_assert_eq!(edge.frames, expect);
        prop_assert_eq!(foggy.frames, expect);
        prop_assert_eq!(coca.frames, expect);
    }

    /// A `Leave` at any point never deadlocks the engine: the run
    /// terminates (the event queue drains, in-flight request/reply pairs
    /// included) and every member consumed exactly its planned rounds.
    /// FoggyCache is the stressor — it is the method with mid-frame
    /// request/reply pairs in flight when a round boundary arrives.
    #[test]
    fn leave_at_any_point_drains_without_deadlock(
        seed in 0u64..500,
        leave_a in 1usize..4,
        leave_b in 1usize..4,
        join_at in 0.0f64..60_000.0,
        join_rounds in 1usize..4,
    ) {
        let mut sc = base_scenario(seed);
        sc.num_clients = 3;
        let spec = ScenarioSpec::new(sc, 3, 30)
            .leave(0, leave_a)
            .leave(2, leave_b)
            .join(join_at, join_rounds);
        let (scenario, plan) = spec.materialize();
        let mut driver = FoggyCacheDriver::new(&scenario, FoggyCacheConfig::default());
        let report = drive_plan(&scenario, &mut driver, &plan);
        // Termination itself is the deadlock-freedom proof; the counts
        // prove the drain was exact (no frame lost, none double-run).
        prop_assert_eq!(report.frames, plan.total_frames());
        for (k, member) in plan.members.iter().enumerate() {
            prop_assert_eq!(
                report.per_client[k].accuracy.total(),
                (member.rounds * plan.frames_per_round) as u64
            );
        }
    }

    /// JSON round trip is lossless: the reloaded spec drives a run with
    /// an identical frame digest and end time.
    #[test]
    fn json_round_trip_preserves_the_run(
        seed in 0u64..500,
        join_at in 0.0f64..40_000.0,
        leave_after in 1usize..3,
        shift_at in 0u64..100,
        rot in 1usize..7,
    ) {
        let spec = ScenarioSpec::new(base_scenario(seed), 2, 30)
            .join(join_at, 1)
            .leave(1, leave_after)
            .popularity_shift(None, shift_at, PopularityShift::Rotate(rot));
        let reloaded = ScenarioSpec::from_json(&spec.to_json())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (s1, p1) = spec.materialize();
        let (s2, p2) = reloaded.materialize();
        let a = drive_plan(&s1, &mut EdgeOnlyDriver::new(&s1), &p1);
        let b = drive_plan(&s2, &mut EdgeOnlyDriver::new(&s2), &p2);
        prop_assert_eq!(a.frame_digest, b.frame_digest);
        prop_assert_eq!(a.frames, b.frames);
        prop_assert_eq!(a.mean_latency_ms.to_bits(), b.mean_latency_ms.to_bits());
    }
}

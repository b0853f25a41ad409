//! Integration tests for the fleet-scale member-state features:
//! per-member frame budgets (`DeviceSpeed` → `MemberPlan::frames_per_round`)
//! and the compact fleet-aggregate metrics mode (`DrivePlan::per_client`).

use coca::core::spec::ScenarioSpec;
use coca::prelude::*;

const FRAMES: usize = 40;

fn spec(seed: u64) -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = 3;
    sc.seed = seed;
    ScenarioSpec::new(sc, 2, FRAMES)
}

fn run(spec: &ScenarioSpec, per_client: bool) -> EngineReport {
    let (scenario, mut plan) = spec.materialize();
    plan.per_client = per_client;
    let coca = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(spec.frames_per_round);
    let mut engine = Engine::new(scenario, EngineConfig::new(coca));
    engine.run_plan(&plan)
}

/// A slow device processes exactly its reduced per-round budget while the
/// rest of the fleet runs the plan-wide one.
#[test]
fn per_member_frame_budget_drives_the_engine() {
    let hetero = spec(700).device_speed(Some(1), 10);
    assert!(hetero.validate().is_ok());
    let (_, plan) = hetero.materialize();
    let report = run(&hetero, true);
    assert_eq!(report.frames, plan.total_frames());
    assert_eq!(report.frames, (2 * FRAMES + 2 * 10 + 2 * FRAMES) as u64);
    for (k, member) in plan.members.iter().enumerate() {
        assert_eq!(
            report.per_client[k].accuracy.total(),
            (member.rounds * plan.member_frames(k)) as u64,
            "client {k} frame count"
        );
    }
    // The slow device really ran fewer frames than its peers.
    assert!(report.per_client[1].accuracy.total() < report.per_client[0].accuracy.total());
}

/// The fleet-aggregate metrics mode folds every client into one summary
/// with identical totals, without perturbing the run itself.
#[test]
fn fleet_aggregate_metrics_preserve_totals_and_digest() {
    let s = spec(701);
    let detailed = run(&s, true);
    let fleet = run(&s, false);

    // Metrics bookkeeping must not change what executed.
    assert_eq!(detailed.frame_digest, fleet.frame_digest);
    assert_eq!(detailed.frames, fleet.frames);
    assert_eq!(
        detailed.mean_latency_ms.to_bits(),
        fleet.mean_latency_ms.to_bits()
    );
    assert_eq!(detailed.end_time, fleet.end_time);

    // One aggregate summary holding the whole fleet's observations.
    assert_eq!(fleet.per_client.len(), 1);
    let agg = &fleet.per_client[0];
    let sum_frames: u64 = detailed.per_client.iter().map(|c| c.accuracy.total()).sum();
    let sum_correct: u64 = detailed
        .per_client
        .iter()
        .map(|c| c.accuracy.correct())
        .sum();
    let sum_uploads: u64 = detailed.per_client.iter().map(|c| c.upload.count()).sum();
    assert_eq!(agg.accuracy.total(), sum_frames);
    assert_eq!(agg.accuracy.correct(), sum_correct);
    assert_eq!(agg.upload.count(), sum_uploads);
    assert_eq!(agg.latency, detailed.latency);

    // The fleet-wide recorder saw every frame in the same order either
    // way; its histogram's lower-bound quantiles are monotone and bounded
    // by the exact max.
    assert_eq!(fleet.latency, detailed.latency);
    assert_eq!(fleet.latency.count(), fleet.frames);
    let exact_max = fleet.latency.max_ms().unwrap();
    let (p50, p95, p99) = (
        fleet.latency.p50_ms().unwrap(),
        fleet.latency.p95_ms().unwrap(),
        fleet.latency.p99_ms().unwrap(),
    );
    assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99 && p99 <= exact_max);
}

//! # coca-baselines — the paper's comparison systems
//!
//! Full implementations of every baseline the evaluation compares against
//! (§VI.B). Each baseline is a
//! [`MethodDriver`](coca_core::driver::MethodDriver) plugged into the
//! **same generic virtual-time engine** that runs CoCa: identical
//! staggered boots, link transfer delays and server FIFO queueing, over
//! the *same* [`coca_core::engine::Scenario`] — so each method sees
//! byte-identical frame streams (asserted via
//! [`EngineReport::frame_digest`](coca_core::engine::EngineReport::frame_digest))
//! under identical contention.
//!
//! There is one way to run a method: build its driver and call
//! [`drive`](coca_core::driver::drive) (a static run) or
//! [`drive_plan`](coca_core::driver::drive_plan) (a
//! [`ScenarioSpec`](coca_core::spec::ScenarioSpec) timeline). Both return
//! an [`EngineReport`](coca_core::engine::EngineReport) whose `method` is
//! the driver's [`name`](coca_core::driver::MethodDriver::name). The
//! drivers:
//!
//! * [`edge_only`] — plain full-model inference (the latency/accuracy
//!   reference); a fully degenerate driver with no server traffic.
//! * [`smtm`] — SMTM-style single-client semantic caching: all preset
//!   cache layers active, hot-spot classes chosen *locally* by frequency ×
//!   recency (95 % mass), local centroid updates, no cross-client sharing.
//! * [`foggycache`] — FoggyCache-style cross-device approximate
//!   computation reuse: A-LSH indexed sample cache over shallow features,
//!   H-kNN homogenized voting, LRU replacement. The server-side global
//!   store is queried on local misses through **real request/response
//!   event pairs** (uplink + FIFO queue + service + downlink).
//! * [`learnedcache`] — LearnedCache-style multi-exit inference with
//!   per-exit learned predictors (nearest-centroid probes trained on
//!   recent self-labelled samples) and periodic retraining whose compute
//!   is charged to the client.
//! * [`replacement`] — the classical cache-replacement policies of Fig. 8
//!   (LRU / FIFO / RAND) applied to semantic cache entries on a fixed
//!   high-benefit layer set.

pub mod edge_only;
pub mod foggycache;
pub mod learnedcache;
pub mod replacement;
pub mod smtm;

pub use edge_only::{run_edge_only, EdgeOnlyDriver};
pub use foggycache::{FoggyCacheConfig, FoggyCacheDriver};
pub use learnedcache::{LearnedCacheConfig, LearnedCacheDriver};
pub use replacement::{ReplacementDriver, ReplacementPolicy};
pub use smtm::SmtmDriver;

#[cfg(test)]
mod fairness_tests {
    //! Cross-method fairness: every driver consumes byte-identical frame
    //! streams from the shared scenario, and every run is deterministic.

    use crate::{
        run_edge_only, EdgeOnlyDriver, FoggyCacheConfig, FoggyCacheDriver, LearnedCacheConfig,
        LearnedCacheDriver, ReplacementDriver, ReplacementPolicy, SmtmDriver,
    };
    use coca_core::driver::{drive, drive_plan, DriveConfig};
    use coca_core::engine::{Engine, EngineConfig, EngineReport, Scenario, ScenarioConfig};
    use coca_core::CocaConfig;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;

    fn scenario_cfg(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        cfg.num_clients = 3;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn all_six_methods_consume_byte_identical_frame_streams() {
        let (rounds, frames) = (2, 80);
        let coca_cfg = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(frames);
        let sc = scenario_cfg(300);
        let drive_cfg = DriveConfig::new(rounds, frames);

        let reports: Vec<EngineReport> = vec![
            {
                let s = Scenario::build(sc.clone());
                run_edge_only(&s, rounds, frames)
            },
            {
                let s = Scenario::build(sc.clone());
                let mut d = SmtmDriver::new(&s, &coca_cfg);
                drive(&s, &mut d, &drive_cfg)
            },
            {
                let s = Scenario::build(sc.clone());
                let mut d = FoggyCacheDriver::new(&s, FoggyCacheConfig::default());
                drive(&s, &mut d, &drive_cfg)
            },
            {
                let s = Scenario::build(sc.clone());
                let cfg = LearnedCacheConfig::for_model(coca_cfg.theta, frames);
                drive(&s, &mut LearnedCacheDriver::new(&s, cfg), &drive_cfg)
            },
            {
                let s = Scenario::build(sc.clone());
                let mut d = ReplacementDriver::new(&s, ReplacementPolicy::Lru, 10, 4);
                drive(&s, &mut d, &drive_cfg)
            },
            {
                let mut engine_cfg = EngineConfig::new(coca_cfg);
                engine_cfg.rounds = rounds;
                let mut engine = Engine::new(Scenario::build(sc.clone()), engine_cfg);
                engine.run()
            },
        ];

        let reference = reports[0].frame_digest;
        assert_ne!(reference, 0, "digest must be populated");
        for r in &reports {
            assert_eq!(
                r.frame_digest, reference,
                "{} consumed a different frame stream than {}",
                r.method, reports[0].method
            );
        }
    }

    #[test]
    fn all_six_methods_agree_on_digest_under_a_dynamic_timeline() {
        // Churn + drift + link dynamics: the fairness invariant must hold
        // for the same reason it holds statically — frame-consuming
        // events are keyed in client-progress space.
        use coca_core::spec::{PopularityShift, ScenarioSpec};
        use coca_net::LinkModel;
        use coca_sim::SimDuration;

        let frames = 60;
        let coca_cfg = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(frames);
        let spec = ScenarioSpec::new(scenario_cfg(320), 3, frames)
            .join(4_000.0, 2)
            .leave(1, 2)
            .popularity_shift(None, 90, PopularityShift::Rotate(5))
            .link_change(
                Some(0),
                2_000.0,
                LinkModel {
                    one_way_delay: SimDuration::from_millis(30),
                    bandwidth_bps: 2.0e6,
                },
            );
        let expected_frames = ((3 - 1) * 3 + 2 + 2) as u64 * frames as u64;

        let reports: Vec<EngineReport> = vec![
            {
                let (s, plan) = spec.materialize();
                drive_plan(&s, &mut EdgeOnlyDriver::new(&s), &plan)
            },
            {
                let (s, plan) = spec.materialize();
                let mut d = SmtmDriver::new(&s, &coca_cfg);
                drive_plan(&s, &mut d, &plan)
            },
            {
                let (s, plan) = spec.materialize();
                let mut d = FoggyCacheDriver::new(&s, FoggyCacheConfig::default());
                drive_plan(&s, &mut d, &plan)
            },
            {
                let (s, plan) = spec.materialize();
                let cfg = LearnedCacheConfig::for_model(coca_cfg.theta, frames);
                drive_plan(&s, &mut LearnedCacheDriver::new(&s, cfg), &plan)
            },
            {
                let (s, plan) = spec.materialize();
                let mut d = ReplacementDriver::new(&s, ReplacementPolicy::Lru, 10, 4);
                drive_plan(&s, &mut d, &plan)
            },
            {
                let (s, plan) = spec.materialize();
                let mut engine = Engine::new(s, EngineConfig::new(coca_cfg));
                engine.run_plan(&plan)
            },
        ];
        let reference = reports[0].frame_digest;
        assert_ne!(reference, 0);
        for r in &reports {
            assert_eq!(
                r.frame_digest, reference,
                "{} diverged from the shared stream",
                r.method
            );
            assert_eq!(
                r.frames, expected_frames,
                "{} consumed a different count",
                r.method
            );
        }
    }

    #[test]
    fn every_baseline_run_is_deterministic() {
        // Mirrors `engine_is_deterministic` for each ported driver: same
        // scenario, same config → bit-identical report.
        let (rounds, frames) = (2, 60);
        let coca_cfg = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(frames);
        let drive_cfg = DriveConfig::new(rounds, frames);
        let runs: Vec<Box<dyn Fn() -> EngineReport>> = vec![
            Box::new(move || run_edge_only(&Scenario::build(scenario_cfg(301)), rounds, frames)),
            Box::new(move || {
                let s = Scenario::build(scenario_cfg(301));
                let mut d = SmtmDriver::new(&s, &coca_cfg);
                drive(&s, &mut d, &drive_cfg)
            }),
            Box::new(move || {
                let s = Scenario::build(scenario_cfg(301));
                let mut d = FoggyCacheDriver::new(&s, FoggyCacheConfig::default());
                drive(&s, &mut d, &drive_cfg)
            }),
            Box::new(move || {
                let s = Scenario::build(scenario_cfg(301));
                let cfg = LearnedCacheConfig::for_model(coca_cfg.theta, frames);
                drive(&s, &mut LearnedCacheDriver::new(&s, cfg), &drive_cfg)
            }),
            Box::new(move || {
                let s = Scenario::build(scenario_cfg(301));
                let mut d = ReplacementDriver::new(&s, ReplacementPolicy::Rand, 8, 4);
                drive(&s, &mut d, &drive_cfg)
            }),
        ];
        for run in runs {
            let a = run();
            let b = run();
            assert_eq!(a.mean_latency_ms, b.mean_latency_ms, "{} latency", a.method);
            assert_eq!(a.accuracy_pct, b.accuracy_pct, "{} accuracy", a.method);
            assert_eq!(a.hit_ratio, b.hit_ratio, "{} hit ratio", a.method);
            assert_eq!(a.frame_digest, b.frame_digest, "{} digest", a.method);
        }
    }
}

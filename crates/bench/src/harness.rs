//! Method runners and the parallel sweep engine shared by the experiment
//! binaries.
//!
//! Every method consumes a scenario rebuilt from the same
//! [`ScenarioConfig`] — identical feature universe, client drift profiles
//! and frame streams — and runs through the same generic virtual-time
//! engine ([`coca_core::driver::drive`]), so rows of one table differ only
//! by the method.
//!
//! Sweeps fan out over a rayon-style thread pool via [`parallel_sweep`]:
//! each job rebuilds its scenario deterministically and runs in isolation,
//! and results come back **in input order**, so a parallel sweep is
//! bit-identical to running the same jobs serially.

use coca_baselines::{
    run_edge_only_plan, run_edge_only_with, run_foggycache_plan, run_foggycache_with,
    run_learnedcache_plan, run_learnedcache_with, run_replacement_plan, run_replacement_with,
    run_smtm_plan, run_smtm_with, FoggyCacheConfig, LearnedCacheConfig, MethodReport,
    ReplacementPolicy, SmtmConfig,
};
use coca_core::driver::DriveConfig;
use coca_core::engine::{Engine, EngineConfig, EngineReport, Scenario, ScenarioConfig};
use coca_core::spec::ScenarioSpec;
use coca_core::CocaConfig;
use rayon::prelude::*;

/// Entries-per-layer budget for the Replacement (LRU) row of the
/// six-method dynamic comparisons (Fig. 8's mid-size setting).
pub const SPEC_REPLACEMENT_ENTRIES: usize = 30;
/// Fixed high-benefit layer count for the Replacement row.
pub const SPEC_REPLACEMENT_LAYERS: usize = 4;

/// How long each method runs.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Rounds per client.
    pub rounds: usize,
    /// Frames per round (CoCa's F; other methods run the same frame count).
    pub frames: usize,
}

impl RunSpec {
    /// The default experiment length: enough rounds for the collaborative
    /// machinery to reach steady state while keeping sweeps fast.
    pub fn standard() -> Self {
        Self {
            rounds: 6,
            frames: 300,
        }
    }

    /// Shorter runs for wide parameter sweeps.
    pub fn quick() -> Self {
        Self {
            rounds: 4,
            frames: 200,
        }
    }
}

/// Runs `job` over every item on the workspace thread pool, returning
/// results in input order (bit-identical to a serial map — each job must
/// derive all randomness from its input, which scenario-seeded runs do).
pub fn parallel_sweep<T, R, F>(items: Vec<T>, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    items.into_par_iter().map(job).collect()
}

/// The methods of the paper's comparison tables, as sweepable jobs.
#[derive(Debug, Clone, Copy)]
enum Method {
    EdgeOnly,
    LearnedCache,
    FoggyCache,
    Smtm,
    /// The Fig. 8-style managed cache (only part of the six-method
    /// dynamic comparisons; the five-method paper tables omit it).
    ReplacementLru,
    Coca,
}

impl Method {
    /// Runs this method under `drive_cfg` — the *one* set of engine knobs
    /// every method of the comparison shares, so all rows price identical
    /// network and boot conditions.
    fn run(self, sc: &ScenarioConfig, coca: CocaConfig, drive_cfg: &DriveConfig) -> MethodReport {
        match self {
            Method::EdgeOnly => run_edge_only_with(&Scenario::build(sc.clone()), drive_cfg),
            Method::LearnedCache => {
                let cfg = LearnedCacheConfig::for_model(coca.theta, drive_cfg.frames_per_round);
                run_learnedcache_with(&Scenario::build(sc.clone()), &cfg, drive_cfg)
            }
            Method::FoggyCache => run_foggycache_with(
                &Scenario::build(sc.clone()),
                &FoggyCacheConfig::default(),
                drive_cfg,
            ),
            Method::Smtm => {
                let cfg = SmtmConfig::from_coca(&coca);
                run_smtm_with(&Scenario::build(sc.clone()), &cfg, drive_cfg)
            }
            Method::ReplacementLru => run_replacement_with(
                &Scenario::build(sc.clone()),
                ReplacementPolicy::Lru,
                SPEC_REPLACEMENT_ENTRIES,
                SPEC_REPLACEMENT_LAYERS,
                drive_cfg,
            ),
            Method::Coca => {
                let mut coca = coca;
                coca.round_frames = drive_cfg.frames_per_round;
                let mut engine_cfg = EngineConfig::new(coca);
                engine_cfg.rounds = drive_cfg.rounds;
                engine_cfg.link = drive_cfg.link;
                engine_cfg.boot_window_ms = drive_cfg.boot_window_ms;
                let mut engine = Engine::new(Scenario::build(sc.clone()), engine_cfg);
                MethodReport::from_engine("CoCa", engine.run())
            }
        }
    }

    /// Runs this method under a materialized [`ScenarioSpec`] pair — the
    /// dynamic-scenario twin of [`Method::run`]. `coca.round_frames` must
    /// already equal the spec's `frames_per_round`.
    fn run_plan(
        self,
        scenario: Scenario,
        plan: &coca_core::DrivePlan,
        coca: CocaConfig,
    ) -> MethodReport {
        match self {
            Method::EdgeOnly => run_edge_only_plan(&scenario, plan),
            Method::LearnedCache => {
                let cfg = LearnedCacheConfig::for_model(coca.theta, plan.frames_per_round);
                run_learnedcache_plan(&scenario, &cfg, plan)
            }
            Method::FoggyCache => {
                run_foggycache_plan(&scenario, &FoggyCacheConfig::default(), plan)
            }
            Method::Smtm => run_smtm_plan(&scenario, &SmtmConfig::from_coca(&coca), plan),
            Method::ReplacementLru => run_replacement_plan(
                &scenario,
                ReplacementPolicy::Lru,
                SPEC_REPLACEMENT_ENTRIES,
                SPEC_REPLACEMENT_LAYERS,
                plan,
            ),
            Method::Coca => {
                let mut engine =
                    Engine::with_cells(scenario, EngineConfig::new(coca), plan.topology.cells);
                MethodReport::from_engine("CoCa", engine.run_plan(plan))
            }
        }
    }
}

/// Converts an engine report into the common method report shape.
pub fn coca_method_report(name: &str, r: EngineReport) -> MethodReport {
    MethodReport::from_engine(name, r)
}

/// Runs CoCa (the full engine) over a freshly built scenario.
pub fn run_coca(sc: &ScenarioConfig, coca: CocaConfig, spec: RunSpec) -> MethodReport {
    let report = run_coca_engine(sc, coca, spec).1;
    coca_method_report("CoCa", report)
}

/// Runs CoCa and also returns the engine (for post-run inspection).
pub fn run_coca_engine(
    sc: &ScenarioConfig,
    mut coca: CocaConfig,
    spec: RunSpec,
) -> (Engine, EngineReport) {
    coca.round_frames = spec.frames;
    let mut engine_cfg = EngineConfig::new(coca);
    engine_cfg.rounds = spec.rounds;
    let mut engine = Engine::new(Scenario::build(sc.clone()), engine_cfg);
    let report = engine.run();
    (engine, report)
}

/// Runs all five methods of the paper's comparison tables **in parallel**,
/// returned in the paper's reporting order: Edge-Only, LearnedCache,
/// FoggyCache, SMTM, CoCa. Each method rebuilds the scenario from `sc`, so
/// every row of the comparison consumed byte-identical frame streams.
pub fn run_all_methods(sc: &ScenarioConfig, coca: CocaConfig, spec: RunSpec) -> Vec<MethodReport> {
    let drive_cfg = DriveConfig::new(spec.rounds, spec.frames);
    let methods = vec![
        Method::EdgeOnly,
        Method::LearnedCache,
        Method::FoggyCache,
        Method::Smtm,
        Method::Coca,
    ];
    parallel_sweep(methods, |m| m.run(sc, coca, &drive_cfg))
}

/// Runs **all six methods** (Edge-Only, LearnedCache, FoggyCache, SMTM,
/// Replacement-LRU, CoCa) over one shared [`ScenarioSpec`] — dynamics
/// timeline included — in parallel. Every job re-materializes the spec,
/// so each row consumed byte-identical frame streams under identical
/// churn, drift and link conditions (the reports' `frame_digest`s agree).
pub fn run_all_methods_spec(spec: &ScenarioSpec, coca: CocaConfig) -> Vec<MethodReport> {
    let mut coca = coca;
    coca.round_frames = spec.frames_per_round;
    let methods = vec![
        Method::EdgeOnly,
        Method::LearnedCache,
        Method::FoggyCache,
        Method::Smtm,
        Method::ReplacementLru,
        Method::Coca,
    ];
    parallel_sweep(methods, move |m| {
        let (scenario, plan) = spec.materialize();
        m.run_plan(scenario, &plan, coca)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;

    #[test]
    fn all_five_run_on_identical_streams() {
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 2;
        sc.seed = 200;
        let coca = CocaConfig::for_model(ModelId::ResNet101);
        let spec = RunSpec {
            rounds: 2,
            frames: 80,
        };
        let reports = run_all_methods(&sc, coca, spec);
        assert_eq!(reports.len(), 5);
        let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Edge-Only", "LearnedCache", "FoggyCache", "SMTM", "CoCa"]
        );
        for r in &reports {
            assert_eq!(r.frames, 2 * 2 * 80, "{}", r.name);
            // The engine digest proves identical streams across methods.
            assert_eq!(r.frame_digest, reports[0].frame_digest, "{}", r.name);
        }
        // Edge-Only is the latency ceiling (within noise).
        let edge = reports[0].mean_latency_ms;
        for r in &reports[1..] {
            assert!(
                r.mean_latency_ms <= edge * 1.15,
                "{} at {}",
                r.name,
                r.mean_latency_ms
            );
        }
    }

    #[test]
    fn six_method_spec_run_shares_one_digest() {
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 2;
        sc.seed = 202;
        let spec = ScenarioSpec::new(sc, 1, 40).join(3_000.0, 1).leave(0, 1);
        let coca = CocaConfig::for_model(ModelId::ResNet101);
        let reports = run_all_methods_spec(&spec, coca);
        assert_eq!(reports.len(), 6);
        let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Edge-Only",
                "LearnedCache",
                "FoggyCache",
                "SMTM",
                "LRU",
                "CoCa"
            ]
        );
        for r in &reports {
            assert_eq!(r.frames, 3 * 40, "{}", r.name);
            assert_eq!(r.frame_digest, reports[0].frame_digest, "{}", r.name);
            assert!(!r.windowed.is_empty(), "{} has no windowed series", r.name);
        }
    }

    /// A 2-cell gossip spec with one handover, 3 rounds × 40 frames.
    fn two_cell_spec() -> (ScenarioSpec, CocaConfig) {
        use coca_core::spec::{SyncMode, TopologySpec};
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 4;
        sc.seed = 203;
        let spec = ScenarioSpec::new(sc, 3, 40)
            .topology(TopologySpec::uniform(2, 4).with_sync(400.0, SyncMode::Gossip))
            .migrate(0, 1, 1);
        let coca = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(40);
        (spec, coca)
    }

    #[test]
    fn topology_spec_coca_row_is_the_multi_cell_run() {
        let (spec, coca) = two_cell_spec();
        let reports = run_all_methods_spec(&spec, coca);
        for r in &reports {
            assert_eq!(r.frame_digest, reports[0].frame_digest, "{}", r.name);
        }
        let (scenario, plan) = spec.materialize();
        let direct = Engine::with_cells(scenario, EngineConfig::new(coca), 2).run_plan(&plan);
        let row = reports.last().unwrap();
        assert_eq!(row.name, "CoCa");
        assert_eq!(row.mean_latency_ms, direct.mean_latency_ms);
        assert_eq!(row.accuracy_pct, direct.accuracy_pct);
        assert_eq!(row.hit_ratio, direct.hit_ratio);
        assert_eq!(row.frame_digest, direct.frame_digest);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn topology_spec_on_a_one_cell_engine_panics() {
        let (spec, coca) = two_cell_spec();
        let (scenario, plan) = spec.materialize();
        Engine::new(scenario, EngineConfig::new(coca)).run_plan(&plan);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 2;
        sc.seed = 201;
        let coca = CocaConfig::for_model(ModelId::ResNet101);
        let spec = RunSpec {
            rounds: 2,
            frames: 60,
        };
        let seeds: Vec<u64> = (0..6).collect();
        let parallel = parallel_sweep(seeds.clone(), |s| {
            let mut sc = sc.clone();
            sc.seed = 400 + s;
            run_coca(&sc, coca, spec)
        });
        let serial: Vec<MethodReport> = seeds
            .iter()
            .map(|&s| {
                let mut sc = sc.clone();
                sc.seed = 400 + s;
                run_coca(&sc, coca, spec)
            })
            .collect();
        for (p, q) in parallel.iter().zip(&serial) {
            assert_eq!(p.mean_latency_ms, q.mean_latency_ms);
            assert_eq!(p.accuracy_pct, q.accuracy_pct);
            assert_eq!(p.hit_ratio, q.hit_ratio);
            assert_eq!(p.frame_digest, q.frame_digest);
        }
    }
}

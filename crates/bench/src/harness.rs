//! The one method dispatch and the parallel sweep engine shared by the
//! experiments.
//!
//! Every method consumes a scenario rebuilt from the same
//! [`ScenarioConfig`] — identical feature universe, client drift profiles
//! and frame streams — and runs one way: its
//! [`MethodDriver`](coca_core::driver::MethodDriver) through
//! [`coca_core::driver::drive_plan`] (CoCa through
//! [`Engine::run_plan`], which wraps the same loop), so rows of one table
//! differ only by the method. Each returns an [`EngineReport`] named by
//! its driver. A static comparison ([`run_all_methods`]) runs under the
//! plan [`DrivePlan::from_config`] induces, which reproduces a
//! [`coca_core::driver::drive`] run bit for bit; a timeline comparison
//! ([`run_all_methods_spec`]) runs under a materialized [`ScenarioSpec`].
//!
//! Sweeps fan out over scoped threads via [`parallel_sweep`], one worker
//! per core the process may use: each job rebuilds its scenario
//! deterministically and runs in isolation, and results come back **in
//! input order**, so a parallel sweep is bit-identical to running the same
//! jobs serially.

use coca_baselines::{
    EdgeOnlyDriver, FoggyCacheConfig, FoggyCacheDriver, LearnedCacheConfig, LearnedCacheDriver,
    ReplacementDriver, ReplacementPolicy, SmtmDriver,
};
use coca_core::driver::{drive_plan, DriveConfig, DrivePlan};
use coca_core::engine::{Engine, EngineConfig, EngineReport, Scenario, ScenarioConfig};
use coca_core::spec::ScenarioSpec;
use coca_core::CocaConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Entries-per-layer budget for the Replacement (LRU) row of the
/// six-method dynamic comparisons (Fig. 8's mid-size setting).
pub const SPEC_REPLACEMENT_ENTRIES: usize = 30;
/// Fixed high-benefit layer count for the Replacement row.
pub const SPEC_REPLACEMENT_LAYERS: usize = 4;

/// Runs `job` over every item on `available_parallelism()` scoped
/// workers pulling indices from a shared counter, returning results in
/// input order (bit-identical to a serial map — each job must derive all
/// randomness from its input, which scenario-seeded runs do). At width 1
/// (one core, or one item) the map runs inline and spawns nothing.
pub fn parallel_sweep<T, R, F>(items: Vec<T>, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get().min(n));
    if workers <= 1 {
        return items.into_iter().map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().unwrap();
                *results[i].lock().unwrap() = Some(job(item));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().unwrap().unwrap())
        .collect()
}

/// The methods of the comparisons, as sweepable jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Full-model inference on every frame; reads no `CocaConfig`.
    EdgeOnly,
    /// Multi-exit inference; its exits read the config's Θ.
    LearnedCache,
    /// Cross-device reuse under `FoggyCacheConfig::default()`; reads no
    /// `CocaConfig`.
    FoggyCache,
    /// Single-client semantic caching; reads the config's Θ and α.
    Smtm,
    /// The Fig. 8-style managed cache (only part of the six-method
    /// dynamic comparisons; the five-method paper tables omit it).
    ReplacementLru,
    /// The full engine.
    Coca,
}

impl Method {
    /// The five methods of the paper's comparison tables, in its reporting
    /// order.
    pub const PAPER: [Method; 5] = [
        Method::EdgeOnly,
        Method::LearnedCache,
        Method::FoggyCache,
        Method::Smtm,
        Method::Coca,
    ];

    /// Runs this method over `scenario` under `plan` — the one set of
    /// engine knobs every method of the comparison shares, so all rows
    /// price identical network, boot and churn conditions.
    /// `coca.round_frames` must already equal `plan.frames_per_round`.
    fn run(self, scenario: Scenario, plan: &DrivePlan, coca: CocaConfig) -> EngineReport {
        let s = &scenario;
        match self {
            Method::EdgeOnly => drive_plan(s, &mut EdgeOnlyDriver::new(s), plan),
            Method::LearnedCache => {
                let cfg = LearnedCacheConfig::for_model(coca.theta, plan.frames_per_round);
                drive_plan(s, &mut LearnedCacheDriver::new(s, cfg), plan)
            }
            Method::FoggyCache => {
                let mut driver = FoggyCacheDriver::new(s, FoggyCacheConfig::default());
                drive_plan(s, &mut driver, plan)
            }
            Method::Smtm => {
                let mut driver = SmtmDriver::new(s, &coca);
                drive_plan(s, &mut driver, plan)
            }
            Method::ReplacementLru => {
                let mut driver = ReplacementDriver::new(
                    s,
                    ReplacementPolicy::Lru,
                    SPEC_REPLACEMENT_ENTRIES,
                    SPEC_REPLACEMENT_LAYERS,
                );
                drive_plan(s, &mut driver, plan)
            }
            Method::Coca => {
                Engine::with_cells(scenario, EngineConfig::new(coca), plan.topology.cells)
                    .run_plan(plan)
            }
        }
    }

    /// Runs this method over a scenario freshly built from `sc` under the
    /// static plan `cfg` induces.
    fn run_static(
        self,
        sc: &ScenarioConfig,
        mut coca: CocaConfig,
        cfg: &DriveConfig,
    ) -> EngineReport {
        coca.round_frames = cfg.frames_per_round;
        let plan = DrivePlan::from_config(cfg, sc.num_clients);
        self.run(Scenario::build(sc.clone()), &plan, coca)
    }
}

/// Runs CoCa (the full engine) over a freshly built scenario.
pub fn run_coca(sc: &ScenarioConfig, coca: CocaConfig, cfg: &DriveConfig) -> EngineReport {
    Method::Coca.run_static(sc, coca, cfg)
}

/// Runs `methods` **in parallel**, one report each in the order given
/// ([`Method::PAPER`] for the paper's comparison tables). Each method
/// rebuilds the scenario from `sc`, so every row of the comparison
/// consumed byte-identical frame streams.
pub fn run_all_methods(
    sc: &ScenarioConfig,
    coca: CocaConfig,
    cfg: &DriveConfig,
    methods: &[Method],
) -> Vec<EngineReport> {
    parallel_sweep(methods.to_vec(), |m| m.run_static(sc, coca, cfg))
}

/// Runs **all six methods** (Edge-Only, LearnedCache, FoggyCache, SMTM,
/// Replacement-LRU, CoCa) over one shared [`ScenarioSpec`] — dynamics
/// timeline included — in parallel. Every job re-materializes the spec,
/// so each row consumed byte-identical frame streams under identical
/// churn, drift and link conditions (the reports' `frame_digest`s agree).
pub fn run_all_methods_spec(spec: &ScenarioSpec, coca: CocaConfig) -> Vec<EngineReport> {
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
        m.run(scenario, &plan, coca)
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
        let reports = run_all_methods(&sc, coca, &DriveConfig::new(2, 80), &Method::PAPER);
        assert_eq!(reports.len(), 5);
        let names: Vec<&str> = reports.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(
            names,
            vec!["Edge-Only", "LearnedCache", "FoggyCache", "SMTM", "CoCa"]
        );
        for r in &reports {
            assert_eq!(r.frames, 2 * 2 * 80, "{}", r.method);
            // The engine digest proves identical streams across methods.
            assert_eq!(r.frame_digest, reports[0].frame_digest, "{}", r.method);
        }
        // Edge-Only is the latency ceiling (within noise).
        let edge = reports[0].mean_latency_ms;
        for r in &reports[1..] {
            assert!(
                r.mean_latency_ms <= edge * 1.15,
                "{} at {}",
                r.method,
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
        let names: Vec<&str> = reports.iter().map(|r| r.method.as_str()).collect();
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
            assert_eq!(r.frames, 3 * 40, "{}", r.method);
            assert_eq!(r.frame_digest, reports[0].frame_digest, "{}", r.method);
            assert!(
                !r.windowed.is_empty(),
                "{} has no windowed series",
                r.method
            );
        }
    }

    #[test]
    fn static_and_spec_paths_agree_for_every_method() {
        // `ScenarioSpec::new` without events is the static plan, so the
        // five shared rows must match bit for bit.
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 2;
        sc.seed = 204;
        let coca = CocaConfig::for_model(ModelId::ResNet101);
        let fixed = run_all_methods(&sc, coca, &DriveConfig::new(2, 60), &Method::PAPER);
        let timeline = run_all_methods_spec(&ScenarioSpec::new(sc, 2, 60), coca);
        let shared: Vec<&EngineReport> = timeline.iter().filter(|r| r.method != "LRU").collect();
        assert_eq!(fixed.len(), shared.len());
        for (a, b) in fixed.iter().zip(shared) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.frames, b.frames, "{}", a.method);
            assert_eq!(a.frame_digest, b.frame_digest, "{}", a.method);
            assert_eq!(
                a.mean_latency_ms.to_bits(),
                b.mean_latency_ms.to_bits(),
                "{}",
                a.method
            );
            assert_eq!(
                a.accuracy_pct.to_bits(),
                b.accuracy_pct.to_bits(),
                "{}",
                a.method
            );
            assert_eq!(a.hit_ratio.to_bits(), b.hit_ratio.to_bits(), "{}", a.method);
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
            assert_eq!(r.frame_digest, reports[0].frame_digest, "{}", r.method);
        }
        let (scenario, plan) = spec.materialize();
        let direct = Engine::with_cells(scenario, EngineConfig::new(coca), 2).run_plan(&plan);
        let row = reports.last().unwrap();
        assert_eq!(row.method, "CoCa");
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
        let cfg = DriveConfig::new(2, 60);
        let seeds: Vec<u64> = (0..6).collect();
        let parallel = parallel_sweep(seeds.clone(), |s| {
            let mut sc = sc.clone();
            sc.seed = 400 + s;
            run_coca(&sc, coca, &cfg)
        });
        let serial: Vec<EngineReport> = seeds
            .iter()
            .map(|&s| {
                let mut sc = sc.clone();
                sc.seed = 400 + s;
                run_coca(&sc, coca, &cfg)
            })
            .collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, q) in parallel.iter().zip(&serial) {
            assert_eq!(p.mean_latency_ms, q.mean_latency_ms);
            assert_eq!(p.accuracy_pct, q.accuracy_pct);
            assert_eq!(p.hit_ratio, q.hit_ratio);
            assert_eq!(p.frame_digest, q.frame_digest);
        }
        // The degenerate widths: nothing to run, and one item run inline.
        assert!(parallel_sweep(Vec::<u32>::new(), |x| x + 1).is_empty());
        assert_eq!(parallel_sweep(vec![9u32], |x| x + 1), vec![10]);
    }
}

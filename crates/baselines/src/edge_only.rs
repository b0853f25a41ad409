//! Edge-Only: full-model inference on every frame (§VI.B).
//!
//! The reference point every acceleration method is measured against —
//! both for latency (no cache, no lookup overhead) and for accuracy (no
//! early-exit errors). As a [`MethodDriver`] it is fully degenerate: no
//! allocation phase, no server queries, no uploads — clients boot and burn
//! through frames at full-model cost inside the shared event loop.

use coca_core::driver::{drive, DriveConfig, FrameOutcome, FrameStep, MethodDriver, NoMsg};
use coca_core::engine::{EngineReport, Scenario};
use coca_data::Frame;
use coca_model::ClientFeatureView;
use coca_sim::SimDuration;

/// The Edge-Only method driver. It has no shared state, so churn needs
/// no method-side handling.
pub struct EdgeOnlyDriver<'s> {
    scenario: &'s Scenario,
    views: Vec<ClientFeatureView>,
    full: SimDuration,
}

impl<'s> EdgeOnlyDriver<'s> {
    /// Builds the driver over a scenario.
    pub fn new(scenario: &'s Scenario) -> Self {
        let n = scenario.profiles.len();
        Self {
            scenario,
            views: (0..n).map(|_| ClientFeatureView::new()).collect(),
            full: scenario.rt.full_compute(),
        }
    }
}

impl MethodDriver for EdgeOnlyDriver<'_> {
    type Request = NoMsg;
    type Alloc = NoMsg;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = NoMsg;

    fn name(&self) -> &str {
        "Edge-Only"
    }

    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<NoMsg> {
        let rt = &self.scenario.rt;
        let p = rt.classify(frame, &self.scenario.profiles[k], &mut self.views[k]);
        FrameStep::Done(FrameOutcome {
            compute: self.full,
            correct: p.correct,
            hit_point: None,
        })
    }
}

/// Runs Edge-Only over `rounds × frames_per_round` frames per client:
/// [`drive`] on an [`EdgeOnlyDriver`]. Every other method is run by
/// building its driver and calling `drive`/`drive_plan` directly; this
/// one shorthand stays because the benchmark's `engine_sim` set-up calls
/// it for its latency reference (`benchmark/README.md` § "Pinned API
/// surface").
pub fn run_edge_only(scenario: &Scenario, rounds: usize, frames_per_round: usize) -> EngineReport {
    drive(
        scenario,
        &mut EdgeOnlyDriver::new(scenario),
        &DriveConfig::new(rounds, frames_per_round),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::engine::ScenarioConfig;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;

    #[test]
    fn edge_only_has_constant_latency_and_no_hits() {
        let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        cfg.num_clients = 2;
        cfg.seed = 80;
        let scenario = coca_core::engine::Scenario::build(cfg);
        let full = scenario.rt.full_compute().as_millis_f64();
        let r = run_edge_only(&scenario, 2, 100);
        assert_eq!(r.frames, 2 * 2 * 100);
        assert!((r.mean_latency_ms - full).abs() < 1e-9);
        assert_eq!(r.hit_ratio, 0.0);
        assert!(r.accuracy_pct > 60.0, "accuracy {}", r.accuracy_pct);
    }

    #[test]
    fn drive_names_the_row_and_reports_every_client() {
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 2;
        sc.seed = 310;
        let scenario = Scenario::build(sc);
        let mut driver = EdgeOnlyDriver::new(&scenario);
        let r = drive(&scenario, &mut driver, &DriveConfig::new(1, 50));
        assert_eq!(r.method, "Edge-Only");
        assert_eq!(r.frames, 2 * 50);
        assert_eq!(r.per_client.len(), 2);
        assert_ne!(r.frame_digest, 0);
    }
}

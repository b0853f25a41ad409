//! The common result type emitted by every method driver.

use coca_core::engine::EngineReport;
use coca_metrics::recorder::{LatencyRecorder, RunSummary};
use coca_metrics::WindowedSummary;

/// Aggregated outcome of running one method over a scenario.
#[derive(Debug, Clone)]
pub struct MethodReport {
    /// Method name as printed in tables (e.g. `"FoggyCache"`).
    pub name: String,
    /// Frames processed across all clients.
    pub frames: u64,
    /// Mean end-to-end inference latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Overall accuracy in percent.
    pub accuracy_pct: f64,
    /// Overall cache/exit hit ratio (0 for Edge-Only).
    pub hit_ratio: f64,
    /// Order-independent digest of the `(client, frame)` stream consumed;
    /// equal digests prove two methods saw byte-identical workloads.
    pub frame_digest: u64,
    /// Global per-frame latency distribution.
    pub latency: LatencyRecorder,
    /// Per-interval (virtual-time window) hit/latency/accuracy series.
    pub windowed: WindowedSummary,
    /// Per-client summaries.
    pub per_client: Vec<RunSummary>,
}

impl MethodReport {
    /// Builds the report from a generic-engine run.
    pub fn from_engine(name: impl Into<String>, report: EngineReport) -> Self {
        Self {
            name: name.into(),
            frames: report.frames,
            mean_latency_ms: report.mean_latency_ms,
            accuracy_pct: report.accuracy_pct,
            hit_ratio: report.hit_ratio,
            frame_digest: report.frame_digest,
            latency: report.latency,
            windowed: report.windowed,
            per_client: report.per_client,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::driver::{drive, DriveConfig};
    use coca_core::engine::{Scenario, ScenarioConfig};
    use coca_data::DatasetSpec;
    use coca_model::ModelId;

    #[test]
    fn from_engine_copies_every_aggregate() {
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 2;
        sc.seed = 310;
        let scenario = Scenario::build(sc);
        let mut driver = crate::EdgeOnlyDriver::new(&scenario);
        let engine = drive(&scenario, &mut driver, &DriveConfig::new(1, 50));
        let digest = engine.frame_digest;
        let r = MethodReport::from_engine("Demo", engine);
        assert_eq!(r.name, "Demo");
        assert_eq!(r.frames, 2 * 50);
        assert_eq!(r.per_client.len(), 2);
        assert_ne!(r.frame_digest, 0);
        assert_eq!(r.frame_digest, digest);
    }
}

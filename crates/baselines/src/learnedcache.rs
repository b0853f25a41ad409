//! LearnedCache-style multi-exit inference (§VI.B).
//!
//! Balasubramanian et al., 2021: "uses multiple exits and learned models to
//! emulate caching operations, allowing early termination of inference
//! upon prediction of cache hits" and "attempts to adapt to the data
//! distribution characteristics of clients through frequent retraining".
//!
//! The reproduction implements the exits as nearest-centroid probes over
//! the exit layer's pooled features, trained on a buffer of recent
//! *self-labelled* samples (labels come from the full model — the exact
//! self-distillation loop learned caches use). Retraining runs every
//! round (F frames) and its compute is charged to the client,
//! reproducing the paper's criticism: retraining overhead degrades QoS,
//! and rare classes never accumulate enough buffer samples for a usable
//! exit predictor — the long-tail weakness.
//!
//! As a [`MethodDriver`] the method is degenerate on the network (exits
//! and retraining are all on-device); it rides the shared event loop so
//! its latencies face the same virtual clock as every other method.

use std::collections::VecDeque;

use coca_core::driver::{FrameOutcome, FrameStep, MethodDriver, NoMsg};
use coca_core::engine::Scenario;
use coca_core::CocaConfig;
use coca_data::Frame;
use coca_math::{ScoreScratch, VectorStore};
use coca_model::ClientFeatureView;
use coca_sim::SimDuration;
/// Number of exits, spread evenly over the preset cache points.
const NUM_EXITS: usize = 5;
/// Per-exit training buffer capacity (samples).
const BUFFER_CAPACITY: usize = 600;
/// Retraining compute charged per buffered sample per exit (ms) —
/// lightweight probe fitting on the device.
const RETRAIN_MS_PER_SAMPLE: f64 = 0.05;
/// Minimum buffered samples before a class gets a centroid.
const MIN_SAMPLES_PER_CLASS: usize = 3;

/// One exit's learned predictor: per-class centroids in a contiguous
/// [`VectorStore`] (classes with too few buffered samples have no row).
struct ExitProbe {
    point: usize,
    num_classes: usize,
    /// Classes with a trained centroid, ascending, parallel to the rows
    /// of `centroids`.
    classes: Vec<usize>,
    centroids: VectorStore,
    /// Training buffer: (feature, label).
    buffer: VecDeque<(Vec<f32>, usize)>,
}

impl ExitProbe {
    fn new(point: usize, classes: usize) -> Self {
        Self {
            point,
            num_classes: classes,
            classes: Vec::new(),
            centroids: VectorStore::empty(),
            buffer: VecDeque::new(),
        }
    }

    fn push_sample(&mut self, feature: Vec<f32>, label: usize, capacity: usize) {
        if self.buffer.len() >= capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back((feature, label));
    }

    /// Rebuilds centroids from the buffer; returns the number of samples
    /// processed (the retraining cost driver).
    fn retrain(&mut self, dim: usize, min_samples: usize) -> usize {
        let mut sums = vec![vec![0.0f32; dim]; self.num_classes];
        let mut counts = vec![0usize; self.num_classes];
        for (f, label) in &self.buffer {
            coca_math::vector::axpy(1.0, f, &mut sums[*label]);
            counts[*label] += 1;
        }
        self.classes.clear();
        self.centroids = VectorStore::new(dim);
        for (c, (mut sum, count)) in sums.into_iter().zip(counts).enumerate() {
            if count >= min_samples {
                coca_math::vector::l2_normalize(&mut sum);
                self.classes.push(c);
                self.centroids.push_row(&sum);
            }
        }
        self.buffer.len()
    }

    /// Exit decision: `Some(class)` when the relative margin between the
    /// two best centroid matches exceeds the threshold. One fused
    /// `score_top2` pass (α = 0: no cross-exit accumulation).
    fn predict(
        &self,
        v: &[f32],
        threshold: f32,
        scratch: &mut ScoreScratch,
    ) -> (Option<usize>, usize) {
        let present = self.classes.len();
        if present == 0 {
            return (None, 0);
        }
        scratch.begin(self.num_classes);
        let top2 = self.centroids.score_top2(v, &self.classes, 0.0, scratch);
        if let (Some((class, b)), Some((_, s))) = (top2.best, top2.second) {
            if s > 1e-3 && (b - s) / s > threshold {
                return (Some(class), present);
            }
        }
        (None, present)
    }
}

/// One LearnedCache client: its exit probes plus retraining bookkeeping.
struct LearnedClient {
    probes: Vec<ExitProbe>,
    view: ClientFeatureView,
    scratch: ScoreScratch,
    since_retrain: usize,
    pending_retrain_ms: f64,
}

/// The LearnedCache method driver. Exits and retraining are all
/// on-device, so churn needs no shared-state handling; a joiner simply
/// starts with empty training buffers.
pub struct LearnedCacheDriver<'s> {
    scenario: &'s Scenario,
    /// An exit fires when the relative margin between the two best
    /// centroid similarities exceeds this: CoCa's Θ, so comparisons
    /// isolate the mechanism.
    exit_threshold: f32,
    /// Retraining period in frames: CoCa's round length F.
    retrain_frames: usize,
    clients: Vec<LearnedClient>,
}

impl<'s> LearnedCacheDriver<'s> {
    /// Builds the driver over a scenario, with the exit threshold and the
    /// retraining period of the CoCa configuration it is compared with.
    pub fn new(scenario: &'s Scenario, coca: &CocaConfig) -> Self {
        let rt = &scenario.rt;
        let l = rt.num_cache_points();
        let classes = rt.num_classes();
        // Exits spread evenly, skipping the very first point (too little
        // compute saved to matter for a learned gate).
        let exits: Vec<usize> = (1..=NUM_EXITS)
            .map(|e| ((e * l) / (NUM_EXITS + 1)).min(l - 1))
            .collect();
        let clients = (0..scenario.profiles.len())
            .map(|_| LearnedClient {
                probes: exits.iter().map(|&p| ExitProbe::new(p, classes)).collect(),
                view: ClientFeatureView::new(),
                scratch: ScoreScratch::new(),
                since_retrain: 0,
                pending_retrain_ms: 0.0,
            })
            .collect();
        Self {
            scenario,
            exit_threshold: coca.theta,
            retrain_frames: coca.round_frames,
            clients,
        }
    }
}

impl MethodDriver for LearnedCacheDriver<'_> {
    type Request = NoMsg;
    type Alloc = NoMsg;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = NoMsg;

    fn name(&self) -> &str {
        "LearnedCache"
    }

    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<NoMsg> {
        let rt = &self.scenario.rt;
        let profile = &self.scenario.profiles[k];
        let client = &mut self.clients[k];
        let mut time = SimDuration::ZERO;
        // Amortize any retraining burst onto the following frame (the
        // device is busy; the next inference waits).
        if client.pending_retrain_ms > 0.0 {
            time += SimDuration::from_millis_f64(client.pending_retrain_ms);
            client.pending_retrain_ms = 0.0;
        }

        let mut outcome: Option<(usize, usize)> = None; // (class, point)
        for probe in &client.probes {
            let v = rt.semantic_vector(frame, profile, probe.point, &mut client.view);
            let (pred, present) = probe.predict(&v, self.exit_threshold, &mut client.scratch);
            time += rt.lookup_cost(probe.point, present);
            if let Some(class) = pred {
                outcome = Some((class, probe.point));
                break;
            }
        }

        let (predicted, hit_point) = match outcome {
            Some((class, point)) => {
                time += rt.compute_to_point(point);
                (class, Some(point))
            }
            None => {
                // Full inference; label feeds every exit buffer.
                let p = rt.classify(frame, profile, &mut client.view);
                time += rt.full_compute();
                for probe in client.probes.iter_mut() {
                    let v = rt.semantic_vector(frame, profile, probe.point, &mut client.view);
                    probe.push_sample(v, p.class, BUFFER_CAPACITY);
                }
                (p.class, None)
            }
        };

        client.since_retrain += 1;
        if client.since_retrain >= self.retrain_frames {
            client.since_retrain = 0;
            let mut samples = 0usize;
            for probe in client.probes.iter_mut() {
                let dim = rt.feature_dim(probe.point);
                samples += probe.retrain(dim, MIN_SAMPLES_PER_CLASS);
            }
            client.pending_retrain_ms = samples as f64 * RETRAIN_MS_PER_SAMPLE;
        }

        FrameStep::Done(FrameOutcome {
            compute: time,
            correct: predicted == frame.class,
            hit_point,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::driver::{drive, DriveConfig};
    use coca_core::engine::{Scenario, ScenarioConfig};
    use coca_data::DatasetSpec;
    use coca_model::ModelId;

    fn scenario(seed: u64) -> Scenario {
        let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        cfg.num_clients = 2;
        cfg.seed = seed;
        Scenario::build(cfg)
    }

    #[test]
    fn probe_learns_centroids_and_exits() {
        let mut probe = ExitProbe::new(0, 3);
        // Feed clean one-hot-ish samples for classes 0 and 1 only.
        for i in 0..20 {
            probe.push_sample(vec![1.0, 0.1 * (i % 3) as f32, 0.2], 0, 100);
            probe.push_sample(vec![0.3, 0.1 * (i % 3) as f32, 1.0], 1, 100);
        }
        let n = probe.retrain(3, 3);
        assert_eq!(n, 40);
        assert_eq!(
            probe.classes,
            vec![0, 1],
            "unseen class must have no centroid"
        );
        assert_eq!(probe.centroids.rows(), 2);
        let mut scratch = ScoreScratch::new();
        let (pred, present) = probe.predict(&[1.0, 0.0, 0.0], 0.05, &mut scratch);
        assert_eq!(pred, Some(0));
        assert_eq!(present, 2);
    }

    #[test]
    fn learnedcache_exits_after_warmup() {
        let s = scenario(95);
        let full = s.rt.full_compute().as_millis_f64();
        let coca = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(150);
        let mut driver = LearnedCacheDriver::new(&s, &coca);
        let r = drive(&s, &mut driver, &DriveConfig::new(4, 150));
        assert_eq!(r.frames, 2 * 4 * 150);
        assert!(r.hit_ratio > 0.1, "hit ratio {}", r.hit_ratio);
        assert!(r.mean_latency_ms < full, "{} vs {full}", r.mean_latency_ms);
    }

    #[test]
    fn learnedcache_is_deterministic() {
        let coca = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(100);
        let run = || {
            let s = scenario(96);
            let mut driver = LearnedCacheDriver::new(&s, &coca);
            drive(&s, &mut driver, &DriveConfig::new(2, 100))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.frame_digest, b.frame_digest);
    }
}

//! Inference with sequential cache lookups (paper §II.3).
//!
//! At each activated cache layer `j` the model's pooled semantic vector is
//! compared against every cached class center: `C_{i,j} = cos(v_j, e_{i,j})`.
//! Scores accumulate across activated layers with decay α (Eq. 1):
//!
//! ```text
//! A_{i,j} = C_{i,j} + α · A_{i,j-1}
//! ```
//!
//! and the layer's discriminative score over the two leading classes a, b
//! (Eq. 2):
//!
//! ```text
//! D_j = (A_{a,j} − A_{b,j}) / A_{b,j}
//! ```
//!
//! triggers an early exit when `D_j > Θ`. A frame that survives every
//! activated layer pays full model compute plus all lookup costs.

use coca_data::Frame;
use coca_math::ScoreScratch;
use coca_sim::SimDuration;

use coca_model::{ClientFeatureView, ClientProfile, ModelRuntime, Prediction};

use crate::config::CocaConfig;
use crate::semantic::LocalCache;

/// Reusable per-thread lookup state: the Eq. 1 accumulator scratch
/// (`infer_with_cache` epochs it per frame) and the buffer a client's
/// frame collects its absorbed vectors in. Frames on one thread never
/// overlap, so one scratch serves any number of clients: a serial caller
/// pools one for its fleet, and a parallel CoCa round gives each of its
/// threads one.
#[derive(Debug, Default)]
pub struct LookupScratch {
    score: ScoreScratch,
    pub(crate) absorbed: Vec<f32>,
}

impl LookupScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Floor on the runner-up score when evaluating Eq. 2 — a vanishing or
/// negative `A_b` means the layer cannot discriminate, not that it is
/// infinitely confident.
const MIN_RUNNER_UP: f32 = 1e-3;

/// Outcome of one cached inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The class reported to the application (hit class or full-model
    /// prediction).
    pub predicted: usize,
    /// Whether `predicted` matches the frame's ground truth.
    pub correct: bool,
    /// End-to-end virtual latency of this frame.
    pub latency: SimDuration,
    /// Model cache point where the hit occurred (`None` = miss).
    pub hit_point: Option<usize>,
    /// Index of the hit layer *within the activated sequence*.
    pub hit_seq_idx: Option<usize>,
    /// Discriminative score at the hit layer (0 when missed).
    pub hit_score: f32,
    /// Full-model prediction (present only on a miss).
    pub full_prediction: Option<Prediction>,
    /// Semantic vectors observed at activated layers up to and including
    /// the exit layer, sorted by point. Rule 1 absorbs exactly these (the
    /// paper collects vectors "limited to the point of the cache hit");
    /// rule 2 absorbs every preset layer, reusing these for the layers
    /// looked up and synthesizing only the rest.
    pub observed: Vec<(usize, Vec<f32>)>,
}

impl InferenceResult {
    /// True iff the cache served this frame.
    pub fn is_hit(&self) -> bool {
        self.hit_point.is_some()
    }
}

/// Runs one frame through the model with the given local cache.
///
/// Pure with respect to the cache — recording, collection and status
/// updates are the caller's job (see [`crate::client`]).
pub fn infer_with_cache(
    rt: &ModelRuntime,
    client: &ClientProfile,
    frame: &Frame,
    cache: &LocalCache,
    cfg: &CocaConfig,
    view: &mut ClientFeatureView,
    scratch: &mut LookupScratch,
) -> InferenceResult {
    let mut lookup_time = SimDuration::ZERO;
    scratch.score.begin(rt.num_classes());
    let mut observed: Vec<(usize, Vec<f32>)> = Vec::with_capacity(cache.num_layers());

    for (seq_idx, layer) in cache.layers().iter().enumerate() {
        let point = layer.point;
        let v = rt.semantic_vector(frame, client, point, view);
        lookup_time += rt.lookup_cost(point, layer.len());

        // Eq. 1 in one fused pass: per entry, a norm-free unit dot (the
        // unit contract was asserted at insertion), decayed accumulation
        // into the per-client scratch, and best/second tracking.
        let top2 = layer
            .vectors
            .score_top2(&v, &layer.classes, cfg.alpha, &mut scratch.score);
        observed.push((point, v));

        // Eq. 2: discriminative score over the two leading classes.
        if let (Some((a_class, a_val)), Some((_, b_val))) = (top2.best, top2.second) {
            if b_val > MIN_RUNNER_UP {
                let d = (a_val - b_val) / b_val;
                if d > cfg.theta {
                    let latency = rt.compute_to_point(point) + lookup_time;
                    return InferenceResult {
                        predicted: a_class,
                        correct: a_class == frame.class,
                        latency,
                        hit_point: Some(point),
                        hit_seq_idx: Some(seq_idx),
                        hit_score: d,
                        full_prediction: None,
                        observed,
                    };
                }
            }
        }
    }

    // Cache miss: run to completion.
    let prediction = rt.classify(frame, client, view);
    let latency = rt.full_compute() + lookup_time;
    InferenceResult {
        predicted: prediction.class,
        correct: prediction.correct,
        latency,
        hit_point: None,
        hit_seq_idx: None,
        hit_score: 0.0,
        full_prediction: Some(prediction),
        observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::CacheLayer;
    use coca_data::distribution::uniform_weights;
    use coca_data::{DatasetSpec, StreamConfig, StreamGenerator};
    use coca_model::ModelId;
    use coca_sim::SeedTree;

    fn setup(classes: usize) -> (ModelRuntime, ClientProfile, CocaConfig) {
        let dataset = DatasetSpec::ucf101().subset(classes);
        let seeds = SeedTree::new(40);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let client = ClientProfile::new(0, 0.0, 0.7, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        (rt, client, cfg)
    }

    /// A cache with entries = exact global centers at the given points.
    fn center_cache(rt: &ModelRuntime, points: &[usize], classes: usize) -> LocalCache {
        let layers = points
            .iter()
            .map(|&p| {
                let mut l = CacheLayer::new(p);
                for c in 0..classes {
                    l.insert(c, rt.universe().global_center(p, c).to_vec());
                }
                l
            })
            .collect();
        LocalCache::from_layers(layers)
    }

    fn frames(classes: usize, n: usize, seed: u64) -> Vec<Frame> {
        StreamGenerator::new(
            StreamConfig::new(uniform_weights(classes), 20.0),
            &SeedTree::new(seed),
        )
        .take(n)
    }

    #[test]
    fn empty_cache_behaves_like_edge_only() {
        let (rt, client, cfg) = setup(20);
        let mut view = ClientFeatureView::new();
        let mut scratch = LookupScratch::new();
        let f = frames(20, 1, 41)[0];
        let r = infer_with_cache(
            &rt,
            &client,
            &f,
            &LocalCache::empty(),
            &cfg,
            &mut view,
            &mut scratch,
        );
        assert!(!r.is_hit());
        assert_eq!(r.latency, rt.full_compute());
        assert!(r.full_prediction.is_some());
        assert!(r.observed.is_empty());
    }

    #[test]
    fn deep_center_cache_hits_most_frames_and_cuts_latency() {
        let (rt, client, cfg) = setup(20);
        let mut view = ClientFeatureView::new();
        let mut scratch = LookupScratch::new();
        // Activate a handful of spread-out layers.
        let cache = center_cache(&rt, &[5, 12, 19, 26, 33], 20);
        let fs = frames(20, 500, 42);
        let mut hits = 0usize;
        let mut total_ms = 0.0;
        for f in &fs {
            let r = infer_with_cache(&rt, &client, f, &cache, &cfg, &mut view, &mut scratch);
            if r.is_hit() {
                hits += 1;
                assert!(r.hit_score > cfg.theta);
                // Hits at shallow/middle layers must be cheaper than full
                // compute; the deepest layer may not be (that is exactly
                // the paper's lookup-overhead trade-off).
                if r.hit_point.unwrap() < 30 {
                    assert!(r.latency < rt.full_compute());
                }
            }
            total_ms += r.latency.as_millis_f64();
        }
        let hit_ratio = hits as f64 / fs.len() as f64;
        assert!(hit_ratio > 0.5, "hit ratio {hit_ratio}");
        let mean = total_ms / fs.len() as f64;
        assert!(
            mean < rt.full_compute().as_millis_f64(),
            "mean {mean} vs full {}",
            rt.full_compute().as_millis_f64()
        );
    }

    #[test]
    fn higher_theta_means_fewer_hits() {
        let (rt, client, cfg) = setup(20);
        let cache = center_cache(&rt, &[10, 20, 30], 20);
        let fs = frames(20, 400, 43);
        let count_hits = |theta: f32| -> usize {
            let mut view = ClientFeatureView::new();
            let mut scratch = LookupScratch::new();
            let cfg = cfg.with_theta(theta);
            fs.iter()
                .filter(|f| {
                    infer_with_cache(&rt, &client, f, &cache, &cfg, &mut view, &mut scratch)
                        .is_hit()
                })
                .count()
        };
        let low = count_hits(0.004);
        let high = count_hits(0.08);
        assert!(low > high, "low-Θ hits {low} vs high-Θ hits {high}");
    }

    #[test]
    fn observed_vectors_stop_at_hit_layer() {
        let (rt, client, cfg) = setup(20);
        let mut view = ClientFeatureView::new();
        let mut scratch = LookupScratch::new();
        let cache = center_cache(&rt, &[5, 15, 25], 20);
        for f in frames(20, 100, 44) {
            let r = infer_with_cache(&rt, &client, &f, &cache, &cfg, &mut view, &mut scratch);
            match r.hit_seq_idx {
                Some(i) => {
                    assert_eq!(r.observed.len(), i + 1);
                    assert_eq!(r.observed.last().unwrap().0, r.hit_point.unwrap());
                }
                None => assert_eq!(r.observed.len(), 3),
            }
        }
    }

    #[test]
    fn lookup_costs_are_charged_even_on_miss() {
        let (rt, client, mut cfg) = setup(20);
        cfg.theta = 10.0; // impossible threshold: everything misses
        let mut view = ClientFeatureView::new();
        let mut scratch = LookupScratch::new();
        let cache = center_cache(&rt, &[0, 17, 33], 20);
        let f = frames(20, 1, 45)[0];
        let r = infer_with_cache(&rt, &client, &f, &cache, &cfg, &mut view, &mut scratch);
        assert!(!r.is_hit());
        let expected = rt.full_compute()
            + rt.lookup_cost(0, 20)
            + rt.lookup_cost(17, 20)
            + rt.lookup_cost(33, 20);
        assert_eq!(r.latency, expected);
    }

    #[test]
    fn single_class_cache_never_hits() {
        let (rt, client, cfg) = setup(20);
        let mut view = ClientFeatureView::new();
        let mut scratch = LookupScratch::new();
        let mut layer = CacheLayer::new(20);
        layer.insert(0, rt.universe().global_center(20, 0).to_vec());
        let cache = LocalCache::from_layers(vec![layer]);
        for f in frames(20, 50, 46) {
            let r = infer_with_cache(&rt, &client, &f, &cache, &cfg, &mut view, &mut scratch);
            assert!(!r.is_hit(), "one cached class cannot discriminate");
        }
    }

    #[test]
    fn accumulation_rewards_consistent_classes() {
        // A frame whose class is cached at two consecutive layers should
        // accumulate a larger score at the second layer than a fresh
        // single-layer lookup would give.
        let (rt, client, cfg) = setup(10);
        let mut view = ClientFeatureView::new();
        let mut scratch = LookupScratch::new();
        let one = center_cache(&rt, &[30], 10);
        let two = center_cache(&rt, &[25, 30], 10);
        let fs = frames(10, 300, 47);
        let mut hits_one = 0;
        let mut hits_two = 0;
        for f in &fs {
            if infer_with_cache(&rt, &client, f, &one, &cfg, &mut view, &mut scratch).is_hit() {
                hits_one += 1;
            }
            if infer_with_cache(&rt, &client, f, &two, &cfg, &mut view, &mut scratch).is_hit() {
                hits_two += 1;
            }
        }
        assert!(
            hits_two >= hits_one,
            "two layers {hits_two} vs one {hits_one}"
        );
    }
}

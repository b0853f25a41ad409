//! [`ModelRuntime`] — the façade the framework and baselines drive.
//!
//! Bundles the architecture, the calibrated latency profile and the feature
//! universe for one (model, dataset) pair, and implements the full-model
//! classifier head.

use serde::{Deserialize, Serialize};

use coca_data::{DatasetSpec, Frame};
use coca_math::softmax::{softmax_inplace, top2_margin};
use coca_math::vector::cosine_with_norms;
use coca_math::{l2_norm, top1};
use coca_sim::{SeedTree, SimDuration};

use crate::arch::{ModelArch, ModelId};
use crate::features::{FeatureUniverse, HEAD_SCALE};
use crate::latency::LatencyProfile;
use crate::view::{ClientFeatureView, ClientProfile};
use crate::zoo;

/// Outcome of a full (uncached) inference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted class (argmax of the softmax output).
    pub class: usize,
    /// Full softmax probability vector.
    pub probs: Vec<f32>,
    /// Whether the prediction matches the frame's ground truth.
    pub correct: bool,
    /// `prob₁ − prob₂`, the paper's rule-2 collection margin.
    pub margin: f32,
}

/// A ready-to-run simulated model on a specific dataset.
#[derive(Debug, Clone)]
pub struct ModelRuntime {
    arch: ModelArch,
    latency: LatencyProfile,
    universe: FeatureUniverse,
    dataset: DatasetSpec,
}

impl ModelRuntime {
    /// Builds the runtime for model `id` on `dataset`.
    pub fn new(id: ModelId, dataset: &DatasetSpec, seeds: &SeedTree) -> Self {
        let arch = zoo::model(id);
        let latency = LatencyProfile::new(&arch, dataset.input_cost_factor);
        let universe = FeatureUniverse::new(&arch, dataset.num_classes, seeds);
        Self {
            arch,
            latency,
            universe,
            dataset: dataset.clone(),
        }
    }

    /// The architecture.
    pub fn arch(&self) -> &ModelArch {
        &self.arch
    }

    /// The latency cost model.
    pub fn latency(&self) -> &LatencyProfile {
        &self.latency
    }

    /// The feature universe.
    pub fn universe(&self) -> &FeatureUniverse {
        &self.universe
    }

    /// The dataset this runtime was built for.
    pub fn dataset(&self) -> &DatasetSpec {
        &self.dataset
    }

    /// Number of preset cache points `L`.
    pub fn num_cache_points(&self) -> usize {
        self.arch.num_cache_points()
    }

    /// Number of task classes.
    pub fn num_classes(&self) -> usize {
        self.universe.num_classes()
    }

    /// Semantic-vector dimension at cache point `j`.
    pub fn feature_dim(&self, j: usize) -> usize {
        self.arch.cache_points[j].dim
    }

    /// Byte size of one cache entry at point `j`.
    pub fn entry_bytes(&self, j: usize) -> usize {
        self.arch.entry_bytes(j)
    }

    /// The semantic vector observed at cache point `j` for this frame.
    ///
    /// # Panics
    /// Panics if `j` is not a preset cache point.
    pub fn semantic_vector(
        &self,
        frame: &Frame,
        client: &ClientProfile,
        j: usize,
        view: &mut ClientFeatureView,
    ) -> Vec<f32> {
        assert!(j < self.num_cache_points(), "cache point {j} out of range");
        self.universe.semantic_vector(frame, client, j, view)
    }

    /// [`Self::semantic_vector`], appended to `out` instead of returned.
    ///
    /// # Panics
    /// Panics if `j` is not a preset cache point.
    pub fn semantic_vector_into(
        &self,
        frame: &Frame,
        client: &ClientProfile,
        j: usize,
        view: &mut ClientFeatureView,
        out: &mut Vec<f32>,
    ) {
        assert!(j < self.num_cache_points(), "cache point {j} out of range");
        self.universe
            .semantic_vector_into(frame, client, j, view, out)
    }

    /// Runs the full model on `frame` and returns its prediction.
    ///
    /// Deterministic per (frame, client): repeated calls agree, so cache
    /// baselines and CoCa can be compared on identical streams.
    pub fn classify(
        &self,
        frame: &Frame,
        client: &ClientProfile,
        view: &mut ClientFeatureView,
    ) -> Prediction {
        let head = self.universe.head_layer();
        let v = self.universe.semantic_vector(frame, client, head, view);
        let v_norm = l2_norm(&v);
        let mut logits: Vec<f32> = self
            .universe
            .head_center_norms()
            .iter()
            .enumerate()
            .map(|(c, &norm)| {
                let center = self.universe.global_center(head, c);
                HEAD_SCALE * cosine_with_norms(&v, v_norm, center, norm)
            })
            .collect();
        softmax_inplace(&mut logits);
        let class = top1(&logits).expect("non-empty class set");
        let margin = top2_margin(&logits);
        Prediction {
            class,
            correct: class == frame.class,
            probs: logits,
            margin,
        }
    }

    // ----- virtual-time accounting (delegates to the latency profile) ----

    /// Full no-cache compute time.
    pub fn full_compute(&self) -> SimDuration {
        self.latency.full_compute()
    }

    /// Compute time to arrive at cache point `j`.
    pub fn compute_to_point(&self, j: usize) -> SimDuration {
        self.latency.compute_to_point(j)
    }

    /// Model compute saved by a hit at point `j` (the paper's Υ_j).
    pub fn saved_if_hit_at(&self, j: usize) -> SimDuration {
        self.latency.saved_if_hit_at(j)
    }

    /// Cost of one lookup at point `j` over `entries` cached classes.
    pub fn lookup_cost(&self, j: usize, entries: usize) -> SimDuration {
        self.latency.lookup_cost(self.feature_dim(j), entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_data::distribution::uniform_weights;
    use coca_data::{StreamConfig, StreamGenerator};

    fn runtime(id: ModelId, classes: usize) -> (ModelRuntime, ClientProfile) {
        let dataset = DatasetSpec::ucf101().subset(classes);
        let seeds = SeedTree::new(21);
        let rt = ModelRuntime::new(id, &dataset, &seeds);
        let client = ClientProfile::new(0, 0.25, 0.7, &seeds);
        (rt, client)
    }

    fn stream(classes: usize, n: usize, seed: u64) -> Vec<Frame> {
        let mut g = StreamGenerator::new(
            StreamConfig::new(uniform_weights(classes), 20.0),
            &SeedTree::new(seed),
        );
        g.take(n)
    }

    fn accuracy(rt: &ModelRuntime, client: &ClientProfile, frames: &[Frame]) -> f64 {
        let mut view = ClientFeatureView::new();
        let correct = frames
            .iter()
            .filter(|f| rt.classify(f, client, &mut view).correct)
            .count();
        correct as f64 / frames.len() as f64
    }

    #[test]
    fn resnet101_accuracy_is_near_paper_anchor() {
        // Paper: ResNet101 on UCF101-50 = 80.56 %. The feature geometry is
        // calibrated to land near that; accept a generous band. Headline
        // accuracy tracks the stream's hard-run share, which is noisy per
        // stream seed (a 4000-frame stream holds only ~200 runs), so
        // average over a few independent streams.
        let (rt, client) = runtime(ModelId::ResNet101, 50);
        let seeds = [31u64, 32, 33];
        let acc = seeds
            .iter()
            .map(|&s| accuracy(&rt, &client, &stream(50, 4000, s)))
            .sum::<f64>()
            / seeds.len() as f64;
        assert!((0.74..=0.88).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn deeper_models_are_no_worse_and_more_confident() {
        // With the near-binary ambiguity channel, headline accuracy is
        // driven by the hard-run share for every model; depth shows up as
        // non-inferiority plus systematically larger correct-prediction
        // margins (cleaner, better-separated deep features).
        let frames = stream(50, 4000, 32);
        let (r50, c50) = runtime(ModelId::ResNet50, 50);
        let (r152, c152) = runtime(ModelId::ResNet152, 50);
        let a50 = accuracy(&r50, &c50, &frames);
        let a152 = accuracy(&r152, &c152, &frames);
        assert!(a152 >= a50 - 0.01, "resnet152 {a152} vs resnet50 {a50}");
        let mean_margin = |rt: &ModelRuntime, client: &ClientProfile| -> f64 {
            let mut view = ClientFeatureView::new();
            let mut sum = 0.0;
            let mut n = 0u32;
            for f in &frames {
                let p = rt.classify(f, client, &mut view);
                if p.correct {
                    sum += p.margin as f64;
                    n += 1;
                }
            }
            sum / n as f64
        };
        let m50 = mean_margin(&r50, &c50);
        let m152 = mean_margin(&r152, &c152);
        assert!(m152 > m50, "margin resnet152 {m152} vs resnet50 {m50}");
    }

    #[test]
    fn classification_is_deterministic() {
        let (rt, client) = runtime(ModelId::Vgg16Bn, 20);
        let f = stream(20, 10, 33)[7];
        let mut v1 = ClientFeatureView::new();
        let mut v2 = ClientFeatureView::new();
        let a = rt.classify(&f, &client, &mut v1);
        let b = rt.classify(&f, &client, &mut v2);
        assert_eq!(a.class, b.class);
        assert_eq!(a.probs, b.probs);

        // The logits with precomputed norms are the plain `cosine` ones,
        // bit for bit.
        let head = rt.universe().head_layer();
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut view = ClientFeatureView::new();
        let mut ref_view = ClientFeatureView::new();
        for f in stream(20, 200, 34) {
            let p = rt.classify(&f, &client, &mut view);
            let v = rt
                .universe()
                .semantic_vector(&f, &client, head, &mut ref_view);
            let mut logits: Vec<f32> = (0..rt.num_classes())
                .map(|c| HEAD_SCALE * coca_math::cosine(&v, rt.universe().global_center(head, c)))
                .collect();
            softmax_inplace(&mut logits);
            assert_eq!(bits(&p.probs), bits(&logits));
        }
    }

    #[test]
    fn probs_are_a_distribution_and_margin_matches() {
        let (rt, client) = runtime(ModelId::AstBase, 10);
        let mut view = ClientFeatureView::new();
        for f in stream(10, 50, 34) {
            let p = rt.classify(&f, &client, &mut view);
            let sum: f32 = p.probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(p.margin >= 0.0 && p.margin <= 1.0);
            assert_eq!(p.class, top1(&p.probs).unwrap());
        }
    }

    #[test]
    fn easy_runs_classify_correctly() {
        let (rt, client) = runtime(ModelId::ResNet101, 50);
        let mut view = ClientFeatureView::new();
        let frames = stream(50, 3000, 35);
        let easy: Vec<&Frame> = frames.iter().filter(|f| f.run_difficulty < 0.6).collect();
        assert!(easy.len() > 100);
        let correct = easy
            .iter()
            .filter(|f| rt.classify(f, &client, &mut view).correct)
            .count();
        let acc = correct as f64 / easy.len() as f64;
        assert!(acc > 0.97, "easy accuracy {acc}");
    }

    #[test]
    fn errors_mostly_confuse_siblings() {
        let (rt, client) = runtime(ModelId::ResNet101, 50);
        let mut view = ClientFeatureView::new();
        let mut err = 0usize;
        let mut sib_err = 0usize;
        for f in stream(50, 6000, 36) {
            let p = rt.classify(&f, &client, &mut view);
            if !p.correct {
                err += 1;
                if rt.universe().siblings(f.class).contains(&p.class) {
                    sib_err += 1;
                }
            }
        }
        assert!(err > 50, "need errors to measure ({err})");
        let frac = sib_err as f64 / err as f64;
        assert!(frac > 0.8, "sibling-error fraction {frac}");
    }

    #[test]
    fn time_accounting_is_consistent() {
        let (rt, _) = runtime(ModelId::ResNet101, 50);
        let l = rt.num_cache_points();
        assert_eq!(
            rt.compute_to_point(l - 1) + rt.saved_if_hit_at(l - 1),
            rt.full_compute()
        );
        assert!(rt.lookup_cost(0, 50) < rt.lookup_cost(l - 1, 50));
        assert!(rt.entry_bytes(0) < rt.entry_bytes(l - 1));
    }
}

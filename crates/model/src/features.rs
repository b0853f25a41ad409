//! The semantic feature generator.
//!
//! Produces the per-cache-layer semantic vectors (GAP-pooled intermediate
//! features) that the paper's mechanisms consume, with the geometric
//! properties the evaluation depends on.
//!
//! ## Geometry
//!
//! At every layer `j` the feature space decomposes into a **layer-common
//! direction** `C_j` (generic content statistics — in real CNNs every
//! input activates edge/texture channels, so pooled vectors of *all*
//! classes are strongly correlated) plus per-class **offsets**
//! `h_{i,j} = g_w·G_{group(i),j} + u_w·U_{i,j}` mixing a group direction
//! shared with confusable sibling classes and a unique direction. A class
//! center is `normalize(C_j + s_j · h_{i,j})` where the separation `s_j`
//! grows with depth: cosines between centers are ≈ 0.9+ at shallow layers
//! and spread out deeper — exactly why the paper's discriminative-score
//! thresholds Θ are as small as 0.008–0.035 (Eq. 2 margins are *relative*
//! to large cosines).
//!
//! A frame of class `t` observes
//!
//! ```text
//! v = normalize(C_j + s_j · (sig · φ  +  (1−κ_j) · ν · d · η))
//! ```
//!
//! * `sig = vis(d) · κ_j / κ_head` — class-signal visibility: attenuated
//!   for difficult content and at shallow depths (κ profile),
//! * `φ = (1−m_j)·h'_t + m_j·h'_c` — run-level **ambiguity mixing** toward
//!   a sibling class `c`, disambiguated with depth; residual head-level
//!   mixes `> 0.5` are the full model's classification errors,
//! * `h'` — **client-drifted** offsets (non-IID feature shift, partly
//!   shared across clients — what global cache updates chase),
//! * `η` — unit noise, partly shared across a run (consecutive frames
//!   genuinely resemble each other).

use rand::Rng;

use coca_data::Frame;
use coca_math::vector::{axpy, fill_random_unit, l2_norm, l2_normalize, random_unit};

use coca_sim::SeedTree;

use crate::arch::{CachePoint, ModelArch};
use crate::view::{ClientFeatureView, ClientProfile};

// The calibrated feature geometry shared by every experiment (see
// `coca-bench`'s `calibrate` binary).

/// Number of classes per confusion group (sibling set).
const GROUP_SIZE: usize = 5;
/// Weight of the group direction inside class offsets.
const GROUP_WEIGHT: f32 = 0.22;
/// Weight of the unique direction inside class offsets.
const UNIQUE_WEIGHT: f32 = 0.93;
/// Global multiplier ν on feature noise.
const NOISE_SCALE: f32 = 0.45;
/// Fraction of a frame's noise shared across its run (temporal correlation
/// of consecutive frames).
const RUN_NOISE_WEIGHT: f32 = 0.6;
/// Fraction of the noise that is *class-structured*: a per-frame lean
/// toward a few random classes, consistent across **all** layers. Real
/// networks propagate ambiguity through depth — a frame that looks a bit
/// like class b at layer 5 still does at layer 25. Without this cross-layer
/// correlation every cache layer would be an independent lottery and
/// ambiguous frames would win a wrong early exit somewhere with
/// near-certainty.
const CLASS_NOISE_WEIGHT: f32 = 0.15;
/// How many classes a frame's structured noise leans toward.
const CLASS_NOISE_SPAN: usize = 3;
/// Difficulty at which class-signal visibility starts to attenuate.
const VISIBILITY_REF: f32 = 0.50;
/// Exponent of the visibility attenuation `(ref/d)^power`.
const VISIBILITY_POWER: f32 = 1.8;
/// Run difficulty at which class ambiguity begins.
const CONFUSION_ONSET: f32 = 1.30;
/// Slope of ambiguity mixing weight vs. run difficulty.
const CONFUSION_SCALE: f32 = 8.0;
/// Cap on the raw mixing weight `m` (1.0 = the content is a pure sibling
/// look-alike; features stay inside the class manifold).
const CONFUSION_MAX: f32 = 1.00;
/// Fraction of a layer's disambiguation subtracted from the ambiguity
/// mixing weight (subtractive depth relief).
const AMBIGUITY_RELIEF: f32 = 0.58;
/// Logit scale of the classifier head (softmax temperature⁻¹).
pub(crate) const HEAD_SCALE: f32 = 20.0;

/// Ground-truth feature geometry for one (model, dataset) pair.
///
/// Layer indices run `0..=L`: `0..L` are the model's preset cache points,
/// `L` is the virtual classifier-head layer.
#[derive(Debug, Clone)]
pub struct FeatureUniverse {
    num_classes: usize,
    /// Per layer: the point spec (dims, κ, separation, disambiguation).
    points: Vec<CachePoint>,
    /// `common[layer]` — the layer-common direction C_j (unit).
    common: Vec<Vec<f32>>,
    /// `offsets[layer][class]` — class offsets h (NOT normalized).
    offsets: Vec<Vec<Vec<f32>>>,
    /// `centers[layer][class]` — precomputed `normalize(C + s·h)`.
    centers: Vec<Vec<Vec<f32>>>,
    /// `head_norms[class]` — `l2_norm` of the head layer's center, for the
    /// classifier's cosines.
    head_norms: Vec<f32>,
    /// `ctx_drift[layer][class]` — shared context-drift directions.
    ctx_drift: Vec<Vec<Vec<f32>>>,
    /// Per class: its sibling (same-group) classes, excluding itself.
    siblings: Vec<Vec<usize>>,
    /// κ of the head layer (signal normalizer).
    head_kappa: f32,
    /// Seed node for per-frame/per-client derivations.
    seeds: SeedTree,
}

impl FeatureUniverse {
    /// Builds the universe for `arch` on a task with `num_classes` classes.
    ///
    /// # Panics
    /// Panics if `num_classes < 2` (classification needs alternatives).
    pub fn new(arch: &ModelArch, num_classes: usize, seeds: &SeedTree) -> Self {
        assert!(
            num_classes >= 2,
            "need at least two classes, got {num_classes}"
        );
        let seeds = seeds.child("features");
        let mut points: Vec<CachePoint> = arch.cache_points.clone();
        points.push(arch.head);

        let num_groups = num_classes.div_ceil(GROUP_SIZE);
        let group_of = |class: usize| class % num_groups;

        // --- Master-space class identities. Class geometry must be
        // CONSISTENT across depth: if class t's direction overlaps class
        // i's at layer 5, it must overlap at layer 25 too — otherwise
        // every cache layer is an independent lottery and a frame of an
        // uncached class will eventually beat the margin test somewhere.
        // Identities live in a master space of dimension D = max layer
        // width; each layer sees them through its own random coordinate
        // subsample (a sparse Johnson–Lindenstrauss map), which preserves
        // inner products in expectation.
        let master_dim = points
            .iter()
            .map(|p| p.dim)
            .max()
            .expect("non-empty layers");
        let mut master_rng = seeds.rng_for("master-space");
        let master_groups: Vec<Vec<f32>> = (0..num_groups)
            .map(|_| random_unit(&mut master_rng, master_dim))
            .collect();
        let master_ids: Vec<Vec<f32>> = (0..num_classes)
            .map(|class| {
                let unique = random_unit(&mut master_rng, master_dim);
                let mut z = vec![0.0f32; master_dim];
                axpy(GROUP_WEIGHT, &master_groups[group_of(class)], &mut z);
                axpy(UNIQUE_WEIGHT, &unique, &mut z);
                z
            })
            .collect();
        let master_drift: Vec<Vec<f32>> = (0..num_classes)
            .map(|_| random_unit(&mut master_rng, master_dim))
            .collect();

        let mut common = Vec::with_capacity(points.len());
        let mut offsets = Vec::with_capacity(points.len());
        let mut centers = Vec::with_capacity(points.len());
        let mut ctx_drift = Vec::with_capacity(points.len());
        for (j, p) in points.iter().enumerate() {
            let mut layer_rng = seeds.rng_for_idx("layer", j as u64);
            let dim = p.dim;
            let c_dir = random_unit(&mut layer_rng, dim);
            // Stage view of the master space: a random coordinate
            // subsample with random signs, rescaled to preserve norms.
            // The view is keyed by the layer WIDTH, not the layer index:
            // all same-width layers (a CNN stage) share one view, so class
            // overlaps are identical across a stage — adjacent layers of
            // real networks see near-identical class geometry, and without
            // this the deep stage becomes dozens of independent margin
            // lotteries.
            let mut view_rng = seeds.rng_for_idx("stage-view", dim as u64);
            let mut coords: Vec<usize> = (0..master_dim).collect();
            for i in (1..coords.len()).rev() {
                let k = view_rng.gen_range(0..=i);
                coords.swap(i, k);
            }
            let signs: Vec<f32> = (0..dim)
                .map(|_| if view_rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let rescale = (master_dim as f32 / dim as f32).sqrt();
            let project = |z: &[f32]| -> Vec<f32> {
                (0..dim)
                    .map(|d| signs[d] * z[coords[d]] * rescale)
                    .collect()
            };
            let mut layer_offsets = Vec::with_capacity(num_classes);
            let mut layer_centers = Vec::with_capacity(num_classes);
            let mut layer_drift = Vec::with_capacity(num_classes);
            for class in 0..num_classes {
                let h = project(&master_ids[class]);
                let mut center = c_dir.clone();
                axpy(p.separation, &h, &mut center);
                l2_normalize(&mut center);
                layer_offsets.push(h);
                layer_centers.push(center);
                layer_drift.push(project(&master_drift[class]));
            }
            common.push(c_dir);
            offsets.push(layer_offsets);
            centers.push(layer_centers);
            ctx_drift.push(layer_drift);
        }
        let head_norms = centers[points.len() - 1]
            .iter()
            .map(|c| l2_norm(c))
            .collect();

        let siblings: Vec<Vec<usize>> = (0..num_classes)
            .map(|c| {
                let mine = group_of(c);
                let sibs: Vec<usize> = (0..num_classes)
                    .filter(|&o| o != c && group_of(o) == mine)
                    .collect();
                if sibs.is_empty() {
                    // Degenerate group: fall back to all other classes.
                    (0..num_classes).filter(|&o| o != c).collect()
                } else {
                    sibs
                }
            })
            .collect();

        Self {
            num_classes,
            head_kappa: arch.head.kappa,
            points,
            common,
            offsets,
            centers,
            head_norms,
            ctx_drift,
            siblings,
            seeds,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Index of the virtual head layer (`L`).
    pub fn head_layer(&self) -> usize {
        self.points.len() - 1
    }

    /// Feature dimension at `layer` (`0..=L`).
    pub fn dim(&self, layer: usize) -> usize {
        self.points[layer].dim
    }

    /// Global (model-weight) center of `class` at `layer` — what the
    /// classifier compares against and what initial cache entries hold.
    pub fn global_center(&self, layer: usize, class: usize) -> &[f32] {
        &self.centers[layer][class]
    }

    /// `l2_norm` of every class's head-layer [`Self::global_center`].
    pub(crate) fn head_center_norms(&self) -> &[f32] {
        &self.head_norms
    }

    /// Sibling classes of `class` (confusable alternatives).
    pub fn siblings(&self, class: usize) -> &[usize] {
        &self.siblings[class]
    }

    /// The ambiguity of a run: `(confuser_class, mixing_weight m)`.
    ///
    /// Deterministic per run. `m = 0` means the content is unambiguous.
    pub fn run_confusion(&self, frame: &Frame) -> (usize, f32) {
        let sibs = &self.siblings[frame.class];
        let mut rng = self.seeds.rng_for_idx("confusion", frame.run_seed);
        let confuser = sibs[rng.gen_range(0..sibs.len())];
        let u: f32 = rng.gen_range(0.5..1.0);
        let raw = CONFUSION_SCALE * (frame.run_difficulty - CONFUSION_ONSET);
        let m = (raw * u).clamp(0.0, CONFUSION_MAX);
        (confuser, m)
    }

    /// Raw visibility ratio for a frame of difficulty `d`: `min(ref/d, 1)`.
    ///
    /// The *effective* attenuation is depth-dependent (see
    /// [`Self::signal_strength`]): shallow layers lose hard content almost
    /// entirely, deep layers — whose job is recognition — recover much of
    /// it. This is why the paper's hard samples exit only at deep cache
    /// layers (Fig. 1(b)) yet the full model still classifies most of them.
    pub fn visibility(&self, difficulty: f32) -> f32 {
        (VISIBILITY_REF / difficulty.max(1e-6)).min(1.0)
    }

    /// Class-signal strength at `layer` for a frame of difficulty `d`:
    /// `vis^(power·(1−disambiguation_j)) · κ_j/κ_head`.
    pub fn signal_strength(&self, layer: usize, difficulty: f32) -> f32 {
        let p = self.points[layer];
        let q = VISIBILITY_POWER * (1.0 - p.disambiguation);
        self.visibility(difficulty).powf(q.max(0.1)) * (p.kappa / self.head_kappa)
    }

    /// The client-drifted offset h' for `(layer, class)` — the direction a
    /// client's data for that class actually points along.
    /// Written over `h`, whose length is the layer's dimension.
    fn drifted_offset(&self, layer: usize, class: usize, client: &ClientProfile, h: &mut [f32]) {
        h.copy_from_slice(&self.offsets[layer][class]);
        if client.drift_mag > 0.0 {
            let shared = &self.ctx_drift[layer][class];
            let shared_w = client.drift_mag * client.drift_shared_frac;
            let indiv_w = client.drift_mag * (1.0 - client.drift_shared_frac);
            axpy(shared_w, shared, h);
            if indiv_w > 0.0 {
                let mut indiv_rng = client
                    .seed
                    .child_idx("drift-class", class as u64)
                    .child_idx("drift-layer", layer as u64)
                    .rng();
                let indiv = random_unit(&mut indiv_rng, h.len());
                axpy(indiv_w, &indiv, h);
            }
        }
    }

    /// The effective (client-drifted) center a client's data is generated
    /// around: `normalize(C + s·h')`. This is the quantity global cache
    /// updates chase (Fig. 2).
    pub fn drifted_center(&self, layer: usize, class: usize, client: &ClientProfile) -> Vec<f32> {
        let p = self.points[layer];
        let mut h = vec![0.0; p.dim];
        self.drifted_offset(layer, class, client, &mut h);
        let mut center = self.common[layer].clone();
        axpy(p.separation, &h, &mut center);
        l2_normalize(&mut center);
        center
    }

    /// Generates the semantic vector observed at `layer` for `frame` on
    /// `client`. `view` is the client's synthesis workspace (memoized
    /// offsets, run noise and draws, scratch buffers); passing a fresh view
    /// changes nothing but cost.
    pub fn semantic_vector(
        &self,
        frame: &Frame,
        client: &ClientProfile,
        layer: usize,
        view: &mut ClientFeatureView,
    ) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.points[layer].dim);
        self.semantic_vector_into(frame, client, layer, view, &mut v);
        v
    }

    /// [`Self::semantic_vector`], appended to `out` instead of returned.
    pub fn semantic_vector_into(
        &self,
        frame: &Frame,
        client: &ClientProfile,
        layer: usize,
        view: &mut ClientFeatureView,
        out: &mut Vec<f32>,
    ) {
        let p = self.points[layer];
        let dim = p.dim;
        view.fit(self);

        // Class-signal strength: frame visibility × depth profile.
        let sig = self.signal_strength(layer, frame.difficulty);

        // Run-level ambiguity, disambiguated with depth. Relief is
        // *subtractive*: depth removes a fixed amount of ambiguity, so the
        // winner (true class vs confuser) flips at most once along the
        // depth axis and mid-layer verdicts rarely disagree with the head.
        let run_key = (frame.run_seed, frame.class, frame.run_difficulty.to_bits());
        let (confuser, m) = *view
            .confusion
            .get_or_fill(run_key, |c| *c = self.run_confusion(frame));
        let m_layer = (m - AMBIGUITY_RELIEF * p.disambiguation).clamp(0.0, 1.0);

        // φ = (1−m)·h'_t + m·h'_c over drifted offsets (memoized).
        // A client without drift sees the universe's own offsets: there is
        // nothing to memoize.
        let offsets = &*view.offsets;
        let offset = |class: usize| {
            if client.drift_mag > 0.0 {
                offsets.get_or_fill(layer, class, |h| {
                    self.drifted_offset(layer, class, client, h)
                })
            } else {
                &self.offsets[layer][class][..]
            }
        };
        let phi = &mut view.phi;
        phi.clear();
        let h_true = offset(frame.class);
        if m_layer > 1e-4 {
            phi.resize(dim, 0.0);
            axpy(1.0 - m_layer, h_true, phi);
            axpy(m_layer, offset(confuser), phi);
        } else {
            phi.extend_from_slice(h_true);
        }

        // Noise: temporally correlated within the run + per-frame part.
        // Each part mixes a class-structured lean (consistent across
        // layers, derived from a layer-independent seed, constant scale)
        // with isotropic noise whose magnitude grows with difficulty.
        // Difficulty must NOT inflate the lean: hard content gets harder to
        // see (visibility) and more ambiguous (m), but it does not acquire
        // stronger false class evidence — otherwise every cache layer
        // becomes a wrong-exit lottery for hard frames.
        let run = (frame.run_seed, frame.run_difficulty.to_bits());
        let run_noise = view.run_noise[layer].get_or_fill(run, |out| {
            let lean = view
                .run_lean
                .get_or_fill(frame.run_seed, |d| self.lean_draws(frame.run_seed, d));
            let difficulty = frame.run_difficulty;
            self.noise_component(lean, frame.run_seed, layer, difficulty, &mut view.iso, out);
        });
        let lean = view
            .frame_lean
            .get_or_fill(frame.frame_seed, |d| self.lean_draws(frame.frame_seed, d));
        let frame_noise = &mut view.frame_noise;
        let difficulty = frame.difficulty;
        self.noise_component(
            lean,
            frame.frame_seed,
            layer,
            difficulty,
            &mut view.iso,
            frame_noise,
        );

        let noise_mag = (1.0 - p.kappa) * NOISE_SCALE;

        // v = C + s·(sig·φ + noise) — noise lives inside the separation
        // scale so signal-to-noise depends on depth only through κ.
        let start = out.len();
        out.extend_from_slice(&self.common[layer]);
        let v = &mut out[start..];
        let parts = phi.iter().zip(run_noise).zip(frame_noise.iter());
        for (x, ((&phi_i, &run_i), &frame_i)) in v.iter_mut().zip(parts) {
            let noise = RUN_NOISE_WEIGHT * run_i + (1.0 - RUN_NOISE_WEIGHT) * frame_i;
            *x += p.separation * (sig * phi_i + noise_mag * noise);
        }
        l2_normalize(v);
    }

    /// The class-structured lean of the entity identified by `seed` (a run
    /// or a frame): `CLASS_NOISE_SPAN` draws of `(class, w)`, written over
    /// `out`. No layer salt enters them — the same classes attract this
    /// entity's features at every layer.
    fn lean_draws(&self, seed: u64, out: &mut Vec<(usize, f32)>) {
        out.clear();
        let mut lean_rng = self.seeds.child_idx("noise-lean", seed).rng();
        // √span keeps the lean roughly unit-scale (offsets are ~unit).
        let norm = (CLASS_NOISE_SPAN as f32).sqrt();
        for _ in 0..CLASS_NOISE_SPAN {
            let class = lean_rng.gen_range(0..self.num_classes);
            let w: f32 = coca_math::vector::standard_normal(&mut lean_rng) / norm;
            out.push((class, w));
        }
    }

    /// One noise component at `layer` for the entity identified by `seed`
    /// (a run or a frame), `cw · lean + (1−cw) · difficulty · iso` with
    /// `cw = CLASS_NOISE_WEIGHT`, written over `out`; `lean` is
    /// [`Self::lean_draws`] of `seed`, and `iso` is scratch for the
    /// isotropic draw.
    ///
    /// The lean's scale is difficulty-independent. The isotropic part is
    /// layer-salted and grows with difficulty (hard content varies more),
    /// but being isotropic it projects onto class-margin directions only
    /// weakly (∝ 1/√dim).
    fn noise_component(
        &self,
        lean: &[(usize, f32)],
        seed: u64,
        layer: usize,
        difficulty: f32,
        iso: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        let dim = self.points[layer].dim;
        out.clear();
        out.resize(dim, 0.0);
        for &(class, w) in lean {
            axpy(CLASS_NOISE_WEIGHT * w, &self.offsets[layer][class], out);
        }
        let mut iso_rng = self
            .seeds
            .child_idx("noise-iso", seed)
            .child_idx("l", layer as u64)
            .rng();
        iso.resize(dim, 0.0);
        fill_random_unit(&mut iso_rng, iso);
        axpy((1.0 - CLASS_NOISE_WEIGHT) * difficulty.min(2.5), iso, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use coca_data::distribution::uniform_weights;
    use coca_data::{StreamConfig, StreamGenerator};
    use coca_math::cosine;

    fn setup() -> (FeatureUniverse, ClientProfile, ClientFeatureView) {
        let arch = zoo::resnet101();
        let seeds = SeedTree::new(7);
        let uni = FeatureUniverse::new(&arch, 50, &seeds);
        let client = ClientProfile::new(0, 0.25, 0.7, &seeds);
        let view = ClientFeatureView::new();
        (uni, client, view)
    }

    fn frames(n: usize, seed: u64) -> Vec<Frame> {
        let mut g = StreamGenerator::new(
            StreamConfig::new(uniform_weights(50), 16.0),
            &SeedTree::new(seed),
        );
        g.take(n)
    }

    #[test]
    fn vectors_are_unit_norm() {
        let (uni, client, mut view) = setup();
        for f in frames(20, 1) {
            for layer in [0, 10, uni.head_layer()] {
                let v = uni.semantic_vector(&f, &client, layer, &mut view);
                assert_eq!(v.len(), uni.dim(layer));
                assert!((coca_math::l2_norm(&v) - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn centers_are_compressed_at_shallow_layers() {
        // Real GAP features: cosines between class centers are high at
        // shallow layers and spread out with depth.
        let (uni, _, _) = setup();
        let mean_cos = |layer: usize| -> f64 {
            let mut sum = 0.0;
            let mut n = 0;
            for a in 0..10 {
                for b in (a + 1)..10 {
                    sum += cosine(uni.global_center(layer, a), uni.global_center(layer, b)) as f64;
                    n += 1;
                }
            }
            sum / n as f64
        };
        let shallow = mean_cos(0);
        let deep = mean_cos(33);
        assert!(shallow > 0.9, "shallow center cosine {shallow}");
        assert!(deep < shallow - 0.1, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn deterministic_given_frame_and_client() {
        // One long-lived view — memos warm, runs switching, layers visited
        // in shuffled order with repeats — equals a fresh view per call.
        let (uni, _, _) = setup();
        let seeds = SeedTree::new(7);
        let mut order_rng = seeds.rng_for("layer-order");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for drift in [0.0, 0.8] {
            let client = ClientProfile::new(2, drift, 0.7, &seeds);
            let mut view = ClientFeatureView::new();
            let mut visited = vec![false; uni.head_layer() + 1];
            let fs = frames(400, 2);
            assert!(fs.iter().filter(|f| f.run_pos == 0).count() > 10);
            for f in &fs {
                for _ in 0..6 {
                    let layer = order_rng.gen_range(0..=uni.head_layer());
                    visited[layer] = true;
                    let warm = uni.semantic_vector(f, &client, layer, &mut view);
                    let fresh =
                        uni.semantic_vector(f, &client, layer, &mut ClientFeatureView::new());
                    assert_eq!(bits(&warm), bits(&fresh), "drift {drift}, layer {layer}");
                }
            }
            assert!(visited.iter().all(|&v| v), "every layer and the head");
        }
    }

    #[test]
    fn deep_layers_are_more_discriminative() {
        let (uni, client, mut view) = setup();
        let mean_rel_margin = |layer: usize, view: &mut ClientFeatureView| -> f64 {
            let mut sum = 0.0;
            let fs = frames(300, 3);
            for f in &fs {
                let v = uni.semantic_vector(f, &client, layer, view);
                let own = cosine(&v, uni.global_center(layer, f.class)) as f64;
                let other = (0..uni.num_classes())
                    .filter(|&c| c != f.class)
                    .map(|c| cosine(&v, uni.global_center(layer, c)) as f64)
                    .fold(f64::NEG_INFINITY, f64::max);
                sum += (own - other) / other.abs().max(1e-6);
            }
            sum / fs.len() as f64
        };
        let shallow = mean_rel_margin(0, &mut view);
        let deep = mean_rel_margin(33, &mut view);
        assert!(deep > shallow * 2.0, "shallow {shallow}, deep {deep}");
    }

    #[test]
    fn run_frames_are_correlated() {
        let (uni, client, mut view) = setup();
        let fs = frames(2000, 4);
        let mut within = Vec::new();
        let mut across = Vec::new();
        for w in fs.windows(2) {
            let a = uni.semantic_vector(&w[0], &client, 5, &mut view);
            let b = uni.semantic_vector(&w[1], &client, 5, &mut view);
            let c = cosine(&a, &b) as f64;
            if w[1].run_pos > 0 {
                within.push(c);
            } else {
                across.push(c);
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            mean(&within) > mean(&across) + 0.005,
            "within {} across {}",
            mean(&within),
            mean(&across)
        );
    }

    #[test]
    fn drift_moves_data_away_from_global_centers() {
        let arch = zoo::resnet101();
        let seeds = SeedTree::new(8);
        let uni = FeatureUniverse::new(&arch, 50, &seeds);
        let clean = ClientProfile::new(1, 0.0, 0.7, &seeds);
        let drifted = ClientProfile::new(1, 0.8, 0.7, &seeds);
        let mut view_c = ClientFeatureView::new();
        let mut view_d = ClientFeatureView::new();
        let layer = 30;
        let mut cos_clean = 0.0f64;
        let mut cos_drift = 0.0f64;
        let fs = frames(400, 5);
        for f in &fs {
            let vc = uni.semantic_vector(f, &clean, layer, &mut view_c);
            let vd = uni.semantic_vector(f, &drifted, layer, &mut view_d);
            cos_clean += cosine(&vc, uni.global_center(layer, f.class)) as f64;
            cos_drift += cosine(&vd, uni.global_center(layer, f.class)) as f64;
        }
        assert!(
            cos_clean > cos_drift + 0.5,
            "clean {cos_clean} vs drifted {cos_drift} (sums over {} frames)",
            fs.len()
        );
    }

    #[test]
    fn confusion_is_zero_for_easy_runs_and_positive_for_hard() {
        let (uni, _, _) = setup();
        let mut easy_ms = Vec::new();
        let mut hard_ms = Vec::new();
        for f in frames(5000, 6) {
            let (conf, m) = uni.run_confusion(&f);
            assert_ne!(conf, f.class);
            assert!(uni.siblings(f.class).contains(&conf));
            if f.run_difficulty < 0.55 {
                easy_ms.push(m);
            } else if f.run_difficulty > 1.6 {
                hard_ms.push(m);
            }
        }
        assert!(easy_ms.iter().all(|&m| m < 0.4));
        let hard_mean = hard_ms.iter().map(|&m| m as f64).sum::<f64>() / hard_ms.len() as f64;
        assert!(hard_mean > 0.8, "hard mean m = {hard_mean}");
    }

    #[test]
    fn visibility_attenuates_with_difficulty() {
        let (uni, _, _) = setup();
        assert_eq!(uni.visibility(0.3), 1.0);
        assert_eq!(uni.visibility(0.5), 1.0);
        let v1 = uni.visibility(1.1);
        let v2 = uni.visibility(2.2);
        assert!(v1 < 1.0 && v2 < v1);
        // Depth relieves the attenuation: deep layers recover hard content.
        let shallow = uni.signal_strength(0, 2.0);
        let deep = uni.signal_strength(33, 2.0);
        assert!(deep > shallow, "shallow {shallow} deep {deep}");
    }

    #[test]
    fn synthesis_bits_are_pinned() {
        // FNV-1a over the bits of every cache point's and the head's vector
        // plus the classifier margin, for ResNet101/UCF101-50 at drift 0 and
        // drift 0.3 (70 % shared), then over the run confusion along its
        // ramp. Every calibration constant of the geometry reaches these
        // bits: moving one changes the hash.
        let seeds = SeedTree::new(7);
        let dataset = coca_data::DatasetSpec::ucf101().subset(50);
        let rt = crate::ModelRuntime::new(crate::ModelId::ResNet101, &dataset, &seeds);
        let uni = rt.universe();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u32| {
            for b in word.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let fs = frames(200, 12);
        for (id, drift) in [(0, 0.0), (1, 0.3)] {
            let client = ClientProfile::new(id, drift, 0.7, &seeds);
            let mut view = ClientFeatureView::new();
            for f in &fs {
                for layer in 0..=uni.head_layer() {
                    for x in uni.semantic_vector(f, &client, layer, &mut view) {
                        mix(x.to_bits());
                    }
                }
                mix(rt.classify(f, &client, &mut view).margin.to_bits());
            }
        }
        // The stream's difficulty modes miss the ramp: a generated run's m
        // is 0 (below the onset) or clamped to the cap. Sweep the ramp.
        for (i, f) in fs.iter().enumerate() {
            let f = Frame {
                run_difficulty: 1.3 + 0.001 * i as f32,
                ..*f
            };
            let (confuser, m) = uni.run_confusion(&f);
            mix(confuser as u32);
            mix(m.to_bits());
        }
        assert_eq!(hash, 0xdd25_2063_89d4_f38b, "synthesis hash {hash:#018x}");
    }

    #[test]
    fn shared_drift_is_common_across_clients() {
        // Two clients with fully shared drift see the same drifted center;
        // with fully individual drift they do not.
        let arch = zoo::resnet50();
        let seeds = SeedTree::new(9);
        let uni = FeatureUniverse::new(&arch, 20, &seeds);
        let a = ClientProfile::new(1, 0.4, 1.0, &seeds);
        let b = ClientProfile::new(2, 0.4, 1.0, &seeds);
        let ca = uni.drifted_center(5, 3, &a);
        let cb = uni.drifted_center(5, 3, &b);
        assert!((cosine(&ca, &cb) - 1.0).abs() < 1e-5);
        let a = ClientProfile::new(1, 0.4, 0.0, &seeds);
        let b = ClientProfile::new(2, 0.4, 0.0, &seeds);
        let ca = uni.drifted_center(5, 3, &a);
        let cb = uni.drifted_center(5, 3, &b);
        assert!(cosine(&ca, &cb) < 0.99999);
    }
}

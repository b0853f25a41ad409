//! The CoCa client runtime (§IV.A steps 2–3).
//!
//! Owns everything that lives on one edge device: the installed local
//! cache, the status vectors τ/φ, the cache-update table U, the per-layer
//! hit-ratio estimates R it uploads, and its collection-rule counters.

use std::ops::Range;

use coca_data::Frame;
use coca_model::{ClientFeatureView, ClientProfile, ModelRuntime};

use crate::collect::{absorb_rule, AbsorbRule, UpdateTable};
use crate::config::CocaConfig;
use crate::lookup::{infer_with_cache, InferenceResult, LookupScratch};
use crate::ordered::{InOrder, Padded};
use crate::proto::{CacheRequest, UpdateUpload};
use crate::semantic::LocalCache;
use crate::status::ClientStatus;
use coca_sim::SimDuration;

/// Collection-rule accounting for one client (Fig. 6's absorption ratios).
#[derive(Debug, Clone, Copy, Default)]
pub struct AbsorbStats {
    /// Cache hits observed (rule-1 candidates).
    pub hits: u64,
    /// Rule-1 absorptions (hit and `D_j > Γ`).
    pub reinforced: u64,
    /// Rule-1 absorptions whose predicted class was correct.
    pub reinforced_correct: u64,
    /// Cache misses observed (rule-2 candidates).
    pub misses: u64,
    /// Rule-2 absorptions (miss and margin > Δ).
    pub expanded: u64,
    /// Rule-2 absorptions whose predicted class was correct.
    pub expanded_correct: u64,
}

impl AbsorbStats {
    /// Rule-1 absorption ratio (absorbed / eligible hits).
    pub fn reinforce_ratio(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.reinforced as f64 / self.hits as f64
        }
    }

    /// Rule-2 absorption ratio (absorbed / eligible misses).
    pub fn expand_ratio(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.expanded as f64 / self.misses as f64
        }
    }

    /// Accuracy of rule-1 absorbed samples.
    pub fn reinforce_accuracy(&self) -> Option<f64> {
        (self.reinforced > 0).then(|| self.reinforced_correct as f64 / self.reinforced as f64)
    }

    /// Accuracy of rule-2 absorbed samples.
    pub fn expand_accuracy(&self) -> Option<f64> {
        (self.expanded > 0).then(|| self.expanded_correct as f64 / self.expanded as f64)
    }

    /// Merges another client's counters.
    pub fn merge(&mut self, o: &AbsorbStats) {
        self.hits += o.hits;
        self.reinforced += o.reinforced;
        self.reinforced_correct += o.reinforced_correct;
        self.misses += o.misses;
        self.expanded += o.expanded;
        self.expanded_correct += o.expanded_correct;
    }
}

/// What the pure phase of a frame reads: the client's configuration,
/// drift profile and installed cache — fixed for the length of a round.
#[derive(Debug)]
struct FrameInputs {
    cfg: CocaConfig,
    profile: ClientProfile,
    cache: LocalCache,
}

/// What the apply phase of a frame writes, strictly in frame order.
#[derive(Debug)]
struct Ledger {
    status: ClientStatus,
    update: UpdateTable,
    /// Per-model-point hit counts within the current round.
    round_hits: Vec<u64>,
    round_frames: u64,
    absorb: AbsorbStats,
}

/// The verdict of one frame's pure phase: everything its apply phase
/// reads besides the absorbed vectors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FramePass {
    /// The class reported to the application.
    predicted: usize,
    /// Whether `predicted` matches the frame's ground truth.
    pub(crate) correct: bool,
    /// End-to-end virtual latency of the frame.
    pub(crate) latency: SimDuration,
    /// Model cache point of the hit (`None` = miss).
    pub(crate) hit_point: Option<usize>,
    /// Activated layers looked up — the ones rule 1 absorbs.
    looked_up: usize,
    rule: Option<AbsorbRule>,
}

/// One thread's share of a parallel round: its synthesis view (sharing the
/// client's drifted offsets) and lookup scratch, on cache lines of its own.
#[derive(Debug, Default)]
struct FrameWorker {
    view: ClientFeatureView,
    scratch: LookupScratch,
}

/// Everything [`CocaClient::process_frames`] reuses from round to round:
/// one [`FrameWorker`] per thread and the in-order hand-off between them.
#[derive(Debug)]
pub(crate) struct FramePool {
    workers: Vec<Padded<FrameWorker>>,
    pipeline: InOrder<FramePass>,
    blocks: Vec<Range<usize>>,
}

/// Published but unapplied floats one thread may hold, in largest frames
/// (every preset layer's vector, as rule 2 absorbs them).
const RING_FRAMES: usize = 4;

/// Most frames in one block: blocks never span two runs, and a long run is
/// split into blocks of this many frames.
const BLOCK_FRAMES: usize = 4;

impl FramePool {
    /// A pool for `workers` threads (at least one). Allocates only the
    /// workers' empty shells: buffers grow on first use.
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            workers: (0..workers.max(1)).map(|_| Padded::default()).collect(),
            pipeline: InOrder::new(),
            blocks: Vec::new(),
        }
    }

    /// The calling thread's lookup scratch.
    pub(crate) fn scratch(&mut self) -> &mut LookupScratch {
        &mut self.workers[0].0.scratch
    }
}

/// One CoCa edge client.
///
/// A frame is two phases. The **pure phase** — the lookups
/// ([`infer_with_cache`]), the collection rule ([`absorb_rule`]) and the
/// rule-2 synthesis of the preset layers not looked up — is a function of
/// the frame, the installed cache and the client profile alone (the
/// feature view is only a memo). The **apply phase** — status τ/φ,
/// hit and absorb counters and the Eq. 3 absorbs into U — depends on
/// frame order. [`CocaClient::process_frame`] runs both for one frame;
/// `CocaClient::process_frames` runs a round's pure phases on several
/// threads and its apply phases in frame order, with the same result.
#[derive(Debug)]
pub struct CocaClient {
    id: u64,
    inputs: FrameInputs,
    view: ClientFeatureView,
    ledger: Ledger,
    /// Standalone per-layer hit-ratio estimates (ACA's R), EWMA-updated
    /// from measurements; initialized from the server's shared-dataset
    /// profile.
    hit_ratio_est: Vec<f64>,
    round: u64,
}

impl FrameInputs {
    /// The pure phase of `frame`: its inference result and verdict. The
    /// vectors the collection rule absorbs are appended to `absorbed`,
    /// ascending by point — the looked-up layers' own vectors under rule
    /// 1, every preset layer's under rule 2 (the looked-up ones reused,
    /// the rest synthesized).
    fn pure_phase(
        &self,
        rt: &ModelRuntime,
        frame: &Frame,
        view: &mut ClientFeatureView,
        scratch: &mut LookupScratch,
        absorbed: &mut Vec<f32>,
    ) -> (InferenceResult, FramePass) {
        let res = infer_with_cache(
            rt,
            &self.profile,
            frame,
            &self.cache,
            &self.cfg,
            view,
            scratch,
        );
        let miss_margin = res.full_prediction.as_ref().map(|p| p.margin);
        let hit_score = res.hit_point.map(|_| res.hit_score);
        let rule = absorb_rule(
            hit_score,
            miss_margin,
            self.cfg.gamma_collect,
            self.cfg.delta_collect,
        );
        match rule {
            Some(AbsorbRule::Reinforce) => {
                // Vectors limited to the point of the cache hit.
                for (_, v) in &res.observed {
                    absorbed.extend_from_slice(v);
                }
            }
            Some(AbsorbRule::Expand) => {
                // The full model ran: every preset layer's features exist.
                // The looked-up layers' are in `observed` (sorted by point,
                // like the cache's layers); only the rest are synthesized.
                let mut observed = res.observed.iter().peekable();
                for point in 0..rt.num_cache_points() {
                    match observed.next_if(|(p, _)| *p == point) {
                        Some((_, v)) => absorbed.extend_from_slice(v),
                        None => {
                            rt.semantic_vector_into(frame, &self.profile, point, view, absorbed)
                        }
                    }
                }
            }
            None => {}
        }
        let pass = FramePass {
            predicted: res.predicted,
            correct: res.correct,
            latency: res.latency,
            hit_point: res.hit_point,
            looked_up: res.observed.len(),
            rule,
        };
        (res, pass)
    }
}

/// β — update-table decay (Eq. 3). Paper default 0.95.
const BETA: f32 = 0.95;

/// EWMA smoothing of the per-layer hit-ratio estimates (the R vector
/// uploaded to the server).
const HIT_RATIO_EWMA_ALPHA: f64 = 0.3;

impl Ledger {
    /// The apply phase of one frame: `pass` and the vectors its pure phase
    /// absorbed, in that phase's order.
    fn apply(
        &mut self,
        rt: &ModelRuntime,
        inputs: &FrameInputs,
        pass: &FramePass,
        absorbed: &[f32],
    ) {
        // Status tracks *predicted* classes — the client has no labels.
        self.status.observe(pass.predicted);

        match pass.hit_point {
            Some(p) => {
                self.round_hits[p] += 1;
                self.absorb.hits += 1;
            }
            None => self.absorb.misses += 1,
        }
        self.round_frames += 1;

        // Collection rules (§IV.C), Eq. 3 in frame order.
        let mut rows = absorbed;
        let mut absorb = |point: usize| {
            let (v, rest) = rows.split_at(rt.feature_dim(point));
            rows = rest;
            self.update.absorb(pass.predicted, point, v, BETA);
        };
        match pass.rule {
            Some(AbsorbRule::Reinforce) => {
                self.absorb.reinforced += 1;
                self.absorb.reinforced_correct += u64::from(pass.correct);
                for layer in &inputs.cache.layers()[..pass.looked_up] {
                    absorb(layer.point);
                }
            }
            Some(AbsorbRule::Expand) => {
                self.absorb.expanded += 1;
                self.absorb.expanded_correct += u64::from(pass.correct);
                for point in 0..rt.num_cache_points() {
                    absorb(point);
                }
            }
            None => {}
        }
        debug_assert!(rows.is_empty(), "absorbed vectors left over");
    }
}

impl CocaClient {
    /// Builds a client. `initial_hit_profile` is the server's shared-
    /// dataset standalone hit-ratio profile (length = preset cache points).
    pub fn new(
        id: u64,
        cfg: CocaConfig,
        rt: &ModelRuntime,
        profile: ClientProfile,
        initial_hit_profile: Vec<f64>,
    ) -> Self {
        let l = rt.num_cache_points();
        assert_eq!(initial_hit_profile.len(), l, "hit profile length mismatch");
        Self {
            id,
            inputs: FrameInputs {
                cfg,
                profile,
                cache: LocalCache::empty(),
            },
            view: ClientFeatureView::new(),
            ledger: Ledger {
                status: ClientStatus::new(rt.num_classes()),
                update: UpdateTable::new(),
                round_hits: vec![0; l],
                round_frames: 0,
                absorb: AbsorbStats::default(),
            },
            hit_ratio_est: initial_hit_profile,
            round: 0,
        }
    }

    /// Client id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The currently installed cache.
    pub fn cache(&self) -> &LocalCache {
        &self.inputs.cache
    }

    /// Collection-rule accounting.
    pub fn absorb_stats(&self) -> &AbsorbStats {
        &self.ledger.absorb
    }

    /// The status vectors (tests/diagnostics).
    pub fn status(&self) -> &ClientStatus {
        &self.ledger.status
    }

    /// Builds the next cache request (§IV.A step 1).
    pub fn cache_request(&self) -> CacheRequest {
        CacheRequest {
            client_id: self.id,
            round: self.round,
            timestamps: self.ledger.status.timestamps().to_vec(),
            hit_ratio: self.hit_ratio_est.clone(),
            budget_bytes: self.inputs.cfg.cache_budget_bytes as u64,
        }
    }

    /// Installs the cache the server allocated.
    pub fn install_cache(&mut self, cache: LocalCache) {
        self.inputs.cache = cache;
    }

    /// Processes one frame: cached inference, status update, collection —
    /// the pure phase, then the apply phase.
    ///
    /// `scratch` is caller-owned so a driver with many clients keeps ONE
    /// pooled [`LookupScratch`] instead of one per member.
    pub fn process_frame(
        &mut self,
        rt: &ModelRuntime,
        frame: &Frame,
        scratch: &mut LookupScratch,
    ) -> InferenceResult {
        let mut absorbed = std::mem::take(&mut scratch.absorbed);
        absorbed.clear();
        let (res, pass) = self
            .inputs
            .pure_phase(rt, frame, &mut self.view, scratch, &mut absorbed);
        self.ledger.apply(rt, &self.inputs, &pass, &absorbed);
        scratch.absorbed = absorbed;
        res
    }

    /// Processes `frames` — the rest of a round, in stream order — exactly
    /// as [`CocaClient::process_frame`] on each in turn would, and hands
    /// each frame's verdict to `on_frame` in frame order.
    ///
    /// The pure phases run on the pool's threads (the calling thread one
    /// of them), one run of frames per claim so each run's noise is drawn
    /// once; the apply phases run on the calling thread in frame order.
    /// Every thread's view shares this client's drifted offsets.
    pub(crate) fn process_frames(
        &mut self,
        rt: &ModelRuntime,
        frames: &[Frame],
        pool: &mut FramePool,
        mut on_frame: impl FnMut(&Frame, &FramePass),
    ) {
        for w in &mut pool.workers {
            w.0.view.share_offsets(&mut self.view, rt);
        }
        pool.blocks.clear();
        let mut start = 0;
        for i in 1..=frames.len() {
            if i == frames.len()
                || i - start == BLOCK_FRAMES
                || frames[i].run_seed != frames[start].run_seed
            {
                pool.blocks.push(start..i);
                start = i;
            }
        }
        let largest: usize = (0..rt.num_cache_points()).map(|p| rt.feature_dim(p)).sum();
        let (inputs, ledger) = (&self.inputs, &mut self.ledger);
        pool.pipeline.run(
            &mut pool.workers,
            &pool.blocks,
            RING_FRAMES * largest,
            |w, i, absorbed| {
                let w = &mut w.0;
                inputs
                    .pure_phase(rt, &frames[i], &mut w.view, &mut w.scratch, absorbed)
                    .1
            },
            |i, pass, absorbed| {
                ledger.apply(rt, inputs, &pass, absorbed);
                on_frame(&frames[i], &pass);
            },
        );
    }

    /// Ends the round: refreshes the R estimates from this round's
    /// measurements, snapshots φ and U into an upload, and resets
    /// round-local state.
    pub fn end_round(&mut self) -> UpdateUpload {
        let cfg = &self.inputs.cfg;
        let ledger = &mut self.ledger;
        if ledger.round_frames > 0 {
            // Standalone hit ratios under the paper's deflation hypothesis:
            // a sample hitting at point b would also hit at any deeper
            // point, so standalone R_j = cumulative hit fraction up to j.
            // Only activated points produce measurements; estimates for the
            // others keep their previous value.
            let activated = self.inputs.cache.activated_points();
            let mut cumulative = 0.0f64;
            for &p in &activated {
                cumulative += ledger.round_hits[p] as f64 / ledger.round_frames as f64;
                let a = HIT_RATIO_EWMA_ALPHA;
                self.hit_ratio_est[p] = a * cumulative + (1.0 - a) * self.hit_ratio_est[p];
            }
        }
        let mut table = ledger.update.take();
        // Under a quantized wire config, snap every collected vector onto
        // the precision's grid before upload: the f32 values shipped are
        // exactly the dequantized codes, and `wire_bytes` prices the
        // quantized payload. F32 (the default) is untouched.
        table.quantize_in_place(cfg.precision);
        let upload = UpdateUpload {
            client_id: self.id,
            round: self.round,
            table,
            frequency: ledger.status.frequency().to_vec(),
            precision: cfg.precision,
        };
        ledger.status.reset_round();
        ledger.round_hits.iter_mut().for_each(|h| *h = 0);
        ledger.round_frames = 0;
        self.round += 1;
        upload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_data::distribution::uniform_weights;
    use coca_data::{DatasetSpec, StreamConfig, StreamGenerator};
    use coca_model::ModelId;
    use coca_sim::SeedTree;

    fn setup() -> (ModelRuntime, CocaClient, StreamGenerator) {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(50);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let profile = ClientProfile::new(0, 0.2, 0.7, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let client = CocaClient::new(0, cfg, &rt, profile, vec![0.1; rt.num_cache_points()]);
        let stream = StreamGenerator::new(
            StreamConfig::new(uniform_weights(20), 16.0),
            &SeedTree::new(51),
        );
        (rt, client, stream)
    }

    /// A center cache over the given points.
    fn center_cache(rt: &ModelRuntime, points: &[usize]) -> LocalCache {
        let layers = points
            .iter()
            .map(|&p| {
                let mut l = crate::semantic::CacheLayer::new(p);
                for c in 0..rt.num_classes() {
                    l.insert(c, rt.universe().global_center(p, c).to_vec());
                }
                l
            })
            .collect();
        LocalCache::from_layers(layers)
    }

    #[test]
    fn frames_update_status_and_metrics() {
        let (rt, mut client, mut stream) = setup();
        client.install_cache(center_cache(&rt, &[10, 25, 33]));
        let mut scratch = LookupScratch::new();
        let mut hits = 0;
        for f in stream.take(200) {
            hits += u64::from(client.process_frame(&rt, &f, &mut scratch).is_hit());
        }
        assert_eq!(client.status().round_total(), 200);
        let stats = client.absorb_stats();
        assert_eq!((stats.hits, stats.hits + stats.misses), (hits, 200));
        assert!(hits > 60, "hit ratio {hits}/200 should exceed 0.3");
    }

    #[test]
    fn end_round_snapshots_and_resets() {
        let (rt, mut client, mut stream) = setup();
        client.install_cache(center_cache(&rt, &[15, 30]));
        let mut scratch = LookupScratch::new();
        for f in stream.take(150) {
            client.process_frame(&rt, &f, &mut scratch);
        }
        let phi_before = client.status().frequency().to_vec();
        let upload = client.end_round();
        assert_eq!(upload.frequency, phi_before);
        assert_eq!(upload.round, 0);
        assert_eq!(client.status().round_total(), 0);
        // Second round's request carries the updated round counter.
        assert_eq!(client.cache_request().round, 1);
    }

    #[test]
    fn collection_populates_update_table() {
        let (rt, mut client, mut stream) = setup();
        client.install_cache(center_cache(&rt, &[10, 20, 30]));
        let mut scratch = LookupScratch::new();
        for f in stream.take(300) {
            client.process_frame(&rt, &f, &mut scratch);
        }
        let upload = client.end_round();
        assert!(
            !upload.table.is_empty(),
            "300 frames should absorb at least one sample (reinforced {} expanded {})",
            client.absorb_stats().reinforced,
            client.absorb_stats().expanded,
        );
    }

    #[test]
    fn hit_ratio_estimates_move_toward_measurements() {
        let (rt, mut client, mut stream) = setup();
        client.install_cache(center_cache(&rt, &[10, 25]));
        let before = client.cache_request().hit_ratio.clone();
        let mut scratch = LookupScratch::new();
        for f in stream.take(300) {
            client.process_frame(&rt, &f, &mut scratch);
        }
        let _ = client.end_round();
        let after = client.cache_request().hit_ratio.clone();
        // Activated points were measured (moved); untouched points kept.
        assert_ne!(before[10], after[10]);
        assert_eq!(before[0], after[0]);
        // Deeper activated point has ≥ the shallow one (cumulative).
        assert!(after[25] + 1e-12 >= after[10] * 0.999);
    }

    #[test]
    fn expand_reuses_looked_up_vectors_bit_for_bit() {
        // Reference: rule 2 synthesizes every preset layer afresh, each
        // vector with a fresh view. The client reuses the looked-up layers'
        // vectors instead; its upload must not differ by one byte — neither
        // frame by frame nor as a batch on one, two or three threads — and
        // the batch must yield the per-frame path's outcome for each frame.
        use coca_net::Wire;
        let (rt, mut client, mut stream) = setup();
        // Half the classes cached: frames of the other half miss at every
        // looked-up layer and the confident ones expand.
        let layers = [2, 10, 25, 33].map(|p| {
            let mut l = crate::semantic::CacheLayer::new(p);
            for c in 0..rt.num_classes() / 2 {
                l.insert(c, rt.universe().global_center(p, c).to_vec());
            }
            l
        });
        client.install_cache(LocalCache::from_layers(layers.into()));
        let inputs = &client.inputs;
        let (cfg, profile, cache) = (inputs.cfg, inputs.profile.clone(), inputs.cache.clone());
        let batch_client = |workers: usize| {
            let mut c = CocaClient::new(
                0,
                cfg,
                &rt,
                profile.clone(),
                vec![0.1; rt.num_cache_points()],
            );
            c.install_cache(cache.clone());
            (c, FramePool::new(workers))
        };
        let mut batches: Vec<_> = [1, 2, 3].map(batch_client).into();
        let frames = stream.take(300);
        let mut status = ClientStatus::new(rt.num_classes());
        let mut update = UpdateTable::new();
        let (mut scratch, mut ref_scratch) = (LookupScratch::new(), LookupScratch::new());
        let mut outcomes = Vec::new();
        for f in &frames {
            let r = client.process_frame(&rt, f, &mut scratch);
            outcomes.push((r.latency, r.correct, r.hit_point));
            let mut view = ClientFeatureView::new();
            let res = infer_with_cache(&rt, &profile, f, &cache, &cfg, &mut view, &mut ref_scratch);
            status.observe(res.predicted);
            let miss_margin = res.full_prediction.as_ref().map(|p| p.margin);
            let hit_score = res.hit_point.map(|_| res.hit_score);
            match absorb_rule(hit_score, miss_margin, cfg.gamma_collect, cfg.delta_collect) {
                Some(AbsorbRule::Reinforce) => {
                    for (point, v) in &res.observed {
                        update.absorb(res.predicted, *point, v, BETA);
                    }
                }
                Some(AbsorbRule::Expand) => {
                    for point in 0..rt.num_cache_points() {
                        let mut fresh = ClientFeatureView::new();
                        let v = rt.semantic_vector(f, &profile, point, &mut fresh);
                        update.absorb(res.predicted, point, &v, BETA);
                    }
                }
                None => {}
            }
        }
        // The batch path over the same frames, split where a driver would
        // split them (rounds of uneven length).
        for (c, pool) in &mut batches {
            let mut batch_outcomes = Vec::new();
            for part in [&frames[..7], &frames[7..150], &frames[150..]] {
                let mut seen = 0;
                c.process_frames(&rt, part, pool, |f, pass| {
                    assert_eq!(f.seq, part[seen].seq);
                    seen += 1;
                    batch_outcomes.push((pass.latency, pass.correct, pass.hit_point));
                });
                assert_eq!(seen, part.len());
            }
            assert_eq!(batch_outcomes, outcomes);
        }
        assert!(client.absorb_stats().expanded > 0);
        let mut table = update.take();
        table.quantize_in_place(cfg.precision);
        let reference = UpdateUpload {
            client_id: 0,
            round: 0,
            table,
            frequency: status.frequency().to_vec(),
            precision: cfg.precision,
        };
        let bytes = |u: &UpdateUpload| {
            let mut out = Vec::new();
            u.encode(&mut out);
            out
        };
        let per_frame = bytes(&client.end_round());
        assert_eq!(per_frame, bytes(&reference));
        for (c, _) in &mut batches {
            assert_eq!(bytes(&c.end_round()), per_frame);
            assert_eq!(c.absorb_stats().expanded, client.absorb_stats().expanded);
            assert_eq!(
                c.absorb_stats().reinforced,
                client.absorb_stats().reinforced
            );
        }
    }

    #[test]
    fn empty_cache_still_collects_expansions() {
        let (rt, mut client, mut stream) = setup();
        // No cache installed: every frame misses; confident ones absorb.
        let mut scratch = LookupScratch::new();
        for f in stream.take(200) {
            let r = client.process_frame(&rt, &f, &mut scratch);
            assert!(!r.is_hit());
        }
        assert!(client.absorb_stats().expanded > 0);
        assert_eq!(client.absorb_stats().hits, 0);
    }
}

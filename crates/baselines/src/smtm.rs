//! SMTM-style single-client semantic caching (§II.2, §VI.B).
//!
//! Same class-based semantic matching machinery as CoCa (SMTM is where the
//! mechanism comes from), but strictly per-client:
//!
//! * **All preset cache layers are active** — SMTM has no layer-selection
//!   stage; this is exactly the lookup-overhead weakness the paper's §VI.E
//!   measurements expose.
//! * **Hot-spot classes are chosen locally** from the client's own
//!   frequency × recency score (the same 0.95-mass rule CoCa borrows from
//!   SMTM), with no global frequency information.
//! * **Centroids update locally** (same rule-1/rule-2 absorption as CoCa,
//!   same thresholds, but into a private table; no cross-client sharing,
//!   so non-IID feature drift is only ever corrected from the client's own
//!   samples).
//!
//! As a [`MethodDriver`] SMTM is degenerate on the network: no allocation
//! phase, no server queries, no uploads — everything resolves on-device.
//! Hot-spot refresh runs at the shared round boundary inside
//! [`MethodDriver::end_round`].

use coca_core::collect::{absorb_rule, AbsorbRule, UpdateTable};
use coca_core::driver::{FrameOutcome, FrameStep, MethodDriver, NoMsg};
use coca_core::engine::Scenario;
use coca_core::global::GlobalCacheTable;
use coca_core::lookup::infer_with_cache;
use coca_core::semantic::LocalCache;
use coca_core::server::seed_global_table;
use coca_core::status::ClientStatus;
use coca_core::CocaConfig;
use coca_data::Frame;
use coca_model::ClientFeatureView;
use serde::{Deserialize, Serialize};

/// SMTM driver configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SmtmConfig {
    /// Hit / collection thresholds (shared with CoCa for fairness).
    pub theta: f32,
    /// Rule-1 reinforcement threshold.
    pub gamma_collect: f32,
    /// Rule-2 expansion threshold.
    pub delta_collect: f32,
    /// Update-table decay β.
    pub beta: f32,
    /// Hot-spot selection period in frames (SMTM "frequently assesses the
    /// importance of each class"; reuse the round length).
    pub refresh_frames: usize,
    /// Hot-spot score mass.
    pub hotspot_mass: f64,
    /// Recency decay base.
    pub recency_base: f64,
    /// Whether centroids update from the client's own (self-labelled)
    /// stream. Defaults to false: under long self-labelled runs the local
    /// update loop can destabilize (wrong hits reinforce wrong centroids
    /// with no cross-client dilution); the stable configuration keeps the
    /// profiled centroids and only adapts the hot-spot set, which matches
    /// SMTM's published behaviour on stream data.
    pub local_updates: bool,
}

impl SmtmConfig {
    /// Derives SMTM settings from a CoCa configuration so comparisons
    /// share every threshold.
    pub fn from_coca(cfg: &CocaConfig) -> Self {
        Self {
            theta: cfg.theta,
            gamma_collect: cfg.gamma_collect,
            delta_collect: cfg.delta_collect,
            beta: cfg.beta,
            refresh_frames: cfg.round_frames,
            hotspot_mass: cfg.hotspot_mass,
            // SMTM weighs total frequency much more heavily than recency:
            // its hot set keeps every class that appears at all, which is
            // exactly why its lookups get expensive when many classes are
            // active (the paper's §VI.E critique of SMTM).
            recency_base: 0.85,
            local_updates: false,
        }
    }
}

/// One SMTM client: a private centroid table + local status.
struct SmtmClient {
    /// Private copy of the seeded centroid table, updated locally.
    table: GlobalCacheTable,
    status: ClientStatus,
    /// Cumulative (all-time) class frequencies for the importance score.
    total_freq: Vec<u64>,
    update: UpdateTable,
    cache: LocalCache,
    view: ClientFeatureView,
}

impl SmtmClient {
    fn refresh_cache(&mut self, cfg: &SmtmConfig) {
        // Local importance score: total frequency × recency decay, exactly
        // the structure SMTM describes (and CoCa's Eq. 10 inherits).
        let scores: Vec<f64> = self
            .total_freq
            .iter()
            .zip(self.status.timestamps())
            .map(|(&f, &tau)| {
                let staleness = (tau as f64 / cfg.refresh_frames as f64).floor();
                f as f64 * cfg.recency_base.powf(staleness)
            })
            .collect();
        let total: f64 = scores.iter().sum();
        let classes: Vec<usize> = if total <= 0.0 {
            (0..scores.len()).collect()
        } else {
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            let mut acc = 0.0;
            let mut hot = Vec::new();
            for i in order {
                hot.push(i);
                acc += scores[i];
                if acc >= total * cfg.hotspot_mass {
                    break;
                }
            }
            hot
        };
        // All preset layers, hot classes only.
        let layers: Vec<usize> = (0..self.table.num_layers()).collect();
        self.cache = self.table.extract(&layers, &classes);
    }

    /// Merges this round's locally collected vectors into the private
    /// table. SMTM entries are running class centroids, so the new
    /// evidence blends into the existing center instead of replacing it —
    /// a single noisy round must not overwrite a stable centroid.
    fn apply_updates(&mut self) {
        const BLEND: f32 = 0.3;
        let collected = self.update.take();
        for (class, layer, v) in collected.iter() {
            match self.table.get(class, layer) {
                Some(old) => {
                    let mut merged = old.to_vec();
                    coca_math::vector::scale(1.0 - BLEND, &mut merged);
                    coca_math::vector::axpy(BLEND, v, &mut merged);
                    self.table.set(class, layer, merged);
                }
                None => self.table.set(class, layer, v.to_vec()),
            }
        }
    }
}

/// The SMTM method driver. SMTM is strictly per-client, so churn needs
/// no shared-state handling: a joiner's private table is freshly seeded
/// at boot, and a leaver takes its table with it.
pub struct SmtmDriver<'s> {
    scenario: &'s Scenario,
    cfg: SmtmConfig,
    /// The lookup path reuses CoCa's Eq. 1/2 implementation via a
    /// CocaConfig carrying SMTM's thresholds.
    lookup_cfg: CocaConfig,
    clients: Vec<SmtmClient>,
    /// Pooled lookup buffer shared by all clients (frames are sequential).
    scratch: coca_core::LookupScratch,
}

impl<'s> SmtmDriver<'s> {
    /// Builds the driver over a scenario.
    pub fn new(scenario: &'s Scenario, cfg: SmtmConfig) -> Self {
        let rt = &scenario.rt;
        let mut lookup_cfg = CocaConfig::for_model(rt.arch().id);
        lookup_cfg.theta = cfg.theta;
        lookup_cfg.gamma_collect = cfg.gamma_collect;
        lookup_cfg.delta_collect = cfg.delta_collect;
        lookup_cfg.beta = cfg.beta;
        let clients: Vec<SmtmClient> = (0..scenario.profiles.len())
            .map(|_| {
                let mut c = SmtmClient {
                    table: seed_global_table(rt, scenario.seeds()),
                    status: ClientStatus::new(rt.num_classes()),
                    total_freq: vec![0; rt.num_classes()],
                    update: UpdateTable::new(),
                    cache: LocalCache::empty(),
                    view: ClientFeatureView::new(),
                };
                c.refresh_cache(&cfg);
                c
            })
            .collect();
        Self {
            scenario,
            cfg,
            lookup_cfg,
            clients,
            scratch: coca_core::LookupScratch::new(),
        }
    }
}

impl MethodDriver for SmtmDriver<'_> {
    type Request = NoMsg;
    type Alloc = NoMsg;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = NoMsg;

    fn name(&self) -> &str {
        "SMTM"
    }

    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<NoMsg> {
        let rt = &self.scenario.rt;
        let cfg = &self.cfg;
        let client = &mut self.clients[k];
        let res = infer_with_cache(
            rt,
            &self.scenario.profiles[k],
            frame,
            &client.cache,
            &self.lookup_cfg,
            &mut client.view,
            &mut self.scratch,
        );
        client.status.observe(res.predicted);
        client.total_freq[res.predicted] += 1;

        let miss_margin = res.full_prediction.as_ref().map(|p| p.margin);
        let hit_score = res.hit_point.map(|_| res.hit_score);
        match absorb_rule(hit_score, miss_margin, cfg.gamma_collect, cfg.delta_collect) {
            Some(AbsorbRule::Reinforce) => {
                for (point, v) in &res.observed {
                    client.update.absorb(res.predicted, *point, v, cfg.beta);
                }
            }
            Some(AbsorbRule::Expand) => {
                for point in 0..rt.num_cache_points() {
                    let v = rt.semantic_vector(
                        frame,
                        &self.scenario.profiles[k],
                        point,
                        &mut client.view,
                    );
                    client.update.absorb(res.predicted, point, &v, cfg.beta);
                }
            }
            None => {}
        }
        FrameStep::Done(FrameOutcome {
            compute: res.latency,
            correct: res.correct,
            hit_point: res.hit_point,
        })
    }

    fn end_round(&mut self, k: usize) -> Option<NoMsg> {
        let client = &mut self.clients[k];
        if self.cfg.local_updates {
            client.apply_updates();
        } else {
            client.update.take();
        }
        client.refresh_cache(&self.cfg);
        client.status.reset_round();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::driver::{drive, DriveConfig};
    use coca_core::engine::ScenarioConfig;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;

    fn scenario(seed: u64) -> Scenario {
        let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        cfg.num_clients = 2;
        cfg.seed = seed;
        Scenario::build(cfg)
    }

    #[test]
    fn smtm_beats_edge_only_on_latency() {
        let s = scenario(81);
        let full = s.rt.full_compute().as_millis_f64();
        let cfg = SmtmConfig::from_coca(&CocaConfig::for_model(ModelId::ResNet101));
        let r = drive(&s, &mut SmtmDriver::new(&s, cfg), &DriveConfig::new(3, 150));
        assert_eq!(r.frames, 2 * 3 * 150);
        assert!(r.hit_ratio > 0.2, "hit ratio {}", r.hit_ratio);
        assert!(r.mean_latency_ms < full, "{} vs {full}", r.mean_latency_ms);
    }

    #[test]
    fn smtm_is_deterministic() {
        let cfg = SmtmConfig::from_coca(&CocaConfig::for_model(ModelId::ResNet101));
        let run = || {
            let s = scenario(82);
            drive(&s, &mut SmtmDriver::new(&s, cfg), &DriveConfig::new(2, 100))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.accuracy_pct, b.accuracy_pct);
        assert_eq!(a.frame_digest, b.frame_digest);
    }
}

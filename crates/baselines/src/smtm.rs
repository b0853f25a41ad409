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
//! * **Centroids stay at their profiled values.** No client shares its
//!   samples, and a local update loop under long self-labelled runs can
//!   destabilize (wrong hits reinforce wrong centroids with no
//!   cross-client dilution), so only the hot-spot set adapts — SMTM's
//!   published behaviour on stream data. Non-IID feature drift is never
//!   corrected.
//!
//! As a [`MethodDriver`] SMTM is degenerate on the network: no allocation
//! phase, no server queries, no uploads — everything resolves on-device.
//! Hot-spot refresh runs at the shared round boundary inside
//! [`MethodDriver::end_round`].

use coca_core::aca::select_hot_classes;
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

/// SMTM's recency decay base. SMTM weighs total frequency much more
/// heavily than recency: its hot set keeps every class that appears at
/// all, which is exactly why its lookups get expensive when many classes
/// are active (the paper's §VI.E critique of SMTM).
const RECENCY_BASE: f64 = 0.85;

/// One SMTM client: its local status and the hot-spot cache it built from
/// the seeded centroids.
struct SmtmClient {
    status: ClientStatus,
    /// Cumulative (all-time) class frequencies for the importance score.
    total_freq: Vec<u64>,
    cache: LocalCache,
    view: ClientFeatureView,
}

impl SmtmClient {
    fn refresh_cache(&mut self, table: &GlobalCacheTable, cfg: &CocaConfig) {
        // Local importance score: total frequency × recency decay, the
        // structure SMTM describes and CoCa's Algorithm 1 inherits.
        let classes = select_hot_classes(cfg, &self.total_freq, self.status.timestamps());
        // All preset layers, hot classes only.
        let layers: Vec<usize> = (0..table.num_layers()).collect();
        self.cache = table.extract(&layers, &classes);
    }
}

/// The SMTM method driver. SMTM is strictly per-client, so churn needs
/// no shared-state handling: a joiner builds its hot-spot cache from the
/// seeded centroids, and a leaver takes its status with it.
pub struct SmtmDriver<'s> {
    scenario: &'s Scenario,
    /// The caller's configuration (θ, α, mass and round length shared
    /// with CoCa for fairness) with SMTM's recency base.
    cfg: CocaConfig,
    /// The seeded centroid table every client's cache is extracted from;
    /// no client ever writes it.
    table: GlobalCacheTable,
    clients: Vec<SmtmClient>,
    /// Pooled lookup buffer shared by all clients (frames are sequential).
    scratch: coca_core::LookupScratch,
}

impl<'s> SmtmDriver<'s> {
    /// Builds the driver over a scenario. Lookups use `cfg`'s θ and α;
    /// the hot set is CoCa's Algorithm 1 stage 1 over the client's own
    /// frequencies, at SMTM's recency base.
    pub fn new(scenario: &'s Scenario, cfg: &CocaConfig) -> Self {
        let rt = &scenario.rt;
        let cfg = CocaConfig {
            recency_base: RECENCY_BASE,
            ..*cfg
        };
        let table = seed_global_table(rt, scenario.seeds());
        let clients: Vec<SmtmClient> = (0..scenario.profiles.len())
            .map(|_| {
                let mut c = SmtmClient {
                    status: ClientStatus::new(rt.num_classes()),
                    total_freq: vec![0; rt.num_classes()],
                    cache: LocalCache::empty(),
                    view: ClientFeatureView::new(),
                };
                c.refresh_cache(&table, &cfg);
                c
            })
            .collect();
        Self {
            scenario,
            cfg,
            table,
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
        let client = &mut self.clients[k];
        let res = infer_with_cache(
            &self.scenario.rt,
            &self.scenario.profiles[k],
            frame,
            &client.cache,
            &self.cfg,
            &mut client.view,
            &mut self.scratch,
        );
        client.status.observe(res.predicted);
        client.total_freq[res.predicted] += 1;
        FrameStep::Done(FrameOutcome {
            compute: res.latency,
            correct: res.correct,
            hit_point: res.hit_point,
        })
    }

    fn end_round(&mut self, k: usize) -> Option<NoMsg> {
        let client = &mut self.clients[k];
        client.refresh_cache(&self.table, &self.cfg);
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
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let r = drive(
            &s,
            &mut SmtmDriver::new(&s, &cfg),
            &DriveConfig::new(3, 150),
        );
        assert_eq!(r.frames, 2 * 3 * 150);
        assert!(r.hit_ratio > 0.2, "hit ratio {}", r.hit_ratio);
        assert!(r.mean_latency_ms < full, "{} vs {full}", r.mean_latency_ms);
    }

    #[test]
    fn smtm_is_deterministic() {
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let run = || {
            let s = scenario(82);
            drive(
                &s,
                &mut SmtmDriver::new(&s, &cfg),
                &DriveConfig::new(2, 100),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.accuracy_pct, b.accuracy_pct);
        assert_eq!(a.frame_digest, b.frame_digest);
    }
}

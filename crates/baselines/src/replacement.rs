//! Classical cache-replacement policies on the semantic cache (Fig. 8).
//!
//! The paper's §VI.G comparison: a fixed set of high-expected-benefit
//! cache layers, each holding at most `cache_size` class entries, managed
//! by LRU / FIFO / RAND replacement; ACA is run with the same total memory
//! for fairness. Entries are fetched from the shared seeded centroid table
//! when inserted (the server "loads" the class's centroid to the client).
//!
//! As a [`MethodDriver`] the policies are degenerate on the network: the
//! paper treats them as local caches, so misses materialize entries from
//! the local replica of the seeded table at zero network cost and the
//! driver issues no server traffic.

use coca_core::driver::{FrameOutcome, FrameStep, MethodDriver, NoMsg};
use coca_core::engine::Scenario;
use coca_core::global::GlobalCacheTable;
use coca_core::lookup::infer_with_cache;
use coca_core::semantic::{CacheLayer, LocalCache};
use coca_core::server::{profile_hit_ratios, seed_global_table};
use coca_core::CocaConfig;
use coca_data::Frame;
use coca_model::ClientFeatureView;
use rand::rngs::SmallRng;
use rand::Rng;

/// The replacement policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used class entry.
    Lru,
    /// Evict the earliest-inserted class entry.
    Fifo,
    /// Evict a uniformly random entry.
    Rand,
}

impl ReplacementPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Rand => "RAND",
        }
    }
}

/// Per-class bookkeeping for one managed cache.
#[derive(Debug, Clone)]
struct ManagedCache {
    /// Classes currently cached (same set at every layer, as in CoCa).
    classes: Vec<usize>,
    /// Parallel: last-touch tick (LRU) or insert tick (FIFO).
    stamp: Vec<u64>,
    capacity: usize,
    clock: u64,
}

impl ManagedCache {
    fn new(capacity: usize) -> Self {
        Self {
            classes: Vec::new(),
            stamp: Vec::new(),
            capacity,
            clock: 0,
        }
    }

    fn contains(&self, class: usize) -> bool {
        self.classes.contains(&class)
    }

    fn touch(&mut self, class: usize, policy: ReplacementPolicy) {
        self.clock += 1;
        if policy == ReplacementPolicy::Lru {
            if let Some(i) = self.classes.iter().position(|&c| c == class) {
                self.stamp[i] = self.clock;
            }
        }
    }

    /// Inserts `class`, evicting per policy when full. Returns true if the
    /// set changed.
    fn insert(&mut self, class: usize, policy: ReplacementPolicy, rng: &mut SmallRng) -> bool {
        if self.contains(class) {
            return false;
        }
        self.clock += 1;
        if self.classes.len() >= self.capacity {
            let victim = match policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self
                    .stamp
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &s)| s)
                    .map(|(i, _)| i)
                    .expect("non-empty cache"),
                ReplacementPolicy::Rand => rng.gen_range(0..self.classes.len()),
            };
            self.classes.swap_remove(victim);
            self.stamp.swap_remove(victim);
        }
        self.classes.push(class);
        self.stamp.push(self.clock);
        true
    }
}

/// Picks the fixed layer set for the baselines: highest expected benefit
/// per byte (`Υ·R/m`) from the shared-dataset profile, as many layers as
/// the paper's setup activates (it fixes the set, then varies entry
/// count).
pub fn fixed_high_benefit_layers(
    profile: &[f64],
    saved_ms: &[f64],
    entry_bytes: &[usize],
    count: usize,
) -> Vec<usize> {
    let mut scored: Vec<(f64, usize)> = (0..profile.len())
        .map(|j| (profile[j] * saved_ms[j] / entry_bytes[j].max(1) as f64, j))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut layers: Vec<usize> = scored.into_iter().take(count).map(|(_, j)| j).collect();
    layers.sort_unstable();
    layers
}

/// Builds the [`LocalCache`] for the currently cached classes.
fn materialize(table: &GlobalCacheTable, layers: &[usize], managed: &ManagedCache) -> LocalCache {
    let mut out = Vec::with_capacity(layers.len());
    for &layer in layers {
        let mut cl = CacheLayer::new(layer);
        for &class in &managed.classes {
            if let Some(v) = table.get(class, layer) {
                cl.insert(class, v.to_vec());
            }
        }
        if !cl.is_empty() {
            out.push(cl);
        }
    }
    LocalCache::from_layers(out)
}

/// One replacement-policy client.
struct ReplacementClient {
    managed: ManagedCache,
    rng: SmallRng,
    cache: LocalCache,
    view: ClientFeatureView,
}

/// The replacement-policy method driver; its row is named after the
/// policy (`"LRU"`, `"FIFO"`, `"RAND"`). The managed caches are strictly
/// local, so churn needs no shared-state handling; a joiner starts with
/// an empty managed cache.
pub struct ReplacementDriver<'s> {
    scenario: &'s Scenario,
    policy: ReplacementPolicy,
    lookup_cfg: CocaConfig,
    table: GlobalCacheTable,
    layers: Vec<usize>,
    clients: Vec<ReplacementClient>,
    /// Pooled lookup buffer shared by all clients (frames are sequential).
    scratch: coca_core::LookupScratch,
}

impl<'s> ReplacementDriver<'s> {
    /// Builds the driver: `cache_size` entries per layer on `num_layers`
    /// fixed high-benefit layers.
    pub fn new(
        scenario: &'s Scenario,
        policy: ReplacementPolicy,
        cache_size: usize,
        num_layers: usize,
    ) -> Self {
        let rt = &scenario.rt;
        let lookup_cfg = CocaConfig::for_model(rt.arch().id);
        let table = seed_global_table(rt, scenario.seeds());
        let profile = profile_hit_ratios(rt, &lookup_cfg, &table, scenario.seeds());
        let saved: Vec<f64> = (0..rt.num_cache_points())
            .map(|j| rt.saved_if_hit_at(j).as_millis_f64())
            .collect();
        let bytes: Vec<usize> = (0..rt.num_cache_points())
            .map(|j| rt.entry_bytes(j))
            .collect();
        let layers = fixed_high_benefit_layers(&profile, &saved, &bytes, num_layers);
        let clients: Vec<ReplacementClient> = (0..scenario.profiles.len())
            .map(|k| {
                let managed = ManagedCache::new(cache_size);
                let cache = materialize(&table, &layers, &managed);
                ReplacementClient {
                    managed,
                    rng: scenario
                        .seeds()
                        .child("replacement")
                        .child_idx("client", k as u64)
                        .rng(),
                    cache,
                    view: ClientFeatureView::new(),
                }
            })
            .collect();
        Self {
            scenario,
            policy,
            lookup_cfg,
            table,
            layers,
            clients,
            scratch: coca_core::LookupScratch::new(),
        }
    }
}

impl MethodDriver for ReplacementDriver<'_> {
    type Request = NoMsg;
    type Alloc = NoMsg;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = NoMsg;

    fn name(&self) -> &str {
        self.policy.name()
    }

    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<NoMsg> {
        let client = &mut self.clients[k];
        let res = infer_with_cache(
            &self.scenario.rt,
            &self.scenario.profiles[k],
            frame,
            &client.cache,
            &self.lookup_cfg,
            &mut client.view,
            &mut self.scratch,
        );
        match res.hit_point {
            Some(_) => client.managed.touch(res.predicted, self.policy),
            None => {
                // Miss: load the predicted class's centroid set.
                if client
                    .managed
                    .insert(res.predicted, self.policy, &mut client.rng)
                {
                    client.cache = materialize(&self.table, &self.layers, &client.managed);
                }
            }
        }
        FrameStep::Done(FrameOutcome {
            compute: res.latency,
            correct: res.correct,
            hit_point: res.hit_point,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::driver::{drive, DriveConfig};
    use coca_core::engine::{EngineReport, ScenarioConfig};
    use coca_data::distribution::long_tail_weights;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;
    use rand::SeedableRng;

    fn scenario(seed: u64) -> Scenario {
        let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        cfg.num_clients = 2;
        cfg.seed = seed;
        cfg.global_popularity = long_tail_weights(20, 20.0);
        Scenario::build(cfg)
    }

    /// `policy` with `size` entries on 4 layers over `scenario(seed)`.
    fn run(seed: u64, policy: ReplacementPolicy, size: usize, cfg: &DriveConfig) -> EngineReport {
        let s = scenario(seed);
        drive(&s, &mut ReplacementDriver::new(&s, policy, size, 4), cfg)
    }

    #[test]
    fn lru_touch_protects_recent() {
        let mut m = ManagedCache::new(2);
        let mut rng = SmallRng::seed_from_u64(1);
        m.insert(0, ReplacementPolicy::Lru, &mut rng);
        m.insert(1, ReplacementPolicy::Lru, &mut rng);
        m.touch(0, ReplacementPolicy::Lru);
        m.insert(2, ReplacementPolicy::Lru, &mut rng); // evicts 1
        assert!(m.contains(0) && m.contains(2) && !m.contains(1));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut m = ManagedCache::new(2);
        let mut rng = SmallRng::seed_from_u64(2);
        m.insert(0, ReplacementPolicy::Fifo, &mut rng);
        m.insert(1, ReplacementPolicy::Fifo, &mut rng);
        m.touch(0, ReplacementPolicy::Fifo);
        m.insert(2, ReplacementPolicy::Fifo, &mut rng); // still evicts 0
        assert!(!m.contains(0) && m.contains(1) && m.contains(2));
    }

    #[test]
    fn rand_keeps_capacity() {
        let mut m = ManagedCache::new(3);
        let mut rng = SmallRng::seed_from_u64(3);
        for c in 0..10 {
            m.insert(c, ReplacementPolicy::Rand, &mut rng);
            assert!(m.classes.len() <= 3);
        }
    }

    #[test]
    fn fixed_layers_prefer_high_benefit() {
        let profile = [0.1, 0.5, 0.9, 0.2];
        let saved = [40.0, 30.0, 20.0, 10.0];
        let bytes = [100usize, 100, 100, 100];
        let layers = fixed_high_benefit_layers(&profile, &saved, &bytes, 2);
        assert_eq!(layers, vec![1, 2]);
    }

    #[test]
    fn replacement_run_saves_latency_on_longtail() {
        let full = scenario(97).rt.full_compute().as_millis_f64();
        let r = run(97, ReplacementPolicy::Lru, 10, &DriveConfig::new(3, 150));
        assert_eq!(r.frames, 2 * 3 * 150);
        assert!(r.mean_latency_ms < full, "{} vs {full}", r.mean_latency_ms);
        assert!(r.hit_ratio > 0.2, "hit ratio {}", r.hit_ratio);
    }

    #[test]
    fn policies_differ_deterministically() {
        let cfg = DriveConfig::new(2, 120);
        let a = run(98, ReplacementPolicy::Lru, 8, &cfg);
        let b = run(98, ReplacementPolicy::Lru, 8, &cfg);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.frame_digest, b.frame_digest);
        // Tiny capacity forces constant eviction, where policies diverge.
        let c = run(98, ReplacementPolicy::Lru, 3, &cfg);
        let d = run(98, ReplacementPolicy::Rand, 3, &cfg);
        assert!(
            c.mean_latency_ms != d.mean_latency_ms || c.hit_ratio != d.hit_ratio,
            "LRU and RAND agree exactly: lru {} rand {}",
            c.mean_latency_ms,
            d.mean_latency_ms
        );
    }
}

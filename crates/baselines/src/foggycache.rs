//! FoggyCache-style cross-device approximate computation reuse (§VI.B).
//!
//! Guo et al., MobiCom'18. Mechanism as the paper describes it:
//!
//! * Inference requests are first looked up in a **local sample cache**
//!   keyed by shallow input-level features, indexed with **A-LSH**
//!   (adaptive random-hyperplane LSH) and answered by **H-kNN**
//!   (homogenized k-nearest-neighbour voting).
//! * On a local miss the query goes to the **server's global store**,
//!   which aggregates samples from all clients (the cross-client reuse).
//! * Stores evict with plain **LRU** — exactly the weakness the paper
//!   exploits under long-tail distributions.
//!
//! Unlike the semantic-cache methods, entries are *individual samples*
//! (feature vector + label), not class centroids.
//!
//! As a [`MethodDriver`], the remote lookup is a **real request/response
//! event pair** through the shared engine: the query pays feature-vector
//! uplink, server FIFO queue wait, an H-kNN service time, and reply
//! downlink — the same contention model CoCa's allocation traffic faces —
//! instead of the flat `server_rtt_ms` the old private loop charged.
//! Samples learned from full inferences piggyback onto the reply cycle
//! (inserted into the shared store at resume time, no extra charge).

use std::collections::HashMap;

use coca_core::driver::{FrameOutcome, FrameStep, MethodDriver, NoMsg};
use coca_core::engine::Scenario;
use coca_data::Frame;
use coca_model::ClientFeatureView;
use coca_net::WireSize;
use coca_sim::{SeedTree, SimDuration};
use serde::{Deserialize, Serialize};

/// FoggyCache driver configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FoggyCacheConfig {
    /// Neighbours consulted by H-kNN.
    pub k: usize,
    /// Minimum fraction of the k neighbours agreeing on one class.
    pub homogeneity: f64,
    /// Minimum mean cosine similarity of the majority neighbours.
    pub min_similarity: f32,
    /// Local sample-cache capacity.
    pub local_capacity: usize,
    /// Server global-store capacity.
    pub server_capacity: usize,
    /// LSH tables.
    pub lsh_tables: usize,
    /// Initial hyperplanes (bits) per table; adapted per round.
    pub lsh_bits: usize,
    /// Input-level jitter added to the matching key. FoggyCache keys on
    /// *raw input* features, which vary across consecutive video frames
    /// (motion, exposure) far more than pooled semantic features do; the
    /// jitter models that brittleness.
    pub input_jitter: f32,
}

impl Default for FoggyCacheConfig {
    fn default() -> Self {
        Self {
            k: 5,
            homogeneity: 1.0,
            min_similarity: 0.65,
            local_capacity: 300,
            server_capacity: 12_000,
            lsh_tables: 4,
            lsh_bits: 10,
            input_jitter: 0.08,
        }
    }
}

/// One stored sample. Its whitened match key lives as a row of the
/// store's contiguous [`coca_math::VectorStore`], not here — the H-kNN
/// scan streams one flat buffer instead of chasing per-sample heap rows.
#[derive(Debug, Clone)]
struct Sample {
    /// Raw feature (kept for re-keying when the center freezes).
    feature: Vec<f32>,
    label: usize,
    last_used: u64,
    /// Client that contributed the sample — provenance for retiring a
    /// leaver's contributions from the shared global store.
    owner: u32,
}

/// Adaptive random-hyperplane LSH over one store.
struct Alsh {
    /// `planes[t]` — hyperplanes of table `t` (bits × dim, row-major).
    planes: Vec<Vec<f32>>,
    bits: usize,
    dim: usize,
    tables: Vec<HashMap<u64, Vec<u32>>>,
    /// Rolling candidate-count statistics for adaptation.
    probe_count: u64,
    candidate_sum: u64,
}

impl Alsh {
    fn new(dim: usize, tables: usize, bits: usize, seeds: &SeedTree) -> Self {
        let mut planes = Vec::with_capacity(tables);
        for t in 0..tables {
            let mut rng = seeds.rng_for_idx("alsh-table", t as u64);
            let mut p = Vec::with_capacity(bits * dim);
            for _ in 0..bits * dim {
                p.push(coca_math::vector::standard_normal(&mut rng));
            }
            planes.push(p);
        }
        Self {
            planes,
            bits,
            dim,
            tables: vec![HashMap::new(); tables],
            probe_count: 0,
            candidate_sum: 0,
        }
    }

    fn signature(&self, table: usize, v: &[f32]) -> u64 {
        let planes = &self.planes[table];
        let mut sig = 0u64;
        for b in 0..self.bits {
            let row = &planes[b * self.dim..(b + 1) * self.dim];
            if coca_math::dot(row, v) >= 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }

    fn insert(&mut self, id: u32, v: &[f32]) {
        for t in 0..self.tables.len() {
            let sig = self.signature(t, v);
            self.tables[t].entry(sig).or_default().push(id);
        }
    }

    fn remove(&mut self, id: u32, v: &[f32]) {
        for t in 0..self.tables.len() {
            let sig = self.signature(t, v);
            if let Some(bucket) = self.tables[t].get_mut(&sig) {
                bucket.retain(|&x| x != id);
            }
        }
    }

    /// Candidate ids across all tables (deduplicated).
    fn candidates(&mut self, v: &[f32]) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for t in 0..self.tables.len() {
            let sig = self.signature(t, v);
            if let Some(bucket) = self.tables[t].get(&sig) {
                out.extend_from_slice(bucket);
            }
        }
        out.sort_unstable();
        out.dedup();
        self.probe_count += 1;
        self.candidate_sum += out.len() as u64;
        out
    }

    /// Mean candidates per probe since the last adaptation.
    fn mean_candidates(&self) -> f64 {
        if self.probe_count == 0 {
            0.0
        } else {
            self.candidate_sum as f64 / self.probe_count as f64
        }
    }

    fn reset_stats(&mut self) {
        self.probe_count = 0;
        self.candidate_sum = 0;
    }
}

/// Number of samples observed before a store freezes its centering
/// direction (see [`Store::whiten_with`]).
const CENTER_FREEZE: usize = 50;

/// A sample store with A-LSH index and LRU eviction.
///
/// Features are **mean-centered** before indexing and matching: pooled
/// CNN features share a dominant layer-common direction (all cosines are
/// ≈ 0.99 in the raw space), which would make nearest-neighbour search
/// meaningless. FoggyCache's feature pipeline normalizes its keys; we
/// reproduce that by subtracting the running mean of the first
/// [`CENTER_FREEZE`] observed features (frozen thereafter so LSH
/// signatures stay stable) and re-normalizing.
struct Store {
    samples: HashMap<u32, Sample>,
    /// Whitened match keys, one contiguous row per live sample.
    keys: coca_math::VectorStore,
    /// Row → sample id, parallel to `keys`.
    slot_ids: Vec<u32>,
    /// Sample id → row: the same bitmap-occupancy slot map the columnar
    /// `GlobalCacheTable` layers use — ids are allocated by a monotone
    /// counter, so liveness is one bit test and lookups one indexed load
    /// instead of a hash probe.
    slot_of: coca_math::SlotMap,
    next_id: u32,
    capacity: usize,
    alsh: Alsh,
    clock: u64,
    /// A-LSH adaptation target band for mean candidates per probe.
    target: (f64, f64),
    seeds: SeedTree,
    /// Running sum of observed features until freeze.
    center_sum: Vec<f32>,
    center_seen: usize,
    /// Frozen centering direction (unit), once enough samples arrived.
    center: Option<Vec<f32>>,
}

impl Store {
    fn new(dim: usize, capacity: usize, cfg: &FoggyCacheConfig, seeds: SeedTree) -> Self {
        let alsh = Alsh::new(dim, cfg.lsh_tables, cfg.lsh_bits, &seeds);
        let k = cfg.k as f64;
        Self {
            samples: HashMap::new(),
            keys: coca_math::VectorStore::new(dim),
            slot_ids: Vec::new(),
            slot_of: coca_math::SlotMap::new(),
            next_id: 0,
            capacity,
            alsh,
            clock: 0,
            target: (2.0 * k, 10.0 * k),
            seeds,
            center_sum: vec![0.0; dim],
            center_seen: 0,
            center: None,
        }
    }

    /// Removes one sample from the map, the key store and the A-LSH index.
    fn remove_sample(&mut self, id: u32) {
        self.samples.remove(&id).expect("sample exists");
        let row = self.slot_of.remove(id).expect("slot exists") as usize;
        self.alsh.remove(id, self.keys.row(row));
        self.keys.swap_remove_row(row);
        let removed = self.slot_ids.swap_remove(row);
        debug_assert_eq!(removed, id);
        if row < self.slot_ids.len() {
            // The last row moved into the vacated slot.
            self.slot_of.insert(self.slot_ids[row], row as u32);
        }
    }

    /// Registers `key` as the match key of the (new) sample `id`.
    fn index_key(&mut self, id: u32, key: &[f32]) {
        self.alsh.insert(id, key);
        let row = self.keys.push_row(key);
        self.slot_ids.push(id);
        self.slot_of.insert(id, row as u32);
    }

    /// Observes a raw feature for centering; freezes the center (and
    /// re-indexes the store) once enough samples arrived.
    fn observe_for_center(&mut self, v: &[f32]) {
        if self.center.is_some() {
            return;
        }
        coca_math::vector::axpy(1.0, v, &mut self.center_sum);
        self.center_seen += 1;
        if self.center_seen >= CENTER_FREEZE {
            let mut c = std::mem::take(&mut self.center_sum);
            coca_math::vector::l2_normalize(&mut c);
            self.center = Some(c);
            // Re-key everything under the whitened space. Ids are sorted
            // so the rebuilt key store's row order is deterministic.
            let dim = self.alsh.dim;
            let bits = self.alsh.bits;
            let tables = self.alsh.tables.len();
            let mut alsh = Alsh::new(dim, tables, bits, &self.seeds.child("post-freeze"));
            let mut ids: Vec<u32> = self.samples.keys().copied().collect();
            ids.sort_unstable();
            let mut keys = coca_math::VectorStore::new(dim);
            let mut slot_of = coca_math::SlotMap::new();
            for (row, &id) in ids.iter().enumerate() {
                let w = self.whiten_with(&self.samples[&id].feature);
                alsh.insert(id, &w);
                keys.push_row(&w);
                slot_of.insert(id, row as u32);
            }
            self.alsh = alsh;
            self.keys = keys;
            self.slot_ids = ids;
            self.slot_of = slot_of;
        }
    }

    /// Centers and re-normalizes a raw feature (identity before freeze).
    fn whiten_with(&self, v: &[f32]) -> Vec<f32> {
        match &self.center {
            None => v.to_vec(),
            Some(c) => {
                let proj = coca_math::dot(v, c);
                let mut out = v.to_vec();
                coca_math::vector::axpy(-proj, c, &mut out);
                coca_math::vector::l2_normalize(&mut out);
                out
            }
        }
    }

    fn insert(&mut self, feature: Vec<f32>, label: usize, owner: u32) {
        self.observe_for_center(&feature);
        if self.samples.len() >= self.capacity {
            // LRU eviction.
            // Tie-break equal-recency victims by id: HashMap iteration
            // order is per-process random, and cross-process runs must be
            // byte-identical.
            if let Some((&victim, _)) = self.samples.iter().min_by_key(|(&id, s)| (s.last_used, id))
            {
                self.remove_sample(victim);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.clock += 1;
        let key = self.whiten_with(&feature);
        self.index_key(id, &key);
        self.samples.insert(
            id,
            Sample {
                feature,
                label,
                last_used: self.clock,
                owner,
            },
        );
    }

    /// Removes every sample contributed by `owner` (a departed client)
    /// from the store and its A-LSH index. Returns how many were retired.
    fn retire_owner(&mut self, owner: u32) -> usize {
        // Sorted for a deterministic removal order (HashMap iteration is
        // per-process random).
        let mut victims: Vec<u32> = self
            .samples
            .iter()
            .filter(|(_, s)| s.owner == owner)
            .map(|(&id, _)| id)
            .collect();
        victims.sort_unstable();
        for &id in &victims {
            self.remove_sample(id);
        }
        victims.len()
    }

    /// H-kNN lookup: `Some((label, candidates_scanned))` on a homogeneous,
    /// sufficiently similar neighbourhood.
    fn lookup(&mut self, v: &[f32], cfg: &FoggyCacheConfig) -> (Option<usize>, usize) {
        if self.center.is_none() {
            // Warmup: the key space is not yet established.
            return (None, 0);
        }
        let v = self.whiten_with(v);
        let v = v.as_slice();
        let cand = self.alsh.candidates(v);
        let scanned = cand.len();
        if cand.len() < cfg.k {
            return (None, scanned);
        }
        // k nearest among the candidates: one fused pass over the
        // contiguous key store (keys are unit-norm by construction, so the
        // norm-free dot is the cosine). Candidates arrive id-ascending and
        // `knn_k` breaks similarity ties toward the smaller tag — the same
        // order the seed's stable sort produced.
        let rows: Vec<(u32, u32)> = cand
            .into_iter()
            .filter_map(|id| self.slot_of.get(id).map(|row| (row, id)))
            .collect();
        let scored = self.keys.knn_k(v, &rows, cfg.k);
        if scored.len() < cfg.k {
            return (None, scanned);
        }
        // Majority vote + homogeneity + similarity checks.
        let mut votes: HashMap<usize, (usize, f32)> = HashMap::new();
        for &(sim, id) in &scored {
            let label = self.samples[&id].label;
            let e = votes.entry(label).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += sim;
        }
        // Tie-break equal vote counts by smallest label: HashMap iteration
        // order is per-process random, and cross-process runs must be
        // byte-identical.
        let (&label, &(count, sim_sum)) = votes
            .iter()
            .max_by_key(|(&l, &(c, _))| (c, std::cmp::Reverse(l)))
            .expect("non-empty");
        let homogeneity = count as f64 / cfg.k as f64;
        let mean_sim = sim_sum / count as f32;
        if homogeneity >= cfg.homogeneity && mean_sim >= cfg.min_similarity {
            self.clock += 1;
            for &(_, id) in &scored {
                if let Some(s) = self.samples.get_mut(&id) {
                    if s.label == label {
                        s.last_used = self.clock;
                    }
                }
            }
            (Some(label), scanned)
        } else {
            (None, scanned)
        }
    }

    /// Adapts the LSH granularity toward the target candidate band by
    /// rebuilding with more/fewer bits (the "A" in A-LSH).
    fn adapt(&mut self, cfg: &FoggyCacheConfig) {
        let mean = self.alsh.mean_candidates();
        let new_bits = if mean > self.target.1 && self.alsh.bits < 24 {
            self.alsh.bits + 1
        } else if mean < self.target.0 && self.alsh.bits > 4 {
            self.alsh.bits - 1
        } else {
            self.alsh.reset_stats();
            return;
        };
        let dim = self.alsh.dim;
        let mut alsh = Alsh::new(
            dim,
            cfg.lsh_tables,
            new_bits,
            &self.seeds.child_idx("rebuild", new_bits as u64),
        );
        for (row, &id) in self.slot_ids.iter().enumerate() {
            alsh.insert(id, self.keys.row(row));
        }
        self.alsh = alsh;
    }
}

/// A remote H-kNN lookup: the client's input-level feature vector.
#[derive(Debug, Clone)]
pub struct FoggyQuery {
    /// The (jittered, normalized) query feature.
    pub vector: Vec<f32>,
}

impl WireSize for FoggyQuery {
    fn wire_bytes(&self) -> usize {
        self.vector.wire_bytes()
    }
}

/// The server's H-kNN answer.
#[derive(Debug, Clone, Copy)]
pub struct FoggyReply {
    /// The reused label, if the global neighbourhood was homogeneous.
    pub label: Option<usize>,
}

impl WireSize for FoggyReply {
    fn wire_bytes(&self) -> usize {
        1 + 4
    }
}

/// One FoggyCache client: its local store plus per-frame state.
struct FoggyClient {
    local: Store,
    view: ClientFeatureView,
    /// Feature of the frame currently awaiting a server reply.
    pending_vec: Option<Vec<f32>>,
}

/// The FoggyCache method driver: local A-LSH stores per client, one shared
/// global store served through the engine's FIFO queue. Under churn a
/// leaver's samples are retired from the shared store at its departure
/// boundary ([`MethodDriver::on_leave`]); a joiner starts with an empty
/// local store.
pub struct FoggyCacheDriver<'s> {
    scenario: &'s Scenario,
    cfg: FoggyCacheConfig,
    seeds: SeedTree,
    server_store: Store,
    clients: Vec<FoggyClient>,
    feature_point: usize,
    feature_time: SimDuration,
    /// Client-rounds completed; the shared store adapts once per full
    /// sweep of the fleet.
    rounds_completed: usize,
}

impl<'s> FoggyCacheDriver<'s> {
    /// Builds the driver over a scenario.
    pub fn new(scenario: &'s Scenario, cfg: FoggyCacheConfig) -> Self {
        let rt = &scenario.rt;
        let feature_point = 0usize; // shallow, input-level features
        let dim = rt.feature_dim(feature_point);
        let seeds = scenario.seeds().child("foggycache");
        let server_store = Store::new(dim, cfg.server_capacity, &cfg, seeds.child("server"));
        let clients = (0..scenario.profiles.len())
            .map(|k| FoggyClient {
                local: Store::new(
                    dim,
                    cfg.local_capacity,
                    &cfg,
                    seeds.child_idx("local", k as u64),
                ),
                view: ClientFeatureView::new(),
                pending_vec: None,
            })
            .collect();
        Self {
            scenario,
            cfg,
            seeds,
            server_store,
            clients,
            feature_point,
            feature_time: rt.compute_to_point(feature_point),
            rounds_completed: 0,
        }
    }
}

impl MethodDriver for FoggyCacheDriver<'_> {
    type Request = NoMsg;
    type Alloc = NoMsg;
    type Query = FoggyQuery;
    type Reply = FoggyReply;
    type Upload = NoMsg;

    fn name(&self) -> &str {
        "FoggyCache"
    }

    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<FoggyQuery> {
        let rt = &self.scenario.rt;
        let cfg = &self.cfg;
        let client = &mut self.clients[k];
        let mut v = rt.semantic_vector(
            frame,
            &self.scenario.profiles[k],
            self.feature_point,
            &mut client.view,
        );
        if cfg.input_jitter > 0.0 {
            let mut jrng = self.seeds.child_idx("jitter", frame.frame_seed).rng();
            let eta = coca_math::random_unit(&mut jrng, v.len());
            coca_math::vector::axpy(cfg.input_jitter, &eta, &mut v);
            coca_math::vector::l2_normalize(&mut v);
        }

        // Local lookup.
        let (local_hit, scanned) = client.local.lookup(&v, cfg);
        let elapsed = self.feature_time + rt.lookup_cost(self.feature_point, scanned + cfg.k);
        match local_hit {
            Some(label) => FrameStep::Done(FrameOutcome {
                compute: elapsed,
                correct: label == frame.class,
                hit_point: Some(self.feature_point),
            }),
            None => {
                // Remote lookup on local miss: a real request/response pair
                // through the shared link + server queue.
                client.pending_vec = Some(v.clone());
                FrameStep::NeedServer {
                    elapsed,
                    query: FoggyQuery { vector: v },
                }
            }
        }
    }

    fn serve_query(&mut self, _k: usize, query: FoggyQuery) -> (FoggyReply, SimDuration) {
        let rt = &self.scenario.rt;
        let (label, scanned) = self.server_store.lookup(&query.vector, &self.cfg);
        // Server compute: the H-kNN scan over the candidate set.
        let service = rt.lookup_cost(self.feature_point, scanned + self.cfg.k);
        (FoggyReply { label }, service)
    }

    fn resume_frame(
        &mut self,
        k: usize,
        frame: &Frame,
        reply: FoggyReply,
    ) -> FrameStep<FoggyQuery> {
        let rt = &self.scenario.rt;
        let client = &mut self.clients[k];
        let v = client
            .pending_vec
            .take()
            .expect("resume without a pending query");
        match reply.label {
            Some(label) => FrameStep::Done(FrameOutcome {
                compute: SimDuration::ZERO,
                correct: label == frame.class,
                hit_point: Some(self.feature_point),
            }),
            None => {
                // Full inference; store the sample locally and at the
                // server (the upload piggybacks on the reply cycle).
                let p = rt.classify(frame, &self.scenario.profiles[k], &mut client.view);
                let compute = rt.full_compute() - self.feature_time;
                client.local.insert(v.clone(), p.class, k as u32);
                self.server_store.insert(v, p.class, k as u32);
                FrameStep::Done(FrameOutcome {
                    compute,
                    correct: p.correct,
                    hit_point: None,
                })
            }
        }
    }

    fn end_round(&mut self, k: usize) -> Option<NoMsg> {
        // Per-round A-LSH adaptation: each local store at its own round
        // boundary, the shared store once per full sweep of the fleet.
        self.clients[k].local.adapt(&self.cfg);
        self.rounds_completed += 1;
        if self.rounds_completed.is_multiple_of(self.clients.len()) {
            self.server_store.adapt(&self.cfg);
        }
        None
    }

    fn on_leave(&mut self, k: usize) {
        // Retire the leaver's contributions from the shared global store:
        // its device is gone, and FoggyCache's cross-device reuse must not
        // keep answering from samples nobody refreshes. (The paper's LRU
        // critique still applies — retirement is immediate here because
        // the simulated server learns of the departure at the boundary.)
        self.server_store.retire_owner(k as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::driver::{drive, DriveConfig};
    use coca_core::engine::ScenarioConfig;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn scenario(seed: u64) -> Scenario {
        let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        cfg.num_clients = 2;
        cfg.seed = seed;
        Scenario::build(cfg)
    }

    #[test]
    fn alsh_groups_similar_vectors() {
        let seeds = SeedTree::new(90);
        let mut alsh = Alsh::new(16, 4, 8, &seeds);
        let mut rng = SmallRng::seed_from_u64(1);
        let base = coca_math::random_unit(&mut rng, 16);
        // Insert perturbed copies of one vector plus unrelated vectors.
        for i in 0..20u32 {
            let mut v = base.clone();
            v[0] += 0.01 * i as f32;
            coca_math::vector::l2_normalize(&mut v);
            alsh.insert(i, &v);
        }
        for i in 20..40u32 {
            let v = coca_math::random_unit(&mut rng, 16);
            alsh.insert(i, &v);
        }
        let cands = alsh.candidates(&base);
        let close = cands.iter().filter(|&&id| id < 20).count();
        let far = cands.len() - close;
        assert!(close >= 15, "close candidates {close}");
        assert!(far < 10, "far candidates {far}");
    }

    #[test]
    fn store_lru_evicts_oldest() {
        let cfg = FoggyCacheConfig {
            local_capacity: 4,
            ..Default::default()
        };
        let mut store = Store::new(8, 4, &cfg, SeedTree::new(91));
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..8 {
            let v = coca_math::random_unit(&mut rng, 8);
            store.insert(v, i, 0);
        }
        assert_eq!(store.samples.len(), 4);
        // The surviving labels are the most recent ones.
        let labels: Vec<usize> = store.samples.values().map(|s| s.label).collect();
        assert!(labels.iter().all(|&l| l >= 4), "labels {labels:?}");
    }

    /// Feeds enough random inserts to freeze the store's center.
    fn warm_up(store: &mut Store, rng: &mut SmallRng, dim: usize) {
        for i in 0..CENTER_FREEZE {
            let v = coca_math::random_unit(rng, dim);
            store.insert(v, 1000 + i, 0);
        }
        assert!(store.center.is_some());
    }

    #[test]
    fn hknn_requires_homogeneity() {
        let cfg = FoggyCacheConfig {
            k: 4,
            homogeneity: 1.0,
            min_similarity: 0.0,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let base = coca_math::random_unit(&mut rng, 8);
        // Two conflicting labels in the neighbourhood: homogeneity 1.0
        // cannot be met.
        let mut store = Store::new(8, 1000, &cfg, SeedTree::new(92));
        warm_up(&mut store, &mut rng, 8);
        for i in 0..8 {
            let mut v = base.clone();
            v[1] += 0.001 * i as f32;
            coca_math::vector::l2_normalize(&mut v);
            store.insert(v, i % 2, 0);
        }
        let (hit, _) = store.lookup(&base, &cfg);
        assert_eq!(hit, None);
        // Uniform labels satisfy it.
        let mut store = Store::new(8, 1000, &cfg, SeedTree::new(93));
        warm_up(&mut store, &mut rng, 8);
        for i in 0..8 {
            let mut v = base.clone();
            v[1] += 0.001 * i as f32;
            coca_math::vector::l2_normalize(&mut v);
            store.insert(v, 7, 0);
        }
        let (hit, _) = store.lookup(&base, &cfg);
        assert_eq!(hit, Some(7));
    }

    #[test]
    fn foggycache_reuses_and_saves_time() {
        let s = scenario(94);
        let full = s.rt.full_compute().as_millis_f64();
        let mut driver = FoggyCacheDriver::new(&s, FoggyCacheConfig::default());
        let r = drive(&s, &mut driver, &DriveConfig::new(3, 150));
        assert_eq!(r.frames, 2 * 3 * 150);
        assert!(r.hit_ratio > 0.15, "hit ratio {}", r.hit_ratio);
        assert!(r.mean_latency_ms < full, "{} vs {full}", r.mean_latency_ms);
        assert!(r.accuracy_pct > 55.0, "accuracy {}", r.accuracy_pct);
    }

    #[test]
    fn retire_owner_removes_only_the_leavers_samples() {
        let cfg = FoggyCacheConfig::default();
        let mut store = Store::new(8, 1000, &cfg, SeedTree::new(95));
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..30u32 {
            let v = coca_math::random_unit(&mut rng, 8);
            store.insert(v, i as usize, i % 3);
        }
        let retired = store.retire_owner(1);
        assert_eq!(retired, 10);
        assert_eq!(store.samples.len(), 20);
        assert!(store.samples.values().all(|s| s.owner != 1));
        // The index no longer returns retired ids.
        let probe = coca_math::random_unit(&mut rng, 8);
        for id in store.alsh.candidates(&probe) {
            assert!(store.samples.contains_key(&id), "dangling id {id}");
        }
        assert_eq!(store.retire_owner(1), 0, "idempotent");
    }

    #[test]
    fn foggycache_is_deterministic() {
        let cfg = FoggyCacheConfig::default();
        let run = || {
            let s = scenario(94);
            let mut driver = FoggyCacheDriver::new(&s, cfg);
            drive(&s, &mut driver, &DriveConfig::new(2, 100))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.accuracy_pct, b.accuracy_pct);
        assert_eq!(a.frame_digest, b.frame_digest);
    }
}

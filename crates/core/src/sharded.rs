//! Sharded-lock server state for the networked daemon (`cocad`).
//!
//! [`CocaServer`](crate::CocaServer) is `&mut self` through and through —
//! correct for the simulator's single event loop, but a networked daemon
//! wants concurrent readers. [`ShardedServer`] is the same CoCa method
//! re-plumbed for shared access:
//!
//! * the global cache table is split into per-layer
//!   [`LayerShard`]s, each behind its own `RwLock` — a cache request
//!   read-locks only the layers its allocation extracts, so concurrent
//!   requests on disjoint layers never serialize;
//! * Φ (the global class-frequency vector) lives behind a separate
//!   mutex — allocations snapshot it without touching any layer;
//! * uploads enqueue into a mutex-guarded FIFO pending queue (the
//!   queue-and-flush ingest path; the push holds the queue lock for an
//!   `O(1)` append) and a **single-flusher gate** drains it through the
//!   per-layer batched pass, write-locking one shard at a time.
//!
//! ## Determinism contract
//!
//! Every merge delegates to the exact private Eq. 4 primitive the
//! unsharded table uses, with the same prefix-Φ weighting
//! ([`GlobalCacheTable::merge_batch`]'s schedule). Driven with one
//! operation in flight at a time, a `ShardedServer` finishes with the
//! **same table digest** as a [`CocaServer`](crate::CocaServer) fed the
//! identical sequence (pinned in the tests below and in the daemon's
//! loopback tests). Under real concurrency the *interleaving* of
//! operations is scheduling-dependent — what arrives is merged exactly,
//! in the order the flusher drains it.
//!
//! Cross-operation atomicity is relaxed to layer granularity: a request
//! that extracts layers `{2, 5}` may observe layer 2 pre-flush and
//! layer 5 post-flush if a flush runs between its two read-locks. That
//! is the documented relaxed-observation contract of
//! [`FlushPolicy::RoundAligned`] extended to the wall-clock world; Φ
//! itself is always read atomically (one mutex).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use coca_model::ModelRuntime;
use coca_sim::SeedTree;

use crate::aca::{allocate, AcaInputs};
use crate::config::{CocaConfig, FlushPolicy, MergeMode};
use crate::global::{digest_shards, GlobalCacheTable, LayerShard};
use crate::proto::{CacheAllocation, CacheRequest, UpdateUpload};
use crate::server::{profile_hit_ratios, seed_global_table};
use crate::status::ClientStatus;

/// The CoCa edge server behind sharded locks — `&self` handlers, safe to
/// call from any number of daemon worker threads. See the module docs
/// for the locking discipline and the determinism contract.
#[derive(Debug)]
pub struct ShardedServer {
    cfg: CocaConfig,
    /// Υ per layer, in ms (ACA inputs, immutable after construction).
    saved_ms: Vec<f64>,
    /// m_j — bytes per entry per layer (immutable after construction).
    entry_bytes: Vec<usize>,
    /// Shared-dataset standalone hit-ratio profile (initial R).
    base_hit_profile: Vec<f64>,
    classes: usize,
    /// One lock per layer; a request read-locks only the layers it
    /// extracts, the flusher write-locks one layer at a time.
    shards: Vec<RwLock<LayerShard>>,
    /// Φ — guarded separately so allocations never touch a layer lock.
    freq: Mutex<Vec<u64>>,
    /// FIFO pending-upload queue ([`MergeMode::QueueAndFlush`] ingest).
    pending: Mutex<Vec<UpdateUpload>>,
    /// Round-aligned fleet watermark (see
    /// [`CocaServer::set_flush_watermark`](crate::CocaServer::set_flush_watermark)).
    flush_watermark: AtomicUsize,
    /// Single-flusher gate: every merge (flush drain or per-upload)
    /// serializes here, so prefix-Φ snapshots are consistent and batch
    /// order is exactly FIFO arrival order.
    flush_gate: Mutex<()>,
    /// Server-side mirror of the last τ/φ each client reported.
    clients: Mutex<BTreeMap<u64, ClientStatus>>,
}

impl ShardedServer {
    /// Builds the sharded server from the same `(rt, cfg, seeds)` triple
    /// as [`CocaServer::new`](crate::CocaServer::new) — identical
    /// seeding, precision conversion, and hit-ratio profiling, so both
    /// start from the same table digest. Requires the full method (DCA +
    /// GCU on): the ablation arms stay on the single-lock server.
    pub fn new(rt: &ModelRuntime, cfg: CocaConfig, seeds: &SeedTree) -> Self {
        cfg.validate().expect("invalid CoCa configuration");
        assert!(
            cfg.enable_dca && cfg.enable_gcu,
            "ShardedServer serves the full method; run ablation arms on CocaServer"
        );
        let l = rt.num_cache_points();
        let mut global = seed_global_table(rt, seeds);
        global.convert_precision(cfg.precision);
        let saved_ms: Vec<f64> = (0..l)
            .map(|j| rt.saved_if_hit_at(j).as_millis_f64())
            .collect();
        let entry_bytes: Vec<usize> = (0..l).map(|j| rt.entry_bytes(j)).collect();
        let base_hit_profile = profile_hit_ratios(rt, &cfg, &global, seeds);
        let classes = global.num_classes();
        let (shards, frequency) = global.into_shards();
        Self {
            cfg,
            saved_ms,
            entry_bytes,
            base_hit_profile,
            classes,
            shards: shards.into_iter().map(RwLock::new).collect(),
            freq: Mutex::new(frequency),
            pending: Mutex::new(Vec::new()),
            flush_watermark: AtomicUsize::new(0),
            flush_gate: Mutex::new(()),
            clients: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configuration the server runs under.
    pub fn config(&self) -> &CocaConfig {
        &self.cfg
    }

    /// The shared-dataset standalone hit-ratio profile — handed to newly
    /// booted clients as their initial R.
    pub fn base_hit_profile(&self) -> &[f64] {
        &self.base_hit_profile
    }

    /// Sets the round-aligned flush watermark (live-fleet size). Like
    /// the single-lock server, a queue already at the new watermark
    /// drains immediately.
    pub fn set_flush_watermark(&self, live_members: usize) {
        self.flush_watermark.store(live_members, Ordering::Relaxed);
        self.drain_if_at_watermark();
    }

    /// Number of uploads queued and not yet merged.
    pub fn pending_uploads(&self) -> usize {
        self.pending.lock().expect("pending queue poisoned").len()
    }

    /// Handles a cache request — the sharded mirror of
    /// [`CocaServer::handle_request`](crate::CocaServer::handle_request):
    /// flush at the boundary (unless round-aligned), ACA over the
    /// effective Φ, then a per-layer read-locked extraction.
    pub fn handle_request(&self, req: &CacheRequest) -> CacheAllocation {
        self.clients
            .lock()
            .expect("client registry poisoned")
            .entry(req.client_id)
            .or_insert_with(|| ClientStatus::new(self.classes))
            .record_timestamps(&req.timestamps);
        let round_aligned = self.cfg.merge_mode == MergeMode::QueueAndFlush
            && self.cfg.flush_policy == FlushPolicy::RoundAligned;
        if !round_aligned {
            self.flush_pending();
        }
        // Effective Φ: merged frequencies plus every queued φ — Eq. 5 is
        // a commutative u64 sum, so this equals the flushed Φ exactly.
        let global_freq = {
            let queued: Option<Vec<u64>> = if round_aligned {
                let pending = self.pending.lock().expect("pending queue poisoned");
                (!pending.is_empty()).then(|| {
                    let mut extra = vec![0u64; self.classes];
                    for up in pending.iter() {
                        for (e, &p) in extra.iter_mut().zip(&up.frequency) {
                            *e += p;
                        }
                    }
                    extra
                })
            } else {
                None
            };
            let mut freq = self.freq.lock().expect("Φ poisoned").clone();
            if let Some(extra) = queued {
                for (f, e) in freq.iter_mut().zip(extra) {
                    *f += e;
                }
            }
            freq
        };
        let decision = allocate(
            &self.cfg,
            &AcaInputs {
                global_freq: &global_freq,
                timestamps: &req.timestamps,
                hit_ratio: &req.hit_ratio,
                saved_ms: &self.saved_ms,
                entry_bytes: &self.entry_bytes,
                budget_bytes: req.budget_bytes as usize,
            },
        );
        let mut layers = decision.layers.clone();
        layers.sort_unstable();
        let cache_layers: Vec<_> = layers
            .iter()
            .filter(|&&l| l < self.shards.len())
            .filter_map(|&l| {
                self.shards[l]
                    .read()
                    .expect("layer shard poisoned")
                    .extract_layer(l, &decision.hot_classes)
            })
            .collect();
        CacheAllocation {
            round: req.round,
            cache: crate::semantic::LocalCache::from_layers(cache_layers),
            precision: self.cfg.precision,
        }
    }

    /// The daemon's upload entry point — the sharded mirror of
    /// [`CocaServer::handle_upload`](crate::CocaServer::handle_upload):
    /// per-upload merges now (gate-serialized), queue-and-flush appends
    /// to the pending FIFO and drains at the round-aligned watermark.
    pub fn handle_upload(&self, up: UpdateUpload) {
        self.note_upload(&up);
        match self.cfg.merge_mode {
            MergeMode::PerUpload => self.merge_now(&up),
            MergeMode::QueueAndFlush => {
                self.pending
                    .lock()
                    .expect("pending queue poisoned")
                    .push(up);
                self.drain_if_at_watermark();
            }
        }
    }

    /// Drains the pending queue through the per-layer batched pass, in
    /// FIFO arrival order, under the single-flusher gate. No-op when
    /// nothing is pending.
    pub fn flush_pending(&self) {
        let _gate = self.flush_gate.lock().expect("flush gate poisoned");
        let batch = std::mem::take(&mut *self.pending.lock().expect("pending queue poisoned"));
        if batch.is_empty() {
            return;
        }
        // Prefix-Φ snapshots: client c's Eq. 4 weights read the Φ a
        // sequential merge in this order would have seen — exactly
        // `GlobalCacheTable::merge_batch`'s schedule. Φ cannot advance
        // between this snapshot and the final Eq. 5 because every
        // advance happens under the flush gate we hold.
        let n = self.classes;
        let mut phi_prefix = Vec::with_capacity(batch.len() * n);
        phi_prefix.extend_from_slice(&self.freq.lock().expect("Φ poisoned"));
        for c in 1..batch.len() {
            for i in 0..n {
                let v = phi_prefix[(c - 1) * n + i] + batch[c - 1].frequency[i];
                phi_prefix.push(v);
            }
        }
        // Layer-outer, clients-inner — one write-lock per layer for the
        // whole batch, each layer's store streaming through cache once.
        for (layer, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.write().expect("layer shard poisoned");
            for (c, up) in batch.iter().enumerate() {
                if let Some(g) = up.table.layer_group(layer as u32) {
                    shard.merge_group(
                        g,
                        &phi_prefix[c * n..(c + 1) * n],
                        &up.frequency,
                        self.cfg.gamma_global,
                    );
                }
            }
        }
        let mut freq = self.freq.lock().expect("Φ poisoned");
        for up in &batch {
            for (f, &p) in freq.iter_mut().zip(&up.frequency) {
                *f += p;
            }
        }
    }

    /// Immediate per-upload merge (gate-serialized): every layer group
    /// reads the same pre-merge Φ, then Eq. 5 — the
    /// [`GlobalCacheTable::merge_update`] schedule.
    fn merge_now(&self, up: &UpdateUpload) {
        let _gate = self.flush_gate.lock().expect("flush gate poisoned");
        let cap_phi = self.freq.lock().expect("Φ poisoned").clone();
        for g in up.table.layer_groups() {
            let layer = g.layer as usize;
            if layer >= self.shards.len() {
                continue;
            }
            self.shards[layer]
                .write()
                .expect("layer shard poisoned")
                .merge_group(g, &cap_phi, &up.frequency, self.cfg.gamma_global);
        }
        let mut freq = self.freq.lock().expect("Φ poisoned");
        for (f, &p) in freq.iter_mut().zip(&up.frequency) {
            *f += p;
        }
    }

    fn note_upload(&self, up: &UpdateUpload) {
        self.clients
            .lock()
            .expect("client registry poisoned")
            .entry(up.client_id)
            .or_insert_with(|| ClientStatus::new(self.classes))
            .record_frequency(&up.frequency);
    }

    fn drain_if_at_watermark(&self) {
        let watermark = self.flush_watermark.load(Ordering::Relaxed);
        if self.cfg.merge_mode == MergeMode::QueueAndFlush
            && self.cfg.flush_policy == FlushPolicy::RoundAligned
            && watermark > 0
            && self.pending.lock().expect("pending queue poisoned").len() >= watermark
        {
            self.flush_pending();
        }
    }

    /// Reassembles the full [`GlobalCacheTable`] from the shards — a
    /// consistent snapshot (taken under the flush gate, so no merge is
    /// mid-flight across layers). Clones every store; diagnostics, not
    /// a hot path.
    pub fn table_snapshot(&self) -> GlobalCacheTable {
        let _gate = self.flush_gate.lock().expect("flush gate poisoned");
        let shards: Vec<LayerShard> = self
            .shards
            .iter()
            .map(|s| s.read().expect("layer shard poisoned").clone())
            .collect();
        let freq = self.freq.lock().expect("Φ poisoned").clone();
        GlobalCacheTable::from_shards(shards, freq)
    }

    /// The table digest ([`GlobalCacheTable::digest`]) of a consistent
    /// view — what the daemon's `Digest` protocol message returns. Taken
    /// under the flush gate like [`Self::table_snapshot`], but hashed in
    /// place, one store at a time: no copy of the table is made.
    /// Note: pending (queued, unmerged) uploads are *not* part of the
    /// table; compare digests after a flush.
    pub fn digest(&self) -> u64 {
        let _gate = self.flush_gate.lock().expect("flush gate poisoned");
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("layer shard poisoned"))
            .collect();
        let freq = self.freq.lock().expect("Φ poisoned").clone();
        digest_shards(&shards, &freq)
    }

    /// Number of clients the registry has seen.
    pub fn known_clients(&self) -> usize {
        self.clients.lock().expect("client registry poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CocaServer;
    use coca_data::DatasetSpec;
    use coca_model::{ModelId, ModelRuntime};

    fn fixtures(cfg: CocaConfig) -> (ModelRuntime, CocaServer, ShardedServer) {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let single = CocaServer::new(&rt, cfg, &seeds);
        let sharded = ShardedServer::new(&rt, cfg, &seeds);
        (rt, single, sharded)
    }

    fn upload_for(rt: &ModelRuntime, client_id: u64, class: usize, layer: usize) -> UpdateUpload {
        let mut table = crate::collect::UpdateTable::new();
        let dim = rt.feature_dim(layer);
        let mut v = vec![0.0f32; dim];
        v[(client_id as usize + 1) % dim] = 1.0;
        table.absorb(class, layer, &v, 0.0);
        let mut phi = vec![0u64; rt.num_classes()];
        phi[class] = 50 + client_id;
        UpdateUpload {
            client_id,
            round: 0,
            table,
            frequency: phi,
            precision: coca_math::Precision::F32,
        }
    }

    fn request_for(rt: &ModelRuntime, profile: &[f64], id: u64) -> CacheRequest {
        CacheRequest {
            client_id: id,
            round: 0,
            timestamps: vec![id as u32; rt.num_classes()],
            hit_ratio: profile.to_vec(),
            budget_bytes: 48 * 1024,
        }
    }

    #[test]
    fn genesis_digests_match_the_single_lock_server() {
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let (_, single, sharded) = fixtures(cfg);
        assert_eq!(single.global().digest(), sharded.digest());
        assert_eq!(single.base_hit_profile(), sharded.base_hit_profile());
    }

    #[test]
    fn sequential_op_stream_lands_the_same_digest() {
        for cfg in [
            CocaConfig::for_model(ModelId::ResNet101),
            CocaConfig::for_model(ModelId::ResNet101).with_merge_mode(MergeMode::QueueAndFlush),
        ] {
            let (rt, mut single, sharded) = fixtures(cfg);
            let profile = single.base_hit_profile().to_vec();
            for id in 0..3u64 {
                let req = request_for(&rt, &profile, id);
                let (a, _) = single.handle_request(&req);
                let b = sharded.handle_request(&req);
                assert_eq!(a.cache.total_bytes(), b.cache.total_bytes());
                let up = upload_for(&rt, id, 3 + id as usize, 10 + id as usize);
                single.handle_upload(up.clone());
                sharded.handle_upload(up);
            }
            single.flush_pending();
            sharded.flush_pending();
            assert_eq!(
                single.global().digest(),
                sharded.digest(),
                "mode {:?}",
                cfg.merge_mode
            );
            assert_eq!(single.client_registry().len(), sharded.known_clients());
        }
    }

    #[test]
    fn round_aligned_watermark_drains_the_sharded_queue() {
        let cfg = CocaConfig::for_model(ModelId::ResNet101)
            .with_merge_mode(MergeMode::QueueAndFlush)
            .with_flush_policy(FlushPolicy::RoundAligned);
        let (rt, mut single, sharded) = fixtures(cfg);
        single.set_flush_watermark(3);
        sharded.set_flush_watermark(3);
        for id in 0..2u64 {
            let up = upload_for(&rt, id, 3 + id as usize, 10);
            single.handle_upload(up.clone());
            sharded.handle_upload(up);
        }
        assert_eq!(sharded.pending_uploads(), 2);
        // A request is not a flush boundary under this policy, but its
        // allocation reads the exact effective Φ.
        let profile = sharded.base_hit_profile().to_vec();
        let req = request_for(&rt, &profile, 9);
        let (a, _) = single.handle_request(&req);
        let b = sharded.handle_request(&req);
        assert_eq!(a.cache.total_bytes(), b.cache.total_bytes());
        assert_eq!(sharded.pending_uploads(), 2);
        // The watermark upload drains the fleet-sized batch.
        let up = upload_for(&rt, 2, 5, 12);
        single.handle_upload(up.clone());
        sharded.handle_upload(up);
        assert_eq!(sharded.pending_uploads(), 0);
        assert_eq!(single.global().digest(), sharded.digest());
    }

    #[test]
    fn concurrent_uploads_merge_exactly_once() {
        // Interleaving is scheduling-dependent; totals are not. 8 threads
        // × 4 uploads each, then one flush: Φ must hold every φ exactly
        // once (Eq. 5 is commutative, so the sum is order-independent).
        let cfg =
            CocaConfig::for_model(ModelId::ResNet101).with_merge_mode(MergeMode::QueueAndFlush);
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let sharded = std::sync::Arc::new(ShardedServer::new(&rt, cfg, &seeds));
        let before: u64 = {
            let t = sharded.table_snapshot();
            t.frequency().iter().sum()
        };
        let mut handles = Vec::new();
        let mut expected = 0u64;
        for t in 0..8u64 {
            expected += 4 * (50 + t);
            let s = std::sync::Arc::clone(&sharded);
            let up = upload_for(&rt, t, (t as usize) % rt.num_classes(), 10);
            handles.push(std::thread::spawn(move || {
                for _ in 0..4 {
                    s.handle_upload(up.clone());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        sharded.flush_pending();
        let after: u64 = {
            let t = sharded.table_snapshot();
            t.frequency().iter().sum()
        };
        assert_eq!(after - before, expected, "φ lost or double-merged");
    }
}

//! The CoCa edge server (§IV.A, §IV.B, §IV.D).
//!
//! Maintains the global cache table and global class frequencies, seeds
//! both from a shared dataset, answers cache requests by running ACA and
//! extracting a personalized sub-table, and merges client uploads.

use std::collections::BTreeMap;

use coca_data::distribution::uniform_weights;
use coca_data::{StreamConfig, StreamGenerator};
use coca_math::Precision;
use coca_model::{ClientFeatureView, ClientProfile, ModelRuntime};
use coca_net::WireSize;
use coca_sim::{SeedTree, SimDuration};
use rand::Rng;

use crate::aca::{allocate, AcaInputs, AcaOutput};
use crate::collect::UpdateTable;
use crate::config::CocaConfig;
use crate::global::{GlobalCacheTable, MergeScratch};
use crate::lookup::{infer_with_cache, LookupScratch};
use crate::persist::{
    snapshot_frame, Durability, PersistError, RecoveryInfo, Snapshot, WalRecord, WalRef,
};
use crate::proto::{CacheAllocation, CacheRequest, PeerDelta, PeerDeltaEntry, UpdateUpload};
use crate::semantic::LocalCache;
use crate::status::ClientStatus;

/// γ — global-cache decay (Eq. 4). Paper default 0.99. Public only for
/// the tests that merge a reference table beside the server.
pub const GAMMA_GLOBAL: f32 = 0.99;

/// Samples per class used to seed the global cache from the shared dataset.
const SEED_SAMPLES_PER_CLASS: usize = 6;

/// Frames used to profile the shared-dataset standalone hit-ratio curve.
const PROFILE_FRAMES: usize = 600;

// Server-side service-time model (virtual milliseconds): Python-grade
// allocation and merge costs on the paper's edge server, proportional to the
// table cells touched.

/// Fixed cost of handling a cache request (ACA + bookkeeping).
const ALLOC_BASE_MS: f64 = 5.0;
/// Additional cost per kilobyte of extracted cache.
const ALLOC_PER_KB_MS: f64 = 0.012;
/// Fixed cost of merging one upload.
const UPDATE_BASE_MS: f64 = 2.5;
/// Additional cost per kilobyte of uploaded table.
const UPDATE_PER_KB_MS: f64 = 0.02;

/// The edge server.
#[derive(Debug)]
pub struct CocaServer {
    cfg: CocaConfig,
    global: GlobalCacheTable,
    /// Υ per layer, in ms (model compute only — paper §V.A).
    saved_ms: Vec<f64>,
    /// m_j — bytes per entry per layer.
    entry_bytes: Vec<usize>,
    /// Shared-dataset standalone hit-ratio profile (initial R for clients).
    base_hit_profile: Vec<f64>,
    /// Static allocation reused when dynamic cache allocation is disabled
    /// (the Normal/GCU ablation arms).
    static_alloc: Option<AcaOutput>,
    /// Reusable merge buffers: the per-round merge phase allocates
    /// nothing once these are warm.
    scratch: MergeScratch,
    /// Uploads not yet merged, in FIFO arrival order — the order the
    /// flush merges them in, bit-identical to merging each on arrival.
    pending: Vec<UpdateUpload>,
    /// Server-side mirror of the last τ/φ each client reported —
    /// observational state (it feeds no allocation or merge decision) but
    /// part of the durability contract: a recovered server knows what a
    /// crashed one knew about its fleet. Departed clients keep their last
    /// reported entry (the leave protocol carries no client id).
    clients: BTreeMap<u64, ClientStatus>,
    /// Snapshot + WAL persistence, when attached. `None` (the default)
    /// makes every logging hook a no-op — simulation runs pay nothing.
    durability: Option<Durability>,
    /// This server's cell id in a multi-edge topology (0 = the classic
    /// single server; see [`CocaServer::set_cell_id`]).
    cell_id: u32,
    /// Per-origin merged Φ mass: how much frequency each cell's clients
    /// contributed to *this* table, cumulatively — local uploads under
    /// [`Self::cell_id`], peer deltas under their entry's origin. The
    /// provenance groundwork for centroid content retirement: with
    /// per-origin mass known, `leave_phi_decay` can age a leaver's
    /// *vector* contribution, not just its frequency. Rebuilt by WAL
    /// replay (recorded inside the replayed merge bodies), deliberately
    /// outside [`Snapshot`] — its shape is load-bearing for committed
    /// recovery records, so a recovery only restores the post-snapshot
    /// portion of these observational counters.
    origin_freq: BTreeMap<u32, Vec<u64>>,
    /// Peer-sync send cursors: for each peer cell, the per-origin Φ mass
    /// already shipped to it. [`CocaServer::export_delta`] sends only the
    /// growth past the cursor, so single-inbound-path topologies (the
    /// gossip ring, the hub-and-spoke star) deliver each origin's mass to
    /// each cell exactly once — Φ is conserved fleet-wide.
    sent_to: BTreeMap<u32, BTreeMap<u32, Vec<u64>>>,
}

/// Seeds a global cache table from the shared dataset: averages a few
/// curated clean (undrifted) samples per class per layer — the paper's
/// "server generates the initial cache using the global shared dataset".
///
/// Shared between the CoCa server and cache baselines (SMTM and the
/// replacement-policy harness start from the same initial centroids, so
/// method comparisons isolate the *policy*, not the initialization).
pub fn seed_global_table(rt: &ModelRuntime, seeds: &SeedTree) -> GlobalCacheTable {
    let l = rt.num_cache_points();
    let classes = rt.num_classes();
    let mut global = GlobalCacheTable::new(classes, l);
    let shared_seeds = seeds.child("server-shared");
    let shared_profile = ClientProfile::new(u64::MAX, 0.0, 1.0, &shared_seeds);
    let mut view = ClientFeatureView::new();
    let mut frame_rng = shared_seeds.rng_for("seed-frames");
    let mut seq = 0u64;
    for class in 0..classes {
        let mut sums: Vec<Vec<f32>> = (0..l).map(|j| vec![0.0f32; rt.feature_dim(j)]).collect();
        for s in 0..SEED_SAMPLES_PER_CLASS {
            // Curated clean samples: full class-signal visibility, so
            // seeded centers carry undiminished class components.
            let difficulty = 0.32 + 0.03 * s as f32;
            let frame = coca_data::Frame {
                seq,
                class,
                run_pos: 0,
                difficulty,
                run_difficulty: difficulty,
                frame_seed: frame_rng.gen(),
                run_seed: frame_rng.gen(),
            };
            seq += 1;
            for (j, sum) in sums.iter_mut().enumerate() {
                let v = rt.semantic_vector(&frame, &shared_profile, j, &mut view);
                coca_math::vector::axpy(1.0, &v, sum);
            }
        }
        for (j, sum) in sums.into_iter().enumerate() {
            global.set(class, j, sum);
        }
    }
    // Frequency prior: the shared dataset is balanced.
    global.seed_frequency(&vec![SEED_SAMPLES_PER_CLASS as u64; classes]);
    global
}

/// Profiles the standalone (cumulative) hit-ratio curve of a fully
/// populated cache on the shared dataset — the initial R estimates.
pub fn profile_hit_ratios(
    rt: &ModelRuntime,
    cfg: &CocaConfig,
    global: &GlobalCacheTable,
    seeds: &SeedTree,
) -> Vec<f64> {
    let l = rt.num_cache_points();
    let classes = rt.num_classes();
    let shared_seeds = seeds.child("server-shared");
    let shared_profile = ClientProfile::new(u64::MAX, 0.0, 1.0, &shared_seeds);
    let mut view = ClientFeatureView::new();
    let mut scratch = LookupScratch::new();
    let all_layers: Vec<usize> = (0..l).collect();
    let all_classes: Vec<usize> = (0..classes).collect();
    let profile_cache = global.extract(&all_layers, &all_classes);
    let mut hits = vec![0u64; l];
    let mut prof_gen = StreamGenerator::new(
        StreamConfig::new(uniform_weights(classes), 16.0),
        &shared_seeds.child("profile-stream"),
    );
    for _ in 0..PROFILE_FRAMES {
        let f = prof_gen.next_frame();
        let r = infer_with_cache(
            rt,
            &shared_profile,
            &f,
            &profile_cache,
            cfg,
            &mut view,
            &mut scratch,
        );
        if let Some(p) = r.hit_point {
            hits[p] += 1;
        }
    }
    let mut base_hit_profile = Vec::with_capacity(l);
    let mut cumulative = 0.0f64;
    for &h in &hits {
        // A ratio, so never above 1; the clamp guards against the float
        // accumulation creeping past it when every profile frame hits.
        cumulative = (cumulative + h as f64 / PROFILE_FRAMES as f64).min(1.0);
        base_hit_profile.push(cumulative);
    }
    base_hit_profile
}

impl CocaServer {
    /// Builds the server: seeds the global cache and frequency prior from
    /// the shared dataset and profiles the initial hit-ratio curve.
    pub fn new(rt: &ModelRuntime, cfg: CocaConfig, seeds: &SeedTree) -> Self {
        cfg.validate().expect("invalid CoCa configuration");
        let l = rt.num_cache_points();
        let mut global = seed_global_table(rt, seeds);
        // Seeding always builds f32 centers (the record-regeneration
        // reference); a quantized config re-encodes them once here, so
        // the hit-ratio profile below already reflects codec error.
        global.convert_precision(cfg.precision);
        let saved_ms: Vec<f64> = (0..l)
            .map(|j| rt.saved_if_hit_at(j).as_millis_f64())
            .collect();
        let entry_bytes: Vec<usize> = (0..l).map(|j| rt.entry_bytes(j)).collect();
        let base_hit_profile = profile_hit_ratios(rt, &cfg, &global, seeds);

        Self {
            cfg,
            global,
            saved_ms,
            entry_bytes,
            base_hit_profile,
            static_alloc: None,
            scratch: MergeScratch::new(),
            pending: Vec::new(),
            clients: BTreeMap::new(),
            durability: None,
            cell_id: 0,
            origin_freq: BTreeMap::new(),
            sent_to: BTreeMap::new(),
        }
    }

    /// Names this server's cell in a multi-edge topology. Local uploads'
    /// Φ is attributed to this id in the provenance counts, and
    /// [`CocaServer::export_delta`] stamps it as `from_cell`. The default
    /// 0 is correct for the classic single-server deployment.
    pub fn set_cell_id(&mut self, id: u32) {
        self.cell_id = id;
    }

    /// This server's cell id (0 unless [`CocaServer::set_cell_id`] ran).
    pub fn cell_id(&self) -> u32 {
        self.cell_id
    }

    /// Per-origin merged Φ mass (cell id → cumulative per-class counts):
    /// which cell's clients contributed how much of this table's
    /// frequency. Observational groundwork for centroid content
    /// retirement — see the field docs on `origin_freq`.
    pub fn merge_provenance(&self) -> &BTreeMap<u32, Vec<u64>> {
        &self.origin_freq
    }

    /// The shared-dataset standalone hit-ratio profile — handed to newly
    /// booted clients as their initial R.
    pub fn base_hit_profile(&self) -> &[f64] {
        &self.base_hit_profile
    }

    /// Read access to the global table (tests, Fig. 2 experiment).
    pub fn global(&self) -> &GlobalCacheTable {
        &self.global
    }

    /// Handles a cache request: flushes any pending upload batch (a flush
    /// boundary — allocations must read a fully merged table), runs ACA
    /// (or the static fallback when DCA is disabled) and extracts the
    /// personalized sub-table. Returns the allocation and the server
    /// compute charged to the queue.
    pub fn handle_request(&mut self, req: &CacheRequest) -> (CacheAllocation, SimDuration) {
        self.wal(WalRef::Request(req));
        self.request_inner(req)
    }

    /// The un-logged request body: everything [`CocaServer::handle_request`]
    /// mutates and computes. WAL replay re-enters here, so a recovered run
    /// repeats the exact flush/allocation path — including the lazy
    /// static-allocation compute of DCA-off configs.
    fn request_inner(&mut self, req: &CacheRequest) -> (CacheAllocation, SimDuration) {
        self.clients
            .entry(req.client_id)
            .or_insert_with(|| ClientStatus::new(self.global.num_classes()))
            .record_timestamps(&req.timestamps);
        self.flush_pending_inner();
        let decision = if self.cfg.enable_dca {
            allocate(
                &self.cfg,
                &AcaInputs {
                    global_freq: self.global.frequency(),
                    timestamps: &req.timestamps,
                    hit_ratio: &req.hit_ratio,
                    saved_ms: &self.saved_ms,
                    entry_bytes: &self.entry_bytes,
                    budget_bytes: req.budget_bytes as usize,
                },
            )
        } else {
            // Static allocation: all classes, layers chosen once from the
            // shared-dataset profile under the same budget.
            self.static_alloc
                .get_or_insert_with(|| {
                    let hot: Vec<usize> = (0..self.global.num_classes()).collect();
                    let layers = crate::aca::select_layers(
                        &self.cfg,
                        &AcaInputs {
                            global_freq: self.global.frequency(),
                            timestamps: &vec![0; self.global.num_classes()],
                            hit_ratio: &self.base_hit_profile,
                            saved_ms: &self.saved_ms,
                            entry_bytes: &self.entry_bytes,
                            budget_bytes: req.budget_bytes as usize,
                        },
                        hot.len(),
                    );
                    AcaOutput {
                        hot_classes: hot,
                        layers,
                    }
                })
                .clone()
        };

        let mut layers = decision.layers.clone();
        layers.sort_unstable();
        let cache = self.global.extract(&layers, &decision.hot_classes);
        // The server's compute touches the cells it extracts, priced at
        // the precision they ship at (quantized tables move fewer bytes).
        let kb = cache.total_bytes_at(self.cfg.precision) as f64 / 1024.0;
        let service = SimDuration::from_millis_f64(ALLOC_BASE_MS + ALLOC_PER_KB_MS * kb);
        (
            CacheAllocation {
                round: req.round,
                cache,
                precision: self.cfg.precision,
            },
            service,
        )
    }

    /// Mirrors an upload's φ into the client registry.
    fn note_upload(&mut self, up: &UpdateUpload) {
        self.clients
            .entry(up.client_id)
            .or_insert_with(|| ClientStatus::new(self.global.num_classes()))
            .record_frequency(&up.frequency);
    }

    /// The one upload entry point (engine and daemon alike): enqueues the
    /// upload and defers its merge (Eq. 4/5; with GCU disabled only Φ
    /// advances — ACA still needs it) to the next flush boundary: a
    /// request, a leave, a peer-sync export or absorb, or an explicit
    /// [`CocaServer::flush_pending`]. The returned service time is the
    /// cost-model charge for this upload, billed at its arrival instant —
    /// deferral moves the real merge work, never a virtual millisecond.
    pub fn handle_upload(&mut self, up: UpdateUpload) -> SimDuration {
        self.wal(WalRef::Upload(&up));
        self.upload_inner(up)
    }

    /// The un-logged enqueue body (also the replay target of
    /// [`WalRecord::Upload`]).
    fn upload_inner(&mut self, up: UpdateUpload) -> SimDuration {
        self.note_upload(&up);
        let kb = up.table.wire_bytes_at(up.precision) as f64 / 1024.0;
        self.pending.push(up);
        SimDuration::from_millis_f64(UPDATE_BASE_MS + UPDATE_PER_KB_MS * kb)
    }

    /// Number of uploads queued and not yet merged.
    pub fn pending_uploads(&self) -> usize {
        self.pending.len()
    }

    /// Drains the pending upload queue through the batched per-layer
    /// merge pass, in FIFO arrival order, so the table lands bit for bit
    /// where merging each upload on arrival would have put it. Costs were
    /// already charged at enqueue time; flushing adds no virtual service
    /// time. No-op when nothing is pending.
    ///
    /// This is the *external* flush boundary (run end, handover, peer
    /// sync) and is WAL-logged as such; the flushes embedded in request/
    /// leave handling are covered by those events' own records.
    /// Peer sync is not WAL-logged itself, so its flush logs here.
    pub fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            self.wal(WalRef::Flush);
        }
        self.flush_pending_inner();
    }

    fn flush_pending_inner(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // One window may hold several uploads from one client (a daemon
        // client that uploads twice between requests); the batched pass
        // merges them in arrival order like any others.
        let pending = std::mem::take(&mut self.pending);
        self.merge_upload_batch(&pending);
        // Hand the drained buffer back so steady-state flushing reuses
        // its allocation.
        self.pending = pending;
        self.pending.clear();
    }

    /// The flush body: merges `ups` in the given order via one per-layer
    /// pass, bit-identical to sequential merging in the same order.
    fn merge_upload_batch(&mut self, ups: &[UpdateUpload]) {
        let own = self.cell_id;
        for up in ups {
            self.note_provenance(own, &up.frequency);
        }
        self.merge_tables(ups.iter().map(|u| (&u.table, u.frequency.as_slice())));
    }

    /// Eq. 4/5 for a batch of `(table, φ)` pairs in the given order —
    /// client uploads and peer-delta entries alike. With GCU disabled only
    /// Φ advances.
    fn merge_tables<'a>(&mut self, batch: impl Iterator<Item = (&'a UpdateTable, &'a [u64])>) {
        if self.cfg.enable_gcu {
            let batch: Vec<(&UpdateTable, &[u64])> = batch.collect();
            self.global
                .merge_batch(&batch, GAMMA_GLOBAL, &mut self.scratch);
        } else {
            for (_, phi) in batch {
                self.global.advance_frequency(phi);
            }
        }
    }

    /// Fires when a client departs the fleet: flushes any pending upload
    /// batch (the leave is a merge boundary — the decay below must see
    /// every upload that already reached the server), then applies the
    /// configured exponential Φ decay `Φ ← ⌈β·Φ⌉` so the leaver's
    /// frequency mass ages out of ACA's hot-spot scores (a no-op at the
    /// default β = 1).
    pub fn on_client_leave(&mut self) {
        self.wal(WalRef::Leave);
        self.leave_inner();
    }

    fn leave_inner(&mut self) {
        self.flush_pending_inner();
        if self.cfg.leave_phi_decay < 1.0 {
            self.global.decay_frequency(self.cfg.leave_phi_decay);
        }
    }

    // -- multi-edge peer sync -----------------------------------------------

    /// Adds `phi` (elementwise) to `origin`'s cumulative provenance row.
    fn note_provenance(&mut self, origin: u32, phi: &[u64]) {
        let classes = self.global.num_classes();
        let row = self
            .origin_freq
            .entry(origin)
            .or_insert_with(|| vec![0u64; classes]);
        for (r, &p) in row.iter_mut().zip(phi) {
            *r += p;
        }
    }

    /// Builds the table delta to ship to peer cell `to_peer` and advances
    /// that peer's send cursors. An export is a flush boundary: the queue
    /// drains first (through the logged [`CocaServer::flush_pending`]), so
    /// the delta carries every upload that reached this cell. Then, for
    /// every origin whose provenance row grew since the last export to
    /// this peer — skipping mass the peer itself originated, which it
    /// already holds — one [`PeerDeltaEntry`] carrying this server's *current merged
    /// centroids* for the grown classes plus exactly the Φ growth. The
    /// receiver replays the entry through the same Eq. 4/5 batched merge
    /// as a client upload, so along single-inbound-path topologies (the
    /// gossip ring, the hub-and-spoke star) every origin's Φ mass lands
    /// on every cell exactly once and fleet-wide Φ is conserved.
    ///
    /// Entries are ascending by origin id and the whole construction is
    /// a deterministic function of merge history. Under a quantized
    /// config the tables are snapped onto the precision grid before
    /// export, exactly like client uploads.
    pub fn export_delta(&mut self, to_peer: u32) -> PeerDelta {
        self.export_filtered(to_peer, false)
    }

    /// Like [`CocaServer::export_delta`] but restricted to this cell's
    /// *own* origin mass. This is the spoke→hub direction of the
    /// hub-and-spoke mode: the hub already aggregates every other
    /// spoke's mass directly, so a spoke forwarding third-party mass it
    /// learned *from the hub's broadcasts* would double-count it there.
    /// Own-only exports keep the star a single-delivery topology.
    pub fn export_own_delta(&mut self, to_peer: u32) -> PeerDelta {
        self.export_filtered(to_peer, true)
    }

    fn export_filtered(&mut self, to_peer: u32, own_only: bool) -> PeerDelta {
        self.flush_pending();
        let classes = self.global.num_classes();
        let layers = self.global.num_layers();
        let own = self.cell_id;
        let mut entries = Vec::new();
        let cursors = self.sent_to.entry(to_peer).or_default();
        for (&origin, row) in &self.origin_freq {
            if origin == to_peer || (own_only && origin != own) {
                continue;
            }
            let cursor = cursors.entry(origin).or_insert_with(|| vec![0u64; classes]);
            let delta: Vec<u64> = row.iter().zip(cursor.iter()).map(|(r, s)| r - s).collect();
            if delta.iter().all(|&d| d == 0) {
                continue;
            }
            // Ship the current merged view of every class whose mass
            // grew: global rows are unit-norm by contract, so absorbing
            // them at weight 1.0 (which l2-normalizes fresh inserts)
            // reproduces them exactly.
            let mut table = UpdateTable::new();
            for (c, _) in delta.iter().enumerate().filter(|&(_, &d)| d > 0) {
                for l in 0..layers {
                    if let Some(v) = self.global.get(c, l) {
                        table.absorb(c, l, &v, 1.0);
                    }
                }
            }
            if self.cfg.precision != Precision::F32 {
                table.quantize_in_place(self.cfg.precision);
            }
            cursor.copy_from_slice(row);
            entries.push(PeerDeltaEntry {
                origin,
                table,
                frequency: delta,
            });
        }
        PeerDelta {
            from_cell: self.cell_id,
            precision: self.cfg.precision,
            entries,
        }
    }

    /// Merges a peer cell's delta. An absorb is a flush boundary: uploads
    /// queued before the delta arrived drain first (through the logged
    /// [`CocaServer::flush_pending`]) and so merge before it. Each entry
    /// then runs through the same batched Eq. 4/5 pass as a round of
    /// client uploads (frequency-only when GCU is off), and extends the
    /// matching origin's provenance row — so re-exports downstream
    /// attribute the mass to its true origin, not to the relaying cell.
    /// Returns the service time under the same cost model as uploads,
    /// priced by the delta's wire bytes.
    pub fn absorb_peer(&mut self, delta: &PeerDelta) -> SimDuration {
        self.flush_pending();
        let kb = delta.wire_bytes() as f64 / 1024.0;
        self.merge_tables(
            delta
                .entries
                .iter()
                .map(|e| (&e.table, e.frequency.as_slice())),
        );
        for e in &delta.entries {
            self.note_provenance(e.origin, &e.frequency);
        }
        SimDuration::from_millis_f64(UPDATE_BASE_MS + UPDATE_PER_KB_MS * kb)
    }

    // -- durability ---------------------------------------------------------

    /// Attaches snapshot + WAL persistence. On a fresh backend this writes
    /// the genesis snapshot (both generations), so every later recovery —
    /// including one that finds the current snapshot corrupted — has a
    /// valid generation to fall back to. From here on every state-mutating
    /// handler appends its WAL record *before* mutating.
    pub fn attach_durability(&mut self, mut durability: Durability) {
        durability.ensure_genesis(&self.snapshot_frame());
        self.durability = Some(durability);
    }

    /// [`CocaServer::attach_durability`] with the WAL segment length
    /// taken from the server's own config
    /// ([`CocaConfig::wal_rotate_records`], default 256) — the
    /// deployment entry point; tests pass explicit periods instead.
    pub fn attach_storage(&mut self, store: Box<dyn crate::persist::Storage>) {
        let rotate = self.cfg.wal_rotate_records;
        self.attach_durability(Durability::new(store, rotate));
    }

    /// Detaches and returns the durability layer (test inspection; the
    /// server keeps running un-logged).
    pub fn detach_durability(&mut self) -> Option<Durability> {
        self.durability.take()
    }

    /// The attached durability layer, if any.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Forces a checkpoint: collapses both snapshot generations onto the
    /// current state and empties the WAL. No-op without durability.
    pub fn checkpoint(&mut self) {
        let Some(mut d) = self.durability.take() else {
            return;
        };
        d.checkpoint(&self.snapshot_frame());
        self.durability = Some(d);
    }

    /// The framed snapshot of the current state, encoded straight from
    /// the server's fields — what every rotation and checkpoint writes.
    /// Byte-equal to `self.snapshot().to_bytes()` without the clone.
    fn snapshot_frame(&self) -> Vec<u8> {
        snapshot_frame(
            &self.cfg,
            &self.global,
            self.clients.iter().map(|(id, st)| (*id, st)),
            &self.pending,
            &self.static_alloc,
        )
    }

    /// A snapshot of the full mutable server state (the derived fields —
    /// cost model, hit profile, per-layer Υ/mⱼ — are reconstructed from
    /// `(rt, cfg, seeds)` by [`CocaServer::new`], not persisted).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            config: self.cfg,
            global: self.global.clone(),
            clients: self.clients.iter().map(|(k, v)| (*k, v.clone())).collect(),
            pending: self.pending.clone(),
            static_alloc: self.static_alloc.clone(),
        }
    }

    /// The server-side mirror of the last τ/φ each client reported.
    pub fn client_registry(&self) -> &BTreeMap<u64, ClientStatus> {
        &self.clients
    }

    /// Rebuilds a server from persisted state: loads the newest valid
    /// snapshot generation, replays the WAL tail (truncating a torn final
    /// record), folds the result into a fresh checkpoint and re-attaches
    /// the durability layer. `(rt, cfg, seeds)` must match the crashed
    /// server's — the snapshot's embedded config is checked against `cfg`.
    pub fn recover(
        rt: &ModelRuntime,
        cfg: CocaConfig,
        seeds: &SeedTree,
        mut durability: Durability,
    ) -> Result<(Self, RecoveryInfo), PersistError> {
        let mut server = Self::new(rt, cfg, seeds);
        let info = server.recover_from(&mut durability)?;
        durability.checkpoint(&server.snapshot_frame());
        server.durability = Some(durability);
        Ok((server, info))
    }

    /// Restores snapshot state and replays WAL records through the same
    /// un-logged handler bodies the live server runs — bit-identical
    /// state, including the fused merge kernels' float semantics. The
    /// genesis case (no snapshot ever written) replays onto `self` as-is,
    /// which is correct for a freshly constructed server and unreachable
    /// in-place ([`CocaServer::attach_durability`] writes a genesis
    /// snapshot).
    fn recover_from(&mut self, durability: &mut Durability) -> Result<RecoveryInfo, PersistError> {
        durability.replay(self, Self::restore, Self::apply_wal)
    }

    /// Adopts a recovered snapshot's state (`None`: genesis, keep the
    /// constructed state), refusing one written under another config.
    fn restore(&mut self, snap: Option<Snapshot>) -> Result<(), PersistError> {
        if let Some(snap) = snap {
            if snap.config != self.cfg {
                return Err(PersistError::ConfigMismatch);
            }
            self.global = snap.global;
            self.clients = snap.clients.into_iter().collect();
            self.pending = snap.pending;
            self.static_alloc = snap.static_alloc;
        }
        Ok(())
    }

    /// Replays one WAL record by dispatching to the matching un-logged
    /// handler body. Service-time returns are discarded — virtual costs
    /// were already charged by the original run.
    fn apply_wal(&mut self, rec: WalRecord) {
        match rec {
            WalRecord::Request(req) => {
                let _ = self.request_inner(&req);
            }
            WalRecord::Upload(up) => {
                let _ = self.upload_inner(up);
            }
            WalRecord::Leave => self.leave_inner(),
            WalRecord::Flush => self.flush_pending_inner(),
        }
    }

    /// Appends one record to the WAL — **before** the handler mutates
    /// state, so a crash at any event boundary loses at most the
    /// not-yet-applied event. This is also the crash-injection point: a
    /// due [`CrashPlan`](crate::persist::CrashPlan) damages storage
    /// exactly as a mid-append die would, the server recovers in place
    /// from what survived, and the interrupted event is then redelivered
    /// — the synchronous equivalent of process death + restart +
    /// client retry.
    ///
    /// The record is encoded by reference into the durability layer's
    /// reusable frame buffer: logging clones nothing, and without
    /// durability attached this is one `None` check.
    fn wal(&mut self, rec: WalRef<'_>) {
        let Some(mut d) = self.durability.take() else {
            return;
        };
        let mut frame = std::mem::take(&mut d.frame);
        rec.frame_into(&mut frame);
        if d.crash_due() {
            d.fire_crash(&frame);
            // `durability` is detached here, so the replay inside
            // `recover_from` runs the un-logged bodies without re-logging.
            self.recover_from(&mut d)
                .expect("crash injection must leave a recoverable snapshot generation");
            d.checkpoint(&self.snapshot_frame());
        }
        if d.needs_rotation() {
            // Rotate *before* appending: the rotation snapshot must hold
            // exactly the state the previous segment's records produce —
            // this record's mutation has not happened yet.
            d.rotate(&self.snapshot_frame());
        }
        d.append_frame(&frame);
        d.frame = frame;
        self.durability = Some(d);
    }

    /// Builds a cache holding *every* class at *every* layer (motivation
    /// experiments; not used in normal operation).
    pub fn full_cache(&self) -> LocalCache {
        let layers: Vec<usize> = (0..self.global.num_layers()).collect();
        let classes: Vec<usize> = (0..self.global.num_classes()).collect();
        self.global.extract(&layers, &classes)
    }

    /// Builds a cache with the given layers and classes straight from the
    /// global table (motivation experiments and baselines).
    pub fn cache_for(&self, layers: &[usize], classes: &[usize]) -> LocalCache {
        self.global.extract(layers, classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;

    fn server() -> (ModelRuntime, CocaServer) {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let server = CocaServer::new(&rt, cfg, &seeds);
        (rt, server)
    }

    /// The sequential reference every queue test compares against:
    /// `ups` merged one by one into a copy of `table`, in arrival order.
    fn merged_on_arrival(table: &GlobalCacheTable, ups: &[UpdateUpload]) -> GlobalCacheTable {
        let mut reference = table.clone();
        let mut scratch = MergeScratch::new();
        for up in ups {
            reference.merge_update(&up.table, &up.frequency, 0.99, &mut scratch);
        }
        reference
    }

    /// Φ and every cell of `a` and `b` agree bit for bit.
    fn assert_bit_identical(a: &GlobalCacheTable, b: &GlobalCacheTable) {
        assert_eq!(a.frequency(), b.frequency(), "Eq. 5 state");
        for c in 0..a.num_classes() {
            for l in 0..a.num_layers() {
                match (a.get(c, l), b.get(c, l)) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&x), bits(&y), "cell ({c},{l})");
                    }
                    (x, y) => panic!("occupancy differs at ({c},{l}): {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn seeding_populates_global_cache() {
        let (_, server) = server();
        assert!(
            server.global().fill_ratio() > 0.95,
            "fill {}",
            server.global().fill_ratio()
        );
        assert!(server.global().frequency().iter().all(|&f| f > 0));
    }

    #[test]
    fn base_hit_profile_is_cumulative_and_nontrivial() {
        let (_, server) = server();
        let prof = server.base_hit_profile();
        assert!(
            prof.windows(2).all(|w| w[1] + 1e-12 >= w[0]),
            "must be non-decreasing"
        );
        let last = *prof.last().unwrap();
        assert!(last > 0.3, "overall hit ratio on shared data {last}");
        assert!(last <= 1.0);
    }

    #[test]
    fn request_yields_budgeted_allocation() {
        let (rt, mut server) = server();
        let req = CacheRequest {
            client_id: 0,
            round: 0,
            timestamps: vec![0; rt.num_classes()],
            hit_ratio: server.base_hit_profile().to_vec(),
            budget_bytes: 48 * 1024,
        };
        let (alloc, service) = server.handle_request(&req);
        assert!(!alloc.cache.is_empty());
        assert!(alloc.cache.total_bytes() <= 48 * 1024);
        assert!(service.as_millis_f64() > 0.0);
    }

    #[test]
    fn updates_move_the_global_table_only_with_gcu() {
        let (rt, mut server) = server();
        let layer = 10usize;
        let before = server.global().get(3, layer).unwrap().to_vec();
        let mut table = crate::collect::UpdateTable::new();
        // Push an orthogonal-ish direction with overwhelming frequency.
        let mut v = vec![0.0f32; rt.feature_dim(layer)];
        v[0] = 1.0;
        table.absorb(3, layer, &v, 0.0);
        let mut phi = vec![0u64; rt.num_classes()];
        phi[3] = 100_000;
        let up = UpdateUpload {
            client_id: 0,
            round: 0,
            table,
            frequency: phi,
            precision: coca_math::Precision::F32,
        };
        server.handle_upload(up);
        server.flush_pending();
        let after = server.global().get(3, layer).unwrap().to_vec();
        assert!(
            coca_math::cosine(&before, &after) < 0.999,
            "entry did not move"
        );
        assert!(server.global().frequency()[3] > 100_000);
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

    #[test]
    fn queue_and_flush_defers_merges_to_the_request_boundary() {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(62);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let mut server = CocaServer::new(&rt, cfg, &seeds);
        let genesis = server.global().clone();

        let up = upload_for(&rt, 0, 3, 10);
        let deferred_cost = server.handle_upload(up.clone());
        assert_eq!(server.pending_uploads(), 1);
        // The table has not moved yet...
        assert_eq!(server.global().frequency(), genesis.frequency());
        // ...but the cost model charged the upload on arrival.
        let kb = up.table.wire_bytes_at(up.precision) as f64 / 1024.0;
        assert_eq!(
            deferred_cost,
            SimDuration::from_millis_f64(UPDATE_BASE_MS + UPDATE_PER_KB_MS * kb)
        );

        // A request flushes before allocating.
        let req = CacheRequest {
            client_id: 1,
            round: 0,
            timestamps: vec![0; rt.num_classes()],
            hit_ratio: server.base_hit_profile().to_vec(),
            budget_bytes: 48 * 1024,
        };
        let _ = server.handle_request(&req);
        assert_eq!(server.pending_uploads(), 0);
        assert_bit_identical(server.global(), &merged_on_arrival(&genesis, &[up]));
    }

    #[test]
    fn two_uploads_from_one_client_in_one_window_merge_in_arrival_order() {
        // A daemon client may upload twice with no request in between;
        // the flush must merge both, in the order they arrived.
        let (rt, mut server) = server();
        let genesis = server.global().clone();
        let first = upload_for(&rt, 7, 3, 10);
        let mut second = upload_for(&rt, 7, 3, 10);
        second.frequency[3] = 9;
        second.table = {
            let mut t = crate::collect::UpdateTable::new();
            let mut v = vec![0.0f32; rt.feature_dim(10)];
            v[2] = -1.0;
            t.absorb(3, 10, &v, 0.0);
            t
        };
        server.handle_upload(first.clone());
        server.handle_upload(second.clone());
        assert_eq!(server.pending_uploads(), 2);
        server.flush_pending();
        assert_eq!(server.pending_uploads(), 0);
        assert_bit_identical(
            server.global(),
            &merged_on_arrival(&genesis, &[first, second]),
        );
    }

    #[test]
    fn peer_sync_drains_the_queue_before_export_and_absorb() {
        let (rt, mut cell0) = server();
        let (_, mut cell1) = server();
        cell1.set_cell_id(1);
        let genesis = cell1.global().clone();
        let up = upload_for(&rt, 0, 3, 10);
        cell0.handle_upload(up.clone());
        // The export carries the queued upload's φ...
        let delta = cell0.export_delta(1);
        assert_eq!(cell0.pending_uploads(), 0);
        assert_eq!(delta.entries.len(), 1);
        assert_eq!(delta.entries[0].frequency, up.frequency);
        // ...and an absorb merges the receiver's own queue ahead of it.
        let local = upload_for(&rt, 1, 4, 11);
        cell1.handle_upload(local.clone());
        cell1.absorb_peer(&delta);
        assert_eq!(cell1.pending_uploads(), 0);
        let mut reference = merged_on_arrival(&genesis, &[local]);
        let entry = &delta.entries[0];
        reference.merge_batch(
            &[(&entry.table, entry.frequency.as_slice())],
            0.99,
            &mut MergeScratch::new(),
        );
        assert_bit_identical(cell1.global(), &reference);
    }

    #[test]
    fn quantized_config_prices_smaller_frames_and_still_serves() {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(66);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let f32_cfg = CocaConfig::for_model(ModelId::ResNet101);
        let i8_cfg = f32_cfg.with_precision(coca_math::Precision::I8);
        let mut dense = CocaServer::new(&rt, f32_cfg, &seeds);
        let mut quant = CocaServer::new(&rt, i8_cfg, &seeds);
        assert_eq!(quant.global().precision(), coca_math::Precision::I8);
        assert!(
            quant.global().store_bytes() * 3 < dense.global().store_bytes(),
            "i8 table {} vs f32 table {}",
            quant.global().store_bytes(),
            dense.global().store_bytes()
        );

        let req = CacheRequest {
            client_id: 0,
            round: 0,
            timestamps: vec![0; rt.num_classes()],
            hit_ratio: quant.base_hit_profile().to_vec(),
            budget_bytes: 48 * 1024,
        };
        let (qa, _) = quant.handle_request(&req);
        let (da, _) = dense.handle_request(&req);
        assert_eq!(qa.precision, coca_math::Precision::I8);
        assert!(!qa.cache.is_empty());
        // Served centers are unit f32 regardless of storage codec.
        for l in qa.cache.layers() {
            for r in l.vectors.iter_rows() {
                assert!(coca_math::is_unit(r, 1e-3));
            }
        }
        use coca_net::WireSize;
        assert!(
            qa.wire_bytes() * 3 < da.wire_bytes(),
            "i8 allocation {} vs f32 {}",
            qa.wire_bytes(),
            da.wire_bytes()
        );
        // Uploads still merge.
        let up = upload_for(&rt, 0, 3, 10);
        quant.handle_upload(up);
        quant.flush_pending();
        assert!(quant.global().frequency()[3] >= 50);
    }

    #[test]
    fn leave_boundary_flushes_before_phi_decay() {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(63);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let mut cfg = CocaConfig::for_model(ModelId::ResNet101);
        cfg.leave_phi_decay = 0.5;
        let mut qaf = CocaServer::new(&rt, cfg, &seeds);
        let up = upload_for(&rt, 0, 3, 10);
        let mut reference = merged_on_arrival(qaf.global(), std::slice::from_ref(&up));
        qaf.handle_upload(up);
        // Decay must apply to the post-merge Φ.
        qaf.on_client_leave();
        reference.decay_frequency(0.5);
        assert_eq!(qaf.pending_uploads(), 0);
        assert_eq!(qaf.global().frequency(), reference.frequency());
    }

    #[test]
    fn dca_off_gives_static_all_class_allocation() {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(61);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let mut cfg = CocaConfig::for_model(ModelId::ResNet101);
        cfg.enable_dca = false;
        let mut server = CocaServer::new(&rt, cfg, &seeds);
        // Heavily skewed timestamps would shrink a dynamic hot set; the
        // static path must ignore them.
        let mut tau = vec![1_000_000u32; rt.num_classes()];
        tau[0] = 0;
        let req = CacheRequest {
            client_id: 0,
            round: 0,
            timestamps: tau,
            hit_ratio: server.base_hit_profile().to_vec(),
            budget_bytes: 64 * 1024,
        };
        let (alloc, _) = server.handle_request(&req);
        for l in alloc.cache.layers() {
            assert_eq!(
                l.len(),
                rt.num_classes(),
                "static allocation caches all classes"
            );
        }
    }

    // -- durability ---------------------------------------------------------

    use crate::persist::{
        CrashFault, CrashPlan, DirStorage, MemStorage, SnapshotSource, Storage, SNAP_CUR,
        SNAP_PREV, WAL_CUR, WAL_PREV,
    };

    /// Drives a mixed event sequence — requests, uploads, a leave, a
    /// flush — through the public (logged) handlers. Seven WAL records
    /// (the second request drains the queue, so the trailing flush finds
    /// it empty and logs nothing).
    fn drive_mixed(rt: &ModelRuntime, server: &mut CocaServer) {
        let profile = server.base_hit_profile().to_vec();
        let mkreq = |id: u64| CacheRequest {
            client_id: id,
            round: 0,
            timestamps: vec![id as u32; rt.num_classes()],
            hit_ratio: profile.clone(),
            budget_bytes: 48 * 1024,
        };
        let _ = server.handle_request(&mkreq(0));
        for (id, class, layer) in [(0, 3, 10), (1, 4, 11), (2, 5, 12), (3, 6, 13)] {
            let _ = server.handle_upload(upload_for(rt, id, class, layer));
        }
        let _ = server.handle_request(&mkreq(1));
        server.on_client_leave();
        server.flush_pending();
    }

    fn durable_server(rotate_every: usize) -> (ModelRuntime, CocaServer) {
        let (rt, mut server) = server();
        server.attach_durability(Durability::new(Box::new(MemStorage::new()), rotate_every));
        (rt, server)
    }

    #[test]
    fn durability_is_observationally_transparent() {
        let (rt, mut plain) = server();
        let (_, mut durable) = durable_server(3);
        drive_mixed(&rt, &mut plain);
        drive_mixed(&rt, &mut durable);
        assert_eq!(
            plain.snapshot().to_bytes(),
            durable.snapshot().to_bytes(),
            "logging must not perturb a single byte of server state"
        );
        let d = durable.durability().unwrap();
        assert!(d.events_logged() >= 6, "got {}", d.events_logged());
    }

    #[test]
    fn attach_storage_takes_the_rotation_period_from_config() {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101).with_wal_rotate(2);
        let mut server = CocaServer::new(&rt, cfg, &seeds);
        server.attach_storage(Box::new(MemStorage::new()));
        drive_mixed(&rt, &mut server);
        let d = server.detach_durability().unwrap();
        assert!(d.events_logged() >= 6);
        // Six records through a 2-record segment: the log must have
        // rotated, leaving a non-empty previous generation behind.
        let store = d.into_storage();
        assert!(
            store
                .load(crate::persist::WAL_PREV)
                .is_some_and(|w| !w.is_empty()),
            "config-driven rotation never fired"
        );
    }

    #[test]
    fn recover_rebuilds_byte_identical_state() {
        // rotate_every=3 forces generation turnover mid-sequence.
        let (rt, mut live) = durable_server(3);
        drive_mixed(&rt, &mut live);
        let want = live.snapshot().to_bytes();
        let d = live.detach_durability().unwrap();

        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt2 = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let (recovered, info) = CocaServer::recover(&rt2, cfg, &seeds, d).unwrap();
        assert_eq!(info.source, SnapshotSource::Current);
        assert_eq!(info.truncated_bytes, 0);
        assert_eq!(recovered.snapshot().to_bytes(), want);
        assert_eq!(
            recovered.client_registry().len(),
            live.client_registry().len()
        );
        // The recovery folded into a checkpoint: the WAL is empty again.
        let d = recovered.durability().unwrap();
        assert_eq!(d.storage().load(WAL_CUR).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn recovery_truncates_a_torn_final_record() {
        let (rt, mut live) = durable_server(100);
        drive_mixed(&rt, &mut live);
        let want = live.snapshot().to_bytes();
        let mut d = live.detach_durability().unwrap();
        // Tear: half of a frame whose CRC can never validate.
        let frame = WalRecord::Leave.to_frame();
        d.storage_mut().append(WAL_CUR, &frame[..frame.len() / 2]);

        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt2 = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let (recovered, info) = CocaServer::recover(&rt2, cfg, &seeds, d).unwrap();
        assert!(info.truncated_bytes > 0);
        assert_eq!(
            recovered.snapshot().to_bytes(),
            want,
            "the torn record never committed, so it must not replay"
        );
    }

    #[test]
    fn recovery_falls_back_to_the_previous_generation() {
        let (rt, mut live) = durable_server(3);
        drive_mixed(&rt, &mut live);
        let want = live.snapshot().to_bytes();
        let mut d = live.detach_durability().unwrap();
        let mut snap = d.storage().load(SNAP_CUR).unwrap();
        snap[10] ^= 0xFF;
        d.storage_mut().save(SNAP_CUR, &snap);

        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt2 = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let (recovered, info) = CocaServer::recover(&rt2, cfg, &seeds, d).unwrap();
        assert_eq!(info.source, SnapshotSource::Previous);
        assert_eq!(
            recovered.snapshot().to_bytes(),
            want,
            "previous snapshot + wal.prev + wal.cur must rebuild the same state"
        );
    }

    #[test]
    fn recovery_fails_closed_when_no_generation_validates() {
        let (rt, mut live) = durable_server(3);
        drive_mixed(&rt, &mut live);
        let mut d = live.detach_durability().unwrap();
        for key in [SNAP_CUR, SNAP_PREV] {
            let mut snap = d.storage().load(key).unwrap();
            snap[10] ^= 0xFF;
            d.storage_mut().save(key, &snap);
        }
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt2 = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let err = CocaServer::recover(&rt2, cfg, &seeds, d).unwrap_err();
        assert!(matches!(err, PersistError::NoValidSnapshot));
    }

    #[test]
    fn recovery_rejects_a_mismatched_config() {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(60);
        let rt2 = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let base = CocaConfig::for_model(ModelId::ResNet101);
        // A tunable, the table precision: whichever field differs from
        // the one the snapshot embeds, recovery refuses.
        for cfg in [
            base.with_theta(0.02),
            base.with_precision(coca_math::Precision::I8),
        ] {
            let (rt, mut live) = durable_server(3);
            drive_mixed(&rt, &mut live);
            let d = live.detach_durability().unwrap();
            let err = CocaServer::recover(&rt2, cfg, &seeds, d).unwrap_err();
            assert!(matches!(err, PersistError::ConfigMismatch), "{cfg:?}");
        }
    }

    /// A store whose `load` refuses the WAL keys: recovery must stream
    /// every segment through `reader`, never hold one whole.
    struct StreamOnly(MemStorage);

    impl Storage for StreamOnly {
        fn load(&self, key: &str) -> Option<Vec<u8>> {
            assert!(
                key != WAL_CUR && key != WAL_PREV,
                "recovery loaded all of {key}"
            );
            self.0.load(key)
        }
        fn reader(&self, key: &str) -> Option<Box<dyn std::io::Read + '_>> {
            self.0.reader(key)
        }
        fn save(&mut self, key: &str, bytes: &[u8]) {
            self.0.save(key, bytes);
        }
        fn append(&mut self, key: &str, bytes: &[u8]) {
            self.0.append(key, bytes);
        }
        fn remove(&mut self, key: &str) {
            self.0.remove(key);
        }
    }

    #[test]
    fn recovery_streams_and_agrees_on_disk_and_in_memory() {
        let (rt, mut live) = durable_server(3);
        drive_mixed(&rt, &mut live);
        let live_digest = live.global().digest();
        let stored = live.detach_durability().unwrap().into_storage();
        let keys = [SNAP_CUR, SNAP_PREV, WAL_CUR, WAL_PREV];
        let files: Vec<(&str, Vec<u8>)> = keys
            .iter()
            .filter_map(|&k| stored.load(k).map(|b| (k, b)))
            .collect();
        // A last record that never committed, torn at every byte: the
        // empty tail, a short header, a header without its payload.
        let frame = WalRecord::Leave.to_frame();
        let dir = std::env::temp_dir().join(format!("coca-server-stream-{}", std::process::id()));
        let recover_both = |damage: &dyn Fn(&str, &mut Vec<u8>)| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut disk = DirStorage::open(&dir).unwrap();
            let mut mem = MemStorage::new();
            for (key, bytes) in &files {
                let mut bytes = bytes.clone();
                damage(key, &mut bytes);
                disk.save(key, &bytes);
                mem.save(key, &bytes);
            }
            let recover = |store: Box<dyn Storage>| {
                let d = Durability::new(store, 3);
                let cfg = CocaConfig::for_model(ModelId::ResNet101);
                let (server, info) = CocaServer::recover(&rt, cfg, &SeedTree::new(60), d).unwrap();
                (server.global().digest(), info)
            };
            let on_disk = recover(Box::new(disk));
            assert_eq!(recover(Box::new(StreamOnly(mem))), on_disk);
            on_disk
        };
        for keep in 0..frame.len() {
            let (digest, info) = recover_both(&|key, bytes| {
                if key == WAL_CUR {
                    bytes.extend_from_slice(&frame[..keep]);
                }
            });
            assert_eq!(digest, live_digest, "torn at {keep}");
            assert_eq!(info.truncated_bytes, keep);
            assert_eq!(info.source, SnapshotSource::Current);
        }
        let (digest, info) = recover_both(&|key, bytes| {
            if key == SNAP_CUR {
                bytes[10] ^= 0xFF;
            }
        });
        assert_eq!(digest, live_digest);
        assert_eq!(info.source, SnapshotSource::Previous);
        assert_eq!(info.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crashes_are_transparent_at_every_event_boundary() {
        let (rt, mut reference) = server();
        drive_mixed(&rt, &mut reference);
        let want = reference.snapshot().to_bytes();
        let total = {
            let (rt, mut counter) = durable_server(3);
            drive_mixed(&rt, &mut counter);
            counter.durability().unwrap().events_logged()
        };
        assert!(total >= 6);
        for at_event in 0..total {
            for fault in [
                CrashFault::Clean,
                CrashFault::Torn { keep: 7 },
                CrashFault::SnapCorrupt { byte: 11 },
            ] {
                let (rt, mut server) = server();
                let plan = CrashPlan { at_event, fault };
                server.attach_durability(
                    Durability::new(Box::new(MemStorage::new()), 3).with_crash_plan(plan),
                );
                drive_mixed(&rt, &mut server);
                assert_eq!(
                    server.snapshot().to_bytes(),
                    want,
                    "crash {plan:?} must recover and redeliver transparently"
                );
            }
        }
    }

    #[test]
    fn queued_pending_uploads_survive_recovery() {
        let dataset = DatasetSpec::ucf101().subset(20);
        let seeds = SeedTree::new(64);
        let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let mut live = CocaServer::new(&rt, cfg, &seeds);
        live.attach_durability(Durability::new(Box::new(MemStorage::new()), 2));
        // Uploads after the last request stay queued until the next
        // boundary: the state a crash mid-round leaves behind.
        let _ = live.handle_request(&CacheRequest {
            client_id: 0,
            round: 0,
            timestamps: vec![0; rt.num_classes()],
            hit_ratio: live.base_hit_profile().to_vec(),
            budget_bytes: 48 * 1024,
        });
        live.handle_upload(upload_for(&rt, 0, 3, 10));
        live.handle_upload(upload_for(&rt, 1, 4, 11));
        assert_eq!(live.pending_uploads(), 2);
        let want = live.snapshot().to_bytes();
        let d = live.detach_durability().unwrap();
        let (recovered, _) = CocaServer::recover(&rt, cfg, &seeds, d).unwrap();
        assert_eq!(recovered.pending_uploads(), 2);
        assert_eq!(recovered.snapshot().to_bytes(), want);
        // The recovered queue drains exactly like the live one would.
        let mut recovered = recovered;
        live.handle_upload(upload_for(&rt, 2, 5, 12));
        recovered.handle_upload(upload_for(&rt, 2, 5, 12));
        live.flush_pending();
        recovered.flush_pending();
        assert_eq!(live.pending_uploads(), 0);
        assert_eq!(recovered.snapshot().to_bytes(), live.snapshot().to_bytes());
    }
}

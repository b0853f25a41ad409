//! The daemon's server core: one CoCa server state behind one of two
//! locking disciplines, plus the [`RunSpec`] both ends of a deployment
//! share so the daemon and its clients agree on model, dataset and
//! seeding (and therefore on the genesis table digest).

use std::sync::Mutex;

use coca_core::proto::{CacheAllocation, CacheRequest, PeerDelta, UpdateUpload};
use coca_core::{CocaConfig, CocaServer, FlushPolicy, MergeMode, ShardedServer};
use coca_data::DatasetSpec;
use coca_math::Precision;
use coca_model::{ModelId, ModelRuntime};
use coca_sim::SeedTree;

/// How the daemon guards the server state across its connection threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// One big `Mutex<CocaServer>` — every request and upload
    /// serializes. The trivially correct baseline (and the only mode
    /// that supports the durability hooks), the comparison arm the
    /// sharded numbers are measured against.
    Single,
    /// [`ShardedServer`]: per-layer `RwLock`s, Φ behind its own mutex,
    /// a single-flusher gate for merges — concurrent requests on
    /// disjoint layers never serialize.
    Sharded,
}

impl LockMode {
    /// Parses a CLI flag value (`single` / `sharded`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "single" => Some(LockMode::Single),
            "sharded" => Some(LockMode::Sharded),
            _ => None,
        }
    }

    /// Canonical flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            LockMode::Single => "single",
            LockMode::Sharded => "sharded",
        }
    }
}

/// Everything a daemon and its clients must agree on to end up in the
/// same deterministic world: model, class subset, master seed, and the
/// upload-pipeline shape. `cocad` and `coca-loadgen` both build their
/// runtime from this (same flags on both command lines).
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// DNN architecture the fleet runs.
    pub model: ModelId,
    /// UCF-101 class-subset size (the task's label space).
    pub classes: usize,
    /// Master seed for the [`SeedTree`].
    pub seed: u64,
    /// Upload pipeline: merge on arrival or queue-and-flush.
    pub merge_mode: MergeMode,
    /// Queue-and-flush only: drain at the fleet watermark instead of at
    /// every request boundary.
    pub round_aligned: bool,
    /// Numeric precision of the global table and every wire payload:
    /// allocations extract from (and uploads snap onto) this grid, so a
    /// quantized daemon serves f16/i8 tables over TCP.
    pub precision: Precision,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            model: ModelId::ResNet101,
            classes: 30,
            seed: 77,
            merge_mode: MergeMode::PerUpload,
            round_aligned: false,
            precision: Precision::F32,
        }
    }
}

/// Parses a model flag value by its canonical [`ModelId::name`].
pub fn parse_model(s: &str) -> Option<ModelId> {
    [
        ModelId::Vgg16Bn,
        ModelId::ResNet50,
        ModelId::ResNet101,
        ModelId::ResNet152,
        ModelId::AstBase,
    ]
    .into_iter()
    .find(|m| m.name() == s)
}

/// Parses a merge-mode flag value (`per_upload` / `queue_and_flush`).
pub fn parse_merge_mode(s: &str) -> Option<MergeMode> {
    match s {
        "per_upload" => Some(MergeMode::PerUpload),
        "queue_and_flush" => Some(MergeMode::QueueAndFlush),
        _ => None,
    }
}

impl RunSpec {
    /// Consumes one `--flag value` pair if it belongs to the spec
    /// (`--model`, `--classes`, `--seed`, `--merge-mode`,
    /// `--round-aligned`, `--precision`). Both `cocad` and `coca-loadgen` route their
    /// argument loops through this, so the two command lines can never
    /// drift apart on what defines the deterministic world.
    pub fn apply_flag(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "--model" => {
                self.model =
                    parse_model(value).ok_or_else(|| format!("unknown model '{value}'"))?;
            }
            "--classes" => {
                self.classes = value
                    .parse()
                    .map_err(|_| format!("bad --classes '{value}'"))?;
            }
            "--seed" => {
                self.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?;
            }
            "--merge-mode" => {
                self.merge_mode = parse_merge_mode(value)
                    .ok_or_else(|| format!("unknown merge mode '{value}'"))?;
            }
            "--round-aligned" => {
                self.round_aligned = value
                    .parse()
                    .map_err(|_| format!("bad --round-aligned '{value}' (true/false)"))?;
            }
            "--precision" => {
                self.precision = Precision::parse(value)
                    .ok_or_else(|| format!("unknown precision '{value}' (f32/f16/i8)"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Materializes the spec: model runtime, CoCa config, seed tree —
    /// the exact triple [`CocaServer::new`] and
    /// [`ShardedServer::new`] seed from.
    pub fn build(&self) -> (ModelRuntime, CocaConfig, SeedTree) {
        let dataset = DatasetSpec::ucf101().subset(self.classes);
        let seeds = SeedTree::new(self.seed);
        let rt = ModelRuntime::new(self.model, &dataset, &seeds);
        let mut cfg = CocaConfig::for_model(self.model)
            .with_merge_mode(self.merge_mode)
            .with_precision(self.precision);
        if self.round_aligned {
            cfg = cfg.with_flush_policy(FlushPolicy::RoundAligned);
        }
        (rt, cfg, seeds)
    }
}

enum CoreInner {
    // Both boxed: there is exactly one core per daemon, and the inline
    // sizes differ wildly (the full server state vs a handle struct).
    Single(Box<Mutex<CocaServer>>),
    Sharded(Box<ShardedServer>),
}

/// The server state the daemon's connection threads share — a [`CocaServer`]
/// behind one mutex or a [`ShardedServer`], with one `&self` handler
/// API either way so the serving loop is lock-discipline-agnostic.
pub struct ServerCore {
    inner: CoreInner,
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.inner {
            CoreInner::Single(_) => "ServerCore::Single",
            CoreInner::Sharded(_) => "ServerCore::Sharded",
        })
    }
}

impl ServerCore {
    /// Builds a fresh core from the deterministic triple.
    pub fn new(rt: &ModelRuntime, cfg: CocaConfig, seeds: &SeedTree, lock: LockMode) -> Self {
        match lock {
            LockMode::Single => Self::single(CocaServer::new(rt, cfg, seeds)),
            LockMode::Sharded => Self::sharded(ShardedServer::new(rt, cfg, seeds)),
        }
    }

    /// Wraps an existing single-lock server — the path that supports
    /// pre-attached durability (snapshot + WAL), as in the
    /// `distributed_tcp` example.
    pub fn single(server: CocaServer) -> Self {
        Self {
            inner: CoreInner::Single(Box::new(Mutex::new(server))),
        }
    }

    /// Wraps an existing sharded server.
    pub fn sharded(server: ShardedServer) -> Self {
        Self {
            inner: CoreInner::Sharded(Box::new(server)),
        }
    }

    /// Which locking discipline this core runs.
    pub fn lock_mode(&self) -> LockMode {
        match self.inner {
            CoreInner::Single(_) => LockMode::Single,
            CoreInner::Sharded(_) => LockMode::Sharded,
        }
    }

    /// The shared-dataset standalone hit-ratio profile (initial R).
    pub fn base_hit_profile(&self) -> Vec<f64> {
        match &self.inner {
            CoreInner::Single(s) => s
                .lock()
                .expect("server poisoned")
                .base_hit_profile()
                .to_vec(),
            CoreInner::Sharded(s) => s.base_hit_profile().to_vec(),
        }
    }

    /// §IV.A step 1+2: ACA allocation + personalized extraction.
    pub fn handle_request(&self, req: &CacheRequest) -> CacheAllocation {
        match &self.inner {
            CoreInner::Single(s) => s.lock().expect("server poisoned").handle_request(req).0,
            CoreInner::Sharded(s) => s.handle_request(req),
        }
    }

    /// §IV.A step 3: routes the upload through the configured merge
    /// mode (immediate or queue-and-flush).
    pub fn handle_upload(&self, up: UpdateUpload) {
        match &self.inner {
            CoreInner::Single(s) => {
                s.lock().expect("server poisoned").handle_upload(up);
            }
            CoreInner::Sharded(s) => s.handle_upload(up),
        }
    }

    /// Drains the pending-upload queue (no-op when empty).
    pub fn flush(&self) {
        match &self.inner {
            CoreInner::Single(s) => s.lock().expect("server poisoned").flush_pending(),
            CoreInner::Sharded(s) => s.flush_pending(),
        }
    }

    /// Uploads queued and not yet merged.
    pub fn pending_uploads(&self) -> usize {
        match &self.inner {
            CoreInner::Single(s) => s.lock().expect("server poisoned").pending_uploads(),
            CoreInner::Sharded(s) => s.pending_uploads(),
        }
    }

    /// Sets the round-aligned flush watermark.
    pub fn set_flush_watermark(&self, live_members: usize) {
        match &self.inner {
            CoreInner::Single(s) => s
                .lock()
                .expect("server poisoned")
                .set_flush_watermark(live_members),
            CoreInner::Sharded(s) => s.set_flush_watermark(live_members),
        }
    }

    /// Builds the peer-sync delta for peer cell `to_peer` (see
    /// [`CocaServer::export_delta`]). Peer sync runs on the single-lock
    /// core only — the sharded core's per-layer locks cannot take the
    /// whole-table consistent view a delta export needs — so `cocad`
    /// validates `--peers` against the lock mode at startup. `None` in
    /// sharded mode.
    pub fn export_delta(&self, to_peer: u32) -> Option<PeerDelta> {
        match &self.inner {
            CoreInner::Single(s) => Some(s.lock().expect("server poisoned").export_delta(to_peer)),
            CoreInner::Sharded(_) => None,
        }
    }

    /// Merges a peer cell's delta ([`CocaServer::absorb_peer`]). `false`
    /// (delta not merged) in sharded mode.
    pub fn absorb_peer(&self, delta: &PeerDelta) -> bool {
        match &self.inner {
            CoreInner::Single(s) => {
                s.lock().expect("server poisoned").absorb_peer(delta);
                true
            }
            CoreInner::Sharded(_) => false,
        }
    }

    /// Names this core's cell in a peer topology (`cocad --cell-id`).
    /// No-op in sharded mode (which does not run peer sync).
    pub fn set_cell_id(&self, id: u32) {
        if let CoreInner::Single(s) = &self.inner {
            s.lock().expect("server poisoned").set_cell_id(id);
        }
    }

    /// The global-table digest ([`coca_core::GlobalCacheTable::digest`])
    /// of a consistent snapshot. Pending uploads are not included.
    pub fn digest(&self) -> u64 {
        match &self.inner {
            CoreInner::Single(s) => s.lock().expect("server poisoned").global().digest(),
            CoreInner::Sharded(s) => s.digest(),
        }
    }

    /// Unwraps the single-lock server back out (durability detach,
    /// recovery asserts). `None` in sharded mode.
    pub fn into_server(self) -> Option<CocaServer> {
        match self.inner {
            CoreInner::Single(s) => Some(s.into_inner().expect("server poisoned")),
            CoreInner::Sharded(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_lock_modes_start_from_the_same_digest() {
        let spec = RunSpec {
            classes: 15,
            ..RunSpec::default()
        };
        let (rt, cfg, seeds) = spec.build();
        let single = ServerCore::new(&rt, cfg, &seeds, LockMode::Single);
        let sharded = ServerCore::new(&rt, cfg, &seeds, LockMode::Sharded);
        assert_eq!(single.lock_mode(), LockMode::Single);
        assert_eq!(sharded.lock_mode(), LockMode::Sharded);
        assert_eq!(single.digest(), sharded.digest());
        assert_eq!(single.base_hit_profile(), sharded.base_hit_profile());
        assert!(single.into_server().is_some());
        assert!(sharded.into_server().is_none());
    }

    #[test]
    fn lock_mode_flag_round_trips() {
        for mode in [LockMode::Single, LockMode::Sharded] {
            assert_eq!(LockMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(LockMode::parse("spin"), None);
    }
}

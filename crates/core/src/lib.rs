//! # coca-core — the CoCa framework
//!
//! The paper's contribution: multi-client collaborative semantic caching
//! for edge inference. Module map (paper § in parentheses):
//!
//! * [`config`] — every threshold and decay the paper defines (Θ, Γ, Δ, α,
//!   β, γ, F, hot-spot mass, recency base) plus ablation toggles.
//! * [`semantic`] — cache entries, activated cache layers, the client's
//!   local cache (§II.3).
//! * [`lookup`] — inference with sequential cache lookups: cross-layer
//!   accumulated cosine similarity (Eq. 1), discriminative score and hit
//!   test (Eq. 2), early exit, virtual-time charging (§II.3, §III).
//! * [`status`] — client status vectors τ (timestamps) and φ (frequencies)
//!   (§IV.C).
//! * [`collect`] — the cache-update table U with rule-1/rule-2 sample
//!   selection and decay β (Eq. 3, §IV.C).
//! * [`global`] — the server's two-dimensional global cache table with
//!   frequency-weighted merging (Eq. 4) and global frequency Φ (Eq. 5)
//!   (§IV.D).
//! * [`aca`] — Adaptive Cache Allocation: hot-spot class scoring (Eq. 10)
//!   and greedy benefit-ordered layer selection under the memory budget
//!   (Algorithm 1, §V).
//! * [`proto`] — serializable client↔server messages with logical wire
//!   sizes (drives both the simulated links and the TCP deployment).
//! * [`persist`] — server durability: checksummed snapshots + a
//!   write-ahead log with CRC-framed records, log rotation, torn-tail
//!   truncation, generation-fallback recovery and deterministic
//!   crash-point fault injection.
//! * [`client`] / [`server`] — the two runtimes (§IV.A workflow).
//! * [`driver`] — the **generic virtual-time engine**: the
//!   [`MethodDriver`](driver::MethodDriver) trait any method implements,
//!   and the [`drive`](driver::drive) event loop that prices staggered
//!   boots, link transfers, server FIFO queueing and per-frame server
//!   queries identically for every method (§VI.C/I).
//! * [`engine`] — the shared workload model ([`engine::Scenario`]) and the
//!   CoCa instantiation of the generic engine ([`engine::Engine`]); the
//!   baselines crate plugs its own drivers into the same loop. The one
//!   engine runs **multi-edge topologies** too
//!   ([`Engine::with_cells`](engine::Engine::with_cells)): N collaborating
//!   server cells over one scenario, with per-cell client homing, priced
//!   periodic peer sync (gossip ring / hub-and-spoke) and `Migrate`
//!   handover; [`Engine::new`](engine::Engine::new) is the one-cell case.
//! * [`spec`] — declarative **dynamic scenarios**: a serde-serializable
//!   [`spec::ScenarioSpec`] (base fleet + timeline of join/leave,
//!   popularity-drift and link-change events) that materializes into the
//!   shared `Scenario` plus a [`driver::DrivePlan`], so any workload is
//!   data rather than code.

pub mod aca;
pub mod client;
pub mod collect;
pub mod config;
pub mod driver;
pub mod engine;
pub mod global;
pub mod lookup;
mod ordered;
pub mod persist;
pub mod proto;
pub mod semantic;
pub mod server;
pub mod spec;
pub mod status;

pub use aca::{allocate, AcaInputs, AcaOutput};
pub use client::CocaClient;
pub use config::{CocaConfig, MergeMode};
pub use driver::{
    drive, drive_plan, DriveConfig, DrivePlan, FrameOutcome, FrameStep, MemberPlan, MethodDriver,
    MigrationPlan, NoMsg, SyncEmit, TopologyPlan,
};
pub use engine::{Engine, EngineConfig, EngineReport};
pub use global::{GlobalCacheTable, MergeScratch};
pub use lookup::{infer_with_cache, InferenceResult, LookupScratch};
pub use persist::{
    CrashFault, CrashPlan, DirStorage, Durability, MemStorage, PersistError, RecoveryInfo,
    Snapshot, SnapshotSource, Storage, WalRecord,
};
pub use semantic::{CacheLayer, LocalCache};
pub use server::CocaServer;
pub use spec::{
    CellSpec, JoinEvent, LeaveEvent, LinkChangeEvent, MigrateEvent, PopularityShift,
    PopularityShiftEvent, ScenarioEvent, ScenarioSpec, SyncMode, TopologySpec,
};
pub use status::ClientStatus;

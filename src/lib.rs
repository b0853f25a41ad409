//! # CoCa — multi-client collaborative caching for accelerated edge inference
//!
//! A comprehensive Rust reproduction of *"Many Hands Make Light Work:
//! Accelerating Edge Inference via Multi-Client Collaborative Caching"*
//! (ICDE 2025, arXiv:2412.10382).
//!
//! CoCa inserts semantic cache layers between DNN blocks; a cache hit on a
//! class's pooled-feature center terminates inference early. An edge
//! server maintains a two-dimensional global cache table (classes ×
//! layers), merges per-client updates by frequency-weighted averaging (to
//! handle non-IID data), and allocates each client a personalized
//! sub-table via the Adaptive Cache Allocation algorithm (to handle
//! long-tail distributions).
//!
//! This façade crate re-exports the workspace:
//!
//! * [`core`](coca_core) — the CoCa framework itself: semantic cache,
//!   global table, ACA, client/server runtimes, and the **generic
//!   virtual-time engine**: every method (CoCa and all baselines)
//!   implements [`MethodDriver`](coca_core::driver::MethodDriver) and runs
//!   through the same staggered-boot, link-delay, server-FIFO event loop,
//!   so cross-method comparisons share one contention model.
//! * [`model`](coca_model) — the DNN inference simulator substrate.
//! * [`data`](coca_data) — datasets, non-IID partitioning, long-tail
//!   construction, temporally local streams.
//! * [`net`](coca_net) — link/queueing models, the binary wire codec and framing.
//! * [`daemon`](coca_daemon) — `cocad`, the server as a networked daemon
//!   (one thread per connection, the one `CocaServer` behind one mutex),
//!   plus `coca-loadgen`, its closed-/open-loop load generator.
//! * [`baselines`](coca_baselines) — Edge-Only, LearnedCache, FoggyCache,
//!   SMTM, LRU/FIFO/RAND.
//! * [`sim`](coca_sim), [`math`](coca_math), [`metrics`](coca_metrics) —
//!   virtual time, numeric kernels, measurement plumbing.
//!
//! ## Quickstart
//!
//! ```
//! use coca::prelude::*;
//!
//! // A small deployment: 4 cameras running ResNet101 on a 20-class task.
//! let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
//! sc.num_clients = 4;
//! let coca = CocaConfig::for_model(ModelId::ResNet101);
//! let mut engine_cfg = EngineConfig::new(coca.with_round_frames(120));
//! engine_cfg.rounds = 2;
//! let mut engine = Engine::new(Scenario::build(sc), engine_cfg);
//! let report = engine.run();
//! assert!(report.mean_latency_ms < engine.scenario().rt.full_compute().as_millis_f64());
//! ```

pub use coca_baselines as baselines;
pub use coca_core as core;
pub use coca_daemon as daemon;
pub use coca_data as data;
pub use coca_math as math;
pub use coca_metrics as metrics;
pub use coca_model as model;
pub use coca_net as net;
pub use coca_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use coca_core::engine::{Engine, EngineConfig, EngineReport, Scenario, ScenarioConfig};
    pub use coca_core::spec::{PopularityShift, ScenarioEvent, ScenarioSpec};
    pub use coca_core::{CocaConfig, CocaServer, LocalCache};
    pub use coca_data::distribution::{long_tail_weights, uniform_weights};
    pub use coca_data::partition::NonIidLevel;
    pub use coca_data::DatasetSpec;
    pub use coca_metrics::Table;
    pub use coca_model::{ModelId, ModelRuntime};
    pub use coca_sim::{SeedTree, SimDuration, SimTime};
}

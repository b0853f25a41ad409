//! # coca-model — the DNN inference simulator
//!
//! The paper runs PyTorch models (VGG16_BN, ResNet-50/101/152, AST) on a
//! Jetson TX2. CoCa itself never inspects raw pixels — every decision it
//! makes consumes only three signals:
//!
//! 1. **per-block compute latencies** (how much time a cache hit at layer j
//!    saves),
//! 2. **per-cache-layer semantic vectors** (the global-average-pooled
//!    features matched against cache entries), and
//! 3. **final-softmax confidences** (full-model predictions and the rule-2
//!    collection margin).
//!
//! This crate synthesizes exactly those three signals with the geometry the
//! paper's mechanisms rely on:
//!
//! * [`arch`]/[`zoo`] — model architectures as block sequences with preset
//!   cache points; per-point feature dimension and depth-dependent signal
//!   strength/separation profiles (deeper ⇒ more discriminative).
//! * [`latency`] — calibrated virtual-time cost model (block compute and
//!   per-entry cache-lookup costs anchored to the paper's measurements).
//! * [`features`] — the semantic feature generator: hierarchically
//!   correlated class centers (confusable siblings), per-client context
//!   drift (non-IID), per-frame ambiguity mixing and temporally correlated
//!   run noise.
//! * [`view`] — client profiles and each client's synthesis workspace:
//!   drifted offsets memoized by (layer, class); the current run's noise
//!   by layer and its ambiguity, keyed by the run; lean draws keyed by run
//!   and frame seed; scratch buffers.
//! * [`inference`] — [`ModelRuntime`](inference::ModelRuntime), the façade
//!   the core framework and all baselines drive.
//!
//! Cosine similarities, cache hits and classification outcomes are computed
//! **for real** on `f32` vectors; only the charged time is virtual.

pub mod arch;
pub mod features;
pub mod inference;
pub mod latency;
pub mod view;
pub mod zoo;

pub use arch::{CachePoint, ModelArch, ModelId};
pub use features::{FeatureConfig, FeatureUniverse};
pub use inference::{ModelRuntime, Prediction};
pub use latency::LatencyProfile;
pub use view::{ClientFeatureView, ClientProfile};

//! # coca-data — workload substrate
//!
//! The paper evaluates on three real datasets (UCF101, ImageNet-100,
//! ESC-50) streamed to clients with temporal locality, non-IID partitioning
//! (Dirichlet, parameterized by `p = 1/ε`) and long-tail class imbalance
//! (exponential decay with imbalance ratio ρ). This crate reproduces the
//! *label-stream statistics* of those setups synthetically.
//!
//! * [`dataset`] — named dataset specifications (class counts, input-scale
//!   latency factors, per-dataset baseline model accuracy anchors).
//! * [`distribution`] — class-popularity constructions: uniform, long-tail
//!   (`ρ`), plus Dirichlet/Gamma samplers.
//! * [`partition`] — per-client distributions at a chosen non-IID level.
//! * [`stream`] — temporally local frame streams (class runs, per-frame
//!   difficulty with intra-run correlation).

pub mod dataset;
pub mod distribution;
pub mod partition;
pub mod stream;

pub use dataset::{DatasetId, DatasetSpec};
pub use distribution::{dirichlet, long_tail_weights, uniform_weights};
pub use partition::{client_distributions, NonIidLevel};
pub use stream::{Frame, PopularityPhase, StreamConfig, StreamGenerator};

//! # coca-metrics — measurement plumbing
//!
//! Everything the evaluation harness needs to turn simulated inference runs
//! into the tables and series the paper reports:
//!
//! * [`recorder`] — latency / accuracy / per-layer hit recorders. A
//!   [`LatencyRecorder`] is exact Welford moments plus one
//!   [`LatencyHistogram`] for its quantiles.
//! * [`histogram`] — a fixed-bin log-linear latency histogram whose merges
//!   are exact integer adds and whose quantiles are deterministic bucket
//!   lower bounds (≤ 1/64 below the exact value).
//! * [`table`] — aligned ASCII table rendering for the experiment
//!   binaries.
//! * [`record`] — serializable experiment records (`results/*.json`,
//!   mapped binary by binary in `results/README.md`).
//! * [`windowed`] — per-interval (virtual-time window) summaries for the
//!   dynamic-scenario experiments, where drift effects only show up as a
//!   time series.

pub mod histogram;
pub mod record;
pub mod recorder;
pub mod table;
pub mod windowed;

pub use histogram::LatencyHistogram;
pub use record::ExperimentRecord;
pub use recorder::{AccuracyRecorder, HitRecorder, LatencyRecorder, RunSummary};
pub use table::Table;
pub use windowed::{WindowStats, WindowedSummary};

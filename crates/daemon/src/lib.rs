//! # coca-daemon — the CoCa edge server as a networked daemon
//!
//! Everything else in the workspace prices the server inside the
//! virtual-time engine; this crate runs it for real: `cocad` serves the
//! §IV.A protocol over TCP (`[u32 BE length][binary payload]` frames,
//! [`coca_net::wire`]), and `coca-loadgen` measures it from the outside
//! with per-request wall-clock latency (p50/p99/p999 over the exactly
//! mergeable [`coca_metrics::LatencyHistogram`]).
//!
//! * [`msg`] — the request/reply protocol enums.
//! * [`core`] — [`ServerCore`]: the one [`coca_core::CocaServer`] behind
//!   one mutex; plus [`RunSpec`], the deterministic world both ends of a
//!   deployment share.
//! * [`serve`] — an acceptor and one thread per connection that reads,
//!   handles and answers each frame in turn; [`serve()`](serve::serve)
//!   to start, [`DaemonHandle::join`] for the final [`DaemonReport`].
//! * [`workload`] — deterministic request/upload synthesis, a pure
//!   function of `(RunSpec, client, round)`.
//! * [`load`] — closed-/open-loop drivers and the sequential
//!   [`run_verify`] digest-equivalence check.
//!
//! ## Determinism contract
//!
//! Driven with one operation in flight at a time, a daemon finishes
//! with the same global-table digest as an in-process
//! [`coca_core::CocaServer`] fed the identical sequence.
//! `coca-loadgen --verify` checks exactly this over loopback;
//! `tests/daemon_loopback.rs` at the workspace root pins it in CI. Under
//! concurrent load the arrival *order* is scheduling-dependent (so
//! digests vary run to run), but every upload is still merged exactly
//! once through the same Eq. 4/5 primitives.

pub mod core;
pub mod load;
pub mod msg;
pub mod serve;
pub mod workload;

pub use crate::core::{RunSpec, ServerCore};
pub use load::{run_load, run_verify, shutdown_daemon, Arrival, DaemonClient, LoadReport};
pub use msg::{ClientMsg, ServerMsg};
pub use serve::{serve, serve_with_peers, DaemonHandle, DaemonReport, PeerSet};
pub use workload::Workload;

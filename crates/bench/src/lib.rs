//! # coca-bench — the experiment harness
//!
//! Three binaries (`src/bin/`): `exp` regenerates every deterministic
//! committed record; `exp_fleet` and `exp_daemon` write the two wall-clock,
//! host-dependent ones. The code they share:
//!
//! * [`paper`] — the registry of the 20 deterministic records: the paper's
//!   13 experiments (Figs. 1a/1b, 2, 5–9, 10a/10b; Tables I–III), the
//!   systems records and the dynamics records, run by `exp`.
//! * [`systems`] — the fills of the systems records: centroid
//!   re-derivation, the precision sweep, durability, the multi-edge
//!   topology.
//! * [`scenario_exp`] — the dynamics records (churn, drift, hetero), each
//!   replayed from its committed spec under `results/specs/`, and any other
//!   spec `exp` is given as a path.
//! * [`harness`] — the one method dispatch: CoCa and every baseline run
//!   through the same event loop over the *same*
//!   [`coca_core::engine::Scenario`] and return one
//!   [`coca_core::engine::EngineReport`] each, so results are comparable
//!   frame-for-frame.
//! * [`fleet`] — the degenerate driver that prices the event loop alone
//!   (`exp_fleet` and the engine bench).
//! * [`output`] — result directory conventions and the console table of a
//!   record's rows.
//!
//! Run e.g. `cargo run --release -p coca-bench --bin exp -- table2` (no
//! ids: all 20), or a declarative scenario via
//! `cargo run --release -p coca-bench --bin exp -- results/specs/churn.json`.

pub mod fleet;
pub mod harness;
pub mod output;
pub mod paper;
pub mod scenario_exp;
pub mod systems;

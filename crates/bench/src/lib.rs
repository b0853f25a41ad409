//! # coca-bench — the experiment harness
//!
//! Two binaries (`src/bin/`): `exp` regenerates every committed record;
//! `calibrate` prints model-accuracy and margin probes that no record
//! holds. The code `exp` runs:
//!
//! * [`paper`] — the registry of the 22 records: the paper's 13
//!   experiments (Figs. 1a/1b, 2, 5–9, 10a/10b; Tables I–III), the
//!   systems records and the dynamics records.
//! * [`systems`] — the fills of the systems records: the server's cost
//!   against fleet size and the daemon's serve path (the two wall-clock,
//!   host-dependent records), centroid re-derivation, the precision sweep,
//!   durability, the multi-edge topology.
//! * [`scenario_exp`] — the dynamics records (churn, drift, hetero), each
//!   replayed from its committed spec under `results/specs/`, and any other
//!   spec `exp` is given as a path.
//! * [`harness`] — the one method dispatch: CoCa and every baseline run
//!   through the same event loop over the *same*
//!   [`coca_core::engine::Scenario`] and return one
//!   [`coca_core::engine::EngineReport`] each, so results are comparable
//!   frame-for-frame.
//! * [`fleet`] — the degenerate driver that prices the event loop alone
//!   (`exp fleet` and the engine bench).
//! * [`output`] — result directory conventions and the console table of a
//!   record's rows.
//!
//! Run e.g. `cargo run --release -p coca-bench --bin exp -- table2` (no
//! ids: all 22), or a declarative scenario via
//! `cargo run --release -p coca-bench --bin exp -- results/specs/churn.json`.

pub mod fleet;
pub mod harness;
pub mod output;
pub mod paper;
pub mod scenario_exp;
pub mod systems;

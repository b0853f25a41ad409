//! # coca-bench — the experiment harness
//!
//! The experiment binaries (`src/bin/exp_*.rs`) and the code they share:
//!
//! * [`paper`] — the paper's 13 experiments (Figs. 1a/1b, 2, 5–9, 10a/10b;
//!   Tables I–III) as one registry, run by `exp_paper`.
//! * [`harness`] — the one method dispatch: CoCa and every baseline run
//!   through the same event loop over the *same*
//!   [`coca_core::engine::Scenario`] and return one
//!   [`coca_core::engine::EngineReport`] each, so results are comparable
//!   frame-for-frame.
//! * [`fleet`] — the degenerate driver that prices the event loop alone
//!   (`exp_fleet` and the engine bench).
//! * [`output`] — result directory conventions and the console table of a
//!   record's rows.
//! * [`scenario_exp`] — the dynamic-scenario runner behind `exp_scenario`,
//!   which regenerates each dynamics record (churn, drift, hetero) from its
//!   committed spec under `results/specs/`.
//!
//! Run e.g. `cargo run --release -p coca-bench --bin exp_paper -- table2`
//! (no ids: all 13), or a declarative scenario via
//! `cargo run --release -p coca-bench --bin exp_scenario -- results/specs/churn.json`.

pub mod fleet;
pub mod harness;
pub mod output;
pub mod paper;
pub mod scenario_exp;

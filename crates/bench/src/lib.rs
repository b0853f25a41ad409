//! # coca-bench — the experiment harness
//!
//! One binary per paper table/figure (`src/bin/exp_*.rs`) plus shared
//! plumbing here:
//!
//! * [`harness`] — the one method dispatch: CoCa and every baseline run
//!   through the same event loop over the *same*
//!   [`coca_core::engine::Scenario`] and return one
//!   [`coca_core::engine::EngineReport`] each, so results are comparable
//!   frame-for-frame.
//! * [`fleet`] — the degenerate driver that prices the event loop alone
//!   (`exp_fleet` and the engine bench).
//! * [`output`] — result directory conventions and printing helpers.
//! * [`scenario_exp`] — the dynamic-scenario runner shared by
//!   `exp_scenario` (generic, JSON-driven), `exp_churn` and `exp_drift`.
//!
//! Run e.g. `cargo run --release -p coca-bench --bin exp_table2`, or a
//! declarative scenario via
//! `cargo run --release -p coca-bench --bin exp_scenario -- results/specs/churn.json`.

pub mod fleet;
pub mod harness;
pub mod output;
pub mod scenario_exp;

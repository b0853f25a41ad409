//! # coca-bench — the experiment harness
//!
//! One binary per paper table/figure (`src/bin/exp_*.rs`) plus shared
//! plumbing here:
//!
//! * [`harness`] — method runners: CoCa (via the core engine) and every
//!   baseline, all consuming the *same* [`coca_core::engine::Scenario`] so
//!   results are comparable frame-for-frame.
//! * [`output`] — result directory conventions and printing helpers.
//! * [`scenario_exp`] — the dynamic-scenario runner shared by
//!   `exp_scenario` (generic, JSON-driven), `exp_churn` and `exp_drift`.
//!
//! Run e.g. `cargo run --release -p coca-bench --bin exp_table2`, or a
//! declarative scenario via
//! `cargo run --release -p coca-bench --bin exp_scenario -- results/specs/churn.json`.

pub mod harness;
pub mod output;
pub mod scenario_exp;

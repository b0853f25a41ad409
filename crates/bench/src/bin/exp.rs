//! Regenerates the committed records (`coca_bench::paper`): writes
//! `results/<id>.json` for each and prints its rows and what it should
//! show.
//!
//! ```sh
//! cargo run --release -p coca-bench --bin exp                    # all 22
//! cargo run --release -p coca-bench --bin exp -- table2 churn
//! cargo run --release -p coca-bench --bin exp -- results/specs   # every spec in it
//! ```
//!
//! An argument is an experiment id, or a spec `.json` file or directory of
//! specs: each spec writes `results/<stem>.json` (all six methods, overall
//! and windowed rows; a directory runs its specs in parallel). Any other
//! argument exits 2 before anything runs.

use coca_bench::output::{rows_table, save_record};
use coca_bench::paper::{self, Target};
use coca_bench::scenario_exp::{spec_records, SPEC_EXPECTED};
use coca_metrics::ExperimentRecord;

fn publish(record: &ExperimentRecord, expected: &str) {
    save_record(record);
    print!("{}", rows_table(record));
    println!("(expected: {expected})");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets = paper::select(&args).unwrap_or_else(|err| {
        eprintln!("exp: {err}");
        std::process::exit(2);
    });
    for target in targets {
        match target {
            Target::Experiment(e) => publish(&e.run(), e.expected),
            Target::Specs(path) => {
                let records = spec_records(&path).unwrap_or_else(|err| {
                    eprintln!("exp: {err}");
                    std::process::exit(1);
                });
                for record in &records {
                    publish(record, SPEC_EXPECTED);
                }
            }
        }
    }
}

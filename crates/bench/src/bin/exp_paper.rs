//! The paper's 13 experiments (`coca_bench::paper`): writes
//! `results/<id>.json` for each and prints its rows with the paper's
//! expected result.
//!
//! ```sh
//! cargo run --release -p coca-bench --bin exp_paper               # all 13
//! cargo run --release -p coca-bench --bin exp_paper -- table2 fig9
//! ```
//!
//! Arguments are experiment ids only; an unknown one exits 2 before any
//! experiment runs.

use coca_bench::output::{rows_table, save_record};
use coca_bench::paper;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let experiments = paper::select(&ids).unwrap_or_else(|err| {
        eprintln!("exp_paper: {err}");
        std::process::exit(2);
    });
    for e in experiments {
        let record = e.run();
        save_record(&record);
        print!("{}", rows_table(&record));
        println!("(paper: {})", e.expected);
    }
}

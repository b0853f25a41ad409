//! The repo's one repeatable benchmark: five workloads, end-to-end metrics
//! with bounds, and an outside-in per-layer budget for a CoCa operation.
//! See `benchmark/README.md`; run through `benchmark/run.sh`.

mod bench;
mod compare;
mod ctx;
mod daemon;
mod inproc;
mod pools;
mod procfs;
mod report;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use bench::Bench;
use ctx::{Ctx, Outcome};
use pools::Shape;
use report::Record;

const USAGE: &str = "\
benchmark run --bench BENCHMARK.json --cocad PATH --out DIR [options]
    --workload NAME   one workload (default: all, in BENCHMARK.json's order)
    --seed N          workload seed (default 4600)
    --trace [0|1]     0: untraced pass, end-to-end metrics (default)
                      1: traced pass, per-layer metrics
                      no value: both passes
    --smoke           1 s windows, one set-up, short fixed-size phases
    --save FILE       also append this invocation's runs to FILE
    --clk-tck N       kernel clock ticks per second (default 100)
    --seconds S       must equal BENCHMARK.json's run_seconds: a window's
                      length is part of the benchmark, not a setting (the
                      flag exists because the driver passes it)
benchmark compare --bench BENCHMARK.json A.json B.json";

/// Settings that change what the servers do; a run measures the defaults.
const SCRUBBED_ENV: [&str; 8] = [
    "COCA_MERGE_MODE",
    "COCA_FLUSH_POLICY",
    "COCA_PRECISION",
    "COCA_WAL_ROTATE",
    "COCA_PARALLEL_MERGE",
    "COCA_FSYNC",
    "COCA_CRASH_AT",
    "COCA_CRASH_FAULT",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

struct RunOpts {
    bench: PathBuf,
    ctx: Ctx,
    /// `--seconds` as given, to be held against `run_seconds`.
    seconds: Option<f64>,
    workload: Option<String>,
    passes: Passes,
    save: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut bench = None;
    let mut cocad = None;
    let mut out = None;
    let mut opts = RunOpts {
        bench: PathBuf::new(),
        ctx: Ctx {
            cocad: PathBuf::new(),
            out: PathBuf::new(),
            seed: 4600,
            // Set from BENCHMARK.json once it is loaded.
            seconds: 0.0,
            smoke: false,
            clk_tck: 100,
        },
        seconds: None,
        workload: None,
        passes: Passes::Untraced,
        save: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.ctx.smoke = true;
            continue;
        }
        if flag == "--trace" {
            opts.passes = match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    Passes::Untraced
                }
                Some("1") => {
                    it.next();
                    Passes::Traced
                }
                _ => Passes::Both,
            };
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--bench" => bench = Some(PathBuf::from(value)),
            "--cocad" => cocad = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--workload" => opts.workload = Some(value.clone()),
            "--save" => opts.save = Some(PathBuf::from(value)),
            "--seed" => opts.ctx.seed = value.parse().map_err(|_| num("--seed"))?,
            "--clk-tck" => opts.ctx.clk_tck = value.parse().map_err(|_| num("--clk-tck"))?,
            "--seconds" => opts.seconds = Some(value.parse().map_err(|_| num("--seconds"))?),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    opts.bench = bench.ok_or("--bench is required")?;
    opts.ctx.cocad = cocad.ok_or("--cocad is required")?;
    opts.ctx.out = out.ok_or("--out is required")?;
    if opts.ctx.clk_tck == 0 {
        return Err("--clk-tck must be positive".to_string());
    }
    Ok(opts)
}

fn dispatch(ctx: &Ctx, workload: &str, traced: bool) -> Result<Outcome, String> {
    match (workload, traced) {
        ("daemon_bulk", false) => daemon::run(ctx, Shape::Bulk),
        ("daemon_bulk", true) => daemon::run_traced(ctx, Shape::Bulk, workload),
        ("daemon_small", false) => daemon::run(ctx, Shape::Small),
        ("daemon_small", true) => daemon::run_traced(ctx, Shape::Small, workload),
        ("server_inproc", false) => inproc::run_bare(ctx),
        ("server_inproc", true) => inproc::run_bare_traced(ctx, workload),
        ("durable_ingest", false) => inproc::run_durable(ctx),
        ("durable_ingest", true) => inproc::run_durable_traced(ctx, workload),
        ("engine_sim", false) => sim::run(ctx),
        ("engine_sim", true) => sim::run_traced(ctx, workload),
        (other, _) => Err(format!("unknown workload '{other}'")),
    }
}

/// Measures one pass in this process.
fn run_pass(bench: &Bench, ctx: &Ctx, workload: &str, traced: bool) -> Result<Record, String> {
    std::fs::create_dir_all(ctx.tmp()).map_err(|e| format!("{}: {e}", ctx.tmp().display()))?;
    let outcome = dispatch(ctx, workload, traced);
    let _ = std::fs::remove_dir_all(ctx.tmp());
    let record = Record::new(bench, ctx, workload, traced, outcome?)?;
    record.print_lines();
    println!("{}", record.result_line());
    Ok(record)
}

/// Measures several passes, each in a child process of its own: peak RSS
/// is a per-process high-water mark, and one workload's allocations must
/// not show up in the next one's reading.
fn run_passes(opts: &RunOpts, passes: &[(&String, bool)]) -> Result<Vec<Record>, String> {
    let ctx = &opts.ctx;
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let parts = ctx.out.join(format!("parts-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&parts);
    for (workload, traced) in passes {
        let mut child = Command::new(&me);
        child
            .arg("run")
            .arg("--bench")
            .arg(&opts.bench)
            .arg("--cocad")
            .arg(&ctx.cocad)
            .arg("--out")
            .arg(&ctx.out)
            .arg("--save")
            .arg(&parts)
            .args(["--workload", workload.as_str()])
            .args(["--trace", if *traced { "1" } else { "0" }])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--clk-tck", &ctx.clk_tck.to_string()]);
        if ctx.smoke {
            child.arg("--smoke");
        }
        // A child that fails a gate exits non-zero too, but leaves its
        // record; one that could not measure leaves none.
        child
            .status()
            .map_err(|e| format!("{}: {e}", me.display()))?;
    }
    let records = report::load(&parts);
    let _ = std::fs::remove_file(&parts);
    let records = records?;
    if records.len() != passes.len() {
        return Err(format!(
            "{} of {} passes produced no result",
            passes.len() - records.len(),
            passes.len()
        ));
    }
    Ok(records)
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut opts = parse_run(args)?;
    let bench = Bench::load(&opts.bench)?;
    if let Some(given) = opts.seconds.filter(|s| *s != bench.run_seconds) {
        return Err(format!(
            "--seconds {given}: BENCHMARK.json fixes a window at {} s",
            bench.run_seconds
        ));
    }
    opts.ctx.seconds = if opts.ctx.smoke {
        1.0
    } else {
        bench.run_seconds
    };
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let ctx = &opts.ctx;
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let workloads: Vec<&String> = match &opts.workload {
        Some(w) => vec![bench
            .workloads
            .iter()
            .find(|x| *x == w)
            .ok_or_else(|| format!("'{w}' is not a workload of BENCHMARK.json"))?],
        None => bench.workloads.iter().collect(),
    };
    let traced: &[bool] = match opts.passes {
        Passes::Untraced => &[false],
        Passes::Traced => &[true],
        Passes::Both => &[false, true],
    };
    let passes: Vec<(&String, bool)> = workloads
        .iter()
        .flat_map(|w| traced.iter().map(move |&t| (*w, t)))
        .collect();
    let records = match passes.as_slice() {
        [(workload, traced)] => vec![run_pass(&bench, ctx, workload, *traced)?],
        many => run_passes(&opts, many)?,
    };
    report::store(&ctx.out.join("latest.json"), &records)?;
    if let Some(path) = &opts.save {
        let mut all = if path.exists() {
            report::load(path)?
        } else {
            Vec::new()
        };
        all.extend(records.iter().cloned());
        report::store(path, &all)?;
    }
    Ok(records.iter().all(Record::correct))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut bench = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().map(PathBuf::from);
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_string());
    };
    let bench = Bench::load(&bench.ok_or("--bench is required")?)?;
    Ok(!compare::run(&bench, &report::load(a)?, &report::load(b)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

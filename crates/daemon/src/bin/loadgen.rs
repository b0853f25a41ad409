//! `coca-loadgen` — closed-/open-loop load generator for `cocad`.
//!
//! Drives the daemon with one thread per client, records per-request
//! wall-clock latency into the exactly mergeable histogram, and prints
//! p50 / p99 / p999 plus throughput. `--verify` instead drives the
//! workload sequentially against both the daemon and an in-process
//! reference server and compares flushed table digests (exit code 1 on
//! divergence).
//!
//! ```sh
//! coca-loadgen --addr "$(cat /tmp/cocad.addr)" --clients 8 --rounds 20
//! coca-loadgen --addr ... --open-period-us 2000     # open loop
//! coca-loadgen --addr ... --verify --shutdown       # CI smoke
//! ```

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use coca_daemon::{run_load, run_verify, shutdown_daemon, Arrival, RunSpec, Workload};

const USAGE: &str = "\
coca-loadgen — load generator for cocad

USAGE: coca-loadgen --addr HOST:PORT [FLAGS]

Load shape:
  --clients N          concurrent clients (default 8)
  --rounds N           protocol rounds per client (default 20)
  --think-ms N         closed-loop think time between a round's
                       allocation and its upload (default 0)
  --open-period-us N   switch to open loop: one send per client every
                       N microseconds
  --verify             sequential digest-equivalence check instead of
                       a load run (exit 1 on divergence)
  --shutdown           send Shutdown when done

World (must match the daemon):
  --model NAME / --classes N / --seed N / --precision P
                       (same defaults as cocad)
";

struct Opts {
    addr: Option<SocketAddr>,
    clients: usize,
    rounds: usize,
    think: Duration,
    open_period: Option<Duration>,
    verify: bool,
    shutdown: bool,
    spec: RunSpec,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        addr: None,
        clients: 8,
        rounds: 20,
        think: Duration::ZERO,
        open_period: None,
        verify: false,
        shutdown: false,
        spec: RunSpec::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--verify" => {
                opts.verify = true;
                continue;
            }
            "--shutdown" => {
                opts.shutdown = true;
                continue;
            }
            _ => {}
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        if opts.spec.apply_flag(&flag, &value)? {
            continue;
        }
        match flag.as_str() {
            "--addr" => {
                opts.addr = Some(value.parse().map_err(|_| format!("bad --addr '{value}'"))?);
            }
            "--clients" => {
                opts.clients = value
                    .parse()
                    .map_err(|_| format!("bad --clients '{value}'"))?;
            }
            "--rounds" => {
                opts.rounds = value
                    .parse()
                    .map_err(|_| format!("bad --rounds '{value}'"))?;
            }
            "--think-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --think-ms '{value}'"))?;
                opts.think = Duration::from_millis(ms);
            }
            "--open-period-us" => {
                let us: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --open-period-us '{value}'"))?;
                opts.open_period = Some(Duration::from_micros(us));
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if opts.addr.is_none() {
        return Err(format!("--addr is required\n\n{USAGE}"));
    }
    Ok(opts)
}

fn fmt_q(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |ms| format!("{ms:.3}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let addr = opts.addr.expect("checked in parse_args");
    let wl = Workload {
        spec: opts.spec,
        clients: opts.clients,
        rounds: opts.rounds,
    };

    let ok = if opts.verify {
        match run_verify(addr, &wl) {
            Ok(outcome) => {
                println!(
                    "verify: {} ops sequential over loopback — daemon digest \
                     {:016x}, in-process reference {:016x} — {}",
                    outcome.ops,
                    outcome.daemon_digest,
                    outcome.local_digest,
                    if outcome.matches() {
                        "MATCH"
                    } else {
                        "DIVERGED"
                    }
                );
                outcome.matches()
            }
            Err(e) => {
                eprintln!("verify failed: {e}");
                false
            }
        }
    } else {
        let arrival = match opts.open_period {
            Some(period) => Arrival::Open { period },
            None => Arrival::Closed { think: opts.think },
        };
        match run_load(addr, &wl, arrival) {
            Ok(report) => {
                println!(
                    "{} clients x {} rounds ({}): {} ops in {:.2} s — \
                     {:.0} ops/s, latency ms p50 {} p99 {} p999 {} max {}",
                    opts.clients,
                    opts.rounds,
                    match arrival {
                        Arrival::Closed { think } => format!("closed loop, think {think:?}"),
                        Arrival::Open { period } => format!("open loop, period {period:?}"),
                    },
                    report.ops,
                    report.wall.as_secs_f64(),
                    report.throughput_ops_s(),
                    fmt_q(report.hist.p50()),
                    fmt_q(report.hist.p99()),
                    fmt_q(report.hist.p999()),
                    fmt_q(report.hist.max_ms()),
                );
                true
            }
            Err(e) => {
                eprintln!("load run failed: {e}");
                false
            }
        }
    };

    if opts.shutdown {
        let clean = shutdown_daemon(addr);
        println!(
            "shutdown {}",
            if clean {
                "acknowledged"
            } else {
                "sent (no ack)"
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

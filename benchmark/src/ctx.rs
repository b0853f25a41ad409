//! What every workload is handed: where to write, how long to measure,
//! and the shape of what it hands back.

use std::path::PathBuf;
use std::time::Duration;

use crate::bench::Better;

/// Run-wide settings, fixed by the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The shipped `cocad` binary (spawned as a child by the daemon workloads).
    pub cocad: PathBuf,
    /// `benchmark/out`: the only directory the benchmark writes under.
    pub out: PathBuf,
    /// Workload seed: op pools and the simulated scenario derive from it.
    pub seed: u64,
    /// Length of one measured window: `run_seconds` of `BENCHMARK.json`,
    /// or 1 under `--smoke`.
    pub seconds: f64,
    /// CI-sized run: 1 s windows, one set-up, short fixed-size phases.
    pub smoke: bool,
    /// Kernel clock ticks per second (`getconf CLK_TCK`).
    pub clk_tck: u64,
}

impl Ctx {
    /// Scratch space of this process (durability dirs, address files).
    pub fn tmp(&self) -> PathBuf {
        self.out.join("tmp").join(std::process::id().to_string())
    }

    /// Untimed lead-in before a window: caches fill, lazy set-up finishes.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(2.0))
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A window is measured as this many back-to-back slices, each
    /// summarized on its own; the reported value is the best slice (see
    /// [`Outcome::put_best`]).
    pub fn slices(&self) -> usize {
        (self.seconds.round() as usize).max(2)
    }

    pub fn slice(&self) -> Duration {
        self.window() / self.slices() as u32
    }

    /// A traced pass measures two shorter windows (untraced reference,
    /// then traced) so the pair shows the tracing overhead.
    pub fn trace_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 4.0)
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// One reported number: catalog name, value, and the sample count behind
/// it where it is a timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub n: Option<usize>,
    /// Per-slice values when `value` is the best of them.
    pub slices: Vec<f64>,
}

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued inside measured windows.
    pub attempted: u64,
    /// Operations that failed or were answered with the wrong reply.
    pub failed: u64,
    /// Correctness gates that did not hold (empty = outputs correct).
    pub gate_failures: Vec<String>,
    pub readings: Vec<Reading>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.readings.push(Reading {
            name,
            value,
            n: None,
            slices: Vec::new(),
        });
    }

    pub fn put_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.readings.push(Reading {
            name,
            value,
            n: Some(n),
            slices: Vec::new(),
        });
    }

    /// Reports the best of a window's slices: the lowest cost, the highest
    /// rate. The reference host's speed moves in phases of seconds to
    /// minutes (co-tenants, not this program), by up to a third on the
    /// two-thread workloads: between two sets of identical runs taken 17
    /// minutes apart, the median slice of `daemon_bulk` differed by 23 %
    /// (`ops_per_s`) and 31 % (`server_cpu_ms_per_op`) — more than any
    /// bound the contract allows — where the best slice differed by 16 %
    /// and 18 %. Interference only ever slows a slice
    /// down, so the best one is the steadiest estimate of what the program
    /// itself costs. What it cannot see — a change that makes only some
    /// seconds slower — stays visible in the slices, which are kept, and
    /// in their median, which is printed beside every value. `n` is the
    /// sample count behind one slice.
    pub fn put_best(&mut self, name: &'static str, better: Better, slices: Vec<f64>, n: usize) {
        let best = slices.iter().copied().reduce(|a, b| match better {
            Better::Lower => a.min(b),
            Better::Higher => a.max(b),
        });
        self.readings.push(Reading {
            name,
            value: best.unwrap_or(f64::NAN),
            n: Some(n),
            slices,
        });
    }

    /// Records a gate: `ok == false` marks the run incorrect.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

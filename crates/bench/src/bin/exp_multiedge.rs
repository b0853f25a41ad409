//! Multi-edge topology experiment: collaborating server cells with
//! priced peer sync and client migration (`results/multiedge.json`).
//!
//! Four sections, all in virtual time (deterministic, regenerates
//! byte-identically — the record is part of the CI byte-identity gate):
//!
//! 1. **Sync-period sweep** — 3 cells under both sync modes across a
//!    range of periods, against the single-cell oracle (everything
//!    merges at one server instantly). Reports hit ratio, accuracy,
//!    latency and **staleness**: the mean fraction of fleet-wide Φ mass
//!    a cell is missing at run end (0 at the oracle; grows with the
//!    period — the collaboration-vs-traffic trade-off).
//! 2. **Flash crowd** — half the fleet migrates onto one cell mid-run;
//!    windowed hit ratio shows the handover transient.
//! 3. **Cell failure** — a cell's clients re-home to cell 0 via
//!    `Migrate` (the failure drill: the cell drains its queue, its
//!    members re-allocate at their new home).
//! 4. **Determinism** — an explicit one-cell topology against the same
//!    spec with no topology block.
//!
//! Every run asserts Φ conservation (no echo) across the synced runs and
//! the one-cell ≡ no-topology digest match: both are exact in virtual
//! time. Env knob (CI): `COCA_MULTIEDGE_QUICK=1` shrinks rounds/frames
//! (the record then differs from the committed full-size one — CI
//! restores it).

use coca_bench::output::save_record;
use coca_bench::scenario_exp::save_spec;
use coca_core::engine::{Engine, EngineConfig, EngineReport, ScenarioConfig};
use coca_core::spec::{ScenarioSpec, SyncMode, TopologySpec};
use coca_core::{CocaConfig, CocaServer};
use coca_data::DatasetSpec;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use serde_json::json;

const CLIENTS: usize = 6;
const CLASSES: usize = 30;
const SEED: u64 = 23_001;

struct Dims {
    rounds: usize,
    frames: usize,
}

fn base_scenario() -> ScenarioConfig {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(CLASSES));
    sc.num_clients = CLIENTS;
    sc.seed = SEED;
    sc
}

fn coca_cfg(frames: usize) -> CocaConfig {
    CocaConfig::for_model(ModelId::ResNet101).with_round_frames(frames)
}

fn base_spec(d: &Dims) -> ScenarioSpec {
    ScenarioSpec::new(base_scenario(), d.rounds, d.frames)
}

/// Runs one spec on as many server cells as its topology names and
/// returns the report plus the per-cell digests and Φ-staleness.
struct CellRun {
    report: EngineReport,
    digests: Vec<u64>,
    staleness: f64,
    phi_conserved: bool,
}

fn run_cells(spec: &ScenarioSpec, coca: CocaConfig) -> CellRun {
    let (scenario, plan) = spec.materialize();
    let mut engine = Engine::with_cells(scenario, EngineConfig::new(coca), plan.topology.cells);
    let report = engine.run_plan(&plan);
    let digests: Vec<u64> = engine
        .servers()
        .iter()
        .map(|s| s.global().digest())
        .collect();
    let (staleness, phi_conserved) = phi_staleness(engine.servers());
    CellRun {
        report,
        digests,
        staleness,
        phi_conserved,
    }
}

/// Φ-staleness and conservation over the fleet's provenance counts.
///
/// Each origin's authoritative mass is its own cell's self-attributed
/// row (local uploads merge at the home cell synchronously, so the
/// origin cell is never stale about itself). Staleness is the mean,
/// over cells, of the fraction of the fleet-wide mass that cell has not
/// yet absorbed. Conservation holds when no cell attributes *more* mass
/// to an origin than the origin recorded — the no-echo invariant of the
/// cursor-based deltas.
fn phi_staleness(servers: &[CocaServer]) -> (f64, bool) {
    let own: Vec<u64> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.merge_provenance()
                .get(&(i as u32))
                .map_or(0, |row| row.iter().sum())
        })
        .collect();
    let fleet_total: u64 = own.iter().sum();
    if fleet_total == 0 {
        return (0.0, true);
    }
    let mut conserved = true;
    let mut missing_frac_sum = 0.0f64;
    for s in servers {
        let mut have = 0u64;
        for (origin, authoritative) in own.iter().enumerate() {
            let got = s
                .merge_provenance()
                .get(&(origin as u32))
                .map_or(0, |row| row.iter().sum::<u64>());
            if got > *authoritative {
                conserved = false;
            }
            have += got.min(*authoritative);
        }
        missing_frac_sum += 1.0 - have as f64 / fleet_total as f64;
    }
    (missing_frac_sum / servers.len() as f64, conserved)
}

fn main() {
    let quick = std::env::var("COCA_MULTIEDGE_QUICK").as_deref() == Ok("1");
    let d = if quick {
        Dims {
            rounds: 2,
            frames: 100,
        }
    } else {
        Dims {
            rounds: 4,
            frames: 150,
        }
    };

    let mut record = ExperimentRecord::new(
        "multiedge",
        "multi-edge topology — peer-synced server cells, migration, cell failure",
    );
    record
        .param("model", "resnet101")
        .param("dataset", format!("ucf101-{CLASSES}"))
        .param("clients", CLIENTS as u64)
        .param("rounds", d.rounds as u64)
        .param("frames_per_round", d.frames as u64)
        .param("seed", SEED);

    // -- 1. sync-period sweep ------------------------------------------------
    let mut sweep = Table::new(
        "Sync-period sweep — 3 cells vs the single-cell oracle",
        &[
            "Topology",
            "Period (ms)",
            "Hit ratio",
            "Acc.(%)",
            "Lat.(ms)",
            "Φ staleness",
        ],
    );

    let coca = coca_cfg(d.frames);
    let oracle = run_cells(
        &base_spec(&d).topology(TopologySpec::uniform(1, CLIENTS)),
        coca,
    );
    sweep.row(&[
        "1 cell (oracle)".into(),
        "-".into(),
        fmt_f(oracle.report.hit_ratio, 4),
        fmt_f(oracle.report.accuracy_pct, 2),
        fmt_f(oracle.report.mean_latency_ms, 2),
        fmt_f(oracle.staleness, 4),
    ]);
    record.push_row(&[
        ("section", json!("sweep")),
        ("mode", json!("oracle")),
        ("cells", json!(1)),
        ("sync_period_ms", serde_json::Value::Null),
        ("hit_ratio", json!(oracle.report.hit_ratio)),
        ("accuracy_pct", json!(oracle.report.accuracy_pct)),
        ("mean_latency_ms", json!(oracle.report.mean_latency_ms)),
        ("phi_staleness", json!(oracle.staleness)),
    ]);

    let periods: &[f64] = if quick {
        &[500.0, 4000.0]
    } else {
        &[250.0, 1000.0, 4000.0]
    };
    let mut all_synced_conserved = true;
    for mode in [SyncMode::Gossip, SyncMode::HubAndSpoke] {
        for &period in periods {
            let spec =
                base_spec(&d).topology(TopologySpec::uniform(3, CLIENTS).with_sync(period, mode));
            let run = run_cells(&spec, coca);
            all_synced_conserved &= run.phi_conserved;
            let label = match mode {
                SyncMode::Gossip => "3 cells, gossip",
                SyncMode::HubAndSpoke => "3 cells, hub",
            };
            sweep.row(&[
                label.into(),
                fmt_f(period, 0),
                fmt_f(run.report.hit_ratio, 4),
                fmt_f(run.report.accuracy_pct, 2),
                fmt_f(run.report.mean_latency_ms, 2),
                fmt_f(run.staleness, 4),
            ]);
            record.push_row(&[
                ("section", json!("sweep")),
                (
                    "mode",
                    json!(match mode {
                        SyncMode::Gossip => "gossip",
                        SyncMode::HubAndSpoke => "hub_and_spoke",
                    }),
                ),
                ("cells", json!(3)),
                ("sync_period_ms", json!(period)),
                ("hit_ratio", json!(run.report.hit_ratio)),
                ("accuracy_pct", json!(run.report.accuracy_pct)),
                ("mean_latency_ms", json!(run.report.mean_latency_ms)),
                ("phi_staleness", json!(run.staleness)),
                ("phi_conserved", json!(run.phi_conserved)),
            ]);
        }
    }
    print!("{}", sweep.render());
    println!("Φ conservation (no echo) across synced runs: {all_synced_conserved}");
    assert!(
        all_synced_conserved,
        "peer-sync echoed Φ mass back to an origin"
    );

    // -- 2. flash crowd ------------------------------------------------------
    // Cell 0's residents (round-robin: clients 0, 2, 4) pile onto cell 1
    // midway — a flash crowd at one edge.
    let mut flash_spec = base_spec(&d)
        .topology(TopologySpec::uniform(2, CLIENTS).with_sync(1000.0, SyncMode::Gossip));
    let mid = (d.rounds / 2).max(1);
    for k in [0usize, 2, 4] {
        flash_spec = flash_spec.migrate(k, mid, 1);
    }
    save_spec("multiedge_flash", &flash_spec);
    let flash = run_cells(&flash_spec, coca);
    let mut flash_table = Table::new(
        "Flash crowd — 3 clients migrate onto cell 1 mid-run (windowed hit ratio)",
        &["Window", "Start (ms)", "Frames", "Hit ratio", "Lat.(ms)"],
    );
    let window_ms = flash_spec.metrics_window_ms;
    for (i, w) in flash.report.windowed.windows().iter().enumerate() {
        flash_table.row(&[
            i.to_string(),
            fmt_f(i as f64 * window_ms, 0),
            w.frames.to_string(),
            if w.frames == 0 {
                "-".into()
            } else {
                fmt_f(w.hit_ratio(), 3)
            },
            if w.frames == 0 {
                "-".into()
            } else {
                fmt_f(w.mean_latency_ms(), 2)
            },
        ]);
        record.push_row(&[
            ("section", json!("flash_crowd")),
            ("window", json!(i)),
            ("window_start_ms", json!(i as f64 * window_ms)),
            ("frames", json!(w.frames)),
            ("hit_ratio", json!(w.hit_ratio())),
            ("latency_ms", json!(w.mean_latency_ms())),
        ]);
    }
    print!("{}", flash_table.render());
    record.push_row(&[
        ("section", json!("flash_crowd")),
        ("overall_hit_ratio", json!(flash.report.hit_ratio)),
        ("overall_latency_ms", json!(flash.report.mean_latency_ms)),
        ("phi_staleness", json!(flash.staleness)),
    ]);

    // -- 3. cell failure -----------------------------------------------------
    // Cell 1 "fails" mid-run: its residents (clients 1, 3, 5) re-home to
    // cell 0 via Migrate — the old cell drains its in-flight uploads at
    // the handover, the migrants re-allocate from cell 0's merged view.
    let mut fail_spec = base_spec(&d)
        .topology(TopologySpec::uniform(2, CLIENTS).with_sync(1000.0, SyncMode::Gossip));
    for k in [1usize, 3, 5] {
        fail_spec = fail_spec.migrate(k, mid, 0);
    }
    let fail = run_cells(&fail_spec, coca);
    println!(
        "Cell failure — residents re-home to cell 0 at round {mid}: \
         hit {:.4}, latency {:.2} ms (survivor cell digest {:016x})",
        fail.report.hit_ratio, fail.report.mean_latency_ms, fail.digests[0]
    );
    record.push_row(&[
        ("section", json!("cell_failure")),
        ("rehome_round", json!(mid)),
        ("hit_ratio", json!(fail.report.hit_ratio)),
        ("mean_latency_ms", json!(fail.report.mean_latency_ms)),
        (
            "survivor_digest",
            json!(format!("{:016x}", fail.digests[0])),
        ),
    ]);

    // -- 4. determinism ------------------------------------------------------
    // An explicit one-cell topology (the sweep's oracle run) against the
    // same spec with no topology block: same floats, same digests. The
    // table digest is the one the pre-topology engine committed — the
    // proof its event sequence survives in the one engine there is.
    let key = |run: &CellRun| (run.report.frame_digest, run.digests[0]);
    let no_topology = key(&run_cells(&base_spec(&d), coca));
    let onecell = key(&oracle);
    let onecell_match = no_topology == onecell;
    println!(
        "One-cell topology vs no topology: {} (frame digest {:016x}, table digest {:016x})",
        if onecell_match { "MATCH" } else { "MISMATCH" },
        onecell.0,
        onecell.1
    );
    record.push_row(&[
        ("section", json!("determinism")),
        ("one_cell_matches_no_topology", json!(onecell_match)),
        (
            "one_cell_table_digest",
            json!(format!("{:016x}", no_topology.1)),
        ),
    ]);
    assert!(
        onecell_match,
        "one-cell topology diverged from the no-topology path"
    );

    save_record(&record);
}

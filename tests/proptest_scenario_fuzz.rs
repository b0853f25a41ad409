//! Scenario fuzzer: random [`ScenarioSpec`]s hunting for specs that break
//! engine invariants —
//!
//! * **digest divergence**: a run with durability attached must be
//!   byte-identical to the same spec's run without it;
//! * **panics**: no valid spec may panic the engine;
//! * **queue not drained at run end**: the pending upload queue must be
//!   empty when the run ends — a missed flush would leave merges
//!   unapplied.
//!
//! A failing spec is **shrunk** — events removed, rounds and fleet
//! reduced while the failure persists — and the minimal spec's JSON is
//! printed in the panic message, ready to be committed under
//! `results/specs/` as a curated regression. `curated_specs_hold_engine_
//! invariants` replays every committed spec (the dynamics records' specs
//! and fuzz finds alike) through the same oracle.

use std::panic::{catch_unwind, AssertUnwindSafe};

use coca::core::persist::{Durability, MemStorage};
use coca::core::spec::PopularityShift;
use coca::metrics::{LatencyRecorder, RunSummary};
use coca::net::{LinkModel, Wire};
use coca::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draws a random spec: 2–4 base clients, 1–2 rounds, 20–45 frames and
/// up to six timeline events mixing churn, drift, link changes and
/// heterogeneous device speeds — including edge placements (joins at
/// t≈0, leaves in round 1, whole-fleet shifts at frame 0).
fn random_spec(rng: &mut SmallRng) -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = rng.gen_range(2..5);
    sc.seed = rng.gen_range(0..1_000_000);
    let rounds = rng.gen_range(1..3usize);
    let frames = rng.gen_range(20..46usize);
    let mut spec = ScenarioSpec::new(sc, rounds, frames);
    let classes = spec.scenario.dataset.num_classes;
    for _ in 0..rng.gen_range(0..7usize) {
        let total = spec.total_clients();
        match rng.gen_range(0..5u8) {
            0 => {
                spec = spec.join(rng.gen_range(0.0..60_000.0), rng.gen_range(1..3));
            }
            1 => {
                spec = spec.leave(rng.gen_range(0..total), rng.gen_range(1..=rounds));
            }
            2 => {
                let client = if rng.gen_bool(0.5) {
                    None
                } else {
                    Some(rng.gen_range(0..total))
                };
                let shift = match rng.gen_range(0..3u8) {
                    0 => PopularityShift::Rotate(rng.gen_range(1..classes)),
                    1 => PopularityShift::Permute(rng.gen()),
                    _ => PopularityShift::Replace(
                        (0..classes).map(|_| rng.gen_range(0.05..1.0)).collect(),
                    ),
                };
                spec = spec.popularity_shift(client, rng.gen_range(0..100), shift);
            }
            3 => {
                let client = if rng.gen_bool(0.5) {
                    None
                } else {
                    Some(rng.gen_range(0..total))
                };
                let link = LinkModel {
                    one_way_delay: SimDuration::from_millis(rng.gen_range(1..40)),
                    bandwidth_bps: rng.gen_range(5.0e6..60.0e6),
                };
                spec = spec.link_change(client, rng.gen_range(0.0..60_000.0), link);
            }
            _ => {
                let client = if rng.gen_bool(0.5) {
                    None
                } else {
                    Some(rng.gen_range(0..total))
                };
                spec = spec.device_speed(client, rng.gen_range(10..60));
            }
        }
    }
    spec
}

/// The run's frame digest, latency and per-client records, and every
/// cell's global table as `Wire` bytes — compared with `==`.
type Probe = (u64, LatencyRecorder, Vec<RunSummary>, Vec<u8>);

fn run_probe(spec: &ScenarioSpec, durable: bool) -> (Probe, usize) {
    let (scenario, plan) = spec.materialize();
    let cfg = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(spec.frames_per_round);
    let mut engine = Engine::with_cells(scenario, EngineConfig::new(cfg), plan.topology.cells);
    if durable {
        engine
            .server_mut()
            .attach_durability(Durability::new(Box::new(MemStorage::new()), 4));
    }
    let report = engine.run_plan(&plan);
    let mut tables = Vec::new();
    for s in engine.servers() {
        s.global().encode(&mut tables);
    }
    let pending = engine.servers().iter().map(|s| s.pending_uploads()).sum();
    let probe = (
        report.frame_digest,
        report.latency,
        report.per_client,
        tables,
    );
    (probe, pending)
}

/// The invariant oracle: `None` when the spec holds, `Some(reason)` when
/// it breaks the engine.
fn violates(spec: &ScenarioSpec) -> Option<String> {
    if spec.validate().is_err() {
        return None; // rejected specs are out of the oracle's domain
    }
    let spec2 = spec.clone();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let (plain, pending_a) = run_probe(&spec2, false);
        let (durable, pending_b) = run_probe(&spec2, true);
        if pending_a != 0 || pending_b != 0 {
            return Some(format!(
                "queue not drained at run end: {pending_a}/{pending_b} uploads still pending"
            ));
        }
        if plain != durable {
            return Some("digest divergence: durable != non-durable".to_string());
        }
        None
    }));
    match outcome {
        Ok(violation) => violation,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Some(format!("engine panicked: {msg}"))
        }
    }
}

/// Greedy shrink: drop timeline events, then rounds, then base clients,
/// as long as the violation persists.
fn shrink(mut spec: ScenarioSpec) -> ScenarioSpec {
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < spec.timeline.len() {
            let mut cand = spec.clone();
            cand.timeline.remove(i);
            if violates(&cand).is_some() {
                spec = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        if spec.rounds > 1 {
            let mut cand = spec.clone();
            cand.rounds -= 1;
            if violates(&cand).is_some() {
                spec = cand;
                improved = true;
            }
        }
        if spec.scenario.num_clients > 1 {
            let mut cand = spec.clone();
            cand.scenario.num_clients -= 1;
            if cand.validate().is_ok() && violates(&cand).is_some() {
                spec = cand;
                improved = true;
            }
        }
        if !improved {
            return spec;
        }
    }
}

proptest! {
    /// The fuzzer proper: random specs through the oracle. A find is
    /// shrunk and reported as minimal JSON for curation.
    #[test]
    fn random_specs_hold_engine_invariants(seed in 0u64..10_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = random_spec(&mut rng);
        prop_assume!(spec.validate().is_ok());
        if let Some(reason) = violates(&spec) {
            let minimal = shrink(spec);
            let reason = violates(&minimal).unwrap_or(reason);
            panic!(
                "fuzzed spec breaks engine invariants ({reason}); minimal spec — \
                 commit under results/specs/:\n{}",
                minimal.to_json()
            );
        }
    }
}

/// Curation helper (run with `--ignored --nocapture`): prints the JSON
/// of a few generator draws so interesting ones can be committed under
/// `results/specs/` — `fuzz_join_drift.json` is seed 3,
/// `fuzz_leave_drift.json` is seed 42. A pin is its `to_json()` with no
/// final newline: `curated_specs_hold_engine_invariants` compares bytes.
#[test]
#[ignore]
fn print_generated_spec() {
    for seed in [3u64, 11, 42, 97] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = random_spec(&mut rng);
        if spec.validate().is_ok() {
            println!("=== seed {seed} ===\n{}", spec.to_json());
        }
    }
}

/// Every curated spec — the committed dynamics records' specs and the
/// fuzzer's regression finds — is canonical (its file is byte for byte its
/// own `to_json()`) and replays cleanly through the same oracle.
#[test]
fn curated_specs_hold_engine_invariants() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results/specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("results/specs must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let spec =
            ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            spec.to_json() == text,
            "curated spec {} is not canonical: it must equal its own to_json()",
            path.display()
        );
        if let Some(reason) = violates(&spec) {
            panic!(
                "curated spec {} violates invariants: {reason}",
                path.display()
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 6,
        "expected the curated spec corpus, found {checked}"
    );
}

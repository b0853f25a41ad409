//! Fleet-scale server-core experiment: per-round server time at 8 / 32 /
//! 128 clients.
//!
//! Every round the edge server (a) merges one upload per client into the
//! global cache table (Eq. 4/5) and (b) answers one cache request per
//! client (ACA + personalized sub-table extraction). This binary builds a
//! real model runtime (ResNet101 on UCF101-50), seeds the server exactly
//! as the engine does, synthesizes one round of per-client uploads with
//! real per-layer feature dimensions, and wall-clocks the merge phase
//! through the server's one pipeline, `queue_and_flush`: enqueue the
//! round, drain through the per-layer batched pass at the flush boundary
//! (`handle_upload` + `flush_pending`, what the engine runs). Writes
//! `results/fleet.json`.
//!
//! A second sweep scales the **virtual-time engine itself**: a degenerate
//! constant-compute method (no real inference, tiny protocol messages)
//! drives `drive_plan` at 128 → 1 000 000 members, measuring wall-clock
//! per processed event (frames + scheduled request/deliver/upload events)
//! and the process peak RSS. This isolates exactly the machinery the
//! timer-wheel scheduler, the compact 16-byte `ClientState` and the
//! fleet-aggregate summary (`DrivePlan::per_client = false`) exist for.
//! Env knobs (CI smoke):
//!
//! * `COCA_FLEET_QUICK=1` — cap the engine sweep at 100 000 members;
//! * `COCA_FLEET_ENFORCE=1` — fail if per-event cost at 100 000 members
//!   exceeds 2x the 128-member cost, or peak RSS exceeds the ceiling;
//! * `COCA_FLEET_RSS_CEILING_MB` — peak-RSS ceiling (default 4096).

use std::time::Instant;

use coca_bench::fleet::FleetNullDriver;
use coca_bench::output::save_record;
use coca_core::collect::UpdateTable;
use coca_core::driver::{drive_plan, DriveConfig, DrivePlan};
use coca_core::engine::{Scenario, ScenarioConfig};
use coca_core::proto::{CacheRequest, UpdateUpload};
use coca_core::{CocaConfig, CocaServer};
use coca_data::DatasetSpec;
use coca_math::random_unit;
use coca_metrics::table::fmt_f;
use coca_metrics::{ExperimentRecord, Table};
use coca_model::ModelId;
use coca_sim::SeedTree;
use rand::Rng;

const FLEETS: [usize; 3] = [8, 32, 128];
/// Fraction of classes a client's round touches (matches the long-tail
/// hot sets the engine produces).
const TOUCH_EVERY: usize = 3;
/// Wall-clock repetitions per measurement (min taken).
const REPS: usize = 5;

/// One round of synthetic uploads with real per-layer dimensions.
fn build_uploads(
    rt: &coca_model::ModelRuntime,
    fleet: usize,
    seeds: &SeedTree,
) -> Vec<UpdateUpload> {
    let classes = rt.num_classes();
    let layers = rt.num_cache_points();
    (0..fleet)
        .map(|k| {
            let mut rng = seeds.child_idx("upload", k as u64).rng();
            let mut table = UpdateTable::new();
            for c in 0..classes {
                if (c + k) % TOUCH_EVERY == 0 {
                    // A client's collected cells concentrate on a spread
                    // of layers (rule-2 expansions touch all of them).
                    for l in (0..layers).step_by(3) {
                        let v = random_unit(&mut rng, rt.feature_dim(l));
                        table.absorb(c, l, &v, 0.95);
                    }
                }
            }
            let frequency: Vec<u64> = (0..classes).map(|_| rng.gen_range(1u64..30)).collect();
            UpdateUpload {
                client_id: k as u64,
                round: 0,
                table,
                frequency,
                precision: coca_math::Precision::F32,
            }
        })
        .collect()
}

fn min_wallclock_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-`REPS` wall-clock of `run` over one round's uploads. Each
/// repetition gets its own copy of the round, made outside the timed
/// section (the engine moves uploads in, it never clones them).
fn min_round_ms(uploads: &[UpdateUpload], mut run: impl FnMut(Vec<UpdateUpload>)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let round = uploads.to_vec();
        let t = Instant::now();
        run(round);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Process peak RSS (VmHWM) in MB, from `/proc/self/status`. A high-water
/// mark: monotone over the process lifetime, so rows report the peak *up
/// to and including* their run. Returns 0 where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Rounds and frames per member for the engine-scale sweep: enough work
/// per member to amortize boot, small enough that a million-member fleet
/// finishes in seconds.
const ENGINE_ROUNDS: usize = 2;
const ENGINE_FRAMES: usize = 8;

/// One engine-scale measurement: runs the degenerate method over a
/// `members`-sized fleet and returns (events, wall_ms, per_event_ns).
/// Small fleets repeat until enough events accumulate for a stable
/// per-event figure; the minimum over repetitions is reported.
fn measure_engine_fleet(members: usize) -> (u64, f64, f64) {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.seed = 13_200;
    sc.num_clients = members;
    let scenario = Scenario::build(sc);
    let mut plan = DrivePlan::from_config(
        &DriveConfig::new(ENGINE_ROUNDS, ENGINE_FRAMES),
        scenario.config().num_clients,
    );
    // Fleet-scale metrics: one aggregate summary instead of O(members)
    // recorders.
    plan.per_client = false;

    // Repeat small fleets until the run is long enough to time reliably;
    // a 128-member run is microseconds, a million-member run is seconds.
    let target_events = 400_000u64;
    let run_events = (members * ENGINE_ROUNDS * (ENGINE_FRAMES + 3)) as u64;
    let reps = (target_events / run_events.max(1)).clamp(1, 64);

    let mut best_ns = f64::INFINITY;
    let mut events = 0u64;
    let mut wall_ms = 0.0f64;
    for _ in 0..reps {
        let mut driver = FleetNullDriver::default();
        let t = Instant::now();
        let report = drive_plan(&scenario, &mut driver, &plan);
        let elapsed = t.elapsed();
        let ev = driver.events(report.frames);
        let ns = elapsed.as_nanos() as f64 / ev.max(1) as f64;
        if ns < best_ns {
            best_ns = ns;
            events = ev;
            wall_ms = elapsed.as_secs_f64() * 1e3;
        }
        assert_eq!(
            report.frames,
            (members * ENGINE_ROUNDS * ENGINE_FRAMES) as u64,
            "every member must process its full frame budget"
        );
        assert_eq!(
            ev, run_events,
            "every member-round is its frames plus a request, a delivery and an upload"
        );
    }
    (events, wall_ms, best_ns)
}

fn main() {
    let model = ModelId::ResNet101;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(50));
    sc.seed = 13_001;
    sc.num_clients = 1; // the scenario only provides the runtime here
    let scenario = Scenario::build(sc);
    let rt = &scenario.rt;
    let coca = CocaConfig::for_model(model);

    let mut out = Table::new(
        "exp_fleet — per-round server merge wall-clock by upload pipeline",
        &[
            "Clients",
            "Pipeline",
            "Merge (ms)",
            "Requests (ms)",
            "Round total (ms)",
            "us/client",
        ],
    );
    let mut record = ExperimentRecord::new(
        "fleet",
        "per-round server merge + allocation wall-clock vs fleet size",
    );
    record
        .param("model", format!("{model:?}"))
        .param("classes", rt.num_classes())
        .param("layers", rt.num_cache_points())
        .param("reps", REPS);

    for fleet in FLEETS {
        let seeds = SeedTree::new(13_100 + fleet as u64);
        let uploads = build_uploads(rt, fleet, &seeds);
        let cells: usize = uploads.iter().map(|u| u.table.len()).sum();

        // (b) allocation phase — one ACA + extraction per client (the
        // requests are the flush boundary, not part of the merge).
        let mut server_req = CocaServer::new(rt, coca, scenario.seeds());
        let requests: Vec<CacheRequest> = (0..fleet)
            .map(|k| CacheRequest {
                client_id: k as u64,
                round: 1,
                timestamps: vec![(k % 7) as u32 * 40; rt.num_classes()],
                hit_ratio: server_req.base_hit_profile().to_vec(),
                budget_bytes: (rt.arch().full_cache_bytes(rt.num_classes()) / 8) as u64,
            })
            .collect();
        let req_ms = min_wallclock_ms(REPS, || {
            for req in &requests {
                let _ = std::hint::black_box(server_req.handle_request(req));
            }
        });

        // (a) merge phase, the engine's pipeline: enqueue the round,
        // drain at the flush boundary.
        let mut server = CocaServer::new(rt, coca, scenario.seeds());
        let merge_ms = min_round_ms(&uploads, |round| {
            for up in round {
                let _ = server.handle_upload(up);
            }
            server.flush_pending();
        });

        let pipeline = "queue_and_flush";
        let round_ms = merge_ms + req_ms;
        let per_client_us = round_ms * 1e3 / fleet as f64;
        out.row(&[
            fleet.to_string(),
            pipeline.to_string(),
            fmt_f(merge_ms, 2),
            fmt_f(req_ms, 2),
            fmt_f(round_ms, 2),
            fmt_f(per_client_us, 1),
        ]);
        record.push_row(&[
            ("clients", serde_json::json!(fleet)),
            ("cells_per_round", serde_json::json!(cells)),
            ("pipeline", serde_json::json!(pipeline)),
            ("merge_ms", serde_json::json!(merge_ms)),
            ("requests_ms", serde_json::json!(req_ms)),
            ("round_total_ms", serde_json::json!(round_ms)),
            ("us_per_client", serde_json::json!(per_client_us)),
        ]);
    }
    print!("{}", out.render());
    println!(
        "(the queue's batched merge is bit-identical to merging each upload \
         on arrival — proptested in tests/proptest_global.rs and \
         tests/proptest_merge_modes.rs)"
    );

    // ---- Engine-scale sweep: drive_plan itself at fleet sizes the paper
    // only gestures at. Wall-clock per event and peak RSS are the two
    // numbers that decide whether a million-member fleet is simulable.
    let quick = std::env::var("COCA_FLEET_QUICK").as_deref() == Ok("1");
    let enforce = std::env::var("COCA_FLEET_ENFORCE").as_deref() == Ok("1");
    let rss_ceiling_mb: f64 = std::env::var("COCA_FLEET_RSS_CEILING_MB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096.0);
    let engine_fleets: &[usize] = if quick {
        &[128, 1_024, 10_000, 100_000]
    } else {
        &[128, 1_024, 10_000, 100_000, 1_000_000]
    };
    record
        .param("engine_rounds", ENGINE_ROUNDS)
        .param("engine_frames_per_round", ENGINE_FRAMES)
        .param("engine_quick", quick);

    let mut engine_table = Table::new(
        "exp_fleet — virtual-time engine scaling (degenerate method, pure engine overhead)",
        &[
            "Members",
            "Events",
            "Wall (ms)",
            "ns/event",
            "Peak RSS (MB)",
        ],
    );
    let mut per_event_at: Vec<(usize, f64)> = Vec::new();
    for &members in engine_fleets {
        let (events, wall_ms, per_event_ns) = measure_engine_fleet(members);
        let rss_mb = peak_rss_mb();
        engine_table.row(&[
            members.to_string(),
            events.to_string(),
            fmt_f(wall_ms, 1),
            fmt_f(per_event_ns, 0),
            fmt_f(rss_mb, 0),
        ]);
        record.push_row(&[
            ("clients", serde_json::json!(members)),
            ("pipeline", serde_json::json!("engine")),
            ("events", serde_json::json!(events)),
            ("wall_ms", serde_json::json!(wall_ms)),
            ("per_event_ns", serde_json::json!(per_event_ns)),
            ("peak_rss_mb", serde_json::json!(rss_mb)),
        ]);
        per_event_at.push((members, per_event_ns));
    }
    print!("{}", engine_table.render());
    println!(
        "(per-event = frames + scheduled request/deliver/upload events; \
         peak RSS is the process VmHWM high-water mark, monotone across rows)"
    );

    let base = per_event_at
        .iter()
        .find(|(m, _)| *m == 128)
        .map(|&(_, ns)| ns)
        .unwrap_or(f64::INFINITY);
    if let Some(&(_, at_100k)) = per_event_at.iter().find(|(m, _)| *m == 100_000) {
        let ratio = at_100k / base.max(1e-9);
        println!(
            "engine headline: per-event cost at 100k members is {ratio:.2}x the \
             128-member cost (gate: <= 2x)"
        );
        if enforce {
            assert!(
                ratio <= 2.0,
                "per-event cost at 100k members regressed: {at_100k:.0} ns vs \
                 {base:.0} ns at 128 ({ratio:.2}x > 2x)"
            );
            let rss = peak_rss_mb();
            assert!(
                rss <= rss_ceiling_mb,
                "peak RSS {rss:.0} MB exceeds the {rss_ceiling_mb:.0} MB ceiling"
            );
        }
    }

    save_record(&record);
}

//! The systems records of [`crate::paper::EXPERIMENTS`]: the server's
//! per-round cost against fleet size and the daemon's serve path (both
//! wall-clock), centroid re-derivation, the precision sweep, durability
//! and the multi-edge topology. Each fill writes one record and asserts
//! the contract its registry entry names; every row but the wall-clock
//! ones is deterministic.

use std::net::TcpListener;
use std::time::Instant;

use coca_core::collect::UpdateTable;
use coca_core::driver::{drive_plan, DriveConfig, DrivePlan};
use coca_core::engine::{Engine, EngineConfig, EngineReport, Scenario, ScenarioConfig};
use coca_core::persist::{CrashFault, CrashPlan, Durability, MemStorage, SnapshotSource, WAL_CUR};
use coca_core::proto::{CacheRequest, UpdateUpload};
use coca_core::server::seed_global_table;
use coca_core::spec::{PopularityShift, ScenarioSpec, SyncMode, TopologySpec};
use coca_core::{CocaClient, CocaConfig, CocaServer, LookupScratch};
use coca_daemon::{
    run_load, run_verify, serve, Arrival, DaemonHandle, RunSpec, ServerCore, Workload,
};
use coca_data::DatasetSpec;
use coca_math::cluster::{center_separation, kmeans_unit, silhouette_cosine};
use coca_math::{cosine, random_unit, Precision};
use coca_metrics::{ExperimentRecord, LatencyRecorder, RunSummary, WindowedSummary};
use coca_model::{ClientFeatureView, ModelId, ModelRuntime};
use coca_net::{LinkModel, WireSize};
use coca_sim::{SeedTree, SimDuration};
use rand::Rng;
use serde_json::json;

use crate::fleet::FleetNullDriver;
use crate::scenario_exp::save_spec;

/// Server-core fleet sizes.
const FLEETS: [usize; 3] = [8, 32, 128];
/// A client's round touches one class in `TOUCH_EVERY` (the long-tail hot
/// sets the engine produces).
const TOUCH_EVERY: usize = 3;
/// Wall-clock repetitions per server-core measurement (min taken).
const REPS: usize = 5;
/// Engine-scale fleet sizes; the first is the per-event baseline.
const ENGINE_FLEETS: [usize; 5] = [128, 1_024, 10_000, 100_000, 1_000_000];
/// The fleet size whose per-event cost must stay within 2x of the
/// baseline's.
const ENGINE_CHECKED: usize = 100_000;
/// Rounds and frames per member of the engine-scale sweep: enough work per
/// member to amortize boot, small enough that a million-member fleet
/// finishes in seconds.
const ENGINE_ROUNDS: usize = 2;
const ENGINE_FRAMES: usize = 8;
/// Peak-RSS ceiling of the whole sweep (MB).
const RSS_CEILING_MB: f64 = 4096.0;

/// One round of synthetic uploads with real per-layer dimensions.
fn build_uploads(rt: &ModelRuntime, fleet: usize, seeds: &SeedTree) -> Vec<UpdateUpload> {
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
                precision: Precision::F32,
            }
        })
        .collect()
}

/// Best-of-[`REPS`] wall-clock of `run` in ms. Each repetition gets its own
/// `input`, made outside the timed section (the engine moves uploads in,
/// it never clones them).
fn min_wallclock_ms<T>(mut input: impl FnMut() -> T, mut run: impl FnMut(T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let input = input();
        let t = Instant::now();
        run(input);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Process peak RSS (VmHWM) in MB, from `/proc/self/status`. A high-water
/// mark: monotone over the process lifetime, so a row reports the peak *up
/// to and including* its run. Returns 0 where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One engine-scale measurement: runs the degenerate method over a
/// `members`-sized fleet and returns (events, wall_ms, per_event_ns).
/// Small fleets repeat until enough events accumulate for a stable
/// per-event figure; the fastest repetition is reported.
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
    // Up to the checked size at least three runs, so one noisy window on a
    // shared host cannot fail the 2x check alone.
    let target_events = 400_000u64;
    let run_events = (members * ENGINE_ROUNDS * (ENGINE_FRAMES + 3)) as u64;
    let min_reps = if members <= ENGINE_CHECKED { 3 } else { 1 };
    let reps = (target_events / run_events.max(1)).clamp(min_reps, 64);

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

/// Fleet scale, wall-clock: per-round server time at 8 / 32 / 128 clients,
/// then the virtual-time engine itself at 128 → 1 000 000 members.
///
/// Every round the edge server (a) merges one upload per client into the
/// global cache table (Eq. 4/5) and (b) answers one cache request per
/// client (ACA + personalized sub-table extraction). The server is seeded
/// exactly as the engine seeds it (ResNet101 on UCF101-50), one round of
/// per-client uploads is synthesized with real per-layer feature
/// dimensions, and the merge runs the server's one pipeline: enqueue the
/// round, drain at the flush boundary (`handle_upload` + `flush_pending`).
///
/// The engine sweep drives `drive_plan` with [`FleetNullDriver`]
/// (constant compute, tiny protocol messages) and reports wall-clock per
/// processed event (frames + request/deliver/upload events) and the
/// process peak RSS: the machinery of the timer-wheel scheduler, the
/// compact `ClientState` and the fleet-aggregate summary
/// (`DrivePlan::per_client = false`). Asserts the per-event cost at
/// 100 000 members within 2x of the 128-member cost and the peak RSS
/// under [`RSS_CEILING_MB`].
///
/// `peak_rss_mb` is the process's high-water mark, so its rows read this
/// sweep's own peak only when it runs first in its process.
pub(crate) fn fleet(record: &mut ExperimentRecord) {
    let model = ModelId::ResNet101;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(50));
    sc.seed = 13_001;
    sc.num_clients = 1; // the scenario only provides the runtime here
    let scenario = Scenario::build(sc);
    let rt = &scenario.rt;
    let coca = CocaConfig::for_model(model);

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
        let req_ms = min_wallclock_ms(
            || (),
            |()| {
                for req in &requests {
                    let _ = std::hint::black_box(server_req.handle_request(req));
                }
            },
        );

        // (a) merge phase, the engine's pipeline: enqueue the round,
        // drain at the flush boundary.
        let mut server = CocaServer::new(rt, coca, scenario.seeds());
        let merge_ms = min_wallclock_ms(
            || uploads.to_vec(),
            |round| {
                for up in round {
                    let _ = server.handle_upload(up);
                }
                server.flush_pending();
            },
        );

        let round_ms = merge_ms + req_ms;
        record.push_row(&[
            ("clients", json!(fleet)),
            ("cells_per_round", json!(cells)),
            ("pipeline", json!("queue_and_flush")),
            ("merge_ms", json!(merge_ms)),
            ("requests_ms", json!(req_ms)),
            ("round_total_ms", json!(round_ms)),
            ("us_per_client", json!(round_ms * 1e3 / fleet as f64)),
        ]);
    }

    // ---- Engine-scale sweep: wall-clock per event and peak RSS are the
    // two numbers that decide whether a million-member fleet is simulable.
    record
        .param("engine_rounds", ENGINE_ROUNDS)
        .param("engine_frames_per_round", ENGINE_FRAMES);
    let mut base_ns = f64::NAN;
    for members in ENGINE_FLEETS {
        let (events, wall_ms, per_event_ns) = measure_engine_fleet(members);
        record.push_row(&[
            ("clients", json!(members)),
            ("pipeline", json!("engine")),
            ("events", json!(events)),
            ("wall_ms", json!(wall_ms)),
            ("per_event_ns", json!(per_event_ns)),
            ("peak_rss_mb", json!(peak_rss_mb())),
        ]);
        if members == ENGINE_FLEETS[0] {
            base_ns = per_event_ns;
        } else if members == ENGINE_CHECKED {
            let ratio = per_event_ns / base_ns;
            assert!(
                ratio <= 2.0,
                "per-event cost at {members} members regressed: {per_event_ns:.0} ns vs \
                 {base_ns:.0} ns at {} ({ratio:.2}x > 2x)",
                ENGINE_FLEETS[0]
            );
        }
    }
    let rss = peak_rss_mb();
    assert!(
        rss <= RSS_CEILING_MB,
        "peak RSS {rss:.0} MB exceeds the {RSS_CEILING_MB:.0} MB ceiling"
    );
}

/// A fresh daemon for `spec` on an ephemeral loopback port.
fn start_daemon(spec: &RunSpec) -> DaemonHandle {
    let (rt, cfg, seeds) = spec.build();
    let core = ServerCore::new(CocaServer::new(&rt, cfg, &seeds));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    serve(core, listener).expect("daemon starts")
}

/// The daemon's serve path, wall-clock: `coca_daemon::serve` (the loop
/// `cocad` runs) in this process on an ephemeral loopback port, driven by
/// the closed-loop load generator (one thread per client, per-request
/// wall-clock latency into one `LatencyHistogram`): 8 clients × 30 rounds,
/// 480 ops. A second, sequential pass (one op in flight) pins the digest
/// contract. Asserts exact op accounting (every op sent is served once)
/// and the digest MATCH; the latency/throughput row is host-dependent.
pub(crate) fn daemon(record: &mut ExperimentRecord) {
    let spec = RunSpec {
        model: ModelId::ResNet101,
        classes: 30,
        seed: 4_600,
        precision: Precision::F32,
    };
    let wl = Workload {
        spec,
        clients: 8,
        rounds: 30,
    };
    record
        .param("model", format!("{:?}", spec.model))
        .param("classes", spec.classes)
        .param("seed", spec.seed)
        .param("merge_mode", "queue_and_flush")
        .param("clients", wl.clients)
        .param("rounds", wl.rounds)
        .param("arrival", "closed_loop")
        .param("wall_clock_host_dependent", true);

    let handle = start_daemon(&spec);
    let report = run_load(
        handle.addr(),
        &wl,
        Arrival::Closed {
            think: std::time::Duration::ZERO,
        },
    )
    .expect("closed-loop run");
    handle.shutdown();
    let daemon_report = handle.join();
    let served = daemon_report.requests + daemon_report.uploads;
    assert_eq!(report.ops, wl.total_ops(), "load generator lost operations");
    assert_eq!(served, wl.total_ops(), "daemon under/over-served");
    let hist = &report.hist;
    record.push_row(&[
        ("ops", json!(report.ops)),
        ("ops_served", json!(served)),
        ("wall_s", json!(report.wall.as_secs_f64())),
        ("ops_per_s", json!(report.throughput_ops_s())),
        ("p50_ms", json!(hist.p50().unwrap_or(0.0))),
        ("p99_ms", json!(hist.p99().unwrap_or(0.0))),
        ("p999_ms", json!(hist.p999().unwrap_or(0.0))),
        ("max_ms", json!(hist.max_ms().unwrap_or(0.0))),
    ]);

    // ---- Digest contract: a sequential pass over the wire must land the
    // exact in-process reference state.
    let handle = start_daemon(&spec);
    let outcome = run_verify(handle.addr(), &Workload { rounds: 4, ..wl }).expect("verify run");
    handle.shutdown();
    handle.join();
    record.push_row(&[
        ("verify_ops", json!(outcome.ops)),
        ("digest_match", json!(outcome.matches())),
    ]);
    assert!(
        outcome.matches(),
        "daemon digest {:016x} diverged from the in-process reference {:016x}",
        outcome.daemon_digest,
        outcome.local_digest
    );
}

/// Centroid quality: re-derive hot-spot centers from collected samples with
/// deterministic spherical k-means (`coca_math::cluster::kmeans_unit`) and
/// compare their class separation against the shared-dataset seeded
/// centers (a Fig. 2-style quantitative check).
///
/// Samples are drawn from one client's drifted stream at a mid cache
/// layer — exactly the vectors the collection rules would absorb. The
/// seeded centers come from clean shared-dataset samples, so they miss the
/// client's context drift; k-means over the client's own samples recovers
/// drift-aligned centers, so the intra-class cosine must rise. The inter
/// column rises too: every drifted sample shares the client's context
/// direction, which k-means centers absorb — the same common-mode shift
/// `fig2` shows for GCU-evolved centers.
pub(crate) fn centroids(record: &mut ExperimentRecord) {
    const LAYER: usize = 18;
    const CLASSES: usize = 20;
    const PER_CLASS: usize = 30;
    const KMEANS_ITERS: usize = 60;
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(CLASSES));
    sc.seed = 14_001;
    sc.num_clients = 4;
    sc.drift_mag = 0.45; // pronounced context drift, as in multi-camera sites

    let scenario = Scenario::build(sc);
    let rt = &scenario.rt;
    let seeded = seed_global_table(rt, scenario.seeds());

    // Collected samples: per-class draws from client 0's drifted stream.
    let client = scenario.profiles[0].clone();
    let mut view = ClientFeatureView::new();
    let mut stream = scenario.stream(0);
    let mut samples: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut counts = [0usize; CLASSES];
    while counts.iter().any(|&c| c < PER_CLASS) {
        let f = stream.next_frame();
        if counts[f.class] < PER_CLASS {
            counts[f.class] += 1;
            samples.push((f.class, rt.semantic_vector(&f, &client, LAYER, &mut view)));
        }
    }

    // Before: the shared-dataset seeded centers at this layer.
    let seeded_centers: Vec<Vec<f32>> = (0..CLASSES)
        .map(|c| seeded.get(c, LAYER).expect("seeded entry").to_vec())
        .collect();

    // After: spherical k-means over the collected samples, one cluster
    // per class; each cluster is assigned to the majority class of its
    // members (unmatched classes keep their seeded center so the
    // comparison stays per-class complete).
    let vectors: Vec<Vec<f32>> = samples.iter().map(|(_, v)| v.clone()).collect();
    let km = kmeans_unit(&vectors, CLASSES, KMEANS_ITERS);
    let mut votes = vec![vec![0usize; CLASSES]; km.centers.rows()];
    for ((class, _), &cluster) in samples.iter().zip(&km.assignment) {
        votes[cluster][*class] += 1;
    }
    let mut derived = seeded_centers.clone();
    let mut matched = 0usize;
    for (cluster, tally) in votes.iter().enumerate() {
        let (class, &n) = tally
            .iter()
            .enumerate()
            .max_by_key(|&(c, &n)| (n, std::cmp::Reverse(c)))
            .expect("non-empty tally");
        if n > 0 {
            derived[class] = km.centers.row(cluster).to_vec();
            matched += 1;
        }
    }

    let sep_seeded = center_separation(&samples, &seeded_centers).expect("defined");
    let sep_derived = center_separation(&samples, &derived).expect("defined");
    let silhouette = silhouette_cosine(&samples).expect("multi-class");
    assert!(
        sep_derived.intra > sep_seeded.intra,
        "re-derived centers must align with the drifted samples better \
         ({} vs {})",
        sep_derived.intra,
        sep_seeded.intra
    );

    record
        .param("layer", LAYER)
        .param("classes", CLASSES)
        .param("samples_per_class", PER_CLASS)
        .param("kmeans_iterations", km.iterations)
        .param("clusters_matched", matched)
        .param("silhouette", silhouette);
    for (name, sep) in [("seeded", &sep_seeded), ("kmeans", &sep_derived)] {
        record.push_row(&[
            ("centers", json!(name)),
            ("intra", json!(sep.intra)),
            ("inter", json!(sep.inter)),
            ("gap", json!(sep.gap)),
        ]);
    }
}

/// Clients, rounds and frames per round of the precision sweep.
const QUANT_CLIENTS: usize = 4;
const QUANT_ROUNDS: usize = 4;
const QUANT_FRAMES: usize = 200;

/// Byte totals from one direct protocol loop at one precision.
struct WireCosts {
    upload_bytes: usize,
    alloc_bytes: usize,
    table_bytes: usize,
}

fn measure_wire(sc: &ScenarioConfig, cfg: CocaConfig) -> WireCosts {
    let scenario = Scenario::build(sc.clone());
    let rt = &scenario.rt;
    let mut server = CocaServer::new(rt, cfg, scenario.seeds());
    let mut clients: Vec<CocaClient> = (0..QUANT_CLIENTS)
        .map(|k| {
            CocaClient::new(
                k as u64,
                cfg,
                rt,
                scenario.profiles[k].clone(),
                server.base_hit_profile().to_vec(),
            )
        })
        .collect();
    let mut streams: Vec<_> = (0..QUANT_CLIENTS).map(|k| scenario.stream(k)).collect();
    let mut scratch = LookupScratch::new();
    let mut costs = WireCosts {
        upload_bytes: 0,
        alloc_bytes: 0,
        table_bytes: 0,
    };
    for _ in 0..QUANT_ROUNDS {
        for (k, client) in clients.iter_mut().enumerate() {
            let req = client.cache_request();
            let (alloc, _) = server.handle_request(&req);
            costs.alloc_bytes += alloc.wire_bytes();
            client.install_cache(alloc.cache);
            for _ in 0..QUANT_FRAMES {
                let frame = streams[k].next_frame();
                client.process_frame(rt, &frame, &mut scratch);
            }
            let upload = client.end_round();
            costs.upload_bytes += upload.wire_bytes();
            server.handle_upload(upload);
        }
    }
    // The last round's uploads are still queued: merge them before
    // reading the table.
    server.flush_pending();
    costs.table_bytes = server.global().store_bytes();
    costs
}

/// Mean cosine of the seeded global table's entries after a round trip
/// through the codec — the raw fidelity of the representation, before any
/// protocol dynamics.
fn seed_codec_cosine(sc: &ScenarioConfig, precision: Precision) -> f64 {
    let scenario = Scenario::build(sc.clone());
    let reference = seed_global_table(&scenario.rt, scenario.seeds());
    let mut quantized = seed_global_table(&scenario.rt, scenario.seeds());
    quantized.convert_precision(precision);
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for c in 0..scenario.rt.num_classes() {
        for l in 0..scenario.rt.num_cache_points() {
            if let (Some(a), Some(b)) = (reference.get(c, l), quantized.get(c, l)) {
                sum += cosine(&a, &b) as f64;
                n += 1;
            }
        }
    }
    sum / n.max(1) as f64
}

/// Precision sweep: f32 vs f16 vs i8 wire/table representation.
///
/// Runs the identical scenario under each `CocaConfig::precision` and
/// records what quantization buys and what it costs:
///
/// * **bytes** — per-round upload (`UpdateUpload::wire_bytes`) and
///   allocation (`CacheAllocation::wire_bytes`) frame sizes from a direct
///   client/server protocol loop, plus the server table footprint
///   (`GlobalCacheTable::store_bytes`);
/// * **quality** — end-to-end hit ratio / accuracy / latency from a full
///   engine run, plus the raw codec fidelity (mean cosine of the seeded
///   global table's entries after `convert_precision` against f32).
///
/// The i8 row is gated: its upload frames must come in at least 2× under
/// the f32 frames (the wire-reduction contract).
pub(crate) fn quant(record: &mut ExperimentRecord) {
    let model = ModelId::ResNet101;
    let mut sc = ScenarioConfig::new(model, DatasetSpec::ucf101().subset(50));
    sc.num_clients = QUANT_CLIENTS;
    sc.seed = 17_001;

    // The default budget (0) is "auto" for the engine; the direct wire
    // loop needs Π explicit — 1/8 of the full cache, the Fig. 1(a)
    // sweet spot.
    let budget = {
        let probe = Scenario::build(sc.clone());
        probe.rt.arch().full_cache_bytes(probe.rt.num_classes()) / 8
    };
    let base_cfg = CocaConfig::for_model(model)
        .with_round_frames(QUANT_FRAMES)
        .with_budget(budget);

    record
        .param("model", model.name())
        .param("dataset", "ucf101-50")
        .param("clients", QUANT_CLIENTS as u64)
        .param("rounds", QUANT_ROUNDS as u64)
        .param("frames_per_round", QUANT_FRAMES as u64)
        .param("seed", sc.seed);

    let mut f32_upload = 0usize;
    let mut f32_table = 0usize;
    let mut i8_wire_reduction = 0.0f64;
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let cfg = base_cfg.with_precision(precision);
        let costs = measure_wire(&sc, cfg);
        let fidelity = seed_codec_cosine(&sc, precision);

        // End-to-end quality under the engine (virtual-time pricing,
        // identical frame schedule across precisions).
        let spec = ScenarioSpec::new(sc.clone(), QUANT_ROUNDS, QUANT_FRAMES);
        let (scenario, plan) = spec.materialize();
        let mut engine = Engine::new(scenario, EngineConfig::new(cfg));
        let report = engine.run_plan(&plan);

        if precision == Precision::F32 {
            f32_upload = costs.upload_bytes;
            f32_table = costs.table_bytes;
        }
        let wire_reduction = f32_upload as f64 / costs.upload_bytes.max(1) as f64;
        let store_reduction = f32_table as f64 / costs.table_bytes.max(1) as f64;
        if precision == Precision::I8 {
            i8_wire_reduction = wire_reduction;
        }
        record.push_row(&[
            ("precision", json!(precision.label())),
            ("upload_wire_bytes", json!(costs.upload_bytes)),
            ("alloc_wire_bytes", json!(costs.alloc_bytes)),
            ("table_store_bytes", json!(costs.table_bytes)),
            ("upload_reduction_vs_f32", json!(wire_reduction)),
            ("table_reduction_vs_f32", json!(store_reduction)),
            ("hit_ratio", json!(report.hit_ratio)),
            ("accuracy_pct", json!(report.accuracy_pct)),
            ("mean_latency_ms", json!(report.mean_latency_ms)),
            ("seed_codec_cosine", json!(fidelity)),
        ]);
    }
    assert!(
        i8_wire_reduction >= 2.0,
        "i8 upload wire reduction {i8_wire_reduction:.2}x fell below the 2x contract"
    );
}

/// Clients, rounds, frames per round and WAL rotation of the durability run.
const RECOVERY_CLIENTS: usize = 3;
const RECOVERY_ROUNDS: usize = 2;
const RECOVERY_FRAMES: usize = 40;
const ROTATE_EVERY: usize = 3;

/// The same dynamics mix the recovery proptests sweep: a join, a leave,
/// a whole-fleet popularity rotation and a link change.
fn recovery_spec() -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = RECOVERY_CLIENTS;
    sc.seed = 23_001;
    ScenarioSpec::new(sc, RECOVERY_ROUNDS, RECOVERY_FRAMES)
        .join(11_000.0, 1)
        .leave(1, 1)
        .popularity_shift(None, 25, PopularityShift::Rotate(3))
        .link_change(
            Some(0),
            5_500.0,
            LinkModel {
                one_way_delay: SimDuration::from_millis(9),
                bandwidth_bps: 20.0e6,
            },
        )
}

fn recovery_config(spec: &ScenarioSpec, precision: Precision) -> CocaConfig {
    CocaConfig::for_model(ModelId::ResNet101)
        .with_round_frames(spec.frames_per_round)
        .with_precision(precision)
}

/// The run's record series followed by the server's snapshot bytes —
/// table, client registry and pending queue — compared with `==`.
type Probe = (
    LatencyRecorder,
    LatencyRecorder,
    WindowedSummary,
    Vec<RunSummary>,
    Vec<u8>,
);

fn probe(engine: &Engine, report: &EngineReport) -> Probe {
    (
        report.latency.clone(),
        report.response_latency.clone(),
        report.windowed.clone(),
        report.per_client.clone(),
        engine.server().snapshot().to_bytes(),
    )
}

/// Hands the finished run's server one more upload from `client_id`,
/// snapped onto the config's precision grid. The run end drained the
/// queue, so uploads that arrive after it stay queued: the state a server
/// holds between a round's last upload and the next request.
fn upload_after_the_last_request(engine: &mut Engine, precision: Precision, client_id: u64) {
    let rt = &engine.scenario().rt;
    let (layer, class) = (10, 3);
    let mut v = vec![0.0f32; rt.feature_dim(layer)];
    v[client_id as usize + 1] = 1.0;
    let mut table = UpdateTable::new();
    table.absorb(class, layer, &v, 0.0);
    table.quantize_in_place(precision);
    let mut frequency = vec![0u64; rt.num_classes()];
    frequency[class] = 5 + client_id;
    engine.server_mut().handle_upload(UpdateUpload {
        client_id,
        round: RECOVERY_ROUNDS as u64,
        table,
        frequency,
        precision,
    });
}

fn run_durable(
    spec: &ScenarioSpec,
    cfg: CocaConfig,
    crash: Option<CrashPlan>,
) -> (EngineReport, Probe, Engine) {
    let (scenario, plan) = spec.materialize();
    let mut engine = Engine::new(scenario, EngineConfig::new(cfg));
    let mut d = Durability::new(Box::new(MemStorage::new()), ROTATE_EVERY);
    if let Some(plan) = crash {
        d = d.with_crash_plan(plan);
    }
    engine.server_mut().attach_durability(d);
    let report = engine.run_plan(&plan);
    for client_id in 0..2 {
        upload_after_the_last_request(&mut engine, cfg.precision, client_id);
    }
    assert!(engine.server().pending_uploads() > 0);
    let records = probe(&engine, &report);
    (report, records, engine)
}

fn source_label(s: SnapshotSource) -> &'static str {
    match s {
        SnapshotSource::Current => "current",
        SnapshotSource::Previous => "previous",
        SnapshotSource::Genesis => "genesis",
    }
}

/// Durability: the crash-point sweep and the persistence footprint of the
/// snapshot + WAL subsystem (`coca_core::persist`).
///
/// * **crash sweep** — one fixed churn/drift timeline run with a WAL
///   rotating every 3 records, then two uploads that arrive after the
///   run's last request and stay queued; a crash is then injected at
///   *every* WAL event boundary under each fault kind (clean kill, torn
///   final record, corrupted current snapshot) and the resumed run's
///   `frame_digest`, record series and server snapshot bytes (pending
///   queue included) must equal the uninterrupted run's.
/// * **standalone recovery** — [`CocaServer::recover`] from the finished
///   run's storage: which snapshot generation seeded the replay, how many
///   WAL records were replayed and how many torn bytes were truncated,
///   plus snapshot-byte identity with the live server, whose pending queue
///   is non-empty.
/// * **footprint** — snapshot and WAL sizes under f32/f16/i8 table
///   precision for the same timeline.
pub(crate) fn recovery(record: &mut ExperimentRecord) {
    let spec = recovery_spec();
    record
        .param("model", ModelId::ResNet101.name())
        .param("dataset", "ucf101-10")
        .param("clients", RECOVERY_CLIENTS as u64)
        .param("rounds", RECOVERY_ROUNDS as u64)
        .param("frames_per_round", RECOVERY_FRAMES as u64)
        .param("seed", spec.scenario.seed)
        .param("wal_rotate_records", ROTATE_EVERY as u64);

    // -- baseline: uninterrupted durable run (f32) --------------------
    let cfg = recovery_config(&spec, Precision::F32);
    let mut baseline = run_durable(&spec, cfg, None);
    let live_bytes = baseline.2.server().snapshot().to_bytes();
    let d = baseline.2.server_mut().detach_durability().unwrap();
    let total_events = d.events_logged();

    // -- standalone recovery from the finished run's storage ----------
    let scenario = baseline.2.scenario();
    let effective = baseline.2.server().snapshot().config;
    let (recovered, info) =
        CocaServer::recover(&scenario.rt, effective, scenario.seeds(), d).unwrap();
    assert!(recovered.pending_uploads() > 0);
    let recovered_identical = recovered.snapshot().to_bytes() == live_bytes;
    assert!(
        recovered_identical,
        "standalone recovery diverged from the live server"
    );

    // -- crash sweep: every event boundary x every fault kind ---------
    for (label, fault) in [
        ("clean", CrashFault::Clean),
        ("torn_final_record", CrashFault::Torn { keep: 13 }),
        ("snapshot_corrupt", CrashFault::SnapCorrupt { byte: 97 }),
    ] {
        let mut digest_equal = 0u64;
        let mut records_equal = 0u64;
        for at_event in 0..total_events {
            let plan = CrashPlan { at_event, fault };
            let mut crashed = run_durable(&spec, cfg, Some(plan));
            if crashed.0.frame_digest == baseline.0.frame_digest {
                digest_equal += 1;
            }
            if crashed.1 == baseline.1 {
                records_equal += 1;
            }
            let d = crashed.2.server_mut().detach_durability().unwrap();
            assert!(!d.crash_pending(), "crash {plan:?} never fired");
        }
        assert_eq!(
            (digest_equal, records_equal),
            (total_events, total_events),
            "fault {label}: a crash point broke digest/record equality"
        );
        record.push_row(&[
            ("kind", json!("crash_sweep")),
            ("fault", json!(label)),
            ("boundaries", json!(total_events)),
            ("digest_equal", json!(digest_equal)),
            ("records_equal", json!(records_equal)),
        ]);
    }
    record.push_row(&[
        ("kind", json!("standalone_recovery")),
        ("source", json!(source_label(info.source))),
        ("replayed", json!(info.replayed)),
        ("truncated_bytes", json!(info.truncated_bytes)),
        ("snapshot_identical", json!(recovered_identical)),
        ("events_logged", json!(total_events)),
    ]);

    // -- footprint: snapshot + WAL bytes per table precision ----------
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let cfg = recovery_config(&spec, precision);
        let mut run = run_durable(&spec, cfg, None);
        let snap_bytes = run.2.server().snapshot().to_bytes().len();
        let d = run.2.server_mut().detach_durability().unwrap();
        let events = d.events_logged();
        let store = d.into_storage();
        let wal_bytes = store.load(WAL_CUR).map_or(0, |b| b.len());
        record.push_row(&[
            ("kind", json!("footprint")),
            ("precision", json!(precision.label())),
            ("snapshot_bytes", json!(snap_bytes)),
            ("wal_tail_bytes", json!(wal_bytes)),
            ("events_logged", json!(events)),
        ]);
    }
}

/// Clients, classes, seed, rounds and frames per round of the multi-edge runs.
const EDGE_CLIENTS: usize = 6;
const EDGE_CLASSES: usize = 30;
const EDGE_SEED: u64 = 23_001;
const EDGE_ROUNDS: usize = 4;
const EDGE_FRAMES: usize = 150;
/// Peer-sync periods of the sweep (ms).
const PERIODS: [f64; 3] = [250.0, 1000.0, 4000.0];

fn edge_spec() -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(
        ModelId::ResNet101,
        DatasetSpec::ucf101().subset(EDGE_CLASSES),
    );
    sc.num_clients = EDGE_CLIENTS;
    sc.seed = EDGE_SEED;
    ScenarioSpec::new(sc, EDGE_ROUNDS, EDGE_FRAMES)
}

/// One spec's run on as many server cells as its topology names: the
/// report plus the per-cell digests and Φ-staleness.
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

/// Multi-edge topology: collaborating server cells with priced peer sync
/// and client migration, in four sections.
///
/// 1. **Sync-period sweep** — 3 cells under both sync modes across a
///    range of periods, against the single-cell oracle (everything merges
///    at one server instantly): hit ratio, accuracy, latency and
///    **staleness**, the mean fraction of fleet-wide Φ mass a cell is
///    missing at run end (0 at the oracle; grows with the period).
/// 2. **Flash crowd** — half the fleet migrates onto one cell mid-run; the
///    windowed hit ratio shows the handover transient. Its spec is written
///    to `results/specs/multiedge_flash.json`.
/// 3. **Cell failure** — a cell's clients re-home to cell 0 via `Migrate`
///    (the cell drains its queue, its members re-allocate at their new
///    home).
/// 4. **Determinism** — an explicit one-cell topology against the same
///    spec with no topology block.
///
/// Asserts Φ conservation (no echo) across the synced runs and the
/// one-cell ≡ no-topology digest match: both are exact in virtual time.
pub(crate) fn multiedge(record: &mut ExperimentRecord) {
    record
        .param("model", "resnet101")
        .param("dataset", format!("ucf101-{EDGE_CLASSES}"))
        .param("clients", EDGE_CLIENTS as u64)
        .param("rounds", EDGE_ROUNDS as u64)
        .param("frames_per_round", EDGE_FRAMES as u64)
        .param("seed", EDGE_SEED);

    // -- 1. sync-period sweep ------------------------------------------------
    let coca = CocaConfig::for_model(ModelId::ResNet101).with_round_frames(EDGE_FRAMES);
    let oracle = run_cells(
        &edge_spec().topology(TopologySpec::uniform(1, EDGE_CLIENTS)),
        coca,
    );
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
    for (mode, label) in [
        (SyncMode::Gossip, "gossip"),
        (SyncMode::HubAndSpoke, "hub_and_spoke"),
    ] {
        for period in PERIODS {
            let spec = edge_spec()
                .topology(TopologySpec::uniform(3, EDGE_CLIENTS).with_sync(period, mode));
            let run = run_cells(&spec, coca);
            assert!(
                run.phi_conserved,
                "peer-sync echoed Φ mass back to an origin ({label}, {period} ms)"
            );
            record.push_row(&[
                ("section", json!("sweep")),
                ("mode", json!(label)),
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

    // -- 2. flash crowd ------------------------------------------------------
    // Cell 0's residents (round-robin: clients 0, 2, 4) pile onto cell 1
    // midway — a flash crowd at one edge.
    let two_cells = || {
        edge_spec()
            .topology(TopologySpec::uniform(2, EDGE_CLIENTS).with_sync(1000.0, SyncMode::Gossip))
    };
    let mid = EDGE_ROUNDS / 2;
    let mut flash_spec = two_cells();
    for k in [0usize, 2, 4] {
        flash_spec = flash_spec.migrate(k, mid, 1);
    }
    save_spec("multiedge_flash", &flash_spec);
    let flash = run_cells(&flash_spec, coca);
    let window_ms = flash_spec.metrics_window_ms;
    for (i, w) in flash.report.windowed.windows().iter().enumerate() {
        record.push_row(&[
            ("section", json!("flash_crowd")),
            ("window", json!(i)),
            ("window_start_ms", json!(i as f64 * window_ms)),
            ("frames", json!(w.frames)),
            ("hit_ratio", json!(w.hit_ratio())),
            ("latency_ms", json!(w.mean_latency_ms())),
        ]);
    }
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
    let mut fail_spec = two_cells();
    for k in [1usize, 3, 5] {
        fail_spec = fail_spec.migrate(k, mid, 0);
    }
    let fail = run_cells(&fail_spec, coca);
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
    let no_topology = key(&run_cells(&edge_spec(), coca));
    let onecell_match = no_topology == key(&oracle);
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
}

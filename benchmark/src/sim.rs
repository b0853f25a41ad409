//! `engine_sim`: the simulator users' workload — one `Engine::run` over
//! ResNet101 / UCF101-50, 4 clients × 110 rounds × 300 frames. Nearly all
//! of its wall time is `CocaClient::process_frame`; the server and the wire
//! do nothing visible, which is what makes it the control for codec work.

use std::time::{Duration, Instant};

use coca_baselines::run_edge_only;
use coca_core::engine::{Scenario, ScenarioConfig};
use coca_core::server::seed_global_table;
use coca_core::{
    drive_plan, CocaClient, CocaConfig, CocaServer, DriveConfig, DrivePlan, Engine, EngineConfig,
    EngineReport, FrameOutcome, FrameStep, LookupScratch, MergeScratch, MethodDriver, NoMsg,
};
use coca_daemon::{RunSpec, Workload};
use coca_data::{DatasetSpec, Frame};
use coca_math::ScoreScratch;
use coca_model::{ClientFeatureView, ModelId};
use coca_net::WireSize;
use coca_sim::{SeedTree, SimDuration};

use crate::bench::Better;
use crate::ctx::{ms, Ctx, Outcome};
use crate::procfs::Proc;
use crate::stats::med;
use crate::trace::{self, Tracer};

const MODEL: ModelId = ModelId::ResNet101;
const CLASSES: usize = 50;
const SIM_CLIENTS: usize = 4;
/// Rounds of one `Engine::run`: long enough that the steady state — caches
/// learned, most frames served from them — is nearly all of the run and
/// the cold first round (every frame a miss) is under 1 % of it.
const ROUNDS: usize = 110;
const SMOKE_ROUNDS: usize = 2;
/// The world — class geometry, client drift, streams — is what the
/// scenario seed draws, and worlds simulate at anything from 10 k to 30 k
/// frames/s (hit ratios differ, and with them the work per frame). It is
/// therefore part of the workload's definition, like the model and the
/// dataset, and `--seed` draws the one input that leaves the amount of
/// work alone: the fleet's boot stagger.
const WORLD_SEED: u64 = 4600;

fn rounds(ctx: &Ctx) -> usize {
    if ctx.smoke {
        SMOKE_ROUNDS
    } else {
        ROUNDS
    }
}

fn scenario() -> Scenario {
    let mut cfg = ScenarioConfig::new(MODEL, DatasetSpec::ucf101().subset(CLASSES));
    cfg.num_clients = SIM_CLIENTS;
    cfg.seed = WORLD_SEED;
    Scenario::build(cfg)
}

/// Clients boot uniformly inside a window of 1–3 s (the testbed default
/// is 2 s), picked by the seed: it shifts how the fleet's requests and
/// uploads interleave at the server, and so every simulated outcome, but
/// not the amount of work.
fn engine_config(rounds: usize, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::new(CocaConfig::for_model(MODEL));
    cfg.rounds = rounds;
    cfg.boot_window_ms = 1000.0 + (seed % 2001) as f64;
    cfg
}

/// Set-up: scenario (model runtime, client profiles, streams), the
/// Edge-Only reference latency, and the engine (server + clients).
/// Edge-Only latency is the same on every frame, so a short run gives it.
fn setup(ctx: &Ctx) -> (Engine, f64, Duration) {
    let started = Instant::now();
    let sc = scenario();
    let edge_only_ms = run_edge_only(&sc, 1, 20).mean_latency_ms;
    let engine = Engine::new(sc, engine_config(rounds(ctx), ctx.seed));
    (engine, edge_only_ms, started.elapsed())
}

/// The outputs a speed-up must not buy its gain with.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quality {
    frames: u64,
    frame_digest: u64,
    mean_latency_ms: f64,
    accuracy_pct: f64,
    hit_ratio: f64,
}

impl Quality {
    fn of(r: &EngineReport) -> Self {
        Self {
            frames: r.frames,
            frame_digest: r.frame_digest,
            mean_latency_ms: r.mean_latency_ms,
            accuracy_pct: r.accuracy_pct,
            hit_ratio: r.hit_ratio,
        }
    }
}

/// One timed `Engine::run`.
struct Run {
    wall: Duration,
    cpu: Duration,
    quality: Quality,
}

fn timed_run(mut engine: Engine, clk_tck: u64) -> Result<Run, String> {
    let me = Proc::this(clk_tck);
    let cpu0 = me.cpu()?;
    let t = Instant::now();
    let report = engine.run();
    let wall = t.elapsed();
    Ok(Run {
        wall,
        cpu: me.cpu()?.saturating_sub(cpu0),
        quality: Quality::of(&report),
    })
}

/// Gate: a run must have consumed every frame of every round.
fn gate_complete(q: Quality, rounds: usize, out: &mut Outcome) {
    let want = (SIM_CLIENTS * rounds * CocaConfig::for_model(MODEL).round_frames) as u64;
    out.gate(q.frames == want, || {
        format!(
            "Engine::run consumed {} frames, the plan holds {want}",
            q.frames
        )
    });
}

/// The untraced pass. `Engine::run` is one call from outside, so a run is
/// this workload's slice: runs repeat, each on a fresh engine built outside
/// the timed call, until the window is over (twice at least), every repeat
/// must reproduce the first exactly (the gate), and the best run counts.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setups: Vec<f64> = (0..ctx.setup_reps())
        .map(|_| setup(ctx).2.as_secs_f64())
        .collect();
    out.put_n("setup_s", med(&setups), setups.len());

    // Warm-up: a two-round run, untimed.
    Engine::new(scenario(), engine_config(SMOKE_ROUNDS, ctx.seed)).run();
    let mut runs = Vec::new();
    let start = Instant::now();
    while start.elapsed() < ctx.window() || runs.len() < 2 {
        runs.push(timed_run(setup(ctx).0, ctx.clk_tck)?);
    }
    // The simulator is deterministic: every repeat must report the first
    // run's frames, digest and quality numbers, bit for bit.
    let first = runs[0].quality;
    gate_complete(first, rounds(ctx), &mut out);
    for (i, r) in runs.iter().enumerate().skip(1) {
        out.gate(r.quality == first, || {
            format!("run {i} reported {:?}, the first run {first:?}", r.quality)
        });
    }

    let frames = first.frames;
    let per_run = |f: fn(&Run) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    out.attempted = frames * runs.len() as u64;
    out.put_best(
        "ops_per_s",
        Better::Higher,
        per_run(|r| r.quality.frames as f64 / r.wall.as_secs_f64()),
        frames as usize,
    );
    out.put_best(
        "server_cpu_ms_per_op",
        Better::Lower,
        per_run(|r| ms(r.cpu) / r.quality.frames as f64),
        frames as usize,
    );
    out.put("peak_rss_mb", Proc::this(ctx.clk_tck).peak_rss_mb()?);
    Ok(out)
}

/// Frames and entries the manual loop saw.
#[derive(Debug, Default)]
struct LoopCounts {
    frames: u64,
    hits: u64,
    entries_scored: u64,
    /// `ModelRuntime::semantic_vector` calls: one per layer looked up, one
    /// more for the head on a miss, and one per cache point when the
    /// expand rule collects a missed frame.
    vectors: u64,
}

/// The server and clients `Engine::new` builds, built by hand.
struct Fleet {
    coca: CocaConfig,
    server: CocaServer,
    clients: Vec<CocaClient>,
}

impl Fleet {
    fn new(sc: &Scenario) -> Self {
        let mut coca = CocaConfig::for_model(MODEL);
        coca.cache_budget_bytes = sc.rt.arch().full_cache_bytes(sc.rt.num_classes()) / 8;
        let server = CocaServer::new(&sc.rt, coca, sc.seeds());
        let clients = sc
            .profiles
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let profile = server.base_hit_profile().to_vec();
                CocaClient::new(k as u64, coca, &sc.rt, p.clone(), profile)
            })
            .collect();
        Self {
            coca,
            server,
            clients,
        }
    }
}

/// The engine's round taken apart by hand: `cache_request` →
/// `handle_request` → `install_cache` → (`next_frame` → `process_frame`)
/// × F → `end_round` → `handle_upload`, clients in turn. With a tracer,
/// every call leaves a span under a per-round root.
fn manual_loop(
    sc: &Scenario,
    fleet: &mut Fleet,
    rounds: usize,
    mut tracer: Option<&mut Tracer>,
) -> LoopCounts {
    let Fleet {
        coca,
        server,
        clients,
    } = fleet;
    let mut streams: Vec<_> = (0..clients.len()).map(|k| sc.stream(k)).collect();
    let mut scratch = LookupScratch::new();
    let mut counts = LoopCounts::default();
    let mut op = 0u64;
    for _ in 0..rounds {
        for (client, stream) in clients.iter_mut().zip(&mut streams) {
            op += 1;
            let t0 = Instant::now();
            let req = client.cache_request();
            let t1 = Instant::now();
            let (alloc, _) = server.handle_request(&req);
            let t2 = Instant::now();
            client.install_cache(alloc.cache);
            let t3 = Instant::now();
            let root = tracer.as_deref_mut().map(|t| {
                // The root's end is patched in once the round is over.
                let root = t.push("core.engine", "round", op, None, t0, t0);
                t.push("core.client", "cache_request", op, Some(root), t0, t1);
                t.push("core.server", "request", op, Some(root), t1, t2);
                t.push("core.client", "install_cache", op, Some(root), t2, t3);
                root
            });
            // (point, entries) of each activated layer, shallowest first:
            // a frame scores every layer up to the one it exits at.
            let layers: Vec<(usize, u64)> = client
                .cache()
                .layers()
                .iter()
                .map(|l| (l.point, l.len() as u64))
                .collect();
            let mut at = t3;
            for _ in 0..coca.round_frames {
                let frame = stream.next_frame();
                let mid = tracer.as_ref().map(|_| Instant::now());
                let res = client.process_frame(&sc.rt, &frame, &mut scratch);
                counts.frames += 1;
                counts.hits += u64::from(res.is_hit());
                counts.vectors += res.observed.len() as u64 + u64::from(!res.is_hit());
                counts.entries_scored += layers
                    .iter()
                    .take_while(|(point, _)| res.hit_point.is_none_or(|h| *point <= h))
                    .map(|(_, n)| n)
                    .sum::<u64>();
                if let (Some(t), Some(mid)) = (tracer.as_deref_mut(), mid) {
                    let end = Instant::now();
                    t.push("data.stream", "next_frame", op, root, at, mid);
                    t.push("core.client", "process_frame", op, root, mid, end);
                    at = end;
                }
            }
            let t4 = Instant::now();
            let upload = client.end_round();
            let t5 = Instant::now();
            server.handle_upload(upload);
            let t6 = Instant::now();
            if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
                t.push("core.client", "end_round", op, Some(root), t4, t5);
                t.push("core.server", "upload", op, Some(root), t5, t6);
                t.close(root, t6);
            }
        }
    }
    let expanded: u64 = clients.iter().map(|c| c.absorb_stats().expanded).sum();
    counts.vectors += expanded * sc.rt.num_cache_points() as u64;
    counts
}

/// `ModelRuntime::semantic_vector` called directly, on a client's own
/// stream and profile, once at every cache point per frame: ns per call.
fn semantic_vector_ns(sc: &Scenario) -> f64 {
    let frames = 2000;
    let points = sc.rt.num_cache_points();
    let mut stream = sc.stream(0);
    let mut view = ClientFeatureView::new();
    let t = Instant::now();
    for _ in 0..frames {
        let frame = stream.next_frame();
        for point in 0..points {
            let v = sc
                .rt
                .semantic_vector(&frame, &sc.profiles[0], point, &mut view);
            std::hint::black_box(v);
        }
    }
    t.elapsed().as_nanos() as f64 / (frames * points) as f64
}

/// A message that weighs nothing, for the no-op method below.
#[derive(Debug, Clone, Copy)]
struct Blip;

impl WireSize for Blip {
    fn wire_bytes(&self) -> usize {
        0
    }
}

/// A method that does nothing per event, so a `drive_plan` run over it
/// costs only the engine: stream generation, digest, scheduling, recorders.
struct NullDriver;

impl MethodDriver for NullDriver {
    type Request = Blip;
    type Alloc = Blip;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = Blip;

    fn name(&self) -> &str {
        "null"
    }

    fn cache_request(&mut self, _k: usize) -> Option<Blip> {
        Some(Blip)
    }

    fn serve_request(&mut self, _k: usize, _req: Blip) -> (Blip, SimDuration) {
        (Blip, SimDuration::from_micros(2))
    }

    fn install(&mut self, _k: usize, _alloc: Blip) {}

    fn process_frame(&mut self, _k: usize, _frame: &Frame) -> FrameStep<NoMsg> {
        FrameStep::Done(FrameOutcome {
            compute: SimDuration::from_micros(10),
            correct: true,
            hit_point: None,
        })
    }

    fn end_round(&mut self, _k: usize) -> Option<Blip> {
        Some(Blip)
    }

    fn serve_upload(&mut self, _k: usize, _upload: Blip) -> SimDuration {
        SimDuration::from_micros(2)
    }
}

/// ns per engine event (frames + request/deliver/upload per round) with a
/// method that does nothing.
fn null_event_ns(sc: &Scenario, rounds: usize) -> f64 {
    let frames = CocaConfig::for_model(MODEL).round_frames;
    let plan = DrivePlan::from_config(&DriveConfig::new(rounds, frames), SIM_CLIENTS);
    let events = (SIM_CLIENTS * rounds * (frames + 3)) as f64;
    let t = Instant::now();
    let report = drive_plan(sc, &mut NullDriver, &plan);
    std::hint::black_box(report.frame_digest);
    t.elapsed().as_nanos() as f64 / events
}

/// `VectorStore::score_top2` called directly on a converged client cache:
/// ns per entry scored, at the workload's own layer sizes and dimensions.
fn score_top2_ns_per_entry(cache: &coca_core::LocalCache, classes: usize, alpha: f32) -> f64 {
    let entries: u64 = cache.layers().iter().map(|l| l.len() as u64).sum();
    if entries == 0 {
        return 0.0;
    }
    let mut scratch = ScoreScratch::new();
    let passes = 2000;
    let t = Instant::now();
    for _ in 0..passes {
        scratch.begin(classes);
        for layer in cache.layers() {
            let top =
                layer
                    .vectors
                    .score_top2(layer.vectors.row(0), &layer.classes, alpha, &mut scratch);
            std::hint::black_box(top);
        }
    }
    t.elapsed().as_nanos() as f64 / (passes * entries) as f64
}

/// `GlobalCacheTable::merge_update` called directly with bulk uploads
/// shaped for this world: ns per merged cell.
fn merge_ns_per_cell(sc: &Scenario, seed: u64) -> f64 {
    let spec = RunSpec {
        model: MODEL,
        classes: CLASSES,
        ..RunSpec::default()
    };
    let wl = Workload {
        spec,
        clients: SIM_CLIENTS,
        rounds: 16,
    };
    let seeds = SeedTree::new(seed);
    let mut table = seed_global_table(&sc.rt, sc.seeds());
    let mut scratch = MergeScratch::new();
    let uploads: Vec<_> = (0..wl.clients)
        .flat_map(|k| (0..wl.rounds).map(move |r| (k, r)))
        .map(|(k, r)| wl.upload(&sc.rt, &seeds, k, r))
        .collect();
    let cells: u64 = uploads.iter().map(|u| u.table.len() as u64).sum();
    let t = Instant::now();
    for up in &uploads {
        table.merge_update(&up.table, &up.frequency, 0.99, &mut scratch);
    }
    let took = t.elapsed();
    std::hint::black_box(table.digest());
    took.as_nanos() as f64 / cells.max(1) as f64
}

/// The traced pass, at the workload's full length: one `Engine::run` for
/// the wall time and the quality outputs, then the manual loop untraced
/// and traced.
pub fn run_traced(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rounds = rounds(ctx);
    let (engine, edge_only_ms, _) = setup(ctx);
    let engine_run = timed_run(engine, ctx.clk_tck)?;
    let q = engine_run.quality;
    gate_complete(q, rounds, &mut out);
    out.attempted = q.frames;

    let sc = scenario();
    let mut fleet = Fleet::new(&sc);
    let t = Instant::now();
    let plain_counts = manual_loop(&sc, &mut fleet, rounds, None);
    let plain_wall = t.elapsed();
    let mut tracer = Tracer::new(Instant::now());
    let mut fleet = Fleet::new(&sc);
    let t = Instant::now();
    let counts = manual_loop(&sc, &mut fleet, rounds, Some(&mut tracer));
    let traced_wall = t.elapsed();
    out.gate(
        counts.frames == q.frames && plain_counts.hits == counts.hits,
        || {
            format!(
                "manual loop ran {} frames, Engine::run {}",
                counts.frames, q.frames
            )
        },
    );

    let spans = tracer.spans();
    let own = trace::self_times(spans);
    let mean_ns = |name: &str| {
        let xs: Vec<u64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| *o)
            .collect();
        xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
    };
    let frame_us = mean_ns("process_frame") / 1e3;
    out.put(
        "core.client.process_frame_share",
        frame_us * counts.frames as f64 / (traced_wall.as_secs_f64() * 1e6),
    );
    out.put_n(
        "core.client.process_frame_us",
        frame_us,
        counts.frames as usize,
    );
    out.put_n(
        "core.client.end_round_us",
        mean_ns("end_round") / 1e3,
        SIM_CLIENTS * rounds,
    );
    out.put_n(
        "data.stream.frame_gen_ns",
        mean_ns("next_frame"),
        counts.frames as usize,
    );
    out.put_n(
        "core.server.request_us",
        mean_ns("request") / 1e3,
        SIM_CLIENTS * rounds,
    );
    out.put_n(
        "core.server.upload_us",
        mean_ns("upload") / 1e3,
        SIM_CLIENTS * rounds,
    );
    let per_frame = |count: u64| count as f64 / counts.frames.max(1) as f64;
    out.put(
        "core.lookup.entries_scored_per_frame",
        per_frame(counts.entries_scored),
    );
    out.put("core.lookup.hit_share", per_frame(counts.hits));

    // What `process_frame` is made of, estimated from outside: calls into
    // each layer per frame × the cost of one such call made directly, at
    // this workload's sizes, on a cache as a client holds it after the
    // last round.
    let (cache, coca) = (fleet.clients[0].cache(), fleet.coca);
    let ns_per_entry = score_top2_ns_per_entry(cache, CLASSES, coca.alpha);
    out.put("math.kernels.score_top2_ns_per_entry", ns_per_entry);
    out.put(
        "math.kernels.merge_ns_per_cell",
        merge_ns_per_cell(&sc, ctx.seed),
    );
    out.put(
        "core.lookup.kernel_share_est",
        per_frame(counts.entries_scored) * ns_per_entry / (frame_us * 1e3),
    );
    let ns_per_vector = semantic_vector_ns(&sc);
    out.put("model.features.semantic_vector_ns", ns_per_vector);
    out.put(
        "model.features.vectors_per_frame",
        per_frame(counts.vectors),
    );
    out.put(
        "model.features.share_est",
        per_frame(counts.vectors) * ns_per_vector / (frame_us * 1e3),
    );

    // What `Engine::run` costs beyond the calls it makes: its wall time
    // against the same calls made by hand.
    out.put(
        "core.engine.overhead_share",
        1.0 - plain_wall.as_secs_f64() / engine_run.wall.as_secs_f64(),
    );
    out.put("sim.event.null_event_ns", null_event_ns(&sc, rounds));
    out.put(
        "core.engine.sim_latency_reduction_pct",
        (1.0 - q.mean_latency_ms / edge_only_ms) * 100.0,
    );
    out.put("core.engine.sim_accuracy_pct", q.accuracy_pct);
    out.put("core.engine.sim_hit_ratio", q.hit_ratio);
    out.put(
        "trace.overhead_pct",
        (traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0) * 100.0,
    );

    trace::write(&ctx.out, name, spans)?;
    Ok(out)
}
